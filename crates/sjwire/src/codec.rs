//! Columnar payload sections: the binary codecs for hot row payloads.
//!
//! Three codecs, composed by `sjserve::wire` into full messages:
//!
//! - **String tables** ([`encode_str_rows`]) for rendered result rows
//!   (`QueryResult::rows`, `WindowEmission::rows`, both
//!   `Vec<Vec<String>>`): either plain length-prefixed cells or a
//!   shared dict of distinct cell strings plus a `u32` code per cell,
//!   picked adaptively from a sample of the data. Either way the cells
//!   skip per-cell JSON escape/parse entirely. [`encode_rendered_rows`]
//!   makes the same table straight from `Row`s, and [`str_rows_prefix`]
//!   cuts a table to its first rows without rendering a cell, so one
//!   encoded answer serves every row limit.
//! - **Values** ([`encode_value`]): a tagged binary encoding of
//!   [`sjcore::Value`] that is *bit-exact* — float NaN payloads and
//!   ±∞ survive, which JSON cannot do (`serde_json` renders
//!   non-finite floats as `null`).
//! - **Partitions** ([`encode_partition`]): [`ColumnarPartition`]
//!   lanes shipped directly — lane tag, validity bitmap, then the
//!   typed array (`i64`s, `f64` bit patterns, dict-encoded strings,
//!   or tagged values for `Mixed`). Append batches ride this codec,
//!   so ingested rows never materialize as JSON at all.
//!
//! All integers little-endian. Every decoder is bounds-checked and
//! returns [`WireError::Decode`]/[`WireError::Truncated`] instead of
//! panicking: payloads arrive from the network.

use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

use sjcore::column::{Column, ColumnData, ColumnarPartition, Validity};
use sjcore::units::time::{TimeSpan, Timestamp};
use sjcore::{Row, Value};

use crate::frame::WireError;

/// Bounds-checked little-endian reader over a payload slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| WireError::Decode(format!("bad utf-8: {e}")))
    }

    /// Guard a count field against allocation bombs: each counted item
    /// must occupy at least `min_item_bytes` in what remains.
    fn check_count(&self, n: usize, min_item_bytes: usize) -> Result<(), WireError> {
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(())
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// String tables: Vec<Vec<String>> as dict-encoded lanes.
// ---------------------------------------------------------------------------

/// [`encode_str_rows`] body format: plain length-prefixed cells.
const STRS_PLAIN: u8 = 0;
/// [`encode_str_rows`] body format: shared dict + `u32` code per cell.
const STRS_DICT: u8 = 1;

/// How many leading cells to sample when deciding plain vs dict.
const DICT_SAMPLE: usize = 1024;

/// Encode rendered rows with an adaptive body format.
///
/// Layout: `[nrows u32][ncols u32][ragged u8]` then, when ragged, one
/// `u32` length per row; then a format byte and the cells:
///
/// - [`STRS_PLAIN`]: one `u32` length per cell (row-major), then
///   `[blob_len u32]` and every cell's bytes as one contiguous UTF-8
///   blob, validated once on decode.
/// - [`STRS_DICT`]: the dict (`[count u32]` + strings, in order of
///   first use) and one `u32` code per cell in row-major order.
///
/// Telemetry rows repeat node names, racks, and quantized readings
/// heavily, so the dict is usually both smaller and cheaper than
/// per-cell JSON escape/parse — but a high-cardinality result (every
/// cell distinct) would pay the dict's hashing and bloat its payload
/// with codes for nothing. A sample of the leading cells picks the
/// format; a misprediction costs bytes, never correctness.
pub fn encode_str_rows(rows: &[Vec<String>]) -> Vec<u8> {
    let mut out = Vec::new();
    put_str_header(&mut out, rows.iter().map(Vec::len));
    let cells = rows.iter().flatten().map(String::as_bytes);
    if prefers_dict(cells.clone()) {
        put_dict_body(&mut out, cells);
    } else {
        put_plain_body(&mut out, cells);
    }
    out
}

/// The table [`encode_str_rows`] makes of `rows` rendered to display
/// form (`ncols` cells a row, each `Value`'s `Display`), byte for byte,
/// without a `String` per cell. Answers repeat values heavily (node
/// names, timestamps, quantized readings) and formatting is most of
/// what rendering costs, so a table that picks the dict body renders
/// each distinct value once; a plain one renders every cell straight
/// into its blob.
pub fn encode_rendered_rows(rows: &[Row], ncols: usize) -> Vec<u8> {
    let cells = || rows.iter().flat_map(|row| &row.values()[..ncols]);
    let mut out = Vec::new();
    put_str_header(&mut out, (0..rows.len()).map(|_| ncols));
    let mut dict = RenderedDict::default();
    let sample: Vec<u32> = cells().take(DICT_SAMPLE).map(|v| dict.code(v)).collect();
    if dict_wins(sample.len(), dict.strings.len()) {
        let mut codes = sample;
        codes.extend(cells().skip(DICT_SAMPLE).map(|v| dict.code(v)));
        let strings: Vec<&[u8]> = dict.strings.iter().map(|s| s.as_bytes()).collect();
        put_dict(&mut out, &strings, &codes);
    } else {
        let mut lens: Vec<u8> = Vec::new();
        let mut blob = String::new();
        for value in cells() {
            let start = blob.len();
            write!(blob, "{value}").expect("rendering into a String");
            lens.extend_from_slice(&((blob.len() - start) as u32).to_le_bytes());
        }
        out.push(STRS_PLAIN);
        out.extend_from_slice(&lens);
        out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        out.extend_from_slice(blob.as_bytes());
    }
    out
}

/// The distinct rendered strings of [`encode_rendered_rows`], numbered
/// in order of first use, as [`encode_str_rows`] numbers its dict.
#[derive(Default)]
struct RenderedDict<'a> {
    strings: Vec<String>,
    by_string: HashMap<String, u32>,
    by_value: HashMap<CellKey<'a>, u32>,
}

impl<'a> RenderedDict<'a> {
    /// The code of `value`'s rendering, rendering it only the first time
    /// the value occurs.
    fn code(&mut self, value: &'a Value) -> u32 {
        let key = CellKey::of(value);
        if let Some(&code) = key.as_ref().and_then(|k| self.by_value.get(k)) {
            return code;
        }
        let rendered = value.to_string();
        let code = match self.by_string.get(&rendered) {
            Some(&code) => code,
            None => {
                let code = self.strings.len() as u32;
                self.by_string.insert(rendered.clone(), code);
                self.strings.push(rendered);
                code
            }
        };
        if let Some(key) = key {
            self.by_value.insert(key, code);
        }
        code
    }
}

/// What a value's rendering is a function of, hashable: equal keys
/// render equally. Lists have none and are rendered at each use.
#[derive(PartialEq, Eq, Hash)]
enum CellKey<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(&'a str),
    Time(i64),
    Span(i64, i64),
}

impl<'a> CellKey<'a> {
    fn of(value: &'a Value) -> Option<CellKey<'a>> {
        Some(match value {
            Value::Null => CellKey::Null,
            Value::Bool(b) => CellKey::Bool(*b),
            Value::Int(i) => CellKey::Int(*i),
            Value::Float(x) => CellKey::Float(x.to_bits()),
            Value::Str(s) => CellKey::Str(s),
            Value::Time(t) => CellKey::Time(t.as_micros()),
            Value::Span(s) => CellKey::Span(s.start.as_micros(), s.end.as_micros()),
            Value::List(_) => return None,
        })
    }
}

/// Whether a sample of `sampled` leading cells, `distinct` of them
/// different, picks the dict body: at least half the cells repeat.
fn dict_wins(sampled: usize, distinct: usize) -> bool {
    sampled > 0 && distinct * 2 <= sampled
}

/// Whether the sample of `cells` picks the dict body.
fn prefers_dict<'a>(cells: impl Iterator<Item = &'a [u8]>) -> bool {
    let mut sampled = 0usize;
    let mut sample: HashMap<&[u8], ()> = HashMap::with_capacity(DICT_SAMPLE);
    for cell in cells.take(DICT_SAMPLE) {
        sampled += 1;
        sample.insert(cell, ());
    }
    dict_wins(sampled, sample.len())
}

/// The table header for rows of `row_lens` cells each.
fn put_str_header(out: &mut Vec<u8>, row_lens: impl ExactSizeIterator<Item = usize> + Clone) {
    let ncols = row_lens.clone().next().unwrap_or(0);
    let ragged = row_lens.clone().any(|len| len != ncols);
    out.extend_from_slice(&(row_lens.len() as u32).to_le_bytes());
    out.extend_from_slice(&(ncols as u32).to_le_bytes());
    out.push(ragged as u8);
    if ragged {
        for len in row_lens {
            out.extend_from_slice(&(len as u32).to_le_bytes());
        }
    }
}

/// A [`STRS_DICT`] body: the distinct cells in order of first use, then
/// a code per cell.
fn put_dict_body<'a>(out: &mut Vec<u8>, cells: impl Iterator<Item = &'a [u8]>) {
    let mut index: HashMap<&[u8], u32> = HashMap::new();
    let mut dict: Vec<&[u8]> = Vec::new();
    let codes: Vec<u32> = cells
        .map(|cell| {
            *index.entry(cell).or_insert_with(|| {
                dict.push(cell);
                (dict.len() - 1) as u32
            })
        })
        .collect();
    put_dict(out, &dict, &codes);
}

fn put_dict(out: &mut Vec<u8>, dict: &[&[u8]], codes: &[u32]) {
    out.push(STRS_DICT);
    out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
    for s in dict {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s);
    }
    for c in codes {
        out.extend_from_slice(&c.to_le_bytes());
    }
}

/// A [`STRS_PLAIN`] body. Cell lengths first, then one contiguous UTF-8
/// blob: the decoder validates the whole blob once and slices it,
/// instead of validating 4-byte-prefixed cells one at a time.
fn put_plain_body<'a>(out: &mut Vec<u8>, cells: impl Iterator<Item = &'a [u8]> + Clone) {
    out.push(STRS_PLAIN);
    let mut blob_len = 0usize;
    for cell in cells.clone() {
        out.extend_from_slice(&(cell.len() as u32).to_le_bytes());
        blob_len += cell.len();
    }
    out.extend_from_slice(&(blob_len as u32).to_le_bytes());
    out.reserve(blob_len);
    for cell in cells {
        out.extend_from_slice(cell);
    }
}

/// `count` little-endian `u32`s as raw bytes.
fn take_u32s<'a>(r: &mut Reader<'a>, count: usize) -> Result<&'a [u8], WireError> {
    r.check_count(count, 4)?;
    r.take(count * 4)
}

fn u32s(bytes: &[u8]) -> impl ExactSizeIterator<Item = u32> + Clone + '_ {
    bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// The sum of `u32`s taken from [`take_u32s`].
fn sum_u32s(bytes: &[u8]) -> usize {
    u32s(bytes).fold(0usize, |sum, v| sum.saturating_add(v as usize))
}

/// Cut an [`encode_str_rows`] table down to its first `n` rows without
/// rendering or decoding a cell: one encoded answer serves every row
/// limit. The cut is the table [`encode_str_rows`] makes of
/// `rows[..n.min(rows.len())]`, byte for byte: a dict body keeps only
/// the entries the kept codes use, renumbered in order of first use,
/// and the body format is picked again from the kept cells' sample
/// (it can change only when fewer cells than the sample are kept).
/// Time goes with the kept cells and the dict's size, not the table's
/// cells.
pub fn str_rows_prefix(table: &[u8], n: usize) -> Result<Vec<u8>, WireError> {
    let mut r = Reader::new(table);
    let nrows = r.u32()? as usize;
    let ncols = r.u32()? as usize;
    let ragged = r.u8()? != 0;
    let keep = n.min(nrows);
    let row_lens = if ragged {
        Some(take_u32s(&mut r, nrows)?)
    } else {
        None
    };
    let (cells, kept_cells) = match row_lens {
        Some(lens) => (sum_u32s(lens), sum_u32s(&lens[..keep * 4])),
        None => {
            let cells = nrows
                .checked_mul(ncols)
                .ok_or_else(|| WireError::Decode("cell count overflow".into()))?;
            (cells, keep * ncols)
        }
    };
    // Called once the body is checked against the table, so what it
    // reserves is bounded by the table's length.
    let put_header = |out: &mut Vec<u8>| {
        out.reserve(16 + 4 * kept_cells + row_lens.map_or(0, |_| 4 * keep));
        match row_lens {
            Some(lens) => put_str_header(out, u32s(&lens[..keep * 4]).map(|len| len as usize)),
            None => put_str_header(out, std::iter::repeat_n(ncols, keep)),
        }
    };
    let format = r.u8()?;
    let mut out = Vec::new();
    match format {
        STRS_PLAIN => {
            let lens = take_u32s(&mut r, cells)?;
            let blob_len = r.u32()? as usize;
            let blob = r.take(blob_len)?;
            expect_end(&r)?;
            let kept_lens = &lens[..kept_cells * 4];
            let kept_blob = blob
                .get(..sum_u32s(kept_lens))
                .ok_or_else(|| WireError::Decode("cell lengths exceed the blob".into()))?;
            let kept = u32s(kept_lens).scan(0usize, move |pos, len| {
                let start = *pos;
                *pos += len as usize;
                Some(&kept_blob[start..*pos])
            });
            put_header(&mut out);
            if prefers_dict(kept.clone()) {
                put_dict_body(&mut out, kept);
            } else {
                out.push(STRS_PLAIN);
                out.extend_from_slice(kept_lens);
                out.extend_from_slice(&(kept_blob.len() as u32).to_le_bytes());
                out.extend_from_slice(kept_blob);
            }
        }
        STRS_DICT => {
            let dict_len = r.u32()? as usize;
            r.check_count(dict_len, 4)?;
            let dict = (0..dict_len)
                .map(|_| {
                    let len = r.u32()? as usize;
                    r.take(len)
                })
                .collect::<Result<Vec<&[u8]>, _>>()?;
            let codes = take_u32s(&mut r, cells)?;
            expect_end(&r)?;
            // Keep the entries the kept cells use, numbered as a fresh
            // encoding numbers them: in order of first use.
            let mut renumbered = vec![u32::MAX; dict_len];
            let mut used: Vec<&[u8]> = Vec::new();
            let mut kept_codes: Vec<u32> = Vec::with_capacity(kept_cells);
            for code in u32s(&codes[..kept_cells * 4]) {
                let slot = renumbered
                    .get_mut(code as usize)
                    .ok_or_else(|| WireError::Decode(format!("string code {code} out of range")))?;
                if *slot == u32::MAX {
                    *slot = used.len() as u32;
                    used.push(dict[code as usize]);
                }
                kept_codes.push(*slot);
            }
            // Codes count up from 0 in order of first use, so the
            // sample's distinct cells number its largest code plus one.
            let sampled = kept_cells.min(DICT_SAMPLE);
            let distinct = kept_codes[..sampled]
                .iter()
                .max()
                .map_or(0, |&c| c as usize + 1);
            put_header(&mut out);
            if dict_wins(sampled, distinct) {
                put_dict(&mut out, &used, &kept_codes);
            } else {
                put_plain_body(&mut out, kept_codes.iter().map(|&c| used[c as usize]));
            }
        }
        other => {
            return Err(WireError::Decode(format!(
                "unknown string-rows format {other}"
            )))
        }
    }
    Ok(out)
}

fn expect_end(r: &Reader) -> Result<(), WireError> {
    match r.remaining() {
        0 => Ok(()),
        extra => Err(WireError::Decode(format!(
            "{extra} trailing bytes after the string table"
        ))),
    }
}

/// Decode [`encode_str_rows`].
pub fn decode_str_rows(r: &mut Reader) -> Result<Vec<Vec<String>>, WireError> {
    let nrows = r.u32()? as usize;
    let ncols = r.u32()? as usize;
    let ragged = r.u8()? != 0;
    let lens: Vec<usize> = if ragged {
        r.check_count(nrows, 4)?;
        (0..nrows)
            .map(|_| r.u32().map(|v| v as usize))
            .collect::<Result<_, _>>()?
    } else {
        r.check_count(nrows.saturating_mul(ncols), 4)?;
        vec![ncols; nrows]
    };
    let format = r.u8()?;
    match format {
        STRS_PLAIN => {
            let total = lens.iter().fold(0usize, |a, &b| a.saturating_add(b));
            r.check_count(total, 4)?;
            let mut cell_lens = Vec::with_capacity(total);
            for _ in 0..total {
                cell_lens.push(r.u32()? as usize);
            }
            let blob_len = r.u32()? as usize;
            let blob = std::str::from_utf8(r.take(blob_len)?)
                .map_err(|e| WireError::Decode(format!("bad utf-8: {e}")))?;
            let mut pos = 0usize;
            let mut next = cell_lens.into_iter();
            let mut rows = Vec::with_capacity(nrows);
            for &len in &lens {
                let mut row = Vec::with_capacity(len);
                for _ in 0..len {
                    let n = next.next().expect("cell_lens covers every cell");
                    let end = pos
                        .checked_add(n)
                        .ok_or_else(|| WireError::Decode("cell length overflow".into()))?;
                    let cell = blob.get(pos..end).ok_or_else(|| {
                        WireError::Decode("cell exceeds blob or splits a code point".into())
                    })?;
                    pos = end;
                    row.push(cell.to_string());
                }
                rows.push(row);
            }
            Ok(rows)
        }
        STRS_DICT => {
            let dict_len = r.u32()? as usize;
            r.check_count(dict_len, 4)?;
            let mut dict: Vec<String> = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(r.str()?.to_string());
            }
            let mut rows = Vec::with_capacity(nrows);
            for &len in &lens {
                r.check_count(len, 4)?;
                let mut row = Vec::with_capacity(len);
                for _ in 0..len {
                    let code = r.u32()? as usize;
                    let cell = dict.get(code).ok_or_else(|| {
                        WireError::Decode(format!("string code {code} out of range"))
                    })?;
                    row.push(cell.clone());
                }
                rows.push(row);
            }
            Ok(rows)
        }
        other => Err(WireError::Decode(format!(
            "unknown string-rows format {other}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Tagged values: bit-exact Value encoding.
// ---------------------------------------------------------------------------

const VAL_NULL: u8 = 0;
const VAL_BOOL_FALSE: u8 = 1;
const VAL_BOOL_TRUE: u8 = 2;
const VAL_INT: u8 = 3;
const VAL_FLOAT: u8 = 4;
const VAL_STR: u8 = 5;
const VAL_TIME: u8 = 6;
const VAL_SPAN: u8 = 7;
const VAL_LIST: u8 = 8;

/// Append one value, tag byte first. Floats go out as raw bit
/// patterns: NaN payloads and infinities round-trip exactly.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(VAL_NULL),
        Value::Bool(false) => out.push(VAL_BOOL_FALSE),
        Value::Bool(true) => out.push(VAL_BOOL_TRUE),
        Value::Int(i) => {
            out.push(VAL_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(VAL_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            put_str(out, s);
        }
        Value::Time(t) => {
            out.push(VAL_TIME);
            out.extend_from_slice(&t.as_micros().to_le_bytes());
        }
        Value::Span(s) => {
            out.push(VAL_SPAN);
            out.extend_from_slice(&s.start.as_micros().to_le_bytes());
            out.extend_from_slice(&s.end.as_micros().to_le_bytes());
        }
        Value::List(items) => {
            out.push(VAL_LIST);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items.iter() {
                encode_value(out, item);
            }
        }
    }
}

/// Decode one tagged value.
pub fn decode_value(r: &mut Reader) -> Result<Value, WireError> {
    Ok(match r.u8()? {
        VAL_NULL => Value::Null,
        VAL_BOOL_FALSE => Value::Bool(false),
        VAL_BOOL_TRUE => Value::Bool(true),
        VAL_INT => Value::Int(r.i64()?),
        VAL_FLOAT => Value::Float(f64::from_bits(r.u64()?)),
        VAL_STR => Value::str(r.str()?),
        VAL_TIME => Value::Time(Timestamp::from_micros(r.i64()?)),
        VAL_SPAN => {
            let start = Timestamp::from_micros(r.i64()?);
            let end = Timestamp::from_micros(r.i64()?);
            Value::Span(TimeSpan::new(start, end))
        }
        VAL_LIST => {
            let n = r.u32()? as usize;
            r.check_count(n, 1)?;
            let items: Vec<Value> = (0..n).map(|_| decode_value(r)).collect::<Result<_, _>>()?;
            Value::List(items.into())
        }
        tag => return Err(WireError::Decode(format!("unknown value tag {tag}"))),
    })
}

// ---------------------------------------------------------------------------
// Partitions: ColumnarPartition lanes shipped directly.
// ---------------------------------------------------------------------------

const LANE_INT: u8 = 0;
const LANE_FLOAT: u8 = 1;
const LANE_TIME: u8 = 2;
const LANE_STR: u8 = 3;
const LANE_MIXED: u8 = 4;

fn encode_validity(out: &mut Vec<u8>, v: &Validity) {
    let all_valid = v.count_valid() == v.len();
    out.push(all_valid as u8);
    if all_valid {
        return;
    }
    let mut word = 0u64;
    for i in 0..v.len() {
        if v.get(i) {
            word |= 1u64 << (i % 64);
        }
        if i % 64 == 63 {
            out.extend_from_slice(&word.to_le_bytes());
            word = 0;
        }
    }
    if !v.len().is_multiple_of(64) {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

fn decode_validity(r: &mut Reader, rows: usize) -> Result<Validity, WireError> {
    if r.u8()? != 0 {
        return Ok(Validity::all_valid(rows));
    }
    let mut v = Validity::all_null(rows);
    let words = rows.div_ceil(64);
    for w in 0..words {
        let bits = r.u64()?;
        let lo = w * 64;
        let hi = (lo + 64).min(rows);
        for i in lo..hi {
            if bits >> (i - lo) & 1 == 1 {
                v.set(i, true);
            }
        }
    }
    Ok(v)
}

/// Encode a partition: `[rows u32][ncols u32]` then per column a lane
/// tag, the validity bitmap, and the lane's typed array.
pub fn encode_partition(part: &ColumnarPartition) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(part.len() as u32).to_le_bytes());
    out.extend_from_slice(&(part.num_columns() as u32).to_le_bytes());
    for col in part.columns() {
        encode_validity(&mut out, col.validity());
        match col.data() {
            ColumnData::Int(v) => {
                out.push(LANE_INT);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Float(v) => {
                out.push(LANE_FLOAT);
                for x in v {
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            ColumnData::Time(v) => {
                out.push(LANE_TIME);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Str { codes, dict } => {
                out.push(LANE_STR);
                out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
                for s in dict {
                    put_str(&mut out, s);
                }
                for c in codes {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            ColumnData::Mixed(v) => {
                out.push(LANE_MIXED);
                for x in v {
                    encode_value(&mut out, x);
                }
            }
        }
    }
    out
}

/// Decode [`encode_partition`].
pub fn decode_partition(r: &mut Reader) -> Result<ColumnarPartition, WireError> {
    let rows = r.u32()? as usize;
    let ncols = r.u32()? as usize;
    r.check_count(ncols, 2)?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let validity = decode_validity(r, rows)?;
        let data = match r.u8()? {
            LANE_INT => {
                r.check_count(rows, 8)?;
                ColumnData::Int((0..rows).map(|_| r.i64()).collect::<Result<_, _>>()?)
            }
            LANE_FLOAT => {
                r.check_count(rows, 8)?;
                ColumnData::Float(
                    (0..rows)
                        .map(|_| r.u64().map(f64::from_bits))
                        .collect::<Result<_, _>>()?,
                )
            }
            LANE_TIME => {
                r.check_count(rows, 8)?;
                ColumnData::Time((0..rows).map(|_| r.i64()).collect::<Result<_, _>>()?)
            }
            LANE_STR => {
                let dict_len = r.u32()? as usize;
                r.check_count(dict_len, 4)?;
                let mut dict: Vec<Arc<str>> = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(Arc::from(r.str()?));
                }
                r.check_count(rows, 4)?;
                let codes: Vec<u32> = (0..rows).map(|_| r.u32()).collect::<Result<_, _>>()?;
                for &c in &codes {
                    if c as usize >= dict.len().max(1) {
                        return Err(WireError::Decode(format!("dict code {c} out of range")));
                    }
                }
                ColumnData::Str { codes, dict }
            }
            LANE_MIXED => {
                r.check_count(rows, 1)?;
                ColumnData::Mixed(
                    (0..rows)
                        .map(|_| decode_value(r))
                        .collect::<Result<_, _>>()?,
                )
            }
            tag => return Err(WireError::Decode(format!("unknown lane tag {tag}"))),
        };
        if data_len(&data) != rows {
            return Err(WireError::Decode("lane length mismatch".into()));
        }
        columns.push(Column::from_parts(data, validity));
    }
    Ok(ColumnarPartition::from_columns(columns))
}

fn data_len(d: &ColumnData) -> usize {
    match d {
        ColumnData::Int(v) => v.len(),
        ColumnData::Float(v) => v.len(),
        ColumnData::Time(v) => v.len(),
        ColumnData::Str { codes, .. } => codes.len(),
        ColumnData::Mixed(v) => v.len(),
    }
}

// ---------------------------------------------------------------------------
// Row batches: the append-path payload.
// ---------------------------------------------------------------------------

/// Encode a row batch. Rectangular batches (the normal case) ship as
/// [`ColumnarPartition`] lanes; ragged ones fall back to tagged
/// row-major values. Both are bit-exact.
pub fn encode_rows(rows: &[Row]) -> Vec<u8> {
    let mut out = Vec::new();
    let ncols = rows.first().map(Row::len).unwrap_or(0);
    // Zero-column rows would lose their count through a partition
    // (`from_columns` derives the row count from the first column), so
    // they take the row-major fallback too.
    let rectangular = ncols > 0 && rows.iter().all(|r| r.len() == ncols);
    out.push(rectangular as u8);
    if rectangular {
        out.extend_from_slice(&encode_partition(&ColumnarPartition::from_rows(rows)));
    } else {
        out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        for row in rows {
            out.extend_from_slice(&(row.len() as u32).to_le_bytes());
            for v in row.values() {
                encode_value(&mut out, v);
            }
        }
    }
    out
}

/// Decode [`encode_rows`].
pub fn decode_rows(r: &mut Reader) -> Result<Vec<Row>, WireError> {
    if r.u8()? != 0 {
        return Ok(decode_partition(r)?.to_rows());
    }
    let nrows = r.u32()? as usize;
    r.check_count(nrows, 4)?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let ncells = r.u32()? as usize;
        r.check_count(ncells, 1)?;
        let values: Vec<Value> = (0..ncells)
            .map(|_| decode_value(r))
            .collect::<Result<_, _>>()?;
        rows.push(Row::new(values));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_rows(rows: Vec<Row>) {
        let buf = encode_rows(&rows);
        let back = decode_rows(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn str_rows_round_trip_including_empty_and_dict_heavy() {
        for rows in [
            vec![],
            vec![vec!["a".to_string(), "b".to_string()]],
            vec![vec![String::new(); 4]; 100],
            (0..50)
                .map(|i| {
                    vec![
                        format!("node{}", i % 3),
                        "rack0".to_string(),
                        format!("{i}"),
                    ]
                })
                .collect::<Vec<_>>(),
        ] {
            let buf = encode_str_rows(&rows);
            let back = decode_str_rows(&mut Reader::new(&buf)).unwrap();
            assert_eq!(back, rows);
        }
    }

    #[test]
    fn prefixes_are_fresh_encodings_of_the_kept_rows() {
        let dict_heavy: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("rack{}", i % 3), "cab".into()])
            .collect();
        let distinct: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("{i}"), format!("höst-{i}")])
            .collect();
        let ragged = vec![vec!["a".into()], vec!["b".into(), "c".into()], vec![]];
        // Distinct first, repetitive after: the whole table is a dict,
        // a short cut is plain.
        let mut flips: Vec<Vec<String>> = (0..4).map(|i| vec![format!("x{i}")]).collect();
        flips.extend((0..40).map(|_| vec!["y".to_string()]));
        for (rows, format) in [
            (dict_heavy, STRS_DICT),
            (distinct, STRS_PLAIN),
            (ragged, STRS_PLAIN),
            (flips, STRS_DICT),
        ] {
            let table = encode_str_rows(&rows);
            let nrows = u32::from_le_bytes(table[..4].try_into().unwrap()) as usize;
            let ragged = table[8] != 0;
            assert_eq!(table[9 + if ragged { 4 * nrows } else { 0 }], format);
            for n in 0..=rows.len() + 1 {
                let kept = &rows[..n.min(rows.len())];
                let cut = str_rows_prefix(&table, n).unwrap();
                assert_eq!(cut, encode_str_rows(kept), "{n} rows");
                assert_eq!(decode_str_rows(&mut Reader::new(&cut)).unwrap(), kept);
            }
        }
        // A cut of a dict table ships only the strings its rows use: two
        // strings fill the sample, 500 more follow it.
        let mut late_dict: Vec<Vec<String>> = (0..DICT_SAMPLE)
            .map(|i| vec![["a", "b"][i % 2].to_string()])
            .collect();
        late_dict.extend((0..500).map(|i| vec![format!("node-{i}")]));
        let table = encode_str_rows(&late_dict);
        for n in [10, DICT_SAMPLE, DICT_SAMPLE + 7, late_dict.len()] {
            let cut = str_rows_prefix(&table, n).unwrap();
            assert_eq!(cut, encode_str_rows(&late_dict[..n]), "{n} rows");
        }
        let cut = str_rows_prefix(&table, 10).unwrap();
        assert!(cut.len() < 100, "{} bytes", cut.len());

        let mut trailing = encode_str_rows(&[vec!["x".to_string()]]);
        trailing.push(0);
        assert!(str_rows_prefix(&trailing, 1).is_err());
        // A header claiming billions of cells over an empty body errors
        // before the cut allocates for the rows it would keep.
        let mut bomb = Vec::new();
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        bomb.extend_from_slice(&[0, STRS_DICT, 0, 0, 0, 0]);
        assert!(str_rows_prefix(&bomb, 6).is_err());
    }

    #[test]
    fn ragged_str_rows_round_trip() {
        let rows = vec![vec!["a".into()], vec!["b".into(), "c".into()], vec![]];
        let buf = encode_str_rows(&rows);
        assert_eq!(decode_str_rows(&mut Reader::new(&buf)).unwrap(), rows);
    }

    #[test]
    fn values_round_trip_bit_exactly() {
        let nan_payload = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(nan_payload),
            Value::Float(-0.0),
            Value::str("höstlöv"),
            Value::Time(Timestamp::from_micros(-1)),
            Value::Span(TimeSpan::new(
                Timestamp::from_micros(10),
                Timestamp::from_micros(20),
            )),
            Value::list([Value::Int(1), Value::list([Value::Null])]),
        ];
        let mut buf = Vec::new();
        for v in &values {
            encode_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            let back = decode_value(&mut r).unwrap();
            match (v, &back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(&back, v),
            }
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn partitions_round_trip_with_nulls_and_nan() {
        let rows = vec![
            Row::new(vec![
                Value::Int(1),
                Value::Float(f64::NAN),
                Value::str("cab1"),
                Value::Time(Timestamp::from_micros(1_000_000)),
                Value::Bool(true),
            ]),
            Row::new(vec![
                Value::Null,
                Value::Float(2.5),
                Value::Null,
                Value::Time(Timestamp::from_micros(2_000_000)),
                Value::Null,
            ]),
        ];
        let part = ColumnarPartition::from_rows(&rows);
        let buf = encode_partition(&part);
        let back = decode_partition(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back.len(), part.len());
        for (a, b) in back.to_rows().iter().zip(&rows) {
            for (x, y) in a.values().iter().zip(b.values()) {
                match (x, y) {
                    (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    _ => assert_eq!(x, y),
                }
            }
        }
    }

    #[test]
    fn row_batches_round_trip() {
        rt_rows(vec![]);
        rt_rows(vec![Row::new(vec![Value::Int(1), Value::str("a")]); 10]);
        // Ragged batch takes the tagged-value fallback.
        rt_rows(vec![
            Row::new(vec![Value::Int(1)]),
            Row::new(vec![Value::Int(1), Value::str("a")]),
        ]);
    }

    #[test]
    fn truncated_payloads_never_panic() {
        let rows = vec![Row::new(vec![Value::Int(7), Value::str("node"), Value::Float(1.5)]); 8];
        let buf = encode_rows(&rows);
        for cut in 0..buf.len() {
            // Any prefix must error or decode to something; no panic.
            let _ = decode_rows(&mut Reader::new(&buf[..cut]));
        }
    }
}
