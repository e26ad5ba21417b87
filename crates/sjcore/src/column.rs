//! Columnar partitions: typed column vectors with validity bitmaps.
//!
//! The rowwise execute path moves `Vec<Row>` between operators, paying a
//! `Vec<Value>` allocation (plus one enum tag per cell) for every record.
//! [`ColumnarPartition`] stores the same records column-major in typed
//! lanes — `Int`/`Float`/`Time` as plain `Vec`s, strings dictionary-encoded,
//! everything else as a `Mixed` value lane — with a validity bitmap marking
//! nulls. Derivation kernels then run as tight loops over primitive slices
//! and rebuild `Row`s only at the dataset boundary ([`ColumnarPartition::to_rows`]).
//!
//! Round-tripping is exact: `to_rows(from_rows(rows)) == rows` for every
//! [`Value`] variant, including NaN payload bits (floats are moved, never
//! re-parsed) and the `Int` / `Float` / `Time` distinction (each gets its
//! own lane; a column mixing variants falls back to the `Mixed` lane).

use crate::units::time::{TimeSpan, Timestamp};
use crate::value::{KeyAtom, Value};
use crate::Row;
use sjdf::{pod_vec_byte_size, ByteSize};
use std::collections::HashMap;
use std::sync::Arc;

/// A null bitmap: bit `i` set means row `i` holds a real value.
#[derive(Debug, Clone, PartialEq)]
pub struct Validity {
    bits: Vec<u64>,
    len: usize,
}

impl Validity {
    /// All-valid bitmap of the given length.
    pub fn all_valid(len: usize) -> Self {
        Validity {
            bits: vec![u64::MAX; len.div_ceil(64)],
            len,
        }
    }

    /// All-null bitmap of the given length.
    pub fn all_null(len: usize) -> Self {
        Validity {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether row `i` holds a real value.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Mark row `i` valid or null.
    #[inline]
    pub fn set(&mut self, i: usize, valid: bool) {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, i % 64);
        if valid {
            self.bits[w] |= 1u64 << b;
        } else {
            self.bits[w] &= !(1u64 << b);
        }
    }

    /// Number of valid (non-null) slots.
    pub fn count_valid(&self) -> usize {
        let mut n: usize = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        // Mask out bits past `len` in the last word (they may be set by
        // `all_valid`).
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.bits.last() {
                n -= (last >> tail).count_ones() as usize;
            }
        }
        n
    }

    /// Append one slot.
    pub fn push(&mut self, valid: bool) {
        if self.len.is_multiple_of(64) {
            self.bits.push(0);
        }
        let i = self.len;
        self.len += 1;
        self.set(i, valid);
    }

    /// Bitmap selecting `idx[i]` for each output slot.
    pub fn gather(&self, idx: &[u32]) -> Validity {
        let mut out = Validity::all_null(idx.len());
        for (o, &i) in idx.iter().enumerate() {
            if self.get(i as usize) {
                out.set(o, true);
            }
        }
        out
    }
}

impl ByteSize for Validity {
    fn byte_size(&self) -> usize {
        pod_vec_byte_size(&self.bits) + 8
    }
}

/// The typed storage behind one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// `Value::Int` lane.
    Int(Vec<i64>),
    /// `Value::Float` lane (bit patterns preserved, including NaN payloads).
    Float(Vec<f64>),
    /// `Value::Time` lane, stored as microseconds since the epoch.
    Time(Vec<i64>),
    /// `Value::Str` lane, dictionary-encoded: `codes[i]` indexes `dict`.
    Str {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// Distinct strings, in first-occurrence order.
        dict: Vec<Arc<str>>,
    },
    /// Fallback lane for heterogeneous columns or variants without a typed
    /// lane (`Bool`, `Span`, `List`). Null slots hold `Value::Null`.
    Mixed(Vec<Value>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Time(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// Same-lane discriminant check (used to pick the concat fast path).
    fn same_lane(&self, other: &ColumnData) -> bool {
        matches!(
            (self, other),
            (ColumnData::Int(_), ColumnData::Int(_))
                | (ColumnData::Float(_), ColumnData::Float(_))
                | (ColumnData::Time(_), ColumnData::Time(_))
                | (ColumnData::Str { .. }, ColumnData::Str { .. })
                | (ColumnData::Mixed(_), ColumnData::Mixed(_))
        )
    }
}

impl ByteSize for ColumnData {
    fn byte_size(&self) -> usize {
        match self {
            ColumnData::Int(v) => pod_vec_byte_size(v),
            ColumnData::Float(v) => pod_vec_byte_size(v),
            ColumnData::Time(v) => pod_vec_byte_size(v),
            ColumnData::Str { codes, dict } => {
                pod_vec_byte_size(codes) + dict.iter().map(ByteSize::byte_size).sum::<usize>()
            }
            ColumnData::Mixed(v) => v.byte_size(),
        }
    }
}

/// One typed column plus its null bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Validity,
}

/// Which typed lane a column builder has committed to so far.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lane {
    Int,
    Float,
    Time,
    Str,
    Mixed,
}

impl Lane {
    fn of(v: &Value) -> Option<Lane> {
        match v {
            Value::Null => None,
            Value::Int(_) => Some(Lane::Int),
            Value::Float(_) => Some(Lane::Float),
            Value::Time(_) => Some(Lane::Time),
            Value::Str(_) => Some(Lane::Str),
            Value::Bool(_) | Value::Span(_) | Value::List(_) => Some(Lane::Mixed),
        }
    }
}

impl Column {
    /// Build a column from row-order cell values, inferring the typed lane:
    /// a column whose non-null cells are all one of `Int`/`Float`/`Time`/
    /// `Str` gets that lane; anything else falls back to `Mixed`.
    pub fn from_values(values: &[Value]) -> Column {
        let mut lane: Option<Lane> = None;
        for v in values {
            match (lane, Lane::of(v)) {
                (_, None) => {}
                (None, Some(l)) => lane = Some(l),
                (Some(a), Some(b)) if a == b => {}
                (Some(_), Some(_)) => {
                    lane = Some(Lane::Mixed);
                    break;
                }
            }
        }
        let mut validity = Validity::all_null(values.len());
        let data = match lane.unwrap_or(Lane::Mixed) {
            Lane::Int => {
                let mut out = vec![0i64; values.len()];
                for (i, v) in values.iter().enumerate() {
                    if let Value::Int(x) = v {
                        out[i] = *x;
                        validity.set(i, true);
                    }
                }
                ColumnData::Int(out)
            }
            Lane::Float => {
                let mut out = vec![0f64; values.len()];
                for (i, v) in values.iter().enumerate() {
                    if let Value::Float(x) = v {
                        out[i] = *x;
                        validity.set(i, true);
                    }
                }
                ColumnData::Float(out)
            }
            Lane::Time => {
                let mut out = vec![0i64; values.len()];
                for (i, v) in values.iter().enumerate() {
                    if let Value::Time(t) = v {
                        out[i] = t.as_micros();
                        validity.set(i, true);
                    }
                }
                ColumnData::Time(out)
            }
            Lane::Str => {
                let mut interner = StrInterner::default();
                let mut codes = vec![0u32; values.len()];
                for (i, v) in values.iter().enumerate() {
                    if let Value::Str(s) = v {
                        codes[i] = interner.intern(s);
                        validity.set(i, true);
                    }
                }
                ColumnData::Str {
                    codes,
                    dict: interner.dict,
                }
            }
            Lane::Mixed => {
                let mut out = Vec::with_capacity(values.len());
                for (i, v) in values.iter().enumerate() {
                    validity.set(i, !v.is_null());
                    out.push(v.clone());
                }
                ColumnData::Mixed(out)
            }
        };
        Column { data, validity }
    }

    /// Assemble a column from raw parts. The data and validity lengths
    /// must agree.
    pub fn from_parts(data: ColumnData, validity: Validity) -> Column {
        assert_eq!(data.len(), validity.len(), "column/validity length");
        Column { data, validity }
    }

    /// The typed storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null bitmap.
    pub fn validity(&self) -> &Validity {
        &self.validity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstruct the cell at `row` exactly as it appeared in the source
    /// `Row` (null slots come back as `Value::Null`).
    pub fn value_at(&self, row: usize) -> Value {
        if !self.validity.get(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Time(v) => Value::Time(Timestamp::from_micros(v[row])),
            ColumnData::Str { codes, dict } => Value::Str(Arc::clone(&dict[codes[row] as usize])),
            ColumnData::Mixed(v) => v[row].clone(),
        }
    }

    /// Numeric view of the cell at `row`, matching [`Value::as_f64`]
    /// (ints widen, timestamps become fractional seconds).
    #[inline]
    pub fn f64_at(&self, row: usize) -> Option<f64> {
        if !self.validity.get(row) {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) => Some(v[row] as f64),
            ColumnData::Float(v) => Some(v[row]),
            ColumnData::Time(v) => Some(Timestamp::from_micros(v[row]).as_secs_f64()),
            ColumnData::Str { .. } => None,
            ColumnData::Mixed(v) => v[row].as_f64(),
        }
    }

    /// Timestamp view (microseconds) of the cell at `row`, matching
    /// [`Value::as_time`] — only genuine `Time` cells qualify.
    #[inline]
    pub fn time_micros_at(&self, row: usize) -> Option<i64> {
        if !self.validity.get(row) {
            return None;
        }
        match &self.data {
            ColumnData::Time(v) => Some(v[row]),
            ColumnData::Mixed(v) => v[row].as_time().map(|t| t.as_micros()),
            _ => None,
        }
    }

    /// Span view of the cell at `row`, matching [`Value::as_span`].
    #[inline]
    pub fn span_at(&self, row: usize) -> Option<TimeSpan> {
        if !self.validity.get(row) {
            return None;
        }
        match &self.data {
            ColumnData::Mixed(v) => v[row].as_span(),
            _ => None,
        }
    }

    /// String view of the cell at `row`, matching [`Value::as_str`].
    #[inline]
    pub fn str_at(&self, row: usize) -> Option<&str> {
        if !self.validity.get(row) {
            return None;
        }
        match &self.data {
            ColumnData::Str { codes, dict } => Some(&dict[codes[row] as usize]),
            ColumnData::Mixed(v) => v[row].as_str(),
            _ => None,
        }
    }

    /// Exact-match key of the cell at `row`, matching [`Value::key`].
    pub fn key_at(&self, row: usize) -> KeyAtom {
        if !self.validity.get(row) {
            return KeyAtom::Null;
        }
        match &self.data {
            ColumnData::Int(v) => KeyAtom::Int(v[row]),
            ColumnData::Float(v) => KeyAtom::Bits(v[row].to_bits()),
            ColumnData::Time(v) => KeyAtom::Time(v[row]),
            ColumnData::Str { codes, dict } => KeyAtom::Str(Arc::clone(&dict[codes[row] as usize])),
            ColumnData::Mixed(v) => v[row].key(),
        }
    }

    /// Append an injective byte encoding of the cell at `row` to `buf`
    /// (tag byte plus payload), for arena-backed grouping and sorting:
    /// two cells encode to the same bytes iff their [`Value::key`]s are
    /// equal. Avoids materializing a `KeyAtom` (and its `Arc` clone) per
    /// row on the hot grouping paths.
    pub fn encode_key_at(&self, row: usize, buf: &mut Vec<u8>) {
        if !self.validity.get(row) {
            buf.push(0);
            return;
        }
        match &self.data {
            ColumnData::Int(v) => {
                buf.push(1);
                buf.extend_from_slice(&v[row].to_le_bytes());
            }
            ColumnData::Float(v) => {
                buf.push(2);
                buf.extend_from_slice(&v[row].to_bits().to_le_bytes());
            }
            ColumnData::Time(v) => {
                buf.push(3);
                buf.extend_from_slice(&v[row].to_le_bytes());
            }
            ColumnData::Str { codes, dict } => {
                let s = &dict[codes[row] as usize];
                buf.push(4);
                buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
            ColumnData::Mixed(v) => encode_key_atom(&v[row].key(), buf),
        }
    }

    /// New column selecting `idx[i]` for each output row (a columnar
    /// `take`). Dictionary columns share the source dictionary.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => ColumnData::Float(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Time(v) => ColumnData::Time(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Str { codes, dict } => ColumnData::Str {
                codes: idx.iter().map(|&i| codes[i as usize]).collect(),
                dict: dict.clone(),
            },
            ColumnData::Mixed(v) => {
                ColumnData::Mixed(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        Column {
            data,
            validity: self.validity.gather(idx),
        }
    }

    /// Concatenate columns vertically. Columns on the same typed lane are
    /// appended in place (dictionaries are merged and codes remapped);
    /// mismatched lanes — possible because each partition infers its lanes
    /// independently — fall back to rebuilding through `Value`s.
    pub fn concat(cols: &[&Column]) -> Column {
        let cols: Vec<&&Column> = cols.iter().filter(|c| !c.is_empty()).collect();
        match cols.first() {
            None => Column::from_values(&[]),
            Some(first) => {
                if !cols.iter().all(|c| first.data.same_lane(&c.data)) {
                    let mut values = Vec::new();
                    for c in &cols {
                        for i in 0..c.len() {
                            values.push(c.value_at(i));
                        }
                    }
                    return Column::from_values(&values);
                }
                let total: usize = cols.iter().map(|c| c.len()).sum();
                let mut validity = Validity::all_null(total);
                let mut off = 0usize;
                for c in &cols {
                    for i in 0..c.len() {
                        if c.validity.get(i) {
                            validity.set(off + i, true);
                        }
                    }
                    off += c.len();
                }
                let data = match &first.data {
                    ColumnData::Int(_) => {
                        let mut out = Vec::with_capacity(total);
                        for c in &cols {
                            if let ColumnData::Int(v) = &c.data {
                                out.extend_from_slice(v);
                            }
                        }
                        ColumnData::Int(out)
                    }
                    ColumnData::Float(_) => {
                        let mut out = Vec::with_capacity(total);
                        for c in &cols {
                            if let ColumnData::Float(v) = &c.data {
                                out.extend_from_slice(v);
                            }
                        }
                        ColumnData::Float(out)
                    }
                    ColumnData::Time(_) => {
                        let mut out = Vec::with_capacity(total);
                        for c in &cols {
                            if let ColumnData::Time(v) = &c.data {
                                out.extend_from_slice(v);
                            }
                        }
                        ColumnData::Time(out)
                    }
                    ColumnData::Str { .. } => {
                        let mut interner = StrInterner::default();
                        let mut out_codes = Vec::with_capacity(total);
                        for c in &cols {
                            if let ColumnData::Str { codes, dict } = &c.data {
                                let remap: Vec<u32> =
                                    dict.iter().map(|s| interner.intern(s)).collect();
                                out_codes.extend(codes.iter().map(|&c| remap[c as usize]));
                            }
                        }
                        ColumnData::Str {
                            codes: out_codes,
                            dict: interner.dict,
                        }
                    }
                    ColumnData::Mixed(_) => {
                        let mut out = Vec::with_capacity(total);
                        for c in &cols {
                            if let ColumnData::Mixed(v) = &c.data {
                                out.extend_from_slice(v);
                            }
                        }
                        ColumnData::Mixed(out)
                    }
                };
                Column { data, validity }
            }
        }
    }
}

impl ByteSize for Column {
    fn byte_size(&self) -> usize {
        self.data.byte_size() + self.validity.byte_size()
    }
}

/// Append an injective byte encoding of a [`KeyAtom`] to `buf` — the
/// `Mixed`-lane (and list-element) fallback behind
/// [`Column::encode_key_at`]. The tags agree with the typed-lane fast
/// paths (`Int` ↔ tag 1, `Bits` ↔ tag 2, …), so equal values encode to
/// equal bytes even when one batch inferred a typed lane and another
/// fell back to `Mixed` for the same logical column.
pub fn encode_key_atom(k: &KeyAtom, buf: &mut Vec<u8>) {
    match k {
        KeyAtom::Null => buf.push(0),
        KeyAtom::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        KeyAtom::Bits(b) => {
            buf.push(2);
            buf.extend_from_slice(&b.to_le_bytes());
        }
        KeyAtom::Time(t) => {
            buf.push(3);
            buf.extend_from_slice(&t.to_le_bytes());
        }
        KeyAtom::Str(s) => {
            buf.push(4);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        KeyAtom::Bool(b) => {
            buf.push(5);
            buf.push(*b as u8);
        }
        KeyAtom::SpanKey(a, b) => {
            buf.push(6);
            buf.extend_from_slice(&a.to_le_bytes());
            buf.extend_from_slice(&b.to_le_bytes());
        }
        KeyAtom::List(items) => {
            buf.push(7);
            buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_key_atom(item, buf);
            }
        }
    }
}

/// First-occurrence-order string interner backing dictionary columns.
#[derive(Default)]
struct StrInterner {
    index: HashMap<Arc<str>, u32>,
    dict: Vec<Arc<str>>,
}

impl StrInterner {
    fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&c) = self.index.get(s) {
            return c;
        }
        let c = self.dict.len() as u32;
        self.index.insert(Arc::clone(s), c);
        self.dict.push(Arc::clone(s));
        c
    }
}

/// Incremental builder for a `Float` column (the shape every derived-rate
/// output column takes).
#[derive(Default)]
pub struct FloatBuilder {
    vals: Vec<f64>,
    validity: Vec<bool>,
}

impl FloatBuilder {
    /// Builder with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        FloatBuilder {
            vals: Vec::with_capacity(n),
            validity: Vec::with_capacity(n),
        }
    }

    /// Append one cell (`None` = null).
    pub fn push(&mut self, v: Option<f64>) {
        self.validity.push(v.is_some());
        self.vals.push(v.unwrap_or(0.0));
    }

    /// Finish into a `Float` column.
    pub fn finish(self) -> Column {
        let mut validity = Validity::all_null(self.vals.len());
        for (i, ok) in self.validity.iter().enumerate() {
            if *ok {
                validity.set(i, true);
            }
        }
        Column {
            data: ColumnData::Float(self.vals),
            validity,
        }
    }
}

/// One partition of records stored column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarPartition {
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnarPartition {
    /// An empty partition with the given column count.
    pub fn empty(ncols: usize) -> Self {
        ColumnarPartition {
            columns: (0..ncols).map(|_| Column::from_values(&[])).collect(),
            rows: 0,
        }
    }

    /// Transpose row-major records into typed columns. All rows must have
    /// the same arity (enforced by the dataset schema upstream).
    pub fn from_rows(rows: &[Row]) -> Self {
        let ncols = rows.first().map_or(0, Row::len);
        let nrows = rows.len();
        let mut columns = Vec::with_capacity(ncols);
        let mut scratch: Vec<Value> = Vec::with_capacity(nrows);
        for c in 0..ncols {
            scratch.clear();
            scratch.extend(rows.iter().map(|r| r.get(c).clone()));
            columns.push(Column::from_values(&scratch));
        }
        ColumnarPartition {
            columns,
            rows: nrows,
        }
    }

    /// Assemble from pre-built columns (all the same length).
    pub fn from_columns(columns: Vec<Column>) -> Self {
        let rows = columns.first().map_or(0, Column::len);
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "ragged columnar partition"
        );
        ColumnarPartition { columns, rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the partition holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// One column.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Reconstruct the cell at (`row`, `col`).
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.columns[col].value_at(row)
    }

    /// Transpose back into row-major records, exactly reproducing the
    /// source rows.
    pub fn to_rows(&self) -> Vec<Row> {
        let mut out: Vec<Vec<Value>> = (0..self.rows)
            .map(|_| Vec::with_capacity(self.columns.len()))
            .collect();
        for col in &self.columns {
            for (r, row) in out.iter_mut().enumerate() {
                row.push(col.value_at(r));
            }
        }
        out.into_iter().map(Row::new).collect()
    }

    /// One reconstructed row.
    pub fn row_at(&self, row: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value_at(row)).collect())
    }

    /// New partition selecting `idx[i]` for each output row, across every
    /// column.
    pub fn gather(&self, idx: &[u32]) -> ColumnarPartition {
        ColumnarPartition {
            columns: self.columns.iter().map(|c| c.gather(idx)).collect(),
            rows: idx.len(),
        }
    }

    /// New partition with one column replaced (the other columns are
    /// shared structurally via clone-on-read lanes where possible).
    pub fn with_column(&self, idx: usize, col: Column) -> ColumnarPartition {
        assert_eq!(col.len(), self.rows, "replacement column length");
        let mut columns = self.columns.clone();
        columns[idx] = col;
        ColumnarPartition {
            columns,
            rows: self.rows,
        }
    }

    /// New partition with `col` appended after the existing columns (the
    /// combine kernels widen left batches with aggregated right cells).
    pub fn append_column(&self, col: Column) -> ColumnarPartition {
        assert_eq!(col.len(), self.rows, "appended column length");
        let mut columns = self.columns.clone();
        columns.push(col);
        ColumnarPartition {
            columns,
            rows: self.rows,
        }
    }

    /// Owning [`concat`](ColumnarPartition::concat): when exactly one
    /// non-empty partition survives — the common case inside an execute
    /// task, which holds one batch plus zero-row padding — it is moved
    /// through without copying any column buffers.
    pub fn concat_owned(parts: Vec<ColumnarPartition>) -> ColumnarPartition {
        let ncols = parts.first().map_or(0, |p| p.num_columns());
        let mut nonempty: Vec<ColumnarPartition> =
            parts.into_iter().filter(|p| !p.is_empty()).collect();
        match nonempty.len() {
            0 => ColumnarPartition::empty(ncols),
            1 => nonempty.pop().expect("one partition"),
            _ => ColumnarPartition::concat(&nonempty),
        }
    }

    /// Concatenate partitions vertically. Skips empties; the column count
    /// is taken from the first non-empty partition.
    pub fn concat(parts: &[ColumnarPartition]) -> ColumnarPartition {
        let nonempty: Vec<&ColumnarPartition> = parts.iter().filter(|p| !p.is_empty()).collect();
        match nonempty.first() {
            None => ColumnarPartition::empty(parts.first().map_or(0, |p| p.num_columns())),
            Some(first) => {
                let ncols = first.num_columns();
                let rows = nonempty.iter().map(|p| p.len()).sum();
                let columns = (0..ncols)
                    .map(|c| {
                        let cols: Vec<&Column> = nonempty.iter().map(|p| p.column(c)).collect();
                        Column::concat(&cols)
                    })
                    .collect();
                ColumnarPartition { columns, rows }
            }
        }
    }
}

impl ByteSize for ColumnarPartition {
    fn byte_size(&self) -> usize {
        24 + self.columns.iter().map(ByteSize::byte_size).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_rows() -> Vec<Row> {
        vec![
            Row::new(vec![
                Value::str("cab1"),
                Value::Int(10),
                Value::Float(1.5),
                Value::Time(Timestamp::from_secs(100)),
                Value::Bool(true),
            ]),
            Row::new(vec![
                Value::str("cab2"),
                Value::Null,
                Value::Float(f64::NAN),
                Value::Null,
                Value::list([Value::Int(1), Value::str("x")]),
            ]),
            Row::new(vec![
                Value::str("cab1"),
                Value::Int(-3),
                Value::Null,
                Value::Time(Timestamp::from_micros(123_456_789)),
                Value::Null,
            ]),
        ]
    }

    fn keys(rows: &[Row]) -> Vec<Vec<KeyAtom>> {
        rows.iter()
            .map(|r| r.values().iter().map(Value::key).collect())
            .collect()
    }

    #[test]
    fn round_trip_is_exact_including_nan_bits() {
        let rows = mixed_rows();
        let batch = ColumnarPartition::from_rows(&rows);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.num_columns(), 5);
        // NaN != NaN under PartialEq, so compare bit-exact key encodings.
        assert_eq!(keys(&batch.to_rows()), keys(&rows));
    }

    #[test]
    fn lane_inference_picks_typed_lanes() {
        let rows = mixed_rows();
        let batch = ColumnarPartition::from_rows(&rows);
        assert!(matches!(batch.column(0).data(), ColumnData::Str { .. }));
        assert!(matches!(batch.column(1).data(), ColumnData::Int(_)));
        assert!(matches!(batch.column(2).data(), ColumnData::Float(_)));
        assert!(matches!(batch.column(3).data(), ColumnData::Time(_)));
        assert!(matches!(batch.column(4).data(), ColumnData::Mixed(_)));
    }

    #[test]
    fn heterogeneous_column_falls_back_to_mixed() {
        let col = Column::from_values(&[Value::Int(1), Value::Float(2.0)]);
        assert!(matches!(col.data(), ColumnData::Mixed(_)));
        assert_eq!(col.value_at(0), Value::Int(1));
        assert_eq!(col.value_at(1), Value::Float(2.0));
    }

    #[test]
    fn str_dictionary_deduplicates() {
        let rows = mixed_rows();
        let batch = ColumnarPartition::from_rows(&rows);
        if let ColumnData::Str { codes, dict } = batch.column(0).data() {
            assert_eq!(dict.len(), 2);
            assert_eq!(codes, &vec![0, 1, 0]);
        } else {
            panic!("expected dictionary column");
        }
    }

    #[test]
    fn validity_tracks_nulls() {
        let rows = mixed_rows();
        let batch = ColumnarPartition::from_rows(&rows);
        assert!(batch.column(1).validity().get(0));
        assert!(!batch.column(1).validity().get(1));
        assert_eq!(batch.column(1).validity().count_valid(), 2);
        assert_eq!(batch.value_at(1, 1), Value::Null);
    }

    #[test]
    fn accessors_match_value_views() {
        let rows = mixed_rows();
        let batch = ColumnarPartition::from_rows(&rows);
        for (r, row) in rows.iter().enumerate() {
            for c in 0..row.len() {
                let v = row.get(c);
                assert_eq!(
                    batch.column(c).f64_at(r).map(f64::to_bits),
                    v.as_f64().map(f64::to_bits)
                );
                assert_eq!(
                    batch.column(c).time_micros_at(r),
                    v.as_time().map(|t| t.as_micros())
                );
                assert_eq!(batch.column(c).str_at(r), v.as_str());
                assert_eq!(batch.column(c).key_at(r), v.key());
            }
        }
    }

    #[test]
    fn gather_selects_and_reorders() {
        let rows = mixed_rows();
        let batch = ColumnarPartition::from_rows(&rows);
        let picked = batch.gather(&[2, 0, 0]);
        assert_eq!(picked.len(), 3);
        assert_eq!(
            keys(&picked.to_rows()),
            keys(&[rows[2].clone(), rows[0].clone(), rows[0].clone()])
        );
    }

    #[test]
    fn concat_merges_dictionaries() {
        let a = ColumnarPartition::from_rows(&[Row::new(vec![Value::str("x")])]);
        let b = ColumnarPartition::from_rows(&[
            Row::new(vec![Value::str("y")]),
            Row::new(vec![Value::str("x")]),
        ]);
        let cat = ColumnarPartition::concat(&[a, b]);
        assert_eq!(cat.len(), 3);
        if let ColumnData::Str { codes, dict } = cat.column(0).data() {
            assert_eq!(dict.len(), 2);
            assert_eq!(codes, &vec![0, 1, 0]);
        } else {
            panic!("expected dictionary column");
        }
    }

    #[test]
    fn concat_handles_lane_mismatch_and_empties() {
        let ints = ColumnarPartition::from_rows(&[Row::new(vec![Value::Int(1)])]);
        let floats = ColumnarPartition::from_rows(&[Row::new(vec![Value::Float(2.5)])]);
        let empty = ColumnarPartition::empty(1);
        let cat = ColumnarPartition::concat(&[ints, empty, floats]);
        assert_eq!(cat.len(), 2);
        assert!(matches!(cat.column(0).data(), ColumnData::Mixed(_)));
        assert_eq!(cat.value_at(0, 0), Value::Int(1));
        assert_eq!(cat.value_at(1, 0), Value::Float(2.5));
    }

    #[test]
    fn float_builder_builds_validity() {
        let mut b = FloatBuilder::with_capacity(3);
        b.push(Some(1.0));
        b.push(None);
        b.push(Some(3.0));
        let col = b.finish();
        assert_eq!(col.value_at(0), Value::Float(1.0));
        assert_eq!(col.value_at(1), Value::Null);
        assert_eq!(col.value_at(2), Value::Float(3.0));
    }

    #[test]
    fn empty_round_trip() {
        let batch = ColumnarPartition::from_rows(&[]);
        assert!(batch.is_empty());
        assert!(batch.to_rows().is_empty());
        let e = ColumnarPartition::empty(3);
        assert_eq!(e.num_columns(), 3);
        assert!(e.to_rows().is_empty());
    }

    #[test]
    fn validity_push_and_count() {
        let mut v = Validity::all_null(0);
        for i in 0..130 {
            v.push(i % 3 == 0);
        }
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_valid(), (0..130).filter(|i| i % 3 == 0).count());
        assert_eq!(Validity::all_valid(70).count_valid(), 70);
    }

    #[test]
    fn byte_size_scales_with_rows() {
        let small = ColumnarPartition::from_rows(&mixed_rows());
        let rows: Vec<Row> = (0..100).flat_map(|_| mixed_rows()).collect();
        let big = ColumnarPartition::from_rows(&rows);
        assert!(big.byte_size() > small.byte_size() * 10);
    }
}
