//! Binary payload codec for [`Request`] / [`Response`] messages.
//!
//! The framing, CRC, and lane codecs live in `sjwire`, which knows
//! nothing about this crate's message types. This module is the glue: a
//! message becomes a small JSON *envelope* (every field except the hot
//! row payloads, so new optional fields keep working without a codec
//! change) followed by binary *sections* carrying the rows themselves as
//! columnar lanes — typed arrays, validity bitmaps, and string dicts —
//! instead of rendering every cell through JSON.
//!
//! Payload layout (inside a [`sjwire::Frame`], which adds the CRC):
//!
//! ```text
//! [env_len u32 LE] [envelope JSON bytes] [nsec u8]
//! nsec × sections: [id u8] [len u32 LE] [bytes]
//! ```
//!
//! Section ids:
//!
//! | id | message  | carries                | codec                |
//! |----|----------|------------------------|----------------------|
//! | 1  | Request  | `append.rows`          | value lanes          |
//! | 2  | Response | `result.rows`          | dict-coded str table |
//! | 3  | Response | `window.rows`          | dict-coded str table |
//!
//! Empty row sets ship no section at all (the envelope already carries
//! the empty `Vec`). Unknown section ids are skipped on decode, so a
//! newer peer can add sections without breaking this build.
//!
//! Render once: a query answer's rows are usually encoded before the
//! response exists. The worker keeps each answer as one [`RowSection`]
//! (see [`crate::cache`]) and serves a `limit` by cutting a prefix from
//! it, and a router relays a worker's section without decoding it
//! ([`decode_response_relay`]). Such a response carries the section in
//! [`Response::result_rows`], which [`encode_response`] writes in place
//! of encoding `result.rows`.

use std::sync::Arc;

use sjcore::Row;
use sjwire::codec::{
    decode_rows, decode_str_rows, encode_rendered_rows, encode_rows, encode_str_rows,
    str_rows_prefix, Reader,
};
use sjwire::WireError;

use crate::protocol::{Request, Response};

/// Section id: `Request.append.rows` as columnar value lanes.
pub const SEC_APPEND_ROWS: u8 = 1;
/// Section id: `Response.result.rows` as a dict-coded string table.
pub const SEC_RESULT_ROWS: u8 = 2;
/// Section id: `Response.window.rows` as a dict-coded string table.
pub const SEC_WINDOW_ROWS: u8 = 3;

fn put_section(out: &mut Vec<u8>, id: u8, bytes: &[u8]) {
    out.push(id);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn assemble<B: AsRef<[u8]>>(envelope: &[u8], sections: &[(u8, B)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        4 + envelope.len()
            + 1
            + sections
                .iter()
                .map(|(_, b)| 5 + b.as_ref().len())
                .sum::<usize>(),
    );
    out.extend_from_slice(&(envelope.len() as u32).to_le_bytes());
    out.extend_from_slice(envelope);
    out.push(sections.len() as u8);
    for (id, bytes) in sections {
        put_section(&mut out, *id, bytes.as_ref());
    }
    out
}

/// A [`SEC_RESULT_ROWS`] string table: rendered rows in wire form,
/// shared without copying.
#[derive(Clone, PartialEq)]
pub struct RowSection(Arc<[u8]>);

impl RowSection {
    /// Encode rendered rows.
    pub fn encode(rows: &[Vec<String>]) -> RowSection {
        RowSection(encode_str_rows(rows).into())
    }

    /// Render the first `ncols` cells of each row and encode them: the
    /// section [`RowSection::encode`] makes of the rendered rows.
    pub fn render(rows: &[Row], ncols: usize) -> RowSection {
        RowSection(encode_rendered_rows(rows, ncols).into())
    }

    /// The section's bytes, as they go on the wire.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The first `n` rows, cut from the table without decoding a cell.
    pub fn prefix(&self, n: usize) -> Result<RowSection, WireError> {
        Ok(RowSection(str_rows_prefix(&self.0, n)?.into()))
    }

    /// The rendered rows.
    pub fn decode(&self) -> Result<Vec<Vec<String>>, WireError> {
        decode_str_rows(&mut Reader::new(&self.0))
    }
}

impl From<&[u8]> for RowSection {
    fn from(bytes: &[u8]) -> Self {
        RowSection(bytes.into())
    }
}

impl std::fmt::Debug for RowSection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RowSection({} bytes)", self.0.len())
    }
}

impl Response {
    /// Move `result.rows` into [`Response::result_rows`], encoded: the
    /// form an answer is cached and written in. No rows, no section.
    pub fn encode_result_rows(&mut self) {
        if let Some(result) = self.result.as_mut().filter(|r| !r.rows.is_empty()) {
            let rows = std::mem::take(&mut result.rows);
            self.result_rows = Some(RowSection::encode(&rows));
        }
    }

    /// Decode [`Response::result_rows`] back into `result.rows`: the
    /// form an in-process caller reads.
    pub fn decode_result_rows(&mut self) -> Result<(), WireError> {
        let Some(section) = self.result_rows.take() else {
            return Ok(());
        };
        match self.result.as_mut() {
            Some(result) => result.rows = section.decode()?,
            None => return Err(orphan_result_rows()),
        }
        Ok(())
    }
}

fn orphan_result_rows() -> WireError {
    WireError::Decode("result-rows section without result envelope".into())
}

/// `(section id, section bytes)` pairs trailing the envelope.
type Sections<'a> = Vec<(u8, &'a [u8])>;

/// Split the payload into (envelope bytes, sections).
fn disassemble(payload: &[u8]) -> Result<(&[u8], Sections<'_>), WireError> {
    let mut r = Reader::new(payload);
    let env_len = r.u32()? as usize;
    let envelope = r.take(env_len)?;
    let nsec = r.u8()?;
    let mut sections = Vec::with_capacity(nsec as usize);
    for _ in 0..nsec {
        let id = r.u8()?;
        let len = r.u32()? as usize;
        sections.push((id, r.take(len)?));
    }
    if r.remaining() != 0 {
        return Err(WireError::Decode(format!(
            "{} trailing payload bytes after sections",
            r.remaining()
        )));
    }
    Ok((envelope, sections))
}

fn bad_json(what: &str, err: serde_json::Error) -> WireError {
    WireError::Decode(format!("{what} envelope: {err}"))
}

/// Encode a request as an envelope plus columnar append rows.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut sections = Vec::new();
    let envelope = match &req.append {
        Some(batch) if !batch.rows.is_empty() => {
            sections.push((SEC_APPEND_ROWS, encode_rows(&batch.rows)));
            let mut slim = req.clone();
            slim.append.as_mut().expect("append present").rows = Vec::new();
            serde_json::to_vec(&slim).expect("request envelope serializes")
        }
        _ => serde_json::to_vec(req).expect("request envelope serializes"),
    };
    assemble(&envelope, &sections)
}

/// Decode a request payload produced by [`encode_request`].
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let (envelope, sections) = disassemble(payload)?;
    let mut req: Request = serde_json::from_slice(envelope).map_err(|e| bad_json("request", e))?;
    for (id, bytes) in sections {
        // Anything but the one known section id is skipped for forward
        // compatibility.
        if id == SEC_APPEND_ROWS {
            let rows = decode_rows(&mut Reader::new(bytes))?;
            match req.append.as_mut() {
                Some(batch) => batch.rows = rows,
                None => {
                    return Err(WireError::Decode(
                        "append-rows section without append envelope".into(),
                    ))
                }
            }
        }
    }
    Ok(req)
}

/// Encode a response as an envelope plus columnar row sections.
///
/// Takes `&mut` to detach the hot row vectors while the envelope
/// serializes (they are restored before returning, so the response is
/// unchanged to the caller) — a multi-hundred-kilobyte result would
/// otherwise be deep-cloned just to slim it out of the JSON.
pub fn encode_response(resp: &mut Response) -> Vec<u8> {
    if let Some(section) = &resp.result_rows {
        // Encoded when the answer was made: `result.rows` is empty.
        let envelope = serde_json::to_vec(&*resp).expect("response envelope serializes");
        return assemble(&envelope, &[(SEC_RESULT_ROWS, section.as_bytes())]);
    }
    let mut sections = Vec::new();
    let result_rows = resp
        .result
        .as_mut()
        .map(|r| std::mem::take(&mut r.rows))
        .filter(|rows| !rows.is_empty());
    let window_rows = resp
        .window
        .as_mut()
        .map(|w| std::mem::take(&mut w.rows))
        .filter(|rows| !rows.is_empty());
    if let Some(rows) = &result_rows {
        sections.push((SEC_RESULT_ROWS, encode_str_rows(rows)));
    }
    if let Some(rows) = &window_rows {
        sections.push((SEC_WINDOW_ROWS, encode_str_rows(rows)));
    }
    let envelope = serde_json::to_vec(resp).expect("response envelope serializes");
    if let Some(rows) = result_rows {
        resp.result.as_mut().expect("result present").rows = rows;
    }
    if let Some(rows) = window_rows {
        resp.window.as_mut().expect("window present").rows = rows;
    }
    assemble(&envelope, &sections)
}

/// Decode a response payload produced by [`encode_response`].
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    decode_response_keeping(payload, false)
}

/// Decode a response but keep its result rows as the section they came
/// in ([`Response::result_rows`]), unchecked: what `Client::receive`
/// reads. A router relays the section to its client as it is, and the
/// decoder of whoever reads the rows checks them.
pub fn decode_response_relay(payload: &[u8]) -> Result<Response, WireError> {
    decode_response_keeping(payload, true)
}

fn decode_response_keeping(payload: &[u8], keep_result_rows: bool) -> Result<Response, WireError> {
    let (envelope, sections) = disassemble(payload)?;
    let mut resp: Response =
        serde_json::from_slice(envelope).map_err(|e| bad_json("response", e))?;
    for (id, bytes) in sections {
        match id {
            SEC_RESULT_ROWS => {
                let Some(result) = resp.result.as_mut() else {
                    return Err(orphan_result_rows());
                };
                if keep_result_rows {
                    resp.result_rows = Some(bytes.into());
                } else {
                    result.rows = decode_str_rows(&mut Reader::new(bytes))?;
                }
            }
            SEC_WINDOW_ROWS => {
                let rows = decode_str_rows(&mut Reader::new(bytes))?;
                match resp.window.as_mut() {
                    Some(window) => window.rows = rows,
                    None => {
                        return Err(WireError::Decode(
                            "window-rows section without window envelope".into(),
                        ))
                    }
                }
            }
            _ => {} // forward compatibility: skip unknown sections
        }
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{codes, ErrorBody, QueryResult, QuerySpec, WireInfo};
    use sjcore::{Row, Value};

    fn sample_batch(nrows: usize) -> sjstream::AppendBatch {
        sjstream::AppendBatch {
            dataset: "rack_temps".into(),
            source: "sensor-3".into(),
            source_clock_us: 1_000_000,
            rows: (0..nrows)
                .map(|i| {
                    Row::new(vec![
                        Value::Int(i as i64),
                        Value::Float(if i % 3 == 0 { f64::NAN } else { i as f64 / 7.0 }),
                        Value::str(format!("node-{}", i % 4)),
                        if i % 5 == 0 {
                            Value::Null
                        } else {
                            Value::Bool(i % 2 == 0)
                        },
                    ])
                })
                .collect(),
        }
    }

    #[test]
    fn requests_round_trip_with_append_rows() {
        let req = Request::append("a-1", "teamA", sample_batch(37)).with_proto();
        let bytes = encode_request(&req);
        let back = decode_request(&bytes).unwrap();
        assert_eq!(back.id, req.id);
        assert_eq!(back.verb, req.verb);
        let (a, b) = (back.append.unwrap(), req.append.unwrap());
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            for (p, q) in x.values().iter().zip(y.values()) {
                match (p, q) {
                    (Value::Float(f), Value::Float(g)) => {
                        assert_eq!(f.to_bits(), g.to_bits())
                    }
                    _ => assert_eq!(p, q),
                }
            }
        }
    }

    #[test]
    fn plain_requests_round_trip() {
        let req = Request::query("q-1", "t", QuerySpec::new(["job"], ["heat"]));
        let back = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn responses_round_trip_with_result_rows() {
        let mut resp = Response::ok("q-1");
        resp.result = Some(QueryResult {
            columns: vec!["job".into(), "heat".into()],
            rows: (0..50)
                .map(|i| vec![format!("job-{}", i % 5), format!("{}.5", i)])
                .collect(),
            row_count: 50,
            truncated: false,
            plan_cache_hit: true,
            result_cache_hit: false,
            elapsed_ms: 1.25,
            engine_metrics: None,
        });
        resp.wire = Some(WireInfo {
            wire_version: sjwire::WIRE_VERSION,
            codec: sjwire::CODEC_COLUMNAR.into(),
        });
        let back = decode_response(&encode_response(&mut resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn encoded_result_rows_ship_as_the_section_they_are() {
        let mut plain = Response::ok("q-1");
        plain.result = Some(QueryResult {
            columns: vec!["job".into(), "heat".into()],
            rows: (0..50)
                .map(|i| vec![format!("job-{}", i % 5), format!("{i}.5")])
                .collect(),
            row_count: 80,
            truncated: true,
            plan_cache_hit: true,
            result_cache_hit: true,
            elapsed_ms: 0.5,
            engine_metrics: None,
        });
        let mut sealed = plain.clone();
        sealed.encode_result_rows();
        assert!(sealed.result.as_ref().unwrap().rows.is_empty());
        let bytes = encode_response(&mut sealed);
        assert_eq!(bytes, encode_response(&mut plain.clone()), "same bytes");
        let (envelope, _) = disassemble(&bytes).unwrap();
        assert!(!String::from_utf8_lossy(envelope).contains("result_rows"));
        assert_eq!(decode_response(&bytes).unwrap(), plain);

        // A relay keeps the section as it came and writes it on as is.
        let mut relayed = decode_response_relay(&bytes).unwrap();
        assert_eq!(relayed.result_rows, sealed.result_rows);
        assert!(relayed.result.as_ref().unwrap().rows.is_empty());
        assert_eq!(encode_response(&mut relayed.clone()), bytes);
        relayed.decode_result_rows().unwrap();
        assert_eq!(relayed, plain);

        // A cut ships only its rows.
        let mut cut = sealed.clone();
        cut.result_rows = Some(sealed.result_rows.as_ref().unwrap().prefix(3).unwrap());
        let back = decode_response(&encode_response(&mut cut)).unwrap();
        assert_eq!(
            back.result.unwrap().rows[..],
            plain.result.unwrap().rows[..3]
        );
    }

    #[test]
    fn responses_round_trip_with_window_rows() {
        let mut resp = Response::ok("s-1");
        resp.query_id = Some("q000001-s-1".into());
        resp.window = Some(sjstream::WindowEmission {
            query_id: "q000001-s-1".into(),
            window_id: 7,
            start_us: 420_000_000,
            end_us: 480_000_000,
            watermark_us: 481_000_000,
            re_emission: true,
            degraded: false,
            error: None,
            columns: vec!["time".into(), "heat".into()],
            rows: vec![
                vec!["420".into(), "1.5".into()],
                vec!["440".into(), "2.5".into()],
            ],
        });
        let back = decode_response(&encode_response(&mut resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn error_responses_round_trip() {
        let mut resp = Response::fail("r-9", ErrorBody::new(codes::QUEUE_FULL, "full"));
        let back = decode_response(&encode_response(&mut resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn orphan_sections_are_rejected() {
        // An append-rows section whose envelope has no append payload
        // must be an error, not silently dropped rows.
        let req = Request::bare("x", crate::protocol::Verb::Health);
        let envelope = serde_json::to_vec(&req).unwrap();
        let rows = encode_rows(&[Row::new(vec![Value::Int(1)])]);
        let payload = assemble(&envelope, &[(SEC_APPEND_ROWS, rows)]);
        assert!(decode_request(&payload).is_err());
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let req = Request::query("q", "t", QuerySpec::new(["job"], ["heat"]));
        let envelope = serde_json::to_vec(&req).unwrap();
        let payload = assemble(&envelope, &[(200, b"future bytes".to_vec())]);
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    #[test]
    fn truncated_payloads_error_without_panicking() {
        let req = Request::append("a-1", "t", sample_batch(8));
        let bytes = encode_request(&req);
        for cut in 0..bytes.len() {
            assert!(decode_request(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
