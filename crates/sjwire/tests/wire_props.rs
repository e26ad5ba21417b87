//! Property tests for the wire codec: every message type round-trips
//! bit-exactly (including NaN/∞ floats, empty and dict-heavy string
//! lanes), rows rendered on the way encode as their strings do,
//! string-table prefixes cut exactly, and corrupt/truncated/
//! oversized frames are rejected without panicking — the daemon-side
//! guarantee that a bad peer cannot wedge a connection handler.

use proptest::prelude::*;
use sjcore::units::time::{TimeSpan, Timestamp};
use sjcore::{ColumnarPartition, Row, Value};
use sjwire::codec::{
    decode_partition, decode_rows, decode_str_rows, decode_value, encode_partition,
    encode_rendered_rows, encode_rows, encode_str_rows, encode_value, str_rows_prefix, Reader,
};
use sjwire::{read_frame, write_frame, MsgType};

/// Deterministically expand one (tag, bits) pair into a Value. The
/// whole u64 feeds float bits, so NaN payloads, ±∞, and -0.0 all occur.
fn value_from(tag: u8, bits: u64) -> Value {
    match tag % 8 {
        0 => Value::Null,
        1 => Value::Bool(bits & 1 == 1),
        2 => Value::Int(bits as i64),
        3 => Value::Float(f64::from_bits(bits)),
        4 => Value::str(format!("node-{}", bits % 7)), // small dict: heavy reuse
        5 => Value::Time(Timestamp::from_micros(bits as i64 % 1_000_000_000)),
        6 => Value::Span(TimeSpan::new(
            Timestamp::from_micros((bits % 1_000_000) as i64),
            Timestamp::from_micros((bits % 1_000_000) as i64 + (bits >> 32) as i64 % 1_000),
        )),
        _ => Value::List(
            (0..bits % 4)
                .map(|i| value_from((bits >> (8 * i)) as u8 % 7, bits.rotate_left(i as u32 * 13)))
                .collect(),
        ),
    }
}

/// One rendered cell of a string table in `style`: 0 repeats a small
/// dict, 1 is distinct per cell (the plain body), 2 is mostly empty
/// cells, 3 is multi-byte UTF-8.
fn cell_of(style: u8, i: usize, j: usize, seed: u64) -> String {
    let x = seed.wrapping_mul(i as u64 + 1).wrapping_add(j as u64);
    match style % 4 {
        0 => format!("node-{}", x % 5),
        1 => format!("{seed:x}/{i}/{j}"),
        2 if !x.is_multiple_of(3) => String::new(),
        2 => format!("{}", x % 7),
        _ => format!("höstlöv-温度-{}-🌡", x % 11),
    }
}

/// Bit-exact value equality (PartialEq on f64 fails for NaN).
fn bit_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::List(x), Value::List(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| bit_eq(p, q))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tagged values round-trip bit-exactly, lists and NaN included.
    #[test]
    fn values_round_trip(cells in prop::collection::vec((any::<u8>(), any::<u64>()), 0..64)) {
        let values: Vec<Value> = cells.iter().map(|&(t, b)| value_from(t, b)).collect();
        let mut buf = Vec::new();
        for v in &values {
            encode_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            let back = decode_value(&mut r).unwrap();
            prop_assert!(bit_eq(&back, v), "{back:?} != {v:?}");
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Rectangular row batches ship as partition lanes and round-trip.
    #[test]
    fn row_batches_round_trip(
        nrows in 0usize..40,
        ncols in 0usize..6,
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 0..240),
    ) {
        let rows: Vec<Row> = (0..nrows)
            .map(|i| {
                Row::new(
                    (0..ncols)
                        .map(|j| {
                            let (t, b) = seeds
                                .get((i * ncols + j) % seeds.len().max(1))
                                .copied()
                                .unwrap_or((0, 0));
                            // Same tag per column keeps typed lanes in play;
                            // xor keeps cell values distinct.
                            value_from(t.wrapping_add(j as u8), b ^ (i as u64) << 7)
                        })
                        .collect(),
                )
            })
            .collect();
        let buf = encode_rows(&rows);
        let back = decode_rows(&mut Reader::new(&buf)).unwrap();
        prop_assert_eq!(back.len(), rows.len());
        for (a, b) in back.iter().zip(&rows) {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.values().iter().zip(b.values()) {
                prop_assert!(bit_eq(x, y), "{x:?} != {y:?}");
            }
        }
    }

    /// Partition lanes round-trip with validity bitmaps intact.
    #[test]
    fn partitions_round_trip(
        nrows in 1usize..50,
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 1..64),
    ) {
        let rows: Vec<Row> = (0..nrows)
            .map(|i| {
                Row::new(
                    seeds
                        .iter()
                        .take(4)
                        .enumerate()
                        .map(|(j, &(t, b))| {
                            if (b >> (i % 60)) & 1 == 1 {
                                Value::Null // exercises the validity bitmap
                            } else {
                                value_from(t.wrapping_mul(j as u8 + 1), b ^ i as u64)
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let part = ColumnarPartition::from_rows(&rows);
        let buf = encode_partition(&part);
        let back = decode_partition(&mut Reader::new(&buf)).unwrap();
        prop_assert_eq!(back.len(), part.len());
        prop_assert_eq!(back.num_columns(), part.num_columns());
        for (a, b) in back.to_rows().iter().zip(&rows) {
            for (x, y) in a.values().iter().zip(b.values()) {
                prop_assert!(bit_eq(x, y), "{x:?} != {y:?}");
            }
        }
    }

    /// Rendered string rows round-trip, from empty to dict-heavy.
    #[test]
    fn str_rows_round_trip(
        nrows in 0usize..60,
        ncols in 0usize..8,
        dict_size in 1u64..12,
        seed in any::<u64>(),
    ) {
        let rows: Vec<Vec<String>> = (0..nrows)
            .map(|i| {
                (0..ncols)
                    .map(|j| {
                        let x = seed.wrapping_mul(i as u64 + 1).wrapping_add(j as u64);
                        format!("cell-{}", x % dict_size)
                    })
                    .collect()
            })
            .collect();
        let buf = encode_str_rows(&rows);
        let back = decode_str_rows(&mut Reader::new(&buf)).unwrap();
        prop_assert_eq!(back, rows);
    }

    /// Rows of values encode, rendered on the way, to exactly the table
    /// their rendered strings make, in either body format. A small pool
    /// of payloads makes values repeat, and makes distinct values render
    /// alike (`Int(0)` and `Float(0.0)` both render `0`).
    #[test]
    fn rendered_rows_encode_as_their_strings_do(
        nrows in 0usize..50,
        ncols in 0usize..5,
        repeats in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let rows: Vec<Row> = (0..nrows)
            .map(|i| {
                Row::new(
                    (0..ncols)
                        .map(|j| {
                            let x = seed.wrapping_mul(31 * i as u64 + j as u64 + 1).rotate_left(17);
                            value_from((x >> 56) as u8, if repeats { x % 3 } else { x })
                        })
                        .collect(),
                )
            })
            .collect();
        let rendered: Vec<Vec<String>> = rows
            .iter()
            .map(|row| row.values().iter().map(|v| v.to_string()).collect())
            .collect();
        prop_assert_eq!(encode_rendered_rows(&rows, ncols), encode_str_rows(&rendered));
    }

    /// A cut string table decodes to exactly the first `n` rows, for
    /// every `n` up to one past the end, in both body formats, and is
    /// byte for byte the table a fresh encoding of those rows makes (so
    /// never longer: a cut ships no dict entry its rows do not use);
    /// every truncation of a cut (of a drawn `n`) errors without
    /// panicking.
    #[test]
    fn str_rows_prefixes_are_exact(
        nrows in 0usize..40,
        ncols in 0usize..5,
        style in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let rows: Vec<Vec<String>> = (0..nrows)
            .map(|i| (0..ncols).map(|j| cell_of(style, i, j, seed)).collect())
            .collect();
        let table = encode_str_rows(&rows);
        for n in 0..=nrows + 1 {
            let cut = str_rows_prefix(&table, n).unwrap();
            let mut r = Reader::new(&cut);
            let back = decode_str_rows(&mut r).unwrap();
            prop_assert_eq!(&back[..], &rows[..n.min(nrows)]);
            prop_assert_eq!(r.remaining(), 0);
            let fresh = encode_str_rows(&rows[..n.min(nrows)]);
            prop_assert!(cut.len() <= fresh.len());
            prop_assert_eq!(cut, fresh);
        }
        let n = seed as usize % (nrows + 2);
        let cut = str_rows_prefix(&table, n).unwrap();
        for len in 0..cut.len() {
            prop_assert!(
                decode_str_rows(&mut Reader::new(&cut[..len])).is_err(),
                "a cut of {n} rows truncated to {len} bytes decoded"
            );
        }
    }

    /// Frames round-trip over every message type; any single-byte
    /// corruption or truncation is rejected, never mis-decoded.
    #[test]
    fn frames_reject_corruption(
        type_sel in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..512),
        victim in any::<u16>(),
        flip in 1u8..255,
    ) {
        let msg_type = MsgType::from_u8(type_sel % 5 + 1).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, msg_type, &payload).unwrap();
        let f = read_frame(&mut &buf[..]).unwrap();
        prop_assert_eq!(f.msg_type, msg_type);
        prop_assert_eq!(&f.payload, &payload);

        let mut corrupt = buf.clone();
        let at = victim as usize % corrupt.len();
        corrupt[at] ^= flip;
        prop_assert!(read_frame(&mut &corrupt[..]).is_err(), "flip at {at} decoded");

        let cut = victim as usize % buf.len();
        match read_frame(&mut &buf[..cut]) {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "truncation at {cut} decoded"),
        }
    }

    /// Arbitrary garbage prefixes never panic the decoders (daemon-side
    /// robustness: network bytes are untrusted).
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_frame(&mut &bytes[..]);
        let _ = decode_rows(&mut Reader::new(&bytes));
        let _ = decode_partition(&mut Reader::new(&bytes));
        let _ = decode_str_rows(&mut Reader::new(&bytes));
        let _ = str_rows_prefix(&bytes, bytes.len() % 7);
        let _ = decode_value(&mut Reader::new(&bytes));
    }
}
