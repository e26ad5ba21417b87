//! Keyed batch plumbing shared by the wide column kernels (derive-rate,
//! derive-heat and the natural join): one scatter that routes typed
//! sub-batches by the byte encoding of their key cells, and one
//! arrival-order grouping of a batch's rows by the same encoding.
//!
//! A key is the concatenated [`Column::encode_key_at`] bytes of the key
//! cells. The encoding is injective over [`Value::key`], so two rows
//! share a key exactly when their `Value::key` tuples are equal, as in
//! the rowwise kernels' `group_by_key` and `join`: a null cell matches a
//! null cell, floats match bit for bit, and a key column whose lane
//! differs between partitions (`Str` in one, `Mixed` in another) still
//! routes and groups as one column.
//!
//! [`Column::encode_key_at`]: crate::column::Column::encode_key_at
//! [`Value::key`]: crate::value::Value::key

use crate::column::ColumnarPartition;
use sjdf::Rdd;
use std::collections::HashMap;

/// Append the encoded key cells `cols` of `row` to `buf`.
fn encode_key(batch: &ColumnarPartition, cols: &[usize], row: usize, buf: &mut Vec<u8>) {
    for &c in cols {
        batch.column(c).encode_key_at(row, buf);
    }
}

/// Hash-partition `batches` over `parts` destinations on the key cells
/// `cols`, dropping first the rows `keep` rejects. Each map task gathers
/// one typed sub-batch per destination and `exchange` ships it whole, so
/// a shuffle costs one record per (map task, destination), not one per
/// row. Within a destination, sub-batches arrive in source-partition
/// order and keep their row order, so [`KeyGroups`] downstream sees each
/// key's rows in the order the rowwise `group_by_key` delivers them.
pub(crate) fn scatter_by_key<F>(
    batches: &Rdd<ColumnarPartition>,
    name: &'static str,
    cols: Vec<usize>,
    parts: usize,
    keep: F,
) -> Rdd<ColumnarPartition>
where
    F: Fn(&ColumnarPartition, usize) -> bool + Send + Sync + 'static,
{
    batches
        .map_partitions_named(name, move |bs| {
            let batch = ColumnarPartition::concat_owned(bs);
            // `from_rows` pads short datasets with zero-column partitions.
            if batch.is_empty() {
                return Vec::new();
            }
            let mut dest_rows: Vec<Vec<u32>> = vec![Vec::new(); parts];
            let mut keybuf: Vec<u8> = Vec::with_capacity(64);
            for r in 0..batch.len() {
                if !keep(&batch, r) {
                    continue;
                }
                keybuf.clear();
                encode_key(&batch, &cols, r, &mut keybuf);
                let dest = (sjdf::ops::hash64(&keybuf[..]) % parts as u64) as usize;
                dest_rows[dest].push(r as u32);
            }
            dest_rows
                .into_iter()
                .enumerate()
                .filter(|(_, rows)| !rows.is_empty())
                .map(|(dest, rows)| (dest, batch.gather(&rows)))
                .collect()
        })
        .exchange(parts)
}

/// Every row's encoded key over some key columns, in one buffer.
pub(crate) struct RowKeys {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl RowKeys {
    /// Encode the key cells `cols` of every row of `batch`.
    pub(crate) fn encode(batch: &ColumnarPartition, cols: &[usize]) -> RowKeys {
        let mut bytes = Vec::with_capacity(batch.len() * 16);
        let mut ends = Vec::with_capacity(batch.len());
        for r in 0..batch.len() {
            encode_key(batch, cols, r, &mut bytes);
            ends.push(bytes.len());
        }
        RowKeys { bytes, ends }
    }

    /// Row `row`'s key.
    pub(crate) fn get(&self, row: usize) -> &[u8] {
        let start = if row == 0 { 0 } else { self.ends[row - 1] };
        &self.bytes[start..self.ends[row]]
    }

    fn len(&self) -> usize {
        self.ends.len()
    }
}

/// A batch's rows grouped by key: groups in first-occurrence order, each
/// group's rows in row order.
pub(crate) struct KeyGroups<'k> {
    index: HashMap<&'k [u8], usize>,
    /// Group `g` is `rows[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    rows: Vec<u32>,
}

impl<'k> KeyGroups<'k> {
    /// Group the rows whose keys `keys` holds.
    pub(crate) fn new(keys: &'k RowKeys) -> KeyGroups<'k> {
        let n = keys.len();
        let mut index: HashMap<&'k [u8], usize> = HashMap::with_capacity(n.min(1 << 16));
        let mut group_of: Vec<usize> = Vec::with_capacity(n);
        let mut sizes: Vec<usize> = Vec::new();
        for r in 0..n {
            let g = *index.entry(keys.get(r)).or_insert_with(|| {
                sizes.push(0);
                sizes.len() - 1
            });
            sizes[g] += 1;
            group_of.push(g);
        }
        // Counting sort on the group id keeps rows in order within each
        // group without one allocation per group.
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        starts.push(0);
        for s in &sizes {
            starts.push(starts[starts.len() - 1] + s);
        }
        let mut next = starts.clone();
        let mut rows = vec![0u32; n];
        for (r, g) in group_of.into_iter().enumerate() {
            rows[next[g]] = r as u32;
            next[g] += 1;
        }
        KeyGroups {
            index,
            starts,
            rows,
        }
    }

    /// The groups' row indices, in first-occurrence order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.starts.windows(2).map(|w| &self.rows[w[0]..w[1]])
    }

    /// The groups' row indices, in first-occurrence order, each
    /// reorderable in place.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut [u32]> {
        let mut rest = &mut self.rows[..];
        self.starts.windows(2).map(move |w| {
            let (group, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
            rest = tail;
            group
        })
    }

    /// The rows whose key is `key`, if any.
    pub(crate) fn get(&self, key: &[u8]) -> Option<&[u32]> {
        self.index
            .get(key)
            .map(|&g| &self.rows[self.starts[g]..self.starts[g + 1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::value::Value;
    use sjdf::ExecCtx;

    fn batch(rows: &[(Value, i64)]) -> ColumnarPartition {
        let rows: Vec<Row> = rows
            .iter()
            .map(|(k, v)| Row::new(vec![k.clone(), Value::Int(*v)]))
            .collect();
        ColumnarPartition::from_rows(&rows)
    }

    #[test]
    fn groups_keep_first_occurrence_and_row_order() {
        let b = batch(&[
            (Value::str("b"), 0),
            (Value::str("a"), 1),
            (Value::Null, 2),
            (Value::str("b"), 3),
            (Value::Null, 4),
        ]);
        let keys = RowKeys::encode(&b, &[0]);
        let groups = KeyGroups::new(&keys);
        let got: Vec<&[u32]> = groups.iter().collect();
        assert_eq!(got, vec![&[0, 3][..], &[1][..], &[2, 4][..]]);
        // Null keys group (and match) like any other key.
        assert_eq!(groups.get(keys.get(2)), Some(&[2, 4][..]));
        let mut probe = Vec::new();
        b.column(0).encode_key_at(1, &mut probe);
        assert_eq!(groups.get(&probe), Some(&[1][..]));
        assert_eq!(groups.get(b"missing"), None);
    }

    #[test]
    fn keys_ignore_the_lane_a_partition_inferred() {
        // An Int cell on the Int lane and on the Mixed lane encode alike.
        let typed = batch(&[(Value::Int(7), 0)]);
        let mixed = ColumnarPartition::from_rows(&[
            Row::new(vec![Value::Int(7), Value::Int(1)]),
            Row::new(vec![Value::str("x"), Value::Int(2)]),
        ]);
        assert_eq!(
            RowKeys::encode(&typed, &[0]).get(0),
            RowKeys::encode(&mixed, &[0]).get(0)
        );
    }

    #[test]
    fn scatter_routes_whole_sub_batches_by_key() {
        let ctx = ExecCtx::local();
        let b0 = batch(&[(Value::str("a"), 0), (Value::str("b"), 1)]);
        let b1 = batch(&[(Value::str("a"), 2), (Value::str("c"), 3)]);
        let pad = ColumnarPartition::empty(0);
        let rdd = Rdd::parallelize(&ctx, vec![b0, b1, pad], 3);
        let out = scatter_by_key(&rdd, "test_scatter", vec![0], 2, |b, r| {
            b.column(1).f64_at(r) != Some(3.0)
        })
        .glom()
        .unwrap();
        assert_eq!(out.len(), 2);
        let parts: Vec<Vec<(String, i64)>> = out
            .iter()
            .map(|subs| {
                subs.iter()
                    .flat_map(ColumnarPartition::to_rows)
                    .map(|r| {
                        let key = r.get(0).as_str().unwrap().to_string();
                        (key, r.get(1).as_i64().unwrap())
                    })
                    .collect()
            })
            .collect();
        // Both "a" rows land on one destination, in source order.
        let with_a: Vec<Vec<i64>> = parts
            .iter()
            .map(|p| {
                p.iter()
                    .filter(|(k, _)| k == "a")
                    .map(|(_, v)| *v)
                    .collect()
            })
            .filter(|vals: &Vec<i64>| !vals.is_empty())
            .collect();
        assert_eq!(with_a, vec![vec![0, 2]]);
        // The rejected row is gone; every other row arrives once.
        let mut all = parts.concat();
        all.sort();
        assert_eq!(all, vec![("a".into(), 0), ("a".into(), 2), ("b".into(), 1)]);
        // One shuffle record per (map task, destination), not per row.
        let records = ctx
            .metrics
            .report()
            .op("exchange")
            .unwrap()
            .metrics
            .shuffle_records;
        assert!(records <= 3, "{records} records");
    }
}
