//! Natural join: exact match on all shared domain dimensions.
//!
//! Two kernels share one contract. The **columnar** kernel (default)
//! scatters both sides on their key columns to the same partition count
//! as whole typed sub-batches, indexes each right partition by encoded
//! key, probes the left rows in order, and builds the output with one
//! left `gather` plus one right `gather` per kept column. The
//! **rowwise** kernel, a keyed `join` of boxed rows, is the reference
//! the columnar one is checked against.

use crate::column::ColumnarPartition;
use crate::dataset::SjDataset;
use crate::derivations::combine::common::{merge_schemas, SharedDomains};
use crate::derivations::keyed::{scatter_by_key, KeyGroups, RowKeys};
use crate::derivations::{not_applicable, Combination, DerivationSpec};
use crate::error::Result;
use crate::row::Row;
use crate::schema::Schema;
use crate::semantics::SemanticDictionary;
use sjdf::Rdd;

/// Combine two datasets by matching every shared domain dimension exactly.
///
/// This is the semantics-driven analogue of a relational natural join: the
/// join keys are not user-specified column names but the columns that lie
/// on the datasets' shared domain dimensions. Every shared domain is
/// matched *exactly* — including ordered continuous ones like time, which
/// only relate when both sides recorded the very same instant. When the
/// two datasets sample a continuous domain at different instants, use
/// [`super::InterpolationJoin`] instead (the derivation engine picks it
/// automatically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaturalJoin;

impl NaturalJoin {
    fn shared(
        &self,
        left: &Schema,
        right: &Schema,
        dict: &SemanticDictionary,
    ) -> Result<SharedDomains> {
        let shared = SharedDomains::analyze(left, right, dict)?;
        if shared.is_empty() {
            return Err(not_applicable(
                "natural_join",
                "datasets share no domain dimension",
            ));
        }
        Ok(shared)
    }

    /// All shared columns, exact and continuous alike — a natural join
    /// matches every shared domain exactly.
    fn key_columns(shared: &SharedDomains) -> Vec<(usize, usize)> {
        shared
            .exact
            .iter()
            .chain(&shared.continuous)
            .map(|c| (c.left_idx, c.right_idx))
            .collect()
    }
}

impl Combination for NaturalJoin {
    fn name(&self) -> &'static str {
        "natural_join"
    }

    fn derive_schema(
        &self,
        left: &Schema,
        right: &Schema,
        dict: &SemanticDictionary,
    ) -> Result<Schema> {
        let shared = self.shared(left, right, dict)?;
        let (schema, _) = merge_schemas(left, right, &shared.right_key_indices())?;
        Ok(schema)
    }

    fn apply(
        &self,
        left: &SjDataset,
        right: &SjDataset,
        dict: &SemanticDictionary,
    ) -> Result<SjDataset> {
        let shared = self.shared(left.schema(), right.schema(), dict)?;
        let (out_schema, kept_right) =
            merge_schemas(left.schema(), right.schema(), &shared.right_key_indices())?;

        let keys = NaturalJoin::key_columns(&shared);
        let left_key: Vec<usize> = keys.iter().map(|&(l, _)| l).collect();
        let right_key: Vec<usize> = keys.iter().map(|&(_, r)| r).collect();
        let parts = left.num_partitions().max(right.num_partitions()).max(1);
        let name = format!("natural_join({}, {})", left.name(), right.name());
        if left.is_columnar() && right.is_columnar() {
            let rdd = join_columnar(left, right, left_key, right_key, kept_right, parts)?;
            return Ok(SjDataset::from_batches(rdd, out_schema, name));
        }

        let lk = left.rdd().map_partitions_named("key_left", move |rows| {
            rows.into_iter().map(|r| (r.key_of(&left_key), r)).collect()
        });
        let rk = right.rdd().map_partitions_named("key_right", move |rows| {
            rows.into_iter()
                .map(|r| (r.key_of(&right_key), r))
                .collect()
        });
        let joined = lk.join(&rk, parts);
        let rdd = joined.map_partitions_named("natural_join", move |pairs| {
            pairs
                .into_iter()
                .map(|(_, (lrow, rrow))| {
                    let mut values = lrow.into_values();
                    for &i in &kept_right {
                        values.push(rrow.get(i).clone());
                    }
                    Row::new(values)
                })
                .collect()
        });
        Ok(SjDataset::new(rdd, out_schema, name))
    }

    fn spec(&self) -> DerivationSpec {
        DerivationSpec::NaturalJoin
    }
}

/// The columnar kernel (see the module docs). Keys are the encoded key
/// cells, so a null key cell matches a null key cell, as `KeyAtom::Null`
/// does on the rowwise path.
fn join_columnar(
    left: &SjDataset,
    right: &SjDataset,
    left_key: Vec<usize>,
    right_key: Vec<usize>,
    kept_right: Vec<usize>,
    parts: usize,
) -> Result<Rdd<ColumnarPartition>> {
    let every_row = |_: &ColumnarPartition, _: usize| true;
    let lhs = scatter_by_key(
        &left.batch_rdd(),
        "join_scatter_left",
        left_key.clone(),
        parts,
        every_row,
    );
    let rhs = scatter_by_key(
        &right.batch_rdd(),
        "join_scatter_right",
        right_key.clone(),
        parts,
        every_row,
    );
    let rdd = lhs.zip_partitions(&rhs, "natural_join", move |_, lbs, rbs| {
        let l = ColumnarPartition::concat_owned(lbs);
        let r = ColumnarPartition::concat_owned(rbs);
        if l.is_empty() || r.is_empty() {
            return Vec::new();
        }
        let rkeys = RowKeys::encode(&r, &right_key);
        let index = KeyGroups::new(&rkeys);
        let lkeys = RowKeys::encode(&l, &left_key);
        let (mut li, mut ri): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        for row in 0..l.len() {
            for &m in index.get(lkeys.get(row)).unwrap_or_default() {
                li.push(row as u32);
                ri.push(m);
            }
        }
        let columns = l
            .columns()
            .iter()
            .map(|c| c.gather(&li))
            .chain(kept_right.iter().map(|&c| r.column(c).gather(&ri)))
            .collect();
        vec![ColumnarPartition::from_columns(columns)]
    })?;
    Ok(rdd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldDef;
    use crate::semantics::FieldSemantics;
    use crate::value::Value;
    use sjdf::ExecCtx;

    fn dict() -> SemanticDictionary {
        SemanticDictionary::default_hpc()
    }

    fn node_temps(ctx: &ExecCtx) -> SjDataset {
        let schema = Schema::new(vec![
            FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
            FieldDef::new("temp", FieldSemantics::value("temperature", "celsius")),
        ])
        .unwrap();
        let rows = vec![
            Row::new(vec![Value::str("n1"), Value::Float(60.0)]),
            Row::new(vec![Value::str("n2"), Value::Float(65.0)]),
            Row::new(vec![Value::str("n3"), Value::Float(70.0)]),
        ];
        SjDataset::from_rows(ctx, rows, schema, "temps", 2)
    }

    fn layout(ctx: &ExecCtx) -> SjDataset {
        let schema = Schema::new(vec![
            FieldDef::new("NODEID", FieldSemantics::domain("compute-node", "node-id")),
            FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
        ])
        .unwrap();
        let rows = vec![
            Row::new(vec![Value::str("n1"), Value::str("rack1")]),
            Row::new(vec![Value::str("n2"), Value::str("rack1")]),
            // n3 is not in the layout.
        ];
        SjDataset::from_rows(ctx, rows, schema, "layout", 1)
    }

    #[test]
    fn joins_on_shared_node_dimension_despite_column_names() {
        let ctx = ExecCtx::local();
        let out = NaturalJoin
            .apply(&node_temps(&ctx), &layout(&ctx), &dict())
            .unwrap();
        let mut rows = out.collect().unwrap();
        rows.sort_by_key(|r| r.get(0).as_str().unwrap().to_string());
        assert_eq!(rows.len(), 2);
        // Schema: node, temp, rack — NODEID is the join key, deduped.
        assert_eq!(out.schema().len(), 3);
        assert!(out.schema().has_column("rack"));
        assert!(!out.schema().has_column("NODEID"));
        assert_eq!(rows[0].get(0).as_str(), Some("n1"));
        assert_eq!(rows[0].get(2).as_str(), Some("rack1"));
    }

    #[test]
    fn rejects_disjoint_domains() {
        let ctx = ExecCtx::local();
        let racks = Schema::new(vec![FieldDef::new(
            "rack",
            FieldSemantics::domain("rack", "rack-id"),
        )])
        .unwrap();
        let rds = SjDataset::from_rows(&ctx, vec![], racks, "racks", 1);
        assert!(NaturalJoin
            .derive_schema(node_temps(&ctx).schema(), rds.schema(), &dict())
            .is_err());
    }

    #[test]
    fn shared_continuous_domains_match_exactly() {
        use crate::units::time::Timestamp;
        let ctx = ExecCtx::local();
        let timed = Schema::new(vec![
            FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
            FieldDef::new("t", FieldSemantics::domain("time", "datetime")),
            FieldDef::new("temp", FieldSemantics::value("temperature", "celsius")),
        ])
        .unwrap();
        let mk = |node: &str, secs: i64, v: f64| {
            Row::new(vec![
                Value::str(node),
                Value::Time(Timestamp::from_secs(secs)),
                Value::Float(v),
            ])
        };
        let a = SjDataset::from_rows(
            &ctx,
            vec![mk("n1", 10, 1.0), mk("n1", 20, 2.0)],
            timed.clone(),
            "a",
            1,
        );
        let b = SjDataset::from_rows(
            &ctx,
            // Only the t=10 sample matches exactly; t=21 does not.
            vec![mk("n1", 10, 9.0), mk("n1", 21, 8.0)],
            timed,
            "b",
            1,
        );
        let out = NaturalJoin.apply(&a, &b, &dict()).unwrap();
        let rows = out.collect().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(2).as_f64(), Some(1.0));
        assert_eq!(rows[0].get(3).as_f64(), Some(9.0));
    }

    #[test]
    fn many_to_one_replicates_right_values() {
        let ctx = ExecCtx::local();
        // Two temperature readings for the same node.
        let schema = node_temps(&ctx).schema().clone();
        let rows = vec![
            Row::new(vec![Value::str("n1"), Value::Float(60.0)]),
            Row::new(vec![Value::str("n1"), Value::Float(61.0)]),
        ];
        let temps = SjDataset::from_rows(&ctx, rows, schema, "temps", 1);
        let out = NaturalJoin.apply(&temps, &layout(&ctx), &dict()).unwrap();
        assert_eq!(out.count().unwrap(), 2);
        let racks = out.collect_column("rack").unwrap();
        assert!(racks.iter().all(|v| v.as_str() == Some("rack1")));
    }

    #[test]
    fn empty_sides_join_to_empty() {
        let ctx = ExecCtx::local();
        let schema = node_temps(&ctx).schema().clone();
        let empty = SjDataset::from_rows(&ctx, vec![], schema, "empty", 1);
        let out = NaturalJoin.apply(&empty, &layout(&ctx), &dict()).unwrap();
        assert_eq!(out.count().unwrap(), 0);
    }
}
