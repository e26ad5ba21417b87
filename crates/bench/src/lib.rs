//! Shared helpers for the ScrubJay benchmark harness.
//!
//! One bench target exists per figure in the paper's evaluation (§6,
//! Figure 3) plus the §5.2 "interactive rates" claim and ablations of the
//! design choices DESIGN.md calls out. Criterion measures the real local
//! algorithms; the paper-scale series (10-node cluster) are produced by
//! costing the recorded task metrics with `sjdf::simtime` and printed by
//! the benches' setup code so `cargo bench` regenerates every panel.

#![forbid(unsafe_code)]

use sjcore::catalog::Catalog;
use sjcore::{FieldDef, FieldSemantics, Row, Schema, SjDataset, Timestamp, Value};
use sjdata::synth::JoinWorkload;
use sjdf::{ClusterSpec, ExecCtx};

/// Execution context for benches: a small fixed-thread local cluster so
/// results are comparable across machines.
pub fn bench_ctx() -> ExecCtx {
    ExecCtx::new(ClusterSpec::new(1, 2).expect("bench cluster"))
}

/// The natural-join workload of Figure 3 (exactly matching timestamps).
///
/// The time range grows with the row count so the sample *density* —
/// and therefore the per-row match multiplicity and per-row cost — is
/// constant across the sweep. This is what makes the paper's
/// time-vs-rows curves linear, and what lets metrics measured at one
/// size extrapolate linearly to another.
pub fn natural_workload(rows: usize) -> JoinWorkload {
    JoinWorkload {
        rows,
        nodes: 500,
        time_range_secs: ((rows as f64 * 0.36) as i64).max(600),
        partitions: 8,
        seed: 42,
    }
}

/// The interpolation-join workload of Figure 3: dense in time, so each
/// left element matches several right samples inside the window.
/// Density-constant across the sweep, like [`natural_workload`].
pub fn interp_workload(rows: usize) -> JoinWorkload {
    JoinWorkload {
        rows,
        nodes: 100,
        time_range_secs: ((rows as f64 * 0.18) as i64).max(600),
        partitions: 8,
        seed: 42,
    }
}

/// Interpolation-join window used throughout the harness (seconds).
pub const INTERP_WINDOW_SECS: f64 = 60.0;

/// A synthetic catalog with `n` datasets for derivation-engine benches.
///
/// Dataset `i` carries domain dimensions picked from a pool so that
/// neighbouring datasets share domains (making multi-step plans
/// necessary), plus one unique value column.
pub fn synthetic_catalog(ctx: &ExecCtx, n: usize) -> Catalog {
    let mut catalog = Catalog::default_hpc();
    let domain_pool = [
        ("node", "compute-node", "node-id"),
        ("rack", "rack", "rack-id"),
        ("cpu", "cpu", "cpu-id"),
        ("socket", "socket", "socket-id"),
        ("job", "job", "job-id"),
    ];
    let value_pool = [
        ("temperature", "celsius"),
        ("power", "watts"),
        ("humidity", "percent-rh"),
        ("thermal-margin", "margin-celsius"),
    ];
    for i in 0..n {
        let (d1n, d1d, d1u) = domain_pool[i % domain_pool.len()];
        let (d2n, d2d, d2u) = domain_pool[(i + 1) % domain_pool.len()];
        let (vd, vu) = value_pool[i % value_pool.len()];
        let schema = Schema::new(vec![
            FieldDef::new(d1n, FieldSemantics::domain(d1d, d1u)),
            FieldDef::new(d2n, FieldSemantics::domain(d2d, d2u)),
            FieldDef::new("t", FieldSemantics::domain("time", "datetime")),
            FieldDef::new(&format!("v{i}"), FieldSemantics::value(vd, vu)),
        ])
        .expect("synthetic schema");
        let rows: Vec<Row> = (0..16)
            .map(|k| {
                Row::new(vec![
                    Value::str(format!("a{k}")),
                    Value::str(format!("b{k}")),
                    Value::Time(Timestamp::from_secs(k)),
                    Value::Float(k as f64),
                ])
            })
            .collect();
        catalog
            .register_dataset(
                &format!("ds{i}"),
                SjDataset::from_rows(ctx, rows, schema, format!("ds{i}"), 2),
            )
            .expect("register synthetic dataset");
    }
    catalog
}

/// A catalog with `n` datasets over *rare* dimensions, for planner
/// scaling sweeps.
///
/// [`synthetic_catalog`] draws from a pool of five domains, so at large
/// `n` every domain appears in ~2n/5 datasets and any planner must
/// wade through most of the catalog. Real HPC catalogs are the
/// opposite — thousands of tables, each touching a handful of the
/// site's many dimensions — so here `n/2` zone dimensions and `n/4`
/// metric dimensions are registered into the dictionary and dataset
/// `i` records `metric-(i%M)` against zones `i%P` and `(i+1)%P`. Each
/// zone appears in ~2 datasets and each metric in ~4, which is what
/// lets an index-sliced planner touch O(relevant) datasets per query
/// while an exhaustive one still scans all `n`.
pub fn planner_catalog(ctx: &ExecCtx, n: usize) -> Catalog {
    use sjcore::semantics::DimensionDef;
    use sjcore::units::{UnitKind, UnitsDef};

    let zones = (n / 2).max(1);
    let metrics = (n / 4).max(1);
    let mut catalog = Catalog::default_hpc();
    let dict = catalog.dict_mut();
    for z in 0..zones {
        dict.register_dimension(DimensionDef::identifier(&format!("zone-{z}")))
            .expect("zone dimension");
        dict.register_units(UnitsDef::new(
            &format!("zone-{z}-id"),
            &format!("zone-{z}"),
            UnitKind::Identifier,
        ))
        .expect("zone units");
    }
    for m in 0..metrics {
        dict.register_dimension(DimensionDef::continuous(&format!("metric-{m}")))
            .expect("metric dimension");
        dict.register_units(UnitsDef::new(
            &format!("metric-{m}-units"),
            &format!("metric-{m}"),
            UnitKind::Scalar {
                factor: 1.0,
                offset: 0.0,
            },
        ))
        .expect("metric units");
    }
    for i in 0..n {
        let (z1, z2, m) = (i % zones, (i + 1) % zones, i % metrics);
        let schema = Schema::new(vec![
            FieldDef::new(
                "a",
                FieldSemantics::domain(&format!("zone-{z1}"), &format!("zone-{z1}-id")),
            ),
            FieldDef::new(
                "b",
                FieldSemantics::domain(&format!("zone-{z2}"), &format!("zone-{z2}-id")),
            ),
            FieldDef::new("t", FieldSemantics::domain("time", "datetime")),
            FieldDef::new(
                "v",
                FieldSemantics::value(&format!("metric-{m}"), &format!("metric-{m}-units")),
            ),
        ])
        .expect("planner schema");
        let rows: Vec<Row> = (0..4)
            .map(|k| {
                Row::new(vec![
                    Value::str(format!("z{z1}-{k}")),
                    Value::str(format!("z{z2}-{k}")),
                    Value::Time(Timestamp::from_secs(k)),
                    Value::Float(k as f64),
                ])
            })
            .collect();
        catalog
            .register_dataset(
                &format!("ds{i}"),
                SjDataset::from_rows(ctx, rows, schema, format!("ds{i}"), 1),
            )
            .expect("register planner dataset");
    }
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_catalog_builds_rare_dimensions() {
        let ctx = bench_ctx();
        let c = planner_catalog(&ctx, 12);
        assert_eq!(c.dataset_names().len(), 12);
        // zone-0 lives in exactly two datasets (ds0 primary, ds11
        // secondary via (11+1) % 6 == 0).
        use sjcore::engine::{Query, QueryEngine, QueryValue};
        let q = Query {
            domains: vec!["zone-0".into()],
            values: vec![QueryValue::dim("metric-0")],
        };
        assert!(QueryEngine::new(&c).solve(&q).is_ok());
    }

    #[test]
    fn synthetic_catalog_builds() {
        let ctx = bench_ctx();
        let c = synthetic_catalog(&ctx, 5);
        assert_eq!(c.dataset_names().len(), 5);
    }

    #[test]
    fn workloads_differ_in_density() {
        let a = natural_workload(40_000);
        let b = interp_workload(40_000);
        assert!(b.nodes < a.nodes);
        assert!(b.time_range_secs < a.time_range_secs);
        // Density (rows per second) is constant across the sweep, so
        // per-row cost stays constant and metrics extrapolate linearly.
        let big = interp_workload(80_000);
        assert_eq!(big.time_range_secs, 2 * b.time_range_secs);
    }
}
