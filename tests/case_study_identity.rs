//! The two case-study plans, columnar ≡ rowwise, end to end.
//!
//! `crates/sjcore/tests/columnar_identity.rs` sweeps single operators;
//! this file solves and executes the whole Fig. 5 (rack heat) and Fig. 7
//! (frequency throttling) plans on generated DAT catalogs under the
//! default columnar context and under `ExecCtx::with_rowwise()`, and
//! compares the answers as sorted multisets of bit-exact [`KeyAtom`]
//! rows. The Fig. 5 plan also runs under injected task and shuffle-fetch
//! faults, so every shuffle stage of the columnar plan is re-materialized
//! at least once across the seeds.

use scrubjay::prelude::*;
use sjcore::value::KeyAtom;
use sjdata::{dat1, dat2, Dat1Config, Dat2Config};
use sjdf::{FaultPlan, RetryPolicy};

fn rack_heat_query() -> Query {
    Query::new(
        ["job", "rack"],
        vec![QueryValue::dim("application"), QueryValue::dim("heat")],
    )
}

fn throttle_query() -> Query {
    Query::new(
        ["cpu", "node", "socket"],
        vec![
            QueryValue::dim("frequency"),
            QueryValue::with_units("instructions", "instructions-per-ms"),
            QueryValue::with_units("memory-reads", "memory-reads-per-ms"),
            QueryValue::dim("power"),
            QueryValue::dim("thermal-margin"),
        ],
    )
}

/// A DAT1 session small enough for a debug-build sweep; `seed` also
/// varies the partition count.
fn dat1_cfg(seed: u64) -> Dat1Config {
    Dat1Config {
        racks: 6,
        nodes_per_rack: 6,
        amg_rack_index: 4,
        amg_nodes: 5,
        background_jobs: 5,
        duration_secs: 3600,
        sensor_interval_secs: 120.0,
        seed,
        partitions: 2 + (seed % 3) as usize,
    }
}

fn dat2_cfg() -> Dat2Config {
    Dat2Config {
        nodes: 1,
        cpus_per_node: 2,
        sockets_per_node: 1,
        run_secs: 240,
        gap_secs: 30,
        sample_interval_secs: 3.0,
        ..Dat2Config::default()
    }
}

/// Solve `query` on `catalog`, execute the plan, and return the plan
/// with its answer as a sorted multiset of bit-exact key rows.
fn answer(catalog: &Catalog, query: &Query) -> (Plan, Vec<Vec<KeyAtom>>) {
    let plan = QueryEngine::new(catalog).solve(query).unwrap();
    let mut rows: Vec<Vec<KeyAtom>> = plan
        .execute(catalog, None)
        .unwrap()
        .collect()
        .unwrap()
        .iter()
        .map(|r| r.values().iter().map(Value::key).collect())
        .collect();
    rows.sort();
    (plan, rows)
}

fn fig5(ctx: &ExecCtx, cfg: &Dat1Config) -> (Plan, Vec<Vec<KeyAtom>>) {
    let (catalog, _) = dat1(ctx, cfg).unwrap();
    answer(&catalog, &rack_heat_query())
}

#[test]
fn figure5_plan_columnar_equals_rowwise() {
    for seed in [0x5C8B, 1, 2, 3] {
        let cfg = dat1_cfg(seed);
        let (col_plan, col) = fig5(&ExecCtx::local(), &cfg);
        let (row_plan, row) = fig5(&ExecCtx::local().with_rowwise(), &cfg);
        assert_eq!(col_plan, row_plan, "plans differ at seed {seed}");
        assert!(!col.is_empty(), "empty Fig. 5 answer at seed {seed}");
        assert_eq!(col, row, "columnar != rowwise at seed {seed}");
    }
}

#[test]
fn figure7_plan_columnar_equals_rowwise() {
    for seed in [0xDA72, 7] {
        let cfg = Dat2Config { seed, ..dat2_cfg() };
        let run = |ctx: &ExecCtx| {
            let (catalog, _) = dat2(ctx, &cfg).unwrap();
            answer(&catalog, &throttle_query())
        };
        let (col_plan, col) = run(&ExecCtx::local());
        let (row_plan, row) = run(&ExecCtx::local().with_rowwise());
        assert_eq!(col_plan, row_plan, "plans differ at seed {seed}");
        assert!(col.len() > 100, "thin Fig. 7 answer at seed {seed}");
        assert_eq!(col, row, "columnar != rowwise at seed {seed}");
    }
}

#[test]
fn figure5_plan_survives_injected_faults() {
    let cfg = dat1_cfg(0x5C8B);
    let (_, clean) = fig5(&ExecCtx::local().with_rowwise(), &cfg);
    let mut retries = 0;
    for seed in 0..8u64 {
        let faulty = ExecCtx::local()
            .with_retry(RetryPolicy::retries(6))
            .with_faults(
                FaultPlan::seeded(seed)
                    .with_task_fail_rate(0.05)
                    .with_shuffle_fail_rate(0.05),
            );
        let (_, got) = fig5(&faulty, &cfg);
        assert_eq!(
            got, clean,
            "faulty columnar != clean rowwise at seed {seed}"
        );
        retries += faulty.metrics.failure_report().task_retries;
    }
    assert!(
        retries > 0,
        "the sweep injected no fault that needed a retry"
    );
}

/// Execute `query`'s plan on `catalog` in columnar mode and return the
/// names of the stages it ran and the records its shuffles moved.
fn plan_metrics(ctx: &ExecCtx, catalog: &Catalog, query: &Query) -> (Vec<String>, u64) {
    let plan = QueryEngine::new(catalog).solve(query).unwrap();
    let before = ctx.metrics.report();
    let rows = plan.execute(catalog, None).unwrap().collect().unwrap();
    assert!(!rows.is_empty());
    let delta = ctx.metrics.report().delta_since(&before);
    let shuffled = delta.ops.iter().map(|o| o.metrics.shuffle_records).sum();
    (delta.ops.into_iter().map(|o| o.name).collect(), shuffled)
}

#[test]
fn case_study_plans_take_no_row_detour() {
    let ctx = ExecCtx::local();
    let (catalog, _) = dat1(&ctx, &Dat1Config::default()).unwrap();
    let (stages, shuffled) = plan_metrics(&ctx, &catalog, &rack_heat_query());
    for row_stage in [
        "to_rows",
        "to_columnar",
        "key_by_sensor",
        "key_left",
        "key_right",
        "group_by_key",
        "cogroup",
    ] {
        assert!(
            !stages.iter().any(|s| s == row_stage),
            "Fig. 5 ran a `{row_stage}` stage: {stages:?}"
        );
    }
    // One record per (map task, destination): derive_heat's scatter
    // ships 16 sub-batches (4 × 4), the natural join 15 + 16, and the
    // interpolation join 16 + 16 probe blocks plus 16 match blocks.
    // Shuffling boxed rows, the same plan moved 14,761 records.
    assert_eq!(shuffled, 95, "Fig. 5 shuffle records");

    let ctx = ExecCtx::local();
    let (catalog, _) = dat2(&ctx, &Dat2Config::default()).unwrap();
    let (stages, _) = plan_metrics(&ctx, &catalog, &throttle_query());
    for row_stage in ["to_rows", "to_columnar", "cogroup"] {
        assert!(
            !stages.iter().any(|s| s == row_stage),
            "Fig. 7 ran a `{row_stage}` stage: {stages:?}"
        );
    }
}
