//! End-to-end integration test of the second case study (§7.3):
//! CPU frequency throttling impact on node power, Figures 6 and 7.
//!
//! Raw counters (with resets) go in; the engine must chain the
//! count-rate derivation, the CPU-spec join, and the active-frequency
//! derivation (Figure 7), and the derived series must show the Figure 6
//! signatures: mg.C at full frequency / low instruction rate / heavy
//! memory traffic; prime95 throttled / high instruction rate.

use scrubjay::prelude::*;
use sjdata::{dat2, Dat2Config};

fn small_cfg() -> Dat2Config {
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

#[test]
fn engine_finds_the_figure7_sequence() {
    let ctx = ExecCtx::local();
    let (catalog, _) = dat2(&ctx, &small_cfg()).unwrap();
    let engine = QueryEngine::new(&catalog);
    let plan = engine.solve(&throttle_query()).unwrap();

    let mut loads = plan.loads();
    loads.sort();
    assert_eq!(loads, vec!["cpu_specs", "ipmi", "papi"]);

    let ops: Vec<&str> = plan.ops().iter().map(|s| s.op_name()).collect();
    // Two rate derivations (PAPI and IPMI), the natural join with the
    // static CPU specs, and the active-frequency derivation.
    assert_eq!(
        ops.iter().filter(|o| **o == "derive_rate").count(),
        2,
        "{ops:?}"
    );
    assert!(ops.contains(&"natural_join"), "{ops:?}");
    assert!(ops.contains(&"derive_active_frequency"), "{ops:?}");
    // Active frequency can only be derived after the rates and the base
    // frequency are present.
    let rate_pos = ops.iter().position(|o| *o == "derive_rate").unwrap();
    let freq_pos = ops
        .iter()
        .position(|o| *o == "derive_active_frequency")
        .unwrap();
    assert!(freq_pos > rate_pos);

    // The whole tree, pinned:
    //
    //   derive_active_frequency
    //   └─ natural_join
    //      ├─ interpolation_join(W=120s)
    //      │  ├─ derive_count_rate(per 0.001s)
    //      │  │  └─ load(ipmi)
    //      │  └─ derive_count_rate(per 0.001s)
    //      │     └─ load(papi)
    //      └─ load(cpu_specs)
    //
    // Its interpolation join is anchored on `compute-node`, which the
    // query asks for, so the planner's fold tie-break keeps the
    // left-deep fold and the spec join stays above the PAPI×IPMI join.
    assert_eq!(
        plan.fingerprint(),
        0x265a_173d_0ac0_12cc,
        "{}",
        plan.describe()
    );
}

#[test]
fn derived_series_shows_the_figure6_signatures() {
    let ctx = ExecCtx::local();
    let (catalog, truth) = dat2(&ctx, &small_cfg()).unwrap();
    let plan = QueryEngine::new(&catalog).solve(&throttle_query()).unwrap();
    let result = plan.execute(&catalog, None).unwrap();
    let schema = result.schema().clone();
    let rows = result.collect().unwrap();
    assert!(rows.len() > 100);

    let time_col = schema.domain_field_on("time").unwrap().name.clone();
    let time_i = schema.index_of(&time_col).unwrap();
    let freq_i = schema.index_of("active_frequency").unwrap();
    let instr_i = schema.index_of("instructions_rate").unwrap();
    let reads_i = schema.index_of("mem_reads_rate").unwrap();
    let margin_i = schema.index_of("thermal_margin").unwrap();

    // Mean of a column over one run window.
    let run_mean = |run: usize, col: usize| -> f64 {
        let span = truth.runs[run];
        let vals: Vec<f64> = rows
            .iter()
            .filter(|r| r.get(time_i).as_time().is_some_and(|t| span.contains(t)))
            .filter_map(|r| r.get(col).as_f64())
            .collect();
        assert!(!vals.is_empty(), "no samples in run {run}");
        vals.iter().sum::<f64>() / vals.len() as f64
    };

    let base = small_cfg().base_mhz;
    for run in 0..3 {
        let f = run_mean(run, freq_i);
        assert!(f > 0.95 * base, "mg.C run {run} should not throttle: {f}");
    }
    for run in 3..6 {
        let f = run_mean(run, freq_i);
        assert!(
            f < 0.75 * base,
            "prime95 run {run} should throttle aggressively: {f}"
        );
    }
    // prime95 retires instructions much faster despite throttling.
    assert!(run_mean(3, instr_i) > 2.0 * run_mean(0, instr_i));
    // mg.C dominates memory traffic.
    assert!(run_mean(0, reads_i) > 3.0 * run_mean(3, reads_i));
    // prime95 runs much hotter (smaller thermal margin).
    assert!(run_mean(3, margin_i) < run_mean(0, margin_i) - 10.0);
}

#[test]
fn counter_resets_do_not_leak_into_rates() {
    // The generators inject counter resets; no derived rate may be
    // negative (the rate derivation must drop reset windows).
    let ctx = ExecCtx::local();
    let (catalog, _) = dat2(&ctx, &small_cfg()).unwrap();
    let plan = QueryEngine::new(&catalog).solve(&throttle_query()).unwrap();
    let result = plan.execute(&catalog, None).unwrap();
    let schema = result.schema().clone();
    let instr_i = schema.index_of("instructions_rate").unwrap();
    let reads_i = schema.index_of("mem_reads_rate").unwrap();
    for r in result.collect().unwrap() {
        for col in [instr_i, reads_i] {
            if let Some(v) = r.get(col).as_f64() {
                assert!(v >= 0.0, "negative rate {v}");
            }
        }
    }
}

#[test]
fn units_constrained_queries_deliver_the_requested_units() {
    let ctx = ExecCtx::local();
    let (catalog, _) = dat2(&ctx, &small_cfg()).unwrap();
    let plan = QueryEngine::new(&catalog).solve(&throttle_query()).unwrap();
    let result = plan.execute(&catalog, None).unwrap();
    let f = result.schema().field("instructions_rate").unwrap();
    assert_eq!(f.semantics.units, "instructions-per-ms");
    let f = result.schema().field("mem_reads_rate").unwrap();
    assert_eq!(f.semantics.units, "memory-reads-per-ms");
}
