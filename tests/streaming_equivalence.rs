//! Golden incremental-equivalence suite (the tentpole's headline
//! guarantee): for each of five seeded disarray append schedules, every
//! window a standing query emits must be **byte-identical** to solving
//! the same query from scratch over the full accepted prefix at that
//! emission's watermark — under both partition representations.
//!
//! The cold reference re-executes the standing plan over the entire
//! accepted prefix ([`StreamEngine::cold_window`]); the emission was
//! produced from the horizon-widened window slice. Agreement therefore
//! proves the incremental maintenance path (slice evaluation + cached
//! windows + tag invalidation) loses nothing relative to batch solving.

use sjcore::engine::{EngineConfig, Query, QueryEngine, QueryValue};
use sjdata::{disarray_schedule, stream_catalog, Disarray};
use sjdf::ExecCtx;
use sjstream::{StreamConfig, StreamEngine};

/// The standing derive-rate + interpolation-join query: instruction
/// rates from cumulative counters, joined with interpolated coolant
/// temperatures, per node over time.
fn standing_query() -> Query {
    Query::new(
        ["compute-node", "time"],
        vec![
            QueryValue::with_units("instructions", "instructions-per-ms"),
            QueryValue::dim("temperature"),
        ],
    )
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        window_secs: 60.0,
        allowed_lateness_secs: 120.0,
        // Must cover the interpolation window (120 s default) plus the
        // slowest sampling cadence in any schedule.
        horizon_secs: 300.0,
        eval_parts: 1,
        ..StreamConfig::default()
    }
}

/// Replay one schedule and assert equivalence on every emission.
/// Returns (emissions, re_emissions).
fn run_schedule(kind: Disarray, rowwise: bool) -> (usize, usize) {
    let ctx = if rowwise {
        ExecCtx::local().with_rowwise()
    } else {
        ExecCtx::local()
    };
    let catalog = stream_catalog(&ctx).expect("stream catalog");
    let mut engine = StreamEngine::new(&ctx, catalog, stream_config(), EngineConfig::default());
    engine
        .subscribe("q-equiv", "tenant-a", &standing_query())
        .expect("subscribe");

    let label = format!("{} rowwise={rowwise}", kind.name());
    let (mut emissions, mut re_emissions) = (0usize, 0usize);
    for (i, batch) in disarray_schedule(kind, 42, 30).iter().enumerate() {
        let out = engine.append(batch).expect("append");
        assert!(
            out.failures.is_empty(),
            "[{label}] append {i} tore down the subscription: {:?}",
            out.failures
        );
        for e in &out.emissions {
            assert!(
                !e.degraded,
                "[{label}] window {} degraded without fault injection: {:?}",
                e.window_id, e.error
            );
            let (cold_cols, cold_rows) = engine
                .cold_window("q-equiv", e.window_id)
                .expect("cold solve");
            assert_eq!(
                e.columns, cold_cols,
                "[{label}] window {} columns diverged",
                e.window_id
            );
            assert_eq!(
                e.rows, cold_rows,
                "[{label}] window {} ({} → {}) diverged from the cold batch solve \
                 at watermark {} (append {i}, re_emission={})",
                e.window_id, e.start_us, e.end_us, e.watermark_us, e.re_emission
            );
            emissions += 1;
            re_emissions += e.re_emission as usize;
        }
    }
    assert!(
        emissions >= 3,
        "[{label}] expected at least 3 emissions, got {emissions}"
    );
    (emissions, re_emissions)
}

fn run_all_modes(kind: Disarray) {
    for rowwise in [false, true] {
        run_schedule(kind, rowwise);
    }
}

#[test]
fn in_order_schedule_matches_cold_solves() {
    run_all_modes(Disarray::InOrder);
}

#[test]
fn clock_skewed_sources_match_cold_solves() {
    run_all_modes(Disarray::ClockSkew);
}

#[test]
fn late_and_duplicated_samples_match_cold_solves() {
    run_all_modes(Disarray::LateDuplicates);
}

#[test]
fn counter_wrap_mid_stream_matches_cold_solves() {
    run_all_modes(Disarray::CounterWrap);
}

#[test]
fn rack_skew_matches_cold_solves() {
    run_all_modes(Disarray::RackSkew);
}

/// The disarray shapes must actually exercise the policies they name.
#[test]
fn disarray_policies_are_exercised() {
    let ctx = ExecCtx::local();
    let catalog = stream_catalog(&ctx).unwrap();
    let mut engine = StreamEngine::new(&ctx, catalog, stream_config(), EngineConfig::default());
    engine
        .subscribe("q-equiv", "tenant-a", &standing_query())
        .unwrap();
    for batch in disarray_schedule(Disarray::LateDuplicates, 42, 30) {
        engine.append(&batch).unwrap();
    }
    let c = engine.counters();
    assert!(
        c.rows_duplicate_dropped > 0,
        "late_duplicates schedule produced no duplicates: {c:?}"
    );
    assert!(
        c.window_re_emissions > 0,
        "late data never re-emitted a window: {c:?}"
    );
    assert!(c.window_emissions > 0);

    // Clock skew holds the watermark back: with the coolant clock three
    // steps behind, strictly fewer windows ripen than in order.
    let ctx2 = ExecCtx::local();
    let mut skewed = StreamEngine::new(
        &ctx2,
        stream_catalog(&ctx2).unwrap(),
        stream_config(),
        EngineConfig::default(),
    );
    skewed.subscribe("q", "t", &standing_query()).unwrap();
    for batch in disarray_schedule(Disarray::ClockSkew, 42, 30) {
        skewed.append(&batch).unwrap();
    }
    assert!(skewed.watermark_us() < engine.watermark_us());
}

/// The standing query's plan, pinned by fingerprint: its interpolation
/// join is anchored on the queried `compute-node`, so the planner's fold
/// tie-break leaves it alone. The fingerprint keys plan, result and
/// route caches, so a change here is a visible change.
#[test]
fn standing_query_plan_fingerprint_is_pinned() {
    let ctx = ExecCtx::local();
    let catalog = stream_catalog(&ctx).expect("stream catalog");
    let plan = QueryEngine::new(&catalog)
        .solve(&standing_query())
        .expect("standing query solves");
    assert_eq!(
        plan.fingerprint(),
        0x9221_8760_b3af_837d,
        "{}",
        plan.describe()
    );
}
