//! Chaos suite: seeded fault schedules driven through real pipelines.
//!
//! The central invariant, checked hundreds of ways here: a pipeline run
//! under any deterministic [`FaultPlan`] either produces output
//! *byte-identical* to the fault-free run (whenever the retry budget
//! suffices) or fails with a typed
//! [`SjdfError::ExhaustedRetries`] — never a panic, a deadlock, or a
//! partial result.
//!
//! Fault schedules are pure functions of their seed, so every test here
//! is exactly reproducible: re-running a failing seed replays the same
//! faults at the same sites. The seeds in `chaos.proptest-regressions`
//! are replayed first (see [`regression_corpus_replays_clean`]).

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;
use sjdf::{ClusterSpec, ExecCtx, FaultPlan, Rdd, RetryPolicy, SjdfError};

/// A fault-free context: the reference every chaotic run is compared to.
/// Always a *fresh* root context — fault plans are shared across clones,
/// so a reference must never be derived from a chaotic context.
fn quiet_ctx() -> ExecCtx {
    ExecCtx::new(ClusterSpec::new(1, 3).unwrap())
}

/// A context with `plan` installed and a retry budget of `attempts`
/// total attempts, with near-zero backoff so tests stay fast.
fn chaos_ctx(plan: FaultPlan, attempts: u32) -> ExecCtx {
    chaos_ctx_on(3, plan, attempts)
}

/// [`chaos_ctx`] on a single node with `cores` cores.
fn chaos_ctx_on(cores: usize, plan: FaultPlan, attempts: u32) -> ExecCtx {
    ExecCtx::new(ClusterSpec::new(1, cores).unwrap())
        .with_retry(RetryPolicy::retries(attempts).with_backoff(
            Duration::from_micros(50),
            2.0,
            Duration::from_millis(2),
        ))
        .with_faults(plan)
}

/// Deterministic key/value records from an xorshift stream.
fn records(seed: u64, n: usize) -> Vec<(u64, u64)> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n as u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 17, i)
        })
        .collect()
}

/// The representative pipeline: narrow ops, a shuffle join, and a
/// grouping shuffle — every fault site the executor has.
fn pipeline(
    ctx: &ExecCtx,
    left: &[(u64, u64)],
    right: &[(u64, u64)],
) -> sjdf::Result<Vec<(u64, Vec<u64>)>> {
    let l = Rdd::parallelize(ctx, left.to_vec(), 4)
        .map(|(k, v)| (k, v * 2))
        .filter(|&(_, v)| v % 3 != 0);
    let r = Rdd::parallelize(ctx, right.to_vec(), 3);
    l.join(&r, 3)
        .map(|(k, (v, w))| (k, v + w))
        .group_by_key(2)
        .collect()
}

/// ISSUE acceptance gate: 100 seeds at task-fail rate 0.2 / retry budget
/// 3. Every recovered run is byte-identical to the fault-free reference
/// (same rows, same order); every non-recovered run is a typed
/// `ExhaustedRetries`. No third outcome exists.
#[test]
fn hundred_seeds_match_fault_free_or_exhaust_cleanly() {
    let left = records(7, 300);
    let right = records(11, 200);
    let expected = pipeline(&quiet_ctx(), &left, &right).unwrap();

    let mut recovered = 0usize;
    let mut exhausted = 0usize;
    let mut injected_total = 0u64;
    for seed in 0..100u64 {
        let plan = FaultPlan::seeded(seed)
            .with_task_fail_rate(0.2)
            .with_shuffle_fail_rate(0.1);
        let ctx = chaos_ctx(plan, 3);
        match pipeline(&ctx, &left, &right) {
            Ok(got) => {
                assert_eq!(got, expected, "seed {seed}: recovered run diverged");
                recovered += 1;
            }
            Err(e @ SjdfError::ExhaustedRetries { .. }) => {
                assert!(
                    e.to_string().contains("exhausted retry budget"),
                    "seed {seed}: ExhaustedRetries lost its stable marker: {e}"
                );
                exhausted += 1;
            }
            Err(e) => panic!("seed {seed}: unexpected error kind: {e}"),
        }
        let report = ctx.failure_report();
        injected_total += report.injected_task_faults + report.injected_shuffle_faults;
        assert!(
            report.task_failures >= report.injected_task_faults,
            "seed {seed}: injected faults not accounted as failures"
        );
    }
    assert_eq!(recovered + exhausted, 100);
    // At rate 0.2 the plans genuinely fire, and budget 3 genuinely
    // recovers most runs — both ends of the invariant are exercised.
    assert!(
        injected_total > 100,
        "plans injected too few faults ({injected_total})"
    );
    assert!(recovered >= 50, "only {recovered}/100 seeds recovered");
    assert!(
        exhausted > 0,
        "no seed exhausted its budget — rate too low to test the error path"
    );
}

/// A poisoned partition fails every attempt: the typed error carries the
/// partition, the attempt count equals the budget, and the failure
/// report shows the exhaustion.
#[test]
fn poisoned_partition_yields_typed_exhausted_retries() {
    let ctx = chaos_ctx(FaultPlan::seeded(1).poison_partition(2), 3);
    let data: Vec<u64> = (0..40).collect();
    let err = Rdd::parallelize(&ctx, data, 4)
        .map(|x| x + 1)
        .collect()
        .unwrap_err();
    match err {
        SjdfError::ExhaustedRetries {
            partition,
            attempts,
            ref last_error,
        } => {
            assert_eq!(partition, 2);
            assert_eq!(attempts, 3);
            assert!(last_error.contains("injected fault:"), "{last_error}");
        }
        other => panic!("expected ExhaustedRetries, got {other}"),
    }
    let report = ctx.failure_report();
    assert_eq!(report.tasks_exhausted, 1);
    assert_eq!(report.task_retries, 2);
    assert!(report.backoff_secs > 0.0);
}

/// With the legacy fail-fast policy (one attempt) an injected fault
/// surfaces exactly as it always did: a `TaskPanic`.
#[test]
fn fail_fast_policy_preserves_legacy_task_panic() {
    let ctx = quiet_ctx().with_faults(FaultPlan::seeded(2).kill_attempt(1, 0));
    let data: Vec<u64> = (0..20).collect();
    let err = Rdd::parallelize(&ctx, data, 2)
        .map(|x| x)
        .collect()
        .unwrap_err();
    assert!(matches!(err, SjdfError::TaskPanic(_)), "got {err}");
}

/// A single transient kill recovers on the second attempt and the
/// recovery is visible in the failure report.
#[test]
fn transient_kill_recovers_and_is_accounted() {
    let data: Vec<u64> = (0..60).collect();
    let expected: Vec<u64> = data.iter().map(|x| x * 7).collect();
    let ctx = chaos_ctx(
        FaultPlan::seeded(3).kill_attempt(1, 0).kill_attempt(3, 0),
        3,
    );
    let got = Rdd::parallelize(&ctx, data, 4)
        .map(|x| x * 7)
        .collect()
        .unwrap();
    assert_eq!(got, expected);
    let report = ctx.failure_report();
    assert_eq!(report.injected_task_faults, 2);
    assert_eq!(report.task_retries, 2);
    assert_eq!(report.tasks_exhausted, 0);
    assert!(!report.is_empty());
}

/// Retried downstream tasks re-fetch persisted parent partitions from
/// the stage cache instead of recomputing the lineage.
#[test]
fn retry_reuses_stage_cache_for_persisted_parents() {
    let data: Vec<(u64, u64)> = records(5, 200);
    let ctx = chaos_ctx(FaultPlan::seeded(4).kill_attempt(0, 0), 4);
    let base = Rdd::parallelize(&ctx, data.clone(), 4)
        .map(|(k, v)| (k % 5, v))
        .persist();
    // Materialize the persisted stage fault-free first, then inject the
    // kill into the consuming shuffle stage.
    let warm = base.count().unwrap();
    assert_eq!(warm, data.len());
    let hits_before = ctx.stage_cache().stats().hits;
    let got = base.reduce_by_key(2, |a, b| a + b).collect().unwrap();
    let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
    for (k, v) in &data {
        *expected.entry(k % 5).or_default() += v;
    }
    let mut got_sorted = got;
    got_sorted.sort();
    assert_eq!(got_sorted, expected.into_iter().collect::<Vec<_>>());
    let stats = ctx.stage_cache().stats();
    assert!(
        stats.hits > hits_before,
        "retry should re-fetch persisted parents from the stage cache \
         (hits {} -> {})",
        hits_before,
        stats.hits
    );
    assert!(ctx.failure_report().task_retries >= 1);
}

/// An injected straggler delay is rescued by speculative re-execution;
/// the result is unaffected.
#[test]
fn injected_delay_is_rescued_by_speculation() {
    let data: Vec<u64> = (0..30).collect();
    let expected: Vec<u64> = data.iter().map(|x| x + 1).collect();
    // Probe for a seed whose schedule delays at least one of the six
    // tasks (decisions are pure, so the probe is exact) without
    // delaying the whole wave.
    let plan = (0..200u64)
        .map(|s| FaultPlan::seeded(s).with_delays(0.12, Duration::from_millis(80)))
        .find(|p| {
            (0..6).any(|part| {
                matches!(
                    p.decide(sjdf::FaultSite::Task, part, 0),
                    Some(sjdf::Fault::Delay(_))
                )
            })
        })
        .expect("some seed under 200 delays a task");
    let retry = RetryPolicy::retries(1).with_speculation(sjdf::SpeculationPolicy {
        multiplier: 4.0,
        min_runtime: Duration::from_millis(15),
        check_interval: Duration::from_millis(2),
    });
    let ctx = quiet_ctx().with_retry(retry).with_faults(plan);
    let got = Rdd::parallelize(&ctx, data, 6)
        .map(|x| x + 1)
        .collect()
        .unwrap();
    assert_eq!(got, expected);
    let report = ctx.failure_report();
    assert!(
        report.injected_delays >= 1,
        "seed injected no delay: {report:?}"
    );
    assert!(
        report.speculative_launched >= 1,
        "no speculative attempt launched against an 80ms straggler: {report:?}"
    );
}

/// Differential shuffle tests: every wide op, run under shuffle-fetch
/// faults with a sufficient budget, agrees with an in-memory reference
/// (`op_laws.rs` style). Fixed seeds keep the schedules reproducible.
#[test]
fn shuffle_ops_match_references_under_fetch_faults() {
    let pairs = records(13, 250);
    let other: Vec<(u64, u64)> = records(29, 150)
        .into_iter()
        .map(|(k, v)| (k, v * 3))
        .collect();

    let mut injected_total = 0u64;
    for seed in [5u64, 17, 40] {
        let plan = FaultPlan::seeded(seed).with_shuffle_fail_rate(0.25);
        let ctx = chaos_ctx(plan, 5);

        // group_by_key vs BTreeMap fold.
        let mut got: Vec<(u64, Vec<u64>)> = Rdd::parallelize(&ctx, pairs.clone(), 4)
            .group_by_key(3)
            .collect()
            .unwrap();
        got.sort();
        let mut reference: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &(k, v) in &pairs {
            reference.entry(k).or_default().push(v);
        }
        assert_eq!(
            got,
            reference.clone().into_iter().collect::<Vec<_>>(),
            "group_by_key seed {seed}"
        );

        // reduce_by_key vs summed reference.
        let mut got: Vec<(u64, u64)> = Rdd::parallelize(&ctx, pairs.clone(), 4)
            .reduce_by_key(3, |a, b| a + b)
            .collect()
            .unwrap();
        got.sort();
        let sums: Vec<(u64, u64)> = reference
            .iter()
            .map(|(&k, vs)| (k, vs.iter().sum()))
            .collect();
        assert_eq!(got, sums, "reduce_by_key seed {seed}");

        // cogroup vs per-key bucket reference.
        type CoGrouped = Vec<(u64, (Vec<u64>, Vec<u64>))>;
        let mut got: CoGrouped = Rdd::parallelize(&ctx, pairs.clone(), 4)
            .cogroup(&Rdd::parallelize(&ctx, other.clone(), 3), 3)
            .collect()
            .unwrap();
        got.sort();
        let mut rref: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &(k, v) in &other {
            rref.entry(k).or_default().push(v);
        }
        let mut keys: Vec<u64> = reference.keys().chain(rref.keys()).copied().collect();
        keys.sort();
        keys.dedup();
        let cog_ref: CoGrouped = keys
            .into_iter()
            .map(|k| {
                (
                    k,
                    (
                        reference.get(&k).cloned().unwrap_or_default(),
                        rref.get(&k).cloned().unwrap_or_default(),
                    ),
                )
            })
            .collect();
        assert_eq!(got, cog_ref, "cogroup seed {seed}");

        // sort_by_key vs a stable sort of the input.
        let got: Vec<(u64, u64)> = Rdd::parallelize(&ctx, pairs.clone(), 4)
            .sort_by_key(3)
            .collect()
            .unwrap();
        let mut sorted = pairs.clone();
        sorted.sort_by_key(|&(k, _)| k);
        assert_eq!(
            {
                let mut g = got.clone();
                g.sort();
                g
            },
            {
                let mut s = sorted.clone();
                s.sort();
                s
            },
            "sort_by_key multiset seed {seed}"
        );
        assert!(
            got.windows(2).all(|w| w[0].0 <= w[1].0),
            "sort_by_key order seed {seed}"
        );

        injected_total += ctx.failure_report().injected_shuffle_faults;
    }
    // The schedules must actually have fired for this to test anything.
    assert!(injected_total >= 1, "no seed injected a shuffle fault");
}

// The property-test satellite: for ANY seeded plan with failure
// probability ≤ 0.5 and ANY retry budget, the pipeline returns exactly
// the fault-free result or a typed error — never a panic, deadlock, or
// partial result.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_fault_plan_yields_exact_result_or_typed_error(
        data in prop::collection::vec((0u64..12, 0u64..100), 1..120),
        extra in prop::collection::vec((0u64..12, 0u64..100), 1..80),
        seed in 0u64..10_000,
        fail in 0.0f64..0.5,
        shuffle_fail in 0.0f64..0.4,
        attempts in 1u32..5,
    ) {
        let expected = pipeline(&quiet_ctx(), &data, &extra).unwrap();
        let plan = FaultPlan::seeded(seed)
            .with_task_fail_rate(fail)
            .with_shuffle_fail_rate(shuffle_fail);
        let ctx = chaos_ctx(plan, attempts);
        match pipeline(&ctx, &data, &extra) {
            Ok(got) => prop_assert_eq!(got, expected),
            Err(SjdfError::ExhaustedRetries { attempts: a, .. }) => {
                // Only a multi-attempt budget can exhaust.
                prop_assert!(attempts > 1);
                prop_assert_eq!(a, attempts);
            }
            Err(SjdfError::TaskPanic(msg)) => {
                // Fail-fast budget: the panic must be the injected one.
                prop_assert_eq!(attempts, 1);
                prop_assert!(msg.contains("injected fault:"), "{}", msg);
            }
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
        }
    }
}

/// Replays the committed seed corpus (`chaos.proptest-regressions`):
/// fault-plan seeds that once found bugs stay green forever. The file
/// format mirrors proptest's regression files — `cc <16-hex-seed> # note`
/// — and the CI chaos job fails if the file goes missing.
#[test]
fn regression_corpus_replays_clean() {
    let corpus = include_str!("chaos.proptest-regressions");
    let left = records(7, 300);
    let right = records(11, 200);
    let expected = pipeline(&quiet_ctx(), &left, &right).unwrap();
    let mut replayed = 0usize;
    for line in corpus.lines() {
        let Some(rest) = line.strip_prefix("cc ") else {
            continue;
        };
        let hex = rest.split_whitespace().next().unwrap_or("");
        let seed =
            u64::from_str_radix(hex, 16).unwrap_or_else(|_| panic!("bad corpus line: {line}"));
        let plan = FaultPlan::seeded(seed)
            .with_task_fail_rate(0.2)
            .with_shuffle_fail_rate(0.1);
        match pipeline(&chaos_ctx(plan, 3), &left, &right) {
            Ok(got) => assert_eq!(got, expected, "corpus seed {seed:#x} diverged"),
            Err(e @ SjdfError::ExhaustedRetries { .. }) => {
                assert!(e.to_string().contains("exhausted retry budget"));
            }
            Err(e) => panic!("corpus seed {seed:#x}: unexpected error {e}"),
        }
        replayed += 1;
    }
    assert!(
        replayed >= 3,
        "corpus should hold at least three seeds, found {replayed}"
    );
}

/// CI artifact hook: when `CHAOS_SEED` is set, run the standard pipeline
/// under that seed and (when `CHAOS_REPORT` is also set) write the
/// resulting [`FailureReport`] as JSON for upload. Without the env vars
/// this runs seed 0 and asserts the report serializes.
#[test]
fn failure_report_artifact_round_trips() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64);
    let left = records(7, 300);
    let right = records(11, 200);
    let plan = FaultPlan::seeded(seed)
        .with_task_fail_rate(0.2)
        .with_shuffle_fail_rate(0.1);
    let ctx = chaos_ctx(plan, 3);
    let outcome = pipeline(&ctx, &left, &right);
    let report = ctx.failure_report();
    let json = serde_json::to_string_pretty(&report).expect("FailureReport serializes");
    let back: sjdf::FailureReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
    if let Ok(path) = std::env::var("CHAOS_REPORT") {
        let artifact = format!(
            "{{\"seed\":{seed},\"recovered\":{},\"report\":{json}}}\n",
            outcome.is_ok()
        );
        std::fs::write(&path, artifact).expect("write chaos artifact");
    }
}

// ---------------------------------------------------------------------------
// Span-tree invariants under chaos (sjtrace)
// ---------------------------------------------------------------------------

/// Run the standard pipeline under `seed` with tracing enabled and
/// return the drained events plus whether the run recovered.
fn traced_chaos_run(seed: u64) -> (Vec<sjdf::trace::SpanEvent>, bool) {
    let left = records(7, 120);
    let right = records(11, 80);
    let plan = FaultPlan::seeded(seed)
        .with_task_fail_rate(0.2)
        .with_shuffle_fail_rate(0.1);
    let ctx = chaos_ctx(plan, 3);
    ctx.tracer().enable();
    let outcome = pipeline(&ctx, &left, &right);
    let recovered = match outcome {
        Ok(_) => true,
        Err(SjdfError::ExhaustedRetries { .. }) => false,
        Err(e) => panic!("seed {seed}: unexpected error kind: {e}"),
    };
    (ctx.tracer().drain(), recovered)
}

/// Satellite invariant sweep: for every fault seed, the exported trace
/// is a well-formed tree (`end >= start`, children nested inside their
/// parents, consistent roots), the Chrome export parses back through the
/// typed structs, and the job/wave/task span vocabulary is present.
#[test]
fn traced_chaos_sweep_produces_well_formed_span_trees() {
    let mut recovered_runs = 0usize;
    for seed in 0..15u64 {
        let (events, recovered) = traced_chaos_run(seed);
        assert!(!events.is_empty(), "seed {seed}: no spans recorded");
        sjdf::trace::validate(&events)
            .unwrap_or_else(|e| panic!("seed {seed}: invalid span tree: {e}"));
        // A failed run may exhaust inside the shuffle's map stage before
        // any bucket fetch, so the full vocabulary is only guaranteed on
        // recovered runs.
        let required: &[&str] = if recovered {
            recovered_runs += 1;
            &["job", "wave", "task", "shuffle_fetch"]
        } else {
            &["job", "wave", "task"]
        };
        for name in required {
            assert!(
                events.iter().any(|e| &e.name == name),
                "seed {seed}: no `{name}` span in trace"
            );
        }
        // The Chrome export round-trips through the typed parser.
        let json = sjdf::trace::export::chrome_trace_json(
            &events,
            &std::collections::BTreeMap::new(),
            "chaos",
        );
        let back: sjdf::trace::export::ChromeTrace = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("seed {seed}: exported trace does not parse: {e}"));
        assert_eq!(
            back.traceEvents.iter().filter(|e| e.ph != "M").count(),
            events.len(),
            "seed {seed}: export dropped events"
        );
    }
    assert!(
        recovered_runs > 0,
        "sweep never recovered; shuffle_fetch coverage untested"
    );
}

/// Killed attempts (injected faults and exhausted budgets) appear as
/// failed `task` spans, with at least one failed span per recorded task
/// failure — a chaos run's trace never hides a kill.
#[test]
fn killed_attempts_close_their_spans_as_failed() {
    let mut saw_failures = false;
    for seed in 0..15u64 {
        let left = records(7, 120);
        let right = records(11, 80);
        let plan = FaultPlan::seeded(seed)
            .with_task_fail_rate(0.2)
            .with_shuffle_fail_rate(0.1);
        let ctx = chaos_ctx(plan, 3);
        ctx.tracer().enable();
        let _ = pipeline(&ctx, &left, &right);
        let report = ctx.failure_report();
        let events = ctx.tracer().drain();
        let failed_tasks = events
            .iter()
            .filter(|e| e.name == "task" && e.failed)
            .count() as u64;
        assert_eq!(
            failed_tasks, report.task_failures,
            "seed {seed}: {failed_tasks} failed task spans vs {} recorded task failures",
            report.task_failures
        );
        if report.injected_task_faults > 0 {
            saw_failures = true;
            assert!(
                events.iter().any(|e| e.name == "fault_injected"),
                "seed {seed}: injected faults left no fault_injected event"
            );
        }
        if report.task_retries > 0 {
            assert!(
                events.iter().any(|e| e.name == "retry"),
                "seed {seed}: retries left no retry event"
            );
        }
    }
    assert!(saw_failures, "sweep never injected a fault; rates too low");
}

/// Tracing is observational only: for the same seed, a traced run and an
/// untraced run produce identical results and identical failure
/// accounting.
#[test]
fn tracing_does_not_perturb_chaos_outcomes() {
    let left = records(7, 120);
    let right = records(11, 80);
    for seed in [0u64, 3, 9] {
        let mk_plan = || {
            FaultPlan::seeded(seed)
                .with_task_fail_rate(0.2)
                .with_shuffle_fail_rate(0.1)
        };
        let untraced_ctx = chaos_ctx(mk_plan(), 3);
        let untraced = pipeline(&untraced_ctx, &left, &right);
        let traced_ctx = chaos_ctx(mk_plan(), 3);
        traced_ctx.tracer().enable();
        let traced = pipeline(&traced_ctx, &left, &right);
        match (untraced, traced) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "seed {seed}: traced run diverged"),
            (
                Err(SjdfError::ExhaustedRetries { partition: p1, .. }),
                Err(SjdfError::ExhaustedRetries { partition: p2, .. }),
            ) => {
                assert_eq!(p1, p2, "seed {seed}: different partition exhausted");
            }
            (a, b) => panic!("seed {seed}: outcomes diverged: {a:?} vs {b:?}"),
        }
        assert_eq!(
            untraced_ctx.failure_report().injected_task_faults,
            traced_ctx.failure_report().injected_task_faults,
            "seed {seed}: tracing changed fault injection"
        );
    }
}

/// A permanent failure does not cut its wave short, so which attempts run
/// — and which faults the plan injects — is a function of the plan alone:
/// one core and four cores give the same outcome and the same failure
/// accounting for every seed.
#[test]
fn failure_accounting_is_independent_of_thread_count() {
    let left = records(7, 120);
    let right = records(11, 80);
    let run = |seed: u64, cores: usize| {
        let plan = FaultPlan::seeded(seed)
            .with_task_fail_rate(0.2)
            .with_shuffle_fail_rate(0.1);
        let ctx = chaos_ctx_on(cores, plan, 3);
        let outcome = match pipeline(&ctx, &left, &right) {
            Ok(rows) => Ok(rows),
            Err(SjdfError::ExhaustedRetries { partition, .. }) => Err(partition),
            Err(e) => panic!("seed {seed}: unexpected error kind: {e}"),
        };
        (outcome, ctx.failure_report())
    };
    let mut exhausted = 0usize;
    for seed in 0..40u64 {
        let serial = run(seed, 1);
        assert_eq!(
            serial,
            run(seed, 4),
            "seed {seed}: the thread count changed the outcome or its accounting"
        );
        exhausted += usize::from(serial.0.is_err());
    }
    assert!(exhausted > 0, "no seed exhausted its budget");
}
