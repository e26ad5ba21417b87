//! Service-level chaos: concurrent clients querying a service whose
//! execution context is killing task attempts under a seeded
//! [`FaultPlan`].
//!
//! What must hold, whatever the fault schedule does:
//! - no request hangs past its deadline;
//! - every answer is `ok` (retries recovered) or `degraded` (budget
//!   exhausted) — never a worker panic or a half-built result;
//! - `degraded` results never enter the result cache;
//! - the daemon keeps answering after queries degrade.

use std::time::{Duration, Instant};

use sjcore::catalog::Catalog;
use sjcore::row::Row;
use sjcore::schema::{FieldDef, Schema};
use sjcore::semantics::FieldSemantics;
use sjcore::units::time::{TimeSpan, Timestamp};
use sjcore::value::Value;
use sjcore::SjDataset;
use sjdf::{ClusterSpec, ExecCtx, FaultPlan, FaultSite, RetryPolicy};
use sjserve::protocol::{codes, QuerySpec, Request, Verb};
use sjserve::scheduler::SchedulerConfig;
use sjserve::service::{QueryService, ServiceConfig};

/// The DAT-1 shaped catalog (job log, node layout, rack temps), wrapped
/// with `ctx` so the service's shared fault plan reaches every stage.
fn catalog(ctx: &ExecCtx) -> Catalog {
    let mut c = Catalog::default_hpc();

    let joblog_schema = Schema::new(vec![
        FieldDef::new("job", FieldSemantics::domain("job", "job-id")),
        FieldDef::new("job_name", FieldSemantics::value("application", "app-name")),
        FieldDef::new(
            "nodelist",
            FieldSemantics::domain("compute-node", "node-list"),
        ),
        FieldDef::new("elapsed", FieldSemantics::value("time", "t-seconds")),
        FieldDef::new("timespan", FieldSemantics::domain("time", "timespan")),
    ])
    .unwrap();
    let joblog_rows = vec![
        Row::new(vec![
            Value::str("1001"),
            Value::str("AMG"),
            Value::list([Value::str("cab1"), Value::str("cab2")]),
            Value::Float(240.0),
            Value::Span(TimeSpan::new(
                Timestamp::from_secs(0),
                Timestamp::from_secs(240),
            )),
        ]),
        Row::new(vec![
            Value::str("1002"),
            Value::str("LULESH"),
            Value::list([Value::str("cab3")]),
            Value::Float(120.0),
            Value::Span(TimeSpan::new(
                Timestamp::from_secs(60),
                Timestamp::from_secs(180),
            )),
        ]),
    ];
    c.register_dataset(
        "job_queue_log",
        SjDataset::from_rows(ctx, joblog_rows, joblog_schema, "job_queue_log", 2),
    )
    .unwrap();

    let layout_schema = Schema::new(vec![
        FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
        FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
    ])
    .unwrap();
    let layout_rows = vec![
        Row::new(vec![Value::str("cab1"), Value::str("rack17")]),
        Row::new(vec![Value::str("cab2"), Value::str("rack17")]),
        Row::new(vec![Value::str("cab3"), Value::str("rack18")]),
    ];
    c.register_dataset(
        "node_layout",
        SjDataset::from_rows(ctx, layout_rows, layout_schema, "node_layout", 2),
    )
    .unwrap();

    let temps_schema = Schema::new(vec![
        FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
        FieldDef::new(
            "location",
            FieldSemantics::domain("rack-location", "location-name"),
        ),
        FieldDef::new("aisle", FieldSemantics::domain("aisle", "aisle-name")),
        FieldDef::new("time", FieldSemantics::domain("time", "datetime")),
        FieldDef::new("temp", FieldSemantics::value("temperature", "celsius")),
    ])
    .unwrap();
    let mut temps_rows = Vec::new();
    for rack in ["rack17", "rack18"] {
        for t in [0i64, 120, 240] {
            for (aisle, base) in [("hot", 35.0), ("cold", 18.0)] {
                temps_rows.push(Row::new(vec![
                    Value::str(rack),
                    Value::str("top"),
                    Value::str(aisle),
                    Value::Time(Timestamp::from_secs(t)),
                    Value::Float(base + t as f64 / 100.0),
                ]));
            }
        }
    }
    c.register_dataset(
        "rack_temps",
        SjDataset::from_rows(ctx, temps_rows, temps_schema, "rack_temps", 2),
    )
    .unwrap();
    c
}

fn rack_heat_spec() -> QuerySpec {
    QuerySpec::new(["job", "rack"], ["application", "heat"])
}

fn fast_retry(attempts: u32) -> RetryPolicy {
    RetryPolicy::retries(attempts).with_backoff(
        Duration::from_micros(50),
        2.0,
        Duration::from_millis(2),
    )
}

/// A fault schedule that injects transient task failures (~20% of first
/// attempts) but can never exhaust a 3-attempt budget: probed so that no
/// partition fails all three attempts. Decisions are pure, so the probe
/// is exact for every stage of every query.
fn recoverable_plan() -> FaultPlan {
    (0..500u64)
        .map(|s| FaultPlan::seeded(s).with_task_fail_rate(0.2))
        .find(|p| {
            let fails =
                |part: usize, attempt: u32| p.decide(FaultSite::Task, part, attempt).is_some();
            let some_fault = (0..4).any(|part| fails(part, 0));
            let none_exhaust =
                (0..64).all(|part| !(fails(part, 0) && fails(part, 1) && fails(part, 2)));
            some_fault && none_exhaust
        })
        .expect("a recoverable 20% fault schedule exists below seed 500")
}

/// Eight concurrent clients against a service killing ~20% of task
/// attempts: nobody hangs, nobody sees a non-ok/non-degraded outcome,
/// and the retry traffic reaches the service metrics.
#[test]
fn eight_clients_under_task_faults_never_hang() {
    let ctx = ExecCtx::new(ClusterSpec::new(1, 2).unwrap());
    let cat = catalog(&ctx);
    let service = QueryService::new(
        ctx,
        cat,
        ServiceConfig {
            scheduler: SchedulerConfig {
                workers: 2,
                max_queue: 64,
                default_timeout: Duration::from_secs(10),
            },
            // Force every request to actually execute (and so to roll
            // its faults) instead of riding the result cache.
            result_cache_bytes: 0,
            retry: Some(fast_retry(3)),
            faults: Some(recoverable_plan()),
            ..ServiceConfig::default()
        },
    );

    let timeout = Duration::from_millis(8000);
    let handles: Vec<_> = (0..8)
        .map(|client| {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                for round in 0..3 {
                    let mut req = Request::query(
                        &format!("c{client}-r{round}"),
                        &format!("tenant{}", client % 3),
                        rack_heat_spec(),
                    );
                    req.timeout_ms = Some(timeout.as_millis() as u64);
                    let started = Instant::now();
                    let resp = service.handle(req);
                    let elapsed = started.elapsed();
                    outcomes.push((resp, elapsed));
                }
                outcomes
            })
        })
        .collect();

    let mut rows_seen: Option<Vec<Vec<String>>> = None;
    for handle in handles {
        for (resp, elapsed) in handle.join().expect("client thread panicked") {
            assert!(
                elapsed < timeout + Duration::from_secs(2),
                "request {} outlived its deadline ({elapsed:?})",
                resp.id
            );
            assert_ne!(
                resp.code(),
                Some(codes::TIMEOUT),
                "request {} timed out",
                resp.id
            );
            assert!(
                resp.is_ok() || resp.is_degraded(),
                "request {} ended {:?}: {:?}",
                resp.id,
                resp.status,
                resp.error
            );
            if resp.is_ok() {
                let result = resp.result.expect("ok response carries rows");
                // Recovered runs are byte-identical to each other.
                match &rows_seen {
                    Some(seen) => assert_eq!(&result.rows, seen, "recovered rows diverged"),
                    None => rows_seen = Some(result.rows),
                }
            }
        }
    }
    assert!(rows_seen.is_some(), "no client ever got a recovered result");

    let stats = service.shutdown();
    assert_eq!(stats.requests_total, 24);
    assert!(
        stats.engine_task_retries >= 1,
        "the fault plan never forced a retry: {stats:?}"
    );
    // The probed plan cannot exhaust a 3-attempt budget.
    assert_eq!(stats.engine_tasks_exhausted, 0);
    assert_eq!(stats.requests_degraded, 0);
    assert_eq!(stats.timeouts, 0);
}

/// A poisoned partition degrades every query — structured `degraded`
/// responses carrying the failure report, nothing cached — and the
/// service keeps serving: once the faults are lifted (shared context
/// state, as `sjserved --chaos-seed` would at startup), the same query
/// succeeds and only then enters the result cache.
#[test]
fn degraded_queries_bypass_the_result_cache_and_the_daemon_survives() {
    let ctx = ExecCtx::new(ClusterSpec::new(1, 2).unwrap());
    let cat = catalog(&ctx);
    let service = QueryService::new(
        ctx.clone(),
        cat,
        ServiceConfig {
            result_cache_bytes: 8 << 20,
            retry: Some(fast_retry(3)),
            faults: Some(FaultPlan::seeded(9).poison_partition(0)),
            ..ServiceConfig::default()
        },
    );

    for round in 0..3 {
        let resp = service.handle(Request::query(&format!("d{round}"), "", rack_heat_spec()));
        assert!(
            resp.is_degraded(),
            "round {round}: {:?} {:?}",
            resp.status,
            resp.error
        );
        assert_eq!(resp.code(), Some(codes::DEGRADED));
        let failure = resp
            .failure
            .expect("degraded responses carry the failure report");
        assert!(failure.tasks_exhausted >= 1, "{failure:?}");
        assert!(
            resp.error
                .as_ref()
                .unwrap()
                .message
                .contains("exhausted retry budget"),
            "{:?}",
            resp.error
        );
        let stats = service.stats_report();
        assert_eq!(
            stats.result_cache_entries, 0,
            "a degraded result reached the result cache"
        );
    }

    // Health stays answerable while queries degrade.
    let health = service.handle(Request::bare("h", Verb::Health));
    assert!(health.is_ok());

    // Lift the faults — the execution context is shared, so this is the
    // service-level equivalent of restarting without --chaos-seed.
    ctx.set_faults(None);
    let resp = service.handle(Request::query("after", "", rack_heat_spec()));
    assert!(resp.is_ok(), "post-chaos query failed: {:?}", resp.error);
    assert!(!resp.result.as_ref().unwrap().rows.is_empty());

    let stats = service.shutdown();
    assert_eq!(stats.requests_degraded, 3);
    assert!(stats.engine_tasks_exhausted >= 3);
    assert_eq!(
        stats.result_cache_entries, 1,
        "the healthy result should be the only cached entry"
    );
    // The shared context's stage cache is reported as it stands.
    let stage = ctx.stage_cache().stats();
    assert_eq!(
        (stats.stage_cache_entries, stats.stage_cache_bytes),
        (stage.entries, stage.bytes)
    );
    assert_eq!(
        (stats.stage_cache_hits, stats.stage_cache_misses),
        (stage.hits, stage.misses)
    );
    assert_eq!(stats.stage_cache_evictions, stage.evictions);
    let streaming = stats.streaming.expect("worker stats carry streaming");
    assert_eq!(streaming.cache_invalidations, stage.invalidations);
}
