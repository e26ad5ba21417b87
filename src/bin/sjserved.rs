//! `sjserved` — the ScrubJay query service daemon.
//!
//! Loads a catalog directory once at startup, then serves the framed
//! binary wire protocol (`sjwire`) over TCP until a `shutdown` request
//! from a loopback peer (or SIGINT via process kill) arrives. See `crates/sjserve` for the protocol and the
//! scheduling model.
//!
//! ```text
//! sjserved --data DIR [--addr HOST:PORT] [--workers N] [--queue N]
//!          [--timeout-ms MS] [--window SECS] [--step SECS]
//!          [--cache-mb MB] [--limit N] [--retries N]
//!          [--chaos-seed SEED] [--chaos-fail-rate P]
//!          [--trace-dir DIR] [--trace-slow-ms MS]
//! ```

use scrubjay::catalog_io::load_catalog_dir;
use scrubjay::prelude::*;
use sjcore::engine::EngineConfig;
use sjserve::{serve_until_shutdown, QueryService, SchedulerConfig, ServiceConfig};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    data: String,
    addr: String,
    workers: usize,
    queue: usize,
    timeout_ms: u64,
    window_secs: f64,
    step_secs: f64,
    cache_mb: usize,
    stage_cache_mb: u64,
    limit: usize,
    retries: u32,
    chaos_seed: Option<u64>,
    chaos_fail_rate: f64,
    trace_dir: Option<String>,
    trace_slow_ms: u64,
    shard_id: Option<String>,
    stream_window_secs: f64,
    allowed_lateness_secs: f64,
    stream_horizon_secs: f64,
    idle_source_timeout_secs: f64,
    max_subscriptions: usize,
}

const USAGE: &str = "\
sjserved — ScrubJay query service

USAGE:
  sjserved --data DIR [OPTIONS]

OPTIONS:
  --data DIR        directory of <name>.csv + <name>.schema.json pairs
  --addr HOST:PORT  listen address (default 127.0.0.1:7227; use port 0
                    to pick a free port, printed on startup)
  --workers N       concurrent query executions (default 4)
  --queue N         admission queue capacity; requests beyond it are
                    rejected with a structured error (default 32)
  --timeout-ms MS   default per-request deadline (default 30000)
  --window SECS     interpolation-join window W (default 120)
  --step SECS       explode-continuous step (default 60)
  --cache-mb MB     result-cache byte budget (default 64)
  --stage-cache-mb MB
                    persisted-partition stage-cache budget (default 256)
  --limit N         default rows per response (default 1000)
  --retries N       task attempts before a query degrades (default 3;
                    1 restores fail-fast execution)
  --chaos-seed SEED install a deterministic fault-injection plan seeded
                    with SEED (testing only): task attempts fail at
                    --chaos-fail-rate and are retried per --retries;
                    queries that exhaust the budget answer `degraded`
                    while the daemon stays up
  --chaos-fail-rate P
                    probability an attempt is killed under --chaos-seed
                    (default 0.2)
  --trace-dir DIR   enable span tracing and persist a Chrome trace
                    (<query_id>.trace.json, loadable in Perfetto or
                    chrome://tracing) for every degraded/failed or slow
                    query
  --trace-slow-ms MS
                    latency at which a query counts as slow for
                    --trace-dir persistence (default 1000)
  --shard-id NAME   label this worker's catalog shard; reported in
                    health responses so a router (sjrouted) and humans
                    can tell shards apart
  --stream-window SECS
                    tumbling-window width for standing queries
                    (default 60)
  --allowed-lateness SECS
                    how far behind the watermark appended rows may
                    arrive and still be accepted; bounds window
                    re-emission (default 120)
  --stream-horizon SECS
                    event-time slack evaluated around each window so
                    rate lookback and interpolation see their
                    neighbors; must cover --window plus the slowest
                    source cadence (default 300)
  --idle-source-timeout SECS
                    a source whose clock lags the leading source by
                    more than this stops pinning the watermark until
                    it catches up, so one silent source cannot freeze
                    window finality (default 0 = disabled)
  --max-subscriptions N
                    standing queries one tenant may hold at once
                    (default 8)

PROTOCOL:
  sjwire binary frames: a Hello/HelloAck exchange pins the wire version
  and the columnar codec, then each request and each response is one
  CRC-checked frame (a JSON envelope plus columnar row sections); drive
  it with `sjq --server` or sjserve::Client
  verbs: query | explain | append | stats | health | catalog | shutdown
  (shutdown from loopback peers only)
  a `query` with \"subscribe\":true registers a standing query: window
  frames are pushed on the same connection as `append` batches arrive
";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        data: String::new(),
        addr: "127.0.0.1:7227".into(),
        workers: 4,
        queue: 32,
        timeout_ms: 30_000,
        window_secs: 120.0,
        step_secs: 60.0,
        cache_mb: 64,
        stage_cache_mb: 256,
        limit: 1000,
        retries: 3,
        chaos_seed: None,
        chaos_fail_rate: 0.2,
        trace_dir: None,
        trace_slow_ms: 1000,
        shard_id: None,
        stream_window_secs: 60.0,
        allowed_lateness_secs: 120.0,
        stream_horizon_secs: 300.0,
        idle_source_timeout_secs: 0.0,
        max_subscriptions: 8,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        fn num<T: std::str::FromStr>(name: &str, raw: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            raw.parse().map_err(|e| format!("bad {name}: {e}"))
        }
        match flag.as_str() {
            "--data" => args.data = value("--data")?,
            "--addr" => args.addr = value("--addr")?,
            "--workers" => args.workers = num("--workers", value("--workers")?)?,
            "--queue" => args.queue = num("--queue", value("--queue")?)?,
            "--timeout-ms" => args.timeout_ms = num("--timeout-ms", value("--timeout-ms")?)?,
            "--window" => args.window_secs = num("--window", value("--window")?)?,
            "--step" => args.step_secs = num("--step", value("--step")?)?,
            "--cache-mb" => args.cache_mb = num("--cache-mb", value("--cache-mb")?)?,
            "--stage-cache-mb" => {
                args.stage_cache_mb = num("--stage-cache-mb", value("--stage-cache-mb")?)?
            }
            "--limit" => args.limit = num("--limit", value("--limit")?)?,
            "--retries" => args.retries = num("--retries", value("--retries")?)?,
            "--chaos-seed" => args.chaos_seed = Some(num("--chaos-seed", value("--chaos-seed")?)?),
            "--chaos-fail-rate" => {
                args.chaos_fail_rate = num("--chaos-fail-rate", value("--chaos-fail-rate")?)?
            }
            "--trace-dir" => args.trace_dir = Some(value("--trace-dir")?),
            "--trace-slow-ms" => {
                args.trace_slow_ms = num("--trace-slow-ms", value("--trace-slow-ms")?)?
            }
            "--shard-id" => args.shard_id = Some(value("--shard-id")?),
            "--stream-window" => {
                args.stream_window_secs = num("--stream-window", value("--stream-window")?)?
            }
            "--allowed-lateness" => {
                args.allowed_lateness_secs =
                    num("--allowed-lateness", value("--allowed-lateness")?)?
            }
            "--stream-horizon" => {
                args.stream_horizon_secs = num("--stream-horizon", value("--stream-horizon")?)?
            }
            "--idle-source-timeout" => {
                args.idle_source_timeout_secs =
                    num("--idle-source-timeout", value("--idle-source-timeout")?)?
            }
            "--max-subscriptions" => {
                args.max_subscriptions = num("--max-subscriptions", value("--max-subscriptions")?)?
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.data.is_empty() {
        return Err("--data is required".into());
    }
    if args.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if args.retries == 0 {
        return Err("--retries must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&args.chaos_fail_rate) {
        return Err("--chaos-fail-rate must be within [0, 1]".into());
    }
    // `contains` keeps NaN rejected (a bare `<=` would wave it through).
    if !(f64::MIN_POSITIVE..).contains(&args.stream_window_secs)
        || args.allowed_lateness_secs < 0.0
        || args.stream_horizon_secs < 0.0
        || !(0.0..).contains(&args.idle_source_timeout_secs)
    {
        return Err(
            "--stream-window must be positive; lateness/horizon/idle-timeout non-negative".into(),
        );
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let ctx = ExecCtx::local();
    let catalog = load_catalog_dir(&ctx, &args.data).map_err(|e| e.to_string())?;
    eprintln!("Loaded datasets: {:?}", catalog.dataset_names());

    let config = ServiceConfig {
        scheduler: SchedulerConfig {
            workers: args.workers,
            max_queue: args.queue,
            default_timeout: Duration::from_millis(args.timeout_ms),
        },
        result_cache_bytes: args.cache_mb << 20,
        stage_cache_bytes: args.stage_cache_mb << 20,
        default_limit: args.limit,
        engine: EngineConfig {
            interp_window_secs: args.window_secs,
            explode_step_secs: args.step_secs,
            ..EngineConfig::default()
        },
        retry: Some(sjdf::RetryPolicy::retries(args.retries)),
        faults: args.chaos_seed.map(|seed| {
            eprintln!(
                "CHAOS: injecting task faults (seed {seed}, rate {}, {} attempts)",
                args.chaos_fail_rate, args.retries
            );
            sjdf::FaultPlan::seeded(seed).with_task_fail_rate(args.chaos_fail_rate)
        }),
        trace_dir: args.trace_dir.as_ref().map(|d| {
            eprintln!(
                "TRACE: persisting degraded/slow (>={}ms) query traces to {d}",
                args.trace_slow_ms
            );
            std::path::PathBuf::from(d)
        }),
        trace_slow_ms: args.trace_slow_ms,
        shard_id: args.shard_id.clone(),
        stream: sjstream::StreamConfig {
            window_secs: args.stream_window_secs,
            allowed_lateness_secs: args.allowed_lateness_secs,
            horizon_secs: args.stream_horizon_secs,
            eval_parts: 1,
            idle_source_timeout_secs: args.idle_source_timeout_secs,
        },
        max_subscriptions_per_tenant: args.max_subscriptions,
    };
    let service = QueryService::new(ctx, catalog, config);
    serve_until_shutdown(service, &args.addr).map_err(|e| e.to_string())?;
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(args) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjserve::Verb;

    #[test]
    fn usage_names_every_verb() {
        let listed: Vec<&str> = USAGE
            .lines()
            .find_map(|line| line.trim().strip_prefix("verbs:"))
            .expect("USAGE has a `verbs:` line")
            .split('|')
            .map(str::trim)
            .collect();
        for verb in Verb::ALL {
            let name = serde_json::to_string(&verb).unwrap();
            assert!(
                listed.contains(&name.trim_matches('"')),
                "{name} not in {listed:?}"
            );
        }
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(&argv(
            "--data /tmp/x --addr 0.0.0.0:9000 --workers 8 --queue 64 \
             --timeout-ms 5000 --window 300 --step 30 --cache-mb 128 --limit 50",
        ))
        .unwrap();
        assert_eq!(args.data, "/tmp/x");
        assert_eq!(args.addr, "0.0.0.0:9000");
        assert_eq!(args.workers, 8);
        assert_eq!(args.queue, 64);
        assert_eq!(args.timeout_ms, 5000);
        assert_eq!(args.window_secs, 300.0);
        assert_eq!(args.step_secs, 30.0);
        assert_eq!(args.cache_mb, 128);
        assert_eq!(args.limit, 50);
        assert_eq!(args.retries, 3);
        assert_eq!(args.chaos_seed, None);
    }

    #[test]
    fn parses_chaos_flags() {
        let args = parse_args(&argv(
            "--data d --retries 5 --chaos-seed 42 --chaos-fail-rate 0.3",
        ))
        .unwrap();
        assert_eq!(args.retries, 5);
        assert_eq!(args.chaos_seed, Some(42));
        assert_eq!(args.chaos_fail_rate, 0.3);
    }

    #[test]
    fn parses_trace_flags() {
        let args = parse_args(&argv(
            "--data d --trace-dir /tmp/traces --trace-slow-ms 250",
        ))
        .unwrap();
        assert_eq!(args.trace_dir.as_deref(), Some("/tmp/traces"));
        assert_eq!(args.trace_slow_ms, 250);
        let defaults = parse_args(&argv("--data d")).unwrap();
        assert_eq!(defaults.trace_dir, None);
        assert_eq!(defaults.trace_slow_ms, 1000);
        assert!(parse_args(&argv("--data d --trace-slow-ms fast")).is_err());
    }

    #[test]
    fn parses_shard_id() {
        let args = parse_args(&argv("--data d --shard-id shard-a")).unwrap();
        assert_eq!(args.shard_id.as_deref(), Some("shard-a"));
        assert_eq!(parse_args(&argv("--data d")).unwrap().shard_id, None);
        assert!(parse_args(&argv("--data d --shard-id")).is_err());
    }

    #[test]
    fn parses_stream_flags() {
        let args = parse_args(&argv(
            "--data d --stream-window 30 --allowed-lateness 90 \
             --stream-horizon 240 --max-subscriptions 2",
        ))
        .unwrap();
        assert_eq!(args.stream_window_secs, 30.0);
        assert_eq!(args.allowed_lateness_secs, 90.0);
        assert_eq!(args.stream_horizon_secs, 240.0);
        assert_eq!(args.max_subscriptions, 2);
        let idle = parse_args(&argv("--data d --idle-source-timeout 45")).unwrap();
        assert_eq!(idle.idle_source_timeout_secs, 45.0);
        assert!(parse_args(&argv("--data d --idle-source-timeout -1")).is_err());
        assert!(parse_args(&argv("--data d --idle-source-timeout nan")).is_err());
        let defaults = parse_args(&argv("--data d")).unwrap();
        assert_eq!(defaults.stream_window_secs, 60.0);
        assert_eq!(defaults.max_subscriptions, 8);
        assert!(parse_args(&argv("--data d --stream-window 0")).is_err());
        assert!(parse_args(&argv("--data d --allowed-lateness -1")).is_err());
    }

    #[test]
    fn rejects_bad_chaos_flags() {
        assert!(parse_args(&argv("--data d --retries 0")).is_err());
        assert!(parse_args(&argv("--data d --chaos-fail-rate 1.5")).is_err());
        assert!(parse_args(&argv("--data d --chaos-seed nope")).is_err());
    }

    #[test]
    fn requires_data_and_sane_workers() {
        assert!(parse_args(&argv("--addr :0")).is_err());
        assert!(parse_args(&argv("--data d --workers 0")).is_err());
        assert!(parse_args(&argv("--data d")).is_ok());
    }

    #[test]
    fn rejects_unknown_flags_and_bad_numbers() {
        assert!(parse_args(&argv("--data d --frobnicate")).is_err());
        assert!(parse_args(&argv("--data d --workers many")).is_err());
        assert!(parse_args(&argv("--data d --timeout-ms -5")).is_err());
    }
}
