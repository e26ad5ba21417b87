//! `sjrouted` — the ScrubJay shard router daemon.
//!
//! Two modes:
//!
//! - **Serve** (`--workers`): front a fleet of `sjserved` workers, each
//!   holding a catalog shard, behind one address speaking the same
//!   binary wire protocol. Queries whose dataset cover lives on one shard
//!   are proxied (with single-retry failover to a replica); covers that
//!   span shards are scatter-gathered and merged by the query's shared
//!   domain columns. Worker health is heartbeated, dead workers are
//!   marked down, and catalog-epoch changes flush the router's merged
//!   result cache.
//! - **Partition** (`--partition`): split a catalog directory into
//!   per-shard directories using the same consistent-hash ring the
//!   router routes with, so `sjserved --data shard-K/` workers hold
//!   exactly what the router expects.
//!
//! ```text
//! sjrouted --workers H1:P1,H2:P2,... [--addr HOST:PORT] [--threads N]
//!          [--queue N] [--timeout-ms MS] [--heartbeat-ms MS]
//!          [--probe-timeout-ms MS] [--markdown-after N] [--limit N]
//!          [--window SECS] [--step SECS]
//! sjrouted --partition OUT_DIR --data SRC_DIR --shards N [--replicas R]
//! ```

use sjcore::engine::EngineConfig;
use sjroute::{partition_dir, Router, RouterConfig};
use sjserve::scheduler::SchedulerConfig;
use sjserve::server::serve;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workers: Vec<String>,
    addr: String,
    threads: usize,
    queue: usize,
    timeout_ms: u64,
    heartbeat_ms: u64,
    probe_timeout_ms: u64,
    markdown_after: u64,
    limit: usize,
    window_secs: f64,
    step_secs: f64,
    partition: Option<String>,
    data: String,
    shards: usize,
    replicas: usize,
}

const USAGE: &str = "\
sjrouted — ScrubJay shard router

USAGE:
  sjrouted --workers H1:P1,H2:P2,... [OPTIONS]
  sjrouted --partition OUT_DIR --data SRC_DIR --shards N [--replicas R]

SERVE OPTIONS:
  --workers LIST    comma-separated worker addresses, one per shard, in
                    shard order (shard 0 first — the order the
                    partitioner used)
  --addr HOST:PORT  listen address (default 127.0.0.1:7228; use port 0
                    to pick a free port, printed on startup)
  --threads N       concurrent route executions (default 4)
  --queue N         admission queue capacity across tenants (default 32)
  --timeout-ms MS   default per-request deadline (default 30000)
  --heartbeat-ms MS worker health-probe period (default 2000)
  --probe-timeout-ms MS
                    how long each step of a health probe or catalog
                    fetch may block (default 500, at least 1)
  --markdown-after N
                    consecutive failed probes/calls before a worker is
                    marked down (default 2)
  --limit N         default rows per response (default 1000)
  --window SECS     interpolation-join window W for routing-level plans;
                    must match the workers' --window (default 120)
  --step SECS       explode-continuous step; must match the workers'
                    --step (default 60)

PARTITION OPTIONS:
  --partition DIR   write per-shard catalog directories DIR/shard-K/
  --data DIR        source directory of <name>.csv + <name>.schema.json
  --shards N        number of shards to split into
  --replicas R      extra copies of each dataset on the next R shards in
                    ring order (default 1; 0 disables failover)

PROTOCOL:
  identical to sjserved (sjwire binary frames, columnar codec) —
  clients cannot tell a router from a worker except by `stats`
  verbs: query | explain | append | stats | health | catalog | shutdown
  (shutdown from loopback peers only; appends reach every live worker
  holding the dataset)
";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workers: Vec::new(),
        addr: "127.0.0.1:7228".into(),
        threads: 4,
        queue: 32,
        timeout_ms: 30_000,
        heartbeat_ms: 2000,
        probe_timeout_ms: 500,
        markdown_after: 2,
        limit: 1000,
        window_secs: 120.0,
        step_secs: 60.0,
        partition: None,
        data: String::new(),
        shards: 0,
        replicas: 1,
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
            "--workers" => {
                args.workers = value("--workers")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--addr" => args.addr = value("--addr")?,
            "--threads" => args.threads = num("--threads", value("--threads")?)?,
            "--queue" => args.queue = num("--queue", value("--queue")?)?,
            "--timeout-ms" => args.timeout_ms = num("--timeout-ms", value("--timeout-ms")?)?,
            "--heartbeat-ms" => {
                args.heartbeat_ms = num("--heartbeat-ms", value("--heartbeat-ms")?)?
            }
            "--probe-timeout-ms" => {
                args.probe_timeout_ms = num("--probe-timeout-ms", value("--probe-timeout-ms")?)?
            }
            "--markdown-after" => {
                args.markdown_after = num("--markdown-after", value("--markdown-after")?)?
            }
            "--limit" => args.limit = num("--limit", value("--limit")?)?,
            "--window" => args.window_secs = num("--window", value("--window")?)?,
            "--step" => args.step_secs = num("--step", value("--step")?)?,
            "--partition" => args.partition = Some(value("--partition")?),
            "--data" => args.data = value("--data")?,
            "--shards" => args.shards = num("--shards", value("--shards")?)?,
            "--replicas" => args.replicas = num("--replicas", value("--replicas")?)?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if let Some(_out) = &args.partition {
        if args.data.is_empty() {
            return Err("--partition requires --data SRC_DIR".into());
        }
        if args.shards == 0 {
            return Err("--partition requires --shards N (at least 1)".into());
        }
        return Ok(args);
    }
    if args.workers.is_empty() {
        return Err("--workers (or --partition) is required".into());
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if args.heartbeat_ms == 0 {
        return Err("--heartbeat-ms must be at least 1".into());
    }
    if args.probe_timeout_ms == 0 {
        return Err("--probe-timeout-ms must be at least 1".into());
    }
    Ok(args)
}

fn run_partition(args: &Args, out: &str) -> Result<(), String> {
    let dirs = partition_dir(&args.data, out, args.shards, args.replicas)
        .map_err(|e| format!("partition {}: {e}", args.data))?;
    for (i, dir) in dirs.iter().enumerate() {
        eprintln!(
            "shard-{i}: {} dataset(s) -> {}",
            dir.datasets.len(),
            dir.path.display()
        );
        for name in &dir.datasets {
            eprintln!("  {name}");
        }
    }
    println!("{out}");
    Ok(())
}

fn run_serve(args: &Args) -> Result<(), String> {
    let config = RouterConfig {
        scheduler: SchedulerConfig {
            workers: args.threads,
            max_queue: args.queue,
            default_timeout: Duration::from_millis(args.timeout_ms),
        },
        engine: EngineConfig {
            interp_window_secs: args.window_secs,
            explode_step_secs: args.step_secs,
            ..EngineConfig::default()
        },
        default_limit: args.limit,
        heartbeat: Duration::from_millis(args.heartbeat_ms),
        probe_timeout: Duration::from_millis(args.probe_timeout_ms),
        markdown_after: args.markdown_after,
        ..RouterConfig::default()
    };
    let router = Router::new(args.workers.clone(), config)?;
    eprintln!(
        "Fronting {} worker(s); {} dataset(s) plannable",
        args.workers.len(),
        router.topology().all_datasets().len()
    );
    let handle = serve(router, &args.addr).map_err(|e| e.to_string())?;
    eprintln!("sjrouted listening on {}", handle.addr);
    let report = handle.wait();
    eprintln!("--- final router metrics ---\n{}", report.render());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(args) => {
            let result = match args.partition.clone() {
                Some(out) => run_partition(&args, &out),
                None => run_serve(&args),
            };
            match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
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
    fn parses_a_serve_command_line() {
        let args = parse_args(&argv(
            "--workers 127.0.0.1:7227,127.0.0.1:7229 --addr 0.0.0.0:9000 \
             --threads 8 --queue 64 --timeout-ms 5000 --heartbeat-ms 500 \
             --probe-timeout-ms 200 --markdown-after 3 --limit 50",
        ))
        .unwrap();
        assert_eq!(args.workers, vec!["127.0.0.1:7227", "127.0.0.1:7229"]);
        assert_eq!(args.addr, "0.0.0.0:9000");
        assert_eq!(args.threads, 8);
        assert_eq!(args.queue, 64);
        assert_eq!(args.timeout_ms, 5000);
        assert_eq!(args.heartbeat_ms, 500);
        assert_eq!(args.probe_timeout_ms, 200);
        assert_eq!(args.markdown_after, 3);
        assert_eq!(args.limit, 50);
        assert!(args.partition.is_none());
    }

    #[test]
    fn parses_a_partition_command_line() {
        let args = parse_args(&argv(
            "--partition /tmp/shards --data /tmp/catalog --shards 3 --replicas 2",
        ))
        .unwrap();
        assert_eq!(args.partition.as_deref(), Some("/tmp/shards"));
        assert_eq!(args.data, "/tmp/catalog");
        assert_eq!(args.shards, 3);
        assert_eq!(args.replicas, 2);
    }

    #[test]
    fn partition_requires_source_and_shard_count() {
        assert!(parse_args(&argv("--partition /tmp/out")).is_err());
        assert!(parse_args(&argv("--partition /tmp/out --data d")).is_err());
        assert!(parse_args(&argv("--partition /tmp/out --data d --shards 0")).is_err());
        assert!(parse_args(&argv("--partition /tmp/out --data d --shards 2")).is_ok());
    }

    #[test]
    fn serve_requires_workers_and_sane_knobs() {
        assert!(parse_args(&argv("--addr :0")).is_err());
        assert!(parse_args(&argv("--workers a:1 --threads 0")).is_err());
        assert!(parse_args(&argv("--workers a:1 --heartbeat-ms 0")).is_err());
        assert!(parse_args(&argv("--workers a:1,b:2")).is_ok());
    }

    #[test]
    fn rejects_a_zero_probe_timeout() {
        let err = match parse_args(&argv("--workers a:1 --probe-timeout-ms 0")) {
            Err(e) => e,
            Ok(_) => panic!("a zero probe timeout parsed"),
        };
        assert!(err.contains("--probe-timeout-ms"), "{err}");
        assert!(parse_args(&argv("--workers a:1 --probe-timeout-ms 1")).is_ok());
    }

    #[test]
    fn rejects_unknown_flags_and_bad_numbers() {
        assert!(parse_args(&argv("--workers a:1 --frobnicate")).is_err());
        assert!(parse_args(&argv("--workers a:1 --threads many")).is_err());
        assert!(parse_args(&argv("--workers")).is_err());
    }
}
