//! `sjq` — the ScrubJay query command-line tool.
//!
//! Loads a directory of annotated CSV datasets (see
//! [`scrubjay::catalog_io`]), solves a dimension-level query with the
//! derivation engine, and prints the plan and/or the derived dataset.
//! With `--server ADDR` the query is sent to a running `sjserved`
//! instead of executing locally.
//!
//! ```text
//! sjq --data DIR --domains job,rack --values application,heat
//!     [--units heat=delta-celsius] [--plan-only] [--window SECS]
//!     [--step SECS] [--out FILE.csv] [--limit N] [--json]
//!     [--trace FILE.json]
//! sjq --server HOST:PORT --domains ... --values ... [--tenant NAME]
//!     [--timeout-ms MS] [--json] [--trace FILE.json]
//! sjq --router HOST:PORT ...          # same wire protocol; --router is
//!                                     # an alias for --server against a
//!                                     # sharded sjrouted deployment
//! sjq --server HOST:PORT --health     # fleet/shard health, no query
//! sjq --server HOST:PORT --stats      # service or router counters
//! ```
//!
//! Exit codes: 0 success, 1 execution failure, 2 usage error,
//! 3 no derivation exists, 4 service unavailable (queue full, timeout,
//! connection refused). Errors print one structured line on stderr:
//! `error: code=<code> <message>`.

use scrubjay::catalog_io::load_catalog_dir;
use scrubjay::prelude::*;
use sjcore::engine::EngineConfig;
use sjcore::wrappers::{unwrap_csv, write_csv_file};
use sjcore::SjError;
use sjserve::protocol::QueryResult;
use sjserve::{Client, ClientError, QuerySpec, ValueSpec};
use std::collections::HashMap;
use std::process::ExitCode;

struct Args {
    data: String,
    server: Option<String>,
    tenant: String,
    timeout_ms: Option<u64>,
    json: bool,
    domains: Vec<String>,
    values: Vec<String>,
    units: HashMap<String, String>,
    plan_only: bool,
    window_secs: Option<f64>,
    step_secs: Option<f64>,
    out: Option<String>,
    limit: usize,
    trace: Option<String>,
    health: bool,
    stats: bool,
    follow: bool,
    max_frames: usize,
}

/// A failure with a stable machine-readable code (mirrors the service's
/// [`sjserve::protocol::codes`]) that maps onto the process exit code.
struct CliError {
    code: String,
    message: String,
}

impl CliError {
    fn new(code: &str, message: impl Into<String>) -> Self {
        CliError {
            code: code.into(),
            message: message.into(),
        }
    }

    fn failed(message: impl Into<String>) -> Self {
        Self::new("failed", message)
    }

    fn exit_code(&self) -> u8 {
        match self.code.as_str() {
            "usage" | "bad_request" => 2,
            "no_solution" => 3,
            "queue_full" | "timeout" | "shutdown" | "unavailable" => 4,
            _ => 1,
        }
    }
}

impl From<ClientError> for CliError {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::Server(body) => CliError {
                code: body.code,
                message: body.message,
            },
            ClientError::Io(e) => Self::new("unavailable", format!("server unreachable: {e}")),
            ClientError::Protocol(m) => Self::failed(format!("protocol error: {m}")),
        }
    }
}

const USAGE: &str = "\
sjq — ScrubJay query tool

USAGE:
  sjq --data DIR --domains D1,D2 --values V1,V2 [OPTIONS]
  sjq --server HOST:PORT --domains D1,D2 --values V1,V2 [OPTIONS]
  sjq --server HOST:PORT --health | --stats

OPTIONS:
  --data DIR        directory of <name>.csv + <name>.schema.json pairs
  --server ADDR     send the query to a running sjserved instead of
                    executing locally
  --router ADDR     alias for --server: a sharded sjrouted deployment
                    speaks the same protocol
  --health          print the service's (or fleet's) health report:
                    status, datasets, shard id, catalog epoch, stage
                    cache occupancy
  --stats           print the service's (or router's) metrics snapshot;
                    both modes lead with the negotiated wire version
                    and payload codec
  --tenant NAME     fair-queueing bucket for --server mode
  --timeout-ms MS   per-request deadline for --server mode
  --domains LIST    comma-separated domain dimensions of interest
  --values LIST     comma-separated value dimensions of interest
  --units V=U,...   units constraints for value dimensions
  --plan-only       print the derivation sequence without executing it
  --window SECS     interpolation-join window W (default 120)
  --step SECS       explode-continuous step (default 60)
  --out FILE        write the derived dataset to FILE as CSV
  --limit N         rows to print when no --out is given (default 20)
  --json            print the result as one JSON object on stdout
  --trace FILE      trace the query: write Chrome trace-event JSON to
                    FILE (load in Perfetto or chrome://tracing) and
                    print the span timeline on stderr; in --server mode
                    the trace is recorded server-side and returned with
                    the response
  --follow          --server mode only: register the query as a
                    *standing* query and stream its window results as
                    appends arrive, instead of answering once. Each
                    frame prints as CSV (or one JSON line with --json)
                    until the server closes the connection
  --max-frames N    with --follow, exit successfully after N frames
                    (default 0 = follow until the connection ends)

EXIT CODES:
  0 ok   1 execution failed   2 usage   3 no solution   4 unavailable
";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        data: String::new(),
        server: None,
        tenant: String::new(),
        timeout_ms: None,
        json: false,
        domains: Vec::new(),
        values: Vec::new(),
        units: HashMap::new(),
        plan_only: false,
        window_secs: None,
        step_secs: None,
        out: None,
        limit: 20,
        trace: None,
        health: false,
        stats: false,
        follow: false,
        max_frames: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--data" => args.data = value("--data")?,
            "--server" => args.server = Some(value("--server")?),
            "--router" => args.server = Some(value("--router")?),
            "--health" => args.health = true,
            "--stats" => args.stats = true,
            "--tenant" => args.tenant = value("--tenant")?,
            "--timeout-ms" => {
                args.timeout_ms = Some(
                    value("--timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad --timeout-ms: {e}"))?,
                )
            }
            "--json" => args.json = true,
            "--domains" => {
                args.domains = value("--domains")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--values" => {
                args.values = value("--values")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--units" => {
                for pair in value("--units")?.split(',') {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("bad --units entry `{pair}` (want dim=units)"))?;
                    args.units
                        .insert(k.trim().to_string(), v.trim().to_string());
                }
            }
            "--plan-only" => args.plan_only = true,
            "--window" => {
                args.window_secs = Some(
                    value("--window")?
                        .parse()
                        .map_err(|e| format!("bad --window: {e}"))?,
                )
            }
            "--step" => {
                args.step_secs = Some(
                    value("--step")?
                        .parse()
                        .map_err(|e| format!("bad --step: {e}"))?,
                )
            }
            "--out" => args.out = Some(value("--out")?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--follow" => args.follow = true,
            "--max-frames" => {
                args.max_frames = value("--max-frames")?
                    .parse()
                    .map_err(|e| format!("bad --max-frames: {e}"))?
            }
            "--limit" => {
                args.limit = value("--limit")?
                    .parse()
                    .map_err(|e| format!("bad --limit: {e}"))?
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.health && args.stats {
        return Err("--health and --stats are mutually exclusive".into());
    }
    if args.health || args.stats {
        if args.server.is_none() {
            return Err("--health/--stats need --server or --router".into());
        }
        return Ok(args);
    }
    if args.data.is_empty() && args.server.is_none() {
        return Err("--data or --server is required".into());
    }
    if args.domains.is_empty() || args.values.is_empty() {
        return Err("--domains and --values are required".into());
    }
    if args.follow && args.server.is_none() {
        return Err("--follow needs --server (standing queries live on a service)".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), CliError> {
    match &args.server {
        Some(addr) => run_remote(args, addr),
        None => run_local(args),
    }
}

/// Execute against a running `sjserved` over the framed binary wire
/// protocol (sjwire).
fn run_remote(args: &Args, addr: &str) -> Result<(), CliError> {
    let spec = QuerySpec {
        domains: args.domains.clone(),
        values: args
            .values
            .iter()
            .map(|v| match args.units.get(v) {
                Some(u) => ValueSpec::with_units(v, u),
                None => ValueSpec::dim(v),
            })
            .collect(),
        window_secs: args.window_secs,
        step_secs: args.step_secs,
        limit: Some(args.limit),
    };
    let mut client = Client::connect_as(addr, &args.tenant)
        .map_err(|e| CliError::new("unavailable", format!("connect {addr}: {e}")))?;

    if args.health {
        let response = client.health()?;
        if args.json {
            println!("{}", encode(&response)?);
            return Ok(());
        }
        let report = response
            .health
            .ok_or_else(|| CliError::failed("ok response without a health payload"))?;
        if let Some(wire) = &response.wire {
            println!("wire: v{} ({})", wire.wire_version, wire.codec);
        }
        print!("{}", report.render());
        return Ok(());
    }
    if args.stats {
        let response = client.stats()?;
        if args.json {
            println!("{}", encode(&response)?);
            return Ok(());
        }
        if let Some(wire) = &response.wire {
            println!("wire: v{} ({})", wire.wire_version, wire.codec);
        }
        // Workers answer with a service report, routers with a router
        // report; render whichever came back.
        if let Some(report) = &response.router_stats {
            print!("{}", report.render());
        } else if let Some(report) = &response.stats {
            print!("{}", report.render());
        } else {
            return Err(CliError::failed("ok response without a stats payload"));
        }
        return Ok(());
    }

    if args.follow {
        return run_follow(args, client, spec);
    }

    if args.plan_only {
        let response = client.explain(spec)?;
        if args.json {
            println!("{}", encode(&response)?);
            return Ok(());
        }
        let plan = response
            .plan
            .ok_or_else(|| CliError::failed("ok response without a plan payload"))?;
        eprintln!(
            "Plan (fingerprint {:016x}, cache {}):\n{}",
            plan.fingerprint,
            if plan.plan_cache_hit { "hit" } else { "miss" },
            plan.plan_text
        );
        println!("{}", plan.plan_json);
        return Ok(());
    }

    let response = if args.trace.is_some() {
        client.query_traced(spec, args.timeout_ms)?
    } else {
        client.query(spec, args.timeout_ms)?
    };
    if let (Some(path), Some(trace)) = (&args.trace, &response.trace) {
        if let Some(json) = &trace.chrome_json {
            std::fs::write(path, json)
                .map_err(|e| CliError::failed(format!("write {path}: {e}")))?;
            eprintln!(
                "Trace {} ({} events) written to {path}",
                trace.query_id, trace.span_count
            );
        }
        eprint!("{}", trace.timeline);
    }
    if args.json {
        println!("{}", encode(&response)?);
        return Ok(());
    }
    let result = response
        .result
        .ok_or_else(|| CliError::failed("ok response without a result payload"))?;
    eprintln!(
        "{} rows in {:.1}ms (plan cache {}, result cache {})",
        result.row_count,
        result.elapsed_ms,
        if result.plan_cache_hit { "hit" } else { "miss" },
        if result.result_cache_hit {
            "hit"
        } else {
            "miss"
        },
    );
    let rendered = render_csv(&result.columns, &result.rows);
    match &args.out {
        Some(path) => {
            std::fs::write(path, rendered)
                .map_err(|e| CliError::failed(format!("write {path}: {e}")))?;
            eprintln!("Wrote {} rows to {path}", result.rows.len());
        }
        None => {
            print!("{rendered}");
            if result.truncated {
                eprintln!(
                    "... {} rows total (raise --limit or use --out to save all)",
                    result.row_count
                );
            }
        }
    }
    Ok(())
}

/// `--follow`: register the query as a standing query and print every
/// pushed window frame until the server hangs up (or `--max-frames`).
fn run_follow(args: &Args, mut client: Client, spec: QuerySpec) -> Result<(), CliError> {
    let ack = client.subscribe(spec)?;
    if let Some(sub) = &ack.subscription {
        eprintln!(
            "Subscribed {} ({}s windows, {}s allowed lateness); waiting for appends...",
            sub.query_id, sub.window_secs, sub.allowed_lateness_secs
        );
    }
    let mut frames = 0usize;
    loop {
        let frame = match client.next_frame() {
            Ok(frame) => frame,
            // A server shutdown closes the connection; that ends the
            // stream, it is not a client failure.
            Err(ClientError::Protocol(m)) if m.contains("closed the connection") => {
                eprintln!("stream ended: {m}");
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        };
        if let Some(error) = &frame.error {
            if !frame.is_degraded() {
                // The subscription was torn down (e.g. the derivation
                // search failed); surface the structured code.
                return Err(CliError::new(&error.code, error.message.clone()));
            }
        }
        let Some(window) = &frame.window else {
            continue;
        };
        if args.json {
            println!("{}", encode(&frame)?);
        } else {
            eprintln!(
                "window {} [{} .. {}) watermark={}{}{}",
                window.window_id,
                window.start_us,
                window.end_us,
                window.watermark_us,
                if window.re_emission {
                    " (re-emission)"
                } else {
                    ""
                },
                if window.degraded { " DEGRADED" } else { "" },
            );
            print!("{}", render_csv(&window.columns, &window.rows));
        }
        frames += 1;
        if args.max_frames > 0 && frames >= args.max_frames {
            return Ok(());
        }
    }
}

/// Drain the local context's span trace: Chrome trace-event JSON to
/// `path`, text timeline to stderr.
fn dump_local_trace(ctx: &ExecCtx, path: &str) -> Result<(), CliError> {
    let tracer = ctx.tracer();
    let events = tracer.drain();
    let json = sjdf::trace::export::chrome_trace_json(&events, &tracer.thread_names(), "sjq");
    std::fs::write(path, json).map_err(|e| CliError::failed(format!("write {path}: {e}")))?;
    eprintln!("Trace ({} events) written to {path}", events.len());
    eprint!("{}", sjdf::trace::timeline::render(&events));
    Ok(())
}

/// Execute in-process against a locally loaded catalog.
fn run_local(args: &Args) -> Result<(), CliError> {
    let started = std::time::Instant::now();
    let ctx = ExecCtx::local();
    if args.trace.is_some() {
        ctx.tracer().enable();
    }
    let catalog =
        load_catalog_dir(&ctx, &args.data).map_err(|e| CliError::failed(e.to_string()))?;
    eprintln!("Loaded datasets: {:?}", catalog.dataset_names());

    let values: Vec<QueryValue> = args
        .values
        .iter()
        .map(|v| match args.units.get(v) {
            Some(u) => QueryValue::with_units(v, u),
            None => QueryValue::dim(v),
        })
        .collect();
    let query = Query {
        domains: args.domains.clone(),
        values,
    };

    let engine = QueryEngine::with_config(
        &catalog,
        EngineConfig {
            interp_window_secs: args.window_secs.unwrap_or(120.0),
            explode_step_secs: args.step_secs.unwrap_or(60.0),
            ..EngineConfig::default()
        },
    );
    let plan = engine.solve(&query).map_err(|e| match e {
        SjError::NoSolution(msg) => CliError::new("no_solution", msg),
        other => CliError::failed(other.to_string()),
    })?;
    if args.plan_only {
        if !args.json {
            eprintln!("\nQuery: {}", query.describe());
            eprintln!("\nDerivation sequence:\n{}", plan.describe());
        }
        println!("{}", plan.to_json());
        return Ok(());
    }
    eprintln!("\nQuery: {}", query.describe());
    eprintln!("\nDerivation sequence:\n{}", plan.describe());

    let result = plan
        .execute(&catalog, None)
        .map_err(|e| CliError::new("exec_failed", e.to_string()))?;
    if args.json {
        let rows = result
            .collect()
            .map_err(|e| CliError::failed(e.to_string()))?;
        let schema = result.schema();
        let columns: Vec<String> = schema.fields().iter().map(|f| f.name.clone()).collect();
        let ncols = schema.len();
        let row_count = rows.len();
        let truncated = row_count > args.limit;
        let rendered: Vec<Vec<String>> = rows
            .iter()
            .take(args.limit)
            .map(|row| (0..ncols).map(|i| row.get(i).to_string()).collect())
            .collect();
        let payload = QueryResult {
            columns,
            rows: rendered,
            row_count,
            truncated,
            plan_cache_hit: false,
            result_cache_hit: false,
            elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
            engine_metrics: Some(ctx.metrics.report()),
        };
        if let Some(path) = &args.trace {
            dump_local_trace(&ctx, path)?;
        }
        println!("{}", encode(&payload)?);
        return Ok(());
    }
    match &args.out {
        Some(path) => {
            write_csv_file(&result, path).map_err(|e| CliError::failed(e.to_string()))?;
            eprintln!(
                "Wrote {} rows to {path}",
                result
                    .count()
                    .map_err(|e| CliError::failed(e.to_string()))?
            );
        }
        None => {
            let n = result
                .count()
                .map_err(|e| CliError::failed(e.to_string()))?;
            if n <= args.limit {
                print!(
                    "{}",
                    unwrap_csv(&result).map_err(|e| CliError::failed(e.to_string()))?
                );
            } else {
                print!(
                    "{}",
                    result
                        .show(args.limit)
                        .map_err(|e| CliError::failed(e.to_string()))?
                );
                eprintln!("... {n} rows total (use --out to save all)");
            }
        }
    }
    if let Some(path) = &args.trace {
        dump_local_trace(&ctx, path)?;
    }
    Ok(())
}

fn encode<T: serde::Serialize>(value: &T) -> Result<String, CliError> {
    serde_json::to_string(value).map_err(|e| CliError::failed(format!("encode: {e}")))
}

/// Minimal CSV rendering for server-mode results (cells are already
/// display strings; quote only when necessary).
fn render_csv(columns: &[String], rows: &[Vec<String>]) -> String {
    fn cell(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(
        &columns
            .iter()
            .map(|c| cell(c))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(args) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: code={} {}", e.code, e.message);
                ExitCode::from(e.exit_code())
            }
        },
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: code=usage {msg}\n");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(&argv(
            "--data /tmp/x --domains job,rack --values application,heat \
             --units heat=delta-celsius --window 300 --step 30 --limit 5",
        ))
        .unwrap();
        assert_eq!(args.data, "/tmp/x");
        assert_eq!(args.domains, vec!["job", "rack"]);
        assert_eq!(args.values, vec!["application", "heat"]);
        assert_eq!(
            args.units.get("heat").map(String::as_str),
            Some("delta-celsius")
        );
        assert_eq!(args.window_secs, Some(300.0));
        assert_eq!(args.step_secs, Some(30.0));
        assert_eq!(args.limit, 5);
        assert!(!args.plan_only);
        assert!(!args.json);
        assert!(args.server.is_none());
    }

    #[test]
    fn requires_data_domains_and_values() {
        assert!(parse_args(&argv("--domains a --values b")).is_err());
        assert!(parse_args(&argv("--data d --values b")).is_err());
        assert!(parse_args(&argv("--data d --domains a")).is_err());
        assert!(parse_args(&argv("--data d --domains a --values b")).is_ok());
    }

    #[test]
    fn server_mode_replaces_data() {
        let args = parse_args(&argv(
            "--server 127.0.0.1:7227 --tenant teamA --timeout-ms 5000 \
             --domains a --values b --json",
        ))
        .unwrap();
        assert_eq!(args.server.as_deref(), Some("127.0.0.1:7227"));
        assert_eq!(args.tenant, "teamA");
        assert_eq!(args.timeout_ms, Some(5000));
        assert!(args.json);
        // --server without --data is valid; neither is not.
        assert!(parse_args(&argv("--domains a --values b")).is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse_args(&argv("--data d --domains a --values b --frobnicate")).is_err());
        assert!(parse_args(&argv("--data d --domains a --values b --window soon")).is_err());
        assert!(parse_args(&argv("--data d --domains a --values b --units heat")).is_err());
        assert!(parse_args(&argv("--data d --domains a --values b --timeout-ms x")).is_err());
        assert!(parse_args(&argv("--data")).is_err());
    }

    #[test]
    fn plan_only_and_out_flags() {
        let args = parse_args(&argv(
            "--data d --domains a --values b --plan-only --out f.csv",
        ))
        .unwrap();
        assert!(args.plan_only);
        assert_eq!(args.out.as_deref(), Some("f.csv"));
    }

    #[test]
    fn trace_flag_takes_a_path() {
        let args = parse_args(&argv(
            "--data d --domains a --values b --trace /tmp/q.trace.json",
        ))
        .unwrap();
        assert_eq!(args.trace.as_deref(), Some("/tmp/q.trace.json"));
        assert!(parse_args(&argv("--data d --domains a --values b"))
            .unwrap()
            .trace
            .is_none());
        assert!(parse_args(&argv("--data d --domains a --values b --trace")).is_err());
    }

    #[test]
    fn follow_needs_server_mode() {
        let args = parse_args(&argv(
            "--server h:1 --domains a --values b --follow --max-frames 3",
        ))
        .unwrap();
        assert!(args.follow);
        assert_eq!(args.max_frames, 3);
        assert!(parse_args(&argv("--data d --domains a --values b --follow")).is_err());
        assert!(parse_args(&argv("--server h:1 --domains a --values b --max-frames x")).is_err());
    }

    #[test]
    fn router_is_an_alias_for_server() {
        let args = parse_args(&argv("--router 127.0.0.1:7228 --domains a --values b")).unwrap();
        assert_eq!(args.server.as_deref(), Some("127.0.0.1:7228"));
    }

    #[test]
    fn health_and_stats_modes_skip_query_flags() {
        let args = parse_args(&argv("--server h:1 --health")).unwrap();
        assert!(args.health && !args.stats);
        let args = parse_args(&argv("--router h:1 --stats --json")).unwrap();
        assert!(args.stats && args.json);
        // Both need a server, and are mutually exclusive.
        assert!(parse_args(&argv("--health")).is_err());
        assert!(parse_args(&argv("--data d --stats")).is_err());
        assert!(parse_args(&argv("--server h:1 --health --stats")).is_err());
    }

    #[test]
    fn exit_codes_are_distinct_per_failure_class() {
        assert_eq!(CliError::new("usage", "").exit_code(), 2);
        assert_eq!(CliError::new("bad_request", "").exit_code(), 2);
        assert_eq!(CliError::new("no_solution", "").exit_code(), 3);
        assert_eq!(CliError::new("queue_full", "").exit_code(), 4);
        assert_eq!(CliError::new("timeout", "").exit_code(), 4);
        assert_eq!(CliError::new("unavailable", "").exit_code(), 4);
        assert_eq!(CliError::new("exec_failed", "").exit_code(), 1);
        assert_eq!(CliError::failed("").exit_code(), 1);
    }

    #[test]
    fn csv_rendering_quotes_when_needed() {
        let out = render_csv(
            &["a".into(), "b,c".into()],
            &[vec!["1".into(), "x\"y".into()]],
        );
        assert_eq!(out, "a,\"b,c\"\n1,\"x\"\"y\"\n");
    }
}
