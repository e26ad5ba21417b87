//! The traced run: time the calls into each layer's public functions
//! from this process, each inside a `sjtrace` span, on the workloads'
//! own inputs. Every traced run reports every layer — the DAT1 layers
//! on the rack-heat inputs, the streaming layers on the schedule — and
//! sets the sum of the layers on this workload's path beside the
//! traced run's own end-to-end latency.

use crate::fleet::{Binaries, Daemon, Fleet};
use crate::inputs::{
    dat1_inputs, engine_query, new_stream_engine, rackheat_spec, stream_inputs, Dat1Inputs,
    StreamInputs,
};
use crate::stats::{median, tail_percentile};
use crate::workloads::{
    answer_matches, cache_hit, connect, connect_as, replay, subscribe, Metric, Outcome, Replay,
    Workload, TENANT,
};
use crate::{Args, STREAM_STEPS};
use sjcore::cache::ResultCache;
use sjcore::engine::{EngineConfig, Plan, QueryEngine};
use sjcore::{Row, Schema};
use sjdf::ExecCtx;
use sjserve::protocol::Request;
use sjserve::wire::{decode_request, decode_response, encode_request, encode_response};
use sjserve::{Client, QueryService, Response, ServiceConfig, PROTO_VERSION};
use sjtrace::Tracer;
use std::path::Path;
use std::time::Instant;

/// Repetitions of each in-process call (medians are reported).
const REPS: usize = 7;
/// Repetitions of each plan subtree.
const SUBTREE_REPS: usize = 3;
/// Quick calls (cache gets, codecs, round trips) repeat more.
const QUICK_REPS: usize = 40;
/// Queries sent each way (routed, direct) for the hop estimate.
const HOP_PAIRS: usize = 40;
/// Routed queries that execute, for the exec workload's traced latency.
const EXEC_QUERIES: usize = 15;

/// Plan operators whose self time is reported as `sjcore.<op>_ms`.
const OPERATORS: [(&str, &str); 5] = [
    ("explode_discrete", "sjcore.explode_discrete_ms"),
    ("explode_continuous", "sjcore.explode_continuous_ms"),
    ("derive_heat", "sjcore.derive_heat_ms"),
    ("natural_join", "sjcore.natural_join_ms"),
    ("interpolation_join", "sjcore.interpolation_join_ms"),
];

/// Times calls inside spans and counts checked operations.
struct Probe {
    tracer: Tracer,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Probe {
    /// Run `f` inside a span named `name`; returns its result and wall
    /// time in ms.
    fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let _span = self.tracer.span(name);
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed().as_secs_f64() * 1e3)
    }

    /// Median wall time of `reps` calls of `f(rep)`, each in a span.
    fn median_ms<E>(
        &self,
        name: &'static str,
        reps: usize,
        mut f: impl FnMut(usize) -> Result<(), E>,
    ) -> Result<f64, E> {
        let mut times = Vec::with_capacity(reps);
        for rep in 0..reps {
            let (out, t) = self.time(name, || f(rep));
            out?;
            times.push(t);
        }
        Ok(median(&times))
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn report(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The traced run. Writes the recorded spans to `trace_path` as Chrome
/// trace JSON.
pub fn measure(
    args: &Args,
    bins: &Binaries,
    run_dir: &Path,
    logs: &Path,
    trace_path: &Path,
) -> Result<Outcome, String> {
    let workload = args.workload;
    let mut p = Probe {
        tracer: Tracer::new(),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    p.tracer.enable();
    let dat1_dir = run_dir.join("dat1");
    let stream_dir = run_dir.join("stream");
    let dat1 = dat1_inputs(args.dat1_seed, &dat1_dir)?;
    let stream = stream_inputs(args.seed, STREAM_STEPS, &stream_dir)?;

    let l = {
        let _root = p.tracer.span("fleetbench.layers");
        let mut l = Layers::default();
        let executed = engine_layers(&mut p, &dat1)?;
        service_layers(&mut p, workload, &dat1, executed, &stream, &mut l)?;
        stream_layers(&mut p, &stream, &mut l)?;
        rackheat_fleet_layers(&mut p, workload, bins, &dat1, &dat1_dir, logs, &mut l)?;
        stream_fleet_layers(&mut p, bins, &stream, &stream_dir, logs, &mut l)?;
        l
    };

    // The layers on this workload's path, each counted as often as the
    // path crosses it, set beside the traced run's own p50.
    let wire = l.encode_ms + l.decode_ms;
    let (attributed, e2e) = match workload {
        // Worker handle, then encode/decode on both hops (worker →
        // router, router → client), the router's fresh connection to
        // the worker, and a network round trip per hop.
        Workload::RackheatExec => (
            l.handle_exec_ms + 2.0 * wire + l.connect_ms + 2.0 * l.rtt_ms,
            l.routed_query_ms,
        ),
        Workload::RackheatCached => (
            l.handle_hit_ms + 2.0 * wire + l.connect_ms + 2.0 * l.rtt_ms,
            l.routed_query_ms,
        ),
        // The router forwards the append to each worker in turn over a
        // fresh connection; each worker ingests and sweeps. Plus the
        // client's own hop.
        Workload::StreamStanding => {
            let append_wire = l.append_encode_ms + l.append_decode_ms;
            let per_worker = l.append_ms + append_wire + l.connect_ms + l.rtt_ms;
            (2.0 * per_worker + append_wire + l.rtt_ms, l.routed_ack_ms)
        }
    };
    p.report("trace.e2e_p50_ms", e2e, "ms");
    p.report("trace.attributed_pct", 100.0 * attributed / e2e, "%");

    let events = p.tracer.drain();
    let json = sjtrace::export::chrome_trace_json(&events, &p.tracer.thread_names(), "fleetbench");
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(trace_path, json).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!("trace: {} spans -> {}", events.len(), trace_path.display());
    Ok(Outcome {
        attempted: p.attempted,
        failed: p.failed,
        metrics: p.metrics,
    })
}

/// Layer times the attribution sum needs.
#[derive(Default)]
struct Layers {
    handle_exec_ms: f64,
    handle_hit_ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    append_ms: f64,
    append_encode_ms: f64,
    append_decode_ms: f64,
    connect_ms: f64,
    rtt_ms: f64,
    routed_query_ms: f64,
    routed_ack_ms: f64,
}

/// Planner and executor: `QueryEngine::solve`, `Plan::execute` +
/// `collect`, and each plan operator's self time. Returns the executed
/// result for the result-cache probe.
fn engine_layers(p: &mut Probe, dat1: &Dat1Inputs) -> Result<(Schema, Vec<Row>), String> {
    let catalog = &dat1.catalog;
    let query = engine_query(&rackheat_spec(0))
        .canonicalize(catalog.dict())
        .map_err(err)?;
    let mut solved = None;
    let mut considered = 0;
    let solve_ms = p.median_ms("sjcore.solve", REPS, |_| {
        let engine = QueryEngine::with_config(catalog, EngineConfig::default());
        solved = Some(engine.solve(&query).map_err(err)?);
        considered = engine.stats().datasets_considered;
        Ok::<_, String>(())
    })?;
    let plan = solved.expect("solved at least once");

    let before = dat1.ctx.metrics.report();
    let (mut delta, mut result) = (None, None);
    let execute_ms = p.median_ms("sjcore.execute", REPS, |_| {
        let ds = plan.execute(catalog, None).map_err(err)?;
        let rows = ds.collect().map_err(err)?;
        delta.get_or_insert_with(|| dat1.ctx.metrics.report().delta_since(&before));
        result = Some((ds.schema().clone(), rows));
        Ok::<_, String>(())
    })?;
    let delta = delta.expect("executed at least once");
    let result = result.expect("executed at least once");
    p.check(result.1.len() == dat1.answer.rows.len());

    // Each subtree executes on its own; an operator's self time is its
    // subtree's time minus its children's subtree times.
    let mut nodes = Vec::new();
    subtrees(&plan, &mut nodes);
    let mut subtree_ms = Vec::with_capacity(nodes.len());
    for (node, _) in &nodes {
        subtree_ms.push(p.median_ms("sjcore.subtree", SUBTREE_REPS, |_| {
            node.execute(catalog, None)
                .and_then(|ds| ds.count())
                .map(drop)
                .map_err(err)
        })?);
    }
    let mut op_ms = [0.0; OPERATORS.len()];
    for (i, (node, children)) in nodes.iter().enumerate() {
        let own = subtree_ms[i] - children.iter().map(|&c| subtree_ms[c]).sum::<f64>();
        let op = match node {
            Plan::Transform { spec, .. } | Plan::Combine { spec, .. } => spec.op_name(),
            Plan::Load { .. } => continue,
        };
        if let Some(k) = OPERATORS.iter().position(|(name, _)| *name == op) {
            op_ms[k] += own;
        }
    }

    p.report("sjcore.execute_ms", execute_ms, "ms");
    for ((_, metric), ms) in OPERATORS.iter().zip(op_ms) {
        p.report(metric, ms, "ms");
    }
    let sum = |f: fn(&sjdf::metrics::OpMetrics) -> u64| -> f64 {
        delta.ops.iter().map(|o| f(&o.metrics)).sum::<u64>() as f64
    };
    p.report("sjdf.tasks", sum(|m| m.tasks), "count");
    p.report("sjdf.shuffle_records", sum(|m| m.shuffle_records), "count");
    p.report("sjdf.shuffle_bytes", sum(|m| m.shuffle_bytes), "bytes");
    p.report("sjcore.solve_ms", solve_ms, "ms");
    p.report("sjcore.datasets_considered", considered as f64, "count");
    Ok(result)
}

/// Post-order list of `(subtree, indices of its children)`.
fn subtrees<'a>(plan: &'a Plan, out: &mut Vec<(&'a Plan, Vec<usize>)>) -> usize {
    let children = match plan {
        Plan::Load { .. } => Vec::new(),
        Plan::Transform { input, .. } => vec![subtrees(input, out)],
        Plan::Combine { left, right, .. } => vec![subtrees(left, out), subtrees(right, out)],
    };
    out.push((plan, children));
    out.len() - 1
}

/// `QueryService::handle` with the result cache off and on a hit,
/// `ResultCache::get`, and the response codec on this workload's real
/// response.
fn service_layers(
    p: &mut Probe,
    workload: Workload,
    dat1: &Dat1Inputs,
    executed: (Schema, Vec<Row>),
    stream: &StreamInputs,
    l: &mut Layers,
) -> Result<(), String> {
    let total = dat1.answer.rows.len();
    let query = |svc: &QueryService, limit: usize| {
        svc.handle(Request::query("layer", TENANT, rackheat_spec(limit)).with_proto())
    };
    let service = |cache_bytes| {
        QueryService::new(
            dat1.ctx.clone(),
            dat1.catalog.clone(),
            ServiceConfig {
                result_cache_bytes: cache_bytes,
                ..ServiceConfig::default()
            },
        )
    };

    let cold = service(0);
    query(&cold, 999); // fill the plan cache, as on a serving worker
    let mut exec_response = None;
    l.handle_exec_ms = p.median_ms("sjserve.handle_exec", REPS, |rep| {
        exec_response = Some(query(&cold, 1000 + rep));
        Ok::<_, String>(())
    })?;
    cold.shutdown();
    let exec_response = exec_response.expect("handled at least once");
    p.check(
        answer_matches(&exec_response, &dat1.answer, 1000 + REPS - 1) && !cache_hit(&exec_response),
    );

    let warm = service(ServiceConfig::default().result_cache_bytes);
    query(&warm, total + 1);
    let mut hit_response = None;
    l.handle_hit_ms = p.median_ms("sjserve.handle_hit", REPS, |rep| {
        hit_response = Some(query(&warm, total + 2 + rep));
        Ok::<_, String>(())
    })?;
    warm.shutdown();
    let hit_response = hit_response.expect("handled at least once");
    p.check(
        answer_matches(&hit_response, &dat1.answer, total + 1 + REPS) && cache_hit(&hit_response),
    );

    let cache = ResultCache::new(ServiceConfig::default().result_cache_bytes);
    cache.put(1, executed.0, executed.1);
    let get_ms = p.median_ms("sjcore.result_cache_get", QUICK_REPS, |_| {
        std::hint::black_box(cache.get(1))
            .map(drop)
            .ok_or("result cache lost its entry")
    })?;

    // The response this workload's requests actually carry back.
    let mut response = match workload {
        Workload::RackheatExec => exec_response,
        Workload::RackheatCached => hit_response,
        Workload::StreamStanding => {
            let widest = stream
                .expected
                .iter()
                .flatten()
                .max_by_key(|e| e.rows.len())
                .ok_or("the schedule emitted no frames")?;
            let mut frame = Response::ok("layer");
            frame.query_id = Some(widest.query_id.clone());
            frame.window = Some(widest.clone());
            frame.proto_version = Some(PROTO_VERSION);
            frame
        }
    };
    let mut bytes = Vec::new();
    l.encode_ms = p.median_ms("sjwire.encode", QUICK_REPS, |_| {
        bytes = encode_response(&mut response);
        Ok::<_, String>(())
    })?;
    l.decode_ms = p.median_ms("sjwire.decode", QUICK_REPS, |_| {
        std::hint::black_box(decode_response(&bytes))
            .map(drop)
            .map_err(err)
    })?;
    p.check(decode_response(&bytes).is_ok_and(|r| r == response));

    p.report("sjserve.handle_exec_ms", l.handle_exec_ms, "ms");
    p.report("sjserve.handle_hit_ms", l.handle_hit_ms, "ms");
    p.report("sjcore.result_cache_get_ms", get_ms, "ms");
    p.report("sjwire.encode_ms", l.encode_ms, "ms");
    p.report("sjwire.decode_ms", l.decode_ms, "ms");
    p.report("sjwire.response_bytes", bytes.len() as f64, "bytes");
    Ok(())
}

/// `StreamEngine::append` over the schedule, its counters, and the
/// append request codec.
fn stream_layers(p: &mut Probe, stream: &StreamInputs, l: &mut Layers) -> Result<(), String> {
    let ctx = ExecCtx::local();
    let catalog = sjdata::stream_catalog(&ctx).map_err(err)?;
    let mut engine = new_stream_engine(&ctx, catalog)?;
    let mut times = Vec::with_capacity(stream.schedule.len());
    for (batch, want) in stream.schedule.iter().zip(&stream.expected) {
        let (outcome, t) = p.time("sjstream.append", || engine.append(batch));
        let emitted = outcome.map_err(err)?.emissions;
        p.check(emitted.len() == want.len());
        times.push(t);
    }
    l.append_ms = median(&times);
    let c = engine.counters();

    let requests: Vec<Request> = stream
        .schedule
        .iter()
        .map(|b| Request::append("layer", TENANT, b.clone()).with_proto())
        .collect();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for request in &requests {
        let (bytes, t) = p.time("sjwire.append_encode", || encode_request(request));
        enc.push(t);
        let (back, t) = p.time("sjwire.append_decode", || decode_request(&bytes));
        dec.push(t);
        p.check(back.is_ok_and(|r| r == *request));
    }
    l.append_encode_ms = median(&enc);
    l.append_decode_ms = median(&dec);

    p.report("sjwire.append_encode_ms", l.append_encode_ms, "ms");
    p.report("sjwire.append_decode_ms", l.append_decode_ms, "ms");
    p.report("sjstream.append_ms", l.append_ms, "ms");
    p.report(
        "sjstream.recomputes",
        c.incremental_recomputes as f64,
        "count",
    );
    let emissions = (c.window_emissions + c.window_re_emissions).max(1);
    p.report(
        "sjstream.re_emission_frac",
        c.window_re_emissions as f64 / emissions as f64,
        "ratio",
    );
    Ok(())
}

/// Queries the benchmark's tenant completed at one worker so far.
fn completed_at(addr: &str) -> Result<u64, String> {
    let stats = connect(addr)?
        .stats()
        .map_err(err)?
        .stats
        .ok_or("stats without body")?;
    Ok(stats
        .per_tenant
        .iter()
        .find(|t| t.tenant == TENANT)
        .map_or(0, |t| t.completed))
}

/// The benchmark tenant's completed queries at each worker of `fleet`:
/// the index of the busiest worker and its share of them.
fn busiest_worker(fleet: &Fleet) -> Result<(usize, f64), String> {
    let counts = fleet
        .workers
        .iter()
        .map(|w| completed_at(&w.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let busiest = (0..counts.len())
        .max_by_key(|&i| counts[i])
        .expect("two workers");
    let share = counts[busiest] as f64 / counts.iter().sum::<u64>().max(1) as f64;
    Ok((busiest, share))
}

/// `value`, reported to stderr when it comes out negative: a difference
/// of two medians that the noise of either side swamped.
fn difference(name: &str, value: f64) -> f64 {
    if value < 0.0 {
        eprintln!("{name}: {value:.3} ms is below zero, within the noise of its two medians");
    }
    value
}

/// The rack-heat fleets: connect and round-trip costs, the router hop,
/// how evenly the router spreads queries over the two replicas, and the
/// routed latency the attribution stands beside.
///
/// The hop is timed on workers with their result caches on, so a worker
/// answers from its cache and execution (≈170 ms, swinging by more than
/// the hop) does not bury it. The limits are the workload's own, so the
/// responses crossing the hop are its size: about 1,000 rows for
/// `rackheat_exec` (and the off-path `stream_standing`), all 6,633 for
/// `rackheat_cached`.
fn rackheat_fleet_layers(
    p: &mut Probe,
    workload: Workload,
    bins: &Binaries,
    dat1: &Dat1Inputs,
    data: &Path,
    logs: &Path,
    l: &mut Layers,
) -> Result<(), String> {
    let limits = match workload {
        Workload::StreamStanding => Workload::RackheatExec,
        w => w,
    };
    let mut fleet = Fleet::boot(bins, data, &[], logs)?;
    let worker0 = fleet.workers[0].addr.clone();
    l.connect_ms = p.median_ms("sjserve.connect", QUICK_REPS, |_| {
        connect(&worker0).map(drop)
    })?;
    let mut client = connect(&worker0)?;
    l.rtt_ms = p.median_ms("sjserve.rtt", QUICK_REPS, |_| {
        client.health().map(drop).map_err(err)
    })?;

    // Each query must match the answer and be (`hit`) or not be a
    // result-cache hit.
    let mut k = 0;
    let mut query = |p: &mut Probe, client: &mut Client, name: &'static str, hit: bool| {
        let limit = limits.limit(dat1.answer.rows.len(), 0, k);
        k += 1;
        let (response, t) = p.time(name, || client.query(rackheat_spec(limit), None));
        p.check(
            response.is_ok_and(|r| answer_matches(&r, &dat1.answer, limit) && cache_hit(&r) == hit),
        );
        t
    };
    // The first routed query executes and fills the cache of the worker
    // the router picks. Then alternate routed and direct queries to that
    // worker, so drift hits both alike. Direct queries use their own
    // tenant, leaving the per-worker counts to the routed ones.
    let mut routed = connect(&fleet.router.addr)?;
    query(p, &mut routed, "warmup", false);
    let (busiest, _) = busiest_worker(&fleet)?;
    let mut direct = connect_as(&fleet.workers[busiest].addr, "fleetbench-direct")?;
    let (mut routed_ms, mut direct_ms) = (Vec::new(), Vec::new());
    for _ in 0..HOP_PAIRS {
        routed_ms.push(query(p, &mut routed, "sjroute.routed_query", true));
        direct_ms.push(query(p, &mut direct, "sjroute.direct_query", true));
    }
    let (_, mut share) = busiest_worker(&fleet)?;
    fleet.check_alive()?;
    drop(fleet);
    l.routed_query_ms = median(&routed_ms);

    if workload == Workload::RackheatExec {
        // The exec workload's own routed latency, on workers with the
        // result cache off so every query executes.
        let mut fleet = Fleet::boot(bins, data, workload.worker_flags(), logs)?;
        let mut routed = connect(&fleet.router.addr)?;
        let times: Vec<f64> = (0..EXEC_QUERIES)
            .map(|_| query(p, &mut routed, "sjroute.routed_exec_query", false))
            .collect();
        (_, share) = busiest_worker(&fleet)?;
        fleet.check_alive()?;
        l.routed_query_ms = median(&times);
    }

    p.report("sjserve.connect_ms", l.connect_ms, "ms");
    p.report("sjserve.rtt_ms", l.rtt_ms, "ms");
    let hop = median(&routed_ms) - median(&direct_ms);
    p.report("sjroute.hop_ms", difference("sjroute.hop_ms", hop), "ms");
    p.report("sjroute.busiest_worker_share", share, "ratio");
    Ok(())
}

/// The standing query straight to one worker (push delay: frame arrival
/// minus its append's ack arrival), then through the router (the append
/// fan-out over the direct ack).
fn stream_fleet_layers(
    p: &mut Probe,
    bins: &Binaries,
    stream: &StreamInputs,
    data: &Path,
    logs: &Path,
    l: &mut Layers,
) -> Result<(), String> {
    let mut worker = Daemon::start(
        "sjserved (direct)",
        &bins.serverd,
        &[
            "--data".into(),
            data.display().to_string(),
            "--addr".into(),
            "127.0.0.1:0".into(),
        ],
        "sjserved listening on ",
        logs.join("direct.log"),
    )?;
    worker.wait_ready()?;
    let direct = stream_pass(p, &worker.addr, stream)?;
    worker.check_alive()?;
    drop(worker);

    let mut fleet = Fleet::boot(bins, data, &[], logs)?;
    let routed = stream_pass(p, &fleet.router.addr, stream)?;
    fleet.check_alive()?;
    drop(fleet);

    l.routed_ack_ms = median(&routed.ack_ms);
    let delay = |pct| {
        tail_percentile(&direct.push_delay_ms, pct, 0).ok_or("no frames reached the subscriber")
    };
    let fanout = l.routed_ack_ms - median(&direct.ack_ms);
    p.report(
        "sjroute.append_fanout_ms",
        difference("sjroute.append_fanout_ms", fanout),
        "ms",
    );
    p.report("sjserve.push_delay_p50_ms", delay(50)?, "ms");
    p.report("sjserve.push_delay_p99_ms", delay(99)?, "ms");
    Ok(())
}

/// One replay of the schedule against `addr` (a worker or the router),
/// appends and frames traced.
fn stream_pass(p: &mut Probe, addr: &str, stream: &StreamInputs) -> Result<Replay, String> {
    let mut sub = connect(addr)?;
    let sub_id = subscribe(&mut sub)?;
    let mut appender = connect(addr)?;
    let pass = replay(sub, sub_id, &mut appender, stream, &p.tracer)?;
    p.attempted += pass.attempted;
    p.failed += pass.failed;
    Ok(pass)
}
