//! The untraced end-to-end runs: a fresh fleet on loopback, one
//! closed-loop load generator, every answer checked.

use crate::fleet::{Binaries, Fleet};
use crate::inputs::{rackheat_spec, standing_spec, Answer, Dat1Inputs, StreamInputs};
use crate::stats::{attribute_frames, median, samples_needed, tail_percentile};
use sjserve::{Client, Response};
use sjstream::WindowEmission;
use sjtrace::Tracer;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fleets booted per rackheat run; `setup_s` is their median.
const SETUP_BOOTS: usize = 3;
/// Stream cycles per run at least (one fleet each).
const MIN_CYCLES: usize = 3;
/// Hard stop for the measured loop, whatever the sample count.
const MAX_MEASURE: Duration = Duration::from_secs(140);
/// Tail percentile reported, and how many samples must lie beyond it.
pub const TAIL_PCT: usize = 95;
pub const TAIL_BEYOND: usize = 10;
/// Distinct row limits a rackheat run draws from before counting up.
const LIMIT_SPAN: usize = 400;
/// Read timeout on every benchmark connection.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

pub const TENANT: &str = "fleetbench";

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and how many of its operations went wrong.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The three workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    RackheatExec,
    RackheatCached,
    StreamStanding,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "rackheat_exec" => Some(Workload::RackheatExec),
            "rackheat_cached" => Some(Workload::RackheatCached),
            "stream_standing" => Some(Workload::StreamStanding),
            _ => None,
        }
    }

    /// Whether `response` was served the way the workload means: every
    /// exec query executes (no worker or route-cache hit), and every
    /// cached query but a fleet's `first` comes from a result cache.
    pub fn served_as_meant(self, response: &Response, first: bool) -> bool {
        match self {
            Workload::RackheatCached => first || cache_hit(response),
            _ => !cache_hit(response),
        }
    }

    /// Extra `sjserved` flags: the exec workload turns the result cache
    /// off so every query executes.
    pub fn worker_flags(self) -> &'static [&'static str] {
        match self {
            Workload::RackheatExec => &["--cache-mb", "0"],
            _ => &[],
        }
    }

    /// The row limit of a run's `k`-th rackheat request. No two
    /// requests of a run share a limit, so the router's route cache
    /// (keyed by plan and limit) never answers. Exec stays near the
    /// service default of 1,000 rows; cached asks for more than the
    /// whole answer. The seed rotates the order of the first
    /// [`LIMIT_SPAN`] limits without changing the set.
    pub fn limit(self, answer_rows: usize, seed: u64, k: usize) -> usize {
        let base = match self {
            Workload::RackheatCached => answer_rows + 1,
            _ => 1000,
        };
        if k < LIMIT_SPAN {
            base + (k + seed as usize % LIMIT_SPAN) % LIMIT_SPAN
        } else {
            base + k
        }
    }
}

/// A binary-wire connection as `tenant`, with the benchmark's read
/// timeout.
pub fn connect_as(addr: &str, tenant: &str) -> Result<Client, String> {
    let client = Client::connect_as(addr, tenant).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(client)
}

/// A connection as the benchmark's tenant.
pub fn connect(addr: &str) -> Result<Client, String> {
    connect_as(addr, TENANT)
}

/// Whether a query response carries exactly the first `limit` rows of
/// the expected answer.
pub fn answer_matches(response: &Response, answer: &Answer, limit: usize) -> bool {
    let Some(r) = &response.result else {
        return false;
    };
    let total = answer.rows.len();
    let want = limit.min(total);
    r.columns == answer.columns
        && r.row_count == total
        && r.truncated == (limit < total)
        && r.rows[..] == answer.rows[..want]
}

/// Whether a query response says it came from a result cache: a
/// worker's, or the router's route cache.
pub fn cache_hit(response: &Response) -> bool {
    response.result.as_ref().is_some_and(|r| r.result_cache_hit)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn tail(xs: &[f64], what: &str) -> Result<f64, String> {
    tail_percentile(xs, TAIL_PCT, TAIL_BEYOND).ok_or_else(|| {
        format!(
            "{what}: {} samples, p{TAIL_PCT} needs {}",
            xs.len(),
            samples_needed(TAIL_PCT, TAIL_BEYOND)
        )
    })
}

/// The five latency/throughput metrics every workload reports. The
/// sample counts and a few more percentiles go to stderr.
fn latency_metrics(
    latency: &[f64],
    delivery: &[f64],
    ops_per_s: f64,
) -> Result<Vec<Metric>, String> {
    for (what, xs) in [("latency", latency), ("delivery", delivery)] {
        let pct = |p| tail_percentile(xs, p, 0).unwrap_or(f64::NAN);
        eprintln!(
            "{what}: {} samples; p50 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} max {:.3} ms",
            xs.len(),
            pct(50),
            pct(90),
            pct(95),
            pct(99),
            pct(100)
        );
    }
    Ok(vec![
        Metric {
            name: "latency_p50_ms",
            value: median(latency),
            unit: "ms",
        },
        Metric {
            name: "latency_p95_ms",
            value: tail(latency, "latency")?,
            unit: "ms",
        },
        Metric {
            name: "ops_per_s",
            value: ops_per_s,
            unit: "1/s",
        },
        Metric {
            name: "delivery_p50_ms",
            value: median(delivery),
            unit: "ms",
        },
        Metric {
            name: "delivery_p95_ms",
            value: tail(delivery, "delivery")?,
            unit: "ms",
        },
    ])
}

/// A rackheat run: boot [`SETUP_BOOTS`] fleets, timing each until its
/// first query is answered correctly, then drive the last one with one
/// closed-loop client for `seconds` (and until p95 is defined).
pub fn rackheat(
    workload: Workload,
    bins: &Binaries,
    dat1: &Dat1Inputs,
    data: &Path,
    logs: &Path,
    seconds: u64,
    seed: u64,
) -> Result<Outcome, String> {
    let answer = &dat1.answer;
    let mut k = 0;
    let mut next_limit = || {
        k += 1;
        workload.limit(answer.rows.len(), seed, k - 1)
    };
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_BOOTS {
        drop(live.take());
        let t0 = Instant::now();
        let mut fleet = Fleet::boot(bins, data, workload.worker_flags(), logs)?;
        let mut client = connect(&fleet.router.addr)?;
        let limit = next_limit();
        let first = client
            .query(rackheat_spec(limit), None)
            .map_err(|e| format!("first query: {e}"))?;
        if !answer_matches(&first, answer, limit) || !workload.served_as_meant(&first, true) {
            return Err("first query answered wrong".into());
        }
        setups.push(t0.elapsed().as_secs_f64());
        fleet.check_alive()?;
        live = Some((fleet, client));
    }
    let (mut fleet, mut client) = live.expect("at least one boot");

    let (mut latency, mut delivery) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    let need = samples_needed(TAIL_PCT, TAIL_BEYOND);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    while started.elapsed() < budget || latency.len() < need {
        if started.elapsed() > MAX_MEASURE {
            return Err(format!("only {} queries in {MAX_MEASURE:?}", latency.len()));
        }
        let limit = next_limit();
        let t0 = Instant::now();
        let response = client
            .query(rackheat_spec(limit), None)
            .map_err(|e| format!("query (limit {limit}): {e}"))?;
        let decoded = t0.elapsed();
        if !answer_matches(&response, answer, limit) || !workload.served_as_meant(&response, false)
        {
            failed += 1;
        }
        latency.push(ms(t0.elapsed()));
        delivery.push(ms(decoded));
    }
    let elapsed = started.elapsed().as_secs_f64();
    fleet.check_alive()?;
    let rss = fleet.peak_rss_mb()?;
    drop((client, fleet));

    let mut metrics = vec![Metric {
        name: "setup_s",
        value: median(&setups),
        unit: "s",
    }];
    metrics.extend(latency_metrics(
        &latency,
        &delivery,
        latency.len() as f64 / elapsed,
    )?);
    metrics.push(Metric {
        name: "peak_rss_mb",
        value: rss,
        unit: "MB",
    });
    Ok(Outcome {
        attempted: (latency.len() + setups.len()) as u64,
        failed,
        metrics,
    })
}

/// Whether a pushed frame is the expected emission: same window, same
/// watermark and re-emission flag, byte-identical columns and rows.
pub fn frame_matches(frame: &Response, sub_id: &str, want: &WindowEmission) -> bool {
    frame.is_ok()
        && frame.query_id.as_deref() == Some(sub_id)
        && frame.window.as_ref().is_some_and(|w| {
            !w.degraded
                && (w.window_id, w.start_us, w.end_us)
                    == (want.window_id, want.start_us, want.end_us)
                && (w.watermark_us, w.re_emission) == (want.watermark_us, want.re_emission)
                && w.columns == want.columns
                && w.rows == want.rows
        })
}

/// What one pass of the schedule through a standing query observed.
pub struct Replay {
    /// Per append: send → ack, ms.
    pub ack_ms: Vec<f64>,
    /// Per frame: append sent → frame arrived, ms.
    pub lag_ms: Vec<f64>,
    /// Per frame: frame arrived − its append's ack arrived, ms.
    pub push_delay_ms: Vec<f64>,
    /// Appends plus frames checked.
    pub attempted: u64,
    /// Wrong acks, wrong frames, and missing frames.
    pub failed: u64,
    /// Wall time of the append loop.
    pub append_secs: f64,
}

/// Register the standing query on `sub`; returns its subscription id.
pub fn subscribe(sub: &mut Client) -> Result<String, String> {
    sub.subscribe(standing_spec())
        .map_err(|e| format!("subscribe: {e}"))?
        .subscription
        .map(|s| s.query_id)
        .ok_or_else(|| "subscribe ack without subscription".into())
}

/// `a − b` in milliseconds, negative when `a` came first.
fn signed_ms(a: Instant, b: Instant) -> f64 {
    ms(a.saturating_duration_since(b)) - ms(b.saturating_duration_since(a))
}

/// Replay the schedule through `appender` while a reader thread collects
/// every frame pushed to the subscribed `sub`, then attribute each frame
/// to its append and byte-check it against the expected emission.
pub fn replay(
    mut sub: Client,
    sub_id: String,
    appender: &mut Client,
    inputs: &StreamInputs,
    tracer: &Tracer,
) -> Result<Replay, String> {
    let total: usize = inputs.expected.iter().map(Vec::len).sum();
    let frame_tracer = tracer.clone();
    let reader = std::thread::spawn(move || {
        let mut frames = Vec::with_capacity(total);
        while frames.len() < total {
            match sub.next_frame() {
                Ok(frame) => {
                    frames.push((Instant::now(), frame));
                    frame_tracer.instant("frame", "");
                }
                Err(_) => break,
            }
        }
        frames
    });

    let mut failed = 0u64;
    let (mut sent, mut acked, mut emitted) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    for (batch, want) in inputs.schedule.iter().zip(&inputs.expected) {
        let span = tracer.span("append");
        let t0 = Instant::now();
        let response = appender.append(batch.clone());
        let t1 = Instant::now();
        drop(span);
        let n = match response.ok().and_then(|r| r.append) {
            Some(ack) => ack.windows_emitted,
            None => {
                failed += 1;
                0
            }
        };
        if n != want.len() {
            failed += 1;
        }
        sent.push(t0);
        acked.push(t1);
        emitted.push(n);
    }
    let append_secs = started.elapsed().as_secs_f64();
    let frames = reader.join().map_err(|_| "frame reader panicked")?;

    let owners = attribute_frames(&emitted);
    let (mut lag_ms, mut push_delay_ms) = (Vec::new(), Vec::new());
    for ((arrived, frame), &(i, k)) in frames.iter().zip(&owners) {
        if !inputs.expected[i]
            .get(k)
            .is_some_and(|want| frame_matches(frame, &sub_id, want))
        {
            failed += 1;
        }
        lag_ms.push(ms(arrived.duration_since(sent[i])));
        push_delay_ms.push(signed_ms(*arrived, acked[i]));
    }
    failed += total.abs_diff(frames.len()) as u64;
    Ok(Replay {
        ack_ms: sent
            .iter()
            .zip(&acked)
            .map(|(s, a)| ms(a.duration_since(*s)))
            .collect(),
        lag_ms,
        push_delay_ms,
        attempted: (inputs.schedule.len() + total) as u64,
        failed,
        append_secs,
    })
}

/// Stream cycles in a run of `seconds`: one per 2.5 s asked for (about
/// what a cycle takes), at least [`MIN_CYCLES`]. The count depends on
/// the argument alone, so a faster build is measured over as many
/// cycles as a slower one.
pub fn stream_cycles(seconds: u64) -> usize {
    ((seconds * 2 / 5) as usize).max(MIN_CYCLES)
}

/// A stream run: [`stream_cycles`] cycles of (boot a fresh fleet,
/// subscribe through the router, replay the fixed schedule, tear down).
/// The schedule length is fixed because every append re-scans the
/// accepted prefix: a time budget per fleet would charge a faster build
/// for ingesting more.
///
/// Each timing metric is the median over the cycles of that cycle's
/// figure (its median or p95 over its own samples). Latency tails here
/// are several thread hand-offs across three processes per append, and
/// on a small shared VM a burst of CPU steal from co-tenants doubles
/// them for the cycles it hits; the median cycle stands, where pooled
/// samples would carry such a burst into the tail.
pub fn stream(
    bins: &Binaries,
    inputs: &StreamInputs,
    data: &Path,
    logs: &Path,
    seconds: u64,
) -> Result<Outcome, String> {
    let (mut setups, mut rss, mut cycles) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    for _ in 0..stream_cycles(seconds) {
        if started.elapsed() > MAX_MEASURE {
            return Err(format!("only {} cycles in {MAX_MEASURE:?}", setups.len()));
        }
        let t0 = Instant::now();
        let mut fleet = Fleet::boot(bins, data, &[], logs)?;
        let mut sub = connect(&fleet.router.addr)?;
        let sub_id = subscribe(&mut sub)?;
        setups.push(t0.elapsed().as_secs_f64());
        let mut appender = connect(&fleet.router.addr)?;
        let pass = replay(sub, sub_id, &mut appender, inputs, &Tracer::new())?;
        fleet.check_alive()?;
        rss.push(fleet.peak_rss_mb()?);
        drop(fleet);
        let ops_per_s = pass.ack_ms.len() as f64 / pass.append_secs;
        cycles.push(latency_metrics(&pass.ack_ms, &pass.lag_ms, ops_per_s)?);
        attempted += pass.attempted + 1;
        failed += pass.failed;
    }
    let mut metrics = vec![Metric {
        name: "setup_s",
        value: median(&setups),
        unit: "s",
    }];
    metrics.extend(cycles[0].iter().enumerate().map(|(i, m)| {
        let values: Vec<f64> = cycles.iter().map(|c| c[i].value).collect();
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        eprintln!(
            "{}: over {} cycles min {lo:.3} median {:.3} max {hi:.3}",
            m.name,
            values.len(),
            median(&values)
        );
        Metric {
            value: median(&values),
            ..*m
        }
    }));
    metrics.push(Metric {
        name: "peak_rss_mb",
        value: median(&rss),
        unit: "MB",
    });
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_are_distinct_and_seed_only_reorders_them() {
        for w in [Workload::RackheatExec, Workload::RackheatCached] {
            let a: Vec<usize> = (0..2 * LIMIT_SPAN).map(|k| w.limit(6633, 7, k)).collect();
            let b: Vec<usize> = (0..2 * LIMIT_SPAN).map(|k| w.limit(6633, 8, k)).collect();
            assert_ne!(a, b);
            let (mut sa, mut sb) = (a.clone(), b.clone());
            sa.sort_unstable();
            sb.sort_unstable();
            sa.dedup();
            assert_eq!(sa.len(), a.len(), "limits repeat");
            assert_eq!(sa, sb, "the seed changed the set of limits");
        }
        assert!(Workload::RackheatCached.limit(6633, 3, 0) > 6633);
        assert!((1000..1400).contains(&Workload::RackheatExec.limit(6633, 3, 0)));
    }

    #[test]
    fn stream_cycle_count_follows_the_seconds_asked_for() {
        assert_eq!(stream_cycles(20), 8);
        assert_eq!(stream_cycles(1), MIN_CYCLES);
    }
}
