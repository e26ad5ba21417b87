//! `fleetbench`: the repository's end-to-end benchmark.
//!
//! Each run builds the release daemons from the checkout it runs in,
//! boots `sjrouted` in front of two `sjserved` on loopback (binary wire),
//! drives one workload from this process with at most two connections,
//! checks every answer, and prints one JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload rackheat_exec --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` and `fleetbench/README.md`):
//! `rackheat_exec`, `rackheat_cached`, `stream_standing`. With
//! `--trace 1` the run times each layer's public functions in process
//! instead, records a `sjtrace` span around every call, and writes the
//! spans as a Chrome trace under `.fleetbench/traces/`.

mod fleet;
mod inputs;
mod layers;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Metric, Outcome, Workload};

/// Schedule length of the standing-query workload, in 10 s steps.
pub const STREAM_STEPS: usize = 120;

struct Args {
    workload: Workload,
    workload_name: String,
    /// Seeds the disarray schedule and rotates the rackheat row-limit
    /// sequence.
    seed: u64,
    dat1_seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: fleetbench --workload NAME --seed N --seconds S --trace 0|1 [--dat1-seed N]";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut dat1_seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            "--dat1-seed" => dat1_seed = Some(num(&value)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?,
        workload_name: name,
        seed,
        // DAT1 stays the paper's default scenario unless asked: its seed
        // moves the job schedule and with it the answer size (by up to
        // 6%), which would spread the timings across runs.
        dat1_seed: dat1_seed.unwrap_or(sjdata::Dat1Config::default().seed),
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, run_dir: &std::path::Path) -> Result<Outcome, String> {
    let bins = fleet::build_daemons()?;
    let logs = run_dir.join("logs");
    std::fs::create_dir_all(&logs).map_err(|e| format!("{}: {e}", logs.display()))?;
    if args.trace {
        let trace_path = PathBuf::from(".fleetbench/traces")
            .join(format!("{}-seed{}.json", args.workload_name, args.seed));
        return layers::measure(args, &bins, run_dir, &logs, &trace_path);
    }
    match args.workload {
        Workload::StreamStanding => {
            let data = run_dir.join("stream");
            let inputs = inputs::stream_inputs(args.seed, STREAM_STEPS, &data)?;
            eprintln!(
                "stream_standing: {} appends, {} expected frames",
                inputs.schedule.len(),
                inputs.expected.iter().map(Vec::len).sum::<usize>()
            );
            workloads::stream(&bins, &inputs, &data, &logs, args.seconds)
        }
        w => {
            let data = run_dir.join("dat1");
            let dat1 = inputs::dat1_inputs(args.dat1_seed, &data)?;
            eprintln!(
                "{}: {} sensor rows, {}-row answer",
                args.workload_name,
                dat1.sensor_rows,
                dat1.answer.rows.len()
            );
            workloads::rackheat(w, &bins, &dat1, &data, &logs, args.seconds, args.seed)
        }
    }
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|Metric { name, value, unit }| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(".fleetbench").join(format!("run-{}", std::process::id()));
    let result = run(&args, &run_dir);
    if result.is_ok() {
        let _ = std::fs::remove_dir_all(&run_dir);
    }
    match result {
        Ok(outcome) if outcome.metrics.iter().all(|m| m.value.is_finite()) => {
            for m in &outcome.metrics {
                eprintln!("{:>32} {:>14.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("fleetbench: a metric is not a finite number");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fleetbench: {e} (daemon logs: {})", run_dir.display());
            ExitCode::FAILURE
        }
    }
}
