//! Append-mode session generator: seeded disarray schedules.
//!
//! The facility simulator's batch generators freeze a session into
//! datasets; this module replays the same kind of telemetry as a
//! *stream* of [`AppendBatch`]es — the "disarray" ScrubJay's title
//! promises, in five reproducible shapes:
//!
//! 1. [`Disarray::InOrder`] — every source advances in lockstep.
//! 2. [`Disarray::ClockSkew`] — the coolant source's clock lags the
//!    counter sources, holding the watermark back.
//! 3. [`Disarray::LateDuplicates`] — a slice of samples arrives one to
//!    two steps late (inside allowed lateness, forcing re-emission) and
//!    a few rows are re-sent verbatim (dropped by ingest dedup).
//! 4. [`Disarray::CounterWrap`] — hardware counters wrap mid-stream,
//!    exercising the rate derivation's reset handling incrementally.
//! 5. [`Disarray::RackSkew`] — one rack produces 80% of all rows.
//!
//! Every schedule is a pure function of its seed, so the equivalence
//! suite (`tests/streaming_equivalence.rs`) can replay identical streams
//! under both partition representations.

use crate::synth::{counters_schema, right_schema};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sjcore::catalog::Catalog;
use sjcore::{Result, Row, SjDataset, Timestamp, Value};
use sjdf::ExecCtx;
use sjstream::AppendBatch;
use std::collections::BTreeMap;

/// The five seeded disarray shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disarray {
    /// Sources advance in lockstep; no late or duplicate rows.
    InOrder,
    /// The coolant source's clock lags three steps behind the counter
    /// sources.
    ClockSkew,
    /// Some samples arrive late (within allowed lateness) and some rows
    /// are duplicated.
    LateDuplicates,
    /// Cumulative counters wrap to near zero mid-stream.
    CounterWrap,
    /// Rack 0 produces 80% of all rows.
    RackSkew,
}

impl Disarray {
    /// All five schedules, in a stable order.
    pub const ALL: [Disarray; 5] = [
        Disarray::InOrder,
        Disarray::ClockSkew,
        Disarray::LateDuplicates,
        Disarray::CounterWrap,
        Disarray::RackSkew,
    ];

    /// Stable scenario name (used in reports and artifacts).
    pub fn name(&self) -> &'static str {
        match self {
            Disarray::InOrder => "in_order",
            Disarray::ClockSkew => "clock_skew",
            Disarray::LateDuplicates => "late_duplicates",
            Disarray::CounterWrap => "counter_wrap",
            Disarray::RackSkew => "rack_skew",
        }
    }
}

/// Nodes cab0..cab3; cab0/cab1 are rack 0, cab2/cab3 rack 1.
const NODES: usize = 4;
/// Event-time width of one schedule step, seconds.
pub const STEP_SECS: i64 = 10;

/// A catalog with the two streamable datasets the schedules append to:
/// `papi_counters` (cumulative hardware counters) and `coolant`
/// (temperature readings), both registered empty — the stream is the
/// data.
pub fn stream_catalog(ctx: &ExecCtx) -> Result<Catalog> {
    let mut catalog = Catalog::default_hpc();
    catalog.register_dataset(
        "papi_counters",
        SjDataset::from_rows(ctx, Vec::new(), counters_schema(), "papi_counters", 1),
    )?;
    catalog.register_dataset(
        "coolant",
        SjDataset::from_rows(ctx, Vec::new(), right_schema(), "coolant", 1),
    )?;
    Ok(catalog)
}

/// Generate one disarray schedule: `steps` rounds of appends covering
/// `steps × STEP_SECS` seconds of event time, deterministically from
/// `seed`. Batches are emitted in delivery order; replaying them through
/// a [`sjstream::StreamEngine`] reproduces the same accepted prefix and
/// the same emissions every time.
pub fn disarray_schedule(kind: Disarray, seed: u64, steps: usize) -> Vec<AppendBatch> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x571_3EA3);
    let step_us = STEP_SECS * 1_000_000;
    // Per-node cumulative counter state [instr, cycles, memr, memw].
    let mut counters: Vec<[i64; 4]> = vec![[0; 4]; NODES];
    let rates: [i64; 4] = [2_000_000, 2_600_000, 400_000, 150_000];
    let wrap_step = steps / 2;
    let mut batches = Vec::new();
    // Rows held back for late delivery: (deliver_at_step, row).
    let mut held: Vec<(usize, Row)> = Vec::new();
    // Recent counter rows eligible for duplication.
    let mut recent: Vec<Row> = Vec::new();

    for step in 0..steps {
        let t0 = step as i64 * step_us;
        // How many samples each node produces this step.
        let samples_of = |node: usize| -> usize {
            match kind {
                Disarray::RackSkew if node < 2 => 4, // rack 0 carries 80% of the traffic
                _ => 1,
            }
        };

        let mut counter_rows: BTreeMap<usize, Vec<Row>> = BTreeMap::new();
        let mut coolant_rows: Vec<Row> = Vec::new();
        for (node, node_counters) in counters.iter_mut().enumerate() {
            let rack = node / 2;
            let n = samples_of(node);
            for s in 0..n {
                let t = t0 + (s as i64 * step_us) / n as i64 + rng.gen_range(0..step_us / 4);
                let dt_secs = STEP_SECS / n as i64;
                if kind == Disarray::CounterWrap && step == wrap_step && s == 0 {
                    // The counter register wraps: restart near zero.
                    for c in node_counters.iter_mut() {
                        *c = rng.gen_range(0..1_000);
                    }
                } else {
                    for (c, r) in node_counters.iter_mut().zip(rates) {
                        *c += dt_secs * r + rng.gen_range(0..r.max(1));
                    }
                }
                let [instr, cycles, memr, memw] = *node_counters;
                let row = Row::new(vec![
                    Value::str(format!("cab{node}")),
                    Value::Time(Timestamp::from_micros(t)),
                    Value::Int(instr),
                    Value::Int(cycles),
                    Value::Int(memr),
                    Value::Int(memw),
                ]);
                if kind == Disarray::LateDuplicates
                    && rng.gen_range(0..100) < 15
                    && step + 2 < steps
                {
                    held.push((step + 1 + rng.gen_range(0..2), row));
                } else {
                    counter_rows.entry(rack).or_default().push(row.clone());
                    recent.push(row);
                }
            }
            // One coolant reading per node per step.
            let t = t0 + rng.gen_range(0..step_us);
            let temp = 25.0
                + 4.0 * ((t as f64 / 180e6) * std::f64::consts::TAU).sin()
                + rng.gen_range(-50..50) as f64 / 100.0;
            coolant_rows.push(Row::new(vec![
                Value::str(format!("cab{node}")),
                Value::Time(Timestamp::from_micros(t)),
                Value::Float(temp),
            ]));
        }

        // Late re-deliveries and verbatim duplicates ride along with the
        // current step's rack-0 batch.
        if kind == Disarray::LateDuplicates {
            let mut still_held = Vec::new();
            for (deliver_at, row) in held.drain(..) {
                if deliver_at <= step {
                    counter_rows.entry(0).or_default().push(row);
                } else {
                    still_held.push((deliver_at, row));
                }
            }
            held = still_held;
            if !recent.is_empty() && rng.gen_range(0..100) < 40 {
                let dup = recent[rng.gen_range(0..recent.len())].clone();
                counter_rows.entry(0).or_default().push(dup);
            }
        }

        // Per-source clocks: counters report one clock per rack.
        let counter_clock = t0 + step_us;
        for (rack, rows) in counter_rows {
            batches.push(AppendBatch {
                dataset: "papi_counters".into(),
                source: format!("papi@rack{rack}"),
                source_clock_us: counter_clock,
                rows,
            });
        }
        // Make sure silent racks still advance their clock so the
        // watermark is not pinned by an idle source.
        for rack in 0..2 {
            let source = format!("papi@rack{rack}");
            if !batches
                .iter()
                .rev()
                .take(4)
                .any(|b| b.source == source && b.source_clock_us == counter_clock)
            {
                batches.push(AppendBatch {
                    dataset: "papi_counters".into(),
                    source,
                    source_clock_us: counter_clock,
                    rows: Vec::new(),
                });
            }
        }
        let coolant_clock = match kind {
            // The coolant daemon flushes on a delay: its clock trails
            // three steps behind the counter sources.
            Disarray::ClockSkew => (t0 - 3 * step_us + step_us).max(0),
            _ => counter_clock,
        };
        batches.push(AppendBatch {
            dataset: "coolant".into(),
            source: "coolant".into(),
            source_clock_us: coolant_clock,
            rows: coolant_rows,
        });
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic() {
        for kind in Disarray::ALL {
            let a = disarray_schedule(kind, 7, 12);
            let b = disarray_schedule(kind, 7, 12);
            assert_eq!(a, b, "{} not deterministic", kind.name());
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn late_duplicates_schedule_contains_duplicates() {
        let batches = disarray_schedule(Disarray::LateDuplicates, 3, 20);
        let rows: Vec<&Row> = batches
            .iter()
            .filter(|b| b.dataset == "papi_counters")
            .flat_map(|b| &b.rows)
            .collect();
        let distinct: std::collections::BTreeSet<String> =
            rows.iter().map(|r| format!("{r:?}")).collect();
        assert!(
            distinct.len() < rows.len(),
            "expected verbatim duplicates in the late_duplicates schedule"
        );
    }

    #[test]
    fn rack_skew_puts_most_rows_on_rack0() {
        let batches = disarray_schedule(Disarray::RackSkew, 11, 20);
        let (mut rack0, mut total) = (0usize, 0usize);
        for b in batches.iter().filter(|b| b.dataset == "papi_counters") {
            for r in &b.rows {
                total += 1;
                let node = r.get(0).to_string();
                if node == "cab0" || node == "cab1" {
                    rack0 += 1;
                }
            }
        }
        assert!(rack0 * 10 >= total * 7, "rack0 {rack0}/{total}");
    }
}
