//! Byte-identity probe: the columnar execute path must produce exactly
//! the rows the rowwise reference path produces, over a 100-seed sweep of
//! deliberately disarrayed inputs — duplicate timestamps, counter resets,
//! missing and unparsable times, NaN positions, null counter samples —
//! pushed through the derive-rate → interpolation-join pipeline. The
//! other column kernels get their own 100-seed sweeps: derive-heat,
//! the natural join, and the two ratio rules. Rows are compared through
//! their [`KeyAtom`] encoding, which is bit-exact for floats (NaN-safe)
//! and distinguishes Int/Float/Time lanes.

use sjcore::dataset::SjDataset;
use sjcore::derivations::combine::{InterpolationJoin, NaiveInterpolationJoin, NaturalJoin};
use sjcore::derivations::transform::{DeriveActiveFrequency, DeriveHeat, DeriveRate, DeriveRatio};
use sjcore::derivations::{Combination, Transformation};
use sjcore::semantics::{FieldSemantics, SemanticDictionary};
use sjcore::units::time::Timestamp;
use sjcore::value::KeyAtom;
use sjcore::{FieldDef, Row, Schema, Value};
use sjdf::{ExecCtx, FaultPlan, RetryPolicy};

/// splitmix64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

fn counter_schema() -> Schema {
    Schema::new(vec![
        FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
        FieldDef::new("time", FieldSemantics::domain("time", "datetime")),
        FieldDef::new(
            "instr",
            FieldSemantics::value("instructions", "instructions-count"),
        ),
        FieldDef::new(
            "mem",
            FieldSemantics::value("memory-reads", "memory-reads-count"),
        ),
    ])
    .unwrap()
}

fn readings_schema() -> Schema {
    Schema::new(vec![
        FieldDef::new("NODE", FieldSemantics::domain("compute-node", "node-id")),
        FieldDef::new(
            "loc",
            FieldSemantics::domain("rack-location", "location-name"),
        ),
        FieldDef::new("t", FieldSemantics::domain("time", "datetime")),
        FieldDef::new("temp", FieldSemantics::value("temperature", "celsius")),
    ])
    .unwrap()
}

/// Disarrayed counter samples: monotone counters with injected resets,
/// duplicate timestamps, missing/unparsable times and null samples.
fn counters(ctx: &ExecCtx, seed: u64) -> SjDataset {
    let mut rng = Rng::new(seed);
    let mut rows = Vec::new();
    for node in 0..3u64 {
        let mut t = rng.below(30) as i64;
        let mut instr = rng.below(1_000_000) as i64;
        let mut mem = rng.below(500_000) as i64;
        for _ in 0..(12 + rng.below(8)) {
            // Advance (or deliberately repeat) the sample time.
            if !rng.chance(15) {
                t += 1 + rng.below(9) as i64;
            }
            instr += rng.below(50_000) as i64;
            mem += rng.below(20_000) as i64;
            if rng.chance(8) {
                instr = rng.below(1_000) as i64; // counter reset
            }
            if rng.chance(8) {
                mem = rng.below(1_000) as i64; // independent reset
            }
            let time = if rng.chance(6) {
                Value::Null // missing timestamp
            } else if rng.chance(4) {
                Value::Float(f64::NAN) // unparsable source cell
            } else {
                Value::Time(Timestamp::from_secs(t))
            };
            let instr_v = if rng.chance(5) {
                Value::Null
            } else {
                Value::Int(instr)
            };
            let mem_v = if rng.chance(5) {
                Value::Null
            } else {
                Value::Int(mem)
            };
            rows.push(Row::new(vec![
                Value::str(format!("n{node}")),
                time,
                instr_v,
                mem_v,
            ]));
        }
    }
    let parts = 2 + (seed % 3) as usize;
    SjDataset::from_rows(ctx, rows, counter_schema(), "papi", parts)
}

/// Temperature readings with a residual location domain, scattered
/// sample times, and occasional NaN positions.
fn readings(ctx: &ExecCtx, seed: u64) -> SjDataset {
    let mut rng = Rng::new(seed ^ 0xdead_beef);
    let mut rows = Vec::new();
    for node in 0..3u64 {
        for loc in ["top", "bottom"] {
            let mut t = rng.below(20) as i64;
            for _ in 0..(10 + rng.below(6)) {
                t += 1 + rng.below(12) as i64;
                let time = if rng.chance(5) {
                    Value::Float(f64::NAN)
                } else {
                    Value::Time(Timestamp::from_secs(t))
                };
                rows.push(Row::new(vec![
                    Value::str(format!("n{node}")),
                    Value::str(loc),
                    time,
                    Value::Float(15.0 + rng.below(200) as f64 / 10.0),
                ]));
            }
        }
    }
    let parts = 2 + (seed % 2) as usize;
    SjDataset::from_rows(ctx, rows, readings_schema(), "coolant", parts)
}

/// derive-rate → interpolation-join, collected and canonicalized to
/// bit-exact key encodings.
fn pipeline(ctx: &ExecCtx, seed: u64) -> Vec<Vec<KeyAtom>> {
    let dict = SemanticDictionary::default_hpc();
    let rates = DeriveRate::new(1.0)
        .apply(&counters(ctx, seed), &dict)
        .unwrap();
    let joined = InterpolationJoin::new(10.0)
        .apply(&rates, &readings(ctx, seed), &dict)
        .unwrap();
    let mut rows: Vec<Vec<KeyAtom>> = joined
        .collect()
        .unwrap()
        .iter()
        .map(|r| r.values().iter().map(Value::key).collect())
        .collect();
    rows.sort();
    rows
}

#[test]
fn columnar_rowwise_identity_100_seed_sweep() {
    let mut total = 0usize;
    for seed in 0..100u64 {
        let col = pipeline(&ExecCtx::local(), seed);
        let row = pipeline(&ExecCtx::local().with_rowwise(), seed);
        assert_eq!(col, row, "columnar != rowwise at seed {seed}");
        total += col.len();
    }
    // The sweep must actually exercise the kernels, not compare vacuums.
    assert!(total > 1000, "suspiciously small sweep output: {total}");
}

/// A columnar context whose tasks and shuffle fetches fail at random
/// (seeded) and are retried.
fn faulty(seed: u64) -> ExecCtx {
    ExecCtx::local()
        .with_retry(RetryPolicy::retries(6))
        .with_faults(
            FaultPlan::seeded(seed)
                .with_task_fail_rate(0.05)
                .with_shuffle_fail_rate(0.05),
        )
}

#[test]
fn identity_holds_under_fault_injection() {
    // Injected task and shuffle-fetch failures are retried; the retried
    // columnar execution must still match the clean rowwise reference.
    for seed in 0..8u64 {
        let col = pipeline(&faulty(seed), seed);
        let row = pipeline(&ExecCtx::local().with_rowwise(), seed);
        assert_eq!(col, row, "faulty columnar != clean rowwise at seed {seed}");
    }
}

#[test]
fn naive_baseline_agrees_on_sample_seeds() {
    // Third opinion: the all-pairs baseline (always rowwise internally)
    // agrees with the columnar binning join on the same inputs.
    let dict = SemanticDictionary::default_hpc();
    for seed in 0..5u64 {
        let ctx = ExecCtx::local();
        let rates = DeriveRate::new(1.0)
            .apply(&counters(&ctx, seed), &dict)
            .unwrap();
        let r = readings(&ctx, seed);
        let canon = |ds: &SjDataset| {
            let mut rows: Vec<Vec<KeyAtom>> = ds
                .collect()
                .unwrap()
                .iter()
                .map(|row| row.values().iter().map(Value::key).collect())
                .collect();
            rows.sort();
            rows
        };
        let fast = canon(
            &InterpolationJoin::new(10.0)
                .apply(&rates, &r, &dict)
                .unwrap(),
        );
        let naive = canon(
            &NaiveInterpolationJoin::new(10.0)
                .apply(&rates, &r, &dict)
                .unwrap(),
        );
        assert_eq!(fast, naive, "binned != naive at seed {seed}");
    }
}

/// A dataset's rows as a sorted multiset of bit-exact key rows.
fn canon(ds: &SjDataset) -> Vec<Vec<KeyAtom>> {
    let mut rows: Vec<Vec<KeyAtom>> = ds
        .collect()
        .unwrap()
        .iter()
        .map(|r| r.values().iter().map(Value::key).collect())
        .collect();
    rows.sort();
    rows
}

/// Run `op` columnar and rowwise over 100 seeds, then columnar under
/// injected faults over 8, and require the rowwise answer every time.
/// Returns the total rows compared, so a sweep can prove it is not
/// comparing empty answers.
fn sweep(op: &str, run: impl Fn(&ExecCtx, u64) -> SjDataset) -> usize {
    let rowwise = |seed| canon(&run(&ExecCtx::local().with_rowwise(), seed));
    let mut total = 0;
    for seed in 0..100u64 {
        let col = canon(&run(&ExecCtx::local(), seed));
        assert_eq!(
            col,
            rowwise(seed),
            "{op}: columnar != rowwise at seed {seed}"
        );
        total += col.len();
    }
    for seed in 0..8u64 {
        let col = canon(&run(&faulty(seed), seed));
        assert_eq!(
            col,
            rowwise(seed),
            "{op}: faulty columnar != rowwise at seed {seed}"
        );
    }
    total
}

/// Deal `rows` out in a seed-dependent order.
fn shuffled(mut rows: Vec<Row>, rng: &mut Rng) -> Vec<Row> {
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.below(i as u64 + 1) as usize);
    }
    rows
}

/// Rack sensor readings in disarray: missing aisles, repeated readings
/// (a later one may be null or non-numeric), unknown and null aisle
/// values, null rack and NaN time key cells, and Int temperatures next
/// to Float ones. Rows are dealt out of order so one key's readings
/// span partitions.
fn rack_temps(ctx: &ExecCtx, seed: u64) -> SjDataset {
    let schema = Schema::new(vec![
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
    let mut rng = Rng::new(seed ^ 0x4ea7);
    let mut rows = Vec::new();
    for rack in 0..3 {
        for loc in ["top", "middle", "bottom"] {
            for step in 0..6i64 {
                let rack = if rng.chance(4) {
                    Value::Null
                } else {
                    Value::str(format!("r{rack}"))
                };
                let time = if rng.chance(4) {
                    Value::Float(f64::NAN)
                } else {
                    Value::Time(Timestamp::from_secs(step * 120))
                };
                for aisle in ["hot", "cold"] {
                    if rng.chance(10) {
                        continue; // this aisle never reported
                    }
                    for _ in 0..1 + rng.below(3) {
                        let aisle = match rng.below(20) {
                            0 => Value::str("side"),
                            1 => Value::Null,
                            _ => Value::str(aisle),
                        };
                        let temp = match rng.below(10) {
                            0 => Value::Null,
                            1 => Value::str("n/a"),
                            2 | 3 => Value::Int(20 + rng.below(30) as i64),
                            _ => Value::Float(15.0 + rng.below(300) as f64 / 10.0),
                        };
                        rows.push(Row::new(vec![
                            rack.clone(),
                            Value::str(loc),
                            aisle,
                            time.clone(),
                            temp,
                        ]));
                    }
                }
            }
        }
    }
    let rows = shuffled(rows, &mut rng);
    SjDataset::from_rows(ctx, rows, schema, "rack_temps", 2 + (seed % 3) as usize)
}

#[test]
fn derive_heat_identity_sweep() {
    let dict = SemanticDictionary::default_hpc();
    let total = sweep("derive_heat", |ctx, seed| {
        DeriveHeat.apply(&rack_temps(ctx, seed), &dict).unwrap()
    });
    assert!(total > 2000, "suspiciously small sweep output: {total}");
}

/// Two sides sharing the compute-node and time domains: duplicate keys
/// on both, null node and time cells, an Int node id among string ones
/// (so the node column's lane differs between partitions), and, every
/// fourth seed, more right partitions than rows (`from_rows` pads with
/// zero-column partitions).
fn join_sides(ctx: &ExecCtx, seed: u64) -> (SjDataset, SjDataset) {
    let mut rng = Rng::new(seed ^ 0x901e);
    let key = |rng: &mut Rng| {
        let node = match rng.below(8) {
            0 => Value::Null,
            1 => Value::Int(3),
            n => Value::str(format!("n{}", n % 4)),
        };
        let time = match rng.below(6) {
            0 => Value::Null,
            n => Value::Time(Timestamp::from_secs(10 * (n % 3) as i64)),
        };
        (node, time)
    };
    let left: Vec<Row> = (0..20 + rng.below(20))
        .map(|_| {
            let (node, time) = key(&mut rng);
            let temp = Value::Float(15.0 + rng.below(200) as f64 / 10.0);
            Row::new(vec![node, time, temp])
        })
        .collect();
    let right: Vec<Row> = (0..3 + rng.below(10))
        .map(|_| {
            let (node, time) = key(&mut rng);
            Row::new(vec![
                node,
                time,
                Value::str(format!("rack{}", rng.below(3))),
            ])
        })
        .collect();
    let left_schema = Schema::new(vec![
        FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
        FieldDef::new("t", FieldSemantics::domain("time", "datetime")),
        FieldDef::new("temp", FieldSemantics::value("temperature", "celsius")),
    ])
    .unwrap();
    let right_schema = Schema::new(vec![
        FieldDef::new("NODEID", FieldSemantics::domain("compute-node", "node-id")),
        FieldDef::new("time", FieldSemantics::domain("time", "datetime")),
        FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
    ])
    .unwrap();
    let right_parts = if seed.is_multiple_of(4) {
        right.len() + 2
    } else {
        1 + (seed % 3) as usize
    };
    (
        SjDataset::from_rows(ctx, left, left_schema, "temps", 2 + (seed % 3) as usize),
        SjDataset::from_rows(ctx, right, right_schema, "layout", right_parts),
    )
}

#[test]
fn natural_join_identity_sweep() {
    let dict = SemanticDictionary::default_hpc();
    let total = sweep("natural_join", |ctx, seed| {
        let (left, right) = join_sides(ctx, seed);
        NaturalJoin.apply(&left, &right, &dict).unwrap()
    });
    assert!(total > 1000, "suspiciously small sweep output: {total}");
}

/// A numeric operand: Float, Int, null, NaN, zero, negative, or (rarely)
/// a non-numeric string.
fn operand(rng: &mut Rng) -> Value {
    match rng.below(12) {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(0.0),
        3 => Value::Int(0),
        4 => Value::Float(-(1.0 + rng.below(100) as f64)),
        5 => Value::str("n/a"),
        6 | 7 => Value::Int(1 + rng.below(5_000) as i64),
        _ => Value::Float(0.5 + rng.below(5_000) as f64 / 7.0),
    }
}

/// Rows of a domain id plus `values` operand columns.
fn operands(ctx: &ExecCtx, seed: u64, schema: Schema) -> SjDataset {
    let mut rng = Rng::new(seed ^ 0x7a71);
    let width = schema.len() - 1;
    let rows: Vec<Row> = (0..30 + rng.below(30))
        .map(|i| {
            let mut cells = vec![Value::str(format!("id{i}"))];
            cells.extend((0..width).map(|_| operand(&mut rng)));
            Row::new(cells)
        })
        .collect();
    SjDataset::from_rows(ctx, rows, schema, "operands", 1 + (seed % 4) as usize)
}

#[test]
fn ratio_rules_identity_sweep() {
    let dict = SemanticDictionary::default_hpc();
    let ratio = DeriveRatio {
        new_column: "instr_per_sec".into(),
        dimension: "instructions".into(),
        units: "instructions-per-sec".into(),
        numerator: "instr".into(),
        denominator: "elapsed".into(),
        scale: 1.5,
    };
    let total = sweep("derive_ratio", |ctx, seed| {
        let schema = Schema::new(vec![
            FieldDef::new("job", FieldSemantics::domain("job", "job-id")),
            FieldDef::new(
                "instr",
                FieldSemantics::value("instructions", "instructions-count"),
            ),
            FieldDef::new("elapsed", FieldSemantics::value("time", "t-seconds")),
        ])
        .unwrap();
        ratio.apply(&operands(ctx, seed, schema), &dict).unwrap()
    });
    assert!(total > 3000, "suspiciously small sweep output: {total}");
    let total = sweep("derive_active_frequency", |ctx, seed| {
        let schema = Schema::new(vec![
            FieldDef::new("cpu", FieldSemantics::domain("cpu", "cpu-id")),
            FieldDef::new("aperf_rate", FieldSemantics::value("aperf", "aperf-per-ms")),
            FieldDef::new("mperf_rate", FieldSemantics::value("mperf", "mperf-per-ms")),
            FieldDef::new(
                "base_freq",
                FieldSemantics::value("base-frequency", "base-megahertz"),
            ),
        ])
        .unwrap();
        let ds = operands(ctx, seed, schema);
        DeriveActiveFrequency.apply(&ds, &dict).unwrap()
    });
    assert!(total > 3000, "suspiciously small sweep output: {total}");
}
