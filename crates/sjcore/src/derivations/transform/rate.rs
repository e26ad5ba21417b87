//! Windowed counter-rate derivation (§7.3).
//!
//! Much CPU and node data records *cumulative counts* of events
//! (instructions, memory accesses) that reset at arbitrary intervals, so
//! absolute values are meaningless by themselves. `DeriveRate` computes
//! the rate of change of every cumulative-counter column with respect to
//! the time window between consecutive samples, per domain entity —
//! effectively the instantaneous frequency of events.
//!
//! Two implementations share one contract:
//!
//! * the **columnar** kernel (default): batches are filtered, routed with
//!   [`sjdf`'s `exchange`](sjdf::rdd::Rdd::exchange) shuffle as whole
//!   typed sub-batches, grouped by byte-encoded entity keys, and the
//!   output is built column-at-a-time — no `Row` is materialized anywhere;
//! * the **rowwise** kernel, kept as the reference baseline when the
//!   context runs in rowwise mode.
//!
//! Null handling: a sample whose time cell is missing or non-time cannot
//! anchor a window and is dropped *before* pairing (it would otherwise
//! sort to the front of its entity group and silently consume a
//! neighbor's window). Within a window, a counter whose delta is
//! meaningless (reset, i.e. `c1 < c0`, or a missing sample) yields a null
//! rate for that counter only; the window row is emitted as long as at
//! least one counter produced a valid rate, and dropped when none did.

use crate::column::{ColumnarPartition, FloatBuilder};
use crate::dataset::SjDataset;
use crate::derivations::keyed::{scatter_by_key, KeyGroups, RowKeys};
use crate::derivations::{not_applicable, DerivationSpec, Transformation};
use crate::error::Result;
use crate::schema::{FieldDef, Schema};
use crate::semantics::{FieldSemantics, SemanticDictionary};
use crate::units::time::MICROS_PER_SEC;
use crate::units::UnitKind;
use crate::value::Value;

/// Replace every cumulative-counter column with its windowed rate of
/// change, expressed per `per_secs` seconds (0.001 = per millisecond).
#[derive(Debug, Clone, PartialEq)]
pub struct DeriveRate {
    per_secs: f64,
}

/// Column indices the rate kernel operates on, resolved once against the
/// input schema: the datetime domain, the cumulative counters to replace,
/// and the remaining domain columns forming the entity key.
struct RateCols {
    time: usize,
    counters: Vec<usize>,
    groups: Vec<usize>,
}

impl DeriveRate {
    /// Derive rates expressed over a `per_secs`-second window.
    pub fn new(per_secs: f64) -> Self {
        DeriveRate { per_secs }
    }

    /// Find the time domain column and the counter columns.
    fn analyze(
        &self,
        schema: &Schema,
        dict: &SemanticDictionary,
    ) -> Result<(usize, Vec<(usize, String)>)> {
        let mut time_idx = None;
        let mut counters = Vec::new();
        for (i, f) in schema.fields().iter().enumerate() {
            let units = dict.units(&f.semantics.units)?;
            if f.semantics.is_domain() && matches!(units.kind, UnitKind::DateTime) {
                time_idx = Some(i);
            }
            if matches!(units.kind, UnitKind::CumulativeCount) {
                // The output rate units on the same dimension.
                let suffix = if (self.per_secs - 0.001).abs() < 1e-12 {
                    "per-ms"
                } else if (self.per_secs - 1.0).abs() < 1e-12 {
                    "per-sec"
                } else {
                    return Err(not_applicable(
                        "derive_rate",
                        format!("no rate units registered for window {}s", self.per_secs),
                    ));
                };
                let rate_units = format!("{}-{}", f.semantics.dimension, suffix);
                dict.units(&rate_units)?;
                counters.push((i, rate_units));
            }
        }
        let time_idx = time_idx.ok_or_else(|| {
            not_applicable("derive_rate", "dataset has no datetime domain column")
        })?;
        if counters.is_empty() {
            return Err(not_applicable(
                "derive_rate",
                "dataset has no cumulative-counter columns",
            ));
        }
        Ok((time_idx, counters))
    }

    /// The columnar kernel. Three stages, all batch-native:
    /// 1. `rate_scatter` ([`scatter_by_key`]) — drop rows without a
    ///    usable timestamp, bucket the rest by entity-key hash, and gather
    ///    one typed sub-batch per destination;
    /// 2. `exchange` — deliver sub-batches whole (they never decay to
    ///    rows in flight);
    /// 3. `derive_rate` — group by encoded entity key ([`KeyGroups`]),
    ///    stable-sort each group's row indices by time, and emit rate
    ///    windows through per-counter `FloatBuilder`s plus one `gather`
    ///    for the pass-through columns.
    fn apply_columnar(
        &self,
        ds: &SjDataset,
        out_schema: Schema,
        name: String,
        cols: RateCols,
        per_micros: f64,
    ) -> Result<SjDataset> {
        let RateCols {
            time: time_idx,
            counters: counter_idx,
            groups: group_idx,
        } = cols;
        let parts = ds.num_partitions().max(1);
        let scattered = scatter_by_key(
            &ds.batch_rdd(),
            "rate_scatter",
            group_idx.clone(),
            parts,
            move |batch, r| batch.column(time_idx).time_micros_at(r).is_some(),
        );
        let rdd = scattered.map_partitions_named("derive_rate", move |bs| {
            let batch = ColumnarPartition::concat_owned(bs);
            let n = batch.len();
            if n == 0 {
                return Vec::new();
            }
            let keys = RowKeys::encode(&batch, &group_idx);
            let mut groups = KeyGroups::new(&keys);
            let tcol = batch.column(time_idx);
            let mut emit: Vec<u32> = Vec::new();
            let mut builders: Vec<FloatBuilder> = counter_idx
                .iter()
                .map(|_| FloatBuilder::with_capacity(n))
                .collect();
            let mut rates: Vec<Option<f64>> = vec![None; counter_idx.len()];
            for rows in groups.iter_mut() {
                // Scatter already removed null-time rows, so every index
                // sorts on a real timestamp.
                rows.sort_by_key(|&r| tcol.time_micros_at(r as usize));
                for w in rows.windows(2) {
                    let (p, c) = (w[0] as usize, w[1] as usize);
                    let (Some(t0), Some(t1)) = (tcol.time_micros_at(p), tcol.time_micros_at(c))
                    else {
                        continue;
                    };
                    let dt = (t1 - t0) as f64;
                    if dt <= 0.0 {
                        continue;
                    }
                    let mut any_valid = false;
                    for (k, &ci) in counter_idx.iter().enumerate() {
                        let col = batch.column(ci);
                        rates[k] = match (col.f64_at(p), col.f64_at(c)) {
                            (Some(c0), Some(c1)) if c1 >= c0 => {
                                any_valid = true;
                                Some((c1 - c0) / (dt / per_micros))
                            }
                            _ => None,
                        };
                    }
                    if any_valid {
                        emit.push(w[1]);
                        for (k, b) in builders.iter_mut().enumerate() {
                            b.push(rates[k]);
                        }
                    }
                }
            }
            let mut out = batch.gather(&emit);
            for (&ci, b) in counter_idx.iter().zip(builders) {
                out = out.with_column(ci, b.finish());
            }
            vec![out]
        });
        Ok(SjDataset::from_batches(rdd, out_schema, name))
    }
}

impl Transformation for DeriveRate {
    fn name(&self) -> &'static str {
        "derive_rate"
    }

    fn derive_schema(&self, schema: &Schema, dict: &SemanticDictionary) -> Result<Schema> {
        let (_, counters) = self.analyze(schema, dict)?;
        let mut out = schema.clone();
        for (idx, rate_units) in counters {
            let f = &schema.fields()[idx];
            out = out.with_replaced(
                &f.name,
                FieldDef::new(
                    &format!("{}_rate", f.name),
                    FieldSemantics {
                        relation: f.semantics.relation,
                        dimension: f.semantics.dimension.clone(),
                        units: rate_units,
                    },
                ),
            )?;
        }
        Ok(out)
    }

    fn apply(&self, ds: &SjDataset, dict: &SemanticDictionary) -> Result<SjDataset> {
        let out_schema = self.derive_schema(ds.schema(), dict)?;
        let (time_idx, counters) = self.analyze(ds.schema(), dict)?;
        let counter_idx: Vec<usize> = counters.iter().map(|(i, _)| *i).collect();
        // Group by every domain column except time (the entity identity).
        let group_idx: Vec<usize> = ds
            .schema()
            .fields()
            .iter()
            .enumerate()
            .filter(|(i, f)| f.semantics.is_domain() && *i != time_idx)
            .map(|(i, _)| i)
            .collect();
        let per_micros = self.per_secs * MICROS_PER_SEC as f64;
        let name = format!("derive_rate({})", ds.name());
        if ds.is_columnar() {
            let cols = RateCols {
                time: time_idx,
                counters: counter_idx,
                groups: group_idx,
            };
            return self.apply_columnar(ds, out_schema, name, cols, per_micros);
        }
        let parts = ds.num_partitions().max(1);
        let keyed = ds.rdd().map_partitions_named("key_by_entity", {
            let group_idx = group_idx.clone();
            move |rows| {
                rows.into_iter()
                    // Rows without a usable timestamp cannot anchor a rate
                    // window; dropping them here keeps them from sorting to
                    // the front of an entity group and consuming a
                    // neighbor's window below.
                    .filter(|r| r.get(time_idx).as_time().is_some())
                    .map(|r| (r.key_of(&group_idx), r))
                    .collect()
            }
        });
        let rdd = keyed
            .group_by_key(parts)
            .map_partitions_named("derive_rate", move |groups| {
                let mut out = Vec::new();
                for (_, mut rows) in groups {
                    rows.sort_by_key(|r| r.get(time_idx).as_time().map(|t| t.as_micros()));
                    for pair in rows.windows(2) {
                        let (prev, cur) = (&pair[0], &pair[1]);
                        let (Some(t0), Some(t1)) =
                            (prev.get(time_idx).as_time(), cur.get(time_idx).as_time())
                        else {
                            continue;
                        };
                        let dt = (t1.as_micros() - t0.as_micros()) as f64;
                        if dt <= 0.0 {
                            continue;
                        }
                        // Rate per `per_secs` window: delta / (dt / per_micros).
                        let mut row = cur.clone();
                        let mut any_valid = false;
                        for &ci in &counter_idx {
                            match (prev.get(ci).as_f64(), cur.get(ci).as_f64()) {
                                (Some(c0), Some(c1)) if c1 >= c0 => {
                                    let rate = (c1 - c0) / (dt / per_micros);
                                    row = row.with_value(ci, Value::Float(rate));
                                    any_valid = true;
                                }
                                // Counter reset (or missing sample): this
                                // counter's delta is meaningless — null its
                                // rate, but keep the window for the other
                                // counters.
                                _ => {
                                    row = row.with_value(ci, Value::Null);
                                }
                            }
                        }
                        if any_valid {
                            out.push(row);
                        }
                    }
                }
                out
            });
        Ok(SjDataset::new(rdd, out_schema, name))
    }

    fn spec(&self) -> DerivationSpec {
        DerivationSpec::DeriveRate {
            per_secs: self.per_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::units::time::Timestamp;
    use sjdf::ExecCtx;

    fn counter_schema() -> Schema {
        Schema::new(vec![
            FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
            FieldDef::new("cpu", FieldSemantics::domain("cpu", "cpu-id")),
            FieldDef::new("time", FieldSemantics::domain("time", "datetime")),
            FieldDef::new(
                "instr",
                FieldSemantics::value("instructions", "instructions-count"),
            ),
        ])
        .unwrap()
    }

    fn counters(ctx: &ExecCtx) -> SjDataset {
        let mk = |cpu: &str, secs: i64, count: i64| {
            Row::new(vec![
                Value::str("n1"),
                Value::str(cpu),
                Value::Time(Timestamp::from_secs(secs)),
                Value::Int(count),
            ])
        };
        let rows = vec![
            mk("c0", 0, 0),
            mk("c0", 1, 2_000_000),
            mk("c0", 2, 5_000_000),
            mk("c1", 0, 0),
            mk("c1", 2, 1_000_000),
            // Counter reset on c1 between t=2 and t=3.
            mk("c1", 3, 100),
        ];
        SjDataset::from_rows(ctx, rows, counter_schema(), "papi", 2)
    }

    /// Two-counter schema for the mixed-reset golden test.
    fn two_counter_schema() -> Schema {
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

    fn run_both_modes(
        build: impl Fn(&ExecCtx) -> SjDataset,
        per_secs: f64,
    ) -> (Vec<Row>, Vec<Row>) {
        let dict = SemanticDictionary::default_hpc();
        let sort = |mut rows: Vec<Row>| {
            rows.sort_by_key(|r| r.values().iter().map(Value::key).collect::<Vec<_>>());
            rows
        };
        let col = {
            let ctx = ExecCtx::local();
            let out = DeriveRate::new(per_secs)
                .apply(&build(&ctx), &dict)
                .unwrap();
            sort(out.collect().unwrap())
        };
        let row = {
            let ctx = ExecCtx::local().with_rowwise();
            let out = DeriveRate::new(per_secs)
                .apply(&build(&ctx), &dict)
                .unwrap();
            sort(out.collect().unwrap())
        };
        (col, row)
    }

    #[test]
    fn schema_replaces_counters_with_rates() {
        let ctx = ExecCtx::local();
        let dict = SemanticDictionary::default_hpc();
        let out = DeriveRate::new(0.001)
            .derive_schema(counters(&ctx).schema(), &dict)
            .unwrap();
        let f = out.field("instr_rate").unwrap();
        assert_eq!(f.semantics.units, "instructions-per-ms");
        assert_eq!(f.semantics.dimension, "instructions");
        assert!(!out.has_column("instr"));
    }

    #[test]
    fn rates_are_deltas_over_windows() {
        let ctx = ExecCtx::local();
        let dict = SemanticDictionary::default_hpc();
        let out = DeriveRate::new(0.001)
            .apply(&counters(&ctx), &dict)
            .unwrap();
        let mut rows = out.collect().unwrap();
        rows.sort_by_key(|r| {
            (
                r.get(1).as_str().unwrap().to_string(),
                r.get(2).as_time().unwrap(),
            )
        });
        // c0: (2e6-0)/1s = 2000 per ms; (5e6-2e6)/1s = 3000 per ms.
        assert_eq!(rows[0].get(3).as_f64().unwrap(), 2000.0);
        assert_eq!(rows[1].get(3).as_f64().unwrap(), 3000.0);
        // c1: (1e6-0)/2s = 500 per ms; the reset window is dropped
        // (its only counter has no valid rate).
        assert_eq!(rows[2].get(3).as_f64().unwrap(), 500.0);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn per_second_rates_use_per_sec_units() {
        let ctx = ExecCtx::local();
        let dict = SemanticDictionary::default_hpc();
        let out = DeriveRate::new(1.0).apply(&counters(&ctx), &dict).unwrap();
        assert_eq!(
            out.schema().field("instr_rate").unwrap().semantics.units,
            "instructions-per-sec"
        );
        let mut vals: Vec<f64> = out
            .collect_column("instr_rate")
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        vals.sort_by(f64::total_cmp);
        assert_eq!(vals, vec![500_000.0, 2_000_000.0, 3_000_000.0]);
    }

    #[test]
    fn mixed_reset_nulls_only_the_reset_counter() {
        // Golden: two counters; `mem` resets in the second window while
        // `instr` keeps counting. The window must survive with
        // instr_rate valid and mem_rate null — not be dropped wholesale.
        let build = |ctx: &ExecCtx| {
            let mk = |secs: i64, instr: i64, mem: i64| {
                Row::new(vec![
                    Value::str("n1"),
                    Value::Time(Timestamp::from_secs(secs)),
                    Value::Int(instr),
                    Value::Int(mem),
                ])
            };
            let rows = vec![
                mk(0, 0, 0),
                mk(1, 1_000_000, 4_000_000),
                mk(2, 3_000_000, 50), // mem reset here
            ];
            SjDataset::from_rows(ctx, rows, two_counter_schema(), "papi2", 1)
        };
        let (col, row) = run_both_modes(build, 0.001);
        for rows in [&col, &row] {
            assert_eq!(rows.len(), 2, "both windows must be emitted");
            // Window t=0..1: both counters valid.
            assert_eq!(rows[0].get(2), &Value::Float(1000.0));
            assert_eq!(rows[0].get(3), &Value::Float(4000.0));
            // Window t=1..2: instr valid, mem reset -> null.
            assert_eq!(rows[1].get(2), &Value::Float(2000.0));
            assert_eq!(rows[1].get(3), &Value::Null);
        }
        assert_eq!(col, row, "columnar and rowwise kernels must agree");
    }

    #[test]
    fn null_time_rows_do_not_consume_windows() {
        // Golden: a null-time sample must be ignored entirely. Before the
        // fix it sorted to the front of the entity group and paired with
        // the first real sample, destroying that window.
        let build = |ctx: &ExecCtx| {
            let rows = vec![
                Row::new(vec![
                    Value::str("n1"),
                    Value::str("c0"),
                    Value::Null, // unparsable/missing timestamp
                    Value::Int(999),
                ]),
                Row::new(vec![
                    Value::str("n1"),
                    Value::str("c0"),
                    Value::Time(Timestamp::from_secs(0)),
                    Value::Int(0),
                ]),
                Row::new(vec![
                    Value::str("n1"),
                    Value::str("c0"),
                    Value::Time(Timestamp::from_secs(1)),
                    Value::Int(1_000_000),
                ]),
            ];
            SjDataset::from_rows(ctx, rows, counter_schema(), "papi", 1)
        };
        let (col, row) = run_both_modes(build, 0.001);
        for rows in [&col, &row] {
            assert_eq!(rows.len(), 1, "only the real t=0..1 window survives");
            assert_eq!(rows[0].get(3), &Value::Float(1000.0));
        }
        assert_eq!(col, row);
    }

    #[test]
    fn duplicate_timestamps_pair_nothing() {
        // Golden: two samples at the same instant give dt = 0; that
        // window is skipped, and the surrounding windows still pair
        // against the duplicates in stable (arrival) order.
        let build = |ctx: &ExecCtx| {
            let mk = |secs: i64, count: i64| {
                Row::new(vec![
                    Value::str("n1"),
                    Value::str("c0"),
                    Value::Time(Timestamp::from_secs(secs)),
                    Value::Int(count),
                ])
            };
            let rows = vec![
                mk(0, 0),
                mk(1, 1_000_000),
                mk(1, 2_000_000),
                mk(2, 4_000_000),
            ];
            SjDataset::from_rows(ctx, rows, counter_schema(), "papi", 1)
        };
        let (col, row) = run_both_modes(build, 0.001);
        for rows in [&col, &row] {
            // Windows: (0,1a) = 1000, (1a,1b) dt=0 skipped, (1b,2) = 2000.
            let mut rates: Vec<f64> = rows.iter().map(|r| r.get(3).as_f64().unwrap()).collect();
            rates.sort_by(f64::total_cmp);
            assert_eq!(rates, vec![1000.0, 2000.0]);
        }
        assert_eq!(col, row);
    }

    #[test]
    fn counter_wrap_drops_only_the_wrapped_window() {
        // Golden: a counter that wraps (large -> small) behaves like a
        // reset: that window's only counter is invalid, so the window is
        // dropped; later windows resume from the post-wrap baseline.
        let build = |ctx: &ExecCtx| {
            let mk = |secs: i64, count: i64| {
                Row::new(vec![
                    Value::str("n1"),
                    Value::str("c0"),
                    Value::Time(Timestamp::from_secs(secs)),
                    Value::Int(count),
                ])
            };
            let rows = vec![
                mk(0, u32::MAX as i64 - 1_000_000),
                mk(1, u32::MAX as i64), // +1e6 in 1s
                mk(2, 500_000),         // 32-bit wrap
                mk(3, 1_500_000),
            ];
            SjDataset::from_rows(ctx, rows, counter_schema(), "papi", 1)
        };
        let (col, row) = run_both_modes(build, 0.001);
        for rows in [&col, &row] {
            let mut rates: Vec<f64> = rows.iter().map(|r| r.get(3).as_f64().unwrap()).collect();
            rates.sort_by(f64::total_cmp);
            assert_eq!(rates, vec![1000.0, 1000.0]);
        }
        assert_eq!(col, row);
    }

    #[test]
    fn columnar_and_rowwise_agree_on_the_base_dataset() {
        let (col, row) = run_both_modes(counters, 0.001);
        assert_eq!(col.len(), 3);
        assert_eq!(col, row);
    }

    #[test]
    fn requires_time_and_counters() {
        let ctx = ExecCtx::local();
        let dict = SemanticDictionary::default_hpc();
        // No counters.
        let schema = Schema::new(vec![
            FieldDef::new("time", FieldSemantics::domain("time", "datetime")),
            FieldDef::new("temp", FieldSemantics::value("temperature", "celsius")),
        ])
        .unwrap();
        let ds = SjDataset::from_rows(&ctx, vec![], schema, "x", 1);
        assert!(DeriveRate::new(0.001)
            .derive_schema(ds.schema(), &dict)
            .is_err());
        // No time domain.
        let schema = Schema::new(vec![FieldDef::new(
            "instr",
            FieldSemantics::value("instructions", "instructions-count"),
        )])
        .unwrap();
        let ds = SjDataset::from_rows(&ctx, vec![], schema, "x", 1);
        assert!(DeriveRate::new(0.001)
            .derive_schema(ds.schema(), &dict)
            .is_err());
    }

    #[test]
    fn unknown_rate_window_rejected() {
        let ctx = ExecCtx::local();
        let dict = SemanticDictionary::default_hpc();
        assert!(DeriveRate::new(7.5)
            .derive_schema(counters(&ctx).schema(), &dict)
            .is_err());
    }
}
