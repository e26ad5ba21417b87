//! Reproducible derivation plans (§5.4).
//!
//! A [`Plan`] is the serializable tree of derivation operations the engine
//! found for a query: data loading at the leaves, transformations and
//! combinations above. Plans serialize to JSON, are human-readable and
//! editable, and execute against a catalog — optionally through the
//! intermediate-result cache.

use crate::cache::ResultCache;
use crate::catalog::Catalog;
use crate::dataset::SjDataset;
use crate::derivations::DerivationSpec;
use crate::error::{Result, SjError};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// A derivation sequence, represented as an operator tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "node", rename_all = "snake_case")]
pub enum Plan {
    /// Load a named dataset from the catalog.
    Load {
        /// Registered dataset name.
        dataset: String,
    },
    /// Apply a transformation to a sub-plan's result.
    Transform {
        /// The transformation to apply.
        spec: DerivationSpec,
        /// Input plan.
        input: Box<Plan>,
    },
    /// Combine two sub-plans' results.
    Combine {
        /// The combination to apply.
        spec: DerivationSpec,
        /// Left input plan.
        left: Box<Plan>,
        /// Right input plan.
        right: Box<Plan>,
    },
}

impl Plan {
    /// Load a named dataset.
    pub fn load(dataset: &str) -> Plan {
        Plan::Load {
            dataset: dataset.into(),
        }
    }

    /// Wrap this plan in a transformation.
    pub fn then(self, spec: DerivationSpec) -> Plan {
        Plan::Transform {
            spec,
            input: Box::new(self),
        }
    }

    /// Combine this plan with another.
    pub fn combine(self, spec: DerivationSpec, right: Plan) -> Plan {
        Plan::Combine {
            spec,
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plans always serialize")
    }

    /// Parse from JSON.
    pub fn from_json(text: &str) -> Result<Plan> {
        serde_json::from_str(text).map_err(|e| SjError::ParseError(e.to_string()))
    }

    /// Stable fingerprint of this plan subtree (the result-cache key).
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        serde_json::to_string(self)
            .expect("plans always serialize")
            .hash(&mut h);
        h.finish()
    }

    /// All operation specs in execution (post-)order.
    pub fn ops(&self) -> Vec<&DerivationSpec> {
        let mut out = Vec::new();
        self.visit(&mut |p| match p {
            Plan::Transform { spec, .. } | Plan::Combine { spec, .. } => out.push(spec),
            Plan::Load { .. } => {}
        });
        out
    }

    /// Names of all loaded datasets in execution order.
    pub fn loads(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit(&mut |p| {
            if let Plan::Load { dataset } = p {
                out.push(dataset.as_str());
            }
        });
        out
    }

    /// Number of combinations in the plan.
    pub fn num_combines(&self) -> usize {
        self.ops()
            .iter()
            .filter(|s| s.as_combination().is_some())
            .count()
    }

    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Plan)) {
        match self {
            Plan::Load { .. } => f(self),
            Plan::Transform { input, .. } => {
                input.visit(f);
                f(self);
            }
            Plan::Combine { left, right, .. } => {
                left.visit(f);
                right.visit(f);
                f(self);
            }
        }
    }

    /// Execute the plan against a catalog, optionally reusing and storing
    /// intermediate results in the LRU result cache.
    pub fn execute(&self, catalog: &Catalog, cache: Option<&ResultCache>) -> Result<SjDataset> {
        match self {
            Plan::Load { dataset } => Ok(catalog.dataset(dataset)?.clone()),
            Plan::Transform { spec, input } => {
                if let Some(hit) = self.cached(catalog, cache) {
                    return Ok(hit);
                }
                let in_ds = input.execute(catalog, cache)?;
                let t = spec.as_transformation().ok_or_else(|| {
                    SjError::SemanticsInvalid(format!(
                        "`{}` is not a transformation",
                        spec.op_name()
                    ))
                })?;
                let out = t.apply(&in_ds, catalog.dict())?;
                self.store(cache, &out)?;
                Ok(out)
            }
            Plan::Combine { spec, left, right } => {
                if let Some(hit) = self.cached(catalog, cache) {
                    return Ok(hit);
                }
                let l = left.execute(catalog, cache)?;
                let r = right.execute(catalog, cache)?;
                let c = spec.as_combination().ok_or_else(|| {
                    SjError::SemanticsInvalid(format!("`{}` is not a combination", spec.op_name()))
                })?;
                let out = c.apply(&l, &r, catalog.dict())?;
                self.store(cache, &out)?;
                Ok(out)
            }
        }
    }

    fn cached(&self, catalog: &Catalog, cache: Option<&ResultCache>) -> Option<SjDataset> {
        let entry = cache?.get(self.fingerprint())?;
        let (schema, rows) = &*entry;
        // Rebuild a dataset on the execution context of any catalog
        // dataset (they all share one).
        let ctx = catalog
            .datasets()
            .next()
            .map(|(_, d)| d.ctx().clone())
            .unwrap_or_default();
        let parts = ctx.cluster.default_partitions().min(rows.len().max(1));
        Some(SjDataset::from_rows(
            &ctx,
            rows.clone(),
            schema.clone(),
            format!("cached({})", self.fingerprint()),
            parts,
        ))
    }

    fn store(&self, cache: Option<&ResultCache>, ds: &SjDataset) -> Result<()> {
        if let Some(cache) = cache {
            cache.put(self.fingerprint(), ds.schema().clone(), ds.collect()?);
        }
        Ok(())
    }

    /// Render as an indented tree (the shape of the paper's Figures 5/7).
    pub fn describe(&self) -> String {
        fn spec_label(spec: &DerivationSpec) -> String {
            match spec {
                DerivationSpec::ExplodeDiscrete { column } => {
                    format!("explode_discrete({column})")
                }
                DerivationSpec::ExplodeContinuous { column, step_secs } => {
                    format!("explode_continuous({column}, step={step_secs}s)")
                }
                DerivationSpec::ConvertUnits { column, to } => {
                    format!("convert_units({column} -> {to})")
                }
                DerivationSpec::DeriveRate { per_secs } => {
                    format!("derive_count_rate(per {per_secs}s)")
                }
                DerivationSpec::DeriveRatio { new_column, .. } => {
                    format!("derive_ratio({new_column})")
                }
                DerivationSpec::DeriveHeat => "derive_heat".into(),
                DerivationSpec::DeriveActiveFrequency => "derive_active_frequency".into(),
                DerivationSpec::NaturalJoin => "natural_join".into(),
                DerivationSpec::InterpolationJoin { window_secs } => {
                    format!("interpolation_join(W={window_secs}s)")
                }
            }
        }
        fn walk(plan: &Plan, prefix: &str, is_last: bool, out: &mut String, is_root: bool) {
            let (label, children): (String, Vec<&Plan>) = match plan {
                Plan::Load { dataset } => (format!("load({dataset})"), vec![]),
                Plan::Transform { spec, input } => (spec_label(spec), vec![input]),
                Plan::Combine { spec, left, right } => {
                    (spec_label(spec), vec![left.as_ref(), right.as_ref()])
                }
            };
            if is_root {
                out.push_str(&label);
                out.push('\n');
            } else {
                out.push_str(prefix);
                out.push_str(if is_last { "└─ " } else { "├─ " });
                out.push_str(&label);
                out.push('\n');
            }
            let child_prefix = if is_root {
                String::new()
            } else {
                format!("{prefix}{}", if is_last { "   " } else { "│  " })
            };
            let n = children.len();
            for (i, c) in children.into_iter().enumerate() {
                walk(c, &child_prefix, i + 1 == n, out, false);
            }
        }
        let mut out = String::new();
        walk(self, "", true, &mut out, true);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::schema::{FieldDef, Schema};
    use crate::semantics::FieldSemantics;
    use crate::value::Value;
    use sjdf::ExecCtx;

    fn catalog(ctx: &ExecCtx) -> Catalog {
        let mut c = Catalog::default_hpc();
        let schema = Schema::new(vec![
            FieldDef::new("job", FieldSemantics::domain("job", "job-id")),
            FieldDef::new(
                "nodelist",
                FieldSemantics::domain("compute-node", "node-list"),
            ),
        ])
        .unwrap();
        let rows = vec![Row::new(vec![
            Value::str("j1"),
            Value::list([Value::str("n1"), Value::str("n2")]),
        ])];
        c.register_dataset(
            "joblog",
            SjDataset::from_rows(ctx, rows, schema, "joblog", 1),
        )
        .unwrap();

        let layout = Schema::new(vec![
            FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
            FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
        ])
        .unwrap();
        let rows = vec![
            Row::new(vec![Value::str("n1"), Value::str("r1")]),
            Row::new(vec![Value::str("n2"), Value::str("r2")]),
        ];
        c.register_dataset(
            "layout",
            SjDataset::from_rows(ctx, rows, layout, "layout", 1),
        )
        .unwrap();
        c
    }

    fn sample_plan() -> Plan {
        Plan::load("joblog")
            .then(DerivationSpec::ExplodeDiscrete {
                column: "nodelist".into(),
            })
            .combine(DerivationSpec::NaturalJoin, Plan::load("layout"))
    }

    #[test]
    fn json_round_trip() {
        let p = sample_plan();
        let json = p.to_json();
        let back = Plan::from_json(&json).unwrap();
        assert_eq!(p, back);
        assert!(json.contains("natural_join"));
        assert!(Plan::from_json("{not json").is_err());
    }

    #[test]
    fn execute_runs_the_sequence() {
        let ctx = ExecCtx::local();
        let cat = catalog(&ctx);
        let out = sample_plan().execute(&cat, None).unwrap();
        let mut rows = out.collect().unwrap();
        rows.sort_by_key(|r| r.get(1).as_str().unwrap().to_string());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(2).as_str(), Some("r1"));
        assert_eq!(rows[1].get(2).as_str(), Some("r2"));
    }

    #[test]
    fn execute_missing_dataset_errors() {
        let ctx = ExecCtx::local();
        let cat = catalog(&ctx);
        assert!(Plan::load("nope").execute(&cat, None).is_err());
    }

    #[test]
    fn cache_round_trip_gives_same_rows() {
        let ctx = ExecCtx::local();
        let cat = catalog(&ctx);
        let cache = ResultCache::new(1 << 20);
        let p = sample_plan();
        let first = p.execute(&cat, Some(&cache)).unwrap();
        let mut a = first.collect().unwrap();
        let second = p.execute(&cat, Some(&cache)).unwrap();
        let mut b = second.collect().unwrap();
        let key = |r: &Row| r.get(0).as_str().unwrap().to_string() + r.get(1).as_str().unwrap();
        a.sort_by_key(&key);
        b.sort_by_key(&key);
        assert_eq!(a, b);
        assert!(cache.stats().hits >= 1);
    }

    #[test]
    fn introspection_lists_ops_and_loads() {
        let p = sample_plan();
        assert_eq!(p.loads(), vec!["joblog", "layout"]);
        let ops: Vec<&str> = p.ops().iter().map(|s| s.op_name()).collect();
        assert_eq!(ops, vec!["explode_discrete", "natural_join"]);
        assert_eq!(p.num_combines(), 1);
    }

    #[test]
    fn fingerprints_differ_for_different_plans() {
        assert_ne!(
            sample_plan().fingerprint(),
            Plan::load("joblog").fingerprint()
        );
        assert_eq!(sample_plan().fingerprint(), sample_plan().fingerprint());
    }

    #[test]
    fn describe_draws_a_tree() {
        let d = sample_plan().describe();
        assert!(d.starts_with("natural_join"));
        assert!(d.contains("├─ explode_discrete(nodelist)"));
        assert!(d.contains("└─ load(layout)"));
        assert!(d.contains("│  └─ load(joblog)"));
    }
}
