//! The knowledge base: named datasets, the active dictionary, and
//! expert-registered derivation rules.
//!
//! Administrators and tool experts register datasets (with semantics) and
//! reusable derivation rules once; analysts then query the catalog through
//! the derivation engine without knowing how the raw tables connect (§3).

use crate::dataset::SjDataset;
use crate::derivations::transform::{DeriveActiveFrequency, DeriveHeat, DeriveRate};
use crate::derivations::Transformation;
use crate::error::{Result, SjError};
use crate::schema::Schema;
use crate::semantics::SemanticDictionary;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builder signature: given a schema, produce the transformation this rule
/// applies — or `None` when the rule's semantic requirements are not met.
pub type RuleBuilder =
    Arc<dyn Fn(&Schema, &SemanticDictionary) -> Option<Box<dyn Transformation>> + Send + Sync>;

/// An expert-registered derivation rule the engine may use to infer new
/// value columns (e.g. heat from temperatures, rates from counters).
#[derive(Clone)]
pub struct DeriveRule {
    /// Rule name (for plans and diagnostics).
    pub name: String,
    /// Value dimensions this rule can produce.
    pub yields: Vec<String>,
    /// Value dimensions this rule consumes (used by the engine's backward
    /// chaining to pull in the datasets that provide them).
    pub needs: Vec<String>,
    /// Instantiate the transformation for a concrete schema.
    pub build: RuleBuilder,
}

impl std::fmt::Debug for DeriveRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DeriveRule({}: needs {:?} yields {:?})",
            self.name, self.needs, self.yields
        )
    }
}

/// The ScrubJay knowledge base.
#[derive(Debug, Clone)]
pub struct Catalog {
    dict: SemanticDictionary,
    datasets: BTreeMap<String, SjDataset>,
    rules: Vec<DeriveRule>,
}

impl Catalog {
    /// An empty catalog over a dictionary.
    pub fn new(dict: SemanticDictionary) -> Self {
        Catalog {
            dict,
            datasets: BTreeMap::new(),
            rules: Vec::new(),
        }
    }

    /// A catalog over the default HPC dictionary with the paper's default
    /// derivation rules registered.
    pub fn default_hpc() -> Self {
        let mut c = Catalog::new(SemanticDictionary::default_hpc());
        for r in default_rules() {
            c.register_rule(r);
        }
        c
    }

    /// The active semantic dictionary.
    pub fn dict(&self) -> &SemanticDictionary {
        &self.dict
    }

    /// Mutable access to the dictionary (to register new keywords).
    pub fn dict_mut(&mut self) -> &mut SemanticDictionary {
        &mut self.dict
    }

    /// Register a dataset under a unique name, validating its semantics
    /// against the dictionary.
    pub fn register_dataset(&mut self, name: &str, ds: SjDataset) -> Result<()> {
        ds.validate(&self.dict)?;
        if self.datasets.contains_key(name) {
            return Err(SjError::SemanticsInvalid(format!(
                "dataset `{name}` is already registered"
            )));
        }
        self.datasets.insert(name.to_string(), ds);
        Ok(())
    }

    /// Replace the contents of an already-registered dataset, validating
    /// the new version's semantics. Used by streaming ingestion to swap an
    /// epoch-versioned snapshot in for the previous one.
    pub fn replace_dataset(&mut self, name: &str, ds: SjDataset) -> Result<()> {
        ds.validate(&self.dict)?;
        if !self.datasets.contains_key(name) {
            return Err(SjError::UnknownKeyword(format!("dataset `{name}`")));
        }
        self.datasets.insert(name.to_string(), ds);
        Ok(())
    }

    /// Look up a registered dataset.
    pub fn dataset(&self, name: &str) -> Result<&SjDataset> {
        self.datasets
            .get(name)
            .ok_or_else(|| SjError::UnknownKeyword(format!("dataset `{name}`")))
    }

    /// Names of all registered datasets (sorted).
    pub fn dataset_names(&self) -> Vec<&str> {
        self.datasets.keys().map(String::as_str).collect()
    }

    /// Iterate over (name, dataset) pairs in name order.
    pub fn datasets(&self) -> impl Iterator<Item = (&str, &SjDataset)> {
        self.datasets.iter().map(|(n, d)| (n.as_str(), d))
    }

    /// Register a derivation rule.
    pub fn register_rule(&mut self, rule: DeriveRule) {
        self.rules.push(rule);
    }

    /// All registered rules.
    pub fn rules(&self) -> &[DeriveRule] {
        &self.rules
    }
}

/// The default rule set: counter rates, rack heat, and active frequency.
pub fn default_rules() -> Vec<DeriveRule> {
    let counter_dims: Vec<String> = [
        "instructions",
        "cycles",
        "memory-reads",
        "memory-writes",
        "aperf",
        "mperf",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    vec![
        DeriveRule {
            name: "derive_count_rate".into(),
            yields: counter_dims.clone(),
            needs: counter_dims,
            build: Arc::new(|schema, dict| {
                let t = DeriveRate::new(0.001);
                t.derive_schema(schema, dict)
                    .ok()
                    .map(|_| Box::new(DeriveRate::new(0.001)) as Box<dyn Transformation>)
            }),
        },
        DeriveRule {
            name: "derive_heat".into(),
            yields: vec!["heat".into()],
            needs: vec!["temperature".into()],
            build: Arc::new(|schema, dict| {
                DeriveHeat
                    .derive_schema(schema, dict)
                    .ok()
                    .map(|_| Box::new(DeriveHeat) as Box<dyn Transformation>)
            }),
        },
        DeriveRule {
            name: "derive_active_frequency".into(),
            yields: vec!["frequency".into()],
            needs: vec!["aperf".into(), "mperf".into(), "base-frequency".into()],
            build: Arc::new(|schema, dict| {
                DeriveActiveFrequency
                    .derive_schema(schema, dict)
                    .ok()
                    .map(|_| Box::new(DeriveActiveFrequency) as Box<dyn Transformation>)
            }),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::schema::FieldDef;
    use crate::semantics::FieldSemantics;
    use crate::value::Value;
    use sjdf::ExecCtx;

    fn sample(ctx: &ExecCtx) -> SjDataset {
        let schema = Schema::new(vec![
            FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
            FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
        ])
        .unwrap();
        SjDataset::from_rows(
            ctx,
            vec![Row::new(vec![Value::str("n1"), Value::str("r1")])],
            schema,
            "layout",
            1,
        )
    }

    #[test]
    fn register_and_lookup_datasets() {
        let ctx = ExecCtx::local();
        let mut c = Catalog::default_hpc();
        c.register_dataset("layout", sample(&ctx)).unwrap();
        assert!(c.dataset("layout").is_ok());
        assert!(c.dataset("missing").is_err());
        assert_eq!(c.dataset_names(), vec!["layout"]);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let ctx = ExecCtx::local();
        let mut c = Catalog::default_hpc();
        c.register_dataset("layout", sample(&ctx)).unwrap();
        assert!(c.register_dataset("layout", sample(&ctx)).is_err());
    }

    #[test]
    fn registration_validates_semantics() {
        let ctx = ExecCtx::local();
        let mut c = Catalog::new(SemanticDictionary::empty());
        assert!(c.register_dataset("layout", sample(&ctx)).is_err());
    }

    #[test]
    fn default_rules_cover_case_studies() {
        let c = Catalog::default_hpc();
        let names: Vec<&str> = c.rules().iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"derive_heat"));
        assert!(names.contains(&"derive_active_frequency"));
        assert!(names.contains(&"derive_count_rate"));
    }

    #[test]
    fn heat_rule_builds_only_on_matching_schema() {
        let ctx = ExecCtx::local();
        let c = Catalog::default_hpc();
        let heat = c.rules().iter().find(|r| r.name == "derive_heat").unwrap();
        assert!((heat.build)(sample(&ctx).schema(), c.dict()).is_none());
    }
}
