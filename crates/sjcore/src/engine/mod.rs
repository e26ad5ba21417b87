//! The derivation engine (§5): queries, plans, and the search.
//!
//! Performance analysts do not name tables or columns. A [`Query`] names
//! only the *dimensions* of the domains and values of interest — "the
//! value `application` for the domain `job`, and the value `heat` for the
//! domain `rack`" — and the engine searches the catalog, **over semantics
//! only**, for a sequence of derivations producing a dataset that relates
//! them. The found sequence is a serializable, reproducible [`Plan`]
//! executed separately (and optionally cached).

mod plan;
mod planner;
mod search;

pub use plan::Plan;
pub use search::{EngineConfig, EngineStats, QueryEngine};

use crate::error::{Result, SjError};
use crate::schema::Schema;
use crate::semantics::SemanticDictionary;
use crate::units::UnitKind;
use serde::{Deserialize, Serialize};

/// One requested measurement: a value dimension, optionally constrained to
/// specific units ("instructions, per millisecond").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QueryValue {
    /// Dimension keyword of the value of interest.
    pub dimension: String,
    /// Optional units constraint.
    pub units: Option<String>,
}

impl QueryValue {
    /// A value request without a units constraint.
    pub fn dim(dimension: &str) -> Self {
        QueryValue {
            dimension: dimension.into(),
            units: None,
        }
    }

    /// A value request with a units constraint.
    pub fn with_units(dimension: &str, units: &str) -> Self {
        QueryValue {
            dimension: dimension.into(),
            units: Some(units.into()),
        }
    }
}

/// A ScrubJay query: the domain dimensions and value dimensions of
/// interest (§5.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Query {
    /// Domain dimensions the result must be defined over.
    pub domains: Vec<String>,
    /// Value dimensions (with optional units) the result must measure.
    pub values: Vec<QueryValue>,
}

impl Query {
    /// Build a query from domain dimension names and value requests.
    pub fn new(domains: impl IntoIterator<Item = &'static str>, values: Vec<QueryValue>) -> Self {
        Query {
            domains: domains.into_iter().map(String::from).collect(),
            values,
        }
    }

    /// A canonical ordering for cache keys: domains and values sorted and
    /// deduplicated. Two queries asking for the same thing in different
    /// orders normalize to the same `Query`, and therefore the same hash —
    /// which is what lets a service-side plan cache recognize them as one
    /// entry.
    pub fn normalized(&self) -> Query {
        let mut domains = self.domains.clone();
        domains.sort();
        domains.dedup();
        let mut values = self.values.clone();
        values.sort_by(|a, b| (&a.dimension, &a.units).cmp(&(&b.dimension, &b.units)));
        values.dedup();
        Query { domains, values }
    }

    /// Validate every keyword against the dictionary, resolving aliases
    /// into canonical form.
    pub fn canonicalize(&self, dict: &SemanticDictionary) -> Result<Query> {
        let mut domains = Vec::with_capacity(self.domains.len());
        for d in &self.domains {
            domains.push(dict.dimension(d)?.name.clone());
        }
        let mut values = Vec::with_capacity(self.values.len());
        for v in &self.values {
            let dimension = dict.dimension(&v.dimension)?.name.clone();
            let units = match &v.units {
                None => None,
                Some(u) => {
                    let units = dict.units(u)?;
                    if units.dimension != dimension {
                        return Err(SjError::SemanticsInvalid(format!(
                            "query units `{u}` lie on dimension `{}`, not `{dimension}`",
                            units.dimension
                        )));
                    }
                    Some(units.name.clone())
                }
            };
            values.push(QueryValue { dimension, units });
        }
        Ok(Query { domains, values })
    }

    /// Whether a schema satisfies this (canonicalized) query: every
    /// requested domain dimension appears as a domain column and every
    /// requested value appears as a value column with acceptable units.
    pub fn satisfied_by(&self, schema: &Schema, dict: &SemanticDictionary) -> bool {
        for d in &self.domains {
            if schema.domain_field_on(d).is_none() {
                return false;
            }
        }
        for v in &self.values {
            if !self.value_satisfied(v, schema, dict) {
                return false;
            }
        }
        true
    }

    fn value_satisfied(&self, v: &QueryValue, schema: &Schema, dict: &SemanticDictionary) -> bool {
        schema.value_fields().any(|f| {
            if f.semantics.dimension != v.dimension {
                return false;
            }
            match &v.units {
                None => true,
                Some(want) => {
                    if &f.semantics.units == want {
                        return true;
                    }
                    // Convertible scalar units also satisfy the request —
                    // the engine appends a unit conversion at the end.
                    match (dict.units(&f.semantics.units), dict.units(want)) {
                        (Ok(have), Ok(want)) => {
                            matches!(have.kind, UnitKind::Scalar { .. })
                                && matches!(want.kind, UnitKind::Scalar { .. })
                                && have.dimension == want.dimension
                        }
                        _ => false,
                    }
                }
            }
        })
    }

    /// Human-readable one-line description.
    pub fn describe(&self) -> String {
        let values: Vec<String> = self
            .values
            .iter()
            .map(|v| match &v.units {
                Some(u) => format!("{} [{}]", v.dimension, u),
                None => v.dimension.clone(),
            })
            .collect();
        format!(
            "domains({}) x values({})",
            self.domains.join(", "),
            values.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldDef;
    use crate::semantics::FieldSemantics;

    fn dict() -> SemanticDictionary {
        SemanticDictionary::default_hpc()
    }

    fn schema() -> Schema {
        Schema::new(vec![
            FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
            FieldDef::new("time", FieldSemantics::domain("time", "datetime")),
            FieldDef::new("temp", FieldSemantics::value("temperature", "fahrenheit")),
        ])
        .unwrap()
    }

    #[test]
    fn canonicalize_resolves_aliases_and_validates() {
        let q = Query::new(["node"], vec![QueryValue::dim("temperature")]);
        let c = q.canonicalize(&dict()).unwrap();
        assert_eq!(c.domains, vec!["compute-node"]);
        assert!(Query::new(["flux"], vec![]).canonicalize(&dict()).is_err());
    }

    #[test]
    fn canonicalize_rejects_units_on_wrong_dimension() {
        let q = Query::new(
            ["rack"],
            vec![QueryValue::with_units("temperature", "watts")],
        );
        assert!(q.canonicalize(&dict()).is_err());
    }

    #[test]
    fn satisfaction_requires_domains_and_values() {
        let d = dict();
        let s = schema();
        assert!(Query::new(["rack"], vec![QueryValue::dim("temperature")])
            .canonicalize(&d)
            .unwrap()
            .satisfied_by(&s, &d));
        assert!(!Query::new(["job"], vec![QueryValue::dim("temperature")])
            .canonicalize(&d)
            .unwrap()
            .satisfied_by(&s, &d));
        assert!(!Query::new(["rack"], vec![QueryValue::dim("heat")])
            .canonicalize(&d)
            .unwrap()
            .satisfied_by(&s, &d));
    }

    #[test]
    fn convertible_units_satisfy_a_constrained_value() {
        let d = dict();
        let s = schema();
        // The schema has Fahrenheit; Celsius is convertible.
        let q = Query::new(
            ["rack"],
            vec![QueryValue::with_units("temperature", "celsius")],
        )
        .canonicalize(&d)
        .unwrap();
        assert!(q.satisfied_by(&s, &d));
        // Counts are not convertible to rates by mere unit conversion.
        let counts = Schema::new(vec![
            FieldDef::new("cpu", FieldSemantics::domain("cpu", "cpu-id")),
            FieldDef::new(
                "i",
                FieldSemantics::value("instructions", "instructions-count"),
            ),
        ])
        .unwrap();
        let q = Query::new(
            ["cpu"],
            vec![QueryValue::with_units(
                "instructions",
                "instructions-per-ms",
            )],
        )
        .canonicalize(&d)
        .unwrap();
        assert!(!q.satisfied_by(&counts, &d));
    }

    #[test]
    fn a_domain_column_does_not_satisfy_a_value_request() {
        let d = dict();
        // time appears as a domain; querying the value `time` (elapsed)
        // must not be satisfied by it.
        let q = Query::new(["rack"], vec![QueryValue::dim("time")])
            .canonicalize(&d)
            .unwrap();
        assert!(!q.satisfied_by(&schema(), &d));
    }

    #[test]
    fn describe_mentions_everything() {
        let q = Query::new(
            ["job", "rack"],
            vec![
                QueryValue::dim("application"),
                QueryValue::with_units("heat", "delta-celsius"),
            ],
        );
        let s = q.describe();
        assert!(s.contains("job"));
        assert!(s.contains("heat [delta-celsius]"));
    }
}
