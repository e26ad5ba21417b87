//! Data derivations (§4.3): transformations and combinations.
//!
//! Derivations are functions that take one or two semantically annotated
//! datasets and produce a new dataset with new semantics. ScrubJay splits
//! them into:
//!
//! * **Transformations** — derive a modified dataset from one input:
//!   [`transform::ExplodeDiscrete`], [`transform::ExplodeContinuous`],
//!   [`transform::ConvertUnits`], [`transform::DeriveRate`],
//!   [`transform::DeriveRatio`], [`transform::DeriveHeat`],
//!   [`transform::DeriveActiveFrequency`].
//! * **Combinations** — generalized JOINs that infer a relation between
//!   two datasets from their shared domain dimensions:
//!   [`combine::NaturalJoin`] and [`combine::InterpolationJoin`].
//!
//! Every derivation separates its *semantics-level* effect
//! (`derive_schema`, a constant-time check-and-compute on schemas used by
//! the derivation engine's search) from its *data-level* effect (`apply`,
//! a data-parallel computation). Every derivation also serializes to a
//! [`DerivationSpec`] so derivation sequences are reproducible (§5.4).

pub mod combine;
mod keyed;
pub mod transform;

use crate::dataset::SjDataset;
use crate::error::{Result, SjError};
use crate::schema::Schema;
use crate::semantics::SemanticDictionary;
use serde::{Deserialize, Serialize};

/// A derivation producing a modified dataset from one input dataset.
pub trait Transformation: Send + Sync {
    /// Short name for plans and error messages.
    fn name(&self) -> &'static str;
    /// Semantics-only application: validate against the input schema and
    /// compute the output schema, without touching data.
    fn derive_schema(&self, schema: &Schema, dict: &SemanticDictionary) -> Result<Schema>;
    /// Execute on data, producing the derived dataset.
    fn apply(&self, ds: &SjDataset, dict: &SemanticDictionary) -> Result<SjDataset>;
    /// Serializable description for reproducible plans.
    fn spec(&self) -> DerivationSpec;
}

/// A derivation combining two datasets into a merged result.
pub trait Combination: Send + Sync {
    /// Short name for plans and error messages.
    fn name(&self) -> &'static str;
    /// Semantics-only application on the two input schemas.
    fn derive_schema(
        &self,
        left: &Schema,
        right: &Schema,
        dict: &SemanticDictionary,
    ) -> Result<Schema>;
    /// Execute on data, producing the combined dataset.
    fn apply(
        &self,
        left: &SjDataset,
        right: &SjDataset,
        dict: &SemanticDictionary,
    ) -> Result<SjDataset>;
    /// Serializable description for reproducible plans.
    fn spec(&self) -> DerivationSpec;
}

/// Serializable description of one derivation step (§5.4: derivation
/// sequences are serialized to JSON for distribution and reuse).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum DerivationSpec {
    /// Explode a list column into one row per element.
    ExplodeDiscrete {
        /// Column holding list values.
        column: String,
    },
    /// Explode a time-span column into one row per contained instant.
    ExplodeContinuous {
        /// Column holding span values.
        column: String,
        /// Step between emitted instants, in seconds.
        step_secs: f64,
    },
    /// Convert a scalar column to different units on the same dimension.
    ConvertUnits {
        /// Column to convert.
        column: String,
        /// Target units keyword.
        to: String,
    },
    /// Replace cumulative counter columns with windowed rates of change.
    DeriveRate {
        /// Rate window the output is expressed over, in seconds
        /// (0.001 = per millisecond).
        per_secs: f64,
    },
    /// Derive a new value column as `scale * numerator / denominator`.
    DeriveRatio {
        /// Name of the new column.
        new_column: String,
        /// Dimension of the new column.
        dimension: String,
        /// Units of the new column.
        units: String,
        /// Numerator column name.
        numerator: String,
        /// Denominator column name.
        denominator: String,
        /// Constant multiplier.
        scale: f64,
    },
    /// Derive per-(rack, location, time) heat as hot-aisle minus
    /// cold-aisle temperature (§7.2).
    DeriveHeat,
    /// Derive active CPU frequency from APERF/MPERF rates and the CPU's
    /// base frequency (§7.3).
    DeriveActiveFrequency,
    /// Natural join on all shared domain dimensions (exact match).
    NaturalJoin,
    /// Interpolation join: exact match on shared discrete domains and a
    /// windowed match with interpolation on one shared ordered continuous
    /// domain (§5.3).
    InterpolationJoin {
        /// Matching window `W` in seconds.
        window_secs: f64,
    },
}

impl DerivationSpec {
    /// Instantiate the transformation this spec describes, or `None` if it
    /// describes a combination.
    pub fn as_transformation(&self) -> Option<Box<dyn Transformation>> {
        use transform::*;
        match self {
            DerivationSpec::ExplodeDiscrete { column } => {
                Some(Box::new(ExplodeDiscrete::new(column)))
            }
            DerivationSpec::ExplodeContinuous { column, step_secs } => {
                Some(Box::new(ExplodeContinuous::new(column, *step_secs)))
            }
            DerivationSpec::ConvertUnits { column, to } => {
                Some(Box::new(ConvertUnits::new(column, to)))
            }
            DerivationSpec::DeriveRate { per_secs } => Some(Box::new(DeriveRate::new(*per_secs))),
            DerivationSpec::DeriveRatio {
                new_column,
                dimension,
                units,
                numerator,
                denominator,
                scale,
            } => Some(Box::new(DeriveRatio {
                new_column: new_column.clone(),
                dimension: dimension.clone(),
                units: units.clone(),
                numerator: numerator.clone(),
                denominator: denominator.clone(),
                scale: *scale,
            })),
            DerivationSpec::DeriveHeat => Some(Box::new(DeriveHeat)),
            DerivationSpec::DeriveActiveFrequency => Some(Box::new(DeriveActiveFrequency)),
            _ => None,
        }
    }

    /// Instantiate the combination this spec describes, or `None` if it
    /// describes a transformation.
    pub fn as_combination(&self) -> Option<Box<dyn Combination>> {
        use combine::*;
        match self {
            DerivationSpec::NaturalJoin => Some(Box::new(NaturalJoin)),
            DerivationSpec::InterpolationJoin { window_secs } => {
                Some(Box::new(InterpolationJoin::new(*window_secs)))
            }
            _ => None,
        }
    }

    /// Short operation name.
    pub fn op_name(&self) -> &'static str {
        match self {
            DerivationSpec::ExplodeDiscrete { .. } => "explode_discrete",
            DerivationSpec::ExplodeContinuous { .. } => "explode_continuous",
            DerivationSpec::ConvertUnits { .. } => "convert_units",
            DerivationSpec::DeriveRate { .. } => "derive_rate",
            DerivationSpec::DeriveRatio { .. } => "derive_ratio",
            DerivationSpec::DeriveHeat => "derive_heat",
            DerivationSpec::DeriveActiveFrequency => "derive_active_frequency",
            DerivationSpec::NaturalJoin => "natural_join",
            DerivationSpec::InterpolationJoin { .. } => "interpolation_join",
        }
    }
}

/// Helper: fail a derivation with a reason.
pub(crate) fn not_applicable(derivation: &str, reason: impl Into<String>) -> SjError {
    SjError::NotApplicable {
        derivation: derivation.into(),
        reason: reason.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_serialize_to_json_round_trip() {
        let specs = vec![
            DerivationSpec::ExplodeDiscrete {
                column: "nodelist".into(),
            },
            DerivationSpec::ExplodeContinuous {
                column: "timespan".into(),
                step_secs: 60.0,
            },
            DerivationSpec::NaturalJoin,
            DerivationSpec::InterpolationJoin { window_secs: 120.0 },
            DerivationSpec::DeriveRate { per_secs: 0.001 },
        ];
        let json = serde_json::to_string_pretty(&specs).unwrap();
        let back: Vec<DerivationSpec> = serde_json::from_str(&json).unwrap();
        assert_eq!(specs, back);
        assert!(json.contains("\"op\""));
        assert!(json.contains("explode_discrete"));
    }

    #[test]
    fn spec_instantiation_dispatches() {
        let t = DerivationSpec::ExplodeDiscrete { column: "x".into() };
        assert!(t.as_transformation().is_some());
        assert!(t.as_combination().is_none());
        let c = DerivationSpec::NaturalJoin;
        assert!(c.as_combination().is_some());
        assert!(c.as_transformation().is_none());
    }

    #[test]
    fn op_names_are_stable() {
        assert_eq!(DerivationSpec::NaturalJoin.op_name(), "natural_join");
        assert_eq!(
            DerivationSpec::InterpolationJoin { window_secs: 1.0 }.op_name(),
            "interpolation_join"
        );
    }
}
