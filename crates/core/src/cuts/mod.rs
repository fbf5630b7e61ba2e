//! The CuTS family: convoy discovery using trajectory simplification
//! (Sections 5 and 6 of the paper).
//!
//! All three variants share the same filter–refinement skeleton and differ
//! only in the simplification algorithm and the segment distance used by the
//! filter:
//!
//! | Variant  | Simplification | Segment distance | Distance bound |
//! |----------|----------------|------------------|----------------|
//! | `CuTS`   | DP             | `DLL`            | Lemma 1        |
//! | `CuTS+`  | DP+            | `DLL`            | Lemma 1        |
//! | `CuTS*`  | DP*            | `D*`             | Lemma 3        |

pub mod filter;
pub mod partition;
pub mod refine;

use serde::{Deserialize, Serialize};
use traj_cluster::SegmentDistance;
use traj_simplify::{SimplificationMethod, ToleranceMode};

/// The three members of the CuTS family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CutsVariant {
    /// CuTS: DP simplification + `DLL` distance bounds (Lemma 1).
    Cuts,
    /// CuTS+: DP+ simplification + `DLL` distance bounds (Lemma 1).
    CutsPlus,
    /// CuTS*: DP* simplification + `D*` distance bounds (Lemma 3).
    CutsStar,
}

impl CutsVariant {
    /// All variants, in the order the paper's figures list them.
    pub const ALL: [CutsVariant; 3] = [
        CutsVariant::Cuts,
        CutsVariant::CutsPlus,
        CutsVariant::CutsStar,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            CutsVariant::Cuts => "CuTS",
            CutsVariant::CutsPlus => "CuTS+",
            CutsVariant::CutsStar => "CuTS*",
        }
    }

    /// The simplification method the variant uses.
    pub fn simplification(&self) -> SimplificationMethod {
        match self {
            CutsVariant::Cuts => SimplificationMethod::Dp,
            CutsVariant::CutsPlus => SimplificationMethod::DpPlus,
            CutsVariant::CutsStar => SimplificationMethod::DpStar,
        }
    }

    /// The segment distance function the variant's filter step uses.
    pub fn segment_distance(&self) -> SegmentDistance {
        match self {
            CutsVariant::Cuts | CutsVariant::CutsPlus => SegmentDistance::Dll,
            CutsVariant::CutsStar => SegmentDistance::DStar,
        }
    }
}

impl std::fmt::Display for CutsVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The largest partition length λ: partition windows live on the `i64`
/// time axis, so λ must fit it.
pub const MAX_LAMBDA: usize = i64::MAX as usize;

/// Why a partition length λ was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LambdaError {
    /// λ < 2: a partition must span at least one segment of time.
    TooShort(usize),
    /// λ > [`MAX_LAMBDA`]: the partition does not fit the time axis.
    TooLong(usize),
}

impl std::fmt::Display for LambdaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LambdaError::TooShort(l) => write!(f, "λ must be at least 2, got {l}"),
            LambdaError::TooLong(l) => write!(f, "λ must be at most {MAX_LAMBDA}, got {l}"),
        }
    }
}

impl std::error::Error for LambdaError {}

/// Returns `lambda` when it is a valid partition length (`2..=`[`MAX_LAMBDA`]).
pub fn check_lambda(lambda: usize) -> Result<usize, LambdaError> {
    if lambda < 2 {
        Err(LambdaError::TooShort(lambda))
    } else if lambda > MAX_LAMBDA {
        Err(LambdaError::TooLong(lambda))
    } else {
        Ok(lambda)
    }
}

/// Tuning knobs of the CuTS filter step. None of these affect correctness —
/// only the filter's selectivity and therefore the running time (Section 7.4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CutsConfig {
    /// The variant to run.
    pub variant: CutsVariant,
    /// Simplification tolerance δ. `None` selects it automatically with the
    /// Section 7.4 guideline ([`crate::params::auto_delta`]).
    pub delta: Option<f64>,
    /// Time-partition length λ. `None` selects it automatically by
    /// estimated filter + refine cost ([`crate::params::auto_lambda`]).
    pub lambda: Option<usize>,
    /// Whether range searches use each segment's actual tolerance (the
    /// paper's recommended setting) or the global δ (Figure 14's comparison
    /// baseline).
    pub tolerance_mode: ToleranceMode,
}

impl CutsConfig {
    /// The default configuration for a variant: automatic δ and λ, actual
    /// tolerances.
    pub fn new(variant: CutsVariant) -> Self {
        CutsConfig {
            variant,
            delta: None,
            lambda: None,
            tolerance_mode: ToleranceMode::Actual,
        }
    }

    /// Overrides the simplification tolerance δ.
    #[must_use]
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Overrides the partition length λ, clamped into
    /// `2..=`[`MAX_LAMBDA`] so the reported λ is the one the filter
    /// partitions with. Untrusted values go through
    /// [`CutsConfig::try_with_lambda`] instead.
    #[must_use]
    pub fn with_lambda(mut self, lambda: usize) -> Self {
        self.lambda = Some(lambda.clamp(2, MAX_LAMBDA));
        self
    }

    /// Overrides the partition length λ, rejecting a λ below 2 or above
    /// [`MAX_LAMBDA`].
    ///
    /// ```
    /// use convoy_core::cuts::{CutsConfig, CutsVariant, LambdaError};
    ///
    /// let config = CutsConfig::new(CutsVariant::CutsStar);
    /// assert_eq!(config.try_with_lambda(8).unwrap().lambda, Some(8));
    /// assert_eq!(config.try_with_lambda(1), Err(LambdaError::TooShort(1)));
    /// assert!(config.try_with_lambda(usize::MAX).is_err());
    /// ```
    pub fn try_with_lambda(self, lambda: usize) -> Result<Self, LambdaError> {
        Ok(self.with_lambda(check_lambda(lambda)?))
    }

    /// Selects the tolerance mode used by the filter's range searches.
    #[must_use]
    pub fn with_tolerance_mode(mut self, mode: ToleranceMode) -> Self {
        self.tolerance_mode = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_components_match_the_paper_table() {
        assert_eq!(CutsVariant::Cuts.simplification(), SimplificationMethod::Dp);
        assert_eq!(
            CutsVariant::CutsPlus.simplification(),
            SimplificationMethod::DpPlus
        );
        assert_eq!(
            CutsVariant::CutsStar.simplification(),
            SimplificationMethod::DpStar
        );
        assert_eq!(CutsVariant::Cuts.segment_distance(), SegmentDistance::Dll);
        assert_eq!(
            CutsVariant::CutsPlus.segment_distance(),
            SegmentDistance::Dll
        );
        assert_eq!(
            CutsVariant::CutsStar.segment_distance(),
            SegmentDistance::DStar
        );
        assert_eq!(CutsVariant::CutsStar.to_string(), "CuTS*");
        assert_eq!(CutsVariant::ALL.len(), 3);
    }

    #[test]
    fn config_builder() {
        let config = CutsConfig::new(CutsVariant::Cuts)
            .with_delta(3.5)
            .with_lambda(8)
            .with_tolerance_mode(ToleranceMode::Global);
        assert_eq!(config.delta, Some(3.5));
        assert_eq!(config.lambda, Some(8));
        assert_eq!(config.tolerance_mode, ToleranceMode::Global);
        let default = CutsConfig::new(CutsVariant::CutsStar);
        assert_eq!(default.delta, None);
        assert_eq!(default.lambda, None);
        assert_eq!(default.tolerance_mode, ToleranceMode::Actual);
    }

    #[test]
    fn lambda_is_validated_or_clamped_to_what_partitions() {
        let config = CutsConfig::new(CutsVariant::Cuts);
        for bad in [0, 1] {
            assert_eq!(config.try_with_lambda(bad), Err(LambdaError::TooShort(bad)));
            assert_eq!(config.with_lambda(bad).lambda, Some(2));
        }
        assert_eq!(
            config.try_with_lambda(usize::MAX),
            Err(LambdaError::TooLong(usize::MAX))
        );
        assert_eq!(config.with_lambda(usize::MAX).lambda, Some(MAX_LAMBDA));
        assert_eq!(
            config.try_with_lambda(MAX_LAMBDA).unwrap().lambda,
            Some(MAX_LAMBDA)
        );
        assert_eq!(config.try_with_lambda(2).unwrap().lambda, Some(2));
    }
}
