//! Top-level verification entry point and shared configuration.

use crate::{verify_linear, verify_nonlinear, BarrierCertificate};
use std::fmt;
use vrl_dynamics::{BoxRegion, EnvironmentContext};
use vrl_poly::Polynomial;
use vrl_solver::BranchBoundConfig;

/// Configuration of the verification procedure (Sec. 4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationConfig {
    /// Degree bound of the invariant sketch (Eq. 7).  Table 2 studies the
    /// effect of this parameter.
    pub invariant_degree: u32,
    /// Maximum candidate/check rounds of the inner counterexample loop used
    /// by the nonlinear (branch-and-bound) back-end.
    pub max_candidate_rounds: usize,
    /// Random samples drawn from the initial region when building the
    /// candidate constraints.
    pub init_samples: usize,
    /// Random samples drawn from the unsafe band and obstacles.
    pub unsafe_samples: usize,
    /// Random transition samples drawn from the safe region.
    pub transition_samples: usize,
    /// Branch-and-bound budget for each verification condition.
    pub branch_bound: BranchBoundConfig,
    /// Margin enforced on sampled initial-state constraints (`E ≤ -margin`).
    pub init_margin: f64,
    /// Margin enforced on sampled unsafe-state constraints (`E ≥ margin`).
    pub unsafe_margin: f64,
    /// Seed for the internal sampling RNG, so verification is reproducible.
    pub seed: u64,
}

impl Default for VerificationConfig {
    fn default() -> Self {
        VerificationConfig {
            invariant_degree: 4,
            max_candidate_rounds: 12,
            init_samples: 60,
            unsafe_samples: 80,
            transition_samples: 400,
            branch_bound: BranchBoundConfig {
                max_boxes: 120_000,
                min_width: 1e-3,
                tolerance: 1e-9,
            },
            init_margin: 0.05,
            unsafe_margin: 1.0,
            seed: 2019,
        }
    }
}

impl VerificationConfig {
    /// A configuration with the given invariant degree and defaults otherwise.
    pub fn with_degree(degree: u32) -> Self {
        VerificationConfig {
            invariant_degree: degree,
            ..VerificationConfig::default()
        }
    }
}

/// Why verification of a candidate program failed.
#[derive(Debug, Clone, PartialEq)]
pub enum VerificationFailure {
    /// The closed loop is not contractive, so no inductive invariant of the
    /// sought shape exists (the program does not stabilize the system).
    UnstableClosedLoop {
        /// Estimated spectral radius of the discrete closed loop.
        spectral_radius: f64,
    },
    /// A concrete initial state could not be covered by any invariant.  The
    /// outer CEGIS loop (Algorithm 2) uses this state as its counterexample.
    InitialStateNotCovered {
        /// The uncovered initial state.
        state: Vec<f64>,
    },
    /// No certificate was found within the candidate budget.
    NoCertificateFound {
        /// The last counterexample observed, if any.
        counterexample: Option<Vec<f64>>,
        /// Human-readable reason.
        reason: String,
    },
    /// The program or environment falls outside what the selected back-end
    /// supports (e.g. a non-polynomial construct).
    Unsupported {
        /// Human-readable reason.
        reason: String,
    },
}

impl VerificationFailure {
    /// The counterexample initial state carried by this failure, if any.
    pub fn counterexample(&self) -> Option<&[f64]> {
        match self {
            VerificationFailure::InitialStateNotCovered { state } => Some(state),
            VerificationFailure::NoCertificateFound {
                counterexample: Some(c),
                ..
            } => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for VerificationFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerificationFailure::UnstableClosedLoop { spectral_radius } => write!(
                f,
                "closed loop is not contractive (spectral radius ≈ {spectral_radius:.4})"
            ),
            VerificationFailure::InitialStateNotCovered { state } => {
                write!(f, "initial state {state:?} is not covered by any invariant")
            }
            VerificationFailure::NoCertificateFound { reason, .. } => {
                write!(f, "no inductive invariant found: {reason}")
            }
            VerificationFailure::Unsupported { reason } => {
                write!(
                    f,
                    "verification back-end does not support this problem: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for VerificationFailure {}

/// Verifies that deploying the program given by `action_polys` (one
/// polynomial per action dimension, over the state variables) in `env` keeps
/// every trajectory starting in `init_region` away from the unsafe states,
/// by synthesizing an inductive invariant (Sec. 4.2).
///
/// The back-end is selected automatically:
///
/// * if the closed loop is affine, the exact quadratic-Lyapunov back-end is
///   used (scales to the 16- and 18-dimensional benchmarks);
/// * otherwise the sampled-constraint + branch-and-bound back-end is used
///   (sound for the low-dimensional nonlinear benchmarks).
///
/// On success the returned [`BarrierCertificate`] `E` satisfies the three
/// verification conditions (8)–(10) of the paper over the working domain.
///
/// Every branch-and-bound query issued by either back-end pulls its
/// compiled `objective + guards` family from the per-thread
/// `vrl_solver::CompiledQueryCache`, so CEGIS drivers that call this
/// function repeatedly (re-proof rounds, shrink steps, Table 3 redeploys)
/// never recompile an already-seen certificate family; a cache hit is
/// bit-for-bit outcome-neutral, so the certificate produced is exactly the
/// uncached path's.
///
/// # Errors
///
/// Returns a [`VerificationFailure`] describing why no certificate could be
/// produced; when the failure pinpoints an uncovered initial state, that
/// state is the counterexample driving the outer CEGIS loop.
pub fn verify_program(
    env: &EnvironmentContext,
    action_polys: &[Polynomial],
    init_region: &BoxRegion,
    config: &VerificationConfig,
) -> Result<BarrierCertificate, VerificationFailure> {
    assert_eq!(
        action_polys.len(),
        env.action_dim(),
        "one action polynomial per action dimension is required"
    );
    assert_eq!(
        init_region.dim(),
        env.state_dim(),
        "initial region dimension must match the environment"
    );
    let closed_loop = env.dynamics().close_loop(action_polys);
    let affine = closed_loop.iter().all(|p| p.degree() <= 1);
    if affine {
        match verify_linear(env, action_polys, init_region, config) {
            Ok(cert) => return Ok(cert),
            Err(failure) => {
                // Fall back to the nonlinear back-end only when it has a
                // chance of succeeding (low dimension) and the failure is not
                // a definitive stability problem.
                let fallback_viable = env.state_dim() <= 4
                    && !matches!(failure, VerificationFailure::UnstableClosedLoop { .. });
                if !fallback_viable {
                    return Err(failure);
                }
            }
        }
    }
    if env.state_dim() > 6 {
        return Err(VerificationFailure::Unsupported {
            reason: format!(
                "the branch-and-bound back-end is limited to 6 state dimensions, got {}",
                env.state_dim()
            ),
        });
    }
    verify_nonlinear(env, action_polys, init_region, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sensible() {
        let c = VerificationConfig::default();
        assert_eq!(c.invariant_degree, 4);
        assert!(c.max_candidate_rounds > 0);
        let d2 = VerificationConfig::with_degree(2);
        assert_eq!(d2.invariant_degree, 2);
        assert_eq!(d2.max_candidate_rounds, c.max_candidate_rounds);
    }

    #[test]
    fn failure_display_and_counterexamples() {
        let unstable = VerificationFailure::UnstableClosedLoop {
            spectral_radius: 1.2,
        };
        assert!(unstable.to_string().contains("1.2"));
        assert!(unstable.counterexample().is_none());
        let uncovered = VerificationFailure::InitialStateNotCovered {
            state: vec![1.0, 2.0],
        };
        assert_eq!(uncovered.counterexample().unwrap(), &[1.0, 2.0]);
        assert!(uncovered.to_string().contains("not covered"));
        let none_found = VerificationFailure::NoCertificateFound {
            counterexample: Some(vec![0.5]),
            reason: "budget exhausted".to_string(),
        };
        assert_eq!(none_found.counterexample().unwrap(), &[0.5]);
        assert!(none_found.to_string().contains("budget exhausted"));
        let unsupported = VerificationFailure::Unsupported { reason: "x".into() };
        assert!(unsupported.to_string().contains("x"));
    }
}
