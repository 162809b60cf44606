//! Shield synthesis and runtime enforcement (Secs. 4.2–4.3 of the paper).
//!
//! This crate combines the program synthesizer (`vrl-synth`) and the
//! verifier (`vrl-verify`) into:
//!
//! * [`synthesize_shield`] — Algorithm 2, the counterexample-guided loop that
//!   covers the initial state space with verified `(program, invariant)`
//!   pairs;
//! * [`Shield`] / [`ShieldedPolicy`] — Algorithm 3, the runtime monitor that
//!   lets the neural policy act freely while its proposed actions keep the
//!   system inside a proven invariant, and overrides them otherwise;
//! * [`DecisionTable`] — a deploy-time precomputed grid over the safe box
//!   whose interval-certified cells answer most decisions in O(1)
//!   ([`Shield::with_table`]), falling back to the exact compiled path on
//!   boundary cells so table decisions stay bit-identical;
//! * [`evaluate_shielded_system`] — the measurement harness behind the
//!   failures / interventions / overhead / performance columns of Tables 1–3.
//!
//! # Examples
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use vrl_dynamics::{BoxRegion, ClosurePolicy, EnvironmentContext, PolyDynamics, SafetySpec};
//! use vrl_poly::Polynomial;
//! use vrl_shield::{synthesize_shield, CegisConfig};
//! use vrl_verify::VerificationConfig;
//!
//! // ẋ = a, oracle a = -2x, safe |x| ≤ 1.
//! let dynamics = PolyDynamics::new(1, 1, vec![Polynomial::variable(1, 2)]).unwrap();
//! let env = EnvironmentContext::new(
//!     "scalar", dynamics, 0.01,
//!     BoxRegion::symmetric(&[0.3]),
//!     SafetySpec::inside(BoxRegion::symmetric(&[1.0])),
//! );
//! let oracle = ClosurePolicy::new(1, |s: &[f64]| vec![-2.0 * s[0]]);
//! let mut rng = SmallRng::seed_from_u64(0);
//! let config = CegisConfig { verification: VerificationConfig::with_degree(2), ..CegisConfig::smoke_test() };
//! let (shield, report) = synthesize_shield(&env, &oracle, &config, &mut rng).unwrap();
//! assert!(report.pieces >= 1);
//! assert!(shield.covers(&[0.2]));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod cegis;
mod metrics;
mod obs;
mod shield;
mod table;

pub use cegis::{
    find_uncovered_initial_state, synthesize_shield, CegisConfig, CegisError, CegisReport,
};
pub use metrics::{evaluate_shielded_system, ShieldEvaluation};
pub use obs::{decide_table_traffic, install_metrics};
pub use shield::{
    PortableShield, PortableShieldPiece, Shield, ShieldDecision, ShieldPiece, ShieldedPolicy,
};
pub use table::{CellClass, DecisionTable, TableConfig, TableError, TableStats};
