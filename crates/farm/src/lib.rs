//! Scenario farm: procedural environment families, compositional product
//! systems, and a multi-threaded CEGIS job scheduler.
//!
//! The paper validates on 15 hand-written benchmarks; the farm scales the
//! workload to *hundreds* of distinct, well-formed scenarios:
//!
//! - [`family`] — parameterized families (pendulum mass × length grids,
//!   size-N platoons, quadcopter drag variants, oscillator filter-order
//!   lattices, Duffing damping variants), each lattice containing its
//!   hand-written benchmark as a point.
//! - [`mod@compose`] — product systems that combine scenarios into
//!   higher-dimensional instances: independent dynamics blocks,
//!   concatenated state/action spaces, conjoined safety sets.
//! - [`scenario`] — deterministic identity: every scenario has a
//!   canonical string ID that regenerates it bit-for-bit
//!   ([`scenario_by_id`]) and an ID-derived seed driving its synthesis
//!   job.
//! - [`scheduler`] — a worker pool that runs CEGIS over a scenario list
//!   with deterministic budgets, checkpoints successful shields as
//!   [`vrl_runtime::ShieldArtifact`]s, and mass-deploys them to any
//!   [`vrl_runtime::ShieldBackend`], e.g. a [`vrl_runtime::Router`].
//!
//! # Quickstart
//!
//! ```
//! use vrl_farm::{generate, run_farm, FarmConfig, JobConfig};
//! use vrl_runtime::{Router, ShieldServer};
//!
//! let scenarios = generate(&FarmConfig::smoke());
//! assert!(scenarios.len() >= 20);
//! // Synthesize shields for the two cheapest scenarios.
//! let picked: Vec<_> = scenarios
//!     .iter()
//!     .filter(|s| s.family() == "quadcopter")
//!     .take(2)
//!     .cloned()
//!     .collect();
//! let report = run_farm(&picked, &JobConfig::default(), 2);
//! let shards = (0..2).map(|_| ShieldServer::with_workers(1)).collect();
//! let router = Router::new(shards, 1);
//! let deployed = report.deploy_to(&router).unwrap();
//! assert_eq!(deployed, report.synthesized());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod compose;
pub mod family;
pub mod obs;
pub mod scenario;
pub mod scheduler;

pub use compose::compose;
pub use obs::{install_metrics, jobs_completed};
pub use scenario::{fnv1a64, generate, scenario_by_id, FarmConfig, Scenario};
pub use scheduler::{run_farm, FarmReport, JobConfig, JobOutcome, JobRecord};
