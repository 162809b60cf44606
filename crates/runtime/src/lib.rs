//! `vrl-runtime` — the deployment layer of the verifiable-RL framework.
//!
//! The synthesis pipeline (`vrl::pipeline`) ends with a verified
//! [`Shield`](vrl::shield::Shield) and the neural oracle it monitors; this
//! crate is everything needed to actually *run* that pair in production:
//!
//! * **Artifact persistence** — [`ShieldArtifact`] bundles shield + oracle
//!   and round-trips them through a versioned, checksummed binary format
//!   ([`ShieldArtifact::to_bytes`] / [`ShieldArtifact::save`]), so a shield
//!   synthesized once can be deployed many times without re-running CEGIS.
//! * **Concurrent serving** — [`ShieldServer`] is a thread-safe registry of
//!   named deployments answering [`decide`](ShieldServer::decide) and
//!   batched [`decide_batch`](ShieldServer::decide_batch) queries (fanned
//!   out over a worker pool) with per-deployment telemetry
//!   ([`DeploymentTelemetry`]: request counts, intervention rate, p50/p99
//!   latency).
//! * **Hot redeploy** — the Table 3 scenario as a server operation:
//!   [`ShieldServer::resynthesize_and_redeploy`] re-synthesizes a shield
//!   for a *changed* environment against the deployment's existing oracle
//!   and swaps it in atomically, with zero downtime and no retraining.
//! * **Networked serving** — [`http::HttpFrontend`] puts the HTTP/1.1
//!   wire protocol (JSON decide / telemetry, artifact `PUT` / `DELETE`,
//!   `healthz`, Prometheus `metrics`) in front of any
//!   [`http::ShieldBackend`], using only the standard library (see the
//!   README's wire-protocol reference).
//! * **Replicated routing** — [`Router`] spreads deployments over any
//!   [`ShieldBackend`] shards by rendezvous hashing, keeps each on
//!   `replicas` of them, fails `decide` over when a replica's transport
//!   fails, health-probes shards and rehydrates what they lost from
//!   artifact bytes, grows the fleet with [`Router::add_shard`], and sums
//!   telemetry across replicas and shards.  In-process it routes
//!   [`ShieldServer`]s; across processes it routes [`RemoteShard`]s, which
//!   speak the wire protocol with deadlines, bounded jittered retries, and
//!   a per-shard circuit breaker.  [`fault::ChaosProxy`] scripts
//!   connection-level faults so every failover path is hermetically
//!   testable.
//!
//! # Example
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use vrl::dynamics::{BoxRegion, EnvironmentContext, PolyDynamics, SafetySpec};
//! use vrl::poly::Polynomial;
//! use vrl::rl::NeuralPolicy;
//! use vrl::shield::{Shield, ShieldPiece};
//! use vrl::synth::PolicyProgram;
//! use vrl::verify::BarrierCertificate;
//! use vrl_runtime::{ShieldArtifact, ShieldServer};
//!
//! // A tiny verified shield: ẋ = a, invariant x² ≤ 0.81, program a = −2x.
//! let dynamics = PolyDynamics::new(1, 1, vec![Polynomial::variable(1, 2)]).unwrap();
//! let env = EnvironmentContext::new(
//!     "toy", dynamics, 0.01,
//!     BoxRegion::symmetric(&[0.5]),
//!     SafetySpec::inside(BoxRegion::symmetric(&[1.0])),
//! );
//! let program = PolicyProgram::linear(&[vec![-2.0]], &[0.0]);
//! let x = Polynomial::variable(0, 1);
//! let invariant = BarrierCertificate::new(&(&x * &x) - &Polynomial::constant(0.81, 1));
//! let shield = Shield::new(env, vec![ShieldPiece::new(program, invariant)]);
//! let oracle = NeuralPolicy::new(1, 1, &[8], 2.0, &mut SmallRng::seed_from_u64(0));
//!
//! // Persist, reload, and serve.
//! let artifact = ShieldArtifact::new(shield, oracle).unwrap();
//! let restored = ShieldArtifact::from_bytes(&artifact.to_bytes()).unwrap();
//! let server = ShieldServer::with_workers(2);
//! server.deploy("toy", restored).unwrap();
//! let decision = server.decide("toy", &[0.3]).unwrap();
//! assert_eq!(decision.action.len(), 1);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod arena;
mod artifact;
mod codec;
pub mod fault;
pub mod fixtures;
pub mod http;
mod obs;
mod pool;
mod remote;
mod router;
mod server;
mod telemetry;
pub mod wire;

pub use arena::StateArena;

pub use artifact::{
    ArtifactError, ArtifactMetadata, ShieldArtifact, FORMAT_VERSION, MAGIC, MIN_SUPPORTED_VERSION,
};
pub use codec::DecodeError;
pub use http::{HttpConfig, HttpFrontend, MiniClient, MiniResponse, ShieldBackend};
pub use obs::install_metrics;
pub use pool::WorkerPool;
pub use remote::{BreakerState, RemoteError, RemoteShard, RemoteShardConfig};
pub use router::{replica_set, Router, RouterTelemetry, ShardTelemetry};
pub use server::{ServeError, ShieldServer};
pub use telemetry::DeploymentTelemetry;

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures: tiny verified shields with neural oracles.

    use crate::ShieldArtifact;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vrl::dynamics::{BoxRegion, EnvironmentContext, PolyDynamics, SafetySpec};
    use vrl::poly::Polynomial;
    use vrl::rl::NeuralPolicy;
    use vrl::shield::{Shield, ShieldPiece};
    use vrl::synth::PolicyProgram;
    use vrl::verify::BarrierCertificate;

    /// The 1-dimensional toy system of the shield crate's tests: ẋ = a with
    /// safe |x| ≤ 1, invariant x² ≤ 0.81 for the program a = −2x, plus a
    /// small randomly initialized neural oracle (seeded by `seed`).
    pub fn toy_artifact(seed: u64) -> ShieldArtifact {
        let dynamics = PolyDynamics::new(1, 1, vec![Polynomial::variable(1, 2)]).unwrap();
        let env = EnvironmentContext::new(
            "toy",
            dynamics,
            0.01,
            BoxRegion::symmetric(&[0.5]),
            SafetySpec::inside(BoxRegion::symmetric(&[1.0])),
        )
        .with_action_bounds(vec![-5.0], vec![5.0]);
        let program = PolicyProgram::linear(&[vec![-2.0]], &[0.0]);
        let x = Polynomial::variable(0, 1);
        let invariant = BarrierCertificate::new(&(&x * &x) - &Polynomial::constant(0.81, 1));
        let shield = Shield::new(env, vec![ShieldPiece::new(program, invariant)]);
        let mut rng = SmallRng::seed_from_u64(seed);
        let oracle = NeuralPolicy::new(1, 1, &[8, 8], 3.0, &mut rng);
        ShieldArtifact::new(shield, oracle).expect("toy dimensions agree")
    }

    /// A 2-dimensional variant used to exercise dimension mismatches.
    pub fn toy_artifact_2d(seed: u64) -> ShieldArtifact {
        let dynamics = PolyDynamics::new(
            2,
            1,
            vec![Polynomial::variable(1, 3), Polynomial::variable(2, 3)],
        )
        .unwrap();
        let env = EnvironmentContext::new(
            "toy-2d",
            dynamics,
            0.01,
            BoxRegion::symmetric(&[0.3, 0.3]),
            SafetySpec::inside(BoxRegion::symmetric(&[1.0, 1.0])),
        );
        let program = PolicyProgram::linear(&[vec![-2.0, -2.0]], &[0.0]);
        let x = Polynomial::variable(0, 2);
        let v = Polynomial::variable(1, 2);
        let invariant =
            BarrierCertificate::new(&(&(&x * &x) + &(&v * &v)) - &Polynomial::constant(0.81, 2));
        let shield = Shield::new(env, vec![ShieldPiece::new(program, invariant)]);
        let mut rng = SmallRng::seed_from_u64(seed);
        let oracle = NeuralPolicy::new(2, 1, &[8], 3.0, &mut rng);
        ShieldArtifact::new(shield, oracle).expect("toy dimensions agree")
    }
}
