//! The concurrent shielded-serving runtime.
//!
//! A [`ShieldServer`] holds named *deployments* — each a loaded
//! [`ShieldArtifact`] — and answers Algorithm 3 queries for all of them:
//! given a state, run the deployment's neural oracle, let its shield veto
//! the proposal, and return the [`ShieldDecision`] actually applied.
//!
//! # Concurrency model
//!
//! * The deployment registry is a `RwLock<HashMap>`: lookups take a shared
//!   lock held only long enough to clone one `Arc`.
//! * Each deployment's active artifact sits behind its own
//!   `RwLock<Arc<ActiveArtifact>>`.  The serving path takes the *shared*
//!   lock just to clone the `Arc` and then evaluates entirely lock-free on
//!   an immutable snapshot — a redeploy in progress never blocks readers
//!   for longer than the pointer swap, and in-flight requests simply finish
//!   on the generation they started with.  Measured under concurrent
//!   serving on a single-core box, the lock-and-clone costs ~60 ns alone
//!   and ~190 ns with four reader threads — well under 1% of a single
//!   decide — so the plain `RwLock` stays; an `ArcSwap`-style lock-free
//!   cell would shave nanoseconds nobody can observe.
//! * [`ShieldServer::decide_batch`] fans large batches out over a shared
//!   [`WorkerPool`], one contiguous chunk per worker, and reassembles the
//!   results in order.  Within each chunk (and on the small-batch path)
//!   decisions run through the shield's lane-batched kernels
//!   (`Shield::decide_batch`): successor prediction steps the whole chunk
//!   through one sweep of the compiled dynamics family
//!   (`EnvironmentContext::step_deterministic_batch`) and certificate
//!   classification checks 8 predicted states per power-table fill,
//!   instead of looping the scalar `decide` — decision-for-decision
//!   identical, just faster.
//!
//! # Hot redeploy
//!
//! [`ShieldServer::redeploy`] swaps in a new artifact atomically
//! (generation + 1) with zero downtime.
//! [`ShieldServer::resynthesize_and_redeploy`] wires the Table 3 workflow
//! end to end: given a *changed* environment, it re-runs CEGIS shield
//! synthesis for the deployment's existing oracle (no retraining) and hot
//! swaps the result.

use crate::artifact::{ArtifactError, ShieldArtifact};
use crate::pool::WorkerPool;
use crate::telemetry::{DeploymentTelemetry, StatsRecorder};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;
use vrl::dynamics::EnvironmentContext;
use vrl::nn::MlpScratch;
use vrl::pipeline::{resynthesize_shield_for, PipelineConfig, PipelineError};
use vrl::shield::{CegisReport, ShieldDecision};

/// Why a serving call failed.
#[derive(Debug)]
pub enum ServeError {
    /// No deployment with the given name exists.
    UnknownDeployment(String),
    /// A deployment with the given name already exists (`deploy` refuses to
    /// silently replace; use `redeploy`).
    AlreadyDeployed(String),
    /// A state's dimension disagrees with the deployment.
    DimensionMismatch {
        /// Dimension the deployment expects.
        expected: usize,
        /// Dimension received.
        actual: usize,
    },
    /// A state contained a non-finite coordinate.
    NonFiniteState,
    /// A replacement artifact's state/action dimensions disagree with the
    /// running deployment's.
    IncompatibleArtifact {
        /// `(state_dim, action_dim)` the deployment serves.
        expected: (usize, usize),
        /// `(state_dim, action_dim)` the offered artifact has.
        offered: (usize, usize),
    },
    /// Bundling the shield and oracle failed.
    Artifact(ArtifactError),
    /// Re-synthesizing a shield for a changed environment failed; the
    /// previous artifact keeps serving.
    Resynthesis(PipelineError),
    /// Talking to a remote shard failed at the transport level (connect,
    /// timeout, protocol) after the configured retries — or fast, because
    /// the shard's circuit breaker is open.
    Remote(crate::remote::RemoteError),
    /// A remote shard answered with a structured error envelope; the status
    /// and code are relayed verbatim (an unknown-deployment miss is mapped
    /// to [`ServeError::UnknownDeployment`] instead, so shard-level misses
    /// keep their retry/failover semantics).
    Shard {
        /// HTTP status the shard returned.
        status: u16,
        /// Machine-readable error code from the shard's envelope.
        code: String,
        /// Human-readable message from the shard's envelope.
        message: String,
    },
    /// Every replica that could serve the deployment is down (unreachable,
    /// breaker-open, or probe-failed).  Maps to a structured `503` with a
    /// `Retry-After` header over HTTP.
    Unavailable {
        /// The deployment that could not be served.
        deployment: String,
        /// What happened on the last replica attempted.
        detail: String,
        /// How long the caller should wait before retrying.
        retry_after: std::time::Duration,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownDeployment(name) => write!(f, "no deployment named {name:?}"),
            ServeError::AlreadyDeployed(name) => {
                write!(
                    f,
                    "deployment {name:?} already exists (use redeploy to replace it)"
                )
            }
            ServeError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "state has dimension {actual}, deployment expects {expected}"
                )
            }
            ServeError::NonFiniteState => write!(f, "state contains a non-finite coordinate"),
            ServeError::IncompatibleArtifact { expected, offered } => write!(
                f,
                "artifact serves {}-dim states / {}-dim actions but the deployment serves {} / {}",
                offered.0, offered.1, expected.0, expected.1
            ),
            ServeError::Artifact(e) => write!(f, "artifact rejected: {e}"),
            ServeError::Resynthesis(e) => {
                write!(
                    f,
                    "shield re-synthesis failed (previous shield keeps serving): {e}"
                )
            }
            ServeError::Remote(e) => write!(f, "remote shard failed: {e}"),
            ServeError::Shard {
                status,
                code,
                message,
            } => {
                write!(f, "shard answered HTTP {status} ({code}): {message}")
            }
            ServeError::Unavailable {
                deployment,
                detail,
                retry_after,
            } => {
                write!(
                    f,
                    "every replica of {deployment:?} is down (last: {detail}); retry in {}s",
                    retry_after.as_secs().max(1)
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Artifact(e) => Some(e),
            ServeError::Resynthesis(e) => Some(e),
            ServeError::Remote(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArtifactError> for ServeError {
    fn from(e: ArtifactError) -> Self {
        ServeError::Artifact(e)
    }
}

/// An immutable snapshot of what a deployment serves: the artifact plus its
/// generation number.  Shared via `Arc`, never mutated.
#[derive(Debug)]
struct ActiveArtifact {
    artifact: ShieldArtifact,
    generation: u64,
}

thread_local! {
    /// Per-thread oracle forward-pass buffers: with the shield's compiled
    /// polynomial kernels also running on per-thread scratch, a steady-state
    /// decision allocates nothing but the returned action vector.  One set
    /// of buffers per serving thread (the batch worker pool threads each get
    /// their own).
    static ORACLE_SCRATCH: RefCell<(MlpScratch, Vec<f64>)> =
        RefCell::new((MlpScratch::new(), Vec::new()));

    /// Per-thread proposal buffers for the batched serving path (one action
    /// vector per lane, recycled across batches).
    static BATCH_PROPOSALS: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

impl ActiveArtifact {
    /// Algorithm 3 for one state: oracle proposes, shield decides.
    fn decide(&self, state: &[f64]) -> ShieldDecision {
        ORACLE_SCRATCH.with(|cell| {
            let (scratch, proposed) = &mut *cell.borrow_mut();
            self.artifact.oracle().action_into(state, scratch, proposed);
            self.artifact.shield().decide(state, proposed)
        })
    }

    /// Algorithm 3 for a lane of states: the oracle proposes for every
    /// state through one shared scratch, then the shield classifies the
    /// whole lane against its certificates via the batched compiled
    /// kernels ([`vrl::shield::Shield::decide_batch`]).  Decision-for-
    /// decision identical to mapping [`ActiveArtifact::decide`].
    fn decide_batch(&self, states: &[Vec<f64>]) -> Vec<ShieldDecision> {
        ORACLE_SCRATCH.with(|oracle_cell| {
            BATCH_PROPOSALS.with(|proposal_cell| {
                let (scratch, _) = &mut *oracle_cell.borrow_mut();
                let proposals = &mut *proposal_cell.borrow_mut();
                self.artifact
                    .oracle()
                    .actions_batch_into(states, scratch, proposals);
                self.artifact.shield().decide_batch(states, proposals)
            })
        })
    }
}

/// One named deployment: the swappable active artifact plus its telemetry.
#[derive(Debug)]
struct Deployment {
    name: String,
    active: RwLock<Arc<ActiveArtifact>>,
    stats: StatsRecorder,
    /// Serializes redeploys (readers are never blocked by this).
    redeploy_guard: Mutex<()>,
}

impl Deployment {
    /// The single construction site for a fresh deployment (generation 1,
    /// zeroed telemetry) — both deploy entry points go through it.
    fn fresh(name: String, artifact: ShieldArtifact) -> Arc<Deployment> {
        Arc::new(Deployment {
            name,
            active: RwLock::new(Arc::new(ActiveArtifact {
                artifact,
                generation: 1,
            })),
            stats: StatsRecorder::new(),
            redeploy_guard: Mutex::new(()),
        })
    }

    fn snapshot(&self) -> Arc<ActiveArtifact> {
        Arc::clone(&self.active.read().expect("active lock never poisoned"))
    }
}

/// Minimum number of states per worker task; below this, fanning out costs
/// more than it saves.
const MIN_CHUNK: usize = 64;

/// A thread-safe registry of shield deployments serving concurrent
/// [`ShieldServer::decide`] / [`ShieldServer::decide_batch`] traffic with
/// hot redeploy.
///
/// The server is `Send + Sync`; share it across threads behind an `Arc`.
#[derive(Debug)]
pub struct ShieldServer {
    deployments: RwLock<HashMap<String, Arc<Deployment>>>,
    pool: WorkerPool,
}

impl Default for ShieldServer {
    fn default() -> Self {
        ShieldServer::new()
    }
}

impl ShieldServer {
    /// A server whose batch worker pool is sized to the machine.
    pub fn new() -> Self {
        ShieldServer {
            deployments: RwLock::new(HashMap::new()),
            pool: WorkerPool::with_default_size(),
        }
    }

    /// A server with an explicit batch worker-pool size.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_workers(threads: usize) -> Self {
        ShieldServer {
            deployments: RwLock::new(HashMap::new()),
            pool: WorkerPool::new(threads),
        }
    }

    /// Number of worker threads used by [`ShieldServer::decide_batch`].
    pub fn workers(&self) -> usize {
        self.pool.threads()
    }

    /// Creates a new deployment serving `artifact` under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::AlreadyDeployed`] if the name is taken.
    pub fn deploy(
        &self,
        name: impl Into<String>,
        artifact: ShieldArtifact,
    ) -> Result<(), ServeError> {
        let name = name.into();
        let mut deployments = self
            .deployments
            .write()
            .expect("registry lock never poisoned");
        if deployments.contains_key(&name) {
            return Err(ServeError::AlreadyDeployed(name));
        }
        deployments.insert(name.clone(), Deployment::fresh(name, artifact));
        Ok(())
    }

    /// Deploys `artifact` under `name`, hot-replacing an existing deployment
    /// if there is one — HTTP `PUT` semantics, used by the network front-end
    /// ([`crate::http`]) and the router ([`crate::Router`]).
    /// Returns the generation now serving (1 for a fresh deployment).
    ///
    /// # Errors
    ///
    /// Replacing an existing deployment enforces the same
    /// [`ServeError::IncompatibleArtifact`] dimension check as
    /// [`ShieldServer::redeploy`]; a fresh deployment cannot fail.
    pub fn deploy_or_redeploy(
        &self,
        name: &str,
        artifact: ShieldArtifact,
    ) -> Result<u64, ServeError> {
        // The whole upsert happens under the registry write lock so a
        // concurrent `undeploy` cannot interleave between the existence
        // check and the swap (which would let a PUT report success on a
        // deployment that no longer exists).  The registry -> redeploy_guard
        // lock order is safe: no other path acquires the registry lock
        // while holding a redeploy guard.
        let mut deployments = self
            .deployments
            .write()
            .expect("registry lock never poisoned");
        match deployments.get(name) {
            Some(existing) => {
                let deployment = Arc::clone(existing);
                let _guard = deployment
                    .redeploy_guard
                    .lock()
                    .expect("redeploy lock never poisoned");
                Self::swap_locked(&deployment, artifact)
            }
            None => {
                deployments.insert(
                    name.to_string(),
                    Deployment::fresh(name.to_string(), artifact),
                );
                Ok(1)
            }
        }
    }

    /// Removes a deployment; returns whether it existed.  In-flight requests
    /// holding a snapshot finish unaffected.
    pub fn undeploy(&self, name: &str) -> bool {
        self.deployments
            .write()
            .expect("registry lock never poisoned")
            .remove(name)
            .is_some()
    }

    /// Names of all current deployments, sorted.
    pub fn deployments(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .deployments
            .read()
            .expect("registry lock never poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// The artifact generation a deployment currently serves (starts at 1,
    /// increments on every redeploy).
    pub fn generation(&self, name: &str) -> Result<u64, ServeError> {
        Ok(self.lookup(name)?.snapshot().generation)
    }

    /// The environment name a deployment's active shield was verified for.
    pub fn environment(&self, name: &str) -> Result<String, ServeError> {
        Ok(self
            .lookup(name)?
            .snapshot()
            .artifact
            .shield()
            .env()
            .name()
            .to_string())
    }

    /// A point-in-time copy of a deployment's serving telemetry.
    pub fn telemetry(&self, name: &str) -> Result<DeploymentTelemetry, ServeError> {
        let deployment = self.lookup(name)?;
        let generation = deployment.snapshot().generation;
        Ok(deployment.stats.snapshot(&deployment.name, generation))
    }

    /// Algorithm 3 for one state: runs the deployment's oracle, lets the
    /// shield veto the proposal, and returns the applied decision.
    ///
    /// # Errors
    ///
    /// Fails on unknown deployments and malformed states; never on safe
    /// inputs.
    pub fn decide(&self, name: &str, state: &[f64]) -> Result<ShieldDecision, ServeError> {
        let deployment = self.lookup(name)?;
        let active = deployment.snapshot();
        validate_state(state, active.artifact.shield().env().state_dim())?;
        let start = Instant::now();
        let decision = active.decide(state);
        deployment.stats.record_request(
            1,
            if decision.intervened { 1 } else { 0 },
            start.elapsed(),
        );
        Ok(decision)
    }

    /// Evaluates a whole batch of independent states against one deployment,
    /// fanning out across the worker pool when the batch is large enough.
    ///
    /// Every state in the batch is decided against the *same* artifact
    /// generation (the snapshot taken at entry), so a concurrent redeploy
    /// can never split a batch across two shields.
    ///
    /// # Errors
    ///
    /// Validates all states up front; a malformed state fails the whole
    /// batch before any evaluation starts.
    pub fn decide_batch(
        &self,
        name: &str,
        states: &[Vec<f64>],
    ) -> Result<Vec<ShieldDecision>, ServeError> {
        let deployment = self.lookup(name)?;
        let active = deployment.snapshot();
        let state_dim = active.artifact.shield().env().state_dim();
        for state in states {
            validate_state(state, state_dim)?;
        }
        if states.is_empty() {
            return Ok(Vec::new());
        }
        let start = Instant::now();
        let decisions = if states.len() < 2 * MIN_CHUNK || self.pool.threads() == 1 {
            active.decide_batch(states)
        } else {
            self.fan_out(&active, states)
        };
        let interventions = decisions.iter().filter(|d| d.intervened).count() as u64;
        deployment
            .stats
            .record_request(decisions.len() as u64, interventions, start.elapsed());
        Ok(decisions)
    }

    fn fan_out(&self, active: &Arc<ActiveArtifact>, states: &[Vec<f64>]) -> Vec<ShieldDecision> {
        let chunk_size = (states.len()).div_ceil(self.pool.threads()).max(MIN_CHUNK);
        let chunks: Vec<Vec<Vec<f64>>> = states.chunks(chunk_size).map(<[_]>::to_vec).collect();
        let n_chunks = chunks.len();
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<ShieldDecision>)>();
        for (index, chunk) in chunks.into_iter().enumerate() {
            let active = Arc::clone(active);
            let tx = tx.clone();
            self.pool.execute(move || {
                let decisions = active.decide_batch(&chunk);
                // The receiver only disappears if the caller panicked.
                let _ = tx.send((index, decisions));
            });
        }
        drop(tx);
        let mut by_index: Vec<Option<Vec<ShieldDecision>>> = (0..n_chunks).map(|_| None).collect();
        for (index, decisions) in rx {
            by_index[index] = Some(decisions);
        }
        by_index
            .into_iter()
            .flat_map(|chunk| chunk.expect("every chunk reports exactly once"))
            .collect()
    }

    /// Atomically replaces a deployment's artifact (hot swap, zero
    /// downtime).  Returns the new generation number.
    ///
    /// # Errors
    ///
    /// The replacement must serve the same state/action dimensions as the
    /// running artifact; in-flight and future requests would otherwise
    /// observe shape-incompatible decisions mid-stream.
    pub fn redeploy(&self, name: &str, artifact: ShieldArtifact) -> Result<u64, ServeError> {
        let deployment = self.lookup(name)?;
        let _guard = deployment
            .redeploy_guard
            .lock()
            .expect("redeploy lock never poisoned");
        Self::swap_locked(&deployment, artifact)
    }

    /// Performs the dimension check and generation swap.  The caller must
    /// hold the deployment's `redeploy_guard`.
    fn swap_locked(deployment: &Deployment, artifact: ShieldArtifact) -> Result<u64, ServeError> {
        let current = deployment.snapshot();
        let expected = (
            current.artifact.shield().env().state_dim(),
            current.artifact.shield().env().action_dim(),
        );
        let offered = (
            artifact.shield().env().state_dim(),
            artifact.shield().env().action_dim(),
        );
        if expected != offered {
            return Err(ServeError::IncompatibleArtifact { expected, offered });
        }
        let next = Arc::new(ActiveArtifact {
            artifact,
            generation: current.generation + 1,
        });
        *deployment
            .active
            .write()
            .expect("active lock never poisoned") = next;
        deployment.stats.record_redeploy();
        Ok(current.generation + 1)
    }

    /// The Table 3 workflow as one server operation: re-synthesizes a shield
    /// for this deployment's *existing* oracle in a changed environment (no
    /// retraining) and hot swaps it in.  Returns the new generation and the
    /// CEGIS diagnostics.
    ///
    /// On synthesis failure the deployment keeps serving its previous
    /// verified shield — a failed redeploy is never destructive.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Resynthesis`] when CEGIS cannot cover the new
    /// environment's initial states within the configured budget.
    pub fn resynthesize_and_redeploy(
        &self,
        name: &str,
        new_env: &EnvironmentContext,
        config: &PipelineConfig,
    ) -> Result<(u64, CegisReport), ServeError> {
        let deployment = self.lookup(name)?;
        // Hold the redeploy guard across snapshot *and* synthesis, not just
        // the swap: otherwise a concurrent `redeploy` landing during the
        // (long) CEGIS run would be silently overwritten by an artifact
        // built from the oracle it replaced.  Serving traffic is unaffected
        // — readers never take this lock.
        let _guard = deployment
            .redeploy_guard
            .lock()
            .expect("redeploy lock never poisoned");
        let snapshot = deployment.snapshot();
        let oracle = snapshot.artifact.oracle().clone();
        let table_config = snapshot.artifact.table_config().cloned();
        let (shield, report) =
            resynthesize_shield_for(new_env, &oracle, config).map_err(ServeError::Resynthesis)?;
        let label = format!("resynthesized for {}", new_env.name());
        let mut artifact = ShieldArtifact::new(shield, oracle)?.with_label(label);
        // Carry the deployment's decision-table intent across the
        // resynthesis: the new shield gets a fresh table built for *its*
        // certificates under the same config.
        if let Some(table_config) = table_config {
            artifact = artifact.with_table_config(table_config)?;
        }
        let generation = Self::swap_locked(&deployment, artifact)?;
        Ok((generation, report))
    }

    fn lookup(&self, name: &str) -> Result<Arc<Deployment>, ServeError> {
        self.deployments
            .read()
            .expect("registry lock never poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownDeployment(name.to_string()))
    }
}

fn validate_state(state: &[f64], expected: usize) -> Result<(), ServeError> {
    if state.len() != expected {
        return Err(ServeError::DimensionMismatch {
            expected,
            actual: state.len(),
        });
    }
    if state.iter().any(|x| !x.is_finite()) {
        return Err(ServeError::NonFiniteState);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::toy_artifact;

    fn server_with_toy(name: &str) -> ShieldServer {
        let server = ShieldServer::with_workers(4);
        server.deploy(name, toy_artifact(11)).unwrap();
        server
    }

    #[test]
    fn deploy_serve_and_inspect() {
        let server = server_with_toy("toy");
        assert_eq!(server.deployments(), vec!["toy".to_string()]);
        assert_eq!(server.generation("toy").unwrap(), 1);
        assert_eq!(server.environment("toy").unwrap(), "toy");
        let decision = server.decide("toy", &[0.0]).unwrap();
        assert_eq!(decision.action.len(), 1);
        let telemetry = server.telemetry("toy").unwrap();
        assert_eq!(telemetry.requests, 1);
        assert_eq!(telemetry.decisions, 1);
        assert!(server.undeploy("toy"));
        assert!(!server.undeploy("toy"));
        assert!(matches!(
            server.decide("toy", &[0.0]),
            Err(ServeError::UnknownDeployment(_))
        ));
    }

    #[test]
    fn duplicate_deploy_is_rejected() {
        let server = server_with_toy("toy");
        assert!(matches!(
            server.deploy("toy", toy_artifact(12)),
            Err(ServeError::AlreadyDeployed(_))
        ));
    }

    #[test]
    fn malformed_states_are_rejected() {
        let server = server_with_toy("toy");
        assert!(matches!(
            server.decide("toy", &[0.0, 1.0]),
            Err(ServeError::DimensionMismatch {
                expected: 1,
                actual: 2
            })
        ));
        assert!(matches!(
            server.decide("toy", &[f64::NAN]),
            Err(ServeError::NonFiniteState)
        ));
        let batch = vec![vec![0.0], vec![0.1, 0.2]];
        assert!(server.decide_batch("toy", &batch).is_err());
    }

    #[test]
    fn batch_matches_sequential_decides() {
        let server = server_with_toy("toy");
        let states: Vec<Vec<f64>> = (0..500).map(|i| vec![(i as f64 / 250.0) - 1.0]).collect();
        let batch = server.decide_batch("toy", &states).unwrap();
        assert_eq!(batch.len(), states.len());
        for (state, expected) in states.iter().zip(batch.iter()) {
            // A second server answers identically: decisions are pure.
            let single = server.decide("toy", state).unwrap();
            assert_eq!(&single, expected);
        }
        let telemetry = server.telemetry("toy").unwrap();
        assert_eq!(telemetry.decisions, 1000);
        assert_eq!(telemetry.requests, 501);
    }

    #[test]
    fn empty_batch_is_fine() {
        let server = server_with_toy("toy");
        assert_eq!(server.decide_batch("toy", &[]).unwrap(), Vec::new());
    }

    #[test]
    fn intervention_telemetry_is_identical_across_decide_paths() {
        // The scalar and batched paths share intervention counting: the
        // same traffic must yield byte-identical decisions and identical
        // intervention-rate telemetry whichever entry point served it.
        // (Latency percentiles are wall-clock and cannot be compared across
        // real runs; their batch-vs-sequential equivalence is pinned by the
        // deterministic StatsRecorder test in `telemetry`.)
        let via_decide = server_with_toy("toy");
        let via_batch = server_with_toy("toy");
        // Span covered and uncovered states so both outcomes occur.
        let states: Vec<Vec<f64>> = (0..300).map(|i| vec![(i as f64 / 150.0) - 1.0]).collect();
        let mut sequential = Vec::with_capacity(states.len());
        for state in &states {
            sequential.push(via_decide.decide("toy", state).unwrap());
        }
        let batched = via_batch.decide_batch("toy", &states).unwrap();
        assert_eq!(sequential, batched);
        assert!(batched.iter().any(|d| d.intervened));
        assert!(batched.iter().any(|d| !d.intervened));
        let t_seq = via_decide.telemetry("toy").unwrap();
        let t_bat = via_batch.telemetry("toy").unwrap();
        assert_eq!(t_seq.decisions, t_bat.decisions);
        assert_eq!(t_seq.interventions, t_bat.interventions);
        assert_eq!(t_seq.intervention_rate, t_bat.intervention_rate);
        assert_eq!(t_seq.requests, 300);
        assert_eq!(t_bat.requests, 1);
    }

    #[test]
    fn redeploy_swaps_generation_and_enforces_dimensions() {
        let server = server_with_toy("toy");
        let generation = server.redeploy("toy", toy_artifact(13)).unwrap();
        assert_eq!(generation, 2);
        assert_eq!(server.generation("toy").unwrap(), 2);
        assert_eq!(server.telemetry("toy").unwrap().redeploys, 1);
        let wrong = crate::testutil::toy_artifact_2d(1);
        match server.redeploy("toy", wrong) {
            Err(ServeError::IncompatibleArtifact { expected, offered }) => {
                assert_eq!(expected, (1, 1));
                assert_eq!(offered, (2, 1));
            }
            other => panic!("expected IncompatibleArtifact, got {other:?}"),
        }
        // Failed redeploys leave the generation untouched.
        assert_eq!(server.generation("toy").unwrap(), 2);
    }

    #[test]
    fn concurrent_decides_during_redeploys_stay_consistent() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let server = Arc::new(server_with_toy("toy"));
        let stop = Arc::new(AtomicBool::new(false));
        let served: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
        let mut handles = Vec::new();
        for t in 0..4 {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
            handles.push(std::thread::spawn(move || {
                let mut count = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let x = ((count % 181) as f64 / 100.0) - 0.9;
                    let decision = server.decide("toy", &[x]).unwrap();
                    assert_eq!(decision.action.len(), 1);
                    assert!(decision.action[0].is_finite());
                    count += 1;
                    served[t].store(count, Ordering::Relaxed);
                }
                count
            }));
        }
        // Interleave ten hot swaps with live traffic: before each swap, wait
        // until every thread has demonstrably served since the last one.
        for seed in 20..30 {
            let marks: Vec<u64> = served.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            while served
                .iter()
                .zip(marks.iter())
                .any(|(c, &mark)| c.load(Ordering::Relaxed) <= mark)
            {
                std::thread::yield_now();
            }
            let generation = server.redeploy("toy", toy_artifact(seed)).unwrap();
            assert_eq!(generation, seed - 18);
        }
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            let count = handle.join().expect("serving thread never panics");
            assert!(count > 0, "every thread served some traffic");
        }
        assert_eq!(server.generation("toy").unwrap(), 11);
    }
}
