//! Replicated consistent-hash routing of deployments across shards.
//!
//! A [`Router`] spreads named deployments over backend shards — any
//! [`ShieldBackend`]: in-process [`ShieldServer`](crate::ShieldServer)s or
//! [`RemoteShard`](crate::RemoteShard)s reached over the wire — and keeps
//! each on `replicas` of them.  It implements [`ShieldBackend`] itself, so
//! an [`HttpFrontend`](crate::HttpFrontend) serves a whole fleet behind one
//! address.
//!
//! * **Replica sets.**  Rendezvous hashing on the deployment name
//!   ([`replica_set`]): a deployment's replicas are the shards with the top
//!   `fnv1a64(name ‖ 0xFF ‖ shard_index)` scores, best first.  Adding a
//!   shard changes only the replica sets it enters.  Scores are keyed by
//!   shard index, so a future `remove_shard` needs stable shard ids.
//! * **Failover.**  `decide_batch` tries the replicas in rank order,
//!   skipping shards marked down.  A transport failure
//!   ([`ServeError::Remote`]) marks the shard down and moves on, as does a
//!   shard that lost the deployment; any other answer is definitive.  A
//!   success past the primary bumps `vrl_fleet_failovers_total`; when every
//!   replica fails the caller gets [`ServeError::Unavailable`] (over HTTP a
//!   `503` with `Retry-After`).
//! * **Probing.**  [`Router::probe_now`] (or a background prober,
//!   [`Router::with_probe_interval`]) asks each shard for its
//!   [`deployment_generations`](ShieldBackend::deployment_generations),
//!   marks it up or down by the answer, and pushes to a live shard, from
//!   the registry's canonical artifact bytes, every deployment it should
//!   hold but does not list or whose current bytes it missed because it
//!   failed the last deploy (`vrl_fleet_rehydrations_total`).
//! * **Growth.**  [`Router::add_shard`] deploys every deployment whose
//!   replica set the new shard enters there from its bytes
//!   (`vrl_router_rehydrations_total`) and removes it from the shard that
//!   left the set.  A moved deployment's generation and counters restart.
//! * **Telemetry.**  Each replica meters its own traffic; the router keeps
//!   a ledger of the last snapshot fetched per `(deployment, shard)` and
//!   sums replicas, live or from the ledger, so counters survive a shard
//!   death.  When a replica's live counters go backwards (it restarted
//!   empty and was rehydrated), its previous snapshot is carried into the
//!   ledger entry and added to every later one, so counters also survive
//!   a restart that the ledger saw coming.
//!
//! Requests resolve their replica set and call the shards under one read
//! guard of the shard list, which `add_shard` write-locks, so no request
//! sees a half-moved deployment.  Deploys and undeploys write-lock the
//! registry while they reach the shards, so the two always agree.

use crate::artifact::ShieldArtifact;
use crate::codec::{fnv1a64, fnv1a64_continue};
use crate::http::ShieldBackend;
use crate::server::ServeError;
use crate::telemetry::DeploymentTelemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;
use vrl::shield::ShieldDecision;

/// `Retry-After` advertised when every replica of a deployment fails.
const RETRY_AFTER: Duration = Duration::from_secs(1);

/// The shards (0-based, best first) holding `name` in a fleet of `shards`
/// shards: the top `min(replicas, shards)` rendezvous scores.
///
/// # Panics
///
/// Panics if `shards == 0` or `replicas == 0`.
pub fn replica_set(name: &str, shards: usize, replicas: usize) -> Vec<usize> {
    assert!(shards > 0, "placement needs at least one shard");
    assert!(replicas > 0, "placement needs at least one replica");
    // Hash the name prefix once, then fold each shard's suffix onto it —
    // equivalent to hashing `name ‖ 0xFF ‖ shard` per shard.
    let prefix = fnv1a64_continue(fnv1a64(name.as_bytes()), &[0xFF]);
    let mut ranked: Vec<usize> = (0..shards).collect();
    // Descending by score; the stable sort keeps ties (never observed) in
    // shard order.
    ranked.sort_by_key(|&shard| {
        std::cmp::Reverse(fnv1a64_continue(prefix, &(shard as u64).to_le_bytes()))
    });
    ranked.truncate(replicas);
    ranked
}

/// Serving totals for one shard: the sums over the deployment replicas it
/// holds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardTelemetry {
    /// Shard index.
    pub shard: usize,
    /// Deployment replicas the shard holds.
    pub deployments: u64,
    /// Requests served across those deployments.
    pub requests: u64,
    /// Shield decisions taken.
    pub decisions: u64,
    /// Decisions where the shield overrode the oracle.
    pub interventions: u64,
    /// Hot redeploys.
    pub redeploys: u64,
}

/// Fleet-wide telemetry: per-shard totals plus their sums.  With
/// `replicas > 1` a deployment counts once per replica.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouterTelemetry {
    /// One entry per shard, in shard order.
    pub per_shard: Vec<ShardTelemetry>,
    /// Deployment replicas across the fleet.
    pub deployments: u64,
    /// Requests across the fleet.
    pub requests: u64,
    /// Decisions across the fleet.
    pub decisions: u64,
    /// Interventions across the fleet.
    pub interventions: u64,
    /// Redeploys across the fleet.
    pub redeploys: u64,
}

/// One shard plus its liveness flag.
struct Shard<B> {
    backend: B,
    /// Flipped by the prober, and to down by transport failures; down
    /// shards are skipped by live traffic.
    up: AtomicBool,
}

impl<B> Shard<B> {
    fn new(backend: B) -> Self {
        Shard {
            backend,
            up: AtomicBool::new(true),
        }
    }

    fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    fn set_up(&self, up: bool) {
        self.up.store(up, Ordering::SeqCst);
    }
}

/// What the registry knows about one deployment.
struct Entry {
    /// Canonical checksummed artifact bytes — the rehydration source.
    bytes: Vec<u8>,
    /// Highest generation any replica reported on the last deploy.
    generation: u64,
    /// Replicas (shard indices) that failed the last deploy and so may
    /// still serve older bytes; the prober pushes `bytes` to each.
    missed: Vec<usize>,
}

/// The ledger's record of one `(deployment, shard)` replica.
struct LedgerEntry {
    /// The last snapshot the replica answered.
    last: DeploymentTelemetry,
    /// Counters the replica had served before it restarted empty, summed
    /// over restarts.
    carried: Option<DeploymentTelemetry>,
}

impl LedgerEntry {
    /// Records a live snapshot, first carrying the previous one when the
    /// counters went backwards.
    fn record(&mut self, snapshot: DeploymentTelemetry) {
        if snapshot.requests < self.last.requests || snapshot.decisions < self.last.decisions {
            let last = std::mem::replace(&mut self.last, snapshot);
            self.carried = Some(match self.carried.take() {
                Some(carried) => sum_telemetry(&[carried, last]),
                None => last,
            });
        } else {
            self.last = snapshot;
        }
    }

    /// The replica's counters since it was first seen: the last snapshot
    /// plus whatever restarts wiped.
    fn view(&self) -> DeploymentTelemetry {
        match &self.carried {
            Some(carried) => DeploymentTelemetry {
                generation: self.last.generation,
                ..sum_telemetry(&[self.last.clone(), carried.clone()])
            },
            None => self.last.clone(),
        }
    }
}

/// Everything callers and the prober thread share.  Locks are taken in
/// field order (shards, registry, ledger), never the other way round.
struct Core<B> {
    shards: RwLock<Vec<Shard<B>>>,
    replicas: usize,
    registry: RwLock<HashMap<String, Entry>>,
    /// Telemetry per `(deployment, shard index)` replica.
    ledger: Mutex<HashMap<(String, usize), LedgerEntry>>,
}

/// Routes deployments across replicated shards — see the module docs.
pub struct Router<B> {
    core: Arc<Core<B>>,
    /// The background prober's stop flag and thread.
    prober: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl<B: ShieldBackend> Core<B> {
    fn replicas_for(&self, name: &str, shards: usize) -> Vec<usize> {
        replica_set(name, shards, self.replicas)
    }

    /// The error for a request no replica could answer: unknown when the
    /// registry has never heard of `name`, unavailable otherwise.  Must
    /// not be called with the registry guard held.
    fn no_replica(&self, name: &str, detail: String) -> ServeError {
        let registered = self
            .registry
            .read()
            .expect("router lock poisoned")
            .contains_key(name);
        if registered {
            unavailable(name, detail)
        } else {
            ServeError::UnknownDeployment(name.to_string())
        }
    }

    /// Shard `index`'s telemetry for `name`: live when it answers, else
    /// the ledger's last snapshot, plus any counters a restart wiped.
    fn replica_telemetry(
        &self,
        shard: &Shard<B>,
        index: usize,
        name: &str,
    ) -> Option<DeploymentTelemetry> {
        let live = match shard.is_up().then(|| shard.backend.backend_telemetry(name)) {
            Some(Ok(snapshot)) => Some(snapshot),
            Some(Err(ServeError::Remote(_))) => {
                shard.set_up(false);
                None
            }
            _ => None,
        };
        let mut ledger = self.ledger.lock().expect("router lock poisoned");
        let key = (name.to_string(), index);
        if let Some(snapshot) = live {
            match ledger.get_mut(&key) {
                Some(entry) => entry.record(snapshot),
                None => {
                    let entry = LedgerEntry {
                        last: snapshot,
                        carried: None,
                    };
                    ledger.insert(key.clone(), entry);
                }
            }
        }
        ledger.get(&key).map(LedgerEntry::view)
    }

    /// One synchronous probe cycle over every shard; returns liveness.
    fn probe_cycle(&self) -> Vec<bool> {
        let shards = self.shards.read().expect("router lock poisoned");
        let liveness = shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let reported = shard.backend.deployment_generations();
                let up = reported.is_ok();
                crate::obs::fleet_probes(if up { "up" } else { "down" }).inc();
                shard.set_up(up);
                if let Ok(reported) = reported {
                    self.rehydrate(&shards, index, &reported);
                }
                up
            })
            .collect();
        liveness
    }

    /// Pushes to shard `index` every deployment placed there that its
    /// report does not list or whose current bytes it missed.
    fn rehydrate(&self, shards: &[Shard<B>], index: usize, reported: &[(String, u64)]) {
        let mut registry = self.registry.write().expect("router lock poisoned");
        for (name, entry) in registry.iter_mut() {
            let current =
                !entry.missed.contains(&index) && reported.iter().any(|(listed, _)| listed == name);
            if current || !self.replicas_for(name, shards.len()).contains(&index) {
                continue;
            }
            let artifact = ShieldArtifact::from_bytes(&entry.bytes)
                .expect("registry bytes were produced by to_bytes");
            if shards[index].backend.put_artifact(name, artifact).is_ok() {
                entry.missed.retain(|&missed| missed != index);
                crate::obs::fleet_rehydrations().inc();
            }
        }
    }
}

fn unavailable(name: &str, detail: String) -> ServeError {
    crate::obs::fleet_unavailable().inc();
    ServeError::Unavailable {
        deployment: name.to_string(),
        detail,
        retry_after: RETRY_AFTER,
    }
}

impl<B: ShieldBackend> Router<B> {
    /// A router over `backends` keeping every deployment on `replicas` of
    /// them (clamped to the fleet size), with no background prober.
    /// Shards start marked up.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty or `replicas == 0`.
    pub fn new(backends: Vec<B>, replicas: usize) -> Self {
        assert!(!backends.is_empty(), "a router needs at least one shard");
        assert!(replicas > 0, "a router needs at least one replica");
        Router {
            core: Arc::new(Core {
                shards: RwLock::new(backends.into_iter().map(Shard::new).collect()),
                replicas,
                registry: RwLock::new(HashMap::new()),
                ledger: Mutex::new(HashMap::new()),
            }),
            prober: None,
        }
    }

    /// Starts a background thread running [`Router::probe_now`] every
    /// `interval` until the router is shut down or dropped.
    #[must_use]
    pub fn with_probe_interval(mut self, interval: Duration) -> Self {
        self.stop_prober();
        let core = Arc::clone(&self.core);
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("vrl-router-probe".to_string())
            .spawn(move || {
                while !stopped.load(Ordering::SeqCst) {
                    core.probe_cycle();
                    // Sleep in small slices so shutdown is prompt even with
                    // a long probe interval.
                    let mut remaining = interval;
                    while !remaining.is_zero() && !stopped.load(Ordering::SeqCst) {
                        let slice = remaining.min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
            })
            .expect("spawn router prober");
        self.prober = Some((stop, handle));
        self
    }

    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.core.shards.read().expect("router lock poisoned").len()
    }

    /// The replica set (shard indices, best first) serving `name`.
    pub fn replicas_for(&self, name: &str) -> Vec<usize> {
        self.core.replicas_for(name, self.shard_count())
    }

    /// Per-shard liveness flags, in shard order.
    pub fn shard_liveness(&self) -> Vec<bool> {
        let shards = self.core.shards.read().expect("router lock poisoned");
        shards.iter().map(Shard::is_up).collect()
    }

    /// Runs one probe cycle (what the background prober does each tick):
    /// flips liveness flags and rehydrates missing deployments.  Returns
    /// per-shard liveness after the cycle.
    pub fn probe_now(&self) -> Vec<bool> {
        self.core.probe_cycle()
    }

    /// Deploys (or hot-redeploys) `artifact` under `name` on every replica
    /// and records its canonical bytes for rehydration.  Succeeds when at
    /// least one replica accepted (the prober brings the others up to
    /// date, including a replica that still serves an older version);
    /// returns the highest generation any replica reported.
    ///
    /// # Errors
    ///
    /// A shard's own rejection (e.g. [`ServeError::IncompatibleArtifact`]
    /// when a redeploy changes dimensions) as-is;
    /// [`ServeError::Unavailable`] when no replica was reachable.
    pub fn deploy(&self, name: &str, artifact: ShieldArtifact) -> Result<u64, ServeError> {
        let bytes = artifact.to_bytes();
        let shards = self.core.shards.read().expect("router lock poisoned");
        let mut registry = self.core.registry.write().expect("router lock poisoned");
        let replicas = self.core.replicas_for(name, shards.len());
        let mut artifact = Some(artifact);
        let mut generation: Option<u64> = None;
        let mut missed = Vec::new();
        let mut detail = String::new();
        for (rank, &index) in replicas.iter().enumerate() {
            let copy = if rank + 1 == replicas.len() {
                artifact.take()
            } else {
                artifact.clone()
            }
            .expect("one artifact per replica");
            match shards[index].backend.put_artifact(name, copy) {
                Ok(serving) => generation = Some(generation.map_or(serving, |g| g.max(serving))),
                Err(ServeError::Remote(error)) => {
                    shards[index].set_up(false);
                    missed.push(index);
                    detail = error.to_string();
                }
                // The shard is alive and rejected the artifact; every
                // replica would reject it the same way.
                Err(error) => return Err(error),
            }
        }
        let generation = generation.ok_or_else(|| unavailable(name, detail))?;
        let entry = Entry {
            bytes,
            generation,
            missed,
        };
        registry.insert(name.to_string(), entry);
        Ok(generation)
    }

    /// Removes a deployment from the registry and (best effort) from its
    /// replicas; returns whether it was registered.
    pub fn undeploy(&self, name: &str) -> bool {
        let shards = self.core.shards.read().expect("router lock poisoned");
        let mut registry = self.core.registry.write().expect("router lock poisoned");
        let existed = registry.remove(name).is_some();
        self.core
            .ledger
            .lock()
            .expect("router lock poisoned")
            .retain(|(deployment, _), _| deployment != name);
        for index in self.core.replicas_for(name, shards.len()) {
            // A shard that misses this keeps a stale copy nobody routes to.
            let _ = shards[index].backend.remove_deployment(name);
        }
        existed
    }

    /// Names of all deployments, sorted.
    pub fn deployments(&self) -> Vec<String> {
        let registry = self.core.registry.read().expect("router lock poisoned");
        let mut names: Vec<String> = registry.keys().cloned().collect();
        names.sort();
        names
    }

    /// Algorithm 3 for one state — [`Router::decide_batch`] of one.
    ///
    /// # Errors
    ///
    /// As [`Router::decide_batch`].
    pub fn decide(&self, name: &str, state: &[f64]) -> Result<ShieldDecision, ServeError> {
        let mut decisions = self.decide_batch(name, &[state.to_vec()])?;
        Ok(decisions.pop().expect("one decision per state"))
    }

    /// Decides a batch on the first replica that answers (see the module
    /// docs for failover).
    ///
    /// # Errors
    ///
    /// A replica's definitive answer (dimension mismatch, ...);
    /// [`ServeError::UnknownDeployment`] for an unregistered name;
    /// [`ServeError::Unavailable`] when every replica failed.
    pub fn decide_batch(
        &self,
        name: &str,
        states: &[Vec<f64>],
    ) -> Result<Vec<ShieldDecision>, ServeError> {
        let shards = self.core.shards.read().expect("router lock poisoned");
        let mut detail = String::from("all replicas marked down");
        for (rank, index) in self
            .core
            .replicas_for(name, shards.len())
            .into_iter()
            .enumerate()
        {
            let shard = &shards[index];
            if !shard.is_up() {
                continue;
            }
            crate::obs::router_shard_requests()
                .with(&index.to_string())
                .inc();
            match shard.backend.decide_batch(name, states) {
                Ok(decisions) => {
                    if rank > 0 {
                        crate::obs::fleet_failovers().inc();
                    }
                    return Ok(decisions);
                }
                Err(ServeError::Remote(error)) => {
                    shard.set_up(false);
                    detail = error.to_string();
                }
                Err(ServeError::UnknownDeployment(_)) => {
                    detail = format!("shard {index} does not hold the deployment");
                }
                Err(error) => return Err(error),
            }
        }
        Err(self.core.no_replica(name, detail))
    }

    /// A deployment's telemetry summed over its replicas (live or from the
    /// ledger).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownDeployment`] for an unregistered name;
    /// [`ServeError::Unavailable`] when no replica answered or is cached.
    pub fn telemetry(&self, name: &str) -> Result<DeploymentTelemetry, ServeError> {
        let shards = self.core.shards.read().expect("router lock poisoned");
        let parts: Vec<DeploymentTelemetry> = self
            .core
            .replicas_for(name, shards.len())
            .into_iter()
            .filter_map(|index| self.core.replica_telemetry(&shards[index], index, name))
            .collect();
        if parts.is_empty() {
            return Err(self
                .core
                .no_replica(name, "no replica reachable or cached".to_string()));
        }
        Ok(sum_telemetry(&parts))
    }

    /// Fleet-wide telemetry: every shard's replica counters summed, plus
    /// the cross-shard totals (equal to the per-shard sums).
    pub fn aggregate_telemetry(&self) -> RouterTelemetry {
        let shards = self.core.shards.read().expect("router lock poisoned");
        let registry = self.core.registry.read().expect("router lock poisoned");
        let mut per_shard: Vec<ShardTelemetry> = (0..shards.len())
            .map(|shard| ShardTelemetry {
                shard,
                ..ShardTelemetry::default()
            })
            .collect();
        for name in registry.keys() {
            for index in self.core.replicas_for(name, shards.len()) {
                let Some(t) = self.core.replica_telemetry(&shards[index], index, name) else {
                    continue;
                };
                let totals = &mut per_shard[index];
                totals.deployments += 1;
                totals.requests += t.requests;
                totals.decisions += t.decisions;
                totals.interventions += t.interventions;
                totals.redeploys += t.redeploys;
            }
        }
        let sum = |field: fn(&ShardTelemetry) -> u64| per_shard.iter().map(field).sum();
        RouterTelemetry {
            deployments: sum(|s| s.deployments),
            requests: sum(|s| s.requests),
            decisions: sum(|s| s.decisions),
            interventions: sum(|s| s.interventions),
            redeploys: sum(|s| s.redeploys),
            per_shard,
        }
    }

    /// Grows the fleet by `backend`: every deployment whose replica set
    /// the new shard enters is deployed there from its canonical bytes and
    /// removed from the shard that left its set.  Returns the moved names,
    /// sorted.  Requests wait for the move to finish (it holds the shard
    /// list's write guard), so none sees a half-moved deployment.  A
    /// deployment the new shard fails to accept is pushed again by the
    /// next probe cycle.
    pub fn add_shard(&self, backend: B) -> Vec<String> {
        let mut shards = self.core.shards.write().expect("router lock poisoned");
        let registry = self.core.registry.read().expect("router lock poisoned");
        let before_count = shards.len();
        shards.push(Shard::new(backend));
        let mut moved = Vec::new();
        for (name, entry) in registry.iter() {
            let before = self.core.replicas_for(name, before_count);
            let after = self.core.replicas_for(name, before_count + 1);
            if before == after {
                continue;
            }
            let artifact = ShieldArtifact::from_bytes(&entry.bytes)
                .expect("registry bytes were produced by to_bytes");
            for &index in after.iter().filter(|index| !before.contains(index)) {
                if shards[index]
                    .backend
                    .put_artifact(name, artifact.clone())
                    .is_ok()
                {
                    crate::obs::router_rehydrations().inc();
                }
            }
            let mut ledger = self.core.ledger.lock().expect("router lock poisoned");
            for &index in before.iter().filter(|index| !after.contains(index)) {
                let _ = shards[index].backend.remove_deployment(name);
                ledger.remove(&(name.clone(), index));
            }
            moved.push(name.clone());
        }
        moved.sort();
        moved
    }

    /// Stops the background prober, if any.  Dropping the router does the
    /// same; the explicit call makes teardown deterministic in tests.
    pub fn shutdown(mut self) {
        self.stop_prober();
    }
}

impl<B> Router<B> {
    fn stop_prober(&mut self) {
        if let Some((stop, handle)) = self.prober.take() {
            stop.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
    }
}

impl<B> Drop for Router<B> {
    fn drop(&mut self) {
        self.stop_prober();
    }
}

impl<B: ShieldBackend> ShieldBackend for Router<B> {
    fn put_artifact(&self, name: &str, artifact: ShieldArtifact) -> Result<u64, ServeError> {
        self.deploy(name, artifact)
    }

    fn decide_batch(
        &self,
        name: &str,
        states: &[Vec<f64>],
    ) -> Result<Vec<ShieldDecision>, ServeError> {
        Router::decide_batch(self, name, states)
    }

    fn backend_telemetry(&self, name: &str) -> Result<DeploymentTelemetry, ServeError> {
        self.telemetry(name)
    }

    fn deployment_generations(&self) -> Result<Vec<(String, u64)>, ServeError> {
        let registry = self.core.registry.read().expect("router lock poisoned");
        let mut pairs: Vec<(String, u64)> = registry
            .iter()
            .map(|(name, entry)| (name.clone(), entry.generation))
            .collect();
        pairs.sort();
        Ok(pairs)
    }

    fn remove_deployment(&self, name: &str) -> Result<bool, ServeError> {
        Ok(self.undeploy(name))
    }
}

/// Sums replica telemetry into one snapshot: counters add, generation is
/// the max, the intervention rate is recomputed from the summed counters,
/// and latency percentiles come from the first part (they are not
/// summable; every replica meters the same decide path).
fn sum_telemetry(parts: &[DeploymentTelemetry]) -> DeploymentTelemetry {
    let mut total = parts[0].clone();
    for part in &parts[1..] {
        total.generation = total.generation.max(part.generation);
        total.requests += part.requests;
        total.decisions += part.decisions;
        total.interventions += part.interventions;
        total.redeploys += part.redeploys;
    }
    if total.decisions > 0 {
        total.intervention_rate = total.interventions as f64 / total.decisions as f64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ShieldServer;
    use crate::testutil::toy_artifact;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn in_process(shards: usize) -> Router<ShieldServer> {
        Router::new(
            (0..shards).map(|_| ShieldServer::with_workers(1)).collect(),
            1,
        )
    }

    #[test]
    fn placements_are_stable_and_spread() {
        let mut counts = vec![0usize; 8];
        for i in 0..400 {
            let name = format!("deployment-{i}");
            let a = replica_set(&name, 8, 1);
            assert_eq!(a, replica_set(&name, 8, 1), "placement is deterministic");
            counts[a[0]] += 1;
        }
        // A crude spread check: no shard is empty, none hoards more than
        // half the keys.
        assert!(counts.iter().all(|&c| c > 0 && c < 200), "{counts:?}");
    }

    #[test]
    fn replica_sets_are_rank_stable_and_distinct() {
        for name in ["pendulum", "cartpole", "satellite", "duffing"] {
            let ranked = replica_set(name, 4, 2);
            assert_eq!(ranked.len(), 2);
            assert_ne!(ranked[0], ranked[1]);
            assert_eq!(ranked[0], replica_set(name, 4, 1)[0]);
            assert_eq!(replica_set(name, 1, 2), vec![0], "clamped to the fleet");
        }
    }

    #[test]
    fn adding_a_shard_moves_only_keys_bound_for_it() {
        let names: Vec<String> = (0..300).map(|i| format!("d{i}")).collect();
        for n in 1..8usize {
            let mut moved = 0;
            for name in &names {
                let before = replica_set(name, n, 1)[0];
                let after = replica_set(name, n + 1, 1)[0];
                if before != after {
                    assert_eq!(after, n, "moves only target the new shard");
                    moved += 1;
                }
            }
            // Expectation is names/(n+1); accept a generous band.
            let expected = names.len() / (n + 1);
            assert!(
                moved >= expected / 3 && moved <= expected * 3,
                "n={n}: moved {moved}, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn router_routes_and_rehydrates_on_shard_addition() {
        let router = in_process(3);
        let names: Vec<String> = (0..12).map(|i| format!("toy-{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            router.deploy(name, toy_artifact(i as u64)).unwrap();
        }
        assert_eq!(router.deployments(), {
            let mut sorted = names.clone();
            sorted.sort();
            sorted
        });
        // Decisions are identical to a direct server over the same bytes.
        let mut shard_of: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, name) in names.iter().enumerate() {
            shard_of.insert(name.clone(), router.replicas_for(name));
            let direct = ShieldServer::with_workers(1);
            direct.deploy(name, toy_artifact(i as u64)).unwrap();
            for x in [-0.6, 0.0, 0.45] {
                assert_eq!(
                    router.decide(name, &[x]).unwrap(),
                    direct.decide(name, &[x]).unwrap()
                );
            }
        }
        // Expected movers: exactly the names whose 4-shard placement is
        // the new shard 3.
        let mut expected_moved: Vec<String> = names
            .iter()
            .filter(|name| replica_set(name, 4, 1) == [3])
            .cloned()
            .collect();
        expected_moved.sort();
        let moved = router.add_shard(ShieldServer::with_workers(1));
        assert_eq!(moved, expected_moved);
        assert_eq!(router.shard_count(), 4);
        // Unmoved deployments kept their shard; moved ones rehydrated and
        // still answer identically.
        for (i, name) in names.iter().enumerate() {
            if moved.contains(name) {
                assert_eq!(router.replicas_for(name), [3]);
            } else {
                assert_eq!(router.replicas_for(name), shard_of[name]);
            }
            let direct = ShieldServer::with_workers(1);
            direct.deploy(name, toy_artifact(i as u64)).unwrap();
            assert_eq!(
                router.decide(name, &[0.2]).unwrap(),
                direct.decide(name, &[0.2]).unwrap()
            );
        }
    }

    #[test]
    fn add_shard_under_load_never_reports_an_unknown_deployment() {
        let router = Arc::new(in_process(2));
        let names: Vec<String> = (0..16).map(|i| format!("toy-{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            router.deploy(name, toy_artifact(i as u64)).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicUsize::new(0));
        let started = Arc::new(Barrier::new(4));
        let workers: Vec<_> = (0..3)
            .map(|worker| {
                let (router, names) = (Arc::clone(&router), names.clone());
                let (stop, served, started) =
                    (Arc::clone(&stop), Arc::clone(&served), Arc::clone(&started));
                std::thread::spawn(move || {
                    let states = vec![vec![0.1 * worker as f64]; 4];
                    started.wait();
                    while !stop.load(Ordering::SeqCst) {
                        for name in &names {
                            let decisions = router
                                .decide_batch(name, &states)
                                .unwrap_or_else(|e| panic!("{name} during add_shard: {e}"));
                            assert_eq!(decisions.len(), states.len());
                            served.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        started.wait();
        let mut moved = 0;
        for _ in 0..4 {
            // Traffic is in flight before, during, and after every move.
            let before = served.load(Ordering::SeqCst);
            moved += router.add_shard(ShieldServer::with_workers(1)).len();
            while served.load(Ordering::SeqCst) < before + 2 * names.len() {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::SeqCst);
        for worker in workers {
            worker.join().expect("no request failed");
        }
        assert!(moved > 0, "growing 2 -> 6 shards moves some deployment");
        assert_eq!(router.shard_count(), 6);
    }

    #[test]
    fn aggregate_telemetry_equals_per_shard_sums() {
        let router = in_process(3);
        let names: Vec<String> = (0..6).map(|i| format!("toy-{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            router.deploy(name, toy_artifact(i as u64)).unwrap();
        }
        let states: Vec<Vec<f64>> = (0..50).map(|i| vec![(i as f64 / 25.0) - 1.0]).collect();
        for (i, name) in names.iter().enumerate() {
            // Different traffic per deployment so sums are distinguishable.
            router.decide_batch(name, &states[..10 + 5 * i]).unwrap();
            router.decide(name, &[0.1]).unwrap();
        }
        let fleet = router.aggregate_telemetry();
        assert_eq!(fleet.per_shard.len(), 3);
        // The fleet totals equal both the per-shard sums and the
        // per-deployment sums.
        let mut requests = 0;
        let mut decisions = 0;
        let mut interventions = 0;
        for name in &names {
            let t = router.telemetry(name).unwrap();
            requests += t.requests;
            decisions += t.decisions;
            interventions += t.interventions;
        }
        assert_eq!(
            fleet.requests,
            fleet.per_shard.iter().map(|s| s.requests).sum::<u64>()
        );
        assert_eq!(fleet.requests, requests);
        assert_eq!(fleet.decisions, decisions);
        assert_eq!(fleet.interventions, interventions);
        assert_eq!(fleet.deployments, names.len() as u64);
        assert_eq!(fleet.requests, 2 * names.len() as u64);
        assert_eq!(
            fleet.decisions,
            (0..names.len() as u64).map(|i| 10 + 5 * i + 1).sum::<u64>()
        );
    }

    #[test]
    fn undeploy_and_redeploy_through_the_router() {
        let router = in_process(2);
        assert_eq!(router.deploy("toy", toy_artifact(1)).unwrap(), 1);
        // PUT semantics: a second deploy of the same name is a hot redeploy.
        assert_eq!(router.deploy("toy", toy_artifact(2)).unwrap(), 2);
        assert!(router.undeploy("toy"));
        assert!(!router.undeploy("toy"));
        assert!(matches!(
            router.decide("toy", &[0.0]),
            Err(ServeError::UnknownDeployment(_))
        ));
    }

    #[test]
    fn replicas_fail_over_and_sum_telemetry() {
        let router = Router::new((0..3).map(|_| ShieldServer::with_workers(1)).collect(), 2);
        router.deploy("toy", toy_artifact(4)).unwrap();
        router.decide_batch("toy", &vec![vec![0.1]; 3]).unwrap();
        // Fetching telemetry records the primary's counters in the ledger.
        assert_eq!(router.telemetry("toy").unwrap().requests, 1);
        // The primary loses the deployment: traffic fails over to the
        // backup, and the next probe pushes it back.
        let [primary, backup] = router.replicas_for("toy")[..] else {
            panic!("two replicas");
        };
        assert!(router.core.shards.read().unwrap()[primary]
            .backend
            .undeploy("toy"));
        router.decide_batch("toy", &vec![vec![0.1]; 3]).unwrap();
        let t = router.telemetry("toy").unwrap();
        assert_eq!((t.requests, t.decisions), (2, 6));
        router.probe_now();
        let shards = router.core.shards.read().unwrap();
        assert!(shards[primary].backend.generation("toy").is_ok());
        assert_eq!(shards[backup].backend.telemetry("toy").unwrap().requests, 1);
    }

    #[test]
    fn telemetry_sums_counters_and_recomputes_rate() {
        let part = |requests, decisions, interventions, generation| DeploymentTelemetry {
            deployment: "pend".to_string(),
            generation,
            requests,
            decisions,
            interventions,
            redeploys: 0,
            intervention_rate: 0.0,
            p50_latency: Duration::from_micros(10),
            p99_latency: Duration::from_micros(50),
        };
        let total = sum_telemetry(&[part(10, 100, 5, 1), part(4, 60, 11, 3)]);
        assert_eq!(total.requests, 14);
        assert_eq!(total.decisions, 160);
        assert_eq!(total.interventions, 16);
        assert_eq!(total.generation, 3);
        assert!((total.intervention_rate - 0.1).abs() < 1e-12);
        assert_eq!(total.p50_latency, Duration::from_micros(10));
    }

    #[test]
    fn telemetry_survives_a_replica_that_restarted_empty() {
        let router = Router::new((0..2).map(|_| ShieldServer::with_workers(1)).collect(), 2);
        router.deploy("toy", toy_artifact(5)).unwrap();
        for _ in 0..3 {
            router.decide_batch("toy", &vec![vec![0.2]; 4]).unwrap();
        }
        assert_eq!(router.telemetry("toy").unwrap().requests, 3);
        let primary = router.replicas_for("toy")[0];
        assert!(router.core.shards.read().unwrap()[primary]
            .backend
            .undeploy("toy"));
        // The probe rehydrates the primary with fresh counters.
        router.probe_now();
        let t = router.telemetry("toy").unwrap();
        assert_eq!((t.requests, t.decisions), (3, 12));
        router.decide("toy", &[0.1]).unwrap();
        let t = router.telemetry("toy").unwrap();
        assert_eq!((t.requests, t.decisions), (4, 13));
    }

    fn snapshot(generation: u64, requests: u64, decisions: u64) -> DeploymentTelemetry {
        DeploymentTelemetry {
            deployment: "toy".to_string(),
            generation,
            requests,
            decisions,
            interventions: decisions / 2,
            redeploys: generation - 1,
            intervention_rate: 0.5,
            p50_latency: Duration::from_micros(10),
            p99_latency: Duration::from_micros(50),
        }
    }

    #[test]
    fn ledger_keeps_the_latest_snapshot_while_counters_grow() {
        let mut entry = LedgerEntry {
            last: snapshot(1, 2, 20),
            carried: None,
        };
        entry.record(snapshot(1, 5, 50));
        // Equal counters (an idle replica) are not a restart either.
        entry.record(snapshot(2, 5, 50));
        assert!(entry.carried.is_none());
        let view = entry.view();
        assert_eq!((view.generation, view.requests, view.decisions), (2, 5, 50));
    }

    #[test]
    fn ledger_carries_counters_across_a_restart() {
        let mut entry = LedgerEntry {
            last: snapshot(3, 4, 40),
            carried: None,
        };
        // The replica restarted empty and was rehydrated at generation 1.
        entry.record(snapshot(1, 0, 0));
        let view = entry.view();
        assert_eq!(
            (view.requests, view.decisions, view.interventions),
            (4, 40, 20)
        );
        assert_eq!(view.generation, 1, "the live generation is reported");
        // Traffic after the restart adds on top of the carried counters.
        entry.record(snapshot(1, 1, 10));
        let view = entry.view();
        assert_eq!(
            (view.requests, view.decisions, view.interventions),
            (5, 50, 25)
        );
        assert!((view.intervention_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ledger_accumulates_over_repeated_restarts() {
        let mut entry = LedgerEntry {
            last: snapshot(1, 3, 30),
            carried: None,
        };
        entry.record(snapshot(1, 0, 0));
        entry.record(snapshot(1, 2, 20));
        entry.record(snapshot(1, 1, 4));
        let view = entry.view();
        assert_eq!((view.requests, view.decisions), (6, 54));
    }

    #[test]
    fn deploys_accepted_everywhere_leave_no_replica_to_push() {
        let router = Router::new((0..3).map(|_| ShieldServer::with_workers(1)).collect(), 2);
        router.deploy("toy", toy_artifact(1)).unwrap();
        router.deploy("toy", toy_artifact(2)).unwrap();
        let registry = router.core.registry.read().unwrap();
        assert!(registry["toy"].missed.is_empty());
    }

    #[test]
    fn probe_pushes_current_bytes_only_to_a_replica_marked_missed() {
        let router = Router::new((0..2).map(|_| ShieldServer::with_workers(1)).collect(), 2);
        router.deploy("toy", toy_artifact(1)).unwrap();
        let [primary, backup] = router.replicas_for("toy")[..] else {
            panic!("two replicas");
        };
        // The primary serves other bytes than the registry holds, as after
        // a redeploy it failed, and the registry records that it missed.
        router.core.shards.read().unwrap()[primary]
            .backend
            .put_artifact("toy", toy_artifact(2))
            .unwrap();
        router
            .core
            .registry
            .write()
            .unwrap()
            .get_mut("toy")
            .unwrap()
            .missed = vec![primary];

        assert_eq!(router.probe_now(), vec![true, true]);
        let shards = router.core.shards.read().unwrap();
        assert_eq!(shards[primary].backend.generation("toy").unwrap(), 3);
        assert_eq!(
            shards[backup].backend.generation("toy").unwrap(),
            1,
            "a replica holding the current bytes is left alone"
        );
        let direct = ShieldServer::with_workers(1);
        direct.deploy("toy", toy_artifact(1)).unwrap();
        for x in [-0.6, 0.0, 0.45] {
            assert_eq!(
                shards[primary].backend.decide("toy", &[x]).unwrap(),
                direct.decide("toy", &[x]).unwrap()
            );
        }
        drop(shards);
        assert!(router.core.registry.read().unwrap()["toy"]
            .missed
            .is_empty());
    }
}
