//! The fault matrix: every scripted transport fault, driven through the
//! chaos proxy against a real two-replica fleet, must leave decisions
//! bit-identical to in-process serving, keep telemetry alive across
//! failover, surface breaker transitions on `/metrics`, and never let a
//! request outlive the configured deadline budget.
//!
//! Topology per scenario:
//!
//! ```text
//!   Router<RemoteShard> ──► ChaosProxy ──► HttpFrontend(primary ShieldServer)
//!        │
//!        └─────────────────────────────────► HttpFrontend(backup ShieldServer)
//! ```
//!
//! The proxy always fronts the deployment's *primary* replica (computed
//! from the placement's rank order before wiring), so every scripted fault
//! hits the replica the fleet tries first and the failover path is the one
//! under test.  The remote client opens one connection per attempt, so the
//! `FaultPlan` scripts faults by attempt: connection 0 is the deploy,
//! connections 1.. are the decide attempts.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vrl_benchmarks::benchmark_by_name;
use vrl_runtime::fault::{ChaosProxy, Fault, FaultPlan};
use vrl_runtime::http::{HttpConfig, HttpFrontend, MiniClient, ShieldBackend};
use vrl_runtime::{
    fixtures, replica_set, RemoteShard, RemoteShardConfig, Router, ServeError, ShieldArtifact,
    ShieldServer,
};

fn pendulum_artifact(seed: u64) -> ShieldArtifact {
    let env = benchmark_by_name("pendulum").expect("pendulum").into_env();
    fixtures::demo_artifact(
        &env,
        &fixtures::PENDULUM_GAINS,
        &fixtures::PENDULUM_RADII,
        &[32, 32],
        seed,
    )
    .expect("dimensions agree")
}

fn sample_states(count: usize, seed: u64) -> Vec<Vec<f64>> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let env = benchmark_by_name("pendulum").expect("pendulum").into_env();
    let safe = env.safety().safe_box().clone();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count).map(|_| safe.sample(&mut rng)).collect()
}

fn start_shard() -> HttpFrontend {
    let config = HttpConfig {
        max_connections: 32,
        idle_timeout: Duration::from_millis(500),
        ..HttpConfig::default()
    };
    HttpFrontend::bind(
        "127.0.0.1:0",
        Arc::new(ShieldServer::with_workers(2)),
        config,
    )
    .expect("loopback bind succeeds")
}

/// An address that refuses every connect: bind a port, then release it.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    drop(listener);
    addr
}

/// Fast deadlines so a full fault matrix runs in seconds; the breaker
/// cooldown is effectively infinite so no half-open probe sneaks into the
/// middle of a scenario.
fn fast_shard_config() -> RemoteShardConfig {
    RemoteShardConfig {
        connect_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(250),
        max_retries: 2,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(60),
        ..RemoteShardConfig::default()
    }
}

const DEPLOYMENT: &str = "pendulum";

/// Shard indices `[primary, backup]` for the test deployment in a
/// two-shard fleet — fixed by the placement function, computed up front so
/// the chaos proxy can be wired in front of the primary.
fn replica_order() -> [usize; 2] {
    let ranked = replica_set(DEPLOYMENT, 2, 2);
    [ranked[0], ranked[1]]
}

/// Builds a two-replica fleet with `primary_addr` in the primary slot and
/// `backup_addr` in the backup slot, no background prober.
fn build_fleet(primary_addr: SocketAddr, backup_addr: SocketAddr) -> Router<RemoteShard> {
    let [primary, _backup] = replica_order();
    let mut addrs = [backup_addr, backup_addr];
    addrs[primary] = primary_addr;
    let shards = addrs
        .iter()
        .map(|&addr| RemoteShard::with_config(addr, fast_shard_config()))
        .collect();
    Router::new(shards, 2)
}

/// The acceptance bound: a logical fleet request may spend at most one
/// full deadline budget per replica, retries and backoff included.
fn fleet_budget() -> Duration {
    fast_shard_config().deadline_budget() * 2
}

/// The reference decisions: an in-process server over the same artifact
/// bytes.
fn direct_decisions(bytes: &[u8], states: &[Vec<f64>]) -> Vec<(Vec<u64>, bool)> {
    let direct = ShieldServer::with_workers(1);
    direct
        .deploy(DEPLOYMENT, ShieldArtifact::from_bytes(bytes).unwrap())
        .unwrap();
    direct
        .decide_batch(DEPLOYMENT, states)
        .unwrap()
        .into_iter()
        .map(|d| (d.action.iter().map(|v| v.to_bits()).collect(), d.intervened))
        .collect()
}

/// Runs one fault scenario: deploy through the fleet (the proxy passes the
/// deploy), script `fault` for every decide attempt at the primary, and
/// assert the 100-state batch still comes back bit-identical to in-process
/// serving, within the deadline budget.
fn assert_fault_survived(fault: Fault) {
    let primary_shard = start_shard();
    let backup_shard = start_shard();
    // Connection 0 is the fleet deploy; every later connection (the decide
    // attempts) gets the scripted fault.
    let plan = FaultPlan::new(vec![Fault::Pass]).with_default(fault);
    let proxy = ChaosProxy::launch(primary_shard.local_addr(), plan).expect("proxy binds");
    let fleet = build_fleet(proxy.addr(), backup_shard.local_addr());

    let artifact = pendulum_artifact(17);
    let bytes = artifact.to_bytes();
    fleet
        .deploy(DEPLOYMENT, artifact)
        .expect("deploy reaches both replicas");

    let states = sample_states(100, 23);
    let start = Instant::now();
    let decisions = fleet
        .decide_batch(DEPLOYMENT, &states)
        .expect("the backup replica serves the batch");
    let elapsed = start.elapsed();
    assert!(
        elapsed <= fleet_budget(),
        "fault {fault:?}: request took {elapsed:?}, budget {:?}",
        fleet_budget()
    );

    let wire: Vec<(Vec<u64>, bool)> = decisions
        .into_iter()
        .map(|d| (d.action.iter().map(|v| v.to_bits()).collect(), d.intervened))
        .collect();
    assert_eq!(
        wire,
        direct_decisions(&bytes, &states),
        "fault {fault:?}: wire decisions diverged from in-process serving"
    );

    fleet.shutdown();
    proxy.shutdown();
    primary_shard.shutdown();
    backup_shard.shutdown();
}

#[test]
fn mid_body_disconnect_fails_over_bit_identically() {
    assert_fault_survived(Fault::DisconnectMidBody);
}

#[test]
fn immediate_disconnect_fails_over_bit_identically() {
    assert_fault_survived(Fault::Disconnect);
}

#[test]
fn delayed_response_past_deadline_fails_over_bit_identically() {
    // Delay comfortably past the 300ms read deadline; the client must time
    // out rather than wait the delay
    assert_fault_survived(Fault::Delay(Duration::from_millis(800)));
}

#[test]
fn scripted_500_fails_over_bit_identically() {
    assert_fault_survived(Fault::Status500);
}

#[test]
fn corrupt_frame_fails_over_bit_identically() {
    assert_fault_survived(Fault::Garbage);
}

#[test]
fn shard_kill_fails_over_bit_identically() {
    assert_fault_survived(Fault::Kill);
}

#[test]
fn refused_connect_fails_over_bit_identically() {
    // No proxy at all: the primary address refuses every connect, like a
    // process that is simply not there.
    let backup_shard = start_shard();
    let fleet = build_fleet(dead_addr(), backup_shard.local_addr());

    let artifact = pendulum_artifact(17);
    let bytes = artifact.to_bytes();
    // The primary rejects the deploy at the transport level; one accepting
    // replica is enough.
    fleet
        .deploy(DEPLOYMENT, artifact)
        .expect("backup accepts the deploy");

    let states = sample_states(100, 29);
    let start = Instant::now();
    let decisions = fleet
        .decide_batch(DEPLOYMENT, &states)
        .expect("backup serves");
    assert!(start.elapsed() <= fleet_budget());

    let wire: Vec<(Vec<u64>, bool)> = decisions
        .into_iter()
        .map(|d| (d.action.iter().map(|v| v.to_bits()).collect(), d.intervened))
        .collect();
    assert_eq!(wire, direct_decisions(&bytes, &states));

    fleet.shutdown();
    backup_shard.shutdown();
}

#[test]
fn non_finite_states_are_refused_before_the_wire() {
    // JSON cannot spell NaN or ±inf, so a remote shard refuses a
    // non-finite state itself, with the error an in-process server gives.
    // Nothing is sent: no retry, no breaker tick, no failover.
    let primary_shard = start_shard();
    let backup_shard = start_shard();
    let proxy = ChaosProxy::launch(primary_shard.local_addr(), FaultPlan::new(vec![]))
        .expect("proxy binds");
    let fleet = build_fleet(proxy.addr(), backup_shard.local_addr());

    let artifact = pendulum_artifact(17);
    let bytes = artifact.to_bytes();
    fleet
        .deploy(DEPLOYMENT, artifact)
        .expect("deploy reaches both replicas");
    assert_eq!(proxy.accepted(), 1, "the deploy");

    let in_process = ShieldServer::with_workers(1);
    in_process
        .deploy(DEPLOYMENT, ShieldArtifact::from_bytes(&bytes).unwrap())
        .unwrap();
    for bad in [f64::NAN, f64::INFINITY] {
        let states = vec![vec![0.1, 0.2], vec![bad, 0.0]];
        let error = fleet.decide_batch(DEPLOYMENT, &states).unwrap_err();
        assert!(
            matches!(error, ServeError::NonFiniteState),
            "{bad}: {error:?}"
        );
        let local = in_process.decide_batch(DEPLOYMENT, &states).unwrap_err();
        assert!(matches!(local, ServeError::NonFiniteState), "{local:?}");
    }
    assert_eq!(proxy.accepted(), 1, "no non-finite decide left the fleet");
    assert_eq!(fleet.shard_liveness(), vec![true, true]);

    // The primary's breaker still admits, and the primary (not the backup)
    // serves the next finite batch bit-identically.
    let states = sample_states(20, 37);
    let decisions = fleet
        .decide_batch(DEPLOYMENT, &states)
        .expect("primary serves");
    assert_eq!(proxy.accepted(), 2, "the finite batch went to the primary");
    let wire: Vec<(Vec<u64>, bool)> = decisions
        .into_iter()
        .map(|d| (d.action.iter().map(|v| v.to_bits()).collect(), d.intervened))
        .collect();
    assert_eq!(wire, direct_decisions(&bytes, &states));

    fleet.shutdown();
    proxy.shutdown();
    primary_shard.shutdown();
    backup_shard.shutdown();
}

/// Reads the (label-summed) value of a counter family from a Prometheus
/// text exposition.
fn metric_total(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter(|line| line.split(['{', ' ']).next() == Some(family))
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

#[test]
fn kill_primary_telemetry_survives_and_breaker_shows_on_metrics() {
    // The full story over one fleet: traffic lands on the primary, the
    // primary dies, traffic fails over — and afterwards the fleet's
    // telemetry still counts the primary's pre-kill requests (the handoff
    // ledger) while /metrics shows the failover and breaker-open counters.
    let primary_shard = start_shard();
    let backup_shard = start_shard();
    // Connection 0: deploy.  Connections 1-3: three passed decides plus a
    // telemetry fetch... — script generously with Pass, then Kill at the
    // chosen request count, then (post-kill) connects are refused.
    let plan = FaultPlan::new(vec![
        Fault::Pass, // deploy
        Fault::Pass, // decide #1
        Fault::Pass, // decide #2
        Fault::Pass, // telemetry fetch (populates the handoff ledger)
        Fault::Kill, // decide #3, first attempt: the shard dies here
    ]);
    let proxy = ChaosProxy::launch(primary_shard.local_addr(), plan).expect("proxy binds");
    let fleet = build_fleet(proxy.addr(), backup_shard.local_addr());

    fleet
        .deploy(DEPLOYMENT, pendulum_artifact(17))
        .expect("deploy reaches both replicas");

    // Pre-kill traffic: two batches of 10 decided by the primary.
    let states = sample_states(10, 31);
    for _ in 0..2 {
        fleet
            .decide_batch(DEPLOYMENT, &states)
            .expect("primary serves");
    }
    // Fetching telemetry now caches the primary's snapshot in the ledger.
    let before = fleet.backend_telemetry(DEPLOYMENT).expect("telemetry");
    assert_eq!(before.requests, 2, "both batches metered on the primary");

    // The kill: the next decide's first attempt draws Fault::Kill, the
    // retries are refused, and the batch lands on the backup.
    let survivors = fleet.decide_batch(DEPLOYMENT, &states).expect("failover");
    assert_eq!(survivors.len(), 10);

    // Two more batches on the backup; with breaker threshold 2 the second
    // one opens the primary's breaker (first failed request counted 1).
    for _ in 0..2 {
        fleet
            .decide_batch(DEPLOYMENT, &states)
            .expect("backup serves");
    }

    // Telemetry handoff: the primary is dead, but its 2 pre-kill requests
    // still count (ledger) alongside the backup's 3 — nothing dropped to
    // zero because a process died.
    let after = fleet.backend_telemetry(DEPLOYMENT).expect("telemetry");
    assert_eq!(
        after.requests, 5,
        "2 primary requests from the ledger + 3 live backup requests"
    );
    assert_eq!(after.decisions, 50);

    // The kill left the primary marked down (live traffic skips it), so
    // its breaker sits at one failure.  Probe cycles keep knocking on the
    // dead shard — with threshold 2 the first failing probe opens the
    // breaker, which is exactly how an operator sees a dead shard on
    // /metrics between requests.
    let [primary_index, _] = replica_order();
    fleet.probe_now();
    fleet.probe_now();
    assert!(
        !fleet.shard_liveness()[primary_index],
        "dead primary stays marked down"
    );

    // The observable counters on a real /metrics scrape through a frontend
    // over this fleet.  The registry is process-global and shared with the
    // other tests in this binary, so assert floors, not exact values.
    let front = HttpFrontend::bind("127.0.0.1:0", Arc::new(fleet), HttpConfig::default())
        .expect("front binds");
    let mut client = MiniClient::connect(front.local_addr()).unwrap();
    let scrape = client.request("GET", "/metrics", b"").unwrap();
    assert_eq!(scrape.status, 200);
    let text = scrape.text().into_owned();
    assert!(
        metric_total(&text, "vrl_fleet_failovers_total") >= 1.0,
        "failover counter missing from scrape"
    );
    assert!(
        metric_total(&text, "vrl_remote_retries_total") >= 2.0,
        "retry counter missing from scrape"
    );
    let breaker_opens: f64 = text
        .lines()
        .filter(|line| {
            line.contains("vrl_remote_breaker_transitions_total") && line.contains("to=\"open\"")
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum();
    assert!(breaker_opens >= 1.0, "breaker open transition missing");

    front.shutdown();
    proxy.shutdown();
    primary_shard.shutdown();
    backup_shard.shutdown();
}

#[test]
fn both_replicas_down_yields_structured_503_with_retry_after() {
    // Deploy against two live shards, then kill both and serve the fleet
    // over HTTP: the front-end must answer a structured 503 with a
    // Retry-After header, within the deadline budget — not hang, not panic.
    let shard_a = start_shard();
    let shard_b = start_shard();
    let fleet = build_fleet(shard_a.local_addr(), shard_b.local_addr());
    fleet
        .deploy(DEPLOYMENT, pendulum_artifact(17))
        .expect("both replicas accept");

    shard_a.shutdown();
    shard_b.shutdown();

    let front = HttpFrontend::bind("127.0.0.1:0", Arc::new(fleet), HttpConfig::default())
        .expect("front binds");
    let mut client = MiniClient::connect(front.local_addr()).unwrap();
    let body = br#"{"states":[[0.1,0.0]]}"#;
    let start = Instant::now();
    let response = client
        .request("POST", "/v1/deployments/pendulum/decide", body)
        .unwrap();
    let elapsed = start.elapsed();
    assert!(
        elapsed <= fleet_budget() + Duration::from_secs(1),
        "503 took {elapsed:?}"
    );
    assert_eq!(response.status, 503, "{}", response.text());
    let retry_after = response
        .header("retry-after")
        .expect("503 carries Retry-After");
    assert!(retry_after.parse::<u64>().expect("integer seconds") >= 1);
    assert!(
        response.text().contains("\"unavailable\""),
        "structured code missing: {}",
        response.text()
    );

    front.shutdown();
}

#[test]
fn probe_rehydrates_a_shard_that_lost_its_deployments() {
    // A shard that comes back empty (restarted process, wiped state) is
    // refilled by the prober from canonical bytes — and only with what it
    // is missing, so healthy shards see no generation churn.
    let backup_shard = start_shard();
    let [primary_index, _] = replica_order();

    // Keep a handle on the primary's ShieldServer so the test can wipe it,
    // simulating a restart without rebinding the port.
    let primary_server = Arc::new(ShieldServer::with_workers(2));
    let primary_front = HttpFrontend::bind(
        "127.0.0.1:0",
        Arc::clone(&primary_server) as Arc<dyn ShieldBackend>,
        HttpConfig::default(),
    )
    .expect("primary binds");
    let primary_addr = primary_front.local_addr();

    let fleet = build_fleet(primary_addr, backup_shard.local_addr());
    fleet
        .deploy(DEPLOYMENT, pendulum_artifact(17))
        .expect("both replicas accept");

    // The "restart": the primary forgets everything it served.
    assert!(primary_server.undeploy(DEPLOYMENT));

    // One probe cycle: the shard reports no deployments, so the fleet
    // pushes the canonical bytes back.
    let liveness = fleet.probe_now();
    assert!(liveness[primary_index], "wiped primary still probes up");
    let remote = RemoteShard::with_config(primary_addr, fast_shard_config());
    let deployments = remote.deployment_generations().expect("healthz");
    assert_eq!(
        deployments
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>(),
        vec![DEPLOYMENT],
        "rehydration restored the deployment"
    );

    // A second probe cycle must push nothing (no generation churn): the
    // shard already reports the deployment.
    let generation_before = remote.deployment_generations().unwrap()[0].1;
    fleet.probe_now();
    let generation_after = remote.deployment_generations().unwrap()[0].1;
    assert_eq!(generation_before, generation_after, "no redeploy churn");

    fleet.shutdown();
    primary_front.shutdown();
    backup_shard.shutdown();
}

#[test]
fn probe_pushes_a_redeploy_to_the_replica_that_missed_it() {
    // The primary answers 500 to every attempt of the v2 PUT, so the
    // redeploy lands on the backup only. The primary still lists the
    // deployment (at v1), and the next probe must push v2 to it anyway.
    let primary_shard = start_shard();
    let backup_shard = start_shard();
    let plan = FaultPlan::new(vec![
        Fault::Pass,      // v1 PUT
        Fault::Status500, // v2 PUT, first attempt
        Fault::Status500, // v2 PUT, retry 1
        Fault::Status500, // v2 PUT, retry 2 (max_retries = 2)
    ]);
    let proxy = ChaosProxy::launch(primary_shard.local_addr(), plan).expect("proxy binds");
    let fleet = build_fleet(proxy.addr(), backup_shard.local_addr());

    fleet
        .deploy(DEPLOYMENT, pendulum_artifact(17))
        .expect("v1 reaches both replicas");
    let v2 = pendulum_artifact(18);
    let v2_bytes = v2.to_bytes();
    fleet.deploy(DEPLOYMENT, v2).expect("the backup accepts v2");

    let [primary_index, _] = replica_order();
    assert!(fleet.probe_now()[primary_index], "the primary probes up");

    let states = sample_states(50, 37);
    let v1_decisions = direct_decisions(&pendulum_artifact(17).to_bytes(), &states);
    let v2_decisions = direct_decisions(&v2_bytes, &states);
    assert_ne!(
        v1_decisions, v2_decisions,
        "the versions must be told apart"
    );
    let served: Vec<(Vec<u64>, bool)> = fleet
        .decide_batch(DEPLOYMENT, &states)
        .expect("the primary serves")
        .into_iter()
        .map(|d| (d.action.iter().map(|v| v.to_bits()).collect(), d.intervened))
        .collect();
    assert_eq!(served, v2_decisions, "the primary still serves v1");

    fleet.shutdown();
    proxy.shutdown();
    primary_shard.shutdown();
    backup_shard.shutdown();
}

#[test]
fn telemetry_survives_a_replica_that_restarted_empty() {
    // Two requests land on the primary and the ledger sees them; then the
    // primary forgets everything and the probe rehydrates it with fresh
    // counters. The fleet's count must not drop back to zero.
    let backup_shard = start_shard();
    let primary_server = Arc::new(ShieldServer::with_workers(2));
    let primary_front = HttpFrontend::bind(
        "127.0.0.1:0",
        Arc::clone(&primary_server) as Arc<dyn ShieldBackend>,
        HttpConfig::default(),
    )
    .expect("primary binds");
    let fleet = build_fleet(primary_front.local_addr(), backup_shard.local_addr());
    fleet
        .deploy(DEPLOYMENT, pendulum_artifact(17))
        .expect("both replicas accept");

    let states = sample_states(10, 41);
    for _ in 0..2 {
        fleet
            .decide_batch(DEPLOYMENT, &states)
            .expect("primary serves");
    }
    assert_eq!(fleet.telemetry(DEPLOYMENT).expect("telemetry").requests, 2);

    assert!(primary_server.undeploy(DEPLOYMENT), "the restart");
    fleet.probe_now();
    assert_eq!(
        primary_server
            .telemetry(DEPLOYMENT)
            .expect("rehydrated")
            .requests,
        0,
        "the rehydrated primary starts with fresh counters"
    );
    let after = fleet.telemetry(DEPLOYMENT).expect("telemetry");
    assert!(
        after.requests >= 2,
        "requests dropped to {}",
        after.requests
    );
    assert_eq!(after.decisions, 20);

    // Traffic after the restart adds on top of the carried counters.
    fleet
        .decide_batch(DEPLOYMENT, &states)
        .expect("primary serves");
    assert_eq!(fleet.telemetry(DEPLOYMENT).expect("telemetry").requests, 3);

    fleet.shutdown();
    primary_front.shutdown();
    backup_shard.shutdown();
}

#[test]
fn probe_leaves_a_replica_that_took_the_redeploy_alone() {
    // Both replicas accept v2, so neither missed it: the probe must push
    // nothing, leaving the primary at generation 2 and serving v2.
    let backup_shard = start_shard();
    let primary_server = Arc::new(ShieldServer::with_workers(2));
    let primary_front = HttpFrontend::bind(
        "127.0.0.1:0",
        Arc::clone(&primary_server) as Arc<dyn ShieldBackend>,
        HttpConfig::default(),
    )
    .expect("primary binds");
    let fleet = build_fleet(primary_front.local_addr(), backup_shard.local_addr());
    fleet
        .deploy(DEPLOYMENT, pendulum_artifact(17))
        .expect("v1 reaches both replicas");
    let v2 = pendulum_artifact(18);
    let v2_bytes = v2.to_bytes();
    assert_eq!(fleet.deploy(DEPLOYMENT, v2).expect("v2 reaches both"), 2);

    assert_eq!(fleet.probe_now(), vec![true, true]);
    assert_eq!(
        primary_server.generation(DEPLOYMENT).expect("deployed"),
        2,
        "an up-to-date replica is not redeployed"
    );
    let states = sample_states(30, 43);
    let served: Vec<(Vec<u64>, bool)> = fleet
        .decide_batch(DEPLOYMENT, &states)
        .expect("the primary serves")
        .into_iter()
        .map(|d| (d.action.iter().map(|v| v.to_bits()).collect(), d.intervened))
        .collect();
    assert_eq!(served, direct_decisions(&v2_bytes, &states));

    fleet.shutdown();
    primary_front.shutdown();
    backup_shard.shutdown();
}
