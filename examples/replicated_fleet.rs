//! A replicated fleet surviving the death of a shard, end to end:
//!
//! 1. Start two shard processes (in-process [`ShieldServer`]s behind their
//!    own HTTP front-ends on loopback ports) — stand-ins for shard
//!    machines.
//! 2. Build a [`Router`] over both addresses (replicas = 2, background
//!    health prober on) and put an HTTP front-end in front of the fleet.
//! 3. `PUT` the pendulum shield artifact once; the fleet writes it to
//!    **both** replicas and records the canonical bytes for rehydration.
//! 4. `POST` a 100-state decide batch and keep the decisions as the
//!    baseline.
//! 5. **Kill the primary replica** for the deployment, then send the same
//!    batch again: the fleet fails over to the backup and the decisions
//!    come back bit-identical (every replica runs the same verified
//!    shield).
//! 6. Show telemetry surviving the failover (the ledger keeps the dead
//!    primary's counters) and the failover / breaker / probe counters on
//!    `GET /metrics`.
//!
//! Run with: `cargo run -p vrl-runtime --example replicated_fleet`

use std::sync::Arc;
use std::time::Duration;
use vrl_benchmarks::benchmark_by_name;
use vrl_runtime::http::{HttpConfig, HttpFrontend, MiniClient, ShieldBackend};
use vrl_runtime::wire::decode_decide_response;
use vrl_runtime::{fixtures, RemoteShard, Router, ShieldServer};

fn start_shard() -> HttpFrontend {
    HttpFrontend::bind(
        "127.0.0.1:0",
        Arc::new(ShieldServer::with_workers(2)),
        HttpConfig::default(),
    )
    .expect("loopback bind succeeds")
}

fn main() {
    // Two shard machines (here: two servers in this process, each behind
    // its own HTTP front-end — the fleet only ever sees their addresses).
    let mut shards: Vec<Option<HttpFrontend>> = vec![Some(start_shard()), Some(start_shard())];
    let addrs: Vec<_> = shards
        .iter()
        .map(|s| s.as_ref().expect("just started").local_addr())
        .collect();
    for (index, addr) in addrs.iter().enumerate() {
        println!("shard {index} listening on http://{addr}");
    }

    // The fleet: every deployment replicated on both shards, a background
    // prober flipping liveness and rehydrating restarted shards.
    let fleet = Arc::new(
        Router::new(
            addrs.iter().map(|&addr| RemoteShard::new(addr)).collect(),
            2,
        )
        .with_probe_interval(Duration::from_millis(200)),
    );
    let frontend = HttpFrontend::bind(
        "127.0.0.1:0",
        Arc::clone(&fleet) as Arc<dyn ShieldBackend>,
        HttpConfig::default(),
    )
    .expect("loopback bind succeeds");
    println!("fleet front-end on http://{}", frontend.local_addr());

    let mut client = MiniClient::connect(frontend.local_addr()).expect("client connects");

    // One PUT deploys to every replica.
    let env = benchmark_by_name("pendulum")
        .expect("Table 1 benchmark")
        .into_env();
    let artifact = fixtures::demo_artifact(
        &env,
        &fixtures::PENDULUM_GAINS,
        &fixtures::PENDULUM_RADII,
        &[64, 64],
        7,
    )
    .expect("dimensions agree");
    let put = client
        .request("PUT", "/v1/deployments/pendulum", &artifact.to_bytes())
        .expect("PUT succeeds");
    let replicas = fleet.replicas_for("pendulum");
    println!(
        "PUT /v1/deployments/pendulum -> {} (replicas on shards {replicas:?})",
        put.status
    );

    // The 100-state baseline, served by the primary replica.
    let batch_body = format!(
        "{{\"states\": [{}]}}",
        (0..100)
            .map(|i| format!(
                "[{:.3}, {:.3}]",
                0.3 * ((i % 7) as f64 / 7.0 - 0.5),
                0.2 * ((i % 5) as f64 / 5.0 - 0.5)
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    let before = client
        .request(
            "POST",
            "/v1/deployments/pendulum/decide",
            batch_body.as_bytes(),
        )
        .expect("batched decide succeeds");
    println!(
        "POST decide (100-state batch) -> {} ({} bytes of decisions)",
        before.status,
        before.body.len()
    );
    // Fetch telemetry once so the fleet's ledger holds the primary's
    // counters before it dies.
    let telemetry_before = client
        .request("GET", "/v1/deployments/pendulum/telemetry", b"")
        .expect("telemetry succeeds");
    println!("GET telemetry (before kill) -> {}", telemetry_before.text());

    // Kill the primary replica's shard. The next request fails over; the
    // prober marks the shard down moments later.
    let primary = replicas[0];
    shards[primary]
        .take()
        .expect("primary still running")
        .shutdown();
    println!("killed shard {primary} (the primary replica for pendulum)");

    let after = client
        .request(
            "POST",
            "/v1/deployments/pendulum/decide",
            batch_body.as_bytes(),
        )
        .expect("decide still succeeds with one replica down");
    let decisions_before = decode_decide_response(&before.body).expect("baseline decodes");
    let decisions_after = decode_decide_response(&after.body).expect("failover batch decodes");
    let identical = decisions_before.len() == decisions_after.len()
        && decisions_before.iter().zip(&decisions_after).all(|(a, b)| {
            a.intervened == b.intervened
                && a.action.len() == b.action.len()
                && a.action
                    .iter()
                    .zip(&b.action)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        });
    println!(
        "POST decide after kill -> {} ; decisions bit-identical across failover: {identical}",
        after.status
    );
    assert!(identical, "failover must not change decisions");

    // Give the prober a cycle to notice the corpse, then show the fleet's
    // view of the world.
    std::thread::sleep(Duration::from_millis(600));
    println!("shard liveness after probe: {:?}", fleet.shard_liveness());

    // Telemetry survives the failover: the dead primary's counters come
    // from the ledger, the backup's from the live shard.
    let telemetry_after = client
        .request("GET", "/v1/deployments/pendulum/telemetry", b"")
        .expect("telemetry still succeeds");
    println!("GET telemetry (after kill) -> {}", telemetry_after.text());

    // The fault-tolerance counters, straight off the Prometheus exposition.
    let scrape = client.request("GET", "/metrics", b"").expect("metrics");
    let exposition = scrape.text().into_owned();
    for series in [
        "vrl_fleet_failovers_total",
        "vrl_fleet_probes_total",
        "vrl_remote_retries_total",
        "vrl_remote_breaker_transitions_total",
    ] {
        for line in exposition
            .lines()
            .filter(|line| line.starts_with(series) && !line.starts_with('#'))
        {
            println!("  {line}");
        }
    }

    frontend.shutdown();
    if let Some(backup) = shards.into_iter().flatten().next() {
        backup.shutdown();
    }
    println!("fleet survived losing a shard; front-end shut down cleanly");
}
