//! Networked shield serving, end to end: an HTTP front-end over a sharded
//! fleet, driven by an in-process client.
//!
//! 1. Start a `Router` (3 shield-server shards, rendezvous placement)
//!    behind the std-only HTTP/1.1 front-end on a loopback port.
//! 2. `PUT` checksummed shield artifacts for two deployments over the wire.
//! 3. `POST` single and batched JSON decide requests, asserting the batch's
//!    decisions bit-identical to the in-process `Router::decide_batch`
//!    (all traffic rides the lane-batched `decide_batch` kernels
//!    server-side).
//! 4. `GET` per-deployment telemetry and `/healthz`.
//! 5. Grow the fleet by one shard and watch the consistent hash rehydrate
//!    only the deployments whose placement moved.
//! 6. Scrape `GET /metrics` (the process-wide Prometheus catalog spanning
//!    synthesis, verification, and serving) and export the request's trace
//!    spans as a Chrome trace.
//!
//! Run with: `cargo run -p vrl-runtime --example http_server`
//!
//! While it runs you can also poke the same server with curl, e.g.
//! `curl -s http://127.0.0.1:<port>/healthz` — the README's "Serving over
//! HTTP" section shows a full transcript.

use std::sync::Arc;
use vrl::shield::TableConfig;
use vrl_benchmarks::benchmark_by_name;
use vrl_runtime::http::{HttpConfig, HttpFrontend, MiniClient, ShieldBackend};
use vrl_runtime::{fixtures, wire, Router, ShieldServer};

fn main() {
    // A sharded backend: three in-process shield servers, deployments
    // consistent-hashed across them by name.
    let router = Arc::new(Router::new(
        (0..3).map(|_| ShieldServer::with_workers(1)).collect(),
        1,
    ));
    let frontend = HttpFrontend::bind(
        "127.0.0.1:0",
        Arc::clone(&router) as Arc<dyn ShieldBackend>,
        HttpConfig::default(),
    )
    .expect("loopback bind succeeds");
    let addr = frontend.local_addr();
    println!("serving on http://{addr}");

    let mut client = MiniClient::connect(addr).expect("client connects");

    // Upload two deployments over the wire (checksummed artifact bytes).
    for (name, benchmark, gains, radii) in [
        (
            "pendulum",
            "pendulum",
            &fixtures::PENDULUM_GAINS[..],
            &fixtures::PENDULUM_RADII[..],
        ),
        (
            "cartpole",
            "cartpole",
            &fixtures::CARTPOLE_GAINS[..],
            &fixtures::CARTPOLE_RADII[..],
        ),
    ] {
        let env = benchmark_by_name(benchmark)
            .expect("Table 1 benchmark")
            .into_env();
        let mut artifact =
            fixtures::demo_artifact(&env, gains, radii, &[64, 64], 7).expect("dimensions agree");
        if name == "pendulum" {
            // The pendulum deployment ships with a precomputed decision
            // table: the config rides inside the artifact bytes and each
            // shard rebuilds (and re-certifies) the table on deploy, so
            // most decide traffic below resolves in O(1).
            artifact = artifact
                .with_table_config(TableConfig::uniform(64))
                .expect("the pendulum safe box grids cleanly");
        }
        let response = client
            .request(
                "PUT",
                &format!("/v1/deployments/{name}"),
                &artifact.to_bytes(),
            )
            .expect("PUT succeeds");
        println!(
            "PUT /v1/deployments/{name} -> {} {} (shard {})",
            response.status,
            response.text(),
            router.replicas_for(name)[0]
        );
    }

    // One state, then a batch — identical decisions to the in-process API.
    let single = client
        .request(
            "POST",
            "/v1/deployments/pendulum/decide",
            br#"{"state": [0.05, -0.1]}"#,
        )
        .expect("decide succeeds");
    println!(
        "POST decide (single) -> {} {}",
        single.status,
        single.text()
    );

    let states: Vec<Vec<f64>> = (0..100)
        .map(|i| {
            vec![
                0.3 * ((i % 7) as f64 / 7.0 - 0.5),
                0.2 * ((i % 5) as f64 / 5.0 - 0.5),
            ]
        })
        .collect();
    let batch_body = wire::decide_batch_request(&states);
    let batch = client
        .request(
            "POST",
            "/v1/deployments/pendulum/decide",
            batch_body.as_bytes(),
        )
        .expect("batched decide succeeds");
    println!(
        "POST decide (100-state batch) -> {} ({} bytes of decisions)",
        batch.status,
        batch.body.len()
    );

    // JSON's shortest-round-trip numbers carry every f64 bit-exactly, so
    // the wire decisions equal the in-process ones bit for bit.
    let json_decisions = wire::decode_decide_response(&batch.body).expect("JSON decodes");
    let reference = router
        .decide_batch("pendulum", &states)
        .expect("in-process decide succeeds");
    let identical = json_decisions.len() == reference.len()
        && json_decisions.iter().zip(&reference).all(|(a, b)| {
            a.intervened == b.intervened
                && a.action.len() == b.action.len()
                && a.action
                    .iter()
                    .zip(&b.action)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        });
    println!("decisions bit-identical to in-process decide_batch: {identical}");
    assert!(
        identical,
        "wire and in-process decisions must agree bit-for-bit"
    );

    // A malformed request gets a structured 4xx, not a dropped connection.
    let bad = client
        .request("POST", "/v1/deployments/pendulum/decide", b"{oops")
        .expect("error responses still arrive");
    println!("POST decide (malformed) -> {} {}", bad.status, bad.text());

    // Telemetry and health over the wire.
    let telemetry = client
        .request("GET", "/v1/deployments/pendulum/telemetry", b"")
        .expect("telemetry succeeds");
    println!("GET telemetry -> {} {}", telemetry.status, telemetry.text());
    let health = client.request("GET", "/healthz", b"").expect("healthz");
    println!("GET /healthz -> {} {}", health.status, health.text());

    // Every response carries an x-request-id — the client's own id when it
    // sends one, a generated id otherwise — and the same id tags the
    // request's trace span and any error envelope.
    let tagged = client
        .request_with_headers(
            "GET",
            "/healthz",
            b"",
            &[("x-request-id", "example-trace-1")],
        )
        .expect("healthz");
    println!(
        "GET /healthz with x-request-id -> echoed {:?}",
        tagged.header("x-request-id").unwrap_or("<missing>")
    );

    // Grow the fleet: the consistent hash moves (in expectation) 1/4 of the
    // deployments — each rehydrated on the new shard from artifact bytes.
    let moved = router.add_shard(ShieldServer::with_workers(1));
    println!(
        "added shard 3; rehydrated {:?} on it (everything else stayed put)",
        moved
    );
    let after = client
        .request(
            "POST",
            "/v1/deployments/cartpole/decide",
            br#"{"state": [0.0, 0.1, 0.0, -0.1]}"#,
        )
        .expect("decide still succeeds after resharding");
    println!("POST decide after resharding -> {}", after.status);

    let fleet = router.aggregate_telemetry();
    println!(
        "fleet telemetry: {} deployments, {} requests, {} decisions across {} shards \
         (a moved deployment restarts its counters on its new shard)",
        fleet.deployments,
        fleet.requests,
        fleet.decisions,
        fleet.per_shard.len()
    );

    // Scrape the process-wide metrics registry: every instrumented layer
    // (synthesis, B&B verification, serving, HTTP) publishes here, and the
    // front-end registered the full catalog at bind time, so series exist
    // (at zero) even before their subsystem runs.
    let scrape = client.request("GET", "/metrics", b"").expect("metrics");
    let exposition = scrape.text().into_owned();
    let families = exposition
        .lines()
        .filter(|line| line.starts_with("# TYPE "))
        .count();
    println!(
        "GET /metrics -> {} ({families} series families, {} bytes of text exposition)",
        scrape.status,
        exposition.len()
    );
    for series in [
        "vrl_http_requests_total",
        "vrl_http_codec_phase_seconds_count{phase=\"decode\"}",
        "vrl_runtime_decisions_total",
        "vrl_router_rehydrations_total",
        "vrl_shield_decide_table_hits_total",
        "vrl_shield_decide_table_cells",
    ] {
        let line = exposition
            .lines()
            .find(|line| line.starts_with(series))
            .expect("series is registered");
        println!("  {line}");
    }

    // The spans recorded while serving (each tagged with its request id)
    // export as a Chrome trace — paste into Perfetto / chrome://tracing.
    let spans = vrl_obs::drain_spans();
    let tagged_spans = spans
        .iter()
        .filter(|s| s.request_id.as_deref() == Some("example-trace-1"))
        .count();
    println!(
        "drained {} trace spans ({tagged_spans} tagged example-trace-1); chrome trace is {} bytes",
        spans.len(),
        vrl_obs::spans_to_chrome_trace(&spans).len()
    );

    frontend.shutdown();
    println!("front-end shut down cleanly");
}
