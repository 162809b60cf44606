//! End-to-end tests of the HTTP serving front-end: the full
//! PUT-artifact → decide-batch → telemetry story over a real loopback
//! socket, the wire-level error contract (structured 4xx for malformed,
//! truncated, oversized, and wrong-dimension requests — never a panic or a
//! dropped connection without a status), and HTTP over a `Router`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use vrl_benchmarks::benchmark_by_name;
use vrl_runtime::http::{HttpConfig, HttpFrontend, MiniClient, ShieldBackend};
use vrl_runtime::wire::Json;
use vrl_runtime::{fixtures, replica_set, RemoteShard, Router, ShieldArtifact, ShieldServer};

/// The pendulum demo deployment used throughout (the bench deployment, with
/// a smaller oracle so debug-mode tests stay fast).
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

fn start_frontend(backend: Arc<dyn ShieldBackend>) -> HttpFrontend {
    let config = HttpConfig {
        max_connections: 32,
        idle_timeout: Duration::from_millis(500),
        ..HttpConfig::default()
    };
    HttpFrontend::bind("127.0.0.1:0", backend, config).expect("loopback bind succeeds")
}

fn json_f64(value: &Json) -> f64 {
    match value {
        Json::Num(v) => *v,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// Extracts `[(action, intervened)]` from a batched decide response.
fn parse_decisions(body: &[u8]) -> Vec<(Vec<f64>, bool)> {
    let json = Json::parse(body).expect("response is valid JSON");
    let Some(Json::Arr(decisions)) = json.get("decisions") else {
        panic!("missing decisions in {}", String::from_utf8_lossy(body));
    };
    decisions
        .iter()
        .map(|d| {
            let Some(Json::Arr(action)) = d.get("action") else {
                panic!("decision without action");
            };
            let Some(Json::Bool(intervened)) = d.get("intervened") else {
                panic!("decision without intervened");
            };
            (action.iter().map(json_f64).collect(), *intervened)
        })
        .collect()
}

#[test]
fn deploy_decide_telemetry_end_to_end() {
    // Acceptance scenario: PUT an artifact over the wire, serve a 100-state
    // batched decide, and pin the decisions bit-identical to calling
    // ShieldServer::decide_batch directly on the same bytes.
    let frontend = start_frontend(Arc::new(ShieldServer::with_workers(2)));
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();

    let artifact = pendulum_artifact(17);
    let bytes = artifact.to_bytes();
    let put = client
        .request("PUT", "/v1/deployments/pendulum", &bytes)
        .unwrap();
    assert_eq!(put.status, 200, "{}", put.text());
    let put_json = Json::parse(&put.body).unwrap();
    assert_eq!(put_json.get("generation"), Some(&Json::U64(1)));
    assert_eq!(
        put_json.get("environment"),
        Some(&Json::Str("pendulum".to_string()))
    );

    // 100-state batch over the wire.
    let states = sample_states(100, 23);
    let body = Json::Obj(vec![(
        "states".to_string(),
        Json::Arr(
            states
                .iter()
                .map(|s| Json::Arr(s.iter().map(|&v| Json::Num(v)).collect()))
                .collect(),
        ),
    )])
    .render();
    let response = client
        .request("POST", "/v1/deployments/pendulum/decide", body.as_bytes())
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let wire_decisions = parse_decisions(&response.body);
    assert_eq!(wire_decisions.len(), 100);

    // The reference: a direct in-process server over the same bytes.
    let direct = ShieldServer::with_workers(1);
    direct
        .deploy("pendulum", ShieldArtifact::from_bytes(&bytes).unwrap())
        .unwrap();
    let direct_decisions = direct.decide_batch("pendulum", &states).unwrap();
    for (wire, direct) in wire_decisions.iter().zip(direct_decisions.iter()) {
        assert_eq!(wire.1, direct.intervened);
        assert_eq!(wire.0.len(), direct.action.len());
        for (w, d) in wire.0.iter().zip(direct.action.iter()) {
            assert_eq!(w.to_bits(), d.to_bits(), "actions must be bit-identical");
        }
    }

    // Single-state shape serves the same decision as the direct scalar call.
    let single = client
        .request(
            "POST",
            "/v1/deployments/pendulum/decide",
            format!("{{\"state\": [{}, {}]}}", states[0][0], states[0][1]).as_bytes(),
        )
        .unwrap();
    assert_eq!(single.status, 200);
    let single_json = Json::parse(&single.body).unwrap();
    let decision = single_json.get("decision").expect("single-state framing");
    let Some(Json::Arr(action)) = decision.get("action") else {
        panic!("missing action");
    };
    for (w, d) in action.iter().zip(direct_decisions[0].action.iter()) {
        assert_eq!(json_f64(w).to_bits(), d.to_bits());
    }

    // Telemetry: one PUT, two decide requests, 101 decisions.
    let telemetry = client
        .request("GET", "/v1/deployments/pendulum/telemetry", b"")
        .unwrap();
    assert_eq!(telemetry.status, 200);
    let t = Json::parse(&telemetry.body).unwrap();
    assert_eq!(t.get("requests"), Some(&Json::U64(2)));
    assert_eq!(t.get("decisions"), Some(&Json::U64(101)));
    assert_eq!(t.get("generation"), Some(&Json::U64(1)));

    // healthz lists the deployment with its generation, plus uptime.
    let health = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    let h = Json::parse(&health.body).unwrap();
    assert_eq!(h.get("status"), Some(&Json::Str("ok".to_string())));
    assert!(matches!(h.get("uptime_seconds"), Some(Json::U64(_))));
    let Some(Json::Arr(deployments)) = h.get("deployments") else {
        panic!("healthz without deployments: {}", health.text());
    };
    assert_eq!(deployments.len(), 1);
    assert_eq!(
        deployments[0].get("name"),
        Some(&Json::Str("pendulum".to_string()))
    );
    assert_eq!(deployments[0].get("generation"), Some(&Json::U64(1)));

    // A second PUT is a hot redeploy: generation 2.
    let redeploy = client
        .request(
            "PUT",
            "/v1/deployments/pendulum",
            &pendulum_artifact(18).to_bytes(),
        )
        .unwrap();
    assert_eq!(redeploy.status, 200);
    let r = Json::parse(&redeploy.body).unwrap();
    assert_eq!(r.get("generation"), Some(&Json::U64(2)));

    frontend.shutdown();
}

/// Asserts one request's status and `error.code`, on a fresh connection.
fn assert_error(
    frontend: &HttpFrontend,
    method: &str,
    path: &str,
    body: &[u8],
    status: u16,
    code: &str,
) {
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();
    let response = client.request(method, path, body).unwrap();
    assert_eq!(response.status, status, "{}", response.text());
    let json = Json::parse(&response.body).expect("error bodies are JSON");
    let error = json.get("error").expect("structured error envelope");
    assert_eq!(error.get("status"), Some(&Json::U64(status as u64)));
    assert_eq!(error.get("code"), Some(&Json::Str(code.to_string())));
    assert!(matches!(error.get("message"), Some(Json::Str(_))));
    // Every error envelope names the request it failed, and the same id is
    // echoed as a header.
    let Some(Json::Str(request_id)) = error.get("request_id") else {
        panic!("error envelope without request_id: {}", response.text());
    };
    assert_eq!(response.header("x-request-id"), Some(request_id.as_str()));
}

#[test]
fn wire_errors_are_structured_4xx() {
    let server = Arc::new(ShieldServer::with_workers(1));
    server.deploy("toy", pendulum_artifact(3)).unwrap();
    let frontend = start_frontend(server);
    let decide = "/v1/deployments/toy/decide";

    // Malformed JSON bodies.
    assert_error(
        &frontend,
        "POST",
        decide,
        b"{not json",
        400,
        "malformed_json",
    );
    assert_error(&frontend, "POST", decide, b"", 400, "malformed_json");
    assert_error(
        &frontend,
        "POST",
        decide,
        br#"{"states": [[0.1, 0.2"#,
        400,
        "malformed_json",
    );
    // Well-formed, wrong shape.
    assert_error(&frontend, "POST", decide, b"{}", 400, "invalid_request");
    assert_error(
        &frontend,
        "POST",
        decide,
        br#"{"state": "zero"}"#,
        400,
        "invalid_request",
    );
    // Oversized batch: limit is HttpConfig::default().max_batch = 8192.
    let oversized = format!("{{\"states\": [{}]}}", vec!["[0,0]"; 8193].join(","));
    assert_error(
        &frontend,
        "POST",
        decide,
        oversized.as_bytes(),
        413,
        "batch_too_large",
    );
    // Wrong-dimension states: understood but unservable.  (Non-finite
    // states cannot arrive via JSON — the parser already rejects numbers
    // that overflow f64 — so `non_finite_state` is pinned by the server's
    // unit tests instead.)
    assert_error(
        &frontend,
        "POST",
        decide,
        br#"{"state": [0.1, 0.2, 0.3]}"#,
        422,
        "dimension_mismatch",
    );
    assert_error(
        &frontend,
        "POST",
        decide,
        br#"{"states": [[0.1, 0.2], [0.3]]}"#,
        422,
        "dimension_mismatch",
    );
    // Unknown deployment and unknown path.
    assert_error(
        &frontend,
        "POST",
        "/v1/deployments/ghost/decide",
        br#"{"state": [0, 0]}"#,
        404,
        "unknown_deployment",
    );
    assert_error(&frontend, "GET", "/v1/nope", b"", 404, "not_found");
    // Wrong method on a real path.
    assert_error(&frontend, "GET", decide, b"", 405, "method_not_allowed");
    assert_error(
        &frontend,
        "POST",
        "/v1/deployments/toy",
        b"x",
        405,
        "method_not_allowed",
    );
    // Corrupt artifact uploads: checksum flip vs. garbage vs. truncation.
    let mut corrupt = pendulum_artifact(4).to_bytes();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x20;
    assert_error(
        &frontend,
        "PUT",
        "/v1/deployments/toy2",
        &corrupt,
        422,
        "checksum_mismatch",
    );
    assert_error(
        &frontend,
        "PUT",
        "/v1/deployments/toy2",
        b"not an artifact",
        422,
        "bad_magic",
    );
    let whole = pendulum_artifact(4).to_bytes();
    assert_error(
        &frontend,
        "PUT",
        "/v1/deployments/toy2",
        &whole[..whole.len() - 10],
        422,
        "artifact_truncated",
    );
    // Dimension-incompatible hot redeploy.
    let env = benchmark_by_name("cartpole").expect("cartpole").into_env();
    let cartpole = fixtures::demo_artifact(
        &env,
        &fixtures::CARTPOLE_GAINS,
        &fixtures::CARTPOLE_RADII,
        &[8],
        1,
    )
    .unwrap();
    assert_error(
        &frontend,
        "PUT",
        "/v1/deployments/toy",
        &cartpole.to_bytes(),
        409,
        "incompatible_artifact",
    );

    frontend.shutdown();
}

#[test]
fn http_level_framing_errors_are_clean() {
    let frontend = start_frontend(Arc::new(ShieldServer::with_workers(1)));
    let addr = frontend.local_addr();

    let raw = |request: &[u8]| -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(request).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = Vec::new();
        stream.read_to_end(&mut out).unwrap();
        String::from_utf8_lossy(&out).into_owned()
    };

    // Truncated body: Content-Length promises more than arrives.
    let truncated = raw(
        b"POST /v1/deployments/toy/decide HTTP/1.1\r\ncontent-length: 400\r\n\r\n{\"state\": [",
    );
    assert!(truncated.starts_with("HTTP/1.1 400"), "{truncated}");
    assert!(truncated.contains("truncated_body"), "{truncated}");

    // Missing Content-Length on POST.
    let lengthless = raw(b"POST /v1/deployments/toy/decide HTTP/1.1\r\n\r\n");
    assert!(lengthless.starts_with("HTTP/1.1 411"), "{lengthless}");

    // Chunked encoding is politely refused.
    let chunked =
        raw(b"POST /v1/deployments/toy/decide HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n");
    assert!(chunked.starts_with("HTTP/1.1 501"), "{chunked}");

    // Garbage request line.
    let garbage = raw(b"\x01\x02\x03\r\n\r\n");
    assert!(garbage.starts_with("HTTP/1.1 400"), "{garbage}");

    // Declared body over the configured limit.
    let huge = raw(b"PUT /v1/deployments/toy HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n");
    assert!(huge.starts_with("HTTP/1.1 413"), "{huge}");

    frontend.shutdown();
}

#[test]
fn frontend_serves_a_shard_router() {
    // The same wire protocol over a sharded fleet: deployments land on
    // their placed shards and answer identically to a direct server.
    let router = Arc::new(Router::new(
        (0..3).map(|_| ShieldServer::with_workers(1)).collect(),
        1,
    ));
    let frontend = start_frontend(Arc::clone(&router) as Arc<dyn ShieldBackend>);
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();

    let names = ["alpha", "beta", "gamma", "delta"];
    for (i, name) in names.iter().enumerate() {
        let response = client
            .request(
                "PUT",
                &format!("/v1/deployments/{name}"),
                &pendulum_artifact(i as u64).to_bytes(),
            )
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
    }
    let health = client.request("GET", "/healthz", b"").unwrap();
    let h = Json::parse(&health.body).unwrap();
    let Some(Json::Arr(deployments)) = h.get("deployments") else {
        panic!("healthz without deployments: {}", health.text());
    };
    let listed: Vec<&str> = deployments
        .iter()
        .map(|d| match d.get("name") {
            Some(Json::Str(name)) => name.as_str(),
            other => panic!("deployment without name: {other:?}"),
        })
        .collect();
    assert_eq!(listed, ["alpha", "beta", "delta", "gamma"]);
    for d in deployments {
        assert_eq!(d.get("generation"), Some(&Json::U64(1)));
    }

    let states = sample_states(40, 7);
    let body = Json::Obj(vec![(
        "states".to_string(),
        Json::Arr(
            states
                .iter()
                .map(|s| Json::Arr(s.iter().map(|&v| Json::Num(v)).collect()))
                .collect(),
        ),
    )])
    .render();
    for (i, name) in names.iter().enumerate() {
        let response = client
            .request(
                "POST",
                &format!("/v1/deployments/{name}/decide"),
                body.as_bytes(),
            )
            .unwrap();
        assert_eq!(response.status, 200);
        let wire_decisions = parse_decisions(&response.body);
        let direct = ShieldServer::with_workers(1);
        direct.deploy(*name, pendulum_artifact(i as u64)).unwrap();
        let direct_decisions = direct.decide_batch(name, &states).unwrap();
        for (wire, direct) in wire_decisions.iter().zip(direct_decisions.iter()) {
            for (w, d) in wire.0.iter().zip(direct.action.iter()) {
                assert_eq!(w.to_bits(), d.to_bits());
            }
        }
    }

    // Fleet telemetry adds up across shards even when served over HTTP.
    let fleet = router.aggregate_telemetry();
    assert_eq!(fleet.deployments, names.len() as u64);
    assert_eq!(fleet.requests, names.len() as u64);
    assert_eq!(fleet.decisions, (names.len() * states.len()) as u64);

    frontend.shutdown();
}

#[test]
fn add_shard_moves_deployments_across_a_remote_fleet() {
    // A two-replica fleet of HTTP shards grows by a third: every moved
    // deployment serves bit-identically from each shard of its new replica
    // set, and a shard that left a replica set no longer lists the
    // deployment in /healthz.
    let shards: Vec<HttpFrontend> = (0..3)
        .map(|_| start_frontend(Arc::new(ShieldServer::with_workers(1))))
        .collect();
    let addrs: Vec<_> = shards.iter().map(HttpFrontend::local_addr).collect();
    let router = Router::new(
        addrs[..2]
            .iter()
            .map(|&addr| RemoteShard::new(addr))
            .collect(),
        2,
    );
    let names: Vec<String> = (0..8).map(|i| format!("remote-{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        router.deploy(name, pendulum_artifact(i as u64)).unwrap();
    }

    let moved = router.add_shard(RemoteShard::new(addrs[2]));
    assert!(!moved.is_empty(), "the new shard enters some replica set");
    let listed = |index: usize| -> Vec<String> {
        let deployments = RemoteShard::new(addrs[index]).deployment_generations();
        deployments
            .expect("healthz")
            .into_iter()
            .map(|(name, _)| name)
            .collect()
    };
    assert_eq!(listed(2), moved, "the new shard holds exactly the movers");

    let states = sample_states(24, 5);
    for (i, name) in names.iter().enumerate() {
        let replicas = router.replicas_for(name);
        assert_eq!(replicas, replica_set(name, 3, 2));
        assert_eq!(moved.contains(name), replicas.contains(&2), "{name}");
        let direct = ShieldServer::with_workers(1);
        direct.deploy(name, pendulum_artifact(i as u64)).unwrap();
        let expected = direct.decide_batch(name, &states).unwrap();
        for &index in &replicas {
            let served = RemoteShard::new(addrs[index])
                .decide_batch_remote(name, &states)
                .unwrap_or_else(|e| panic!("{name} on shard {index}: {e}"));
            assert_eq!(served, expected, "{name} on shard {index}");
        }
        assert_eq!(router.decide_batch(name, &states).unwrap(), expected);
        for left in (0..2).filter(|index| !replicas.contains(index)) {
            assert!(
                !listed(left).contains(name),
                "{name} left shard {left}'s replica set but is still listed"
            );
        }
    }

    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

/// The distinct series names (metric name + labels stripped) in a
/// Prometheus text exposition.
fn series_names(text: &str) -> Vec<String> {
    let mut names: Vec<String> = text
        .lines()
        .filter(|line| !line.starts_with('#') && !line.is_empty())
        .map(|line| line.split(['{', ' ']).next().unwrap().to_string())
        .collect();
    names.sort();
    names.dedup();
    names
}

#[test]
fn metrics_scrape_serves_the_cross_layer_catalog() {
    // The golden scrape: a fresh front-end serves the complete registry —
    // synthesis, solver, and serving series — over loopback, in valid
    // Prometheus text exposition format.  The registry is process-global
    // and other tests run concurrently, so values are asserted as floors.
    let server = Arc::new(ShieldServer::with_workers(1));
    server.deploy("toy", pendulum_artifact(5)).unwrap();
    let frontend = start_frontend(server);
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();

    // Drive some traffic so the serving counters are visibly nonzero.
    for _ in 0..3 {
        let response = client
            .request(
                "POST",
                "/v1/deployments/toy/decide",
                br#"{"state": [0.05, 0.0]}"#,
            )
            .unwrap();
        assert_eq!(response.status, 200);
    }

    let scrape = client.request("GET", "/metrics", b"").unwrap();
    assert_eq!(scrape.status, 200);
    assert_eq!(
        scrape.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = scrape.text().into_owned();

    // Well-formed exposition: every series has a HELP and TYPE comment.
    for line in text.lines() {
        assert!(!line.is_empty(), "no blank lines in the exposition");
    }
    let names = series_names(&text);
    // Histograms explode into _bucket/_sum/_count; count base families.
    let families: Vec<&String> = names
        .iter()
        .filter(|n| !n.ends_with("_bucket") && !n.ends_with("_sum") && !n.ends_with("_count"))
        .collect();
    assert!(
        families.len() >= 15,
        "expected >= 15 series families, got {}: {families:?}",
        families.len()
    );
    // The catalog spans all instrumented layers.
    for prefix in ["vrl_synth_", "vrl_solver_", "vrl_runtime_", "vrl_http_"] {
        assert!(
            names.iter().any(|n| n.starts_with(prefix)),
            "no {prefix} series in {names:?}"
        );
    }
    // Specific series with guaranteed-nonzero values after the traffic
    // above (floors: other tests share the process-global registry).
    let value_of = |series: &str| -> f64 {
        text.lines()
            .find(|line| line.starts_with(series) && line.as_bytes()[series.len()] == b' ')
            .and_then(|line| line.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("series {series} not found"))
    };
    assert!(value_of("vrl_runtime_requests_total") >= 3.0);
    assert!(value_of("vrl_runtime_decisions_total") >= 3.0);
    assert!(value_of("vrl_runtime_decide_latency_seconds_count") >= 3.0);
    assert!(value_of("vrl_http_requests_total{status=\"200\"}") >= 3.0);
    // The pendulum fixture synthesizes nothing at serve time, so CEGIS and
    // solver series exist but may legitimately be zero here.
    assert!(text.contains("vrl_solver_bb_queries_total"));
    assert!(text.contains("vrl_synth_cegis_runs_total"));

    // The 405 guard covers the metrics path too.
    assert_error(
        &frontend,
        "POST",
        "/metrics",
        b"",
        405,
        "method_not_allowed",
    );

    frontend.shutdown();
}

#[test]
fn request_ids_echo_and_generate() {
    let frontend = start_frontend(Arc::new(ShieldServer::with_workers(1)));
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();

    // A client-supplied id is echoed verbatim, on successes and errors.
    let ok = client
        .request_with_headers("GET", "/healthz", b"", &[("x-request-id", "trace-me-42")])
        .unwrap();
    assert_eq!(ok.status, 200);
    assert_eq!(ok.header("x-request-id"), Some("trace-me-42"));
    let err = client
        .request_with_headers("GET", "/v1/nope", b"", &[("x-request-id", "trace-me-43")])
        .unwrap();
    assert_eq!(err.status, 404);
    assert_eq!(err.header("x-request-id"), Some("trace-me-43"));
    let json = Json::parse(&err.body).unwrap();
    assert_eq!(
        json.get("error").and_then(|e| e.get("request_id")),
        Some(&Json::Str("trace-me-43".to_string()))
    );

    // No id supplied: the server generates a req-<16 hex> one.
    let generated = client.request("GET", "/healthz", b"").unwrap();
    let id = generated.header("x-request-id").expect("generated id");
    assert!(id.starts_with("req-"), "{id}");
    assert_eq!(id.len(), 4 + 16, "{id}");
    // Distinct per request.
    let second = client.request("GET", "/healthz", b"").unwrap();
    assert_ne!(second.header("x-request-id"), Some(id));

    // Invalid ids (controls/spaces, overlong) are replaced, not reflected.
    let invalid = client
        .request_with_headers("GET", "/healthz", b"", &[("x-request-id", "has space")])
        .unwrap();
    assert!(invalid
        .header("x-request-id")
        .is_some_and(|v| v.starts_with("req-")));
    let overlong = "x".repeat(129);
    let invalid = client
        .request_with_headers("GET", "/healthz", b"", &[("x-request-id", &overlong)])
        .unwrap();
    assert!(invalid
        .header("x-request-id")
        .is_some_and(|v| v.starts_with("req-")));

    frontend.shutdown();
}

#[test]
fn span_exports_round_trip_as_json() {
    // Spans recorded during request handling drain from the global ring and
    // export as parseable JSON lines and a parseable Chrome trace.  Other
    // tests in this binary record spans concurrently, so filter to the
    // uniquely named spans created here.
    let frontend = start_frontend(Arc::new(ShieldServer::with_workers(1)));
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();
    let ok = client
        .request_with_headers(
            "GET",
            "/healthz",
            b"",
            &[("x-request-id", "span-roundtrip-req")],
        )
        .unwrap();
    assert_eq!(ok.status, 200);
    {
        let _outer = vrl_obs::span("roundtrip.outer");
        let _inner = vrl_obs::request_span("roundtrip.inner", "span-roundtrip-req");
    }
    // The HTTP span closes on the serving thread before the response is
    // written, but give its flush a moment under load.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut records = Vec::new();
    loop {
        records.extend(vrl_obs::drain_spans());
        let have_http = records.iter().any(|r| {
            r.request_id.as_deref() == Some("span-roundtrip-req") && r.name == "http.request"
        });
        if have_http || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let ours: Vec<vrl_obs::SpanRecord> = records
        .into_iter()
        .filter(|r| {
            r.name.starts_with("roundtrip.")
                || r.request_id.as_deref() == Some("span-roundtrip-req")
        })
        .collect();
    let outer = ours.iter().find(|r| r.name == "roundtrip.outer").unwrap();
    let inner = ours.iter().find(|r| r.name == "roundtrip.inner").unwrap();
    let http = ours.iter().find(|r| r.name == "http.request").unwrap();
    assert_eq!(inner.parent, outer.id);
    assert_eq!(http.request_id.as_deref(), Some("span-roundtrip-req"));

    // JSON-lines export: every line parses and carries the span fields.
    let lines = vrl_obs::spans_to_json_lines(&ours);
    for (line, record) in lines.lines().zip(ours.iter()) {
        let json = Json::parse(line.as_bytes()).expect("span line parses");
        assert_eq!(json.get("name"), Some(&Json::Str(record.name.to_string())));
        assert_eq!(json.get("id"), Some(&Json::U64(record.id)));
        assert_eq!(json.get("dur_ns"), Some(&Json::U64(record.dur_ns)));
    }

    // Chrome trace export: a single JSON array of complete ("X") events
    // with microsecond timestamps — what Perfetto/chrome://tracing opens.
    let trace = vrl_obs::spans_to_chrome_trace(&ours);
    let Json::Arr(events) = Json::parse(trace.as_bytes()).expect("trace parses") else {
        panic!("chrome trace is not an array: {trace}");
    };
    assert_eq!(events.len(), ours.len());
    for (event, record) in events.iter().zip(ours.iter()) {
        assert_eq!(event.get("name"), Some(&Json::Str(record.name.to_string())));
        assert_eq!(event.get("ph"), Some(&Json::Str("X".to_string())));
        assert_eq!(event.get("pid"), Some(&Json::U64(1)));
        assert_eq!(event.get("tid"), Some(&Json::U64(record.thread)));
        let dur_us = event.get("dur").and_then(Json::as_f64).expect("dur");
        assert!((dur_us - record.dur_ns as f64 / 1000.0).abs() < 0.001);
        if let Some(request_id) = &record.request_id {
            assert_eq!(
                event.get("args").and_then(|a| a.get("request_id")),
                Some(&Json::Str(request_id.to_string()))
            );
        }
    }

    frontend.shutdown();
}

#[test]
fn keep_alive_and_pipelined_requests_share_a_connection() {
    let server = Arc::new(ShieldServer::with_workers(1));
    server.deploy("toy", pendulum_artifact(9)).unwrap();
    let frontend = start_frontend(server);
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();
    // Many requests over one connection.
    for i in 0..20 {
        let x = (i as f64) / 100.0;
        let response = client
            .request(
                "POST",
                "/v1/deployments/toy/decide",
                format!("{{\"state\": [{x}, 0.0]}}").as_bytes(),
            )
            .unwrap();
        assert_eq!(response.status, 200);
    }
    // Two requests written back-to-back before reading either response.
    let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let one = b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n";
    let mut two = Vec::new();
    two.extend_from_slice(one);
    two.extend_from_slice(
        b"GET /v1/deployments/toy/telemetry HTTP/1.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
    );
    stream.write_all(&two).unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    let text = String::from_utf8_lossy(&out);
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
    frontend.shutdown();
}

#[test]
fn delete_undeploys_over_the_wire() {
    let server = Arc::new(ShieldServer::with_workers(1));
    let frontend = start_frontend(server);
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();

    let put = client
        .request(
            "PUT",
            "/v1/deployments/toy",
            &pendulum_artifact(11).to_bytes(),
        )
        .unwrap();
    assert_eq!(put.status, 200);

    let deleted = client
        .request("DELETE", "/v1/deployments/toy", b"")
        .unwrap();
    assert_eq!(deleted.status, 200);
    let json = Json::parse(&deleted.body).unwrap();
    assert_eq!(json.get("undeployed"), Some(&Json::Bool(true)));

    // A second DELETE and a decide against the gone deployment are both
    // structured 404s, not dropped connections.
    let again = client
        .request("DELETE", "/v1/deployments/toy", b"")
        .unwrap();
    assert_eq!(again.status, 404);
    assert!(
        again.text().contains("unknown_deployment"),
        "{}",
        again.text()
    );
    let decide = client
        .request(
            "POST",
            "/v1/deployments/toy/decide",
            br#"{"state": [0.0, 0.0]}"#,
        )
        .unwrap();
    assert_eq!(decide.status, 404);
    frontend.shutdown();
}

#[test]
fn overload_503_carries_retry_after() {
    let server = Arc::new(ShieldServer::with_workers(1));
    let config = HttpConfig {
        max_connections: 1,
        idle_timeout: Duration::from_secs(5),
        ..HttpConfig::default()
    };
    let frontend =
        HttpFrontend::bind("127.0.0.1:0", server, config).expect("loopback bind succeeds");

    // The first client occupies the only connection slot (its keep-alive
    // serving thread stays live between requests).
    let mut first = MiniClient::connect(frontend.local_addr()).unwrap();
    assert_eq!(first.request("GET", "/healthz", b"").unwrap().status, 200);

    // The second connection is shed with a structured 503 that tells the
    // client when to come back.
    let mut second = MiniClient::connect(frontend.local_addr()).unwrap();
    let shed = second.request("GET", "/healthz", b"").unwrap();
    assert_eq!(shed.status, 503);
    assert!(shed.text().contains("overloaded"), "{}", shed.text());
    let retry_after = shed
        .header("retry-after")
        .expect("overload 503 advertises retry-after");
    assert!(
        retry_after.parse::<u64>().unwrap() >= 1,
        "retry-after must be at least a second: {retry_after}"
    );
    frontend.shutdown();
}

#[test]
fn every_content_type_takes_json() {
    // JSON is the decide endpoint's only codec: the request Content-Type
    // is not consulted, and every response is JSON.
    let server = Arc::new(ShieldServer::with_workers(1));
    server.deploy("toy", pendulum_artifact(13)).unwrap();
    let frontend = start_frontend(server.clone());
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();
    let path = "/v1/deployments/toy/decide";
    let states = vec![vec![0.1, -0.2], vec![0.0, 0.3]];
    let json_body = vrl_runtime::wire::decide_batch_request(&states);
    let reference = server.decide_batch("toy", &states).unwrap();

    let post = |client: &mut MiniClient, content_type: Option<&str>, body: &[u8]| match content_type
    {
        Some(value) => client
            .request_with_headers("POST", path, body, &[("content-type", value)])
            .unwrap(),
        None => client.request("POST", path, body).unwrap(),
    };

    for content_type in [
        None,
        Some("application/json"),
        Some("text/plain"),
        Some("application/x-vrl-frame"),
    ] {
        let response = post(&mut client, content_type, json_body.as_bytes());
        assert_eq!(response.status, 200, "{}", response.text());
        assert_eq!(response.header("content-type"), Some("application/json"));
        let decisions = vrl_runtime::wire::decode_decide_response(&response.body).unwrap();
        assert_eq!(decisions, reference, "{content_type:?}");
    }

    // A binary body laid out like the retired `VRLW` decide frame (magic,
    // version, kind, payload length, then flags, dim, count and raw f64
    // bits) is just malformed JSON: a structured 400, and the keep-alive
    // connection stays usable.
    let mut payload = vec![1u8];
    payload.extend_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(&2u32.to_le_bytes());
    for value in states.iter().flatten() {
        payload.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    let mut binary_body = b"VRLW".to_vec();
    binary_body.extend_from_slice(&1u32.to_le_bytes());
    binary_body.push(1);
    binary_body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    binary_body.extend_from_slice(&payload);
    let response = post(&mut client, Some("application/x-vrl-frame"), &binary_body);
    assert_eq!(response.status, 400, "{}", response.text());
    assert_eq!(response.header("content-type"), Some("application/json"));
    assert!(
        response.text().contains("malformed_json"),
        "{}",
        response.text()
    );
    let response = post(&mut client, None, json_body.as_bytes());
    assert_eq!(response.status, 200, "{}", response.text());
    let decisions = vrl_runtime::wire::decode_decide_response(&response.body).unwrap();
    assert_eq!(decisions, reference);

    // The decode and encode phases of the served decides were clocked.
    let scrape = client.request("GET", "/metrics", b"").unwrap();
    let text = scrape.text().into_owned();
    let value_of = |series: &str| -> f64 {
        text.lines()
            .find(|line| line.starts_with(series))
            .and_then(|line| line.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("series {series} not found"))
    };
    assert!(value_of("vrl_http_codec_phase_seconds_count{phase=\"decode\"}") >= 1.0);
    assert!(value_of("vrl_http_codec_phase_seconds_count{phase=\"encode\"}") >= 1.0);

    frontend.shutdown();
}

#[test]
fn mini_client_read_timeout_is_a_clean_error() {
    // A listener that accepts at the OS level (connects land in the
    // backlog) but never answers: the request must fail with a clean
    // `TimedOut` within the configured deadline, not hang.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = MiniClient::connect_with_timeouts(
        addr,
        Duration::from_secs(1),
        Duration::from_millis(200),
        Duration::from_millis(200),
    )
    .expect("connect lands in the accept backlog");
    let started = std::time::Instant::now();
    let error = client
        .request("GET", "/healthz", b"")
        .expect_err("silent peer must time out");
    assert_eq!(error.kind(), std::io::ErrorKind::TimedOut, "{error}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout must honor the configured deadline, took {:?}",
        started.elapsed()
    );
    drop(listener);
}
