//! Decide conformance over the JSON wire codec: decisions served over
//! HTTP must be bit-identical to the in-process ones, and no non-finite
//! state may reach the shield.
//!
//! Three layers of evidence:
//!
//! 1. A sweep over every Table 1 benchmark (state dimensions 2–8, mixed
//!    action dimensions, obstacles): the same deployment answers a batch of
//!    sampled states over JSON and directly in-process, and the two
//!    decision lists are compared bit-for-bit (`f64::to_bits` on every
//!    action coordinate).
//! 2. The single-state (non-batched) request shape round-trips through the
//!    same deployment and matches the scalar in-process decision.
//! 3. JSON cannot spell NaN or ±inf, so non-finite spellings (and numbers
//!    that overflow `f64`) are rejected at parse time with a structured
//!    `400 malformed_json`, before any state exists.

use std::sync::Arc;
use std::time::Duration;
use vrl::shield::ShieldDecision;
use vrl_benchmarks::all_benchmarks;
use vrl_runtime::http::{HttpConfig, HttpFrontend, MiniClient, ShieldBackend};
use vrl_runtime::wire::{self, Json};
use vrl_runtime::{fixtures, ShieldServer};

/// Per-benchmark shield geometry (the batch-conformance idiom): an
/// ellipsoid at half the safe-box half-widths and mildly stabilizing
/// linear gains, one program row per action dimension.
fn demo_artifact(
    env: &vrl::dynamics::EnvironmentContext,
    seed: u64,
) -> vrl_runtime::ShieldArtifact {
    let safe = env.safety().safe_box();
    let radii: Vec<f64> = safe
        .lows()
        .iter()
        .zip(safe.highs().iter())
        .map(|(lo, hi)| 0.25 * (hi - lo))
        .collect();
    let gains = vec![vec![-0.5; env.state_dim()]; env.action_dim()];
    let program = vrl::synth::PolicyProgram::linear(&gains, &vec![0.0; env.action_dim()]);
    let shield = vrl::shield::Shield::new(
        env.clone(),
        vec![vrl::shield::ShieldPiece::new(
            program,
            fixtures::ellipsoid_certificate(env, &radii),
        )],
    );
    let oracle = fixtures::demo_oracle(env, &[16, 16], seed);
    vrl_runtime::ShieldArtifact::new(shield, oracle).expect("dimensions agree")
}

fn start_frontend(backend: Arc<dyn ShieldBackend>) -> HttpFrontend {
    let config = HttpConfig {
        max_connections: 32,
        idle_timeout: Duration::from_millis(500),
        ..HttpConfig::default()
    };
    HttpFrontend::bind("127.0.0.1:0", backend, config).expect("loopback bind succeeds")
}

fn assert_decisions_bit_identical(
    name: &str,
    wire: &[ShieldDecision],
    reference: &[ShieldDecision],
) {
    assert_eq!(wire.len(), reference.len(), "{name}: decision count");
    for (i, (w, r)) in wire.iter().zip(reference.iter()).enumerate() {
        assert_eq!(w.intervened, r.intervened, "{name}: lane {i}");
        assert_eq!(w.action.len(), r.action.len(), "{name}: lane {i}");
        for (a, b) in w.action.iter().zip(r.action.iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name}: lane {i} action bits diverged ({a} vs {b})"
            );
        }
    }
}

#[test]
fn decisions_bit_identical_over_json_and_in_process_on_all_benchmarks() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let benchmarks = all_benchmarks();
    assert_eq!(benchmarks.len(), 15, "Table 1 lists 15 benchmarks");
    let server = Arc::new(ShieldServer::with_workers(2));
    let frontend = start_frontend(Arc::clone(&server) as Arc<dyn ShieldBackend>);
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();

    for (index, spec) in benchmarks.into_iter().enumerate() {
        let name = spec.name();
        let env = spec.into_env();
        server
            .deploy(name, demo_artifact(&env, 300 + index as u64))
            .unwrap();

        let mut rng = SmallRng::seed_from_u64(9000 + index as u64);
        let safe = env.safety().safe_box().clone();
        // Straddle the certificate boundary too, not just the interior.
        let expanded = safe.scaled_about_center(1.3);
        let states: Vec<Vec<f64>> = (0..32).map(|_| expanded.sample(&mut rng)).collect();
        let reference = server.decide_batch(name, &states).unwrap();
        let path = format!("/v1/deployments/{name}/decide");

        let body = wire::decide_batch_request(&states);
        let response = client.request("POST", &path, body.as_bytes()).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        assert_eq!(
            response.header("content-type"),
            Some("application/json"),
            "{name}"
        );
        let decisions = wire::decode_decide_response(&response.body).unwrap();
        assert_decisions_bit_identical(name, &decisions, &reference);
    }
    frontend.shutdown();
}

#[test]
fn single_state_json_decide_matches_the_scalar_path() {
    let env = vrl_benchmarks::benchmark_by_name("pendulum")
        .expect("pendulum")
        .into_env();
    let server = Arc::new(ShieldServer::with_workers(1));
    server.deploy("pendulum", demo_artifact(&env, 41)).unwrap();
    let frontend = start_frontend(Arc::clone(&server) as Arc<dyn ShieldBackend>);
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();

    let state = [0.21, -0.38];
    let reference = server.decide("pendulum", &state).unwrap();
    let body = format!("{{\"state\":[{},{}]}}", state[0], state[1]);
    let mut out = Vec::new();
    let (status, json) = client
        .post_reusing(
            "/v1/deployments/pendulum/decide",
            "application/json",
            body.as_bytes(),
            &mut out,
        )
        .unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&out));
    assert!(json, "decide responses are JSON");
    let response = Json::parse(&out).unwrap();
    assert!(
        response.get("decisions").is_none(),
        "a non-batched request gets a non-batched response"
    );
    let decision = response.get("decision").expect("single decision");
    let Some(Json::Arr(action)) = decision.get("action") else {
        panic!("decision without action: {}", String::from_utf8_lossy(&out));
    };
    assert_eq!(
        decision.get("intervened"),
        Some(&Json::Bool(reference.intervened))
    );
    assert_eq!(action.len(), reference.action.len());
    for (a, b) in action.iter().zip(reference.action.iter()) {
        let Json::Num(a) = a else {
            panic!("action coordinate {a:?} is not a number");
        };
        assert_eq!(a.to_bits(), b.to_bits());
    }
    frontend.shutdown();
}

/// Asserts a structured error envelope with the given status and code.
fn assert_error_envelope(response: &vrl_runtime::MiniResponse, status: u16, code: &str) {
    assert_eq!(response.status, status, "{}", response.text());
    assert_eq!(response.header("content-type"), Some("application/json"));
    let json = Json::parse(&response.body).expect("error bodies are JSON");
    let error = json.get("error").expect("structured error envelope");
    assert_eq!(error.get("status"), Some(&Json::U64(status as u64)));
    assert_eq!(error.get("code"), Some(&Json::Str(code.to_string())));
}

#[test]
fn non_finite_json_spellings_are_malformed_json() {
    let env = vrl_benchmarks::benchmark_by_name("pendulum")
        .expect("pendulum")
        .into_env();
    let server = Arc::new(ShieldServer::with_workers(1));
    server.deploy("pendulum", demo_artifact(&env, 43)).unwrap();
    let frontend = start_frontend(Arc::clone(&server) as Arc<dyn ShieldBackend>);
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();
    let path = "/v1/deployments/pendulum/decide";

    // JSON cannot spell a non-finite state: the parser rejects the
    // spellings (and numbers that overflow f64) before any state exists,
    // in single and batched requests alike.
    for body in [
        br#"{"state": [NaN, 0.0]}"#.as_slice(),
        br#"{"state": [Infinity, 0.0]}"#.as_slice(),
        br#"{"state": [-Infinity, 0.0]}"#.as_slice(),
        br#"{"state": [1e400, 0.0]}"#.as_slice(),
        br#"{"state": [1e999, 0.0]}"#.as_slice(),
        br#"{"states": [[0.1, 0.2], [0.0, -1e400], [0.3, 0.4]]}"#.as_slice(),
    ] {
        let response = client.request("POST", path, body).unwrap();
        assert_error_envelope(&response, 400, "malformed_json");
    }

    // A `null` hole in a state array is a schema error, not a state.
    let response = client
        .request("POST", path, br#"{"state": [null, 0.0]}"#)
        .unwrap();
    assert_error_envelope(&response, 400, "invalid_request");

    // The finite control: the same batch with the bad lane repaired is
    // served bit-identically on the same connection.
    let states = vec![vec![0.1, 0.2], vec![0.0, 0.0], vec![0.3, 0.4]];
    let reference = server.decide_batch("pendulum", &states).unwrap();
    let response = client
        .request("POST", path, wire::decide_batch_request(&states).as_bytes())
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert_decisions_bit_identical(
        "pendulum",
        &wire::decode_decide_response(&response.body).unwrap(),
        &reference,
    );
    frontend.shutdown();
}
