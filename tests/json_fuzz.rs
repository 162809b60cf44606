//! Corrupted-JSON robustness at the HTTP boundary, mirroring
//! `artifact_fuzz.rs` for the decide codec: every truncation of a valid
//! request, a bit flip at every byte offset, hundreds of random mutations,
//! adversarial nesting and oversize declarations must each get a
//! structured answer on a connection that keeps serving.
//!
//! JSON carries no checksum, and a flipped digit is just a different
//! finite state, so payload corruption may legitimately serve.  The
//! invariants fuzzed here are *no panic, no hang, always a structured
//! answer*, and hard rejection wherever the corruption breaks the syntax.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use vrl_runtime::http::{HttpConfig, HttpFrontend, MiniClient, ShieldBackend};
use vrl_runtime::wire::{self, Json, MAX_JSON_DEPTH};
use vrl_runtime::{fixtures, ShieldServer, StateArena};

const DECIDE: &str = "/v1/deployments/pendulum/decide";

/// Per-request limits small enough that the oversize checks stay cheap.
const MAX_BODY_BYTES: usize = 1 << 16;
const MAX_BATCH: usize = 64;

fn pendulum_frontend() -> (HttpFrontend, Arc<ShieldServer>) {
    let env = vrl_benchmarks::benchmark_by_name("pendulum")
        .expect("pendulum")
        .into_env();
    let artifact = fixtures::demo_artifact(
        &env,
        &fixtures::PENDULUM_GAINS,
        &fixtures::PENDULUM_RADII,
        &[16],
        71,
    )
    .expect("dimensions agree");
    let server = Arc::new(ShieldServer::with_workers(1));
    server.deploy("pendulum", artifact).unwrap();
    let config = HttpConfig {
        max_connections: 32,
        idle_timeout: Duration::from_millis(500),
        max_body_bytes: MAX_BODY_BYTES,
        max_batch: MAX_BATCH,
        ..HttpConfig::default()
    };
    let frontend = HttpFrontend::bind(
        "127.0.0.1:0",
        Arc::clone(&server) as Arc<dyn ShieldBackend>,
        config,
    )
    .expect("loopback bind succeeds");
    (frontend, server)
}

fn valid_request() -> Vec<u8> {
    let states = vec![vec![0.11, -0.22], vec![0.05, 0.40], vec![-0.31, 0.07]];
    wire::decide_batch_request(&states).into_bytes()
}

/// POSTs `body` as a decide and asserts a structured answer: a 200 whose
/// body decodes, or a 4xx JSON error envelope with a code.  Returns the
/// status and the error code (empty on 200).
fn post(client: &mut MiniClient, body: &[u8]) -> (u16, String) {
    let response = client
        .request("POST", DECIDE, body)
        .expect("the connection must survive a corrupt body");
    assert_eq!(response.header("content-type"), Some("application/json"));
    let json = Json::parse(&response.body).expect("every answer is JSON");
    if response.status == 200 {
        assert!(
            json.get("decisions").is_some() || json.get("decision").is_some(),
            "{}",
            response.text()
        );
        return (200, String::new());
    }
    assert!((400..500).contains(&response.status), "{}", response.text());
    let error = json.get("error").expect("structured error envelope");
    let Some(Json::Str(code)) = error.get("code") else {
        panic!("error without a code: {}", response.text());
    };
    (response.status, code.clone())
}

#[test]
fn every_truncation_is_a_clean_400() {
    let (frontend, _server) = pendulum_frontend();
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();
    let whole = valid_request();
    let mut arena = StateArena::new();
    assert_eq!(post(&mut client, &whole).0, 200, "the intact body serves");
    for len in 0..whole.len() {
        // Unit level: a strict prefix of an object never parses.
        assert!(
            wire::decode_decide_request_into(&whole[..len], MAX_BATCH, &mut arena).is_err(),
            "truncation to {len} bytes must not decode"
        );
        // Wire level: same truncation, structured 400, connection intact.
        assert_eq!(
            post(&mut client, &whole[..len]),
            (400, "malformed_json".to_string()),
            "truncation to {len} bytes over HTTP"
        );
    }
    assert_eq!(post(&mut client, &whole).0, 200, "still serving");
    frontend.shutdown();
}

#[test]
fn bit_flips_never_panic_and_structural_flips_always_reject() {
    let (frontend, _server) = pendulum_frontend();
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();
    let whole = valid_request();
    let mut arena = StateArena::new();
    for offset in 0..whole.len() {
        for bit in 0..8 {
            let mut corrupted = whole.clone();
            corrupted[offset] ^= 1 << bit;
            let decoded = wire::decode_decide_request_into(&corrupted, MAX_BATCH, &mut arena);
            let (status, code) = post(&mut client, &corrupted);
            // The server's verdict follows the decoder's: a body that does
            // not parse is a 400 malformed_json, never served.
            if matches!(
                decoded,
                Err(wire::WireError::Syntax { .. } | wire::WireError::TooDeep { .. })
            ) {
                assert_eq!(
                    (status, code.as_str()),
                    (400, "malformed_json"),
                    "flip of bit {bit} at byte {offset}"
                );
            }
            // A byte outside ASCII is never valid here (the body holds no
            // strings), and structural punctuation cannot be flipped into
            // another valid document of the decide shape.
            if corrupted[offset] >= 0x80 || b"{}[]\":,".contains(&whole[offset]) {
                assert!(
                    status >= 400,
                    "flip of bit {bit} at byte {offset} answered {status}"
                );
            }
        }
    }
    assert_eq!(post(&mut client, &whole).0, 200, "still serving");
    frontend.shutdown();
}

#[test]
fn random_mutations_always_get_a_structured_answer() {
    let (frontend, server) = pendulum_frontend();
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();
    let whole = valid_request();
    let mut rng = SmallRng::seed_from_u64(97);
    let mutate = |rng: &mut SmallRng| {
        let mut corrupted = whole.clone();
        for _ in 0..rng.gen_range(1..4usize) {
            let offset = rng.gen_range(0..corrupted.len());
            match rng.gen_range(0..3u32) {
                0 => corrupted[offset] = rng.gen::<u32>() as u8,
                1 => {
                    corrupted.remove(offset);
                }
                _ => corrupted.insert(offset, rng.gen::<u32>() as u8),
            }
        }
        corrupted
    };
    // Unit level for 500: decoding returns cleanly.
    let mut arena = StateArena::new();
    for _ in 0..500 {
        let _ = wire::decode_decide_request_into(&mutate(&mut rng), MAX_BATCH, &mut arena);
    }
    // Wire level for a subset (each request is a full HTTP round trip).
    for _ in 0..64 {
        let _ = post(&mut client, &mutate(&mut rng));
    }
    // The deployment is still healthy after the barrage.
    assert!(server.decide("pendulum", &[0.1, 0.0]).is_ok());
    assert_eq!(post(&mut client, &whole).0, 200);
    frontend.shutdown();
}

#[test]
fn adversarial_nesting_is_a_clean_400() {
    let (frontend, _server) = pendulum_frontend();
    let mut client = MiniClient::connect(frontend.local_addr()).unwrap();
    // Far past the parser's depth limit: the recursion stops at the limit
    // instead of exhausting the serving thread's stack.
    for depth in [MAX_JSON_DEPTH + 1, 10_000] {
        let mut body = b"{\"states\":".to_vec();
        body.extend(std::iter::repeat_n(b'[', depth));
        body.extend(std::iter::repeat_n(b']', depth));
        body.push(b'}');
        assert_eq!(
            post(&mut client, &body),
            (400, "malformed_json".to_string()),
            "nesting depth {depth}"
        );
        // Unclosed nesting is the same clean rejection.
        assert_eq!(
            post(&mut client, &vec![b'['; depth]),
            (400, "malformed_json".to_string()),
            "unclosed depth {depth}"
        );
    }
    assert_eq!(post(&mut client, &valid_request()).0, 200, "still serving");
    frontend.shutdown();
}

#[test]
fn oversize_declarations_are_rejected_without_allocating() {
    let (frontend, _server) = pendulum_frontend();
    let addr = frontend.local_addr();

    // A Content-Length over the limit is refused from the head alone: the
    // server answers 413 before it reserves or reads any body, while the
    // promised body never arrives.
    for declared in [MAX_BODY_BYTES + 1, usize::MAX] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(
            stream,
            "POST {DECIDE} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {declared}\r\n\r\n"
        )
        .unwrap();
        let mut head = [0u8; 12];
        stream.read_exact(&mut head).unwrap();
        assert_eq!(&head, b"HTTP/1.1 413", "declared {declared} bytes");
    }

    // A well-formed batch over the configured cap is a 413 too, and the
    // connection then serves a batch at the cap.
    let mut client = MiniClient::connect(addr).unwrap();
    let too_many: Vec<Vec<f64>> = (0..=MAX_BATCH)
        .map(|i| vec![i as f64 * 1e-3, 0.0])
        .collect();
    let body = wire::decide_batch_request(&too_many).into_bytes();
    assert_eq!(
        post(&mut client, &body),
        (413, "batch_too_large".to_string())
    );
    let body = wire::decide_batch_request(&too_many[..MAX_BATCH]).into_bytes();
    assert_eq!(post(&mut client, &body).0, 200);
    frontend.shutdown();
}
