//! Binary-frame serving throughput: a loopback workload (pendulum
//! deployment, `[240, 200]` oracle, keep-alive connection) driven over the length-prefixed frame codec, with the JSON
//! codec and the in-process path measured in the same run so the codec
//! overhead reads directly off `BENCH_eval.json`.
//!
//! The binary client loop is allocation-free: the request frame is encoded
//! once, `MiniClient::post_reusing` reuses one response buffer across
//! requests, and the server side decodes into its per-connection arena.
//! Before any timing, the batched binary response is decoded and compared
//! bit-for-bit against the in-process decisions — a throughput number for a
//! codec that diverges would be meaningless.
//!
//! The run also settles the carried-over `RwLock<Arc<ActiveArtifact>>`
//! hot-path question with data: `ShieldServer::generation` performs exactly
//! the serving path's lock-and-clone (registry lookup, shared `RwLock`
//! read, `Arc` clone), so its per-call latency — alone and with four
//! threads hammering the same lock — is the cost the lock adds to every
//! decide.  Both numbers land in `BENCH_eval.json` under `serve_binary`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use vrl_benchmarks::benchmark_by_name;
use vrl_runtime::frame;
use vrl_runtime::http::{HttpConfig, HttpFrontend, MiniClient, ShieldBackend};
use vrl_runtime::{fixtures, ShieldServer};

const BATCH: usize = 512;

/// Mean nanoseconds per registry-lookup + `RwLock` read + `Arc` clone
/// (`ShieldServer::generation`), averaged over `threads` threads doing the
/// same concurrently.
fn lock_clone_ns(server: &Arc<ShieldServer>, threads: usize) -> f64 {
    const ITERS: usize = 200_000;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let server = Arc::clone(server);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let start = Instant::now();
                for _ in 0..ITERS {
                    std::hint::black_box(server.generation("pendulum").expect("deployed"));
                }
                start.elapsed().as_nanos() as f64 / ITERS as f64
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("probe thread"))
        .sum::<f64>()
        / threads as f64
}

fn bench_serve_binary(c: &mut Criterion) {
    let env = benchmark_by_name("pendulum").expect("pendulum").into_env();
    let artifact = fixtures::demo_artifact(
        &env,
        &fixtures::PENDULUM_GAINS,
        &fixtures::PENDULUM_RADII,
        &[240, 200],
        17,
    )
    .expect("dimensions agree");
    let server = Arc::new(ShieldServer::with_workers(1));
    server.deploy("pendulum", artifact).expect("deploys");
    let frontend = HttpFrontend::bind(
        "127.0.0.1:0",
        Arc::clone(&server) as Arc<dyn ShieldBackend>,
        HttpConfig::default(),
    )
    .expect("loopback bind succeeds");
    let mut client = MiniClient::connect(frontend.local_addr()).expect("client connects");
    let path = "/v1/deployments/pendulum/decide";

    let mut rng = SmallRng::seed_from_u64(23);
    let safe = env.safety().safe_box().clone();
    let states: Vec<Vec<f64>> = (0..BATCH).map(|_| safe.sample(&mut rng)).collect();
    let batch_frame = frame::encode_decide_request(&states, true);
    let single_frame = frame::encode_decide_request(std::slice::from_ref(&states[0]), false);
    let batch_json = format!(
        "{{\"states\": [{}]}}",
        states
            .iter()
            .map(|s| format!("[{}, {}]", s[0], s[1]))
            .collect::<Vec<_>>()
            .join(",")
    );
    let single_json = format!("{{\"state\": [{}, {}]}}", states[0][0], states[0][1]);
    let mut out = Vec::new();

    // Correctness gate before any timing: the batched binary response must
    // be bit-identical to the in-process decisions.
    let reference = server.decide_batch("pendulum", &states).expect("serves");
    let (status, binary) = client
        .post_reusing(path, frame::CONTENT_TYPE_FRAME, &batch_frame, &mut out)
        .expect("request succeeds");
    assert_eq!(status, 200);
    assert!(binary, "binary requests get binary responses");
    let decisions = frame::decode_decide_response(&out).expect("frame decodes");
    assert_eq!(decisions.len(), reference.len());
    for (wire, local) in decisions.iter().zip(reference.iter()) {
        assert_eq!(wire.intervened, local.intervened);
        for (a, b) in wire.action.iter().zip(local.action.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "codec must not perturb decisions");
        }
    }

    // Criterion rows: per-request latency of both binary request shapes.
    let mut group = c.benchmark_group("serve_binary/pendulum");
    group.sample_size(10);
    group.bench_function("single_state_frame", |b| {
        b.iter(|| {
            let (status, _) = client
                .post_reusing(path, frame::CONTENT_TYPE_FRAME, &single_frame, &mut out)
                .expect("request succeeds");
            assert_eq!(status, 200);
            out.len()
        })
    });
    group.bench_function(format!("batch_{BATCH}_frame"), |b| {
        b.iter(|| {
            let (status, _) = client
                .post_reusing(path, frame::CONTENT_TYPE_FRAME, &batch_frame, &mut out)
                .expect("request succeeds");
            assert_eq!(status, 200);
            out.len()
        })
    });
    group.finish();

    // Absolute throughput, sustained over ~2 seconds of wall clock each.
    let timed = |f: &mut dyn FnMut() -> usize| -> f64 {
        let start = Instant::now();
        let mut decisions = 0u64;
        while start.elapsed().as_secs_f64() < 2.0 {
            decisions += f() as u64;
        }
        decisions as f64 / start.elapsed().as_secs_f64()
    };
    let mut post_binary = |body: &[u8], decisions: usize, out: &mut Vec<u8>| {
        let (status, _) = client
            .post_reusing(path, frame::CONTENT_TYPE_FRAME, body, out)
            .expect("request succeeds");
        assert_eq!(status, 200);
        decisions
    };
    let binary_single = timed(&mut || post_binary(&single_frame, 1, &mut out));
    let binary_batch = timed(&mut || post_binary(&batch_frame, BATCH, &mut out));
    let json_single = timed(&mut || {
        let response = client
            .request("POST", path, single_json.as_bytes())
            .expect("request succeeds");
        assert_eq!(response.status, 200);
        1
    });
    let json_batch = timed(&mut || {
        let response = client
            .request("POST", path, batch_json.as_bytes())
            .expect("request succeeds");
        assert_eq!(response.status, 200);
        BATCH
    });
    // In-process baselines on the same machine in the same run.
    let inprocess_single = timed(&mut || {
        server.decide("pendulum", &states[0]).expect("serves");
        1
    });
    let inprocess_batch = timed(&mut || {
        server
            .decide_batch("pendulum", &states)
            .expect("serves")
            .len()
    });
    println!(
        "  -> binary frame serving (pendulum, keep-alive loopback): \
         {binary_single:.0} single-state requests/sec ({:.2}x of the in-process {inprocess_single:.0}/sec), \
         {binary_batch:.0} decisions/sec batched x{BATCH} ({:.1}% of the in-process {inprocess_batch:.0}/sec); \
         JSON on the same connection: {json_single:.0} single, {json_batch:.0} batched",
        inprocess_single / binary_single,
        100.0 * binary_batch / inprocess_batch,
    );

    // The RwLock question: per-decide lock-and-clone cost, alone and with
    // four threads sharing the lock.
    let lock_ns_1 = lock_clone_ns(&server, 1);
    let lock_ns_4 = lock_clone_ns(&server, 4);
    println!(
        "  -> RwLock<Arc> snapshot: {lock_ns_1:.0} ns/clone uncontended, \
         {lock_ns_4:.0} ns/clone with 4 reader threads \
         ({:.0} ns per single-state decide for scale)",
        1e9 / inprocess_single
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_eval.json");
    vrl_bench::upsert_bench_sections(
        path,
        &[(
            "serve_binary",
            format!(
                "{{\n    \"batch_size\": {BATCH},\n    \"binary_single_requests_per_sec\": {binary_single:.0},\n    \"binary_batch_decisions_per_sec\": {binary_batch:.0},\n    \"json_single_requests_per_sec\": {json_single:.0},\n    \"json_batch_decisions_per_sec\": {json_batch:.0},\n    \"inprocess_single_decisions_per_sec\": {inprocess_single:.0},\n    \"inprocess_batch_decisions_per_sec\": {inprocess_batch:.0},\n    \"binary_single_vs_inprocess\": {:.2},\n    \"binary_batch_efficiency\": {:.3},\n    \"rwlock_arc_clone_ns_uncontended\": {lock_ns_1:.0},\n    \"rwlock_arc_clone_ns_4_threads\": {lock_ns_4:.0}\n  }}",
                inprocess_single / binary_single,
                binary_batch / inprocess_batch,
            ),
        )],
    )
    .expect("BENCH_eval.json must be writable");
    println!("  -> wrote {path}");

    frontend.shutdown();
}

criterion_group!(benches, bench_serve_binary);
criterion_main!(benches);
