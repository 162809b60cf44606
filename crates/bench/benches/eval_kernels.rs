//! Compiled-kernel evaluation benchmarks: reference (sparse `BTreeMap`)
//! polynomial evaluation vs the flat compiled kernels (point: scalar and
//! lane-batched; interval: scalar), a query-cache re-proof loop, and a
//! compiled-shield serving throughput probe.  Branch-and-bound end to end
//! is timed by loopbench's `verify` workload, not here.
//!
//! Besides the usual per-benchmark timing output, this bench records its
//! headline numbers (reference vs compiled, speedups, decisions/sec) in
//! `BENCH_eval.json` at the workspace root, each section stamped with the
//! core count, CPU features and build profile it ran on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use vrl::poly::{basis_size, monomial_basis, BatchPoints, Interval, PolyScratch, Polynomial};
use vrl::solver::{
    prove_bound, query_cache_stats, reset_query_cache, BoundQuery, BranchBoundConfig,
};
use vrl_benchmarks::benchmark_by_name;
use vrl_runtime::{fixtures, ShieldServer};

/// A dense degree-4 polynomial in 4 variables (70 terms): the workload the
/// acceptance criterion names.
fn dense_poly() -> Polynomial {
    let nvars = 4;
    let degree = 4;
    let basis = monomial_basis(nvars, degree);
    assert_eq!(basis.len(), basis_size(nvars, degree));
    let mut rng = SmallRng::seed_from_u64(42);
    let coeffs: Vec<f64> = (0..basis.len()).map(|_| rng.gen_range(-2.0..2.0)).collect();
    Polynomial::from_basis(nvars, &basis, &coeffs)
}

fn sample_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.5..1.5)).collect())
        .collect()
}

fn sample_boxes(n: usize, dim: usize, seed: u64) -> Vec<Vec<Interval>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    let lo = rng.gen_range(-1.5..1.0);
                    Interval::new(lo, lo + rng.gen_range(0.0..0.5))
                })
                .collect()
        })
        .collect()
}

/// Times `f` over `rounds` full passes, returning seconds per pass.
fn time_per_pass(rounds: usize, mut f: impl FnMut()) -> f64 {
    // One warm-up pass so scratch buffers reach steady state.
    f();
    let start = Instant::now();
    for _ in 0..rounds {
        f();
    }
    start.elapsed().as_secs_f64() / rounds as f64
}

struct KernelNumbers {
    point_reference: f64,
    point_compiled: f64,
    point_batch: f64,
    interval_reference: f64,
    interval_compiled: f64,
}

fn bench_eval_kernels(c: &mut Criterion) -> KernelNumbers {
    let p = dense_poly();
    let compiled = p.compile();
    let points = sample_points(4096, p.nvars(), 7);
    let batch = BatchPoints::from_states(p.nvars(), &points);
    let boxes = sample_boxes(4096, p.nvars(), 8);
    let mut scratch = PolyScratch::new();
    let mut batch_out = Vec::new();

    let mut group = c.benchmark_group("eval_kernels/dense_deg4_4var");
    group.sample_size(20);
    group.bench_function("point/reference", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for point in &points {
                acc += p.eval(black_box(point));
            }
            acc
        })
    });
    group.bench_function("point/compiled", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for point in &points {
                acc += compiled.eval_with(black_box(point), &mut scratch);
            }
            acc
        })
    });
    group.bench_function("point/batch", |b| {
        b.iter(|| {
            compiled.evaluate_batch_with(black_box(&batch), &mut batch_out, &mut scratch);
            batch_out.iter().sum::<f64>()
        })
    });
    group.bench_function("interval/reference", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for domain in &boxes {
                acc += p.eval_interval(black_box(domain)).hi();
            }
            acc
        })
    });
    group.bench_function("interval/compiled", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for domain in &boxes {
                acc += compiled
                    .eval_interval_with(black_box(domain), &mut scratch)
                    .hi();
            }
            acc
        })
    });
    group.finish();

    // Headline numbers for BENCH_eval.json (seconds per 4096 evaluations).
    let point_reference = time_per_pass(20, || {
        let mut acc = 0.0;
        for point in &points {
            acc += p.eval(black_box(point));
        }
        black_box(acc);
    });
    let point_compiled = time_per_pass(20, || {
        let mut acc = 0.0;
        for point in &points {
            acc += compiled.eval_with(black_box(point), &mut scratch);
        }
        black_box(acc);
    });
    let point_batch = time_per_pass(20, || {
        compiled.evaluate_batch_with(black_box(&batch), &mut batch_out, &mut scratch);
        black_box(batch_out.iter().sum::<f64>());
    });
    let interval_reference = time_per_pass(20, || {
        let mut acc = 0.0;
        for domain in &boxes {
            acc += p.eval_interval(black_box(domain)).hi();
        }
        black_box(acc);
    });
    let interval_compiled = time_per_pass(20, || {
        let mut acc = 0.0;
        for domain in &boxes {
            acc += compiled
                .eval_interval_with(black_box(domain), &mut scratch)
                .hi();
        }
        black_box(acc);
    });
    println!(
        "  -> point eval speedup: {:.2}x scalar-compiled, {:.2}x batch-compiled; interval eval speedup: {:.2}x compiled",
        point_reference / point_compiled,
        point_reference / point_batch,
        interval_reference / interval_compiled,
    );
    KernelNumbers {
        point_reference,
        point_compiled,
        point_batch,
        interval_reference,
        interval_compiled,
    }
}

/// Builds the induction query `E(s') ≤ 0` under guard `E(s) ≤ 0` for one
/// Table 1 benchmark with its known stabilizing gains and ellipsoid radii.
fn induction_query(
    name: &str,
    gains: &[f64],
    radii: &[f64],
) -> (Polynomial, Polynomial, Vec<Interval>) {
    let env = benchmark_by_name(name)
        .expect("Table 1 benchmark")
        .into_env();
    let program = vec![Polynomial::linear(gains, 0.0)];
    let successor = env.successor_polynomials(&program);
    let barrier = fixtures::ellipsoid_certificate(&env, radii)
        .polynomial()
        .clone();
    let next_value = barrier.substitute(&successor);
    let domain = env.safety().safe_box().to_intervals();
    (next_value, barrier, domain)
}

/// Cache behavior of a CEGIS-style re-proof loop: the same induction query
/// re-proved `repeats` times.  Every proof after the first pulls its
/// compiled `objective + guards` family from the per-thread query cache;
/// the returned triple is `(hits, misses, hit_rate)` over the loop.
fn measure_query_cache(repeats: u64) -> (u64, u64, f64) {
    let (next_value, barrier, domain) = induction_query(
        "pendulum",
        &fixtures::PENDULUM_GAINS,
        &fixtures::PENDULUM_RADII,
    );
    let query = BoundQuery::new(&next_value, 0.0).with_guard(&barrier);
    let config = BranchBoundConfig {
        max_boxes: 50_000,
        ..BranchBoundConfig::default()
    };
    reset_query_cache();
    for _ in 0..repeats {
        black_box(prove_bound(&query, &domain, &config));
    }
    let stats = query_cache_stats();
    reset_query_cache();
    (stats.hits, stats.misses, stats.hit_rate())
}

/// Serving throughput with the compiled shield (decisions/sec), pendulum
/// deployment, single worker: the scalar path loops per-state `decide`,
/// the batched path hands the same states to `decide_batch` (lane-batched
/// oracle forward + certificate kernels).  Both paths produce identical
/// decisions; the returned pair is `(scalar, batched)` decisions/sec.
fn measure_serving_throughput() -> (f64, f64) {
    let env = benchmark_by_name("pendulum").expect("pendulum").into_env();
    let artifact = fixtures::demo_artifact(
        &env,
        &fixtures::PENDULUM_GAINS,
        &fixtures::PENDULUM_RADII,
        &[240, 200],
        17,
    )
    .expect("dimensions agree");
    let server = ShieldServer::with_workers(1);
    server.deploy("pendulum", artifact).unwrap();
    let mut rng = SmallRng::seed_from_u64(23);
    let safe = env.safety().safe_box().clone();
    let states: Vec<Vec<f64>> = (0..8192).map(|_| safe.sample(&mut rng)).collect();
    // Warm up both paths (scratch growth) and pin batch/scalar agreement.
    let batch_decisions = server.decide_batch("pendulum", &states[..256]).unwrap();
    for (state, batched) in states[..256].iter().zip(batch_decisions.iter()) {
        assert_eq!(&server.decide("pendulum", state).unwrap(), batched);
    }
    let rounds = 5;
    let start = Instant::now();
    for _ in 0..rounds {
        for state in &states {
            black_box(server.decide("pendulum", state).unwrap());
        }
    }
    let scalar = (states.len() * rounds) as f64 / start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..rounds {
        let _ = black_box(server.decide_batch("pendulum", &states).unwrap());
    }
    let batched = (states.len() * rounds) as f64 / start.elapsed().as_secs_f64();
    (scalar, batched)
}

/// The machine a run was taken on: core count, the x86-64 SIMD features
/// the CPU reports, and the build profile, as a JSON object.
fn machine_stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let features: Vec<&str> = [
        ("sse2", is_x86_feature_detected!("sse2")),
        ("avx", is_x86_feature_detected!("avx")),
        ("avx2", is_x86_feature_detected!("avx2")),
        ("fma", is_x86_feature_detected!("fma")),
        ("avx512f", is_x86_feature_detected!("avx512f")),
    ]
    .into_iter()
    .filter_map(|(name, present)| present.then_some(name))
    .collect();
    #[cfg(not(target_arch = "x86_64"))]
    let features: Vec<&str> = Vec::new();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"cores\": {cores}, \"arch\": \"{}\", \"cpu_features\": \"{}\", \"profile\": \"{profile}\"}}",
        std::env::consts::ARCH,
        features.join(" "),
    )
}

fn write_results(kernels: &KernelNumbers, cache: (u64, u64, f64), serving: (f64, f64)) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_eval.json");
    let machine = machine_stamp();
    let description = "\"Compiled evaluation kernels: reference (sparse BTreeMap) vs compiled (flat SoA) paths, plus the lane-batched (8-wide SoA sweeps) point kernel. Point/interval rows are seconds per 4096 evaluations of a dense degree-4, 4-variable polynomial (70 terms); interval evaluation has no batched kernel. query_cache is a 50x re-proof loop of the pendulum induction query through the per-thread CompiledQueryCache; serving rows are single-worker decisions/sec on the pendulum deployment with a [240, 200] oracle — scalar loops per-state decide, batch is decide_batch through the lane-batched dynamics-step + oracle + certificate kernels (bit-identical decisions). Every section this bench writes carries the machine it ran on.\"".to_string();
    vrl_bench::upsert_bench_sections(
        path,
        &[
            ("description", description),
            (
                "point_eval",
                format!(
                    "{{\n    \"machine\": {machine},\n    \"reference_sec\": {:.6e},\n    \"compiled_sec\": {:.6e},\n    \"batch_sec\": {:.6e},\n    \"speedup_compiled\": {:.2},\n    \"speedup_batch\": {:.2},\n    \"batch_vs_scalar_compiled\": {:.2}\n  }}",
                    kernels.point_reference,
                    kernels.point_compiled,
                    kernels.point_batch,
                    kernels.point_reference / kernels.point_compiled,
                    kernels.point_reference / kernels.point_batch,
                    kernels.point_compiled / kernels.point_batch,
                ),
            ),
            (
                "interval_eval",
                format!(
                    "{{\n    \"machine\": {machine},\n    \"reference_sec\": {:.6e},\n    \"compiled_sec\": {:.6e},\n    \"speedup_compiled\": {:.2}\n  }}",
                    kernels.interval_reference,
                    kernels.interval_compiled,
                    kernels.interval_reference / kernels.interval_compiled,
                ),
            ),
            (
                "query_cache_reproof_loop",
                format!(
                    "{{\n    \"machine\": {machine},\n    \"repeats\": 50,\n    \"hits\": {},\n    \"misses\": {},\n    \"hit_rate\": {:.3}\n  }}",
                    cache.0, cache.1, cache.2,
                ),
            ),
            (
                "serving_compiled_shield",
                format!(
                    "{{\n    \"machine\": {machine},\n    \"scalar_decide_per_sec\": {:.0},\n    \"batch_decide_per_sec\": {:.0},\n    \"batch_speedup\": {:.2}\n  }}",
                    serving.0,
                    serving.1,
                    serving.1 / serving.0,
                ),
            ),
        ],
    )
    .expect("BENCH_eval.json must be writable");
    println!("  -> wrote {path}");
}

fn bench_all(c: &mut Criterion) {
    let kernels = bench_eval_kernels(c);
    let cache = measure_query_cache(50);
    println!(
        "  -> query cache over a 50x re-proof loop: {} hits / {} misses ({:.1}% hit rate)",
        cache.0,
        cache.1,
        cache.2 * 100.0
    );
    let serving = measure_serving_throughput();
    println!(
        "  -> compiled-shield serving (1 worker): {:.0} decisions/sec scalar decide, {:.0} decisions/sec decide_batch ({:.2}x)",
        serving.0,
        serving.1,
        serving.1 / serving.0
    );
    write_results(&kernels, cache, serving);
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
