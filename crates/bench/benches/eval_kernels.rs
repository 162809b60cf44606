//! Compiled-kernel evaluation benchmarks: reference (sparse `BTreeMap`)
//! polynomial evaluation vs the flat [`CompiledPolynomial`] /
//! [`CompiledPolySet`] kernels (point and interval, scalar and
//! lane-batched), plus branch-and-bound end-to-end — the pendulum and
//! cartpole induction queries, a traversal-invariant dense deep proof, and
//! a query-cache re-proof loop — and a compiled-shield serving throughput
//! probe.
//!
//! Besides the usual per-benchmark timing output, this bench records its
//! headline numbers (reference vs compiled, speedups, decisions/sec) in
//! `BENCH_eval.json` at the workspace root.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use vrl::poly::{
    basis_size, monomial_basis, BatchBoxes, BatchPoints, Interval, PolyScratch, Polynomial,
};
use vrl::solver::{
    prove_bound, query_cache_stats, reset_query_cache, BoundQuery, BranchBoundConfig, ProofOutcome,
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
    interval_batch: f64,
}

fn bench_eval_kernels(c: &mut Criterion) -> KernelNumbers {
    let p = dense_poly();
    let compiled = p.compile();
    let points = sample_points(4096, p.nvars(), 7);
    let batch = BatchPoints::from_states(p.nvars(), &points);
    let boxes = sample_boxes(4096, p.nvars(), 8);
    let box_batch = BatchBoxes::from_boxes(p.nvars(), &boxes);
    let mut scratch = PolyScratch::new();
    let mut batch_out = Vec::new();
    let mut interval_out: Vec<Interval> = Vec::new();

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
    group.bench_function("interval/batch", |b| {
        b.iter(|| {
            compiled.evaluate_interval_batch_with(
                black_box(&box_batch),
                &mut interval_out,
                &mut scratch,
            );
            interval_out.iter().map(Interval::hi).sum::<f64>()
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
    let interval_batch = time_per_pass(20, || {
        compiled.evaluate_interval_batch_with(
            black_box(&box_batch),
            &mut interval_out,
            &mut scratch,
        );
        black_box(interval_out.iter().map(Interval::hi).sum::<f64>());
    });
    println!(
        "  -> point eval speedup: {:.2}x scalar-compiled, {:.2}x batch-compiled; interval eval speedup: {:.2}x scalar-compiled, {:.2}x batch-compiled",
        point_reference / point_compiled,
        point_reference / point_batch,
        interval_reference / interval_compiled,
        interval_reference / interval_batch
    );
    KernelNumbers {
        point_reference,
        point_compiled,
        point_batch,
        interval_reference,
        interval_compiled,
        interval_batch,
    }
}

/// The pre-compilation branch-and-bound loop (the seed implementation):
/// interval evaluation straight off the sparse representation, fresh
/// `collect()`s per node.  Kept here as the end-to-end baseline.
fn reference_prove_bound(
    objective: &Polynomial,
    bound: f64,
    guards: &[&Polynomial],
    domain: &[Interval],
    config: &BranchBoundConfig,
) -> ProofOutcome {
    let mut stack: Vec<Vec<Interval>> = vec![domain.to_vec()];
    let mut boxes_examined = 0usize;
    let mut undecided = false;
    while let Some(current) = stack.pop() {
        boxes_examined += 1;
        if boxes_examined > config.max_boxes {
            return ProofOutcome::Unknown {
                boxes_examined,
                worst_box: None,
            };
        }
        if guards.iter().any(|g| g.eval_interval(&current).lo() > 0.0) {
            continue;
        }
        let enclosure = objective.eval_interval(&current);
        if enclosure.hi() <= bound + config.tolerance {
            continue;
        }
        let midpoint: Vec<f64> = current.iter().map(Interval::midpoint).collect();
        let candidates = [
            midpoint,
            current.iter().map(Interval::lo).collect::<Vec<f64>>(),
            current.iter().map(Interval::hi).collect::<Vec<f64>>(),
        ];
        let mut cex = None;
        for point in candidates {
            if guards.iter().all(|g| g.eval(&point) <= 0.0) {
                let value = objective.eval(&point);
                if value > bound {
                    cex = Some(ProofOutcome::Counterexample { point, value });
                    break;
                }
            }
        }
        if let Some(cex) = cex {
            return cex;
        }
        let widest = current.iter().map(Interval::width).fold(0.0f64, f64::max);
        if widest <= config.min_width {
            undecided = true;
            continue;
        }
        let split_dim = current
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.width()
                    .partial_cmp(&b.1.width())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        let (left, right) = current[split_dim].bisect();
        let mut left_box = current.clone();
        left_box[split_dim] = left;
        let mut right_box = current;
        right_box[split_dim] = right;
        stack.push(left_box);
        stack.push(right_box);
    }
    if undecided {
        ProofOutcome::Unknown {
            boxes_examined,
            worst_box: None,
        }
    } else {
        ProofOutcome::Proved { boxes_examined }
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

fn bench_branch_bound(
    c: &mut Criterion,
    name: &str,
    gains: &[f64],
    radii: &[f64],
) -> (f64, f64, f64) {
    let (next_value, barrier, domain) = induction_query(name, gains, radii);
    let scalar_config = BranchBoundConfig {
        max_boxes: 50_000,
        lane_batched: false,
        ..BranchBoundConfig::default()
    };
    let batched_config = BranchBoundConfig {
        max_boxes: 50_000,
        ..BranchBoundConfig::default()
    };
    // All paths must agree on the outcome before we time them; the scalar
    // and batched modes must agree exactly.
    let query = BoundQuery::new(&next_value, 0.0).with_guard(&barrier);
    let scalar_outcome = prove_bound(&query, &domain, &scalar_config);
    let batched_outcome = prove_bound(&query, &domain, &batched_config);
    assert_eq!(
        scalar_outcome, batched_outcome,
        "scalar and lane-batched branch-and-bound disagree on {name}"
    );
    let reference_outcome =
        reference_prove_bound(&next_value, 0.0, &[&barrier], &domain, &batched_config);
    assert_eq!(
        batched_outcome.is_proved(),
        reference_outcome.is_proved(),
        "compiled and reference branch-and-bound disagree on {name}"
    );

    let mut group = c.benchmark_group(format!("eval_kernels/branch_bound/{name}"));
    group.sample_size(10);
    group.bench_function("reference", |b| {
        b.iter(|| reference_prove_bound(&next_value, 0.0, &[&barrier], &domain, &batched_config))
    });
    group.bench_function("compiled_scalar", |b| {
        b.iter(|| prove_bound(&query, &domain, &scalar_config))
    });
    group.bench_function("compiled_batched", |b| {
        b.iter(|| prove_bound(&query, &domain, &batched_config))
    });
    group.finish();

    let reference = time_per_pass(3, || {
        black_box(reference_prove_bound(
            &next_value,
            0.0,
            &[&barrier],
            &domain,
            &batched_config,
        ));
    });
    let scalar = time_per_pass(3, || {
        black_box(prove_bound(&query, &domain, &scalar_config));
    });
    let batched = time_per_pass(3, || {
        black_box(prove_bound(&query, &domain, &batched_config));
    });
    println!(
        "  -> {name} branch-and-bound speedup: {:.2}x scalar-compiled, {:.2}x lane-batched",
        reference / scalar,
        reference / batched
    );
    (reference, scalar, batched)
}

/// A traversal-invariant deep *proof*: `p ≤ max + margin` for the dense
/// degree-4 polynomial over `[-1, 1]⁴`, with the sound maximum computed
/// first.  A proved query examines exactly the recursion tree regardless of
/// frontier order (every box's fate depends only on the box), so — unlike
/// the refutation-style induction rows above, where the wave order changes
/// which counterexample surfaces first — this row isolates the evaluation
/// kernels: reference vs scalar-compiled vs lane-batched over the *same*
/// boxes.
fn bench_dense_proof(c: &mut Criterion) -> (f64, f64, f64) {
    let p = dense_poly();
    let domain = vec![Interval::new(-1.0, 1.0); p.nvars()];
    let negated = -&p;
    let true_max = -vrl::solver::sound_minimum(&negated, &domain, 200_000);
    let bound = true_max + 1e-3 * (1.0 + true_max.abs());
    let query = BoundQuery::new(&p, bound);
    let scalar_config = BranchBoundConfig {
        lane_batched: false,
        ..BranchBoundConfig::default()
    };
    let batched_config = BranchBoundConfig::default();
    let scalar_outcome = prove_bound(&query, &domain, &scalar_config);
    let batched_outcome = prove_bound(&query, &domain, &batched_config);
    assert_eq!(scalar_outcome, batched_outcome);
    assert!(scalar_outcome.is_proved(), "the bound must be provable");
    let reference_outcome = reference_prove_bound(&p, bound, &[], &domain, &batched_config);
    assert!(reference_outcome.is_proved());

    let mut group = c.benchmark_group("eval_kernels/branch_bound/dense_proof");
    group.sample_size(10);
    group.bench_function("reference", |b| {
        b.iter(|| reference_prove_bound(&p, bound, &[], &domain, &batched_config))
    });
    group.bench_function("compiled_scalar", |b| {
        b.iter(|| prove_bound(&query, &domain, &scalar_config))
    });
    group.bench_function("compiled_batched", |b| {
        b.iter(|| prove_bound(&query, &domain, &batched_config))
    });
    group.finish();

    let reference = time_per_pass(5, || {
        black_box(reference_prove_bound(
            &p,
            bound,
            &[],
            &domain,
            &batched_config,
        ));
    });
    let scalar = time_per_pass(5, || {
        black_box(prove_bound(&query, &domain, &scalar_config));
    });
    let batched = time_per_pass(5, || {
        black_box(prove_bound(&query, &domain, &batched_config));
    });
    println!(
        "  -> dense-proof branch-and-bound speedup: {:.2}x scalar-compiled, {:.2}x lane-batched",
        reference / scalar,
        reference / batched
    );
    (reference, scalar, batched)
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

fn write_results(
    kernels: &KernelNumbers,
    pendulum: (f64, f64, f64),
    cartpole: (f64, f64, f64),
    dense: (f64, f64, f64),
    cache: (u64, u64, f64),
    serving: (f64, f64),
) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_eval.json");
    let eval_section = |reference: f64, compiled: f64, batch: f64| {
        format!(
            "{{\n    \"reference_sec\": {:.6e},\n    \"compiled_sec\": {:.6e},\n    \"batch_sec\": {:.6e},\n    \"speedup_compiled\": {:.2},\n    \"speedup_batch\": {:.2},\n    \"batch_vs_scalar_compiled\": {:.2}\n  }}",
            reference,
            compiled,
            batch,
            reference / compiled,
            reference / batch,
            compiled / batch,
        )
    };
    let bb_section = |(reference, scalar, batched): (f64, f64, f64)| {
        format!(
            "{{\n    \"reference_sec\": {:.6e},\n    \"scalar_sec\": {:.6e},\n    \"batched_sec\": {:.6e},\n    \"speedup_scalar\": {:.2},\n    \"speedup_batched\": {:.2},\n    \"batched_vs_scalar\": {:.2}\n  }}",
            reference,
            scalar,
            batched,
            reference / scalar,
            reference / batched,
            scalar / batched,
        )
    };
    let description = "\"Compiled evaluation kernels: reference (sparse BTreeMap) vs compiled (flat SoA) vs lane-batched (8-wide SoA sweeps) paths. Point/interval rows are seconds per 4096 evaluations of a dense degree-4, 4-variable polynomial (70 terms); branch_bound pendulum/cartpole rows are seconds per CEGIS-style induction query (these refute, so reference-vs-wave deltas mix kernel speed with which counterexample the traversal surfaces first; scalar_sec pops the same 8-box waves through the scalar interval kernel, batched_sec through the lane-batched kernel — identical outcomes); branch_bound_dense_proof is a traversal-invariant deep proof (identical box tree in every arm), isolating the kernels; query_cache is a 50x re-proof loop of the pendulum induction query through the per-thread CompiledQueryCache; serving rows are single-worker decisions/sec on the pendulum deployment with a [240, 200] oracle — scalar loops per-state decide, batch is decide_batch through the lane-batched dynamics-step + oracle + certificate kernels (bit-identical decisions).\"".to_string();
    vrl_bench::upsert_bench_sections(
        path,
        &[
            ("description", description),
            (
                "point_eval",
                eval_section(
                    kernels.point_reference,
                    kernels.point_compiled,
                    kernels.point_batch,
                ),
            ),
            (
                "interval_eval",
                eval_section(
                    kernels.interval_reference,
                    kernels.interval_compiled,
                    kernels.interval_batch,
                ),
            ),
            ("branch_bound_pendulum", bb_section(pendulum)),
            ("branch_bound_cartpole", bb_section(cartpole)),
            ("branch_bound_dense_proof", bb_section(dense)),
            (
                "query_cache_reproof_loop",
                format!(
                    "{{\n    \"repeats\": 50,\n    \"hits\": {},\n    \"misses\": {},\n    \"hit_rate\": {:.3}\n  }}",
                    cache.0, cache.1, cache.2,
                ),
            ),
            (
                "serving_compiled_shield",
                format!(
                    "{{\n    \"scalar_decide_per_sec\": {:.0},\n    \"batch_decide_per_sec\": {:.0},\n    \"batch_speedup\": {:.2}\n  }}",
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
    let pendulum = bench_branch_bound(
        c,
        "pendulum",
        &fixtures::PENDULUM_GAINS,
        &fixtures::PENDULUM_RADII,
    );
    let cartpole = bench_branch_bound(
        c,
        "cartpole",
        &fixtures::CARTPOLE_GAINS,
        &fixtures::CARTPOLE_RADII,
    );
    let dense = bench_dense_proof(c);
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
    write_results(&kernels, pendulum, cartpole, dense, cache, serving);
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
