//! Compiled-versus-reference sweep for branch-and-bound: over every Table 1
//! benchmark, [`prove_bound`] must return **exactly** the outcome of the
//! uncompiled depth-first loop below — same verdict, same witness point,
//! same `boxes_examined` — on an induction-style query, at a small and a
//! large box budget.  `worst_box` is not compared: the reference does not
//! track it.  [`sound_minimum`] is held to an uncompiled best-first loop
//! the same way, bit for bit.
//!
//! The references evaluate straight off the sparse polynomials, with fresh
//! allocations per box; the compiled kernels are bit-for-bit those
//! evaluators, so any divergence is a change of search order or of a
//! prune, certify, probe or split decision.  Like `batch_conformance`, the
//! certificates are the fixtures' ellipsoidal demo shields sized from each
//! benchmark's safe box: the queries need not be provable, and refuted and
//! budget-exhausted outcomes are compared just as strictly.  Per-benchmark
//! timings are printed (run with `--nocapture`).

use proptest::prelude::*;
use std::time::Instant;
use vrl::poly::{monomial_basis, Interval, Polynomial};
use vrl::solver::{prove_bound, sound_minimum, BoundQuery, BranchBoundConfig, ProofOutcome};
use vrl_benchmarks::{all_benchmarks, benchmark_by_name};
use vrl_runtime::fixtures;

/// Splits a box in half along its widest side (the last widest on ties).
fn bisect_widest(current: Vec<Interval>) -> (Vec<Interval>, Vec<Interval>) {
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
    (left_box, right_box)
}

/// The uncompiled depth-first branch-and-bound: pop one box, prune it by
/// the guards, certify it by the objective's enclosure, probe its midpoint
/// and corners for a counterexample, or split it and push left then right.
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
        let candidates = [
            current.iter().map(Interval::midpoint).collect::<Vec<f64>>(),
            current.iter().map(Interval::lo).collect::<Vec<f64>>(),
            current.iter().map(Interval::hi).collect::<Vec<f64>>(),
        ];
        for point in candidates {
            if guards.iter().all(|g| g.eval(&point) <= 0.0) {
                let value = objective.eval(&point);
                if value > bound {
                    return ProofOutcome::Counterexample { point, value };
                }
            }
        }
        let widest = current.iter().map(Interval::width).fold(0.0f64, f64::max);
        if widest <= config.min_width {
            undecided = true;
            continue;
        }
        let (left, right) = bisect_widest(current);
        stack.push(left);
        stack.push(right);
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

/// The uncompiled best-first lower bound: pop the box with the smallest
/// interval lower bound, stop once it is within `1e-9` (relative) of the
/// best midpoint value or narrower than `1e-6`, else split it.
fn reference_sound_minimum(p: &Polynomial, domain: &[Interval], max_boxes: usize) -> f64 {
    let midpoint = |b: &[Interval]| b.iter().map(Interval::midpoint).collect::<Vec<f64>>();
    let mut queue = vec![(p.eval_interval(domain).lo(), domain.to_vec())];
    let mut upper = p.eval(&midpoint(domain));
    let mut examined = 0usize;
    while examined < max_boxes && !queue.is_empty() {
        let mut index = 0;
        for (i, (lower, _)) in queue.iter().enumerate() {
            if *lower < queue[index].0 {
                index = i;
            }
        }
        examined += 1;
        let (lower, current) = &queue[index];
        let widest = current.iter().map(Interval::width).fold(0.0f64, f64::max);
        if upper - lower < 1e-9 * (1.0 + upper.abs()) || widest < 1e-6 {
            break;
        }
        let (_, current) = queue.swap_remove(index);
        let (left, right) = bisect_widest(current);
        for child in [left, right] {
            let lower = p.eval_interval(&child).lo();
            upper = upper.min(p.eval(&midpoint(&child)));
            queue.push((lower, child));
        }
    }
    queue
        .iter()
        .map(|(lo, _)| *lo)
        .fold(f64::INFINITY, f64::min)
        .min(upper)
}

/// `outcome` with the worst box dropped, for comparison with the reference.
fn without_worst_box(outcome: ProofOutcome) -> ProofOutcome {
    match outcome {
        ProofOutcome::Unknown { boxes_examined, .. } => ProofOutcome::Unknown {
            boxes_examined,
            worst_box: None,
        },
        other => other,
    }
}

fn verdict(outcome: &ProofOutcome) -> &'static str {
    match outcome {
        ProofOutcome::Proved { .. } => "proved",
        ProofOutcome::Counterexample { .. } => "refuted",
        ProofOutcome::Unknown { .. } => "unknown",
    }
}

/// The induction-style query `E(s') ≤ 0` under the guard `E(s) ≤ 0`, with
/// `E` the ellipsoid at a quarter of the safe-box widths and a mildly
/// stabilizing linear program (every action pulls against every state
/// coordinate).
fn induction_query(
    env: &vrl::dynamics::EnvironmentContext,
) -> (Polynomial, Polynomial, Vec<Interval>) {
    let safe = env.safety().safe_box();
    let radii: Vec<f64> = safe
        .lows()
        .iter()
        .zip(safe.highs().iter())
        .map(|(lo, hi)| 0.25 * (hi - lo))
        .collect();
    let programs: Vec<Polynomial> = (0..env.action_dim())
        .map(|_| Polynomial::linear(&vec![-0.5; env.state_dim()], 0.0))
        .collect();
    let successor = env.successor_polynomials(&programs);
    let barrier = fixtures::ellipsoid_certificate(env, &radii)
        .polynomial()
        .clone();
    let next_value = barrier.substitute(&successor);
    let domain = safe.to_intervals();
    (next_value, barrier, domain)
}

/// Runs the compiled search and the reference on every Table 1 induction
/// query at `max_boxes` and asserts identical outcomes.
fn sweep_against_reference(max_boxes: usize) {
    let benchmarks = all_benchmarks();
    assert_eq!(benchmarks.len(), 15, "Table 1 lists 15 benchmarks");
    let config = BranchBoundConfig {
        max_boxes,
        ..BranchBoundConfig::default()
    };
    let sweep_start = Instant::now();
    for spec in benchmarks {
        let name = spec.name();
        let env = spec.into_env();
        let (next_value, barrier, domain) = induction_query(&env);
        let query = BoundQuery::new(&next_value, 0.0).with_guard(&barrier);
        let start = Instant::now();
        let compiled = prove_bound(&query, &domain, &config);
        let compiled_elapsed = start.elapsed();
        let start = Instant::now();
        let reference = reference_prove_bound(&next_value, 0.0, &[&barrier], &domain, &config);
        let reference_elapsed = start.elapsed();
        println!(
            "branch_bound_conformance: {name:<20} max_boxes {max_boxes:>6}  compiled {compiled_elapsed:>10.3?}  reference {reference_elapsed:>10.3?}  outcome {}",
            verdict(&compiled)
        );
        assert_eq!(
            without_worst_box(compiled),
            reference,
            "{name}: compiled branch-and-bound diverged from the reference at max_boxes={max_boxes}"
        );
    }
    println!(
        "branch_bound_conformance: full 15-benchmark sweep at max_boxes {max_boxes} in {:.3?}",
        sweep_start.elapsed()
    );
}

#[test]
fn prove_bound_matches_the_reference_at_3000_boxes() {
    sweep_against_reference(3_000);
}

#[test]
fn prove_bound_matches_the_reference_at_50000_boxes() {
    sweep_against_reference(50_000);
}

#[test]
fn oscillator_induction_query_is_refuted_within_50000_boxes() {
    // A budget-exhausted answer here means the search left the depth-first
    // order: plain DFS reaches a genuine counterexample well inside the
    // budget.
    let env = benchmark_by_name("oscillator").unwrap().into_env();
    let (next_value, barrier, domain) = induction_query(&env);
    let query = BoundQuery::new(&next_value, 0.0).with_guard(&barrier);
    let config = BranchBoundConfig {
        max_boxes: 50_000,
        ..BranchBoundConfig::default()
    };
    let outcome = prove_bound(&query, &domain, &config);
    let point = outcome
        .counterexample()
        .unwrap_or_else(|| panic!("expected a counterexample, got {outcome:?}"));
    assert!(barrier.eval(point) <= 0.0);
    assert!(next_value.eval(point) > 0.0);
}

#[test]
fn sound_minimum_matches_the_reference_on_all_table1_benchmarks() {
    // Budgets that stop after the first box, after a few splits, and deep
    // into refinement, on every benchmark's certificate and successor
    // polynomials.
    for spec in all_benchmarks() {
        let name = spec.name();
        let env = spec.into_env();
        let (next_value, barrier, domain) = induction_query(&env);
        for polynomial in [&barrier, &next_value] {
            for max_boxes in [0usize, 1, 7, 300] {
                let compiled = sound_minimum(polynomial, &domain, max_boxes);
                let reference = reference_sound_minimum(polynomial, &domain, max_boxes);
                assert_eq!(
                    compiled.to_bits(),
                    reference.to_bits(),
                    "{name}: sound_minimum diverged at max_boxes={max_boxes} \
                     (compiled {compiled}, reference {reference})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random guarded quadratic queries: same verdict, same witness, same
    /// box count as the reference.
    #[test]
    fn prop_prove_bound_matches_the_reference(
        coeffs in proptest::collection::vec(-2.0..2.0f64, 6),
        gcoeffs in proptest::collection::vec(-2.0..2.0f64, 6),
        bound in -1.0..1.0f64,
    ) {
        let basis = monomial_basis(2, 2);
        let p = Polynomial::from_basis(2, &basis, &coeffs);
        let g = Polynomial::from_basis(2, &basis, &gcoeffs);
        let domain = vec![Interval::new(-1.0, 1.0); 2];
        let config = BranchBoundConfig {
            max_boxes: 20_000,
            ..BranchBoundConfig::default()
        };
        let compiled = prove_bound(&BoundQuery::new(&p, bound).with_guard(&g), &domain, &config);
        let reference = reference_prove_bound(&p, bound, &[&g], &domain, &config);
        prop_assert_eq!(without_worst_box(compiled), reference);
    }
}
