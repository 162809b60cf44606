//! Sound branch-and-bound proving of polynomial inequalities over boxes.
//!
//! This module is the framework's substitute for the SMT/SOS back-ends the
//! paper uses (Z3 and Mosek): it soundly decides questions of the form
//! "is `p(x) ≤ bound` for every `x` in a box (possibly restricted to the
//! region where a guard polynomial `g(x) ≤ 0` holds)?" by recursively
//! bisecting the box and evaluating conservative interval enclosures.
//!
//! A returned [`ProofOutcome::Proved`] is sound: interval evaluation always
//! over-approximates the true range.  A returned
//! [`ProofOutcome::Counterexample`] carries a concrete point at which the
//! inequality genuinely fails (verified by exact evaluation), which is what
//! the CEGIS loops feed back into synthesis.
//!
//! # Evaluation strategy
//!
//! The search is the classic depth-first branch-and-bound: pop one box,
//! prune it by the guards, certify it by the objective's enclosure, probe
//! its midpoint and corners for a counterexample, or split it along its
//! widest side and push the left then the right half.  The objective and
//! the guards that survive root-domain hoisting are each compiled once into
//! a [`CompiledPolySet`] pulled from the two-level
//! [`crate::CompiledQueryCache`], so CEGIS loops that re-prove the same
//! certificate family never recompile.  The compiled kernels are bit-for-bit
//! the sparse reference evaluators, so the search examines the same boxes
//! in the same order, and returns the same verdicts and witnesses, as the
//! uncompiled depth-first loop (`tests/branch_bound_conformance.rs` pins
//! this on every Table 1 benchmark).

use vrl_poly::{CompiledPolySet, Interval, PolyScratch, Polynomial};

use crate::cache::with_query_cache;

/// Configuration of the branch-and-bound search.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchBoundConfig {
    /// Maximum number of boxes examined before giving up with
    /// [`ProofOutcome::Unknown`].
    pub max_boxes: usize,
    /// Boxes whose widest side is below this width are no longer split; if
    /// such a box can neither be certified nor refuted the search reports
    /// [`ProofOutcome::Unknown`].
    pub min_width: f64,
    /// Numerical slack: the inequality `p ≤ bound` is certified when the
    /// interval upper bound is `≤ bound + tolerance`.
    pub tolerance: f64,
}

impl Default for BranchBoundConfig {
    fn default() -> Self {
        BranchBoundConfig {
            max_boxes: 200_000,
            min_width: 1e-4,
            tolerance: 1e-9,
        }
    }
}

/// Result of a branch-and-bound proof attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum ProofOutcome {
    /// The inequality holds everywhere on the (guarded) box.
    Proved {
        /// Number of boxes examined.
        boxes_examined: usize,
    },
    /// A concrete point in the (guarded) box where the inequality fails.
    Counterexample {
        /// The witness point.
        point: Vec<f64>,
        /// Value of the objective polynomial at the witness.
        value: f64,
    },
    /// The search budget was exhausted before a decision was reached.
    Unknown {
        /// Number of boxes examined.
        boxes_examined: usize,
        /// The most suspicious box (smallest certified margin) seen.
        worst_box: Option<(Vec<f64>, Vec<f64>)>,
    },
}

impl ProofOutcome {
    /// Returns true for [`ProofOutcome::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, ProofOutcome::Proved { .. })
    }

    /// Returns the counterexample point, if any.
    pub fn counterexample(&self) -> Option<&[f64]> {
        match self {
            ProofOutcome::Counterexample { point, .. } => Some(point),
            _ => None,
        }
    }
}

/// A query of the form: for all `x` in `domain` with `guards_i(x) ≤ 0` for
/// every guard, prove `objective(x) ≤ bound`.
#[derive(Debug, Clone)]
pub struct BoundQuery<'a> {
    objective: &'a Polynomial,
    bound: f64,
    guards: Vec<&'a Polynomial>,
}

impl<'a> BoundQuery<'a> {
    /// Creates a query proving `objective(x) ≤ bound` on the whole domain.
    pub fn new(objective: &'a Polynomial, bound: f64) -> Self {
        BoundQuery {
            objective,
            bound,
            guards: Vec::new(),
        }
    }

    /// Restricts the query to the region where `guard(x) ≤ 0`.
    ///
    /// Several guards may be added; all must hold for a point to be relevant.
    ///
    /// # Panics
    ///
    /// Panics if the guard's variable count differs from the objective's.
    pub fn with_guard(mut self, guard: &'a Polynomial) -> Self {
        assert_eq!(
            guard.nvars(),
            self.objective.nvars(),
            "guard and objective must range over the same variables"
        );
        self.guards.push(guard);
        self
    }

    /// The objective polynomial.
    pub fn objective(&self) -> &Polynomial {
        self.objective
    }

    /// The bound being proved.
    pub fn bound(&self) -> f64 {
        self.bound
    }
}

/// Attempts to prove a [`BoundQuery`] over an axis-aligned box given as
/// per-dimension intervals.
///
/// Depth-first branch-and-bound: each popped box is pruned when a guard's
/// enclosure is certainly positive on it, certified when the objective's
/// enclosure is at most `bound + tolerance`, refuted when its midpoint or
/// an extreme corner is a genuine counterexample, and otherwise split along
/// its widest side, left half pushed before right.  The compiled
/// `objective + guards` forms come from the two-level
/// [`crate::CompiledQueryCache`]; guards whose enclosure over the whole
/// domain is already non-positive are dropped before the search, since they
/// can neither prune a box nor reject a probe.
///
/// # Examples
///
/// ```
/// use vrl_poly::{Interval, Polynomial};
/// use vrl_solver::{prove_bound, BoundQuery, BranchBoundConfig};
///
/// // x ≤ 0.5 fails on [0, 1], but holds where the guard x − 0.25 ≤ 0 does.
/// let x = Polynomial::variable(0, 1);
/// let guard = &x - &Polynomial::constant(0.25, 1);
/// let domain = [Interval::new(0.0, 1.0)];
/// let config = BranchBoundConfig::default();
/// let refuted = prove_bound(&BoundQuery::new(&x, 0.5), &domain, &config);
/// assert_eq!(refuted.counterexample(), Some(&[1.0][..]));
/// let guarded = BoundQuery::new(&x, 0.5).with_guard(&guard);
/// assert!(prove_bound(&guarded, &domain, &config).is_proved());
/// ```
///
/// # Panics
///
/// Panics if `domain.len()` differs from the objective's variable count.
pub fn prove_bound(
    query: &BoundQuery<'_>,
    domain: &[Interval],
    config: &BranchBoundConfig,
) -> ProofOutcome {
    assert_eq!(
        domain.len(),
        query.objective.nvars(),
        "domain dimension must match the polynomial"
    );
    // Compiled forms come from the per-thread query cache: the objective as
    // a single-member family, and — after the root-domain hoisting below —
    // the *active* guards as one family, so every guard check fills its
    // power tables once for all guards and CEGIS re-proofs of the same
    // certificate family skip compilation entirely.  Guards and objective
    // stay separate on purpose: guard pruning excludes a box *before* the
    // (typically much denser) objective is evaluated on it, which measures
    // faster than sharing one table fill across objective and guards.
    // Work tally for the process-wide registry; flushed on drop, which
    // covers every return path below.  Cell bumps only — never on the
    // numeric path, so outcomes are bit-identical with the registry on.
    let tally = crate::obs::BbTally::start();
    let objective_set = with_query_cache(|cache| cache.get_or_compile(&[query.objective]));
    let objective = SingleMember(&objective_set);
    let mut scratch = PolyScratch::new();
    // Guard pre-check hoisting: a guard whose enclosure over the *root*
    // domain is already non-positive holds at every point of every sub-box —
    // it can never prune a box and always passes the counterexample check,
    // so it is dropped from the per-box checks entirely.
    let active_guard_polys: Vec<&Polynomial> = if query.guards.is_empty() {
        Vec::new()
    } else {
        let all_guards = with_query_cache(|cache| cache.get_or_compile(&query.guards));
        let mut guard_values = vec![Interval::zero(); all_guards.len()];
        all_guards.eval_interval_into_with(domain, &mut guard_values, &mut scratch);
        query
            .guards
            .iter()
            .zip(guard_values.iter())
            .filter(|(_, enclosure)| enclosure.hi() > 0.0)
            .map(|(&g, _)| g)
            .collect()
    };
    let guards = (!active_guard_polys.is_empty())
        .then(|| with_query_cache(|cache| cache.get_or_compile(&active_guard_polys)));
    let num_guards = active_guard_polys.len();
    // Reusable buffers: the guard enclosures of the current box, and the
    // candidate point and guard values of the counterexample probes.
    let mut guard_values = vec![Interval::zero(); num_guards];
    let mut point = vec![0.0; domain.len()];
    let mut guard_point_values = vec![0.0; num_guards];
    let mut stack: Vec<Vec<Interval>> = vec![domain.to_vec()];
    let mut boxes_examined = 0usize;
    let mut worst_box: Option<(Vec<f64>, Vec<f64>, f64)> = None;
    let mut undecided_smallest = false;
    while let Some(current) = stack.pop() {
        boxes_examined += 1;
        tally.box_examined();
        if boxes_examined > config.max_boxes {
            return ProofOutcome::Unknown {
                boxes_examined,
                worst_box: worst_box.map(|(l, h, _)| (l, h)),
            };
        }
        // Guard pruning: if any active guard is certainly positive on this
        // box, no point of the box is relevant to the query.
        if let Some(guards) = &guards {
            guards.eval_interval_into_with(&current, &mut guard_values, &mut scratch);
            if guard_values.iter().any(|enclosure| enclosure.lo() > 0.0) {
                tally.guard_prune();
                continue;
            }
        }
        let enclosure = objective.eval_interval_with(&current, &mut scratch);
        if enclosure.hi() <= query.bound + config.tolerance {
            continue; // certified on this box
        }
        // Try to produce a genuine counterexample at the box midpoint (and
        // at the corners bounding the enclosure) before splitting.
        if let Some(cex) = find_counterexample(
            &objective,
            guards.as_deref(),
            &mut guard_point_values,
            query.bound,
            &current,
            &mut point,
            &mut scratch,
        ) {
            tally.found_counterexample();
            return cex;
        }
        let widest = current.iter().map(Interval::width).fold(0.0f64, f64::max);
        if widest <= config.min_width {
            // Cannot split further and cannot decide: record and continue;
            // the overall result will be Unknown (sound: we never claim a
            // proof).
            let margin = enclosure.hi() - query.bound;
            let lows: Vec<f64> = current.iter().map(Interval::lo).collect();
            let highs: Vec<f64> = current.iter().map(Interval::hi).collect();
            match &worst_box {
                Some((_, _, m)) if *m >= margin => {}
                _ => worst_box = Some((lows, highs, margin)),
            }
            undecided_smallest = true;
            continue;
        }
        let (left, right) = bisect_widest(current);
        stack.push(left);
        stack.push(right);
    }

    if undecided_smallest {
        ProofOutcome::Unknown {
            boxes_examined,
            worst_box: worst_box.map(|(l, h, _)| (l, h)),
        }
    } else {
        ProofOutcome::Proved { boxes_examined }
    }
}

/// Splits a box in half along its widest side (the last widest on ties),
/// returning the lower and the upper half.
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

/// Attempts to prove `p(x) ≤ 0` for all `x` in the box.
pub fn prove_nonpositive(
    p: &Polynomial,
    domain: &[Interval],
    config: &BranchBoundConfig,
) -> ProofOutcome {
    prove_bound(&BoundQuery::new(p, 0.0), domain, config)
}

/// Attempts to prove `p(x) > 0` (strictly) for all `x` in the box, by proving
/// `-p(x) ≤ -margin` for a tiny positive margin.
///
/// A counterexample carries `p`'s own value at the witness, so it is `≤ 0`.
///
/// # Examples
///
/// ```
/// use vrl_poly::{Interval, Polynomial};
/// use vrl_solver::{prove_positive, BranchBoundConfig};
///
/// let x = Polynomial::variable(0, 1);
/// let domain = [Interval::new(-3.0, 3.0)];
/// let config = BranchBoundConfig::default();
/// let lifted = &(&x * &x) + &Polynomial::constant(0.1, 1);
/// assert!(prove_positive(&lifted, &domain, &config).is_proved());
/// let dipped = &(&x * &x) - &Polynomial::constant(0.5, 1);
/// let refuted = prove_positive(&dipped, &domain, &config);
/// assert_eq!(refuted.counterexample(), Some(&[0.0][..]));
/// ```
pub fn prove_positive(
    p: &Polynomial,
    domain: &[Interval],
    config: &BranchBoundConfig,
) -> ProofOutcome {
    let negated = -p;
    let outcome = prove_bound(&BoundQuery::new(&negated, 0.0), domain, config);
    match outcome {
        ProofOutcome::Counterexample { point, value } => ProofOutcome::Counterexample {
            point,
            value: -value,
        },
        other => other,
    }
}

/// Adapter giving a single-member compiled family the two evaluation calls
/// [`sound_minimum`] needs.  A one-polynomial [`CompiledPolySet`] lowers to
/// exactly the kernel of a standalone [`vrl_poly::CompiledPolynomial`], so
/// the values are bit-identical to compiling the polynomial alone.
struct SingleMember<'a>(&'a CompiledPolySet);

impl SingleMember<'_> {
    fn eval_interval_with(&self, domain: &[Interval], scratch: &mut PolyScratch) -> Interval {
        let mut out = [Interval::zero()];
        self.0.eval_interval_into_with(domain, &mut out, scratch);
        out[0]
    }

    fn eval_with(&self, point: &[f64], scratch: &mut PolyScratch) -> f64 {
        let mut out = [0.0];
        self.0.eval_into_with(point, &mut out, scratch);
        out[0]
    }
}

/// Computes a sound lower bound of `p` over the box by branch-and-bound
/// refinement: the returned value is `≤ min_{x ∈ domain} p(x)`, and
/// converges towards it as `max_boxes` grows.
///
/// # Examples
///
/// ```
/// use vrl_poly::{Interval, Polynomial};
/// use vrl_solver::sound_minimum;
///
/// // x² − x has its minimum −0.25 at x = 0.5; the root enclosure over
/// // [−1, 2] only bounds it by −2.
/// let x = Polynomial::variable(0, 1);
/// let p = &(&x * &x) - &x;
/// let domain = [Interval::new(-1.0, 2.0)];
/// assert_eq!(sound_minimum(&p, &domain, 0), -2.0);
/// let refined = sound_minimum(&p, &domain, 1_000);
/// assert!(refined <= -0.25 && refined > -0.2501);
/// ```
///
/// Best-first on the interval lower bound: each step pops the box with the
/// smallest lower bound (the first such box on ties), stops once that bound
/// is within `1e-9` (relative) of the best midpoint value seen or the box is
/// narrower than `1e-6`, and otherwise splits the box along its widest side
/// and queues both halves with their lower bounds.
///
/// # Panics
///
/// Panics if `domain.len()` differs from the polynomial's variable count.
pub fn sound_minimum(p: &Polynomial, domain: &[Interval], max_boxes: usize) -> f64 {
    assert_eq!(
        domain.len(),
        p.nvars(),
        "domain dimension must match the polynomial"
    );
    // The compiled form comes from the query cache (a single-member
    // family), so repeated refinements of the same polynomial — e.g. the
    // per-obstacle level checks of the linear back-end across CEGIS rounds —
    // skip compilation; the cached kernel is exactly what a fresh
    // compilation would produce, so the bound is unchanged.
    let family = with_query_cache(|cache| cache.get_or_compile(&[p]));
    let compiled = SingleMember(&family);
    let mut scratch = PolyScratch::new();
    // One reusable midpoint buffer instead of a fresh `collect()` per child.
    let mut midpoint = vec![0.0; domain.len()];
    for (m, iv) in midpoint.iter_mut().zip(domain.iter()) {
        *m = iv.midpoint();
    }
    let mut queue: Vec<(f64, Vec<Interval>)> = vec![(
        compiled.eval_interval_with(domain, &mut scratch).lo(),
        domain.to_vec(),
    )];
    let mut upper = compiled.eval_with(&midpoint, &mut scratch);
    let mut examined = 0usize;
    while examined < max_boxes && !queue.is_empty() {
        let index = queue
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1 .0
                    .partial_cmp(&b.1 .0)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .expect("the queue is not empty");
        examined += 1;
        let (lower, current) = &queue[index];
        let converged = upper - lower < 1e-9 * (1.0 + upper.abs());
        let widest = current.iter().map(Interval::width).fold(0.0f64, f64::max);
        if converged || widest < 1e-6 {
            break;
        }
        let (_, current) = queue.swap_remove(index);
        let (left, right) = bisect_widest(current);
        for child in [left, right] {
            let child_lower = compiled.eval_interval_with(&child, &mut scratch).lo();
            for (m, iv) in midpoint.iter_mut().zip(child.iter()) {
                *m = iv.midpoint();
            }
            upper = upper.min(compiled.eval_with(&midpoint, &mut scratch));
            queue.push((child_lower, child));
        }
    }
    crate::obs::min_boxes().add(examined as u64);
    queue
        .iter()
        .map(|(lo, _)| *lo)
        .fold(f64::INFINITY, f64::min)
        .min(upper)
}

/// Probes the box midpoint and both extreme corners for a genuine
/// counterexample, reusing `point` and `guard_values` as candidate buffers
/// so subdivision allocates nothing until a witness is actually found.  The
/// active-guard family is evaluated per probe (one power-table fill for all
/// guards); the objective is evaluated only when every guard admits the
/// point, exactly as the per-box pruning order does.
fn find_counterexample(
    objective: &SingleMember<'_>,
    guards: Option<&CompiledPolySet>,
    guard_values: &mut [f64],
    bound: f64,
    domain: &[Interval],
    point: &mut [f64],
    scratch: &mut PolyScratch,
) -> Option<ProofOutcome> {
    for pick in [Interval::midpoint, Interval::lo, Interval::hi] {
        for (slot, iv) in point.iter_mut().zip(domain.iter()) {
            *slot = pick(iv);
        }
        if let Some(guards) = guards {
            guards.eval_into_with(point, guard_values, scratch);
            // `all(v <= 0.0)` (not `!any(v > 0.0)`): a guard evaluating to
            // NaN at the probe must reject the candidate — the point does
            // not verifiably satisfy the guards.
            if !guard_values.iter().all(|&v| v <= 0.0) {
                continue;
            }
        }
        let value = objective.eval_with(point, scratch);
        if value > bound {
            return Some(ProofOutcome::Counterexample {
                point: point.to_vec(),
                value,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vrl_poly::monomial_basis;

    fn interval_box(bounds: &[(f64, f64)]) -> Vec<Interval> {
        bounds.iter().map(|&(l, h)| Interval::new(l, h)).collect()
    }

    #[test]
    fn proves_simple_nonpositivity() {
        // p = x² - 1 ≤ 0 on [-1, 1]
        let x = Polynomial::variable(0, 1);
        let p = &(&x * &x) - &Polynomial::constant(1.0, 1);
        let outcome = prove_nonpositive(
            &p,
            &interval_box(&[(-1.0, 1.0)]),
            &BranchBoundConfig::default(),
        );
        assert!(outcome.is_proved(), "got {outcome:?}");
    }

    #[test]
    fn finds_counterexamples() {
        // p = x² - 1 > 0 at x = 2
        let x = Polynomial::variable(0, 1);
        let p = &(&x * &x) - &Polynomial::constant(1.0, 1);
        let outcome = prove_nonpositive(
            &p,
            &interval_box(&[(-2.0, 2.0)]),
            &BranchBoundConfig::default(),
        );
        let point = outcome
            .counterexample()
            .expect("must find a counterexample");
        assert!(p.eval(point) > 0.0);
        assert!(!outcome.is_proved());
    }

    #[test]
    fn proves_strict_positivity() {
        // p = x² + 0.1 > 0 everywhere
        let x = Polynomial::variable(0, 1);
        let p = &(&x * &x) + &Polynomial::constant(0.1, 1);
        let outcome = prove_positive(
            &p,
            &interval_box(&[(-3.0, 3.0)]),
            &BranchBoundConfig::default(),
        );
        assert!(outcome.is_proved());
        // p = x² - 0.5 is not positive near zero.
        let q = &(&x * &x) - &Polynomial::constant(0.5, 1);
        let refuted = prove_positive(
            &q,
            &interval_box(&[(-3.0, 3.0)]),
            &BranchBoundConfig::default(),
        );
        let cex = refuted
            .counterexample()
            .expect("not positive near the origin");
        assert!(q.eval(cex) <= 0.0);
    }

    #[test]
    fn guards_restrict_the_query() {
        // Objective x ≤ 0.5 fails on [0, 1] in general, but holds on the
        // guarded region where g(x) = x - 0.25 ≤ 0.
        let x = Polynomial::variable(0, 1);
        let bound_query = BoundQuery::new(&x, 0.5);
        let failing = prove_bound(
            &bound_query,
            &interval_box(&[(0.0, 1.0)]),
            &BranchBoundConfig::default(),
        );
        assert!(failing.counterexample().is_some());
        let guard = &x - &Polynomial::constant(0.25, 1);
        let guarded_query = BoundQuery::new(&x, 0.5).with_guard(&guard);
        let outcome = prove_bound(
            &guarded_query,
            &interval_box(&[(0.0, 1.0)]),
            &BranchBoundConfig::default(),
        );
        assert!(outcome.is_proved(), "got {outcome:?}");
    }

    #[test]
    fn two_dimensional_barrier_style_query() {
        // E = x² + y² - 1; prove E ≤ 0 implies (0.9·x)² + (0.9·y)² - 1 ≤ 0
        // (a contraction keeps the sublevel set invariant).
        let nvars = 2;
        let x = Polynomial::variable(0, nvars);
        let y = Polynomial::variable(1, nvars);
        let e = &(&(&x * &x) + &(&y * &y)) - &Polynomial::constant(1.0, nvars);
        let contracted = &(&(&x * &x).scaled(0.81) + &(&y * &y).scaled(0.81))
            - &Polynomial::constant(1.0, nvars);
        let query = BoundQuery::new(&contracted, 0.0).with_guard(&e);
        let outcome = prove_bound(
            &query,
            &interval_box(&[(-2.0, 2.0), (-2.0, 2.0)]),
            &BranchBoundConfig::default(),
        );
        assert!(outcome.is_proved(), "got {outcome:?}");
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // A polynomial that is extremely close to the bound everywhere forces
        // deep subdivision; with a tiny budget the answer must be Unknown,
        // never a wrong Proved.
        let x = Polynomial::variable(0, 1);
        let p = &(&x * &x).scaled(1e-12) - &Polynomial::constant(0.0, 1);
        let config = BranchBoundConfig {
            max_boxes: 3,
            min_width: 1e-9,
            tolerance: 0.0,
        };
        let outcome = prove_bound(
            &BoundQuery::new(&p, -1e-30),
            &interval_box(&[(-1.0, 1.0)]),
            &config,
        );
        assert!(matches!(
            outcome,
            ProofOutcome::Unknown { .. } | ProofOutcome::Counterexample { .. }
        ));
        assert!(!outcome.is_proved());
    }

    #[test]
    fn min_width_floor_reports_unknown_not_proved() {
        // p = x² is ≤ 0 only at a single point; asking for p ≤ -1e-9 cannot be
        // proved, and near x = 0 no counterexample with p > -1e-9... actually
        // p(0) = 0 > -1e-9 so a counterexample is found immediately.
        let x = Polynomial::variable(0, 1);
        let p = &x * &x;
        let outcome = prove_bound(
            &BoundQuery::new(&p, -1e-9),
            &interval_box(&[(-1.0, 1.0)]),
            &BranchBoundConfig::default(),
        );
        assert!(outcome.counterexample().is_some());
    }

    #[test]
    #[should_panic(expected = "domain dimension must match")]
    fn prove_bound_rejects_a_domain_of_the_wrong_dimension() {
        let x = Polynomial::variable(0, 2);
        let _ = prove_nonpositive(
            &x,
            &interval_box(&[(0.0, 1.0)]),
            &BranchBoundConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "same variables")]
    fn guards_over_other_variables_are_rejected() {
        let x = Polynomial::variable(0, 2);
        let g = Polynomial::variable(0, 1);
        let _ = BoundQuery::new(&x, 0.0).with_guard(&g);
    }

    #[test]
    fn undecidable_boxes_report_unknown_with_the_worst_box() {
        // x ≤ 0.5 + 1e-12 on [-1, 1] under the guard |x| ≤ 0.5: the boxes
        // [0.5, 0.5 + w] are never pruned (the guard is 0 at x = 0.5), never
        // certified, and every probe is either guarded out or within the
        // bound, so the search bottoms out at `min_width` there.
        let x = Polynomial::variable(0, 1);
        let guard = &(&x * &x) - &Polynomial::constant(0.25, 1);
        let query = BoundQuery::new(&x, 0.5 + 1e-12).with_guard(&guard);
        let outcome = prove_bound(
            &query,
            &interval_box(&[(-1.0, 1.0)]),
            &BranchBoundConfig::default(),
        );
        match outcome {
            ProofOutcome::Unknown {
                boxes_examined,
                worst_box: Some((lows, highs)),
            } => {
                assert!(boxes_examined > 1);
                assert_eq!(lows, vec![0.5]);
                assert!(highs[0] - lows[0] <= BranchBoundConfig::default().min_width);
            }
            other => panic!("expected Unknown with a worst box, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_budgets_count_the_box_past_the_budget() {
        // The undecidable query above needs about 30 boxes to reach its
        // first `min_width` box; a smaller budget runs out first, and the
        // box that would exceed it is counted but not examined.
        let x = Polynomial::variable(0, 1);
        let guard = &(&x * &x) - &Polynomial::constant(0.25, 1);
        let query = BoundQuery::new(&x, 0.5 + 1e-12).with_guard(&guard);
        for max_boxes in [0, 1, 2, 17] {
            let config = BranchBoundConfig {
                max_boxes,
                ..BranchBoundConfig::default()
            };
            let outcome = prove_bound(&query, &interval_box(&[(-1.0, 1.0)]), &config);
            assert_eq!(
                outcome,
                ProofOutcome::Unknown {
                    boxes_examined: max_boxes + 1,
                    worst_box: None,
                }
            );
        }
    }

    #[test]
    fn the_right_half_is_searched_first() {
        // x² ≤ 2 under the guard x² ≤ 3 on [-2, 2] fails symmetrically near
        // both ends, and the root's corners are guarded out.  Depth-first
        // with the right half pushed last pops [0, 2] then [1, 2], whose
        // midpoint 1.5 is the first genuine counterexample.
        let x = Polynomial::variable(0, 1);
        let p = &x * &x;
        let guard = &p - &Polynomial::constant(3.0, 1);
        let query = BoundQuery::new(&p, 2.0).with_guard(&guard);
        let outcome = prove_bound(
            &query,
            &interval_box(&[(-2.0, 2.0)]),
            &BranchBoundConfig::default(),
        );
        assert_eq!(
            outcome,
            ProofOutcome::Counterexample {
                point: vec![1.5],
                value: 2.25,
            }
        );
    }

    #[test]
    fn guards_that_hold_on_the_whole_domain_change_nothing() {
        // -1 - x² - y² ≤ 0 everywhere: hoisting drops it before the search,
        // so the guarded query returns exactly the unguarded outcome,
        // refuted or proved.
        let x = Polynomial::variable(0, 2);
        let y = Polynomial::variable(1, 2);
        let r2 = &(&x * &x) + &(&y * &y);
        let always = &(-&r2) - &Polynomial::constant(1.0, 2);
        let domain = interval_box(&[(-1.0, 1.0), (-1.0, 1.0)]);
        let config = BranchBoundConfig::default();
        for bound in [0.5, 2.0] {
            let plain = prove_bound(&BoundQuery::new(&r2, bound), &domain, &config);
            let guarded = prove_bound(
                &BoundQuery::new(&r2, bound).with_guard(&always),
                &domain,
                &config,
            );
            assert_eq!(plain, guarded);
        }
    }

    #[test]
    fn prove_positive_reports_the_witness_value_of_p() {
        let x = Polynomial::variable(0, 1);
        let q = &(&x * &x) - &Polynomial::constant(0.5, 1);
        let outcome = prove_positive(
            &q,
            &interval_box(&[(-3.0, 3.0)]),
            &BranchBoundConfig::default(),
        );
        match outcome {
            ProofOutcome::Counterexample { point, value } => {
                assert_eq!(value.to_bits(), q.eval(&point).to_bits());
                assert!(value <= 0.0);
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn sound_minimum_converges_to_a_known_minimum() {
        // (x − 0.3)² + 0.1 has its minimum 0.1 at x = 0.3.
        let x = Polynomial::variable(0, 1);
        let shifted = &x - &Polynomial::constant(0.3, 1);
        let p = &(&shifted * &shifted) + &Polynomial::constant(0.1, 1);
        let domain = interval_box(&[(-1.0, 1.0)]);
        let minimum = sound_minimum(&p, &domain, 10_000);
        assert!(minimum <= 0.1, "{minimum} is not a lower bound");
        assert!(minimum > 0.1 - 1e-6, "{minimum} did not converge");
        // With no budget the answer is the root enclosure's lower bound.
        let root = p.eval_interval(&domain).lo();
        assert_eq!(sound_minimum(&p, &domain, 0).to_bits(), root.to_bits());
    }

    #[test]
    fn repeated_queries_hit_the_compiled_query_cache() {
        let _guard = crate::cache::shared_store_test_guard();
        crate::reset_query_cache();
        let x = Polynomial::variable(0, 1);
        let p = &(&x * &x) - &Polynomial::constant(1.0, 1);
        let domain = interval_box(&[(-1.0, 1.0)]);
        let first = prove_nonpositive(&p, &domain, &BranchBoundConfig::default());
        let after_first = crate::query_cache_stats();
        assert_eq!(after_first.misses, 1);
        assert_eq!(after_first.hits, 0);
        // The identical query re-proves without recompiling and with the
        // identical outcome.
        let second = prove_nonpositive(&p, &domain, &BranchBoundConfig::default());
        let after_second = crate::query_cache_stats();
        assert_eq!(after_second.misses, 1);
        assert_eq!(after_second.hits, 1);
        assert_eq!(first, second);
        // `sound_minimum` shares the same cache — and because an unguarded
        // query's family is just `[p]`, it reuses the very entry the proofs
        // above compiled.
        let min1 = sound_minimum(&p, &domain, 1000);
        let min2 = sound_minimum(&p, &domain, 1000);
        assert_eq!(min1.to_bits(), min2.to_bits());
        let final_stats = crate::query_cache_stats();
        assert_eq!(final_stats.misses, 1);
        assert_eq!(final_stats.hits, 3);
        crate::reset_query_cache();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_proved_queries_hold_on_samples(
            coeffs in proptest::collection::vec(-2.0..2.0f64, 6),
            shift in 0.5..3.0f64,
            tx in 0.0..1.0f64, ty in 0.0..1.0f64,
        ) {
            // p - (max over a sample grid + shift) must be provably ≤ 0 … and
            // if the prover says so, random samples must satisfy it.
            let basis = monomial_basis(2, 2);
            let p = Polynomial::from_basis(2, &basis, &coeffs);
            let domain = interval_box(&[(-1.0, 1.0), (-1.0, 1.0)]);
            let enclosure = p.eval_interval(&domain);
            let bound = enclosure.hi() + shift;
            let outcome = prove_bound(&BoundQuery::new(&p, bound), &domain, &BranchBoundConfig::default());
            prop_assert!(outcome.is_proved());
            let sample = [-1.0 + 2.0 * tx, -1.0 + 2.0 * ty];
            prop_assert!(p.eval(&sample) <= bound + 1e-9);
        }

        /// `sound_minimum` is a genuine lower bound against point samples.
        #[test]
        fn prop_sound_minimum_is_a_lower_bound(
            coeffs in proptest::collection::vec(-2.0..2.0f64, 6),
            tx in 0.0..1.0f64, ty in 0.0..1.0f64,
        ) {
            let basis = monomial_basis(2, 2);
            let p = Polynomial::from_basis(2, &basis, &coeffs);
            let domain = interval_box(&[(-1.0, 1.0), (-1.0, 1.0)]);
            let minimum = sound_minimum(&p, &domain, 5_000);
            let sample = [-1.0 + 2.0 * tx, -1.0 + 2.0 * ty];
            prop_assert!(minimum <= p.eval(&sample) + 1e-9);
        }

        #[test]
        fn prop_counterexamples_are_genuine(
            coeffs in proptest::collection::vec(-2.0..2.0f64, 6),
        ) {
            let basis = monomial_basis(2, 2);
            let p = Polynomial::from_basis(2, &basis, &coeffs);
            let domain = interval_box(&[(-1.0, 1.0), (-1.0, 1.0)]);
            let outcome = prove_bound(&BoundQuery::new(&p, p.eval(&[0.0, 0.0]) - 0.5), &domain, &BranchBoundConfig::default());
            if let Some(point) = outcome.counterexample() {
                prop_assert!(p.eval(point) > p.eval(&[0.0, 0.0]) - 0.5);
            }
        }
    }
}
