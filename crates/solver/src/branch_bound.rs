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
//! The objective and guards of a query are compiled together into one
//! [`CompiledPolySet`] — pulled from the two-level
//! [`crate::CompiledQueryCache`], so CEGIS loops that re-prove the same
//! certificate family never recompile — and the search expands its frontier
//! [`vrl_poly::LANE_WIDTH`] boxes per sweep through the lane-batched
//! interval kernels.  Both choices are outcome-neutral: the cached compiled
//! family is exactly what a fresh compilation would produce, and each lane
//! of a batched sweep is bit-identical to the scalar interval kernel, so
//! the search examines the same boxes in the same order and returns the
//! same verdicts and witnesses as the scalar path
//! (`BranchBoundConfig::lane_batched = false`, which remains available as
//! the differential-testing reference).

use vrl_poly::{
    BatchBoxes, BatchPoints, CompiledPolySet, Interval, PolyScratch, Polynomial, LANE_WIDTH,
};

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
    /// Expand the frontier [`vrl_poly::LANE_WIDTH`] boxes per sweep through
    /// the lane-batched interval kernels (the default).  `false` evaluates
    /// one box at a time through the scalar kernels; both modes examine the
    /// same boxes in the same order and return bit-identical outcomes — the
    /// scalar mode exists as the reference arm of the differential
    /// conformance tests.
    pub lane_batched: bool,
    /// Counterexample-first probing window: while fewer than this many
    /// boxes have been examined, the frontier advances **one box at a
    /// time** — exactly the classic depth-first probe order, in which each
    /// undecided box's midpoint and corners are point-evaluated through the
    /// compiled kernels before it is split, so refuting queries surface
    /// their witness as fast as the seed DFS with no speculative wave work
    /// wasted past it.  Past the threshold the search is almost certainly
    /// proving, not refuting, and the frontier widens to full
    /// [`LANE_WIDTH`] waves for lane-batched throughput.  The threshold is
    /// compared against the deterministic box counter, so the scalar and
    /// batched modes pop identical boxes in identical order.  `0` skips the
    /// window and opens at full wave width immediately.
    pub probe_boxes: usize,
}

impl Default for BranchBoundConfig {
    fn default() -> Self {
        BranchBoundConfig {
            max_boxes: 200_000,
            min_width: 1e-4,
            tolerance: 1e-9,
            lane_batched: true,
            probe_boxes: 1024,
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
/// The compiled `objective + guards` family is pulled from the two-level
/// [`crate::CompiledQueryCache`], and the frontier is expanded in waves of
/// up to [`LANE_WIDTH`] boxes: each wave pops the top of the work stack,
/// evaluates the whole family over every popped box in one lane-batched
/// sweep (one interval power-table fill per variable for the wave), and
/// then processes the boxes in pop order — prune, certify, probe for a
/// counterexample, or split, with children pushed for a later wave.  The
/// opening [`BranchBoundConfig::probe_boxes`] boxes run one per wave — the
/// classic counterexample-first DFS order, so refutations pay for no
/// speculative siblings — before the frontier widens to full lanes.  The
/// scalar mode ([`BranchBoundConfig::lane_batched`]` = false`) pops the
/// **same** waves in the same order and evaluates each box through the
/// scalar kernels, whose values the lane kernels reproduce bit-for-bit —
/// so the two modes examine the same boxes in the same order and return
/// identical outcomes, witnesses included.
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
    // Reusable buffers: the candidate point and guard values of the
    // counterexample probes, the wave of popped boxes with their
    // evaluations, and the box batches of the lane sweeps.
    let mut point = vec![0.0; domain.len()];
    let mut guard_point_values = vec![0.0; num_guards];
    let mut guard_values = vec![Interval::zero(); num_guards];
    let mut batch = BatchBoxes::with_capacity(domain.len(), LANE_WIDTH);
    let mut live_batch = BatchBoxes::with_capacity(domain.len(), LANE_WIDTH);
    let mut batch_out: Vec<Interval> = Vec::new();
    let mut wave: Vec<Vec<Interval>> = Vec::with_capacity(LANE_WIDTH);
    let mut wave_evals: Vec<(Interval, bool)> = Vec::with_capacity(LANE_WIDTH);
    let mut live_lanes: Vec<usize> = Vec::with_capacity(LANE_WIDTH);
    let mut stack: Vec<Vec<Interval>> = vec![domain.to_vec()];
    let mut boxes_examined = 0usize;
    let mut worst_box: Option<(Vec<f64>, Vec<f64>, f64)> = None;
    let mut undecided_smallest = false;
    while !stack.is_empty() {
        // Pop the next wave off the frontier and evaluate it: guards over
        // the whole wave first, then the objective over the lanes no guard
        // pruned — lane-batched in family sweeps, or box-by-box through the
        // scalar kernels; the values (and hence everything below) are
        // bit-identical either way.
        //
        // Counterexample-first window: evaluating a wave is speculative — a
        // counterexample in its first box makes the rest wasted work, and
        // sibling sub-trees that a depth-first probe would never reach get
        // expanded.  So while the deterministic box counter is below
        // [`BranchBoundConfig::probe_boxes`] the wave is a single box,
        // which makes the traversal exactly the classic DFS probe order:
        // refuting queries surface their witness (midpoint/corner probes in
        // `find_counterexample`) having examined precisely the boxes the
        // seed DFS would have.  Past the window the search is almost
        // certainly proving — proofs must examine every box regardless of
        // order — and the frontier widens to full lanes.  The width is a
        // function of the box counter alone, so the scalar and batched
        // modes pop identical waves.
        wave.clear();
        tally.wave();
        let wave_width = if boxes_examined < config.probe_boxes {
            1
        } else {
            LANE_WIDTH
        };
        for _ in 0..wave_width.min(stack.len()) {
            wave.push(stack.pop().expect("bounded by stack length"));
        }
        wave_evals.clear();
        // Width-1 waves take the scalar kernels even in batched mode: the
        // lane kernels reproduce them bit-for-bit, and a one-lane batch
        // sweep costs more than a scalar evaluation, so inside the DFS
        // window both modes run the identical (cheapest) code path.
        if config.lane_batched && wave.len() > 1 {
            let lanes = wave.len();
            // Pruned lanes keep a placeholder enclosure that is never read.
            wave_evals.resize(lanes, (Interval::zero(), true));
            live_lanes.clear();
            if let Some(guards) = &guards {
                batch.clear();
                for current in &wave {
                    batch.push(current);
                }
                guards.evaluate_interval_batch_with(&batch, &mut batch_out, &mut scratch);
                for lane in 0..lanes {
                    let prunes = (0..num_guards).any(|gi| batch_out[gi * lanes + lane].lo() > 0.0);
                    if !prunes {
                        live_lanes.push(lane);
                    }
                }
            } else {
                live_lanes.extend(0..lanes);
            }
            live_batch.clear();
            for &lane in &live_lanes {
                live_batch.push(&wave[lane]);
            }
            objective
                .0
                .evaluate_interval_batch_with(&live_batch, &mut batch_out, &mut scratch);
            for (slot, &lane) in batch_out.iter().zip(live_lanes.iter()) {
                wave_evals[lane] = (*slot, false);
            }
        } else {
            for current in &wave {
                let prunes = match &guards {
                    Some(guards) => {
                        guards.eval_interval_into_with(current, &mut guard_values, &mut scratch);
                        guard_values.iter().any(|enclosure| enclosure.lo() > 0.0)
                    }
                    None => false,
                };
                if prunes {
                    wave_evals.push((Interval::zero(), true));
                } else {
                    wave_evals.push((objective.eval_interval_with(current, &mut scratch), false));
                }
            }
        }
        // Process the wave in pop order.
        for (current, &(enclosure, guard_prunes)) in wave.drain(..).zip(wave_evals.iter()) {
            boxes_examined += 1;
            tally.box_examined();
            if boxes_examined > config.max_boxes {
                return ProofOutcome::Unknown {
                    boxes_examined,
                    worst_box: worst_box.map(|(l, h, _)| (l, h)),
                };
            }
            // Guard pruning: if any active guard is certainly positive on
            // this box, no point of the box is relevant to the query.
            if guard_prunes {
                tally.guard_prune();
                continue;
            }
            if enclosure.hi() <= query.bound + config.tolerance {
                continue; // certified on this box
            }
            // Try to produce a genuine counterexample at the box midpoint
            // (and at the corners bounding the enclosure) before splitting.
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
                // Cannot split further and cannot decide: record and
                // continue; the overall result will be Unknown (sound: we
                // never claim a proof).
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
            // Split along the widest dimension.
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
/// Runs the lane-batched refinement of [`sound_minimum_with`].
///
/// # Panics
///
/// Panics if `domain.len()` differs from the polynomial's variable count.
pub fn sound_minimum(p: &Polynomial, domain: &[Interval], max_boxes: usize) -> f64 {
    sound_minimum_with(p, domain, max_boxes, true)
}

/// [`sound_minimum`] with an explicit kernel mode.
///
/// The best-first queue is refined in *waves*, mirroring [`prove_bound`]'s
/// frontier: each sweep pops up to [`LANE_WIDTH`] boxes in best-first order
/// (ramping up from one box so short refinements keep the classic pop
/// order), splits every popped box along its widest dimension, and
/// evaluates all children — interval lower bounds and midpoint upper
/// bounds — in two family sweeps instead of one kernel call per child.
/// The same order-stability argument as `prove_bound` applies: the wave
/// schedule depends only on the sweep count and the deterministic
/// best-first pop order, and each lane of a batched sweep is bit-identical
/// to the scalar kernel, so `lane_batched = false` (the differential
/// reference arm, one scalar kernel call per child in the identical order)
/// returns a bit-identical bound.
///
/// # Panics
///
/// Panics if `domain.len()` differs from the polynomial's variable count.
pub fn sound_minimum_with(
    p: &Polynomial,
    domain: &[Interval],
    max_boxes: usize,
    lane_batched: bool,
) -> f64 {
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
    // Best-first search on the interval lower bound.
    let mut queue: Vec<(f64, Vec<Interval>)> = vec![(
        compiled.eval_interval_with(domain, &mut scratch).lo(),
        domain.to_vec(),
    )];
    let mut upper = compiled.eval_with(&midpoint, &mut scratch);
    let mut examined = 0usize;
    let mut wave: Vec<(f64, Vec<Interval>)> = Vec::with_capacity(LANE_WIDTH);
    let mut children: Vec<Vec<Interval>> = Vec::with_capacity(2 * LANE_WIDTH);
    let mut child_boxes = BatchBoxes::with_capacity(domain.len(), 2 * LANE_WIDTH);
    let mut child_points = BatchPoints::with_capacity(domain.len(), 2 * LANE_WIDTH);
    let mut lows_out: Vec<Interval> = Vec::new();
    let mut mids_out: Vec<f64> = Vec::new();
    // Wave ramp-up, exactly as in `prove_bound`: one box on the first
    // sweep, doubling to LANE_WIDTH, so cheap refinements never speculate.
    let mut wave_width = 1usize;
    while examined < max_boxes && !queue.is_empty() {
        // Pop this wave best-first — repeated min-scans with the same
        // first-minimal tie-break the one-box loop used.
        wave.clear();
        let take = wave_width.min(queue.len()).min(max_boxes - examined);
        wave_width = (wave_width * 2).min(LANE_WIDTH);
        for _ in 0..take {
            let index = queue
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1 .0
                        .partial_cmp(&b.1 .0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i)
                .expect("bounded by queue length");
            wave.push(queue.swap_remove(index));
        }
        // Termination scan in pop order, against the `upper` every box in
        // the wave was popped under.  Pops past the first terminating box
        // go back to the queue untouched (and uncounted).
        let mut split_count = wave.len();
        let mut finished = false;
        for (i, (lower, current)) in wave.iter().enumerate() {
            examined += 1;
            let converged = upper - lower < 1e-9 * (1.0 + upper.abs());
            let widest = current.iter().map(Interval::width).fold(0.0f64, f64::max);
            if converged || widest < 1e-6 {
                split_count = i;
                finished = true;
                break;
            }
        }
        for (lower, unprocessed) in wave.drain(split_count..) {
            queue.push((lower, unprocessed));
        }
        // Split every remaining pop along its widest dimension; the wave's
        // children are then evaluated together — one interval sweep for the
        // lower bounds, one point sweep for the midpoint upper bounds — and
        // pushed in (pop, left, right) order, matching the reference arm.
        children.clear();
        for (_, current) in wave.drain(..) {
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
            children.push(left_box);
            children.push(right_box);
        }
        if lane_batched {
            child_boxes.clear();
            child_points.clear();
            for child in &children {
                child_boxes.push(child);
                for (m, iv) in midpoint.iter_mut().zip(child.iter()) {
                    *m = iv.midpoint();
                }
                child_points.push(&midpoint);
            }
            compiled
                .0
                .evaluate_interval_batch_with(&child_boxes, &mut lows_out, &mut scratch);
            compiled
                .0
                .evaluate_batch_with(&child_points, &mut mids_out, &mut scratch);
            for (child, (enclosure, mid_value)) in
                children.drain(..).zip(lows_out.iter().zip(mids_out.iter()))
            {
                upper = upper.min(*mid_value);
                queue.push((enclosure.lo(), child));
            }
        } else {
            for child in children.drain(..) {
                let child_lower = compiled.eval_interval_with(&child, &mut scratch).lo();
                for (m, iv) in midpoint.iter_mut().zip(child.iter()) {
                    *m = iv.midpoint();
                }
                upper = upper.min(compiled.eval_with(&midpoint, &mut scratch));
                queue.push((child_lower, child));
            }
        }
        if finished {
            break;
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
            ..BranchBoundConfig::default()
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
    fn scalar_and_batched_modes_agree_exactly_on_fixed_queries() {
        // Guarded and unguarded, provable and refutable queries: the
        // lane-batched frontier must reproduce the scalar outcome exactly,
        // including witness points and box counts.
        let x = Polynomial::variable(0, 2);
        let y = Polynomial::variable(1, 2);
        let e = &(&(&x * &x) + &(&y * &y)) - &Polynomial::constant(1.0, 2);
        let contracted =
            &(&(&x * &x).scaled(0.81) + &(&y * &y).scaled(0.81)) - &Polynomial::constant(1.0, 2);
        let expanded =
            &(&(&x * &x).scaled(1.2) + &(&y * &y).scaled(1.2)) - &Polynomial::constant(1.0, 2);
        let domain = interval_box(&[(-2.0, 2.0), (-2.0, 2.0)]);
        for (objective, guards) in [
            (&contracted, vec![&e]),
            (&expanded, vec![&e]),
            (&contracted, vec![]),
            (&expanded, vec![]),
        ] {
            let mut query = BoundQuery::new(objective, 0.0);
            for guard in guards {
                query = query.with_guard(guard);
            }
            let scalar = prove_bound(
                &query,
                &domain,
                &BranchBoundConfig {
                    lane_batched: false,
                    ..BranchBoundConfig::default()
                },
            );
            let batched = prove_bound(&query, &domain, &BranchBoundConfig::default());
            assert_eq!(scalar, batched);
        }
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

        /// The lane-batched frontier returns exactly the scalar outcome on
        /// random quadratic queries: same verdict, same witness, same box
        /// count — speculation over the stack never changes the search.
        #[test]
        fn prop_batched_equals_scalar(
            coeffs in proptest::collection::vec(-2.0..2.0f64, 6),
            gcoeffs in proptest::collection::vec(-2.0..2.0f64, 6),
            bound in -1.0..1.0f64,
        ) {
            let basis = monomial_basis(2, 2);
            let p = Polynomial::from_basis(2, &basis, &coeffs);
            let g = Polynomial::from_basis(2, &basis, &gcoeffs);
            let domain = interval_box(&[(-1.0, 1.0), (-1.0, 1.0)]);
            let query = BoundQuery::new(&p, bound).with_guard(&g);
            // Keep the budget modest so refuted/unknown cases stay cheap.
            let scalar_config = BranchBoundConfig {
                max_boxes: 20_000,
                lane_batched: false,
                ..BranchBoundConfig::default()
            };
            let batched_config = BranchBoundConfig {
                max_boxes: 20_000,
                ..BranchBoundConfig::default()
            };
            let scalar = prove_bound(&query, &domain, &scalar_config);
            let batched = prove_bound(&query, &domain, &batched_config);
            prop_assert_eq!(scalar, batched);
        }

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

        /// The wave-batched `sound_minimum` returns a bit-identical bound
        /// to the scalar reference arm, and the bound is genuinely sound
        /// against point samples.
        #[test]
        fn prop_sound_minimum_batched_equals_scalar(
            coeffs in proptest::collection::vec(-2.0..2.0f64, 6),
            tx in 0.0..1.0f64, ty in 0.0..1.0f64,
        ) {
            let basis = monomial_basis(2, 2);
            let p = Polynomial::from_basis(2, &basis, &coeffs);
            let domain = interval_box(&[(-1.0, 1.0), (-1.0, 1.0)]);
            let batched = sound_minimum_with(&p, &domain, 5_000, true);
            let scalar = sound_minimum_with(&p, &domain, 5_000, false);
            prop_assert_eq!(batched.to_bits(), scalar.to_bits());
            let sample = [-1.0 + 2.0 * tx, -1.0 + 2.0 * ty];
            prop_assert!(batched <= p.eval(&sample) + 1e-9);
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
