//! Algorithm 3: the runtime safety shield.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vrl_dynamics::{EnvironmentContext, Policy, PortableEnvironment};
use vrl_poly::BatchPoints;
use vrl_synth::{GuardedPolicy, PolicyProgram, PortableProgram};
use vrl_verify::{BarrierCertificate, PortableCertificate};

use crate::table::{DecisionTable, TableConfig, TableError};

/// Reusable per-thread buffers for [`Shield::decide_batch`]: the predicted
/// successor lanes, one row-assembly buffer for the per-lane safety check,
/// the coverage flags, plus the decision-table lane partition, so batched
/// serving performs no per-request allocation beyond the returned decisions.
#[derive(Default)]
struct BatchScratch {
    predicted: BatchPoints,
    row: Vec<f64>,
    safe: Vec<bool>,
    covered: Vec<bool>,
    contained: Vec<bool>,
    table_cover: Vec<Option<bool>>,
    fallback: BatchPoints,
}

thread_local! {
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::default());
}

/// One verified piece of a shield: a deterministic program together with the
/// inductive invariant proving it safe on the region the invariant covers.
#[derive(Debug, Clone)]
pub struct ShieldPiece {
    program: PolicyProgram,
    invariant: BarrierCertificate,
}

impl ShieldPiece {
    /// Creates a piece from a verified program and its invariant.
    ///
    /// # Panics
    ///
    /// Panics if the program and invariant dimensions disagree.
    pub fn new(program: PolicyProgram, invariant: BarrierCertificate) -> Self {
        assert_eq!(
            program.state_dim(),
            invariant.state_dim(),
            "program and invariant must range over the same state variables"
        );
        ShieldPiece { program, invariant }
    }

    /// The verified deterministic program.
    pub fn program(&self) -> &PolicyProgram {
        &self.program
    }

    /// The inductive invariant `φ ::= E ≤ 0`.
    pub fn invariant(&self) -> &BarrierCertificate {
        &self.invariant
    }
}

/// A runtime safety shield (Sec. 4.3): the collection of verified
/// `(program, invariant)` pairs produced by the CEGIS loop, together with the
/// environment model used to predict the effect of proposed actions.
///
/// The shield lets a high-performing neural policy act freely as long as the
/// *predicted* next state stays within a proven invariant; otherwise it
/// overrides the action with the verified program of the piece covering the
/// current state.
///
/// # Serving performance
///
/// Every polynomial a decision touches is held in compiled (flat-array)
/// form, cached at construction time by the components the shield is built
/// from: invariant membership tests run on
/// [`BarrierCertificate`]'s compiled barrier, the one-step prediction runs
/// on [`vrl_dynamics::PolyDynamics`]'s compiled vector field, and override
/// actions run on the compiled branches of
/// [`PolicyProgram`].  The serving hot path
/// ([`Shield::decide`] and everything below it) therefore never iterates
/// the sparse `BTreeMap` polynomial representation, and all *evaluation*
/// scratch (per-variable power tables, integrator stage buffers, the
/// oracle's forward-pass buffers upstream in `vrl-runtime`) lives in
/// per-thread reusable storage.  The remaining steady-state allocations
/// per decision are the handful of small output vectors (the clamped and
/// returned actions and the predicted successor state).  Compiled forms
/// are snapshots: they are rebuilt automatically whenever a new shield
/// (or piece, certificate, or program) is constructed, e.g. on hot
/// redeploys.
///
/// Optionally ([`Shield::with_table`]) a shield carries a precomputed
/// [`DecisionTable`]: decisions whose predicted successor lands in an
/// interval-certified cell are answered in O(1) with no certificate
/// evaluation at all, and only boundary cells route through the exact
/// compiled path above.  Table dispatch is bit-identical to the exact path
/// (debug builds assert every table-resolved decision against it).
#[derive(Debug, Clone)]
pub struct Shield {
    env: EnvironmentContext,
    pieces: Vec<ShieldPiece>,
    table: Option<Arc<DecisionTable>>,
}

/// The decision taken by the shield for one step.
#[derive(Debug, Clone, PartialEq)]
pub struct ShieldDecision {
    /// The action actually applied.
    pub action: Vec<f64>,
    /// True when the neural action was overridden.
    pub intervened: bool,
}

impl Shield {
    /// Creates a shield from verified pieces.
    ///
    /// # Panics
    ///
    /// Panics if `pieces` is empty or a piece's dimensions disagree with the
    /// environment.
    pub fn new(env: EnvironmentContext, pieces: Vec<ShieldPiece>) -> Self {
        assert!(
            !pieces.is_empty(),
            "a shield needs at least one verified piece"
        );
        for piece in &pieces {
            assert_eq!(
                piece.invariant().state_dim(),
                env.state_dim(),
                "piece dimension must match the environment"
            );
        }
        Shield {
            env,
            pieces,
            table: None,
        }
    }

    /// Returns this shield with a freshly built precomputed decision table
    /// (replacing any previous one; the pieces and environment are
    /// unchanged, so decisions are unchanged — only their cost is).
    ///
    /// # Errors
    ///
    /// Returns a [`TableError`] when the table cannot be built for this
    /// shield and config (see [`DecisionTable::build`]).
    pub fn with_table(mut self, config: &TableConfig) -> Result<Shield, TableError> {
        let table = DecisionTable::build(&self.env, &self.pieces, config)?;
        self.table = Some(Arc::new(table));
        Ok(self)
    }

    /// Returns this shield with any precomputed decision table removed
    /// (every decision runs the exact compiled path again).
    pub fn without_table(mut self) -> Shield {
        self.table = None;
        self
    }

    /// The precomputed decision table, when one was built.
    pub fn table(&self) -> Option<&DecisionTable> {
        self.table.as_deref()
    }

    /// The verified pieces.
    pub fn pieces(&self) -> &[ShieldPiece] {
        &self.pieces
    }

    /// Number of pieces (the "Size" column for the deterministic program in
    /// Table 1).
    pub fn num_pieces(&self) -> usize {
        self.pieces.len()
    }

    /// The environment model the shield predicts with.
    pub fn env(&self) -> &EnvironmentContext {
        &self.env
    }

    /// Returns true when `state` lies inside some proven invariant *and* is
    /// safe according to the environment's safety specification.
    pub fn covers(&self, state: &[f64]) -> bool {
        self.env.safety().is_safe(state)
            && self.pieces.iter().any(|p| p.invariant().contains(state))
    }

    /// Algorithm 3: decides the action to apply at `state` given the action
    /// `proposed` by the neural policy.
    ///
    /// The proposed action is kept when the predicted successor remains
    /// within a proven invariant (and the safe region); otherwise the shield
    /// substitutes the action of the verified program covering the current
    /// state (falling back to the piece whose invariant value is smallest if
    /// none formally covers it).
    ///
    /// With a precomputed table ([`Shield::with_table`]) the coverage
    /// question is answered by the predicted successor's certified cell when
    /// possible — O(1), no certificate evaluation — and by the exact
    /// compiled path on boundary cells.  Both routes produce bit-identical
    /// decisions (asserted in debug builds).
    pub fn decide(&self, state: &[f64], proposed: &[f64]) -> ShieldDecision {
        let predicted = self.env.step_deterministic(state, proposed);
        if let Some(table) = &self.table {
            if let Some(covered) = table.coverage(&predicted) {
                crate::obs::decide_table_hits().inc();
                let decision = if covered {
                    ShieldDecision {
                        action: self.env.clamp_action(proposed),
                        intervened: false,
                    }
                } else {
                    ShieldDecision {
                        action: self.table_intervention_action(state),
                        intervened: true,
                    }
                };
                debug_assert_eq!(
                    decision,
                    self.decide_exact(state, proposed),
                    "table-resolved decision diverged from the exact path"
                );
                return decision;
            }
            crate::obs::decide_table_fallbacks().inc();
        }
        self.decide_from_predicted(state, proposed, &predicted)
    }

    /// The exact decision procedure, bypassing any precomputed table (the
    /// conformance reference for table dispatch).
    pub fn decide_exact(&self, state: &[f64], proposed: &[f64]) -> ShieldDecision {
        let predicted = self.env.step_deterministic(state, proposed);
        self.decide_from_predicted(state, proposed, &predicted)
    }

    /// The exact keep/override choice given an already-predicted successor.
    fn decide_from_predicted(
        &self,
        state: &[f64],
        proposed: &[f64],
        predicted: &[f64],
    ) -> ShieldDecision {
        if self.covers(predicted) {
            return ShieldDecision {
                action: self.env.clamp_action(proposed),
                intervened: false,
            };
        }
        ShieldDecision {
            action: self.intervention_action(state),
            intervened: true,
        }
    }

    /// The override action for `state` when the decision was resolved by
    /// the table: uses the current state's certified constant piece when the
    /// table pinned one (skipping the piece-selection scan), and the exact
    /// [`Shield::intervention_action`] otherwise.  By the table's
    /// construction the pinned piece is exactly the piece the scan would
    /// select, so both routes clamp the same program's action.
    fn table_intervention_action(&self, state: &[f64]) -> Vec<f64> {
        if let Some(table) = &self.table {
            if let Some(j) = table.intervention_piece(state) {
                return self
                    .env
                    .clamp_action(&self.pieces[j].program().action(state));
            }
        }
        self.intervention_action(state)
    }

    /// The override action for `state`: the verified program of the piece
    /// responsible for the current state (by construction its action keeps
    /// the system inside that piece's invariant), falling back to the piece
    /// whose invariant value is smallest when none formally covers it.
    ///
    /// Shared by [`Shield::decide`] and [`Shield::decide_batch`] so both
    /// paths intervene with byte-identical actions.
    fn intervention_action(&self, state: &[f64]) -> Vec<f64> {
        let piece = self
            .pieces
            .iter()
            .find(|p| p.invariant().contains(state))
            .unwrap_or_else(|| {
                self.pieces
                    .iter()
                    .min_by(|a, b| {
                        a.invariant()
                            .value(state)
                            .partial_cmp(&b.invariant().value(state))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("a shield always has at least one piece")
            });
        self.env.clamp_action(&piece.program().action(state))
    }

    /// Algorithm 3 for a whole batch of independent `(state, proposal)`
    /// pairs: predicts every successor through the lane-batched integrator
    /// step ([`EnvironmentContext::step_deterministic_batch`] — one sweep of
    /// the compiled dynamics family for the whole batch instead of one
    /// integrator call per state), classifies the entire lane against the
    /// certificates through the lane-batched compiled kernels (one
    /// power-table fill per variable per [`vrl_poly::LANE_WIDTH`]-lane
    /// sweep), and only falls back to the per-state intervention path for
    /// the lanes whose predicted successor is uncovered.
    ///
    /// With a precomputed table ([`Shield::with_table`]) the batch is first
    /// partitioned by the table: lanes whose predicted successor lands in a
    /// certified cell are decided in O(1), and only boundary-cell lanes run
    /// the certificate sweep.
    ///
    /// Decision-for-decision identical to calling [`Shield::decide`] per
    /// pair (debug builds assert this): batched membership values are
    /// bit-exact, and interventions run the same
    /// (piece-selection, program, clamp) code as the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if `states` and `proposed` have different lengths or any
    /// state/action has the wrong dimension.
    pub fn decide_batch(&self, states: &[Vec<f64>], proposed: &[Vec<f64>]) -> Vec<ShieldDecision> {
        assert_eq!(
            states.len(),
            proposed.len(),
            "one proposed action per state is required"
        );
        if states.is_empty() {
            return Vec::new();
        }
        BATCH_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let BatchScratch {
                predicted,
                row,
                safe,
                covered,
                contained,
                table_cover,
                fallback,
            } = &mut *scratch;
            // One lane-batched sweep of the compiled dynamics predicts the
            // whole batch's successors (bit-identical to per-state
            // `step_deterministic`, asserted in debug builds).
            self.env
                .step_deterministic_batch(states, proposed, predicted);
            // With a precomputed table, partition the lanes: certified
            // cells are decided in O(1); only the boundary-cell lanes run
            // the certificate machinery below.  Without a table every lane
            // is a "fallback" lane.
            table_cover.clear();
            if fallback.nvars() != predicted.nvars() {
                *fallback = BatchPoints::new(predicted.nvars());
            } else {
                fallback.clear();
            }
            if let Some(table) = &self.table {
                for lane in 0..states.len() {
                    predicted.state_into(lane, row);
                    let cover = table.coverage(row);
                    if cover.is_none() {
                        fallback.push(row);
                    }
                    table_cover.push(cover);
                }
                crate::obs::decide_table_hits().add((states.len() - fallback.len()) as u64);
                crate::obs::decide_table_fallbacks().add(fallback.len() as u64);
            } else {
                table_cover.resize(states.len(), None);
                for lane in 0..states.len() {
                    predicted.state_into(lane, row);
                    fallback.push(row);
                }
            }
            safe.clear();
            for lane in 0..fallback.len() {
                fallback.state_into(lane, row);
                safe.push(self.env.safety().is_safe(row));
            }
            // Lane-parallel certificate classification: a fallback lane is
            // covered when its predicted successor is safe and inside some
            // piece's invariant.
            covered.clear();
            covered.resize(fallback.len(), false);
            if !fallback.is_empty() {
                for piece in &self.pieces {
                    piece.invariant().contains_batch(fallback, contained);
                    for (c, &inside) in covered.iter_mut().zip(contained.iter()) {
                        *c = *c || inside;
                    }
                }
            }
            let mut next_fallback = 0usize;
            let decisions: Vec<ShieldDecision> = states
                .iter()
                .zip(proposed.iter())
                .zip(table_cover.iter())
                .map(|((state, action), cover)| {
                    let (keep, table_resolved) = match cover {
                        Some(keep) => (*keep, true),
                        None => {
                            let i = next_fallback;
                            next_fallback += 1;
                            (covered[i] && safe[i], false)
                        }
                    };
                    if keep {
                        ShieldDecision {
                            action: self.env.clamp_action(action),
                            intervened: false,
                        }
                    } else if table_resolved {
                        ShieldDecision {
                            action: self.table_intervention_action(state),
                            intervened: true,
                        }
                    } else {
                        ShieldDecision {
                            action: self.intervention_action(state),
                            intervened: true,
                        }
                    }
                })
                .collect();
            #[cfg(debug_assertions)]
            for (i, ((state, action), decision)) in states
                .iter()
                .zip(proposed.iter())
                .zip(decisions.iter())
                .enumerate()
            {
                debug_assert_eq!(
                    decision,
                    &self.decide(state, action),
                    "batch lane {i} diverged from the scalar decide path"
                );
            }
            decisions
        })
    }

    /// Extracts the plain-data form of this shield (environment model plus
    /// every `(program, invariant)` pair) for artifact persistence.
    ///
    /// The environment's reward and steady-state closures are not captured;
    /// see [`PortableEnvironment`] — the shield's decision procedure never
    /// consults them.
    pub fn to_portable(&self) -> PortableShield {
        PortableShield {
            env: self.env.to_portable(),
            pieces: self
                .pieces
                .iter()
                .map(|p| PortableShieldPiece {
                    program: p.program().to_portable(),
                    invariant: p.invariant().to_portable(),
                })
                .collect(),
        }
    }

    /// Rebuilds a shield from its plain-data form.
    ///
    /// # Errors
    ///
    /// Returns a message when the stored pieces are empty or any piece's
    /// dimensions disagree with the environment.
    pub fn from_portable(portable: &PortableShield) -> Result<Shield, String> {
        let env = EnvironmentContext::from_portable(&portable.env)?;
        if portable.pieces.is_empty() {
            return Err("a shield needs at least one verified piece".to_string());
        }
        let mut pieces = Vec::with_capacity(portable.pieces.len());
        for piece in &portable.pieces {
            let program = PolicyProgram::from_portable(&piece.program)?;
            let invariant = BarrierCertificate::from_portable(&piece.invariant)?;
            if program.state_dim() != invariant.state_dim() {
                return Err(format!(
                    "piece program ranges over {} state variables but its invariant over {}",
                    program.state_dim(),
                    invariant.state_dim()
                ));
            }
            if invariant.state_dim() != env.state_dim() {
                return Err(format!(
                    "piece dimension {} disagrees with the environment dimension {}",
                    invariant.state_dim(),
                    env.state_dim()
                ));
            }
            pieces.push(ShieldPiece::new(program, invariant));
        }
        Ok(Shield::new(env, pieces))
    }

    /// Flattens the shield into the single deterministic program of
    /// Theorem 4.2: `if φ₁: P₁ else if φ₂: P₂ … else abort`.
    pub fn to_program(&self) -> PolicyProgram {
        let mut branches = Vec::with_capacity(self.pieces.len());
        for piece in &self.pieces {
            let actions = piece
                .program()
                .branches()
                .first()
                .expect("programs always have at least one branch")
                .actions()
                .to_vec();
            branches.push(GuardedPolicy::guarded(
                piece.invariant().polynomial().clone(),
                actions,
            ));
        }
        PolicyProgram::from_branches(branches)
    }
}

/// Plain-data form of one [`ShieldPiece`] used by artifact persistence.
#[derive(Debug, Clone, PartialEq)]
pub struct PortableShieldPiece {
    /// The verified deterministic program.
    pub program: PortableProgram,
    /// The inductive invariant proving it safe.
    pub invariant: PortableCertificate,
}

/// Plain-data form of a [`Shield`] used by artifact persistence.
#[derive(Debug, Clone, PartialEq)]
pub struct PortableShield {
    /// The environment model the shield predicts with.
    pub env: PortableEnvironment,
    /// Every verified `(program, invariant)` pair.
    pub pieces: Vec<PortableShieldPiece>,
}

/// A policy that runs a neural oracle under a shield, counting interventions.
///
/// The wrapper implements [`Policy`], so it can be dropped into any
/// environment rollout in place of the raw neural network.
///
/// # Counter semantics
///
/// The intervention/decision counters are `AtomicUsize`s so that concurrent
/// rollouts can share one wrapper.  `Clone` is implemented **explicitly**
/// (never derived — deriving `Clone` next to atomics silently picks one of
/// two reasonable semantics): a clone *snapshots* the counter values at
/// clone time and counts independently afterwards.  Call
/// [`ShieldedPolicy::reset_counters`] on the clone for a fresh meter.
#[derive(Debug)]
pub struct ShieldedPolicy<'a, P: Policy + ?Sized> {
    shield: &'a Shield,
    oracle: &'a P,
    interventions: AtomicUsize,
    decisions: AtomicUsize,
}

impl<P: Policy + ?Sized> Clone for ShieldedPolicy<'_, P> {
    /// Snapshot semantics: the clone starts from the counter values observed
    /// at clone time (see the type-level documentation).
    fn clone(&self) -> Self {
        ShieldedPolicy {
            shield: self.shield,
            oracle: self.oracle,
            interventions: AtomicUsize::new(self.interventions()),
            decisions: AtomicUsize::new(self.decisions()),
        }
    }
}

impl<'a, P: Policy + ?Sized> ShieldedPolicy<'a, P> {
    /// Wraps `oracle` with `shield`.
    pub fn new(shield: &'a Shield, oracle: &'a P) -> Self {
        ShieldedPolicy {
            shield,
            oracle,
            interventions: AtomicUsize::new(0),
            decisions: AtomicUsize::new(0),
        }
    }

    /// Number of times the shield overrode the oracle so far.
    pub fn interventions(&self) -> usize {
        self.interventions.load(Ordering::Relaxed)
    }

    /// Total number of decisions made so far.
    pub fn decisions(&self) -> usize {
        self.decisions.load(Ordering::Relaxed)
    }

    /// Fraction of decisions that were interventions.
    pub fn intervention_rate(&self) -> f64 {
        let decisions = self.decisions();
        if decisions == 0 {
            0.0
        } else {
            self.interventions() as f64 / decisions as f64
        }
    }

    /// Resets the intervention counters.
    pub fn reset_counters(&self) {
        self.interventions.store(0, Ordering::Relaxed);
        self.decisions.store(0, Ordering::Relaxed);
    }
}

impl<P: Policy + ?Sized> Policy for ShieldedPolicy<'_, P> {
    fn action_dim(&self) -> usize {
        self.oracle.action_dim()
    }

    fn action(&self, state: &[f64]) -> Vec<f64> {
        let proposed = self.oracle.action(state);
        let decision = self.shield.decide(state, &proposed);
        self.decisions.fetch_add(1, Ordering::Relaxed);
        if decision.intervened {
            self.interventions.fetch_add(1, Ordering::Relaxed);
        }
        decision.action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vrl_dynamics::{BoxRegion, ConstantPolicy, PolyDynamics, SafetySpec};
    use vrl_poly::Polynomial;

    /// ẋ = a with safe |x| ≤ 1; invariant x² − 0.81 ≤ 0 (|x| ≤ 0.9) verified
    /// for the program a = −2x.
    fn toy_shield() -> Shield {
        let dynamics = PolyDynamics::new(1, 1, vec![Polynomial::variable(1, 2)]).unwrap();
        let env = EnvironmentContext::new(
            "toy",
            dynamics,
            0.01,
            BoxRegion::symmetric(&[0.5]),
            SafetySpec::inside(BoxRegion::symmetric(&[1.0])),
        );
        let program = PolicyProgram::linear(&[vec![-2.0]], &[0.0]);
        let x = Polynomial::variable(0, 1);
        let invariant = BarrierCertificate::new(&(&x * &x) - &Polynomial::constant(0.81, 1));
        Shield::new(env, vec![ShieldPiece::new(program, invariant)])
    }

    #[test]
    fn shield_accessors() {
        let shield = toy_shield();
        assert_eq!(shield.num_pieces(), 1);
        assert_eq!(shield.pieces().len(), 1);
        assert!(shield.covers(&[0.5]));
        assert!(!shield.covers(&[0.95]));
        assert!(!shield.covers(&[1.5]));
        let program = shield.to_program();
        assert_eq!(program.num_branches(), 1);
        assert!(program.evaluate(&[0.5]).is_some());
        assert!(program.evaluate(&[0.95]).is_none());
    }

    #[test]
    fn shield_allows_safe_proposals_and_blocks_unsafe_ones() {
        let shield = toy_shield();
        // A small action keeps the next state inside the invariant: allowed.
        let keep = shield.decide(&[0.0], &[1.0]);
        assert!(!keep.intervened);
        assert_eq!(keep.action, vec![1.0]);
        // A huge action from near the boundary would leave the invariant:
        // the shield overrides with the verified program's action.
        let block = shield.decide(&[0.89], &[50.0]);
        assert!(block.intervened);
        assert!((block.action[0] - (-2.0 * 0.89)).abs() < 1e-12);
        // Even from an uncovered state the shield still produces an action.
        let fallback = shield.decide(&[0.95], &[50.0]);
        assert!(fallback.intervened);
        assert!((fallback.action[0] - (-2.0 * 0.95)).abs() < 1e-12);
    }

    #[test]
    fn decide_batch_matches_sequential_decides() {
        let shield = toy_shield();
        // A grid of states spanning covered, boundary, and uncovered
        // regions, with proposals spanning benign and adversarial actions:
        // 30 pairs, so the certificate sweep sees full lanes and a tail.
        let mut states = Vec::new();
        let mut proposed = Vec::new();
        for (i, &x) in [-0.95, -0.5, 0.0, 0.5, 0.89, 0.95].iter().enumerate() {
            for &a in &[-50.0, -1.0, 0.0, 1.0, 50.0] {
                states.push(vec![x + 0.001 * i as f64]);
                proposed.push(vec![a]);
            }
        }
        let batch = shield.decide_batch(&states, &proposed);
        assert_eq!(batch.len(), states.len());
        for ((state, action), decision) in states.iter().zip(proposed.iter()).zip(batch.iter()) {
            assert_eq!(decision, &shield.decide(state, action));
        }
        assert!(batch.iter().any(|d| d.intervened));
        assert!(batch.iter().any(|d| !d.intervened));
        // An empty batch is fine.
        assert_eq!(shield.decide_batch(&[], &[]), Vec::new());
    }

    #[test]
    fn decide_batch_handles_dimension_changes_across_calls() {
        // The per-thread batch scratch must rebuild when a differently
        // shaped shield uses it on the same thread.
        let shield_1d = toy_shield();
        let dynamics = PolyDynamics::new(
            2,
            1,
            vec![
                vrl_poly::Polynomial::variable(1, 3),
                vrl_poly::Polynomial::variable(2, 3),
            ],
        )
        .unwrap();
        let env = EnvironmentContext::new(
            "toy-2d",
            dynamics,
            0.01,
            BoxRegion::symmetric(&[0.3, 0.3]),
            SafetySpec::inside(BoxRegion::symmetric(&[1.0, 1.0])),
        );
        let program = PolicyProgram::linear(&[vec![-2.0, -2.0]], &[0.0]);
        let x = Polynomial::variable(0, 2);
        let v = Polynomial::variable(1, 2);
        let invariant =
            BarrierCertificate::new(&(&(&x * &x) + &(&v * &v)) - &Polynomial::constant(0.81, 2));
        let shield_2d = Shield::new(env, vec![ShieldPiece::new(program, invariant)]);
        for _ in 0..2 {
            let d1 = shield_1d.decide_batch(&[vec![0.1]], &[vec![0.5]]);
            assert_eq!(d1[0], shield_1d.decide(&[0.1], &[0.5]));
            let d2 = shield_2d.decide_batch(&[vec![0.1, -0.2]], &[vec![0.5]]);
            assert_eq!(d2[0], shield_2d.decide(&[0.1, -0.2], &[0.5]));
        }
    }

    #[test]
    fn table_dispatch_is_bit_identical_to_the_exact_path() {
        let exact = toy_shield();
        let tabled = toy_shield()
            .with_table(&crate::TableConfig::uniform(64))
            .expect("the toy safe box grids cleanly");
        assert!(tabled.table().is_some());
        let mut states = Vec::new();
        let mut proposed = Vec::new();
        let mut x = -1.2;
        while x <= 1.2 {
            for &a in &[-50.0, -1.0, 0.0, 1.0, 50.0] {
                states.push(vec![x]);
                proposed.push(vec![a]);
            }
            x += 0.0173;
        }
        for (state, action) in states.iter().zip(proposed.iter()) {
            let fast = tabled.decide(state, action);
            assert_eq!(fast, exact.decide(state, action), "state {state:?}");
            assert_eq!(fast, tabled.decide_exact(state, action), "state {state:?}");
        }
        // The batched path partitions lanes through the same table.
        let batch = tabled.decide_batch(&states, &proposed);
        for ((state, action), decision) in states.iter().zip(proposed.iter()).zip(batch.iter()) {
            assert_eq!(decision, &exact.decide(state, action), "state {state:?}");
        }
        // Removing the table restores the plain shield.
        let stripped = tabled.without_table();
        assert!(stripped.table().is_none());
        assert_eq!(
            stripped.decide(&[0.1], &[1.0]),
            exact.decide(&[0.1], &[1.0])
        );
    }

    #[test]
    fn a_refused_table_build_names_its_limit() {
        let config = crate::TableConfig {
            max_cells: 10,
            ..crate::TableConfig::uniform(64)
        };
        let error = toy_shield()
            .with_table(&config)
            .expect_err("64 cells exceed a cap of 10");
        assert_eq!(
            error,
            crate::TableError::TooManyCells {
                cells: 64,
                max_cells: 10
            }
        );
        assert_eq!(error.reason(), "too_many_cells");
    }

    #[test]
    fn rebuilding_a_table_replaces_the_previous_one() {
        let coarse = toy_shield()
            .with_table(&crate::TableConfig::uniform(16))
            .unwrap();
        assert_eq!(coarse.table().unwrap().stats().cells, 16);
        let fine = coarse.with_table(&crate::TableConfig::uniform(64)).unwrap();
        assert_eq!(fine.table().unwrap().stats().cells, 64);
        let exact = toy_shield();
        for x in [-0.95, -0.3, 0.0, 0.42, 0.89] {
            assert_eq!(fine.decide(&[x], &[3.0]), exact.decide(&[x], &[3.0]));
        }
    }

    #[test]
    fn table_dispatch_counts_hits_and_fallbacks() {
        let tabled = toy_shield()
            .with_table(&crate::TableConfig::uniform(64))
            .unwrap();
        let hits_before = crate::obs::decide_table_hits().get();
        // Deep inside the invariant with a tiny action: the predicted
        // successor lands well away from the ±0.9 decision surface, in a
        // certified cell.
        let _ = tabled.decide(&[0.0], &[0.0]);
        assert!(crate::obs::decide_table_hits().get() > hits_before);
    }

    #[test]
    #[should_panic(expected = "one proposed action per state")]
    fn decide_batch_rejects_mismatched_lengths() {
        let shield = toy_shield();
        let _ = shield.decide_batch(&[vec![0.0]], &[]);
    }

    #[test]
    fn shielded_policy_counts_interventions_and_stays_safe() {
        let shield = toy_shield();
        // An adversarial "neural policy" that always pushes outward.
        let adversary = ConstantPolicy::new(vec![5.0]);
        let shielded = ShieldedPolicy::new(&shield, &adversary);
        let env = shield.env().clone();
        let mut rng = SmallRng::seed_from_u64(1);
        let trajectory = env.rollout(&shielded, &[0.0], 2000, &mut rng);
        assert!(
            !trajectory.violates(env.safety()),
            "the shield must keep the system safe"
        );
        assert!(shielded.interventions() > 0);
        assert_eq!(shielded.decisions(), 2000);
        assert!(shielded.intervention_rate() > 0.0 && shielded.intervention_rate() <= 1.0);
        shielded.reset_counters();
        assert_eq!(shielded.interventions(), 0);
        assert_eq!(shielded.decisions(), 0);
    }

    #[test]
    fn benign_oracle_is_never_interrupted() {
        let shield = toy_shield();
        let benign = vrl_dynamics::ClosurePolicy::new(1, |s: &[f64]| vec![-1.5 * s[0]]);
        let shielded = ShieldedPolicy::new(&shield, &benign);
        let env = shield.env().clone();
        let mut rng = SmallRng::seed_from_u64(2);
        let trajectory = env.rollout(&shielded, &[0.4], 2000, &mut rng);
        assert!(!trajectory.violates(env.safety()));
        assert_eq!(
            shielded.interventions(),
            0,
            "a well-behaved oracle needs no interventions"
        );
    }

    #[test]
    fn portable_round_trip_preserves_decisions() {
        let shield = toy_shield();
        let portable = shield.to_portable();
        let back = Shield::from_portable(&portable).expect("round trip succeeds");
        assert_eq!(back.num_pieces(), shield.num_pieces());
        for state in [[-0.95], [-0.5], [0.0], [0.5], [0.89], [0.95]] {
            for proposed in [[-50.0], [-1.0], [0.0], [1.0], [50.0]] {
                assert_eq!(
                    back.decide(&state, &proposed),
                    shield.decide(&state, &proposed)
                );
            }
            assert_eq!(back.covers(&state), shield.covers(&state));
        }
    }

    #[test]
    fn corrupted_portable_shields_are_rejected() {
        let shield = toy_shield();
        let mut empty = shield.to_portable();
        empty.pieces.clear();
        assert!(Shield::from_portable(&empty).is_err());
        let mut wrong_dim = shield.to_portable();
        wrong_dim.env.state_dim = 2;
        assert!(Shield::from_portable(&wrong_dim).is_err());
    }

    #[test]
    fn shielded_policy_clone_snapshots_counters() {
        let shield = toy_shield();
        let adversary = ConstantPolicy::new(vec![5.0]);
        let shielded = ShieldedPolicy::new(&shield, &adversary);
        let _ = shielded.action(&[0.89]);
        assert_eq!(shielded.decisions(), 1);
        let cloned = shielded.clone();
        // Snapshot semantics: the clone starts from the observed values…
        assert_eq!(cloned.decisions(), 1);
        assert_eq!(cloned.interventions(), shielded.interventions());
        // …and counts independently afterwards.
        let _ = cloned.action(&[0.89]);
        assert_eq!(cloned.decisions(), 2);
        assert_eq!(shielded.decisions(), 1);
        cloned.reset_counters();
        assert_eq!(cloned.decisions(), 0);
        assert_eq!(shielded.decisions(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one verified piece")]
    fn empty_shield_rejected() {
        let dynamics = PolyDynamics::new(1, 1, vec![Polynomial::variable(1, 2)]).unwrap();
        let env = EnvironmentContext::new(
            "toy",
            dynamics,
            0.01,
            BoxRegion::symmetric(&[0.5]),
            SafetySpec::inside(BoxRegion::symmetric(&[1.0])),
        );
        let _ = Shield::new(env, vec![]);
    }
}
