//! Generated-scenario conformance: the farm's procedurally generated
//! environments get the same bit-exactness guarantees the 15 hand-written
//! benchmarks have.
//!
//! Four layers of evidence:
//!
//! 1. Acceptance scale: the default farm yields ≥ 200 distinct well-formed
//!    scenarios from ≥ 4 families including compositional products.
//! 2. A seeded sweep over ≥ 50 generated environments comparing `decide`,
//!    `decide_batch`, and `decide_exact` decision-for-decision (bit
//!    identity on action words), with and without a decision table.
//! 3. Decision-table degradation: on *every* generated instance the table
//!    build either succeeds or falls back to the exact path — never
//!    panics — and the fallback obs counter records each degradation
//!    (the PR 8 finding: a dense grid certifies nothing at 8/16/18-D).
//! 4. Artifact round-trips on generated environments, products included:
//!    canonical bytes are a fixed point and the restored shield decides
//!    bit-identically.
//!
//! Plus proptest generators for family parameters and composition depth
//! asserting well-formedness of every reachable instance.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vrl::dynamics::EnvironmentContext;
use vrl::shield::{Shield, ShieldPiece, TableConfig, TableError};
use vrl::synth::PolicyProgram;
use vrl_farm::{compose, family, generate, scenario_by_id, FarmConfig, Scenario};
use vrl_runtime::{fixtures, ShieldArtifact};

/// The demo-shield geometry the benchmark conformance sweeps use: an
/// ellipsoid at a quarter of the safe-box widths and mildly stabilizing
/// linear gains, one program row per action dimension.
fn demo_shield(env: &EnvironmentContext) -> Shield {
    let safe = env.safety().safe_box();
    let radii: Vec<f64> = safe
        .lows()
        .iter()
        .zip(safe.highs().iter())
        .map(|(lo, hi)| 0.25 * (hi - lo))
        .collect();
    let gains = vec![vec![-0.5; env.state_dim()]; env.action_dim()];
    let program = PolicyProgram::linear(&gains, &vec![0.0; env.action_dim()]);
    Shield::new(
        env.clone(),
        vec![ShieldPiece::new(
            program,
            fixtures::ellipsoid_certificate(env, &radii),
        )],
    )
}

/// Random probes spanning the safe box expanded 1.3× about its center —
/// inside, outside, and straddling states.
fn probe_states(env: &EnvironmentContext, rng: &mut SmallRng, count: usize) -> Vec<Vec<f64>> {
    let expanded = env.safety().safe_box().scaled_about_center(1.3);
    (0..count).map(|_| expanded.sample(rng)).collect()
}

/// A deterministic spread of the default farm: every `stride`-th scenario.
fn sample_scenarios(stride: usize) -> Vec<Scenario> {
    generate(&FarmConfig::default())
        .into_iter()
        .step_by(stride)
        .collect()
}

#[test]
fn farm_reaches_acceptance_scale_with_well_formed_scenarios() {
    let scenarios = generate(&FarmConfig::default());
    assert!(
        scenarios.len() >= 200,
        "expected at least 200 scenarios, got {}",
        scenarios.len()
    );
    let mut ids = std::collections::HashSet::new();
    let mut families = std::collections::HashSet::new();
    for s in &scenarios {
        assert!(ids.insert(s.id().to_string()), "duplicate ID {}", s.id());
        families.insert(s.family().to_string());
        // Re-validating through the public constructor proves each
        // generated instance passes every well-formedness check.
        Scenario::new(
            s.id(),
            s.family(),
            s.env().clone(),
            s.oracle_gains().to_vec(),
            s.invariant_degree(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
    assert!(
        families.len() >= 5,
        "expected at least 4 families plus products, got {families:?}"
    );
    assert!(
        scenarios.iter().filter(|s| s.family() == "product").count() >= 50,
        "the default farm should sample a substantial product set"
    );
}

#[test]
fn decide_paths_are_bit_identical_on_fifty_generated_envs() {
    let sample = sample_scenarios(4);
    assert!(
        sample.len() >= 50,
        "the sweep needs at least 50 environments, got {}",
        sample.len()
    );
    for (index, scenario) in sample.iter().enumerate() {
        let env = scenario.env();
        let exact = demo_shield(env);
        let (tabled, _) = demo_shield(env).with_table_or_fallback(&TableConfig::uniform(6));

        let mut rng = SmallRng::seed_from_u64(9000 + index as u64);
        let states = probe_states(env, &mut rng, 24);
        let proposals: Vec<Vec<f64>> = states
            .iter()
            .map(|_| {
                (0..env.action_dim())
                    .map(|_| rng.gen_range(-2.0..2.0))
                    .collect()
            })
            .collect();

        for (state, proposed) in states.iter().zip(proposals.iter()) {
            let reference = exact.decide_exact(state, proposed);
            for candidate in [
                exact.decide(state, proposed),
                tabled.decide(state, proposed),
                tabled.decide_exact(state, proposed),
            ] {
                assert_eq!(
                    candidate.intervened,
                    reference.intervened,
                    "{}: {state:?}",
                    scenario.id()
                );
                assert_eq!(candidate.action.len(), reference.action.len());
                for (a, b) in candidate.action.iter().zip(reference.action.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{}: {state:?}", scenario.id());
                }
            }
        }
        // The batched path partitions lanes through the same geometry.
        for shield in [&exact, &tabled] {
            let batch = shield.decide_batch(&states, &proposals);
            for ((state, proposed), decision) in
                states.iter().zip(proposals.iter()).zip(batch.iter())
            {
                assert_eq!(
                    decision,
                    &exact.decide_exact(state, proposed),
                    "{}: batch lane {state:?}",
                    scenario.id()
                );
            }
        }
    }
}

#[test]
fn table_build_degrades_gracefully_on_every_generated_instance() {
    let scenarios = generate(&FarmConfig::default());
    let mut fell_back = 0usize;
    let mut built = 0usize;
    // Release sweeps every generated instance; debug (with the per-cell
    // interval-certification asserts compiled in) strides to every 4th,
    // plus the named high-dimensional instances checked below.
    let stride = if cfg!(debug_assertions) { 4 } else { 1 };
    for scenario in scenarios.iter().step_by(stride) {
        let env = scenario.env();
        // Resolution 8 certifies the low-dimensional grids and overflows
        // the cell cap from 8 dimensions up — the PR 8 finding.  Either
        // way this must not panic, and a fallback must name its limit.
        let (shield, fallback) = demo_shield(env).with_table_or_fallback(&TableConfig::uniform(8));
        match (&fallback, shield.table()) {
            (None, Some(_)) => built += 1,
            (Some(_), None) => fell_back += 1,
            _ => panic!(
                "{}: a table is built exactly when no fallback is returned",
                scenario.id()
            ),
        }
        // Degraded or not, the shield still serves — bit-identically to
        // the exact path.
        let mut rng = SmallRng::seed_from_u64(scenario.seed());
        let state = env.safety().safe_box().sample(&mut rng);
        let proposed = vec![0.5; env.action_dim()];
        assert_eq!(
            demo_shield(env).decide_exact(&state, &proposed),
            shield.decide(&state, &proposed),
            "{}",
            scenario.id()
        );
    }
    // The high-dimensional instances of the PR 8 finding (8-D and 16-D
    // platoons, the 18-D oscillator) must all have degraded...
    for id in ["platoon/n4", "platoon/n8", "oscillator/k16"] {
        let scenario = scenario_by_id(id).unwrap();
        let (shield, fallback) =
            demo_shield(scenario.env()).with_table_or_fallback(&TableConfig::uniform(8));
        assert!(shield.table().is_none(), "{id}: no table at n >= 8");
        assert!(
            matches!(fallback, Some(TableError::TooManyCells { .. })),
            "{id}: an 8^n grid cannot fit the cell cap at n >= 8, got {fallback:?}"
        );
    }
    // Every fallback reaches the obs counter.  The counter is process-wide
    // and shared with concurrently running tests, so only a floor holds.
    assert!(
        vrl::shield::decide_table_build_fallback_count() >= fell_back as u64 + 3,
        "fallbacks must be recorded in vrl_shield_decide_table_build_fallbacks_total"
    );
    // ...and the farm must exercise both regimes.
    assert!(
        built > 0,
        "some low-dimensional instance must build a table"
    );
    assert!(
        fell_back > 0,
        "some high-dimensional instance must fall back"
    );
}

#[test]
fn artifacts_round_trip_bit_exactly_on_generated_envs() {
    let sample = sample_scenarios(17);
    assert!(sample.len() >= 12);
    assert!(sample.iter().any(|s| s.family() == "product"));
    for scenario in &sample {
        let env = scenario.env();
        let oracle = fixtures::demo_oracle(env, &[8], scenario.seed());
        let artifact = ShieldArtifact::new(demo_shield(env), oracle)
            .expect("demo oracle matches the environment")
            .with_label(scenario.id());
        let bytes = artifact.to_bytes();
        let restored = ShieldArtifact::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{}: round trip failed: {e}", scenario.id()));
        // Canonical bytes are a fixed point of the round trip.
        assert_eq!(bytes, restored.to_bytes(), "{}", scenario.id());
        assert_eq!(restored.label(), scenario.id());

        let mut rng = SmallRng::seed_from_u64(scenario.seed() ^ 0xa5a5);
        for state in probe_states(env, &mut rng, 8) {
            let proposed = vec![0.25; env.action_dim()];
            assert_eq!(
                artifact.shield().decide(&state, &proposed),
                restored.shield().decide(&state, &proposed),
                "{}: restored artifact must decide identically",
                scenario.id()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every reachable pendulum grid point is well-formed and its ID
    /// regenerates the identical scenario.
    fn prop_pendulum_parameters_are_well_formed(
        mass in 0.05..4.0f64,
        length in 0.05..4.0f64,
    ) {
        let scenario = family::pendulum_scenario(mass, length).unwrap();
        prop_assert_eq!(scenario.env().state_dim(), 2);
        prop_assert_eq!(scenario.oracle_gains().len(), scenario.env().action_dim());
        let again = scenario_by_id(scenario.id()).unwrap();
        prop_assert_eq!(
            again.env().dynamics().derivatives(),
            scenario.env().dynamics().derivatives()
        );
    }

    /// Platoon sizes and oscillator orders scale dimensions consistently.
    fn prop_sized_families_are_well_formed(
        n in 1usize..12,
        k in 1usize..20,
    ) {
        let platoon = family::platoon_scenario(n).unwrap();
        prop_assert_eq!(platoon.env().state_dim(), 2 * n);
        prop_assert_eq!(platoon.env().action_dim(), n);
        prop_assert_eq!(platoon.oracle_gains().len(), n);
        let oscillator = family::oscillator_scenario(k).unwrap();
        prop_assert_eq!(oscillator.env().state_dim(), 2 + k);
        prop_assert_eq!(oscillator.env().action_dim(), 1);
    }

    /// Products of random atoms at random composition depth are
    /// well-formed: dimensions add, coefficients stay finite, the safe box
    /// stays non-empty, and the flattened ID regenerates the product.
    fn prop_products_are_well_formed(
        mass in 0.1..3.0f64,
        drag in 0.05..1.5f64,
        damping in 0.05..1.5f64,
        n in 1usize..4,
        depth in 2usize..4,
        order in proptest::collection::vec(0usize..4, 3),
    ) {
        let atoms = [
            family::pendulum_scenario(mass, 1.0).unwrap(),
            family::quadcopter_scenario(drag).unwrap(),
            family::duffing_scenario(damping).unwrap(),
            family::platoon_scenario(n).unwrap(),
        ];
        let mut product = atoms[order[0]].clone();
        let mut expected_dim = product.env().state_dim();
        for step in 1..depth {
            let next = &atoms[order[step % order.len()]];
            expected_dim += next.env().state_dim();
            product = compose(&product, next).unwrap();
        }
        prop_assert_eq!(product.env().state_dim(), expected_dim);
        // Well-formedness is re-checked by the public constructor.
        prop_assert!(Scenario::new(
            product.id(),
            "product",
            product.env().clone(),
            product.oracle_gains().to_vec(),
            product.invariant_degree(),
        ).is_ok());
        let safe = product.env().safety().safe_box();
        for d in 0..product.env().state_dim() {
            prop_assert!(safe.low(d) < safe.high(d));
        }
        for p in product.env().dynamics().derivatives() {
            for (_, c) in p.terms() {
                prop_assert!(c.is_finite());
            }
        }
        let again = scenario_by_id(product.id()).unwrap();
        prop_assert_eq!(
            again.env().dynamics().derivatives(),
            product.env().dynamics().derivatives()
        );
    }
}
