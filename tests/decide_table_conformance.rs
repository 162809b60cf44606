//! Decision-table conformance: table-dispatched decisions must be
//! bit-identical to the exact compiled path.
//!
//! Three layers of evidence:
//!
//! 1. A sweep over every Table 1 benchmark (state dimensions 2–8, mixed
//!    action dimensions, obstacles): a ragged-resolution table is built per
//!    benchmark and `decide` / `decide_batch` / `decide_exact` are compared
//!    decision-for-decision against a table-free clone of the same shield
//!    on states spanning inside, outside, and straddling the safe box.  A
//!    dense uniform grid over the 16-D and 18-D benchmarks is refused with
//!    a named error instead of being built.
//! 2. Property tests over random shields, ragged resolutions, and edge /
//!    corner states, including the structural guarantee that a boundary
//!    cell is never answered by the table (`coverage` returns `None`).
//! 3. Artifact round-trip and fleet-rehydration checks: the persisted
//!    config rebuilds a table wherever the artifact lands, and a
//!    rehydrated deployment keeps serving through table dispatch.
//!
//! The shields are the fixtures' ellipsoidal demo shields (the same
//! geometry the batch-conformance sweep uses): the sweep proves the *table
//! plumbing* is exact on every benchmark geometry, not that the invariants
//! are inductive.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vrl::dynamics::{BoxRegion, EnvironmentContext, PolyDynamics, SafetySpec};
use vrl::poly::Polynomial;
use vrl::shield::{CellClass, DecisionTable, Shield, ShieldPiece, TableConfig, TableError};
use vrl::synth::PolicyProgram;
use vrl::verify::BarrierCertificate;
use vrl_benchmarks::{all_benchmarks, benchmark_by_name};
use vrl_runtime::{fixtures, Router, ShieldArtifact, ShieldServer};

/// Per-benchmark shield geometry (same as the batch-conformance sweep): an
/// ellipsoid at half the safe-box half-widths and mildly stabilizing
/// linear gains.
fn shield_parameters(env: &EnvironmentContext) -> (Vec<Vec<f64>>, Vec<f64>) {
    let safe = env.safety().safe_box();
    let radii: Vec<f64> = safe
        .lows()
        .iter()
        .zip(safe.highs().iter())
        .map(|(lo, hi)| 0.25 * (hi - lo))
        .collect();
    let gains = vec![vec![-0.5; env.state_dim()]; env.action_dim()];
    (gains, radii)
}

/// A demo shield for `env` with one program row per action dimension
/// (multi-action benchmarks need more than `fixtures::ellipsoid_shield`
/// provides).
fn demo_shield(env: &EnvironmentContext) -> Shield {
    let (gains, radii) = shield_parameters(env);
    let program = PolicyProgram::linear(&gains, &vec![0.0; env.action_dim()]);
    Shield::new(
        env.clone(),
        vec![ShieldPiece::new(
            program,
            fixtures::ellipsoid_certificate(env, &radii),
        )],
    )
}

/// A deliberately ragged resolution whose cell count stays under `cap`:
/// the largest uniform base, with alternating dimensions bumped where the
/// budget allows.
fn ragged_resolution(dim: usize, cap: usize) -> Vec<usize> {
    let mut base = 1usize;
    while (base + 1).checked_pow(dim as u32).is_some_and(|c| c <= cap) {
        base += 1;
    }
    let mut resolution = vec![base; dim];
    for d in (0..dim).step_by(2) {
        resolution[d] += 1;
        if resolution.iter().product::<usize>() > cap {
            resolution[d] -= 1;
        }
    }
    resolution
}

/// States spanning the table's interesting geometry: random draws from the
/// safe box expanded 1.3× about its center (inside, outside, and straddling
/// the grid edge), plus the exact safe-box corners when the dimension makes
/// that affordable.
fn probe_states(env: &EnvironmentContext, rng: &mut SmallRng, count: usize) -> Vec<Vec<f64>> {
    let safe = env.safety().safe_box();
    let expanded = safe.scaled_about_center(1.3);
    let mut states: Vec<Vec<f64>> = (0..count).map(|_| expanded.sample(rng)).collect();
    if env.state_dim() <= 4 {
        states.extend(safe.corners());
    }
    states
}

#[test]
fn table_decisions_are_bit_identical_on_all_table1_benchmarks() {
    let benchmarks = all_benchmarks();
    assert_eq!(benchmarks.len(), 15, "Table 1 lists 15 benchmarks");
    let mut total_certified = 0usize;
    for (index, spec) in benchmarks.into_iter().enumerate() {
        let name = spec.name();
        let env = spec.into_env();
        let exact = demo_shield(&env);
        let config = TableConfig {
            resolution: ragged_resolution(env.state_dim(), 4096),
            ..TableConfig::default()
        };
        let tabled = demo_shield(&env)
            .with_table(&config)
            .unwrap_or_else(|e| panic!("{name}: table build failed: {e}"));
        let stats = *tabled.table().unwrap().stats();
        assert_eq!(
            stats.covered + stats.uncovered + stats.boundary,
            stats.cells,
            "{name}: cell census must add up"
        );
        total_certified += stats.covered + stats.uncovered;

        let mut rng = SmallRng::seed_from_u64(7000 + index as u64);
        let states = probe_states(&env, &mut rng, 200);
        let proposals: Vec<Vec<f64>> = states
            .iter()
            .map(|_| {
                (0..env.action_dim())
                    .map(|_| rng.gen_range(-2.0..2.0))
                    .collect()
            })
            .collect();
        for (state, proposed) in states.iter().zip(proposals.iter()) {
            let reference = exact.decide(state, proposed);
            // The table path, and the table-bypassing reference path on
            // the same tabled shield.
            for candidate in [
                tabled.decide(state, proposed),
                tabled.decide_exact(state, proposed),
            ] {
                assert_eq!(
                    candidate.intervened, reference.intervened,
                    "{name}: {state:?}"
                );
                assert_eq!(
                    candidate.action.len(),
                    reference.action.len(),
                    "{name}: {state:?}"
                );
                for (a, b) in candidate.action.iter().zip(reference.action.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{name}: {state:?}");
                }
            }
        }
        // The batched path partitions lanes through the same table.
        let batch = tabled.decide_batch(&states, &proposals);
        for ((state, proposed), decision) in states.iter().zip(proposals.iter()).zip(batch.iter()) {
            assert_eq!(
                decision,
                &exact.decide(state, proposed),
                "{name}: batch lane {state:?}"
            );
        }
    }
    assert!(
        total_certified > 0,
        "the sweep must certify at least some cells somewhere"
    );
}

#[test]
fn dense_grids_over_the_high_dimensional_benchmarks_are_refused() {
    // 8 cells per axis over 16 and 18 state dimensions is far past the
    // cell cap: the build names the limit instead of allocating.
    for name in ["car-platoon-8", "oscillator"] {
        let env = benchmark_by_name(name)
            .expect("Table 1 benchmark")
            .into_env();
        let error = demo_shield(&env)
            .with_table(&TableConfig::uniform(8))
            .expect_err("a dense 8^d grid must be refused");
        assert!(
            matches!(error, TableError::TooManyCells { .. }),
            "{name}: {error}"
        );
        assert_eq!(error.reason(), "too_many_cells", "{name}");
    }
}

#[test]
fn dense_grids_build_over_the_two_dimensional_benchmarks() {
    // The other side of the cell cap: 8 cells per axis over a 2-D state
    // space is a 64-cell table that certifies cells and decides exactly.
    let mut built = 0;
    for spec in all_benchmarks() {
        let name = spec.name();
        let env = spec.into_env();
        if env.state_dim() != 2 {
            continue;
        }
        let tabled = demo_shield(&env)
            .with_table(&TableConfig::uniform(8))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(tabled.table().unwrap().stats().cells, 64, "{name}");
        let exact = demo_shield(&env);
        let mut rng = SmallRng::seed_from_u64(8100 + built as u64);
        for state in probe_states(&env, &mut rng, 50) {
            let proposed = vec![0.5; env.action_dim()];
            assert_eq!(
                tabled.decide(&state, &proposed),
                exact.decide(&state, &proposed),
                "{name}: {state:?}"
            );
        }
        built += 1;
    }
    assert!(built >= 2, "Table 1 has several 2-D benchmarks");
}

#[test]
fn every_table1_artifact_serves_identically_through_a_replicated_router() {
    // The whole suite deployed at once over a replicated fleet: every
    // deployment, dispatching through its table, answers exactly as its
    // artifact decides locally.
    use vrl::dynamics::Policy;
    let router = Router::new((0..3).map(|_| ShieldServer::with_workers(1)).collect(), 2);
    let mut deployed = Vec::new();
    for (index, spec) in all_benchmarks().into_iter().enumerate() {
        let name = spec.name().to_string();
        let env = spec.into_env();
        let config = TableConfig {
            resolution: ragged_resolution(env.state_dim(), 512),
            ..TableConfig::default()
        };
        let oracle = fixtures::demo_oracle(&env, &[8], index as u64);
        let artifact = ShieldArtifact::new(demo_shield(&env), oracle)
            .expect("the demo oracle is sized for its benchmark")
            .with_table_config(config)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        router
            .deploy(&name, artifact.clone())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        deployed.push((name, env, artifact));
    }
    assert_eq!(router.deployments().len(), 15);
    for (index, (name, env, artifact)) in deployed.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(8200 + index as u64);
        let states = probe_states(env, &mut rng, 20);
        let served = router
            .decide_batch(name, &states)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(served.len(), states.len());
        for (state, decision) in states.iter().zip(&served) {
            let proposed = artifact.oracle().action(state);
            assert_eq!(
                decision,
                &artifact.shield().decide(state, &proposed),
                "{name}: {state:?}"
            );
        }
    }
}

/// A random 2-D double-integrator shield: ẋ = v, v̇ = a, ellipsoidal
/// certificate, optional obstacle punched into the safe box.
fn random_shield(
    safe_hw: (f64, f64),
    radii: (f64, f64),
    obstacle: Option<(f64, f64, f64, f64)>,
) -> Shield {
    let dynamics = PolyDynamics::new(
        2,
        1,
        vec![Polynomial::variable(1, 3), Polynomial::variable(2, 3)],
    )
    .unwrap();
    let mut safety = SafetySpec::inside(BoxRegion::new(
        vec![-safe_hw.0, -safe_hw.1],
        vec![safe_hw.0, safe_hw.1],
    ));
    if let Some((cx, cy, wx, wy)) = obstacle {
        safety = safety.with_obstacle(BoxRegion::new(
            vec![cx - wx, cy - wy],
            vec![cx + wx, cy + wy],
        ));
    }
    let env = EnvironmentContext::new(
        "prop",
        dynamics,
        0.01,
        BoxRegion::symmetric(&[0.1, 0.1]),
        safety,
    );
    let program = PolicyProgram::linear(&[vec![-0.5, -0.5]], &[0.0]);
    let mut barrier = Polynomial::constant(-1.0, 2);
    for (i, r) in [radii.0, radii.1].into_iter().enumerate() {
        let x = Polynomial::variable(i, 2);
        barrier = &barrier + &(&x * &x).scaled(1.0 / (r * r));
    }
    Shield::new(
        env,
        vec![ShieldPiece::new(program, BarrierCertificate::new(barrier))],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shields × ragged resolutions × random and edge states: table
    /// dispatch is bit-identical to the exact path, and the cell census is
    /// structurally sound (a boundary cell is never answered).
    fn prop_table_dispatch_matches_exact_decide(
        hw_x in 0.6..1.4f64,
        hw_v in 0.6..1.4f64,
        r_x in 0.2..1.0f64,
        r_v in 0.2..1.0f64,
        res_x in 1usize..14,
        res_v in 1usize..14,
        obstacle_flag in 0u32..2,
        xs in proptest::collection::vec(-2.0..2.0f64, 24),
        vs in proptest::collection::vec(-2.0..2.0f64, 24),
        proposals in proptest::collection::vec(-3.0..3.0f64, 24),
    ) {
        let obstacle = (obstacle_flag == 1).then_some((0.3, -0.2, 0.15, 0.25));
        let exact = random_shield((hw_x, hw_v), (r_x, r_v), obstacle);
        let tabled = random_shield((hw_x, hw_v), (r_x, r_v), obstacle)
            .with_table(&TableConfig {
                resolution: vec![res_x, res_v],
                ..TableConfig::default()
            })
            .expect("a finite safe box always grids");
        let table = tabled.table().unwrap();

        // Random states plus the exact cell edges/corners of the grid:
        // a shared face may resolve to either adjacent cell, but the
        // answer must stay exact either way.
        let mut states: Vec<Vec<f64>> =
            xs.iter().zip(vs.iter()).map(|(&x, &v)| vec![x, v]).collect();
        for i in 0..=res_x {
            let x = (-hw_x + 2.0 * hw_x * i as f64 / res_x as f64).clamp(-hw_x, hw_x);
            for j in 0..=res_v {
                let v = (-hw_v + 2.0 * hw_v * j as f64 / res_v as f64).clamp(-hw_v, hw_v);
                states.push(vec![x, v]);
            }
        }
        for (i, state) in states.iter().enumerate() {
            // Structural guarantee: the class and the answer agree, and a
            // boundary cell is never answered by the table.
            match table.cell_class(state) {
                Some(CellClass::Covered) => prop_assert_eq!(table.coverage(state), Some(true)),
                Some(CellClass::Uncovered) => prop_assert_eq!(table.coverage(state), Some(false)),
                Some(CellClass::Boundary) => prop_assert_eq!(table.coverage(state), None),
                None => prop_assert_eq!(table.coverage(state), Some(false)),
            }
            if let Some(covered) = table.coverage(state) {
                prop_assert_eq!(covered, exact.covers(state), "coverage vs covers at {:?}", state);
            }
            let proposed = vec![proposals[i % proposals.len()]];
            prop_assert_eq!(
                tabled.decide(state, &proposed),
                exact.decide(state, &proposed),
                "decide diverged at {:?}",
                state
            );
        }
    }
}

#[test]
fn artifact_round_trip_rebuilds_an_identical_table() {
    let env = benchmark_by_name("pendulum")
        .expect("pendulum is a Table 1 benchmark")
        .into_env();
    let artifact = fixtures::demo_artifact(
        &env,
        &fixtures::PENDULUM_GAINS,
        &fixtures::PENDULUM_RADII,
        &[16],
        7,
    )
    .unwrap()
    .with_table_config(TableConfig {
        resolution: vec![48, 24],
        ..TableConfig::default()
    })
    .expect("the pendulum safe box grids cleanly");
    let restored = ShieldArtifact::from_bytes(&artifact.to_bytes()).expect("round trip");
    let original: &DecisionTable = artifact.shield().table().unwrap();
    let rebuilt: &DecisionTable = restored.shield().table().unwrap();
    // The table is never serialized; the deterministic rebuild must land on
    // the identical table, cell for cell.
    assert_eq!(original, rebuilt);
    assert_eq!(original.stats(), rebuilt.stats());
    assert_eq!(restored.table_config(), artifact.table_config());
}

#[test]
fn artifacts_round_trip_bit_exactly_on_every_table1_benchmark() {
    use vrl::dynamics::Policy;
    for (index, spec) in all_benchmarks().into_iter().enumerate() {
        let name = spec.name().to_string();
        let env = spec.into_env();
        let oracle = fixtures::demo_oracle(&env, &[8], 100 + index as u64);
        let artifact = ShieldArtifact::new(demo_shield(&env), oracle)
            .expect("the demo oracle is sized for its benchmark")
            .with_label(&name)
            .with_table_config(TableConfig {
                resolution: ragged_resolution(env.state_dim(), 256),
                ..TableConfig::default()
            })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let bytes = artifact.to_bytes();
        let restored = ShieldArtifact::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Canonical bytes are a fixed point of the round trip.
        assert_eq!(restored.to_bytes(), bytes, "{name}");
        assert_eq!(restored.label(), name);
        assert_eq!(
            restored.shield().table(),
            artifact.shield().table(),
            "{name}"
        );
        let mut rng = SmallRng::seed_from_u64(8300 + index as u64);
        for state in probe_states(&env, &mut rng, 10) {
            let proposed = artifact.oracle().action(&state);
            assert_eq!(restored.oracle().action(&state), proposed, "{name}");
            assert_eq!(
                restored.shield().decide(&state, &proposed),
                artifact.shield().decide(&state, &proposed),
                "{name}: {state:?}"
            );
        }
    }
}

#[test]
fn fleet_rehydration_keeps_table_dispatch_serving() {
    let env = benchmark_by_name("pendulum").unwrap().into_env();
    let tabled = fixtures::demo_artifact(
        &env,
        &fixtures::PENDULUM_GAINS,
        &fixtures::PENDULUM_RADII,
        &[16],
        11,
    )
    .unwrap()
    .with_table_config(TableConfig::uniform(32))
    .unwrap();
    let plain = tabled.clone().without_table_config();

    // A table-free reference server and a table-dispatching fleet must
    // serve identical decisions.
    let reference = ShieldServer::with_workers(1);
    reference.deploy("pendulum", plain).unwrap();
    let router = Router::new((0..2).map(|_| ShieldServer::with_workers(1)).collect(), 1);
    router.deploy("pendulum", tabled).unwrap();

    let mut rng = SmallRng::seed_from_u64(23);
    let safe = env.safety().safe_box().clone();
    let states: Vec<Vec<f64>> = (0..50).map(|_| safe.sample(&mut rng)).collect();
    let traffic_before = vrl::shield::decide_table_traffic();
    for state in &states {
        assert_eq!(
            router.decide("pendulum", state).unwrap(),
            reference.decide("pendulum", state).unwrap()
        );
    }
    assert!(
        vrl::shield::decide_table_traffic() > traffic_before,
        "fleet decisions must route through the deployment's table"
    );

    // Grow the fleet until the deployment's placement moves: the new shard
    // rehydrates from artifact bytes, rebuilding the table, and keeps both
    // the decisions and the table dispatch.
    let mut moved = false;
    for _ in 0..16 {
        if router
            .add_shard(ShieldServer::with_workers(1))
            .iter()
            .any(|m| m == "pendulum")
        {
            moved = true;
            break;
        }
    }
    assert!(moved, "pendulum should move within 16 added shards");
    let traffic_before = vrl::shield::decide_table_traffic();
    for state in &states {
        assert_eq!(
            router.decide("pendulum", state).unwrap(),
            reference.decide("pendulum", state).unwrap()
        );
    }
    assert!(
        vrl::shield::decide_table_traffic() > traffic_before,
        "the rehydrated deployment must keep serving through its rebuilt table"
    );
}
