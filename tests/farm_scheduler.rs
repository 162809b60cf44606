//! Scheduler determinism and mass-deploy conformance.
//!
//! The farm's promise is *zero nondeterminism*: the same farm seed and
//! job config produce the identical job set, identical outcomes, and
//! byte-identical artifacts (checksummed) whether the pool runs one
//! worker or many.  These tests pin that promise, then push a report's
//! artifacts through a `Router` and serve from them.

use std::collections::HashSet;
use vrl::shield::{CegisConfig, TableConfig};
use vrl_farm::{
    fnv1a64, generate, run_farm, scenario_by_id, FarmConfig, JobConfig, JobOutcome, Scenario,
};
use vrl_runtime::{Router, ShieldServer};

/// A seeded subset of scenarios cheap enough to synthesize in tests:
/// quadcopter drags, Duffing dampings, and a two-car platoon.  Debug
/// builds compile the per-lane parity asserts into every kernel, making
/// CEGIS jobs an order of magnitude slower, so the debug tier proves the
/// same determinism promise on the cheapest family only.
fn seeded_subset() -> Vec<Scenario> {
    let scenarios = generate(&FarmConfig::smoke());
    let mut subset: Vec<Scenario> = scenarios
        .iter()
        .filter(|s| {
            s.family() == "quadcopter" || (!cfg!(debug_assertions) && s.family() == "duffing")
        })
        .cloned()
        .collect();
    if !cfg!(debug_assertions) {
        subset.push(scenario_by_id("platoon/n2").expect("canonical platoon"));
    }
    let floor = if cfg!(debug_assertions) { 3 } else { 6 };
    assert!(subset.len() >= floor, "subset too small: {}", subset.len());
    subset
}

fn fast_config() -> JobConfig {
    let mut cegis = CegisConfig::smoke_test();
    cegis.distill.iterations = 30;
    cegis.distill.trajectories = 2;
    cegis.distill.horizon = 150;
    JobConfig {
        cegis,
        oracle_hidden: vec![8],
        table: Some(TableConfig::uniform(8)),
        timeout: None,
    }
}

/// Byte images of a report's artifacts (None for jobs without one), used
/// for byte-identity comparison across runs.
fn artifact_bytes(report: &vrl_farm::FarmReport) -> Vec<Option<Vec<u8>>> {
    report
        .records
        .iter()
        .map(|r| r.artifact.as_ref().map(|a| a.to_bytes()))
        .collect()
}

#[test]
fn one_thread_and_many_threads_produce_byte_identical_artifacts() {
    let subset = seeded_subset();
    let config = fast_config();
    let single = run_farm(&subset, &config, 1);
    let pooled = run_farm(&subset, &config, 4);
    let single_again = run_farm(&subset, &config, 1);

    assert!(
        single.synthesized() >= 1,
        "the seeded subset must synthesize at least one shield"
    );
    assert_eq!(single.records.len(), subset.len());
    assert_eq!(pooled.records.len(), subset.len());
    assert_eq!(pooled.threads, 4);

    let single_bytes = artifact_bytes(&single);
    for other in [&pooled, &single_again] {
        let other_bytes = artifact_bytes(other);
        for (index, scenario) in subset.iter().enumerate() {
            // Same job set, same order, same outcome.
            assert_eq!(single.records[index].scenario_id, scenario.id());
            assert_eq!(other.records[index].scenario_id, scenario.id());
            assert_eq!(
                single.records[index].outcome,
                other.records[index].outcome,
                "{}: outcome diverged across thread counts",
                scenario.id()
            );
            // Byte-identical artifacts, and the recorded checksum is the
            // checksum of those bytes.
            assert_eq!(
                single_bytes[index],
                other_bytes[index],
                "{}: artifact bytes diverged across thread counts",
                scenario.id()
            );
            if let JobOutcome::Synthesized {
                artifact_checksum, ..
            } = &single.records[index].outcome
            {
                let bytes = single_bytes[index]
                    .as_ref()
                    .expect("synthesized => artifact");
                assert_eq!(fnv1a64(bytes), *artifact_checksum);
            } else {
                assert!(single_bytes[index].is_none());
            }
        }
    }
}

#[test]
fn farm_reports_mass_deploy_and_serve_through_a_shard_router() {
    let subset = seeded_subset();
    let report = run_farm(&subset, &fast_config(), 3);
    assert_eq!(report.records.len(), subset.len(), "one record per job");
    // Every job reaches vrl_farm_jobs_total.  The counter is process-wide
    // and shared with concurrently running tests, so only a floor holds.
    assert!(
        vrl_farm::jobs_completed() >= subset.len() as u64,
        "every job must be recorded in vrl_farm_jobs_total"
    );
    assert!(report.jobs_per_sec() > 0.0);

    let router = Router::new((0..3).map(|_| ShieldServer::with_workers(1)).collect(), 1);
    let deployed = report.deploy_to(&router).expect("deploy");
    assert_eq!(deployed, report.synthesized());
    assert!(deployed >= 1);

    // Every checkpointed artifact serves from its shard, and the served
    // decision is bit-identical to deciding against the artifact locally.
    for record in &report.records {
        let Some(artifact) = &record.artifact else {
            continue;
        };
        let scenario = scenario_by_id(&record.scenario_id).expect("IDs regenerate");
        let state = vec![0.05; scenario.env().state_dim()];
        use vrl::dynamics::Policy;
        let proposed = artifact.oracle().action(&state);
        let served = router.decide(&record.scenario_id, &state).expect("serve");
        assert_eq!(served, artifact.shield().decide(&state, &proposed));
    }
}

#[test]
fn duplicate_scenarios_each_get_their_own_record() {
    let scenario = scenario_by_id("quadcopter/d0.300").unwrap();
    let scenarios = vec![scenario.clone(), scenario.clone(), scenario];
    let report = run_farm(&scenarios, &fast_config(), 2);
    assert_eq!(report.records.len(), 3);
    let checksums: HashSet<String> = report
        .records
        .iter()
        .map(|r| format!("{:?}", r.outcome))
        .collect();
    // Identical scenarios produce identical outcomes (their jobs are
    // deterministic in the scenario seed alone).
    assert_eq!(checksums.len(), 1);
}

#[test]
fn the_scheduler_never_panics_on_high_dimensional_scenarios() {
    // An 8-D platoon with a tiny budget: CEGIS cannot cover the initial
    // region, the decision-table build falls back, and the job records an
    // honest non-synthesized outcome instead of panicking.
    let scenario = scenario_by_id("platoon/n4").unwrap();
    let mut config = fast_config();
    config.cegis.max_pieces = 1;
    config.cegis.max_shrink_steps = 1;
    config.cegis.coverage_samples = 16;
    config.cegis.distill.iterations = 2;
    config.cegis.distill.trajectories = 1;
    config.cegis.distill.horizon = 40;
    let report = run_farm(std::slice::from_ref(&scenario), &config, 1);
    assert_eq!(report.records.len(), 1);
    match &report.records[0].outcome {
        JobOutcome::Synthesized { .. } => {
            // If the tiny budget somehow covers 8-D, the artifact must
            // still have degraded to the exact path (no 8-D table fits
            // the cell cap).
            let artifact = report.records[0].artifact.as_ref().unwrap();
            assert!(artifact.shield().table().is_none());
        }
        JobOutcome::BudgetExhausted { .. } | JobOutcome::Infeasible => {}
        JobOutcome::TimedOut => panic!("no timeout was configured"),
    }
}
