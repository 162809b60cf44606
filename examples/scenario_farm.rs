//! Scenario-farm transcript: generate the procedural environment families,
//! push one cheap family through the multi-threaded CEGIS scheduler,
//! mass-deploy the checkpointed artifacts into a `Router`, serve a
//! decision from every shard, and scrape the live farm counters.
//!
//! Run with: `cargo run --release --example scenario_farm`

use std::collections::BTreeMap;
use vrl::dynamics::Policy;
use vrl::shield::{CegisConfig, TableConfig};
use vrl_farm::{generate, run_farm, FarmConfig, JobConfig, Scenario};
use vrl_runtime::{Router, ShieldServer};

fn main() {
    vrl_farm::install_metrics();

    // Every scenario regenerates bit-for-bit from its ID alone, so the
    // full catalog is cheap to enumerate.
    let scenarios = generate(&FarmConfig::default());
    let mut families: BTreeMap<&str, usize> = BTreeMap::new();
    for scenario in &scenarios {
        *families.entry(scenario.family()).or_default() += 1;
    }
    println!(
        "farm: {} scenarios across {} families",
        scenarios.len(),
        families.len()
    );
    for (family, count) in &families {
        println!("  {family}: {count}");
    }
    assert!(scenarios.len() >= 200, "acceptance floor: >= 200 scenarios");

    // Synthesize shields for the quadcopter drag sweep — the cheapest
    // family, so the example stays fast in debug CI too.
    let jobs: Vec<Scenario> = scenarios
        .iter()
        .filter(|s| s.family() == "quadcopter")
        .cloned()
        .collect();
    let mut cegis = CegisConfig::smoke_test();
    cegis.distill.iterations = 30;
    cegis.distill.trajectories = 2;
    cegis.distill.horizon = 150;
    let config = JobConfig {
        cegis,
        oracle_hidden: vec![8],
        table: Some(TableConfig::uniform(8)),
        timeout: None,
    };
    let report = run_farm(&jobs, &config, 4);
    println!(
        "scheduler: {} jobs on {} threads in {:.2}s ({:.1} jobs/sec), {} synthesized",
        report.records.len(),
        report.threads,
        report.elapsed.as_secs_f64(),
        report.jobs_per_sec(),
        report.synthesized()
    );

    // Mass-deploy every checkpointed artifact and serve one decision per
    // deployment, bit-identical to deciding against the artifact locally.
    let router = Router::new((0..3).map(|_| ShieldServer::with_workers(1)).collect(), 1);
    let deployed = report.deploy_to(&router).expect("deploy");
    println!("deployed {deployed} artifacts across 3 shards");
    let mut served = 0usize;
    for record in &report.records {
        let Some(artifact) = &record.artifact else {
            continue;
        };
        let state = vec![0.05; artifact.shield().env().state_dim()];
        let proposed = artifact.oracle().action(&state);
        let decision = router.decide(&record.scenario_id, &state).expect("serve");
        assert_eq!(decision, artifact.shield().decide(&state, &proposed));
        served += 1;
    }
    println!("served {served} decisions, all bit-identical to local decide");
    assert_eq!(served, deployed);

    // Live counters, the same series a serving process exposes at
    // GET /metrics.
    let text = vrl_obs::registry().render_prometheus();
    for line in text.lines() {
        if line.starts_with("vrl_farm_") {
            println!("{line}");
        }
    }
    assert!(text.contains("vrl_farm_jobs_total{outcome=\"synthesized\"}"));
    println!(
        "farm complete: {} jobs recorded",
        vrl_farm::jobs_completed()
    );
}
