//! The paper tables' determinism contract: every per-benchmark job run
//! through `vrl_bench::run_jobs` depends only on its own inputs, so the
//! deployable artifact it produces (`ShieldArtifact::new(shield,
//! oracle).to_bytes()`), or the error it fails with, is byte-identical at 1
//! and at 2 worker threads.
//!
//! Two variants share one job:
//!
//! * `cheap_budget_jobs_are_identical_at_one_and_two_threads` runs a few
//!   low-dimensional benchmarks on a budget small enough for debug builds.
//! * `quick_effort_table1_jobs_are_identical_at_one_and_two_threads` runs
//!   all 15 Table 1 benchmarks at the harness's Quick effort.  It takes
//!   minutes even in release, so it is ignored by default:
//!   `cargo test --release -p vrl-bench --test table_determinism -- --ignored`.
//!
//! Two more cheap jobs pin the edges: a benchmark queued several times, and
//! the 16-D platoon on a budget far too small to cover it.

use vrl::pipeline::{run_pipeline, OracleTrainer, PipelineConfig, PipelineError};
use vrl::shield::CegisConfig;
use vrl_bench::{pipeline_config_for, run_jobs, Effort};
use vrl_benchmarks::{all_benchmarks, benchmark_by_name, BenchmarkSpec};
use vrl_runtime::ShieldArtifact;

/// One table job: the full pipeline, packaged as the artifact a deploy
/// would ship.
fn artifact_bytes(spec: &BenchmarkSpec, config: &PipelineConfig) -> Result<Vec<u8>, PipelineError> {
    run_pipeline(spec.env(), config).map(|outcome| {
        ShieldArtifact::new(outcome.shield, outcome.oracle)
            .expect("the oracle is sized for its benchmark")
            .to_bytes()
    })
}

/// Runs `configure`d jobs for `specs` at 1 and at 2 threads and asserts
/// every job's bytes or error agree.  Returns how many jobs synthesized.
fn assert_deterministic(
    specs: &[BenchmarkSpec],
    configure: impl Fn(&BenchmarkSpec) -> PipelineConfig + Sync,
) -> usize {
    let job = |spec: &BenchmarkSpec| artifact_bytes(spec, &configure(spec));
    let one = run_jobs(specs, 1, job);
    let two = run_jobs(specs, 2, job);
    for ((spec, a), b) in specs.iter().zip(&one).zip(&two) {
        assert_eq!(a, b, "{}: 1-thread and 2-thread runs differ", spec.name());
    }
    one.iter().filter(|result| result.is_ok()).count()
}

/// A budget small enough for debug builds: a tiny network, a few ARS
/// iterations, and single-piece CEGIS with little verification effort.
fn cheap_config(spec: &BenchmarkSpec) -> PipelineConfig {
    let mut config = pipeline_config_for(spec, Effort::Quick, 1, 50);
    config.hidden_layers = vec![8];
    if let OracleTrainer::Ars(ars) = &mut config.trainer {
        ars.iterations = 3;
        ars.horizon = 100;
    }
    let mut cegis = CegisConfig {
        verification: config.cegis.verification.clone(),
        max_pieces: 1,
        max_shrink_steps: 1,
        coverage_samples: 20,
        ..CegisConfig::smoke_test()
    };
    cegis.verification.max_candidate_rounds = 2;
    cegis.verification.branch_bound.max_boxes = 500;
    cegis.distill.iterations = 10;
    cegis.distill.horizon = 60;
    config.cegis = cegis;
    config
}

fn specs_named(names: &[&str]) -> Vec<BenchmarkSpec> {
    names
        .iter()
        .map(|name| benchmark_by_name(name).expect("Table 1 benchmark"))
        .collect()
}

#[test]
fn cheap_budget_jobs_are_identical_at_one_and_two_threads() {
    // Debug builds run CEGIS with the kernel parity asserts on, so the
    // subset keeps to benchmarks whose verification is cheap there; it
    // still mixes a synthesized shield with failed syntheses.
    let specs = specs_named(&["satellite", "dcmotor", "datacenter-cooling", "tape"]);
    let synthesized = assert_deterministic(&specs, cheap_config);
    assert!(
        synthesized >= 1,
        "the subset must compare artifact bytes too"
    );
}

#[test]
fn duplicate_jobs_each_get_their_own_identical_result() {
    // The same benchmark queued three times yields three results, not one
    // shared one, and they agree: no job reads state another job left.
    let specs = specs_named(&["satellite", "satellite", "satellite"]);
    let results = run_jobs(&specs, 2, |spec| artifact_bytes(spec, &cheap_config(spec)));
    assert_eq!(results.len(), 3);
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
}

#[test]
#[ignore = "minutes of CEGIS even in release; CI runs it with --ignored"]
fn quick_effort_table1_jobs_are_identical_at_one_and_two_threads() {
    let specs = all_benchmarks();
    assert_eq!(specs.len(), 15, "Table 1 lists 15 benchmarks");
    let synthesized = assert_deterministic(&specs, |spec| {
        pipeline_config_for(spec, Effort::Quick, 2, 200)
    });
    eprintln!("{synthesized} of 15 Quick-effort jobs synthesized");
}

#[test]
fn a_high_dimensional_job_returns_the_same_result_at_any_thread_count() {
    // The 16-D platoon on a budget far too small to cover it: the job must
    // come back with an honest result, the same one on every worker count,
    // rather than panic inside the pool.
    let specs = specs_named(&["car-platoon-8"]);
    assert_deterministic(&specs, cheap_config);
}
