//! Regenerates Table 1: deterministic program synthesis, verification and
//! shielding results for every benchmark.
//!
//! The benchmarks run in parallel, one per available core, and print in
//! Table 1 order once all have finished; every column except the times and
//! the time-derived overhead is the same at any core count.
//!
//! Usage: `table1 [--full] [--only NAME] [--episodes N] [--steps N]`

use std::time::Instant;
use vrl::pipeline::run_pipeline;
use vrl_bench::{
    default_threads, pipeline_config_for, print_table1_header, run_jobs, HarnessOptions,
};
use vrl_benchmarks::all_benchmarks;

fn main() {
    let options = HarnessOptions::from_args(std::env::args().skip(1));
    println!(
        "Table 1 — synthesis, verification and shielding ({:?} effort, {} episodes x {} steps)\n",
        options.effort, options.episodes, options.steps
    );
    print_table1_header();
    let specs: Vec<_> = all_benchmarks()
        .into_iter()
        .filter(|spec| {
            options
                .only
                .as_ref()
                .is_none_or(|only| spec.name().eq_ignore_ascii_case(only))
        })
        .collect();
    let results = run_jobs(&specs, default_threads(), |spec| {
        let config = pipeline_config_for(spec, options.effort, options.episodes, options.steps);
        let start = Instant::now();
        let result = run_pipeline(spec.env(), &config);
        (result, start.elapsed())
    });
    for (spec, (result, elapsed)) in specs.iter().zip(results) {
        let env = spec.env();
        match result {
            Ok(outcome) => {
                let e = &outcome.evaluation;
                println!(
                    "{:<22} {:>4} {:>9.1}s {:>8} {:>5} {:>10.1}s {:>9.2}% {:>13} {:>9} {:>9}",
                    spec.name(),
                    env.state_dim(),
                    outcome.training_time.as_secs_f64(),
                    e.neural_failures,
                    e.shield_pieces,
                    outcome.cegis_report.synthesis_time.as_secs_f64(),
                    e.overhead_percent,
                    e.interventions,
                    e.shielded_steps_to_steady
                        .map_or_else(|| "-".into(), |v| format!("{v:.0}")),
                    e.program_steps_to_steady
                        .map_or_else(|| "-".into(), |v| format!("{v:.0}")),
                );
                assert_eq!(
                    e.shielded_failures, 0,
                    "a verified shield must prevent every failure"
                );
            }
            Err(err) => {
                println!(
                    "{:<22} {:>4}  [shield synthesis failed after {:.1}s: {err}]",
                    spec.name(),
                    env.state_dim(),
                    elapsed.as_secs_f64()
                );
            }
        }
    }
}
