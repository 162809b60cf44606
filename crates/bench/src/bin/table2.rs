//! Regenerates Table 2: the effect of the invariant degree (2 / 4 / 8) on
//! verification time, shield interventions and runtime overhead, for the
//! Pendulum, Self-Driving and 8-Car platoon benchmarks.
//!
//! Each benchmark's oracle is trained once and reused for every degree;
//! the trainings, then the nine (benchmark, degree) syntheses, run in
//! parallel, one per available core.
//!
//! Usage: `table2 [--full] [--episodes N] [--steps N]`

use std::time::Instant;
use vrl::pipeline::{run_pipeline_with_oracle, train_oracle};
use vrl_bench::{default_threads, pipeline_config_for, run_jobs, HarnessOptions};
use vrl_benchmarks::benchmark_by_name;

fn main() {
    let options = HarnessOptions::from_args(std::env::args().skip(1));
    let specs: Vec<_> = ["pendulum", "self-driving", "car-platoon-8"]
        .into_iter()
        .filter_map(benchmark_by_name)
        .collect();
    let degrees = [2u32, 4, 8];
    println!(
        "Table 2 — tuning invariant degrees ({:?} effort)\n",
        options.effort
    );
    println!(
        "{:<16} {:>7} {:>14} {:>14} {:>10}",
        "Benchmark", "Degree", "Verification", "Interventions", "Overhead"
    );
    println!("{}", "-".repeat(66));
    let threads = default_threads();
    let trained = run_jobs(&specs, threads, |spec| {
        let base = pipeline_config_for(spec, options.effort, options.episodes, options.steps);
        let (oracle, training_time) = train_oracle(spec.env(), &base);
        (base, oracle, training_time)
    });
    let jobs: Vec<(usize, u32)> = (0..specs.len())
        .flat_map(|index| degrees.map(|degree| (index, degree)))
        .collect();
    let results = run_jobs(&jobs, threads, |&(index, degree)| {
        let (base, oracle, training_time) = &trained[index];
        let config = base.clone().with_invariant_degree(degree);
        let start = Instant::now();
        let result =
            run_pipeline_with_oracle(specs[index].env(), oracle.clone(), *training_time, &config);
        (result, start.elapsed())
    });
    for (&(index, degree), (result, elapsed)) in jobs.iter().zip(results) {
        let name = specs[index].name();
        match result {
            Ok(outcome) => {
                println!(
                    "{:<16} {:>7} {:>13.1}s {:>14} {:>9.2}%",
                    name,
                    degree,
                    outcome.cegis_report.synthesis_time.as_secs_f64(),
                    outcome.evaluation.interventions,
                    outcome.evaluation.overhead_percent
                );
            }
            Err(err) => {
                println!(
                    "{:<16} {:>7} {:>13.1}s  TO ({err})",
                    name,
                    degree,
                    elapsed.as_secs_f64()
                );
            }
        }
    }
}
