//! Regenerates Table 3: handling environment changes.  A controller trained
//! in the original environment is redeployed in a modified one (longer pole,
//! heavier/longer pendulum, added obstacle); only the shield is
//! re-synthesized — the network is *not* retrained.
//!
//! The variants run in parallel, one per available core, and print in
//! order once all have finished.
//!
//! Usage: `table3 [--full] [--episodes N] [--steps N]`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vrl::pipeline::{resynthesize_shield_for, train_oracle};
use vrl::shield::evaluate_shielded_system;
use vrl_bench::{default_threads, pipeline_config_for, run_jobs, HarnessOptions};
use vrl_benchmarks::{benchmark_by_name, environment_change_benchmarks};

fn original_of(variant: &str) -> &'static str {
    if variant.starts_with("cartpole") {
        "cartpole"
    } else if variant.starts_with("pendulum") {
        "pendulum"
    } else {
        "self-driving"
    }
}

fn main() {
    let options = HarnessOptions::from_args(std::env::args().skip(1));
    println!(
        "Table 3 — handling environment changes ({:?} effort)\n",
        options.effort
    );
    println!(
        "{:<24} {:>30} {:>8} {:>5} {:>11} {:>10} {:>14}",
        "Benchmark",
        "Environment change",
        "Failures",
        "Size",
        "Synthesis",
        "Overhead",
        "Interventions"
    );
    println!("{}", "-".repeat(108));
    let variants = environment_change_benchmarks();
    let results = run_jobs(&variants, default_threads(), |variant| {
        let original =
            benchmark_by_name(original_of(variant.name())).expect("original benchmark exists");
        let config =
            pipeline_config_for(&original, options.effort, options.episodes, options.steps);
        // Train in the *original* environment, deploy in the changed one.
        let (oracle, _training_time) = train_oracle(original.env(), &config);
        let mut rng = SmallRng::seed_from_u64(7);
        resynthesize_shield_for(variant.env(), &oracle, &config).map(|(shield, report)| {
            let eval = evaluate_shielded_system(
                variant.env(),
                &oracle,
                &shield,
                options.episodes,
                options.steps,
                &mut rng,
            );
            (shield.num_pieces(), report, eval)
        })
    });
    for (variant, result) in variants.iter().zip(results) {
        match result {
            Ok((pieces, report, eval)) => {
                println!(
                    "{:<24} {:>30} {:>8} {:>5} {:>10.1}s {:>9.2}% {:>14}",
                    variant.name(),
                    variant
                        .description()
                        .split(':')
                        .next_back()
                        .unwrap_or("")
                        .trim(),
                    eval.neural_failures,
                    pieces,
                    report.synthesis_time.as_secs_f64(),
                    eval.overhead_percent,
                    eval.interventions
                );
                assert_eq!(eval.shielded_failures, 0);
            }
            Err(err) => {
                println!(
                    "{:<24}  [shield re-synthesis failed: {err}]",
                    variant.name()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::original_of;
    use vrl_benchmarks::{benchmark_by_name, environment_change_benchmarks};

    #[test]
    fn every_variant_is_trained_on_a_table1_original() {
        for variant in environment_change_benchmarks() {
            let original = benchmark_by_name(original_of(variant.name()))
                .unwrap_or_else(|| panic!("{}: no original", variant.name()));
            // Only the environment changes: the trained network must fit it.
            let (changed, trained) = (variant.env(), original.env());
            assert_eq!(
                changed.state_dim(),
                trained.state_dim(),
                "{}",
                variant.name()
            );
            assert_eq!(
                changed.action_dim(),
                trained.action_dim(),
                "{}",
                variant.name()
            );
        }
    }
}
