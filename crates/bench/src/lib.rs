//! Shared helpers for the benchmark harness that regenerates every table and
//! figure of the paper's evaluation (Sec. 5).
//!
//! The binaries in `src/bin/` print the tables; the Criterion benches in
//! `benches/` time the individual pipeline stages.  Because the original
//! evaluation runs 1000 episodes of 5000 steps per benchmark on a desktop
//! machine, the harness defaults to a scaled-down budget and accepts
//! `--full` to reproduce the paper-scale workload.
//!
//! The table binaries run their per-benchmark jobs through [`run_jobs`], a
//! scoped worker pool with one thread per available core that returns
//! results in input order.  Every job seeds its own RNGs from its inputs,
//! so a table's rows are the same at any thread count; only the time
//! columns move (`taskset -c 0 table1` gives the 1-thread run).
//!
//! Beyond the paper tables, the serving-side benches (`eval_kernels`,
//! `serve_throughput`, `decide_table`) record their headline numbers into
//! `BENCH_eval.json` at the workspace root through
//! [`upsert_bench_sections`], which merges each bench's sections into the
//! file without clobbering the sections other benches own.
//!
//! # Example
//!
//! ```
//! use vrl_bench::{pipeline_config_for, Effort};
//! use vrl_benchmarks::benchmark_by_name;
//!
//! let spec = benchmark_by_name("pendulum").expect("Table 1 benchmark");
//! let config = pipeline_config_for(&spec, Effort::Quick, 10, 500);
//! assert_eq!(config.cegis.verification.invariant_degree, 4);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use vrl::pipeline::{OracleTrainer, PipelineConfig};
use vrl::rl::ArsConfig;
use vrl::shield::CegisConfig;
use vrl::synth::DistillConfig;
use vrl::verify::VerificationConfig;
use vrl_benchmarks::BenchmarkSpec;

/// How much effort the harness spends per benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Scaled-down budgets so the whole table regenerates in minutes.
    Quick,
    /// Paper-scale budgets (1000 episodes of 5000 steps, larger networks).
    Full,
}

/// Command-line options shared by the table binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Effort level.
    pub effort: Effort,
    /// Restrict the run to a single benchmark by name.
    pub only: Option<String>,
    /// Number of evaluation episodes per benchmark.
    pub episodes: usize,
    /// Steps per evaluation episode.
    pub steps: usize,
}

impl HarnessOptions {
    /// Parses options from command-line arguments (`--full`, `--only NAME`,
    /// `--episodes N`, `--steps N`).
    pub fn from_args(args: impl Iterator<Item = String>) -> Self {
        let mut options = HarnessOptions {
            effort: Effort::Quick,
            only: None,
            episodes: 20,
            steps: 1000,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => {
                    options.effort = Effort::Full;
                    options.episodes = 1000;
                    options.steps = 5000;
                }
                "--only" => options.only = args.next(),
                "--episodes" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        options.episodes = v;
                    }
                }
                "--steps" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        options.steps = v;
                    }
                }
                _ => {}
            }
        }
        options
    }
}

/// Builds the pipeline configuration the harness uses for a benchmark at the
/// requested effort level.
pub fn pipeline_config_for(
    spec: &BenchmarkSpec,
    effort: Effort,
    episodes: usize,
    steps: usize,
) -> PipelineConfig {
    let (hidden, ars, distill) = match effort {
        Effort::Quick => (
            vec![32, 32],
            ArsConfig {
                iterations: 40,
                directions: 6,
                top_directions: 3,
                step_size: 0.05,
                noise: 0.05,
                rollouts_per_evaluation: 1,
                horizon: 400,
            },
            DistillConfig {
                iterations: 80,
                trajectories: 2,
                horizon: 250,
                ..DistillConfig::default()
            },
        ),
        Effort::Full => (
            spec.hidden_layers().to_vec(),
            ArsConfig {
                iterations: 300,
                directions: 16,
                top_directions: 8,
                step_size: 0.02,
                noise: 0.03,
                rollouts_per_evaluation: 2,
                horizon: 1000,
            },
            DistillConfig::default(),
        ),
    };
    let cegis = CegisConfig {
        distill,
        verification: VerificationConfig::with_degree(spec.invariant_degree()),
        ..CegisConfig::default()
    };
    PipelineConfig {
        hidden_layers: hidden,
        trainer: OracleTrainer::Ars(ars),
        cegis,
        evaluation_episodes: episodes,
        evaluation_steps: steps,
        seed: 2019,
    }
}

/// Worker threads the table binaries use: one per core this process may
/// run on (1 when that cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `job` on every element of `jobs` over a pool of `threads` scoped
/// workers and returns the results in input order.
///
/// Workers claim the next unclaimed index until none is left, so which
/// worker runs which job varies from run to run.  The results do not: as
/// long as each job's result depends only on its own input (every RNG it
/// uses is seeded from that input, and no wall-clock deadline cuts it
/// short), the returned vector is the same at 1 thread and at N.  A job
/// that panics propagates its panic to the caller once the pool drains.
///
/// # Panics
///
/// Panics if `threads == 0`.
///
/// # Example
///
/// ```
/// let squares = vrl_bench::run_jobs(&[1u64, 2, 3, 4], 2, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn run_jobs<J: Sync, R: Send>(
    jobs: &[J],
    threads: usize,
    job: impl Fn(&J) -> R + Sync,
) -> Vec<R> {
    assert!(threads > 0, "the job runner needs at least one worker");
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(jobs.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(input) = jobs.get(index) else {
                            return done;
                        };
                        done.push((index, job(input)));
                    }
                })
            })
            .collect();
        let mut done: Vec<(usize, R)> = workers
            .into_iter()
            .flat_map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        done.sort_unstable_by_key(|&(index, _)| index);
        done.into_iter().map(|(_, result)| result).collect()
    })
}

/// Merges `sections` into the JSON object stored at `path`, preserving
/// every top-level section the caller does not mention.
///
/// `BENCH_eval.json` is written by more than one bench (`eval_kernels`
/// owns the kernel and branch-and-bound sections, `decide_table` the
/// decision-table section), so no bench may simply overwrite the file.  This
/// helper reads the existing object, replaces or appends the given
/// `(key, value)` pairs — `value` is raw, pre-rendered JSON text — and
/// rewrites the file with existing sections first (in file order) and new
/// sections appended.  A missing or unparseable file starts fresh.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be written.
pub fn upsert_bench_sections(
    path: impl AsRef<Path>,
    sections: &[(&str, String)],
) -> std::io::Result<()> {
    let path = path.as_ref();
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut entries = parse_top_level_sections(&existing).unwrap_or_default();
    for (key, value) in sections {
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value.clone(),
            None => entries.push((key.to_string(), value.clone())),
        }
    }
    let mut out = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        out.push_str(&format!("  \"{key}\": {value}"));
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    std::fs::write(path, out)
}

/// Splits a JSON object's source text into `(key, raw value text)` pairs,
/// without interpreting the values.  Handles nested objects/arrays and
/// strings with escapes; returns `None` when the input is not a single
/// well-formed-enough object (the caller then starts a fresh file).
fn parse_top_level_sections(source: &str) -> Option<Vec<(String, String)>> {
    let bytes = source.as_bytes();
    let mut pos = 0usize;
    let skip_ws = |pos: &mut usize| {
        while *pos < bytes.len() && (bytes[*pos] as char).is_ascii_whitespace() {
            *pos += 1;
        }
    };
    skip_ws(&mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return None;
    }
    pos += 1;
    let mut entries = Vec::new();
    loop {
        skip_ws(&mut pos);
        match bytes.get(pos) {
            Some(b'}') => return Some(entries),
            Some(b'"') => {}
            _ => return None,
        }
        // Key (no escapes in bench section names).
        let key_start = pos + 1;
        let key_len = bytes[key_start..].iter().position(|&b| b == b'"')?;
        let key = source[key_start..key_start + key_len].to_string();
        pos = key_start + key_len + 1;
        skip_ws(&mut pos);
        if bytes.get(pos) != Some(&b':') {
            return None;
        }
        pos += 1;
        skip_ws(&mut pos);
        // Value: scan to the ',' or '}' at nesting depth zero.
        let value_start = pos;
        let mut depth = 0i32;
        let mut in_string = false;
        let mut escaped = false;
        let value_end = loop {
            let &b = bytes.get(pos)?;
            if in_string {
                if escaped {
                    escaped = false;
                } else if b == b'\\' {
                    escaped = true;
                } else if b == b'"' {
                    in_string = false;
                }
            } else {
                match b {
                    b'"' => in_string = true,
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' if depth > 0 => depth -= 1,
                    b',' | b'}' if depth == 0 => break pos,
                    _ => {}
                }
            }
            pos += 1;
        };
        entries.push((key, source[value_start..value_end].trim_end().to_string()));
        if bytes[value_end] == b',' {
            pos = value_end + 1;
        } else {
            // The closing '}' of the whole object.
            return Some(entries);
        }
    }
}

/// Prints the Table 1 header row.
pub fn print_table1_header() {
    println!(
        "{:<22} {:>4} {:>10} {:>8} {:>5} {:>11} {:>10} {:>13} {:>9} {:>9}",
        "Benchmark",
        "Vars",
        "Training",
        "Failures",
        "Size",
        "Synthesis",
        "Overhead",
        "Interventions",
        "NN",
        "Program"
    );
    println!("{}", "-".repeat(112));
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrl_benchmarks::benchmark_by_name;

    #[test]
    fn option_parsing_handles_flags() {
        let opts = HarnessOptions::from_args(
            ["--only", "pendulum", "--episodes", "7", "--steps", "123"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(opts.only.as_deref(), Some("pendulum"));
        assert_eq!(opts.episodes, 7);
        assert_eq!(opts.steps, 123);
        assert_eq!(opts.effort, Effort::Quick);
        let full = HarnessOptions::from_args(["--full"].iter().map(|s| s.to_string()));
        assert_eq!(full.effort, Effort::Full);
        assert_eq!(full.episodes, 1000);
        assert_eq!(full.steps, 5000);
    }

    #[test]
    fn upsert_preserves_sections_other_benches_own() {
        let dir = std::env::temp_dir().join("vrl-bench-upsert-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let _ = std::fs::remove_file(&path);
        // A fresh file gets created.
        upsert_bench_sections(
            &path,
            &[
                ("description", "\"kernel numbers\"".to_string()),
                (
                    "point_eval",
                    "{\n    \"reference_sec\": 1.5e-3,\n    \"note\": \"a, b }] text\"\n  }"
                        .to_string(),
                ),
            ],
        )
        .unwrap();
        // A different bench merges its own section in.
        upsert_bench_sections(
            &path,
            &[(
                "decide_table",
                "{\n    \"decisions_per_sec\": 50000\n  }".to_string(),
            )],
        )
        .unwrap();
        // The first bench regenerates: its sections update, decide_table
        // survives.
        upsert_bench_sections(&path, &[("description", "\"updated\"".to_string())]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"description\": \"updated\""), "{text}");
        assert!(text.contains("\"decide_table\""), "{text}");
        assert!(text.contains("\"a, b }] text\""), "{text}");
        let sections = parse_top_level_sections(&text).unwrap();
        assert_eq!(
            sections.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["description", "point_eval", "decide_table"]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn upsert_round_trips_the_real_bench_file_shape() {
        // The actual BENCH_eval.json shape (nested objects, scientific
        // notation, a long description with escaped quotes) must survive a
        // parse → rewrite cycle byte-for-byte per section.
        let source = "{\n  \"description\": \"x \\\"quoted\\\" — dashes\",\n  \"a\": {\n    \"v\": 1.0e-3\n  },\n  \"b\": {\n    \"n\": 42\n  }\n}\n";
        let sections = parse_top_level_sections(source).unwrap();
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0].1, "\"x \\\"quoted\\\" — dashes\"");
        assert_eq!(sections[2].1, "{\n    \"n\": 42\n  }");
        // Garbage starts fresh instead of erroring.
        assert!(parse_top_level_sections("not json").is_none());
        assert!(parse_top_level_sections("").is_none());
        assert!(parse_top_level_sections("{\"unterminated\": ").is_none());
    }

    #[test]
    fn run_jobs_returns_results_in_input_order_at_any_thread_count() {
        let jobs: Vec<u64> = (0..37).collect();
        // Uneven job costs so workers finish out of order.
        let work = |&n: &u64| {
            std::thread::sleep(std::time::Duration::from_micros((n * 7919) % 300));
            n * n
        };
        let expected: Vec<u64> = jobs.iter().map(|n| n * n).collect();
        for threads in [1, 2, 5, 8] {
            assert_eq!(
                run_jobs(&jobs, threads, work),
                expected,
                "{threads} threads"
            );
        }
        assert!(run_jobs(&[] as &[u64], 3, work).is_empty());
    }

    #[test]
    #[should_panic(expected = "job 3 failed")]
    fn run_jobs_propagates_a_job_panic() {
        run_jobs(&[1, 2, 3, 4], 2, |&n| {
            assert!(n != 3, "job {n} failed");
            n
        });
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn run_jobs_rejects_zero_threads() {
        run_jobs(&[1u64], 0, |&n| n);
    }

    #[test]
    fn run_jobs_runs_every_job_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let indices: Vec<usize> = (0..runs.len()).collect();
        for threads in [1, 3, 64] {
            let echoed = run_jobs(&indices, threads, |&i| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                i
            });
            assert_eq!(echoed, indices, "{threads} threads");
        }
        for (i, count) in runs.iter().enumerate() {
            assert_eq!(count.load(Ordering::SeqCst), 3, "job {i}");
        }
    }

    #[test]
    fn run_jobs_starts_no_more_workers_than_jobs() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        run_jobs(&[1, 2, 3], 16, |_| {
            // Hold each job long enough that idle workers, had any been
            // spawned, would have claimed a job too.
            std::thread::sleep(std::time::Duration::from_millis(5));
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        let workers = seen.into_inner().unwrap();
        assert!((1..=3).contains(&workers.len()), "{workers:?}");
        assert!(!workers.contains(&std::thread::current().id()));
    }

    #[test]
    fn run_jobs_gives_duplicate_jobs_identical_results() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Each job seeds its RNG from its own input, as the table jobs do:
        // repeated inputs get their own, identical, results.
        let jobs = [7u64, 7, 11, 7, 11];
        let draws = run_jobs(&jobs, 2, |&seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..16)
                .map(|_| rng.gen::<f64>().to_bits())
                .collect::<Vec<u64>>()
        });
        assert_eq!(draws.len(), jobs.len());
        assert_eq!(draws[0], draws[1]);
        assert_eq!(draws[0], draws[3]);
        assert_eq!(draws[2], draws[4]);
        assert_ne!(draws[0], draws[2]);
    }

    #[test]
    fn default_threads_matches_the_available_parallelism() {
        let threads = default_threads();
        assert!(threads >= 1);
        if let Ok(available) = std::thread::available_parallelism() {
            assert_eq!(threads, available.get());
        }
    }

    #[test]
    fn option_parsing_ignores_unknown_flags_and_malformed_numbers() {
        let opts = HarnessOptions::from_args(
            [
                "--threads",
                "4",
                "--episodes",
                "many",
                "--steps",
                "-3",
                "--only",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(opts.effort, Effort::Quick);
        assert_eq!(opts.episodes, 20, "a non-number keeps the default");
        assert_eq!(opts.steps, 1000, "a negative count keeps the default");
        assert_eq!(opts.only, None, "a trailing --only selects nothing");
    }

    #[test]
    fn pipeline_configs_are_a_function_of_their_inputs() {
        // The tables' determinism rests on every job deriving its whole
        // configuration, seed included, from the benchmark alone.
        for spec in vrl_benchmarks::all_benchmarks() {
            for effort in [Effort::Quick, Effort::Full] {
                let a = pipeline_config_for(&spec, effort, 10, 500);
                let b = pipeline_config_for(&spec, effort, 10, 500);
                assert_eq!(a, b, "{}", spec.name());
                assert_eq!(a.seed, 2019, "{}", spec.name());
            }
        }
    }

    #[test]
    fn full_effort_uses_each_benchmarks_paper_network_and_degree() {
        for spec in vrl_benchmarks::all_benchmarks() {
            let full = pipeline_config_for(&spec, Effort::Full, 1000, 5000);
            assert_eq!(full.hidden_layers, spec.hidden_layers(), "{}", spec.name());
            let quick = pipeline_config_for(&spec, Effort::Quick, 20, 1000);
            for config in [&full, &quick] {
                assert_eq!(
                    config.cegis.verification.invariant_degree,
                    spec.invariant_degree(),
                    "{}",
                    spec.name()
                );
            }
            assert_eq!(
                (quick.evaluation_episodes, quick.evaluation_steps),
                (20, 1000)
            );
        }
    }

    #[test]
    fn quick_and_full_configs_differ_in_budget() {
        let spec = benchmark_by_name("pendulum").unwrap();
        let quick = pipeline_config_for(&spec, Effort::Quick, 10, 500);
        let full = pipeline_config_for(&spec, Effort::Full, 1000, 5000);
        assert!(
            quick.hidden_layers.iter().sum::<usize>() < full.hidden_layers.iter().sum::<usize>()
        );
        assert_eq!(quick.cegis.verification.invariant_degree, 4);
        assert_eq!(full.evaluation_episodes, 1000);
    }
}
