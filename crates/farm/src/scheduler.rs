//! The multi-threaded CEGIS job scheduler.
//!
//! [`run_farm`] drains a scenario list through a fixed worker pool.  Each
//! job is fully deterministic: its RNG is seeded from the scenario's own
//! ID-derived seed, its budget is the deterministic CEGIS budget
//! (pieces / shrink steps / coverage samples / distillation iterations),
//! and its outcome depends only on the scenario — never on which worker
//! ran it or what ran beside it.  The report lists jobs in input order,
//! so a 1-thread run and an N-thread run of the same scenario set produce
//! byte-identical artifacts in the same order (pinned by
//! `tests/farm_scheduler.rs`).
//!
//! The only escape hatch that trades determinism for liveness is
//! [`JobConfig::timeout`]: a *wall-clock* deadline checked between jobs
//! (before start) and after a job finishes.  It defaults to `None`; when
//! set, a run under load may classify a job [`JobOutcome::TimedOut`] that
//! an idle run synthesizes.

use crate::scenario::{fnv1a64, Scenario};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vrl::dynamics::LinearPolicy;
use vrl::shield::{synthesize_shield, CegisConfig, CegisError, TableConfig};
use vrl_runtime::fixtures::demo_oracle;
use vrl_runtime::{ServeError, ShieldArtifact, ShieldBackend};

/// Per-job settings shared by every job of a farm run.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// CEGIS budgets — the deterministic limit on how hard a job tries.
    pub cegis: CegisConfig,
    /// Hidden-layer sizes of the deterministic per-scenario neural oracle
    /// packaged into each artifact.
    pub oracle_hidden: Vec<usize>,
    /// Decision-table configuration attached to successful artifacts.  The
    /// build degrades gracefully on scenarios whose dimensionality defeats
    /// a dense grid: the artifact ships without a table config and the
    /// shield serves on the exact path.
    pub table: Option<TableConfig>,
    /// Optional wall-clock deadline per job.  `None` (the default) keeps
    /// the run fully deterministic; see the module docs.
    pub timeout: Option<Duration>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            cegis: CegisConfig::smoke_test(),
            oracle_hidden: vec![16],
            table: Some(TableConfig::default()),
            timeout: None,
        }
    }
}

/// How a synthesis job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// CEGIS covered every initial state; the artifact is checkpointed.
    Synthesized {
        /// Pieces in the synthesized shield.
        pieces: usize,
        /// FNV-1a checksum of the artifact's canonical bytes.
        artifact_checksum: u64,
    },
    /// The budget ran out after at least one verified piece.
    BudgetExhausted {
        /// Pieces synthesized before giving up.
        pieces_synthesized: usize,
    },
    /// The budget ran out with no verified piece at all.
    Infeasible,
    /// The wall-clock deadline expired ([`JobConfig::timeout`] only).
    TimedOut,
}

impl JobOutcome {
    /// The metrics label for this outcome
    /// (`vrl_farm_jobs_total{outcome=...}`).
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Synthesized { .. } => "synthesized",
            JobOutcome::BudgetExhausted { .. } => "budget_exhausted",
            JobOutcome::Infeasible => "infeasible",
            JobOutcome::TimedOut => "timed_out",
        }
    }
}

/// One job's result: the outcome plus the checkpointed artifact when
/// synthesis succeeded.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The scenario's canonical ID.
    pub scenario_id: String,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// The checkpointed artifact (present iff the outcome is
    /// [`JobOutcome::Synthesized`]).
    pub artifact: Option<ShieldArtifact>,
    /// Wall-clock duration of this job (informational; excluded from
    /// determinism comparisons).
    pub duration: Duration,
}

/// The farm run's report: per-job records in input-scenario order.
#[derive(Debug)]
pub struct FarmReport {
    /// One record per input scenario, in input order regardless of which
    /// worker finished first.
    pub records: Vec<JobRecord>,
    /// Worker threads the run used.
    pub threads: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl FarmReport {
    /// Number of jobs that synthesized an artifact.
    pub fn synthesized(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Synthesized { .. }))
            .count()
    }

    /// Jobs completed per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.records.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// Mass-deploys every checkpointed artifact to `backend` (a
    /// [`ShieldServer`](vrl_runtime::ShieldServer), a
    /// [`Router`](vrl_runtime::Router) over any shards, ...) under its
    /// scenario ID and returns how many were deployed.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ServeError`]; earlier deployments stay live.
    pub fn deploy_to(&self, backend: &impl ShieldBackend) -> Result<usize, ServeError> {
        let mut deployed = 0;
        for record in &self.records {
            if let Some(artifact) = &record.artifact {
                backend.put_artifact(&record.scenario_id, artifact.clone())?;
                crate::obs::deployments().inc();
                deployed += 1;
            }
        }
        Ok(deployed)
    }
}

/// Runs one scenario's synthesis job to completion.  Deterministic in the
/// scenario alone: the RNG is seeded from the scenario seed and the
/// deadline (if any) is only consulted *after* the job finishes.
fn run_job(scenario: &Scenario, config: &JobConfig, deadline: Option<Instant>) -> JobRecord {
    let _span = vrl_obs::span("farm.job");
    let started = Instant::now();
    let mut rng = SmallRng::seed_from_u64(scenario.seed());
    let oracle = LinearPolicy::new(scenario.oracle_gains().to_vec());
    let cegis = config
        .cegis
        .clone()
        .with_invariant_degree(scenario.invariant_degree());
    let result = synthesize_shield(scenario.env(), &oracle, &cegis, &mut rng);
    let (outcome, artifact) = match result {
        Ok((shield, report)) => {
            // Package the shield with a deterministic per-scenario neural
            // oracle; attach the decision table only when it actually
            // builds, keeping the exact path otherwise (the
            // vrl_shield_decide_table_build_fallbacks_total{reason} counter
            // records each fallback).
            let shield = match &config.table {
                None => shield,
                Some(tc) => shield.with_table_or_fallback(tc).0,
            };
            let oracle_nn = demo_oracle(scenario.env(), &config.oracle_hidden, scenario.seed());
            let artifact = ShieldArtifact::new(shield, oracle_nn)
                .expect("farm oracle is sized for the scenario environment")
                .with_label(scenario.id());
            let checksum = fnv1a64(&artifact.to_bytes());
            (
                JobOutcome::Synthesized {
                    pieces: report.pieces,
                    artifact_checksum: checksum,
                },
                Some(artifact),
            )
        }
        Err(CegisError::CouldNotCoverInitialStates {
            pieces_synthesized, ..
        }) => {
            if pieces_synthesized > 0 {
                (JobOutcome::BudgetExhausted { pieces_synthesized }, None)
            } else {
                (JobOutcome::Infeasible, None)
            }
        }
    };
    let (outcome, artifact) = match deadline {
        Some(d) if Instant::now() > d => (JobOutcome::TimedOut, None),
        _ => (outcome, artifact),
    };
    crate::obs::jobs_total(outcome.label()).inc();
    let duration = started.elapsed();
    crate::obs::job_seconds().observe(duration);
    JobRecord {
        scenario_id: scenario.id().to_string(),
        outcome,
        artifact,
        duration,
    }
}

/// Runs every scenario through a pool of `threads` workers and reports
/// per-job outcomes in input order.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn run_farm(scenarios: &[Scenario], config: &JobConfig, threads: usize) -> FarmReport {
    assert!(threads > 0, "the farm needs at least one worker");
    let _span = vrl_obs::span("farm.run");
    let started = Instant::now();
    let deadline = config.timeout.map(|t| started + t);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobRecord>>> = scenarios.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(scenarios.len().max(1)) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(scenario) = scenarios.get(index) else {
                    break;
                };
                let record = match deadline {
                    Some(d) if Instant::now() > d => {
                        crate::obs::jobs_total("timed_out").inc();
                        JobRecord {
                            scenario_id: scenario.id().to_string(),
                            outcome: JobOutcome::TimedOut,
                            artifact: None,
                            duration: Duration::ZERO,
                        }
                    }
                    _ => run_job(scenario, config, deadline),
                };
                *slots[index].lock().expect("farm slot never poisoned") = Some(record);
            });
        }
    });
    let records = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("farm slot never poisoned")
                .expect("every scenario index was claimed by exactly one worker")
        })
        .collect();
    FarmReport {
        records,
        threads,
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family;

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

    #[test]
    fn a_quadcopter_job_synthesizes_and_checkpoints() {
        let scenario = family::quadcopter_scenario(0.3).unwrap();
        let report = run_farm(std::slice::from_ref(&scenario), &fast_config(), 1);
        assert_eq!(report.records.len(), 1);
        let record = &report.records[0];
        match &record.outcome {
            JobOutcome::Synthesized {
                pieces,
                artifact_checksum,
            } => {
                assert!(*pieces >= 1);
                let artifact = record.artifact.as_ref().expect("checkpointed");
                assert_eq!(fnv1a64(&artifact.to_bytes()), *artifact_checksum);
                assert_eq!(artifact.label(), scenario.id());
            }
            other => panic!("expected synthesis, got {other:?}"),
        }
    }

    #[test]
    fn an_expired_deadline_marks_jobs_timed_out() {
        let scenario = family::quadcopter_scenario(0.3).unwrap();
        let scenarios = vec![scenario.clone(), scenario];
        let config = JobConfig {
            timeout: Some(Duration::ZERO),
            ..fast_config()
        };
        let report = run_farm(&scenarios, &config, 2);
        // The deadline is already expired before the first job starts, so
        // every job is classified timed-out without running CEGIS.
        for record in &report.records {
            assert_eq!(record.outcome, JobOutcome::TimedOut);
            assert!(record.artifact.is_none());
        }
    }

    #[test]
    fn outcome_labels_cover_every_variant() {
        assert_eq!(
            JobOutcome::Synthesized {
                pieces: 1,
                artifact_checksum: 0
            }
            .label(),
            "synthesized"
        );
        assert_eq!(
            JobOutcome::BudgetExhausted {
                pieces_synthesized: 2
            }
            .label(),
            "budget_exhausted"
        );
        assert_eq!(JobOutcome::Infeasible.label(), "infeasible");
        assert_eq!(JobOutcome::TimedOut.label(), "timed_out");
    }
}
