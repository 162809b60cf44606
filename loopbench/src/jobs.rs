//! The pinned inputs: Table 1 pipeline jobs and Duffing verification
//! queries.
//!
//! Both lists are pinned rather than drawn from `--seed`, because today
//! whether synthesis succeeds depends on the pipeline seed and whether
//! verification succeeds depends on the invariant degree (see the `FOUND:`
//! lines in `CHANGES.md`).  Every entry below succeeds on the parent code.

use std::time::{Duration, Instant};
use vrl::benchmarks::{benchmark_by_name, BenchmarkSpec};
use vrl::dynamics::EnvironmentContext;
use vrl::pipeline::{run_pipeline, OracleTrainer, PipelineConfig};
use vrl::poly::Polynomial;
use vrl::rl::{ArsConfig, NeuralPolicy};
use vrl::shield::{CegisConfig, CegisReport, Shield, ShieldPiece};
use vrl::synth::{DistillConfig, PolicyProgram};
use vrl::verify::{verify_program, BarrierCertificate, VerificationConfig};
use vrl_runtime::ShieldArtifact;

/// One Table 1 pipeline job: a benchmark at Quick effort and a pipeline
/// seed.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub bench: &'static str,
    pub seed: u64,
}

/// The `synth` workload's jobs.  `datacenter-cooling` verifies on the
/// linear back-end at every seed here (it fails at seed 5); `satellite` goes
/// through the barrier back-end and synthesizes only at seeds 2019
/// (2 pieces) and 2 (1 piece) among 1–6 and 2019.
pub const SYNTH_JOBS: [Job; 6] = [
    job("datacenter-cooling", 2019),
    job("datacenter-cooling", 1),
    job("datacenter-cooling", 2),
    job("datacenter-cooling", 3),
    job("satellite", 2019),
    job("satellite", 2),
];

/// A shield that intervenes on most decisions (quick-effort `satellite`
/// intervenes on about 83 % of steps at seed 2).
pub const SERVED_INTERVENING: Job = job("satellite", 2);
/// A shield that almost never intervenes (`datacenter-cooling`, 0 %).
pub const SERVED_QUIET: Job = job("datacenter-cooling", 2019);
/// The second verified `datacenter-cooling` shield the `fleet` workload
/// hot-swaps with [`SERVED_QUIET`].
pub const SERVED_QUIET_ALT: Job = job("datacenter-cooling", 1);

const fn job(bench: &'static str, seed: u64) -> Job {
    Job { bench, seed }
}

/// Evaluation budget of a job (Table 1's default harness budget).
const EVAL_EPISODES: usize = 20;
const EVAL_STEPS: usize = 1000;

/// The Quick-effort pipeline configuration of the paper-reproduction
/// harness, pinned here so that a change to the harness's budgets does not
/// change this benchmark's inputs.
pub fn quick_config(invariant_degree: u32, seed: u64) -> PipelineConfig {
    PipelineConfig {
        hidden_layers: vec![32, 32],
        trainer: OracleTrainer::Ars(ArsConfig {
            iterations: 40,
            directions: 6,
            top_directions: 3,
            step_size: 0.05,
            noise: 0.05,
            rollouts_per_evaluation: 1,
            horizon: 400,
        }),
        cegis: CegisConfig {
            distill: DistillConfig {
                iterations: 80,
                trajectories: 2,
                horizon: 250,
                ..DistillConfig::default()
            },
            verification: VerificationConfig::with_degree(invariant_degree),
            ..CegisConfig::default()
        },
        evaluation_episodes: EVAL_EPISODES,
        evaluation_steps: EVAL_STEPS,
        seed,
    }
}

/// What a pipeline job produced, with the wall time of each stage.
pub struct Produced {
    pub artifact: ShieldArtifact,
    pub bytes: Vec<u8>,
    pub report: CegisReport,
    pub shielded_failures: usize,
    pub train: Duration,
    pub cegis: Duration,
    pub eval: Duration,
    pub encode: Duration,
}

impl Job {
    /// Builds the job's Table 1 benchmark.
    pub fn spec(&self) -> Result<BenchmarkSpec, String> {
        benchmark_by_name(self.bench).ok_or_else(|| format!("no benchmark {}", self.bench))
    }
}

/// Runs one job through `vrl::pipeline::run_pipeline` (`train_oracle` →
/// `synthesize_shield` → `evaluate_shielded_system`), then encodes the
/// artifact with `ShieldArtifact::to_bytes`.  The evaluation time is the
/// pipeline's wall time minus the training and CEGIS times it reports.
pub fn run_job(job: Job, spec: &BenchmarkSpec) -> Result<Produced, String> {
    let config = quick_config(spec.invariant_degree(), job.seed);
    let t = Instant::now();
    let outcome = run_pipeline(spec.env(), &config)
        .map_err(|e| format!("{} seed {}: {e}", job.bench, job.seed))?;
    let pipeline = t.elapsed();
    let train = outcome.training_time;
    let cegis = outcome.cegis_report.synthesis_time;
    let t = Instant::now();
    let artifact =
        ShieldArtifact::new(outcome.shield, outcome.oracle).map_err(|e| e.to_string())?;
    let bytes = artifact.to_bytes();
    let encode = t.elapsed();
    Ok(Produced {
        artifact,
        bytes,
        report: outcome.cegis_report,
        shielded_failures: outcome.evaluation.shielded_failures,
        train,
        cegis,
        eval: pipeline.saturating_sub(train + cegis),
        encode,
    })
}

/// One verification query: the linear program `u = kx·x + ky·y + c` on the
/// Duffing oscillator's whole initial box, at an invariant degree.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub gains: [f64; 2],
    pub offset: f64,
    pub degree: u32,
}

const fn q(kx: f64, ky: f64, offset: f64, degree: u32) -> Query {
    Query {
        gains: [kx, ky],
        offset,
        degree,
    }
}

/// The `verify` workload's queries: the Fig. 6 program, the two programs of
/// Example 4.3 (`P1`, `P2`) and programs near them, at degrees 4 and 6.
/// Only queries that verify today are listed: the Fig. 6 program itself is
/// refuted at degree 6 although it verifies at degree 4.
pub const VERIFY_QUERIES: [Query; 8] = [
    q(0.0696, -2.2853, -0.1370, 4),
    q(0.39, -1.41, 0.0, 4),
    q(0.88, -2.34, 0.0, 4),
    q(0.5, -2.0, 0.0, 4),
    q(0.39, -1.41, 0.0, 6),
    q(0.88, -2.34, 0.0, 6),
    q(0.0, -2.0, 0.0, 6),
    q(0.1, -3.0, 0.0, 6),
];

impl Query {
    pub fn program(&self) -> PolicyProgram {
        PolicyProgram::linear(&[self.gains.to_vec()], &[self.offset])
    }

    /// Runs `verify_program` on the initial box; the certificate on success.
    pub fn verify(&self, env: &EnvironmentContext) -> Result<BarrierCertificate, String> {
        let program = vec![Polynomial::linear(&self.gains, self.offset)];
        verify_program(
            env,
            &program,
            env.init(),
            &VerificationConfig::with_degree(self.degree),
        )
        .map_err(|e| format!("{self:?}: {e}"))
    }
}

/// The one-piece shield a verified query yields, packaged with `oracle` so
/// it can be deployed like any pipeline artifact.
pub fn query_artifact(
    env: &EnvironmentContext,
    query: &Query,
    certificate: BarrierCertificate,
    oracle: &NeuralPolicy,
) -> Result<ShieldArtifact, String> {
    let shield = Shield::new(
        env.clone(),
        vec![ShieldPiece::new(query.program(), certificate)],
    );
    ShieldArtifact::new(shield, oracle.clone()).map_err(|e| e.to_string())
}
