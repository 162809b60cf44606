//! The four workloads.  Each runs the same story — produce verified
//! shields, deploy them, serve them — with a different stage dominating:
//!
//! | workload | produce | deploy | serve |
//! |---|---|---|---|
//! | `synth` | pinned Table 1 pipeline jobs (measured) | `PUT` each artifact | short single-state burst per artifact |
//! | `verify` | pinned Duffing `verify_program` queries (measured) | `PUT` each one-piece shield | short burst per shield |
//! | `control` | two served shields, in set-up | `PUT`s, in set-up | closed-loop single-state decides (measured) |
//! | `fleet` | three served shields, in set-up | hot redeploys every few ticks (measured) | batched decides (measured) |
//!
//! so every end-to-end metric is measured on every workload, while each
//! workload's time goes to the layers it was chosen for.

use crate::check::{self, Piece, Planted};
use crate::jobs::{self, Job, Produced};
use crate::layers::Layers;
use crate::pace;
use crate::serve::{Harness, Plant};
use crate::stats::{mean, median, peak_rss_mb, ratio};
use crate::{Args, Outcome};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::ops::Range;
use std::time::{Duration, Instant};
use vrl::benchmarks::duffing::duffing_env;
use vrl::benchmarks::BenchmarkSpec;
use vrl::dynamics::{EnvironmentContext, Policy};
use vrl::rl::NeuralPolicy;
use vrl_runtime::ShieldArtifact;

/// Set-up repetitions; `setup_s` is their total time over their number.
/// Light set-ups (`synth`, `verify`) are repeated `SETUPS_LIGHT` times at
/// the start and again before every job or query, so that their figure
/// spans the run like the serving figures do: a set-up of a fraction of a
/// millisecond timed only at the start sees one of the machine's speed
/// phases, which last seconds.
const SETUPS_LIGHT: usize = 20;
const SETUPS_HEAVY: usize = 3;
/// Each artifact the `synth` and `verify` workloads produce is deployed to
/// `TAIL_DEPLOYS` deployments; the first `TAIL_PLANTS` get one plant each,
/// stepped for `TAIL_STEPS` decides.
const TAIL_DEPLOYS: usize = 64;
const TAIL_PLANTS: usize = 4;
const TAIL_STEPS: usize = 200;
/// `control`: plants, deployments per served shield, episode length, and
/// rounds (one decide per plant) between hot redeploys.
const CONTROL_PLANTS: usize = 16;
const CONTROL_REPLICAS: usize = 8;
const CONTROL_EPISODE: usize = 200;
const CONTROL_REDEPLOY_EVERY: usize = 8;
/// `fleet`: plants per deployment (the batch size), ticks between hot
/// redeploys, episode length in ticks.
const FLEET_BATCH: usize = 256;
const FLEET_REDEPLOY_EVERY: usize = 4;
const FLEET_EPISODE: usize = 100;
/// `PUT`s per deploy-latency window.
const DEPLOY_WINDOW: usize = 64;

/// The end-to-end tallies every workload fills.
#[derive(Default)]
struct Tally {
    setup_s: Vec<f64>,
    /// Time spent producing verified shields, and what it produced.
    produce: Duration,
    shields: u64,
    proofs: u64,
    attempted: u64,
    failed: u64,
    faults: Vec<String>,
    /// `PUT` latencies, in the order sent, of set-ups whose harness was
    /// dropped.
    deploy_ns: Vec<u64>,
    /// The pace kernel passes taken during the heavy set-ups and during
    /// serving, when those are separate sections of the run; `None` paces
    /// by every pass of the run.
    setup_passes: Option<Range<usize>>,
    serve_passes: Option<Range<usize>>,
}

impl Tally {
    /// Runs the end-of-run checks and assembles the metrics.
    fn finish(
        mut self,
        h: &mut Harness,
        layers: Option<Layers>,
        artifacts: &[Vec<u8>],
        seed: u64,
    ) -> Outcome {
        self.deploy_ns.extend_from_slice(&h.deploy_ns);
        let (shields, proofs) = (self.shields as f64, self.proofs as f64);
        let produce = self.produce.as_secs_f64();
        let windows = |f: fn(&crate::serve::Window) -> f64| mean(h.windows.iter().map(f));
        let deploy: Vec<f64> = self.deploy_ns.iter().map(|&v| v as f64).collect();
        // Like decide latencies, `PUT` latencies are taken per window (of
        // `DEPLOY_WINDOW` consecutive `PUT`s) and averaged over windows; a
        // short last window is dropped unless it is the only one.
        let deploy_p50 = mean(
            deploy
                .chunks(DEPLOY_WINDOW)
                .enumerate()
                .filter(|(i, w)| *i == 0 || w.len() >= DEPLOY_WINDOW / 2)
                .map(|(_, w)| median(w)),
        );
        // Wall-clock figures, then the same stated at the reference pace:
        // rates times the pace, times over it.
        let wall = [
            ("setup_s", mean(self.setup_s.iter().copied()), "s"),
            ("shields_per_min", ratio(shields * 60.0, produce), "1/min"),
            ("proofs_per_min", ratio(proofs * 60.0, produce), "1/min"),
            (
                "decides_per_s",
                ratio(h.decided as f64, h.serve_total.as_secs_f64()),
                "1/s",
            ),
            ("request_p50_us", windows(|w| w.p50_ns) / 1e3, "us"),
            ("request_p90_us", windows(|w| w.p90_ns) / 1e3, "us"),
            ("deploy_p50_ms", deploy_p50 / 1e6, "ms"),
        ];
        // Set-up and production are paced by the passes taken around them,
        // serving by those taken while serving.
        let all = 0..pace::passes();
        let produce_pace = pace::factor(self.setup_passes.unwrap_or(all.clone()));
        let serve_pace = pace::factor(self.serve_passes.unwrap_or(all.clone()));
        let line: Vec<String> = wall
            .iter()
            .map(|(n, v, u)| format!("{n}={v:.6}{u}"))
            .collect();
        println!(
            "wall clock (pace {produce_pace:.4} producing, {serve_pace:.4} serving; {} kernel passes): {}",
            all.end,
            line.join(" ")
        );
        let mut end_to_end: Vec<_> = wall
            .into_iter()
            .map(|(name, value, unit)| {
                let pace = match name {
                    "setup_s" | "shields_per_min" | "proofs_per_min" => produce_pace,
                    _ => serve_pace,
                };
                match unit {
                    "1/min" | "1/s" => (name, value * pace, unit),
                    _ => (name, value / pace, unit),
                }
            })
            .collect();
        end_to_end.push(("peak_rss_mb", peak_rss_mb(), "MB"));
        h.check_telemetry();
        self.faults.append(&mut h.faults);
        self.faults.extend(plant_serving_faults(h, seed));
        let metrics = match layers {
            Some(layers) => {
                let line: Vec<String> = end_to_end
                    .iter()
                    .map(|(n, v, u)| format!("{n}={v:.6}{u}"))
                    .collect();
                println!("end-to-end (traced): {}", line.join(" "));
                layers.finish(h, artifacts)
            }
            None => end_to_end,
        };
        Outcome {
            faults: self.faults,
            attempted: self.attempted + h.attempted,
            failed: self.failed + h.failed,
            metrics,
        }
    }

    /// Keeps what a dropped set-up's harness measured.
    fn absorb(&mut self, h: &Harness) {
        self.deploy_ns.extend_from_slice(&h.deploy_ns);
        self.attempted += h.attempted;
        self.failed += h.failed;
        self.faults.extend(h.faults.iter().cloned());
    }

    /// Runs a pipeline job, counting what it produced.
    fn produce_job(
        &mut self,
        job: Job,
        spec: &BenchmarkSpec,
        layers: &mut Option<Layers>,
    ) -> Result<Produced, String> {
        self.attempted += 1;
        let t = Instant::now();
        let produced = jobs::run_job(job, spec).inspect_err(|_| self.failed += 1)?;
        self.produce += t.elapsed();
        self.shields += 1;
        self.proofs += produced.report.pieces as u64;
        if produced.shielded_failures != 0 {
            self.faults.push(format!(
                "{job:?}: {} shielded evaluation episodes failed",
                produced.shielded_failures
            ));
        }
        if let Some(layers) = layers {
            layers.add_job(&produced);
        }
        Ok(produced)
    }
}

/// A rotation of `list` chosen by `seed`: every run attempts whole rounds
/// of the same operations, in a seeded order.
fn rotated<T: Copy>(list: &[T], seed: u64) -> Vec<T> {
    let k = (seed % list.len() as u64) as usize;
    list[k..].iter().chain(&list[..k]).copied().collect()
}

/// One light set-up: starts a harness and runs `make`, timed together.
fn light_setup<T>(
    tally: &mut Tally,
    trace: bool,
    make: &impl Fn() -> Result<T, String>,
) -> Result<(Harness, T), String> {
    let t = Instant::now();
    let h = Harness::start(trace)?;
    let made = make()?;
    tally.setup_s.push(t.elapsed().as_secs_f64());
    Ok((h, made))
}

/// `SETUPS_LIGHT` light set-ups, each torn down, untimed, before the next
/// starts so that its exiting threads do not overlap the timing.  Returns
/// the wall time they took, to be kept out of the measured clock.
fn light_setups<T>(
    tally: &mut Tally,
    trace: bool,
    make: &impl Fn() -> Result<T, String>,
) -> Result<Duration, String> {
    let t = Instant::now();
    for _ in 0..SETUPS_LIGHT {
        let (h, _) = light_setup(tally, trace, make)?;
        tally.absorb(&h);
    }
    Ok(t.elapsed())
}

/// One closed-loop single-state decide for `plant`; the plant simulation
/// and its safety check count as the benchmark's own work.
fn step_single(h: &mut Harness, plant: &mut Plant, env: &EnvironmentContext) {
    let states = [plant.state.clone()];
    if let Some(actions) = h.decide(plant.dep, &states, false) {
        let t = Instant::now();
        if let Err(e) = plant.advance(env, &actions[0]) {
            h.faults.push(e);
        }
        h.check_time += t.elapsed();
    }
}

/// Deploys `bytes` to `TAIL_DEPLOYS` deployments and steps one plant on
/// each of the first `TAIL_PLANTS` for `TAIL_STEPS` single-state decides in
/// one serving window.  A failed `PUT` is counted and its deployment
/// skipped.  Returns the deploy time.
fn serve_tail(h: &mut Harness, env: &EnvironmentContext, bytes: &[u8], seed: u64) -> Duration {
    let puts = h.deploy_ns.len();
    let deps: Vec<usize> = (0..TAIL_DEPLOYS)
        .filter_map(|i| h.put(&format!("{}-{i}", env.name()), bytes).ok())
        .collect();
    let deploy = Duration::from_nanos(h.deploy_ns[puts..].iter().sum());
    let mut plants: Vec<Plant> = deps
        .iter()
        .take(TAIL_PLANTS)
        .enumerate()
        .map(|(i, &dep)| {
            Plant::new(
                dep,
                env,
                seed.wrapping_mul(31).wrapping_add(i as u64),
                TAIL_STEPS + 1,
                0,
                i == 0,
            )
        })
        .collect();
    h.serve_begin();
    for _ in 0..TAIL_STEPS {
        for plant in &mut plants {
            step_single(h, plant, env);
        }
    }
    h.serve_end();
    h.check_time += pace::tick();
    let c = Instant::now();
    if let Some(plant) = plants.first() {
        if let Err(e) = check::trajectory(env, plant.history.as_deref().unwrap_or_default()) {
            h.faults.push(e);
        }
    }
    h.check_time += c.elapsed();
    deploy
}

/// Every check on one pipeline job's output: its certificates, the
/// shielded oracle's rollouts from seeded S0 states, and the artifact
/// round trip.  With `planted`, also checks that each certificate and
/// trajectory checker rejects a planted fault.
fn check_produced(p: &Produced, seed: u64, planted: bool) -> Vec<String> {
    let mut faults = Vec::new();
    let shield = p.artifact.shield();
    let oracle = p.artifact.oracle();
    let env = shield.env();
    let pieces: Vec<Piece> = shield
        .pieces()
        .iter()
        .map(|piece| Piece {
            program: piece.program(),
            invariant: piece.invariant(),
        })
        .collect();
    if let Err(e) = check::certificates(env, env.init(), &pieces, seed) {
        faults.push(format!("{}: {e}", env.name()));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut last = Vec::new();
    for _ in 0..4 {
        let start = env.sample_initial(&mut rng);
        last = check::rollout(env, &start, |s| shield.decide(s, &oracle.action(s)).action);
        if let Err(e) = check::trajectory(env, &last) {
            faults.push(e);
        }
    }
    match ShieldArtifact::from_bytes(&p.bytes) {
        Ok(decoded) => {
            let safe = env.safety().safe_box();
            for i in 0..64 {
                let s = if i % 2 == 0 {
                    env.sample_initial(&mut rng)
                } else {
                    safe.sample(&mut rng)
                };
                let (a, b) = (oracle.action(&s), decoded.oracle().action(&s));
                let (da, db) = (shield.decide(&s, &a), decoded.shield().decide(&s, &b));
                if !check::bits_equal(&a, &b)
                    || da.intervened != db.intervened
                    || !check::bits_equal(&da.action, &db.action)
                {
                    faults.push(format!(
                        "{}: decoded artifact decides differently at {s:?}",
                        env.name()
                    ));
                    break;
                }
            }
        }
        Err(e) => faults.push(format!("{}: artifact does not decode: {e}", env.name())),
    }
    if planted {
        let plant = Planted {
            certificate: Some((env, env.init(), pieces[0])),
            decision: None,
            trajectory: Some((env, &last)),
            telemetry: None,
        };
        faults.extend(check::planted_faults(&plant, seed));
    }
    faults
}

/// Checks that the decision and telemetry checkers reject planted faults.
fn plant_serving_faults(h: &Harness, seed: u64) -> Vec<String> {
    let decision = h.passed.as_ref().map(|(dep, s, a, i)| {
        (
            &h.deployments[*dep].artifact,
            s.as_slice(),
            a.as_slice(),
            *i,
        )
    });
    let telemetry = h.telemetry.first().map(|(sent, got)| (*sent, got));
    let mut missed = check::planted_faults(
        &Planted {
            certificate: None,
            decision,
            trajectory: None,
            telemetry,
        },
        seed,
    );
    if decision.is_none() || telemetry.is_none() {
        missed.push("no served decision or telemetry to plant faults into".into());
    }
    missed
}

/// A measured loop: runs whole rounds until `seconds` of measured time
/// (wall time minus the benchmark's own work) have passed.
struct Clock {
    start: Instant,
    excluded_at_start: Duration,
}

impl Clock {
    fn start(h: &Harness) -> Clock {
        Clock {
            start: Instant::now(),
            excluded_at_start: h.check_time,
        }
    }

    fn measured(&self, h: &Harness) -> Duration {
        self.start
            .elapsed()
            .saturating_sub(h.check_time - self.excluded_at_start)
    }
}

pub fn synth(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let make = || {
        rotated(&jobs::SYNTH_JOBS, args.seed)
            .into_iter()
            .map(|job| Ok((job, job.spec()?)))
            .collect::<Result<Vec<_>, String>>()
    };
    light_setups(&mut tally, args.trace, &make)?;
    let (mut h, order) = light_setup(&mut tally, args.trace, &make)?;
    let mut layers = args.trace.then(Layers::begin);
    let (mut encode, mut deploy) = (Duration::ZERO, Duration::ZERO);
    let mut artifacts = Vec::new();
    let clock = Clock::start(&h);
    let mut round = 0u64;
    while round == 0 || clock.measured(&h).as_secs_f64() < args.seconds {
        for (k, (job, spec)) in order.iter().enumerate() {
            h.check_time += pace::tick() + light_setups(&mut tally, args.trace, &make)?;
            let Ok(produced) = tally.produce_job(*job, spec, &mut layers) else {
                continue;
            };
            encode += produced.encode;
            let c = Instant::now();
            let seed = args
                .seed
                .wrapping_mul(1_000)
                .wrapping_add(round * 100 + k as u64);
            tally
                .faults
                .extend(check_produced(&produced, seed, round == 0 && k == 0));
            h.check_time += c.elapsed();
            let env = produced.artifact.shield().env().clone();
            deploy += serve_tail(&mut h, &env, &produced.bytes, seed);
            artifacts.push(produced.bytes);
        }
        round += 1;
    }
    if let Some(layers) = &mut layers {
        layers.wall = clock.measured(&h);
        layers.absorb_spans();
        let span = |name| Duration::from_secs_f64(layers.span_s(name));
        let stages = [
            ("rl train", layers.train_time()),
            ("synth distill", span("synth.distill")),
            ("cegis verify", span("cegis.verify")),
            ("cegis coverage", span("cegis.coverage")),
            ("shield eval", layers.eval_time()),
            ("artifact encode", encode),
            ("deploy", deploy),
            ("serve tail", h.serve_total),
        ];
        layers.stages.extend(stages);
    }
    Ok(tally.finish(&mut h, layers, &artifacts, args.seed))
}

pub fn verify(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let make = || {
        // The deployed one-piece shields guard an untrained network: a
        // verified shield keeps any oracle safe.
        let oracle = NeuralPolicy::new(
            2,
            1,
            &[32, 32],
            25.0,
            &mut SmallRng::seed_from_u64(args.seed),
        );
        Ok((
            duffing_env(),
            oracle,
            rotated(&jobs::VERIFY_QUERIES, args.seed),
        ))
    };
    light_setups(&mut tally, args.trace, &make)?;
    let (mut h, (env, oracle, order)) = light_setup(&mut tally, args.trace, &make)?;
    let mut layers = args.trace.then(Layers::begin);
    let (mut assemble, mut deploy) = (Duration::ZERO, Duration::ZERO);
    let mut artifacts = Vec::new();
    let clock = Clock::start(&h);
    let mut round = 0u64;
    while round == 0 || clock.measured(&h).as_secs_f64() < args.seconds {
        for (k, query) in order.iter().enumerate() {
            h.check_time += pace::tick() + light_setups(&mut tally, args.trace, &make)?;
            tally.attempted += 1;
            let t = Instant::now();
            let certificate = match query.verify(&env) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("loopbench: {e}");
                    tally.failed += 1;
                    continue;
                }
            };
            let took = t.elapsed();
            tally.produce += took;
            tally.shields += 1;
            tally.proofs += 1;
            if let Some(layers) = &mut layers {
                layers.queries_s.push(took.as_secs_f64());
            }
            let c = Instant::now();
            let seed = args
                .seed
                .wrapping_mul(1_000)
                .wrapping_add(round * 100 + k as u64);
            let program = query.program();
            let piece = [Piece {
                program: &program,
                invariant: &certificate,
            }];
            if let Err(e) = check::certificates(&env, env.init(), &piece, seed) {
                tally.faults.push(format!("{query:?}: {e}"));
            }
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut last = Vec::new();
            for _ in 0..4 {
                let start = env.sample_initial(&mut rng);
                last = check::rollout(&env, &start, |s| program.action(s));
                if let Err(e) = check::trajectory(&env, &last) {
                    tally.faults.push(format!("{query:?}: {e}"));
                }
            }
            if round == 0 && k == 0 {
                let planted = Planted {
                    certificate: Some((&env, env.init(), piece[0])),
                    decision: None,
                    trajectory: Some((&env, &last)),
                    telemetry: None,
                };
                tally.faults.extend(check::planted_faults(&planted, seed));
            }
            h.check_time += c.elapsed();
            let t = Instant::now();
            let bytes = match jobs::query_artifact(&env, query, certificate, &oracle) {
                Ok(artifact) => artifact.to_bytes(),
                Err(e) => {
                    eprintln!("loopbench: {query:?}: {e}");
                    tally.failed += 1;
                    continue;
                }
            };
            assemble += t.elapsed();
            deploy += serve_tail(&mut h, &env, &bytes, seed);
            artifacts.push(bytes);
        }
        round += 1;
    }
    if let Some(layers) = &mut layers {
        layers.wall = clock.measured(&h);
        let verify = Duration::from_secs_f64(layers.queries_s.iter().sum());
        layers.stages.extend([
            ("verify_program", verify),
            ("shield + encode", assemble),
            ("deploy", deploy),
            ("serve tail", h.serve_total),
        ]);
    }
    Ok(tally.finish(&mut h, layers, &artifacts, args.seed))
}

/// A set-up serving workload's harness and the artifact bytes it deployed.
type Served = (Harness, Vec<Vec<u8>>);

/// Set-up of the serving workloads: synthesizes `served` with the pipeline,
/// starts the server and `PUT`s the artifacts under the names `deploy`
/// chooses.  Repeated `SETUPS_HEAVY` times; the last set-up in which every
/// job and `PUT` succeeded is kept, and `None` means none did.
fn heavy_setup(
    tally: &mut Tally,
    seed: u64,
    trace: bool,
    layers: &mut Option<Layers>,
    served: &[Job],
    deploy: impl Fn(usize) -> Vec<String>,
) -> Result<Option<Served>, String> {
    let mut kept: Option<Served> = None;
    let first_pass = pace::passes();
    for rep in 0..SETUPS_HEAVY as u64 {
        let t = Instant::now();
        // Pace kernel passes between the jobs, kept out of the set-up time.
        let mut paced = Duration::ZERO;
        let mut produced = Vec::new();
        for &job in served {
            paced += pace::tick();
            let spec = job.spec()?;
            match tally.produce_job(job, &spec, layers) {
                Ok(p) => produced.push(p),
                Err(e) => eprintln!("loopbench: set-up: {e}"),
            }
        }
        let mut h = Harness::start(trace)?;
        let mut complete = produced.len() == served.len();
        if complete {
            for (i, p) in produced.iter().enumerate() {
                for name in deploy(i) {
                    complete &= h.put(&name, &p.bytes).is_ok();
                }
            }
        }
        tally.setup_s.push((t.elapsed() - paced).as_secs_f64());
        let c = Instant::now();
        for (k, p) in produced.iter().enumerate() {
            let seed = seed.wrapping_mul(1_000).wrapping_add(rep * 100 + k as u64);
            tally.faults.extend(check_produced(p, seed, false));
        }
        h.check_time += c.elapsed();
        if !complete {
            tally.absorb(&h);
            continue;
        }
        let bytes = produced.into_iter().map(|p| p.bytes).collect();
        if let Some((old, _)) = kept.replace((h, bytes)) {
            tally.absorb(&old);
        }
    }
    pace::tick();
    tally.setup_passes = Some(first_pass..pace::passes());
    Ok(kept)
}

/// The outcome of a serving workload none of whose set-ups succeeded: what
/// was attempted and failed, with nothing served.
fn unserved(mut tally: Tally, layers: Option<Layers>, seed: u64) -> Result<Outcome, String> {
    tally.faults.push("no set-up succeeded".into());
    let mut h = Harness::start(layers.is_some())?;
    Ok(tally.finish(&mut h, layers, &[], seed))
}

pub fn control(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut layers = args.trace.then(Layers::begin);
    let served = [jobs::SERVED_INTERVENING, jobs::SERVED_QUIET];
    let Some((mut h, artifacts)) = heavy_setup(
        &mut tally,
        args.seed,
        args.trace,
        &mut layers,
        &served,
        |i| {
            (0..CONTROL_REPLICAS)
                .map(|r| format!("{}-{r}", served[i].bench))
                .collect()
        },
    )?
    else {
        return unserved(tally, layers, args.seed);
    };
    let deployments = h.deployments.len();
    let envs: Vec<EnvironmentContext> = h
        .deployments
        .iter()
        .map(|d| d.artifact.shield().env().clone())
        .collect();
    let mut plants: Vec<Plant> = (0..CONTROL_PLANTS)
        .map(|i| {
            let dep = i % deployments;
            let seed = args.seed.wrapping_mul(1_000).wrapping_add(i as u64);
            Plant::new(
                dep,
                &envs[dep],
                seed,
                CONTROL_EPISODE,
                i * CONTROL_EPISODE / CONTROL_PLANTS,
                i == 0,
            )
        })
        .collect();
    // Each deployment's bytes, for hot redeploys of the shield it serves.
    let sources: Vec<usize> = h
        .deployments
        .iter()
        .map(|d| (0..served.len()).rfind(|&i| d.name.starts_with(served[i].bench)))
        .collect::<Option<_>>()
        .ok_or("a deployment of an unknown shield")?;
    let codec = h.client_codec;
    let mut deploy = Duration::ZERO;
    let mut rounds = 0usize;
    let clock = Clock::start(&h);
    let first_pass = pace::passes();
    h.serve_begin();
    while clock.measured(&h).as_secs_f64() < args.seconds {
        for _ in 0..CONTROL_REDEPLOY_EVERY {
            for plant in &mut plants {
                let env = &envs[plant.dep];
                step_single(&mut h, plant, env);
            }
        }
        let dep = rounds % deployments;
        rounds += 1;
        let name = h.deployments[dep].name.clone();
        if h.put(&name, &artifacts[sources[dep]]).is_ok() {
            deploy += Duration::from_nanos(*h.deploy_ns.last().expect("just deployed"));
        }
    }
    h.serve_end();
    tally.serve_passes = Some(first_pass..pace::passes());
    trajectory_planted(&mut tally, &plants[0], &envs[0], args.seed);
    if let Some(layers) = &mut layers {
        layers.wall = h.serve_total;
        layers.request_path = true;
        layers
            .stages
            .extend([("client codec", h.client_codec - codec), ("deploy", deploy)]);
    }
    Ok(tally.finish(&mut h, layers, &artifacts, args.seed))
}

/// Checks that the trajectory checker rejects a fault planted into a
/// served plant's trajectory.
fn trajectory_planted(tally: &mut Tally, plant: &Plant, env: &EnvironmentContext, seed: u64) {
    let history = plant.history.as_deref().unwrap_or_default();
    if let Err(e) = check::trajectory(env, history) {
        tally.faults.push(e);
    }
    let planted = Planted {
        certificate: None,
        decision: None,
        trajectory: Some((env, history)),
        telemetry: None,
    };
    tally.faults.extend(check::planted_faults(&planted, seed));
}

pub fn fleet(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut layers = args.trace.then(Layers::begin);
    // The quiet system's deployment is hot-swapped between two verified
    // shields; the third artifact is deployed only by the swaps.
    let served = [
        jobs::SERVED_INTERVENING,
        jobs::SERVED_QUIET,
        jobs::SERVED_QUIET_ALT,
    ];
    let Some((mut h, artifacts)) = heavy_setup(
        &mut tally,
        args.seed,
        args.trace,
        &mut layers,
        &served,
        |i| match i {
            2 => vec![],
            _ => vec![served[i].bench.to_string()],
        },
    )?
    else {
        return unserved(tally, layers, args.seed);
    };
    let envs: Vec<EnvironmentContext> = h
        .deployments
        .iter()
        .map(|d| d.artifact.shield().env().clone())
        .collect();
    let mut fleets: Vec<Vec<Plant>> = (0..h.deployments.len())
        .map(|dep| {
            (0..FLEET_BATCH)
                .map(|j| {
                    let seed = args
                        .seed
                        .wrapping_mul(1_000_003)
                        .wrapping_add((dep * FLEET_BATCH + j) as u64);
                    Plant::new(dep, &envs[dep], seed, FLEET_EPISODE, j, dep == 0 && j == 0)
                })
                .collect()
        })
        .collect();
    let codec = h.client_codec;
    let mut deploy = Duration::ZERO;
    let mut swaps = 0usize;
    let clock = Clock::start(&h);
    let first_pass = pace::passes();
    h.serve_begin();
    while swaps == 0 || clock.measured(&h).as_secs_f64() < args.seconds {
        for _ in 0..FLEET_REDEPLOY_EVERY {
            for (dep, fleet) in fleets.iter_mut().enumerate() {
                let states: Vec<Vec<f64>> = fleet.iter().map(|p| p.state.clone()).collect();
                let Some(actions) = h.decide(dep, &states, true) else {
                    continue;
                };
                let t = Instant::now();
                for (plant, action) in fleet.iter_mut().zip(&actions) {
                    if let Err(e) = plant.advance(&envs[dep], action) {
                        h.faults.push(e);
                    }
                }
                h.check_time += t.elapsed();
            }
        }
        swaps += 1;
        let next = if swaps % 2 == 1 {
            &artifacts[2]
        } else {
            &artifacts[1]
        };
        if h.put(served[1].bench, next).is_ok() {
            deploy += Duration::from_nanos(*h.deploy_ns.last().expect("just deployed"));
        }
    }
    h.serve_end();
    tally.serve_passes = Some(first_pass..pace::passes());
    trajectory_planted(&mut tally, &fleets[0][0], &envs[0], args.seed);
    if let Some(layers) = &mut layers {
        layers.wall = h.serve_total;
        layers.request_path = true;
        layers
            .stages
            .extend([("client codec", h.client_codec - codec), ("deploy", deploy)]);
    }
    Ok(tally.finish(&mut h, layers, &artifacts, args.seed))
}
