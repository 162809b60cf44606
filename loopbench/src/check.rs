//! Output checks.  Each tests a property the method must have — not a copy
//! of today's output — and each is run against a planted fault
//! ([`planted_faults`]) so a checker that accepts everything is caught.
//!
//! Certificates are tested by sampling the verification conditions
//! (8)–(10): the verified initial region lies inside the union of the
//! invariants, unsafe states lie outside every invariant, and states inside
//! an invariant stay inside it after one step of the closed loop the
//! verifier proved (the Euler step under the piece's unclamped program).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vrl::dynamics::{BoxRegion, Dynamics, EnvironmentContext, Policy};
use vrl::poly::Polynomial;
use vrl::synth::PolicyProgram;
use vrl::verify::BarrierCertificate;
use vrl_runtime::{DeploymentTelemetry, ShieldArtifact};

/// Random states per sampled condition.
const SAMPLES: usize = 256;
/// Steps per checked rollout.
pub const ROLLOUT_STEPS: usize = 300;

pub type Check = Result<(), String>;

pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A wire decision must be bit-identical to an in-process
/// `Shield::decide` of the active artifact given the oracle's own proposal,
/// and an action the shield did not override must equal the clamped
/// proposal.
pub fn decision(
    artifact: &ShieldArtifact,
    state: &[f64],
    action: &[f64],
    intervened: bool,
) -> Check {
    let proposal = artifact.oracle().action(state);
    let expected = artifact.shield().decide(state, &proposal);
    if expected.intervened != intervened || !bits_equal(&expected.action, action) {
        return Err(format!(
            "wire decision at {state:?} is ({action:?}, {intervened}), in-process is ({:?}, {})",
            expected.action, expected.intervened
        ));
    }
    let clamped = artifact.shield().env().clamp_action(&proposal);
    if !intervened && !bits_equal(action, &clamped) {
        return Err(format!(
            "kept action {action:?} at {state:?} is not the clamped proposal {clamped:?}"
        ));
    }
    Ok(())
}

/// No state of a plant trajectory leaves the safe box.
pub fn trajectory(env: &EnvironmentContext, states: &[Vec<f64>]) -> Check {
    match states.iter().position(|s| !env.safety().is_safe(s)) {
        Some(i) => Err(format!(
            "{} trajectory left the safe box at step {i}: {:?}",
            env.name(),
            states[i]
        )),
        None => Ok(()),
    }
}

/// A plant rolled out from `start` under `policy` through the shield's
/// prediction model (`step_deterministic`).
pub fn rollout(
    env: &EnvironmentContext,
    start: &[f64],
    mut policy: impl FnMut(&[f64]) -> Vec<f64>,
) -> Vec<Vec<f64>> {
    let mut states = vec![start.to_vec()];
    for _ in 0..ROLLOUT_STEPS {
        let s = states.last().expect("never empty");
        let next = env.step_deterministic(s, &policy(s));
        states.push(next);
    }
    states
}

/// What the benchmark sent to, and saw from, one deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sent {
    pub requests: u64,
    pub decisions: u64,
    pub interventions: u64,
    pub puts: u64,
}

/// A deployment's telemetry counts equal what the benchmark sent and
/// observed.
pub fn telemetry(sent: &Sent, got: &DeploymentTelemetry) -> Check {
    let want = (
        sent.requests,
        sent.decisions,
        sent.interventions,
        sent.puts.saturating_sub(1),
        sent.puts,
    );
    let have = (
        got.requests,
        got.decisions,
        got.interventions,
        got.redeploys,
        got.generation,
    );
    if want != have {
        return Err(format!(
            "telemetry of {} (requests, decisions, interventions, redeploys, generation) is {have:?}, sent {want:?}",
            got.deployment
        ));
    }
    Ok(())
}

/// One verified piece: a program and the invariant proving it.
#[derive(Clone, Copy)]
pub struct Piece<'a> {
    pub program: &'a PolicyProgram,
    pub invariant: &'a BarrierCertificate,
}

/// The verified region (every corner plus a seeded sample) lies inside the
/// union of the invariants.
pub fn covered(region: &BoxRegion, invariants: &[&BarrierCertificate], seed: u64) -> Check {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut states = region.corners();
    states.extend((0..SAMPLES).map(|_| region.sample(&mut rng)));
    match states
        .iter()
        .find(|s| !invariants.iter().any(|c| c.contains(s)))
    {
        Some(s) => Err(format!(
            "verified region state {s:?} lies outside every invariant"
        )),
        None => Ok(()),
    }
}

/// The Euler step of the closed loop the verifier proves, with the piece's
/// action unclamped.
fn verified_step(env: &EnvironmentContext, program: &PolicyProgram, s: &[f64]) -> Vec<f64> {
    let action = program.action(s);
    let derivative = env.dynamics().derivative(s, &action);
    s.iter()
        .zip(&derivative)
        .map(|(x, d)| x + env.dt() * d)
        .collect()
}

/// Seeded unsafe states the verification conditions cover: one verified
/// step from a random point on the safe box's boundary that lands outside
/// the safe box (the band between the safe box and its one-step image,
/// where condition (9) must hold), plus states inside obstacles.
pub fn unsafe_states(
    env: &EnvironmentContext,
    program: &PolicyProgram,
    seed: u64,
) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let safe = env.safety().safe_box();
    let mut states = Vec::new();
    for _ in 0..SAMPLES * 64 {
        if states.len() >= SAMPLES {
            break;
        }
        let mut s = safe.sample(&mut rng);
        let i = rng.gen_range(0..s.len());
        s[i] = if rng.gen::<bool>() {
            safe.high(i)
        } else {
            safe.low(i)
        };
        let next = verified_step(env, program, &s);
        if env.is_unsafe(&next) {
            states.push(next);
        }
    }
    for obstacle in env.safety().obstacles() {
        states.extend((0..SAMPLES / 4).map(|_| obstacle.sample(&mut rng)));
    }
    states
}

/// Seeded unsafe states lie outside every invariant.
pub fn unsafe_excluded(
    env: &EnvironmentContext,
    pieces: &[Piece],
    invariants: &[&BarrierCertificate],
    seed: u64,
) -> Check {
    let mut sampled = 0usize;
    for (k, piece) in pieces.iter().enumerate() {
        let states = unsafe_states(env, piece.program, seed.wrapping_add(k as u64));
        sampled += states.len();
        if let Some(s) = states
            .iter()
            .find(|s| invariants.iter().any(|c| c.contains(s)))
        {
            return Err(format!("unsafe state {s:?} lies inside an invariant"));
        }
    }
    if sampled == 0 {
        return Err(format!(
            "no unsafe state could be sampled for {}",
            env.name()
        ));
    }
    Ok(())
}

/// Seeded states inside each invariant stay inside it after one verified
/// step under that piece's program.
pub fn inductive(env: &EnvironmentContext, pieces: &[Piece], seed: u64) -> Check {
    let mut rng = SmallRng::seed_from_u64(seed);
    let safe = env.safety().safe_box();
    for piece in pieces {
        let mut inside = 0usize;
        for _ in 0..SAMPLES * 64 {
            if inside >= SAMPLES {
                break;
            }
            let s = safe.sample(&mut rng);
            if !piece.invariant.contains(&s) {
                continue;
            }
            inside += 1;
            let next = verified_step(env, piece.program, &s);
            if !piece.invariant.contains(&next) {
                return Err(format!(
                    "{s:?} is inside an invariant but its successor {next:?} is not"
                ));
            }
        }
        if inside == 0 {
            return Err(format!(
                "no state inside an invariant of {} could be sampled",
                env.name()
            ));
        }
    }
    Ok(())
}

/// Every certificate check on one verified shield (or query).
pub fn certificates(
    env: &EnvironmentContext,
    region: &BoxRegion,
    pieces: &[Piece],
    seed: u64,
) -> Check {
    let invariants: Vec<&BarrierCertificate> = pieces.iter().map(|p| p.invariant).collect();
    covered(region, &invariants, seed)?;
    unsafe_excluded(env, pieces, &invariants, seed.wrapping_add(1))?;
    inductive(env, pieces, seed.wrapping_add(2))
}

/// `invariant − shift`, the certificate planted faults are made of.
fn shifted(invariant: &BarrierCertificate, shift: f64) -> BarrierCertificate {
    let p = invariant.polynomial();
    BarrierCertificate::new(p - &Polynomial::constant(shift, p.nvars()))
}

/// Plants one fault per checker into copies of real outputs and returns a
/// description of each checker that failed to reject its fault.
pub struct Planted<'a> {
    /// A verified shield's environment, region and one of its pieces.
    pub certificate: Option<(&'a EnvironmentContext, &'a BoxRegion, Piece<'a>)>,
    /// A served decision `(artifact, state, action, intervened)` that passed.
    pub decision: Option<(&'a ShieldArtifact, &'a [f64], &'a [f64], bool)>,
    /// A checked trajectory.
    pub trajectory: Option<(&'a EnvironmentContext, &'a [Vec<f64>])>,
    /// A telemetry snapshot that matched what was sent.
    pub telemetry: Option<(Sent, &'a DeploymentTelemetry)>,
}

pub fn planted_faults(planted: &Planted, seed: u64) -> Vec<String> {
    let mut missed = Vec::new();
    let mut verdicts: Vec<(&str, Check)> = Vec::new();
    let mut expect_reject = |what: &'static str, result: Check| verdicts.push((what, result));
    if let Some((env, region, piece)) = &planted.certificate {
        // A certificate that misses the S0 corner where it is largest.
        let corner = region
            .corners()
            .into_iter()
            .max_by(|a, b| {
                piece
                    .invariant
                    .value(a)
                    .total_cmp(&piece.invariant.value(b))
            })
            .expect("a box has corners");
        let value = piece.invariant.value(&corner);
        let missing = shifted(piece.invariant, value - 1e-6 * value.abs().max(1.0));
        expect_reject(
            "a certificate missing one S0 corner",
            covered(region, &[&missing], seed),
        );
        // A certificate that contains a sampled unsafe state.
        if let Some(u) = unsafe_states(env, piece.program, seed).first() {
            let leaky = shifted(piece.invariant, piece.invariant.value(u) + 1.0);
            let leaky_piece = Piece {
                program: piece.program,
                invariant: &leaky,
            };
            expect_reject(
                "an unsafe state inside an invariant",
                unsafe_excluded(env, &[leaky_piece], &[&leaky], seed),
            );
        } else {
            expect_reject("an unsafe state inside an invariant (none sampled)", Ok(()));
        }
    }
    if let Some((artifact, state, action, intervened)) = planted.decision {
        let mut flipped = action.to_vec();
        flipped[0] = f64::from_bits(flipped[0].to_bits() ^ 1);
        expect_reject(
            "a decision with one flipped bit",
            decision(artifact, state, &flipped, intervened),
        );
    }
    if let Some((env, states)) = planted.trajectory {
        let mut escaped = states.to_vec();
        let safe = env.safety().safe_box();
        let last = escaped.last_mut().expect("never empty");
        last[0] = safe.high(0) + safe.widths()[0];
        expect_reject(
            "a trajectory that leaves the safe box",
            trajectory(env, &escaped),
        );
    }
    if let Some((sent, got)) = planted.telemetry {
        let off = Sent {
            requests: sent.requests + 1,
            ..sent
        };
        expect_reject("a telemetry count off by one", telemetry(&off, got));
    }
    for (what, verdict) in verdicts {
        if verdict.is_ok() {
            missed.push(format!("checker accepted a planted fault: {what}"));
        }
    }
    missed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vrl::dynamics::{PolyDynamics, SafetySpec};
    use vrl::rl::NeuralPolicy;
    use vrl::shield::{Shield, ShieldPiece};

    /// ẋ = y, ẏ = a with the program a = −x − y.  Its Euler step scales
    /// V = x² + xy + y² by 1 − dt + dt², so V ≤ 0.6 is an inductive
    /// invariant; it contains the initial box ±0.4 and lies inside the safe
    /// box ±1 (|x| ≤ √0.8 on it).
    fn toy() -> (EnvironmentContext, PolicyProgram, BarrierCertificate) {
        let dynamics = PolyDynamics::new(
            2,
            1,
            vec![Polynomial::variable(1, 3), Polynomial::variable(2, 3)],
        )
        .unwrap();
        let env = EnvironmentContext::new(
            "toy",
            dynamics,
            0.01,
            BoxRegion::symmetric(&[0.4, 0.4]),
            SafetySpec::inside(BoxRegion::symmetric(&[1.0, 1.0])),
        )
        .with_action_bounds(vec![-5.0], vec![5.0]);
        let program = PolicyProgram::linear(&[vec![-1.0, -1.0]], &[0.0]);
        let (x, y) = (Polynomial::variable(0, 2), Polynomial::variable(1, 2));
        let v = &(&(&x * &x) + &(&x * &y)) + &(&y * &y);
        let invariant = BarrierCertificate::new(&v - &Polynomial::constant(0.6, 2));
        (env, program, invariant)
    }

    #[test]
    fn sound_certificate_passes_and_every_planted_fault_is_rejected() {
        let (env, program, invariant) = toy();
        let piece = Piece {
            program: &program,
            invariant: &invariant,
        };
        certificates(
            &env,
            env.init(),
            &[Piece {
                program: &program,
                invariant: &invariant,
            }],
            3,
        )
        .unwrap();

        let shield = Shield::new(
            env.clone(),
            vec![ShieldPiece::new(program.clone(), invariant.clone())],
        );
        let oracle = NeuralPolicy::new(2, 1, &[8], 5.0, &mut SmallRng::seed_from_u64(1));
        let artifact = ShieldArtifact::new(shield, oracle).unwrap();
        let state = [0.3, -0.2];
        let proposal = artifact.oracle().action(&state);
        let served = artifact.shield().decide(&state, &proposal);
        decision(&artifact, &state, &served.action, served.intervened).unwrap();

        let states = rollout(&env, &[0.4, 0.4], |s| program.action(s));
        trajectory(&env, &states).unwrap();

        let sent = Sent {
            requests: 4,
            decisions: 9,
            interventions: 2,
            puts: 2,
        };
        let got = DeploymentTelemetry {
            deployment: "toy".into(),
            generation: 2,
            requests: 4,
            decisions: 9,
            interventions: 2,
            redeploys: 1,
            intervention_rate: 2.0 / 9.0,
            p50_latency: Duration::ZERO,
            p99_latency: Duration::ZERO,
        };
        telemetry(&sent, &got).unwrap();

        let planted = Planted {
            certificate: Some((&env, env.init(), piece)),
            decision: Some((&artifact, &state, &served.action, served.intervened)),
            trajectory: Some((&env, &states)),
            telemetry: Some((sent, &got)),
        };
        assert_eq!(planted_faults(&planted, 5), Vec::<String>::new());
    }

    #[test]
    fn an_expanding_program_fails_the_inductive_check() {
        let (env, _, invariant) = toy();
        let expanding = PolicyProgram::linear(&[vec![3.0, 3.0]], &[0.0]);
        let pieces = [Piece {
            program: &expanding,
            invariant: &invariant,
        }];
        assert!(inductive(&env, &pieces, 1).is_err());
    }
}
