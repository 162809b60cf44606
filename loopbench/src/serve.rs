//! The serving harness: an in-process `ShieldServer` behind the HTTP
//! front-end on loopback, one keep-alive `MiniClient` connection, and the
//! plants the client steps with the actions it gets back.
//!
//! Every wire decision is checked against an in-process decide of the
//! active artifact right after it arrives; that time is kept out of the
//! serving clock ([`Harness::check_time`]).

use crate::check::{self, Sent};
use crate::stats::quantile;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vrl::dynamics::EnvironmentContext;
use vrl_runtime::wire::{self, Json};
use vrl_runtime::{
    DeploymentTelemetry, HttpConfig, HttpFrontend, MiniClient, ShieldArtifact, ShieldServer,
};

/// One deployment as the client knows it.
pub struct Deployment {
    pub name: String,
    /// The active artifact, decoded from the bytes last `PUT`.
    pub artifact: ShieldArtifact,
    pub sent: Sent,
}

/// Serving inputs kept for the traced run's in-process replay.
#[derive(Default)]
pub struct Recorded {
    /// `(deployment, states of one request)`.
    pub requests: Vec<(usize, Vec<Vec<f64>>)>,
    pub states: usize,
}

/// States the replay keeps at most.
const RECORD_STATES: usize = 16_384;

/// Serving time per window.  Latency percentiles are taken per window
/// and averaged over windows: on a shared virtual machine the speed of a
/// vCPU switches between a fast and a slow mode for seconds at a time
/// (control's per-window p50 was either about 30 µs or about 46 µs), and
/// a run's overall percentile jumps between the modes, while the mean of
/// per-window percentiles moves with the share of time spent in each.
const WINDOW: Duration = Duration::from_millis(100);

/// One serving window's latency percentiles.
pub struct Window {
    pub p50_ns: f64,
    pub p90_ns: f64,
}

pub struct Harness {
    frontend: Option<HttpFrontend>,
    client: Option<MiniClient>,
    pub deployments: Vec<Deployment>,
    /// Decide requests answered, their total client-observed latency, and
    /// the states they carried.
    pub requests: u64,
    pub request_total_ns: u64,
    pub decided: u64,
    pub windows: Vec<Window>,
    /// Serving time, the benchmark's own work taken out.
    pub serve_total: Duration,
    /// The open serving segment: its start, the check time at its start,
    /// and whether it has closed a window yet.
    segment: Option<(Instant, Duration, bool)>,
    window_ns: Vec<u64>,
    pub deploy_ns: Vec<u64>,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub attempted: u64,
    pub failed: u64,
    pub faults: Vec<String>,
    /// The benchmark's own work (output checks, plant simulation, repeated
    /// set-ups), to be kept out of every timed section.
    pub check_time: Duration,
    /// Client-side codec time: request encoding and response parsing.
    pub client_codec: Duration,
    pub recorded: Option<Recorded>,
    /// A decision that passed its check, for the planted-fault test.
    pub passed: Option<(usize, Vec<f64>, Vec<f64>, bool)>,
    /// Telemetry snapshots that matched, for the planted-fault test.
    pub telemetry: Vec<(Sent, DeploymentTelemetry)>,
    body: String,
    response: Vec<u8>,
}

impl Harness {
    /// Starts a server with the shipped defaults behind the front-end on an
    /// ephemeral loopback port and connects one client.
    pub fn start(record: bool) -> Result<Harness, String> {
        let server = Arc::new(ShieldServer::new());
        let config = HttpConfig {
            idle_timeout: Duration::from_secs(120),
            ..HttpConfig::default()
        };
        let frontend =
            HttpFrontend::bind("127.0.0.1:0", server, config).map_err(|e| e.to_string())?;
        let addr: SocketAddr = frontend.local_addr();
        let client = MiniClient::connect(addr).map_err(|e| e.to_string())?;
        Ok(Harness {
            frontend: Some(frontend),
            client: Some(client),
            deployments: Vec::new(),
            requests: 0,
            request_total_ns: 0,
            decided: 0,
            windows: Vec::new(),
            serve_total: Duration::ZERO,
            segment: None,
            window_ns: Vec::new(),
            deploy_ns: Vec::new(),
            bytes_out: 0,
            bytes_in: 0,
            attempted: 0,
            failed: 0,
            faults: Vec::new(),
            check_time: Duration::ZERO,
            client_codec: Duration::ZERO,
            recorded: record.then(Recorded::default),
            passed: None,
            telemetry: Vec::new(),
            body: String::new(),
            response: Vec::new(),
        })
    }

    fn client(&mut self) -> &mut MiniClient {
        self.client.as_mut().expect("client lives until shutdown")
    }

    pub fn index(&self, name: &str) -> Option<usize> {
        self.deployments.iter().position(|d| d.name == name)
    }

    /// `PUT`s artifact bytes under `name` (deploy or hot redeploy) and
    /// checks that the generation rose by exactly one.  A `PUT` that fails
    /// is counted in [`Harness::failed`] and leaves the deployment as it was.
    pub fn put(&mut self, name: &str, bytes: &[u8]) -> Result<usize, String> {
        self.attempted += 1;
        let path = format!("/v1/deployments/{name}");
        let t = Instant::now();
        let response = self.client().request("PUT", &path, bytes);
        let elapsed = t.elapsed();
        let deployed = match response {
            Ok(r) if r.status == 200 => wire::decode_deployed_response(&r.body)
                .map_err(|e| format!("PUT {name}: undecodable response: {e}")),
            Ok(r) => Err(format!("PUT {name} answered {}: {}", r.status, r.text())),
            Err(e) => Err(format!("PUT {name}: {e}")),
        };
        let t = Instant::now();
        let artifact = ShieldArtifact::from_bytes(bytes).map_err(|e| e.to_string());
        let (generation, artifact) = match (deployed, artifact) {
            (Ok(g), Ok(a)) => (g, a),
            (Err(e), _) | (_, Err(e)) => {
                self.failed += 1;
                self.check_time += t.elapsed();
                return Err(e);
            }
        };
        self.deploy_ns.push(elapsed.as_nanos() as u64);
        let index = match self.index(name) {
            Some(i) => {
                self.deployments[i].artifact = artifact;
                i
            }
            None => {
                self.deployments.push(Deployment {
                    name: name.to_string(),
                    artifact,
                    sent: Sent::default(),
                });
                self.deployments.len() - 1
            }
        };
        let sent = &mut self.deployments[index].sent;
        sent.puts += 1;
        if generation != sent.puts {
            self.faults.push(format!(
                "PUT {name} reported generation {generation}, expected {}",
                sent.puts
            ));
        }
        self.check_time += t.elapsed();
        Ok(index)
    }

    /// One decide request against deployment `dep`: a single-state body
    /// (`{"state": …}`) when `batched` is false, else `{"states": …}`.
    /// Returns the applied actions, or `None` when the request failed.
    pub fn decide(
        &mut self,
        dep: usize,
        states: &[Vec<f64>],
        batched: bool,
    ) -> Option<Vec<Vec<f64>>> {
        self.attempted += 1;
        let t = Instant::now();
        self.body = if batched {
            wire::decide_batch_request(states)
        } else {
            Json::Obj(vec![(
                "state".to_string(),
                Json::Arr(states[0].iter().map(|&v| Json::Num(v)).collect()),
            )])
            .render()
        };
        let path = format!("/v1/deployments/{}/decide", self.deployments[dep].name);
        let encoded = t.elapsed();
        let t = Instant::now();
        let mut response = std::mem::take(&mut self.response);
        let body = std::mem::take(&mut self.body);
        let status =
            self.client()
                .post_reusing(&path, "application/json", body.as_bytes(), &mut response);
        let elapsed = t.elapsed();
        self.body = body;
        let t = Instant::now();
        let decisions = match status {
            Ok((200, _)) => {
                if batched {
                    wire::decode_decide_response(&response).ok()
                } else {
                    single_decision(&response)
                }
            }
            _ => None,
        };
        self.client_codec += encoded + t.elapsed();
        self.bytes_out += self.body.len() as u64;
        self.bytes_in += response.len() as u64;
        self.response = response;
        let Some(decisions) = decisions.filter(|d| d.len() == states.len()) else {
            self.failed += 1;
            return None;
        };
        let ns = elapsed.as_nanos() as u64;
        self.requests += 1;
        self.request_total_ns += ns;
        self.decided += states.len() as u64;
        self.window_ns.push(ns);

        let t = Instant::now();
        let deployment = &mut self.deployments[dep];
        let interventions = decisions.iter().filter(|d| d.intervened).count() as u64;
        deployment.sent.requests += 1;
        deployment.sent.decisions += states.len() as u64;
        deployment.sent.interventions += interventions;
        for (state, d) in states.iter().zip(&decisions) {
            if let Err(e) = check::decision(&deployment.artifact, state, &d.action, d.intervened) {
                self.faults.push(e);
            } else if self.passed.is_none() {
                self.passed = Some((dep, state.clone(), d.action.clone(), d.intervened));
            }
        }
        if let Some(recorded) = &mut self.recorded {
            if recorded.states + states.len() <= RECORD_STATES {
                recorded.states += states.len();
                recorded.requests.push((dep, states.to_vec()));
            }
        }
        self.check_time += t.elapsed();
        if self.segment_time() >= WINDOW {
            self.close_window(true);
            self.check_time += crate::pace::tick();
        }
        Some(decisions.into_iter().map(|d| d.action).collect())
    }

    /// Opens a serving segment: decide requests from here on are timed
    /// into windows until [`Harness::serve_end`].
    pub fn serve_begin(&mut self) {
        self.segment = Some((Instant::now(), self.check_time, false));
    }

    /// Closes the serving segment.  Its last window is kept when it is the
    /// segment's only one or at least half a window long.
    pub fn serve_end(&mut self) {
        let keep = match self.segment {
            Some((_, _, closed_one)) => !closed_one || self.segment_time() >= WINDOW / 2,
            None => false,
        };
        self.close_window(keep);
        self.segment = None;
    }

    fn segment_time(&self) -> Duration {
        self.segment.map_or(Duration::ZERO, |(start, checks, _)| {
            start.elapsed().saturating_sub(self.check_time - checks)
        })
    }

    fn close_window(&mut self, keep: bool) {
        if self.segment.is_none() {
            return;
        }
        let time = self.segment_time();
        self.serve_total += time;
        if keep && !self.window_ns.is_empty() {
            let ns: Vec<f64> = self.window_ns.iter().map(|&v| v as f64).collect();
            self.windows.push(Window {
                p50_ns: quantile(&ns, 0.5),
                p90_ns: quantile(&ns, 0.9),
            });
        }
        self.window_ns.clear();
        self.segment = Some((Instant::now(), self.check_time, true));
    }

    /// Checks every deployment's telemetry against what was sent.
    pub fn check_telemetry(&mut self) {
        for i in 0..self.deployments.len() {
            let path = format!("/v1/deployments/{}/telemetry", self.deployments[i].name);
            let got = self
                .client()
                .request("GET", &path, b"")
                .map_err(|e| e.to_string())
                .and_then(|r| wire::decode_telemetry_response(&r.body).map_err(|e| e.to_string()));
            let sent = self.deployments[i].sent;
            match got {
                Ok(got) => match check::telemetry(&sent, &got) {
                    Ok(()) => self.telemetry.push((sent, got)),
                    Err(e) => self.faults.push(e),
                },
                Err(e) => self
                    .faults
                    .push(format!("telemetry of {}: {e}", self.deployments[i].name)),
            }
        }
    }

    /// Closes the client first so the server's connection thread sees EOF,
    /// then stops the front-end and joins its threads.
    pub fn shutdown(&mut self) {
        self.client = None;
        if let Some(frontend) = self.frontend.take() {
            frontend.shutdown();
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn single_decision(body: &[u8]) -> Option<Vec<vrl::shield::ShieldDecision>> {
    let json = Json::parse(body).ok()?;
    let decision = json.get("decision")?;
    let Some(Json::Arr(action)) = decision.get("action") else {
        return None;
    };
    let action = action
        .iter()
        .map(Json::as_f64)
        .collect::<Option<Vec<f64>>>()?;
    let Some(Json::Bool(intervened)) = decision.get("intervened") else {
        return None;
    };
    Some(vec![vrl::shield::ShieldDecision {
        action,
        intervened: *intervened,
    }])
}

/// A simulated plant: it starts each episode from a seeded state of S0 and
/// is stepped with the actions the server returns.
pub struct Plant {
    pub dep: usize,
    pub state: Vec<f64>,
    step: usize,
    episode: usize,
    rng: SmallRng,
    /// The current episode's states, kept for one plant only.
    pub history: Option<Vec<Vec<f64>>>,
}

impl Plant {
    /// `phase` staggers episode resets across a fleet.
    pub fn new(
        dep: usize,
        env: &EnvironmentContext,
        seed: u64,
        episode: usize,
        phase: usize,
        keep_history: bool,
    ) -> Plant {
        let mut rng = SmallRng::seed_from_u64(seed);
        let state = env.sample_initial(&mut rng);
        Plant {
            dep,
            history: keep_history.then(|| vec![state.clone()]),
            state,
            step: phase % episode,
            episode,
            rng,
        }
    }

    /// Applies `action`; returns the new state if it left the safe box.
    pub fn advance(&mut self, env: &EnvironmentContext, action: &[f64]) -> Result<(), String> {
        self.state = env.step_deterministic(&self.state, action);
        if let Some(history) = &mut self.history {
            history.push(self.state.clone());
        }
        let escaped = !env.safety().is_safe(&self.state);
        self.step += 1;
        if self.step >= self.episode {
            self.step = 0;
            self.state = env.sample_initial(&mut self.rng);
            if let Some(history) = &mut self.history {
                history.clear();
                history.push(self.state.clone());
            }
        }
        if escaped {
            return Err(format!("a {} plant left the safe box", env.name()));
        }
        Ok(())
    }
}
