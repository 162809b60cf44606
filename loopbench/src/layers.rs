//! The traced run: per-layer metrics from three sources, with no
//! instrumentation added inside the program.
//!
//! * The benchmark's own timers around each public call.
//! * The program's existing spans (`cegis.coverage`, `cegis.verify`,
//!   `synth.distill`) drained with `vrl_obs::drain_spans`, and its
//!   counters and histograms, taken as deltas over the run from the
//!   `vrl_obs` registry (each process runs one workload, so nothing else
//!   bumps them).
//! * An in-process replay of the recorded serving inputs through
//!   `ShieldServer::decide_batch`, `Shield::decide`/`decide_batch`, the
//!   oracle's forward pass, `step_deterministic` and certificate membership.

use crate::jobs::Produced;
use crate::serve::Harness;
use crate::stats::{median, ratio, ObsSnapshot};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vrl::nn::MlpScratch;
use vrl_runtime::{ShieldArtifact, ShieldServer};

/// The per-layer metrics, in `BENCHMARK.json` order, with their units.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("rl.train_s", "s"),
    ("synth.distill_s", "s"),
    ("synth.distill_calls", "count"),
    ("shield.cegis_s", "s"),
    ("shield.coverage_s", "s"),
    ("shield.cegis_attempts", "count"),
    ("shield.counterexamples", "count"),
    ("shield.pieces", "count"),
    ("shield.accept_ratio", "ratio"),
    ("shield.eval_s", "s"),
    ("verify.verify_s", "s"),
    ("verify.query_p50_s", "s"),
    ("solver.bb_queries", "count"),
    ("solver.bb_boxes", "count"),
    ("solver.bb_waves", "count"),
    ("solver.bb_prune_ratio", "ratio"),
    ("solver.min_boxes", "count"),
    ("solver.cache_hit_ratio", "ratio"),
    ("runtime.artifact_bytes", "bytes"),
    ("runtime.artifact_encode_ms", "ms"),
    ("runtime.artifact_decode_ms", "ms"),
    ("runtime.redeploy_ms", "ms"),
    ("http.decode_us", "us"),
    ("http.encode_us", "us"),
    ("http.transport_us", "us"),
    ("http.requests", "count"),
    ("http.bytes_in", "bytes/req"),
    ("http.bytes_out", "bytes/req"),
    ("runtime.decide_us", "us"),
    ("runtime.server_decide_us", "us"),
    ("shield.decide_us", "us"),
    ("shield.intervention_ratio", "ratio"),
    ("nn.forward_us", "us"),
    ("dynamics.step_us", "us"),
    ("verify.certificate_us", "us"),
    ("obs.spans_dropped", "count"),
    ("ledger.unaccounted_pct", "%"),
];

/// Minimum replay time per kernel, so each per-state figure averages over
/// many passes.
const REPLAY_MIN: Duration = Duration::from_millis(40);

#[derive(Default)]
pub struct Layers {
    obs: ObsSnapshot,
    /// Span name → (count, total ns).
    spans: BTreeMap<&'static str, (u64, u64)>,
    /// Duration of each verification query, in seconds.
    pub queries_s: Vec<f64>,
    train: Duration,
    cegis: Duration,
    eval: Duration,
    attempts: u64,
    pieces: u64,
    /// Wall time of the workload's end-to-end section and the stages that
    /// cover it, for the ledger.
    pub wall: Duration,
    pub stages: Vec<(&'static str, Duration)>,
    /// Whether the end-to-end section is the request path, whose HTTP
    /// stages come from the program's own histograms.
    pub request_path: bool,
}

impl Layers {
    /// Starts the traced interval: discards spans recorded so far and
    /// snapshots the registry.
    pub fn begin() -> Layers {
        drop(vrl_obs::drain_spans());
        Layers {
            obs: ObsSnapshot::take(),
            ..Layers::default()
        }
    }

    /// Folds the spans recorded since the last call into the totals.
    pub fn absorb_spans(&mut self) {
        for span in vrl_obs::drain_spans() {
            let entry = self.spans.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.dur_ns;
            if span.name == "cegis.verify" {
                self.queries_s.push(span.dur_ns as f64 / 1e9);
            }
        }
    }

    pub fn add_job(&mut self, job: &Produced) {
        self.train += job.train;
        self.cegis += job.cegis;
        self.eval += job.eval;
        self.attempts += job.report.attempts as u64;
        self.pieces += job.report.pieces as u64;
        self.absorb_spans();
    }

    pub fn train_time(&self) -> Duration {
        self.train
    }

    pub fn eval_time(&self) -> Duration {
        self.eval
    }

    pub fn span_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e9)
    }

    /// Prints the ledger and every per-layer metric.  `artifacts` are the
    /// byte images the run deployed.
    pub fn finish(
        mut self,
        h: &Harness,
        artifacts: &[Vec<u8>],
    ) -> Vec<(&'static str, f64, &'static str)> {
        self.absorb_spans();
        let later = ObsSnapshot::take();
        let d = |series: &str| self.obs.delta(&later, series);
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

        m.insert("rl.train_s", self.train.as_secs_f64());
        m.insert("synth.distill_s", self.span_s("synth.distill"));
        m.insert(
            "synth.distill_calls",
            self.spans.get("synth.distill").map_or(0, |s| s.0) as f64,
        );
        m.insert("shield.cegis_s", self.cegis.as_secs_f64());
        m.insert("shield.coverage_s", self.span_s("cegis.coverage"));
        m.insert("shield.cegis_attempts", self.attempts as f64);
        m.insert(
            "shield.counterexamples",
            d("vrl_synth_cegis_counterexamples_total"),
        );
        m.insert("shield.pieces", self.pieces as f64);
        m.insert(
            "shield.accept_ratio",
            ratio(self.pieces as f64, self.attempts as f64),
        );
        m.insert("shield.eval_s", self.eval.as_secs_f64());
        m.insert("verify.verify_s", self.queries_s.iter().sum());
        m.insert("verify.query_p50_s", median(&self.queries_s));

        let boxes = d("vrl_solver_bb_boxes_total");
        let hits = d("vrl_solver_query_cache_hits_total");
        m.insert("solver.bb_queries", d("vrl_solver_bb_queries_total"));
        m.insert("solver.bb_boxes", boxes);
        m.insert("solver.bb_waves", d("vrl_solver_bb_waves_total"));
        m.insert(
            "solver.bb_prune_ratio",
            ratio(d("vrl_solver_bb_guard_prunes_total"), boxes),
        );
        m.insert("solver.min_boxes", d("vrl_solver_min_boxes_total"));
        m.insert(
            "solver.cache_hit_ratio",
            ratio(hits, hits + d("vrl_solver_query_cache_misses_total")),
        );

        let requests = h.requests as f64;
        let states_per_request = ratio(h.decided as f64, requests);
        let request_us = ratio(h.request_total_ns as f64 / 1e3, requests);
        let decode_us =
            self.obs
                .mean_us(&later, "vrl_http_codec_phase_seconds", "{phase=\"decode\"}");
        let encode_us =
            self.obs
                .mean_us(&later, "vrl_http_codec_phase_seconds", "{phase=\"encode\"}");
        let decide_us = self
            .obs
            .mean_us(&later, "vrl_runtime_decide_latency_seconds", "");
        let transport_us = request_us - decode_us - encode_us - decide_us * states_per_request;
        m.insert("http.decode_us", decode_us);
        m.insert("http.encode_us", encode_us);
        m.insert("http.transport_us", transport_us);
        m.insert("http.requests", requests);
        m.insert("http.bytes_in", ratio(h.bytes_out as f64, requests));
        m.insert("http.bytes_out", ratio(h.bytes_in as f64, requests));
        m.insert("runtime.decide_us", decide_us);
        let (decisions, interventions) = h.deployments.iter().fold((0, 0), |(d, i), dep| {
            (d + dep.sent.decisions, i + dep.sent.interventions)
        });
        m.insert(
            "shield.intervention_ratio",
            ratio(interventions as f64, decisions as f64),
        );
        m.insert("obs.spans_dropped", d("vrl_obs_spans_dropped_total"));

        replay(h, &mut m);
        artifact_costs(artifacts, &mut m);

        let total = |per_request_us: f64| {
            Duration::from_secs_f64((per_request_us * requests / 1e6).max(0.0))
        };
        if self.request_path {
            self.stages.splice(
                0..0,
                [
                    ("http transport", total(transport_us)),
                    ("http decode", total(decode_us)),
                    ("server decide", total(decide_us * states_per_request)),
                    ("http encode", total(encode_us)),
                ],
            );
        }
        let wall = self.wall.as_secs_f64();
        let covered: f64 = self.stages.iter().map(|(_, t)| t.as_secs_f64()).sum();
        let unaccounted = ratio((wall - covered) * 100.0, wall);
        println!("ledger: end-to-end section {wall:.4} s");
        for (name, time) in &self.stages {
            let s = time.as_secs_f64();
            println!(
                "ledger:   {name:<16} {s:>10.4} s {:>6.2} %",
                ratio(s * 100.0, wall)
            );
        }
        println!(
            "ledger:   {:<16} {:>10.4} s {unaccounted:>6.2} %",
            "unaccounted",
            wall - covered
        );
        m.insert("ledger.unaccounted_pct", unaccounted);

        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Times `pass` (which handles `states` states) until [`REPLAY_MIN`] has
/// elapsed; microseconds per state.
fn per_state_us(states: usize, mut pass: impl FnMut()) -> f64 {
    if states == 0 {
        return 0.0;
    }
    let t = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t.elapsed() < REPLAY_MIN {
        pass();
        passes += 1;
    }
    t.elapsed().as_secs_f64() * 1e6 / (passes as f64 * states as f64)
}

/// Replays the recorded serving inputs through each serving layer in
/// process, in the request shapes they were served in.
fn replay(h: &Harness, m: &mut BTreeMap<&'static str, f64>) {
    let Some(recorded) = &h.recorded else { return };
    let n = recorded.states;
    let artifact = |dep: usize| &h.deployments[dep].artifact;
    let proposals: Vec<Vec<Vec<f64>>> = recorded
        .requests
        .iter()
        .map(|(dep, states)| {
            states
                .iter()
                .map(|s| vrl::dynamics::Policy::action(artifact(*dep).oracle(), s))
                .collect()
        })
        .collect();

    let mut scratch = MlpScratch::new();
    let (mut one, mut many) = (Vec::new(), Vec::new());
    m.insert(
        "nn.forward_us",
        per_state_us(n, || {
            for (dep, states) in &recorded.requests {
                let oracle = artifact(*dep).oracle();
                if states.len() == 1 {
                    oracle.action_into(&states[0], &mut scratch, &mut one);
                } else {
                    oracle.actions_batch_into(states, &mut scratch, &mut many);
                }
                black_box((&one, &many));
            }
        }),
    );
    m.insert(
        "shield.decide_us",
        per_state_us(n, || {
            for ((dep, states), proposed) in recorded.requests.iter().zip(&proposals) {
                let shield = artifact(*dep).shield();
                if states.len() == 1 {
                    black_box(shield.decide(&states[0], &proposed[0]));
                } else {
                    black_box(shield.decide_batch(states, proposed));
                }
            }
        }),
    );
    m.insert(
        "dynamics.step_us",
        per_state_us(n, || {
            for ((dep, states), proposed) in recorded.requests.iter().zip(&proposals) {
                let env = artifact(*dep).shield().env();
                for (s, a) in states.iter().zip(proposed) {
                    black_box(env.step_deterministic(s, a));
                }
            }
        }),
    );
    m.insert(
        "verify.certificate_us",
        per_state_us(n, || {
            for (dep, states) in &recorded.requests {
                let pieces = artifact(*dep).shield().pieces();
                for s in states {
                    for piece in pieces {
                        black_box(piece.invariant().contains(s));
                    }
                }
            }
        }),
    );

    let server = ShieldServer::new();
    for d in &h.deployments {
        server
            .deploy(d.name.clone(), d.artifact.clone())
            .expect("fresh names");
    }
    m.insert(
        "runtime.server_decide_us",
        per_state_us(n, || {
            for (dep, states) in &recorded.requests {
                black_box(
                    server
                        .decide_batch(&h.deployments[*dep].name, states)
                        .expect("deployed"),
                );
            }
        }),
    );
    let mut redeploy = Vec::new();
    for d in &h.deployments {
        for _ in 0..20 {
            let copy = d.artifact.clone();
            let t = Instant::now();
            server.redeploy(&d.name, copy).expect("same shape");
            redeploy.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    m.insert("runtime.redeploy_ms", median(&redeploy));
}

/// Encode and decode cost of the deployed artifacts, in process.
fn artifact_costs(artifacts: &[Vec<u8>], m: &mut BTreeMap<&'static str, f64>) {
    if artifacts.is_empty() {
        return;
    }
    let decoded: Vec<ShieldArtifact> = artifacts
        .iter()
        .map(|b| ShieldArtifact::from_bytes(b).expect("deployed artifacts decode"))
        .collect();
    let mean_bytes = artifacts.iter().map(Vec::len).sum::<usize>() as f64 / artifacts.len() as f64;
    m.insert("runtime.artifact_bytes", mean_bytes);
    m.insert(
        "runtime.artifact_encode_ms",
        per_state_us(artifacts.len(), || {
            for a in &decoded {
                black_box(a.to_bytes());
            }
        }) / 1e3,
    );
    m.insert(
        "runtime.artifact_decode_ms",
        per_state_us(artifacts.len(), || {
            for b in artifacts {
                black_box(ShieldArtifact::from_bytes(b).expect("decodes"));
            }
        }) / 1e3,
    );
}
