//! A fault-aware HTTP client for one remote shield shard.
//!
//! [`RemoteShard`] implements [`ShieldBackend`](crate::http::ShieldBackend)
//! over the wire protocol served by
//! [`HttpFrontend`](crate::http::HttpFrontend), so a
//! [`Router`](crate::Router) can treat a shard in another process (or on
//! another machine) exactly like an in-process
//! [`ShieldServer`](crate::server::ShieldServer).  Unlike the test-oriented
//! [`MiniClient`](crate::http::MiniClient) it is built for an unreliable
//! network:
//!
//! - **Deadlines everywhere.**  Connect, write, and read each carry their
//!   own timeout; a dead or black-holed peer surfaces as
//!   [`RemoteError::Timeout`] instead of a hang.  The total worst-case wall
//!   clock for one logical request — retries and backoff included — is
//!   [`RemoteShardConfig::deadline_budget`], which tests assert against.
//! - **Bounded retries with jittered exponential backoff.**  Transport
//!   errors and `5xx` responses are retried up to
//!   [`RemoteShardConfig::max_retries`] times; each attempt `i` sleeps
//!   `min(backoff_cap, backoff_base * 2^i) * U[0,1)` first (full jitter,
//!   drawn from the in-tree [`rand`] stand-in, deterministically seeded).
//!   `4xx` responses are *not* retried: the shard is alive and has given a
//!   definitive answer.
//! - **A per-shard circuit breaker.**  After
//!   [`RemoteShardConfig::breaker_threshold`] consecutive failures the
//!   breaker opens and requests fail fast with [`RemoteError::BreakerOpen`]
//!   — letting the router fail over immediately instead of burning its
//!   deadline budget on a shard known to be down.  After
//!   [`RemoteShardConfig::breaker_cooldown`] one trial request is admitted
//!   (half-open); success closes the breaker, failure re-opens it.  Health
//!   probes (`deployment_generations`, `GET /healthz`) bypass admission
//!   but feed the same state machine, so a recovered shard is healed by
//!   the prober without sacrificing a live request.
//!
//! Each request uses a **fresh TCP connection** (no keep-alive pooling).
//! This costs one handshake per request but makes the fault-injection
//! harness ([`crate::fault`]) deterministic: the proxy scripts faults by
//! accepted-connection index, and one request is exactly one connection.

use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::artifact::ShieldArtifact;
use crate::http::{read_response_from, write_message, MiniResponse, ShieldBackend};
use crate::server::ServeError;
use crate::telemetry::DeploymentTelemetry;
use crate::wire;
use std::io::Write as _;
use vrl::shield::ShieldDecision;

/// Deadlines, retry, and breaker tuning for one [`RemoteShard`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteShardConfig {
    /// Deadline for the TCP connect.
    pub connect_timeout: Duration,
    /// Socket read deadline (covers the whole response read).
    pub read_timeout: Duration,
    /// Socket write deadline (covers the whole request write).
    pub write_timeout: Duration,
    /// Retries *after* the first attempt (so `max_retries = 2` means at
    /// most three attempts).  Only transport errors and `5xx` retry.
    pub max_retries: u32,
    /// Base backoff before retry `i`: `min(cap, base * 2^i)`, then scaled
    /// by a uniform jitter in `[0, 1)`.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep (pre-jitter).
    pub backoff_cap: Duration,
    /// Consecutive failures that trip the breaker open.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before admitting a half-open trial.
    pub breaker_cooldown: Duration,
    /// Seed for the jitter generator — deterministic by default so tests
    /// and replays see identical backoff schedules.
    pub jitter_seed: u64,
}

impl Default for RemoteShardConfig {
    fn default() -> Self {
        RemoteShardConfig {
            connect_timeout: Duration::from_millis(1000),
            read_timeout: Duration::from_millis(2000),
            write_timeout: Duration::from_millis(1000),
            max_retries: 2,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(250),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            jitter_seed: 0x5eed_5eed,
        }
    }
}

impl RemoteShardConfig {
    /// Worst-case wall clock for one logical request through this config:
    /// every attempt spends its full connect + write + read deadlines, and
    /// every backoff sleeps its full (pre-jitter) bound.
    ///
    /// The fault-matrix test asserts that no request — whatever the scripted
    /// fault — takes longer than this budget.
    #[must_use]
    pub fn deadline_budget(&self) -> Duration {
        let per_attempt = self.connect_timeout + self.write_timeout + self.read_timeout;
        let attempts = self.max_retries + 1;
        let mut budget = per_attempt * attempts;
        for retry in 0..self.max_retries {
            budget += self.backoff(retry);
        }
        budget
    }

    /// Pre-jitter backoff bound before retry `i`: `min(cap, base * 2^i)`.
    fn backoff(&self, retry: u32) -> Duration {
        let doubled = self
            .backoff_base
            .saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX));
        doubled.min(self.backoff_cap)
    }
}

/// Why a request to a remote shard failed at the transport level.
///
/// These are the errors that trigger retry, feed the circuit breaker, and
/// (through [`ServeError::Remote`]) drive fleet failover.  A structured
/// *application* error from a live shard is [`ServeError::Shard`] instead
/// and does none of those things.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// TCP connect failed (refused, unreachable, ...).
    Connect {
        /// The shard address.
        addr: SocketAddr,
        /// OS-level detail.
        detail: String,
    },
    /// A deadline expired.
    Timeout {
        /// The shard address.
        addr: SocketAddr,
        /// Which phase timed out: `"connect"`, `"write"`, or `"read"`.
        phase: &'static str,
    },
    /// The connection died mid-request or mid-response.
    Io {
        /// The shard address.
        addr: SocketAddr,
        /// OS-level detail.
        detail: String,
    },
    /// The shard answered bytes that do not parse as the expected protocol
    /// (garbage bytes, malformed status line, undecodable body).
    Protocol {
        /// The shard address.
        addr: SocketAddr,
        /// What failed to parse.
        detail: String,
    },
    /// The shard kept answering `5xx` until the retry budget ran out.
    UpstreamStatus {
        /// The shard address.
        addr: SocketAddr,
        /// The final HTTP status observed.
        status: u16,
    },
    /// The circuit breaker is open: the shard failed
    /// [`RemoteShardConfig::breaker_threshold`] consecutive times recently
    /// and the request was rejected without touching the network.
    BreakerOpen {
        /// The shard address.
        addr: SocketAddr,
    },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Connect { addr, detail } => {
                write!(f, "connect to shard {addr} failed: {detail}")
            }
            RemoteError::Timeout { addr, phase } => {
                write!(f, "{phase} to shard {addr} timed out")
            }
            RemoteError::Io { addr, detail } => {
                write!(f, "i/o with shard {addr} failed: {detail}")
            }
            RemoteError::Protocol { addr, detail } => {
                write!(f, "shard {addr} sent an unparseable response: {detail}")
            }
            RemoteError::UpstreamStatus { addr, status } => {
                write!(f, "shard {addr} kept failing with HTTP {status}")
            }
            RemoteError::BreakerOpen { addr } => {
                write!(f, "circuit breaker for shard {addr} is open")
            }
        }
    }
}

impl std::error::Error for RemoteError {}

/// Observable state of a shard's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally; consecutive failures are being counted.
    Closed,
    /// Requests fail fast; the shard is presumed down.
    Open,
    /// The cooldown elapsed and one trial request is in flight.
    HalfOpen,
}

impl BreakerState {
    /// The metric label for this state (`vrl_remote_breaker_transitions_total{to=...}`).
    fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    /// Whether the single half-open trial slot is taken.
    trial_in_flight: bool,
}

/// Closed → Open → HalfOpen → {Closed, Open} circuit breaker.
///
/// Transport errors and `5xx` responses count as failures; any definitive
/// answer from the shard (2xx–4xx) counts as success.
#[derive(Debug)]
struct Breaker {
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<BreakerInner>,
}

impl Breaker {
    fn new(threshold: u32, cooldown: Duration) -> Self {
        Breaker {
            threshold: threshold.max(1),
            cooldown,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                trial_in_flight: false,
            }),
        }
    }

    fn state(&self) -> BreakerState {
        self.inner.lock().expect("breaker lock poisoned").state
    }

    /// Decides whether a live request may proceed.  `Err(())` means fail
    /// fast with [`RemoteError::BreakerOpen`].
    fn admit(&self) -> Result<(), ()> {
        let mut inner = self.inner.lock().expect("breaker lock poisoned");
        match inner.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open => {
                let cooled = inner
                    .opened_at
                    .is_some_and(|at| at.elapsed() >= self.cooldown);
                if cooled {
                    inner.state = BreakerState::HalfOpen;
                    inner.trial_in_flight = true;
                    crate::obs::breaker_transitions(BreakerState::HalfOpen.label()).inc();
                    Ok(())
                } else {
                    Err(())
                }
            }
            BreakerState::HalfOpen => {
                if inner.trial_in_flight {
                    Err(())
                } else {
                    inner.trial_in_flight = true;
                    Ok(())
                }
            }
        }
    }

    /// Records a definitive answer from the shard: reset to closed.
    fn on_success(&self) {
        let mut inner = self.inner.lock().expect("breaker lock poisoned");
        if inner.state != BreakerState::Closed {
            crate::obs::breaker_transitions(BreakerState::Closed.label()).inc();
        }
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.opened_at = None;
        inner.trial_in_flight = false;
    }

    /// Records a transport-level failure (or exhausted `5xx` retries).
    fn on_failure(&self) {
        let mut inner = self.inner.lock().expect("breaker lock poisoned");
        inner.trial_in_flight = false;
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.threshold {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Some(Instant::now());
                    crate::obs::breaker_transitions(BreakerState::Open.label()).inc();
                }
            }
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at = Some(Instant::now());
                crate::obs::breaker_transitions(BreakerState::Open.label()).inc();
            }
            BreakerState::Open => {}
        }
    }
}

/// One remote shield shard, addressed over the HTTP wire protocol.
///
/// Implements [`ShieldBackend`], so anything that can serve from a
/// [`ShieldServer`](crate::server::ShieldServer) — including another
/// [`HttpFrontend`](crate::http::HttpFrontend) — can serve from a shard in
/// a different process.  See the module docs for the fault model.
#[derive(Debug)]
pub struct RemoteShard {
    addr: SocketAddr,
    config: RemoteShardConfig,
    breaker: Breaker,
    jitter: Mutex<SmallRng>,
    /// Reusable request-head and response read buffer; connections are
    /// per-request but the buffer's capacity survives them, so steady-state
    /// shard traffic does not reallocate the write or read path.
    scratch: Mutex<Vec<u8>>,
    /// Reusable decide request body.  A call takes it out for the whole
    /// request, retries included, so concurrent calls never wait on it;
    /// one that finds it taken encodes into a fresh buffer.
    decide_body: Mutex<String>,
}

impl RemoteShard {
    /// Creates a client for the shard at `addr` with default tuning.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        RemoteShard::with_config(addr, RemoteShardConfig::default())
    }

    /// Creates a client for the shard at `addr` with explicit tuning.
    #[must_use]
    pub fn with_config(addr: SocketAddr, config: RemoteShardConfig) -> Self {
        let breaker = Breaker::new(config.breaker_threshold, config.breaker_cooldown);
        let jitter = Mutex::new(SmallRng::seed_from_u64(config.jitter_seed));
        RemoteShard {
            addr,
            config,
            breaker,
            jitter,
            scratch: Mutex::new(Vec::new()),
            decide_body: Mutex::new(String::new()),
        }
    }

    /// The shard's address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The client's configuration.
    #[must_use]
    pub fn config(&self) -> &RemoteShardConfig {
        &self.config
    }

    /// Current circuit-breaker state (for tests and operators).
    #[must_use]
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// One attempt: fresh connection, write request, read response.
    fn attempt(&self, method: &str, path: &str, body: &[u8]) -> Result<MiniResponse, RemoteError> {
        let addr = self.addr;
        let timeout_err = |phase: &'static str| RemoteError::Timeout { addr, phase };
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout).map_err(
            |error| match error.kind() {
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                    timeout_err("connect")
                }
                _ => RemoteError::Connect {
                    addr,
                    detail: error.to_string(),
                },
            },
        )?;
        let mut stream = stream;
        let io_err = |error: std::io::Error, phase: &'static str| match error.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => timeout_err(phase),
            std::io::ErrorKind::InvalidData => RemoteError::Protocol {
                addr,
                detail: error.to_string(),
            },
            _ => RemoteError::Io {
                addr,
                detail: error.to_string(),
            },
        };
        stream.set_nodelay(true).map_err(|e| io_err(e, "write"))?;
        stream
            .set_read_timeout(Some(self.config.read_timeout))
            .map_err(|e| io_err(e, "read"))?;
        stream
            .set_write_timeout(Some(self.config.write_timeout))
            .map_err(|e| io_err(e, "write"))?;
        // The scratch buffer holds the request head, then the response.
        let mut scratch = self.scratch.lock().expect("scratch lock poisoned");
        scratch.clear();
        write!(
            scratch,
            "{method} {path} HTTP/1.1\r\nhost: vrl\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .and_then(|()| write_message(&mut stream, &scratch, body))
        .map_err(|e| io_err(e, "write"))?;
        read_response_from(&mut stream, &mut scratch).map_err(|e| io_err(e, "read"))
    }

    /// Full request path: breaker admission, bounded retries with jittered
    /// backoff, breaker accounting.  Returns the response for any status
    /// below 500 (the caller decodes success and application errors).
    fn request(&self, method: &str, path: &str, body: &[u8]) -> Result<MiniResponse, RemoteError> {
        if self.breaker.admit().is_err() {
            crate::obs::breaker_rejections().inc();
            return Err(RemoteError::BreakerOpen { addr: self.addr });
        }
        let mut last_error;
        let mut attempt_index = 0u32;
        loop {
            match self.attempt(method, path, body) {
                Ok(response) if response.status < 500 => {
                    self.breaker.on_success();
                    return Ok(response);
                }
                Ok(response) => {
                    last_error = RemoteError::UpstreamStatus {
                        addr: self.addr,
                        status: response.status,
                    };
                }
                Err(error) => {
                    if matches!(error, RemoteError::Timeout { .. }) {
                        crate::obs::remote_timeouts().inc();
                    }
                    last_error = error;
                }
            }
            if attempt_index >= self.config.max_retries {
                self.breaker.on_failure();
                return Err(last_error);
            }
            let bound = self.config.backoff(attempt_index);
            let jitter: f64 = self
                .jitter
                .lock()
                .expect("jitter lock poisoned")
                .gen_range(0.0..1.0);
            std::thread::sleep(bound.mul_f64(jitter));
            crate::obs::remote_retries().inc();
            attempt_index += 1;
        }
    }

    /// Maps a non-2xx response from a live shard to a [`ServeError`].
    fn shard_error(&self, deployment: &str, response: &MiniResponse) -> ServeError {
        match wire::decode_error_body(&response.body) {
            Some((status, code, message)) => {
                if status == 404 && code == "unknown_deployment" {
                    ServeError::UnknownDeployment(deployment.to_string())
                } else {
                    ServeError::Shard {
                        status,
                        code,
                        message,
                    }
                }
            }
            None => ServeError::Remote(RemoteError::Protocol {
                addr: self.addr,
                detail: format!("HTTP {} with undecodable error envelope", response.status),
            }),
        }
    }

    /// Decides a batch on the remote shard.
    ///
    /// States and decisions cross the wire as JSON ([`crate::wire`]),
    /// whose shortest-round-trip number rendering is bit-exact, so the
    /// decisions that come back are bit-identical to calling
    /// `decide_batch` in the shard's process.  JSON cannot spell NaN or
    /// ±inf, so a non-finite state is refused here, before any network
    /// round trip, with the error the shard itself would give.
    ///
    /// # Errors
    ///
    /// [`ServeError::NonFiniteState`] when any coordinate is NaN or ±inf
    /// (no request is sent, so no retry and no breaker tick);
    /// [`ServeError::Remote`] on transport failure after retries (or
    /// breaker-open), [`ServeError::UnknownDeployment`] /
    /// [`ServeError::Shard`] on structured shard answers.
    pub fn decide_batch_remote(
        &self,
        deployment: &str,
        states: &[Vec<f64>],
    ) -> Result<Vec<ShieldDecision>, ServeError> {
        if !states.iter().flatten().all(|x| x.is_finite()) {
            return Err(ServeError::NonFiniteState);
        }
        let mut body = std::mem::take(&mut *self.decide_body.lock().expect("body lock poisoned"));
        wire::decide_batch_request_into(states, &mut body);
        let path = format!("/v1/deployments/{deployment}/decide");
        let response = self.request("POST", &path, body.as_bytes());
        *self.decide_body.lock().expect("body lock poisoned") = body;
        let response = response.map_err(ServeError::Remote)?;
        if response.status != 200 {
            return Err(self.shard_error(deployment, &response));
        }
        wire::decode_decide_response(&response.body).map_err(|error| {
            ServeError::Remote(RemoteError::Protocol {
                addr: self.addr,
                detail: format!("bad decide response: {error}"),
            })
        })
    }

    /// Deploys (or hot-redeploys) already-encoded artifact bytes, returning
    /// the shard's new generation for the deployment.
    ///
    /// # Errors
    ///
    /// As [`RemoteShard::decide_batch_remote`].
    pub fn put_artifact_bytes(&self, deployment: &str, bytes: &[u8]) -> Result<u64, ServeError> {
        let path = format!("/v1/deployments/{deployment}");
        let response = self
            .request("PUT", &path, bytes)
            .map_err(ServeError::Remote)?;
        if response.status != 200 {
            return Err(self.shard_error(deployment, &response));
        }
        wire::decode_deployed_response(&response.body).map_err(|error| {
            ServeError::Remote(RemoteError::Protocol {
                addr: self.addr,
                detail: format!("bad deploy response: {error}"),
            })
        })
    }

    /// Fetches the shard's telemetry snapshot for a deployment.
    ///
    /// # Errors
    ///
    /// As [`RemoteShard::decide_batch_remote`].
    pub fn fetch_telemetry(&self, deployment: &str) -> Result<DeploymentTelemetry, ServeError> {
        let path = format!("/v1/deployments/{deployment}/telemetry");
        let response = self
            .request("GET", &path, b"")
            .map_err(ServeError::Remote)?;
        if response.status != 200 {
            return Err(self.shard_error(deployment, &response));
        }
        wire::decode_telemetry_response(&response.body).map_err(|error| {
            ServeError::Remote(RemoteError::Protocol {
                addr: self.addr,
                detail: format!("bad telemetry response: {error}"),
            })
        })
    }

    /// Removes a deployment on the shard; `Ok(true)` when it existed.
    ///
    /// # Errors
    ///
    /// As [`RemoteShard::decide_batch_remote`], except an
    /// unknown-deployment answer decodes to `Ok(false)`.
    pub fn undeploy_remote(&self, deployment: &str) -> Result<bool, ServeError> {
        let path = format!("/v1/deployments/{deployment}");
        let response = self
            .request("DELETE", &path, b"")
            .map_err(ServeError::Remote)?;
        if response.status == 200 {
            return Ok(true);
        }
        match self.shard_error(deployment, &response) {
            ServeError::UnknownDeployment(_) => Ok(false),
            error => Err(error),
        }
    }
}

impl ShieldBackend for RemoteShard {
    fn put_artifact(&self, name: &str, artifact: ShieldArtifact) -> Result<u64, ServeError> {
        self.put_artifact_bytes(name, &artifact.to_bytes())
    }

    fn decide_batch(
        &self,
        name: &str,
        states: &[Vec<f64>],
    ) -> Result<Vec<ShieldDecision>, ServeError> {
        self.decide_batch_remote(name, states)
    }

    fn backend_telemetry(&self, name: &str) -> Result<DeploymentTelemetry, ServeError> {
        self.fetch_telemetry(name)
    }

    /// The health probe: one `GET /healthz` attempt, no retries, no
    /// breaker admission — but the outcome feeds the breaker, so a
    /// succeeding probe heals an open breaker without risking a live
    /// request.
    fn deployment_generations(&self) -> Result<Vec<(String, u64)>, ServeError> {
        let outcome = self.attempt("GET", "/healthz", b"").and_then(|response| {
            if response.status != 200 {
                return Err(RemoteError::UpstreamStatus {
                    addr: self.addr,
                    status: response.status,
                });
            }
            wire::decode_health_response(&response.body).map_err(|error| RemoteError::Protocol {
                addr: self.addr,
                detail: format!("bad healthz response: {error}"),
            })
        });
        match &outcome {
            Ok(_) => self.breaker.on_success(),
            Err(_) => self.breaker.on_failure(),
        }
        outcome
            .map(|(_uptime, deployments)| deployments)
            .map_err(ServeError::Remote)
    }

    fn remove_deployment(&self, name: &str) -> Result<bool, ServeError> {
        self.undeploy_remote(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn dead_addr() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        drop(listener);
        addr
    }

    fn fast_config() -> RemoteShardConfig {
        RemoteShardConfig {
            connect_timeout: Duration::from_millis(100),
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_millis(100),
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(50),
            ..RemoteShardConfig::default()
        }
    }

    #[test]
    fn budget_sums_attempts_and_backoffs() {
        let config = RemoteShardConfig {
            connect_timeout: Duration::from_millis(10),
            read_timeout: Duration::from_millis(20),
            write_timeout: Duration::from_millis(5),
            max_retries: 2,
            backoff_base: Duration::from_millis(4),
            backoff_cap: Duration::from_millis(6),
            ..RemoteShardConfig::default()
        };
        // 3 attempts * 35ms + backoffs min(6,4) + min(6,8) = 105 + 10.
        assert_eq!(config.deadline_budget(), Duration::from_millis(115));
    }

    #[test]
    fn refused_connect_trips_breaker_then_fails_fast() {
        let shard = RemoteShard::with_config(dead_addr(), fast_config());
        assert_eq!(shard.breaker_state(), BreakerState::Closed);
        // Each request makes 2 attempts; threshold 2 trips after two requests.
        let first = shard.decide_batch_remote("pend", &[vec![0.0]]);
        assert!(matches!(
            first,
            Err(ServeError::Remote(RemoteError::Connect { .. }))
        ));
        let second = shard.decide_batch_remote("pend", &[vec![0.0]]);
        assert!(second.is_err());
        assert_eq!(shard.breaker_state(), BreakerState::Open);
        let third = shard.decide_batch_remote("pend", &[vec![0.0]]);
        assert!(matches!(
            third,
            Err(ServeError::Remote(RemoteError::BreakerOpen { .. }))
        ));
    }

    #[test]
    fn non_finite_states_are_refused_without_a_connect_or_a_breaker_tick() {
        // The shard is unreachable, so any request that went to the network
        // would fail to connect and count towards the breaker.  Non-finite
        // states, well past the breaker threshold, must never get that far.
        let shard = RemoteShard::with_config(dead_addr(), fast_config());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN] {
            let refused = shard.decide_batch_remote("pend", &[vec![0.0], vec![bad]]);
            assert!(
                matches!(refused, Err(ServeError::NonFiniteState)),
                "{bad}: {refused:?}"
            );
        }
        assert_eq!(shard.breaker_state(), BreakerState::Closed);
        // The finite control does reach the network.
        let finite = shard.decide_batch_remote("pend", &[vec![0.0]]);
        assert!(matches!(
            finite,
            Err(ServeError::Remote(RemoteError::Connect { .. }))
        ));
    }

    #[test]
    fn breaker_goes_half_open_after_cooldown_and_reopens_on_failure() {
        let shard = RemoteShard::with_config(dead_addr(), fast_config());
        for _ in 0..2 {
            let _ = shard.decide_batch_remote("pend", &[vec![0.0]]);
        }
        assert_eq!(shard.breaker_state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(60));
        // Cooldown elapsed: one trial is admitted, fails, re-opens.
        let trial = shard.decide_batch_remote("pend", &[vec![0.0]]);
        assert!(matches!(
            trial,
            Err(ServeError::Remote(RemoteError::Connect { .. }))
        ));
        assert_eq!(shard.breaker_state(), BreakerState::Open);
    }

    #[test]
    fn probe_failure_and_success_drive_breaker() {
        let shard = RemoteShard::with_config(dead_addr(), fast_config());
        assert!(shard.deployment_generations().is_err());
        assert!(shard.deployment_generations().is_err());
        assert_eq!(shard.breaker_state(), BreakerState::Open);
    }
}
