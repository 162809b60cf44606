//! A dependency-free HTTP/1.1 front-end over the shield serving core.
//!
//! The workspace's hermetic policy (see `crates/compat`) rules out hyper,
//! tokio, and friends, and the serving core is deliberately synchronous
//! (`ShieldServer` is `Send + Sync` with a lock-free snapshot hot path), so
//! this front-end is a plain blocking `TcpListener`: one acceptor thread
//! spawns a serving thread per connection (bounded by
//! [`HttpConfig::max_connections`]; connections beyond the bound get an
//! explicit `503` instead of queueing unserved), and each serving thread
//! runs a keep-alive request loop.  No epoll, no futures — for a CPU-bound
//! decide workload a thread per live connection is the right shape, and
//! the batched request body keeps the per-request HTTP overhead amortized
//! across whole lanes of decisions.
//!
//! # Endpoints
//!
//! | Method & path | Meaning |
//! |---|---|
//! | `POST /v1/deployments/{name}/decide` | Decide one state or a batch (JSON body, see [`crate::wire`]) |
//! | `PUT /v1/deployments/{name}` | Upload a checksummed [`ShieldArtifact`] (raw binary body) for deploy / hot redeploy |
//! | `DELETE /v1/deployments/{name}` | Remove a deployment |
//! | `GET /v1/deployments/{name}/telemetry` | Per-deployment serving telemetry |
//! | `GET /healthz` | Liveness: uptime plus per-deployment generations |
//! | `GET /metrics` | Prometheus text exposition of the process-wide [`vrl_obs`] registry |
//!
//! Both single-state and batched decide bodies are routed through the
//! backend's `decide_batch`, so the lane-batched evaluation kernels carry
//! all HTTP traffic.  Error responses always carry the structured JSON body
//! of [`wire::error_body`]; the status mapping is documented on
//! [`error_status`] and in the README's wire-protocol reference.
//!
//! # One codec and the scratch pool
//!
//! The decide endpoint speaks JSON only ([`crate::wire`]), whatever the
//! request's `Content-Type` says; its shortest-round-trip number rendering
//! carries every finite `f64` bit-exactly, so no second codec is needed
//! for exactness.  Every connection owns a scratch pool
//! (read buffer, body buffer, request path and id, response head and
//! body, decoded state matrix — see `crate::arena`) reused across
//! keep-alive requests, so steady-state framing, request decoding and
//! response encoding allocate nothing: the decide body is parsed straight
//! into the state matrix, with no [`wire::Json`] tree.  What still
//! allocates per decide: the backend returns its decisions in a fresh
//! `Vec`, and with observability on the request span copies its id.
//!
//! # One write per message
//!
//! Every HTTP message this crate sends — server responses, [`MiniClient`]
//! requests, and [`RemoteShard`](crate::RemoteShard) requests — leaves in
//! one vectored write of its head and body (`write_message`), so a
//! reader on a `TCP_NODELAY` socket wakes once per message, not twice.
//!
//! # Request ids
//!
//! Every response carries an `x-request-id` header: the client's value when
//! the request supplied one (up to 128 printable-ASCII bytes; anything else
//! is treated as absent), a generated `req-<16 hex>` otherwise.  The same id
//! tags the request's trace span ([`vrl_obs::request_span`]) and the
//! `request_id` field of every JSON error envelope, so a failing response
//! can be joined to its span record without any shared clock.
//!
//! # Backends
//!
//! The front-end serves anything implementing [`ShieldBackend`]: a plain
//! [`ShieldServer`] (single process), a [`RemoteShard`](crate::RemoteShard)
//! (a shard in another process), or a [`Router`](crate::Router) over either
//! (deployments replicated across shards).  See the crate-level example
//! and `examples/http_server.rs` for the end-to-end story.

use crate::arena::ConnScratch;
use crate::artifact::{ArtifactError, ShieldArtifact};
use crate::server::{ServeError, ShieldServer};
use crate::telemetry::DeploymentTelemetry;
use crate::wire::{self, WireError};
use std::borrow::Cow;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vrl::shield::ShieldDecision;

/// The serving operations the HTTP front-end needs from its backend.
///
/// Implemented by [`ShieldServer`] (all deployments in-process),
/// [`RemoteShard`](crate::RemoteShard) (a shard over the wire), and
/// [`Router`](crate::Router) (deployments replicated across shards of
/// either kind); the front-end is written against this trait so moving
/// from one process to a fleet is a constructor change, not a protocol
/// change.
pub trait ShieldBackend: Send + Sync + 'static {
    /// Deploys `artifact` under `name`, hot-replacing any existing
    /// deployment (HTTP `PUT` semantics).  Returns the generation now
    /// serving.
    fn put_artifact(&self, name: &str, artifact: ShieldArtifact) -> Result<u64, ServeError>;

    /// Decides a batch of states against a deployment.
    fn decide_batch(
        &self,
        name: &str,
        states: &[Vec<f64>],
    ) -> Result<Vec<ShieldDecision>, ServeError>;

    /// A point-in-time copy of a deployment's telemetry.
    fn backend_telemetry(&self, name: &str) -> Result<DeploymentTelemetry, ServeError>;

    /// `(name, generation)` for every current deployment, sorted by name —
    /// what `GET /healthz` reports, and what a [`Router`](crate::Router)'s
    /// prober asks each shard.  A deployment undeployed between the name
    /// listing and the generation lookup is skipped rather than erroring
    /// the whole health probe.
    ///
    /// # Errors
    ///
    /// When the backend cannot be reached ([`ServeError::Remote`]).
    fn deployment_generations(&self) -> Result<Vec<(String, u64)>, ServeError>;

    /// Removes a deployment (HTTP `DELETE` semantics).  `Ok(true)` when it
    /// existed, `Ok(false)` when there was nothing to remove.
    fn remove_deployment(&self, name: &str) -> Result<bool, ServeError>;
}

impl ShieldBackend for ShieldServer {
    fn put_artifact(&self, name: &str, artifact: ShieldArtifact) -> Result<u64, ServeError> {
        self.deploy_or_redeploy(name, artifact)
    }

    fn decide_batch(
        &self,
        name: &str,
        states: &[Vec<f64>],
    ) -> Result<Vec<ShieldDecision>, ServeError> {
        ShieldServer::decide_batch(self, name, states)
    }

    fn backend_telemetry(&self, name: &str) -> Result<DeploymentTelemetry, ServeError> {
        self.telemetry(name)
    }

    fn deployment_generations(&self) -> Result<Vec<(String, u64)>, ServeError> {
        Ok(self
            .deployments()
            .into_iter()
            .filter_map(|name| {
                let generation = self.generation(&name).ok()?;
                Some((name, generation))
            })
            .collect())
    }

    fn remove_deployment(&self, name: &str) -> Result<bool, ServeError> {
        Ok(ShieldServer::undeploy(self, name))
    }
}

/// Tunables of the HTTP front-end.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Maximum concurrent connections (one serving thread each); further
    /// connections are answered with `503` until a slot frees up.
    pub max_connections: usize,
    /// Largest request body accepted, in bytes (decide JSON or artifact
    /// upload); larger requests get `413`.
    pub max_body_bytes: usize,
    /// Largest number of states accepted per decide request; larger batches
    /// get `413` with a structured body.
    pub max_batch: usize,
    /// How long an idle keep-alive connection may sit between requests
    /// before the worker closes it.  Also bounds how long shutdown waits on
    /// idle connections.
    pub idle_timeout: Duration,
    /// How long shutdown waits for in-flight connections to drain before
    /// detaching them.  Requests already dispatched complete within this
    /// deadline (idle keep-alive connections notice the stop flag within
    /// one `idle_timeout`); a wedged connection cannot block a restart
    /// beyond it.
    pub shutdown_deadline: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            max_connections: 256,
            max_body_bytes: 64 << 20,
            max_batch: 8192,
            idle_timeout: Duration::from_secs(5),
            shutdown_deadline: Duration::from_secs(10),
        }
    }
}

/// Maximum bytes of request line + headers before the request is rejected.
const MAX_HEAD_BYTES: usize = 16 << 10;

/// A running HTTP front-end.
///
/// Binds on construction ([`HttpFrontend::bind`]), serves until
/// [`shutdown`](HttpFrontend::shutdown) or drop, and exposes the bound
/// address ([`local_addr`](HttpFrontend::local_addr)) so callers can bind
/// port 0 in tests and benches.
#[derive(Debug)]
pub struct HttpFrontend {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl HttpFrontend {
    /// Binds `addr` and starts serving `backend`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the address cannot be bound.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn ShieldBackend>,
        config: HttpConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Register the full cross-layer metric catalog up front so the
        // first `GET /metrics` scrape sees every series at zero.
        crate::obs::install_metrics();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("vrl-http-accept".to_string())
                .spawn(move || accept_loop(&listener, &backend, &config, &stop))?
        };
        Ok(HttpFrontend {
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the serving threads.  Requests
    /// already in flight complete; idle keep-alive connections are closed
    /// within the configured idle timeout.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with one throwaway connection to itself.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpFrontend {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop_and_join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    backend: &Arc<dyn ShieldBackend>,
    config: &HttpConfig,
    stop: &Arc<AtomicBool>,
) {
    // One thread per live connection (keep-alive loops block on their
    // socket between requests, so a fixed pool would let `workers` idle
    // clients starve every later connection); `max_connections` bounds the
    // thread count, and connections beyond it get an explicit 503 instead
    // of queueing unserved.
    let active = Arc::new(AtomicUsize::new(0));
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        handles.retain(|handle| !handle.is_finished());
        if active.load(Ordering::SeqCst) >= config.max_connections {
            let mut request_id = String::new();
            generate_request_id(&mut request_id);
            let mut response = Response::error(
                503,
                "overloaded",
                &format!(
                    "all {} connection slots are busy; retry shortly",
                    config.max_connections
                ),
                &request_id,
            );
            response.retry_after = Some(1);
            crate::obs::http_overload().inc();
            crate::obs::http_requests().with("503").inc();
            let _ = write_response(&mut stream, &mut Vec::new(), &response, true, &request_id);
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let thread_active = Arc::clone(&active);
        let backend = Arc::clone(backend);
        let config = config.clone();
        let stop = Arc::clone(stop);
        let handle = std::thread::Builder::new()
            .name("vrl-http-conn".to_string())
            .spawn(move || {
                serve_connection(stream, &*backend, &config, &stop);
                thread_active.fetch_sub(1, Ordering::SeqCst);
            });
        match handle {
            Ok(handle) => handles.push(handle),
            Err(_) => {
                active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
    // Drain in-flight connections, but never past the shutdown deadline:
    // requests already dispatched get `shutdown_deadline` to complete
    // (idle keep-alive connections notice the stop flag within one idle
    // timeout), and anything still wedged after that is detached so a
    // restart cannot hang on one stuck socket.
    let deadline = std::time::Instant::now() + config.shutdown_deadline;
    while handles.iter().any(|handle| !handle.is_finished()) && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    for handle in handles {
        if handle.is_finished() {
            let _ = handle.join();
        }
    }
}

/// One connection's keep-alive loop: read a request, dispatch, respond,
/// repeat until the client closes, asks for `Connection: close`, errors, or
/// the frontend shuts down.
fn serve_connection(
    mut stream: TcpStream,
    backend: &dyn ShieldBackend,
    config: &HttpConfig,
    stop: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.idle_timeout));
    crate::obs::http_active_connections().add(1.0);
    // One scratch pool for the whole keep-alive loop, reused across
    // requests: framing and response encoding allocate nothing once it
    // is warm (the module docs name what still allocates).
    let mut scratch = ConnScratch::default();
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match read_request(&mut stream, &mut scratch, config) {
            Ok(Some(request)) => {
                if scratch.request_id.is_empty() {
                    generate_request_id(&mut scratch.request_id);
                }
                let mut response = {
                    let _span = vrl_obs::request_span("http.request", &scratch.request_id);
                    dispatch(&request, &mut scratch, backend, config)
                };
                crate::obs::http_requests()
                    .with(&status_label(response.status).0)
                    .inc();
                let write_failed = write_response(
                    &mut stream,
                    &mut scratch.head,
                    &response,
                    request.close,
                    &scratch.request_id,
                )
                .is_err();
                // Reclaim the response buffer (decide responses encode
                // straight into it) for the next request.
                scratch.out = std::mem::take(&mut response.body);
                if write_failed || request.close {
                    break;
                }
            }
            // Clean end of the connection (EOF or idle timeout between
            // requests).
            Ok(None) => break,
            Err(reject) => {
                let request_id = &mut scratch.request_id;
                generate_request_id(request_id);
                let response =
                    Response::error(reject.status, reject.code, &reject.message, request_id);
                crate::obs::http_requests()
                    .with(&status_label(reject.status).0)
                    .inc();
                let _ = write_response(&mut stream, &mut scratch.head, &response, true, request_id);
                break;
            }
        }
    }
    crate::obs::http_active_connections().sub(1.0);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Writes a fresh `req-<16 hex>` id into `out` (cleared first) for a
/// request that did not supply one (or a connection rejected before a
/// request could be framed).  The id hashes a wall-clock timestamp with a
/// process-wide sequence number, so ids are unique within a process and
/// almost surely across a fleet.
fn generate_request_id(out: &mut String) {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let sequence = NEXT.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&nanos.to_le_bytes());
    key[8..].copy_from_slice(&sequence.to_le_bytes());
    use std::fmt::Write as _;
    out.clear();
    let _ = write!(out, "req-{:016x}", crate::codec::fnv1a64(&key));
}

/// A client-supplied request id is honored only when it is non-empty,
/// at most 128 bytes, and printable ASCII (no spaces or controls) — it is
/// echoed into a response header and JSON error envelopes, so anything
/// else is treated as absent rather than reflected.
fn valid_request_id(value: &str) -> bool {
    !value.is_empty() && value.len() <= 128 && value.bytes().all(|b| (0x21..=0x7e).contains(&b))
}

/// One framed request.  The body, the path (without any query string),
/// and the client's valid `x-request-id` (empty when absent) live in the
/// connection's [`ConnScratch`] buffers, not here.
struct Request {
    method: Method,
    close: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    Get,
    Post,
    Put,
    Delete,
    Other,
}

/// An HTTP-level rejection produced while the request was still being
/// framed; the connection closes after it is reported.
struct Reject {
    status: u16,
    code: &'static str,
    message: String,
}

impl Reject {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        Reject {
            status,
            code,
            message: message.into(),
        }
    }
}

/// Reads one request head + body into the connection scratch.  `Ok(None)`
/// is a clean connection end: EOF or an idle timeout with no bytes of a new
/// request read yet.  On success the body is in `scratch.body`, the path
/// in `scratch.path`, the client's request id (or nothing) in
/// `scratch.request_id`, and any pipelined bytes of the *next* request
/// stay at the front of `scratch.read_buf`.
fn read_request(
    stream: &mut TcpStream,
    scratch: &mut ConnScratch,
    config: &HttpConfig,
) -> Result<Option<Request>, Reject> {
    let buffer = &mut scratch.read_buf;
    // Accumulate until the blank line ending the head.
    let head_end = loop {
        if let Some(pos) = find_head_end(buffer) {
            break pos;
        }
        if buffer.len() > MAX_HEAD_BYTES {
            return Err(Reject::new(
                431,
                "headers_too_large",
                format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            ));
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buffer.is_empty() {
                    return Ok(None);
                }
                return Err(Reject::new(
                    400,
                    "truncated_request",
                    "connection closed mid-request head",
                ));
            }
            Ok(n) => buffer.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if buffer.is_empty() {
                    return Ok(None);
                }
                return Err(Reject::new(
                    408,
                    "request_timeout",
                    "timed out reading the request head",
                ));
            }
            Err(_) => return Ok(None),
        }
    };

    // Parse the head in place; the path and request id are copied into
    // their reused buffers before the read buffer is touched.
    let head = std::str::from_utf8(&buffer[..head_end])
        .map_err(|_| Reject::new(400, "bad_request", "request head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method_str, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => {
            return Err(Reject::new(
                400,
                "bad_request",
                format!("malformed request line {request_line:?}"),
            ))
        }
    };
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(Reject::new(
            505,
            "http_version_not_supported",
            format!("unsupported protocol version {version:?}"),
        ));
    }
    let method = match method_str {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "PUT" => Method::Put,
        "DELETE" => Method::Delete,
        _ => Method::Other,
    };

    let mut content_length: usize = 0;
    let mut has_length = false;
    let mut close = version == "HTTP/1.0";
    let mut expects_continue = false;
    scratch.request_id.clear();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .parse()
                .map_err(|_| Reject::new(400, "bad_request", "unparseable Content-Length"))?;
            // RFC 9112 §6.3: conflicting Content-Length values must be
            // rejected — with keep-alive pipelining, parsing a different
            // body boundary than an upstream proxy is a smuggling vector.
            if has_length && parsed != content_length {
                return Err(Reject::new(
                    400,
                    "bad_request",
                    "conflicting Content-Length headers",
                ));
            }
            content_length = parsed;
            has_length = true;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(Reject::new(
                501,
                "not_implemented",
                "chunked transfer encoding is not supported; send Content-Length",
            ));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expects_continue = true;
        } else if name.eq_ignore_ascii_case("x-request-id") && valid_request_id(value) {
            scratch.request_id.clear();
            scratch.request_id.push_str(value);
        }
    }

    scratch.path.clear();
    scratch
        .path
        .push_str(target.split('?').next().unwrap_or_default());

    if matches!(method, Method::Post | Method::Put) && !has_length {
        return Err(Reject::new(
            411,
            "length_required",
            "POST and PUT require a Content-Length header",
        ));
    }
    if content_length > config.max_body_bytes {
        return Err(Reject::new(
            413,
            "body_too_large",
            format!(
                "declared body of {content_length} bytes exceeds the {} byte limit",
                config.max_body_bytes
            ),
        ));
    }
    if expects_continue {
        // curl sends Expect: 100-continue for large artifact uploads.
        let _ = write_message(stream, b"HTTP/1.1 100 Continue\r\n\r\n", &[]);
    }

    // The body: whatever is already buffered past the head, then the rest
    // from the socket, copied into the connection's reusable body buffer.
    let body = &mut scratch.body;
    body.clear();
    let buffered = buffer.len() - head_end;
    let from_buffer = buffered.min(content_length);
    body.extend_from_slice(&buffer[head_end..head_end + from_buffer]);
    // Bytes past the declared body start the next pipelined request; slide
    // them to the front of the read buffer.
    buffer.copy_within(head_end + from_buffer.., 0);
    buffer.truncate(buffered - from_buffer);
    while body.len() < content_length {
        let mut chunk = [0u8; 8192];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(Reject::new(
                    400,
                    "truncated_body",
                    format!(
                        "connection closed after {} of {content_length} body bytes",
                        body.len()
                    ),
                ))
            }
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(Reject::new(
                    408,
                    "request_timeout",
                    format!(
                        "timed out after {} of {content_length} body bytes",
                        body.len()
                    ),
                ))
            }
            Err(_) => {
                return Err(Reject::new(
                    400,
                    "truncated_body",
                    "connection error while reading the body",
                ))
            }
        }
    }
    // A chunk read may overshoot into the next pipelined request; hand the
    // excess back to the read buffer (it is empty in that case — the body
    // loop only runs once the buffered bytes were fully consumed).
    if body.len() > content_length {
        scratch.read_buf.extend_from_slice(&body[content_length..]);
        body.truncate(content_length);
    }

    Ok(Some(Request { method, close }))
}

fn find_head_end(buffer: &[u8]) -> Option<usize> {
    buffer
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|pos| pos + 4)
}

/// JSON content type of every endpoint except the Prometheus scrape.
const CONTENT_TYPE_JSON: &str = "application/json";
/// Prometheus text exposition format version served by `GET /metrics`.
const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4";

struct Response {
    status: u16,
    body: Vec<u8>,
    content_type: &'static str,
    /// Seconds for a `Retry-After` header, on 503s where the client should
    /// back off and try again (overload shedding, all replicas down).
    retry_after: Option<u64>,
}

impl Response {
    fn ok(body: String) -> Self {
        Response {
            status: 200,
            body: body.into_bytes(),
            content_type: CONTENT_TYPE_JSON,
            retry_after: None,
        }
    }

    fn ok_with_type(body: String, content_type: &'static str) -> Self {
        Response {
            status: 200,
            body: body.into_bytes(),
            content_type,
            retry_after: None,
        }
    }

    /// A JSON `200` whose body is already-encoded bytes (decide responses,
    /// taken from the connection's scratch buffer).
    fn ok_bytes(body: Vec<u8>) -> Self {
        Response {
            status: 200,
            body,
            content_type: CONTENT_TYPE_JSON,
            retry_after: None,
        }
    }

    fn error(status: u16, code: &str, message: &str, request_id: &str) -> Self {
        Response {
            status,
            body: wire::error_body(status, code, message, request_id).into_bytes(),
            content_type: CONTENT_TYPE_JSON,
            retry_after: None,
        }
    }
}

/// A status code's decimal spelling (the `vrl_http_requests_total` label,
/// borrowed for every status the front-end produces) and its reason phrase.
fn status_label(status: u16) -> (Cow<'static, str>, &'static str) {
    let (code, reason) = match status {
        200 => ("200", "OK"),
        400 => ("400", "Bad Request"),
        404 => ("404", "Not Found"),
        405 => ("405", "Method Not Allowed"),
        408 => ("408", "Request Timeout"),
        409 => ("409", "Conflict"),
        411 => ("411", "Length Required"),
        413 => ("413", "Payload Too Large"),
        422 => ("422", "Unprocessable Entity"),
        431 => ("431", "Request Header Fields Too Large"),
        500 => ("500", "Internal Server Error"),
        501 => ("501", "Not Implemented"),
        502 => ("502", "Bad Gateway"),
        503 => ("503", "Service Unavailable"),
        505 => ("505", "HTTP Version Not Supported"),
        // A status relayed from a shard that this front-end never
        // produces itself.
        _ => return (Cow::Owned(status.to_string()), "Error"),
    };
    (Cow::Borrowed(code), reason)
}

/// Formats the response head into `head` (cleared first) and sends head
/// and body in one write.
fn write_response(
    stream: &mut impl Write,
    head: &mut Vec<u8>,
    response: &Response,
    close: bool,
    request_id: &str,
) -> std::io::Result<()> {
    let (code, reason) = status_label(response.status);
    head.clear();
    write!(
        head,
        "HTTP/1.1 {code} {reason}\r\ncontent-type: {}\r\nx-request-id: {request_id}\r\ncontent-length: {}\r\n",
        response.content_type,
        response.body.len(),
    )?;
    if let Some(seconds) = response.retry_after {
        write!(head, "retry-after: {seconds}\r\n")?;
    }
    let connection = if close { "close" } else { "keep-alive" };
    write!(head, "connection: {connection}\r\n\r\n")?;
    write_message(stream, head, &response.body)
}

/// Sends one HTTP message, `head` then `body`, with vectored writes: one
/// `writev` when the socket takes it all, as it does for every message
/// that fits the send buffer.  Short writes resume where they stopped.
pub(crate) fn write_message(w: &mut impl Write, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let mut slices = [IoSlice::new(head), IoSlice::new(body)];
    let mut remaining = &mut slices[..];
    while !remaining.is_empty() {
        match w.write_vectored(remaining) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write the whole HTTP message",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut remaining, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Maps a serving-layer failure to its HTTP status.
///
/// * `404` — unknown deployment;
/// * `409` — artifact dimensions incompatible with the running deployment;
/// * `422` — semantically invalid input the server understood but cannot
///   serve: wrong-dimension or non-finite states, and artifact uploads that
///   fail validation (bad magic, unsupported version, truncation,
///   **checksum mismatch**, malformed payload, invariant violations);
/// * `502` — a remote shard was unreachable after retries (or its breaker
///   was open) and no replica could take over;
/// * `503` — every replica of the deployment is down ([`ServeError::Unavailable`],
///   carrying a `Retry-After` header);
/// * shard-relayed errors ([`ServeError::Shard`]) pass their status through;
/// * `400` — everything else at the protocol level (handled before this
///   map is reached).
pub fn error_status(error: &ServeError) -> u16 {
    match error {
        ServeError::UnknownDeployment(_) => 404,
        ServeError::DimensionMismatch { .. } | ServeError::NonFiniteState => 422,
        ServeError::IncompatibleArtifact { .. } => 409,
        ServeError::Artifact(_) => 422,
        ServeError::Remote(_) => 502,
        ServeError::Shard { status, .. } => *status,
        ServeError::Unavailable { .. } => 503,
        // `deploy_or_redeploy` never reports AlreadyDeployed, and the HTTP
        // surface never resynthesizes; both are internal misuse if reached.
        ServeError::AlreadyDeployed(_) | ServeError::Resynthesis(_) => 500,
    }
}

fn serve_error_code(error: &ServeError) -> &'static str {
    match error {
        ServeError::UnknownDeployment(_) => "unknown_deployment",
        ServeError::DimensionMismatch { .. } => "dimension_mismatch",
        ServeError::NonFiniteState => "non_finite_state",
        ServeError::IncompatibleArtifact { .. } => "incompatible_artifact",
        ServeError::Artifact(ArtifactError::ChecksumMismatch { .. }) => "checksum_mismatch",
        ServeError::Artifact(ArtifactError::BadMagic) => "bad_magic",
        ServeError::Artifact(ArtifactError::UnsupportedVersion { .. }) => "unsupported_version",
        ServeError::Artifact(ArtifactError::Truncated { .. }) => "artifact_truncated",
        ServeError::Artifact(_) => "invalid_artifact",
        ServeError::Remote(_) => "upstream_unreachable",
        // `Shard` relays the shard's own code in `serve_error_response`;
        // this spelling is only a fallback.
        ServeError::Shard { .. } => "shard_error",
        ServeError::Unavailable { .. } => "unavailable",
        ServeError::AlreadyDeployed(_) | ServeError::Resynthesis(_) => "internal",
    }
}

fn wire_error_response(error: &WireError, request_id: &str) -> Response {
    match error {
        WireError::Syntax { .. } | WireError::TooDeep { .. } => {
            Response::error(400, "malformed_json", &error.to_string(), request_id)
        }
        WireError::Schema(_) => {
            Response::error(400, "invalid_request", &error.to_string(), request_id)
        }
        WireError::BatchTooLarge { .. } => {
            Response::error(413, "batch_too_large", &error.to_string(), request_id)
        }
    }
}

fn serve_error_response(error: &ServeError, request_id: &str) -> Response {
    // A shard-relayed error keeps the shard's own status and code, so a
    // fleet front-end is transparent for application-level failures.
    if let ServeError::Shard {
        status,
        code,
        message,
    } = error
    {
        return Response::error(*status, code, message, request_id);
    }
    let mut response = Response::error(
        error_status(error),
        serve_error_code(error),
        &error.to_string(),
        request_id,
    );
    if let ServeError::Unavailable { retry_after, .. } = error {
        response.retry_after = Some(retry_after.as_secs().max(1));
    }
    response
}

/// Routes one framed request and builds its response; decide responses
/// are encoded into `scratch.out`.
fn dispatch(
    request: &Request,
    scratch: &mut ConnScratch,
    backend: &dyn ShieldBackend,
    config: &HttpConfig,
) -> Response {
    let ConnScratch {
        path,
        request_id,
        body,
        out,
        states,
        ..
    } = scratch;
    // Every route has at most four segments, so a fifth slot is enough to
    // make any longer path match none of them.
    let mut parts = [""; 5];
    let mut count = 0;
    for segment in path.split('/').filter(|s| !s.is_empty()).take(parts.len()) {
        parts[count] = segment;
        count += 1;
    }
    let segments = &parts[..count];
    match (request.method, segments) {
        (Method::Get, ["healthz"]) => match backend.deployment_generations() {
            Ok(generations) => Response::ok(wire::health_response(
                &generations,
                vrl_obs::uptime_seconds(),
            )),
            Err(error) => serve_error_response(&error, request_id),
        },
        (Method::Get, ["metrics"]) => Response::ok_with_type(
            vrl_obs::registry().render_prometheus(),
            CONTENT_TYPE_PROMETHEUS,
        ),
        (Method::Post, ["v1", "deployments", name, "decide"]) => {
            // The codec-phase clock reads sit behind the same kill switch
            // as the decide-latency histogram.
            let observing = vrl_obs::enabled();
            let decode_start = observing.then(Instant::now);
            let batched = match wire::decode_decide_request_into(body, config.max_batch, states) {
                Ok(batched) => batched,
                Err(e) => return wire_error_response(&e, request_id),
            };
            if let Some(start) = decode_start {
                crate::obs::codec_phase_latency()
                    .with("decode")
                    .observe(start.elapsed());
            }
            match backend.decide_batch(name, states.rows()) {
                Ok(decisions) if !batched && decisions.is_empty() => {
                    // Unreachable ("state" always carries one state), but
                    // never index into an empty decision list.
                    Response::error(500, "internal", "empty decision list", request_id)
                }
                Ok(decisions) => {
                    let encode_start = observing.then(Instant::now);
                    // Encoded straight into the connection's reused buffer.
                    wire::decide_response_into(name, &decisions, batched, out);
                    let response = Response::ok_bytes(std::mem::take(out));
                    if let Some(start) = encode_start {
                        crate::obs::codec_phase_latency()
                            .with("encode")
                            .observe(start.elapsed());
                    }
                    response
                }
                Err(e) => serve_error_response(&e, request_id),
            }
        }
        (Method::Put, ["v1", "deployments", name]) => {
            let artifact = match ShieldArtifact::from_bytes(body) {
                Ok(artifact) => artifact,
                Err(e) => {
                    let e = ServeError::Artifact(e);
                    return serve_error_response(&e, request_id);
                }
            };
            let meta = artifact.metadata();
            match backend.put_artifact(name, artifact) {
                Ok(generation) => Response::ok(wire::deployed_response(name, generation, &meta)),
                Err(e) => serve_error_response(&e, request_id),
            }
        }
        (Method::Delete, ["v1", "deployments", name]) => match backend.remove_deployment(name) {
            Ok(true) => Response::ok(wire::undeployed_response(name)),
            Ok(false) => Response::error(
                404,
                "unknown_deployment",
                &format!("no deployment named {name:?}"),
                request_id,
            ),
            Err(e) => serve_error_response(&e, request_id),
        },
        (Method::Get, ["v1", "deployments", name, "telemetry"]) => {
            match backend.backend_telemetry(name) {
                Ok(telemetry) => Response::ok(wire::telemetry_response(&telemetry)),
                Err(e) => serve_error_response(&e, request_id),
            }
        }
        _ if known_path_wrong_method(request.method, segments) => Response::error(
            405,
            "method_not_allowed",
            "this path exists but not for this method",
            request_id,
        ),
        _ => Response::error(
            404,
            "not_found",
            "unknown path; see the wire-protocol reference",
            request_id,
        ),
    }
}

/// True when the path matches a served route shape but with the wrong
/// method, so the front-end can answer `405` instead of `404`.
fn known_path_wrong_method(method: Method, segments: &[&str]) -> bool {
    match segments {
        ["healthz"] => method != Method::Get,
        ["metrics"] => method != Method::Get,
        ["v1", "deployments", _] => !matches!(method, Method::Put | Method::Delete),
        ["v1", "deployments", _, "decide"] => method != Method::Post,
        ["v1", "deployments", _, "telemetry"] => method != Method::Get,
        _ => false,
    }
}

/// A minimal blocking HTTP/1.1 client for tests, benches, and examples.
///
/// Speaks just enough of the protocol to drive [`HttpFrontend`] over a
/// keep-alive connection: `Content-Length` framing, no chunked encoding,
/// no redirects.  It is **not** a general-purpose client — production
/// traffic should use any real HTTP client (the transcript in the README
/// uses `curl`).
///
/// The client owns a persistent read buffer and head-formatting buffer,
/// reused across requests on the keep-alive connection;
/// [`post_reusing`](MiniClient::post_reusing) additionally writes the
/// response body into a caller-supplied buffer, so a steady-state decide
/// loop allocates nothing on the client side either.
#[derive(Debug)]
pub struct MiniClient {
    stream: TcpStream,
    /// Request-head formatting buffer, reused across requests.
    head: String,
    /// Response read buffer, reused across requests.
    scratch: Vec<u8>,
}

/// A response read by [`MiniClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiniResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl MiniResponse {
    /// The body as UTF-8 (all front-end responses are JSON).
    pub fn text(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// The first header named `name` (ASCII case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

impl MiniClient {
    /// Opens a keep-alive connection to `addr` with default deadlines
    /// (5 s connect, 30 s read, 30 s write).
    ///
    /// A dead or black-holed peer therefore surfaces as a clean
    /// [`std::io::ErrorKind::TimedOut`] error instead of an eternal hang.
    ///
    /// # Errors
    ///
    /// Returns the connect error ([`std::io::ErrorKind::TimedOut`] when the
    /// peer does not accept within the deadline).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        MiniClient::connect_with_timeouts(
            addr,
            Duration::from_secs(5),
            Duration::from_secs(30),
            Duration::from_secs(30),
        )
    }

    /// Opens a connection with explicit connect/read/write deadlines.
    ///
    /// # Errors
    ///
    /// Returns the connect error; a connect that exceeds `connect_timeout`
    /// is reported as [`std::io::ErrorKind::TimedOut`].
    pub fn connect_with_timeouts(
        addr: SocketAddr,
        connect_timeout: Duration,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(write_timeout))?;
        Ok(MiniClient {
            stream,
            head: String::new(),
            scratch: Vec::new(),
        })
    }

    /// Sends one request and reads the full response.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the connection drops or the response is
    /// unparseable.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<MiniResponse> {
        self.request_with_headers(method, path, body, &[])
    }

    /// Sends one request with extra headers (e.g. `x-request-id`) and reads
    /// the full response.
    ///
    /// # Errors
    ///
    /// As [`MiniClient::request`].
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<MiniResponse> {
        use std::fmt::Write as _;
        self.head.clear();
        let _ = write!(
            self.head,
            "{method} {path} HTTP/1.1\r\nhost: vrl\r\ncontent-length: {}\r\n",
            body.len()
        );
        for (name, value) in extra_headers {
            self.head.push_str(name);
            self.head.push_str(": ");
            self.head.push_str(value);
            self.head.push_str("\r\n");
        }
        self.head.push_str("\r\n");
        write_message(&mut self.stream, self.head.as_bytes(), body)?;
        read_response_from(&mut self.stream, &mut self.scratch)
    }

    /// Sends one `POST` with the given `Content-Type` and reads the
    /// response body into `out` (cleared first).  Returns the status code
    /// and whether the response's `Content-Type` is `application/json`
    /// (media-type parameters such as `; charset=utf-8` are ignored):
    /// true for decides and error envelopes, false for `GET /metrics`'s
    /// Prometheus text.
    ///
    /// This is the allocation-free hot path: the request head, read
    /// buffer, and response body all live in reused buffers, so a
    /// steady-state decide loop makes no client-side allocations.
    ///
    /// # Errors
    ///
    /// As [`MiniClient::request`].
    pub fn post_reusing(
        &mut self,
        path: &str,
        content_type: &str,
        body: &[u8],
        out: &mut Vec<u8>,
    ) -> std::io::Result<(u16, bool)> {
        use std::fmt::Write as _;
        self.head.clear();
        let _ = write!(
            self.head,
            "POST {path} HTTP/1.1\r\nhost: vrl\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        write_message(&mut self.stream, self.head.as_bytes(), body)?;

        let head_end = read_head_into(&mut self.stream, &mut self.scratch)?;
        let head = &self.scratch[..head_end];
        let status = scan_status(head)?;
        let content_length = scan_content_length(head)?;
        let json = scan_header(head, "content-type").is_some_and(|value| {
            let media_type = value.split(|&b| b == b';').next().unwrap_or_default();
            media_type
                .trim_ascii_end()
                .eq_ignore_ascii_case(CONTENT_TYPE_JSON.as_bytes())
        });
        out.clear();
        out.extend_from_slice(&self.scratch[head_end..]);
        while out.len() < content_length {
            let mut chunk = [0u8; 8192];
            let n = read_chunk(&mut self.stream, &mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            out.extend_from_slice(&chunk[..n]);
        }
        out.truncate(content_length);
        Ok((status, json))
    }
}

/// `stream.read` with platform timeout kinds normalised: a read that trips
/// the socket's deadline surfaces as a clean
/// [`std::io::ErrorKind::TimedOut`] error (some platforms report socket
/// timeouts as `WouldBlock`).
fn read_chunk(stream: &mut TcpStream, chunk: &mut [u8]) -> std::io::Result<usize> {
    match stream.read(chunk) {
        Err(error)
            if matches!(
                error.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "read timed out waiting for response",
            ))
        }
        other => other,
    }
}

/// Reads from `stream` into `buffer` (cleared first) until the blank line
/// ending a response head; returns the head length.
fn read_head_into(stream: &mut TcpStream, buffer: &mut Vec<u8>) -> std::io::Result<usize> {
    buffer.clear();
    loop {
        if let Some(pos) = find_head_end(buffer) {
            return Ok(pos);
        }
        let mut chunk = [0u8; 4096];
        let n = read_chunk(stream, &mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buffer.extend_from_slice(&chunk[..n]);
    }
}

/// Scans a raw response head for the first header named `name` (ASCII
/// case-insensitive) without allocating.
fn scan_header<'a>(head: &'a [u8], name: &str) -> Option<&'a [u8]> {
    for line in head.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        if line[..colon].eq_ignore_ascii_case(name.as_bytes()) {
            let mut value = &line[colon + 1..];
            while let Some((b' ' | b'\t', rest)) = value.split_first() {
                value = rest;
            }
            return Some(value);
        }
    }
    None
}

/// Status code from the raw status line of a response head.
fn scan_status(head: &[u8]) -> std::io::Result<u16> {
    let line = head.split(|&b| b == b'\r').next().unwrap_or(head);
    line.split(|&b| b == b' ')
        .nth(1)
        .and_then(|code| std::str::from_utf8(code).ok())
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })
}

/// `Content-Length` from a raw response head.
fn scan_content_length(head: &[u8]) -> std::io::Result<usize> {
    scan_header(head, "content-length")
        .and_then(|value| std::str::from_utf8(value).ok())
        .and_then(|value| value.trim().parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "missing content-length")
        })
}

/// Reads one `Content-Length`-framed HTTP/1.1 response from `stream`,
/// staging raw bytes in `scratch` (a reusable buffer).
///
/// Shared by [`MiniClient`] and [`crate::remote::RemoteShard`].
pub(crate) fn read_response_from(
    stream: &mut TcpStream,
    scratch: &mut Vec<u8>,
) -> std::io::Result<MiniResponse> {
    let head_end = read_head_into(stream, scratch)?;
    let head = String::from_utf8_lossy(&scratch[..head_end]).into_owned();
    let status = scan_status(head.as_bytes())?;
    let headers: Vec<(String, String)> = head
        .lines()
        .skip(1)
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    let content_length = scan_content_length(head.as_bytes())?;
    let mut body = scratch[head_end..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 8192];
        let n = read_chunk(stream, &mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(MiniResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that takes at most `max` bytes per `write_vectored` call
    /// and counts the calls.
    struct CountingWriter {
        data: Vec<u8>,
        calls: usize,
        max: usize,
    }

    impl CountingWriter {
        fn new(max: usize) -> Self {
            CountingWriter {
                data: Vec::new(),
                calls: 0,
                max,
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.max - taken);
                self.data.extend_from_slice(&buf[..n]);
                taken += n;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_message_takes_one_write_when_the_writer_takes_it_all() {
        let mut w = CountingWriter::new(usize::MAX);
        write_message(&mut w, b"HTTP/1.1 200 OK\r\n\r\n", b"{\"a\":1}").unwrap();
        assert_eq!(w.calls, 1);
        assert_eq!(w.data, b"HTTP/1.1 200 OK\r\n\r\n{\"a\":1}");
        write_message(&mut w, b"PUT / HTTP/1.1\r\n\r\n", b"xyz").unwrap();
        assert_eq!(w.calls, 2, "one call per message");
    }

    #[test]
    fn short_writes_resume_in_order() {
        let head = b"HTTP/1.1 200 OK\r\ncontent-length: 26\r\n\r\n";
        let body = b"abcdefghijklmnopqrstuvwxyz";
        let mut w = CountingWriter::new(7);
        write_message(&mut w, head, body).unwrap();
        assert_eq!(w.data, [&head[..], &body[..]].concat());
        assert_eq!(w.calls, (head.len() + body.len()).div_ceil(7));
    }

    #[test]
    fn an_empty_body_sends_only_the_head() {
        let mut w = CountingWriter::new(usize::MAX);
        write_message(&mut w, b"HTTP/1.1 100 Continue\r\n\r\n", &[]).unwrap();
        assert_eq!(w.calls, 1);
        assert_eq!(w.data, b"HTTP/1.1 100 Continue\r\n\r\n");
        // Split head, empty body: still complete, nothing after the head.
        let mut w = CountingWriter::new(7);
        write_message(&mut w, b"HTTP/1.1 204 No Content\r\n\r\n", &[]).unwrap();
        assert_eq!(w.data, b"HTTP/1.1 204 No Content\r\n\r\n");
    }

    #[test]
    fn a_writer_that_takes_nothing_is_an_error() {
        let mut w = CountingWriter::new(0);
        let error = write_message(&mut w, b"head", b"body").unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn response_heads_carry_every_header_in_order() {
        let mut response = Response::error(503, "unavailable", "down", "req-1");
        response.retry_after = Some(2);
        let mut w = CountingWriter::new(usize::MAX);
        let mut head = b"stale bytes".to_vec();
        write_response(&mut w, &mut head, &response, true, "req-1").unwrap();
        assert_eq!(w.calls, 1);
        let text = String::from_utf8(w.data).unwrap();
        let expected_head = format!(
            "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\nx-request-id: req-1\r\ncontent-length: {}\r\nretry-after: 2\r\nconnection: close\r\n\r\n",
            response.body.len()
        );
        assert_eq!(
            text,
            expected_head + std::str::from_utf8(&response.body).unwrap()
        );
        // Relayed statuses the front-end never produces still label.
        assert_eq!(status_label(299), (Cow::Owned("299".to_string()), "Error"));
        assert_eq!(status_label(404).0, "404");
    }

    #[test]
    fn post_reusing_reports_whether_the_response_is_json() {
        // A one-connection peer that answers through the real `dispatch`.
        // `post_reusing` only sends POSTs, so the peer answers a POST to
        // `/metrics` as the scrape it stands for.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let server = ShieldServer::with_workers(1);
            server
                .deploy("toy", crate::testutil::toy_artifact(3))
                .unwrap();
            let config = HttpConfig::default();
            let (mut stream, _) = listener.accept().unwrap();
            let mut scratch = ConnScratch::default();
            while let Ok(Some(mut request)) = read_request(&mut stream, &mut scratch, &config) {
                if scratch.path == "/metrics" {
                    request.method = Method::Get;
                }
                let response = dispatch(&request, &mut scratch, &server, &config);
                if write_response(&mut stream, &mut scratch.head, &response, false, "req-1")
                    .is_err()
                {
                    break;
                }
            }
        });
        let mut client = MiniClient::connect(addr).unwrap();
        let mut out = Vec::new();
        let decide = client
            .post_reusing(
                "/v1/deployments/toy/decide",
                CONTENT_TYPE_JSON,
                br#"{"state":[0.2]}"#,
                &mut out,
            )
            .unwrap();
        assert_eq!(decide, (200, true), "{}", String::from_utf8_lossy(&out));
        assert!(out.starts_with(br#"{"deployment":"toy","decision":"#));
        let metrics = client
            .post_reusing("/metrics", "text/plain", b"", &mut out)
            .unwrap();
        assert_eq!(metrics, (200, false));
        assert!(String::from_utf8_lossy(&out).contains("# TYPE "));
        let missing = client
            .post_reusing(
                "/v1/deployments/none/decide",
                CONTENT_TYPE_JSON,
                br#"{"state":[0.2]}"#,
                &mut out,
            )
            .unwrap();
        assert_eq!(missing, (404, true), "error envelopes are JSON");
        drop(client);
        peer.join().unwrap();
    }

    /// A one-connection peer that answers each request (head and
    /// `content-length` body read in full) with the next canned response,
    /// written piece by piece with a pause between pieces so the client
    /// sees them in separate reads.
    fn canned_peer(responses: Vec<Vec<&'static [u8]>>) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buffer = Vec::new();
            for pieces in responses {
                let mut chunk = [0u8; 1024];
                let head_end = loop {
                    if let Some(at) = buffer.windows(4).position(|w| w == b"\r\n\r\n") {
                        break at + 4;
                    }
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "client closed before a full request head");
                    buffer.extend_from_slice(&chunk[..n]);
                };
                let length = scan_content_length(&buffer[..head_end]).unwrap();
                while buffer.len() < head_end + length {
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "client closed mid-body");
                    buffer.extend_from_slice(&chunk[..n]);
                }
                buffer.drain(..head_end + length);
                for piece in pieces {
                    stream.write_all(piece).unwrap();
                    stream.flush().unwrap();
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        });
        (addr, peer)
    }

    #[test]
    fn post_reusing_json_flag_reads_only_the_media_type() {
        let answer = |content_type: &'static [u8]| -> Vec<&'static [u8]> {
            vec![
                b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n",
                content_type,
                b"\r\n{}",
            ]
        };
        let cases: [(&[u8], bool); 6] = [
            (b"content-type: application/json\r\n", true),
            (b"Content-Type: Application/JSON; charset=utf-8\r\n", true),
            (b"content-type:application/json \r\n", true),
            (b"content-type: application/jsonl\r\n", false),
            (
                b"content-type: text/plain; type=application/json\r\n",
                false,
            ),
            (b"x-no-content-type: application/json\r\n", false),
        ];
        let (addr, peer) = canned_peer(cases.iter().map(|(header, _)| answer(header)).collect());
        let mut client = MiniClient::connect(addr).unwrap();
        let mut out = Vec::new();
        for (header, json) in cases {
            let answer = client
                .post_reusing("/x", CONTENT_TYPE_JSON, b"{}", &mut out)
                .unwrap();
            assert_eq!(answer, (200, json), "{}", String::from_utf8_lossy(header));
            assert_eq!(out, b"{}");
        }
        drop(client);
        peer.join().unwrap();
    }

    #[test]
    fn post_reusing_assembles_a_response_split_across_reads() {
        let (addr, peer) = canned_peer(vec![
            vec![
                b"HTTP/1.1 200 OK\r\ncontent-type: appli",
                b"cation/json\r\ncontent-length: 26\r\n\r\nabcdefg",
                b"hijklmnopq",
                b"rstuvwxyz",
            ],
            vec![b"HTTP/1.1 204 No Content\r\ncontent-length: 0\r\n\r\n"],
        ]);
        let mut client = MiniClient::connect(addr).unwrap();
        let mut out = b"stale bytes from an earlier response".to_vec();
        let answer = client
            .post_reusing("/x", CONTENT_TYPE_JSON, b"{\"state\":[1]}", &mut out)
            .unwrap();
        assert_eq!(answer, (200, true));
        assert_eq!(out, b"abcdefghijklmnopqrstuvwxyz");
        // The next response on the connection starts clean: no body left
        // over from the last one, no stale bytes in `out`.
        let answer = client
            .post_reusing("/x", CONTENT_TYPE_JSON, b"", &mut out)
            .unwrap();
        assert_eq!(answer, (204, false));
        assert!(out.is_empty());
        drop(client);
        peer.join().unwrap();
    }

    #[test]
    fn post_reusing_reports_a_body_cut_short() {
        let (addr, peer) = canned_peer(vec![vec![
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 100\r\n\r\n{\"decisions\":[",
        ]]);
        let mut client = MiniClient::connect(addr).unwrap();
        let mut out = Vec::new();
        // The peer closes after its only piece, 85 bytes short.
        let error = client
            .post_reusing("/x", CONTENT_TYPE_JSON, b"{}", &mut out)
            .unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::UnexpectedEof);
        peer.join().unwrap();
    }
}
