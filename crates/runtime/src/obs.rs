//! Serving metrics: decide-path latency and counters, HTTP traffic, and
//! shard-router placement, registered in the process-wide [`vrl_obs`]
//! registry.
//!
//! The decide path is the latency-critical surface of this crate, so its
//! instrumentation (one histogram observation plus three counter bumps
//! per request) is gated on [`vrl_obs::enabled`] at the recording site
//! in `telemetry.rs` — the `serve_throughput` bench measures both sides
//! of that gate and the acceptance bar is < 2 % overhead with it on.
//! Everything else (HTTP status counts, router placement, redeploys) is
//! cold enough to record unconditionally.
//!
//! [`install_metrics`] forces registration of the full series set across
//! *all* instrumented crates (solver, synthesis, CEGIS, runtime), so a
//! freshly started server scrapes a complete, zeroed catalog instead of
//! series appearing as traffic trickles in.

use std::sync::LazyLock;
use vrl_obs::{registry, Counter, CounterVec, Gauge, Histogram, HistogramVec};

macro_rules! runtime_counter {
    ($fn_name:ident, $metric:literal, $help:literal) => {
        /// Lazily registered handle for the metric named in the body.
        pub(crate) fn $fn_name() -> &'static Counter {
            static HANDLE: LazyLock<&'static Counter> =
                LazyLock::new(|| registry().counter($metric, $help));
            *HANDLE
        }
    };
}

runtime_counter!(
    requests,
    "vrl_runtime_requests_total",
    "Decide requests served (a batch counts once)."
);
runtime_counter!(
    decisions,
    "vrl_runtime_decisions_total",
    "Shield decisions taken across all deployments."
);
runtime_counter!(
    interventions,
    "vrl_runtime_interventions_total",
    "Decisions where the shield overrode the oracle."
);
runtime_counter!(
    redeploys,
    "vrl_runtime_redeploys_total",
    "Hot redeploys accepted across all deployments."
);
runtime_counter!(
    http_overload,
    "vrl_http_overload_total",
    "Connections shed with 503 at the accept loop's concurrency cap."
);
runtime_counter!(
    router_rehydrations,
    "vrl_router_rehydrations_total",
    "Deployments rehydrated from canonical bytes onto a new shard."
);
runtime_counter!(
    remote_retries,
    "vrl_remote_retries_total",
    "Remote-shard request attempts retried after a transport error or 5xx."
);
runtime_counter!(
    remote_timeouts,
    "vrl_remote_timeouts_total",
    "Remote-shard attempts that tripped a connect/read/write deadline."
);
runtime_counter!(
    breaker_rejections,
    "vrl_remote_breaker_rejections_total",
    "Requests rejected without touching the network because a shard's circuit breaker was open."
);
runtime_counter!(
    fleet_failovers,
    "vrl_fleet_failovers_total",
    "Requests that failed over from the primary replica to a backup."
);
runtime_counter!(
    fleet_rehydrations,
    "vrl_fleet_rehydrations_total",
    "Deployments re-pushed to a recovered shard by the health prober."
);
runtime_counter!(
    fleet_unavailable,
    "vrl_fleet_unavailable_total",
    "Requests refused with 503 because every replica of the deployment was down."
);

/// Per-decision serving latency; the same samples feed the windowed
/// p50/p99 estimator in `telemetry.rs`.
pub(crate) fn decide_latency() -> &'static Histogram {
    static HANDLE: LazyLock<&'static Histogram> = LazyLock::new(|| {
        registry().histogram(
            "vrl_runtime_decide_latency_seconds",
            "Per-decision serving latency (same samples as the windowed p50/p99 estimator).",
        )
    });
    *HANDLE
}

/// HTTP responses by status code.
pub(crate) fn http_requests() -> &'static CounterVec {
    static HANDLE: LazyLock<&'static CounterVec> = LazyLock::new(|| {
        registry().counter_vec(
            "vrl_http_requests_total",
            "status",
            "HTTP responses written, labeled by status code.",
        )
    });
    *HANDLE
}

/// JSON codec latency on the decide path, labeled by phase
/// (`decode` = request body to state matrix, `encode` = decisions to
/// response body).  Observations are gated on [`vrl_obs::enabled`] at the
/// call site like the decide-latency histogram, so the kill switch removes
/// both clock reads from the hot path.
pub(crate) fn codec_phase_latency() -> &'static HistogramVec {
    static HANDLE: LazyLock<&'static HistogramVec> = LazyLock::new(|| {
        registry().histogram_vec(
            "vrl_http_codec_phase_seconds",
            "phase",
            "Decide wire-codec latency, labeled by phase (decode/encode).",
        )
    });
    *HANDLE
}

/// Connections currently being served by the HTTP front-end.
pub(crate) fn http_active_connections() -> &'static Gauge {
    static HANDLE: LazyLock<&'static Gauge> = LazyLock::new(|| {
        registry().gauge(
            "vrl_http_active_connections",
            "Connections currently being served by the HTTP front-end.",
        )
    });
    *HANDLE
}

/// Circuit-breaker state transitions, labeled by the state entered
/// (`open`, `half_open`, `closed`).
pub(crate) fn breaker_transitions(to: &str) -> &'static Counter {
    static HANDLE: LazyLock<&'static CounterVec> = LazyLock::new(|| {
        registry().counter_vec(
            "vrl_remote_breaker_transitions_total",
            "to",
            "Circuit-breaker state transitions, labeled by the state entered.",
        )
    });
    HANDLE.with(to)
}

/// Health-probe outcomes, labeled `up` / `down`.
pub(crate) fn fleet_probes(result: &str) -> &'static Counter {
    static HANDLE: LazyLock<&'static CounterVec> = LazyLock::new(|| {
        registry().counter_vec(
            "vrl_fleet_probes_total",
            "result",
            "Health-probe outcomes per shard probe, labeled up/down.",
        )
    });
    HANDLE.with(result)
}

/// Requests routed per shard by the consistent-hash router.
pub(crate) fn router_shard_requests() -> &'static CounterVec {
    static HANDLE: LazyLock<&'static CounterVec> = LazyLock::new(|| {
        registry().counter_vec(
            "vrl_router_shard_requests_total",
            "shard",
            "Requests placed per shard by the consistent-hash router.",
        )
    });
    *HANDLE
}

/// Forces registration of the complete metric catalog — runtime series
/// plus the solver, synthesis, and CEGIS series — so `GET /metrics`
/// serves every family (at zero) from the first scrape.
pub fn install_metrics() {
    let _ = requests();
    let _ = decisions();
    let _ = interventions();
    let _ = redeploys();
    let _ = http_overload();
    let _ = router_rehydrations();
    let _ = remote_retries();
    let _ = remote_timeouts();
    let _ = breaker_rejections();
    let _ = fleet_failovers();
    let _ = fleet_rehydrations();
    let _ = fleet_unavailable();
    for state in ["open", "half_open", "closed"] {
        let _ = breaker_transitions(state);
    }
    for result in ["up", "down"] {
        let _ = fleet_probes(result);
    }
    let _ = decide_latency();
    let _ = http_requests();
    for phase in ["decode", "encode"] {
        let _ = codec_phase_latency().with(phase);
    }
    let _ = http_active_connections();
    let _ = router_shard_requests();
    vrl::solver::install_metrics();
    vrl::synth::install_metrics();
    vrl::shield::install_metrics();
}

#[cfg(test)]
mod tests {
    #[test]
    fn install_registers_the_cross_layer_catalog() {
        super::install_metrics();
        let text = vrl_obs::registry().render_prometheus();
        // One representative series per layer plus the runtime set; the
        // loopback scrape test asserts the ≥ 15-series catalog end to end.
        for series in [
            "vrl_runtime_requests_total",
            "vrl_runtime_decide_latency_seconds",
            "vrl_http_requests_total",
            "vrl_http_codec_phase_seconds",
            "vrl_http_overload_total",
            "vrl_http_active_connections",
            "vrl_router_shard_requests_total",
            "vrl_router_rehydrations_total",
            "vrl_solver_bb_queries_total",
            "vrl_synth_oracle_queries_total",
            "vrl_synth_cegis_runs_total",
        ] {
            assert!(text.contains(series), "missing series {series}");
        }
    }
}
