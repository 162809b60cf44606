//! CEGIS and decision-table metrics: per-run counters, the
//! synthesis-latency histogram, and the decide-table traffic counters,
//! registered in the process-wide [`vrl_obs`] registry.
//!
//! Algorithm 2 already tracks its own attempts for [`crate::CegisReport`];
//! these counters mirror that bookkeeping (plus verify rejections and
//! terminal failures) into the registry so a serving process that
//! resynthesizes shields exposes its synthesis cost at `GET /metrics`.
//! The precomputed [`crate::DecisionTable`] adds three series: decide
//! lanes resolved by a certified cell, lanes routed through the exact
//! fallback, and the build-time cell-class census (labeled by class).
//! The loop's control flow and the synthesized shields are untouched —
//! instrumentation observes, never decides.

use std::sync::LazyLock;
use vrl_obs::{registry, Counter, CounterVec, Histogram};

macro_rules! cegis_counter {
    ($fn_name:ident, $metric:literal, $help:literal) => {
        /// Lazily registered handle for the metric named in the body.
        pub(crate) fn $fn_name() -> &'static Counter {
            static HANDLE: LazyLock<&'static Counter> =
                LazyLock::new(|| registry().counter($metric, $help));
            *HANDLE
        }
    };
}

cegis_counter!(
    cegis_runs,
    "vrl_synth_cegis_runs_total",
    "Algorithm 2 shield-synthesis runs started."
);
cegis_counter!(
    cegis_attempts,
    "vrl_synth_cegis_attempts_total",
    "Synthesize/verify attempts across all CEGIS runs."
);
cegis_counter!(
    cegis_pieces,
    "vrl_synth_cegis_pieces_total",
    "Verified (program, invariant) pieces admitted into shields."
);
cegis_counter!(
    cegis_counterexamples,
    "vrl_synth_cegis_counterexamples_total",
    "Verification rejections that shrank the region around a counterexample."
);
cegis_counter!(
    cegis_failures,
    "vrl_synth_cegis_failures_total",
    "CEGIS runs that gave up with an uncovered initial state."
);

cegis_counter!(
    decide_table_hits,
    "vrl_shield_decide_table_hits_total",
    "Shield decisions resolved by a precomputed decision-table cell."
);
cegis_counter!(
    decide_table_fallbacks,
    "vrl_shield_decide_table_fallbacks_total",
    "Shield decisions routed through the exact path from a boundary cell."
);

/// Decision-table builds that failed and fell back to the exact path,
/// labeled by the limit hit ([`crate::TableError::reason`]).
pub(crate) fn decide_table_build_fallbacks() -> &'static CounterVec {
    static HANDLE: LazyLock<&'static CounterVec> = LazyLock::new(|| {
        registry().counter_vec(
            "vrl_shield_decide_table_build_fallbacks_total",
            "reason",
            "Decision-table builds that failed and fell back to the exact path, by limit hit.",
        )
    });
    *HANDLE
}

/// Per-class census of decision-table cells classified at build time
/// (`class` is `covered`, `uncovered`, or `boundary`).
pub(crate) fn decide_table_cells(class: &str) -> &'static Counter {
    static HANDLE: LazyLock<&'static CounterVec> = LazyLock::new(|| {
        registry().counter_vec(
            "vrl_shield_decide_table_cells",
            "class",
            "Decision-table cells classified at build time, by certification class.",
        )
    });
    HANDLE.with(class)
}

/// Total decisions routed through a decision table so far (certified-cell
/// hits plus boundary-cell fallbacks) — a convenience for tests and serving
/// health checks that only need "is the table in the path at all?".
pub fn decide_table_traffic() -> u64 {
    decide_table_hits().get() + decide_table_fallbacks().get()
}

/// Total decision-table builds that failed and fell back to the exact
/// path ([`crate::Shield::with_table_or_fallback`]) — a convenience for
/// tests asserting graceful degradation on high-dimensional instances.
pub fn decide_table_build_fallback_count() -> u64 {
    decide_table_build_fallbacks()
        .snapshot()
        .iter()
        .map(|(_, count)| count)
        .sum()
}

/// Wall-clock duration of completed CEGIS runs (success or failure).
pub(crate) fn cegis_seconds() -> &'static Histogram {
    static HANDLE: LazyLock<&'static Histogram> = LazyLock::new(|| {
        registry().histogram(
            "vrl_synth_cegis_seconds",
            "Wall-clock duration of CEGIS shield-synthesis runs.",
        )
    });
    *HANDLE
}

/// Forces registration of every CEGIS metric so a scrape shows the full
/// series set (at zero) before any synthesis has run.
pub fn install_metrics() {
    let _ = cegis_runs();
    let _ = cegis_attempts();
    let _ = cegis_pieces();
    let _ = cegis_counterexamples();
    let _ = cegis_failures();
    let _ = cegis_seconds();
    let _ = decide_table_hits();
    let _ = decide_table_fallbacks();
    for reason in [
        "invalid_domain",
        "resolution_mismatch",
        "zero_resolution",
        "too_many_cells",
        "too_many_pieces",
    ] {
        let _ = decide_table_build_fallbacks().with(reason);
    }
    for class in ["covered", "uncovered", "boundary"] {
        let _ = decide_table_cells(class);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn install_registers_all_series() {
        super::install_metrics();
        let text = vrl_obs::registry().render_prometheus();
        for series in [
            "vrl_synth_cegis_runs_total",
            "vrl_synth_cegis_attempts_total",
            "vrl_synth_cegis_pieces_total",
            "vrl_synth_cegis_counterexamples_total",
            "vrl_synth_cegis_failures_total",
            "vrl_synth_cegis_seconds",
            "vrl_shield_decide_table_hits_total",
            "vrl_shield_decide_table_fallbacks_total",
            "vrl_shield_decide_table_build_fallbacks_total{reason=\"too_many_cells\"}",
            "vrl_shield_decide_table_cells{class=\"covered\"}",
            "vrl_shield_decide_table_cells{class=\"uncovered\"}",
            "vrl_shield_decide_table_cells{class=\"boundary\"}",
        ] {
            assert!(text.contains(series), "missing series {series}");
        }
    }
}
