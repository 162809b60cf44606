//! Farm metrics: scenario-generation and job-outcome counters plus the
//! per-job latency histogram, registered in the process-wide [`vrl_obs`]
//! registry.  Instrumentation observes, never decides — the scheduler's
//! outcomes are determined solely by the deterministic CEGIS budgets.

use std::sync::LazyLock;
use vrl_obs::{registry, Counter, CounterVec, Histogram};

/// Scenarios generated, labeled by family
/// (`pendulum`/`platoon`/`quadcopter`/`oscillator`/`duffing`/`product`).
pub(crate) fn scenarios_generated(family: &str) -> &'static Counter {
    static HANDLE: LazyLock<&'static CounterVec> = LazyLock::new(|| {
        registry().counter_vec(
            "vrl_farm_scenarios_generated",
            "family",
            "Scenarios produced by farm generation, by environment family.",
        )
    });
    HANDLE.with(family)
}

/// Completed synthesis jobs, labeled by outcome (`synthesized`,
/// `budget_exhausted`, `infeasible`, or `timed_out`).
pub(crate) fn jobs_total(outcome: &str) -> &'static Counter {
    static HANDLE: LazyLock<&'static CounterVec> = LazyLock::new(|| {
        registry().counter_vec(
            "vrl_farm_jobs_total",
            "outcome",
            "Farm synthesis jobs completed, by outcome.",
        )
    });
    HANDLE.with(outcome)
}

/// Wall-clock duration of individual farm synthesis jobs.
pub(crate) fn job_seconds() -> &'static Histogram {
    static HANDLE: LazyLock<&'static Histogram> = LazyLock::new(|| {
        registry().histogram(
            "vrl_farm_job_seconds",
            "Wall-clock duration of farm synthesis jobs.",
        )
    });
    *HANDLE
}

/// Artifacts mass-deployed to a router after a farm run.
pub(crate) fn deployments() -> &'static Counter {
    static HANDLE: LazyLock<&'static Counter> = LazyLock::new(|| {
        registry().counter(
            "vrl_farm_deployments_total",
            "Farm artifacts deployed through a serving backend.",
        )
    });
    *HANDLE
}

/// Total farm jobs completed so far across every outcome — a convenience
/// for tests and serving health checks.
pub fn jobs_completed() -> u64 {
    ["synthesized", "budget_exhausted", "infeasible", "timed_out"]
        .iter()
        .map(|o| jobs_total(o).get())
        .sum()
}

/// Forces registration of every farm metric so a scrape shows the full
/// series set (at zero) before any farm has run.
pub fn install_metrics() {
    for family in [
        "pendulum",
        "platoon",
        "quadcopter",
        "oscillator",
        "duffing",
        "product",
    ] {
        let _ = scenarios_generated(family);
    }
    for outcome in ["synthesized", "budget_exhausted", "infeasible", "timed_out"] {
        let _ = jobs_total(outcome);
    }
    let _ = job_seconds();
    let _ = deployments();
}

#[cfg(test)]
mod tests {
    #[test]
    fn install_registers_all_series() {
        super::install_metrics();
        let text = vrl_obs::registry().render_prometheus();
        for series in [
            "vrl_farm_scenarios_generated{family=\"pendulum\"}",
            "vrl_farm_scenarios_generated{family=\"product\"}",
            "vrl_farm_jobs_total{outcome=\"synthesized\"}",
            "vrl_farm_jobs_total{outcome=\"budget_exhausted\"}",
            "vrl_farm_jobs_total{outcome=\"infeasible\"}",
            "vrl_farm_jobs_total{outcome=\"timed_out\"}",
            "vrl_farm_job_seconds",
            "vrl_farm_deployments_total",
        ] {
            assert!(text.contains(series), "missing series {series}");
        }
    }
}
