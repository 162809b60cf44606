//! Order statistics, process memory, and read-only snapshots of the
//! program's own metrics registry.

use std::collections::BTreeMap;

/// Nearest-rank quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    ratio(sum, n as f64)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every sample of the program's `vrl_obs` registry, keyed by series
/// (`name{labels}`), read from its Prometheus rendering.  Reading the
/// rendering registers nothing, so the snapshot leaves the program as
/// shipped.
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot(BTreeMap<String, f64>);

impl ObsSnapshot {
    pub fn take() -> Self {
        Self::parse(&vrl_obs::registry().render_prometheus())
    }

    fn parse(text: &str) -> Self {
        let series = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (key, value) = line.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect();
        ObsSnapshot(series)
    }

    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `later − self` for one series.
    pub fn delta(&self, later: &ObsSnapshot, series: &str) -> f64 {
        later.get(series) - self.get(series)
    }

    /// Mean of a histogram series over the interval, in microseconds.
    pub fn mean_us(&self, later: &ObsSnapshot, histogram: &str, labels: &str) -> f64 {
        let sum = self.delta(later, &format!("{histogram}_sum{labels}"));
        let count = self.delta(later, &format!("{histogram}_count{labels}"));
        ratio(sum * 1e6, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn parses_prometheus_series() {
        let snap = ObsSnapshot::parse(
            "# HELP x y\n# TYPE x counter\nx_total 3\nh_sum{phase=\"decode\"} 0.5\nh_count{phase=\"decode\"} 2\n",
        );
        let later = ObsSnapshot::parse(
            "x_total 5\nh_sum{phase=\"decode\"} 1.5\nh_count{phase=\"decode\"} 4\n",
        );
        assert_eq!(snap.delta(&later, "x_total"), 2.0);
        assert_eq!(snap.mean_us(&later, "h", "{phase=\"decode\"}"), 0.5e6);
        assert!(peak_rss_mb() > 0.0);
    }
}
