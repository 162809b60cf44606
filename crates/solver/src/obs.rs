//! Solver metrics: branch-and-bound work counters and query-cache
//! traffic, registered in the process-wide [`vrl_obs`] registry.
//!
//! The proof loop is a hot path, so per-box accounting goes through
//! [`BbTally`]: plain [`Cell`] increments while the query runs, one
//! relaxed atomic `add` per counter when the query finishes (the tally
//! flushes on `Drop`, which covers every return path of
//! [`crate::prove_bound`] including counterexample and budget-exhausted
//! exits).  Cache traffic is mirrored straight from
//! [`crate::CompiledQueryCache::get_or_compile`] — registration is
//! lazy, the steady-state cost is one relaxed RMW per lookup.
//!
//! Instrumentation is strictly read-only: it observes values the proof
//! loop already computed, so outcomes are bit-identical with or without
//! the registry (the conformance sweeps in `vrl-bench` exercise this).

use std::cell::Cell;
use std::sync::LazyLock;
use vrl_obs::{registry, Counter};

macro_rules! solver_counter {
    ($fn_name:ident, $metric:literal, $help:literal) => {
        /// Lazily registered handle for the metric named in the body.
        pub(crate) fn $fn_name() -> &'static Counter {
            static HANDLE: LazyLock<&'static Counter> =
                LazyLock::new(|| registry().counter($metric, $help));
            *HANDLE
        }
    };
}

solver_counter!(
    bb_queries,
    "vrl_solver_bb_queries_total",
    "Branch-and-bound bound queries started."
);
solver_counter!(
    bb_boxes,
    "vrl_solver_bb_boxes_total",
    "Boxes popped off branch-and-bound frontiers."
);
solver_counter!(
    bb_guard_prunes,
    "vrl_solver_bb_guard_prunes_total",
    "Boxes excluded by guard pruning before objective evaluation."
);
solver_counter!(
    bb_counterexamples,
    "vrl_solver_bb_counterexamples_total",
    "Branch-and-bound queries refuted by a genuine counterexample."
);
solver_counter!(
    min_boxes,
    "vrl_solver_min_boxes_total",
    "Boxes refined by sound_minimum best-first searches."
);
solver_counter!(
    cache_hits,
    "vrl_solver_query_cache_hits_total",
    "Compiled-query-cache lookups answered from the cache."
);
solver_counter!(
    cache_misses,
    "vrl_solver_query_cache_misses_total",
    "Compiled-query-cache lookups that had to compile."
);
solver_counter!(
    cache_evictions,
    "vrl_solver_query_cache_evictions_total",
    "Compiled-query-cache entries evicted by the capacity bound."
);
solver_counter!(
    shared_cache_hits,
    "vrl_solver_shared_query_cache_hits_total",
    "Thread-cache misses answered by the process-wide compiled-family store."
);
solver_counter!(
    shared_cache_misses,
    "vrl_solver_shared_query_cache_misses_total",
    "Compiled-family compilations new to the whole process."
);
solver_counter!(
    shared_cache_contended,
    "vrl_solver_shared_query_cache_contended_total",
    "Shared-store shard-lock acquisitions that found the lock held."
);

/// Forces registration of every solver metric so a scrape shows the
/// full solver series set (at zero) before any proof has run.
pub fn install_metrics() {
    let _ = bb_queries();
    let _ = bb_boxes();
    let _ = bb_guard_prunes();
    let _ = bb_counterexamples();
    let _ = min_boxes();
    let _ = cache_hits();
    let _ = cache_misses();
    let _ = cache_evictions();
    let _ = shared_cache_hits();
    let _ = shared_cache_misses();
    let _ = shared_cache_contended();
}

/// Per-query work tally for one [`crate::prove_bound`] call.
///
/// Increments are non-atomic [`Cell`] bumps; the counts reach the global
/// counters through [`BbTally::flush`], which `Drop` calls, so they are
/// flushed whichever way the query returns.
pub(crate) struct BbTally {
    counts: Cell<BbCounts>,
}

/// The work a [`BbTally`] has counted since it started or last flushed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BbCounts {
    /// Boxes popped off the frontier.
    pub(crate) boxes: u64,
    /// Boxes excluded by guard pruning.
    pub(crate) prunes: u64,
    /// Whether the query was refuted by a counterexample.
    pub(crate) counterexample: bool,
}

impl BbTally {
    /// Starts a tally (and counts the query itself).
    pub(crate) fn start() -> Self {
        bb_queries().inc();
        BbTally {
            counts: Cell::new(BbCounts::default()),
        }
    }

    fn bump(&self, f: impl FnOnce(&mut BbCounts)) {
        let mut counts = self.counts.get();
        f(&mut counts);
        self.counts.set(counts);
    }

    /// Counts one popped box.
    #[inline]
    pub(crate) fn box_examined(&self) {
        self.bump(|c| c.boxes += 1);
    }

    /// Counts one guard-pruned box.
    #[inline]
    pub(crate) fn guard_prune(&self) {
        self.bump(|c| c.prunes += 1);
    }

    /// Marks the query as refuted by a counterexample.
    #[inline]
    pub(crate) fn found_counterexample(&self) {
        self.bump(|c| c.counterexample = true);
    }

    /// Adds the counts to the global counters and returns them, leaving the
    /// tally at zero so nothing is flushed twice.
    pub(crate) fn flush(&self) -> BbCounts {
        let counts = self.counts.take();
        bb_boxes().add(counts.boxes);
        bb_guard_prunes().add(counts.prunes);
        if counts.counterexample {
            bb_counterexamples().inc();
        }
        counts
    }
}

impl Drop for BbTally {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_flushes_what_it_counted_once() {
        let tally = BbTally::start();
        tally.box_examined();
        tally.box_examined();
        tally.guard_prune();
        tally.found_counterexample();
        let counts = BbCounts {
            boxes: 2,
            prunes: 1,
            counterexample: true,
        };
        assert_eq!(tally.flush(), counts);
        // Sibling tests bump the same process-wide counters concurrently,
        // so the registry is checked only for floors.
        assert!(bb_queries().get() >= 1);
        assert!(bb_boxes().get() >= counts.boxes);
        assert!(bb_guard_prunes().get() >= counts.prunes);
        assert!(bb_counterexamples().get() >= 1);
        // A flushed tally is empty, so the flush on drop adds nothing.
        assert_eq!(tally.flush(), BbCounts::default());
        tally.box_examined();
        assert_eq!(
            tally.flush(),
            BbCounts {
                boxes: 1,
                ..BbCounts::default()
            }
        );
    }

    #[test]
    fn install_registers_all_series() {
        install_metrics();
        let text = registry().render_prometheus();
        for series in [
            "vrl_solver_bb_queries_total",
            "vrl_solver_bb_boxes_total",
            "vrl_solver_bb_guard_prunes_total",
            "vrl_solver_bb_counterexamples_total",
            "vrl_solver_min_boxes_total",
            "vrl_solver_query_cache_hits_total",
            "vrl_solver_query_cache_misses_total",
            "vrl_solver_query_cache_evictions_total",
            "vrl_solver_shared_query_cache_hits_total",
            "vrl_solver_shared_query_cache_misses_total",
            "vrl_solver_shared_query_cache_contended_total",
        ] {
            assert!(text.contains(series), "missing series {series}");
        }
    }
}
