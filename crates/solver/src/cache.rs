//! Cross-query cache of compiled `objective + guards` families.
//!
//! Every branch-and-bound query compiles its objective and guard
//! polynomials into flat [`CompiledPolySet`]s so each box fills the
//! per-variable power tables once for the whole family.
//! CEGIS loops re-prove the *same* certificate families over and over —
//! every separation region re-checks the same negated barrier, and every
//! re-proof round replays queries an earlier round already compiled — so
//! recompiling per query is pure waste.  [`CompiledQueryCache`] memoizes
//! compiled families across queries, keyed by the exact term content of
//! the polynomials.
//!
//! # Cache-key semantics
//!
//! The key is the full structural identity of the query family: the number
//! of polynomials, and for each polynomial its variable count plus every
//! `(exponents, coefficient-bits)` term in canonical order.  Two queries
//! share an entry **iff** their objective and guards are term-for-term
//! identical (coefficients compared bitwise), so a cache hit can never
//! change a proof outcome — the compiled form retrieved is exactly the
//! compiled form a fresh compilation would produce.  Guard *order* is part
//! of the key (families are compiled in query order).
//!
//! # Eviction
//!
//! The cache is bounded: when full, the least-recently-used entry is
//! evicted.  Entries hand out [`Arc`] clones, so an in-flight proof keeps
//! its compiled family alive even if the entry is evicted mid-query.
//!
//! # Scope: two levels
//!
//! The cache is two-level.  **L1** is one instance per thread (see
//! [`with_query_cache`]): the solver entry points ([`crate::prove_bound`],
//! [`crate::sound_minimum`], and everything above them — the barrier,
//! linear, and engine verification layers) all route through the
//! thread-local instance, so the proof hot path takes no lock and a CEGIS
//! loop running on one thread reuses its own compilations for free.  **L2**
//! is a process-wide sharded store consulted only on an L1 miss: workloads
//! that fan the *same* families across worker threads — the decision-table
//! build and the serving fleet's per-shard redeploys — compile each family
//! once per process instead of once per thread.  The family key is purely
//! structural, so an L2 hit hands back exactly the compiled form a fresh
//! compilation would produce; sharing across threads can never change an
//! outcome.  L1 hit/miss/eviction counters keep their per-thread semantics
//! (an L2 hit still counts as an L1 miss); [`shared_query_cache_stats`]
//! exposes the process-wide counters separately.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex};
use vrl_poly::{CompiledPolySet, Polynomial};

/// Default capacity (in compiled families) of the per-thread query cache:
/// generously above the distinct queries of a verification run (a few per
/// candidate round) while keeping worst-case memory bounded.
pub const DEFAULT_QUERY_CACHE_CAPACITY: usize = 128;

/// Number of independently locked shards of the process-wide (L2) store:
/// enough that a worker pool's table-build fan-out rarely contends on one
/// mutex, small enough that the shard array costs nothing.
const SHARED_CACHE_SHARDS: usize = 8;

/// Capacity (in compiled families) of each L2 shard, so the process-wide
/// store holds at most `SHARED_CACHE_SHARDS * SHARED_SHARD_CAPACITY`
/// families before evicting least-recently-used entries.
const SHARED_SHARD_CAPACITY: usize = 64;

/// Aggregate counters of a [`CompiledQueryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Families currently resident.
    pub entries: usize,
    /// Maximum resident families.
    pub capacity: usize,
}

impl QueryCacheStats {
    /// Fraction of lookups answered from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    set: Arc<CompiledPolySet>,
    last_used: u64,
}

/// Aggregate counters of the process-wide (L2) store, summed over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharedQueryCacheStats {
    /// L1 misses answered by the shared store without recompiling.
    pub hits: u64,
    /// L1 misses that compiled a family new to the whole process.
    pub misses: u64,
    /// Families evicted to respect the per-shard capacity bound.
    pub evictions: u64,
    /// Families currently resident across all shards.
    pub entries: usize,
}

#[derive(Default)]
struct SharedShard {
    entries: HashMap<Vec<u64>, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The process-wide store: families a thread compiles become visible to
/// every other thread's L1 misses.  Compilation happens inside the shard
/// lock, so two threads racing on the same new family serialize and the
/// loser gets a hit instead of a duplicate compile; distinct shards never
/// contend.
static SHARED_CACHE: LazyLock<Vec<Mutex<SharedShard>>> = LazyLock::new(|| {
    (0..SHARED_CACHE_SHARDS)
        .map(|_| Mutex::new(SharedShard::default()))
        .collect()
});

/// FNV-1a over the key words picks the shard; the key is already a
/// canonical structural encoding, so identical families always land on the
/// same shard.
fn shard_for(key: &[u64]) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in key {
        hash ^= *word;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % SHARED_CACHE_SHARDS as u64) as usize
}

/// L2 lookup-or-compile for `key`/`polys` (the key must be
/// `family_key(polys)`).
fn shared_get_or_compile(key: &[u64], polys: &[&Polynomial]) -> Arc<CompiledPolySet> {
    let mutex = &SHARED_CACHE[shard_for(key)];
    // Probe with try_lock first so contention is observable: a failed probe
    // means another thread holds this shard right now.
    let mut guard = match mutex.try_lock() {
        Ok(guard) => guard,
        Err(std::sync::TryLockError::WouldBlock) => {
            crate::obs::shared_cache_contended().inc();
            mutex.lock().expect("shared query cache shard poisoned")
        }
        Err(std::sync::TryLockError::Poisoned(_)) => {
            panic!("shared query cache shard poisoned")
        }
    };
    // Reborrow through the guard once so the borrow checker sees disjoint
    // field borrows below.
    let shard = &mut *guard;
    shard.tick += 1;
    let tick = shard.tick;
    if let Some(entry) = shard.entries.get_mut(key) {
        entry.last_used = tick;
        shard.hits += 1;
        crate::obs::shared_cache_hits().inc();
        return Arc::clone(&entry.set);
    }
    shard.misses += 1;
    crate::obs::shared_cache_misses().inc();
    if shard.entries.len() >= SHARED_SHARD_CAPACITY {
        if let Some(oldest) = shard
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
        {
            shard.entries.remove(&oldest);
            shard.evictions += 1;
        }
    }
    let set = Arc::new(CompiledPolySet::compile_refs(polys));
    shard.entries.insert(
        key.to_vec(),
        Entry {
            set: Arc::clone(&set),
            last_used: tick,
        },
    );
    set
}

/// Process-wide counters of the shared (L2) store, summed over its shards.
pub fn shared_query_cache_stats() -> SharedQueryCacheStats {
    let mut stats = SharedQueryCacheStats::default();
    for shard in SHARED_CACHE.iter() {
        let shard = shard.lock().expect("shared query cache shard poisoned");
        stats.hits += shard.hits;
        stats.misses += shard.misses;
        stats.evictions += shard.evictions;
        stats.entries += shard.entries.len();
    }
    stats
}

/// Drops every family resident in the shared (L2) store and resets its
/// counters.  Affects the whole process; see [`reset_query_cache`].
pub fn reset_shared_query_cache() {
    for shard in SHARED_CACHE.iter() {
        let mut shard = shard.lock().expect("shared query cache shard poisoned");
        *shard = SharedShard::default();
    }
}

/// A bounded, LRU-evicting cache of compiled query families.
///
/// See the module documentation for the key semantics; see
/// [`with_query_cache`] for the thread-local instance the solver entry
/// points use.
///
/// # Examples
///
/// ```
/// use vrl_poly::Polynomial;
/// use vrl_solver::CompiledQueryCache;
///
/// let x = Polynomial::variable(0, 1);
/// let mut cache = CompiledQueryCache::new(8);
/// let first = cache.get_or_compile(&[&x]);
/// let second = cache.get_or_compile(&[&x]);
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
pub struct CompiledQueryCache {
    capacity: usize,
    entries: HashMap<Vec<u64>, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Encodes the structural identity of a query family (see the module
/// documentation): polynomial count, then per polynomial its variable
/// count, term count, and every `(exponents, coefficient-bits)` term in
/// canonical order.  Exponent runs have fixed length `nvars`, so the
/// encoding is unambiguous and the key is injective.
fn family_key(polys: &[&Polynomial]) -> Vec<u64> {
    let mut key = Vec::with_capacity(2 + polys.len() * 8);
    key.push(polys.len() as u64);
    for poly in polys {
        key.push(poly.nvars() as u64);
        key.push(poly.num_terms() as u64);
        for (exps, coeff) in poly.terms() {
            key.extend(exps.iter().map(|&e| e as u64));
            key.push(coeff.to_bits());
        }
    }
    key
}

impl CompiledQueryCache {
    /// Creates an empty cache bounded to `capacity` resident families.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "the query cache needs a positive capacity");
        CompiledQueryCache {
            capacity,
            entries: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Returns the compiled form of the family `polys`, consulting the
    /// process-wide (L2) store — and compiling, visibly to every thread —
    /// on first sight.  Evicts the least-recently-used entry when the
    /// capacity bound would be exceeded.  The hit/miss counters keep their
    /// per-instance semantics: an L2 hit still counts as a miss here.
    ///
    /// # Panics
    ///
    /// Panics if `polys` is empty or its members disagree on the variable
    /// count (the [`CompiledPolySet`] preconditions).
    pub fn get_or_compile(&mut self, polys: &[&Polynomial]) -> Arc<CompiledPolySet> {
        self.tick += 1;
        let key = family_key(polys);
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used = self.tick;
            self.hits += 1;
            crate::obs::cache_hits().inc();
            return Arc::clone(&entry.set);
        }
        self.misses += 1;
        crate::obs::cache_misses().inc();
        if self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
                self.evictions += 1;
                crate::obs::cache_evictions().inc();
            }
        }
        let set = shared_get_or_compile(&key, polys);
        self.entries.insert(
            key,
            Entry {
                set: Arc::clone(&set),
                last_used: self.tick,
            },
        );
        set
    }

    /// Current counters.
    pub fn stats(&self) -> QueryCacheStats {
        QueryCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            capacity: self.capacity,
        }
    }

    /// Number of resident families.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when no family is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every resident family and resets the counters.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }
}

thread_local! {
    /// The per-thread cache instance backing the solver entry points.
    static QUERY_CACHE: RefCell<CompiledQueryCache> =
        RefCell::new(CompiledQueryCache::new(DEFAULT_QUERY_CACHE_CAPACITY));
}

/// Runs `f` with exclusive access to this thread's [`CompiledQueryCache`].
///
/// This is the instance [`crate::prove_bound`] and
/// [`crate::sound_minimum`] pull compiled families from; tests and benches
/// use it to inspect or reset the counters around a workload.
pub fn with_query_cache<R>(f: impl FnOnce(&mut CompiledQueryCache) -> R) -> R {
    QUERY_CACHE.with(|cell| f(&mut cell.borrow_mut()))
}

/// Counters of this thread's query cache (see [`with_query_cache`]).
pub fn query_cache_stats() -> QueryCacheStats {
    with_query_cache(|cache| cache.stats())
}

/// Clears this thread's (L1) query cache and resets its counters, then
/// clears the process-wide (L2) store too, so a workload measured after a
/// reset starts from a genuinely cold cache.  Other threads' L1 instances
/// are untouched (their resident `Arc`s stay valid regardless).
pub fn reset_query_cache() {
    with_query_cache(CompiledQueryCache::clear);
    reset_shared_query_cache();
}

/// Serializes this crate's unit tests that reset the process-wide store
/// or rely on an entry surviving in it: the test harness runs tests
/// concurrently on one process, so an unguarded reset in one test can
/// drop a family another test is about to look up.
#[cfg(test)]
pub(crate) fn shared_store_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(coeff: f64) -> Polynomial {
        let x = Polynomial::variable(0, 1);
        &(&x * &x) + &Polynomial::constant(coeff, 1)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut cache = CompiledQueryCache::new(8);
        let a = poly(1.0);
        let b = poly(2.0);
        let guard = Polynomial::variable(0, 1);
        assert!(cache.is_empty());
        let first = cache.get_or_compile(&[&a, &guard]);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);
        // Same family: a hit handing back the same compiled set.
        let again = cache.get_or_compile(&[&a, &guard]);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(cache.stats().hits, 1);
        // Different objective, different guard order, sub-family: all misses.
        let _ = cache.get_or_compile(&[&b, &guard]);
        let _ = cache.get_or_compile(&[&guard, &a]);
        let _ = cache.get_or_compile(&[&a]);
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 0.2).abs() < 1e-12);
        // Coefficients are compared bitwise: a freshly built but identical
        // polynomial still hits.
        let rebuilt = poly(1.0);
        let hit = cache.get_or_compile(&[&rebuilt, &guard]);
        assert!(Arc::ptr_eq(&first, &hit));
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn eviction_respects_the_capacity_bound_and_lru_order() {
        let mut cache = CompiledQueryCache::new(2);
        let a = poly(1.0);
        let b = poly(2.0);
        let c = poly(3.0);
        let _ = cache.get_or_compile(&[&a]);
        let _ = cache.get_or_compile(&[&b]);
        // Touch `a` so `b` is the least recently used…
        let _ = cache.get_or_compile(&[&a]);
        // …and inserting `c` evicts `b`, not `a`.
        let _ = cache.get_or_compile(&[&c]);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        let _ = cache.get_or_compile(&[&a]);
        assert_eq!(cache.stats().hits, 2, "a must have survived eviction");
        let _ = cache.get_or_compile(&[&b]);
        assert_eq!(cache.stats().misses, 4, "b must have been evicted");
        // The cache never exceeds its capacity.
        assert!(cache.len() <= 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut cache = CompiledQueryCache::new(4);
        let a = poly(1.0);
        let _ = cache.get_or_compile(&[&a]);
        let _ = cache.get_or_compile(&[&a]);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), QueryCacheStats::default().with_capacity(4));
    }

    impl QueryCacheStats {
        fn with_capacity(mut self, capacity: usize) -> Self {
            self.capacity = capacity;
            self
        }
    }

    #[test]
    fn thread_local_instance_is_shared_within_a_thread() {
        let _guard = shared_store_test_guard();
        reset_query_cache();
        let a = poly(5.0);
        let first = with_query_cache(|cache| cache.get_or_compile(&[&a]));
        let second = with_query_cache(|cache| cache.get_or_compile(&[&a]));
        assert!(Arc::ptr_eq(&first, &second));
        let stats = query_cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        reset_query_cache();
        assert_eq!(query_cache_stats().entries, 0);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        let _ = CompiledQueryCache::new(0);
    }

    #[test]
    fn l1_misses_are_answered_by_the_process_wide_store() {
        // A family compiled through one cache instance must reach a second
        // instance — on another thread — through the shared L2 store, as
        // the identical `Arc`.  The guard keeps this crate's resetting
        // tests out; concurrent compilations could still evict the entry
        // from its shard, so try a few unique families and require sharing
        // on at least one attempt.
        let _guard = shared_store_test_guard();
        let shared = (0..3).any(|attempt| {
            let p = poly(123.456 + attempt as f64);
            let here = CompiledQueryCache::new(4).get_or_compile(&[&p]);
            let there = std::thread::spawn({
                let p = p.clone();
                move || CompiledQueryCache::new(4).get_or_compile(&[&p])
            })
            .join()
            .expect("worker thread panicked");
            Arc::ptr_eq(&here, &there)
        });
        assert!(
            shared,
            "compiled families must be shared across threads through L2"
        );
        let stats = shared_query_cache_stats();
        assert!(stats.hits + stats.misses > 0);
    }

    #[test]
    fn shard_selection_is_stable_and_in_range() {
        let a = poly(1.0);
        let key = family_key(&[&a]);
        assert_eq!(shard_for(&key), shard_for(&key));
        assert!(shard_for(&key) < SHARED_CACHE_SHARDS);
    }
}
