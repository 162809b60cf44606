//! Compiled (flattened) polynomial evaluation kernels.
//!
//! [`Polynomial`] stores terms in a `BTreeMap<Vec<u32>, f64>`, which is the
//! right representation for *algebra* (addition, substitution,
//! differentiation) but a poor one for *evaluation*: every `eval` walks the
//! tree, chases per-term heap allocations, and calls `powi` once per term
//! and variable.  Every hot loop of the pipeline — branch-and-bound bound
//! proving, barrier-certificate checking, and the deployed shield's
//! per-request `decide` — bottoms out in exactly that walk.
//!
//! This module lowers a polynomial into a flat structure-of-arrays form:
//!
//! * one contiguous coefficient buffer,
//! * a packed `(variable, exponent)` factor list (zero exponents are
//!   dropped at compile time), and
//! * per-variable maximum degrees, so each evaluation computes every needed
//!   power of every variable **once per point** instead of once per term.
//!
//! # Numerical contract
//!
//! Compiled evaluation is **bit-for-bit identical** to the reference
//! [`Polynomial::eval`] / [`Polynomial::eval_interval`] on finite inputs:
//! terms are visited in the same canonical order, factors are multiplied in
//! the same variable order, powers match `f64::powi` / [`Interval::pow`]
//! exactly (see `powi_exact`), interval products take the same
//! minimum/maximum over the same products, and partial sums are accumulated
//! in the same order.  Proofs found through compiled kernels are therefore
//! exactly the proofs the reference path would find.  (In degenerate
//! corner cases the *sign of zero* bounds may differ — the values are still
//! equal — and non-finite inputs, which the reference operators reject by
//! panicking, are outside the contract.)
//!
//! # Compiled-form invariants (when recompilation is required)
//!
//! A [`CompiledPolynomial`] is an immutable snapshot: it captures the terms
//! of the source polynomial at compile time and does **not** track later
//! changes.  Any operation producing a new [`Polynomial`] (arithmetic,
//! `substitute`, `pruned`, `scaled`, …) requires compiling the result again
//! if it is to be evaluated through the fast path.  Compiling is `O(terms)`
//! and allocation tells you when you got it wrong: compile once per
//! query/deployment, evaluate many times.
//!
//! # Scratch buffers
//!
//! Steady-state evaluation is allocation-free: power tables live in a
//! [`PolyScratch`] that is either supplied explicitly (`*_with` methods —
//! what the solver hot loops do) or borrowed from a thread-local pool (the
//! convenience methods — what the serving path does, one scratch per worker
//! thread).

use crate::{BatchPoints, Interval, Polynomial};
use std::cell::RefCell;

/// Number of lanes a batched evaluation sweep processes at once.
///
/// Eight `f64` lanes fill two AVX2 registers (or four SSE2 / NEON ones);
/// the batch kernels' inner loops run over fixed `[f64; LANE_WIDTH]`
/// blocks so the autovectorizer sees constant trip counts.  Batches larger
/// than the lane width are processed in chunks; ragged tails pad the power
/// table with `1.0` and only the live lanes are written back.
pub const LANE_WIDTH: usize = 8;

/// Reusable evaluation scratch: per-variable power tables for point,
/// interval, and lane-batched point evaluation.
///
/// A scratch grows to the largest polynomial it has served and is then
/// allocation-free.  One scratch may be shared across any number of
/// compiled polynomials and sets.
#[derive(Debug, Clone, Default)]
pub struct PolyScratch {
    /// `powers[offset(j) + k] = point[j].powi(k)`.
    powers: Vec<f64>,
    /// `ipowers[offset(j) + k] = domain[j].pow(k)` as raw `(lo, hi)` pairs,
    /// so the interval kernel runs on plain endpoint arithmetic.
    ipowers: Vec<(f64, f64)>,
    /// Batched power tables:
    /// `bpowers[(offset(j) + k) * LANE_WIDTH + lane] = point_lane[j].powi(k)`;
    /// pad lanes past the live count hold `1.0`.
    bpowers: Vec<f64>,
}

impl PolyScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        PolyScratch::default()
    }
}

thread_local! {
    /// Per-thread scratch backing the convenience `eval*` methods, so the
    /// serving path is allocation-free without threading buffers through
    /// every call site.
    static TLS_SCRATCH: RefCell<PolyScratch> = RefCell::new(PolyScratch::new());
}

/// Inline LSB-first square-and-multiply, bit-identical to `f64::powi`
/// (which lowers to compiler-rt's `__powidf2`, the same accumulation order):
/// table fills call this instead of paying a libcall per entry.  The
/// `powi_matches_f64_powi_bitwise` test pins the bit-parity.
#[inline(always)]
fn powi_exact(x: f64, n: u32) -> f64 {
    let mut n = n;
    let mut r = 1.0f64;
    let mut a = x;
    loop {
        if n & 1 == 1 {
            r *= a;
        }
        n >>= 1;
        if n == 0 {
            break;
        }
        a *= a;
    }
    r
}

/// Branch-free minimum selection: lowers to `minsd`-style instructions
/// instead of the NaN-propagating `f64::min` intrinsic.
#[inline(always)]
fn sel_min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Branch-free maximum selection; see [`sel_min`].
#[inline(always)]
fn sel_max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// The flat term storage shared by [`CompiledPolynomial`] and
/// [`CompiledPolySet`].
#[derive(Debug, Clone, PartialEq)]
struct Kernel {
    nvars: usize,
    /// Term coefficients in canonical (reference) order.
    coeffs: Vec<f64>,
    /// `term_starts[t]..term_starts[t + 1]` indexes `factors` for term `t`.
    term_starts: Vec<u32>,
    /// Packed nonzero factors, variable-major within each term, each
    /// pre-resolved to its power-table slot `pow_offsets[var] + exp` so the
    /// evaluation loops perform a single indexed load per factor.
    factors: Vec<u32>,
    /// `pow_offsets[j]` is the offset of variable `j`'s power table; the
    /// table for variable `j` holds degrees `0..=max_degree[j]`.
    pow_offsets: Vec<u32>,
    /// Total power-table length (`pow_offsets.last() + last max degree + 1`).
    table_len: usize,
}

impl Kernel {
    /// Lowers `polys` (all over the same variables) into one flat kernel,
    /// returning the kernel and the term range of each polynomial.
    fn compile(nvars: usize, polys: &[&Polynomial]) -> (Kernel, Vec<u32>) {
        let mut max_degree = vec![0u32; nvars];
        let mut coeffs = Vec::new();
        let mut term_starts = vec![0u32];
        // First pass: collect raw (variable, exponent) factors and the
        // per-variable degree bounds.
        let mut raw_factors: Vec<(u32, u32)> = Vec::new();
        let mut poly_starts = Vec::with_capacity(polys.len() + 1);
        poly_starts.push(0u32);
        for poly in polys {
            assert_eq!(
                poly.nvars(),
                nvars,
                "all polynomials of a compiled set must share the same variables"
            );
            for (exps, coeff) in poly.terms() {
                coeffs.push(coeff);
                for (j, &e) in exps.iter().enumerate() {
                    if e > 0 {
                        raw_factors.push((j as u32, e));
                        max_degree[j] = max_degree[j].max(e);
                    }
                }
                term_starts.push(raw_factors.len() as u32);
            }
            poly_starts.push(coeffs.len() as u32);
        }
        let mut pow_offsets = Vec::with_capacity(nvars);
        let mut offset = 0u32;
        for &d in &max_degree {
            pow_offsets.push(offset);
            offset += d + 1;
        }
        // Second pass: resolve each factor to its power-table slot.
        let factors = raw_factors
            .iter()
            .map(|&(var, exp)| pow_offsets[var as usize] + exp)
            .collect();
        (
            Kernel {
                nvars,
                coeffs,
                term_starts,
                factors,
                pow_offsets,
                table_len: offset as usize,
            },
            poly_starts,
        )
    }

    /// Fills the point power table: `powers[off(j) + k] = point[j].powi(k)`.
    ///
    /// `powi` (not iterated multiplication) keeps every factor bit-identical
    /// to what the reference evaluator computes per term.
    fn fill_powers(&self, point: &[f64], scratch: &mut PolyScratch) {
        assert_eq!(
            point.len(),
            self.nvars,
            "evaluation point has wrong dimension"
        );
        scratch.powers.resize(self.table_len.max(1), 0.0);
        for (j, &x) in point.iter().enumerate() {
            let off = self.pow_offsets[j] as usize;
            let end = self
                .pow_offsets
                .get(j + 1)
                .map_or(self.table_len, |&o| o as usize);
            for (k, slot) in scratch.powers[off..end].iter_mut().enumerate() {
                *slot = powi_exact(x, k as u32);
            }
        }
    }

    /// Fills the batched power table for lanes `base..base + lanes` of
    /// `points`:
    /// `bpowers[(off(j) + k) * LANE_WIDTH + lane] = points[base + lane][j].powi(k)`.
    ///
    /// Each entry is computed by the same `powi_exact` the scalar fill
    /// uses, so every live lane's table is bit-identical to what
    /// [`Kernel::fill_powers`] would produce for that point.  Pad lanes
    /// (`lanes..LANE_WIDTH`) are set to `1.0` so the fixed-width term loops
    /// stay in normal-number arithmetic; their results are never read.
    fn fill_powers_batch(
        &self,
        points: &BatchPoints,
        base: usize,
        lanes: usize,
        scratch: &mut PolyScratch,
    ) {
        debug_assert!(0 < lanes && lanes <= LANE_WIDTH);
        assert_eq!(
            points.nvars(),
            self.nvars,
            "evaluation batch has wrong dimension"
        );
        scratch
            .bpowers
            .resize(self.table_len.max(1) * LANE_WIDTH, 0.0);
        for j in 0..self.nvars {
            let col = &points.column(j)[base..base + lanes];
            let off = self.pow_offsets[j] as usize;
            let end = self
                .pow_offsets
                .get(j + 1)
                .map_or(self.table_len, |&o| o as usize);
            for k in 0..(end - off) {
                let row = &mut scratch.bpowers[(off + k) * LANE_WIDTH..(off + k + 1) * LANE_WIDTH];
                let (live, pad) = row.split_at_mut(lanes);
                for (slot, &x) in live.iter_mut().zip(col.iter()) {
                    *slot = powi_exact(x, k as u32);
                }
                pad.fill(1.0);
            }
        }
    }

    /// Sums terms `range` against a filled batched power table, writing one
    /// value per live lane into `out` (`out.len() == lanes`).
    ///
    /// Per lane this performs exactly the operations of
    /// [`Kernel::sum_terms`] in exactly the same order — the lane dimension
    /// only interleaves independent evaluations — so each lane's result is
    /// bit-identical to the scalar kernel's.  The inner loops run over
    /// fixed-width `[f64; LANE_WIDTH]` blocks with constant trip counts,
    /// which is what lets the compiler lower them to SIMD.
    ///
    /// # Table-access safety
    ///
    /// Same structural invariant as [`Kernel::sum_terms`]: every factor
    /// slot is `< table_len`, and [`Kernel::fill_powers_batch`] (the only
    /// caller's preceding step) resizes the batch table to
    /// `table_len * LANE_WIDTH`.
    fn sum_terms_batch(
        &self,
        range: std::ops::Range<usize>,
        lanes: usize,
        scratch: &PolyScratch,
        out: &mut [f64],
    ) {
        let bpowers = scratch.bpowers.as_slice();
        debug_assert!(bpowers.len() >= self.table_len * LANE_WIDTH);
        debug_assert!(self
            .factors
            .iter()
            .all(|&s| (s as usize) < self.table_len.max(1)));
        debug_assert_eq!(out.len(), lanes);
        let coeffs = &self.coeffs[range.clone()];
        let starts = &self.term_starts[range.start..range.end + 1];
        let mut totals = [0.0f64; LANE_WIDTH];
        for (window, &coeff) in starts.windows(2).zip(coeffs.iter()) {
            let mut term = [coeff; LANE_WIDTH];
            for &slot in &self.factors[window[0] as usize..window[1] as usize] {
                // SAFETY: slot < table_len and the caller just resized
                // `bpowers` to at least `table_len * LANE_WIDTH` (see above).
                let row = unsafe {
                    bpowers
                        .get_unchecked(slot as usize * LANE_WIDTH..(slot as usize + 1) * LANE_WIDTH)
                };
                for (t, &p) in term.iter_mut().zip(row.iter()) {
                    *t *= p;
                }
            }
            for (total, &t) in totals.iter_mut().zip(term.iter()) {
                *total += t;
            }
        }
        out.copy_from_slice(&totals[..lanes]);
    }

    /// Fills the interval power table, entry-for-entry bit-identical to
    /// [`Interval::pow`] (endpoint `powi` plus the even/odd sign rules),
    /// with the per-variable sign classification hoisted out of the degree
    /// loop.
    fn fill_ipowers(&self, domain: &[Interval], scratch: &mut PolyScratch) {
        assert_eq!(
            domain.len(),
            self.nvars,
            "interval domain has wrong dimension"
        );
        scratch.ipowers.resize(self.table_len.max(1), (0.0, 0.0));
        for (j, iv) in domain.iter().enumerate() {
            let off = self.pow_offsets[j] as usize;
            let end = self
                .pow_offsets
                .get(j + 1)
                .map_or(self.table_len, |&o| o as usize);
            let (lo, hi) = (iv.lo(), iv.hi());
            let nonnegative = lo >= 0.0;
            let nonpositive = hi <= 0.0;
            for (k, slot) in scratch.ipowers[off..end].iter_mut().enumerate() {
                *slot = match k {
                    0 => (1.0, 1.0),
                    1 => (lo, hi),
                    _ => {
                        let a = powi_exact(lo, k as u32);
                        let b = powi_exact(hi, k as u32);
                        if k % 2 == 0 {
                            if nonnegative {
                                (a, b)
                            } else if nonpositive {
                                (b, a)
                            } else {
                                (0.0, if a > b { a } else { b })
                            }
                        } else {
                            (a, b)
                        }
                    }
                };
            }
        }
    }

    /// Sums terms `range` against a filled point power table.
    ///
    /// # Table-access safety
    ///
    /// The unchecked power-table loads here and in
    /// [`Kernel::sum_terms_interval`] rely on a structural invariant
    /// established at compile time and re-checked by a debug assertion:
    /// every entry of `factors` is `pow_offsets[var] + exp` with
    /// `exp <= max_degree[var]`, hence `< table_len`, and both `fill_*`
    /// methods (the only callers' preceding step) resize the scratch table
    /// to at least `table_len`.
    fn sum_terms(&self, range: std::ops::Range<usize>, scratch: &PolyScratch) -> f64 {
        let powers = scratch.powers.as_slice();
        debug_assert!(powers.len() >= self.table_len);
        debug_assert!(self
            .factors
            .iter()
            .all(|&s| (s as usize) < self.table_len.max(1)));
        let coeffs = &self.coeffs[range.clone()];
        let starts = &self.term_starts[range.start..range.end + 1];
        let mut total = 0.0;
        for (window, &coeff) in starts.windows(2).zip(coeffs.iter()) {
            let mut term = coeff;
            for &slot in &self.factors[window[0] as usize..window[1] as usize] {
                // SAFETY: slot < table_len <= powers.len() (see above).
                term *= unsafe { *powers.get_unchecked(slot as usize) };
            }
            total += term;
        }
        total
    }

    /// Sums terms `range` against a filled interval power table.
    ///
    /// Runs on raw endpoint arithmetic: the same products in the same order
    /// as the reference `Interval` operator chain (so the bounds are
    /// bit-identical for finite inputs), without the per-operation interval
    /// validation the operators perform.  Two specializations keep it fast:
    /// the first factor of each term multiplies a *point* interval, which is
    /// a two-product scale picked by the (compile-time-known) coefficient
    /// sign, and min/max selection uses plain comparisons, which lower to
    /// branch-free `minsd`/`maxsd`-style instructions instead of the
    /// NaN-propagating `f64::min`/`max` intrinsics.
    fn sum_terms_interval(&self, range: std::ops::Range<usize>, scratch: &PolyScratch) -> Interval {
        let ipowers = scratch.ipowers.as_slice();
        debug_assert!(ipowers.len() >= self.table_len);
        debug_assert!(self
            .factors
            .iter()
            .all(|&s| (s as usize) < self.table_len.max(1)));
        let coeffs = &self.coeffs[range.clone()];
        let starts = &self.term_starts[range.start..range.end + 1];
        let mut total_lo = 0.0f64;
        let mut total_hi = 0.0f64;
        for (window, &coeff) in starts.windows(2).zip(coeffs.iter()) {
            let factors = &self.factors[window[0] as usize..window[1] as usize];
            let (first, rest) = match factors.split_first() {
                None => {
                    total_lo += coeff;
                    total_hi += coeff;
                    continue;
                }
                Some((&first, rest)) => (first, rest),
            };
            // Branchless point-interval scale for the first factor: random
            // coefficient signs would mispredict a sign branch per term.
            // SAFETY: every factor slot < table_len <= ipowers.len() (see
            // `sum_terms`).
            let (p_lo, p_hi) = unsafe { *ipowers.get_unchecked(first as usize) };
            let a0 = coeff * p_lo;
            let b0 = coeff * p_hi;
            let mut term_lo = sel_min(a0, b0);
            let mut term_hi = sel_max(a0, b0);
            for &slot in rest {
                // SAFETY: as above.
                let (p_lo, p_hi) = unsafe { *ipowers.get_unchecked(slot as usize) };
                // [term] * [p], products in the reference operand order.
                let a = term_lo * p_lo;
                let b = term_lo * p_hi;
                let c = term_hi * p_lo;
                let d = term_hi * p_hi;
                term_lo = sel_min(sel_min(a, b), sel_min(c, d));
                term_hi = sel_max(sel_max(a, b), sel_max(c, d));
            }
            total_lo += term_lo;
            total_hi += term_hi;
        }
        Interval::new(total_lo, total_hi)
    }
}

/// A polynomial lowered into flat arrays for fast repeated evaluation.
///
/// See the `compiled` module documentation for the layout, the numerical
/// contract, and when recompilation is required.
///
/// # Examples
///
/// ```
/// use vrl_poly::Polynomial;
///
/// let p = Polynomial::from_terms(2, vec![(vec![2, 1], 3.0), (vec![0, 0], -1.0)]);
/// let compiled = p.compile();
/// assert_eq!(compiled.eval(&[2.0, 1.0]), p.eval(&[2.0, 1.0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPolynomial {
    kernel: Kernel,
}

impl CompiledPolynomial {
    /// Compiles a polynomial (see also [`Polynomial::compile`]).
    pub fn new(poly: &Polynomial) -> Self {
        let (kernel, _) = Kernel::compile(poly.nvars(), &[poly]);
        CompiledPolynomial { kernel }
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.kernel.nvars
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.kernel.coeffs.len()
    }

    /// Evaluates at a point using the thread-local scratch.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.nvars()`.
    pub fn eval(&self, point: &[f64]) -> f64 {
        TLS_SCRATCH.with(|s| self.eval_with(point, &mut s.borrow_mut()))
    }

    /// Evaluates at a point using a caller-managed scratch (allocation-free
    /// once the scratch has grown).
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.nvars()`.
    pub fn eval_with(&self, point: &[f64], scratch: &mut PolyScratch) -> f64 {
        self.kernel.fill_powers(point, scratch);
        self.kernel.sum_terms(0..self.kernel.coeffs.len(), scratch)
    }

    /// Evaluates every lane of a [`BatchPoints`] batch, writing one value
    /// per state into `out` (resized to `points.len()`), using the
    /// thread-local scratch.
    ///
    /// Lanes are swept [`LANE_WIDTH`] states at a time with one shared
    /// power-table fill per variable per sweep; each lane's result is
    /// **bit-for-bit** the value [`CompiledPolynomial::eval`] returns for
    /// that state (debug builds assert this per lane).
    ///
    /// # Examples
    ///
    /// ```
    /// use vrl_poly::{BatchPoints, Polynomial};
    ///
    /// let p = Polynomial::from_terms(2, vec![(vec![2, 1], 3.0), (vec![0, 0], -1.0)]);
    /// let compiled = p.compile();
    /// let batch = BatchPoints::from_states(2, &[vec![2.0, 1.0], vec![-0.5, 3.0]]);
    /// let mut out = Vec::new();
    /// compiled.evaluate_batch(&batch, &mut out);
    /// assert_eq!(out, vec![p.eval(&[2.0, 1.0]), p.eval(&[-0.5, 3.0])]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `points.nvars() != self.nvars()`.
    pub fn evaluate_batch(&self, points: &BatchPoints, out: &mut Vec<f64>) {
        TLS_SCRATCH.with(|s| self.evaluate_batch_with(points, out, &mut s.borrow_mut()))
    }

    /// Batched evaluation with a caller-managed scratch (allocation-free
    /// once the scratch and `out` have grown).
    ///
    /// # Panics
    ///
    /// Panics if `points.nvars() != self.nvars()`.
    pub fn evaluate_batch_with(
        &self,
        points: &BatchPoints,
        out: &mut Vec<f64>,
        scratch: &mut PolyScratch,
    ) {
        assert_eq!(
            points.nvars(),
            self.nvars(),
            "evaluation batch has wrong dimension"
        );
        let n = points.len();
        out.clear();
        out.resize(n, 0.0);
        let mut base = 0;
        while base < n {
            let lanes = (n - base).min(LANE_WIDTH);
            self.kernel.fill_powers_batch(points, base, lanes, scratch);
            self.kernel.sum_terms_batch(
                0..self.kernel.coeffs.len(),
                lanes,
                scratch,
                &mut out[base..base + lanes],
            );
            base += lanes;
        }
        #[cfg(debug_assertions)]
        for (i, value) in out.iter().enumerate() {
            debug_assert_eq!(
                value.to_bits(),
                self.eval_with(&points.state(i), scratch).to_bits(),
                "batch lane {i} diverged from the scalar kernel"
            );
        }
    }

    /// Conservative interval enclosure over a box, using the thread-local
    /// scratch.
    ///
    /// # Examples
    ///
    /// ```
    /// use vrl_poly::{Interval, Polynomial};
    ///
    /// let x = Polynomial::variable(0, 1);
    /// let p = &(&x * &x) - &x; // x² − x
    /// let domain = [Interval::new(-1.0, 2.0)];
    /// let enclosure = p.compile().eval_interval(&domain);
    /// assert_eq!(enclosure, p.eval_interval(&domain)); // bit-exact
    /// assert_eq!(enclosure, Interval::new(-2.0, 5.0)); // [0, 4] − [−1, 2]
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `domain.len() != self.nvars()`.
    pub fn eval_interval(&self, domain: &[Interval]) -> Interval {
        TLS_SCRATCH.with(|s| self.eval_interval_with(domain, &mut s.borrow_mut()))
    }

    /// Conservative interval enclosure over a box with a caller-managed
    /// scratch.
    ///
    /// # Panics
    ///
    /// Panics if `domain.len() != self.nvars()`.
    pub fn eval_interval_with(&self, domain: &[Interval], scratch: &mut PolyScratch) -> Interval {
        self.kernel.fill_ipowers(domain, scratch);
        self.kernel
            .sum_terms_interval(0..self.kernel.coeffs.len(), scratch)
    }
}

impl From<&Polynomial> for CompiledPolynomial {
    fn from(poly: &Polynomial) -> Self {
        CompiledPolynomial::new(poly)
    }
}

/// A family of polynomials over the same variables compiled together, so
/// simultaneous evaluation (successor components, guard cascades, action
/// tuples) fills each per-variable power table **once** for the whole
/// family.
///
/// # Examples
///
/// ```
/// use vrl_poly::{CompiledPolySet, Polynomial};
///
/// let x = Polynomial::variable(0, 2);
/// let y = Polynomial::variable(1, 2);
/// let set = CompiledPolySet::compile(&[&x * &x, &x + &y]);
/// let mut out = [0.0; 2];
/// set.eval_into(&[2.0, 3.0], &mut out);
/// assert_eq!(out, [4.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPolySet {
    kernel: Kernel,
    /// `poly_starts[i]..poly_starts[i + 1]` is the term range of poly `i`.
    poly_starts: Vec<u32>,
}

impl CompiledPolySet {
    /// Compiles a family of polynomials.
    ///
    /// # Panics
    ///
    /// Panics if `polys` is empty or the polynomials disagree on the number
    /// of variables.
    pub fn compile(polys: &[Polynomial]) -> Self {
        let refs: Vec<&Polynomial> = polys.iter().collect();
        Self::compile_refs(&refs)
    }

    /// Compiles a family of polynomials given by reference.
    ///
    /// # Panics
    ///
    /// Panics if `polys` is empty or the polynomials disagree on the number
    /// of variables.
    pub fn compile_refs(polys: &[&Polynomial]) -> Self {
        assert!(
            !polys.is_empty(),
            "a compiled set needs at least one polynomial"
        );
        let nvars = polys[0].nvars();
        let (kernel, poly_starts) = Kernel::compile(nvars, polys);
        CompiledPolySet {
            kernel,
            poly_starts,
        }
    }

    /// Number of polynomials in the set.
    pub fn len(&self) -> usize {
        self.poly_starts.len() - 1
    }

    /// Returns true when the set is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.kernel.nvars
    }

    fn range(&self, index: usize) -> std::ops::Range<usize> {
        self.poly_starts[index] as usize..self.poly_starts[index + 1] as usize
    }

    /// Evaluates every polynomial at `point` into `out`, using the
    /// thread-local scratch.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.nvars()` or `out.len() != self.len()`.
    pub fn eval_into(&self, point: &[f64], out: &mut [f64]) {
        TLS_SCRATCH.with(|s| self.eval_into_with(point, out, &mut s.borrow_mut()))
    }

    /// Evaluates every polynomial at `point` into `out` with a
    /// caller-managed scratch.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.nvars()` or `out.len() != self.len()`.
    pub fn eval_into_with(&self, point: &[f64], out: &mut [f64], scratch: &mut PolyScratch) {
        assert_eq!(out.len(), self.len(), "output slice has wrong length");
        self.kernel.fill_powers(point, scratch);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.kernel.sum_terms(self.range(i), scratch);
        }
    }

    /// Evaluates every polynomial of the set at every lane of a
    /// [`BatchPoints`] batch, using the thread-local scratch.
    ///
    /// `out` is resized to `self.len() * points.len()` and laid out
    /// polynomial-major: `out[i * points.len() + lane]` is polynomial `i`
    /// at state `lane`, so each polynomial's lane values are contiguous
    /// (what a guard cascade consumes).  Each sweep fills the per-variable
    /// power tables **once** for the whole family across [`LANE_WIDTH`]
    /// lanes, and every entry is bit-for-bit the scalar
    /// [`CompiledPolySet::eval_into`] value (debug builds assert this).
    ///
    /// # Examples
    ///
    /// ```
    /// use vrl_poly::{BatchPoints, CompiledPolySet, Polynomial};
    ///
    /// let x = Polynomial::variable(0, 2);
    /// let y = Polynomial::variable(1, 2);
    /// let set = CompiledPolySet::compile(&[&x * &x, &x + &y]);
    /// let batch = BatchPoints::from_states(2, &[vec![2.0, 3.0], vec![-1.0, 0.5]]);
    /// let mut out = Vec::new();
    /// set.evaluate_batch(&batch, &mut out);
    /// assert_eq!(out, vec![4.0, 1.0, 5.0, -0.5]); // [x² lanes..., x+y lanes...]
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `points.nvars() != self.nvars()`.
    pub fn evaluate_batch(&self, points: &BatchPoints, out: &mut Vec<f64>) {
        TLS_SCRATCH.with(|s| self.evaluate_batch_with(points, out, &mut s.borrow_mut()))
    }

    /// Batched family evaluation with a caller-managed scratch (see
    /// [`CompiledPolySet::evaluate_batch`] for the output layout).
    ///
    /// # Panics
    ///
    /// Panics if `points.nvars() != self.nvars()`.
    pub fn evaluate_batch_with(
        &self,
        points: &BatchPoints,
        out: &mut Vec<f64>,
        scratch: &mut PolyScratch,
    ) {
        assert_eq!(
            points.nvars(),
            self.nvars(),
            "evaluation batch has wrong dimension"
        );
        let n = points.len();
        out.clear();
        out.resize(self.len() * n, 0.0);
        let mut base = 0;
        while base < n {
            let lanes = (n - base).min(LANE_WIDTH);
            self.kernel.fill_powers_batch(points, base, lanes, scratch);
            for i in 0..self.len() {
                self.kernel.sum_terms_batch(
                    self.range(i),
                    lanes,
                    scratch,
                    &mut out[i * n + base..i * n + base + lanes],
                );
            }
            base += lanes;
        }
        #[cfg(debug_assertions)]
        {
            let mut reference = vec![0.0; self.len()];
            for lane in 0..n {
                self.eval_into_with(&points.state(lane), &mut reference, scratch);
                for (i, r) in reference.iter().enumerate() {
                    debug_assert_eq!(
                        out[i * n + lane].to_bits(),
                        r.to_bits(),
                        "batch lane {lane} of polynomial {i} diverged from the scalar kernel"
                    );
                }
            }
        }
    }

    /// Evaluates one polynomial of the set at `point` (shares the set's
    /// compiled tables; the power table is still filled per call).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()` or `point.len() != self.nvars()`.
    pub fn eval_one(&self, index: usize, point: &[f64]) -> f64 {
        TLS_SCRATCH.with(|s| {
            let scratch = &mut s.borrow_mut();
            self.kernel.fill_powers(point, scratch);
            self.kernel.sum_terms(self.range(index), scratch)
        })
    }

    /// Interval enclosures of every polynomial over `domain` into `out`,
    /// using the thread-local scratch.
    ///
    /// # Examples
    ///
    /// ```
    /// use vrl_poly::{CompiledPolySet, Interval, Polynomial};
    ///
    /// let x = Polynomial::variable(0, 1);
    /// let set = CompiledPolySet::compile(&[&x * &x, -&x]);
    /// let mut out = [Interval::zero(); 2];
    /// set.eval_interval_into(&[Interval::new(-1.0, 2.0)], &mut out);
    /// assert_eq!(out, [Interval::new(0.0, 4.0), Interval::new(-2.0, 1.0)]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `domain.len() != self.nvars()` or `out.len() != self.len()`.
    pub fn eval_interval_into(&self, domain: &[Interval], out: &mut [Interval]) {
        TLS_SCRATCH.with(|s| self.eval_interval_into_with(domain, out, &mut s.borrow_mut()))
    }

    /// Interval enclosures of every polynomial over `domain` into `out`
    /// with a caller-managed scratch.
    ///
    /// # Panics
    ///
    /// Panics if `domain.len() != self.nvars()` or `out.len() != self.len()`.
    pub fn eval_interval_into_with(
        &self,
        domain: &[Interval],
        out: &mut [Interval],
        scratch: &mut PolyScratch,
    ) {
        assert_eq!(out.len(), self.len(), "output slice has wrong length");
        self.kernel.fill_ipowers(domain, scratch);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.kernel.sum_terms_interval(self.range(i), scratch);
        }
    }
}

impl Polynomial {
    /// Lowers this polynomial into the flat [`CompiledPolynomial`] form for
    /// fast repeated evaluation.
    ///
    /// The compiled form is a snapshot: recompile after any operation that
    /// produces a new polynomial (see the `compiled` module documentation
    /// on when recompilation is required).
    pub fn compile(&self) -> CompiledPolynomial {
        CompiledPolynomial::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial_basis;
    use proptest::prelude::*;

    /// Builds a random polynomial with up to `coeffs.len()` terms over
    /// `nvars` variables, total degree capped at 6.
    fn poly_from_raw(nvars: usize, raw_exps: &[u32], coeffs: &[f64]) -> Polynomial {
        let mut terms = Vec::with_capacity(coeffs.len());
        for (t, &c) in coeffs.iter().enumerate() {
            let mut exps: Vec<u32> = (0..nvars).map(|j| raw_exps[t * nvars + j] % 7).collect();
            // Cap the total degree at 6 by shaving excess exponents.
            while exps.iter().sum::<u32>() > 6 {
                for e in exps.iter_mut() {
                    if *e > 0 {
                        *e -= 1;
                        break;
                    }
                }
            }
            terms.push((exps, c));
        }
        Polynomial::from_terms(nvars, terms)
    }

    #[test]
    fn powi_matches_f64_powi_bitwise() {
        // The bit-for-bit contract of the compiled kernels rests on
        // `powi_exact` agreeing with `f64::powi` exactly; pin it across
        // magnitudes, signs, and exponents (including 0^0 = 1).
        let xs = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -0.3,
            1.5,
            -2.75,
            1e-8,
            -1e8,
            std::f64::consts::PI,
        ];
        for &x in &xs {
            for k in 0u32..=16 {
                assert_eq!(
                    powi_exact(x, k).to_bits(),
                    x.powi(k as i32).to_bits(),
                    "powi mismatch at x={x}, k={k}"
                );
            }
        }
    }

    #[test]
    fn compiled_matches_reference_on_fixed_cases() {
        // p(x, y) = 3x²y − y³ + 0.5x − 2
        let p = Polynomial::from_terms(
            2,
            vec![
                (vec![2, 1], 3.0),
                (vec![0, 3], -1.0),
                (vec![1, 0], 0.5),
                (vec![0, 0], -2.0),
            ],
        );
        let c = p.compile();
        assert_eq!(c.nvars(), 2);
        assert_eq!(c.num_terms(), 4);
        for point in [[0.0, 0.0], [1.5, -2.0], [-0.3, 0.7], [100.0, -3.5]] {
            assert_eq!(p.eval(&point).to_bits(), c.eval(&point).to_bits());
        }
        let dom = [Interval::new(-1.0, 2.0), Interval::new(0.5, 0.75)];
        let reference = p.eval_interval(&dom);
        let compiled = c.eval_interval(&dom);
        assert_eq!(reference.lo().to_bits(), compiled.lo().to_bits());
        assert_eq!(reference.hi().to_bits(), compiled.hi().to_bits());
    }

    #[test]
    fn zero_and_constant_polynomials() {
        let zero = Polynomial::zero(3).compile();
        assert_eq!(zero.eval(&[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(zero.eval_interval(&[Interval::zero(); 3]), Interval::zero());
        let k = Polynomial::constant(4.25, 0).compile();
        assert_eq!(k.eval(&[]), 4.25);
    }

    #[test]
    fn set_evaluates_all_members() {
        let x = Polynomial::variable(0, 2);
        let y = Polynomial::variable(1, 2);
        let polys = vec![&x * &x, &x + &y, Polynomial::constant(7.0, 2)];
        let set = CompiledPolySet::compile(&polys);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert_eq!(set.nvars(), 2);
        let point = [3.0, -1.0];
        let mut out = [0.0; 3];
        set.eval_into(&point, &mut out);
        for (i, poly) in polys.iter().enumerate() {
            assert_eq!(out[i].to_bits(), poly.eval(&point).to_bits());
            assert_eq!(
                set.eval_one(i, &point).to_bits(),
                poly.eval(&point).to_bits()
            );
        }
        let dom = [Interval::new(-2.0, 3.5), Interval::new(-1.0, -0.5)];
        let mut iout = [Interval::zero(); 3];
        set.eval_interval_into(&dom, &mut iout);
        for (i, poly) in polys.iter().enumerate() {
            assert_eq!(iout[i], poly.eval_interval(&dom));
        }
    }

    #[test]
    fn scratch_reuse_across_different_shapes() {
        let mut scratch = PolyScratch::new();
        let small = Polynomial::variable(0, 1).compile();
        let big = Polynomial::from_basis(
            3,
            &monomial_basis(3, 4),
            &(0..crate::basis_size(3, 4))
                .map(|i| i as f64 * 0.1 - 1.0)
                .collect::<Vec<_>>(),
        );
        let big_c = big.compile();
        assert_eq!(small.eval_with(&[2.0], &mut scratch), 2.0);
        let point = [0.3, -0.4, 1.1];
        assert_eq!(
            big_c.eval_with(&point, &mut scratch).to_bits(),
            big.eval(&point).to_bits()
        );
        // Shrinking back to the small polynomial still works.
        assert_eq!(small.eval_with(&[-1.5], &mut scratch), -1.5);
    }

    #[test]
    fn interval_scratch_reuse_across_shapes() {
        // One scratch serving sets of different sizes and variable counts in
        // turn, as the branch-and-bound guard and objective families and the
        // decision-table build share theirs: every enclosure stays
        // bit-identical to the reference.
        let mut scratch = PolyScratch::new();
        let x = Polynomial::variable(0, 1);
        let small = CompiledPolySet::compile(&[&x * &x, -&x]);
        let big_polys: Vec<Polynomial> = (0..3)
            .map(|k| {
                Polynomial::from_basis(
                    3,
                    &monomial_basis(3, 4),
                    &(0..crate::basis_size(3, 4))
                        .map(|i| (i + k) as f64 * 0.1 - 1.0)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let big = CompiledPolySet::compile(&big_polys);
        let small_dom = [Interval::new(-1.0, 2.0)];
        let big_dom = [
            Interval::new(-0.5, 0.25),
            Interval::new(0.1, 0.9),
            Interval::new(-2.0, -1.0),
        ];
        let check = |polys: &[Polynomial], dom: &[Interval], out: &[Interval]| {
            for (poly, enclosure) in polys.iter().zip(out.iter()) {
                let reference = poly.eval_interval(dom);
                assert_eq!(enclosure.lo().to_bits(), reference.lo().to_bits());
                assert_eq!(enclosure.hi().to_bits(), reference.hi().to_bits());
            }
        };
        let small_polys = [&x * &x, -&x];
        let mut small_out = [Interval::zero(); 2];
        let mut big_out = [Interval::zero(); 3];
        for _ in 0..2 {
            small.eval_interval_into_with(&small_dom, &mut small_out, &mut scratch);
            check(&small_polys, &small_dom, &small_out);
            big.eval_interval_into_with(&big_dom, &mut big_out, &mut scratch);
            check(&big_polys, &big_dom, &big_out);
        }
    }

    #[test]
    fn batch_matches_scalar_on_fixed_cases() {
        let p = Polynomial::from_terms(
            2,
            vec![
                (vec![2, 1], 3.0),
                (vec![0, 3], -1.0),
                (vec![1, 0], 0.5),
                (vec![0, 0], -2.0),
            ],
        );
        let c = p.compile();
        // 19 states: two full 8-lane sweeps plus a ragged 3-lane tail.
        let states: Vec<Vec<f64>> = (0..19)
            .map(|i| vec![(i as f64) * 0.37 - 3.0, 2.5 - (i as f64) * 0.21])
            .collect();
        let batch = BatchPoints::from_states(2, &states);
        let mut out = Vec::new();
        c.evaluate_batch(&batch, &mut out);
        assert_eq!(out.len(), states.len());
        for (state, &value) in states.iter().zip(out.iter()) {
            assert_eq!(value.to_bits(), p.eval(state).to_bits());
        }
        // An empty batch produces an empty output.
        c.evaluate_batch(&BatchPoints::new(2), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn batch_set_layout_is_polynomial_major() {
        let x = Polynomial::variable(0, 2);
        let y = Polynomial::variable(1, 2);
        let polys = vec![&x * &x, &x + &y, Polynomial::constant(7.0, 2)];
        let set = CompiledPolySet::compile(&polys);
        let states: Vec<Vec<f64>> = (0..11)
            .map(|i| vec![(i as f64) * 0.5 - 2.0, 1.0 - (i as f64) * 0.3])
            .collect();
        let batch = BatchPoints::from_states(2, &states);
        let mut out = Vec::new();
        set.evaluate_batch(&batch, &mut out);
        assert_eq!(out.len(), polys.len() * states.len());
        for (i, poly) in polys.iter().enumerate() {
            for (lane, state) in states.iter().enumerate() {
                assert_eq!(
                    out[i * states.len() + lane].to_bits(),
                    poly.eval(state).to_bits(),
                    "polynomial {i}, lane {lane}"
                );
            }
        }
    }

    #[test]
    fn batch_scratch_reuse_across_shapes() {
        let mut scratch = PolyScratch::new();
        let small = Polynomial::variable(0, 1).compile();
        let big = Polynomial::from_basis(
            3,
            &monomial_basis(3, 4),
            &(0..crate::basis_size(3, 4))
                .map(|i| i as f64 * 0.1 - 1.0)
                .collect::<Vec<_>>(),
        );
        let big_c = big.compile();
        let mut out = Vec::new();
        let small_batch = BatchPoints::from_states(1, &[vec![2.0], vec![-1.0]]);
        small.evaluate_batch_with(&small_batch, &mut out, &mut scratch);
        assert_eq!(out, vec![2.0, -1.0]);
        let big_states: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![0.3 - 0.05 * i as f64, -0.4, 1.1])
            .collect();
        let big_batch = BatchPoints::from_states(3, &big_states);
        big_c.evaluate_batch_with(&big_batch, &mut out, &mut scratch);
        for (state, &value) in big_states.iter().zip(out.iter()) {
            assert_eq!(value.to_bits(), big.eval(state).to_bits());
        }
        // Shrinking back to the small polynomial still works.
        small.evaluate_batch_with(&small_batch, &mut out, &mut scratch);
        assert_eq!(out, vec![2.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn compiled_eval_rejects_wrong_dimension() {
        let _ = Polynomial::variable(0, 2).compile().eval(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn batch_eval_rejects_wrong_dimension() {
        let batch = BatchPoints::from_states(1, &[vec![1.0]]);
        Polynomial::variable(0, 2)
            .compile()
            .evaluate_batch(&batch, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "same variables")]
    fn set_rejects_mismatched_variable_counts() {
        let _ = CompiledPolySet::compile(&[Polynomial::zero(1), Polynomial::zero(2)]);
    }

    proptest! {
        /// Compiled point evaluation is bit-for-bit the reference result on
        /// random polynomials up to degree 6 in up to 6 variables.
        #[test]
        fn prop_eval_bit_for_bit(
            nvars in 1usize..7,
            raw_exps in proptest::collection::vec(0u32..7, 72),
            coeffs in proptest::collection::vec(-5.0..5.0f64, 12),
            raw_point in proptest::collection::vec(-2.5..2.5f64, 6),
        ) {
            let p = poly_from_raw(nvars, &raw_exps, &coeffs);
            let c = p.compile();
            let point = &raw_point[..nvars];
            prop_assert_eq!(p.eval(point).to_bits(), c.eval(point).to_bits());
        }

        /// Compiled interval evaluation is bit-for-bit the reference
        /// enclosure on random polynomials and boxes.
        #[test]
        fn prop_eval_interval_bit_for_bit(
            nvars in 1usize..7,
            raw_exps in proptest::collection::vec(0u32..7, 72),
            coeffs in proptest::collection::vec(-5.0..5.0f64, 12),
            lows in proptest::collection::vec(-2.0..1.0f64, 6),
            widths in proptest::collection::vec(0.0..2.0f64, 6),
        ) {
            let p = poly_from_raw(nvars, &raw_exps, &coeffs);
            let c = p.compile();
            let domain: Vec<Interval> = (0..nvars)
                .map(|j| Interval::new(lows[j], lows[j] + widths[j]))
                .collect();
            let reference = p.eval_interval(&domain);
            let compiled = c.eval_interval(&domain);
            prop_assert_eq!(reference.lo().to_bits(), compiled.lo().to_bits());
            prop_assert_eq!(reference.hi().to_bits(), compiled.hi().to_bits());
        }

        /// Batched point evaluation is bit-for-bit the scalar compiled (and
        /// therefore reference) result for every lane count 1–9 — covering
        /// sub-lane batches, one exactly full sweep, and a ragged tail —
        /// on random polynomials up to degree 6 in up to 6 variables.
        #[test]
        fn prop_batch_bit_for_bit(
            nvars in 1usize..7,
            lanes in 1usize..10,
            raw_exps in proptest::collection::vec(0u32..7, 72),
            coeffs in proptest::collection::vec(-5.0..5.0f64, 12),
            raw_points in proptest::collection::vec(-2.5..2.5f64, 54),
        ) {
            let p = poly_from_raw(nvars, &raw_exps, &coeffs);
            let c = p.compile();
            let states: Vec<Vec<f64>> = (0..lanes)
                .map(|i| raw_points[i * nvars..(i + 1) * nvars].to_vec())
                .collect();
            let batch = BatchPoints::from_states(nvars, &states);
            let mut out = Vec::new();
            c.evaluate_batch(&batch, &mut out);
            prop_assert_eq!(out.len(), lanes);
            for (state, &value) in states.iter().zip(out.iter()) {
                prop_assert_eq!(value.to_bits(), p.eval(state).to_bits());
                prop_assert_eq!(value.to_bits(), c.eval(state).to_bits());
            }
        }

        /// Batched set evaluation is bit-for-bit the scalar result for every
        /// member and lane, across ragged lane counts.
        #[test]
        fn prop_batch_set_bit_for_bit(
            lanes in 1usize..10,
            raw_exps in proptest::collection::vec(0u32..5, 24),
            c1 in proptest::collection::vec(-3.0..3.0f64, 4),
            c2 in proptest::collection::vec(-3.0..3.0f64, 4),
            raw_points in proptest::collection::vec(-2.0..2.0f64, 27),
        ) {
            let p1 = poly_from_raw(3, &raw_exps[..12], &c1);
            let p2 = poly_from_raw(3, &raw_exps[12..], &c2);
            let set = CompiledPolySet::compile(&[p1.clone(), p2.clone()]);
            let states: Vec<Vec<f64>> = (0..lanes)
                .map(|i| raw_points[i * 3..(i + 1) * 3].to_vec())
                .collect();
            let batch = BatchPoints::from_states(3, &states);
            let mut out = Vec::new();
            set.evaluate_batch(&batch, &mut out);
            for (lane, state) in states.iter().enumerate() {
                prop_assert_eq!(out[lane].to_bits(), p1.eval(state).to_bits());
                prop_assert_eq!(out[lanes + lane].to_bits(), p2.eval(state).to_bits());
            }
        }

        /// The compiled interval power table's even-power sign-split rule
        /// matches [`Interval::powi`] exactly and remains a conservative
        /// enclosure: evaluating the monomial `xᵏ` through the compiled
        /// kernel must reproduce the endpoint fast path bit-for-bit (in
        /// particular `lo == 0` for even `k` on sign-straddling boxes) and
        /// contain every sampled `xᵏ`.
        #[test]
        fn prop_interval_even_power_containment(
            n in 0u32..7,
            lo in -3.0..3.0f64,
            width in 0.0..4.0f64,
            t in 0.0..1.0f64,
        ) {
            let c = Polynomial::from_terms(1, vec![(vec![n], 1.0)]).compile();
            let domain = Interval::new(lo, lo + width);
            let enclosure = c.eval_interval(&[domain]);
            let exact = domain.powi(n);
            prop_assert_eq!(enclosure.lo().to_bits(), exact.lo().to_bits());
            prop_assert_eq!(enclosure.hi().to_bits(), exact.hi().to_bits());
            if n > 0 && n % 2 == 0 && domain.lo() < 0.0 && domain.hi() > 0.0 {
                prop_assert_eq!(enclosure.lo(), 0.0);
            }
            let x = domain.lo() + t * domain.width();
            prop_assert!(enclosure.contains(x.powi(n as i32)));
        }

        /// A compiled set agrees with compiling each member separately.
        #[test]
        fn prop_set_matches_individual_compilation(
            raw_exps in proptest::collection::vec(0u32..5, 24),
            c1 in proptest::collection::vec(-3.0..3.0f64, 4),
            c2 in proptest::collection::vec(-3.0..3.0f64, 4),
            px in -2.0..2.0f64, py in -2.0..2.0f64, pz in -2.0..2.0f64,
        ) {
            let p1 = poly_from_raw(3, &raw_exps[..12], &c1);
            let p2 = poly_from_raw(3, &raw_exps[12..], &c2);
            let set = CompiledPolySet::compile(&[p1.clone(), p2.clone()]);
            let point = [px, py, pz];
            let mut out = [0.0; 2];
            set.eval_into(&point, &mut out);
            prop_assert_eq!(out[0].to_bits(), p1.eval(&point).to_bits());
            prop_assert_eq!(out[1].to_bits(), p2.eval(&point).to_bits());
        }
    }
}
