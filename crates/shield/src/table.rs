//! Precomputed O(1) decision tables for the runtime shield.
//!
//! [`Shield::decide`](crate::Shield::decide) spends almost all of its time
//! evaluating barrier certificates at the predicted successor state.  For a
//! deployed shield that work is the *same question asked over and over*
//! across a bounded region — the safety specification's safe box — so it can
//! be answered once, at deploy time, for whole regions of state space:
//!
//! 1. Grid the safe box into axis-aligned cells ([`TableConfig::resolution`]
//!    per dimension, ragged resolutions allowed).
//! 2. Run the existing lane-batched interval kernels over every cell for the
//!    whole certificate family at once.
//! 3. Classify each cell: **covered** (every point of the cell is provably
//!    inside some invariant and outside every obstacle — proposals landing
//!    here are kept), **uncovered** (every point provably escapes all
//!    invariants or sits wholly inside an obstacle — proposals landing here
//!    are overridden), or **boundary** (the interval enclosure straddles a
//!    decision surface — these cells fall back to the exact compiled path).
//!
//! A table lookup is two float compares and one fix-up per dimension, so
//! table-resolved decisions skip every certificate evaluation at the
//! predicted state; the exact path remains the authority on boundary cells
//! and the table is **bit-identical** to it everywhere else.
//!
//! # Soundness margin
//!
//! The interval kernels do not perform directed rounding (see
//! `vrl_poly::Interval`); enclosure endpoints carry ordinary double-precision
//! rounding error.  Cell certification therefore demands a *margin*: a cell
//! counts as inside an invariant only when the enclosure's upper bound
//! clears zero by `1e-9 · (1 + |enclosure|)` — many orders of magnitude
//! wider than accumulated rounding error, exactly the slack argument the
//! branch-and-bound verifier itself relies on.  Enclosures inside the margin
//! band classify as boundary and keep the exact path in charge.  Debug
//! builds additionally assert every table-resolved decision against the
//! exact path, and `tests/decide_table_conformance.rs` pins bit-identity
//! across all fifteen paper benchmarks.
//!
//! The grid's outer boundaries are pinned to the safe box's exact bounds, so
//! a predicted state outside the grid is outside the safe box — uncovered by
//! definition, answered in O(1) without any certificate work.

use vrl_dynamics::{BoxRegion, EnvironmentContext};
use vrl_poly::{BatchBoxes, Interval, LANE_WIDTH};
use vrl_solver::with_query_cache;

use crate::ShieldPiece;

/// Sentinel in the per-cell piece array: no constant intervention piece.
const NO_PIECE: u16 = u16::MAX;

/// Relative margin separating a certified enclosure bound from zero.
///
/// Mirrors the slack reasoning of the branch-and-bound verifier: the
/// un-directed interval kernels carry ~1e-16 relative rounding error, so a
/// `1e-9 · (1 + |enclosure|)` gap can never be crossed by rounding alone.
const CERT_MARGIN: f64 = 1e-9;

/// Deploy-time configuration for a precomputed decision table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableConfig {
    /// Cells per dimension.  A single entry broadcasts to every state
    /// dimension; otherwise the length must equal the state dimension
    /// (ragged grids let callers spend resolution where the certificate
    /// geometry is tight).
    pub resolution: Vec<usize>,
    /// Hard cap on the total cell count; [`DecisionTable::build`] refuses
    /// (rather than silently truncating) when the grid would exceed it.
    pub max_cells: usize,
    /// Build budget: number of cells actually certified by interval
    /// evaluation.  Cells past the budget (in row-major order) classify as
    /// boundary — deterministically, so a budget-truncated table is still
    /// exact, just less effective.
    pub build_budget: usize,
}

impl TableConfig {
    /// A config gridding every dimension into `resolution` cells with the
    /// default memory cap and an unlimited build budget.
    pub fn uniform(resolution: usize) -> Self {
        TableConfig {
            resolution: vec![resolution],
            ..TableConfig::default()
        }
    }
}

impl Default for TableConfig {
    /// 16 cells per dimension, a 4-million-cell memory cap, no build budget.
    fn default() -> Self {
        TableConfig {
            resolution: vec![16],
            max_cells: 1 << 22,
            build_budget: usize::MAX,
        }
    }
}

/// Why a decision table could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The safe box is unbounded, NaN, or has zero width in `dim` — no
    /// finite grid can span it.
    InvalidDomain {
        /// The offending state dimension.
        dim: usize,
    },
    /// The config's resolution vector is neither one entry (broadcast) nor
    /// one entry per state dimension.
    ResolutionMismatch {
        /// The state dimension the shield ranges over.
        expected: usize,
        /// The number of resolution entries supplied.
        got: usize,
    },
    /// A dimension was assigned zero cells.
    ZeroResolution {
        /// The offending state dimension.
        dim: usize,
    },
    /// The grid would exceed [`TableConfig::max_cells`].
    TooManyCells {
        /// The requested cell count (saturating on overflow).
        cells: usize,
        /// The configured cap.
        max_cells: usize,
    },
    /// The shield has more pieces than the table's compact piece index can
    /// address.
    TooManyPieces {
        /// The number of pieces in the shield.
        pieces: usize,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::InvalidDomain { dim } => write!(
                f,
                "safe box is unbounded or degenerate in dimension {dim}; \
                 a decision table needs a finite positive-width domain"
            ),
            TableError::ResolutionMismatch { expected, got } => write!(
                f,
                "resolution has {got} entries but the state space has \
                 {expected} dimensions (one entry broadcasts)"
            ),
            TableError::ZeroResolution { dim } => {
                write!(f, "dimension {dim} was assigned zero cells")
            }
            TableError::TooManyCells { cells, max_cells } => write!(
                f,
                "grid would hold {cells} cells, exceeding the configured \
                 cap of {max_cells}"
            ),
            TableError::TooManyPieces { pieces } => write!(
                f,
                "shield has {pieces} pieces, more than the table's compact \
                 piece index can address"
            ),
        }
    }
}

impl TableError {
    /// The limit this error names, as a metric label
    /// (`vrl_shield_decide_table_build_fallbacks_total{reason=...}`).
    pub fn reason(&self) -> &'static str {
        match self {
            TableError::InvalidDomain { .. } => "invalid_domain",
            TableError::ResolutionMismatch { .. } => "resolution_mismatch",
            TableError::ZeroResolution { .. } => "zero_resolution",
            TableError::TooManyCells { .. } => "too_many_cells",
            TableError::TooManyPieces { .. } => "too_many_pieces",
        }
    }
}

impl std::error::Error for TableError {}

/// How a cell was classified at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CellClass {
    /// Every point of the cell is provably covered: proposals predicted
    /// into this cell are kept.
    Covered = 0,
    /// Every point of the cell is provably uncovered: proposals predicted
    /// into this cell are overridden.
    Uncovered = 1,
    /// The enclosure straddles a decision surface (or the cell fell past
    /// the build budget): decisions fall back to the exact path.
    Boundary = 2,
}

/// Build-time census and footprint of a [`DecisionTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableStats {
    /// Total cells in the grid.
    pub cells: usize,
    /// Cells classified [`CellClass::Covered`].
    pub covered: usize,
    /// Cells classified [`CellClass::Uncovered`].
    pub uncovered: usize,
    /// Cells classified [`CellClass::Boundary`].
    pub boundary: usize,
    /// Approximate resident size of the table's arrays in bytes.
    pub memory_bytes: usize,
}

impl TableStats {
    /// Fraction of cells that must fall back to the exact path.
    pub fn boundary_fraction(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.boundary as f64 / self.cells as f64
        }
    }
}

/// A precomputed, interval-certified decision table over the safe box.
///
/// Built by [`DecisionTable::build`] (or via
/// [`Shield::with_table`](crate::Shield::with_table)); queried through
/// [`DecisionTable::coverage`] for the predicted successor and
/// [`DecisionTable::intervention_piece`] for the current state.  Tables are
/// derived data: artifacts persist only the [`TableConfig`] and rebuild the
/// table on load, so a table can never go stale against its shield.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTable {
    lows: Vec<f64>,
    highs: Vec<f64>,
    resolution: Vec<usize>,
    strides: Vec<usize>,
    /// `boundaries[d]` has `resolution[d] + 1` monotone entries spanning
    /// exactly `[lows[d], highs[d]]`; cell `i` in dimension `d` is the
    /// closed interval `[boundaries[d][i], boundaries[d][i + 1]]`.
    boundaries: Vec<Vec<f64>>,
    /// Row-major cell classes ([`CellClass`] as `u8`).
    class: Vec<u8>,
    /// Row-major constant intervention piece per cell (`NO_PIECE` when the
    /// first containing piece is not constant across the cell).
    piece: Vec<u16>,
    stats: TableStats,
    config: TableConfig,
}

impl DecisionTable {
    /// Grids the environment's safe box and certifies every cell against
    /// the pieces' invariants with one lane-batched interval sweep per
    /// [`LANE_WIDTH`] cells.
    ///
    /// The whole build runs under a `shield.table_build` tracing span and
    /// reports its cell census to the `vrl_shield_decide_table_cells`
    /// counters.
    ///
    /// # Errors
    ///
    /// Returns a [`TableError`] when the safe box cannot carry a finite
    /// grid, the resolution vector is malformed, or the grid would exceed
    /// [`TableConfig::max_cells`].
    pub fn build(
        env: &EnvironmentContext,
        pieces: &[ShieldPiece],
        config: &TableConfig,
    ) -> Result<DecisionTable, TableError> {
        let _span = vrl_obs::span("shield.table_build");
        let dim = env.state_dim();
        let safety = env.safety();
        let safe_box = safety.safe_box();
        if pieces.len() >= NO_PIECE as usize {
            return Err(TableError::TooManyPieces {
                pieces: pieces.len(),
            });
        }
        for d in 0..dim {
            let (lo, hi) = (safe_box.low(d), safe_box.high(d));
            if !lo.is_finite() || !hi.is_finite() || lo >= hi {
                return Err(TableError::InvalidDomain { dim: d });
            }
        }
        let resolution: Vec<usize> = if config.resolution.len() == 1 {
            vec![config.resolution[0]; dim]
        } else if config.resolution.len() == dim {
            config.resolution.clone()
        } else {
            return Err(TableError::ResolutionMismatch {
                expected: dim,
                got: config.resolution.len(),
            });
        };
        if let Some(d) = resolution.iter().position(|&r| r == 0) {
            return Err(TableError::ZeroResolution { dim: d });
        }
        let cells = resolution
            .iter()
            .try_fold(1usize, |acc, &r| acc.checked_mul(r))
            .unwrap_or(usize::MAX);
        if cells > config.max_cells {
            return Err(TableError::TooManyCells {
                cells,
                max_cells: config.max_cells,
            });
        }
        // Row-major strides: the last dimension varies fastest.
        let mut strides = vec![1usize; dim];
        for d in (0..dim.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * resolution[d + 1];
        }
        let boundaries: Vec<Vec<f64>> = (0..dim)
            .map(|d| cell_boundaries(safe_box.low(d), safe_box.high(d), resolution[d]))
            .collect();
        // One compiled family for the whole certificate set, pulled through
        // the two-level query cache so redeploys and sibling server threads
        // reuse the compilation.
        let polys: Vec<&vrl_poly::Polynomial> =
            pieces.iter().map(|p| p.invariant().polynomial()).collect();
        let family = with_query_cache(|cache| cache.get_or_compile(&polys));

        let mut class = vec![CellClass::Boundary as u8; cells];
        let mut piece = vec![NO_PIECE; cells];
        let mut stats = TableStats {
            cells,
            ..TableStats::default()
        };
        let certified = cells.min(config.build_budget);
        stats.boundary += cells - certified;

        let mut boxes = BatchBoxes::with_capacity(dim, LANE_WIDTH);
        let mut enclosures: Vec<Interval> = Vec::new();
        let mut cell = vec![Interval::zero(); dim];
        let mut indices = vec![0usize; dim];
        let mut base = 0usize;
        while base < certified {
            let lanes = LANE_WIDTH.min(certified - base);
            boxes.clear();
            for lane in 0..lanes {
                cell_box(
                    &boundaries,
                    &strides,
                    &resolution,
                    base + lane,
                    &mut indices,
                );
                for d in 0..dim {
                    cell[d] =
                        Interval::new(boundaries[d][indices[d]], boundaries[d][indices[d] + 1]);
                }
                boxes.push(&cell);
            }
            family.evaluate_interval_batch(&boxes, &mut enclosures);
            for lane in 0..lanes {
                let idx = base + lane;
                cell_box(&boundaries, &strides, &resolution, idx, &mut indices);
                for d in 0..dim {
                    cell[d] =
                        Interval::new(boundaries[d][indices[d]], boundaries[d][indices[d] + 1]);
                }
                let enclosure_of = |j: usize| enclosures[j * lanes + lane];
                let (cls, intervention) =
                    classify_cell(&cell, pieces.len(), enclosure_of, safety.obstacles());
                class[idx] = cls as u8;
                piece[idx] = intervention.map_or(NO_PIECE, |j| j as u16);
                match cls {
                    CellClass::Covered => stats.covered += 1,
                    CellClass::Uncovered => stats.uncovered += 1,
                    CellClass::Boundary => stats.boundary += 1,
                }
            }
            base += lanes;
        }
        stats.memory_bytes = class.len() * std::mem::size_of::<u8>()
            + piece.len() * std::mem::size_of::<u16>()
            + boundaries
                .iter()
                .map(|b| b.len() * std::mem::size_of::<f64>())
                .sum::<usize>();
        crate::obs::decide_table_cells("covered").add(stats.covered as u64);
        crate::obs::decide_table_cells("uncovered").add(stats.uncovered as u64);
        crate::obs::decide_table_cells("boundary").add(stats.boundary as u64);
        Ok(DecisionTable {
            lows: safe_box.lows().to_vec(),
            highs: safe_box.highs().to_vec(),
            resolution,
            strides,
            boundaries,
            class,
            piece,
            stats,
            config: config.clone(),
        })
    }

    /// The build-time census and footprint.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The configuration the table was built from.
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    /// O(1) coverage of `state` (a *predicted successor*): `Some(true)` /
    /// `Some(false)` when the state's cell is certified, `None` when the
    /// caller must fall back to the exact
    /// [`Shield::covers`](crate::Shield::covers) path.
    ///
    /// States outside the grid are outside the safe box, so coverage is
    /// `Some(false)` *exactly* — including NaN coordinates, which fail the
    /// range comparisons just as they fail `BoxRegion::contains`.
    pub fn coverage(&self, state: &[f64]) -> Option<bool> {
        debug_assert_eq!(state.len(), self.lows.len(), "state dimension mismatch");
        for (d, &x) in state.iter().enumerate() {
            if !(x >= self.lows[d] && x <= self.highs[d]) {
                return Some(false);
            }
        }
        match self.class[self.cell_index(state)] {
            c if c == CellClass::Covered as u8 => Some(true),
            c if c == CellClass::Uncovered as u8 => Some(false),
            _ => None,
        }
    }

    /// O(1) constant intervention piece for `state` (the *current* state):
    /// `Some(j)` when piece `j` is provably the first piece whose invariant
    /// contains every point of the state's cell, `None` when the caller must
    /// run the exact piece-selection scan.
    pub fn intervention_piece(&self, state: &[f64]) -> Option<usize> {
        debug_assert_eq!(state.len(), self.lows.len(), "state dimension mismatch");
        for (d, &x) in state.iter().enumerate() {
            if !(x >= self.lows[d] && x <= self.highs[d]) {
                return None;
            }
        }
        match self.piece[self.cell_index(state)] {
            NO_PIECE => None,
            j => Some(j as usize),
        }
    }

    /// The class of the cell holding `state`, or `None` outside the grid
    /// (introspection for tests and benches; the hot path uses
    /// [`DecisionTable::coverage`]).
    pub fn cell_class(&self, state: &[f64]) -> Option<CellClass> {
        for (d, &x) in state.iter().enumerate() {
            if !(x >= self.lows[d] && x <= self.highs[d]) {
                return None;
            }
        }
        Some(match self.class[self.cell_index(state)] {
            c if c == CellClass::Covered as u8 => CellClass::Covered,
            c if c == CellClass::Uncovered as u8 => CellClass::Uncovered,
            _ => CellClass::Boundary,
        })
    }

    /// Maps an in-grid state to its row-major cell index: an arithmetic
    /// candidate from the cell width, then a fix-up walk guaranteeing
    /// `boundaries[d][i] ≤ x ≤ boundaries[d][i + 1]` despite rounding in
    /// the division (points on a shared face may land in either adjacent
    /// cell; both cells certified the face, so either answer is exact).
    fn cell_index(&self, state: &[f64]) -> usize {
        let mut idx = 0usize;
        for (d, &x) in state.iter().enumerate() {
            let res = self.resolution[d];
            let b = &self.boundaries[d];
            let mut i =
                (((x - self.lows[d]) / (self.highs[d] - self.lows[d])) * res as f64) as usize;
            if i >= res {
                i = res - 1;
            }
            while i > 0 && x < b[i] {
                i -= 1;
            }
            while i + 1 < res && x > b[i + 1] {
                i += 1;
            }
            idx += i * self.strides[d];
        }
        idx
    }
}

/// The `resolution + 1` cell boundaries spanning `[lo, hi]`: evenly spaced
/// up to rounding, weakly monotone (correctly rounded `·` and `+` are
/// monotone in their arguments), clamped into the domain, with the end
/// boundaries pinned *exactly* to `lo` and `hi` so the grid's edge equals
/// the safe box's edge.
fn cell_boundaries(lo: f64, hi: f64, resolution: usize) -> Vec<f64> {
    let mut boundaries = Vec::with_capacity(resolution + 1);
    boundaries.push(lo);
    for i in 1..resolution {
        let t = i as f64 / resolution as f64;
        let b = (lo + (hi - lo) * t).clamp(lo, hi);
        boundaries.push(b.max(boundaries[i - 1]));
    }
    boundaries.push(hi);
    boundaries
}

/// Decodes row-major cell `idx` into per-dimension indices.
fn cell_box(
    boundaries: &[Vec<f64>],
    strides: &[usize],
    resolution: &[usize],
    idx: usize,
    indices: &mut [usize],
) {
    debug_assert_eq!(boundaries.len(), indices.len());
    for d in 0..strides.len() {
        indices[d] = (idx / strides[d]) % resolution[d];
    }
}

/// Classifies one cell from the family enclosures `enclosure_of(piece)`
/// evaluated over `cell`, plus the obstacle set.
///
/// Returns the class and the constant intervention piece (`Some(j)` iff
/// piece `j` provably contains the whole cell while every earlier piece
/// provably excludes it — exactly when the runtime's first-containing-piece
/// scan returns `j` for every point of the cell).
fn classify_cell(
    cell: &[Interval],
    num_pieces: usize,
    enclosure_of: impl Fn(usize) -> Interval,
    obstacles: &[BoxRegion],
) -> (CellClass, Option<usize>) {
    let mut any_contained = false;
    let mut all_excluded = true;
    let mut intervention = None;
    let mut prefix_excluded = true;
    for j in 0..num_pieces {
        let enclosure = enclosure_of(j);
        let margin = CERT_MARGIN * (1.0 + enclosure.abs_max());
        // NaN endpoints fail both comparisons: the cell stays boundary.
        let contained = enclosure.hi() <= -margin;
        let excluded = enclosure.lo() >= margin;
        any_contained |= contained;
        all_excluded &= excluded;
        if intervention.is_none() && prefix_excluded && contained {
            intervention = Some(j);
        }
        prefix_excluded &= excluded;
    }
    // Obstacle relations use exact endpoint comparisons (no arithmetic):
    // strictly disjoint means no cell point touches the (closed) obstacle;
    // wholly inside means every cell point is in the obstacle.
    let disjoint_from_all_obstacles = obstacles.iter().all(|obs| {
        cell.iter()
            .enumerate()
            .any(|(d, iv)| iv.hi() < obs.low(d) || iv.lo() > obs.high(d))
    });
    let inside_some_obstacle = obstacles.iter().any(|obs| {
        cell.iter()
            .enumerate()
            .all(|(d, iv)| obs.low(d) <= iv.lo() && iv.hi() <= obs.high(d))
    });
    let class = if any_contained && disjoint_from_all_obstacles {
        CellClass::Covered
    } else if all_excluded || inside_some_obstacle {
        CellClass::Uncovered
    } else {
        CellClass::Boundary
    };
    (class, intervention)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Shield, ShieldPiece};
    use vrl_dynamics::{BoxRegion, EnvironmentContext, PolyDynamics, SafetySpec};
    use vrl_poly::Polynomial;
    use vrl_synth::PolicyProgram;
    use vrl_verify::BarrierCertificate;

    /// The 1-D toy shield from `shield.rs`: ẋ = a, safe |x| ≤ 1, invariant
    /// x² − 0.81 ≤ 0 verified for a = −2x.
    fn toy_shield() -> Shield {
        let dynamics = PolyDynamics::new(1, 1, vec![Polynomial::variable(1, 2)]).unwrap();
        let env = EnvironmentContext::new(
            "toy",
            dynamics,
            0.01,
            BoxRegion::symmetric(&[0.5]),
            SafetySpec::inside(BoxRegion::symmetric(&[1.0])),
        );
        let program = PolicyProgram::linear(&[vec![-2.0]], &[0.0]);
        let x = Polynomial::variable(0, 1);
        let invariant = BarrierCertificate::new(&(&x * &x) - &Polynomial::constant(0.81, 1));
        Shield::new(env, vec![ShieldPiece::new(program, invariant)])
    }

    #[test]
    fn build_classifies_the_toy_grid() {
        let shield = toy_shield();
        let config = TableConfig::uniform(64);
        let table = DecisionTable::build(shield.env(), shield.pieces(), &config).unwrap();
        let stats = table.stats();
        assert_eq!(stats.cells, 64);
        assert_eq!(
            stats.covered + stats.uncovered + stats.boundary,
            stats.cells
        );
        // |x| < 0.9 is covered, |x| > 0.9 uncovered; only the two cells
        // straddling ±0.9 can be boundary.
        assert!(stats.covered > 0, "{stats:?}");
        assert!(stats.uncovered > 0, "{stats:?}");
        assert!(stats.boundary <= 2, "{stats:?}");
        assert!(stats.memory_bytes > 0);
        assert!(stats.boundary_fraction() <= 2.0 / 64.0);
    }

    #[test]
    fn coverage_agrees_with_exact_covers_wherever_certified() {
        let shield = toy_shield();
        let table =
            DecisionTable::build(shield.env(), shield.pieces(), &TableConfig::uniform(64)).unwrap();
        let mut x = -1.3;
        while x <= 1.3 {
            if let Some(covered) = table.coverage(&[x]) {
                assert_eq!(covered, shield.covers(&[x]), "x = {x}");
            }
            x += 0.0137;
        }
        // Outside the grid is exactly uncovered, including NaN.
        assert_eq!(table.coverage(&[1.5]), Some(false));
        assert_eq!(table.coverage(&[-2.0]), Some(false));
        assert_eq!(table.coverage(&[f64::NAN]), Some(false));
    }

    #[test]
    fn grid_edges_and_cell_faces_resolve_consistently() {
        let shield = toy_shield();
        let table =
            DecisionTable::build(shield.env(), shield.pieces(), &TableConfig::uniform(7)).unwrap();
        // Exact grid corners and interior cell faces: the lookup may pick
        // either adjacent cell, but whichever it picks must agree with the
        // exact predicate when certified.
        for i in 0..=7usize {
            let x = -1.0 + 2.0 * i as f64 / 7.0;
            let x = x.clamp(-1.0, 1.0);
            if let Some(covered) = table.coverage(&[x]) {
                assert_eq!(covered, shield.covers(&[x]), "face x = {x}");
            }
        }
    }

    #[test]
    fn single_piece_interior_cells_pin_the_intervention_piece() {
        let shield = toy_shield();
        let table =
            DecisionTable::build(shield.env(), shield.pieces(), &TableConfig::uniform(64)).unwrap();
        // Deep inside the invariant the (only) piece is provably the first
        // containing piece.
        assert_eq!(table.intervention_piece(&[0.0]), Some(0));
        // Outside the grid there is no constant piece.
        assert_eq!(table.intervention_piece(&[1.5]), None);
    }

    #[test]
    fn build_budget_zero_yields_an_all_boundary_table() {
        let shield = toy_shield();
        let config = TableConfig {
            resolution: vec![16],
            build_budget: 0,
            ..TableConfig::default()
        };
        let table = DecisionTable::build(shield.env(), shield.pieces(), &config).unwrap();
        assert_eq!(table.stats().boundary, 16);
        assert_eq!(table.coverage(&[0.0]), None);
        // Outside the grid stays exact regardless of the budget.
        assert_eq!(table.coverage(&[1.5]), Some(false));
    }

    #[test]
    fn build_rejects_malformed_configs() {
        let shield = toy_shield();
        let too_big = TableConfig {
            resolution: vec![1000],
            max_cells: 100,
            ..TableConfig::default()
        };
        assert_eq!(
            DecisionTable::build(shield.env(), shield.pieces(), &too_big),
            Err(TableError::TooManyCells {
                cells: 1000,
                max_cells: 100
            })
        );
        let zero = TableConfig {
            resolution: vec![0],
            ..TableConfig::default()
        };
        assert_eq!(
            DecisionTable::build(shield.env(), shield.pieces(), &zero),
            Err(TableError::ZeroResolution { dim: 0 })
        );
        let ragged = TableConfig {
            resolution: vec![4, 4],
            ..TableConfig::default()
        };
        assert_eq!(
            DecisionTable::build(shield.env(), shield.pieces(), &ragged),
            Err(TableError::ResolutionMismatch {
                expected: 1,
                got: 2
            })
        );
        assert!(TableError::InvalidDomain { dim: 0 }
            .to_string()
            .contains("finite"));
    }

    #[test]
    fn obstacle_cells_classify_uncovered() {
        // Safe box [-1, 1] with an obstacle [-0.1, 0.1] punched out of the
        // invariant's interior: cells wholly inside the obstacle must be
        // uncovered even though the certificate contains them.
        let dynamics = PolyDynamics::new(1, 1, vec![Polynomial::variable(1, 2)]).unwrap();
        let env = EnvironmentContext::new(
            "toy-obstacle",
            dynamics,
            0.01,
            BoxRegion::symmetric(&[0.5]),
            SafetySpec::inside(BoxRegion::symmetric(&[1.0]))
                .with_obstacle(BoxRegion::new(vec![-0.1], vec![0.1])),
        );
        let program = PolicyProgram::linear(&[vec![-2.0]], &[0.0]);
        let x = Polynomial::variable(0, 1);
        let invariant = BarrierCertificate::new(&(&x * &x) - &Polynomial::constant(0.81, 1));
        let pieces = vec![ShieldPiece::new(program, invariant)];
        let table = DecisionTable::build(&env, &pieces, &TableConfig::uniform(100)).unwrap();
        assert_eq!(table.coverage(&[0.0]), Some(false));
        assert_eq!(table.coverage(&[0.5]), Some(true));
        let mut x = -1.0;
        while x <= 1.0 {
            if let Some(covered) = table.coverage(&[x]) {
                assert_eq!(
                    covered,
                    env.safety().is_safe(&[x]) && x * x <= 0.81,
                    "x = {x}"
                );
            }
            x += 0.0031;
        }
    }
}
