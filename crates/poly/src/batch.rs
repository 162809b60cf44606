//! Structure-of-arrays point batches for lane-parallel evaluation.
//!
//! The batched kernels in the `compiled` module sweep 4–8 states at a time
//! through one shared power-table fill per variable.  They read coordinates
//! *variable-major*: all lane values of variable `j` must be contiguous so
//! the per-variable table fill is a unit-stride loop the compiler can
//! vectorize.  [`BatchPoints`] is that layout — one column per variable —
//! with a small builder API so serving paths can reuse the storage across
//! batches.

/// A batch of evaluation points stored structure-of-arrays: one contiguous
/// column of lane values per variable.
///
/// Columns grow amortized like `Vec`; [`BatchPoints::clear`] retains the
/// capacity, so a serving loop that refills the same batch every request is
/// allocation-free in steady state.
///
/// # Examples
///
/// ```
/// use vrl_poly::BatchPoints;
///
/// let mut batch = BatchPoints::new(2);
/// batch.push(&[1.0, 2.0]);
/// batch.push(&[3.0, 4.0]);
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.column(0), &[1.0, 3.0]);
/// assert_eq!(batch.column(1), &[2.0, 4.0]);
/// assert_eq!(batch.state(1), vec![3.0, 4.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchPoints {
    nvars: usize,
    len: usize,
    columns: Vec<Vec<f64>>,
}

impl BatchPoints {
    /// An empty batch of points over `nvars` variables.
    pub fn new(nvars: usize) -> Self {
        BatchPoints {
            nvars,
            len: 0,
            columns: vec![Vec::new(); nvars],
        }
    }

    /// An empty batch with room for `capacity` states per column.
    pub fn with_capacity(nvars: usize, capacity: usize) -> Self {
        BatchPoints {
            nvars,
            len: 0,
            // Not `vec![Vec::with_capacity(..); nvars]`: cloning a Vec does
            // not preserve its capacity, so that would preallocate only the
            // template column.
            columns: (0..nvars).map(|_| Vec::with_capacity(capacity)).collect(),
        }
    }

    /// Builds a batch by transposing row-major states.
    ///
    /// # Panics
    ///
    /// Panics if any state's dimension differs from `nvars`.
    pub fn from_states<S: AsRef<[f64]>>(nvars: usize, states: &[S]) -> Self {
        let mut batch = BatchPoints::with_capacity(nvars, states.len());
        for state in states {
            batch.push(state.as_ref());
        }
        batch
    }

    /// Appends one state as the next lane.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.nvars()`.
    pub fn push(&mut self, state: &[f64]) {
        assert_eq!(state.len(), self.nvars, "state has wrong dimension");
        for (column, &x) in self.columns.iter_mut().zip(state.iter()) {
            column.push(x);
        }
        self.len += 1;
    }

    /// Removes all states, keeping the column capacity.
    pub fn clear(&mut self) {
        for column in &mut self.columns {
            column.clear();
        }
        self.len = 0;
    }

    /// Resizes every column to `len` lanes, filling new lanes with `value` —
    /// what column-wise producers (e.g. the batched integrator step) use to
    /// size the output before writing columns directly.
    pub fn resize_lanes(&mut self, len: usize, value: f64) {
        for column in &mut self.columns {
            column.resize(len, value);
        }
        self.len = len;
    }

    /// Mutable access to the contiguous lane values of variable `var`, for
    /// column-wise producers.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.nvars()`.
    pub fn column_mut(&mut self, var: usize) -> &mut [f64] {
        &mut self.columns[var]
    }

    /// Number of variables per state.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Number of states (lanes) in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true when the batch holds no states.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The contiguous lane values of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.nvars()`.
    pub fn column(&self, var: usize) -> &[f64] {
        &self.columns[var]
    }

    /// Reassembles lane `i` as a row-major state (test/debug convenience;
    /// the hot paths read columns or use [`BatchPoints::state_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn state(&self, i: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.nvars);
        self.state_into(i, &mut out);
        out
    }

    /// Writes lane `i` row-major into `out` (cleared first), reusing the
    /// buffer's storage — what per-lane fallback paths use to avoid a
    /// transpose-back allocation per state.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn state_into(&self, i: usize, out: &mut Vec<f64>) {
        assert!(i < self.len, "lane index out of range");
        out.clear();
        out.extend(self.columns.iter().map(|c| c[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_clear_and_reuse() {
        let mut batch = BatchPoints::with_capacity(3, 4);
        assert!(batch.is_empty());
        assert_eq!(batch.nvars(), 3);
        batch.push(&[1.0, 2.0, 3.0]);
        batch.push(&[4.0, 5.0, 6.0]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.column(2), &[3.0, 6.0]);
        assert_eq!(batch.state(0), vec![1.0, 2.0, 3.0]);
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&[7.0, 8.0, 9.0]);
        assert_eq!(batch.state(0), vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn from_states_transposes() {
        let batch = BatchPoints::from_states(2, &[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.column(0), &[1.0, 3.0, 5.0]);
        assert_eq!(batch.column(1), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn zero_variable_batch_counts_lanes() {
        let mut batch = BatchPoints::new(0);
        batch.push(&[]);
        batch.push(&[]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.state(1), Vec::<f64>::new());
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn mismatched_push_rejected() {
        let mut batch = BatchPoints::new(2);
        batch.push(&[1.0]);
    }

    #[test]
    fn column_wise_production() {
        let mut batch = BatchPoints::new(2);
        batch.resize_lanes(3, 0.0);
        assert_eq!(batch.len(), 3);
        batch.column_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        batch.column_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(batch.state(1), vec![2.0, 5.0]);
        batch.resize_lanes(1, 0.0);
        assert_eq!(batch.state(0), vec![1.0, 4.0]);
    }
}
