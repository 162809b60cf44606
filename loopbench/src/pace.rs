//! The machine's pace: a fixed reference kernel of the benchmark's own,
//! timed all through every run, by which the end-to-end timings are stated
//! at one reference speed.
//!
//! On the shared 2-vCPU virtual machine this benchmark was built on, the
//! speed of a vCPU drifts by up to 2x between phases that last from seconds
//! to minutes, with next to no steal time to show for it: the host's other
//! tenants contend for the core and its caches.  Identical pipeline work
//! timed back to back in one process took from 0.93 s to 2.06 s per job, and
//! runs of it cut into 10, 20, 30 or 60 s pieces spread 0.27–0.31 (quartile
//! distance over the median) in wall time whatever the piece length,
//! because the drift outlasts the run.  The reference kernel slows with the
//! program: through a drift that halved the pipeline's speed, it slowed by
//! a factor within 6 % of the pipeline's, and stating the same pieces at the
//! reference pace spread 0.06–0.13.
//!
//! The kernel is the benchmark's own code and never changes, so a change to
//! the program moves the paced figures exactly as it moves wall time on a
//! machine that keeps one speed.

use std::hint::black_box;
use std::ops::Range;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The reference pace: seconds per kernel pass, a round figure near the
/// 1.7–1.9 ms a pass took on the machine of the README's reference
/// figures.  Paced figures are those the run would show had the machine run
/// the kernel at this speed throughout; the constant only sets the scale,
/// and must never change, or paced figures stop comparing across commits.
const REFERENCE_S: f64 = 2.0e-3;
/// Least time between two passes started by [`tick`].
const EVERY: Duration = Duration::from_millis(250);
/// Dimension of the dense part and entries of the gather table (512 KiB).
const DIM: usize = 32;
const TABLE: usize = 1 << 16;

struct State {
    /// Seconds per kernel pass, in the order taken.
    samples: Vec<f64>,
    last: Option<Instant>,
    weights: Vec<f64>,
    table: Vec<f64>,
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

/// Runs a kernel pass if [`EVERY`] has passed since the last one; returns
/// the time spent, which the caller keeps out of its timed sections.
pub fn tick() -> Duration {
    let t = Instant::now();
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let state = guard.get_or_insert_with(|| State {
        samples: Vec::new(),
        last: None,
        weights: (0..DIM * DIM)
            .map(|i| ((i * 7919) % 1000) as f64 * 2e-3 / DIM as f64 - 1e-3)
            .collect(),
        table: (0..TABLE).map(|i| ((i * 104_729) % 997) as f64).collect(),
    });
    if state.last.is_none_or(|last| last.elapsed() >= EVERY) {
        let pass = Instant::now();
        black_box(kernel(&state.weights, &state.table));
        state.samples.push(pass.elapsed().as_secs_f64());
        state.last = Some(Instant::now());
    }
    t.elapsed()
}

/// The pace over the kernel passes numbered `passes` (see [`passes`]): their
/// median over [`REFERENCE_S`], so above 1 when the machine ran slower than
/// the reference.  With no pass in the range, the pace over every pass, and
/// 1 when there is none.
pub fn factor(passes: Range<usize>) -> f64 {
    let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let samples = guard.as_ref().map_or(&[][..], |s| &s.samples[..]);
    let chosen = samples
        .get(passes)
        .filter(|s| !s.is_empty())
        .unwrap_or(samples);
    if chosen.is_empty() {
        1.0
    } else {
        crate::stats::median(chosen) / REFERENCE_S
    }
}

/// Kernel passes taken so far.
pub fn passes() -> usize {
    let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map_or(0, |s| s.samples.len())
}

/// One pass, about a third of its time in each part: dense matrix-vector
/// products with `tanh` (the shape of an MLP forward pass), churn of small
/// vectors with data-dependent branches (the shape of rollout, JSON and
/// server code), and a random gather over a 512 KiB table (cache traffic).
fn kernel(weights: &[f64], table: &[f64]) -> f64 {
    let mut x = vec![1.0f64; DIM];
    let mut acc = 0.0;
    for round in 0..500 {
        let y: Vec<f64> = weights
            .chunks_exact(DIM)
            .map(|row| row.iter().zip(&x).map(|(w, v)| w * v).sum::<f64>().tanh())
            .collect();
        x = y;
        acc += x[round % DIM];
    }
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut live: Vec<Vec<f64>> = Vec::new();
    for k in 0..25_000u64 {
        let r = next();
        match r % 3 {
            0 => live.push(vec![(r % 97) as f64; 2 + (r % 6) as usize]),
            1 if !live.is_empty() => acc += live.swap_remove(r as usize % live.len())[0],
            _ => acc += (k as f64).sqrt(),
        }
        if live.len() > 64 {
            live.clear();
        }
    }
    for _ in 0..150_000 {
        acc += table[next() as usize % TABLE];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_rate_limited_and_paced() {
        assert!(tick() > Duration::ZERO);
        let taken = passes();
        assert!(taken >= 1);
        tick();
        assert_eq!(passes(), taken, "a second tick within EVERY runs no pass");
        let all = factor(0..passes());
        assert!(all > 0.0 && all.is_finite());
        assert_eq!(
            factor(passes()..passes()),
            all,
            "an empty range takes every pass"
        );
    }
}
