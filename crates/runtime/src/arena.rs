//! Per-connection scratch arenas: the buffers steady-state serving reuses
//! across a connection's requests.
//!
//! Every keep-alive connection of the HTTP front-end owns one
//! [`ConnScratch`]: the socket read buffer, the request body, path and id
//! buffers, the response head and body buffers, and the decoded state
//! matrix ([`StateArena`]) all live for the whole connection and are
//! *reused* across requests.  After the first few requests warm the
//! capacities up, framing a decide request, decoding its `state`/`states`
//! body and encoding its JSON response perform no heap allocation: the
//! decoder parses each number straight into its arena row, with no
//! [`Json`](crate::wire::Json) tree in between.  What still allocates per decide is the backend's decision
//! `Vec` and, with observability on, the request span's copy of its id.
//! Clients get the same treatment: [`MiniClient`](crate::http::MiniClient)
//! and [`RemoteShard`](crate::remote::RemoteShard) hold persistent head,
//! request-body and read buffers instead of allocating them per request;
//! decoding a decide response allocates one `Vec` per decision.
//!
//! The arena never shrinks.  That is deliberate: request sizes on one
//! connection are strongly autocorrelated (a client that sent a 512-state
//! batch will send another), and the front-end's `max_body_bytes` /
//! `max_batch` limits already bound the worst case per connection.

/// A reusable matrix of decoded state vectors.
///
/// The JSON decide decoder ([`crate::wire::decode_decide_request_into`])
/// decodes request states into one of these instead of building a fresh
/// `Vec<Vec<f64>>` per request: [`reset`](StateArena::reset) logically
/// empties the arena while keeping every row's allocation, and
/// [`push_row`](StateArena::push_row) hands back a cleared row to fill —
/// either a recycled one or, only while the arena is still growing, a new
/// one.  [`rows`](StateArena::rows) then views exactly the live rows as the
/// `&[Vec<f64>]` shape the serving backends take, so the arena drops into
/// the existing [`ShieldBackend`](crate::http::ShieldBackend) API without
/// copying.
#[derive(Debug, Default)]
pub struct StateArena {
    rows: Vec<Vec<f64>>,
    live: usize,
}

impl StateArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        StateArena::default()
    }

    /// Logically empties the arena, retaining every row allocation for
    /// reuse by the next request.
    pub fn reset(&mut self) {
        self.live = 0;
    }

    /// Number of live rows (states decoded since the last reset).
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no rows are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Returns a cleared row to decode the next state into, recycling a
    /// spare row when one exists.
    pub fn push_row(&mut self) -> &mut Vec<f64> {
        if self.live == self.rows.len() {
            self.rows.push(Vec::new());
        }
        let row = &mut self.rows[self.live];
        row.clear();
        self.live += 1;
        row
    }

    /// The live rows, in decode order — the exact shape `decide_batch`
    /// takes.
    #[must_use]
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows[..self.live]
    }
}

/// The per-connection scratch pool of the HTTP front-end: every buffer a
/// keep-alive request loop needs, owned once per connection.
#[derive(Debug, Default)]
pub(crate) struct ConnScratch {
    /// Socket read accumulation: request head plus any pipelined bytes.
    pub(crate) read_buf: Vec<u8>,
    /// The current request's body.
    pub(crate) body: Vec<u8>,
    /// The current request's path, without any query string.
    pub(crate) path: String,
    /// The current request's id: the client's `x-request-id` or a
    /// generated one.
    pub(crate) request_id: String,
    /// Response head build buffer.
    pub(crate) head: Vec<u8>,
    /// Response body build buffer, reclaimed after each write.
    pub(crate) out: Vec<u8>,
    /// Decoded state matrix for decide requests.
    pub(crate) states: StateArena,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_recycles_row_allocations() {
        let mut arena = StateArena::new();
        arena.push_row().extend_from_slice(&[1.0, 2.0]);
        arena.push_row().extend_from_slice(&[3.0, 4.0]);
        assert_eq!(arena.rows(), &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let first_ptr = arena.rows()[0].as_ptr();
        arena.reset();
        assert!(arena.is_empty());
        arena.push_row().extend_from_slice(&[5.0]);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.rows(), &[vec![5.0]]);
        // The recycled row kept its allocation.
        assert_eq!(arena.rows()[0].as_ptr(), first_ptr);
    }
}
