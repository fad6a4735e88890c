//! Resource governance: query budgets, cooperative cancellation, and
//! the shared accounting both runtimes consult.
//!
//! A [`QueryBudget`] bundles every per-query resource limit — the step
//! budget and wall-clock deadline, plus a logical-message budget, a
//! memory high-water budget (interned-arena + mailbox bytes), and a
//! per-link mailbox bound that drives the credit-based send window on
//! the recovery transport.
//!
//! A [`Governor`] is built per evaluation from the budget and the
//! engine's [`CancelToken`]. Both runtimes feed it logical-message and
//! mailbox-byte counts from their hot paths (relaxed atomics; the sim is
//! single-threaded, the pool already synchronizes through its scheduler
//! mutex) and poll [`Governor::tripped`] at activation boundaries. The
//! first trip is sticky, so the reported reason is stable even when two
//! limits are crossed in the same activation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default step budget (divergence guard).
pub const DEFAULT_MAX_STEPS: u64 = 200_000_000;

/// Default wall-clock deadline.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(60);

/// Per-query resource limits. `Default` reproduces the pre-governance
/// engine exactly: generous step/deadline guards, no message, memory, or
/// mailbox limits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryBudget {
    /// Delivery-step budget (divergence guard; sim runtime). Exceeding
    /// it raises [`crate::runtime::RuntimeError::Diverged`].
    pub max_steps: u64,
    /// Wall-clock deadline. Exceeding it raises
    /// [`crate::runtime::RuntimeError::Timeout`].
    pub deadline: Duration,
    /// Logical-message budget: batching-invariant logical items sent
    /// (what [`crate::stats::Stats::logical_messages`] counts), so a
    /// budget behaves identically at every batch size. Exceeding it
    /// starts a cancel wave and raises
    /// [`crate::runtime::RuntimeError::BudgetExceeded`].
    pub max_messages: Option<u64>,
    /// Memory high-water budget in bytes: the interned-symbol arena plus
    /// all queued mailbox payloads (see [`crate::msg::Payload::approx_bytes`]).
    /// Exceeding it starts a cancel wave.
    pub max_bytes: Option<u64>,
    /// Per-link frame bound: caps transmitted-but-unacked frames on
    /// every non-recursive link of the recovery transport (the credit
    /// window), so a slow consumer throttles its producers instead of
    /// accumulating frames. Requires a fault plan (the window rides the
    /// seq/ack stream); ignored on the bare in-memory paths.
    pub mailbox_bound: Option<usize>,
}

impl Default for QueryBudget {
    fn default() -> Self {
        QueryBudget {
            max_steps: DEFAULT_MAX_STEPS,
            deadline: DEFAULT_DEADLINE,
            max_messages: None,
            max_bytes: None,
            mailbox_bound: None,
        }
    }
}

impl QueryBudget {
    /// The default budget (divergence guards only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the delivery-step budget.
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps = steps;
        self
    }

    /// Set the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Set the logical-message budget.
    pub fn with_max_messages(mut self, messages: u64) -> Self {
        self.max_messages = Some(messages);
        self
    }

    /// Set the memory high-water budget in bytes.
    pub fn with_max_bytes(mut self, bytes: u64) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// Set the per-link credit window (frames in flight per link).
    pub fn with_mailbox_bound(mut self, frames: usize) -> Self {
        self.mailbox_bound = Some(frames);
        self
    }
}

/// A shared cancellation handle. Cloning is cheap; any clone's
/// [`CancelToken::cancel`] is observed by the evaluation it was taken
/// from (via [`crate::engine::Engine::cancel_token`]) at its next
/// activation boundary, which then runs a cancel drain wave and returns
/// [`crate::runtime::RuntimeError::Cancelled`] with partial answers.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Which limit a tripped evaluation crossed first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trip {
    /// Explicit [`CancelToken::cancel`].
    Cancelled,
    /// The logical-message budget.
    Messages,
    /// The memory high-water budget.
    Bytes,
}

/// Per-node resource accounting snapshot, carried by the typed budget
/// and cancellation errors so an aborted query explains where the work
/// went (the PR 3 `Timeout` diagnostics, extended).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeUsage {
    /// The node (physical process id — one row per shard instance when
    /// evaluation runs sharded).
    pub node: usize,
    /// Which shard instance of the logical node this row accounts for
    /// (always 0 at `--shards 1` and for single-instance nodes).
    pub shard: usize,
    /// Messages this node processed before the abort.
    pub messages_processed: u64,
    /// The node's mailbox depth at abort.
    pub mailbox_depth: usize,
    /// Approximate bytes queued in the node's mailbox at abort.
    pub mem_bytes: u64,
}

/// Shared per-evaluation governor: the budget, the cancel token, and the
/// running message/byte accounting. Trip state is sticky.
#[derive(Debug)]
pub struct Governor {
    budget: QueryBudget,
    cancel: CancelToken,
    /// Logical messages sent so far.
    messages: AtomicU64,
    /// Bytes currently queued across all mailboxes.
    mailbox_bytes: AtomicU64,
    /// Interned-arena bytes, sampled at maintenance points (reading the
    /// interner takes a lock, so it is not consulted per message).
    arena_bytes: AtomicU64,
    /// High-water mark of `arena_bytes + mailbox_bytes`.
    mem_high_water: AtomicU64,
    /// 0 = not tripped; otherwise 1 + discriminant of the first trip.
    trip: AtomicU64,
}

impl Governor {
    /// Build a governor for one evaluation.
    pub fn new(budget: QueryBudget, cancel: CancelToken) -> Self {
        let g = Governor {
            budget,
            cancel,
            messages: AtomicU64::new(0),
            mailbox_bytes: AtomicU64::new(0),
            arena_bytes: AtomicU64::new(0),
            mem_high_water: AtomicU64::new(0),
            trip: AtomicU64::new(0),
        };
        g.sample_arena();
        g
    }

    /// The budget this governor enforces.
    pub fn budget(&self) -> &QueryBudget {
        &self.budget
    }

    fn set_trip(&self, t: Trip) {
        let code = 1 + t as u64;
        // First trip wins; later trips keep the original reason.
        let _ = self
            .trip
            .compare_exchange(0, code, Ordering::AcqRel, Ordering::Acquire);
    }

    /// The sticky trip state, checking the cancel token first so an
    /// explicit cancel is observed even between accounting updates.
    pub fn tripped(&self) -> Option<Trip> {
        match self.trip.load(Ordering::Acquire) {
            0 => {
                if self.cancel.is_cancelled() {
                    self.set_trip(Trip::Cancelled);
                    self.tripped()
                } else {
                    None
                }
            }
            1 => Some(Trip::Cancelled),
            2 => Some(Trip::Messages),
            _ => Some(Trip::Bytes),
        }
    }

    /// Record `items` logical messages sent.
    pub fn note_messages(&self, items: u64) {
        let total = self.messages.fetch_add(items, Ordering::Relaxed) + items;
        if let Some(limit) = self.budget.max_messages {
            if total > limit {
                self.set_trip(Trip::Messages);
            }
        }
    }

    /// Logical messages sent so far.
    pub fn messages_used(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Record `bytes` entering a mailbox.
    pub fn note_enqueue(&self, bytes: u64) {
        let q = self.mailbox_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.update_high_water(q);
    }

    /// Record `bytes` leaving a mailbox.
    pub fn note_dequeue(&self, bytes: u64) {
        self.mailbox_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Re-read the interner arena size (lock-taking; call at maintenance
    /// points, not per message).
    pub fn sample_arena(&self) {
        let arena = mp_storage::symbol_bytes() as u64;
        self.arena_bytes.store(arena, Ordering::Relaxed);
        self.update_high_water(self.mailbox_bytes.load(Ordering::Relaxed));
    }

    fn update_high_water(&self, mailbox_now: u64) {
        let now = self.arena_bytes.load(Ordering::Relaxed) + mailbox_now;
        self.mem_high_water.fetch_max(now, Ordering::Relaxed);
        if let Some(limit) = self.budget.max_bytes {
            if now > limit {
                self.set_trip(Trip::Bytes);
            }
        }
    }

    /// Memory high-water mark observed so far (arena + mailboxes).
    pub fn mem_high_water(&self) -> u64 {
        self.mem_high_water.load(Ordering::Relaxed)
    }

    /// The limit/used pair for a trip's error report.
    pub fn trip_report(&self, t: Trip) -> (u64, u64) {
        match t {
            Trip::Cancelled => (0, 0),
            Trip::Messages => (self.budget.max_messages.unwrap_or(0), self.messages_used()),
            Trip::Bytes => (self.budget.max_bytes.unwrap_or(0), self.mem_high_water()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_matches_historical_guards() {
        let b = QueryBudget::default();
        assert_eq!(b.max_steps, DEFAULT_MAX_STEPS);
        assert_eq!(b.deadline, DEFAULT_DEADLINE);
        assert_eq!(b.max_messages, None);
        assert_eq!(b.max_bytes, None);
        assert_eq!(b.mailbox_bound, None);
    }

    #[test]
    fn cancel_token_is_shared() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        clone.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn message_budget_trips_once_and_is_sticky() {
        let g = Governor::new(
            QueryBudget::default().with_max_messages(10),
            CancelToken::new(),
        );
        g.note_messages(10);
        assert_eq!(g.tripped(), None);
        g.note_messages(1);
        assert_eq!(g.tripped(), Some(Trip::Messages));
        // A later byte-limit crossing does not change the reason.
        g.note_enqueue(u64::MAX / 2);
        assert_eq!(g.tripped(), Some(Trip::Messages));
        let (limit, used) = g.trip_report(Trip::Messages);
        assert_eq!(limit, 10);
        assert_eq!(used, 11);
    }

    #[test]
    fn byte_budget_tracks_high_water() {
        let g = Governor::new(
            QueryBudget::default().with_max_bytes(1 << 30),
            CancelToken::new(),
        );
        let arena = g.arena_bytes.load(Ordering::Relaxed);
        g.note_enqueue(1000);
        g.note_dequeue(1000);
        g.note_enqueue(10);
        assert_eq!(g.mem_high_water(), arena + 1000);
        assert_eq!(g.tripped(), None);
    }

    #[test]
    fn cancel_trips_via_token() {
        let cancel = CancelToken::new();
        let g = Governor::new(QueryBudget::default(), cancel.clone());
        assert_eq!(g.tripped(), None);
        cancel.cancel();
        assert_eq!(g.tripped(), Some(Trip::Cancelled));
    }
}
