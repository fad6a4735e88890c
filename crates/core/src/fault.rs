//! Fault injection and the self-healing link transport.
//!
//! The Fig 2 message protocol and the Thm 3.1 termination argument both
//! assume what §1.2 calls "operating-system message queues": reliable,
//! FIFO, exactly-once channels between never-crashing processes. A
//! production deployment of the process network cannot assume any of
//! that, so this module provides the two halves of the robustness story:
//!
//! * [`FaultPlan`] — a *seeded, deterministic* adversary that can drop,
//!   duplicate, delay (and thereby reorder), and corrupt any message on
//!   any link, and crash individual node processes at configured points;
//! * [`SenderLink`] / [`ReceiverLink`] — a per-link reliable-delivery
//!   layer (monotone sequence numbers, cumulative acks, retransmission,
//!   duplicate suppression, reorder buffering) that *restores* the
//!   reliable-FIFO-exactly-once channel abstraction the paper's protocol
//!   requires, so Thm 3.1's conclusions survive the adversary.
//!
//! Fault decisions are pure functions of `(seed, link, seq, attempt)` —
//! no hidden RNG state — so a fault plan injects the *same* faults on the
//! same logical message stream regardless of scheduling, in both the
//! simulator and the threaded runtime.
//!
//! The transport frames one [`Msg`] per sequence number, whatever its
//! payload. Message batching therefore composes with this layer for
//! free: a `TupleRequests`/`Answers`/`EndTupleRequests` message is one
//! frame however many items it packs — one seq, one ack, one checksum,
//! one drop/duplicate/delay decision — amortizing transport overhead
//! over every tuple it carries, and a dropped frame is retransmitted
//! whole so per-arc FIFO and exactly-once delivery hold for sixty-four
//! items exactly as for one.
//!
//! Crash/recovery semantics are write-ahead-log style (see DESIGN.md):
//! a crash destroys a node's volatile computation state (temporary
//! relations, termination-protocol state, reorder buffers) while the
//! durable per-node message log and the transport send buffers survive,
//! as they would on disk. Recovery replays the log to rebuild the
//! temporary relations, resets the protocol state, bumps the node's
//! *epoch* so stale idleness-wave replies are rejected, and announces the
//! rebirth to the node's BFST parent so an in-flight wave aborts instead
//! of deadlocking.

use crate::msg::Msg;
use std::collections::BTreeMap;

/// One scheduled node crash: the process loses its volatile state right
/// after it has processed its `after_processed`-th message (counting
/// from the start of the run, across restarts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// The node to crash.
    pub node: usize,
    /// Crash fires when the node's processed-message count reaches this.
    pub after_processed: u64,
}

/// A seeded, deterministic fault-injection plan applied to every link of
/// the process network (including the links to and from the engine).
///
/// Rates are probabilities in `[0, 1]`, evaluated independently per
/// message copy by hashing `(seed, from, to, seq, attempt)` — see
/// [`FaultPlan::fate`]. Retransmitted copies get fresh rolls (the
/// `attempt` counter), so a bounded drop rate cannot drop a message
/// forever.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Probability a message copy is silently dropped on the wire.
    pub drop: f64,
    /// Probability a message is duplicated (a second copy is injected).
    pub duplicate: f64,
    /// Probability a message copy is delayed (delivered out of order).
    pub delay: f64,
    /// Maximum delay, in scheduler steps (simulator) or milliseconds
    /// (threaded runtime). The actual delay is hash-distributed in
    /// `[1, max_delay]`.
    pub max_delay: u64,
    /// Probability a message copy is corrupted in flight. Corruption is
    /// detected by the receiver (checksum model) and the copy discarded;
    /// with recovery enabled retransmission repairs it.
    pub corrupt: f64,
    /// Scheduled node crashes (at most a handful; each triggers the
    /// log-replay recovery path).
    pub crashes: Vec<CrashPoint>,
    /// Retransmission cap per unacked message before the transport gives
    /// up with [`RuntimeError::RetransmitExhausted`]
    /// (`crate::runtime::RuntimeError`). Only reachable at extreme drop
    /// rates.
    pub max_retries: u32,
    /// Idle time (steps or milliseconds, as for `max_delay`) after which
    /// unacked messages are retransmitted.
    pub retransmit_after: u64,
}

impl Default for FaultPlan {
    /// A plan with every fault rate zero — useful to exercise the
    /// transport machinery (sequence numbers, acks) without any faults,
    /// e.g. to measure that its overhead on the clean path is nil.
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay: 8,
            corrupt: 0.0,
            crashes: Vec::new(),
            max_retries: 64,
            retransmit_after: 256,
        }
    }
}

impl FaultPlan {
    /// The standard chaos preset used by tests and the chaos bench: 5%
    /// drop, 5% duplicate, 10% delay (≤ 8 steps), 2% corruption, no
    /// crashes. Well inside the envelope Thm 3.1 must survive.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop: 0.05,
            duplicate: 0.05,
            delay: 0.10,
            corrupt: 0.02,
            ..FaultPlan::default()
        }
    }

    /// Add a scheduled crash.
    pub fn with_crash(mut self, node: usize, after_processed: u64) -> FaultPlan {
        self.crashes.push(CrashPoint {
            node,
            after_processed,
        });
        self
    }

    /// True when the plan can actually perturb anything.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.delay > 0.0
            || self.corrupt > 0.0
            || !self.crashes.is_empty()
    }

    /// Decide the fate of one message copy, purely from
    /// `(seed, from, to, seq, attempt)`.
    pub fn fate(&self, from: u64, to: u64, seq: u64, attempt: u32) -> Fate {
        let h = mix(self.seed)
            ^ mix(from.wrapping_add(0x9E37_79B9))
            ^ mix(to.wrapping_add(0x7F4A_7C15)).rotate_left(17)
            ^ mix(seq).rotate_left(31)
            ^ mix(attempt as u64).rotate_left(47);
        let dropped = roll(h, 1) < self.drop;
        let duplicated = !dropped && roll(h, 2) < self.duplicate;
        let corrupted = !dropped && roll(h, 3) < self.corrupt;
        let delay = if roll(h, 4) < self.delay {
            1 + (mix(h ^ 5) % self.max_delay.max(1))
        } else {
            0
        };
        Fate {
            dropped,
            duplicated,
            corrupted,
            delay,
        }
    }
}

/// The decided fate of one message copy on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fate {
    /// The copy vanishes.
    pub dropped: bool,
    /// A second copy is injected after this one.
    pub duplicated: bool,
    /// The copy arrives with a detectable checksum failure.
    pub corrupted: bool,
    /// Extra delivery delay (0 = on time).
    pub delay: u64,
}

impl Fate {
    /// The fate of a message on a fault-free link.
    pub fn clean() -> Fate {
        Fate {
            dropped: false,
            duplicated: false,
            corrupted: false,
            delay: 0,
        }
    }
}

/// SplitMix64 finalizer — the deterministic hash behind fault decisions.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform roll in `[0, 1)` derived from hash `h` and a salt.
fn roll(h: u64, salt: u64) -> f64 {
    (mix(h ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Sender half of one reliable link: assigns monotone sequence numbers
/// and holds every unacked message for retransmission. The buffer is
/// durable across receiver crashes (write-ahead semantics): whatever was
/// logically sent will eventually be delivered exactly once. The link
/// never looks inside what it carries, so the driver parameterises it
/// with the message *and* its causal stamp — a retransmitted or
/// reorder-buffered frame keeps the stamp of its one logical send.
#[derive(Clone, Debug)]
pub struct SenderLink<T = Msg> {
    /// Next sequence number to assign.
    pub next_seq: u64,
    /// Sent but not yet cumulatively acked, by sequence number.
    pub unacked: BTreeMap<u64, T>,
    /// Timestamp (steps or ms) of the last send/retransmit activity.
    pub last_activity: u64,
    /// Consecutive retransmission rounds without an ack.
    pub retries: u32,
    /// Credit window: cap on frames in flight (transmitted but unacked).
    /// `None` = unlimited (the pre-governance behavior). Frames past the
    /// window stay queued in `unacked` and reach the wire when a
    /// cumulative ack slides the window — backpressure, not loss.
    pub window: Option<u64>,
    /// Sequence numbers below this have been handed to the wire at least
    /// once. Everything in `unacked` at or above it is *stalled*: queued
    /// by the window, never yet transmitted.
    pub wire_hi: u64,
}

impl<T> Default for SenderLink<T> {
    fn default() -> Self {
        SenderLink {
            next_seq: 0,
            unacked: BTreeMap::new(),
            last_activity: 0,
            retries: 0,
            window: None,
            wire_hi: 0,
        }
    }
}

impl<T: Clone> SenderLink<T> {
    /// Register a logical send; returns the assigned sequence number.
    pub fn send(&mut self, msg: T, now: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.insert(seq, msg);
        self.last_activity = now;
        seq
    }

    /// Apply a cumulative ack: everything below `upto` is delivered.
    pub fn ack_upto(&mut self, upto: u64) {
        let keep = self.unacked.split_off(&upto);
        if self.unacked.len() != keep.len() || !self.unacked.is_empty() {
            self.retries = 0;
        }
        self.unacked = keep;
    }

    /// True when a retransmission is due at `now`.
    pub fn due(&self, now: u64, retransmit_after: u64) -> bool {
        !self.unacked.is_empty() && now.saturating_sub(self.last_activity) >= retransmit_after
    }

    /// Oldest unacked sequence number — the window base.
    fn base(&self) -> u64 {
        self.unacked.keys().next().copied().unwrap_or(self.next_seq)
    }

    /// True when `seq` fits inside the current send window. Always true
    /// without a window; retransmission paths use this so a stalled
    /// frame is never forced onto the wire by a timer.
    pub fn in_window(&self, seq: u64) -> bool {
        match self.window {
            None => true,
            Some(w) => seq < self.base().saturating_add(w),
        }
    }

    /// Ask to transmit `seq` now (call right after [`SenderLink::send`]
    /// or when a retransmission timer picks it). True marks the frame as
    /// on the wire; false means the window is full — the frame stays
    /// queued and the caller should count a `credits_stalled` event.
    pub fn admit(&mut self, seq: u64) -> bool {
        let ok = self.in_window(seq);
        if ok {
            self.wire_hi = self.wire_hi.max(seq + 1);
        }
        ok
    }

    /// Stalled frames that the last cumulative ack just released into
    /// the window, oldest first; marks them transmitted. The caller
    /// puts each on the wire (first attempt).
    pub fn release(&mut self) -> Vec<(u64, T)> {
        let Some(w) = self.window else {
            return Vec::new();
        };
        let limit = self.base().saturating_add(w);
        let mut out = Vec::new();
        for (&seq, msg) in self.unacked.range(self.wire_hi..) {
            if seq >= limit {
                break;
            }
            out.push((seq, msg.clone()));
        }
        if let Some((s, _)) = out.last() {
            self.wire_hi = s + 1;
        }
        out
    }

    /// Frames currently stalled by the window (queued, never on the
    /// wire).
    pub fn stalled(&self) -> usize {
        self.unacked.range(self.wire_hi..).count()
    }
}

/// Receiver half of one reliable link: suppresses duplicates and
/// restores per-link FIFO order. `next_expected` is durable (it mirrors
/// the length of the durable delivery log); the reorder buffer is
/// volatile and cleared on crash — retransmission repopulates it.
#[derive(Clone, Debug)]
pub struct ReceiverLink<T = Msg> {
    /// The next in-order sequence number.
    pub next_expected: u64,
    /// Out-of-order arrivals waiting for the gap to fill.
    pub reorder: BTreeMap<u64, T>,
}

impl<T> Default for ReceiverLink<T> {
    fn default() -> Self {
        ReceiverLink {
            next_expected: 0,
            reorder: BTreeMap::new(),
        }
    }
}

/// What [`ReceiverLink::accept`] did with a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Accepted<T = Msg> {
    /// The frame (plus any reorder-buffered successors) is deliverable,
    /// in order.
    Deliver(Vec<T>),
    /// Already delivered — a transport-level duplicate; re-ack and drop.
    Duplicate,
    /// Out of order — buffered until the gap fills; ack not advanced.
    Buffered,
}

impl<T> ReceiverLink<T> {
    /// Accept one data frame.
    pub fn accept(&mut self, seq: u64, msg: T) -> Accepted<T> {
        use std::cmp::Ordering;
        match seq.cmp(&self.next_expected) {
            Ordering::Less => Accepted::Duplicate,
            Ordering::Greater => {
                self.reorder.insert(seq, msg);
                Accepted::Buffered
            }
            Ordering::Equal => {
                let mut out = vec![msg];
                self.next_expected += 1;
                while let Some(m) = self.reorder.remove(&self.next_expected) {
                    out.push(m);
                    self.next_expected += 1;
                }
                Accepted::Deliver(out)
            }
        }
    }

    /// Crash: discard the volatile reorder buffer (unacked at the
    /// sender, so retransmission recovers the contents).
    pub fn clear_volatile(&mut self) {
        self.reorder.clear();
    }
}

/// Stable link-endpoint code for fault hashing.
pub fn endpoint_code(ep: crate::msg::Endpoint) -> u64 {
    match ep {
        crate::msg::Endpoint::Node(n) => n as u64,
        crate::msg::Endpoint::Engine => u64::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Endpoint, Payload};

    fn msg(tag: u64) -> Msg {
        Msg {
            from: Endpoint::Node(0),
            to: Endpoint::Node(1),
            payload: Payload::EndRequest {
                wave: tag,
                epoch: 0,
            },
        }
    }

    #[test]
    fn fate_is_deterministic() {
        let plan = FaultPlan::seeded(42);
        for seq in 0..50 {
            assert_eq!(plan.fate(1, 2, seq, 0), plan.fate(1, 2, seq, 0));
        }
    }

    #[test]
    fn fate_varies_with_attempt() {
        // A dropped first attempt must not imply dropped retransmits:
        // over many (seq, attempt) pairs, fates differ.
        let plan = FaultPlan {
            drop: 0.5,
            ..FaultPlan::seeded(7)
        };
        let differs =
            (0..200).any(|seq| plan.fate(1, 2, seq, 0).dropped != plan.fate(1, 2, seq, 1).dropped);
        assert!(differs);
    }

    #[test]
    fn zero_rates_never_fault() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        for seq in 0..100 {
            assert_eq!(plan.fate(3, 4, seq, 0), Fate::clean());
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan {
            drop: 0.2,
            ..FaultPlan::default()
        };
        let dropped = (0..10_000)
            .filter(|&seq| plan.fate(0, 1, seq, 0).dropped)
            .count();
        assert!((1_500..2_500).contains(&dropped), "got {dropped}");
    }

    #[test]
    fn receiver_restores_fifo_and_suppresses_duplicates() {
        let mut rl = ReceiverLink::default();
        // 1 arrives before 0: buffered.
        assert_eq!(rl.accept(1, msg(1)), Accepted::Buffered);
        // 0 arrives: both become deliverable, in order.
        match rl.accept(0, msg(0)) {
            Accepted::Deliver(msgs) => {
                assert_eq!(msgs.len(), 2);
                assert!(matches!(
                    msgs[0].payload,
                    Payload::EndRequest { wave: 0, .. }
                ));
                assert!(matches!(
                    msgs[1].payload,
                    Payload::EndRequest { wave: 1, .. }
                ));
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        // Replays of either are duplicates.
        assert_eq!(rl.accept(0, msg(0)), Accepted::Duplicate);
        assert_eq!(rl.accept(1, msg(1)), Accepted::Duplicate);
    }

    #[test]
    fn window_stalls_and_releases_in_order() {
        let mut sl = SenderLink {
            window: Some(2),
            ..SenderLink::default()
        };
        let s0 = sl.send(msg(0), 0);
        assert!(sl.admit(s0));
        let s1 = sl.send(msg(1), 0);
        assert!(sl.admit(s1));
        let s2 = sl.send(msg(2), 0);
        assert!(!sl.admit(s2), "third frame must stall on a window of 2");
        assert_eq!(sl.stalled(), 1);
        assert!(!sl.in_window(s2));
        // Ack of the first frame slides the window: the stalled frame is
        // released exactly once, in order.
        sl.ack_upto(1);
        let rel = sl.release();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel[0].0, s2);
        assert_eq!(sl.stalled(), 0);
        assert!(sl.release().is_empty());
    }

    #[test]
    fn no_window_admits_everything() {
        let mut sl = SenderLink::default();
        for i in 0..100 {
            let s = sl.send(msg(i), 0);
            assert!(sl.admit(s));
        }
        assert_eq!(sl.stalled(), 0);
        assert!(sl.release().is_empty());
    }

    #[test]
    fn sender_retransmit_bookkeeping() {
        let mut sl = SenderLink::default();
        let s0 = sl.send(msg(0), 10);
        let s1 = sl.send(msg(1), 11);
        assert_eq!((s0, s1), (0, 1));
        assert!(!sl.due(11, 100));
        assert!(sl.due(200, 100));
        sl.ack_upto(1);
        assert_eq!(sl.unacked.len(), 1);
        sl.ack_upto(2);
        assert!(sl.unacked.is_empty());
        assert!(!sl.due(10_000, 100));
    }
}
