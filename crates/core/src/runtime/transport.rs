//! The recovery transport driver — one implementation for both runtimes.
//!
//! The paper's network (§3.1) and its termination proof (Fig 2, Thm 3.1)
//! assume reliable, exactly-once, per-arc-FIFO channels. [`Driver`]
//! re-establishes those assumptions *beneath* the protocol, on top of the
//! link state machines of [`crate::fault`]: it frames each logical send
//! with a sequence number, admits it through the credit window, puts it
//! on a faulty wire with the fate the [`FaultPlan`] decides, acks what
//! arrives, releases stalled frames as acks free credits, retransmits
//! what stays unacked, and rebuilds a crashed node from its durable
//! message log. There is one driver per endpoint (every node, plus the
//! engine), and it knows nothing about its host: a runtime supplies a
//! clock value (`now`, in steps or milliseconds) and a [`Wire`] to put
//! frames on, and keeps only its own wire, clock and scheduling.
//!
//! The module also holds the two other pieces every runtime shares: the
//! query injection ([`query_messages`]) and the engine endpoint
//! ([`EngineSink`]).

use crate::fault::{endpoint_code, Accepted, FaultPlan, ReceiverLink, SenderLink};
use crate::msg::{Endpoint, Msg, Pack, Payload};
use crate::node::{Ctx, Process};
use crate::runtime::govern::Governor;
use crate::runtime::{describe_payload, trace_actor, trace_deliver, trace_send, RuntimeError};
use crate::stats::Stats;
use mp_rulegoal::NodeId;
use mp_storage::{Relation, Tuple};
use mp_trace::{Stamp, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A logical message with the causal stamp of its one logical send
/// (`None` when tracing is off). The links buffer the pair, so a
/// retransmitted or reorder-buffered frame keeps its original stamp.
pub(crate) type Stamped = (Msg, Option<Box<Stamp>>);

/// What travels on a recovery wire.
#[derive(Clone, Debug)]
pub(crate) enum Frame {
    /// A sequenced data frame on the link `msg.from → msg.to`.
    Data {
        /// Transport sequence number on that link.
        seq: u64,
        /// The logical message.
        msg: Msg,
        /// Checksum failure injected in flight: discarded on arrival.
        corrupted: bool,
        /// Causal stamp of the logical send.
        stamp: Option<Box<Stamp>>,
    },
    /// Cumulative ack, travelling receiver → sender: everything `peer`
    /// received below `upto` on the link from the addressee is delivered.
    Ack {
        /// The acknowledging endpoint.
        peer: Endpoint,
        /// Everything below this sequence number is delivered.
        upto: u64,
    },
}

/// A runtime's wire, as one endpoint sees it.
pub(crate) trait Wire {
    /// Carry `frame` to `to`, arriving `delay` clock units later than an
    /// undelayed frame would.
    fn put(&mut self, to: Endpoint, frame: Frame, delay: u64);
}

/// What every driver of one run shares.
pub(crate) struct Config {
    /// The adversary, and the retransmission horizon and cap.
    pub plan: FaultPlan,
    /// Recover crashed nodes by log replay; off, a scheduled crash is
    /// [`RuntimeError::LinkDown`].
    pub recovery: bool,
    /// Credit window (frames in flight per link) from the budget's
    /// mailbox bound; `None` = unlimited.
    pub window: Option<u64>,
    /// Directed node pairs inside nontrivial strong components. Their
    /// links are never windowed: a window that stalls a recursive answer
    /// its own producer transitively waits on could deadlock the cycle
    /// (see [`crate::node::Network::intra_pairs`]).
    pub intra: BTreeSet<(NodeId, NodeId)>,
    /// Number of node endpoints (the engine is trace actor `n_nodes`).
    pub n_nodes: usize,
    /// Shared resource accounting (logical-message budget).
    pub governor: Arc<Governor>,
}

/// One endpoint's transport state and counters.
///
/// The logical-message bookkeeping ([`Driver::note_send`],
/// [`Driver::note_deliver`], `stats`, `tracer`) is what every send and
/// delivery pays on any path; the worker pool's clean path uses only
/// that half and posts bare messages. Everything else is the recovery
/// transport.
pub(crate) struct Driver {
    me: Endpoint,
    cfg: Arc<Config>,
    /// This endpoint's counters; a run's stats are the merge over its
    /// endpoints.
    pub stats: Stats,
    /// Event recorder for this endpoint; `None` when tracing is off.
    pub tracer: Option<Tracer>,
    outgoing: BTreeMap<Endpoint, SenderLink<Stamped>>,
    incoming: BTreeMap<Endpoint, ReceiverLink<Stamped>>,
    /// Links that received data since the last [`Driver::flush_acks`],
    /// in first-arrival order, each listed once: every one is owed one
    /// cumulative ack.
    owed: Vec<Endpoint>,
    /// Acks sent so far: the distinct fate-hash input per ack frame
    /// (acks have no sequence number of their own).
    acks_sent: u64,
    /// Initial-state clone of the node's process, for crash recovery
    /// (`None` at the engine and on the clean path).
    pristine: Option<Process>,
    /// Durable log of every message the process handled, in order. A
    /// probe-wave message is logged as `None`: [`recover`] replays only
    /// the flush at the end of its turn.
    log: Vec<Option<Msg>>,
    /// One bit per log entry, packed: the entry's turn (its `handle`, or
    /// an idle poke before the next entry) saw `mailbox_empty ||
    /// pressure`, so every batch buffer was flushed by its end.
    flushed: Vec<u64>,
    /// Restart generation.
    epoch: u64,
}

impl Driver {
    pub fn new(
        me: Endpoint,
        cfg: Arc<Config>,
        tracer: Option<Tracer>,
        pristine: Option<Process>,
    ) -> Driver {
        Driver {
            me,
            cfg,
            stats: Stats::default(),
            tracer,
            outgoing: BTreeMap::new(),
            incoming: BTreeMap::new(),
            owed: Vec::new(),
            acks_sent: 0,
            pristine,
            log: Vec::new(),
            flushed: Vec::new(),
            epoch: 0,
        }
    }

    /// Count one logical send — once, however many frames it takes on
    /// the wire — and stamp it when tracing.
    pub fn note_send(&mut self, msg: &Msg) -> Option<Box<Stamp>> {
        self.stats.count_send(&msg.payload);
        self.cfg
            .governor
            .note_messages(describe_payload(&msg.payload).1);
        let n = self.cfg.n_nodes;
        self.tracer
            .as_mut()
            .map(|tr| Box::new(trace_send(tr, msg, n)))
    }

    /// Record the final, in-order, exactly-once delivery of `msg` here.
    pub fn note_deliver(&mut self, msg: &Msg, stamp: Option<&Stamp>) {
        if let Some(tr) = self.tracer.as_mut() {
            trace_deliver(tr, msg, stamp, self.cfg.n_nodes);
        }
    }

    /// Append a message the process is about to handle to the durable
    /// log [`Driver::maybe_crash`] replays, with whether its `handle`
    /// will see `mailbox_empty || pressure` (the turn-bound batch flush).
    pub fn log(&mut self, msg: &Msg, flushed: bool) {
        if self.log.len().is_multiple_of(64) {
            self.flushed.push(0);
        }
        // Wave probes and replies are deliberately not replayed: protocol
        // state resets at restart and is rebuilt by fresh epoch-tagged
        // waves. `SccFinished` IS replayed — it is durable component
        // state (finished, feeders released), not wave state.
        let wave = matches!(
            msg.payload,
            Payload::EndRequest { .. }
                | Payload::EndNegative { .. }
                | Payload::EndConfirmed { .. }
                | Payload::Reborn { .. }
        );
        self.log.push((!wave).then(|| msg.clone()));
        if flushed {
            self.note_flush();
        }
    }

    /// The process flushed its batch buffers after handling the last
    /// logged message (an idle poke found the mailbox drained).
    pub fn note_flush(&mut self) {
        if let Some(last) = self.log.len().checked_sub(1) {
            self.flushed[last / 64] |= 1 << (last % 64);
        }
    }

    /// True when any outgoing link holds window-stalled frames — the
    /// node's [`Ctx::pressure`] input.
    pub fn under_pressure(&self) -> bool {
        self.cfg.window.is_some() && self.outgoing.values().any(|s| s.stalled() > 0)
    }

    /// A logical send: counted and stamped, sequenced into the link's
    /// durable buffer, then framed onto the wire — unless the link's
    /// credit window is full, in which case the frame waits in the buffer
    /// until acks free credits. An ack owed to the addressee goes out
    /// first, so it never trails data sent after what it acknowledges.
    pub fn send(&mut self, msg: Msg, now: u64, wire: &mut impl Wire) {
        let stamp = self.note_send(&msg);
        let to = msg.to;
        if !self.owed.is_empty() {
            self.ack_now(to, wire);
        }
        let link = self.outgoing.entry(to).or_insert_with(|| {
            SenderLink::with_window(match (self.me, to) {
                (Endpoint::Node(a), Endpoint::Node(b)) if self.cfg.intra.contains(&(a, b)) => None,
                _ => self.cfg.window,
            })
        });
        let item = (msg, stamp);
        let seq = link.send(item.clone(), now);
        if link.admit(seq) {
            self.transmit(to, seq, item, 0, wire);
        } else {
            self.stats.credits_stalled += 1;
        }
    }

    /// Put one copy of a data frame on the wire, consulting the fault
    /// plan for its fate.
    fn transmit(
        &mut self,
        to: Endpoint,
        seq: u64,
        (msg, stamp): Stamped,
        attempt: u32,
        wire: &mut impl Wire,
    ) {
        let plan = &self.cfg.plan;
        let fate = plan.fate(endpoint_code(self.me), endpoint_code(to), seq, attempt);
        if fate.dropped {
            self.stats.fault_dropped += 1;
            return;
        }
        if fate.corrupted {
            self.stats.fault_corrupted += 1;
        }
        if fate.delay > 0 {
            self.stats.fault_delayed += 1;
        }
        let duplicate = fate.duplicated.then(|| Frame::Data {
            seq,
            msg: msg.clone(),
            corrupted: false,
            stamp: stamp.clone(),
        });
        let frame = Frame::Data {
            seq,
            msg,
            corrupted: fate.corrupted,
            stamp,
        };
        wire.put(to, frame, fate.delay);
        if let Some(duplicate) = duplicate {
            self.stats.fault_duplicated += 1;
            wire.put(to, duplicate, fate.delay + 1);
        }
    }

    /// Take one frame off the wire; appends the logical messages now
    /// deliverable to `out`, in link order (nothing for acks, corrupt
    /// frames, duplicates and reorder gaps). A data frame, duplicate or
    /// not, leaves its link owed an ack until [`Driver::flush_acks`].
    pub fn on_frame(&mut self, frame: Frame, wire: &mut impl Wire, out: &mut Vec<Stamped>) {
        match frame {
            Frame::Ack { peer, upto } => self.on_ack(peer, upto, wire),
            // Detected checksum failure: discard; no ack, so the sender
            // retransmits a clean copy.
            Frame::Data {
                corrupted: true, ..
            } => {}
            Frame::Data {
                seq, msg, stamp, ..
            } => self.on_data(seq, msg, stamp, out),
        }
    }

    fn on_data(&mut self, seq: u64, msg: Msg, stamp: Option<Box<Stamp>>, out: &mut Vec<Stamped>) {
        let from = msg.from;
        let link = self.incoming.entry(from).or_default();
        match link.accept(seq, (msg, stamp), out) {
            Accepted::Deliver => {}
            Accepted::Duplicate => self.stats.dups_discarded += 1,
            // A gap: the cumulative ack cannot advance, and the sender's
            // retransmission fills it.
            Accepted::Buffered => return,
        }
        if !link.ack_owed {
            link.ack_owed = true;
            self.owed.push(from);
        }
    }

    /// True when some link is owed an ack.
    pub fn owes_acks(&self) -> bool {
        !self.owed.is_empty()
    }

    /// End of a delivery round: send one cumulative ack on every link
    /// that received data since the last flush. Acks free the sender's
    /// credits, so a host flushes before it stops delivering — at the end
    /// of every simulator round and of every pool activation.
    pub fn flush_acks(&mut self, wire: &mut impl Wire) {
        for i in 0..self.owed.len() {
            self.pay_ack(self.owed[i], wire);
        }
        self.owed.clear();
    }

    /// Send the ack owed on the link from `to` now, if one is, and take
    /// the link off `owed` so [`Driver::owes_acks`] stays exact.
    fn ack_now(&mut self, to: Endpoint, wire: &mut impl Wire) {
        if let Some(i) = self.owed.iter().position(|&p| p == to) {
            self.owed.remove(i);
            self.pay_ack(to, wire);
        }
    }

    /// Send the cumulative ack owed on the link from `to`.
    fn pay_ack(&mut self, to: Endpoint, wire: &mut impl Wire) {
        let link = self
            .incoming
            .get_mut(&to)
            .expect("an owed link has received data");
        debug_assert!(link.ack_owed, "owed lists each owed link once");
        link.ack_owed = false;
        let upto = link.next_expected;
        self.send_ack(to, upto, wire);
    }

    /// Send a cumulative ack back to `to`. Acks ride the same faulty
    /// wire (a lost or late ack is repaired by the next one, or by a
    /// retransmission — they are cumulative) but are never duplicated; a
    /// corrupt ack is just a lost ack.
    fn send_ack(&mut self, to: Endpoint, upto: u64, wire: &mut impl Wire) {
        self.acks_sent += 1;
        self.stats.acks += 1;
        if let Some(tr) = self.tracer.as_mut() {
            tr.on_ack(trace_actor(to, self.cfg.n_nodes), upto);
        }
        let fate = self.cfg.plan.fate(
            endpoint_code(self.me),
            endpoint_code(to),
            self.acks_sent,
            u32::MAX,
        );
        if fate.dropped || fate.corrupted {
            self.stats.fault_dropped += 1;
            return;
        }
        let peer = self.me;
        wire.put(to, Frame::Ack { peer, upto }, fate.delay);
    }

    fn on_ack(&mut self, peer: Endpoint, upto: u64, wire: &mut impl Wire) {
        let Some(link) = self.outgoing.get_mut(&peer) else {
            return;
        };
        link.ack_upto(upto);
        // Freed credits admit stalled frames, in order.
        for seq in link.release() {
            let item = self.outgoing[&peer].get(seq).cloned();
            let item = item.expect("a released seq is buffered");
            self.transmit(peer, seq, item, 0, wire);
        }
    }

    /// Retransmit unacked frames: on links idle past the plan's
    /// `retransmit_after` horizon, or — when `force` is set because the
    /// host is otherwise quiescent — on every link with unacked traffic.
    /// Returns whether anything went back on the wire.
    pub fn retransmit(
        &mut self,
        now: u64,
        force: bool,
        wire: &mut impl Wire,
    ) -> Result<bool, RuntimeError> {
        let after = self.cfg.plan.retransmit_after;
        let due: Vec<Endpoint> = self
            .outgoing
            .iter()
            .filter(|(_, s)| {
                if force {
                    !s.is_empty()
                } else {
                    s.due(now, after)
                }
            })
            .map(|(&to, _)| to)
            .collect();
        let mut any = false;
        for to in due {
            let Some(link) = self.outgoing.get_mut(&to) else {
                continue;
            };
            link.retries += 1;
            link.last_activity = now;
            let retries = link.retries;
            if retries > self.cfg.plan.max_retries {
                return Err(RuntimeError::RetransmitExhausted {
                    from: self.me.node().unwrap_or(usize::MAX),
                    to: to.node().unwrap_or(usize::MAX),
                    retries,
                });
            }
            // Admit whatever the window now covers (the release bumps
            // `wire_hi`), then retransmit only frames that have been on
            // the wire: stalled frames beyond the window are never
            // forced out by a timer.
            let _ = link.release();
            for seq in link.on_wire() {
                let item = self.outgoing[&to].get(seq).cloned();
                let item = item.expect("a seq on the wire is buffered");
                self.stats.retransmits += 1;
                self.transmit(to, seq, item, retries, wire);
                any = true;
            }
        }
        Ok(any)
    }

    /// Call after `process` handled a logged message: if the log length
    /// hit one of this node's scheduled crash points, the process loses
    /// its volatile state and is rebuilt by [`recover`] (or the run
    /// aborts with [`RuntimeError::LinkDown`], recovery disabled).
    /// Returns the rebirth announcements for the host to send — they
    /// abort any wave in flight at the BFST parent with the bumped epoch.
    pub fn maybe_crash(&mut self, process: &mut Process) -> Result<Vec<Msg>, RuntimeError> {
        let Endpoint::Node(node) = self.me else {
            return Ok(Vec::new());
        };
        let processed = self.log.len() as u64;
        let crashes = &self.cfg.plan.crashes;
        if !crashes
            .iter()
            .any(|c| c.node == node && c.after_processed == processed)
        {
            return Ok(Vec::new());
        }
        if !self.cfg.recovery {
            return Err(RuntimeError::LinkDown { node });
        }
        let Some(pristine) = &self.pristine else {
            return Ok(Vec::new());
        };
        self.stats.crashes += 1;
        self.epoch += 1;
        self.stats.epoch_bumps += 1;
        if let Some(tr) = self.tracer.as_mut() {
            tr.on_crash(self.epoch);
        }
        // Volatile transport state into the node is lost; the senders'
        // unacked buffers (durable, like a WAL) retransmit the contents.
        for link in self.incoming.values_mut() {
            link.clear_volatile();
        }
        let (fresh, replayed) = recover(pristine, &self.log, &self.flushed);
        self.stats.replayed += replayed;
        if let Some(tr) = self.tracer.as_mut() {
            tr.on_recover(self.epoch, replayed);
        }
        *process = fresh;
        let mut reborn = Vec::new();
        process.restarted(self.epoch, &mut reborn);
        Ok(reborn)
    }
}

/// Rebuild a crashed node's computation state: a pristine clone plus a
/// deterministic replay of the durable log of messages it had handled.
/// Outputs are discarded — they were already sent (and sequenced durably)
/// before the crash — and a scratch stats sink keeps replayed work out of
/// the run's counters. `flushed` holds one bit per log entry (see
/// [`Driver::log`]): a turn that flushed the batch buffers flushes them
/// in the replay too, so the reborn process holds only what had not been
/// shipped. Returns the process and the messages replayed.
pub(crate) fn recover(pristine: &Process, log: &[Option<Msg>], flushed: &[u64]) -> (Process, u64) {
    let mut fresh = pristine.clone();
    let mut scratch = Stats::default();
    let mut discard: Vec<Msg> = Vec::new();
    let mut replayed = 0;
    for (i, m) in log.iter().enumerate() {
        let mut ctx = Ctx {
            out: &mut discard,
            stats: &mut scratch,
            // Never report an empty mailbox during replay: a leader must
            // not originate a probe wave whose messages would be
            // discarded. The recorded flush condition travels as
            // `pressure`, which flushes and does nothing else.
            mailbox_empty: false,
            pressure: flushed[i / 64] >> (i % 64) & 1 == 1,
            // Replayed deliveries were already recorded pre-crash;
            // recording them again would double-count.
            tracer: None,
        };
        match m {
            Some(m) => {
                fresh.handle(m.clone(), &mut ctx);
                replayed += 1;
            }
            None if ctx.pressure => fresh.poke(&mut ctx),
            None => {}
        }
        discard.clear();
    }
    (fresh, replayed)
}

/// The query injection: the top-level relation request, one tuple
/// request per binding of the goal's `d` arguments (the standard query
/// has none, hence a single unit request), and end-of-requests.
pub(crate) fn query_messages(root: NodeId, requests: impl IntoIterator<Item = Tuple>) -> Vec<Msg> {
    let to_root = |payload| Msg {
        from: Endpoint::Engine,
        to: Endpoint::Node(root),
        payload,
    };
    let mut msgs = vec![to_root(Payload::RelationRequest)];
    msgs.extend(
        requests
            .into_iter()
            .map(|binding| to_root(Payload::TupleRequests(Pack::One(binding)))),
    );
    msgs.push(to_root(Payload::EndOfRequests));
    msgs
}

/// The engine endpoint: collects answers and observes the final `End`.
#[derive(Clone, Debug)]
pub(crate) struct EngineSink {
    /// The answer relation collected so far.
    pub answers: Relation,
    /// `End` messages delivered (Thm 3.1 observable: exactly 1).
    pub ends: u64,
    /// Answers delivered after the final `End` (Thm 3.1 observable: 0).
    pub post_end_answers: u64,
}

impl EngineSink {
    pub fn new(answer_arity: usize) -> EngineSink {
        EngineSink {
            answers: Relation::new(answer_arity),
            ends: 0,
            post_end_answers: 0,
        }
    }

    /// Consume one logical message addressed to the engine. `Ok(true)`
    /// on the final `End`, `Ok(false)` to keep collecting, or a typed
    /// error — never panics, whatever arrives.
    pub fn accept(&mut self, msg: Msg) -> Result<bool, RuntimeError> {
        match msg.payload {
            Payload::Answers(tuples) => {
                for tuple in tuples {
                    self.answer(tuple)?;
                }
            }
            Payload::End => {
                self.ends += 1;
                return Ok(true);
            }
            Payload::EndTupleRequests(_) => {}
            other => {
                return Err(RuntimeError::UnexpectedEngineMessage {
                    kind: other.kind_name(),
                })
            }
        }
        Ok(false)
    }

    fn answer(&mut self, tuple: Tuple) -> Result<(), RuntimeError> {
        if self.ends > 0 {
            self.post_end_answers += 1;
        }
        let got = tuple.arity();
        if self.answers.insert(tuple).is_err() {
            return Err(RuntimeError::AnswerArity {
                expected: self.answers.arity(),
                got,
                partial_answers: self.answers.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::govern::{CancelToken, QueryBudget};
    use mp_storage::tuple;
    use mp_trace::Ring;

    const A: Endpoint = Endpoint::Node(0);
    const B: Endpoint = Endpoint::Node(1);

    /// An in-memory wire the test scripts by hand: it only queues what
    /// the drivers put on it, and the test decides which frames arrive,
    /// in what order, how often, and in what state.
    #[derive(Default)]
    struct Script(Vec<(Endpoint, Frame)>);

    impl Wire for Script {
        fn put(&mut self, to: Endpoint, frame: Frame, _delay: u64) {
            self.0.push((to, frame));
        }
    }

    impl Script {
        /// Take every queued frame addressed to `to`.
        fn take(&mut self, to: Endpoint) -> Vec<Frame> {
            let (mine, rest) = std::mem::take(&mut self.0)
                .into_iter()
                .partition(|(t, _)| *t == to);
            self.0 = rest;
            mine.into_iter().map(|(_, f)| f).collect()
        }
    }

    /// Endpoints `A` and `B` of one run over a fault-free plan (the
    /// script is the adversary), optionally windowed and traced.
    fn pair(window: Option<u64>, max_retries: u32, traced: bool) -> (Driver, Driver) {
        let cfg = Arc::new(Config {
            plan: FaultPlan {
                max_retries,
                ..FaultPlan::default()
            },
            recovery: true,
            window,
            intra: BTreeSet::new(),
            n_nodes: 2,
            governor: Arc::new(Governor::new(QueryBudget::default(), CancelToken::new())),
        });
        let ring = Arc::new(Ring::with_capacity(64));
        let tracer = |actor| traced.then(|| Tracer::new(actor, 3, Arc::clone(&ring)));
        (
            Driver::new(A, Arc::clone(&cfg), tracer(0), None),
            Driver::new(B, cfg, tracer(1), None),
        )
    }

    fn msg(tag: i64) -> Msg {
        Msg {
            from: A,
            to: B,
            payload: Payload::Answers(Pack::One(tuple![tag])),
        }
    }

    /// Hand one frame to `d`; returns what it made deliverable.
    fn arrive(d: &mut Driver, frame: Frame, wire: &mut Script) -> Vec<Stamped> {
        let mut out = Vec::new();
        d.on_frame(frame, wire, &mut out);
        out
    }

    fn tags(items: &[Stamped]) -> Vec<Msg> {
        items.iter().map(|(m, _)| m.clone()).collect()
    }

    fn ack_of(frame: &Frame) -> u64 {
        match frame {
            Frame::Ack { peer: B, upto } => *upto,
            other => panic!("expected an ack from B, got {other:?}"),
        }
    }

    #[test]
    fn dropped_frame_is_retransmitted_and_delivered_exactly_once() {
        let (mut a, mut b) = pair(None, 64, false);
        let mut wire = Script::default();
        a.send(msg(7), 0, &mut wire);
        assert_eq!(wire.take(B).len(), 1, "first copy: lost on the wire");
        assert!(!a.retransmit(10, false, &mut wire).unwrap(), "not yet due");
        assert!(a.retransmit(1_000, false, &mut wire).unwrap());
        assert_eq!(a.stats.retransmits, 1);
        let copy = wire.take(B).pop().unwrap();
        assert_eq!(tags(&arrive(&mut b, copy.clone(), &mut wire)), [msg(7)]);
        // A second copy of the retransmission is a duplicate, not a
        // second delivery.
        assert!(arrive(&mut b, copy, &mut wire).is_empty());
        b.flush_acks(&mut wire);
        for ack in wire.take(A) {
            arrive(&mut a, ack, &mut wire);
        }
        assert!(!a.retransmit(9_999, true, &mut wire).unwrap(), "all acked");
        assert_eq!(a.stats.logical_answers, 1, "one logical send, counted once");
    }

    #[test]
    fn duplicate_is_discarded_and_acked_again() {
        let (mut a, mut b) = pair(None, 64, false);
        let mut wire = Script::default();
        a.send(msg(1), 0, &mut wire);
        let frame = wire.take(B).pop().unwrap();
        assert_eq!(arrive(&mut b, frame.clone(), &mut wire).len(), 1);
        b.flush_acks(&mut wire);
        // The copy arrives in a later delivery round: it owes its own ack.
        assert!(arrive(&mut b, frame, &mut wire).is_empty());
        b.flush_acks(&mut wire);
        assert_eq!(b.stats.dups_discarded, 1);
        let acks: Vec<u64> = wire.take(A).iter().map(ack_of).collect();
        assert_eq!(acks, [1, 1], "the duplicate is re-acked");
        assert_eq!(b.stats.acks, 2);
    }

    #[test]
    fn reordered_frames_are_delivered_in_link_order() {
        let (mut a, mut b) = pair(None, 64, false);
        let mut wire = Script::default();
        for tag in 0..3 {
            a.send(msg(tag), 0, &mut wire);
        }
        let mut frames = wire.take(B);
        frames.reverse();
        let mut delivered = Vec::new();
        for f in frames {
            delivered.push(tags(&arrive(&mut b, f, &mut wire)));
        }
        b.flush_acks(&mut wire);
        assert_eq!(
            delivered,
            [vec![], vec![], vec![msg(0), msg(1), msg(2)]],
            "frames 2 and 1 wait for 0"
        );
        let acks: Vec<u64> = wire.take(A).iter().map(ack_of).collect();
        assert_eq!(acks, [3], "gaps are not acked; the run is, cumulatively");
    }

    #[test]
    fn one_round_owes_one_cumulative_ack_per_link() {
        let (mut a, mut b) = pair(None, 64, false);
        let mut wire = Script::default();
        for tag in 0..3 {
            a.send(msg(tag), 0, &mut wire);
        }
        for f in wire.take(B) {
            arrive(&mut b, f, &mut wire);
        }
        assert!(b.owes_acks());
        assert!(wire.0.is_empty(), "acks wait for the end of the round");
        b.flush_acks(&mut wire);
        assert!(!b.owes_acks());
        let acks: Vec<u64> = wire.take(A).iter().map(ack_of).collect();
        assert_eq!(acks, [3]);
        b.flush_acks(&mut wire);
        assert!(wire.0.is_empty(), "a flush with nothing owed sends nothing");
        assert_eq!(b.stats.acks, 1);
    }

    /// An owed ack is paid before data goes back on the reverse link, so
    /// the peer never finds it queued behind that data. On the pool a
    /// trailing ack would sit in the mailbox behind the next probe and
    /// reset the node's idleness on every wave.
    #[test]
    fn an_owed_ack_goes_out_ahead_of_reverse_data() {
        let (mut a, mut b) = pair(None, 64, false);
        let mut wire = Script::default();
        a.send(msg(0), 0, &mut wire);
        for f in wire.take(B) {
            arrive(&mut b, f, &mut wire);
        }
        let reply = Msg {
            from: B,
            to: A,
            payload: Payload::Answers(Pack::One(tuple![9])),
        };
        b.send(reply, 0, &mut wire);
        let to_a = wire.take(A);
        assert_eq!(ack_of(&to_a[0]), 1);
        assert!(matches!(to_a[1], Frame::Data { seq: 0, .. }));
        b.flush_acks(&mut wire);
        assert!(wire.0.is_empty(), "the owed ack was already paid");
        assert_eq!(b.stats.acks, 1);
    }

    #[test]
    fn corrupt_frame_is_discarded_without_an_ack() {
        let (mut a, mut b) = pair(None, 64, false);
        let mut wire = Script::default();
        a.send(msg(1), 0, &mut wire);
        let Some(Frame::Data {
            seq, msg, stamp, ..
        }) = wire.take(B).pop()
        else {
            panic!("expected a data frame");
        };
        let garbled = Frame::Data {
            seq,
            msg,
            stamp,
            corrupted: true,
        };
        assert!(arrive(&mut b, garbled, &mut wire).is_empty());
        b.flush_acks(&mut wire);
        assert!(wire.0.is_empty(), "no ack: the sender must retransmit");
        assert_eq!(b.stats.acks, 0);
        assert!(a.retransmit(0, true, &mut wire).unwrap());
    }

    #[test]
    fn full_window_stalls_then_releases_in_order_on_ack() {
        let (mut a, mut b) = pair(Some(2), 64, false);
        let mut wire = Script::default();
        for tag in 0..4 {
            a.send(msg(tag), 0, &mut wire);
        }
        assert_eq!(a.stats.credits_stalled, 2);
        assert!(a.under_pressure());
        let first = wire.take(B);
        assert_eq!(first.len(), 2, "only the window's worth is on the wire");
        // A timer never forces a stalled frame out.
        a.retransmit(0, true, &mut wire).unwrap();
        assert_eq!(wire.take(B).len(), 2);

        let mut delivered = Vec::new();
        for f in first {
            delivered.extend(tags(&arrive(&mut b, f, &mut wire)));
        }
        b.flush_acks(&mut wire);
        for ack in wire.take(A) {
            arrive(&mut a, ack, &mut wire);
        }
        assert!(!a.under_pressure());
        for f in wire.take(B) {
            delivered.extend(tags(&arrive(&mut b, f, &mut wire)));
        }
        assert_eq!(delivered, [msg(0), msg(1), msg(2), msg(3)]);
    }

    #[test]
    fn retransmitted_and_buffered_frames_keep_their_send_stamp() {
        let (mut a, mut b) = pair(None, 64, true);
        let mut wire = Script::default();
        a.send(msg(0), 0, &mut wire);
        a.send(msg(1), 0, &mut wire);
        let stamp_of = |f: &Frame| match f {
            Frame::Data { stamp, .. } => stamp.clone().expect("traced sends are stamped"),
            Frame::Ack { .. } => panic!("expected data"),
        };
        let sent: Vec<_> = wire.take(B).iter().map(stamp_of).collect();
        assert_eq!((sent[0].link_seq, sent[1].link_seq), (0, 1));
        // Both copies lost; the retransmissions carry the original stamps.
        a.retransmit(0, true, &mut wire).unwrap();
        let again = wire.take(B);
        assert_eq!(again.iter().map(stamp_of).collect::<Vec<_>>(), sent);
        // Out-of-order arrival: frame 1 sits in the reorder buffer with
        // its stamp until frame 0 fills the gap.
        let mut again = again.into_iter().rev();
        assert!(arrive(&mut b, again.next().unwrap(), &mut wire).is_empty());
        let delivered = arrive(&mut b, again.next().unwrap(), &mut wire);
        let stamps: Vec<_> = delivered.into_iter().map(|(_, s)| s.unwrap()).collect();
        assert_eq!(stamps, sent);
    }

    /// Only the flush at the end of a probe's turn is replayed, so the
    /// log keeps no copy of the probe.
    #[test]
    fn a_logged_probe_holds_no_message_and_its_flush_still_replays() {
        let mut network = crate::runtime::tests::cyclic_tc();
        network.set_batch_max(4);
        let root = network.root;
        let pristine = network.processes[root].clone();
        let (a, _) = pair(None, 64, false);
        let mut d = Driver::new(Endpoint::Node(root), a.cfg, None, Some(pristine.clone()));
        let mut query = query_messages(root, [Tuple::unit()]).into_iter();
        for m in query.by_ref().take(2) {
            d.log(&m, false); // relation request, tuple request
        }
        let probe = Msg {
            from: A,
            to: Endpoint::Node(root),
            payload: Payload::EndRequest { wave: 1, epoch: 0 },
        };
        d.log(&probe, true);
        assert!(d.log[..2].iter().all(Option::is_some));
        assert_eq!(d.log[2], None, "a logged probe holds no message");

        let buffered = |p: &Process| p.common.batch_buf.iter().any(|b| !b.is_empty());
        let (unflushed, _) = recover(&pristine, &d.log[..2], &d.flushed);
        assert!(buffered(&unflushed), "the request waits in a batch buffer");
        let (fresh, replayed) = recover(&pristine, &d.log, &d.flushed);
        assert_eq!(replayed, 2);
        assert!(!buffered(&fresh), "the probe's turn flushed it");
    }

    #[test]
    fn exhausted_retries_are_a_typed_error() {
        let (mut a, _) = pair(None, 2, false);
        let mut wire = Script::default();
        a.send(msg(0), 0, &mut wire);
        assert_eq!(a.retransmit(0, true, &mut wire), Ok(true));
        assert_eq!(a.retransmit(0, true, &mut wire), Ok(true));
        assert_eq!(
            a.retransmit(0, true, &mut wire),
            Err(RuntimeError::RetransmitExhausted {
                from: 0,
                to: 1,
                retries: 3
            })
        );
    }

    #[test]
    fn engine_sink_rejects_what_it_must_not_receive() {
        let mut sink = EngineSink::new(1);
        let to_engine = |payload| Msg {
            from: A,
            to: Endpoint::Engine,
            payload,
        };
        assert_eq!(
            sink.accept(to_engine(Payload::Answers(Pack::One(tuple![1])))),
            Ok(false)
        );
        assert_eq!(
            sink.accept(to_engine(Payload::Answers(Pack::One(tuple![1, 2])))),
            Err(RuntimeError::AnswerArity {
                expected: 1,
                got: 2,
                partial_answers: 1
            })
        );
        assert_eq!(
            sink.accept(to_engine(Payload::RelationRequest)),
            Err(RuntimeError::UnexpectedEngineMessage {
                kind: "relation_request"
            })
        );
        assert_eq!(sink.accept(to_engine(Payload::End)), Ok(true));
        sink.accept(to_engine(Payload::Answers(Pack::One(tuple![2]))))
            .unwrap();
        assert_eq!((sink.ends, sink.post_end_answers), (1, 1));
    }
}
