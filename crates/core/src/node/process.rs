//! Per-message process logic (§3.1) and its interaction with the §3.2
//! termination protocol.
//!
//! Completion has two granularities:
//!
//! * **per binding** — a feeder sends `EndTupleRequest(b)` once `b`'s
//!   answers are certainly complete. EDB leaves end each binding
//!   immediately; trivial-component nodes flush ends whenever they are
//!   *settled* (every tuple request they themselves issued on cross-
//!   component arcs has been ended — at that point everything derivable
//!   has been derived and forwarded, because per-arc delivery is FIFO);
//!   leaders of recursive components flush at probe conclusion (Thm 3.1).
//! * **per stream** — `EndOfRequests` cascades down (a customer promises
//!   no further bindings), `End` cascades up. Rule nodes close stage by
//!   stage: stage *l* closes when stage *l−1* is closed and subgoal *l*'s
//!   stream has ended; closing stage *l* releases `EndOfRequests` to
//!   subgoal *l+1*; closing the last stage ends the head stream. Inside
//!   a nontrivial strong component the cascade is impossible (cycles), so
//!   streams there are closed by the probe protocol instead.

use super::compile::{
    shard_hash, shard_hash_cols, Behavior, Common, EdbCfg, GoalCfg, GoalState, HeadSource, Process,
    RuleCfg, RuleState, StageSource,
};
use crate::msg::{Endpoint, Msg, Pack, Payload};
use crate::stats::Stats;
use crate::termination::TermAction;
use mp_datalog::Term;
use mp_rulegoal::NodeId;
use mp_storage::{Tuple, Value};

/// Per-message context handed to a process by the runtime.
pub struct Ctx<'a> {
    /// Outbound message buffer (routed by the runtime afterwards).
    pub out: &'a mut Vec<Msg>,
    /// Shared stats sink.
    pub stats: &'a mut Stats,
    /// True if the node's mailbox is empty (not counting the message
    /// being processed) — the `empty_queues()` input of Fig 2.
    pub mailbox_empty: bool,
    /// True when the runtime is under backpressure for this node (credit
    /// windows on its outgoing links hold stalled frames). Batch buffers
    /// flush early instead of accumulating — the graceful-degradation
    /// path of credit-based flow control: smaller frames enter the
    /// window as credits free up rather than growing node memory.
    pub pressure: bool,
    /// Event recorder for this node when tracing is enabled. `None` on
    /// the untraced path and during crash-recovery log replay (replayed
    /// messages were already recorded the first time around).
    pub tracer: Option<&'a mut mp_trace::Tracer>,
}

impl Ctx<'_> {
    /// Record a tuple stored into node-local relation `rel` (goal answer
    /// store = 0; rule stage-`l` bindings = `2l`, answer store `l` =
    /// `2l + 1`), now `size` tuples — the checker's monotone-flow input.
    fn trace_store(&mut self, rel: u32, size: u64) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.on_store(rel, size);
        }
    }

    /// Record a probe-wave conclusion at this leader.
    fn trace_wave(&mut self, wave: u64, epoch: u64) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.on_wave(wave, epoch);
        }
    }
}

impl Common {
    /// `empty_queues()` (Fig 2): mailbox drained, every tuple request
    /// issued on cross-component arcs has been ended, and no batch
    /// buffer holds an unsent message. Buffered traffic is invisible to
    /// the Mattern counters until it is flushed, so a probe wave that
    /// observed it as "idle" could conclude prematurely; instead the
    /// wave goes negative and the end-of-handle flush drains the
    /// buffers before the next wave.
    pub fn empty_queues(&self, mailbox_empty: bool) -> bool {
        mailbox_empty
            && self.pending.is_empty()
            && self.batch_buf.iter().all(Vec::is_empty)
            && self.answer_buf.iter().all(Vec::is_empty)
            && self.etr_buf.iter().all(Vec::is_empty)
    }

    /// Business left on external customer arcs: un-ended bindings, or an
    /// end-of-requests we have not yet answered with a stream end.
    pub fn unfinished_business(&self) -> bool {
        self.customers
            .iter()
            .any(|c| !c.intra && (c.subs.len() > c.ended.len() || (c.eor && !c.end_sent)))
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, to: Endpoint, payload: Payload, intra: bool) {
        // Message-kind stats are counted once, by the runtime, when the
        // message is routed.
        if intra && !payload.is_protocol() {
            if let Some(t) = self.term.as_mut() {
                t.intra_sent += 1;
            }
        }
        ctx.out.push(Msg {
            from: Endpoint::Node(self.id),
            to,
            payload,
        });
    }

    fn customer_idx(&self, ep: Endpoint) -> Option<usize> {
        self.customers.iter().position(|c| c.ep == ep)
    }

    /// Note one logical item routed onto a sharded link (`arc` is a
    /// feeder arc index, or `feeders.len() + ci` for customer arc `ci`):
    /// bump the global routed-frame counter and fold this arc's running
    /// total into the max-skew gauge.
    fn note_shard_route(&mut self, ctx: &mut Ctx<'_>, arc: usize) {
        ctx.stats.shard_routed_frames += 1;
        self.shard_sent[arc] += 1;
        ctx.stats.shard_max_skew = ctx.stats.shard_max_skew.max(self.shard_sent[arc]);
    }

    fn feeder_idx(&self, ep: Endpoint) -> Option<usize> {
        let node = ep.node()?;
        self.feeders.iter().position(|f| f.node == node)
    }

    /// Forward the relation request to all feeders, once.
    fn forward_relreq(&mut self, ctx: &mut Ctx<'_>) {
        if self.relreq_forwarded {
            return;
        }
        self.relreq_forwarded = true;
        for i in 0..self.feeders.len() {
            let (node, intra) = (self.feeders[i].node, self.feeders[i].intra);
            self.send(ctx, Endpoint::Node(node), Payload::RelationRequest, intra);
        }
    }

    /// Send a tuple request to feeder `i`, tracking cross-arc pendings.
    /// The request joins the arc's buffer, which ships as one frame when
    /// the turn ends.
    fn request_feeder(&mut self, ctx: &mut Ctx<'_>, i: usize, binding: Tuple) {
        if !self.feeders[i].intra {
            self.pending.insert((i, binding.clone()));
        }
        self.batch_buf[i].push(binding);
        if self.batch_buf[i].len() >= self.batch_max {
            self.flush_arc(ctx, i);
        }
    }

    /// Send an answer on customer arc `ci`, through the arc's buffer.
    fn send_answer(&mut self, ctx: &mut Ctx<'_>, ci: usize, tuple: Tuple) {
        if self.cancelled {
            // MP310: a node that acked a cancel wave never produces
            // another answer. Answer frames are fed only from here.
            return;
        }
        self.answer_buf[ci].push(tuple);
        if self.answer_buf[ci].len() >= self.batch_max {
            self.flush_arc(ctx, self.feeders.len() + ci);
        }
    }

    /// End one binding on customer arc `ci` (marking it ended). The end
    /// flushes after the arc's answer buffer, so a binding's answers
    /// always precede its end.
    fn send_etr(&mut self, ctx: &mut Ctx<'_>, ci: usize, binding: Tuple) {
        self.customers[ci].ended.insert(binding.clone());
        self.etr_buf[ci].push(binding);
        if self.etr_buf[ci].len() >= self.batch_max {
            self.flush_arc(ctx, self.feeders.len() + ci);
        }
    }

    /// Flush policy: the turn bound. When the node is about to go idle
    /// (its mailbox is drained), or its links are under credit pressure,
    /// each arc's buffer ships as one frame. Buffering across messages
    /// is what gives the §3.1-footnote-2 packaging its volume; request
    /// pending-tracking happens at buffer time and `empty_queues`
    /// inspects the buffers, so the §3.2 protocol can never declare a
    /// node idle while it holds unsent traffic. At a flush bound of 1
    /// (`Network::set_batching(false)`) every push ships at once, so
    /// the walk over every arc is skipped.
    fn flush_batches(&mut self, ctx: &mut Ctx<'_>) {
        if self.batch_max > 1 && (ctx.mailbox_empty || ctx.pressure) {
            self.flush_batches_now(ctx);
        }
    }

    /// Unconditionally flush every buffer (also used before releasing
    /// feeders or ending streams, so an `EndOfRequests` can never
    /// overtake buffered requests and an `End` can never overtake
    /// buffered answers or per-binding ends).
    fn flush_batches_now(&mut self, ctx: &mut Ctx<'_>) {
        for arc in 0..self.feeders.len() + self.customers.len() {
            self.flush_arc(ctx, arc);
        }
    }

    /// Ship arc `arc`'s buffers, one frame per kind: feeder `i`'s
    /// requests (`arc = i`), or customer `ci`'s answers and then its
    /// per-binding ends (`arc = feeders.len() + ci`), so a binding's
    /// answers precede its end on the wire.
    fn flush_arc(&mut self, ctx: &mut Ctx<'_>, arc: usize) {
        let Some(ci) = arc.checked_sub(self.feeders.len()) else {
            if let Some(bindings) = Pack::take(&mut self.batch_buf[arc]) {
                let (node, intra) = (self.feeders[arc].node, self.feeders[arc].intra);
                let payload = Payload::TupleRequests(bindings);
                self.send(ctx, Endpoint::Node(node), payload, intra);
            }
            return;
        };
        let (ep, intra) = (self.customers[ci].ep, self.customers[ci].intra);
        if let Some(tuples) = Pack::take(&mut self.answer_buf[ci]) {
            self.send(ctx, ep, Payload::Answers(tuples), intra);
        }
        if let Some(bindings) = Pack::take(&mut self.etr_buf[ci]) {
            self.send(ctx, ep, Payload::EndTupleRequests(bindings), intra);
        }
    }

    /// Flush per-binding ends on all cross customer arcs.
    fn flush_etrs(&mut self, ctx: &mut Ctx<'_>) {
        for ci in 0..self.customers.len() {
            if self.customers[ci].intra {
                continue;
            }
            if self.customers[ci].subs.len() == self.customers[ci].ended.len() {
                continue;
            }
            let to_end: Vec<Tuple> = self.customers[ci]
                .subs
                .iter()
                .filter(|b| !self.customers[ci].ended.contains(*b))
                .cloned()
                .collect();
            for b in to_end {
                self.send_etr(ctx, ci, b);
            }
        }
    }

    /// Send `EndOfRequests` to every cross feeder, once.
    fn release_feeders(&mut self, ctx: &mut Ctx<'_>) {
        if self.eor_sent_to_feeders {
            return;
        }
        self.flush_batches_now(ctx);
        self.eor_sent_to_feeders = true;
        for i in 0..self.feeders.len() {
            if !self.feeders[i].intra {
                let node = self.feeders[i].node;
                self.send(ctx, Endpoint::Node(node), Payload::EndOfRequests, false);
            }
        }
    }

    /// Send the stream end on every cross customer arc whose customer has
    /// sent end-of-requests.
    fn end_streams(&mut self, ctx: &mut Ctx<'_>) {
        self.flush_batches_now(ctx);
        for ci in 0..self.customers.len() {
            let c = &self.customers[ci];
            if c.intra || !c.eor || c.end_sent {
                continue;
            }
            let ep = c.ep;
            self.customers[ci].end_sent = true;
            self.send(ctx, ep, Payload::End, false);
        }
    }

    /// All cross customers have sent end-of-requests.
    fn all_customers_released(&self) -> bool {
        self.customers.iter().filter(|c| !c.intra).all(|c| c.eor)
    }

    /// This node's children in its component's BFS spanning tree (none
    /// outside a nontrivial component).
    fn bfst_children(&self) -> Vec<NodeId> {
        let term = self.term.as_ref();
        term.map(|t| t.bfst_children.clone()).unwrap_or_default()
    }
}

impl Process {
    /// Handle one message. The runtime routes `ctx.out` afterwards.
    pub fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        ctx.stats.messages_processed += 1;
        let from = msg.from;
        // A cancelled node drains everything without processing it: no
        // joins, no new requests, no probe-wave participation (a
        // suppressed `conclude` would otherwise leave the leader
        // re-probing forever), and — the MP310 obligation — no further
        // answers. The frame still counts as processed so the Mattern
        // counters and the transport's acks stay honest. Only `Cancel`
        // itself is still inspected, for duplicate accounting.
        if self.common.cancelled && !matches!(msg.payload, Payload::Cancel { .. }) {
            return;
        }
        match msg.payload {
            Payload::Shutdown => return,
            Payload::EndRequest { wave, epoch } => {
                let empty = self.common.empty_queues(ctx.mailbox_empty);
                let id = self.common.id;
                if let Some(t) = self.common.term.as_mut() {
                    t.on_end_request(id, wave, epoch, empty, ctx.out);
                } else {
                    ctx.stats.stale_dropped += 1;
                }
            }
            Payload::EndNegative { wave, epoch } => {
                let empty = self.common.empty_queues(ctx.mailbox_empty);
                let unfinished = self.common.unfinished_business();
                let id = self.common.id;
                let action = match (from.node(), self.common.term.as_mut()) {
                    (Some(child), Some(t)) => {
                        t.on_end_negative(id, child, wave, epoch, empty, unfinished, ctx.out)
                    }
                    _ => TermAction::Stale,
                };
                self.finish_protocol_step(action, ctx);
            }
            Payload::EndConfirmed {
                wave,
                epoch,
                sent,
                received,
            } => {
                let empty = self.common.empty_queues(ctx.mailbox_empty);
                let unfinished = self.common.unfinished_business();
                let id = self.common.id;
                let action = match (from.node(), self.common.term.as_mut()) {
                    (Some(child), Some(t)) => t.on_end_confirmed(
                        id, child, wave, epoch, sent, received, empty, unfinished, ctx.out,
                    ),
                    _ => TermAction::Stale,
                };
                self.finish_protocol_step(action, ctx);
            }
            Payload::Reborn { .. } => {
                let empty = self.common.empty_queues(ctx.mailbox_empty);
                let unfinished = self.common.unfinished_business();
                let id = self.common.id;
                let action = match (from.node(), self.common.term.as_mut()) {
                    (Some(child), Some(t)) => t.on_reborn(id, child, empty, unfinished, ctx.out),
                    _ => TermAction::Stale,
                };
                self.finish_protocol_step(action, ctx);
            }
            Payload::SccFinished => {
                self.on_scc_finished(ctx);
            }
            Payload::Cancel { wave, epoch } => {
                self.on_cancel(wave, epoch, ctx);
            }
            work => {
                // Any non-protocol message is work: it resets idleness and
                // counts toward the intra-component receive counter.
                let c = &self.common;
                let from_intra = from.node().is_some()
                    && c.customer_idx(from)
                        .map(|ci| c.customers[ci].intra)
                        .or_else(|| c.feeder_idx(from).map(|i| c.feeders[i].intra))
                        .unwrap_or(false);
                if let Some(t) = self.common.term.as_mut() {
                    t.on_work();
                    if from_intra {
                        t.intra_recv += 1;
                    }
                }
                self.handle_work(from, work, ctx);
            }
        }
        self.poke(ctx);
    }

    /// Idle-time nudge from the runtime, equivalent to the tail of
    /// [`Process::handle`] without a message. The threaded fault path
    /// needs it: transport frames (acks, retransmissions) drain from the
    /// same queue as logical messages, so the "last message left the
    /// mailbox empty" moment that triggers batch flushes and leader
    /// probe (re-)origination can pass while `handle` sees a non-empty
    /// queue — and with no further logical traffic, nothing else would
    /// ever re-check. Safe to call at any time: every action inside is
    /// guarded by the same idleness conditions `handle` uses.
    pub fn poke(&mut self, ctx: &mut Ctx<'_>) {
        self.common.flush_batches(ctx);
        self.post_step(ctx);
        // `post_step` may have buffered per-binding ends (trivial nodes
        // flush ends once settled); drain them before going idle.
        self.common.flush_batches(ctx);
    }

    /// Common tail of the protocol-reply handlers: count stale drops,
    /// conclude on a successful probe.
    fn finish_protocol_step(&mut self, action: TermAction, ctx: &mut Ctx<'_>) {
        match action {
            TermAction::Stale => ctx.stats.stale_dropped += 1,
            TermAction::Conclude => self.conclude(ctx),
            TermAction::None => {}
        }
    }

    fn handle_work(&mut self, from: Endpoint, payload: Payload, ctx: &mut Ctx<'_>) {
        // Downward payloads must arrive on a customer arc, upward ones on
        // a feeder arc. Protocol payloads are dispatched in `handle`, so
        // anything else reaching here is a misrouted frame too.
        let arc = match payload {
            Payload::RelationRequest | Payload::TupleRequests(_) | Payload::EndOfRequests => {
                self.common.customer_idx(from)
            }
            Payload::Answers(_) | Payload::EndTupleRequests(_) | Payload::End => {
                self.common.feeder_idx(from)
            }
            _ => None,
        };
        let Some(arc) = arc else {
            ctx.stats.malformed_dropped += 1;
            return;
        };
        match payload {
            Payload::RelationRequest => self.common.forward_relreq(ctx),
            Payload::TupleRequests(bindings) => {
                for binding in bindings {
                    self.on_tuple_request(arc, binding, ctx);
                }
            }
            Payload::Answers(tuples) => {
                for tuple in tuples {
                    self.on_answer(arc, tuple, ctx);
                }
            }
            Payload::EndTupleRequests(bindings) => {
                for binding in bindings {
                    self.common.pending.remove(&(arc, binding));
                }
            }
            Payload::End => {
                self.common.feeder_end[arc] = true;
                if self.common.term.is_none() {
                    match &mut self.behavior {
                        Behavior::Rule { cfg, st } => {
                            // Stream end from one shard of a subgoal; the
                            // stage closes once every shard of that
                            // subgoal (every arc sharing the slot) ended.
                            let slot = self.common.feeders[arc].slot;
                            if cfg.stages[slot]
                                .arcs
                                .iter()
                                .all(|&a| self.common.feeder_end[a])
                            {
                                rule_close_stage(cfg, st, &mut self.common, slot + 1, ctx);
                            }
                        }
                        Behavior::Goal { .. } => {
                            goal_maybe_end(&mut self.common, ctx);
                        }
                        Behavior::CycleRef { .. } | Behavior::Edb { .. } => {}
                    }
                }
                // Members of nontrivial components receive post-finish
                // stream ends from released feeders; nothing to do.
            }
            Payload::EndOfRequests => {
                self.common.customers[arc].eor = true;
                if self.common.term.is_none() {
                    match &mut self.behavior {
                        Behavior::Edb { .. } => {
                            // Settled by construction: end the stream.
                            self.common.end_streams(ctx);
                        }
                        Behavior::Goal { .. } => {
                            if self.common.all_customers_released() {
                                self.common.release_feeders(ctx);
                                goal_maybe_end(&mut self.common, ctx);
                            }
                        }
                        Behavior::Rule { cfg, st } => {
                            // Seeds arrive from every parent shard; the
                            // request stream is only over once each of
                            // them has promised no further bindings.
                            if self.common.customers.iter().all(|c| c.eor) {
                                rule_close_stage(cfg, st, &mut self.common, 0, ctx);
                            }
                        }
                        Behavior::CycleRef { .. } => {
                            // Cycle-ref customers are intra-component, so
                            // a cross end-of-requests is misrouted.
                            ctx.stats.malformed_dropped += 1;
                        }
                    }
                }
                // For a component leader the end-of-requests is recorded;
                // the probe protocol concludes the stream.
            }
            // `arc` is `None` for every other payload.
            _ => {}
        }
    }

    /// Dispatch one answer tuple from feeder `fi` to the behavior.
    fn on_answer(&mut self, fi: usize, tuple: Tuple, ctx: &mut Ctx<'_>) {
        match &mut self.behavior {
            Behavior::Goal { cfg, st } => goal_on_answer(cfg, st, &mut self.common, tuple, ctx),
            Behavior::Rule { cfg, st } => rule_on_answer(cfg, st, &mut self.common, fi, tuple, ctx),
            Behavior::CycleRef { .. } => {
                // Relay to the rule parent; the ancestor already
                // performed the selection by subscription.
                self.common.send_answer(ctx, 0, tuple);
            }
            Behavior::Edb { .. } => {
                // EDB leaves have no feeders; only a misrouted message
                // can land here.
                ctx.stats.malformed_dropped += 1;
            }
        }
    }

    /// Dispatch one tuple request binding to the behavior.
    fn on_tuple_request(&mut self, ci: usize, binding: Tuple, ctx: &mut Ctx<'_>) {
        match &mut self.behavior {
            Behavior::Goal { cfg, st } => {
                goal_on_request(cfg, st, &mut self.common, ci, binding, ctx)
            }
            Behavior::Edb { cfg } => edb_on_request(cfg, &mut self.common, ci, binding, ctx),
            Behavior::Rule { cfg, st } => {
                rule_on_request(cfg, st, &mut self.common, ci, binding, ctx)
            }
            Behavior::CycleRef { cfg } => {
                let _ = cfg;
                self.common.customers[ci].subs.insert(binding.clone());
                self.common.request_feeder(ctx, 0, binding);
            }
        }
    }

    /// After every message: flush per-binding ends when settled (trivial
    /// nodes), or give the leader a chance to originate a probe.
    fn post_step(&mut self, ctx: &mut Ctx<'_>) {
        if self.common.cancelled {
            // No per-binding ends, no probe origination: the component
            // is being drained, not concluded.
            return;
        }
        match &self.common.term {
            None => {
                if self.common.pending.is_empty() {
                    self.common.flush_etrs(ctx);
                }
            }
            Some(_) => {
                let empty = self.common.empty_queues(ctx.mailbox_empty);
                let unfinished = self.common.unfinished_business();
                let id = self.common.id;
                if let Some(t) = self.common.term.as_mut() {
                    t.maybe_originate(id, empty, unfinished, ctx.out);
                }
            }
        }
    }

    /// Leader probe conclusion: the whole component is idle (Thm 3.1), so
    /// every binding received so far is complete.
    fn conclude(&mut self, ctx: &mut Ctx<'_>) {
        if self.common.cancelled {
            // A wave already in flight when the cancel landed may still
            // conclude; the conclusion is moot — nothing may be flushed
            // or ended on a component that is being drained.
            return;
        }
        if let Some(t) = self.common.term.as_mut() {
            ctx.stats.probe_waves += t.waves_completed;
            t.waves_completed = 0;
            ctx.trace_wave(t.wave, t.epoch);
        }
        self.common.flush_etrs(ctx);
        if self.common.all_customers_released() {
            self.common.end_streams(ctx);
            self.common.release_feeders(ctx);
            // Broadcast SccFinished down the BFST.
            let children = self.common.bfst_children();
            if let Some(t) = self.common.term.as_mut() {
                t.finished = true;
            }
            for c in children {
                self.common
                    .send(ctx, Endpoint::Node(c), Payload::SccFinished, true);
            }
        }
    }

    /// Cancel wave (resource governance): first delivery cancels the
    /// node — buffered traffic is *discarded* (never flushed: a
    /// cancelled node must not produce more answers, and unsent
    /// requests are work the budget already declined) — and the wave is
    /// forwarded down the BFST once, so cancellation reaches recursive
    /// components even if an engine broadcast frame is delayed by the
    /// transport. Duplicates (engine broadcast + BFST forward + log
    /// replay after a crash) are dropped.
    fn on_cancel(&mut self, wave: u64, epoch: u64, ctx: &mut Ctx<'_>) {
        if self.common.cancelled {
            ctx.stats.stale_dropped += 1;
            return;
        }
        self.cancel_local();
        for c in self.common.bfst_children() {
            self.common.send(
                ctx,
                Endpoint::Node(c),
                Payload::Cancel { wave, epoch },
                true,
            );
        }
    }

    /// Locally observe a tripped budget at an activation boundary:
    /// identical to receiving the cancel wave, minus the BFST forward
    /// (the engine's broadcast still reaches every node and is then
    /// dropped here as a duplicate). Lets pool workers stop deriving
    /// within one activation instead of waiting for the wave to be
    /// scheduled through a deep mailbox.
    pub fn cancel_local(&mut self) {
        if self.common.cancelled {
            return;
        }
        self.common.cancelled = true;
        for b in &mut self.common.batch_buf {
            b.clear();
        }
        for b in &mut self.common.answer_buf {
            b.clear();
        }
        for b in &mut self.common.etr_buf {
            b.clear();
        }
    }

    /// Member cleanup after the leader concluded.
    fn on_scc_finished(&mut self, ctx: &mut Ctx<'_>) {
        let children = self.common.bfst_children();
        if let Some(t) = self.common.term.as_mut() {
            if t.finished {
                return;
            }
            t.finished = true;
        }
        for c in children {
            self.common
                .send(ctx, Endpoint::Node(c), Payload::SccFinished, true);
        }
        self.common.release_feeders(ctx);
    }

    /// Recovery hook: stamp this (freshly rebuilt) process as restart
    /// generation `epoch` and announce the rebirth to the BFST parent,
    /// which treats it as a negative reply for any probe wave in flight.
    /// The epoch tag then prevents this node's pre-crash protocol
    /// traffic — still possible in the restored mailbox — from being
    /// accepted into post-crash waves.
    pub fn restarted(&mut self, epoch: u64, out: &mut Vec<Msg>) {
        let id = self.common.id;
        if let Some(t) = self.common.term.as_mut() {
            t.epoch = epoch;
            if let Some(parent) = t.bfst_parent {
                out.push(Msg {
                    from: Endpoint::Node(id),
                    to: Endpoint::Node(parent),
                    payload: Payload::Reborn { epoch },
                });
            }
        }
    }
}

// --------------------------------------------------------------------
// Goal nodes
// --------------------------------------------------------------------

fn goal_on_request(
    cfg: &GoalCfg,
    st: &mut GoalState,
    common: &mut Common,
    ci: usize,
    binding: Tuple,
    ctx: &mut Ctx<'_>,
) {
    if binding.arity() != cfg.d_in_transmitted.len() {
        ctx.stats.malformed_dropped += 1;
        return;
    }
    if !common.customers[ci].subs.insert(binding.clone()) {
        return; // duplicate subscription (customers deduplicate; defensive)
    }
    st.subs_by_binding
        .entry(binding.clone())
        .or_default()
        .push(ci);

    // Backfill already-stored answers matching this binding.
    let matching: Vec<Tuple> = st
        .answers
        .probe_cloned(&cfg.d_in_transmitted, binding.values());
    for t in matching {
        common.send_answer(ctx, ci, t);
    }

    // First sight of this binding anywhere: fan out to the rule children.
    if st.bindings.insert(binding.clone()) {
        for i in 0..common.feeders.len() {
            common.request_feeder(ctx, i, binding.clone());
        }
    }
}

fn goal_on_answer(
    cfg: &GoalCfg,
    st: &mut GoalState,
    common: &mut Common,
    tuple: Tuple,
    ctx: &mut Ctx<'_>,
) {
    match st.answers.insert(tuple.clone()) {
        Ok(true) => {}
        Ok(false) => return, // duplicate: "deletion of duplicates in cycles
        // ensures that nodes become idle when the computation is
        // complete" (§1.2)
        Err(_) => {
            // Arity mismatch: the schema is checked at compile time, so
            // only a corrupted or misrouted frame can get here. Drop it.
            ctx.stats.malformed_dropped += 1;
            return;
        }
    }
    ctx.stats.stored_tuples += 1;
    ctx.stats.goal_stored += 1;
    ctx.stats.max_relation_size = ctx.stats.max_relation_size.max(st.answers.len() as u64);
    ctx.trace_store(0, st.answers.len() as u64);
    let subscribers = with_key(&tuple, &cfg.d_in_transmitted, |key| {
        st.subs_by_binding.get(key).cloned()
    });
    if let Some(subscribers) = subscribers {
        for ci in subscribers {
            common.send_answer(ctx, ci, tuple.clone());
        }
    }
}

/// Trivial goal node: end the stream once all feeders ended and the
/// customer released us.
fn goal_maybe_end(common: &mut Common, ctx: &mut Ctx<'_>) {
    if common.all_customers_released()
        && common.feeder_end.iter().all(|&e| e)
        && common.pending.is_empty()
    {
        common.flush_etrs(ctx);
        common.end_streams(ctx);
    }
}

// --------------------------------------------------------------------
// EDB leaves
// --------------------------------------------------------------------

fn edb_on_request(cfg: &EdbCfg, common: &mut Common, ci: usize, binding: Tuple, ctx: &mut Ctx<'_>) {
    common.customers[ci].subs.insert(binding.clone());
    ctx.stats.edb_lookups += 1;
    let ids = cfg.index.probe_in(&cfg.filtered, binding.values());
    let rows = cfg.filtered.rows();
    match &cfg.project {
        // The rows of a set are already distinct: answer with the arena
        // rows themselves.
        None => {
            for id in ids {
                common.send_answer(ctx, ci, rows[id as usize].clone());
            }
        }
        // Dropping an `e` column can merge rows: project, then dedup.
        Some(cols) => {
            let mut seen = mp_storage::Relation::new(cols.len());
            for id in ids {
                let t = rows[id as usize].project(cols);
                if seen.insert(t.clone()).expect("projection arity") {
                    common.send_answer(ctx, ci, t);
                }
            }
        }
    }
    // The EDB is static: the binding is complete immediately.
    common.send_etr(ctx, ci, binding);
}

// --------------------------------------------------------------------
// Rule nodes
// --------------------------------------------------------------------

fn rule_on_request(
    cfg: &RuleCfg,
    st: &mut RuleState,
    common: &mut Common,
    ci: usize,
    binding: Tuple,
    ctx: &mut Ctx<'_>,
) {
    if binding.arity() != cfg.head_d_terms.len() {
        ctx.stats.malformed_dropped += 1;
        return;
    }
    common.customers[ci].subs.insert(binding.clone());
    // Unify the binding with the instance head's d-position terms.
    let Some(seed) = unify_binding(&cfg.head_d_terms, &cfg.stage0_schema, &binding) else {
        return; // head constants reject this binding
    };
    if st.stage_bindings[0]
        .insert(seed.clone())
        .expect("stage-0 arity")
    {
        ctx.stats.stored_tuples += 1;
        ctx.trace_store(0, st.stage_bindings[0].len() as u64);
        rule_propagate(cfg, st, common, 0, seed, ctx);
    }
}

/// Match a binding (values for the head label's `d` positions) against
/// the instance head terms; produce the stage-0 tuple.
fn unify_binding(
    head_d_terms: &[Term],
    schema: &[mp_datalog::Var],
    binding: &Tuple,
) -> Option<Tuple> {
    debug_assert_eq!(head_d_terms.len(), binding.arity());
    let mut values: Vec<Option<Value>> = vec![None; schema.len()];
    for (t, v) in head_d_terms.iter().zip(binding.values()) {
        match t {
            Term::Const(c) => {
                if c != v {
                    return None;
                }
            }
            Term::Var(var) => {
                let i = schema
                    .iter()
                    .position(|s| s == var)
                    .expect("stage-0 schema covers bound head vars");
                match &values[i] {
                    Some(existing) if existing != v => return None,
                    _ => values[i] = Some(*v),
                }
            }
        }
    }
    Some(values.into_iter().map(|v| v.expect("all bound")).collect())
}

/// Build a row of `n` values (`value(i)` is column `i`) into a stack
/// buffer and run `f` with the borrowed slice — the engine's per-probe
/// and per-join-output form. Avoids allocating a [`Tuple`] for every
/// probe key and every candidate join output; falls back to the heap
/// for the (unseen in practice) width > 16 case.
#[inline]
fn with_row<R>(n: usize, value: impl Fn(usize) -> Value, f: impl FnOnce(&[Value]) -> R) -> R {
    if n <= 16 {
        let mut buf = [Value::int(0); 16];
        for (i, slot) in buf[..n].iter_mut().enumerate() {
            *slot = value(i);
        }
        f(&buf[..n])
    } else {
        f(&(0..n).map(value).collect::<Vec<_>>())
    }
}

/// Project `t` onto `cols` on the stack and run `f` with the key slice.
#[inline]
fn with_key<R>(t: &Tuple, cols: &[usize], f: impl FnOnce(&[Value]) -> R) -> R {
    with_row(cols.len(), |i| t[cols[i]], f)
}

/// Store the join of a stage-`level` binding `prev` with a subgoal
/// answer `ans` in stage `level + 1`; if it is new, push it on through
/// the pipeline. The candidate row is built on the stack, so a duplicate
/// allocates nothing.
fn rule_store_join(
    cfg: &RuleCfg,
    st: &mut RuleState,
    common: &mut Common,
    level: usize,
    prev: &Tuple,
    ans: &Tuple,
    ctx: &mut Ctx<'_>,
) {
    let build = &cfg.stages[level].build;
    let next = &mut st.stage_bindings[level + 1];
    let value = |i: usize| match build[i] {
        StageSource::Prev(c) => prev[c],
        StageSource::Ans(c) => ans[c],
    };
    if !with_row(build.len(), value, |row| next.insert_values(row)).expect("stage arity") {
        return;
    }
    let new_tuple = next.rows()[next.len() - 1].clone();
    ctx.stats.stored_tuples += 1;
    let sz = next.len() as u64;
    ctx.stats.max_relation_size = ctx.stats.max_relation_size.max(sz);
    ctx.stats.max_stage_relation = ctx.stats.max_stage_relation.max(sz);
    ctx.trace_store(2 * (level as u32 + 1), sz);
    rule_propagate(cfg, st, common, level + 1, new_tuple, ctx);
}

/// A new tuple landed in stage `level`; push it through the pipeline.
fn rule_propagate(
    cfg: &RuleCfg,
    st: &mut RuleState,
    common: &mut Common,
    level: usize,
    tuple: Tuple,
    ctx: &mut Ctx<'_>,
) {
    let k = cfg.stages.len();
    if level == k {
        emit_head(cfg, common, &tuple, ctx);
        return;
    }
    let stage = &cfg.stages[level];

    // Issue the tuple request for the next subgoal, hash-routed to the
    // shard that owns the binding when the subgoal is replicated.
    let req = tuple.project(&stage.request_from_prev);
    if st.requested[level].insert(req.clone()) {
        let arc = if stage.arcs.len() == 1 {
            stage.arcs[0]
        } else {
            let pick = (shard_hash(req.values()) % stage.arcs.len() as u64) as usize;
            let arc = stage.arcs[pick];
            common.note_shard_route(ctx, arc);
            arc
        };
        common.request_feeder(ctx, arc, req);
    }

    // Join against the already-stored answers of that subgoal.
    ctx.stats.join_probes += 1;
    let matches: Vec<Tuple> = with_key(&tuple, &stage.join_prev_cols, |key| {
        st.ans_store[level].probe_cloned(&stage.join_answer_cols, key)
    });
    for ans in &matches {
        rule_store_join(cfg, st, common, level, &tuple, ans, ctx);
    }
}

fn rule_on_answer(
    cfg: &RuleCfg,
    st: &mut RuleState,
    common: &mut Common,
    feeder_idx: usize,
    tuple: Tuple,
    ctx: &mut Ctx<'_>,
) {
    // Every arc of a sharded subgoal shares the subgoal's stage slot.
    let level = common.feeders[feeder_idx].slot;
    let Some(stage) = cfg.stages.get(level) else {
        ctx.stats.malformed_dropped += 1;
        return;
    };
    if tuple.arity() != stage.answer_arity {
        ctx.stats.malformed_dropped += 1;
        return;
    }
    // Repeated-variable consistency (feeders guarantee this; checked
    // defensively because a violation would silently corrupt joins).
    for &(a, b) in &stage.answer_eq_checks {
        if tuple[a] != tuple[b] {
            debug_assert!(false, "inconsistent answer from feeder");
            return;
        }
    }
    match st.ans_store[level].insert(tuple.clone()) {
        Ok(true) => {}
        Ok(false) | Err(_) => return,
    }
    ctx.stats.stored_tuples += 1;
    ctx.stats.max_relation_size = ctx
        .stats
        .max_relation_size
        .max(st.ans_store[level].len() as u64);
    ctx.trace_store(2 * level as u32 + 1, st.ans_store[level].len() as u64);

    // Join with the previous stage's accumulated bindings.
    ctx.stats.join_probes += 1;
    let prevs: Vec<Tuple> = with_key(&tuple, &stage.join_answer_cols, |key| {
        st.stage_bindings[level].probe_cloned(&stage.join_prev_cols, key)
    });
    for prev in &prevs {
        rule_store_join(cfg, st, common, level, prev, &tuple, ctx);
    }
}

fn emit_head(cfg: &RuleCfg, common: &mut Common, final_tuple: &Tuple, ctx: &mut Ctx<'_>) {
    // Antijoin: a final-stage tuple matching any negated subgoal's
    // materialized extension is suppressed (stratified negation).
    for nf in &cfg.neg_filters {
        if nf.always_block {
            return;
        }
        let probe: Tuple = nf.probe_cols.iter().map(|&c| final_tuple[c]).collect();
        if nf.blocked.contains(&probe) {
            return;
        }
    }
    let answer: Tuple = cfg
        .head_out
        .iter()
        .map(|src| match src {
            HeadSource::Const(v) => *v,
            HeadSource::Var(i) => final_tuple[*i],
        })
        .collect();
    ctx.stats.derived_tuples += 1;
    // Hash-route the answer to the parent-goal shard that owns its
    // binding (the projection on the parent's `d` columns hashes
    // identically to the request binding it responds to).
    let ci = if cfg.head_arcs.len() == 1 {
        cfg.head_arcs[0]
    } else {
        let h = shard_hash_cols(&answer, &cfg.head_hash_cols);
        let ci = cfg.head_arcs[(h % cfg.head_arcs.len() as u64) as usize];
        common.note_shard_route(ctx, common.feeders.len() + ci);
        ci
    };
    common.send_answer(ctx, ci, answer);
}

/// Close stage `level` (0 = the head's end-of-requests; `l` = subgoal
/// `l`'s stream ended), releasing the next subgoal or ending the head
/// stream. Only runs on trivial-component rule nodes — recursive rule
/// nodes are closed by the probe protocol.
fn rule_close_stage(
    cfg: &RuleCfg,
    st: &mut RuleState,
    common: &mut Common,
    level: usize,
    ctx: &mut Ctx<'_>,
) {
    debug_assert!(
        level == 0 || st.stage_closed[level - 1],
        "a subgoal can only end after we released it, which required the \
         previous stage to be closed"
    );
    if st.stage_closed[level] {
        return;
    }
    st.stage_closed[level] = true;
    let k = cfg.stages.len();
    if level < k {
        // All requests to subgoal `level+1` have been issued; flush any
        // buffered ones so the release cannot overtake them. Every shard
        // of the subgoal is released.
        common.flush_batches_now(ctx);
        for a in cfg.stages[level].arcs.clone() {
            let (node, intra) = (common.feeders[a].node, common.feeders[a].intra);
            debug_assert!(!intra, "trivial rule nodes have only cross feeders");
            common.send(ctx, Endpoint::Node(node), Payload::EndOfRequests, intra);
        }
    } else {
        // Head stream complete.
        common.flush_etrs(ctx);
        common.end_streams(ctx);
    }
}
