//! The deterministic simulated network.
//!
//! Per-node FIFO mailboxes with atomic enqueue — exactly the 1986 model
//! of processes with operating-system message queues. Scheduling is
//! pluggable: global-FIFO (fully deterministic) or seeded-random node
//! activation (still deterministic given the seed, and per-sender FIFO is
//! preserved because each node's mailbox is a queue). The random schedule
//! is how the tests adversarially exercise Thm 3.1.
//!
//! With a [`FaultPlan`] attached, the reliable mailboxes are fed by a
//! faulty wire plus the recovery transport of
//! [`crate::runtime::transport`]: every logical message becomes a
//! sequenced frame that can be dropped, duplicated, delayed, or
//! corrupted; acks and retransmissions restore exactly-once FIFO
//! delivery; and node crashes are recovered by replaying the node's
//! durable message log through a pristine process clone (write-ahead-log
//! semantics — see DESIGN.md). The simulator owns only what is specific
//! to it — a logical-time wire, the clock, and the scheduling loop — and
//! the fault path is a separate loop so the clean path stays
//! byte-identical to the fault-free simulator.
//!
//! Sharded evaluation needs no simulator changes: shard instances are
//! ordinary physical processes, and the two-level termination wave —
//! per-shard-group idleness aggregated at each group's captain (shard 0)
//! before the cross-group leader concludes — is just the §3.2 probe wave
//! over the deeper captain-extended BFST that [`Network::compile_sharded`]
//! builds. The epoch tags and Mattern counters work unchanged because the
//! captain links are counted like any other intra-component edge.

use crate::fault::FaultPlan;
use crate::msg::{Endpoint, Msg};
use crate::node::{Ctx, Network};
use crate::runtime::govern::{CancelToken, Governor, NodeUsage, QueryBudget, Trip};
use crate::runtime::transport::{query_messages, Config, Driver, EngineSink, Frame, Stamped, Wire};
use crate::runtime::{
    budget_error, cancel_wave_on_trip, describe_payload, node_usage, trace_actor, trace_deliver,
    trace_send, tracer_for, RuntimeError, TRACE_RING_CAPACITY,
};
use crate::stats::Stats;
use mp_storage::{Relation, Tuple};
use mp_trace::{Ring, Trace, Tracer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Global FIFO: messages delivered in send order.
    Fifo,
    /// Seeded random node activation (per-node mailboxes stay FIFO).
    Random(u64),
}

/// Result of a simulated run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// The answer relation collected at the engine endpoint.
    pub answers: Relation,
    /// Instrumentation counters.
    pub stats: Stats,
    /// Clock-stamped event trace, if requested: the input to
    /// `mp_trace::check` and to deterministic replay.
    pub events: Option<Trace>,
    /// `End` messages delivered to the engine (Thm 3.1 observable:
    /// must be exactly 1 on success).
    pub engine_ends: u64,
    /// Answers delivered after the final `End` (Thm 3.1 observable:
    /// must be 0).
    pub post_end_answers: u64,
}

/// The simulator.
#[derive(Clone, Debug)]
pub struct SimRuntime {
    /// Scheduling policy.
    pub schedule: Schedule,
    /// Step budget (messages processed) before declaring divergence.
    /// The guard enforced is the smaller of this and `budget.max_steps`.
    pub max_steps: u64,
    /// Record the clock-stamped event trace ([`SimOutcome::events`]).
    pub trace: bool,
    /// Fault-injection plan; `None` runs the pristine 1986 model with
    /// zero transport overhead.
    pub fault_plan: Option<FaultPlan>,
    /// Recover crashed nodes by log replay. With recovery disabled a
    /// scheduled crash aborts the run with [`RuntimeError::LinkDown`].
    pub recovery: bool,
    /// Resource budget (steps, deadline, logical messages, memory,
    /// mailbox bound).
    pub budget: QueryBudget,
    /// Cooperative cancellation handle; tripping it triggers a cancel
    /// wave and a typed [`RuntimeError::Cancelled`].
    pub cancel: CancelToken,
}

impl Default for SimRuntime {
    fn default() -> Self {
        SimRuntime {
            schedule: Schedule::Fifo,
            max_steps: 200_000_000,
            trace: false,
            fault_plan: None,
            recovery: true,
            budget: QueryBudget::default(),
            cancel: CancelToken::default(),
        }
    }
}

/// Per-node FIFO mailboxes plus the schedule that picks which one is
/// served next. Each message waits with its send stamp.
struct Mailboxes {
    queues: Vec<VecDeque<Stamped>>,
    /// Global send order: one token per enqueued message (FIFO schedule).
    fifo_tokens: VecDeque<usize>,
    /// Seeded-random schedule; `None` = FIFO.
    rng: Option<ChaCha8Rng>,
    /// High-water mark of any single mailbox's depth.
    high_water: u64,
}

impl Mailboxes {
    fn new(n: usize, schedule: Schedule) -> Self {
        Mailboxes {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            fifo_tokens: VecDeque::new(),
            rng: match schedule {
                Schedule::Fifo => None,
                Schedule::Random(seed) => Some(ChaCha8Rng::seed_from_u64(seed)),
            },
            high_water: 0,
        }
    }

    fn push(&mut self, id: usize, item: Stamped) {
        self.queues[id].push_back(item);
        self.high_water = self.high_water.max(self.queues[id].len() as u64);
        self.fifo_tokens.push_back(id);
    }

    /// The next node to activate, or `None` when every mailbox is empty.
    fn pick(&mut self) -> Option<usize> {
        match &mut self.rng {
            None => loop {
                match self.fifo_tokens.pop_front() {
                    Some(id) if !self.queues[id].is_empty() => break Some(id),
                    Some(_) => continue,
                    None => break None,
                }
            },
            Some(rng) => {
                let nonempty: Vec<usize> = (0..self.queues.len())
                    .filter(|&i| !self.queues[i].is_empty())
                    .collect();
                if nonempty.is_empty() {
                    None
                } else {
                    Some(nonempty[rng.gen_range(0..nonempty.len())])
                }
            }
        }
    }

    /// Accounting rows for an aborted run.
    fn usage(&self, network: &Network, processed: &[u64]) -> Vec<NodeUsage> {
        node_usage(&network.shard_of, self.queues.len(), |i| {
            let q = &self.queues[i];
            let bytes = q.iter().map(|(m, _)| m.payload.approx_bytes()).sum();
            (processed[i], q.len(), bytes)
        })
    }
}

/// The divergence and wall-clock guards of one run.
struct StepGuard {
    started: Instant,
    steps: u64,
    max_steps: u64,
    deadline: Duration,
}

impl StepGuard {
    /// Count one delivery. Past the step bound the run is `Diverged`;
    /// the wall clock and the interner arena are sampled every 1024
    /// steps only — a syscall and an interner read at that rate keep the
    /// unlimited-budget clean path within noise of an ungoverned loop.
    fn step(
        &mut self,
        governor: &Governor,
        sink: &EngineSink,
        mailboxes: &Mailboxes,
    ) -> Result<(), RuntimeError> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(RuntimeError::Diverged { steps: self.steps });
        }
        if self.steps.is_multiple_of(1024) {
            governor.sample_arena();
            if self.started.elapsed() >= self.deadline {
                return Err(RuntimeError::Timeout {
                    budget_millis: self.deadline.as_millis() as u64,
                    elapsed_millis: self.started.elapsed().as_millis() as u64,
                    partial_answers: sink.answers.len(),
                    pending: (mailboxes.queues.iter().map(VecDeque::len).enumerate())
                        .filter(|&(_, depth)| depth > 0)
                        .collect(),
                    unjoined: Vec::new(),
                });
            }
        }
        Ok(())
    }
}

/// The simulator's recovery wire: in-flight frames in a deterministic
/// total order over logical time, `(deliver_at, uid)`.
///
/// An undelayed frame is due at `now + 1`, and `now` never decreases, so
/// undelayed frames are put already in that order: they queue on a ring
/// (`lane`). Only frames the fault plan delays go through the ordered
/// map. [`SimWire::pop_due`] takes whichever head is smaller, which is
/// the order a single map over every frame would give.
#[derive(Default)]
struct SimWire {
    /// Undelayed frames: `(deliver_at, uid, to, frame)`, ascending.
    lane: VecDeque<(u64, u64, Endpoint, Frame)>,
    /// Delayed frames by `(deliver_at, uid)`.
    delayed: BTreeMap<(u64, u64), (Endpoint, Frame)>,
    uid: u64,
    /// Logical time: one tick per delivery step.
    now: u64,
}

impl Wire for SimWire {
    fn put(&mut self, to: Endpoint, frame: Frame, delay: u64) {
        let at = self.now + 1 + delay;
        if delay == 0 {
            self.lane.push_back((at, self.uid, to, frame));
        } else {
            self.delayed.insert((at, self.uid), (to, frame));
        }
        self.uid += 1;
    }
}

impl SimWire {
    /// `(deliver_at, uid)` of the next frame in flight, if any.
    fn head(&self) -> Option<(u64, u64)> {
        let lane = self.lane.front().map(|&(at, uid, ..)| (at, uid));
        let delayed = self.delayed.keys().next().copied();
        match (lane, delayed) {
            (Some(l), Some(d)) => Some(l.min(d)),
            (l, d) => l.or(d),
        }
    }

    /// Take the next frame in flight if it is due at or before `now`.
    fn pop_due(&mut self) -> Option<(Endpoint, Frame)> {
        let head = self.head()?;
        if head.0 > self.now {
            return None;
        }
        if self
            .lane
            .front()
            .is_some_and(|&(at, uid, ..)| (at, uid) == head)
        {
            self.lane.pop_front().map(|(_, _, to, frame)| (to, frame))
        } else {
            self.delayed.pop_first().map(|(_, entry)| entry)
        }
    }
}

impl SimRuntime {
    /// Run the network to completion: inject the top-level relation
    /// request, one (unit or given) tuple request, and end-of-requests;
    /// drive messages until quiescence; require the final `End`.
    pub fn run(&self, network: &mut Network) -> Result<SimOutcome, RuntimeError> {
        self.run_with_requests(network, std::iter::once(Tuple::unit()))
    }

    /// Like [`SimRuntime::run`] with explicit top-level tuple requests
    /// (bindings for the goal's `d` arguments — the standard query has
    /// none, hence a single unit request).
    pub fn run_with_requests(
        &self,
        network: &mut Network,
        requests: impl IntoIterator<Item = Tuple>,
    ) -> Result<SimOutcome, RuntimeError> {
        let initial = query_messages(network.root, requests);
        match &self.fault_plan {
            None => self.run_clean(network, initial, None),
            Some(plan) => self.run_faulty(network, initial, plan.clone()),
        }
    }

    /// Re-execute a recorded delivery schedule: at each step the next
    /// actor in `activations` (a recorded trace's
    /// [`Trace::activation_order`]) processes its front message;
    /// activations whose mailbox is empty are skipped, and once the
    /// recording is exhausted the run finishes FIFO. Per-link FIFO makes
    /// each node consume messages in the recorded per-link order, so a
    /// threaded run's schedule reproduces deterministically (answers and
    /// logical counters are schedule-invariant — Thm 3.1/4.1 — which is
    /// exactly what the replay tests assert). Fault plans do not apply:
    /// replay re-executes the *logical* history, which the recovery
    /// transport already made exactly-once.
    pub fn run_replay(
        &self,
        network: &mut Network,
        requests: impl IntoIterator<Item = Tuple>,
        activations: &[u32],
    ) -> Result<SimOutcome, RuntimeError> {
        let initial = query_messages(network.root, requests);
        self.run_clean(network, initial, Some(activations))
    }

    fn guard(&self) -> StepGuard {
        StepGuard {
            started: Instant::now(),
            steps: 0,
            max_steps: self.max_steps.min(self.budget.max_steps),
            deadline: self.budget.deadline,
        }
    }

    /// Close a run that reached quiescence: the typed governance error
    /// if a budget tripped, `NoTermination` without the final `End`,
    /// else the outcome.
    fn conclude(
        governor: &Governor,
        trip: Option<Trip>,
        mut stats: Stats,
        sink: EngineSink,
        usage: impl FnOnce() -> Vec<NodeUsage>,
        events: Option<Trace>,
    ) -> Result<SimOutcome, RuntimeError> {
        governor.sample_arena();
        stats.mem_high_water_bytes = governor.mem_high_water();
        if let Some(t) = trip {
            return Err(budget_error(
                t,
                governor,
                sink.answers.iter().cloned().collect(),
                usage(),
                stats.cancel_waves,
            ));
        }
        if sink.ends == 0 {
            return Err(RuntimeError::NoTermination);
        }
        sink.note_arrivals(&mut stats);
        Ok(SimOutcome {
            answers: sink.answers,
            stats,
            events,
            engine_ends: sink.ends,
            post_end_answers: sink.post_end_answers,
        })
    }

    /// The pristine path: reliable atomic mailboxes, no transport layer,
    /// no overhead — byte-identical message counts to the pre-fault
    /// simulator.
    fn run_clean(
        &self,
        network: &mut Network,
        initial: Vec<Msg>,
        replay: Option<&[u32]>,
    ) -> Result<SimOutcome, RuntimeError> {
        let n = network.processes.len();
        let ring = self
            .trace
            .then(|| Arc::new(Ring::with_capacity(TRACE_RING_CAPACITY)));
        let mut sim = CleanSim {
            mailboxes: Mailboxes::new(n, self.schedule),
            stats: Stats::default(),
            tracers: (0..=n).map(|i| tracer_for(ring.as_ref(), i, n)).collect(),
            sink: EngineSink::new(network.answer_arity),
            governor: Governor::new(self.budget.clone(), self.cancel.clone()),
        };
        let mut processed: Vec<u64> = vec![0; n];
        let mut trip: Option<Trip> = None;
        let mut guard = self.guard();

        for m in initial {
            sim.route(m)?;
        }

        let mut out: Vec<Msg> = Vec::new();
        let mut replay_cursor = 0usize;
        loop {
            if let Some(wave) = cancel_wave_on_trip(&mut trip, &sim.governor, n) {
                sim.stats.cancel_waves += 1;
                for m in wave {
                    sim.route(m)?;
                }
            }
            // A recorded schedule takes precedence; its activations with
            // an empty mailbox are skipped (the recorded run may contain
            // protocol traffic a re-execution doesn't reproduce 1:1) and
            // the schedule finishes whatever the recording doesn't cover.
            let mut next = None;
            if let Some(acts) = replay {
                while replay_cursor < acts.len() {
                    let id = acts[replay_cursor] as usize;
                    replay_cursor += 1;
                    if id < n && !sim.mailboxes.queues[id].is_empty() {
                        next = Some(id);
                        break;
                    }
                }
            }
            let Some(id) = next.or_else(|| sim.mailboxes.pick()) else {
                break;
            };
            let Some((msg, stamp)) = sim.mailboxes.queues[id].pop_front() else {
                continue;
            };
            sim.governor.note_dequeue(msg.payload.approx_bytes());
            guard.step(&sim.governor, &sim.sink, &sim.mailboxes)?;
            if let Some(tr) = sim.tracers[id].as_mut() {
                trace_deliver(tr, &msg, stamp.as_deref(), n);
            }
            let mut ctx = Ctx {
                out: &mut out,
                stats: &mut sim.stats,
                mailbox_empty: sim.mailboxes.queues[id].is_empty(),
                // Flow control lives on the recovery transport; the
                // pristine path has no stalled frames.
                pressure: false,
                tracer: sim.tracers[id].as_mut(),
            };
            network.processes[id].handle(msg, &mut ctx);
            processed[id] += 1;
            for m in out.drain(..) {
                sim.route(m)?;
            }
        }

        sim.stats.mailbox_high_water = sim.mailboxes.high_water;
        let mailboxes = sim.mailboxes;
        Self::conclude(
            &sim.governor,
            trip,
            sim.stats,
            sim.sink,
            || mailboxes.usage(network, &processed),
            ring.map(|r| mp_trace::collect((n + 1) as u32, &r)),
        )
    }

    /// The fault path: every link goes through the recovery transport
    /// driver; the fault plan perturbs the wire; node crashes are
    /// recovered by durable-log replay.
    fn run_faulty(
        &self,
        network: &mut Network,
        initial: Vec<Msg>,
        plan: FaultPlan,
    ) -> Result<SimOutcome, RuntimeError> {
        let n = network.processes.len();
        let governor = Arc::new(Governor::new(self.budget.clone(), self.cancel.clone()));
        let cfg = Arc::new(Config {
            plan,
            recovery: self.recovery,
            window: self.budget.mailbox_bound.map(|b| b as u64),
            intra: network.intra_pairs(),
            n_nodes: n,
            governor: Arc::clone(&governor),
        });
        // Event recording sees *logical* sends and deliveries only —
        // retransmissions and wire duplicates below the exactly-once line
        // are invisible to it, which is what makes the batching-invariance
        // and FIFO invariants checkable.
        let ring = self
            .trace
            .then(|| Arc::new(Ring::with_capacity(TRACE_RING_CAPACITY)));
        // One driver per node, then the engine's at index `n`.
        let endpoints = (0..n).map(Endpoint::Node).chain([Endpoint::Engine]);
        let mut sim = FaultySim {
            drivers: endpoints
                .enumerate()
                .map(|(actor, me)| {
                    let tracer = tracer_for(ring.as_ref(), actor, n);
                    let pristine = me.node().map(|id| network.processes[id].clone());
                    Driver::new(me, Arc::clone(&cfg), tracer, pristine)
                })
                .collect(),
            wire: SimWire::default(),
            mailboxes: Mailboxes::new(n, self.schedule),
            sink: EngineSink::new(network.answer_arity),
            delivered: Vec::new(),
            owing: Vec::new(),
        };
        let mut processed: Vec<u64> = vec![0; n];
        let mut trip: Option<Trip> = None;
        let mut guard = self.guard();

        for m in initial {
            sim.send(m);
        }

        let mut out: Vec<Msg> = Vec::new();
        loop {
            // The cancel wave rides the recovery transport: each Cancel
            // frame is sequenced and logged, so a node that crashes
            // mid-drain re-learns its cancellation from log replay.
            if let Some(wave) = cancel_wave_on_trip(&mut trip, &governor, n) {
                sim.drivers[n].stats.cancel_waves += 1;
                for m in wave {
                    sim.send(m);
                }
            }
            sim.deliver_due(&governor)?;

            let Some(id) = sim.mailboxes.pick() else {
                // No deliverable message. Advance time to the next wire
                // event, or force a retransmission round, or — with
                // everything drained and acked — stop.
                if let Some((t, _)) = sim.wire.head() {
                    sim.wire.now = sim.wire.now.max(t);
                    continue;
                }
                if sim.retransmit(true)? {
                    sim.wire.now += 1;
                    continue;
                }
                break;
            };
            let Some((msg, stamp)) = sim.mailboxes.queues[id].pop_front() else {
                continue;
            };
            governor.note_dequeue(msg.payload.approx_bytes());
            sim.wire.now += 1;
            guard.step(&governor, &sim.sink, &sim.mailboxes)?;
            let driver = &mut sim.drivers[id];
            let mailbox_empty = sim.mailboxes.queues[id].is_empty();
            let pressure = driver.under_pressure();
            driver.log(&msg, mailbox_empty || pressure);
            driver.note_deliver(&msg, stamp.as_deref());
            let mut ctx = Ctx {
                out: &mut out,
                stats: &mut driver.stats,
                mailbox_empty,
                pressure,
                tracer: driver.tracer.as_mut(),
            };
            network.processes[id].handle(msg, &mut ctx);
            processed[id] += 1;
            for m in out.drain(..) {
                sim.send(m);
            }
            for m in sim.drivers[id].maybe_crash(&mut network.processes[id])? {
                sim.send(m);
            }
            // Periodic retransmission scan: the probe protocol keeps the
            // network busy forever when a message is lost (the Mattern
            // counters block conclusion), so quiescence alone must not
            // gate retransmission.
            if guard.steps.is_multiple_of(64) {
                sim.retransmit(false)?;
            }
        }

        let mut stats = Stats::default();
        for driver in &sim.drivers {
            stats.merge(&driver.stats);
        }
        stats.mailbox_high_water = sim.mailboxes.high_water;
        let mailboxes = sim.mailboxes;
        Self::conclude(
            &governor,
            trip,
            stats,
            sim.sink,
            || mailboxes.usage(network, &processed),
            ring.map(|r| mp_trace::collect((n + 1) as u32, &r)),
        )
    }
}

/// All state of one clean simulation run.
struct CleanSim {
    mailboxes: Mailboxes,
    stats: Stats,
    /// One event recorder per node, then the engine's at index `n`;
    /// all `None` when tracing is off.
    tracers: Vec<Option<Tracer>>,
    sink: EngineSink,
    governor: Governor,
}

impl CleanSim {
    /// Send one message: straight into the recipient's mailbox with its
    /// send stamp, or into the engine's sink.
    fn route(&mut self, msg: Msg) -> Result<(), RuntimeError> {
        self.stats.count_send(&msg.payload);
        self.governor
            .note_messages(describe_payload(&msg.payload).1);
        let n = self.tracers.len() - 1;
        let stamp = self.tracers[trace_actor(msg.from, n) as usize]
            .as_mut()
            .map(|tr| Box::new(trace_send(tr, &msg, n)));
        match msg.to {
            Endpoint::Engine => {
                // Engine-bound messages are consumed right here, so the
                // delivery is recorded here too.
                if let Some(tr) = self.tracers[n].as_mut() {
                    trace_deliver(tr, &msg, stamp.as_deref(), n);
                }
                self.sink.accept(msg, self.governor.messages_used())?;
            }
            Endpoint::Node(id) => {
                self.governor.note_enqueue(msg.payload.approx_bytes());
                self.mailboxes.push(id, (msg, stamp));
            }
        }
        Ok(())
    }
}

/// All state of one fault-injected simulation run besides the network:
/// the drivers, the wire they share, and the mailboxes they deliver to.
struct FaultySim {
    drivers: Vec<Driver>,
    wire: SimWire,
    /// Delivered (in order, exactly once) but not yet processed.
    mailboxes: Mailboxes,
    sink: EngineSink,
    /// What one frame made deliverable; reused across frames and rounds.
    delivered: Vec<Stamped>,
    /// Drivers owing acks in the current delivery round, each once.
    owing: Vec<usize>,
}

impl FaultySim {
    /// A logical send through the sender's driver.
    fn send(&mut self, msg: Msg) {
        let from = msg.from.node().unwrap_or(self.drivers.len() - 1);
        self.drivers[from].send(msg, self.wire.now, &mut self.wire);
    }

    /// Hand every wire frame due at or before `now` to its addressee's
    /// driver, and what that makes deliverable to the mailbox or engine;
    /// then end the round with one cumulative ack per link that received
    /// data. Acks put during the round are due at `now + 1`, so none is
    /// delivered in the round that sent it.
    fn deliver_due(&mut self, governor: &Governor) -> Result<(), RuntimeError> {
        // `owing` below tracks only drivers that start owing this round.
        debug_assert!(self.drivers.iter().all(|d| !d.owes_acks()));
        let engine = self.drivers.len() - 1;
        while let Some((to, frame)) = self.wire.pop_due() {
            let idx = to.node().unwrap_or(engine);
            let driver = &mut self.drivers[idx];
            let owed_before = driver.owes_acks();
            driver.on_frame(frame, &mut self.wire, &mut self.delivered);
            if !owed_before && driver.owes_acks() {
                self.owing.push(idx);
            }
            for (msg, stamp) in self.delivered.drain(..) {
                match to {
                    // Engine-bound messages are consumed right here;
                    // node-bound ones are recorded at mailbox pop, when
                    // the node actually processes them.
                    Endpoint::Engine => {
                        driver.note_deliver(&msg, stamp.as_deref());
                        self.sink.accept(msg, governor.messages_used())?;
                    }
                    Endpoint::Node(id) => {
                        governor.note_enqueue(msg.payload.approx_bytes());
                        self.mailboxes.push(id, (msg, stamp));
                    }
                }
            }
        }
        for idx in self.owing.drain(..) {
            self.drivers[idx].flush_acks(&mut self.wire);
        }
        Ok(())
    }

    /// One retransmission round over every endpoint; returns whether
    /// anything went back on the wire.
    fn retransmit(&mut self, force: bool) -> Result<bool, RuntimeError> {
        let mut any = false;
        for driver in &mut self.drivers {
            any |= driver.retransmit(self.wire.now, force, &mut self.wire)?;
        }
        Ok(any)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tag a frame with the uid it was put under.
    fn tagged(uid: u64) -> Frame {
        Frame::Ack {
            peer: Endpoint::Engine,
            upto: uid,
        }
    }

    fn tag(frame: &Frame) -> u64 {
        match frame {
            Frame::Ack { upto, .. } => *upto,
            Frame::Data { .. } => unreachable!("only tagged acks are put"),
        }
    }

    /// The lane-plus-map wire pops exactly the `(deliver_at, uid)` order
    /// of one ordered map over every frame, under seeded interleavings
    /// of undelayed and delayed puts, clock advances, idle jumps and
    /// delivery rounds.
    #[test]
    fn wire_pops_in_deliver_at_then_uid_order() {
        let max_delay = 8;
        for seed in 0..32 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut wire = SimWire::default();
            let mut reference: BTreeMap<(u64, u64), u64> = BTreeMap::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for _ in 0..2_000 {
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let delay = if rng.gen_range(0..3) == 0 {
                            rng.gen_range(1..=max_delay)
                        } else {
                            0
                        };
                        let uid = wire.uid;
                        reference.insert((wire.now + 1 + delay, uid), uid);
                        wire.put(Endpoint::Engine, tagged(uid), delay);
                    }
                    5..=6 => wire.now += 1,
                    7 => {
                        // The simulator's idle jump, to the earliest
                        // frame in flight on either path.
                        assert_eq!(wire.head(), reference.keys().next().copied());
                        if let Some((t, _)) = wire.head() {
                            wire.now = wire.now.max(t);
                        }
                    }
                    _ => {
                        // A delivery round.
                        while let Some((_, frame)) = wire.pop_due() {
                            got.push(tag(&frame));
                        }
                        while let Some(entry) = reference.first_entry() {
                            if entry.key().0 > wire.now {
                                break;
                            }
                            want.push(entry.remove());
                        }
                        assert_eq!(wire.head(), reference.keys().next().copied());
                    }
                }
            }
            wire.now = u64::MAX - max_delay - 1;
            while let Some((_, frame)) = wire.pop_due() {
                got.push(tag(&frame));
            }
            want.extend(reference.into_values());
            assert_eq!(got, want, "seed {seed}");
            assert!(wire.lane.is_empty() && wire.delayed.is_empty());
        }
    }
}
