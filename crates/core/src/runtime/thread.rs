//! The threaded runtime: a fixed-size worker pool with work-stealing
//! activation deques over per-node mailboxes.
//!
//! This realizes the paper's deployment claim — "No shared memory is
//! required … this formulation is amenable to parallel computation"
//! (§1.2) — without the thread-per-node structure the first cut had: a
//! 200-node rule/goal graph must not thrash 8 cores with 200 threads,
//! and a 5-node transitive-closure graph must still use all of them.
//! Nodes are *tasks*, not threads. Each node owns a FIFO mailbox; a
//! message arriving at an empty-handed node enqueues one **activation**
//! of that node onto the sending worker's deque (or the shared injector
//! when the engine sends). Workers drain their own deque front-first,
//! fall back to the injector, and steal from the back of a peer's deque
//! when both are empty.
//!
//! The **scheduled bit** (one `AtomicBool` per node) guarantees at most
//! one activation of a node is queued or running at any time: the sender
//! that flips it false→true enqueues; everyone else just appends to the
//! mailbox. An activation drains the mailbox, clears the bit, and
//! re-checks — the re-check catches messages that raced the clear, so no
//! wakeup is lost. One-activation-at-a-time is what preserves the
//! simulator's semantics: a node's messages are processed sequentially
//! in mailbox order, so per-link FIFO delivery (which the transport
//! guarantees into the mailbox) is per-link FIFO *processing*, exactly
//! the §3.1 model. A per-node mutex around the node state is the
//! belt-and-braces backstop making the handoff between consecutive
//! activations on different workers a proper synchronization edge.
//!
//! With a [`FaultPlan`] attached, every logical send goes through the
//! recovery transport driver of [`crate::runtime::transport`] — the same
//! one the simulator runs: nodes exchange `Data`/`Ack` frames instead of
//! bare messages, and scheduled crashes are recovered by replaying the
//! node's durable message log through a pristine process clone (see
//! DESIGN.md). This runtime supplies the driver's wire (mailboxes, the
//! engine channel, and a delayed-frame timer) and clock (milliseconds
//! since the run started): workers tick their assigned nodes every
//! [`TICK`] to release delayed frames, retransmit unacked ones and give
//! idle nodes their probe-origination nudge. Fault fates are pure
//! functions of `(seed, link, seq, attempt)`, so a plan injects the same
//! faults on the same logical message stream as in the simulator. The
//! clean path (`fault_plan: None`) sends `Plain` frames with no sequence
//! numbers, no acks, and no ticks — zero transport overhead.
//!
//! Sharded evaluation is likewise invisible here: the pool schedules
//! physical processes, of which a sharded node simply contributes `K`.
//! Routing by partition-key hash happens inside the node layer with the
//! same deterministic hasher as the simulator, so both runtimes split
//! traffic across shard links identically; the two-level termination
//! wave rides the captain-extended BFST compiled into each instance's
//! `TermState`, and those captain links are registered as intra pairs so
//! the credit window never throttles the wave (see DESIGN.md).

use crate::fault::FaultPlan;
use crate::msg::{Endpoint, Msg};
use crate::node::{Ctx, Network, Process};
use crate::runtime::govern::{CancelToken, Governor, QueryBudget, Trip};
use crate::runtime::transport::{query_messages, Config, Driver, EngineSink, Frame, Stamped, Wire};
use crate::runtime::{
    budget_error, cancel_wave_on_trip, node_usage, tracer_for, RuntimeError, SimOutcome,
    TRACE_RING_CAPACITY,
};
use crate::stats::Stats;
use mp_storage::Tuple;
use mp_trace::{Event, Ring, Stamp};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Worker tick when fault injection is active: the granularity at which
/// delayed frames are released and retransmissions checked.
const TICK: Duration = Duration::from_millis(2);

/// How long workers get to drain and exit after shutdown before the
/// runtime detaches them and reports them as unjoined.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// Frames one activation may process before it must yield: the node is
/// re-enqueued (scheduled-bit re-check) so a hot node cannot monopolize
/// a worker against the shutdown signal, and in fault mode delayed-frame
/// release and retransmission stay timely under a steady inflow.
const ACTIVATION_BUDGET: usize = 256;

/// Within an activation, run the transport maintenance (delayed-frame
/// release, retransmission scan) every this many frames — the threaded
/// analogue of the simulator's 64-step retransmission cadence.
const MAINTENANCE_EVERY: usize = 64;

/// What actually travels through a mailbox. The clean path sends `Plain`
/// logical messages — the mailbox itself is the reliable FIFO link. The
/// fault path sends the recovery transport's `Data` and `Ack` frames.
#[derive(Clone, Debug)]
enum TMsg {
    /// A logical message on the reliable clean path, with its causal
    /// stamp when tracing is on (`None` otherwise — zero tracing cost).
    Plain(Msg, Option<Box<Stamp>>),
    /// A recovery-transport frame on the faulty path.
    Wire(Frame),
    /// A node hit a fatal condition (crash with recovery disabled,
    /// retransmission budget exhausted); routed to the engine, which
    /// aborts the run with the carried error.
    Fatal(RuntimeError),
}

/// One node's FIFO mailbox plus its scheduled bit. The bit is true
/// exactly while an activation for the node is queued or running; the
/// sender that flips it false→true owns the enqueue.
struct Mailbox {
    q: Mutex<VecDeque<TMsg>>,
    scheduled: AtomicBool,
}

/// No logical message waits in `q`: it holds ack-only frames at most.
/// An ack queued behind a probe must not count as work in Fig 2's
/// `empty_queues()`, or it resets the node's idleness and costs the
/// component a wave. The scan stops at the first other frame.
fn no_logical(q: &VecDeque<TMsg>) -> bool {
    q.iter().all(|f| matches!(f, TMsg::Wire(Frame::Ack { .. })))
}

/// Everything under the scheduler lock: the per-worker deques, the
/// injector the engine feeds, the idle-worker count for targeted
/// wakeups, and the behavior counters.
struct SchedState {
    /// Per-worker activation deques: the owner pops the front (FIFO for
    /// its own work), thieves pop the back.
    locals: Vec<VecDeque<u32>>,
    /// Activations enqueued from outside the pool (the engine thread).
    injector: VecDeque<u32>,
    /// Workers currently parked on the condvar.
    idle: usize,
    shutdown: bool,
    /// Activations handed to workers.
    activations: u64,
    /// Activations taken from another worker's deque.
    steals: u64,
    /// Idle transitions after a steal sweep found every deque empty.
    steal_failures: u64,
    /// High-water mark of queued activations across all deques.
    max_queue_depth: u64,
}

/// The shared fabric of one pool run: mailboxes and the scheduler.
struct PoolNet {
    mailboxes: Vec<Mailbox>,
    sched: Mutex<SchedState>,
    cv: Condvar,
    /// Shared resource accounting: every enqueue/dequeue is charged to
    /// the memory budget here, whichever thread performs it.
    governor: Arc<Governor>,
    /// High-water mark of any single mailbox's depth.
    mailbox_hw: AtomicU64,
}

/// Approximate heap bytes of a mailbox frame, for the memory budget.
/// Transport control frames (acks, fatals) carry no tuples and are
/// free.
fn frame_bytes(f: &TMsg) -> u64 {
    match f {
        TMsg::Plain(m, _) | TMsg::Wire(Frame::Data { msg: m, .. }) => m.payload.approx_bytes(),
        TMsg::Wire(Frame::Ack { .. }) | TMsg::Fatal(_) => 0,
    }
}

/// What a worker does next.
enum Task {
    /// Activate this node (drain its mailbox).
    Run(u32),
    /// Fault-mode tick deadline reached while idle: run transport
    /// maintenance on the worker's assigned nodes.
    Tick,
    /// Shutdown was signalled.
    Stop,
}

impl PoolNet {
    fn new(n: usize, workers: usize, governor: Arc<Governor>) -> PoolNet {
        PoolNet {
            mailboxes: (0..n)
                .map(|_| Mailbox {
                    q: Mutex::new(VecDeque::new()),
                    scheduled: AtomicBool::new(false),
                })
                .collect(),
            sched: Mutex::new(SchedState {
                locals: vec![VecDeque::new(); workers],
                injector: VecDeque::new(),
                idle: 0,
                shutdown: false,
                activations: 0,
                steals: 0,
                steal_failures: 0,
                max_queue_depth: 0,
            }),
            cv: Condvar::new(),
            governor,
            mailbox_hw: AtomicU64::new(0),
        }
    }

    /// Deliver a frame to a node's mailbox; if the node was unscheduled,
    /// enqueue its activation on `hint`'s deque (a pool worker keeps its
    /// own sends local) or the injector (the engine thread).
    fn post(&self, to: usize, frame: TMsg, hint: Option<usize>) {
        self.governor.note_enqueue(frame_bytes(&frame));
        let depth = {
            let mut q = self.mailboxes[to].q.lock().unwrap();
            q.push_back(frame);
            q.len()
        };
        self.mailbox_hw.fetch_max(depth as u64, Ordering::Relaxed);
        if !self.mailboxes[to].scheduled.swap(true, Ordering::AcqRel) {
            self.enqueue(to as u32, hint);
        }
    }

    fn enqueue(&self, node: u32, hint: Option<usize>) {
        let mut s = self.sched.lock().unwrap();
        match hint {
            Some(w) => s.locals[w].push_back(node),
            None => s.injector.push_back(node),
        }
        let depth = s.injector.len() + s.locals.iter().map(VecDeque::len).sum::<usize>();
        s.max_queue_depth = s.max_queue_depth.max(depth as u64);
        let any_idle = s.idle > 0;
        drop(s);
        if any_idle {
            self.cv.notify_one();
        }
    }

    /// Re-check a node's mailbox after clearing its scheduled bit; a
    /// message that raced the clear re-schedules the node here (the
    /// lost-wakeup guard of the scheduled-bit protocol).
    fn reschedule_if_nonempty(&self, node: usize, hint: Option<usize>) {
        let mb = &self.mailboxes[node];
        mb.scheduled.store(false, Ordering::Release);
        if !mb.q.lock().unwrap().is_empty() && !mb.scheduled.swap(true, Ordering::AcqRel) {
            self.enqueue(node as u32, hint);
        }
    }

    /// Worker `wid`'s next task: own deque front, then the injector,
    /// then a steal from the back of a peer's deque; park when all are
    /// empty. With `tick` set (fault mode), parking times out at the
    /// worker's next maintenance deadline.
    fn next_task(&self, wid: usize, tick: Option<Duration>) -> Task {
        let mut s = self.sched.lock().unwrap();
        loop {
            if s.shutdown {
                return Task::Stop;
            }
            if let Some(n) = s.locals[wid].pop_front() {
                s.activations += 1;
                return Task::Run(n);
            }
            if let Some(n) = s.injector.pop_front() {
                s.activations += 1;
                return Task::Run(n);
            }
            let workers = s.locals.len();
            let mut stolen = None;
            for k in 1..workers {
                let victim = (wid + k) % workers;
                if let Some(n) = s.locals[victim].pop_back() {
                    stolen = Some(n);
                    break;
                }
            }
            if let Some(n) = stolen {
                s.steals += 1;
                s.activations += 1;
                return Task::Run(n);
            }
            if workers > 1 {
                s.steal_failures += 1;
            }
            s.idle += 1;
            match tick {
                Some(d) => {
                    let (guard, timeout) = self.cv.wait_timeout(s, d).unwrap();
                    s = guard;
                    s.idle -= 1;
                    if timeout.timed_out() {
                        return Task::Tick;
                    }
                }
                None => {
                    s = self.cv.wait(s).unwrap();
                    s.idle -= 1;
                }
            }
        }
    }

    fn shutdown(&self) {
        self.sched.lock().unwrap().shutdown = true;
        self.cv.notify_all();
    }

    /// Non-empty mailboxes, for timeout diagnostics.
    fn pending(&self) -> Vec<(usize, usize)> {
        self.mailboxes
            .iter()
            .enumerate()
            .filter_map(|(i, mb)| {
                let len = mb.q.lock().unwrap().len();
                (len > 0).then_some((i, len))
            })
            .collect()
    }

    /// Fold the scheduler's behavior counters into the run stats.
    fn merge_sched_stats(&self, stats: &mut Stats) {
        let s = self.sched.lock().unwrap();
        stats.sched_activations += s.activations;
        stats.sched_steals += s.steals;
        stats.sched_steal_failures += s.steal_failures;
        stats.sched_max_queue = stats.sched_max_queue.max(s.max_queue_depth);
        stats.mailbox_high_water = stats
            .mailbox_high_water
            .max(self.mailbox_hw.load(Ordering::Relaxed));
    }
}

/// The pool's side of one endpoint's wire: mailboxes for nodes, a
/// channel for the engine, and a timer list for frames the fault plan
/// delays.
struct PoolWire {
    net: Arc<PoolNet>,
    engine_tx: Sender<TMsg>,
    /// The worker currently driving this endpoint (`None` on the engine
    /// thread): its deque receives the activations this endpoint's sends
    /// trigger.
    hint: Option<usize>,
    /// Frames held back by an injected delay, with their release time.
    delayed: Vec<(Instant, Endpoint, Frame)>,
}

impl PoolWire {
    fn post(&self, to: Endpoint, frame: TMsg) {
        // A failed engine send means the engine stopped collecting; the
        // run is already being torn down.
        match to {
            Endpoint::Engine => {
                let _ = self.engine_tx.send(frame);
            }
            Endpoint::Node(t) => self.net.post(t, frame, self.hint),
        }
    }

    /// Release every delayed frame whose time has come.
    fn flush_delayed(&mut self) {
        if self.delayed.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let (_, to, frame) = self.delayed.swap_remove(i);
                self.post(to, TMsg::Wire(frame));
            } else {
                i += 1;
            }
        }
    }
}

impl Wire for PoolWire {
    fn put(&mut self, to: Endpoint, frame: Frame, delay: u64) {
        if delay == 0 {
            self.post(to, TMsg::Wire(frame));
        } else {
            let at = Instant::now() + Duration::from_millis(delay);
            self.delayed.push((at, to, frame));
        }
    }
}

/// One endpoint of the pool's network: the transport driver plus this
/// runtime's wire and clock for it. Node ports live inside the node's
/// [`NodeState`] (driven by whichever worker holds the activation); the
/// engine thread owns its own. On the clean path only the driver's
/// logical bookkeeping (counters, stamps) is used and messages are
/// posted `Plain`.
struct Port {
    d: Driver,
    wire: PoolWire,
    fault_mode: bool,
    start: Instant,
}

impl Port {
    /// Milliseconds since the run started — the transport clock.
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn send_logical(&mut self, m: Msg) {
        if self.fault_mode {
            self.d.send(m, self.now_ms(), &mut self.wire);
        } else {
            let stamp = self.d.note_send(&m);
            self.wire.post(m.to, TMsg::Plain(m, stamp));
        }
    }

    /// Take one recovery frame off the wire; appends the logical
    /// messages now deliverable to `out` in order, each with its causal
    /// stamp.
    fn on_frame(&mut self, frame: Frame, out: &mut Vec<Stamped>) {
        self.d.on_frame(frame, &mut self.wire, out);
    }

    /// Send the cumulative acks this endpoint owes. Called before the
    /// endpoint stops delivering (the end of an activation; at the
    /// engine, every frame): acks free the senders' credits, so an owed
    /// ack held while the node is parked could stall a window for good.
    fn flush_acks(&mut self) {
        self.d.flush_acks(&mut self.wire);
    }

    /// Fault-mode transport maintenance: release delayed frames whose
    /// time has come and retransmit on links idle past the plan's
    /// `retransmit_after` horizon (milliseconds here).
    fn maintain(&mut self) -> Result<(), RuntimeError> {
        self.wire.flush_delayed();
        self.d
            .retransmit(self.now_ms(), false, &mut self.wire)
            .map(|_| ())
    }
}

/// One node's state: its process, its port, and per-run bookkeeping.
/// Behind a mutex so consecutive activations on different workers hand
/// the state off with a proper synchronization edge (the scheduled bit
/// already makes the lock uncontended).
struct NodeState {
    process: Process,
    t: Port,
    /// Logical messages processed (budget accounting).
    processed: u64,
    /// Reusable output buffer for `Process::handle`.
    scratch: Vec<Msg>,
    /// The node hit a fatal condition (crash with recovery disabled,
    /// retransmission budget exhausted); its traffic is discarded from
    /// here on (the `Fatal` frame it sent aborts the run).
    fatal: bool,
}

impl NodeState {
    /// Report a fatal condition to the engine and stop the node.
    fn fail(&mut self, e: RuntimeError) {
        let _ = self.t.wire.engine_tx.send(TMsg::Fatal(e));
        self.fatal = true;
    }

    /// Handle one mailbox frame.
    fn handle_frame(&mut self, frame: TMsg, mb: &Mailbox) {
        match frame {
            TMsg::Plain(msg, stamp) => self.process_msg(msg, stamp, false, mb),
            TMsg::Wire(frame) => {
                let mut delivered = Vec::new();
                self.t.on_frame(frame, &mut delivered);
                let mut left = delivered.len();
                for (msg, stamp) in delivered {
                    if self.fatal {
                        break;
                    }
                    left -= 1;
                    self.process_msg(msg, stamp, left > 0, mb);
                }
            }
            // Fatal frames are addressed to the engine only.
            TMsg::Fatal(_) => {}
        }
    }

    /// Idle-time nudge: give the process its batch-flush / probe-
    /// origination chance when the mailbox has drained without a logical
    /// message (see [`Process::poke`]). Not logged: poke output is
    /// protocol state, which crash recovery deliberately rebuilds from
    /// fresh waves rather than replay.
    fn poke(&mut self, mb: &Mailbox) {
        let mailbox_empty = no_logical(&mb.q.lock().unwrap());
        let pressure = self.t.d.under_pressure();
        if mailbox_empty || pressure {
            self.t.d.note_flush();
        }
        let mut ctx = Ctx {
            out: &mut self.scratch,
            stats: &mut self.t.d.stats,
            mailbox_empty,
            pressure,
            tracer: self.t.d.tracer.as_mut(),
        };
        self.process.poke(&mut ctx);
        for m in self.scratch.drain(..) {
            self.t.send_logical(m);
        }
    }

    /// Handle one delivered logical message, then take the crash the
    /// fault plan may have scheduled right after it. `more` says that the
    /// frame which delivered it released further messages, still to come.
    fn process_msg(&mut self, msg: Msg, stamp: Option<Box<Stamp>>, more: bool, mb: &Mailbox) {
        let mailbox_empty = !more && no_logical(&mb.q.lock().unwrap());
        let pressure = self.t.d.under_pressure();
        if self.t.fault_mode {
            self.t.d.log(&msg, mailbox_empty || pressure);
        }
        self.t.d.note_deliver(&msg, stamp.as_deref());
        let mut ctx = Ctx {
            out: &mut self.scratch,
            stats: &mut self.t.d.stats,
            mailbox_empty,
            pressure,
            tracer: self.t.d.tracer.as_mut(),
        };
        self.process.handle(msg, &mut ctx);
        self.processed += 1;
        for m in self.scratch.drain(..) {
            self.t.send_logical(m);
        }
        if self.t.fault_mode {
            match self.t.d.maybe_crash(&mut self.process) {
                Ok(reborn) => reborn.into_iter().for_each(|m| self.t.send_logical(m)),
                Err(e) => self.fail(e),
            }
        }
    }

    /// Fault-mode transport maintenance; reports a fatal retransmission
    /// exhaustion to the engine.
    fn maintain(&mut self) {
        if let Err(e) = self.t.maintain() {
            self.fail(e);
        }
    }
}

/// One pool worker: runs activations from its deque (stealing when
/// empty) and, in fault mode, ticks its assigned nodes.
struct PoolWorker {
    id: usize,
    workers: usize,
    fault_mode: bool,
    nodes: Arc<Vec<Mutex<NodeState>>>,
    net: Arc<PoolNet>,
}

impl PoolWorker {
    fn run(self) {
        let mut next_tick = Instant::now() + TICK;
        loop {
            let tick_in = if self.fault_mode {
                let now = Instant::now();
                if now >= next_tick {
                    self.tick_nodes();
                    next_tick = now + TICK;
                }
                Some(next_tick.saturating_duration_since(Instant::now()))
            } else {
                None
            };
            match self.net.next_task(self.id, tick_in) {
                Task::Stop => break,
                Task::Tick => continue,
                Task::Run(node) => self.activate(node as usize),
            }
        }
    }

    /// One activation: drain the node's mailbox (up to the budget),
    /// clear the scheduled bit, re-check. The scheduled bit guarantees
    /// no other worker is inside this node concurrently, so the state
    /// lock is uncontended.
    fn activate(&self, id: usize) {
        let mb = &self.net.mailboxes[id];
        {
            let mut st = self.nodes[id].lock().unwrap();
            st.t.wire.hint = Some(self.id);
            // Cooperative cancellation check at the activation boundary:
            // a tripped budget quiesces the node now, without waiting
            // for the engine's cancel wave to traverse a deep mailbox.
            if self.net.governor.tripped().is_some() {
                st.process.cancel_local();
            }
            let mut handled = 0usize;
            loop {
                let Some(frame) = mb.q.lock().unwrap().pop_front() else {
                    break;
                };
                self.net.governor.note_dequeue(frame_bytes(&frame));
                // A fatal node discards its traffic (its Fatal frame is
                // already aborting the run at the engine).
                if !st.fatal {
                    st.handle_frame(frame, mb);
                }
                handled += 1;
                if self.fault_mode && !st.fatal && handled.is_multiple_of(MAINTENANCE_EVERY) {
                    st.maintain();
                }
                if handled >= ACTIVATION_BUDGET {
                    break;
                }
            }
            if self.fault_mode && !st.fatal {
                st.t.flush_acks();
                st.maintain();
            }
        }
        self.net.reschedule_if_nonempty(id, Some(self.id));
    }

    /// Fault-mode tick over this worker's assigned nodes (round-robin by
    /// id): release delayed frames, retransmit, and give the process its
    /// idle poke. Claims the scheduled bit so a tick never overlaps an
    /// activation; nodes that are active or queued are skipped — their
    /// activation runs the same maintenance.
    fn tick_nodes(&self) {
        for id in (self.id..self.nodes.len()).step_by(self.workers) {
            let mb = &self.net.mailboxes[id];
            if mb.scheduled.swap(true, Ordering::AcqRel) {
                continue;
            }
            {
                let mut st = self.nodes[id].lock().unwrap();
                if !st.fatal {
                    st.t.wire.hint = Some(self.id);
                    st.poke(mb);
                    st.maintain();
                }
            }
            self.net.reschedule_if_nonempty(id, Some(self.id));
        }
    }
}

/// The threaded runtime: a worker pool with work-stealing deques.
#[derive(Clone, Debug)]
pub struct ThreadRuntime {
    /// Wall-clock budget for the whole evaluation. The deadline enforced
    /// is the smaller of this and `budget.deadline`.
    pub timeout: Duration,
    /// Fault-injection plan; `None` runs the pristine 1986 model with
    /// zero transport overhead. Delay and retransmission horizons are
    /// interpreted as milliseconds here.
    pub fault_plan: Option<FaultPlan>,
    /// Recover crashed nodes by log replay. With recovery disabled a
    /// scheduled crash aborts the run with [`RuntimeError::LinkDown`].
    pub recovery: bool,
    /// Record a clock-stamped event trace ([`SimOutcome::events`]).
    /// Off by default: the untraced path carries `None` stamps and
    /// skips every recording branch — zero measurable overhead (E12).
    pub trace: bool,
    /// Worker-pool size; `0` sizes it to `available_parallelism` (and
    /// never larger than the node count — nodes are the unit of
    /// parallelism).
    pub workers: usize,
    /// Resource budget: deadline, logical-message and memory high-water
    /// limits, and the per-link credit window (mailbox bound). The step
    /// guard is the simulator's; the pool does not count steps.
    pub budget: QueryBudget,
    /// Cooperative cancellation handle; trip it from any thread to run
    /// a cancel drain wave and return [`RuntimeError::Cancelled`].
    pub cancel: CancelToken,
}

impl Default for ThreadRuntime {
    fn default() -> Self {
        ThreadRuntime {
            timeout: Duration::from_secs(60),
            fault_plan: None,
            recovery: true,
            trace: false,
            workers: 0,
            budget: QueryBudget::default(),
            cancel: CancelToken::default(),
        }
    }
}

impl ThreadRuntime {
    /// Run the network to completion on the worker pool.
    pub fn run(&self, network: Network) -> Result<SimOutcome, RuntimeError> {
        self.run_with_requests(network, std::iter::once(Tuple::unit()))
    }

    /// The effective pool size for a graph of `n` nodes.
    fn pool_size(&self, n: usize) -> usize {
        let configured = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        } else {
            self.workers
        };
        configured.min(n).max(1)
    }

    /// [`ThreadRuntime::run`] with explicit top-level tuple requests.
    pub fn run_with_requests(
        &self,
        mut network: Network,
        requests: impl IntoIterator<Item = Tuple>,
    ) -> Result<SimOutcome, RuntimeError> {
        let n = network.processes.len();
        let fault_mode = self.fault_plan.is_some();
        let start = Instant::now();
        let timeout = self.timeout.min(self.budget.deadline);
        let workers = self.pool_size(n);

        let governor = Arc::new(Governor::new(self.budget.clone(), self.cancel.clone()));
        let cfg = Arc::new(Config {
            // Never consulted on the clean path, which frames nothing.
            plan: self.fault_plan.clone().unwrap_or_default(),
            recovery: self.recovery,
            // Credits ride the seq/ack stream, so without a transport
            // the mailbox bound caps nothing (`mailbox_high_water` is
            // tracked either way).
            window: (self.budget.mailbox_bound.filter(|_| fault_mode)).map(|b| b as u64),
            intra: network.intra_pairs(),
            n_nodes: n,
            governor: Arc::clone(&governor),
        });
        let mut sink = EngineSink::new(network.answer_arity);
        let initial = query_messages(network.root, requests);
        let shard_of = std::mem::take(&mut network.shard_of);

        let net = Arc::new(PoolNet::new(n, workers, Arc::clone(&governor)));
        let (engine_tx, engine_rx) = channel::<TMsg>();

        // One shared lock-free ring for every actor's events; the trace
        // is collected from it after the workers stop.
        let ring: Option<Arc<Ring<Event>>> = if self.trace {
            Some(Arc::new(Ring::with_capacity(TRACE_RING_CAPACITY)))
        } else {
            None
        };
        let port = |me: Endpoint, pristine: Option<Process>| {
            let tracer = tracer_for(ring.as_ref(), me.node().unwrap_or(n), n);
            Port {
                d: Driver::new(me, Arc::clone(&cfg), tracer, pristine),
                wire: PoolWire {
                    net: Arc::clone(&net),
                    engine_tx: engine_tx.clone(),
                    hint: None,
                    delayed: Vec::new(),
                },
                fault_mode,
                start,
            }
        };

        let nodes: Arc<Vec<Mutex<NodeState>>> = Arc::new(
            (network.processes.into_iter().enumerate())
                .map(|(id, process)| {
                    let pristine = fault_mode.then(|| process.clone());
                    Mutex::new(NodeState {
                        t: port(Endpoint::Node(id), pristine),
                        process,
                        processed: 0,
                        scratch: Vec::new(),
                        fatal: false,
                    })
                })
                .collect(),
        );

        // Spawn the pool. Each worker signals `done_tx` on exit — the
        // condvar/channel join below replaces any sleep-polling.
        let (done_tx, done_rx) = channel::<usize>();
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let worker = PoolWorker {
                id: w,
                workers,
                fault_mode,
                nodes: Arc::clone(&nodes),
                net: Arc::clone(&net),
            };
            let tx = done_tx.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("mp-worker-{w}"))
                .spawn(move || {
                    worker.run();
                    let _ = tx.send(w);
                });
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    net.shutdown();
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(RuntimeError::WorkerSpawn {
                        node: w,
                        reason: e.to_string(),
                    });
                }
            }
        }

        // The engine's own port: injects the query and, in fault mode,
        // acks/retransmits on the links to and from the root node.
        let mut t = port(Endpoint::Engine, None);
        for m in initial {
            t.send_logical(m);
        }

        // Collect until the final End (or timeout / budget trip).
        let deadline = start + timeout;
        let mut delivered: Vec<Stamped> = Vec::new();
        let mut tripped: Option<Trip> = None;
        let mut result: Result<(), RuntimeError> = loop {
            let now = Instant::now();
            if now >= deadline {
                break Err(RuntimeError::Timeout {
                    budget_millis: timeout.as_millis() as u64,
                    elapsed_millis: start.elapsed().as_millis() as u64,
                    partial_answers: sink.answers.len(),
                    pending: net.pending(),
                    // Filled in after the shutdown drain.
                    unjoined: Vec::new(),
                });
            }
            governor.sample_arena();
            // First trip: run one cancel drain wave. Nodes stop deriving,
            // forward the wave down the spanning tree, and keep acking
            // frames; the loop then waits for the mailboxes to drain
            // instead of for `End`.
            if let Some(wave) = cancel_wave_on_trip(&mut tripped, &governor, n) {
                t.d.stats.cancel_waves += 1;
                for m in wave {
                    t.send_logical(m);
                }
            }
            let wait = if fault_mode || tripped.is_some() {
                TICK.min(deadline - now)
            } else {
                // Short poll so an explicit cancel (or a byte budget
                // crossed by node-side allocation) is noticed promptly
                // even while the engine sits idle between answers.
                Duration::from_millis(25).min(deadline - now)
            };
            match engine_rx.recv_timeout(wait) {
                Ok(frame) => {
                    match frame {
                        TMsg::Plain(m, s) => delivered.push((m, s)),
                        TMsg::Wire(frame) => {
                            t.on_frame(frame, &mut delivered);
                            t.flush_acks();
                        }
                        TMsg::Fatal(e) => break Err(e),
                    }
                    let mut ended = Ok(false);
                    for (m, s) in delivered.drain(..) {
                        t.d.note_deliver(&m, s.as_deref());
                        ended = sink.accept(m);
                        if !matches!(ended, Ok(false)) {
                            break;
                        }
                    }
                    match ended {
                        Ok(true) => break Ok(()),
                        Err(e) => break Err(e),
                        Ok(false) => {}
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if tripped.is_some() && net.pending().is_empty() {
                        break Ok(());
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break Err(RuntimeError::NoTermination),
            }
            if fault_mode {
                if let Err(e) = t.maintain() {
                    break Err(e);
                }
            }
        };

        // Shut the pool down: signal, then block on the workers' done
        // channel with a bounded grace period — a stuck worker is
        // detached and reported instead of hanging the caller past its
        // own deadline (and instead of a sleep-polling loop).
        net.shutdown();
        let grace_deadline = Instant::now() + SHUTDOWN_GRACE;
        let mut done = vec![false; workers];
        let mut done_count = 0usize;
        while done_count < workers {
            let now = Instant::now();
            if now >= grace_deadline {
                break;
            }
            match done_rx.recv_timeout(grace_deadline - now) {
                Ok(w) => {
                    if !done[w] {
                        done[w] = true;
                        done_count += 1;
                    }
                }
                Err(_) => break,
            }
        }
        let mut unjoined: Vec<usize> = Vec::new();
        for (w, h) in handles.into_iter().enumerate() {
            if done[w] {
                let _ = h.join();
            } else {
                // Dropping the handle detaches the stuck worker.
                unjoined.push(w);
                drop(h);
            }
        }

        // Fold the per-node and scheduler counters into the engine's.
        // `try_lock`: a detached worker may still hold one node's state;
        // its counters are lost, exactly as a stuck thread's were.
        let mut stats = t.d.stats;
        for node in nodes.iter() {
            if let Ok(st) = node.try_lock() {
                stats.merge(&st.t.d.stats);
            }
        }
        net.merge_sched_stats(&mut stats);
        governor.sample_arena();
        stats.mem_high_water_bytes = stats.mem_high_water_bytes.max(governor.mem_high_water());

        if let Err(RuntimeError::Timeout { unjoined: u, .. }) = &mut result {
            *u = unjoined;
        }
        // A tripped run surfaces the typed governance error, whatever
        // the drain ended with (a final `End` racing the wave, a clean
        // quiescence, or a deadline crossed mid-drain); genuine fatal
        // errors from the drain still win.
        if let Some(tr) = tripped {
            if matches!(result, Ok(()) | Err(RuntimeError::Timeout { .. })) {
                let accounting = node_usage(&shard_of, n, |id| {
                    let processed = nodes[id]
                        .try_lock()
                        .map(|st| st.processed)
                        .unwrap_or_default();
                    let q = net.mailboxes[id].q.lock().unwrap();
                    (processed, q.len(), q.iter().map(frame_bytes).sum())
                });
                result = Err(budget_error(
                    tr,
                    &governor,
                    sink.answers.iter().cloned().collect(),
                    accounting,
                    stats.cancel_waves,
                ));
            }
        }
        let events = ring.map(|r| mp_trace::collect((n + 1) as u32, &r));
        result.map(|()| SimOutcome {
            answers: sink.answers,
            stats,
            events,
            engine_ends: sink.ends,
            post_end_answers: sink.post_end_answers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Payload;
    use crate::runtime::tests::cyclic_tc;

    /// A BFST leaf of the cyclic component, as a pool node over a
    /// zero-rate transport: its state, the fabric, its id and its BFST
    /// parent.
    fn probed_leaf() -> (NodeState, Arc<PoolNet>, usize, usize) {
        let network = cyclic_tc();
        let n = network.processes.len();
        let (id, parent) = (network.processes.iter().enumerate())
            .find_map(|(id, p)| {
                let t = p.common.term.as_ref()?;
                (!t.leader && t.bfst_children.is_empty()).then(|| (id, t.bfst_parent.unwrap()))
            })
            .expect("the cycle has a non-leader leaf");
        let governor = Arc::new(Governor::new(QueryBudget::default(), CancelToken::new()));
        let cfg = Arc::new(Config {
            plan: FaultPlan::default(),
            recovery: true,
            window: None,
            intra: network.intra_pairs(),
            n_nodes: n,
            governor: Arc::clone(&governor),
        });
        let net = Arc::new(PoolNet::new(n, 1, governor));
        let process = network.processes[id].clone();
        let state = NodeState {
            t: Port {
                d: Driver::new(Endpoint::Node(id), cfg, None, Some(process.clone())),
                wire: PoolWire {
                    net: Arc::clone(&net),
                    engine_tx: channel().0,
                    hint: None,
                    delayed: Vec::new(),
                },
                fault_mode: true,
                start: Instant::now(),
            },
            process,
            processed: 0,
            scratch: Vec::new(),
            fatal: false,
        };
        (state, net, id, parent)
    }

    fn probe(parent: usize, id: usize, seq: u64, wave: u64) -> TMsg {
        TMsg::Wire(Frame::Data {
            seq,
            msg: Msg {
                from: Endpoint::Node(parent),
                to: Endpoint::Node(id),
                payload: Payload::EndRequest { wave, epoch: 0 },
            },
            corrupted: false,
            stamp: None,
        })
    }

    /// Handle every queued frame, as an activation does.
    fn drain(st: &mut NodeState, net: &PoolNet, id: usize) {
        let mb = &net.mailboxes[id];
        loop {
            let Some(frame) = mb.q.lock().unwrap().pop_front() else {
                break;
            };
            st.handle_frame(frame, mb);
        }
    }

    fn idleness(st: &NodeState) -> u32 {
        st.process.common.term.as_ref().unwrap().idleness
    }

    /// An ack queued behind a probe is no logical message: the leaf
    /// counts the probe as idle instead of restarting its count.
    #[test]
    fn an_ack_queued_behind_a_probe_leaves_the_mailbox_empty() {
        let (mut st, net, id, parent) = probed_leaf();
        let mut q = net.mailboxes[id].q.lock().unwrap();
        q.push_back(probe(parent, id, 0, 1));
        q.push_back(TMsg::Wire(Frame::Ack {
            peer: Endpoint::Node(parent),
            upto: 0,
        }));
        drop(q);
        drain(&mut st, &net, id);
        assert_eq!(idleness(&st), 1);
    }

    /// A frame that releases several reordered messages leaves the
    /// mailbox non-empty until its last one.
    #[test]
    fn a_reordered_batch_is_not_empty_until_its_last_message() {
        let (mut st, net, id, parent) = probed_leaf();
        let mut q = net.mailboxes[id].q.lock().unwrap();
        q.push_back(probe(parent, id, 1, 2)); // waits in the reorder buffer
        q.push_back(probe(parent, id, 0, 1)); // releases both
        drop(q);
        drain(&mut st, &net, id);
        assert_eq!(idleness(&st), 1, "the first probe saw the second pending");
    }
}
