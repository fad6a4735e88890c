//! Runtimes executing the process network.

pub mod explore;
pub mod govern;
mod sim;
mod thread;
mod transport;

pub use explore::{explore, ExploreConfig, ExploreReport, ScheduleViolation};
pub use govern::{CancelToken, Governor, NodeUsage, QueryBudget, Trip};
pub use sim::{Schedule, SimOutcome, SimRuntime};
pub use thread::ThreadRuntime;

use crate::msg::{Endpoint, Msg, Payload};
use mp_rulegoal::NodeId;
use mp_storage::Tuple;
use mp_trace::{Event, MsgKind, Ring, Stamp, Tracer};
use std::sync::Arc;

/// Ring capacity for recorded events (per run). Large enough for every
/// canonical workload; overruns are counted, not silently lost, and a
/// lossy trace is rejected by the checker.
pub(crate) const TRACE_RING_CAPACITY: usize = 1 << 18;

/// Map an endpoint to its trace actor id: node `i` -> `i`, the engine ->
/// `n_nodes` (the last actor).
pub(crate) fn trace_actor(ep: Endpoint, n_nodes: usize) -> u32 {
    match ep.node() {
        Some(id) => id as u32,
        None => n_nodes as u32,
    }
}

/// The event recorder for `actor` (node `i` is actor `i`, the engine
/// actor `n_nodes`) over the run's shared ring; `None` when tracing is
/// off.
pub(crate) fn tracer_for(
    ring: Option<&Arc<Ring<Event>>>,
    actor: usize,
    n_nodes: usize,
) -> Option<Tracer> {
    ring.map(|r| Tracer::new(actor as u32, (n_nodes + 1) as u32, Arc::clone(r)))
}

/// Record a logical send on the sender's tracer (plus the batch flush it
/// implies when the frame packages several logical items), with its
/// bindings when it carries them; returns the stamp that travels with
/// the message to its delivery site.
pub(crate) fn trace_send(tracer: &mut Tracer, msg: &Msg, n_nodes: usize) -> Stamp {
    let (kind, items, wave, epoch) = describe_payload(&msg.payload);
    if items > 1 {
        tracer.on_flush(items);
    }
    let bindings = match &msg.payload {
        Payload::TupleRequests(p) | Payload::EndTupleRequests(p) => p.to_vec(),
        _ => Vec::new(),
    };
    let to = trace_actor(msg.to, n_nodes);
    tracer.on_send(to, kind, items, wave, epoch, bindings)
}

/// Record a logical delivery on the receiver's tracer, pairing it with
/// its send stamp; the engine's tracer also records the final `End`.
pub(crate) fn trace_deliver(tracer: &mut Tracer, msg: &Msg, stamp: Option<&Stamp>, n_nodes: usize) {
    let (kind, items, wave, epoch) = describe_payload(&msg.payload);
    tracer.on_deliver(
        trace_actor(msg.from, n_nodes),
        stamp,
        kind,
        items,
        wave,
        epoch,
    );
    if msg.to == Endpoint::Engine && matches!(msg.payload, Payload::End) {
        tracer.on_end();
    }
}

/// Latch the governor's first trip into `trip`; on that transition
/// return the one cancel wave the engine broadcasts to every node.
/// Cancelled nodes drain their mailboxes without producing more answers
/// (MP310), so a run keeps scheduling to quiescence and then returns the
/// typed error instead of aborting mid-protocol with frames in flight.
pub(crate) fn cancel_wave_on_trip(
    trip: &mut Option<govern::Trip>,
    governor: &govern::Governor,
    n_nodes: usize,
) -> Option<impl Iterator<Item = Msg>> {
    if trip.is_some() {
        return None;
    }
    *trip = governor.tripped();
    trip.map(|_| {
        (0..n_nodes).map(|id| Msg {
            from: Endpoint::Engine,
            to: Endpoint::Node(id),
            payload: Payload::Cancel { wave: 1, epoch: 0 },
        })
    })
}

/// Per-node accounting rows for an aborted run, in node-id order.
/// `row(id)` reports `(messages processed, mailbox depth, queued bytes)`.
pub(crate) fn node_usage(
    shard_of: &[(NodeId, usize)],
    n_nodes: usize,
    row: impl Fn(usize) -> (u64, usize, u64),
) -> Vec<govern::NodeUsage> {
    (0..n_nodes)
        .map(|node| {
            let (messages_processed, mailbox_depth, mem_bytes) = row(node);
            govern::NodeUsage {
                node,
                shard: shard_of.get(node).map_or(0, |&(_, s)| s),
                messages_processed,
                mailbox_depth,
                mem_bytes,
            }
        })
        .collect()
}

/// Build the typed governance error for a tripped run, after the cancel
/// wave drained the network. Shared by the simulator and the pool so
/// both runtimes surface identical error shapes.
pub(crate) fn budget_error(
    t: govern::Trip,
    governor: &govern::Governor,
    partial: Vec<mp_storage::Tuple>,
    accounting: Vec<govern::NodeUsage>,
    cancel_waves: u64,
) -> RuntimeError {
    match t {
        govern::Trip::Cancelled => RuntimeError::Cancelled {
            partial,
            accounting,
            cancel_waves,
        },
        govern::Trip::Messages | govern::Trip::Bytes => {
            let (limit, used) = governor.trip_report(t);
            RuntimeError::BudgetExceeded {
                resource: t,
                limit,
                used,
                partial,
                accounting,
                cancel_waves,
            }
        }
    }
}

/// Describe a payload for the trace: `(kind, logical items, wave,
/// epoch)`. Wave/epoch are 0 for non-termination payloads.
pub(crate) fn describe_payload(p: &Payload) -> (MsgKind, u64, u64, u64) {
    match p {
        Payload::RelationRequest => (MsgKind::RelationRequest, 1, 0, 0),
        Payload::TupleRequests(p) => (MsgKind::TupleRequest, p.len() as u64, 0, 0),
        Payload::EndOfRequests => (MsgKind::EndOfRequests, 1, 0, 0),
        Payload::Answers(p) => (MsgKind::Answer, p.len() as u64, 0, 0),
        Payload::EndTupleRequests(p) => (MsgKind::EndTupleRequest, p.len() as u64, 0, 0),
        Payload::End => (MsgKind::End, 1, 0, 0),
        Payload::EndRequest { wave, epoch } => (MsgKind::EndRequest, 1, *wave, *epoch),
        Payload::EndNegative { wave, epoch } => (MsgKind::EndNegative, 1, *wave, *epoch),
        Payload::EndConfirmed { wave, epoch, .. } => (MsgKind::EndConfirmed, 1, *wave, *epoch),
        Payload::SccFinished => (MsgKind::SccFinished, 1, 0, 0),
        Payload::Reborn { epoch } => (MsgKind::Reborn, 1, 0, *epoch),
        Payload::Cancel { wave, epoch } => (MsgKind::Cancel, 1, *wave, *epoch),
        Payload::Shutdown => (MsgKind::Shutdown, 1, 0, 0),
    }
}

/// Errors raised while running a network. Every variant is a graceful
/// failure: no runtime code path panics on a received message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The step budget was exhausted (runaway computation guard).
    Diverged {
        /// Steps executed.
        steps: u64,
    },
    /// The network went quiescent without delivering the final `End` —
    /// a termination-protocol failure (should be impossible; kept as a
    /// first-class error so tests can assert it never happens).
    NoTermination,
    /// The wall-clock deadline passed before the final `End` arrived, on
    /// either runtime (the simulator samples the clock every 1024
    /// steps). Carries enough of the abort-time state to diagnose the
    /// hang.
    Timeout {
        /// The configured timeout in milliseconds.
        budget_millis: u64,
        /// Wall-clock time actually elapsed at abort, in milliseconds.
        elapsed_millis: u64,
        /// Answers collected before the abort.
        partial_answers: usize,
        /// Per-node pending mailbox depths at abort: `(node, depth)`,
        /// nonzero depths only.
        pending: Vec<(usize, usize)>,
        /// Nodes whose worker threads failed to stop within the drain
        /// grace period (empty when shutdown was clean, and always on
        /// the simulator).
        unjoined: Vec<usize>,
    },
    /// An answer reaching the engine did not match the goal's arity —
    /// a corrupted or misrouted frame survived to the top.
    AnswerArity {
        /// The goal arity.
        expected: usize,
        /// The arity received.
        got: usize,
        /// Answers collected before the bad frame.
        partial_answers: usize,
    },
    /// The engine received a message kind it has no business receiving.
    UnexpectedEngineMessage {
        /// The payload's kind name.
        kind: &'static str,
    },
    /// The reliable transport gave up on a link: a message stayed
    /// unacked through the retransmission budget (only reachable at
    /// extreme fault rates, or with recovery disabled under faults).
    RetransmitExhausted {
        /// Sending node (`usize::MAX` = the engine).
        from: usize,
        /// Receiving node (`usize::MAX` = the engine).
        to: usize,
        /// Retransmission rounds attempted.
        retries: u32,
    },
    /// A node crashed (per the fault plan) with recovery disabled.
    LinkDown {
        /// The crashed node.
        node: usize,
    },
    /// The OS refused to spawn a worker thread (resource exhaustion).
    /// Surfaced as a typed error instead of the `std::thread::spawn`
    /// panic so a huge graph degrades gracefully.
    WorkerSpawn {
        /// The node whose worker could not be started.
        node: usize,
        /// The OS error text.
        reason: String,
    },
    /// A [`QueryBudget`] limit (logical messages or memory high-water)
    /// was crossed: the runtime ran a cancel drain wave and stopped
    /// cleanly, keeping the answers derived so far.
    BudgetExceeded {
        /// Which limit tripped.
        resource: Trip,
        /// The configured limit (messages, or bytes).
        limit: u64,
        /// Usage observed when the trip was reported.
        used: u64,
        /// Answers collected before the abort, in arrival order.
        partial: Vec<Tuple>,
        /// Per-node resource accounting at abort, in node-id order.
        accounting: Vec<NodeUsage>,
        /// Cancel waves run while draining (≥ 1).
        cancel_waves: u64,
    },
    /// The evaluation was cancelled through the engine's
    /// [`CancelToken`]: a cancel drain wave ran and the runtime stopped
    /// cleanly, keeping the answers derived so far.
    Cancelled {
        /// Answers collected before the cancel, in arrival order.
        partial: Vec<Tuple>,
        /// Per-node resource accounting at abort, in node-id order.
        accounting: Vec<NodeUsage>,
        /// Cancel waves run while draining (≥ 1).
        cancel_waves: u64,
    },
}

/// Render the busiest rows of a per-node accounting vector (bounded, so
/// error strings stay readable on large graphs).
fn fmt_accounting(f: &mut std::fmt::Formatter<'_>, accounting: &[NodeUsage]) -> std::fmt::Result {
    if accounting.is_empty() {
        return Ok(());
    }
    let mut rows: Vec<&NodeUsage> = accounting.iter().collect();
    rows.sort_by_key(|u| std::cmp::Reverse(u.messages_processed));
    write!(f, "; busiest nodes:")?;
    for u in rows.iter().take(4) {
        write!(
            f,
            " #{}={}msg/{}q/{}B",
            u.node, u.messages_processed, u.mailbox_depth, u.mem_bytes
        )?;
    }
    Ok(())
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Diverged { steps } => {
                write!(f, "evaluation exceeded {steps} steps")
            }
            RuntimeError::NoTermination => write!(
                f,
                "network quiescent without end message: termination protocol failure"
            ),
            RuntimeError::Timeout {
                budget_millis,
                elapsed_millis,
                partial_answers,
                pending,
                unjoined,
            } => {
                write!(
                    f,
                    "evaluation timed out after {elapsed_millis} ms \
                     (budget {budget_millis} ms); {partial_answers} partial answers"
                )?;
                if !pending.is_empty() {
                    write!(f, "; pending mailboxes:")?;
                    for (node, depth) in pending {
                        write!(f, " #{node}={depth}")?;
                    }
                }
                if !unjoined.is_empty() {
                    write!(f, "; workers failed to stop:")?;
                    for node in unjoined {
                        write!(f, " #{node}")?;
                    }
                }
                Ok(())
            }
            RuntimeError::AnswerArity {
                expected,
                got,
                partial_answers,
            } => write!(
                f,
                "answer arity mismatch at the engine: expected {expected}, got {got} \
                 ({partial_answers} partial answers)"
            ),
            RuntimeError::UnexpectedEngineMessage { kind } => {
                write!(
                    f,
                    "unexpected message kind `{kind}` delivered to the engine"
                )
            }
            RuntimeError::RetransmitExhausted { from, to, retries } => {
                let show = |e: &usize| {
                    if *e == usize::MAX {
                        "engine".to_string()
                    } else {
                        format!("#{e}")
                    }
                };
                write!(
                    f,
                    "transport gave up on link {} -> {} after {retries} retransmissions",
                    show(from),
                    show(to)
                )
            }
            RuntimeError::LinkDown { node } => {
                write!(f, "node #{node} crashed and recovery is disabled")
            }
            RuntimeError::WorkerSpawn { node, reason } => {
                write!(
                    f,
                    "could not spawn worker thread for node #{node}: {reason}"
                )
            }
            RuntimeError::BudgetExceeded {
                resource,
                limit,
                used,
                partial,
                accounting,
                cancel_waves,
            } => {
                let what = match resource {
                    Trip::Messages => "logical messages",
                    Trip::Bytes => "memory bytes",
                    Trip::Cancelled => "cancelled",
                };
                write!(
                    f,
                    "query budget exceeded ({what}: used {used} of limit {limit}); \
                     {} partial answers kept after {cancel_waves} cancel wave(s)",
                    partial.len()
                )?;
                fmt_accounting(f, accounting)
            }
            RuntimeError::Cancelled {
                partial,
                accounting,
                cancel_waves,
            } => {
                write!(
                    f,
                    "evaluation cancelled; {} partial answers kept after \
                     {cancel_waves} cancel wave(s)",
                    partial.len()
                )?;
                fmt_accounting(f, accounting)
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::node::Network;
    use mp_datalog::parser::parse_program;
    use mp_datalog::Database;
    use mp_storage::tuple;
    use std::time::Duration;

    /// `path(0, Z)` over the cycle 0 → 1 → 2 → 0: one nontrivial strong
    /// component.
    pub(super) fn cyclic_tc() -> Network {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).
             path(X, Z) :- path(X, Y), edge(Y, Z).
             ?- path(0, Z).",
        )
        .unwrap();
        let mut db = Database::new();
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            db.insert("edge", tuple![a, b]).unwrap();
        }
        let engine = Engine::new(program, db);
        let compiled = engine.compile().unwrap();
        Network::compile(&compiled.graph, engine.database())
    }

    /// The budget's guards bind even when the runtime's own `max_steps` /
    /// `timeout` fields are left at their defaults: each runtime enforces
    /// the smaller of the two.
    #[test]
    fn budget_guards_bind_without_the_runtime_fields() {
        let sim = SimRuntime {
            budget: QueryBudget::new().with_max_steps(5),
            ..SimRuntime::default()
        };
        let err = sim.run(&mut cyclic_tc()).unwrap_err();
        assert_eq!(err, RuntimeError::Diverged { steps: 6 });

        let pool = ThreadRuntime {
            budget: QueryBudget::new().with_deadline(Duration::from_nanos(1)),
            ..ThreadRuntime::default()
        };
        let err = pool.run(cyclic_tc()).unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::Timeout {
                    budget_millis: 0,
                    ..
                }
            ),
            "{err}"
        );

        // And the other way round: the fields still bind under a default
        // budget.
        let sim = SimRuntime {
            max_steps: 5,
            ..SimRuntime::default()
        };
        assert_eq!(
            sim.run(&mut cyclic_tc()).unwrap_err(),
            RuntimeError::Diverged { steps: 6 }
        );
    }
}
