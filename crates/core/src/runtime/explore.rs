//! Bounded exhaustive exploration of message delivery schedules.
//!
//! Thm 3.1 claims the termination protocol declares completion exactly
//! when the computation is done — under any *fair* delivery order (every
//! sent message is eventually delivered; per-node mailboxes stay FIFO).
//! [`SimRuntime`](crate::runtime::SimRuntime)'s seeded random schedule
//! samples that space; this module *enumerates* a principled slice of it
//! by delay-bounded systematic exploration: every schedule reachable from
//! the global-FIFO baseline by at most [`ExploreConfig::delay_budget`]
//! out-of-order deliveries, forking the entire network state at each
//! choice point.
//!
//! Delay bounding is what makes exhaustive search sound here. Branching
//! over *arbitrary* nonempty mailboxes explores unfair schedules — e.g.
//! one that services an endlessly re-probing strong component while a
//! work message starves forever in another node's mailbox — and those
//! livelocks are excluded by the theorem's fairness hypothesis, not
//! violations of it. With a delay budget, every explored path eventually
//! degenerates to pure FIFO and therefore terminates; within the budget,
//! all reorderings (respecting per-node FIFO) are covered.
//!
//! At every quiescent state the explorer asserts the theorem's
//! observable consequences:
//!
//! 1. **termination** — the engine received `End` (no quiescent state
//!    without a completion declaration);
//! 2. **confluence** — the answer set equals the reference schedule's
//!    (delivery order never changes the computed relation);
//! 3. **no late answers** — no `Answer` reaches the engine after `End`
//!    (completion is never declared prematurely).
//!
//! The search is additionally bounded by transition/execution caps;
//! hitting any bound sets [`ExploreReport::truncated`] rather than
//! failing. Intended for the small programs in tests, not benchmarks.

use crate::msg::{Endpoint, Msg};
use crate::node::{Ctx, Network};
use crate::runtime::transport::{query_messages, EngineSink};
use crate::stats::Stats;
use mp_storage::Tuple;
use std::collections::VecDeque;

/// Search bounds for [`explore`].
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Out-of-order deliveries allowed per execution. 0 explores exactly
    /// the global-FIFO schedule; each unit lets one younger message
    /// overtake the queue head once.
    pub delay_budget: u32,
    /// How far into the global queue an overtaking delivery may reach.
    pub window: usize,
    /// Cap on message deliveries across the whole search.
    pub max_transitions: u64,
    /// Cap on completed executions (quiescent states reached).
    pub max_executions: u64,
    /// Per-execution step guard against divergence bugs.
    pub max_depth: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            delay_budget: 3,
            window: 4,
            max_transitions: 500_000,
            max_executions: 50_000,
            max_depth: 100_000,
        }
    }
}

/// What the exploration covered.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Quiescent states reached (distinct complete executions).
    pub executions: u64,
    /// Message deliveries performed across all branches.
    pub transitions: u64,
    /// True when a bound in [`ExploreConfig`] cut the search short; the
    /// invariants still held on everything explored.
    pub truncated: bool,
    /// The answer set every explored execution agreed on.
    pub answers: Vec<Tuple>,
}

/// A Thm 3.1 violation witnessed on a concrete schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// A quiescent state was reached without the engine seeing `End`.
    NoTermination {
        /// The queue positions chosen at each step on the failing path.
        schedule: Vec<usize>,
    },
    /// Two schedules computed different answer sets.
    AnswerMismatch {
        /// The choice sequence that diverged.
        schedule: Vec<usize>,
        /// Answers on the reference (first explored) schedule.
        expected: Vec<Tuple>,
        /// Answers on this schedule.
        got: Vec<Tuple>,
    },
    /// An answer reached the engine after `End` — completion was declared
    /// prematurely.
    AnswerAfterEnd {
        /// The choice sequence that exposed it.
        schedule: Vec<usize>,
    },
}

impl std::fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleViolation::NoTermination { schedule } => {
                write!(f, "quiescent without End after choices {schedule:?}")
            }
            ScheduleViolation::AnswerMismatch {
                schedule,
                expected,
                got,
            } => write!(
                f,
                "schedule {schedule:?} computed {got:?}, expected {expected:?}"
            ),
            ScheduleViolation::AnswerAfterEnd { schedule } => {
                write!(f, "answer after End on schedule {schedule:?}")
            }
        }
    }
}

impl std::error::Error for ScheduleViolation {}

/// One branch point of the search: a full fork of the network plus the
/// undelivered messages (global send order) and engine-side observations.
#[derive(Clone)]
struct State {
    network: Network,
    /// Undelivered messages in send order. Delivering index 0 is the
    /// FIFO baseline; any other index spends delay budget.
    queue: VecDeque<Msg>,
    sink: EngineSink,
    delays_left: u32,
    /// Queue positions chosen so far (for violation reports).
    schedule: Vec<usize>,
}

impl State {
    /// Queue positions deliverable next: within the window, at most one
    /// per destination node (per-node FIFO — a message may not overtake
    /// an older one bound for the same mailbox), and only position 0 once
    /// the delay budget is spent.
    fn candidates(&self, window: usize) -> Vec<usize> {
        if self.queue.is_empty() {
            return Vec::new();
        }
        if self.delays_left == 0 {
            return vec![0];
        }
        let mut seen_nodes = Vec::new();
        let mut out = Vec::new();
        for (i, m) in self.queue.iter().take(window).enumerate() {
            match m.to {
                Endpoint::Engine => {
                    // Engine deliveries are observations, not activations;
                    // reordering them never changes node behavior.
                    if i == 0 {
                        out.push(0);
                    }
                }
                Endpoint::Node(id) => {
                    if !seen_nodes.contains(&id) {
                        seen_nodes.push(id);
                        out.push(i);
                    }
                }
            }
        }
        if out.is_empty() {
            out.push(0);
        }
        out
    }

    /// Deliver the message at queue position `pos`, observing engine-side
    /// events and enqueuing any output.
    fn deliver(
        &mut self,
        pos: usize,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ScheduleViolation> {
        let msg = self.queue.remove(pos).expect("candidate position exists");
        self.schedule.push(pos);
        match msg.to {
            Endpoint::Engine => {
                self.sink
                    .accept(msg)
                    .expect("nodes send the engine goal-arity answers and ends only");
                if self.sink.post_end_answers > 0 {
                    return Err(ScheduleViolation::AnswerAfterEnd {
                        schedule: self.schedule.clone(),
                    });
                }
            }
            Endpoint::Node(id) => {
                let mailbox_empty = !self.queue.iter().any(|m| m.to == Endpoint::Node(id));
                let mut ctx = Ctx {
                    out,
                    stats,
                    mailbox_empty,
                    pressure: false,
                    tracer: None,
                };
                self.network.processes[id].handle(msg, &mut ctx);
                self.queue.extend(out.drain(..));
            }
        }
        Ok(())
    }
}

/// Exhaustively explore delay-bounded delivery schedules of `network`
/// for the standard top-level query (one unit tuple request), checking
/// the Thm 3.1 invariants at every quiescent state.
pub fn explore(
    network: &Network,
    config: ExploreConfig,
) -> Result<ExploreReport, ScheduleViolation> {
    explore_with_requests(network, std::iter::once(Tuple::unit()), config)
}

/// [`explore`] with explicit top-level tuple requests.
pub fn explore_with_requests(
    network: &Network,
    requests: impl IntoIterator<Item = Tuple>,
    config: ExploreConfig,
) -> Result<ExploreReport, ScheduleViolation> {
    let root_state = State {
        network: network.clone(),
        queue: query_messages(network.root, requests).into(),
        sink: EngineSink::new(network.answer_arity),
        delays_left: config.delay_budget,
        schedule: Vec::new(),
    };

    let mut report = ExploreReport {
        executions: 0,
        transitions: 0,
        truncated: false,
        answers: Vec::new(),
    };
    let mut reference: Option<Vec<Tuple>> = None;
    // Stats are per-delivery instrumentation; behavior never reads them,
    // so one scratch sink serves every branch.
    let mut stats = Stats::default();
    let mut out: Vec<Msg> = Vec::new();

    // Depth-first with successors generated lazily: each frame holds one
    // forked state and a cursor into its candidate list, so live memory
    // is O(path length), not O(explored states).
    struct Frame {
        state: State,
        candidates: Vec<usize>,
        next: usize,
    }
    let root_candidates = root_state.candidates(config.window);
    let mut stack = vec![Frame {
        state: root_state,
        candidates: root_candidates,
        next: 0,
    }];

    'search: while let Some(frame) = stack.last_mut() {
        let Some(&pos) = frame.candidates.get(frame.next) else {
            stack.pop();
            continue;
        };
        frame.next += 1;

        if report.transitions >= config.max_transitions {
            report.truncated = true;
            break;
        }
        report.transitions += 1;

        let mut next = frame.state.clone();
        if pos > 0 {
            next.delays_left -= 1;
        }
        next.deliver(pos, &mut stats, &mut out)?;

        if next.queue.is_empty() {
            // Quiescent: Thm 3.1's observables must hold.
            if next.sink.ends == 0 {
                return Err(ScheduleViolation::NoTermination {
                    schedule: next.schedule,
                });
            }
            let answers = next.sink.answers.sorted_rows();
            match &reference {
                None => {
                    report.answers = answers.clone();
                    reference = Some(answers);
                }
                Some(expected) if *expected != answers => {
                    return Err(ScheduleViolation::AnswerMismatch {
                        schedule: next.schedule,
                        expected: expected.clone(),
                        got: answers,
                    });
                }
                Some(_) => {}
            }
            report.executions += 1;
            if report.executions >= config.max_executions {
                report.truncated = true;
                break 'search;
            }
            continue;
        }

        if next.schedule.len() as u64 >= config.max_depth {
            report.truncated = true;
            continue;
        }
        let candidates = next.candidates(config.window);
        stack.push(Frame {
            state: next,
            candidates,
            next: 0,
        });
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use mp_datalog::parser::parse_program;
    use mp_datalog::Database;
    use mp_storage::tuple;

    fn network_for(src: &str, edges: &[(i64, i64)]) -> Network {
        let program = parse_program(src).unwrap();
        let mut db = Database::new();
        for &(a, b) in edges {
            db.insert("edge", tuple![a, b]).unwrap();
        }
        let engine = Engine::new(program, db);
        let compiled = engine.compile().unwrap();
        Network::compile(&compiled.graph, engine.database())
    }

    #[test]
    fn edb_query_exhaustively_explored() {
        // The smallest network (goal + rule + EDB leaf): the whole
        // delay-bounded space fits comfortably inside the default bounds.
        let network = network_for("g(Z) :- edge(1, Z). ?- g(Z).", &[(1, 2), (1, 3)]);
        let report = explore(&network, ExploreConfig::default()).unwrap();
        assert!(!report.truncated, "space should be exhaustible");
        assert!(report.executions >= 1);
        assert_eq!(report.answers, vec![tuple![2], tuple![3]]);
    }

    #[test]
    fn zero_budget_is_exactly_fifo() {
        let network = network_for("g(Z) :- edge(1, Z). ?- g(Z).", &[(1, 2)]);
        let config = ExploreConfig {
            delay_budget: 0,
            ..ExploreConfig::default()
        };
        let report = explore(&network, config).unwrap();
        assert_eq!(report.executions, 1, "FIFO is a single schedule");
        assert!(!report.truncated);
        assert_eq!(report.answers, vec![tuple![2]]);
    }

    #[test]
    fn nonrecursive_join_all_schedules() {
        let network = network_for(
            "g(X, Z) :- edge(X, Y), edge(Y, Z).
             ?- g(1, Z).",
            &[(1, 2), (2, 3), (2, 4)],
        );
        let report = explore(&network, ExploreConfig::default()).unwrap();
        assert!(report.executions > 1, "must reach many interleavings");
        assert_eq!(report.answers, vec![tuple![3], tuple![4]]);
    }

    #[test]
    fn recursive_chain_all_schedules() {
        let network = network_for(
            "path(X, Y) :- edge(X, Y).
             path(X, Z) :- path(X, Y), edge(Y, Z).
             ?- path(0, Z).",
            &[(0, 1), (1, 2)],
        );
        let config = ExploreConfig {
            delay_budget: 2,
            window: 3,
            max_transitions: 120_000,
            ..ExploreConfig::default()
        };
        let report = explore(&network, config).unwrap();
        assert_eq!(report.answers, vec![tuple![1], tuple![2]]);
        assert!(report.executions > 1);
    }

    #[test]
    fn recursive_cycle_survives_reordering() {
        // A cyclic EDB stresses the probe protocol: answers circulate
        // while probe waves are in flight, and reordered deliveries races
        // the probes against late work.
        let network = network_for(
            "path(X, Y) :- edge(X, Y).
             path(X, Z) :- path(X, Y), edge(Y, Z).
             ?- path(0, Z).",
            &[(0, 1), (1, 0)],
        );
        let config = ExploreConfig {
            delay_budget: 2,
            window: 3,
            ..ExploreConfig::default()
        };
        let report = explore(&network, config).unwrap();
        assert_eq!(report.answers, vec![tuple![0], tuple![1]]);
        assert!(report.executions > 1);
    }

    #[test]
    fn empty_answer_still_terminates_under_all_schedules() {
        let network = network_for(
            "path(X, Y) :- edge(X, Y).
             path(X, Z) :- path(X, Y), edge(Y, Z).
             ?- path(7, Z).",
            &[(0, 1)],
        );
        let config = ExploreConfig {
            delay_budget: 2,
            window: 3,
            ..ExploreConfig::default()
        };
        let report = explore(&network, config).unwrap();
        assert!(report.answers.is_empty());
        assert!(report.executions >= 1);
    }
}
