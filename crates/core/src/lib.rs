#![warn(missing_docs)]

//! # mp-engine
//!
//! Message-controlled distributed query evaluation — §3 of Van Gelder,
//! "A Message Passing Framework for Logical Query Evaluation" (SIGMOD
//! 1986) — on top of the rule/goal graphs of `mp-rulegoal`.
//!
//! Every node of the rule/goal graph becomes a *process* owning its own
//! temporary relations (no shared memory). Processes exchange the paper's
//! basic message set:
//!
//! * **relation request** — opens a stream, flowing against the arcs;
//! * **tuple request** — one binding for all the class-`d` arguments;
//! * **tuple** (answer) — a derived tuple, flowing with the arcs;
//! * **end** — a stream (or one tuple request) is complete;
//! * the §3.2 **end request / end negative / end confirmed** protocol
//!   messages that detect, asynchronously, that a recursive strong
//!   component has gone idle (Fig 2, Thm 3.1).
//!
//! Two runtimes execute the process network:
//!
//! * [`SimRuntime`](runtime::SimRuntime) — a deterministic single-threaded
//!   simulator with per-node FIFO mailboxes and pluggable scheduling
//!   (global-FIFO or seeded-random), which also counts every message —
//!   the observable the paper's efficiency arguments are about;
//! * [`ThreadRuntime`](runtime::ThreadRuntime) — a fixed-size worker pool
//!   with work-stealing activation deques over per-node mailboxes,
//!   demonstrating the paper's parallelism claim with genuinely no shared
//!   intermediate state.
//!
//! The top-level entry point is [`Engine`].

mod engine;
pub mod fault;
pub mod msg;
pub mod node;
pub mod runtime;
mod stats;
pub mod termination;

pub use engine::{evaluate_str, Compiled, Engine, EngineError, QueryResult, RuntimeKind};
pub use fault::{CrashPoint, FaultPlan};
pub use msg::{Endpoint, Msg, Pack, Payload};
pub use runtime::{CancelToken, QueryBudget, Schedule};
pub use stats::{LogicalCounters, Stats};
