//! Ack budget and schedule of the zero-fault recovery transport.
//!
//! With a fault plan attached every frame is sequenced and the receiver
//! acks it cumulatively. With every rate zero the transport must change
//! nothing the protocol can see: the FIFO simulator delivers the same
//! messages in the same order as without it, so the frame count, the
//! probe waves and the seven Thm 4.1 logical counters are pinned here.
//! The acks are cumulative and sent once per link per delivery round.
//!
//! The first test runs the engine as it is: each arc's buffer ships as
//! one frame at the end of its node's turn, so the query's 9,282 logical
//! messages travel in about a hundred frames, and acks are held under a
//! budget per logical item. The second runs the same network with one
//! item per frame, the schedule the transport was first pinned on, and
//! holds acks under a budget per data frame. Both print their ratio
//! (`acks/item: …`, `acks/frame: …`); run
//! `cargo test --release --test transport_budget -- --nocapture` to see
//! them.
//!
//! Acks are what free a sender's credits, so the worker pool must never
//! hold an owed ack while a node is parked: the last test runs the
//! query there, on a smaller graph, with a credit window of two frames
//! per link.

use mp_baselines::{Evaluator, SemiNaive};
use mp_engine::node::{Network, ShardPlan};
use mp_engine::runtime::SimRuntime;
use mp_engine::{Engine, FaultPlan, LogicalCounters, QueryBudget, RuntimeKind, Schedule, Stats};
use mp_workloads::{scenarios, Workload};
use std::time::Duration;

/// The seven logical counters of the query, whatever the framing.
const LOGICAL: LogicalCounters = LogicalCounters {
    logical_tuple_requests: 408,
    logical_answers: 8_422,
    logical_end_tuple_requests: 405,
    derived_tuples: 811,
    stored_tuples: 8_825,
    goal_stored: 800,
    join_probes: 7_214,
};

/// Data frames of the query on the FIFO simulator, frames shipping at
/// turn end (9,282 at one item per frame).
const FRAMES: u64 = 105;
/// Probe waves the termination protocol starts on that schedule (6 at
/// one item per frame: turns end at different points, so the waves do).
const PROBE_WAVES: u64 = 8;
/// Acks per logical item the zero-fault transport may spend. One
/// cumulative ack per link per round reads 0.35 at one item per frame.
const ACKS_PER_ITEM: f64 = 0.02;

/// Data frames and probe waves with one item per frame, as read off the
/// transport that acked every frame on arrival (9,282 acks).
const ONE_ITEM_FRAMES: u64 = 9_282;
const ONE_ITEM_PROBE_WAVES: u64 = 6;
/// Acks per data frame at one item per frame; one ack per delivered
/// frame would be 1.0.
const ACKS_PER_FRAME: f64 = 0.5;

/// The 400-node, 6000-edge graph of `alloc_budget`: `path(0, Z)` fans
/// out over nearly every node, so most links carry long runs.
fn fanout() -> Workload {
    scenarios::tc_random(400, 6000, 7)
}

fn check_schedule(s: &Stats, frames: u64, waves: u64) {
    assert_eq!(s.total_messages(), frames, "data frames");
    assert_eq!(s.probe_waves, waves, "probe waves");
    assert_eq!(s.logical(), LOGICAL, "logical counters");
    assert_eq!(s.retransmits, 0, "nothing is lost, so nothing is resent");
}

#[test]
fn zero_fault_transport_keeps_the_schedule_and_its_ack_budget() {
    let w = fanout();
    let result = Engine::new(w.program, w.db)
        .with_runtime(RuntimeKind::Sim(Schedule::Fifo))
        .with_fault_plan(FaultPlan::default())
        .evaluate()
        .expect("evaluation succeeds");
    let s = &result.stats;
    let per_item = s.acks as f64 / s.logical_messages() as f64;
    println!(
        "acks/item: {per_item:.3} ({} acks, {} logical messages, {} data frames)",
        s.acks,
        s.logical_messages(),
        s.total_messages()
    );
    check_schedule(s, FRAMES, PROBE_WAVES);
    assert!(
        per_item <= ACKS_PER_ITEM,
        "{per_item:.3} acks per logical item exceeds the budget of {ACKS_PER_ITEM}"
    );
}

#[test]
fn one_item_frames_keep_their_schedule_and_ack_budget() {
    let w = fanout();
    let engine = Engine::new(w.program, w.db);
    let graph = engine.compile().expect("the query compiles").graph;
    let mut network = Network::compile_sharded(&graph, engine.database(), &ShardPlan::default());
    network.set_batching(false);
    let out = SimRuntime {
        fault_plan: Some(FaultPlan::default()),
        ..SimRuntime::default()
    }
    .run(&mut network)
    .expect("evaluation succeeds");
    let s = &out.stats;
    let frames = s.total_messages();
    let per_frame = s.acks as f64 / frames as f64;
    println!(
        "acks/frame: {per_frame:.2} ({} acks, {frames} data frames)",
        s.acks
    );
    check_schedule(s, ONE_ITEM_FRAMES, ONE_ITEM_PROBE_WAVES);
    assert!(
        per_frame <= ACKS_PER_FRAME,
        "{per_frame:.2} acks per data frame exceeds the budget of {ACKS_PER_FRAME}"
    );
}

#[test]
fn pool_flushes_owed_acks_under_a_two_frame_window() {
    // A smaller graph of the same shape keeps this quick: with two
    // credits per link the pool trades frames and acks almost one by one.
    let w = scenarios::tc_random(100, 1500, 7);
    let oracle = SemiNaive
        .evaluate(&w.program, &w.db)
        .expect("the oracle evaluates")
        .answers
        .sorted_rows();
    let result = Engine::new(w.program, w.db)
        .with_runtime(RuntimeKind::Threads)
        .with_workers(2)
        .with_fault_plan(FaultPlan::default())
        .with_budget(
            QueryBudget::new()
                .with_mailbox_bound(2)
                .with_deadline(Duration::from_secs(30)),
        )
        .evaluate()
        .expect("a stalled window would time out instead");
    assert_eq!(result.answers.sorted_rows(), oracle);
    assert!(result.stats.credits_stalled > 0, "the window was exercised");
}
