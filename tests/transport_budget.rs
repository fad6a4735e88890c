//! Ack budget and schedule of the zero-fault recovery transport.
//!
//! With a fault plan attached every logical send becomes a sequenced data
//! frame and the receiver acks it cumulatively. With every rate zero the
//! transport must change nothing the protocol can see: the FIFO
//! simulator delivers the same messages in the same order as before, so
//! the frame count, the probe waves and the seven Thm 4.1 logical
//! counters are pinned here to the values of the one-ack-per-frame
//! transport. The acks themselves are cumulative and sent once per link
//! per delivery round, so they must stay well under one per data frame.
//! The test prints the ratio as `acks/frame: …`; run it with
//! `cargo test --release --test transport_budget -- --nocapture` to see
//! it.
//!
//! Acks are what free a sender's credits, so the worker pool must never
//! hold an owed ack while a node is parked: the second test runs the
//! query there, on a smaller graph, with a credit window of two frames
//! per link.

use mp_baselines::{Evaluator, SemiNaive};
use mp_engine::{Engine, FaultPlan, LogicalCounters, QueryBudget, RuntimeKind, Schedule};
use mp_workloads::scenarios;
use std::time::Duration;

/// Data frames (logical sends) of the query below on the FIFO simulator.
/// This and the two constants after it were read off the transport that
/// acked every frame on arrival (9,282 acks for these 9,282 frames).
const FRAMES: u64 = 9_282;
/// Probe waves the termination protocol starts on that schedule.
const PROBE_WAVES: u64 = 6;
/// The seven logical counters of the query.
const LOGICAL: LogicalCounters = LogicalCounters {
    logical_tuple_requests: 408,
    logical_answers: 8_422,
    logical_end_tuple_requests: 405,
    derived_tuples: 811,
    stored_tuples: 8_825,
    goal_stored: 800,
    join_probes: 7_214,
};

/// Acks per data frame the zero-fault transport may spend; one ack per
/// delivered frame would be 1.0.
const BUDGET: f64 = 0.5;

#[test]
fn zero_fault_transport_keeps_the_schedule_and_its_ack_budget() {
    // The 400-node, 6000-edge graph of `alloc_budget`: `path(0, Z)`
    // fans out over nearly every node, so most links carry long runs.
    let w = scenarios::tc_random(400, 6000, 7);
    let result = Engine::new(w.program, w.db)
        .with_runtime(RuntimeKind::Sim(Schedule::Fifo))
        .with_fault_plan(FaultPlan::default())
        .evaluate()
        .expect("evaluation succeeds");
    let s = &result.stats;
    let frames = s.total_messages();
    let per_frame = s.acks as f64 / frames as f64;
    println!(
        "acks/frame: {per_frame:.2} ({} acks, {frames} data frames)",
        s.acks
    );
    assert_eq!(frames, FRAMES, "data frames");
    assert_eq!(s.probe_waves, PROBE_WAVES, "probe waves");
    assert_eq!(s.logical(), LOGICAL, "logical counters");
    assert_eq!(s.retransmits, 0, "nothing is lost, so nothing is resent");
    assert!(
        per_frame <= BUDGET,
        "{per_frame:.2} acks per data frame exceeds the budget of {BUDGET}"
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
