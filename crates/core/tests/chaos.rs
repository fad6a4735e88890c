//! The recovery transport's failure modes and its determinism.
//!
//! That a *recovered* run is indistinguishable from a clean one — one
//! `End`, the same answers, the same logical counters, under seeded
//! plans, crashes, batching, random schedules and the worker pool — is
//! the invariance harness's business (`tests/invariance.rs` at the
//! workspace root). What is left here is what a fault plan does when
//! recovery cannot or must not succeed: typed errors, prompt aborts,
//! cancellation mid-recovery, and the same faults on every repeat.

use mp_engine::runtime::RuntimeError;
use mp_engine::{Engine, EngineError, FaultPlan, QueryBudget, RuntimeKind};
use mp_storage::Tuple;
use mp_workloads::scenarios;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Saturation keeps every node of the cycle busy, so a scheduled crash
/// always fires.
fn tc_cycle() -> Engine {
    let w = scenarios::tc_cycle(8);
    Engine::new(w.program, w.db)
}

/// With recovery disabled, a crash that fires aborts the run with the
/// typed `LinkDown` error instead of hanging or panicking.
#[test]
fn crash_without_recovery_is_a_typed_error() {
    let r = tc_cycle()
        .with_fault_plan(FaultPlan::default().with_crash(1, 1))
        .with_recovery(false)
        .evaluate();
    match r {
        Err(EngineError::Runtime(RuntimeError::LinkDown { node })) => assert_eq!(node, 1),
        other => panic!("expected LinkDown, got {other:?}"),
    }
}

/// Threaded runtime with recovery off: typed `LinkDown`, and the run
/// aborts promptly instead of hanging until the timeout.
#[test]
fn threaded_crash_without_recovery_aborts_promptly() {
    let started = Instant::now();
    let r = tc_cycle()
        .with_runtime(RuntimeKind::Threads)
        .with_budget(QueryBudget::new().with_deadline(Duration::from_secs(30)))
        .with_fault_plan(
            FaultPlan {
                retransmit_after: 20,
                ..FaultPlan::default()
            }
            .with_crash(1, 1),
        )
        .with_recovery(false)
        .evaluate();
    match r {
        Err(EngineError::Runtime(RuntimeError::LinkDown { node })) => assert_eq!(node, 1),
        other => panic!("expected LinkDown, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(25),
        "abort took the whole timeout budget"
    );
}

/// Extreme drop rate with a tiny retry budget: the transport gives up
/// with the typed `RetransmitExhausted` error — no hang, no panic.
#[test]
fn hopeless_link_exhausts_retransmissions() {
    let plan = FaultPlan {
        drop: 1.0,
        max_retries: 4,
        ..FaultPlan::default()
    };
    match tc_cycle().with_fault_plan(plan).evaluate() {
        Err(EngineError::Runtime(RuntimeError::RetransmitExhausted { retries, .. })) => {
            assert!(retries > 4)
        }
        other => panic!("expected RetransmitExhausted, got {other:?}"),
    }
}

/// The same seeded plan injects the same faults on repeat runs: the
/// chaos adversary is deterministic end to end.
#[test]
fn fault_injection_is_deterministic() {
    let run = || {
        tc_cycle()
            .with_fault_plan(FaultPlan::seeded(99))
            .evaluate()
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert!(a.stats.faults_injected() > 0, "the plan never fired");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.answers.sorted_rows(), b.answers.sorted_rows());
}

/// Chaos × cancellation: a tight message budget trips mid-run while the
/// transport is busy with wire faults AND log-replay crash recovery.
/// Every seed must drain into the typed `BudgetExceeded` error (or
/// finish first under budget) — never hang — with accounting for every
/// node and partial answers drawn from the true fixpoint. Crash seeds
/// also exercise the Cancel-in-the-log replay path: a reborn node
/// re-learns its cancellation.
#[test]
fn chaos_cancel_sweep_32_seeds_drains_mid_recovery() {
    for w in [
        scenarios::tc_chain(6),
        scenarios::tc_cycle(8),
        scenarios::tc_nonlinear_chain(5),
        scenarios::odd_even_chain(5),
        scenarios::p1_chain(8),
    ] {
        let engine = Engine::new(w.program.clone(), w.db.clone());
        let clean = engine.evaluate().unwrap();
        let truth: BTreeSet<Tuple> = clean.answers.iter().cloned().collect();
        let nodes = clean.graph_nodes;
        for seed in 0..32u64 {
            let plan =
                FaultPlan::seeded(seed).with_crash((seed as usize * 7 + 1) % nodes, 1 + seed % 3);
            let started = Instant::now();
            let result = engine
                .clone()
                .with_fault_plan(plan)
                .with_budget(QueryBudget::new().with_max_messages(25))
                .evaluate();
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "{} seed {seed}: cancel drain burned the whole deadline",
                w.name
            );
            let partial: Vec<Tuple> = match result {
                // The whole run fit under the budget.
                Ok(r) => {
                    assert_eq!((r.engine_ends, r.post_end_answers), (1, 0), "{}", w.name);
                    assert_eq!(r.answers.len(), truth.len(), "{} seed {seed}", w.name);
                    r.answers.iter().cloned().collect()
                }
                Err(EngineError::Runtime(RuntimeError::BudgetExceeded {
                    partial,
                    accounting,
                    cancel_waves,
                    ..
                })) => {
                    assert!(cancel_waves >= 1, "{} seed {seed}: no wave ran", w.name);
                    assert_eq!(accounting.len(), nodes, "{} seed {seed}", w.name);
                    partial
                }
                Err(e) => panic!("{} seed {seed}: unexpected error {e}", w.name),
            };
            for t in &partial {
                assert!(
                    truth.contains(t),
                    "{} seed {seed}: answer {t} outside the fixpoint",
                    w.name
                );
            }
        }
    }
}
