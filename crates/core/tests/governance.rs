//! Resource-governance acceptance suite: query budgets, cooperative
//! cancellation waves, and credit-based backpressure.
//!
//! The contract under test (ISSUE 8 / DESIGN.md "Resource governance"):
//!
//! 1. crossing the message or memory budget returns the **typed**
//!    `BudgetExceeded` error, carrying the partial answers derived so
//!    far plus per-node accounting — identically on the simulator and
//!    the worker pool;
//! 2. an explicit [`CancelToken`] trip returns `Cancelled` with the
//!    same payload, and always drains (never hangs), also mid-chaos;
//! 3. an unlimited budget is observably free: the step guard and the
//!    deadline keep their historical errors, and the governance counters
//!    stay quiet.
//!
//! That a mailbox bound (credit windows on the recovery transport) and a
//! deadline change neither answers nor logical counters is the
//! `mailbox_bound` axis of the invariance harness (`tests/invariance.rs`
//! at the workspace root), which runs everything under a deadline.

use mp_engine::runtime::RuntimeError;
use mp_engine::runtime::Trip;
use mp_engine::{Engine, EngineError, QueryBudget, RuntimeKind, Schedule};
use mp_workloads::scenarios;
use std::time::Duration;

/// Recursive workload with heavy fan-in: transitive closure over a
/// random graph with three edges per node. Enough traffic to trip small
/// budgets mid-run.
fn tc_dense(n: usize) -> Engine {
    let w = scenarios::tc_random(n, 3 * n, 1);
    Engine::new(w.program, w.db)
}

fn runtime_err(e: EngineError) -> RuntimeError {
    match e {
        EngineError::Runtime(r) => r,
        other => panic!("expected a runtime error, got {other}"),
    }
}

/// The budget's step guard still raises `Diverged` and its deadline
/// still raises `Timeout`, as the retired `with_max_steps`/`with_timeout`
/// engine shims did.
#[test]
fn legacy_shims_keep_their_historical_errors() {
    let err = runtime_err(
        tc_dense(8)
            .with_budget(QueryBudget::new().with_max_steps(5))
            .evaluate()
            .unwrap_err(),
    );
    assert!(matches!(err, RuntimeError::Diverged { .. }), "{err}");

    // A zero wall-clock budget on the pool times out before any End.
    let err = runtime_err(
        tc_dense(8)
            .with_runtime(RuntimeKind::Threads)
            .with_budget(QueryBudget::new().with_deadline(Duration::from_nanos(1)))
            .evaluate()
            .unwrap_err(),
    );
    assert!(matches!(err, RuntimeError::Timeout { .. }), "{err}");
}

/// A tripped message budget returns the typed error with partial
/// answers (a subset of the full fixpoint) and full per-node accounting.
#[test]
fn message_budget_trips_with_partial_answers_and_accounting() {
    let full = tc_dense(12).evaluate().unwrap();

    let err = runtime_err(
        tc_dense(12)
            .with_budget(QueryBudget::new().with_max_messages(40))
            .evaluate()
            .unwrap_err(),
    );
    let RuntimeError::BudgetExceeded {
        resource,
        limit,
        used,
        partial,
        accounting,
        cancel_waves,
    } = err
    else {
        panic!("expected BudgetExceeded, got {err}");
    };
    assert_eq!(resource, Trip::Messages);
    assert_eq!(limit, 40);
    assert!(used >= limit, "trip reported below the limit: {used}");
    assert!(cancel_waves >= 1);
    assert!(
        partial.iter().all(|t| full.answers.contains(t)),
        "partial answers must be a subset of the fixpoint"
    );
    assert_eq!(
        accounting.len(),
        full.graph_nodes,
        "accounting carries one row per node"
    );
    assert!(
        accounting.iter().any(|u| u.messages_processed > 0),
        "some node processed work before the trip"
    );
}

/// The same trip on the deterministic FIFO schedule is bit-identical
/// across runs: same partial answers, same accounting, same counters.
#[test]
fn budget_trip_is_deterministic_on_fifo() {
    let run = || {
        runtime_err(
            tc_dense(12)
                .with_runtime(RuntimeKind::Sim(Schedule::Fifo))
                .with_budget(QueryBudget::new().with_max_messages(60))
                .evaluate()
                .unwrap_err(),
        )
    };
    assert_eq!(run(), run(), "FIFO budget trips must be reproducible");
}

/// A memory budget low enough to be crossed by the first injection
/// trips as `Bytes`.
#[test]
fn memory_budget_trips_as_bytes() {
    let err = runtime_err(
        tc_dense(12)
            .with_budget(QueryBudget::new().with_max_bytes(1))
            .evaluate()
            .unwrap_err(),
    );
    let RuntimeError::BudgetExceeded { resource, used, .. } = err else {
        panic!("expected BudgetExceeded, got {err}");
    };
    assert_eq!(resource, Trip::Bytes);
    assert!(used > 1);
}

/// A pre-tripped cancel token returns `Cancelled` immediately — the
/// wave drains the network instead of evaluating it.
#[test]
fn explicit_cancel_returns_cancelled_with_drain() {
    for runtime in [RuntimeKind::Sim(Schedule::Fifo), RuntimeKind::Threads] {
        let engine = tc_dense(12).with_runtime(runtime);
        engine.cancel_token().cancel();
        let err = runtime_err(engine.evaluate().unwrap_err());
        let RuntimeError::Cancelled { cancel_waves, .. } = &err else {
            panic!("expected Cancelled, got {err}");
        };
        assert_eq!(*cancel_waves, 1, "exactly one wave per trip");
    }
}

/// Cancelling from another thread mid-evaluation stops the pool run
/// with the typed error (or finishes first on a fast machine) — it must
/// never hang or panic.
#[test]
fn cross_thread_cancel_stops_the_pool() {
    let engine = tc_dense(48).with_runtime(RuntimeKind::Threads);
    let token = engine.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(2));
        token.cancel();
    });
    match engine.evaluate() {
        Ok(_) => {} // finished before the cancel landed
        Err(e) => {
            let err = runtime_err(e);
            assert!(
                matches!(err, RuntimeError::Cancelled { .. }),
                "expected Cancelled, got {err}"
            );
        }
    }
    canceller.join().unwrap();
}

/// Sim and pool surface the same error *shape* for the same budget:
/// same variant, same resource, accounting for every node. (Message
/// interleaving differs on the pool, so `used` and the partial set may
/// legitimately differ.)
#[test]
fn sim_and_pool_trip_identically_shaped_errors() {
    let budget = QueryBudget::new().with_max_messages(40);
    let sim = runtime_err(
        tc_dense(12)
            .with_budget(budget.clone())
            .evaluate()
            .unwrap_err(),
    );
    let pool = runtime_err(
        tc_dense(12)
            .with_runtime(RuntimeKind::Threads)
            .with_budget(budget)
            .evaluate()
            .unwrap_err(),
    );
    match (&sim, &pool) {
        (
            RuntimeError::BudgetExceeded {
                resource: ra,
                limit: la,
                accounting: aa,
                ..
            },
            RuntimeError::BudgetExceeded {
                resource: rb,
                limit: lb,
                accounting: ab,
                ..
            },
        ) => {
            assert_eq!(ra, rb);
            assert_eq!(la, lb);
            assert_eq!(aa.len(), ab.len(), "both account for every node");
        }
        other => panic!("expected two BudgetExceeded errors, got {other:?}"),
    }
}

/// An unlimited budget is free: no cancel wave, no stalled credit, and
/// memory is metered even without a limit.
#[test]
fn unlimited_budget_is_observably_free() {
    let r = tc_dense(12)
        .with_budget(QueryBudget::default())
        .evaluate()
        .unwrap();
    assert_eq!(r.stats.cancel_waves, 0);
    assert_eq!(r.stats.credits_stalled, 0);
    assert!(
        r.stats.mem_high_water_bytes > 0,
        "memory accounting runs even without a limit"
    );
}

/// The budget counts *logical* messages, so a trip threshold means the
/// same whatever the framing (Thm 4.1 style): a budget the run's frames
/// fit in, but not its items, still trips.
#[test]
fn message_budget_is_batching_invariant() {
    let full = tc_dense(12).evaluate().unwrap().stats;
    let (frames, items) = (full.total_messages(), full.logical_messages());
    assert!(frames < items, "{frames} frames for {items} items");
    let err = runtime_err(
        tc_dense(12)
            .with_budget(QueryBudget::new().with_max_messages(frames))
            .evaluate()
            .unwrap_err(),
    );
    let RuntimeError::BudgetExceeded { resource, used, .. } = err else {
        panic!("expected BudgetExceeded, got {err}");
    };
    assert_eq!(resource, Trip::Messages);
    assert!(used > frames, "tripped at {used} of {frames}");
}
