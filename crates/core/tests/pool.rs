//! Worker-pool scheduler facts that are not invariance sweeps. That the
//! pool is observably identical to the simulator at every size, under
//! chaos and across crashes, is checked by the invariance harness
//! (`tests/invariance.rs` at the workspace root, the `pool_*` tests).

use mp_engine::runtime::{RuntimeError, Trip};
use mp_engine::{Engine, EngineError, QueryBudget, RuntimeKind};
use mp_storage::Tuple;
use mp_workloads::{scenarios, Workload};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;

/// Recursive workloads with enough fan-out that several nodes are
/// runnable at once — the regime where stealing actually happens.
fn workloads() -> [Workload; 3] {
    [
        scenarios::tc_cycle(8),
        scenarios::tc_nonlinear_chain(6),
        scenarios::odd_even_chain(8),
    ]
}

fn pool(w: &Workload, workers: usize) -> Engine {
    Engine::new(w.program.clone(), w.db.clone())
        .with_runtime(RuntimeKind::Threads)
        .with_workers(workers)
        .with_budget(QueryBudget::new().with_deadline(Duration::from_secs(30)))
}

/// A single-worker pool serializes everything, so it can never steal;
/// the counters must agree with that.
#[test]
fn single_worker_pool_never_steals() {
    let r = pool(&workloads()[0], 1).evaluate().unwrap();
    assert_eq!(r.stats.sched_steals, 0);
    assert_eq!(r.stats.sched_steal_failures, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Budget trips on the pool are schedule-invariant in what they
    /// claim: whatever the steal order and worker count, a tripped run
    /// surfaces the typed `BudgetExceeded` (right resource, ≥ 1 cancel
    /// wave, accounting for every node, partial answers from the true
    /// fixpoint) — and a run that outraces the trip still ends once.
    #[test]
    fn budget_trips_are_typed_at_any_width(
        workload in 0usize..3,
        workers in 1usize..=6,
        budget in 10u64..80,
    ) {
        let w = &workloads()[workload];
        let sim = Engine::new(w.program.clone(), w.db.clone()).evaluate().unwrap();
        let truth: BTreeSet<Tuple> = sim.answers.iter().cloned().collect();
        let result = pool(w, workers)
            .with_budget(QueryBudget::new().with_max_messages(budget))
            .evaluate();
        let partial: Vec<Tuple> = match result {
            Ok(r) => {
                prop_assert_eq!((r.engine_ends, r.post_end_answers), (1, 0));
                prop_assert_eq!(r.answers.len(), truth.len());
                r.answers.iter().cloned().collect()
            }
            Err(EngineError::Runtime(RuntimeError::BudgetExceeded {
                resource,
                limit,
                used,
                partial,
                accounting,
                cancel_waves,
            })) => {
                prop_assert_eq!(resource, Trip::Messages);
                prop_assert_eq!(limit, budget);
                prop_assert!(used >= limit);
                prop_assert!(cancel_waves >= 1);
                prop_assert_eq!(accounting.len(), sim.graph_nodes);
                partial
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        };
        for t in &partial {
            prop_assert!(truth.contains(t), "answer {} outside the fixpoint", t);
        }
    }
}
