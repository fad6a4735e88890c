//! The recovery transport is one driver under two runtimes: whatever
//! the wire does, each runtime must deliver the same logical history as
//! the clean path. For three canonical recursive workloads, on the
//! simulator (FIFO) and on the worker pool (2 workers), under a zero-rate
//! plan, four seeded fault plans and a crash plan, the answers and the
//! seven schedule-invariant logical counters equal the clean run's, the
//! engine sees exactly one `End` and nothing after it, and the zero-rate
//! plan costs no retransmission and no extra work message.

use mp_framework::engine::{
    Engine, FaultPlan, QueryBudget, QueryResult, RuntimeKind, Schedule, Stats,
};
use mp_framework::workloads::{scenarios, Workload};
use std::time::Duration;

const SIM: RuntimeKind = RuntimeKind::Sim(Schedule::Fifo);
const POOL: RuntimeKind = RuntimeKind::Threads;

fn workloads() -> Vec<Workload> {
    vec![
        scenarios::tc_cycle(8),
        scenarios::tc_nonlinear_chain(6),
        scenarios::odd_even_chain(8),
    ]
}

fn run(w: &Workload, runtime: RuntimeKind, plan: Option<FaultPlan>) -> QueryResult {
    let mut engine = Engine::new(w.program.clone(), w.db.clone())
        .with_runtime(runtime)
        .with_workers(2)
        .with_budget(QueryBudget::new().with_deadline(Duration::from_secs(30)));
    if let Some(plan) = plan {
        engine = engine.with_fault_plan(plan);
    }
    engine
        .evaluate()
        .unwrap_or_else(|e| panic!("{} on {runtime:?}: {e}", w.name))
}

/// The standard chaos rates, with horizons tight enough that the pool
/// (where they are milliseconds) retransmits in test time.
fn seeded(seed: u64) -> FaultPlan {
    FaultPlan {
        retransmit_after: 20,
        max_delay: 4,
        ..FaultPlan::seeded(seed)
    }
}

fn logical_counters(s: &Stats) -> [u64; 7] {
    [
        s.logical_tuple_requests,
        s.logical_answers,
        s.logical_end_tuple_requests,
        s.derived_tuples,
        s.stored_tuples,
        s.goal_stored,
        s.join_probes,
    ]
}

fn assert_equivalent(ctx: &str, clean: &QueryResult, faulted: &QueryResult) {
    assert_eq!(faulted.engine_ends, 1, "{ctx}: engine_ends");
    assert_eq!(faulted.post_end_answers, 0, "{ctx}: answers after End");
    assert_eq!(
        faulted.answers.sorted_rows(),
        clean.answers.sorted_rows(),
        "{ctx}: answers"
    );
    assert_eq!(
        logical_counters(&faulted.stats),
        logical_counters(&clean.stats),
        "{ctx}: logical counters"
    );
}

fn zero_rate_plan_is_the_clean_path_plus_acks(runtime: RuntimeKind) {
    for w in workloads() {
        let ctx = format!("{} {runtime:?} zero-rate", w.name);
        let clean = run(&w, runtime, None);
        let r = run(&w, runtime, Some(FaultPlan::default()));
        assert_equivalent(&ctx, &clean, &r);
        assert_eq!(r.stats.retransmits, 0, "{ctx}: retransmits");
        assert_eq!(r.stats.faults_injected(), 0, "{ctx}: faults");
        assert!(r.stats.acks > 0, "{ctx}: the transport never ran");
        // The wire's one step of latency reorders deliveries, and how
        // many probe waves a component needs depends on the order
        // (odd-even-chain-8: 214 messages clean, 222 over the wire, before
        // and after the driver was shared) — so it is the work traffic
        // that must match, not the termination protocol's. The pool also
        // tears down on the engine's `End` with the tail of the end
        // cascade in flight, so only the simulator's frame count is
        // timing-free.
        if runtime == SIM {
            assert_eq!(
                r.stats.work_messages(),
                clean.stats.work_messages(),
                "{ctx}: work messages"
            );
        }
    }
}

fn seeded_plans_deliver_the_clean_history(runtime: RuntimeKind) {
    for w in workloads() {
        let clean = run(&w, runtime, None);
        for seed in 1..=4u64 {
            let ctx = format!("{} {runtime:?} seed {seed}", w.name);
            let r = run(&w, runtime, Some(seeded(seed)));
            assert_equivalent(&ctx, &clean, &r);
            assert!(r.stats.faults_injected() > 0, "{ctx}: the plan never fired");
        }
    }
}

fn a_crashed_node_replays_to_the_clean_history(runtime: RuntimeKind) {
    for w in workloads() {
        let ctx = format!("{} {runtime:?} crash", w.name);
        let clean = run(&w, runtime, None);
        // Crash the root's first rule node early, with the standard chaos
        // rates on the wire around it.
        let plan = seeded(9).with_crash(1, 2);
        let r = run(&w, runtime, Some(plan));
        assert_equivalent(&ctx, &clean, &r);
        assert_eq!(r.stats.crashes, 1, "{ctx}: crashes");
        assert_eq!(r.stats.epoch_bumps, 1, "{ctx}: epoch bumps");
    }
}

// One test per (runtime, plan family), named by runtime so the TSan job
// can select the pool's.

#[test]
fn sim_zero_rate_plan() {
    zero_rate_plan_is_the_clean_path_plus_acks(SIM);
}

#[test]
fn sim_seeded_plans() {
    seeded_plans_deliver_the_clean_history(SIM);
}

#[test]
fn sim_crash_plan() {
    a_crashed_node_replays_to_the_clean_history(SIM);
}

#[test]
fn pool_zero_rate_plan() {
    zero_rate_plan_is_the_clean_path_plus_acks(POOL);
}

#[test]
fn pool_seeded_plans() {
    seeded_plans_deliver_the_clean_history(POOL);
}

#[test]
fn pool_crash_plan() {
    a_crashed_node_replays_to_the_clean_history(POOL);
}
