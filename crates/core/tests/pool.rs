//! Worker-pool scheduler suite: schedule invariance (Thm 3.1/4.1)
//! across pool sizes and steal orders.
//!
//! The work-stealing runtime multiplexes node activations onto a fixed
//! worker pool, so the *physical* schedule varies run to run (which
//! worker activates which node, who steals what). The paper's theorems
//! say none of that may be observable: the answer set and the logical
//! message counters (bindings, answers, per-binding completions — the
//! batching- and schedule-invariant traffic) must be bit-identical to
//! the deterministic simulator, at every pool size, with and without an
//! adversarial fault plan. Every test here pins the simulator as the
//! ground truth and sweeps the pool against it.

use mp_datalog::parser::parse_program;
use mp_datalog::Database;
use mp_engine::{Engine, FaultPlan, QueryBudget, QueryResult, RuntimeKind, Schedule, Stats};
use mp_storage::{tuple, Tuple};
use proptest::prelude::*;
use std::time::Duration;

struct Workload {
    name: &'static str,
    src: &'static str,
    edges: &'static [(&'static str, i64, i64)],
}

/// Recursive workloads with enough fan-out that several nodes are
/// runnable at once — the regime where stealing actually happens.
const WORKLOADS: &[Workload] = &[
    Workload {
        name: "tc-cycle",
        src: "path(X, Y) :- edge(X, Y).
              path(X, Z) :- path(X, Y), edge(Y, Z).
              ?- path(0, Z).",
        edges: &[
            ("edge", 0, 1),
            ("edge", 1, 2),
            ("edge", 2, 3),
            ("edge", 3, 0),
            ("edge", 2, 4),
            ("edge", 4, 5),
        ],
    },
    Workload {
        name: "tc-nonlinear",
        src: "path(X, Y) :- edge(X, Y).
              path(X, Z) :- path(X, Y), path(Y, Z).
              ?- path(0, Z).",
        edges: &[
            ("edge", 0, 1),
            ("edge", 1, 2),
            ("edge", 2, 3),
            ("edge", 3, 4),
            ("edge", 4, 5),
        ],
    },
    Workload {
        name: "odd-even",
        src: "odd(X, Y) :- edge(X, Y).
              odd(X, Y) :- edge(X, U), even(U, Y).
              even(X, Y) :- edge(X, U), odd(U, Y).
              ?- odd(0, Z).",
        edges: &[
            ("edge", 0, 1),
            ("edge", 1, 2),
            ("edge", 2, 3),
            ("edge", 3, 4),
            ("edge", 4, 5),
        ],
    },
];

fn engine_for(w: &Workload) -> Engine {
    let program = parse_program(w.src).unwrap();
    let mut db = Database::new();
    for &(p, a, b) in w.edges {
        db.insert(p, tuple![a, b]).unwrap();
    }
    Engine::new(program, db).with_budget(QueryBudget::new().with_deadline(Duration::from_secs(30)))
}

fn rows(r: &QueryResult) -> Vec<Tuple> {
    r.answers.sorted_rows()
}

/// The schedule-invariant projection of [`Stats`]: the data-plane
/// logical traffic, all of which is causally complete before the final
/// `End` reaches the engine (the probe wave confirms quiescence first).
/// Physical framing (batch counts), transport repair (retransmits,
/// acks), probe-wave counts, and scheduler behavior all legitimately
/// vary with timing; so does `stream_ends`, because the engine tears
/// the pool down on its `End` while the node-to-node tail of the end
/// cascade may still be in flight.
fn logical(stats: &Stats) -> (u64, u64, u64, u64) {
    (
        stats.relation_requests,
        stats.logical_tuple_requests,
        stats.logical_answers,
        stats.logical_end_tuple_requests,
    )
}

/// Assert a pooled run is indistinguishable from the simulator run in
/// every observable the theorems cover.
fn assert_matches_sim(name: &str, ctx: &str, sim: &QueryResult, pooled: &QueryResult) {
    assert_eq!(
        pooled.engine_ends, 1,
        "{name} [{ctx}]: expected exactly one End, got {}",
        pooled.engine_ends
    );
    assert_eq!(
        pooled.post_end_answers, 0,
        "{name} [{ctx}]: answers arrived after the final End"
    );
    assert_eq!(
        rows(pooled),
        rows(sim),
        "{name} [{ctx}]: answers diverged from the simulator"
    );
    assert_eq!(
        logical(&pooled.stats),
        logical(&sim.stats),
        "{name} [{ctx}]: logical message counters diverged from the simulator"
    );
}

/// Answers and logical counters are invariant across pool sizes,
/// including a pool larger than the graph (clamped to the node count)
/// and the auto-sized default.
#[test]
fn pool_sizes_are_observably_identical_to_sim() {
    for w in WORKLOADS {
        let sim = engine_for(w).evaluate().unwrap();
        assert!(!rows(&sim).is_empty(), "{}: empty baseline", w.name);
        assert_eq!(
            sim.stats.sched_activations, 0,
            "{}: the simulator must not report pool activity",
            w.name
        );
        for workers in [1usize, 2, 3, 4, 8, 0] {
            let r = engine_for(w)
                .with_runtime(RuntimeKind::Threads)
                .with_workers(workers)
                .evaluate()
                .unwrap_or_else(|e| panic!("{} workers {workers}: {e}", w.name));
            assert_matches_sim(w.name, &format!("workers {workers}"), &sim, &r);
            assert!(
                r.stats.sched_activations > 0,
                "{} workers {workers}: pool reported no activations",
                w.name
            );
            assert!(
                r.stats.sched_max_queue > 0,
                "{} workers {workers}: queue high-water mark never moved",
                w.name
            );
        }
    }
}

// The simulator's random schedules and the pool's real interleavings
// land on the same observables: sim(random seed) == sim(fifo) ==
// pool(workers), for any seed and pool size. Each proptest case is a
// fresh OS-level run, so repeated cases at the same worker count also
// sweep distinct steal orders.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn answers_and_logical_stats_invariant_under_pool_and_schedule(
        workload in 0usize..3,
        workers in 1usize..=6,
        seed in 0u64..u64::MAX,
    ) {
        let w = &WORKLOADS[workload];
        let sim = engine_for(w).evaluate().unwrap();
        let shuffled = engine_for(w)
            .with_runtime(RuntimeKind::Sim(Schedule::Random(seed)))
            .evaluate()
            .unwrap();
        prop_assert_eq!(rows(&shuffled), rows(&sim));
        prop_assert_eq!(logical(&shuffled.stats), logical(&sim.stats));
        let pooled = engine_for(w)
            .with_runtime(RuntimeKind::Threads)
            .with_workers(workers)
            .evaluate()
            .unwrap();
        prop_assert_eq!(rows(&pooled), rows(&sim));
        prop_assert_eq!(logical(&pooled.stats), logical(&sim.stats));
        prop_assert_eq!(pooled.engine_ends, 1);
        prop_assert_eq!(pooled.post_end_answers, 0);
    }
}

/// Chaos at width: 16 seeded fault plans at 4 workers. The recovery
/// transport and the scheduled-bit protocol have to cooperate — ticks
/// retransmit for idle nodes while activations race across workers —
/// and the observables still must not move.
#[test]
fn pool_chaos_16_seeds_at_4_workers() {
    for w in WORKLOADS {
        let sim = engine_for(w).evaluate().unwrap();
        for seed in 0..16u64 {
            let plan = FaultPlan {
                // Tight horizons so retransmission happens in test time.
                retransmit_after: 20,
                max_delay: 4,
                ..FaultPlan::seeded(seed)
            };
            let r = engine_for(w)
                .with_runtime(RuntimeKind::Threads)
                .with_workers(4)
                .with_fault_plan(plan)
                .evaluate()
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
            // Wire repair may resend logical traffic frames, but the
            // *logical* counters count each send once — still invariant.
            assert_matches_sim(w.name, &format!("chaos seed {seed}"), &sim, &r);
        }
    }
}

/// Crash recovery inside an activation: the crashed node replays its
/// durable log on whichever worker holds it, at every pool size.
#[test]
fn pool_recovers_from_crashes_at_every_width() {
    let w = &WORKLOADS[0];
    let sim = engine_for(w).evaluate().unwrap();
    for workers in [1usize, 2, 4] {
        let plan = FaultPlan {
            retransmit_after: 20,
            ..FaultPlan::default()
        }
        .with_crash(1, 2)
        .with_crash(2, 3);
        let r = engine_for(w)
            .with_runtime(RuntimeKind::Threads)
            .with_workers(workers)
            .with_fault_plan(plan)
            .evaluate()
            .unwrap_or_else(|e| panic!("workers {workers}: {e}"));
        assert_matches_sim(w.name, &format!("crash, workers {workers}"), &sim, &r);
        assert!(r.stats.crashes > 0, "workers {workers}: crash never fired");
    }
}

/// A single-worker pool serializes everything, so it can never steal;
/// the counters must agree with that.
#[test]
fn single_worker_pool_never_steals() {
    let w = &WORKLOADS[0];
    let r = engine_for(w)
        .with_runtime(RuntimeKind::Threads)
        .with_workers(1)
        .evaluate()
        .unwrap();
    assert_eq!(r.stats.sched_steals, 0);
    assert_eq!(r.stats.sched_steal_failures, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Budget trips on the pool are schedule-invariant in what they
    /// claim: whatever the steal order and worker count, a tripped run
    /// surfaces the typed `BudgetExceeded` (right resource, ≥ 1 cancel
    /// wave, accounting for every node, partial answers from the true
    /// fixpoint) — and a run that outraces the trip still satisfies the
    /// Thm 3.1 observables exactly.
    #[test]
    fn budget_trips_are_typed_at_any_width(
        workload in 0usize..3,
        workers in 1usize..=6,
        budget in 10u64..80,
    ) {
        use mp_engine::runtime::{RuntimeError, Trip};
        use mp_engine::QueryBudget;
        let w = &WORKLOADS[workload];
        let sim = engine_for(w).evaluate().unwrap();
        let truth: std::collections::BTreeSet<Tuple> = rows(&sim).into_iter().collect();
        let result = engine_for(w)
            .with_runtime(RuntimeKind::Threads)
            .with_workers(workers)
            .with_budget(QueryBudget::new().with_max_messages(budget))
            .evaluate();
        match result {
            Ok(r) => {
                prop_assert_eq!(rows(&r), rows(&sim));
                prop_assert_eq!(r.engine_ends, 1);
                prop_assert_eq!(r.post_end_answers, 0);
            }
            Err(mp_engine::EngineError::Runtime(RuntimeError::BudgetExceeded {
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
                for t in &partial {
                    prop_assert!(truth.contains(t), "partial answer {} outside the fixpoint", t);
                }
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }
}
