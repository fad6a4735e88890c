//! Chaos suite: Thm 3.1's observables under seeded fault injection.
//!
//! Every test runs a canonical workload under a deterministic
//! [`FaultPlan`] — drops, duplicates, delays (reordering), corruption,
//! node crashes — and asserts the theorem's conclusions still hold once
//! the self-healing transport and log-replay recovery are in the loop:
//!
//! 1. the engine receives **exactly one** `End`;
//! 2. the answer set is **bit-identical** to the fault-free run;
//! 3. **no answers arrive after** the final `End`;
//! 4. with every fault rate zero, the transport adds **zero overhead**
//!    to the clean path (no retransmissions, identical message counts).

use mp_datalog::parser::parse_program;
use mp_datalog::Database;
use mp_engine::{Engine, FaultPlan, QueryBudget, QueryResult, RuntimeKind, Schedule};
use mp_storage::{tuple, Tuple};
use proptest::prelude::*;
use std::time::Duration;

/// A canonical workload: name, program text, and edge facts.
struct Canonical {
    name: &'static str,
    src: &'static str,
    edges: &'static [(&'static str, i64, i64)],
}

/// The canonical recursive workloads the chaos suite sweeps: linear and
/// nonlinear transitive closure over chains and cycles, mutual
/// recursion, and the paper's P1. Small enough that a 32-plan sweep is
/// fast, recursive enough that every one runs the Fig 2 protocol.
const CANONICAL: &[Canonical] = &[
    Canonical {
        name: "tc-chain",
        src: "path(X, Y) :- edge(X, Y).
              path(X, Z) :- path(X, Y), edge(Y, Z).
              ?- path(0, Z).",
        edges: &[
            ("edge", 0, 1),
            ("edge", 1, 2),
            ("edge", 2, 3),
            ("edge", 3, 4),
            ("edge", 4, 5),
        ],
    },
    Canonical {
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
        ],
    },
    Canonical {
        name: "tc-nonlinear",
        src: "path(X, Y) :- edge(X, Y).
              path(X, Z) :- path(X, Y), path(Y, Z).
              ?- path(0, Z).",
        edges: &[
            ("edge", 0, 1),
            ("edge", 1, 2),
            ("edge", 2, 3),
            ("edge", 3, 4),
        ],
    },
    Canonical {
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
        ],
    },
    Canonical {
        name: "p1",
        src: "p(X, Y) :- q(X, Y).
              p(X, Z) :- r(X, W), p(W, Y), q(Y, Z).
              ?- p(3, Z).",
        edges: &[
            ("q", 1, 2),
            ("q", 2, 3),
            ("q", 3, 4),
            ("q", 4, 5),
            ("r", 3, 2),
            ("r", 2, 1),
        ],
    },
];

fn engine_for(w: &Canonical) -> Engine {
    let program = parse_program(w.src).unwrap();
    let mut db = Database::new();
    for &(p, a, b) in w.edges {
        db.insert(p, tuple![a, b]).unwrap();
    }
    Engine::new(program, db)
}

fn rows(r: &QueryResult) -> Vec<Tuple> {
    r.answers.sorted_rows()
}

/// Assert the Thm 3.1 observables on a faulted run against its
/// fault-free baseline.
fn assert_confluent(name: &str, ctx: &str, baseline: &QueryResult, faulted: &QueryResult) {
    assert_eq!(
        faulted.engine_ends, 1,
        "{name} [{ctx}]: expected exactly one End, got {}",
        faulted.engine_ends
    );
    assert_eq!(
        faulted.post_end_answers, 0,
        "{name} [{ctx}]: answers arrived after the final End"
    );
    assert_eq!(
        rows(faulted),
        rows(baseline),
        "{name} [{ctx}]: answers diverged from the fault-free run"
    );
}

/// The acceptance sweep: every canonical workload × 32 seeded fault
/// plans (5% drop, 5% duplicate, 10% delay, 2% corruption — within the
/// "drop ≤ 10%, dup ≤ 10%" envelope), answers bit-identical, exactly
/// one End, nothing after End.
#[test]
fn chaos_sweep_32_seeded_plans() {
    for w in CANONICAL {
        let baseline = engine_for(w).evaluate().unwrap();
        assert!(!rows(&baseline).is_empty(), "{}: empty baseline", w.name);
        for seed in 0..32u64 {
            let r = engine_for(w)
                .with_fault_plan(FaultPlan::seeded(seed))
                .evaluate()
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
            assert_confluent(w.name, &format!("seed {seed}"), &baseline, &r);
            assert!(
                r.stats.faults_injected() > 0,
                "{} seed {seed}: the plan never fired — sweep is vacuous",
                w.name
            );
        }
    }
}

/// Crashes on top of wire faults: up to two scheduled node crashes per
/// run, recovered by durable-log replay, still confluent.
#[test]
fn chaos_sweep_with_crashes() {
    for w in CANONICAL {
        let baseline = engine_for(w).evaluate().unwrap();
        let nodes = baseline.graph_nodes;
        for seed in 0..16u64 {
            let crash_a = (seed as usize * 7 + 1) % nodes;
            let crash_b = (seed as usize * 13 + 3) % nodes;
            let plan = FaultPlan::seeded(seed)
                .with_crash(crash_a, 1 + seed % 3)
                .with_crash(crash_b, 4 + seed % 5);
            let r = engine_for(w)
                .with_fault_plan(plan)
                .evaluate()
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
            assert_confluent(
                w.name,
                &format!("seed {seed}, crashes {crash_a}/{crash_b}"),
                &baseline,
                &r,
            );
        }
    }
}

/// A crash alone (no wire faults) must recover and stay confluent, and
/// must be visible in the recovery counters.
#[test]
fn single_crash_recovers_by_log_replay() {
    let w = &CANONICAL[1]; // tc-cycle: saturation keeps nodes busy
    let baseline = engine_for(w).evaluate().unwrap();
    for node in 0..baseline.graph_nodes {
        let plan = FaultPlan::default().with_crash(node, 2);
        let r = engine_for(w).with_fault_plan(plan).evaluate().unwrap();
        assert_confluent(w.name, &format!("crash node {node}"), &baseline, &r);
        if r.stats.crashes > 0 {
            assert_eq!(r.stats.epoch_bumps, r.stats.crashes);
        }
    }
}

/// With recovery disabled, a crash that fires aborts the run with the
/// typed `LinkDown` error instead of hanging or panicking.
#[test]
fn crash_without_recovery_is_a_typed_error() {
    let w = &CANONICAL[1];
    let r = engine_for(w)
        .with_fault_plan(FaultPlan::default().with_crash(1, 1))
        .with_recovery(false)
        .evaluate();
    match r {
        Err(mp_engine::EngineError::Runtime(mp_engine::runtime::RuntimeError::LinkDown {
            node,
        })) => assert_eq!(node, 1),
        other => panic!("expected LinkDown, got {other:?}"),
    }
}

/// Zero-rate plan: the transport machinery engages (sequence numbers,
/// acks) but must inject nothing, retransmit nothing, and leave the
/// logical message counts identical to the clean path.
#[test]
fn zero_rate_plan_has_zero_overhead() {
    for w in CANONICAL {
        let clean = engine_for(w).evaluate().unwrap();
        let wired = engine_for(w)
            .with_fault_plan(FaultPlan::default())
            .evaluate()
            .unwrap();
        assert_confluent(w.name, "zero-rate", &clean, &wired);
        assert_eq!(wired.stats.faults_injected(), 0, "{}", w.name);
        assert_eq!(wired.stats.retransmits, 0, "{}", w.name);
        assert_eq!(wired.stats.retransmit_overhead(), 0.0, "{}", w.name);
        assert_eq!(
            wired.stats.total_messages(),
            clean.stats.total_messages(),
            "{}: transport changed the logical message count",
            w.name
        );
        assert_eq!(wired.stats.crashes, 0, "{}", w.name);
    }
}

/// Batching composes with the chaos adversary: a batch is one transport
/// frame (one seq, one ack, one checksum), so every observable of
/// Thm 3.1 survives faults with batching enabled at any flush bound,
/// and the *logical* tuple traffic is identical to the scalar path —
/// only the physical framing changes.
#[test]
fn chaos_sweep_with_batching() {
    for w in CANONICAL {
        let baseline = engine_for(w).evaluate().unwrap();
        for batch in [1usize, 4, 64] {
            for seed in 0..8u64 {
                let r = engine_for(w)
                    .with_batching(true)
                    .with_batch_size(batch)
                    .with_fault_plan(FaultPlan::seeded(seed))
                    .evaluate()
                    .unwrap_or_else(|e| panic!("{} batch {batch} seed {seed}: {e}", w.name));
                assert_confluent(
                    w.name,
                    &format!("batch {batch}, seed {seed}"),
                    &baseline,
                    &r,
                );
                assert_eq!(
                    r.stats.logical_answers, baseline.stats.logical_answers,
                    "{} batch {batch} seed {seed}: logical answer count changed",
                    w.name
                );
                assert_eq!(
                    r.stats.logical_tuple_requests, baseline.stats.logical_tuple_requests,
                    "{} batch {batch} seed {seed}: logical request count changed",
                    w.name
                );
            }
        }
        // Crashes on top: recovery replays logs that now contain batch
        // frames; still confluent.
        for seed in 0..4u64 {
            let nodes = baseline.graph_nodes;
            let plan = FaultPlan::seeded(seed).with_crash((seed as usize * 7 + 1) % nodes, 2);
            let r = engine_for(w)
                .with_batching(true)
                .with_fault_plan(plan)
                .evaluate()
                .unwrap_or_else(|e| panic!("{} crash seed {seed}: {e}", w.name));
            assert_confluent(
                w.name,
                &format!("batched crash, seed {seed}"),
                &baseline,
                &r,
            );
        }
    }
}

/// The same seeded plan injects the same faults on repeat runs: the
/// chaos adversary is deterministic end to end.
#[test]
fn fault_injection_is_deterministic() {
    let w = &CANONICAL[0];
    let a = engine_for(w)
        .with_fault_plan(FaultPlan::seeded(99))
        .evaluate()
        .unwrap();
    let b = engine_for(w)
        .with_fault_plan(FaultPlan::seeded(99))
        .evaluate()
        .unwrap();
    assert_eq!(a.stats, b.stats);
    assert_eq!(rows(&a), rows(&b));
}

/// Faults compose with adversarial random scheduling: the two sources
/// of nondeterminism the protocol must survive, together.
#[test]
fn chaos_composes_with_random_schedules() {
    for w in CANONICAL {
        let baseline = engine_for(w).evaluate().unwrap();
        for seed in 0..8u64 {
            let r = engine_for(w)
                .with_runtime(RuntimeKind::Sim(Schedule::Random(seed)))
                .with_fault_plan(FaultPlan::seeded(seed.wrapping_mul(31)))
                .evaluate()
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
            assert_confluent(w.name, &format!("random schedule {seed}"), &baseline, &r);
        }
    }
}

/// The threaded runtime survives the same adversary: real threads, real
/// timing, same deterministic fault fates per link sequence number.
#[test]
fn threaded_runtime_survives_chaos() {
    for w in &CANONICAL[..3] {
        let baseline = engine_for(w).evaluate().unwrap();
        for seed in 0..4u64 {
            let plan = FaultPlan {
                // Tight horizons so retransmission happens in test time.
                retransmit_after: 20,
                max_delay: 4,
                ..FaultPlan::seeded(seed)
            };
            let r = engine_for(w)
                .with_runtime(RuntimeKind::Threads)
                .with_budget(QueryBudget::new().with_deadline(Duration::from_secs(30)))
                .with_fault_plan(plan)
                .evaluate()
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
            assert_confluent(w.name, &format!("threads, seed {seed}"), &baseline, &r);
        }
    }
}

/// Threaded crash recovery: a worker rebuilds its process from the
/// durable log inside its own thread and the run stays confluent.
#[test]
fn threaded_runtime_recovers_from_crashes() {
    let w = &CANONICAL[1];
    let baseline = engine_for(w).evaluate().unwrap();
    for node in [1usize, 2] {
        let plan = FaultPlan {
            retransmit_after: 20,
            ..FaultPlan::default()
        }
        .with_crash(node, 2);
        let r = engine_for(w)
            .with_runtime(RuntimeKind::Threads)
            .with_budget(QueryBudget::new().with_deadline(Duration::from_secs(30)))
            .with_fault_plan(plan)
            .evaluate()
            .unwrap();
        assert_confluent(w.name, &format!("threads, crash {node}"), &baseline, &r);
    }
}

/// Threaded runtime with recovery off: typed `LinkDown`, and the run
/// aborts promptly instead of hanging until the timeout.
#[test]
fn threaded_crash_without_recovery_aborts_promptly() {
    let w = &CANONICAL[1];
    let started = std::time::Instant::now();
    let r = engine_for(w)
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
        Err(mp_engine::EngineError::Runtime(mp_engine::runtime::RuntimeError::LinkDown {
            node,
        })) => assert_eq!(node, 1),
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
    let w = &CANONICAL[0];
    let plan = FaultPlan {
        drop: 1.0,
        max_retries: 4,
        ..FaultPlan::default()
    };
    match engine_for(w).with_fault_plan(plan).evaluate() {
        Err(mp_engine::EngineError::Runtime(
            mp_engine::runtime::RuntimeError::RetransmitExhausted { retries, .. },
        )) => assert!(retries > 4),
        other => panic!("expected RetransmitExhausted, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random fault plans × random schedules on the recursive canonical
    /// workloads (including nonlinear TC): answers always confluent with
    /// the fault-free FIFO run.
    #[test]
    fn random_plans_are_confluent(
        seed in 0u64..1_000_000,
        sched_seed in 0u64..1_000_000,
        drop_pct in 0u32..=10,
        dup_pct in 0u32..=10,
        delay_pct in 0u32..=25,
        corrupt_pct in 0u32..=5,
        workload in 0usize..5,
        crash_node in 0usize..8,
        crash_at in 1u64..6,
        crashes in 0u32..=2,
    ) {
        let w = &CANONICAL[workload];
        let baseline = engine_for(w).evaluate().unwrap();
        let mut plan = FaultPlan {
            seed,
            drop: drop_pct as f64 / 100.0,
            duplicate: dup_pct as f64 / 100.0,
            delay: delay_pct as f64 / 100.0,
            corrupt: corrupt_pct as f64 / 100.0,
            ..FaultPlan::default()
        };
        if crashes >= 1 {
            plan = plan.with_crash(crash_node % baseline.graph_nodes, crash_at);
        }
        if crashes == 2 {
            plan = plan.with_crash((crash_node + 3) % baseline.graph_nodes, crash_at + 2);
        }
        let r = engine_for(w)
            .with_runtime(RuntimeKind::Sim(Schedule::Random(sched_seed)))
            .with_fault_plan(plan)
            .evaluate()
            .unwrap();
        prop_assert_eq!(r.engine_ends, 1);
        prop_assert_eq!(r.post_end_answers, 0);
        prop_assert_eq!(rows(&r), rows(&baseline));
    }
}

/// Chaos × cancellation (ISSUE 8 acceptance sweep): a tight message
/// budget trips mid-run while the transport is busy with wire faults
/// AND log-replay crash recovery. Every seed must drain into the typed
/// `BudgetExceeded` error (or finish first under budget) — never hang —
/// with accounting for every node and partial answers drawn from the
/// true fixpoint. Crash seeds also exercise the Cancel-in-the-log
/// replay path: a reborn node re-learns its cancellation.
#[test]
fn chaos_cancel_sweep_32_seeds_drains_mid_recovery() {
    use mp_engine::runtime::RuntimeError;
    use mp_engine::QueryBudget;
    use std::collections::BTreeSet;
    for w in CANONICAL {
        let baseline = engine_for(w).evaluate().unwrap();
        let truth: BTreeSet<Tuple> = rows(&baseline).into_iter().collect();
        let nodes = baseline.graph_nodes;
        for seed in 0..32u64 {
            let plan =
                FaultPlan::seeded(seed).with_crash((seed as usize * 7 + 1) % nodes, 1 + seed % 3);
            let started = std::time::Instant::now();
            let result = engine_for(w)
                .with_fault_plan(plan)
                .with_budget(QueryBudget::new().with_max_messages(25))
                .evaluate();
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "{} seed {seed}: cancel drain burned the whole deadline",
                w.name
            );
            match result {
                // The whole run fit under the budget.
                Ok(r) => assert_confluent(w.name, &format!("seed {seed}"), &baseline, &r),
                Err(mp_engine::EngineError::Runtime(RuntimeError::BudgetExceeded {
                    partial,
                    accounting,
                    cancel_waves,
                    ..
                })) => {
                    assert!(cancel_waves >= 1, "{} seed {seed}: no wave ran", w.name);
                    assert_eq!(
                        accounting.len(),
                        nodes,
                        "{} seed {seed}: accounting misses nodes",
                        w.name
                    );
                    for t in &partial {
                        assert!(
                            truth.contains(t),
                            "{} seed {seed}: partial answer {t} outside the fixpoint",
                            w.name
                        );
                    }
                }
                Err(e) => panic!("{} seed {seed}: unexpected error {e}", w.name),
            }
        }
    }
}
