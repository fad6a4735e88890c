//! End-to-end trace verification and deterministic replay.
//!
//! Every test records a real execution with [`Engine::with_trace`] and
//! feeds the clock-stamped event trace to the offline checker
//! (`mp_trace::check`) — the acceptance sweep covers every canonical
//! workload, both runtimes, and ≥16 chaos seeds, and must come back
//! clean. Separately, corrupting a *real* recorded trace must fire the
//! checker, a chaos-seeded threaded run must replay deterministically in
//! the simulator with identical answers and logical counters, and the
//! trace's own logical counts must agree with the engine's
//! batching-invariant `Stats` counters.

use mp_datalog::parser::parse_program;
use mp_datalog::Database;
use mp_engine::{Engine, FaultPlan, QueryBudget, QueryResult, RuntimeKind, Schedule};
use mp_storage::tuple;
use mp_trace::{check, logical_counts, EventKind, Trace};
use std::time::Duration;

/// A canonical workload: name, program text, and edge facts.
struct Canonical {
    name: &'static str,
    src: &'static str,
    edges: &'static [(&'static str, i64, i64)],
}

/// Same canonical recursive workloads as the chaos suite: linear and
/// nonlinear transitive closure over chains and cycles, mutual
/// recursion, and the paper's P1.
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
    Engine::new(program, db).with_trace(true)
}

/// Chaos plan tuned for test-time horizons on the threaded runtime.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        retransmit_after: 20,
        max_delay: 4,
        ..FaultPlan::seeded(seed)
    }
}

fn assert_clean(name: &str, ctx: &str, r: &QueryResult) -> Trace {
    let events = r
        .events
        .clone()
        .unwrap_or_else(|| panic!("{name} [{ctx}]: tracing enabled but no events recorded"));
    assert!(
        !events.events.is_empty(),
        "{name} [{ctx}]: empty event trace"
    );
    assert_eq!(events.dropped, 0, "{name} [{ctx}]: ring overflowed");
    let diags = check(&events);
    assert!(
        diags.is_empty(),
        "{name} [{ctx}]: checker fired on a real execution:\n{}",
        diags
            .iter()
            .map(|d| d.render(name, "  "))
            .collect::<Vec<_>>()
            .join("\n")
    );
    events
}

/// Acceptance sweep, simulator: every canonical workload, FIFO plus 16
/// random schedules, and 16 chaos seeds (wire faults + a crash), all
/// check clean.
#[test]
fn sim_traces_check_clean() {
    for w in CANONICAL {
        let fifo = engine_for(w).evaluate().unwrap();
        assert_clean(w.name, "fifo", &fifo);
        for seed in 0..16u64 {
            let r = engine_for(w)
                .with_runtime(RuntimeKind::Sim(Schedule::Random(seed)))
                .evaluate()
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
            assert_clean(w.name, &format!("random {seed}"), &r);
        }
        let nodes = fifo.graph_nodes;
        for seed in 0..16u64 {
            let plan = FaultPlan::seeded(seed).with_crash((seed as usize * 7 + 1) % nodes, 2);
            let r = engine_for(w)
                .with_fault_plan(plan)
                .evaluate()
                .unwrap_or_else(|e| panic!("{} chaos {seed}: {e}", w.name));
            let events = assert_clean(w.name, &format!("chaos {seed}"), &r);
            if r.stats.crashes > 0 {
                // Crash/recover pairs must be visible in the trace.
                let crashes = events
                    .events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::Crash { .. }))
                    .count() as u64;
                assert_eq!(crashes, r.stats.crashes, "{} chaos {seed}", w.name);
            }
        }
    }
}

/// Acceptance sweep, threaded runtime: every canonical workload clean,
/// plus chaos seeds on the first three (the chaos suite's threaded
/// subset), all check clean.
#[test]
fn threaded_traces_check_clean() {
    for w in CANONICAL {
        let r = engine_for(w)
            .with_runtime(RuntimeKind::Threads)
            .with_budget(QueryBudget::new().with_deadline(Duration::from_secs(30)))
            .evaluate()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_clean(w.name, "threads clean", &r);
    }
    for w in &CANONICAL[..3] {
        for seed in 0..4u64 {
            let r = engine_for(w)
                .with_runtime(RuntimeKind::Threads)
                .with_budget(QueryBudget::new().with_deadline(Duration::from_secs(30)))
                .with_fault_plan(chaos_plan(seed))
                .evaluate()
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
            assert_clean(w.name, &format!("threads chaos {seed}"), &r);
        }
    }
}

/// Corrupting a *real* recorded trace (not a synthetic fixture) must
/// fire the checker: a store that shrinks, a delivery whose clock is
/// rolled back, and a lost delivery all surface as MP3xx diagnostics.
#[test]
fn corrupted_real_trace_fires() {
    let w = &CANONICAL[0];
    let r = engine_for(w).evaluate().unwrap();
    let clean = assert_clean(w.name, "fifo", &r);

    // Monotone flow violation: take two stores to the same relation by
    // the same actor and inflate the earlier one past the later — the
    // later store now reads as a shrink.
    let mut t = clean.clone();
    let stores: Vec<(usize, u32, u32, u64)> = t
        .events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e.kind {
            EventKind::Store { rel, size } => Some((i, e.actor, rel, size)),
            _ => None,
        })
        .collect();
    let (early, late) = stores
        .iter()
        .enumerate()
        .find_map(|(k, &(i, actor, rel, _))| {
            stores[k + 1..]
                .iter()
                .find(|&&(_, a2, r2, _)| a2 == actor && r2 == rel)
                .map(|&(_, _, _, size_j)| ((i, rel), size_j))
        })
        .map(|((i, rel), size_j)| (i, (rel, size_j)))
        .expect("a recursive run stores the same relation repeatedly");
    let (rel, later_size) = late;
    t.events[early].kind = EventKind::Store {
        rel,
        size: later_size + 5,
    };
    // The same actor may store again later at the honest (larger) size,
    // which also trips the monotonicity check — every diagnostic must
    // still be the shrinking-relation code.
    let diags = check(&t);
    assert!(!diags.is_empty(), "shrunk store went undetected");
    assert!(
        diags.iter().all(|d| d.code.as_str() == "MP306"),
        "expected only MP306, got {diags:?}"
    );

    // Causality violation: roll a stamped delivery's vector clock back
    // below its send.
    let mut t = clean.clone();
    let idx = t
        .events
        .iter()
        .position(|e| {
            matches!(&e.kind, EventKind::Deliver { link_seq, .. } if *link_seq != mp_trace::NO_SEQ)
        })
        .expect("a real run delivers stamped messages");
    let sender = match t.events[idx].kind {
        EventKind::Deliver { from, .. } => from as usize,
        _ => unreachable!(),
    };
    t.events[idx].vclock[sender] = 0;
    let diags = check(&t);
    assert!(
        diags.iter().any(|d| d.code.as_str() == "MP301"),
        "clock rollback went undetected: {diags:?}"
    );

    // Lost delivery: drop a stamped Deliver event entirely; the link
    // develops a hole below its delivered maximum.
    let mut t = clean.clone();
    let last_stamped = t
        .events
        .iter()
        .rposition(|e| {
            matches!(&e.kind, EventKind::Deliver { link_seq, .. } if *link_seq != mp_trace::NO_SEQ)
        })
        .unwrap();
    // Removing the FIRST stamped delivery on some link leaves later
    // deliveries above the hole.
    let first_on_same_link = t.events[..last_stamped]
        .iter()
        .position(|e| matches!(&e.kind, EventKind::Deliver { link_seq, .. } if *link_seq == 0))
        .unwrap();
    t.events.remove(first_on_same_link);
    let diags = check(&t);
    assert!(
        !diags.is_empty(),
        "removed delivery went undetected (expected MP302/MP301): {diags:?}"
    );
}

/// Deterministic replay: a chaos-seeded *threaded* run re-executes in
/// the simulator, driven by the recorded delivery order, with identical
/// answers, exactly one End, and identical batching-invariant logical
/// counters. The trace round-trips through its text encoding first, so
/// the replay consumes exactly what `mp-check` would read from disk.
#[test]
fn threaded_chaos_run_replays_in_simulator() {
    for w in &CANONICAL[..3] {
        for seed in [1u64, 3] {
            let recorded = engine_for(w)
                .with_runtime(RuntimeKind::Threads)
                .with_budget(QueryBudget::new().with_deadline(Duration::from_secs(30)))
                .with_fault_plan(chaos_plan(seed))
                .evaluate()
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
            let trace = recorded.events.clone().unwrap();
            let reparsed = Trace::from_text(&trace.to_text()).unwrap();

            let replayed = engine_for(w)
                .replay(&reparsed)
                .unwrap_or_else(|e| panic!("{} seed {seed} replay: {e}", w.name));
            assert_eq!(
                replayed.answers.sorted_rows(),
                recorded.answers.sorted_rows(),
                "{} seed {seed}: replay diverged from the recorded run",
                w.name
            );
            assert_eq!(replayed.engine_ends, 1, "{} seed {seed}", w.name);
            assert_eq!(replayed.post_end_answers, 0, "{} seed {seed}", w.name);
            for (label, a, b) in [
                (
                    "tuple requests",
                    replayed.stats.logical_tuple_requests,
                    recorded.stats.logical_tuple_requests,
                ),
                (
                    "answers",
                    replayed.stats.logical_answers,
                    recorded.stats.logical_answers,
                ),
                (
                    "end requests",
                    replayed.stats.logical_end_tuple_requests,
                    recorded.stats.logical_end_tuple_requests,
                ),
            ] {
                assert_eq!(
                    a, b,
                    "{} seed {seed}: logical {label} diverged under replay",
                    w.name
                );
            }
            // The replay's own trace checks clean too.
            assert_clean(w.name, &format!("replay {seed}"), &replayed);
        }
    }
}

/// A random-schedule simulator run replays the same way — the recorded
/// activation order is honored, not just tolerated.
#[test]
fn sim_random_schedule_replays() {
    let w = &CANONICAL[1];
    let recorded = engine_for(w)
        .with_runtime(RuntimeKind::Sim(Schedule::Random(42)))
        .evaluate()
        .unwrap();
    let trace = recorded.events.clone().unwrap();
    let replayed = engine_for(w).replay(&trace).unwrap();
    assert_eq!(
        replayed.answers.sorted_rows(),
        recorded.answers.sorted_rows()
    );
    assert_eq!(
        replayed.stats.logical_answers,
        recorded.stats.logical_answers
    );
}

/// The trace's logical counts agree with the engine's batching-invariant
/// `Stats` counters, at every batch size and on both runtimes — PR 4's
/// invariance, checked through an independent observer.
#[test]
fn trace_logical_counts_match_stats() {
    let w = &CANONICAL[0];
    let scalar = engine_for(w).evaluate().unwrap();
    for batch in [1usize, 4, 64] {
        let r = engine_for(w)
            .with_batching(true)
            .with_batch_size(batch)
            .evaluate()
            .unwrap();
        let events = assert_clean(w.name, &format!("batch {batch}"), &r);
        let counts = logical_counts(&events);
        assert_eq!(counts.tuple_requests, r.stats.logical_tuple_requests);
        assert_eq!(counts.answers, r.stats.logical_answers);
        assert_eq!(
            counts.end_tuple_requests,
            r.stats.logical_end_tuple_requests
        );
        // Invariance against the scalar baseline, via the trace alone.
        assert_eq!(counts.tuple_requests, scalar.stats.logical_tuple_requests);
        assert_eq!(counts.answers, scalar.stats.logical_answers);
    }
    let r = engine_for(w)
        .with_runtime(RuntimeKind::Threads)
        .with_budget(QueryBudget::new().with_deadline(Duration::from_secs(30)))
        .evaluate()
        .unwrap();
    let events = assert_clean(w.name, "threads", &r);
    let counts = logical_counts(&events);
    assert_eq!(counts.tuple_requests, r.stats.logical_tuple_requests);
    assert_eq!(counts.answers, r.stats.logical_answers);
}

/// S4 regression: worker-thread spawn failure surfaces as the typed
/// `WorkerSpawn` error with a diagnostic message, not a panic (the
/// conversion from `std::thread::spawn`'s panicking path).
#[test]
fn worker_spawn_error_is_typed_and_displayed() {
    let e = mp_engine::runtime::RuntimeError::WorkerSpawn {
        node: 3,
        reason: "Resource temporarily unavailable".to_string(),
    };
    let text = e.to_string();
    assert!(text.contains("node #3"), "{text}");
    assert!(text.contains("Resource temporarily unavailable"), "{text}");
}

/// Tracing is strictly opt-in: the default engine records nothing.
#[test]
fn untraced_runs_carry_no_events() {
    let w = &CANONICAL[0];
    let program = parse_program(w.src).unwrap();
    let mut db = Database::new();
    for &(p, a, b) in w.edges {
        db.insert(p, tuple![a, b]).unwrap();
    }
    let r = Engine::new(program, db).evaluate().unwrap();
    assert!(r.events.is_none());
    assert!(r.trace.is_none());
}
