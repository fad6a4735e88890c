//! Message-level protocol invariants, checked over full traces:
//!
//! 1. per arc, the relation request precedes every tuple request;
//! 2. after `EndOfRequests` on an arc, no further requests travel it;
//! 3. after `End` on an arc, no further answers or per-binding ends
//!    travel it;
//! 4. per-binding ends are unique and only ever answer a request that
//!    was actually made;
//! 5. when a stream ends, every binding requested on it has been ended
//!    (completeness of §3.2's "end" bookkeeping);
//! 6. nonrecursive programs never exchange protocol messages — the
//!    Fig 2 machinery only runs inside nontrivial strong components.

use mp_datalog::parser::parse_program;
use mp_datalog::Database;
use mp_engine::{Endpoint, Engine, Msg, Payload};
use mp_storage::{tuple, Tuple};
use std::collections::{HashMap, HashSet};

type Arc = (Endpoint, Endpoint);

/// Invariants 3–4 for one per-binding end, plain or inside a batch.
fn check_etr(
    i: usize,
    arc: &Arc,
    rev: &Arc,
    binding: &Tuple,
    end_seen: &HashSet<Arc>,
    requested: &HashMap<Arc, HashSet<Tuple>>,
    etrs: &mut HashMap<Arc, HashSet<Tuple>>,
) {
    assert!(
        !end_seen.contains(arc),
        "msg {i}: binding end after stream end on {arc:?}"
    );
    let asked = requested.get(rev).is_some_and(|s| s.contains(binding));
    assert!(
        asked,
        "msg {i}: end for a binding never requested: {binding:?} on {arc:?}"
    );
    let fresh = etrs.entry(*arc).or_default().insert(binding.clone());
    assert!(
        fresh,
        "msg {i}: duplicate binding end {binding:?} on {arc:?}"
    );
}

fn check_invariants(trace: &[Msg]) {
    let mut relreq_seen: HashSet<Arc> = HashSet::new();
    let mut eor_seen: HashSet<Arc> = HashSet::new();
    let mut end_seen: HashSet<Arc> = HashSet::new();
    let mut requested: HashMap<Arc, HashSet<Tuple>> = HashMap::new();
    let mut etrs: HashMap<Arc, HashSet<Tuple>> = HashMap::new();

    for (i, m) in trace.iter().enumerate() {
        let arc = (m.from, m.to);
        let rev = (m.to, m.from);
        match &m.payload {
            Payload::RelationRequest => {
                relreq_seen.insert(arc);
            }
            Payload::TupleRequest { binding } => {
                assert!(
                    relreq_seen.contains(&arc),
                    "msg {i}: tuple request before relation request on {arc:?}"
                );
                assert!(
                    !eor_seen.contains(&arc),
                    "msg {i}: tuple request after end-of-requests on {arc:?}"
                );
                requested.entry(arc).or_default().insert(binding.clone());
            }
            Payload::TupleRequestBatch { bindings } => {
                assert!(!eor_seen.contains(&arc), "msg {i}: batch after EOR");
                requested
                    .entry(arc)
                    .or_default()
                    .extend(bindings.iter().cloned());
            }
            Payload::EndOfRequests => {
                eor_seen.insert(arc);
            }
            Payload::Answer { .. } | Payload::AnswerBatch { .. } => {
                assert!(
                    !end_seen.contains(&arc),
                    "msg {i}: answer after stream end on {arc:?}"
                );
            }
            Payload::EndTupleRequest { binding } => {
                check_etr(i, &arc, &rev, binding, &end_seen, &requested, &mut etrs);
            }
            Payload::EndTupleRequestBatch { bindings } => {
                for binding in bindings {
                    check_etr(i, &arc, &rev, binding, &end_seen, &requested, &mut etrs);
                }
            }
            Payload::End => {
                end_seen.insert(arc);
                // Completeness: everything requested on the reverse arc
                // has been ended.
                let asked = requested.get(&rev).cloned().unwrap_or_default();
                let ended = etrs.get(&arc).cloned().unwrap_or_default();
                assert!(
                    asked.is_subset(&ended),
                    "stream end on {arc:?} with un-ended bindings: {:?}",
                    asked.difference(&ended).collect::<Vec<_>>()
                );
            }
            Payload::EndRequest { .. }
            | Payload::EndNegative { .. }
            | Payload::EndConfirmed { .. }
            | Payload::Reborn { .. }
            | Payload::SccFinished
            | Payload::Cancel { .. }
            | Payload::Shutdown => {}
        }
    }
}

fn trace_of(src: &str, edges: &[(&str, i64, i64)]) -> (Vec<Msg>, u64) {
    let program = parse_program(src).unwrap();
    let mut db = Database::new();
    for &(p, a, b) in edges {
        db.insert(p, tuple![a, b]).unwrap();
    }
    let r = Engine::new(program, db)
        .with_trace(true)
        .evaluate()
        .unwrap();
    (r.trace.unwrap(), r.stats.protocol_messages)
}

#[test]
fn invariants_on_nonrecursive_chain_of_rules() {
    // A five-level nonrecursive rule chain: the End/EndOfRequests cascade
    // closes every stream with zero protocol traffic.
    let (trace, protocol) = trace_of(
        "p1(X, Y) :- e(X, Y).
         p2(X, Y) :- p1(X, Y).
         p3(X, Z) :- p2(X, Y), e(Y, Z).
         p4(X, Y) :- p3(X, Y).
         p5(X, Y) :- p4(X, Y).
         ?- p5(1, Z).",
        &[("e", 1, 2), ("e", 2, 3), ("e", 3, 4)],
    );
    check_invariants(&trace);
    assert_eq!(protocol, 0, "no recursion, no probes");
    // Every stream that opened also closed.
    let opened: HashSet<Arc> = trace
        .iter()
        .filter(|m| matches!(m.payload, Payload::RelationRequest))
        .map(|m| (m.to, m.from)) // answers flow feeder → customer
        .collect();
    let ended: HashSet<Arc> = trace
        .iter()
        .filter(|m| matches!(m.payload, Payload::End))
        .map(|m| (m.from, m.to))
        .collect();
    assert_eq!(opened, ended, "all opened streams must end");
}

#[test]
fn invariants_on_recursive_cycle() {
    let (trace, protocol) = trace_of(
        "path(X, Y) :- edge(X, Y).
         path(X, Z) :- path(X, Y), edge(Y, Z).
         ?- path(0, Z).",
        &[("edge", 0, 1), ("edge", 1, 2), ("edge", 2, 0)],
    );
    check_invariants(&trace);
    assert!(protocol > 0, "recursion requires the probe protocol");
    assert!(trace
        .iter()
        .any(|m| matches!(m.payload, Payload::SccFinished)));
}

#[test]
fn invariants_on_nonlinear_and_mutual_recursion() {
    let (trace, _) = trace_of(
        "path(X, Y) :- edge(X, Y).
         path(X, Z) :- path(X, Y), path(Y, Z).
         ?- path(0, Z).",
        &[("edge", 0, 1), ("edge", 1, 2), ("edge", 2, 3)],
    );
    check_invariants(&trace);

    let (trace2, _) = trace_of(
        "odd(X, Y) :- edge(X, Y).
         odd(X, Y) :- edge(X, U), even(U, Y).
         even(X, Y) :- edge(X, U), odd(U, Y).
         ?- odd(0, Z).",
        &[("edge", 0, 1), ("edge", 1, 2), ("edge", 2, 3)],
    );
    check_invariants(&trace2);
}

#[test]
fn invariants_hold_under_random_schedules() {
    let program_src = "path(X, Y) :- edge(X, Y).
         path(X, Z) :- path(X, Y), edge(Y, Z).
         ?- path(0, Z).";
    let program = parse_program(program_src).unwrap();
    let mut db = Database::new();
    for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
        db.insert("edge", tuple![a, b]).unwrap();
    }
    for seed in 0..10 {
        let r = Engine::new(program.clone(), db.clone())
            .with_trace(true)
            .with_runtime(mp_engine::RuntimeKind::Sim(mp_engine::Schedule::Random(
                seed,
            )))
            .evaluate()
            .unwrap();
        check_invariants(&r.trace.unwrap());
    }
}

#[test]
fn invariants_hold_with_batching() {
    let program = parse_program(
        "path(X, Y) :- edge(X, Y).
         path(X, Z) :- path(X, Y), edge(Y, Z).
         ?- path(0, Z).",
    )
    .unwrap();
    let mut db = Database::new();
    // Fan-out shape so real batches form.
    for i in 0..6i64 {
        for j in 0..4i64 {
            db.insert("edge", tuple![i, 10 + i * 4 + j]).unwrap();
            db.insert("edge", tuple![10 + i * 4 + j, (i + 1) % 6])
                .unwrap();
        }
    }
    let r = Engine::new(program, db)
        .with_trace(true)
        .with_batch_size(64)
        .evaluate()
        .unwrap();
    let trace = r.trace.unwrap();
    assert!(
        trace
            .iter()
            .any(|m| matches!(m.payload, Payload::TupleRequestBatch { .. })),
        "expected real request batches on a fan-out graph"
    );
    assert!(
        trace
            .iter()
            .any(|m| matches!(m.payload, Payload::AnswerBatch { .. })),
        "expected real answer batches on a fan-out graph"
    );
    check_invariants(&trace);
}
