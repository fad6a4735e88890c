//! The offline trace checker must fire on a corrupted *real* trace.
//!
//! That honest traces — every canonical workload, both runtimes, chaos
//! seeds, crashes — check clean and replay deterministically is checked
//! by the invariance harness (`tests/invariance.rs` at the workspace
//! root) on every configuration with tracing on.

use mp_engine::Engine;
use mp_trace::{check, EventKind};
use mp_workloads::scenarios;

/// Corrupting a *real* recorded trace (not a synthetic fixture) must
/// fire the checker: a store that shrinks, a delivery whose clock is
/// rolled back, and a lost delivery all surface as MP3xx diagnostics.
#[test]
fn corrupted_real_trace_fires() {
    let w = scenarios::tc_chain(6);
    let r = Engine::new(w.program, w.db)
        .with_trace(true)
        .evaluate()
        .unwrap();
    let clean = r.events.expect("tracing was enabled");
    assert_eq!(check(&clean), [], "the honest trace must check clean");

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
