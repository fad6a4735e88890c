//! Checker mutation coverage: hand-corrupted traces, one per invariant,
//! each asserting the *exact* MP3xx code fired. A checker that goes
//! quiet on any of these has lost a protocol guarantee.

use mp_lint::Code;
use mp_storage::Tuple;
use mp_trace::{check, collect, MsgKind, Ring, Trace, Tracer};
use std::sync::Arc;

/// Three actors: nodes 0 and 1, engine = 2.
fn tracers() -> (Tracer, Tracer, Tracer, Arc<Ring<mp_trace::Event>>) {
    let ring = Arc::new(Ring::with_capacity(1 << 10));
    (
        Tracer::new(0, 3, Arc::clone(&ring)),
        Tracer::new(1, 3, Arc::clone(&ring)),
        Tracer::new(2, 3, Arc::clone(&ring)),
        ring,
    )
}

fn codes(t: &Trace) -> Vec<&'static str> {
    check(t).iter().map(|d| d.code.as_str()).collect()
}

#[test]
fn answer_after_end_fires_mp303() {
    let (mut n0, _n1, mut eng, ring) = tracers();
    let s = n0.on_send(2, MsgKind::End, 1, 0, 0, vec![]);
    eng.on_deliver(0, Some(&s), MsgKind::End, 1, 0, 0);
    eng.on_end();
    // A straggler answer arrives after the stream was certified complete.
    // Its sender also broke its own stream: MP313 fires beside MP303.
    let s = n0.on_send(2, MsgKind::Answer, 1, 0, 0, vec![]);
    eng.on_deliver(0, Some(&s), MsgKind::Answer, 1, 0, 0);
    assert_eq!(codes(&collect(3, &ring)), vec!["MP303", "MP313"]);
}

#[test]
fn seq_gap_fires_mp302() {
    let (mut n0, mut n1, _eng, ring) = tracers();
    let s0 = n0.on_send(1, MsgKind::Answer, 1, 0, 0, vec![]);
    let _s1 = n0.on_send(1, MsgKind::Answer, 1, 0, 0, vec![]); // lost in transit
    let s2 = n0.on_send(1, MsgKind::Answer, 1, 0, 0, vec![]);
    n1.on_deliver(0, Some(&s0), MsgKind::Answer, 1, 0, 0);
    n1.on_deliver(0, Some(&s2), MsgKind::Answer, 1, 0, 0);
    assert_eq!(codes(&collect(3, &ring)), vec!["MP302"]);
}

#[test]
fn stale_epoch_ack_fires_mp304() {
    let (mut n0, mut n1, _eng, ring) = tracers();
    // Node 1 accepts a confirmation for a wave/epoch it never originated.
    let s = n0.on_send(1, MsgKind::EndConfirmed, 1, 5, 9, vec![]);
    n1.on_deliver(0, Some(&s), MsgKind::EndConfirmed, 1, 5, 9);
    assert_eq!(codes(&collect(3, &ring)), vec!["MP304"]);
}

#[test]
fn shrinking_relation_fires_mp306() {
    let (mut n0, _n1, _eng, ring) = tracers();
    n0.on_store(2, 5);
    n0.on_store(2, 3); // monotone flow violated
    assert_eq!(codes(&collect(3, &ring)), vec!["MP306"]);
}

#[test]
fn vector_clock_regression_fires_mp301() {
    let (mut n0, _n1, _eng, ring) = tracers();
    n0.on_flush(1);
    n0.on_flush(1);
    let mut t = collect(3, &ring);
    // Corrupt the second event: roll its vector clock backwards.
    t.events[1].vclock = vec![0, 0, 0];
    assert_eq!(codes(&t), vec!["MP301"]);
}

#[test]
fn lamport_regression_fires_mp301() {
    let (mut n0, _n1, _eng, ring) = tracers();
    n0.on_flush(1);
    n0.on_flush(1);
    let mut t = collect(3, &ring);
    t.events[1].lamport = 0;
    t.events[1].vclock = vec![2, 0, 0]; // keep the vector clock honest
    assert_eq!(codes(&t), vec!["MP301"]);
}

#[test]
fn deliver_without_happens_before_fires_mp301() {
    let (mut n0, mut n1, _eng, ring) = tracers();
    let s = n0.on_send(1, MsgKind::Answer, 1, 0, 0, vec![]);
    n1.on_deliver(0, Some(&s), MsgKind::Answer, 1, 0, 0);
    let mut t = collect(3, &ring);
    // The delivery no longer dominates the send in the sender component.
    let send_vclock = t.events[0].vclock.clone();
    if let Some(e) = t.events.get_mut(1) {
        e.vclock[0] = send_vclock[0] - 1;
    }
    assert_eq!(codes(&t), vec!["MP301"]);
}

#[test]
fn duplicate_frame_surviving_dedup_fires_mp308() {
    let (mut n0, mut n1, _eng, ring) = tracers();
    let s = n0.on_send(1, MsgKind::Answer, 1, 0, 0, vec![]);
    n1.on_deliver(0, Some(&s), MsgKind::Answer, 1, 0, 0);
    n1.on_deliver(0, Some(&s), MsgKind::Answer, 1, 0, 0); // dedup failed
    assert_eq!(codes(&collect(3, &ring)), vec!["MP308"]);
}

#[test]
fn fifo_violation_fires_mp305() {
    let (mut n0, mut n1, _eng, ring) = tracers();
    let s0 = n0.on_send(1, MsgKind::Answer, 1, 0, 0, vec![]);
    let s1 = n0.on_send(1, MsgKind::Answer, 1, 0, 0, vec![]);
    n1.on_deliver(0, Some(&s1), MsgKind::Answer, 1, 0, 0); // overtook s0
    n1.on_deliver(0, Some(&s0), MsgKind::Answer, 1, 0, 0);
    assert_eq!(codes(&collect(3, &ring)), vec!["MP305"]);
}

#[test]
fn orphan_recover_fires_mp307() {
    let (mut n0, _n1, _eng, ring) = tracers();
    n0.on_recover(1, 0); // never crashed
    assert_eq!(codes(&collect(3, &ring)), vec!["MP307"]);
}

#[test]
fn logical_count_mismatch_fires_mp309() {
    let (mut n0, mut n1, _eng, ring) = tracers();
    let s = n0.on_send(1, MsgKind::Answer, 4, 0, 0, vec![]);
    n1.on_deliver(0, Some(&s), MsgKind::Answer, 2, 0, 0); // tuples vanished
    assert_eq!(codes(&collect(3, &ring)), vec!["MP309"]);
}

#[test]
fn wave_order_regression_fires_mp304() {
    let (mut n0, _n1, _eng, ring) = tracers();
    n0.on_wave(2, 1);
    n0.on_wave(1, 1); // wave number went backwards within an epoch
    assert_eq!(codes(&collect(3, &ring)), vec!["MP304"]);
}

#[test]
fn answer_after_cancel_fires_mp310() {
    let (mut n0, mut n1, mut eng, ring) = tracers();
    // The engine broadcasts a cancel wave; node 1 acks it...
    let s = eng.on_send(1, MsgKind::Cancel, 1, 1, 0, vec![]);
    n1.on_deliver(2, Some(&s), MsgKind::Cancel, 1, 1, 0);
    // ...then keeps deriving: an answer leaves the cancelled node.
    let s = n1.on_send(0, MsgKind::Answer, 1, 0, 0, vec![]);
    n0.on_deliver(1, Some(&s), MsgKind::Answer, 1, 0, 0);
    assert_eq!(codes(&collect(3, &ring)), vec!["MP310"]);
}

#[test]
fn cancelled_node_may_still_drain_protocol_traffic() {
    // MP310 closes the *answer* stream only: wave replies and the final
    // End from a cancelled node are legitimate drain traffic.
    let (mut n0, mut n1, mut eng, ring) = tracers();
    let s = eng.on_send(1, MsgKind::Cancel, 1, 1, 0, vec![]);
    n1.on_deliver(2, Some(&s), MsgKind::Cancel, 1, 1, 0);
    let s = n1.on_send(0, MsgKind::End, 1, 0, 0, vec![]);
    n0.on_deliver(1, Some(&s), MsgKind::End, 1, 0, 0);
    assert_eq!(codes(&collect(3, &ring)), Vec::<&str>::new());
}

#[test]
fn mutations_survive_text_roundtrip() {
    // Corruption is still detected after serializing and reparsing.
    let (mut n0, _n1, _eng, ring) = tracers();
    n0.on_store(0, 5);
    n0.on_store(0, 3);
    let t = collect(3, &ring);
    let reparsed = Trace::from_text(&t.to_text()).unwrap();
    let diags = check(&reparsed);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, Code::TraceShrinkingRelation);
    assert!(diags[0].is_deny());
}

/// A one-value binding.
fn b(v: i64) -> Tuple {
    Tuple::from([v.into()])
}

/// The engine (actor 2) opens a stream to node 0 and requests `bindings`.
fn open_and_request(eng: &mut Tracer, bindings: Vec<Tuple>) {
    eng.on_send(0, MsgKind::RelationRequest, 1, 0, 0, vec![]);
    eng.on_send(
        0,
        MsgKind::TupleRequest,
        bindings.len() as u64,
        0,
        0,
        bindings,
    );
}

#[test]
fn a_clean_stream_passes_the_binding_checks() {
    let (mut n0, _n1, mut eng, ring) = tracers();
    open_and_request(&mut eng, vec![b(1), b(2)]);
    eng.on_send(0, MsgKind::EndOfRequests, 1, 0, 0, vec![]);
    n0.on_send(2, MsgKind::Answer, 1, 0, 0, vec![]);
    n0.on_send(2, MsgKind::EndTupleRequest, 1, 0, 0, vec![b(2)]);
    n0.on_send(2, MsgKind::EndTupleRequest, 1, 0, 0, vec![b(1)]);
    n0.on_send(2, MsgKind::End, 1, 0, 0, vec![]);
    assert_eq!(codes(&collect(3, &ring)), Vec::<&str>::new());
}

#[test]
fn request_before_open_fires_mp311() {
    let (_n0, _n1, mut eng, ring) = tracers();
    eng.on_send(0, MsgKind::TupleRequest, 1, 0, 0, vec![b(1)]);
    assert_eq!(codes(&collect(3, &ring)), vec!["MP311"]);
}

#[test]
fn request_after_end_of_requests_fires_mp312() {
    let (_n0, _n1, mut eng, ring) = tracers();
    eng.on_send(0, MsgKind::RelationRequest, 1, 0, 0, vec![]);
    eng.on_send(0, MsgKind::EndOfRequests, 1, 0, 0, vec![]);
    eng.on_send(0, MsgKind::TupleRequest, 1, 0, 0, vec![b(1)]);
    assert_eq!(codes(&collect(3, &ring)), vec!["MP312"]);
}

#[test]
fn answer_after_stream_end_fires_mp313() {
    let (mut n0, _n1, mut eng, ring) = tracers();
    open_and_request(&mut eng, vec![b(1)]);
    n0.on_send(2, MsgKind::EndTupleRequest, 1, 0, 0, vec![b(1)]);
    n0.on_send(2, MsgKind::End, 1, 0, 0, vec![]);
    n0.on_send(2, MsgKind::Answer, 1, 0, 0, vec![]); // undelivered, still a breach
    assert_eq!(codes(&collect(3, &ring)), vec!["MP313"]);
}

#[test]
fn a_binding_ended_twice_fires_mp314() {
    let (mut n0, _n1, mut eng, ring) = tracers();
    open_and_request(&mut eng, vec![b(1)]);
    n0.on_send(2, MsgKind::EndTupleRequest, 1, 0, 0, vec![b(1)]);
    n0.on_send(2, MsgKind::EndTupleRequest, 1, 0, 0, vec![b(1)]);
    assert_eq!(codes(&collect(3, &ring)), vec!["MP314"]);
}

#[test]
fn ending_a_binding_never_requested_fires_mp314() {
    let (mut n0, _n1, mut eng, ring) = tracers();
    open_and_request(&mut eng, vec![b(1)]);
    // A binding of the wrong type: `"1"` is not `1`.
    let sym = Tuple::from([mp_storage::Value::str("1")]);
    n0.on_send(2, MsgKind::EndTupleRequest, 1, 0, 0, vec![sym]);
    assert_eq!(codes(&collect(3, &ring)), vec!["MP314"]);
}

#[test]
fn stream_end_with_an_open_binding_fires_mp315() {
    let (mut n0, _n1, mut eng, ring) = tracers();
    open_and_request(&mut eng, vec![b(1), b(2)]);
    n0.on_send(2, MsgKind::EndTupleRequest, 1, 0, 0, vec![b(1)]);
    n0.on_send(2, MsgKind::End, 1, 0, 0, vec![]);
    assert_eq!(codes(&collect(3, &ring)), vec!["MP315"]);
}

#[test]
fn binding_mutations_survive_text_roundtrip() {
    let (mut n0, _n1, mut eng, ring) = tracers();
    open_and_request(&mut eng, vec![b(1)]);
    n0.on_send(2, MsgKind::EndTupleRequest, 1, 0, 0, vec![b(1)]);
    n0.on_send(2, MsgKind::EndTupleRequest, 1, 0, 0, vec![b(1)]);
    let reparsed = Trace::from_text(&collect(3, &ring).to_text()).unwrap();
    assert_eq!(codes(&reparsed), vec!["MP314"]);
}

/// A trace `mpq --workers 2 --trace` wrote before bindings were recorded:
/// transitive closure over a three-node cycle.
const V1: &str = include_str!("fixtures/v1.mptrace");

#[test]
fn a_v1_trace_passes_the_other_codes_without_binding_checks() {
    let t = Trace::from_text(V1).unwrap();
    assert!(!t.with_bindings);
    assert_eq!(codes(&t), Vec::<&str>::new());
    assert_eq!(t.to_text(), V1, "a v1 trace writes back as v1");
    // The other codes still run: shrink a relation.
    let mut shrunk = t.clone();
    let stored = |e: &mp_trace::Event| match e.kind {
        mp_trace::EventKind::Store { rel, .. } => Some((e.actor, rel)),
        _ => None,
    };
    let mut seen = std::collections::BTreeSet::new();
    let again = (shrunk.events.iter())
        .position(|e| stored(e).is_some_and(|key| !seen.insert(key)))
        .expect("the fixture stores twice into one relation");
    if let mp_trace::EventKind::Store { size, .. } = &mut shrunk.events[again].kind {
        *size = 0;
    }
    assert_eq!(codes(&shrunk), vec!["MP306"]);
}

#[test]
fn mp_check_reports_the_skipped_binding_checks_on_a_v1_trace() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v1.mptrace");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mp-check"))
        .arg(fixture)
        .output()
        .expect("mp-check runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(
        stderr.lines().filter(|l| l.contains("skipped")).count(),
        1,
        "{stderr}"
    );
    assert!(stderr.contains("MP311–MP315"), "{stderr}");
}
