//! Offline trace checking: replay a recorded [`Trace`] against the
//! protocol invariant suite and report violations as `mp-lint`-style
//! diagnostics (codes MP301–MP309, all deny-level).
//!
//! The invariants, and the paper conditions they enforce:
//!
//! * **MP301** clock soundness — per-actor Lamport clocks strictly
//!   increase, vector clocks never regress, and every delivery strictly
//!   dominates its matching send (happens-before).
//! * **MP302** seq/ack consistency — the delivered logical sequence
//!   numbers on each link form a gap-free prefix `{0..k}`, and
//!   cumulative acks never regress (PR 3 recovery transport).
//! * **MP303** no `Answer` after `End` at the engine (Thm 3.1 safety).
//! * **MP304** probe-wave discipline — every delivered wave reply names
//!   a `(wave, epoch)` the receiver actually requested, and wave/epoch
//!   pairs advance monotonically at each leader (§3.2).
//! * **MP305** per-link FIFO — delivered sequence numbers never go
//!   backwards.
//! * **MP306** monotone flow — node-local relations only grow (§4,
//!   Thm 4.1).
//! * **MP307** recover requires a preceding crash.
//! * **MP308** exactly-once — no logical sequence number is delivered
//!   twice on one link (duplicates must die in transport dedup).
//! * **MP309** batching invariance — matched send/deliver pairs agree on
//!   kind and logical item count (PR 4 logical counters).
//! * **MP310** cancel discipline — after a node delivers (acks) a
//!   `Cancel` wave epoch it must not emit another `Answer` frame
//!   (PR 8 resource governance: cancelled nodes drain, never produce).
//!
//! The §3.1 stream discipline, per arc, over the send events and their
//! bindings (skipped on an `mptrace v1` trace, which has no bindings):
//!
//! * **MP311** the relation request precedes every tuple request;
//! * **MP312** no tuple request follows end-of-requests;
//! * **MP313** no answer or per-binding end follows the stream's `End`;
//! * **MP314** each per-binding end answers a binding requested on the
//!   reverse arc, and ends it once;
//! * **MP315** when a stream ends, every binding requested on it has
//!   been ended (§3.2's per-binding bookkeeping is complete).
//!
//! **Actor identity under sharding.** A trace actor is a *physical*
//! process id. At `--shards K > 1` each request-keyed node contributes
//! `K` actors — the `(node, shard)` instances of the engine's
//! `Network::shard_of` map — so every invariant above applies per shard
//! instance and per shard link, with no special cases: clocks, seq/ack
//! prefixes, FIFO, exactly-once, and cancel discipline are checked on
//! each instance exactly as on an unsharded node, and the two-level
//! termination wave is just MP304's wave discipline over the
//! captain-extended spanning tree.

use crate::event::{EventKind, MsgKind, Trace, NO_SEQ};
use mp_lint::{Code, Diagnostic};
use mp_storage::Tuple;
use std::collections::{BTreeMap, BTreeSet};

/// Logical message counts reconstructed from a trace's `Send` events.
/// Mirrors the batching-invariant `logical_*` counters in
/// `mp_engine::Stats`, so an engine run and its trace can be
/// cross-checked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogicalCounts {
    /// Logical tuple requests (a frame counts its items).
    pub tuple_requests: u64,
    /// Logical answers.
    pub answers: u64,
    /// Logical end-tuple-requests.
    pub end_tuple_requests: u64,
}

/// Sum the logical data-plane traffic recorded in `trace`.
pub fn logical_counts(trace: &Trace) -> LogicalCounts {
    let mut c = LogicalCounts::default();
    for e in &trace.events {
        if let EventKind::Send { kind, items, .. } = e.kind {
            match kind {
                MsgKind::TupleRequest => c.tuple_requests += items,
                MsgKind::Answer => c.answers += items,
                MsgKind::EndTupleRequest => c.end_tuple_requests += items,
                _ => {}
            }
        }
    }
    c
}

#[derive(Default)]
struct LinkState {
    /// Send events on this link: link_seq → (event index, kind, items,
    /// lamport, vclock).
    sends: BTreeMap<u64, (usize, MsgKind, u64, u64, Vec<u64>)>,
    delivered: BTreeSet<u64>,
    max_delivered: Option<u64>,
}

/// The §3.1 state of one stream, keyed `(customer, feeder)`: requests
/// travel customer → feeder, answers and ends feeder → customer.
#[derive(Default)]
struct StreamState {
    opened: bool,
    end_of_requests: bool,
    ended: bool,
    requested: BTreeSet<Tuple>,
    binding_ends: BTreeSet<Tuple>,
}

/// MP311–MP315 for send event `i` of `kind` on the arc `from → to`.
fn check_stream(
    i: usize,
    (from, to): (u32, u32),
    kind: MsgKind,
    bindings: &[Tuple],
    streams: &mut BTreeMap<(u32, u32), StreamState>,
    out: &mut Vec<Diagnostic>,
) {
    use MsgKind::*;
    let down = matches!(kind, RelationRequest | TupleRequest | EndOfRequests);
    let s = streams
        .entry(if down { (from, to) } else { (to, from) })
        .or_default();
    let mut fire = |code, what: String| {
        let note = match code {
            Code::TraceRequestBeforeOpen => "§3.1: the relation request opens the stream",
            Code::TraceRequestAfterEndOfRequests => "end-of-requests promises no more requests",
            Code::TraceSendAfterStreamEnd => "End certifies that the stream is complete",
            Code::TraceBadBindingEnd => "§3.2: a per-binding end answers one request, once",
            _ => "§3.2: a stream ends after every binding requested on it",
        };
        let msg = format!("event {i}: {what} on arc {from} -> {to}");
        out.push(diag(code, msg, note));
    };
    match kind {
        RelationRequest => s.opened = true,
        EndOfRequests => s.end_of_requests = true,
        TupleRequest => {
            if !s.opened {
                fire(Code::TraceRequestBeforeOpen, "request before open".into());
            }
            if s.end_of_requests {
                fire(
                    Code::TraceRequestAfterEndOfRequests,
                    "request after end".into(),
                );
            }
            s.requested.extend(bindings.iter().cloned());
        }
        Answer | EndTupleRequest => {
            if s.ended {
                fire(Code::TraceSendAfterStreamEnd, format!("{kind} after End"));
            }
            for b in bindings {
                if !s.requested.contains(b) {
                    fire(Code::TraceBadBindingEnd, format!("end of unrequested {b}"));
                } else if !s.binding_ends.insert(b.clone()) {
                    fire(Code::TraceBadBindingEnd, format!("second end of {b}"));
                }
            }
        }
        End => {
            s.ended = true;
            let mut open = s.requested.difference(&s.binding_ends);
            if let Some(b) = open.next() {
                let n = 1 + open.count();
                fire(
                    Code::TraceOpenBindingAtEnd,
                    format!("End with {n} open, {b} first,"),
                );
            }
        }
        _ => {}
    }
}

#[derive(Default)]
struct ActorState {
    last_lamport: Option<u64>,
    last_vclock: Vec<u64>,
    crashes: u64,
    recovers: u64,
    /// `(wave, epoch)` pairs this actor has requested via `EndRequest`.
    requested: BTreeSet<(u64, u64)>,
    /// Last completed `(epoch, wave)` at this actor as a leader.
    last_wave: Option<(u64, u64)>,
    /// Relation sizes: rel → last size.
    rel_sizes: BTreeMap<u32, u64>,
    /// Cumulative ack points: peer → last upto.
    acks: BTreeMap<u32, u64>,
    end_seen: bool,
    /// The cancel-wave epoch this actor acked, if any (sticky: log
    /// replay re-delivers the cancel to a reborn node).
    cancelled_epoch: Option<u64>,
}

fn diag(code: Code, msg: String, note: &str) -> Diagnostic {
    Diagnostic::new(code, msg).with_note(note.to_string())
}

/// Check every invariant against `trace`. An empty result means the
/// recorded execution is consistent with the protocol; each violation
/// becomes one deny-level diagnostic naming the event index.
pub fn check(trace: &Trace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if trace.dropped > 0 {
        out.push(diag(
            Code::TraceSeqGap,
            format!(
                "trace is incomplete: {} event(s) were dropped by the ring buffer",
                trace.dropped
            ),
            "re-record with a larger ring; invariants cannot be checked on a lossy trace",
        ));
        return out;
    }

    let engine = trace.engine_actor();
    let mut actors: BTreeMap<u32, ActorState> = BTreeMap::new();
    let mut links: BTreeMap<(u32, u32), LinkState> = BTreeMap::new();
    let mut streams: BTreeMap<(u32, u32), StreamState> = BTreeMap::new();

    for (i, e) in trace.events.iter().enumerate() {
        let a = actors.entry(e.actor).or_default();

        // MP301: per-actor clock discipline.
        if let Some(prev) = a.last_lamport {
            if e.lamport <= prev {
                out.push(diag(
                    Code::TraceClockRegression,
                    format!(
                        "event {i}: actor {} Lamport clock regressed ({prev} -> {})",
                        e.actor, e.lamport
                    ),
                    "Lamport clocks must strictly increase along each actor's history",
                ));
            }
        }
        if !a.last_vclock.is_empty() {
            let own = e.actor as usize;
            let get = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
            let n = a.last_vclock.len().max(e.vclock.len());
            let regressed = (0..n).any(|c| get(&e.vclock, c) < get(&a.last_vclock, c));
            let own_advanced = get(&e.vclock, own) > get(&a.last_vclock, own);
            if regressed || !own_advanced {
                out.push(diag(
                    Code::TraceClockRegression,
                    format!("event {i}: actor {} vector clock regressed", e.actor),
                    "an actor's own component must strictly increase and no \
                     component may decrease",
                ));
            }
        }
        a.last_lamport = Some(e.lamport);
        a.last_vclock = e.vclock.clone();

        match &e.kind {
            EventKind::Send {
                to,
                kind,
                items,
                link_seq,
                wave,
                epoch,
                bindings,
            } => {
                if trace.with_bindings {
                    check_stream(i, (e.actor, *to), *kind, bindings, &mut streams, &mut out);
                }
                let link = links.entry((e.actor, *to)).or_default();
                let expected = link.sends.len() as u64;
                if *link_seq != expected {
                    out.push(diag(
                        Code::TraceSeqGap,
                        format!(
                            "event {i}: link {} -> {to} send sequence jumped to {link_seq} \
                             (expected {expected})",
                            e.actor
                        ),
                        "logical link sequence numbers count up from 0 without gaps",
                    ));
                }
                link.sends
                    .insert(*link_seq, (i, *kind, *items, e.lamport, e.vclock.clone()));
                if *kind == MsgKind::EndRequest {
                    a.requested.insert((*wave, *epoch));
                }
                // MP310: a cancelled node's answer stream is closed.
                if *kind == MsgKind::Answer && e.actor != engine {
                    if let Some(ce) = a.cancelled_epoch {
                        out.push(diag(
                            Code::TraceAnswerAfterCancel,
                            format!(
                                "event {i}: actor {} sent {kind} after acking cancel \
                                 wave epoch {ce}",
                                e.actor
                            ),
                            "a cancelled node drains the protocol but must never \
                             produce more answers",
                        ));
                    }
                }
            }
            EventKind::Deliver {
                from,
                kind,
                items,
                link_seq,
                wave,
                epoch,
            } => {
                // MP303: the engine's answer stream is closed by End.
                if e.actor == engine {
                    if *kind == MsgKind::Answer && a.end_seen {
                        out.push(diag(
                            Code::TraceAnswerAfterEnd,
                            format!("event {i}: engine received an answer after End"),
                            "Thm 3.1: End certifies the answer stream is complete",
                        ));
                    }
                    if *kind == MsgKind::End {
                        a.end_seen = true;
                    }
                }

                // MP310: record the acked cancel-wave epoch.
                if *kind == MsgKind::Cancel {
                    a.cancelled_epoch = Some(a.cancelled_epoch.map_or(*epoch, |c| c.max(*epoch)));
                }

                // MP304: wave replies must name a requested (wave, epoch).
                if matches!(kind, MsgKind::EndNegative | MsgKind::EndConfirmed)
                    && !a.requested.contains(&(*wave, *epoch))
                {
                    out.push(diag(
                        Code::TraceStaleEpoch,
                        format!(
                            "event {i}: actor {} accepted a {kind} for wave {wave} \
                             epoch {epoch} it never requested",
                            e.actor
                        ),
                        "§3.2: replies to stale probe waves must be dropped, not delivered",
                    ));
                }

                if *link_seq != NO_SEQ {
                    let link = links.entry((*from, e.actor)).or_default();
                    if link.delivered.contains(link_seq) {
                        out.push(diag(
                            Code::TraceDuplicateDelivery,
                            format!(
                                "event {i}: link {from} -> {} delivered seq {link_seq} twice",
                                e.actor
                            ),
                            "transport dedup must make logical delivery exactly-once",
                        ));
                    } else {
                        if let Some(max) = link.max_delivered {
                            if *link_seq < max {
                                out.push(diag(
                                    Code::TraceFifoViolation,
                                    format!(
                                        "event {i}: link {from} -> {} delivered seq {link_seq} \
                                         after seq {max}",
                                        e.actor
                                    ),
                                    "per-link delivery must be FIFO",
                                ));
                            }
                        }
                        link.max_delivered =
                            Some(link.max_delivered.map_or(*link_seq, |m| m.max(*link_seq)));
                        link.delivered.insert(*link_seq);
                    }

                    // MP301 / MP309: match against the send.
                    match link.sends.get(link_seq) {
                        Some((si, skind, sitems, slamport, svclock)) => {
                            let dominates = {
                                let get = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
                                let n = e.vclock.len().max(svclock.len());
                                (0..n).all(|c| get(&e.vclock, c) >= get(svclock, c))
                            };
                            if e.lamport <= *slamport || !dominates {
                                out.push(diag(
                                    Code::TraceClockRegression,
                                    format!(
                                        "event {i}: delivery does not happen-after its send \
                                         (event {si})"
                                    ),
                                    "a delivery must strictly dominate its send in both clocks",
                                ));
                            }
                            if skind != kind || sitems != items {
                                out.push(diag(
                                    Code::TraceCountMismatch,
                                    format!(
                                        "event {i}: delivered {kind} x{items} but event {si} \
                                         sent {skind} x{sitems}"
                                    ),
                                    "batching must preserve logical message kind and count",
                                ));
                            }
                        }
                        None => out.push(diag(
                            Code::TraceClockRegression,
                            format!(
                                "event {i}: link {from} -> {} delivered seq {link_seq} \
                                 with no recorded send",
                                e.actor
                            ),
                            "every delivery must be caused by a send",
                        )),
                    }
                }
            }
            EventKind::Ack { peer, upto } => {
                let last = a.acks.entry(*peer).or_insert(0);
                if *upto < *last {
                    out.push(diag(
                        Code::TraceSeqGap,
                        format!(
                            "event {i}: actor {} ack to peer {peer} regressed ({last} -> {upto})",
                            e.actor
                        ),
                        "cumulative acks are monotone",
                    ));
                }
                *last = (*last).max(*upto);
            }
            EventKind::Flush { .. } => {}
            EventKind::Crash { .. } => a.crashes += 1,
            EventKind::Recover { .. } => {
                a.recovers += 1;
                if a.recovers > a.crashes {
                    out.push(diag(
                        Code::TraceOrphanRecover,
                        format!(
                            "event {i}: actor {} recovered without a preceding crash",
                            e.actor
                        ),
                        "recovery replays a crash's durable log; without a crash there \
                         is nothing to recover from",
                    ));
                }
            }
            EventKind::Wave { wave, epoch } => {
                if let Some((le, lw)) = a.last_wave {
                    if (*epoch, *wave) <= (le, lw) {
                        out.push(diag(
                            Code::TraceStaleEpoch,
                            format!(
                                "event {i}: actor {} completed wave {wave} epoch {epoch} \
                                 after wave {lw} epoch {le}",
                                e.actor
                            ),
                            "probe waves are totally ordered per leader: (epoch, wave) \
                             must strictly increase",
                        ));
                    }
                }
                a.last_wave = Some((*epoch, *wave));
            }
            EventKind::Store { rel, size } => {
                let last = a.rel_sizes.entry(*rel).or_insert(0);
                if *size < *last {
                    out.push(diag(
                        Code::TraceShrinkingRelation,
                        format!(
                            "event {i}: actor {} relation {rel} shrank ({last} -> {size})",
                            e.actor
                        ),
                        "§4 / Thm 4.1: temporary relations only grow (monotone flow)",
                    ));
                }
                *last = (*last).max(*size);
            }
            EventKind::End => {
                if e.actor == engine {
                    a.end_seen = true;
                }
            }
        }
    }

    // MP302: end-of-trace — delivered seqs per link must be a gap-free
    // prefix {0..k}. Trailing sends that never delivered are fine (the
    // run shut down with frames in flight); holes are not.
    for ((from, to), link) in &links {
        if let Some(max) = link.max_delivered {
            for missing in (0..max).filter(|s| !link.delivered.contains(s)) {
                out.push(diag(
                    Code::TraceSeqGap,
                    format!(
                        "link {from} -> {to}: seq {missing} was never delivered but \
                             seq {max} was"
                    ),
                    "the recovery transport delivers each link's messages as a \
                     gap-free in-order prefix",
                ));
            }
        }
    }

    mp_lint::sort_diagnostics(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Stamp};
    use crate::record::{collect, Tracer};
    use crate::ring::Ring;
    use std::sync::Arc;

    /// A tiny but complete synthetic execution: engine (actor 2) sends a
    /// request to node 0, node 0 stores and answers via node 1, waves
    /// run, End closes the stream.
    fn clean_trace() -> Trace {
        let ring = Arc::new(Ring::with_capacity(1 << 10));
        let mut n0 = Tracer::new(0, 3, Arc::clone(&ring));
        let mut n1 = Tracer::new(1, 3, Arc::clone(&ring));
        let mut eng = Tracer::new(2, 3, Arc::clone(&ring));

        let s = eng.on_send(0, MsgKind::RelationRequest, 1, 0, 0, vec![]);
        n0.on_deliver(2, Some(&s), MsgKind::RelationRequest, 1, 0, 0);
        n0.on_store(0, 1);
        n0.on_store(0, 2);
        let s = n0.on_send(1, MsgKind::Answer, 2, 0, 0, vec![]);
        n0.on_flush(2);
        n1.on_deliver(0, Some(&s), MsgKind::Answer, 2, 0, 0);
        let s = n1.on_send(2, MsgKind::Answer, 1, 0, 0, vec![]);
        eng.on_deliver(1, Some(&s), MsgKind::Answer, 1, 0, 0);
        let s = n0.on_send(1, MsgKind::EndRequest, 1, 1, 0, vec![]);
        n0.on_wave(1, 0);
        n1.on_deliver(0, Some(&s), MsgKind::EndRequest, 1, 1, 0);
        let s = n1.on_send(2, MsgKind::End, 1, 0, 0, vec![]);
        eng.on_deliver(1, Some(&s), MsgKind::End, 1, 0, 0);
        eng.on_end();
        collect(3, &ring)
    }

    #[test]
    fn clean_synthetic_trace_passes() {
        let t = clean_trace();
        let diags = check(&t);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn logical_counts_sum_frame_items() {
        let t = clean_trace();
        let c = logical_counts(&t);
        assert_eq!(c.answers, 3); // one frame of 2 + one frame of 1
        assert_eq!(c.tuple_requests, 0);
    }

    #[test]
    fn dropped_events_invalidate_the_trace() {
        let mut t = clean_trace();
        t.dropped = 7;
        let diags = check(&t);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::TraceSeqGap);
    }

    #[test]
    fn crash_recover_pair_is_clean() {
        let ring = Arc::new(Ring::with_capacity(64));
        let mut n0 = Tracer::new(0, 2, Arc::clone(&ring));
        n0.on_crash(1);
        n0.on_recover(1, 4);
        let t = collect(2, &ring);
        assert!(check(&t).is_empty());
    }

    #[test]
    fn unstamped_delivery_skips_link_checks() {
        let ring = Arc::new(Ring::with_capacity(64));
        let mut n0 = Tracer::new(0, 2, Arc::clone(&ring));
        n0.on_deliver(1, None, MsgKind::Answer, 1, 0, 0);
        let t = collect(2, &ring);
        assert!(check(&t).is_empty());
    }

    #[test]
    fn trailing_undelivered_sends_are_fine() {
        let ring = Arc::new(Ring::with_capacity(64));
        let mut n0 = Tracer::new(0, 2, Arc::clone(&ring));
        let mut n1 = Tracer::new(1, 2, Arc::clone(&ring));
        let s0 = n0.on_send(1, MsgKind::Answer, 1, 0, 0, vec![]);
        let _s1 = n0.on_send(1, MsgKind::Answer, 1, 0, 0, vec![]); // in flight at shutdown
        n1.on_deliver(0, Some(&s0), MsgKind::Answer, 1, 0, 0);
        let t = collect(2, &ring);
        assert!(check(&t).is_empty());
    }

    #[test]
    fn hand_built_events_need_no_tracer() {
        // The checker runs on parsed traces too (no Stamp machinery).
        let t = Trace {
            n_actors: 2,
            dropped: 0,
            with_bindings: true,
            events: vec![Event {
                actor: 0,
                lamport: 1,
                vclock: vec![1, 0],
                kind: EventKind::Store { rel: 0, size: 5 },
            }],
        };
        assert!(check(&t).is_empty());
        let _ = Stamp {
            lamport: 1,
            vclock: vec![1, 0],
            link_seq: 0,
        };
    }
}
