//! Per-actor event recording.
//!
//! Each runtime actor (graph node or engine) owns one [`Tracer`]. The
//! tracer maintains the actor's Lamport clock, vector clock, and
//! per-destination logical link sequence counters, and pushes stamped
//! [`Event`]s into a shared [`Ring`]. Recording is branch-cheap: when
//! tracing is off the runtimes simply hold no tracer.
//!
//! Clock discipline (standard Lamport/Fidge-Mattern):
//! * every recorded event ticks the local Lamport clock and the actor's
//!   own vector-clock component;
//! * a send captures the post-tick clocks into a [`Stamp`] that travels
//!   with the logical message;
//! * a delivery first merges the stamp's clocks (`lamport =
//!   max(local, stamp) `, component-wise max for the vector), then ticks.

use crate::clock::VClock;
use crate::event::{Event, EventKind, MsgKind, Stamp, Trace, NO_SEQ};
use crate::ring::Ring;
use mp_storage::Tuple;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Event recorder for one actor.
#[derive(Clone)]
pub struct Tracer {
    actor: u32,
    lamport: u64,
    vclock: VClock,
    /// Next logical sequence number per destination actor.
    link_out: BTreeMap<u32, u64>,
    ring: Arc<Ring<Event>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("actor", &self.actor)
            .field("lamport", &self.lamport)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer for `actor` in a network of `n_actors`, recording into
    /// the shared `ring`.
    pub fn new(actor: u32, n_actors: u32, ring: Arc<Ring<Event>>) -> Self {
        Tracer {
            actor,
            lamport: 0,
            vclock: VClock::new(n_actors as usize),
            link_out: BTreeMap::new(),
            ring,
        }
    }

    fn tick(&mut self) {
        self.lamport += 1;
        self.vclock.tick(self.actor as usize);
    }

    fn emit(&mut self, kind: EventKind) {
        let _ = self.ring.push(Event {
            actor: self.actor,
            lamport: self.lamport,
            vclock: self.vclock.0.clone(),
            kind,
        });
    }

    /// Record a logical send, with its bindings in send order when its
    /// kind carries them (else empty); returns the stamp to carry
    /// alongside the message to its delivery site.
    pub fn on_send(
        &mut self,
        to: u32,
        kind: MsgKind,
        items: u64,
        wave: u64,
        epoch: u64,
        bindings: Vec<Tuple>,
    ) -> Stamp {
        self.tick();
        let seq = self.link_out.entry(to).or_insert(0);
        let link_seq = *seq;
        *seq += 1;
        self.emit(EventKind::Send {
            to,
            kind,
            items,
            link_seq,
            wave,
            epoch,
            bindings,
        });
        Stamp {
            lamport: self.lamport,
            vclock: self.vclock.0.clone(),
            link_seq,
        }
    }

    /// Record a logical delivery (post transport dedup/reorder), merging
    /// the sender's stamp into the local clocks.
    pub fn on_deliver(
        &mut self,
        from: u32,
        stamp: Option<&Stamp>,
        kind: MsgKind,
        items: u64,
        wave: u64,
        epoch: u64,
    ) {
        let link_seq = match stamp {
            Some(s) => {
                self.lamport = self.lamport.max(s.lamport);
                self.vclock.merge(&s.vclock);
                s.link_seq
            }
            None => NO_SEQ,
        };
        self.tick();
        self.emit(EventKind::Deliver {
            from,
            kind,
            items,
            link_seq,
            wave,
            epoch,
        });
    }

    /// Record a cumulative transport ack sent to `peer`.
    pub fn on_ack(&mut self, peer: u32, upto: u64) {
        self.tick();
        self.emit(EventKind::Ack { peer, upto });
    }

    /// Record a batch-buffer flush of `items` tuples into one frame.
    pub fn on_flush(&mut self, items: u64) {
        self.tick();
        self.emit(EventKind::Flush { items });
    }

    /// Record a crash (volatile state lost; the node will rejoin with
    /// `epoch`).
    pub fn on_crash(&mut self, epoch: u64) {
        self.tick();
        self.emit(EventKind::Crash { epoch });
    }

    /// Record recovery completion after replaying `replayed` logged
    /// messages.
    pub fn on_recover(&mut self, epoch: u64, replayed: u64) {
        self.tick();
        self.emit(EventKind::Recover { epoch, replayed });
    }

    /// Record a completed termination probe wave at its leader.
    pub fn on_wave(&mut self, wave: u64, epoch: u64) {
        self.tick();
        self.emit(EventKind::Wave { wave, epoch });
    }

    /// Record a tuple stored into relation `rel`, now holding `size`
    /// tuples.
    pub fn on_store(&mut self, rel: u32, size: u64) {
        self.tick();
        self.emit(EventKind::Store { rel, size });
    }

    /// Record the engine observing the final `End`.
    pub fn on_end(&mut self) {
        self.tick();
        self.emit(EventKind::End);
    }
}

/// Assemble the final [`Trace`] by draining the shared ring. Call once,
/// after every producer has quiesced.
pub fn collect(n_actors: u32, ring: &Ring<Event>) -> Trace {
    Trace {
        n_actors,
        events: ring.drain(),
        dropped: ring.dropped(),
        with_bindings: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Causality;

    #[test]
    fn send_deliver_establishes_happens_before() {
        let ring = Arc::new(Ring::with_capacity(64));
        let mut a = Tracer::new(0, 3, Arc::clone(&ring));
        let mut b = Tracer::new(1, 3, Arc::clone(&ring));

        let stamp = a.on_send(1, MsgKind::Answer, 1, 0, 0, vec![]);
        b.on_deliver(0, Some(&stamp), MsgKind::Answer, 1, 0, 0);

        let t = collect(3, &ring);
        assert_eq!(t.events.len(), 2);
        let (send, deliver) = (&t.events[0], &t.events[1]);
        assert!(deliver.lamport > send.lamport);
        assert_eq!(
            VClock(deliver.vclock.clone()).compare(&send.vclock),
            Causality::After
        );
    }

    #[test]
    fn link_seqs_count_per_destination() {
        let ring = Arc::new(Ring::with_capacity(64));
        let mut a = Tracer::new(0, 3, ring);
        assert_eq!(a.on_send(1, MsgKind::Answer, 1, 0, 0, vec![]).link_seq, 0);
        assert_eq!(a.on_send(2, MsgKind::Answer, 1, 0, 0, vec![]).link_seq, 0);
        assert_eq!(a.on_send(1, MsgKind::Answer, 1, 0, 0, vec![]).link_seq, 1);
    }

    #[test]
    fn collect_reports_drops() {
        let ring = Arc::new(Ring::with_capacity(2));
        let mut a = Tracer::new(0, 1, Arc::clone(&ring));
        for _ in 0..5 {
            a.on_flush(1);
        }
        let t = collect(1, &ring);
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 3);
    }
}
