//! The message set (§3.1 and §3.2).

use mp_rulegoal::NodeId;
use mp_storage::Tuple;

/// A message endpoint: a graph node or the engine itself (the top-level
/// goal node's customer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// A rule/goal graph node.
    Node(NodeId),
    /// The engine driving the query.
    Engine,
}

impl Endpoint {
    /// The node id, if this endpoint is a node.
    pub fn node(self) -> Option<NodeId> {
        match self {
            Endpoint::Node(n) => Some(n),
            Endpoint::Engine => None,
        }
    }
}

/// The items of one tuple-carrying frame, in send order. The only code
/// that knows a frame may hold one item or several: a single item
/// travels inline, because a `Vec` of one on every frame is a
/// malloc/free per message (measured +12 % `op_ms_p50` on the
/// benchmark's `tc-fanout`; see DESIGN.md "Batched frames").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pack {
    /// One item.
    One(Tuple),
    /// Several items.
    Many(Vec<Tuple>),
}

impl Pack {
    /// Drain an arc buffer into a frame's worth of items, or `None` if
    /// it is empty. A singleton is popped, so the buffer keeps its
    /// capacity for the next push.
    pub fn take(buf: &mut Vec<Tuple>) -> Option<Pack> {
        match buf.len() {
            0 => None,
            1 => buf.pop().map(Pack::One),
            _ => Some(Pack::Many(std::mem::take(buf))),
        }
    }
}

/// The items as a slice, in send order (so `len()` is the number of
/// logical items carried).
impl std::ops::Deref for Pack {
    type Target = [Tuple];

    fn deref(&self) -> &[Tuple] {
        match self {
            Pack::One(t) => std::slice::from_ref(t),
            Pack::Many(ts) => ts,
        }
    }
}

impl IntoIterator for Pack {
    type Item = Tuple;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Tuple>, std::vec::IntoIter<Tuple>>;

    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self {
            Pack::One(t) => (Some(t), Vec::new()),
            Pack::Many(ts) => (None, ts),
        };
        one.into_iter().chain(many)
    }
}

/// Message payloads. Since every subgoal occurrence has its own node, the
/// `(from, to)` pair identifies the arc a message travels on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    // ---- downward: customer → feeder (against the arcs) ----
    /// Open the stream on this arc; "triggers the beginning of
    /// computation and identifies the classes of the arguments" (§3.1).
    /// Classes are static here, so the message carries nothing.
    RelationRequest,
    /// Tuple requests: each item is one binding for all the feeder's
    /// class-`d` arguments, aligned with the feeder label's `d` positions
    /// (the unit tuple when the adornment has none). Several bindings in
    /// one frame are §3.1 footnote 2's "package" of related requests;
    /// the meaning is that of sending each binding on its own, in order.
    TupleRequests(Pack),
    /// No further tuple requests will ever be sent on this arc.
    EndOfRequests,

    // ---- upward: feeder → customer (with the arcs) ----
    /// Derived tuples, each aligned with the feeder label's transmitted
    /// (non-`e`) positions, in the order they were produced. One mailbox
    /// delivery and one fault-transport frame (one seq, one ack, one
    /// checksum) however many tuples the frame carries.
    Answers(Pack),
    /// All answers for each of these previously sent tuple requests have
    /// been delivered ("it can produce no more tuples for a particular
    /// tuple request", §3.2). Items are the bindings being completed.
    EndTupleRequests(Pack),
    /// The whole stream on this arc is complete.
    End,

    // ---- §3.2 termination protocol, within one strong component ----
    /// Probe wave sent down the BFST by the leader.
    EndRequest {
        /// Wave number (diagnostics; the protocol serializes waves).
        wave: u64,
        /// Leader restart generation. A reply whose epoch differs from
        /// the receiver's current epoch is stale and dropped, so a
        /// restarted node can never acknowledge a pre-crash idleness
        /// wave (Thm 3.1 under faults; see DESIGN.md).
        epoch: u64,
    },
    /// A subtree is not yet confirmably idle.
    EndNegative {
        /// Wave number.
        wave: u64,
        /// Epoch of the wave being answered.
        epoch: u64,
    },
    /// A subtree has been idle through two consecutive waves. Carries
    /// Mattern-style counters of intra-component work messages as a
    /// hardening check for the threaded runtime (the 1986 atomic-mailbox
    /// model needs none; see DESIGN.md).
    EndConfirmed {
        /// Wave number.
        wave: u64,
        /// Epoch of the wave being answered.
        epoch: u64,
        /// Total intra-component work messages sent by the subtree.
        sent: u64,
        /// Total intra-component work messages received by the subtree.
        received: u64,
    },
    /// Broadcast down the BFST after the leader concludes: the component
    /// is finished; members release their external feeders.
    SccFinished,

    /// A restarted component member announces its rebirth to its BFST
    /// parent (or, from the leader, to nobody — the leader just bumps
    /// its epoch). The parent treats it as a negative reply for any wave
    /// in flight, so a crash in the middle of a probe wave aborts the
    /// wave instead of deadlocking it.
    Reborn {
        /// The reborn node's new epoch.
        epoch: u64,
    },

    /// Engine → every node (and node → BFST children within a strong
    /// component): abandon the query. A cancelled node clears its
    /// outgoing buffers, stops emitting answers, and keeps draining the
    /// termination protocol so the network reaches quiescence instead of
    /// wedging. Epoch-tagged like the §3.2 probe waves: a reborn node
    /// re-learns cancellation from its durable log replay, so a crash in
    /// the middle of a cancel wave still drains.
    Cancel {
        /// Cancel wave number (diagnostics; one wave per trip/cancel).
        wave: u64,
        /// Engine cancel generation (tags the wave for MP310).
        epoch: u64,
    },

    /// Engine → node: exit (threaded runtime only).
    Shutdown,
}

impl Payload {
    /// True for the §3.2 protocol messages (excluded from the "work
    /// message" counters that the protocol itself aggregates).
    pub fn is_protocol(&self) -> bool {
        matches!(
            self,
            Payload::EndRequest { .. }
                | Payload::EndNegative { .. }
                | Payload::EndConfirmed { .. }
                | Payload::SccFinished
                | Payload::Reborn { .. }
                | Payload::Cancel { .. }
        )
    }

    /// Approximate heap footprint of this payload, for the memory
    /// budget's mailbox accounting: tuple payloads (Arc header + values)
    /// plus a flat per-message overhead. Deterministic arithmetic over
    /// message shape — an estimate, not an allocator census.
    pub fn approx_bytes(&self) -> u64 {
        const MSG: u64 = 48; // enum discriminant + queue-slot overhead
        fn tup(t: &Tuple) -> u64 {
            16 + 8 * t.arity() as u64
        }
        MSG + match self {
            Payload::TupleRequests(p) | Payload::Answers(p) | Payload::EndTupleRequests(p) => {
                match p {
                    Pack::One(t) => tup(t),
                    Pack::Many(ts) => 24 + ts.iter().map(tup).sum::<u64>(),
                }
            }
            _ => 0,
        }
    }

    /// Short name for stats buckets.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Payload::RelationRequest => "relation_request",
            Payload::TupleRequests(_) => "tuple_request",
            Payload::EndOfRequests => "end_of_requests",
            Payload::Answers(_) => "answer",
            Payload::EndTupleRequests(_) => "end_tuple_request",
            Payload::End => "end",
            Payload::EndRequest { .. } => "end_request",
            Payload::EndNegative { .. } => "end_negative",
            Payload::EndConfirmed { .. } => "end_confirmed",
            Payload::SccFinished => "scc_finished",
            Payload::Reborn { .. } => "reborn",
            Payload::Cancel { .. } => "cancel",
            Payload::Shutdown => "shutdown",
        }
    }
}

/// A routed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Msg {
    /// Sender.
    pub from: Endpoint,
    /// Recipient.
    pub to: Endpoint,
    /// Payload.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_storage::tuple;

    #[test]
    fn protocol_classification() {
        assert!(Payload::EndRequest { wave: 1, epoch: 0 }.is_protocol());
        assert!(Payload::SccFinished.is_protocol());
        assert!(Payload::Reborn { epoch: 1 }.is_protocol());
        assert!(Payload::Cancel { wave: 1, epoch: 0 }.is_protocol());
        assert!(!Payload::Answers(Pack::One(tuple![1])).is_protocol());
        assert!(!Payload::End.is_protocol());
    }

    #[test]
    fn endpoint_helpers() {
        assert_eq!(Endpoint::Node(3).node(), Some(3));
        assert_eq!(Endpoint::Engine.node(), None);
    }

    /// Every mailbox slot, unacked-window entry and durable-log entry
    /// holds a `Msg`: the packed shape must not grow it (40 and 72 bytes
    /// with the six scalar/batch variants).
    #[test]
    fn the_packed_shape_does_not_grow_a_message() {
        assert!(std::mem::size_of::<Payload>() <= 40);
        assert!(std::mem::size_of::<Msg>() <= 72);
    }

    #[test]
    fn take_pops_a_singleton_and_keeps_the_buffer() {
        let mut buf = Vec::with_capacity(8);
        assert_eq!(Pack::take(&mut buf), None);
        buf.push(tuple![1]);
        assert_eq!(Pack::take(&mut buf), Some(Pack::One(tuple![1])));
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 8);
    }

    #[test]
    fn take_and_iteration_keep_push_order() {
        let items = vec![tuple![3], tuple![1], tuple![2]];
        let mut buf = items.clone();
        let pack = Pack::take(&mut buf).unwrap();
        assert!(buf.is_empty());
        assert_eq!(pack, Pack::Many(items.clone()));
        assert_eq!(pack.len(), 3);
        assert_eq!(&pack[..], &items[..]);
        assert_eq!(pack.into_iter().collect::<Vec<_>>(), items);
        let one = Pack::One(tuple![9]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.into_iter().collect::<Vec<_>>(), vec![tuple![9]]);
    }
}
