//! Trace events and the `mptrace` text format.
//!
//! A trace is a global, append-ordered list of events. Each event is
//! stamped with the recording actor's Lamport clock and vector clock at
//! the moment it was recorded. Actors are the rule/goal-graph nodes
//! (actor id = node id) plus the engine (actor id = `n_actors - 1`).
//!
//! `mptrace v2` writes the bindings of each tuple-request and
//! binding-end send after its fields, symbols quoted so that `"1"` and
//! `1` stay apart. `mptrace v1` has no bindings; it still parses, into a
//! trace whose [`Trace::with_bindings`] is false.

use mp_storage::{Tuple, Value};
use std::fmt;

/// The logical kind of a protocol or data-plane message, mirrored from
/// `mp_engine::Payload` without depending on the engine crate (the
/// dependency points the other way).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs)] // one variant per Payload variant (singular names)
pub enum MsgKind {
    RelationRequest,
    TupleRequest,
    EndOfRequests,
    Answer,
    EndTupleRequest,
    End,
    EndRequest,
    EndNegative,
    EndConfirmed,
    SccFinished,
    Reborn,
    Cancel,
    Shutdown,
}

impl MsgKind {
    /// Stable snake_case name (matches `Payload::kind_name`).
    pub fn as_str(self) -> &'static str {
        match self {
            MsgKind::RelationRequest => "relation_request",
            MsgKind::TupleRequest => "tuple_request",
            MsgKind::EndOfRequests => "end_of_requests",
            MsgKind::Answer => "answer",
            MsgKind::EndTupleRequest => "end_tuple_request",
            MsgKind::End => "end",
            MsgKind::EndRequest => "end_request",
            MsgKind::EndNegative => "end_negative",
            MsgKind::EndConfirmed => "end_confirmed",
            MsgKind::SccFinished => "scc_finished",
            MsgKind::Reborn => "reborn",
            MsgKind::Cancel => "cancel",
            MsgKind::Shutdown => "shutdown",
        }
    }

    /// True for the kinds whose items are bindings (§3.1 tuple requests
    /// and per-binding ends): their send events carry them.
    pub fn carries_bindings(self) -> bool {
        matches!(self, MsgKind::TupleRequest | MsgKind::EndTupleRequest)
    }

    /// Parse a stable name back to the kind.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "relation_request" => MsgKind::RelationRequest,
            "tuple_request" => MsgKind::TupleRequest,
            "end_of_requests" => MsgKind::EndOfRequests,
            "answer" => MsgKind::Answer,
            "end_tuple_request" => MsgKind::EndTupleRequest,
            "end" => MsgKind::End,
            "end_request" => MsgKind::EndRequest,
            "end_negative" => MsgKind::EndNegative,
            "end_confirmed" => MsgKind::EndConfirmed,
            "scc_finished" => MsgKind::SccFinished,
            "reborn" => MsgKind::Reborn,
            "cancel" => MsgKind::Cancel,
            "shutdown" => MsgKind::Shutdown,
            _ => return None,
        })
    }
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The causal stamp carried alongside a logical message from its send
/// site to its delivery site (on the wire in the threaded runtime, in a
/// per-link queue in the simulator).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stamp {
    /// Sender's Lamport clock at send time.
    pub lamport: u64,
    /// Sender's vector clock at send time.
    pub vclock: Vec<u64>,
    /// Per-link logical sequence number (0, 1, 2, … per directed link;
    /// counts logical messages, not transport frames).
    pub link_seq: u64,
}

/// Sentinel `link_seq` for a delivery whose stamp was lost (defensive;
/// the checker skips link invariants for it).
pub const NO_SEQ: u64 = u64::MAX;

/// What happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A logical message left this actor.
    Send {
        /// Destination actor.
        to: u32,
        /// Payload kind.
        kind: MsgKind,
        /// Logical items inside (1 for the kinds that carry no tuples).
        items: u64,
        /// Per-link logical sequence number.
        link_seq: u64,
        /// Probe-wave number for termination payloads, else 0.
        wave: u64,
        /// Leader epoch for termination payloads / `Reborn`, else 0.
        epoch: u64,
        /// The bindings, in send order, when [`MsgKind::carries_bindings`];
        /// else empty.
        bindings: Vec<Tuple>,
    },
    /// A logical message was delivered to this actor (post transport
    /// dedup/reorder: exactly-once, in order).
    Deliver {
        /// Source actor.
        from: u32,
        /// Payload kind.
        kind: MsgKind,
        /// Logical items inside.
        items: u64,
        /// The sender's per-link sequence number, from the stamp.
        link_seq: u64,
        /// Probe-wave number for termination payloads, else 0.
        wave: u64,
        /// Leader epoch for termination payloads / `Reborn`, else 0.
        epoch: u64,
    },
    /// This actor acknowledged transport frames from `peer` up to (but
    /// not including) frame seq `upto`.
    Ack {
        /// The acked sender.
        peer: u32,
        /// Cumulative ack point (exclusive).
        upto: u64,
    },
    /// A batch buffer was flushed into one frame of `items` tuples.
    Flush {
        /// Logical tuples in the flushed frame.
        items: u64,
    },
    /// The node crashed; volatile state was discarded.
    Crash {
        /// The epoch the node will rejoin with.
        epoch: u64,
    },
    /// The node finished log replay and rejoined.
    Recover {
        /// The post-recovery epoch.
        epoch: u64,
        /// Messages replayed from the durable log.
        replayed: u64,
    },
    /// A termination probe wave completed at its leader.
    Wave {
        /// Wave number (monotone per leader epoch).
        wave: u64,
        /// Leader epoch.
        epoch: u64,
    },
    /// A tuple was stored into a node-local relation.
    Store {
        /// Which relation at this actor (goal answers = 0; rule stage
        /// `l` bindings = `2l`, rule answer store `l` = `2l + 1`).
        rel: u32,
        /// Relation size after the insert.
        size: u64,
    },
    /// The engine observed the final `End` (the answer stream is
    /// complete — Thm 3.1).
    End,
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Recording actor.
    pub actor: u32,
    /// Actor's Lamport clock at record time.
    pub lamport: u64,
    /// Actor's vector clock at record time.
    pub vclock: Vec<u64>,
    /// What happened.
    pub kind: EventKind,
}

/// A complete recorded execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Total actors: graph nodes `0..n-1` plus the engine at `n-1`.
    pub n_actors: u32,
    /// Events in global record order (ring-buffer slot order in the
    /// threaded runtime; this order respects each actor's program order
    /// and send-before-deliver).
    pub events: Vec<Event>,
    /// Events lost to ring-buffer overflow. A nonzero count means the
    /// invariant checker cannot run soundly.
    pub dropped: u64,
    /// Send events carry their bindings: true for a recorded or
    /// `mptrace v2` trace, false for an `mptrace v1` one, on which the
    /// binding checks cannot run.
    pub with_bindings: bool,
}

impl Trace {
    /// The engine's actor id.
    pub fn engine_actor(&self) -> u32 {
        self.n_actors.saturating_sub(1)
    }

    /// The recorded delivery order at graph nodes: one actor id per
    /// node-side `Deliver` event, in global record order. Feeding this to
    /// `SimRuntime` replays the recorded schedule deterministically.
    pub fn activation_order(&self) -> Vec<u32> {
        let engine = self.engine_actor();
        self.events
            .iter()
            .filter(|e| e.actor != engine && matches!(e.kind, EventKind::Deliver { .. }))
            .map(|e| e.actor)
            .collect()
    }

    /// Serialize to the line-based `mptrace` text format: v2, or v1
    /// for a trace without bindings.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let version = if self.with_bindings { 2 } else { 1 };
        out.push_str(&format!("mptrace v{version}\n"));
        out.push_str(&format!("actors {}\n", self.n_actors));
        out.push_str(&format!("dropped {}\n", self.dropped));
        for e in &self.events {
            let vc: Vec<String> = e.vclock.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!("{} {} {} ", e.actor, e.lamport, vc.join(",")));
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
                    out.push_str(&format!(
                        "send {to} {kind} {items} {link_seq} {wave} {epoch}"
                    ));
                    out.extend(bindings.iter().map(|b| format!(" {}", binding_text(b))));
                }
                EventKind::Deliver {
                    from,
                    kind,
                    items,
                    link_seq,
                    wave,
                    epoch,
                } => {
                    out.push_str(&format!(
                        "deliver {from} {kind} {items} {link_seq} {wave} {epoch}"
                    ));
                }
                EventKind::Ack { peer, upto } => out.push_str(&format!("ack {peer} {upto}")),
                EventKind::Flush { items } => out.push_str(&format!("flush {items}")),
                EventKind::Crash { epoch } => out.push_str(&format!("crash {epoch}")),
                EventKind::Recover { epoch, replayed } => {
                    out.push_str(&format!("recover {epoch} {replayed}"));
                }
                EventKind::Wave { wave, epoch } => out.push_str(&format!("wave {wave} {epoch}")),
                EventKind::Store { rel, size } => out.push_str(&format!("store {rel} {size}")),
                EventKind::End => out.push_str("end"),
            }
            out.push('\n');
        }
        out
    }

    /// Parse the `mptrace` text format, v2 or v1.
    pub fn from_text(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines().enumerate();
        let header = lines.next().map(|(_, l)| l.trim()).unwrap_or("");
        let with_bindings = header == "mptrace v2";
        if !with_bindings && header != "mptrace v1" {
            return Err(format!(
                "bad header `{header}` (expected `mptrace v2` or `v1`)"
            ));
        }
        let mut trace = Trace {
            with_bindings,
            ..Trace::default()
        };
        let mut saw_actors = false;
        for (idx, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = idx + 1;
            let mut w = line.split_ascii_whitespace();
            let first = w.next().unwrap_or("");
            if first == "actors" {
                trace.n_actors = parse_num(w.next(), lineno, "actor count")? as u32;
                saw_actors = true;
                continue;
            }
            if first == "dropped" {
                trace.dropped = parse_num(w.next(), lineno, "dropped count")?;
                continue;
            }
            let actor = first
                .parse::<u32>()
                .map_err(|_| format!("line {lineno}: bad actor id `{first}`"))?;
            let lamport = parse_num(w.next(), lineno, "lamport")?;
            let vc_text = w
                .next()
                .ok_or(format!("line {lineno}: missing vector clock"))?;
            let vclock = vc_text
                .split(',')
                .map(|c| c.parse::<u64>())
                .collect::<Result<Vec<u64>, _>>()
                .map_err(|_| format!("line {lineno}: bad vector clock `{vc_text}`"))?;
            let verb = w
                .next()
                .ok_or(format!("line {lineno}: missing event verb"))?;
            let kind = match verb {
                "send" | "deliver" => {
                    let peer = parse_num(w.next(), lineno, "peer actor")? as u32;
                    let kind_text = w.next().ok_or(format!("line {lineno}: missing kind"))?;
                    let kind = MsgKind::parse(kind_text)
                        .ok_or(format!("line {lineno}: unknown message kind `{kind_text}`"))?;
                    let items = parse_num(w.next(), lineno, "items")?;
                    let link_seq = parse_num(w.next(), lineno, "link_seq")?;
                    let wave = parse_num(w.next(), lineno, "wave")?;
                    let epoch = parse_num(w.next(), lineno, "epoch")?;
                    if verb == "send" {
                        let bindings = (w.by_ref())
                            .map(|t| {
                                parse_binding(t).ok_or(format!("line {lineno}: bad binding `{t}`"))
                            })
                            .collect::<Result<Vec<Tuple>, String>>()?;
                        let expected = if with_bindings && kind.carries_bindings() {
                            items
                        } else {
                            0
                        };
                        if bindings.len() as u64 != expected {
                            return Err(format!(
                                "line {lineno}: {} bindings, expected {expected}",
                                bindings.len()
                            ));
                        }
                        EventKind::Send {
                            to: peer,
                            kind,
                            items,
                            link_seq,
                            wave,
                            epoch,
                            bindings,
                        }
                    } else {
                        EventKind::Deliver {
                            from: peer,
                            kind,
                            items,
                            link_seq,
                            wave,
                            epoch,
                        }
                    }
                }
                "ack" => EventKind::Ack {
                    peer: parse_num(w.next(), lineno, "peer")? as u32,
                    upto: parse_num(w.next(), lineno, "upto")?,
                },
                "flush" => EventKind::Flush {
                    items: parse_num(w.next(), lineno, "items")?,
                },
                "crash" => EventKind::Crash {
                    epoch: parse_num(w.next(), lineno, "epoch")?,
                },
                "recover" => EventKind::Recover {
                    epoch: parse_num(w.next(), lineno, "epoch")?,
                    replayed: parse_num(w.next(), lineno, "replayed")?,
                },
                "wave" => EventKind::Wave {
                    wave: parse_num(w.next(), lineno, "wave")?,
                    epoch: parse_num(w.next(), lineno, "epoch")?,
                },
                "store" => EventKind::Store {
                    rel: parse_num(w.next(), lineno, "rel")? as u32,
                    size: parse_num(w.next(), lineno, "size")?,
                },
                "end" => EventKind::End,
                other => return Err(format!("line {lineno}: unknown event verb `{other}`")),
            };
            trace.events.push(Event {
                actor,
                lamport,
                vclock,
                kind,
            });
        }
        if !saw_actors {
            return Err("missing `actors N` line".to_string());
        }
        Ok(trace)
    }
}

/// Write a binding as one whitespace-free token `(v,…)`: integers bare,
/// symbols quoted, their bytes outside printable ASCII and `%",()`
/// written `%XX`.
fn binding_text(b: &Tuple) -> String {
    let values: Vec<String> = (b.values().iter())
        .map(|v| match v {
            Value::Int(n) => n.to_string(),
            Value::Str(s) => {
                let keep = |c: u8| c.is_ascii_graphic() && !b"%\",()".contains(&c);
                let body: String = (s.as_str().bytes())
                    .map(|c| match keep(c) {
                        true => char::from(c).to_string(),
                        false => format!("%{c:02X}"),
                    })
                    .collect();
                format!("\"{body}\"")
            }
        })
        .collect();
    format!("({})", values.join(","))
}

/// Parse one [`binding_text`] token.
fn parse_binding(token: &str) -> Option<Tuple> {
    let inner = token.strip_prefix('(')?.strip_suffix(')')?;
    let value = |v: &str| match v.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
        Some(body) => {
            let mut bytes = Vec::new();
            let mut it = body.bytes();
            while let Some(c) = it.next() {
                bytes.push(match c {
                    b'%' => {
                        u8::from_str_radix(std::str::from_utf8(&[it.next()?, it.next()?]).ok()?, 16)
                            .ok()?
                    }
                    c => c,
                });
            }
            Some(Value::str(String::from_utf8(bytes).ok()?))
        }
        None => v.parse().ok().map(Value::Int),
    };
    match inner {
        "" => Some(Tuple::unit()),
        _ => inner.split(',').map(value).collect(),
    }
}

fn parse_num(tok: Option<&str>, lineno: usize, what: &str) -> Result<u64, String> {
    let t = tok.ok_or(format!("line {lineno}: missing {what}"))?;
    t.parse::<u64>()
        .map_err(|_| format!("line {lineno}: bad {what} `{t}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(to: u32, kind: MsgKind, bindings: Vec<Tuple>) -> EventKind {
        EventKind::Send {
            to,
            kind,
            items: bindings.len().max(1) as u64,
            link_seq: 0,
            wave: 0,
            epoch: 0,
            bindings,
        }
    }

    fn sample() -> Trace {
        let binding = Tuple::new(vec![
            Value::Int(1),
            Value::str("1"),
            Value::str("a \"b\"\n"),
        ]);
        Trace {
            n_actors: 3,
            dropped: 0,
            with_bindings: true,
            events: vec![
                Event {
                    actor: 2,
                    lamport: 1,
                    vclock: vec![0, 0, 1],
                    kind: send(0, MsgKind::RelationRequest, vec![]),
                },
                Event {
                    actor: 2,
                    lamport: 2,
                    vclock: vec![0, 0, 2],
                    kind: send(0, MsgKind::TupleRequest, vec![binding, Tuple::unit()]),
                },
                Event {
                    actor: 0,
                    lamport: 3,
                    vclock: vec![1, 0, 1],
                    kind: EventKind::Deliver {
                        from: 2,
                        kind: MsgKind::RelationRequest,
                        items: 1,
                        link_seq: 0,
                        wave: 0,
                        epoch: 0,
                    },
                },
                Event {
                    actor: 0,
                    lamport: 4,
                    vclock: vec![2, 0, 1],
                    kind: EventKind::Store { rel: 0, size: 1 },
                },
                Event {
                    actor: 2,
                    lamport: 5,
                    vclock: vec![2, 0, 3],
                    kind: EventKind::End,
                },
            ],
        }
    }

    #[test]
    fn text_roundtrip() {
        let t = sample();
        let text = t.to_text();
        assert!(text.starts_with("mptrace v2\n"), "{text}");
        assert!(
            text.contains(r#"tuple_request 2 0 0 0 (1,"1","a%20%22b%22%0A") ()"#),
            "{text}"
        );
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn symbols_that_need_escapes_roundtrip() {
        for text in ["", "1", "-2", "a b,c)", "\\", "\"", "\t\r\n\0", "é\u{301}"] {
            let b = Tuple::new(vec![Value::str(text), Value::Int(-7)]);
            let out = binding_text(&b);
            assert!(!out.contains(char::is_whitespace), "{out}");
            assert_eq!(parse_binding(&out), Some(b), "{out}");
        }
    }

    #[test]
    fn a_v1_trace_parses_without_bindings_and_writes_back_as_v1() {
        let text = "mptrace v1\nactors 2\ndropped 0\n0 1 1,0 send 1 tuple_request 2 0 0 0\n";
        let t = Trace::from_text(text).unwrap();
        assert!(!t.with_bindings);
        assert!(
            matches!(&t.events[0].kind, EventKind::Send { items: 2, bindings, .. } if bindings.is_empty())
        );
        assert_eq!(t.to_text(), text);
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in [
            MsgKind::RelationRequest,
            MsgKind::TupleRequest,
            MsgKind::EndOfRequests,
            MsgKind::Answer,
            MsgKind::EndTupleRequest,
            MsgKind::End,
            MsgKind::EndRequest,
            MsgKind::EndNegative,
            MsgKind::EndConfirmed,
            MsgKind::SccFinished,
            MsgKind::Reborn,
            MsgKind::Cancel,
            MsgKind::Shutdown,
        ] {
            assert_eq!(MsgKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(MsgKind::parse("nonsense"), None);
    }

    #[test]
    fn retired_batch_kind_names_are_unknown_kinds() {
        for name in [
            "tuple_request_batch",
            "answer_batch",
            "end_tuple_request_batch",
        ] {
            assert_eq!(MsgKind::parse(name), None);
            let text = format!("mptrace v1\nactors 2\n0 1 1,0 send 1 {name} 2 0 0 0\n");
            let err = Trace::from_text(&text).unwrap_err();
            assert!(
                err.contains(&format!("unknown message kind `{name}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn activation_order_skips_engine_and_non_delivers() {
        let t = sample();
        assert_eq!(t.activation_order(), vec![0]);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Trace::from_text("").is_err());
        assert!(Trace::from_text("mptrace v3\nactors 1\n").is_err());
        assert!(Trace::from_text("mptrace v2\n").is_err()); // no actors line
        assert!(Trace::from_text("mptrace v2\nactors 2\n0 1 0,0 frobnicate\n").is_err());
        let send = "mptrace v2\nactors 2\n0 1 1,0 send 1 tuple_request";
        for bad in [
            " 2 0 0 0 (1)",     // fewer bindings than items
            " 1 0 0 0 (1) (2)", // more
            " 1 0 0 0 (1",      // unterminated
            " 1 0 0 0 (x)",     // neither integer nor string
            " 1 0 0 0 (\"a)",   // unterminated string
            " 1 0 0 0 (1,)",    // missing value
        ] {
            assert!(
                Trace::from_text(&format!("{send}{bad}\n")).is_err(),
                "{bad}"
            );
        }
        let answer = "mptrace v2\nactors 2\n0 1 1,0 send 1 answer 1 0 0 0 (1)\n";
        assert!(
            Trace::from_text(answer).is_err(),
            "answers carry no bindings"
        );
    }
}
