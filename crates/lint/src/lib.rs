#![warn(missing_docs)]

//! # mp-lint
//!
//! A multi-pass static analyzer that runs **before** evaluation and turns
//! would-be runtime panics or silent wrong answers into structured
//! diagnostics. The paper's guarantees are conditional on static
//! properties, so checking them statically is checking the paper:
//!
//! * **Program lints** (`MP001`–`MP012`, [`program::lint_program`]) check
//!   the §1 well-formedness conditions over the Datalog AST — rule
//!   safety/range restriction, arity consistency, EDB/IDB separation,
//!   reachability from the query, singleton variables, ground facts —
//!   plus negation/aggregate safety (`MP011`/`MP012`). The stratum
//!   inference itself (`MP009`/`MP010`) runs in `mp-analyze`'s
//!   `stratify` pass, which reports through this registry.
//! * **Graph lints** (`MP101`–`MP108`, [`graph::lint_graph`]) check
//!   compiled rule/goal artifacts — argument-class soundness under the
//!   chosen SIP, a supplier for every `d` position (Def 2.4), variant
//!   closure (Thm 2.1), cycle-edge consistency, indexability of every
//!   semijoin key under the data plane's index planner, and graph size
//!   against the machine's hardware parallelism.
//! * **Protocol lints** (`MP201`–`MP204`, [`protocol::lint_protocol`])
//!   check the per-strong-component state the §3.2 termination protocol
//!   relies on — exactly one exit node, BFST parent/child symmetry and
//!   full coverage, leader uniqueness (Thm 3.1's preconditions).
//! * **Analysis diagnostics** (`MP401`–`MP406`) are emitted by the
//!   `mp-analyze` crate's abstract interpreter (sort/type inference,
//!   cardinality planning, partition-key inference); the codes live here
//!   so every tool shares one registry and one `--json` schema.
//!
//! Deny-level diagnostics abort `Engine::compile` with a typed error;
//! warnings are surfaced but do not block. The `mp-lint` binary lints
//! `.dl` files and renders diagnostics against the source text.

pub mod graph;
pub mod program;
pub mod protocol;

use mp_datalog::Span;
use std::fmt;

/// How severe a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: surfaced, but evaluation may proceed.
    Warn,
    /// The property the engine (or the paper) relies on is violated;
    /// compilation must abort.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => f.write_str("warning"),
            Severity::Deny => f.write_str("error"),
        }
    }
}

/// Stable diagnostic codes. Each code maps to the paper condition it
/// enforces (see DESIGN.md, "Static verification layer").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// A rule is unsafe: a head variable is not bound by any positive
    /// body literal (range restriction, §1).
    UnsafeRule,
    /// A predicate is used with two different arities.
    ArityConflict,
    /// A predicate is both EDB and IDB: it has facts (inline or in the
    /// database) *and* occurs in a rule head (§1's PIDB condition).
    EdbIdbOverlap,
    /// The distinguished `goal` predicate occurs in a rule body (§1).
    GoalInBody,
    /// The program has no `goal` rule — nothing to evaluate (§1).
    NoQuery,
    /// An IDB predicate is unreachable from the query and will never be
    /// evaluated.
    UnreachablePredicate,
    /// A variable occurs exactly once in a rule (likely a typo; prefix
    /// with `_` to silence).
    SingletonVariable,
    /// A fact contains a variable.
    NonGroundFact,
    /// A negated subgoal lies on a dependency cycle: the predicate depends
    /// on its own negation, so no stratification exists and the perfect
    /// model is undefined (stratified-negation condition; `mp-stratify`).
    UnstratifiableNegation,
    /// An aggregate rule lies on a dependency cycle: the predicate's
    /// aggregate depends (transitively) on the predicate itself, so the
    /// fold has no well-defined fixpoint (`mp-stratify`).
    AggregateInRecursion,
    /// A negated subgoal uses a variable not bound by any positive
    /// subgoal, or a rule has no positive subgoals at all: the negation
    /// ranges over an infinite complement (safety/range restriction for
    /// negation).
    UnsafeNegation,
    /// An aggregate is ill-formed: its fold variable is unbound by the
    /// positive body, also appears in the grouping key, or the aggregate
    /// predicate has more than one defining rule (ambiguous fold).
    UnsafeAggregate,

    /// An argument-class assignment is inconsistent with the atom or the
    /// SIP plan (§1.2, §2.2).
    ClassMismatch,
    /// A `d`-class argument position has no supplier under the SIP
    /// (Def 2.4): evaluation would wait forever for bindings.
    MissingDSupplier,
    /// Variant closure (Thm 2.1) is violated: a goal node repeats an
    /// ancestor's label without a cycle edge, or a cycle edge connects
    /// non-variants (Def 2.2).
    VariantClosure,
    /// A cycle edge or cycle-reference node is structurally inconsistent
    /// (§2.1: cycle edges run ancestor → variant descendant).
    CycleEdgeInconsistent,
    /// The chosen SIP gives a subgoal an empty semijoin key: it shares no
    /// bound variable with its suppliers, so the data plane cannot build
    /// a `KeyIndex` for the probe and the join kernel degrades to a full
    /// scan (cross product).
    UnindexedSemijoinKey,
    /// The rule/goal graph has more nodes than the machine has hardware
    /// threads. Harmless for correctness — the threaded runtime's worker
    /// pool multiplexes node activations onto a fixed number of workers —
    /// but per-node parallelism has plateaued; tune `--workers`
    /// (`Engine::with_workers`) rather than expecting more nodes to run
    /// concurrently.
    OversubscribedGraph,
    /// The evaluation budget is effectively unbounded for this graph:
    /// no logical-message or memory budget is set and mailboxes are
    /// unbounded (no credit window), so a hot recursive workload can
    /// grow queues without limit. Harmless for correctness; set
    /// `Engine::with_budget` (`mpq --msg-budget`/`--mem-budget`/
    /// `--mailbox-bound`) to bound it.
    UnboundedBudget,
    /// `--shards K>1` was requested but no temporary relation is
    /// request-keyed (every verdict is `Gather`/`Singleton`/`Broadcast`,
    /// or the only `Key` nodes are SCC leaders/free-choice keys):
    /// sharding cannot split any node of this program, so evaluation is
    /// identical to `--shards 1` plus routing overhead.
    ShardingIneffective,

    /// A nontrivial strong component does not have exactly one exit node
    /// (Thm 3.1's unique-feeder precondition).
    ExitNodeCount,
    /// The component's BFST parent/child links are asymmetric.
    BfstAsymmetry,
    /// The component's BFST does not span every member.
    BfstCoverage,
    /// The component's recorded leader is missing, not a member, or not
    /// the exit node (§3.2: the unique feeder is the BFST leader).
    LeaderInconsistent,

    /// A recorded trace violates clock soundness: a Lamport or vector
    /// clock regressed, or a deliver does not dominate its send
    /// (happens-before, trace checker).
    TraceClockRegression,
    /// A per-link logical sequence skipped forward (a message was lost
    /// past the recovery transport) or an ack regressed.
    TraceSeqGap,
    /// An `Answer` was delivered to the engine after `End` (Thm 3.1
    /// safety: the answer stream is complete when `End` arrives).
    TraceAnswerAfterEnd,
    /// A probe-wave reply was delivered for a (wave, epoch) the receiver
    /// never requested (§3.2: stale replies must not be accepted).
    TraceStaleEpoch,
    /// Per-link FIFO was violated: a delivered logical sequence number
    /// went backwards.
    TraceFifoViolation,
    /// A node's temporary relation shrank (§4, Thm 4.1: monotone flow —
    /// relations only grow).
    TraceShrinkingRelation,
    /// A node recovered without a preceding crash.
    TraceOrphanRecover,
    /// A logical message was delivered twice on one link (a duplicate
    /// frame survived transport dedup).
    TraceDuplicateDelivery,
    /// A matched send/deliver pair disagrees on kind or logical item
    /// count (a frame arrives with the items it was packed with).
    TraceCountMismatch,
    /// A node sent an `Answers` frame after acking a `Cancel`
    /// wave epoch (resource governance: cancelled nodes drain the
    /// protocol but must never produce more answers).
    TraceAnswerAfterCancel,
    /// A tuple request was sent on an arc before its relation request
    /// opened the stream (§3.1).
    TraceRequestBeforeOpen,
    /// A tuple request was sent on an arc after its end-of-requests.
    TraceRequestAfterEndOfRequests,
    /// An answer or a per-binding end was sent on an arc after its
    /// stream's `End`.
    TraceSendAfterStreamEnd,
    /// A per-binding end answered no request on the reverse arc, or
    /// ended the same binding twice.
    TraceBadBindingEnd,
    /// A stream's `End` was sent while a binding requested on it was
    /// still un-ended (§3.2's per-binding bookkeeping is incomplete).
    TraceOpenBindingAtEnd,

    /// Two occurrences of a join variable range over type-disjoint value
    /// sorts (one side only integers, the other only symbols): the join
    /// can never match (mp-analyze sort inference).
    TypeClashJoin,
    /// A subgoal can never match: a constant argument lies outside the
    /// column's inferred value sort, or the relation is empty.
    EmptySubgoal,
    /// A rule body is guaranteed empty under the EDB-seeded sort
    /// abstraction — the rule can never fire and is pruned from the
    /// rule/goal graph when analysis pruning is enabled.
    DeadRule,
    /// A link's estimated message volume exceeds the hot-link threshold.
    HotLink,
    /// A temporary relation has no hash-partition key consistent with all
    /// of its producing/consuming links: K-way sharding (ROADMAP item 1)
    /// would have to broadcast it to every shard.
    BroadcastRequired,
    /// Goal nodes became unreachable after dead-rule elimination and were
    /// pruned from the rule/goal graph.
    PrunedUnreachable,
}

impl Code {
    /// The stable `MPnnn` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnsafeRule => "MP001",
            Code::ArityConflict => "MP002",
            Code::EdbIdbOverlap => "MP003",
            Code::GoalInBody => "MP004",
            Code::NoQuery => "MP005",
            Code::UnreachablePredicate => "MP006",
            Code::SingletonVariable => "MP007",
            Code::NonGroundFact => "MP008",
            Code::UnstratifiableNegation => "MP009",
            Code::AggregateInRecursion => "MP010",
            Code::UnsafeNegation => "MP011",
            Code::UnsafeAggregate => "MP012",
            Code::ClassMismatch => "MP101",
            Code::MissingDSupplier => "MP102",
            Code::VariantClosure => "MP103",
            Code::CycleEdgeInconsistent => "MP104",
            Code::UnindexedSemijoinKey => "MP105",
            Code::OversubscribedGraph => "MP106",
            Code::UnboundedBudget => "MP107",
            Code::ShardingIneffective => "MP108",
            Code::ExitNodeCount => "MP201",
            Code::BfstAsymmetry => "MP202",
            Code::BfstCoverage => "MP203",
            Code::LeaderInconsistent => "MP204",
            Code::TraceClockRegression => "MP301",
            Code::TraceSeqGap => "MP302",
            Code::TraceAnswerAfterEnd => "MP303",
            Code::TraceStaleEpoch => "MP304",
            Code::TraceFifoViolation => "MP305",
            Code::TraceShrinkingRelation => "MP306",
            Code::TraceOrphanRecover => "MP307",
            Code::TraceDuplicateDelivery => "MP308",
            Code::TraceCountMismatch => "MP309",
            Code::TraceAnswerAfterCancel => "MP310",
            Code::TraceRequestBeforeOpen => "MP311",
            Code::TraceRequestAfterEndOfRequests => "MP312",
            Code::TraceSendAfterStreamEnd => "MP313",
            Code::TraceBadBindingEnd => "MP314",
            Code::TraceOpenBindingAtEnd => "MP315",
            Code::TypeClashJoin => "MP401",
            Code::EmptySubgoal => "MP402",
            Code::DeadRule => "MP403",
            Code::HotLink => "MP404",
            Code::BroadcastRequired => "MP405",
            Code::PrunedUnreachable => "MP406",
        }
    }

    /// The default severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            // The MP4xx analysis family is advisory by design: the
            // abstraction over-approximates, so a "dead" rule is truly
            // dead (safe to prune) but none of these block evaluation.
            Code::UnreachablePredicate
            | Code::SingletonVariable
            | Code::UnindexedSemijoinKey
            | Code::OversubscribedGraph
            | Code::UnboundedBudget
            | Code::ShardingIneffective
            | Code::TypeClashJoin
            | Code::EmptySubgoal
            | Code::DeadRule
            | Code::HotLink
            | Code::BroadcastRequired
            | Code::PrunedUnreachable => Severity::Warn,
            _ => Severity::Deny,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (defaults to [`Code::severity`]).
    pub severity: Severity,
    /// Source position of the offending clause, when known.
    pub span: Option<Span>,
    /// What is wrong.
    pub message: String,
    /// Why it matters / which paper condition it violates.
    pub note: Option<String>,
}

impl Diagnostic {
    /// Build a diagnostic with the code's default severity.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span: None,
            message: message.into(),
            note: None,
        }
    }

    /// Attach a source span.
    pub fn with_span(mut self, span: Option<Span>) -> Self {
        self.span = span;
        self
    }

    /// Attach an explanatory note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }

    /// True for deny-level diagnostics.
    pub fn is_deny(&self) -> bool {
        self.severity == Severity::Deny
    }

    /// Render against source text: a `file:line:col` header, the source
    /// line, a caret marker, and the note.
    pub fn render(&self, filename: &str, source: &str) -> String {
        let mut out = String::new();
        match self.span {
            Some(s) => out.push_str(&format!(
                "{}[{}]: {} ({}:{})\n",
                self.severity, self.code, self.message, filename, s
            )),
            None => out.push_str(&format!(
                "{}[{}]: {} ({})\n",
                self.severity, self.code, self.message, filename
            )),
        }
        if let Some(s) = self.span {
            if let Some(line) = source.lines().nth(s.line.saturating_sub(1)) {
                out.push_str(&format!("  {:>4} | {}\n", s.line, line));
                out.push_str(&format!(
                    "       | {}^\n",
                    " ".repeat(s.col.saturating_sub(1))
                ));
            }
        }
        if let Some(n) = &self.note {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// Render as one JSON object with the stable machine-readable schema
    /// used by `mp-lint --json` and `mp-check --json`:
    ///
    /// ```json
    /// {"code": "MP001", "severity": "error", "message": "...",
    ///  "file": "prog.dl", "line": 2, "col": 14, "note": "..."}
    /// ```
    ///
    /// `line`/`col` are `null` when the diagnostic has no span; `note` is
    /// `null` when absent. Keys always appear, in this order, so CI can
    /// assert on codes without scraping human-readable text. Hand-rolled
    /// (no serde in this workspace).
    pub fn to_json(&self, filename: &str) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let (line, col) = match self.span {
            Some(s) => (s.line.to_string(), s.col.to_string()),
            None => ("null".to_string(), "null".to_string()),
        };
        let note = match &self.note {
            Some(n) => format!("\"{}\"", esc(n)),
            None => "null".to_string(),
        };
        format!(
            "{{\"code\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\", \
             \"file\": \"{}\", \"line\": {}, \"col\": {}, \"note\": {}}}",
            self.code,
            self.severity,
            esc(&self.message),
            esc(filename),
            line,
            col,
            note
        )
    }
}

/// Render a slice of diagnostics as a JSON array, one object per
/// diagnostic (see [`Diagnostic::to_json`]).
pub fn diagnostics_to_json(diags: &[Diagnostic], filename: &str) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&d.to_json(filename));
        out.push_str(if i + 1 < diags.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(s) = self.span {
            write!(f, " at {s}")?;
        }
        Ok(())
    }
}

/// Sort diagnostics for stable output: by (code, location), then message
/// and severity. Every printing path (mp-lint, mp-check, mp-analyze,
/// `Engine::compile`) sorts with this one function so golden tests and
/// `--json` diffs are order-stable across runs and tools. Codes are
/// numbered so that within each family the deny-level conditions come
/// first; severity is only a final tiebreak.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        a.code
            .cmp(&b.code)
            .then(a.span.cmp(&b.span))
            .then(a.message.cmp(&b.message))
            .then(b.severity.cmp(&a.severity))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            Code::UnsafeRule,
            Code::ArityConflict,
            Code::EdbIdbOverlap,
            Code::GoalInBody,
            Code::NoQuery,
            Code::UnreachablePredicate,
            Code::SingletonVariable,
            Code::NonGroundFact,
            Code::UnstratifiableNegation,
            Code::AggregateInRecursion,
            Code::UnsafeNegation,
            Code::UnsafeAggregate,
            Code::ClassMismatch,
            Code::MissingDSupplier,
            Code::VariantClosure,
            Code::CycleEdgeInconsistent,
            Code::UnindexedSemijoinKey,
            Code::OversubscribedGraph,
            Code::UnboundedBudget,
            Code::ShardingIneffective,
            Code::ExitNodeCount,
            Code::BfstAsymmetry,
            Code::BfstCoverage,
            Code::LeaderInconsistent,
            Code::TraceClockRegression,
            Code::TraceSeqGap,
            Code::TraceAnswerAfterEnd,
            Code::TraceStaleEpoch,
            Code::TraceFifoViolation,
            Code::TraceShrinkingRelation,
            Code::TraceOrphanRecover,
            Code::TraceDuplicateDelivery,
            Code::TraceCountMismatch,
            Code::TraceAnswerAfterCancel,
            Code::TraceRequestBeforeOpen,
            Code::TraceRequestAfterEndOfRequests,
            Code::TraceSendAfterStreamEnd,
            Code::TraceBadBindingEnd,
            Code::TraceOpenBindingAtEnd,
            Code::TypeClashJoin,
            Code::EmptySubgoal,
            Code::DeadRule,
            Code::HotLink,
            Code::BroadcastRequired,
            Code::PrunedUnreachable,
        ];
        let strs: std::collections::BTreeSet<&str> = all.iter().map(|c| c.as_str()).collect();
        assert_eq!(strs.len(), all.len());
        assert!(strs.iter().all(|s| s.starts_with("MP")));
    }

    #[test]
    fn render_includes_source_line_and_caret() {
        let d = Diagnostic::new(Code::UnsafeRule, "head variable `Y` is not bound")
            .with_span(Some(Span::new(2, 14)))
            .with_note("range restriction, §1");
        let src = "p(X) :- e(X).\nbad(X, Y) :- e(X).\n";
        let r = d.render("test.dl", src);
        assert!(r.contains("error[MP001]"), "{r}");
        assert!(r.contains("test.dl:2:14"), "{r}");
        assert!(r.contains("bad(X, Y) :- e(X)."), "{r}");
        assert!(r.contains("note: range restriction"), "{r}");
    }

    #[test]
    fn sorting_puts_denies_first() {
        let mut v = vec![
            Diagnostic::new(Code::SingletonVariable, "w"),
            Diagnostic::new(Code::UnsafeRule, "e"),
        ];
        sort_diagnostics(&mut v);
        assert_eq!(v[0].code, Code::UnsafeRule);
    }

    /// Regression test for deterministic output ordering: diagnostics
    /// sort by (code, location) regardless of insertion order or
    /// severity, so golden files and `--json` diffs are order-stable.
    #[test]
    fn sorting_is_by_code_then_location() {
        let build = |perm: &[usize]| {
            let pool = [
                Diagnostic::new(Code::SingletonVariable, "w").with_span(Some(Span::new(9, 1))),
                Diagnostic::new(Code::UnsafeRule, "e").with_span(Some(Span::new(5, 2))),
                Diagnostic::new(Code::UnsafeRule, "e").with_span(Some(Span::new(2, 7))),
                Diagnostic::new(Code::BroadcastRequired, "b"),
                Diagnostic::new(Code::ExitNodeCount, "x"),
                Diagnostic::new(Code::DeadRule, "d").with_span(Some(Span::new(3, 1))),
            ];
            perm.iter().map(|&i| pool[i].clone()).collect::<Vec<_>>()
        };
        let mut a = build(&[0, 1, 2, 3, 4, 5]);
        let mut b = build(&[5, 3, 1, 4, 0, 2]);
        sort_diagnostics(&mut a);
        sort_diagnostics(&mut b);
        assert_eq!(a, b, "order must not depend on insertion order");
        let codes: Vec<&str> = a.iter().map(|d| d.code.as_str()).collect();
        // Strict (code, then location) order — a warning with a lower code
        // (MP007) prints before a deny with a higher code (MP201).
        assert_eq!(
            codes,
            ["MP001", "MP001", "MP007", "MP201", "MP403", "MP405"]
        );
        // Within one code, spans order the output (2:7 before 5:2).
        assert_eq!(a[0].span, Some(Span::new(2, 7)));
        assert_eq!(a[1].span, Some(Span::new(5, 2)));
    }

    /// Golden test for the `--json` schema: key set, key order, and value
    /// shapes are a stable contract — CI asserts on them.
    #[test]
    fn json_schema_is_golden() {
        let d = Diagnostic::new(Code::UnsafeRule, "head variable `Y` is not bound")
            .with_span(Some(Span::new(2, 14)))
            .with_note("range restriction, §1");
        assert_eq!(
            d.to_json("test.dl"),
            "{\"code\": \"MP001\", \"severity\": \"error\", \
             \"message\": \"head variable `Y` is not bound\", \
             \"file\": \"test.dl\", \"line\": 2, \"col\": 14, \
             \"note\": \"range restriction, §1\"}"
        );
        let bare = Diagnostic::new(Code::SingletonVariable, "variable `X` used once");
        assert_eq!(
            bare.to_json("a.dl"),
            "{\"code\": \"MP007\", \"severity\": \"warning\", \
             \"message\": \"variable `X` used once\", \
             \"file\": \"a.dl\", \"line\": null, \"col\": null, \"note\": null}"
        );
    }

    #[test]
    fn json_escapes_special_characters() {
        let d = Diagnostic::new(Code::UnsafeRule, "quote \" backslash \\ newline \n tab \t");
        let j = d.to_json("x.dl");
        assert!(
            j.contains("quote \\\" backslash \\\\ newline \\n tab \\t"),
            "{j}"
        );
    }

    #[test]
    fn json_array_shape() {
        let v = vec![
            Diagnostic::new(Code::UnsafeRule, "a"),
            Diagnostic::new(Code::NoQuery, "b"),
        ];
        let j = diagnostics_to_json(&v, "f.dl");
        assert!(j.starts_with("[\n"), "{j}");
        assert!(j.ends_with("]\n"), "{j}");
        assert_eq!(j.matches("\"code\"").count(), 2);
        assert!(diagnostics_to_json(&[], "f.dl").contains("[\n]"));
    }
}
