#![warn(missing_docs)]

//! # mp-analyze
//!
//! Abstract-interpretation program analysis over the parsed program and
//! the adorned rule/goal graph. Three cooperating passes produce a
//! per-node **annotation plan**:
//!
//! * **Sort/type inference** ([`sorts`]): a constant-domain lattice
//!   seeded from the EDB, widened past a cap to value-type bits, and
//!   propagated to a least fixpoint through the rules. Because the
//!   fixpoint over-approximates the least model, an abstractly-empty rule
//!   body is *provably* dead — the soundness fact pruning rests on.
//!   Emits `MP401` (type-clash join), `MP402` (subgoal can never match),
//!   and `MP403` (rule can never fire).
//! * **Dead-rule and unreachable-goal elimination**: rule nodes with
//!   abstractly-empty bodies are removed, along with every node whose
//!   only path to the root ran through them (`MP406`). `Engine::compile`
//!   applies the pruning for real via [`RuleGoalGraph::retain`].
//! * **Cardinality & partition planning** ([`plan`]): relation-size and
//!   per-link message-volume estimates from EDB row/distinct/degree
//!   statistics (`MP404` hot links), and SIP-key
//!   partition inference — the hash key each temporary relation would
//!   shard by under ROADMAP item 1's K-way evaluation, or `MP405` when
//!   no key is consistent with every link.
//!
//! Diagnostics share mp-lint's [`Diagnostic`] type, registry, and
//! `--json` schema; all MP4xx codes are warnings (analysis advises, the
//! deny gate stays with the MP0xx/MP1xx/MP2xx lints).

pub mod plan;
pub mod sorts;
pub mod stratify;

use mp_datalog::{Database, Program, SourceMap};
use mp_lint::{Code, Diagnostic};
use mp_rulegoal::{Node, RuleGoalGraph};
use sorts::EmptyReason;

pub use plan::{shard_fan_outs, NodeAnnotation, PartitionKey};
pub use sorts::{SortAnalysis, SortSet};
pub use stratify::{stratify, uses_negation_or_aggregates, StratumPlan};

/// Tunables for the analysis passes.
#[derive(Clone, Debug)]
pub struct AnalyzeOptions {
    /// Column sorts larger than this widen to type bits.
    pub widen_cap: usize,
    /// Estimated answer tuples on one node's output links above which an
    /// MP404 hot-link warning fires.
    pub hot_link_threshold: f64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            widen_cap: sorts::DEFAULT_WIDEN_CAP,
            hot_link_threshold: 100_000.0,
        }
    }
}

/// The complete analysis result for one (program, EDB, graph) triple.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// One annotation per node of the *unpruned* graph.
    pub nodes: Vec<NodeAnnotation>,
    /// All MP4xx diagnostics, sorted by (code, location).
    pub diagnostics: Vec<Diagnostic>,
    /// Liveness mask over the unpruned graph (`false` = prune).
    pub keep: Vec<bool>,
    /// Total nodes the mask removes.
    pub pruned_nodes: usize,
    /// Rule nodes the mask removes.
    pub pruned_rules: usize,
    /// The sort-inference fixpoint (exposed for soundness tests).
    pub sorts: SortAnalysis,
    /// The stratification plan ([`stratify`]): predicate strata for the
    /// staged evaluation pipeline. Flat (single-stratum) for pure
    /// positive programs.
    pub strata: StratumPlan,
}

impl Analysis {
    /// Apply the liveness mask: the pruned graph, or `None` when nothing
    /// is dead (callers keep the original and skip the copy).
    pub fn pruned_graph(&self, graph: &RuleGoalGraph) -> Option<RuleGoalGraph> {
        if self.pruned_nodes == 0 {
            None
        } else {
            Some(graph.retain(&self.keep))
        }
    }

    /// Predicates that may hold at least one tuple in the least model
    /// (over-approximate): the soundness proptest checks this set covers
    /// everything the engine actually derives.
    pub fn live_predicates(&self) -> std::collections::BTreeSet<mp_datalog::Predicate> {
        self.sorts
            .sorts
            .iter()
            .filter(|(_, cols)| cols.is_empty() || cols.iter().any(|s| !s.is_empty()))
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// Human-readable annotated plan (the body of `mpq --explain`).
    /// `shards` is the requested `--shards K` (1 when unsharded); the
    /// `fan` column shows how many instances each node would get.
    pub fn render_explain(&self, shards: usize) -> String {
        let mut out = String::new();
        let (mut goals, mut rules, mut edbs, mut refs) = (0, 0, 0, 0);
        for a in &self.nodes {
            match a.kind {
                "goal" => goals += 1,
                "rule" => rules += 1,
                "edb" => edbs += 1,
                _ => refs += 1,
            }
        }
        out.push_str(&format!(
            "nodes {} (goals {goals}, rules {rules}, edb {edbs}, refs {refs}); \
             pruned {} node(s), {} rule(s); strata {}\n",
            self.nodes.len(),
            self.pruned_nodes,
            self.pruned_rules,
            self.strata.count().max(1)
        ));
        out.push_str(&format!(
            "{:<5} {:<9} {:>10} {:>10}  {:<12} {:>3} {:>5}  node\n",
            "id", "kind", "card", "volume", "partition", "fan", "strat"
        ));
        for a in &self.nodes {
            out.push_str(&format!(
                "#{:<4} {:<9} {:>10} {:>10}  {:<12} {:>3} {:>5}  {}{}\n",
                a.id,
                a.kind,
                fmt_card(a.card),
                fmt_card(a.volume),
                a.partition.render(),
                a.fan_out(shards),
                a.stratum,
                a.desc,
                if a.pruned { "  [pruned]" } else { "" }
            ));
        }
        out
    }

    /// One JSON object for this analysis (part of `mp-analyze --json`;
    /// hand-rolled like the rest of the workspace, stable key order).
    pub fn to_json(&self, filename: &str, sip: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"file\": \"{}\",\n", json_escape(filename)));
        out.push_str(&format!("  \"sip\": \"{sip}\",\n"));
        out.push_str(&format!("  \"nodes\": {},\n", self.nodes.len()));
        out.push_str(&format!("  \"pruned_nodes\": {},\n", self.pruned_nodes));
        out.push_str(&format!("  \"pruned_rules\": {},\n", self.pruned_rules));
        out.push_str(&format!("  \"strata\": {},\n", self.strata.count().max(1)));
        out.push_str("  \"plan\": [\n");
        for (i, a) in self.nodes.iter().enumerate() {
            let key = match &a.partition {
                PartitionKey::Key(cols) => format!(
                    "[{}]",
                    cols.iter()
                        .map(usize::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                _ => "null".to_string(),
            };
            let part = match &a.partition {
                PartitionKey::Key(_) => "key",
                PartitionKey::Gather => "gather",
                PartitionKey::Singleton => "singleton",
                PartitionKey::Broadcast => "broadcast",
            };
            out.push_str(&format!(
                "    {{\"id\": {}, \"kind\": \"{}\", \"desc\": \"{}\", \
                 \"card\": \"{}\", \"volume\": \"{}\", \
                 \"partition\": \"{}\", \"key\": {}, \"stratum\": {}, \"pruned\": {}}}{}\n",
                a.id,
                a.kind,
                json_escape(&a.desc),
                fmt_card(a.card),
                fmt_card(a.volume),
                part,
                key,
                a.stratum,
                a.pruned,
                if i + 1 < self.nodes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&d.to_json(filename));
            out.push_str(if i + 1 < self.diagnostics.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n");
        out.push('}');
        out
    }
}

/// Deterministic cardinality formatting for reports and golden files:
/// integers up to 10^15 print exactly, anything else in fixed scientific
/// notation.
fn fmt_card(x: f64) -> String {
    if x <= 0.0 {
        "0".to_string()
    } else if x.fract() == 0.0 && x < 1e15 {
        format!("{}", x as u64)
    } else {
        format!("{x:.3e}")
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

fn reason_diags(
    reason: &EmptyReason,
    rule: &mp_datalog::Rule,
    span: Option<mp_datalog::Span>,
    context: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    match reason {
        EmptyReason::EmptyVar {
            var,
            type_clash: true,
        } => {
            out.push(
                Diagnostic::new(
                    Code::TypeClashJoin,
                    format!(
                        "join variable `{var}` has type-disjoint sorts in {context} `{rule}` \
                         (one occurrence only integers, another only symbols)"
                    ),
                )
                .with_span(span),
            );
        }
        EmptyReason::EmptyVar {
            var,
            type_clash: false,
        } => {
            // Value-disjoint but type-compatible: only the MP403 below.
            let _ = var;
        }
        EmptyReason::ConstMismatch { index, col, value } => {
            out.push(
                Diagnostic::new(
                    Code::EmptySubgoal,
                    format!(
                        "subgoal `{}` in {context} `{rule}` can never match: constant `{value}` \
                         is outside column {col}'s inferred value sort",
                        rule.body[*index]
                    ),
                )
                .with_span(span),
            );
        }
        EmptyReason::EmptyPredicate { index } => {
            out.push(
                Diagnostic::new(
                    Code::EmptySubgoal,
                    format!(
                        "subgoal `{}` in {context} `{rule}` can never match: relation `{}` is \
                         provably empty",
                        rule.body[*index], rule.body[*index].pred
                    ),
                )
                .with_span(span),
            );
        }
    }
    let cause = match reason {
        EmptyReason::EmptyVar { var, .. } => {
            format!("join variable `{var}` ranges over disjoint value sorts")
        }
        EmptyReason::ConstMismatch { index, .. } | EmptyReason::EmptyPredicate { index } => {
            format!("subgoal `{}` is provably empty", rule.body[*index])
        }
    };
    out.push(
        Diagnostic::new(
            Code::DeadRule,
            format!("{context} `{rule}` can never fire: {cause}"),
        )
        .with_span(span)
        .with_note(
            "the sort abstraction over-approximates the least model, so an abstractly-empty \
             body is truly empty; the rule is pruned when analysis pruning is enabled",
        ),
    );
    out
}

/// Run the full analysis: sort inference, program- and instance-level
/// dead-rule detection, liveness, cardinality/volume estimation, and
/// partition-key inference. `spans` (when parsing kept a source map)
/// attaches rule positions to program-level diagnostics.
pub fn analyze(
    program: &Program,
    db: &Database,
    graph: &RuleGoalGraph,
    spans: Option<&SourceMap>,
    opts: &AnalyzeOptions,
) -> Analysis {
    let sort_fix = SortAnalysis::infer(program, db, opts.widen_cap);
    // Stratum inference. Unstratifiable programs are denied before graph
    // construction (Engine::compile, mp-analyze), so reaching this point
    // normally means no MP009/MP010; the diagnostics are merged anyway so
    // every caller sees one consistent report.
    let (strata, mut diagnostics) = stratify(program, spans);

    // Program-level pass: each source rule, in its own variable space.
    let mut program_dead = vec![false; program.rules.len()];
    for (i, rule) in program.rules.iter().enumerate() {
        if let Err(reason) = sort_fix.abstract_body(&rule.body) {
            program_dead[i] = true;
            let span = spans.and_then(|m| m.rule(i));
            diagnostics.extend(reason_diags(&reason, rule, span, "rule"));
        }
    }

    // Instance-level pass: rule nodes carry the goal's constants
    // substituted in, so an instance can be dead while its source rule is
    // live (e.g. `?- p(9, X)` against a sort without 9).
    let mut dead = vec![false; graph.len()];
    for (id, node) in graph.nodes() {
        let Node::Rule {
            rule, source_index, ..
        } = node
        else {
            continue;
        };
        if let Err(reason) = sort_fix.abstract_body(&rule.body) {
            dead[id] = true;
            if !program_dead[*source_index] {
                diagnostics.extend(reason_diags(
                    &reason,
                    rule,
                    spans.and_then(|m| m.rule(*source_index)),
                    &format!("rule instance (node #{id})"),
                ));
            }
        }
    }

    // Liveness: everything reachable from the root by feeder arcs without
    // entering a dead rule node. The root is always live.
    let mut keep = vec![false; graph.len()];
    keep[graph.root()] = true;
    let mut stack = vec![graph.root()];
    while let Some(n) = stack.pop() {
        for &(f, _) in graph.feeders(n) {
            if !dead[f] && !keep[f] {
                keep[f] = true;
                stack.push(f);
            }
        }
    }
    let pruned_nodes = keep.iter().filter(|&&k| !k).count();
    let pruned_rules = graph
        .nodes()
        .filter(|(id, n)| !keep[*id] && n.is_rule())
        .count();
    let collateral = pruned_nodes - pruned_rules;
    if collateral > 0 {
        diagnostics.push(Diagnostic::new(
            Code::PrunedUnreachable,
            format!(
                "{collateral} goal/EDB node(s) became unreachable after dead-rule \
                 elimination and are pruned from the rule/goal graph"
            ),
        ));
    }

    // Annotations over the full (unpruned) graph, so reports can show
    // what was cut and why.
    let nodes = plan::annotate(graph, db, &sort_fix, &dead, &keep, &strata);
    for a in &nodes {
        if a.pruned {
            continue;
        }
        if a.volume > opts.hot_link_threshold {
            diagnostics.push(
                Diagnostic::new(
                    Code::HotLink,
                    format!(
                        "hot link: node #{} ({}) is estimated to send ~{} answer tuples",
                        a.id,
                        a.desc,
                        fmt_card(a.volume)
                    ),
                )
                .with_note("estimate from EDB row/distinct statistics; advisory only"),
            );
        }
        if a.partition == PartitionKey::Broadcast {
            diagnostics.push(
                Diagnostic::new(
                    Code::BroadcastRequired,
                    format!(
                        "node #{} ({}) has no hash-partition key consistent with all of its \
                         producing/consuming links; K-way sharding would broadcast this relation",
                        a.id, a.desc
                    ),
                )
                .with_note(
                    "no transmitted column is joined on or forwarded by every consumer \
                     (SIP-key partition inference, ROADMAP item 1)",
                ),
            );
        }
    }

    mp_lint::sort_diagnostics(&mut diagnostics);
    Analysis {
        nodes,
        diagnostics,
        keep,
        pruned_nodes,
        pruned_rules,
        sorts: sort_fix,
        strata,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datalog::parser::parse_program;
    use mp_rulegoal::SipKind;
    use mp_storage::tuple;

    fn run(src: &str, facts: &[(&str, &[i64])]) -> (Analysis, RuleGoalGraph) {
        let program = parse_program(src).unwrap();
        let mut db = Database::new();
        program.load_facts(&mut db).unwrap();
        for &(p, row) in facts {
            match row.len() {
                1 => db.insert(p, tuple![row[0]]).unwrap(),
                2 => db.insert(p, tuple![row[0], row[1]]).unwrap(),
                _ => panic!("unsupported arity in test helper"),
            };
        }
        let graph = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();
        let a = analyze(&program, &db, &graph, None, &AnalyzeOptions::default());
        (a, graph)
    }

    #[test]
    fn clean_tc_has_no_dead_rules_and_keyed_partitions() {
        let (a, g) = run(
            "path(X, Y) :- edge(X, Y).
             path(X, Y) :- edge(X, Z), path(Z, Y).
             ?- path(0, Z).",
            &[("edge", &[0, 1]), ("edge", &[1, 2])],
        );
        assert_eq!(a.pruned_nodes, 0);
        assert!(a
            .diagnostics
            .iter()
            .all(|d| d.code != Code::DeadRule && d.code != Code::TypeClashJoin));
        // Every temporary relation gets a concrete placement: a key, the
        // root gather point, or a singleton — no broadcasts on tc.
        for n in &a.nodes {
            assert_ne!(
                n.partition,
                PartitionKey::Broadcast,
                "node #{} {}",
                n.id,
                n.desc
            );
        }
        assert_eq!(a.nodes[g.root()].partition, PartitionKey::Gather);
        // The answer stream from the root is the query result: nonzero.
        assert!(a.nodes[g.root()].card > 0.0);
    }

    #[test]
    fn dead_rule_is_flagged_and_pruned() {
        let (a, g) = run(
            "path(X, Y) :- edge(X, Y).
             path(X, Y) :- ghost(X, Z), path(Z, Y).
             ?- path(0, Z).",
            &[("edge", &[0, 1])],
        );
        assert!(a.diagnostics.iter().any(|d| d.code == Code::DeadRule));
        assert!(a.pruned_rules >= 1, "ghost rule must be pruned");
        assert!(a.pruned_nodes > a.pruned_rules, "subtree goes with it");
        let pruned = a.pruned_graph(&g).expect("something was pruned");
        assert_eq!(pruned.len(), g.len() - a.pruned_nodes);
        // The pruned graph still answers the query: root kept.
        assert!(pruned.node(pruned.root()).goal_label().is_some());
    }

    #[test]
    fn type_clash_join_is_mp401() {
        let (a, _) = run(
            "p(X) :- num(X, Y), sym(Y, Z).
             num(1, 2).
             sym(\"a\", \"b\").
             ?- p(X).",
            &[],
        );
        assert!(a.diagnostics.iter().any(|d| d.code == Code::TypeClashJoin));
        assert!(a.diagnostics.iter().any(|d| d.code == Code::DeadRule));
    }

    #[test]
    fn cross_product_requires_broadcast() {
        // p's two subgoals share no variable: no consumer joins the
        // e1 relation on any transmitted column.
        let (a, _) = run(
            "p(X, Y) :- e1(X), e2(Y).
             ?- p(X, Y).",
            &[("e1", &[1]), ("e2", &[2])],
        );
        assert!(
            a.diagnostics
                .iter()
                .any(|d| d.code == Code::BroadcastRequired),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn hot_link_threshold_fires_mp404() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).
             path(X, Y) :- edge(X, Z), path(Z, Y).
             ?- path(0, Z).",
        )
        .unwrap();
        let mut db = Database::new();
        for i in 0..40i64 {
            db.insert("edge", tuple![i, i + 1]).unwrap();
        }
        let graph = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();
        let opts = AnalyzeOptions {
            hot_link_threshold: 5.0,
            ..AnalyzeOptions::default()
        };
        let a = analyze(&program, &db, &graph, None, &opts);
        assert!(a.diagnostics.iter().any(|d| d.code == Code::HotLink));
    }

    #[test]
    fn json_and_explain_are_deterministic() {
        let (a, _) = run(
            "path(X, Y) :- edge(X, Y).
             ?- path(0, Z).",
            &[("edge", &[0, 1])],
        );
        let j1 = a.to_json("t.dl", "greedy");
        let j2 = a.to_json("t.dl", "greedy");
        assert_eq!(j1, j2);
        assert!(j1.contains("\"plan\": ["), "{j1}");
        assert!(j1.contains("\"partition\""), "{j1}");
        let e = a.render_explain(1);
        assert!(e.contains("gather"), "{e}");
    }

    #[test]
    fn explain_fan_out_tracks_shards() {
        let (a, g) = run(
            "path(X, Y) :- edge(X, Y).
             path(X, Y) :- edge(X, Z), path(Z, Y).
             ?- path(0, Z).",
            &[("edge", &[0, 1]), ("edge", &[1, 2])],
        );
        // At K=1 every node is single-instance.
        assert!(a.nodes.iter().all(|n| n.fan_out(1) == 1));
        // At K=4 some goal-kind node fans out; the root (Gather) and
        // every rule node stay single-instance.
        assert!(a.nodes.iter().any(|n| n.fan_out(4) == 4), "no fan-out");
        assert_eq!(a.nodes[g.root()].fan_out(4), 1);
        assert!(a
            .nodes
            .iter()
            .filter(|n| n.kind == "rule")
            .all(|n| n.fan_out(4) == 1));
        // The fan-out vector the compiler consumes agrees with the
        // per-node accessor.
        let parts: Vec<_> = a.nodes.iter().map(|n| n.partition.clone()).collect();
        let fo = shard_fan_outs(&g, &parts, 4);
        for n in &a.nodes {
            assert_eq!(fo[n.id], n.fan_out(4), "node #{}", n.id);
        }
    }
}
