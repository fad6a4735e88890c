//! Per-node annotation planning: cardinality and message-volume
//! estimates and SIP-key partition inference.
//!
//! Cardinality runs a bounded fixpoint over the rule/goal graph using the
//! EDB's catalogue (row counts, per-column distinct counts, shared
//! indexes) and the inferred column sorts as domain caps: EDB leaves
//! count their filtered rows exactly,
//! rule nodes take a System-R style equijoin estimate over their subgoal
//! relations, goal nodes sum their rules. Estimates are heuristics — they
//! steer batch sizing and hot-link warnings, never correctness.
//!
//! Partition inference answers the ROADMAP item 1 question: *if every
//! temporary relation were hash-partitioned across K shards, which key
//! would route both its requests and its answers to the right shard?*
//!
//! * A node with `d`-class transmitted columns partitions on them —
//!   tuple requests already arrive keyed by exactly those columns.
//! * Otherwise its consuming join stages vote. A stage's candidate
//!   columns carry variables the rule joins on (shared with another
//!   subgoal or bound by the head), forwards through a SIP edge, or
//!   must route to satisfy the consumer's own inherited key. Keys
//!   propagate top-down from the root, so a pass-through rule under the
//!   gather point constrains nothing.
//! * A multi-subgoal stage with no candidate columns is a cross product:
//!   its input cannot be co-partitioned at all and votes ∅.
//! * The key is the intersection of all votes; ∅ means no single key
//!   serves every link — MP405, broadcast required. No votes at all
//!   means free choice: hash on the whole transmitted tuple.

use crate::sorts::SortAnalysis;
use mp_datalog::{Database, Predicate, Term, Var};
use mp_rulegoal::sip::bound_head_vars;
use mp_rulegoal::{ArcKind, ArgClass, GoalKind, LabelArg, Node, NodeId, RuleGoalGraph};
use std::collections::BTreeSet;
use std::collections::VecDeque;

/// Cardinality estimates saturate here; beyond it the numbers carry no
/// information and only risk float noise in golden files.
const CARD_CEILING: f64 = 1e15;

/// Column width to assume when a sort has widened and no EDB statistic
/// applies (an unknown-but-large domain).
const UNKNOWN_WIDTH: f64 = 1024.0;

/// Rounds of the cardinality fixpoint. Estimates are monotone and
/// saturate at `CARD_CEILING`; a fixed bound keeps the pass linear.
const CARD_ROUNDS: usize = 16;

/// How one temporary relation would be placed across K shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionKey {
    /// Hash-partition on these transmitted-space columns.
    Key(Vec<usize>),
    /// The root goal: answers gather at the engine, no partitioning.
    Gather,
    /// At most one tuple (no variable transmitted columns): replicate
    /// freely, partitioning is moot.
    Singleton,
    /// No key is consistent with every producing/consuming link; the
    /// relation would have to be broadcast to all shards (MP405).
    Broadcast,
}

impl PartitionKey {
    /// Shard fan-out this verdict permits at `--shards K`: `Key`
    /// relations spread over all `shards`; `Gather`, `Singleton`, and
    /// `Broadcast` relations stay single-instance.
    pub fn fan_out(&self, shards: usize) -> usize {
        match self {
            PartitionKey::Key(_) => shards.max(1),
            _ => 1,
        }
    }

    /// Compact human form: `key[1]`, `gather`, `singleton`, `broadcast`.
    pub fn render(&self) -> String {
        match self {
            PartitionKey::Key(cols) => {
                let cols: Vec<String> = cols.iter().map(usize::to_string).collect();
                format!("key[{}]", cols.join(","))
            }
            PartitionKey::Gather => "gather".to_string(),
            PartitionKey::Singleton => "singleton".to_string(),
            PartitionKey::Broadcast => "broadcast".to_string(),
        }
    }
}

/// The full annotation for one rule/goal-graph node.
#[derive(Clone, Debug)]
pub struct NodeAnnotation {
    /// The node id in the *unpruned* graph.
    pub id: NodeId,
    /// Node kind: `goal`, `rule`, `edb`, or `cycle-ref`.
    pub kind: &'static str,
    /// [`Node::describe`] output, captured so reports need no graph.
    pub desc: String,
    /// Estimated rows of the node's answer relation (transmitted space).
    pub card: f64,
    /// Estimated answer tuples sent: `card × customer links`.
    pub volume: f64,
    /// Inferred shard placement for the node's temporary relation.
    pub partition: PartitionKey,
    /// Stratum of the node's predicate under the stratification plan
    /// (0 for every node of a flat program).
    pub stratum: usize,
    /// True when every tuple request this node receives already carries
    /// its full partition key (a goal-kind node whose `Key` columns are
    /// its label's non-empty `d` columns) and the node is free to
    /// replicate — it is not the leader of a nontrivial SCC. Only such
    /// nodes are actually instantiated K ways; see [`shard_fan_outs`].
    pub request_keyed: bool,
    /// True when analysis pruning removes this node.
    pub pruned: bool,
}

impl NodeAnnotation {
    /// How many instances this node gets at `--shards K`: `K` for
    /// request-keyed `Key` relations, 1 for everything else (`Gather`,
    /// `Singleton`, `Broadcast`, rule nodes, SCC leaders).
    pub fn fan_out(&self, shards: usize) -> usize {
        if self.request_keyed {
            self.partition.fan_out(shards)
        } else {
            1
        }
    }
}

/// Width of one (predicate, column) domain: exact sort size when known,
/// else the EDB distinct count, else "unknown but large".
fn col_width(sorts: &SortAnalysis, db: &Database, pred: &Predicate, col: usize) -> f64 {
    if let Some(cols) = sorts.of(pred) {
        if let Some(sz) = cols.get(col).and_then(crate::sorts::SortSet::size) {
            return (sz as f64).max(1.0);
        }
    }
    if let Some(summary) = db.relation(pred).and_then(|rel| rel.summary().get(col)) {
        return (summary.distinct() as f64).max(1.0);
    }
    UNKNOWN_WIDTH
}

/// Exact row count of an EDB leaf after applying the label's constants
/// and repeated-variable equalities (the node's standing selection).
fn edb_filtered_rows(db: &Database, label: &mp_rulegoal::GoalLabel) -> f64 {
    let Some(rel) = db.relation(&label.pred) else {
        return 0.0;
    };
    let sel = label.selection();
    if sel.is_empty() {
        return rel.len() as f64;
    }
    // A label wider than its relation is denied by MP002 before analysis
    // runs; it selects nothing.
    rel.select_ids(&sel).map_or(0.0, |ids| ids.len() as f64)
}

/// Domain cap for a goal-label node: the product of its variable
/// transmitted columns' widths (constants contribute 1).
fn domain_cap(sorts: &SortAnalysis, db: &Database, label: &mp_rulegoal::GoalLabel) -> f64 {
    let adorn = label.adornment();
    let mut cap = 1.0f64;
    for &p in &adorn.transmitted_positions() {
        if matches!(label.args[p], LabelArg::Var { .. }) {
            cap = (cap * col_width(sorts, db, &label.pred, p)).min(CARD_CEILING);
        }
    }
    cap
}

/// The rule node's subgoal nodes in SIP order, paired with their original
/// body indices: the builder pushes tree feeders in plan order, so the
/// k-th tree feeder is subgoal `plan.order[k]`.
fn rule_stages(graph: &RuleGoalGraph, rule_id: NodeId) -> Vec<(NodeId, usize)> {
    let Node::Rule { plan, .. } = graph.node(rule_id) else {
        return Vec::new();
    };
    graph
        .feeders(rule_id)
        .iter()
        .filter(|&&(_, k)| k == ArcKind::Tree)
        .map(|&(f, _)| f)
        .zip(plan.order.iter().copied())
        .collect()
}

/// Run the bounded cardinality fixpoint. `dead[id]` marks abstractly-dead
/// rule nodes whose estimate is pinned at zero.
pub fn estimate_cards(
    graph: &RuleGoalGraph,
    db: &Database,
    sorts: &SortAnalysis,
    dead: &[bool],
) -> Vec<f64> {
    let n = graph.len();
    let mut base = vec![0.0f64; n];
    let mut caps = vec![CARD_CEILING; n];
    for (id, node) in graph.nodes() {
        match node {
            Node::Goal { kind, label, .. } => {
                if *kind == GoalKind::Edb {
                    base[id] = edb_filtered_rows(db, label);
                }
                caps[id] = domain_cap(sorts, db, label);
            }
            Node::Rule { head_label, .. } => {
                caps[id] = domain_cap(sorts, db, head_label);
            }
        }
    }

    let mut card = vec![0.0f64; n];
    for _ in 0..CARD_ROUNDS {
        for id in 0..n {
            card[id] = match graph.node(id) {
                Node::Goal { kind, .. } => match kind {
                    GoalKind::Edb => base[id].min(caps[id]),
                    GoalKind::CycleRef { ancestor } => card[*ancestor],
                    GoalKind::Idb => {
                        let sum: f64 = graph
                            .feeders(id)
                            .iter()
                            .filter(|&&(_, k)| k == ArcKind::Tree)
                            .map(|&(f, _)| card[f])
                            .sum();
                        sum.min(caps[id])
                    }
                },
                Node::Rule { .. } if dead[id] => 0.0,
                Node::Rule { rule, .. } => {
                    // System-R style: multiply the subgoal relation sizes,
                    // divide by a column width per repeated join-variable
                    // occurrence (equijoin selectivity under uniformity).
                    let mut est = 1.0f64;
                    let mut seen: BTreeSet<&Var> = BTreeSet::new();
                    for (f, j) in rule_stages(graph, id) {
                        est = (est * card[f]).min(CARD_CEILING);
                        let atom = &rule.body[j];
                        for (i, term) in atom.terms.iter().enumerate() {
                            if let Term::Var(v) = term {
                                if !seen.insert(v) {
                                    est /= col_width(sorts, db, &atom.pred, i).max(1.0);
                                }
                            }
                        }
                    }
                    est.min(caps[id])
                }
            };
        }
    }
    card
}

/// One consuming stage's vote on a node's partition columns (in the
/// node's transmitted space):
///
/// * `None` — indifferent (pass-through into an unkeyed consumer);
/// * `Some(∅)` — a cross product: no co-partitioning can serve it;
/// * `Some(cols)` — any key within `cols` routes this stage's join.
fn stage_vote(
    graph: &RuleGoalGraph,
    rule_id: NodeId,
    feeder_id: NodeId,
    sg_index: usize,
    computed: &[Option<PartitionKey>],
    constrained: &[bool],
) -> Option<BTreeSet<usize>> {
    let Node::Rule {
        rule,
        plan,
        head_label,
        ..
    } = graph.node(rule_id)
    else {
        return None;
    };
    let sg_atom = rule.body.get(sg_index)?;

    // Variables this stage can route by: shared with another subgoal or
    // bound by the head (the rule node equijoins on them), or demanded
    // by a later subgoal through a SIP edge.
    let mut routed: BTreeSet<Var> = bound_head_vars(rule, &head_label.adornment());
    for (other, atom) in rule.body.iter().enumerate() {
        if other != sg_index {
            for v in atom.vars() {
                if sg_atom.vars().contains(&v) {
                    routed.insert(v);
                }
            }
        }
    }
    for e in &plan.edges {
        if e.from == mp_rulegoal::SipSource::Subgoal(sg_index) {
            routed.insert(e.var.clone());
        }
    }

    // Inherited demand: if the rule's own output is keyed (its parent
    // goal has a Key), the head variables under that key must route here
    // too, so the rule's shards produce tuples they own. A free-choice
    // key (nobody actually constrains the parent) imposes nothing.
    let parent = graph
        .customers(rule_id)
        .iter()
        .find(|&&(_, k)| k == ArcKind::Tree)
        .map(|&(c, _)| c)
        .filter(|&p| constrained[p]);
    let mut inherited_constraint = false;
    if let Some(Some(PartitionKey::Key(head_cols))) = parent.map(|p| computed[p].clone()) {
        inherited_constraint = true;
        let head_trans = head_label.adornment().transmitted_positions();
        for &hc in &head_cols {
            if let Some(&orig) = head_trans.get(hc) {
                if let Some(Term::Var(v)) = rule.head.terms.get(orig) {
                    routed.insert(v.clone());
                }
            }
        }
    }

    // Map routed variables onto the node's transmitted-space columns.
    let Node::Goal { label, .. } = graph.node(feeder_id) else {
        return None;
    };
    let trans = label.adornment().transmitted_positions();
    let mut cols = BTreeSet::new();
    for (ti, &orig) in trans.iter().enumerate() {
        if let Some(Term::Var(v)) = sg_atom.terms.get(orig) {
            if routed.contains(v) {
                cols.insert(ti);
            }
        }
    }
    if cols.is_empty() {
        if rule.body.len() > 1 || inherited_constraint {
            // A multi-subgoal stage that joins on nothing is a cross
            // product; an inherited key this subgoal cannot carry means
            // its tuples land on shards that do not own the output.
            Some(BTreeSet::new())
        } else {
            // Single-subgoal pass-through under an unkeyed consumer.
            None
        }
    } else {
        Some(cols)
    }
}

/// Infer partition keys for every node. Goal-kind nodes are processed
/// top-down (customers before feeders) so inherited keys propagate from
/// the root's gather point; rule nodes share their parent goal's key.
pub fn partition_keys(graph: &RuleGoalGraph) -> Vec<PartitionKey> {
    let n = graph.len();
    let mut computed: Vec<Option<PartitionKey>> = vec![None; n];
    // Whether a node's placement was genuinely forced (d-columns or a
    // consumer vote) as opposed to a free-choice default; only forced
    // keys impose inherited demand on feeders.
    let mut constrained = vec![true; n];

    // BFS from the root over feeder arcs: a goal node's consuming rules
    // (and their parent goals) are visited before the node itself. Cycle
    // refs may look "up" at an ancestor not yet finalized; their stage
    // votes simply skip the inherited part then.
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = VecDeque::from([graph.root()]);
    seen[graph.root()] = true;
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &(f, _) in graph.feeders(v) {
            if !seen[f] {
                seen[f] = true;
                queue.push_back(f);
            }
        }
    }
    // Unreachable nodes (none today, pruning keeps reachable sets) still
    // get a placement so the annotation table is total.
    order.extend((0..n).filter(|&id| !seen[id]));

    for &id in &order {
        let node = graph.node(id);
        if node.is_rule() {
            let parent = graph
                .customers(id)
                .iter()
                .find(|&&(_, k)| k == ArcKind::Tree)
                .map(|&(c, _)| c);
            if let Some(p) = parent {
                constrained[id] = constrained[p];
            }
            computed[id] = Some(match parent.and_then(|p| computed[p].clone()) {
                Some(k) => k,
                None => PartitionKey::Singleton,
            });
            continue;
        }
        let Node::Goal { label, .. } = node else {
            unreachable!()
        };
        let adorn = label.adornment();
        let trans = adorn.transmitted_positions();
        let var_cols: Vec<usize> = trans
            .iter()
            .enumerate()
            .filter(|&(_, &p)| matches!(label.args[p], LabelArg::Var { .. }))
            .map(|(ti, _)| ti)
            .collect();
        if var_cols.is_empty() {
            computed[id] = Some(PartitionKey::Singleton);
            continue;
        }
        if id == graph.root() {
            computed[id] = Some(PartitionKey::Gather);
            continue;
        }
        // Tuple requests arrive keyed by the `d` columns; partitioning on
        // them co-locates each request with the answers it selects.
        let d_cols: Vec<usize> = trans
            .iter()
            .enumerate()
            .filter(|&(_, &p)| adorn.class(p) == ArgClass::D)
            .map(|(ti, _)| ti)
            .collect();
        if !d_cols.is_empty() {
            computed[id] = Some(PartitionKey::Key(d_cols));
            continue;
        }

        // Consumer stages: the tree-customer rule, plus — for cycle
        // ancestors — each cycle ref's customer rule (the ref relays this
        // node's answers into that join).
        let mut stages: Vec<(NodeId, NodeId)> = Vec::new();
        for &(c, kind) in graph.customers(id) {
            match kind {
                ArcKind::Tree => {
                    if graph.node(c).is_rule() {
                        stages.push((c, id));
                    }
                }
                ArcKind::Cycle => {
                    for &(c2, k2) in graph.customers(c) {
                        if k2 == ArcKind::Tree && graph.node(c2).is_rule() {
                            stages.push((c2, c));
                        }
                    }
                }
            }
        }
        let mut key: Option<BTreeSet<usize>> = None;
        for (rule_id, feeder_id) in stages {
            let Some(sg_index) = rule_stages(graph, rule_id)
                .into_iter()
                .find(|&(f, _)| f == feeder_id)
                .map(|(_, j)| j)
            else {
                continue;
            };
            let Some(vote) =
                stage_vote(graph, rule_id, feeder_id, sg_index, &computed, &constrained)
            else {
                continue;
            };
            key = Some(match key {
                None => vote,
                Some(prev) => prev.intersection(&vote).copied().collect(),
            });
        }
        computed[id] = Some(match key {
            Some(cols) if !cols.is_empty() => PartitionKey::Key(cols.into_iter().collect()),
            // Constraining votes exist but agree on nothing: broadcast.
            Some(_) => PartitionKey::Broadcast,
            // Nobody constrains this relation: free choice, shard on the
            // whole transmitted tuple.
            None => {
                constrained[id] = false;
                PartitionKey::Key(var_cols)
            }
        });
    }

    computed
        .into_iter()
        .map(|k| k.expect("every node was assigned a placement"))
        .collect()
}

/// Whether node `id` is request-keyed (shardable): a goal-kind node
/// whose `Key` verdict is its label's non-empty `d` columns — so every
/// tuple request already carries the full partition key and the router
/// can pick the owning shard without coordination — and not the leader
/// of a nontrivial SCC. The exclusions are load-bearing:
///
/// * **Rule nodes never shard.** A rule's `requested[level]` dedup is
///   per instance; two seed bindings landing on different shards can
///   project to the *same* subgoal request, which would then be issued
///   twice — inflating the logical tuple-request/answer counters that
///   sharding must preserve bit-identically. The rule body stays
///   colocated with its dedup tables; its head answers hash-route up.
/// * **SCC leaders never shard.** Only the leader concludes the probe
///   wave and ends the component's cross streams; a replicated exit's
///   sibling instances would never `End` their customers.
/// * **Free-choice keys (no `d` columns) never shard.** Their requests
///   carry no key values, so routing would have to broadcast.
fn is_request_keyed(graph: &RuleGoalGraph, id: NodeId, partition: &PartitionKey) -> bool {
    let Node::Goal { label, .. } = graph.node(id) else {
        return false;
    };
    if !matches!(partition, PartitionKey::Key(_)) {
        return false;
    }
    let adorn = label.adornment();
    let has_d = adorn
        .transmitted_positions()
        .iter()
        .any(|&p| adorn.class(p) == ArgClass::D);
    if !has_d {
        return false;
    }
    let scc = graph.scc();
    !(scc.in_nontrivial(id) && scc.leader_of(scc.component_of(id)) == Some(id))
}

/// Per-node shard fan-out for `--shards K`: `K` for request-keyed nodes
/// (see [`NodeAnnotation::request_keyed`]), 1 for everything else. This
/// is the vector the compiler's `ShardPlan` consumes.
pub fn shard_fan_outs(
    graph: &RuleGoalGraph,
    partition: &[PartitionKey],
    shards: usize,
) -> Vec<usize> {
    (0..graph.len())
        .map(|id| {
            if shards > 1 && is_request_keyed(graph, id, &partition[id]) {
                shards
            } else {
                1
            }
        })
        .collect()
}

/// Node kind as a stable lowercase string for reports.
pub fn kind_str(node: &Node) -> &'static str {
    match node {
        Node::Rule { .. } => "rule",
        Node::Goal { kind, .. } => match kind {
            GoalKind::Idb => "goal",
            GoalKind::Edb => "edb",
            GoalKind::CycleRef { .. } => "cycle-ref",
        },
    }
}

/// Assemble the per-node annotations: cardinalities, volumes, batch
/// hints, and partition keys.
pub fn annotate(
    graph: &RuleGoalGraph,
    db: &Database,
    sorts: &SortAnalysis,
    dead: &[bool],
    keep: &[bool],
    strata: &crate::stratify::StratumPlan,
) -> Vec<NodeAnnotation> {
    let card = estimate_cards(graph, db, sorts, dead);
    let partitions = partition_keys(graph);
    graph
        .nodes()
        .map(|(id, node)| {
            let pruned = !keep[id];
            let c = if pruned { 0.0 } else { card[id] };
            let volume = c * graph.customers(id).len() as f64;
            let pred = match node {
                Node::Rule { rule, .. } => &rule.head.pred,
                Node::Goal { atom, .. } => &atom.pred,
            };
            NodeAnnotation {
                id,
                kind: kind_str(node),
                desc: node.describe(),
                card: c,
                volume,
                request_keyed: is_request_keyed(graph, id, &partitions[id]),
                partition: partitions[id].clone(),
                stratum: strata.stratum(pred),
                pruned,
            }
        })
        .collect()
}
