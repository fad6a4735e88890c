//! Rule/goal graph construction (§2.1, Def 2.2).
//!
//! Arc orientation follows the paper: "We consider edges in this tree to
//! be oriented from child to parent, the direction in which 'answers'
//! flow." Requests flow against the arcs. A cycle edge runs from an
//! ancestor goal node to the unexpanded variant subgoal node, making the
//! variant a *successor* of the ancestor (its answers are "also sent to
//! the other successor nodes, which are descendants", §3.1).

use crate::scc::SccInfo;
use crate::{ArgClass, GoalLabel, SipKind, SipPlan};
use mp_datalog::unify::{mgu, rename_apart};
use mp_datalog::{Atom, Database, DatalogError, Program, Rule, Term};
use std::fmt;

/// Index of a node in the graph.
pub type NodeId = usize;

/// Kind of arc.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArcKind {
    /// A depth-first spanning tree arc (child → parent).
    Tree,
    /// A cycle edge (ancestor goal node → variant descendant).
    Cycle,
}

/// What a goal node stands for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GoalKind {
    /// An IDB goal with rule children.
    Idb,
    /// An EDB leaf: "it is not processed against the actual EDB relation
    /// during graph construction" (§2.1).
    Edb,
    /// An unexpanded variant of an ancestor; it "performs a selection on
    /// the relation computed by the ancestor" (§2.2).
    CycleRef {
        /// The ancestor goal node supplying this node's tuples.
        ancestor: NodeId,
    },
}

/// A node of the rule/goal graph.
#[derive(Clone, Debug)]
pub enum Node {
    /// A goal (predicate) node.
    Goal {
        /// Canonical label (predicate + classes + constants + repeated-
        /// variable pattern); variants share labels.
        label: GoalLabel,
        /// Representative atom in instance variables.
        atom: Atom,
        /// The node's role.
        kind: GoalKind,
    },
    /// A rule node: a rule instance ("a copy of the rule that began with
    /// all new variables, then had the mgu applied", §2.1) plus its SIP
    /// plan.
    Rule {
        /// The instantiated rule.
        rule: Rule,
        /// Index of the originating rule in the program.
        source_index: usize,
        /// The sideways information passing plan.
        plan: SipPlan,
        /// The parent goal's label (head adornment provider).
        head_label: GoalLabel,
    },
}

impl Node {
    /// The goal label, for goal nodes.
    pub fn goal_label(&self) -> Option<&GoalLabel> {
        match self {
            Node::Goal { label, .. } => Some(label),
            Node::Rule { .. } => None,
        }
    }

    /// True for rule nodes.
    pub fn is_rule(&self) -> bool {
        matches!(self, Node::Rule { .. })
    }

    /// A short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Node::Goal { label, kind, .. } => match kind {
                GoalKind::Idb => format!("goal {}", label.render()),
                GoalKind::Edb => format!("edb {}", label.render()),
                GoalKind::CycleRef { ancestor } => {
                    format!("cycle-ref {} (from #{ancestor})", label.render())
                }
            },
            Node::Rule { rule, .. } => format!("rule {rule}"),
        }
    }
}

/// Errors during graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Program validation failed.
    Datalog(DatalogError),
    /// The graph exceeded the configured node budget.
    TooLarge {
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Datalog(e) => write!(f, "{e}"),
            GraphError::TooLarge { limit } => {
                write!(f, "rule/goal graph exceeded {limit} nodes")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl From<DatalogError> for GraphError {
    fn from(e: DatalogError) -> Self {
        GraphError::Datalog(e)
    }
}

/// The information-passing rule/goal graph.
#[derive(Clone, Debug)]
pub struct RuleGoalGraph {
    nodes: Vec<Node>,
    /// `out[n]` = customers of `n` (arcs n → customer; answer direction).
    out_arcs: Vec<Vec<(NodeId, ArcKind)>>,
    /// `in[n]` = feeders of `n` (arcs feeder → n).
    in_arcs: Vec<Vec<(NodeId, ArcKind)>>,
    root: NodeId,
    scc: SccInfo,
    sip: SipKind,
}

/// Node budget guarding against combinatorial explosion on adversarial
/// programs (Thm 2.1 guarantees finiteness, not smallness).
const DEFAULT_MAX_NODES: usize = 200_000;

struct Builder<'a> {
    program: &'a Program,
    db: &'a Database,
    sip: SipKind,
    nodes: Vec<Node>,
    out_arcs: Vec<Vec<(NodeId, ArcKind)>>,
    in_arcs: Vec<Vec<(NodeId, ArcKind)>>,
    rename_counter: u64,
    max_nodes: usize,
}

impl<'a> Builder<'a> {
    fn add_node(&mut self, node: Node) -> Result<NodeId, GraphError> {
        if self.nodes.len() >= self.max_nodes {
            return Err(GraphError::TooLarge {
                limit: self.max_nodes,
            });
        }
        self.nodes.push(node);
        self.out_arcs.push(Vec::new());
        self.in_arcs.push(Vec::new());
        Ok(self.nodes.len() - 1)
    }

    fn add_arc(&mut self, from: NodeId, to: NodeId, kind: ArcKind) {
        self.out_arcs[from].push((to, kind));
        self.in_arcs[to].push((from, kind));
    }

    /// Expand an IDB goal node: one rule node per unifying rule, then
    /// recursively expand subgoals. `ancestors` is the DFS path of goal
    /// labels (with node ids).
    fn expand(
        &mut self,
        goal_id: NodeId,
        ancestors: &mut Vec<(GoalLabel, NodeId)>,
    ) -> Result<(), GraphError> {
        let (goal_atom, goal_label) = match &self.nodes[goal_id] {
            Node::Goal { atom, label, .. } => (atom.clone(), label.clone()),
            Node::Rule { .. } => unreachable!("expand is only called on goal nodes"),
        };
        let head_adornment = goal_label.adornment();
        let candidates: Vec<(usize, Rule)> = self
            .program
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.head.pred == goal_atom.pred && r.head.arity() == goal_atom.arity())
            .map(|(i, r)| (i, r.clone()))
            .collect();

        for (source_index, rule) in candidates {
            let fresh = rename_apart(&rule, &mut self.rename_counter);
            // Unify the fresh head with the goal atom. Pair order matters
            // for cosmetics only (fresh vars rename onto goal vars); the
            // mgu is the mgu either way.
            let Some(sigma) = mgu(&fresh.head, &goal_atom) else {
                continue; // constant clash: this rule cannot serve the goal
            };
            let instance = sigma.apply_rule(&fresh);
            let plan =
                crate::sip::plan_with_stats(&instance, &head_adornment, self.sip, Some(self.db));
            let rule_id = self.add_node(Node::Rule {
                rule: instance.clone(),
                source_index,
                plan: plan.clone(),
                head_label: goal_label.clone(),
            })?;
            self.add_arc(rule_id, goal_id, ArcKind::Tree);

            // Visit subgoals in SIP order so the DFS tree mirrors the
            // evaluation order (cosmetic; cycle detection is order-
            // independent because labels are canonical).
            for &i in &plan.order {
                let sg_atom = instance.body[i].clone();
                let sg_adornment = plan.adornments[i].clone();
                let label = GoalLabel::new(&sg_atom, &sg_adornment);

                if self.db.contains_pred(&sg_atom.pred) {
                    let leaf = self.add_node(Node::Goal {
                        label,
                        atom: sg_atom,
                        kind: GoalKind::Edb,
                    })?;
                    self.add_arc(leaf, rule_id, ArcKind::Tree);
                } else if let Some(&(_, anc_id)) = ancestors.iter().find(|(l, _)| *l == label) {
                    let reference = self.add_node(Node::Goal {
                        label,
                        atom: sg_atom,
                        kind: GoalKind::CycleRef { ancestor: anc_id },
                    })?;
                    self.add_arc(reference, rule_id, ArcKind::Tree);
                    self.add_arc(anc_id, reference, ArcKind::Cycle);
                } else {
                    let child = self.add_node(Node::Goal {
                        label: label.clone(),
                        atom: sg_atom,
                        kind: GoalKind::Idb,
                    })?;
                    self.add_arc(child, rule_id, ArcKind::Tree);
                    ancestors.push((label, child));
                    self.expand(child, ancestors)?;
                    ancestors.pop();
                }
            }
        }
        Ok(())
    }
}

impl RuleGoalGraph {
    /// Build the graph for `program` over `db` with the given SIP
    /// strategy. Validates the program first.
    pub fn build(
        program: &Program,
        db: &Database,
        sip: SipKind,
    ) -> Result<RuleGoalGraph, GraphError> {
        Self::build_with_limit(program, db, sip, DEFAULT_MAX_NODES)
    }

    /// [`RuleGoalGraph::build`] with an explicit node budget.
    pub fn build_with_limit(
        program: &Program,
        db: &Database,
        sip: SipKind,
        max_nodes: usize,
    ) -> Result<RuleGoalGraph, GraphError> {
        program.validate(db)?;
        let goal_arity = program
            .query_rules()
            .next()
            .expect("validate ensures a query rule")
            .head
            .arity();

        let mut b = Builder {
            program,
            db,
            sip,
            nodes: Vec::new(),
            out_arcs: Vec::new(),
            in_arcs: Vec::new(),
            rename_counter: 0,
            max_nodes,
        };

        // Top-level goal node: goal(G0..Gk), all class f.
        let root_atom = Atom::new(
            Program::goal_pred(),
            (0..goal_arity)
                .map(|i| Term::var(format!("G{i}")))
                .collect(),
        );
        let root_adornment = crate::Adornment((0..goal_arity).map(|_| ArgClass::F).collect());
        let root_label = GoalLabel::new(&root_atom, &root_adornment);
        let root = b.add_node(Node::Goal {
            label: root_label.clone(),
            atom: root_atom,
            kind: GoalKind::Idb,
        })?;
        let mut ancestors = vec![(root_label, root)];
        b.expand(root, &mut ancestors)?;

        let scc = SccInfo::compute(b.nodes.len(), &b.out_arcs, &b.in_arcs);
        Ok(RuleGoalGraph {
            nodes: b.nodes,
            out_arcs: b.out_arcs,
            in_arcs: b.in_arcs,
            root,
            scc,
            sip,
        })
    }

    /// The top-level goal node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The SIP strategy the graph was built with.
    pub fn sip(&self) -> SipKind {
        self.sip
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// All nodes with ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.nodes.iter().enumerate()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a (degenerate) empty graph — never produced by `build`.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Customers of `id` (arcs `id → customer`; answers flow this way).
    pub fn customers(&self, id: NodeId) -> &[(NodeId, ArcKind)] {
        &self.out_arcs[id]
    }

    /// Feeders of `id` (arcs `feeder → id`).
    pub fn feeders(&self, id: NodeId) -> &[(NodeId, ArcKind)] {
        &self.in_arcs[id]
    }

    /// Strong-component information (leaders, BFSTs).
    pub fn scc(&self) -> &SccInfo {
        &self.scc
    }

    /// How many goal nodes could be merged with an identically-labelled
    /// node. §2.2: "several nodes in the graph may have identical
    /// predicates and binding patterns. For single processor computation
    /// it is probably desirable to coalesce such nodes (thereby
    /// introducing cross and forward edges). However, for distributed or
    /// parallel computation, combining nodes may well be counter-
    /// productive, so in this paper we shall assume that it is not done."
    /// We follow the paper (no coalescing at runtime) and expose the
    /// potential saving as an analysis, measured by experiment E8.
    pub fn coalescible_nodes(&self) -> usize {
        let mut counts: std::collections::HashMap<&GoalLabel, usize> =
            std::collections::HashMap::new();
        for (_, n) in self.nodes() {
            if let Some(l) = n.goal_label() {
                *counts.entry(l).or_insert(0) += 1;
            }
        }
        counts.values().map(|&c| c - 1).sum()
    }

    /// Prune the graph down to the nodes marked `true` in `keep`,
    /// compacting node ids and recomputing strong-component information.
    ///
    /// Used by the mp-analyze dead-rule elimination: the caller computes
    /// liveness (root-reachability avoiding abstractly-empty rule nodes)
    /// and this method performs the structural surgery. Invariants the
    /// caller must uphold, asserted here where cheap:
    ///
    /// * the root is kept;
    /// * a kept rule node keeps all of its subgoal feeders (pruning is
    ///   whole-subtree, so feeder *order* — which `Network::compile` maps
    ///   onto SIP plan order — is preserved verbatim);
    /// * a kept cycle-ref's ancestor is kept (the ancestor lies on the
    ///   ref's own tree path to the root).
    pub fn retain(&self, keep: &[bool]) -> RuleGoalGraph {
        assert_eq!(keep.len(), self.nodes.len(), "keep mask length");
        assert!(keep[self.root], "the root goal node cannot be pruned");
        let mut remap = vec![usize::MAX; self.nodes.len()];
        let mut nodes: Vec<Node> = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if keep[id] {
                remap[id] = nodes.len();
                nodes.push(node.clone());
            }
        }
        for node in &mut nodes {
            if let Node::Goal {
                kind: GoalKind::CycleRef { ancestor },
                ..
            } = node
            {
                assert!(keep[*ancestor], "kept cycle-ref with pruned ancestor");
                *ancestor = remap[*ancestor];
            }
        }
        // Filter the original adjacency lists in place of rebuilding them,
        // so the relative order of surviving arcs is untouched.
        let filter_arcs = |arcs: &[Vec<(NodeId, ArcKind)>]| -> Vec<Vec<(NodeId, ArcKind)>> {
            arcs.iter()
                .enumerate()
                .filter(|&(id, _)| keep[id])
                .map(|(_, list)| {
                    list.iter()
                        .filter(|&&(other, _)| keep[other])
                        .map(|&(other, kind)| (remap[other], kind))
                        .collect()
                })
                .collect()
        };
        let out_arcs = filter_arcs(&self.out_arcs);
        let in_arcs = filter_arcs(&self.in_arcs);
        let scc = SccInfo::compute(nodes.len(), &out_arcs, &in_arcs);
        RuleGoalGraph {
            nodes,
            out_arcs,
            in_arcs,
            root: remap[self.root],
            scc,
            sip: self.sip,
        }
    }

    /// Count of nodes by type: (goal, rule, edb-leaf, cycle-ref).
    pub fn census(&self) -> (usize, usize, usize, usize) {
        let mut goal = 0;
        let mut rule = 0;
        let mut edb = 0;
        let mut cycle = 0;
        for n in &self.nodes {
            match n {
                Node::Rule { .. } => rule += 1,
                Node::Goal { kind, .. } => match kind {
                    GoalKind::Idb => goal += 1,
                    GoalKind::Edb => edb += 1,
                    GoalKind::CycleRef { .. } => cycle += 1,
                },
            }
        }
        (goal, rule, edb, cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datalog::parser::parse_program;
    use mp_storage::tuple;

    /// The paper's P1: query p(a, Z) over EDB relations r and q.
    fn p1() -> (Program, Database) {
        let program = parse_program(
            "p(X, Y) :- p(X, V), q(V, W), p(W, Y).
             p(X, Y) :- r(X, Y).
             ?- p(\"a\", Z).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert("r", tuple!["a", "b"]).unwrap();
        db.insert("q", tuple!["b", "c"]).unwrap();
        (program, db)
    }

    fn labels_of(g: &RuleGoalGraph) -> Vec<String> {
        g.nodes()
            .filter_map(|(_, n)| n.goal_label().map(|l| l.render()))
            .collect()
    }

    #[test]
    fn p1_graph_matches_figure_1() {
        let (program, db) = p1();
        let g = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();

        // Figure 1 structure (plus the trivial goal() top level the paper
        // omits): goal nodes with binding patterns goal(f), p(a^c,f),
        // p(d,f); the p(d,f) node has TWO cycle refs (its two recursive
        // subgoals) and the p(a^c,f) node has ONE (its first subgoal).
        let labels = labels_of(&g);
        assert!(
            labels.contains(&"p(a^c,V1^f)".to_string())
                || labels.contains(&"p(a^c,V0^f)".to_string()),
            "missing p(a^c, Z^f) node in {labels:?}"
        );
        let cycle_refs = g
            .nodes()
            .filter(|(_, n)| {
                matches!(
                    n,
                    Node::Goal {
                        kind: GoalKind::CycleRef { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(cycle_refs, 3, "one ref under p(a^c,f), two under p(d,f)");

        // Exactly two expanded IDB p-nodes: p(a^c,f) and p(d,f).
        let idb_p = g
            .nodes()
            .filter(|(_, n)| match n {
                Node::Goal {
                    label,
                    kind: GoalKind::Idb,
                    ..
                } => label.pred.name() == "p",
                _ => false,
            })
            .count();
        assert_eq!(idb_p, 2);

        // EDB leaves: r under each of the two p-nodes' base rules, and q
        // under each recursive rule: 2 + 2 = 4.
        let (_, rules, edb, _) = g.census();
        assert_eq!(edb, 4);
        // Rule nodes: 1 query rule + 2 rules per expanded p-node = 5.
        assert_eq!(rules, 5);
    }

    #[test]
    fn p1_sccs_and_leaders() {
        let (program, db) = p1();
        let g = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();
        let scc = g.scc();
        let nontrivial: Vec<_> = scc.nontrivial_components().collect();
        assert_eq!(nontrivial.len(), 2, "p(a^c,f) loop and p(d,f) loop");
        for comp in &nontrivial {
            let leader = scc.leader_of(**comp).expect("nontrivial SCC has a leader");
            // The leader is a goal node whose customer lies outside.
            assert!(g.node(leader).goal_label().is_some());
            let outside = g
                .customers(leader)
                .iter()
                .filter(|(c, _)| scc.component_of(*c) != **comp)
                .count();
            assert_eq!(outside, 1);
        }
    }

    #[test]
    fn cycle_ref_points_to_matching_ancestor() {
        let (program, db) = p1();
        let g = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();
        for (id, n) in g.nodes() {
            if let Node::Goal {
                label,
                kind: GoalKind::CycleRef { ancestor },
                ..
            } = n
            {
                let anc_label = g.node(*ancestor).goal_label().unwrap();
                assert_eq!(label, anc_label, "variant labels must match");
                // The cycle arc exists ancestor → ref.
                assert!(g
                    .customers(*ancestor)
                    .iter()
                    .any(|&(c, k)| c == id && k == ArcKind::Cycle));
            }
        }
    }

    #[test]
    fn nonrecursive_program_has_no_cycles() {
        let program = parse_program(
            "grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
             ?- grandparent(\"ann\", Z).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert("parent", tuple!["ann", "bob"]).unwrap();
        let g = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();
        assert_eq!(g.scc().nontrivial_components().count(), 0);
        let (_, _, edb, cycle) = g.census();
        assert_eq!(cycle, 0);
        assert_eq!(edb, 2);
    }

    #[test]
    fn graph_size_is_independent_of_edb_size() {
        // Theorem 2.1 / experiment E8.
        let (program, mut db) = p1();
        let g_small = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();
        for i in 0..500 {
            db.insert("r", tuple![i, i + 1]).unwrap();
            db.insert("q", tuple![i, i]).unwrap();
        }
        let g_large = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();
        assert_eq!(g_small.len(), g_large.len());
    }

    #[test]
    fn coalescible_count_on_p1() {
        // P1's graph has 4 EDB leaves over two labels (r appears with
        // c,f and d,f adornments once each... the duplicates come from
        // q(V^d, W^f) appearing under both expanded p-nodes and the two
        // p(d,f) cycle refs sharing a label.
        let (program, db) = p1();
        let g = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();
        let saving = g.coalescible_nodes();
        assert!(
            saving >= 2,
            "q^df duplicates + cycle-ref twins, got {saving}"
        );
        // Merging would never exceed the goal-node population.
        let (goal, _, edb, cycle) = g.census();
        assert!(saving < goal + edb + cycle);
    }

    #[test]
    fn node_budget_enforced() {
        let (program, db) = p1();
        let err = RuleGoalGraph::build_with_limit(&program, &db, SipKind::Greedy, 3).unwrap_err();
        assert_eq!(err, GraphError::TooLarge { limit: 3 });
    }

    #[test]
    fn constant_clash_prunes_rules() {
        // Rule heads with constants that cannot serve the goal are
        // skipped entirely.
        let program = parse_program(
            "p(1, X) :- e(X).
             p(2, X) :- f(X).
             ?- p(1, Z).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert("e", tuple![10]).unwrap();
        db.insert("f", tuple![20]).unwrap();
        let g = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();
        // Only the p(1,X) rule is expanded: rule nodes = query + 1.
        let (_, rules, edb, _) = g.census();
        assert_eq!(rules, 2);
        assert_eq!(edb, 1);
    }

    #[test]
    fn nonlinear_same_generation_builds() {
        let program = parse_program(
            "sg(X, Y) :- flat(X, Y).
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
             ?- sg(\"a\", Y).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert("flat", tuple!["m", "n"]).unwrap();
        db.insert("up", tuple!["a", "m"]).unwrap();
        db.insert("down", tuple!["n", "y"]).unwrap();
        let g = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();
        assert!(g.scc().nontrivial_components().count() >= 1);
    }

    #[test]
    fn retain_prunes_subtrees_and_compacts_ids() {
        // p has two rules; pruning the second rule's whole subtree must
        // keep ids dense, preserve feeder order, and remap cycle refs.
        let (program, db) = p1();
        let g = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();

        // Kill the p(d,f) goal node's recursive rule subtree: mark the
        // recursive rule node under the *second* expanded p goal plus all
        // nodes only reachable (by feeders) through it.
        let victim = g
            .nodes()
            .filter(|(_, n)| n.is_rule())
            .map(|(id, _)| id)
            .filter(|&id| {
                // A recursive rule: has a cycle-ref feeder.
                g.feeders(id).iter().any(|&(f, _)| {
                    matches!(
                        g.node(f),
                        Node::Goal {
                            kind: GoalKind::CycleRef { .. },
                            ..
                        }
                    )
                })
            })
            .max()
            .expect("p1 has recursive rules");
        // Liveness: BFS from root over feeders, never entering the victim.
        let mut keep = vec![false; g.len()];
        let mut stack = vec![g.root()];
        keep[g.root()] = true;
        while let Some(n) = stack.pop() {
            for &(f, _) in g.feeders(n) {
                if f != victim && !keep[f] {
                    keep[f] = true;
                    stack.push(f);
                }
            }
        }
        let pruned = g.retain(&keep);
        let kept = keep.iter().filter(|&&k| k).count();
        assert_eq!(pruned.len(), kept);
        assert!(pruned.len() < g.len());
        assert_eq!(
            pruned.node(pruned.root()).goal_label().map(|l| l.render()),
            g.node(g.root()).goal_label().map(|l| l.render())
        );
        // Structural sanity: arcs stay in range, cycle refs stay paired
        // with their (remapped) ancestors, rule feeders keep plan arity.
        for (id, n) in pruned.nodes() {
            for &(c, _) in pruned.customers(id) {
                assert!(c < pruned.len());
            }
            if let Node::Goal {
                kind: GoalKind::CycleRef { ancestor },
                ..
            } = n
            {
                assert!(pruned
                    .customers(*ancestor)
                    .iter()
                    .any(|&(c, k)| c == id && k == ArcKind::Cycle));
            }
            if let Node::Rule { rule, .. } = n {
                assert_eq!(
                    pruned
                        .feeders(id)
                        .iter()
                        .filter(|&&(_, k)| k == ArcKind::Tree)
                        .count(),
                    rule.body.len(),
                    "kept rules keep every subgoal feeder"
                );
            }
        }
        // SCC info was recomputed for the smaller graph.
        assert!(pruned.scc().component_count() <= pruned.len());
    }

    #[test]
    fn mutual_recursion_forms_one_scc() {
        let program = parse_program(
            "p(X, Y) :- e(X, Y).
             p(X, Y) :- e(X, U), q(U, Y).
             q(X, Y) :- f(X, U), p(U, Y).
             ?- p(1, Z).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert("e", tuple![1, 2]).unwrap();
        db.insert("f", tuple![2, 3]).unwrap();
        let g = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();
        let nontrivial: Vec<_> = g.scc().nontrivial_components().collect();
        assert_eq!(nontrivial.len(), 1);
        // The single SCC contains both p- and q-labelled goal nodes.
        let comp = *nontrivial[0];
        let preds: std::collections::BTreeSet<String> = g
            .nodes()
            .filter(|(id, _)| g.scc().component_of(*id) == comp)
            .filter_map(|(_, n)| n.goal_label().map(|l| l.pred.name().to_string()))
            .collect();
        assert!(preds.contains("p") && preds.contains("q"));
    }
}
