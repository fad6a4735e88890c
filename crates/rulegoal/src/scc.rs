//! Strong components, feeders/customers, leaders, and breadth-first
//! spanning trees (§2.1 Def 2.1, §3.2).
//!
//! "Strong components in the rule/goal graph play an important role in
//! the computation. … The solution is to designate the unique feeder node
//! of each strong component as the 'BFST leader', and define a breadth
//! first spanning tree (BFST) for that strong component." Because the
//! graph is a DFS tree plus cycle (back) edges — no cross or forward
//! edges — each nontrivial component has exactly one node with a customer
//! outside it, and the BFST coincides with the DFS tree (footnote 3).

use crate::graph::{ArcKind, NodeId};
use std::collections::VecDeque;

/// Index of a strongly connected component.
pub type SccId = usize;

/// Strong-component structure of a rule/goal graph.
#[derive(Clone, Debug)]
pub struct SccInfo {
    comp_of: Vec<SccId>,
    components: Vec<Vec<NodeId>>,
    /// Per component: the unique member with a customer outside the
    /// component (`None` for trivial components and for the root's).
    leaders: Vec<Option<NodeId>>,
    /// Per node: BFST parent within its component (`None` for leaders and
    /// for members of trivial components).
    bfst_parent: Vec<Option<NodeId>>,
    /// Per node: BFST children within its component.
    bfst_children: Vec<Vec<NodeId>>,
    /// Ids of nontrivial components, ascending.
    nontrivial_ids: Vec<SccId>,
}

impl SccInfo {
    /// Compute components, leaders, and BFSTs.
    ///
    /// `out`/`in_` are the customer/feeder adjacency lists of the graph
    /// (arc kinds are ignored for connectivity — cycle arcs carry answers
    /// exactly like tree arcs).
    pub fn compute(
        n: usize,
        out: &[Vec<(NodeId, ArcKind)>],
        in_: &[Vec<(NodeId, ArcKind)>],
    ) -> SccInfo {
        let succ: Vec<Vec<usize>> = out
            .iter()
            .map(|v| v.iter().map(|&(t, _)| t).collect())
            .collect();
        let components = mp_datalog::analysis::tarjan(&succ);
        let mut comp_of = vec![0usize; n];
        for (ci, comp) in components.iter().enumerate() {
            for &node in comp {
                comp_of[node] = ci;
            }
        }

        let mut leaders = vec![None; components.len()];
        let mut bfst_parent = vec![None; n];
        let mut bfst_children = vec![Vec::new(); n];

        for (ci, comp) in components.iter().enumerate() {
            if comp.len() <= 1 {
                continue;
            }
            // Leader: the unique member with an out-arc leaving the
            // component.
            let mut leader = None;
            for &v in comp {
                if out[v].iter().any(|&(c, _)| comp_of[c] != ci) {
                    assert!(
                        leader.is_none(),
                        "strong component has two exits; the rule/goal \
                         graph must be a tree plus back edges"
                    );
                    leader = Some(v);
                }
            }
            let leader = leader.expect(
                "nontrivial component with no external customer: \
                 only the root's trivial component may lack one",
            );
            leaders[ci] = Some(leader);

            // BFST: breadth-first over feeders, restricted to the
            // component. Children visited in ascending id order for
            // determinism.
            let mut seen: Vec<bool> = vec![false; n];
            seen[leader] = true;
            let mut queue = VecDeque::from([leader]);
            while let Some(u) = queue.pop_front() {
                let mut preds: Vec<NodeId> = in_[u]
                    .iter()
                    .map(|&(p, _)| p)
                    .filter(|&p| comp_of[p] == ci && !seen[p])
                    .collect();
                preds.sort_unstable();
                preds.dedup();
                for p in preds {
                    if !seen[p] {
                        seen[p] = true;
                        bfst_parent[p] = Some(u);
                        bfst_children[u].push(p);
                        queue.push_back(p);
                    }
                }
            }
            debug_assert!(
                comp.iter().all(|&v| seen[v]),
                "BFST must span the whole component"
            );
        }

        let nontrivial_ids = (0..components.len())
            .filter(|&ci| components[ci].len() > 1)
            .collect();
        SccInfo {
            comp_of,
            components,
            leaders,
            bfst_parent,
            bfst_children,
            nontrivial_ids,
        }
    }

    /// The component containing a node.
    pub fn component_of(&self, node: NodeId) -> SccId {
        self.comp_of[node]
    }

    /// Members of a component.
    pub fn members(&self, comp: SccId) -> &[NodeId] {
        &self.components[comp]
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// True if the node's component has more than one member (recursive
    /// region requiring the §3.2 termination protocol).
    pub fn in_nontrivial(&self, node: NodeId) -> bool {
        self.components[self.comp_of[node]].len() > 1
    }

    /// Ids of nontrivial components.
    pub fn nontrivial_components(&self) -> impl Iterator<Item = &SccId> + '_ {
        // Stored as a boxed range filter over indices; keep a small Vec
        // for a stable iterator type.
        self.nontrivial_ids.iter()
    }

    /// The leader of a component, if nontrivial.
    pub fn leader_of(&self, comp: SccId) -> Option<NodeId> {
        self.leaders[comp]
    }

    /// BFST parent of a node within its component.
    pub fn bfst_parent(&self, node: NodeId) -> Option<NodeId> {
        self.bfst_parent[node]
    }

    /// BFST children of a node within its component.
    pub fn bfst_children(&self, node: NodeId) -> &[NodeId] {
        &self.bfst_children[node]
    }
}
