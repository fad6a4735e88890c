//! Predicate-level dependency analysis.
//!
//! The paper's §1.1 survey distinguishes methods by what recursion they
//! handle: Henschen–Naqvi is limited to *linear* recursion ("the head of
//! any rule is recursively related to at most one subgoal in the same
//! rule"), while the message-passing framework "handles nonlinear
//! recursion, in which a goal depends recursively on two or more of its
//! subgoals in the same rule" (§1.2). This module computes the predicate
//! dependency graph, its strongly connected components, and per-rule
//! linearity, so evaluators and benches can classify programs the same
//! way the paper does.

use crate::{Predicate, Program, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// Result of analysing a program's predicate dependencies.
#[derive(Clone, Debug)]
pub struct DependencyAnalysis {
    /// Every predicate mentioned in the program (heads and bodies).
    pub predicates: Vec<Predicate>,
    /// `depends[p]` = predicates appearing in bodies of rules with head `p`.
    pub depends: BTreeMap<Predicate, BTreeSet<Predicate>>,
    /// Strongly connected components of the dependency graph, in reverse
    /// topological order (callees before callers).
    pub sccs: Vec<Vec<Predicate>>,
    /// Predicates that are recursive (in a nontrivial SCC, or self-loop).
    pub recursive: BTreeSet<Predicate>,
}

impl DependencyAnalysis {
    /// Analyse a program.
    pub fn of(program: &Program) -> Self {
        let mut depends: BTreeMap<Predicate, BTreeSet<Predicate>> = BTreeMap::new();
        let mut preds: BTreeSet<Predicate> = BTreeSet::new();
        for r in &program.rules {
            preds.insert(r.head.pred.clone());
            let entry = depends.entry(r.head.pred.clone()).or_default();
            // Negated subgoals are dependencies too: relevance and SCC
            // structure must see them (stratification adds polarity labels
            // on its own graph in `mp-analyze`).
            for b in r.body.iter().chain(r.neg.iter()) {
                preds.insert(b.pred.clone());
                entry.insert(b.pred.clone());
            }
        }
        for f in &program.facts {
            preds.insert(f.pred.clone());
        }
        let predicates: Vec<Predicate> = preds.into_iter().collect();
        let sccs = tarjan_sccs(&predicates, &depends);
        let mut recursive = BTreeSet::new();
        for scc in &sccs {
            let self_loop =
                scc.len() == 1 && depends.get(&scc[0]).is_some_and(|d| d.contains(&scc[0]));
            if scc.len() > 1 || self_loop {
                recursive.extend(scc.iter().cloned());
            }
        }
        DependencyAnalysis {
            predicates,
            depends,
            sccs,
            recursive,
        }
    }

    /// True if `p` and `q` are mutually recursive (same nontrivial SCC, or
    /// equal and recursive).
    pub fn mutually_recursive(&self, p: &Predicate, q: &Predicate) -> bool {
        if p == q {
            return self.recursive.contains(p);
        }
        self.sccs
            .iter()
            .any(|scc| scc.contains(p) && scc.contains(q))
    }

    /// A rule is *linear* if at most one body atom's predicate is mutually
    /// recursive with the head (§1.1 on Henschen–Naqvi).
    pub fn rule_is_linear(&self, rule: &Rule) -> bool {
        let recursive_subgoals = rule
            .body
            .iter()
            .filter(|b| self.mutually_recursive(&rule.head.pred, &b.pred))
            .count();
        recursive_subgoals <= 1
    }

    /// A program is linear if all its rules are.
    pub fn program_is_linear(&self, program: &Program) -> bool {
        program.rules.iter().all(|r| self.rule_is_linear(r))
    }

    /// Predicates reachable from `goal` in the dependency graph —
    /// the McKay–Shapiro-style relevance set (§1.1): the predicates whose
    /// relations could contribute to the query at all, ignoring bindings.
    pub fn relevant_to_goal(&self) -> BTreeSet<Predicate> {
        let goal = Program::goal_pred();
        let mut seen = BTreeSet::new();
        let mut stack = vec![goal];
        while let Some(p) = stack.pop() {
            if !seen.insert(p.clone()) {
                continue;
            }
            if let Some(deps) = self.depends.get(&p) {
                for q in deps {
                    if !seen.contains(q) {
                        stack.push(q.clone());
                    }
                }
            }
        }
        seen
    }
}

/// Strong components of the predicate graph, callees first, each
/// component in predicate order. `nodes` must be sorted, so that index
/// order is predicate order.
fn tarjan_sccs(
    nodes: &[Predicate],
    edges: &BTreeMap<Predicate, BTreeSet<Predicate>>,
) -> Vec<Vec<Predicate>> {
    let index_of: BTreeMap<&Predicate, usize> =
        nodes.iter().enumerate().map(|(i, p)| (p, i)).collect();
    let succ: Vec<Vec<usize>> = nodes
        .iter()
        .map(|p| {
            edges
                .get(p)
                .map(|s| s.iter().filter_map(|q| index_of.get(q).copied()).collect())
                .unwrap_or_default()
        })
        .collect();
    tarjan(&succ)
        .into_iter()
        .map(|comp| comp.into_iter().map(|i| nodes[i].clone()).collect())
        .collect()
}

/// Tarjan's strongly-connected-components algorithm over a plain
/// adjacency list (`succ[v]` = successors of node `v`), iterative to
/// keep deep graphs off the call stack. Components are emitted in
/// reverse topological order (callees before callers, feeders before
/// customers), each sorted ascending.
pub fn tarjan(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = succ.len();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS state machine: (node, next_index-successor-position).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut pi)) = work.last_mut() {
            if *pi == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(*pi) {
                *pi += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn analyse(src: &str) -> (Program, DependencyAnalysis) {
        let p = parse_program(src).unwrap();
        let a = DependencyAnalysis::of(&p);
        (p, a)
    }

    #[test]
    fn linear_tc_is_linear_and_recursive() {
        let (p, a) = analyse(
            "path(X,Y) :- edge(X,Y).
             path(X,Z) :- path(X,Y), edge(Y,Z).
             ?- path(1,Z).",
        );
        let path = Predicate::new("path");
        assert!(a.recursive.contains(&path));
        assert!(!a.recursive.contains(&Predicate::new("edge")));
        assert!(a.program_is_linear(&p));
    }

    #[test]
    fn nonlinear_tc_detected() {
        let (p, a) = analyse(
            "path(X,Y) :- edge(X,Y).
             path(X,Z) :- path(X,Y), path(Y,Z).
             ?- path(1,Z).",
        );
        assert!(!a.program_is_linear(&p));
        let nonlinear = p.rules.iter().filter(|r| !a.rule_is_linear(r)).count();
        assert_eq!(nonlinear, 1);
    }

    #[test]
    fn mutual_recursion_in_one_scc() {
        let (_, a) = analyse(
            "even(X) :- zero(X).
             even(X) :- succ(Y,X), odd(Y).
             odd(X) :- succ(Y,X), even(X2), eq(X2,Y).
             ?- even(4).",
        );
        // even/odd wrong on purpose logically; structurally they are
        // mutually recursive.
        let even = Predicate::new("even");
        let odd = Predicate::new("odd");
        assert!(a.mutually_recursive(&even, &odd));
        assert!(a.recursive.contains(&even) && a.recursive.contains(&odd));
    }

    #[test]
    fn sccs_in_reverse_topological_order() {
        let (_, a) = analyse(
            "a(X) :- b(X).
             b(X) :- c(X).
             c(X) :- e(X).
             ?- a(1).",
        );
        let pos = |name: &str| {
            a.sccs
                .iter()
                .position(|s| s.contains(&Predicate::new(name)))
                .unwrap()
        };
        assert!(pos("e") < pos("c"));
        assert!(pos("c") < pos("b"));
        assert!(pos("b") < pos("a"));
        assert!(pos("a") < pos("goal"));
    }

    #[test]
    fn relevance_excludes_unreachable() {
        let (_, a) = analyse(
            "p(X) :- e(X).
             junk(X) :- j(X).
             ?- p(1).",
        );
        let rel = a.relevant_to_goal();
        assert!(rel.contains(&Predicate::new("p")));
        assert!(rel.contains(&Predicate::new("e")));
        assert!(!rel.contains(&Predicate::new("junk")));
        assert!(!rel.contains(&Predicate::new("j")));
    }

    #[test]
    fn self_loop_is_recursive_component() {
        let (_, a) = analyse("p(X) :- p(X). ?- p(1).");
        assert!(a.recursive.contains(&Predicate::new("p")));
        // goal is not recursive.
        assert!(!a.recursive.contains(&Predicate::new("goal")));
    }

    #[test]
    fn nonrecursive_program_has_no_recursive_preds() {
        let (_, a) = analyse("p(X,Y) :- e(X,Y). q(X) :- p(X,X). ?- q(1).");
        assert!(a.recursive.is_empty());
    }

    #[test]
    fn three_predicate_cycle_is_one_component() {
        let (p, a) = analyse(
            "a(X, Y) :- e(X, Y).
             a(X, Z) :- e(X, Y), b(Y, Z).
             b(X, Z) :- f(X, Y), c(Y, Z).
             c(X, Z) :- g(X, Y), a(Y, Z).
             ?- a(0, Z).",
        );
        let (pa, pb, pc) = (
            Predicate::new("a"),
            Predicate::new("b"),
            Predicate::new("c"),
        );
        let scc = a
            .sccs
            .iter()
            .find(|s| s.contains(&pa))
            .expect("a is in some component");
        assert!(scc.contains(&pb) && scc.contains(&pc));
        assert_eq!(scc.len(), 3);
        assert!(a.mutually_recursive(&pa, &pb));
        assert!(a.mutually_recursive(&pb, &pc));
        assert!(a.mutually_recursive(&pa, &pc));
        // Each recursive rule reaches the cycle through exactly one
        // subgoal, so the program is still linear.
        assert!(a.program_is_linear(&p));
        // EDB predicates stay outside the component.
        for name in ["e", "f", "g"] {
            assert!(!a.recursive.contains(&Predicate::new(name)));
        }
    }

    #[test]
    fn nonlinearity_through_mutual_recursion() {
        // The second rule for `a` reaches the a/b component through TWO
        // subgoals — and neither mentions `a` itself. Linearity must be
        // judged by mutual recursion with the head, not by name equality.
        let (p, a) = analyse(
            "a(X, Y) :- e(X, Y).
             a(X, Z) :- b(X, Y), b(Y, Z).
             b(X, Y) :- a(X, Y).
             ?- a(0, Z).",
        );
        assert!(a.mutually_recursive(&Predicate::new("a"), &Predicate::new("b")));
        assert!(!a.program_is_linear(&p));
        let nonlinear: Vec<_> = p.rules.iter().filter(|r| !a.rule_is_linear(r)).collect();
        assert_eq!(nonlinear.len(), 1);
        assert_eq!(nonlinear[0].head.pred, Predicate::new("a"));
    }

    #[test]
    fn self_loop_beside_larger_component() {
        // A self-recursive predicate feeding a two-predicate cycle: two
        // distinct recursive components, emitted callees-first.
        let (_, a) = analyse(
            "s(X, Y) :- e(X, Y).
             s(X, Z) :- s(X, Y), e(Y, Z).
             p(X, Y) :- s(X, Y).
             p(X, Z) :- q(X, Z).
             q(X, Z) :- p(X, Y), e(Y, Z).
             ?- p(0, Z).",
        );
        let s = Predicate::new("s");
        let (pp, pq) = (Predicate::new("p"), Predicate::new("q"));
        assert!(a.recursive.contains(&s));
        assert!(a.mutually_recursive(&pp, &pq));
        assert!(!a.mutually_recursive(&s, &pp));
        let pos = |pred: &Predicate| a.sccs.iter().position(|c| c.contains(pred)).unwrap();
        assert!(pos(&s) < pos(&pp), "callee component first");
        assert_eq!(pos(&pp), pos(&pq));
    }

    #[test]
    fn negated_subgoals_are_dependencies() {
        let (_, a) = analyse(
            "moved(X) :- move(X, Y).
             stuck(X) :- pos(X), !moved(X).
             ?- stuck(X).",
        );
        let rel = a.relevant_to_goal();
        assert!(rel.contains(&Predicate::new("moved")));
        assert!(rel.contains(&Predicate::new("move")));
        assert!(a
            .depends
            .get(&Predicate::new("stuck"))
            .is_some_and(|d| d.contains(&Predicate::new("moved"))));
        // Negation-through-recursion still forms a cycle structurally.
        let (_, a) = analyse("win(X) :- move(X, Y), !win(Y). ?- win(1).");
        assert!(a.recursive.contains(&Predicate::new("win")));
    }

    #[test]
    fn self_loop_subgoal_counts_toward_linearity() {
        // Two occurrences of the head's own predicate → nonlinear, even
        // though the component is a singleton self-loop.
        let (p, a) = analyse(
            "t(X, Y) :- e(X, Y).
             t(X, Z) :- t(X, Y), t(Y, Z).
             ?- t(0, Z).",
        );
        assert!(a.recursive.contains(&Predicate::new("t")));
        assert!(!a.program_is_linear(&p));
    }
}
