//! Sideways information passing (SIP) strategies (§2.2).
//!
//! "The subgoal arguments whose variables do not appear in the goal are
//! classified as either `d` or `f` according to an information passing
//! strategy … the subgoal(s) that retain the `f` designation will be
//! evaluated first and will furnish a set of valid values for that
//! argument … and the rule node will pass them to subgoals that have `d`
//! designations."
//!
//! Classes of arguments containing a variable that appears in the goal
//! are passed through unchanged; a variable appearing in one subgoal and
//! nowhere else is labelled `e`.

use crate::{Adornment, ArgClass};
use mp_datalog::{Database, Rule, Term, Var};
use mp_hypergraph::{monotone_flow, MonotoneFlow};
use std::collections::{BTreeMap, BTreeSet};

/// Which information passing strategy to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SipKind {
    /// Def 2.4: maximally push `d` arguments forward — schedule, at each
    /// step, a subgoal with the most bound arguments.
    Greedy,
    /// Prolog's strategy: solve subgoals strictly left to right.
    LeftToRight,
    /// No sideways passing at all: subgoal-to-subgoal `d` assignment is
    /// disabled (head classes still pass through). This is the
    /// McKay–Shapiro-style comparison point where "intermediate relations
    /// … tend to be entirely computed" (§1.1).
    AllFree,
    /// Theorem 4.1: order subgoals by the qual tree of the rule's
    /// evaluation hypergraph (edges directed away from the root), falling
    /// back to [`SipKind::Greedy`] when the rule lacks monotone flow.
    QualTree,
    /// §1.2's optimization-information extension: order subgoals by
    /// estimated retrieved size using the EDB's column statistics
    /// ([`mp_storage::Relation::summary`]) under the uniformity
    /// assumption; falls back to [`SipKind::Greedy`] when no database is
    /// supplied.
    CostBased,
}

impl SipKind {
    /// All strategies, for sweeps in benches.
    pub const ALL: [SipKind; 5] = [
        SipKind::Greedy,
        SipKind::LeftToRight,
        SipKind::AllFree,
        SipKind::QualTree,
        SipKind::CostBased,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SipKind::Greedy => "greedy",
            SipKind::LeftToRight => "left-to-right",
            SipKind::AllFree => "all-free",
            SipKind::QualTree => "qual-tree",
            SipKind::CostBased => "cost-based",
        }
    }
}

/// Where a `d` argument's bindings come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SipSource {
    /// The rule head's bound arguments.
    Head,
    /// An earlier subgoal (original index).
    Subgoal(usize),
}

/// One arc of the information passing strategy graph (Def 2.3): an `f`
/// argument of `from` furnishes bindings for a `d` argument of subgoal
/// `to` through variable `var`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SipEdge {
    /// The supplier.
    pub from: SipSource,
    /// The consuming subgoal (original index).
    pub to: usize,
    /// The variable carrying the bindings.
    pub var: Var,
}

/// A complete sideways information passing plan for one rule instance
/// under one head adornment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SipPlan {
    /// The strategy that produced the plan.
    pub kind: SipKind,
    /// Subgoal evaluation order (original indices).
    pub order: Vec<usize>,
    /// Adornments indexed by **original** subgoal index.
    pub adornments: Vec<Adornment>,
    /// The strategy graph's arcs (Def 2.3).
    pub edges: Vec<SipEdge>,
    /// Whether the rule (under this head adornment) has the monotone flow
    /// property (Def 4.2) — recorded for reporting regardless of `kind`.
    pub monotone: bool,
}

/// Head variables that are bound before evaluation begins: variables
/// occurring in a `c` or `d` position of the instance head.
pub fn bound_head_vars(rule: &Rule, head_adornment: &Adornment) -> BTreeSet<Var> {
    let mut out = BTreeSet::new();
    for (i, t) in rule.head.terms.iter().enumerate() {
        if let (Term::Var(v), true) = (t, head_adornment.class(i).is_bound()) {
            out.insert(v.clone());
        }
    }
    out
}

/// Head variables whose values are transmitted (`c`/`d`/`f` positions).
fn transmitted_head_vars(rule: &Rule, head_adornment: &Adornment) -> BTreeSet<Var> {
    let mut out = BTreeSet::new();
    for (i, t) in rule.head.terms.iter().enumerate() {
        if let (Term::Var(v), false) = (t, head_adornment.class(i) == ArgClass::E) {
            out.insert(v.clone());
        }
    }
    out
}

/// Compute a SIP plan for a rule instance under a head adornment.
/// [`SipKind::CostBased`] falls back to greedy here; use
/// [`plan_with_stats`] to supply the EDB whose statistics to use.
pub fn plan(rule: &Rule, head_adornment: &Adornment, kind: SipKind) -> SipPlan {
    plan_with_stats(rule, head_adornment, kind, None)
}

/// [`plan`] with an optional EDB whose statistics steer
/// [`SipKind::CostBased`].
pub fn plan_with_stats(
    rule: &Rule,
    head_adornment: &Adornment,
    kind: SipKind,
    stats: Option<&Database>,
) -> SipPlan {
    assert_eq!(
        rule.head.arity(),
        head_adornment.arity(),
        "head adornment arity mismatch"
    );
    let bound_head = bound_head_vars(rule, head_adornment);
    let transmitted_head = transmitted_head_vars(rule, head_adornment);
    let monotone = monotone_flow(rule, &bound_head).is_monotone();

    // How many subgoals contain each variable (for the `e` rule).
    // Negated subgoals count too: their variables feed the final-stage
    // antijoin probe, so a variable shared with a negated subgoal must
    // be transmitted even when only one positive subgoal mentions it.
    let mut subgoal_count: BTreeMap<Var, usize> = BTreeMap::new();
    for sg in rule.body.iter().chain(rule.neg.iter()) {
        for v in sg.vars() {
            *subgoal_count.entry(v).or_insert(0) += 1;
        }
    }

    let order = match kind {
        SipKind::LeftToRight | SipKind::AllFree => (0..rule.body.len()).collect(),
        SipKind::Greedy => greedy_order(rule, &bound_head),
        SipKind::CostBased => match stats {
            Some(st) => cost_based_order(rule, &bound_head, st),
            None => greedy_order(rule, &bound_head),
        },
        SipKind::QualTree => {
            // With no bound head variable the head hyperedge is empty and
            // the qual tree roots arbitrarily (constants are selections,
            // not flow); the greedy order handles constants correctly.
            if bound_head.is_empty() {
                greedy_order(rule, &bound_head)
            } else {
                match monotone_flow(rule, &bound_head) {
                    MonotoneFlow::Monotone(qt) => qt.bfs_subgoal_order(),
                    MonotoneFlow::Cyclic(_) => greedy_order(rule, &bound_head),
                }
            }
        }
    };
    debug_assert_eq!(order.len(), rule.body.len());

    // Walk the order, assigning classes and recording supplier edges.
    let sideways = kind != SipKind::AllFree;
    let mut produced: BTreeSet<Var> = BTreeSet::new(); // non-head vars bound so far
    let mut producer: BTreeMap<Var, usize> = BTreeMap::new();
    let mut adornments: Vec<Adornment> = vec![Adornment(Vec::new()); rule.body.len()];
    let mut edges = Vec::new();

    for &i in &order {
        let sg = &rule.body[i];
        let mut classes = Vec::with_capacity(sg.arity());
        for t in &sg.terms {
            let class = match t {
                Term::Const(_) => ArgClass::C,
                Term::Var(v) => {
                    if bound_head.contains(v) {
                        edges.push(SipEdge {
                            from: SipSource::Head,
                            to: i,
                            var: v.clone(),
                        });
                        ArgClass::D
                    } else if transmitted_head.contains(v) {
                        // Transmitted head classes pass through: f stays f.
                        ArgClass::F
                    } else if sideways && produced.contains(v) {
                        edges.push(SipEdge {
                            from: SipSource::Subgoal(producer[v]),
                            to: i,
                            var: v.clone(),
                        });
                        ArgClass::D
                    } else if subgoal_count[v] > 1 {
                        // A variable in several subgoals must flow between
                        // them even when the head drops it (head class
                        // `e`): only truly lone variables — "appears in
                        // one subgoal and nowhere else" — may be `e`,
                        // otherwise the cross-subgoal join would be lost.
                        ArgClass::F
                    } else {
                        ArgClass::E
                    }
                }
            };
            classes.push(class);
        }
        // Deduplicate edges per (source, to, var): a variable repeated in
        // one subgoal produces one logical supply arc.
        edges.dedup();
        adornments[i] = Adornment(classes);
        for v in sg.vars() {
            // Bound head vars are supplied by the head; transmitted head
            // vars pass through as `f`. Everything else — including
            // head-`e` variables — becomes a sideways supply source.
            if !bound_head.contains(&v)
                && !transmitted_head.contains(&v)
                && produced.insert(v.clone())
            {
                producer.insert(v, i);
            }
        }
    }

    SipPlan {
        kind,
        order,
        adornments,
        edges,
        monotone,
    }
}

/// Def 2.4's greedy order: repeatedly schedule a subgoal with the most
/// bound arguments (constants, head `c`/`d` variables, and variables
/// produced by already-scheduled subgoals). Ties prefer fewer unbound
/// variable positions, then lower index.
#[allow(clippy::needless_range_loop)] // index drives both the filter and the pick
fn greedy_order(rule: &Rule, bound_head: &BTreeSet<Var>) -> Vec<usize> {
    let k = rule.body.len();
    let mut produced: BTreeSet<Var> = BTreeSet::new();
    let mut scheduled = vec![false; k];
    let mut order = Vec::with_capacity(k);
    for _ in 0..k {
        let mut best: Option<(usize, usize, usize)> = None; // (idx, bound, unbound)
        for i in 0..k {
            if scheduled[i] {
                continue;
            }
            let sg = &rule.body[i];
            let mut bound = 0usize;
            let mut unbound = 0usize;
            for t in &sg.terms {
                match t {
                    Term::Const(_) => bound += 1,
                    Term::Var(v) => {
                        if bound_head.contains(v) || produced.contains(v) {
                            bound += 1;
                        } else {
                            unbound += 1;
                        }
                    }
                }
            }
            let better = match best {
                None => true,
                Some((_, bb, bu)) => bound > bb || (bound == bb && unbound < bu),
            };
            if better {
                best = Some((i, bound, unbound));
            }
        }
        let (i, _, _) = best.expect("unscheduled subgoal exists");
        scheduled[i] = true;
        order.push(i);
        for v in rule.body[i].vars() {
            produced.insert(v);
        }
    }
    order
}

/// Estimated rows of `rel` matching an equality selection on
/// `bound_cols`, under the uniformity assumption: each bound column
/// divides the relation by its distinct count.
fn selected_rows(rel: &mp_storage::Relation, bound_cols: &[usize]) -> f64 {
    let summary = rel.summary();
    bound_cols.iter().fold(rel.len() as f64, |est, &c| {
        est / summary.get(c).map_or(1, |s| s.distinct()).max(1) as f64
    })
}

/// Cost-based order: repeatedly schedule the unscheduled subgoal with
/// the smallest estimated retrieved size, where EDB sizes come from
/// [`selected_rows`] and IDB subgoals — whose sizes are unknown before
/// evaluation — are scored like the greedy heuristic, as an optimistic
/// `10^(unbound)` proxy.
#[allow(clippy::needless_range_loop)] // index drives both the filter and the pick
fn cost_based_order(rule: &Rule, bound_head: &BTreeSet<Var>, db: &Database) -> Vec<usize> {
    let k = rule.body.len();
    let mut produced: BTreeSet<Var> = BTreeSet::new();
    let mut scheduled = vec![false; k];
    let mut order = Vec::with_capacity(k);
    for _ in 0..k {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..k {
            if scheduled[i] {
                continue;
            }
            let sg = &rule.body[i];
            let mut bound_cols = Vec::new();
            let mut unbound = 0usize;
            for (c, t) in sg.terms.iter().enumerate() {
                match t {
                    Term::Const(_) => bound_cols.push(c),
                    Term::Var(v) => {
                        if bound_head.contains(v) || produced.contains(v) {
                            bound_cols.push(c);
                        } else {
                            unbound += 1;
                        }
                    }
                }
            }
            let est = match db.relation(&sg.pred) {
                Some(rel) => selected_rows(rel, &bound_cols),
                None => 10f64.powi(unbound as i32),
            };
            let better = match best {
                None => true,
                Some((_, b)) => est < b,
            };
            if better {
                best = Some((i, est));
            }
        }
        let (i, _) = best.expect("unscheduled subgoal exists");
        scheduled[i] = true;
        order.push(i);
        for v in rule.body[i].vars() {
            produced.insert(v);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_estimates_divide_by_distincts() {
        // 100 rows; column 0 has 10 distinct values, column 1 has 50.
        let mut db = Database::new();
        for i in 0..100i64 {
            db.insert("r", mp_storage::tuple![i % 10, i % 50, i])
                .unwrap();
        }
        let rel = db.relation(&"r".into()).unwrap();
        assert_eq!(selected_rows(rel, &[]), 100.0);
        assert_eq!(selected_rows(rel, &[0]), 10.0);
        assert_eq!(selected_rows(rel, &[1]), 2.0);
        assert_eq!(selected_rows(rel, &[0, 1]), 0.2);
        // A column outside the arity divides by nothing.
        assert_eq!(selected_rows(rel, &[7]), 100.0);
    }
    use mp_datalog::parser::parse_rule;

    fn ad(s: &str) -> Adornment {
        Adornment::parse(s).unwrap()
    }

    /// The paper's P1 recursive rule: p(X,Y) :- p(X,V), q(V,W), p(W,Y).
    /// (Example 2.1 names the middle variables V and W.)
    fn p1_recursive() -> Rule {
        parse_rule("p(X, Y) :- p(X, V), q(V, W), p(W, Y).").unwrap()
    }

    #[test]
    fn example_2_1_greedy_adornment() {
        // Head p(X^d, Y^f): the greedy strategy is
        // p(X^d, V^f) → q(V^d, W^f) → p(W^d, Y^f)  (Fig 1).
        let plan = plan(&p1_recursive(), &ad("df"), SipKind::Greedy);
        assert_eq!(plan.order, vec![0, 1, 2]);
        assert_eq!(plan.adornments[0], ad("df"));
        assert_eq!(plan.adornments[1], ad("df"));
        assert_eq!(plan.adornments[2], ad("df"));
        // Supply arcs: Head→0 (X), 0→1 (V), 1→2 (W).
        assert!(plan.edges.contains(&SipEdge {
            from: SipSource::Head,
            to: 0,
            var: Var::new("X")
        }));
        assert!(plan.edges.contains(&SipEdge {
            from: SipSource::Subgoal(0),
            to: 1,
            var: Var::new("V")
        }));
        assert!(plan.edges.contains(&SipEdge {
            from: SipSource::Subgoal(1),
            to: 2,
            var: Var::new("W")
        }));
    }

    #[test]
    fn left_to_right_matches_greedy_on_p1() {
        // P1's recursive rule is already written in flow order.
        let g = plan(&p1_recursive(), &ad("df"), SipKind::Greedy);
        let l = plan(&p1_recursive(), &ad("df"), SipKind::LeftToRight);
        assert_eq!(g.adornments, l.adornments);
    }

    #[test]
    fn greedy_reorders_a_backwards_rule() {
        // Same rule written backwards: greedy starts from the bound end.
        let r = parse_rule("p(X, Y) :- p(W, Y), q(V, W), p(X, V).").unwrap();
        let plan = plan(&r, &ad("df"), SipKind::Greedy);
        assert_eq!(plan.order, vec![2, 1, 0]);
        assert_eq!(plan.adornments[2], ad("df"));
        assert_eq!(plan.adornments[1], ad("df"));
        assert_eq!(plan.adornments[0], ad("df"));
        // Left-to-right on the same rule is much worse: the first subgoal
        // is evaluated with both arguments free.
        let ltr = super::plan(&r, &ad("df"), SipKind::LeftToRight);
        assert_eq!(ltr.adornments[0], ad("ff"));
    }

    #[test]
    fn all_free_disables_sideways_passing() {
        let p = plan(&p1_recursive(), &ad("df"), SipKind::AllFree);
        // Head classes still pass through...
        assert_eq!(p.adornments[0], ad("df"));
        // ...but V and W are never dynamically bound.
        assert_eq!(p.adornments[1], ad("ff"));
        assert_eq!(p.adornments[2], ad("ff"));
        assert!(p.edges.iter().all(|e| e.from == SipSource::Head));
    }

    #[test]
    fn lone_variables_are_existential() {
        // W appears only in q: "goal p(X^f, Y^e) can be satisfied by
        // producing one tuple for each unique X" — here the analogous
        // subgoal case.
        let r = parse_rule("p(X) :- q(X, W).").unwrap();
        let p = plan(&r, &ad("d"), SipKind::Greedy);
        assert_eq!(p.adornments[0], ad("de"));
    }

    #[test]
    fn head_e_class_passes_through() {
        let r = parse_rule("p(X, Y) :- q(X, Y).").unwrap();
        let p = plan(&r, &ad("fe"), SipKind::Greedy);
        assert_eq!(p.adornments[0], ad("fe"));
    }

    #[test]
    fn head_f_vars_stay_f_in_every_subgoal() {
        // Z appears in two subgoals but is a head f variable: both keep f
        // (§2.2: goal-variable classes pass through).
        let r = parse_rule("p(X, Z) :- r(X, Z), s(Z, Z).").unwrap();
        let p = plan(&r, &ad("df"), SipKind::Greedy);
        assert_eq!(p.adornments[0], ad("df"));
        assert_eq!(p.adornments[1], ad("ff"));
    }

    #[test]
    fn constants_are_class_c() {
        let r = parse_rule("p(X) :- q(X, 3).").unwrap();
        let p = plan(&r, &ad("d"), SipKind::Greedy);
        assert_eq!(p.adornments[0], ad("dc"));
    }

    #[test]
    fn qual_tree_strategy_on_r2() {
        // R2 is monotone: the qual-tree order must schedule a first.
        let r = mp_hypergraph::examples::r2();
        let p = plan(&r, &ad("df"), SipKind::QualTree);
        assert!(p.monotone);
        assert_eq!(p.order[0], 0);
        // b and c in either order next; d and e last.
        assert_eq!(
            BTreeSet::from([p.order[1], p.order[2]]),
            BTreeSet::from([1, 2])
        );
    }

    #[test]
    fn qual_tree_falls_back_to_greedy_on_r3() {
        let r = mp_hypergraph::examples::r3();
        let q = plan(&r, &ad("df"), SipKind::QualTree);
        let g = plan(&r, &ad("df"), SipKind::Greedy);
        assert!(!q.monotone);
        assert_eq!(q.order, g.order);
    }

    #[test]
    fn monotone_flag_reflects_rule_structure() {
        assert!(plan(&p1_recursive(), &ad("df"), SipKind::Greedy).monotone);
        let r3 = mp_hypergraph::examples::r3();
        assert!(!plan(&r3, &ad("df"), SipKind::LeftToRight).monotone);
    }

    #[test]
    fn facts_get_empty_plans() {
        let r = parse_rule("p(1, 2) :- t(1).").unwrap();
        let p = plan(&r, &ad("ff"), SipKind::Greedy);
        assert_eq!(p.order, vec![0]);
        assert_eq!(p.adornments[0], ad("c"));
    }
}
