//! Sort/type inference over a constant-domain lattice.
//!
//! The abstract domain tracks, per (predicate, column), an
//! **over-approximation** of the set of values that column can hold in
//! the least model: either an exact finite set seeded from the EDB, or —
//! once the set outgrows the widening cap — just the value *types* it may
//! contain (integers / symbols). A Kleene iteration from ⊥ propagates
//! sorts through the rules, so at the fixpoint:
//!
//! * a column whose sort is empty provably holds no values;
//! * a rule whose body is abstractly empty provably never fires (the
//!   soundness direction dead-rule pruning relies on);
//! * a join variable whose occurrence sorts intersect to ∅ can never
//!   match — flagged as MP401 when the sorts are *type*-disjoint (one
//!   side only integers, the other only symbols) and as a dead join
//!   otherwise.
//!
//! Everything here is pure program + EDB reasoning: no rule/goal graph,
//! no adornments. The graph-level planner (`plan`) reuses the fixpoint to
//! test per-instance rule bodies (with the goal's constants substituted
//! in), which is strictly more precise than the program-level pass.
//!
//! **Negation and aggregation.** Negated subgoals *weaken* rather than
//! bind: a `!q(..)` can only remove tuples, so ignoring it keeps the
//! fixpoint an over-approximation of the perfect model — MP401–MP403
//! pruning stays sound under stratified negation. Aggregate output
//! columns for `count`/`sum` widen to the integer type bit (the fold
//! synthesizes values outside the fold variable's sort); `min`/`max`
//! select an existing value and keep the variable's sort.

use mp_datalog::{AggFunc, Atom, Database, Predicate, Program, Var};
use mp_storage::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Default widening cap: column sorts larger than this collapse to their
/// type bits. Chosen so canonical workloads (hundreds of constants) stay
/// cheap while unit-test-sized programs keep exact sorts.
pub const DEFAULT_WIDEN_CAP: usize = 256;

/// An over-approximation of the values one column may hold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SortSet {
    /// An exact finite set (at most the widening cap).
    Values(BTreeSet<Value>),
    /// Widened: only the value types are tracked.
    Top {
        /// May contain integers.
        ints: bool,
        /// May contain interned symbols.
        syms: bool,
    },
}

fn is_int(v: &Value) -> bool {
    v.as_int().is_some()
}

impl SortSet {
    /// The empty sort (⊥).
    pub fn empty() -> SortSet {
        SortSet::Values(BTreeSet::new())
    }

    /// The full sort (⊤ over both types).
    pub fn all() -> SortSet {
        SortSet::Top {
            ints: true,
            syms: true,
        }
    }

    /// The sort of an EDB column: its exact value set while that fits
    /// the widening cap, else its type bits — what joining the column's
    /// values one at a time with [`SortSet::union_with`] arrives at.
    fn seed(col: &mp_storage::ColumnSummary, cap: usize) -> SortSet {
        if col.distinct() > cap {
            SortSet::Top {
                ints: col.has_ints(),
                syms: col.has_syms(),
            }
        } else {
            SortSet::Values(col.values.iter().copied().collect())
        }
    }

    /// True when no value can inhabit this sort.
    pub fn is_empty(&self) -> bool {
        match self {
            SortSet::Values(s) => s.is_empty(),
            SortSet::Top { ints, syms } => !ints && !syms,
        }
    }

    /// Which value types the sort may contain: `(ints, syms)`.
    pub fn type_bits(&self) -> (bool, bool) {
        match self {
            SortSet::Values(s) => (s.iter().any(is_int), s.iter().any(|v| !is_int(v))),
            SortSet::Top { ints, syms } => (*ints, *syms),
        }
    }

    /// Membership test (over-approximate: `Top` admits by type).
    pub fn contains(&self, v: &Value) -> bool {
        match self {
            SortSet::Values(s) => s.contains(v),
            SortSet::Top { ints, syms } => {
                if is_int(v) {
                    *ints
                } else {
                    *syms
                }
            }
        }
    }

    /// Exact cardinality, when the sort is still a finite set.
    pub fn size(&self) -> Option<usize> {
        match self {
            SortSet::Values(s) => Some(s.len()),
            SortSet::Top { .. } => None,
        }
    }

    /// Lattice join, widening to `Top` past `cap`. Returns true when
    /// `self` grew.
    pub fn union_with(&mut self, other: &SortSet, cap: usize) -> bool {
        match (&mut *self, other) {
            (SortSet::Values(a), SortSet::Values(b)) => {
                let before = a.len();
                a.extend(b.iter().copied());
                if a.len() > cap {
                    let grown = SortSet::Top {
                        ints: a.iter().any(is_int),
                        syms: a.iter().any(|v| !is_int(v)),
                    };
                    *self = grown;
                    true
                } else {
                    a.len() > before
                }
            }
            (SortSet::Top { ints, syms }, other) => {
                let (oi, os) = other.type_bits();
                let grew = (oi && !*ints) || (os && !*syms);
                *ints |= oi;
                *syms |= os;
                grew
            }
            (slot @ SortSet::Values(_), SortSet::Top { .. }) => {
                let (si, ss) = slot.type_bits();
                let (oi, os) = other.type_bits();
                *slot = SortSet::Top {
                    ints: si || oi,
                    syms: ss || os,
                };
                true
            }
        }
    }

    /// Lattice meet.
    pub fn intersect(&self, other: &SortSet) -> SortSet {
        match (self, other) {
            (SortSet::Values(a), SortSet::Values(b)) => {
                SortSet::Values(a.intersection(b).copied().collect())
            }
            (SortSet::Values(a), t @ SortSet::Top { .. })
            | (t @ SortSet::Top { .. }, SortSet::Values(a)) => {
                SortSet::Values(a.iter().filter(|v| t.contains(v)).copied().collect())
            }
            (SortSet::Top { ints: a, syms: b }, SortSet::Top { ints: c, syms: d }) => {
                SortSet::Top {
                    ints: *a && *c,
                    syms: *b && *d,
                }
            }
        }
    }
}

/// Why an abstract rule body evaluated to the empty relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmptyReason {
    /// Subgoal `index`'s predicate provably has no tuples (empty or
    /// entirely absent relation, and no rule can derive into it).
    EmptyPredicate {
        /// Body position of the offending subgoal.
        index: usize,
    },
    /// Subgoal `index` carries a constant outside the column's sort.
    ConstMismatch {
        /// Body position of the offending subgoal.
        index: usize,
        /// Column of the offending constant.
        col: usize,
        /// The constant itself.
        value: Value,
    },
    /// A join variable's occurrence sorts intersect to ∅.
    EmptyVar {
        /// The variable whose sorts clash.
        var: Var,
        /// True when the clash is type-level (one side only integers,
        /// the other only symbols) — the MP401 case.
        type_clash: bool,
    },
}

/// The sort-inference fixpoint: per-predicate column sorts. A predicate
/// absent from the map is provably empty.
#[derive(Clone, Debug, Default)]
pub struct SortAnalysis {
    /// Final column sorts per predicate (EDB and IDB alike).
    pub sorts: BTreeMap<Predicate, Vec<SortSet>>,
    /// The widening cap the fixpoint ran with.
    pub cap: usize,
}

impl SortAnalysis {
    /// Run the Kleene iteration: seed column sorts from the EDB, then
    /// apply every rule until nothing grows. Terminates because each
    /// (predicate, column) sort only grows and the lattice has finite
    /// height (cap + 3 type states).
    pub fn infer(program: &Program, db: &Database, cap: usize) -> SortAnalysis {
        let mut sorts: BTreeMap<Predicate, Vec<SortSet>> = BTreeMap::new();
        for (pred, rel) in db.iter() {
            let cols = rel
                .summary()
                .iter()
                .map(|col| SortSet::seed(col, cap))
                .collect();
            sorts.insert(pred.clone(), cols);
        }
        loop {
            let mut changed = false;
            for rule in &program.rules {
                let Ok(vars) = abstract_body_in(&sorts, &rule.body) else {
                    continue;
                };
                let head_arity = rule.head.arity();
                let entry = sorts
                    .entry(rule.head.pred.clone())
                    .or_insert_with(|| vec![SortSet::empty(); head_arity]);
                for (i, t) in rule.head.terms.iter().enumerate() {
                    // Aggregate output columns: `count`/`sum` synthesize
                    // integers outside the fold variable's sort, so only
                    // the type bit is sound; `min`/`max` select one of the
                    // variable's own values and keep its sort.
                    if rule.agg.as_ref().is_some_and(|a| {
                        a.position == i && matches!(a.func, AggFunc::Count | AggFunc::Sum)
                    }) {
                        changed |= entry[i].union_with(
                            &SortSet::Top {
                                ints: true,
                                syms: false,
                            },
                            cap,
                        );
                        continue;
                    }
                    let col_sort = match t {
                        mp_datalog::Term::Const(v) => SortSet::Values(BTreeSet::from([*v])),
                        // Safe rules bind every head var in the body; an
                        // unsafe rule (denied upstream) degrades to ⊤.
                        mp_datalog::Term::Var(v) => {
                            vars.get(v).cloned().unwrap_or_else(SortSet::all)
                        }
                    };
                    changed |= entry[i].union_with(&col_sort, cap);
                }
            }
            if !changed {
                return SortAnalysis { sorts, cap };
            }
        }
    }

    /// Column sorts of one predicate; `None` means provably empty.
    pub fn of(&self, pred: &Predicate) -> Option<&Vec<SortSet>> {
        self.sorts.get(pred)
    }

    /// Abstractly evaluate a rule body against the current sorts:
    /// the variable environment on success, or the first reason the body
    /// is provably empty. Sound: any concrete satisfying assignment maps
    /// each variable into the returned sort.
    pub fn abstract_body(&self, body: &[Atom]) -> Result<BTreeMap<Var, SortSet>, EmptyReason> {
        abstract_body_in(&self.sorts, body)
    }
}

fn abstract_body_in(
    sorts: &BTreeMap<Predicate, Vec<SortSet>>,
    body: &[Atom],
) -> Result<BTreeMap<Var, SortSet>, EmptyReason> {
    let mut env: BTreeMap<Var, SortSet> = BTreeMap::new();
    for (index, atom) in body.iter().enumerate() {
        let Some(cols) = sorts.get(&atom.pred) else {
            return Err(EmptyReason::EmptyPredicate { index });
        };
        // A zero-arity predicate with an entry is derivable (its one
        // possible tuple is the unit tuple); only a column provably
        // holding no value empties a relation.
        if !cols.is_empty() && cols.iter().all(SortSet::is_empty) {
            return Err(EmptyReason::EmptyPredicate { index });
        }
        for (col, term) in atom.terms.iter().enumerate() {
            // Arity mismatches are denied by MP002 before analysis
            // runs; degrade to ⊤ rather than panic if one slips by.
            let col_sort = cols.get(col).cloned().unwrap_or_else(SortSet::all);
            match term {
                mp_datalog::Term::Const(v) => {
                    if !col_sort.contains(v) {
                        return Err(EmptyReason::ConstMismatch {
                            index,
                            col,
                            value: *v,
                        });
                    }
                }
                mp_datalog::Term::Var(v) => {
                    let met = match env.get(v) {
                        Some(prev) => {
                            let met = prev.intersect(&col_sort);
                            if met.is_empty() {
                                let (pi, ps) = prev.type_bits();
                                let (ci, cs) = col_sort.type_bits();
                                // Type-disjoint: both sides nonempty but
                                // sharing no type.
                                let type_clash = !(pi && ci || ps && cs);
                                return Err(EmptyReason::EmptyVar {
                                    var: v.clone(),
                                    type_clash,
                                });
                            }
                            met
                        }
                        None => col_sort,
                    };
                    env.insert(v.clone(), met);
                }
            }
        }
    }
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datalog::parser::parse_program;
    use mp_storage::tuple;

    fn setup(src: &str, facts: &[(&str, i64, i64)]) -> (Program, Database) {
        let program = parse_program(src).unwrap();
        let mut db = Database::new();
        for &(p, a, b) in facts {
            db.insert(p, tuple![a, b]).unwrap();
        }
        (program, db)
    }

    #[test]
    fn fixpoint_covers_derived_values() {
        let (program, db) = setup(
            "path(X, Y) :- edge(X, Y).
             path(X, Y) :- edge(X, Z), path(Z, Y).
             ?- path(0, Z).",
            &[("edge", 0, 1), ("edge", 1, 2)],
        );
        let sa = SortAnalysis::infer(&program, &db, DEFAULT_WIDEN_CAP);
        let path = sa.of(&Predicate::new("path")).unwrap();
        // Column 1 of path must cover every reachable node: {1, 2}.
        assert!(path[1].contains(&Value::int(1)));
        assert!(path[1].contains(&Value::int(2)));
        // Column 0 only ever holds edge sources: {0, 1}.
        assert!(path[0].contains(&Value::int(0)));
        assert!(!path[0].contains(&Value::int(2)));
    }

    #[test]
    fn type_disjoint_join_is_a_type_clash() {
        let program = parse_program(
            "p(X) :- a(X, Y), b(Y, Z).
             ?- p(X).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert("a", tuple![1, 2]).unwrap();
        db.insert("b", tuple!["x", "y"]).unwrap();
        let sa = SortAnalysis::infer(&program, &db, DEFAULT_WIDEN_CAP);
        let err = sa.abstract_body(&program.rules[0].body).unwrap_err();
        match err {
            EmptyReason::EmptyVar { var, type_clash } => {
                assert_eq!(var.name(), "Y");
                assert!(type_clash, "int-vs-symbol join must be a type clash");
            }
            other => panic!("expected EmptyVar, got {other:?}"),
        }
    }

    #[test]
    fn value_disjoint_join_is_empty_but_not_type_clash() {
        let (program, db) = setup(
            "p(X) :- a(X, Y), b(Y, Z).
             ?- p(X).",
            &[("a", 1, 2), ("b", 5, 6)],
        );
        let sa = SortAnalysis::infer(&program, &db, DEFAULT_WIDEN_CAP);
        match sa.abstract_body(&program.rules[0].body).unwrap_err() {
            EmptyReason::EmptyVar { type_clash, .. } => assert!(!type_clash),
            other => panic!("expected EmptyVar, got {other:?}"),
        }
    }

    #[test]
    fn constant_outside_sort_is_flagged() {
        let (program, db) = setup(
            "p(X) :- edge(9, X).
             ?- p(X).",
            &[("edge", 0, 1)],
        );
        let sa = SortAnalysis::infer(&program, &db, DEFAULT_WIDEN_CAP);
        assert_eq!(
            sa.abstract_body(&program.rules[0].body).unwrap_err(),
            EmptyReason::ConstMismatch {
                index: 0,
                col: 0,
                value: Value::int(9),
            }
        );
    }

    #[test]
    fn missing_predicate_is_empty() {
        let (program, db) = setup(
            "p(X) :- ghost(X, Y).
             ?- p(X).",
            &[("edge", 0, 1)],
        );
        let sa = SortAnalysis::infer(&program, &db, DEFAULT_WIDEN_CAP);
        assert_eq!(
            sa.abstract_body(&program.rules[0].body).unwrap_err(),
            EmptyReason::EmptyPredicate { index: 0 }
        );
    }

    #[test]
    fn widening_keeps_types_sound() {
        let program = parse_program(
            "p(X, Y) :- edge(X, Y).
             ?- p(0, Z).",
        )
        .unwrap();
        let mut db = Database::new();
        for i in 0..10 {
            db.insert("edge", tuple![i, i + 1]).unwrap();
        }
        // Cap of 4 forces widening; membership must stay over-approximate.
        let sa = SortAnalysis::infer(&program, &db, 4);
        let edge = sa.of(&Predicate::new("edge")).unwrap();
        assert!(matches!(edge[0], SortSet::Top { ints: true, .. }));
        assert!(edge[0].contains(&Value::int(999)), "Top admits by type");
        assert!(!edge[0].contains(&Value::str("zzz")));
    }

    #[test]
    fn seeds_equal_the_per_row_join() {
        // Reference: join every fact's value into the column sort one at
        // a time, the way the fixpoint treats derived values.
        fn per_row(rel: &mp_storage::Relation, cap: usize) -> Vec<SortSet> {
            let mut cols = vec![SortSet::empty(); rel.arity()];
            for t in rel.iter() {
                for (c, slot) in cols.iter_mut().enumerate() {
                    slot.union_with(&SortSet::Values(BTreeSet::from([t[c]])), cap);
                }
            }
            cols
        }
        let program = parse_program("p(X) :- one(X). ?- p(X).").unwrap();
        let mut db = Database::new();
        db.declare("none", 2).unwrap();
        db.declare("unit", 0).unwrap();
        db.insert("unit", mp_storage::Tuple::unit()).unwrap();
        db.insert("one", tuple![7]).unwrap();
        for i in 0..6i64 {
            db.insert("ints", tuple![i % 3, i]).unwrap();
            db.insert("syms", tuple![format!("s{i}"), "k"]).unwrap();
            db.insert("mixed", tuple![i, i % 2, "z"]).unwrap();
        }
        db.insert("mixed", tuple!["a", 1, "z"]).unwrap();
        for cap in [0, 1, 4, 256] {
            let sa = SortAnalysis::infer(&program, &db, cap);
            for (pred, rel) in db.iter() {
                assert_eq!(
                    sa.of(pred).unwrap(),
                    &per_row(rel, cap),
                    "{pred} at cap {cap}"
                );
            }
        }
    }

    #[test]
    fn negated_subgoals_weaken_instead_of_bind() {
        // `stuck` holds at most the positive bindings of `pos`; the
        // negation only removes tuples, so its sort must cover pos's
        // column even though `!moved(X)` could (concretely) filter
        // everything out. The abstraction must NOT treat the negated
        // subgoal as a binder (which could wrongly shrink the sort).
        let (program, db) = setup(
            "moved(X) :- move(X, _Y).
             stuck(X) :- pos(X, _P), !moved(X).
             ?- stuck(X).",
            &[("move", 1, 2), ("pos", 1, 0), ("pos", 7, 0)],
        );
        let sa = SortAnalysis::infer(&program, &db, DEFAULT_WIDEN_CAP);
        let stuck = sa.of(&Predicate::new("stuck")).unwrap();
        // 1 is concretely removed by !moved(1), but must stay in the
        // over-approximation; 7 truly survives.
        assert!(stuck[0].contains(&Value::int(1)));
        assert!(stuck[0].contains(&Value::int(7)));
        assert!(!stuck[0].contains(&Value::int(2)));
    }

    #[test]
    fn aggregate_columns_widen_by_function() {
        let (program, db) = setup(
            "n(D, count<S>) :- pay(D, S).
             t(D, sum<S>) :- pay(D, S).
             m(D, min<S>) :- pay(D, S).
             ?- n(D, C).",
            &[("pay", 1, 10), ("pay", 1, 20)],
        );
        let sa = SortAnalysis::infer(&program, &db, DEFAULT_WIDEN_CAP);
        // count/sum synthesize integers outside S's sort: the column is
        // integer-Top (2 and 30 are derivable but not in {10, 20}).
        for pred in ["n", "t"] {
            let cols = sa.of(&Predicate::new(pred)).unwrap();
            assert_eq!(
                cols[1],
                SortSet::Top {
                    ints: true,
                    syms: false
                },
                "{pred}"
            );
            assert!(cols[0].contains(&Value::int(1)), "grouping col is exact");
        }
        // min/max pick an existing value: the fold variable's own sort.
        let m = sa.of(&Predicate::new("m")).unwrap();
        assert!(m[1].contains(&Value::int(10)));
        assert!(!m[1].contains(&Value::int(30)));
    }
}
