//! Shared machinery: the relation store and the indexed rule-body
//! evaluator used by every bottom-up baseline.

use mp_datalog::{Atom, Database, Predicate, Program, Rule, Term, Var};
use mp_storage::{Relation, Tuple, Value};
use std::collections::{BTreeMap, HashMap};

/// Work counters comparable across evaluators (and loosely with the
/// engine's [`mp_engine` stats]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint iterations (passes / waves / outer loops).
    pub iterations: u64,
    /// Head tuples produced by rule applications (before dedup).
    pub derived_tuples: u64,
    /// Distinct tuples stored across all relations (IDB + auxiliary).
    pub stored_tuples: u64,
    /// Index probe operations during body evaluation.
    pub join_probes: u64,
    /// Rule applications attempted.
    pub rule_applications: u64,
}

/// A store of named relations (EDB + IDB + auxiliary).
#[derive(Clone, Debug, Default)]
pub struct RelStore {
    rels: BTreeMap<Predicate, Relation>,
}

impl RelStore {
    /// Initialize from an EDB.
    pub fn from_database(db: &Database) -> RelStore {
        let mut store = RelStore::default();
        for (p, r) in db.iter() {
            let mut ir = Relation::new(r.arity());
            for t in r.iter() {
                ir.insert(t.clone()).expect("EDB arity");
            }
            store.rels.insert(p.clone(), ir);
        }
        store
    }

    /// Ensure a relation exists with the given arity.
    pub fn declare(&mut self, pred: &Predicate, arity: usize) {
        self.rels
            .entry(pred.clone())
            .or_insert_with(|| Relation::new(arity));
    }

    /// The relation for a predicate (empty 0-ary placeholder if absent).
    pub fn get(&self, pred: &Predicate) -> Option<&Relation> {
        self.rels.get(pred)
    }

    /// Insert a tuple, declaring on first use. Returns true if new.
    pub fn insert(&mut self, pred: &Predicate, t: Tuple) -> bool {
        let rel = self
            .rels
            .entry(pred.clone())
            .or_insert_with(|| Relation::new(t.arity()));
        rel.insert(t).expect("arity consistent within a program")
    }

    /// Prepare an index on `cols` of `pred`'s relation.
    pub fn ensure_index(&mut self, pred: &Predicate, cols: &[usize]) {
        if let Some(rel) = self.rels.get_mut(pred) {
            rel.ensure_index(cols).expect("columns in range");
        }
    }

    /// Total stored tuples.
    pub fn total_tuples(&self) -> u64 {
        self.rels.values().map(|r| r.len() as u64).sum()
    }

    /// Extract the goal relation (empty if never derived).
    pub fn goal_relation(&self, program: &Program) -> Relation {
        let goal = Program::goal_pred();
        let arity = program
            .query_rules()
            .next()
            .map(|r| r.head.arity())
            .unwrap_or(0);
        match self.rels.get(&goal) {
            Some(r) => {
                let mut out = Relation::new(arity);
                for t in r.iter() {
                    out.insert(t.clone()).expect("goal arity");
                }
                out
            }
            None => Relation::new(arity),
        }
    }
}

/// For each rule, the statically-known bound column sets of each body
/// atom under left-to-right evaluation — used to prepare indexes once.
pub fn prepare_rule_indexes(store: &mut RelStore, rules: &[Rule]) {
    for rule in rules {
        let mut bound: Vec<Var> = Vec::new();
        for atom in &rule.body {
            let cols = bound_columns(atom, &bound);
            store.ensure_index(&atom.pred, &cols);
            for v in atom.vars() {
                if !bound.contains(&v) {
                    bound.push(v);
                }
            }
        }
    }
}

/// Columns of `atom` holding constants or already-bound variables.
fn bound_columns(atom: &Atom, bound: &[Var]) -> Vec<usize> {
    atom.terms
        .iter()
        .enumerate()
        .filter(|(_, t)| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        })
        .map(|(i, _)| i)
        .collect()
}

/// Evaluate one rule against the store, optionally constraining one body
/// atom (by index) to a delta relation. Produces the derived head tuples
/// (possibly with duplicates; the caller inserts and dedups).
pub fn eval_rule(
    rule: &Rule,
    store: &RelStore,
    delta: Option<(usize, &Relation)>,
    stats: &mut EvalStats,
) -> Vec<Tuple> {
    stats.rule_applications += 1;
    let mut out = Vec::new();
    let mut env: HashMap<Var, Value> = HashMap::new();
    eval_body(rule, 0, store, delta, &mut env, &mut out, stats);
    out
}

fn eval_body(
    rule: &Rule,
    idx: usize,
    store: &RelStore,
    delta: Option<(usize, &Relation)>,
    env: &mut HashMap<Var, Value>,
    out: &mut Vec<Tuple>,
    stats: &mut EvalStats,
) {
    if idx == rule.body.len() {
        // Stratified negation: the binding survives only if every negated
        // subgoal misses the store. Strata run bottom-up, so the negated
        // relations are already sealed here. A negated variable left
        // unbound by the positive subgoals violates range restriction
        // (MP011); such a rule derives nothing.
        for neg in &rule.neg {
            let ground: Option<Tuple> = neg
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Some(*c),
                    Term::Var(v) => env.get(v).cloned(),
                })
                .collect();
            match ground {
                Some(t) => {
                    stats.join_probes += 1;
                    if store.get(&neg.pred).is_some_and(|rel| rel.contains(&t)) {
                        return;
                    }
                }
                None => return,
            }
        }
        let head: Option<Tuple> = rule
            .head
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => Some(*c),
                Term::Var(v) => env.get(v).cloned(),
            })
            .collect();
        if let Some(t) = head {
            stats.derived_tuples += 1;
            out.push(t);
        }
        return;
    }
    let atom = &rule.body[idx];

    // Candidate tuples: from the delta override or the store (indexed on
    // the bound columns when possible).
    let bound_cols: Vec<usize> = atom
        .terms
        .iter()
        .enumerate()
        .filter(|(_, t)| match t {
            Term::Const(_) => true,
            Term::Var(v) => env.contains_key(v),
        })
        .map(|(i, _)| i)
        .collect();
    let key: Tuple = bound_cols
        .iter()
        .map(|&i| match &atom.terms[i] {
            Term::Const(c) => *c,
            Term::Var(v) => env[v],
        })
        .collect();

    stats.join_probes += 1;
    let candidates: Vec<&Tuple> = match delta {
        Some((d, rel)) if d == idx => rel
            .iter()
            .filter(|t| t.matches_on(&bound_cols, &key))
            .collect(),
        _ => match store.get(&atom.pred) {
            Some(rel) => rel.lookup(&bound_cols, &key),
            None => Vec::new(),
        },
    };

    'tuples: for t in candidates {
        // Bind the free positions, checking repeated variables.
        let mut added: Vec<Var> = Vec::new();
        for (i, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(c) => {
                    if &t[i] != c {
                        for v in added.drain(..) {
                            env.remove(&v);
                        }
                        continue 'tuples;
                    }
                }
                Term::Var(v) => match env.get(v) {
                    Some(existing) => {
                        if existing != &t[i] {
                            for v in added.drain(..) {
                                env.remove(&v);
                            }
                            continue 'tuples;
                        }
                    }
                    None => {
                        env.insert(v.clone(), t[i]);
                        added.push(v.clone());
                    }
                },
            }
        }
        eval_body(rule, idx + 1, store, delta, env, out, stats);
        for v in added {
            env.remove(&v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datalog::parser::{parse_program, parse_rule};
    use mp_storage::tuple;

    fn store_with(edges: &[(i64, i64)]) -> RelStore {
        let mut db = Database::new();
        for &(a, b) in edges {
            db.insert("edge", tuple![a, b]).unwrap();
        }
        RelStore::from_database(&db)
    }

    #[test]
    fn eval_rule_joins() {
        let store = store_with(&[(1, 2), (2, 3), (2, 4)]);
        let rule = parse_rule("two(X, Z) :- edge(X, Y), edge(Y, Z).").unwrap();
        let mut stats = EvalStats::default();
        let mut out = eval_rule(&rule, &store, None, &mut stats);
        out.sort();
        assert_eq!(out, vec![tuple![1, 3], tuple![1, 4]]);
        assert!(stats.join_probes > 0);
    }

    #[test]
    fn eval_rule_with_constants_and_repeats() {
        let store = store_with(&[(1, 1), (1, 2), (2, 2)]);
        let rule = parse_rule("loop(X) :- edge(X, X).").unwrap();
        let mut stats = EvalStats::default();
        let mut out = eval_rule(&rule, &store, None, &mut stats);
        out.sort();
        assert_eq!(out, vec![tuple![1], tuple![2]]);

        let rule2 = parse_rule("from1(Y) :- edge(1, Y).").unwrap();
        let mut out2 = eval_rule(&rule2, &store, None, &mut stats);
        out2.sort();
        assert_eq!(out2, vec![tuple![1], tuple![2]]);
    }

    #[test]
    fn delta_constrains_one_atom() {
        let store = store_with(&[(1, 2), (2, 3)]);
        let rule = parse_rule("two(X, Z) :- edge(X, Y), edge(Y, Z).").unwrap();
        let delta = Relation::from_tuples(2, vec![tuple![2, 3]]).unwrap();
        let mut stats = EvalStats::default();
        // Constrain the FIRST atom to the delta: only X=2 applies, and
        // edge(3, ·) is empty.
        let out = eval_rule(&rule, &store, Some((0, &delta)), &mut stats);
        assert!(out.is_empty());
        // Constrain the SECOND: Y=2 → (1, 3).
        let out2 = eval_rule(&rule, &store, Some((1, &delta)), &mut stats);
        assert_eq!(out2, vec![tuple![1, 3]]);
    }

    #[test]
    fn goal_relation_extraction() {
        let program = parse_program("?- edge(1, Z).").unwrap();
        let mut store = store_with(&[]);
        store.insert(&Predicate::new("goal"), tuple![5]);
        let g = store.goal_relation(&program);
        assert_eq!(g.rows(), &[tuple![5]]);
    }
}
