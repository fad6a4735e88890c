//! A memoizing top-down evaluator (QSQR/tabling style) with Prolog's
//! left-to-right subgoal order.
//!
//! Calls are canonicalized (predicate + constant pattern + repeated-
//! variable pattern) and memoized; recursive re-entry into an active call
//! consumes the answers derived so far; an outer loop re-runs the query
//! until the memo reaches a fixpoint. This gives exactly the §1.2 claim
//! the paper makes for its own method — "the method is certain to
//! terminate, avoiding the well-known 'left recursion' problems of
//! strictly top-down methods" — as a baseline for comparing *work*, not
//! termination.

use crate::common::{EvalStats, RelStore};
use crate::{EvalResult, Evaluator};
use mp_datalog::unify::{mgu, rename_apart};
use mp_datalog::{Atom, Database, DatalogError, Predicate, Program, Term, Var};
use mp_storage::{Relation, Tuple, Value};
use std::collections::{HashMap, HashSet};

/// The memoizing top-down evaluator.
#[derive(Clone, Copy, Debug, Default)]
pub struct TopDown;

/// A canonicalized call pattern: constants stay, variables are numbered
/// by first occurrence (so variant calls share one memo entry).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CallKey {
    pred: Predicate,
    args: Vec<CallArg>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum CallArg {
    Const(Value),
    Var(u16),
}

fn canon(atom: &Atom) -> CallKey {
    let mut groups: HashMap<&Var, u16> = HashMap::new();
    let args = atom
        .terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => CallArg::Const(*c),
            Term::Var(v) => {
                let next = groups.len() as u16;
                CallArg::Var(*groups.entry(v).or_insert(next))
            }
        })
        .collect();
    CallKey {
        pred: atom.pred.clone(),
        args,
    }
}

struct Solver<'a> {
    program: &'a Program,
    store: RelStore,
    idb: HashSet<Predicate>,
    memo: HashMap<CallKey, Relation>,
    active: HashSet<CallKey>,
    evaluated_round: HashMap<CallKey, u64>,
    round: u64,
    changed: bool,
    rename_counter: u64,
    stats: EvalStats,
}

impl<'a> Solver<'a> {
    /// Answers (full-arity ground tuples) for a call, evaluating its
    /// rules unless the call is active or already evaluated this round.
    fn solve(&mut self, atom: &Atom) -> Relation {
        let key = canon(atom);
        self.memo
            .entry(key.clone())
            .or_insert_with(|| Relation::new(atom.arity()));
        let fresh_this_round = self.evaluated_round.get(&key) != Some(&self.round);
        if self.active.contains(&key) || !fresh_this_round {
            return self.memo[&key].clone();
        }
        self.active.insert(key.clone());
        self.evaluated_round.insert(key.clone(), self.round);

        let rules: Vec<_> = self
            .program
            .rules
            .iter()
            .filter(|r| r.head.pred == atom.pred && r.head.arity() == atom.arity())
            .cloned()
            .collect();
        for rule in rules {
            self.stats.rule_applications += 1;
            let fresh = rename_apart(&rule, &mut self.rename_counter);
            let Some(sigma) = mgu(&fresh.head, atom) else {
                continue;
            };
            let inst = sigma.apply_rule(&fresh);
            let mut env: HashMap<Var, Value> = HashMap::new();
            let mut derived: Vec<Tuple> = Vec::new();
            self.eval_body(&inst, 0, &mut env, &mut derived);
            for t in derived {
                let entry = self.memo.get_mut(&key).expect("inserted above");
                if entry.insert(t).expect("head arity") {
                    self.changed = true;
                }
            }
        }
        self.active.remove(&key);
        self.memo[&key].clone()
    }

    fn eval_body(
        &mut self,
        rule: &mp_datalog::Rule,
        idx: usize,
        env: &mut HashMap<Var, Value>,
        out: &mut Vec<Tuple>,
    ) {
        if idx == rule.body.len() {
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
                self.stats.derived_tuples += 1;
                out.push(t);
            }
            return;
        }
        let atom = &rule.body[idx];
        // Ground the atom as far as the environment allows.
        let grounded = Atom {
            pred: atom.pred.clone(),
            terms: atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => match env.get(v) {
                        Some(c) => Term::Const(*c),
                        None => t.clone(),
                    },
                    Term::Const(_) => t.clone(),
                })
                .collect(),
        };

        self.stats.join_probes += 1;
        let candidates: Vec<Tuple> = if self.idb.contains(&atom.pred) {
            // Recursive descent with memoization, then filter on the
            // grounded pattern.
            let answers = self.solve(&grounded);
            answers
                .iter()
                .filter(|t| matches_pattern(t, &grounded))
                .cloned()
                .collect()
        } else {
            let bound: Vec<usize> = grounded
                .terms
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.is_var())
                .map(|(i, _)| i)
                .collect();
            let key: Tuple = bound
                .iter()
                .map(|&i| grounded.terms[i].as_const().copied().expect("bound"))
                .collect();
            match self.store.get(&atom.pred) {
                Some(rel) => rel
                    .lookup(&bound, &key)
                    .into_iter()
                    .filter(|t| matches_pattern(t, &grounded))
                    .cloned()
                    .collect(),
                None => Vec::new(),
            }
        };

        for t in candidates {
            let mut added: Vec<Var> = Vec::new();
            let mut ok = true;
            for (i, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(c) => {
                        if &t[i] != c {
                            ok = false;
                            break;
                        }
                    }
                    Term::Var(v) => match env.get(v) {
                        Some(existing) => {
                            if existing != &t[i] {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            env.insert(v.clone(), t[i]);
                            added.push(v.clone());
                        }
                    },
                }
            }
            if ok {
                self.eval_body(rule, idx + 1, env, out);
            }
            for v in added {
                env.remove(&v);
            }
        }
    }
}

/// Does a ground tuple match the grounded atom's constants and repeated
/// variables?
fn matches_pattern(t: &Tuple, atom: &Atom) -> bool {
    let mut bound: HashMap<&Var, &Value> = HashMap::new();
    for (i, term) in atom.terms.iter().enumerate() {
        match term {
            Term::Const(c) => {
                if &t[i] != c {
                    return false;
                }
            }
            Term::Var(v) => match bound.get(v) {
                Some(&existing) => {
                    if existing != &t[i] {
                        return false;
                    }
                }
                None => {
                    bound.insert(v, &t[i]);
                }
            },
        }
    }
    true
}

impl Evaluator for TopDown {
    fn name(&self) -> &'static str {
        "top-down"
    }

    fn evaluate(&self, program: &Program, db: &Database) -> Result<EvalResult, DatalogError> {
        let mut db = db.clone();
        program.load_facts(&mut db)?;
        program.validate(&db)?;
        let goal_arity = program
            .query_rules()
            .next()
            .map(|r| r.head.arity())
            .unwrap_or(0);
        let goal_atom = Atom::new(
            Program::goal_pred(),
            (0..goal_arity)
                .map(|i| Term::var(format!("Q{i}")))
                .collect(),
        );
        let mut solver = Solver {
            program,
            store: RelStore::from_database(&db),
            idb: program.idb_predicates().keys().cloned().collect(),
            memo: HashMap::new(),
            active: HashSet::new(),
            evaluated_round: HashMap::new(),
            round: 0,
            changed: false,
            rename_counter: 0,
            stats: EvalStats::default(),
        };
        // Prepare EDB indexes on every column set the rules can bind —
        // conservative: single full scan fallback is acceptable for the
        // baseline; hot sets get built lazily by Relation::lookup's
        // scan path. (Indexes prepared for left-to-right bound columns.)
        crate::common::prepare_rule_indexes(&mut solver.store, &program.rules);

        let answers = loop {
            solver.round += 1;
            solver.stats.iterations += 1;
            solver.changed = false;
            let a = solver.solve(&goal_atom);
            if !solver.changed {
                break a;
            }
        };
        solver.stats.stored_tuples = solver.memo.values().map(|r| r.len() as u64).sum::<u64>();
        Ok(EvalResult {
            answers,
            stats: solver.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datalog::parser::{parse_atom, parse_program};
    use mp_storage::tuple;

    #[test]
    fn canon_merges_variants() {
        assert_eq!(
            canon(&parse_atom("p(X, Y, X)").unwrap()),
            canon(&parse_atom("p(A, B, A)").unwrap())
        );
        assert_ne!(
            canon(&parse_atom("p(X, Y, X)").unwrap()),
            canon(&parse_atom("p(A, A, A)").unwrap())
        );
        assert_ne!(
            canon(&parse_atom("p(1, Y)").unwrap()),
            canon(&parse_atom("p(2, Y)").unwrap())
        );
    }

    #[test]
    fn binding_restricts_exploration() {
        // Point query explores only the reachable suffix.
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).
             path(X, Z) :- edge(X, Y), path(Y, Z).
             ?- path(40, Z).",
        )
        .unwrap();
        let mut db = Database::new();
        for i in 0..50 {
            db.insert("edge", tuple![i, i + 1]).unwrap();
        }
        let r = TopDown.evaluate(&program, &db).unwrap();
        assert_eq!(r.answers.len(), 10);
        // Memo holds calls path(40,Z), path(41,Z).. — ~11 keys worth of
        // answers: 10+9+...+1 = 55 tuples, far below the full 1275.
        assert!(r.stats.stored_tuples <= 100, "{}", r.stats.stored_tuples);
    }

    #[test]
    fn left_recursive_ordering_terminates() {
        let program = parse_program(
            "path(X, Z) :- path(X, Y), edge(Y, Z).
             path(X, Y) :- edge(X, Y).
             ?- path(0, Z).",
        )
        .unwrap();
        let mut db = Database::new();
        for i in 0..8 {
            db.insert("edge", tuple![i, i + 1]).unwrap();
        }
        let r = TopDown.evaluate(&program, &db).unwrap();
        assert_eq!(r.answers.len(), 8);
        assert!(r.stats.iterations >= 2, "fixpoint needs multiple rounds");
    }

    #[test]
    fn repeated_vars_in_calls() {
        let program = parse_program(
            "e(1, 1). e(1, 2). e(2, 2).
             diag(X) :- e(X, X).
             ?- diag(X).",
        )
        .unwrap();
        let mut db = Database::new();
        let program2 = program.clone();
        program2.load_facts(&mut db).unwrap();
        let r = TopDown.evaluate(&program, &Database::new()).unwrap();
        assert_eq!(r.answers.sorted_rows(), vec![tuple![1], tuple![2]]);
    }
}
