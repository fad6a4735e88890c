//! Soundness of the mp-analyze abstract interpretation.
//!
//! The analysis prunes rule/goal-graph nodes before evaluation, so its
//! claims must be *proved against the concrete semantics*, not spot
//! checked: the sort fixpoint over-approximates the least model (every
//! concretely derived value lies inside its column's inferred sort, and
//! every concretely non-empty predicate is in the live set). That
//! pruning preserves answers — on both runtimes, with and without
//! injected faults — is the `analysis` axis of `tests/invariance.rs`.

use mp_framework::analyze::{analyze, AnalyzeOptions, SortAnalysis};
use mp_framework::datalog::{Database, Predicate, Program, Term, Var};
use mp_framework::rulegoal::{RuleGoalGraph, SipKind};
use mp_framework::storage::{Tuple, Value};
use mp_framework::workloads::random_programs::{generate, is_interesting, ProgramSpec};
use std::collections::{BTreeMap, BTreeSet};

/// The concrete least model, by brute-force naive fixpoint (substitution
/// semantics, independent of every evaluator under test).
fn least_model(program: &Program, db: &Database) -> BTreeMap<Predicate, BTreeSet<Tuple>> {
    let mut model: BTreeMap<Predicate, BTreeSet<Tuple>> = BTreeMap::new();
    for (p, r) in db.iter() {
        model
            .entry(p.clone())
            .or_default()
            .extend(r.iter().cloned());
    }
    loop {
        let mut changed = false;
        for rule in &program.rules {
            let mut envs: Vec<BTreeMap<Var, Value>> = vec![BTreeMap::new()];
            for atom in &rule.body {
                let rel = model.get(&atom.pred).cloned().unwrap_or_default();
                let mut next = Vec::new();
                for env in &envs {
                    'tup: for t in &rel {
                        let mut e2 = env.clone();
                        for (i, term) in atom.terms.iter().enumerate() {
                            match term {
                                Term::Const(c) => {
                                    if t[i] != *c {
                                        continue 'tup;
                                    }
                                }
                                Term::Var(v) => match e2.get(v) {
                                    Some(b) => {
                                        if *b != t[i] {
                                            continue 'tup;
                                        }
                                    }
                                    None => {
                                        e2.insert(v.clone(), t[i]);
                                    }
                                },
                            }
                        }
                        next.push(e2);
                    }
                }
                envs = next;
                if envs.is_empty() {
                    break;
                }
            }
            for env in envs {
                let t: Option<Tuple> = rule
                    .head
                    .terms
                    .iter()
                    .map(|term| match term {
                        Term::Const(c) => Some(*c),
                        Term::Var(v) => env.get(v).copied(),
                    })
                    .collect();
                if let Some(t) = t {
                    if model.entry(rule.head.pred.clone()).or_default().insert(t) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return model;
        }
    }
}

/// The over-approximation theorem, concretely: every value derived by the
/// naive fixpoint lies inside its column's inferred sort, and every
/// predicate with a tuple in the least model is in the analysis's live
/// set. (Contrapositive: abstractly-empty ⇒ truly empty, which is what
/// makes the pruning sound.)
#[test]
fn sort_inference_covers_the_least_model() {
    let spec = ProgramSpec::default();
    let mut tested = 0;
    for seed in 0..200 {
        let (program, mut db) = generate(&spec, seed);
        if !is_interesting(&program, &db) {
            continue;
        }
        let _ = program.load_facts(&mut db);
        tested += 1;

        let model = least_model(&program, &db);
        let sorts = SortAnalysis::infer(&program, &db, 256);
        for (pred, tuples) in &model {
            for t in tuples {
                let cols = sorts
                    .of(pred)
                    .unwrap_or_else(|| panic!("seed {seed}: `{pred}` derived but has no sorts"));
                for c in 0..t.arity() {
                    assert!(
                        cols[c].contains(&t[c]),
                        "seed {seed}: `{pred}` column {c} derived {} outside its sort\n{program}",
                        t[c]
                    );
                }
            }
        }

        let graph = RuleGoalGraph::build(&program, &db, SipKind::ALL[(seed % 4) as usize])
            .unwrap_or_else(|e| panic!("graph build failed on seed {seed}: {e}\n{program}"));
        let analysis = analyze(&program, &db, &graph, None, &AnalyzeOptions::default());
        let live = analysis.live_predicates();
        for (pred, tuples) in &model {
            if !tuples.is_empty() {
                assert!(
                    live.contains(pred),
                    "seed {seed}: `{pred}` has {} tuples but was declared dead\n{program}",
                    tuples.len()
                );
            }
        }
    }
    assert!(tested > 80, "only {tested} interesting programs out of 200");
}
