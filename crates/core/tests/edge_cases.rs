//! Engine edge cases: program shapes at the boundary of the §1 model.

use mp_datalog::parser::parse_program;
use mp_datalog::Database;
use mp_engine::{evaluate_str, Engine, EngineError, QueryBudget};
use mp_storage::{tuple, Tuple};

#[test]
fn multiple_query_rules_union() {
    // Two query rules: goal is their union.
    let out = evaluate_str(
        "a(1). a(2). b(2). b(3).
         goal(X) :- a(X).
         goal(X) :- b(X).
         ?- goal(9).", // parser needs one ?-; add a third branch instead
    );
    // `?- goal(9)` adds goal()… actually `goal` in body is invalid; this
    // program is rejected — which is itself worth pinning down:
    assert!(out.is_err(), "goal may not appear in a rule body");

    let program = parse_program(
        "a(1). a(2). b(2). b(3).
         goal(X) :- a(X).
         goal(X) :- b(X).",
    )
    .unwrap();
    let out = Engine::new(program, Database::new()).evaluate().unwrap();
    assert_eq!(
        out.answers.sorted_rows(),
        vec![tuple![1], tuple![2], tuple![3]]
    );
}

#[test]
fn undefined_idb_predicate_is_empty() {
    // `q` has no rules and no facts: treated as an empty IDB relation.
    let out = evaluate_str(
        "e(1).
         p(X) :- e(X), q(X).
         ?- p(Z).",
    )
    .unwrap();
    assert!(out.answers.is_empty());
}

#[test]
fn same_subgoal_twice_in_one_rule() {
    let out = evaluate_str(
        "e(1, 2). e(2, 3).
         two(X, Z) :- e(X, Y), e(Y, Z).
         square(X) :- two(X, X).
         ?- two(X, Z).",
    )
    .unwrap();
    assert_eq!(out.answers.sorted_rows(), vec![tuple![1, 3]]);
}

#[test]
fn deep_nonrecursive_rule_chain() {
    // 60 stacked rules: the End cascade and graph construction must
    // handle depth without issue.
    let mut src = String::from("p0(X) :- e(X).\n");
    for i in 1..60 {
        src.push_str(&format!("p{i}(X) :- p{}(X).\n", i - 1));
    }
    src.push_str("?- p59(Z).\n");
    let program = parse_program(&src).unwrap();
    let mut db = Database::new();
    db.insert("e", tuple![7]).unwrap();
    db.insert("e", tuple![8]).unwrap();
    let out = Engine::new(program, db).evaluate().unwrap();
    assert_eq!(out.answers.sorted_rows(), vec![tuple![7], tuple![8]]);
    assert_eq!(out.stats.protocol_messages, 0);
}

#[test]
fn long_recursive_chain() {
    let program = parse_program(
        "path(X, Y) :- edge(X, Y).
         path(X, Z) :- path(X, Y), edge(Y, Z).
         ?- path(0, Z).",
    )
    .unwrap();
    let mut db = Database::new();
    let n = 500;
    for i in 0..n {
        db.insert("edge", tuple![i, i + 1]).unwrap();
    }
    let out = Engine::new(program, db).evaluate().unwrap();
    assert_eq!(out.answers.len(), n as usize);
}

#[test]
fn wide_union_of_many_rules() {
    let mut src = String::new();
    for i in 0..40 {
        src.push_str(&format!("p(X) :- e{i}(X).\n"));
    }
    src.push_str("?- p(Z).\n");
    let program = parse_program(&src).unwrap();
    let mut db = Database::new();
    for i in 0..40 {
        db.insert(format!("e{i}").as_str(), tuple![i]).unwrap();
    }
    let out = Engine::new(program, db).evaluate().unwrap();
    assert_eq!(out.answers.len(), 40);
}

#[test]
fn self_join_on_both_columns() {
    // refl(X, Y) requires e(X, Y) and e(Y, X): a two-way join with the
    // same EDB relation under two different adornments.
    let out = evaluate_str(
        "e(1, 2). e(2, 1). e(3, 4).
         mutual(X, Y) :- e(X, Y), e(Y, X).
         ?- mutual(X, Y).",
    )
    .unwrap();
    assert_eq!(out.answers.sorted_rows(), vec![tuple![1, 2], tuple![2, 1]]);
}

#[test]
fn constants_everywhere() {
    let out = evaluate_str(
        "e(1, 2).
         p(7, \"tag\") :- e(1, 2).
         ?- p(X, Y).",
    )
    .unwrap();
    assert_eq!(out.answers.rows(), &[tuple![7, "tag"]]);
}

#[test]
fn bound_bound_query() {
    // Both goal arguments constant: boolean-style membership test.
    let out = evaluate_str(
        "edge(1, 2). edge(2, 3).
         path(X, Y) :- edge(X, Y).
         path(X, Z) :- path(X, Y), edge(Y, Z).
         ?- path(1, 3).",
    )
    .unwrap();
    assert_eq!(out.answers.len(), 1);
    assert_eq!(out.answers.rows()[0], Tuple::unit());

    let no = evaluate_str(
        "edge(1, 2).
         path(X, Y) :- edge(X, Y).
         path(X, Z) :- path(X, Y), edge(Y, Z).
         ?- path(2, 1).",
    )
    .unwrap();
    assert!(no.answers.is_empty());
}

#[test]
fn string_and_integer_constants_do_not_unify() {
    let out = evaluate_str(
        "e(1). e(\"1\").
         p(X) :- e(X).
         ?- p(1).",
    )
    .unwrap();
    assert_eq!(out.answers.len(), 1, "only the integer matches");
}

#[test]
fn recursion_through_two_rules_of_same_pred() {
    // Both recursive rules contribute; cycle refs under each.
    let out = evaluate_str(
        "e(0, 1). e(1, 2). f(2, 3). f(3, 4).
         p(X, Y) :- e(X, Y).
         p(X, Y) :- f(X, Y).
         p(X, Z) :- p(X, Y), p(Y, Z).
         ?- p(0, Z).",
    )
    .unwrap();
    assert_eq!(
        out.answers.sorted_rows(),
        vec![tuple![1], tuple![2], tuple![3], tuple![4]]
    );
}

#[test]
fn divergence_guard_reports_steps() {
    let program = parse_program(
        "p(X, Y) :- e(X, Y).
         p(X, Z) :- p(X, Y), p(Y, Z).
         ?- p(0, Z).",
    )
    .unwrap();
    let mut db = Database::new();
    for i in 0..50 {
        db.insert("e", tuple![i % 10, (i + 1) % 10]).unwrap();
    }
    let err = Engine::new(program, db)
        .with_budget(QueryBudget::new().with_max_steps(10))
        .evaluate()
        .unwrap_err();
    match err {
        EngineError::Runtime(mp_engine::runtime::RuntimeError::Diverged { steps }) => {
            assert!(steps > 10);
        }
        other => panic!("expected divergence, got {other:?}"),
    }
}

#[test]
fn empty_relation_declared_but_no_facts() {
    let program = parse_program(
        "p(X) :- e(X).
         ?- p(Z).",
    )
    .unwrap();
    let mut db = Database::new();
    db.declare("e", 1).unwrap();
    let out = Engine::new(program, db).evaluate().unwrap();
    assert!(out.answers.is_empty());
}

#[test]
fn answers_deduplicate_across_rules() {
    // The same tuple derivable through three different rules appears
    // once ("only forward answer tuples that are genuinely new", §3.1).
    let out = evaluate_str(
        "a(5). b(5). c(5).
         p(X) :- a(X).
         p(X) :- b(X).
         p(X) :- c(X).
         ?- p(Z).",
    )
    .unwrap();
    assert_eq!(out.answers.len(), 1);
    assert!(out.stats.answers >= 3, "three rule nodes answered");
}
