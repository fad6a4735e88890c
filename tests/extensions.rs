//! Tests for the paper's extension hooks implemented beyond the basic
//! message set: packaged tuple requests (§3.1 footnote 2) and the
//! statistics-driven cost-based SIP strategy (§1.2's "optimization
//! information").

use mp_datalog::{parser::parse_program, Database, Predicate};
use mp_framework::baselines::{Evaluator, Naive};
use mp_framework::engine::{Engine, RuntimeKind, Schedule};
use mp_framework::rulegoal::SipKind;
use mp_framework::workloads::random_programs::{generate, is_interesting, ProgramSpec};
use mp_framework::workloads::scenarios;
use mp_storage::tuple;

#[test]
fn batching_preserves_answers_on_all_workloads() {
    for w in [
        scenarios::tc_chain(24),
        scenarios::tc_cycle(12),
        scenarios::tc_nonlinear_chain(12),
        scenarios::p1_chain(16),
        scenarios::sg_tree(3, 3, 5),
        scenarios::bom(40, 3, 7),
    ] {
        let plain = Engine::new(w.program.clone(), w.db.clone())
            .evaluate()
            .unwrap();
        let batched = Engine::new(w.program.clone(), w.db.clone())
            .with_batch_size(64)
            .evaluate()
            .unwrap();
        assert_eq!(
            plain.answers.sorted_rows(),
            batched.answers.sorted_rows(),
            "{}",
            w.name
        );
    }
}

#[test]
fn batching_reduces_request_messages_on_fanout() {
    // Reachability on a dense random graph fans many bindings out of
    // each derivation step; the package optimization cuts request
    // messages. (On pure chains there is nothing to package — each
    // request depends on the previous answer — and batching is neutral.)
    let w = scenarios::tc_random(40, 160, 3);
    let plain = Engine::new(w.program.clone(), w.db.clone())
        .evaluate()
        .unwrap();
    let batched = Engine::new(w.program.clone(), w.db.clone())
        .with_batch_size(64)
        .evaluate()
        .unwrap();
    // Frames against items: at batch size 1 every binding is a frame.
    let (plain_reqs, batched_reqs) = (plain.stats.tuple_requests, batched.stats.tuple_requests);
    assert_eq!(plain_reqs, batched.stats.logical_tuple_requests);
    assert!(
        batched_reqs * 2 < plain_reqs,
        "batched {batched_reqs} vs plain {plain_reqs}"
    );
    // Answers package as well, and total messages drop.
    assert!(batched.stats.answers < batched.stats.logical_answers);
    assert!(batched.stats.total_messages() < plain.stats.total_messages());
}

#[test]
fn batching_survives_random_schedules_and_threads() {
    let w = scenarios::tc_cycle(10);
    let expect = Engine::new(w.program.clone(), w.db.clone())
        .evaluate()
        .unwrap()
        .answers
        .sorted_rows();
    for seed in 0..8 {
        let got = Engine::new(w.program.clone(), w.db.clone())
            .with_batch_size(64)
            .with_runtime(RuntimeKind::Sim(Schedule::Random(seed)))
            .evaluate()
            .unwrap()
            .answers
            .sorted_rows();
        assert_eq!(got, expect, "seed {seed}");
    }
    let threaded = Engine::new(w.program.clone(), w.db.clone())
        .with_batch_size(64)
        .with_runtime(RuntimeKind::Threads)
        .evaluate()
        .unwrap();
    assert_eq!(threaded.answers.sorted_rows(), expect);
}

#[test]
fn batching_agrees_on_random_programs() {
    let spec = ProgramSpec::default();
    for seed in 400..470 {
        let (program, db) = generate(&spec, seed);
        if !is_interesting(&program, &db) {
            continue;
        }
        let expect = Naive.evaluate(&program, &db).unwrap().answers.sorted_rows();
        let got = Engine::new(program.clone(), db.clone())
            .with_batch_size(64)
            .evaluate()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        assert_eq!(got, expect, "seed {seed}\n{program}");
    }
}

/// Cost-based SIP: skewed relation sizes where bound-argument counting
/// ties but cardinalities differ sharply.
fn skewed_workload(n: usize) -> (mp_datalog::Program, Database) {
    let program = parse_program(
        "p(X, Z) :- big(X, Y), tiny(X, W), link(Y, W, Z).
         ?- p(0, Z).",
    )
    .unwrap();
    let mut db = Database::new();
    // big: every X fans out to n Y values; tiny: one W per X.
    for x in 0..4i64 {
        db.insert("tiny", tuple![x, x + 5000]).unwrap();
        for y in 0..n as i64 {
            db.insert("big", tuple![x, y + 1000]).unwrap();
        }
    }
    // link(Y, W, Z): every (Y, W) pair that could arise, one Z each —
    // but only W-matching rows exist, so probing with W bound first is
    // dramatically more selective.
    for y in 0..n as i64 {
        for x in 0..4i64 {
            db.insert("link", tuple![y + 1000, x + 5000, y]).unwrap();
        }
    }
    (program, db)
}

#[test]
fn cost_based_sip_beats_greedy_on_skewed_cardinalities() {
    let (program, db) = skewed_workload(64);
    let greedy = Engine::new(program.clone(), db.clone())
        .with_sip(SipKind::Greedy)
        .evaluate()
        .unwrap();
    let cost = Engine::new(program.clone(), db.clone())
        .with_sip(SipKind::CostBased)
        .evaluate()
        .unwrap();
    assert_eq!(
        greedy.answers.sorted_rows(),
        cost.answers.sorted_rows(),
        "strategies must agree on answers"
    );
    // Greedy tie-breaks to `big` (textual order); cost-based starts at
    // `tiny` (4 rows vs 256) — fewer stored tuples and messages.
    assert!(
        cost.stats.total_messages() <= greedy.stats.total_messages(),
        "cost {} vs greedy {}",
        cost.stats.total_messages(),
        greedy.stats.total_messages()
    );
}

#[test]
fn cost_based_falls_back_without_stats() {
    // plan() without stats must order like greedy.
    use mp_rulegoal::{sip, Adornment, ArgClass};
    let rule = mp_datalog::parser::parse_rule("p(X, Z) :- a(X, Y), b(Y, Z).").unwrap();
    let ad = Adornment(vec![ArgClass::D, ArgClass::F]);
    let cb = sip::plan(&rule, &ad, SipKind::CostBased);
    let greedy = sip::plan(&rule, &ad, SipKind::Greedy);
    assert_eq!(cb.order, greedy.order);
    assert_eq!(cb.adornments, greedy.adornments);
}

#[test]
fn cost_based_orders_by_estimated_size() {
    use mp_rulegoal::{sip, Adornment, ArgClass};
    let (_, db) = skewed_workload(32);
    assert!(db.relation(&Predicate::new("big")).unwrap().len() > 100);
    assert_eq!(db.relation(&Predicate::new("tiny")).unwrap().len(), 4);
    let rule =
        mp_datalog::parser::parse_rule("p(X, Z) :- big(X, Y), tiny(X, W), link(Y, W, Z).").unwrap();
    let ad = Adornment(vec![ArgClass::D, ArgClass::F]);
    let plan = sip::plan_with_stats(&rule, &ad, SipKind::CostBased, Some(&db));
    // tiny (index 1) must be scheduled before big (index 0).
    let pos = |i: usize| plan.order.iter().position(|&x| x == i).unwrap();
    assert!(pos(1) < pos(0), "order was {:?}", plan.order);
}

#[test]
fn cost_based_agrees_on_random_programs() {
    let spec = ProgramSpec::default();
    for seed in 500..560 {
        let (program, db) = generate(&spec, seed);
        if !is_interesting(&program, &db) {
            continue;
        }
        let expect = Naive.evaluate(&program, &db).unwrap().answers.sorted_rows();
        let got = Engine::new(program.clone(), db.clone())
            .with_sip(SipKind::CostBased)
            .evaluate()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        assert_eq!(got, expect, "seed {seed}\n{program}");
    }
}
