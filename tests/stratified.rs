//! Soundness of the staged stratified pipeline: the engine's
//! stratum-by-stratum evaluation of programs with negation and
//! aggregates must compute exactly the perfect model, on every runtime,
//! at every shard count, and under chaos. The reference is
//! `mp-baselines`' `PerfectModel` — an independent iterated-fixpoint
//! evaluator that shares no code with `mp-analyze`'s stratifier or the
//! engine's staging driver.

use mp_framework::baselines::{Evaluator, PerfectModel};
use mp_framework::datalog::parser::parse_program;
use mp_framework::datalog::Database;
use mp_framework::engine::runtime::RuntimeError;
use mp_framework::engine::{
    Engine, EngineError, FaultPlan, QueryBudget, RuntimeKind, Schedule, Stats,
};
use mp_framework::storage::tuple;
use mp_framework::workloads::random_programs::{
    generate_stratified, is_interesting, StratifiedSpec,
};
use mp_framework::workloads::scenarios;
use proptest::prelude::*;

/// The canonical stratified workloads must be oracle-identical on both
/// runtimes at 1 and 4 shards — the PR's acceptance matrix.
#[test]
fn canonical_stratified_workloads_match_the_oracle() {
    let workloads = [
        scenarios::win_move(24, 40, 3),
        scenarios::win_move(16, 12, 5),
        scenarios::company_control(10, 1),
        scenarios::company_control(16, 7),
        scenarios::agg_reachability(24, 48, 4, 2),
    ];
    for w in &workloads {
        let expect = PerfectModel
            .evaluate(&w.program, &w.db)
            .unwrap_or_else(|e| panic!("oracle failed on {}: {e}", w.name))
            .answers
            .sorted_rows();
        for shards in [1usize, 4] {
            for (rt_name, runtime) in [
                ("sim", RuntimeKind::Sim(Schedule::Fifo)),
                ("threads", RuntimeKind::Threads),
            ] {
                let got = Engine::new(w.program.clone(), w.db.clone())
                    .with_runtime(runtime)
                    .with_shards(shards)
                    .evaluate()
                    .unwrap_or_else(|e| panic!("{} failed on {rt_name} x{shards}: {e}", w.name))
                    .answers
                    .sorted_rows();
                assert_eq!(got, expect, "{} on {rt_name} x{shards}", w.name);
            }
        }
    }
}

/// The staged pipeline actually stages: the three-stratum win-move
/// program reports more than one engine run, a flat program exactly one.
#[test]
fn strata_evaluated_counts_pipeline_stages() {
    let w = scenarios::win_move(12, 16, 1);
    let staged = Engine::new(w.program.clone(), w.db.clone())
        .evaluate()
        .unwrap();
    assert!(
        staged.stats.strata_evaluated > 1,
        "win-move should stage, got {}",
        staged.stats.strata_evaluated
    );

    let flat = scenarios::tc_chain(8);
    let direct = Engine::new(flat.program.clone(), flat.db.clone())
        .evaluate()
        .unwrap();
    assert_eq!(direct.stats.strata_evaluated, 1);
}

/// Unstratifiable programs are rejected with a deterministic MP009 deny
/// on both public paths: `compile` (the gate itself) and `evaluate`
/// (which must not reach the staging driver).
#[test]
fn unstratifiable_programs_are_rejected_on_both_paths() {
    let program = parse_program(
        "p(X) :- node(X), !q(X).
         q(X) :- node(X), !p(X).
         ?- p(X).",
    )
    .unwrap();
    let mut db = Database::new();
    db.insert("node", tuple![1]).unwrap();
    let engine = Engine::new(program, db);
    for (path, outcome) in [
        ("compile", engine.compile().map(drop)),
        ("evaluate", engine.evaluate().map(drop)),
    ] {
        match outcome {
            Err(EngineError::Lint(diags)) => {
                assert!(
                    diags.iter().any(|d| d.code.as_str() == "MP009"),
                    "{path}: expected MP009, got {diags:?}"
                );
            }
            Err(other) => panic!("{path}: expected a lint rejection, got {other}"),
            Ok(()) => panic!("{path}: unstratifiable program accepted"),
        }
    }
}

/// One budget spans the whole pipeline: a step allowance that a staged
/// program cannot satisfy trips the same typed divergence error the flat
/// path reports, instead of resetting per stratum.
#[test]
fn one_budget_spans_all_strata() {
    let w = scenarios::agg_reachability(32, 96, 8, 3);
    match Engine::new(w.program.clone(), w.db.clone())
        .with_budget(QueryBudget::new().with_max_steps(5))
        .evaluate()
    {
        Err(EngineError::Runtime(e)) => {
            assert!(matches!(e, RuntimeError::Diverged { .. }), "{e}")
        }
        Err(other) => panic!("expected a runtime budget error, got {other}"),
        Ok(_) => panic!("a 5-step budget cannot evaluate this workload"),
    }
}

/// The seven schedule-invariant logical counters (Thm 4.1), summed over
/// the pipeline's runs.
fn logical_counters(s: &Stats) -> [u64; 7] {
    [
        s.logical_tuple_requests,
        s.logical_answers,
        s.logical_end_tuple_requests,
        s.derived_tuples,
        s.stored_tuples,
        s.goal_stored,
        s.join_probes,
    ]
}

/// Regression: `replay` used to compile the whole program against the
/// raw EDB, where a negated IDB predicate has no relation and reads as
/// empty. A stratified run's trace covers its final stratum; replaying
/// it — recorded on the simulator or on the 2-worker pool — must
/// materialize the strata below and reproduce `evaluate`'s answers and
/// logical counters.
#[test]
fn recorded_stratified_runs_replay_to_the_same_answers() {
    let minimal = parse_program(
        "e(1). e(2). e(3). bad(2).
         blocked(X) :- bad(X).
         ok(X) :- e(X), !blocked(X).
         ?- ok(X).",
    )
    .unwrap();
    let negation = scenarios::win_move(24, 40, 3);
    let aggregate = scenarios::agg_reachability(24, 48, 4, 2);
    for (name, program, db) in [
        ("minimal", &minimal, &Database::new()),
        (negation.name.as_str(), &negation.program, &negation.db),
        (aggregate.name.as_str(), &aggregate.program, &aggregate.db),
    ] {
        for (rt_name, runtime) in [
            ("sim", RuntimeKind::Sim(Schedule::Random(5))),
            ("pool", RuntimeKind::Threads),
        ] {
            let engine = Engine::new(program.clone(), db.clone())
                .with_runtime(runtime)
                .with_workers(2)
                .with_trace(true);
            let recorded = engine
                .evaluate()
                .unwrap_or_else(|e| panic!("{name} on {rt_name}: {e}"));
            let trace = recorded.events.as_ref().expect("tracing was on");
            let replayed = engine
                .replay(trace)
                .unwrap_or_else(|e| panic!("{name} on {rt_name}: replay: {e}"));
            assert_eq!(
                replayed.answers.sorted_rows(),
                recorded.answers.sorted_rows(),
                "{name} on {rt_name}: replay diverged from the recorded run"
            );
            assert_eq!(
                logical_counters(&replayed.stats),
                logical_counters(&recorded.stats),
                "{name} on {rt_name}: logical counters"
            );
            assert_eq!(
                replayed.stats.strata_evaluated, recorded.stats.strata_evaluated,
                "{name} on {rt_name}: strata"
            );
        }
    }
}

/// Chaos sweep: 8 seeded stratified programs evaluated under a lossy
/// fault plan and an adversarial random schedule still compute the
/// perfect model (the self-healing transport composes with staging).
#[test]
fn chaos_sweep_preserves_the_perfect_model() {
    let spec = StratifiedSpec::default();
    let mut tested = 0u64;
    for seed in 0..64u64 {
        if tested >= 8 {
            break;
        }
        let (program, db) = generate_stratified(&spec, seed);
        if !is_interesting(&program, &db) || program.rules.iter().all(|r| r.neg.is_empty()) {
            continue;
        }
        tested += 1;
        let expect = PerfectModel
            .evaluate(&program, &db)
            .unwrap_or_else(|e| panic!("oracle failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        let got = Engine::new(program.clone(), db.clone())
            .with_runtime(RuntimeKind::Sim(Schedule::Random(seed * 31 + 7)))
            .with_fault_plan(FaultPlan::seeded(seed * 97 + 13))
            .evaluate()
            .unwrap_or_else(|e| panic!("chaos run failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        assert_eq!(got, expect, "seed {seed}\n{program}");
    }
    assert_eq!(tested, 8, "the sweep must cover 8 negation-using programs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random stratified-negation programs: the staged engine (both
    /// runtimes) computes exactly the perfect model.
    #[test]
    fn staged_engine_matches_perfect_model(seed in 0u64..10_000) {
        let spec = StratifiedSpec::default();
        let (program, db) = generate_stratified(&spec, seed);
        if !is_interesting(&program, &db) {
            return Ok(()); // vacuous draw; the generator seeds densely
        }
        let expect = PerfectModel
            .evaluate(&program, &db)
            .unwrap_or_else(|e| panic!("oracle failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        let sim = Engine::new(program.clone(), db.clone())
            .evaluate()
            .unwrap_or_else(|e| panic!("sim failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        prop_assert_eq!(&sim, &expect, "sim diverged on seed {}\n{}", seed, program);
        let threaded = Engine::new(program.clone(), db.clone())
            .with_runtime(RuntimeKind::Threads)
            .evaluate()
            .unwrap_or_else(|e| panic!("threads failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        prop_assert_eq!(&threaded, &expect, "threads diverged on seed {}\n{}", seed, program);
    }

    /// Sharding composes with staging: a staged 4-shard run equals the
    /// 1-shard run on random stratified programs.
    #[test]
    fn sharded_staging_matches_unsharded(seed in 0u64..10_000) {
        let spec = StratifiedSpec::default();
        let (program, db) = generate_stratified(&spec, seed);
        if !is_interesting(&program, &db) {
            return Ok(());
        }
        let one = Engine::new(program.clone(), db.clone())
            .with_shards(1)
            .evaluate()
            .unwrap_or_else(|e| panic!("1-shard failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        let four = Engine::new(program.clone(), db.clone())
            .with_shards(4)
            .evaluate()
            .unwrap_or_else(|e| panic!("4-shard failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        prop_assert_eq!(&four, &one, "shards diverged on seed {}\n{}", seed, program);
    }
}
