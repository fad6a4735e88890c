//! What the staged stratified pipeline promises beyond the invariance
//! contract (`tests/invariance.rs` holds every program with `!` or an
//! aggregate to the independent `PerfectModel` oracle across runtimes,
//! shards, chaos and replay): it stages, it rejects what has no perfect
//! model, and one budget spans all of its runs.

use mp_framework::datalog::parser::parse_program;
use mp_framework::datalog::Database;
use mp_framework::engine::runtime::RuntimeError;
use mp_framework::engine::{Engine, EngineError, QueryBudget};
use mp_framework::storage::tuple;
use mp_framework::workloads::scenarios;

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
