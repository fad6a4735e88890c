//! One loaded database, many queries: `Database::clone` shares the rows
//! and their catalogue. That evaluating on clones is indistinguishable
//! from evaluating on databases built independently is checked by
//! `tests/invariance.rs`; here are the two facts about *sharing*: a
//! write to the caller's database shows in the next evaluation and never
//! in an engine built before it, and two engines may fill one cold
//! catalogue at the same time — on the simulator (FIFO) and on the
//! worker pool (2 workers).

use mp_framework::baselines::{Evaluator, MagicSets};
use mp_framework::datalog::{Database, Program};
use mp_framework::engine::{Engine, QueryBudget, QueryResult, RuntimeKind, Schedule};
use mp_framework::storage::{tuple, Tuple};
use mp_framework::workloads::{scenarios, Workload};
use std::sync::Barrier;
use std::time::Duration;

const SIM: RuntimeKind = RuntimeKind::Sim(Schedule::Fifo);
const POOL: RuntimeKind = RuntimeKind::Threads;

/// Each workload with the EDB predicate its non-recursive rule reads:
/// a new fact `base(query constant, fresh)` adds the answer `fresh`.
fn workloads() -> Vec<(Workload, &'static str)> {
    vec![
        (scenarios::tc_random(48, 96, 3), "edge"),
        (scenarios::sg_tree(4, 2, 5), "flat"),
        (scenarios::bom(40, 3, 7), "uses"),
    ]
}

fn engine(program: &Program, db: Database, runtime: RuntimeKind) -> Engine {
    Engine::new(program.clone(), db)
        .with_runtime(runtime)
        .with_workers(2)
        .with_budget(QueryBudget::new().with_deadline(Duration::from_secs(30)))
}

fn run(ctx: &str, engine: &Engine) -> QueryResult {
    engine
        .clone()
        .evaluate()
        .unwrap_or_else(|e| panic!("{ctx}: {e}"))
}

fn oracle(program: &Program, db: &Database) -> Vec<Tuple> {
    MagicSets::default()
        .evaluate(program, db)
        .expect("magic sets evaluates the canonical workloads")
        .answers
        .sorted_rows()
}

/// The same facts in a database that shares nothing with `db`: every
/// relation re-inserted row by row, catalogue cold.
fn rebuilt(db: &Database) -> Database {
    let mut out = Database::new();
    for (pred, rel) in db.iter() {
        out.declare(pred.clone(), rel.arity()).expect("fresh name");
        out.insert_all(pred.clone(), rel.iter().cloned())
            .expect("one arity per relation");
    }
    out
}

fn a_write_shows_in_the_next_evaluation_only(runtime: RuntimeKind) {
    for (w, base) in workloads() {
        let ctx = format!("{} {runtime:?}", w.name);
        let subject = w
            .program
            .query_rules()
            .next()
            .and_then(|q| q.body[0].terms[0].as_const().copied())
            .expect("the canonical queries bind their first argument");
        let mut db = w.db.clone();
        let before = engine(&w.program, db.clone(), runtime);
        let first = run(&ctx, &before).answers.sorted_rows();
        assert_eq!(first, oracle(&w.program, &db), "{ctx}: before the write");

        assert!(db
            .insert(base, tuple![subject, 1_000_000])
            .expect("arity 2"));
        let second = run(&ctx, &engine(&w.program, db.clone(), runtime))
            .answers
            .sorted_rows();
        assert_eq!(second, oracle(&w.program, &db), "{ctx}: after the write");
        assert!(second.contains(&tuple![1_000_000]) && !first.contains(&tuple![1_000_000]));
        // The engine built before the write still reads its snapshot, and
        // so does the workload's own database the clone was taken from.
        assert_eq!(run(&ctx, &before).answers.sorted_rows(), first, "{ctx}");
        assert_eq!(oracle(&w.program, &w.db), first, "{ctx}: the source");
    }
}

// One test per (runtime, property), named by runtime so the TSan job can
// select the pool's.

#[test]
fn sim_a_write_shows_in_the_next_evaluation_only() {
    a_write_shows_in_the_next_evaluation_only(SIM);
}

#[test]
fn pool_a_write_shows_in_the_next_evaluation_only() {
    a_write_shows_in_the_next_evaluation_only(POOL);
}

/// First-use catalogue fill under contention: two pool-runtime engines on
/// clones of one cold database start together, so their front ends ask
/// the same relations for the same summaries and indexes at once.
#[test]
fn pool_engines_fill_a_cold_catalogue_concurrently() {
    for (w, _) in workloads() {
        let expected = oracle(&w.program, &w.db);
        let cold = rebuilt(&w.db);
        let start = Barrier::new(2);
        let answers: Vec<Vec<Tuple>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let engine = engine(&w.program, cold.clone(), POOL);
                    let (name, start) = (&w.name, &start);
                    s.spawn(move || {
                        start.wait();
                        run(name, &engine).answers.sorted_rows()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluation thread panicked"))
                .collect()
        });
        for a in answers {
            assert_eq!(a, expected, "{}", w.name);
        }
    }
}
