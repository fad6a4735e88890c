//! One op, two spellings: the public `Engine::evaluate` path that the
//! timed passes measure, and the same pipeline decomposed into public
//! calls with a span around each layer for the traced pass.

use crate::span::Tracer;
use crate::workloads::{tail, Query, Workload};
use mp_datalog::parser::parse_program;
use mp_datalog::Database;
use mp_engine::node::{Network, ShardPlan};
use mp_engine::runtime::{SimRuntime, ThreadRuntime};
use mp_engine::{CancelToken, Engine, FaultPlan, QueryBudget, Schedule, Stats};
use mp_storage::{Relation, Tuple};
use std::time::Instant;

/// What one query evaluation produced, in either spelling.
pub struct Outcome {
    pub rows: Vec<Tuple>,
    pub stats: Stats,
    pub graph_nodes: usize,
    pub engine_ends: u64,
    pub post_end_answers: u64,
}

/// The counters that must repeat exactly for a given seed: answers and
/// the schedule-invariant logical traffic and work (Thm 4.1), the graph
/// size (Thm 2.1), and — on the simulator, where delivery order is
/// fixed — the physical frame count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Deterministic {
    pub answers: u64,
    pub logical_tuple_requests: u64,
    pub logical_answers: u64,
    pub logical_end_tuple_requests: u64,
    pub stored_tuples: u64,
    pub join_probes: u64,
    pub physical_frames: Option<u64>,
    pub rulegoal_nodes: u64,
}

impl Deterministic {
    /// The sum of no ops. (`Default` has no frame count at all, which
    /// is what a sum that includes a worker-pool op decays to.)
    pub fn zero() -> Deterministic {
        Deterministic {
            physical_frames: Some(0),
            ..Deterministic::default()
        }
    }

    pub fn add(&mut self, other: &Deterministic) {
        self.answers += other.answers;
        self.logical_tuple_requests += other.logical_tuple_requests;
        self.logical_answers += other.logical_answers;
        self.logical_end_tuple_requests += other.logical_end_tuple_requests;
        self.stored_tuples += other.stored_tuples;
        self.join_probes += other.join_probes;
        self.physical_frames = match (self.physical_frames, other.physical_frames) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
        self.rulegoal_nodes += other.rulegoal_nodes;
    }

    fn of(w: Workload, out: &Outcome) -> Deterministic {
        Deterministic {
            answers: out.rows.len() as u64,
            logical_tuple_requests: out.stats.logical_tuple_requests,
            logical_answers: out.stats.logical_answers,
            logical_end_tuple_requests: out.stats.logical_end_tuple_requests,
            stored_tuples: out.stats.stored_tuples,
            join_probes: out.stats.join_probes,
            physical_frames: w.workers().is_none().then(|| out.stats.total_messages()),
            rulegoal_nodes: out.graph_nodes as u64,
        }
    }
}

/// The seven logical counters the decomposed pipeline must share with
/// `Engine::evaluate`.
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

/// The result of one op (all queries of one variant).
pub struct OpResult {
    pub wall_ms: f64,
    /// Why the op counts as failed: a typed engine error, an answer that
    /// disagrees with the oracle, or a broken Thm 3.1 observable.
    pub error: Option<String>,
    pub deterministic: Deterministic,
    /// Counters summed over the op's queries (from `Engine::evaluate`).
    pub stats: Stats,
    pub facts_parsed: u64,
}

fn new_engine(w: Workload, q: &Query, dbs: &[Database]) -> Result<Engine, String> {
    let program = parse_program(&q.text).map_err(|e| e.to_string())?;
    Ok(w.configure(Engine::new(program, dbs[q.db].clone())))
}

/// The EDB as the engine sees it for `q`: inline facts loaded.
pub fn loaded_database(w: Workload, q: &Query, dbs: &[Database]) -> Result<Database, String> {
    Ok(new_engine(w, q, dbs)?.database().clone())
}

/// The op as a user runs it: parse → `Engine::new` → `evaluate` →
/// `sorted_rows`.
fn evaluate(w: Workload, q: &Query, dbs: &[Database], trace: bool) -> Result<Outcome, String> {
    let out = new_engine(w, q, dbs)?
        .with_trace(trace)
        .evaluate()
        .map_err(|e| e.to_string())?;
    Ok(Outcome {
        rows: out.answers.sorted_rows(),
        stats: out.stats,
        graph_nodes: out.graph_nodes,
        engine_ends: out.engine_ends,
        post_end_answers: out.post_end_answers,
    })
}

/// Check one outcome against the oracle and Thm 3.1.
fn verify(q: &Query, out: &Outcome) -> Result<(), String> {
    if out.rows != q.reference {
        return Err(format!(
            "{} answers, oracle has {}, on:\n{}",
            out.rows.len(),
            q.reference.len(),
            tail(&q.text)
        ));
    }
    if out.engine_ends != 1 || out.post_end_answers != 0 {
        return Err(format!(
            "Thm 3.1 broken: engine_ends = {}, post_end_answers = {}",
            out.engine_ends, out.post_end_answers
        ));
    }
    Ok(())
}

/// Fold per-query outcomes (already timed) into the op's result.
fn conclude(
    w: Workload,
    variant: &[Query],
    wall_ms: f64,
    outcomes: Vec<Result<Outcome, String>>,
) -> OpResult {
    let mut op = OpResult {
        wall_ms,
        error: None,
        deterministic: Deterministic::zero(),
        stats: Stats::default(),
        facts_parsed: 0,
    };
    for (q, outcome) in variant.iter().zip(outcomes) {
        let checked = outcome.and_then(|out| verify(q, &out).map(|()| out));
        match checked {
            Ok(out) => {
                op.deterministic.add(&Deterministic::of(w, &out));
                op.stats.merge(&out.stats);
            }
            Err(e) => op.error = op.error.or(Some(e)),
        }
    }
    op
}

/// Run one op with tracing off. Only the evaluation is timed; checking
/// the answers happens after the clock stops.
pub fn run_op(w: Workload, variant: &[Query], dbs: &[Database], mptrace: bool) -> OpResult {
    let start = Instant::now();
    let outcomes: Vec<_> = variant
        .iter()
        .map(|q| evaluate(w, q, dbs, mptrace))
        .collect();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    conclude(w, variant, wall_ms, outcomes)
}

/// Compile the network the way `Engine::evaluate` does for an unsharded
/// run: shard plan from the partition-key analysis, batching at engine
/// defaults (off, flush bound 64).
fn network_of(engine: &Engine, graph: &mp_rulegoal::RuleGoalGraph) -> Network {
    let parts = mp_analyze::plan::partition_keys(graph);
    let plan = ShardPlan {
        shards: 1,
        fan_out: mp_analyze::shard_fan_outs(graph, &parts, 1),
    };
    let mut network = Network::compile_sharded(graph, engine.database(), &plan);
    network.set_batching(false);
    network.set_batch_max(64);
    network
}

struct RunOut {
    answers: Relation,
    stats: Stats,
    engine_ends: u64,
    post_end_answers: u64,
}

/// Run a compiled network on the simulator (FIFO) or the worker pool,
/// built from `QueryBudget::default()` exactly as the engine does.
fn run_network(
    workers: Option<usize>,
    fault_plan: Option<FaultPlan>,
    mut network: Network,
) -> Result<RunOut, String> {
    let budget = QueryBudget::default();
    match workers {
        None => SimRuntime {
            schedule: Schedule::Fifo,
            max_steps: budget.max_steps,
            trace: false,
            fault_plan,
            recovery: true,
            budget,
            cancel: CancelToken::default(),
        }
        .run(&mut network)
        .map(|o| RunOut {
            answers: o.answers,
            stats: o.stats,
            engine_ends: o.engine_ends,
            post_end_answers: o.post_end_answers,
        }),
        Some(workers) => ThreadRuntime {
            timeout: budget.deadline,
            fault_plan,
            recovery: true,
            trace: false,
            workers,
            budget,
            cancel: CancelToken::default(),
        }
        .run(network)
        .map(|o| RunOut {
            answers: o.answers,
            stats: o.stats,
            engine_ends: o.engine_ends,
            post_end_answers: o.post_end_answers,
        }),
    }
    .map_err(|e| e.to_string())
}

/// One query through the decomposed pipeline, a span per layer.
fn traced_query(
    w: Workload,
    q: &Query,
    dbs: &[Database],
    tr: &mut Tracer,
    facts_parsed: &mut u64,
) -> Result<Outcome, String> {
    let program = tr
        .span("datalog.parse", || parse_program(&q.text))
        .map_err(|e| e.to_string())?;
    *facts_parsed += program.facts.len() as u64;
    let db = tr.span("datalog.db_clone", || dbs[q.db].clone());
    let engine = tr.span("engine.new", || w.configure(Engine::new(program, db)));
    if w.staged() {
        let out = tr
            .span("engine.evaluate", || engine.evaluate())
            .map_err(|e| e.to_string())?;
        return Ok(Outcome {
            rows: tr.span("engine.collect", || out.answers.sorted_rows()),
            stats: out.stats,
            graph_nodes: out.graph_nodes,
            engine_ends: out.engine_ends,
            post_end_answers: out.post_end_answers,
        });
    }
    let compiled = tr
        .span("engine.compile", || engine.compile())
        .map_err(|e| e.to_string())?;
    let network = tr.span("node.network_compile", || {
        network_of(&engine, &compiled.graph)
    });
    let run = tr.span("runtime.run", || {
        run_network(w.workers(), w.fault_plan(), network)
    })?;
    Ok(Outcome {
        rows: tr.span("engine.collect", || run.answers.sorted_rows()),
        stats: run.stats,
        graph_nodes: compiled.graph.len(),
        engine_ends: run.engine_ends,
        post_end_answers: run.post_end_answers,
    })
}

/// Run one op in the traced pass: the decomposed pipeline under an `op`
/// span, then — outside it, as an `engine.evaluate` probe span — the
/// public path on the same inputs, which must return the same answers
/// and the same seven logical counters.
pub fn run_op_traced(
    w: Workload,
    variant: &[Query],
    dbs: &[Database],
    tr: &mut Tracer,
) -> OpResult {
    let mut facts_parsed = 0;
    let op = tr.enter("op");
    let start = Instant::now();
    let mut outcomes: Vec<_> = variant
        .iter()
        .map(|q| traced_query(w, q, dbs, tr, &mut facts_parsed))
        .collect();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    tr.exit(op);

    if !w.staged() {
        for (q, outcome) in variant.iter().zip(outcomes.iter_mut()) {
            let public = tr.span("engine.evaluate", || evaluate(w, q, dbs, false));
            let agreed = match (&*outcome, public) {
                (Err(_), _) => continue,
                (Ok(_), Err(e)) => Err(format!("evaluate() failed where the pipeline ran: {e}")),
                (Ok(mine), Ok(theirs))
                    if mine.rows != theirs.rows
                        || logical_counters(&mine.stats) != logical_counters(&theirs.stats) =>
                {
                    Err(format!(
                        "decomposed pipeline diverges from evaluate(): {} vs {} answers, \
                         counters {:?} vs {:?}",
                        mine.rows.len(),
                        theirs.rows.len(),
                        logical_counters(&mine.stats),
                        logical_counters(&theirs.stats)
                    ))
                }
                // Report `evaluate`'s stats: they carry the counters the
                // engine sets itself (pruning, strata).
                (Ok(_), Ok(theirs)) => Ok(theirs),
            };
            *outcome = agreed;
        }
    }
    let mut result = conclude(w, variant, wall_ms, outcomes);
    result.facts_parsed = facts_parsed;
    result
}

/// Front-end passes called standalone on one op's inputs, as probe
/// spans outside any op: the parts `Engine::compile` is made of.
pub fn front_end_probes(
    w: Workload,
    variant: &[Query],
    dbs: &[Database],
    tr: &mut Tracer,
) -> Result<(), String> {
    for q in variant {
        let engine = new_engine(w, q, dbs)?;
        let (program, db) = (engine.program(), engine.database());
        tr.span("lint.program", || {
            mp_lint::program::lint_program(program, Some(db), None)
        });
        tr.span("analyze.stratify", || mp_analyze::stratify(program, None));
        let graph = tr
            .span("rulegoal.build", || {
                mp_rulegoal::RuleGoalGraph::build(program, db, mp_rulegoal::SipKind::Greedy)
            })
            .map_err(|e| e.to_string())?;
        tr.span("lint.graph", || {
            let mut diags = mp_lint::graph::lint_graph(&graph);
            diags.extend(mp_lint::protocol::lint_protocol(
                &mp_lint::protocol::ProtocolView::of(&graph),
            ));
            diags
        });
        tr.span("analyze.analyze", || {
            mp_analyze::analyze(
                program,
                db,
                &graph,
                None,
                &mp_analyze::AnalyzeOptions::default(),
            )
        });
        if w.staged() {
            // Inside an op this would be counted twice: `evaluate` runs
            // its own compile as the staged pipeline's static gate.
            tr.span("engine.compile", || engine.compile())
                .map_err(|e| e.to_string())?;
        }
        if w.fault_plan().is_some() {
            // The same network on the clean transport, to price the
            // recovery transport as a difference of two measured runs.
            let compiled = engine.compile().map_err(|e| e.to_string())?;
            let network = network_of(&engine, &compiled.graph);
            tr.span("runtime.run_clean", || {
                run_network(w.workers(), None, network)
            })?;
        }
    }
    Ok(())
}
