//! The top-level query evaluation API.

use crate::fault::FaultPlan;
use crate::node::{Network, ShardPlan};
use crate::runtime::{CancelToken, QueryBudget, RuntimeError, Schedule, SimRuntime, ThreadRuntime};
use crate::stats::Stats;
use mp_datalog::analysis::DependencyAnalysis;
use mp_datalog::{Atom, Database, DatalogError, Predicate, Program, Rule, Term, Var};
use mp_lint::protocol::ProtocolView;
use mp_lint::Diagnostic;
use mp_rulegoal::{GraphError, RuleGoalGraph, SipKind};
use mp_storage::{AggError, Relation, Tuple};
use std::collections::BTreeSet;
use std::time::Instant;

/// Which runtime executes the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Deterministic single-threaded simulation with the given schedule.
    Sim(Schedule),
    /// A fixed-size worker pool with work-stealing activation deques
    /// over per-node mailboxes (sized by [`Engine::with_workers`]).
    Threads,
}

/// Errors from engine construction or evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Static verification rejected the program or a compiled artifact.
    /// Holds *all* diagnostics from the run (at least one deny-level),
    /// sorted by (code, location).
    Lint(Vec<Diagnostic>),
    /// Program/graph construction failure.
    Graph(GraphError),
    /// Runtime failure.
    Runtime(RuntimeError),
    /// An aggregate fold failed while materializing a stratum (sum/min/
    /// max over a symbol, or an i64 overflow).
    Aggregate(AggError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Lint(diags) => {
                let denies = diags.iter().filter(|d| d.is_deny()).count();
                write!(f, "static verification failed with {denies} error(s)")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            EngineError::Graph(e) => write!(f, "{e}"),
            EngineError::Runtime(e) => write!(f, "{e}"),
            EngineError::Aggregate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<GraphError> for EngineError {
    fn from(e: GraphError) -> Self {
        EngineError::Graph(e)
    }
}

impl From<DatalogError> for EngineError {
    fn from(e: DatalogError) -> Self {
        EngineError::Graph(GraphError::Datalog(e))
    }
}

impl From<RuntimeError> for EngineError {
    fn from(e: RuntimeError) -> Self {
        EngineError::Runtime(e)
    }
}

impl From<AggError> for EngineError {
    fn from(e: AggError) -> Self {
        EngineError::Aggregate(e)
    }
}

/// A statically verified, compiled query: the rule/goal graph plus any
/// advisory diagnostics that survived the deny gate.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The verified rule/goal graph — with provably-dead rules and their
    /// unreachable subtrees already pruned when analysis is enabled.
    pub graph: RuleGoalGraph,
    /// Warn-level diagnostics (e.g. unreachable predicates, singleton
    /// variables, MP4xx analysis findings). Never contains a deny-level
    /// entry.
    pub warnings: Vec<Diagnostic>,
    /// The abstract-interpretation analysis over the *unpruned* graph:
    /// per-node cardinality/volume estimates and partition keys (the
    /// `mpq --explain` payload).
    pub analysis: mp_analyze::Analysis,
    /// Nodes removed from the graph by analysis pruning (0 when analysis
    /// is disabled or nothing was dead).
    pub pruned_nodes: usize,
    /// Rule nodes among [`Compiled::pruned_nodes`].
    pub pruned_rules: usize,
    /// The stratum assignment the MP009/MP010 gate inferred (a single
    /// stratum for a negation-free, aggregate-free program); staged
    /// evaluation walks it.
    pub strata: mp_analyze::StratumPlan,
}

/// The result of evaluating a query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The `goal` relation: all tuples `t` with `goal(t)` in the minimum
    /// model (§1).
    pub answers: Relation,
    /// Instrumentation.
    pub stats: Stats,
    /// Rule/goal graph size (nodes) — Thm 2.1's observable.
    pub graph_nodes: usize,
    /// Clock-stamped event trace, when tracing was enabled (either
    /// runtime): the input to `mp_trace::check` offline verification and
    /// to [`Engine::replay`].
    pub events: Option<mp_trace::Trace>,
    /// `End` messages delivered to the engine — exactly 1 on a correct
    /// run (Thm 3.1), also under faults.
    pub engine_ends: u64,
    /// Answers delivered after the final `End` — always 0 on a correct
    /// run (Thm 3.1), also under faults.
    pub post_end_answers: u64,
}

/// The message-passing query engine.
///
/// ```
/// use mp_engine::Engine;
/// use mp_datalog::{parser::parse_program, Database};
/// use mp_storage::tuple;
///
/// let program = parse_program(
///     "path(X, Y) :- edge(X, Y).
///      path(X, Z) :- path(X, Y), edge(Y, Z).
///      ?- path(1, Z).",
/// ).unwrap();
/// let mut db = Database::new();
/// db.insert("edge", tuple![1, 2]).unwrap();
/// db.insert("edge", tuple![2, 3]).unwrap();
///
/// let result = Engine::new(program, db).evaluate().unwrap();
/// assert_eq!(result.answers.sorted_rows(), vec![tuple![2], tuple![3]]);
/// ```
///
/// An engine owns a snapshot of the database it was given, and
/// `Database::clone` is O(relations): to query one loaded database many
/// times, build each engine from `db.clone()`. The clones share the rows
/// and the column statistics and leaf indexes computed by the first
/// query; a later write to the caller's database copies only the relation
/// it touches and leaves every engine's snapshot as it was.
#[derive(Clone, Debug)]
pub struct Engine {
    program: Program,
    db: Database,
    sip: SipKind,
    runtime: RuntimeKind,
    budget: QueryBudget,
    cancel: CancelToken,
    trace: bool,
    fault_plan: Option<FaultPlan>,
    recovery: bool,
    workers: usize,
    analysis: bool,
    shards: usize,
}

impl Engine {
    /// Create an engine with defaults: greedy SIP, deterministic FIFO
    /// simulation.
    pub fn new(program: Program, mut db: Database) -> Engine {
        // Inline facts in the program text belong to the EDB.
        let _ = program.load_facts(&mut db);
        Engine {
            program,
            db,
            sip: SipKind::Greedy,
            runtime: RuntimeKind::Sim(Schedule::Fifo),
            budget: QueryBudget::default(),
            cancel: CancelToken::default(),
            trace: false,
            fault_plan: None,
            recovery: true,
            workers: 0,
            analysis: true,
            shards: 1,
        }
    }

    /// Replicate every request-keyed node `K` ways (default 1: no
    /// sharding). Each eligible goal node — one whose partition verdict
    /// is `Key(cols)` and whose every tuple request carries the full key
    /// — is compiled into `K` shard instances; requests and head answers
    /// route to the owning instance by a deterministic hash of the
    /// partition-key columns, so both runtimes route identically.
    /// `Gather`/`Singleton` nodes, rule nodes, and SCC leaders stay
    /// single-instance. Sharding is answer-invariant: for every workload
    /// and `K`, answers and logical message counts are bit-identical to
    /// `with_shards(1)`.
    pub fn with_shards(mut self, shards: usize) -> Engine {
        self.shards = shards.max(1);
        self
    }

    /// Enable or disable abstract-interpretation analysis pruning
    /// (default: enabled). With analysis off, `compile` still runs the
    /// analysis passes for their annotations and MP4xx warnings but
    /// evaluates the unpruned graph — pruning on and off must produce
    /// bit-identical answers (the analysis soundness property).
    pub fn with_analysis(mut self, analysis: bool) -> Engine {
        self.analysis = analysis;
        self
    }

    /// Choose the sideways information passing strategy.
    pub fn with_sip(mut self, sip: SipKind) -> Engine {
        self.sip = sip;
        self
    }

    /// Choose the runtime.
    pub fn with_runtime(mut self, runtime: RuntimeKind) -> Engine {
        self.runtime = runtime;
        self
    }

    /// Set the full resource budget: step guard, wall-clock deadline,
    /// logical-message and memory high-water limits, and the per-node
    /// mailbox bound that drives credit-based backpressure. Crossing the
    /// message or memory limit runs a cancel drain wave and returns
    /// [`RuntimeError::BudgetExceeded`] carrying the partial answers and
    /// per-node accounting; the step guard and deadline keep their
    /// historical errors ([`RuntimeError::Diverged`] /
    /// [`RuntimeError::Timeout`]).
    pub fn with_budget(mut self, budget: QueryBudget) -> Engine {
        self.budget = budget;
        self
    }

    /// The engine's cooperative cancellation handle. Clone it to another
    /// thread and call [`CancelToken::cancel`] to stop a running
    /// evaluation: a cancel wave drains the network and `evaluate`
    /// returns [`RuntimeError::Cancelled`] with the partial answers.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Size the threaded runtime's worker pool. `0` (the default) sizes
    /// it to `std::thread::available_parallelism`; the pool is never
    /// larger than the graph's node count. Ignored by the simulator.
    pub fn with_workers(mut self, workers: usize) -> Engine {
        self.workers = workers;
        self
    }

    /// Record the clock-stamped event trace ([`QueryResult::events`]) on
    /// either runtime. Off by default — the untraced path
    /// skips every recording branch.
    pub fn with_trace(mut self, trace: bool) -> Engine {
        self.trace = trace;
        self
    }

    /// Inject faults: wrap every link in the given seeded, deterministic
    /// fault plan and route all traffic through the self-healing
    /// transport (sequence numbers, acks, retransmission, log-replay
    /// crash recovery). With no plan, evaluation runs the pristine 1986
    /// channel model with zero transport overhead.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Engine {
        self.fault_plan = Some(plan);
        self
    }

    /// Enable or disable crash recovery (default: enabled). With
    /// recovery disabled, a fault-plan crash aborts evaluation with
    /// [`RuntimeError::LinkDown`] instead of replaying the node's log.
    pub fn with_recovery(mut self, recovery: bool) -> Engine {
        self.recovery = recovery;
        self
    }

    /// The program under evaluation.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The EDB.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Build the rule/goal graph (exposed for inspection and for the
    /// graph-size experiment E8).
    pub fn build_graph(&self) -> Result<RuleGoalGraph, EngineError> {
        Ok(RuleGoalGraph::build(&self.program, &self.db, self.sip)?)
    }

    /// Statically verify and compile the program: run the program lints
    /// against the EDB, build the rule/goal graph, then run the graph and
    /// protocol lints over the compiled artifact. Any deny-level
    /// diagnostic aborts with [`EngineError::Lint`] — compilation returns
    /// typed errors, never panics. Surviving warnings ride along in
    /// [`Compiled::warnings`].
    pub fn compile(&self) -> Result<Compiled, EngineError> {
        let mut diags = mp_lint::program::lint_program(&self.program, Some(&self.db), None);
        // Stratum inference gates alongside the rule-local lints: an
        // unstratifiable program (MP009/MP010) has no perfect model to
        // evaluate, so it is rejected here with the same typed error.
        let (strata, strat) = mp_analyze::stratify(&self.program, None);
        diags.extend(strat);
        mp_lint::sort_diagnostics(&mut diags);
        if diags.iter().any(Diagnostic::is_deny) {
            return Err(EngineError::Lint(diags));
        }
        // The deny-level program lints subsume `validate`, so `build`
        // only fails on resource limits past this point.
        let graph = self.build_graph()?;
        // Defense in depth: the compiled artifact itself must satisfy the
        // paper's structural theorems. On a correct compiler these passes
        // are silent; a regression surfaces as a typed error here instead
        // of a wrong answer or a hang at runtime.
        diags.extend(mp_lint::graph::lint_graph(&graph));
        diags.extend(mp_lint::protocol::lint_protocol(&ProtocolView::of(&graph)));
        // MP106 is deployment advice (graph size vs this machine's
        // hardware threads → the --workers knob), not an artifact check,
        // so it lives here rather than in `lint_graph`.
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        diags.extend(mp_lint::graph::lint_parallelism(graph.len(), parallelism));
        // MP107 likewise: whether this *run* is resource-governed is
        // engine configuration, not an artifact property.
        let recursive = graph.scc().nontrivial_components().next().is_some();
        let has_resource_budget =
            self.budget.max_messages.is_some() || self.budget.max_bytes.is_some();
        diags.extend(mp_lint::graph::lint_budget(
            graph.len(),
            recursive,
            has_resource_budget,
            self.budget.mailbox_bound.is_some(),
        ));
        if diags.iter().any(Diagnostic::is_deny) {
            mp_lint::sort_diagnostics(&mut diags);
            return Err(EngineError::Lint(diags));
        }

        // Abstract interpretation over the verified artifact: sort
        // inference, dead-rule detection, cardinality/partition planning.
        // Its MP4xx findings are all warnings and ride along with the
        // lint output.
        let analysis = mp_analyze::analyze(
            &self.program,
            &self.db,
            &graph,
            None,
            &mp_analyze::AnalyzeOptions::default(),
        );
        diags.extend(analysis.diagnostics.iter().cloned());
        mp_lint::sort_diagnostics(&mut diags);

        // Apply the pruning for real: dead rules and their unreachable
        // subtrees never become network nodes. Soundness rests on the
        // sort abstraction over-approximating the least model; the
        // re-lint below is defense in depth — the pruned artifact must
        // still satisfy the structural and protocol theorems.
        let (graph, pruned_nodes, pruned_rules) = match self
            .analysis
            .then(|| analysis.pruned_graph(&graph))
            .flatten()
        {
            Some(pruned) => {
                let mut post = mp_lint::graph::lint_graph(&pruned);
                post.extend(mp_lint::protocol::lint_protocol(&ProtocolView::of(&pruned)));
                // Warn-level findings on the pruned graph are re-runs of
                // advice already reported above; only a deny (a structural
                // theorem violated by `retain`) aborts.
                if post.iter().any(Diagnostic::is_deny) {
                    mp_lint::sort_diagnostics(&mut post);
                    return Err(EngineError::Lint(post));
                }
                (pruned, analysis.pruned_nodes, analysis.pruned_rules)
            }
            None => (graph, 0, 0),
        };
        // MP108 is checked against the *final* (post-pruning) artifact —
        // the same graph the shard plan is built from — so the warning
        // tracks what evaluation will actually do, not what analysis saw
        // before dead rules were removed.
        if self.shards > 1 {
            let parts = mp_analyze::plan::partition_keys(&graph);
            let any_fan_out = mp_analyze::shard_fan_outs(&graph, &parts, self.shards)
                .iter()
                .any(|&f| f > 1);
            diags.extend(mp_lint::graph::lint_sharding(self.shards, any_fan_out));
            mp_lint::sort_diagnostics(&mut diags);
        }
        Ok(Compiled {
            graph,
            warnings: diags,
            analysis,
            pruned_nodes,
            pruned_rules,
            strata,
        })
    }

    /// Build the shard plan for a compiled (post-pruning) graph: the
    /// per-node fan-out from the partition-key analysis of the final
    /// artifact, clamped to 1 for every node the router cannot key.
    fn shard_plan(&self, graph: &RuleGoalGraph) -> ShardPlan {
        let parts = mp_analyze::plan::partition_keys(graph);
        ShardPlan {
            shards: self.shards,
            fan_out: mp_analyze::shard_fan_outs(graph, &parts, self.shards),
        }
    }

    /// Evaluate the query.
    ///
    /// A negation-free, aggregate-free program runs as a single
    /// message-passing network. A program that uses `!` or an aggregate
    /// runs as a *pipeline* of such networks, one per stratum of the
    /// [`mp_analyze::StratumPlan`]: each stratum's fixpoint is sealed by
    /// the §3.2 quiescence barrier and its answers become EDB facts for
    /// the strata above it (the perfect-model semantics). One budget
    /// spans all strata; [`Stats::strata_evaluated`] counts the runs.
    pub fn evaluate(&self) -> Result<QueryResult, EngineError> {
        self.run(None)
    }

    /// The flat/staged split behind [`Engine::evaluate`] and
    /// [`Engine::replay`]. `recorded` is a trace's activation order for
    /// the run the trace covers: the only run of a flat program, the
    /// final stratum's of a staged one.
    fn run(&self, recorded: Option<&[u32]>) -> Result<QueryResult, EngineError> {
        if mp_analyze::uses_negation_or_aggregates(&self.program) {
            self.evaluate_staged(recorded)
        } else {
            self.evaluate_direct(recorded)
        }
    }

    /// Evaluate as a single engine run, with negated subgoals compiled
    /// into antijoin filters against the (already materialized) EDB.
    /// With `recorded`, nodes are activated in that order instead of by
    /// the schedule; only [`Engine::replay`] passes one, and it runs the
    /// simulator.
    fn evaluate_direct(&self, recorded: Option<&[u32]>) -> Result<QueryResult, EngineError> {
        let compiled = self.compile()?;
        let graph = compiled.graph;
        let mut network = Network::compile_sharded(&graph, &self.db, &self.shard_plan(&graph));
        let out = match self.runtime {
            RuntimeKind::Sim(schedule) => {
                let sim = SimRuntime {
                    schedule,
                    max_steps: self.budget.max_steps,
                    trace: self.trace,
                    fault_plan: self.fault_plan.clone(),
                    recovery: self.recovery,
                    budget: self.budget.clone(),
                    cancel: self.cancel.clone(),
                };
                match recorded {
                    None => sim.run(&mut network)?,
                    Some(activations) => {
                        sim.run_replay(&mut network, std::iter::once(Tuple::unit()), activations)?
                    }
                }
            }
            RuntimeKind::Threads => {
                debug_assert!(
                    recorded.is_none(),
                    "a recorded schedule replays on the simulator"
                );
                let rt = ThreadRuntime {
                    timeout: self.budget.deadline,
                    fault_plan: self.fault_plan.clone(),
                    recovery: self.recovery,
                    trace: self.trace,
                    workers: self.workers,
                    budget: self.budget.clone(),
                    cancel: self.cancel.clone(),
                };
                rt.run(network)?
            }
        };
        let mut stats = out.stats;
        stats.pruned_nodes = compiled.pruned_nodes as u64;
        stats.pruned_rules = compiled.pruned_rules as u64;
        stats.strata_evaluated = 1;
        Ok(QueryResult {
            answers: out.answers,
            stats,
            graph_nodes: graph.len(),
            events: out.events,
            engine_ends: out.engine_ends,
            post_end_answers: out.post_end_answers,
        })
    }

    /// A clone of this engine pointed at a sub-program over the staged
    /// working database, with whatever budget is left for the pipeline.
    fn sub_engine(&self, program: Program, db: &Database, budget: QueryBudget) -> Engine {
        let mut sub = self.clone();
        sub.program = program;
        sub.db = db.clone();
        sub.budget = budget;
        sub
    }

    /// The budget remaining after `spent`, for the next pipeline run:
    /// the wall-clock deadline shrinks by elapsed time, the step and
    /// logical-message budgets by what earlier strata consumed — so one
    /// budget spans the whole pipeline and a runaway stratum trips the
    /// same typed errors a flat run would.
    fn remaining_budget(&self, started: Instant, spent: &Stats) -> QueryBudget {
        let mut b = self.budget.clone();
        b.max_steps = b.max_steps.saturating_sub(spent.messages_processed);
        b.deadline = b.deadline.saturating_sub(started.elapsed());
        b.max_messages = b
            .max_messages
            .map(|m| m.saturating_sub(spent.logical_messages()));
        b
    }

    /// Evaluate stratum by stratum (the staged pipeline).
    ///
    /// Stratum `s` runs as ordinary engine evaluations over a working
    /// database holding the strata below it: aggregate predicates of the
    /// stratum are materialized first (their bodies are strictly
    /// lower-stratum, so the fold sees complete extensions), then every
    /// stratum-`s` predicate some higher stratum reads is materialized
    /// through a synthesized `goal(V..) :- p(V..)` query. The final
    /// stratum is the original query; its result carries the merged
    /// stats of the whole pipeline. Traces and events, when enabled,
    /// cover the final stratum's run — the one `recorded` drives.
    fn evaluate_staged(&self, recorded: Option<&[u32]>) -> Result<QueryResult, EngineError> {
        let started = Instant::now();
        // Full-program static gate: MP0xx program lints, MP009–MP012,
        // graph/protocol lints, and the analysis warnings.
        let plan = self.compile()?.strata;

        let deps = DependencyAnalysis::of(&self.program);
        let relevant = deps.relevant_to_goal();
        let goal_stratum = plan.stratum(&Program::goal_pred());
        let mut working_db = self.db.clone();
        let mut spent = Stats::default();

        for s in 0..=goal_stratum {
            // Aggregate predicates of this stratum first: same-stratum
            // rules may read them positively, and MP010 guarantees their
            // bodies look strictly down.
            for r in self.program.rules.iter().filter(|r| {
                r.agg.is_some()
                    && plan.stratum(&r.head.pred) == s
                    && relevant.contains(&r.head.pred)
            }) {
                let (stats, tuples) =
                    self.materialize_aggregate(r, &working_db, started, &spent)?;
                spent.merge(&stats);
                working_db.insert_all(r.head.pred.clone(), tuples)?;
            }

            // The stratum's ordinary rules (aggregate rules became EDB
            // facts above; lower strata were materialized earlier).
            let stratum_rules: Vec<Rule> = self
                .program
                .rules
                .iter()
                .filter(|r| r.agg.is_none() && plan.stratum(&r.head.pred) == s)
                .cloned()
                .collect();

            if s == goal_stratum {
                let sub = Program {
                    rules: stratum_rules,
                    facts: Vec::new(),
                };
                let eng = self.sub_engine(sub, &working_db, self.remaining_budget(started, &spent));
                let mut out = eng.evaluate_direct(recorded)?;
                out.stats.merge(&spent);
                // The query's answers arrive after every lower stage's
                // traffic.
                let s = &mut out.stats;
                for at in [
                    &mut s.first_answer_at,
                    &mut s.median_answer_at,
                    &mut s.last_answer_at,
                ] {
                    if *at > 0 {
                        *at += spent.logical_messages();
                    }
                }
                return Ok(out);
            }

            // Materialize every stratum-`s` predicate a higher stratum
            // reads (positively or under negation) into the working EDB.
            let defined_here: BTreeSet<&Predicate> =
                stratum_rules.iter().map(|r| &r.head.pred).collect();
            let mut needed: Vec<(Predicate, usize)> = Vec::new();
            for r in &self.program.rules {
                if plan.stratum(&r.head.pred) <= s {
                    continue;
                }
                for a in r.body.iter().chain(r.neg.iter()) {
                    if defined_here.contains(&a.pred)
                        && relevant.contains(&a.pred)
                        && !needed.iter().any(|(p, _)| *p == a.pred)
                    {
                        needed.push((a.pred.clone(), a.terms.len()));
                    }
                }
            }
            needed.sort();
            // Every needed predicate is computed from the same sealed
            // snapshot; answers land in the working EDB only once the
            // stratum is done. Inserting mid-stratum would make an
            // already-materialized predicate EDB *and* IDB for its
            // siblings' runs — exactly the §1 overlap compile() denies.
            let mut sealed: Vec<(Predicate, Vec<Tuple>)> = Vec::new();
            for (pred, arity) in needed {
                let vars: Vec<Term> = (0..arity)
                    .map(|i| Term::Var(Var::new(format!("V{i}"))))
                    .collect();
                let query = Rule::new(
                    Atom::new(Program::goal_pred(), vars.clone()),
                    vec![Atom::new(pred.clone(), vars)],
                );
                let mut rules = stratum_rules.clone();
                rules.push(query);
                let sub = Program {
                    rules,
                    facts: Vec::new(),
                };
                let eng = self
                    .sub_engine(sub, &working_db, self.remaining_budget(started, &spent))
                    .with_trace(false);
                let out = eng.evaluate_direct(None)?;
                spent.merge(&out.stats);
                sealed.push((pred, out.answers.iter().cloned().collect()));
            }
            for (pred, tuples) in sealed {
                working_db.insert_all(pred, tuples)?;
            }
        }
        unreachable!("the final stratum returns above");
    }

    /// Materialize one aggregate rule over the working database: run its
    /// body as a plain query exposing the head's variables, then fold
    /// with the shared aggregate kernel. Returns the sub-run's stats and
    /// the full-arity head tuples (constants re-inserted, the fold value
    /// at the aggregate position).
    fn materialize_aggregate(
        &self,
        r: &Rule,
        db: &Database,
        started: Instant,
        spent: &Stats,
    ) -> Result<(Stats, Vec<Tuple>), EngineError> {
        let agg = r.agg.as_ref().expect("caller filters on aggregate rules");
        // Distinct head variables in first-occurrence order — the
        // grouping keys plus the fold variable (MP012 keeps them apart).
        let mut head_vars: Vec<Var> = Vec::new();
        for t in &r.head.terms {
            if let Term::Var(v) = t {
                if !head_vars.contains(v) {
                    head_vars.push(v.clone());
                }
            }
        }
        let mut body_rule = r.clone();
        body_rule.agg = None;
        body_rule.head = Atom::new(
            Program::goal_pred(),
            head_vars.iter().cloned().map(Term::Var).collect(),
        );
        let sub = Program {
            rules: vec![body_rule],
            facts: Vec::new(),
        };
        let out = self
            .sub_engine(sub, db, self.remaining_budget(started, spent))
            .with_trace(false)
            .evaluate_direct(None)?;

        let agg_idx = head_vars
            .iter()
            .position(|v| *v == agg.var)
            .expect("the fold variable appears at the aggregate position");
        let group: Vec<usize> = (0..head_vars.len()).filter(|&i| i != agg_idx).collect();
        let folded = mp_storage::ops::aggregate(&out.answers, &group, agg_idx, agg.func)?;

        let group_vars: Vec<&Var> = group.iter().map(|&i| &head_vars[i]).collect();
        let mut tuples = Vec::with_capacity(folded.len());
        for row in folded.iter() {
            let tuple: Tuple = r
                .head
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(v) if *v == agg.var => row[group_vars.len()],
                    Term::Var(v) => {
                        row[group_vars
                            .iter()
                            .position(|g| *g == v)
                            .expect("grouping variables index the fold output")]
                    }
                })
                .collect();
            tuples.push(tuple);
        }
        Ok((out.stats, tuples))
    }

    /// Deterministically re-execute a recorded run in the simulator,
    /// driving node activation by the trace's delivery order (see
    /// [`mp_trace::Trace::activation_order`]). The replay runs the
    /// pristine channel model — faults from the recorded run are *not*
    /// re-injected, because the trace already reflects the logical
    /// (exactly-once, per-link FIFO) history the recovery transport
    /// enforced. Answers and logical message counters are
    /// schedule-invariant (Thm 3.1/4.1), so a replay of any valid trace
    /// — including one recorded under chaos on the threaded runtime —
    /// reproduces them exactly; the replay's own event trace rides along
    /// in [`QueryResult::events`]. A stratified program's trace covers
    /// its final stratum: the replay materializes the strata below it on
    /// the same simulator and replays the recorded schedule on top.
    pub fn replay(&self, recorded: &mp_trace::Trace) -> Result<QueryResult, EngineError> {
        let mut sim = self.clone();
        sim.runtime = RuntimeKind::Sim(Schedule::Fifo);
        sim.fault_plan = None;
        sim.run(Some(&recorded.activation_order()))
    }
}

/// Convenience: parse, load inline facts, and evaluate with defaults.
pub fn evaluate_str(source: &str) -> Result<QueryResult, EngineError> {
    let program = mp_datalog::parser::parse_program(source)?;
    Engine::new(program, Database::new()).evaluate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datalog::parser::parse_program;
    use mp_storage::{tuple, Tuple};

    fn tc_engine(edges: &[(i64, i64)], from: i64) -> Engine {
        let program = parse_program(&format!(
            "path(X, Y) :- edge(X, Y).
             path(X, Z) :- path(X, Y), edge(Y, Z).
             ?- path({from}, Z)."
        ))
        .unwrap();
        let mut db = Database::new();
        for &(a, b) in edges {
            db.insert("edge", tuple![a, b]).unwrap();
        }
        Engine::new(program, db)
    }

    fn rows(r: &Relation) -> Vec<Tuple> {
        r.sorted_rows()
    }

    #[test]
    fn nonrecursive_join() {
        let out = evaluate_str(
            "parent(\"ann\", \"bob\").
             parent(\"bob\", \"cy\").
             parent(\"ann\", \"abe\").
             grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
             ?- grandparent(\"ann\", Z).",
        )
        .unwrap();
        assert_eq!(rows(&out.answers), vec![tuple!["cy"]]);
    }

    #[test]
    fn linear_transitive_closure_chain() {
        let edges: Vec<(i64, i64)> = (0..10).map(|i| (i, i + 1)).collect();
        let out = tc_engine(&edges, 0).evaluate().unwrap();
        let expect: Vec<Tuple> = (1..=10).map(|i| tuple![i]).collect();
        assert_eq!(rows(&out.answers), expect);
    }

    #[test]
    fn transitive_closure_with_cycle_terminates() {
        // 0→1→2→0 plus 2→3: reachable from 0 = {0,1,2,3}.
        let out = tc_engine(&[(0, 1), (1, 2), (2, 0), (2, 3)], 0)
            .evaluate()
            .unwrap();
        assert_eq!(
            rows(&out.answers),
            vec![tuple![0], tuple![1], tuple![2], tuple![3]]
        );
    }

    #[test]
    fn nonlinear_transitive_closure() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).
             path(X, Z) :- path(X, Y), path(Y, Z).
             ?- path(0, Z).",
        )
        .unwrap();
        let mut db = Database::new();
        for i in 0..6 {
            db.insert("edge", tuple![i, i + 1]).unwrap();
        }
        let out = Engine::new(program, db).evaluate().unwrap();
        let expect: Vec<Tuple> = (1..=6).map(|i| tuple![i]).collect();
        assert_eq!(rows(&out.answers), expect);
    }

    #[test]
    fn paper_p1_program() {
        // P1: p(X,Y) :- p(X,V), q(V,W), p(W,Y);  p(X,Y) :- r(X,Y).
        let program = parse_program(
            "p(X, Y) :- p(X, V), q(V, W), p(W, Y).
             p(X, Y) :- r(X, Y).
             ?- p(1, Z).",
        )
        .unwrap();
        let mut db = Database::new();
        // r: 1→2, 3→4, 4→5;   q: 2→3, 5→6 (q links p-chains).
        for (a, b) in [(1, 2), (3, 4), (4, 5)] {
            db.insert("r", tuple![a, b]).unwrap();
        }
        for (a, b) in [(2, 3), (5, 4)] {
            db.insert("q", tuple![a, b]).unwrap();
        }
        let out = Engine::new(program, db).evaluate().unwrap();
        // p(1,2) via r. p(1,Y) via p(1,2), q(2,3), p(3,Y): p(3,4), p(3,5)
        // (p(3,5) via p(3,4),q? no q(4,·)... p(3,5) needs p(3,V),q(V,W),
        // p(W,5): V=4? q(4,·) empty. So p(3,Y) = {4, 5? via r only: r(3,4),
        // r(4,5) gives p(4,5); p(3,5) via p(3,4),q(4,W)? empty}. Hence
        // p(1,Y) ⊇ {2} ∪ {4}. Also deeper: p(1,5)? needs q chains.
        // The oracle below is the semi-naive fixpoint computed by hand:
        // p = r ∪ {p(x,y) : p(x,v), q(v,w), p(w,y)}:
        //   base: (1,2),(3,4),(4,5)
        //   p(1,·): p(1,2), q(2,3), p(3,4) → p(1,4);
        //           then p(1,4), q? q(4,·) empty.
        //           p(1,2), q(2,3), p(3,·): p(3,4) → (1,4).
        //   p(3,·): p(3,4), q(4,·) empty → nothing new.
        //   p(4,·): p(4,5), q(5,4), p(4,5) → p(4,5) (already).
        // Final: p(1,Z) = {2, 4}.
        assert_eq!(rows(&out.answers), vec![tuple![2], tuple![4]]);
    }

    #[test]
    fn same_generation_nonlinear() {
        let program = parse_program(
            "sg(X, Y) :- flat(X, Y).
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
             ?- sg(\"a\", Y).",
        )
        .unwrap();
        let mut db = Database::new();
        for (a, b) in [("a", "m1"), ("b", "m2")] {
            db.insert("up", tuple![a, b]).unwrap();
        }
        db.insert("flat", tuple!["m1", "m2"]).unwrap();
        for (a, b) in [("m2", "c"), ("m1", "d")] {
            db.insert("down", tuple![a, b]).unwrap();
        }
        let out = Engine::new(program, db).evaluate().unwrap();
        // sg(a,Y): up(a,m1), sg(m1,V), down(V,Y): sg(m1,m2) via flat →
        // down(m2,c) → sg(a,c).
        assert_eq!(rows(&out.answers), vec![tuple!["c"]]);
    }

    #[test]
    fn mutual_recursion() {
        let program = parse_program(
            "odd(X, Y) :- edge(X, Y).
             odd(X, Y) :- edge(X, U), even(U, Y).
             even(X, Y) :- edge(X, U), odd(U, Y).
             ?- odd(0, Z).",
        )
        .unwrap();
        let mut db = Database::new();
        for i in 0..5 {
            db.insert("edge", tuple![i, i + 1]).unwrap();
        }
        let out = Engine::new(program, db).evaluate().unwrap();
        // Nodes at odd distance from 0: 1, 3, 5.
        assert_eq!(rows(&out.answers), vec![tuple![1], tuple![3], tuple![5]]);
    }

    #[test]
    fn empty_edb_yields_empty_answer_and_terminates() {
        let out = tc_engine(&[], 0).evaluate().unwrap();
        assert!(out.answers.is_empty());
    }

    #[test]
    fn no_matching_tuples() {
        let out = tc_engine(&[(5, 6)], 0).evaluate().unwrap();
        assert!(out.answers.is_empty());
    }

    #[test]
    fn constants_in_rule_heads() {
        let out = evaluate_str(
            "e(1). e(2).
             special(1, \"one\") :- e(1).
             special(2, \"two\") :- e(2).
             ?- special(X, N).",
        )
        .unwrap();
        assert_eq!(rows(&out.answers), vec![tuple![1, "one"], tuple![2, "two"]]);
    }

    #[test]
    fn existential_projection() {
        // W is existential in the subgoal: one answer per X.
        let out = evaluate_str(
            "q(1, 10). q(1, 11). q(2, 20).
             p(X) :- q(X, W).
             ?- p(X).",
        )
        .unwrap();
        assert_eq!(rows(&out.answers), vec![tuple![1], tuple![2]]);
    }

    #[test]
    fn repeated_variables_in_subgoal() {
        let out = evaluate_str(
            "e(1, 1). e(1, 2). e(3, 3).
             refl(X) :- e(X, X).
             ?- refl(X).",
        )
        .unwrap();
        assert_eq!(rows(&out.answers), vec![tuple![1], tuple![3]]);
    }

    #[test]
    fn boolean_query() {
        let out = evaluate_str(
            "e(1, 2).
             connected :- e(1, 2).
             ?- connected.",
        )
        .unwrap();
        assert_eq!(out.answers.len(), 1);
        assert_eq!(out.answers.rows()[0], Tuple::unit());
    }

    #[test]
    fn boolean_query_false() {
        let out = evaluate_str(
            "e(1, 2).
             connected :- e(2, 1).
             ?- connected.",
        )
        .unwrap();
        assert!(out.answers.is_empty());
    }

    #[test]
    fn existential_var_shared_across_subgoals_still_joins() {
        // Regression: W appears in the head only existentially (via a
        // projecting caller) AND in two subgoals. Early versions classed
        // it `e` in both subgoals, losing the cross-subgoal join and
        // deriving from thin air (found by differential fuzzing,
        // generator seed 424).
        let out = evaluate_str(
            "e0(5, 5).
             e1(7, 1).
             p(X) :- e0(X, X), e1(X, W).
             ?- p(Q).",
        )
        .unwrap();
        // Only self-loop is 5, but e1 has no 5 in column 0: p is empty.
        assert!(out.answers.is_empty());

        let out2 = evaluate_str(
            "e0(5, 5).
             e1(5, 1).
             p(X) :- e0(X, X), e1(X, W).
             ?- p(Q).",
        )
        .unwrap();
        assert_eq!(rows(&out2.answers), vec![tuple![5]]);

        // The same shape one level down: q's caller only checks
        // existence, making q's head argument class e.
        let out3 = evaluate_str(
            "a(1, 2). b(3, 4).
             q(V) :- a(V, Y), b(V, Z).
             yes :- q(V).
             ?- yes.",
        )
        .unwrap();
        assert!(out3.answers.is_empty(), "a and b share no V");
    }

    #[test]
    fn all_sips_agree() {
        let edges: Vec<(i64, i64)> = (0..8).map(|i| (i, (i * 3 + 1) % 8)).collect();
        let mut results = Vec::new();
        for sip in SipKind::ALL {
            let out = tc_engine(&edges, 0)
                .with_sip(sip)
                .evaluate()
                .unwrap_or_else(|e| panic!("{} failed: {e}", sip.name()));
            results.push((sip, rows(&out.answers)));
        }
        for w in results.windows(2) {
            assert_eq!(w[0].1, w[1].1, "{} vs {}", w[0].0.name(), w[1].0.name());
        }
    }

    #[test]
    fn random_schedules_agree_with_fifo() {
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1), (0, 4)];
        let fifo = tc_engine(&edges, 0).evaluate().unwrap();
        for seed in 0..20 {
            let out = tc_engine(&edges, 0)
                .with_runtime(RuntimeKind::Sim(Schedule::Random(seed)))
                .evaluate()
                .unwrap_or_else(|e| panic!("seed {seed} failed: {e}"));
            assert_eq!(
                rows(&out.answers),
                rows(&fifo.answers),
                "seed {seed} diverged"
            );
        }
    }

    #[test]
    fn threaded_runtime_agrees() {
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3)];
        let fifo = tc_engine(&edges, 0).evaluate().unwrap();
        let out = tc_engine(&edges, 0)
            .with_runtime(RuntimeKind::Threads)
            .evaluate()
            .unwrap();
        assert_eq!(rows(&out.answers), rows(&fifo.answers));
    }

    #[test]
    fn trace_records_messages() {
        let out = tc_engine(&[(0, 1)], 0).with_trace(true).evaluate().unwrap();
        let events = out.events.unwrap();
        assert!(events.events.iter().any(|e| matches!(
            e.kind,
            mp_trace::EventKind::Send {
                kind: mp_trace::MsgKind::Answer,
                ..
            }
        )));
        assert!(events.events.iter().any(|e| matches!(
            &e.kind,
            mp_trace::EventKind::Send {
                kind: mp_trace::MsgKind::TupleRequest,
                bindings,
                ..
            } if !bindings.is_empty()
        )));
    }

    #[test]
    fn stats_are_plausible() {
        let out = tc_engine(&[(0, 1), (1, 2)], 0).evaluate().unwrap();
        let s = &out.stats;
        assert!(s.tuple_requests > 0);
        assert!(s.answers >= 2);
        assert!(s.messages_processed > 0);
        assert!(s.total_messages() >= s.work_messages());
        assert!(out.graph_nodes > 4);
    }

    #[test]
    fn compile_rejects_unsafe_program_with_typed_diagnostics() {
        let program = parse_program("p(X, Y) :- e(X). e(1). ?- p(1, Z).").unwrap();
        let err = Engine::new(program, Database::new()).compile().unwrap_err();
        match err {
            EngineError::Lint(diags) => {
                assert!(diags.iter().any(|d| d.code == mp_lint::Code::UnsafeRule));
                assert!(diags[0].is_deny(), "denies sort first");
            }
            other => panic!("expected a lint error, got {other}"),
        }
    }

    #[test]
    fn evaluate_returns_lint_error_instead_of_panicking() {
        // Facts asserted for an IDB predicate: before the lint layer this
        // surfaced as a GraphError from validate; now it is a structured
        // diagnostic either way, and evaluation never panics.
        let program = parse_program("p(1). p(X) :- e(X). e(2). ?- p(X).").unwrap();
        let err = Engine::new(program, Database::new())
            .evaluate()
            .unwrap_err();
        let EngineError::Lint(diags) = err else {
            panic!("expected a lint error, got {err}");
        };
        assert!(diags.iter().any(|d| d.code == mp_lint::Code::EdbIdbOverlap));
    }

    #[test]
    fn compile_surfaces_warnings_on_clean_programs() {
        let program = parse_program(
            "p(X) :- e(X).
             dead(X) :- e(X).
             e(1).
             ?- p(X).",
        )
        .unwrap();
        let compiled = Engine::new(program, Database::new()).compile().unwrap();
        assert!(compiled
            .warnings
            .iter()
            .any(|d| d.code == mp_lint::Code::UnreachablePredicate));
        assert!(compiled.warnings.iter().all(|d| !d.is_deny()));
        assert!(!compiled.graph.is_empty());
    }

    #[test]
    fn compiled_graphs_pass_their_own_lints() {
        // End-to-end: the artifacts the compiler emits satisfy the very
        // theorems the lints encode, on a recursive program with a
        // nontrivial strong component.
        let engine = tc_engine(&[(0, 1), (1, 0)], 0);
        let compiled = engine.compile().unwrap();
        assert!(mp_lint::graph::lint_graph(&compiled.graph).is_empty());
        let view = mp_lint::protocol::ProtocolView::of(&compiled.graph);
        assert!(mp_lint::protocol::lint_protocol(&view).is_empty());
    }

    #[test]
    fn divergence_guard_fires() {
        let err = tc_engine(&[(0, 1), (1, 0)], 0)
            .with_budget(QueryBudget::new().with_max_steps(5))
            .evaluate()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Runtime(RuntimeError::Diverged { .. })
        ));
    }
}
