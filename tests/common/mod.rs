//! The invariance harness (DESIGN.md, "The invariance harness").
//!
//! Thm 3.1 and the Thm 4.1 work accounting promise that answers and
//! logical traffic do not depend on schedule, framing, transport or
//! placement. [`assert_invariant`] is the one statement of that promise:
//! every configuration of a workload yields exactly one `End`, nothing
//! after it, the oracle's answers, and the [`LogicalCounters`] of its
//! `(sip, analysis)` class reference. [`lattice`] enumerates the
//! configurations: `quick()` covers every pair of axis values, `full()`
//! is the cross product.

use mp_framework::analyze::uses_negation_or_aggregates;
use mp_framework::baselines::{Evaluator, PerfectModel, SemiNaive};
use mp_framework::engine::{Engine, FaultPlan, QueryBudget, QueryResult, RuntimeKind, Schedule};
use mp_framework::rulegoal::SipKind;
use mp_framework::storage::Tuple;
use mp_framework::trace::{check, logical_counts, Trace};
use mp_framework::workloads::{scenarios, Workload};
use std::fmt;
use std::time::Duration;

/// The named fault plans. A configuration's `fault` is `None` (the
/// pristine channel model: no transport) or any [`FaultPlan`]; these are
/// the ones the lattice is built from.
pub mod fault {
    use super::FaultPlan;

    /// Horizons tight enough that the pool, where they are milliseconds,
    /// retransmits in test time. Simulator-only sweeps leave the default
    /// horizons (256 steps, delays up to 8) in place.
    fn tight(plan: FaultPlan) -> FaultPlan {
        FaultPlan {
            retransmit_after: 20,
            max_delay: 4,
            ..plan
        }
    }

    /// The recovery transport over a plan that injects nothing.
    pub fn zero_rate() -> Option<FaultPlan> {
        Some(FaultPlan::default())
    }

    /// The standard chaos rates under this seed, tight horizons.
    pub fn seeded(seed: u64) -> Option<FaultPlan> {
        Some(tight(FaultPlan::seeded(seed)))
    }

    /// [`seeded`] plus one scheduled crash, recovered by log replay.
    pub fn crash(seed: u64, node: usize, after_processed: u64) -> Option<FaultPlan> {
        seeded(seed).map(|plan| plan.with_crash(node, after_processed))
    }

    /// A crash and nothing else: no wire faults, tight horizons.
    pub fn crash_only(node: usize, after_processed: u64) -> Option<FaultPlan> {
        Some(tight(FaultPlan::default()).with_crash(node, after_processed))
    }
}

/// One point of the configuration lattice. The `Display` form is the
/// builder chain [`Config::apply`] performs, ready to paste after
/// `Engine::new(program, db)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Config {
    pub runtime: RuntimeKind,
    /// Pool size; the simulator ignores it.
    pub workers: usize,
    pub shards: usize,
    pub sip: SipKind,
    pub analysis: bool,
    /// `None`: no transport. See [`fault`] for the named plans.
    pub fault: Option<FaultPlan>,
    pub mailbox_bound: Option<usize>,
    pub trace: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config::reference(SipKind::Greedy, true)
    }
}

impl Config {
    /// The configuration every other one of its `(sip, analysis)` class is
    /// compared with: FIFO simulator, one shard, no transport. SIP and
    /// analysis change the rule/goal graph itself, so the logical
    /// counters are only comparable within a class.
    pub fn reference(sip: SipKind, analysis: bool) -> Config {
        Config {
            runtime: RuntimeKind::Sim(Schedule::Fifo),
            workers: 2,
            shards: 1,
            sip,
            analysis,
            fault: None,
            mailbox_bound: None,
            trace: false,
        }
    }

    pub fn pool(workers: usize) -> Config {
        Config {
            runtime: RuntimeKind::Threads,
            workers,
            ..Config::default()
        }
    }

    pub fn random(seed: u64) -> Config {
        Config {
            runtime: RuntimeKind::Sim(Schedule::Random(seed)),
            ..Config::default()
        }
    }

    pub fn traced(self) -> Config {
        Config {
            trace: true,
            ..self
        }
    }

    pub fn is_pool(&self) -> bool {
        self.runtime == RuntimeKind::Threads
    }

    /// Every run carries a 30 s deadline, so a wedge is a typed
    /// `Timeout`, not a hung test.
    pub fn apply(&self, engine: Engine) -> Engine {
        let budget = QueryBudget::new().with_deadline(Duration::from_secs(30));
        let engine = engine
            .with_runtime(self.runtime)
            .with_workers(self.workers)
            .with_shards(self.shards)
            .with_sip(self.sip)
            .with_analysis(self.analysis)
            .with_trace(self.trace)
            .with_budget(match self.mailbox_bound {
                Some(bound) => budget.with_mailbox_bound(bound),
                None => budget,
            });
        match &self.fault {
            Some(plan) => engine.with_fault_plan(plan.clone()),
            None => engine,
        }
    }
}

/// `plan` as an expression. The exhaustive pattern keeps the label
/// complete when `FaultPlan` grows a field.
fn plan_expr(plan: &FaultPlan) -> String {
    let FaultPlan {
        seed,
        drop,
        duplicate,
        delay,
        max_delay,
        corrupt,
        crashes,
        max_retries,
        retransmit_after,
    } = plan;
    let mut expr = format!(
        "FaultPlan {{ seed: {seed}, drop: {drop:?}, duplicate: {duplicate:?}, \
         delay: {delay:?}, max_delay: {max_delay}, corrupt: {corrupt:?}, crashes: vec![], \
         max_retries: {max_retries}, retransmit_after: {retransmit_after} }}"
    );
    for c in crashes {
        expr += &format!(".with_crash({}, {})", c.node, c.after_processed);
    }
    expr
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let reference = Config::default();
        match self.runtime {
            RuntimeKind::Sim(Schedule::Fifo) => {}
            RuntimeKind::Sim(Schedule::Random(seed)) => write!(
                f,
                ".with_runtime(RuntimeKind::Sim(Schedule::Random({seed})))"
            )?,
            RuntimeKind::Threads => write!(
                f,
                ".with_runtime(RuntimeKind::Threads).with_workers({})",
                self.workers
            )?,
        }
        if self.shards != reference.shards {
            write!(f, ".with_shards({})", self.shards)?;
        }
        if self.sip != reference.sip {
            write!(f, ".with_sip(SipKind::{:?})", self.sip)?;
        }
        if !self.analysis {
            write!(f, ".with_analysis(false)")?;
        }
        if let Some(plan) = &self.fault {
            write!(f, ".with_fault_plan({})", plan_expr(plan))?;
        }
        if let Some(bound) = self.mailbox_bound {
            write!(
                f,
                ".with_budget(QueryBudget::new().with_mailbox_bound({bound}))"
            )?;
        }
        if self.trace {
            write!(f, ".with_trace(true)")?;
        }
        Ok(())
    }
}

/// The configuration lattice.
pub mod lattice {
    use super::*;

    /// Axis sizes, in the order [`at`] reads an index vector: runtime,
    /// shards, fault, governed (mailbox bound 4 + trace), sip, analysis.
    const AXES: [usize; 6] = [3, 3, 4, 2, 2, 2];

    fn at(ix: &[usize; 6]) -> Config {
        let governed = ix[3] == 1;
        Config {
            runtime: [
                RuntimeKind::Sim(Schedule::Fifo),
                RuntimeKind::Sim(Schedule::Random(7)),
                RuntimeKind::Threads,
            ][ix[0]],
            workers: 2,
            shards: [1, 2, 4][ix[1]],
            fault: [
                None,
                fault::zero_rate(),
                fault::seeded(3),
                fault::crash(9, 1, 2),
            ][ix[2]]
                .clone(),
            mailbox_bound: governed.then_some(4),
            trace: governed,
            sip: [SipKind::Greedy, SipKind::LeftToRight][ix[4]],
            analysis: ix[5] == 0,
        }
    }

    fn indices() -> Vec<[usize; 6]> {
        let mut all = vec![[0; 6]];
        for (axis, &size) in AXES.iter().enumerate() {
            all = all
                .into_iter()
                .flat_map(|ix| {
                    (0..size).map(move |v| {
                        let mut ix = ix;
                        ix[axis] = v;
                        ix
                    })
                })
                .collect();
        }
        all
    }

    /// The cross product of every axis: 288 configurations.
    pub fn full() -> Vec<Config> {
        indices().iter().map(at).collect()
    }

    /// A deterministic pairwise-covering sample: every value of every
    /// axis meets every value of every other axis in some configuration.
    /// Greedy: repeatedly take the first point of the cross product that
    /// covers the most still-uncovered pairs.
    pub fn quick() -> Vec<Config> {
        let all = indices();
        let pairs_of = |ix: &[usize; 6]| {
            let ix = *ix;
            (0..6).flat_map(move |a| (a + 1..6).map(move |b| (a, ix[a], b, ix[b])))
        };
        let mut uncovered: std::collections::BTreeSet<_> = all.iter().flat_map(pairs_of).collect();
        let mut picked = Vec::new();
        while !uncovered.is_empty() {
            let gain = |ix: &[usize; 6]| pairs_of(ix).filter(|p| uncovered.contains(p)).count();
            // `max_by_key` keeps the last maximum; reverse for the first.
            let best = *all
                .iter()
                .rev()
                .max_by_key(|ix| gain(ix))
                .expect("non-empty");
            for p in pairs_of(&best) {
                uncovered.remove(&p);
            }
            picked.push(at(&best));
        }
        picked
    }
}

/// The workloads the quick tier and the full lattice run: the canonical
/// recursive shapes (linear, cyclic, nonlinear, mutual, the paper's P1,
/// same-generation, a hierarchy) and the three stratified programs,
/// sized so a traced run stays far below the trace ring's capacity.
pub fn workloads() -> Vec<Workload> {
    let mut all = flat_workloads();
    all.extend([
        scenarios::win_move(12, 16, 1),
        scenarios::company_control(8, 1),
        scenarios::agg_reachability(12, 24, 3, 2),
    ]);
    all
}

pub fn flat_workloads() -> Vec<Workload> {
    vec![
        scenarios::tc_chain(6),
        scenarios::tc_cycle(8),
        scenarios::tc_nonlinear_chain(6),
        scenarios::odd_even_chain(8),
        scenarios::p1_chain(8),
        scenarios::sg_tree(3, 2, 2),
        scenarios::bom(12, 3, 7),
    ]
}

/// Cells of the lattice that once failed, kept forever.
pub fn regressions() -> Vec<(Workload, Config)> {
    vec![
        // Packaged frames x crash recovery: the replayed process kept
        // items in its arc buffers that had shipped before the crash and
        // shipped them again (`logical_tuple_requests` 17 vs 16, first
        // seen at a flush bound of 4).
        (
            scenarios::tc_cycle(8),
            Config {
                fault: fault::crash(9, 1, 2),
                ..Config::default()
            },
        ),
    ]
}

/// What [`assert_invariant`] ran, for axis-local asserts beside the call.
pub struct Outcome {
    /// One result per configuration, in order.
    pub runs: Vec<QueryResult>,
    /// Traced runs whose ring overflowed (`Trace::dropped > 0`): the
    /// trace cannot be checked soundly, so its checks were skipped.
    pub unchecked_traces: usize,
}

fn oracle(w: &Workload) -> Vec<Tuple> {
    let evaluator: &dyn Evaluator = if uses_negation_or_aggregates(&w.program) {
        &PerfectModel
    } else {
        &SemiNaive
    };
    evaluator
        .evaluate(&w.program, &w.db)
        .unwrap_or_else(|e| panic!("{}: {} oracle failed: {e}", w.name, evaluator.name()))
        .answers
        .sorted_rows()
}

fn engine(w: &Workload, c: &Config) -> Engine {
    c.apply(Engine::new(w.program.clone(), w.db.clone()))
}

/// Run one configuration and check everything that does not need a
/// reference. `Err` is the failed check; `Ok` carries whether the trace
/// went unchecked.
fn run(w: &Workload, c: &Config, oracle: &[Tuple]) -> Result<(QueryResult, bool), String> {
    let r = engine(w, c).evaluate().map_err(|e| e.to_string())?;
    let ensure = |ok: bool, what: &str| ok.then_some(()).ok_or_else(|| what.to_string());
    ensure(r.engine_ends == 1, "not exactly one End")?;
    ensure(r.post_end_answers == 0, "answers after the final End")?;
    ensure(
        r.answers.sorted_rows() == oracle,
        "answers differ from the oracle",
    )?;
    if !c.trace {
        ensure(r.events.is_none(), "an untraced run recorded events")?;
        return Ok((r, false));
    }
    let events = r.events.as_ref().ok_or("a traced run recorded no events")?;
    ensure(!events.events.is_empty(), "empty event trace")?;
    if events.dropped > 0 {
        return Ok((r, true));
    }
    let clean = |t: &Trace, whose: &str| match check(t).as_slice() {
        [] => Ok(()),
        diags => Err(format!("{whose} trace violations: {diags:?}")),
    };
    clean(events, "recorded")?;
    // A staged run's trace covers its final stratum only; its stats sum
    // the whole pipeline.
    if r.stats.strata_evaluated == 1 {
        let counts = logical_counts(events);
        ensure(
            (
                counts.tuple_requests,
                counts.answers,
                counts.end_tuple_requests,
            ) == (
                r.stats.logical_tuple_requests,
                r.stats.logical_answers,
                r.stats.logical_end_tuple_requests,
            ),
            "the trace's logical counts differ from the stats'",
        )?;
    }
    // Replay what `mp-check` would read from disk.
    let reparsed = Trace::from_text(&events.to_text()).map_err(|e| format!("reparse: {e}"))?;
    let replayed = engine(w, c)
        .replay(&reparsed)
        .map_err(|e| format!("replay: {e}"))?;
    ensure(
        (replayed.engine_ends, replayed.post_end_answers) == (1, 0),
        "replay: End observables",
    )?;
    ensure(replayed.answers == r.answers, "replay: answers differ")?;
    ensure(
        replayed.stats.logical() == r.stats.logical(),
        "replay: logical counters differ",
    )?;
    ensure(
        replayed.stats.strata_evaluated == r.stats.strata_evaluated,
        "replay: strata differ",
    )?;
    clean(
        replayed
            .events
            .as_ref()
            .ok_or("replay recorded no events")?,
        "replayed",
    )?;
    Ok((r, false))
}

/// The invariance contract. For each configuration: exactly one `End`,
/// none after it, answers equal to the oracle's (`PerfectModel` for a
/// program with `!` or aggregates, `SemiNaive` otherwise), and
/// `stats.logical()` equal to the FIFO / one-shard / no-transport
/// run of the same `(sip, analysis)` class. A traced run whose ring did
/// not overflow must also pass `mp_trace::check` (the §3.1 stream
/// discipline, MP311–MP315, included), agree with its own
/// stats, and replay to the same answers and counters; an untraced run
/// must record nothing. Every failure is reported, each with the
/// configuration's builder chain.
pub fn assert_invariant(w: &Workload, configs: &[Config]) -> Outcome {
    let oracle = oracle(w);
    let mut references: Vec<(Config, QueryResult)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut outcome = Outcome {
        runs: Vec::new(),
        unchecked_traces: 0,
    };
    for c in configs {
        let rc = Config::reference(c.sip, c.analysis);
        let class = match references.iter().position(|(k, _)| *k == rc) {
            Some(class) => class,
            None => {
                let (r, _) = run(w, &rc, &oracle)
                    .unwrap_or_else(|e| panic!("{} [reference{rc}]: {e}", w.name));
                references.push((rc.clone(), r));
                references.len() - 1
            }
        };
        let reference = &references[class].1;
        let expected = reference.stats.logical();
        match run(w, c, &oracle) {
            Ok((r, unchecked)) => {
                if r.stats.logical() != expected {
                    failures.push(format!(
                        "[{c}]: logical counters {:?} differ from the reference's {expected:?}",
                        r.stats.logical()
                    ));
                }
                outcome.unchecked_traces += usize::from(unchecked);
                outcome.runs.push(r);
            }
            Err(e) => failures.push(format!("[{c}]: {e}")),
        }
    }
    if outcome.unchecked_traces > 0 {
        eprintln!(
            "{}: {} lossy trace(s) left unchecked",
            w.name, outcome.unchecked_traces
        );
    }
    assert!(
        failures.is_empty(),
        "{}: {} of {} configurations failed\n{}\n{}",
        w.name,
        failures.len(),
        configs.len(),
        failures.join("\n"),
        w.program
    );
    outcome
}
