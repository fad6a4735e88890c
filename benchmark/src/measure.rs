//! The load model: closed loop, one client, one process per workload.
//!
//! Set-up (generate inputs, oracle, warm-up) → timed passes with
//! tracing off → end-to-end metrics; or set-up → a few untraced passes,
//! a traced pass and the standalone probes → per-layer metrics.

use crate::kernels;
use crate::metrics::{Metric, Values, END_TO_END, PER_LAYER};
use crate::ops::{
    front_end_probes, loaded_database, run_op, run_op_traced, Deterministic, OpResult,
};
use crate::procfs;
use crate::span::{self, Span, Tracer};
use crate::stats::{median, percentile, quartiles, ratio, MIN_OPS_PER_PASS, TAIL_PERCENTILE};
use crate::workloads::{Inputs, OracleTimes, Workload};
use mp_engine::Stats;
use std::collections::BTreeMap;
use std::time::Instant;

const WARMUP_OPS: usize = 3;

/// Ops of the traced pass that also run the standalone front-end
/// probes: one full cycle of the direct workloads' sixteen queries.
const PROBE_OPS: usize = 16;

/// How much to run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// A timed pass is exactly this many ops, so that every pass has the
    /// same ten samples beyond its p95.
    pub ops_per_pass: usize,
    /// Passes are added until this much time has been measured …
    pub seconds: f64,
    /// … and there are at least this many. Each timing metric is the
    /// best quartile of the per-pass values (see [`best_quartile`]).
    pub min_passes: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setups: usize,
}

impl Plan {
    /// Passes of 200 ops for `seconds`: at the default 12 s, four on the
    /// slowest workloads and ten on the fastest.
    pub fn full(seconds: f64) -> Plan {
        Plan {
            ops_per_pass: MIN_OPS_PER_PASS,
            seconds,
            min_passes: 3,
            setups: 5,
        }
    }

    /// One pass of five ops: checks answers, measures nothing useful.
    pub fn smoke() -> Plan {
        Plan {
            ops_per_pass: 5,
            seconds: 0.0,
            min_passes: 1,
            setups: 1,
        }
    }
}

/// The outcome of one benchmark process.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the human reading stderr.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub deterministic: Deterministic,
    /// Spans of the traced pass (empty for an end-to-end run).
    pub spans: Vec<Span>,
}

struct Ready {
    inputs: Inputs,
    oracle: OracleTimes,
    setup_s: f64,
}

fn set_up(w: Workload, seed: u64) -> Result<Ready, String> {
    let start = Instant::now();
    let mut inputs = w.generate(seed);
    let oracle = inputs.oracle(w.staged())?;
    for i in 0..WARMUP_OPS {
        // A warm-up failure will fail the same way in the timed passes,
        // where it is counted.
        run_op(w, &inputs.ops[i % inputs.ops.len()], &inputs.dbs, false);
    }
    Ok(Ready {
        inputs,
        oracle,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

/// Run set-up `times` times; keep the last one's inputs and all the
/// durations.
fn set_up_repeatedly(w: Workload, seed: u64, times: usize) -> Result<(Ready, Vec<f64>), String> {
    let mut durations = Vec::with_capacity(times);
    let mut ready = set_up(w, seed)?;
    durations.push(ready.setup_s);
    for _ in 1..times {
        // Drop the previous inputs first: peak memory must not depend
        // on how often set-up is repeated.
        drop(ready);
        ready = set_up(w, seed)?;
        durations.push(ready.setup_s);
    }
    Ok((ready, durations))
}

/// Bookkeeping shared by every pass of a process: verdicts, and the
/// first-seen deterministic counters of each op variant, which every
/// later execution of that variant must reproduce.
struct Book {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    by_variant: Vec<Option<Deterministic>>,
    next_variant: usize,
}

impl Book {
    fn new(variants: usize) -> Book {
        Book {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            by_variant: vec![None; variants],
            next_variant: 0,
        }
    }

    /// The variant the next op runs (round robin).
    fn take_variant(&mut self) -> usize {
        let v = self.next_variant;
        self.next_variant = (v + 1) % self.by_variant.len();
        v
    }

    fn record(&mut self, variant: usize, op: &OpResult) {
        self.attempted += 1;
        let error = op.error.clone().or_else(|| {
            let first = self.by_variant[variant].get_or_insert_with(|| op.deterministic.clone());
            (*first != op.deterministic).then(|| {
                format!(
                    "variant {variant} is not deterministic: {:?} then {:?}",
                    first, op.deterministic
                )
            })
        });
        if let Some(e) = error {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    /// The deterministic block: the counters of one execution of every
    /// variant that ran, summed.
    fn deterministic(&self) -> Deterministic {
        let mut sum = Deterministic::zero();
        for d in self.by_variant.iter().flatten() {
            sum.add(d);
        }
        sum
    }
}

struct Pass {
    op_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
}

impl Pass {
    fn ops(&self) -> f64 {
        self.op_ms.len() as f64
    }
}

/// One timed pass of `ops` ops with tracing off.
fn timed_pass(w: Workload, inputs: &Inputs, ops: usize, book: &mut Book) -> Result<Pass, String> {
    let mut op_ms = Vec::with_capacity(ops);
    let cpu_start = procfs::cpu_seconds()?;
    let start = Instant::now();
    for _ in 0..ops {
        let variant = book.take_variant();
        let op = run_op(w, &inputs.ops[variant], &inputs.dbs, false);
        op_ms.push(op.wall_ms);
        book.record(variant, &op);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds()? - cpu_start;
    op_ms.sort_by(f64::total_cmp);
    Ok(Pass {
        op_ms,
        wall_s,
        cpu_s,
    })
}

/// Timed passes until `seconds` have been measured, at least
/// `min_passes` of them.
fn timed_passes(
    w: Workload,
    inputs: &Inputs,
    ops_per_pass: usize,
    seconds: f64,
    min_passes: usize,
    book: &mut Book,
) -> Result<Vec<Pass>, String> {
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        passes.push(timed_pass(w, inputs, ops_per_pass, book)?);
    }
    Ok(passes)
}

/// The quartile of the per-pass values on the metric's good side: the
/// first for a time, the third for a rate.
///
/// Noise on a shared host is one-sided — a neighbour, a frequency dip or
/// a cache flush only ever makes a pass slower — and it comes in phases
/// of seconds, long enough to cover half the passes of a run, so their
/// median moves with it (±10 % between back-to-back runs of one binary,
/// measured). The good-side quartile needs only a quarter of the passes
/// undisturbed, and a real regression still moves it: that slows every
/// pass.
fn best_quartile(per_pass: &[f64], lower_is_better: bool) -> f64 {
    match per_pass {
        [] => 0.0,
        [only] => *only,
        _ => {
            let [q1, _, q3] = quartiles(per_pass);
            if lower_is_better {
                q1
            } else {
                q3
            }
        }
    }
}

fn set_best(values: &mut Values, name: &str, per_pass: Vec<f64>, lower_is_better: bool) {
    values.set_passes(name, best_quartile(&per_pass, lower_is_better), per_pass);
}

/// Tracing off: the end-to-end metrics.
pub fn end_to_end(w: Workload, seed: u64, plan: Plan) -> Result<Report, String> {
    let (ready, setups) = set_up_repeatedly(w, seed, plan.setups)?;
    // From here on the peak-RSS watermark covers the engine, not the
    // oracle evaluators of set-up.
    procfs::reset_peak_rss();
    let mut book = Book::new(ready.inputs.ops.len());
    let passes = timed_passes(
        w,
        &ready.inputs,
        plan.ops_per_pass,
        plan.seconds,
        plan.min_passes,
        &mut book,
    )?;
    let peak_rss_mb = procfs::peak_rss_mb()?;

    let mut values = Values::new(END_TO_END);
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    set_best(
        &mut values,
        "op_ms_p50",
        per_pass(&|p| percentile(&p.op_ms, 50.0)),
        true,
    );
    set_best(
        &mut values,
        "op_ms_p95",
        per_pass(&|p| percentile(&p.op_ms, TAIL_PERCENTILE)),
        true,
    );
    set_best(
        &mut values,
        "ops_per_s",
        per_pass(&|p| p.ops() / p.wall_s),
        false,
    );
    set_best(
        &mut values,
        "cpu_ms_per_op",
        per_pass(&|p| p.cpu_s * 1e3 / p.ops()),
        true,
    );
    values.set("peak_rss_mb", peak_rss_mb);
    values.set_passes("setup_s", median(&setups), setups);

    Ok(Report {
        attempted: book.attempted,
        failed: book.failed,
        deterministic: book.deterministic(),
        errors: book.errors,
        metrics: values.finish(),
        spans: Vec::new(),
    })
}

/// Per-op totals (ms) of the spans called `name`, over the ops that
/// recorded one.
fn per_op_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_op: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_op.entry(s.op).or_insert(0) += s.duration_ns();
    }
    by_op.values().map(|&ns| ns as f64 / 1e6).collect()
}

/// Median per-op time in the spans called `name`; 0 if none ran.
fn span_ms(spans: &[Span], name: &str) -> f64 {
    let per_op = per_op_ms(spans, name);
    if per_op.is_empty() {
        0.0
    } else {
        median(&per_op)
    }
}

/// The traced pass and the probes: the per-layer metrics.
///
/// The run's time is split between untraced passes (the reference the
/// traced ops are compared with) and the traced pass; the probes are
/// sized by count, not by time.
pub fn per_layer(w: Workload, seed: u64, plan: Plan) -> Result<Report, String> {
    let Ready { inputs, oracle, .. } = set_up(w, seed)?;
    let mut book = Book::new(inputs.ops.len());
    let untraced = timed_passes(
        w,
        &inputs,
        plan.ops_per_pass,
        plan.seconds * 0.3,
        1,
        &mut book,
    )?;
    let untraced_p50 = best_quartile(
        &untraced
            .iter()
            .map(|p| percentile(&p.op_ms, 50.0))
            .collect::<Vec<_>>(),
        true,
    );

    // Traced pass. Every op also runs the public path as a probe, and
    // the first PROBE_OPS ops run the standalone front-end parts.
    let mut tr = Tracer::new();
    let mut totals = Stats::default();
    let mut facts_parsed = 0u64;
    let mut traced_ops = 0u32;
    let start = Instant::now();
    while (traced_ops as usize) < plan.ops_per_pass
        || start.elapsed().as_secs_f64() < plan.seconds * 0.5
    {
        traced_ops += 1;
        tr.op = traced_ops;
        let variant = book.take_variant();
        let op = run_op_traced(w, &inputs.ops[variant], &inputs.dbs, &mut tr);
        book.record(variant, &op);
        totals.merge(&op.stats);
        facts_parsed += op.facts_parsed;
        if traced_ops as usize <= PROBE_OPS {
            front_end_probes(w, &inputs.ops[variant], &inputs.dbs, &mut tr)?;
            // mp-trace recording on, against the same op with it off.
            for (name, mptrace) in [("probe.mptrace_off", false), ("probe.mptrace_on", true)] {
                let probe = tr.span(name, || {
                    run_op(w, &inputs.ops[variant], &inputs.dbs, mptrace)
                });
                if let Some(e) = probe.error {
                    return Err(format!("{name}: {e}"));
                }
            }
        }
    }
    tr.op = 0;
    let loaded: Vec<_> = inputs.ops[0]
        .iter()
        .map(|q| loaded_database(w, q, &inputs.dbs))
        .collect::<Result<_, _>>()?;
    let kernel = kernels::probe(&loaded, &mut tr)?;

    let spans = tr.spans();
    let n = f64::from(traced_ops);
    let per_op = |count: u64| count as f64 / n;
    let ms = |name: &str| span_ms(spans, name);
    let mut v = Values::new(PER_LAYER);

    v.set("datalog.parse_ms", ms("datalog.parse"));
    v.set(
        "datalog.parse_facts_per_s",
        ratio(
            facts_parsed as f64,
            per_op_ms(spans, "datalog.parse").iter().sum::<f64>() / 1e3,
        ),
    );
    v.set("datalog.db_clone_ms", ms("datalog.db_clone"));
    v.set("engine.new_ms", ms("engine.new"));
    v.set("lint.program_ms", ms("lint.program"));
    v.set("lint.graph_ms", ms("lint.graph"));
    v.set("analyze.stratify_ms", ms("analyze.stratify"));
    v.set("analyze.analyze_ms", ms("analyze.analyze"));
    v.set("analyze.pruned_nodes", per_op(totals.pruned_nodes));
    v.set("rulegoal.build_ms", ms("rulegoal.build"));
    v.set("rulegoal.nodes", book.deterministic().rulegoal_nodes as f64);
    let compile_ms = ms("engine.compile");
    v.set("engine.compile_ms", compile_ms);
    v.set(
        "engine.compile_residual_ms",
        compile_ms
            - ms("lint.program")
            - ms("analyze.stratify")
            - ms("rulegoal.build")
            - ms("lint.graph")
            - ms("analyze.analyze"),
    );
    v.set("node.network_compile_ms", ms("node.network_compile"));
    let run_ms = ms("runtime.run");
    v.set("runtime.run_ms", run_ms);
    v.set(
        "runtime.messages_processed",
        per_op(totals.messages_processed),
    );
    v.set(
        "runtime.ns_per_message",
        ratio(run_ms * 1e6, per_op(totals.messages_processed)),
    );
    v.set("msg.logical_messages", per_op(totals.logical_messages()));
    v.set("msg.physical_frames", per_op(totals.total_messages()));
    v.set("msg.protocol_messages", per_op(totals.protocol_messages));
    v.set("msg.protocol_overhead", totals.protocol_overhead());
    v.set("termination.probe_waves", per_op(totals.probe_waves));
    v.set("node.join_probes", per_op(totals.join_probes));
    v.set("node.derived_tuples", per_op(totals.derived_tuples));
    v.set("node.stored_tuples", per_op(totals.stored_tuples));
    v.set("node.goal_stored", per_op(totals.goal_stored));
    v.set(
        "node.dedup_keep_ratio",
        ratio(totals.goal_stored as f64, totals.derived_tuples as f64),
    );
    v.set("node.max_relation_size", totals.max_relation_size as f64);
    v.set("node.edb_lookups", per_op(totals.edb_lookups));
    v.set("storage.insert_ns_per_tuple", kernel.insert_ns_per_tuple);
    v.set("storage.probe_ns_per_key", kernel.probe_ns_per_key);
    v.set("storage.join_ns_per_out", kernel.join_ns_per_out);
    v.set("storage.aggregate_ns_per_row", kernel.aggregate_ns_per_row);
    v.set("storage.antijoin_ns_per_row", kernel.antijoin_ns_per_row);
    let evaluate_ms = ms("engine.evaluate");
    v.set("engine.evaluate_ms", evaluate_ms);
    v.set("engine.strata_evaluated", per_op(totals.strata_evaluated));
    v.set(
        "engine.evaluate_vs_perfect",
        ratio(evaluate_ms, oracle.perfect_ms),
    );
    v.set("engine.collect_ms", ms("engine.collect"));
    v.set("engine.vs_magic", ratio(untraced_p50, oracle.magic_ms));
    v.set("sched.activations", per_op(totals.sched_activations));
    v.set("sched.steals", per_op(totals.sched_steals));
    v.set(
        "sched.steal_success_ratio",
        ratio(
            totals.sched_steals as f64,
            (totals.sched_steals + totals.sched_steal_failures) as f64,
        ),
    );
    v.set("sched.max_queue", totals.sched_max_queue as f64);
    v.set(
        "sched.cpu_over_wall",
        ratio(
            untraced.iter().map(|p| p.cpu_s).sum(),
            untraced.iter().map(|p| p.wall_s).sum(),
        ),
    );
    if w.fault_plan().is_some() {
        v.set("transport.overhead_ms", run_ms - ms("runtime.run_clean"));
    }
    v.set("fault.acks", per_op(totals.acks));
    v.set("fault.retransmits", per_op(totals.retransmits));
    v.set(
        "fault.frames_per_logical",
        ratio(
            (totals.total_messages() + totals.acks + totals.retransmits) as f64,
            totals.logical_messages() as f64,
        ),
    );
    v.set(
        "govern.mem_high_water_bytes",
        totals.mem_high_water_bytes as f64,
    );
    v.set(
        "govern.mailbox_high_water",
        totals.mailbox_high_water as f64,
    );
    v.set("baselines.magic_ms", oracle.magic_ms);
    v.set("baselines.topdown_ms", oracle.topdown_ms);
    v.set("baselines.perfect_ms", oracle.perfect_ms);
    v.set(
        "trace.mptrace_on_slowdown",
        ratio(ms("probe.mptrace_on"), ms("probe.mptrace_off")),
    );
    v.set("trace.spans_over_untraced", ratio(ms("op"), untraced_p50));

    Ok(Report {
        attempted: book.attempted,
        failed: book.failed,
        deterministic: book.deterministic(),
        errors: book.errors,
        metrics: v.finish(),
        spans: spans.to_vec(),
    })
}

/// Share of the traced ops' wall time that each span name accounts for
/// as self time, largest first: the "where the time goes" table.
pub fn self_time_shares(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let by_name = span::self_time_by_name(spans, "op");
    let total: u64 = by_name.values().sum();
    let mut shares: Vec<_> = by_name
        .into_iter()
        .map(|(name, ns)| (name, ratio(ns as f64, total as f64)))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke` in-process: every workload, one pass of five ops, both
    /// modes. Nothing may fail, the same seed must reproduce the
    /// deterministic block exactly, and another seed must change it.
    #[test]
    fn smoke_run_of_all_seven_workloads() {
        for w in Workload::ALL {
            let a = end_to_end(w, 7, Plan::smoke()).unwrap();
            assert_eq!(a.attempted, 5, "{}", w.name());
            assert_eq!(a.failed, 0, "{}: {:?}", w.name(), a.errors);
            assert!(a.deterministic.answers > 0, "{}", w.name());
            assert!(a.metrics.iter().all(|m| m.value > 0.0), "{}", w.name());

            let b = end_to_end(w, 7, Plan::smoke()).unwrap();
            assert_eq!(a.deterministic, b.deterministic, "{}", w.name());
            let c = end_to_end(w, 8, Plan::smoke()).unwrap();
            assert_ne!(a.deterministic, c.deterministic, "{}", w.name());

            let t = per_layer(w, 7, Plan::smoke()).unwrap();
            assert_eq!(t.failed, 0, "{}: {:?}", w.name(), t.errors);
            assert_eq!(t.metrics.len(), PER_LAYER.len());
            let shares = self_time_shares(&t.spans);
            let total: f64 = shares.iter().map(|s| s.1).sum();
            assert!((total - 1.0).abs() < 1e-9, "{}: {total}", w.name());
        }
    }

    #[test]
    fn best_quartile_sits_on_the_good_side() {
        // Three passes at full speed, two inside a slow phase.
        let times = [12.3, 15.4, 12.2, 15.5, 12.4];
        assert!((best_quartile(&times, true) - 12.25).abs() < 1e-9);
        let rates = [81.0, 65.0, 82.0, 64.0, 80.0];
        assert!((best_quartile(&rates, false) - 81.5).abs() < 1e-9);
        assert_eq!(best_quartile(&[7.0], true), 7.0);
    }

    #[test]
    fn per_op_span_totals() {
        let span = |op, name, start_ns, end_ns| Span {
            id: 1,
            parent: 0,
            op,
            name,
            start_ns,
            end_ns,
        };
        // A mix op runs the same layer once per program: totals add.
        let spans = [
            span(1, "datalog.parse", 0, 1_000_000),
            span(1, "datalog.parse", 5_000_000, 7_000_000),
            span(2, "datalog.parse", 9_000_000, 10_000_000),
            span(2, "runtime.run", 0, 500_000),
        ];
        assert_eq!(per_op_ms(&spans, "datalog.parse"), vec![3.0, 1.0]);
        assert_eq!(span_ms(&spans, "datalog.parse"), 2.0);
        assert_eq!(span_ms(&spans, "absent"), 0.0);
    }
}
