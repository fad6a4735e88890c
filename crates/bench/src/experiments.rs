//! The experiments of EXPERIMENTS.md, listed once in [`EXPERIMENTS`].
//! Each returns table rows; `Scale::Quick` keeps everything under a few
//! seconds for tests.

use crate::{
    json_table, markdown_table, measure, run_baseline, run_engine, run_engine_with, Row, Scale,
};
use mp_baselines::{all_baselines, MagicSets, SemiNaive};
use mp_datalog::analysis::DependencyAnalysis;
use mp_datalog::{Database, Var};
use mp_engine::{Engine, FaultPlan, QueryBudget, RuntimeKind, Schedule};
use mp_hypergraph::compose::compose;
use mp_hypergraph::cost::{optimal_order, predict, CostModel};
use mp_hypergraph::{monotone_flow, MonotoneFlow};
use mp_rulegoal::{RuleGoalGraph, SipKind};
use mp_workloads::{graphs, programs, scenarios};
use std::collections::BTreeSet;
use std::time::Instant;

crate::impl_row!(E1Row {
    n,
    method,
    answers,
    idb_tuples,
    stored,
    messages,
    millis
});
crate::impl_row!(E2Row {
    workload,
    work_messages,
    protocol_messages,
    overhead,
    probe_waves,
    schedules_tried,
    schedules_agreeing,
});
crate::impl_row!(E3Row {
    rule,
    n,
    overlap,
    sip,
    answers,
    max_stage,
    blowup,
    stored
});
crate::impl_row!(E4Row {
    depth,
    body_len,
    composed_valid,
    monotone_preserved,
    micros_per_compose
});
crate::impl_row!(E5Row {
    workload,
    linear_method_applicable,
    method,
    answers,
    stored,
    millis
});
crate::impl_row!(E6Row {
    n,
    sip,
    answers,
    stored,
    messages,
    join_probes
});
crate::impl_row!(E7Row {
    branches,
    runtime,
    answers,
    millis
});
crate::impl_row!(E8Row {
    program,
    edb_facts,
    graph_nodes,
    coalescible
});
crate::impl_row!(E9Row {
    rule,
    order,
    measured_stored,
    model_optimal
});
crate::impl_row!(E10Row {
    workload,
    plan,
    runs,
    messages,
    faults_injected,
    retransmits,
    dups_discarded,
    crashes,
    recovered,
    answers_ok,
});
crate::impl_row!(A1Row {
    workload,
    plain_requests,
    batched_requests,
    plain_total,
    batched_total,
});
crate::impl_row!(A2Row {
    n,
    sip,
    answers,
    messages,
    stored
});
crate::impl_row!(E11Row {
    workload,
    batch,
    answers,
    logical_answers,
    physical_frames,
    millis,
    tuples_per_sec,
    speedup,
});
crate::impl_row!(E14Row {
    workload,
    governance,
    answers,
    logical_messages,
    stalls,
    millis,
    msgs_per_sec,
    overhead,
});
crate::impl_row!(E12Row {
    workload,
    runtime,
    tracing,
    answers,
    events,
    millis,
    tuples_per_sec,
    slowdown,
});
crate::impl_row!(E13Row {
    workload,
    workers,
    answers,
    logical_answers,
    activations,
    steals,
    millis,
    tuples_per_sec,
    speedup,
});
crate::impl_row!(E15Row {
    workload,
    runtime,
    shards,
    answers,
    logical_answers,
    routed_frames,
    max_skew,
    millis,
});
crate::impl_row!(E16Row {
    workload,
    runtime,
    shards,
    strata,
    answers,
    logical_answers,
    millis,
});

/// E1 row: P1 (Fig 1) across methods and sizes.
#[derive(Clone, Debug)]
pub struct E1Row {
    /// Chain length.
    pub n: usize,
    /// Method label.
    pub method: String,
    /// Answers.
    pub answers: usize,
    /// IDB tuples computed (goal-node answers for the engine; store-wide
    /// IDB for baselines).
    pub idb_tuples: u64,
    /// All stored tuples including per-node copies (engine trades space
    /// for communication, §3.1).
    pub stored: u64,
    /// Messages (engine only).
    pub messages: u64,
    /// Milliseconds.
    pub millis: f64,
}

/// E1 — evaluating the paper's P1 with greedy sideways information
/// passing restricts computation to relevant tuples (Fig 1, §1.2).
pub fn e1(scale: Scale) -> Vec<E1Row> {
    let sizes = scale.sizes(&[16, 32], &[32, 64, 128, 256]);
    let mut rows = Vec::new();
    for &n in sizes {
        let w = scenarios::p1_chain(n);
        let er = run_engine(&w.program, &w.db, SipKind::Greedy);
        rows.push(E1Row {
            n,
            method: er.method,
            answers: er.answers,
            idb_tuples: er.goal_stored,
            stored: er.stored,
            messages: er.messages,
            millis: er.millis,
        });
        for ev in all_baselines() {
            let br = run_baseline(ev.as_ref(), &w.program, &w.db);
            rows.push(E1Row {
                n,
                method: br.method,
                answers: br.answers,
                idb_tuples: br.stored,
                stored: br.stored,
                messages: 0,
                millis: br.millis,
            });
        }
    }
    rows
}

/// E2 row: termination protocol overhead and robustness (Fig 2, Thm 3.1).
#[derive(Clone, Debug)]
pub struct E2Row {
    /// Workload name.
    pub workload: String,
    /// Work messages.
    pub work_messages: u64,
    /// Protocol messages.
    pub protocol_messages: u64,
    /// Protocol overhead (protocol per work message).
    pub overhead: f64,
    /// Probe waves until conclusion.
    pub probe_waves: u64,
    /// Random schedules tried.
    pub schedules_tried: u32,
    /// Schedules agreeing with the FIFO answer (must equal tried).
    pub schedules_agreeing: u32,
}

/// E2 — the Fig 2 protocol detects distributed quiescence under
/// arbitrary schedules, with bounded message overhead.
pub fn e2(scale: Scale) -> Vec<E2Row> {
    let sizes = scale.sizes(&[8, 16], &[8, 16, 32, 64, 128]);
    let seeds: u64 = match scale {
        Scale::Quick => 5,
        Scale::Full => 25,
    };
    let mut rows = Vec::new();
    let mut workloads: Vec<_> = sizes.iter().map(|&n| scenarios::tc_cycle(n)).collect();
    workloads.push(scenarios::sg_tree(3, 3, 1));
    workloads.push(scenarios::tc_nonlinear_chain(
        sizes[sizes.len() - 1].min(48),
    ));
    for w in workloads {
        let fifo = run_engine(&w.program, &w.db, SipKind::Greedy);
        let expect = Engine::new(w.program.clone(), w.db.clone())
            .evaluate()
            .unwrap()
            .answers
            .sorted_rows();
        let mut agreeing = 0;
        for seed in 0..seeds {
            let got = Engine::new(w.program.clone(), w.db.clone())
                .with_runtime(RuntimeKind::Sim(Schedule::Random(seed)))
                .evaluate()
                .unwrap()
                .answers
                .sorted_rows();
            if got == expect {
                agreeing += 1;
            }
        }
        let work = fifo.messages - fifo.protocol_messages;
        rows.push(E2Row {
            workload: w.name,
            work_messages: work,
            protocol_messages: fifo.protocol_messages,
            overhead: fifo.protocol_messages as f64 / work.max(1) as f64,
            probe_waves: fifo.probe_waves,
            schedules_tried: seeds as u32,
            schedules_agreeing: agreeing,
        });
    }
    rows
}

/// E3 row: monotone flow vs the cyclic rule (Figs 3–4, Example 4.1).
#[derive(Clone, Debug)]
pub struct E3Row {
    /// `r2` (monotone) or `r3` (cyclic).
    pub rule: String,
    /// Relation size parameter (× fanout 4 = b/c sizes).
    pub n: usize,
    /// Fraction of R3 triangle joins that actually succeed.
    pub overlap: f64,
    /// SIP strategy.
    pub sip: String,
    /// Answers.
    pub answers: usize,
    /// Largest rule-node stage relation — the intermediate the monotone
    /// flow property bounds.
    pub max_stage: u64,
    /// Intermediate-to-final blowup (max stage / answers).
    pub blowup: f64,
    /// Stored tuples.
    pub stored: u64,
}

/// E3 — the monotone rule R2's intermediates grow monotonically (bounded
/// by the final result size); R3's "inherently cyclic structure … can
/// produce intermediate results that are much larger than the final
/// results, even when the subgoals' relations are pairwise consistent"
/// (§1.2, §4).
pub fn e3(scale: Scale) -> Vec<E3Row> {
    let sizes = scale.sizes(&[32], &[64, 128, 256]);
    let fanout = 4;
    let mut rows = Vec::new();
    for &n in sizes {
        for sip in [SipKind::QualTree, SipKind::Greedy, SipKind::AllFree] {
            let mut run = |rule: &str, overlap: f64, w: &mp_workloads::Workload| {
                let er = run_engine(&w.program, &w.db, sip);
                rows.push(E3Row {
                    rule: rule.to_string(),
                    n,
                    overlap,
                    sip: sip.name().to_string(),
                    answers: er.answers,
                    max_stage: er.max_stage,
                    blowup: er.max_stage as f64 / (er.answers.max(1)) as f64,
                    stored: er.stored,
                });
            };
            run("r2", 1.0, &scenarios::r2(n, fanout, 1));
            for &overlap in &[0.1, 0.5] {
                run("r3", overlap, &scenarios::r3(n, fanout, overlap, 1));
            }
        }
    }
    rows
}

/// E4 row: qual tree composition (Fig 5, Thm 4.2).
#[derive(Clone, Debug)]
pub struct E4Row {
    /// Composition depth (number of resolutions applied).
    pub depth: usize,
    /// Body length of the extended rule.
    pub body_len: usize,
    /// The composed tree satisfies the qual tree property.
    pub composed_valid: bool,
    /// Re-testing the extended rule from scratch is still monotone.
    pub monotone_preserved: bool,
    /// Microseconds per composition.
    pub micros_per_compose: f64,
}

/// E4 — composing qual trees under resolution preserves the qual tree
/// property at every recursive extension depth.
pub fn e4(scale: Scale) -> Vec<E4Row> {
    let depths = scale.sizes(&[4, 8], &[4, 8, 16, 32, 64]);
    let bound: BTreeSet<Var> = BTreeSet::from([Var::new("X")]);
    let inner = mp_datalog::parser::parse_rule("c(X, Z) :- a(X, Y), b(Y, U), c(U, Z).").unwrap();
    let mut rows = Vec::new();
    for &depth in depths {
        let seed = || {
            let rule = mp_hypergraph::examples::r1();
            match monotone_flow(&rule, &bound) {
                MonotoneFlow::Monotone(qt) => (rule, qt),
                MonotoneFlow::Cyclic(_) => unreachable!("R1 is monotone"),
            }
        };
        let ((rule, all_valid), millis) = measure(1, seed, |(mut rule, mut qt)| {
            let mut all_valid = true;
            for _ in 0..depth {
                let qi = match monotone_flow(&inner, &bound) {
                    MonotoneFlow::Monotone(qt) => qt,
                    MonotoneFlow::Cyclic(_) => unreachable!("chain rule is monotone"),
                };
                let last = rule.body.len() - 1;
                let comp = compose(&rule, &qt, last, &inner, &qi).expect("leaf resolution");
                all_valid &= comp.qual_tree.verify().is_ok();
                rule = comp.rule;
                qt = comp.qual_tree;
            }
            (rule, all_valid)
        });
        rows.push(E4Row {
            depth,
            body_len: rule.body.len(),
            composed_valid: all_valid,
            monotone_preserved: monotone_flow(&rule, &bound).is_monotone(),
            micros_per_compose: millis * 1e3 / depth as f64,
        });
    }
    rows
}

/// E5 row: nonlinear recursion (§1.2 vs Henschen–Naqvi's restriction).
#[derive(Clone, Debug)]
pub struct E5Row {
    /// Workload.
    pub workload: String,
    /// Whether a linear-recursion-only compiler applies (§1.1).
    pub linear_method_applicable: bool,
    /// Method.
    pub method: String,
    /// Answers.
    pub answers: usize,
    /// Stored tuples.
    pub stored: u64,
    /// Milliseconds.
    pub millis: f64,
}

/// E5 — nonlinear recursion evaluates correctly where linear-only
/// compilation does not apply at all.
pub fn e5(scale: Scale) -> Vec<E5Row> {
    let n = match scale {
        Scale::Quick => 16,
        Scale::Full => 64,
    };
    let mut rows = Vec::new();
    for w in [
        scenarios::tc_nonlinear_chain(n),
        scenarios::sg_tree(4, 2, 3),
        scenarios::p1_chain(n),
    ] {
        let analysis = DependencyAnalysis::of(&w.program);
        let linear = analysis.program_is_linear(&w.program);
        let er = run_engine(&w.program, &w.db, SipKind::Greedy);
        rows.push(E5Row {
            workload: w.name.clone(),
            linear_method_applicable: linear,
            method: er.method,
            answers: er.answers,
            stored: er.stored,
            millis: er.millis,
        });
        for ev in [
            &SemiNaive as &dyn mp_baselines::Evaluator,
            &MagicSets::default(),
        ] {
            let br = run_baseline(ev, &w.program, &w.db);
            rows.push(E5Row {
                workload: w.name.clone(),
                linear_method_applicable: linear,
                method: br.method,
                answers: br.answers,
                stored: br.stored,
                millis: br.millis,
            });
        }
    }
    rows
}

/// E6 row: SIP strategy comparison (Def 2.4).
#[derive(Clone, Debug)]
pub struct E6Row {
    /// Relation size.
    pub n: usize,
    /// SIP strategy.
    pub sip: String,
    /// Answers.
    pub answers: usize,
    /// Stored tuples.
    pub stored: u64,
    /// Messages.
    pub messages: u64,
    /// Join probes.
    pub join_probes: u64,
}

/// The E6 program: a three-way join written *backwards* (the bound
/// variable reaches the textually last subgoal), so left-to-right
/// evaluation starts with an unbound scan while greedy reorders.
fn e6_workload(n: usize) -> (mp_datalog::Program, Database) {
    let program = mp_datalog::parser::parse_program(
        "p(X, Z) :- c(U, Z), b(Y, U), a(X, Y).
         ?- p(0, Z).",
    )
    .unwrap();
    let mut db = Database::new();
    // a: 0 → {0..k}; b: shift by 1; c: shift by 1. Point query touches a
    // k-sized slice; full relations are n-sized.
    for i in 0..n as i64 {
        db.insert("a", mp_storage::tuple![i, i + 1]).unwrap();
        db.insert("b", mp_storage::tuple![i + 1, i + 2]).unwrap();
        db.insert("c", mp_storage::tuple![i + 2, i + 3]).unwrap();
    }
    (program, db)
}

/// E6 — greedy SIP ("maximally pushed forward" `d` arguments) beats
/// Prolog order and no-sideways on intermediate sizes.
pub fn e6(scale: Scale) -> Vec<E6Row> {
    let sizes = scale.sizes(&[64], &[128, 512, 2048]);
    let mut rows = Vec::new();
    for &n in sizes {
        let (program, db) = e6_workload(n);
        for sip in SipKind::ALL {
            let er = run_engine(&program, &db, sip);
            rows.push(E6Row {
                n,
                sip: sip.name().to_string(),
                answers: er.answers,
                stored: er.stored,
                messages: er.messages,
                join_probes: er.join_probes,
            });
        }
    }
    rows
}

/// E7 row: parallel execution (§1.2's parallelism claim).
#[derive(Clone, Debug)]
pub struct E7Row {
    /// Independent branches in the query.
    pub branches: usize,
    /// Runtime.
    pub runtime: String,
    /// Answers.
    pub answers: usize,
    /// Milliseconds (median of 3).
    pub millis: f64,
}

/// A program with `k` independent *nonlinear* recursive branches, each
/// over its own edge relation — substantial per-branch work (quadratic
/// derivations) with no cross-branch dependencies, the shape where
/// one-process-per-node parallelism can pay.
fn e7_workload(k: usize, n: usize) -> (mp_datalog::Program, Database) {
    let mut src = String::new();
    let mut db = Database::new();
    for b in 0..k {
        src.push_str(&format!(
            "p{b}(X, Y) :- e{b}(X, Y).
             p{b}(X, Z) :- p{b}(X, Y), p{b}(Y, Z).
             goal(X) :- p{b}(0, X).\n"
        ));
        graphs::chain(&mut db, &format!("e{b}"), n);
    }
    (mp_datalog::parser::parse_program(&src).unwrap(), db)
}

/// E7 — the threaded runtime exploits independent branches without any
/// shared memory.
pub fn e7(scale: Scale) -> Vec<E7Row> {
    let (branches, n) = match scale {
        Scale::Quick => (vec![1, 4], 32),
        Scale::Full => (vec![1, 2, 4, 8], 96),
    };
    let mut rows = Vec::new();
    for &k in &branches {
        let (program, db) = e7_workload(k, n);
        for (runtime, label) in [
            (RuntimeKind::Sim(Schedule::Fifo), "sim"),
            (RuntimeKind::Threads, "threads"),
        ] {
            let mut times: Vec<f64> = (0..3)
                .map(|_| run_engine_with(&program, &db, SipKind::Greedy, runtime).millis)
                .collect();
            times.sort_by(f64::total_cmp);
            let er = run_engine_with(&program, &db, SipKind::Greedy, runtime);
            rows.push(E7Row {
                branches: k,
                runtime: label.to_string(),
                answers: er.answers,
                millis: times[1],
            });
        }
    }
    rows
}

/// E8 row: graph size independence (Thm 2.1).
#[derive(Clone, Debug)]
pub struct E8Row {
    /// Program.
    pub program: String,
    /// EDB fact count.
    pub edb_facts: usize,
    /// Rule/goal graph nodes.
    pub graph_nodes: usize,
    /// Goal nodes a single-processor implementation could coalesce
    /// (§2.2's remark; we follow the paper and keep them separate).
    pub coalescible: usize,
}

/// E8 — the rule/goal graph's size depends only on the IDB, never on the
/// EDB.
pub fn e8(scale: Scale) -> Vec<E8Row> {
    let sizes = scale.sizes(&[4, 64], &[4, 64, 1024, 16384]);
    let mut rows = Vec::new();
    for &n in sizes {
        for (name, w) in [
            ("p1", scenarios::p1_chain(n)),
            ("tc-linear", scenarios::tc_chain(n)),
            ("same-generation", {
                let mut db = Database::new();
                graphs::chain(&mut db, "up", n);
                graphs::chain(&mut db, "down", n);
                graphs::chain(&mut db, "flat", n);
                mp_workloads::Workload {
                    name: String::from("sg"),
                    program: programs::same_generation(0),
                    db,
                }
            }),
        ] {
            let g = RuleGoalGraph::build(&w.program, &w.db, SipKind::Greedy).unwrap();
            rows.push(E8Row {
                program: name.to_string(),
                edb_facts: w.db.fact_count(),
                graph_nodes: g.len(),
                coalescible: g.coalescible_nodes(),
            });
        }
    }
    rows
}

/// E9 row: the §4.3 cost model against measurement.
#[derive(Clone, Debug)]
pub struct E9Row {
    /// Rule under test.
    pub rule: String,
    /// Subgoal order (original indices).
    pub order: String,
    /// Model-predicted total cost (log10).
    pub predicted_cost_log10: f64,
    /// Model-predicted max intermediate (log10).
    pub predicted_max_log10: f64,
    /// Measured stored tuples for the engine under the SIP realizing
    /// this order.
    pub measured_stored: u64,
    /// Whether the model ranks this order optimal.
    pub model_optimal: bool,
}

/// E9 — the greedy/qual-tree order is the model-optimal one for monotone
/// rules, and the model's ranking matches the measured ranking of
/// realizable orders.
pub fn e9(scale: Scale) -> Vec<E9Row> {
    let n = match scale {
        Scale::Quick => 64,
        Scale::Full => 512,
    };
    let model = CostModel::new(0.3, n as f64);
    let bound: BTreeSet<Var> = BTreeSet::from([Var::new("X")]);
    let mut rows = Vec::new();

    // The backwards chain rule of E6: three orders of interest.
    let (program, db) = e6_workload(n);
    let rule = program.pidb_rules().next().unwrap().clone();
    let (best_order, best) = optimal_order(&model, &rule, &bound);
    for (sip, order) in [
        (SipKind::Greedy, vec![2usize, 1, 0]),
        (SipKind::LeftToRight, vec![0usize, 1, 2]),
    ] {
        let pred = predict(&model, &rule, &order, &bound);
        let er = run_engine(&program, &db, sip);
        rows.push(E9Row {
            rule: "backwards-chain".into(),
            order: format!("{order:?} ({})", sip.name()),
            predicted_cost_log10: pred.total_cost.log10(),
            predicted_max_log10: pred.max_intermediate.log10(),
            measured_stored: er.stored,
            model_optimal: pred.total_cost <= best.total_cost * (1.0 + 1e-9),
        });
    }
    rows.push(E9Row {
        rule: "backwards-chain".into(),
        order: format!("{best_order:?} (model optimum)"),
        predicted_cost_log10: best.total_cost.log10(),
        predicted_max_log10: best.max_intermediate.log10(),
        measured_stored: 0,
        model_optimal: true,
    });

    // R2: qual-tree BFS order vs the enumerated optimum.
    let r2 = mp_hypergraph::examples::r2();
    let (r2_best_order, r2_best) = optimal_order(&model, &r2, &bound);
    let qt_order = match monotone_flow(&r2, &bound) {
        MonotoneFlow::Monotone(qt) => qt.bfs_subgoal_order(),
        MonotoneFlow::Cyclic(_) => unreachable!("R2 is monotone"),
    };
    let qt_pred = predict(&model, &r2, &qt_order, &bound);
    rows.push(E9Row {
        rule: "R2".into(),
        order: format!("{qt_order:?} (qual-tree)"),
        predicted_cost_log10: qt_pred.total_cost.log10(),
        predicted_max_log10: qt_pred.max_intermediate.log10(),
        measured_stored: 0,
        model_optimal: qt_pred.total_cost <= r2_best.total_cost * (1.0 + 1e-9),
    });
    rows.push(E9Row {
        rule: "R2".into(),
        order: format!("{r2_best_order:?} (model optimum)"),
        predicted_cost_log10: r2_best.total_cost.log10(),
        predicted_max_log10: r2_best.max_intermediate.log10(),
        measured_stored: 0,
        model_optimal: true,
    });
    rows
}

/// A1 row: packaged tuple requests (§3.1 footnote 2).
#[derive(Clone, Debug)]
pub struct A1Row {
    /// Workload.
    pub workload: String,
    /// Request frames at batch size 1 — one per binding, so also the
    /// logical request count at either size.
    pub plain_requests: u64,
    /// Request frames at batch size 64.
    pub batched_requests: u64,
    /// Total messages without batching.
    pub plain_total: u64,
    /// Total messages with batching.
    pub batched_total: u64,
}

/// A1 — ablation of the packaged-tuple-request extension: strong
/// reductions on fan-out workloads, neutral on sequential chains.
pub fn a1(scale: Scale) -> Vec<A1Row> {
    let (n, m) = match scale {
        Scale::Quick => (40, 160),
        Scale::Full => (120, 600),
    };
    let mut rows = Vec::new();
    for w in [
        scenarios::tc_random(n, m, 3),
        scenarios::sg_tree(4, 3, 1),
        scenarios::tc_chain(n),
    ] {
        let plain = Engine::new(w.program.clone(), w.db.clone())
            .evaluate()
            .expect("plain");
        let batched = Engine::new(w.program.clone(), w.db.clone())
            .with_batch_size(64)
            .evaluate()
            .expect("batched");
        assert_eq!(plain.answers, batched.answers, "{}", w.name);
        assert_eq!(
            plain.stats.tuple_requests, batched.stats.logical_tuple_requests,
            "{}",
            w.name
        );
        rows.push(A1Row {
            workload: w.name,
            plain_requests: plain.stats.tuple_requests,
            batched_requests: batched.stats.tuple_requests,
            plain_total: plain.stats.total_messages(),
            batched_total: batched.stats.total_messages(),
        });
    }
    rows
}

/// A2 row: cost-based SIP from EDB statistics (§1.2 extension).
#[derive(Clone, Debug)]
pub struct A2Row {
    /// Relation size parameter.
    pub n: usize,
    /// Strategy.
    pub sip: String,
    /// Answers.
    pub answers: usize,
    /// Messages.
    pub messages: u64,
    /// Stored tuples.
    pub stored: u64,
}

/// A2 — ablation of the statistics-driven strategy on skewed
/// cardinalities where bound-argument counting ties.
pub fn a2(scale: Scale) -> Vec<A2Row> {
    let sizes = scale.sizes(&[64], &[64, 256, 1024]);
    let mut rows = Vec::new();
    for &n in sizes {
        let program = mp_datalog::parser::parse_program(
            "p(X, Z) :- big(X, Y), tiny(X, W), link(Y, W, Z).
             ?- p(0, Z).",
        )
        .unwrap();
        let mut db = Database::new();
        for x in 0..4i64 {
            db.insert("tiny", mp_storage::tuple![x, x + 5000]).unwrap();
            for y in 0..n as i64 {
                db.insert("big", mp_storage::tuple![x, y + 1000]).unwrap();
            }
        }
        for y in 0..n as i64 {
            for x in 0..4i64 {
                db.insert("link", mp_storage::tuple![y + 1000, x + 5000, y])
                    .unwrap();
            }
        }
        for sip in [SipKind::Greedy, SipKind::CostBased, SipKind::LeftToRight] {
            let er = run_engine(&program, &db, sip);
            rows.push(A2Row {
                n,
                sip: sip.name().to_string(),
                answers: er.answers,
                messages: er.messages,
                stored: er.stored,
            });
        }
    }
    rows
}

/// E10 row: evaluation under injected faults (chaos sweep).
#[derive(Clone, Debug)]
pub struct E10Row {
    /// Workload.
    pub workload: String,
    /// Fault plan family (`none`, `seeded`, `seeded+crash`).
    pub plan: String,
    /// Seeded runs aggregated into this row.
    pub runs: u64,
    /// Logical messages per run (mean over seeds).
    pub messages: u64,
    /// Faults injected, summed over seeds.
    pub faults_injected: u64,
    /// Retransmissions, summed over seeds.
    pub retransmits: u64,
    /// Duplicate deliveries discarded, summed over seeds.
    pub dups_discarded: u64,
    /// Node crashes fired, summed over seeds.
    pub crashes: u64,
    /// Crashes recovered by log replay (epoch bumps), summed over seeds.
    pub recovered: u64,
    /// Every seeded run terminated with exactly one `End` and the
    /// fault-free answer set (Thm 3.1 observables).
    pub answers_ok: bool,
}

/// E10 — evaluation under faults: for each canonical recursive workload,
/// sweep seeded fault plans (drop/duplicate/delay/corrupt, then the same
/// with two scheduled node crashes) and check the Thm 3.1 observables
/// against the fault-free run. The `none` row doubles as the clean-path
/// overhead check: zero faults, zero retransmissions.
pub fn e10(scale: Scale) -> Vec<E10Row> {
    let seeds: u64 = match scale {
        Scale::Quick => 4,
        Scale::Full => 32,
    };
    let workloads = [
        scenarios::tc_chain(6),
        scenarios::tc_cycle(5),
        scenarios::tc_nonlinear_chain(4),
        scenarios::odd_even_chain(6),
    ];
    let mut rows = Vec::new();
    for w in workloads {
        let clean = Engine::new(w.program.clone(), w.db.clone())
            .with_fault_plan(FaultPlan::default())
            .evaluate()
            .expect("clean run");
        let expected = clean.answers.sorted_rows();
        let nodes = clean.graph_nodes;
        rows.push(E10Row {
            workload: w.name.clone(),
            plan: "none".into(),
            runs: 1,
            messages: clean.stats.total_messages(),
            faults_injected: clean.stats.faults_injected(),
            retransmits: clean.stats.retransmits,
            dups_discarded: clean.stats.dups_discarded,
            crashes: clean.stats.crashes,
            recovered: clean.stats.epoch_bumps,
            answers_ok: true,
        });
        for with_crashes in [false, true] {
            let mut agg = E10Row {
                workload: w.name.clone(),
                plan: if with_crashes {
                    "seeded+crash".into()
                } else {
                    "seeded".into()
                },
                runs: seeds,
                messages: 0,
                faults_injected: 0,
                retransmits: 0,
                dups_discarded: 0,
                crashes: 0,
                recovered: 0,
                answers_ok: true,
            };
            for seed in 0..seeds {
                let mut plan = FaultPlan::seeded(seed);
                if with_crashes {
                    plan = plan
                        .with_crash((seed as usize * 7 + 1) % nodes, 1 + seed % 3)
                        .with_crash((seed as usize * 13 + 3) % nodes, 4 + seed % 5);
                }
                let r = Engine::new(w.program.clone(), w.db.clone())
                    .with_fault_plan(plan)
                    .evaluate()
                    .expect("faulty run");
                agg.messages += r.stats.total_messages() / seeds;
                agg.faults_injected += r.stats.faults_injected();
                agg.retransmits += r.stats.retransmits;
                agg.dups_discarded += r.stats.dups_discarded;
                agg.crashes += r.stats.crashes;
                agg.recovered += r.stats.epoch_bumps;
                agg.answers_ok &= r.engine_ends == 1
                    && r.post_end_answers == 0
                    && r.answers.sorted_rows() == expected;
            }
            rows.push(agg);
        }
    }
    rows
}

/// E11 row: scalar vs vectorized data plane.
#[derive(Clone, Debug)]
pub struct E11Row {
    /// Workload.
    pub workload: String,
    /// Flush bound (`scalar` = 1: every item is its own frame).
    pub batch: String,
    /// Answers.
    pub answers: usize,
    /// Logical answer tuples moved (batch-invariant).
    pub logical_answers: u64,
    /// Physical frames delivered (`Stats::total_messages`).
    pub physical_frames: u64,
    /// Wall time in milliseconds (best of the measured repetitions).
    pub millis: f64,
    /// Logical answer tuples per second of wall time.
    pub tuples_per_sec: f64,
    /// Throughput relative to the scalar row of the same workload.
    pub speedup: f64,
}

/// E11 — data-plane vectorization: logical answer throughput of the
/// scalar path vs batched frames at flush bounds 4 and 64, on a fan-out
/// transitive closure and a nonlinear recursion. Answer sets and logical
/// counts are asserted identical across rows — batching only changes
/// physical framing (§3.1 footnote 2, extended upward).
///
/// Runs go over the self-healing transport with a zero-fault plan: in
/// the bare simulator a frame costs one queue push, so framing is free
/// and vectorization cannot show; on the wire each frame carries a
/// sequence number, a checksum, an ack, and a retransmission-log entry,
/// which is the per-frame cost batching amortizes.
pub fn e11(scale: Scale) -> Vec<E11Row> {
    let ((n, m), depth, reps) = match scale {
        Scale::Quick => ((60, 240), 8, 1),
        Scale::Full => ((800, 12_000), 12, 5),
    };
    let mut rows = Vec::new();
    for w in [
        scenarios::tc_random(n, m, 7),
        scenarios::tc_nonlinear_chain(depth),
    ] {
        let mut wrows = Vec::new();
        let mut scalar_answers = Vec::new();
        let mut scalar_logical = 0u64;
        // Batch size 1 is the scalar framing and the speedup baseline.
        for batch in [1usize, 4, 64] {
            let (r, millis) = measure(
                reps,
                || {
                    Engine::new(w.program.clone(), w.db.clone())
                        .with_fault_plan(FaultPlan::default())
                        .with_batch_size(batch)
                },
                |eng| eng.evaluate().expect("e11 run"),
            );
            if batch == 1 {
                scalar_answers = r.answers.sorted_rows();
                scalar_logical = r.stats.logical_answers;
            } else {
                // The vectorized plane must be semantically invisible.
                assert_eq!(r.answers.sorted_rows(), scalar_answers, "{}", w.name);
                assert_eq!(r.stats.logical_answers, scalar_logical, "{}", w.name);
            }
            let rate = r.stats.logical_answers as f64 / (millis / 1e3).max(1e-9);
            wrows.push(E11Row {
                workload: w.name.clone(),
                batch: if batch == 1 {
                    "scalar".into()
                } else {
                    batch.to_string()
                },
                answers: r.answers.len(),
                logical_answers: r.stats.logical_answers,
                physical_frames: r.stats.total_messages(),
                millis,
                tuples_per_sec: rate,
                speedup: 1.0,
            });
        }
        let base_rate = wrows
            .iter()
            .find(|r| r.batch == "scalar")
            .map(|r| r.tuples_per_sec)
            .unwrap_or(1.0);
        for r in &mut wrows {
            r.speedup = r.tuples_per_sec / base_rate.max(1e-9);
        }
        rows.extend(wrows);
    }
    rows
}

/// E14 row: resource-governance overhead.
#[derive(Clone, Debug)]
pub struct E14Row {
    /// Workload.
    pub workload: String,
    /// Governance configuration (see [`e14`]).
    pub governance: String,
    /// Answers.
    pub answers: usize,
    /// Logical messages moved (governance-invariant).
    pub logical_messages: u64,
    /// Frames held back by the credit window (`Stats::credits_stalled`).
    pub stalls: u64,
    /// Wall time in milliseconds (best of the measured repetitions).
    pub millis: f64,
    /// Logical messages per second of wall time.
    pub msgs_per_sec: f64,
    /// Wall-time ratio vs this workload's baseline row: `off` for the
    /// bare-simulator rows, `wired` for the transport rows.
    pub overhead: f64,
}

/// E14 — resource governance on the clean path: the governor meters
/// every run (steps, wall clock, arena + mailbox bytes, logical
/// messages), so its cost must vanish when no limit trips. Five
/// configurations per workload:
///
/// * `off` — the engine exactly as a pre-governance caller sees it;
/// * `unlimited` — an explicit `QueryBudget::default()` (no resource
///   limits, metering only);
/// * `headroom` — message *and* byte limits set far above what the run
///   uses, so every limit comparison executes and none trips;
/// * `wired` — the self-healing transport with a zero-fault plan and no
///   window (the E11 baseline);
/// * `wired+window` — the same transport under a mailbox bound, so
///   credit admission runs on every frame and some frames stall.
///
/// Answers are asserted identical across all five rows, logical
/// traffic identical across every un-windowed row, and no cancel wave
/// may fire: governance is observable only in the error path and the
/// stats. (The windowed row may spend a few extra *protocol* messages
/// — stalled frames shift quiescence timing, so the leader can need an
/// extra probe round; its answers and data traffic still match.)
pub fn e14(scale: Scale) -> Vec<E14Row> {
    let ((n, m), depth, reps) = match scale {
        Scale::Quick => ((60, 240), 8, 1),
        Scale::Full => ((800, 12_000), 12, 5),
    };
    let headroom = QueryBudget::new()
        .with_max_messages(u64::MAX >> 1)
        .with_max_bytes(u64::MAX >> 1);
    let configs: [(&str, Option<QueryBudget>, bool); 5] = [
        ("off", None, false),
        ("unlimited", Some(QueryBudget::default()), false),
        ("headroom", Some(headroom), false),
        ("wired", None, true),
        (
            "wired+window",
            Some(QueryBudget::new().with_mailbox_bound(4)),
            true,
        ),
    ];
    let mut rows = Vec::new();
    for w in [
        scenarios::tc_random(n, m, 7),
        scenarios::tc_nonlinear_chain(depth),
    ] {
        let mut wrows = Vec::new();
        let mut base_answers = Vec::new();
        let mut group_logical: Option<u64> = None;
        for (name, budget, wired) in &configs {
            if *name == "wired" {
                // The windowed row is exempt from the logical-invariance
                // check: stalling frames shifts quiescence timing, and
                // the leader may spend an extra probe round (a handful
                // of protocol messages) discovering the fixpoint. Data
                // traffic and answers are still asserted identical.
                group_logical = None;
            }
            let (r, millis) = measure(
                reps,
                || {
                    let mut eng = Engine::new(w.program.clone(), w.db.clone());
                    if *wired {
                        eng = eng.with_fault_plan(FaultPlan::default());
                    }
                    if let Some(b) = budget {
                        eng = eng.with_budget(b.clone());
                    }
                    eng
                },
                |eng| eng.evaluate().expect("e14 run"),
            );
            if *name == "off" {
                base_answers = r.answers.sorted_rows();
            } else {
                assert_eq!(
                    r.answers.sorted_rows(),
                    base_answers,
                    "{}: governance changed the fixpoint",
                    w.name
                );
            }
            let logical = r.stats.logical_messages();
            if *name != "wired+window" {
                match group_logical {
                    None => group_logical = Some(logical),
                    Some(g) => {
                        assert_eq!(logical, g, "{}: governance changed logical traffic", w.name)
                    }
                }
            }
            assert_eq!(r.stats.cancel_waves, 0, "{}: a clean run tripped", w.name);
            let rate = logical as f64 / (millis / 1e3).max(1e-9);
            wrows.push(E14Row {
                workload: w.name.clone(),
                governance: (*name).into(),
                answers: r.answers.len(),
                logical_messages: logical,
                stalls: r.stats.credits_stalled,
                millis,
                msgs_per_sec: rate,
                overhead: 1.0,
            });
        }
        let base = |g: &str| {
            wrows
                .iter()
                .find(|r: &&E14Row| r.governance == g)
                .map(|r| r.millis)
                .unwrap_or(1.0)
        };
        let (clean_ms, wired_ms) = (base("off"), base("wired"));
        for r in &mut wrows {
            let b = if r.governance.starts_with("wired") {
                wired_ms
            } else {
                clean_ms
            };
            r.overhead = r.millis / b.max(1e-9);
        }
        rows.extend(wrows);
    }
    rows
}

/// E12 row: tracing overhead.
#[derive(Clone, Debug)]
pub struct E12Row {
    /// Workload.
    pub workload: String,
    /// Runtime (`sim` or `threads`).
    pub runtime: String,
    /// `off` or `on`.
    pub tracing: String,
    /// Answers.
    pub answers: usize,
    /// Events recorded (0 when tracing is off).
    pub events: usize,
    /// Wall time in milliseconds (best of the measured repetitions).
    pub millis: f64,
    /// Logical answer tuples per second of wall time.
    pub tuples_per_sec: f64,
    /// Wall time relative to the tracing-off row of the same
    /// workload × runtime pair (1.0 = no measurable overhead).
    pub slowdown: f64,
}

/// E12 — cost of observation: the same workloads with mp-trace
/// recording off vs on, on both runtimes. Tracing off must be free
/// (the tracer is an `Option` checked once per call site); tracing on
/// pays one lock-free ring push plus a vector-clock merge per logical
/// event. Answer sets are asserted identical — the tracer is an
/// observer, never a participant.
///
/// At `Scale::Quick` the tracing-on slowdown is dominated by the fixed
/// cost of allocating the 2^18-slot event ring, not by per-event work;
/// the full scale amortizes it.
pub fn e12(scale: Scale) -> Vec<E12Row> {
    let ((n, m), depth, reps) = match scale {
        Scale::Quick => ((60, 240), 8, 1),
        Scale::Full => ((400, 6_000), 12, 5),
    };
    let mut rows = Vec::new();
    for w in [
        scenarios::tc_random(n, m, 7),
        scenarios::tc_nonlinear_chain(depth),
    ] {
        for (runtime, kind) in [
            ("sim", RuntimeKind::Sim(Schedule::Fifo)),
            ("threads", RuntimeKind::Threads),
        ] {
            let mut base_millis = f64::INFINITY;
            let mut base_answers = Vec::new();
            for traced in [false, true] {
                let (r, millis) = measure(
                    reps,
                    || {
                        Engine::new(w.program.clone(), w.db.clone())
                            .with_runtime(kind)
                            .with_budget(
                                QueryBudget::new()
                                    .with_deadline(std::time::Duration::from_secs(60)),
                            )
                            .with_trace(traced)
                    },
                    |eng| eng.evaluate().expect("e12 run"),
                );
                if !traced {
                    base_millis = millis;
                    base_answers = r.answers.sorted_rows();
                    assert!(r.events.is_none(), "{}: untraced run recorded", w.name);
                } else {
                    // Observation must not perturb the result.
                    assert_eq!(r.answers.sorted_rows(), base_answers, "{}", w.name);
                }
                let rate = r.stats.logical_answers as f64 / (millis / 1e3).max(1e-9);
                rows.push(E12Row {
                    workload: w.name.clone(),
                    runtime: runtime.to_string(),
                    tracing: if traced { "on" } else { "off" }.to_string(),
                    answers: r.answers.len(),
                    events: r.events.as_ref().map_or(0, |t| t.events.len()),
                    millis,
                    tuples_per_sec: rate,
                    slowdown: millis / base_millis.max(1e-9),
                });
            }
        }
    }
    rows
}

/// E13 row: worker-pool scaling.
#[derive(Clone, Debug)]
pub struct E13Row {
    /// Workload.
    pub workload: String,
    /// Pool size (`sim` = the deterministic simulator baseline).
    pub workers: String,
    /// Answers.
    pub answers: usize,
    /// Logical answer tuples moved (schedule-invariant).
    pub logical_answers: u64,
    /// Scheduler activations (mailbox drains; 0 on the simulator).
    pub activations: u64,
    /// Activations stolen across worker deques.
    pub steals: u64,
    /// Wall time in milliseconds (best of the measured repetitions).
    pub millis: f64,
    /// Logical answer tuples per second of wall time.
    pub tuples_per_sec: f64,
    /// Throughput relative to the workers-1 row of the same workload.
    pub speedup: f64,
}

/// E13 — worker-pool scaling: the work-stealing node scheduler at pool
/// sizes 1/2/4/8 against the deterministic simulator, on a fan-out
/// transitive closure and a same-generation tree. Answer sets and the
/// schedule-invariant logical counters are asserted identical on every
/// row (Thm 3.1/4.1: the physical schedule — including who steals what
/// — is unobservable); what the pool buys is wall-clock, reported as
/// tuples/sec and speedup over the single-worker pool.
pub fn e13(scale: Scale) -> Vec<E13Row> {
    let ((n, m), (depth, fanout), reps) = match scale {
        Scale::Quick => ((60, 240), (6, 2), 1),
        Scale::Full => ((400, 6_000), (9, 3), 5),
    };
    let mut rows = Vec::new();
    for w in [
        scenarios::tc_random(n, m, 7),
        scenarios::sg_tree(depth, fanout, 11),
    ] {
        // Schedule-invariant ground truth: the deterministic simulator.
        let sim = Engine::new(w.program.clone(), w.db.clone())
            .evaluate()
            .expect("e13 sim baseline");
        let sim_answers = sim.answers.sorted_rows();
        let sim_logical = (
            sim.stats.relation_requests,
            sim.stats.logical_tuple_requests,
            sim.stats.logical_answers,
            sim.stats.logical_end_tuple_requests,
        );
        rows.push(E13Row {
            workload: w.name.clone(),
            workers: "sim".into(),
            answers: sim.answers.len(),
            logical_answers: sim.stats.logical_answers,
            activations: sim.stats.sched_activations,
            steals: sim.stats.sched_steals,
            millis: 0.0,
            tuples_per_sec: 0.0,
            speedup: 0.0,
        });
        let mut wrows = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            let (r, millis) = measure(
                reps,
                || {
                    Engine::new(w.program.clone(), w.db.clone())
                        .with_runtime(RuntimeKind::Threads)
                        .with_budget(
                            QueryBudget::new().with_deadline(std::time::Duration::from_secs(120)),
                        )
                        .with_workers(workers)
                },
                |eng| eng.evaluate().expect("e13 pooled run"),
            );
            // The pool must be observably the simulator (Thm 3.1/4.1).
            assert_eq!(r.answers.sorted_rows(), sim_answers, "{}", w.name);
            assert_eq!(
                (
                    r.stats.relation_requests,
                    r.stats.logical_tuple_requests,
                    r.stats.logical_answers,
                    r.stats.logical_end_tuple_requests,
                ),
                sim_logical,
                "{}: logical counters diverged at {workers} workers",
                w.name
            );
            let rate = r.stats.logical_answers as f64 / (millis / 1e3).max(1e-9);
            wrows.push(E13Row {
                workload: w.name.clone(),
                workers: workers.to_string(),
                answers: r.answers.len(),
                logical_answers: r.stats.logical_answers,
                activations: r.stats.sched_activations,
                steals: r.stats.sched_steals,
                millis,
                tuples_per_sec: rate,
                speedup: 1.0,
            });
        }
        let base_rate = wrows
            .iter()
            .find(|r| r.workers == "1")
            .map(|r| r.tuples_per_sec)
            .unwrap_or(1.0);
        for r in &mut wrows {
            r.speedup = r.tuples_per_sec / base_rate.max(1e-9);
        }
        rows.extend(wrows);
    }
    rows
}

/// E15 row: sharded evaluation.
#[derive(Clone, Debug)]
pub struct E15Row {
    /// Workload.
    pub workload: String,
    /// Runtime (`sim` or `threads`).
    pub runtime: String,
    /// Shard count K.
    pub shards: usize,
    /// Answers.
    pub answers: usize,
    /// Logical answer tuples moved (shard-invariant).
    pub logical_answers: u64,
    /// Logical items hash-routed across shard links (0 at K=1).
    pub routed_frames: u64,
    /// Worst per-arc routed-item count (hash skew high-water).
    pub max_skew: u64,
    /// Wall time in milliseconds.
    pub millis: f64,
}

/// The engine of one E15/E16 row: `K` shards on the simulator or, for
/// `"threads"`, on the pool under a two-minute deadline.
fn sharded_engine(w: &mp_workloads::Workload, runtime: &str, k: usize) -> Engine {
    let eng = Engine::new(w.program.clone(), w.db.clone()).with_shards(k);
    if runtime == "threads" {
        eng.with_runtime(RuntimeKind::Threads)
            .with_budget(QueryBudget::new().with_deadline(std::time::Duration::from_secs(120)))
    } else {
        eng
    }
}

/// E15 — sharded evaluation: K-way replication of request-keyed nodes
/// with deterministic hash routing, on a random transitive closure and
/// a same-generation tree. Every row asserts the sharding contract
/// in-experiment: answers and the shard-invariant counters (logical
/// traffic, derived/stored tuples, join probes, EDB lookups) are
/// bit-identical to the unsharded simulator run, on both runtimes, at
/// every K — what varies is only where the work lives, reported as
/// frames routed across shard links and the observed hash skew.
pub fn e15(scale: Scale) -> Vec<E15Row> {
    let ((n, m), (depth, fanout)) = match scale {
        Scale::Quick => ((60, 240), (6, 2)),
        Scale::Full => ((400, 6_000), (9, 3)),
    };
    let mut rows = Vec::new();
    for w in [
        scenarios::tc_random(n, m, 7),
        scenarios::sg_tree(depth, fanout, 11),
    ] {
        // Shard-invariant ground truth: the K=1 deterministic simulator.
        let base = Engine::new(w.program.clone(), w.db.clone())
            .evaluate()
            .expect("e15 unsharded baseline");
        let base_answers = base.answers.sorted_rows();
        let invariant = |s: &mp_engine::Stats| {
            (
                s.logical_tuple_requests,
                s.logical_answers,
                s.logical_end_tuple_requests,
                s.derived_tuples,
                s.stored_tuples,
                s.join_probes,
                s.edb_lookups,
            )
        };
        let mut routed_somewhere = false;
        for (runtime, ks) in [("sim", &[1usize, 2, 4, 8][..]), ("threads", &[1, 4][..])] {
            for &k in ks {
                let (r, millis) = measure(
                    1,
                    || sharded_engine(&w, runtime, k),
                    |eng| eng.evaluate().expect("e15 sharded run"),
                );
                // The sharding contract, asserted on every row.
                assert_eq!(
                    r.answers.sorted_rows(),
                    base_answers,
                    "{} {runtime} K={k}: answers diverged from K=1",
                    w.name
                );
                assert_eq!(
                    invariant(&r.stats),
                    invariant(&base.stats),
                    "{} {runtime} K={k}: a shard-invariant counter diverged",
                    w.name
                );
                if k == 1 {
                    assert_eq!(
                        r.stats.shard_routed_frames, 0,
                        "{} {runtime}: router engaged at K=1",
                        w.name
                    );
                }
                routed_somewhere |= r.stats.shard_routed_frames > 0;
                rows.push(E15Row {
                    workload: w.name.clone(),
                    runtime: runtime.into(),
                    shards: k,
                    answers: r.answers.len(),
                    logical_answers: r.stats.logical_answers,
                    routed_frames: r.stats.shard_routed_frames,
                    max_skew: r.stats.shard_max_skew,
                    millis,
                });
            }
        }
        assert!(
            routed_somewhere,
            "{}: no K ever routed a frame across a shard link — E15 is vacuous",
            w.name
        );
    }
    rows
}

/// E16 row: staged stratified evaluation.
#[derive(Clone, Debug)]
pub struct E16Row {
    /// Workload.
    pub workload: String,
    /// Runtime (`sim` or `threads`).
    pub runtime: String,
    /// Shard count K.
    pub shards: usize,
    /// Engine runs in the stratum pipeline.
    pub strata: u64,
    /// Answers.
    pub answers: usize,
    /// Logical answer tuples moved (schedule-invariant, summed over
    /// strata).
    pub logical_answers: u64,
    /// Wall time in milliseconds.
    pub millis: f64,
}

/// E16 — staged stratified evaluation: the win-move game (negation) and
/// aggregate-reachability (a fold over a recursive closure), evaluated
/// as a pipeline of engine runs where each stratum's answers become the
/// next stratum's EDB. Every row asserts the soundness contract
/// in-experiment: the staged answers equal the perfect model computed by
/// the independent `PerfectModel` baseline, on both runtimes and at
/// every shard count, and the pipeline really stages (more than one
/// engine run). What the table tracks across commits is the staging
/// cost: strata counts, summed logical traffic, and wall time.
pub fn e16(scale: Scale) -> Vec<E16Row> {
    use mp_baselines::{Evaluator, PerfectModel};
    let ((wm_n, wm_m), (ar_n, ar_m, ar_src)) = match scale {
        Scale::Quick => ((48, 96), (60, 180, 6)),
        Scale::Full => ((600, 2_400), (400, 3_200, 24)),
    };
    let mut rows = Vec::new();
    for w in [
        scenarios::win_move(wm_n, wm_m, 7),
        scenarios::agg_reachability(ar_n, ar_m, ar_src, 11),
    ] {
        let expect = PerfectModel
            .evaluate(&w.program, &w.db)
            .expect("e16 oracle")
            .answers
            .sorted_rows();
        for (runtime, ks) in [("sim", &[1usize, 4][..]), ("threads", &[1, 4][..])] {
            for &k in ks {
                let (r, millis) = measure(
                    1,
                    || sharded_engine(&w, runtime, k),
                    |eng| eng.evaluate().expect("e16 staged run"),
                );
                // The soundness contract, asserted on every row.
                assert_eq!(
                    r.answers.sorted_rows(),
                    expect,
                    "{} {runtime} K={k}: staged answers diverged from the perfect model",
                    w.name
                );
                assert!(
                    r.stats.strata_evaluated > 1,
                    "{} {runtime} K={k}: a stratified workload ran unstaged",
                    w.name
                );
                rows.push(E16Row {
                    workload: w.name.clone(),
                    runtime: runtime.into(),
                    shards: k,
                    strata: r.stats.strata_evaluated,
                    answers: r.answers.len(),
                    logical_answers: r.stats.logical_answers,
                    millis,
                });
            }
        }
    }
    rows
}

/// One experiment: report id, section title, and a renderer of its rows
/// at a scale, as JSON (`true`) or markdown.
pub type Experiment = (&'static str, &'static str, fn(Scale, bool) -> String);

fn render<T: Row>(rows: &[T], json: bool) -> String {
    if json {
        json_table(rows)
    } else {
        markdown_table(rows)
    }
}

/// A registry entry for the experiment function `$id`: its name is the
/// report id.
macro_rules! experiment {
    ($id:ident, $title:literal) => {
        (stringify!($id), $title, |scale, json| {
            render(&$id(scale), json)
        })
    };
}

/// Every experiment, in report order. The `report` binary and
/// [`full_report`] both iterate this list.
pub const EXPERIMENTS: &[Experiment] = &[
    experiment!(e1, "E1 — P1 across methods (Fig 1)"),
    experiment!(e2, "E2 — termination protocol (Fig 2, Thm 3.1)"),
    experiment!(e3, "E3 — monotone flow vs cyclic rule (Figs 3–4)"),
    experiment!(e4, "E4 — qual tree composition (Fig 5, Thm 4.2)"),
    experiment!(e5, "E5 — nonlinear recursion (§1.2)"),
    experiment!(e6, "E6 — SIP strategies (Def 2.4)"),
    experiment!(e7, "E7 — parallel execution (§1.2)"),
    experiment!(e8, "E8 — graph size independence (Thm 2.1)"),
    experiment!(e9, "E9 — §4.3 cost model"),
    experiment!(e10, "E10 — evaluation under faults (chaos sweep)"),
    experiment!(e11, "E11 — data-plane vectorization (tuples/sec)"),
    experiment!(e12, "E12 — tracing overhead (mp-trace off vs on)"),
    experiment!(e13, "E13 — worker-pool scaling (work-stealing scheduler)"),
    experiment!(e14, "E14 — resource-governance overhead (clean path)"),
    experiment!(e15, "E15 — sharded evaluation (K-way hash routing)"),
    experiment!(
        e16,
        "E16 — staged stratified evaluation (negation + aggregates)"
    ),
    experiment!(a1, "A1 — packaged tuple requests (ablation, §3.1 fn 2)"),
    experiment!(
        a2,
        "A2 — cost-based SIP from EDB statistics (ablation, §1.2)"
    ),
];

/// Run every experiment at the given scale and render markdown.
pub fn full_report(scale: Scale) -> String {
    let started = Instant::now();
    let mut out = format!("# Experiment report\n\nscale: {scale:?}\n");
    for (_, title, table) in EXPERIMENTS {
        out.push_str(&format!("\n## {title}\n\n{}", table(scale, false)));
    }
    out.push_str(&format!(
        "\n(total report time: {:.1}s)\n",
        started.elapsed().as_secs_f64()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_engine_stores_less_than_naive() {
        let rows = e1(Scale::Quick);
        let n = rows.iter().map(|r| r.n).max().unwrap();
        let engine = rows
            .iter()
            .find(|r| r.n == n && r.method.starts_with("engine"))
            .unwrap();
        let naive = rows
            .iter()
            .find(|r| r.n == n && r.method == "naive")
            .unwrap();
        assert_eq!(engine.answers, naive.answers);
        assert!(
            engine.idb_tuples < naive.stored,
            "engine idb {} vs naive {}",
            engine.idb_tuples,
            naive.stored
        );
    }

    #[test]
    fn e2_all_schedules_agree_and_overhead_bounded() {
        for row in e2(Scale::Quick) {
            assert_eq!(
                row.schedules_tried, row.schedules_agreeing,
                "{} diverged",
                row.workload
            );
            assert!(row.probe_waves >= 2, "{}: two-wave minimum", row.workload);
        }
    }

    #[test]
    fn e3_cyclic_rule_blows_up_monotone_does_not() {
        let rows = e3(Scale::Quick);
        let pick = |rule: &str, sip: &str, ov: f64| {
            rows.iter()
                .find(|r| r.rule == rule && r.sip == sip && (r.overlap - ov).abs() < 1e-9)
                .unwrap_or_else(|| panic!("missing {rule}/{sip}/{ov}"))
        };
        // All strategies agree on answers per rule.
        assert_eq!(
            pick("r3", "greedy", 0.1).answers,
            pick("r3", "all-free", 0.1).answers
        );
        // The monotone rule's intermediates are bounded by the final
        // result; the cyclic rule's exceed it by a wide margin.
        let r2 = pick("r2", "greedy", 1.0);
        assert!(
            r2.blowup <= 1.0 + 1e-9,
            "monotone blowup {} should not exceed 1",
            r2.blowup
        );
        let r3 = pick("r3", "greedy", 0.1);
        assert!(
            r3.blowup > 4.0,
            "cyclic blowup {} should be large",
            r3.blowup
        );
    }

    #[test]
    fn e4_composition_always_valid() {
        for row in e4(Scale::Quick) {
            assert!(row.composed_valid);
            assert!(row.monotone_preserved);
            assert_eq!(row.body_len, 3 + 2 * row.depth);
        }
    }

    #[test]
    fn e5_nonlinear_workloads_reject_linear_compilation() {
        let rows = e5(Scale::Quick);
        let nonlinear: Vec<_> = rows
            .iter()
            .filter(|r| r.workload.contains("nonlinear") || r.workload.starts_with("p1"))
            .collect();
        assert!(!nonlinear.is_empty());
        for r in &nonlinear {
            assert!(!r.linear_method_applicable, "{}", r.workload);
        }
        // All methods agree on answers per workload.
        for w in rows
            .iter()
            .map(|r| r.workload.clone())
            .collect::<BTreeSet<_>>()
        {
            let answers: BTreeSet<usize> = rows
                .iter()
                .filter(|r| r.workload == w)
                .map(|r| r.answers)
                .collect();
            assert_eq!(answers.len(), 1, "{w} methods disagree: {answers:?}");
        }
    }

    #[test]
    fn e6_greedy_beats_left_to_right() {
        let rows = e6(Scale::Quick);
        let greedy = rows.iter().find(|r| r.sip == "greedy").unwrap();
        let ltr = rows.iter().find(|r| r.sip == "left-to-right").unwrap();
        assert_eq!(greedy.answers, ltr.answers);
        assert!(
            greedy.stored < ltr.stored,
            "greedy {} vs ltr {}",
            greedy.stored,
            ltr.stored
        );
    }

    #[test]
    fn e7_runtimes_agree() {
        let rows = e7(Scale::Quick);
        for k in [1usize, 4] {
            let sim = rows
                .iter()
                .find(|r| r.branches == k && r.runtime == "sim")
                .unwrap();
            let thr = rows
                .iter()
                .find(|r| r.branches == k && r.runtime == "threads")
                .unwrap();
            assert_eq!(sim.answers, thr.answers);
        }
    }

    #[test]
    fn e8_graph_size_constant_in_edb() {
        let rows = e8(Scale::Quick);
        for prog in ["p1", "tc-linear", "same-generation"] {
            let sizes: BTreeSet<usize> = rows
                .iter()
                .filter(|r| r.program == prog)
                .map(|r| r.graph_nodes)
                .collect();
            assert_eq!(sizes.len(), 1, "{prog} graph size varied: {sizes:?}");
        }
    }

    #[test]
    fn e9_greedy_and_qual_tree_orders_are_model_optimal() {
        let rows = e9(Scale::Quick);
        let greedy = rows.iter().find(|r| r.order.contains("greedy")).unwrap();
        assert!(greedy.model_optimal);
        let ltr = rows
            .iter()
            .find(|r| r.order.contains("left-to-right"))
            .unwrap();
        assert!(!ltr.model_optimal);
        assert!(greedy.measured_stored < ltr.measured_stored);
        let qt = rows.iter().find(|r| r.order.contains("qual-tree")).unwrap();
        assert!(qt.model_optimal);
    }

    #[test]
    fn a1_batching_helps_fanout_not_chains() {
        let rows = a1(Scale::Quick);
        let random = rows
            .iter()
            .find(|r| r.workload.starts_with("tc-random"))
            .unwrap();
        assert!(random.batched_requests < random.plain_requests);
        let chain = rows
            .iter()
            .find(|r| r.workload.starts_with("tc-chain"))
            .unwrap();
        assert_eq!(
            chain.batched_requests, chain.plain_requests,
            "chains have nothing to package"
        );
    }

    #[test]
    fn a2_cost_based_no_worse_than_greedy() {
        let rows = a2(Scale::Quick);
        let greedy = rows.iter().find(|r| r.sip == "greedy").unwrap();
        let cost = rows.iter().find(|r| r.sip == "cost-based").unwrap();
        assert_eq!(greedy.answers, cost.answers);
        assert!(cost.messages <= greedy.messages);
    }

    #[test]
    fn e10_faulty_runs_match_fault_free_answers() {
        let rows = e10(Scale::Quick);
        assert!(rows.iter().all(|r| r.answers_ok), "Thm 3.1 observables");
        for r in rows.iter().filter(|r| r.plan == "none") {
            assert_eq!(r.faults_injected, 0, "{}: clean-path faults", r.workload);
            assert_eq!(r.retransmits, 0, "{}: clean-path overhead", r.workload);
        }
        assert!(rows
            .iter()
            .filter(|r| r.plan == "seeded")
            .all(|r| r.faults_injected > 0));
        let crash_rows: Vec<_> = rows.iter().filter(|r| r.plan == "seeded+crash").collect();
        assert!(crash_rows.iter().all(|r| r.recovered == r.crashes));
        assert!(crash_rows.iter().map(|r| r.crashes).sum::<u64>() > 0);
    }

    #[test]
    fn e11_batching_cuts_frames_without_touching_logical_traffic() {
        // Wall-clock throughput is machine-dependent and asserted nowhere;
        // the deterministic claims are: identical answers and logical
        // counts per workload (checked inside e11 itself), and strictly
        // fewer physical frames at flush bound 64 than on the scalar path.
        let rows = e11(Scale::Quick);
        for w in rows
            .iter()
            .map(|r| r.workload.clone())
            .collect::<BTreeSet<_>>()
        {
            let of = |b: &str| rows.iter().find(|r| r.workload == w && r.batch == b);
            let scalar = of("scalar").unwrap();
            let b64 = of("64").unwrap();
            assert_eq!(scalar.answers, b64.answers, "{w}");
            assert_eq!(scalar.logical_answers, b64.logical_answers, "{w}");
            assert!(
                b64.physical_frames < scalar.physical_frames,
                "{w}: batch 64 sent {} frames vs scalar {}",
                b64.physical_frames,
                scalar.physical_frames
            );
        }
    }

    #[test]
    fn e14_governance_is_invisible_on_the_clean_path() {
        // Wall-clock overhead is machine-dependent and asserted nowhere;
        // the deterministic claims are: identical answers across every
        // configuration and identical logical traffic within each
        // transport group (checked inside e14 itself), zero cancel
        // waves, and credit stalls observed only — and somewhere — on
        // the windowed transport rows.
        let rows = e14(Scale::Quick);
        for r in &rows {
            assert!(r.overhead > 0.0, "{} {}", r.workload, r.governance);
            if r.governance != "wired+window" {
                assert_eq!(
                    r.stalls, 0,
                    "{} {}: stalled without a window",
                    r.workload, r.governance
                );
            }
        }
        assert!(
            rows.iter()
                .any(|r| r.governance == "wired+window" && r.stalls > 0),
            "a mailbox bound of 4 must stall at least one frame somewhere"
        );
    }

    #[test]
    fn e15_sharding_is_observably_unsharded() {
        // The invariance contract (answers + shard-invariant counters
        // identical to K=1 at every K, both runtimes) is asserted inside
        // e15 itself; what the rows must additionally show is that the
        // router never engages at K=1, does engage at some K>1, and that
        // skew never exceeds the routed total.
        let rows = e15(Scale::Quick);
        assert!(!rows.is_empty());
        for r in &rows {
            if r.shards == 1 {
                assert_eq!(r.routed_frames, 0, "{}: routed at K=1", r.workload);
            }
            assert!(
                r.max_skew <= r.routed_frames,
                "{} {} K={}: skew exceeds total",
                r.workload,
                r.runtime,
                r.shards
            );
        }
        assert!(
            rows.iter().any(|r| r.shards > 1 && r.routed_frames > 0),
            "no row ever routed a frame across a shard link"
        );
    }

    #[test]
    fn e16_staging_is_observably_sound() {
        // Oracle equality and staged-ness (strata > 1) are asserted
        // inside e16 itself, per row; what the rows must additionally
        // show is the full matrix (2 workloads x 2 runtimes x 2 shard
        // counts) and that the stratum count is a property of the
        // program, invariant across runtime and shard count.
        let rows = e16(Scale::Quick);
        assert_eq!(rows.len(), 8);
        for w in ["win-move", "agg-reach"] {
            let strata: BTreeSet<u64> = rows
                .iter()
                .filter(|r| r.workload.contains(w))
                .map(|r| r.strata)
                .collect();
            assert_eq!(
                strata.len(),
                1,
                "{w}: stratum count varied across runtimes/shards: {strata:?}"
            );
        }
    }

    #[test]
    fn e13_pool_is_observably_the_simulator() {
        // Wall-clock speedup is machine-dependent and asserted nowhere;
        // the deterministic claims are: identical answers and logical
        // counters vs the simulator at every pool size (checked inside
        // e13 itself), scheduler counters present exactly on pooled rows,
        // and an activation for (at least) every processed message.
        let rows = e13(Scale::Quick);
        for r in &rows {
            if r.workers == "sim" {
                assert_eq!(
                    r.activations, 0,
                    "{}: sim row reports pool work",
                    r.workload
                );
                assert_eq!(r.steals, 0, "{}: sim row reports steals", r.workload);
            } else {
                assert!(
                    r.activations > 0,
                    "{} workers {}: no activations recorded",
                    r.workload,
                    r.workers
                );
            }
        }
        for w in rows
            .iter()
            .map(|r| r.workload.clone())
            .collect::<BTreeSet<_>>()
        {
            let of = |k: &str| rows.iter().find(|r| r.workload == w && r.workers == k);
            let sim = of("sim").unwrap();
            for k in ["1", "2", "4", "8"] {
                let pooled = of(k).unwrap();
                assert_eq!(pooled.answers, sim.answers, "{w} workers {k}");
                assert_eq!(
                    pooled.logical_answers, sim.logical_answers,
                    "{w} workers {k}"
                );
            }
        }
    }

    /// Consume one JSON value from the front of `s` (RFC 8259 grammar,
    /// escapes checked by shape only); `None` if it is malformed.
    fn json_value(s: &str) -> Option<&str> {
        let s = s.trim_start();
        let number = |c: char| c.is_ascii_digit() || "+-.eE".contains(c);
        match s.chars().next()? {
            '"' => {
                let mut chars = s[1..].char_indices();
                while let Some((i, c)) = chars.next() {
                    match c {
                        '"' => return Some(&s[i + 2..]),
                        '\\' => drop(chars.next()?),
                        c if (c as u32) < 0x20 => return None,
                        _ => {}
                    }
                }
                None
            }
            open @ ('[' | '{') => {
                let close = if open == '[' { ']' } else { '}' };
                let mut rest = s[1..].trim_start();
                if let Some(rest) = rest.strip_prefix(close) {
                    return Some(rest);
                }
                loop {
                    if open == '{' {
                        rest = json_value(rest).filter(|_| rest.starts_with('"'))?;
                        rest = rest.trim_start().strip_prefix(':')?;
                    }
                    rest = json_value(rest)?.trim_start();
                    match rest.strip_prefix(',') {
                        Some(more) => rest = more.trim_start(),
                        None => return rest.strip_prefix(close),
                    }
                }
            }
            c if number(c) => {
                let end = s.find(|c| !number(c)).unwrap_or(s.len());
                s[..end].parse::<f64>().ok().map(|_| &s[end..])
            }
            _ => ["true", "false", "null"]
                .iter()
                .find_map(|lit| s.strip_prefix(lit)),
        }
    }

    #[test]
    fn json_value_accepts_json_and_nothing_else() {
        for good in [
            "[]",
            "[\n  {\"a\": 1, \"b\": -2.5000, \"c\": \"x\\\"y\", \"d\": true, \"e\": null}\n]\n",
        ] {
            assert_eq!(json_value(good).map(str::trim), Some(""), "{good}");
        }
        for bad in [
            "[1,]",
            "{\"a\" 1}",
            "{1: 2}",
            "[NaN]",
            "[\"open]",
            "[1 2]",
            "[1",
        ] {
            assert_ne!(json_value(bad).map(str::trim), Some(""), "{bad}");
        }
    }

    #[test]
    fn every_registry_entry_has_its_own_id_and_renders() {
        let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
        for (id, _, table) in EXPERIMENTS {
            let md = table(Scale::Quick, false);
            assert!(
                md.starts_with("| ") && md.lines().count() >= 3,
                "{id}: {md}"
            );
            let json = table(Scale::Quick, true);
            assert!(json.starts_with("[\n  {"), "{id}: {json}");
            assert_eq!(json_value(&json).map(str::trim), Some(""), "{id}: {json}");
        }
    }

    #[test]
    fn full_report_has_one_section_per_registry_entry() {
        let report = full_report(Scale::Quick);
        for (_, title, _) in EXPERIMENTS {
            assert_eq!(report.matches(title).count(), 1, "{title}");
        }
        assert_eq!(report.matches("\n## ").count(), EXPERIMENTS.len());
    }

    #[test]
    fn markdown_rendering_smoke() {
        let rows = e8(Scale::Quick);
        let md = markdown_table(&rows);
        assert!(md.starts_with('|'));
        assert!(md.contains("graph_nodes"));
    }
}
