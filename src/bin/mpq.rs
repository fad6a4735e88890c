//! `mpq` — evaluate Datalog queries with the message passing framework.
//!
//! ```text
//! mpq [OPTIONS] [FILE]            read a program (facts + rules + ?- query)
//!                                 from FILE, or stdin when omitted
//!
//!   --sip <greedy|left-to-right|all-free|qual-tree|cost-based>
//!   --schedule <fifo|random:SEED> simulator delivery order
//!   --threads                     worker-pool runtime (work-stealing
//!                                 node scheduler)
//!   --workers N                   pool size (implies --threads; 0 or
//!                                 omitted = available parallelism)
//!   --shards K                    replicate every request-keyed node K
//!                                 ways; requests and head answers route
//!                                 by partition-key hash (answers are
//!                                 bit-identical to --shards 1; MP108
//!                                 warns when no node can split)
//!   --chaos SEED                  inject seeded link faults (drop,
//!                                 duplicate, delay, corrupt) and rely
//!                                 on the recovery transport
//!   --no-recovery                 crashes abort instead of replaying
//!   --deadline SECS               wall-clock budget (default 60)
//!   --msg-budget N                logical-message budget; crossing it
//!                                 cancels the run, keeping partial
//!                                 answers and per-node accounting
//!   --mem-budget BYTES            memory high-water budget (interned
//!                                 arena + mailbox payload bytes)
//!   --mailbox-bound N             per-link credit window: bounds node
//!                                 mailboxes by backpressure (takes
//!                                 effect with --chaos, where the
//!                                 seq/ack transport carries credits)
//!   --stats                       print instrumentation counters
//!   --dot                         print the rule/goal graph (Graphviz)
//!                                 instead of evaluating
//!   --explain                     compile only: print analysis warnings
//!                                 and the annotated plan (per-node
//!                                 cardinality/volume estimates,
//!                                 partition keys, and the shard fan-out
//!                                 each node gets at --shards K)
//!   --trace FILE                  record the clock-stamped event trace
//!                                 and write it (mptrace v2 text) to
//!                                 FILE; `-` writes to stderr
//!   --check                       verify the recorded trace against the
//!                                 protocol invariant suite (implies
//!                                 tracing); violations print as MP3xx
//!                                 diagnostics and fail the run
//!   --baseline <naive|semi-naive|relevant|magic|top-down>
//!                                 evaluate with a baseline instead
//! ```

use mp_datalog::{parser::parse_program, Database};
use mp_framework::baselines::all_baselines;
use mp_framework::engine::{Engine, FaultPlan, QueryBudget, RuntimeKind, Schedule};
use mp_framework::rulegoal::{dot, RuleGoalGraph, SipKind};
use std::io::Read;
use std::process::ExitCode;

struct Options {
    file: Option<String>,
    sip: SipKind,
    runtime: RuntimeKind,
    workers: Option<usize>,
    shards: Option<usize>,
    chaos: Option<u64>,
    recovery: bool,
    deadline: Option<u64>,
    msg_budget: Option<u64>,
    mem_budget: Option<u64>,
    mailbox_bound: Option<usize>,
    stats: bool,
    dot: bool,
    explain: bool,
    trace: Option<String>,
    check: bool,
    baseline: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        file: None,
        sip: SipKind::Greedy,
        runtime: RuntimeKind::Sim(Schedule::Fifo),
        workers: None,
        shards: None,
        chaos: None,
        recovery: true,
        deadline: None,
        msg_budget: None,
        mem_budget: None,
        mailbox_bound: None,
        stats: false,
        dot: false,
        explain: false,
        trace: None,
        check: false,
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sip" => {
                let v = args.next().ok_or("--sip needs a value")?;
                opts.sip = SipKind::ALL
                    .into_iter()
                    .find(|s| s.name() == v)
                    .ok_or_else(|| format!("unknown sip strategy `{v}`"))?;
            }
            "--schedule" => {
                let v = args.next().ok_or("--schedule needs a value")?;
                let schedule = if v == "fifo" {
                    Schedule::Fifo
                } else if let Some(seed) = v.strip_prefix("random:") {
                    Schedule::Random(seed.parse().map_err(|_| "bad seed")?)
                } else {
                    return Err(format!("unknown schedule `{v}`"));
                };
                opts.runtime = RuntimeKind::Sim(schedule);
            }
            "--threads" => opts.runtime = RuntimeKind::Threads,
            "--workers" => {
                let v = args.next().ok_or("--workers needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad worker count `{v}`"))?;
                opts.workers = Some(n);
                opts.runtime = RuntimeKind::Threads;
            }
            "--shards" => {
                let v = args.next().ok_or("--shards needs a value")?;
                let k: usize = v.parse().map_err(|_| format!("bad shard count `{v}`"))?;
                if k == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                opts.shards = Some(k);
            }
            "--chaos" => {
                let v = args.next().ok_or("--chaos needs a seed")?;
                opts.chaos = Some(v.parse().map_err(|_| "bad chaos seed")?);
            }
            "--no-recovery" => opts.recovery = false,
            "--deadline" => {
                let v = args.next().ok_or("--deadline needs seconds")?;
                opts.deadline = Some(v.parse().map_err(|_| format!("bad deadline `{v}`"))?);
            }
            "--msg-budget" => {
                let v = args.next().ok_or("--msg-budget needs a count")?;
                opts.msg_budget = Some(v.parse().map_err(|_| format!("bad msg budget `{v}`"))?);
            }
            "--mem-budget" => {
                let v = args.next().ok_or("--mem-budget needs bytes")?;
                opts.mem_budget = Some(v.parse().map_err(|_| format!("bad mem budget `{v}`"))?);
            }
            "--mailbox-bound" => {
                let v = args.next().ok_or("--mailbox-bound needs a count")?;
                let n: usize = v.parse().map_err(|_| format!("bad mailbox bound `{v}`"))?;
                if n == 0 {
                    return Err("--mailbox-bound must be at least 1".to_string());
                }
                opts.mailbox_bound = Some(n);
            }
            "--stats" => opts.stats = true,
            "--dot" => opts.dot = true,
            "--explain" => opts.explain = true,
            "--trace" => {
                opts.trace = Some(args.next().ok_or("--trace needs a file (or `-`)")?);
            }
            "--check" => opts.check = true,
            "--baseline" => {
                opts.baseline = Some(args.next().ok_or("--baseline needs a value")?);
            }
            "--help" | "-h" => {
                return Err(String::new()); // triggers usage
            }
            other if !other.starts_with('-') && opts.file.is_none() => {
                opts.file = Some(other.to_string());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

const USAGE: &str = "usage: mpq [--sip S] [--schedule fifo|random:SEED] [--threads] \
[--workers N] [--shards K] [--chaos SEED] [--no-recovery] \
[--deadline SECS] [--msg-budget N] [--mem-budget BYTES] [--mailbox-bound N] [--stats] \
[--dot] [--explain] [--trace FILE] [--check] [--baseline B] [FILE]";

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("mpq: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let source = match &opts.file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mpq: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut s = String::new();
            if std::io::stdin().read_to_string(&mut s).is_err() {
                eprintln!("mpq: cannot read stdin");
                return ExitCode::FAILURE;
            }
            s
        }
    };

    let program = match parse_program(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mpq: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut db = Database::new();
    if let Err(e) = program.load_facts(&mut db) {
        eprintln!("mpq: {e}");
        return ExitCode::FAILURE;
    }

    if opts.dot {
        match RuleGoalGraph::build(&program, &db, opts.sip) {
            Ok(g) => {
                print!("{}", dot::to_dot(&g));
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("mpq: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(name) = &opts.baseline {
        let Some(ev) = all_baselines().into_iter().find(|b| b.name() == name) else {
            eprintln!("mpq: unknown baseline `{name}`");
            return ExitCode::FAILURE;
        };
        match ev.evaluate(&program, &db) {
            Ok(r) => {
                for t in r.answers.sorted_rows() {
                    println!("{t}");
                }
                if opts.stats {
                    eprintln!("-- {name}: {:?}", r.stats);
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("mpq: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let tracing = opts.trace.is_some() || opts.check;
    let mut engine = Engine::new(program, db)
        .with_sip(opts.sip)
        .with_runtime(opts.runtime)
        .with_recovery(opts.recovery)
        .with_trace(tracing);
    if let Some(n) = opts.workers {
        engine = engine.with_workers(n);
    }
    if let Some(k) = opts.shards {
        engine = engine.with_shards(k);
    }
    if let Some(seed) = opts.chaos {
        engine = engine.with_fault_plan(FaultPlan::seeded(seed));
    }
    if opts.deadline.is_some()
        || opts.msg_budget.is_some()
        || opts.mem_budget.is_some()
        || opts.mailbox_bound.is_some()
    {
        let mut budget = QueryBudget::new();
        if let Some(secs) = opts.deadline {
            budget = budget.with_deadline(std::time::Duration::from_secs(secs));
        }
        if let Some(n) = opts.msg_budget {
            budget = budget.with_max_messages(n);
        }
        if let Some(b) = opts.mem_budget {
            budget = budget.with_max_bytes(b);
        }
        if let Some(n) = opts.mailbox_bound {
            budget = budget.with_mailbox_bound(n);
        }
        engine = engine.with_budget(budget);
    }
    if opts.explain {
        // Compile only: static verification + abstract interpretation,
        // no evaluation. Warnings go to stderr, the plan to stdout.
        let name = opts.file.as_deref().unwrap_or("<stdin>");
        return match engine.compile() {
            Ok(compiled) => {
                for d in &compiled.warnings {
                    eprint!("{}", d.render(name, &source));
                }
                print!(
                    "{}",
                    compiled.analysis.render_explain(opts.shards.unwrap_or(1))
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mpq: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match engine.evaluate() {
        Ok(r) => {
            for t in r.answers.sorted_rows() {
                println!("{t}");
            }
            if let Some(events) = &r.events {
                if let Some(path) = &opts.trace {
                    let text = events.to_text();
                    if path == "-" {
                        eprint!("{text}");
                    } else if let Err(e) = std::fs::write(path, text) {
                        eprintln!("mpq: cannot write trace to {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if opts.stats {
                eprintln!("-- graph nodes        : {}", r.graph_nodes);
                eprint!("{}", r.stats);
            }
            if opts.check {
                let Some(events) = &r.events else {
                    eprintln!("mpq: --check requested but no trace was recorded");
                    return ExitCode::FAILURE;
                };
                let diags = mp_framework::trace::check(events);
                if !diags.is_empty() {
                    for d in &diags {
                        eprintln!("{}", d.render("<trace>", ""));
                    }
                    eprintln!(
                        "mpq: trace verification failed with {} violation(s)",
                        diags.len()
                    );
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "-- trace verified: {} events, no protocol violations",
                    events.events.len()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mpq: {e}");
            ExitCode::FAILURE
        }
    }
}
