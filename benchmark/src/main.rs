//! Benchmark harness for the message-passing engine.
//!
//! ```text
//! mp-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! mp-benchmark run [--seed N] [--seconds S] [--workload W] [--smoke]
//! mp-benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command invokes: it prints
//! the workload's metrics as `workload metric value unit`, then a
//! `detail` line, then — last — the result object. `run` spawns that
//! form once per workload and mode (a fresh process each: fresh
//! interner, fresh allocator, its own peak RSS), prints every metric and
//! writes `latest.json`. See README.md.

mod compare;
mod json;
mod kernels;
mod measure;
mod metrics;
mod ops;
mod procfs;
mod span;
mod stats;
mod workloads;

use json::Json;
use measure::{Plan, Report};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Workload;

/// Default `--seed` and `--seconds` of `run`; `BENCHMARK.json` carries
/// the same `run_seconds`.
const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_OUT: &str = "benchmark/out";

struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
            smoke: false,
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if a == "--smoke" {
                args.smoke = true;
            } else if let Some(key) = a.strip_prefix("--") {
                let value = raw.next().ok_or(format!("--{key} needs a value"))?;
                args.options.push((key.to_string(), value));
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value `{v}`")),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.get("workload")
            .map(|name| {
                Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}`; known: {}", known.join(", "))
                })
            })
            .transpose()
    }

    fn plan(&self) -> Result<Plan, String> {
        if self.smoke {
            return Ok(Plan::smoke());
        }
        let seconds: f64 = self.number("seconds", DEFAULT_SECONDS)?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err(format!("--seconds: `{seconds}` is not a positive duration"));
        }
        Ok(Plan::full(seconds))
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out").unwrap_or(DEFAULT_OUT))
    }
}

fn deterministic_json(d: &ops::Deterministic) -> Json {
    let n = |v: u64| Json::Num(v as f64);
    Json::obj([
        ("answers", n(d.answers)),
        ("logical_tuple_requests", n(d.logical_tuple_requests)),
        ("logical_answers", n(d.logical_answers)),
        (
            "logical_end_tuple_requests",
            n(d.logical_end_tuple_requests),
        ),
        ("stored_tuples", n(d.stored_tuples)),
        ("join_probes", n(d.join_probes)),
        // Simulator workloads only: the pool's framing depends on timing.
        ("physical_frames", d.physical_frames.map_or(Json::Null, n)),
        ("rulegoal.nodes", n(d.rulegoal_nodes)),
    ])
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process. Prints the metric table, a `detail`
/// line for `run`, and the result object last.
fn single(args: &Args, w: Workload) -> Result<ExitCode, String> {
    let seed: u64 = args.number("seed", DEFAULT_SEED)?;
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
    };
    let plan = args.plan()?;
    let report: Report = if traced {
        measure::per_layer(w, seed, plan)?
    } else {
        measure::end_to_end(w, seed, plan)?
    };
    for e in &report.errors {
        eprintln!("{}: failed op: {e}", w.name());
    }

    for m in &report.metrics {
        print!("{} {} {} {}", w.name(), m.def.name, m.value, m.def.unit);
        if m.passes.len() > 1 {
            print!(" spread {:.4}", stats::spread(&m.passes));
        }
        println!();
    }
    println!(
        "{} failed_share {} ratio",
        w.name(),
        report.failed as f64 / report.attempted as f64
    );
    if traced {
        let path = args.out_dir().join(format!("trace-{}.json", w.name()));
        write_file(
            &path,
            &span::to_json(w.name(), seed, &report.spans).to_string(),
        )?;
        for (name, share) in measure::self_time_shares(&report.spans) {
            println!("{} self_time_share.{name} {share:.4} ratio", w.name());
        }
    }

    let detail = Json::obj([
        ("workload", Json::Str(w.name().to_string())),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Bool(traced)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|m| {
                (
                    m.def.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.def.unit.to_string())),
                        ("spread", Json::Num(stats::spread(&m.passes))),
                        (
                            "passes",
                            Json::Arr(m.passes.iter().map(|&p| Json::Num(p)).collect()),
                        ),
                    ]),
                )
            })),
        ),
        ("deterministic", deterministic_json(&report.deterministic)),
    ]);
    println!("detail {detail}");
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(report.failed == 0)),
            ("attempted", Json::Num(report.attempted as f64)),
            ("failed", Json::Num(report.failed as f64)),
            ("metrics", metrics::to_json(&report.metrics)),
        ])
    );
    Ok(ExitCode::SUCCESS)
}

/// Every workload (or the one named), each mode in a process of its
/// own; prints every metric and writes `<out>/latest.json`.
fn run(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS)?;
    // Reject a bad --seconds here, not once per spawned child.
    args.plan()?;
    let chosen = match args.workload()? {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = args.out_dir();
    let mut failed_total = 0.0;
    let mut workloads = Vec::new();
    for w in chosen {
        let mut entry = vec![];
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .arg("--out")
                .arg(&out_dir);
            if args.smoke {
                child.arg("--smoke");
            }
            // `output` waits for the child; stderr passes through.
            let output = child
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !output.status.success() {
                return Err(format!("{} (trace {trace}): {}", w.name(), output.status));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut detail = None;
            for line in stdout.lines() {
                match line.strip_prefix("detail ") {
                    Some(d) => detail = Some(Json::parse(d)?),
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            let detail = detail.ok_or(format!("{}: child printed no detail line", w.name()))?;
            let field = |k: &str| detail.get(k).cloned().unwrap_or(Json::Null);
            failed_total += field("failed").as_f64().unwrap_or(1.0);
            if trace == "0" {
                entry.push(("attempted".to_string(), field("attempted")));
                entry.push(("failed".to_string(), field("failed")));
                entry.push(("deterministic".to_string(), field("deterministic")));
            }
            entry.push((section.to_string(), field("metrics")));
        }
        workloads.push((w.name().to_string(), Json::Obj(entry)));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let latest = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("nproc", Json::Num(nproc as f64)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out_dir.join("latest.json");
    write_file(&path, &format!("{latest}\n"))?;
    eprintln!("wrote {}", path.display());
    Ok(if failed_total == 0.0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed_total} ops failed");
        ExitCode::FAILURE
    })
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: compare A.json B.json [--bounds BENCHMARK.json]".into());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let bounds = load(args.get("bounds").unwrap_or("BENCHMARK.json"))?;
    let (table, pass) = compare::compare(&load(a)?, &load(b)?, &bounds)?;
    print!("{table}");
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    match args.positional.first().map(String::as_str) {
        Some("run") => run(args),
        Some("compare") => compare_files(args),
        Some(other) => Err(format!("unknown subcommand `{other}`")),
        None => match args.workload()? {
            Some(w) => single(args, w),
            None => Err("expected --workload NAME, `run`, or `compare A.json B.json`".into()),
        },
    }
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
