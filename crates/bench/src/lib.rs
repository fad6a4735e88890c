#![warn(missing_docs)]

//! # mp-bench
//!
//! The experiment harness. Every figure/theorem/claim of the paper maps
//! to one experiment (see EXPERIMENTS.md); each experiment is a plain
//! function returning table rows, listed once in
//! [`experiments::EXPERIMENTS`] and printed by the `report` binary
//! (`cargo run -p mp-bench --release --bin report`).
//!
//! The tables' subject is the deterministic columns: messages, joins,
//! stored tuples. Their `millis` columns are informational — the best of
//! a few repetitions through [`measure`], with no spread. Wall clock is
//! measured with warm-up, alternation and statistics by the standalone
//! harness in `benchmark/`, which is what a performance claim is judged
//! by.

pub mod experiments;

use mp_baselines::Evaluator;
use mp_datalog::{Database, Program};
use mp_engine::{Engine, RuntimeKind, Schedule};
use mp_rulegoal::SipKind;
use std::fmt;
use std::time::Instant;

/// One rendered table cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// Integer-valued counter.
    Int(i128),
    /// Measurement, rendered with two decimals.
    Float(f64),
    /// Label.
    Str(String),
    /// Flag.
    Bool(bool),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Float(v) => write!(f, "{v:.2}"),
            Cell::Str(s) => f.write_str(s),
            Cell::Bool(b) => write!(f, "{b}"),
        }
    }
}

macro_rules! impl_cell_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Cell { Cell::Int(v as i128) }
        }
    )*};
}
impl_cell_from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::Float(v)
    }
}
impl From<String> for Cell {
    fn from(v: String) -> Cell {
        Cell::Str(v)
    }
}
impl From<&str> for Cell {
    fn from(v: &str) -> Cell {
        Cell::Str(v.to_string())
    }
}
impl From<bool> for Cell {
    fn from(v: bool) -> Cell {
        Cell::Bool(v)
    }
}

/// A table row: ordered `(header, cell)` pairs. Replaces the serde-based
/// reflection the harness used when it could link against `serde_json`.
pub trait Row {
    /// The row's columns in display order.
    fn cells(&self) -> Vec<(&'static str, Cell)>;
}

/// Implement [`Row`] for a struct by listing its fields in column order.
#[macro_export]
macro_rules! impl_row {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Row for $ty {
            fn cells(&self) -> Vec<(&'static str, $crate::Cell)> {
                vec![$((stringify!($field), $crate::Cell::from(self.$field.clone())),)+]
            }
        }
    };
}

/// How big to run the sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small: seconds in total (CI, tests).
    Quick,
    /// The EXPERIMENTS.md scale.
    Full,
}

impl Scale {
    /// Pick a size list by scale.
    pub fn sizes<'a>(&self, quick: &'a [usize], full: &'a [usize]) -> &'a [usize] {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// One engine measurement.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Method label (`engine/greedy`, …).
    pub method: String,
    /// Answer count.
    pub answers: usize,
    /// Total messages sent.
    pub messages: u64,
    /// §3.2 protocol messages.
    pub protocol_messages: u64,
    /// Tuples stored in node-local relations (all copies; §3.1 trades
    /// space for communication).
    pub stored: u64,
    /// Distinct tuples at goal-node answer relations (comparable with a
    /// bottom-up evaluator's IDB store).
    pub goal_stored: u64,
    /// Largest single node-local relation.
    pub max_relation: u64,
    /// Largest rule-node stage relation (intermediate join results).
    pub max_stage: u64,
    /// Join probes.
    pub join_probes: u64,
    /// Probe waves completed.
    pub probe_waves: u64,
    /// Wall time in milliseconds.
    pub millis: f64,
}

/// The one stopwatch: call `run(setup())` `reps` times, timing only
/// `run`, and return the last result with the best (minimum) wall time
/// in milliseconds. With `reps > 1` one extra untimed round runs first
/// to warm caches and lazy set-up. `reps == 0` is treated as 1.
pub fn measure<I, T>(
    reps: usize,
    mut setup: impl FnMut() -> I,
    mut run: impl FnMut(I) -> T,
) -> (T, f64) {
    if reps > 1 {
        run(setup());
    }
    let mut timed = || {
        let input = setup();
        let t0 = Instant::now();
        let result = run(input);
        (result, t0.elapsed().as_secs_f64() * 1e3)
    };
    let (mut result, mut best_ms) = timed();
    for _ in 1..reps {
        let (r, ms) = timed();
        result = r;
        best_ms = best_ms.min(ms);
    }
    (result, best_ms)
}

/// Run the engine and collect an [`EngineRun`].
pub fn run_engine(program: &Program, db: &Database, sip: SipKind) -> EngineRun {
    run_engine_with(program, db, sip, RuntimeKind::Sim(Schedule::Fifo))
}

/// Run the engine with an explicit runtime.
pub fn run_engine_with(
    program: &Program,
    db: &Database,
    sip: SipKind,
    runtime: RuntimeKind,
) -> EngineRun {
    let (r, millis) = measure(
        1,
        || (),
        |()| {
            Engine::new(program.clone(), db.clone())
                .with_sip(sip)
                .with_runtime(runtime)
                .evaluate()
                .expect("engine run")
        },
    );
    EngineRun {
        method: format!("engine/{}", sip.name()),
        answers: r.answers.len(),
        messages: r.stats.total_messages(),
        protocol_messages: r.stats.protocol_messages,
        stored: r.stats.stored_tuples,
        goal_stored: r.stats.goal_stored,
        max_relation: r.stats.max_relation_size,
        max_stage: r.stats.max_stage_relation,
        join_probes: r.stats.join_probes,
        probe_waves: r.stats.probe_waves,
        millis,
    }
}

/// One baseline measurement.
#[derive(Clone, Debug)]
pub struct BaselineRun {
    /// Method label.
    pub method: String,
    /// Answer count.
    pub answers: usize,
    /// Head tuples derived (before dedup).
    pub derived: u64,
    /// Tuples stored.
    pub stored: u64,
    /// Join probes.
    pub join_probes: u64,
    /// Fixpoint iterations.
    pub iterations: u64,
    /// Wall time in milliseconds.
    pub millis: f64,
}

/// Run one baseline evaluator.
pub fn run_baseline(ev: &dyn Evaluator, program: &Program, db: &Database) -> BaselineRun {
    let (r, millis) = measure(
        1,
        || (),
        |()| ev.evaluate(program, db).expect("baseline run"),
    );
    BaselineRun {
        method: ev.name().to_string(),
        answers: r.answers.len(),
        derived: r.stats.derived_tuples,
        stored: r.stats.stored_tuples,
        join_probes: r.stats.join_probes,
        iterations: r.stats.iterations,
        millis,
    }
}

/// Render rows as a GitHub-flavoured markdown table in [`Row`] column
/// order.
pub fn markdown_table<T: Row>(rows: &[T]) -> String {
    if rows.is_empty() {
        return String::from("(no rows)\n");
    }
    let first = rows[0].cells();
    let mut out = String::new();
    out.push('|');
    for (h, _) in &first {
        out.push_str(&format!(" {h} |"));
    }
    out.push_str("\n|");
    for _ in &first {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for (_, cell) in row.cells() {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

/// Render rows as a JSON array of objects, one per row, keyed by the
/// [`Row`] headers. Hand-rolled because the harness cannot link against
/// `serde_json`; covers exactly the four [`Cell`] shapes.
pub fn json_table<T: Row>(rows: &[T]) -> String {
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  {");
        for (j, (h, cell)) in row.cells().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": ", escape(h)));
            match cell {
                Cell::Int(v) => out.push_str(&v.to_string()),
                // JSON has no NaN/Infinity literals; bench floats are
                // finite, but degrade to null rather than emit garbage.
                Cell::Float(v) if v.is_finite() => out.push_str(&format!("{v:.4}")),
                Cell::Float(_) => out.push_str("null"),
                Cell::Str(s) => out.push_str(&format!("\"{}\"", escape(s))),
                Cell::Bool(b) => out.push_str(&b.to_string()),
            }
        }
        out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    out.push_str("]\n");
    out
}

impl_row!(EngineRun {
    method,
    answers,
    messages,
    protocol_messages,
    stored,
    goal_stored,
    max_relation,
    max_stage,
    join_probes,
    probe_waves,
    millis,
});

impl_row!(BaselineRun {
    method,
    answers,
    derived,
    stored,
    join_probes,
    iterations,
    millis,
});

#[cfg(test)]
mod tests {
    use super::measure;
    use std::cell::Cell;
    use std::time::Duration;

    #[test]
    fn measure_runs_each_round_once_plus_one_warm_up() {
        for (reps, rounds) in [(1, 1), (3, 4)] {
            let (setups, runs) = (Cell::new(0), Cell::new(0));
            let (last, _) = measure(
                reps,
                || {
                    setups.set(setups.get() + 1);
                    setups.get()
                },
                |round| {
                    runs.set(runs.get() + 1);
                    round
                },
            );
            assert_eq!((setups.get(), runs.get()), (rounds, rounds), "reps {reps}");
            assert_eq!(last, rounds, "reps {reps}: the last round's result");
        }
    }

    #[test]
    fn measure_returns_the_fastest_timed_round() {
        // Warm-up, then 80 ms, 1 ms, 80 ms: only `run` is on the clock,
        // and the 1 ms round is the minimum.
        let mut naps = [0, 80, 1, 80].into_iter();
        let (_, best_ms) = measure(
            3,
            || {
                std::thread::sleep(Duration::from_millis(100));
                naps.next().expect("four rounds")
            },
            |ms| std::thread::sleep(Duration::from_millis(ms)),
        );
        assert!(
            (1.0..80.0).contains(&best_ms),
            "best of three: {best_ms} ms"
        );
    }
}
