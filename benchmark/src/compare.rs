//! `compare A.json B.json`: one row per (workload, end-to-end metric)
//! with both values, the ratio and its base, and a verdict against the
//! bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::spread;

/// `setup_s` on the small workloads is a few tens of milliseconds; a
/// relative bound alone would flag scheduler noise. It must also get
/// worse by more than this many seconds.
const SETUP_FLOOR_S: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// The per-pass spread is wider than the bound, and the runs do not
    /// separate cleanly: the comparison cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and the per-pass values
/// behind it.
pub struct Side {
    pub value: f64,
    pub passes: Vec<f64>,
}

impl Side {
    fn from_json(m: &Json) -> Option<Side> {
        let value = m.get("value")?.as_f64()?;
        let mut passes: Vec<f64> = m
            .get("passes")
            .map(|p| p.as_arr().iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        if passes.is_empty() {
            passes.push(value);
        }
        Some(Side { value, passes })
    }
}

pub fn judge(name: &str, lower_is_better: bool, bound: f64, a: &Side, b: &Side) -> Verdict {
    let worse_by = if lower_is_better {
        (b.value - a.value) / a.value
    } else {
        (a.value - b.value) / a.value
    };
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    if spread(&a.passes).max(spread(&b.passes)) > bound {
        let every_run_better = if lower_is_better {
            max(&b.passes) < min(&a.passes)
        } else {
            min(&b.passes) > max(&a.passes)
        };
        return if every_run_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let under_floor = name == "setup_s" && b.value - a.value <= SETUP_FLOOR_S;
    if worse_by > bound && !under_floor {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compare two result files. Returns the printed table and whether the
/// comparison passes (no `worse`, identical deterministic blocks).
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut pass = true;
    let workloads_a = a.get("workloads").ok_or("A: no `workloads`")?;
    let workloads_b = b.get("workloads").ok_or("B: no `workloads`")?;
    out.push_str("workload metric A B B/A verdict\n");
    for (workload, wa) in workloads_a.as_obj() {
        let Some(wb) = workloads_b.get(workload) else {
            out.push_str(&format!("{workload} - - - - missing-in-B\n"));
            pass = false;
            continue;
        };
        for def in benchmark
            .get("end_to_end")
            .ok_or("BENCHMARK.json: no `end_to_end`")?
            .as_arr()
        {
            let field = |k: &str| def.get(k).and_then(Json::as_str);
            let (Some(name), Some(better)) = (field("name"), field("better")) else {
                return Err("BENCHMARK.json: metric without name/better".into());
            };
            let bound = def
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: metric without bound")?;
            let side = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|m| m.get(name))
                    .and_then(Side::from_json)
            };
            let (Some(sa), Some(sb)) = (side(wa), side(wb)) else {
                // A file from a partial run (`--workload`) simply has
                // fewer rows.
                continue;
            };
            let verdict = judge(name, better == "lower", bound, &sa, &sb);
            pass &= verdict != Verdict::Worse;
            out.push_str(&format!(
                "{workload} {name} {} {} {:.4}x-of-A {}\n",
                sa.value,
                sb.value,
                sb.value / sa.value,
                verdict.label()
            ));
        }
        let (da, db) = (wa.get("deterministic"), wb.get("deterministic"));
        if da != db {
            pass = false;
            out.push_str(&format!(
                "{workload} deterministic {} {} - differs\n",
                da.unwrap_or(&Json::Null),
                db.unwrap_or(&Json::Null)
            ));
        }
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, passes: &[f64]) -> Side {
        Side {
            value,
            passes: passes.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = |v: f64| side(v, &[v * 0.99, v, v * 1.01]);
        // Lower is better, bound 10 %.
        assert_eq!(
            judge("op_ms_p50", true, 0.10, &steady(10.0), &steady(10.9)),
            Verdict::Ok
        );
        assert_eq!(
            judge("op_ms_p50", true, 0.10, &steady(10.0), &steady(11.2)),
            Verdict::Worse
        );
        assert_eq!(
            judge("op_ms_p50", true, 0.10, &steady(10.0), &steady(5.0)),
            Verdict::Ok
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            judge("ops_per_s", false, 0.10, &steady(100.0), &steady(88.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge("ops_per_s", false, 0.10, &steady(100.0), &steady(120.0)),
            Verdict::Ok
        );
        // Spread wider than the bound: cannot tell …
        let noisy = side(10.0, &[9.0, 10.0, 12.0]);
        assert_eq!(
            judge("op_ms_p50", true, 0.10, &noisy, &steady(10.5)),
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A.
        assert_eq!(
            judge("op_ms_p50", true, 0.10, &noisy, &steady(8.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn setup_needs_both_the_share_and_the_floor() {
        let one = |v: f64| side(v, &[v]);
        assert_eq!(
            judge("setup_s", true, 0.25, &one(0.04), &one(0.08)),
            Verdict::Ok
        );
        assert_eq!(
            judge("setup_s", true, 0.25, &one(1.0), &one(1.3)),
            Verdict::Worse
        );
    }

    #[test]
    fn a_changed_deterministic_block_fails_the_comparison() {
        let bench = Json::parse(
            r#"{"end_to_end": [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let file = |answers: u32| {
            Json::parse(&format!(
                r#"{{"workloads": {{"w": {{"end_to_end": {{"op_ms_p50": {{"value": 2.5, "passes": [2.5, 2.5, 2.5]}}}},
                    "deterministic": {{"answers": {answers}}}}}}}}}"#
            ))
            .unwrap()
        };
        let (table, pass) = compare(&file(10), &file(10), &bench).unwrap();
        assert!(pass, "{table}");
        assert!(table.contains("w op_ms_p50 2.5 2.5 1.0000x-of-A ok"));
        let (table, pass) = compare(&file(10), &file(11), &bench).unwrap();
        assert!(!pass);
        assert!(table.contains("differs"));
    }
}
