//! Regenerate the EXPERIMENTS.md tables.
//!
//! ```sh
//! cargo run -p mp-bench --release --bin report                   # full scale
//! cargo run -p mp-bench --release --bin report -- quick          # smoke scale
//! cargo run -p mp-bench --release --bin report -- e3             # one experiment
//! cargo run -p mp-bench --release --bin report -- quick e11 --json
//! ```
//!
//! `--json` renders the selected experiment as a JSON array instead of
//! markdown (used by the CI bench-smoke job to publish artifacts); it
//! requires naming one experiment.

use mp_bench::experiments::{full_report, EXPERIMENTS};
use mp_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let json = args.iter().any(|a| a == "--json");
    let only: Option<&str> = args
        .iter()
        .find(|a| (a.starts_with('e') || a.starts_with('a')) && (a.len() == 2 || a.len() == 3))
        .map(String::as_str);

    match only {
        None if json => eprintln!("--json needs one experiment, e.g. `report quick e11 --json`"),
        None => print!("{}", full_report(scale)),
        Some(id) => match EXPERIMENTS.iter().find(|(known, ..)| *known == id) {
            Some((_, _, table)) => print!("{}", table(scale, json)),
            None => {
                let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
                eprintln!("unknown experiment {id}; use one of {}", ids.join(", "))
            }
        },
    }
}
