//! `mp-check` — verify recorded execution traces offline.
//!
//! ```text
//! mp-check [OPTIONS] [FILE...]    check mptrace files (`mpq --trace F`
//!                                 records one); reads stdin when no FILE
//!
//!   --json                        emit diagnostics as a JSON array on
//!                                 stdout (one object per diagnostic)
//!   --counts                      also print the logical message counts
//!                                 reconstructed from each trace
//! ```
//!
//! Exit status: 0 when every trace satisfies the invariant suite, 1 when
//! any diagnostic fired, 2 on usage or I/O errors.

use mp_trace::Trace;
use std::io::Read;
use std::process::ExitCode;

struct Options {
    files: Vec<String>,
    json: bool,
    counts: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        json: false,
        counts: false,
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--counts" => opts.counts = true,
            "--help" | "-h" => return Err(String::new()),
            other if !other.starts_with('-') => opts.files.push(other.to_string()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn usage() {
    eprintln!(
        "usage: mp-check [--json] [--counts] [FILE...]\n\
         checks recorded mptrace files; reads stdin when no FILE is given"
    );
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("mp-check: {msg}");
            }
            usage();
            return ExitCode::from(2);
        }
    };

    let mut inputs: Vec<(String, String)> = Vec::new();
    if opts.files.is_empty() {
        let mut src = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut src) {
            eprintln!("mp-check: reading stdin: {e}");
            return ExitCode::from(2);
        }
        inputs.push(("<stdin>".to_string(), src));
    } else {
        for f in &opts.files {
            match std::fs::read_to_string(f) {
                Ok(src) => inputs.push((f.clone(), src)),
                Err(e) => {
                    eprintln!("mp-check: {f}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    let mut total = 0usize;
    let mut json_objects: Vec<String> = Vec::new();
    for (name, text) in &inputs {
        let trace = match Trace::from_text(text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mp-check: {name}: {e}");
                return ExitCode::from(2);
            }
        };
        if !trace.with_bindings {
            eprintln!(
                "mp-check: {name}: mptrace v1 records no bindings; \
                 binding checks MP311–MP315 skipped"
            );
        }
        let diags = mp_trace::check(&trace);
        for d in &diags {
            if opts.json {
                json_objects.push(d.to_json(name));
            } else {
                print!("{}", d.render(name, ""));
            }
        }
        total += diags.len();
        if opts.counts {
            let c = mp_trace::logical_counts(&trace);
            eprintln!(
                "mp-check: {name}: {} events, {} actors; logical: {} tuple requests, \
                 {} answers, {} end requests",
                trace.events.len(),
                trace.n_actors,
                c.tuple_requests,
                c.answers,
                c.end_tuple_requests
            );
        }
    }

    if opts.json {
        println!("[");
        for (i, o) in json_objects.iter().enumerate() {
            println!(
                "  {}{}",
                o,
                if i + 1 < json_objects.len() { "," } else { "" }
            );
        }
        println!("]");
    }
    if total > 0 {
        eprintln!(
            "mp-check: {total} violation(s) in {} trace(s)",
            inputs.len()
        );
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
