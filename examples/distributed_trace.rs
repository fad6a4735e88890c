//! Watch the messages: run the paper's P1 (Example 2.1, Fig 1) on a tiny
//! EDB with tracing enabled and print every logical send of the event
//! trace, bindings included, then a per-kind census — including the
//! §3.2 termination protocol's probe waves doing their two-wave dance.
//!
//! ```sh
//! cargo run --example distributed_trace
//! ```

use mp_framework::engine::Engine;
use mp_framework::trace::{EventKind, MsgKind};
use mp_framework::workloads::scenarios;
use std::collections::BTreeMap;

fn main() {
    let w = scenarios::p1_chain(6);
    let result = Engine::new(w.program.clone(), w.db.clone())
        .with_trace(true)
        .evaluate()
        .expect("evaluate");

    let trace = result.events.expect("tracing was enabled");
    let engine = trace.engine_actor();
    println!("== every logical send (actor #{engine} is the engine) ==");
    let mut census: BTreeMap<MsgKind, usize> = BTreeMap::new();
    for e in &trace.events {
        let EventKind::Send {
            to, kind, bindings, ..
        } = &e.kind
        else {
            continue;
        };
        *census.entry(*kind).or_insert(0) += 1;
        let protocol = matches!(
            kind,
            MsgKind::EndRequest
                | MsgKind::EndNegative
                | MsgKind::EndConfirmed
                | MsgKind::SccFinished
        );
        let tag = if protocol { "  [protocol]" } else { "" };
        println!("#{} -> #{to}: {kind} {bindings:?}{tag}", e.actor);
    }

    println!("\n== census ==");
    for (kind, count) in census {
        println!("  {kind:<18} {count}");
    }
    println!("\nanswers to p(0, Z): {:?}", result.answers.sorted_rows());
    println!(
        "probe waves completed before the leaders declared the recursive \
         components idle: {}",
        result.stats.probe_waves
    );
}
