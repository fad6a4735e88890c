//! Quickstart: evaluate a recursive Datalog query with the message
//! passing engine.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use mp_framework::datalog::{parser::parse_program, Database};
use mp_framework::engine::Engine;
use mp_storage::tuple;

fn main() {
    // A program is an EDB (facts) plus Horn rules plus a query (§1 of
    // Van Gelder 1986). Facts can live in the source text or in a
    // Database built programmatically.
    let program = parse_program(
        r#"
        % Who can reach whom by direct flights?
        reach(X, Y) :- flight(X, Y).
        reach(X, Z) :- reach(X, Y), flight(Y, Z).

        ?- reach("SFO", City).
        "#,
    )
    .expect("program parses");

    let mut db = Database::new();
    for (a, b) in [
        ("SFO", "LAX"),
        ("LAX", "JFK"),
        ("JFK", "LHR"),
        ("LHR", "CDG"),
        ("CDG", "SFO"), // a cycle: duplicate elimination terminates it
        ("BOS", "JFK"), // unreachable from SFO, never explored
    ] {
        db.insert("flight", tuple![a, b]).expect("arity 2");
    }

    let result = Engine::new(program, db).evaluate().expect("evaluation");

    println!("cities reachable from SFO:");
    for t in result.answers.sorted_rows() {
        println!("  {t}");
    }

    let s = &result.stats;
    println!("\nhow the network did it:");
    println!("  rule/goal graph nodes : {}", result.graph_nodes);
    println!("  tuple-request frames  : {}", s.tuple_requests);
    println!("  answer frames         : {}", s.answers);
    println!("  protocol messages     : {}", s.protocol_messages);
    println!("  join probes           : {}", s.join_probes);
    println!(
        "  protocol overhead     : {:.2} per work message",
        s.protocol_overhead()
    );
}
