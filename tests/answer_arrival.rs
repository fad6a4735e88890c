//! Where answers reach the engine: §3.1's evaluation is pipelined, so
//! answers should arrive while the network is still working, not all at
//! its end.
//!
//! `Stats::{first,median,last}_answer_at` count the logical messages
//! sent when the first, median and last new answer reached the engine
//! (an answer's own frame counts up to that answer, not the items packed
//! after it).
//! On the FIFO simulator they are deterministic, so they are pinned here
//! for a fan-out closure and a bound same-generation query. Each is also
//! compared with the same network at one item per frame: packaging
//! frames at turn end must not move the first answer more than a tenth
//! later, as a fraction of the run's logical messages. Run
//! `cargo test --test answer_arrival -- --nocapture` to see the figures.

use mp_engine::node::{Network, ShardPlan};
use mp_engine::runtime::SimRuntime;
use mp_engine::{Engine, Stats};
use mp_workloads::{scenarios, Workload};

/// The workloads with their pinned `(first, median, last)` positions.
fn cases() -> Vec<(Workload, [u64; 3])> {
    vec![
        (scenarios::tc_random(400, 6000, 7), [91, 4_340, 9_245]),
        (scenarios::sg_tree(5, 3, 7), [52, 779, 826]),
    ]
}

fn positions(s: &Stats) -> [u64; 3] {
    [s.first_answer_at, s.median_answer_at, s.last_answer_at]
}

/// The engine's run: frames ship at turn end.
fn turn_end(w: &Workload) -> Stats {
    Engine::new(w.program.clone(), w.db.clone())
        .evaluate()
        .expect("evaluation succeeds")
        .stats
}

/// The same network with every item in its own frame.
fn one_item_per_frame(w: &Workload) -> Stats {
    let engine = Engine::new(w.program.clone(), w.db.clone());
    let graph = engine.compile().expect("the query compiles").graph;
    let mut network = Network::compile_sharded(&graph, engine.database(), &ShardPlan::default());
    network.set_batching(false);
    SimRuntime::default()
        .run(&mut network)
        .expect("evaluation succeeds")
        .stats
}

#[test]
fn answer_arrival_is_pinned_on_fifo() {
    for (w, pinned) in cases() {
        let s = turn_end(&w);
        let [first, median, last] = positions(&s);
        println!(
            "{}: {:?} of {} logical messages",
            w.name,
            positions(&s),
            s.logical_messages()
        );
        assert!(0 < first && first <= median && median <= last);
        assert!(last <= s.logical_messages(), "{}", w.name);
        assert_eq!(positions(&s), pinned, "{}", w.name);
        assert_eq!(positions(&turn_end(&w)), pinned, "{}: repeat", w.name);
    }
}

#[test]
fn turn_end_framing_keeps_the_first_answer_early() {
    for (w, _) in cases() {
        let packed = turn_end(&w).answer_arrival().expect("answers");
        let single = one_item_per_frame(&w).answer_arrival().expect("answers");
        println!(
            "{}: turn end {packed:.3?}, one item per frame {single:.3?}",
            w.name
        );
        assert!(
            packed[0] <= single[0] * 1.1,
            "{}: first answer at {:.3} of the run, {:.3} at one item per frame",
            w.name,
            packed[0],
            single[0]
        );
    }
}
