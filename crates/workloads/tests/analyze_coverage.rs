//! mp-analyze coverage over the canonical workloads: every temporary
//! relation gets a concrete shard placement (a key, the root gather
//! point, or a singleton) or an explicit MP405 broadcast diagnostic —
//! and the EDB degree statistics behind the cardinality estimates are
//! exact on structured graphs.

use mp_analyze::{analyze, AnalyzeOptions, PartitionKey};
use mp_lint::Code;
use mp_rulegoal::{RuleGoalGraph, SipKind};
use mp_workloads::scenarios::{self, Workload};

fn canonical() -> Vec<Workload> {
    vec![
        scenarios::tc_chain(16),
        scenarios::tc_cycle(12),
        scenarios::tc_random(24, 48, 7),
        scenarios::tc_nonlinear_chain(10),
        scenarios::p1_chain(16),
        scenarios::sg_tree(3, 2, 11),
        scenarios::bom(24, 3, 5),
        scenarios::r2(16, 2, 3),
        scenarios::r3(16, 2, 0.5, 3),
        scenarios::odd_even_chain(16),
    ]
}

/// The ROADMAP item 1 acceptance bar: on every canonical workload, every
/// node's temporary relation is either placed (Key/Gather/Singleton) or
/// the analysis says out loud that K-way sharding would broadcast it.
#[test]
fn every_canonical_workload_gets_partition_keys_or_explicit_mp405() {
    for w in canonical() {
        let mut db = w.db.clone();
        let _ = w.program.load_facts(&mut db);
        let graph = RuleGoalGraph::build(&w.program, &db, SipKind::Greedy)
            .unwrap_or_else(|e| panic!("{}: graph build failed: {e}", w.name));
        let a = analyze(&w.program, &db, &graph, None, &AnalyzeOptions::default());
        // Instance-level pruning may legitimately fire (e.g. a random
        // graph whose query constant has no outgoing edges); the mask
        // and the annotations must agree about it.
        assert_eq!(
            a.pruned_nodes,
            a.nodes.iter().filter(|n| n.pruned).count(),
            "{}: prune mask and annotations disagree",
            w.name
        );
        for n in &a.nodes {
            if n.partition == PartitionKey::Broadcast {
                assert!(
                    a.diagnostics
                        .iter()
                        .any(|d| d.code == Code::BroadcastRequired
                            && d.message.contains(&format!("#{}", n.id))),
                    "{}: node #{} broadcasts without an MP405 diagnostic",
                    w.name,
                    n.id
                );
            }
        }
        // The flagship recursive workloads shard cleanly: no broadcasts
        // at all on the transitive-closure family.
        if w.name.starts_with("tc-") {
            assert!(
                a.nodes
                    .iter()
                    .all(|n| n.partition != PartitionKey::Broadcast),
                "{}: transitive closure must be fully partitionable",
                w.name
            );
        }
    }
}

/// Degree statistics on canonical graph shapes are exact, not estimates:
/// a chain is functional in both directions; a balanced tree's `up`
/// relation has in-degree = fanout at internal nodes.
#[test]
fn degree_stats_are_exact_on_canonical_graphs() {
    // (max out-degree, max in-degree) of a binary relation read as an
    // edge set: the largest multiplicity of columns 0 and 1.
    let degrees = |db: &mp_datalog::Database, pred: &str| {
        let summary = db
            .relation(&pred.into())
            .expect("relation exists")
            .summary();
        (summary[0].max_multiplicity, summary[1].max_multiplicity)
    };
    let chain = scenarios::tc_chain(16);
    assert_eq!(
        degrees(&chain.db, "edge"),
        (1, 1),
        "chain is functional and inverse-functional"
    );

    let cycle = scenarios::tc_cycle(12);
    assert_eq!(degrees(&cycle.db, "edge"), (1, 1));

    // sg's child→parent edges: every child has one parent, and internal
    // parents have `fanout` children.
    let sg = scenarios::sg_tree(3, 2, 11);
    assert_eq!(
        degrees(&sg.db, "up"),
        (1, 2),
        "one parent per child, binary tree parents"
    );
}
