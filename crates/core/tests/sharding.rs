//! Sharded-evaluation facts that are not invariance sweeps: the shape of
//! the compiled shard layout, the broadcast verdict, and the MP108
//! advice. That K-way replication is *answer-invariant* — answers and
//! logical counters bit-identical to the unsharded run on both runtimes,
//! under random schedules, chaos and a crash of one shard instance — is
//! checked by the invariance harness (`tests/invariance.rs` at the
//! workspace root).

use mp_datalog::parser::parse_program;
use mp_datalog::Database;
use mp_engine::node::{Network, ShardPlan};
use mp_engine::Engine;
use mp_workloads::scenarios;

/// Linear transitive closure over a chain: its EDB leaf is
/// request-keyed, so sharding genuinely engages (asserted below).
fn tc_chain() -> Engine {
    let w = scenarios::tc_chain(6);
    Engine::new(w.program, w.db)
}

/// A broadcast-verdict node never splits: its fan-out stays 1 at any K
/// (its output replicates to peers instead).
#[test]
fn broadcast_nodes_never_shard() {
    let program = parse_program(
        "a(1, 2). a(1, 3). a(2, 4). flag(7). flag(8).
         p(X, Y) :- s(X, Y).
         s(X, Y) :- a(X, Y), flag(Z).
         ?- p(1, Y).",
    )
    .unwrap();
    let graph = Engine::new(program, Database::new())
        .compile()
        .unwrap()
        .graph;
    let parts = mp_analyze::plan::partition_keys(&graph);
    let fan = mp_analyze::shard_fan_outs(&graph, &parts, 4);
    let broadcast: Vec<usize> = parts
        .iter()
        .enumerate()
        .filter(|(_, p)| matches!(p, mp_analyze::PartitionKey::Broadcast))
        .map(|(i, _)| i)
        .collect();
    assert!(!broadcast.is_empty(), "fixture lost its broadcast node");
    for &i in &broadcast {
        assert_eq!(fan[i], 1, "broadcast nodes must not shard");
    }
}

/// Compile-layer shape: the physical network at K shards has one
/// instance per (node, shard) in `shard_of`, contiguous siblings, a
/// single root, and an EDB whose shard instances partition the rows of
/// the unsharded EDB exactly.
#[test]
fn compiled_shard_layout_is_sound() {
    let engine = tc_chain().with_shards(3);
    let graph = engine.compile().unwrap().graph;
    let parts = mp_analyze::plan::partition_keys(&graph);
    let fan_out = mp_analyze::shard_fan_outs(&graph, &parts, 3);
    let plan = ShardPlan {
        shards: 3,
        fan_out: fan_out.clone(),
    };
    let network = Network::compile_sharded(&graph, engine.database(), &plan);
    let unsharded = Network::compile(&graph, engine.database());

    // One physical process per planned instance, in (node, shard) order.
    assert_eq!(network.processes.len(), fan_out.iter().sum::<usize>());
    assert_eq!(network.shard_of.len(), network.processes.len());
    let mut expect = Vec::new();
    for (id, &k) in fan_out.iter().enumerate() {
        for s in 0..k {
            expect.push((id, s));
        }
    }
    assert_eq!(network.shard_of, expect);
    assert!(fan_out.iter().any(|&k| k > 1), "nothing sharded at K=3");

    // The root is single-instance and maps back to the graph root.
    assert_eq!(network.shard_of[network.root], (graph.root(), 0));

    // Each physical process carries its physical id.
    for (phys, p) in network.processes.iter().enumerate() {
        assert_eq!(p.common.id, phys);
    }

    // Sharded EDB instances partition the unsharded rows: same total
    // row count, no overlap (row counts per shard sum to the whole).
    use mp_engine::node::Behavior;
    for (id, &k) in fan_out.iter().enumerate() {
        if k <= 1 {
            continue;
        }
        let whole = match &unsharded.processes[id].behavior {
            Behavior::Edb { cfg } => cfg.filtered.len(),
            _ => continue,
        };
        let split: usize = network
            .shard_of
            .iter()
            .enumerate()
            .filter(|&(_, &(n, _))| n == id)
            .map(|(phys, _)| match &network.processes[phys].behavior {
                Behavior::Edb { cfg } => cfg.filtered.len(),
                other => panic!("shard instance of an EDB is {other:?}"),
            })
            .sum();
        assert_eq!(
            split, whole,
            "EDB node {id}: shards lost or duplicated rows"
        );
    }
}

/// MP108 fires exactly when sharding is requested but cannot help, and
/// is silent otherwise.
#[test]
fn mp108_warns_when_sharding_cannot_engage() {
    // No request-keyed node: the only goal is the free root.
    let src = "e(1). e(2). p(X) :- e(X). ?- p(X).";
    let program = parse_program(src).unwrap();
    let compiled = Engine::new(program.clone(), Database::new())
        .with_shards(4)
        .compile()
        .unwrap();
    let mp108: Vec<_> = compiled
        .warnings
        .iter()
        .filter(|d| d.code.as_str() == "MP108")
        .collect();
    assert_eq!(mp108.len(), 1, "expected exactly one MP108");
    assert!(!mp108[0].is_deny(), "MP108 is advice, not an error");
    assert!(mp108[0].message.contains("--shards 4"));

    // Silent at K=1 on the same program…
    let compiled = Engine::new(program, Database::new()).compile().unwrap();
    assert!(compiled.warnings.iter().all(|d| d.code.as_str() != "MP108"));

    // …and silent when a node really can split.
    let compiled = tc_chain().with_shards(4).compile().unwrap();
    assert!(compiled.warnings.iter().all(|d| d.code.as_str() != "MP108"));
}
