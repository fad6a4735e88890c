//! Every invariance sweep of the repository, as calls to the one harness
//! in `common`: the configuration lattice over the canonical workloads
//! (quick tier here, the full cross product `#[ignore]`d), the axis
//! sweeps that go deeper along one axis than the lattice does, and the
//! random-program generators. Facts that hold on one axis only — a
//! zero-rate plan retransmits nothing, one shard routes nothing, a crash
//! plan crashes once — are asserted beside the call that ran them.
//!
//! Tests that run the worker pool carry `pool` in their names; the TSan
//! job selects them by it.

mod common;

use common::{assert_invariant, fault, flat_workloads, lattice, regressions, workloads, Config};
use mp_framework::datalog::parser::{parse_program, parse_rule};
use mp_framework::datalog::{Database, Program};
use mp_framework::engine::node::{Network, ShardPlan};
use mp_framework::engine::{Engine, FaultPlan, QueryResult, RuntimeKind};
use mp_framework::rulegoal::SipKind;
use mp_framework::trace::{EventKind, MsgKind};
use mp_framework::workloads::random_programs::{
    generate, generate_stratified, is_interesting, ProgramSpec, StratifiedSpec,
};
use mp_framework::workloads::{scenarios, Workload};
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// The lattice
// ---------------------------------------------------------------------

fn quick_tier(pool: bool) {
    let configs: Vec<Config> = lattice::quick()
        .into_iter()
        .filter(|c| c.is_pool() == pool)
        .collect();
    assert!(!configs.is_empty());
    for w in workloads() {
        let out = assert_invariant(&w, &configs);
        assert!(!out.runs[0].answers.is_empty(), "{}: vacuous", w.name);
        // The quick workloads are sized under the trace ring.
        assert_eq!(out.unchecked_traces, 0, "{}", w.name);
    }
}

#[test]
fn quick_lattice_on_the_simulator() {
    quick_tier(false);
}

#[test]
fn quick_lattice_on_the_pool() {
    quick_tier(true);
}

#[test]
fn quick_lattice_is_a_small_pairwise_cover_of_the_full_one() {
    let (quick, full) = (lattice::quick(), lattice::full());
    assert_eq!(full.len(), 864);
    assert!(quick.len() <= 20, "{} configurations", quick.len());
    assert!(quick.iter().all(|c| full.contains(c)));
    // Spot-check the cover on the pair that hid the batching x crash bug.
    assert!(quick
        .iter()
        .any(|c| c.batch > 1 && c.fault.as_ref().is_some_and(|p| !p.crashes.is_empty())));
}

/// One thread per workload: a pool run under a fault plan mostly waits
/// on millisecond timers, so the workloads overlap almost for free.
fn full_lattice(pool: bool) {
    let configs: Vec<Config> = lattice::full()
        .into_iter()
        .filter(|c| c.is_pool() == pool)
        .collect();
    let workloads = workloads();
    let unchecked: usize = std::thread::scope(|s| {
        let runs: Vec<_> = workloads
            .iter()
            .map(|w| s.spawn(|| assert_invariant(w, &configs).unchecked_traces))
            .collect();
        runs.into_iter()
            .map(|h| h.join().expect("a workload's lattice failed"))
            .sum()
    });
    eprintln!("full lattice: {unchecked} lossy trace(s) left unchecked");
}

#[test]
#[ignore = "the full cross product; CI's chaos job runs it"]
fn full_lattice_on_the_simulator() {
    full_lattice(false);
}

#[test]
#[ignore = "the full cross product; CI's chaos job runs it"]
fn full_lattice_on_the_pool() {
    full_lattice(true);
}

#[test]
fn regression_cells_stay_fixed() {
    for (w, config) in regressions() {
        assert_invariant(&w, &[config]);
    }
}

// ---------------------------------------------------------------------
// Transport: deeper along the fault axis
// ---------------------------------------------------------------------

/// The three recursive shapes the transport facts are stated on.
fn transport_workloads() -> Vec<Workload> {
    vec![
        scenarios::tc_cycle(8),
        scenarios::tc_nonlinear_chain(6),
        scenarios::odd_even_chain(8),
    ]
}

/// Nodes of the rule/goal graph the reference configuration compiles.
fn graph_nodes(w: &Workload) -> usize {
    let engine = Engine::new(w.program.clone(), w.db.clone());
    engine.compile().expect("compiles").graph.len()
}

fn on(base: &Config, fault: Option<FaultPlan>) -> Config {
    Config {
        fault,
        ..base.clone()
    }
}

/// A zero-rate plan is the clean path plus acks; seeded plans fire; a
/// crash plan — with wire faults or alone — crashes exactly once.
fn transport_facts(base: Config) {
    for w in transport_workloads() {
        let mut configs = vec![
            base.clone(),
            on(&base, fault::zero_rate()),
            on(&base, fault::crash(9, 1, 2)),
        ];
        configs.extend((1..=2).map(|node| on(&base, fault::crash_only(node, 2))));
        configs.extend((1..=4).map(|seed| on(&base, fault::seeded(seed))));
        let runs = assert_invariant(&w, &configs).runs;
        let (clean, zero) = (&runs[0].stats, &runs[1].stats);
        assert_eq!(zero.retransmits, 0, "{}", w.name);
        assert_eq!(zero.retransmit_overhead(), 0.0, "{}", w.name);
        assert_eq!(zero.faults_injected(), 0, "{}", w.name);
        assert_eq!(zero.crashes, 0, "{}", w.name);
        assert!(zero.acks > 0, "{}: the transport never ran", w.name);
        // The wire's one step of latency reorders deliveries, and how many
        // probe waves a component needs depends on the order (odd-even on
        // an 8-chain: 214 frames clean, 222 wired, 162 of them work either
        // way) — so it is the work traffic that must match, not the
        // termination protocol's. The pool tears down on the engine's
        // `End` with the tail of the end cascade in flight, so only the
        // simulator's frame count is timing-free.
        if !base.is_pool() {
            assert_eq!(zero.work_messages(), clean.work_messages(), "{}", w.name);
        }
        for crash in &runs[2..5] {
            let s = &crash.stats;
            assert_eq!((s.crashes, s.epoch_bumps), (1, 1), "{}", w.name);
        }
        for seeded in &runs[5..] {
            assert!(seeded.stats.faults_injected() > 0, "{}: vacuous", w.name);
        }
    }
}

#[test]
fn sim_transport_delivers_the_clean_history() {
    transport_facts(Config::default());
}

#[test]
fn pool_transport_delivers_the_clean_history() {
    // The lattice runs the pool at 2 workers; this is the default tier's
    // look at faults and crashes on a wider one.
    transport_facts(Config::pool(4));
}

/// 32 seeded plans, then 16 with two crashes each, then one crash at
/// every node with wire faults and without — on the simulator at the
/// default horizons (retransmit after 256 steps, delays up to 8), traced,
/// so every recovery is also checked by `mp_trace::check` and replayed.
#[test]
#[ignore = "a deep sweep along one axis; CI's chaos job runs it"]
fn sim_seeded_plans_and_crashes_at_depth() {
    for w in flat_workloads() {
        let nodes = graph_nodes(&w);
        let traced = Config::default().traced();
        let plan = |plan: FaultPlan| on(&traced, Some(plan));
        let mut configs: Vec<Config> = (0..32).map(|s| plan(FaultPlan::seeded(s))).collect();
        configs.extend((0..16u64).map(|s| {
            let (a, b) = ((s as usize * 7 + 1) % nodes, (s as usize * 13 + 3) % nodes);
            plan(
                FaultPlan::seeded(s)
                    .with_crash(a, 1 + s % 3)
                    .with_crash(b, 4 + s % 5),
            )
        }));
        configs.extend((0..nodes).map(|node| plan(FaultPlan::seeded(0).with_crash(node, 2))));
        configs.extend((0..nodes).map(|node| plan(FaultPlan::default().with_crash(node, 2))));
        for (i, r) in assert_invariant(&w, &configs).runs.iter().enumerate() {
            if i < 32 {
                assert!(
                    r.stats.faults_injected() > 0,
                    "{} seed {i}: vacuous",
                    w.name
                );
            }
            assert_eq!(r.stats.epoch_bumps, r.stats.crashes, "{}", w.name);
            // Crash/recover pairs are visible in the trace.
            let recorded = r.events.as_ref().expect("traced").events.iter();
            let crashes = recorded.filter(|e| matches!(e.kind, EventKind::Crash { .. }));
            assert_eq!(crashes.count() as u64, r.stats.crashes, "{}", w.name);
        }
    }
}

/// Faults compose with adversarial schedules and with every flush bound.
#[test]
fn sim_seeded_plans_under_random_schedules_and_batching() {
    for w in flat_workloads() {
        let mut configs = Vec::new();
        for seed in 0..8u64 {
            configs.push(on(
                &Config::random(seed),
                fault::seeded(seed.wrapping_mul(31)),
            ));
            for batch in [4, 64] {
                configs.push(Config {
                    batch,
                    ..on(&Config::default(), fault::seeded(seed))
                });
            }
        }
        let nodes = graph_nodes(&w);
        configs.extend((0..4u64).map(|seed| Config {
            batch: 64,
            ..on(
                &Config::default(),
                fault::crash(seed, (seed as usize * 7 + 1) % nodes, 2),
            )
        }));
        assert_invariant(&w, &configs);
    }
}

/// Chaos at width: the recovery transport and the scheduled-bit protocol
/// cooperate — ticks retransmit for idle nodes while activations race
/// across workers — and a crashed node replays on whichever worker
/// holds it.
#[test]
#[ignore = "a deep sweep along one axis; CI's chaos job and its TSan step run it"]
fn pool_seeded_plans_at_4_workers_and_crashes_at_every_width() {
    for w in transport_workloads() {
        let mut configs: Vec<Config> = (0..16)
            .map(|seed| on(&Config::pool(4), fault::seeded(seed)))
            .collect();
        let two_crashes = fault::crash(0, 1, 2).map(|plan| plan.with_crash(2, 3));
        configs.extend([1, 2, 4].map(|workers| on(&Config::pool(workers), two_crashes.clone())));
        for r in &assert_invariant(&w, &configs).runs[16..] {
            assert!(r.stats.crashes > 0, "{}: crash never fired", w.name);
        }
    }
}

/// Backpressure: a credit window caps queue depth under fan-in without
/// deadlocking the recursive component, with and without real faults.
#[test]
fn sim_mailbox_bound_stalls_frames_and_nothing_else() {
    let w = scenarios::tc_random(16, 48, 3);
    let zero = on(&Config::default(), fault::zero_rate());
    let mut configs = vec![
        zero.clone(),
        Config {
            mailbox_bound: Some(1),
            ..zero
        },
    ];
    configs.extend((0..8).map(|seed| Config {
        mailbox_bound: Some(2),
        ..on(&Config::default(), fault::seeded(seed))
    }));
    let runs = assert_invariant(&w, &configs).runs;
    let (unbounded, bounded) = (&runs[0].stats, &runs[1].stats);
    assert_eq!(unbounded.credits_stalled, 0);
    assert!(bounded.credits_stalled > 0, "a window of 1 must stall");
    assert!(bounded.mailbox_high_water <= unbounded.mailbox_high_water);
}

// ---------------------------------------------------------------------
// Placement: pool sizes and shard counts
// ---------------------------------------------------------------------

/// Every pool size, including one larger than the graph (clamped to the
/// node count) and the auto-sized default.
#[test]
fn pool_sizes_match_the_reference() {
    for w in transport_workloads() {
        let configs: Vec<Config> = [0, 1, 2, 3, 4, 8].map(Config::pool).to_vec();
        let sim = assert_invariant(&w, &[Config::default()]).runs.remove(0);
        assert_eq!(sim.stats.sched_activations, 0, "{}", w.name);
        for r in assert_invariant(&w, &configs).runs {
            // One stream per arc on either runtime.
            assert_eq!(r.stats.relation_requests, sim.stats.relation_requests);
            assert!(r.stats.sched_activations > 0, "{}", w.name);
            assert!(r.stats.sched_max_queue > 0, "{}", w.name);
        }
    }
}

/// K ∈ {1, 2, 3, 4, 8} under FIFO and six random schedules. Physical
/// frame counts grow with K (one stream per shard arc); the logical
/// counters, the EDB lookups and the answer frames do not.
#[test]
fn sim_shard_counts_match_the_reference() {
    for w in flat_workloads() {
        let schedules: Vec<Config> = std::iter::once(Config::default())
            .chain((0..6).map(Config::random))
            .collect();
        let mut any_routed = false;
        for shards in [1, 2, 3, 4, 8] {
            let configs: Vec<Config> = schedules
                .iter()
                .map(|c| Config {
                    shards,
                    ..c.clone()
                })
                .collect();
            let runs = assert_invariant(&w, &configs).runs;
            for r in &runs {
                assert_eq!(r.stats.edb_lookups, runs[0].stats.edb_lookups, "{}", w.name);
                assert_eq!(r.stats.answers, runs[0].stats.answers, "{}", w.name);
                if shards == 1 {
                    assert_eq!(r.stats.shard_routed_frames, 0, "{}", w.name);
                }
                any_routed |= r.stats.shard_routed_frames > 0;
            }
        }
        assert!(any_routed, "{}: no K ever routed a frame", w.name);
    }
}

/// The physical id of a shard *sibling* (shard index > 0) in the network
/// the engine compiles for `w` at `shards`.
fn a_shard_sibling(w: &Workload, shards: usize) -> usize {
    let engine = Engine::new(w.program.clone(), w.db.clone()).with_shards(shards);
    let graph = engine.compile().expect("compiles").graph;
    let parts = mp_framework::analyze::plan::partition_keys(&graph);
    let plan = ShardPlan {
        shards,
        fan_out: mp_framework::analyze::shard_fan_outs(&graph, &parts, shards),
    };
    Network::compile_sharded(&graph, engine.database(), &plan)
        .shard_of
        .iter()
        .position(|&(_, s)| s > 0)
        .unwrap_or_else(|| panic!("{}: no node sharded at K={shards}", w.name))
}

/// Chaos at K=4, traced: wire faults on every link (shard links and the
/// captain tree included), then a crash of one shard *instance* — the
/// other K-1 keep their state and the reborn sibling rejoins the
/// captain's wave.
#[test]
#[ignore = "a deep sweep along one axis; CI's chaos job runs it"]
fn sim_seeded_plans_and_a_shard_instance_crash_at_k4() {
    for w in flat_workloads() {
        let k4 = Config {
            shards: 4,
            ..Config::default().traced()
        };
        let sibling = a_shard_sibling(&w, 4);
        let mut configs: Vec<Config> = (0..16).map(|s| on(&k4, fault::seeded(s))).collect();
        configs.extend((0..4).map(|s| on(&k4, fault::crash(s, sibling, 2))));
        for r in &assert_invariant(&w, &configs).runs[16..] {
            assert!(r.stats.crashes > 0, "{}: crash never fired", w.name);
        }
    }
}

/// A broadcast-verdict node at K=4 delivers each logical tuple exactly
/// once per peer even when the wire duplicates a third of the frames:
/// no drops or corruption, just copies and reordering.
#[test]
fn sim_broadcast_node_is_exactly_once_under_duplication_at_k4() {
    let program = parse_program(
        "a(1, 2). a(1, 3). a(2, 4). flag(7). flag(8).
         p(X, Y) :- s(X, Y).
         s(X, Y) :- a(X, Y), flag(Z).
         ?- p(1, Y).",
    )
    .unwrap();
    let w = Workload {
        name: "broadcast".into(),
        program,
        db: Database::new(),
    };
    let configs: Vec<Config> = (0..8)
        .map(|seed| Config {
            shards: 4,
            fault: Some(FaultPlan {
                drop: 0.0,
                duplicate: 0.35,
                corrupt: 0.0,
                ..FaultPlan::seeded(seed)
            }),
            ..Config::default().traced()
        })
        .collect();
    for r in assert_invariant(&w, &configs).runs {
        assert!(
            r.stats.dups_discarded > 0,
            "no duplicate reached a receiver"
        );
    }
}

// ---------------------------------------------------------------------
// Traces: both runtimes record what the checker accepts and replay
// ---------------------------------------------------------------------

#[test]
fn traced_runs_check_clean_and_replay() {
    for w in flat_workloads() {
        let mut configs = vec![Config::default().traced()];
        configs.extend((0..16).map(|seed| Config::random(seed).traced()));
        configs.extend([4, 64].map(|batch| Config {
            batch,
            ..Config::default().traced()
        }));
        assert_invariant(&w, &configs);
    }
}

#[test]
fn pool_traced_runs_check_clean_and_replay() {
    let traced = Config::pool(2).traced();
    for w in flat_workloads() {
        assert_invariant(&w, std::slice::from_ref(&traced));
    }
    for w in transport_workloads() {
        let configs: Vec<Config> = (0..4).map(|s| on(&traced, fault::seeded(s))).collect();
        assert_invariant(&w, &configs);
    }
}

/// Protocol invariant 6 (1–5 are `mp_trace::check`'s MP311–MP315, run on
/// every traced run): the Fig 2 machinery only runs inside nontrivial strong
/// components. A nonrecursive rule chain closes every stream it opened by
/// the `End`/`EndOfRequests` cascade with zero protocol traffic; a cycle
/// needs probe waves and is finished by `SccFinished`.
#[test]
fn protocol_messages_flow_only_inside_recursive_components() {
    let program = parse_program(
        "e(1, 2). e(2, 3). e(3, 4).
         p1(X, Y) :- e(X, Y).
         p2(X, Y) :- p1(X, Y).
         p3(X, Z) :- p2(X, Y), e(Y, Z).
         p4(X, Y) :- p3(X, Y).
         p5(X, Y) :- p4(X, Y).
         ?- p5(1, Z).",
    )
    .unwrap();
    let chain = Workload {
        name: "nonrecursive-chain".into(),
        program,
        db: Database::new(),
    };
    let traced = [Config::default().traced()];
    let r = assert_invariant(&chain, &traced).runs.remove(0);
    assert_eq!(r.stats.protocol_messages, 0, "no recursion, no probes");
    // Answers flow feeder -> customer, against the request that opened
    // the stream.
    let sends = |r: &QueryResult, of: MsgKind| -> BTreeSet<(u32, u32)> {
        let events = r.events.as_ref().expect("a traced run records events");
        (events.events.iter())
            .filter_map(|e| match e.kind {
                EventKind::Send { to, kind, .. } if kind == of => Some((e.actor, to)),
                _ => None,
            })
            .collect()
    };
    let opened: BTreeSet<_> = (sends(&r, MsgKind::RelationRequest).into_iter())
        .map(|(customer, feeder)| (feeder, customer))
        .collect();
    assert_eq!(
        opened,
        sends(&r, MsgKind::End),
        "all opened streams must end"
    );

    let r = assert_invariant(&scenarios::tc_cycle(8), &traced)
        .runs
        .remove(0);
    assert!(r.stats.protocol_messages > 0, "recursion needs the probes");
    assert!(!sends(&r, MsgKind::SccFinished).is_empty());
}

// ---------------------------------------------------------------------
// Stratified programs
// ---------------------------------------------------------------------

fn stratified_matrix(runtime: RuntimeKind) -> Vec<Config> {
    [1, 4]
        .map(|shards| Config {
            runtime,
            shards,
            ..Config::default()
        })
        .to_vec()
}

/// The canonical stratified workloads at acceptance size, on one and
/// four shards, and traced (a staged run's trace covers its final
/// stratum; the replay materializes the strata below).
fn canonical_stratified(base: Config) {
    for w in [
        scenarios::win_move(24, 40, 3),
        scenarios::win_move(16, 12, 5),
        scenarios::company_control(10, 1),
        scenarios::company_control(16, 7),
        scenarios::agg_reachability(24, 48, 4, 2),
    ] {
        let mut configs = stratified_matrix(base.runtime);
        configs.push(base.clone().traced());
        let runs = assert_invariant(&w, &configs).runs;
        assert!(runs[0].stats.strata_evaluated > 1, "{} must stage", w.name);
    }
}

#[test]
fn sim_canonical_stratified_workloads() {
    canonical_stratified(Config::random(5));
}

#[test]
fn pool_canonical_stratified_workloads() {
    canonical_stratified(Config::pool(2));
}

/// Regression: `replay` used to compile the whole program against the
/// raw EDB, where a negated IDB predicate has no relation and reads as
/// empty.
#[test]
fn pool_minimal_negation_replays() {
    let program = parse_program(
        "e(1). e(2). e(3). bad(2).
         blocked(X) :- bad(X).
         ok(X) :- e(X), !blocked(X).
         ?- ok(X).",
    )
    .unwrap();
    let w = Workload {
        name: "minimal-negation".into(),
        program,
        db: Database::new(),
    };
    let configs = [Config::random(5).traced(), Config::pool(2).traced()];
    assert_invariant(&w, &configs);
}

fn random_stratified(seed: u64) -> Option<Workload> {
    let (program, db) = generate_stratified(&StratifiedSpec::default(), seed);
    is_interesting(&program, &db).then(|| Workload {
        name: format!("random-stratified-{seed}"),
        program,
        db,
    })
}

/// Eight negation-using random programs under a lossy plan and an
/// adversarial schedule: the transport composes with staging.
#[test]
fn sim_random_stratified_programs_under_chaos() {
    let mut tested = 0;
    for seed in 0..64u64 {
        let Some(w) = random_stratified(seed) else {
            continue;
        };
        if w.program.rules.iter().all(|r| r.neg.is_empty()) {
            continue;
        }
        let config = on(
            &Config::random(seed * 31 + 7),
            fault::seeded(seed * 97 + 13),
        );
        assert_invariant(&w, &[config]);
        tested += 1;
        if tested == 8 {
            return;
        }
    }
    panic!("only {tested} negation-using programs in 64 seeds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random stratified programs: both runtimes, one and four shards.
    #[test]
    fn pool_and_sim_agree_on_random_stratified_programs(seed in 0u64..10_000) {
        if let Some(w) = random_stratified(seed) {
            let mut configs = stratified_matrix(RuntimeKind::Threads);
            configs.extend(stratified_matrix(Config::default().runtime));
            assert_invariant(&w, &configs);
        }
    }
}

// ---------------------------------------------------------------------
// Random flat programs: SIPs, flush bounds, analysis
// ---------------------------------------------------------------------

fn random_flat(spec: &ProgramSpec, seed: u64) -> Option<Workload> {
    let (program, db) = generate(spec, seed);
    is_interesting(&program, &db).then(|| Workload {
        name: format!("random-{seed}"),
        program,
        db,
    })
}

/// The flush bounds the suite sweeps: small, the CLI's default, and
/// effectively unbounded (only the turn bound fires).
const BATCH_SIZES: [usize; 3] = [4, 64, usize::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random program x random SIP x every flush bound, clean channels.
    #[test]
    fn batched_equals_scalar_on_random_programs(seed in 0u64..10_000, sip_idx in 0usize..5) {
        if let Some(w) = random_flat(&ProgramSpec::default(), seed) {
            let configs = BATCH_SIZES.map(|batch| Config {
                batch,
                sip: SipKind::ALL[sip_idx],
                ..Config::default()
            });
            assert_invariant(&w, &configs);
        }
    }

    /// The same under a seeded plan and an adversarial schedule.
    #[test]
    fn batched_equals_scalar_under_faults(
        seed in 0u64..10_000,
        fault_seed in 0u64..1_000_000,
        sched_seed in 0u64..1_000_000,
        batch_idx in 0usize..3,
    ) {
        let spec = ProgramSpec { idb_preds: 2, max_body: 2, ..ProgramSpec::default() };
        if let Some(w) = random_flat(&spec, seed) {
            let config = Config {
                batch: BATCH_SIZES[batch_idx],
                ..on(&Config::random(sched_seed), fault::seeded(fault_seed))
            };
            assert_invariant(&w, &[config]);
        }
    }

    /// Random rates (default horizons) x random schedules x up to two
    /// crashes on the canonical recursive workloads.
    #[test]
    fn random_plans_and_crashes_are_confluent(
        workload in 0usize..7,
        seed in 0u64..1_000_000,
        sched_seed in 0u64..1_000_000,
        drop_pct in 0u32..=10,
        dup_pct in 0u32..=10,
        delay_pct in 0u32..=25,
        corrupt_pct in 0u32..=5,
        crash_node in 0usize..8,
        crash_at in 1u64..6,
        crashes in 0usize..=2,
    ) {
        let w = &flat_workloads()[workload];
        let nodes = graph_nodes(w);
        let points = [(crash_node % nodes, crash_at), ((crash_node + 3) % nodes, crash_at + 2)];
        let plan = FaultPlan {
            seed,
            drop: f64::from(drop_pct) / 100.0,
            duplicate: f64::from(dup_pct) / 100.0,
            delay: f64::from(delay_pct) / 100.0,
            corrupt: f64::from(corrupt_pct) / 100.0,
            ..FaultPlan::default()
        };
        let plan = points[..crashes].iter().fold(plan, |p, &(node, at)| p.with_crash(node, at));
        assert_invariant(w, &[on(&Config::random(sched_seed), Some(plan))]);
    }

    /// Schedules and pool sizes land on the same observables; each case
    /// is a fresh OS-level run, so repeats also sweep steal orders.
    #[test]
    fn pool_sizes_and_random_schedules_agree(
        workload in 0usize..3,
        workers in 1usize..=6,
        seed in 0u64..u64::MAX,
    ) {
        let w = &transport_workloads()[workload];
        assert_invariant(w, &[Config::random(seed), Config::pool(workers)]);
    }
}

/// Append a provably-dead recursive rule (its `ghost` subgoal has no
/// facts and no rules) so analysis pruning has something real to cut.
fn with_ghost_rule(program: &Program) -> Program {
    let mut p = program.clone();
    let head = &p.rules[0].head;
    let vars: Vec<String> = (0..head.arity()).map(|i| format!("Zz{i}")).collect();
    let args = vars.join(", ");
    let rule = if vars.is_empty() {
        format!("{} :- ghost(W0, W1).", head.pred)
    } else {
        format!("{}({args}) :- ghost(W0, {}).", head.pred, args)
    };
    p.rules.push(parse_rule(&rule).expect("ghost rule parses"));
    p
}

fn analysis_on_off(base: &Config) -> [Config; 2] {
    [true, false].map(|analysis| Config {
        analysis,
        ..base.clone()
    })
}

/// Pruning on vs off over the generator's programs, as they are and with
/// a ghost rule grafted on (forcing a nonzero prune on every program).
#[test]
fn sim_pruning_preserves_answers_on_random_programs() {
    let (mut tested, mut pruned_hits) = (0, 0);
    for seed in 0..120 {
        let Some(w) = random_flat(&ProgramSpec::default(), seed) else {
            continue;
        };
        tested += 1;
        let ghosted = Workload {
            program: with_ghost_rule(&w.program),
            ..w.clone()
        };
        for w in [w, ghosted] {
            let runs = assert_invariant(&w, &analysis_on_off(&Config::default())).runs;
            if runs[0].stats.pruned_nodes > 0 {
                pruned_hits += 1;
                assert!(
                    runs[0].graph_nodes < runs[1].graph_nodes,
                    "prune shrank nothing"
                );
            }
        }
    }
    assert!(tested > 50, "only {tested} interesting programs out of 120");
    assert!(pruned_hits >= tested, "ghost rules were not pruned");
}

/// Within each prune setting the pool reproduces the simulator, and
/// faults do not interact with pruning.
#[test]
fn pool_and_chaos_preserve_pruned_graphs() {
    let spec = ProgramSpec {
        idb_preds: 2,
        max_body: 2,
        facts_per_relation: 8,
        ..ProgramSpec::default()
    };
    let (mut tested, mut pruned) = (0, 0);
    for seed in 0..25 {
        let Some(w) = random_flat(&spec, seed) else {
            continue;
        };
        tested += 1;
        let w = Workload {
            program: with_ghost_rule(&w.program),
            ..w
        };
        let mut configs = analysis_on_off(&Config::pool(2)).to_vec();
        configs.extend(analysis_on_off(&on(
            &Config::random(seed),
            fault::seeded(seed),
        )));
        let runs = assert_invariant(&w, &configs).runs;
        pruned += usize::from(runs[0].stats.pruned_nodes > 0);
        assert_eq!(runs[2].stats.pruned_nodes, runs[0].stats.pruned_nodes);
        assert_eq!(
            (runs[1].stats.pruned_nodes, runs[3].stats.pruned_nodes),
            (0, 0)
        );
    }
    assert!(tested >= 5, "only {tested} interesting programs out of 25");
    assert!(pruned > 0, "no ghost rule was ever pruned");
}

// ---------------------------------------------------------------------
// Shared databases
// ---------------------------------------------------------------------

/// `Database::clone` shares the rows and their catalogue: evaluating on
/// clones is indistinguishable from evaluating on a database built
/// independently, row by row, catalogue cold. The harness evaluates each
/// listed configuration on its own clone: the reference run fills the
/// catalogue and the four rounds read it. (A pool on a *cold* catalogue
/// is `tests/shared_edb.rs`'s concurrent-fill test.)
fn clones_match_independent_builds(base: Config) {
    for w in [
        scenarios::tc_random(48, 96, 3),
        scenarios::sg_tree(4, 2, 5),
        scenarios::bom(40, 3, 7),
    ] {
        let mut rebuilt = Database::new();
        for (pred, rel) in w.db.iter() {
            rebuilt
                .declare(pred.clone(), rel.arity())
                .expect("fresh name");
            rebuilt
                .insert_all(pred.clone(), rel.iter().cloned())
                .expect("one arity per relation");
        }
        let independent = Workload {
            db: rebuilt,
            ..w.clone()
        };
        let rounds = vec![base.clone(); 4];
        let shared = assert_invariant(&w, &rounds).runs;
        let cold = assert_invariant(&independent, &rounds[..1]).runs;
        assert_eq!(
            shared[0].stats.logical(),
            cold[0].stats.logical(),
            "{}",
            w.name
        );
    }
}

#[test]
fn sim_clones_match_independent_builds() {
    clones_match_independent_builds(Config::default());
}

#[test]
fn pool_clones_match_independent_builds() {
    clones_match_independent_builds(Config::pool(2));
}
