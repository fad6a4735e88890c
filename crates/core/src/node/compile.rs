//! Compilation of a rule/goal graph into a process network.
//!
//! All schema work happens here, once, before any message flows: stage
//! schemas with liveness projection, join column maps, request
//! construction maps, head output maps, EDB pre-filtering and indexing.
//! The per-message handlers in `process.rs` then only move tuples.

use crate::msg::Endpoint;
use crate::termination::TermState;
use mp_datalog::{Database, Term, Var};
use mp_rulegoal::{GoalKind, Node, NodeId, RuleGoalGraph};
use mp_storage::{FastMap, FastSet, KeyIndex, Relation, Tuple, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A customer arc's static configuration plus per-stream state.
#[derive(Clone, Debug)]
pub struct CustState {
    /// The customer endpoint.
    pub ep: Endpoint,
    /// True when both ends are in the same nontrivial strong component
    /// (no per-binding/stream ends travel such arcs; the §3.2 protocol
    /// covers them).
    pub intra: bool,
    /// Bindings received on this arc.
    pub subs: FastSet<Tuple>,
    /// Bindings whose end-tuple-request has been sent.
    pub ended: FastSet<Tuple>,
    /// End-of-requests received.
    pub eor: bool,
    /// Stream end sent.
    pub end_sent: bool,
}

impl CustState {
    fn new(ep: Endpoint, intra: bool) -> Self {
        CustState {
            ep,
            intra,
            subs: FastSet::default(),
            ended: FastSet::default(),
            eor: false,
            end_sent: false,
        }
    }
}

/// A feeder arc's static configuration.
#[derive(Clone, Debug)]
pub struct FeederCfg {
    /// The feeder node (physical id under sharding).
    pub node: NodeId,
    /// Same-nontrivial-SCC flag (see [`CustState::intra`]).
    pub intra: bool,
    /// Logical feeder index this arc belongs to (the rule stage for rule
    /// nodes). A sharded feeder contributes one arc per shard, all with
    /// the same slot; [`StageCfg::arcs`] lists them in shard order.
    pub slot: usize,
}

/// Static configuration of an IDB goal node.
#[derive(Clone, Debug)]
pub struct GoalCfg {
    /// Positions of the label's `d` arguments *within* the transmitted
    /// (non-`e`) schema — the columns customers' bindings address.
    pub d_in_transmitted: Vec<usize>,
    /// Transmitted schema width.
    pub transmitted_len: usize,
}

/// Static configuration of an EDB leaf. Both the rows and the index are
/// immutable shared snapshots: an unconstrained leaf holds the database's
/// own relation and its memoised index, so compiling it copies nothing,
/// and a request probes through the two `Arc`s without taking a lock.
#[derive(Clone, Debug)]
pub struct EdbCfg {
    /// The base relation, pre-filtered by the label's constants and
    /// repeated-variable equalities, with full arity.
    pub filtered: Arc<Relation>,
    /// Hash index of `filtered` on the label's `d` positions.
    pub index: Arc<KeyIndex>,
    /// Transmitted (non-`e`) positions, full-arity space.
    pub transmitted: Vec<usize>,
}

/// Static configuration of a cycle-reference node: a relay that performs
/// the ancestor's "selection" by subscription.
#[derive(Clone, Debug)]
pub struct CycleCfg {
    /// The ancestor goal node (feeder index 0).
    pub ancestor: NodeId,
}

/// Where a head output column comes from.
#[derive(Clone, Debug)]
pub enum HeadSource {
    /// A constant in the instance head.
    Const(Value),
    /// A column of the final stage schema.
    Var(usize),
}

/// A negated subgoal compiled into an antijoin filter. Stratified
/// staging guarantees the negated predicate is fully materialized — an
/// EDB relation within this run — before any rule above it fires, so
/// the complement check is a plain probe into a frozen set at head
/// emission time.
#[derive(Clone, Debug)]
pub struct NegFilter {
    /// Bindings that block emission: the negated relation projected onto
    /// its variable positions (first occurrence per variable, in term
    /// order), with constant and repeated-variable filters pre-applied.
    pub blocked: FastSet<Tuple>,
    /// Final-stage-schema columns supplying the probe values, aligned
    /// with the projection above.
    pub probe_cols: Vec<usize>,
    /// A ground negated subgoal matched a fact: the rule never fires.
    pub always_block: bool,
}

/// One pipeline stage: joining the next subgoal's answers into the
/// accumulated bindings.
#[derive(Clone, Debug)]
pub struct StageCfg {
    /// Feeder arc indices of the subgoal's goal node, one per shard in
    /// shard order. A tuple request routes to
    /// `arcs[shard_hash(request) % arcs.len()]`; end-of-requests and the
    /// stage-close bookkeeping address every arc of the stage.
    pub arcs: Vec<usize>,
    /// Stage schema *after* this join (liveness-projected).
    pub schema: Vec<Var>,
    /// For each `d` position of the subgoal (in position order): the
    /// supplying column of the previous stage schema.
    pub request_from_prev: Vec<usize>,
    /// Join key columns in the previous stage schema.
    pub join_prev_cols: Vec<usize>,
    /// Join key columns in the subgoal's answer (transmitted space),
    /// aligned with `join_prev_cols`.
    pub join_answer_cols: Vec<usize>,
    /// Pairs of answer columns that must be equal (repeated variables).
    pub answer_eq_checks: Vec<(usize, usize)>,
    /// How to build a stage tuple from (previous stage tuple, answer).
    pub build: Vec<StageSource>,
    /// The subgoal's transmitted arity (width of its answer tuples).
    pub answer_arity: usize,
}

/// Source of one stage-schema column.
#[derive(Clone, Copy, Debug)]
pub enum StageSource {
    /// Column of the previous stage tuple.
    Prev(usize),
    /// Column of the incoming answer.
    Ans(usize),
}

/// Static configuration of a rule node's staged pipeline.
#[derive(Clone, Debug)]
pub struct RuleCfg {
    /// Instance head terms at the label's `d` positions (constants filter
    /// incoming bindings; variables seed stage 0).
    pub head_d_terms: Vec<Term>,
    /// Stage-0 schema: the distinct bound head variables.
    pub stage0_schema: Vec<Var>,
    /// The subgoal stages, in SIP order.
    pub stages: Vec<StageCfg>,
    /// Output map for the head label's transmitted positions.
    pub head_out: Vec<HeadSource>,
    /// Customer arc indices of the parent goal, one per shard in shard
    /// order (`[0]` when the parent is single-instance). A head answer
    /// routes to `head_arcs[shard_hash(key) % head_arcs.len()]`.
    pub head_arcs: Vec<usize>,
    /// Columns of the head answer (transmitted space) forming the
    /// routing key: the parent goal's `d` columns, so an answer lands on
    /// the shard that owns the binding it responds to. Empty when the
    /// parent is single-instance.
    pub head_hash_cols: Vec<usize>,
    /// Antijoin filters, one per negated subgoal, applied at head
    /// emission. Empty for purely positive rules.
    pub neg_filters: Vec<NegFilter>,
}

/// Per-rule-node mutable state.
#[derive(Clone, Debug, Default)]
pub struct RuleState {
    /// `stage_bindings[l]` = accumulated bindings after stage `l`
    /// (0 = head seeds), indexed for the next stage's join.
    pub stage_bindings: Vec<Relation>,
    /// Stored subgoal answers per stage (§3.1's temporary relations),
    /// indexed on the join key.
    pub ans_store: Vec<Relation>,
    /// Requests already sent per stage.
    pub requested: Vec<FastSet<Tuple>>,
    /// `stage_closed[l]`: no more stage-`l` bindings will be derived
    /// (trivial-component nodes only).
    pub stage_closed: Vec<bool>,
}

/// Per-goal-node mutable state.
#[derive(Clone, Debug, Default)]
pub struct GoalState {
    /// The node's answer relation (transmitted schema), indexed on the
    /// `d` columns.
    pub answers: Relation,
    /// Globally seen bindings (deduplicates forwarding to rule children).
    pub bindings: FastSet<Tuple>,
    /// binding → customer indices subscribed to it.
    pub subs_by_binding: FastMap<Tuple, Vec<usize>>,
}

/// Behavior + state of one process.
#[derive(Clone, Debug)]
pub enum Behavior {
    /// Expanded IDB goal node: unions its rule children, stores answers,
    /// streams per subscription.
    Goal {
        /// Static config.
        cfg: GoalCfg,
        /// Mutable state.
        st: GoalState,
    },
    /// EDB leaf.
    Edb {
        /// Static config.
        cfg: EdbCfg,
    },
    /// Rule node pipeline.
    Rule {
        /// Static config.
        cfg: RuleCfg,
        /// Mutable state.
        st: RuleState,
    },
    /// Cycle-reference relay.
    CycleRef {
        /// Static config.
        cfg: CycleCfg,
    },
}

/// State shared by all process kinds.
#[derive(Clone, Debug)]
pub struct Common {
    /// This node's id.
    pub id: NodeId,
    /// Customer arcs.
    pub customers: Vec<CustState>,
    /// Feeder arcs.
    pub feeders: Vec<FeederCfg>,
    /// Stream-end received per feeder.
    pub feeder_end: Vec<bool>,
    /// Outstanding (feeder, binding) tuple requests on cross arcs.
    pub pending: FastSet<(usize, Tuple)>,
    /// Relation request already forwarded to feeders.
    pub relreq_forwarded: bool,
    /// End-of-requests already sent to feeders.
    pub eor_sent_to_feeders: bool,
    /// §3.2 protocol state (members of nontrivial components only).
    pub term: Option<TermState>,
    /// Whether [`Network::set_batch_max`] may raise the flush bound
    /// above 1. Read by that setter only; the node consults `batch_max`.
    pub batching: bool,
    /// Flush bound: an arc's buffer reaching this size ships as one
    /// frame even mid-turn (the size bound of the flush policy; the turn
    /// bound is the mailbox-empty flush at the end of every `handle`).
    /// At 1 every item ships at the push, one frame each; above 1 a
    /// frame packages several (§3.1 footnote 2).
    pub batch_max: usize,
    /// Per-feeder buffer of requests awaiting a flush.
    pub batch_buf: Vec<Vec<Tuple>>,
    /// Per-customer buffer of answers awaiting a flush.
    pub answer_buf: Vec<Vec<Tuple>>,
    /// Per-customer buffer of per-binding ends awaiting the
    /// end-of-handle flush. Flushed after `answer_buf` on the same arc,
    /// so a binding's answers always precede its end (per-arc FIFO).
    pub etr_buf: Vec<Vec<Tuple>>,
    /// Per-arc logical items routed onto sharded links, feeder arcs
    /// first then customer arcs (stats only: feeds the
    /// `shard_routed_frames` counter and the `shard_max_skew` gauge).
    /// Stays all-zero on unsharded networks.
    pub shard_sent: Vec<u64>,
    /// Set on the first delivered `Cancel` wave (resource governance):
    /// the node keeps draining the protocol — frames are still acked —
    /// but drops work, discards its buffers, and never emits another
    /// answer (MP310). Sticky for the life of the process; a reborn
    /// node re-learns it from log replay.
    pub cancelled: bool,
}

/// One compiled process.
#[derive(Clone, Debug)]
pub struct Process {
    /// Shared plumbing.
    pub common: Common,
    /// Kind-specific behavior.
    pub behavior: Behavior,
}

/// How the compiler replicates nodes under `--shards K`: the requested
/// shard count and the per-logical-node fan-out vector (mp-analyze's
/// `shard_fan_outs`, each entry 1 or `shards`). The default plan is the
/// unsharded network.
#[derive(Clone, Debug, Default)]
pub struct ShardPlan {
    /// Requested shard count (0/1 = unsharded).
    pub shards: usize,
    /// Instances per logical node; missing entries default to 1.
    pub fan_out: Vec<usize>,
}

/// Deterministic shard router: fold the key values through
/// [`mp_storage::FastHasher`] (fixed seed, no per-process state), so the
/// simulated and pooled runtimes — and a replaying process — route every
/// frame identically.
pub fn shard_hash(values: &[Value]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = mp_storage::FastHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// [`shard_hash`] over a projection of `t`, without allocating the
/// projected tuple. The fold visits `cols` in order, so hashing a stored
/// row on its `d` positions equals hashing the request binding built
/// from those positions.
pub fn shard_hash_cols(t: &Tuple, cols: &[usize]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = mp_storage::FastHasher::default();
    for &c in cols {
        t[c].hash(&mut h);
    }
    h.finish()
}

/// The compiled network.
#[derive(Clone, Debug)]
pub struct Network {
    /// Processes indexed by physical id (== [`NodeId`] when unsharded).
    pub processes: Vec<Process>,
    /// The root goal node's physical id (its customer is the engine; the
    /// root is a gather point and never sharded).
    pub root: NodeId,
    /// Answer arity (the goal predicate's transmitted width).
    pub answer_arity: usize,
    /// Requested shard count (1 = unsharded).
    pub shards: usize,
    /// Physical id → (logical node id, shard index).
    pub shard_of: Vec<(NodeId, usize)>,
}

impl Network {
    /// Allow (`true`, the default) or forbid packaged frames on every
    /// process. `false` pins the flush bound to 1 whatever
    /// [`Network::set_batch_max`] is given before or after.
    pub fn set_batching(&mut self, on: bool) {
        for p in &mut self.processes {
            p.common.batching = on;
            if !on {
                p.common.batch_max = 1;
            }
        }
    }

    /// Set the per-arc flush bound on every process (clamped to ≥ 1;
    /// 1, the default, is one item per frame). Ignored after
    /// `set_batching(false)`.
    pub fn set_batch_max(&mut self, max: usize) {
        for p in &mut self.processes {
            if p.common.batching {
                p.common.batch_max = max.max(1);
            }
        }
    }

    /// Directed (from, to) node pairs that lie inside a nontrivial
    /// strong component, in both message directions. Credit windows are
    /// never applied to these links: stalling a recursive answer that
    /// its own producer transitively waits on could deadlock the cycle,
    /// so flow control gates only cross-component links and the engine
    /// injector.
    pub fn intra_pairs(&self) -> std::collections::BTreeSet<(NodeId, NodeId)> {
        let mut pairs = std::collections::BTreeSet::new();
        for p in &self.processes {
            let id = p.common.id;
            for c in &p.common.customers {
                if let (true, crate::msg::Endpoint::Node(n)) = (c.intra, c.ep) {
                    pairs.insert((id, n));
                    pairs.insert((n, id));
                }
            }
            for f in p.common.feeders.iter().filter(|f| f.intra) {
                pairs.insert((id, f.node));
                pairs.insert((f.node, id));
            }
            // Probe-tree links: at K=1 the BFST follows component arcs,
            // so these are already present; under sharding a captain's
            // shard siblings are protocol-only neighbors with no data
            // arc, and their wave traffic must never be credit-windowed
            // (stalling an EndConfirmed a concluding leader transitively
            // waits on could deadlock the wave).
            if let Some(t) = &p.common.term {
                if let Some(parent) = t.bfst_parent {
                    pairs.insert((id, parent));
                    pairs.insert((parent, id));
                }
                for &child in &t.bfst_children {
                    pairs.insert((id, child));
                    pairs.insert((child, id));
                }
            }
        }
        pairs
    }

    /// Compile `graph` over `db`, unsharded (every node single-instance).
    pub fn compile(graph: &RuleGoalGraph, db: &Database) -> Network {
        Self::compile_sharded(graph, db, &ShardPlan::default())
    }

    /// Compile `graph` over `db`, replicating each node `plan.fan_out`
    /// ways (ROADMAP item 1's data-parallel evaluation).
    ///
    /// Physical layout: logical node `X`'s instances occupy the
    /// contiguous physical ids `offsets[X] .. offsets[X] + fan_out[X]`.
    /// Only request-keyed goal-kind nodes fan out (see mp-analyze's
    /// `shard_fan_outs`), so every arc pairs a single-instance side with
    /// each shard of the other: a rule holds one feeder arc per shard of
    /// a sharded subgoal ([`StageCfg::arcs`]) and one customer arc per
    /// shard of a sharded parent ([`RuleCfg::head_arcs`]), routing both
    /// by [`shard_hash`]. The one shard-to-shard case is a sharded cycle
    /// reference over an equally-sharded (non-leader) ancestor, which
    /// pairs shard `s` with shard `s`: the reference forwards the very
    /// binding tuple its own requests were hash-routed by, so shard `s`
    /// only ever sees bindings it also owns at the ancestor.
    ///
    /// For the §3.2 protocol, shard 0 is its group's *captain*: it keeps
    /// the logical node's BFST parent/children (mapped to captains) and
    /// adopts its shard siblings as extra protocol children — the probe
    /// wave aggregates a shard group's idleness and Mattern counters
    /// through the captain before the (never-sharded) leader concludes,
    /// which is the two-level termination wave.
    pub fn compile_sharded(graph: &RuleGoalGraph, db: &Database, plan: &ShardPlan) -> Network {
        let scc = graph.scc();
        let intra = |a: NodeId, b: NodeId| -> bool {
            scc.component_of(a) == scc.component_of(b) && scc.in_nontrivial(a)
        };
        let fo = |id: NodeId| plan.fan_out.get(id).copied().unwrap_or(1).max(1);

        let mut offsets = Vec::with_capacity(graph.len());
        let mut n_phys = 0usize;
        for id in 0..graph.len() {
            offsets.push(n_phys);
            n_phys += fo(id);
        }

        let mut processes = Vec::with_capacity(n_phys);
        let mut shard_of = Vec::with_capacity(n_phys);
        for (id, node) in graph.nodes() {
            let k = fo(id);
            // Shared per-logical-node precomputation.
            let edb_template = match node {
                Node::Goal {
                    label,
                    kind: GoalKind::Edb,
                    ..
                } => Some(compile_edb(label, db)),
                _ => None,
            };
            for s in 0..k {
                shard_of.push((id, s));
                let mut customers: Vec<CustState> = Vec::new();
                for &(c, _) in graph.customers(id) {
                    let ck = fo(c);
                    if ck > 1 && k > 1 {
                        // Sharded cycle ref over a sharded ancestor:
                        // shard-aligned (fan-outs are equal by
                        // construction — both label variants share the
                        // same `d` structure and neither is the leader).
                        debug_assert_eq!(ck, k, "aligned shard groups");
                        customers
                            .push(CustState::new(Endpoint::Node(offsets[c] + s), intra(id, c)));
                    } else {
                        for t in 0..ck {
                            customers
                                .push(CustState::new(Endpoint::Node(offsets[c] + t), intra(id, c)));
                        }
                    }
                }
                if id == graph.root() {
                    customers.push(CustState::new(Endpoint::Engine, false));
                }

                let mut feeders: Vec<FeederCfg> = Vec::new();
                let mut feeder_arcs: Vec<Vec<usize>> = Vec::new();
                for &(f, _) in graph.feeders(id) {
                    let fk = fo(f);
                    let slot = feeder_arcs.len();
                    let mut arcs = Vec::with_capacity(fk);
                    if fk > 1 && k > 1 {
                        debug_assert_eq!(fk, k, "aligned shard groups");
                        arcs.push(feeders.len());
                        feeders.push(FeederCfg {
                            node: offsets[f] + s,
                            intra: intra(id, f),
                            slot,
                        });
                    } else {
                        for t in 0..fk {
                            arcs.push(feeders.len());
                            feeders.push(FeederCfg {
                                node: offsets[f] + t,
                                intra: intra(id, f),
                                slot,
                            });
                        }
                    }
                    feeder_arcs.push(arcs);
                }

                let term = if scc.in_nontrivial(id) {
                    let comp = scc.component_of(id);
                    let leader = scc.leader_of(comp).expect("nontrivial SCC has a leader");
                    debug_assert!(leader != id || k == 1, "leaders are never sharded");
                    if s == 0 {
                        // Captain: the logical BFST links (captains are
                        // shard 0, so `offsets` maps node → captain)
                        // plus the shard siblings as protocol children.
                        let mut children: Vec<NodeId> =
                            scc.bfst_children(id).iter().map(|&c| offsets[c]).collect();
                        children.extend((1..k).map(|t| offsets[id] + t));
                        Some(TermState::new(
                            leader == id,
                            scc.bfst_parent(id).map(|p| offsets[p]),
                            children,
                        ))
                    } else {
                        Some(TermState::new(false, Some(offsets[id]), Vec::new()))
                    }
                } else {
                    None
                };

                let behavior = match node {
                    Node::Goal { label, kind, .. } => match kind {
                        GoalKind::Idb => {
                            let d_in_transmitted = d_in_transmitted(label);
                            let transmitted_len = label.adornment().transmitted_positions().len();
                            let mut st = GoalState {
                                answers: Relation::new(transmitted_len),
                                ..GoalState::default()
                            };
                            let cfg = GoalCfg {
                                d_in_transmitted,
                                transmitted_len,
                            };
                            st.answers
                                .ensure_index(&cfg.d_in_transmitted)
                                .expect("columns in range");
                            Behavior::Goal { cfg, st }
                        }
                        GoalKind::Edb => {
                            let template =
                                edb_template.as_ref().expect("precomputed for EDB leaves");
                            Behavior::Edb {
                                cfg: if k > 1 {
                                    shard_edb(template, label, s, k)
                                } else {
                                    template.clone()
                                },
                            }
                        }
                        GoalKind::CycleRef { ancestor } => Behavior::CycleRef {
                            cfg: CycleCfg {
                                ancestor: *ancestor,
                            },
                        },
                    },
                    Node::Rule {
                        rule,
                        plan: sip,
                        head_label,
                        ..
                    } => {
                        let (mut cfg, st) = compile_rule(rule, sip, head_label, db);
                        debug_assert_eq!(k, 1, "rule nodes are never sharded");
                        for (i, stage) in cfg.stages.iter_mut().enumerate() {
                            stage.arcs = feeder_arcs[i].clone();
                        }
                        // Head routing: one arc per parent-goal shard
                        // (rules have exactly one logical customer).
                        cfg.head_arcs = (0..customers.len()).collect();
                        if customers.len() > 1 {
                            let parent = graph
                                .customers(id)
                                .first()
                                .map(|&(c, _)| c)
                                .expect("rule nodes have a parent goal");
                            let parent_label = graph
                                .node(parent)
                                .goal_label()
                                .expect("a rule's parent is a goal");
                            cfg.head_hash_cols = d_in_transmitted(parent_label);
                        }
                        Behavior::Rule { cfg, st }
                    }
                };

                let feeder_count = feeders.len();
                let customer_count = customers.len();
                processes.push(Process {
                    common: Common {
                        id: offsets[id] + s,
                        customers,
                        feeders,
                        feeder_end: vec![false; feeder_count],
                        pending: FastSet::default(),
                        relreq_forwarded: false,
                        eor_sent_to_feeders: false,
                        term,
                        batching: true,
                        batch_max: 1,
                        batch_buf: vec![Vec::new(); feeder_count],
                        answer_buf: vec![Vec::new(); customer_count],
                        etr_buf: vec![Vec::new(); customer_count],
                        shard_sent: vec![0; feeder_count + customer_count],
                        cancelled: false,
                    },
                    behavior,
                });
            }
        }

        let root_label = graph
            .node(graph.root())
            .goal_label()
            .expect("root is a goal node");
        Network {
            processes,
            root: offsets[graph.root()],
            answer_arity: root_label.adornment().transmitted_positions().len(),
            shards: plan.shards.max(1),
            shard_of,
        }
    }
}

/// Positions of a label's `d` arguments within its transmitted (non-`e`)
/// schema — the columns request bindings address and answers are routed
/// by.
fn d_in_transmitted(label: &mp_rulegoal::GoalLabel) -> Vec<usize> {
    let ad = label.adornment();
    let transmitted = ad.transmitted_positions();
    ad.d_positions()
        .iter()
        .map(|p| {
            transmitted
                .iter()
                .position(|t| t == p)
                .expect("d positions are transmitted")
        })
        .collect()
}

/// Shard `s`'s slice of a compiled EDB leaf: the rows whose `d`-position
/// projection hashes to `s`. A request binding is exactly those values
/// in the same order, so the shard a request routes to holds every row
/// that can answer it.
fn shard_edb(template: &EdbCfg, label: &mp_rulegoal::GoalLabel, s: usize, k: usize) -> EdbCfg {
    let d_positions = label.adornment().d_positions();
    debug_assert!(!d_positions.is_empty(), "sharded EDB leaves are keyed");
    let mut filtered = Relation::new(template.filtered.arity());
    for t in template.filtered.iter() {
        if shard_hash_cols(t, &d_positions) % k as u64 == s as u64 {
            filtered
                .insert(t.clone())
                .expect("same arity as the template");
        }
    }
    let index = KeyIndex::build(&filtered, &d_positions).expect("d positions in range");
    EdbCfg {
        filtered: Arc::new(filtered),
        index: Arc::new(index),
        transmitted: template.transmitted.clone(),
    }
}

/// Pre-filter and index an EDB relation for a leaf's label.
fn compile_edb(label: &mp_rulegoal::GoalLabel, db: &Database) -> EdbCfg {
    let ad = label.adornment();
    let base = match db.shared_relation(&label.pred) {
        Some(rel) => Arc::clone(rel),
        None => Arc::new(Relation::new(label.arity())),
    };

    // An unconstrained label reads the database's own snapshot. A label
    // with constants or repeated variables selects its (small) subset
    // through the base relation's index on the constant columns.
    let sel = label.selection();
    let filtered = if sel.is_empty() {
        base
    } else {
        let ids = base
            .select_ids(&sel)
            .expect("label positions lie within the relation's arity");
        let rows = ids.into_iter().map(|id| base.rows()[id as usize].clone());
        Arc::new(Relation::from_tuples(base.arity(), rows).expect("rows of the base relation"))
    };
    let index = filtered
        .shared_index(&ad.d_positions())
        .expect("d positions in range");
    EdbCfg {
        filtered,
        index,
        transmitted: ad.transmitted_positions(),
    }
}

/// Compile a rule node's staged pipeline. `db` supplies the extensions
/// of the rule's negated subgoals — within a stratified run those are
/// EDB relations (lower strata have already been materialized).
fn compile_rule(
    rule: &mp_datalog::Rule,
    plan: &mp_rulegoal::SipPlan,
    head_label: &mp_rulegoal::GoalLabel,
    db: &Database,
) -> (RuleCfg, RuleState) {
    let head_ad = head_label.adornment();
    let head_d = head_ad.d_positions();
    let head_t = head_ad.transmitted_positions();

    let head_d_terms: Vec<Term> = head_d.iter().map(|&p| rule.head.terms[p].clone()).collect();
    let mut stage0_schema: Vec<Var> = Vec::new();
    for t in &head_d_terms {
        if let Term::Var(v) = t {
            if !stage0_schema.contains(v) {
                stage0_schema.push(v.clone());
            }
        }
    }

    // Head transmitted variables are live through every stage; negated
    // subgoal variables must also survive to the final stage, where the
    // antijoin probe reads them.
    let mut head_live: BTreeSet<Var> = head_t
        .iter()
        .filter_map(|&p| rule.head.terms[p].as_var().cloned())
        .collect();
    for n in &rule.neg {
        head_live.extend(n.vars());
    }

    let k = plan.order.len();
    let mut stages = Vec::with_capacity(k);
    let mut prev_schema = stage0_schema.clone();

    for (i, &sg_idx) in plan.order.iter().enumerate() {
        let atom = &rule.body[sg_idx];
        let ad = &plan.adornments[sg_idx];
        let tp = ad.transmitted_positions();

        // Answer-space variable map and equality checks.
        let mut ans_first: HashMap<Var, usize> = HashMap::new();
        let mut answer_eq_checks = Vec::new();
        let mut ans_vars_in_order: Vec<Var> = Vec::new();
        for (ai, &p) in tp.iter().enumerate() {
            if let Term::Var(v) = &atom.terms[p] {
                match ans_first.get(v) {
                    Some(&first) => answer_eq_checks.push((first, ai)),
                    None => {
                        ans_first.insert(v.clone(), ai);
                        ans_vars_in_order.push(v.clone());
                    }
                }
            }
        }

        // Liveness: variables needed after this stage.
        let mut live: BTreeSet<Var> = head_live.clone();
        for &later in &plan.order[i + 1..] {
            live.extend(rule.body[later].vars());
        }

        let prev_set: BTreeSet<Var> = prev_schema.iter().cloned().collect();
        let mut schema: Vec<Var> = prev_schema
            .iter()
            .filter(|v| live.contains(*v))
            .cloned()
            .collect();
        for v in &ans_vars_in_order {
            if live.contains(v) && !prev_set.contains(v) && !schema.contains(v) {
                schema.push(v.clone());
            }
        }

        // Join key: answer vars already present in the previous schema.
        let mut join_prev_cols = Vec::new();
        let mut join_answer_cols = Vec::new();
        for (pi, v) in prev_schema.iter().enumerate() {
            if let Some(&ai) = ans_first.get(v) {
                join_prev_cols.push(pi);
                join_answer_cols.push(ai);
            }
        }

        // Requests: the subgoal's d positions supplied from the previous
        // stage.
        let request_from_prev = ad
            .d_positions()
            .iter()
            .map(|&p| {
                let v = atom.terms[p]
                    .as_var()
                    .expect("class-d arguments are variables");
                prev_schema
                    .iter()
                    .position(|pv| pv == v)
                    .expect("d variables are bound by earlier stages")
            })
            .collect();

        let build = schema
            .iter()
            .map(|v| match prev_schema.iter().position(|pv| pv == v) {
                Some(pi) => StageSource::Prev(pi),
                None => StageSource::Ans(ans_first[v]),
            })
            .collect();

        stages.push(StageCfg {
            // Identity stage↔arc map; `compile_sharded` rewrites this
            // when a subgoal fans out.
            arcs: vec![i],
            schema: schema.clone(),
            request_from_prev,
            join_prev_cols,
            join_answer_cols,
            answer_eq_checks,
            build,
            answer_arity: tp.len(),
        });
        prev_schema = schema;
    }

    let head_out = head_t
        .iter()
        .map(|&p| match &rule.head.terms[p] {
            Term::Const(v) => HeadSource::Const(*v),
            Term::Var(v) => HeadSource::Var(
                prev_schema
                    .iter()
                    .position(|pv| pv == v)
                    .expect("transmitted head variables survive liveness"),
            ),
        })
        .collect();

    // Antijoin filters: project each negated subgoal's extension onto
    // its variable positions (after applying constant and repeated-
    // variable filters) and resolve those variables in the final stage
    // schema — `head_live` above keeps them alive through every stage.
    let neg_filters: Vec<NegFilter> = rule
        .neg
        .iter()
        .map(|atom| {
            let empty = Relation::new(atom.terms.len());
            let base: &Relation = db.relation(&atom.pred).unwrap_or(&empty);
            let mut const_checks: Vec<(usize, Value)> = Vec::new();
            let mut var_cols: Vec<usize> = Vec::new();
            let mut var_order: Vec<&Var> = Vec::new();
            let mut eq_checks: Vec<(usize, usize)> = Vec::new();
            for (i, t) in atom.terms.iter().enumerate() {
                match t {
                    Term::Const(v) => const_checks.push((i, *v)),
                    Term::Var(v) => match var_order.iter().position(|w| *w == v) {
                        Some(first) => eq_checks.push((var_cols[first], i)),
                        None => {
                            var_order.push(v);
                            var_cols.push(i);
                        }
                    },
                }
            }
            let mut blocked = FastSet::default();
            for t in base.iter() {
                let consts_ok = const_checks.iter().all(|(i, v)| &t[*i] == v);
                let eq_ok = eq_checks.iter().all(|&(a, b)| t[a] == t[b]);
                if consts_ok && eq_ok {
                    blocked.insert(t.project(&var_cols));
                }
            }
            let always_block = var_cols.is_empty() && !blocked.is_empty();
            let probe_cols = var_order
                .iter()
                .map(|v| {
                    prev_schema
                        .iter()
                        .position(|pv| pv == *v)
                        .expect("negated variables are bound by positive subgoals (MP011)")
                })
                .collect();
            NegFilter {
                blocked,
                probe_cols,
                always_block,
            }
        })
        .collect();

    // Mutable state with indexes prepared.
    let mut stage_bindings = Vec::with_capacity(k + 1);
    let mut first = Relation::new(stage0_schema.len());
    if let Some(s) = stages.first() {
        first.ensure_index(&s.join_prev_cols).expect("in range");
    }
    stage_bindings.push(first);
    for (i, s) in stages.iter().enumerate() {
        let mut rel = Relation::new(s.schema.len());
        if let Some(next) = stages.get(i + 1) {
            rel.ensure_index(&next.join_prev_cols).expect("in range");
        }
        stage_bindings.push(rel);
    }
    let ans_store = stages
        .iter()
        .map(|s| {
            let mut rel = Relation::new(s.answer_arity);
            rel.ensure_index(&s.join_answer_cols).expect("in range");
            rel
        })
        .collect();

    let st = RuleState {
        stage_bindings,
        ans_store,
        requested: vec![FastSet::default(); k],
        stage_closed: vec![false; k + 1],
    };
    (
        RuleCfg {
            head_d_terms,
            stage0_schema,
            stages,
            head_out,
            head_arcs: vec![0],
            head_hash_cols: Vec::new(),
            neg_filters,
        },
        st,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datalog::parser::parse_program;
    use mp_rulegoal::SipKind;
    use mp_storage::tuple;

    /// Every EDB leaf of the compiled network.
    fn leaves(net: &Network) -> Vec<&EdbCfg> {
        net.processes
            .iter()
            .filter_map(|p| match &p.behavior {
                Behavior::Edb { cfg } => Some(cfg),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn leaves_share_the_databases_rows_and_indexes() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).
             path(X, Z) :- edge(X, Y), path(Y, Z).
             ?- path(1, Z).",
        )
        .unwrap();
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 1), (4, 5)] {
            db.insert("edge", tuple![a, b]).unwrap();
        }
        let edge = db.shared_relation(&"edge".into()).unwrap();
        let graph = RuleGoalGraph::build(&program, &db, SipKind::Greedy).unwrap();

        let first = Network::compile(&graph, &db.clone());
        let second = Network::compile(&graph, &db.clone());
        let (first, second) = (leaves(&first), leaves(&second));
        assert!(!first.is_empty() && first.len() == second.len());
        let mut unconstrained = 0;
        for (a, b) in first.iter().zip(&second) {
            if Arc::ptr_eq(&a.filtered, edge) {
                // No constant, no repeated variable: the leaf reads the
                // database's own snapshot, and a later compile on another
                // clone is handed the very same index.
                unconstrained += 1;
                assert!(Arc::ptr_eq(&b.filtered, edge));
                assert!(Arc::ptr_eq(&a.index, &b.index));
            } else {
                // `edge(1, Y)`: the selected subset, probed out of the
                // base relation's memoised constant-column index.
                assert_eq!(a.filtered.rows(), &[tuple![1, 2]]);
                assert_eq!(b.filtered.rows(), a.filtered.rows());
            }
        }
        assert!(unconstrained > 0 && unconstrained < first.len());

        // A write to the caller's database leaves compiled leaves alone.
        let widest = |ls: &[&EdbCfg]| ls.iter().map(|l| l.filtered.len()).max();
        db.insert("edge", tuple![1, 9]).unwrap();
        assert_eq!(widest(&first), Some(4));
        assert_eq!(widest(&leaves(&Network::compile(&graph, &db))), Some(5));
    }
}
