//! Instrumentation: the communication- and work-volume observables the
//! paper's efficiency arguments are stated in ("there are various
//! trade-offs between … the amount of communication between processes and
//! the amount of redundant computation in the form of joins and database
//! retrievals", §3.1).

/// Counters collected over one evaluation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Relation-request messages.
    pub relation_requests: u64,
    /// Tuple-request frames (one per frame, however many bindings it
    /// carries; the bindings are [`Stats::logical_tuple_requests`]).
    pub tuple_requests: u64,
    /// Answer frames (the tuples are [`Stats::logical_answers`]).
    pub answers: u64,
    /// Per-binding end frames (the bindings are
    /// [`Stats::logical_end_tuple_requests`]).
    pub end_tuple_requests: u64,
    /// Stream end / end-of-requests messages.
    pub stream_ends: u64,
    /// Logical tuple requests: every binding shipped, however framed.
    /// Invariant under the batch size.
    pub logical_tuple_requests: u64,
    /// Logical answers: every tuple shipped, however framed. Invariant
    /// under the batch size.
    pub logical_answers: u64,
    /// Logical per-binding completions, however framed. Invariant under
    /// the batch size.
    pub logical_end_tuple_requests: u64,
    /// §3.2 protocol messages (end request / negative / confirmed /
    /// finished).
    pub protocol_messages: u64,
    /// Completed probe waves (each wave = one end-request flood).
    pub probe_waves: u64,
    /// Distinct tuples stored across all node-local temporary relations.
    pub stored_tuples: u64,
    /// Distinct tuples stored at goal-node answer relations only — the
    /// direct analogue of a bottom-up evaluator's IDB store (total
    /// storage is larger because rule nodes also keep their subgoals'
    /// temporary relations, the space-for-communication trade of §3.1).
    pub goal_stored: u64,
    /// Join probe operations inside rule nodes.
    pub join_probes: u64,
    /// Tuples produced by rule-node pipelines (head answers before
    /// goal-node deduplication).
    pub derived_tuples: u64,
    /// Largest single node-local relation observed.
    pub max_relation_size: u64,
    /// Largest rule-node *stage* relation (intermediate join results) —
    /// the quantity the monotone flow property bounds (§4.3).
    pub max_stage_relation: u64,
    /// EDB index lookups.
    pub edb_lookups: u64,
    /// Messages processed in total.
    pub messages_processed: u64,

    // ---- static analysis (set by Engine from compile, not by nodes) ----
    /// Rule/goal-graph nodes removed by analysis pruning before the
    /// network was compiled.
    pub pruned_nodes: u64,
    /// Rule nodes among [`Stats::pruned_nodes`] (the rest are goal/EDB
    /// nodes that became unreachable with them).
    pub pruned_rules: u64,

    // ---- fault injection and recovery (zero on a fault-free run) ----
    /// Message copies dropped by the fault plan.
    pub fault_dropped: u64,
    /// Message copies duplicated by the fault plan.
    pub fault_duplicated: u64,
    /// Message copies delayed (reordered) by the fault plan.
    pub fault_delayed: u64,
    /// Message copies corrupted in flight (detected and discarded).
    pub fault_corrupted: u64,
    /// Transport retransmissions of unacked messages.
    pub retransmits: u64,
    /// Transport acknowledgement frames.
    pub acks: u64,
    /// Transport-level duplicates discarded at the receiver.
    pub dups_discarded: u64,
    /// Stale protocol events dropped (superseded wave / old epoch).
    pub stale_dropped: u64,
    /// Malformed or misrouted frames dropped at a node.
    pub malformed_dropped: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Messages replayed from durable logs during node recovery.
    pub replayed: u64,
    /// Restart-generation bumps (one per recovered node incarnation).
    pub epoch_bumps: u64,

    // ---- worker-pool scheduler (zero on the simulator) ----
    /// Node activations executed by the worker pool (one activation =
    /// one mailbox drain).
    pub sched_activations: u64,
    /// Activations a worker took from another worker's deque.
    pub sched_steals: u64,
    /// Idle transitions after a steal sweep found every deque empty.
    pub sched_steal_failures: u64,
    /// High-water mark of queued activations across all deques.
    pub sched_max_queue: u64,

    // ---- resource governance (zero without a budget or cancel) ----
    /// High-water mark of interned-arena + queued-mailbox bytes observed
    /// by the governor.
    pub mem_high_water_bytes: u64,
    /// High-water mark of any single node mailbox's depth (frames).
    pub mailbox_high_water: u64,
    /// Cancel drain waves broadcast by the engine (budget trips and
    /// explicit cancels).
    pub cancel_waves: u64,
    /// Frames the credit window held back from the wire until a
    /// cumulative ack opened it (backpressure events, not losses).
    pub credits_stalled: u64,

    // ---- sharded evaluation (zero at --shards 1) ----
    /// Logical items (requests or head answers) routed across a sharded
    /// link by partition-key hash — a measure of how much traffic the
    /// shard router actually split.
    pub shard_routed_frames: u64,
    /// High-water mark of any single shard arc's routed-item count — the
    /// worst hash skew observed (perfectly balanced traffic keeps this
    /// near `shard_routed_frames / K`).
    pub shard_max_skew: u64,

    // ---- stratified evaluation (set by Engine, not by nodes) ----
    /// Engine runs the staged driver executed for this query: 1 for a
    /// flat (negation/aggregation-free) program, the number of pipeline
    /// stages — strata plus aggregate materializations — otherwise.
    pub strata_evaluated: u64,
}

/// The seven schedule-invariant counters of one evaluation (Thm 4.1):
/// the logical traffic and the work it caused. For a given program,
/// database, SIP strategy and analysis setting they are identical under
/// every schedule, runtime, batch size, worker count, shard count and
/// recovered fault plan — the projection of [`Stats`] that invariance
/// tests compare with `==`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogicalCounters {
    /// [`Stats::logical_tuple_requests`].
    pub logical_tuple_requests: u64,
    /// [`Stats::logical_answers`].
    pub logical_answers: u64,
    /// [`Stats::logical_end_tuple_requests`].
    pub logical_end_tuple_requests: u64,
    /// [`Stats::derived_tuples`].
    pub derived_tuples: u64,
    /// [`Stats::stored_tuples`].
    pub stored_tuples: u64,
    /// [`Stats::goal_stored`].
    pub goal_stored: u64,
    /// [`Stats::join_probes`].
    pub join_probes: u64,
}

impl Stats {
    /// The schedule-invariant projection (see [`LogicalCounters`]).
    pub fn logical(&self) -> LogicalCounters {
        LogicalCounters {
            logical_tuple_requests: self.logical_tuple_requests,
            logical_answers: self.logical_answers,
            logical_end_tuple_requests: self.logical_end_tuple_requests,
            derived_tuples: self.derived_tuples,
            stored_tuples: self.stored_tuples,
            goal_stored: self.goal_stored,
            join_probes: self.join_probes,
        }
    }

    /// Total *physical* messages sent (frames on the wire), by summing
    /// the per-kind counters. A frame counts as one, whatever it packs.
    pub fn total_messages(&self) -> u64 {
        self.relation_requests
            + self.tuple_requests
            + self.answers
            + self.end_tuple_requests
            + self.stream_ends
            + self.protocol_messages
    }

    /// Total *logical* messages: every binding, answer tuple, and
    /// per-binding completion counted individually, plus the kinds that
    /// never batch. Invariant under batching — two runs of the same
    /// query at different batch sizes report the same value.
    pub fn logical_messages(&self) -> u64 {
        self.relation_requests
            + self.logical_tuple_requests
            + self.logical_answers
            + self.logical_end_tuple_requests
            + self.stream_ends
            + self.protocol_messages
    }

    /// Work messages (everything except the termination protocol).
    pub fn work_messages(&self) -> u64 {
        self.total_messages() - self.protocol_messages
    }

    /// Protocol overhead ratio: protocol messages per work message.
    pub fn protocol_overhead(&self) -> f64 {
        if self.work_messages() == 0 {
            0.0
        } else {
            self.protocol_messages as f64 / self.work_messages() as f64
        }
    }

    /// Merge another stats block into this one (used by the threaded
    /// runtime to sum per-node counters). Counters sum; high-water marks
    /// take the max.
    pub fn merge(&mut self, other: &Stats) {
        // Exhaustive destructuring — deliberately no `..` rest pattern,
        // so adding a counter without deciding how it merges is a
        // compile error here, not a silently dropped statistic.
        let Stats {
            relation_requests,
            tuple_requests,
            answers,
            end_tuple_requests,
            stream_ends,
            logical_tuple_requests,
            logical_answers,
            logical_end_tuple_requests,
            protocol_messages,
            probe_waves,
            stored_tuples,
            goal_stored,
            join_probes,
            derived_tuples,
            max_relation_size,
            max_stage_relation,
            edb_lookups,
            messages_processed,
            pruned_nodes,
            pruned_rules,
            fault_dropped,
            fault_duplicated,
            fault_delayed,
            fault_corrupted,
            retransmits,
            acks,
            dups_discarded,
            stale_dropped,
            malformed_dropped,
            crashes,
            replayed,
            epoch_bumps,
            sched_activations,
            sched_steals,
            sched_steal_failures,
            sched_max_queue,
            mem_high_water_bytes,
            mailbox_high_water,
            cancel_waves,
            credits_stalled,
            shard_routed_frames,
            shard_max_skew,
            strata_evaluated,
        } = other;
        self.relation_requests += relation_requests;
        self.tuple_requests += tuple_requests;
        self.answers += answers;
        self.end_tuple_requests += end_tuple_requests;
        self.stream_ends += stream_ends;
        self.logical_tuple_requests += logical_tuple_requests;
        self.logical_answers += logical_answers;
        self.logical_end_tuple_requests += logical_end_tuple_requests;
        self.protocol_messages += protocol_messages;
        self.probe_waves += probe_waves;
        self.stored_tuples += stored_tuples;
        self.goal_stored += goal_stored;
        self.join_probes += join_probes;
        self.derived_tuples += derived_tuples;
        self.max_relation_size = self.max_relation_size.max(*max_relation_size);
        self.max_stage_relation = self.max_stage_relation.max(*max_stage_relation);
        self.edb_lookups += edb_lookups;
        self.messages_processed += messages_processed;
        self.pruned_nodes += pruned_nodes;
        self.pruned_rules += pruned_rules;
        self.fault_dropped += fault_dropped;
        self.fault_duplicated += fault_duplicated;
        self.fault_delayed += fault_delayed;
        self.fault_corrupted += fault_corrupted;
        self.retransmits += retransmits;
        self.acks += acks;
        self.dups_discarded += dups_discarded;
        self.stale_dropped += stale_dropped;
        self.malformed_dropped += malformed_dropped;
        self.crashes += crashes;
        self.replayed += replayed;
        self.epoch_bumps += epoch_bumps;
        self.sched_activations += sched_activations;
        self.sched_steals += sched_steals;
        self.sched_steal_failures += sched_steal_failures;
        self.sched_max_queue = self.sched_max_queue.max(*sched_max_queue);
        self.mem_high_water_bytes = self.mem_high_water_bytes.max(*mem_high_water_bytes);
        self.mailbox_high_water = self.mailbox_high_water.max(*mailbox_high_water);
        self.cancel_waves += cancel_waves;
        self.credits_stalled += credits_stalled;
        self.shard_routed_frames += shard_routed_frames;
        self.shard_max_skew = self.shard_max_skew.max(*shard_max_skew);
        self.strata_evaluated += strata_evaluated;
    }

    /// Total fault events injected by the active plan.
    pub fn faults_injected(&self) -> u64 {
        self.fault_dropped + self.fault_duplicated + self.fault_delayed + self.fault_corrupted
    }

    /// Transport overhead ratio: retransmissions per logical message.
    /// Must be ~0 when the fault plan is inactive (clean path).
    pub fn retransmit_overhead(&self) -> f64 {
        if self.total_messages() == 0 {
            0.0
        } else {
            self.retransmits as f64 / self.total_messages() as f64
        }
    }

    /// Record an outgoing message.
    pub fn count_send(&mut self, payload: &crate::msg::Payload) {
        use crate::msg::Payload as P;
        match payload {
            P::RelationRequest => self.relation_requests += 1,
            P::TupleRequests(bindings) => {
                self.tuple_requests += 1;
                self.logical_tuple_requests += bindings.len() as u64;
            }
            P::Answers(tuples) => {
                self.answers += 1;
                self.logical_answers += tuples.len() as u64;
            }
            P::EndTupleRequests(bindings) => {
                self.end_tuple_requests += 1;
                self.logical_end_tuple_requests += bindings.len() as u64;
            }
            P::End | P::EndOfRequests => self.stream_ends += 1,
            P::EndRequest { .. }
            | P::EndNegative { .. }
            | P::EndConfirmed { .. }
            | P::SccFinished
            | P::Reborn { .. }
            | P::Cancel { .. } => self.protocol_messages += 1,
            P::Shutdown => {}
        }
    }
}

impl std::fmt::Display for Stats {
    /// Render every counter, one `-- `-prefixed line each (the `mpq
    /// --stats` format). Exhaustive by construction: the destructuring
    /// below has no `..` rest pattern, so a counter added to the struct
    /// but not printed is a compile error, and the display test asserts
    /// each field's line is present.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Stats {
            relation_requests,
            tuple_requests,
            answers,
            end_tuple_requests,
            stream_ends,
            logical_tuple_requests,
            logical_answers,
            logical_end_tuple_requests,
            protocol_messages,
            probe_waves,
            stored_tuples,
            goal_stored,
            join_probes,
            derived_tuples,
            max_relation_size,
            max_stage_relation,
            edb_lookups,
            messages_processed,
            pruned_nodes,
            pruned_rules,
            fault_dropped,
            fault_duplicated,
            fault_delayed,
            fault_corrupted,
            retransmits,
            acks,
            dups_discarded,
            stale_dropped,
            malformed_dropped,
            crashes,
            replayed,
            epoch_bumps,
            sched_activations,
            sched_steals,
            sched_steal_failures,
            sched_max_queue,
            mem_high_water_bytes,
            mailbox_high_water,
            cancel_waves,
            credits_stalled,
            shard_routed_frames,
            shard_max_skew,
            strata_evaluated,
        } = self;
        writeln!(f, "-- messages (frames)  : {}", self.total_messages())?;
        writeln!(f, "--   relation requests: {relation_requests}")?;
        writeln!(f, "--   tuple requests   : {tuple_requests}")?;
        writeln!(f, "--   answers          : {answers}")?;
        writeln!(f, "--   end requests     : {end_tuple_requests}")?;
        writeln!(f, "--   stream ends      : {stream_ends}")?;
        writeln!(f, "--   protocol         : {protocol_messages}")?;
        writeln!(f, "-- logical traffic (items; batch-size-invariant)")?;
        writeln!(f, "--   tuple requests   : {logical_tuple_requests}")?;
        writeln!(f, "--   answers          : {logical_answers}")?;
        writeln!(f, "--   end requests     : {logical_end_tuple_requests}")?;
        writeln!(f, "-- messages processed : {messages_processed}")?;
        writeln!(f, "-- probe waves        : {probe_waves}")?;
        writeln!(f, "-- stored tuples      : {stored_tuples}")?;
        writeln!(f, "--   at goal nodes    : {goal_stored}")?;
        writeln!(f, "-- join probes        : {join_probes}")?;
        writeln!(f, "-- derived tuples     : {derived_tuples}")?;
        writeln!(f, "-- max relation size  : {max_relation_size}")?;
        writeln!(f, "-- max stage relation : {max_stage_relation}")?;
        writeln!(f, "-- edb lookups        : {edb_lookups}")?;
        writeln!(f, "-- pruned nodes       : {pruned_nodes}")?;
        writeln!(f, "--   pruned rules     : {pruned_rules}")?;
        writeln!(f, "-- faults injected    : {}", self.faults_injected())?;
        writeln!(f, "--   dropped          : {fault_dropped}")?;
        writeln!(f, "--   duplicated       : {fault_duplicated}")?;
        writeln!(f, "--   delayed          : {fault_delayed}")?;
        writeln!(f, "--   corrupted        : {fault_corrupted}")?;
        writeln!(f, "-- retransmits        : {retransmits}")?;
        writeln!(f, "-- acks               : {acks}")?;
        writeln!(f, "-- dups discarded     : {dups_discarded}")?;
        writeln!(f, "-- stale dropped      : {stale_dropped}")?;
        writeln!(f, "-- malformed dropped  : {malformed_dropped}")?;
        writeln!(f, "-- crashes            : {crashes}")?;
        writeln!(f, "--   replayed msgs    : {replayed}")?;
        writeln!(f, "--   epoch bumps      : {epoch_bumps}")?;
        writeln!(f, "-- sched activations  : {sched_activations}")?;
        writeln!(f, "--   steals           : {sched_steals}")?;
        writeln!(f, "--   steal failures   : {sched_steal_failures}")?;
        writeln!(f, "--   max queue depth  : {sched_max_queue}")?;
        writeln!(f, "-- mem high water (B) : {mem_high_water_bytes}")?;
        writeln!(f, "-- mailbox high water : {mailbox_high_water}")?;
        writeln!(f, "-- cancel waves       : {cancel_waves}")?;
        writeln!(f, "-- credits stalled    : {credits_stalled}")?;
        writeln!(f, "-- shard routed frames: {shard_routed_frames}")?;
        writeln!(f, "-- shard max skew     : {shard_max_skew}")?;
        writeln!(f, "-- strata evaluated   : {strata_evaluated}")?;
        writeln!(
            f,
            "-- retransmit overhead: {:.1}%",
            100.0 * self.retransmit_overhead()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Pack, Payload};
    use mp_storage::tuple;

    #[test]
    fn count_send_buckets() {
        let mut s = Stats::default();
        s.count_send(&Payload::TupleRequests(Pack::One(tuple![1])));
        s.count_send(&Payload::Answers(Pack::One(tuple![1])));
        s.count_send(&Payload::End);
        s.count_send(&Payload::EndRequest { wave: 0, epoch: 0 });
        assert_eq!(s.tuple_requests, 1);
        assert_eq!(s.answers, 1);
        assert_eq!(s.stream_ends, 1);
        assert_eq!(s.protocol_messages, 1);
        assert_eq!(s.total_messages(), 4);
        assert_eq!(s.work_messages(), 3);
        assert!((s.protocol_overhead() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_frame_counts_once_physically_and_per_item_logically() {
        let mut s = Stats::default();
        s.count_send(&Payload::Answers(Pack::Many(vec![
            tuple![1],
            tuple![2],
            tuple![3],
        ])));
        s.count_send(&Payload::EndTupleRequests(Pack::Many(vec![
            tuple![1],
            tuple![2],
        ])));
        s.count_send(&Payload::TupleRequests(Pack::Many(vec![
            tuple![4],
            tuple![5],
        ])));
        assert_eq!(s.answers, 1);
        assert_eq!(s.end_tuple_requests, 1);
        assert_eq!(s.tuple_requests, 1);
        assert_eq!(s.logical_answers, 3);
        assert_eq!(s.logical_end_tuple_requests, 2);
        assert_eq!(s.logical_tuple_requests, 2);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.logical_messages(), 7);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = Stats {
            answers: 2,
            max_relation_size: 10,
            ..Stats::default()
        };
        let b = Stats {
            answers: 3,
            max_relation_size: 7,
            ..Stats::default()
        };
        a.merge(&b);
        assert_eq!(a.answers, 5);
        assert_eq!(a.max_relation_size, 10);
    }

    #[test]
    fn zero_work_has_zero_overhead() {
        assert_eq!(Stats::default().protocol_overhead(), 0.0);
    }

    /// Every field, no `..Default::default()`: adding a counter to the
    /// struct forces this literal (and therefore a merge decision) to
    /// be updated.
    fn all_fields(v: u64) -> Stats {
        Stats {
            relation_requests: v,
            tuple_requests: v,
            answers: v,
            end_tuple_requests: v,
            stream_ends: v,
            logical_tuple_requests: v,
            logical_answers: v,
            logical_end_tuple_requests: v,
            protocol_messages: v,
            probe_waves: v,
            stored_tuples: v,
            goal_stored: v,
            join_probes: v,
            derived_tuples: v,
            max_relation_size: v,
            max_stage_relation: v,
            edb_lookups: v,
            messages_processed: v,
            pruned_nodes: v,
            pruned_rules: v,
            fault_dropped: v,
            fault_duplicated: v,
            fault_delayed: v,
            fault_corrupted: v,
            retransmits: v,
            acks: v,
            dups_discarded: v,
            stale_dropped: v,
            malformed_dropped: v,
            crashes: v,
            replayed: v,
            epoch_bumps: v,
            sched_activations: v,
            sched_steals: v,
            sched_steal_failures: v,
            sched_max_queue: v,
            mem_high_water_bytes: v,
            mailbox_high_water: v,
            cancel_waves: v,
            credits_stalled: v,
            shard_routed_frames: v,
            shard_max_skew: v,
            strata_evaluated: v,
        }
    }

    #[test]
    fn merge_is_exhaustive_over_all_fields() {
        let mut a = all_fields(1);
        a.merge(&all_fields(2));
        let mut expect = all_fields(3);
        // High-water marks take the max, not the sum.
        expect.max_relation_size = 2;
        expect.max_stage_relation = 2;
        expect.sched_max_queue = 2;
        expect.mem_high_water_bytes = 2;
        expect.mailbox_high_water = 2;
        expect.shard_max_skew = 2;
        assert_eq!(a, expect);
    }

    #[test]
    fn display_mentions_every_counter() {
        // Distinct per-field values; each must surface in the rendering.
        let mut s = Stats::default();
        let text = {
            let mut v = 1000;
            macro_rules! set {
                ($($field:ident),* $(,)?) => {
                    $( s.$field = v; v += 1; )*
                };
            }
            set!(
                relation_requests,
                tuple_requests,
                answers,
                end_tuple_requests,
                stream_ends,
                logical_tuple_requests,
                logical_answers,
                logical_end_tuple_requests,
                protocol_messages,
                probe_waves,
                stored_tuples,
                goal_stored,
                join_probes,
                derived_tuples,
                max_relation_size,
                max_stage_relation,
                edb_lookups,
                messages_processed,
                pruned_nodes,
                pruned_rules,
                fault_dropped,
                fault_duplicated,
                fault_delayed,
                fault_corrupted,
                retransmits,
                acks,
                dups_discarded,
                stale_dropped,
                malformed_dropped,
                crashes,
                replayed,
                epoch_bumps,
                sched_activations,
                sched_steals,
                sched_steal_failures,
                sched_max_queue,
                mem_high_water_bytes,
                mailbox_high_water,
                cancel_waves,
                credits_stalled,
                shard_routed_frames,
                shard_max_skew,
                strata_evaluated,
            );
            let _ = v;
            s.to_string()
        };
        for v in 1000..1043 {
            assert!(
                text.contains(&format!(": {v}")),
                "counter value {v} missing from Display output:\n{text}"
            );
        }
    }
}
