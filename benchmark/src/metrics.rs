//! The metric tables. `BENCHMARK.json` lists the same names and units
//! (and, alone, each metric's direction and bound); a unit test holds
//! the two in step.

use crate::json::Json;

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user of the engine sees, measured with tracing off.
pub const END_TO_END: &[Def] = &[
    def("op_ms_p50", "ms"),
    def("op_ms_p95", "ms"),
    def("ops_per_s", "1/s"),
    def("cpu_ms_per_op", "ms"),
    def("peak_rss_mb", "MB"),
    def("setup_s", "s"),
];

/// Single layers, from the traced pass. Prefix = crate or module.
pub const PER_LAYER: &[Def] = &[
    def("datalog.parse_ms", "ms"),
    def("datalog.parse_facts_per_s", "1/s"),
    def("datalog.db_clone_ms", "ms"),
    def("engine.new_ms", "ms"),
    def("lint.program_ms", "ms"),
    def("lint.graph_ms", "ms"),
    def("analyze.stratify_ms", "ms"),
    def("analyze.analyze_ms", "ms"),
    def("analyze.pruned_nodes", "count"),
    def("rulegoal.build_ms", "ms"),
    def("rulegoal.nodes", "count"),
    def("engine.compile_ms", "ms"),
    def("engine.compile_residual_ms", "ms"),
    def("node.network_compile_ms", "ms"),
    def("runtime.run_ms", "ms"),
    def("runtime.messages_processed", "count"),
    def("runtime.ns_per_message", "ns"),
    def("msg.logical_messages", "count"),
    def("msg.physical_frames", "count"),
    def("msg.protocol_messages", "count"),
    def("msg.protocol_overhead", "ratio"),
    def("termination.probe_waves", "count"),
    def("node.join_probes", "count"),
    def("node.derived_tuples", "count"),
    def("node.stored_tuples", "count"),
    def("node.goal_stored", "count"),
    def("node.dedup_keep_ratio", "ratio"),
    def("node.max_relation_size", "count"),
    def("node.edb_lookups", "count"),
    def("storage.insert_ns_per_tuple", "ns"),
    def("storage.probe_ns_per_key", "ns"),
    def("storage.join_ns_per_out", "ns"),
    def("storage.aggregate_ns_per_row", "ns"),
    def("storage.antijoin_ns_per_row", "ns"),
    def("engine.evaluate_ms", "ms"),
    def("engine.strata_evaluated", "count"),
    def("engine.evaluate_vs_perfect", "ratio"),
    def("engine.collect_ms", "ms"),
    def("engine.vs_magic", "ratio"),
    def("sched.activations", "count"),
    def("sched.steals", "count"),
    def("sched.steal_success_ratio", "ratio"),
    def("sched.max_queue", "count"),
    def("sched.cpu_over_wall", "ratio"),
    def("transport.overhead_ms", "ms"),
    def("fault.acks", "count"),
    def("fault.retransmits", "count"),
    def("fault.frames_per_logical", "ratio"),
    def("govern.mem_high_water_bytes", "bytes"),
    def("govern.mailbox_high_water", "count"),
    def("baselines.magic_ms", "ms"),
    def("baselines.topdown_ms", "ms"),
    def("baselines.perfect_ms", "ms"),
    def("trace.mptrace_on_slowdown", "ratio"),
    def("trace.spans_over_untraced", "ratio"),
];

/// One measured metric. `passes` holds the per-pass values behind a
/// median-of-passes `value` (empty for single-shot metrics).
#[derive(Clone, Debug)]
pub struct Metric {
    pub def: Def,
    pub value: f64,
    pub passes: Vec<f64>,
}

/// Values for every metric of one table, filled in by name.
pub struct Values {
    table: &'static [Def],
    metrics: Vec<Option<Metric>>,
}

impl Values {
    pub fn new(table: &'static [Def]) -> Values {
        Values {
            table,
            metrics: vec![None; table.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.set_passes(name, value, Vec::new());
    }

    pub fn set_passes(&mut self, name: &str, value: f64, passes: Vec<f64>) {
        let i = self
            .table
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        self.metrics[i] = Some(Metric {
            def: self.table[i],
            value,
            passes,
        });
    }

    /// Every metric of the table, in table order. A per-layer metric
    /// nobody set reads 0: the layer did no work on this workload.
    pub fn finish(self) -> Vec<Metric> {
        self.table
            .iter()
            .zip(self.metrics)
            .map(|(&def, m)| {
                m.unwrap_or(Metric {
                    def,
                    value: 0.0,
                    passes: Vec::new(),
                })
            })
            .collect()
    }
}

/// The `metrics` object of the result line: `{name: {value, unit}}`.
pub fn to_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.def.name,
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.def.unit.to_string())),
            ]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// `BENCHMARK.json` is the contract; these tables are what the
    /// binary emits. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|d| (d.name.into(), d.unit.into()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("paths").unwrap().as_arr(),
            [Json::Str("benchmark".into())]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn a_misspelt_metric_is_a_bug() {
        Values::new(END_TO_END).set("op_ms_p5O", 1.0);
    }
}
