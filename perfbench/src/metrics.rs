//! Metric names, units, and the result line.
//!
//! Every end-to-end metric is defined on every workload (each workload
//! maps it onto its own primary and reference paths; see README.md).
//! Per-layer metrics of a layer a workload leaves idle read 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Metrics of untraced runs: what a user of the system sees.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("peak_rss_mb", "MiB"),
    def("update_ms_p50", "ms"),
    def("update_ms_p99", "ms"),
    def("ref_update_ms_p50", "ms"),
    def("ops_per_s", "1/s"),
];

/// Metrics of traced runs: one layer each.
pub const PER_LAYER: &[Def] = &[
    def("serve.submit_us_p50", "us"),
    def("serve.backpressure_per_op", "ratio"),
    def("serve.batch_width_mean", "ops"),
    def("serve.batches", "count"),
    def("serve.commit_ms_mean", "ms"),
    def("serve.queue_depth_max", "ops"),
    def("serve.gen_late_ms_max", "ms"),
    def("serve.read_topk_us_p50", "us"),
    def("serve.read_topk_us_p99", "us"),
    def("serve.spawn_ms", "ms"),
    def("serve.freshness_ms_p50", "ms"),
    def("serve.freshness_ms_p99", "ms"),
    def("serve.ingest_ops_per_s", "1/s"),
    def("native.apply_batch_ms_p50", "ms"),
    def("native.bc_scores_us_p50", "us"),
    def("dynamic.ops_per_update", "count"),
    def("dynamic.removal_batch_ms", "ms"),
    def("plan.validate_us_per_op", "us"),
    def("plan.plan_us_per_op", "us"),
    def("plan.stages_per_op", "ratio"),
    def("graph.slack_splice_us_per_op", "us"),
    def("graph.slack_settle_us_per_stage", "us"),
    def("graph.slack_relayouts", "count"),
    def("graph.slack_compactions", "count"),
    def("bc.touched_per_op", "count"),
    def("bc.worked_source_frac", "ratio"),
    def("bc.case3_frac", "ratio"),
    def("gpusim.node.lane_events_per_update", "count"),
    def("gpusim.node.mem_segments_per_update", "count"),
    def("gpusim.node.atomic_conflicts_per_update", "count"),
    def("gpusim.node.traffic_bytes_per_update", "bytes"),
    def("gpusim.edge.lane_events_per_update", "count"),
    def("gpusim.edge.mem_segments_per_update", "count"),
    def("gpusim.edge.atomic_conflicts_per_update", "count"),
    def("gpusim.edge.traffic_bytes_per_update", "bytes"),
    def("gpusim.host_ns_per_lane_event", "ns"),
    def("gpusim.model_node_update_us", "us"),
    def("gpusim.model_edge_update_us", "us"),
    def("brandes.seed_s", "s"),
    def("unattributed_ms_p50", "ms"),
    def("trace.overhead_pct", "%"),
    def("ops_failed_frac", "ratio"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Ops the run attempted.
    pub attempted: u64,
    /// Ops that failed, were refused, or were not visible in time.
    pub failed: u64,
    /// Context printed with the result: sample counts, checks.
    pub notes: Vec<String>,
    /// Wall-clock metrics as measured, before the host-speed factor.
    pub measured: Vec<String>,
}

impl Report {
    /// Records metric `name`.
    ///
    /// # Panics
    /// Panics for a name not defined above.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("undefined metric {name}"));
        self.values.insert(def.name, value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records wall-clock metric `name`: `value` on the reference host
    /// (see `host::Calibration`), and `measured` for the context lines.
    pub fn set_wall(&mut self, name: &str, measured: f64, value: f64) {
        self.set(name, value);
        self.measured.push(format!("{name} {measured}"));
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The metric set one run prints: every end-to-end metric (untraced)
    /// or every per-layer metric (traced). An end-to-end metric must be
    /// measured, finite and positive; an unmeasured per-layer metric is
    /// an idle layer and reads 0.
    pub fn metrics(&self, traced: bool) -> Result<Vec<(Def, f64)>, String> {
        if traced {
            return PER_LAYER
                .iter()
                .map(|d| {
                    let v = self.get(d.name).unwrap_or(0.0);
                    if v.is_finite() {
                        Ok((*d, v))
                    } else {
                        Err(format!("{} is not finite", d.name))
                    }
                })
                .collect();
        }
        END_TO_END
            .iter()
            .map(|d| match self.get(d.name) {
                Some(v) if v.is_finite() && v > 0.0 => Ok((*d, v)),
                Some(v) => Err(format!("{} = {v}: not a positive measurement", d.name)),
                None => Err(format!("{} was not measured", d.name)),
            })
            .collect()
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Values print with every digit (`f64`'s shortest round-trip form).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(Def, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(d.name),
            json_str(d.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "{} twice",
                d.name
            );
        }
    }

    #[test]
    fn end_to_end_metrics_must_be_measured_and_positive() {
        let mut r = Report::default();
        for d in END_TO_END {
            r.set(d.name, 1.5);
        }
        assert_eq!(r.metrics(false).unwrap().len(), END_TO_END.len());
        r.set("ops_per_s", 0.0);
        assert!(r.metrics(false).is_err());
        let layer = r.metrics(true).unwrap();
        assert_eq!(layer.len(), PER_LAYER.len());
        assert!(layer.iter().all(|(_, v)| *v == 0.0), "idle layers read 0");
    }

    #[test]
    fn wall_metrics_keep_the_measured_value_for_context() {
        let mut r = Report::default();
        r.set_wall("update_ms_p50", 4.0, 2.0);
        assert_eq!(r.get("update_ms_p50"), Some(2.0));
        assert_eq!(r.measured, ["update_ms_p50 4"]);
    }

    #[test]
    fn benchmark_json_declares_every_metric_with_its_unit() {
        let decl = include_str!("../../BENCHMARK.json");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(decl.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = decl.matches("\"name\": ").count();
        assert_eq!(
            declared,
            3 + END_TO_END.len() + PER_LAYER.len(),
            "workloads + metrics"
        );
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(true, 10, 0, &[(def("a_ms", "ms"), 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
