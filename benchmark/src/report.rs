//! The metric catalogue and the result of one workload run.
//!
//! The names here are the names in `../BENCHMARK.json` (a unit test
//! holds the two together). Every workload reports every end-to-end
//! metric; the traced run reports every per-layer metric, with 0 for a
//! layer the workload does not exercise.

use serde_json::{json, Value};
use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = ["hpcg_paper", "hpcg_dense", "store_bulk", "serve_mixed"];

/// (name, unit) of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("fold_s", "s"),
    ("query_p50_s", "s"),
    ("store_bytes_per_event", "B"),
    ("peak_rss_bytes", "B"),
];

/// (name, unit) of every per-layer metric; the prefix is the layer
/// (crate) name.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("host.calib_s", "s"),
    ("trace_overhead_ratio", "ratio"),
    ("hpcg.emit_s", "s"),
    ("hpcg.accesses", "count"),
    ("memsim.replay_accesses_per_s", "1/s"),
    ("memsim.l1d_hit_ratio", "ratio"),
    ("memsim.l2_hit_ratio", "ratio"),
    ("memsim.l3_hit_ratio", "ratio"),
    ("memsim.dram_accesses", "count"),
    ("pebs.observe_ops_per_s", "1/s"),
    ("pebs.samples_captured", "count"),
    ("pebs.capture_ratio", "ratio"),
    ("extrae.record_events_per_s", "1/s"),
    ("extrae.drain_events_per_s", "1/s"),
    ("extrae.resolve_per_s", "1/s"),
    ("extrae.resolved_ratio", "ratio"),
    ("extrae.json_render_events_per_s", "1/s"),
    ("core.run_s", "s"),
    ("core.run_nullsink_s", "s"),
    ("core.residual_share", "ratio"),
    ("core.events_streamed", "count"),
    ("core.wall_cycles", "count"),
    ("store.append_events_per_s", "1/s"),
    ("store.finish_s", "s"),
    ("store.bytes_written", "B"),
    ("store.chunks", "count"),
    ("store.open_s", "s"),
    ("store.verify_all_s", "s"),
    ("store.crc_bytes_per_s", "B/s"),
    ("store.scan_events_per_s", "1/s"),
    ("store.scan_noverify_events_per_s", "1/s"),
    ("store.decode_payload_bytes_per_s", "B/s"),
    ("store.svb_decode_vals_per_s", "1/s"),
    ("store.object_query_s", "s"),
    ("store.query_p99_s", "s"),
    ("store.chunks_decoded", "count"),
    ("store.chunks_cached", "count"),
    ("store.chunks_skipped", "count"),
    ("store.prune_ratio", "ratio"),
    ("store.select_ratio", "ratio"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.scratch_allocs", "count"),
    ("folding.boundary_scan_s", "s"),
    ("folding.sample_scan_s", "s"),
    ("folding.instances_s", "s"),
    ("folding.pool_s", "s"),
    ("folding.fit_s", "s"),
    ("folding.scan_share", "ratio"),
    ("folding.residual_share", "ratio"),
    ("folding.instances_kept", "count"),
    ("folding.instances_rejected", "count"),
    ("folding.points_pooled", "count"),
    ("server.handle_query_s", "s"),
    ("server.handle_fold_miss_s", "s"),
    ("server.http_overhead_s", "s"),
    ("server.memo_hit_s", "s"),
    ("server.query_p99_s", "s"),
    ("server.fold_miss_p90_s", "s"),
    ("server.memo_hit_ratio", "ratio"),
    ("server.rejected_429", "count"),
    ("server.errors_5xx", "count"),
    ("server.bytes_out_per_s", "B/s"),
    ("server.requests", "count"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Run {
    /// name → (value, samples behind it).
    metrics: BTreeMap<&'static str, (f64, usize)>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the human-readable report.
    pub failures: Vec<String>,
}

impl Run {
    /// Record a metric. The name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(unit_of(name).is_some(), "metric {name:?} is not in the catalogue");
        self.metrics.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    /// Count one checked operation; a failed check is a failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// The contract's result object: every end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one.
    pub fn result_json(&self, traced: bool) -> Result<Value, String> {
        let mut metrics = Vec::new();
        if traced {
            for (name, unit) in PER_LAYER {
                let value = self.get(name).unwrap_or(0.0);
                metrics.push((name.to_string(), json!({ "value": value, "unit": unit })));
            }
        } else {
            for (name, unit) in END_TO_END {
                let value = self
                    .get(name)
                    .ok_or_else(|| format!("end-to-end metric {name} was not measured"))?;
                if value == 0.0 || !value.is_finite() {
                    return Err(format!("end-to-end metric {name} reads {value}"));
                }
                metrics.push((name.to_string(), json!({ "value": value, "unit": unit })));
            }
        }
        Ok(json!({
            "correct": self.failed == 0,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        }))
    }

    /// Every measured metric, by name, with unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, (value, samples)) in &self.metrics {
            let unit = unit_of(name).expect("checked by set");
            out.push_str(&format!("  {name:<34} {value:>18.6} {unit:<6} n={samples}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_of(v: &Value, key: &str) -> Vec<(String, String)> {
        v[key]
            .as_array()
            .expect(key)
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().unwrap_or("").to_string(),
                )
            })
            .collect()
    }

    /// The emitted JSON names exactly the metrics and workloads that
    /// `BENCHMARK.json` lists.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let want: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names_of(&spec, "end_to_end"), want);
        let want: Vec<(String, String)> =
            PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names_of(&spec, "per_layer"), want);
        let workloads: Vec<String> =
            names_of(&spec, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);

        // And a run's result object carries exactly those names.
        let mut run = Run::default();
        for (name, _) in END_TO_END {
            run.set(name, 1.5, 1);
        }
        for traced in [false, true] {
            let out = run.result_json(traced).expect("complete");
            let got: Vec<&str> =
                out["metrics"].as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            let key = if traced { "per_layer" } else { "end_to_end" };
            let want: Vec<String> = names_of(&spec, key).into_iter().map(|(n, _)| n).collect();
            assert_eq!(got, want);
            let keys: Vec<&str> =
                out.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }

    #[test]
    fn a_missing_or_zero_end_to_end_metric_is_an_error() {
        let mut run = Run::default();
        assert!(run.result_json(false).is_err());
        for (name, _) in END_TO_END {
            run.set(name, 0.0, 1);
        }
        assert!(run.result_json(false).is_err());
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut run = Run::default();
        run.check(true, || unreachable!());
        run.check(false, || "store bytes differ".to_string());
        assert_eq!((run.attempted, run.failed), (2, 1));
        for (name, _) in END_TO_END {
            run.set(name, 2.0, 1);
        }
        assert_eq!(run.result_json(false).unwrap()["correct"], false);
    }
}
