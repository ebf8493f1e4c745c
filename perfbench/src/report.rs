//! What one run reports: the end-to-end metrics (the names
//! `BENCHMARK.json` declares), the per-layer metrics of the traced run,
//! the workload-specific metrics each workload prints for people, and the
//! output checks.

use crate::stats::{Tally, Timing};
use fbf_cache::CacheStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics every workload reports with tracing off:
/// `(name, unit, clock)`. Each is defined for every workload; README.md
/// says what the unit of work and the operation are for each one.
pub const END_TO_END: [(&str, &str, &str); 10] = [
    ("setup_s", "s", "host"),
    ("peak_rss_mib", "MiB", "host"),
    ("work_per_s", "1/s", "host"),
    ("op_p50_ms", "ms", "host"),
    ("op_p90_ms", "ms", "host"),
    ("hit_ratio", "ratio", "virtual"),
    ("disk_reads", "count", "virtual"),
    ("reconstruction_s", "s", "virtual"),
    ("rebuild_skew", "ratio", "virtual"),
    ("response_ms", "ms", "virtual"),
];

/// The per-layer metrics of the traced run: `(name, unit)`. A layer a
/// workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("workload.generate_ms", "ms"),
    ("recovery.plan_ms", "ms"),
    ("recovery.scheme_ms", "ms"),
    ("recovery.plans_cold", "count"),
    ("core.plan_store_hit_ratio", "ratio"),
    ("disksim.engine_ms", "ms"),
    ("disksim.engine_ops", "count"),
    ("disksim.engine_ns_per_op", "ns"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.demotions", "count"),
    ("core.sweep_utilization", "ratio"),
    ("core.rebuild_ms", "ms"),
    ("core.rebuild_waves", "count"),
    ("core.rebuild_self_ms", "ms"),
    ("disksim.backend_read_ms", "ms"),
    ("disksim.backend_reads", "count"),
    ("disksim.backend_write_ms", "ms"),
    ("disksim.backend_writes", "count"),
    ("disksim.backend_flush_ms", "ms"),
    ("disksim.read_amplification", "ratio"),
    ("core.dataplane_self_ms", "ms"),
    ("codes.synth_ms", "ms"),
    ("disksim.format_ms", "ms"),
    ("core.daemon_submit_ms", "ms"),
    ("core.daemon_status_ms", "ms"),
    ("core.daemon_read_ms", "ms"),
    ("core.daemon_polls_per_job", "count"),
    ("core.daemon_status_bytes", "bytes"),
    ("core.daemon_exec_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("obs.spans", "count"),
];

/// One workload-specific metric, printed for people with its unit and clock.
#[derive(Debug, Clone)]
pub struct Named {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `host` (what the software costs) or `virtual` (what the simulated
    /// array experiences).
    pub clock: &'static str,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// End-to-end metrics by name (tracing off).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (tracing on).
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific metrics for the human-readable table.
    pub named: Vec<Named>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Set an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _, _)| *n == name),
            "{name} is not an end-to-end metric"
        );
        self.e2e.insert(name, value);
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Record a workload-specific metric on the host clock.
    pub fn host(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push(Named {
            name,
            value,
            unit,
            clock: "host",
        });
    }

    /// Record a workload-specific metric on the virtual clock.
    pub fn sim(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push(Named {
            name,
            value,
            unit,
            clock: "virtual",
        });
    }

    /// Set the host metrics every workload reports besides latency.
    pub fn host_basics(&mut self, setup_s: f64, peak_rss_mib: f64, work_per_s: f64) {
        self.e2e("setup_s", setup_s);
        self.e2e("peak_rss_mib", peak_rss_mib);
        self.e2e("work_per_s", work_per_s);
        self.host("setup_s", setup_s, "s");
        self.host("peak_rss_mib", peak_rss_mib, "MiB");
    }

    /// Set the cache layer's exact counts.
    pub fn cache_layers(&mut self, c: &CacheStats) {
        self.layer("cache.hits", c.hits as f64);
        self.layer("cache.misses", c.misses as f64);
        self.layer("cache.evictions", c.evictions as f64);
        self.layer("cache.demotions", c.demotions as f64);
    }

    /// Set `op_p50_ms`/`op_p90_ms` from per-operation samples (ms).
    pub fn op_latency(&mut self, samples: &[f64]) -> Option<Timing> {
        let t = Timing::of(samples);
        match t {
            Some(Timing {
                p50,
                p90: Some(p90),
                ..
            }) => {
                self.e2e("op_p50_ms", p50);
                self.e2e("op_p90_ms", p90);
                self.notes.push(format!(
                    "op_p50_ms and op_p90_ms over {} operations",
                    samples.len()
                ));
            }
            _ => self.problems.push(format!(
                "{} operations are too few for a p90 with 10 samples beyond it",
                samples.len()
            )),
        }
        t
    }

    /// The run is correct: every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.tally.failed == 0
    }

    /// The result line: every end-to-end metric (`trace` off)
    /// or every per-layer metric (`trace` on). A metric the run could not
    /// produce makes the run incorrect and is left out.
    pub fn result_line(&mut self, trace: bool) -> String {
        let wanted: Vec<(&str, &str)> = if trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
        };
        let source = if trace { &self.layers } else { &self.e2e };
        let default = if trace { Some(0.0) } else { None };
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        for (name, unit) in wanted {
            match source.get(name).copied().or(default) {
                Some(v) if v.is_finite() => metrics.push(format!(
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                )),
                _ => missing.push(name),
            }
        }
        for name in missing {
            self.problems
                .push(format!("metric {name} was not measured"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }

    /// The human-readable report: workload-specific metrics with unit and
    /// clock, then the `BENCHMARK.json` metrics, notes and failed checks.
    pub fn render(&self, workload: &str, trace: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {workload} ({})",
            if trace { "traced" } else { "untraced" }
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>16}  {:<10} host",
            "fail_ratio",
            format!("{:.6}", self.tally.fail_ratio()),
            "ratio",
        );
        for m in &self.named {
            let _ = writeln!(
                out,
                "  {:<24} {:>16}  {:<10} {}",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.clock
            );
        }
        // Per-layer metrics are host-clock timings and exact counts.
        let rows: Vec<(&str, f64, &str, &str)> = if trace {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, self.layers.get(n).copied().unwrap_or(0.0), u, ""))
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter_map(|&(n, u, clock)| self.e2e.get(n).map(|&v| (n, v, u, clock)))
                .collect()
        };
        let _ = writeln!(
            out,
            "  -- {} metrics",
            if trace { "per-layer" } else { "end-to-end" }
        );
        for (n, v, u, clock) in rows {
            let _ = writeln!(out, "  {n:<28} {v:>16.6}  {u:<10} {clock}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "  CHECK FAILED: {p}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_end_to_end_metric() {
        let mut o = Outcome::default();
        for (i, (name, _, _)) in END_TO_END.iter().enumerate() {
            o.e2e(name, 1.5 + i as f64);
        }
        o.tally.record(true);
        let line = o.result_line(false);
        let json = fbf_core::Json::parse(&line).unwrap();
        assert_eq!(json.get("correct").and_then(|j| j.as_bool()), Some(true));
        assert_eq!(json.get("attempted").and_then(|j| j.as_u64()), Some(1));
        let metrics = json.get("metrics").unwrap();
        for (name, unit, _) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit));
        }
    }

    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = fbf_core::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn a_missing_metric_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.e2e("setup_s", 0.25);
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(!o.correct());
    }

    #[test]
    fn traced_line_defaults_unused_layers_to_zero() {
        let mut o = Outcome::default();
        o.layer("cache.hits", 7.0);
        let line = o.result_line(true);
        let json = fbf_core::Json::parse(&line).unwrap();
        let metrics = json.get("metrics").unwrap();
        let fbf_core::Json::Obj(map) = metrics else {
            panic!("metrics is not an object")
        };
        assert_eq!(map.len(), PER_LAYER.len());
        let value = |n: &str| {
            metrics
                .get(n)
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
        };
        assert_eq!(value("cache.hits"), Some(7.0));
        assert_eq!(value("core.rebuild_ms"), Some(0.0));
    }

    #[test]
    fn too_few_operations_for_a_tail_is_a_failed_check() {
        let mut o = Outcome::default();
        assert!(o.op_latency(&[1.0; 99]).is_some());
        assert!(!o.correct());
        let mut o = Outcome::default();
        o.op_latency(&[2.0; 100]);
        assert_eq!(o.e2e.get("op_p90_ms"), Some(&2.0));
        assert!(o.correct());
    }
}
