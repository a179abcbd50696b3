//! The run's report: the effective configuration, every metric by name
//! with its unit and sample count, the traced run's layer breakdown, and
//! the one-line JSON result the report ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Accounting;
use crate::trace::LayerTotals;

/// End-to-end metrics: every workload reports each of them, measured
/// with tracing off. `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pts_per_s", "1/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("err_alm_pct", "%"),
    ("err_dsp_pct", "%"),
    ("err_bram_pct", "%"),
];

/// Per-layer metrics: every workload reports each of them from its
/// traced run, 0 for a layer it never calls. `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("estimate.calibrate_s", "s"),
    ("apps.inputs_ms", "ms"),
    ("core.build_us", "us"),
    ("dse.cache.key_us", "us"),
    ("synth.elaborate_us", "us"),
    ("estimate.net_us", "us"),
    ("dse.runner_us", "us"),
    ("dse.cache.lookup_us", "us"),
    ("dse.cache.load_ms", "ms"),
    ("dse.cache.save_ms", "ms"),
    ("dse.cache.hit_rate", "ratio"),
    ("sim.host_ms", "ms"),
    ("sim.cycles", "count"),
    ("synth.place_route_us", "us"),
    ("serve.hit_p50_us", "us"),
    ("serve.miss_p50_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.miss_share", "ratio"),
    ("loadgen.late_p99_us", "us"),
    ("trace.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as reported.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// The effective configuration, in insertion order.
    pub config: Vec<(String, String)>,
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why they failed.
    pub failures: Vec<String>,
    /// Metrics by name; only the listed ones go into the JSON line.
    pub metrics: BTreeMap<String, Metric>,
    /// The traced window's layer totals and time accounting.
    pub breakdown: Option<(Vec<LayerTotals>, Accounting)>,
}

impl Report {
    /// Record a configuration entry.
    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                name: name.to_string(),
                value,
                unit,
                samples,
            },
        );
    }

    /// Count one operation, failed when `problem` is `Some`.
    pub fn attempt(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(1, p);
        }
    }

    /// Count `n` failed operations (already counted as attempted) for
    /// one reason.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.failures.push(why);
    }

    /// Count an output check as an operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempt((!ok).then(problem));
    }

    /// The human-readable report followed by the JSON result line, for
    /// the metrics named in `listed`. A listed metric the workload did
    /// not measure is a bug in the benchmark.
    pub fn render(&self, listed: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (k, v) in &self.config {
            let _ = writeln!(out, "config {k} = {v}");
        }
        if let Some((layers, acc)) = &self.breakdown {
            let total = acc.total_ns.max(1) as f64;
            let _ = writeln!(
                out,
                "layer {:<20} {:>10} {:>12} {:>7}",
                "name", "calls", "self_ms", "share%"
            );
            for t in layers.iter().filter(|t| t.calls > 0) {
                let _ = writeln!(
                    out,
                    "layer {:<20} {:>10} {:>12.3} {:>7.2}",
                    t.layer.name(),
                    t.calls,
                    t.self_ns as f64 / 1e6,
                    100.0 * t.self_ns as f64 / total
                );
            }
            let _ = writeln!(
                out,
                "layer {:<20} {:>10} {:>12.3} {:>7.2}",
                "(residual)",
                "-",
                acc.residual_ns() as f64 / 1e6,
                acc.residual_pct()
            );
            let _ = writeln!(
                out,
                "layer {:<20} {:>10} {:>12.3} {:>7.2}",
                "(accounted wall)",
                "-",
                acc.total_ns as f64 / 1e6,
                100.0
            );
        }
        for m in self.metrics.values() {
            let _ = writeln!(
                out,
                "metric {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        const SHOWN: usize = 20;
        for f in self.failures.iter().take(SHOWN) {
            let _ = writeln!(out, "FAILED {f}");
        }
        if self.failures.len() > SHOWN {
            let _ = writeln!(out, "FAILED ... and {} more", self.failures.len() - SHOWN);
        }
        let mut json = String::new();
        for (i, (name, unit)) in listed.iter().enumerate() {
            let m = self
                .metrics
                .get(*name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert_eq!(m.unit, *unit, "metric {name} has the wrong unit");
            assert!(m.value.is_finite(), "metric {name} is not finite");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_holds_exactly_the_listed_metrics() {
        let mut r = Report::default();
        r.metric("a", 1.25, "s", 3);
        r.metric("b", 0.5, "us", 10);
        r.attempt(None);
        r.attempt(Some("bad".into()));
        let text = r.render(&[("a", "s")]);
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(text.contains("metric b = 0.5 us (n=10)"));
        assert!(text.contains("FAILED bad"));
    }
}
