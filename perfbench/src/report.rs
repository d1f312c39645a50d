//! Metric names, the run's checks and metadata, and the result line.
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! carries every [`END_TO_END`] metric; a traced run every [`PER_LAYER`]
//! metric, reading 0 where the workload does not exercise the layer.
//! Everything else (metadata, sample counts, tails, the per-workload
//! per-miner and latency figures) goes to the human-readable lines before
//! it and to a report file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, the same on every workload: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Times and counts
/// are means per operation of the workload (one mining cycle, one request,
/// one window step); ratios, peaks and percentages are over the run.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("data.generate_s", "s"),
    ("vertical.index_build_ms", "ms"),
    ("apriori.candgen_ms", "ms"),
    ("apriori.candidates", "count"),
    ("engine.evaluate_ms", "ms"),
    ("engine.materialize_ms", "ms"),
    ("engine.finish_ms", "ms"),
    ("engine.intersections", "count"),
    ("engine.shards_evaluated", "count"),
    ("engine.shard_prune_ratio", "ratio"),
    ("engine.peak_memo_bytes", "bytes"),
    ("measure.judge_ms", "ms"),
    ("measure.judged", "count"),
    ("measure.exact_evaluations", "count"),
    ("measure.screen_pruned", "count"),
    ("measure.keep_ratio", "ratio"),
    ("traversal.candidates", "count"),
    ("traversal.peak_structure_nodes", "count"),
    ("window.apply_ms", "ms"),
    ("incremental.refresh_ms", "ms"),
    ("incremental.intersections", "count"),
    ("incremental.memo_patched", "count"),
    ("incremental.memo_rebuilt", "count"),
    ("incremental.patch_ratio", "ratio"),
    ("incremental.border_rejudged", "count"),
    ("incremental.rejudge_ratio", "ratio"),
    ("incremental.peak_memo_bytes", "bytes"),
    ("proto.parse_us", "us"),
    ("proto.serialize_us", "us"),
    ("proto.response_bytes", "bytes"),
    ("server.handle_us.sweep", "us"),
    ("server.handle_us.topk", "us"),
    ("server.handle_us.probe", "us"),
    ("server.handle_us.mine", "us"),
    ("server.net_us", "us"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.extends", "count"),
    ("memo.hit_ratio", "ratio"),
    ("memo.resident_bytes", "bytes"),
    ("miners.uapriori_s", "s"),
    ("miners.dcb_s", "s"),
    ("miners.nduh_mine_s", "s"),
    ("miners.uapriori_diffset_s", "s"),
    ("miners.uh_mine_s", "s"),
    ("miners.ufp_growth_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 of letters, digits, `_ / % . -`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind a metric, where it rests on several.
    samples: BTreeMap<&'static str, usize>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    lines: Vec<String>,
}

impl Report {
    /// Sets a metric; the name must be one of the declared ones.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Sets a metric that summarises `n` samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, n: usize) {
        self.set(name, value);
        self.samples.insert(name, n);
    }

    /// Records one checked operation; `Err` counts it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            // Keep the first few reasons; the count carries the rest.
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Adds a human-readable report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// The human-readable report, one line per entry.
    pub fn text(&self, trace: bool) -> String {
        let mut out = String::new();
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        let rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            out,
            "error_rate {rate} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        for (name, unit) in self.declared(trace) {
            let n = self
                .samples
                .get(name)
                .map_or(String::new(), |n| format!(" (n={n})"));
            let _ = writeln!(out, "{name} = {} {unit}{n}", self.value(name));
        }
        out
    }

    fn declared(&self, trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// The result line. A non-finite value cannot be written as JSON, so it
    /// is written as 0 and the run marked incorrect.
    pub fn json_line(&self, trace: bool) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = String::new();
        for (i, (name, unit)) in self.declared(trace).iter().enumerate() {
            let mut v = self.value(name);
            if !v.is_finite() {
                correct = false;
                v = 0.0;
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_charset() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(valid_name("a"));
        assert!(valid_name("9.x_y-z"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(!valid_unit(""));
        assert!(!valid_unit("µs"));
        assert!(valid_unit("1/s"));
        assert!(!valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn result_line_has_every_declared_metric() {
        let mut r = Report::default();
        r.set("setup_s", 0.5);
        r.check(Ok(()));
        let line = r.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\"")));
        }
        r.check(Err("boom".into()));
        assert!(r.json_line(true).starts_with("{\"correct\": false"));
    }
}
