//! The metric catalogue (mirrors `BENCHMARK.json`) and the result line.

use std::collections::HashMap;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["join-long", "ingest", "serve", "dedup"];

/// End-to-end metrics: every untraced run prints all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run prints all of them; a layer the
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("common.collection_s", "s"),
    ("core.select_s", "s"),
    ("core.selected_substrings", "count"),
    ("core.candidate_occurrences", "count"),
    ("core.candidate_pairs", "count"),
    ("core.index_bytes", "B"),
    ("editdist.verifications", "count"),
    ("editdist.results_per_verification", "ratio"),
    ("online.search_s", "s"),
    ("online.insert_s", "s"),
    ("online.plan_ns", "ns/query"),
    ("online.probe_ns", "ns/query"),
    ("online.verify_ns", "ns/query"),
    ("online.cache_ns", "ns/query"),
    ("online.candidates", "count/query"),
    ("online.verifications", "count/query"),
    ("online.matches_per_verification", "ratio"),
    ("online.resident_bytes", "B"),
    ("online.build_s", "s"),
    ("online.save_s", "s"),
    ("persist.snapshot_bytes", "B"),
    ("store.open_ms", "ms"),
    ("online.first_answer_ms", "ms"),
    ("online.engine_ms.p50", "ms"),
    ("online.engine_ms.p90", "ms"),
    ("online.bulk_engine_ms.p50", "ms"),
    ("serve.wire_ms.p50", "ms"),
    ("serve.wire_share", "ratio"),
    ("serve.response_lines", "lines/line"),
    ("serve.bytes_per_query", "B/query"),
    ("setsim.search_s", "s"),
    ("setsim.insert_s", "s"),
    ("setsim.union_s", "s"),
    ("setsim.candidates", "count/query"),
    ("setsim.verifications", "count/query"),
    ("setsim.verifications_per_candidate", "ratio"),
    ("setsim.matches_per_verification", "ratio"),
    ("setsim.posting_entries", "count"),
    ("obs.overhead", "ratio"),
    ("error_rate", "ratio"),
];

/// What one run measured and which of its checked operations failed.
#[derive(Debug, Default)]
pub struct Report {
    values: HashMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    /// Records `value` under a catalogued metric name.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Counts `n` checked operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed operations, naming the check that failed them.
    pub fn fail(&mut self, n: u64, check: &str, detail: &str) {
        self.failed += n;
        self.failures.push(format!("{check}: {detail}"));
    }

    /// The result line: the end-to-end metrics (untraced) or the
    /// per-layer ones (traced). An unmeasured end-to-end metric is a
    /// benchmark bug; an unmeasured layer metric is a layer the workload
    /// never called, and reads 0.
    pub fn json(&self, traced: bool) -> Result<String, String> {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` fields of `BENCHMARK.json`, in file order.
    fn declared_names() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        text.split("\"name\":")
            .skip(1)
            .map(|rest| {
                rest.trim_start()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let ours: Vec<String> = WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n))
            .map(|n| n.to_string())
            .collect();
        assert_eq!(declared_names(), ours);
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        report.attempt(3);
        let line = report.json(false).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 1.5, \"unit\": \"MB\"}"));
        // Layers the workload never called read 0.
        let traced = report.json(true).unwrap();
        assert!(traced.contains("\"setsim.union_s\": {\"value\": 0, \"unit\": \"s\"}"));

        report.fail(1, "pairs", "missing pair (0, 1)");
        assert!(report
            .json(false)
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
        assert!(Report::default().json(false).is_err());
    }
}
