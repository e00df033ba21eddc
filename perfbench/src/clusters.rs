//! The pass loop shared by the clustering workloads, `ingest` and `dedup`:
//! both stream records through search-then-insert on one index and union
//! each record with its matches.

use std::time::Duration;

use passjoin_online::ExecStats;
use passjoin_setsim::UnionFind;

use crate::check;
use crate::report::Report;
use crate::run_passes;
use crate::stats::{median, summary, tail_percentile};

/// What one pass over the records leaves behind.
pub struct ClusterPass {
    pub clusters: UnionFind,
    pub totals: ExecStats,
    /// Seconds per record: its search, insert and unions.
    pub latency_s: Vec<f64>,
}

/// The untraced passes, reduced as each one ends, so the benchmark's own
/// memory stays that of one pass however many passes fit the budget.
pub struct ClusterRuns {
    pub secs: Vec<f64>,
    p50_s: Vec<f64>,
    p90_s: Vec<f64>,
    /// The first pass's clusters and counters; every later pass must
    /// repeat them.
    pub clusters: Vec<Vec<u32>>,
    pub totals: ExecStats,
    diverged: u64,
}

impl ClusterRuns {
    pub fn run(budget: Duration, pass: impl FnMut() -> ClusterPass) -> Result<Self, String> {
        let mut first: Option<(Vec<Vec<u32>>, ExecStats)> = None;
        let (mut p50_s, mut p90_s, mut diverged) = (Vec::new(), Vec::new(), 0);
        let mut refused = None;
        let secs = run_passes(budget, 1, pass, |mut p| {
            p50_s.push(median(&p.latency_s));
            match tail_percentile(&p.latency_s, 90) {
                Ok(v) => p90_s.push(v),
                Err(e) => refused = Some(e),
            }
            let clusters = p.clusters.clusters();
            match &first {
                None => first = Some((clusters, p.totals)),
                Some((c, t)) if *c != clusters || *t != p.totals => diverged += 1,
                Some(_) => {}
            }
        });
        if let Some(e) = refused {
            return Err(e);
        }
        let (clusters, totals) = first.expect("run_passes runs at least one pass");
        Ok(Self {
            secs,
            p50_s,
            p90_s,
            clusters,
            totals,
            diverged,
        })
    }

    /// Checks the clusters against `expected`, prints the run's summary
    /// line, and records the end-to-end metrics. Record latencies are the
    /// medians over passes of each pass's p50 and p90.
    pub fn report(
        &self,
        report: &mut Report,
        workload: &str,
        (check_name, expected): (&str, &[Vec<u32>]),
        records: usize,
        setup_s: &[f64],
        peak_rss: f64,
    ) {
        let passes = self.secs.len() as u64;
        report.attempt(passes);
        if self.diverged > 0 {
            report.fail(
                self.diverged,
                "pass agreement",
                "a pass found other clusters or counts than the first",
            );
        }
        if let Err(e) = check::check_clusters(&self.clusters, expected) {
            report.fail(passes - self.diverged, check_name, &e);
        }
        println!(
            "{workload}: {records} records: {} clusters ({} expected); {passes} passes ({}); {} candidates and {} verifications per pass",
            self.clusters.len(),
            expected.len(),
            summary(&self.secs),
            self.totals.candidates,
            self.totals.verifications
        );
        report.set("setup_s", median(setup_s));
        report.set("wall_s", median(&self.secs));
        report.set(
            "qps",
            records as f64 * passes as f64 / self.secs.iter().sum::<f64>(),
        );
        report.set("p50_ms", median(&self.p50_s) * 1e3);
        report.set("p90_ms", median(&self.p90_s) * 1e3);
        report.set("peak_rss_mb", peak_rss);
    }

    /// The traced pass must find the untraced clusters and counters.
    pub fn check_traced(&self, report: &mut Report, workload: &str, traced: &mut ClusterPass) {
        let clusters = traced.clusters.clusters();
        report.attempt(1);
        if clusters != self.clusters || traced.totals != self.totals {
            report.fail(
                1,
                "traced pass",
                "the traced loop found other clusters or counts than the untraced one",
            );
        }
        println!(
            "{workload}: traced pass: {} clusters (untraced {}), {} candidates (untraced {}), {} verifications (untraced {})",
            clusters.len(),
            self.clusters.len(),
            traced.totals.candidates,
            self.totals.candidates,
            traced.totals.verifications,
            self.totals.verifications
        );
    }
}
