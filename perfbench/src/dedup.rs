//! `dedup`: the set-similarity lane, search beside insert on one index.
//! The `DedupPipeline` loop (query the index built so far, union the
//! record with every match, insert it), driven through its public parts
//! so each call can be timed: Jaccard ≥ 0.8 over 3-gram sets of 1.2·10⁴
//! AuthorTitle-like records with planted duplicates (rate 0.1, one edit).
//! Screening passes about one candidate in fourteen to verification.

use std::time::Instant;

use datagen::{DatasetKind, DatasetSpec};
use passjoin_online::ExecStats;
use passjoin_setsim::{
    sorted_overlap, SetMetric, SetQuery, SetSimilarityIndex, TokenMode, UnionFind,
};

use crate::check;
use crate::clusters::{ClusterPass, ClusterRuns};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, ratio};
use crate::trace::{timed, Trace};
use crate::{corpus, span_secs, write_trace, Args, SETUP_REPS};

const RECORDS: usize = 12_000;
/// Vocabulary draws the corpus averages over (see [`corpus`]).
const PARTS: u64 = 16;
const METRIC: SetMetric = SetMetric::Jaccard;
const THRESHOLD: f64 = 0.8;
const MODE: TokenMode = TokenMode::Grams { q: 3 };

/// One streaming dedup pass over `records` into a fresh index; also
/// returns the index's posting entries. The traced pass makes the same
/// calls, each inside a span.
fn pass(records: &[Vec<u8>], trace: Option<&Trace>) -> (ClusterPass, u64) {
    let root = trace.map(Trace::open);
    let parent = root.map_or(0, |o| o.id);
    let mut index = SetSimilarityIndex::new(MODE);
    let mut uf = UnionFind::new(records.len());
    let mut totals = ExecStats::default();
    let mut latency_s = Vec::with_capacity(records.len());
    for (i, rec) in records.iter().enumerate() {
        let req = i as u64;
        let t0 = Instant::now();
        let outcome = timed(trace, parent, req, "setsim.search", || {
            index.search(&SetQuery::new(rec, METRIC, THRESHOLD))
        });
        let id = timed(trace, parent, req, "setsim.insert", || index.insert(rec));
        if !outcome.matches.is_empty() {
            timed(trace, parent, req, "setsim.union", || {
                for &(m, _) in outcome.matches.iter() {
                    uf.union(id, m);
                }
            });
        }
        latency_s.push(t0.elapsed().as_secs_f64());
        totals.merge(&outcome.stats);
    }
    if let (Some(t), Some(root)) = (trace, root) {
        t.close(root, 0, 0, "dedup.pass");
    }
    let done = ClusterPass {
        clusters: uf,
        totals,
        latency_s,
    };
    (done, index.posting_entries())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let trace = args.trace.then(Trace::new);
    let t = trace.as_ref();
    let mut setup_s = Vec::new();
    let (mut records, mut truth) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS as u64 {
        let started = Instant::now();
        let root = t.map(Trace::open);
        (records, truth) = timed(t, root.map_or(0, |o| o.id), rep, "datagen.generate", || {
            let spec = DatasetSpec::new(DatasetKind::AuthorTitle, RECORDS)
                .with_duplicate_rate(0.1)
                .with_max_planted_edits(1);
            corpus(spec, PARTS, args.seed)
        });
        if let (Some(t), Some(root)) = (t, root) {
            t.close(root, 0, rep, "setup");
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let mut report = Report::default();
    let runs = ClusterRuns::run(args.budget(1.0), || pass(&records, None).0)?;
    let peak_rss = peak_rss_mb()?;
    let expected = truth_clusters(&records, &truth);
    runs.report(
        &mut report,
        "dedup",
        ("clusters against the planted truth", &expected),
        records.len(),
        &setup_s,
        peak_rss,
    );

    if let Some(t) = t {
        let (mut traced, posting_entries) = pass(&records, Some(t));
        runs.check_traced(&mut report, "dedup", &mut traced);
        let spans = write_trace("dedup", t, |_| {})?;
        let st = &traced.totals;
        let requests = records.len() as f64;
        let verifications = (st.verifications + st.short_checked) as f64;
        let matches = (st.segment_matches + st.short_matches) as f64;
        let sum = |name| span_secs(&spans, name).iter().sum();
        report.set("setsim.search_s", sum("setsim.search"));
        report.set("setsim.insert_s", sum("setsim.insert"));
        report.set("setsim.union_s", sum("setsim.union"));
        report.set("setsim.candidates", st.candidates as f64 / requests);
        report.set("setsim.verifications", verifications / requests);
        report.set(
            "setsim.verifications_per_candidate",
            ratio(verifications, st.candidates as f64),
        );
        report.set(
            "setsim.matches_per_verification",
            ratio(matches, verifications),
        );
        report.set("setsim.posting_entries", posting_entries as f64);
        let traced_s = span_secs(&spans, "dedup.pass")[0];
        report.set("obs.overhead", traced_s / median(&runs.secs) - 1.0);
        report.set(
            "error_rate",
            ratio(report.failed as f64, report.attempted as f64),
        );
    }
    Ok(report)
}

/// The planted truth as `simjoin dedup --truth` checks it: the closure of
/// the planted pairs whose records meet the threshold (an edit can push a
/// short record's similarity below it, and such a pair must not match).
fn truth_clusters(records: &[Vec<u8>], truth: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let similar = |a: &[u8], b: &[u8]| {
        let (x, y) = (MODE.token_set(a), MODE.token_set(b));
        METRIC.accepts(THRESHOLD, sorted_overlap(&x, &y), x.len(), y.len())
    };
    check::closure(
        records.len(),
        truth
            .iter()
            .copied()
            .filter(|&(dup, base)| similar(&records[dup as usize], &records[base as usize])),
    )
}
