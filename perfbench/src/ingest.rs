//! `ingest`: the online engine's reads beside its writes, on short strings.
//! Edit-distance query-before-insert through `OnlineIndex` (`search`, then
//! `insert`, per record: the `simjoin dedup --metric edit` loop) over 10⁵
//! Author-like names with planted duplicates (rate 0.1, at most 2 edits)
//! at τ = 2: about 10M verifications per pass, one record at a time.

use std::sync::Arc;
use std::time::Instant;

use datagen::{DatasetKind, DatasetSpec};
use passjoin::PassJoin;
use passjoin_online::{EngineObs, ExecStats, OnlineIndex, Queryable, Registry, SearchRequest};
use passjoin_setsim::UnionFind;
use sj_common::{SimilarityJoin, StringCollection};

use crate::check;
use crate::clusters::{ClusterPass, ClusterRuns};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, ratio};
use crate::trace::{timed, Trace};
use crate::{corpus, span_secs, write_trace, Args, SETUP_REPS};

const RECORDS: usize = 100_000;
/// Vocabulary draws the corpus averages over (see [`corpus`]).
const PARTS: u64 = 4;
const TAU: usize = 2;

/// One query-before-insert pass over `records` into a fresh index; also
/// returns the index's resident bytes. The traced pass makes the same
/// calls, each inside a span.
fn pass(
    records: &[Vec<u8>],
    trace: Option<&Trace>,
    obs: Option<Arc<EngineObs>>,
) -> (ClusterPass, u64) {
    let root = trace.map(Trace::open);
    let parent = root.map_or(0, |o| o.id);
    let mut index = OnlineIndex::new(TAU);
    index.set_observability(obs);
    let mut uf = UnionFind::new(records.len());
    let mut totals = ExecStats::default();
    let mut latency_s = Vec::with_capacity(records.len());
    for (i, rec) in records.iter().enumerate() {
        let req = i as u64;
        let t0 = Instant::now();
        let outcome = timed(trace, parent, req, "online.search", || {
            index.search(&SearchRequest::borrowed(rec, TAU))
        });
        let id = timed(trace, parent, req, "online.insert", || index.insert(rec));
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
        t.close(root, 0, 0, "ingest.pass");
    }
    let done = ClusterPass {
        clusters: uf,
        totals,
        latency_s,
    };
    (done, index.stats().resident_bytes)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let trace = args.trace.then(Trace::new);
    let t = trace.as_ref();
    let mut setup_s = Vec::new();
    let mut records = Vec::new();
    for rep in 0..SETUP_REPS as u64 {
        let started = Instant::now();
        let root = t.map(Trace::open);
        (records, _) = timed(t, root.map_or(0, |o| o.id), rep, "datagen.generate", || {
            let spec = DatasetSpec::new(DatasetKind::Author, RECORDS)
                .with_duplicate_rate(0.1)
                .with_max_planted_edits(2);
            corpus(spec, PARTS, args.seed)
        });
        if let (Some(t), Some(root)) = (t, root) {
            t.close(root, 0, rep, "setup");
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let mut report = Report::default();
    let runs = ClusterRuns::run(args.budget(1.0), || pass(&records, None, None).0)?;
    let peak_rss = peak_rss_mb()?;
    let expected = check::closure(
        records.len(),
        PassJoin::new()
            .self_join(&StringCollection::new(records.clone()), TAU)
            .pairs,
    );
    runs.report(
        &mut report,
        "ingest",
        ("clusters against the batch join closure", &expected),
        records.len(),
        &setup_s,
        peak_rss,
    );

    if let Some(t) = t {
        let obs = Arc::new(EngineObs::new());
        let (mut traced, resident_bytes) = pass(&records, Some(t), Some(Arc::clone(&obs)));
        runs.check_traced(&mut report, "ingest", &mut traced);
        let spans = write_trace("ingest", t, |_| {})?;
        let sum = |name| span_secs(&spans, name).iter().sum();
        report.set("online.search_s", sum("online.search"));
        report.set("online.insert_s", sum("online.insert"));
        report.set("setsim.union_s", sum("setsim.union"));
        set_engine_phases(&mut report, obs.registry());
        set_exec_totals(&mut report, &traced.totals, records.len() as u64);
        report.set("online.resident_bytes", resident_bytes as f64);
        let traced_s = span_secs(&spans, "ingest.pass")[0];
        report.set("obs.overhead", traced_s / median(&runs.secs) - 1.0);
        report.set(
            "error_rate",
            ratio(report.failed as f64, report.attempted as f64),
        );
    }
    Ok(report)
}

/// The per-request phase split the engine's `EngineObs` histograms
/// recorded, as mean nanoseconds per request.
pub fn set_engine_phases(report: &mut Report, registry: &Registry) {
    let requests = registry.histogram("passjoin_request_ns").count() as f64;
    for (metric, histogram) in [
        ("online.plan_ns", "passjoin_phase_plan_ns"),
        ("online.probe_ns", "passjoin_phase_probe_ns"),
        ("online.verify_ns", "passjoin_phase_verify_ns"),
        ("online.cache_ns", "passjoin_phase_cache_ns"),
    ] {
        report.set(
            metric,
            ratio(registry.histogram(histogram).sum() as f64, requests),
        );
    }
}

/// Summed engine counters over `requests` queries.
fn set_exec_totals(report: &mut Report, totals: &ExecStats, requests: u64) {
    let requests = requests as f64;
    let verifications = (totals.verifications + totals.short_checked) as f64;
    let matches = (totals.segment_matches + totals.short_matches) as f64;
    report.set(
        "online.candidates",
        ratio(totals.candidates as f64, requests),
    );
    report.set("online.verifications", ratio(verifications, requests));
    report.set(
        "online.matches_per_verification",
        ratio(matches, verifications),
    );
}
