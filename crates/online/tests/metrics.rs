//! Observability contract: the metrics registry is a *faithful sum* of
//! what the engine reports per request, and attaching it never changes
//! an answer.
//!
//! Pinned here, on both segment stores (a built index, and the same index
//! reopened with `load`):
//!
//! 1. **Registry ≡ ΣExecStats** — after any mix of single, batch
//!    (serial and parallel), streaming, and batch-streaming requests,
//!    every work counter equals the same field summed over the returned
//!    outcomes, and `requests_total` equals the number of requests.
//! 2. **Cache counters ≡ CacheStats** — hits, misses, evictions, and
//!    epoch invalidations land in the registry exactly as the cache's
//!    own lifetime stats count them, and shaped hits are tallied as
//!    derived.
//! 3. **Truncation parity** — the per-reason truncation counters equal
//!    the `Truncated` completions the caller saw, and the buffered and
//!    streamed batch paths report identical tallies for the same
//!    budgeted workload.
//! 4. **Observability is inert** — an instrumented index (with the
//!    default no-op trace sink or a collecting one) returns exactly the
//!    same outcomes as an uninstrumented one, while the collecting sink
//!    observes every request boundary.
//! 5. **Phase attribution is exhaustive** — plan + probe + verify +
//!    cache nanoseconds sum to the request total, by construction, on a
//!    match-heavy workload (the ≥ 95 % acceptance bar is met with
//!    equality).
//! 6. **Persistence metrics round-trip** — a save's section byte
//!    counters equal the load's, the snapshot trace events fire, and a
//!    `load_with` index comes back instrumented.
//! 7. **`matches` is a request** — the convenience method runs through
//!    the engine and is counted like `search`.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use passjoin_online::{
    CacheOutcome, CachePolicy, CollectSink, CollectingTraceSink, Completion, EngineObs, ExecBudget,
    ExecStats, KeyBackend, ManualTicks, MatchSink, OnlineIndex, Parallelism, Queryable,
    SearchRequest, SearchResponse, TickSource, TraceEvent, TruncationReason, WallClockTicks,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Batch streaming with a throwaway `CollectSink` per request; only the
/// response (stats, completions) matters to these contracts.
fn batch_stream_discard(index: &OnlineIndex, reqs: &[SearchRequest]) -> SearchResponse {
    let mut bufs: Vec<Vec<passjoin_online::Match>> = vec![Vec::new(); reqs.len()];
    let mut sinks: Vec<CollectSink> = bufs.iter_mut().map(CollectSink::new).collect();
    let mut slots: Vec<&mut (dyn MatchSink + Send)> = sinks
        .iter_mut()
        .map(|s| s as &mut (dyn MatchSink + Send))
        .collect();
    index.search_batch_streaming(reqs, &mut slots)
}

fn corpus(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(0..16);
            (0..len).map(|_| rng.gen_range(b'a'..=b'e')).collect()
        })
        .collect()
}

/// The segment stores an index under test serves from: as built, and
/// saved and reopened with `load`.
const STORES: [KeyBackend; 2] = [KeyBackend::Owned, KeyBackend::Direct];

/// An index over `strings` on `store`, with `obs` attached (if any) only
/// after the reopen, so the save behind it records nothing.
fn build(
    strings: &[Vec<u8>],
    tau_max: usize,
    store: KeyBackend,
    cache: usize,
    obs: Option<&Arc<EngineObs>>,
) -> OnlineIndex {
    let builder = OnlineIndex::builder(tau_max).cache_capacity(cache);
    if store == KeyBackend::Owned {
        let builder = match obs {
            Some(obs) => builder.observability(Arc::clone(obs)),
            None => builder,
        };
        return builder.build_from(strings.iter());
    }
    let mut index = common::reopen_direct(&builder.build_from(strings.iter()));
    index.set_cache_capacity(cache);
    index.set_observability(obs.cloned());
    index
}

fn counter(obs: &EngineObs, name: &str) -> u64 {
    obs.registry().counter(name).get()
}

fn hsum(obs: &EngineObs, name: &str) -> u64 {
    obs.registry().histogram(name).sum()
}

fn hcount(obs: &EngineObs, name: &str) -> u64 {
    obs.registry().histogram(name).count()
}

fn add_stats(total: &mut ExecStats, stats: &ExecStats) {
    total.candidates += stats.candidates;
    total.verifications += stats.verifications;
    total.short_checked += stats.short_checked;
    total.segment_matches += stats.segment_matches;
    total.short_matches += stats.short_matches;
}

fn assert_registry_matches(obs: &EngineObs, total: &ExecStats, requests: u64) {
    assert_eq!(counter(obs, "passjoin_requests_total"), requests);
    assert_eq!(counter(obs, "passjoin_candidates_total"), total.candidates);
    assert_eq!(
        counter(obs, "passjoin_verifications_total"),
        total.verifications
    );
    assert_eq!(
        counter(obs, "passjoin_short_checked_total"),
        total.short_checked
    );
    assert_eq!(
        counter(obs, "passjoin_segment_matches_total"),
        total.segment_matches
    );
    assert_eq!(
        counter(obs, "passjoin_short_matches_total"),
        total.short_matches
    );
    assert_eq!(hcount(obs, "passjoin_request_ns"), requests);
}

/// Contract 1: every typed query path — single, serial batch, parallel
/// batch, streaming, batch-streaming — lands its final `ExecStats` in
/// the registry exactly once per request.
#[test]
fn registry_equals_summed_stats_across_all_paths() {
    for store in STORES {
        let obs = Arc::new(EngineObs::new());
        let strings = corpus(120, 11);
        let index = build(&strings, 2, store, 0, Some(&obs));
        let queries = corpus(80, 12);

        let mut total = ExecStats::default();
        let mut requests = 0u64;

        // Single requests, mixed shapes.
        for (i, q) in queries.iter().enumerate() {
            let mut req = SearchRequest::borrowed(q, i % 3);
            if i % 4 == 1 {
                req = req.with_limit(2);
            }
            if i % 4 == 2 {
                req = req.count_only();
            }
            add_stats(&mut total, &index.search(&req).stats);
            requests += 1;
        }

        // Serial and parallel batches (the latter large enough to cross
        // the engine's parallel threshold, exercising the atomic
        // counters from several worker threads at once).
        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            let reqs: Vec<SearchRequest> = queries
                .iter()
                .map(|q| SearchRequest::borrowed(q, 2).with_parallelism(parallelism))
                .collect();
            for outcome in &index.search_batch(&reqs).outcomes {
                add_stats(&mut total, &outcome.stats);
                requests += 1;
            }
        }

        // Streaming, single and batch form.
        for q in &queries {
            let mut emitted = Vec::new();
            let outcome = {
                let mut sink = CollectSink::new(&mut emitted);
                index.search_streaming(&SearchRequest::borrowed(q, 1), &mut sink)
            };
            add_stats(&mut total, &outcome.stats);
            requests += 1;
        }
        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            let reqs: Vec<SearchRequest> = queries
                .iter()
                .map(|q| SearchRequest::borrowed(q, 2).with_parallelism(parallelism))
                .collect();
            let response = batch_stream_discard(&index, &reqs);
            for outcome in &response.outcomes {
                add_stats(&mut total, &outcome.stats);
                requests += 1;
            }
        }

        assert_registry_matches(&obs, &total, requests);

        // Snapshots share the index's instrumentation.
        let snapshot = index.snapshot();
        for q in queries.iter().take(10) {
            add_stats(
                &mut total,
                &snapshot.search(&SearchRequest::borrowed(q, 2)).stats,
            );
            requests += 1;
        }
        assert_registry_matches(&obs, &total, requests);
    }
}

/// Contract 2: the cache's registry counters track its own lifetime
/// stats exactly — across hits, misses, LRU evictions, epoch
/// invalidations, and shaped (derived) hits.
#[test]
fn cache_counters_match_cache_stats() {
    for store in STORES {
        let obs = Arc::new(EngineObs::new());
        let strings = corpus(60, 21);
        let mut index = build(&strings, 2, store, 4, Some(&obs));
        let queries = corpus(12, 22);

        let cached = |q: &[u8]| SearchRequest::new(q, 2).with_cache(CachePolicy::Use);
        // More distinct (query, τ) keys than capacity ⇒ evictions; a
        // second pass over a small working set ⇒ hits.
        for q in &queries {
            index.search(&cached(q));
        }
        for q in queries.iter().take(3) {
            index.search(&cached(q));
            index.search(&cached(q));
        }
        // A shaped request answered from a stored full result is a
        // *derived* hit.
        let derived_before = counter(&obs, "passjoin_cache_derived_hits_total");
        index.search(&cached(&queries[0]).with_limit(1));
        assert_eq!(
            counter(&obs, "passjoin_cache_derived_hits_total"),
            derived_before + 1
        );
        // Mutation bumps the epoch; the next lookup invalidates.
        index.insert(b"freshly inserted");
        index.search(&cached(&queries[0]));

        let stats = index.cache_stats();
        assert!(
            stats.hits > 0 && stats.misses > 0,
            "workload exercises both"
        );
        assert!(stats.evictions > 0, "capacity 4 over 12 keys must evict");
        assert_eq!(stats.invalidations, 1, "one epoch bump, one invalidation");
        assert_eq!(counter(&obs, "passjoin_cache_hits_total"), stats.hits);
        assert_eq!(counter(&obs, "passjoin_cache_misses_total"), stats.misses);
        assert_eq!(
            counter(&obs, "passjoin_cache_evictions_total"),
            stats.evictions
        );
        assert_eq!(
            counter(&obs, "passjoin_cache_invalidations_total"),
            stats.invalidations
        );
    }
}

/// Runs one budgeted workload and returns `(per-reason registry tallies,
/// per-reason completion tallies)` for it.
fn truncation_tallies(streamed: bool, store: KeyBackend) -> ([u64; 3], [u64; 3]) {
    let obs = Arc::new(EngineObs::new());
    let strings = corpus(150, 31);
    let index = build(&strings, 2, store, 0, Some(&obs));
    let queries = corpus(60, 32);

    let expired = Arc::new(ManualTicks::new());
    expired.advance(5);
    let reqs: Vec<SearchRequest> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let budget = match i % 4 {
                0 => ExecBudget::new().with_max_verifications(1),
                1 => ExecBudget::new().with_max_candidates(1),
                2 => {
                    ExecBudget::new().with_deadline(Arc::clone(&expired) as Arc<dyn TickSource>, 1)
                }
                _ => ExecBudget::new(), // unlimited
            };
            SearchRequest::borrowed(q, 2).with_budget(budget)
        })
        .collect();

    let response = if streamed {
        batch_stream_discard(&index, &reqs)
    } else {
        index.search_batch(&reqs)
    };

    let mut seen = [0u64; 3];
    for outcome in &response.outcomes {
        if let Completion::Truncated { reason } = outcome.completion {
            let slot = match reason {
                TruncationReason::VerificationCap => 0,
                TruncationReason::CandidateCap => 1,
                TruncationReason::Deadline => 2,
            };
            seen[slot] += 1;
        }
    }
    let counted = [
        counter(&obs, "passjoin_truncated_verification_cap_total"),
        counter(&obs, "passjoin_truncated_candidate_cap_total"),
        counter(&obs, "passjoin_truncated_deadline_total"),
    ];
    (counted, seen)
}

/// Contract 3: the registry's per-reason truncation counters equal the
/// completions the caller saw, and the buffered and streamed batch paths
/// report the same tally for the same workload.
#[test]
fn truncation_counters_agree_buffered_and_streamed() {
    for store in STORES {
        let (buffered_counted, buffered_seen) = truncation_tallies(false, store);
        let (streamed_counted, streamed_seen) = truncation_tallies(true, store);
        assert_eq!(buffered_counted, buffered_seen, "registry ≡ completions");
        assert_eq!(streamed_counted, streamed_seen, "registry ≡ completions");
        assert_eq!(
            buffered_counted, streamed_counted,
            "streamed batches report the same truncation tally as buffered"
        );
        assert!(
            buffered_seen.iter().all(|&n| n > 0),
            "workload must trip every reason: {buffered_seen:?}"
        );
    }
}

/// Contract 4: instrumentation is inert — same outcomes with no
/// observability, with the default no-op trace sink, and with a
/// collecting sink; and the collecting sink sees every boundary.
#[test]
fn observability_never_changes_results() {
    for store in STORES {
        let strings = corpus(80, 41);
        let queries = corpus(40, 42);

        let bare = build(&strings, 2, store, 8, None);
        let noop_obs = Arc::new(EngineObs::new());
        let noop = build(&strings, 2, store, 8, Some(&noop_obs));
        let collector = Arc::new(CollectingTraceSink::new());
        let collecting_obs =
            Arc::new(EngineObs::new().with_trace(Arc::clone(&collector) as Arc<_>));
        let collecting = build(&strings, 2, store, 8, Some(&collecting_obs));

        let reqs: Vec<SearchRequest> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let mut req = SearchRequest::borrowed(q, i % 3);
                if i % 2 == 0 {
                    req = req.with_cache(CachePolicy::Use);
                }
                if i % 5 == 0 {
                    req = req.with_limit(3);
                }
                if i % 7 == 3 {
                    req = req.count_only();
                }
                req
            })
            .collect();

        let expected = bare.search_batch(&reqs);
        for index in [&noop, &collecting] {
            let got = index.search_batch(&reqs);
            for (e, g) in expected.outcomes.iter().zip(&got.outcomes) {
                assert_eq!(e.matches, g.matches);
                assert_eq!(e.count, g.count);
                assert_eq!(e.stats, g.stats);
                assert_eq!(e.completion, g.completion);
            }
        }
        // Every streamed shape (plain, top-k, count-only, cache hits
        // replayed from the buffered pass) answers alike on both, twice:
        // streamed computations store nothing, so the passes agree.
        let mut hits = 0;
        for req in reqs.iter().chain(&reqs) {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let e = {
                let mut sink = CollectSink::new(&mut a);
                bare.search_streaming(req, &mut sink)
            };
            let g = {
                let mut sink = CollectSink::new(&mut b);
                collecting.search_streaming(req, &mut sink)
            };
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "trace sink must not steer the scan");
            assert_eq!(e.count, g.count);
            assert_eq!(e.stats, g.stats);
            assert_eq!(e.completion, g.completion);
            assert_eq!(e.cache, g.cache);
            hits += usize::from(g.cache == CacheOutcome::Hit);
        }
        assert!(hits > 0, "the buffered pass left hits to replay");
        let streamed_emitting = 2 * reqs.iter().filter(|r| !r.is_count_only()).count();
        // Streaming parity too.
        for q in &queries {
            let req = SearchRequest::borrowed(q, 2);
            let mut a = Vec::new();
            let mut b = Vec::new();
            {
                let mut sink = CollectSink::new(&mut a);
                bare.search_streaming(&req, &mut sink);
            }
            {
                let mut sink = CollectSink::new(&mut b);
                collecting.search_streaming(&req, &mut sink);
            }
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "trace sink must not steer the scan");
        }

        let events = collector.take();
        let requests = counter(&collecting_obs, "passjoin_requests_total");
        let finished = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::VerifyFinished { .. }))
            .count() as u64;
        assert_eq!(finished, requests, "one VerifyFinished per request");
        let lookups = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::CacheLookup { .. }))
            .count() as u64;
        assert_eq!(
            lookups,
            counter(&collecting_obs, "passjoin_cache_hits_total")
                + counter(&collecting_obs, "passjoin_cache_misses_total"),
            "one CacheLookup per counted lookup"
        );
        let flushes = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Flush { .. }))
            .count();
        assert_eq!(
            flushes,
            queries.len() + streamed_emitting,
            "one Flush per streamed request that is not count-only"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::PlanBuilt { .. })),
            "plans are traced"
        );
    }
}

/// Contract 5: the four phase histograms partition the request total
/// exactly — the dump attributes 100 % of the measured wall time.
#[test]
fn phase_attribution_is_exhaustive() {
    let obs = Arc::new(EngineObs::new());
    // Match-heavy: many near-identical strings, every query hits most.
    let strings: Vec<Vec<u8>> = (0..200)
        .map(|i| format!("match heavy string {:02}", i % 10).into_bytes())
        .collect();
    let index = build(&strings, 2, KeyBackend::Owned, 8, Some(&obs));
    let reqs: Vec<SearchRequest> = strings
        .iter()
        .step_by(2)
        .map(|q| SearchRequest::borrowed(q, 2).with_cache(CachePolicy::Use))
        .collect();
    index.search_batch(&reqs);

    let request_ns = hsum(&obs, "passjoin_request_ns");
    let attributed = hsum(&obs, "passjoin_phase_plan_ns")
        + hsum(&obs, "passjoin_phase_probe_ns")
        + hsum(&obs, "passjoin_phase_verify_ns")
        + hsum(&obs, "passjoin_phase_cache_ns");
    assert!(request_ns > 0, "a real clock must have measured something");
    assert_eq!(
        attributed, request_ns,
        "plan + probe + verify + cache must sum to the request total"
    );
}

/// A unique temp path per call (tests run concurrently in one process).
fn temp_snapshot_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "passjoin-metrics-{}-{tag}-{n}.snap",
        std::process::id()
    ))
}

struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Contract 6: save and load byte accounting agree, the snapshot trace
/// events fire with the file's true size, and `load_with` returns an
/// instrumented index.
#[test]
fn snapshot_metrics_round_trip() {
    for store in STORES {
        let save_trace = Arc::new(CollectingTraceSink::new());
        let save_obs = Arc::new(EngineObs::new().with_trace(Arc::clone(&save_trace) as Arc<_>));
        let strings = corpus(80, 51);
        let index = build(&strings, 2, store, 0, Some(&save_obs));

        let file = TempFile(temp_snapshot_path("roundtrip"));
        let bytes = index.save(&file.0).expect("save must succeed");
        assert_eq!(
            counter(&save_obs, "passjoin_snapshot_save_bytes_total"),
            bytes
        );
        assert_eq!(
            std::fs::metadata(&file.0).expect("file exists").len(),
            bytes
        );
        assert!(save_trace
            .take()
            .iter()
            .any(|e| matches!(e, TraceEvent::SnapshotSaved { bytes: b } if *b == bytes)));

        let load_trace = Arc::new(CollectingTraceSink::new());
        let load_obs = Arc::new(EngineObs::new().with_trace(Arc::clone(&load_trace) as Arc<_>));
        let loaded =
            OnlineIndex::load_with(&file.0, Arc::clone(&load_obs)).expect("load must succeed");
        assert_eq!(
            counter(&load_obs, "passjoin_snapshot_load_bytes_total"),
            bytes
        );
        assert!(load_trace
            .take()
            .iter()
            .any(|e| matches!(e, TraceEvent::SnapshotLoaded { bytes: b } if *b == bytes)));
        // Per-section payload accounting must agree between the writer
        // and the reader.
        for section in ["meta", "spans", "strings", "segments"] {
            let name = format!("passjoin_snapshot_section_{section}_bytes_total");
            let saved = counter(&save_obs, &name);
            assert!(saved > 0, "{name} on save");
            assert_eq!(counter(&load_obs, &name), saved, "{name} on load");
        }
        assert_eq!(
            hcount(&load_obs, "passjoin_snapshot_load_read_ns")
                + hcount(&load_obs, "passjoin_snapshot_load_decode_ns")
                + hcount(&load_obs, "passjoin_snapshot_load_validate_ns"),
            3,
            "each load phase observed once"
        );

        // The loaded index is instrumented without further wiring.
        loaded.search(&SearchRequest::borrowed(&strings[0], 2));
        assert_eq!(counter(&load_obs, "passjoin_requests_total"), 1);
    }
}

/// Satellite: a real wall-clock tick source drives `ExecBudget`
/// deadlines end to end — an expired deadline truncates with the
/// deadline reason and lands in the deadline counter.
#[test]
fn wall_clock_deadline_truncates_and_is_counted() {
    let obs = Arc::new(EngineObs::new());
    let strings = corpus(100, 61);
    let index = build(&strings, 2, KeyBackend::Owned, 0, Some(&obs));

    let ticks = Arc::new(WallClockTicks::millis());
    let already_passed = ticks.ticks();
    let budget =
        ExecBudget::new().with_deadline(Arc::clone(&ticks) as Arc<dyn TickSource>, already_passed);
    let outcome = index.search(&SearchRequest::borrowed(&strings[0], 2).with_budget(budget));
    assert_eq!(
        outcome.completion,
        Completion::Truncated {
            reason: TruncationReason::Deadline
        }
    );
    assert_eq!(counter(&obs, "passjoin_truncated_deadline_total"), 1);

    // A deadline comfortably in the future completes exactly.
    let budget = ExecBudget::new().with_deadline(
        Arc::clone(&ticks) as Arc<dyn TickSource>,
        ticks.ticks() + 60_000,
    );
    let relaxed = index.search(&SearchRequest::borrowed(&strings[0], 2).with_budget(budget));
    assert!(relaxed.completion.is_complete());
    assert_eq!(
        relaxed.matches,
        index
            .search(&SearchRequest::borrowed(&strings[0], 2))
            .matches
    );
}

/// Contract 7: `Queryable::matches` is an ordinary engine request — it
/// moves the request counter by one, on the index and on its snapshots.
#[test]
fn matches_is_counted_like_any_request() {
    for store in STORES {
        let obs = Arc::new(EngineObs::new());
        let strings = corpus(40, 71);
        let index = build(&strings, 2, store, 0, Some(&obs));
        let found = index.matches(&strings[0], 2);
        assert_eq!(counter(&obs, "passjoin_requests_total"), 1);
        assert_eq!(hcount(&obs, "passjoin_request_ns"), 1);
        let searched = index.search(&SearchRequest::borrowed(&strings[0], 2));
        assert_eq!(found, *searched.matches);
        index.snapshot().matches(&strings[0], 1);
        assert_eq!(counter(&obs, "passjoin_requests_total"), 3);
    }
}
