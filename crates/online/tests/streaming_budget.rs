//! Property suite for the streaming & budgeted query surface.
//!
//! Three contracts are pinned here, on both segment stores (a built
//! index, and the same index reopened with `load`), for every
//! `τ ≤ τ_max`, on random and planted corpora:
//!
//! 1. **Streaming ≡ buffered** — collecting `search_streaming`'s
//!    emissions yields exactly `search`'s matches for every request
//!    shape (plain emissions are in verification order and compare after
//!    an id sort; top-k emissions arrive already in `(distance, id)`
//!    order; count-only emits nothing), and the batch variant pushes the
//!    same matches into each request's own sink (requests may interleave
//!    across worker threads; each sink still sees exactly its request's
//!    matches).
//! 2. **Budgets are sound** — a budgeted result is always a subset of
//!    the unbudgeted one, the work counters never exceed the cap, and
//!    `Truncated` is reported **iff** work was actually skipped (a cap
//!    at or above the total work never trips and returns the exact
//!    answer). A candidate rejected by its character signature before
//!    the extension cascade counts as one verification, against the cap
//!    too.
//! 3. **The cache stays exact** — budget-tripped and streamed
//!    computations never populate the cache, while shaped requests are
//!    answered from a stored full result by sort-truncate/len
//!    derivation (pinned with cache counters).

mod common;

use std::sync::Arc;

use passjoin_online::{
    CacheOutcome, CachePolicy, CollectSink, Completion, ExecBudget, ManualTicks, Match, MatchSink,
    OnlineIndex, Parallelism, QueryOutcome, Queryable, SearchRequest, SearchResponse, TickSource,
    TruncationReason,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The collection on both segment stores: built, and reopened direct.
fn stores(strings: &[Vec<u8>], tau_max: usize) -> [OnlineIndex; 2] {
    let built = OnlineIndex::from_strings(strings.iter(), tau_max);
    let direct = common::reopen_direct(&built);
    [built, direct]
}

/// Runs one streaming request, returning its emissions and outcome.
fn collect_streaming(source: &dyn Queryable, req: &SearchRequest) -> (Vec<Match>, QueryOutcome) {
    let mut emitted = Vec::new();
    let outcome = {
        let mut sink = CollectSink::new(&mut emitted);
        source.search_streaming(req, &mut sink)
    };
    (emitted, outcome)
}

/// Edit-distance work one outcome performed (both verification lanes).
fn work(outcome: &QueryOutcome) -> u64 {
    outcome.stats.verifications + outcome.stats.short_checked
}

/// Contract 1, single-request form: streaming emissions ≡ buffered
/// matches for every shape, on the index and on a snapshot.
fn assert_streaming_equals_buffered(index: &OnlineIndex, queries: &[Vec<u8>]) {
    let snapshot = index.snapshot();
    for tau in 0..=index.tau_max() {
        for q in queries {
            let req = SearchRequest::borrowed(q, tau);
            let buffered = index.search(&req);

            let (mut emitted, outcome) = collect_streaming(index, &req);
            emitted.sort_unstable(); // plain emissions are verification-ordered
            assert_eq!(emitted, *buffered.matches, "plain streaming at tau={tau}");
            assert_eq!(outcome.count, buffered.count);
            assert_eq!(outcome.stats, buffered.stats, "same scan, same work");
            assert!(outcome.matches.is_empty(), "matches go to the sink only");
            assert!(outcome.completion.is_complete());

            let (mut via_snapshot, _) = collect_streaming(&snapshot, &req);
            via_snapshot.sort_unstable();
            assert_eq!(via_snapshot, *buffered.matches, "snapshot streaming");

            for k in [0usize, 1, 2, buffered.count, buffered.count + 3] {
                let kreq = req.clone().with_limit(k);
                let topk = index.search(&kreq);
                let (emitted_k, outcome_k) = collect_streaming(index, &kreq);
                // Top-k emission is the flush of the finished heap: the
                // buffered result, order included.
                assert_eq!(emitted_k, *topk.matches, "top-{k} streaming");
                assert_eq!(outcome_k.count, topk.matches.len());
            }

            let creq = req.clone().count_only();
            let counted = index.search(&creq);
            let (emitted_c, outcome_c) = collect_streaming(index, &creq);
            assert!(emitted_c.is_empty(), "count-only emits nothing");
            assert_eq!(outcome_c.count, counted.count);
        }
    }
}

/// Runs one batch-streaming call with a fresh `CollectSink` per request,
/// returning each request's emissions and the response.
fn collect_batch_streaming(
    source: &dyn Queryable,
    reqs: &[SearchRequest],
) -> (Vec<Vec<Match>>, SearchResponse) {
    let mut per_req: Vec<Vec<Match>> = vec![Vec::new(); reqs.len()];
    let response = {
        let mut sinks: Vec<CollectSink> = per_req.iter_mut().map(CollectSink::new).collect();
        let mut slots: Vec<&mut (dyn MatchSink + Send)> = sinks
            .iter_mut()
            .map(|s| s as &mut (dyn MatchSink + Send))
            .collect();
        source.search_batch_streaming(reqs, &mut slots)
    };
    (per_req, response)
}

/// Requests a batch needs before the engine spreads it over worker
/// threads (two blocks of its work cursor).
const PARALLEL_MIN: usize = 64;

/// Contract 1, batch form: each request's own sink receives exactly that
/// request's matches, equal to the buffered batch (requests may run on
/// worker threads, so no cross-request emission order is assumed). The
/// batch runs serially as given, and again repeated to at least
/// [`PARALLEL_MIN`] requests at `Threads(4)`.
fn assert_batch_streaming_equals_buffered(index: &OnlineIndex, queries: &[Vec<u8>], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let serial: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::borrowed(q, rng.gen_range(0..=index.tau_max())))
        .collect();
    let parallel: Vec<SearchRequest> = serial
        .iter()
        .cycle()
        .take(serial.len().max(PARALLEL_MIN))
        .map(|req| req.clone().with_parallelism(Parallelism::Threads(4)))
        .collect();
    for reqs in [serial, parallel] {
        let buffered = index.search_batch(&reqs);

        let (mut per_req, response) = collect_batch_streaming(index, &reqs);

        assert_eq!(response.outcomes.len(), buffered.outcomes.len());
        for (i, expected) in buffered.outcomes.iter().enumerate() {
            per_req[i].sort_unstable();
            assert_eq!(per_req[i], *expected.matches, "request {i}");
            assert_eq!(response.outcomes[i].count, expected.count);
            assert_eq!(response.outcomes[i].stats, expected.stats);
        }
    }
}

/// Contract 2: budgeted ⊆ unbudgeted, caps are respected exactly, and
/// `Truncated` is reported iff the cap actually cut the scan short.
fn assert_budgets_are_sound(index: &OnlineIndex, queries: &[Vec<u8>]) {
    for tau in 0..=index.tau_max() {
        for q in queries {
            let plain = SearchRequest::borrowed(q, tau);
            let full = index.search(&plain);
            let total_verifications = work(&full);
            let total_candidates = full.stats.candidates;

            for cap in [0, 1, 2, total_verifications, total_verifications + 10] {
                let req = plain
                    .clone()
                    .with_budget(ExecBudget::new().with_max_verifications(cap));
                let capped = index.search(&req);
                assert!(
                    capped.matches.iter().all(|m| full.matches.contains(m)),
                    "budgeted result must be a subset (tau={tau}, cap={cap})"
                );
                assert!(work(&capped) <= cap, "cap is a hard ceiling");
                assert_eq!(
                    capped.completion.is_complete(),
                    cap >= total_verifications,
                    "Truncated iff work was skipped (tau={tau}, cap={cap}, total={total_verifications})"
                );
                match capped.completion {
                    Completion::Complete => {
                        assert_eq!(capped.matches, full.matches, "untripped ⇒ exact");
                        assert_eq!(capped.stats, full.stats);
                    }
                    Completion::Truncated { reason } => {
                        assert_eq!(reason, TruncationReason::VerificationCap);
                        assert_eq!(work(&capped), cap, "trips only after spending the cap");
                    }
                }

                // The same holds when the budget rides a streaming scan.
                let (mut emitted, streamed) = collect_streaming(index, &req);
                emitted.sort_unstable();
                assert_eq!(
                    emitted, *capped.matches,
                    "streamed budget ≡ buffered budget"
                );
                assert_eq!(streamed.completion, capped.completion);
                assert_eq!(streamed.stats, capped.stats);
            }

            for cap in [0, 1, total_candidates, total_candidates + 10] {
                let req = plain
                    .clone()
                    .with_budget(ExecBudget::new().with_max_candidates(cap));
                let capped = index.search(&req);
                assert!(capped.matches.iter().all(|m| full.matches.contains(m)));
                assert!(capped.stats.candidates <= cap);
                assert_eq!(
                    capped.completion.is_complete(),
                    cap >= total_candidates,
                    "candidate cap: Truncated iff work was skipped"
                );
                if let Completion::Truncated { reason } = capped.completion {
                    assert_eq!(reason, TruncationReason::CandidateCap);
                }
            }
        }
    }
}

fn dense_corpus() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..12),
        0..20,
    )
}

fn off_corpus_queries() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..16),
        1..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn streaming_equals_buffered_on_both_backends(
        strings in dense_corpus(),
        extra in off_corpus_queries(),
        tau_max in 1usize..4,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut queries = strings.clone();
        queries.extend(extra);
        for index in stores(&strings, tau_max) {
            assert_streaming_equals_buffered(&index, &queries);
            assert_batch_streaming_equals_buffered(&index, &queries, seed);
        }
    }

    #[test]
    fn budgets_are_sound_on_both_backends(
        strings in dense_corpus(),
        extra in off_corpus_queries(),
        tau_max in 1usize..4,
    ) {
        let mut queries = strings.clone();
        queries.extend(extra);
        for index in stores(&strings, tau_max) {
            assert_budgets_are_sound(&index, &queries);
        }
    }

    #[test]
    fn tripped_budgets_never_pollute_the_cache(
        strings in dense_corpus(),
        tau_max in 1usize..4,
    ) {
        for index in stores(&strings, tau_max) {
            for q in &strings {
                let cacheable = SearchRequest::borrowed(q, tau_max).with_cache(CachePolicy::Use);
                let tripped = index.search(
                    &cacheable.clone().with_budget(ExecBudget::new().with_max_verifications(0)),
                );
                if tripped.cache == CacheOutcome::Hit {
                    // A duplicate query already stored its full result; a
                    // hit needs no probing, so the budget cannot trip.
                    prop_assert!(tripped.completion.is_complete());
                    continue;
                }
                prop_assert_eq!(tripped.cache, CacheOutcome::Miss);
                if !tripped.completion.is_complete() {
                    // The truncated result must not have been stored: the
                    // next cacheable request recomputes (a miss)…
                    let full = index.search(&cacheable);
                    prop_assert_eq!(full.cache, CacheOutcome::Miss);
                    prop_assert!(full.completion.is_complete());
                    // …and only that complete result is served afterwards.
                    let hit = index.search(&cacheable);
                    prop_assert_eq!(hit.cache, CacheOutcome::Hit);
                    prop_assert_eq!(&*hit.matches, &*full.matches);
                }
            }
        }
    }
}

/// A planted corpus with near-duplicates per base string — match-heavy,
/// so budgets and shapes have real work to cut.
fn heavy_corpus(n: usize, dups: usize, seed: u64) -> Vec<Vec<u8>> {
    let base = datagen::DatasetSpec::new(datagen::DatasetKind::Author, n)
        .with_seed(seed)
        .generate();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
    let mut strings = Vec::with_capacity(n * (dups + 1));
    for s in base {
        for _ in 0..dups {
            strings.push(datagen::mutate(&s, rng.gen_range(1..=2), &mut rng));
        }
        strings.push(s);
    }
    strings
}

#[test]
fn planted_corpus_streams_and_budgets_on_both_backends() {
    let strings = heavy_corpus(120, 1, 11);
    let queries: Vec<Vec<u8>> = strings.iter().step_by(5).cloned().collect();
    for index in stores(&strings, 2) {
        assert_streaming_equals_buffered(&index, &queries);
        assert_batch_streaming_equals_buffered(&index, &queries, 23);
        assert_budgets_are_sound(&index, &queries[..8.min(queries.len())]);
    }
}

#[test]
fn verification_cap_observably_reduces_work() {
    // Acceptance: a verification-capped request demonstrably performs
    // fewer verifications than the unbudgeted one and reports Truncated.
    let strings = heavy_corpus(200, 3, 7);
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    // Pick the heaviest query so the cap has real work to cut.
    let (q, full) = strings
        .iter()
        .take(40)
        .map(|s| {
            let outcome = index.search(&SearchRequest::borrowed(s, 2));
            (s.as_slice(), outcome)
        })
        .max_by_key(|(_, outcome)| work(outcome))
        .expect("non-empty corpus");
    assert!(
        work(&full) > 2,
        "corpus must be match-heavy: {} work units",
        work(&full)
    );
    let cap = work(&full) / 2;
    let capped = index.search(
        &SearchRequest::borrowed(q, 2).with_budget(ExecBudget::new().with_max_verifications(cap)),
    );
    assert_eq!(
        capped.completion,
        Completion::Truncated {
            reason: TruncationReason::VerificationCap
        }
    );
    assert!(work(&capped) < work(&full));
    assert!(capped.matches.len() <= full.matches.len());
}

/// A signature reject is a verification that failed early: it counts in
/// `ExecStats::verifications` and against `max_verifications`, on both
/// stores. Each near miss shares one segment with the query, so it is a
/// candidate, but differs from it in eight signature buckets, over the
/// 2τ the screen lets through.
#[test]
fn a_signature_reject_counts_as_one_verification() {
    let query = b"abcdefgh";
    let tau = 1;
    let mut strings = vec![query.to_vec()];
    for other in [&b"IJKL"[..], b"MNOP", b"QRST", b"UVWX"] {
        strings.push([&query[..4], other].concat()); // shares slot 1's "abcd"
        strings.push([other, &query[4..]].concat()); // shares slot 2's "efgh"
    }
    let query_sig = editdist::char_signature(query);
    for s in &strings[1..] {
        let bound = editdist::signature_bound(query_sig, editdist::char_signature(s));
        assert!(
            bound > tau,
            "{:?} passes the screen",
            String::from_utf8_lossy(s)
        );
    }
    let req = SearchRequest::borrowed(query, tau);
    let capped = |cap| {
        req.clone()
            .with_budget(ExecBudget::new().with_max_verifications(cap))
    };
    for index in stores(&strings, tau) {
        let full = index.search(&req);
        assert_eq!(*full.matches, vec![(0, 0)]);
        // The copy is a candidate through both segments and verified
        // once; each of the eight near misses is one candidate and one
        // verification.
        assert_eq!(full.stats.candidates, 2 + 8);
        assert_eq!(full.stats.verifications, 1 + 8);
        for cap in 0..full.stats.verifications {
            let outcome = index.search(&capped(cap));
            assert_eq!(
                outcome.completion,
                Completion::Truncated {
                    reason: TruncationReason::VerificationCap
                },
                "cap {cap}"
            );
            assert_eq!(outcome.stats.verifications, cap, "cap {cap}");
        }
        let exact = index.search(&capped(full.stats.verifications));
        assert_eq!(exact.completion, Completion::Complete);
        assert_eq!(exact.stats, full.stats);
    }
}

#[test]
fn streamed_computations_never_enter_the_cache() {
    let strings = heavy_corpus(60, 1, 3);
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    let q = strings[0].as_slice();
    let req = SearchRequest::borrowed(q, 2).with_cache(CachePolicy::Use);

    // Streaming computes but never stores…
    let (_, first) = collect_streaming(&index, &req);
    assert_eq!(first.cache, CacheOutcome::Miss);
    let (_, second) = collect_streaming(&index, &req);
    assert_eq!(second.cache, CacheOutcome::Miss, "nothing was stored");

    // …a buffered request stores, and streaming then replays the hit in
    // the cached (id) order.
    let buffered = index.search(&req);
    assert_eq!(buffered.cache, CacheOutcome::Miss);
    let (emitted, hit) = collect_streaming(&index, &req);
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(hit.stats, Default::default(), "hits probe nothing");
    assert_eq!(emitted, *buffered.matches, "replay is already id-ordered");
}

#[test]
fn cached_full_results_answer_shaped_requests() {
    let strings = heavy_corpus(80, 2, 5);
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    // Pick a query with enough matches for the top-k truncation to bite.
    let q = strings
        .iter()
        .take(30)
        .max_by_key(|s| index.search(&SearchRequest::borrowed(s, 2)).count)
        .expect("non-empty corpus")
        .as_slice();
    let plain = SearchRequest::borrowed(q, 2).with_cache(CachePolicy::Use);

    // Reference shaped answers, computed cold (cache bypassed).
    let topk_ref = index.search(&SearchRequest::borrowed(q, 2).with_limit(3));
    let count_ref = index.search(&SearchRequest::borrowed(q, 2).count_only());
    assert!(count_ref.count >= 3, "corpus must be match-heavy");

    // Shaped requests with Use consult the cache but never seed it.
    let miss = index.search(&plain.clone().with_limit(3));
    assert_eq!(miss.cache, CacheOutcome::Miss);
    let still_miss = index.search(&plain.clone().with_limit(3));
    assert_eq!(
        still_miss.cache,
        CacheOutcome::Miss,
        "shaped results are never stored"
    );

    // A plain request stores the full result; every shape then derives
    // from it without probing.
    assert_eq!(index.search(&plain).cache, CacheOutcome::Miss);
    let before = index.cache_stats();

    let topk_hit = index.search(&plain.clone().with_limit(3));
    assert_eq!(topk_hit.cache, CacheOutcome::Hit);
    assert_eq!(
        topk_hit.stats,
        Default::default(),
        "derivation probes nothing"
    );
    assert_eq!(
        *topk_hit.matches, *topk_ref.matches,
        "sort-truncate derivation"
    );

    let count_hit = index.search(&plain.clone().count_only());
    assert_eq!(count_hit.cache, CacheOutcome::Hit);
    assert_eq!(count_hit.count, count_ref.count, "len derivation");
    assert!(count_hit.matches.is_empty());

    let capped_hit = index.search(&plain.clone().count_only().with_limit(2));
    assert_eq!(capped_hit.cache, CacheOutcome::Hit);
    assert_eq!(
        capped_hit.count,
        count_ref.count.min(2),
        "capped len derivation"
    );

    // Pin the counters: three derivations = three more cache hits, no
    // further misses.
    let after = index.cache_stats();
    assert_eq!(after.hits, before.hits + 3);
    assert_eq!(after.misses, before.misses);
}

#[test]
fn deadlines_are_deterministic_via_manual_ticks() {
    let strings = heavy_corpus(60, 1, 9);
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    let q = strings[0].as_slice();
    let full = index.search(&SearchRequest::borrowed(q, 2));
    assert!(work(&full) > 0, "query must have work to cut");

    let clock = Arc::new(ManualTicks::new());
    let source: Arc<dyn TickSource> = clock.clone();
    let budget = ExecBudget::new().with_deadline(source, 1);

    // Tick 0 < 1: the deadline never fires; the answer is exact.
    let before = index.search(&SearchRequest::borrowed(q, 2).with_budget(budget.clone()));
    assert!(before.completion.is_complete());
    assert_eq!(before.matches, full.matches);

    // Tick 1 ≥ 1: the deadline fires before the first verification.
    clock.advance(1);
    let expired = index.search(&SearchRequest::borrowed(q, 2).with_budget(budget));
    assert_eq!(
        expired.completion,
        Completion::Truncated {
            reason: TruncationReason::Deadline
        }
    );
    assert_eq!(work(&expired), 0, "no verification ran past the deadline");
    assert!(expired.matches.is_empty());
}

#[test]
fn caller_sinks_steer_streaming_scans() {
    // A saturating caller sink must stop the scan early — the streaming
    // boundary carries the full MatchSink steering contract, not just
    // push.
    struct FirstOnly {
        got: Option<Match>,
    }
    impl passjoin_online::MatchSink for FirstOnly {
        fn push(&mut self, id: u32, dist: usize) {
            assert!(self.got.is_none(), "saturated sink must not be pushed to");
            self.got = Some((id, dist));
        }
        fn saturated(&self) -> bool {
            self.got.is_some()
        }
    }

    let strings = heavy_corpus(100, 2, 13);
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    let q = strings[0].as_slice();
    let full = index.search(&SearchRequest::borrowed(q, 2));
    assert!(full.count > 1, "needs more than one match");

    let mut sink = FirstOnly { got: None };
    let outcome = index.search_streaming(&SearchRequest::borrowed(q, 2), &mut sink);
    assert_eq!(outcome.count, 1);
    assert!(
        outcome.completion.is_complete(),
        "caller saturation is not a budget trip"
    );
    assert!(work(&outcome) <= work(&full));
    let got = sink.got.expect("one match was emitted");
    assert!(full.matches.contains(&got));
}

/// The work one whole response performed (both verification lanes).
fn batch_work(outcomes: &[QueryOutcome]) -> u64 {
    outcomes.iter().map(work).sum()
}

#[test]
fn batch_budget_caps_total_work_across_the_batch() {
    use passjoin_online::{BatchBudget, Parallelism};

    let strings = heavy_corpus(150, 2, 17);
    let queries: Vec<Vec<u8>> = strings.iter().step_by(7).cloned().collect();
    for index in stores(&strings, 2) {
        let unlimited: Vec<SearchRequest> = queries
            .iter()
            .map(|q| SearchRequest::borrowed(q, 2))
            .collect();
        let full = index.search_batch(&unlimited);
        let total = batch_work(&full.outcomes);
        assert!(total > 4, "corpus must be match-heavy: {total} work units");

        for (cap, parallelism) in [
            (0, Parallelism::Serial),
            (total / 2, Parallelism::Serial),
            (total / 2, Parallelism::Auto), // atomics keep the cap under races
            (total, Parallelism::Serial),
            (total + 10, Parallelism::Auto),
        ] {
            let shared = BatchBudget::new(ExecBudget::new().with_max_verifications(cap));
            let reqs: Vec<SearchRequest> = queries
                .iter()
                .map(|q| {
                    SearchRequest::borrowed(q, 2)
                        .with_batch_budget(&shared)
                        .with_parallelism(parallelism)
                })
                .collect();
            let capped = index.search_batch(&reqs);
            assert!(
                batch_work(&capped.outcomes) <= cap,
                "batch total is a hard ceiling (cap={cap})"
            );
            // Truncation is reported per request, with the pool's reason.
            for (i, outcome) in capped.outcomes.iter().enumerate() {
                assert!(
                    outcome
                        .matches
                        .iter()
                        .all(|m| full.outcomes[i].matches.contains(m)),
                    "pooled result is a subset (request {i})"
                );
                if let Completion::Truncated { reason } = outcome.completion {
                    assert_eq!(reason, TruncationReason::VerificationCap);
                }
            }
            let tripped = capped
                .outcomes
                .iter()
                .filter(|o| !o.completion.is_complete())
                .count();
            if cap >= total {
                assert_eq!(tripped, 0, "a cap covering the batch never trips");
                assert_eq!(
                    batch_work(&capped.outcomes),
                    total,
                    "uncut batch does the full work"
                );
            } else {
                assert!(tripped > 0, "an undersized cap trips some request");
            }
        }
    }
}

#[test]
fn batch_budget_candidate_pool_caps_scans() {
    use passjoin_online::BatchBudget;

    let strings = heavy_corpus(120, 2, 29);
    let queries: Vec<Vec<u8>> = strings.iter().step_by(9).cloned().collect();
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    let unlimited: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::borrowed(q, 2))
        .collect();
    let total: u64 = index
        .search_batch(&unlimited)
        .outcomes
        .iter()
        .map(|o| o.stats.candidates)
        .sum();
    assert!(total > 4, "needs real candidate traffic");

    let cap = total / 2;
    let shared = BatchBudget::new(ExecBudget::new().with_max_candidates(cap));
    let reqs: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::borrowed(q, 2).with_batch_budget(&shared))
        .collect();
    let capped = index.search_batch(&reqs);
    let scanned: u64 = capped.outcomes.iter().map(|o| o.stats.candidates).sum();
    assert!(scanned <= cap, "pooled candidate cap holds batch-wide");
    assert!(capped.outcomes.iter().any(|o| matches!(
        o.completion,
        Completion::Truncated {
            reason: TruncationReason::CandidateCap
        }
    )));
}

#[test]
fn batch_budget_deadline_is_batch_wide() {
    use passjoin_online::BatchBudget;

    let strings = heavy_corpus(80, 1, 31);
    let queries: Vec<Vec<u8>> = strings.iter().step_by(11).cloned().collect();
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    let clock: Arc<dyn TickSource> = Arc::new(ManualTicks::new());
    // Already-expired deadline: every request that would do work trips.
    let shared = BatchBudget::new(ExecBudget::new().with_deadline(Arc::clone(&clock), 0));
    let reqs: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::borrowed(q, 2).with_batch_budget(&shared))
        .collect();
    let response = index.search_batch(&reqs);
    assert_eq!(
        batch_work(&response.outcomes),
        0,
        "no work past the deadline"
    );
    for outcome in &response.outcomes {
        assert_eq!(
            outcome.completion,
            Completion::Truncated {
                reason: TruncationReason::Deadline
            }
        );
        assert!(outcome.matches.is_empty());
    }
}

#[test]
fn batch_budget_composes_with_per_request_budgets() {
    use passjoin_online::BatchBudget;

    let strings = heavy_corpus(150, 2, 37);
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    let (q, full) = strings
        .iter()
        .take(40)
        .map(|s| (s.as_slice(), index.search(&SearchRequest::borrowed(s, 2))))
        .max_by_key(|(_, o)| work(o))
        .expect("non-empty corpus");
    assert!(work(&full) > 2, "needs real work to cut");

    // A roomy pool with a tight per-request budget: the request budget
    // trips (and takes precedence in the reported reason).
    let roomy = BatchBudget::new(ExecBudget::new().with_max_verifications(work(&full) * 10));
    let tight = index.search(
        &SearchRequest::borrowed(q, 2)
            .with_batch_budget(&roomy)
            .with_budget(ExecBudget::new().with_max_verifications(1)),
    );
    assert_eq!(
        tight.completion,
        Completion::Truncated {
            reason: TruncationReason::VerificationCap
        }
    );
    assert!(work(&tight) <= 1);

    // A tight pool with a roomy per-request budget: the pool trips.
    let dry = BatchBudget::new(ExecBudget::new().with_max_verifications(1));
    let pooled = index.search(
        &SearchRequest::borrowed(q, 2)
            .with_batch_budget(&dry)
            .with_budget(ExecBudget::new().with_max_verifications(work(&full) * 10)),
    );
    assert_eq!(
        pooled.completion,
        Completion::Truncated {
            reason: TruncationReason::VerificationCap
        }
    );
    assert!(work(&pooled) <= 1);
}

#[test]
fn pool_truncated_results_never_enter_the_cache() {
    use passjoin_online::BatchBudget;

    let strings = heavy_corpus(100, 2, 41);
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    let (q, full) = strings
        .iter()
        .take(30)
        .map(|s| (s.as_slice(), index.search(&SearchRequest::borrowed(s, 2))))
        .max_by_key(|(_, o)| work(o))
        .expect("non-empty corpus");
    assert!(work(&full) > 1);

    let dry = BatchBudget::new(ExecBudget::new().with_max_verifications(0));
    let truncated = index.search(
        &SearchRequest::borrowed(q, 2)
            .with_batch_budget(&dry)
            .with_cache(CachePolicy::Use),
    );
    assert!(!truncated.completion.is_complete());
    assert_eq!(truncated.cache, CacheOutcome::Miss);

    // The next cached request recomputes: the truncated result was not
    // stored as the full answer.
    let again = index.search(&SearchRequest::borrowed(q, 2).with_cache(CachePolicy::Use));
    assert_eq!(again.cache, CacheOutcome::Miss, "nothing was cached");
    assert_eq!(again.matches, full.matches);
}

#[test]
fn streamed_batches_honour_the_shared_pool() {
    use passjoin_online::BatchBudget;

    let strings = heavy_corpus(120, 2, 43);
    let queries: Vec<Vec<u8>> = strings.iter().step_by(8).cloned().collect();
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    let unlimited: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::borrowed(q, 2))
        .collect();
    let total = batch_work(&index.search_batch(&unlimited).outcomes);
    assert!(total > 4);

    let cap = total / 2;
    let shared = BatchBudget::new(ExecBudget::new().with_max_verifications(cap));
    let reqs: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::borrowed(q, 2).with_batch_budget(&shared))
        .collect();
    let (per_req, response) = collect_batch_streaming(&index, &reqs);
    assert!(
        batch_work(&response.outcomes) <= cap,
        "streamed batch total is capped too"
    );
    assert!(response
        .outcomes
        .iter()
        .any(|o| !o.completion.is_complete()));
    assert_eq!(
        per_req.iter().map(Vec::len).sum::<usize>(),
        response.outcomes.iter().map(|o| o.count).sum::<usize>()
    );
}
