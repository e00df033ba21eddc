//! Differential harness for the typed query API: every surface of the
//! [`SearchRequest`]/[`Queryable`] engine — single requests, uniform and
//! mixed batches, parallel batches, snapshots, and the `matches`
//! convenience — must agree **byte for byte**, on both segment stores, for
//! every τ ≤ τ_max, on random and planted corpora. The shapes must be
//! consistent with each other too: a mixed-τ batch equals a per-query
//! loop, a top-k result equals the truncated `(distance, id)`-sorted full
//! result, and a count equals the full result's length — with the early
//! exits those shapes promise observable in the per-request statistics.

mod common;

use common::reopen_direct;
use passjoin_online::{
    CacheOutcome, KeyBackend, Match, OnlineIndex, Parallelism, Queryable, SearchRequest,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The collection on both segment stores: built, and reopened direct.
fn stores(strings: &[Vec<u8>], tau_max: usize) -> [OnlineIndex; 2] {
    let built = OnlineIndex::from_strings(strings.iter(), tau_max);
    let direct = reopen_direct(&built);
    [built, direct]
}

/// The k smallest matches of `full` by `(distance, id)` — the top-k
/// reference semantics.
fn truncate_by_distance(full: &[Match], k: usize) -> Vec<Match> {
    let mut scored: Vec<(usize, u32)> = full.iter().map(|&(id, d)| (d, id)).collect();
    scored.sort_unstable();
    scored.into_iter().take(k).map(|(d, id)| (id, d)).collect()
}

/// Every single-request surface against the plain typed search.
fn assert_single_paths_agree(index: &OnlineIndex, queries: &[Vec<u8>]) {
    let snapshot = index.snapshot();
    for tau in 0..=index.tau_max() {
        for q in queries {
            let outcome = index.search(&SearchRequest::new(q.as_slice(), tau));
            assert_eq!(outcome.count, outcome.matches.len());
            assert_eq!(outcome.cache, CacheOutcome::Bypass);
            assert!(
                outcome.matches.windows(2).all(|w| w[0].0 < w[1].0),
                "plain results ascend by id"
            );
            assert_eq!(index.matches(q, tau), *outcome.matches, "matches vs search");
            assert_eq!(
                *snapshot.search(&SearchRequest::borrowed(q, tau)).matches,
                *outcome.matches,
                "snapshot::search"
            );
            assert_eq!(
                snapshot.matches(q, tau),
                *outcome.matches,
                "snapshot::matches"
            );
        }
    }
}

/// Every batch surface against a loop of single searches, at every τ.
fn assert_batch_paths_agree(index: &OnlineIndex, queries: &[Vec<u8>]) {
    let snapshot = index.snapshot();
    for tau in 0..=index.tau_max() {
        let singles: Vec<Vec<Match>> = queries.iter().map(|q| index.matches(q, tau)).collect();
        let reqs = SearchRequest::uniform(queries, tau);
        assert_eq!(
            index.search_batch(&reqs).into_matches(),
            singles,
            "uniform batch at tau={tau}"
        );
        let par_reqs: Vec<SearchRequest> = queries
            .iter()
            .map(|q| {
                SearchRequest::new(q.as_slice(), tau).with_parallelism(Parallelism::Threads(3))
            })
            .collect();
        assert_eq!(
            index.search_batch(&par_reqs).into_matches(),
            singles,
            "parallel batch at tau={tau}"
        );
        assert_eq!(
            snapshot.search_batch(&reqs).into_matches(),
            singles,
            "snapshot batch at tau={tau}"
        );
    }
}

/// Mixed-τ batches must equal a per-query loop of single searches, and
/// shaped requests must equal their reference semantics derived from the
/// full result.
fn assert_shapes_agree(index: &OnlineIndex, queries: &[Vec<u8>], seed: u64) {
    let tau_max = index.tau_max();
    let mut rng = StdRng::seed_from_u64(seed);
    let mixed: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::new(q.as_slice(), rng.gen_range(0..=tau_max)))
        .collect();
    let batched = index.search_batch(&mixed);
    for (req, outcome) in mixed.iter().zip(&batched.outcomes) {
        assert_eq!(
            outcome,
            &index.search(req),
            "mixed-τ batch entry ≡ single search"
        );
        let full = &outcome.matches;
        for k in [0usize, 1, 2, full.len(), full.len() + 3] {
            let topk = index.search(&req.clone().with_limit(k));
            assert_eq!(
                *topk.matches,
                truncate_by_distance(full, k),
                "top-{k} ≡ truncated sorted full result"
            );
            let capped = index.search(&req.clone().count_only().with_limit(k));
            assert_eq!(capped.count, full.len().min(k), "capped count");
            assert!(capped.matches.is_empty());
        }
        let counted = index.search(&req.clone().count_only());
        assert_eq!(counted.count, full.len(), "count ≡ full length");
        assert!(counted.matches.is_empty());
    }
}

fn dense_corpus() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..12),
        0..24,
    )
}

fn off_corpus_queries() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..16),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn request_paths_agree_on_both_stores(
        strings in dense_corpus(),
        extra in off_corpus_queries(),
        tau_max in 1usize..4,
    ) {
        let mut queries = strings.clone();
        queries.extend(extra);
        for index in stores(&strings, tau_max) {
            assert_single_paths_agree(&index, &queries);
            assert_batch_paths_agree(&index, &queries);
        }
    }

    #[test]
    fn shaped_requests_equal_reference_semantics(
        strings in dense_corpus(),
        extra in off_corpus_queries(),
        tau_max in 1usize..4,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut queries = strings.clone();
        queries.extend(extra);
        for index in stores(&strings, tau_max) {
            assert_shapes_agree(&index, &queries, seed);
        }
    }
}

/// A planted corpus with many near-duplicates per base string — the
/// match-heavy shape where top-k / capped-count early exits pay off.
fn heavy_corpus(n: usize, dups: usize, seed: u64) -> Vec<Vec<u8>> {
    let base = datagen::DatasetSpec::new(datagen::DatasetKind::Author, n)
        .with_seed(seed)
        .generate();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
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
fn planted_corpus_agrees_across_all_paths() {
    let strings = heavy_corpus(150, 1, 42);
    let queries: Vec<Vec<u8>> = strings.iter().step_by(4).cloned().collect();
    for index in stores(&strings, 3) {
        assert_single_paths_agree(&index, &queries);
        assert_batch_paths_agree(&index, &queries);
        assert_shapes_agree(&index, &queries, 7);
    }
}

#[test]
fn limit_and_count_observably_avoid_work() {
    // A match-heavy neighbourhood with *length diversity*: deletion
    // variants (len−1), substitution variants (len), and insertion
    // variants (len+1) of one base string. A top-1 search finds the exact
    // match while scanning length len, tightens its bound to 0, and must
    // then skip the insertion-variant lengths without verifying a single
    // candidate there.
    let base = b"partition based similarity join".to_vec();
    let mut strings: Vec<Vec<u8>> = Vec::new();
    for i in 0..10 {
        let mut del = base.clone();
        del.remove(i * 2);
        strings.push(del); // length len−1, distance 1
        let mut sub = base.clone();
        sub[i * 3] = b'#';
        strings.push(sub); // length len, distance 1
        let mut ins = base.clone();
        ins.insert(i * 2, b'+');
        strings.push(ins); // length len+1, distance 1
    }
    strings.push(base.clone()); // the exact match, distance 0
    let index = OnlineIndex::from_strings(strings.iter(), 2);
    let q = base.as_slice();

    let full = index.search(&SearchRequest::new(q, 2));
    assert!(
        full.count >= 31,
        "corpus must be match-heavy: {}",
        full.count
    );

    let top1 = index.search(&SearchRequest::new(q, 2).with_limit(1));
    assert_eq!(top1.matches.len(), 1);
    assert!(
        top1.stats.verifications < full.stats.verifications,
        "top-1 must verify less than the full scan: {} vs {}",
        top1.stats.verifications,
        full.stats.verifications
    );

    let exists = index.search(&SearchRequest::new(q, 2).count_only().with_limit(1));
    assert_eq!(exists.count, 1);
    assert!(
        exists.stats.candidates < full.stats.candidates,
        "a saturated count must stop scanning candidates: {} vs {}",
        exists.stats.candidates,
        full.stats.candidates
    );

    // And the uncapped count still visits everything but materializes
    // nothing.
    let counted = index.search(&SearchRequest::new(q, 2).count_only());
    assert_eq!(counted.count, full.count);
    assert_eq!(counted.stats, full.stats, "same work, no result vector");
}

#[test]
fn queryable_is_object_safe_over_both_sources() {
    let mut index = OnlineIndex::new(2);
    index.insert(b"object safety");
    index.insert(b"object safetty");
    let snapshot = index.snapshot();

    // One binding, either source — what the CLI does.
    for source in [&index as &dyn Queryable, &snapshot as &dyn Queryable] {
        assert_eq!(source.tau_max(), 2);
        assert_eq!(source.len(), 2);
        assert_eq!(source.key_backend(), KeyBackend::Owned);
        let outcome = source.search(&SearchRequest::new(b"object safety", 1));
        assert_eq!(*outcome.matches, vec![(0, 0), (1, 1)]);
        let batch = source.search_batch(&SearchRequest::uniform(&[b"object safety"], 1));
        assert_eq!(batch.outcomes.len(), 1);
        assert_eq!(batch.totals().matches, 2);
    }
}

#[test]
fn mixed_tau_batch_groups_by_tau_and_length() {
    // Same query text at different τ in one batch: grouping must never
    // bleed one request's threshold into another's results.
    let strings = heavy_corpus(80, 2, 3);
    let index = OnlineIndex::from_strings(strings.iter(), 3);
    let q = strings[0].as_slice();
    let reqs: Vec<SearchRequest> = (0..=3).map(|tau| SearchRequest::new(q, tau)).collect();
    let response = index.search_batch(&reqs);
    for (tau, outcome) in response.outcomes.iter().enumerate() {
        assert_eq!(*outcome.matches, index.matches(q, tau), "tau={tau}");
    }
    // Counts grow with τ (weakly), so any cross-contamination shows.
    for pair in response.outcomes.windows(2) {
        assert!(pair[0].count <= pair[1].count);
    }
}
