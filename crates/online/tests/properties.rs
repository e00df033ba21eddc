//! The online index must be **exactly** as complete as the batch join:
//! querying every string of a collection at τ must reproduce
//! `PassJoin::self_join`'s pair set, for every τ up to the index's τ_max —
//! on adversarially dense random corpora and on planted near-duplicate
//! corpora from `datagen`. On top of that: results must be independent of
//! insertion order, survive insert → remove → insert churn, and agree
//! across the single, batched, parallel, cached, and snapshot query paths.
//! The join and path properties also run over bytes that share a bucket of
//! the engine's character signature (`c & 63`).

use passjoin::PassJoin;
use passjoin_online::{CachePolicy, Match, OnlineIndex, Parallelism, Queryable, SearchRequest};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sj_common::{SimilarityJoin, StringCollection};

/// Uniform-τ batch through the typed API, with a thread-count hint.
fn batch<S: Queryable>(
    source: &S,
    queries: &[Vec<u8>],
    tau: usize,
    threads: usize,
) -> Vec<Vec<Match>> {
    let reqs: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::borrowed(q, tau).with_parallelism(Parallelism::Threads(threads)))
        .collect();
    source.search_batch(&reqs).into_matches()
}

/// Derives the self-join pair set by querying every string: ids equal input
/// positions (insertion order), so pairs are directly comparable with
/// `PassJoin` output.
fn pairs_via_queries(index: &OnlineIndex, strings: &[Vec<u8>], tau: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for (i, s) in strings.iter().enumerate() {
        for (j, _) in index.matches(s, tau) {
            let i = i as u32;
            if i != j {
                pairs.push(if i < j { (i, j) } else { (j, i) });
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

fn check_matches_batch_join(strings: &[Vec<u8>], tau_max: usize) {
    let index = OnlineIndex::from_strings(strings.iter(), tau_max);
    let collection = StringCollection::new(strings.to_vec());
    for tau in 0..=tau_max {
        let expected = PassJoin::new()
            .self_join(&collection, tau)
            .normalized_pairs();
        let got = pairs_via_queries(&index, strings, tau);
        assert_eq!(
            got,
            expected,
            "τ={tau}/τ_max={tau_max} corpus={:?}",
            strings
                .iter()
                .map(|s| String::from_utf8_lossy(s).into_owned())
                .collect::<Vec<_>>()
        );
    }
    // Distances are exact, and every query at least finds the string itself.
    for (i, s) in strings.iter().enumerate() {
        for (j, d) in index.matches(s, tau_max) {
            assert_eq!(d, editdist::edit_distance(s, &strings[j as usize]));
        }
        assert!(index
            .matches(s, 0)
            .iter()
            .any(|&(j, d)| j == i as u32 && d == 0));
    }
}

fn dense_corpus() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..12),
        0..24,
    )
}

/// A dense corpus whose bytes `a`, `!` and `0xE1` share one signature
/// bucket and `b` has its own, so screening cannot tell them apart.
fn aliasing_corpus() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![Just(b'a'), Just(b'!'), Just(0xE1u8), Just(b'b')],
            0..12,
        ),
        0..24,
    )
}

fn wide_corpus() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(97u8..=122, 0..30), 0..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_batch_join_dense(
        strings in dense_corpus(),
        aliased in aliasing_corpus(),
        tau_max in 1usize..5,
    ) {
        check_matches_batch_join(&strings, tau_max);
        check_matches_batch_join(&aliased, tau_max);
    }

    #[test]
    fn matches_batch_join_wide(strings in wide_corpus(), tau_max in 1usize..6) {
        check_matches_batch_join(&strings, tau_max);
    }

    #[test]
    fn batch_paths_agree_with_single_queries(
        strings in dense_corpus(),
        aliased in aliasing_corpus(),
        tau_max in 1usize..4,
    ) {
        for strings in [strings, aliased] {
            let index = OnlineIndex::from_strings(strings.iter(), tau_max);
            let queries: Vec<Vec<u8>> = strings.to_vec();
            let single: Vec<_> = queries.iter().map(|q| index.matches(q, tau_max)).collect();
            prop_assert_eq!(&batch(&index, &queries, tau_max, 1), &single);
            prop_assert_eq!(&batch(&index, &queries, tau_max, 3), &single);
            prop_assert_eq!(&batch(&index.snapshot(), &queries, tau_max, 2), &single);
        }
    }

    #[test]
    fn external_queries_match_brute_force(
        strings in dense_corpus(),
        queries in proptest::collection::vec(
            proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..16),
            1..16,
        ),
        tau_max in 1usize..5,
    ) {
        // Queries that are *not* corpus members (longer, shorter, or just
        // absent) must agree with brute force at every τ ≤ τ_max — the
        // batch-join comparison above only ever queries corpus strings,
        // which cannot catch window bugs that need |q| ≠ |s| asymmetry.
        let index = OnlineIndex::from_strings(strings.iter(), tau_max);
        for q in &queries {
            for tau in 0..=tau_max {
                let mut expected: Vec<(u32, usize)> = strings
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| {
                        let d = editdist::edit_distance(s, q);
                        (d <= tau).then_some((i as u32, d))
                    })
                    .collect();
                expected.sort_unstable();
                prop_assert_eq!(
                    index.matches(q, tau),
                    expected,
                    "tau={} tau_max={} q={:?}",
                    tau,
                    tau_max,
                    String::from_utf8_lossy(q)
                );
            }
        }
    }

    #[test]
    fn removal_equals_never_inserted(strings in dense_corpus(), tau_max in 1usize..4, seed in proptest::arbitrary::any::<u64>()) {
        // Insert everything, remove a pseudo-random subset: queries must
        // equal an index over the survivors alone (modulo ids).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut full = OnlineIndex::from_strings(strings.iter(), tau_max);
        let mut survivors: Vec<&Vec<u8>> = Vec::new();
        for (i, s) in strings.iter().enumerate() {
            if rng.gen_bool(0.4) {
                prop_assert!(full.remove(i as u32));
            } else {
                survivors.push(s);
            }
        }
        let fresh = OnlineIndex::from_strings(survivors.iter().copied(), tau_max);
        for q in strings.iter() {
            let got: Vec<&[u8]> = full
                .matches(q, tau_max)
                .iter()
                .map(|&(id, _)| full.get(id).unwrap())
                .collect();
            let expected: Vec<&[u8]> = fresh
                .matches(q, tau_max)
                .iter()
                .map(|&(id, _)| fresh.get(id).unwrap())
                .collect();
            prop_assert_eq!(&got, &expected, "query {:?}", q);
        }
    }
}

/// A planted corpus: datagen base strings plus controlled near-duplicates.
fn planted_corpus(n: usize, seed: u64, max_edits: usize) -> Vec<Vec<u8>> {
    let base = datagen::DatasetSpec::new(datagen::DatasetKind::Author, n)
        .with_seed(seed)
        .generate();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
    let mut strings = Vec::with_capacity(2 * n);
    for s in base {
        if rng.gen_bool(0.5) {
            strings.push(datagen::mutate(&s, rng.gen_range(1..=max_edits), &mut rng));
        }
        strings.push(s);
    }
    strings
}

#[test]
fn planted_corpus_matches_batch_join() {
    let strings = planted_corpus(250, 42, 2);
    check_matches_batch_join(&strings, 3);
}

#[test]
fn insert_order_invariance_on_planted_corpus() {
    let strings = planted_corpus(200, 7, 2);
    let tau = 2;
    let reference = OnlineIndex::from_strings(strings.iter(), tau);

    // A deterministic permutation: insert in reversed-then-interleaved
    // order, remembering position ↔ id mappings.
    let mut order: Vec<usize> = (0..strings.len()).collect();
    let mut rng = StdRng::seed_from_u64(99);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut shuffled = OnlineIndex::new(tau);
    let mut id_to_pos = vec![0u32; strings.len()];
    for &pos in &order {
        let id = shuffled.insert(&strings[pos]);
        id_to_pos[id as usize] = pos as u32;
    }

    for q in strings.iter().step_by(3) {
        let expected = reference.matches(q, tau);
        let mut got: Vec<(u32, usize)> = shuffled
            .matches(q, tau)
            .into_iter()
            .map(|(id, d)| (id_to_pos[id as usize], d))
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected, "query {:?}", String::from_utf8_lossy(q));
    }
}

#[test]
fn insert_remove_insert_roundtrip_on_planted_corpus() {
    let strings = planted_corpus(150, 13, 2);
    let tau = 2;
    let mut index = OnlineIndex::from_strings(strings.iter(), tau);
    let reference = OnlineIndex::from_strings(strings.iter(), tau);

    // Remove every other string, then re-insert it (fresh ids): queries
    // must be unchanged up to id renaming — compare by resolved bytes.
    let mut renamed = vec![u32::MAX; strings.len()];
    for (i, s) in strings.iter().enumerate().step_by(2) {
        assert!(index.remove(i as u32));
        renamed[i] = index.insert(s);
    }
    for (i, r) in renamed.iter().enumerate() {
        if *r != u32::MAX {
            assert_eq!(index.get(*r).unwrap(), &strings[i][..]);
            assert_eq!(index.get(i as u32), None);
        }
    }
    assert_eq!(index.len(), strings.len());

    for q in strings.iter().step_by(3) {
        let expected: Vec<(&[u8], usize)> = reference
            .matches(q, tau)
            .iter()
            .map(|&(id, d)| (reference.get(id).unwrap(), d))
            .collect();
        let got: Vec<(&[u8], usize)> = {
            let mut matches = index.matches(q, tau);
            // Translate fresh ids back to original positions to restore
            // the reference's id-order.
            let original = |id: u32| renamed.iter().position(|&r| r == id).map(|p| p as u32);
            matches.sort_by_key(|&(id, _)| original(id).unwrap_or(id));
            matches
                .iter()
                .map(|&(id, d)| (index.get(id).unwrap(), d))
                .collect()
        };
        assert_eq!(got, expected, "query {:?}", String::from_utf8_lossy(q));
    }
}

#[test]
fn cached_and_uncached_agree_under_churn() {
    let strings = planted_corpus(120, 21, 2);
    let mut index = OnlineIndex::from_strings(strings.iter(), 2);
    let mut rng = StdRng::seed_from_u64(5);
    for round in 0..200 {
        let q = &strings[rng.gen_range(0..strings.len())];
        let cached =
            index.search(&SearchRequest::new(q.as_slice(), 2).with_cache(CachePolicy::Use));
        assert_eq!(*cached.matches, index.matches(q, 2), "round {round}");
        if round % 7 == 0 {
            // Mutate: the cache must never serve stale results (checked by
            // the equality above on subsequent rounds).
            let victim = rng.gen_range(0..strings.len()) as u32;
            index.remove(victim);
        }
    }
    let stats = index.cache_stats();
    assert!(
        stats.hits > 0,
        "workload must produce cache hits: {stats:?}"
    );
    assert!(stats.invalidations > 0);
}
