//! Differential harness for the two segment stores: an index whose segment
//! lane probes a loaded snapshot's sorted runs ([`KeyBackend::Direct`],
//! from [`OnlineIndex::load`]) must be **byte-identical** to the
//! built index's owned map ([`KeyBackend::Owned`]) on every query surface —
//! same ids, same distances, same order — for every τ ≤ τ_max, on random,
//! planted, and churned corpora, through the single, batched, parallel,
//! cached, streamed, and snapshot query paths, and across save/load. A
//! second probe structure is a classic source of silent divergence; this
//! suite is the contract that keeps the two stores one index.

mod common;

use common::{reopen_direct, strip_appendix};
use passjoin_online::{
    CachePolicy, CollectSink, KeyBackend, Match, MatchSink, OnlineIndex, Parallelism, Queryable,
    SearchRequest,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The same collection on both stores: built, and reopened direct.
fn both(strings: &[Vec<u8>], tau_max: usize) -> (OnlineIndex, OnlineIndex) {
    let owned = OnlineIndex::builder(tau_max).build_from(strings.iter());
    let direct = reopen_direct(&owned);
    assert_eq!(owned.key_backend(), KeyBackend::Owned);
    (owned, direct)
}

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

/// Streams one plain request and returns its emissions in id order.
fn streamed(source: &OnlineIndex, query: &[u8], tau: usize) -> Vec<Match> {
    let mut emitted = Vec::new();
    source.search_streaming(
        &SearchRequest::borrowed(query, tau),
        &mut CollectSink::new(&mut emitted),
    );
    emitted.sort_unstable();
    emitted
}

/// A uniform-τ streamed batch, one sink per request, emissions id-sorted.
fn streamed_batch(source: &OnlineIndex, queries: &[Vec<u8>], tau: usize) -> Vec<Vec<Match>> {
    let reqs = SearchRequest::uniform(queries, tau);
    let mut outs: Vec<Vec<Match>> = vec![Vec::new(); queries.len()];
    {
        let mut sinks: Vec<CollectSink<'_>> = outs.iter_mut().map(CollectSink::new).collect();
        let mut refs: Vec<&mut (dyn MatchSink + Send)> = sinks
            .iter_mut()
            .map(|s| s as &mut (dyn MatchSink + Send))
            .collect();
        source.search_batch_streaming(&reqs, &mut refs);
    }
    for out in &mut outs {
        out.sort_unstable();
    }
    outs
}

/// Asserts every query surface agrees between the two indices for every
/// τ ≤ τ_max over `queries`.
fn assert_all_paths_agree(owned: &OnlineIndex, direct: &OnlineIndex, queries: &[Vec<u8>]) {
    let tau_max = owned.tau_max();
    assert_eq!(tau_max, direct.tau_max());
    assert_eq!(owned.len(), direct.len());
    for tau in 0..=tau_max {
        for q in queries {
            let expected = owned.matches(q, tau);
            assert_eq!(
                direct.matches(q, tau),
                expected,
                "single query {:?} at tau={tau}",
                String::from_utf8_lossy(q)
            );
            assert_eq!(streamed(direct, q, tau), expected, "streamed at tau={tau}");
        }
        assert_eq!(
            batch(owned, queries, tau, 1),
            batch(direct, queries, tau, 1),
            "batch at tau={tau}"
        );
        assert_eq!(
            batch(owned, queries, tau, 3),
            batch(direct, queries, tau, 3),
            "parallel batch at tau={tau}"
        );
        assert_eq!(
            batch(&owned.snapshot(), queries, tau, 1),
            batch(&direct.snapshot(), queries, tau, 1),
            "snapshot batch at tau={tau}"
        );
        assert_eq!(
            streamed_batch(owned, queries, tau),
            streamed_batch(direct, queries, tau),
            "streamed batch at tau={tau}"
        );
    }
}

fn dense_corpus() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..12),
        0..24,
    )
}

fn wide_corpus() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(97u8..=122, 0..30), 0..16)
}

fn off_corpus_queries() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..16),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn backends_agree_on_dense_corpora(
        strings in dense_corpus(),
        extra in off_corpus_queries(),
        tau_max in 1usize..5,
    ) {
        let (owned, direct) = both(&strings, tau_max);
        let mut queries = strings.clone();
        queries.extend(extra);
        assert_all_paths_agree(&owned, &direct, &queries);
        prop_assert_eq!(direct.key_backend(), KeyBackend::Direct, "queries never promote");
    }

    #[test]
    fn backends_agree_on_wide_corpora(strings in wide_corpus(), tau_max in 1usize..6) {
        let (owned, direct) = both(&strings, tau_max);
        assert_all_paths_agree(&owned, &direct, &strings);
    }

    #[test]
    fn backends_agree_under_churn(
        strings in dense_corpus(),
        tau_max in 1usize..4,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        // Mirror an insert → remove → insert history on both: ids evolve
        // identically, so results must stay byte-identical. The direct
        // index rebuilds its owned map on the first mutation, so each
        // round also reopens the churned state direct — tombstones, holes
        // in the short lane, and emptied keys all land in the sorted runs.
        let (mut owned, mut direct) = both(&strings, tau_max);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live: Vec<u32> = (0..strings.len() as u32).collect();
        for round in 0..3 {
            let mut i = 0;
            while i < live.len() {
                if rng.gen_bool(0.4) {
                    let id = live.swap_remove(i);
                    prop_assert_eq!(owned.remove(id), direct.remove(id), "round {}", round);
                } else {
                    i += 1;
                }
            }
            for s in strings.iter().filter(|_| rng.gen_bool(0.5)) {
                let a = owned.insert(s);
                let b = direct.insert(s);
                prop_assert_eq!(a, b);
                live.push(a);
            }
            assert_all_paths_agree(&owned, &direct, &strings);
            assert_all_paths_agree(&owned, &reopen_direct(&owned), &strings);
        }
    }

    #[test]
    fn cached_paths_agree(strings in dense_corpus(), tau_max in 1usize..4) {
        let (mut owned, mut direct) = both(&strings, tau_max);
        let cached = |q: &Vec<u8>| SearchRequest::new(q.as_slice(), tau_max)
            .with_cache(CachePolicy::Use);
        for q in strings.iter().chain(strings.iter()) {
            // Second pass hits the cache on both sides.
            let (o, d) = (owned.search(&cached(q)), direct.search(&cached(q)));
            prop_assert_eq!(o.cache, d.cache, "cache outcomes must agree");
            prop_assert_eq!(o.matches, d.matches);
        }
        if !strings.is_empty() {
            // Mutate, then re-query: both caches must invalidate alike.
            prop_assert_eq!(owned.remove(0), direct.remove(0));
            for q in &strings {
                prop_assert_eq!(
                    owned.search(&cached(q)).matches,
                    direct.search(&cached(q)).matches
                );
            }
        }
    }

    #[test]
    fn backends_agree_across_save_load(strings in dense_corpus(), tau_max in 1usize..4) {
        // Both stores save the same bytes, and every reload of them — on
        // the direct-probe appendix, or stripped of it so section 4 is
        // decoded into the owned map — answers alike.
        let (owned, direct) = both(&strings, tau_max);
        let dir = std::env::temp_dir();
        let tag = std::process::id();
        let o_path = dir.join(format!("passjoin-diff-owned-{tag}-{:p}.snap", &owned));
        let d_path = dir.join(format!("passjoin-diff-direct-{tag}-{:p}.snap", &owned));
        let s_path = dir.join(format!("passjoin-diff-stripped-{tag}-{:p}.snap", &owned));
        owned.save(&o_path).expect("save owned");
        direct.save(&d_path).expect("save direct");
        let (o_bytes, d_bytes) = (std::fs::read(&o_path).unwrap(), std::fs::read(&d_path).unwrap());
        std::fs::write(&s_path, strip_appendix(&d_bytes)).unwrap();
        let o_loaded = OnlineIndex::load(&o_path).expect("load owned save");
        let d_loaded = OnlineIndex::load(&d_path).expect("load direct save");
        let s_loaded = OnlineIndex::load(&s_path).expect("load stripped direct save");
        for path in [&o_path, &d_path, &s_path] {
            let _ = std::fs::remove_file(path);
        }
        prop_assert_eq!(o_bytes, d_bytes, "stores save identical bytes");
        prop_assert_eq!(o_loaded.key_backend(), KeyBackend::Direct);
        prop_assert_eq!(d_loaded.key_backend(), KeyBackend::Direct);
        prop_assert_eq!(s_loaded.key_backend(), KeyBackend::Owned);
        assert_all_paths_agree(&s_loaded, &o_loaded, &strings);
        assert_all_paths_agree(&owned, &d_loaded, &strings);
        assert_all_paths_agree(&s_loaded, &direct, &strings);
    }
}

/// A planted corpus: datagen base strings plus controlled near-duplicates
/// (the same shape `properties.rs` uses against the batch join).
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
fn backends_agree_on_planted_corpus() {
    let strings = planted_corpus(250, 42, 2);
    let (owned, direct) = both(&strings, 3);
    let queries: Vec<Vec<u8>> = strings.iter().step_by(5).cloned().collect();
    assert_all_paths_agree(&owned, &direct, &queries);
}

#[test]
fn backends_agree_after_full_churn_cycle() {
    // Insert → remove everything → re-insert on a direct-reopened index:
    // the first removal rebuilds the owned map out of the sorted runs,
    // the last one empties it, and results must then match a fresh build.
    let strings = planted_corpus(150, 13, 2);
    let (_, mut direct) = both(&strings, 2);
    for id in 0..strings.len() as u32 {
        assert!(direct.remove(id));
        assert_eq!(direct.key_backend(), KeyBackend::Owned);
    }
    assert!(direct.is_empty());
    let mut renamed = Vec::with_capacity(strings.len());
    for s in &strings {
        renamed.push(direct.insert(s));
    }
    let owned = OnlineIndex::from_strings(strings.iter(), 2);
    for q in strings.iter().step_by(3) {
        let expected: Vec<(u32, usize)> = owned
            .matches(q, 2)
            .into_iter()
            .map(|(id, d)| (renamed[id as usize], d))
            .collect();
        assert_eq!(direct.matches(q, 2), expected);
    }
}
