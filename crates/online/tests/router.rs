//! Differential suite for the sharded router: a [`ShardedIndex`] must be
//! observationally identical to one [`OnlineIndex`] over the same corpus.
//!
//! Pinned here, for shard counts {1, 2, 7} and both partitioning policies,
//! against a single index on both segment stores (built, and reopened with
//! `load`):
//!
//! 1. **Byte-identical answers** — for every request shape (full, top-k,
//!    count-only, streaming) and every `τ ≤ τ_max`, the router's matches,
//!    counts, and completions equal the single index's, and — for plain
//!    unbudgeted requests — so do the summed `ExecStats` (shards
//!    partition the candidate space, so the work totals are exactly the
//!    single index's).
//! 2. **Mutations agree** — interleaved inserts and removes leave the
//!    router and the single index answering identically (global ids are
//!    assigned in the same dense order).
//! 3. **Budgets hold across shards** — a per-request cap is split across
//!    the fan-out and the merged work never exceeds it; a batch-level
//!    pool is shared atomically and the batch-wide total stays ≤ cap.
//! 4. **Edge cases degrade, never hang** — zero shards, empty shards,
//!    and queries whose length band holds no strings all produce
//!    `Complete` empty outcomes, including on the streaming path (where
//!    a saturated or dropped caller must abort, not deadlock).
//! 5. **Persistence round-trips** — `save_sharded`/`load_sharded`
//!    restores a router that answers byte-identically, including routers
//!    saved by the retired interned backend.

mod common;

use std::sync::Arc;

use passjoin_online::{
    BatchBudget, CollectSink, CountSink, ExecBudget, ExecSource, KeyBackend, Match, MatchSink,
    OnlineIndex, PersistError, QueryOutcome, Queryable, SearchRequest, SearchResponse, ShardBy,
    ShardedIndex,
};
use passjoin_persist::{SnapshotFile, SnapshotWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TAU_MAX: usize = 2;
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];
const POLICIES: [ShardBy; 2] = [ShardBy::Len, ShardBy::Hash];

fn corpus(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(0..24);
            (0..len).map(|_| rng.gen_range(b'a'..=b'f')).collect()
        })
        .collect()
}

fn single(strings: &[Vec<u8>]) -> OnlineIndex {
    OnlineIndex::from_strings(strings.iter(), TAU_MAX)
}

/// The single-index reference on both segment stores: built, and reopened
/// with `load`.
fn single_stores(strings: &[Vec<u8>]) -> [OnlineIndex; 2] {
    let built = single(strings);
    let direct = common::reopen_direct(&built);
    [built, direct]
}

fn sharded(strings: &[Vec<u8>], shards: usize, shard_by: ShardBy) -> ShardedIndex {
    ShardedIndex::builder(TAU_MAX)
        .shards(shards)
        .shard_by(shard_by)
        .build_from(strings.iter())
}

/// Streams one request, returning the emissions and the outcome.
fn stream(source: &dyn Queryable, req: &SearchRequest) -> (Vec<Match>, QueryOutcome) {
    let mut emitted = Vec::new();
    let outcome = {
        let mut sink = CollectSink::new(&mut emitted);
        source.search_streaming(req, &mut sink)
    };
    (emitted, outcome)
}

/// Contract 1: every shape, every τ, byte-identical to the single index.
fn assert_router_equals_single(
    index: &OnlineIndex,
    router: &ShardedIndex,
    queries: &[Vec<u8>],
    label: &str,
) {
    assert_eq!(router.len(), index.len(), "{label}: corpus size");
    for tau in 0..=TAU_MAX {
        for q in queries {
            let req = SearchRequest::borrowed(q, tau);
            let expected = index.search(&req);
            let got = router.search(&req);
            assert_eq!(*got.matches, *expected.matches, "{label}: full τ={tau}");
            assert_eq!(got.count, expected.count, "{label}: full count");
            assert!(
                got.completion.is_complete(),
                "{label}: unbudgeted completes"
            );
            assert_eq!(
                got.stats, expected.stats,
                "{label}: shards partition the work exactly (τ={tau})"
            );

            for k in [0usize, 1, 3, expected.count, expected.count + 2] {
                let kreq = req.clone().with_limit(k);
                let topk = router.search(&kreq);
                assert_eq!(
                    *topk.matches,
                    *index.search(&kreq).matches,
                    "{label}: top-{k} τ={tau}"
                );
            }

            let creq = req.clone().count_only();
            assert_eq!(
                router.search(&creq).count,
                index.search(&creq).count,
                "{label}: count τ={tau}"
            );

            // Streaming: multi-shard emission order is nondeterministic,
            // so compare as sets (sorted); the top-k stream is a flush of
            // the merged heap and stays exactly ordered.
            let (mut emitted, outcome) = stream(router, &req);
            emitted.sort_unstable();
            assert_eq!(emitted, *expected.matches, "{label}: stream τ={tau}");
            assert_eq!(outcome.count, expected.count);
            assert!(
                outcome.matches.is_empty(),
                "stream leaves matches in the sink"
            );
            let (emitted_k, _) = stream(router, &req.clone().with_limit(3));
            assert_eq!(
                emitted_k,
                *index.search(&req.clone().with_limit(3)).matches,
                "{label}: top-k stream is (d, id)-ordered"
            );
            let (emitted_c, outcome_c) = stream(router, &creq);
            assert!(emitted_c.is_empty(), "{label}: count stream emits nothing");
            assert_eq!(outcome_c.count, expected.count);
        }
    }

    // One mixed batch through search_batch, against the buffered truth.
    let reqs: Vec<SearchRequest> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| match i % 3 {
            0 => SearchRequest::borrowed(q, i % (TAU_MAX + 1)),
            1 => SearchRequest::borrowed(q, TAU_MAX).with_limit(2),
            _ => SearchRequest::borrowed(q, 1).count_only(),
        })
        .collect();
    let expected = index.search_batch(&reqs);
    let got = router.search_batch(&reqs);
    assert_eq!(got.outcomes.len(), expected.outcomes.len());
    for (i, (g, e)) in got.outcomes.iter().zip(&expected.outcomes).enumerate() {
        assert_eq!(*g.matches, *e.matches, "{label}: batch request {i}");
        assert_eq!(g.count, e.count, "{label}: batch count {i}");
    }
}

#[test]
fn router_equals_single_index_everywhere() {
    let strings = corpus(300, 41);
    let queries = corpus(40, 42);
    for index in single_stores(&strings) {
        let store = index.key_backend();
        for shards in SHARD_COUNTS {
            for policy in POLICIES {
                let router = sharded(&strings, shards, policy);
                let label = format!("{store:?}/{shards} shards/{policy:?}");
                assert_router_equals_single(&index, &router, &queries, &label);
            }
        }
    }
}

/// Contract 2: interleaved inserts and removes keep the two in lockstep
/// (the router assigns the same dense global ids).
#[test]
fn mutations_keep_router_and_single_in_lockstep() {
    let strings = corpus(120, 51);
    let extra = corpus(40, 52);
    let queries = corpus(20, 53);
    for shards in SHARD_COUNTS {
        let mut index = single(&strings);
        let mut router = sharded(&strings, shards, ShardBy::Len);
        for (i, s) in extra.iter().enumerate() {
            let (a, b) = (index.insert(s), router.insert(s));
            assert_eq!(a, b, "dense ids stay aligned");
            if i % 3 == 0 {
                let victim = (i * 7 % strings.len()) as u32;
                assert_eq!(index.remove(victim), router.remove(victim));
            }
        }
        for q in &queries {
            assert_eq!(
                router.matches(q, TAU_MAX),
                index.matches(q, TAU_MAX),
                "{shards} shards after mutations"
            );
        }
    }
}

/// Contract 3a: a per-request verification cap is split across the
/// fan-out; the merged work never exceeds it and a trip is reported.
#[test]
fn per_request_budgets_hold_across_shards() {
    let strings = corpus(300, 61);
    let queries = corpus(15, 62);
    let index = single(&strings);
    for shards in SHARD_COUNTS {
        let router = sharded(&strings, shards, ShardBy::Len);
        for q in &queries {
            let full = index.search(&SearchRequest::borrowed(q, TAU_MAX));
            let total = full.stats.verifications + full.stats.short_checked;
            for cap in [0, 1, total, total + 8] {
                let req = SearchRequest::borrowed(q, TAU_MAX)
                    .with_budget(ExecBudget::new().with_max_verifications(cap));
                let capped = router.search(&req);
                assert!(
                    capped.stats.verifications + capped.stats.short_checked <= cap,
                    "{shards} shards: cap {cap} is a hard ceiling"
                );
                assert!(
                    capped.matches.iter().all(|m| full.matches.contains(m)),
                    "{shards} shards: budgeted ⊆ unbudgeted"
                );
                if cap >= total {
                    // A cap covering the whole corpus's work covers every
                    // shard's share (splitting only rounds down by < k).
                    if capped.completion.is_complete() {
                        assert_eq!(capped.matches, full.matches, "untripped ⇒ exact");
                    }
                }
            }
        }
    }
}

/// Contract 3b: a batch-level pool is shared atomically across shards —
/// the batch-wide total stays within the cap.
#[test]
fn batch_pool_totals_stay_capped_across_shards() {
    let strings = corpus(300, 63);
    let queries = corpus(30, 64);
    let index = single(&strings);
    let unlimited: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::borrowed(q, TAU_MAX))
        .collect();
    let total: u64 = index
        .search_batch(&unlimited)
        .outcomes
        .iter()
        .map(|o| o.stats.verifications + o.stats.short_checked)
        .sum();
    assert!(total > 8, "corpus generates real work");

    for shards in SHARD_COUNTS {
        let router = sharded(&strings, shards, ShardBy::Len);
        let cap = total / 2;
        let pool = BatchBudget::new(ExecBudget::new().with_max_verifications(cap));
        let reqs: Vec<SearchRequest> = queries
            .iter()
            .map(|q| SearchRequest::borrowed(q, TAU_MAX).with_batch_budget(&pool))
            .collect();
        let response = router.search_batch(&reqs);
        let spent: u64 = response
            .outcomes
            .iter()
            .map(|o| o.stats.verifications + o.stats.short_checked)
            .sum();
        assert!(
            spent <= cap,
            "{shards} shards: pool total {spent} ≤ cap {cap}"
        );
        assert!(
            response
                .outcomes
                .iter()
                .any(|o| !o.completion.is_complete()),
            "{shards} shards: half the work must truncate someone"
        );
    }
}

/// Contract 4: a zero-shard router answers everything with `Complete`
/// empty outcomes — buffered and streaming — instead of panicking.
#[test]
fn zero_shards_answer_empty_and_complete() {
    let router = ShardedIndex::builder(TAU_MAX).shards(0).build();
    assert_eq!(router.shard_count(), 0);
    assert_eq!(router.len(), 0);
    assert!(router.is_empty());

    let req = SearchRequest::new(b"anything", TAU_MAX);
    let outcome = router.search(&req);
    assert!(outcome.matches.is_empty());
    assert_eq!(outcome.count, 0);
    assert!(outcome.completion.is_complete());

    for shaped in [req.clone().with_limit(5), req.clone().count_only()] {
        let o = router.search(&shaped);
        assert_eq!(o.count, 0);
        assert!(o.completion.is_complete());
    }

    let (emitted, streamed) = stream(&router, &req);
    assert!(emitted.is_empty(), "zero shards stream nothing");
    assert!(streamed.completion.is_complete());

    let response = router.search_batch(&[req.clone(), req.clone().with_limit(1)]);
    assert!(response.outcomes.iter().all(|o| o.completion.is_complete()));
}

/// Contract 4: shards whose band holds no strings stay inert — the
/// skewed corpus leaves most bands empty, and answers still match.
#[test]
fn empty_shards_and_empty_bands_degrade_gracefully() {
    // Every string has length 7: under 7-way length banding, one band
    // holds the whole corpus and six are empty.
    let strings: Vec<Vec<u8>> = (0..50).map(|i| format!("str{i:04}").into_bytes()).collect();
    let index = single(&strings);
    let router = sharded(&strings, 7, ShardBy::Len);
    assert_eq!(router.len(), index.len());

    // In-band queries agree; far-out-of-band queries are empty/Complete.
    for q in [
        &b"str0001"[..],
        b"str9999",
        b"x",
        b"a very long query far outside every band",
    ] {
        let req = SearchRequest::borrowed(q, TAU_MAX);
        let expected = index.search(&req);
        let got = router.search(&req);
        assert_eq!(*got.matches, *expected.matches);
        assert!(got.completion.is_complete());
        let (mut emitted, _) = stream(&router, &req);
        emitted.sort_unstable();
        assert_eq!(emitted, *expected.matches);
    }

    // An empty router built for a length distribution it never saw.
    let empty = ShardedIndex::builder(TAU_MAX).shards(3).build();
    assert!(empty.is_empty());
    let (emitted, outcome) = stream(&empty, &SearchRequest::new(b"ghost", 1));
    assert!(emitted.is_empty());
    assert!(outcome.completion.is_complete());
}

/// Contract 4: a caller sink that saturates mid-stream aborts the
/// fan-out — bounded emissions, no deadlock on the channel.
#[test]
fn saturated_stream_callers_abort_the_fanout() {
    let strings = corpus(400, 71);
    let router = sharded(&strings, 7, ShardBy::Len);
    // Find a query with plenty of matches.
    let q = strings
        .iter()
        .max_by_key(|s| router.matches(s, TAU_MAX).len())
        .unwrap();
    let full = router.matches(q, TAU_MAX).len();
    assert!(full >= 2, "need a match-heavy query");

    let mut sink = CountSink::capped(1);
    let outcome = router.search_streaming(&SearchRequest::borrowed(q, TAU_MAX), &mut sink);
    assert!(sink.count() >= 1, "the cap admits one push");
    assert!(
        sink.count() < full || full == 1,
        "saturation stopped the stream early"
    );
    assert!(outcome.matches.is_empty());
}

/// Contract 1, dyn form: a router over boxed snapshot shards (no band
/// information, full fan-out) still answers byte-identically.
#[test]
fn dyn_shards_from_snapshots_agree() {
    let strings = corpus(150, 81);
    let queries = corpus(20, 82);
    let index = single(&strings);

    // Partition by hand: even ids left, odd ids right.
    let mut left = OnlineIndex::builder(TAU_MAX).build();
    let mut right = OnlineIndex::builder(TAU_MAX).build();
    let (mut left_ids, mut right_ids) = (Vec::new(), Vec::new());
    for (i, s) in strings.iter().enumerate() {
        if i % 2 == 0 {
            left.insert(s);
            left_ids.push(i as u32);
        } else {
            right.insert(s);
            right_ids.push(i as u32);
        }
    }
    let router = ShardedIndex::from_dyn_shards(
        vec![Box::new(left.snapshot()), Box::new(right.snapshot())],
        vec![left_ids, right_ids],
        TAU_MAX,
    );
    assert_eq!(router.len(), index.len());
    for q in &queries {
        for tau in 0..=TAU_MAX {
            assert_eq!(router.matches(q, tau), index.matches(q, tau));
        }
    }
}

/// A dyn shard whose engine panics on every search, beside good ones.
struct Boom(OnlineIndex);

impl Queryable for Boom {
    fn exec_source(&self) -> Option<ExecSource<'_>> {
        self.0.exec_source()
    }

    fn search_batch(&self, _: &[SearchRequest]) -> SearchResponse {
        panic!("shard boom")
    }

    fn search_streaming(&self, _: &SearchRequest, _: &mut dyn MatchSink) -> QueryOutcome {
        panic!("shard boom")
    }
}

/// A router over one good and one panicking dyn shard (full fan-out, so
/// each query runs on a worker thread per shard).
fn good_and_boom() -> ShardedIndex {
    let good = single(&corpus(20, 91));
    let ids = (0..good.len() as u32).collect();
    ShardedIndex::from_dyn_shards(
        vec![Box::new(good), Box::new(Boom(OnlineIndex::new(TAU_MAX)))],
        vec![ids, Vec::new()],
        TAU_MAX,
    )
}

/// A shard worker's panic reaches the caller with its own message.
#[test]
#[should_panic(expected = "shard boom")]
fn a_shard_panic_keeps_its_message_in_a_batch() {
    good_and_boom().search_batch(&[SearchRequest::borrowed(b"abc", 1)]);
}

#[test]
#[should_panic(expected = "shard boom")]
fn a_shard_panic_keeps_its_message_in_a_stream() {
    stream(&good_and_boom(), &SearchRequest::borrowed(b"abc", 1));
}

/// Contract 5: save/load round-trips, for both policies, and the
/// restored router keeps answering byte-identically — and stays mutable.
#[test]
fn sharded_persistence_round_trips() {
    let dir = std::env::temp_dir().join(format!("passjoin-router-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let strings = corpus(200, 91);
    let queries = corpus(20, 92);
    let mut reference = single(&strings);
    reference.remove(3);
    let references = [common::reopen_direct(&reference), reference];
    for policy in POLICIES {
        let mut router = sharded(&strings, 4, policy);
        router.remove(3);
        let path = dir.join(format!("router-{policy:?}.pj"));
        let bytes = router.save_sharded(&path).unwrap();
        assert!(bytes > 0);

        let mut restored = ShardedIndex::load_sharded(&path).unwrap();
        assert_eq!(restored.shard_count(), 4);
        assert_eq!(restored.shard_by(), policy);
        assert_eq!(restored.len(), router.len());
        assert_eq!(restored.epoch(), router.epoch());
        for q in &queries {
            let expected = router.matches(q, TAU_MAX);
            assert_eq!(
                restored.matches(q, TAU_MAX),
                expected,
                "{policy:?} round-trip"
            );
            for reference in &references {
                assert_eq!(
                    reference.matches(q, TAU_MAX),
                    expected,
                    "{policy:?} against the {:?} single index",
                    reference.key_backend()
                );
            }
        }
        // The restored router accepts further mutations.
        let id = restored.insert(b"post-restore insert");
        assert_eq!(id, router.insert(b"post-restore insert"));
        assert_eq!(
            restored.matches(b"post-restore insert", 0),
            router.matches(b"post-restore insert", 0)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The router's metrics rollup: `passjoin_router_requests_total` counts
/// router requests, the fan-out counter equals the engine's
/// `passjoin_requests_total` (every dispatched sub-request executes on
/// its shard), and the per-shard counters sum to the fan-out.
#[test]
fn router_metrics_roll_up() {
    use passjoin_online::Registry;

    let registry = Arc::new(Registry::new());
    let strings = corpus(200, 95);
    let queries = corpus(25, 96);
    let router = ShardedIndex::builder(TAU_MAX)
        .shards(4)
        .observability(Arc::clone(&registry))
        .build_from(strings.iter());

    for q in &queries {
        router.search(&SearchRequest::borrowed(q, TAU_MAX));
    }
    let reqs: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::borrowed(q, 1))
        .collect();
    router.search_batch(&reqs);

    let get = |name: &str| registry.counter(name).get();
    assert_eq!(
        get("passjoin_router_requests_total"),
        2 * queries.len() as u64
    );
    assert_eq!(
        get("passjoin_router_fanout_total"),
        get("passjoin_requests_total"),
        "every dispatched sub-request executes on its shard"
    );
    let per_shard: u64 = (0..4)
        .map(|i| get(&format!("passjoin_router_shard{i}_requests_total")))
        .sum();
    assert_eq!(per_shard, get("passjoin_router_fanout_total"));
}

/// The router mirrors the engine's τ ceiling contract.
#[test]
#[should_panic(expected = "exceeds the index's τ_max")]
fn router_rejects_tau_above_ceiling() {
    let router = ShardedIndex::builder(1).shards(2).build_from(["a", "b"]);
    router.search(&SearchRequest::new(b"a", 2));
}

/// The META backend code of a router manifest (its fourth field).
fn manifest_backend_code(path: &std::path::Path) -> u64 {
    let file = SnapshotFile::open(path).unwrap();
    let meta = file.section(16).unwrap();
    u64::from_le_bytes(meta[24..32].try_into().unwrap())
}

/// A golden two-shard router written by the retired interned backend:
/// manifest code 1 over shard snapshots carrying the interned section.
/// It must keep loading, answer byte-identically to an owned build of the
/// same strings, survive a first mutation, and re-save as owned — while
/// manifests with unknown backend codes are still rejected.
#[test]
fn interned_router_snapshots_still_load() {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let golden = golden.join("v3-interned-router.snap");
    assert_eq!(manifest_backend_code(&golden), 1, "fixture is interned");
    // The fixture's collection: ten strings, id 2 removed.
    let strings: Vec<Vec<u8>> = [
        "pass-join",
        "pass-joins",
        "snapshot",
        "ab",
        "",
        "partition-based",
        "similarity joins",
        "vldb",
        "pvldb",
        "similarity join",
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    let mut fresh = sharded(&strings, 2, ShardBy::Len);
    fresh.remove(2);
    let mut single = single(&strings);
    single.remove(2);

    let mut loaded = ShardedIndex::load_sharded(&golden).expect("interned router must load");
    assert_eq!(loaded.shard_count(), 2);
    // The v3 shards carry the direct-probe appendix, so they open on it.
    assert_eq!(loaded.key_backend(), KeyBackend::Direct);
    assert_eq!(loaded.len(), fresh.len());
    for i in 0..2 {
        assert_eq!(loaded.shard_band(i), fresh.shard_band(i));
    }
    let mut queries = strings.clone();
    queries.push(b"pass".to_vec());
    let agree = |loaded: &ShardedIndex, fresh: &ShardedIndex, single: &OnlineIndex| {
        for q in &queries {
            for tau in 0..=TAU_MAX {
                let req = SearchRequest::borrowed(q, tau);
                let expected = fresh.search(&req);
                assert_eq!(loaded.search(&req), expected, "query {q:?} at tau={tau}");
                assert_eq!(*expected.matches, single.matches(q, tau));
            }
        }
    };
    agree(&loaded, &fresh, &single);

    // The first mutation lands like it does on the owned build.
    for router in [&mut loaded, &mut fresh] {
        assert_eq!(router.insert(b"similarity jion"), 10);
        assert!(router.remove(6));
    }
    assert_eq!(single.insert(b"similarity jion"), 10);
    assert!(single.remove(6));
    agree(&loaded, &fresh, &single);

    // Re-saving writes owned manifests and owned shards.
    let dir = std::env::temp_dir().join(format!("passjoin-router-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let resaved = dir.join("resaved.pj");
    loaded.save_sharded(&resaved).unwrap();
    assert_eq!(manifest_backend_code(&resaved), 0);
    for i in 0..2 {
        let shard = SnapshotFile::open(&dir.join(format!("resaved.pj.shard{i}"))).unwrap();
        let meta = shard.section(1).unwrap();
        assert_eq!(u64::from_le_bytes(meta[48..56].try_into().unwrap()), 0);
    }
    agree(
        &ShardedIndex::load_sharded(&resaved).unwrap(),
        &fresh,
        &single,
    );

    // An unknown backend code in an otherwise valid manifest is rejected.
    let original = SnapshotFile::open(&golden).unwrap();
    let mut meta = original.section(16).unwrap().to_vec();
    meta[24..32].copy_from_slice(&7u64.to_le_bytes());
    let mut writer = SnapshotWriter::new();
    writer
        .section(16, meta)
        .section(17, original.section(17).unwrap().to_vec())
        .section(18, original.section(18).unwrap().to_vec());
    let bogus = dir.join("bogus.pj");
    writer.save(&bogus).unwrap();
    for i in 0..2 {
        let mut shard = golden.as_os_str().to_owned();
        shard.push(format!(".shard{i}"));
        std::fs::copy(&shard, dir.join(format!("bogus.pj.shard{i}"))).unwrap();
    }
    assert!(matches!(
        ShardedIndex::load_sharded(&bogus),
        Err(PersistError::Corrupt { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}
