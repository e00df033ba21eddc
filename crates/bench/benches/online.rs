//! Online-subsystem benchmark: build-then-query throughput of
//! `passjoin_online::OnlineIndex` vs. re-running a batch join per query
//! batch (what serving would cost without a standing index).
//!
//! Measurements on an Author corpus with a mutated query mix:
//! `build` (index construction), `query-batch` (sequential and parallel
//! batched queries), `rejoin-baseline` (the same answers via
//! `PassJoin::rs_join` from scratch), and `query-cached` (a repeating
//! query mix through the LRU cache).
//!
//! The `keys` group compares the two segment stores — the owned map of a
//! built index and the sorted runs of the same index reopened with
//! `OnlineIndex::load_direct` — on probe throughput, printing each side's
//! resident index size.
//!
//! The `persist` group measures the restart paths: `save` (snapshot
//! write), `load` (snapshot read, zero-copy arena + posting replay),
//! `load-direct` (buffered read, postings served from the file's sorted-run
//! appendix — no replay), `load-mmap` / `load-instant` (the storage
//! subsystem's `mmap(2)` paths, with eager vs. deferred deep validation),
//! `delta-replay` (base + a churn-generated delta checkpoint chain via
//! `load_chain`), and `rebuild-baseline` (what a restart costs without
//! persistence — `OnlineIndex::from_strings` from the raw corpus). After
//! the timed rows it prints restart-to-first-answer latency for each path
//! (the end-to-end number the storage subsystem exists to shrink) and an
//! instant-load timing at 10× corpus size (the O(1)-in-postings claim,
//! spot-checked).
//!
//! The `sinks` group measures the typed API's result shapes on a
//! match-heavy corpus: `full` (materialize everything), `topk`
//! (bounded-heap retrieval whose verification budget tightens as it
//! fills), `count` (no materialization), and `exists` (a capped count
//! that aborts probing at the first match) — the early-exit claims of
//! `SearchRequest::with_limit`/`count_only`, measured.
//!
//! The `budget` group measures per-request execution caps on the same
//! match-heavy corpus: the full batch unbudgeted vs. decreasing
//! per-query verification caps (`ExecBudget::with_max_verifications`).
//! The criterion shim's min/median/max output is the p50/worst latency
//! story: budgets trade completeness (reported per request as
//! `Completion::Truncated`) for a hard ceiling on per-query work.
//!
//! The `obs` group measures the observability layer: the same
//! match-heavy batch with the metrics registry detached (zero-cost
//! claim) vs. attached, then prints the enabled run's phase attribution
//! (plan/probe/verify/cache vs. total request time).
//!
//! All query groups run through `Queryable::search_batch`, the single
//! execution path behind every surface since the typed-API redesign.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datagen::{DatasetKind, DatasetSpec};
use passjoin::PassJoin;
use passjoin_online::{
    CachePolicy, EngineObs, ExecBudget, OnlineIndex, Parallelism, Queryable, SearchRequest,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sj_common::StringCollection;

const CORPUS_N: usize = 20_000;
const QUERY_N: usize = 1_000;
const TAU: usize = 2;

fn corpus_strings() -> Vec<Vec<u8>> {
    DatasetSpec::new(DatasetKind::Author, CORPUS_N)
        .with_seed(42)
        .generate()
}

/// A serving-shaped query mix: half exact corpus strings, half mutated
/// within TAU edits (so most queries have at least one match).
fn query_mix(strings: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..QUERY_N)
        .map(|_| {
            let s = &strings[rng.gen_range(0..strings.len())];
            if rng.gen_bool(0.5) {
                s.clone()
            } else {
                datagen::mutate(s, rng.gen_range(1..=TAU), &mut rng)
            }
        })
        .collect()
}

fn bench_online(c: &mut Criterion) {
    let strings = corpus_strings();
    let queries = query_mix(&strings);
    let index = OnlineIndex::from_strings(strings.iter(), TAU);

    let mut group = c.benchmark_group("online");
    group.sample_size(10);

    group.throughput(Throughput::Elements(CORPUS_N as u64));
    group.bench_with_input(
        BenchmarkId::new("build", CORPUS_N),
        &strings,
        |b, strings| b.iter(|| OnlineIndex::from_strings(strings.iter(), TAU)),
    );

    group.throughput(Throughput::Elements(QUERY_N as u64));
    let serial_reqs = SearchRequest::uniform(&queries, TAU);
    group.bench_with_input(
        BenchmarkId::new("query-batch", "1-thread"),
        &serial_reqs,
        |b, reqs| b.iter(|| index.search_batch(reqs)),
    );
    let par_reqs: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::new(q.as_slice(), TAU).with_parallelism(Parallelism::Threads(4)))
        .collect();
    group.bench_with_input(
        BenchmarkId::new("query-batch", "4-threads"),
        &par_reqs,
        |b, reqs| b.iter(|| index.search_batch(reqs)),
    );

    // The no-subsystem baseline: answering the same batch by joining the
    // query set against the corpus from scratch each time.
    let r_coll = StringCollection::new(queries.clone());
    let s_coll = StringCollection::new(strings.clone());
    group.bench_with_input(
        BenchmarkId::new("rejoin-baseline", "rs-join"),
        &(&r_coll, &s_coll),
        |b, (r, s)| b.iter(|| PassJoin::new().rs_join(r, s, TAU)),
    );

    // A skewed repeating mix through the cache (100 hot queries).
    let mut rng = StdRng::seed_from_u64(3);
    let hot: Vec<&Vec<u8>> = (0..100)
        .map(|_| &queries[rng.gen_range(0..queries.len())])
        .collect();
    group.bench_with_input(
        BenchmarkId::new("query-cached", "hot-100"),
        &hot,
        |b, hot| {
            let cached = OnlineIndex::from_strings(strings.iter(), TAU);
            let reqs: Vec<SearchRequest> = hot
                .iter()
                .map(|q| SearchRequest::new(q.as_slice(), TAU).with_cache(CachePolicy::Use))
                .collect();
            let mut k = 0usize;
            b.iter(|| {
                k = (k + 1) % reqs.len();
                cached.search(&reqs[k])
            })
        },
    );

    group.finish();
}

/// Segment-store comparison: the same corpus probed through the owned map
/// of a built index and through the sorted runs of that index saved and
/// reopened with `OnlineIndex::load_direct`.
///
/// * `build` — insertion throughput of the owned map (the direct store is
///   never built: the snapshot buffer is the index);
/// * `probe` — the serving mix (half exact, half mutated queries): mostly
///   *verification*-bound;
/// * `probe-miss` — matchless queries: nothing survives to verification,
///   so this isolates the probe machinery itself (a hash lookup per probe
///   vs. a binary search of the run table).
///
/// Resident index sizes are printed so the README's memory numbers come
/// from the same run.
fn bench_keys(c: &mut Criterion) {
    let strings = corpus_strings();
    let queries = query_mix(&strings);
    // Matchless probes: same length profile as the corpus, disjoint
    // alphabet — every candidate list lookup misses.
    let mut rng = StdRng::seed_from_u64(11);
    let miss_queries: Vec<Vec<u8>> = (0..QUERY_N)
        .map(|_| {
            let len = strings[rng.gen_range(0..strings.len())].len();
            (0..len).map(|_| rng.gen_range(b'0'..=b'9')).collect()
        })
        .collect();

    let mut group = c.benchmark_group("keys");
    group.sample_size(10);

    group.throughput(Throughput::Elements(CORPUS_N as u64));
    group.bench_with_input(
        BenchmarkId::new("build", "owned"),
        &strings,
        |b, strings| b.iter(|| OnlineIndex::from_strings(strings.iter(), TAU)),
    );

    let built = OnlineIndex::from_strings(strings.iter(), TAU);
    let path =
        std::env::temp_dir().join(format!("passjoin-bench-keys-{}.snap", std::process::id()));
    built.save(&path).expect("snapshot save");
    let direct = OnlineIndex::load_direct(&path).expect("direct load");
    let _ = std::fs::remove_file(&path);

    group.throughput(Throughput::Elements(QUERY_N as u64));
    let hit_reqs = SearchRequest::uniform(&queries, TAU);
    let miss_reqs = SearchRequest::uniform(&miss_queries, TAU);
    for index in [built, direct] {
        let store = index.key_backend().name();
        let stats = index.stats();
        eprintln!(
            "keys/{store}: {} segment entries, resident index ~{} KB",
            stats.segment_entries,
            stats.resident_bytes / 1024,
        );
        group.bench_with_input(BenchmarkId::new("probe", store), &hit_reqs, |b, reqs| {
            b.iter(|| index.search_batch(reqs))
        });
        group.bench_with_input(
            BenchmarkId::new("probe-miss", store),
            &miss_reqs,
            |b, reqs| b.iter(|| index.search_batch(reqs)),
        );
    }

    group.finish();
}

/// The match-heavy serving corpus shared by the `sinks` and `budget`
/// groups: ~9 length-diverse near-duplicates per base string, queried
/// with 200 base strings (every query has tens of matches).
fn heavy_corpus_and_queries() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let base = DatasetSpec::new(DatasetKind::Author, 2_000)
        .with_seed(17)
        .generate();
    let mut rng = StdRng::seed_from_u64(23);
    let mut strings = Vec::with_capacity(base.len() * 10);
    for s in &base {
        for _ in 0..9 {
            strings.push(datagen::mutate(s, rng.gen_range(1..=TAU), &mut rng));
        }
        strings.push(s.clone());
    }
    let queries: Vec<Vec<u8>> = base.iter().step_by(10).take(200).cloned().collect();
    (strings, queries)
}

/// Result-shape comparison on a match-heavy corpus (every query has tens
/// of matches): what `limit`/`count_only` buy over full materialization.
///
/// * `full` — the classic collect-everything query;
/// * `topk` — the 10 closest matches on a bounded heap: once full, the
///   heap's worst distance tightens verification budgets and skips
///   whole probe lengths;
/// * `count` — same probing as `full` but no result vector;
/// * `exists` — `count_only` capped at 1: probing aborts at the first
///   verified match, the strongest early exit.
fn bench_sinks(c: &mut Criterion) {
    let (strings, queries) = heavy_corpus_and_queries();
    let index = OnlineIndex::from_strings(strings.iter(), TAU);

    let shapes: [(&str, Vec<SearchRequest>); 4] = [
        ("full", SearchRequest::uniform(&queries, TAU)),
        (
            "topk-10",
            SearchRequest::uniform(&queries, TAU)
                .into_iter()
                .map(|r| r.with_limit(10))
                .collect(),
        ),
        (
            "count",
            SearchRequest::uniform(&queries, TAU)
                .into_iter()
                .map(|r| r.count_only())
                .collect(),
        ),
        (
            "exists",
            SearchRequest::uniform(&queries, TAU)
                .into_iter()
                .map(|r| r.count_only().with_limit(1))
                .collect(),
        ),
    ];

    // The early exit is also *observable*, not just fast: print the
    // verification totals each shape actually ran.
    for (name, reqs) in &shapes {
        let totals = index.search_batch(reqs).totals();
        eprintln!("sinks/{name}: {} matches, {}", totals.matches, totals.stats);
    }

    let mut group = c.benchmark_group("sinks");
    group.sample_size(10);
    group.throughput(Throughput::Elements(queries.len() as u64));
    for (name, reqs) in &shapes {
        group.bench_with_input(BenchmarkId::new(*name, queries.len()), reqs, |b, reqs| {
            b.iter(|| index.search_batch(reqs))
        });
    }
    group.finish();
}

/// Verification-cap latency control (`ExecBudget`) on the match-heavy
/// corpus: the same 200-query batch unbudgeted and at decreasing
/// per-query verification caps. The shim's min/median/max is the
/// p50/worst story — caps bound the *worst* query without touching the
/// cheap ones. Truncation counts are printed so the trade is explicit.
fn bench_budget(c: &mut Criterion) {
    let (strings, queries) = heavy_corpus_and_queries();
    let index = OnlineIndex::from_strings(strings.iter(), TAU);

    let caps: [(&str, Option<u64>); 4] = [
        ("full", None),
        ("cap-1024", Some(1024)),
        ("cap-256", Some(256)),
        ("cap-64", Some(64)),
    ];
    let shapes: Vec<(&str, Vec<SearchRequest>)> = caps
        .iter()
        .map(|&(name, cap)| {
            let reqs = SearchRequest::uniform(&queries, TAU)
                .into_iter()
                .map(|r| match cap {
                    Some(n) => r.with_budget(ExecBudget::new().with_max_verifications(n)),
                    None => r,
                })
                .collect();
            (name, reqs)
        })
        .collect();

    // Budgets trade completeness for latency — print what each cap
    // actually skipped and found so the bench numbers read honestly.
    for (name, reqs) in &shapes {
        let totals = index.search_batch(reqs).totals();
        eprintln!(
            "budget/{name}: {} matches, {} truncated / {} queries, {}",
            totals.matches,
            totals.truncated,
            reqs.len(),
            totals.stats,
        );
    }

    let mut group = c.benchmark_group("budget");
    group.sample_size(10);
    group.throughput(Throughput::Elements(queries.len() as u64));
    for (name, reqs) in &shapes {
        group.bench_with_input(BenchmarkId::new(*name, queries.len()), reqs, |b, reqs| {
            b.iter(|| index.search_batch(reqs))
        });
    }
    group.finish();
}

/// Observability overhead: the match-heavy `sinks` batch through an index
/// with no metrics attached (the zero-cost claim — the engine takes the
/// uninstrumented path) vs. one carrying a live `EngineObs` (phase
/// timers, counters, trace hook all active). The two sides should be
/// within noise of each other; the enabled side's phase attribution is
/// printed afterwards so the "where did the time go" story comes from
/// the same run as the overhead number.
fn bench_obs(c: &mut Criterion) {
    let (strings, queries) = heavy_corpus_and_queries();
    let plain = OnlineIndex::from_strings(strings.iter(), TAU);
    let mut observed = OnlineIndex::from_strings(strings.iter(), TAU);
    let obs = Arc::new(EngineObs::new());
    observed.set_observability(Some(Arc::clone(&obs)));
    let reqs = SearchRequest::uniform(&queries, TAU);

    let mut group = c.benchmark_group("obs");
    group.sample_size(10);
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("disabled", queries.len()),
        &reqs,
        |b, reqs| b.iter(|| plain.search_batch(reqs)),
    );
    group.bench_with_input(
        BenchmarkId::new("enabled", queries.len()),
        &reqs,
        |b, reqs| b.iter(|| observed.search_batch(reqs)),
    );
    group.finish();

    let reg = obs.registry();
    let phase = |name: &str| reg.histogram(name).sum();
    let attributed = phase("passjoin_phase_plan_ns")
        + phase("passjoin_phase_probe_ns")
        + phase("passjoin_phase_verify_ns")
        + phase("passjoin_phase_cache_ns");
    let total = phase("passjoin_request_ns");
    eprintln!(
        "obs/enabled: {} requests, {attributed} of {total} ns attributed to phases ({:.1}%)",
        reg.counter("passjoin_requests_total").get(),
        100.0 * attributed as f64 / total.max(1) as f64,
    );
}

fn bench_persist(c: &mut Criterion) {
    let strings = corpus_strings();
    let index = OnlineIndex::from_strings(strings.iter(), TAU);
    let snapshot = index.snapshot();
    let path =
        std::env::temp_dir().join(format!("passjoin-bench-online-{}.snap", std::process::id()));

    let mut group = c.benchmark_group("persist");
    group.sample_size(10);
    group.throughput(Throughput::Elements(CORPUS_N as u64));

    group.bench_with_input(BenchmarkId::new("save", CORPUS_N), &snapshot, |b, snap| {
        b.iter(|| snap.save(&path).expect("snapshot save"))
    });

    snapshot.save(&path).expect("snapshot save");
    group.bench_with_input(BenchmarkId::new("load", CORPUS_N), &path, |b, path| {
        b.iter(|| OnlineIndex::load(path).expect("snapshot load"))
    });

    // The zero-rebuild lane: postings are served straight from the file's
    // sorted-run appendix, so load skips the per-posting replay entirely.
    group.bench_with_input(
        BenchmarkId::new("load-direct", CORPUS_N),
        &path,
        |b, path| b.iter(|| OnlineIndex::load_direct(path).expect("direct load")),
    );

    // The mmap lanes: `load-mmap` still deep-validates every section up
    // front; `load-instant` defers that to first access, so its cost is
    // O(sections), not O(bytes) — the instant-restart row.
    group.bench_with_input(BenchmarkId::new("load-mmap", CORPUS_N), &path, |b, path| {
        b.iter(|| passjoin_store::open_mapped(path).expect("mapped load"))
    });
    group.bench_with_input(
        BenchmarkId::new("load-instant", CORPUS_N),
        &path,
        |b, path| b.iter(|| passjoin_store::open_instant(path).expect("instant load")),
    );

    // Restart with pending mutations: replay a churn-generated delta
    // checkpoint on top of the base (the crash-recovery path).
    let store = passjoin_store::CheckpointedIndex::open(&path, passjoin_store::OpenOptions::new())
        .expect("open base for churn");
    for op in datagen::churn_ops(&strings, 1_000, 99) {
        match op {
            datagen::ChurnOp::Insert(s) => {
                store.insert(&s);
            }
            datagen::ChurnOp::Remove(id) => {
                store.remove(id);
            }
        }
    }
    store.checkpoint().expect("churn delta checkpoint");
    drop(store);
    group.bench_with_input(
        BenchmarkId::new("delta-replay", "1000-ops"),
        &path,
        |b, path| b.iter(|| passjoin_store::load_chain(path).expect("chain load")),
    );

    // The no-persistence restart baseline: rebuild the index from the raw
    // corpus (re-partition + re-insert every string).
    group.bench_with_input(
        BenchmarkId::new("rebuild-baseline", CORPUS_N),
        &strings,
        |b, strings| b.iter(|| OnlineIndex::from_strings(strings.iter(), TAU)),
    );

    group.finish();

    // Restart-to-first-answer: open the index, answer one query, wall
    // clock for the pair — the end-to-end latency a restarting server
    // adds to its first request. Best of 5 to shed cold-cache noise.
    let probe = SearchRequest::new(strings[0].as_slice(), TAU);
    let first_answer = |name: &str, open: &mut dyn FnMut() -> OnlineIndex| {
        let mut best = u128::MAX;
        for _ in 0..5 {
            let start = std::time::Instant::now();
            let index = open();
            std::hint::black_box(index.search(&probe));
            best = best.min(start.elapsed().as_nanos());
        }
        eprintln!(
            "persist/first-query {name}: {:.3} ms",
            best as f64 / 1_000_000.0
        );
    };
    first_answer("rebuild", &mut || {
        OnlineIndex::from_strings(strings.iter(), TAU)
    });
    first_answer("load", &mut || OnlineIndex::load(&path).expect("load"));
    first_answer("load-direct", &mut || {
        OnlineIndex::load_direct(&path).expect("direct load")
    });
    first_answer("load-mmap", &mut || {
        passjoin_store::open_mapped(&path).expect("mapped load")
    });
    first_answer("load-instant", &mut || {
        passjoin_store::open_instant(&path).expect("instant load")
    });
    first_answer("delta-replay", &mut || {
        passjoin_store::load_chain(&path).expect("chain load").0
    });

    // Scaling spot-check: instant load against a 10× corpus. The direct
    // appendix keeps open cost in section headers, not postings, so the
    // two timings should stay within the same small constant.
    let big: Vec<Vec<u8>> = DatasetSpec::new(DatasetKind::Author, CORPUS_N * 10)
        .with_seed(43)
        .generate();
    let big_path = std::env::temp_dir().join(format!(
        "passjoin-bench-online-{}-10x.snap",
        std::process::id()
    ));
    OnlineIndex::from_strings(big.iter(), TAU)
        .save(&big_path)
        .expect("10x snapshot save");
    let instant_min = |path: &std::path::PathBuf| {
        let mut best = u128::MAX;
        for _ in 0..10 {
            let start = std::time::Instant::now();
            std::hint::black_box(passjoin_store::open_instant(path).expect("instant load"));
            best = best.min(start.elapsed().as_nanos());
        }
        best as f64 / 1_000_000.0
    };
    eprintln!(
        "persist/instant-load scaling: {CORPUS_N} strings {:.3} ms, {} strings {:.3} ms",
        instant_min(&path),
        CORPUS_N * 10,
        instant_min(&big_path),
    );

    let _ = std::fs::remove_file(&big_path);
    for delta in passjoin_store::find_chain(&path) {
        let _ = std::fs::remove_file(delta);
    }
    let _ = std::fs::remove_file(&path);
}

criterion_group!(
    benches,
    bench_online,
    bench_keys,
    bench_persist,
    bench_sinks,
    bench_budget,
    bench_obs
);
criterion_main!(benches);
