//! Differential suite: the prefix-filter index must agree exactly with
//! brute-force all-pairs overlap on every metric × threshold ×
//! tokenizer mode, and the dedup pipeline's clusters must equal the
//! brute-force transitive closure of the match relation.
//!
//! Both sides score a pair through the *same* division-free
//! `SetMetric::accepts` test, so agreement is exact equality — no
//! epsilon tolerance anywhere.

use datagen::{DatasetKind, DatasetSpec};
use passjoin_setsim::{
    sorted_overlap, DedupPipeline, SetMetric, SetQuery, SetSimilarityIndex, TokenMode, UnionFind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const METRICS: [SetMetric; 3] = [SetMetric::Jaccard, SetMetric::Cosine, SetMetric::Overlap];
const THRESHOLDS: [f64; 6] = [0.3, 0.5, 0.7, 0.8, 0.9, 1.0];
const MODES: [TokenMode; 3] = [
    TokenMode::Words,
    TokenMode::Grams { q: 2 },
    TokenMode::Grams { q: 3 },
];

/// A corpus of random word-ish records plus planted near-duplicates.
fn corpus(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(n);
    while out.len() < n {
        if !out.is_empty() && rng.gen_bool(0.3) {
            // Plant a near-duplicate: copy an earlier record, mutate a
            // couple of characters.
            let base = out[rng.gen_range(0..out.len())].clone();
            let mut dup = base;
            for _ in 0..rng.gen_range(1..=2usize) {
                if dup.is_empty() {
                    break;
                }
                let pos = rng.gen_range(0..dup.len());
                dup[pos] = b'a' + rng.gen_range(0..26) as u8;
            }
            out.push(dup);
        } else {
            // Fresh record: 2–6 short words over a small alphabet so
            // overlaps actually occur.
            let words = rng.gen_range(2..=6usize);
            let mut rec = Vec::new();
            for w in 0..words {
                if w > 0 {
                    rec.push(b' ');
                }
                let len = rng.gen_range(2..=5usize);
                for _ in 0..len {
                    rec.push(b'a' + rng.gen_range(0..8) as u8);
                }
            }
            out.push(rec);
        }
    }
    out
}

/// Brute force: every record whose token set passes `accepts` against
/// the query's, with its scaled distance — sorted ascending by id.
fn brute_matches(
    records: &[Vec<u8>],
    mode: TokenMode,
    query: &[u8],
    metric: SetMetric,
    t: f64,
) -> Vec<(u32, usize)> {
    let q = mode.token_set(query);
    let mut out = Vec::new();
    for (id, r) in records.iter().enumerate() {
        let y = mode.token_set(r);
        let o = sorted_overlap(&q, &y);
        if metric.accepts(t, o, q.len(), y.len()) {
            out.push((id as u32, metric.scaled_distance(o, q.len(), y.len())));
        }
    }
    out
}

#[test]
fn index_matches_brute_force_on_planted_corpus() {
    let records = corpus(120, 42);
    for mode in MODES {
        let index = SetSimilarityIndex::build_from(mode, &records);
        for metric in METRICS {
            for t in THRESHOLDS {
                for (qid, qtext) in records.iter().enumerate().step_by(7) {
                    let expected = brute_matches(&records, mode, qtext, metric, t);
                    let got = index
                        .search(&SetQuery::new(qtext, metric, t))
                        .into_matches();
                    assert_eq!(
                        got, expected,
                        "{metric:?} t={t} {mode:?} query #{qid} diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn incremental_insert_matches_build_from() {
    // First-seen token order (incremental) differs from rarest-first
    // (build_from); the answers must not.
    let records = corpus(80, 7);
    for mode in [TokenMode::Words, TokenMode::Grams { q: 2 }] {
        let built = SetSimilarityIndex::build_from(mode, &records);
        let mut grown = SetSimilarityIndex::new(mode);
        for r in &records {
            grown.insert(r);
        }
        for metric in METRICS {
            for t in [0.5, 0.8] {
                for qtext in records.iter().step_by(5) {
                    let a = built
                        .search(&SetQuery::new(qtext, metric, t))
                        .into_matches();
                    let b = grown
                        .search(&SetQuery::new(qtext, metric, t))
                        .into_matches();
                    assert_eq!(a, b, "{metric:?} t={t} {mode:?} build orders diverged");
                }
            }
        }
    }
}

#[test]
fn remove_drops_matches_exactly() {
    let records = corpus(60, 13);
    let mode = TokenMode::Grams { q: 2 };
    let mut index = SetSimilarityIndex::build_from(mode, &records);
    // Remove every third record; brute force over the survivors.
    let removed: Vec<u32> = (0..records.len() as u32).step_by(3).collect();
    for &id in &removed {
        assert!(index.remove(id));
        assert!(!index.remove(id), "double remove must report false");
    }
    let survivors: Vec<(u32, &Vec<u8>)> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u32, r))
        .filter(|(i, _)| !removed.contains(i))
        .collect();
    for metric in METRICS {
        for qtext in records.iter().step_by(4) {
            let q = mode.token_set(qtext);
            let mut expected = Vec::new();
            for &(id, r) in &survivors {
                let y = mode.token_set(r);
                let o = sorted_overlap(&q, &y);
                if metric.accepts(0.6, o, q.len(), y.len()) {
                    expected.push((id, metric.scaled_distance(o, q.len(), y.len())));
                }
            }
            let got = index
                .search(&SetQuery::new(qtext, metric, 0.6))
                .into_matches();
            assert_eq!(got, expected, "{metric:?} after removals diverged");
        }
    }
}

#[test]
fn topk_and_count_shapes_agree_with_full_results() {
    let records = corpus(100, 99);
    let mode = TokenMode::Grams { q: 2 };
    let index = SetSimilarityIndex::build_from(mode, &records);
    for metric in METRICS {
        for t in [0.3, 0.5, 0.8] {
            for qtext in records.iter().step_by(9) {
                let full = brute_matches(&records, mode, qtext, metric, t);
                // Count-only reports the full count; capped count clips.
                let counted = index.search(&SetQuery::new(qtext, metric, t).count_only());
                assert_eq!(counted.count, full.len());
                assert!(counted.matches.is_empty());
                let capped =
                    index.search(&SetQuery::new(qtext, metric, t).with_limit(2).count_only());
                assert_eq!(capped.count, full.len().min(2));
                // Top-k: ascending (dist, id), exactly the k best of the
                // full result under the same ordering.
                for k in [1, 3, 10] {
                    let got = index
                        .search(&SetQuery::new(qtext, metric, t).with_limit(k))
                        .into_matches();
                    let mut best: Vec<(usize, u32)> = full.iter().map(|&(id, d)| (d, id)).collect();
                    best.sort_unstable();
                    best.truncate(k);
                    let want: Vec<(u32, usize)> = best.into_iter().map(|(d, id)| (id, d)).collect();
                    assert_eq!(got, want, "{metric:?} t={t} k={k} top-k diverged");
                }
            }
        }
    }
}

#[test]
fn budget_truncation_is_reported() {
    use passjoin_online::{Completion, ExecBudget};
    let records = corpus(100, 5);
    let index = SetSimilarityIndex::build_from(TokenMode::Grams { q: 2 }, &records);
    let q = SetQuery::new(&records[0], SetMetric::Jaccard, 0.3)
        .with_budget(ExecBudget::default().with_max_verifications(0));
    let outcome = index.search(&q);
    assert!(matches!(outcome.completion, Completion::Truncated { .. }));
    assert_eq!(outcome.stats.verifications, 0);
    // An unlimited run on the same query is complete and finds matches.
    let outcome = index.search(&SetQuery::new(&records[0], SetMetric::Jaccard, 0.3));
    assert!(outcome.completion.is_complete());
    assert!(outcome.count >= 1, "a record must match itself at t=0.3");
}

#[test]
fn dedup_clusters_equal_brute_force_transitive_closure() {
    for (mode, metric, t) in [
        (TokenMode::Words, SetMetric::Jaccard, 0.5),
        (TokenMode::Grams { q: 2 }, SetMetric::Jaccard, 0.8),
        (TokenMode::Grams { q: 2 }, SetMetric::Cosine, 0.8),
        (TokenMode::Grams { q: 3 }, SetMetric::Overlap, 0.9),
    ] {
        let records = corpus(150, 21);
        let mut pipeline = DedupPipeline::new(mode, metric, t);
        for r in &records {
            pipeline.push(r);
        }
        // Oracle: union every accepting pair (i < j), then compare the
        // multi-member components.
        let sets: Vec<Vec<&[u8]>> = records.iter().map(|r| mode.token_set(r)).collect();
        let mut uf = UnionFind::new(records.len());
        for i in 0..records.len() {
            for j in i + 1..records.len() {
                let o = sorted_overlap(&sets[i], &sets[j]);
                if metric.accepts(t, o, sets[i].len(), sets[j].len()) {
                    uf.union(i as u32, j as u32);
                }
            }
        }
        assert_eq!(
            pipeline.clusters(),
            uf.clusters(),
            "{metric:?} t={t} {mode:?} clusters diverged"
        );
        assert_eq!(pipeline.requests(), records.len() as u64);
        // The prefix filter must do real filtering: strictly fewer
        // verifications than the all-pairs oracle ran comparisons.
        let all_pairs = (records.len() * (records.len() - 1) / 2) as u64;
        assert!(
            pipeline.stats().verifications < all_pairs,
            "{metric:?} t={t} {mode:?}: {} verifications ≥ {} brute pairs",
            pipeline.stats().verifications,
            all_pairs
        );
    }
}

#[test]
fn observability_reconciles_with_summed_stats() {
    use passjoin_setsim::SetSimObs;
    use std::sync::Arc;

    let records = corpus(80, 3);
    let obs = Arc::new(SetSimObs::new());
    let mut index = SetSimilarityIndex::build_from(TokenMode::Grams { q: 2 }, &records);
    index.set_observability(Some(obs.clone()));
    let mut total = passjoin_online::ExecStats::default();
    let mut requests = 0u64;
    for qtext in records.iter().step_by(3) {
        let outcome = index.search(&SetQuery::new(qtext, SetMetric::Jaccard, 0.7));
        total.merge(&outcome.stats);
        requests += 1;
    }
    let dump = obs.render_prometheus();
    let value = |name: &str| -> u64 {
        dump.lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing from dump"))
    };
    assert_eq!(value("passjoin_setsim_requests_total"), requests);
    assert_eq!(value("passjoin_setsim_candidates_total"), total.candidates);
    assert_eq!(
        value("passjoin_setsim_verifications_total"),
        total.verifications
    );
    assert_eq!(
        value("passjoin_setsim_matches_total"),
        total.segment_matches
    );
    assert_eq!(value("passjoin_setsim_index_records"), records.len() as u64);
}

#[test]
fn search_streaming_agrees_with_buffered_search() {
    use passjoin::sink::{CollectSink, CountSink, TopKSink};

    let records = corpus(120, 17);
    let index = SetSimilarityIndex::build_from(TokenMode::Grams { q: 2 }, &records);
    let mut capped_runs = 0;
    for metric in METRICS {
        for t in THRESHOLDS {
            for qtext in records.iter().step_by(7) {
                let query = SetQuery::new(qtext, metric, t);
                let buffered = index.search(&query).into_matches();

                // A plain stream delivers the buffered (id, dist) set.
                let mut streamed = Vec::new();
                let outcome = index.search_streaming(&query, &mut CollectSink::new(&mut streamed));
                streamed.sort_unstable();
                assert_eq!(streamed, buffered, "{metric:?} t={t} stream diverged");
                assert_eq!(outcome.count, buffered.len());
                assert!(outcome.matches.is_empty() && outcome.completion.is_complete());

                // A top-k sink steers the stream to the with_limit answer.
                for k in [1, 3] {
                    let mut top = TopKSink::new(k);
                    index.search_streaming(&query, &mut top);
                    let limited = index.search(&query.clone().with_limit(k)).into_matches();
                    assert_eq!(top.into_matches(), limited, "{metric:?} t={t} k={k}");
                }

                // A sink saturated by its first match stops the scan there.
                if buffered.len() >= 2 {
                    let mut first = CountSink::capped(1);
                    let outcome = index.search_streaming(&query, &mut first);
                    assert_eq!(first.count(), 1);
                    assert_eq!(
                        outcome.stats.segment_matches, 1,
                        "{metric:?} t={t}: scan went on past a saturated sink"
                    );
                    capped_runs += 1;
                }
            }
        }
    }
    assert!(capped_runs > 0, "no query had two matches to stop between");
}

/// Long records: AuthorTitle strings (~100 bytes, ~100 q-grams each)
/// with planted near-duplicates at up to six edits, so pairs land on
/// both sides of every threshold.
fn long_corpus(n: usize, seed: u64) -> Vec<Vec<u8>> {
    DatasetSpec::new(DatasetKind::AuthorTitle, n)
        .with_seed(seed)
        .with_duplicate_rate(0.4)
        .with_max_planted_edits(6)
        .generate()
}

/// External queries: near-duplicates of corpus records carrying bytes
/// the corpus never contains, so every query holds unknown tokens.
fn foreign_queries(records: &[Vec<u8>], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    records
        .iter()
        .step_by(9)
        .map(|r| {
            let mut q = r.clone();
            for _ in 0..rng.gen_range(1..=3usize) {
                let pos = rng.gen_range(0..=q.len());
                q.insert(pos, if rng.gen_bool(0.5) { b'#' } else { 0xff });
            }
            q.extend_from_slice(b" \xfe~q");
            q
        })
        .collect()
}

/// Asserts both indexes answer every query exactly as brute force over
/// the live records, for every metric × threshold.
fn assert_long_answers(
    indexes: [(&str, &SetSimilarityIndex); 2],
    mode: TokenMode,
    records: &[Vec<u8>],
    live: &[bool],
    queries: &[&Vec<u8>],
) {
    let sets: Vec<Vec<&[u8]>> = records.iter().map(|r| mode.token_set(r)).collect();
    for qtext in queries {
        let q = mode.token_set(qtext);
        let overlaps: Vec<usize> = sets.iter().map(|y| sorted_overlap(&q, y)).collect();
        for metric in METRICS {
            for t in THRESHOLDS {
                let expected: Vec<(u32, usize)> = (0..records.len())
                    .filter(|&id| live[id])
                    .filter(|&id| metric.accepts(t, overlaps[id], q.len(), sets[id].len()))
                    .map(|id| {
                        let d = metric.scaled_distance(overlaps[id], q.len(), sets[id].len());
                        (id as u32, d)
                    })
                    .collect();
                let query = SetQuery::new(qtext, metric, t);
                for (how, index) in indexes {
                    assert_eq!(
                        index.search(&query).into_matches(),
                        expected,
                        "{metric:?} t={t} {mode:?} {how} diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn long_records_match_brute_force() {
    let corpus = long_corpus(160, 77);
    let foreign = foreign_queries(&corpus, 78);
    for mode in [TokenMode::Grams { q: 3 }, TokenMode::Words] {
        let mut records = corpus.clone();
        let mut built = SetSimilarityIndex::build_from(mode, &records);
        let mut grown = SetSimilarityIndex::new(mode);
        for r in &records {
            grown.insert(r);
        }
        let mut live = vec![true; records.len()];
        let queries: Vec<&Vec<u8>> = records.iter().step_by(4).chain(&foreign).collect();
        assert_long_answers(
            [("build_from", &built), ("insert", &grown)],
            mode,
            &records,
            &live,
            &queries,
        );

        // Remove every fifth record from both indexes, then grow them
        // with near-duplicates of the survivors.
        for id in (0..records.len() as u32).step_by(5) {
            assert!(built.remove(id) && grown.remove(id));
            live[id as usize] = false;
        }
        let mut rng = StdRng::seed_from_u64(79);
        for base in (1..corpus.len()).step_by(5) {
            let r = datagen::mutate(&corpus[base], rng.gen_range(1..=4), &mut rng);
            assert_eq!(built.insert(&r), grown.insert(&r));
            records.push(r);
            live.push(true);
        }
        let queries: Vec<&Vec<u8>> = records.iter().step_by(4).chain(&foreign).collect();
        assert_long_answers(
            [
                ("build_from, after removals", &built),
                ("insert, after removals", &grown),
            ],
            mode,
            &records,
            &live,
            &queries,
        );
    }
}
