//! `join-long`: the paper's long-string case. `PassJoin::self_join` over
//! 10⁵ AuthorTitle-like strings (about 108 bytes each) at τ = 10, where
//! probing 47.6M selected substrings dominates beside about 0.9M
//! long-pair verifications.
//!
//! A self-join answers no single request, so its latency metrics come from
//! single-string lookups through core's `SearchIndex` over the same strings
//! at the same τ: the same partition, selection and verification code,
//! entered one probe string at a time.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use datagen::{DatasetKind, DatasetSpec};
use passjoin::{PassJoin, SearchIndex};
use passjoin_bench::harness::selection_only;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sj_common::{SimilarityJoin, StringCollection};

use crate::check;
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, ratio, summary, tail_percentile};
use crate::trace::{timed, Trace};
use crate::{corpus, run_passes, span_secs, write_trace, Args, SETUP_REPS};

const STRINGS: usize = 100_000;
/// Vocabulary draws the corpus averages over (see [`corpus`]).
const PARTS: u64 = 32;
const TAU: usize = 10;
/// Share of the timed budget spent on lookups; joins get the rest.
const LOOKUP_SHARE: f64 = 1.0 / 3.0;
/// Distinct strings the lookups cycle through.
const LOOKUP_POOL: usize = 4096;
/// Lookups needed for a p90 with ten samples beyond it.
const MIN_LOOKUPS: usize = 100;
/// Strings whose partners the completeness check brute-forces.
const BRUTE_PROBES: usize = 10;

/// Per looked-up string: its sorted answer and how often it was looked up.
type Answers = HashMap<u32, (Vec<(u32, usize)>, u64)>;

pub fn run(args: &Args) -> Result<Report, String> {
    let trace = args.trace.then(Trace::new);
    let t = trace.as_ref();
    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS as u64 {
        let started = Instant::now();
        let root = t.map(Trace::open);
        let parent = root.map_or(0, |o| o.id);
        let (strings, _) = timed(t, parent, rep, "datagen.generate", || {
            corpus(
                DatasetSpec::new(DatasetKind::AuthorTitle, STRINGS),
                PARTS,
                args.seed,
            )
        });
        let input = strings.clone();
        let coll = timed(t, parent, rep, "common.collection", || {
            StringCollection::new(input)
        });
        let lookups = timed(t, parent, rep, "core.search_build", || {
            SearchIndex::build(&coll, TAU)
        });
        if let (Some(t), Some(root)) = (t, root) {
            t.close(root, 0, rep, "setup");
        }
        setup_s.push(started.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS as u64 {
            return measure(args, t, &strings, &coll, &lookups, &setup_s);
        }
    }
    unreachable!("the last set-up repetition returns")
}

fn measure(
    args: &Args,
    trace: Option<&Trace>,
    strings: &[Vec<u8>],
    coll: &StringCollection,
    lookups: &SearchIndex,
    setup_s: &[f64],
) -> Result<Report, String> {
    let mut report = Report::default();
    let join = PassJoin::new();

    let mut first: Option<Vec<(u32, u32)>> = None;
    let mut diverged = 0u64;
    let pass_s = run_passes(
        args.budget(1.0 - LOOKUP_SHARE),
        1,
        || join.self_join(coll, TAU),
        |out| {
            let pairs = out.normalized_pairs();
            match &first {
                None => first = Some(pairs),
                Some(f) if *f != pairs => diverged += 1,
                Some(_) => {}
            }
        },
    );
    let pairs = first.expect("run_passes runs at least one pass");

    let mut rng = StdRng::seed_from_u64(args.seed);
    let pool: Vec<u32> = (0..LOOKUP_POOL)
        .map(|_| rng.gen_range(0..strings.len() as u32))
        .collect();
    let mut searcher = lookups.searcher();
    let mut latency_s = Vec::new();
    let mut answers: Answers = HashMap::new();
    let mut unstable = 0u64;
    let mut out = Vec::new();
    let budget = args.budget(LOOKUP_SHARE);
    let started = Instant::now();
    while started.elapsed() < budget || latency_s.len() < MIN_LOOKUPS {
        let p = pool[latency_s.len() % pool.len()];
        out.clear();
        let t0 = Instant::now();
        searcher.query_into(&strings[p as usize], &mut out);
        latency_s.push(t0.elapsed().as_secs_f64());
        out.sort_unstable();
        match answers.get_mut(&p) {
            None => {
                answers.insert(p, (out.clone(), 1));
            }
            Some((answer, times)) => {
                *times += 1;
                if *answer != out {
                    unstable += 1;
                }
            }
        }
    }
    let lookup_s = started.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb()?;

    // Checks, outside the timed phase.
    let passes = pass_s.len() as u64;
    report.attempt(passes + latency_s.len() as u64);
    if diverged > 0 {
        report.fail(
            diverged,
            "pass agreement",
            "a join pass returned other pairs than the first",
        );
    }
    let probes: Vec<u32> = (0..BRUTE_PROBES)
        .map(|_| rng.gen_range(0..strings.len() as u32))
        .collect();
    if let Err(e) = check::check_pairs(strings, &pairs, TAU)
        .and_then(|()| check::check_complete(strings, &pairs, TAU, &probes))
        .and_then(|()| check_exact(&join, coll, &pairs))
    {
        report.fail(passes - diverged, "join pairs", &e);
    }
    if unstable > 0 {
        report.fail(
            unstable,
            "lookup agreement",
            "a repeated lookup answered differently",
        );
    }
    let (wrong, first_wrong) = check_lookups(strings, &pairs, &answers);
    if let Some(detail) = first_wrong {
        report.fail(wrong, "lookups against the join", &detail);
    }
    println!(
        "join-long: {} strings, tau {TAU}: {} pairs; {passes} join passes ({}); {} lookups of {} distinct strings",
        strings.len(),
        pairs.len(),
        summary(&pass_s),
        latency_s.len(),
        answers.len()
    );

    report.set("setup_s", median(setup_s));
    report.set("wall_s", median(&pass_s));
    report.set("qps", latency_s.len() as f64 / lookup_s);
    report.set("p50_ms", median(&latency_s) * 1e3);
    report.set("p90_ms", tail_percentile(&latency_s, 90)? * 1e3);
    report.set("peak_rss_mb", peak_rss);

    if let Some(t) = trace {
        let root = t.open();
        let traced = t.time(root.id, 0, "core.self_join", || join.self_join(coll, TAU));
        let (selected, _) = t.time(root.id, 0, "core.selection_only", || {
            selection_only(coll, TAU, join.selection())
        });
        t.close(root, 0, 0, "join-long.traced");
        report.attempt(1);
        if traced.normalized_pairs() != pairs {
            report.fail(
                1,
                "traced pass",
                "the traced join returned other pairs than the untraced one",
            );
        }
        let spans = write_trace("join-long", t, |_| {})?;
        let st = &traced.stats;
        println!(
            "join-long: selection-only pass selected {selected} substrings; the join selected {}",
            st.selected_substrings
        );
        report.set(
            "common.collection_s",
            median(&span_secs(&spans, "common.collection")),
        );
        report.set("core.select_s", span_secs(&spans, "core.selection_only")[0]);
        report.set("core.selected_substrings", st.selected_substrings as f64);
        report.set(
            "core.candidate_occurrences",
            st.candidate_occurrences as f64,
        );
        report.set("core.candidate_pairs", st.candidate_pairs as f64);
        report.set("core.index_bytes", st.index_bytes as f64);
        report.set("editdist.verifications", st.verifications as f64);
        report.set(
            "editdist.results_per_verification",
            ratio(st.results as f64, st.verifications as f64),
        );
        let traced_s = span_secs(&spans, "core.self_join")[0];
        report.set("obs.overhead", traced_s / median(&pass_s) - 1.0);
        report.set(
            "error_rate",
            ratio(report.failed as f64, report.attempted as f64),
        );
    }
    Ok(report)
}

/// The join's pairs equal those of `self_join_distances`, which verifies
/// every candidate with the whole-pair length-aware kernel instead of the
/// extension cascade and collects results on its own path. Unlike the
/// sampled brute force, this sees every pair.
fn check_exact(
    join: &PassJoin,
    coll: &StringCollection,
    pairs: &[(u32, u32)],
) -> Result<(), String> {
    let mut exact: Vec<(u32, u32)> = join
        .self_join_distances(coll, TAU)
        .into_iter()
        .map(|(pair, _)| pair)
        .collect();
    exact.sort_unstable();
    if exact == pairs {
        return Ok(());
    }
    let missing = exact.iter().find(|p| pairs.binary_search(p).is_err());
    let extra = pairs.iter().find(|p| exact.binary_search(p).is_err());
    Err(format!(
        "{} pairs where the exact-distance join finds {}; first missing {missing:?}, first extra {extra:?}",
        pairs.len(),
        exact.len()
    ))
}

/// Each lookup of an input string must return that string and exactly its
/// join partners, at their true edit distances. Returns the lookups that
/// failed and the first failure.
fn check_lookups(
    strings: &[Vec<u8>],
    pairs: &[(u32, u32)],
    answers: &Answers,
) -> (u64, Option<String>) {
    let mut expected: HashMap<u32, BTreeSet<u32>> =
        answers.keys().map(|&p| (p, BTreeSet::from([p]))).collect();
    for &(i, j) in pairs {
        if let Some(set) = expected.get_mut(&i) {
            set.insert(j);
        }
        if let Some(set) = expected.get_mut(&j) {
            set.insert(i);
        }
    }
    let mut wrong = 0;
    let mut first = None;
    let mut keys: Vec<&u32> = answers.keys().collect();
    keys.sort_unstable();
    for p in keys {
        let (answer, times) = &answers[p];
        let ids: BTreeSet<u32> = answer.iter().map(|&(id, _)| id).collect();
        let problem = if ids != expected[p] || ids.len() != answer.len() {
            Some(format!(
                "lookup of {p} returned {ids:?}, the join implies {:?}",
                expected[p]
            ))
        } else {
            answer.iter().find_map(|&(id, d)| {
                let truth = editdist::edit_distance(&strings[*p as usize], &strings[id as usize]);
                (truth != d)
                    .then(|| format!("lookup of {p} reported {id} at {d}, true distance {truth}"))
            })
        };
        if let Some(problem) = problem {
            wrong += times;
            first.get_or_insert(problem);
        }
    }
    (wrong, first)
}
