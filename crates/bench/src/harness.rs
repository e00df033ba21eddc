//! Shared machinery for the experiment reproductions: dataset scaling,
//! the algorithm roster of Figure 15, and the selection-only measurement
//! used by Figures 12–13.

use std::time::{Duration, Instant};

use datagen::{DatasetKind, DatasetSpec};
use edjoin::EdJoin;
use passjoin::partition::segment;
use passjoin::{PassJoin, Selection, Verification};
use sj_common::{SimilarityJoin, StringCollection};
use triejoin::{TrieJoin, TrieVariant};

/// Default corpus sizes for the reproduction runs, scaled down ~10× from
/// the paper so `repro all` finishes on a laptop; `--scale` restores any
/// fraction of the paper's cardinality.
pub fn default_cardinality(kind: DatasetKind) -> usize {
    match kind {
        DatasetKind::Author => 60_000,
        DatasetKind::QueryLog => 40_000,
        DatasetKind::AuthorTitle => 40_000,
    }
}

/// The q the harness uses for ED-Join per dataset, following the paper's
/// "we tuned its parameter q and reported the best results" (see the
/// `tune-q` subcommand for the reproducible sweep).
pub fn tuned_q(kind: DatasetKind) -> usize {
    match kind {
        DatasetKind::Author => 2,
        DatasetKind::QueryLog => 3,
        DatasetKind::AuthorTitle => 4,
    }
}

/// Generates the reproduction corpus for `kind` at `cardinality`.
pub fn corpus(kind: DatasetKind, cardinality: usize, seed: u64) -> StringCollection {
    DatasetSpec::new(kind, cardinality)
        .with_seed(seed)
        .collection()
}

/// The Figure 15 roster: Pass-Join (paper configuration), ED-Join with the
/// tuned q, and Trie-Join (PathStack).
pub fn figure15_roster(kind: DatasetKind) -> Vec<(String, Box<dyn SimilarityJoin>)> {
    vec![
        (
            "pass-join".into(),
            Box::new(PassJoin::new()) as Box<dyn SimilarityJoin>,
        ),
        (
            format!("ed-join(q={})", tuned_q(kind)),
            Box::new(EdJoin::new(tuned_q(kind))),
        ),
        (
            "trie-join".into(),
            Box::new(TrieJoin::new().with_variant(TrieVariant::PathStack)),
        ),
    ]
}

/// Counts and times substring selection alone (Figures 12–13): replicates
/// the join's probing loop — same visit order, same "only lengths already
/// indexed" rule — without building the index or verifying anything.
pub fn selection_only(
    coll: &StringCollection,
    tau: usize,
    selection: Selection,
) -> (u64, Duration) {
    let mut lengths_seen = vec![false; coll.max_len() + 1];
    let mut selected: u64 = 0;
    let mut sink: usize = 0; // defeat dead-code elimination cheaply
    let started = Instant::now();
    for (_, s) in coll.iter() {
        if s.len() > tau {
            let lmin = (tau + 1).max(s.len().saturating_sub(tau));
            #[allow(clippy::needless_range_loop)] // l is a string length, not a slice index
            for l in lmin..=s.len() {
                if !lengths_seen[l] {
                    continue;
                }
                for slot in 1..=tau + 1 {
                    let seg = segment(l, tau, slot);
                    let window = selection.window(s.len(), l, seg, slot, tau);
                    selected += window.len() as u64;
                    for p in window {
                        // Materialize the substring exactly as the join
                        // would before hashing it.
                        let w = &s[p..p + seg.len];
                        sink ^= w.len() + p;
                    }
                }
            }
            lengths_seen[s.len()] = true;
        }
    }
    let elapsed = started.elapsed();
    std::hint::black_box(sink);
    (selected, elapsed)
}

/// One Figure 14 configuration: Pass-Join with multi-match selection and
/// the given verification strategy.
pub fn figure14_join(verification: Verification) -> PassJoin {
    PassJoin::new()
        .with_selection(Selection::MultiMatch)
        .with_verification(verification)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_only_matches_join_stats() {
        let coll = corpus(DatasetKind::Author, 2_000, 7);
        for tau in [1usize, 3] {
            for selection in Selection::all() {
                let (count, _) = selection_only(&coll, tau, selection);
                let out = PassJoin::new()
                    .with_selection(selection)
                    .self_join(&coll, tau);
                assert_eq!(
                    count,
                    out.stats.selected_substrings,
                    "{} tau={tau}",
                    selection.name()
                );
            }
        }
    }

    #[test]
    fn roster_produces_identical_results() {
        let coll = corpus(DatasetKind::Author, 1_500, 9);
        let expected = PassJoin::new().self_join(&coll, 2).normalized_pairs();
        for (name, join) in figure15_roster(DatasetKind::Author) {
            let got = join.self_join(&coll, 2).normalized_pairs();
            assert_eq!(got, expected, "{name}");
        }
    }

    #[test]
    fn default_cardinalities_are_positive() {
        for kind in DatasetKind::all() {
            assert!(default_cardinality(kind) > 0);
            assert!(tuned_q(kind) >= 2);
        }
    }
}
