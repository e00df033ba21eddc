//! Output checks. Each runs outside every timed span and reports what
//! it rejected; the workloads count rejections as failed operations.

use std::collections::{BTreeSet, HashMap};

use passjoin_online::{Match, QueryOutcome};
use passjoin_serve::Event;
use passjoin_setsim::UnionFind;

/// Every reported pair is ordered, in range, reported once, and within
/// `tau` by a full edit-distance computation.
pub fn check_pairs(strings: &[Vec<u8>], pairs: &[(u32, u32)], tau: usize) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for &(i, j) in pairs {
        if i >= j || j as usize >= strings.len() {
            return Err(format!(
                "pair ({i}, {j}) is not an ordered pair of input positions"
            ));
        }
        if !seen.insert((i, j)) {
            return Err(format!("pair ({i}, {j}) reported twice"));
        }
        let d = editdist::edit_distance(&strings[i as usize], &strings[j as usize]);
        if d > tau {
            return Err(format!("pair ({i}, {j}) is at distance {d} > tau {tau}"));
        }
    }
    Ok(())
}

/// For each probe position, the reported partners equal a brute-force
/// scan of the whole input (length filter, then a banded check).
pub fn check_complete(
    strings: &[Vec<u8>],
    pairs: &[(u32, u32)],
    tau: usize,
    probes: &[u32],
) -> Result<(), String> {
    let mut found: HashMap<u32, BTreeSet<u32>> =
        probes.iter().map(|&p| (p, BTreeSet::new())).collect();
    for &(i, j) in pairs {
        if let Some(set) = found.get_mut(&i) {
            set.insert(j);
        }
        if let Some(set) = found.get_mut(&j) {
            set.insert(i);
        }
    }
    for &p in probes {
        let s = &strings[p as usize];
        let expected: BTreeSet<u32> = strings
            .iter()
            .enumerate()
            .filter(|&(j, t)| {
                j != p as usize
                    && s.len().abs_diff(t.len()) <= tau
                    && editdist::banded_within(s, t, tau).is_some()
            })
            .map(|(j, _)| j as u32)
            .collect();
        let got = &found[&p];
        if let Some(&j) = expected.difference(got).next() {
            let (a, b) = (p.min(j), p.max(j));
            return Err(format!("missing pair ({a}, {b})"));
        }
        if let Some(&j) = got.difference(&expected).next() {
            let (a, b) = (p.min(j), p.max(j));
            return Err(format!("pair ({a}, {b}) is not within tau {tau}"));
        }
    }
    Ok(())
}

/// The clusters (sets of two or more) of the transitive closure of `pairs`
/// over `n` records, in `UnionFind::clusters` order.
pub fn closure(n: usize, pairs: impl IntoIterator<Item = (u32, u32)>) -> Vec<Vec<u32>> {
    let mut uf = UnionFind::new(n);
    for (a, b) in pairs {
        uf.union(a, b);
    }
    uf.clusters()
}

/// Found clusters equal the expected ones.
pub fn check_clusters(found: &[Vec<u32>], expected: &[Vec<u32>]) -> Result<(), String> {
    if found == expected {
        return Ok(());
    }
    let at = found
        .iter()
        .zip(expected)
        .position(|(a, b)| a != b)
        .unwrap_or(found.len().min(expected.len()));
    Err(format!(
        "{} clusters found, {} expected; first divergence at cluster #{at}: found {:?}, expected {:?}",
        found.len(),
        expected.len(),
        found.get(at),
        expected.get(at)
    ))
}

/// The response shape a wire query line asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Plain,
    TopK(usize),
    Count,
    Stream,
}

/// One wire response line set equals the in-process answers to the same
/// requests: plain lines in the engine's order, top-k in `(distance, id)`
/// order, streamed lines as sets, count-only lines by count.
pub fn check_line(shape: Shape, events: &[Event], expected: &[QueryOutcome]) -> Result<(), String> {
    let mut matches: Vec<Vec<Match>> = vec![Vec::new(); expected.len()];
    let mut counts: Vec<Option<u64>> = vec![None; expected.len()];
    let mut done = None;
    for event in events {
        match event {
            Event::Match { q, id, d } => {
                let slot = matches
                    .get_mut(*q as usize)
                    .ok_or_else(|| format!("match for query {q} of {}", expected.len()))?;
                slot.push((*id as u32, *d as usize));
            }
            Event::Eoq { q, n, complete, .. } => {
                if !complete {
                    return Err(format!("query {q} truncated without a budget"));
                }
                let slot = counts
                    .get_mut(*q as usize)
                    .ok_or_else(|| format!("eoq for query {q} of {}", expected.len()))?;
                *slot = Some(*n);
            }
            Event::Done { queries, .. } => done = Some(*queries),
            Event::Error { code, msg } => return Err(format!("server error {code}: {msg}")),
            Event::Metrics(_) => return Err("metrics line in a query response".into()),
        }
    }
    if done != Some(expected.len() as u64) {
        return Err(format!(
            "done summary {done:?} for {} queries",
            expected.len()
        ));
    }
    for (q, want) in expected.iter().enumerate() {
        let got_count = counts[q].ok_or_else(|| format!("query {q} has no eoq line"))?;
        if got_count != want.count as u64 {
            return Err(format!(
                "query {q}: count {got_count}, expected {}",
                want.count
            ));
        }
        let got = &mut matches[q];
        let mut want_matches: Vec<Match> = want.matches.to_vec();
        match shape {
            Shape::Count => {
                if !got.is_empty() {
                    return Err(format!("query {q}: count-only line carried matches"));
                }
                continue;
            }
            Shape::Stream => {
                got.sort_unstable();
                want_matches.sort_unstable();
            }
            Shape::Plain | Shape::TopK(_) => {}
        }
        if *got != want_matches {
            let at = got
                .iter()
                .zip(&want_matches)
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(want_matches.len()));
            return Err(format!(
                "query {q}: {} matches answered, {} expected; first difference at match #{at}: answered {:?}, expected {:?}",
                got.len(),
                want_matches.len(),
                got.get(at),
                want_matches.get(at)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use passjoin::PassJoin;
    use passjoin_online::{OnlineIndex, Queryable, SearchRequest};
    use sj_common::{SimilarityJoin, StringCollection};

    fn corpus() -> Vec<Vec<u8>> {
        [
            "vldb", "pvldb", "vldbj", "icde", "icdm", "sigmod", "sigmmod", "kdd",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect()
    }

    fn join(strings: &[Vec<u8>], tau: usize) -> Vec<(u32, u32)> {
        PassJoin::new()
            .self_join(&StringCollection::new(strings.to_vec()), tau)
            .normalized_pairs()
    }

    #[test]
    fn a_correct_join_passes_both_pair_checks() {
        let strings = corpus();
        let pairs = join(&strings, 1);
        assert!(!pairs.is_empty());
        let probes: Vec<u32> = (0..strings.len() as u32).collect();
        assert_eq!(check_pairs(&strings, &pairs, 1), Ok(()));
        assert_eq!(check_complete(&strings, &pairs, 1, &probes), Ok(()));
    }

    #[test]
    fn a_missing_pair_is_rejected() {
        let strings = corpus();
        let mut pairs = join(&strings, 1);
        let dropped = pairs.remove(0);
        let probes: Vec<u32> = (0..strings.len() as u32).collect();
        let err = check_complete(&strings, &pairs, 1, &probes).unwrap_err();
        assert_eq!(err, format!("missing pair ({}, {})", dropped.0, dropped.1));
    }

    #[test]
    fn a_pair_beyond_tau_is_rejected() {
        let strings = corpus();
        let mut pairs = join(&strings, 1);
        // "pvldb" and "vldbj" are 2 edits apart.
        pairs.push((1, 2));
        let err = check_pairs(&strings, &pairs, 1).unwrap_err();
        assert_eq!(err, "pair (1, 2) is at distance 2 > tau 1");
        let err = check_complete(&strings, &pairs, 1, &[1]).unwrap_err();
        assert_eq!(err, "pair (1, 2) is not within tau 1");
    }

    #[test]
    fn a_split_cluster_is_rejected() {
        let strings = corpus();
        let expected = closure(strings.len(), join(&strings, 1));
        assert_eq!(expected, vec![vec![0, 1, 2], vec![3, 4], vec![5, 6]]);
        let split = vec![vec![0, 1], vec![3, 4], vec![5, 6]];
        let err = check_clusters(&split, &expected).unwrap_err();
        assert!(err.contains("cluster #0"), "{err}");
        assert_eq!(check_clusters(&expected, &expected), Ok(()));
    }

    fn wire(matches: &[(u64, u64)], count: u64) -> Vec<Event> {
        let mut events: Vec<Event> = matches
            .iter()
            .map(|&(id, d)| Event::Match { q: 0, id, d })
            .collect();
        events.push(Event::Eoq {
            q: 0,
            n: count,
            complete: true,
            reason: None,
        });
        events.push(Event::Done {
            queries: 1,
            matches: count,
            truncated: 0,
            candidates: 0,
            verifications: 0,
        });
        events
    }

    #[test]
    fn wire_answers_are_compared_per_shape() {
        let index = OnlineIndex::from_strings(corpus(), 2);
        let plain = [index.search(&SearchRequest::new(b"vldb", 1))];
        assert_eq!(plain[0].matches.len(), 3);
        let right: Vec<(u64, u64)> = plain[0]
            .matches
            .iter()
            .map(|&(i, d)| (i as u64, d as u64))
            .collect();
        assert_eq!(check_line(Shape::Plain, &wire(&right, 3), &plain), Ok(()));

        // One id changed.
        let mut wrong = right.clone();
        wrong[1].0 = 7;
        assert!(check_line(Shape::Plain, &wire(&wrong, 3), &plain).is_err());

        // Streams compare as sets; plain lines compare in order.
        let mut shuffled = right.clone();
        shuffled.reverse();
        assert_eq!(
            check_line(Shape::Stream, &wire(&shuffled, 3), &plain),
            Ok(())
        );
        assert!(check_line(Shape::Plain, &wire(&shuffled, 3), &plain).is_err());

        // Count-only lines compare counts and carry no matches.
        let count = [index.search(&SearchRequest::new(b"vldb", 1).count_only())];
        assert_eq!(check_line(Shape::Count, &wire(&[], 3), &count), Ok(()));
        assert!(check_line(Shape::Count, &wire(&[], 2), &count).is_err());

        // Top-k keeps (distance, id) order.
        let top = [index.search(&SearchRequest::new(b"vldb", 1).with_limit(2))];
        let best: Vec<(u64, u64)> = top[0]
            .matches
            .iter()
            .map(|&(i, d)| (i as u64, d as u64))
            .collect();
        assert_eq!(check_line(Shape::TopK(2), &wire(&best, 2), &top), Ok(()));

        // An error terminator fails the line.
        let error = vec![Event::Error {
            code: "bad_request".into(),
            msg: "no".into(),
        }];
        assert!(check_line(Shape::Plain, &error, &plain).is_err());
    }
}
