//! Per-probe machinery shared by the self-, R×S, and parallel join drivers:
//! substring selection against a [`SegmentMap`], candidate deduplication,
//! and the verification cascade (§4–§5).
//!
//! Split out of the join drivers so the scan loop (visit order, eviction,
//! short-string fallback) is the only thing they own; the probing core is
//! generic over [`SegmentProbe`], so it serves the arena-borrowing scan
//! index, owned-key indices, and snapshot-resident sorted runs alike — the
//! backend decides how a probed substring resolves to an inverted list
//! (hash lookup vs. binary search).

use editdist::{
    banded_within_ws, length_aware_within_ws, myers_within, within_full, DpWorkspace,
    ExtensionVerifier, Occurrence,
};
use sj_common::stamp::StampSet;
use sj_common::{JoinStats, StringId};

use crate::index::SegmentProbe;
use crate::joiner::PassJoin;
use crate::partition::PartitionScheme;
use crate::select::Selection;
use crate::sink::MatchSink;
use crate::verify::Verification;

/// Reusable per-probe state: scratch sets, DP workspaces, and the
/// configured selection/verification strategies.
pub(crate) struct ProbeState {
    selection: Selection,
    verification: Verification,
    partition: PartitionScheme,
    tau: usize,
    /// Pairs already resolved for the current probe: results emitted (any
    /// verifier), or — for whole-pair verifiers only — pairs already
    /// checked. Occurrence-dependent (extension) verification must re-try
    /// other occurrences of a rejected pair, so rejections are only cached
    /// for whole-pair verifiers.
    resolved: StampSet,
    /// Distinct candidate pairs of the current probe (statistics).
    cand_seen: StampSet,
    ext: ExtensionVerifier,
    pub(crate) ws: DpWorkspace,
}

impl ProbeState {
    pub(crate) fn new(config: &PassJoin, indexed_universe: usize, tau: usize) -> Self {
        let share = matches!(
            config.verification(),
            Verification::Extension { share_prefix: true }
        );
        Self {
            selection: config.selection(),
            verification: config.verification(),
            partition: config.partition(),
            tau,
            resolved: StampSet::new(indexed_universe),
            cand_seen: StampSet::new(indexed_universe),
            ext: ExtensionVerifier::new(share),
            ws: DpWorkspace::new(),
        }
    }

    pub(crate) fn begin_probe(&mut self) {
        self.resolved.clear();
        self.cand_seen.clear();
    }

    /// [`ProbeState::probe_lengths_bounded`] with no id bound — for the
    /// incremental drivers, whose indices only ever hold earlier ids.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_lengths<'c, I: SegmentProbe>(
        &mut self,
        s: &[u8],
        lmin: usize,
        lmax: usize,
        index: &I,
        resolve: impl Fn(StringId) -> &'c [u8],
        stats: &mut JoinStats,
        sink: &mut impl MatchSink,
    ) {
        self.probe_lengths_bounded(s, lmin, lmax, index, u32::MAX, resolve, stats, sink);
    }

    /// Probes the inverted indices of every length in `[lmin, lmax]` with
    /// the selected substrings of `s`, verifying candidates with id
    /// `< max_id` and pushing each `(indexed_id, certificate)` result into
    /// `sink`. `resolve` maps an indexed id to its bytes. The id bound lets
    /// the parallel driver share one full index while still enumerating
    /// every pair exactly once.
    ///
    /// The sink steers the scan: lengths outside its current
    /// [`MatchSink::bound`] are skipped, whole-pair verification runs
    /// under the (possibly tightened) bound, and a saturated sink stops
    /// probing entirely. Every candidate and verification is announced
    /// through [`MatchSink::note_candidate`] /
    /// [`MatchSink::note_verification`] *before* it runs, so a
    /// [`crate::sink::BudgetSink`] can cap probe work. Collecting sinks
    /// leave all hooks at their defaults, so the join drivers are
    /// byte-for-byte unchanged.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_lengths_bounded<'c, I: SegmentProbe>(
        &mut self,
        s: &[u8],
        lmin: usize,
        lmax: usize,
        index: &I,
        max_id: StringId,
        resolve: impl Fn(StringId) -> &'c [u8],
        stats: &mut JoinStats,
        sink: &mut impl MatchSink,
    ) {
        let tau = self.tau;
        for l in lmin..=lmax {
            if sink.saturated() {
                return;
            }
            if !index.has_length(l) || s.len().abs_diff(l) > sink.bound(tau) {
                continue;
            }
            for slot in 1..=tau + 1 {
                let seg = self.partition.segment(l, tau, slot);
                let window = self.selection.window(s.len(), l, seg, slot, tau);
                stats.selected_substrings += window.len() as u64;
                for p in window {
                    stats.probes += 1;
                    let w = &s[p..p + seg.len];
                    let Some(list) = index.probe_bytes(l, slot, w) else {
                        continue;
                    };
                    // Lists are sorted by id; keep only ids below the bound.
                    let list = &list[..list.partition_point(|&rid| rid < max_id)];
                    let occ = Occurrence {
                        slot,
                        seg_start: seg.start,
                        seg_len: seg.len,
                        probe_start: p,
                    };
                    // The sink's bound only ever shrinks, so verifying
                    // under the value read at occurrence entry is sound:
                    // any match it rejects has distance above every later
                    // acceptance bound too. The extension verifier keeps
                    // the full τ — its per-side budgets come from the
                    // occurrence geometry (slots run 1..=τ+1) — and its
                    // certificates are *upper bounds* ≤ τ, not exact
                    // distances, so this branch cannot honor a tightened
                    // bound: a bounded sink (top-k, capped count) must be
                    // paired with a whole-pair verifier here. The join
                    // drivers only pass collecting FnSinks (bound = τ);
                    // the exact-distance sink paths live in core::search
                    // and the online engine.
                    let bound = sink.bound(tau);
                    match self.verification {
                        Verification::Extension { .. } => {
                            debug_assert_eq!(
                                bound, tau,
                                "extension verification reports upper-bound certificates, \
                                 not exact distances: pair bounded sinks with a whole-pair \
                                 verifier"
                            );
                            self.ext.begin_scan(s, &occ, tau, l);
                            for &rid in list {
                                sink.note_candidate();
                                if sink.saturated() {
                                    return; // budget tripped: candidate skipped
                                }
                                stats.candidate_occurrences += 1;
                                if self.cand_seen.insert(rid) {
                                    stats.candidate_pairs += 1;
                                }
                                if self.resolved.contains(rid) {
                                    continue; // already emitted for this probe
                                }
                                sink.note_verification();
                                if sink.saturated() {
                                    return; // budget tripped: check skipped
                                }
                                stats.verifications += 1;
                                if let Some(cert) = self.ext.verify(resolve(rid), s, &occ) {
                                    self.resolved.insert(rid);
                                    sink.push(rid, cert);
                                    stats.results += 1;
                                }
                            }
                        }
                        whole => {
                            for &rid in list {
                                sink.note_candidate();
                                if sink.saturated() {
                                    return; // budget tripped: candidate skipped
                                }
                                stats.candidate_occurrences += 1;
                                if !self.cand_seen.insert(rid) {
                                    continue; // pair already checked: sound
                                              // for whole-pair verifiers
                                }
                                stats.candidate_pairs += 1;
                                sink.note_verification();
                                if sink.saturated() {
                                    return; // budget tripped: check skipped
                                }
                                stats.verifications += 1;
                                let r = resolve(rid);
                                let verdict = match whole {
                                    Verification::Full => within_full(r, s, bound),
                                    Verification::Banded => {
                                        banded_within_ws(r, s, bound, &mut self.ws)
                                    }
                                    Verification::LengthAware => {
                                        length_aware_within_ws(r, s, bound, &mut self.ws)
                                    }
                                    Verification::Myers => myers_within(r, s, bound),
                                    Verification::Extension { .. } => unreachable!(),
                                };
                                if let Some(d) = verdict {
                                    self.resolved.insert(rid);
                                    sink.push(rid, d);
                                    stats.results += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{OwnedSegmentIndex, SegmentIndex};

    /// The probing core must be strictly backend-agnostic: the same probe
    /// over an owned-key and an arena-borrowing index with identical
    /// contents must emit identical (id, certificate) sequences and stats.
    #[test]
    fn probe_lengths_is_backend_agnostic() {
        let strings: &[&[u8]] = &[
            b"kaushik chakrab",
            b"caushik chakrabar",
            b"kaushic chaduri",
            b"kaushuk chadhui",
            b"vankatesh",
            b"avataresha",
        ];
        let tau = 3;
        let config = PassJoin::new();
        let mut owned = OwnedSegmentIndex::new(0, tau);
        let mut borrowed = SegmentIndex::new(0, tau);
        for (id, s) in strings.iter().enumerate() {
            owned.insert_owned(s, id as StringId);
            borrowed.insert(s, id as StringId);
        }
        for probe in strings {
            let lmin = (tau + 1).max(probe.len().saturating_sub(tau));
            let lmax = probe.len() + tau;
            let mut state = ProbeState::new(&config, strings.len(), tau);
            let mut stats_a = JoinStats::default();
            let mut got_a = Vec::new();
            state.begin_probe();
            state.probe_lengths(
                probe,
                lmin,
                lmax,
                &owned,
                |rid| strings[rid as usize],
                &mut stats_a,
                &mut crate::sink::FnSink(|rid, cert| got_a.push((rid, cert))),
            );
            let mut state = ProbeState::new(&config, strings.len(), tau);
            let mut stats_b = JoinStats::default();
            let mut got_b = Vec::new();
            state.begin_probe();
            state.probe_lengths(
                probe,
                lmin,
                lmax,
                &borrowed,
                |rid| strings[rid as usize],
                &mut stats_b,
                &mut crate::sink::FnSink(|rid, cert| got_b.push((rid, cert))),
            );
            assert_eq!(got_a, got_b, "probe {:?}", String::from_utf8_lossy(probe));
            assert_eq!(stats_a.probes, stats_b.probes);
            assert_eq!(stats_a.candidate_pairs, stats_b.candidate_pairs);
            assert_eq!(stats_a.results, stats_b.results);
        }
    }
}
