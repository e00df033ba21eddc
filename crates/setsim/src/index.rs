//! The prefix-filter inverted index for set-similarity search.
//!
//! Records are tokenized ([`TokenMode`]) into sets of interned token ids
//! (the [`SegmentInterner`] is the token dictionary, exactly as it is the
//! segment dictionary in the edit-distance lane). Each record's tokens
//! are kept sorted under a **rarest-first global order**
//! ([`SetSimilarityIndex::build_from`] assigns document-frequency ranks
//! via [`edjoin::grams::rarest_first_ranks`]; tokens first seen by later
//! inserts sort before everything already ranked — a brand-new token has
//! document frequency 1, the rarest possible), and the whole sorted
//! array is posted as `token → (record, position)` entries.
//!
//! A query probes only its **prefix** — the first `sx − α + 1` tokens,
//! where `α` is the metric's required-overlap bound — and screens each
//! posting entry with length-interval pruning and the positional prefix
//! condition `j_x + α(sx, sy) ≤ sx ∧ j_y + α(sx, sy) ≤ sy`. The α values
//! come from a per-query table over the admissible candidate sizes, and
//! because α never decreases in `sy`, the `j_x` half of the condition is a
//! size cap per probed position. A surviving candidate is verified
//! against a bitmap of the query's tokens, and the check stops as soon as
//! the candidate's misses show its overlap cannot reach α at the
//! requested threshold. This is the PPJoin/All-Pairs family of filters
//! (see [`crate::metric`]) on the engine's existing probe-verify-sink
//! skeleton: verification pushes into a [`MatchSink`], so top-k steering,
//! saturation, and [`ExecBudget`] caps all work unchanged.

use std::sync::Arc;
use std::time::Instant;

use passjoin::intern::{SegId, SegmentInterner};
use passjoin::sink::{BudgetSink, CollectSink, CountSink, MatchSink, TopKSink};
use passjoin_online::{CacheOutcome, Completion, ExecBudget, ExecStats, QueryOutcome};
use sj_common::hash::{FxHashMap, FxHashSet};
use sj_common::StringId;

use crate::metric::SetMetric;
use crate::obs::SetSimObs;
use crate::tokenize::TokenMode;

/// Sort key of an unknown query token (absent from the dictionary).
/// Distinct unknowns get `UNKNOWN_KEY`, `UNKNOWN_KEY + 1`, … — all far
/// below any insert-assigned key, so unknowns sit at the front of the
/// prefix where their empty posting lists cost nothing.
const UNKNOWN_KEY: i64 = i64::MIN;

/// Raw-id sentinel for an unknown query token. Real ids stay below the
/// interner's spill bit, so the sentinel can never collide.
const UNKNOWN_RAW: u32 = u32::MAX;

/// One set-similarity request: query text, metric, threshold, and the
/// same result shapes the edit-distance `SearchRequest` offers (top-k,
/// count-only, execution budget).
#[derive(Debug, Clone)]
pub struct SetQuery<'a> {
    text: &'a [u8],
    metric: SetMetric,
    threshold: f64,
    limit: Option<usize>,
    count_only: bool,
    budget: Option<ExecBudget>,
}

impl<'a> SetQuery<'a> {
    /// A plain request: all records with `metric`-similarity ≥
    /// `threshold` to `text`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold ≤ 1`.
    pub fn new(text: &'a [u8], metric: SetMetric, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "set-similarity threshold must be in (0, 1], got {threshold}"
        );
        Self {
            text,
            metric,
            threshold,
            limit: None,
            count_only: false,
            budget: None,
        }
    }

    /// Keep only the `k` most-similar matches (ties broken by id).
    pub fn with_limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }

    /// Report only the match count (capped at the limit, if one is set);
    /// no matches are materialized.
    pub fn count_only(mut self) -> Self {
        self.count_only = true;
        self
    }

    /// Attach an execution budget (verification/candidate caps,
    /// deadline) — enforced through the same [`BudgetSink`] adapter the
    /// edit-distance engine uses.
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The query bytes.
    pub fn text(&self) -> &[u8] {
        self.text
    }

    /// The metric.
    pub fn metric(&self) -> SetMetric {
        self.metric
    }

    /// The threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The top-k limit, if any.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// Whether this is a count-only request.
    pub fn is_count_only(&self) -> bool {
        self.count_only
    }

    /// The attached budget, if any.
    pub fn budget(&self) -> Option<&ExecBudget> {
        self.budget.as_ref()
    }
}

/// A dynamic set-similarity index: insert/remove records, search under
/// Jaccard/cosine/overlap thresholds. See the [module docs](self) for
/// the filtering pipeline.
pub struct SetSimilarityIndex {
    mode: TokenMode,
    dict: SegmentInterner,
    /// Raw token id → global-order sort key. Ranked tokens (from
    /// `build_from`) hold their rank; tokens first interned by a later
    /// `insert` hold descending negative keys. Keys never change, so
    /// stored token arrays never need re-sorting.
    key_of: Vec<i64>,
    /// Next key for a token first seen by `insert` (−1, −2, …).
    next_new: i64,
    /// Record id → its token-id set, sorted by `(key, raw id)`. `None`
    /// after removal; ids are never reused.
    records: Vec<Option<Box<[SegId]>>>,
    /// Raw token id → postings: `(record, position in its sorted array)`.
    postings: Vec<Vec<(StringId, u32)>>,
    /// Largest token-set size ever inserted: no live record is larger.
    max_size: usize,
    live: usize,
    posting_entries: u64,
    obs: Option<Arc<SetSimObs>>,
}

impl SetSimilarityIndex {
    /// An empty index. Tokens are ordered first-seen-last-is-rarest; for
    /// a corpus known up front, [`SetSimilarityIndex::build_from`] gives
    /// the true document-frequency order.
    pub fn new(mode: TokenMode) -> Self {
        Self {
            mode,
            dict: SegmentInterner::new(),
            key_of: Vec::new(),
            next_new: -1,
            records: Vec::new(),
            postings: Vec::new(),
            max_size: 0,
            live: 0,
            posting_entries: 0,
            obs: None,
        }
    }

    /// Builds an index over `records` with the global token order set to
    /// exact rarest-first document frequency (ascending df, ties by
    /// bytes) — the order that keeps probe prefixes on the shortest
    /// posting lists. Record ids are assigned `0..records.len()` in
    /// order.
    pub fn build_from<S: AsRef<[u8]>>(mode: TokenMode, records: &[S]) -> Self {
        let mut freq: FxHashMap<&[u8], u32> = FxHashMap::default();
        for r in records {
            for tok in mode.token_set(r.as_ref()) {
                *freq.entry(tok).or_insert(0) += 1;
            }
        }
        let mut index = Self::new(mode);
        // Interning in rank order makes raw id = rank, so the sort key
        // of a ranked token is simply its id.
        for (tok, rank) in edjoin::grams::rarest_first_ranks(freq.into_iter().collect()) {
            let id = index
                .dict
                .intern(tok)
                .expect("setsim token dictionary overflow");
            debug_assert_eq!(id.raw(), rank);
            index.key_of.push(i64::from(rank));
            index.postings.push(Vec::new());
        }
        for r in records {
            index.insert(r.as_ref());
        }
        index
    }

    /// Attach (or detach) a metrics family; see [`SetSimObs`].
    pub fn set_observability(&mut self, obs: Option<Arc<SetSimObs>>) {
        self.obs = obs;
        self.record_index_gauges();
    }

    /// The tokenization mode.
    pub fn mode(&self) -> TokenMode {
        self.mode
    }

    /// Live (inserted, not removed) records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live record is indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Distinct tokens in the dictionary (including tokens whose last
    /// record was removed — ids are permanent).
    pub fn token_count(&self) -> usize {
        self.dict.len()
    }

    /// Live posting entries across all lists (Σ set sizes of live
    /// records).
    pub fn posting_entries(&self) -> u64 {
        self.posting_entries
    }

    /// Inserts a record, returning its id (dense, never reused). The
    /// record is tokenized under the index's mode; an empty token set is
    /// legal and matches nothing, ever.
    ///
    /// # Panics
    ///
    /// Panics if the token dictionary overflows its id or arena limit.
    pub fn insert(&mut self, record: &[u8]) -> StringId {
        let id = self.records.len() as StringId;
        let mut tokens: Vec<SegId> = Vec::new();
        for tok in self.mode.token_set(record) {
            let seg = self
                .dict
                .intern(tok)
                .expect("setsim token dictionary overflow");
            if seg.raw() as usize == self.key_of.len() {
                // First sighting: df = 1, the rarest a token can be —
                // order it before everything already ranked.
                self.key_of.push(self.next_new);
                self.next_new -= 1;
                self.postings.push(Vec::new());
            }
            self.dict.acquire(seg);
            tokens.push(seg);
        }
        tokens.sort_unstable_by_key(|s| (self.key_of[s.raw() as usize], s.raw()));
        for (pos, seg) in tokens.iter().enumerate() {
            self.postings[seg.raw() as usize].push((id, pos as u32));
        }
        self.posting_entries += tokens.len() as u64;
        self.max_size = self.max_size.max(tokens.len());
        self.records.push(Some(tokens.into_boxed_slice()));
        self.live += 1;
        if let Some(obs) = &self.obs {
            obs.note_insert();
        }
        self.record_index_gauges();
        id
    }

    /// Removes a record by id. Returns false if the id was never
    /// assigned or already removed. Posting entries are erased eagerly
    /// and the token dictionary's reference counts released.
    pub fn remove(&mut self, id: StringId) -> bool {
        let Some(tokens) = self.records.get_mut(id as usize).and_then(Option::take) else {
            return false;
        };
        for seg in tokens.iter() {
            self.postings[seg.raw() as usize].retain(|&(y, _)| y != id);
            self.dict.release(*seg);
        }
        self.posting_entries -= tokens.len() as u64;
        self.live -= 1;
        if let Some(obs) = &self.obs {
            obs.note_remove();
        }
        self.record_index_gauges();
        true
    }

    /// Answers a request in its declared shape — the same outcome type
    /// the edit-distance engine returns (`cache` is always
    /// [`CacheOutcome::Bypass`]; this lane has no result cache yet).
    pub fn search(&self, query: &SetQuery) -> QueryOutcome {
        let started = self.obs.as_ref().map(|_| Instant::now());
        let qtokens = self.query_tokens(query.text);
        let outcome = if query.count_only {
            let mut sink = match query.limit {
                Some(k) => CountSink::capped(k),
                None => CountSink::new(),
            };
            let (stats, completion) = self.drive(query, &qtokens, &mut sink);
            QueryOutcome {
                matches: Arc::new(Vec::new()),
                count: sink.count(),
                cache: CacheOutcome::Bypass,
                completion,
                stats,
            }
        } else if let Some(k) = query.limit {
            let mut sink = TopKSink::new(k);
            let (stats, completion) = self.drive(query, &qtokens, &mut sink);
            let matches = sink.into_matches();
            QueryOutcome {
                count: matches.len(),
                matches: Arc::new(matches),
                cache: CacheOutcome::Bypass,
                completion,
                stats,
            }
        } else {
            let mut out = Vec::new();
            let mut sink = CollectSink::new(&mut out);
            let (stats, completion) = self.drive(query, &qtokens, &mut sink);
            out.sort_unstable();
            QueryOutcome {
                count: out.len(),
                matches: Arc::new(out),
                cache: CacheOutcome::Bypass,
                completion,
                stats,
            }
        };
        if let (Some(obs), Some(t0)) = (&self.obs, started) {
            obs.record_request(
                &outcome.stats,
                &outcome.completion,
                t0.elapsed().as_nanos() as u64,
            );
        }
        outcome
    }

    /// Streams verified matches into a caller sink as the scan finds
    /// them — `(id, scaled distance)` with
    /// `dist = round((1 − sim)·`[`DIST_SCALE`]`)`, so the sink's
    /// bound/saturation steering speaks the same integer language as the
    /// edit-distance lane. The returned outcome carries the stats and
    /// completion; its match vector is empty (matches went to the sink).
    ///
    /// [`DIST_SCALE`]: crate::metric::DIST_SCALE
    pub fn search_streaming(&self, query: &SetQuery, sink: &mut dyn MatchSink) -> QueryOutcome {
        let started = self.obs.as_ref().map(|_| Instant::now());
        let qtokens = self.query_tokens(query.text);
        let (stats, completion) = self.drive(query, &qtokens, sink);
        let outcome = QueryOutcome {
            matches: Arc::new(Vec::new()),
            count: stats.segment_matches as usize,
            cache: CacheOutcome::Bypass,
            completion,
            stats,
        };
        if let (Some(obs), Some(t0)) = (&self.obs, started) {
            obs.record_request(
                &outcome.stats,
                &outcome.completion,
                t0.elapsed().as_nanos() as u64,
            );
        }
        outcome
    }

    /// The query's token array: distinct tokens as `(sort key, raw id)`,
    /// sorted. Unknown tokens (absent from the dictionary) get sentinel
    /// entries that sort first and carry no postings.
    fn query_tokens(&self, text: &[u8]) -> Vec<(i64, u32)> {
        let toks = self.mode.token_set(text);
        let mut out = Vec::with_capacity(toks.len());
        let mut unknown_key = UNKNOWN_KEY;
        for tok in toks {
            match self.dict.lookup(tok) {
                Some(seg) => out.push((self.key_of[seg.raw() as usize], seg.raw())),
                None => {
                    out.push((unknown_key, UNKNOWN_RAW));
                    unknown_key += 1;
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Wraps the sink in the request's budget (if any) and probes.
    fn drive<S: MatchSink + ?Sized>(
        &self,
        query: &SetQuery,
        qtokens: &[(i64, u32)],
        sink: &mut S,
    ) -> (ExecStats, Completion) {
        match query.budget.as_ref().filter(|b| !b.is_unlimited()) {
            Some(budget) => {
                let mut guarded = BudgetSink::new(sink);
                if let Some(n) = budget.max_verifications() {
                    guarded = guarded.with_max_verifications(n);
                }
                if let Some(n) = budget.max_candidates() {
                    guarded = guarded.with_max_candidates(n);
                }
                if let Some((source, at)) = budget.deadline() {
                    guarded = guarded.with_deadline(source, at);
                }
                let stats = self.probe(query.metric, query.threshold, qtokens, &mut guarded);
                let completion = match guarded.tripped() {
                    Some(reason) => Completion::Truncated { reason },
                    None => Completion::Complete,
                };
                (stats, completion)
            }
            None => (
                self.probe(query.metric, query.threshold, qtokens, sink),
                Completion::Complete,
            ),
        }
    }

    /// The filter-verify scan. Stats mapping onto [`ExecStats`]:
    /// `candidates` = posting entries screened, `verifications` = overlap
    /// verifications started (an early reject counts as one),
    /// `segment_matches` = matches pushed (the short lane's counters stay
    /// 0 — sets have no short lane).
    fn probe<S: MatchSink + ?Sized>(
        &self,
        metric: SetMetric,
        threshold: f64,
        qtokens: &[(i64, u32)],
        sink: &mut S,
    ) -> ExecStats {
        let mut stats = ExecStats::default();
        let sx = qtokens.len();
        if sx == 0 {
            return stats;
        }
        let tau0 = SetMetric::distance_bound(threshold);
        let mut t_eff = threshold;
        let mut alphas = AlphaTable::new(metric, t_eff, sx, self.max_size);
        let mut prefix = alphas.prefix(sx);
        let mut qbits: Option<Vec<u64>> = None;
        let mut seen: FxHashSet<StringId> = FxHashSet::default();
        let mut jx = 0;
        'scan: while jx < prefix {
            // Top-k steering: a full heap tightens the distance bound,
            // which reads back as a higher effective threshold — shorter
            // prefix, narrower size interval. Matches are still accepted
            // at the *requested* threshold; steering only skips
            // candidates that could not displace the current k-th best.
            let bound = sink.bound(tau0);
            if bound < tau0 {
                let tightened = SetMetric::tightened_threshold(threshold, bound);
                if tightened > t_eff {
                    t_eff = tightened;
                    alphas = AlphaTable::new(metric, t_eff, sx, self.max_size);
                    prefix = alphas.prefix(sx);
                    if jx >= prefix {
                        break;
                    }
                }
            }
            let (_, raw) = qtokens[jx];
            if raw == UNKNOWN_RAW {
                jx += 1;
                continue;
            }
            // Positional prefix condition: if |x ∩ y| ≥ α, the rarest
            // shared token sits within the α-suffix margin in *both*
            // sorted arrays, so some posting entry passes. The x side,
            // jx + α(sy) ≤ sx, holds for exactly the sizes up to `top`.
            let top = alphas.largest_within(sx - jx);
            for &(y, jy) in &self.postings[raw as usize] {
                sink.note_candidate();
                if sink.saturated() {
                    break 'scan; // budget tripped: this candidate is skipped
                }
                stats.candidates += 1;
                let Some(ytokens) = self.records[y as usize].as_deref() else {
                    continue;
                };
                let sy = ytokens.len();
                if sy < alphas.lo || sy > top || jy as usize + alphas.alpha(sy) > sy {
                    continue;
                }
                if !seen.insert(y) {
                    continue;
                }
                sink.note_verification();
                if sink.saturated() {
                    break 'scan; // budget tripped: this verification is skipped
                }
                stats.verifications += 1;
                let qbits = qbits.get_or_insert_with(|| self.query_bitmap(qtokens));
                let need = metric.min_overlap(threshold, sx, sy);
                let Some(o) = overlap_reaching(qbits, ytokens, need) else {
                    continue;
                };
                if metric.accepts(threshold, o, sx, sy) {
                    let dist = metric.scaled_distance(o, sx, sy);
                    sink.push(y, dist);
                    stats.segment_matches += 1;
                    if sink.saturated() {
                        break 'scan;
                    }
                }
            }
            jx += 1;
        }
        stats
    }

    /// The query's known tokens as a bitmap over the dense raw token ids
    /// (⌈dictionary size / 64⌉ words). Unknown query tokens have no id
    /// and so no bit: they can never equal an indexed token.
    fn query_bitmap(&self, qtokens: &[(i64, u32)]) -> Vec<u64> {
        let mut bits = vec![0u64; self.key_of.len().div_ceil(64)];
        for &(_, raw) in qtokens {
            if raw != UNKNOWN_RAW {
                bits[raw as usize / 64] |= 1 << (raw % 64);
            }
        }
        bits
    }

    fn record_index_gauges(&self) {
        if let Some(obs) = &self.obs {
            obs.record_index(self.live, self.dict.len(), self.posting_entries);
        }
    }
}

/// `|x ∩ y|` with `x` given as its token bitmap, or `None` as soon as
/// `y`'s misses exceed `sy − need`: the overlap can then no longer reach
/// `need`.
fn overlap_reaching(xbits: &[u64], ytokens: &[SegId], need: usize) -> Option<usize> {
    let slack = ytokens.len().saturating_sub(need);
    let mut misses = 0;
    for seg in ytokens {
        let raw = seg.raw() as usize;
        if xbits[raw / 64] & (1 << (raw % 64)) == 0 {
            misses += 1;
            if misses > slack {
                return None;
            }
        }
    }
    Some(ytokens.len() - misses)
}

/// One query's required overlaps `α(sx, sy)` at one threshold, for every
/// candidate size `sy` the probe can admit: `[lo, hi]` from the metric's
/// size interval, cut at the largest record ever inserted and, for
/// [`SetMetric::Overlap`], at `sx`, where α stops growing. A size past
/// the cut either belongs to no record or, under `Overlap`, shares the
/// last entry's α.
struct AlphaTable {
    lo: usize,
    hi: usize,
    /// `alpha[i]` = α(sx, lo + i); never empty.
    alpha: Vec<usize>,
}

impl AlphaTable {
    fn new(metric: SetMetric, t: f64, sx: usize, max_size: usize) -> Self {
        let (lo, hi) = metric.size_range(t, sx);
        let last = match metric {
            SetMetric::Overlap => sx,
            SetMetric::Jaccard | SetMetric::Cosine => hi,
        };
        let last = last.min(max_size).max(lo);
        let alpha = (lo..=last)
            .map(|sy| metric.min_overlap(t, sx, sy))
            .collect();
        Self { lo, hi, alpha }
    }

    fn alpha(&self, sy: usize) -> usize {
        self.alpha[(sy - self.lo).min(self.alpha.len() - 1)]
    }

    /// Probe prefix: the required overlap is smallest against the
    /// smallest admissible candidate, so `sx − α(sx, lo) + 1` positions
    /// suffice for every candidate size at once.
    fn prefix(&self, sx: usize) -> usize {
        sx - self.alpha[0].min(sx) + 1
    }

    /// The largest admissible size with `α ≤ room`, or `lo − 1` when
    /// none is. α never decreases in `sy`, so the sizes that fit form a
    /// prefix of the table; when the whole table fits, so does every
    /// size past the cut.
    fn largest_within(&self, room: usize) -> usize {
        let fit = self.alpha.partition_point(|&a| a <= room);
        if fit == self.alpha.len() {
            self.hi
        } else {
            self.lo + fit - 1
        }
    }
}

impl std::fmt::Debug for SetSimilarityIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetSimilarityIndex")
            .field("mode", &self.mode)
            .field("records", &self.live)
            .field("tokens", &self.dict.len())
            .field("posting_entries", &self.posting_entries)
            .finish_non_exhaustive()
    }
}
