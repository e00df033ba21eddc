//! The one execution engine behind every query surface.
//!
//! [`OnlineIndex`](crate::OnlineIndex) and [`Snapshot`](crate::Snapshot)
//! used to carry near-duplicate `query*` method families; both now
//! implement [`Queryable`] by handing the engine an [`ExecSource`] (their
//! shared inner state, epoch, and — for the index — its cache), and
//! everything else lives here exactly once:
//!
//! * **Length plans** — a query's control skeleton (which `(length, slot)`
//!   indices to visit, each slot's segment spec and selection window)
//!   depends only on `(query length, τ)`, so batches sort by that key and
//!   rebuild the plan only when it changes ([`LengthPlan`]).
//! * **Sinks** — verification reports matches into a
//!   [`passjoin::sink::MatchSink`] chosen by the request shape: collect
//!   (plain), bounded top-k heap (`limit`, tightening verification as it
//!   fills), or a counter (`count_only`, saturating at an optional cap).
//!   [`Queryable::search_streaming`] instead threads a *caller-supplied*
//!   sink down to the verification loop, so matches are pushed as they
//!   are verified rather than buffered per query.
//! * **Budgets** — a request's [`ExecBudget`](crate::ExecBudget) wraps
//!   the shape sink in a composing [`passjoin::sink::BudgetSink`]; a
//!   tripped cap aborts probing through the sink saturation path and the
//!   outcome reports [`Completion::Truncated`](crate::Completion) with
//!   the reason.
//! * **Batch dispatch** — mixed-τ batches are first-class; workers pull
//!   blocks of the `(length, τ)`-sorted order off an atomic cursor, keep
//!   private scratch (dedup stamps, DP rows), and write position-aligned
//!   outcomes.
//! * **Cache integration** — cacheable requests (plain shape, policy
//!   [`CachePolicy::Use`](crate::CachePolicy::Use)) consult the source's
//!   epoch-validated LRU cache; the per-request outcome is reported in
//!   [`QueryOutcome::cache`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use passjoin::online_window;
use passjoin::partition::{PartitionScheme, SegmentSpec};
use passjoin::sink::{
    BudgetPool, BudgetSink, CollectSink, CountSink, MatchSink, PoolBudgetSink, TopKSink,
    TruncationReason,
};
use passjoin_obs::TraceEvent;
use sj_common::StringId;

use crate::cache::QueryCache;
use crate::index::{Inner, KeyBackend, QueryScratch, SegmentStore};
use crate::obs::{trace, EngineObs};
use crate::request::{
    CacheOutcome, CachePolicy, Completion, ExecBudget, ExecStats, Parallelism, QueryOutcome,
    SearchRequest, SearchResponse,
};
use crate::Match;

/// Queries per cursor pull in parallel batches: large enough to amortize
/// the atomic, small enough to balance length-skewed tails.
const BLOCK: usize = 32;

/// A similarity-search source the engine can execute requests against.
///
/// Implemented by [`OnlineIndex`](crate::OnlineIndex) and
/// [`Snapshot`](crate::Snapshot); everything except
/// [`exec_source`](Queryable::exec_source) is provided, so both types
/// share one execution path by construction. The trait is object-safe —
/// callers that serve either a live index or a point-in-time snapshot can
/// hold `&dyn Queryable` (the CLI does).
///
/// ```
/// use passjoin_online::{OnlineIndex, Queryable, SearchRequest};
///
/// let mut index = OnlineIndex::new(1);
/// index.insert(b"vldb");
/// let snapshot = index.snapshot();
///
/// // One binding serves both source kinds.
/// let source: &dyn Queryable = &snapshot;
/// let outcome = source.search(&SearchRequest::new(b"pvldb", 1));
/// assert_eq!(*outcome.matches, vec![(0, 1)]);
/// ```
pub trait Queryable {
    /// The engine-facing view of this source (internal plumbing; exposed
    /// only so the provided methods can be defined once on the trait).
    ///
    /// Single-state sources ([`OnlineIndex`](crate::OnlineIndex),
    /// [`Snapshot`](crate::Snapshot)) return `Some`; a *composite* source
    /// with no single inner state — like the shard router
    /// ([`ShardedIndex`](crate::ShardedIndex)) — returns `None` and must
    /// override every provided method that reads the source (the defaults
    /// panic loudly on a `None` source rather than answering from the
    /// wrong state). [`Queryable::matches`] and [`Queryable::is_empty`]
    /// are defined on top of `search` and `len`, so they need no override.
    #[doc(hidden)]
    fn exec_source(&self) -> Option<ExecSource<'_>>;

    /// Executes one request; see [`SearchRequest`] for the knobs and
    /// [`QueryOutcome`] for what comes back.
    fn search(&self, req: &SearchRequest) -> QueryOutcome {
        let source = require_source(self.exec_source());
        let mut plans = PlanSlot::default();
        let mut scratch = QueryScratch::default();
        run_view(&source, ReqView::of(req), &mut plans, &mut scratch)
    }

    /// Executes a batch of requests — thresholds, limits, and cache
    /// policies may differ per request — sharing substring-selection work
    /// across requests with equal `(query length, τ)` and parallelizing
    /// across the strongest [`Parallelism`](crate::Parallelism) hint in
    /// the batch. Outcomes align with `reqs` by position.
    fn search_batch(&self, reqs: &[SearchRequest]) -> SearchResponse {
        run_batch(&require_source(self.exec_source()), reqs)
    }

    /// Executes one request, *pushing* matches into a caller-supplied
    /// [`MatchSink`] as they are verified instead of buffering them — the
    /// serving-layer shape: a server can emit each match onto the wire
    /// the moment verification accepts it.
    ///
    /// Semantics per request shape (the emitted multiset always equals
    /// [`Queryable::search`]'s matches for the same request):
    ///
    /// * **plain** — `(id, exact distance)` pairs are pushed in
    ///   verification order (*not* id order; sort the collected result to
    ///   compare with the buffered path);
    /// * **`with_limit(k)`** — retention is global (a later match can
    ///   displace an earlier one), so emission is deferred: the heap runs
    ///   to completion, then flushes into the sink in `(distance, id)`
    ///   order — exactly the buffered top-k result;
    /// * **`count_only`** — nothing is emitted; the count is in the
    ///   returned outcome.
    ///
    /// The caller's sink steers the scan like any engine sink (its
    /// `bound` tightens verification, `saturated` aborts probing), and
    /// the request's [`ExecBudget`](crate::ExecBudget) applies on top.
    /// The returned [`QueryOutcome`] carries the emitted-match count,
    /// stats, completion, and cache outcome, but an empty `matches`
    /// vector — the matches went to the sink. Cache hits replay the
    /// cached result (id order); computed streaming results are **never
    /// stored** in the cache, because the engine cannot prove the
    /// caller's sink did not steer or truncate the scan.
    ///
    /// ```
    /// use passjoin_online::{CollectSink, OnlineIndex, Queryable, SearchRequest};
    ///
    /// let mut index = OnlineIndex::new(1);
    /// index.insert(b"vldb");
    /// index.insert(b"pvldb");
    ///
    /// let mut emitted = Vec::new();
    /// let outcome = {
    ///     let mut sink = CollectSink::new(&mut emitted);
    ///     index.search_streaming(&SearchRequest::new(b"vldb", 1), &mut sink)
    /// };
    /// emitted.sort_unstable(); // plain emissions arrive in verification order
    /// assert_eq!(emitted, vec![(0, 0), (1, 1)]);
    /// assert_eq!(outcome.count, 2);
    /// assert!(outcome.matches.is_empty()); // the matches went to the sink
    /// ```
    fn search_streaming(&self, req: &SearchRequest, sink: &mut dyn MatchSink) -> QueryOutcome {
        let source = require_source(self.exec_source());
        let mut plans = PlanSlot::default();
        let mut scratch = QueryScratch::default();
        run_view_streaming(&source, ReqView::of(req), sink, &mut plans, &mut scratch)
    }

    /// Streaming over a batch: every request is executed with
    /// [`Queryable::search_streaming`] semantics, pushing its matches into
    /// its **own** sink — `sinks[i]` receives request `i`'s matches. With
    /// one sink per request nothing forces a global emission order, so the
    /// batch parallelizes exactly like [`Queryable::search_batch`]: the
    /// strongest [`Parallelism`](crate::Parallelism) hint in the batch
    /// wins and workers pull `(length, τ)`-sorted blocks off one cursor.
    /// Each request's own emissions keep the per-request streaming
    /// contract (plain in verification order, top-k flushed in
    /// `(distance, id)` order); different requests may interleave
    /// arbitrarily in time. Outcomes align with `reqs` by position.
    ///
    /// # Panics
    ///
    /// Panics if `sinks.len() != reqs.len()`.
    ///
    /// ```
    /// use passjoin::sink::MatchSink;
    /// use passjoin_online::{CollectSink, OnlineIndex, Queryable, SearchRequest};
    ///
    /// let mut index = OnlineIndex::new(1);
    /// index.insert(b"vldb");
    ///
    /// let (mut a, mut b) = (Vec::new(), Vec::new());
    /// let response = {
    ///     let mut sink_a = CollectSink::new(&mut a);
    ///     let mut sink_b = CollectSink::new(&mut b);
    ///     let mut sinks: [&mut (dyn MatchSink + Send); 2] = [&mut sink_a, &mut sink_b];
    ///     index.search_batch_streaming(
    ///         &[SearchRequest::new(b"vldb", 0), SearchRequest::new(b"pvldb", 1)],
    ///         &mut sinks,
    ///     )
    /// };
    /// assert_eq!(a, vec![(0, 0)]);
    /// assert_eq!(b, vec![(0, 1)]);
    /// assert_eq!(response.outcomes.len(), 2);
    /// ```
    fn search_batch_streaming(
        &self,
        reqs: &[SearchRequest],
        sinks: &mut [&mut (dyn MatchSink + Send)],
    ) -> SearchResponse {
        assert_eq!(
            reqs.len(),
            sinks.len(),
            "search_batch_streaming needs exactly one sink per request"
        );
        let source = require_source(self.exec_source());
        let views: Vec<ReqView<'_>> = reqs.iter().map(ReqView::of).collect();
        let threads = batch_threads(reqs);
        SearchResponse {
            outcomes: run_views_streaming(&source, &views, sinks, threads),
        }
    }

    /// Convenience for the plain one-query case: all matches within `tau`
    /// as `(id, exact distance)`, ascending by id. Runs
    /// `search(&SearchRequest::borrowed(query, tau))`, so it is counted and
    /// traced like any other request.
    fn matches(&self, query: &[u8], tau: usize) -> Vec<Match> {
        self.search(&SearchRequest::borrowed(query, tau))
            .into_matches()
    }

    /// The largest per-query threshold this source supports.
    fn tau_max(&self) -> usize {
        require_source(self.exec_source()).inner.tau_max()
    }

    /// Which store the source's segment lane is in.
    fn key_backend(&self) -> KeyBackend {
        require_source(self.exec_source())
            .inner
            .segments()
            .backend()
    }

    /// Live strings visible to queries.
    fn len(&self) -> usize {
        require_source(self.exec_source()).inner.len()
    }

    /// True if no live strings are visible.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The mutation epoch of the visible state.
    fn epoch(&self) -> u64 {
        require_source(self.exec_source()).epoch
    }
}

/// Unwraps [`Queryable::exec_source`] for the provided methods. A source
/// returning `None` (a composite, like [`ShardedIndex`](crate::ShardedIndex))
/// must override every provided method; reaching this panic means one was
/// missed.
fn require_source(source: Option<ExecSource<'_>>) -> ExecSource<'_> {
    source.expect(
        "Queryable::exec_source returned None: a composite source must override \
         every provided Queryable method",
    )
}

/// The engine's view of a query source: shared index state, the epoch it
/// is valid for, and (for sources that have one) the query cache.
#[doc(hidden)]
pub struct ExecSource<'a> {
    pub(crate) inner: &'a Inner,
    pub(crate) epoch: u64,
    pub(crate) cache: Option<&'a Mutex<QueryCache>>,
    /// Observability bundle; `None` keeps the whole engine uninstrumented
    /// (one branch per request, nothing on the probe/verify loops).
    pub(crate) obs: Option<&'a EngineObs>,
}

/// Per-request phase accumulator for the instrumented path: collects the
/// explicitly measured plan and cache-lock time (verification time rides
/// in the scratch's timer, probing is the remainder — see
/// [`EngineObs::record_request`]).
struct ReqObs<'a> {
    obs: &'a EngineObs,
    plan_ns: u64,
    cache_ns: u64,
}

impl ReqObs<'_> {
    fn time_plan<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = self.obs.clock.now_nanos();
        let out = f();
        self.plan_ns += self.obs.clock.now_nanos().saturating_sub(start);
        out
    }

    fn time_cache<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = self.obs.clock.now_nanos();
        let out = f();
        self.cache_ns += self.obs.clock.now_nanos().saturating_sub(start);
        out
    }
}

/// The engine-internal view of one request: borrowed bytes plus the shape
/// flags, with unlimited budgets and pools already filtered out.
#[derive(Clone, Copy)]
struct ReqView<'a> {
    query: &'a [u8],
    tau: usize,
    limit: Option<usize>,
    count_only: bool,
    use_cache: bool,
    budget: Option<&'a ExecBudget>,
    /// Shared batch pool ([`crate::BatchBudget`]); unlimited pools are
    /// filtered out like unlimited budgets.
    pool: Option<&'a BudgetPool>,
}

impl<'a> ReqView<'a> {
    fn of(req: &'a SearchRequest) -> Self {
        Self {
            query: req.query(),
            tau: req.tau(),
            limit: req.limit(),
            count_only: req.is_count_only(),
            use_cache: req.cache() == CachePolicy::Use,
            budget: req.budget().filter(|b| !b.is_unlimited()),
            pool: req
                .batch_budget()
                .map(|b| b.pool().as_ref())
                .filter(|p| !p.is_unlimited()),
        }
    }

    /// The unshaped full-result request — the only shape the cache
    /// *stores* (keyed by `(query, τ)`); shaped requests can still be
    /// *derived* from a stored full result on a hit.
    fn is_plain(&self) -> bool {
        self.limit.is_none() && !self.count_only
    }
}

/// The per-`(query length, τ)` probing skeleton: every `(l, slot)` pair
/// with a resident index, its segment spec, and the selection window.
pub(crate) struct LengthPlan {
    query_len: usize,
    tau: usize,
    /// `(l, slot, segment, window)` — windows are already clamped.
    probes: Vec<(usize, usize, SegmentSpec, std::ops::Range<usize>)>,
    /// Short-lane ids passing the τ length filter for this query length.
    short_ids: Vec<StringId>,
}

impl LengthPlan {
    pub(crate) fn build(inner: &Inner, query_len: usize, tau: usize) -> Self {
        let tau_max = inner.tau_max();
        assert!(
            tau <= tau_max,
            "query τ = {tau} exceeds the index's τ_max = {tau_max}"
        );
        let mut probes = Vec::new();
        let lmin = (tau_max + 1).max(query_len.saturating_sub(tau));
        let lmax = (query_len + tau).min(inner.segments().max_len());
        for l in lmin..=lmax {
            if !inner.segments().has_length(l) {
                continue;
            }
            for slot in 1..=tau_max + 1 {
                let seg = PartitionScheme::Even.segment(l, tau_max, slot);
                let window = online_window(query_len, l, seg, slot, tau_max, tau);
                if !window.is_empty() {
                    probes.push((l, slot, seg, window));
                }
            }
        }
        let short_ids = inner
            .short_ids()
            .iter()
            .copied()
            .filter(|&id| {
                let len = inner.get(id).expect("short lane holds live ids").len();
                query_len.abs_diff(len) <= tau
            })
            .collect();
        Self {
            query_len,
            tau,
            probes,
            short_ids,
        }
    }
}

/// A one-plan cache keyed by `(query length, τ)` — batches sorted by that
/// key rebuild only at group boundaries.
#[derive(Default)]
struct PlanSlot(Option<LengthPlan>);

impl PlanSlot {
    fn get(&mut self, inner: &Inner, query_len: usize, tau: usize) -> &LengthPlan {
        let stale = !matches!(&self.0, Some(p) if p.query_len == query_len && p.tau == tau);
        if stale {
            self.0 = Some(LengthPlan::build(inner, query_len, tau));
        }
        self.0.as_ref().expect("plan was just ensured")
    }
}

/// Runs one query's plan into a sink. The sink steers the scan: probes
/// whose length falls outside its current bound are skipped, verification
/// budgets tighten to the bound, and a saturated sink stops everything.
/// Work is announced through the sink's note hooks *before* it runs, so
/// a [`BudgetSink`] can cap it. Collecting sinks (bound = τ, never
/// saturated, no-op hooks) see every match within τ.
fn run_plan<S: MatchSink + ?Sized>(
    inner: &Inner,
    plan: &LengthPlan,
    query: &[u8],
    tau: usize,
    scratch: &mut QueryScratch,
    sink: &mut S,
    stats: &mut ExecStats,
) {
    debug_assert_eq!(query.len(), plan.query_len);
    debug_assert_eq!(tau, plan.tau);
    scratch.begin(inner.universe());
    for &rid in &plan.short_ids {
        if sink.saturated() {
            return;
        }
        let bound = sink.bound(tau);
        let r = inner.get(rid).expect("short lane holds live ids");
        if query.len().abs_diff(r.len()) > bound {
            continue; // plan filtered at τ; the sink may demand tighter
        }
        sink.note_verification();
        if sink.saturated() {
            return; // budget tripped: this check is skipped
        }
        stats.short_checked += 1;
        if let Some(d) = scratch.exact_within(r, query, bound) {
            stats.short_matches += 1;
            sink.push(rid, d);
        }
    }
    for (l, slot, seg, window) in &plan.probes {
        if sink.saturated() {
            return;
        }
        if l.abs_diff(query.len()) > sink.bound(tau) {
            continue; // no match of this length can beat the sink's worst
        }
        probe_occurrences(
            inner,
            query,
            tau,
            *l,
            *slot,
            *seg,
            window.clone(),
            scratch,
            sink,
            stats,
        );
    }
}

/// Probes one `(length, slot)` inverted index with the substrings of
/// `query` in `window`, screening candidates with the extension cascade
/// and pushing `(id, exact distance)` matches into the sink.
///
/// The owned store hashes each substring; the direct store binary-searches
/// it against the sorted run table in the snapshot buffer.
#[allow(clippy::too_many_arguments)]
fn probe_occurrences<S: MatchSink + ?Sized>(
    inner: &Inner,
    query: &[u8],
    tau: usize,
    l: usize,
    slot: usize,
    seg: SegmentSpec,
    window: std::ops::Range<usize>,
    scratch: &mut QueryScratch,
    sink: &mut S,
    stats: &mut ExecStats,
) {
    match inner.segments() {
        SegmentStore::Owned(map) => {
            for p in window {
                if sink.saturated() {
                    return;
                }
                let w = &query[p..p + seg.len];
                let Some(list) = map.probe(l, slot, w) else {
                    continue;
                };
                screen_list(inner, query, tau, slot, seg, p, list, scratch, sink, stats);
            }
        }
        SegmentStore::Direct(index) => {
            for p in window {
                if sink.saturated() {
                    return;
                }
                let w = &query[p..p + seg.len];
                let Some(list) = index.probe(l, slot, w) else {
                    continue;
                };
                screen_list(inner, query, tau, slot, seg, p, list, scratch, sink, stats);
            }
        }
    }
}

/// Screens one inverted list's candidates with the extension cascade
/// (§5.2) and pushes accepted `(id, exact distance)` matches.
#[allow(clippy::too_many_arguments)]
fn screen_list<S: MatchSink + ?Sized>(
    inner: &Inner,
    query: &[u8],
    tau: usize,
    slot: usize,
    seg: SegmentSpec,
    p: usize,
    list: &[StringId],
    scratch: &mut QueryScratch,
    sink: &mut S,
    stats: &mut ExecStats,
) {
    for &rid in list {
        if sink.saturated() {
            return;
        }
        sink.note_candidate();
        if sink.saturated() {
            return; // budget tripped: this candidate is skipped
        }
        stats.candidates += 1;
        if scratch.resolved.contains(rid) {
            continue; // already accepted this query
        }
        // The sink's bound only shrinks, so rejecting against the value
        // read here can never lose a match a later bound would accept.
        let bound = sink.bound(tau);
        // On a validated index every posting references a live id; with
        // deferred validation (instant opens) a hostile file's postings
        // may point at a span that reads as a tombstone — skipping is the
        // query-safe answer, and flagging the file is the background
        // verifier's job.
        let Some(r) = inner.get(rid) else {
            continue;
        };
        if r.len().abs_diff(query.len()) > bound {
            continue; // selection guaranteed ≤ τ; the bound is tighter
        }
        sink.note_verification();
        if sink.saturated() {
            return; // budget tripped: this verification is skipped
        }
        stats.verifications += 1;
        // Extension cascade (§5.2) under mixed budgets: the partition
        // geometry contributes i−1 / τ_max+1−i, the query budget
        // contributes the sink bound — the pigeonhole witness satisfies
        // both, so screening on their minimum never rejects a match the
        // sink could still use (see the index module docs).
        let tau_left = (slot - 1).min(bound);
        let Some(d_left) = scratch.exact_within(&r[..seg.start], &query[..p], tau_left) else {
            continue; // this occurrence fails; others may pass
        };
        let tau_right = (inner.tau_max() + 1 - slot).min(bound - d_left);
        if scratch
            .exact_within(&r[seg.end()..], &query[p + seg.len..], tau_right)
            .is_none()
        {
            continue;
        }
        // The alignment certifies ed ≤ bound; report it exactly.
        let d = scratch
            .exact_within(r, query, bound)
            .expect("extension certificate implies distance <= bound");
        scratch.resolved.insert(rid);
        stats.segment_matches += 1;
        sink.push(rid, d);
    }
}

/// Runs one query's plan under the view's per-request [`BudgetSink`];
/// returns why the *request* budget tripped, if it did (the inner sink —
/// possibly a [`PoolBudgetSink`] — keeps its own trip state).
fn run_request_budgeted<S: MatchSink + ?Sized>(
    inner: &Inner,
    plan: &LengthPlan,
    view: ReqView<'_>,
    budget: &ExecBudget,
    scratch: &mut QueryScratch,
    sink: &mut S,
    stats: &mut ExecStats,
) -> Option<TruncationReason> {
    let mut budgeted = BudgetSink::new(sink);
    if let Some(n) = budget.max_verifications() {
        budgeted = budgeted.with_max_verifications(n);
    }
    if let Some(n) = budget.max_candidates() {
        budgeted = budgeted.with_max_candidates(n);
    }
    if let Some((source, expires_at)) = budget.deadline() {
        budgeted = budgeted.with_deadline(source, expires_at);
    }
    run_plan(
        inner,
        plan,
        view.query,
        view.tau,
        scratch,
        &mut budgeted,
        stats,
    );
    budgeted.tripped()
}

/// Runs one query's plan into `sink`, wrapped in a [`BudgetSink`] when
/// the view carries a budget and a [`PoolBudgetSink`] when it carries a
/// shared batch pool (a unit of work must then clear both), and reports
/// whether the scan completed or a budget tripped. Unbudgeted views take
/// the raw path — no adapter, no per-event overhead.
fn run_plan_budgeted<S: MatchSink + ?Sized>(
    inner: &Inner,
    plan: &LengthPlan,
    view: ReqView<'_>,
    scratch: &mut QueryScratch,
    sink: &mut S,
    stats: &mut ExecStats,
) -> Completion {
    let tripped = match (view.budget, view.pool) {
        (None, None) => {
            run_plan(inner, plan, view.query, view.tau, scratch, sink, stats);
            None
        }
        (Some(budget), None) => {
            run_request_budgeted(inner, plan, view, budget, scratch, sink, stats)
        }
        (budget, Some(pool)) => {
            let mut pooled = PoolBudgetSink::new(sink, pool);
            let own = match budget {
                Some(budget) => {
                    run_request_budgeted(inner, plan, view, budget, scratch, &mut pooled, stats)
                }
                None => {
                    run_plan(
                        inner,
                        plan,
                        view.query,
                        view.tau,
                        scratch,
                        &mut pooled,
                        stats,
                    );
                    None
                }
            };
            // The request's own trip takes precedence over the pool's.
            own.or(pooled.tripped())
        }
    };
    match tripped {
        Some(reason) => Completion::Truncated { reason },
        None => Completion::Complete,
    }
}

/// Fetches (building if stale) the view's [`LengthPlan`], attributing the
/// build time to the plan phase and firing [`TraceEvent::PlanBuilt`] when
/// the request is instrumented.
fn timed_plan<'p>(
    inner: &Inner,
    view: ReqView<'_>,
    plans: &'p mut PlanSlot,
    robs: Option<&mut ReqObs<'_>>,
) -> &'p LengthPlan {
    match robs {
        Some(r) => {
            let plan = r.time_plan(|| plans.get(inner, view.query.len(), view.tau));
            trace(
                r.obs,
                TraceEvent::PlanBuilt {
                    query_len: view.query.len() as u64,
                    tau: view.tau as u64,
                    probes: plan.probes.len() as u64,
                    short_ids: plan.short_ids.len() as u64,
                },
            );
            plan
        }
        None => plans.get(inner, view.query.len(), view.tau),
    }
}

/// Executes one view (no cache involvement), picking the sink from the
/// request shape.
fn execute_shaped(
    inner: &Inner,
    view: ReqView<'_>,
    plans: &mut PlanSlot,
    scratch: &mut QueryScratch,
    robs: Option<&mut ReqObs<'_>>,
) -> QueryOutcome {
    let plan = timed_plan(inner, view, plans, robs);
    let mut stats = ExecStats::default();
    if view.count_only {
        let mut sink = match view.limit {
            Some(cap) => CountSink::capped(cap),
            None => CountSink::new(),
        };
        let completion = run_plan_budgeted(inner, plan, view, scratch, &mut sink, &mut stats);
        QueryOutcome {
            matches: Arc::default(),
            count: sink.count(),
            cache: CacheOutcome::Bypass,
            completion,
            stats,
        }
    } else if let Some(k) = view.limit {
        let mut sink = TopKSink::new(k);
        let completion = run_plan_budgeted(inner, plan, view, scratch, &mut sink, &mut stats);
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
        let completion;
        {
            let mut sink = CollectSink::new(&mut out);
            completion = run_plan_budgeted(inner, plan, view, scratch, &mut sink, &mut stats);
        }
        out.sort_unstable();
        QueryOutcome {
            count: out.len(),
            matches: Arc::new(out),
            cache: CacheOutcome::Bypass,
            completion,
            stats,
        }
    }
}

pub(crate) fn lock(cache: &Mutex<QueryCache>) -> std::sync::MutexGuard<'_, QueryCache> {
    // A poisoned cache only means a panic elsewhere mid-operation; the
    // LRU's state is valid after every public call, so keep serving.
    cache.lock().unwrap_or_else(|e| e.into_inner())
}

/// Derives a shaped answer from a cached *full* result: plain requests
/// get the cached vector itself (zero-copy), top-k requests sort-truncate
/// it by `(distance, id)`, counts take its length (capped). Exactness is
/// free — only `Complete` full results are ever stored.
fn derive_from_cache(view: ReqView<'_>, hit: Arc<Vec<Match>>) -> QueryOutcome {
    let hit_outcome = |count, matches| QueryOutcome {
        count,
        matches,
        cache: CacheOutcome::Hit,
        completion: Completion::Complete,
        stats: ExecStats::default(),
    };
    if view.count_only {
        let count = match view.limit {
            Some(cap) => hit.len().min(cap),
            None => hit.len(),
        };
        hit_outcome(count, Arc::default())
    } else if let Some(k) = view.limit {
        let mut scored: Vec<(usize, StringId)> = hit.iter().map(|&(id, d)| (d, id)).collect();
        // Hot path (the cache exists for repeated queries): select the k
        // smallest in O(n), sort only those — not the whole result.
        if k == 0 {
            scored.clear();
        } else if k < scored.len() {
            scored.select_nth_unstable(k);
            scored.truncate(k);
        }
        scored.sort_unstable();
        let matches: Vec<Match> = scored.into_iter().map(|(d, id)| (id, d)).collect();
        hit_outcome(matches.len(), Arc::new(matches))
    } else {
        hit_outcome(hit.len(), hit)
    }
}

/// Executes one view, consulting the source's cache when the request
/// opts in. Any shape can be *answered* from a stored full result
/// ([`derive_from_cache`]); only plain [`Completion::Complete`] results
/// are ever *stored* — a truncated or shaped result must not masquerade
/// as the full answer for `(query, τ)`.
fn run_view(
    source: &ExecSource<'_>,
    view: ReqView<'_>,
    plans: &mut PlanSlot,
    scratch: &mut QueryScratch,
) -> QueryOutcome {
    let Some(obs) = source.obs else {
        return run_view_inner(source, view, plans, scratch, None);
    };
    let (outcome, _) = instrumented(obs, scratch, |scratch, robs| {
        run_view_inner(source, view, plans, scratch, Some(robs))
    });
    outcome
}

/// Brackets one request on the instrumented path: installs the scratch
/// verify timer, runs `f` with a fresh phase accumulator, and records the
/// finished request (counters, truncation, phase histograms, the
/// `VerifyFinished` trace event). Returns the outcome and total wall ns.
fn instrumented(
    obs: &EngineObs,
    scratch: &mut QueryScratch,
    f: impl FnOnce(&mut QueryScratch, &mut ReqObs<'_>) -> QueryOutcome,
) -> (QueryOutcome, u64) {
    let start = obs.clock.now_nanos();
    scratch.start_verify_timer(Arc::clone(&obs.clock));
    let mut robs = ReqObs {
        obs,
        plan_ns: 0,
        cache_ns: 0,
    };
    let outcome = f(scratch, &mut robs);
    let verify_ns = scratch.take_verify_ns();
    let total_ns = obs.clock.now_nanos().saturating_sub(start);
    obs.record_request(
        &outcome.stats,
        &outcome.completion,
        total_ns,
        robs.plan_ns,
        robs.cache_ns,
        verify_ns,
    );
    trace(
        obs,
        TraceEvent::VerifyFinished {
            candidates: outcome.stats.candidates,
            verifications: outcome.stats.verifications,
            matches: outcome.stats.segment_matches + outcome.stats.short_matches,
        },
    );
    (outcome, total_ns)
}

/// [`run_view`] minus the per-request bracketing — the shared body for
/// both the plain and instrumented paths (and for the shapes
/// [`run_view_streaming_inner`] answers buffered).
fn run_view_inner(
    source: &ExecSource<'_>,
    view: ReqView<'_>,
    plans: &mut PlanSlot,
    scratch: &mut QueryScratch,
    mut robs: Option<&mut ReqObs<'_>>,
) -> QueryOutcome {
    if view.use_cache {
        if let Some(cache) = source.cache {
            let hit = match robs.as_deref_mut() {
                Some(r) => {
                    let hit =
                        r.time_cache(|| lock(cache).lookup(view.query, view.tau, source.epoch));
                    trace(r.obs, TraceEvent::CacheLookup { hit: hit.is_some() });
                    hit
                }
                None => lock(cache).lookup(view.query, view.tau, source.epoch),
            };
            if let Some(hit) = hit {
                if let Some(r) = robs.as_deref_mut() {
                    if !view.is_plain() {
                        r.obs.cache_derived_hits.inc(1);
                    }
                }
                return derive_from_cache(view, hit);
            }
            // Compute outside the lock: parallel batch workers must not
            // serialize their probing on the cache mutex.
            let mut outcome =
                execute_shaped(source.inner, view, plans, scratch, robs.as_deref_mut());
            outcome.cache = CacheOutcome::Miss;
            if view.is_plain() && outcome.completion.is_complete() {
                let store = || {
                    lock(cache).insert(
                        view.query,
                        view.tau,
                        source.epoch,
                        Arc::clone(&outcome.matches),
                    )
                };
                match robs.as_deref_mut() {
                    Some(r) => {
                        r.time_cache(store);
                        trace(r.obs, TraceEvent::CacheStore);
                    }
                    None => store(),
                }
            }
            return outcome;
        }
    }
    execute_shaped(source.inner, view, plans, scratch, robs)
}

/// An adapter counting emissions into a caller-supplied streaming sink;
/// steering and work hooks pass straight through.
struct EmitCount<'s> {
    inner: &'s mut dyn MatchSink,
    emitted: usize,
}

impl MatchSink for EmitCount<'_> {
    fn push(&mut self, id: StringId, dist: usize) {
        self.emitted += 1;
        self.inner.push(id, dist);
    }

    fn bound(&self, tau: usize) -> usize {
        self.inner.bound(tau)
    }

    fn saturated(&self) -> bool {
        self.inner.saturated()
    }

    fn note_candidate(&mut self) {
        self.inner.note_candidate();
    }

    fn note_verification(&mut self) {
        self.inner.note_verification();
    }
}

/// Replays an already-materialized result into a streaming sink,
/// honouring its saturation; returns how many matches were emitted.
pub(crate) fn replay(matches: &[Match], sink: &mut dyn MatchSink) -> usize {
    let mut emitted = 0usize;
    for &(id, dist) in matches {
        if sink.saturated() {
            break;
        }
        sink.push(id, dist);
        emitted += 1;
    }
    emitted
}

/// Streams one plain view into the caller's sink (no cache involvement):
/// matches are pushed as verification accepts them.
fn stream_plain(
    inner: &Inner,
    view: ReqView<'_>,
    plans: &mut PlanSlot,
    scratch: &mut QueryScratch,
    sink: &mut dyn MatchSink,
    robs: Option<&mut ReqObs<'_>>,
) -> QueryOutcome {
    let plan = timed_plan(inner, view, plans, robs);
    let mut stats = ExecStats::default();
    let mut counting = EmitCount {
        inner: sink,
        emitted: 0,
    };
    let completion = run_plan_budgeted(inner, plan, view, scratch, &mut counting, &mut stats);
    QueryOutcome {
        matches: Arc::default(),
        count: counting.emitted,
        cache: CacheOutcome::Bypass,
        completion,
        stats,
    }
}

/// [`Queryable::search_streaming`]'s engine entry; see the trait method
/// for the per-shape semantics.
fn run_view_streaming(
    source: &ExecSource<'_>,
    view: ReqView<'_>,
    sink: &mut dyn MatchSink,
    plans: &mut PlanSlot,
    scratch: &mut QueryScratch,
) -> QueryOutcome {
    let Some(obs) = source.obs else {
        return run_view_streaming_inner(source, view, sink, plans, scratch, None);
    };
    let (outcome, _) = instrumented(obs, scratch, |scratch, robs| {
        run_view_streaming_inner(source, view, sink, plans, scratch, Some(robs))
    });
    if !view.count_only {
        trace(
            obs,
            TraceEvent::Flush {
                emitted: outcome.count as u64,
            },
        );
    }
    outcome
}

/// [`run_view_streaming`] minus the per-request bracketing. The buffered
/// shapes (count-only, top-k) route through [`run_view_inner`] — never
/// the instrumented [`run_view`] wrapper, which would double-record.
fn run_view_streaming_inner(
    source: &ExecSource<'_>,
    view: ReqView<'_>,
    sink: &mut dyn MatchSink,
    plans: &mut PlanSlot,
    scratch: &mut QueryScratch,
    mut robs: Option<&mut ReqObs<'_>>,
) -> QueryOutcome {
    // Count-only emits nothing: the buffered path *is* the streaming path.
    if view.count_only {
        return run_view_inner(source, view, plans, scratch, robs);
    }
    // Top-k retention is global, so emission defers to one flush of the
    // finished heap — including a flush of a derived/cached result.
    if view.limit.is_some() {
        let outcome = run_view_inner(source, view, plans, scratch, robs);
        let emitted = replay(&outcome.matches, sink);
        return QueryOutcome {
            count: emitted,
            matches: Arc::default(),
            ..outcome
        };
    }
    // Plain: serve hits by replaying the cached result; computed results
    // stream live and are never stored (the caller's sink may have
    // steered or truncated the scan in ways the engine cannot see).
    if view.use_cache {
        if let Some(cache) = source.cache {
            let hit = match robs.as_deref_mut() {
                Some(r) => {
                    let hit =
                        r.time_cache(|| lock(cache).lookup(view.query, view.tau, source.epoch));
                    trace(r.obs, TraceEvent::CacheLookup { hit: hit.is_some() });
                    hit
                }
                None => lock(cache).lookup(view.query, view.tau, source.epoch),
            };
            if let Some(hit) = hit {
                let emitted = replay(&hit, sink);
                return QueryOutcome {
                    count: emitted,
                    matches: Arc::default(),
                    cache: CacheOutcome::Hit,
                    completion: Completion::Complete,
                    stats: ExecStats::default(),
                };
            }
            let mut outcome = stream_plain(source.inner, view, plans, scratch, sink, robs);
            outcome.cache = CacheOutcome::Miss;
            return outcome;
        }
    }
    stream_plain(source.inner, view, plans, scratch, sink, robs)
}

/// Executes `views` with `threads` workers (callers resolve hints first),
/// returning position-aligned outcomes. Views are processed in
/// `(query length, τ)` order so plans are rebuilt only at group
/// boundaries; parallel workers pull blocks of that order off an atomic
/// cursor (dynamic balancing without a scheduler dependency).
fn run_views(source: &ExecSource<'_>, views: &[ReqView<'_>], threads: usize) -> Vec<QueryOutcome> {
    let mut order: Vec<u32> = (0..views.len() as u32).collect();
    // Stable within a group for cache friendliness of repeated queries.
    order.sort_by_key(|&i| {
        let v = &views[i as usize];
        (v.query.len(), v.tau)
    });

    if threads <= 1 || views.len() < 2 * BLOCK {
        let mut outcomes: Vec<QueryOutcome> = vec![QueryOutcome::default(); views.len()];
        let mut scratch = QueryScratch::default();
        let mut plans = PlanSlot::default();
        for &qi in &order {
            outcomes[qi as usize] = run_view(source, views[qi as usize], &mut plans, &mut scratch);
        }
        return outcomes;
    }

    let cursor = AtomicUsize::new(0);
    let order = &order;
    let mut outcomes: Vec<QueryOutcome> = vec![QueryOutcome::default(); views.len()];
    let collected = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(u32, QueryOutcome)> = Vec::new();
                let mut scratch = QueryScratch::default();
                let mut plans = PlanSlot::default();
                loop {
                    let start = cursor.fetch_add(BLOCK, Ordering::Relaxed);
                    if start >= order.len() {
                        break;
                    }
                    for &qi in &order[start..(start + BLOCK).min(order.len())] {
                        let outcome =
                            run_view(source, views[qi as usize], &mut plans, &mut scratch);
                        local.push((qi, outcome));
                    }
                }
                local
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("batch worker panicked"))
            .collect::<Vec<_>>()
    });
    for (qi, outcome) in collected {
        outcomes[qi as usize] = outcome;
    }
    outcomes
}

/// Streaming counterpart of [`run_views`]: the same `(length, τ)` sort
/// and block-cursor parallelism, but every view pushes into its own sink.
/// Sinks live behind per-request mutexes so the worker that pulls a view
/// can reach its sink across the scope; each mutex is locked exactly once
/// (requests never share a sink slot), so there is no contention.
fn run_views_streaming(
    source: &ExecSource<'_>,
    views: &[ReqView<'_>],
    sinks: &mut [&mut (dyn MatchSink + Send)],
    threads: usize,
) -> Vec<QueryOutcome> {
    debug_assert_eq!(views.len(), sinks.len());
    let mut order: Vec<u32> = (0..views.len() as u32).collect();
    order.sort_by_key(|&i| {
        let v = &views[i as usize];
        (v.query.len(), v.tau)
    });

    if threads <= 1 || views.len() < 2 * BLOCK {
        let mut outcomes: Vec<QueryOutcome> = vec![QueryOutcome::default(); views.len()];
        let mut scratch = QueryScratch::default();
        let mut plans = PlanSlot::default();
        for &qi in &order {
            let qi = qi as usize;
            outcomes[qi] =
                run_view_streaming(source, views[qi], &mut *sinks[qi], &mut plans, &mut scratch);
        }
        return outcomes;
    }

    let slots: Vec<Mutex<&mut (dyn MatchSink + Send)>> =
        sinks.iter_mut().map(|s| Mutex::new(&mut **s)).collect();
    let cursor = AtomicUsize::new(0);
    let order = &order;
    let slots = &slots;
    let mut outcomes: Vec<QueryOutcome> = vec![QueryOutcome::default(); views.len()];
    let collected = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(u32, QueryOutcome)> = Vec::new();
                let mut scratch = QueryScratch::default();
                let mut plans = PlanSlot::default();
                loop {
                    let start = cursor.fetch_add(BLOCK, Ordering::Relaxed);
                    if start >= order.len() {
                        break;
                    }
                    for &qi in &order[start..(start + BLOCK).min(order.len())] {
                        let mut sink = slots[qi as usize].lock().unwrap_or_else(|e| e.into_inner());
                        let outcome = run_view_streaming(
                            source,
                            views[qi as usize],
                            &mut **sink,
                            &mut plans,
                            &mut scratch,
                        );
                        drop(sink);
                        local.push((qi, outcome));
                    }
                }
                local
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("batch worker panicked"))
            .collect::<Vec<_>>()
    });
    for (qi, outcome) in collected {
        outcomes[qi as usize] = outcome;
    }
    outcomes
}

/// Resolves a batch's worker count from the strongest
/// [`Parallelism`] hint in it. `Auto` costs an
/// `available_parallelism()` syscall, so it is resolved once per batch,
/// never per request.
pub(crate) fn batch_threads(reqs: &[SearchRequest]) -> usize {
    let mut threads = 1usize;
    let mut auto = false;
    for req in reqs {
        match req.parallelism() {
            Parallelism::Serial => {}
            Parallelism::Auto | Parallelism::Threads(0) => auto = true,
            Parallelism::Threads(n) => threads = threads.max(n),
        }
    }
    if auto {
        threads = threads.max(Parallelism::Auto.resolve());
    }
    threads
}

/// [`Queryable::search_batch`]'s engine entry.
fn run_batch(source: &ExecSource<'_>, reqs: &[SearchRequest]) -> SearchResponse {
    let views: Vec<ReqView<'_>> = reqs.iter().map(ReqView::of).collect();
    let threads = batch_threads(reqs);
    SearchResponse {
        outcomes: run_views(source, &views, threads),
    }
}
