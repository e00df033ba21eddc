//! The one execution engine behind every query surface.
//!
//! [`OnlineIndex`](crate::OnlineIndex) and [`Snapshot`](crate::Snapshot)
//! implement [`Queryable`] by handing the engine an [`ExecSource`] (their
//! shared inner state, epoch, and — for the index — its cache and
//! observability). Every request, whatever its surface, runs through one
//! request function, and every batch through one batch driver:
//!
//! * **The request function** runs one request, buffered or streamed
//!   into a caller's sink, with or without observability attached. It
//!   consults the cache, executes the shaped scan, replays a buffered
//!   answer into a streamed request's sink, and — when an
//!   [`EngineObs`] is attached — times the plan, cache and verify phases
//!   and records the request. With none attached it reads no clock and
//!   fires no event.
//! * **Length plans** — a query's control skeleton (which `(length, slot)`
//!   indices to visit, each slot's segment spec and selection window)
//!   depends only on `(query length, τ)`, so batches sort by that key and
//!   rebuild the plan only when it changes ([`LengthPlan`]).
//! * **Sinks** — verification reports matches into a
//!   [`passjoin::sink::MatchSink`] chosen by the request shape: collect
//!   (plain), bounded top-k heap (`limit`, tightening verification as it
//!   fills), or a counter (`count_only`, saturating at an optional cap).
//!   A streamed plain request ([`Queryable::search_streaming`]) instead
//!   threads the *caller-supplied* sink down to the verification loop,
//!   so matches are pushed as they are verified rather than buffered.
//! * **Budgets** — a request's [`ExecBudget`](crate::ExecBudget) wraps
//!   the shape sink in a composing [`passjoin::sink::BudgetSink`]; a
//!   tripped cap aborts probing through the sink saturation path and the
//!   outcome reports [`Completion::Truncated`](crate::Completion) with
//!   the reason.
//! * **The batch driver** serves buffered and streamed batches alike.
//!   Mixed-τ batches are first-class; workers pull blocks of the
//!   `(length, τ)`-sorted order off an atomic cursor, keep private
//!   scratch (the query's accepted ids, DP rows), and write
//!   position-aligned outcomes. A worker's panic reaches the caller with
//!   its own message.
//! * **Cache integration** — cacheable requests (policy
//!   [`CachePolicy::Use`](crate::CachePolicy::Use)) consult the source's
//!   epoch-validated LRU cache, and any shape is derived from a stored
//!   full result; only plain, buffered, complete results are stored. The
//!   per-request outcome is reported in [`QueryOutcome::cache`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use editdist::signature_bound;
use passjoin::online_window;
use passjoin::partition::{PartitionScheme, SegmentSpec};
use passjoin::sink::{
    BudgetPool, BudgetSink, CollectSink, CountSink, MatchSink, PoolBudgetSink, TopKSink,
    TruncationReason,
};
use passjoin_obs::TraceEvent;
use sj_common::StringId;

use crate::cache::QueryCache;
use crate::index::{Inner, KeyBackend, QueryScratch};
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
        run_view(&source, ReqView::of(req), None, &mut plans, &mut scratch)
    }

    /// Executes a batch of requests — thresholds, limits, and cache
    /// policies may differ per request — sharing substring-selection work
    /// across requests with equal `(query length, τ)` and parallelizing
    /// across the strongest [`Parallelism`](crate::Parallelism) hint in
    /// the batch. Outcomes align with `reqs` by position.
    fn search_batch(&self, reqs: &[SearchRequest]) -> SearchResponse {
        let source = require_source(self.exec_source());
        let views: Vec<ReqView<'_>> = reqs.iter().map(ReqView::of).collect();
        let outcomes = run_views(&views, batch_threads(reqs), |i, plans, scratch| {
            run_view(&source, views[i], None, plans, scratch)
        });
        SearchResponse { outcomes }
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
        run_view(
            &source,
            ReqView::of(req),
            Some(sink),
            &mut plans,
            &mut scratch,
        )
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
        // Sinks sit behind per-request mutexes so the worker that pulls a
        // request can reach its sink across the scope; each mutex is
        // locked exactly once, so there is no contention.
        let slots: Vec<Mutex<&mut (dyn MatchSink + Send)>> =
            sinks.iter_mut().map(|s| Mutex::new(&mut **s)).collect();
        let outcomes = run_views(&views, batch_threads(reqs), |i, plans, scratch| {
            let mut sink = slots[i].lock().unwrap_or_else(|e| e.into_inner());
            run_view(&source, views[i], Some(&mut **sink), plans, scratch)
        });
        SearchResponse { outcomes }
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
    /// Observability bundle. With `None`, a request reads no clock and
    /// fires no trace event, and verification runs without a timer.
    pub(crate) obs: Option<&'a EngineObs>,
}

/// One request's observability: the attached [`EngineObs`], if any, the
/// request's start time, and the plan and cache-lock time measured so far
/// (verification time rides in the scratch's timer, probing is the
/// remainder — see [`EngineObs::record_request`]). With no observability
/// attached, every method runs its work untimed and fires nothing.
struct ReqObs<'a> {
    obs: Option<&'a EngineObs>,
    start_ns: u64,
    plan_ns: u64,
    cache_ns: u64,
}

impl<'a> ReqObs<'a> {
    /// Starts timing a request and installs the scratch's verify timer.
    fn start(obs: Option<&'a EngineObs>, scratch: &mut QueryScratch) -> Self {
        let start_ns = obs.map_or(0, |obs| {
            scratch.start_verify_timer(Arc::clone(&obs.clock));
            obs.clock.now_nanos()
        });
        Self {
            obs,
            start_ns,
            plan_ns: 0,
            cache_ns: 0,
        }
    }

    fn time_plan<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(self.obs, &mut self.plan_ns, f)
    }

    fn time_cache<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(self.obs, &mut self.cache_ns, f)
    }

    fn event(&self, event: TraceEvent) {
        if let Some(obs) = self.obs {
            trace(obs, event);
        }
    }

    fn derived_hit(&self) {
        if let Some(obs) = self.obs {
            obs.cache_derived_hits.inc(1);
        }
    }

    /// Records the finished request (counters, truncation, phase
    /// histograms) and fires `VerifyFinished`, then `Flush` when the
    /// request streamed its matches into a caller's sink.
    fn finish(self, outcome: &QueryOutcome, scratch: &mut QueryScratch, flushed: bool) {
        let Some(obs) = self.obs else {
            return;
        };
        let verify_ns = scratch.take_verify_ns();
        let total_ns = obs.clock.now_nanos().saturating_sub(self.start_ns);
        obs.record_request(
            &outcome.stats,
            &outcome.completion,
            total_ns,
            self.plan_ns,
            self.cache_ns,
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
        if flushed {
            trace(
                obs,
                TraceEvent::Flush {
                    emitted: outcome.count as u64,
                },
            );
        }
    }
}

/// Runs `f`, adding its wall time to `ns` when observability is attached.
fn timed<T>(obs: Option<&EngineObs>, ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let Some(obs) = obs else {
        return f();
    };
    let start = obs.clock.now_nanos();
    let out = f();
    *ns += obs.clock.now_nanos().saturating_sub(start);
    out
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
    scratch.begin(query);
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
/// `query` in `window`, screening candidates ([`screen_list`]) and
/// pushing `(id, exact distance)` matches into the sink.
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
    for p in window {
        if sink.saturated() {
            return;
        }
        let Some(list) = inner.segments().probe(l, slot, &query[p..p + seg.len]) else {
            continue;
        };
        screen_list(inner, query, tau, slot, seg, p, list, scratch, sink, stats);
    }
}

/// Screens one inverted list's candidates with the character signature
/// and then the extension cascade (§5.2), and pushes accepted
/// `(id, exact distance)` matches.
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
        if scratch.resolved.contains(&rid) {
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
        // One edit flips at most two signature bits, so this reject never
        // drops a match; it counts as a verification that failed early.
        if signature_bound(scratch.query_sig, inner.signature(rid, r)) > bound {
            continue;
        }
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
        // The alignment certifies ed ≤ bound; report it exactly. On a
        // corrupt file whose check is pending, an indexed segment may
        // disagree with the string read in place: then no certificate
        // holds, and the candidate fails.
        let Some(d) = scratch.exact_within(r, query, bound) else {
            continue;
        };
        scratch.resolved.insert(rid);
        stats.segment_matches += 1;
        sink.push(rid, d);
    }
}

/// Runs one query's plan into `sink`, wrapped in a [`BudgetSink`] when
/// the view carries a budget; returns why the *request* budget tripped,
/// if it did (the inner sink — possibly a [`PoolBudgetSink`] — keeps its
/// own trip state). Unbudgeted views take the raw path — no adapter, no
/// per-event overhead.
fn run_request_budgeted<S: MatchSink + ?Sized>(
    inner: &Inner,
    plan: &LengthPlan,
    view: ReqView<'_>,
    scratch: &mut QueryScratch,
    sink: &mut S,
    stats: &mut ExecStats,
) -> Option<TruncationReason> {
    let Some(budget) = view.budget else {
        run_plan(inner, plan, view.query, view.tau, scratch, sink, stats);
        return None;
    };
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

/// Runs one query's plan into `sink`, wrapped in a [`PoolBudgetSink`]
/// when the view carries a shared batch pool and then in the request's
/// own budget (a unit of work must clear both), and reports whether the
/// scan completed or a budget tripped.
fn run_plan_budgeted<S: MatchSink + ?Sized>(
    inner: &Inner,
    plan: &LengthPlan,
    view: ReqView<'_>,
    scratch: &mut QueryScratch,
    sink: &mut S,
    stats: &mut ExecStats,
) -> Completion {
    let tripped = match view.pool {
        Some(pool) => {
            let mut pooled = PoolBudgetSink::new(sink, pool);
            let own = run_request_budgeted(inner, plan, view, scratch, &mut pooled, stats);
            // The request's own trip takes precedence over the pool's.
            own.or(pooled.tripped())
        }
        None => run_request_budgeted(inner, plan, view, scratch, sink, stats),
    };
    match tripped {
        Some(reason) => Completion::Truncated { reason },
        None => Completion::Complete,
    }
}

/// Executes one view without the cache, with the sink its shape picks: a
/// counter, a top-k heap, the caller's sink of a streamed plain request
/// (`emit`), or a collector. Each arm keeps its concrete sink type, so
/// [`run_plan`] is compiled per shape. A streamed top-k request gets the
/// finished heap back buffered, for [`run_view`] to replay.
fn execute_shaped(
    inner: &Inner,
    view: ReqView<'_>,
    emit: Option<&mut (dyn MatchSink + '_)>,
    plans: &mut PlanSlot,
    scratch: &mut QueryScratch,
    robs: &mut ReqObs<'_>,
) -> QueryOutcome {
    let plan = robs.time_plan(|| plans.get(inner, view.query.len(), view.tau));
    robs.event(TraceEvent::PlanBuilt {
        query_len: view.query.len() as u64,
        tau: view.tau as u64,
        probes: plan.probes.len() as u64,
        short_ids: plan.short_ids.len() as u64,
    });
    let mut stats = ExecStats::default();
    let (count, matches, completion) = if view.count_only {
        let mut sink = match view.limit {
            Some(cap) => CountSink::capped(cap),
            None => CountSink::new(),
        };
        let completion = run_plan_budgeted(inner, plan, view, scratch, &mut sink, &mut stats);
        (sink.count(), Arc::default(), completion)
    } else if let Some(k) = view.limit {
        let mut sink = TopKSink::new(k);
        let completion = run_plan_budgeted(inner, plan, view, scratch, &mut sink, &mut stats);
        let matches = sink.into_matches();
        (matches.len(), Arc::new(matches), completion)
    } else if let Some(emit) = emit {
        let mut sink = EmitCount {
            inner: emit,
            emitted: 0,
        };
        let completion = run_plan_budgeted(inner, plan, view, scratch, &mut sink, &mut stats);
        (sink.emitted, Arc::default(), completion)
    } else {
        let mut out = Vec::new();
        let completion = run_plan_budgeted(
            inner,
            plan,
            view,
            scratch,
            &mut CollectSink::new(&mut out),
            &mut stats,
        );
        out.sort_unstable();
        (out.len(), Arc::new(out), completion)
    };
    QueryOutcome {
        matches,
        count,
        cache: CacheOutcome::Bypass,
        completion,
        stats,
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

/// Runs one request — the engine's only request function. `emit` is the
/// caller's sink of a streamed request ([`Queryable::search_streaming`]
/// has the per-shape semantics); `None` buffers the answer into the
/// outcome.
///
/// A request that opts into the cache is answered from a stored full
/// result when one exists ([`derive_from_cache`]). Only a plain, buffered,
/// [`Completion::Complete`] result is ever *stored*: a truncated or shaped
/// result must not masquerade as the full answer for `(query, τ)`, and a
/// streamed scan may have been steered or cut short by the caller's sink
/// in ways the engine cannot see.
fn run_view(
    source: &ExecSource<'_>,
    view: ReqView<'_>,
    mut emit: Option<&mut dyn MatchSink>,
    plans: &mut PlanSlot,
    scratch: &mut QueryScratch,
) -> QueryOutcome {
    let mut robs = ReqObs::start(source.obs, scratch);
    let cache = source.cache.filter(|_| view.use_cache);
    let hit = cache.and_then(|cache| {
        let hit = robs.time_cache(|| lock(cache).lookup(view.query, view.tau, source.epoch));
        robs.event(TraceEvent::CacheLookup { hit: hit.is_some() });
        hit
    });
    let mut outcome = match hit {
        Some(hit) => {
            if !view.is_plain() {
                robs.derived_hit();
            }
            derive_from_cache(view, hit)
        }
        None => {
            // Compute outside the lock: parallel batch workers must not
            // serialize their probing on the cache mutex.
            let mut outcome = execute_shaped(
                source.inner,
                view,
                emit.as_deref_mut(),
                plans,
                scratch,
                &mut robs,
            );
            if let Some(cache) = cache {
                outcome.cache = CacheOutcome::Miss;
                if view.is_plain() && emit.is_none() && outcome.completion.is_complete() {
                    robs.time_cache(|| {
                        lock(cache).insert(
                            view.query,
                            view.tau,
                            source.epoch,
                            Arc::clone(&outcome.matches),
                        )
                    });
                    robs.event(TraceEvent::CacheStore);
                }
            }
            outcome
        }
    };
    // A streamed request whose answer was buffered — a hit, or a finished
    // top-k heap (retention is global, so emission waits for the heap) —
    // replays it now. Count-only requests emit nothing.
    let flushed = emit.is_some() && !view.count_only;
    if let Some(sink) = emit {
        if flushed && (outcome.cache == CacheOutcome::Hit || view.limit.is_some()) {
            outcome.count = replay(&outcome.matches, sink);
            outcome.matches = Arc::default();
        }
    }
    robs.finish(&outcome, scratch, flushed);
    outcome
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

/// The batch driver: runs every view of a batch with `run(i, plans,
/// scratch)`, which answers `views[i]`, on `threads` workers (callers
/// resolve hints first), and returns position-aligned outcomes. Views
/// are processed in `(query length, τ)` order so plans are rebuilt only
/// at group boundaries; parallel workers pull blocks of that order off an
/// atomic cursor (dynamic balancing without a scheduler dependency), each
/// with its own plan slot and scratch. A worker's panic is resumed in the
/// caller with its own payload.
fn run_views(
    views: &[ReqView<'_>],
    threads: usize,
    run: impl Fn(usize, &mut PlanSlot, &mut QueryScratch) -> QueryOutcome + Sync,
) -> Vec<QueryOutcome> {
    let mut order: Vec<u32> = (0..views.len() as u32).collect();
    // Stable within a group for cache friendliness of repeated queries.
    order.sort_by_key(|&i| {
        let v = &views[i as usize];
        (v.query.len(), v.tau)
    });
    let mut outcomes: Vec<QueryOutcome> = vec![QueryOutcome::default(); views.len()];

    if threads <= 1 || views.len() < 2 * BLOCK {
        let mut scratch = QueryScratch::default();
        let mut plans = PlanSlot::default();
        for &qi in &order {
            outcomes[qi as usize] = run(qi as usize, &mut plans, &mut scratch);
        }
        return outcomes;
    }

    let cursor = AtomicUsize::new(0);
    let (order, cursor, run) = (&order, &cursor, &run);
    let collected = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut local: Vec<(u32, QueryOutcome)> = Vec::new();
                    let mut scratch = QueryScratch::default();
                    let mut plans = PlanSlot::default();
                    loop {
                        let start = cursor.fetch_add(BLOCK, Ordering::Relaxed);
                        if start >= order.len() {
                            break;
                        }
                        for &qi in &order[start..(start + BLOCK).min(order.len())] {
                            local.push((qi, run(qi as usize, &mut plans, &mut scratch)));
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
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
