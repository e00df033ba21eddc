//! Match sinks: where verified matches go, and how they steer the search.
//!
//! Every probing path (the join drivers' probing core, the
//! [`crate::search::SearchIndex`] query loop, and the online subsystem's
//! execution engine) ends the same way: a candidate survives the
//! verification cascade and a `(string id, distance)` match is produced.
//! What happens *next* used to be hard-coded as "push onto a `Vec`" — which
//! forces full materialization even when the caller wants only a count, the
//! k closest matches, or a streaming callback.
//!
//! [`MatchSink`] inverts that: verification reports matches *into* a sink,
//! and the sink reports back two pieces of steering information:
//!
//! * [`MatchSink::bound`] — the largest distance still worth verifying.
//!   A full top-k heap whose worst entry is at distance `w` has no use for
//!   matches beyond `w`, so verification can tighten its DP budgets and
//!   skip candidates whose length difference already exceeds `w`. The
//!   bound must never grow over a query's lifetime (sinks only get more
//!   selective), which is what makes skipping permanently sound.
//! * [`MatchSink::saturated`] — true once additional matches cannot change
//!   the outcome (e.g. a capped count that has reached its cap), letting
//!   the whole probe loop stop early.
//!
//! Collecting sinks ([`CollectSink`], [`FnSink`]) leave both hooks at their
//! defaults, so threading a sink through a previously `Vec`-pushing path
//! changes nothing byte-for-byte.
//!
//! Beyond matches, probing paths also report *work* into the sink —
//! [`MatchSink::note_candidate`] per scanned posting entry and
//! [`MatchSink::note_verification`] per edit-distance computation, both
//! default no-ops. [`BudgetSink`] composes over any inner sink and turns
//! those events into hard per-query execution caps: once a cap (or a
//! [`TickSource`] deadline) is exhausted, the next unit of work trips the
//! budget, the sink reports [`saturated`](MatchSink::saturated), and the
//! probing loop aborts through the exact same early-exit path a capped
//! count uses. A tripped budget therefore *always* means work was
//! actually skipped.
//!
//! [`BudgetPool`] builds on those hooks for the serving layer: an
//! atomically drained *shared* budget. Several queries (a whole request
//! batch, possibly on several threads) draw their work units from one
//! pool through a per-query [`PoolBudgetSink`], so the batch's total work
//! is capped even though each query trips — and reports its truncation —
//! individually.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sj_common::StringId;

use crate::topk::TopK;

/// Receiver of verified `(id, exact distance)` matches; see the module
/// docs for the steering contract.
pub trait MatchSink {
    /// Records a verified match. `dist` is exact and `≤ bound(tau)` as of
    /// the verification that produced it; the sink is free to discard the
    /// match (a full top-k heap does). One caveat: the batch joiners'
    /// *extension*-verified probe path reports upper-bound certificates,
    /// not exact distances — bounded sinks must not be combined with it
    /// (see the note in `probe.rs`); every exact-distance path
    /// (`core::search`, the online engine) upholds the contract.
    fn push(&mut self, id: StringId, dist: usize);

    /// The largest distance still worth verifying, given the query
    /// threshold `tau`. Must be `≤ tau` and non-increasing over a query.
    fn bound(&self, tau: usize) -> usize {
        tau
    }

    /// True once further matches cannot change the outcome; probing stops.
    fn saturated(&self) -> bool {
        false
    }

    /// Reports that a posting-list candidate is about to be screened.
    /// Called *before* the candidate is processed; a sink that saturates
    /// in response (a tripped candidate budget) causes that candidate —
    /// and everything after it — to be skipped. Default: no-op.
    fn note_candidate(&mut self) {}

    /// Reports that an edit-distance verification (short-lane check or
    /// segment-lane cascade entry) is about to run. Called *before* the
    /// work happens; a sink that saturates in response (a tripped
    /// verification budget or an expired deadline) causes that
    /// verification — and everything after it — to be skipped.
    /// Default: no-op.
    fn note_verification(&mut self) {}
}

/// Appends every match to a borrowed vector — the classic materializing
/// path. No bound tightening, no early exit.
pub struct CollectSink<'a> {
    out: &'a mut Vec<(StringId, usize)>,
}

impl<'a> CollectSink<'a> {
    /// A sink appending to `out`.
    pub fn new(out: &'a mut Vec<(StringId, usize)>) -> Self {
        Self { out }
    }
}

impl MatchSink for CollectSink<'_> {
    fn push(&mut self, id: StringId, dist: usize) {
        self.out.push((id, dist));
    }
}

/// Forwards every match to a closure (streaming consumers; also how the
/// join drivers' emit-closures ride the sink-shaped probing core).
pub struct FnSink<F>(pub F);

impl<F: FnMut(StringId, usize)> MatchSink for FnSink<F> {
    fn push(&mut self, id: StringId, dist: usize) {
        (self.0)(id, dist);
    }
}

/// Counts matches without materializing them; an optional cap turns it
/// into an existence test that saturates (and stops the search) as soon as
/// the cap is reached.
pub struct CountSink {
    count: usize,
    cap: Option<usize>,
}

impl CountSink {
    /// Counts every match.
    pub fn new() -> Self {
        Self {
            count: 0,
            cap: None,
        }
    }

    /// Counts up to `cap` matches, then reports saturation ("are there at
    /// least `cap` matches?" without finding the rest).
    pub fn capped(cap: usize) -> Self {
        Self {
            count: 0,
            cap: Some(cap),
        }
    }

    /// Matches counted so far.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl Default for CountSink {
    fn default() -> Self {
        Self::new()
    }
}

impl MatchSink for CountSink {
    fn push(&mut self, _id: StringId, _dist: usize) {
        self.count += 1;
    }

    fn saturated(&self) -> bool {
        self.cap.is_some_and(|cap| self.count >= cap)
    }
}

/// Keeps the `k` matches smallest by `(distance, id)` on a bounded heap
/// ([`TopK`]); once full, its [`MatchSink::bound`] shrinks to the worst
/// retained distance, so verification stops paying for matches that could
/// never displace anything.
pub struct TopKSink {
    top: TopK<(usize, StringId)>,
}

impl TopKSink {
    /// A sink retaining the `k` best matches.
    pub fn new(k: usize) -> Self {
        Self { top: TopK::new(k) }
    }

    /// The retained matches as `(id, distance)`, ascending by
    /// `(distance, id)`.
    pub fn into_matches(self) -> Vec<(StringId, usize)> {
        self.top
            .into_sorted_vec()
            .into_iter()
            .map(|(d, id)| (id, d))
            .collect()
    }
}

impl MatchSink for TopKSink {
    fn push(&mut self, id: StringId, dist: usize) {
        self.top.offer((dist, id));
    }

    fn bound(&self, tau: usize) -> usize {
        match self.top.worst() {
            Some(&(worst, _)) => tau.min(worst),
            None => tau,
        }
    }

    fn saturated(&self) -> bool {
        // k = 0 retains nothing: no match can change the outcome.
        self.top.k() == 0
    }
}

/// A monotonic tick counter for budget deadlines.
///
/// Deadlines are expressed against an abstract tick source rather than a
/// wall clock so tests stay deterministic: production code can back one
/// with a timer thread or a coarse clock, tests use [`ManualTicks`] and
/// advance it by hand. Ticks are unitless — only `ticks() >= expires_at`
/// comparisons matter.
pub trait TickSource: Send + Sync {
    /// The current tick. Must be monotonically non-decreasing.
    fn ticks(&self) -> u64;
}

/// A [`TickSource`] advanced explicitly — the deterministic clock for
/// tests and for callers that count work units themselves.
///
/// ```
/// use passjoin::sink::{ManualTicks, TickSource};
///
/// let clock = ManualTicks::new();
/// assert_eq!(clock.ticks(), 0);
/// clock.advance(5);
/// assert_eq!(clock.ticks(), 5);
/// ```
#[derive(Debug, Default)]
pub struct ManualTicks(AtomicU64);

impl ManualTicks {
    /// A clock starting at tick 0.
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Advances the clock by `n` ticks.
    pub fn advance(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the clock to an absolute tick (must not move it backwards).
    pub fn set(&self, ticks: u64) {
        self.0.fetch_max(ticks, Ordering::Relaxed);
    }
}

impl TickSource for ManualTicks {
    fn ticks(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a [`BudgetSink`] stopped a scan early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// The verification cap was exhausted.
    VerificationCap,
    /// The candidate cap was exhausted.
    CandidateCap,
    /// The tick-source deadline expired.
    Deadline,
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TruncationReason::VerificationCap => "verification cap",
            TruncationReason::CandidateCap => "candidate cap",
            TruncationReason::Deadline => "deadline",
        })
    }
}

/// Composes execution budgets over any inner sink: caps on candidates
/// scanned and verifications run, plus an optional [`TickSource`]
/// deadline. Matches, bounds, and saturation delegate to the inner sink;
/// the budget only *adds* reasons to stop.
///
/// A cap of `N` permits exactly `N` units of work — the `N+1`th unit
/// trips the budget *before* it runs, so [`BudgetSink::tripped`] implies
/// that at least one unit of work was skipped (never "the budget happened
/// to equal the total work").
///
/// ```
/// use passjoin::sink::{BudgetSink, CollectSink, MatchSink};
///
/// let mut out = Vec::new();
/// let mut inner = CollectSink::new(&mut out);
/// let mut sink = BudgetSink::new(&mut inner).with_max_verifications(2);
/// sink.note_verification(); // 1st unit: allowed
/// sink.note_verification(); // 2nd unit: allowed
/// assert!(!sink.saturated());
/// sink.note_verification(); // 3rd unit: trips, must be skipped
/// assert!(sink.saturated());
/// assert!(sink.tripped().is_some());
/// ```
pub struct BudgetSink<'a, S: MatchSink + ?Sized> {
    inner: &'a mut S,
    max_verifications: Option<u64>,
    max_candidates: Option<u64>,
    deadline: Option<(&'a dyn TickSource, u64)>,
    verifications: u64,
    candidates: u64,
    tripped: Option<TruncationReason>,
}

impl<'a, S: MatchSink + ?Sized> BudgetSink<'a, S> {
    /// An unlimited budget over `inner` (never trips until a cap or
    /// deadline is attached).
    pub fn new(inner: &'a mut S) -> Self {
        Self {
            inner,
            max_verifications: None,
            max_candidates: None,
            deadline: None,
            verifications: 0,
            candidates: 0,
            tripped: None,
        }
    }

    /// Permits at most `n` verifications (edit-distance computations,
    /// short-lane and segment-lane alike).
    pub fn with_max_verifications(mut self, n: u64) -> Self {
        self.max_verifications = Some(n);
        self
    }

    /// Permits at most `n` scanned posting-list candidates.
    pub fn with_max_candidates(mut self, n: u64) -> Self {
        self.max_candidates = Some(n);
        self
    }

    /// Trips once `source.ticks() >= expires_at` (checked before each
    /// verification, the unit deadlines exist to bound).
    pub fn with_deadline(mut self, source: &'a dyn TickSource, expires_at: u64) -> Self {
        self.deadline = Some((source, expires_at));
        self
    }

    /// Why the budget stopped the scan, if it did.
    pub fn tripped(&self) -> Option<TruncationReason> {
        self.tripped
    }

    /// Verifications actually permitted so far.
    pub fn verifications(&self) -> u64 {
        self.verifications
    }

    /// Candidates actually permitted so far.
    pub fn candidates(&self) -> u64 {
        self.candidates
    }
}

impl<S: MatchSink + ?Sized> MatchSink for BudgetSink<'_, S> {
    fn push(&mut self, id: StringId, dist: usize) {
        self.inner.push(id, dist);
    }

    fn bound(&self, tau: usize) -> usize {
        self.inner.bound(tau)
    }

    fn saturated(&self) -> bool {
        self.tripped.is_some() || self.inner.saturated()
    }

    fn note_candidate(&mut self) {
        if self.tripped.is_some() {
            return;
        }
        if self
            .max_candidates
            .is_some_and(|cap| self.candidates >= cap)
        {
            self.tripped = Some(TruncationReason::CandidateCap);
            return;
        }
        self.candidates += 1;
        self.inner.note_candidate();
    }

    fn note_verification(&mut self) {
        if self.tripped.is_some() {
            return;
        }
        if let Some((source, expires_at)) = self.deadline {
            if source.ticks() >= expires_at {
                self.tripped = Some(TruncationReason::Deadline);
                return;
            }
        }
        if self
            .max_verifications
            .is_some_and(|cap| self.verifications >= cap)
        {
            self.tripped = Some(TruncationReason::VerificationCap);
            return;
        }
        self.verifications += 1;
        self.inner.note_verification();
    }
}

/// A *shared* execution budget drained atomically by several queries at
/// once — the batch-level counterpart of [`BudgetSink`].
///
/// A pool holds the remaining verification/candidate allowance (and an
/// optional deadline) behind atomics; each query in the batch wraps its
/// own sink in a [`PoolBudgetSink`] borrowing the pool, so the *sum* of
/// work across the batch is capped at exactly the pool's caps no matter
/// how the engine interleaves or parallelizes the queries. Draining is
/// first-come-first-served: queries that run early (or fast) consume more
/// of the pool than stragglers — the guarantee is the total, not a fair
/// split.
///
/// Like [`BudgetSink`], a cap of `N` permits exactly `N` units: the
/// `N+1`th request fails without consuming anything, so a tripped query
/// always skipped real work.
pub struct BudgetPool {
    verifications_left: Option<AtomicU64>,
    candidates_left: Option<AtomicU64>,
    deadline: Option<(Arc<dyn TickSource>, u64)>,
}

impl std::fmt::Debug for BudgetPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BudgetPool")
            .field("verifications_left", &self.verifications_left())
            .field("candidates_left", &self.candidates_left())
            .field("deadline_at", &self.deadline.as_ref().map(|(_, at)| *at))
            .finish()
    }
}

impl BudgetPool {
    /// An unlimited pool (never denies work until a cap or deadline is
    /// attached).
    pub fn new() -> Self {
        Self {
            verifications_left: None,
            candidates_left: None,
            deadline: None,
        }
    }

    /// Permits at most `n` verifications *in total* across every query
    /// drawing from this pool.
    pub fn with_max_verifications(mut self, n: u64) -> Self {
        self.verifications_left = Some(AtomicU64::new(n));
        self
    }

    /// Permits at most `n` scanned candidates in total.
    pub fn with_max_candidates(mut self, n: u64) -> Self {
        self.candidates_left = Some(AtomicU64::new(n));
        self
    }

    /// Denies all further work once `source.ticks() >= expires_at` — a
    /// whole-batch deadline (checked before each verification, like
    /// [`BudgetSink`]'s).
    pub fn with_deadline(mut self, source: Arc<dyn TickSource>, expires_at: u64) -> Self {
        self.deadline = Some((source, expires_at));
        self
    }

    /// True if no cap or deadline is attached (the pool can never trip).
    pub fn is_unlimited(&self) -> bool {
        self.verifications_left.is_none()
            && self.candidates_left.is_none()
            && self.deadline.is_none()
    }

    /// Remaining verification allowance (`None` = uncapped).
    pub fn verifications_left(&self) -> Option<u64> {
        self.verifications_left
            .as_ref()
            .map(|left| left.load(Ordering::Relaxed))
    }

    /// Remaining candidate allowance (`None` = uncapped).
    pub fn candidates_left(&self) -> Option<u64> {
        self.candidates_left
            .as_ref()
            .map(|left| left.load(Ordering::Relaxed))
    }

    /// Claims one unit from `left`, failing (without consuming) at zero.
    fn take(left: &AtomicU64) -> bool {
        left.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Claims permission for one verification; on denial reports why.
    pub fn take_verification(&self) -> Result<(), TruncationReason> {
        if let Some((source, expires_at)) = &self.deadline {
            if source.ticks() >= *expires_at {
                return Err(TruncationReason::Deadline);
            }
        }
        match &self.verifications_left {
            Some(left) if !Self::take(left) => Err(TruncationReason::VerificationCap),
            _ => Ok(()),
        }
    }

    /// Claims permission for one candidate scan; on denial reports why.
    pub fn take_candidate(&self) -> Result<(), TruncationReason> {
        match &self.candidates_left {
            Some(left) if !Self::take(left) => Err(TruncationReason::CandidateCap),
            _ => Ok(()),
        }
    }
}

impl Default for BudgetPool {
    fn default() -> Self {
        Self::new()
    }
}

/// One query's view of a shared [`BudgetPool`]: mirrors [`BudgetSink`]
/// (work hooks ask permission *before* the unit runs; denial saturates
/// this sink and records the reason locally) but the allowance lives in
/// the pool, shared with every sibling sink.
pub struct PoolBudgetSink<'a, S: MatchSink + ?Sized> {
    inner: &'a mut S,
    pool: &'a BudgetPool,
    tripped: Option<TruncationReason>,
}

impl<'a, S: MatchSink + ?Sized> PoolBudgetSink<'a, S> {
    /// A sink drawing `inner`'s work allowance from `pool`.
    pub fn new(inner: &'a mut S, pool: &'a BudgetPool) -> Self {
        Self {
            inner,
            pool,
            tripped: None,
        }
    }

    /// Why the pool stopped *this query's* scan, if it did.
    pub fn tripped(&self) -> Option<TruncationReason> {
        self.tripped
    }
}

impl<S: MatchSink + ?Sized> MatchSink for PoolBudgetSink<'_, S> {
    fn push(&mut self, id: StringId, dist: usize) {
        self.inner.push(id, dist);
    }

    fn bound(&self, tau: usize) -> usize {
        self.inner.bound(tau)
    }

    fn saturated(&self) -> bool {
        self.tripped.is_some() || self.inner.saturated()
    }

    fn note_candidate(&mut self) {
        if self.tripped.is_some() {
            return;
        }
        match self.pool.take_candidate() {
            Ok(()) => self.inner.note_candidate(),
            Err(reason) => self.tripped = Some(reason),
        }
    }

    fn note_verification(&mut self) {
        if self.tripped.is_some() {
            return;
        }
        match self.pool.take_verification() {
            Ok(()) => self.inner.note_verification(),
            Err(reason) => self.tripped = Some(reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_sink_appends() {
        let mut out = vec![(9, 9)];
        let mut sink = CollectSink::new(&mut out);
        sink.push(1, 2);
        assert_eq!(sink.bound(5), 5);
        assert!(!sink.saturated());
        assert_eq!(out, vec![(9, 9), (1, 2)]);
    }

    #[test]
    fn fn_sink_streams() {
        let mut seen = Vec::new();
        let mut sink = FnSink(|id, d| seen.push((id, d)));
        sink.push(3, 1);
        sink.push(4, 0);
        assert_eq!(seen, vec![(3, 1), (4, 0)]);
    }

    #[test]
    fn count_sink_counts_and_saturates() {
        let mut sink = CountSink::new();
        for id in 0..5 {
            sink.push(id, 0);
        }
        assert_eq!(sink.count(), 5);
        assert!(!sink.saturated());

        let mut capped = CountSink::capped(2);
        assert!(!capped.saturated());
        capped.push(0, 0);
        assert!(!capped.saturated());
        capped.push(1, 0);
        assert!(capped.saturated());
        assert_eq!(capped.count(), 2);
    }

    #[test]
    fn topk_sink_keeps_best_and_tightens_bound() {
        let mut sink = TopKSink::new(2);
        assert_eq!(sink.bound(4), 4, "not full: no tightening");
        sink.push(10, 3);
        sink.push(11, 1);
        assert_eq!(sink.bound(4), 3, "full: bound is the worst kept");
        sink.push(12, 2); // displaces (3, 10)
        assert_eq!(sink.bound(4), 2);
        sink.push(13, 4); // ignored
        assert_eq!(sink.into_matches(), vec![(11, 1), (12, 2)]);
    }

    #[test]
    fn topk_ties_break_by_id() {
        let mut sink = TopKSink::new(2);
        sink.push(7, 1);
        sink.push(5, 1);
        sink.push(3, 1);
        assert_eq!(sink.into_matches(), vec![(3, 1), (5, 1)]);
    }

    #[test]
    fn topk_zero_is_saturated() {
        let sink = TopKSink::new(0);
        assert!(sink.saturated());
        assert!(sink.into_matches().is_empty());
    }

    #[test]
    fn budget_sink_permits_exactly_the_cap() {
        let mut inner = CountSink::new();
        let mut sink = BudgetSink::new(&mut inner).with_max_candidates(3);
        for _ in 0..3 {
            sink.note_candidate();
            assert!(!sink.saturated());
        }
        assert_eq!(sink.candidates(), 3);
        sink.note_candidate(); // the 4th unit trips and is not counted
        assert!(sink.saturated());
        assert_eq!(sink.candidates(), 3);
        assert_eq!(sink.tripped(), Some(TruncationReason::CandidateCap));
        // Once tripped, further events are ignored, the reason sticks.
        sink.note_verification();
        assert_eq!(sink.tripped(), Some(TruncationReason::CandidateCap));
    }

    #[test]
    fn budget_sink_delegates_matches_and_steering() {
        let mut inner = TopKSink::new(1);
        let mut sink = BudgetSink::new(&mut inner).with_max_verifications(10);
        sink.push(4, 2);
        assert_eq!(sink.bound(5), 2, "inner top-k bound shines through");
        sink.push(9, 1);
        assert!(!sink.saturated());
        assert_eq!(inner.into_matches(), vec![(9, 1)]);
    }

    #[test]
    fn budget_sink_saturates_when_inner_does() {
        let mut inner = CountSink::capped(1);
        let mut sink = BudgetSink::new(&mut inner);
        assert!(!sink.saturated());
        sink.push(1, 0);
        assert!(sink.saturated(), "inner saturation passes through");
        assert_eq!(sink.tripped(), None, "…without claiming a budget trip");
    }

    #[test]
    fn deadline_trips_deterministically() {
        let clock = ManualTicks::new();
        let mut inner = CountSink::new();
        let mut sink = BudgetSink::new(&mut inner).with_deadline(&clock, 2);
        sink.note_verification();
        assert!(!sink.saturated(), "tick 0 < 2");
        clock.advance(1);
        sink.note_verification();
        assert!(!sink.saturated(), "tick 1 < 2");
        clock.set(2);
        sink.note_verification();
        assert!(sink.saturated());
        assert_eq!(sink.tripped(), Some(TruncationReason::Deadline));
        assert_eq!(sink.verifications(), 2);
    }

    #[test]
    fn truncation_reasons_display() {
        assert_eq!(
            TruncationReason::VerificationCap.to_string(),
            "verification cap"
        );
        assert_eq!(TruncationReason::CandidateCap.to_string(), "candidate cap");
        assert_eq!(TruncationReason::Deadline.to_string(), "deadline");
    }

    #[test]
    fn budget_pool_permits_exactly_the_cap_across_sinks() {
        let pool = BudgetPool::new().with_max_verifications(5);
        let mut a_inner = CountSink::new();
        let mut b_inner = CountSink::new();
        let mut a = PoolBudgetSink::new(&mut a_inner, &pool);
        let mut b = PoolBudgetSink::new(&mut b_inner, &pool);
        // Interleave: 3 units through a, 2 through b — the pool is dry.
        a.note_verification();
        b.note_verification();
        a.note_verification();
        b.note_verification();
        a.note_verification();
        assert!(!a.saturated() && !b.saturated());
        assert_eq!(pool.verifications_left(), Some(0));
        // The 6th unit trips whichever sink asks, without consuming.
        b.note_verification();
        assert!(b.saturated());
        assert_eq!(b.tripped(), Some(TruncationReason::VerificationCap));
        a.note_verification();
        assert_eq!(a.tripped(), Some(TruncationReason::VerificationCap));
        assert_eq!(pool.verifications_left(), Some(0));
    }

    #[test]
    fn budget_pool_candidate_cap_and_unlimited() {
        assert!(BudgetPool::new().is_unlimited());
        let pool = BudgetPool::new().with_max_candidates(1);
        assert!(!pool.is_unlimited());
        assert_eq!(pool.take_candidate(), Ok(()));
        assert_eq!(pool.take_candidate(), Err(TruncationReason::CandidateCap));
        assert_eq!(pool.take_verification(), Ok(()), "verifications uncapped");
        assert_eq!(pool.candidates_left(), Some(0));
        assert_eq!(pool.verifications_left(), None);
    }

    #[test]
    fn budget_pool_deadline_denies_verifications() {
        let clock = Arc::new(ManualTicks::new());
        let pool = BudgetPool::new().with_deadline(clock.clone(), 2);
        assert_eq!(pool.take_verification(), Ok(()));
        clock.set(2);
        assert_eq!(pool.take_verification(), Err(TruncationReason::Deadline));
        let mut inner = CountSink::new();
        let mut sink = PoolBudgetSink::new(&mut inner, &pool);
        sink.note_verification();
        assert!(sink.saturated());
        assert_eq!(sink.tripped(), Some(TruncationReason::Deadline));
    }

    #[test]
    fn pool_budget_sink_delegates_matches_and_steering() {
        let pool = BudgetPool::new().with_max_verifications(10);
        let mut inner = TopKSink::new(1);
        let mut sink = PoolBudgetSink::new(&mut inner, &pool);
        sink.push(4, 2);
        assert_eq!(sink.bound(5), 2, "inner top-k bound shines through");
        sink.push(9, 1);
        assert!(!sink.saturated());
        assert_eq!(inner.into_matches(), vec![(9, 1)]);
    }
}
