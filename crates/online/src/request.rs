//! The typed query surface: [`SearchRequest`] in, [`QueryOutcome`] out.
//!
//! A request separates *what to retrieve* — the query bytes, a per-query
//! threshold, an optional top-k limit, count-only mode — from *how to
//! execute it* — cache policy and a parallelism hint for batches. Every
//! query path ([`crate::Queryable::search`], [`search_batch`],
//! [`crate::Queryable::matches`], the CLI, the server) compiles down to
//! requests executed by one engine (`crate::exec`), so a new serving
//! feature is a new request field, not a new method variant.
//!
//! Each answered request carries its own execution statistics
//! ([`ExecStats`]) and cache outcome, so callers can observe per-query
//! behaviour (candidates probed, verifications run, which lane produced
//! the matches) without global counters.
//!
//! Execution can also be *bounded*: an [`ExecBudget`] caps how many
//! candidates a request may scan and how many verifications it may run
//! (or attaches a tick-source deadline), and the outcome's
//! [`Completion`] says whether the answer is exact or was truncated —
//! and why. Only [`Completion::Complete`] full results ever enter the
//! query cache.
//!
//! ```
//! use passjoin_online::{OnlineIndex, Queryable, SearchRequest};
//!
//! let mut index = OnlineIndex::new(2);
//! index.insert(b"vldb");
//! index.insert(b"pvldb");
//! index.insert(b"sigmod");
//!
//! // Mixed thresholds, a top-k limit, and a count in one batch.
//! let batch = [
//!     SearchRequest::new(b"vldb", 1),
//!     SearchRequest::new(b"vldb", 2).with_limit(1),
//!     SearchRequest::new(b"sigmod", 2).count_only(),
//! ];
//! let response = index.search_batch(&batch);
//! assert_eq!(*response.outcomes[0].matches, vec![(0, 0), (1, 1)]);
//! assert_eq!(*response.outcomes[1].matches, vec![(0, 0)]); // closest only
//! assert_eq!(response.outcomes[2].count, 1);
//! assert!(response.outcomes[2].matches.is_empty()); // never materialized
//! ```

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use passjoin::sink::{TickSource, TruncationReason};

use crate::Match;

/// Whether a request consults the source's query cache.
///
/// Only plain collect requests (no [`limit`](SearchRequest::with_limit),
/// not [`count_only`](SearchRequest::count_only)) are cacheable — the
/// cache stores full results keyed by `(query bytes, τ)`. Requests that
/// opt in but cannot be served from a cache (shaped results, or a source
/// without a cache, like [`crate::Snapshot`]) record
/// [`CacheOutcome::Bypass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Never consult the cache (the default).
    #[default]
    Bypass,
    /// Serve from the cache when possible; store computed full results.
    Use,
}

/// How many worker threads a batch may use. The engine resolves one batch
/// to the strongest hint among its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded execution (the default).
    #[default]
    Serial,
    /// Use the machine's available parallelism.
    Auto,
    /// Use exactly this many workers (`0` behaves like
    /// [`Parallelism::Auto`]).
    Threads(usize),
}

impl Parallelism {
    /// The hint as a worker count (`Auto`/`Threads(0)` resolve to the
    /// available parallelism).
    pub(crate) fn resolve(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto | Parallelism::Threads(0) => {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            }
            Parallelism::Threads(n) => n,
        }
    }
}

/// Per-request execution caps: the serving layer's tail-latency control.
///
/// A budget bounds *work*, not results: at most `max_candidates` scanned
/// posting entries, at most `max_verifications` edit-distance
/// computations (short-lane checks and segment-lane cascade entries
/// alike), and optionally a deadline against a pluggable [`TickSource`]
/// (so tests stay deterministic — see
/// [`ManualTicks`](passjoin::sink::ManualTicks)). When a cap trips,
/// probing aborts through the sink's saturation path and the outcome
/// reports [`Completion::Truncated`] with the reason. A tripped budget
/// always means work was actually skipped: a cap of `N` permits exactly
/// `N` units, and only the `N+1`th unit trips.
///
/// An empty budget (no caps, no deadline) is free — the engine skips the
/// budget adapter entirely.
///
/// ```
/// use passjoin_online::{ExecBudget, SearchRequest};
///
/// let req = SearchRequest::new(b"jim gray", 2)
///     .with_budget(ExecBudget::new().with_max_verifications(1_000));
/// assert_eq!(req.budget().unwrap().max_verifications(), Some(1_000));
/// ```
#[derive(Clone, Default)]
pub struct ExecBudget {
    max_verifications: Option<u64>,
    max_candidates: Option<u64>,
    deadline: Option<(Arc<dyn TickSource>, u64)>,
}

impl ExecBudget {
    /// An unlimited budget; attach caps with the `with_*` adapters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Permits at most `n` verifications (edit-distance computations).
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
    /// verification).
    pub fn with_deadline(mut self, source: Arc<dyn TickSource>, expires_at: u64) -> Self {
        self.deadline = Some((source, expires_at));
        self
    }

    /// The verification cap, if any.
    pub fn max_verifications(&self) -> Option<u64> {
        self.max_verifications
    }

    /// The candidate cap, if any.
    pub fn max_candidates(&self) -> Option<u64> {
        self.max_candidates
    }

    /// The deadline as `(tick source, expiry tick)`, if any.
    pub fn deadline(&self) -> Option<(&dyn TickSource, u64)> {
        self.deadline
            .as_ref()
            .map(|(source, at)| (source.as_ref(), *at))
    }

    /// True when no cap or deadline is attached (the engine then runs the
    /// request exactly as if it carried no budget).
    pub fn is_unlimited(&self) -> bool {
        self.max_verifications.is_none() && self.max_candidates.is_none() && self.deadline.is_none()
    }

    /// The intersection of this budget with a `ceiling`: per-cap minimum,
    /// earliest deadline. The result permits a unit of work only if both
    /// budgets would — how a server applies its own limits over whatever a
    /// client asked for (a client can tighten the server's ceiling, never
    /// widen it).
    ///
    /// ```
    /// use passjoin_online::ExecBudget;
    ///
    /// let client = ExecBudget::new().with_max_verifications(1_000_000);
    /// let ceiling = ExecBudget::new()
    ///     .with_max_verifications(10_000)
    ///     .with_max_candidates(50_000);
    /// let effective = client.clamped_by(&ceiling);
    /// assert_eq!(effective.max_verifications(), Some(10_000));
    /// assert_eq!(effective.max_candidates(), Some(50_000));
    /// ```
    pub fn clamped_by(&self, ceiling: &ExecBudget) -> ExecBudget {
        fn min_cap(a: Option<u64>, b: Option<u64>) -> Option<u64> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (cap, None) | (None, cap) => cap,
            }
        }
        let deadline = match (&self.deadline, &ceiling.deadline) {
            // Both bounded: keep whichever expires first. Expiry ticks
            // are only comparable against their own source, so the
            // source travels with the winning expiry.
            (Some((a_src, a_at)), Some((b_src, b_at))) => {
                if a_at <= b_at {
                    Some((Arc::clone(a_src), *a_at))
                } else {
                    Some((Arc::clone(b_src), *b_at))
                }
            }
            (Some(d), None) | (None, Some(d)) => Some(d.clone()),
            (None, None) => None,
        };
        ExecBudget {
            max_verifications: min_cap(self.max_verifications, ceiling.max_verifications),
            max_candidates: min_cap(self.max_candidates, ceiling.max_candidates),
            deadline,
        }
    }
}

impl fmt::Debug for ExecBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecBudget")
            .field("max_verifications", &self.max_verifications)
            .field("max_candidates", &self.max_candidates)
            .field("deadline", &self.deadline.as_ref().map(|(_, at)| *at))
            .finish()
    }
}

impl PartialEq for ExecBudget {
    fn eq(&self, other: &Self) -> bool {
        self.max_verifications == other.max_verifications
            && self.max_candidates == other.max_candidates
            && match (&self.deadline, &other.deadline) {
                (None, None) => true,
                // Tick sources have no content identity; compare by
                // pointer, like `Arc::ptr_eq`.
                (Some((a, at_a)), Some((b, at_b))) => {
                    at_a == at_b && std::ptr::addr_eq(Arc::as_ptr(a), Arc::as_ptr(b))
                }
                _ => false,
            }
    }
}

impl Eq for ExecBudget {}

/// A *shared* execution budget drained by a whole request batch — the
/// batch-level counterpart of [`ExecBudget`].
///
/// Built from an `ExecBudget` spec ([`BatchBudget::new`]), it holds one
/// atomically drained [`BudgetPool`](passjoin::sink::BudgetPool); every
/// request carrying a clone of the handle
/// ([`SearchRequest::with_batch_budget`]) draws its work units from that
/// single pool, so the batch's *total* candidates/verifications stay
/// under the caps (and the deadline covers the batch) no matter how the
/// engine orders or parallelizes the requests. Draining is
/// first-come-first-served — early and fast requests consume more of the
/// pool than stragglers; the guarantee is the total, not a fair split.
///
/// Each request still reports its own [`Completion`]: a request denied a
/// unit by the exhausted pool reports [`Completion::Truncated`] with the
/// pool's reason, while batch-mates that finished before the pool ran
/// dry stay [`Completion::Complete`]. Composes with a per-request
/// [`ExecBudget`] — each unit of work must clear both. Cache hits don't
/// drain the pool (nothing is probed). Like per-request budgets, results
/// truncated by the pool are never cached.
///
/// ```
/// use passjoin_online::{BatchBudget, ExecBudget, OnlineIndex, Queryable, SearchRequest};
///
/// let mut index = OnlineIndex::new(2);
/// for s in [&b"vldb"[..], b"pvldb", b"sigmod"] {
///     index.insert(s);
/// }
/// let shared = BatchBudget::new(ExecBudget::new().with_max_verifications(1_000));
/// let batch = [
///     SearchRequest::new(b"vldb", 2).with_batch_budget(&shared),
///     SearchRequest::new(b"sigmod", 2).with_batch_budget(&shared),
/// ];
/// let response = index.search_batch(&batch);
/// assert!(response.outcomes.iter().all(|o| o.completion.is_complete()));
/// ```
#[derive(Debug, Clone)]
pub struct BatchBudget {
    pool: Arc<passjoin::sink::BudgetPool>,
}

impl BatchBudget {
    /// A shared pool holding `budget`'s caps and deadline. An unlimited
    /// `budget` yields a pool that never denies work.
    pub fn new(budget: ExecBudget) -> Self {
        let mut pool = passjoin::sink::BudgetPool::new();
        if let Some(n) = budget.max_verifications {
            pool = pool.with_max_verifications(n);
        }
        if let Some(n) = budget.max_candidates {
            pool = pool.with_max_candidates(n);
        }
        if let Some((source, at)) = budget.deadline {
            pool = pool.with_deadline(source, at);
        }
        Self {
            pool: Arc::new(pool),
        }
    }

    /// The shared pool (one per [`BatchBudget::new`] call; clones of the
    /// handle all point here).
    pub fn pool(&self) -> &Arc<passjoin::sink::BudgetPool> {
        &self.pool
    }
}

impl PartialEq for BatchBudget {
    fn eq(&self, other: &Self) -> bool {
        // A pool has no content identity — two handles are equal iff they
        // drain the same pool.
        Arc::ptr_eq(&self.pool, &other.pool)
    }
}

impl Eq for BatchBudget {}

/// Whether a [`QueryOutcome`] is an exact answer or was cut short.
///
/// Shape-driven early exits (a full top-k heap, a capped count reaching
/// its cap) are *part of the requested answer* and still count as
/// [`Completion::Complete`]; only a tripped [`ExecBudget`] reports
/// [`Completion::Truncated`]. Truncated results are never stored in the
/// query cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Completion {
    /// The scan ran to the end: the answer is exact for the requested
    /// shape.
    #[default]
    Complete,
    /// The execution budget tripped mid-scan: the answer is a subset of
    /// the exact one, and at least one unit of work was skipped.
    Truncated {
        /// Which budget cap stopped the scan.
        reason: TruncationReason,
    },
}

impl Completion {
    /// True for [`Completion::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }
}

impl fmt::Display for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Completion::Complete => f.write_str("complete"),
            Completion::Truncated { reason } => write!(f, "truncated ({reason})"),
        }
    }
}

/// One typed similarity query: the query bytes, its threshold, and the
/// retrieval/execution options. Build with [`SearchRequest::new`] (owned
/// bytes, `'static`) or [`SearchRequest::borrowed`] (zero-copy over a
/// caller-held query set) and the `with_*` adapters; execute with
/// [`crate::Queryable::search`] or [`crate::Queryable::search_batch`].
///
/// ```
/// use passjoin_online::{CachePolicy, Parallelism, SearchRequest};
///
/// let req = SearchRequest::new(b"jim gray", 2)
///     .with_limit(10) // the 10 closest matches only
///     .with_cache(CachePolicy::Use)
///     .with_parallelism(Parallelism::Auto);
/// assert_eq!(req.tau(), 2);
/// assert_eq!(req.limit(), Some(10));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRequest<'a> {
    query: Cow<'a, [u8]>,
    tau: usize,
    limit: Option<usize>,
    count_only: bool,
    cache: CachePolicy,
    parallelism: Parallelism,
    budget: Option<ExecBudget>,
    batch_budget: Option<BatchBudget>,
}

impl<'a> SearchRequest<'a> {
    /// A plain request owning its query bytes: all matches within `tau`
    /// of `query`, ascending by id — what [`crate::Queryable::matches`]
    /// returns. For batches built over an existing query set,
    /// [`SearchRequest::borrowed`]/[`SearchRequest::uniform`] avoid
    /// copying the bytes.
    pub fn new(query: impl Into<Vec<u8>>, tau: usize) -> Self {
        Self::of(Cow::Owned(query.into()), tau)
    }

    /// A plain request borrowing its query bytes (no copy); otherwise
    /// identical to [`SearchRequest::new`].
    pub fn borrowed(query: &'a [u8], tau: usize) -> Self {
        Self::of(Cow::Borrowed(query), tau)
    }

    fn of(query: Cow<'a, [u8]>, tau: usize) -> Self {
        Self {
            query,
            tau,
            limit: None,
            count_only: false,
            cache: CachePolicy::default(),
            parallelism: Parallelism::default(),
            budget: None,
            batch_budget: None,
        }
    }

    /// One plain request per query, all at the same `tau`. Borrows the
    /// query bytes.
    pub fn uniform<Q: AsRef<[u8]>>(queries: &'a [Q], tau: usize) -> Vec<Self> {
        queries
            .iter()
            .map(|q| Self::borrowed(q.as_ref(), tau))
            .collect()
    }

    /// Keep only the `k` matches smallest by `(distance, id)`, returned in
    /// that order. The engine runs these on a bounded heap whose worst
    /// retained distance tightens verification as it fills, so low limits
    /// on match-heavy queries do measurably less work (observable in
    /// [`ExecStats::verifications`]).
    pub fn with_limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }

    /// Report only the number of matches ([`QueryOutcome::count`]);
    /// [`QueryOutcome::matches`] stays empty and no result vector is
    /// materialized. Combined with [`with_limit`](Self::with_limit) this
    /// becomes an existence test — counting stops (and probing aborts) at
    /// the cap.
    pub fn count_only(mut self) -> Self {
        self.count_only = true;
        self
    }

    /// Sets the cache policy (see [`CachePolicy`]).
    pub fn with_cache(mut self, cache: CachePolicy) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the batch parallelism hint (see [`Parallelism`]).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Bounds this request's execution (see [`ExecBudget`]); the outcome's
    /// [`Completion`] reports whether the budget tripped. An unlimited
    /// budget is equivalent to none.
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Draws this request's work allowance from a pool shared with every
    /// other request carrying the same [`BatchBudget`] handle (see
    /// [`BatchBudget`]). Composes with
    /// [`with_budget`](Self::with_budget): each unit of work must clear
    /// both the per-request budget and the shared pool.
    pub fn with_batch_budget(mut self, budget: &BatchBudget) -> Self {
        self.batch_budget = Some(budget.clone());
        self
    }

    /// The query bytes.
    pub fn query(&self) -> &[u8] {
        &self.query
    }

    /// The edit-distance threshold.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// The top-k limit, if any.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// True if only the match count is wanted.
    pub fn is_count_only(&self) -> bool {
        self.count_only
    }

    /// The cache policy.
    pub fn cache(&self) -> CachePolicy {
        self.cache
    }

    /// The parallelism hint.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The execution budget, if any.
    pub fn budget(&self) -> Option<&ExecBudget> {
        self.budget.as_ref()
    }

    /// The shared batch budget, if any.
    pub fn batch_budget(&self) -> Option<&BatchBudget> {
        self.batch_budget.as_ref()
    }
}

/// How one request interacted with the query cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheOutcome {
    /// The cache was not consulted (policy, request shape, or a source
    /// without a cache).
    #[default]
    Bypass,
    /// Answered from the cache without probing — directly for plain
    /// requests, by sort-truncate/len derivation for shaped
    /// (`limit`/`count_only`) ones.
    Hit,
    /// Consulted, not found; the request was computed. Plain
    /// [`Completion::Complete`] results were then stored — shaped,
    /// truncated, or streamed ones never are.
    Miss,
}

/// Per-request execution counters, split by lane (see the index module
/// docs for the short/segment lane distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Posting-list entries scanned in the segment lane.
    pub candidates: u64,
    /// Segment-lane candidates that entered the verification cascade
    /// (survived dedup and the sink's length bound).
    pub verifications: u64,
    /// Short-lane strings checked by direct edit distance.
    pub short_checked: u64,
    /// Matches produced by the segment lane.
    pub segment_matches: u64,
    /// Matches produced by the short lane.
    pub short_matches: u64,
}

impl ExecStats {
    /// Accumulates another request's counters into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.candidates += other.candidates;
        self.verifications += other.verifications;
        self.short_checked += other.short_checked;
        self.segment_matches += other.segment_matches;
        self.short_matches += other.short_matches;
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} candidates, {} verifications, {} short-lane checks",
            self.candidates, self.verifications, self.short_checked
        )
    }
}

/// The answer to one [`SearchRequest`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryOutcome {
    /// The matches: ascending by id for plain requests, ascending by
    /// `(distance, id)` for limited (top-k) requests, empty for
    /// count-only requests.
    ///
    /// Shared, not copied: a cache hit hands out the cached vector
    /// itself (zero-copy), and an
    /// uncached result is the engine's buffer wrapped once. Use
    /// [`QueryOutcome::into_matches`] to take ownership — free unless
    /// the result is also retained by the cache.
    pub matches: Arc<Vec<Match>>,
    /// Matches found: `matches.len()` for materializing requests; for
    /// count-only requests the total count (capped at the limit, if any).
    pub count: usize,
    /// How the request interacted with the cache.
    pub cache: CacheOutcome,
    /// Whether the answer is exact or was truncated by the request's
    /// [`ExecBudget`].
    pub completion: Completion,
    /// Execution counters (all zero for a cache hit — nothing was probed).
    pub stats: ExecStats,
}

impl QueryOutcome {
    /// The matches as an owned vector: unwraps the shared result when
    /// this outcome is its only holder, clones otherwise (cache hits).
    pub fn into_matches(self) -> Vec<Match> {
        Arc::try_unwrap(self.matches).unwrap_or_else(|shared| (*shared).clone())
    }
}

/// The position-aligned answers to a [`crate::Queryable::search_batch`]
/// call.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SearchResponse {
    /// One outcome per request, in request order.
    pub outcomes: Vec<QueryOutcome>,
}

impl SearchResponse {
    /// Strips the outcomes down to their match vectors (request order).
    pub fn into_matches(self) -> Vec<Vec<Match>> {
        self.outcomes
            .into_iter()
            .map(QueryOutcome::into_matches)
            .collect()
    }

    /// Batch-wide totals (counts summed, cache outcomes tallied).
    pub fn totals(&self) -> BatchTotals {
        let mut totals = BatchTotals::default();
        for outcome in &self.outcomes {
            totals.matches += outcome.count;
            totals.stats.merge(&outcome.stats);
            match outcome.cache {
                CacheOutcome::Hit => totals.cache_hits += 1,
                CacheOutcome::Miss => totals.cache_misses += 1,
                CacheOutcome::Bypass => totals.cache_bypasses += 1,
            }
            if !outcome.completion.is_complete() {
                totals.truncated += 1;
            }
        }
        totals
    }
}

/// Aggregated view of a [`SearchResponse`] (see
/// [`SearchResponse::totals`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchTotals {
    /// Sum of [`QueryOutcome::count`] over the batch.
    pub matches: usize,
    /// Merged execution counters.
    pub stats: ExecStats,
    /// Requests answered from the cache.
    pub cache_hits: usize,
    /// Requests that consulted the cache and computed.
    pub cache_misses: usize,
    /// Requests that never consulted the cache.
    pub cache_bypasses: usize,
    /// Requests whose execution budget tripped
    /// ([`Completion::Truncated`]).
    pub truncated: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_every_field() {
        let req = SearchRequest::new(b"abc".as_slice(), 3)
            .with_limit(7)
            .count_only()
            .with_cache(CachePolicy::Use)
            .with_parallelism(Parallelism::Threads(4))
            .with_budget(ExecBudget::new().with_max_verifications(9));
        assert_eq!(req.query(), b"abc");
        assert_eq!(req.tau(), 3);
        assert_eq!(req.limit(), Some(7));
        assert!(req.is_count_only());
        assert_eq!(req.cache(), CachePolicy::Use);
        assert_eq!(req.parallelism(), Parallelism::Threads(4));
        assert_eq!(req.budget().unwrap().max_verifications(), Some(9));
    }

    #[test]
    fn budget_defaults_and_equality() {
        use passjoin::sink::ManualTicks;

        let unlimited = ExecBudget::new();
        assert!(unlimited.is_unlimited());
        assert_eq!(unlimited, ExecBudget::default());

        let capped = ExecBudget::new()
            .with_max_verifications(5)
            .with_max_candidates(100);
        assert!(!capped.is_unlimited());
        assert_eq!(capped.max_candidates(), Some(100));
        assert_ne!(capped, unlimited);

        // Deadlines compare by tick-source identity plus expiry.
        let clock: Arc<dyn TickSource> = Arc::new(ManualTicks::new());
        let a = ExecBudget::new().with_deadline(Arc::clone(&clock), 10);
        let b = ExecBudget::new().with_deadline(Arc::clone(&clock), 10);
        let c = ExecBudget::new().with_deadline(Arc::clone(&clock), 11);
        let other: Arc<dyn TickSource> = Arc::new(ManualTicks::new());
        let d = ExecBudget::new().with_deadline(other, 10);
        assert!(!a.is_unlimited());
        assert_eq!(a.deadline().unwrap().1, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Debug elides the source but shows the expiry.
        assert!(format!("{a:?}").contains("10"));
    }

    #[test]
    fn clamped_by_takes_the_minimum_of_caps() {
        let client = ExecBudget::new()
            .with_max_verifications(1_000)
            .with_max_candidates(10);
        let ceiling = ExecBudget::new()
            .with_max_verifications(100)
            .with_max_candidates(50_000);
        let effective = client.clamped_by(&ceiling);
        assert_eq!(effective.max_verifications(), Some(100));
        assert_eq!(effective.max_candidates(), Some(10));

        // A missing cap on either side defers to the other side's.
        let open = ExecBudget::new();
        assert_eq!(open.clamped_by(&ceiling).max_verifications(), Some(100));
        assert_eq!(ceiling.clamped_by(&open).max_verifications(), Some(100));
        assert!(open.clamped_by(&open).is_unlimited());
    }

    #[test]
    fn clamped_by_keeps_the_earliest_deadline() {
        use passjoin::sink::ManualTicks;

        let clock: Arc<dyn TickSource> = Arc::new(ManualTicks::new());
        let early = ExecBudget::new().with_deadline(Arc::clone(&clock), 10);
        let late = ExecBudget::new().with_deadline(Arc::clone(&clock), 99);
        assert_eq!(early.clamped_by(&late).deadline().unwrap().1, 10);
        assert_eq!(late.clamped_by(&early).deadline().unwrap().1, 10);
        let none = ExecBudget::new();
        assert_eq!(none.clamped_by(&late).deadline().unwrap().1, 99);
        assert_eq!(late.clamped_by(&none).deadline().unwrap().1, 99);
    }

    #[test]
    fn batch_budget_handles_share_one_pool() {
        let shared = BatchBudget::new(ExecBudget::new().with_max_verifications(3));
        let clone = shared.clone();
        assert_eq!(shared, clone, "clones drain the same pool");
        assert_ne!(
            shared,
            BatchBudget::new(ExecBudget::new().with_max_verifications(3)),
            "equal specs, distinct pools"
        );
        // Draining through one handle is visible through the other.
        assert!(clone.pool().take_verification().is_ok());
        assert_eq!(shared.pool().verifications_left(), Some(2));
        // Requests carry the handle.
        let req = SearchRequest::new(b"q".as_slice(), 1).with_batch_budget(&shared);
        assert_eq!(req.batch_budget(), Some(&shared));
        let req2 = req.clone();
        assert_eq!(req, req2);
    }

    #[test]
    fn batch_budget_from_unlimited_spec_never_denies() {
        let open = BatchBudget::new(ExecBudget::new());
        assert!(open.pool().is_unlimited());
        assert!(open.pool().take_verification().is_ok());
        assert!(open.pool().take_candidate().is_ok());
    }

    #[test]
    fn completion_reports_and_displays() {
        use passjoin::sink::TruncationReason;

        assert!(Completion::Complete.is_complete());
        assert_eq!(Completion::Complete.to_string(), "complete");
        let truncated = Completion::Truncated {
            reason: TruncationReason::VerificationCap,
        };
        assert!(!truncated.is_complete());
        assert_eq!(truncated.to_string(), "truncated (verification cap)");
    }

    #[test]
    fn defaults_match_the_legacy_query_shape() {
        let req = SearchRequest::new(b"q".as_slice(), 1);
        assert_eq!(req.limit(), None);
        assert!(!req.is_count_only());
        assert_eq!(req.cache(), CachePolicy::Bypass);
        assert_eq!(req.parallelism(), Parallelism::Serial);
    }

    #[test]
    fn uniform_builds_one_request_per_query() {
        let queries = [b"a".as_slice(), b"bc"];
        let reqs = SearchRequest::uniform(&queries, 2);
        assert_eq!(reqs.len(), 2);
        assert!(reqs.iter().all(|r| r.tau() == 2));
        assert_eq!(reqs[1].query(), b"bc");
    }

    #[test]
    fn parallelism_resolves_to_worker_counts() {
        assert_eq!(Parallelism::Serial.resolve(), 1);
        assert_eq!(Parallelism::Threads(3).resolve(), 3);
        assert!(Parallelism::Auto.resolve() >= 1);
        assert_eq!(
            Parallelism::Threads(0).resolve(),
            Parallelism::Auto.resolve()
        );
    }

    #[test]
    fn totals_tally_outcomes() {
        let response = SearchResponse {
            outcomes: vec![
                QueryOutcome {
                    matches: Arc::new(vec![(1, 0)]),
                    count: 1,
                    cache: CacheOutcome::Miss,
                    completion: Completion::Truncated {
                        reason: passjoin::sink::TruncationReason::Deadline,
                    },
                    stats: ExecStats {
                        candidates: 5,
                        verifications: 2,
                        ..ExecStats::default()
                    },
                },
                QueryOutcome {
                    matches: Arc::new(vec![(1, 0)]),
                    count: 1,
                    cache: CacheOutcome::Hit,
                    completion: Completion::Complete,
                    stats: ExecStats::default(),
                },
            ],
        };
        let totals = response.totals();
        assert_eq!(totals.matches, 2);
        assert_eq!(totals.stats.candidates, 5);
        assert_eq!((totals.cache_hits, totals.cache_misses), (1, 1));
        assert_eq!(totals.truncated, 1);
        assert_eq!(response.into_matches(), vec![vec![(1, 0)], vec![(1, 0)]]);
    }
}
