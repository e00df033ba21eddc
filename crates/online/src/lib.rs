//! **passjoin-online** — online similarity search on the Pass-Join index.
//!
//! The batch join (the `passjoin` crate) is built for one-shot scans: it
//! visits strings in length order, probes only already-visited strings, and
//! evicts index slices the scan has passed. That is the right shape for
//! joining two datasets once — and the wrong one for *serving*: a standing
//! collection that takes inserts and removes, and answers a stream of
//! queries, each with its own threshold.
//!
//! This crate provides that subsystem on the same partition machinery
//! (even partition §3.1, segment indices §3.2, multi-match-aware selection
//! §4, extension verification §5.2 — Li, Deng, Wang, Feng, PVLDB 2011):
//!
//! * [`OnlineIndex`] — a dynamic, non-evicting index over an owned string
//!   store: `insert` / `remove`, built via [`OnlineIndex::builder`]. Its
//!   segment lane is one byte-keyed map; an index loaded from a v3
//!   snapshot probes the file's sorted runs instead until its first
//!   mutation ([`KeyBackend`]);
//! * [`Queryable`] — **the** query surface, implemented by both
//!   [`OnlineIndex`] and [`Snapshot`] over one execution engine: typed
//!   [`SearchRequest`]s (per-query τ ≤ τ_max, top-k limits, count-only,
//!   cache policy, parallelism hints) answered with [`QueryOutcome`]s
//!   carrying per-request execution statistics;
//! * [`Queryable::search_batch`] — batches with *mixed* thresholds and
//!   shapes, sharing substring-selection work across requests of equal
//!   `(length, τ)`, multi-threaded on request;
//! * [`Queryable::search_streaming`] — push-based results: a
//!   caller-supplied [`MatchSink`] receives each match as verification
//!   accepts it, instead of a per-query buffer;
//! * [`ExecBudget`] — per-request execution caps (max verifications /
//!   candidates, pluggable-clock deadlines); a tripped budget aborts the
//!   scan and the outcome reports [`Completion::Truncated`] with the
//!   reason, so partial answers are always distinguishable from exact
//!   ones (and never cached);
//! * an LRU result cache invalidated by mutation epoch
//!   ([`CachePolicy::Use`]);
//! * [`Snapshot`] — a cheap copy-on-write view for concurrent readers;
//! * [`Snapshot::save`] / [`OnlineIndex::load`] — durable snapshots: a
//!   versioned, checksummed on-disk format (`passjoin-persist`) that a
//!   restarting process opens in place — zero-copy strings, postings
//!   probed out of the file — instead of re-partitioning the whole
//!   corpus. The file decides how it opens, and one routine,
//!   [`verify_snapshot`], checks it on every path;
//! * [`EngineObs`] — opt-in observability (`passjoin-obs`, re-exported
//!   here): a lock-free metrics registry (counters, gauges, log-scale
//!   phase-duration histograms, Prometheus/JSON dumps) plus a
//!   [`TraceSink`] hook fired at plan/probe/verify/cache/flush/snapshot
//!   boundaries. Attach it per index via
//!   [`OnlineIndex::set_observability`]; with none attached a request
//!   reads no clock and fires no event. [`WallClockTicks`] supplies a real
//!   [`TickSource`] for [`ExecBudget::with_deadline`].
//!
//! # Quick start
//!
//! ```
//! use passjoin_online::{OnlineIndex, Queryable, SearchRequest};
//!
//! let mut index = OnlineIndex::new(2); // τ_max = 2
//! for name in ["jim gray", "jim grey", "michael stonebraker"] {
//!     index.insert(name.as_bytes());
//! }
//!
//! // Single query, per-query threshold: (id, exact distance) pairs.
//! assert_eq!(index.matches(b"jim gray", 1), vec![(0, 0), (1, 1)]);
//!
//! // The collection is dynamic.
//! index.remove(1);
//! assert_eq!(index.matches(b"jim gray", 1), vec![(0, 0)]);
//!
//! // Typed batches mix thresholds and result shapes per request.
//! let response = index.search_batch(&[
//!     SearchRequest::new(b"jim gray", 1),
//!     SearchRequest::new(b"jon gray", 2).with_limit(5),
//!     SearchRequest::new(b"jim gray", 2).count_only(),
//! ]);
//! assert_eq!(*response.outcomes[0].matches, vec![(0, 0)]);
//! assert_eq!(*response.outcomes[1].matches, vec![(0, 2)]); // two edits away
//! assert_eq!(response.outcomes[2].count, 1);
//!
//! // Snapshots give concurrent readers a stable view — of the same
//! // Queryable surface.
//! let snapshot = index.snapshot();
//! index.insert(b"jim gray");
//! assert_eq!(snapshot.len(), 2, "snapshot is point-in-time");
//! ```
//!
//! # Relation to `passjoin::SearchIndex`
//!
//! [`passjoin::SearchIndex`] is the static half-step: immutable, one fixed
//! τ, borrowing its dictionary. `OnlineIndex` owns its strings, accepts
//! mutations, serves any `τ ≤ τ_max` from one index (via
//! [`passjoin::online_window`]'s mixed-τ selection windows), and adds the
//! serving-layer pieces: batching, caching, snapshots.

pub mod cache;
mod exec;
mod index;
pub mod obs;
mod persist;
mod request;
mod router;

use sj_common::StringId;

pub use cache::CacheStats;
#[doc(hidden)]
pub use exec::ExecSource;
pub use exec::Queryable;
pub use index::{KeyBackend, OnlineIndex, OnlineIndexBuilder, OnlineStats, Snapshot};
pub use obs::{wall_deadline, EngineObs, WallClockTicks};
pub use passjoin::sink::{
    BudgetPool, BudgetSink, CollectSink, CountSink, FnSink, ManualTicks, MatchSink, PoolBudgetSink,
    TickSource, TopKSink, TruncationReason,
};
pub use passjoin_obs::{
    Clock, CollectingTraceSink, Counter, Gauge, Histogram, ManualNanos, MonotonicClock,
    NoopTraceSink, Registry, Span, TraceEvent, TraceSink,
};
pub use passjoin_persist::PersistError;
pub use persist::verify_snapshot;
pub use request::{
    BatchBudget, BatchTotals, CacheOutcome, CachePolicy, Completion, ExecBudget, ExecStats,
    Parallelism, QueryOutcome, SearchRequest, SearchResponse,
};
pub use router::{is_sharded_snapshot, ShardBy, ShardedIndex, ShardedIndexBuilder};

/// A query match: `(string id, exact edit distance)`.
pub type Match = (StringId, usize);
