//! Sharded query routing: one [`Queryable`] over N partitioned shards.
//!
//! A [`ShardedIndex`] holds N shards — each an [`OnlineIndex`] (or any
//! boxed [`Queryable`]) over a disjoint slice of the corpus — and is
//! itself a [`Queryable`], so the CLI, the network server, and the
//! cache/observability layers work against it unchanged. Partitioning is
//! by **length band** (the default — PASS-JOIN's per-length inverted maps
//! make contiguous length ranges natural partition boundaries, and a
//! query with threshold τ only touches shards whose band intersects
//! `[|q|−τ, |q|+τ]`) or by **hash** (uniform spread, every query fans out
//! to all shards).
//!
//! Execution fans out on scoped threads — one per shard with work — and
//! merges per-request [`QueryOutcome`]s so results are **byte-identical**
//! to a single index over the same corpus:
//!
//! * **plain** — shard matches are remapped to global ids, concatenated,
//!   and sorted ascending by id (each shard's id map is monotonic, so the
//!   per-shard order survives remapping);
//! * **top-k** — every shard returns its own k best; the router re-offers
//!   them into one [`passjoin::TopK`] keyed `(distance, id)` (a global
//!   top-k element is necessarily in its shard's top-k, so the union of
//!   shard heaps is a superset of the answer);
//! * **count-only** — counts are summed, clamped by the request's cap;
//! * [`ExecStats`] are summed, [`Completion`] is truncated if any shard
//!   truncated, and a per-request [`ExecBudget`](crate::ExecBudget)'s caps are split across
//!   the targeted shards (deadlines apply to each shard as-is) while a
//!   batch-level [`BatchBudget`](crate::BatchBudget) pool is shared
//!   atomically exactly as in the single-index engine.
//!
//! [`Queryable::search_streaming`] forwards every shard's pushes through
//! one bounded [`std::sync::mpsc::sync_channel`]: shard scans run on
//! their own threads and push into the channel, the calling thread
//! drains it into the caller's sink, and the caller sink's steering (a
//! tightening `bound`, saturation) is mirrored back to every shard
//! through shared atomics — a saturated caller raises the shared stop
//! flag and hangs up the channel, which aborts all in-flight shard scans.
//!
//! A panicking shard worker's payload is resumed on the calling thread,
//! so the caller sees the shard's own panic message.
//!
//! Routing edge cases degrade to empty answers, never panics or hangs: a
//! router with zero shards, an empty shard, or a length band containing
//! no strings all produce [`Completion::Complete`] empty outcomes.

use std::collections::BTreeMap;
use std::panic;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;

use passjoin::sink::MatchSink;
use passjoin::TopK;
use passjoin_obs::{Counter, Gauge, Registry};
use passjoin_persist::{Cursor, PersistError, SnapshotFile, SnapshotWriter};
use sj_common::StringId;

use crate::exec::{ExecSource, Queryable};
use crate::index::KeyBackend;
use crate::obs::EngineObs;
use crate::persist::{BACKEND_INTERNED, BACKEND_OWNED};
use crate::request::{
    CacheOutcome, Completion, ExecStats, QueryOutcome, SearchRequest, SearchResponse,
};
use crate::{Match, OnlineIndex};

/// How the router assigns strings to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBy {
    /// Contiguous length bands, balanced by string count at build time
    /// (the default). Aligned with the per-length inverted maps: a query
    /// with threshold τ is routed only to shards whose band intersects
    /// `[|q|−τ, |q|+τ]`.
    #[default]
    Len,
    /// FNV-1a over the string bytes, modulo the shard count. Uniform
    /// spread regardless of the length distribution; every query fans
    /// out to all shards.
    Hash,
}

impl ShardBy {
    /// The CLI/manifest name of this policy.
    pub fn name(&self) -> &'static str {
        match self {
            ShardBy::Len => "len",
            ShardBy::Hash => "hash",
        }
    }

    /// Parses a CLI/manifest name (`"len"` or `"hash"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "len" => Some(ShardBy::Len),
            "hash" => Some(ShardBy::Hash),
            _ => None,
        }
    }
}

/// Matches queued between a shard's scan thread and the drain loop in
/// [`Queryable::search_streaming`]; bounds memory when shards outpace the
/// caller's sink.
const STREAM_QUEUE: usize = 1024;

/// One shard: its query source, the local→global id map, and (for
/// [`ShardBy::Len`]) the inclusive length band it owns.
struct Shard {
    source: ShardSource,
    /// Local id → global id; strictly increasing (strings are inserted in
    /// global id order), so remapping preserves ascending-id order.
    ids: Vec<StringId>,
    /// Inclusive length range this shard owns (`(0, usize::MAX)` under
    /// hash partitioning).
    band: (usize, usize),
}

/// Shards built by the router are concrete [`OnlineIndex`]es (mutable,
/// persistable); [`ShardedIndex::from_dyn_shards`] accepts arbitrary
/// boxed [`Queryable`]s (e.g. [`Snapshot`](crate::Snapshot)s) instead.
enum ShardSource {
    Index(OnlineIndex),
    Dyn(Box<dyn Queryable + Send + Sync>),
}

impl ShardSource {
    fn queryable(&self) -> &(dyn Queryable + Sync) {
        match self {
            ShardSource::Index(index) => index,
            ShardSource::Dyn(boxed) => &**boxed,
        }
    }
}

/// Router-level metrics (`passjoin_router_*`), registered alongside the
/// shards' shared engine metrics so one scrape shows both the rollup and
/// the per-shard split.
struct RouterObs {
    registry: Arc<Registry>,
    /// Requests the router itself received (`passjoin_router_requests_total`).
    requests: Counter,
    /// Shard sub-requests dispatched (`passjoin_router_fanout_total`).
    /// With every routed sub-request executing on its shard, this equals
    /// the engine's `passjoin_requests_total`.
    fanout: Counter,
    /// Requests whose routing matched no shard
    /// (`passjoin_router_empty_fanout_total`).
    empty: Counter,
    /// `passjoin_router_shards` gauge.
    shards: Gauge,
    /// Per-shard dispatch counters
    /// (`passjoin_router_shard{i}_requests_total`).
    shard_requests: Vec<Counter>,
}

impl RouterObs {
    fn new(registry: Arc<Registry>, shard_count: usize) -> Self {
        let shard_requests = (0..shard_count)
            .map(|i| registry.counter(&format!("passjoin_router_shard{i}_requests_total")))
            .collect();
        let obs = Self {
            requests: registry.counter("passjoin_router_requests_total"),
            fanout: registry.counter("passjoin_router_fanout_total"),
            empty: registry.counter("passjoin_router_empty_fanout_total"),
            shards: registry.gauge("passjoin_router_shards"),
            shard_requests,
            registry,
        };
        obs.shards.set(shard_count as i64);
        obs
    }

    fn record_dispatch(&self, targets: &[usize]) {
        self.requests.inc(1);
        self.fanout.inc(targets.len() as u64);
        if targets.is_empty() {
            self.empty.inc(1);
        }
        for &s in targets {
            self.shard_requests[s].inc(1);
        }
    }
}

/// Builder for a [`ShardedIndex`]; see [`ShardedIndex::builder`].
pub struct ShardedIndexBuilder {
    tau_max: usize,
    shards: usize,
    shard_by: ShardBy,
    cache_capacity: Option<usize>,
    registry: Option<Arc<Registry>>,
}

impl ShardedIndexBuilder {
    fn new(tau_max: usize) -> Self {
        Self {
            tau_max,
            shards: 1,
            shard_by: ShardBy::default(),
            cache_capacity: None,
            registry: None,
        }
    }

    /// The number of shards (default 1). Zero is permitted — the router
    /// then holds no strings and answers every query with an empty
    /// [`Completion::Complete`] outcome.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// The partitioning policy (default [`ShardBy::Len`]).
    pub fn shard_by(mut self, shard_by: ShardBy) -> Self {
        self.shard_by = shard_by;
        self
    }

    /// Per-shard query-cache capacity (each shard keeps its own cache).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Attaches observability: each shard gets an [`EngineObs`] built on
    /// this shared registry — same-named engine counters land in the same
    /// registry slots, so `passjoin_requests_total` etc. aggregate across
    /// shards automatically — and the router registers its
    /// `passjoin_router_*` rollup beside them.
    pub fn observability(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Builds an empty router. Length bands default to uniform 16-wide
    /// ranges (the last unbounded); [`ShardedIndexBuilder::build_from`]
    /// instead balances bands against the corpus length distribution.
    pub fn build(self) -> ShardedIndex {
        let bands = uniform_bands(self.shards);
        self.assemble(bands)
    }

    /// Builds a router over an initial corpus: global ids are assigned in
    /// iteration order (exactly like
    /// [`OnlineIndex::from_strings`]), and — under [`ShardBy::Len`] — the
    /// length bands are cut so shards hold roughly equal string counts.
    pub fn build_from<I, S>(self, strings: I) -> ShardedIndex
    where
        I: IntoIterator<Item = S>,
        S: AsRef<[u8]>,
    {
        let strings: Vec<S> = strings.into_iter().collect();
        let bands = match self.shard_by {
            ShardBy::Hash => uniform_bands(self.shards),
            ShardBy::Len => {
                let mut histogram: BTreeMap<usize, usize> = BTreeMap::new();
                for s in &strings {
                    *histogram.entry(s.as_ref().len()).or_insert(0) += 1;
                }
                balanced_bands(&histogram, strings.len(), self.shards)
            }
        };
        let mut router = self.assemble(bands);
        for s in &strings {
            router.insert(s.as_ref());
        }
        router
    }

    fn assemble(self, bands: Vec<(usize, usize)>) -> ShardedIndex {
        debug_assert_eq!(bands.len(), self.shards);
        let shards = bands
            .into_iter()
            .map(|band| {
                let mut builder = OnlineIndex::builder(self.tau_max);
                if let Some(capacity) = self.cache_capacity {
                    builder = builder.cache_capacity(capacity);
                }
                if let Some(registry) = &self.registry {
                    builder = builder
                        .observability(Arc::new(EngineObs::with_registry(Arc::clone(registry))));
                }
                Shard {
                    source: ShardSource::Index(builder.build()),
                    ids: Vec::new(),
                    band,
                }
            })
            .collect::<Vec<_>>();
        let obs = self
            .registry
            .map(|registry| RouterObs::new(registry, shards.len()));
        ShardedIndex {
            shards,
            shard_by: self.shard_by,
            tau_max: self.tau_max,
            epoch: 0,
            next_id: 0,
            obs,
        }
    }
}

/// N partitioned shards behind one [`Queryable`]; see the module docs for
/// the routing and merge semantics.
///
/// ```
/// use passjoin_online::{Queryable, SearchRequest, ShardedIndex};
///
/// let router = ShardedIndex::builder(1)
///     .shards(2)
///     .build_from(["vldb", "pvldb", "sigmod record"]);
/// assert_eq!(router.shard_count(), 2);
///
/// // Same surface, same answers as a single OnlineIndex.
/// let outcome = router.search(&SearchRequest::new(b"vldb", 1));
/// assert_eq!(*outcome.matches, vec![(0, 0), (1, 1)]);
/// ```
pub struct ShardedIndex {
    shards: Vec<Shard>,
    shard_by: ShardBy,
    tau_max: usize,
    epoch: u64,
    next_id: u32,
    obs: Option<RouterObs>,
}

impl ShardedIndex {
    /// A builder for a router with `tau_max` as every shard's threshold
    /// ceiling.
    pub fn builder(tau_max: usize) -> ShardedIndexBuilder {
        ShardedIndexBuilder::new(tau_max)
    }

    /// A length-banded router over an initial corpus — shorthand for
    /// `builder(tau_max).shards(shards).build_from(strings)`.
    pub fn from_strings<I, S>(strings: I, tau_max: usize, shards: usize) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<[u8]>,
    {
        Self::builder(tau_max).shards(shards).build_from(strings)
    }

    /// A router over caller-built shards: each entry is any boxed
    /// [`Queryable`] (a [`Snapshot`](crate::Snapshot), another router, …)
    /// plus its local→global id map (`ids[local] = global`; every map
    /// must be strictly increasing and the maps' global ids disjoint).
    /// Routing fans every query to all shards (no band information), and
    /// such a router cannot be mutated or persisted.
    ///
    /// # Panics
    ///
    /// Panics if `shards` and `id_maps` differ in length, if a shard's
    /// τ_max differs from `tau_max`, or if an id map is not strictly
    /// increasing.
    pub fn from_dyn_shards(
        shards: Vec<Box<dyn Queryable + Send + Sync>>,
        id_maps: Vec<Vec<StringId>>,
        tau_max: usize,
    ) -> Self {
        assert_eq!(
            shards.len(),
            id_maps.len(),
            "one id map per shard is required"
        );
        let mut next_id = 0u32;
        let shards = shards
            .into_iter()
            .zip(id_maps)
            .map(|(source, ids)| {
                assert_eq!(
                    source.tau_max(),
                    tau_max,
                    "every shard must share the router's τ_max"
                );
                assert!(
                    ids.windows(2).all(|w| w[0] < w[1]),
                    "shard id maps must be strictly increasing"
                );
                if let Some(&last) = ids.last() {
                    next_id = next_id.max(last + 1);
                }
                Shard {
                    source: ShardSource::Dyn(source),
                    ids,
                    band: (0, usize::MAX),
                }
            })
            .collect();
        Self {
            shards,
            shard_by: ShardBy::Hash,
            tau_max,
            epoch: 0,
            next_id,
            obs: None,
        }
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The partitioning policy.
    pub fn shard_by(&self) -> ShardBy {
        self.shard_by
    }

    /// Live strings in shard `i`.
    pub fn shard_len(&self, i: usize) -> usize {
        self.shards[i].source.queryable().len()
    }

    /// The inclusive length band shard `i` owns (meaningful under
    /// [`ShardBy::Len`]; `(0, usize::MAX)` otherwise).
    pub fn shard_band(&self, i: usize) -> (usize, usize) {
        self.shards[i].band
    }

    /// Attaches (or detaches) observability after construction — e.g. on
    /// a router restored by [`ShardedIndex::load_sharded`]. Same wiring
    /// as [`ShardedIndexBuilder::observability`]. Dyn shards (from
    /// [`ShardedIndex::from_dyn_shards`]) keep whatever instrumentation
    /// they already carry.
    pub fn set_observability(&mut self, registry: Option<Arc<Registry>>) {
        for shard in &mut self.shards {
            if let ShardSource::Index(index) = &mut shard.source {
                index.set_observability(
                    registry
                        .as_ref()
                        .map(|r| Arc::new(EngineObs::with_registry(Arc::clone(r)))),
                );
            }
        }
        self.obs = registry.map(|r| RouterObs::new(r, self.shards.len()));
    }

    /// The shared metrics registry, when observability is attached.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.obs.as_ref().map(|o| &o.registry)
    }

    /// Inserts a string: a fresh global id is assigned (dense, ascending,
    /// never reused) and the string lands in the shard its length band
    /// (or hash) selects.
    ///
    /// # Panics
    ///
    /// Panics on a zero-shard router or a router built from dyn shards
    /// (those are read-only composites).
    pub fn insert(&mut self, s: &[u8]) -> StringId {
        assert!(
            !self.shards.is_empty(),
            "cannot insert into a router with zero shards"
        );
        let shard_idx = match self.shard_by {
            ShardBy::Len => self.band_of(s.len()),
            ShardBy::Hash => (fnv1a(s) % self.shards.len() as u64) as usize,
        };
        let global = self.next_id;
        let shard = &mut self.shards[shard_idx];
        match &mut shard.source {
            ShardSource::Index(index) => {
                let local = index.insert(s);
                debug_assert_eq!(local as usize, shard.ids.len());
            }
            ShardSource::Dyn(_) => panic!("cannot insert into a router built from dyn shards"),
        }
        shard.ids.push(global);
        self.next_id += 1;
        self.epoch += 1;
        global
    }

    /// Removes a string by global id; returns whether it was live. The id
    /// is never reused.
    ///
    /// # Panics
    ///
    /// Panics on a router built from dyn shards.
    pub fn remove(&mut self, id: StringId) -> bool {
        for shard in &mut self.shards {
            if let Ok(local) = shard.ids.binary_search(&id) {
                let removed = match &mut shard.source {
                    ShardSource::Index(index) => index.remove(local as u32),
                    ShardSource::Dyn(_) => {
                        panic!("cannot remove from a router built from dyn shards")
                    }
                };
                if removed {
                    self.epoch += 1;
                }
                return removed;
            }
        }
        false
    }

    /// The shard index whose band contains `len` (bands are contiguous
    /// and cover the whole length axis).
    fn band_of(&self, len: usize) -> usize {
        self.shards
            .iter()
            .position(|s| s.band.0 <= len && len <= s.band.1)
            .expect("length bands cover the whole length axis")
    }

    /// The shards a query of length `len` at threshold `tau` must visit.
    fn targets(&self, len: usize, tau: usize) -> Vec<usize> {
        match self.shard_by {
            ShardBy::Hash => (0..self.shards.len()).collect(),
            ShardBy::Len => {
                let lo = len.saturating_sub(tau);
                let hi = len.saturating_add(tau);
                self.shards
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.band.0 <= hi && s.band.1 >= lo)
                    .map(|(i, _)| i)
                    .collect()
            }
        }
    }

    /// Mirrors the single-index engine's τ ceiling check, so a
    /// too-large τ fails identically whether or not any shard would have
    /// been probed.
    fn check_tau(&self, tau: usize) {
        assert!(
            tau <= self.tau_max,
            "query τ = {tau} exceeds the index's τ_max = {max}",
            max = self.tau_max
        );
    }

    /// The batch fan-out core behind [`Queryable::search`] and
    /// [`Queryable::search_batch`].
    fn fan_out(&self, reqs: &[SearchRequest]) -> Vec<QueryOutcome> {
        for req in reqs {
            self.check_tau(req.tau());
        }
        let mut outcomes: Vec<QueryOutcome> = vec![QueryOutcome::default(); reqs.len()];
        if reqs.is_empty() {
            return outcomes;
        }
        // Split each request across its target shards (budgets divided,
        // everything else cloned), building one sub-batch per shard.
        let mut per_shard: Vec<Vec<(u32, SearchRequest<'_>)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut parts: Vec<Vec<QueryOutcome>> = vec![Vec::new(); reqs.len()];
        for (ri, req) in reqs.iter().enumerate() {
            let targets = self.targets(req.query().len(), req.tau());
            if let Some(obs) = &self.obs {
                obs.record_dispatch(&targets);
            }
            parts[ri].reserve_exact(targets.len());
            for (ti, &s) in targets.iter().enumerate() {
                per_shard[s].push((ri as u32, split_request(req, targets.len(), ti)));
            }
        }

        let shard_results = self.execute(&per_shard);
        // Shard results arrive grouped by shard; regroup by request in
        // shard order (so e.g. the first truncated shard wins ties
        // deterministically), then merge.
        for (s, results) in shard_results.into_iter().enumerate() {
            let shard = &self.shards[s];
            for (ri, mut outcome) in results {
                remap_outcome(&shard.ids, &mut outcome);
                parts[ri as usize].push(outcome);
            }
        }
        for (ri, req_parts) in parts.into_iter().enumerate() {
            outcomes[ri] = merge_outcomes(&reqs[ri], req_parts);
        }
        outcomes
    }

    /// Runs the per-shard sub-batches: inline when at most one shard has
    /// work, on one scoped thread per busy shard otherwise.
    fn execute<'r>(
        &self,
        per_shard: &[Vec<(u32, SearchRequest<'r>)>],
    ) -> Vec<Vec<(u32, QueryOutcome)>> {
        let busy = per_shard.iter().filter(|subs| !subs.is_empty()).count();
        if busy <= 1 {
            return per_shard
                .iter()
                .enumerate()
                .map(|(s, subs)| self.run_shard(s, subs))
                .collect();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = per_shard
                .iter()
                .enumerate()
                .map(|(s, subs)| scope.spawn(move || self.run_shard(s, subs)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| panic::resume_unwind(payload))
                })
                .collect()
        })
    }

    fn run_shard(&self, s: usize, subs: &[(u32, SearchRequest<'_>)]) -> Vec<(u32, QueryOutcome)> {
        if subs.is_empty() {
            return Vec::new();
        }
        let sub_reqs: Vec<SearchRequest<'_>> = subs.iter().map(|(_, r)| r.clone()).collect();
        let response = self.shards[s].source.queryable().search_batch(&sub_reqs);
        subs.iter()
            .map(|&(ri, _)| ri)
            .zip(response.outcomes)
            .collect()
    }

    /// Multi-shard plain streaming: shard scans push into one bounded
    /// channel, the calling thread drains it into the caller's sink, and
    /// the sink's steering is mirrored to every shard through shared
    /// atomics.
    fn stream_fan_out(
        &self,
        req: &SearchRequest,
        sink: &mut dyn MatchSink,
        targets: &[usize],
    ) -> QueryOutcome {
        let tau = req.tau();
        let shared_bound = AtomicUsize::new(sink.bound(tau));
        let stop = AtomicBool::new(sink.saturated());
        let (tx, rx) = mpsc::sync_channel::<Match>(STREAM_QUEUE);
        let mut emitted = 0usize;
        let parts: Vec<QueryOutcome> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(targets.len());
            for (ti, &s) in targets.iter().enumerate() {
                let tx = tx.clone();
                let shard = &self.shards[s];
                let sub = split_request(req, targets.len(), ti);
                let shared_bound = &shared_bound;
                let stop = &stop;
                handles.push(scope.spawn(move || {
                    let mut shard_sink = ShardStreamSink {
                        tx,
                        ids: &shard.ids,
                        shared_bound,
                        stop,
                        disconnected: false,
                    };
                    shard
                        .source
                        .queryable()
                        .search_streaming(&sub, &mut shard_sink)
                }));
            }
            // Only shard threads may now hold senders, so the drain loop
            // terminates when the last shard finishes.
            drop(tx);
            while let Ok((id, dist)) = rx.recv() {
                sink.push(id, dist);
                emitted += 1;
                shared_bound.store(sink.bound(tau), Ordering::Relaxed);
                if sink.saturated() {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
            // Hanging up makes any still-queued sends fail fast, which
            // saturates the shard sinks and aborts their scans.
            drop(rx);
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| panic::resume_unwind(payload))
                })
                .collect()
        });
        let mut merged = merge_outcomes(req, parts);
        merged.matches = Arc::default();
        merged.count = emitted;
        merged
    }
}

impl Queryable for ShardedIndex {
    fn exec_source(&self) -> Option<ExecSource<'_>> {
        // Composite: there is no single inner state; every provided
        // method is overridden below.
        None
    }

    fn search(&self, req: &SearchRequest) -> QueryOutcome {
        self.fan_out(std::slice::from_ref(req))
            .pop()
            .expect("one outcome per request")
    }

    fn search_batch(&self, reqs: &[SearchRequest]) -> SearchResponse {
        SearchResponse {
            outcomes: self.fan_out(reqs),
        }
    }

    fn search_streaming(&self, req: &SearchRequest, sink: &mut dyn MatchSink) -> QueryOutcome {
        self.check_tau(req.tau());
        // Buffered shapes keep the single-index streaming semantics:
        // count-only emits nothing; top-k retention is global, so the
        // merged heap is flushed in (distance, id) order.
        if req.is_count_only() {
            return self.search(req);
        }
        if req.limit().is_some() {
            let outcome = self.search(req);
            let emitted = crate::exec::replay(&outcome.matches, sink);
            return QueryOutcome {
                count: emitted,
                matches: Arc::default(),
                ..outcome
            };
        }
        let targets = self.targets(req.query().len(), req.tau());
        if let Some(obs) = &self.obs {
            obs.record_dispatch(&targets);
        }
        match targets.len() {
            0 => QueryOutcome::default(),
            1 => {
                // One target: stream straight through an id-remapping
                // adapter — full steering fidelity, no channel.
                let shard = &self.shards[targets[0]];
                let mut remap = RemapSink {
                    ids: &shard.ids,
                    inner: sink,
                };
                shard.source.queryable().search_streaming(req, &mut remap)
            }
            _ => self.stream_fan_out(req, sink, &targets),
        }
    }

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
        // Requests run in order; each one still fans out across shards.
        let outcomes = reqs
            .iter()
            .zip(sinks.iter_mut())
            .map(|(req, sink)| self.search_streaming(req, &mut **sink))
            .collect();
        SearchResponse { outcomes }
    }

    fn tau_max(&self) -> usize {
        self.tau_max
    }

    /// The first shard's store ([`KeyBackend::Owned`] for a router with
    /// no shards): every shard the router builds is owned, and every
    /// shard it loads opens on the store its file carries.
    fn key_backend(&self) -> KeyBackend {
        self.shards
            .first()
            .map_or(KeyBackend::Owned, |s| s.source.queryable().key_backend())
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.source.queryable().len()).sum()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Forwards a shard's pushes to the caller's sink with local ids mapped
/// to global, passing all steering through unchanged.
struct RemapSink<'a> {
    ids: &'a [StringId],
    inner: &'a mut dyn MatchSink,
}

impl MatchSink for RemapSink<'_> {
    fn push(&mut self, id: StringId, dist: usize) {
        self.inner.push(self.ids[id as usize], dist);
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

/// A shard's sink during multi-shard streaming: remaps ids, queues pushes
/// on the shared channel, and mirrors the caller sink's steering (read
/// from shared atomics the drain loop maintains). The stop flag (the
/// caller saturated) or a hung-up channel reads as saturation, aborting
/// the shard's scan.
struct ShardStreamSink<'a> {
    tx: SyncSender<Match>,
    ids: &'a [StringId],
    shared_bound: &'a AtomicUsize,
    stop: &'a AtomicBool,
    disconnected: bool,
}

impl MatchSink for ShardStreamSink<'_> {
    fn push(&mut self, id: StringId, dist: usize) {
        if self.disconnected {
            return;
        }
        if self.tx.send((self.ids[id as usize], dist)).is_err() {
            self.disconnected = true;
        }
    }

    fn bound(&self, tau: usize) -> usize {
        tau.min(self.shared_bound.load(Ordering::Relaxed))
    }

    fn saturated(&self) -> bool {
        self.disconnected || self.stop.load(Ordering::Relaxed)
    }
}

/// The sub-request shard `i` of `k` receives: identical to `req` except
/// the per-request budget's caps are split `1/k` (± the remainder,
/// assigned to the first shards). Deadlines are wall boundaries, not work
/// units, so each shard keeps the full deadline; the shared batch pool —
/// already atomic — travels as-is.
fn split_request<'a>(req: &SearchRequest<'a>, k: usize, i: usize) -> SearchRequest<'a> {
    let mut sub = req.clone();
    if let Some(budget) = req.budget() {
        if !budget.is_unlimited() && k > 1 {
            let mut split = budget.clone();
            if let Some(n) = budget.max_verifications() {
                split = split.with_max_verifications(share(n, k as u64, i as u64));
            }
            if let Some(n) = budget.max_candidates() {
                split = split.with_max_candidates(share(n, k as u64, i as u64));
            }
            sub = sub.with_budget(split);
        }
    }
    sub
}

/// `total` split into `k` near-equal integer shares; the first
/// `total % k` shares take the remainder.
fn share(total: u64, k: u64, i: u64) -> u64 {
    total / k + u64::from(i < total % k)
}

/// Rewrites a shard outcome's matches from local to global ids. Both
/// result orders survive: the id maps are strictly increasing, so
/// ascending-local-id (plain) and `(distance, local id)` (top-k) orders
/// map to their global equivalents.
fn remap_outcome(ids: &[StringId], outcome: &mut QueryOutcome) {
    if outcome.matches.is_empty() {
        return;
    }
    let remapped: Vec<Match> = outcome
        .matches
        .iter()
        .map(|&(local, dist)| (ids[local as usize], dist))
        .collect();
    outcome.matches = Arc::new(remapped);
}

/// Merges per-shard outcomes into the request's single answer; see the
/// module docs for the per-shape semantics.
fn merge_outcomes(req: &SearchRequest, parts: Vec<QueryOutcome>) -> QueryOutcome {
    if parts.is_empty() {
        // No shard owns any length the query could match: a complete,
        // empty answer.
        return QueryOutcome::default();
    }
    if parts.len() == 1 {
        let mut only = parts.into_iter().next().expect("one part");
        if req.is_count_only() {
            if let Some(cap) = req.limit() {
                only.count = only.count.min(cap);
            }
        }
        return only;
    }
    let mut stats = ExecStats::default();
    let mut completion = Completion::Complete;
    let (mut any_hit, mut any_miss) = (false, false);
    for part in &parts {
        stats.merge(&part.stats);
        if completion.is_complete() {
            completion = part.completion;
        }
        match part.cache {
            CacheOutcome::Hit => any_hit = true,
            CacheOutcome::Miss => any_miss = true,
            CacheOutcome::Bypass => {}
        }
    }
    // A miss anywhere means probing happened somewhere; only an
    // all-shards-served-from-cache request counts as a hit.
    let cache = if any_miss {
        CacheOutcome::Miss
    } else if any_hit {
        CacheOutcome::Hit
    } else {
        CacheOutcome::Bypass
    };
    if req.is_count_only() {
        let total: usize = parts.iter().map(|p| p.count).sum();
        let count = match req.limit() {
            Some(cap) => total.min(cap),
            None => total,
        };
        return QueryOutcome {
            matches: Arc::default(),
            count,
            cache,
            completion,
            stats,
        };
    }
    let merged: Vec<Match> = if let Some(k) = req.limit() {
        // Every global top-k element is in its shard's top-k, so
        // re-offering the shard heaps reproduces the single-index answer.
        let mut top = TopK::new(k);
        for part in &parts {
            for &(id, dist) in part.matches.iter() {
                top.offer((dist, id));
            }
        }
        top.into_sorted_vec()
            .into_iter()
            .map(|(dist, id)| (id, dist))
            .collect()
    } else {
        let mut all: Vec<Match> = Vec::with_capacity(parts.iter().map(|p| p.matches.len()).sum());
        for part in &parts {
            all.extend_from_slice(&part.matches);
        }
        all.sort_unstable();
        all
    };
    QueryOutcome {
        count: merged.len(),
        matches: Arc::new(merged),
        cache,
        completion,
        stats,
    }
}

/// Uniform fallback bands for corpora the builder has not seen: 16-wide
/// ranges, the last unbounded.
fn uniform_bands(n: usize) -> Vec<(usize, usize)> {
    const WIDTH: usize = 16;
    (0..n)
        .map(|i| {
            let start = i * WIDTH;
            let end = if i + 1 == n {
                usize::MAX
            } else {
                start + WIDTH - 1
            };
            (start, end)
        })
        .collect()
}

/// Cuts the length axis into `n` contiguous inclusive bands so each holds
/// roughly `total / n` strings (every band is at least one length wide;
/// the last is unbounded).
fn balanced_bands(
    histogram: &BTreeMap<usize, usize>,
    total: usize,
    n: usize,
) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    if histogram.is_empty() {
        return uniform_bands(n);
    }
    let mut bands = Vec::with_capacity(n);
    let mut start = 0usize;
    let mut cumulative = 0usize;
    let mut lengths = histogram.iter().peekable();
    for band in 0..n {
        if band + 1 == n {
            bands.push((start, usize::MAX));
            break;
        }
        // Consume lengths until this band holds its proportional share.
        let quota = (total * (band + 1)) / n;
        let mut end = start;
        while let Some(&(&len, &count)) = lengths.peek() {
            if cumulative >= quota {
                break;
            }
            cumulative += count;
            end = end.max(len);
            lengths.next();
        }
        bands.push((start, end));
        start = end + 1;
    }
    bands
}

/// FNV-1a over the string bytes; stable across platforms so hash-routed
/// persistence round-trips.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// --- Persistence -----------------------------------------------------

/// Manifest section ids (disjoint from the online-snapshot ids for
/// legibility; the manifest is its own file, so overlap would be legal).
const SEC_ROUTER_META: u32 = 16;
const SEC_ROUTER_BANDS: u32 = 17;
const SEC_ROUTER_IDS: u32 = 18;

/// META shard-by codes.
const SHARD_BY_LEN: u64 = 0;
const SHARD_BY_HASH: u64 = 1;

/// The path shard `i`'s snapshot file lives at: `<manifest>.shard<i>`.
fn shard_path(manifest: &Path, i: usize) -> std::path::PathBuf {
    let mut os = manifest.as_os_str().to_owned();
    os.push(format!(".shard{i}"));
    std::path::PathBuf::from(os)
}

/// Whether the snapshot container at `path` is a **router manifest**
/// (written by [`ShardedIndex::save_sharded`]) rather than a single-index
/// snapshot — both share the container format, so a loader can probe
/// first and pick [`ShardedIndex::load_sharded`] or
/// [`OnlineIndex::load`] accordingly.
pub fn is_sharded_snapshot(path: impl AsRef<Path>) -> Result<bool, PersistError> {
    let file = SnapshotFile::open(path.as_ref())?;
    Ok(file.section(SEC_ROUTER_META).is_ok())
}

impl ShardedIndex {
    /// Persists the router: a manifest container at `path` (partitioning
    /// policy, bands, id maps) plus one standard snapshot file per shard
    /// at `path.shard<i>` — the shard-per-file layout the section-table
    /// format was designed to allow. Returns the total bytes written.
    /// Deterministic like [`Snapshot::save`](crate::Snapshot::save).
    ///
    /// Routers built from dyn shards cannot be persisted and report
    /// [`PersistError::Corrupt`].
    pub fn save_sharded(&self, path: impl AsRef<Path>) -> Result<u64, PersistError> {
        let path = path.as_ref();
        let mut meta = Vec::with_capacity(48);
        meta.extend_from_slice(&(self.shards.len() as u64).to_le_bytes());
        meta.extend_from_slice(
            &match self.shard_by {
                ShardBy::Len => SHARD_BY_LEN,
                ShardBy::Hash => SHARD_BY_HASH,
            }
            .to_le_bytes(),
        );
        meta.extend_from_slice(&(self.tau_max as u64).to_le_bytes());
        // Every shard saves as an owned snapshot, so the manifest records
        // the owned backend code (the same values the online format uses).
        meta.extend_from_slice(&BACKEND_OWNED.to_le_bytes());
        meta.extend_from_slice(&self.epoch.to_le_bytes());
        meta.extend_from_slice(&u64::from(self.next_id).to_le_bytes());

        let mut bands = Vec::with_capacity(self.shards.len() * 16);
        let mut ids = Vec::new();
        for shard in &self.shards {
            bands.extend_from_slice(&(shard.band.0 as u64).to_le_bytes());
            bands.extend_from_slice(&(shard.band.1 as u64).to_le_bytes());
            ids.extend_from_slice(&(shard.ids.len() as u64).to_le_bytes());
            for &id in &shard.ids {
                ids.extend_from_slice(&id.to_le_bytes());
            }
        }

        let mut total = 0u64;
        for (i, shard) in self.shards.iter().enumerate() {
            let ShardSource::Index(index) = &shard.source else {
                return Err(PersistError::Corrupt {
                    context: "routers built from dyn shards cannot be persisted",
                });
            };
            total += index.save(shard_path(path, i))?;
        }

        let mut writer = SnapshotWriter::new();
        writer
            .section(SEC_ROUTER_META, meta)
            .section(SEC_ROUTER_BANDS, bands)
            .section(SEC_ROUTER_IDS, ids);
        total += writer.save(path)?;
        Ok(total)
    }

    /// Restores a router saved by [`ShardedIndex::save_sharded`]: the
    /// manifest at `path` plus its `path.shard<i>` files. Every shard
    /// round-trips through [`OnlineIndex::load`], so the restored router
    /// answers byte-identically to the saved one.
    pub fn load_sharded(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let path = path.as_ref();
        let file = SnapshotFile::open(path)?;

        let mut meta = Cursor::new(file.section(SEC_ROUTER_META)?, "router meta section");
        let shard_count = meta.len64()?;
        let shard_by = match meta.u64()? {
            SHARD_BY_LEN => ShardBy::Len,
            SHARD_BY_HASH => ShardBy::Hash,
            _ => {
                return Err(PersistError::Corrupt {
                    context: "unknown shard-by code in the router manifest",
                })
            }
        };
        let tau_max = meta.len64()?;
        // Manifests from the retired interned backend (code 1) load like
        // owned ones: each shard's own snapshot says how to decode it.
        if !matches!(meta.u64()?, BACKEND_OWNED | BACKEND_INTERNED) {
            return Err(PersistError::Corrupt {
                context: "unknown key-backend code in the router manifest",
            });
        }
        let epoch = meta.u64()?;
        let next_id = meta.u64()?;
        meta.finish()?;
        let next_id = u32::try_from(next_id).map_err(|_| PersistError::Corrupt {
            context: "router id space exceeds u32",
        })?;

        let bands_payload = file.section(SEC_ROUTER_BANDS)?;
        if shard_count
            .checked_mul(16)
            .is_none_or(|expected| bands_payload.len() != expected)
        {
            return Err(PersistError::Corrupt {
                context: "band table length disagrees with the router manifest",
            });
        }
        let mut bands = Cursor::new(bands_payload, "router band table");
        let mut ids = Cursor::new(file.section(SEC_ROUTER_IDS)?, "router id maps");

        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let band = (bands.len64()?, bands.len64()?);
            let count = ids.len64()?;
            let mut map = Vec::with_capacity(count);
            let mut previous: Option<StringId> = None;
            for _ in 0..count {
                let id = ids.u32()?;
                if id >= next_id || previous.is_some_and(|p| p >= id) {
                    return Err(PersistError::Corrupt {
                        context: "router id map is not strictly increasing within bounds",
                    });
                }
                previous = Some(id);
                map.push(id);
            }
            let index = OnlineIndex::load(shard_path(path, i))?;
            if index.tau_max() != tau_max {
                return Err(PersistError::Corrupt {
                    context: "shard snapshot disagrees with the router manifest",
                });
            }
            let stats = index.stats();
            if stats.live + stats.tombstones != map.len() {
                return Err(PersistError::Corrupt {
                    context: "shard id map does not cover the shard's id universe",
                });
            }
            shards.push(Shard {
                source: ShardSource::Index(index),
                ids: map,
                band,
            });
        }
        bands.finish()?;
        ids.finish()?;

        Ok(Self {
            shards,
            shard_by,
            tau_max,
            epoch,
            next_id,
            obs: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_bands_cover_and_balance() {
        let mut histogram = BTreeMap::new();
        for len in 1..=100usize {
            histogram.insert(len, 10);
        }
        let bands = balanced_bands(&histogram, 1000, 4);
        assert_eq!(bands.len(), 4);
        assert_eq!(bands[0].0, 0);
        assert_eq!(bands[3].1, usize::MAX);
        for w in bands.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0, "bands are contiguous");
        }
        // Roughly 25 lengths (250 strings) per band.
        assert!(bands[0].1 >= 20 && bands[0].1 <= 30, "{bands:?}");
    }

    #[test]
    fn balanced_bands_survive_skew() {
        // Every string has the same length: the first band swallows it,
        // later bands stay empty but keep valid, contiguous ranges.
        let mut histogram = BTreeMap::new();
        histogram.insert(7usize, 1000);
        let bands = balanced_bands(&histogram, 1000, 3);
        assert_eq!(bands.len(), 3);
        assert_eq!(bands[0].0, 0);
        assert_eq!(bands[2].1, usize::MAX);
        for w in bands.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0);
        }
        assert!(bands[0].1 >= 7);
    }

    #[test]
    fn share_splits_with_remainder_first() {
        assert_eq!(share(10, 3, 0), 4);
        assert_eq!(share(10, 3, 1), 3);
        assert_eq!(share(10, 3, 2), 3);
        assert_eq!((0..3).map(|i| share(10, 3, i)).sum::<u64>(), 10);
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned so hash-routed persistence stays portable.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
