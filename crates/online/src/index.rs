//! The dynamic Pass-Join index: [`OnlineIndex`] and [`Snapshot`].
//!
//! # Structure
//!
//! The index owns its strings (`Box<[u8]>` per entry, `None` tombstones for
//! removed ids) and keeps two lanes, mirroring the join drivers:
//!
//! * a **segment lane** — a [`SegmentStore`] partitioning every string of
//!   length > τ_max into τ_max+1 segments (§3.1/§3.2 of the paper, without
//!   the scan's sliding-window eviction: all lengths stay resident). Its
//!   one mutable form is a byte-keyed map ([`passjoin::OwnedSegmentIndex`]);
//!   an index loaded from a v3 snapshot instead probes the file's sorted
//!   runs until its first mutation;
//! * a **short lane** — ids of strings with length ≤ τ_max, which cannot be
//!   partitioned; queries check them brute-force (there are at most
//!   `O(|Σ|^τ_max)` meaningfully distinct ones).
//!
//! # Per-query thresholds
//!
//! The index is partitioned once for `τ_max`, but queries may use any
//! `τ ≤ τ_max`: [`passjoin::online_window`] intersects the multi-match
//! pigeonhole of the *index geometry* with the position bound of the
//! *query budget*, which stays complete (see its docs for the argument).
//! Candidates are screened with the extension cascade (§5.2) under mixed
//! budgets — left `min(i−1, τ)`, right `min(τ_max+1−i, τ−d_left)` — and
//! accepted matches are reported with their **exact** distance.
//!
//! # Concurrency
//!
//! All state lives behind an [`Arc`]; [`OnlineIndex::snapshot`] hands out a
//! cheap clone of the pointer. Mutations go through [`Arc::make_mut`]:
//! while no snapshot is alive they mutate in place (the common case), and
//! the first mutation under a live snapshot clones the state once
//! (copy-on-write), leaving readers on the old version — readers never
//! block and never observe partial mutations.

use std::fmt;
use std::sync::{Arc, Mutex};

use editdist::{length_aware_within_ws, DpWorkspace};
use passjoin::{DirectSegmentIndex, OwnedSegmentIndex, PartitionScheme};
use sj_common::stamp::StampSet;
use sj_common::{SharedBytes, StringId};

use crate::cache::{CacheStats, QueryCache};
use crate::exec::{ExecSource, Queryable};
use crate::obs::EngineObs;

/// Default capacity of the per-index query cache.
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// How the segment lane stores its inverted index.
///
/// Both stores answer every query byte-identically (pinned by the
/// `key_backends` differential suite):
///
/// * [`KeyBackend::Owned`] — the one mutable store: every distinct
///   `(length, slot, segment)` key owns a copy of its segment bytes in a
///   hash map. Every built index uses it.
/// * [`KeyBackend::Direct`] — sorted-array postings binary-searched
///   straight out of a loaded snapshot buffer
///   ([`passjoin::DirectSegmentIndex`]), never built in memory. Every
///   snapshot with the direct-probe appendix (format v3) opens on it
///   (there is nothing to *build* — the buffer is the index); the first
///   mutation rebuilds the lane as [`KeyBackend::Owned`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeyBackend {
    /// Byte-owning keys in a hash map (every built index).
    #[default]
    Owned,
    /// Snapshot-resident sorted arrays, probed in place (load-only).
    Direct,
}

impl KeyBackend {
    /// Short name used in CLI output and benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            KeyBackend::Owned => "owned",
            KeyBackend::Direct => "direct",
        }
    }
}

/// The segment lane: the mutable byte-keyed map, or a loaded snapshot's
/// sorted runs. Dispatch is by enum rather than generics so `OnlineIndex`
/// stays a single (non-generic) type — the store is decided at load time,
/// and the per-probe match is branch-predicted noise next to the lookup it
/// guards.
#[derive(Debug, Clone)]
pub(crate) enum SegmentStore {
    Owned(OwnedSegmentIndex),
    /// Snapshot-resident sorted arrays ([`DirectSegmentIndex`]). The first
    /// mutation rebuilds the lane as `Owned` (sorted arrays cannot absorb
    /// inserts); a save writes the same owned section either way.
    Direct(DirectSegmentIndex),
}

impl SegmentStore {
    pub(crate) fn new(tau_max: usize) -> Self {
        SegmentStore::Owned(OwnedSegmentIndex::new(0, tau_max))
    }

    pub(crate) fn backend(&self) -> KeyBackend {
        match self {
            SegmentStore::Owned(_) => KeyBackend::Owned,
            SegmentStore::Direct(_) => KeyBackend::Direct,
        }
    }

    pub(crate) fn tau(&self) -> usize {
        match self {
            SegmentStore::Owned(map) => map.tau(),
            SegmentStore::Direct(index) => index.tau(),
        }
    }

    pub(crate) fn scheme(&self) -> PartitionScheme {
        match self {
            SegmentStore::Owned(map) => map.scheme(),
            SegmentStore::Direct(index) => index.scheme(),
        }
    }

    /// The mutable map, rebuilding a direct store into one first. O(index)
    /// once — the replay a v1/v2 load pays up front, paid here only when
    /// a buffer-resident index is actually mutated.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's direct sections are structurally corrupt
    /// — only reachable on an instant open whose background
    /// [`verify_snapshot`](crate::verify_snapshot) has not yet rejected
    /// the file.
    fn owned_mut(&mut self) -> &mut OwnedSegmentIndex {
        if let SegmentStore::Direct(index) = self {
            let mut map = OwnedSegmentIndex::new(0, index.tau());
            index
                .try_visit_postings(|l, slot, key, ids| {
                    map.restore_posting(l, slot, key.into(), ids.to_vec())
                        .expect("direct postings replay into the owned map")
                })
                .expect("snapshot direct postings are structurally valid");
            *self = SegmentStore::Owned(map);
        }
        match self {
            SegmentStore::Owned(map) => map,
            SegmentStore::Direct(_) => unreachable!("the direct store was just rebuilt"),
        }
    }

    pub(crate) fn insert(&mut self, s: &[u8], id: StringId) {
        self.owned_mut().insert_owned(s, id);
    }

    pub(crate) fn remove(&mut self, s: &[u8], id: StringId) -> bool {
        self.owned_mut().remove_owned(s, id)
    }

    #[inline]
    pub(crate) fn has_length(&self, l: usize) -> bool {
        match self {
            SegmentStore::Owned(map) => map.has_length(l),
            SegmentStore::Direct(index) => index.has_length(l),
        }
    }

    /// The inverted list `L_l^slot` holds for segment `key`, if any: the
    /// owned store hashes the key, the direct store binary-searches it
    /// against the sorted run table in the snapshot buffer.
    #[inline]
    pub(crate) fn probe(&self, l: usize, slot: usize, key: &[u8]) -> Option<&[StringId]> {
        match self {
            SegmentStore::Owned(map) => map.probe(l, slot, key),
            SegmentStore::Direct(index) => index.probe(l, slot, key),
        }
    }

    pub(crate) fn max_len(&self) -> usize {
        match self {
            SegmentStore::Owned(map) => map.max_len(),
            SegmentStore::Direct(index) => index.max_len(),
        }
    }

    pub(crate) fn entries(&self) -> u64 {
        match self {
            SegmentStore::Owned(map) => map.entries(),
            SegmentStore::Direct(index) => index.entries(),
        }
    }

    pub(crate) fn live_bytes(&self) -> u64 {
        match self {
            SegmentStore::Owned(map) => map.live_bytes(),
            SegmentStore::Direct(index) => index.live_bytes(),
        }
    }

    pub(crate) fn visit_posting_ids(&self, f: impl FnMut(usize, StringId)) {
        match self {
            SegmentStore::Owned(map) => map.visit_posting_ids(f),
            // Only reached on validated stores (the loader validates
            // before it cross-checks coverage); structural violations
            // would already have been rejected.
            SegmentStore::Direct(index) => index
                .try_visit_posting_ids(f)
                .expect("snapshot direct postings are structurally valid"),
        }
    }

    /// Visits every posting as `(l, slot, key, ids)` in the deterministic
    /// `(l, slot, key)` order both stores share — the save path's visitor.
    pub(crate) fn visit_postings(&self, mut f: impl FnMut(usize, usize, &[u8], &[StringId])) {
        match self {
            SegmentStore::Owned(map) => map.visit_postings(f),
            SegmentStore::Direct(index) => index
                .try_visit_postings(|l, slot, key, ids| f(l, slot, key, ids))
                .expect("loaded direct postings are structurally valid"),
        }
    }
}

/// Aggregate statistics of an [`OnlineIndex`] (for dashboards and the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineStats {
    /// Live (non-removed) strings.
    pub live: usize,
    /// Removed ids still occupying tombstones.
    pub tombstones: usize,
    /// Inverted-list entries in the segment lane.
    pub segment_entries: u64,
    /// Strings in the brute-force short lane.
    pub short_strings: usize,
    /// Estimated resident bytes: segment index + live string bytes +
    /// (for a snapshot-loaded index) the rest of the pinned file buffer.
    pub resident_bytes: u64,
    /// Mutation epoch (increments on every insert/remove).
    pub epoch: u64,
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "live={} tombstones={} segment_entries={} short={} resident={}KB epoch={}",
            self.live,
            self.tombstones,
            self.segment_entries,
            self.short_strings,
            self.resident_bytes / 1024,
            self.epoch,
        )
    }
}

/// One string's storage: its own heap allocation, or a zero-copy span of
/// the shared snapshot arena ([`Inner::arena`]). Strings inserted at
/// runtime are always `Owned`; strings loaded from a snapshot stay
/// `Arena` views for their whole life — loading never copies the corpus.
#[derive(Debug, Clone)]
enum Stored {
    Owned(Box<[u8]>),
    Arena { start: usize, len: usize },
}

/// A string table served straight out of a loaded snapshot buffer: per-id
/// `(offset, len)` span entries are decoded on access instead of being
/// materialized into [`Inner::strings`] up front. This is what keeps a
/// snapshot open O(sections) — the span table (O(universe) to decode) is
/// never walked until a mutation forces [`Inner::materialize`]. All
/// offsets are relative to the whole file buffer ([`Inner::arena`]).
///
/// The accessor does not validate: a span that escapes the arena section
/// reads as a tombstone rather than slicing out of bounds, and
/// [`verify_snapshot`](crate::verify_snapshot) (not this accessor) is
/// responsible for rejecting the file.
#[derive(Debug, Clone)]
struct MappedSpans {
    /// Byte offset of the span table within the buffer.
    spans_start: usize,
    /// Byte range of the string arena within the buffer.
    arena_start: usize,
    arena_len: usize,
    universe: usize,
}

impl MappedSpans {
    /// The whole-buffer span of `id`, or `None` for tombstones,
    /// out-of-universe ids, and (unverified files) spans that escape the
    /// arena.
    fn span(&self, buf: &[u8], id: StringId) -> Option<(usize, usize)> {
        let id = id as usize;
        if id >= self.universe {
            return None;
        }
        let (start, len) = crate::persist::span_entry(&buf[self.spans_start..], id)?;
        let start = usize::try_from(start).ok()?;
        if start
            .checked_add(len)
            .is_none_or(|end| end > self.arena_len)
        {
            return None;
        }
        Some((self.arena_start + start, len))
    }

    fn get<'a>(&self, buf: &'a [u8], id: StringId) -> Option<&'a [u8]> {
        let (start, len) = self.span(buf, id)?;
        Some(&buf[start..start + len])
    }
}

/// The shared, copy-on-write state of an index and its snapshots.
#[derive(Debug, Clone)]
pub(crate) struct Inner {
    tau_max: usize,
    /// The loaded snapshot buffer that `Stored::Arena` spans point into
    /// (`None` for indices built in memory). Shared, never mutated;
    /// cloning the `Inner` (snapshot copy-on-write) clones the `Arc`.
    /// Dropped once the last arena-backed string is removed.
    arena: Option<SharedBytes>,
    /// Live bytes still referencing the arena (stats accounting).
    arena_live_bytes: u64,
    /// Live strings still referencing the arena; reaching 0 releases it
    /// (counted separately from bytes: zero-length strings are live
    /// references too).
    arena_live_strings: usize,
    /// `strings[id]` is the string's bytes, or `None` once removed.
    /// Empty while `mapped` is `Some` (a snapshot open of an all-long
    /// collection): per-id lookups go through the buffer-resident span
    /// table until the first mutation materializes it here.
    strings: Vec<Option<Stored>>,
    /// Total live string bytes (owned and arena-backed alike).
    string_bytes: u64,
    live: usize,
    segments: SegmentStore,
    /// Ascending ids of live strings with length ≤ τ_max. Empty while
    /// `mapped` is `Some`: the lazy table is only used for snapshots
    /// whose posting count proves every live string is long.
    short: Vec<StringId>,
    /// The lazy string table of a snapshot open, `None` once
    /// materialized (or for indices built in memory or holding short
    /// strings).
    mapped: Option<MappedSpans>,
}

/// Resolves a stored string against the arena. A free function (not a
/// method) so call sites can borrow `arena` and mutate sibling `Inner`
/// fields simultaneously.
fn resolve<'a>(arena: &'a Option<SharedBytes>, stored: &'a Stored) -> &'a [u8] {
    match stored {
        Stored::Owned(bytes) => bytes,
        Stored::Arena { start, len } => {
            let arena = arena.as_ref().expect("arena-backed string without arena");
            &arena[*start..*start + *len]
        }
    }
}

/// Reusable per-thread scratch for the engine: dedup stamps, DP rows, and
/// — when observability is attached — the request's verify timer. Batch
/// workers keep one each, so queries allocate nothing per call.
#[derive(Debug)]
pub(crate) struct QueryScratch {
    pub(crate) resolved: StampSet,
    pub(crate) ws: DpWorkspace,
    /// Installed per request when observability is attached; accumulates
    /// nanoseconds spent inside exact edit-distance verification. With
    /// none attached it stays `None`, and a DP call reads no clock (one
    /// predictable branch).
    pub(crate) vtimer: Option<VerifyTimer>,
}

/// Accumulates verification time for one request with observability
/// attached.
pub(crate) struct VerifyTimer {
    clock: Arc<dyn passjoin_obs::Clock>,
    ns: u64,
}

impl fmt::Debug for VerifyTimer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifyTimer").field("ns", &self.ns).finish()
    }
}

impl Default for QueryScratch {
    fn default() -> Self {
        Self {
            resolved: StampSet::new(0),
            ws: DpWorkspace::new(),
            vtimer: None,
        }
    }
}

impl QueryScratch {
    /// Prepares for one query over an id universe of the given size.
    pub(crate) fn begin(&mut self, universe: usize) {
        self.resolved.grow(universe);
        self.resolved.clear();
    }

    /// Exact thresholded edit distance using the scratch DP rows. When a
    /// verify timer is installed, the DP time is accumulated into it.
    pub(crate) fn exact_within(&mut self, r: &[u8], s: &[u8], tau: usize) -> Option<usize> {
        match &mut self.vtimer {
            Some(timer) => {
                let start = timer.clock.now_nanos();
                let out = length_aware_within_ws(r, s, tau, &mut self.ws);
                timer.ns += timer.clock.now_nanos().saturating_sub(start);
                out
            }
            None => length_aware_within_ws(r, s, tau, &mut self.ws),
        }
    }

    /// Starts accumulating verification time for one request.
    pub(crate) fn start_verify_timer(&mut self, clock: Arc<dyn passjoin_obs::Clock>) {
        self.vtimer = Some(VerifyTimer { clock, ns: 0 });
    }

    /// Stops the verify timer and returns the accumulated nanoseconds.
    pub(crate) fn take_verify_ns(&mut self) -> u64 {
        self.vtimer.take().map_or(0, |timer| timer.ns)
    }
}

impl Inner {
    fn new(tau_max: usize) -> Self {
        Self {
            tau_max,
            arena: None,
            arena_live_bytes: 0,
            arena_live_strings: 0,
            strings: Vec::new(),
            string_bytes: 0,
            live: 0,
            segments: SegmentStore::new(tau_max),
            short: Vec::new(),
            mapped: None,
        }
    }

    /// Reassembles an `Inner` from snapshot parts: the loaded file buffer,
    /// per-id spans into it (`None` = tombstone), and the already-decoded
    /// segment index. Strings stay zero-copy views of `arena`; the short
    /// lane and byte accounting are rebuilt from the spans. Returns `Err`
    /// when the parts are mutually inconsistent (checksums cannot catch a
    /// file written with lying metadata).
    pub(crate) fn from_loaded_parts(
        tau_max: usize,
        arena: SharedBytes,
        spans: Vec<Option<(usize, usize)>>,
        segments: SegmentStore,
    ) -> Result<Self, &'static str> {
        if segments.tau() != tau_max {
            return Err("segment index tau does not match tau_max");
        }
        let mut strings = Vec::with_capacity(spans.len());
        let mut short = Vec::new();
        let mut string_bytes = 0u64;
        let mut live = 0usize;
        let mut long = 0u64;
        for (id, span) in spans.into_iter().enumerate() {
            let Some((start, len)) = span else {
                strings.push(None);
                continue;
            };
            if start.checked_add(len).is_none_or(|end| end > arena.len()) {
                return Err("string span exceeds the arena");
            }
            if len > tau_max {
                long += 1;
            } else {
                short.push(id as StringId); // ids ascend: lane stays sorted
            }
            string_bytes += len as u64;
            live += 1;
            strings.push(Some(Stored::Arena { start, len }));
        }
        // Every long live string contributes exactly τ_max+1 postings; a
        // mismatch means the segment section and the string table describe
        // different collections.
        if segments.entries() != long * (tau_max as u64 + 1) {
            return Err("segment postings do not cover the live strings");
        }
        Ok(Self {
            tau_max,
            arena: Some(arena),
            arena_live_bytes: string_bytes,
            arena_live_strings: live,
            strings,
            string_bytes,
            live,
            segments,
            short,
            mapped: None,
        })
    }

    /// Reassembles an `Inner` without decoding the span table: per-id
    /// lookups read spans straight out of `buf` (the loaded file) until
    /// the first mutation materializes them. Only sound when the posting
    /// count proves every live string is long (`entries ==
    /// live·(τ_max+1)`) — then the short lane is provably empty and no
    /// O(universe) scan is needed to build it. `spans` and `arena` are
    /// the byte ranges of the respective sections within `buf`; the
    /// caller has already validated the span-table geometry against
    /// `universe`.
    pub(crate) fn from_mapped_parts(
        tau_max: usize,
        buf: SharedBytes,
        spans: std::ops::Range<usize>,
        arena: std::ops::Range<usize>,
        universe: usize,
        live: usize,
        segments: SegmentStore,
    ) -> Result<Self, &'static str> {
        if segments.tau() != tau_max {
            return Err("segment index tau does not match tau_max");
        }
        if segments.entries() != live as u64 * (tau_max as u64 + 1) {
            return Err("segment postings do not cover the live strings");
        }
        // The arena holds exactly the live strings' bytes back to back
        // (see `save_inner`), so byte accounting needs no span walk.
        let arena_len = arena.len();
        Ok(Self {
            tau_max,
            arena: Some(buf),
            arena_live_bytes: arena_len as u64,
            arena_live_strings: live,
            strings: Vec::new(),
            string_bytes: arena_len as u64,
            live,
            segments,
            short: Vec::new(),
            mapped: Some(MappedSpans {
                spans_start: spans.start,
                arena_start: arena.start,
                arena_len,
                universe,
            }),
        })
    }

    /// Converts a lazy span table into the materialized `strings` vector
    /// (the representation every mutation works on). Counts are recomputed
    /// from the spans actually decoded, so a file whose metadata lied
    /// about them converges to internally consistent accounting; the
    /// short lane is rebuilt the same way (normally empty — see
    /// [`Inner::from_mapped_parts`] — but a corrupt file's short spans
    /// land in it rather than desyncing `remove`).
    fn materialize(&mut self) {
        let Some(mapped) = self.mapped.take() else {
            return;
        };
        let buf = self.arena.as_ref().expect("mapped table without buffer");
        let mut strings = Vec::with_capacity(mapped.universe);
        let mut short = Vec::new();
        let mut string_bytes = 0u64;
        let mut live = 0usize;
        for id in 0..mapped.universe as StringId {
            match mapped.span(buf, id) {
                Some((start, len)) => {
                    if len <= self.tau_max {
                        short.push(id); // ids ascend: lane stays sorted
                    }
                    string_bytes += len as u64;
                    live += 1;
                    strings.push(Some(Stored::Arena { start, len }));
                }
                None => strings.push(None),
            }
        }
        self.strings = strings;
        self.short = short;
        self.string_bytes = string_bytes;
        self.arena_live_bytes = string_bytes;
        self.live = live;
        self.arena_live_strings = live;
    }

    pub(crate) fn tau_max(&self) -> usize {
        self.tau_max
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn get(&self, id: StringId) -> Option<&[u8]> {
        if let Some(mapped) = &self.mapped {
            let buf = self.arena.as_ref().expect("mapped table without buffer");
            return mapped.get(buf, id);
        }
        self.strings
            .get(id as usize)?
            .as_ref()
            .map(|stored| resolve(&self.arena, stored))
    }

    /// Size of the id universe (live strings + tombstones).
    pub(crate) fn universe(&self) -> usize {
        match &self.mapped {
            Some(mapped) => mapped.universe,
            None => self.strings.len(),
        }
    }

    pub(crate) fn segments(&self) -> &SegmentStore {
        &self.segments
    }

    pub(crate) fn short_ids(&self) -> &[StringId] {
        &self.short
    }

    pub(crate) fn stats(&self, epoch: u64) -> OnlineStats {
        OnlineStats {
            live: self.live,
            tombstones: self.universe() - self.live,
            segment_entries: self.segments.entries(),
            short_strings: self.short.len(),
            resident_bytes: self.segments.live_bytes()
                + self.string_bytes
                + self
                    .arena
                    .as_ref()
                    .map_or(0, |arena| arena.len() as u64 - self.arena_live_bytes),
            epoch,
        }
    }

    fn insert(&mut self, s: &[u8]) -> StringId {
        self.materialize();
        assert!(
            self.strings.len() < u32::MAX as usize,
            "online index exceeds u32 id space"
        );
        let id = self.strings.len() as StringId;
        if s.len() > self.tau_max {
            self.segments.insert(s, id);
        } else {
            self.short.push(id); // new ids are maximal: stays ascending
        }
        self.strings.push(Some(Stored::Owned(s.into())));
        self.string_bytes += s.len() as u64;
        self.live += 1;
        id
    }

    fn remove(&mut self, id: StringId) -> bool {
        self.materialize();
        let Some(slot) = self.strings.get_mut(id as usize) else {
            return false;
        };
        let Some(stored) = slot.take() else {
            return false;
        };
        let bytes = resolve(&self.arena, &stored);
        let len = bytes.len();
        if len > self.tau_max {
            let removed = self.segments.remove(bytes, id);
            debug_assert!(removed, "live string must be segment-indexed");
        } else {
            let pos = self.short.binary_search(&id).expect("live short id");
            self.short.remove(pos);
        }
        if let Stored::Arena { .. } = stored {
            self.arena_live_bytes -= len as u64;
            self.arena_live_strings -= 1;
            if self.arena_live_strings == 0 {
                // Nothing references the snapshot buffer any more: stop
                // pinning it (a fully churned loaded index converges to
                // the memory profile of a built one).
                debug_assert_eq!(self.arena_live_bytes, 0);
                self.arena = None;
            }
        }
        self.string_bytes -= len as u64;
        self.live -= 1;
        true
    }
}

/// Configures and builds an [`OnlineIndex`]: τ_max, query-cache capacity,
/// and observability in one place.
///
/// ```
/// use passjoin_online::{KeyBackend, OnlineIndex, Queryable};
///
/// let index = OnlineIndex::builder(2)
///     .cache_capacity(4096)
///     .build_from(["vldb", "pvldb"]);
/// assert_eq!(index.key_backend(), KeyBackend::Owned);
/// assert_eq!(index.matches(b"vldb", 1), vec![(0, 0), (1, 1)]);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineIndexBuilder {
    tau_max: usize,
    cache_capacity: usize,
    obs: Option<Arc<EngineObs>>,
}

impl OnlineIndexBuilder {
    pub(crate) fn new(tau_max: usize) -> Self {
        Self {
            tau_max,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            obs: None,
        }
    }

    /// Sets the LRU query-cache capacity in results (0 disables caching).
    /// Default: 1024.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Attaches an observability bundle: the built index (and every
    /// snapshot taken from it) records metrics, phase timings, and trace
    /// events into it. Default: detached — queries pay no instrumentation
    /// cost beyond one `Option` check per request.
    pub fn observability(mut self, obs: Arc<EngineObs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Builds an empty index.
    pub fn build(self) -> OnlineIndex {
        let mut cache = QueryCache::new(self.cache_capacity);
        if let Some(obs) = &self.obs {
            cache.set_counters(Some(obs.cache_counters()));
        }
        OnlineIndex {
            inner: Arc::new(Inner::new(self.tau_max)),
            epoch: 0,
            cache: Mutex::new(cache),
            obs: self.obs,
        }
    }

    /// Builds an index over an initial collection (ids are assigned in
    /// iteration order, starting at 0).
    pub fn build_from<I, S>(self, strings: I) -> OnlineIndex
    where
        I: IntoIterator<Item = S>,
        S: AsRef<[u8]>,
    {
        let mut index = self.build();
        for s in strings {
            index.insert(s.as_ref());
        }
        index
    }
}

/// A dynamic Pass-Join index over an owned string collection, supporting
/// inserts, removes, per-query thresholds up to a build-time `τ_max`,
/// batched/parallel queries, an LRU result cache, and copy-on-write
/// snapshots for concurrent readers.
///
/// Queries go through the [`Queryable`] trait — one typed surface
/// ([`crate::SearchRequest`] → [`crate::QueryOutcome`]) shared with
/// [`Snapshot`]:
///
/// ```
/// use passjoin_online::{OnlineIndex, Queryable, SearchRequest};
///
/// let mut index = OnlineIndex::new(2);
/// let vldb = index.insert(b"vldb");
/// index.insert(b"pvldb");
/// index.insert(b"sigmod");
///
/// assert_eq!(index.matches(b"vldbb", 1), vec![(vldb, 1)]);
/// assert_eq!(index.matches(b"vldbb", 2), vec![(vldb, 1), (1, 2)]);
///
/// // The typed form adds limits, counts, caching, and per-query stats.
/// let outcome = index.search(&SearchRequest::new(b"vldbb", 2).with_limit(1));
/// assert_eq!(*outcome.matches, vec![(vldb, 1)]);
///
/// index.remove(vldb);
/// assert_eq!(index.matches(b"vldbb", 2), vec![(1, 2)]);
/// ```
#[derive(Debug)]
pub struct OnlineIndex {
    pub(crate) inner: Arc<Inner>,
    /// Mutation counter; validates cached results and tells snapshot users
    /// how stale they are.
    pub(crate) epoch: u64,
    /// Behind a mutex so cached queries work through `&self` (and from
    /// parallel batch workers); uncontended in the common case.
    pub(crate) cache: Mutex<QueryCache>,
    /// Observability bundle; `None` (the default) disables instrumentation.
    pub(crate) obs: Option<Arc<EngineObs>>,
}

impl Queryable for OnlineIndex {
    fn exec_source(&self) -> Option<ExecSource<'_>> {
        Some(self.source())
    }
}

impl OnlineIndex {
    /// The engine view of this index: its inner state, epoch, cache, and
    /// observability bundle.
    pub(crate) fn source(&self) -> ExecSource<'_> {
        ExecSource {
            inner: &self.inner,
            epoch: self.epoch,
            cache: Some(&self.cache),
            obs: self.obs.as_deref(),
        }
    }

    /// An empty index accepting queries with thresholds up to `tau_max`,
    /// with the default cache (see [`OnlineIndex::builder`] for the
    /// knobs).
    ///
    /// Larger `tau_max` costs index space (τ_max+1 inverted entries per
    /// string) and candidate selectivity; the paper's workloads use τ ≤ 8.
    pub fn new(tau_max: usize) -> Self {
        Self::builder(tau_max).build()
    }

    /// A builder for an index with a non-default cache capacity or
    /// observability attached.
    pub fn builder(tau_max: usize) -> OnlineIndexBuilder {
        OnlineIndexBuilder::new(tau_max)
    }

    /// Builds an index from an initial collection (ids are assigned in
    /// iteration order, starting at 0) with the default cache.
    pub fn from_strings<I, S>(strings: I, tau_max: usize) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<[u8]>,
    {
        Self::builder(tau_max).build_from(strings)
    }

    /// Replaces the query cache with one holding `capacity` results
    /// (0 disables caching). Existing entries and counters are dropped.
    /// For indices whose construction the caller does not control (e.g.
    /// [`OnlineIndex::load`](crate::OnlineIndex::load)); prefer
    /// [`OnlineIndex::builder`] when building.
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        let mut cache = QueryCache::new(capacity);
        if let Some(obs) = &self.obs {
            cache.set_counters(Some(obs.cache_counters()));
        }
        self.cache = Mutex::new(cache);
    }

    /// Attaches (or, with `None`, detaches) an observability bundle; see
    /// [`OnlineIndexBuilder::observability`]. For indices whose
    /// construction the caller does not control (e.g.
    /// [`OnlineIndex::load`](crate::OnlineIndex::load)). Snapshots taken
    /// *after* this call inherit the bundle.
    pub fn set_observability(&mut self, obs: Option<Arc<EngineObs>>) {
        crate::exec::lock(&self.cache).set_counters(obs.as_ref().map(|obs| obs.cache_counters()));
        self.obs = obs;
    }

    /// The attached observability bundle, if any.
    pub fn observability(&self) -> Option<&Arc<EngineObs>> {
        self.obs.as_ref()
    }

    /// The largest per-query threshold this index supports.
    pub fn tau_max(&self) -> usize {
        self.inner.tau_max()
    }

    /// Which store the segment lane is in: [`KeyBackend::Owned`], or
    /// [`KeyBackend::Direct`] for an index loaded from a snapshot with the
    /// direct-probe appendix (every v3 file) and not yet mutated.
    pub fn key_backend(&self) -> KeyBackend {
        self.inner.segments().backend()
    }

    /// Live (non-removed) strings.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if no live strings are indexed.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// The bytes of string `id`, if it is live.
    pub fn get(&self, id: StringId) -> Option<&[u8]> {
        self.inner.get(id)
    }

    /// The mutation epoch: increments on every insert/remove. Comparing a
    /// snapshot's epoch with the index's tells how stale the snapshot is.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Aggregate statistics (sizes, lanes, epoch).
    pub fn stats(&self) -> OnlineStats {
        self.inner.stats(self.epoch)
    }

    /// Cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        crate::exec::lock(&self.cache).stats()
    }

    /// Inserts a string and returns its id. Ids are dense and ascending;
    /// removed ids are never reused.
    ///
    /// O(τ_max) hash-map insertions — plus, once per outstanding
    /// [`Snapshot`], a one-time copy-on-write clone of the whole state.
    pub fn insert(&mut self, s: &[u8]) -> StringId {
        self.epoch += 1;
        Arc::make_mut(&mut self.inner).insert(s)
    }

    /// Removes string `id`; returns `false` if it was never inserted or was
    /// already removed. Same cost shape as [`OnlineIndex::insert`].
    pub fn remove(&mut self, id: StringId) -> bool {
        // Bump the epoch only on an actual removal: a failed remove must
        // not invalidate the cache.
        let removed = Arc::make_mut(&mut self.inner).remove(id);
        if removed {
            self.epoch += 1;
        }
        removed
    }

    /// A cheap point-in-time view for concurrent readers: O(1) now; the
    /// *next* mutation of the index pays a one-time clone of the state
    /// (copy-on-write). Queries on the snapshot see exactly the state at
    /// snapshot time, regardless of later mutations.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            inner: Arc::clone(&self.inner),
            epoch: self.epoch,
            obs: self.obs.clone(),
        }
    }
}

/// An immutable point-in-time view of an [`OnlineIndex`], safe to query
/// from any thread (`Send + Sync`; queries take `&self`). Served through
/// the same [`Queryable`] engine as the index (it has no cache of its
/// own, so cache-policy requests record a bypass).
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) inner: Arc<Inner>,
    pub(crate) epoch: u64,
    /// Inherited from the index at snapshot time.
    pub(crate) obs: Option<Arc<EngineObs>>,
}

impl Queryable for Snapshot {
    fn exec_source(&self) -> Option<ExecSource<'_>> {
        Some(self.source())
    }
}

impl Snapshot {
    /// The engine view of this snapshot (no cache — snapshots answer
    /// without one, so cache-policy requests record a bypass).
    pub(crate) fn source(&self) -> ExecSource<'_> {
        ExecSource {
            inner: &self.inner,
            epoch: self.epoch,
            cache: None,
            obs: self.obs.as_deref(),
        }
    }

    /// The mutation epoch the snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The largest per-query threshold the underlying index supports.
    pub fn tau_max(&self) -> usize {
        self.inner.tau_max()
    }

    /// Which store the underlying index's segment lane is in.
    pub fn key_backend(&self) -> KeyBackend {
        self.inner.segments().backend()
    }

    /// Live strings at snapshot time.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if the snapshot holds no live strings.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// The bytes of string `id` at snapshot time.
    pub fn get(&self, id: StringId) -> Option<&[u8]> {
        self.inner.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{CacheOutcome, CachePolicy, ExecStats, SearchRequest};
    use crate::Match;

    fn brute(index: &OnlineIndex, query: &[u8], tau: usize) -> Vec<Match> {
        (0..index.inner.universe() as u32)
            .filter_map(|id| {
                let s = index.get(id)?;
                let d = editdist::edit_distance(s, query);
                (d <= tau).then_some((id, d))
            })
            .collect()
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut index = OnlineIndex::new(2);
        let a = index.insert(b"partition");
        let b = index.insert(b"petition");
        let c = index.insert(b"postition");
        assert_eq!(index.len(), 3);

        let hits = index.matches(b"partition", 2);
        assert_eq!(hits, vec![(a, 0), (b, 2), (c, 2)]);
        assert_eq!(index.matches(b"partition", 0), vec![(a, 0)]);

        assert!(index.remove(b));
        assert!(!index.remove(b), "double remove is a no-op");
        assert_eq!(index.matches(b"partition", 2), vec![(a, 0), (c, 2)]);
        assert_eq!(index.len(), 2);
        assert_eq!(index.get(b), None);
    }

    #[test]
    fn per_query_taus_share_one_index() {
        let mut index = OnlineIndex::new(3);
        for s in [
            "string similarity",
            "string similarty",
            "strong similarity",
            "unrelated",
        ] {
            index.insert(s.as_bytes());
        }
        for tau in 0..=3 {
            let mut expected = brute(&index, b"string similarity", tau);
            expected.sort_unstable();
            assert_eq!(
                index.matches(b"string similarity", tau),
                expected,
                "tau={tau}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the index's τ_max")]
    fn tau_above_max_panics() {
        let index = OnlineIndex::new(1);
        index.matches(b"x", 2);
    }

    #[test]
    #[should_panic(expected = "exceeds the index's τ_max")]
    fn batch_tau_above_max_panics_too() {
        // Regression: the batch path must validate τ like the single path
        // (in release builds it would otherwise silently drop matches).
        let mut index = OnlineIndex::new(1);
        index.insert(b"abcdefgh");
        index.insert(b"abXdeXgh");
        index.search_batch(&SearchRequest::uniform(&[b"abcdefgh".as_slice()], 2));
    }

    #[test]
    #[should_panic(expected = "exceeds the index's τ_max")]
    fn parallel_batch_keeps_the_engine_panic_message() {
        // A worker's panic reaches the caller with its own message, as
        // on the serial path, not a generic "worker panicked".
        let mut index = OnlineIndex::new(1);
        index.insert(b"abcdefgh");
        index.insert(b"abXdeXgh");
        let reqs: Vec<SearchRequest> = (0..100)
            .map(|i| {
                SearchRequest::borrowed(b"abcdefgh", if i == 57 { 2 } else { 1 })
                    .with_parallelism(crate::Parallelism::Threads(2))
            })
            .collect();
        index.search_batch(&reqs);
    }

    #[test]
    fn short_strings_are_served() {
        let mut index = OnlineIndex::new(3);
        let a = index.insert(b"ab");
        let b = index.insert(b"");
        let c = index.insert(b"abcd");
        assert_eq!(index.matches(b"ab", 2), vec![(a, 0), (b, 2), (c, 2)]);
        assert_eq!(index.matches(b"", 2), vec![(a, 2), (b, 0)]);
        index.remove(a);
        assert_eq!(index.matches(b"ab", 2), vec![(b, 2), (c, 2)]);
    }

    #[test]
    fn duplicates_get_distinct_ids() {
        let mut index = OnlineIndex::new(1);
        let a = index.insert(b"duplicate");
        let b = index.insert(b"duplicate");
        assert_ne!(a, b);
        assert_eq!(index.matches(b"duplicate", 0), vec![(a, 0), (b, 0)]);
        index.remove(a);
        assert_eq!(index.matches(b"duplicate", 0), vec![(b, 0)]);
    }

    #[test]
    fn snapshot_is_point_in_time() {
        let mut index = OnlineIndex::new(1);
        index.insert(b"original entry");
        let snap = index.snapshot();
        let removed_late = index.insert(b"added after snapshot");
        index.remove(0);

        // The snapshot still sees the original state…
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.matches(b"original entry", 1), vec![(0, 0)]);
        assert_eq!(snap.get(removed_late), None);
        // …while the index sees the new one.
        assert_eq!(index.len(), 1);
        assert!(index.matches(b"original entry", 1).is_empty());
        assert_eq!(
            index.matches(b"added after snapshot", 1),
            vec![(removed_late, 0)]
        );
        assert_ne!(snap.epoch(), index.epoch());
    }

    #[test]
    fn snapshots_are_queryable_across_threads() {
        let mut index = OnlineIndex::new(2);
        for i in 0..200u32 {
            index.insert(format!("record number {i:03}").as_bytes());
        }
        let snap = index.snapshot();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let snap = snap.clone();
                    scope.spawn(move || snap.matches(b"record number 007", 2).len())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        // Mutating under live snapshots must not disturb them (COW).
        index.insert(b"record number 007");
        assert!(results.iter().all(|&n| n == results[0] && n >= 1));
    }

    #[test]
    fn cache_serves_repeats_and_invalidates_on_mutation() {
        let mut index = OnlineIndex::new(2);
        for i in 0..50u32 {
            index.insert(format!("cached entry {i:02}").as_bytes());
        }
        let req = SearchRequest::new(b"cached entry 07", 1).with_cache(CachePolicy::Use);
        let first = index.search(&req);
        assert_eq!(first.cache, CacheOutcome::Miss);
        let again = index.search(&req);
        assert_eq!(again.cache, CacheOutcome::Hit, "second lookup must hit");
        assert_eq!(again.matches, first.matches);
        assert!(
            Arc::ptr_eq(&again.matches, &first.matches),
            "a hit shares the cached vector, it does not copy it"
        );
        assert_eq!(again.stats.verifications, 0, "hits probe nothing");
        assert_eq!(index.cache_stats().hits, 1);

        let added = index.insert(b"cached entry 07");
        let after = index.search(&req);
        assert_eq!(after.cache, CacheOutcome::Miss);
        assert!(
            after.matches.iter().any(|&(id, d)| id == added && d == 0),
            "post-mutation lookup must see the new string"
        );
        assert_eq!(index.cache_stats().invalidations, 1);
    }

    #[test]
    fn shaped_requests_derive_from_cached_full_results() {
        let mut index = OnlineIndex::new(1);
        index.insert(b"shaped entry");
        // Shaped requests consult the cache but never populate it: a
        // shaped result must not masquerade as the full answer.
        let limited = SearchRequest::new(b"shaped entry", 1)
            .with_cache(CachePolicy::Use)
            .with_limit(1);
        assert_eq!(index.search(&limited).cache, CacheOutcome::Miss);
        assert_eq!(index.search(&limited).cache, CacheOutcome::Miss);
        // A plain request stores the full result…
        let plain = SearchRequest::new(b"shaped entry", 1).with_cache(CachePolicy::Use);
        let full = index.search(&plain);
        assert_eq!(full.cache, CacheOutcome::Miss);
        // …from which shaped requests are then derived without probing.
        let derived = index.search(&limited);
        assert_eq!(derived.cache, CacheOutcome::Hit);
        assert_eq!(derived.stats, ExecStats::default(), "hits probe nothing");
        assert_eq!(*derived.matches, vec![(0, 0)]);
        let counted = SearchRequest::new(b"shaped entry", 1)
            .with_cache(CachePolicy::Use)
            .count_only();
        let count_hit = index.search(&counted);
        assert_eq!(count_hit.cache, CacheOutcome::Hit);
        assert_eq!(count_hit.count, full.count);
        // Snapshots have no cache at all.
        assert_eq!(index.snapshot().search(&plain).cache, CacheOutcome::Bypass);
        // And the default policy never consults it.
        assert_eq!(
            index.search(&SearchRequest::new(b"shaped entry", 1)).cache,
            CacheOutcome::Bypass
        );
    }

    #[test]
    fn builder_configures_all_knobs() {
        let obs = Arc::new(EngineObs::new());
        let index = OnlineIndex::builder(2)
            .cache_capacity(0)
            .observability(Arc::clone(&obs))
            .build_from(["alpha beta", "alpha bete"]);
        assert_eq!(index.tau_max(), 2);
        assert_eq!(index.key_backend(), KeyBackend::Owned);
        assert!(Arc::ptr_eq(index.observability().unwrap(), &obs));
        assert_eq!(index.matches(b"alpha beta", 1).len(), 2);
        // Capacity 0 disables caching: repeated Use requests never hit.
        let req = SearchRequest::new(b"alpha beta", 1).with_cache(CachePolicy::Use);
        assert_eq!(index.search(&req).cache, CacheOutcome::Miss);
        assert_eq!(index.search(&req).cache, CacheOutcome::Miss);
        assert_eq!(index.cache_stats().hits, 0);
    }

    #[test]
    fn stats_display_is_one_line() {
        let mut index = OnlineIndex::new(2);
        index.insert(b"ab");
        index.insert(b"abcdefgh");
        let line = index.stats().to_string();
        assert!(line.contains("live=2"), "{line}");
        assert!(line.contains("segment_entries=3"), "{line}");
    }

    #[test]
    fn stats_track_lanes_and_bytes() {
        let mut index = OnlineIndex::new(2);
        index.insert(b"ab");
        index.insert(b"abcdefgh");
        let before = index.stats();
        assert_eq!(before.live, 2);
        assert_eq!(before.short_strings, 1);
        assert_eq!(before.segment_entries, 3); // τ_max+1 entries
        assert!(before.resident_bytes > 0);
        index.remove(0);
        let after = index.stats();
        assert_eq!(after.live, 1);
        assert_eq!(after.tombstones, 1);
        assert!(after.resident_bytes < before.resident_bytes);
        assert!(after.epoch > before.epoch);
    }
}
