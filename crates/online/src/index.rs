//! The dynamic Pass-Join index: [`OnlineIndex`] and [`Snapshot`].
//!
//! # Structure
//!
//! The index keeps one string table. An index opened from a snapshot
//! reads the ids below the file's universe in place, through the file's
//! span table, for its whole life; removing one sets its bit in a
//! bitset. Every id assigned after the open (all of a built index's)
//! owns a `Box<[u8]>` in a tail, `None` once removed. Beside the table
//! sit two lanes, mirroring the join drivers:
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
//! Before the cascade, a candidate whose characters differ from the
//! query's in more than 2τ buckets of a 64-bit presence signature is
//! rejected ([`editdist::signature_bound`]): one edit flips at most two
//! bits, so no match is lost. An owned string's signature is stored
//! beside its bytes, so that reject never reads them; a loaded string's
//! is computed from the bytes it reads in place, and nothing is added to
//! the snapshot file.
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
use std::ops::Range;
use std::sync::{Arc, Mutex};

use editdist::{char_signature, length_aware_within_ws, DpWorkspace};
use passjoin::{DirectSegmentIndex, OwnedSegmentIndex, PartitionScheme};
use sj_common::hash::FxHashSet;
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

    /// The mutable map. [`Inner::own_segments`] rebuilds a direct store
    /// as one before the first mutation.
    fn owned_mut(&mut self) -> &mut OwnedSegmentIndex {
        match self {
            SegmentStore::Owned(map) => map,
            SegmentStore::Direct(_) => unreachable!("a direct store is rebuilt before a mutation"),
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
    /// `Err` when a direct store's runs escape the file: an instant open
    /// whose background [`verify_snapshot`](crate::verify_snapshot) has
    /// not yet rejected it.
    pub(crate) fn visit_postings(
        &self,
        mut f: impl FnMut(usize, usize, &[u8], &[StringId]),
    ) -> Result<(), &'static str> {
        match self {
            SegmentStore::Owned(map) => {
                map.visit_postings(f);
                Ok(())
            }
            SegmentStore::Direct(index) => {
                index.try_visit_postings(|l, slot, key, ids| f(l, slot, key, ids))
            }
        }
    }
}

/// A direct store's postings replayed into the owned map, or `None` when
/// they do not replay (a structurally corrupt file).
fn replay(index: &DirectSegmentIndex) -> Option<OwnedSegmentIndex> {
    let mut map = OwnedSegmentIndex::new(0, index.tau());
    let mut replayed = true;
    index
        .try_visit_postings(|l, slot, key, ids| {
            if replayed {
                replayed = map
                    .restore_posting(l, slot, key.into(), ids.to_vec())
                    .is_ok();
            }
        })
        .ok()?;
    replayed.then_some(map)
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

/// A loaded snapshot's string table, read in place for the index's whole
/// life: per-id `(offset, len)` span entries are decoded out of the file
/// buffer on access, and removing a loaded id sets its bit in `removed`
/// rather than rewriting anything. Nothing is stored per id beyond that
/// bitset.
///
/// The accessor does not validate: a span that escapes the arena section
/// reads as a tombstone rather than slicing out of bounds, and
/// [`verify_snapshot`](crate::verify_snapshot) (not this accessor) is
/// responsible for rejecting the file.
#[derive(Debug, Clone)]
struct LoadedStrings {
    /// The loaded file buffer. Shared, never mutated; cloning the table
    /// (snapshot copy-on-write) clones the `Arc`.
    buf: SharedBytes,
    /// Byte offset of the span table within the buffer.
    spans: usize,
    /// Byte range of the string arena within the buffer.
    arena: Range<usize>,
    /// Bit `id` is set once loaded id `id` is removed: ⌈universe/64⌉
    /// words, allocated at the first removal.
    removed: Vec<u64>,
    /// Live loaded strings; reaching 0 releases the buffer (counted
    /// apart from bytes: zero-length strings are live references too).
    live: usize,
    /// Bytes of the live loaded strings (stats accounting).
    live_bytes: u64,
    /// Whether the span walk ([`Inner::count_loaded`]) has run. Until it
    /// does, `live` and `live_bytes` are META's counts.
    counted: bool,
}

impl LoadedStrings {
    /// The bytes of loaded id `id` (below the file's universe), or `None`
    /// for tombstones, removed ids, and (unverified files) spans that
    /// escape the arena.
    fn get(&self, id: usize) -> Option<&[u8]> {
        if self
            .removed
            .get(id / 64)
            .is_some_and(|word| word >> (id % 64) & 1 != 0)
        {
            return None;
        }
        let buf: &[u8] = &self.buf;
        let (start, len) = crate::persist::span_entry(&buf[self.spans..], id)?;
        let start = usize::try_from(start).ok()?;
        buf[self.arena.clone()].get(start..start.checked_add(len)?)
    }

    /// Marks live loaded id `id` (of `len` bytes) removed; returns `true`
    /// when it was the last live loaded string.
    fn remove(&mut self, id: usize, len: usize, universe: usize) -> bool {
        self.removed.resize(universe.div_ceil(64), 0);
        self.removed[id / 64] |= 1 << (id % 64);
        self.live -= 1;
        self.live_bytes -= len as u64;
        self.live == 0
    }
}

/// The shared, copy-on-write state of an index and its snapshots.
#[derive(Debug, Clone)]
pub(crate) struct Inner {
    tau_max: usize,
    /// The opened file's string table, serving ids below `loaded`.
    /// `None` for an index built in memory, and once the last loaded
    /// string is removed.
    table: Option<LoadedStrings>,
    /// Ids below this came from the opened file (0 for a built index).
    loaded: usize,
    /// Strings inserted since the open (all of a built index's):
    /// `tail[i]` is id `loaded + i`, `None` once removed.
    tail: Vec<Option<Box<[u8]>>>,
    /// `tail_sigs[i]` is the [`char_signature`] of `tail[i]`'s string,
    /// kept after a removal.
    tail_sigs: Vec<u64>,
    /// Total live string bytes (loaded and owned alike).
    string_bytes: u64,
    live: usize,
    segments: SegmentStore,
    /// Ascending ids of live strings with length ≤ τ_max. Empty before
    /// the span walk: it is deferred only when the posting count proves
    /// every live string long.
    short: Vec<StringId>,
}

/// Takes live string `id` out of its lane. A free function (not a
/// method) so a caller can hold the string's bytes, borrowed from a
/// sibling `Inner` field, while the lanes are mutated.
fn unindex(
    segments: &mut SegmentStore,
    short: &mut Vec<StringId>,
    tau_max: usize,
    s: &[u8],
    id: StringId,
) {
    if s.len() > tau_max {
        let removed = segments.remove(s, id);
        debug_assert!(removed, "live string must be segment-indexed");
    } else {
        let pos = short.binary_search(&id).expect("live short id");
        short.remove(pos);
    }
}

/// Reusable per-thread scratch for the engine: the query's accepted ids
/// and signature, DP rows, and — when observability is attached — the
/// request's verify timer. Batch workers keep one each, so a query's
/// allocations grow with its matches, never with the index.
#[derive(Debug, Default)]
pub(crate) struct QueryScratch {
    /// Segment-lane ids this query has accepted, so a string found
    /// through several segments is reported once.
    pub(crate) resolved: FxHashSet<StringId>,
    /// The query's [`char_signature`].
    pub(crate) query_sig: u64,
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

impl QueryScratch {
    /// Prepares for one query.
    pub(crate) fn begin(&mut self, query: &[u8]) {
        self.resolved.clear();
        self.query_sig = char_signature(query);
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
            table: None,
            loaded: 0,
            tail: Vec::new(),
            tail_sigs: Vec::new(),
            string_bytes: 0,
            live: 0,
            segments: SegmentStore::new(tau_max),
            short: Vec::new(),
        }
    }

    /// The state of an opened snapshot file: strings are read in place
    /// out of `buf` (the loaded file), whose span table starts at byte
    /// `spans` and whose arena occupies `arena`; `universe` and `live`
    /// are META's counts. The caller has already validated the section
    /// geometry against them.
    ///
    /// When the posting count proves every live string long (`entries ==
    /// live·(τ_max+1)`) the short lane is provably empty, and the span
    /// walk waits for the first mutation. Otherwise it runs here, and
    /// returns `Err` when the spans and the postings describe different
    /// collections (checksums cannot catch a file written with lying
    /// metadata).
    pub(crate) fn open(
        tau_max: usize,
        buf: SharedBytes,
        spans: usize,
        arena: Range<usize>,
        universe: usize,
        live: usize,
        segments: SegmentStore,
    ) -> Result<Self, &'static str> {
        if segments.tau() != tau_max {
            return Err("segment index tau does not match tau_max");
        }
        // The arena holds exactly the live strings' bytes back to back
        // (see `save_inner`), so until the walk the byte count is its
        // length.
        let bytes = arena.len() as u64;
        let mut inner = Self {
            tau_max,
            table: Some(LoadedStrings {
                buf,
                spans,
                arena,
                removed: Vec::new(),
                live,
                live_bytes: bytes,
                counted: false,
            }),
            loaded: universe,
            tail: Vec::new(),
            tail_sigs: Vec::new(),
            string_bytes: bytes,
            live,
            segments,
            short: Vec::new(),
        };
        let postings_per_string = tau_max as u64 + 1;
        if inner.segments.entries() != live as u64 * postings_per_string {
            inner.count_loaded();
            if inner.live != live {
                return Err("live spans disagree with the meta section");
            }
            // Every long live string contributes exactly τ_max+1 postings.
            let long = (inner.live - inner.short.len()) as u64;
            if inner.segments.entries() != long * postings_per_string {
                return Err("segment postings do not cover the live strings");
            }
        }
        Ok(inner)
    }

    /// The one walk over the loaded span table, run before anything is
    /// mutated (at open, or at the first mutation of an all-long file):
    /// builds the short lane and recounts the live strings and bytes from
    /// the spans actually read. A file whose metadata lied converges to
    /// internally consistent accounting, and a hostile span reads as a
    /// tombstone rather than desyncing `remove`.
    fn count_loaded(&mut self) {
        let Some(table) = self.table.as_mut().filter(|table| !table.counted) else {
            return;
        };
        debug_assert!(self.tail.is_empty() && self.short.is_empty());
        let (mut live, mut bytes) = (0usize, 0u64);
        for id in 0..self.loaded {
            if let Some(s) = table.get(id) {
                if s.len() <= self.tau_max {
                    self.short.push(id as StringId); // ids ascend: lane stays sorted
                }
                live += 1;
                bytes += s.len() as u64;
            }
        }
        table.counted = true;
        table.live = live;
        table.live_bytes = bytes;
        self.live = live;
        self.string_bytes = bytes;
    }

    pub(crate) fn tau_max(&self) -> usize {
        self.tau_max
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn get(&self, id: StringId) -> Option<&[u8]> {
        let id = id as usize;
        match id.checked_sub(self.loaded) {
            Some(i) => self.tail.get(i)?.as_deref(),
            None => self.table.as_ref()?.get(id),
        }
    }

    /// The [`char_signature`] of live string `id`, whose bytes are `s`:
    /// stored for an owned id, computed from `s` for a loaded one.
    #[inline]
    pub(crate) fn signature(&self, id: StringId, s: &[u8]) -> u64 {
        match (id as usize).checked_sub(self.loaded) {
            Some(i) => self.tail_sigs[i],
            None => char_signature(s),
        }
    }

    /// Size of the id universe (live strings + tombstones).
    pub(crate) fn universe(&self) -> usize {
        self.loaded + self.tail.len()
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
                    .table
                    .as_ref()
                    .map_or(0, |table| table.buf.len() as u64 - table.live_bytes),
            epoch,
        }
    }

    /// Rebuilds a direct segment lane as the owned map every mutation
    /// needs: O(index), once, at the first mutation of an index opened on
    /// a v3 file. The file's postings replay into the map. When they do
    /// not, the file is corrupt and its background check has yet to say
    /// so; the live long strings are partitioned again instead, so the
    /// index stays consistent with the strings it reads.
    fn own_segments(&mut self) {
        let SegmentStore::Direct(index) = &self.segments else {
            return;
        };
        let map = replay(index).unwrap_or_else(|| {
            let mut map = OwnedSegmentIndex::new(0, self.tau_max);
            for id in 0..self.universe() as StringId {
                if let Some(s) = self.get(id).filter(|s| s.len() > self.tau_max) {
                    map.insert_owned(s, id);
                }
            }
            map
        });
        self.segments = SegmentStore::Owned(map);
    }

    fn insert(&mut self, s: &[u8]) -> StringId {
        self.count_loaded();
        self.own_segments();
        let id = self.universe();
        assert!(id < u32::MAX as usize, "online index exceeds u32 id space");
        let id = id as StringId;
        if s.len() > self.tau_max {
            self.segments.insert(s, id);
        } else {
            self.short.push(id); // new ids are maximal: stays ascending
        }
        self.tail.push(Some(s.into()));
        self.tail_sigs.push(char_signature(s));
        self.string_bytes += s.len() as u64;
        self.live += 1;
        id
    }

    fn remove(&mut self, id: StringId) -> bool {
        self.count_loaded();
        self.own_segments();
        let at = id as usize;
        let len = match at.checked_sub(self.loaded) {
            Some(i) => {
                let Some(s) = self.tail.get_mut(i).and_then(Option::take) else {
                    return false;
                };
                unindex(&mut self.segments, &mut self.short, self.tau_max, &s, id);
                s.len()
            }
            None => {
                let Some(table) = &mut self.table else {
                    return false;
                };
                let Some(s) = table.get(at) else {
                    return false;
                };
                let len = s.len();
                unindex(&mut self.segments, &mut self.short, self.tau_max, s, id);
                if table.remove(at, len, self.loaded) {
                    // Nothing reads the file buffer any more: stop
                    // pinning it (a fully churned loaded index converges
                    // to the memory profile of a built one).
                    self.table = None;
                }
                len
            }
        };
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

    /// A snapshot of a loaded index keeps its length, strings, stats and
    /// answers while the index removes loaded ids and inserts new strings:
    /// the removal bitset and the owned tail are copied on write, never
    /// shared. Run on a checked `load` and on an unchecked
    /// `from_snapshot_file` open, over an all-long corpus (span walk
    /// deferred to the first mutation) and one holding strings ≤ τ_max
    /// (walked at open).
    #[test]
    fn snapshots_of_loaded_indexes_are_isolated() {
        let all_long: Vec<Vec<u8>> = (0..64)
            .map(|i| format!("loaded entry {:02}-{}", i / 2, ["a", "b"][i % 2]).into_bytes())
            .collect();
        let mut with_short = all_long.clone();
        with_short[3] = b"ab".to_vec();
        with_short[10] = Vec::new();
        let queries: [&[u8]; 6] = [
            b"loaded entry 01-a",
            b"loaded entry 05-b",
            b"new entry 1",
            b"ab",
            b"a",
            b"",
        ];
        let answers = |snap: &Snapshot| -> Vec<Vec<Match>> {
            queries.iter().map(|q| snap.matches(q, 2)).collect()
        };
        let path = std::env::temp_dir().join(format!(
            "passjoin-online-isolation-{}.snap",
            std::process::id()
        ));
        for strings in [all_long, with_short] {
            let n = strings.len();
            OnlineIndex::from_strings(strings.iter(), 2)
                .save(&path)
                .unwrap();
            let file = passjoin_persist::SnapshotFile::open(&path).unwrap();
            let opened = [
                ("load", OnlineIndex::load(&path).unwrap()),
                (
                    "from_snapshot_file",
                    OnlineIndex::from_snapshot_file(&file, None).unwrap(),
                ),
            ];
            for (how, mut index) in opened {
                let first = index.snapshot();
                let first_stats = first.inner.stats(first.epoch);
                let first_answers = answers(&first);
                for id in [0, 3] {
                    assert!(index.remove(id), "{how}");
                }
                let fresh = index.insert(b"new entry 1");
                index.insert(b"a");
                let mid = index.snapshot();
                let mid_stats = mid.inner.stats(mid.epoch);
                let mid_answers = answers(&mid);
                for id in [10, 33, fresh] {
                    assert!(index.remove(id), "{how}");
                }

                // The first snapshot still sees the file as loaded…
                assert_eq!(first.len(), n, "{how}");
                assert_eq!(first.inner.stats(first.epoch), first_stats, "{how}");
                for (id, s) in strings.iter().enumerate() {
                    assert_eq!(first.get(id as StringId), Some(&s[..]), "{how}");
                }
                assert_eq!(first.get(fresh), None, "{how}");
                assert_eq!(answers(&first), first_answers, "{how}");
                // …the middle one sees the first removals and inserts
                // only…
                assert_eq!(mid.len(), n, "{how}: two removed, two inserted");
                assert_eq!(mid.inner.stats(mid.epoch), mid_stats, "{how}");
                assert_eq!(mid.get(0), None, "{how}");
                assert_eq!(mid.get(3), None, "{how}");
                assert_eq!(mid.get(10), Some(&strings[10][..]), "{how}");
                assert_eq!(mid.get(fresh), Some(&b"new entry 1"[..]), "{how}");
                assert_eq!(answers(&mid), mid_answers, "{how}");
                // …and the index sees every mutation.
                assert_eq!(index.len(), n - 3, "{how}");
                assert_eq!(index.get(10), None, "{how}");
                assert_eq!(index.get(fresh), None, "{how}");
                assert_ne!(answers(&index.snapshot()), mid_answers, "{how}");
            }
        }
        let _ = std::fs::remove_file(&path);
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
