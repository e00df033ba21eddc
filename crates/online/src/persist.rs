//! Snapshot persistence: [`Snapshot::save`], [`OnlineIndex::load`] and
//! [`verify_snapshot`].
//!
//! A saved snapshot is one `passjoin-persist` container. Format version 3
//! (what this build writes) carries eight sections:
//!
//! | id | section      | contents |
//! |----|--------------|----------|
//! | 1  | META         | τ_max, epoch, universe, live count, arena length, posting-entry count, key backend |
//! | 2  | SPANS        | per id: `(start: u64, len: u32)` into the arena; `start = u64::MAX` marks a tombstone |
//! | 3  | STRINGS      | the arena: every live string's bytes, concatenated in id order |
//! | 4  | SEGMENTS     | byte-keyed posting stream (`passjoin_persist::segmap::encode`) — written by every save, read only from files without sections 6–9 |
//! | 5  | SEGMENTS_INT | segment dictionary + rank-keyed postings (`segmap::decode_interned`) — read only, from v2 files written by the retired interned backend |
//! | 6  | DIRECT_DIR   | direct-probe length directory (`passjoin_persist::segdirect`) |
//! | 7  | DIRECT_RUNS  | direct-probe run table, 28 B/run, `(l, slot, key)`-sorted |
//! | 8  | DIRECT_KEYS  | direct-probe key blob |
//! | 9  | DIRECT_IDS   | direct-probe id blob, 8-byte-aligned at its file offset |
//!
//! Exactly one of sections 4/5 is present, matching the META backend
//! code (0 = section 4, 1 = section 5; saves always write 0). Sections
//! 6–9 are always present in v3 and encode the *same* postings as sorted
//! arrays that [`passjoin::DirectSegmentIndex`] probes straight out of
//! the file buffer.
//!
//! **The file decides how it opens.** A file with sections 6–9 opens on
//! the direct store: no posting is replayed and no hash map is
//! allocated; the first mutation rebuilds the lane as the owned map. A
//! file without them — **version 1** (6-field META, always section 4)
//! or **version 2** — has its section 4 or 5 decoded into the owned map.
//! Either way, the index reads its loaded strings in place through the
//! file's span table for its whole life: nothing is copied per id. One
//! walk over the span table builds the short lane and the live and byte
//! counts. It runs at open, or, when the posting count proves every live
//! string long (so the short lane is empty), at the first mutation.
//!
//! Saving walks the index in id order, so output is deterministic — and
//! independent of how the index was loaded: a direct-probe store writes
//! the same sections a built one does.
//!
//! **Opening and checking are two steps**, so a caller can choose when
//! the O(file) part runs. [`OnlineIndex::from_snapshot_file`] opens: it
//! checks only what reading needs (META bounds, section geometry, the
//! store's directory, the posting count and partition scheme), and every
//! probe stays bounds-checked. [`verify_snapshot`] is the one validation
//! routine: section CRCs, span bounds and the live count, the store's
//! structural scan, and the cross-checks between postings and strings,
//! so a CRC-valid file written by a buggy producer is rejected rather
//! than trusted. [`OnlineIndex::load`] runs it before it returns, as does
//! `passjoin-store`'s eager open; its instant open runs it on a
//! background thread instead, unless a delta chain is to be replayed
//! onto the file.

use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex};

use passjoin_obs::{Histogram, TraceEvent};
use passjoin_persist::{segdirect, segmap, Cursor, PersistError, SnapshotFile, SnapshotWriter};

use crate::cache::QueryCache;
use crate::index::{Inner, SegmentStore, DEFAULT_CACHE_CAPACITY};
use crate::obs::{trace, EngineObs};
use crate::{OnlineIndex, Snapshot};

/// Section ids of the online-snapshot format.
const SEC_META: u32 = 1;
const SEC_SPANS: u32 = 2;
const SEC_STRINGS: u32 = 3;
const SEC_SEGMENTS: u32 = 4;
const SEC_SEGMENTS_INTERNED: u32 = 5;

/// Every section holding postings: the hash-map layouts and the
/// direct-probe appendix. The `segments` byte counters cover all of them.
const POSTING_SECTIONS: [u32; 6] = [
    SEC_SEGMENTS,
    SEC_SEGMENTS_INTERNED,
    segdirect::SEC_DIRECT_DIR,
    segdirect::SEC_DIRECT_RUNS,
    segdirect::SEC_DIRECT_KEYS,
    segdirect::SEC_DIRECT_IDS,
];

/// META backend codes (v2+; v1 files predate the field and are owned).
/// Code 1 marks a file from the retired interned backend (section 5).
pub(crate) const BACKEND_OWNED: u64 = 0;
pub(crate) const BACKEND_INTERNED: u64 = 1;

/// Sentinel `start` marking a removed id in the SPANS section.
const TOMBSTONE: u64 = u64::MAX;

/// Bytes per SPANS entry (`start: u64` + `len: u32`).
const SPAN_LEN: usize = 12;

/// Largest τ_max a snapshot may declare. Far above any useful threshold
/// (the paper's workloads use τ ≤ 8; index cost grows with τ_max²), and
/// small enough that τ-derived arithmetic on a crafted META section can
/// neither overflow nor justify outsized allocations.
const MAX_TAU_MAX: usize = 4096;

fn corrupt(context: &'static str) -> PersistError {
    PersistError::Corrupt { context }
}

/// Decodes entry `id` of a SPANS payload: `Some((start, len))` for a
/// live string (`start` relative to the arena, unchecked), `None` for a
/// tombstone or an id past the table. `pub(crate)`: a loaded index's
/// string table decodes entries on access.
pub(crate) fn span_entry(spans: &[u8], id: usize) -> Option<(u64, usize)> {
    let entry = spans.get(id.checked_mul(SPAN_LEN)?..)?.get(..SPAN_LEN)?;
    let start = u64::from_le_bytes(entry[..8].try_into().unwrap());
    let len = u32::from_le_bytes(entry[8..].try_into().unwrap()) as usize;
    (start != TOMBSTONE).then_some((start, len))
}

impl Snapshot {
    /// Writes this point-in-time view as a snapshot file at `path`
    /// (truncating any existing file); returns the file's byte length.
    ///
    /// The write is deterministic: saving the same snapshot twice
    /// produces byte-identical files, whichever store the segment lane is
    /// in.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, PersistError> {
        save_inner(&self.inner, self.epoch, path.as_ref(), self.obs.as_deref())
    }
}

/// Laps a pluggable clock across the save/load phases, attributing each
/// stretch to the picked histogram.
struct PhaseTimer<'a> {
    obs: &'a EngineObs,
    last: u64,
}

impl<'a> PhaseTimer<'a> {
    fn new(obs: &'a EngineObs) -> Self {
        let last = obs.clock.now_nanos();
        Self { obs, last }
    }

    fn lap(&mut self, pick: impl FnOnce(&EngineObs) -> &Histogram) {
        let now = self.obs.clock.now_nanos();
        pick(self.obs).observe(now.saturating_sub(self.last));
        self.last = now;
    }
}

impl OnlineIndex {
    /// [`Snapshot::save`] on the index's current state.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, PersistError> {
        self.snapshot().save(path)
    }

    /// Loads a snapshot file into a queryable, fully mutable index.
    ///
    /// The whole file is read into one contiguous buffer and checked by
    /// [`verify_snapshot`] before this returns; then it opens on the
    /// store the file carries (see the module docs): a v3 file's segment
    /// lane probes the file's own sorted runs, a v1/v2 file's postings
    /// are decoded into the owned map. Ids, tombstones, the mutation
    /// epoch, and τ_max all round-trip exactly, so a loaded index answers
    /// every query byte-identically to the index that was saved.
    ///
    /// The index keeps the *entire* file buffer alive for as long as any
    /// loaded string is live. That is a deliberate trade: one
    /// buffer, one ownership story, and the layout the mmap path needs.
    /// Callers that must minimize heap can rebuild from the corpus
    /// instead.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        load_impl(path.as_ref(), None)
    }

    /// [`OnlineIndex::load`] with observability attached for the load
    /// itself *and* the returned index: the load's read/validate/decode
    /// phase timings and section byte counts land in `obs`'s registry,
    /// and the index comes back instrumented (as if
    /// [`OnlineIndexBuilder::observability`](crate::OnlineIndexBuilder::observability)
    /// had been set before building).
    pub fn load_with(path: impl AsRef<Path>, obs: Arc<EngineObs>) -> Result<Self, PersistError> {
        load_impl(path.as_ref(), Some(obs))
    }

    /// Opens an already-parsed container on the store the file carries —
    /// the entry point `passjoin-store` uses to combine its own buffer
    /// strategy (mmap, lazy CRC validation) with the one open path. The
    /// index adopts `file`'s buffer, and comes back instrumented with
    /// `obs` (which also receives the decode timing and section bytes).
    ///
    /// This does **not** run [`verify_snapshot`]: reads stay
    /// bounds-checked, but until the check passes a CRC-consistent lie
    /// can still produce wrong answers. Run it before trusting the index
    /// — up front, as [`OnlineIndex::load`] does, or in the background.
    pub fn from_snapshot_file(
        file: &SnapshotFile,
        obs: Option<Arc<EngineObs>>,
    ) -> Result<Self, PersistError> {
        let mut timer = obs.as_deref().map(PhaseTimer::new);
        let meta = Meta::read(file)?;
        let segments = open_store(file, &meta)?;
        let inner = Inner::open(
            meta.tau_max,
            file.buffer().clone(),
            meta.spans.start,
            meta.strings.clone(),
            meta.universe,
            meta.live,
            segments,
        )
        .map_err(corrupt)?;
        if let Some(t) = timer.as_mut() {
            t.lap(|o| &o.snapshot_load_decode_ns);
        }
        if let Some(o) = obs.as_deref() {
            let bytes = |id| file.section_range(id).map_or(0, |r| r.len() as u64);
            o.section_meta_bytes.inc(bytes(SEC_META));
            o.section_spans_bytes.inc(bytes(SEC_SPANS));
            o.section_strings_bytes.inc(bytes(SEC_STRINGS));
            o.section_segments_bytes
                .inc(POSTING_SECTIONS.iter().map(|&id| bytes(id)).sum());
            let total = file.buffer().len() as u64;
            o.snapshot_load_bytes.inc(total);
            trace(o, TraceEvent::SnapshotLoaded { bytes: total });
        }
        let mut index = OnlineIndex {
            inner: Arc::new(inner),
            epoch: meta.epoch,
            cache: Mutex::new(QueryCache::new(DEFAULT_CACHE_CAPACITY)),
            obs: None,
        };
        index.set_observability(obs);
        Ok(index)
    }
}

/// Runs every check a snapshot must pass before its answers can be
/// trusted — the one validation routine behind every open:
///
/// * every section's CRC;
/// * the span table: each live span inside the arena, and the live
///   count equal to META's;
/// * the store's structural scan:
///   [`DirectSegmentIndex::validate_deep`](passjoin::DirectSegmentIndex::validate_deep)
///   for the direct-probe appendix, the decoder's own checks for section
///   4 or 5;
/// * the postings cover the live strings: every reference points at a
///   live string of the posting's length, and every live long string is
///   referenced exactly τ_max+1 times;
/// * no posting is longer than the longest live string.
///
/// [`OnlineIndex::load`] runs it before returning; `passjoin-store` runs
/// it before an eager open returns, before an instant open replays a
/// delta chain, and otherwise on a background thread after an instant
/// open, for every format version. It streams the span table and
/// allocates one reference count per id. With `obs`, its duration lands
/// in the load's validate phase.
pub fn verify_snapshot(file: &SnapshotFile, obs: Option<&EngineObs>) -> Result<(), PersistError> {
    let mut timer = obs.map(PhaseTimer::new);
    let outcome = check_snapshot(file);
    if let Some(t) = timer.as_mut() {
        t.lap(|o| &o.snapshot_load_validate_ns);
    }
    outcome
}

fn check_snapshot(file: &SnapshotFile) -> Result<(), PersistError> {
    file.verify_all()?;
    let meta = Meta::read(file)?;
    let segments = open_store(file, &meta)?;
    let longest = scan_spans(file, &meta)?;
    if let SegmentStore::Direct(index) = &segments {
        index.validate_deep(meta.universe).map_err(corrupt)?;
    }
    if segments.max_len() > longest {
        return Err(corrupt("postings exceed the longest live string"));
    }
    // Checksums cannot catch a producer that wrote internally
    // inconsistent sections, and the query path trusts these invariants
    // (`expect`s and slices on them).
    let spans = file.section(SEC_SPANS)?;
    let mut references = vec![0u32; meta.universe];
    let mut consistent = true;
    segments.visit_posting_ids(|l, id| match span_entry(spans, id as usize) {
        Some((_, len)) if len == l => references[id as usize] += 1,
        _ => consistent = false,
    });
    let expected = meta.tau_max as u32 + 1;
    consistent &= references
        .iter()
        .enumerate()
        .all(|(id, &refs)| match span_entry(spans, id) {
            Some((_, len)) if len > meta.tau_max => refs == expected,
            _ => refs == 0,
        });
    if !consistent {
        return Err(corrupt("segment postings do not cover the live strings"));
    }
    Ok(())
}

/// META, bounds-checked, with the SPANS and STRINGS byte ranges checked
/// against its counts.
struct Meta {
    tau_max: usize,
    epoch: u64,
    universe: usize,
    live: usize,
    entries: u64,
    backend: u64,
    spans: Range<usize>,
    strings: Range<usize>,
}

impl Meta {
    fn read(file: &SnapshotFile) -> Result<Self, PersistError> {
        let mut meta = Cursor::new(file.section(SEC_META)?, "meta section");
        let tau_max = meta.len64()?;
        let epoch = meta.u64()?;
        let universe = meta.len64()?;
        let live = meta.len64()?;
        let arena_len = meta.len64()?;
        let entries = meta.u64()?;
        // v1 predates the backend field; its snapshots are all owned-key.
        let backend = if file.version() >= 2 {
            meta.u64()?
        } else {
            BACKEND_OWNED
        };
        meta.finish()?;
        if tau_max > MAX_TAU_MAX {
            return Err(corrupt("tau_max exceeds the format maximum"));
        }
        // Ids are u32; a universe beyond that could not have been written
        // by any producer and would truncate ids on reconstruction.
        if universe > u32::MAX as usize {
            return Err(corrupt("universe exceeds the u32 id space"));
        }
        if !matches!(backend, BACKEND_OWNED | BACKEND_INTERNED) {
            return Err(corrupt("unknown key-backend code in the meta section"));
        }
        let strings = file.section_range(SEC_STRINGS)?;
        if strings.len() != arena_len {
            return Err(corrupt("arena length disagrees with the meta section"));
        }
        let spans = file.section_range(SEC_SPANS)?;
        if universe
            .checked_mul(SPAN_LEN)
            .is_none_or(|expected| spans.len() != expected)
        {
            return Err(corrupt("span table length disagrees with the meta section"));
        }
        Ok(Self {
            tau_max,
            epoch,
            universe,
            live,
            entries,
            backend,
            spans,
            strings,
        })
    }
}

/// Walks the span table in id order: every live span must lie inside the
/// arena and the live count must match META. Returns the longest live
/// length.
fn scan_spans(file: &SnapshotFile, meta: &Meta) -> Result<usize, PersistError> {
    let spans = file.section(SEC_SPANS)?;
    let (mut live, mut longest) = (0usize, 0usize);
    for id in 0..meta.universe {
        let Some((start, len)) = span_entry(spans, id) else {
            continue;
        };
        if usize::try_from(start)
            .ok()
            .and_then(|start| start.checked_add(len))
            .is_none_or(|end| end > meta.strings.len())
        {
            return Err(corrupt("string span exceeds the arena"));
        }
        live += 1;
        longest = longest.max(len);
    }
    if live != meta.live {
        return Err(corrupt("live count disagrees with the meta section"));
    }
    Ok(longest)
}

/// The segment store the file carries: the direct-probe appendix when
/// present, probed in place after an O(#lengths) directory check;
/// otherwise section 4 or 5 decoded into the owned map, with the longest
/// live string bounding every legal posting length — and, with it, the
/// allocation a hostile section can force.
fn open_store(file: &SnapshotFile, meta: &Meta) -> Result<SegmentStore, PersistError> {
    let store = if segdirect::has_direct_sections(file) {
        SegmentStore::Direct(segdirect::decode_direct(file, meta.tau_max)?)
    } else {
        let longest = scan_spans(file, meta)?;
        let (tau, universe) = (meta.tau_max, meta.universe);
        SegmentStore::Owned(if meta.backend == BACKEND_OWNED {
            segmap::decode(file.section(SEC_SEGMENTS)?, tau, universe, longest)?
        } else {
            segmap::decode_interned(file.section(SEC_SEGMENTS_INTERNED)?, tau, universe, longest)?
        })
    };
    if store.entries() != meta.entries {
        return Err(corrupt("posting count disagrees with the meta section"));
    }
    // The online query planner derives probe windows from the even
    // partition; a snapshot with any other scheme would load fine and
    // then silently miss every match.
    if store.scheme() != passjoin::PartitionScheme::Even {
        return Err(corrupt(
            "online snapshots require the even partition scheme",
        ));
    }
    Ok(store)
}

fn load_impl(path: &Path, obs: Option<Arc<EngineObs>>) -> Result<OnlineIndex, PersistError> {
    let mut timer = obs.as_deref().map(PhaseTimer::new);
    let file = SnapshotFile::open(path)?;
    if let Some(t) = timer.as_mut() {
        t.lap(|o| &o.snapshot_load_read_ns);
    }
    verify_snapshot(&file, obs.as_deref())?;
    OnlineIndex::from_snapshot_file(&file, obs)
}

fn save_inner(
    inner: &Inner,
    epoch: u64,
    path: &Path,
    obs: Option<&EngineObs>,
) -> Result<u64, PersistError> {
    let mut timer = obs.map(PhaseTimer::new);
    let universe = inner.universe();

    let mut spans = Vec::with_capacity(universe * SPAN_LEN);
    let mut arena = Vec::new();
    let mut live = 0usize;
    for id in 0..universe {
        match inner.get(id as u32) {
            Some(bytes) => {
                spans.extend_from_slice(&(arena.len() as u64).to_le_bytes());
                spans.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                arena.extend_from_slice(bytes);
                live += 1;
            }
            None => {
                spans.extend_from_slice(&TOMBSTONE.to_le_bytes());
                spans.extend_from_slice(&0u32.to_le_bytes());
            }
        }
    }

    let segments = inner.segments();
    let mut meta = Vec::with_capacity(56);
    meta.extend_from_slice(&(inner.tau_max() as u64).to_le_bytes());
    meta.extend_from_slice(&epoch.to_le_bytes());
    meta.extend_from_slice(&(universe as u64).to_le_bytes());
    meta.extend_from_slice(&(live as u64).to_le_bytes());
    meta.extend_from_slice(&(arena.len() as u64).to_le_bytes());
    meta.extend_from_slice(&segments.entries().to_le_bytes());
    meta.extend_from_slice(&BACKEND_OWNED.to_le_bytes());
    if let Some(t) = timer.as_mut() {
        t.lap(|o| &o.snapshot_save_sections_ns);
    }

    // Both stores visit their postings in the same `(l, slot, key)` order,
    // so a direct-loaded index writes exactly the sections a built one
    // does. Section 4 is still written for readers of the v3 layout; the
    // direct-probe appendix (sections 6–9) is what this build opens.
    let mut visited = Ok(());
    let seg_payload = segmap::encode_with(segments.scheme(), segments.tau(), |f| {
        visited = segments.visit_postings(f);
    });
    visited.map_err(corrupt)?;
    let direct = segdirect::encode_direct(segments.scheme(), segments.tau(), |f| {
        visited = segments.visit_postings(f);
    });
    visited.map_err(corrupt)?;
    if let Some(t) = timer.as_mut() {
        t.lap(|o| &o.snapshot_save_encode_ns);
    }

    // The id blob is padded to 8-byte in-file alignment, which requires
    // knowing its absolute payload offset: header + table for all eight
    // sections, then every preceding payload.
    let mut ids_at = passjoin_persist::format::payload_base(8) as u64;
    for len in [
        meta.len(),
        spans.len(),
        arena.len(),
        seg_payload.len(),
        direct.dir.len(),
        direct.runs.len(),
        direct.keys.len(),
    ] {
        ids_at += len as u64;
    }

    if let Some(o) = obs {
        o.section_meta_bytes.inc(meta.len() as u64);
        o.section_spans_bytes.inc(spans.len() as u64);
        o.section_strings_bytes.inc(arena.len() as u64);
    }
    let mut posting_bytes = seg_payload.len() as u64;
    let mut writer = SnapshotWriter::new();
    writer
        .section(SEC_META, meta)
        .section(SEC_SPANS, spans)
        .section(SEC_STRINGS, arena)
        .section(SEC_SEGMENTS, seg_payload);
    for (id, payload) in direct.finish(ids_at) {
        posting_bytes += payload.len() as u64;
        writer.section(id, payload);
    }
    if let Some(o) = obs {
        o.section_segments_bytes.inc(posting_bytes);
    }
    let bytes = writer.save(path)?;
    if let Some(t) = timer.as_mut() {
        t.lap(|o| &o.snapshot_save_write_ns);
    }
    if let Some(o) = obs {
        o.snapshot_save_bytes.inc(bytes);
        trace(o, TraceEvent::SnapshotSaved { bytes });
    }
    Ok(bytes)
}
