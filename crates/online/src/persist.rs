//! Snapshot persistence: [`Snapshot::save`] and [`OnlineIndex::load`].
//!
//! A saved snapshot is one `passjoin-persist` container. Format version 3
//! (what this build writes) carries eight sections:
//!
//! | id | section      | contents |
//! |----|--------------|----------|
//! | 1  | META         | τ_max, epoch, universe, live count, arena length, posting-entry count, key backend |
//! | 2  | SPANS        | per id: `(start: u64, len: u32)` into the arena; `start = u64::MAX` marks a tombstone |
//! | 3  | STRINGS      | the arena: every live string's bytes, concatenated in id order |
//! | 4  | SEGMENTS     | byte-keyed posting stream (`passjoin_persist::segmap::encode`) — what every save writes |
//! | 5  | SEGMENTS_INT | segment dictionary + rank-keyed postings (`segmap::decode_interned`) — read only, from files written by the retired interned backend |
//! | 6  | DIRECT_DIR   | direct-probe length directory (`passjoin_persist::segdirect`) |
//! | 7  | DIRECT_RUNS  | direct-probe run table, 28 B/run, `(l, slot, key)`-sorted |
//! | 8  | DIRECT_KEYS  | direct-probe key blob |
//! | 9  | DIRECT_IDS   | direct-probe id blob, 8-byte-aligned at its file offset |
//!
//! Exactly one of sections 4/5 is present, matching the META backend
//! code (0 = section 4, 1 = section 5; saves always write 0). Section 5 is
//! decoded straight into owned keys, so such a file loads as an owned
//! index and re-saves as one. Sections 6–9 are always present in v3 and
//! encode the *same* postings as sorted arrays that
//! [`passjoin::DirectSegmentIndex`] probes straight out of the loaded
//! buffer: the cost is storing the postings twice, the payoff is
//! [`LoadMode::Direct`] loads that never replay a posting. **Version 1**
//! files (6-field META, always section 4; backend defaults to owned) and
//! **version 2** files (no direct appendix) keep loading; on them
//! [`LoadMode::Direct`] reports the appendix missing rather than silently
//! rebuilding.
//!
//! Saving walks the index in id order, so output is deterministic — and
//! independent of how the index was loaded: a direct-probe store writes
//! the same section 4 a rebuilt one does.
//! Loading reads the file into **one contiguous buffer** and reconstructs
//! the index around it: string entries become zero-copy spans of that
//! buffer (see `Stored::Arena` in the index module), and the segment maps
//! are replayed posting-by-posting — no string is re-partitioned, no
//! corpus byte is copied. Under [`LoadMode::Direct`] even the replay
//! disappears: the segment lane *is* the buffer. The loaded index is
//! fully mutable either way: later inserts own their bytes, removes drop
//! span entries, a direct store's first mutation rebuilds it as the owned
//! map, and the arena handle keeps the buffer alive exactly as long as any
//! snapshot or clone needs it.
//!
//! Load-time validation is layered: the container re-checks magic,
//! version, and per-section CRCs ([`PersistError`] covers each failure
//! mode); span bounds, posting geometry, interner-table shape, id ranges,
//! and the live-count/entry-count cross-checks are re-validated
//! structurally, so even a CRC-valid file written by a buggy producer is
//! rejected rather than trusted. The direct path defaults to the same
//! rigor (`deep_validate: true`); `passjoin-store`'s instant opens defer
//! the deep pass to a background thread and rely on probe-time bounds
//! checks in the meantime.

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

/// META backend codes (v2+; v1 files predate the field and are owned).
/// Code 1 marks a file from the retired interned backend (section 5).
pub(crate) const BACKEND_OWNED: u64 = 0;
pub(crate) const BACKEND_INTERNED: u64 = 1;

/// Sentinel `start` marking a removed id in the SPANS section.
/// `pub(crate)`: the lazy string table decodes span entries on access.
pub(crate) const TOMBSTONE: u64 = u64::MAX;

/// Bytes per SPANS entry (`start: u64` + `len: u32`).
pub(crate) const SPAN_LEN: usize = 12;

/// Largest τ_max a snapshot may declare. Far above any useful threshold
/// (the paper's workloads use τ ≤ 8; index cost grows with τ_max²), and
/// small enough that τ-derived arithmetic on a crafted META section can
/// neither overflow nor justify outsized allocations.
const MAX_TAU_MAX: usize = 4096;

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

/// How a load materializes the segment lane of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Decode the hash-map section (4, or 5 from older files) and replay
    /// every posting into a freshly allocated owned map — the v1/v2 path,
    /// O(postings) work, full structural validation. Works on every
    /// supported format version.
    Rebuild,
    /// Adopt the direct-probe appendix (sections 6–9, v3+) in place: the
    /// loaded index probes sorted runs straight out of the file buffer and
    /// no posting is ever replayed. The first mutation rebuilds the store
    /// as the owned map.
    Direct {
        /// Run the O(postings) deep validation pass
        /// ([`passjoin::DirectSegmentIndex::validate_deep`] plus the
        /// postings-cover-the-live-strings cross-check) before returning.
        /// `true` is the safe default; `passjoin-store`'s instant opens
        /// pass `false` and defer the pass to a background thread, relying
        /// on probe-time bounds checks in the meantime.
        deep_validate: bool,
    },
}

impl OnlineIndex {
    /// [`Snapshot::save`] on the index's current state.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, PersistError> {
        self.snapshot().save(path)
    }

    /// Loads a snapshot file into a queryable, fully mutable index.
    ///
    /// The whole file is read into one contiguous buffer; string entries
    /// are zero-copy views into it, and the segment index is replayed from
    /// the serialized postings — no re-partitioning. Ids, tombstones, the
    /// mutation epoch, and τ_max all round-trip exactly, so a loaded index
    /// answers every query byte-identically to the index that was saved.
    ///
    /// The index keeps the *entire* file buffer alive (not just the
    /// string-arena section) for as long as any arena-backed string is
    /// live. That is a deliberate trade: one buffer, one ownership story,
    /// and the layout the mmap path needs — under `mmap(2)` the consumed
    /// SPANS/SEGMENTS pages are simply evicted by the OS. Callers that
    /// must minimize heap today can rebuild from the corpus instead.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        load_impl(path.as_ref(), LoadMode::Rebuild, None)
    }

    /// [`OnlineIndex::load`] with observability attached for the load
    /// itself *and* the returned index: the load's read/decode/validate
    /// phase timings and section byte counts land in `obs`'s registry,
    /// and the index comes back instrumented (as if
    /// [`OnlineIndexBuilder::observability`](crate::OnlineIndexBuilder::observability)
    /// had been set before building).
    pub fn load_with(path: impl AsRef<Path>, obs: Arc<EngineObs>) -> Result<Self, PersistError> {
        let mut index = load_impl(path.as_ref(), LoadMode::Rebuild, Some(&obs))?;
        index.set_observability(Some(obs));
        Ok(index)
    }

    /// [`OnlineIndex::load`] via [`LoadMode::Direct`] with deep validation:
    /// the segment lane is the file's own sorted-run appendix (v3+), so no
    /// posting is replayed and no hash map is allocated. Queries answer
    /// byte-identically to a [`OnlineIndex::load`] of the same file; the
    /// first mutation transparently rebuilds the owned map.
    pub fn load_direct(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        load_impl(
            path.as_ref(),
            LoadMode::Direct {
                deep_validate: true,
            },
            None,
        )
    }

    /// [`OnlineIndex::load_direct`] with observability attached, exactly
    /// as [`OnlineIndex::load_with`] does for the rebuild path.
    pub fn load_direct_with(
        path: impl AsRef<Path>,
        obs: Arc<EngineObs>,
    ) -> Result<Self, PersistError> {
        let mut index = load_impl(
            path.as_ref(),
            LoadMode::Direct {
                deep_validate: true,
            },
            Some(&obs),
        )?;
        index.set_observability(Some(obs));
        Ok(index)
    }

    /// Reconstructs an index from an already-opened container — the entry
    /// point `passjoin-store` uses to combine its own buffer strategy
    /// (mmap, lazy CRC validation) with either [`LoadMode`]. The index
    /// adopts `file`'s buffer; the caller keeps control of how that buffer
    /// was produced and which payload CRCs were verified up front.
    pub fn from_snapshot_file(file: &SnapshotFile, mode: LoadMode) -> Result<Self, PersistError> {
        load_file_impl(file, mode, None)
    }

    /// [`OnlineIndex::from_snapshot_file`] with observability attached,
    /// exactly as [`OnlineIndex::load_with`] does for the path-based API.
    pub fn from_snapshot_file_with(
        file: &SnapshotFile,
        mode: LoadMode,
        obs: Arc<EngineObs>,
    ) -> Result<Self, PersistError> {
        let mut index = load_file_impl(file, mode, Some(&obs))?;
        index.set_observability(Some(obs));
        Ok(index)
    }
}

fn load_impl(
    path: &Path,
    mode: LoadMode,
    obs: Option<&EngineObs>,
) -> Result<OnlineIndex, PersistError> {
    let mut timer = obs.map(PhaseTimer::new);
    let file = SnapshotFile::open(path)?;
    if let Some(t) = timer.as_mut() {
        t.lap(|o| &o.snapshot_load_read_ns);
    }
    load_file_impl(&file, mode, obs)
}

fn load_file_impl(
    file: &SnapshotFile,
    mode: LoadMode,
    obs: Option<&EngineObs>,
) -> Result<OnlineIndex, PersistError> {
    {
        let mut timer = obs.map(PhaseTimer::new);

        let meta_payload = file.section(SEC_META)?;
        let mut meta = Cursor::new(meta_payload, "meta section");
        let tau_max = meta.len64()?;
        let epoch = meta.u64()?;
        let universe = meta.len64()?;
        let live = meta.len64()?;
        let arena_len = meta.len64()?;
        let segment_entries = meta.u64()?;
        // v1 predates the backend field; its snapshots are all owned-key.
        let backend = if file.version() >= 2 {
            meta.u64()?
        } else {
            BACKEND_OWNED
        };
        meta.finish()?;
        if tau_max > MAX_TAU_MAX {
            return Err(PersistError::Corrupt {
                context: "tau_max exceeds the format maximum",
            });
        }
        // Ids are u32; a universe beyond that could not have been written
        // by any producer and would truncate ids on reconstruction.
        if universe > u32::MAX as usize {
            return Err(PersistError::Corrupt {
                context: "universe exceeds the u32 id space",
            });
        }

        let strings_range = file.section_range(SEC_STRINGS)?;
        if strings_range.len() != arena_len {
            return Err(PersistError::Corrupt {
                context: "arena length disagrees with the meta section",
            });
        }

        let spans_range = file.section_range(SEC_SPANS)?;
        if universe
            .checked_mul(SPAN_LEN)
            .is_none_or(|expected| spans_range.len() != expected)
        {
            return Err(PersistError::Corrupt {
                context: "span table length disagrees with the meta section",
            });
        }
        // The instant-restart fast path: on a shallow direct open whose
        // posting count proves every live string is long (`entries ==
        // live·(τ_max+1)`, so the short lane is provably empty), the span
        // table is served lazily out of the buffer instead of being
        // decoded here — the one O(universe) step this function would
        // otherwise always pay. Per-span validation rides along with the
        // deferred deep checks.
        let lazy_table = matches!(
            mode,
            LoadMode::Direct {
                deep_validate: false
            }
        ) && segment_entries == live as u64 * (tau_max as u64 + 1);
        // Spans are recorded relative to the arena; rebase them onto the
        // whole-file buffer so the index can keep the single `Arc` alive.
        let base = strings_range.start;
        let mut spans = Vec::new();
        let mut max_live_len = 0usize;
        if !lazy_table {
            let spans_payload = file.section(SEC_SPANS)?;
            spans.reserve_exact(universe);
            let mut cursor = Cursor::new(spans_payload, "span table");
            let mut live_seen = 0usize;
            for _ in 0..universe {
                let start = cursor.u64()?;
                let len = cursor.u32()? as usize;
                if start == TOMBSTONE {
                    spans.push(None);
                    continue;
                }
                let start = usize::try_from(start).map_err(|_| PersistError::Corrupt {
                    context: "span offset exceeds the platform",
                })?;
                if start
                    .checked_add(len)
                    .is_none_or(|end| end > strings_range.len())
                {
                    return Err(PersistError::Corrupt {
                        context: "string span exceeds the arena",
                    });
                }
                live_seen += 1;
                max_live_len = max_live_len.max(len);
                spans.push(Some((base + start, len)));
            }
            cursor.finish()?;
            if live_seen != live {
                return Err(PersistError::Corrupt {
                    context: "live count disagrees with the meta section",
                });
            }
        }

        if !matches!(backend, BACKEND_OWNED | BACKEND_INTERNED) {
            return Err(PersistError::Corrupt {
                context: "unknown key-backend code in the meta section",
            });
        }
        let deep_validate = match mode {
            LoadMode::Rebuild => true,
            LoadMode::Direct { deep_validate } => deep_validate,
        };
        let seg_payload_len;
        // The longest live string bounds every legal posting length — and,
        // with it, the allocation any hostile segment section can force.
        let segments = match mode {
            LoadMode::Rebuild if backend == BACKEND_OWNED => {
                let payload = file.section(SEC_SEGMENTS)?;
                seg_payload_len = payload.len();
                SegmentStore::Owned(segmap::decode(payload, tau_max, universe, max_live_len)?)
            }
            LoadMode::Rebuild => {
                let payload = file.section(SEC_SEGMENTS_INTERNED)?;
                seg_payload_len = payload.len();
                let map = segmap::decode_interned(payload, tau_max, universe, max_live_len)?;
                SegmentStore::Owned(map)
            }
            LoadMode::Direct { .. } => {
                let index =
                    segdirect::decode_direct(file, tau_max, deep_validate.then_some(universe))?;
                // With a lazy table no span was decoded, so the longest
                // live length is unknown; the bound is deferred with the
                // rest of the deep validation.
                if !lazy_table && index.max_len() > max_live_len {
                    return Err(PersistError::Corrupt {
                        context: "direct postings exceed the longest live string",
                    });
                }
                seg_payload_len = [
                    segdirect::SEC_DIRECT_DIR,
                    segdirect::SEC_DIRECT_RUNS,
                    segdirect::SEC_DIRECT_KEYS,
                    segdirect::SEC_DIRECT_IDS,
                ]
                .iter()
                .map(|&id| file.section_range(id).map(|r| r.len()))
                .sum::<Result<usize, _>>()?;
                SegmentStore::Direct(index)
            }
        };
        if segments.entries() != segment_entries {
            return Err(PersistError::Corrupt {
                context: "posting count disagrees with the meta section",
            });
        }
        if let Some(o) = obs {
            o.section_meta_bytes.inc(meta_payload.len() as u64);
            o.section_spans_bytes.inc(spans_range.len() as u64);
            o.section_strings_bytes.inc(strings_range.len() as u64);
            o.section_segments_bytes.inc(seg_payload_len as u64);
        }
        if let Some(t) = timer.as_mut() {
            t.lap(|o| &o.snapshot_load_decode_ns);
        }
        // The online query planner derives probe windows from the even
        // partition; a snapshot with any other scheme would load fine and
        // then silently miss every match.
        if segments.scheme() != passjoin::PartitionScheme::Even {
            return Err(PersistError::Corrupt {
                context: "online snapshots require the even partition scheme",
            });
        }
        // Cross-validate postings against the string table: every
        // reference must point at a live string of the posting's length,
        // and every live long string must be referenced exactly τ_max+1
        // times. Checksums cannot catch a producer that wrote internally
        // inconsistent sections, and the query path trusts these
        // invariants (`expect`s and slices on them). Skipped only when an
        // instant open explicitly deferred deep validation.
        if deep_validate {
            let mut references = vec![0u32; universe];
            let mut consistent = true;
            segments.visit_posting_ids(|l, id| match spans.get(id as usize) {
                Some(Some((_, len))) if *len == l => references[id as usize] += 1,
                _ => consistent = false,
            });
            let expected = tau_max as u32 + 1;
            consistent &= spans
                .iter()
                .zip(&references)
                .all(|(span, &refs)| match span {
                    Some((_, len)) if *len > tau_max => refs == expected,
                    _ => refs == 0,
                });
            if !consistent {
                return Err(PersistError::Corrupt {
                    context: "segment postings do not cover the live strings",
                });
            }
        }

        let total_bytes = file.buffer().len() as u64;
        let arena = file.buffer().clone();
        let inner = if lazy_table {
            Inner::from_mapped_parts(
                tau_max,
                arena,
                spans_range,
                strings_range,
                universe,
                live,
                segments,
            )
        } else {
            Inner::from_loaded_parts(tau_max, arena, spans, segments)
        }
        .map_err(|_| PersistError::Corrupt {
            context: "snapshot sections are mutually inconsistent",
        })?;
        if let Some(t) = timer.as_mut() {
            t.lap(|o| &o.snapshot_load_validate_ns);
        }
        if let Some(o) = obs {
            o.snapshot_load_bytes.inc(total_bytes);
            trace(o, TraceEvent::SnapshotLoaded { bytes: total_bytes });
        }
        Ok(OnlineIndex {
            inner: Arc::new(inner),
            epoch,
            cache: Mutex::new(QueryCache::new(DEFAULT_CACHE_CAPACITY)),
            obs: None,
        })
    }
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
    // so a direct-loaded index writes exactly the section 4 a rebuilt one
    // does. The direct-probe appendix (sections 6–9) is written on every
    // save — it is what makes the file loadable without replaying a
    // single posting.
    let seg_payload = segmap::encode_with(segments.scheme(), segments.tau(), |f| {
        segments.visit_postings(f)
    });
    let direct = segdirect::encode_direct(segments.scheme(), segments.tau(), |f| {
        segments.visit_postings(f)
    });
    if let Some(t) = timer.as_mut() {
        t.lap(|o| &o.snapshot_save_encode_ns);
    }
    if let Some(o) = obs {
        o.section_meta_bytes.inc(meta.len() as u64);
        o.section_spans_bytes.inc(spans.len() as u64);
        o.section_strings_bytes.inc(arena.len() as u64);
        o.section_segments_bytes.inc(seg_payload.len() as u64);
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

    let mut writer = SnapshotWriter::new();
    writer
        .section(SEC_META, meta)
        .section(SEC_SPANS, spans)
        .section(SEC_STRINGS, arena)
        .section(SEC_SEGMENTS, seg_payload);
    for (id, payload) in direct.finish(ids_at) {
        writer.section(id, payload);
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
