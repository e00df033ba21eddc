//! Direct-probe segment postings: binary search straight over a loaded
//! snapshot buffer, no hash-map rebuild.
//!
//! The hash-map backend ([`SegmentMap`](crate::SegmentMap)) answers
//! `L_l^slot(seg)` in O(1) but must be *built* — every posting replayed
//! into a map — so loading a snapshot costs time proportional to the
//! index. [`DirectSegmentIndex`] is the other backend behind
//! [`SegmentProbe`](crate::SegmentProbe): the snapshot carries the
//! postings as sorted arrays (a per-length run directory, a fixed-width
//! run table ordered by `(l, slot, key)`, a key-bytes blob, and an id
//! blob), and a probe binary-searches those arrays in place. Constructing
//! one is O(#lengths): the buffer *is* the index.
//!
//! Safety model: the byte-level parsing happens upstream (in
//! `passjoin-persist`); this type receives pre-split ranges plus the
//! parsed length directory and re-checks every offset at probe time, so
//! a corrupt or hostile file can make probes return `None` (and the deep
//! validator reject it) but can never cause a panic or out-of-bounds
//! read. The id blob is viewed as `&[StringId]` only when the platform
//! is little-endian and the range is 4-byte aligned; otherwise the ids
//! are copied out once at construction.

use std::ops::Range;

use sj_common::{SharedBytes, StringId};

use crate::partition::PartitionScheme;

/// Bytes per run-table entry: slot u32 | key_len u32 | key_off u64 |
/// ids_off u64 | n_ids u32 (little-endian, byte-packed).
pub const RUN_ENTRY_LEN: usize = 28;

/// One length's contiguous span of run-table entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthRuns {
    /// The string length `l` this row serves.
    pub l: u32,
    /// First run-table index of the span.
    pub run_start: u64,
    /// Number of runs in the span.
    pub run_count: u64,
}

/// One decoded run-table entry.
#[derive(Debug, Clone, Copy)]
struct Run {
    slot: u32,
    key_len: u32,
    key_off: u64,
    ids_off: u64,
    n_ids: u32,
}

/// The id blob: a zero-copy aligned view when the platform allows it,
/// an owned copy otherwise.
#[derive(Debug, Clone)]
enum IdsView {
    /// 4-byte-aligned little-endian view into the shared buffer.
    Borrowed(Range<usize>),
    /// Ids copied out at construction (misaligned base or big-endian).
    Owned(Box<[StringId]>),
}

/// Sorted-array segment postings probed directly from a snapshot buffer.
///
/// Implements [`SegmentProbe`](crate::SegmentProbe) next to the hash-map
/// backend; the query drivers cannot tell them apart (and the
/// differential suites pin that their answers are byte-identical).
#[derive(Debug, Clone)]
pub struct DirectSegmentIndex {
    buf: SharedBytes,
    scheme: PartitionScheme,
    tau: usize,
    max_len: usize,
    entries: u64,
    /// Per-length run spans, `l` strictly ascending (binary-searched).
    lengths: Vec<LengthRuns>,
    /// Byte range of the run table within `buf`.
    runs: Range<usize>,
    /// Byte range of the key blob within `buf`.
    keys: Range<usize>,
    ids: IdsView,
    /// Number of ids in the id blob (elements, not bytes).
    n_ids_total: usize,
}

impl DirectSegmentIndex {
    /// Assembles a direct index from pre-parsed snapshot ranges.
    ///
    /// Cheap (O(#lengths)) structural checks only — run spans must tile
    /// `[0, n_runs)` with `l` strictly ascending and partitionable under
    /// `tau`. Everything deeper (run ordering, key tiling, id bounds) is
    /// bounds-checked per probe and fully checked by
    /// [`DirectSegmentIndex::validate_deep`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        buf: SharedBytes,
        scheme: PartitionScheme,
        tau: usize,
        max_len: usize,
        entries: u64,
        lengths: Vec<LengthRuns>,
        runs: Range<usize>,
        keys: Range<usize>,
        ids: Range<usize>,
    ) -> Result<Self, &'static str> {
        if runs.start > runs.end
            || runs.end > buf.len()
            || !runs.len().is_multiple_of(RUN_ENTRY_LEN)
        {
            return Err("direct run table range is malformed");
        }
        if keys.start > keys.end || keys.end > buf.len() {
            return Err("direct key blob range is malformed");
        }
        if ids.start > ids.end || ids.end > buf.len() || !ids.len().is_multiple_of(4) {
            return Err("direct id blob range is malformed");
        }
        let n_runs = (runs.len() / RUN_ENTRY_LEN) as u64;
        let mut expected_start = 0u64;
        let mut prev_l: Option<u32> = None;
        for entry in &lengths {
            if prev_l.is_some_and(|p| entry.l <= p) {
                return Err("direct length directory is not strictly ascending");
            }
            prev_l = Some(entry.l);
            if (entry.l as usize) < tau + 1 || entry.l as usize > max_len {
                return Err("direct length directory entry is out of range");
            }
            if entry.run_start != expected_start || entry.run_count == 0 {
                return Err("direct run spans do not tile the run table");
            }
            expected_start = expected_start
                .checked_add(entry.run_count)
                .ok_or("direct run span overflows")?;
        }
        if expected_start != n_runs {
            return Err("direct run spans do not cover the run table");
        }
        let n_ids_total = ids.len() / 4;
        let ids = Self::ids_view(&buf, ids);
        Ok(Self {
            buf,
            scheme,
            tau,
            max_len,
            entries,
            lengths,
            runs,
            keys,
            ids,
            n_ids_total,
        })
    }

    /// Borrow the blob zero-copy when a `&[u8]` can be reinterpreted as
    /// `&[StringId]` in place; copy once otherwise.
    fn ids_view(buf: &SharedBytes, range: Range<usize>) -> IdsView {
        let bytes = &buf[range.clone()];
        if cfg!(target_endian = "little") && bytes.as_ptr().align_offset(4) == 0 {
            IdsView::Borrowed(range)
        } else {
            IdsView::Owned(
                bytes
                    .chunks_exact(4)
                    .map(|c| StringId::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            )
        }
    }

    /// The τ this index partitions for.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// The partition scheme used by every indexed string.
    pub fn scheme(&self) -> PartitionScheme {
        self.scheme
    }

    /// Live inverted-list entries (Σ list lengths), as recorded by the
    /// snapshot ([`DirectSegmentIndex::validate_deep`] cross-checks it
    /// against the actual lists).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Number of distinct `(l, slot, key)` runs.
    pub fn distinct_keys(&self) -> u64 {
        (self.runs.len() / RUN_ENTRY_LEN) as u64
    }

    /// Total key bytes in the key blob.
    pub fn key_bytes(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Estimated resident bytes, using the same estimator as
    /// [`SegmentMap::live_bytes`](crate::SegmentMap::live_bytes) so the
    /// backends report comparable sizes (the direct store's bytes live in
    /// the snapshot buffer rather than the heap, but they are resident
    /// all the same).
    pub fn live_bytes(&self) -> u64 {
        const LIST_HEADER: u64 = 12;
        self.entries * 4 + self.distinct_keys() * LIST_HEADER + self.key_bytes()
    }

    /// True if the id blob is served zero-copy out of the snapshot buffer
    /// (little-endian platform, 4-byte-aligned section) rather than from
    /// a construction-time copy.
    pub fn ids_are_zero_copy(&self) -> bool {
        matches!(self.ids, IdsView::Borrowed(_))
    }

    /// True if any string of length `l` is indexed.
    pub fn has_length(&self, l: usize) -> bool {
        u32::try_from(l).is_ok_and(|l| self.lengths.binary_search_by_key(&l, |e| e.l).is_ok())
    }

    /// Largest string length with an indexed run.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    fn run_at(&self, index: u64) -> Option<Run> {
        let at = self.runs.start + usize::try_from(index).ok()?.checked_mul(RUN_ENTRY_LEN)?;
        let entry = self.buf.get(at..at + RUN_ENTRY_LEN)?;
        Some(Run {
            slot: u32::from_le_bytes(entry[0..4].try_into().unwrap()),
            key_len: u32::from_le_bytes(entry[4..8].try_into().unwrap()),
            key_off: u64::from_le_bytes(entry[8..16].try_into().unwrap()),
            ids_off: u64::from_le_bytes(entry[16..24].try_into().unwrap()),
            n_ids: u32::from_le_bytes(entry[24..28].try_into().unwrap()),
        })
    }

    fn key_of(&self, run: &Run) -> Option<&[u8]> {
        let start = self
            .keys
            .start
            .checked_add(usize::try_from(run.key_off).ok()?)?;
        let end = start.checked_add(run.key_len as usize)?;
        if end > self.keys.end {
            return None;
        }
        self.buf.get(start..end)
    }

    fn ids_of(&self, run: &Run) -> Option<&[StringId]> {
        let off = usize::try_from(run.ids_off).ok()?;
        let end = off.checked_add(run.n_ids as usize)?;
        if end > self.n_ids_total {
            return None;
        }
        match &self.ids {
            IdsView::Borrowed(range) => {
                let bytes = &self.buf[range.start + off * 4..range.start + end * 4];
                // Alignment was checked at construction and offsets are
                // element-scaled, so the prefix/suffix are always empty.
                let (head, ids, tail) = unsafe { bytes.align_to::<StringId>() };
                debug_assert!(head.is_empty() && tail.is_empty());
                (head.is_empty() && tail.is_empty()).then_some(ids)
            }
            IdsView::Owned(ids) => ids.get(off..end),
        }
    }

    /// The inverted list `L_l^slot(seg)`, if present: two binary searches
    /// (length directory, then `(slot, key)` over that length's runs)
    /// straight over the snapshot buffer.
    pub fn probe(&self, l: usize, slot: usize, seg: &[u8]) -> Option<&[StringId]> {
        let l32 = u32::try_from(l).ok()?;
        let slot32 = u32::try_from(slot).ok()?;
        let at = self.lengths.binary_search_by_key(&l32, |e| e.l).ok()?;
        let span = self.lengths[at];
        let (mut lo, mut hi) = (0u64, span.run_count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let run = self.run_at(span.run_start + mid)?;
            let key = self.key_of(&run)?;
            match (run.slot, key).cmp(&(slot32, seg)) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return self.ids_of(&run),
            }
        }
        None
    }

    /// Visits every run as `(length, slot, key bytes, ids)` in stored
    /// order — `(l, slot, key)` ascending, which is exactly the
    /// deterministic order [`SegmentMap::visit_postings`] produces — or
    /// reports the first structural violation. The serialization visitor:
    /// re-saving a direct-loaded index re-encodes the hash-map section
    /// byte-identically through this.
    ///
    /// [`SegmentMap::visit_postings`]: crate::SegmentMap::visit_postings
    pub fn try_visit_postings(
        &self,
        mut f: impl FnMut(usize, usize, &[u8], &[StringId]),
    ) -> Result<(), &'static str> {
        for span in &self.lengths {
            for i in 0..span.run_count {
                let run = self
                    .run_at(span.run_start + i)
                    .ok_or("direct run table entry is out of bounds")?;
                let key = self.key_of(&run).ok_or("direct run key is out of bounds")?;
                let ids = self
                    .ids_of(&run)
                    .ok_or("direct run ids are out of bounds")?;
                f(span.l as usize, run.slot as usize, key, ids);
            }
        }
        Ok(())
    }

    /// Visits every `(length, id)` posting reference (the loader's
    /// coverage check); structural violations surface as `Err`, matching
    /// [`DirectSegmentIndex::try_visit_postings`].
    pub fn try_visit_posting_ids(
        &self,
        mut f: impl FnMut(usize, StringId),
    ) -> Result<(), &'static str> {
        self.try_visit_postings(|l, _, _, ids| {
            for &id in ids {
                f(l, id);
            }
        })
    }

    /// Full O(index) structural validation — everything the per-probe
    /// bounds checks tolerate lazily is rejected here: run `(slot, key)`
    /// order strictly ascending per length, slots in `1..=τ+1`, key
    /// lengths matching the partition geometry, the key blob tiled
    /// exactly, ids strictly ascending per run and below `universe`, and
    /// the recorded entry count equal to the actual total.
    ///
    /// A snapshot without the appendix never needs this — its postings
    /// decode through the validating `restore_posting` API instead. The
    /// online snapshot check runs it before an eager open returns, and on
    /// a background thread after an instant one.
    pub fn validate_deep(&self, universe: usize) -> Result<(), &'static str> {
        let mut total = 0u64;
        let mut key_end = 0u64;
        let mut ids_end = 0u64;
        for span in &self.lengths {
            let l = span.l as usize;
            let mut prev: Option<(u32, u64, u32)> = None; // (slot, key_off, key_len)
            for i in 0..span.run_count {
                let run = self
                    .run_at(span.run_start + i)
                    .ok_or("direct run table entry is out of bounds")?;
                if !(1..=self.tau as u32 + 1).contains(&run.slot) {
                    return Err("direct run slot out of range for tau");
                }
                let key = self.key_of(&run).ok_or("direct run key is out of bounds")?;
                let seg = self.scheme.segment(l, self.tau, run.slot as usize);
                if key.len() != seg.len {
                    return Err("direct run key does not match the partition geometry");
                }
                if let Some((pslot, pkey_off, pkey_len)) = prev {
                    let pkey =
                        &self.buf[self.keys.start + pkey_off as usize..][..pkey_len as usize];
                    if (pslot, pkey) >= (run.slot, key) {
                        return Err("direct runs are not sorted by (slot, key)");
                    }
                }
                prev = Some((run.slot, run.key_off, run.key_len));
                // Keys must tile the blob in run order: offsets strictly
                // sequential so no byte of the blob is unreferenced (every
                // byte of the file stays semantically covered).
                if run.key_off != key_end {
                    return Err("direct key blob is not tiled by the runs");
                }
                key_end += run.key_len as u64;
                if run.ids_off != ids_end {
                    return Err("direct id blob is not tiled by the runs");
                }
                ids_end += run.n_ids as u64;
                let ids = self
                    .ids_of(&run)
                    .ok_or("direct run ids are out of bounds")?;
                if ids.is_empty() {
                    return Err("direct run has an empty posting list");
                }
                let mut prev_id = None;
                for &id in ids {
                    if (id as usize) >= universe {
                        return Err("direct posting id exceeds the string table");
                    }
                    if prev_id.is_some_and(|p| id <= p) {
                        return Err("direct posting ids are not strictly ascending");
                    }
                    prev_id = Some(id);
                }
                total += ids.len() as u64;
            }
        }
        if key_end != self.keys.len() as u64 {
            return Err("direct key blob has unreferenced bytes");
        }
        if ids_end != self.n_ids_total as u64 {
            return Err("direct id blob has unreferenced entries");
        }
        if total != self.entries {
            return Err("direct entry count disagrees with the run table");
        }
        Ok(())
    }
}

impl crate::SegmentProbe for DirectSegmentIndex {
    #[inline]
    fn has_length(&self, l: usize) -> bool {
        DirectSegmentIndex::has_length(self, l)
    }

    #[inline]
    fn max_len(&self) -> usize {
        DirectSegmentIndex::max_len(self)
    }

    #[inline]
    fn probe_bytes(&self, l: usize, slot: usize, seg: &[u8]) -> Option<&[StringId]> {
        self.probe(l, slot, seg)
    }
}
