//! Inverted segment indices `L_l^i` (§3.2), generic over key storage.
//!
//! For every string length `l` and slot `i ∈ 1..=τ+1`, `L_l^i` maps an
//! i-th-segment key to the ids of the indexed strings whose i-th segment
//! equals it. The map structure is [`SegmentMap<K>`], generic over how
//! segment keys are stored:
//!
//! * [`SegmentIndex`] (`K = &[u8]`) — the paper's scan index. Keys borrow
//!   directly from the collection arena: segments are never copied. Ids are
//!   appended in ascending order, and indices for lengths the length-ordered
//!   scan has passed are dropped with [`SegmentMap::evict_below`] — at most
//!   `(τ+1)²` maps are live at any moment.
//! * [`OwnedSegmentIndex`] (`K = Box<[u8]>`) — the online index. Keys own
//!   copies of the segment bytes, so the index is self-contained, covers
//!   every length at once, and supports out-of-order
//!   [`SegmentMap::insert_owned`] and [`SegmentMap::remove_owned`] — the
//!   substrate of the `passjoin-online` crate's dynamic collections.
//!
//! Both variants share probing, accounting, and eviction code; they differ
//! only in how a segment key is materialized at insertion time. Probing
//! code that only needs byte-string lookups is generic over
//! [`SegmentProbe`], which every variant implements.

use std::borrow::Borrow;
use std::hash::Hash;

use sj_common::hash::FxHashMap;
use sj_common::StringId;

use crate::partition::PartitionScheme;

/// A segment key: hashable, comparable, and accountable.
///
/// Implemented by `&[u8]` (borrowed from an arena) and `Box<[u8]>`
/// (owned). The two hooks let the shared [`SegmentMap`] machinery stay
/// agnostic of how a key holds its bytes:
///
/// * [`SegmentKey::stored_bytes`] — what one distinct key of a
///   `seg_len`-byte segment costs in the [`SegmentMap::live_bytes`]
///   estimator;
/// * [`SegmentKey::matches_seg_len`] — the restore-path validation hook:
///   a key must be exactly as long as the partition geometry says.
pub trait SegmentKey: Hash + Eq {
    /// Estimator bytes charged per distinct key of a `seg_len`-byte segment.
    fn stored_bytes(seg_len: usize) -> u64;

    /// Whether this key is structurally consistent with a segment of
    /// `seg_len` bytes ([`SegmentMap::restore_posting`] validation).
    fn matches_seg_len(&self, seg_len: usize) -> bool;
}

impl SegmentKey for &[u8] {
    fn stored_bytes(seg_len: usize) -> u64 {
        // Borrowed keys don't own their bytes, but the paper's Table 3
        // accounting materializes them; counted so the scan and owned
        // indices report comparable sizes.
        seg_len as u64
    }

    fn matches_seg_len(&self, seg_len: usize) -> bool {
        self.len() == seg_len
    }
}

impl SegmentKey for Box<[u8]> {
    fn stored_bytes(seg_len: usize) -> u64 {
        // An owned key really stores a fat pointer in the map entry plus
        // its own heap bytes; the estimator counts both.
        16 + seg_len as u64
    }

    fn matches_seg_len(&self, seg_len: usize) -> bool {
        self.len() == seg_len
    }
}

/// Byte-string probing over any segment index backend.
///
/// The join/query drivers probe with a substring of the query and neither
/// know nor care how the index stores its keys: byte-keyed maps hash the
/// substring, while [`crate::DirectSegmentIndex`] binary-searches sorted
/// runs of a loaded snapshot. `probe.rs` is generic over this trait.
pub trait SegmentProbe {
    /// True if any string of length `l` is indexed.
    fn has_length(&self, l: usize) -> bool;

    /// Largest string length the index currently has a table row for.
    fn max_len(&self) -> usize;

    /// The inverted list `L_l^slot(seg)`, if any string is indexed under
    /// the segment bytes `seg`.
    fn probe_bytes(&self, l: usize, slot: usize, seg: &[u8]) -> Option<&[StringId]>;
}

impl<K: SegmentKey + Borrow<[u8]>> SegmentProbe for SegmentMap<K> {
    #[inline]
    fn has_length(&self, l: usize) -> bool {
        SegmentMap::has_length(self, l)
    }

    #[inline]
    fn max_len(&self) -> usize {
        SegmentMap::max_len(self)
    }

    #[inline]
    fn probe_bytes(&self, l: usize, slot: usize, seg: &[u8]) -> Option<&[StringId]> {
        self.probe(l, slot, seg)
    }
}

/// One inverted list family `L_l^*`, all τ+1 slots for one string length.
type PerLength<K> = Vec<FxHashMap<K, Vec<StringId>>>;

/// The paper's scan index: keys borrow from the collection arena.
pub type SegmentIndex<'a> = SegmentMap<&'a [u8]>;

/// The online index substrate: keys own their segment bytes.
pub type OwnedSegmentIndex = SegmentMap<Box<[u8]>>;

/// The inverted segment indices of a Pass-Join scan or online collection,
/// generic over key storage (see the module docs).
#[derive(Debug, Clone)]
pub struct SegmentMap<K: SegmentKey> {
    tau: usize,
    scheme: PartitionScheme,
    /// Indexed by string length `l`; `None` when empty or evicted.
    per_len: Vec<Option<PerLength<K>>>,
    /// Inverted-list entries currently live (Σ list lengths).
    entries: u64,
    /// Distinct (l, i, segment) keys currently live.
    distinct_keys: u64,
    /// Live key storage (Σ [`SegmentKey::stored_bytes`] over distinct keys).
    key_bytes: u64,
    /// Peak of the estimated index size over the scan (Table 3 reports the
    /// maximum resident index, matching the paper's max-over-j complexity).
    peak_bytes: u64,
}

impl<K: SegmentKey> SegmentMap<K> {
    /// Creates an empty index for strings of length up to `max_len`, using
    /// the paper's even partition. Inserting longer strings grows the
    /// length table on demand, so `max_len` is a pre-sizing hint.
    pub fn new(max_len: usize, tau: usize) -> Self {
        Self::with_scheme(max_len, tau, PartitionScheme::Even)
    }

    /// Creates an empty index with an explicit partition scheme (used by
    /// the partition ablation).
    pub fn with_scheme(max_len: usize, tau: usize, scheme: PartitionScheme) -> Self {
        let mut per_len = Vec::new();
        per_len.resize_with(max_len + 1, || None);
        Self {
            tau,
            scheme,
            per_len,
            entries: 0,
            distinct_keys: 0,
            key_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// The threshold the index partitions for (strings split into
    /// `tau() + 1` segments).
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// The partition scheme in use.
    pub fn scheme(&self) -> PartitionScheme {
        self.scheme
    }

    /// Largest string length the index currently has a (possibly empty)
    /// table row for.
    pub fn max_len(&self) -> usize {
        self.per_len.len().saturating_sub(1)
    }

    /// Appends `id` to the inverted list under `key` at `(len, slot)`,
    /// creating the list if the key is new. `sorted` places the id by binary search instead
    /// of pushing; plain pushes keep the scan's ascending-id invariant
    /// assertion. `seg_len` is the segment's byte length (accounting).
    pub(crate) fn insert_posting(
        &mut self,
        len: usize,
        slot: usize,
        seg_len: usize,
        key: K,
        id: StringId,
        sorted: bool,
    ) {
        debug_assert!(len > self.tau, "short strings use the fallback path");
        debug_assert!((1..=self.tau + 1).contains(&slot));
        if len >= self.per_len.len() {
            self.per_len.resize_with(len + 1, || None);
        }
        let tau = self.tau;
        let slot_maps = self.per_len[len]
            .get_or_insert_with(|| (0..=tau).map(|_| FxHashMap::default()).collect());
        let mut new_key = false;
        let list = slot_maps[slot - 1].entry(key).or_insert_with(|| {
            new_key = true;
            Vec::new()
        });
        if sorted {
            match list.binary_search(&id) {
                Ok(_) => {
                    debug_assert!(false, "id {id} already indexed at length {len}");
                    return;
                }
                Err(pos) => list.insert(pos, id),
            }
        } else {
            debug_assert!(list.last().is_none_or(|&last| last < id));
            list.push(id);
        }
        self.entries += 1;
        if new_key {
            self.distinct_keys += 1;
            self.key_bytes += K::stored_bytes(seg_len);
        }
        self.peak_bytes = self.peak_bytes.max(self.live_bytes());
    }

    /// Removes `id` from the inverted list under `key` at `(l, slot)`,
    /// dropping the key when its list empties; returns whether the id was
    /// there. `seg_len` is the segment's byte length (accounting). Callers
    /// that may empty a whole length row should follow up with
    /// [`SegmentMap::prune_length_row`].
    pub(crate) fn remove_posting<Q>(
        &mut self,
        l: usize,
        slot: usize,
        seg_len: usize,
        key: &Q,
        id: StringId,
    ) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some(Some(slot_maps)) = self.per_len.get_mut(l) else {
            return false;
        };
        let map = &mut slot_maps[slot - 1];
        let Some(list) = map.get_mut(key) else {
            return false;
        };
        let Ok(pos) = list.binary_search(&id) else {
            return false;
        };
        list.remove(pos);
        self.entries -= 1;
        if list.is_empty() {
            map.remove(key);
            self.distinct_keys -= 1;
            self.key_bytes -= K::stored_bytes(seg_len);
        }
        true
    }

    /// Reclaims length row `l` if every slot map is empty (so `has_length`
    /// and the per-length scan skip it).
    pub(crate) fn prune_length_row(&mut self, l: usize) {
        if let Some(Some(slot_maps)) = self.per_len.get(l) {
            if slot_maps.iter().all(|map| map.is_empty()) {
                self.per_len[l] = None;
            }
        }
    }

    /// The inverted list under `key` at `(l, slot)`, for any borrowable
    /// view `Q` of the key type.
    #[inline]
    pub fn probe_key<Q>(&self, l: usize, slot: usize, key: &Q) -> Option<&[StringId]>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot_maps = self.per_len.get(l)?.as_ref()?;
        slot_maps[slot - 1].get(key).map(Vec::as_slice)
    }

    /// True if any string of length `l` is indexed.
    #[inline]
    pub fn has_length(&self, l: usize) -> bool {
        self.per_len.get(l).is_some_and(Option::is_some)
    }

    /// Drops all indices for lengths `< min_len` (the scan has advanced past
    /// the point where they can produce candidates).
    pub fn evict_below(&mut self, min_len: usize) {
        for l in 0..min_len.min(self.per_len.len()) {
            if let Some(slot_maps) = self.per_len[l].take() {
                for (slot0, map) in slot_maps.iter().enumerate() {
                    // Every key in the (l, slot) map belongs to the same
                    // partition geometry, so its stored bytes are derived
                    // from the slot's segment spec rather than the key.
                    let seg = self.scheme.segment(l, self.tau, slot0 + 1);
                    for list in map.values() {
                        self.entries -= list.len() as u64;
                    }
                    self.distinct_keys -= map.len() as u64;
                    self.key_bytes -= K::stored_bytes(seg.len) * map.len() as u64;
                }
            }
        }
    }

    /// Estimated resident bytes of the live index: 4 bytes per inverted-list
    /// entry (a `StringId`) plus, per distinct segment, its stored key bytes
    /// and one list header. This mirrors the paper's accounting (segments
    /// encoded as integers plus inverted lists) rather than allocator-level
    /// truth; the same estimator is applied to all algorithms in Table 3.
    pub fn live_bytes(&self) -> u64 {
        const LIST_HEADER: u64 = 12; // key slot + length in a compact layout
        self.entries * 4 + self.distinct_keys * LIST_HEADER + self.key_bytes
    }

    /// Largest estimated resident size observed since construction.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Live inverted-list entries (Σ list lengths).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Visits every live inverted list as `(length, slot, key, ids)` in a
    /// **deterministic** order — lengths ascending, slots ascending, keys
    /// in `K`'s order — regardless of hash-map iteration order. The order
    /// guarantee is what makes saved snapshots byte-identical across runs.
    pub fn visit_postings_keys(&self, mut f: impl FnMut(usize, usize, &K, &[StringId]))
    where
        K: Ord,
    {
        for (l, row) in self.per_len.iter().enumerate() {
            let Some(slot_maps) = row else { continue };
            for (slot0, map) in slot_maps.iter().enumerate() {
                let mut lists: Vec<(&K, &Vec<StringId>)> = map.iter().collect();
                lists.sort_unstable_by(|a, b| a.0.cmp(b.0));
                for (key, ids) in lists {
                    f(l, slot0 + 1, key, ids);
                }
            }
        }
    }

    /// Visits every `(length, id)` posting reference in unspecified order
    /// — the fast sibling of [`SegmentMap::visit_postings`] for callers
    /// that only cross-validate ids (the snapshot loader checks each
    /// reference against its string table), skipping the deterministic
    /// sort the full visitor pays for.
    pub fn visit_posting_ids(&self, mut f: impl FnMut(usize, StringId)) {
        for (l, row) in self.per_len.iter().enumerate() {
            let Some(slot_maps) = row else { continue };
            for map in slot_maps {
                for ids in map.values() {
                    for &id in ids {
                        f(l, id);
                    }
                }
            }
        }
    }

    /// Pre-sizes the `(l, slot)` map for `additional` distinct keys, so a
    /// bulk [`SegmentMap::restore_posting`] replay (the snapshot loader)
    /// pays no incremental rehash growth. A no-op for out-of-range
    /// coordinates — reservation is an optimization, never a validation.
    pub fn reserve_keys(&mut self, l: usize, slot: usize, additional: usize) {
        if !(1..=self.tau + 1).contains(&slot) || l < self.tau + 1 {
            return;
        }
        if l >= self.per_len.len() {
            self.per_len.resize_with(l + 1, || None);
        }
        let tau = self.tau;
        let slot_maps = self.per_len[l]
            .get_or_insert_with(|| (0..=tau).map(|_| FxHashMap::default()).collect());
        slot_maps[slot - 1].reserve(additional);
    }

    /// Restores one inverted list — the inverse of
    /// [`SegmentMap::visit_postings`], used by the snapshot loader to
    /// rebuild an index without re-partitioning any string. Accounting
    /// (entries, distinct keys, key bytes) is restored alongside.
    ///
    /// Returns `Err` (instead of panicking) on structurally invalid input,
    /// since the caller may be feeding it attacker- or corruption-shaped
    /// data that passed checksums: the slot must exist for this τ, the
    /// length must be partitionable, the key must match the partition
    /// geometry ([`SegmentKey::matches_seg_len`]),
    /// ids must be strictly ascending, and the `(l, slot, key)` triple
    /// must not already be present.
    pub fn restore_posting(
        &mut self,
        l: usize,
        slot: usize,
        key: K,
        ids: Vec<StringId>,
    ) -> Result<(), &'static str> {
        if !(1..=self.tau + 1).contains(&slot) {
            return Err("posting slot out of range for tau");
        }
        if l < self.tau + 1 {
            return Err("posting length is too short to partition");
        }
        if ids.is_empty() {
            return Err("posting list is empty");
        }
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return Err("posting ids are not strictly ascending");
        }
        let seg = self.scheme.segment(l, self.tau, slot);
        if !key.matches_seg_len(seg.len) {
            return Err("posting key does not match the partition geometry");
        }
        if l >= self.per_len.len() {
            self.per_len.resize_with(l + 1, || None);
        }
        let tau = self.tau;
        let slot_maps = self.per_len[l]
            .get_or_insert_with(|| (0..=tau).map(|_| FxHashMap::default()).collect());
        let count = ids.len() as u64;
        match slot_maps[slot - 1].entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => {
                return Err("duplicate posting key");
            }
            std::collections::hash_map::Entry::Vacant(vacant) => {
                vacant.insert(ids);
            }
        }
        self.entries += count;
        self.distinct_keys += 1;
        self.key_bytes += K::stored_bytes(seg.len);
        self.peak_bytes = self.peak_bytes.max(self.live_bytes());
        Ok(())
    }
}

impl<K: SegmentKey + Borrow<[u8]>> SegmentMap<K> {
    /// The inverted list `L_l^slot(key)`, if any string is indexed under it.
    #[inline]
    pub fn probe(&self, l: usize, slot: usize, key: &[u8]) -> Option<&[StringId]> {
        self.probe_key(l, slot, key)
    }

    /// Visits every live inverted list as `(length, slot, segment bytes,
    /// ids)` in a **deterministic** order — lengths ascending, slots
    /// ascending, keys lexicographic. This is the serialization half of
    /// the raw-parts API used by `passjoin-persist`.
    pub fn visit_postings(&self, mut f: impl FnMut(usize, usize, &[u8], &[StringId]))
    where
        K: Ord,
    {
        // Byte keys order by `Ord` exactly as they order lexicographically,
        // so the generic visitor's determinism guarantee carries over.
        self.visit_postings_keys(|l, slot, key, ids| f(l, slot, key.borrow(), ids));
    }
}

impl<'a> SegmentMap<&'a [u8]> {
    /// Partitions `s` (which must live as long as the index) into τ+1
    /// segments and appends `id` to each segment's inverted list.
    ///
    /// Ids must be inserted in ascending order — the lists then stay sorted,
    /// which the shared-prefix verification relies on.
    pub fn insert(&mut self, s: &'a [u8], id: StringId) {
        for slot in 1..=self.tau + 1 {
            let seg = self.scheme.segment(s.len(), self.tau, slot);
            self.insert_posting(s.len(), slot, seg.len, &s[seg.start..seg.end()], id, false);
        }
    }
}

impl SegmentMap<Box<[u8]>> {
    /// Partitions `s` into τ+1 segments, copies each segment's bytes into
    /// an owned key, and inserts `id` in sorted position — ids may arrive
    /// in any order, so dynamic collections can index on insertion.
    pub fn insert_owned(&mut self, s: &[u8], id: StringId) {
        for slot in 1..=self.tau + 1 {
            let seg = self.scheme.segment(s.len(), self.tau, slot);
            self.insert_posting(
                s.len(),
                slot,
                seg.len,
                s[seg.start..seg.end()].into(),
                id,
                true,
            );
        }
    }

    /// Removes `id` from every inverted list the partition of `s` maps to,
    /// dropping keys whose lists become empty. Returns `true` if the id was
    /// present (under its first segment; the partition is deterministic, so
    /// presence is all-or-nothing).
    ///
    /// `s` must be the exact byte string `id` was inserted with.
    pub fn remove_owned(&mut self, s: &[u8], id: StringId) -> bool {
        let l = s.len();
        debug_assert!(l > self.tau, "short strings use the fallback path");
        if !self.has_length(l) {
            return false;
        }
        let mut found = false;
        for slot in 1..=self.tau + 1 {
            let seg = self.scheme.segment(l, self.tau, slot);
            let key = &s[seg.start..seg.end()];
            if self.remove_posting(l, slot, seg.len, key, id) {
                found = true;
            } else {
                debug_assert!(
                    !found,
                    "segments of one id must be all present or all absent"
                );
            }
        }
        if found {
            self.prune_length_row(l);
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_first_string() {
        // Figure 1: after inserting s1 = "vankatesh" (τ=3), the four lists
        // L_9^1..L_9^4 hold {"va"},{"nk"},{"at"},{"esh"}.
        let s1 = b"vankatesh";
        let mut idx = SegmentIndex::new(20, 3);
        idx.insert(s1, 0);
        assert_eq!(idx.probe(9, 1, b"va"), Some(&[0u32][..]));
        assert_eq!(idx.probe(9, 2, b"nk"), Some(&[0u32][..]));
        assert_eq!(idx.probe(9, 3, b"at"), Some(&[0u32][..]));
        assert_eq!(idx.probe(9, 4, b"esh"), Some(&[0u32][..]));
        assert_eq!(idx.probe(9, 1, b"nk"), None, "slots are separate indices");
        assert_eq!(idx.probe(10, 1, b"va"), None, "lengths are separate");
    }

    #[test]
    fn lists_accumulate_in_id_order() {
        let a = b"abcdxxxx";
        let b = b"abcdyyyy";
        let mut idx = SegmentIndex::new(10, 1);
        idx.insert(a, 0);
        idx.insert(b, 1);
        // τ=1 ⇒ two segments of length 4; both share "abcd" in slot 1.
        assert_eq!(idx.probe(8, 1, b"abcd"), Some(&[0u32, 1][..]));
        assert_eq!(idx.probe(8, 2, b"xxxx"), Some(&[0u32][..]));
        assert_eq!(idx.probe(8, 2, b"yyyy"), Some(&[1u32][..]));
    }

    #[test]
    fn eviction_reclaims_accounting() {
        let mut idx = SegmentIndex::new(16, 2);
        idx.insert(b"aaabbbccc", 0);
        idx.insert(b"dddeeefffg", 1);
        let live_before = idx.live_bytes();
        assert!(live_before > 0);
        assert!(idx.has_length(9));
        idx.evict_below(10);
        assert!(!idx.has_length(9));
        assert!(idx.has_length(10));
        assert!(idx.live_bytes() < live_before);
        assert_eq!(idx.probe(9, 1, b"aaa"), None);
        assert_eq!(idx.probe(10, 1, b"ddd"), Some(&[1u32][..]));
        // Peak keeps the high-water mark.
        assert!(idx.peak_bytes() >= live_before);
    }

    #[test]
    fn entries_counts_all_segments() {
        let mut idx = SegmentIndex::new(16, 3);
        idx.insert(b"abcdefgh", 0);
        assert_eq!(idx.entries(), 4);
        idx.insert(b"abcdefgi", 1);
        assert_eq!(idx.entries(), 8);
    }

    #[test]
    fn owned_inserts_in_any_order_stay_sorted() {
        let mut idx = OwnedSegmentIndex::new(0, 1);
        idx.insert_owned(b"abcdxxxx", 7);
        idx.insert_owned(b"abcdyyyy", 2);
        idx.insert_owned(b"abcdzzzz", 4);
        assert_eq!(idx.probe(8, 1, b"abcd"), Some(&[2u32, 4, 7][..]));
        assert_eq!(idx.entries(), 6);
        // Growing past the pre-sized table works.
        idx.insert_owned(b"a much longer string than the hint", 9);
        assert!(idx.has_length(34));
    }

    #[test]
    fn owned_remove_round_trips() {
        let mut idx = OwnedSegmentIndex::new(10, 1);
        idx.insert_owned(b"abcdxxxx", 0);
        idx.insert_owned(b"abcdyyyy", 1);
        let live_full = idx.live_bytes();

        assert!(idx.remove_owned(b"abcdyyyy", 1));
        assert_eq!(idx.probe(8, 1, b"abcd"), Some(&[0u32][..]));
        assert_eq!(idx.probe(8, 2, b"yyyy"), None, "emptied key is dropped");
        assert!(idx.live_bytes() < live_full);

        // Removing an absent id (or a never-inserted string) is a no-op.
        assert!(!idx.remove_owned(b"abcdyyyy", 1));
        assert!(!idx.remove_owned(b"qqqqqqqq", 5));

        assert!(idx.remove_owned(b"abcdxxxx", 0));
        assert!(!idx.has_length(8), "empty length rows are reclaimed");
        assert_eq!(idx.entries(), 0);
        assert_eq!(idx.live_bytes(), 0);

        // Re-insertion after removal works (the round trip of the online
        // index's insert → remove → insert cycle).
        idx.insert_owned(b"abcdxxxx", 0);
        assert_eq!(idx.probe(8, 1, b"abcd"), Some(&[0u32][..]));
    }

    #[test]
    fn visit_and_restore_round_trip() {
        let mut original = OwnedSegmentIndex::new(0, 2);
        original.insert_owned(b"aaabbbccc", 3);
        original.insert_owned(b"aaabbbccc", 7);
        original.insert_owned(b"aaabbbccd", 5);
        original.insert_owned(b"xxyyzzqqe", 1);

        // Replay the visited postings into a fresh index.
        let mut restored = OwnedSegmentIndex::new(0, 2);
        let mut visited = Vec::new();
        original.visit_postings(|l, slot, key, ids| {
            visited.push((l, slot, key.to_vec(), ids.to_vec()));
            restored
                .restore_posting(l, slot, key.into(), ids.to_vec())
                .unwrap();
        });
        assert!(!visited.is_empty());
        // Deterministic order: (length, slot, key) strictly ascending.
        for w in visited.windows(2) {
            let a = (&w[0].0, &w[0].1, &w[0].2);
            let b = (&w[1].0, &w[1].1, &w[1].2);
            assert!(a < b, "visit order must be strictly ascending");
        }

        assert_eq!(restored.entries(), original.entries());
        assert_eq!(restored.live_bytes(), original.live_bytes());
        for (l, slot, key, ids) in &visited {
            assert_eq!(restored.probe(*l, *slot, key), Some(&ids[..]));
        }
        // The restored index stays mutable: removal works as usual.
        assert!(restored.remove_owned(b"xxyyzzqqe", 1));
    }

    #[test]
    fn restore_posting_rejects_invalid_shapes() {
        let mut idx = OwnedSegmentIndex::new(0, 1);
        let key = |s: &[u8]| -> Box<[u8]> { s.into() };
        // Slot/length/geometry violations.
        assert!(idx.restore_posting(8, 0, key(b"abcd"), vec![1]).is_err());
        assert!(idx.restore_posting(8, 3, key(b"abcd"), vec![1]).is_err());
        assert!(idx.restore_posting(1, 1, key(b"a"), vec![1]).is_err());
        assert!(idx.restore_posting(8, 1, key(b"abc"), vec![1]).is_err());
        // List violations: empty, unsorted, duplicate key.
        assert!(idx.restore_posting(8, 1, key(b"abcd"), vec![]).is_err());
        assert!(idx.restore_posting(8, 1, key(b"abcd"), vec![2, 1]).is_err());
        assert!(idx.restore_posting(8, 1, key(b"abcd"), vec![1, 1]).is_err());
        assert!(idx.restore_posting(8, 1, key(b"abcd"), vec![1, 2]).is_ok());
        assert!(idx.restore_posting(8, 1, key(b"abcd"), vec![3]).is_err());
        // The valid restore landed and is probeable.
        assert_eq!(idx.probe(8, 1, b"abcd"), Some(&[1u32, 2][..]));
        assert_eq!(idx.entries(), 2);
    }

    #[test]
    fn owned_and_borrowed_agree_on_probes() {
        let strings: Vec<&[u8]> = vec![b"aaabbbccc", b"aaabbbccd", b"xxxyyyzzz"];
        let mut scan = SegmentIndex::new(16, 2);
        let mut owned = OwnedSegmentIndex::new(16, 2);
        for (id, s) in strings.iter().enumerate() {
            scan.insert(s, id as StringId);
            owned.insert_owned(s, id as StringId);
        }
        for l in 0..=16 {
            assert_eq!(scan.has_length(l), owned.has_length(l));
        }
        for slot in 1..=3 {
            for key in [&b"aaa"[..], b"bbb", b"ccc", b"ccd", b"xxx", b"zzz"] {
                assert_eq!(scan.probe(9, slot, key), owned.probe(9, slot, key));
            }
        }
        assert_eq!(scan.entries(), owned.entries());
        // Owned keys are charged their fat pointer on top of the segment
        // bytes a borrowed key is charged.
        assert!(scan.live_bytes() < owned.live_bytes());
    }
}
