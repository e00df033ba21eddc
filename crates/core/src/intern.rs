//! Integer-interned byte strings (the paper's §6 "encode segments as
//! integers" idea), used by the set-similarity lane as its token
//! dictionary.
//!
//! [`SegmentInterner`] maps each distinct byte string to a dense `u32` id
//! ([`SegId`]) exactly once. The reverse direction is an arena (one
//! contiguous byte buffer plus spans), so `id → bytes` is a slice, not an
//! allocation. Ids are **stable**: once a byte string has an id, it keeps
//! that id for the interner's lifetime, even if every reference to it is
//! released and re-acquired.
//!
//! The interner keeps per-id **liveness counts** (how many holders
//! currently reference each id) so callers can report live dictionary
//! bytes. Dead ids keep their arena bytes (monotone arena growth — the
//! price of id stability).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use sj_common::hash::FxHasher;

/// A dense interned-segment id: the integer the paper encodes segments as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegId(u32);

impl SegId {
    /// Wraps a raw id.
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw integer.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    // Raw `Hasher::write`, not `bytes.hash(..)`: the slice `Hash` impl
    // mixes in a length prefix, which costs an extra multiply round on
    // every dictionary probe — and the interner doesn't need it, because
    // hash equality is always confirmed by comparing arena bytes.
    let mut hasher = FxHasher::default();
    hasher.write(bytes);
    hasher.finish()
}

/// Pass-through hasher for the bucket map: its keys *are* already FxHash
/// values of the segment bytes, so hashing them again would put a second
/// multiply on every probe of the dictionary — the hottest instruction of
/// the interned backend's lookup path.
#[derive(Debug, Clone, Copy, Default)]
struct PrehashedU64(u64);

impl Hasher for PrehashedU64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the bucket map only hashes u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

/// A bucket value is one id inline (the overwhelmingly common case — a
/// 64-bit hash collision between *different* byte strings is rare), or,
/// with the high bit set, an index into the collision spill table. Inline
/// ids therefore live below [`SPILL_BIT`], which caps the id space at 2³¹
/// distinct segments — still far beyond any real collection.
const SPILL_BIT: u32 = 1 << 31;

type BucketMap = HashMap<u64, u32, BuildHasherDefault<PrehashedU64>>;

/// A byte-string → dense-`u32` dictionary with an arena-backed reverse
/// table and per-id liveness counts. See the module docs.
#[derive(Debug, Clone)]
pub struct SegmentInterner {
    /// Every interned byte string, concatenated in id order.
    arena: Vec<u8>,
    /// id → (start, len) into the arena.
    spans: Vec<(u32, u32)>,
    /// id → live holders referencing it.
    refs: Vec<u32>,
    /// Ids with `refs > 0`.
    live: usize,
    /// Σ byte lengths of live ids.
    live_bytes: u64,
    /// FxHash(bytes) → inline id or [`SPILL_BIT`]-tagged spill index
    /// (candidates are confirmed by comparing arena bytes — the map never
    /// stores a second byte copy).
    buckets: BucketMap,
    /// Ids sharing a 64-bit hash, for the rare true-collision buckets.
    spills: Vec<Vec<u32>>,
    /// Largest id count this interner accepts (the u32-overflow guard;
    /// lowered only by tests — see [`SegmentInterner::with_id_limit`]).
    id_limit: usize,
}

impl Default for SegmentInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentInterner {
    /// An empty interner with the full `u32` id space.
    pub fn new() -> Self {
        Self::with_id_limit(u32::MAX as usize)
    }

    /// An empty interner accepting at most `id_limit` distinct segments —
    /// a testing hook: the overflow guard is unreachable through real
    /// corpora (it would need 2³¹ distinct segments), so tests lower the
    /// limit to prove interning degrades gracefully instead of wrapping.
    pub fn with_id_limit(id_limit: usize) -> Self {
        Self {
            arena: Vec::new(),
            spans: Vec::new(),
            refs: Vec::new(),
            live: 0,
            live_bytes: 0,
            buckets: BucketMap::default(),
            spills: Vec::new(),
            id_limit: id_limit.min((SPILL_BIT - 1) as usize),
        }
    }

    /// Distinct byte strings interned so far (live or not).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Ids currently referenced by at least one holder.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total arena bytes (live and dead ids alike).
    pub fn arena_bytes(&self) -> u64 {
        self.arena.len() as u64
    }

    /// Estimated resident bytes of the live dictionary slice: each live
    /// id's bytes plus a fixed 12 bytes of table overhead (span + bucket
    /// entry). The same kind of estimator as
    /// [`SegmentMap::live_bytes`](crate::SegmentMap::live_bytes).
    pub fn live_table_bytes(&self) -> u64 {
        self.live_bytes + self.live as u64 * 12
    }

    /// The id of `bytes`, if it was ever interned.
    #[inline]
    pub fn lookup(&self, bytes: &[u8]) -> Option<SegId> {
        self.lookup_hashed(hash_bytes(bytes), bytes)
    }

    /// Interns `bytes`, returning its dense id — the existing one if the
    /// byte string was seen before (duplicates never mint a second id).
    ///
    /// Returns `None` when the id space or the arena's `u32` offset space
    /// is exhausted — the overflow guard; callers choose between failing
    /// the insert and falling back to a byte-keyed index.
    pub fn intern(&mut self, bytes: &[u8]) -> Option<SegId> {
        let hash = hash_bytes(bytes);
        if let Some(id) = self.lookup_hashed(hash, bytes) {
            return Some(id);
        }
        if self.spans.len() >= self.id_limit {
            return None;
        }
        let start = self.arena.len();
        if start
            .checked_add(bytes.len())
            .is_none_or(|end| end > u32::MAX as usize)
        {
            return None;
        }
        let id = self.spans.len() as u32;
        self.arena.extend_from_slice(bytes);
        self.spans.push((start as u32, bytes.len() as u32));
        self.refs.push(0);
        match self.buckets.entry(hash) {
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(id);
            }
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                // A true 64-bit collision between different byte strings:
                // move the bucket to (or extend) its spill list.
                let slot = *entry.get();
                if slot & SPILL_BIT == 0 {
                    self.spills.push(vec![slot, id]);
                    entry.insert((self.spills.len() - 1) as u32 | SPILL_BIT);
                } else {
                    self.spills[(slot & !SPILL_BIT) as usize].push(id);
                }
            }
        }
        Some(SegId(id))
    }

    #[inline]
    fn lookup_hashed(&self, hash: u64, bytes: &[u8]) -> Option<SegId> {
        let &slot = self.buckets.get(&hash)?;
        if slot & SPILL_BIT == 0 {
            return (self.span_bytes(slot) == bytes).then_some(SegId(slot));
        }
        self.spills[(slot & !SPILL_BIT) as usize]
            .iter()
            .copied()
            .find(|&id| self.span_bytes(id) == bytes)
            .map(SegId)
    }

    /// The bytes of `id`, if it is a known id.
    #[inline]
    pub fn bytes_of(&self, id: SegId) -> Option<&[u8]> {
        self.spans
            .get(id.index())
            .map(|&(start, len)| &self.arena[start as usize..start as usize + len as usize])
    }

    #[inline]
    fn span_bytes(&self, id: u32) -> &[u8] {
        let (start, len) = self.spans[id as usize];
        &self.arena[start as usize..start as usize + len as usize]
    }

    /// Records one more live holder referencing `id`.
    pub fn acquire(&mut self, id: SegId) {
        let refs = &mut self.refs[id.index()];
        if *refs == 0 {
            self.live += 1;
            self.live_bytes += self.spans[id.index()].1 as u64;
        }
        *refs += 1;
    }

    /// Records one fewer live holder referencing `id`. The id keeps
    /// its mapping: re-interning the same bytes later revives the same id.
    pub fn release(&mut self, id: SegId) {
        let refs = &mut self.refs[id.index()];
        debug_assert!(*refs > 0, "releasing an unreferenced interned id");
        *refs -= 1;
        if *refs == 0 {
            self.live -= 1;
            self.live_bytes -= self.spans[id.index()].1 as u64;
        }
    }

    /// Visits every **live** `(id, bytes)` pair, in ascending id order.
    pub fn visit_live(&self, mut f: impl FnMut(SegId, &[u8])) {
        for (idx, &refs) in self.refs.iter().enumerate() {
            if refs > 0 {
                f(SegId(idx as u32), self.span_bytes(idx as u32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates_and_is_stable() {
        let mut interner = SegmentInterner::new();
        let a = interner.intern(b"esh").unwrap();
        let b = interner.intern(b"va").unwrap();
        assert_ne!(a, b);
        // Duplicate interning returns the same id, mints nothing.
        assert_eq!(interner.intern(b"esh"), Some(a));
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.lookup(b"esh"), Some(a));
        assert_eq!(interner.lookup(b"nk"), None);
        assert_eq!(interner.bytes_of(a), Some(&b"esh"[..]));
        assert_eq!(interner.bytes_of(SegId::from_raw(9)), None);
    }

    #[test]
    fn empty_segment_interns_like_any_other() {
        let mut interner = SegmentInterner::new();
        let empty = interner.intern(b"").unwrap();
        let other = interner.intern(b"x").unwrap();
        assert_ne!(empty, other);
        assert_eq!(interner.intern(b""), Some(empty));
        assert_eq!(interner.lookup(b""), Some(empty));
        assert_eq!(interner.bytes_of(empty), Some(&b""[..]));
        interner.acquire(empty);
        assert_eq!(interner.live(), 1);
        assert_eq!(interner.live_table_bytes(), 12, "zero bytes + overhead");
        interner.release(empty);
        assert_eq!(interner.live(), 0);
    }

    #[test]
    fn ids_are_stable_across_removals() {
        let mut interner = SegmentInterner::new();
        let id = interner.intern(b"abc").unwrap();
        interner.acquire(id);
        interner.acquire(id);
        assert_eq!(interner.live(), 1);
        interner.release(id);
        interner.release(id);
        assert_eq!(interner.live(), 0, "fully released id is dead");
        // Re-interning after full release revives the *same* id.
        assert_eq!(interner.intern(b"abc"), Some(id));
        assert_eq!(interner.len(), 1, "no second id was minted");
        interner.acquire(id);
        assert_eq!(interner.live(), 1);
    }

    #[test]
    fn overflow_guard_rejects_gracefully() {
        let mut interner = SegmentInterner::with_id_limit(2);
        let a = interner.intern(b"aa").unwrap();
        let b = interner.intern(b"bb").unwrap();
        // The table is full: new byte strings are rejected…
        assert_eq!(interner.intern(b"cc"), None);
        // …but the interner stays fully usable for existing entries.
        assert_eq!(interner.intern(b"aa"), Some(a));
        assert_eq!(interner.lookup(b"bb"), Some(b));
        assert_eq!(interner.len(), 2);
        // And a later rejection is still graceful (no state was corrupted).
        assert_eq!(interner.intern(b"cc"), None);
    }

    #[test]
    fn live_accounting_tracks_refs() {
        let mut interner = SegmentInterner::new();
        let a = interner.intern(b"aaaa").unwrap();
        let b = interner.intern(b"bb").unwrap();
        interner.acquire(a);
        interner.acquire(b);
        assert_eq!(interner.live(), 2);
        assert_eq!(interner.live_table_bytes(), 4 + 2 + 2 * 12);
        interner.release(a);
        assert_eq!(interner.live(), 1);
        assert_eq!(interner.live_table_bytes(), 2 + 12);
        let mut live = Vec::new();
        interner.visit_live(|id, bytes| live.push((id, bytes.to_vec())));
        assert_eq!(live, vec![(b, b"bb".to_vec())]);
        assert_eq!(interner.arena_bytes(), 6, "dead bytes stay in the arena");
    }
}
