//! A visited-set with O(1) reset, used to deduplicate candidates per probe.
//!
//! During one probe string's candidate generation, the same indexed string
//! can surface through several segments. A `HashSet` per probe would
//! allocate and rehash millions of times across a join; clearing a bitmap
//! costs O(universe) per probe. A *stamp set* stores, per id, the epoch in
//! which it was last inserted: resetting is a single counter increment.

/// Dense-universe set of `u32` ids with O(1) `clear`.
#[derive(Debug, Clone)]
pub struct StampSet {
    stamps: Vec<u32>,
    epoch: u32,
}

impl StampSet {
    /// Creates an empty set over the universe `0..universe`.
    pub fn new(universe: usize) -> Self {
        // Stamps start at 0 and the epoch at 1, so a fresh set is empty
        // without requiring an initial `clear`.
        Self {
            stamps: vec![0; universe],
            epoch: 1,
        }
    }

    /// Number of ids the set can hold.
    pub fn universe(&self) -> usize {
        self.stamps.len()
    }

    /// Empties the set. O(1) except once every `u32::MAX` clears, when the
    /// stamp array must be zeroed to avoid epoch collisions.
    #[inline]
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Inserts `id`; returns `true` if it was not yet present this epoch.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let slot = &mut self.stamps[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// True if `id` was inserted since the last [`StampSet::clear`].
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.stamps[id as usize] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = StampSet::new(10);
        s.clear();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(!s.contains(4));
    }

    #[test]
    fn clear_resets() {
        let mut s = StampSet::new(4);
        s.clear();
        s.insert(0);
        s.insert(1);
        s.clear();
        assert!(!s.contains(0));
        assert!(!s.contains(1));
        assert!(s.insert(0));
    }

    #[test]
    fn fresh_set_contains_nothing() {
        // A fresh set must be empty without an explicit `clear`: the stamp
        // array starts at 0 while the epoch starts at 1.
        let s = StampSet::new(3);
        assert!(!s.contains(0), "fresh StampSet must be empty");
        assert!(!s.contains(2), "fresh StampSet must be empty");
    }

    #[test]
    fn epoch_wraparound_is_safe() {
        let mut s = StampSet::new(2);
        s.epoch = u32::MAX - 1;
        s.clear(); // epoch == MAX
        s.insert(0);
        assert!(s.contains(0));
        s.clear(); // wraps: zeroes stamps, epoch restarts
        assert!(!s.contains(0));
        assert!(s.insert(0));
    }
}
