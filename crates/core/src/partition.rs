//! The even-partition scheme (paper §3.1).
//!
//! A string of length `l` is split into τ+1 disjoint segments whose lengths
//! differ by at most one: with `k = l − ⌊l/(τ+1)⌋·(τ+1)`, the *last* `k`
//! segments have length `⌈l/(τ+1)⌉` and the first `τ+1−k` have
//! `⌊l/(τ+1)⌋`. Balanced segments are as long as possible, which keeps
//! their selectivity high (short segments match everywhere and flood the
//! candidate set — the `repro ablation-partition` experiment quantifies this).
//!
//! By the pigeonhole principle (Lemma 1), any string within edit distance τ
//! of `s` must contain a substring equal to one of `s`'s τ+1 segments.

/// Position and length of one segment inside its string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentSpec {
    /// 0-based start offset of the segment.
    pub start: usize,
    /// Segment length in bytes (≥ 1 whenever `len ≥ τ+1`).
    pub len: usize,
}

impl SegmentSpec {
    /// End offset (exclusive).
    #[inline]
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Computes segment `slot` (1-based, `1 ..= tau+1`) of the even partition of
/// a string of length `len` under threshold `tau`, in O(1).
///
/// # Panics
///
/// Panics in debug builds when `len < tau + 1` (such strings cannot be
/// partitioned into τ+1 non-empty segments; the join driver routes them to
/// a brute-force fallback instead) or when `slot` is out of range.
///
/// ```
/// use passjoin::partition::segment;
/// // "vankatesh" (len 9) at τ=3 partitions into {"va","nk","at","esh"}.
/// let lens: Vec<usize> = (1..=4).map(|i| segment(9, 3, i).len).collect();
/// assert_eq!(lens, [2, 2, 2, 3]);
/// ```
#[inline]
pub fn segment(len: usize, tau: usize, slot: usize) -> SegmentSpec {
    let parts = tau + 1;
    debug_assert!(
        len >= parts,
        "string of length {len} cannot form {parts} segments"
    );
    debug_assert!(
        (1..=parts).contains(&slot),
        "slot {slot} out of 1..={parts}"
    );
    let base = len / parts;
    let k = len - base * parts;
    // The first `parts − k` segments have length `base`, the last `k` have
    // `base + 1`.
    let plain = parts - k;
    if slot <= plain {
        SegmentSpec {
            start: (slot - 1) * base,
            len: base,
        }
    } else {
        let extra = slot - plain - 1; // long segments before this one
        SegmentSpec {
            start: plain * base + extra * (base + 1),
            len: base + 1,
        }
    }
}

/// All τ+1 segments of the even partition, in order.
pub fn partition(len: usize, tau: usize) -> Vec<SegmentSpec> {
    (1..=tau + 1).map(|slot| segment(len, tau, slot)).collect()
}

/// A naive left-heavy partition used by the partition ablation: the first
/// τ segments get one byte each, the final segment takes the rest.
/// Satisfies Lemma 1 like any partition into τ+1 disjoint segments, but
/// its single-byte segments have terrible selectivity — quantifying §3.1's
/// argument for balanced segments.
pub fn left_heavy_partition(len: usize, tau: usize) -> Vec<SegmentSpec> {
    debug_assert!(len > tau);
    let mut segs: Vec<SegmentSpec> = (0..tau).map(|i| SegmentSpec { start: i, len: 1 }).collect();
    segs.push(SegmentSpec {
        start: tau,
        len: len - tau,
    });
    segs
}

/// How strings are split into τ+1 disjoint segments.
///
/// Every scheme satisfies the pigeonhole property (Lemma 1 holds for *any*
/// partition into τ+1 disjoint segments), and the selection windows and
/// extension budgets depend only on segment positions and counts — so the
/// join is correct under any scheme. They differ only in pruning power,
/// which is what the `ablation-partition` experiment measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionScheme {
    /// The paper's even partition (§3.1): segment lengths differ by ≤ 1.
    #[default]
    Even,
    /// A deliberately bad partition: τ single-byte segments plus the rest.
    LeftHeavy,
}

impl PartitionScheme {
    /// Short name used in benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionScheme::Even => "even",
            PartitionScheme::LeftHeavy => "left-heavy",
        }
    }

    /// Segment `slot` (1-based) of a string of length `len` under this
    /// scheme, in O(1).
    #[inline]
    pub fn segment(&self, len: usize, tau: usize, slot: usize) -> SegmentSpec {
        match self {
            PartitionScheme::Even => segment(len, tau, slot),
            PartitionScheme::LeftHeavy => {
                debug_assert!(len > tau);
                debug_assert!((1..=tau + 1).contains(&slot));
                if slot <= tau {
                    SegmentSpec {
                        start: slot - 1,
                        len: 1,
                    }
                } else {
                    SegmentSpec {
                        start: tau,
                        len: len - tau,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_vankatesh() {
        // §3.1: "vankatesh", τ=3 ⇒ {"va", "nk", "at", "esh"}.
        let s = b"vankatesh";
        let segs = partition(s.len(), 3);
        let pieces: Vec<&[u8]> = segs.iter().map(|g| &s[g.start..g.end()]).collect();
        assert_eq!(pieces, vec![b"va".as_slice(), b"nk", b"at", b"esh"]);
    }

    #[test]
    fn paper_example_kaushuk() {
        // §5.2 example geometry: len 15, τ=3 ⇒ lengths [3,4,4,4] and the
        // third segment of "kaushuk chadhui" is " cha".
        let s = b"kaushuk chadhui";
        let segs = partition(s.len(), 3);
        let lens: Vec<usize> = segs.iter().map(|g| g.len).collect();
        assert_eq!(lens, [3, 4, 4, 4]);
        let third = segs[2];
        assert_eq!(&s[third.start..third.end()], b" cha");
    }

    #[test]
    fn segments_tile_the_string() {
        for len in 1..=64 {
            for tau in 0..8.min(len - 1) {
                let segs = partition(len, tau);
                assert_eq!(segs.len(), tau + 1);
                assert_eq!(segs[0].start, 0);
                for w in segs.windows(2) {
                    assert_eq!(w[0].end(), w[1].start, "len={len} tau={tau}");
                }
                assert_eq!(segs.last().unwrap().end(), len);
                // Even partition: lengths differ by at most one and are
                // non-decreasing (short segments first).
                let min = segs.iter().map(|g| g.len).min().unwrap();
                let max = segs.iter().map(|g| g.len).max().unwrap();
                assert!(max - min <= 1, "len={len} tau={tau}");
                assert!(min >= 1);
                for w in segs.windows(2) {
                    assert!(w[0].len <= w[1].len);
                }
            }
        }
    }

    #[test]
    fn slotwise_matches_partition() {
        for len in 4..=40 {
            for tau in 0..4.min(len - 1) {
                let all = partition(len, tau);
                for (idx, &spec) in all.iter().enumerate() {
                    assert_eq!(segment(len, tau, idx + 1), spec);
                }
            }
        }
    }

    #[test]
    fn left_heavy_tiles_too() {
        let segs = left_heavy_partition(10, 3);
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0], SegmentSpec { start: 0, len: 1 });
        assert_eq!(segs[3], SegmentSpec { start: 3, len: 7 });
        assert_eq!(segs.last().unwrap().end(), 10);
    }

    #[test]
    fn scheme_dispatch_matches_free_functions() {
        for len in 5..30usize {
            for tau in 0..4.min(len - 1) {
                for slot in 1..=tau + 1 {
                    assert_eq!(
                        PartitionScheme::Even.segment(len, tau, slot),
                        segment(len, tau, slot)
                    );
                    assert_eq!(
                        PartitionScheme::LeftHeavy.segment(len, tau, slot),
                        left_heavy_partition(len, tau)[slot - 1]
                    );
                }
            }
        }
    }

    #[test]
    fn exact_multiple_lengths() {
        // len divisible by τ+1: all segments equal.
        let segs = partition(12, 3);
        assert!(segs.iter().all(|g| g.len == 3));
        let segs = partition(12, 11);
        assert!(segs.iter().all(|g| g.len == 1));
    }
}
