//! Edit-distance verification kernels from Pass-Join §5.
//!
//! The paper's verification pipeline is a sequence of refinements over the
//! textbook dynamic program, each of which is exposed here as a separate
//! kernel so the Figure 14 ablation can benchmark them individually:
//!
//! | Paper name (Fig. 14) | Kernel | Idea |
//! |---|---|---|
//! | `2τ+1` | [`banded_within`] | compute only the `2τ+1` diagonals with `\|i−j\| ≤ τ`; stop when a whole row exceeds τ |
//! | `τ+1` | [`length_aware_within`] | §5.1: row `i` only needs `j ∈ [i−⌊(τ−Δ)/2⌋, i+⌊(τ+Δ)/2⌋]` (Δ = length difference), ≤ τ+1 cells; stop when every *expected* edit distance `E(i,j) = M(i,j) + \|(n−j)−(m−i)\|` exceeds τ (Lemma 4) |
//! | `Extension` | [`extension::ExtensionVerifier`] | §5.2: align the shared segment, verify left parts under `τ_l = i−1` and right parts under `τ_r = τ+1−i` |
//! | `SharePrefix` | [`shared::SharedMatrix`] | §5.3: consecutive strings on an inverted list share prefixes; keep the DP matrix and restart below the common prefix |
//!
//! All kernels operate on byte slices. The evaluation corpora are ASCII, so
//! byte edit distance equals character edit distance there; for non-ASCII
//! UTF-8 the semantics are byte-level (documented at the join entry points).
//!
//! [`edit_distance`] (the unrestricted O(nm) dynamic program) is the
//! reference implementation every other kernel is property-tested against.
//!
//! Beside the kernels sits a screen that runs no DP at all:
//! [`char_signature`] and [`signature_bound`] bound the distance from
//! below by the characters two strings do not share, so a candidate whose
//! bound exceeds τ can be rejected before any kernel runs.

pub mod banded;
pub mod extension;
pub mod full;
pub mod length_aware;
pub mod myers;
pub mod naive;
pub mod shared;
pub mod signature;

pub use banded::{banded_within, banded_within_ws};
pub use extension::{verify_extension, ExtensionVerifier, Occurrence};
pub use full::{edit_distance, within_full};
pub use length_aware::{length_aware_within, length_aware_within_ws};
pub use myers::{myers_distance, myers_within};
pub use naive::NaiveJoin;
pub use shared::SharedMatrix;
pub use signature::{char_signature, signature_bound};

/// Cell value standing in for "outside the band / unreachable".
/// `u32::MAX / 2` leaves headroom so `INF + 1` cannot wrap.
pub(crate) const INF: u32 = u32::MAX / 2;

/// Reusable row buffers for the banded kernels.
///
/// Verification runs millions of times per join; allocating two rows per
/// call would dominate the profile. Join drivers own one workspace and pass
/// it to the `*_ws` kernel variants.
#[derive(Debug, Default, Clone)]
pub struct DpWorkspace {
    prev: Vec<u32>,
    cur: Vec<u32>,
}

impl DpWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures both rows can hold `cols` entries and returns them.
    #[inline]
    pub(crate) fn rows(&mut self, cols: usize) -> (&mut Vec<u32>, &mut Vec<u32>) {
        if self.prev.len() < cols {
            self.prev.resize(cols, INF);
            self.cur.resize(cols, INF);
        }
        (&mut self.prev, &mut self.cur)
    }
}

/// Computes the banded-row offsets of §5.1 for threshold `tau` and signed
/// length difference `delta = n − m` (right length minus left length).
///
/// Row `i` of the DP matrix only needs columns
/// `j ∈ [i − left_reach, i + right_reach]`; everything outside provably lies
/// on no transformation of cost ≤ τ (length pruning on both the consumed
/// prefixes and the remaining suffixes).
///
/// Returns `None` when `|delta| > tau`, in which case the strings cannot be
/// within `tau` at all.
#[inline]
pub(crate) fn band_reach(tau: usize, delta: isize) -> Option<(usize, usize)> {
    if delta.unsigned_abs() > tau {
        return None;
    }
    // τ − Δ and τ + Δ are both non-negative after the check above.
    let left = (tau as isize - delta) as usize / 2;
    let right = (tau as isize + delta) as usize / 2;
    Some((left, right))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_reach_matches_paper_examples() {
        // §5.1 example: τ=3, Δ=2 ⇒ compute j ∈ [i−0, i+2].
        assert_eq!(band_reach(3, 2), Some((0, 2)));
        // Symmetric orientation.
        assert_eq!(band_reach(3, -2), Some((2, 0)));
        // Δ=0 keeps ⌊τ/2⌋ on both sides.
        assert_eq!(band_reach(3, 0), Some((1, 1)));
        assert_eq!(band_reach(4, 0), Some((2, 2)));
    }

    #[test]
    fn band_reach_rejects_large_delta() {
        assert_eq!(band_reach(3, 4), None);
        assert_eq!(band_reach(3, -4), None);
        assert_eq!(band_reach(0, 1), None);
        assert_eq!(band_reach(0, 0), Some((0, 0)));
    }

    #[test]
    fn band_width_is_at_most_tau_plus_one() {
        for tau in 0..12usize {
            for delta in -(tau as isize)..=(tau as isize) {
                let (a, b) = band_reach(tau, delta).unwrap();
                assert!(a + b < tau + 1, "tau={tau} delta={delta}");
                // The band must at least contain the final cell's diagonal.
                assert!(a + b + 1 >= 1);
            }
        }
    }
}
