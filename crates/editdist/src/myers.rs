//! Myers' bit-parallel edit distance (Myers, JACM 1999).
//!
//! Not part of Pass-Join itself, but the strongest practical alternative to
//! banded dynamic programming for verification: the DP column is packed
//! into machine words (delta-encoded as horizontal/vertical +1/−1 bit
//! vectors), processing 64 pattern characters per word operation —
//! an alternative the paper does not evaluate but that a production
//! system would want to compare before committing to a verifier.
//!
//! This implementation handles patterns of arbitrary length by chaining
//! 64-bit blocks (the unbanded "multi-word" variant), tracking the score at
//! the last row only.

/// Levenshtein distance via Myers' bit-parallel algorithm.
///
/// ```
/// use editdist::myers_distance;
/// assert_eq!(myers_distance(b"kitten", b"sitting"), 3);
/// assert_eq!(myers_distance(b"", b"abc"), 3);
/// ```
pub fn myers_distance(a: &[u8], b: &[u8]) -> usize {
    // Pattern = shorter string (fewer blocks); text = longer.
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let m = pattern.len();
    if m == 0 {
        return text.len();
    }

    let blocks = m.div_ceil(64);
    // peq[block][c] = bitmask of pattern positions in this block equal to c.
    // Rows beyond the pattern (the final block's padding) keep peq = 0;
    // since the DP only flows downward, padding rows below row m never
    // influence the tracked score bit.
    let mut peq = vec![[0u64; 256]; blocks];
    for (i, &c) in pattern.iter().enumerate() {
        peq[i / 64][c as usize] |= 1 << (i % 64);
    }

    // Per block: VP (vertical +1 deltas) and VN (vertical −1 deltas).
    let mut vp = vec![u64::MAX; blocks];
    let mut vn = vec![0u64; blocks];
    let last_block = blocks - 1;
    // The bit corresponding to the pattern's last row.
    let score_bit = 1u64 << ((m - 1) % 64);

    let mut score = m as isize;
    for &tc in text {
        // Horizontal delta entering block 0 is the top boundary
        // M(0, j) − M(0, j−1) = +1 (global edit distance).
        let mut hin: i32 = 1;
        for blk in 0..blocks {
            let eq0 = peq[blk][tc as usize];
            let pv = vp[blk];
            let nv = vn[blk];

            let xv = eq0 | nv;
            // A negative carry into the block acts like a match in row 0.
            let eq = eq0 | u64::from(hin < 0);
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;

            let mut ph = nv | !(xh | pv);
            let mut mh = pv & xh;

            if blk == last_block {
                if ph & score_bit != 0 {
                    score += 1;
                } else if mh & score_bit != 0 {
                    score -= 1;
                }
            }

            // Horizontal delta leaving this block (its top row).
            let hout = i32::from(ph >> 63 == 1) - i32::from(mh >> 63 == 1);
            ph = (ph << 1) | u64::from(hin > 0);
            mh = (mh << 1) | u64::from(hin < 0);

            vp[blk] = mh | !(xv | ph);
            vn[blk] = ph & xv;
            hin = hout;
        }
    }
    debug_assert!(score >= 0);
    score as usize
}

/// `Some(d)` iff `myers_distance(a, b) = d ≤ tau` (API parity with the
/// banded kernels; Myers has no early termination here, its win is raw
/// per-column throughput).
pub fn myers_within(a: &[u8], b: &[u8], tau: usize) -> Option<usize> {
    if a.len().abs_diff(b.len()) > tau {
        return None;
    }
    let d = myers_distance(a, b);
    (d <= tau).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit_distance;

    #[test]
    fn known_values() {
        assert_eq!(myers_distance(b"kitten", b"sitting"), 3);
        assert_eq!(myers_distance(b"sunday", b"saturday"), 3);
        assert_eq!(myers_distance(b"", b""), 0);
        assert_eq!(myers_distance(b"abc", b""), 3);
        assert_eq!(myers_distance(b"same", b"same"), 0);
        assert_eq!(myers_distance(b"intention", b"execution"), 5);
    }

    #[test]
    fn agrees_with_reference_across_word_boundaries() {
        // Exercise patterns spanning 1..3 blocks (the carry chain).
        let base: Vec<u8> = (0..150u8).map(|i| b'a' + (i % 7)).collect();
        for m in [1usize, 8, 63, 64, 65, 100, 127, 128, 129, 150] {
            let p = &base[..m];
            let mut t = base.clone();
            t[m / 2] = b'z';
            t.truncate((m + 11).min(base.len()));
            assert_eq!(
                myers_distance(p, &t),
                edit_distance(p, &t),
                "pattern len {m}"
            );
        }
    }

    #[test]
    fn random_agreement_with_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..400 {
            let n = rng.gen_range(0..180);
            let m = rng.gen_range(0..180);
            let a: Vec<u8> = (0..n).map(|_| rng.gen_range(b'a'..=b'd')).collect();
            let b: Vec<u8> = (0..m).map(|_| rng.gen_range(b'a'..=b'd')).collect();
            assert_eq!(myers_distance(&a, &b), edit_distance(&a, &b));
        }
    }

    #[test]
    fn within_matches_semantics() {
        assert_eq!(myers_within(b"kitten", b"sitting", 3), Some(3));
        assert_eq!(myers_within(b"kitten", b"sitting", 2), None);
        assert_eq!(myers_within(b"a", b"abcdef", 2), None); // length filter
    }
}
