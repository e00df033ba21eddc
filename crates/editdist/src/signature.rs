//! Character-presence signatures: a lower bound on edit distance that
//! costs one XOR and one popcount per candidate.
//!
//! A string's signature sets bit `c & 63` for every byte `c` in it. One
//! edit adds at most one byte and removes at most one, so it flips at
//! most two signature bits, and `ed(a, b) ≥ ⌈popcount(sig(a) ⊕ sig(b))/2⌉`
//! ([`signature_bound`]). Distinct bytes may share a bit; that only
//! weakens the bound, never breaks it.

/// The 64-bit character-presence signature of `s`: bit `c & 63` is set
/// for every byte `c` of `s`.
///
/// ```
/// use editdist::char_signature;
///
/// assert_eq!(char_signature(b""), 0);
/// assert_eq!(char_signature(b"aab"), char_signature(b"ba"));
/// // `a` (0x61) and `!` (0x21) share a bit.
/// assert_eq!(char_signature(b"a"), char_signature(b"!"));
/// ```
#[inline]
pub fn char_signature(s: &[u8]) -> u64 {
    s.iter().fold(0, |sig, &c| sig | 1 << (c & 63))
}

/// A lower bound on the edit distance of two strings from their
/// signatures: `⌈popcount(a ⊕ b)/2⌉`.
///
/// ```
/// use editdist::{char_signature, edit_distance, signature_bound};
///
/// let (a, b) = (b"vldb".as_slice(), b"icde".as_slice());
/// let bound = signature_bound(char_signature(a), char_signature(b));
/// assert_eq!(bound, 3); // {v,l,b} vs {i,c,e}: six bits differ
/// assert!(bound <= edit_distance(a, b));
/// ```
#[inline]
pub fn signature_bound(a: u64, b: u64) -> usize {
    (a ^ b).count_ones().div_ceil(2) as usize
}
