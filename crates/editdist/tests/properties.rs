//! Property tests: every optimized kernel must agree with the O(nm)
//! reference dynamic program on arbitrary inputs, including the shared and
//! extension verifiers under their scan protocols, and the signature
//! screen must never bound the distance from above.

use editdist::{
    banded_within, char_signature, edit_distance, length_aware_within, myers_distance,
    signature_bound, verify_extension, ExtensionVerifier, Occurrence, SharedMatrix,
};
use proptest::prelude::*;

/// Short strings over a small alphabet maximize collision-rich cases.
fn small_string() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..14)
}

/// Longer strings over a wider alphabet for band geometry coverage.
fn wide_string() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(97u8..=122, 0..40)
}

/// Strings over every byte value, so distinct bytes share a signature
/// bit (`c & 63`).
fn byte_string() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 0..24)
}

/// Up to four edits as `(kind, position, byte)`: 0 substitutes, 1
/// inserts, 2 deletes.
fn byte_edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    proptest::collection::vec((0u8..3, any::<usize>(), 0u8..=255), 0..5)
}

/// Applies `edits` to a copy of `s`; an edit that needs a byte `s` no
/// longer has is skipped.
fn edited(s: &[u8], edits: &[(u8, usize, u8)]) -> Vec<u8> {
    let mut out = s.to_vec();
    for &(kind, at, byte) in edits {
        match kind {
            0 if !out.is_empty() => {
                let at = at % out.len();
                out[at] = byte;
            }
            1 => {
                let at = at % (out.len() + 1);
                out.insert(at, byte);
            }
            2 if !out.is_empty() => {
                let at = at % out.len();
                out.remove(at);
            }
            _ => {}
        }
    }
    out
}

proptest! {
    #[test]
    fn reference_is_a_metric(a in small_string(), b in small_string(), c in small_string()) {
        let ab = edit_distance(&a, &b);
        let bc = edit_distance(&b, &c);
        let ac = edit_distance(&a, &c);
        // identity, symmetry, triangle inequality
        prop_assert_eq!(edit_distance(&a, &a), 0);
        prop_assert_eq!(ab, edit_distance(&b, &a));
        prop_assert!(ac <= ab + bc);
        // length difference is a lower bound, max length an upper bound
        prop_assert!(ab >= a.len().abs_diff(b.len()));
        prop_assert!(ab <= a.len().max(b.len()));
    }

    #[test]
    fn banded_agrees_with_reference(a in small_string(), b in small_string(), tau in 0usize..8) {
        let d = edit_distance(&a, &b);
        prop_assert_eq!(banded_within(&a, &b, tau), (d <= tau).then_some(d));
    }

    #[test]
    fn banded_agrees_on_wide_inputs(a in wide_string(), b in wide_string(), tau in 0usize..12) {
        let d = edit_distance(&a, &b);
        prop_assert_eq!(banded_within(&a, &b, tau), (d <= tau).then_some(d));
    }

    #[test]
    fn signature_bound_never_exceeds_the_distance(
        a in byte_string(),
        b in byte_string(),
        edits in byte_edits(),
    ) {
        // Unrelated strings, and `a` against a few edits of itself (the
        // bound is tight there: each edit can flip two bits).
        let near = edited(&a, &edits);
        for other in [&b, &near] {
            let bound = signature_bound(char_signature(&a), char_signature(other));
            let d = edit_distance(&a, other);
            prop_assert!(bound <= d, "bound {} above distance {} for {:?} / {:?}", bound, d, a, other);
        }
        prop_assert!(edit_distance(&a, &near) <= edits.len());
    }

    #[test]
    fn myers_agrees_with_reference(a in small_string(), b in small_string()) {
        prop_assert_eq!(myers_distance(&a, &b), edit_distance(&a, &b));
    }

    #[test]
    fn myers_agrees_on_wide_inputs(a in wide_string(), b in wide_string()) {
        prop_assert_eq!(myers_distance(&a, &b), edit_distance(&a, &b));
    }

    #[test]
    fn length_aware_agrees_with_reference(a in small_string(), b in small_string(), tau in 0usize..8) {
        let d = edit_distance(&a, &b);
        prop_assert_eq!(length_aware_within(&a, &b, tau), (d <= tau).then_some(d));
    }

    #[test]
    fn length_aware_agrees_on_wide_inputs(a in wide_string(), b in wide_string(), tau in 0usize..12) {
        let d = edit_distance(&a, &b);
        prop_assert_eq!(length_aware_within(&a, &b, tau), (d <= tau).then_some(d));
    }

    #[test]
    fn shared_matrix_agrees_across_a_scan(
        right in small_string(),
        lefts in proptest::collection::vec(small_string(), 1..8),
        left_len in 0usize..12,
        tau in 0usize..6,
    ) {
        // Normalize every left string to the fixed scan length.
        let lefts: Vec<Vec<u8>> = lefts
            .into_iter()
            .map(|mut l| {
                l.resize(left_len, b'a');
                l
            })
            .collect();
        let mut m = SharedMatrix::new();
        m.begin_scan(&right, left_len, tau);
        for left in &lefts {
            let d = edit_distance(left, &right);
            prop_assert_eq!(m.distance(left), (d <= tau).then_some(d));
        }
    }

    #[test]
    fn extension_certificate_upper_bounds_distance(
        r in small_string(),
        s in small_string(),
        tau in 1usize..6,
        slot_minus_one in 0usize..6,
        seed in any::<u64>(),
    ) {
        // Manufacture an arbitrary valid occurrence: pick any common
        // substring alignment (possibly empty strings have none).
        let slot = (slot_minus_one % tau) + 1;
        if r.is_empty() || s.is_empty() {
            return Ok(());
        }
        let seg_start = (seed as usize) % r.len();
        let max_len = r.len() - seg_start;
        let seg_len = 1 + (seed as usize / 7) % max_len;
        let needle = &r[seg_start..seg_start + seg_len];
        let probe_start = match s
            .windows(seg_len)
            .position(|w| w == needle)
        {
            Some(p) => p,
            None => return Ok(()),
        };
        let occ = Occurrence { slot, seg_start, seg_len, probe_start };
        if let Some(cert) = verify_extension(&r, &s, &occ, tau) {
            let d = edit_distance(&r, &s);
            prop_assert!(cert >= d, "certificate below true distance");
            prop_assert!(cert <= tau, "certificate exceeds threshold");
        }
    }

    #[test]
    fn extension_share_matches_no_share(
        rs in proptest::collection::vec(small_string(), 1..6),
        s in small_string(),
        tau in 1usize..5,
        slot_minus_one in 0usize..5,
    ) {
        if s.len() < 2 {
            return Ok(());
        }
        let slot = (slot_minus_one % tau) + 1;
        // Fix a probe substring of s and find list strings containing it at
        // a fixed position, mirroring how inverted lists behave.
        let seg_len = 1 + s.len() % 3;
        if s.len() < seg_len {
            return Ok(());
        }
        let probe_start = s.len() / 3;
        if probe_start + seg_len > s.len() {
            return Ok(());
        }
        let needle = &s[probe_start..probe_start + seg_len];
        let seg_start = probe_start.min(2);
        // Build list entries of one fixed length embedding the needle.
        let r_len = seg_start + seg_len + 3;
        let entries: Vec<Vec<u8>> = rs
            .iter()
            .map(|r| {
                let mut e: Vec<u8> = r.iter().copied().chain(std::iter::repeat(b'x')).take(seg_start).collect();
                e.extend_from_slice(needle);
                e.extend(r.iter().copied().chain(std::iter::repeat(b'y')).take(r_len - e.len()));
                e
            })
            .collect();
        let occ = Occurrence { slot, seg_start, seg_len, probe_start };

        let mut share = ExtensionVerifier::new(true);
        let mut plain = ExtensionVerifier::new(false);
        share.begin_scan(&s, &occ, tau, r_len);
        plain.begin_scan(&s, &occ, tau, r_len);
        for e in &entries {
            prop_assert_eq!(share.verify(e, &s, &occ), plain.verify(e, &s, &occ));
        }
    }
}
