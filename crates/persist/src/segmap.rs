//! Codec for `passjoin`'s segment inverted indices ([`SegmentMap`]).
//!
//! The encoding is a flat posting stream over the core crate's raw-parts
//! API:
//!
//! ```text
//! scheme: u32          (0 = even partition, 1 = left-heavy)
//! tau:    u32          (the τ the map partitions for)
//! n_postings: u64
//! n_postings × {
//!   l: u32  slot: u32  key_len: u32  n_ids: u32
//!   key bytes (key_len)
//!   ids (n_ids × u32, strictly ascending)
//! }
//! ```
//!
//! [`SegmentMap::visit_postings`] guarantees a deterministic visiting
//! order, so encoding the same index twice yields identical bytes — and
//! decoding replays each posting through
//! [`SegmentMap::restore_posting`], which re-validates the partition
//! geometry and id ordering. No string is ever re-partitioned on load:
//! that is where the load-vs-rebuild speedup comes from (restoring a
//! posting is one hash insert of a ready-made list, while a rebuild pays
//! τ+1 sorted inserts *per string*).

use passjoin::{OwnedSegmentIndex, PartitionScheme, SegmentKey, SegmentMap};
use sj_common::StringId;

use crate::error::PersistError;
use crate::format::Cursor;

pub(crate) fn scheme_code(scheme: PartitionScheme) -> u32 {
    match scheme {
        PartitionScheme::Even => 0,
        PartitionScheme::LeftHeavy => 1,
    }
}

pub(crate) fn scheme_from_code(code: u32) -> Option<PartitionScheme> {
    match code {
        0 => Some(PartitionScheme::Even),
        1 => Some(PartitionScheme::LeftHeavy),
        _ => None,
    }
}

/// Serializes a byte-keyed segment map into a section payload.
pub fn encode<K: SegmentKey + std::borrow::Borrow<[u8]> + Ord>(map: &SegmentMap<K>) -> Vec<u8> {
    encode_with(map.scheme(), map.tau(), |f| {
        map.visit_postings(|l, slot, key, ids| f(l, slot, key, ids))
    })
}

/// [`encode`] over any posting visitor yielding the deterministic
/// `(l, slot, key)` order — the order [`SegmentMap::visit_postings`] and
/// [`passjoin::DirectSegmentIndex::try_visit_postings`] both produce. Lets
/// a direct-probe store re-save its origin's section byte-identically
/// without materializing a hash map first.
pub fn encode_with(
    scheme: PartitionScheme,
    tau: usize,
    visit: impl FnOnce(&mut dyn FnMut(usize, usize, &[u8], &[StringId])),
) -> Vec<u8> {
    // Single visiting pass (each visit re-sorts every bucket for the
    // deterministic order, so walking twice to pre-count would double the
    // dominant save cost): write a placeholder count, patch it after.
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&scheme_code(scheme).to_le_bytes());
    out.extend_from_slice(&(tau as u32).to_le_bytes());
    let count_at = out.len();
    out.extend_from_slice(&0u64.to_le_bytes());
    let mut postings = 0u64;
    visit(&mut |l, slot, key, ids| {
        postings += 1;
        out.extend_from_slice(&(l as u32).to_le_bytes());
        out.extend_from_slice(&(slot as u32).to_le_bytes());
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        out.extend_from_slice(key);
        for &id in ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
    });
    out[count_at..count_at + 8].copy_from_slice(&postings.to_le_bytes());
    out
}

/// Decodes a section payload into an owned segment map.
///
/// `expected_tau` cross-checks the payload against the snapshot's
/// metadata; every id must be below `universe` (the loaded string
/// table's size) and every posting length at most `max_len` (the longest
/// live string) — postings referencing ids or lengths the string table
/// cannot contain are rejected as corrupt. The length bound is also the
/// allocation guard: the per-length table is sized by the largest `l`
/// restored, so a crafted length field must be rejected *before* it can
/// force a multi-gigabyte resize.
pub fn decode(
    payload: &[u8],
    expected_tau: usize,
    universe: usize,
    max_len: usize,
) -> Result<OwnedSegmentIndex, PersistError> {
    const CONTEXT: &str = "segment postings section";
    let corrupt = |_: &'static str| PersistError::Corrupt { context: CONTEXT };

    let mut cursor = Cursor::new(payload, CONTEXT);
    let scheme = scheme_from_code(cursor.u32()?).ok_or(PersistError::Corrupt {
        context: "unknown partition scheme",
    })?;
    let tau = cursor.u32()? as usize;
    if tau != expected_tau {
        return Err(PersistError::Corrupt {
            context: "segment postings disagree with the snapshot's tau_max",
        });
    }
    let n_postings = cursor.u64()?;

    let mut map = OwnedSegmentIndex::with_scheme(0, tau, scheme);
    reserve_from_counts(&mut map, payload, cursor.position(), n_postings, max_len);
    for _ in 0..n_postings {
        let l = cursor.u32()? as usize;
        if l > max_len {
            return Err(PersistError::Corrupt {
                context: "posting length exceeds the longest live string",
            });
        }
        let slot = cursor.u32()? as usize;
        let key_len = cursor.u32()? as usize;
        let n_ids = cursor.u32()? as usize;
        let key: Box<[u8]> = cursor.bytes(key_len)?.into();
        // Cap the pre-reservation: a CRC-valid but hostile `n_ids` must not
        // trigger a huge allocation before the cursor runs out of bytes.
        let mut ids = Vec::with_capacity(n_ids.min(1 << 16));
        for _ in 0..n_ids {
            let id: StringId = cursor.u32()?;
            if (id as usize) >= universe {
                return Err(PersistError::Corrupt {
                    context: "posting id outside the string table",
                });
            }
            ids.push(id);
        }
        map.restore_posting(l, slot, key, ids).map_err(corrupt)?;
    }
    cursor.finish()?;
    Ok(map)
}

/// Skims the posting stream once, counting distinct keys per `(l, slot)`,
/// and reserves the target maps accordingly — replaying tens of thousands
/// of postings into unreserved hash maps would otherwise pay log₂(n)
/// rehash-and-move rounds, a large slice of total load time. Purely an
/// optimization: any malformed frame aborts the skim and leaves validation
/// to the decode loop.
fn reserve_from_counts(
    map: &mut OwnedSegmentIndex,
    payload: &[u8],
    start: usize,
    n_postings: u64,
    max_len: usize,
) {
    // Reserving also sizes the per-length table, so skip lengths the
    // string table cannot contain — a hostile length field must not
    // trigger a multi-gigabyte table resize before the decode loop gets
    // to reject it.
    let mut counts: Vec<((u32, u32), usize)> = Vec::new();
    let mut cursor = Cursor::new(&payload[start..], "posting skim");
    for _ in 0..n_postings {
        let Ok(l) = cursor.u32() else { return };
        let Ok(slot) = cursor.u32() else { return };
        let Ok(key_len) = cursor.u32() else { return };
        let Ok(n_ids) = cursor.u32() else { return };
        if cursor.bytes(key_len as usize + n_ids as usize * 4).is_err() {
            return;
        }
        if l as usize > max_len {
            continue;
        }
        // Postings arrive grouped by (l, slot) (the visit order), so the
        // run-length accumulation stays tiny.
        match counts.last_mut() {
            Some((coords, n)) if *coords == (l, slot) => *n += 1,
            _ => counts.push(((l, slot), 1)),
        }
    }
    for ((l, slot), n) in counts {
        map.reserve_keys(l as usize, slot as usize, n);
    }
}

/// Encodes byte-keyed postings, visited in any order, in the **interned
/// layout** — the dictionary-plus-rank payload online snapshots carried in
/// their interned-key section:
///
/// ```text
/// scheme: u32   tau: u32
/// n_segments: u64
/// n_segments × { len: u32, bytes }     — the dictionary, byte-sorted
/// n_postings: u64
/// n_postings × {
///   l: u32  slot: u32  seg: u32 (dictionary rank)  n_ids: u32
///   ids (n_ids × u32, strictly ascending)
/// }
/// ```
///
/// Only keys some posting uses enter the dictionary, ranked by their
/// bytes, and postings follow in `(l, slot, rank)` order — so the payload
/// depends on the postings alone. Snapshot saves write [`encode_with`]'s
/// layout; [`decode_interned`] reads this one from older files, and this
/// encoder crafts the payloads that pin what it accepts and rejects.
pub fn encode_interned_with(
    scheme: PartitionScheme,
    tau: usize,
    visit: impl FnOnce(&mut dyn FnMut(usize, usize, &[u8], &[StringId])),
) -> Vec<u8> {
    let mut postings: Vec<(u32, u32, Vec<u8>, Vec<StringId>)> = Vec::new();
    let mut entries = 0usize;
    visit(&mut |l, slot, key, ids| {
        entries += ids.len();
        postings.push((l as u32, slot as u32, key.to_vec(), ids.to_vec()));
    });

    // Rank the referenced dictionary entries by their bytes.
    let mut used: Vec<&[u8]> = postings
        .iter()
        .map(|(_, _, key, _)| key.as_slice())
        .collect();
    used.sort_unstable();
    used.dedup();
    let rank_of = |key: &[u8]| used.binary_search(&key).expect("key was collected") as u32;

    let mut out = Vec::with_capacity(64 + entries * 8);
    out.extend_from_slice(&scheme_code(scheme).to_le_bytes());
    out.extend_from_slice(&(tau as u32).to_le_bytes());
    out.extend_from_slice(&(used.len() as u64).to_le_bytes());
    for bytes in &used {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    let mut ranked: Vec<(u32, u32, u32, &[StringId])> = postings
        .iter()
        .map(|(l, slot, key, ids)| (*l, *slot, rank_of(key), ids.as_slice()))
        .collect();
    ranked.sort_unstable_by_key(|&(l, slot, rank, _)| (l, slot, rank));
    out.extend_from_slice(&(ranked.len() as u64).to_le_bytes());
    for (l, slot, rank, ids) in &ranked {
        out.extend_from_slice(&l.to_le_bytes());
        out.extend_from_slice(&slot.to_le_bytes());
        out.extend_from_slice(&rank.to_le_bytes());
        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for &id in *ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    out
}

/// Decodes an interned-layout payload ([`encode_interned_with`]) straight
/// into an owned segment map: each posting's rank is resolved to its
/// dictionary bytes, which become the posting's owned key.
///
/// The same caller-supplied bounds as [`decode`] apply (`expected_tau`,
/// `universe`, `max_len`) — plus the checks only the interned layout can
/// make: the dictionary must be strictly byte-sorted (which also proves it
/// duplicate-free), every posting's rank must be a dictionary entry whose
/// byte length matches the partition geometry of its `(l, slot)`, and
/// every dictionary entry must be referenced by at least one posting (the
/// encoder never writes an unreferenced entry).
pub fn decode_interned(
    payload: &[u8],
    expected_tau: usize,
    universe: usize,
    max_len: usize,
) -> Result<OwnedSegmentIndex, PersistError> {
    const CONTEXT: &str = "interned segment section";
    let corrupt = |_: &'static str| PersistError::Corrupt { context: CONTEXT };

    let mut cursor = Cursor::new(payload, CONTEXT);
    let scheme = scheme_from_code(cursor.u32()?).ok_or(PersistError::Corrupt {
        context: "unknown partition scheme",
    })?;
    let tau = cursor.u32()? as usize;
    if tau != expected_tau {
        return Err(PersistError::Corrupt {
            context: "interned segment section disagrees with the snapshot's tau_max",
        });
    }
    let n_segments = cursor.u64()?;
    // Every entry takes at least its 4-byte length field, which bounds
    // the table allocation against a hostile count.
    let mut dictionary: Vec<&[u8]> =
        Vec::with_capacity((n_segments as usize).min(payload.len() / 4));
    for _ in 0..n_segments {
        let len = cursor.u32()? as usize;
        // A segment is a slice of a live string, so it can never be longer
        // than the longest one — and bounding it here keeps a hostile
        // length field from forcing a huge read-ahead allocation.
        if len > max_len {
            return Err(PersistError::Corrupt {
                context: "interned segment exceeds the longest live string",
            });
        }
        let bytes = cursor.bytes(len)?;
        if dictionary.last().is_some_and(|&prev| prev >= bytes) {
            return Err(PersistError::Corrupt {
                context: "interner table is not strictly byte-sorted",
            });
        }
        dictionary.push(bytes);
    }
    let mut referenced = vec![false; dictionary.len()];
    let mut map = OwnedSegmentIndex::with_scheme(0, tau, scheme);
    let n_postings = cursor.u64()?;
    for _ in 0..n_postings {
        let l = cursor.u32()? as usize;
        if l > max_len {
            return Err(PersistError::Corrupt {
                context: "posting length exceeds the longest live string",
            });
        }
        let slot = cursor.u32()? as usize;
        let rank = cursor.u32()? as usize;
        let Some(&key) = dictionary.get(rank) else {
            return Err(PersistError::Corrupt {
                context: "posting references an unknown interned segment",
            });
        };
        referenced[rank] = true;
        let n_ids = cursor.u32()? as usize;
        // Cap the pre-reservation: a CRC-valid but hostile `n_ids` must not
        // trigger a huge allocation before the cursor runs out of bytes.
        let mut ids = Vec::with_capacity(n_ids.min(1 << 16));
        for _ in 0..n_ids {
            let id: StringId = cursor.u32()?;
            if (id as usize) >= universe {
                return Err(PersistError::Corrupt {
                    context: "posting id outside the string table",
                });
            }
            ids.push(id);
        }
        map.restore_posting(l, slot, key.into(), ids)
            .map_err(corrupt)?;
    }
    cursor.finish()?;
    if referenced.contains(&false) {
        return Err(PersistError::Corrupt {
            context: "interner table entry unreferenced by any posting",
        });
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map() -> OwnedSegmentIndex {
        let mut map = OwnedSegmentIndex::new(0, 2);
        map.insert_owned(b"aaabbbccc", 0);
        map.insert_owned(b"aaabbbccc", 4);
        map.insert_owned(b"aaabbbccd", 2);
        map.insert_owned(b"wwwxxyyzzq", 9);
        map
    }

    #[test]
    fn round_trip_preserves_probes_and_accounting() {
        let original = sample_map();
        let encoded = encode(&original);
        let decoded = decode(&encoded, 2, 10, 10).unwrap();
        assert_eq!(decoded.entries(), original.entries());
        assert_eq!(decoded.live_bytes(), original.live_bytes());
        assert_eq!(decoded.tau(), original.tau());
        original.visit_postings(|l, slot, key, ids| {
            assert_eq!(decoded.probe(l, slot, key), Some(ids));
        });
        // And nothing extra appeared.
        let mut decoded_postings = 0;
        decoded.visit_postings(|_, _, _, _| decoded_postings += 1);
        let mut original_postings = 0;
        original.visit_postings(|_, _, _, _| original_postings += 1);
        assert_eq!(decoded_postings, original_postings);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode(&sample_map()), encode(&sample_map()));
    }

    #[test]
    fn empty_map_round_trips() {
        let empty = OwnedSegmentIndex::new(0, 3);
        let decoded = decode(&encode(&empty), 3, 0, 0).unwrap();
        assert_eq!(decoded.entries(), 0);
        assert_eq!(decoded.tau(), 3);
    }

    #[test]
    fn rejects_mismatched_tau_and_out_of_range_ids() {
        let encoded = encode(&sample_map());
        assert!(matches!(
            decode(&encoded, 3, 10, 10),
            Err(PersistError::Corrupt { .. })
        ));
        // Universe too small for id 9.
        assert!(matches!(
            decode(&encoded, 2, 5, 10),
            Err(PersistError::Corrupt { .. })
        ));
        // Length bound too small for the 10-byte string's postings.
        assert!(matches!(
            decode(&encoded, 2, 10, 9),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn rejects_truncated_and_padded_payloads() {
        let encoded = encode(&sample_map());
        for cut in 0..encoded.len() {
            assert!(decode(&encoded[..cut], 2, 10, 10).is_err(), "cut at {cut}");
        }
        let mut padded = encoded.clone();
        padded.push(0);
        assert!(decode(&padded, 2, 10, 10).is_err());
    }

    /// `map`'s postings in the interned layout.
    fn interned(map: &OwnedSegmentIndex) -> Vec<u8> {
        encode_interned_with(map.scheme(), map.tau(), |f| {
            map.visit_postings(|l, slot, key, ids| f(l, slot, key, ids))
        })
    }

    #[test]
    fn interned_round_trip_preserves_probes_and_dictionary() {
        let original = sample_map();
        let decoded = decode_interned(&interned(&original), 2, 10, 10).unwrap();
        assert_eq!(decoded.entries(), original.entries());
        assert_eq!(decoded.live_bytes(), original.live_bytes());
        assert_eq!(decoded.tau(), original.tau());
        original.visit_postings(|l, slot, key, ids| {
            assert_eq!(decoded.probe(l, slot, key), Some(ids));
        });
        // Every rank resolved back to its own dictionary bytes: both
        // layouts re-encode from the decoded map unchanged.
        assert_eq!(encode(&decoded), encode(&original));
        assert_eq!(interned(&decoded), interned(&original));
    }

    #[test]
    fn interned_encoding_is_content_deterministic() {
        assert_eq!(interned(&sample_map()), interned(&sample_map()));

        // Different insertion histories with the same final content
        // serialize identically: the dictionary is ranked by bytes and
        // holds only keys some posting uses.
        let mut churned = OwnedSegmentIndex::new(0, 2);
        churned.insert_owned(b"zzzyyyxxx", 7);
        churned.insert_owned(b"wwwxxyyzzq", 9);
        churned.insert_owned(b"aaabbbccd", 2);
        churned.insert_owned(b"aaabbbccc", 4);
        churned.insert_owned(b"aaabbbccc", 0);
        assert!(churned.remove_owned(b"zzzyyyxxx", 7));
        assert_eq!(interned(&churned), interned(&sample_map()));

        // So does any posting visit order.
        let mut postings = Vec::new();
        sample_map().visit_postings(|l, slot, key, ids| {
            postings.push((l, slot, key.to_vec(), ids.to_vec()));
        });
        postings.reverse();
        let reversed = encode_interned_with(PartitionScheme::Even, 2, |f| {
            for (l, slot, key, ids) in &postings {
                f(*l, *slot, key, ids);
            }
        });
        assert_eq!(reversed, interned(&sample_map()));
    }

    #[test]
    fn interned_empty_round_trips() {
        let empty = OwnedSegmentIndex::new(0, 3);
        let decoded = decode_interned(&interned(&empty), 3, 0, 0).unwrap();
        assert_eq!(decoded.entries(), 0);
        assert_eq!(decoded.tau(), 3);
    }

    #[test]
    fn interned_rejects_mismatches_and_corruption() {
        let encoded = interned(&sample_map());
        // Wrong tau, small universe, small length bound.
        assert!(decode_interned(&encoded, 3, 10, 10).is_err());
        assert!(decode_interned(&encoded, 2, 5, 10).is_err());
        assert!(decode_interned(&encoded, 2, 10, 9).is_err());
        // Every truncation and a padded tail.
        for cut in 0..encoded.len() {
            assert!(
                decode_interned(&encoded[..cut], 2, 10, 10).is_err(),
                "cut at {cut}"
            );
        }
        let mut padded = encoded.clone();
        padded.push(0);
        assert!(decode_interned(&padded, 2, 10, 10).is_err());
    }

    #[test]
    fn interned_rejects_structural_lies() {
        // Hand-assemble payloads the encoder would never produce. Header:
        // even scheme, τ=1.
        let header = |n_segments: u64| {
            let mut p = Vec::new();
            p.extend_from_slice(&0u32.to_le_bytes());
            p.extend_from_slice(&1u32.to_le_bytes());
            p.extend_from_slice(&n_segments.to_le_bytes());
            p
        };
        let seg_entry = |p: &mut Vec<u8>, bytes: &[u8]| {
            p.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            p.extend_from_slice(bytes);
        };
        let posting = |p: &mut Vec<u8>, l: u32, slot: u32, seg: u32, ids: &[u32]| {
            p.extend_from_slice(&l.to_le_bytes());
            p.extend_from_slice(&slot.to_le_bytes());
            p.extend_from_slice(&seg.to_le_bytes());
            p.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for &id in ids {
                p.extend_from_slice(&id.to_le_bytes());
            }
        };

        // Unsorted (and duplicate) dictionary entries.
        let mut unsorted = header(2);
        seg_entry(&mut unsorted, b"bb");
        seg_entry(&mut unsorted, b"aa");
        unsorted.extend_from_slice(&0u64.to_le_bytes());
        assert!(decode_interned(&unsorted, 1, 4, 4).is_err());
        let mut duplicate = header(2);
        seg_entry(&mut duplicate, b"aa");
        seg_entry(&mut duplicate, b"aa");
        duplicate.extend_from_slice(&0u64.to_le_bytes());
        assert!(decode_interned(&duplicate, 1, 4, 4).is_err());

        // A posting referencing a rank outside the dictionary.
        let mut out_of_range = header(1);
        seg_entry(&mut out_of_range, b"ab");
        out_of_range.extend_from_slice(&1u64.to_le_bytes());
        posting(&mut out_of_range, 4, 1, 1, &[0]);
        assert!(decode_interned(&out_of_range, 1, 4, 4).is_err());

        // A dictionary entry whose byte length lies about the geometry:
        // length-4 slot 1 under τ=1 is a 2-byte segment, not 3.
        let mut bad_geometry = header(1);
        seg_entry(&mut bad_geometry, b"abc");
        bad_geometry.extend_from_slice(&1u64.to_le_bytes());
        posting(&mut bad_geometry, 4, 1, 0, &[0]);
        assert!(decode_interned(&bad_geometry, 1, 4, 4).is_err());

        // An entry no posting references (the encoder compacts these).
        let mut unreferenced = header(2);
        seg_entry(&mut unreferenced, b"ab");
        seg_entry(&mut unreferenced, b"cd");
        unreferenced.extend_from_slice(&1u64.to_le_bytes());
        posting(&mut unreferenced, 4, 1, 0, &[0]);
        posting(&mut unreferenced, 4, 2, 0, &[0]);
        assert!(matches!(
            decode_interned(&unreferenced, 1, 4, 4),
            Err(PersistError::Corrupt { .. })
        ));

        // And the well-formed sibling of the above loads.
        let mut ok = header(2);
        seg_entry(&mut ok, b"ab");
        seg_entry(&mut ok, b"cd");
        ok.extend_from_slice(&2u64.to_le_bytes());
        posting(&mut ok, 4, 1, 0, &[0]);
        posting(&mut ok, 4, 2, 1, &[0]);
        let decoded = decode_interned(&ok, 1, 4, 4).unwrap();
        assert_eq!(decoded.probe(4, 1, b"ab"), Some(&[0u32][..]));
        assert_eq!(decoded.probe(4, 2, b"cd"), Some(&[0u32][..]));
    }
}
