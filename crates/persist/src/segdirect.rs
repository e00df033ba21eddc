//! Codec for the direct-probe postings appendix (snapshot format v3).
//!
//! Four sections encode the segment postings as sorted arrays that
//! [`DirectSegmentIndex`] binary-searches **in place** — loading them is
//! O(1) in index size because nothing is decoded into owned structures:
//!
//! ```text
//! SEC_DIRECT_DIR (6)  — the directory:
//!   scheme: u32   tau: u32   max_len: u32   n_lengths: u32
//!   n_runs: u64   n_entries: u64
//!   n_lengths × { l: u32, run_start: u64, run_count: u64 }   (l ascending)
//!
//! SEC_DIRECT_RUNS (7) — the run table, 28 bytes per run, ordered by
//!   (l asc, slot asc, key bytes asc):
//!   { slot: u32, key_len: u32, key_off: u64, ids_off: u64, n_ids: u32 }
//!   key_off indexes SEC_DIRECT_KEYS; ids_off is an *element* index into
//!   the id array. Keys and ids each tile their blob exactly in run order.
//!
//! SEC_DIRECT_KEYS (8) — concatenated key bytes.
//!
//! SEC_DIRECT_IDS (9)  — pad_len: u32, pad_len zero bytes, then the
//!   posting ids as little-endian u32. The pad is chosen at write time so
//!   the id array lands 8-byte-aligned at its absolute file offset: a
//!   page-aligned mmap of the file then serves `&[StringId]` views with
//!   no copy at all.
//! ```
//!
//! The run order `(l, slot, key)` is exactly the deterministic order
//! [`SegmentMap::visit_postings`] produces, so the appendix — like every
//! other section — is byte-identical across saves of the same content.
//!
//! [`SegmentMap::visit_postings`]: passjoin::SegmentMap::visit_postings

use passjoin::direct::{DirectSegmentIndex, LengthRuns, RUN_ENTRY_LEN};
use passjoin::{PartitionScheme, SegmentKey, SegmentMap};
use sj_common::StringId;

use crate::error::PersistError;
use crate::format::{Cursor, SnapshotFile};
use crate::segmap::{scheme_code, scheme_from_code};

/// Section id: the direct-probe directory.
pub const SEC_DIRECT_DIR: u32 = 6;
/// Section id: the direct-probe run table.
pub const SEC_DIRECT_RUNS: u32 = 7;
/// Section id: the direct-probe key blob.
pub const SEC_DIRECT_KEYS: u32 = 8;
/// Section id: the direct-probe id blob.
pub const SEC_DIRECT_IDS: u32 = 9;

/// Alignment the id array is padded to at its absolute file offset.
const IDS_ALIGN: u64 = 8;

/// The encoded direct-probe appendix, one buffer per section. The id
/// section still needs its alignment pad — finalize with
/// [`DirectSections::ids_section`] once the writer knows the section's
/// absolute payload offset.
#[derive(Debug)]
pub struct DirectSections {
    /// `SEC_DIRECT_DIR` payload.
    pub dir: Vec<u8>,
    /// `SEC_DIRECT_RUNS` payload.
    pub runs: Vec<u8>,
    /// `SEC_DIRECT_KEYS` payload.
    pub keys: Vec<u8>,
    /// Raw little-endian id array, pad not yet applied.
    ids_body: Vec<u8>,
}

impl DirectSections {
    /// Renders the `SEC_DIRECT_IDS` payload for an id array that will
    /// start at absolute file offset `abs_offset + 4 + pad`: prepends the
    /// pad length and zero bytes so the array is 8-byte-aligned in-file.
    pub fn ids_section(&self, abs_offset: u64) -> Vec<u8> {
        let body_at = abs_offset + 4;
        let pad = (IDS_ALIGN - body_at % IDS_ALIGN) % IDS_ALIGN;
        let mut out = Vec::with_capacity(4 + pad as usize + self.ids_body.len());
        out.extend_from_slice(&(pad as u32).to_le_bytes());
        out.resize(out.len() + pad as usize, 0);
        out.extend_from_slice(&self.ids_body);
        out
    }

    /// Renders all four `(section id, payload)` pairs in file order, given
    /// the absolute offset the id-section payload will start at (the three
    /// preceding payloads' lengths are `dir`/`runs`/`keys` — public fields,
    /// so the caller can sum them into its section layout).
    pub fn finish(self, ids_abs_offset: u64) -> [(u32, Vec<u8>); 4] {
        let ids = self.ids_section(ids_abs_offset);
        [
            (SEC_DIRECT_DIR, self.dir),
            (SEC_DIRECT_RUNS, self.runs),
            (SEC_DIRECT_KEYS, self.keys),
            (SEC_DIRECT_IDS, ids),
        ]
    }
}

/// Encodes the direct-probe appendix from any posting visitor. Postings
/// may arrive in any order; they are sorted into `(l, slot, key)` order
/// here, so the output depends on the index's logical content alone.
pub fn encode_direct(
    scheme: PartitionScheme,
    tau: usize,
    visit: impl FnOnce(&mut dyn FnMut(usize, usize, &[u8], &[StringId])),
) -> DirectSections {
    let mut postings: Vec<(u32, u32, Vec<u8>, Vec<StringId>)> = Vec::new();
    visit(&mut |l, slot, key, ids| {
        postings.push((l as u32, slot as u32, key.to_vec(), ids.to_vec()));
    });
    postings.sort_unstable_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));

    let mut dir_entries: Vec<LengthRuns> = Vec::new();
    let mut runs = Vec::with_capacity(postings.len() * RUN_ENTRY_LEN);
    let mut keys = Vec::new();
    let mut ids_body = Vec::new();
    let mut n_entries = 0u64;
    let mut max_len = 0u32;
    for (run_at, (l, slot, key, ids)) in postings.iter().enumerate() {
        match dir_entries.last_mut() {
            Some(entry) if entry.l == *l => entry.run_count += 1,
            _ => dir_entries.push(LengthRuns {
                l: *l,
                run_start: run_at as u64,
                run_count: 1,
            }),
        }
        max_len = max_len.max(*l);
        runs.extend_from_slice(&slot.to_le_bytes());
        runs.extend_from_slice(&(key.len() as u32).to_le_bytes());
        runs.extend_from_slice(&(keys.len() as u64).to_le_bytes());
        runs.extend_from_slice(&((ids_body.len() / 4) as u64).to_le_bytes());
        runs.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        keys.extend_from_slice(key);
        for &id in ids {
            ids_body.extend_from_slice(&id.to_le_bytes());
        }
        n_entries += ids.len() as u64;
    }

    let mut dir = Vec::with_capacity(32 + dir_entries.len() * 20);
    dir.extend_from_slice(&scheme_code(scheme).to_le_bytes());
    dir.extend_from_slice(&(tau as u32).to_le_bytes());
    dir.extend_from_slice(&max_len.to_le_bytes());
    dir.extend_from_slice(&(dir_entries.len() as u32).to_le_bytes());
    dir.extend_from_slice(&(postings.len() as u64).to_le_bytes());
    dir.extend_from_slice(&n_entries.to_le_bytes());
    for entry in &dir_entries {
        dir.extend_from_slice(&entry.l.to_le_bytes());
        dir.extend_from_slice(&entry.run_start.to_le_bytes());
        dir.extend_from_slice(&entry.run_count.to_le_bytes());
    }
    DirectSections {
        dir,
        runs,
        keys,
        ids_body,
    }
}

/// Encodes the appendix from a byte-keyed segment map.
pub fn encode_direct_owned<K: SegmentKey + std::borrow::Borrow<[u8]> + Ord>(
    map: &SegmentMap<K>,
) -> DirectSections {
    encode_direct(map.scheme(), map.tau(), |f| {
        map.visit_postings(|l, slot, key, ids| f(l, slot, key, ids))
    })
}

/// Decodes the direct-probe appendix of `file` into a
/// [`DirectSegmentIndex`] probing the file's own buffer.
///
/// The directory section is parsed and cross-checked (scheme, τ,
/// run-table geometry, blob sizes — all O(#lengths)); the run table, key
/// blob, and id blob are *not* walked. Probes stay bounds-checked;
/// [`DirectSegmentIndex::validate_deep`] is the full structural scan,
/// which the snapshot's validation routine runs.
pub fn decode_direct(
    file: &SnapshotFile,
    expected_tau: usize,
) -> Result<DirectSegmentIndex, PersistError> {
    const CONTEXT: &str = "direct postings directory";
    let corrupt = |context: &'static str| PersistError::Corrupt { context };

    let dir = file.section(SEC_DIRECT_DIR)?;
    let mut cursor = Cursor::new(dir, CONTEXT);
    let scheme = scheme_from_code(cursor.u32()?).ok_or(corrupt("unknown partition scheme"))?;
    let tau = cursor.u32()? as usize;
    if tau != expected_tau {
        return Err(corrupt(
            "direct postings disagree with the snapshot's tau_max",
        ));
    }
    let max_len = cursor.u32()? as usize;
    let n_lengths = cursor.u32()? as usize;
    let n_runs = cursor.u64()?;
    let n_entries = cursor.u64()?;
    // The remaining payload is exactly the directory entries; sizing the
    // allocation from the payload length bounds it against hostile counts.
    let mut lengths = Vec::with_capacity(n_lengths.min(dir.len() / 20 + 1));
    for _ in 0..n_lengths {
        lengths.push(LengthRuns {
            l: cursor.u32()?,
            run_start: cursor.u64()?,
            run_count: cursor.u64()?,
        });
    }
    cursor.finish()?;

    let runs = file.section_range(SEC_DIRECT_RUNS)?;
    if runs.len() as u64 != n_runs.saturating_mul(RUN_ENTRY_LEN as u64) {
        return Err(corrupt("direct run table length disagrees with directory"));
    }
    let keys = file.section_range(SEC_DIRECT_KEYS)?;

    // The id section: pad header, zero pad, then the element array.
    let ids_range = file.section_range(SEC_DIRECT_IDS)?;
    let ids_payload = &file.buffer()[ids_range.clone()];
    let mut ids_cursor = Cursor::new(ids_payload, "direct id blob");
    let pad = ids_cursor.u32()? as usize;
    if pad as u64 >= IDS_ALIGN {
        return Err(corrupt("direct id blob pad exceeds the alignment"));
    }
    if ids_cursor.bytes(pad)?.iter().any(|&b| b != 0) {
        return Err(corrupt("direct id blob pad is not zeroed"));
    }
    let ids = ids_range.start + ids_cursor.position()..ids_range.end;
    if ids.len() as u64 != n_entries.saturating_mul(4) {
        return Err(corrupt("direct id blob length disagrees with directory"));
    }

    DirectSegmentIndex::from_raw_parts(
        file.buffer().clone(),
        scheme,
        tau,
        max_len,
        n_entries,
        lengths,
        runs,
        keys,
        ids,
    )
    .map_err(corrupt)
}

/// True when `file` carries the direct-probe appendix (v3 snapshots
/// written by this build always do; v1/v2 files never do).
pub fn has_direct_sections(file: &SnapshotFile) -> bool {
    file.section_ids().any(|id| id == SEC_DIRECT_DIR)
}
