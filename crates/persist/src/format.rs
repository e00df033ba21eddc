//! The snapshot container: header + section table + packed payloads.
//!
//! ```text
//! offset    size  field
//! 0         8     magic  = "PASSJSNP"
//! 8         4     format version (u32 LE)
//! 12        4     section count n (u32 LE)
//! 16        24·n  section table: { id: u32, offset: u64, len: u64, crc32: u32 }
//! 16+24n    4     header CRC32 (over bytes 0 .. 16+24n)
//! 16+24n+4  …     section payloads, densely packed in table order
//! ```
//!
//! All integers are little-endian. Sections are packed with **no padding**
//! and must tile the rest of the file exactly: the header CRC covers the
//! magic, version, count, and table, and each payload carries its own
//! CRC32, so every byte of a well-formed file is checksummed and any
//! single-byte corruption is detectable. Alignment is not required because
//! readers decode integers with `from_le_bytes` on copied arrays — the
//! "contiguous aligned buffer" the loader hands out is byte-addressed.
//!
//! Section ids are assigned by the format's consumer (the online
//! snapshot's ids live in `passjoin-online::persist`); the framing only
//! requires them to be unique within one file.

use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sj_common::SharedBytes;

use crate::crc::crc32;
use crate::error::PersistError;

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"PASSJSNP";

/// The format revision this build writes. Any change to the layout of the
/// container *or* of any section payload bumps this number.
///
/// Version history:
///
/// * **1** — initial container; online snapshots carry byte-keyed segment
///   postings (section 4).
/// * **2** — online snapshots record their key backend in META and may
///   carry an interned-segment section (dictionary + id-keyed postings,
///   section 5) instead of section 4. Current builds read section 5 but
///   always write section 4.
/// * **3** — online snapshots additionally carry a direct-probe postings
///   appendix (sorted run directory + run table + key blob + id blob,
///   sections 6–9) laid out for in-buffer binary search, so a load can
///   skip the hash-map rebuild entirely; delta-checkpoint files (sections
///   20–21) share the container.
pub const FORMAT_VERSION: u32 = 3;

/// The oldest format revision this build still reads. Loaders accept
/// `MIN_SUPPORTED_VERSION..=FORMAT_VERSION` and dispatch on
/// [`SnapshotFile::version`]; v1 files (owned keys, 6-field META) remain
/// loadable forever-until-announced.
pub const MIN_SUPPORTED_VERSION: u32 = 1;

/// Fixed header length (magic + version + section count).
const HEADER_LEN: usize = 16;

/// Bytes per section-table entry (id + offset + len + crc).
const TABLE_ENTRY_LEN: usize = 24;

/// Hard cap on the section count, bounding allocation on corrupt headers.
const MAX_SECTIONS: u32 = 1024;

/// Absolute file offset of the first payload byte in a container with
/// `n_sections` sections (header + table + header CRC). Writers that must
/// place in-file-aligned data — the direct-probe id blob — use this to
/// compute a payload's absolute position before rendering it.
pub const fn payload_base(n_sections: usize) -> usize {
    HEADER_LEN + TABLE_ENTRY_LEN * n_sections + 4
}

/// Builds a snapshot file from named sections.
///
/// Sections are written in the order they are added; the writer computes
/// offsets and CRCs and emits the complete container with
/// [`SnapshotWriter::save`] (or [`SnapshotWriter::write_to`] for an
/// arbitrary sink). Output is deterministic: the same sections in the same
/// order produce byte-identical files.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section. Ids must be unique within the file.
    ///
    /// # Panics
    ///
    /// Panics if `id` was already added — duplicate section ids are a
    /// writer-side programming error, not a runtime condition.
    pub fn section(&mut self, id: u32, payload: Vec<u8>) -> &mut Self {
        assert!(
            self.sections.iter().all(|&(existing, _)| existing != id),
            "duplicate section id {id}"
        );
        assert!(
            self.sections.len() < MAX_SECTIONS as usize,
            "too many sections"
        );
        self.sections.push((id, payload));
        self
    }

    /// Serializes the container into `out`; returns the total byte length.
    pub fn write_to<W: std::io::Write>(&self, out: &mut W) -> Result<u64, PersistError> {
        let header = self.render_header();
        out.write_all(&header)?;
        let mut total = header.len() as u64;
        for (_, payload) in &self.sections {
            out.write_all(payload)?;
            total += payload.len() as u64;
        }
        out.flush()?;
        Ok(total)
    }

    /// Writes the container to `path` crash-atomically; returns the
    /// file's byte length.
    ///
    /// The bytes go to a sibling temp file first, are synced to stable
    /// storage, and are then renamed over `path` — a crash mid-save
    /// leaves any previous snapshot at `path` untouched (torn writes are
    /// this format's stated corruption model; the save path must not be
    /// the thing that tears).
    pub fn save(&self, path: &Path) -> Result<u64, PersistError> {
        // Unique per process × call: two concurrent saves to the same
        // destination must not share a temp file, or the loser's writes
        // land inside the winner's just-published snapshot.
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".{}.{seq}.tmp", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let result = (|| {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            let total = self.write_to(&mut file)?;
            let file = file.into_inner().map_err(|e| e.into_error())?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)?;
            Ok(total)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    fn render_header(&self) -> Vec<u8> {
        let table_len = self.sections.len() * TABLE_ENTRY_LEN;
        let mut header = Vec::with_capacity(HEADER_LEN + table_len + 4);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = (HEADER_LEN + table_len + 4) as u64;
        for (id, payload) in &self.sections {
            header.extend_from_slice(&id.to_le_bytes());
            header.extend_from_slice(&offset.to_le_bytes());
            header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            header.extend_from_slice(&crc32(payload).to_le_bytes());
            offset += payload.len() as u64;
        }
        let header_crc = crc32(&header);
        header.extend_from_slice(&header_crc.to_le_bytes());
        header
    }
}

/// A validated, loaded snapshot file: one contiguous buffer plus the
/// parsed section table.
///
/// Opening re-checks everything — magic, version, table bounds, dense
/// section tiling, and every section's CRC32 — so a `SnapshotFile` in hand
/// is a proof the container is well-formed. Payload views borrow from one
/// shared buffer; [`SnapshotFile::section_range`] +
/// [`SnapshotFile::buffer`] let a consumer keep zero-copy references into
/// it after the `SnapshotFile` itself is gone.
///
/// [`SnapshotFile::parse_lazy`] defers the per-section payload CRCs: the
/// header, table, and dense tiling are still validated eagerly (so the
/// section *geometry* is trustworthy), but payload bytes are only
/// checksummed when first touched through [`SnapshotFile::section`], or
/// explicitly via [`SnapshotFile::verify_section`] /
/// [`SnapshotFile::verify_all`]. This is what makes a memory-mapped open
/// O(1) in file size: nothing faults in the bulk sections until they are
/// used. [`SnapshotFile::section_range`] never checksums — consumers on
/// the lazy path pair it with a background [`SnapshotFile::verify_all`].
#[derive(Debug, Clone)]
pub struct SnapshotFile {
    buf: SharedBytes,
    version: u32,
    sections: Vec<(u32, Range<usize>, u32)>,
    /// Per-section "payload CRC has been checked" memo, shared across
    /// clones (the buffer is immutable, so one check settles it for all).
    verified: Arc<[AtomicBool]>,
}

impl SnapshotFile {
    /// Reads `path` fully into memory and validates the container.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        let bytes = std::fs::read(path)?;
        Self::parse(bytes.into())
    }

    /// Validates an in-memory container, checksumming every section.
    pub fn parse(buf: SharedBytes) -> Result<Self, PersistError> {
        Self::parse_inner(buf, true)
    }

    /// Validates the container's framing (magic, version, header CRC,
    /// dense tiling) but defers section payload CRCs to first access —
    /// see the type-level docs for the contract.
    pub fn parse_lazy(buf: SharedBytes) -> Result<Self, PersistError> {
        Self::parse_inner(buf, false)
    }

    fn parse_inner(buf: SharedBytes, eager: bool) -> Result<Self, PersistError> {
        if buf.len() < HEADER_LEN {
            return Err(PersistError::Truncated { context: "header" });
        }
        if buf[..8] != MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&buf[..8]);
            return Err(PersistError::BadMagic { found });
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if !(MIN_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(PersistError::UnsupportedVersion { found: version });
        }
        let count = u32::from_le_bytes(buf[12..16].try_into().unwrap());
        if count > MAX_SECTIONS {
            return Err(PersistError::Corrupt {
                context: "section count exceeds the format maximum",
            });
        }
        let table_end = HEADER_LEN + count as usize * TABLE_ENTRY_LEN;
        if buf.len() < table_end + 4 {
            return Err(PersistError::Truncated {
                context: "section table",
            });
        }
        // The header CRC covers magic, version, count, and the whole table
        // — so flipped table bytes (including section ids) are caught even
        // when they would otherwise parse cleanly.
        let stored_header_crc =
            u32::from_le_bytes(buf[table_end..table_end + 4].try_into().unwrap());
        if crc32(&buf[..table_end]) != stored_header_crc {
            return Err(PersistError::Corrupt {
                context: "header checksum mismatch",
            });
        }

        let mut sections = Vec::with_capacity(count as usize);
        // Sections must tile the file densely: each payload starts where
        // the previous one ended, and the last ends at EOF. This makes
        // every byte of the file checksummed (see the module docs).
        let mut expected_offset = (table_end + 4) as u64;
        for entry in 0..count as usize {
            let at = HEADER_LEN + entry * TABLE_ENTRY_LEN;
            let id = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
            let offset = u64::from_le_bytes(buf[at + 4..at + 12].try_into().unwrap());
            let len = u64::from_le_bytes(buf[at + 12..at + 20].try_into().unwrap());
            let crc = u32::from_le_bytes(buf[at + 20..at + 24].try_into().unwrap());
            if sections.iter().any(|&(existing, _, _)| existing == id) {
                return Err(PersistError::Corrupt {
                    context: "duplicate section id",
                });
            }
            if offset != expected_offset {
                return Err(PersistError::Corrupt {
                    context: "sections are not densely packed",
                });
            }
            let end = offset.checked_add(len).ok_or(PersistError::Corrupt {
                context: "section extent overflows",
            })?;
            if end > buf.len() as u64 {
                return Err(PersistError::Truncated {
                    context: "section payload",
                });
            }
            let range = offset as usize..end as usize;
            if eager && crc32(&buf[range.clone()]) != crc {
                return Err(PersistError::ChecksumMismatch { section: id });
            }
            sections.push((id, range, crc));
            expected_offset = end;
        }
        if expected_offset != buf.len() as u64 {
            return Err(PersistError::Corrupt {
                context: "trailing bytes after the last section",
            });
        }
        let verified: Arc<[AtomicBool]> = sections.iter().map(|_| AtomicBool::new(eager)).collect();
        Ok(Self {
            buf,
            version,
            sections,
            verified,
        })
    }

    /// The format revision the file was written with (within
    /// [`MIN_SUPPORTED_VERSION`]`..=`[`FORMAT_VERSION`]); consumers
    /// dispatch their section layouts on this.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The payload of section `id`, checksummed on first access if the
    /// file was opened with [`SnapshotFile::parse_lazy`].
    pub fn section(&self, id: u32) -> Result<&[u8], PersistError> {
        let at = self.section_index(id)?;
        self.check_crc(at)?;
        Ok(&self.buf[self.sections[at].1.clone()])
    }

    /// The byte range of section `id` within [`SnapshotFile::buffer`] —
    /// the zero-copy handle: clone the buffer handle and index with this
    /// range to keep the payload alive without copying it. Never
    /// checksums the payload on the lazy path (see the type-level docs).
    pub fn section_range(&self, id: u32) -> Result<Range<usize>, PersistError> {
        Ok(self.sections[self.section_index(id)?].1.clone())
    }

    /// Checksums section `id`'s payload now (memoized). A no-op for
    /// eagerly-parsed files and already-verified sections.
    pub fn verify_section(&self, id: u32) -> Result<(), PersistError> {
        self.check_crc(self.section_index(id)?)
    }

    /// Checksums every not-yet-verified section payload; the background
    /// integrity pass behind lazy opens.
    pub fn verify_all(&self) -> Result<(), PersistError> {
        for at in 0..self.sections.len() {
            self.check_crc(at)?;
        }
        Ok(())
    }

    /// The ids of every section present, in file order.
    pub fn section_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.sections.iter().map(|&(id, _, _)| id)
    }

    fn section_index(&self, id: u32) -> Result<usize, PersistError> {
        self.sections
            .iter()
            .position(|&(existing, _, _)| existing == id)
            .ok_or(PersistError::MissingSection { section: id })
    }

    fn check_crc(&self, at: usize) -> Result<(), PersistError> {
        // Relaxed is enough: the memo only skips a redundant pure
        // computation, it guards no other data.
        if !self.verified[at].load(Ordering::Relaxed) {
            let (id, ref range, crc) = self.sections[at];
            if crc32(&self.buf[range.clone()]) != crc {
                return Err(PersistError::ChecksumMismatch { section: id });
            }
            self.verified[at].store(true, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The whole file as one contiguous shared buffer.
    pub fn buffer(&self) -> &SharedBytes {
        &self.buf
    }
}

/// A bounds-checked little-endian reader over one section payload.
///
/// Every read reports [`PersistError::Corrupt`] (with the cursor's
/// context) instead of panicking when the payload is shorter than its
/// structure promises — a CRC-valid section can still lie about its
/// internal counts, and the decoder must reject that gracefully.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Cursor<'a> {
    /// A cursor over `buf`; `context` names the section in error messages.
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            context,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(PersistError::Corrupt {
                context: self.context,
            }),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting values that do
    /// not fit the platform.
    pub fn len64(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.u64()?).map_err(|_| PersistError::Corrupt {
            context: self.context,
        })
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        self.take(n)
    }

    /// Current offset within the payload.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(PersistError::Corrupt {
                context: self.context,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section(1, b"first section".to_vec());
        w.section(7, vec![]);
        w.section(2, (0u8..200).collect());
        let mut out = Vec::new();
        let n = w.write_to(&mut out).unwrap();
        assert_eq!(n as usize, out.len());
        out
    }

    #[test]
    fn round_trip_sections() {
        let bytes = sample();
        let file = SnapshotFile::parse(bytes.into()).unwrap();
        assert_eq!(file.section(1).unwrap(), b"first section");
        assert_eq!(file.section(7).unwrap(), b"");
        assert_eq!(file.section(2).unwrap().len(), 200);
        assert!(matches!(
            file.section(9),
            Err(PersistError::MissingSection { section: 9 })
        ));
    }

    #[test]
    fn writer_is_deterministic() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn accepts_the_previous_format_version() {
        // Rewrite the sample's version field to 1 and repair the header
        // CRC: the parser must accept it and report the version it found.
        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let payload_len = b"first section".len() + 200;
        let table_end = bytes.len() - payload_len - 4;
        let crc = crc32(&bytes[..table_end]);
        bytes[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
        let file = SnapshotFile::parse(bytes.into()).unwrap();
        assert_eq!(file.version(), 1);
        assert_eq!(file.section(1).unwrap(), b"first section");
    }

    #[test]
    fn reports_the_written_version() {
        let file = SnapshotFile::parse(sample().into()).unwrap();
        assert_eq!(file.version(), FORMAT_VERSION);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = sample();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SnapshotFile::parse(bytes.into()),
            Err(PersistError::BadMagic { .. })
        ));

        let mut bytes = sample();
        bytes[8] = 99; // version field
        assert!(matches!(
            SnapshotFile::parse(bytes.into()),
            Err(PersistError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let truncated = SharedBytes::from(bytes[..cut].to_vec());
            assert!(
                SnapshotFile::parse(truncated).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn lazy_parse_defers_payload_checks_to_access() {
        // Corrupt a payload byte, then repair nothing: eager parse must
        // reject, lazy parse must accept — until the section is touched.
        let mut bytes = sample();
        let at = bytes.len() - 1; // inside section 2's payload
        bytes[at] ^= 0x40;
        assert!(matches!(
            SnapshotFile::parse(SharedBytes::from(bytes.clone())),
            Err(PersistError::ChecksumMismatch { section: 2 })
        ));
        let file = SnapshotFile::parse_lazy(SharedBytes::from(bytes)).unwrap();
        assert_eq!(file.section(1).unwrap(), b"first section");
        assert!(file.section_range(2).is_ok(), "geometry is still served");
        assert!(matches!(
            file.section(2),
            Err(PersistError::ChecksumMismatch { section: 2 })
        ));
        assert!(matches!(
            file.verify_all(),
            Err(PersistError::ChecksumMismatch { section: 2 })
        ));
    }

    #[test]
    fn lazy_verification_is_memoized_and_shared() {
        let file = SnapshotFile::parse_lazy(SharedBytes::from(sample())).unwrap();
        let clone = file.clone();
        file.verify_all().unwrap();
        // The clone shares the memo; spot-check via the public surface.
        clone.verify_section(2).unwrap();
        assert_eq!(clone.section_ids().collect::<Vec<_>>(), vec![1, 7, 2]);
    }

    #[test]
    fn rejects_every_single_byte_flip() {
        let bytes = sample();
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x40;
            assert!(
                SnapshotFile::parse(flipped.into()).is_err(),
                "flip at byte {at} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample();
        bytes.push(0);
        assert!(matches!(
            SnapshotFile::parse(bytes.into()),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn cursor_reads_and_rejects_overrun() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        payload.extend_from_slice(&42u64.to_le_bytes());
        payload.extend_from_slice(b"xyz");
        let mut c = Cursor::new(&payload, "test");
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), 42);
        assert_eq!(c.bytes(3).unwrap(), b"xyz");
        assert!(c.u32().is_err(), "reading past the end is an error");

        let mut c = Cursor::new(&payload, "test");
        c.u32().unwrap();
        assert!(c.finish().is_err(), "unconsumed payload is an error");
    }
}
