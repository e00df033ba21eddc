//! Helpers shared by the integration suites.

use std::sync::atomic::{AtomicU64, Ordering};

use passjoin_online::{KeyBackend, OnlineIndex};
use passjoin_persist::{crc32, SnapshotFile, SnapshotWriter};

/// The same index on the other segment store: saved, then reopened with
/// [`OnlineIndex::load`], so its segment lane probes the snapshot's sorted
/// runs instead of the owned map. Ids, tombstones and the epoch carry
/// over; cache capacity and observability are the loader's defaults. The
/// reopened index holds the file in memory, so the file is removed at
/// once.
#[allow(dead_code)]
pub fn reopen_direct(index: &OnlineIndex) -> OnlineIndex {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "passjoin-reopen-{}-{}.snap",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    index.save(&path).expect("save for a direct reopen");
    let reopened = OnlineIndex::load(&path);
    let _ = std::fs::remove_file(&path);
    let reopened = reopened.expect("direct reopen");
    assert_eq!(reopened.key_backend(), KeyBackend::Direct);
    reopened
}

/// A v3 snapshot's bytes in the v2 layout: the direct-probe appendix
/// (sections 6–9) dropped and the version stamped 2, so a load decodes
/// section 4 or 5 into the owned map instead of probing the appendix.
#[allow(dead_code)]
pub fn strip_appendix(bytes: &[u8]) -> Vec<u8> {
    let file = SnapshotFile::parse(bytes.to_vec().into()).expect("a valid snapshot");
    let kept: Vec<u32> = file.section_ids().filter(|&id| id < 6).collect();
    let mut writer = SnapshotWriter::new();
    for &id in &kept {
        writer.section(id, file.section(id).unwrap().to_vec());
    }
    let mut out = Vec::new();
    writer.write_to(&mut out).unwrap();
    // Header: magic, version, count, then 24 bytes per table entry, then
    // the CRC over all of it.
    out[8..12].copy_from_slice(&2u32.to_le_bytes());
    let table_end = 16 + 24 * kept.len();
    let crc = crc32(&out[..table_end]);
    out[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
    out
}
