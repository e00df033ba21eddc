//! Delta-checkpoint chains: placement, discovery, and replay.
//!
//! The byte-level codec lives in `passjoin_persist::delta`; this module
//! owns everything above it — where a chain lives on disk, how a loader
//! finds it, and how a log replays onto a loaded base index without ever
//! silently diverging from the state the log was recorded against.
//!
//! # Chain layout
//!
//! A base snapshot `index.snap` owns the chain `index.snap.delta-1`,
//! `index.snap.delta-2`, … — densely numbered from 1. Discovery
//! ([`find_chain`]) walks the numbers until the first gap, so deleting a
//! chain means deleting a *suffix*; a gap orphans everything after it,
//! which is exactly the crash-safe property checkpoint writers need
//! (`SnapshotWriter::save` renames into place, so delta `k` exists only
//! complete, and only after `k − 1`).
//!
//! # Replay contract
//!
//! Each delta records the epoch and string-table size it starts from and
//! ends at, and each logged insert records the id it was assigned.
//! [`apply_delta`] re-checks all of it against the live index: a chain
//! from a different base (or applied out of order) is a typed
//! [`PersistError::Corrupt`], never a silently wrong index.

use std::path::{Path, PathBuf};

use passjoin_online::OnlineIndex;
use passjoin_persist::delta::{delta_writer, is_delta, read_delta};
use passjoin_persist::{DeltaMeta, DeltaOp, PersistError, SnapshotFile};

/// The path of the `k`-th delta in `base`'s chain: `<base>.delta-<k>`.
/// `k` is 1-based; `k = 0` is the base snapshot itself and has no delta
/// path.
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn delta_path(base: &Path, k: u32) -> PathBuf {
    assert!(k > 0, "delta numbering starts at 1");
    let mut name = base
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".delta-{k}"));
    base.with_file_name(name)
}

/// The existing chain for `base`: `[<base>.delta-1, …]` up to the first
/// missing number. Files past a gap are orphans and are ignored.
pub fn find_chain(base: &Path) -> Vec<PathBuf> {
    let mut chain = Vec::new();
    for k in 1u32.. {
        let path = delta_path(base, k);
        if !path.exists() {
            break;
        }
        chain.push(path);
    }
    chain
}

/// Writes one delta checkpoint to `path` with the container's
/// crash-atomic temp-file-and-rename save. Returns the file size.
pub fn write_delta(path: &Path, meta: &DeltaMeta, ops: &[DeltaOp]) -> Result<u64, PersistError> {
    delta_writer(meta, ops).save(path)
}

/// Opens and fully validates one delta file: container framing, CRCs,
/// and the codec's structural checks. A full snapshot at `path` is
/// rejected as [`PersistError::Corrupt`] (the two kinds share framing
/// but never sections).
pub fn read_delta_file(path: &Path) -> Result<(DeltaMeta, Vec<DeltaOp>), PersistError> {
    let file = SnapshotFile::open(path)?;
    if !is_delta(&file) {
        return Err(PersistError::Corrupt {
            context: "expected a delta checkpoint, found a full snapshot",
        });
    }
    read_delta(&file)
}

/// The replay-contract view of a live index: `(epoch, universe)`, where
/// universe is the string-table size (live strings plus tombstones) —
/// the id the next insert will be assigned.
pub fn replay_state(index: &OnlineIndex) -> (u64, u64) {
    let stats = index.stats();
    (stats.epoch, (stats.live + stats.tombstones) as u64)
}

/// Replays one validated delta onto `index`, verifying the contract at
/// every step: the meta must match the index's τ_max, epoch, and
/// universe going in; every replayed insert must be assigned exactly the
/// recorded id; every remove must remove a live string; and the index
/// must land on the recorded end epoch.
///
/// # Errors
///
/// [`PersistError::Corrupt`] on any mismatch. The index may then hold a
/// partially applied log — discard it; replay is for freshly loaded
/// bases, not live serving state.
pub fn apply_delta(
    index: &mut OnlineIndex,
    meta: &DeltaMeta,
    ops: &[DeltaOp],
) -> Result<(), PersistError> {
    let corrupt = |context: &'static str| PersistError::Corrupt { context };
    if meta.tau_max != index.tau_max() as u64 {
        return Err(corrupt("delta tau_max does not match the base index"));
    }
    let (epoch, universe) = replay_state(index);
    if meta.base_epoch != epoch {
        return Err(corrupt("delta base epoch does not match the base index"));
    }
    if meta.base_universe != universe {
        return Err(corrupt("delta base universe does not match the base index"));
    }
    for op in ops {
        match op {
            DeltaOp::Insert { id, bytes } => {
                if index.insert(bytes) != *id {
                    return Err(corrupt("delta replay assigned a different id"));
                }
            }
            DeltaOp::Remove { id } => {
                if !index.remove(*id) {
                    return Err(corrupt("delta replay removed an already-dead id"));
                }
            }
        }
    }
    if index.epoch() != meta.end_epoch {
        return Err(corrupt("delta replay did not land on the recorded epoch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_paths_extend_the_base_name() {
        let base = Path::new("/tmp/dir/index.snap");
        assert_eq!(
            delta_path(base, 1),
            Path::new("/tmp/dir/index.snap.delta-1")
        );
        assert_eq!(
            delta_path(base, 12),
            Path::new("/tmp/dir/index.snap.delta-12")
        );
    }

    #[test]
    #[should_panic(expected = "starts at 1")]
    fn delta_zero_is_rejected() {
        let _ = delta_path(Path::new("x.snap"), 0);
    }

    #[test]
    fn chain_discovery_stops_at_the_first_gap() {
        let dir = std::env::temp_dir().join(format!("passjoin-store-chain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("index.snap");
        for k in [1u32, 2, 4] {
            std::fs::write(delta_path(&base, k), b"x").unwrap();
        }
        let chain = find_chain(&base);
        assert_eq!(chain, vec![delta_path(&base, 1), delta_path(&base, 2)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
