//! **passjoin-store** — instant-restart storage for Pass-Join serving
//! indices.
//!
//! `passjoin-persist` owns the snapshot *bytes* and `passjoin-online`
//! owns the load *semantics*; this crate owns **durability and
//! recovery** — the pieces that make a serving index restart in O(1)
//! rather than O(index):
//!
//! * [`mmap`] — a std-only `mmap(2)` shim behind the same
//!   [`SharedBytes`](sj_common::SharedBytes) handle the string arena
//!   already uses, so snapshot loads become lazy and page-granular
//!   (with a `fs::read` fallback everywhere mapping is unavailable);
//! * [`delta`] — delta-checkpoint *chains*: `<base>.delta-1`, `-2`, …
//!   placement, gap-safe discovery, and verified replay of the
//!   insert/remove log onto a loaded base ([`load_chain`] is the
//!   one-call recovery path);
//! * [`checkpoint`] — the serving wrapper: [`CheckpointedIndex`]
//!   queries like any [`Queryable`](passjoin_online::Queryable), logs
//!   every mutation, and drains the log to the next delta file;
//!   [`Checkpointer`] does so periodically on a background thread and
//!   once more at shutdown, with `passjoin_store_*` metrics.
//!
//! Put together with format v3's direct postings appendix (probed
//! straight out of the loaded buffer, no hash-map rebuild) the restart
//! path is: map the base snapshot, parse the section table, replay the
//! delta chain — and serve, with the bulk of the file faulted in lazily
//! as queries touch it.
//!
//! ```no_run
//! use std::sync::Arc;
//! use passjoin_online::Queryable;
//! use passjoin_store::{CheckpointedIndex, Checkpointer, OpenOptions};
//!
//! let index = Arc::new(CheckpointedIndex::open(
//!     "index.snap",
//!     OpenOptions::new().mmap(true).instant(true),
//! )?);
//! let writer = Checkpointer::start(Arc::clone(&index), std::time::Duration::from_secs(5));
//!
//! index.insert(b"jim gray");
//! assert!(!index.matches(b"jim grey", 1).is_empty());
//!
//! writer.stop(); // final drain checkpoint; nothing applied is lost
//! # Ok::<(), passjoin_persist::PersistError>(())
//! ```

pub mod checkpoint;
pub mod delta;
pub mod mmap;

use std::path::Path;

use passjoin_online::{LoadMode, OnlineIndex};
use passjoin_persist::{PersistError, SnapshotFile};

pub use checkpoint::{CheckpointedIndex, Checkpointer, OpenOptions, StoreObs, VerifyState};
pub use delta::{delta_path, find_chain, load_chain};
pub use mmap::{map_file, open_bytes, read_file};

/// Loads a snapshot through the instant-restart path without the
/// serving wrapper: mmap (where available), lazy CRC validation,
/// direct postings, no chain replay. The caller owns the trade-off
/// documented on [`CheckpointedIndex::verification`]: integrity checks
/// beyond the header and metadata sections have not run yet.
///
/// Falls back to the rebuild path for pre-v3 snapshots (no direct
/// appendix).
pub fn open_instant(path: impl AsRef<Path>) -> Result<OnlineIndex, PersistError> {
    let (buf, _) = open_bytes(path.as_ref(), true)?;
    let file = SnapshotFile::parse_lazy(buf)?;
    let mode = if passjoin_persist::segdirect::has_direct_sections(&file) {
        LoadMode::Direct {
            deep_validate: false,
        }
    } else {
        LoadMode::Rebuild
    };
    OnlineIndex::from_snapshot_file(&file, mode)
}
