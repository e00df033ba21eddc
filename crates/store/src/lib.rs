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
//!   insert/remove log onto a loaded base;
//! * [`checkpoint`] — the serving wrapper: [`CheckpointedIndex`] opens
//!   a snapshot on the one open path, replays its chain, queries like
//!   any [`Queryable`](passjoin_online::Queryable), logs every
//!   mutation, and drains the log to the next delta file;
//!   [`Checkpointer`] does so periodically on a background thread and
//!   once more at shutdown, with `passjoin_store_*` metrics.
//!
//! Put together with format v3's direct postings appendix (probed
//! straight out of the loaded buffer, no hash-map rebuild) the restart
//! path is: map the base snapshot, parse the section table, replay the
//! delta chain — and serve, with the bulk of the file faulted in lazily
//! as queries touch it. An eager open runs
//! [`verify_snapshot`](passjoin_online::verify_snapshot) before it
//! returns; an instant open ([`OpenOptions::instant`]) runs the same
//! check on a background thread ([`CheckpointedIndex::verification`]),
//! unless it has a delta chain to replay: the replay mutates the base,
//! so the base is checked first.
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

pub use checkpoint::{CheckpointedIndex, Checkpointer, OpenOptions, StoreObs, VerifyState};
pub use delta::{delta_path, find_chain};
