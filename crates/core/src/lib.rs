//! **Pass-Join**: partition-based string similarity joins with
//! edit-distance constraints.
//!
//! Reproduction of Li, Deng, Wang, Feng — *"Pass-Join: A Partition-based
//! Method for Similarity Joins"*, PVLDB 5(3), 2011.
//!
//! Given a collection of strings and a threshold τ, the join finds every
//! pair within edit distance τ. Pass-Join partitions each indexed string
//! into τ+1 even segments (by the pigeonhole principle a similar string
//! must contain one of them verbatim — [`partition`]), probes a small,
//! provably minimal set of substrings of each probe string against
//! per-(length, slot) inverted indices ([`select`], [`index`]), and
//! verifies candidates with a cascade of banded, early-terminating,
//! extension-based dynamic programs ([`verify`], implemented in the
//! [`editdist`] crate).
//!
//! # Quick start
//!
//! ```
//! use passjoin::PassJoin;
//! use sj_common::{SimilarityJoin, StringCollection};
//!
//! let strings = StringCollection::from_strs(&["vldb", "pvldb", "icde", "sigmod"]);
//! let out = PassJoin::new().self_join(&strings, 1);
//! assert_eq!(out.normalized_pairs(), vec![(0, 1)]); // ⟨vldb, pvldb⟩
//! ```
//!
//! # Configuration
//!
//! Every strategy ablated in the paper is available:
//!
//! ```
//! use passjoin::{PassJoin, Selection, Verification};
//! let join = PassJoin::new()
//!     .with_selection(Selection::Position)
//!     .with_verification(Verification::LengthAware);
//! assert_eq!(join.selection(), Selection::Position);
//! ```
//!
//! Two collections are joined with [`PassJoin::rs_join`]; the threshold is
//! per-call, so one configured `PassJoin` serves any τ.
//!
//! Strings are compared as byte strings. The paper's corpora are ASCII;
//! for non-ASCII UTF-8 input the edit distance is over bytes, not
//! codepoints.

pub mod direct;
pub mod index;
pub mod intern;
pub mod joiner;
mod parallel;
pub mod partition;
mod probe;
pub mod search;
pub mod select;
pub mod sink;
pub mod topk;
pub mod verify;

pub use direct::DirectSegmentIndex;
pub use index::{OwnedSegmentIndex, SegmentIndex, SegmentKey, SegmentMap, SegmentProbe};
pub use intern::{SegId, SegmentInterner};
pub use joiner::PassJoin;
pub use partition::PartitionScheme;
pub use search::SearchIndex;
pub use select::{online_window, Selection};
pub use sink::{
    BudgetSink, CollectSink, CountSink, FnSink, ManualTicks, MatchSink, TickSource, TopKSink,
    TruncationReason,
};
pub use topk::TopK;
pub use verify::Verification;
