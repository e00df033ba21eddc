//! Reproduction harness for the Pass-Join evaluation.
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation (§6); run it without arguments for usage. [`report`]
//! renders/persists the result tables; [`harness`] holds the dataset
//! scaling, the tuned baseline parameters, and the selection-only
//! measurement loop shared by the binary and the repository benchmark
//! (`perfbench`).

pub mod harness;
pub mod report;
