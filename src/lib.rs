//! Umbrella crate for the Pass-Join reproduction: examples live in
//! `examples/`, cross-crate integration tests in `tests/`.

pub use datagen;
pub use editdist;
pub use edjoin;
pub use passjoin;
pub use passjoin_obs;
pub use passjoin_online;
pub use passjoin_persist;
pub use passjoin_serve;
pub use passjoin_setsim;
pub use sj_common;
pub use triejoin;

/// Compiles and runs README.md's Rust blocks as doctests, so the
/// examples there cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
