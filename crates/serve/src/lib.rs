//! A std-only network query service over the `passjoin-online`
//! [`Queryable`](passjoin_online::Queryable) surface.
//!
//! The serve crate turns any corpus-backed `OnlineIndex` or mmap'd
//! `Snapshot` into a small TCP service speaking a line-oriented JSON
//! protocol (JSONL): each request is one JSON object on one line, and
//! each response is a sequence of lines finished by exactly one
//! terminator — `{"done":…}` on success, `{"error":…}` on failure.
//! There are no dependencies beyond `std`; the JSON codec is
//! hand-rolled in [`json`] and is *byte-transparent* (non-ASCII bytes
//! travel as `\u00XX` escapes), so network answers are byte-identical
//! to offline answers for any corpus, not just UTF-8 ones.
//!
//! The moving pieces:
//!
//! - [`json`] — the minimal byte-string JSON codec.
//! - [`proto`] — wire-level request parsing and response formatting,
//!   shared by server and client so the two cannot drift.
//! - [`Server`] — `std::net::TcpListener` + a bounded
//!   thread-per-connection pool (`std::thread::scope`), graceful
//!   shutdown that drains in-flight connections, per-connection limits
//!   (line length, batch size, read/write timeouts), and per-request
//!   [`ExecBudget`](passjoin_online::ExecBudget)s clamped by a server
//!   ceiling.
//! - [`Client`] — a blocking client used by the CLI `client`
//!   subcommand and the loopback tests.
//!
//! Streaming responses (`"stream":true`) run the engine on the
//! connection's own thread, and its sink writes each match to the socket
//! as it is found: when the socket is slow the write blocks and so does
//! the *engine*, so a slow reader can never force unbounded buffering on
//! the server, and a failed write aborts the scan.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod proto;

mod client;
mod server;

pub use client::{build_query_line, Client, Event, QueryOptions};
pub use server::{ServeObs, Server, ServerConfig, ShutdownHandle};
