//! The TCP server: bounded thread-per-connection over `&dyn Queryable`.
//!
//! std-only by constraint (no async runtime is available), the server
//! pairs a non-blocking accept loop with a scoped thread per connection,
//! bounded by [`ServerConfig::max_connections`] — excess connections wait
//! in the OS backlog. Each connection speaks the line protocol
//! ([`crate::proto`]): requests execute inline on the connection's
//! thread against the shared source, so the connection cap is also the
//! query-concurrency cap.
//!
//! **Backpressure** (the design constraint from the roadmap): streamed
//! responses never buffer more than [`ServerConfig::stream_buffer`]
//! matches server-side. The engine runs on a helper thread pushing into
//! a bounded [`pull_channel`]; the connection thread pulls and writes.
//! A slow socket fills the channel and *blocks the engine* (bounded
//! memory); a dead socket drops the receiver, which saturates the
//! engine's sink and aborts the scan (bounded work).
//!
//! **Budgets**: client-requested caps are intersected with the server's
//! ceiling via [`ExecBudget::clamped_by`] — a client can only tighten.
//! Deadlines come from one long-lived [`WallClockTicks`] source shared
//! by every request (a per-request source would leak a timer thread).
//!
//! **Graceful shutdown**: a [`ShutdownHandle`] (or the protocol's
//! `shutdown` op, when enabled) stops the accept loop; in-flight
//! connections drain — their current request completes and the
//! connection closes after a farewell read cycle.
//!
//! **Engine panics** cost their line only: a panic inside the engine
//! call, buffered or streamed, is caught and answered with an
//! `internal` error terminator, and the connection keeps reading.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use passjoin::sink::MatchSink;
use passjoin_obs::{Counter, Gauge, Registry};
use passjoin_online::{
    wall_deadline, BatchBudget, ExecBudget, QueryOutcome, Queryable, SearchRequest, WallClockTicks,
};
use sj_common::StringId;

use crate::proto::{self, DoneSummary, ErrorCode, MetricsFormat, QuerySpec, Request, RequestError};

/// Server limits and policy knobs. `Default` is sized for tests and
/// small deployments; the CLI overrides what its flags expose.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent connections (= concurrent in-flight requests).
    pub max_connections: usize,
    /// Longest accepted request line, in bytes; longer lines get a
    /// `line_too_long` error and are discarded to the next newline.
    pub max_line_bytes: usize,
    /// Most queries one request line may carry.
    pub max_batch: usize,
    /// Idle time after which a silent connection is closed.
    pub read_timeout: Duration,
    /// Per-write timeout; a socket stuck longer is treated as dead.
    pub write_timeout: Duration,
    /// Streamed-response channel capacity: the most matches ever
    /// buffered server-side per streaming request.
    pub stream_buffer: usize,
    /// τ used by query lines that do not set one.
    pub default_tau: usize,
    /// Server-side verification-cap ceiling applied to every query.
    pub max_verify_ceiling: Option<u64>,
    /// Server-side candidate-cap ceiling applied to every query.
    pub max_candidates_ceiling: Option<u64>,
    /// Server-side deadline ceiling (milliseconds) applied to every
    /// query line.
    pub deadline_ms_ceiling: Option<u64>,
    /// Whether the protocol `shutdown` op is honoured (loopback tools
    /// and tests); when false it is a `bad_request` error.
    pub allow_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 8,
            max_line_bytes: 64 * 1024,
            max_batch: 1024,
            read_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(30),
            stream_buffer: 256,
            default_tau: 1,
            max_verify_ceiling: None,
            max_candidates_ceiling: None,
            deadline_ms_ceiling: None,
            allow_shutdown: false,
        }
    }
}

/// The server's metric handles, pre-registered into a shared
/// [`Registry`] (the same one the engine's `EngineObs` writes to, so the
/// `metrics` op dumps both in one scrape).
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `passjoin_server_connections_total` | counter | connections accepted |
/// | `passjoin_server_connections_inflight` | gauge | connections currently open |
/// | `passjoin_server_requests_total` | counter | request lines parsed and executed |
/// | `passjoin_server_request_errors_total` | counter | request lines answered with an error |
/// | `passjoin_server_queries_total` | counter | individual queries executed |
/// | `passjoin_server_matches_total` | counter | matches sent to clients |
/// | `passjoin_server_bytes_read_total` | counter | bytes read from clients |
/// | `passjoin_server_bytes_written_total` | counter | bytes written to clients |
/// | `passjoin_server_stream_buffered_peak` | gauge | largest streamed-response queue observed |
#[derive(Debug, Clone)]
pub struct ServeObs {
    /// Connections accepted.
    pub connections_total: Counter,
    /// Connections currently open.
    pub connections_inflight: Gauge,
    /// Request lines parsed and executed.
    pub requests_total: Counter,
    /// Request lines answered with an error terminator.
    pub request_errors_total: Counter,
    /// Individual queries executed.
    pub queries_total: Counter,
    /// Matches sent to clients.
    pub matches_total: Counter,
    /// Bytes read from clients.
    pub bytes_read_total: Counter,
    /// Bytes written to clients.
    pub bytes_written_total: Counter,
    /// Largest streamed-response queue length observed (bounded by
    /// [`ServerConfig::stream_buffer`] — the backpressure invariant).
    pub stream_buffered_peak: Gauge,
}

impl ServeObs {
    /// Registers (or re-attaches to) the server metrics in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            connections_total: registry.counter("passjoin_server_connections_total"),
            connections_inflight: registry.gauge("passjoin_server_connections_inflight"),
            requests_total: registry.counter("passjoin_server_requests_total"),
            request_errors_total: registry.counter("passjoin_server_request_errors_total"),
            queries_total: registry.counter("passjoin_server_queries_total"),
            matches_total: registry.counter("passjoin_server_matches_total"),
            bytes_read_total: registry.counter("passjoin_server_bytes_read_total"),
            bytes_written_total: registry.counter("passjoin_server_bytes_written_total"),
            stream_buffered_peak: registry.gauge("passjoin_server_stream_buffered_peak"),
        }
    }

    fn note_stream_peak(&self, high_water: u64) {
        // Monotone max; a lost race between connections only under-reports
        // momentarily and the next scrape catches up.
        if (high_water as i64) > self.stream_buffered_peak.get() {
            self.stream_buffered_peak.set(high_water as i64);
        }
    }
}

/// Signals a running [`Server`] to stop accepting and drain; cloneable
/// and usable from any thread (a ctrl-c handler, the protocol's
/// `shutdown` op, a test).
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests shutdown: the accept loop stops, in-flight connections
    /// finish their current request and close.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The bound, not-yet-running server. [`Server::run`] blocks the calling
/// thread until shutdown; interact from other threads via
/// [`Server::local_addr`] and [`Server::shutdown_handle`].
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    obs: ServeObs,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
    ticker: Arc<WallClockTicks>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and registers the
    /// server metrics into `registry` — pass the registry the source's
    /// `EngineObs` uses so one `metrics` scrape covers both.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        registry: Arc<Registry>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let obs = ServeObs::register(&registry);
        Ok(Self {
            listener,
            config,
            obs,
            registry,
            shutdown: Arc::new(AtomicBool::new(false)),
            ticker: Arc::new(WallClockTicks::millis()),
        })
    }

    /// The bound address (the resolved port when bound to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this server from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// The server's metric handles.
    pub fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// Serves `source` until shutdown is requested. Blocks; connections
    /// run on scoped threads, all joined (drained) before this returns.
    pub fn run(&self, source: &(dyn Queryable + Sync)) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let inflight = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            while !self.shutdown.load(Ordering::Acquire) {
                if inflight.load(Ordering::Acquire) >= self.config.max_connections {
                    // At capacity: let the OS backlog hold new connections.
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        self.obs.connections_total.inc(1);
                        self.obs.connections_inflight.add(1);
                        inflight.fetch_add(1, Ordering::AcqRel);
                        let inflight = &inflight;
                        scope.spawn(move || {
                            let _ = self.serve_connection(stream, source);
                            self.obs.connections_inflight.add(-1);
                            inflight.fetch_sub(1, Ordering::AcqRel);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(())
            // Scope exit joins every connection thread: graceful drain.
        })
    }

    /// Runs the line loop for one connection until EOF, idle timeout,
    /// I/O failure, or server shutdown.
    fn serve_connection(
        &self,
        stream: TcpStream,
        source: &(dyn Queryable + Sync),
    ) -> io::Result<()> {
        // A short real timeout keeps reads responsive to shutdown; the
        // configured idle timeout accumulates across short waits.
        const POLL: Duration = Duration::from_millis(100);
        stream.set_read_timeout(Some(POLL))?;
        stream.set_write_timeout(Some(self.config.write_timeout))?;
        let mut conn = Connection {
            stream,
            obs: &self.obs,
            buf: Vec::with_capacity(4096),
        };

        let mut pending: Vec<u8> = Vec::new();
        let mut idle = Duration::ZERO;
        // Oversized line in progress: already reported, discarding bytes.
        let mut discarding = false;
        let mut chunk = [0u8; 4096];
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return Ok(()); // drain: finish current request, then close
            }
            let n = match conn.stream.read(&mut chunk) {
                Ok(0) => return Ok(()), // client closed
                Ok(n) => n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    idle += POLL;
                    if idle >= self.config.read_timeout {
                        return Ok(()); // idle too long
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            idle = Duration::ZERO;
            self.obs.bytes_read_total.inc(n as u64);
            pending.extend_from_slice(&chunk[..n]);

            // Process every complete line in the buffer.
            while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = pending.drain(..=nl).collect();
                let line = &line[..line.len() - 1];
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                if discarding {
                    // The tail of an oversized line; the error already went out.
                    discarding = false;
                    continue;
                }
                if line.is_empty() {
                    continue;
                }
                match self.serve_line(line, source, &mut conn)? {
                    LineOutcome::Continue => {}
                    LineOutcome::Shutdown => {
                        self.shutdown.store(true, Ordering::Release);
                        return Ok(());
                    }
                }
            }
            if !discarding && pending.len() > self.config.max_line_bytes {
                // No newline yet and already too long: answer now, then
                // skip bytes until the line finally ends.
                self.obs.requests_total.inc(1);
                self.obs.request_errors_total.inc(1);
                conn.send_line(&proto::error_line(
                    ErrorCode::LineTooLong,
                    &format!("request line exceeds {} bytes", self.config.max_line_bytes),
                ))?;
                pending.clear();
                discarding = true;
            } else if discarding {
                pending.clear();
            }
        }
    }

    /// Parses and executes one request line, writing its response lines.
    fn serve_line(
        &self,
        line: &[u8],
        source: &(dyn Queryable + Sync),
        conn: &mut Connection<'_>,
    ) -> io::Result<LineOutcome> {
        self.obs.requests_total.inc(1);
        let request = match proto::parse_request(line, self.config.max_batch) {
            Ok(request) => request,
            Err(RequestError { code, msg }) => {
                self.obs.request_errors_total.inc(1);
                conn.send_line(&proto::error_line(code, &msg))?;
                return Ok(LineOutcome::Continue);
            }
        };
        match request {
            Request::Ping => {
                conn.send_line(&proto::done_line(&DoneSummary::default()))?;
                Ok(LineOutcome::Continue)
            }
            Request::Shutdown => {
                if self.config.allow_shutdown {
                    conn.send_line(&proto::done_line(&DoneSummary::default()))?;
                    Ok(LineOutcome::Shutdown)
                } else {
                    self.obs.request_errors_total.inc(1);
                    conn.send_line(&proto::error_line(
                        ErrorCode::BadRequest,
                        "shutdown is disabled on this server",
                    ))?;
                    Ok(LineOutcome::Continue)
                }
            }
            Request::Metrics(format) => {
                let dump = match format {
                    MetricsFormat::Prometheus => self.registry.render_prometheus(),
                    MetricsFormat::Json => self.registry.render_json(),
                };
                conn.send_line(&proto::metrics_line(&dump))?;
                conn.send_line(&proto::done_line(&DoneSummary::default()))?;
                Ok(LineOutcome::Continue)
            }
            Request::Query(spec) => {
                match self.serve_query(&spec, source, conn)? {
                    Ok(summary) => {
                        self.obs.queries_total.inc(summary.queries);
                        self.obs.matches_total.inc(summary.matches);
                        conn.send_line(&proto::done_line(&summary))?;
                    }
                    Err(RequestError { code, msg }) => {
                        self.obs.request_errors_total.inc(1);
                        conn.send_line(&proto::error_line(code, &msg))?;
                    }
                }
                Ok(LineOutcome::Continue)
            }
        }
    }

    /// The server-side budget ceiling for one query line.
    fn ceiling(&self) -> ExecBudget {
        let mut ceiling = ExecBudget::new();
        if let Some(n) = self.config.max_verify_ceiling {
            ceiling = ceiling.with_max_verifications(n);
        }
        if let Some(n) = self.config.max_candidates_ceiling {
            ceiling = ceiling.with_max_candidates(n);
        }
        if let Some(ms) = self.config.deadline_ms_ceiling {
            let (source, at) = wall_deadline(&self.ticker, ms);
            ceiling = ceiling.with_deadline(source, at);
        }
        ceiling
    }

    /// Converts a wire [`proto::BudgetSpec`] into an [`ExecBudget`]
    /// against the server's tick source.
    fn budget_of(&self, spec: &proto::BudgetSpec) -> ExecBudget {
        let mut budget = ExecBudget::new();
        if let Some(n) = spec.max_verify {
            budget = budget.with_max_verifications(n);
        }
        if let Some(n) = spec.max_candidates {
            budget = budget.with_max_candidates(n);
        }
        if let Some(ms) = spec.deadline_ms {
            let (source, at) = wall_deadline(&self.ticker, ms);
            budget = budget.with_deadline(source, at);
        }
        budget
    }

    /// Executes one query line. The outer `io::Result` is the
    /// connection's health; the inner result is the request's.
    fn serve_query(
        &self,
        spec: &QuerySpec,
        source: &(dyn Queryable + Sync),
        conn: &mut Connection<'_>,
    ) -> io::Result<Result<DoneSummary, RequestError>> {
        let tau = spec.tau.unwrap_or(self.config.default_tau);
        if tau > source.tau_max() {
            return Ok(Err(RequestError {
                code: ErrorCode::BadRequest,
                msg: format!("tau {tau} exceeds the index's tau_max {}", source.tau_max()),
            }));
        }
        let effective = self.budget_of(&spec.budget).clamped_by(&self.ceiling());
        let batch_budget = spec
            .batch
            .as_ref()
            .map(|batch| BatchBudget::new(self.budget_of(batch)));
        let requests: Vec<SearchRequest<'_>> = spec
            .queries
            .iter()
            .map(|q| {
                let mut req = SearchRequest::borrowed(q, tau);
                if let Some(k) = spec.limit {
                    req = req.with_limit(k);
                }
                if spec.count {
                    req = req.count_only();
                }
                if !effective.is_unlimited() {
                    req = req.with_budget(effective.clone());
                }
                if let Some(shared) = &batch_budget {
                    req = req.with_batch_budget(shared);
                }
                req
            })
            .collect();

        let mut summary = DoneSummary::default();
        if spec.stream && !spec.count {
            if let Err(e) = self.stream_query(&requests, source, conn, &mut summary)? {
                return Ok(Err(e));
            }
        } else {
            let Ok(response) =
                panic::catch_unwind(AssertUnwindSafe(|| source.search_batch(&requests)))
            else {
                return Ok(Err(engine_panicked()));
            };
            for (q, outcome) in response.outcomes.iter().enumerate() {
                if !spec.count {
                    for &(id, dist) in outcome.matches.iter() {
                        conn.send_line(&proto::match_line(q, id, dist))?;
                    }
                }
                conn.send_line(&proto::eoq_line(q, outcome.count, &outcome.completion))?;
                summary.absorb(outcome);
            }
        }
        Ok(Ok(summary))
    }

    /// Streams one query line through the bounded pull channel: the
    /// engine pushes on a helper thread, this (connection) thread pulls
    /// and writes — see the module docs for the backpressure contract.
    /// Results nest like `serve_query`'s; a panicked engine thread is the
    /// inner error.
    fn stream_query(
        &self,
        requests: &[SearchRequest<'_>],
        source: &(dyn Queryable + Sync),
        conn: &mut Connection<'_>,
        summary: &mut DoneSummary,
    ) -> io::Result<Result<(), RequestError>> {
        let (tx, rx) = passjoin_online::pull_channel::<StreamItem>(self.config.stream_buffer);
        let mut write_failure = None;
        let joined = std::thread::scope(|scope| {
            let engine = scope.spawn(move || {
                for (q, req) in requests.iter().enumerate() {
                    let mut sink = StreamSink {
                        tx: &tx,
                        q,
                        disconnected: false,
                    };
                    let outcome = source.search_streaming(req, &mut sink);
                    let gone = sink.disconnected;
                    if gone || tx.send(StreamItem::Eoq(q, outcome)).is_err() {
                        break; // client is gone; stop the whole line
                    }
                }
                let high_water = tx.high_water();
                drop(tx); // close: the writer's iterator ends
                high_water
            });
            for item in rx {
                let result = match item {
                    StreamItem::Match(q, id, dist) => {
                        conn.send_line(&proto::match_line(q, id, dist))
                    }
                    StreamItem::Eoq(q, outcome) => {
                        summary.absorb(&outcome);
                        conn.send_line(&proto::eoq_line(q, outcome.count, &outcome.completion))
                    }
                };
                if let Err(e) = result {
                    write_failure = Some(e);
                    break; // dropping rx hangs up; the engine aborts
                }
            }
            // A panic unwinds the engine thread, dropping its sender:
            // the loop above has already ended, and the join reports it.
            engine.join()
        });
        if let Ok(high_water) = &joined {
            self.obs.note_stream_peak(*high_water);
        }
        match write_failure {
            Some(e) => Err(e),
            None => Ok(joined.map(|_| ()).map_err(|_| engine_panicked())),
        }
    }
}

/// The error a line gets when the engine panicked answering it.
fn engine_panicked() -> RequestError {
    RequestError {
        code: ErrorCode::Internal,
        msg: "the engine panicked answering this line".into(),
    }
}

enum LineOutcome {
    Continue,
    Shutdown,
}

/// One unit of a streamed response on its way from the engine thread to
/// the connection thread.
enum StreamItem {
    /// A verified match: `(in-line query index, id, distance)`.
    Match(usize, StringId, usize),
    /// A query finished; its outcome closes the query on the wire.
    Eoq(usize, QueryOutcome),
}

/// A [`MatchSink`] tagging each match with its in-line query index and
/// pushing it into the bounded channel; a hung-up channel (the writer
/// saw a dead socket) saturates the sink, aborting the scan.
struct StreamSink<'a> {
    tx: &'a passjoin_online::PullSender<StreamItem>,
    q: usize,
    disconnected: bool,
}

impl MatchSink for StreamSink<'_> {
    fn push(&mut self, id: StringId, dist: usize) {
        if self.disconnected {
            return;
        }
        if self.tx.send(StreamItem::Match(self.q, id, dist)).is_err() {
            self.disconnected = true;
        }
    }

    fn saturated(&self) -> bool {
        self.disconnected || self.tx.is_hung_up()
    }
}

/// One connection's write half plus byte accounting.
struct Connection<'a> {
    stream: TcpStream,
    obs: &'a ServeObs,
    buf: Vec<u8>,
}

impl Connection<'_> {
    /// Writes `line` plus a newline, counting the bytes.
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.stream.write_all(&self.buf)?;
        self.obs.bytes_written_total.inc(self.buf.len() as u64);
        Ok(())
    }
}
