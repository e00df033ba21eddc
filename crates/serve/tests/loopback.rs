//! Loopback suite: a real server on `127.0.0.1:0` answering a real
//! client, pinned against the offline `Queryable` ground truth.
//!
//! The contracts exercised here, on both segment stores (a built index,
//! and the same index reopened with `OnlineIndex::load`):
//!
//! 1. **Byte-identity** — for every request shape (full, top-k,
//!    count-only) the server's response lines are *byte-identical* to
//!    lines formatted locally from the offline `search_batch` answer,
//!    non-ASCII corpora included (the JSON codec is byte-transparent).
//!    Streamed responses carry exactly the offline match set.
//! 2. **Resilience** — malformed, oversized, and invalid lines get
//!    typed error terminators and the connection keeps serving.
//! 3. **Backpressure** — a slow streaming reader still gets every
//!    match; a reader that stops reading stops the engine, whose writes
//!    block on the full socket; a client that hangs up mid-stream
//!    saturates the engine's sink, and the server serves on.
//! 4. **Budgets** — server ceilings clamp client budgets; a `batch`
//!    budget is drained across the whole line.
//! 5. **Lifecycle** — graceful shutdown drains in-flight connections;
//!    the protocol `shutdown` op works only when enabled; the `metrics`
//!    op reports request/query counters that add up.
//! 6. **Engine panics** — a panic answering a buffered or a streamed
//!    line costs that line an `internal` error, not the connection.
//! 7. **Wire timing** — one-query lines and pings round-trip without
//!    waiting on delayed acknowledgements, a streamed match leaves while
//!    the engine is still running, and the written-bytes counter equals
//!    what the client reads.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use passjoin_obs::Registry;
use passjoin_online::{
    ExecSource, KeyBackend, MatchSink, OnlineIndex, QueryOutcome, Queryable, SearchRequest,
    SearchResponse,
};
use passjoin_serve::proto::{self, BudgetSpec, DoneSummary, MetricsFormat};
use passjoin_serve::{
    build_query_line, Client, Event, QueryOptions, Server, ServerConfig, ShutdownHandle,
};

/// The segment stores an index under test serves from.
const STORES: [KeyBackend; 2] = [KeyBackend::Owned, KeyBackend::Direct];

/// Deterministic corpus with planted near-duplicates and non-ASCII
/// bytes (no RNG crate needed; xorshift is plenty for test data).
fn corpus(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    const ALPHABET: &[u8] = b"ab\xC3\xA9d\x00z";
    let mut strings = Vec::with_capacity(n);
    for _ in 0..n {
        let len = 4 + (next() % 9) as usize;
        let mut s: Vec<u8> = (0..len)
            .map(|_| ALPHABET[(next() % ALPHABET.len() as u64) as usize])
            .collect();
        strings.push(s.clone());
        // Plant an edit-distance-1 neighbour for every third string.
        if strings.len() % 3 == 0 {
            let at = (next() % s.len() as u64) as usize;
            s[at] = ALPHABET[(next() % ALPHABET.len() as u64) as usize];
            strings.push(s);
        }
    }
    strings.truncate(n);
    strings
}

/// An index over `strings` on `store`: as built, or saved and reopened
/// with `load` so its segment lane probes the snapshot's runs.
fn build(strings: &[Vec<u8>], tau_max: usize, store: KeyBackend) -> OnlineIndex {
    let built = OnlineIndex::from_strings(strings.iter(), tau_max);
    if store == KeyBackend::Owned {
        return built;
    }
    let path = std::env::temp_dir().join(format!(
        "passjoin-loopback-{}-{:p}.snap",
        std::process::id(),
        &built
    ));
    built.save(&path).expect("save for a direct reopen");
    let reopened = OnlineIndex::load(&path);
    let _ = std::fs::remove_file(&path);
    let reopened = reopened.expect("direct reopen");
    assert_eq!(reopened.key_backend(), store);
    reopened
}

/// Shuts the server down when dropped, so a failing test body unwinds
/// into a failure instead of waiting forever on a running server.
struct ShutdownOnDrop(ShutdownHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Binds an ephemeral-port server over `index`, runs `test` against it,
/// then shuts down and propagates any server error. The scope join is
/// itself the graceful-drain assertion: `run` only returns once every
/// connection thread has finished.
fn with_server<T>(
    index: &(dyn Queryable + Sync),
    config: ServerConfig,
    registry: Arc<Registry>,
    test: impl FnOnce(SocketAddr, &Server) -> T,
) -> T {
    let server = Server::bind(("127.0.0.1", 0), config, registry).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run(index));
        let stop = ShutdownOnDrop(server.shutdown_handle());
        let result = test(addr, &server);
        drop(stop);
        runner
            .join()
            .expect("server thread panicked")
            .expect("server I/O failure");
        result
    })
}

/// Sends one raw line and reads raw response lines through the
/// terminator — the byte-level view the identity tests compare on.
fn raw_exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Vec<String> {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    read_response(reader)
}

/// Reads raw response lines through the terminator.
fn read_response(reader: &mut BufReader<TcpStream>) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let mut l = String::new();
        assert_ne!(reader.read_line(&mut l).unwrap(), 0, "server closed early");
        let l = l.trim_end_matches('\n').to_string();
        let terminator = l.starts_with("{\"done\"") || l.starts_with("{\"error\"");
        lines.push(l);
        if terminator {
            return lines;
        }
    }
}

/// Formats the exact lines the server must produce for a non-streamed
/// query line, from the offline `search_batch` ground truth.
fn offline_lines(
    index: &OnlineIndex,
    queries: &[Vec<u8>],
    tau: usize,
    limit: Option<usize>,
    count: bool,
) -> Vec<String> {
    let requests: Vec<SearchRequest<'_>> = queries
        .iter()
        .map(|q| {
            let mut req = SearchRequest::borrowed(q, tau);
            if let Some(k) = limit {
                req = req.with_limit(k);
            }
            if count {
                req = req.count_only();
            }
            req
        })
        .collect();
    let response = index.search_batch(&requests);
    let mut lines = Vec::new();
    let mut summary = DoneSummary::default();
    for (q, outcome) in response.outcomes.iter().enumerate() {
        if !count {
            for &(id, dist) in outcome.matches.iter() {
                lines.push(proto::match_line(q, id, dist));
            }
        }
        lines.push(proto::eoq_line(q, outcome.count, &outcome.completion));
        summary.absorb(outcome);
    }
    lines.push(proto::done_line(&summary));
    lines
}

/// Scrapes one counter/gauge value out of a Prometheus text dump.
fn metric_value(dump: &str, name: &str) -> Option<i64> {
    dump.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.trim().parse().ok()
    })
}

#[test]
fn responses_are_byte_identical_to_offline_answers() {
    let strings = corpus(160, 0xC0FFEE);
    let queries: Vec<Vec<u8>> = strings.iter().step_by(11).cloned().collect();
    for store in STORES {
        let index = build(&strings, 2, store);
        with_server(
            &index,
            ServerConfig::default(),
            Arc::new(Registry::new()),
            |addr, _| {
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                for tau in 0..=2usize {
                    for (limit, count) in [(None, false), (Some(3), false), (None, true)] {
                        let options = QueryOptions {
                            tau: Some(tau),
                            limit,
                            count,
                            ..QueryOptions::default()
                        };
                        let line = build_query_line(&queries, &options);
                        let got = raw_exchange(&mut stream, &mut reader, &line);
                        let want = offline_lines(&index, &queries, tau, limit, count);
                        assert_eq!(
                            got, want,
                            "shape (tau={tau} limit={limit:?} count={count}) on {store:?}"
                        );
                    }
                }
            },
        );
    }
}

#[test]
fn streamed_responses_carry_exactly_the_offline_matches() {
    let strings = corpus(120, 0xBEEF);
    let queries: Vec<Vec<u8>> = strings.iter().step_by(17).cloned().collect();
    for store in STORES {
        let index = build(&strings, 2, store);
        with_server(
            &index,
            ServerConfig::default(),
            Arc::new(Registry::new()),
            |addr, _| {
                let mut client = Client::connect(addr).unwrap();
                for tau in 0..=2usize {
                    let options = QueryOptions {
                        tau: Some(tau),
                        stream: true,
                        ..QueryOptions::default()
                    };
                    let events = client.query(&queries, &options).unwrap();
                    for (q, query) in queries.iter().enumerate() {
                        let mut streamed: Vec<(u32, usize)> = events
                            .iter()
                            .filter_map(|e| match e {
                                Event::Match { q: eq, id, d } if *eq == q as u64 => {
                                    Some((*id as u32, *d as usize))
                                }
                                _ => None,
                            })
                            .collect();
                        streamed.sort_unstable();
                        let offline = index.search(&SearchRequest::borrowed(query, tau));
                        assert_eq!(
                            streamed, *offline.matches,
                            "query {q} at tau={tau} on {store:?}"
                        );
                    }
                    assert!(events.iter().all(|e| !matches!(
                        e,
                        Event::Eoq {
                            complete: false,
                            ..
                        }
                    )));
                }
            },
        );
    }
}

#[test]
fn bad_lines_get_typed_errors_and_the_connection_survives() {
    let strings = corpus(40, 7);
    let index = build(&strings, 1, KeyBackend::Owned);
    let config = ServerConfig {
        max_line_bytes: 256,
        max_batch: 4,
        ..ServerConfig::default()
    };
    with_server(&index, config, Arc::new(Registry::new()), |addr, _| {
        let mut client = Client::connect(addr).unwrap();
        let check = |client: &mut Client, line: &str, code: &str| {
            let events = client.request_raw(line).unwrap();
            match events.last() {
                Some(Event::Error { code: got, .. }) => {
                    assert_eq!(got, code, "line {line:?}")
                }
                other => panic!("line {line:?}: wanted error {code}, got {other:?}"),
            }
        };
        check(&mut client, "this is not json", "parse");
        check(&mut client, "[1,2,3]", "parse");
        check(&mut client, "{\"op\":\"frobnicate\"}", "bad_request");
        check(&mut client, "{\"op\":\"query\"}", "bad_request");
        check(
            &mut client,
            "{\"op\":\"query\",\"q\":\"a\",\"tau\":99}",
            "bad_request",
        );
        check(
            &mut client,
            "{\"op\":\"query\",\"queries\":[\"a\",\"b\",\"c\",\"d\",\"e\"]}",
            "batch_too_large",
        );
        // Shutdown is disabled by default.
        check(&mut client, "{\"op\":\"shutdown\"}", "bad_request");
        // An oversized line: the error arrives while the line is still
        // being discarded, and the next (valid) line is answered.
        let huge = format!("{{\"op\":\"query\",\"q\":\"{}\"}}", "x".repeat(300));
        check(&mut client, &huge, "line_too_long");
        // Same connection, still alive and correct:
        let events = client
            .query(
                &[strings[0].clone()],
                &QueryOptions {
                    tau: Some(1),
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        assert!(matches!(
            events.last(),
            Some(Event::Done { queries: 1, .. })
        ));
        client.ping().unwrap();
    });
}

#[test]
fn an_oversized_line_gets_one_line_too_long_however_it_arrives() {
    let strings = corpus(40, 7);
    let index = build(&strings, 1, KeyBackend::Owned);
    let config = ServerConfig {
        max_line_bytes: 256,
        ..ServerConfig::default()
    };
    with_server(&index, config, Arc::new(Registry::new()), |addr, server| {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let huge = format!("{{\"op\":\"query\",\"q\":\"{}\"}}\n", "x".repeat(300));
        let (short_head, short_tail) = huge.split_at(200);
        let (long_head, newline) = huge.split_at(huge.len() - 1);
        let queries = [strings[0].clone()];
        let next = build_query_line(
            &queries,
            &QueryOptions {
                tau: Some(1),
                ..QueryOptions::default()
            },
        );
        let want = offline_lines(&index, &queries, 1, None, false);
        // In one write; split with the head under the limit; split with
        // the head alone over it. The newline always ends the last write.
        let arrivals = [
            vec![&huge[..]],
            vec![short_head, short_tail],
            vec![long_head, newline],
        ];
        for writes in &arrivals {
            for part in writes {
                stream.write_all(part.as_bytes()).unwrap();
            }
            let got = read_response(&mut reader);
            assert_eq!(got.len(), 1, "{} writes: {got:?}", writes.len());
            assert!(
                got[0].starts_with("{\"error\":{\"code\":\"line_too_long\""),
                "{} writes: {got:?}",
                writes.len()
            );
            // A second error would arrive ahead of this answer.
            let got = raw_exchange(&mut stream, &mut reader, &next);
            assert_eq!(got, want, "the line after {} writes", writes.len());
        }
        let obs = server.obs();
        assert_eq!(obs.requests_total.get(), 6);
        assert_eq!(obs.request_errors_total.get(), 3);
    });
}

#[test]
fn interactive_round_trips_stay_off_the_delayed_ack_timer() {
    const LINES: usize = 100;
    const LIMIT: Duration = Duration::from_secs(2);
    let strings = corpus(120, 0x5EED);
    let index = build(&strings, 2, KeyBackend::Owned);
    with_server(
        &index,
        ServerConfig::default(),
        Arc::new(Registry::new()),
        |addr, _| {
            let mut client = Client::connect(addr).unwrap();
            // One-query lines, plain then streamed; then pings. A write
            // held back for an acknowledgement costs ~40 ms or more per
            // line, so a group that waits on the timer overruns the limit.
            for stream in [Some(false), Some(true), None] {
                let started = Instant::now();
                for query in strings.iter().cycle().take(LINES) {
                    let Some(stream) = stream else {
                        client.ping().unwrap();
                        continue;
                    };
                    let options = QueryOptions {
                        tau: Some(1),
                        stream,
                        ..QueryOptions::default()
                    };
                    let events = client.query(&[query], &options).unwrap();
                    assert!(
                        matches!(events.last(), Some(Event::Done { queries: 1, .. })),
                        "{:?}",
                        events.last()
                    );
                }
                let took = started.elapsed();
                assert!(
                    took < LIMIT,
                    "{LINES} lines (stream: {stream:?}) took {took:?}, limit {LIMIT:?}"
                );
            }
        },
    );
}

#[test]
fn bytes_written_total_equals_the_bytes_the_client_reads() {
    let strings = corpus(160, 0xB17E5);
    let queries: Vec<Vec<u8>> = strings.iter().step_by(13).cloned().collect();
    let index = build(&strings, 2, KeyBackend::Owned);
    let config = ServerConfig {
        max_line_bytes: 1024,
        ..ServerConfig::default()
    };
    with_server(&index, config, Arc::new(Registry::new()), |addr, _| {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let shapes = [
            (None, false, false),
            (Some(3), false, false),
            (None, true, false),
            (None, false, true),
        ];
        let mut lines: Vec<String> = shapes
            .iter()
            .map(|&(limit, count, stream)| {
                let options = QueryOptions {
                    tau: Some(2),
                    limit,
                    count,
                    stream,
                    ..QueryOptions::default()
                };
                build_query_line(&queries, &options)
            })
            .collect();
        lines.push("not json".into());
        lines.push(format!(
            "{{\"op\":\"query\",\"q\":\"{}\"}}",
            "x".repeat(2000)
        ));
        lines.push("{\"op\":\"ping\"}".into());
        let mut read = 0;
        for line in &lines {
            // Each response line plus the newline `raw_exchange` strips.
            let got = raw_exchange(&mut stream, &mut reader, line);
            read += got.iter().map(|l| l.len() + 1).sum::<usize>();
        }
        let scrape = raw_exchange(
            &mut stream,
            &mut reader,
            "{\"op\":\"metrics\",\"format\":\"prometheus\"}",
        );
        let payload = passjoin_serve::json::parse(scrape[0].as_bytes()).expect("metrics line");
        let dump = payload
            .get("metrics")
            .and_then(|m| m.as_str())
            .expect("a metrics payload");
        let dump = String::from_utf8_lossy(dump);
        assert_eq!(
            metric_value(&dump, "passjoin_server_bytes_written_total"),
            Some(read as i64),
            "written vs read over {} lines",
            lines.len()
        );
    });
}

/// A source whose streamed queries, once their matches are pushed, hold
/// the engine until the test reports having read a match off the wire
/// (or a timeout passes, which marks the match late).
struct HoldsAfterStreaming<'a> {
    inner: &'a OnlineIndex,
    read: Mutex<mpsc::Receiver<()>>,
    late: AtomicBool,
}

impl Queryable for HoldsAfterStreaming<'_> {
    fn exec_source(&self) -> Option<ExecSource<'_>> {
        self.inner.exec_source()
    }

    fn search_batch(&self, reqs: &[SearchRequest]) -> SearchResponse {
        self.inner.search_batch(reqs)
    }

    fn search_streaming(&self, req: &SearchRequest, sink: &mut dyn MatchSink) -> QueryOutcome {
        let outcome = self.inner.search_streaming(req, sink);
        let read = self.read.lock().unwrap();
        if read.recv_timeout(Duration::from_secs(10)).is_err() {
            self.late.store(true, Ordering::SeqCst);
        }
        outcome
    }
}

#[test]
fn a_streamed_match_leaves_while_the_engine_still_runs() {
    let strings = corpus(60, 5);
    let index = build(&strings, 1, KeyBackend::Owned);
    let (read_tx, read_rx) = mpsc::channel();
    let source = HoldsAfterStreaming {
        inner: &index,
        read: Mutex::new(read_rx),
        late: AtomicBool::new(false),
    };
    with_server(
        &source,
        ServerConfig::default(),
        Arc::new(Registry::new()),
        |addr, _| {
            let mut client = Client::connect(addr).unwrap();
            let options = QueryOptions {
                tau: Some(1),
                stream: true,
                ..QueryOptions::default()
            };
            client
                .query_nowait(&[strings[0].clone()], &options)
                .unwrap();
            let first = client.read_event().unwrap();
            read_tx.send(()).unwrap();
            assert!(matches!(first, Some(Event::Match { .. })), "{first:?}");
            loop {
                match client.read_event().unwrap().expect("no EOF mid-response") {
                    Event::Done { queries: 1, .. } => break,
                    event => assert!(!event.is_terminator(), "{event:?}"),
                }
            }
            assert!(
                !source.late.load(Ordering::SeqCst),
                "the match arrived only after the engine returned"
            );
        },
    );
}

/// A source whose first streamed query, after its own matches, waits
/// until the test has hung up and then pushes one match over and over
/// until the sink saturates, reporting whether it did: an engine still
/// producing when its client goes away. Later queries only delegate.
struct StreamsPastHangUp<'a> {
    inner: &'a OnlineIndex,
    hung_up: Mutex<Option<mpsc::Receiver<()>>>,
    saturated: mpsc::Sender<bool>,
}

impl Queryable for StreamsPastHangUp<'_> {
    fn exec_source(&self) -> Option<ExecSource<'_>> {
        self.inner.exec_source()
    }

    fn search_batch(&self, reqs: &[SearchRequest]) -> SearchResponse {
        self.inner.search_batch(reqs)
    }

    fn search_streaming(&self, req: &SearchRequest, sink: &mut dyn MatchSink) -> QueryOutcome {
        let outcome = self.inner.search_streaming(req, sink);
        let Some(hung_up) = self.hung_up.lock().unwrap().take() else {
            return outcome;
        };
        hung_up.recv_timeout(Duration::from_secs(10)).unwrap();
        // Bounded, so a sink that never saturates fails the test.
        let saturated = (0..1_000_000).any(|_| {
            sink.push(0, 0);
            sink.saturated()
        });
        self.saturated.send(saturated).unwrap();
        outcome
    }
}

#[test]
fn a_client_gone_mid_stream_stops_the_engine_and_the_server_serves_on() {
    let strings = corpus(60, 8);
    let index = build(&strings, 1, KeyBackend::Owned);
    let (hung_up_tx, hung_up_rx) = mpsc::channel();
    let (saturated_tx, saturated_rx) = mpsc::channel();
    let source = StreamsPastHangUp {
        inner: &index,
        hung_up: Mutex::new(Some(hung_up_rx)),
        saturated: saturated_tx,
    };
    let options = QueryOptions {
        tau: Some(1),
        stream: true,
        ..QueryOptions::default()
    };
    with_server(
        &source,
        ServerConfig::default(),
        Arc::new(Registry::new()),
        |addr, _| {
            let mut gone = Client::connect(addr).unwrap();
            gone.query_nowait(&[strings[0].clone()], &options).unwrap();
            let first = gone.read_event().unwrap();
            assert!(matches!(first, Some(Event::Match { .. })), "{first:?}");
            drop(gone);
            hung_up_tx.send(()).unwrap();
            assert_eq!(
                saturated_rx.recv_timeout(Duration::from_secs(10)),
                Ok(true),
                "the engine kept pushing after its client hung up"
            );

            // The next connection's streamed lines are answered in full.
            let mut client = Client::connect(addr).unwrap();
            for query in &strings[..3] {
                let events = client.query(std::slice::from_ref(query), &options).unwrap();
                let mut got: Vec<(u32, usize)> = events
                    .iter()
                    .filter_map(|e| match e {
                        Event::Match { id, d, .. } => Some((*id as u32, *d as usize)),
                        _ => None,
                    })
                    .collect();
                got.sort_unstable();
                let offline = index.search(&SearchRequest::borrowed(query, 1));
                assert_eq!(got, *offline.matches);
            }
        },
    );
}

/// A source whose streamed queries, after their own matches, push one
/// match over and over until the sink saturates or `PUSH_BOUND` pushes
/// have gone, counting them: an engine that out-produces any socket.
struct PushesUntilSaturated<'a> {
    inner: &'a OnlineIndex,
    pushes: AtomicU64,
}

const PUSH_BOUND: u64 = 20_000_000;

impl Queryable for PushesUntilSaturated<'_> {
    fn exec_source(&self) -> Option<ExecSource<'_>> {
        self.inner.exec_source()
    }

    fn search_streaming(&self, req: &SearchRequest, sink: &mut dyn MatchSink) -> QueryOutcome {
        let outcome = self.inner.search_streaming(req, sink);
        while !sink.saturated() && self.pushes.load(Ordering::SeqCst) < PUSH_BOUND {
            sink.push(0, 0);
            self.pushes.fetch_add(1, Ordering::SeqCst);
        }
        outcome
    }
}

#[test]
fn a_reader_that_stops_reading_stops_the_engine() {
    let strings = corpus(60, 13);
    let index = build(&strings, 1, KeyBackend::Owned);
    let source = PushesUntilSaturated {
        inner: &index,
        pushes: AtomicU64::new(0),
    };
    with_server(
        &source,
        ServerConfig::default(),
        Arc::new(Registry::new()),
        |addr, _| {
            let mut client = Client::connect(addr).unwrap();
            let options = QueryOptions {
                tau: Some(1),
                stream: true,
                ..QueryOptions::default()
            };
            client
                .query_nowait(&[strings[0].clone()], &options)
                .unwrap();
            // Read nothing: once the socket buffers fill, the server's
            // write blocks, and the engine with it.
            let deadline = Instant::now() + Duration::from_secs(60);
            let stalled = loop {
                let before = source.pushes.load(Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(200));
                let after = source.pushes.load(Ordering::SeqCst);
                if after == before && after > 0 {
                    break after;
                }
                assert!(Instant::now() < deadline, "the engine never stalled");
            };
            assert!(
                stalled < PUSH_BOUND,
                "the engine pushed all {stalled} matches into a reader that reads nothing"
            );
            let first = client.read_event().unwrap();
            assert!(matches!(first, Some(Event::Match { .. })), "{first:?}");
            // Hanging up with unread bytes fails the server's blocked
            // write, which saturates the sink and ends the engine's loop.
        },
    );
}

#[test]
fn a_slow_reader_loses_nothing() {
    // A corpus of near-identical strings: one streamed query at τ=2
    // matches nearly everything.
    let mut strings = Vec::new();
    for i in 0..96u8 {
        strings.push(vec![b'a', b'b', b'c', b'd', b'e', b'a' + (i % 4)]);
    }
    let index = build(&strings, 2, KeyBackend::Owned);
    let registry = Arc::new(Registry::new());
    with_server(&index, ServerConfig::default(), registry, |addr, _| {
        let offline = index.search(&SearchRequest::borrowed(&strings[0], 2));
        assert!(offline.count > 16, "corpus must out-produce the buffer");

        let mut client = Client::connect(addr).unwrap();
        let options = QueryOptions {
            tau: Some(2),
            stream: true,
            ..QueryOptions::default()
        };
        client
            .query_nowait(&[strings[0].clone()], &options)
            .unwrap();
        let mut got = Vec::new();
        loop {
            // The slow reader: dawdle between pulls.
            std::thread::sleep(Duration::from_millis(1));
            match client.read_event().unwrap().expect("no EOF mid-response") {
                Event::Match { id, d, .. } => got.push((id as u32, d as usize)),
                Event::Eoq { n, complete, .. } => {
                    assert_eq!(n as usize, offline.count);
                    assert!(complete);
                }
                Event::Done { matches, .. } => {
                    assert_eq!(matches as usize, offline.count);
                    break;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        got.sort_unstable();
        assert_eq!(got, *offline.matches, "a slow reader loses nothing");
    });
}

#[test]
fn server_ceiling_clamps_client_budgets() {
    let strings = corpus(120, 99);
    let index = build(&strings, 2, KeyBackend::Owned);
    let config = ServerConfig {
        max_verify_ceiling: Some(0),
        ..ServerConfig::default()
    };
    with_server(&index, config, Arc::new(Registry::new()), |addr, _| {
        let mut client = Client::connect(addr).unwrap();
        // The client asks for far more than the ceiling allows — and for
        // no budget at all; both are clamped to the ceiling.
        for budget in [
            BudgetSpec {
                max_verify: Some(1_000_000),
                ..BudgetSpec::default()
            },
            BudgetSpec::default(),
        ] {
            let options = QueryOptions {
                tau: Some(2),
                budget,
                ..QueryOptions::default()
            };
            let events = client.query(&[strings[0].clone()], &options).unwrap();
            let eoq = events
                .iter()
                .find(|e| matches!(e, Event::Eoq { .. }))
                .expect("an eoq line");
            let Event::Eoq {
                complete, reason, ..
            } = eoq
            else {
                unreachable!()
            };
            assert!(!complete, "a zero-verification ceiling must truncate");
            assert_eq!(reason.as_deref(), Some("verification cap"));
            let Some(Event::Done {
                truncated,
                verifications,
                ..
            }) = events.last()
            else {
                panic!("missing done terminator")
            };
            assert_eq!(*truncated, 1);
            assert_eq!(*verifications, 0, "the ceiling allows zero work");
        }
    });
}

#[test]
fn batch_budget_is_shared_across_the_whole_line() {
    let strings = corpus(160, 0xABCDEF);
    let queries: Vec<Vec<u8>> = strings.iter().step_by(5).cloned().collect();
    let index = build(&strings, 2, KeyBackend::Owned);
    with_server(
        &index,
        ServerConfig::default(),
        Arc::new(Registry::new()),
        |addr, _| {
            let mut client = Client::connect(addr).unwrap();
            // Unbudgeted ground truth for the total work.
            let free = client
                .query(
                    &queries,
                    &QueryOptions {
                        tau: Some(2),
                        ..QueryOptions::default()
                    },
                )
                .unwrap();
            let Some(Event::Done {
                verifications: total,
                ..
            }) = free.last()
            else {
                panic!("missing done")
            };
            assert!(*total > 4, "need real work to share");

            let cap = total / 2;
            let options = QueryOptions {
                tau: Some(2),
                batch: Some(BudgetSpec {
                    max_verify: Some(cap),
                    ..BudgetSpec::default()
                }),
                ..QueryOptions::default()
            };
            let events = client.query(&queries, &options).unwrap();
            let Some(Event::Done {
                verifications,
                truncated,
                ..
            }) = events.last()
            else {
                panic!("missing done")
            };
            assert!(
                *verifications <= cap,
                "line-wide work {verifications} must respect the shared cap {cap}"
            );
            assert!(*truncated >= 1, "an undersized pool must trip someone");
            // Each truncated query reports the typed reason on its eoq.
            for event in &events {
                if let Event::Eoq {
                    complete: false,
                    reason,
                    ..
                } = event
                {
                    assert_eq!(reason.as_deref(), Some("verification cap"));
                }
            }
        },
    );
}

#[test]
fn protocol_shutdown_drains_and_stops_the_server() {
    let strings = corpus(60, 3);
    let index = build(&strings, 1, KeyBackend::Direct);
    let config = ServerConfig {
        allow_shutdown: true,
        ..ServerConfig::default()
    };
    let server = Server::bind(("127.0.0.1", 0), config, Arc::new(Registry::new())).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run(&index));
        let mut client = Client::connect(addr).unwrap();
        // A full request-response round first: proof the server was live.
        let events = client
            .query(
                &[strings[0].clone()],
                &QueryOptions {
                    tau: Some(1),
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        assert!(matches!(events.last(), Some(Event::Done { .. })));
        // The protocol op acknowledges *before* the server stops: the
        // done terminator is the drain guarantee.
        client.shutdown().unwrap();
        runner
            .join()
            .expect("server thread panicked")
            .expect("server I/O failure");
        assert!(server.shutdown_handle().is_shutdown());
    });
}

#[test]
fn metrics_op_reports_the_traffic_it_is_part_of() {
    let strings = corpus(80, 11);
    let index = build(&strings, 1, KeyBackend::Owned);
    let registry = Arc::new(Registry::new());
    with_server(
        &index,
        ServerConfig::default(),
        Arc::clone(&registry),
        |addr, _| {
            let mut client = Client::connect(addr).unwrap();
            let queries: Vec<Vec<u8>> = strings.iter().take(6).cloned().collect();
            for chunk in queries.chunks(2) {
                client
                    .query(
                        chunk,
                        &QueryOptions {
                            tau: Some(1),
                            ..QueryOptions::default()
                        },
                    )
                    .unwrap();
            }
            client.request_raw("definitely not json").unwrap();

            let dump = client.metrics(MetricsFormat::Prometheus).unwrap();
            assert_eq!(
                metric_value(&dump, "passjoin_server_queries_total"),
                Some(6)
            );
            // 3 query lines + 1 bad line + the metrics request itself.
            assert_eq!(
                metric_value(&dump, "passjoin_server_requests_total"),
                Some(5)
            );
            assert_eq!(
                metric_value(&dump, "passjoin_server_request_errors_total"),
                Some(1)
            );
            assert_eq!(
                metric_value(&dump, "passjoin_server_connections_total"),
                Some(1)
            );

            // The JSON format parses with the crate's own codec and carries
            // the same counter.
            let json_dump = client.metrics(MetricsFormat::Json).unwrap();
            let parsed =
                passjoin_serve::json::parse(json_dump.as_bytes()).expect("metrics json parses");
            drop(parsed);
            assert!(json_dump.contains("passjoin_server_queries_total"));
        },
    );
}

/// A source that answers from `inner` but panics on `poison`: an engine
/// bug on one input, on both the buffered and the streamed path.
struct PanicsOn<'a> {
    inner: &'a OnlineIndex,
    poison: &'a [u8],
}

impl Queryable for PanicsOn<'_> {
    fn exec_source(&self) -> Option<ExecSource<'_>> {
        self.inner.exec_source()
    }

    fn search_batch(&self, reqs: &[SearchRequest]) -> SearchResponse {
        if reqs.iter().any(|req| req.query() == self.poison) {
            panic!("poison query in a batch");
        }
        self.inner.search_batch(reqs)
    }

    fn search_streaming(&self, req: &SearchRequest, sink: &mut dyn MatchSink) -> QueryOutcome {
        if req.query() == self.poison {
            panic!("poison query in a stream");
        }
        self.inner.search_streaming(req, sink)
    }
}

#[test]
fn an_engine_panic_costs_its_line_and_the_connection_survives() {
    let strings = corpus(60, 21);
    let index = build(&strings, 1, KeyBackend::Owned);
    let poison: &[u8] = b"poison";
    let source = PanicsOn {
        inner: &index,
        poison,
    };
    let queries: Vec<&[u8]> = strings.iter().take(3).map(Vec::as_slice).collect();
    with_server(
        &source,
        ServerConfig::default(),
        Arc::new(Registry::new()),
        |addr, _| {
            let mut client = Client::connect(addr).unwrap();
            for stream in [false, true] {
                let options = QueryOptions {
                    tau: Some(1),
                    stream,
                    ..QueryOptions::default()
                };
                // The poison query sits between two good ones.
                let poisoned = [queries[0], poison, queries[1]];
                let events = client.query(&poisoned, &options).unwrap();
                match events.last() {
                    Some(Event::Error { code, .. }) => {
                        assert_eq!(code, "internal", "stream={stream}")
                    }
                    other => panic!("stream={stream}: wanted an internal error, got {other:?}"),
                }

                // The next line on the same connection is answered in full.
                let events = client.query(&queries, &options).unwrap();
                assert!(
                    matches!(events.last(), Some(Event::Done { queries: 3, .. })),
                    "stream={stream}: {:?}",
                    events.last()
                );
                for (q, query) in queries.iter().enumerate() {
                    let mut got: Vec<(u32, usize)> = events
                        .iter()
                        .filter_map(|e| match e {
                            Event::Match { q: eq, id, d } if *eq == q as u64 => {
                                Some((*id as u32, *d as usize))
                            }
                            _ => None,
                        })
                        .collect();
                    got.sort_unstable();
                    let offline = index.search(&SearchRequest::borrowed(query, 1));
                    assert_eq!(got, *offline.matches, "query {q}, stream={stream}");
                }
            }
            let dump = client.metrics(MetricsFormat::Prometheus).unwrap();
            assert_eq!(
                metric_value(&dump, "passjoin_server_request_errors_total"),
                Some(2)
            );
        },
    );
}
