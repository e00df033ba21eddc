//! `serve`: the JSONL server on loopback, the only workload through
//! `serve`, `store` and the snapshot path. Set-up builds an index over 10⁵
//! Author-like names (τ_max = 3), saves it as a v3 snapshot, opens it with
//! `CheckpointedIndex::open` (mmap + instant), and binds the shipped
//! `Server` with default settings. A closed loop then drives it from this
//! process over two shipped `Client` connections (the host's two cores):
//! `interactive` sends one query per line (τ ∈ {1, 2, 3}; plain, top-k,
//! count-only and streamed lines) and `bulk` sends 512-query lines, the
//! `simjoin client` default. Both connections use default socket settings,
//! so whatever the wire costs is measured, not worked around.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use datagen::{mutate, DatasetKind, DatasetSpec};
use passjoin_online::{
    ExecSource, KeyBackend, Match, MatchSink, OnlineIndex, QueryOutcome, Queryable, Registry,
    SearchRequest, SearchResponse,
};
use passjoin_serve::{Client, Event, QueryOptions, ServeObs, Server, ServerConfig};
use passjoin_store::{CheckpointedIndex, OpenOptions, VerifyState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{check_line, Shape};
use crate::ingest::set_engine_phases;
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, ratio, summary, tail_percentile};
use crate::trace::{self, timed, Span, Trace};
use crate::{out_dir, span_secs, write_trace, Args, SETUP_REPS};

const NAMES: usize = 100_000;
const TAU_MAX: usize = 3;
const BULK_TAU: usize = 1;
/// Queries per bulk line: the `simjoin client` default chunk.
const BULK_LINE: usize = 512;
/// Distinct bulk lines, cycled; one sweep through them is the bulk job
/// whose time `wall_s` reports.
const BULK_LINES: usize = 16;
/// Distinct interactive lines, cycled.
const INTERACTIVE_LINES: usize = 4096;
/// Interactive lines a run must hold for a p90 with ten lines beyond it.
const MIN_INTERACTIVE: usize = 100;
/// Longest a client may wait on one response before the run is abandoned.
const LINE_TIMEOUT: Duration = Duration::from_secs(30);
/// Restarts (open + first answer) the traced run times.
const RESTARTS: usize = 100;

/// One request line of the script.
struct Line {
    queries: Vec<Vec<u8>>,
    tau: usize,
    shape: Shape,
}

impl Line {
    fn options(&self) -> QueryOptions {
        QueryOptions {
            tau: Some(self.tau),
            limit: match self.shape {
                Shape::TopK(k) => Some(k),
                _ => None,
            },
            count: self.shape == Shape::Count,
            stream: self.shape == Shape::Stream,
            ..QueryOptions::default()
        }
    }

    /// The in-process answers to this line's requests.
    fn expected(&self, index: &dyn Queryable) -> Vec<QueryOutcome> {
        self.queries
            .iter()
            .map(|q| {
                let mut req = SearchRequest::borrowed(q, self.tau);
                match self.shape {
                    Shape::TopK(k) => req = req.with_limit(k),
                    Shape::Count => req = req.count_only(),
                    Shape::Plain | Shape::Stream => {}
                }
                index.search(&req)
            })
            .collect()
    }
}

/// Interactive and bulk lines: queries are names with one or two random
/// edits, drawn from the seed.
fn script(names: &[Vec<u8>], seed: u64) -> (Vec<Line>, Vec<Line>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let query = |rng: &mut StdRng| {
        let base = &names[rng.gen_range(0..names.len())];
        let edits = rng.gen_range(1..=2);
        mutate(base, edits, rng)
    };
    let shapes = [Shape::Plain, Shape::TopK(5), Shape::Count, Shape::Stream];
    let interactive = (0..INTERACTIVE_LINES)
        .map(|i| Line {
            queries: vec![query(&mut rng)],
            tau: rng.gen_range(1..=TAU_MAX),
            shape: shapes[i % shapes.len()],
        })
        .collect();
    let bulk = (0..BULK_LINES)
        .map(|_| Line {
            queries: (0..BULK_LINE).map(|_| query(&mut rng)).collect(),
            tau: BULK_TAU,
            shape: Shape::Plain,
        })
        .collect();
    (interactive, bulk)
}

/// Bounds every client wait: a response slower than [`LINE_TIMEOUT`]
/// ends the process with a failure naming the connection.
struct Watchdog {
    origin: Instant,
    /// Per connection: when its pending wait began (ms since origin + 1),
    /// or 0 when it is not waiting.
    armed: [AtomicU64; 2],
    stop: AtomicBool,
}

impl Watchdog {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            armed: [AtomicU64::new(0), AtomicU64::new(0)],
            stop: AtomicBool::new(false),
        }
    }

    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64 + 1
    }

    fn guard<R>(&self, conn: usize, f: impl FnOnce() -> R) -> R {
        self.armed[conn].store(self.now_ms(), Ordering::SeqCst);
        let out = f();
        self.armed[conn].store(0, Ordering::SeqCst);
        out
    }

    fn run(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            for (conn, armed) in self.armed.iter().enumerate() {
                let since = armed.load(Ordering::SeqCst);
                if since != 0 && self.now_ms() - since > LINE_TIMEOUT.as_millis() as u64 {
                    eprintln!(
                        "perfbench: serve: check failed: connection {conn} waited more than {}s for a response",
                        LINE_TIMEOUT.as_secs()
                    );
                    std::process::exit(1);
                }
            }
            thread::sleep(Duration::from_millis(20));
        }
    }
}

/// Delegates to the opened index and records a span around each engine
/// call the server makes. The span's `req` holds the call's query count
/// until [`link`] attaches it to the client line that caused it.
struct TracedSource<'a> {
    inner: &'a CheckpointedIndex,
    trace: &'a Trace,
}

impl Queryable for TracedSource<'_> {
    fn exec_source(&self) -> Option<ExecSource<'_>> {
        None
    }

    fn search(&self, req: &SearchRequest) -> QueryOutcome {
        self.inner.search(req)
    }

    fn search_batch(&self, reqs: &[SearchRequest]) -> SearchResponse {
        self.trace
            .time(0, reqs.len() as u64, "online.search_batch", || {
                self.inner.search_batch(reqs)
            })
    }

    fn search_streaming(&self, req: &SearchRequest, sink: &mut dyn MatchSink) -> QueryOutcome {
        self.trace.time(0, 1, "online.search_streaming", || {
            self.inner.search_streaming(req, sink)
        })
    }

    fn search_batch_streaming(
        &self,
        reqs: &[SearchRequest],
        sinks: &mut [&mut (dyn MatchSink + Send)],
    ) -> SearchResponse {
        self.inner.search_batch_streaming(reqs, sinks)
    }

    fn matches(&self, query: &[u8], tau: usize) -> Vec<Match> {
        self.inner.matches(query, tau)
    }

    fn tau_max(&self) -> usize {
        self.inner.tau_max()
    }

    fn key_backend(&self) -> KeyBackend {
        self.inner.key_backend()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

/// One request line as the client saw it. Its response is kept only when
/// it differs from the connection's first response to the same script
/// line, so memory stays flat however many lines a run sends.
struct Sent {
    line: usize,
    secs: f64,
    response: Result<Option<Vec<Event>>, String>,
}

/// What one connection sent and received.
struct Conn {
    sent: Vec<Sent>,
    /// The first response to each script line.
    first: Vec<Option<Vec<Event>>>,
}

impl Conn {
    /// The response a line received, or `None` after a transport failure.
    fn events<'a>(&'a self, s: &'a Sent) -> Option<&'a [Event]> {
        match &s.response {
            Err(_) => None,
            Ok(Some(own)) => Some(own),
            Ok(None) => self.first[s.line].as_deref(),
        }
    }

    fn queries_answered(&self, lines: &[Line]) -> usize {
        self.sent
            .iter()
            .filter(|s| s.response.is_ok())
            .map(|s| lines[s.line].queries.len())
            .sum()
    }
}

/// What both connections of one closed-loop phase saw.
struct Phase {
    interactive: Conn,
    bulk: Conn,
    secs: f64,
    bytes_written: u64,
}

impl Phase {
    fn queries_answered(&self, interactive: &[Line], bulk: &[Line]) -> usize {
        self.interactive.queries_answered(interactive) + self.bulk.queries_answered(bulk)
    }
}

/// Sends `lines` in order, cycling, one at a time, until `deadline` has
/// passed and at least `min` lines were answered. Stops at the first
/// transport failure: the connection's state is unknown after one.
#[allow(clippy::too_many_arguments)]
fn drive(
    client: &mut Client,
    lines: &[Line],
    deadline: Instant,
    min: usize,
    dog: &Watchdog,
    conn: usize,
    trace: Option<&Trace>,
    name: &'static str,
) -> Conn {
    let root = trace.map(Trace::open);
    let mut sent = Vec::new();
    let mut first: Vec<Option<Vec<Event>>> = vec![None; lines.len()];
    while Instant::now() < deadline || sent.len() < min {
        let i = sent.len() % lines.len();
        let line = &lines[i];
        let options = line.options();
        let t0 = Instant::now();
        let response = timed(
            trace,
            root.map_or(0, |o| o.id),
            sent.len() as u64,
            name,
            || dog.guard(conn, || client.query(&line.queries, &options)),
        );
        let secs = t0.elapsed().as_secs_f64();
        let failed = response.is_err();
        let response = response
            .map(|events| match &first[i] {
                None => {
                    first[i] = Some(events);
                    None
                }
                Some(f) if *f == events => None,
                Some(_) => Some(events),
            })
            .map_err(|e| e.to_string());
        sent.push(Sent {
            line: i,
            secs,
            response,
        });
        if failed {
            break;
        }
    }
    if let (Some(t), Some(root)) = (trace, root) {
        t.close(root, 0, conn as u64, "serve.loop");
    }
    Conn { sent, first }
}

/// Binds a server over `source`, connects both clients and pings them,
/// then hands them to `f`; stops the server through its shutdown handle
/// and joins it before returning.
fn with_server<R>(
    source: &(dyn Queryable + Sync),
    registry: Arc<Registry>,
    dog: &Watchdog,
    f: impl FnOnce(&mut Client, &mut Client, &ServeObs) -> R,
) -> Result<R, String> {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default(), registry)
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let stop = server.shutdown_handle();
    thread::scope(|s| {
        let running = s.spawn(|| server.run(source));
        let out = (|| {
            let mut a = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let mut b = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            dog.guard(0, || a.ping())
                .map_err(|e| format!("first ping: {e}"))?;
            dog.guard(1, || b.ping())
                .map_err(|e| format!("first ping: {e}"))?;
            Ok(f(&mut a, &mut b, server.obs()))
        })();
        stop.shutdown();
        let served = match running.join() {
            Ok(result) => result.map_err(|e| format!("server: {e}")),
            Err(_) => Err("the server thread panicked".to_owned()),
        };
        out.and_then(|r| served.map(|()| r))
    })
}

/// Runs both closed loops against a served index for `budget`.
fn closed_loops(
    a: &mut Client,
    b: &mut Client,
    obs: &ServeObs,
    (interactive, bulk): (&[Line], &[Line]),
    budget: Duration,
    dog: &Watchdog,
    trace: Option<&Trace>,
) -> Phase {
    let bytes_before = obs.bytes_written_total.get();
    let started = Instant::now();
    let deadline = started + budget;
    let (interactive, bulk) = thread::scope(|s| {
        let inter = s.spawn(|| {
            drive(
                a,
                interactive,
                deadline,
                MIN_INTERACTIVE,
                dog,
                0,
                trace,
                "serve.interactive",
            )
        });
        let bulk = drive(b, bulk, deadline, BULK_LINES, dog, 1, trace, "serve.bulk");
        (inter.join().expect("the interactive client panicked"), bulk)
    });
    Phase {
        interactive,
        bulk,
        secs: started.elapsed().as_secs_f64(),
        bytes_written: obs.bytes_written_total.get() - bytes_before,
    }
}

fn open(path: &Path, registry: Option<Arc<Registry>>) -> Result<CheckpointedIndex, String> {
    let mut options = OpenOptions::new().mmap(true).instant(true);
    options.registry = registry;
    CheckpointedIndex::open(path, options).map_err(|e| format!("open {}: {e}", path.display()))
}

/// Waits out the instant open's background verifier, so it never runs
/// inside a timed span.
fn verified(index: &CheckpointedIndex) -> Result<(), String> {
    match index.wait_for_verification() {
        VerifyState::Ok => Ok(()),
        other => Err(format!("snapshot verification: {other:?}")),
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let path = out_dir()?.join(format!("serve-{}.snap", std::process::id()));
    let dog = Watchdog::new();
    let result = thread::scope(|s| {
        let watching = s.spawn(|| dog.run());
        let result = run_with(args, &path, &dog);
        dog.stop.store(true, Ordering::SeqCst);
        watching.join().expect("the watchdog panicked");
        result
    });
    let _ = std::fs::remove_file(&path);
    result
}

fn run_with(args: &Args, path: &Path, dog: &Watchdog) -> Result<Report, String> {
    let trace = args.trace.then(Trace::new);
    let t = trace.as_ref();
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut snapshot_bytes = 0;
    let (mut measured, mut peak_rss) = (None, 0.0);
    // The first set-up is the one served. The others only repeat set-up,
    // after the peak resident set is read: memory the allocator keeps
    // between set-ups would otherwise enter `peak_rss_mb`.
    for rep in 0..SETUP_REPS as u64 {
        let started = Instant::now();
        let root = t.map(Trace::open);
        let p = root.map_or(0, |o| o.id);
        let names = timed(t, p, rep, "datagen.generate", || {
            DatasetSpec::new(DatasetKind::Author, NAMES)
                .with_seed(args.seed)
                .generate()
        });
        let built = timed(t, p, rep, "online.build", || {
            OnlineIndex::from_strings(names.iter(), TAU_MAX)
        });
        snapshot_bytes = timed(t, p, rep, "online.save", || built.save(path))
            .map_err(|e| format!("save {}: {e}", path.display()))?;
        drop(built);
        let index = timed(t, p, rep, "store.open", || open(path, None))?;
        timed(t, p, rep, "store.verify", || verified(&index))?;
        let lines = script(&names, args.seed);
        let phase = with_server(&index, Arc::new(Registry::new()), dog, |a, b, obs| {
            setup_s.push(started.elapsed().as_secs_f64());
            if let (Some(t), Some(root)) = (t, root) {
                t.close(root, 0, rep, "setup");
            }
            (rep == 0)
                .then(|| closed_loops(a, b, obs, (&lines.0, &lines.1), args.budget(1.0), dog, None))
        })?;
        if let Some(phase) = phase {
            peak_rss = peak_rss_mb()?;
            measured = Some((index, lines, phase));
        }
    }
    let (index, (interactive, bulk), phase) = measured.expect("the first set-up is served");

    check_phase(&mut report, &phase, &index, (&interactive, &bulk));
    let inter_s: Vec<f64> = phase.interactive.sent.iter().map(|s| s.secs).collect();
    let bulk_s: Vec<f64> = phase.bulk.sent.iter().map(|s| s.secs).collect();
    let qps = phase.queries_answered(&interactive, &bulk) as f64 / phase.secs;
    println!(
        "serve: {} names; {} interactive lines ({}); {} bulk lines of {BULK_LINE} ({}); {:.3} s; snapshot {snapshot_bytes} B",
        index.len(),
        inter_s.len(),
        summary(&inter_s),
        bulk_s.len(),
        summary(&bulk_s),
        phase.secs
    );
    report.set("setup_s", median(&setup_s));
    // Line times cluster around the wire's timer steps, so a median line
    // jumps between steps; a sweep of sixteen lines sums over them.
    let sweep_s: Vec<f64> = bulk_s
        .chunks_exact(BULK_LINES)
        .map(|sweep| sweep.iter().sum())
        .collect();
    report.set("wall_s", median(&sweep_s));
    report.set("qps", qps);
    report.set("p50_ms", median(&inter_s) * 1e3);
    report.set("p90_ms", tail_percentile(&inter_s, 90)? * 1e3);
    report.set("peak_rss_mb", peak_rss);

    if let Some(t) = t {
        let registry = Arc::new(Registry::new());
        let observed = t.time(0, 0, "store.open", || {
            open(path, Some(Arc::clone(&registry)))
        })?;
        verified(&observed)?;
        let source = TracedSource {
            inner: &observed,
            trace: t,
        };
        let traced = with_server(&source, Arc::clone(&registry), dog, |a, b, obs| {
            closed_loops(
                a,
                b,
                obs,
                (&interactive, &bulk),
                args.budget(1.0),
                dog,
                Some(t),
            )
        })?;
        check_phase(&mut report, &traced, &observed, (&interactive, &bulk));
        let traced_qps = traced.queries_answered(&interactive, &bulk) as f64 / traced.secs;
        let resident_bytes = observed.stats().resident_bytes;
        drop(observed);
        restarts(t, path, &interactive[0])?;

        let spans = write_trace("serve", t, link)?;
        report.set("online.build_s", median(&span_secs(&spans, "online.build")));
        report.set("online.save_s", median(&span_secs(&spans, "online.save")));
        report.set("persist.snapshot_bytes", snapshot_bytes as f64);
        report.set(
            "store.open_ms",
            median(&span_secs(&spans, "store.open")) * 1e3,
        );
        report.set(
            "online.first_answer_ms",
            median(&span_secs(&spans, "online.first_answer")) * 1e3,
        );
        report.set("online.resident_bytes", resident_bytes as f64);
        set_engine_phases(&mut report, &registry);
        set_line_metrics(&mut report, &spans, &traced, &interactive, &bulk)?;
        report.set("obs.overhead", qps / traced_qps - 1.0);
        report.set(
            "error_rate",
            ratio(report.failed as f64, report.attempted as f64),
        );
    }
    Ok(report)
}

/// Every line's answer equals the in-process answer of the same requests
/// on the same index. Lines failed by transport, error terminators or
/// wrong answers all count as failed.
fn check_phase(
    report: &mut Report,
    phase: &Phase,
    index: &CheckpointedIndex,
    (interactive, bulk): (&[Line], &[Line]),
) {
    for (conn, lines) in [(&phase.interactive, interactive), (&phase.bulk, bulk)] {
        let mut expected: Vec<Option<Vec<QueryOutcome>>> = (0..lines.len()).map(|_| None).collect();
        report.attempt(conn.sent.len() as u64);
        for s in &conn.sent {
            let line = &lines[s.line];
            let verdict = match (&s.response, conn.events(s)) {
                (Err(e), _) => Err(format!("transport: {e}")),
                (Ok(_), None) => Err("no recorded response".to_owned()),
                (Ok(_), Some(events)) => {
                    let want = expected[s.line].get_or_insert_with(|| line.expected(index));
                    check_line(line.shape, events, want)
                }
            };
            if let Err(e) = verdict {
                report.fail(1, "wire answers against in-process search", &e);
            }
        }
    }
}

/// Times `RESTARTS` restarts to first answer: open the snapshot (mmap +
/// instant), answer one query, then wait out the background verifier
/// outside the spans.
fn restarts(t: &Trace, path: &Path, first: &Line) -> Result<(), String> {
    let root = t.open();
    let req = SearchRequest::borrowed(&first.queries[0], first.tau);
    for i in 0..RESTARTS as u64 {
        let index = t.time(root.id, i, "store.open", || open(path, None))?;
        t.time(root.id, i, "online.first_answer", || index.search(&req));
        verified(&index)?;
    }
    t.close(root, 0, 0, "serve.restarts");
    Ok(())
}

/// Attaches each engine span to the client line that caused it: the line
/// of the same kind (one query: interactive; more: bulk) whose interval
/// contains it. At most one line per connection is in flight at a time.
fn link(spans: &mut [Span]) {
    let lines = |name: &str, spans: &[Span]| -> Vec<(u64, u64, u64, u64)> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.start_ns, s.end_ns, s.id, s.req))
            .collect()
    };
    let interactive = lines("serve.interactive", spans);
    let bulk = lines("serve.bulk", spans);
    for s in spans.iter_mut() {
        if s.name != "online.search_batch" && s.name != "online.search_streaming" {
            continue;
        }
        let kind = if s.req == 1 { &interactive } else { &bulk };
        let at = kind.partition_point(|l| l.0 <= s.start_ns);
        if let Some(&(start, end, id, req)) = at.checked_sub(1).map(|i| &kind[i]) {
            if start <= s.start_ns && s.end_ns <= end {
                s.parent = id;
                s.req = req;
            }
        }
    }
}

/// Client-observed time per line split into engine (the line's engine
/// spans) and wire (the rest: encode, socket, decode), plus the response
/// shape per line.
fn set_line_metrics(
    report: &mut Report,
    spans: &[Span],
    phase: &Phase,
    interactive: &[Line],
    bulk: &[Line],
) -> Result<(), String> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.name.starts_with("online.search")) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let split = |name: &str| -> Vec<(u64, u64, u64)> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
                let wire = trace::self_time(s.start_ns, s.end_ns, kids);
                (s.dur_ns(), s.dur_ns() - wire, wire)
            })
            .collect()
    };
    let inter = split("serve.interactive");
    let bulk_split = split("serve.bulk");
    let ms = |v: Vec<u64>| -> Vec<f64> { v.into_iter().map(|ns| ns as f64 / 1e6).collect() };
    let engine_ms = ms(inter.iter().map(|l| l.1).collect());
    report.set("online.engine_ms.p50", median(&engine_ms));
    report.set("online.engine_ms.p90", tail_percentile(&engine_ms, 90)?);
    report.set(
        "online.bulk_engine_ms.p50",
        median(&ms(bulk_split.iter().map(|l| l.1).collect())),
    );
    report.set(
        "serve.wire_ms.p50",
        median(&ms(inter.iter().map(|l| l.2).collect())),
    );
    let (client, engine) = inter
        .iter()
        .chain(&bulk_split)
        .fold((0, 0), |(c, e), l| (c + l.0, e + l.1));
    report.set(
        "serve.wire_share",
        1.0 - ratio(engine as f64, client as f64),
    );
    let unlinked = spans
        .iter()
        .filter(|s| s.name.starts_with("online.search") && s.parent == 0)
        .count();
    println!(
        "serve: {} interactive lines: client {:.3} ms = engine {:.3} ms + wire {:.3} ms, wire being each line's self time; {unlinked} engine calls outside any line",
        inter.len(),
        inter.iter().map(|l| l.0).sum::<u64>() as f64 / 1e6,
        inter.iter().map(|l| l.1).sum::<u64>() as f64 / 1e6,
        inter.iter().map(|l| l.2).sum::<u64>() as f64 / 1e6,
    );

    let answered = [&phase.interactive, &phase.bulk]
        .into_iter()
        .flat_map(|conn| conn.sent.iter().filter_map(|s| conn.events(s)));
    let (mut lines, mut events, mut candidates, mut verifications, mut matches) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for response in answered {
        lines += 1;
        events += response.len() as u64;
        if let Some(Event::Done {
            candidates: c,
            verifications: v,
            matches: m,
            ..
        }) = response.last()
        {
            candidates += c;
            verifications += v;
            matches += m;
        }
    }
    let queries = phase.queries_answered(interactive, bulk) as f64;
    report.set("serve.response_lines", ratio(events as f64, lines as f64));
    report.set(
        "serve.bytes_per_query",
        ratio(phase.bytes_written as f64, queries),
    );
    report.set("online.candidates", ratio(candidates as f64, queries));
    report.set("online.verifications", ratio(verifications as f64, queries));
    report.set(
        "online.matches_per_verification",
        ratio(matches as f64, verifications as f64),
    );
    Ok(())
}
