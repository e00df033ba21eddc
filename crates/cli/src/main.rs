//! `simjoin` — string similarity joins and online similarity search over
//! newline-delimited files.
//!
//! ```text
//! # batch self-join (the original mode)
//! simjoin corpus.txt --tau 2 --stats
//! simjoin corpus.txt --tau 3 --algorithm pass-par --threads 8 --out pairs.tsv
//!
//! # online subsystem
//! simjoin index corpus.txt --tau-max 3 --stats
//! simjoin query corpus.txt --tau 2 --queries queries.txt --threads 8
//! simjoin repl  corpus.txt --tau 2 --tau-max 3
//!
//! # persistence: index once, serve from the snapshot (no rebuild)
//! simjoin index corpus.txt --tau-max 3 --save corpus.snap
//! simjoin query --load corpus.snap --tau 2 --queries queries.txt
//! simjoin repl  --load corpus.snap
//!
//! # instant restart: map the snapshot and checkpoint mutations as deltas
//! # (an existing <snap>.delta-* chain is detected and replayed on load)
//! simjoin serve --load corpus.snap --mmap --checkpoint-every 30
//! simjoin repl  --load corpus.snap --save-delta
//!
//! # streaming + budgets: emit matches as they verify, cap work per query
//! simjoin query corpus.txt --tau 2 --queries q.txt --stream --max-verify 1000 --stats
//!
//! # observability: wall-clock deadlines, metrics dump after the run
//! simjoin query corpus.txt --tau 2 --queries q.txt --deadline-ms 250 --stats
//! simjoin query corpus.txt --tau 2 --queries q.txt --metrics 2> metrics.prom
//! ```
//!
//! Join mode prints one `i<TAB>j` pair of 0-based input line numbers per
//! result. Query mode reads one query per line (from `--queries` or stdin)
//! and prints `q<TAB>id<TAB>dist` per match, where `q` is the query's line
//! number and `id` the corpus line number. The repl reads queries
//! interactively and accepts `:add`, `:rm`, `:tau`, `:stats`, `:help`,
//! `:quit` commands.

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use passjoin_online::{
    is_sharded_snapshot, wall_deadline, CacheOutcome, CachePolicy, CacheStats, Completion,
    EngineObs, ExecBudget, ExecStats, MatchSink, OnlineIndex, OnlineStats, Parallelism,
    PersistError, QueryOutcome, Queryable, Registry, SearchRequest, SearchResponse, ShardedIndex,
    WallClockTicks,
};
use passjoin_serve::proto::{BudgetSpec, MetricsFormat};
use passjoin_serve::{Client, Event, QueryOptions, Server, ServerConfig};
use passjoin_setsim::{sorted_overlap, DedupPipeline, SetMetric, SetSimObs, TokenMode, UnionFind};
use passjoin_store::{find_chain, CheckpointedIndex, Checkpointer, OpenOptions as StoreOptions};
use simjoin_cli::{
    corpus_lines, ClientConfig, Command, Config, DedupConfig, DedupMetric, IndexSource,
    ServeConfig, ServeMode, USAGE,
};

fn main() -> ExitCode {
    let command = match Command::parse(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("simjoin: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match command {
        Command::Join(config) => run_join(&config),
        Command::Serve(config) => run_serve(&config),
        Command::Client(config) => run_client(&config),
        Command::Dedup(config) => run_dedup(&config),
    }
}

/// Streams a corpus through query-before-insert and reports the
/// near-duplicate clusters, one per line (tab-separated member ids, ids
/// = 0-based line numbers). Set metrics run the `passjoin-setsim`
/// prefix-filter pipeline; `--metric edit` runs the same
/// query-before-insert loop over the edit-distance engine.
fn run_dedup(config: &DedupConfig) -> ExitCode {
    // Bytes, not text: the set-similarity tokenizers are byte-transparent
    // and dedup must survive non-UTF-8 corpora.
    let bytes = match std::fs::read(&config.input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("simjoin: cannot read {}: {e}", config.input.display());
            return ExitCode::FAILURE;
        }
    };
    let mut records: Vec<&[u8]> = if bytes.is_empty() {
        Vec::new()
    } else {
        bytes.split(|&b| b == b'\n').collect()
    };
    if bytes.ends_with(b"\n") {
        records.pop(); // trailing newline, not a final empty record
    }

    let registry = config.metrics.then(|| Arc::new(Registry::new()));
    let started = Instant::now();
    let (clusters, totals, matched) = match config.metric {
        DedupMetric::Edit => {
            let tau = config.threshold as usize;
            let mut index = OnlineIndex::new(tau);
            if let Some(registry) = &registry {
                index.set_observability(Some(Arc::new(EngineObs::with_registry(Arc::clone(
                    registry,
                )))));
            }
            let mut uf = UnionFind::new(records.len());
            let mut totals = ExecStats::default();
            let mut matched = 0u64;
            for rec in &records {
                let outcome = index.search(&SearchRequest::borrowed(rec, tau));
                totals.merge(&outcome.stats);
                let id = index.insert(rec);
                for &(m, _) in outcome.matches.iter() {
                    uf.union(id, m);
                }
                if outcome.count > 0 {
                    matched += 1;
                }
            }
            (uf.clusters(), totals, matched)
        }
        set_metric => {
            let metric = match set_metric {
                DedupMetric::Jaccard => SetMetric::Jaccard,
                DedupMetric::Cosine => SetMetric::Cosine,
                DedupMetric::Overlap => SetMetric::Overlap,
                DedupMetric::Edit => unreachable!("handled above"),
            };
            let mode = if config.words {
                TokenMode::Words
            } else {
                TokenMode::Grams { q: config.q }
            };
            let mut pipeline = DedupPipeline::new(mode, metric, config.threshold);
            if let Some(registry) = &registry {
                pipeline = pipeline
                    .with_observability(Arc::new(SetSimObs::with_registry(Arc::clone(registry))));
            }
            for rec in &records {
                pipeline.push(rec);
            }
            let (stats, matched) = (*pipeline.stats(), pipeline.matched_records());
            (pipeline.clusters(), stats, matched)
        }
    };
    let elapsed = started.elapsed();

    let mut out: Box<dyn Write> = match &config.output {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Box::new(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("simjoin: cannot create {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(std::io::BufWriter::new(std::io::stdout().lock())),
    };
    for cluster in &clusters {
        let line = cluster
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join("\t");
        if writeln!(out, "{line}").is_err() {
            return ExitCode::FAILURE;
        }
    }
    if out.flush().is_err() {
        return ExitCode::FAILURE;
    }
    drop(out);

    if config.stats {
        let clustered: usize = clusters.iter().map(Vec::len).sum();
        eprintln!(
            "simjoin: dedup {} records -> {} clusters ({} members, {} matched on arrival) \
             in {:.3?} (candidates={} verifications={} matches={})",
            records.len(),
            clusters.len(),
            clustered,
            matched,
            elapsed,
            totals.candidates,
            totals.verifications,
            totals.segment_matches,
        );
    }
    if let Some(registry) = &registry {
        eprint!("{}", registry.render_prometheus());
    }

    if let Some(path) = &config.truth {
        // The expected partition is the transitive closure of the planted
        // pairs *that satisfy the requested predicate*: a planted edit on
        // a short record can push its similarity below the threshold, and
        // a correct engine must not match it.
        let similar: Box<SimilarPredicate> = match config.metric {
            DedupMetric::Edit => {
                let tau = config.threshold as usize;
                Box::new(move |a, b| editdist::banded_within(a, b, tau).is_some())
            }
            set_metric => {
                let metric = match set_metric {
                    DedupMetric::Jaccard => SetMetric::Jaccard,
                    DedupMetric::Cosine => SetMetric::Cosine,
                    DedupMetric::Overlap => SetMetric::Overlap,
                    DedupMetric::Edit => unreachable!("handled above"),
                };
                let mode = if config.words {
                    TokenMode::Words
                } else {
                    TokenMode::Grams { q: config.q }
                };
                let threshold = config.threshold;
                Box::new(move |a, b| {
                    let (x, y) = (mode.token_set(a), mode.token_set(b));
                    let o = sorted_overlap(&x, &y);
                    o > 0 && metric.accepts(threshold, o, x.len(), y.len())
                })
            }
        };
        match verify_truth(path, &records, &clusters, &similar) {
            Ok((n, dropped)) => eprintln!(
                "simjoin: clusters match truth ({n} clusters; {dropped} planted pairs below threshold)"
            ),
            Err(e) => {
                eprintln!("simjoin: cluster/truth mismatch: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The similarity predicate a dedup run was configured with, rebuilt
/// for truth verification.
type SimilarPredicate = dyn Fn(&[u8], &[u8]) -> bool;

/// Checks the found clusters against a planted-duplicate truth file
/// (`dup<TAB>base` id pairs): the clusters must equal the transitive
/// closure of the truth pairs whose records actually satisfy the
/// requested similarity predicate (planted edits on short records can
/// land below the threshold, and a correct engine must not match
/// those). Returns the cluster count and how many planted pairs the
/// predicate dropped.
fn verify_truth(
    path: &std::path::Path,
    records: &[&[u8]],
    clusters: &[Vec<u32>],
    similar: &dyn Fn(&[u8], &[u8]) -> bool,
) -> Result<(usize, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read truth file: {e}"))?;
    let mut uf = UnionFind::new(records.len());
    let mut dropped = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let pair = (
            parts.next().and_then(|v| v.parse::<u32>().ok()),
            parts.next().and_then(|v| v.parse::<u32>().ok()),
        );
        let (Some(dup), Some(base)) = pair else {
            return Err(format!("truth line {} is not 'dup\\tbase'", lineno + 1));
        };
        if (dup as usize) >= records.len() || (base as usize) >= records.len() {
            return Err(format!("truth line {} out of range", lineno + 1));
        }
        if similar(records[dup as usize], records[base as usize]) {
            uf.union(dup, base);
        } else {
            dropped += 1;
        }
    }
    let expected = uf.clusters();
    if expected == clusters {
        Ok((expected.len(), dropped))
    } else {
        let divergent = expected
            .iter()
            .zip(clusters.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(expected.len().min(clusters.len()));
        Err(format!(
            "expected {} clusters, found {}; first divergence at cluster #{divergent}",
            expected.len(),
            clusters.len(),
        ))
    }
}

fn run_join(config: &Config) -> ExitCode {
    let collection = match datagen::io::load_lines(&config.input) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("simjoin: cannot read {}: {e}", config.input.display());
            return ExitCode::FAILURE;
        }
    };

    let out = config.run(&collection);

    let mut pairs = out.pairs.clone();
    pairs.sort_unstable();
    let write_result = match &config.output {
        Some(path) => write_pairs(&pairs, std::fs::File::create(path)),
        None => write_pairs(&pairs, Ok(std::io::stdout().lock())),
    };
    if let Err(e) = write_result {
        eprintln!("simjoin: write failed: {e}");
        return ExitCode::FAILURE;
    }

    if config.stats {
        eprintln!(
            "simjoin: {} strings, tau={}, {} pairs in {:?} [{}]",
            collection.len(),
            config.tau,
            pairs.len(),
            out.elapsed,
            out.stats
        );
    }
    ExitCode::SUCCESS
}

fn write_pairs<W: Write>(pairs: &[(u32, u32)], sink: std::io::Result<W>) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(sink?);
    for (a, b) in pairs {
        writeln!(w, "{a}\t{b}")?;
    }
    w.flush()
}

/// The index behind a serve-mode run: a plain [`OnlineIndex`], the
/// `--shards` router, or the storage subsystem's checkpointed wrapper
/// (any of `--mmap`, `--save-delta`, `--checkpoint-every`, or a loaded
/// snapshot with an existing delta chain). All are [`Queryable`], so
/// everything downstream of construction/persistence is shared.
enum AnyIndex {
    Single(OnlineIndex),
    Sharded(ShardedIndex),
    Checkpointed(Arc<CheckpointedIndex>),
}

impl AnyIndex {
    fn tau_max(&self) -> usize {
        match self {
            AnyIndex::Single(index) => index.tau_max(),
            AnyIndex::Sharded(router) => router.tau_max(),
            AnyIndex::Checkpointed(store) => Queryable::tau_max(&**store),
        }
    }

    fn save(&self, path: &std::path::Path) -> Result<u64, PersistError> {
        match self {
            AnyIndex::Single(index) => index.save(path),
            AnyIndex::Sharded(router) => router.save_sharded(path),
            // Compaction: a full snapshot of base + replayed chain +
            // session mutations; the new file starts an empty chain.
            AnyIndex::Checkpointed(store) => store.save_full(path),
        }
    }
}

fn run_serve(config: &ServeConfig) -> ExitCode {
    // One registry per process: `--metrics` dumps it after the run, the
    // repl serves it interactively via `:metrics`, and the network
    // server exposes it through the `metrics` protocol op (engine and
    // server metrics in one scrape). Absent all three, no observability
    // is attached and the engine runs uninstrumented.
    let registry = (config.mode == ServeMode::Serve).then(|| Arc::new(Registry::new()));
    let obs = match (&registry, config.metrics || config.mode == ServeMode::Repl) {
        (Some(registry), _) => Some(Arc::new(EngineObs::with_registry(Arc::clone(registry)))),
        (None, true) => Some(Arc::new(EngineObs::new())),
        (None, false) => None,
    };
    let mut index = match obtain_index(config, obs.as_ref()) {
        Ok(index) => index,
        Err(message) => {
            eprintln!("simjoin: {message}");
            return ExitCode::FAILURE;
        }
    };

    let tau = match config.resolve_tau(index.tau_max()) {
        Ok(tau) => tau,
        Err(message) => {
            eprintln!("simjoin: {message}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &config.save {
        let started = Instant::now();
        match index.save(path) {
            Ok(bytes) => {
                if config.stats || config.mode == ServeMode::Index {
                    eprintln!(
                        "simjoin: saved snapshot to {} ({} KB in {:.3?})",
                        path.display(),
                        bytes / 1024,
                        started.elapsed(),
                    );
                }
            }
            Err(e) => {
                eprintln!("simjoin: cannot save snapshot {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let code = match (config.mode, &mut index) {
        (ServeMode::Index, _) => ExitCode::SUCCESS,
        (ServeMode::Query, AnyIndex::Single(index)) => {
            // Loaded snapshots are served read-only through a `Snapshot`;
            // corpus builds are queried directly. `Queryable` is
            // object-safe, so one binding covers both source kinds.
            let snapshot;
            let source: &dyn Queryable = match &config.source {
                IndexSource::Snapshot(_) => {
                    snapshot = index.snapshot();
                    &snapshot
                }
                IndexSource::Corpus(_) => &*index,
            };
            run_query_batch(config, tau, source)
        }
        (ServeMode::Query, AnyIndex::Sharded(router)) => {
            // The router is already a read-composed view over its
            // shards; query it directly.
            run_query_batch(config, tau, &*router)
        }
        (ServeMode::Query, AnyIndex::Checkpointed(store)) => {
            // Base + replayed chain, served read-only through the
            // wrapper's read lock.
            run_query_batch(config, tau, &**store)
        }
        (ServeMode::Serve, index) => {
            // The background checkpointer drains the wrapper's mutation
            // log on the interval and once more after the server stops.
            let checkpointer = match (&*index, config.checkpoint_every) {
                (AnyIndex::Checkpointed(store), Some(secs)) => Some(Checkpointer::start(
                    Arc::clone(store),
                    Duration::from_secs(secs),
                )),
                _ => None,
            };
            let snapshot;
            let source: &(dyn Queryable + Sync) = match (&config.source, &*index) {
                (IndexSource::Snapshot(_), AnyIndex::Single(index)) => {
                    snapshot = index.snapshot();
                    &snapshot
                }
                (_, AnyIndex::Single(index)) => index,
                (_, AnyIndex::Sharded(router)) => router,
                (_, AnyIndex::Checkpointed(store)) => &**store,
            };
            let registry = registry
                .as_ref()
                .expect("serve mode always builds a registry");
            let code = run_server(config, tau, source, registry);
            match checkpointer.map(Checkpointer::stop) {
                Some(Some(e)) => {
                    eprintln!(
                        "simjoin: final checkpoint failed: {e} (mutations since the last \
                         completed delta are not persisted)"
                    );
                    ExitCode::FAILURE
                }
                _ => code,
            }
        }
        (ServeMode::Repl, AnyIndex::Single(index)) => {
            let obs = obs
                .as_ref()
                .expect("the repl always attaches observability");
            run_repl(tau, ReplIndex::Plain(index), obs)
        }
        (ServeMode::Repl, AnyIndex::Checkpointed(store)) => {
            let obs = obs
                .as_ref()
                .expect("the repl always attaches observability");
            let code = run_repl(tau, ReplIndex::Checkpointed(store), obs);
            if config.save_delta {
                let pending = store.pending_ops();
                match store.checkpoint() {
                    Ok(Some(path)) => {
                        eprintln!(
                            "simjoin: wrote delta checkpoint {} ({pending} ops)",
                            path.display()
                        );
                    }
                    Ok(None) => eprintln!("simjoin: no mutations to checkpoint"),
                    Err(e) => {
                        eprintln!("simjoin: delta checkpoint failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            code
        }
        (ServeMode::Repl, AnyIndex::Sharded(_)) => {
            eprintln!("simjoin: the repl cannot serve a sharded snapshot (it mutates one index)");
            ExitCode::FAILURE
        }
    };

    if config.metrics {
        if let Some(obs) = &obs {
            match &index {
                AnyIndex::Single(index) => obs.record_index_stats(&index.stats()),
                AnyIndex::Checkpointed(store) => obs.record_index_stats(&store.stats()),
                AnyIndex::Sharded(_) => {}
            }
            eprint!("{}", obs.render_prometheus());
        }
    }
    code
}

/// Builds the index from the corpus (single or `--shards` router), or
/// loads it from a snapshot (probing for a router manifest first) —
/// reporting failures (missing files, corrupt or incompatible snapshots)
/// as messages, never panics.
fn obtain_index(config: &ServeConfig, obs: Option<&Arc<EngineObs>>) -> Result<AnyIndex, String> {
    match &config.source {
        IndexSource::Corpus(corpus) => {
            let text = std::fs::read_to_string(corpus)
                .map_err(|e| format!("cannot read {}: {e}", corpus.display()))?;
            let lines = corpus_lines(&text);
            let built = Instant::now();
            if config.shards > 1 {
                let mut router = config.build_router(&lines);
                router.set_observability(obs.map(|o| Arc::clone(o.registry())));
                if config.stats || config.mode == ServeMode::Index {
                    eprintln!(
                        "simjoin: indexed {} strings across {} shards (tau_max={}, {} keys, \
                         {} partitioning) in {:.3?}",
                        router.len(),
                        router.shard_count(),
                        config.tau_max,
                        router.key_backend().name(),
                        config.shard_by.name(),
                        built.elapsed(),
                    );
                }
                return Ok(AnyIndex::Sharded(router));
            }
            let mut index = config.build_index(&lines);
            index.set_observability(obs.map(Arc::clone));
            if config.stats || config.mode == ServeMode::Index {
                let s = index.stats();
                eprintln!(
                    "simjoin: indexed {} strings (tau_max={}, {} keys) in {:.3?}: \
                     {} segment entries, {} short-lane, ~{} KB resident",
                    s.live,
                    config.tau_max,
                    index.key_backend().name(),
                    built.elapsed(),
                    s.segment_entries,
                    s.short_strings,
                    s.resident_bytes / 1024,
                );
            }
            Ok(AnyIndex::Single(index))
        }
        IndexSource::Snapshot(snapshot) => {
            let started = Instant::now();
            if is_sharded_snapshot(snapshot)
                .map_err(|e| format!("cannot open snapshot {}: {e}", snapshot.display()))?
            {
                if config.mmap || config.save_delta || config.checkpoint_every.is_some() {
                    return Err(
                        "--mmap/--save-delta/--checkpoint-every need a single-index snapshot; \
                         sharded snapshots are one file per shard"
                            .into(),
                    );
                }
                let mut router = ShardedIndex::load_sharded(snapshot)
                    .map_err(|e| format!("cannot load snapshot {}: {e}", snapshot.display()))?;
                router.set_observability(obs.map(|o| Arc::clone(o.registry())));
                if config.stats {
                    eprintln!(
                        "simjoin: loaded {} strings across {} shards (tau_max={}, {} keys, \
                         {} partitioning) in {:.3?} from {}",
                        router.len(),
                        router.shard_count(),
                        router.tau_max(),
                        router.key_backend().name(),
                        router.shard_by().name(),
                        started.elapsed(),
                        snapshot.display(),
                    );
                }
                return Ok(AnyIndex::Sharded(router));
            }
            // The storage subsystem takes over whenever its features are
            // asked for — or whenever the snapshot already owns a delta
            // chain, so `--load` alone recovers checkpointed state
            // instead of silently serving a stale base.
            let anchor = config.checkpoint_path.as_deref().unwrap_or(snapshot);
            let chain = find_chain(anchor);
            if config.mmap
                || config.save_delta
                || config.checkpoint_every.is_some()
                || !chain.is_empty()
            {
                // `--mmap` means the full instant-restart path: mapped
                // pages *and* deferred validation — the store's
                // background verifier runs the snapshot check while
                // queries are already served.
                let mut options = StoreOptions::new().mmap(config.mmap).instant(config.mmap);
                if let Some(path) = &config.checkpoint_path {
                    options = options.checkpoint_base(path.clone());
                }
                if let Some(obs) = obs {
                    options = options.registry(Arc::clone(obs.registry()));
                }
                let store = CheckpointedIndex::open(snapshot, options)
                    .map_err(|e| format!("cannot load snapshot {}: {e}", snapshot.display()))?;
                store.set_cache_capacity(config.cache);
                if config.stats {
                    let s = store.stats();
                    eprintln!(
                        "simjoin: loaded {} strings (tau_max={}, {} keys) in {:.3?} from {}{} \
                         (+{} delta checkpoint(s) replayed)",
                        s.live,
                        Queryable::tau_max(&store),
                        store.key_backend().name(),
                        started.elapsed(),
                        snapshot.display(),
                        if config.mmap { " [mmap]" } else { "" },
                        chain.len(),
                    );
                }
                return Ok(AnyIndex::Checkpointed(Arc::new(store)));
            }
            // `load_with` also attributes the load itself (read/decode/
            // validate timings, section bytes) to the registry.
            let mut index = match obs {
                Some(obs) => OnlineIndex::load_with(snapshot, Arc::clone(obs)),
                None => OnlineIndex::load(snapshot),
            }
            .map_err(|e| format!("cannot load snapshot {}: {e}", snapshot.display()))?;
            index.set_cache_capacity(config.cache);
            if config.stats {
                let s = index.stats();
                eprintln!(
                    "simjoin: loaded {} strings (tau_max={}, {} keys) in {:.3?} from {}: \
                     {} segment entries, {} short-lane, ~{} KB resident",
                    s.live,
                    index.tau_max(),
                    index.key_backend().name(),
                    started.elapsed(),
                    snapshot.display(),
                    s.segment_entries,
                    s.short_strings,
                    s.resident_bytes / 1024,
                );
            }
            Ok(AnyIndex::Single(index))
        }
    }
}

fn run_query_batch(config: &ServeConfig, tau: usize, source: &dyn Queryable) -> ExitCode {
    let queries: Vec<Vec<u8>> = match &config.queries {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => corpus_lines(&text),
            Err(e) => {
                eprintln!("simjoin: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut lines = Vec::new();
            for line in std::io::stdin().lock().lines() {
                match line {
                    Ok(l) => lines.push(l.into_bytes()),
                    Err(e) => {
                        eprintln!("simjoin: stdin read failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            lines
        }
    };

    let parallelism = match config.threads {
        0 => Parallelism::Auto,
        1 => Parallelism::Serial,
        n => Parallelism::Threads(n),
    };
    // The deadline is absolute — `--deadline-ms N` means "N ms after the
    // batch starts", shared by every request, so a slow prefix leaves the
    // tail less time (the serving-latency semantics, not per-query slack).
    let ticker = config
        .deadline_ms
        .map(|_| Arc::new(WallClockTicks::millis()));
    let budget = if config.max_verify.is_some() || config.deadline_ms.is_some() {
        let mut budget = ExecBudget::new();
        if let Some(n) = config.max_verify {
            budget = budget.with_max_verifications(n);
        }
        if let (Some(ms), Some(ticker)) = (config.deadline_ms, &ticker) {
            let (source, expires_at) = wall_deadline(ticker, ms);
            budget = budget.with_deadline(source, expires_at);
        }
        Some(budget)
    } else {
        None
    };
    let requests: Vec<SearchRequest> = queries
        .iter()
        .map(|q| {
            let mut req = SearchRequest::borrowed(q, tau).with_parallelism(parallelism);
            if let Some(k) = config.limit {
                req = req.with_limit(k);
            }
            if config.count_only {
                req = req.count_only();
            }
            if let Some(b) = &budget {
                req = req.with_budget(b.clone());
            }
            req
        })
        .collect();

    let started = Instant::now();
    let response = if config.stream {
        // Push-based: each `q<TAB>id<TAB>dist` line goes out the moment
        // verification accepts the match (stdout is line-buffered), in
        // emission order — sort to compare with the buffered output. A
        // failed write saturates the sink, aborting the in-flight scan
        // and the rest of the batch, so `simjoin … --stream | head`
        // costs one query's tail, not the whole corpus.
        let mut w = std::io::stdout().lock();
        let mut failed = false;
        let mut outcomes = Vec::with_capacity(requests.len());
        for (q, req) in requests.iter().enumerate() {
            let mut sink = StreamWriter {
                w: &mut w,
                q,
                failed: &mut failed,
            };
            let outcome = source.search_streaming(req, &mut sink);
            if failed {
                return ExitCode::FAILURE;
            }
            if config.count_only && writeln!(w, "{q}\t{}", outcome.count).is_err() {
                return ExitCode::FAILURE;
            }
            outcomes.push(outcome);
        }
        SearchResponse { outcomes }
    } else {
        source.search_batch(&requests)
    };
    let elapsed = started.elapsed();

    if !config.stream {
        let stdout = std::io::stdout().lock();
        let mut w = std::io::BufWriter::new(stdout);
        for (q, outcome) in response.outcomes.iter().enumerate() {
            if config.count_only {
                if writeln!(w, "{q}\t{}", outcome.count).is_err() {
                    return ExitCode::FAILURE;
                }
                continue;
            }
            for (id, dist) in outcome.matches.iter() {
                if writeln!(w, "{q}\t{id}\t{dist}").is_err() {
                    return ExitCode::FAILURE;
                }
            }
        }
        if w.flush().is_err() {
            return ExitCode::FAILURE;
        }
    }

    if config.stats {
        let totals = response.totals();
        let per_sec = queries.len() as f64 / elapsed.as_secs_f64().max(f64::EPSILON);
        eprintln!(
            "simjoin: {} queries, tau={}, {} matches in {:.3?} ({:.0} queries/s; {}{})",
            queries.len(),
            tau,
            totals.matches,
            elapsed,
            per_sec,
            totals.stats,
            truncation_summary(&response),
        );
    }
    ExitCode::SUCCESS
}

/// Serves the index over TCP until shutdown (the protocol op, when
/// `--allow-shutdown`). The bind line goes to stderr so scripts can wait
/// for readiness without parsing the query stream.
fn run_server(
    config: &ServeConfig,
    tau: usize,
    source: &(dyn Queryable + Sync),
    registry: &Arc<Registry>,
) -> ExitCode {
    let server_config = ServerConfig {
        max_connections: if config.threads == 0 {
            ServerConfig::default().max_connections
        } else {
            config.threads
        },
        default_tau: tau,
        max_verify_ceiling: config.max_verify_ceiling,
        deadline_ms_ceiling: config.deadline_ms,
        allow_shutdown: config.allow_shutdown,
        ..ServerConfig::default()
    };
    let server = match Server::bind(config.addr.as_str(), server_config, Arc::clone(registry)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("simjoin: cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => eprintln!(
            "simjoin: serving on {addr} (tau={tau}, tau_max={}, shutdown op {})",
            source.tau_max(),
            if config.allow_shutdown {
                "enabled"
            } else {
                "disabled"
            },
        ),
        Err(e) => {
            eprintln!("simjoin: cannot resolve bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run(source) {
        Ok(()) => {
            eprintln!("simjoin: server stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simjoin: server failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Queries a running `serve` endpoint, printing the offline `query`
/// subcommand's output format: `q<TAB>id<TAB>dist` per match (or
/// `q<TAB>n` with `--count`), `q` being the 0-based query line number.
fn run_client(config: &ClientConfig) -> ExitCode {
    let queries: Vec<Vec<u8>> = match &config.queries {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => corpus_lines(&text),
            Err(e) => {
                eprintln!("simjoin: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut lines = Vec::new();
            for line in std::io::stdin().lock().lines() {
                match line {
                    Ok(l) => lines.push(l.into_bytes()),
                    Err(e) => {
                        eprintln!("simjoin: stdin read failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            lines
        }
    };

    let mut client = match Client::connect(config.addr.as_str()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("simjoin: cannot connect to {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    let options = QueryOptions {
        tau: config.tau,
        limit: config.limit,
        count: config.count_only,
        stream: config.stream,
        budget: BudgetSpec {
            max_verify: config.max_verify,
            max_candidates: config.max_candidates,
            deadline_ms: config.deadline_ms,
        },
        batch: config.batch_max_verify.map(|n| BudgetSpec {
            max_verify: Some(n),
            ..BudgetSpec::default()
        }),
    };

    let started = Instant::now();
    let mut totals = (0u64, 0u64, 0u64); // matches, truncated, verifications
    let stdout = std::io::stdout().lock();
    let mut w = std::io::BufWriter::new(stdout);
    for (chunk_index, chunk) in queries.chunks(config.chunk).enumerate() {
        // Each chunk is one request line; `q` on the wire is the index
        // within the line, offset back to the global line number here.
        let base = chunk_index * config.chunk;
        let events = match client.query(chunk, &options) {
            Ok(events) => events,
            Err(e) => {
                eprintln!("simjoin: request failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for event in events {
            let written = match event {
                Event::Match { q, id, d } if !config.count_only => {
                    writeln!(w, "{}\t{id}\t{d}", base + q as usize)
                }
                Event::Eoq { q, n, .. } if config.count_only => {
                    writeln!(w, "{}\t{n}", base + q as usize)
                }
                Event::Match { .. } | Event::Eoq { .. } | Event::Metrics(_) => Ok(()),
                Event::Done {
                    matches,
                    truncated,
                    verifications,
                    ..
                } => {
                    totals.0 += matches;
                    totals.1 += truncated;
                    totals.2 += verifications;
                    Ok(())
                }
                Event::Error { code, msg } => {
                    eprintln!("simjoin: server error {code}: {msg}");
                    return ExitCode::FAILURE;
                }
            };
            if written.is_err() {
                eprintln!("simjoin: write failed");
                return ExitCode::FAILURE;
            }
        }
    }
    if w.flush().is_err() {
        return ExitCode::FAILURE;
    }
    let elapsed = started.elapsed();

    if config.stats {
        let per_sec = queries.len() as f64 / elapsed.as_secs_f64().max(f64::EPSILON);
        eprintln!(
            "simjoin: {} queries against {}, {} matches in {:.3?} ({:.0} queries/s, \
             {} verifications{})",
            queries.len(),
            config.addr,
            totals.0,
            elapsed,
            per_sec,
            totals.2,
            if totals.1 > 0 {
                format!("; {} truncated", totals.1)
            } else {
                String::new()
            },
        );
    }
    if config.metrics {
        match client.metrics(MetricsFormat::Prometheus) {
            Ok(dump) => eprint!("{dump}"),
            Err(e) => {
                eprintln!("simjoin: metrics scrape failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if config.shutdown {
        if let Err(e) = client.shutdown() {
            eprintln!("simjoin: shutdown failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Writes streamed matches as `q<TAB>id<TAB>dist` lines; a failed write
/// reports saturation, which stops the engine's scan mid-query.
struct StreamWriter<'a, W: Write> {
    w: &'a mut W,
    q: usize,
    failed: &'a mut bool,
}

impl<W: Write> MatchSink for StreamWriter<'_, W> {
    fn push(&mut self, id: u32, dist: usize) {
        if !*self.failed {
            *self.failed = writeln!(self.w, "{}\t{id}\t{dist}", self.q).is_err();
        }
    }

    fn saturated(&self) -> bool {
        *self.failed
    }
}

/// `"; N truncated (…reasons…)"` when any request's budget tripped,
/// empty otherwise.
fn truncation_summary(response: &SearchResponse) -> String {
    use std::collections::BTreeMap;
    let mut reasons: BTreeMap<String, usize> = BTreeMap::new();
    for outcome in &response.outcomes {
        if let Completion::Truncated { reason } = outcome.completion {
            *reasons.entry(reason.to_string()).or_default() += 1;
        }
    }
    if reasons.is_empty() {
        return String::new();
    }
    let total: usize = reasons.values().sum();
    let breakdown: Vec<String> = reasons
        .into_iter()
        .map(|(reason, n)| format!("{n} {reason}"))
        .collect();
    format!("; {total} truncated ({})", breakdown.join(", "))
}

const REPL_HELP: &str = "commands:
  <text>      query the index at the current tau
  :tau N      set the query tau (<= tau_max)
  :limit N    keep only the N closest matches (:limit off to reset)
  :count      toggle count-only mode (no match listing)
  :budget N   cap each query at N verifications (:budget off to reset);
              truncated answers are flagged and tallied in :stats
  :add TEXT   insert a string, printing its id
  :rm ID      remove a string by id
  :stats      print index, cache, and truncation statistics
  :metrics    dump the metrics registry (Prometheus text format)
  :help       this message
  :quit       exit";

/// The index a repl session drives: a plain in-memory index, or the
/// storage subsystem's wrapper when mutations are logged for delta
/// checkpoints (`--load … --save-delta`, or a loaded chain). One repl
/// loop serves both; only the mutation/inspection plumbing differs.
enum ReplIndex<'a> {
    Plain(&'a mut OnlineIndex),
    Checkpointed(&'a CheckpointedIndex),
}

impl ReplIndex<'_> {
    fn len(&self) -> usize {
        match self {
            ReplIndex::Plain(index) => index.len(),
            ReplIndex::Checkpointed(store) => Queryable::len(*store),
        }
    }

    fn tau_max(&self) -> usize {
        match self {
            ReplIndex::Plain(index) => index.tau_max(),
            ReplIndex::Checkpointed(store) => Queryable::tau_max(*store),
        }
    }

    fn search(&self, request: &SearchRequest) -> QueryOutcome {
        match self {
            ReplIndex::Plain(index) => index.search(request),
            ReplIndex::Checkpointed(store) => store.search(request),
        }
    }

    fn insert(&mut self, s: &[u8]) -> u32 {
        match self {
            ReplIndex::Plain(index) => index.insert(s),
            ReplIndex::Checkpointed(store) => store.insert(s),
        }
    }

    fn remove(&mut self, id: u32) -> bool {
        match self {
            ReplIndex::Plain(index) => index.remove(id),
            ReplIndex::Checkpointed(store) => store.remove(id),
        }
    }

    /// The live string for `id`, lossily decoded for display.
    fn text(&self, id: u32) -> Option<String> {
        match self {
            ReplIndex::Plain(index) => index
                .get(id)
                .map(|s| String::from_utf8_lossy(s).into_owned()),
            ReplIndex::Checkpointed(store) => store.with_index(|index| {
                index
                    .get(id)
                    .map(|s| String::from_utf8_lossy(s).into_owned())
            }),
        }
    }

    fn stats(&self) -> OnlineStats {
        match self {
            ReplIndex::Plain(index) => index.stats(),
            ReplIndex::Checkpointed(store) => store.stats(),
        }
    }

    fn cache_stats(&self) -> CacheStats {
        match self {
            ReplIndex::Plain(index) => index.cache_stats(),
            ReplIndex::Checkpointed(store) => store.with_index(OnlineIndex::cache_stats),
        }
    }
}

fn run_repl(tau: usize, mut index: ReplIndex<'_>, obs: &Arc<EngineObs>) -> ExitCode {
    let mut tau = tau;
    let mut limit: Option<usize> = None;
    let mut count_only = false;
    let mut max_verify: Option<u64> = None;
    let mut truncated_total: u64 = 0;
    eprintln!(
        "simjoin repl: {} strings, tau={tau} (tau_max={}), :help for commands",
        index.len(),
        index.tau_max()
    );
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("simjoin: stdin read failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let input = line.trim_end_matches(['\r', '\n']);
        if let Some(command) = input.strip_prefix(':') {
            let (verb, rest) = command.split_once(' ').unwrap_or((command, ""));
            match verb {
                "quit" | "q" | "exit" => break,
                "help" => println!("{REPL_HELP}"),
                "tau" => match rest.trim().parse::<usize>() {
                    Ok(t) if t <= index.tau_max() => {
                        tau = t;
                        println!("tau = {tau}");
                    }
                    Ok(t) => println!("error: tau {t} exceeds tau_max {}", index.tau_max()),
                    Err(_) => println!("error: :tau needs a number"),
                },
                "limit" => match rest.trim() {
                    "off" | "none" => {
                        limit = None;
                        println!("limit off");
                    }
                    n => match n.parse::<usize>() {
                        Ok(k) => {
                            limit = Some(k);
                            println!("limit = {k}");
                        }
                        Err(_) => println!("error: :limit needs a number or 'off'"),
                    },
                },
                "count" => {
                    count_only = !count_only;
                    println!("count-only {}", if count_only { "on" } else { "off" });
                }
                "budget" => match rest.trim() {
                    "off" | "none" => {
                        max_verify = None;
                        println!("budget off");
                    }
                    n => match n.parse::<u64>() {
                        Ok(v) => {
                            max_verify = Some(v);
                            println!("budget = {v} verifications");
                        }
                        Err(_) => println!("error: :budget needs a number or 'off'"),
                    },
                },
                "add" => {
                    let id = index.insert(rest.as_bytes());
                    println!("added id {id}");
                }
                "rm" => match rest.trim().parse::<u32>() {
                    Ok(id) if index.remove(id) => println!("removed id {id}"),
                    Ok(id) => println!("error: no live string with id {id}"),
                    Err(_) => println!("error: :rm needs an id"),
                },
                "stats" => {
                    println!(
                        "{} cache: {} truncated queries: {truncated_total}",
                        index.stats(),
                        index.cache_stats()
                    );
                }
                "metrics" => {
                    obs.record_index_stats(&index.stats());
                    print!("{}", obs.render_prometheus());
                }
                other => println!("error: unknown command :{other} (:help)"),
            }
            continue;
        }
        let mut request =
            SearchRequest::borrowed(input.as_bytes(), tau).with_cache(CachePolicy::Use);
        if let Some(k) = limit {
            request = request.with_limit(k);
        }
        if count_only {
            request = request.count_only();
        }
        if let Some(n) = max_verify {
            request = request.with_budget(ExecBudget::new().with_max_verifications(n));
        }
        let started = Instant::now();
        let outcome = index.search(&request);
        let elapsed = started.elapsed();
        for &(id, dist) in outcome.matches.iter() {
            let text = index.text(id).unwrap_or_default();
            println!("{id}\t{dist}\t{text}");
        }
        let cache = match outcome.cache {
            CacheOutcome::Hit => "cache hit",
            CacheOutcome::Miss => "cache miss",
            CacheOutcome::Bypass => "cache bypassed",
        };
        let completion = if outcome.completion.is_complete() {
            String::new()
        } else {
            truncated_total += 1;
            format!(", {}", outcome.completion)
        };
        println!(
            "({} matches, {elapsed:.1?}, {cache}{completion}, {})",
            outcome.count, outcome.stats
        );
    }
    ExitCode::SUCCESS
}
