//! Library half of the `simjoin` command-line tool: argument parsing and
//! the join/serve dispatch, kept out of `main.rs` so they are
//! unit-testable.
//!
//! Two modes share the binary:
//!
//! * **join mode** (no subcommand): the original batch self-join —
//!   `simjoin corpus.txt --tau 2`;
//! * **serve mode** (`index` / `query` / `repl` / `serve` subcommands):
//!   the online subsystem from `passjoin-online` — build a dynamic index
//!   over a corpus and answer queries against it, batch, interactively,
//!   or over the network (`serve` speaks the `passjoin-serve` JSONL
//!   protocol);
//! * **client mode** (`client` subcommand): query a running `serve`
//!   endpoint, printing the same `q<TAB>id<TAB>dist` lines as the
//!   offline `query` subcommand so the two are diffable.

use std::path::PathBuf;

use edjoin::EdJoin;
use passjoin::PassJoin;
use passjoin_online::{OnlineIndex, ShardBy, ShardedIndex};
use sj_common::{JoinOutput, SimilarityJoin, StringCollection};
use triejoin::TrieJoin;

pub use passjoin_online::Queryable;

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Pass-Join with the paper's default configuration.
    Pass,
    /// Pass-Join's multi-threaded driver.
    PassParallel,
    /// ED-Join (q-gram prefix filtering), q in [`Config::q`].
    Ed,
    /// Trie-Join (PathStack).
    Trie,
}

impl Algorithm {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "pass" => Ok(Algorithm::Pass),
            "pass-par" => Ok(Algorithm::PassParallel),
            "ed" => Ok(Algorithm::Ed),
            "trie" => Ok(Algorithm::Trie),
            other => Err(format!(
                "unknown algorithm '{other}' (expected pass, pass-par, ed, trie)"
            )),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Input corpus: one string per line.
    pub input: PathBuf,
    /// Edit-distance threshold.
    pub tau: usize,
    /// Algorithm (default Pass-Join).
    pub algorithm: Algorithm,
    /// Gram length for ED-Join.
    pub q: usize,
    /// Worker threads for `pass-par` (0 = auto).
    pub threads: usize,
    /// Where to write pairs (stdout when `None`).
    pub output: Option<PathBuf>,
    /// Print statistics to stderr.
    pub stats: bool,
}

/// The usage string printed on parse errors.
pub const USAGE: &str = "usage:
  simjoin <corpus.txt> --tau N [--algorithm pass|pass-par|ed|trie] [--q N]
          [--threads N] [--out pairs.txt] [--stats]
  simjoin index <corpus.txt> [--tau-max N] [--shards N]
          [--shard-by len|hash] [--save index.snap] [--stats] [--metrics]
  simjoin query <corpus.txt | --load index.snap> [--tau N] [--tau-max N]
          [--shards N] [--shard-by len|hash] [--mmap] [--queries q.txt]
          [--threads N] [--cache N] [--limit K] [--count] [--stream]
          [--max-verify N] [--deadline-ms N] [--stats] [--metrics]
  simjoin repl  <corpus.txt | --load index.snap> [--tau N] [--tau-max N]
          [--cache N] [--mmap] [--save-delta]
  simjoin serve <corpus.txt | --load index.snap> [--addr HOST:PORT] [--tau N]
          [--tau-max N] [--shards N] [--shard-by len|hash] [--threads N]
          [--cache N] [--mmap]
          [--checkpoint-every SECS] [--checkpoint-path FILE]
          [--max-verify-ceiling N] [--deadline-ms N] [--allow-shutdown]
          [--stats]
  simjoin client [--addr HOST:PORT] [--queries q.txt] [--tau N] [--limit K]
          [--count] [--stream] [--max-verify N] [--max-candidates N]
          [--deadline-ms N] [--batch-max-verify N] [--chunk N] [--stats]
          [--metrics] [--shutdown]
  simjoin dedup <corpus.txt> --threshold T [--metric jaccard|cosine|overlap|edit]
          [--tokens words|grams] [--q N] [--truth pairs.tsv]
          [--out clusters.txt] [--stats] [--metrics]";

/// The address `serve` binds and `client` dials when `--addr` is absent.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7878";

impl Config {
    /// Parses CLI arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut input: Option<PathBuf> = None;
        let mut tau: Option<usize> = None;
        let mut algorithm = Algorithm::Pass;
        let mut q = 3;
        let mut threads = 0;
        let mut output = None;
        let mut stats = false;

        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--tau" => {
                    tau = Some(take_number(&mut it, "--tau")?);
                }
                "--algorithm" => {
                    let v = it.next().ok_or("--algorithm requires a value")?;
                    algorithm = Algorithm::parse(&v)?;
                }
                "--q" => {
                    q = take_number(&mut it, "--q")?;
                    if q == 0 {
                        return Err("--q must be at least 1".into());
                    }
                }
                "--threads" => {
                    threads = take_number(&mut it, "--threads")?;
                }
                "--out" => {
                    output = Some(PathBuf::from(it.next().ok_or("--out requires a path")?));
                }
                "--stats" => {
                    stats = true;
                }
                other if other.starts_with('-') => {
                    return Err(format!("unknown option '{other}'"));
                }
                path => {
                    if input.replace(PathBuf::from(path)).is_some() {
                        return Err("more than one input file given".into());
                    }
                }
            }
        }
        Ok(Config {
            input: input.ok_or("missing input corpus path")?,
            tau: tau.ok_or("missing required --tau")?,
            algorithm,
            q,
            threads,
            output,
            stats,
        })
    }

    /// Runs the configured join over an already-loaded collection.
    pub fn run(&self, collection: &StringCollection) -> JoinOutput {
        match self.algorithm {
            Algorithm::Pass => PassJoin::new().self_join(collection, self.tau),
            Algorithm::PassParallel => {
                PassJoin::new().par_self_join(collection, self.tau, self.threads)
            }
            Algorithm::Ed => EdJoin::new(self.q).self_join(collection, self.tau),
            Algorithm::Trie => TrieJoin::new().self_join(collection, self.tau),
        }
    }
}

fn take_number(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    it.next()
        .ok_or_else(|| format!("{flag} requires a value"))?
        .parse()
        .map_err(|_| format!("{flag} requires a non-negative integer"))
}

/// Which serve-mode subcommand was invoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Build the index and report statistics.
    Index,
    /// Build the index and answer a batch of queries.
    Query,
    /// Build the index and serve an interactive query/update session.
    Repl,
    /// Build the index and serve it over TCP (the `passjoin-serve`
    /// JSONL protocol).
    Serve,
}

/// Where a serve-mode index comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexSource {
    /// Build by indexing a corpus file (one string per line; ids are
    /// 0-based line numbers).
    Corpus(PathBuf),
    /// Load a saved snapshot file (`--load`); skips the rebuild entirely.
    Snapshot(PathBuf),
}

/// Parsed serve-mode command line (`simjoin index|query|repl …`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Subcommand.
    pub mode: ServeMode,
    /// Corpus to index, or snapshot to load.
    pub source: IndexSource,
    /// Default query threshold.
    pub tau: usize,
    /// Whether `--tau` was given explicitly (an explicit τ above a loaded
    /// snapshot's τ_max is an error; the default is silently capped).
    pub tau_explicit: bool,
    /// Largest supported per-query threshold (the index partitions for
    /// this); defaults to `tau`. With `--load` the snapshot dictates it.
    pub tau_max: usize,
    /// Shard count for a corpus-built index (`--shards`, index/query/
    /// serve); 1 (the default) builds a plain single index, ≥ 2 builds a
    /// `ShardedIndex` router. A loaded snapshot dictates its own layout.
    pub shards: usize,
    /// Partitioning policy for `--shards` ≥ 2 (`--shard-by len|hash`,
    /// default length bands).
    pub shard_by: ShardBy,
    /// Where to write a snapshot of the index after building (`--save`).
    pub save: Option<PathBuf>,
    /// Query file for `query` mode (stdin when `None`).
    pub queries: Option<PathBuf>,
    /// Worker threads for batched queries (0 = auto).
    pub threads: usize,
    /// LRU query-cache capacity (0 disables).
    pub cache: usize,
    /// Report only the `K` closest matches per query (`--limit`).
    pub limit: Option<usize>,
    /// Report match counts instead of matches (`--count`).
    pub count_only: bool,
    /// Stream matches as they verify instead of buffering per batch
    /// (`--stream`, query mode).
    pub stream: bool,
    /// Per-query verification cap (`--max-verify`, query mode); tripped
    /// budgets are reported as truncated in `--stats`.
    pub max_verify: Option<u64>,
    /// Per-query wall-clock deadline in milliseconds (`--deadline-ms`,
    /// query mode), measured from the start of the batch; expired
    /// requests are reported as truncated in `--stats`.
    pub deadline_ms: Option<u64>,
    /// Print statistics to stderr.
    pub stats: bool,
    /// Dump the metrics registry (Prometheus text format) to stderr after
    /// the run (`--metrics`, index/query modes; the repl has `:metrics`,
    /// the server has the `metrics` protocol op).
    pub metrics: bool,
    /// Bind address for `serve` (`--addr`, default [`DEFAULT_ADDR`]).
    pub addr: String,
    /// Server-side verification-cap ceiling clamping every network
    /// query's budget (`--max-verify-ceiling`, serve mode). For serve
    /// mode `--deadline-ms` is likewise the per-query deadline ceiling.
    pub max_verify_ceiling: Option<u64>,
    /// Honour the protocol's `shutdown` op (`--allow-shutdown`, serve
    /// mode); off by default so remote peers cannot stop the server.
    pub allow_shutdown: bool,
    /// Memory-map a loaded snapshot instead of reading it (`--mmap`,
    /// with `--load`): the instant-restart path through the
    /// `passjoin-store` shim — page-granular lazy loading with the
    /// snapshot check (`verify_snapshot`) deferred to a background
    /// verifier (`fs::read` where mapping is unavailable).
    pub mmap: bool,
    /// Persist the repl session's `:add`/`:rm` mutations as a delta
    /// checkpoint on the loaded snapshot's chain at exit (`--save-delta`,
    /// repl mode with `--load`).
    pub save_delta: bool,
    /// Background checkpoint interval in seconds (`--checkpoint-every`,
    /// serve mode with `--load`): drains the mutation log to the delta
    /// chain periodically and once more at shutdown.
    pub checkpoint_every: Option<u64>,
    /// Re-anchor the delta chain at this path instead of the loaded
    /// snapshot (`--checkpoint-path`, serve mode, requires
    /// `--checkpoint-every`) — for read-only snapshot locations.
    pub checkpoint_path: Option<PathBuf>,
}

impl ServeConfig {
    fn parse<I: IntoIterator<Item = String>>(mode: ServeMode, args: I) -> Result<Self, String> {
        let mut corpus: Option<PathBuf> = None;
        let mut load: Option<PathBuf> = None;
        let mut save = None;
        let mut tau: Option<usize> = None;
        let mut tau_max: Option<usize> = None;
        let mut shards: Option<usize> = None;
        let mut shard_by: Option<ShardBy> = None;
        let mut queries = None;
        let mut threads = 0;
        let mut cache = 1024;
        let mut limit = None;
        let mut count_only = false;
        let mut stream = false;
        let mut max_verify = None;
        let mut deadline_ms = None;
        let mut stats = false;
        let mut metrics = false;
        let mut addr: Option<String> = None;
        let mut max_verify_ceiling = None;
        let mut allow_shutdown = false;
        let mut mmap = false;
        let mut save_delta = false;
        let mut checkpoint_every = None;
        let mut checkpoint_path = None;

        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--tau" => tau = Some(take_number(&mut it, "--tau")?),
                "--limit" => {
                    if mode != ServeMode::Query {
                        return Err("--limit is only valid for the query subcommand".into());
                    }
                    limit = Some(take_number(&mut it, "--limit")?);
                }
                "--count" => {
                    if mode != ServeMode::Query {
                        return Err("--count is only valid for the query subcommand".into());
                    }
                    count_only = true;
                }
                "--stream" => {
                    if mode != ServeMode::Query {
                        return Err("--stream is only valid for the query subcommand".into());
                    }
                    stream = true;
                }
                "--max-verify" => {
                    if mode != ServeMode::Query {
                        return Err("--max-verify is only valid for the query subcommand".into());
                    }
                    max_verify = Some(take_number(&mut it, "--max-verify")? as u64);
                }
                "--deadline-ms" => {
                    if !matches!(mode, ServeMode::Query | ServeMode::Serve) {
                        return Err(
                            "--deadline-ms is only valid for the query and serve subcommands"
                                .into(),
                        );
                    }
                    let ms = take_number(&mut it, "--deadline-ms")? as u64;
                    if ms == 0 {
                        return Err("--deadline-ms must be at least 1".into());
                    }
                    deadline_ms = Some(ms);
                }
                "--metrics" => {
                    if mode == ServeMode::Repl {
                        return Err("--metrics is for index/query; the repl has :metrics".into());
                    }
                    if mode == ServeMode::Serve {
                        return Err(
                            "--metrics is for index/query; the server has the metrics op".into(),
                        );
                    }
                    metrics = true;
                }
                "--addr" => {
                    if mode != ServeMode::Serve {
                        return Err("--addr is only valid for the serve subcommand".into());
                    }
                    addr = Some(it.next().ok_or("--addr requires host:port")?);
                }
                "--max-verify-ceiling" => {
                    if mode != ServeMode::Serve {
                        return Err(
                            "--max-verify-ceiling is only valid for the serve subcommand".into(),
                        );
                    }
                    max_verify_ceiling = Some(take_number(&mut it, "--max-verify-ceiling")? as u64);
                }
                "--allow-shutdown" => {
                    if mode != ServeMode::Serve {
                        return Err(
                            "--allow-shutdown is only valid for the serve subcommand".into()
                        );
                    }
                    allow_shutdown = true;
                }
                "--mmap" => {
                    if mode == ServeMode::Index {
                        return Err("--mmap needs a snapshot; `index` builds from a corpus".into());
                    }
                    mmap = true;
                }
                "--save-delta" => {
                    if mode != ServeMode::Repl {
                        return Err("--save-delta is only valid for the repl subcommand".into());
                    }
                    save_delta = true;
                }
                "--checkpoint-every" => {
                    if mode != ServeMode::Serve {
                        return Err(
                            "--checkpoint-every is only valid for the serve subcommand".into()
                        );
                    }
                    let secs = take_number(&mut it, "--checkpoint-every")? as u64;
                    if secs == 0 {
                        return Err("--checkpoint-every must be at least 1 second".into());
                    }
                    checkpoint_every = Some(secs);
                }
                "--checkpoint-path" => {
                    if mode != ServeMode::Serve {
                        return Err(
                            "--checkpoint-path is only valid for the serve subcommand".into()
                        );
                    }
                    checkpoint_path = Some(PathBuf::from(
                        it.next().ok_or("--checkpoint-path requires a path")?,
                    ));
                }
                "--shards" => {
                    if mode == ServeMode::Repl {
                        return Err("--shards is not valid for the repl subcommand".into());
                    }
                    let n = take_number(&mut it, "--shards")?;
                    if n == 0 {
                        return Err("--shards must be at least 1".into());
                    }
                    shards = Some(n);
                }
                "--shard-by" => {
                    if mode == ServeMode::Repl {
                        return Err("--shard-by is not valid for the repl subcommand".into());
                    }
                    let v = it.next().ok_or("--shard-by requires a value")?;
                    shard_by = Some(ShardBy::parse(&v).ok_or_else(|| {
                        format!("unknown shard policy '{v}' (expected len or hash)")
                    })?);
                }
                "--tau-max" => tau_max = Some(take_number(&mut it, "--tau-max")?),
                "--save" => {
                    save = Some(PathBuf::from(it.next().ok_or("--save requires a path")?));
                }
                "--load" => {
                    load = Some(PathBuf::from(it.next().ok_or("--load requires a path")?));
                }
                "--queries" => {
                    queries = Some(PathBuf::from(it.next().ok_or("--queries requires a path")?));
                }
                "--threads" => threads = take_number(&mut it, "--threads")?,
                "--cache" => cache = take_number(&mut it, "--cache")?,
                "--stats" => stats = true,
                other if other.starts_with('-') => {
                    return Err(format!("unknown option '{other}'"));
                }
                path => {
                    if corpus.replace(PathBuf::from(path)).is_some() {
                        return Err("more than one corpus file given".into());
                    }
                }
            }
        }
        if checkpoint_path.is_some() && checkpoint_every.is_none() {
            return Err("--checkpoint-path requires --checkpoint-every".into());
        }
        let source = match (corpus, load) {
            (Some(_), Some(_)) => {
                return Err("give a corpus file or --load <snapshot>, not both".into());
            }
            (Some(corpus), None) => {
                // The storage subsystem operates on snapshots: a corpus
                // build has no file to map and no chain to anchor.
                if mmap {
                    return Err("--mmap requires --load <snapshot>".into());
                }
                if save_delta {
                    return Err("--save-delta requires --load <snapshot>".into());
                }
                if checkpoint_every.is_some() {
                    return Err("--checkpoint-every requires --load <snapshot>".into());
                }
                IndexSource::Corpus(corpus)
            }
            (None, Some(snapshot)) => {
                if mode == ServeMode::Index {
                    return Err(
                        "--load is for query/repl; `index` builds from a corpus (use --save to \
                         write a snapshot)"
                            .into(),
                    );
                }
                if tau_max.is_some() {
                    return Err(
                        "--tau-max is fixed by the snapshot and not valid with --load".into(),
                    );
                }
                if shards.is_some() || shard_by.is_some() {
                    return Err(
                        "--shards/--shard-by are fixed by the snapshot and not valid with --load"
                            .into(),
                    );
                }
                IndexSource::Snapshot(snapshot)
            }
            (None, None) => {
                return Err("missing corpus path (or --load <snapshot> for query/repl)".into());
            }
        };
        // Defaults: τ = 2 capped by an explicit τ_max; τ_max follows τ.
        // (With --load, τ_max here is only a placeholder — the snapshot's
        // own τ_max governs at run time.)
        let tau_explicit = tau.is_some();
        let (tau, tau_max) = match (tau, tau_max) {
            (Some(t), Some(m)) => (t, m),
            (Some(t), None) => (t, t),
            (None, Some(m)) => (2.min(m), m),
            (None, None) => (2, 2),
        };
        if tau > tau_max {
            return Err(format!("--tau {tau} exceeds --tau-max {tau_max}"));
        }
        Ok(ServeConfig {
            mode,
            source,
            tau,
            tau_explicit,
            tau_max,
            shards: shards.unwrap_or(1),
            shard_by: shard_by.unwrap_or_default(),
            save,
            queries,
            threads,
            cache,
            limit,
            count_only,
            stream,
            max_verify,
            deadline_ms,
            stats,
            metrics,
            addr: addr.unwrap_or_else(|| DEFAULT_ADDR.to_owned()),
            max_verify_ceiling,
            allow_shutdown,
            mmap,
            save_delta,
            checkpoint_every,
            checkpoint_path,
        })
    }

    /// Builds the online index over raw corpus lines (ids = line numbers,
    /// empty lines included so numbering matches the file).
    pub fn build_index(&self, lines: &[Vec<u8>]) -> OnlineIndex {
        OnlineIndex::builder(self.tau_max)
            .cache_capacity(self.cache)
            .build_from(lines.iter())
    }

    /// Builds the sharded router over raw corpus lines (`--shards` ≥ 2);
    /// ids are line numbers, exactly as in [`ServeConfig::build_index`].
    pub fn build_router(&self, lines: &[Vec<u8>]) -> ShardedIndex {
        ShardedIndex::builder(self.tau_max)
            .shards(self.shards)
            .shard_by(self.shard_by)
            .cache_capacity(self.cache)
            .build_from(lines.iter())
    }

    /// Resolves the query threshold against the index actually being
    /// served. A default τ quietly adapts to a smaller loaded τ_max; an
    /// *explicit* `--tau` above the index's τ_max is reported as an error
    /// instead of being silently weakened.
    pub fn resolve_tau(&self, index_tau_max: usize) -> Result<usize, String> {
        if self.tau <= index_tau_max {
            return Ok(self.tau);
        }
        if self.tau_explicit {
            return Err(format!(
                "--tau {} exceeds the index's tau_max {index_tau_max}",
                self.tau
            ));
        }
        Ok(index_tau_max)
    }
}

/// Parsed `client` command line (`simjoin client …`): query a running
/// `serve` endpoint over the JSONL protocol. Output matches the offline
/// `query` subcommand line for line, so the two are directly diffable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Server address (`--addr`, default [`DEFAULT_ADDR`]).
    pub addr: String,
    /// Query file (stdin when `None`).
    pub queries: Option<PathBuf>,
    /// Per-query threshold (`--tau`; the server's default when absent).
    pub tau: Option<usize>,
    /// Top-k limit per query (`--limit`).
    pub limit: Option<usize>,
    /// Count-only mode (`--count`): print `q<TAB>n` lines.
    pub count_only: bool,
    /// Stream matches in verification order (`--stream`).
    pub stream: bool,
    /// Per-query verification cap (`--max-verify`).
    pub max_verify: Option<u64>,
    /// Per-query candidate cap (`--max-candidates`).
    pub max_candidates: Option<u64>,
    /// Per-query deadline in milliseconds (`--deadline-ms`), measured
    /// from each request line's receipt at the server.
    pub deadline_ms: Option<u64>,
    /// Shared verification budget drained across each request line
    /// (`--batch-max-verify`): the wire `batch` budget.
    pub batch_max_verify: Option<u64>,
    /// Queries per request line (`--chunk`, default 512; the server's
    /// `max_batch` bounds it from its side).
    pub chunk: usize,
    /// Print aggregate totals to stderr (`--stats`).
    pub stats: bool,
    /// Scrape and print the server's metrics to stderr after the run
    /// (`--metrics`).
    pub metrics: bool,
    /// Send the `shutdown` op after the queries (`--shutdown`; the
    /// server must run with `--allow-shutdown`).
    pub shutdown: bool,
}

impl ClientConfig {
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut config = ClientConfig {
            addr: DEFAULT_ADDR.to_owned(),
            queries: None,
            tau: None,
            limit: None,
            count_only: false,
            stream: false,
            max_verify: None,
            max_candidates: None,
            deadline_ms: None,
            batch_max_verify: None,
            chunk: 512,
            stats: false,
            metrics: false,
            shutdown: false,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--addr" => config.addr = it.next().ok_or("--addr requires host:port")?,
                "--queries" => {
                    config.queries =
                        Some(PathBuf::from(it.next().ok_or("--queries requires a path")?));
                }
                "--tau" => config.tau = Some(take_number(&mut it, "--tau")?),
                "--limit" => config.limit = Some(take_number(&mut it, "--limit")?),
                "--count" => config.count_only = true,
                "--stream" => config.stream = true,
                "--max-verify" => {
                    config.max_verify = Some(take_number(&mut it, "--max-verify")? as u64);
                }
                "--max-candidates" => {
                    config.max_candidates = Some(take_number(&mut it, "--max-candidates")? as u64);
                }
                "--deadline-ms" => {
                    let ms = take_number(&mut it, "--deadline-ms")? as u64;
                    if ms == 0 {
                        return Err("--deadline-ms must be at least 1".into());
                    }
                    config.deadline_ms = Some(ms);
                }
                "--batch-max-verify" => {
                    config.batch_max_verify =
                        Some(take_number(&mut it, "--batch-max-verify")? as u64);
                }
                "--chunk" => {
                    config.chunk = take_number(&mut it, "--chunk")?;
                    if config.chunk == 0 {
                        return Err("--chunk must be at least 1".into());
                    }
                }
                "--stats" => config.stats = true,
                "--metrics" => config.metrics = true,
                "--shutdown" => config.shutdown = true,
                other if other.starts_with('-') => {
                    return Err(format!("unknown option '{other}'"));
                }
                other => {
                    return Err(format!(
                        "unexpected argument '{other}': the client reads queries from --queries \
                         or stdin"
                    ));
                }
            }
        }
        Ok(config)
    }
}

/// The similarity family `dedup` clusters under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupMetric {
    /// Jaccard set similarity on token sets.
    Jaccard,
    /// Cosine set similarity on token sets.
    Cosine,
    /// Overlap coefficient on token sets.
    Overlap,
    /// Edit distance on raw bytes (threshold is an integer τ).
    Edit,
}

impl DedupMetric {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "jaccard" => Ok(Self::Jaccard),
            "cosine" => Ok(Self::Cosine),
            "overlap" => Ok(Self::Overlap),
            "edit" => Ok(Self::Edit),
            other => Err(format!(
                "unknown metric '{other}' (expected jaccard, cosine, overlap, edit)"
            )),
        }
    }
}

/// Parsed `simjoin dedup` invocation: stream a corpus through
/// query-before-insert and emit near-duplicate clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct DedupConfig {
    /// The corpus file (one record per line; arbitrary bytes).
    pub input: PathBuf,
    /// Similarity family.
    pub metric: DedupMetric,
    /// Similarity threshold: in `(0, 1]` for set metrics, a non-negative
    /// integer τ for `edit`.
    pub threshold: f64,
    /// Tokenize as whitespace words instead of q-grams (set metrics only).
    pub words: bool,
    /// Gram length for q-gram tokenization.
    pub q: usize,
    /// Planted-duplicate ground truth (`dup<TAB>base` pairs) to verify
    /// the clusters against.
    pub truth: Option<PathBuf>,
    /// Where to write clusters (stdout when `None`).
    pub output: Option<PathBuf>,
    /// Print pipeline statistics to stderr.
    pub stats: bool,
    /// Dump the metrics registry to stderr after the run.
    pub metrics: bool,
}

impl DedupConfig {
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut input: Option<PathBuf> = None;
        let mut metric = DedupMetric::Jaccard;
        let mut threshold: Option<f64> = None;
        let mut tokens: Option<String> = None;
        let mut q: Option<usize> = None;
        let mut truth = None;
        let mut output = None;
        let mut stats = false;
        let mut metrics = false;

        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--metric" => {
                    let v = it.next().ok_or("--metric requires a value")?;
                    metric = DedupMetric::parse(&v)?;
                }
                "--threshold" => {
                    let v = it.next().ok_or("--threshold requires a value")?;
                    threshold = Some(
                        v.parse()
                            .map_err(|_| format!("--threshold requires a number, got '{v}'"))?,
                    );
                }
                "--tokens" => {
                    let v = it.next().ok_or("--tokens requires a value")?;
                    if v != "words" && v != "grams" {
                        return Err(format!("unknown tokens mode '{v}' (expected words, grams)"));
                    }
                    tokens = Some(v);
                }
                "--q" => {
                    let n = take_number(&mut it, "--q")?;
                    if n == 0 {
                        return Err("--q must be at least 1".into());
                    }
                    q = Some(n);
                }
                "--truth" => {
                    truth = Some(PathBuf::from(it.next().ok_or("--truth requires a path")?));
                }
                "--out" => {
                    output = Some(PathBuf::from(it.next().ok_or("--out requires a path")?));
                }
                "--stats" => stats = true,
                "--metrics" => metrics = true,
                other if other.starts_with('-') => {
                    return Err(format!("unknown option '{other}' for dedup"));
                }
                path => {
                    if input.is_some() {
                        return Err("multiple corpus files given".into());
                    }
                    input = Some(PathBuf::from(path));
                }
            }
        }
        let threshold = threshold.ok_or("dedup requires --threshold")?;
        let words = tokens.as_deref() == Some("words");
        match metric {
            DedupMetric::Edit => {
                if threshold < 0.0 || threshold.fract() != 0.0 {
                    return Err(format!(
                        "--metric edit needs an integer edit-distance threshold, got {threshold}"
                    ));
                }
                if tokens.is_some() || q.is_some() {
                    return Err("--tokens/--q do not apply to --metric edit".into());
                }
            }
            _ => {
                if !(threshold > 0.0 && threshold <= 1.0) {
                    return Err(format!(
                        "--threshold must be in (0, 1] for set metrics, got {threshold}"
                    ));
                }
                if words && q.is_some() {
                    return Err("--q does not apply to --tokens words".into());
                }
            }
        }
        Ok(DedupConfig {
            input: input.ok_or("dedup requires a corpus file")?,
            metric,
            threshold,
            words,
            q: q.unwrap_or(2),
            truth,
            output,
            stats,
            metrics,
        })
    }
}

/// A parsed `simjoin` invocation: the legacy join mode, a serve-mode
/// subcommand, the network client, or the dedup pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Batch self-join over a corpus (the original mode).
    Join(Config),
    /// Online subsystem: `index`, `query`, `repl`, or `serve`.
    Serve(ServeConfig),
    /// Network client against a running `serve` endpoint.
    Client(ClientConfig),
    /// Streaming near-duplicate clustering over a corpus.
    Dedup(DedupConfig),
}

impl Command {
    /// Parses CLI arguments (without the program name). The first argument
    /// selects a serve-mode subcommand or the client; anything else is
    /// join mode.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut it = args.into_iter().peekable();
        let mode = match it.peek().map(String::as_str) {
            Some("index") => Some(ServeMode::Index),
            Some("query") => Some(ServeMode::Query),
            Some("repl") => Some(ServeMode::Repl),
            Some("serve") => Some(ServeMode::Serve),
            Some("client") => {
                it.next();
                return Ok(Command::Client(ClientConfig::parse(it)?));
            }
            Some("dedup") => {
                it.next();
                return Ok(Command::Dedup(DedupConfig::parse(it)?));
            }
            _ => None,
        };
        match mode {
            Some(mode) => {
                it.next();
                Ok(Command::Serve(ServeConfig::parse(mode, it)?))
            }
            None => Ok(Command::Join(Config::parse(it)?)),
        }
    }
}

/// Splits a text blob into per-line byte strings, *keeping* empty lines so
/// ids equal 0-based line numbers of the input file.
pub fn corpus_lines(text: &str) -> Vec<Vec<u8>> {
    text.lines().map(|l| l.as_bytes().to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Config, String> {
        Config::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn minimal_invocation() {
        let c = parse(&["corpus.txt", "--tau", "2"]).unwrap();
        assert_eq!(c.input, PathBuf::from("corpus.txt"));
        assert_eq!(c.tau, 2);
        assert_eq!(c.algorithm, Algorithm::Pass);
        assert_eq!(c.q, 3);
        assert!(c.output.is_none());
        assert!(!c.stats);
    }

    #[test]
    fn full_invocation() {
        let c = parse(&[
            "--tau",
            "4",
            "data.txt",
            "--algorithm",
            "ed",
            "--q",
            "2",
            "--out",
            "pairs.txt",
            "--stats",
            "--threads",
            "8",
        ])
        .unwrap();
        assert_eq!(c.algorithm, Algorithm::Ed);
        assert_eq!(c.q, 2);
        assert_eq!(c.threads, 8);
        assert_eq!(c.output, Some(PathBuf::from("pairs.txt")));
        assert!(c.stats);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["corpus.txt"]).is_err(), "missing --tau");
        assert!(parse(&["corpus.txt", "--tau"]).is_err());
        assert!(parse(&["corpus.txt", "--tau", "x"]).is_err());
        assert!(parse(&["a.txt", "b.txt", "--tau", "1"]).is_err());
        assert!(parse(&["a.txt", "--tau", "1", "--algorithm", "nope"]).is_err());
        assert!(parse(&["a.txt", "--tau", "1", "--q", "0"]).is_err());
        assert!(parse(&["a.txt", "--tau", "1", "--bogus"]).is_err());
    }

    #[test]
    fn run_dispatches_all_algorithms() {
        let coll = StringCollection::from_strs(&["vldb", "pvldb", "icde"]);
        for algo in ["pass", "pass-par", "ed", "trie"] {
            let c = parse(&["x.txt", "--tau", "1", "--algorithm", algo]).unwrap();
            let out = c.run(&coll);
            assert_eq!(out.normalized_pairs(), vec![(0, 1)], "{algo}");
        }
    }

    fn parse_command(args: &[&str]) -> Result<Command, String> {
        Command::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn subcommands_select_serve_mode() {
        match parse_command(&["index", "corpus.txt", "--tau-max", "3", "--stats"]).unwrap() {
            Command::Serve(c) => {
                assert_eq!(c.mode, ServeMode::Index);
                assert_eq!(c.source, IndexSource::Corpus(PathBuf::from("corpus.txt")));
                assert_eq!(c.tau_max, 3);
                assert!(c.stats);
            }
            other => panic!("expected serve command, got {other:?}"),
        }
        match parse_command(&[
            "query",
            "corpus.txt",
            "--tau",
            "1",
            "--tau-max",
            "4",
            "--queries",
            "q.txt",
            "--threads",
            "8",
            "--cache",
            "0",
        ])
        .unwrap()
        {
            Command::Serve(c) => {
                assert_eq!(c.mode, ServeMode::Query);
                assert_eq!((c.tau, c.tau_max), (1, 4));
                assert_eq!(c.queries, Some(PathBuf::from("q.txt")));
                assert_eq!(c.threads, 8);
                assert_eq!(c.cache, 0);
            }
            other => panic!("expected serve command, got {other:?}"),
        }
        assert!(matches!(
            parse_command(&["repl", "corpus.txt"]).unwrap(),
            Command::Serve(ServeConfig {
                mode: ServeMode::Repl,
                ..
            })
        ));
    }

    #[test]
    fn join_mode_still_parses_without_subcommand() {
        match parse_command(&["corpus.txt", "--tau", "2"]).unwrap() {
            Command::Join(c) => assert_eq!(c.tau, 2),
            other => panic!("expected join command, got {other:?}"),
        }
    }

    #[test]
    fn dedup_parses_set_metrics() {
        match parse_command(&["dedup", "corpus.txt", "--threshold", "0.8"]).unwrap() {
            Command::Dedup(c) => {
                assert_eq!(c.input, PathBuf::from("corpus.txt"));
                assert_eq!(c.metric, DedupMetric::Jaccard);
                assert_eq!(c.threshold, 0.8);
                assert!(!c.words);
                assert_eq!(c.q, 2);
                assert!(!c.stats && !c.metrics);
            }
            other => panic!("expected dedup command, got {other:?}"),
        }
        match parse_command(&[
            "dedup",
            "c.txt",
            "--metric",
            "cosine",
            "--threshold",
            "0.9",
            "--tokens",
            "grams",
            "--q",
            "3",
            "--truth",
            "t.tsv",
            "--out",
            "clusters.txt",
            "--stats",
            "--metrics",
        ])
        .unwrap()
        {
            Command::Dedup(c) => {
                assert_eq!(c.metric, DedupMetric::Cosine);
                assert_eq!(c.q, 3);
                assert_eq!(c.truth, Some(PathBuf::from("t.tsv")));
                assert_eq!(c.output, Some(PathBuf::from("clusters.txt")));
                assert!(c.stats && c.metrics);
            }
            other => panic!("expected dedup command, got {other:?}"),
        }
        match parse_command(&[
            "dedup",
            "c.txt",
            "--metric",
            "overlap",
            "--threshold",
            "0.5",
            "--tokens",
            "words",
        ])
        .unwrap()
        {
            Command::Dedup(c) => {
                assert_eq!(c.metric, DedupMetric::Overlap);
                assert!(c.words);
            }
            other => panic!("expected dedup command, got {other:?}"),
        }
    }

    #[test]
    fn dedup_parses_edit_metric_and_rejects_bad_input() {
        match parse_command(&["dedup", "c.txt", "--metric", "edit", "--threshold", "2"]).unwrap() {
            Command::Dedup(c) => {
                assert_eq!(c.metric, DedupMetric::Edit);
                assert_eq!(c.threshold, 2.0);
            }
            other => panic!("expected dedup command, got {other:?}"),
        }
        // Missing threshold / corpus.
        assert!(parse_command(&["dedup", "c.txt"]).is_err());
        assert!(parse_command(&["dedup", "--threshold", "0.8"]).is_err());
        // Set thresholds must sit in (0, 1]; edit thresholds must be integers.
        assert!(parse_command(&["dedup", "c.txt", "--threshold", "0"]).is_err());
        assert!(parse_command(&["dedup", "c.txt", "--threshold", "1.5"]).is_err());
        assert!(
            parse_command(&["dedup", "c.txt", "--metric", "edit", "--threshold", "1.5"]).is_err()
        );
        // Tokenization flags don't apply to edit; --q clashes with words.
        assert!(parse_command(&[
            "dedup",
            "c.txt",
            "--metric",
            "edit",
            "--threshold",
            "2",
            "--q",
            "3"
        ])
        .is_err());
        assert!(parse_command(&[
            "dedup",
            "c.txt",
            "--threshold",
            "0.5",
            "--tokens",
            "words",
            "--q",
            "3"
        ])
        .is_err());
        assert!(
            parse_command(&["dedup", "c.txt", "--threshold", "0.5", "--metric", "dice"]).is_err()
        );
        assert!(parse_command(&["dedup", "c.txt", "--threshold", "0.5", "--q", "0"]).is_err());
        assert!(parse_command(&["dedup", "a.txt", "b.txt", "--threshold", "0.5"]).is_err());
    }

    #[test]
    fn serve_parse_rejects_bad_input() {
        assert!(parse_command(&["query"]).is_err(), "missing corpus");
        assert!(parse_command(&["query", "a.txt", "--tau", "5", "--tau-max", "2"]).is_err());
        assert!(parse_command(&["index", "a.txt", "--bogus"]).is_err());
        assert!(parse_command(&["repl", "a.txt", "b.txt"]).is_err());
        // Defaults: tau = 2, tau_max = tau.
        match parse_command(&["query", "a.txt"]).unwrap() {
            Command::Serve(c) => assert_eq!((c.tau, c.tau_max), (2, 2)),
            other => panic!("{other:?}"),
        }
        // An explicit small --tau-max caps the default tau instead of
        // erroring about a --tau the user never passed.
        match parse_command(&["index", "a.txt", "--tau-max", "1"]).unwrap() {
            Command::Serve(c) => assert_eq!((c.tau, c.tau_max), (1, 1)),
            other => panic!("{other:?}"),
        }
        match parse_command(&["query", "a.txt", "--tau-max", "0"]).unwrap() {
            Command::Serve(c) => assert_eq!((c.tau, c.tau_max), (0, 0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn limit_and_count_flags_parse_for_query_mode() {
        match parse_command(&["query", "a.txt", "--limit", "5", "--count"]).unwrap() {
            Command::Serve(c) => {
                assert_eq!(c.limit, Some(5));
                assert!(c.count_only);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: no limit, full matches.
        match parse_command(&["query", "a.txt"]).unwrap() {
            Command::Serve(c) => {
                assert_eq!(c.limit, None);
                assert!(!c.count_only);
            }
            other => panic!("{other:?}"),
        }
        // Result shaping is a query-mode feature.
        assert!(parse_command(&["index", "a.txt", "--limit", "5"]).is_err());
        assert!(parse_command(&["repl", "a.txt", "--count"]).is_err());
        assert!(parse_command(&["query", "a.txt", "--limit"]).is_err());
        assert!(parse_command(&["query", "a.txt", "--limit", "x"]).is_err());
    }

    #[test]
    fn stream_and_budget_flags_parse_for_query_mode() {
        match parse_command(&["query", "a.txt", "--stream", "--max-verify", "500"]).unwrap() {
            Command::Serve(c) => {
                assert!(c.stream);
                assert_eq!(c.max_verify, Some(500));
            }
            other => panic!("{other:?}"),
        }
        // Defaults: buffered, unbudgeted.
        match parse_command(&["query", "a.txt"]).unwrap() {
            Command::Serve(c) => {
                assert!(!c.stream);
                assert_eq!(c.max_verify, None);
            }
            other => panic!("{other:?}"),
        }
        // Streaming composes with the other query-mode result shapes.
        match parse_command(&["query", "a.txt", "--stream", "--limit", "3"]).unwrap() {
            Command::Serve(c) => {
                assert!(c.stream);
                assert_eq!(c.limit, Some(3));
            }
            other => panic!("{other:?}"),
        }
        // Both are query-mode features with required values.
        assert!(parse_command(&["index", "a.txt", "--stream"]).is_err());
        assert!(parse_command(&["repl", "a.txt", "--stream"]).is_err());
        assert!(parse_command(&["index", "a.txt", "--max-verify", "5"]).is_err());
        assert!(parse_command(&["repl", "a.txt", "--max-verify", "5"]).is_err());
        assert!(parse_command(&["query", "a.txt", "--max-verify"]).is_err());
        assert!(parse_command(&["query", "a.txt", "--max-verify", "x"]).is_err());
    }

    #[test]
    fn shard_flags_parse_for_index_query_serve() {
        for mode in ["index", "query", "serve"] {
            match parse_command(&[mode, "a.txt", "--shards", "4", "--shard-by", "hash"]).unwrap() {
                Command::Serve(c) => {
                    assert_eq!(c.shards, 4, "{mode}");
                    assert_eq!(c.shard_by, ShardBy::Hash, "{mode}");
                }
                other => panic!("{other:?}"),
            }
        }
        // Defaults: one shard (a plain index), length banding.
        match parse_command(&["query", "a.txt"]).unwrap() {
            Command::Serve(c) => {
                assert_eq!(c.shards, 1);
                assert_eq!(c.shard_by, ShardBy::Len);
            }
            other => panic!("{other:?}"),
        }
        // Zero shards, unknown policies, the repl, and --load are out.
        assert!(parse_command(&["query", "a.txt", "--shards", "0"]).is_err());
        assert!(parse_command(&["query", "a.txt", "--shard-by", "modulo"]).is_err());
        assert!(parse_command(&["repl", "a.txt", "--shards", "2"]).is_err());
        assert!(parse_command(&["repl", "a.txt", "--shard-by", "len"]).is_err());
        assert!(parse_command(&["query", "--load", "x.snap", "--shards", "2"]).is_err());
        assert!(parse_command(&["serve", "--load", "x.snap", "--shard-by", "hash"]).is_err());
    }

    #[test]
    fn metrics_and_deadline_flags_parse() {
        match parse_command(&["query", "a.txt", "--metrics", "--deadline-ms", "250"]).unwrap() {
            Command::Serve(c) => {
                assert!(c.metrics);
                assert_eq!(c.deadline_ms, Some(250));
            }
            other => panic!("{other:?}"),
        }
        match parse_command(&["index", "a.txt", "--metrics"]).unwrap() {
            Command::Serve(c) => assert!(c.metrics),
            other => panic!("{other:?}"),
        }
        // Defaults: no dump, no deadline.
        match parse_command(&["query", "a.txt"]).unwrap() {
            Command::Serve(c) => {
                assert!(!c.metrics);
                assert_eq!(c.deadline_ms, None);
            }
            other => panic!("{other:?}"),
        }
        // The repl dumps via :metrics, and deadlines are a query-mode
        // feature with a required non-zero value.
        assert!(parse_command(&["repl", "a.txt", "--metrics"]).is_err());
        assert!(parse_command(&["index", "a.txt", "--deadline-ms", "5"]).is_err());
        assert!(parse_command(&["repl", "a.txt", "--deadline-ms", "5"]).is_err());
        assert!(parse_command(&["query", "a.txt", "--deadline-ms"]).is_err());
        assert!(parse_command(&["query", "a.txt", "--deadline-ms", "0"]).is_err());
        assert!(parse_command(&["query", "a.txt", "--deadline-ms", "x"]).is_err());
    }

    #[test]
    fn save_and_load_flags_parse() {
        match parse_command(&["index", "corpus.txt", "--tau-max", "2", "--save", "x.snap"]).unwrap()
        {
            Command::Serve(c) => {
                assert_eq!(c.save, Some(PathBuf::from("x.snap")));
                assert_eq!(c.source, IndexSource::Corpus(PathBuf::from("corpus.txt")));
            }
            other => panic!("{other:?}"),
        }
        match parse_command(&["query", "--load", "x.snap", "--tau", "1"]).unwrap() {
            Command::Serve(c) => {
                assert_eq!(c.source, IndexSource::Snapshot(PathBuf::from("x.snap")));
                assert_eq!(c.tau, 1);
                assert!(c.tau_explicit);
            }
            other => panic!("{other:?}"),
        }
        match parse_command(&["repl", "--load", "x.snap"]).unwrap() {
            Command::Serve(c) => {
                assert_eq!(c.source, IndexSource::Snapshot(PathBuf::from("x.snap")));
                assert!(!c.tau_explicit);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn save_and_load_flags_reject_bad_combinations() {
        // A corpus and a snapshot are mutually exclusive sources.
        assert!(parse_command(&["query", "corpus.txt", "--load", "x.snap"]).is_err());
        // `index` builds from a corpus; loading is for the serving modes.
        assert!(parse_command(&["index", "--load", "x.snap"]).is_err());
        // The snapshot dictates tau_max.
        assert!(parse_command(&["query", "--load", "x.snap", "--tau-max", "3"]).is_err());
        // Flag values are required.
        assert!(parse_command(&["query", "a.txt", "--load"]).is_err());
        assert!(parse_command(&["index", "a.txt", "--save"]).is_err());
    }

    #[test]
    fn resolve_tau_respects_explicitness() {
        // Default tau adapts to a smaller loaded tau_max…
        let c = match parse_command(&["query", "--load", "x.snap"]).unwrap() {
            Command::Serve(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(c.resolve_tau(1), Ok(1));
        assert_eq!(c.resolve_tau(4), Ok(2));
        // …but an explicit --tau above it is an error, not a silent cap.
        let c = match parse_command(&["query", "--load", "x.snap", "--tau", "3"]).unwrap() {
            Command::Serve(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(c.resolve_tau(3), Ok(3));
        assert!(c.resolve_tau(2).is_err());
    }

    #[test]
    fn serve_subcommand_parses_and_gates_its_flags() {
        match parse_command(&[
            "serve",
            "corpus.txt",
            "--addr",
            "127.0.0.1:0",
            "--tau",
            "1",
            "--tau-max",
            "2",
            "--threads",
            "4",
            "--max-verify-ceiling",
            "5000",
            "--deadline-ms",
            "250",
            "--allow-shutdown",
        ])
        .unwrap()
        {
            Command::Serve(c) => {
                assert_eq!(c.mode, ServeMode::Serve);
                assert_eq!(c.addr, "127.0.0.1:0");
                assert_eq!((c.tau, c.tau_max), (1, 2));
                assert_eq!(c.threads, 4);
                assert_eq!(c.max_verify_ceiling, Some(5000));
                assert_eq!(c.deadline_ms, Some(250));
                assert!(c.allow_shutdown);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: well-known address, no ceilings, shutdown disabled.
        match parse_command(&["serve", "corpus.txt"]).unwrap() {
            Command::Serve(c) => {
                assert_eq!(c.addr, DEFAULT_ADDR);
                assert_eq!(c.max_verify_ceiling, None);
                assert!(!c.allow_shutdown);
            }
            other => panic!("{other:?}"),
        }
        // Serving from a snapshot parses like query's --load.
        match parse_command(&["serve", "--load", "x.snap"]).unwrap() {
            Command::Serve(c) => {
                assert_eq!(c.source, IndexSource::Snapshot(PathBuf::from("x.snap")));
            }
            other => panic!("{other:?}"),
        }
        // The serve-only flags stay serve-only, and the query-only result
        // shapes stay out of serve mode.
        assert!(parse_command(&["query", "a.txt", "--addr", "x:1"]).is_err());
        assert!(parse_command(&["index", "a.txt", "--max-verify-ceiling", "5"]).is_err());
        assert!(parse_command(&["query", "a.txt", "--allow-shutdown"]).is_err());
        assert!(parse_command(&["serve", "a.txt", "--limit", "5"]).is_err());
        assert!(parse_command(&["serve", "a.txt", "--stream"]).is_err());
        assert!(parse_command(&["serve", "a.txt", "--metrics"]).is_err());
        assert!(parse_command(&["serve", "a.txt", "--addr"]).is_err());
    }

    #[test]
    fn storage_flags_parse_with_load() {
        // --mmap works for every snapshot-serving mode.
        for mode in ["query", "repl", "serve"] {
            match parse_command(&[mode, "--load", "x.snap", "--mmap"]).unwrap() {
                Command::Serve(c) => assert!(c.mmap, "{mode}"),
                other => panic!("{other:?}"),
            }
        }
        // --save-delta is the repl's exit checkpoint.
        match parse_command(&["repl", "--load", "x.snap", "--save-delta"]).unwrap() {
            Command::Serve(c) => assert!(c.save_delta),
            other => panic!("{other:?}"),
        }
        // The background checkpointer is a serve-mode feature.
        match parse_command(&[
            "serve",
            "--load",
            "x.snap",
            "--checkpoint-every",
            "30",
            "--checkpoint-path",
            "ckpt/base.snap",
        ])
        .unwrap()
        {
            Command::Serve(c) => {
                assert_eq!(c.checkpoint_every, Some(30));
                assert_eq!(c.checkpoint_path, Some(PathBuf::from("ckpt/base.snap")));
            }
            other => panic!("{other:?}"),
        }
        // Defaults: plain read, no checkpointing.
        match parse_command(&["serve", "--load", "x.snap"]).unwrap() {
            Command::Serve(c) => {
                assert!(!c.mmap && !c.save_delta);
                assert_eq!(c.checkpoint_every, None);
                assert_eq!(c.checkpoint_path, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn storage_flags_reject_bad_combinations() {
        // All of them operate on a loaded snapshot, not a corpus build.
        assert!(parse_command(&["query", "a.txt", "--mmap"]).is_err());
        assert!(parse_command(&["repl", "a.txt", "--save-delta"]).is_err());
        assert!(parse_command(&["serve", "a.txt", "--checkpoint-every", "5"]).is_err());
        // Mode gating: index never loads, deltas come from repl
        // mutations, the checkpointer is the server's.
        assert!(parse_command(&["index", "a.txt", "--mmap"]).is_err());
        assert!(parse_command(&["query", "--load", "x.snap", "--save-delta"]).is_err());
        assert!(parse_command(&["serve", "--load", "x.snap", "--save-delta"]).is_err());
        assert!(parse_command(&["repl", "--load", "x.snap", "--checkpoint-every", "5"]).is_err());
        assert!(parse_command(&["query", "--load", "x.snap", "--checkpoint-path", "p"]).is_err());
        // Values are required and checked.
        assert!(parse_command(&["serve", "--load", "x.snap", "--checkpoint-every"]).is_err());
        assert!(parse_command(&["serve", "--load", "x.snap", "--checkpoint-every", "0"]).is_err());
        assert!(
            parse_command(&["serve", "--load", "x.snap", "--checkpoint-path", "p"]).is_err(),
            "--checkpoint-path without --checkpoint-every has nothing to write"
        );
    }

    #[test]
    fn client_subcommand_parses() {
        match parse_command(&[
            "client",
            "--addr",
            "10.0.0.1:7878",
            "--queries",
            "q.txt",
            "--tau",
            "2",
            "--limit",
            "5",
            "--stream",
            "--max-verify",
            "100",
            "--batch-max-verify",
            "1000",
            "--chunk",
            "64",
            "--stats",
            "--metrics",
            "--shutdown",
        ])
        .unwrap()
        {
            Command::Client(c) => {
                assert_eq!(c.addr, "10.0.0.1:7878");
                assert_eq!(c.queries, Some(PathBuf::from("q.txt")));
                assert_eq!(c.tau, Some(2));
                assert_eq!(c.limit, Some(5));
                assert!(c.stream && !c.count_only);
                assert_eq!(c.max_verify, Some(100));
                assert_eq!(c.batch_max_verify, Some(1000));
                assert_eq!(c.chunk, 64);
                assert!(c.stats && c.metrics && c.shutdown);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: well-known address, stdin queries, server-side tau.
        match parse_command(&["client"]).unwrap() {
            Command::Client(c) => {
                assert_eq!(c.addr, DEFAULT_ADDR);
                assert_eq!(c.queries, None);
                assert_eq!(c.tau, None);
                assert_eq!(c.chunk, 512);
            }
            other => panic!("{other:?}"),
        }
        // The client takes no positional corpus, and values are checked.
        assert!(parse_command(&["client", "corpus.txt"]).is_err());
        assert!(parse_command(&["client", "--chunk", "0"]).is_err());
        assert!(parse_command(&["client", "--deadline-ms", "0"]).is_err());
        assert!(parse_command(&["client", "--bogus"]).is_err());
    }

    #[test]
    fn build_index_assigns_line_number_ids() {
        let lines = corpus_lines("vldb\n\npvldb\n");
        assert_eq!(lines.len(), 3, "empty lines keep their id slot");
        let c = match parse_command(&["query", "x.txt", "--tau", "1"]).unwrap() {
            Command::Serve(c) => c,
            other => panic!("{other:?}"),
        };
        let index = c.build_index(&lines);
        assert_eq!(index.len(), 3);
        assert_eq!(index.matches(b"vldb", 1), vec![(0, 0), (2, 1)]);
    }
}
