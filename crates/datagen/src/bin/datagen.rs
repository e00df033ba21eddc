//! `datagen` — writes a synthetic corpus as a newline-delimited file, for
//! scripting the `simjoin` pipeline (CI smoke tests, benchmarks, demos).
//!
//! ```text
//! datagen --kind author --n 20000 --seed 42 --out corpus.txt
//! datagen --kind querylog --n 100000 --dup-rate 0.1 --max-edits 1 \
//!     --out corpus.txt --truth truth.tsv
//! ```
//!
//! Kinds mirror the paper's evaluation corpora: `author` (short strings),
//! `querylog` (medium), `authortitle` (long). Output is deterministic in
//! the seed. `--truth` additionally writes the planted-duplicate ground
//! truth as `dup<TAB>base` line-index pairs — the oracle the dedup smoke
//! tests recover. `--churn N --churn-out script.txt` writes a
//! deterministic insert/remove workload over the corpus in the repl's
//! `:add`/`:rm` syntax, for delta-checkpoint tests and smokes:
//!
//! ```text
//! datagen --kind author --n 20000 --out base.txt --churn 1000 --churn-out churn.txt
//! simjoin index base.txt --tau-max 2 --save base.snap
//! simjoin repl --load base.snap --save-delta < churn.txt
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use datagen::{DatasetKind, DatasetSpec};

const USAGE: &str = "usage:
  datagen --kind author|querylog|authortitle --n N [--seed S] [--out corpus.txt]
          [--dup-rate R] [--max-edits K] [--truth truth.tsv]
          [--churn N --churn-out script.txt]";

struct Args {
    kind: DatasetKind,
    n: usize,
    seed: u64,
    out: Option<PathBuf>,
    dup_rate: Option<f64>,
    max_edits: Option<usize>,
    truth: Option<PathBuf>,
    churn: Option<usize>,
    churn_out: Option<PathBuf>,
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut kind = None;
    let mut n = None;
    let mut seed = 42u64;
    let mut out = None;
    let mut dup_rate = None;
    let mut max_edits = None;
    let mut truth = None;
    let mut churn = None;
    let mut churn_out = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--kind" => {
                let v = it.next().ok_or("--kind requires a value")?;
                kind = Some(match v.as_str() {
                    "author" => DatasetKind::Author,
                    "querylog" => DatasetKind::QueryLog,
                    "authortitle" => DatasetKind::AuthorTitle,
                    other => {
                        return Err(format!(
                            "unknown kind '{other}' (expected author, querylog, authortitle)"
                        ))
                    }
                });
            }
            "--n" => {
                n = Some(
                    it.next()
                        .ok_or("--n requires a value")?
                        .parse()
                        .map_err(|_| "--n requires a non-negative integer")?,
                );
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed requires a value")?
                    .parse()
                    .map_err(|_| "--seed requires a non-negative integer")?;
            }
            "--out" => {
                out = Some(PathBuf::from(it.next().ok_or("--out requires a path")?));
            }
            "--dup-rate" => {
                let v: f64 = it
                    .next()
                    .ok_or("--dup-rate requires a value")?
                    .parse()
                    .map_err(|_| "--dup-rate requires a number in [0, 1]")?;
                if !(0.0..=1.0).contains(&v) {
                    return Err("--dup-rate requires a number in [0, 1]".into());
                }
                dup_rate = Some(v);
            }
            "--max-edits" => {
                let v: usize = it
                    .next()
                    .ok_or("--max-edits requires a value")?
                    .parse()
                    .map_err(|_| "--max-edits requires a positive integer")?;
                if v == 0 {
                    return Err("--max-edits requires a positive integer".into());
                }
                max_edits = Some(v);
            }
            "--truth" => {
                truth = Some(PathBuf::from(it.next().ok_or("--truth requires a path")?));
            }
            "--churn" => {
                churn = Some(
                    it.next()
                        .ok_or("--churn requires a value")?
                        .parse()
                        .map_err(|_| "--churn requires a non-negative integer")?,
                );
            }
            "--churn-out" => {
                churn_out = Some(PathBuf::from(
                    it.next().ok_or("--churn-out requires a path")?,
                ));
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if churn.is_some() != churn_out.is_some() {
        return Err("--churn and --churn-out go together".into());
    }
    Ok(Args {
        kind: kind.ok_or("missing required --kind")?,
        n: n.ok_or("missing required --n")?,
        seed,
        out,
        dup_rate,
        max_edits,
        truth,
        churn,
        churn_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("datagen: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let mut spec = DatasetSpec::new(args.kind, args.n).with_seed(args.seed);
    if let Some(rate) = args.dup_rate {
        spec = spec.with_duplicate_rate(rate);
    }
    if let Some(edits) = args.max_edits {
        spec = spec.with_max_planted_edits(edits);
    }
    let (strings, truth) = spec.generate_with_truth();
    if let (Some(n), Some(path)) = (args.churn, &args.churn_out) {
        // The churn script's seed is offset from the corpus seed so the
        // two streams stay independent but both derive from --seed.
        let ops = datagen::churn_ops(&strings, n, args.seed.wrapping_add(1));
        let lines = datagen::churn_script(&ops);
        if let Err(e) = datagen::io::save_lines(path, &lines) {
            eprintln!("datagen: churn script write failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.truth {
        let lines: Vec<Vec<u8>> = truth
            .iter()
            .map(|(dup, base)| format!("{dup}\t{base}").into_bytes())
            .collect();
        if let Err(e) = datagen::io::save_lines(path, &lines) {
            eprintln!("datagen: truth write failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let result = match &args.out {
        Some(path) => datagen::io::save_lines(path, &strings),
        None => {
            use std::io::Write;
            let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
            strings
                .iter()
                .try_for_each(|s| stdout.write_all(s).and_then(|()| stdout.write_all(b"\n")))
                .and_then(|()| stdout.flush())
        }
    };
    if let Err(e) = result {
        eprintln!("datagen: write failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
