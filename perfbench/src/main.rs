//! The repository benchmark: one process runs one workload.
//!
//! ```text
//! perfbench --workload join-long|ingest|serve|dedup --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs come from the seed alone. An untraced run (`--trace 0`)
//! measures the end-to-end metrics; a traced run (`--trace 1`) repeats the
//! untraced timed phase, then runs it again with spans around every call
//! into the program, writes the spans to `perfbench/out/`, and prints the
//! per-layer metrics computed from the written file. Outputs are checked
//! after the timed phases. The last stdout line is the JSON result; a
//! failed check also makes the exit code non-zero.

mod check;
mod clusters;
mod dedup;
mod ingest;
mod join_long;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use datagen::DatasetSpec;

use report::{Report, WORKLOADS};
use trace::{Span, Trace};

const USAGE: &str =
    "usage: perfbench --workload join-long|ingest|serve|dedup --seed N --seconds S --trace 0|1";

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        *WORKLOADS
                            .iter()
                            .find(|w| **w == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds must be in (0, 600], got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("trace must be 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// The timed-phase budget, or the given share of it.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Where runs leave span files and snapshots: inside the benchmark's
/// own directory, which `.gitignore` covers.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// `spec.cardinality` records generated as `parts` consecutive slices,
/// each from its own seed derived from `seed`, with the planted-duplicate
/// truth shifted to corpus positions.
///
/// Each generator seed draws its own vocabulary, and a few frequent words
/// set how many candidates a corpus produces: across single draws the join
/// work varies twofold. Averaging over several draws keeps one draw from
/// setting the run's cost, so runs with different seeds are comparable.
pub fn corpus(spec: DatasetSpec, parts: u64, seed: u64) -> (Vec<Vec<u8>>, Vec<(u32, u32)>) {
    let n = spec.cardinality as u64;
    let mut records = Vec::with_capacity(spec.cardinality);
    let mut truth = Vec::new();
    for k in 0..parts {
        let part = DatasetSpec {
            cardinality: (n * (k + 1) / parts - n * k / parts) as usize,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k),
            ..spec
        };
        let (recs, planted) = part.generate_with_truth();
        let offset = records.len() as u32;
        truth.extend(planted.into_iter().map(|(d, b)| (d + offset, b + offset)));
        records.extend(recs);
    }
    (records, truth)
}

/// Runs `pass` back to back while another pass is expected to end within
/// `budget` (at least `min` passes), handing each output to `after`
/// outside the timing. Returns each pass's seconds.
pub fn run_passes<T>(
    budget: Duration,
    min: usize,
    mut pass: impl FnMut() -> T,
    mut after: impl FnMut(T),
) -> Vec<f64> {
    let started = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t0 = Instant::now();
        let out = pass();
        let took = t0.elapsed();
        secs.push(took.as_secs_f64());
        after(out);
        if secs.len() >= min && started.elapsed() + took > budget {
            return secs;
        }
    }
}

/// Durations in seconds of the spans called `name`.
pub fn span_secs(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect()
}

/// Writes the traced run's spans, reads them back, and prints the span
/// table from the file; the per-layer metrics are computed from what this
/// returns, so they are the written spans' numbers.
pub fn write_trace(
    workload: &str,
    trace: &Trace,
    link: impl FnOnce(&mut [Span]),
) -> Result<Vec<Span>, String> {
    let mut spans = trace.take();
    link(&mut spans);
    let path = out_dir()?.join(format!("spans-{workload}.tsv"));
    trace::write_spans(&path, &spans)?;
    let spans = trace::read_spans(&path)?;
    println!(
        "trace {workload}: {} spans written to {}",
        spans.len(),
        path.display()
    );
    trace::print_report(workload, &trace::totals_by_name(&spans));
    Ok(spans)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload {
        "join-long" => join_long::run,
        "ingest" => ingest::run,
        "serve" => serve::run,
        "dedup" => dedup::run,
        other => unreachable!("parse admits only catalogued workloads, got {other}"),
    };
    let report: Report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let line = match report.json(args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!("{line}");
    if report.failed > 0 {
        for failure in &report.failures {
            eprintln!("perfbench: {}: check failed: {failure}", args.workload);
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve", 7, 15.0, true)
        );
        assert!(parse(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(parse(&[
            "--workload",
            "serve",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&["--workload", "serve", "--seed", "1", "--seconds", "1"]).is_err());
    }

    #[test]
    fn passes_stop_once_the_next_would_overrun() {
        assert_eq!(run_passes(Duration::ZERO, 1, || (), |_| {}).len(), 1);
        assert_eq!(run_passes(Duration::ZERO, 3, || (), |_| {}).len(), 3);
        let mut outputs = Vec::new();
        let secs = run_passes(Duration::ZERO, 2, || 7, |n| outputs.push(n));
        assert_eq!((secs.len(), outputs), (2, vec![7, 7]));
    }
}
