//! In-memory spans around the benchmark's calls into the program, their
//! on-disk form, and the self-time arithmetic of the traced report.
//!
//! A span is one public call (or one benchmark phase that groups calls):
//! its name, start and end on one monotonic clock, the span that caused
//! it, and the request it served. Spans are kept in memory while the
//! traced phase runs and written out once it ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` 0 marks a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started but not ended yet.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    start_ns: u64,
}

/// The span recorder shared by every thread of a traced run.
pub struct Trace {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span; its id is known now so children can name it.
    pub fn open(&self) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: self.now_ns(),
        }
    }

    /// Ends `open` and records it.
    pub fn close(&self, open: Open, parent: u64, req: u64, name: &'static str) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a traced thread panicked")
            .push(Span {
                id: open.id,
                parent,
                req,
                name,
                start_ns: open.start_ns,
                end_ns,
            });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, parent: u64, req: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open();
        let out = f();
        self.close(open, parent, req, name);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("a traced thread panicked"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Runs `f` inside a span when tracing, or plainly when not.
pub fn timed<R>(
    trace: Option<&Trace>,
    parent: u64,
    req: u64,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        Some(t) => t.time(parent, req, name, f),
        None => f(),
    }
}

/// Writes spans as tab-separated `id parent req name start_ns end_ns`.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::with_capacity(spans.len() * 48);
    text.push_str("id\tparent\treq\tname\tstart_ns\tend_ns\n");
    for s in spans {
        writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads back a file written by [`write_spans`].
pub fn read_spans(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut names: HashMap<String, &'static str> = HashMap::new();
    let mut spans = Vec::new();
    for (i, line) in text.lines().enumerate().skip(1) {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("{}: malformed span line {}", path.display(), i + 1);
        if f.len() != 6 {
            return Err(bad());
        }
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let name = match names.get(f[3]) {
            Some(&n) => n,
            None => {
                let leaked: &'static str = Box::leak(f[3].to_owned().into_boxed_str());
                names.insert(f[3].to_owned(), leaked);
                leaked
            }
        };
        spans.push(Span {
            id: num(f[0])?,
            parent: num(f[1])?,
            req: num(f[2])?,
            name,
            start_ns: num(f[4])?,
            end_ns: num(f[5])?,
        });
    }
    Ok(spans)
}

/// Nanoseconds of `[start, end)` that no child interval covers. Children
/// are clipped to the parent and may overlap each other (children on
/// other threads); overlapping stretches are counted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Per-name totals of a span tree.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// True when spans of this name are roots over other spans: phases
    /// whose self time no measured call explains.
    pub root: bool,
}

/// Aggregates spans by name: count, summed duration, and summed self
/// time (duration minus the part its children cover).
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, NameTotals)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut order: Vec<&'static str> = Vec::new();
    let mut by_name: HashMap<&'static str, NameTotals> = HashMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let t = by_name.entry(s.name).or_insert_with(|| {
            order.push(s.name);
            NameTotals::default()
        });
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_time(s.start_ns, s.end_ns, kids);
        t.root |= s.parent == 0 && !kids.is_empty();
    }
    order
        .into_iter()
        .map(|n| {
            (
                n,
                by_name.remove(n).expect("every ordered name was inserted"),
            )
        })
        .collect()
}

/// Prints the span table. A root's self time is the part of the phase
/// no measured call explains; it is printed as unattributed.
pub fn print_report(workload: &str, totals: &[(&'static str, NameTotals)]) {
    println!(
        "trace {workload}: {:<28} {:>9} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, t) in totals {
        println!(
            "trace {workload}: {:<28} {:>9} {:>12.6} {:>12.6}{}",
            name,
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9,
            if t.root { "  (unattributed)" } else { "" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children (other threads) count their union.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50)]), 60);
        // A child running past its parent is clipped.
        assert_eq!(self_time(10, 100, &[(90, 150), (0, 15)]), 75);
        // Nested and duplicate children.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30), (10, 60)]), 50);
        assert_eq!(self_time(0, 100, &[(0, 100)]), 0);
    }

    #[test]
    fn totals_split_a_tree_into_self_times() {
        let spans = vec![
            span(1, 0, "phase", 0, 1000),
            span(2, 1, "search", 100, 400),
            span(3, 1, "insert", 400, 500),
            span(4, 1, "search", 600, 800),
            span(5, 2, "verify", 150, 250),
            span(6, 0, "lone", 2000, 2100),
        ];
        let totals = totals_by_name(&spans);
        let get = |n: &str| totals.iter().find(|(m, _)| *m == n).unwrap().1.clone();
        assert_eq!(get("phase").self_ns, 1000 - 300 - 100 - 200);
        assert!(get("phase").root);
        assert_eq!(get("search").count, 2);
        assert_eq!(get("search").total_ns, 500);
        assert_eq!(get("search").self_ns, 500 - 100);
        assert_eq!(get("verify").self_ns, 100);
        // A root with no children is a measured call, not a phase.
        assert!(!get("lone").root);
        // Self times partition the roots' durations.
        let sum: u64 = totals.iter().map(|(_, t)| t.self_ns).sum();
        assert_eq!(sum, 1000 + 100);
    }

    #[test]
    fn spans_round_trip_through_the_file() {
        let trace = Trace::new();
        let root = trace.open();
        let inner = trace.time(root.id, 7, "inner", || 42);
        assert_eq!(inner, 42);
        trace.close(root, 0, 7, "outer");
        let spans = trace.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, spans[0].id);

        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.tsv");
        write_spans(&path, &spans).unwrap();
        assert_eq!(read_spans(&path).unwrap(), spans);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
