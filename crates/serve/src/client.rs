//! A blocking line-protocol client: the CLI `client` subcommand and the
//! loopback tests both drive the server through this.
//!
//! [`Client`] owns one connection. Each request method writes one
//! request line and drains the response into typed [`Event`]s up to and
//! including the terminator; streaming consumers can instead walk
//! events one at a time with [`Client::read_event`].
//!
//! The socket has `TCP_NODELAY` set and each request line, newline
//! included, goes out in one write, so a short line is sent at once
//! instead of waiting on the acknowledgement of the previous write.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::json::{self, Json};
use crate::proto::{BudgetSpec, MetricsFormat};

/// One response line, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A verified match: in-line query index, string id, distance.
    Match {
        /// The query's index within its request line.
        q: u64,
        /// The matched string's id.
        id: u64,
        /// The exact edit distance.
        d: u64,
    },
    /// A query finished.
    Eoq {
        /// The query's index within its request line.
        q: u64,
        /// Matches emitted (or the count, for count-only queries).
        n: u64,
        /// Whether the scan ran to completion.
        complete: bool,
        /// The truncation reason when `complete` is false.
        reason: Option<String>,
    },
    /// The `metrics` op's payload (the raw dump text).
    Metrics(String),
    /// The success terminator with its aggregate counters.
    Done {
        /// Queries executed.
        queries: u64,
        /// Matches found.
        matches: u64,
        /// Queries truncated by a budget.
        truncated: u64,
        /// Posting entries scanned.
        candidates: u64,
        /// Edit-distance verifications run.
        verifications: u64,
    },
    /// The error terminator.
    Error {
        /// The typed code (`parse`, `bad_request`, …).
        code: String,
        /// Human-readable detail.
        msg: String,
    },
}

impl Event {
    /// True for the two terminator variants.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Event::Done { .. } | Event::Error { .. })
    }
}

/// Everything a query request can carry; maps 1:1 onto the wire fields
/// of the `query` op (see [`crate::proto`]).
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Per-line threshold (server default when `None`).
    pub tau: Option<usize>,
    /// Top-k limit per query.
    pub limit: Option<usize>,
    /// Count-only mode.
    pub count: bool,
    /// Stream matches in verification order.
    pub stream: bool,
    /// Per-query budget caps.
    pub budget: BudgetSpec,
    /// Shared budget drained across the line's queries.
    pub batch: Option<BudgetSpec>,
}

/// A blocking connection to a serve endpoint.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            writer: stream,
            reader,
        })
    }

    /// Sends one raw request line (no trailing newline needed) in one
    /// write.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    /// Reads and decodes the next response line. `Ok(None)` on EOF.
    pub fn read_event(&mut self) -> io::Result<Option<Event>> {
        let mut line = Vec::new();
        loop {
            line.clear();
            let n = self.reader.read_until(b'\n', &mut line)?;
            if n == 0 {
                return Ok(None);
            }
            let trimmed: &[u8] = line
                .strip_suffix(b"\n")
                .map(|l| l.strip_suffix(b"\r").unwrap_or(l))
                .unwrap_or(&line);
            if trimmed.is_empty() {
                continue;
            }
            return decode_event(trimmed)
                .map(Some)
                .map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg));
        }
    }

    /// Sends a raw line and drains its whole response (terminator
    /// included, as the last event).
    pub fn request_raw(&mut self, line: &str) -> io::Result<Vec<Event>> {
        self.send_raw(line)?;
        let mut events = Vec::new();
        loop {
            match self.read_event()? {
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before the response terminator",
                    ))
                }
                Some(event) => {
                    let last = event.is_terminator();
                    events.push(event);
                    if last {
                        return Ok(events);
                    }
                }
            }
        }
    }

    /// Runs one query line over `queries` and drains the response.
    pub fn query<Q: AsRef<[u8]>>(
        &mut self,
        queries: &[Q],
        options: &QueryOptions,
    ) -> io::Result<Vec<Event>> {
        let line = build_query_line(queries, options);
        self.request_raw(&line)
    }

    /// Sends the query line without draining — use [`Client::read_event`]
    /// to walk the response at the consumer's own pace (this is what
    /// makes a client "slow" from the server's perspective).
    pub fn query_nowait<Q: AsRef<[u8]>>(
        &mut self,
        queries: &[Q],
        options: &QueryOptions,
    ) -> io::Result<()> {
        let line = build_query_line(queries, options);
        self.send_raw(&line)
    }

    /// Fetches the server's metrics dump.
    pub fn metrics(&mut self, format: MetricsFormat) -> io::Result<String> {
        let format = match format {
            MetricsFormat::Prometheus => "prometheus",
            MetricsFormat::Json => "json",
        };
        let events =
            self.request_raw(&format!("{{\"op\":\"metrics\",\"format\":\"{format}\"}}"))?;
        for event in events {
            match event {
                Event::Metrics(dump) => return Ok(dump),
                Event::Error { code, msg } => {
                    return Err(io::Error::other(format!("server error {code}: {msg}")))
                }
                _ => {}
            }
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "metrics response carried no metrics line",
        ))
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> io::Result<()> {
        let events = self.request_raw("{\"op\":\"ping\"}")?;
        match events.last() {
            Some(Event::Done { .. }) => Ok(()),
            other => Err(io::Error::other(format!(
                "unexpected ping reply: {other:?}"
            ))),
        }
    }

    /// Asks the server to shut down gracefully (it must allow it).
    pub fn shutdown(&mut self) -> io::Result<()> {
        let events = self.request_raw("{\"op\":\"shutdown\"}")?;
        match events.last() {
            Some(Event::Done { .. }) => Ok(()),
            Some(Event::Error { code, msg }) => {
                Err(io::Error::other(format!("server error {code}: {msg}")))
            }
            other => Err(io::Error::other(format!(
                "unexpected shutdown reply: {other:?}"
            ))),
        }
    }
}

/// Builds one `op:query` request line.
pub fn build_query_line<Q: AsRef<[u8]>>(queries: &[Q], options: &QueryOptions) -> String {
    use std::fmt::Write as _;

    let mut line = String::from("{\"op\":\"query\"");
    if queries.len() == 1 {
        line.push_str(",\"q\":");
        json::write_string(&mut line, queries[0].as_ref());
    } else {
        line.push_str(",\"queries\":[");
        for (i, q) in queries.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            json::write_string(&mut line, q.as_ref());
        }
        line.push(']');
    }
    let num = |line: &mut String, key: &str, value: Option<u64>| {
        if let Some(v) = value {
            write!(line, ",\"{key}\":{v}").expect("writing to a String cannot fail");
        }
    };
    num(&mut line, "tau", options.tau.map(|t| t as u64));
    num(&mut line, "limit", options.limit.map(|k| k as u64));
    if options.count {
        line.push_str(",\"count\":true");
    }
    if options.stream {
        line.push_str(",\"stream\":true");
    }
    num(&mut line, "max_verify", options.budget.max_verify);
    num(&mut line, "max_candidates", options.budget.max_candidates);
    num(&mut line, "deadline_ms", options.budget.deadline_ms);
    if let Some(batch) = &options.batch {
        line.push_str(",\"batch\":{");
        let mut first = true;
        let mut bnum = |line: &mut String, key: &str, value: Option<u64>| {
            if let Some(v) = value {
                if !first {
                    line.push(',');
                }
                first = false;
                write!(line, "\"{key}\":{v}").expect("writing to a String cannot fail");
            }
        };
        bnum(&mut line, "max_verify", batch.max_verify);
        bnum(&mut line, "max_candidates", batch.max_candidates);
        bnum(&mut line, "deadline_ms", batch.deadline_ms);
        line.push('}');
    }
    line.push('}');
    line
}

fn req_u64(obj: &Json, key: &'static str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response field {key} missing or not an integer"))
}

fn decode_event(line: &[u8]) -> Result<Event, String> {
    let value = json::parse(line).map_err(|e| format!("bad response line: {e}"))?;
    if let Some(eoq) = value.get("eoq") {
        return Ok(Event::Eoq {
            q: req_u64(eoq, "q")?,
            n: req_u64(eoq, "n")?,
            complete: eoq
                .get("complete")
                .and_then(Json::as_bool)
                .ok_or("eoq without complete")?,
            reason: eoq
                .get("reason")
                .and_then(Json::as_str)
                .map(|r| String::from_utf8_lossy(r).into_owned()),
        });
    }
    if let Some(done) = value.get("done") {
        return Ok(Event::Done {
            queries: req_u64(done, "queries")?,
            matches: req_u64(done, "matches")?,
            truncated: req_u64(done, "truncated")?,
            candidates: req_u64(done, "candidates")?,
            verifications: req_u64(done, "verifications")?,
        });
    }
    if let Some(error) = value.get("error") {
        let field = |key: &'static str| {
            error
                .get(key)
                .and_then(Json::as_str)
                .map(|v| String::from_utf8_lossy(v).into_owned())
                .ok_or_else(|| format!("error terminator without {key}"))
        };
        return Ok(Event::Error {
            code: field("code")?,
            msg: field("msg")?,
        });
    }
    if let Some(metrics) = value.get("metrics") {
        let dump = metrics.as_str().ok_or("metrics payload must be a string")?;
        return Ok(Event::Metrics(String::from_utf8_lossy(dump).into_owned()));
    }
    if value.get("q").is_some() {
        return Ok(Event::Match {
            q: req_u64(&value, "q")?,
            id: req_u64(&value, "id")?,
            d: req_u64(&value, "d")?,
        });
    }
    Err(format!(
        "unrecognized response line: {}",
        String::from_utf8_lossy(line)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_lines_round_trip_through_the_parser() {
        let options = QueryOptions {
            tau: Some(2),
            limit: Some(5),
            count: false,
            stream: true,
            budget: BudgetSpec {
                max_verify: Some(100),
                max_candidates: None,
                deadline_ms: Some(50),
            },
            batch: Some(BudgetSpec {
                max_verify: Some(500),
                max_candidates: None,
                deadline_ms: None,
            }),
        };
        let line = build_query_line(&[b"jim gray".as_slice(), b"ed codd"], &options);
        let parsed = crate::proto::parse_request(line.as_bytes(), 16).unwrap();
        let crate::proto::Request::Query(spec) = parsed else {
            panic!("expected a query")
        };
        assert_eq!(
            spec.queries,
            vec![b"jim gray".to_vec(), b"ed codd".to_vec()]
        );
        assert_eq!(spec.tau, Some(2));
        assert_eq!(spec.limit, Some(5));
        assert!(spec.stream && !spec.count);
        assert_eq!(spec.budget.max_verify, Some(100));
        assert_eq!(spec.budget.deadline_ms, Some(50));
        assert_eq!(spec.batch.unwrap().max_verify, Some(500));

        // Single query uses the "q" form.
        let line = build_query_line(&[b"solo".as_slice()], &QueryOptions::default());
        assert!(line.contains("\"q\":\"solo\""));
        assert!(!line.contains("queries"));
    }

    #[test]
    fn decodes_every_event_shape() {
        assert_eq!(
            decode_event(br#"{"q":0,"id":17,"d":1}"#).unwrap(),
            Event::Match { q: 0, id: 17, d: 1 }
        );
        assert_eq!(
            decode_event(br#"{"eoq":{"q":1,"n":9,"complete":false,"reason":"deadline"}}"#).unwrap(),
            Event::Eoq {
                q: 1,
                n: 9,
                complete: false,
                reason: Some("deadline".into())
            }
        );
        assert_eq!(
            decode_event(
                br#"{"done":{"queries":2,"matches":1,"truncated":0,"candidates":5,"verifications":3}}"#
            )
            .unwrap(),
            Event::Done {
                queries: 2,
                matches: 1,
                truncated: 0,
                candidates: 5,
                verifications: 3
            }
        );
        assert_eq!(
            decode_event(br#"{"error":{"code":"parse","msg":"bad"}}"#).unwrap(),
            Event::Error {
                code: "parse".into(),
                msg: "bad".into()
            }
        );
        assert!(matches!(
            decode_event(br#"{"metrics":"a 1\nb 2"}"#).unwrap(),
            Event::Metrics(dump) if dump == "a 1\nb 2"
        ));
        assert!(decode_event(b"{\"what\":1}").is_err());
        assert!(decode_event(b"garbage").is_err());
    }
}
