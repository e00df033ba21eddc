//! The JSONL wire protocol: request parsing and response formatting.
//!
//! Every request is **one line** of JSON; every response is one or more
//! lines of JSON ending in exactly one *terminator* line — `{"done":…}`
//! on success, `{"error":…}` on failure. Empty lines are ignored. The
//! connection survives errors: a malformed line costs that line only.
//!
//! # Requests
//!
//! ```text
//! {"op":"query","q":"jim gray","tau":2}
//! {"op":"query","queries":["a","b"],"tau":1,"limit":5,"count":false,
//!  "stream":true,"max_verify":1000,"max_candidates":5000,"deadline_ms":50,
//!  "batch":{"max_verify":2000,"deadline_ms":100}}
//! {"op":"metrics","format":"prometheus"}   // or "json"
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! `q` (one query) and `queries` (a batch) are mutually exclusive;
//! budgets are optional and are clamped by the server's ceiling; `batch`
//! attaches a *shared* budget drained across the whole line's queries.
//!
//! # Responses
//!
//! ```text
//! {"q":0,"id":17,"d":1}                    // one verified match
//! {"eoq":{"q":0,"n":2,"complete":true}}    // end of query 0
//! {"eoq":{"q":1,"n":9,"complete":false,"reason":"verification cap"}}
//! {"metrics":"…escaped dump…"}             // reply to op:metrics
//! {"done":{"queries":2,"matches":11,"truncated":1,
//!          "candidates":123,"verifications":45}}
//! {"error":{"code":"bad_request","msg":"tau 9 exceeds tau_max 2"}}
//! ```
//!
//! Match lines carry the in-line query index `q`; count-only queries
//! emit only their `eoq` (with `n` = the count). Non-streamed plain
//! queries list matches ascending by id, `limit` queries ascending by
//! `(distance, id)` — exactly the offline `Queryable` order — while
//! `stream:true` plain queries emit in verification order.

use passjoin_online::{Completion, ExecStats, QueryOutcome};

use crate::json::{self, Json};

/// Error codes a response terminator can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    Parse,
    /// The line was valid JSON but not a valid request (unknown op,
    /// missing/incompatible fields, τ above the index's τ_max, …).
    BadRequest,
    /// The line exceeded the server's `max_line_bytes`.
    LineTooLong,
    /// The `queries` array exceeded the server's `max_batch`.
    BatchTooLarge,
    /// The engine panicked answering the line; the connection keeps
    /// serving.
    Internal,
}

impl ErrorCode {
    /// The wire form of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::LineTooLong => "line_too_long",
            ErrorCode::BatchTooLarge => "batch_too_large",
            ErrorCode::Internal => "internal",
        }
    }
}

/// The format the `metrics` op dumps the registry in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// Prometheus text exposition (the default).
    #[default]
    Prometheus,
    /// The registry's JSON dump.
    Json,
}

/// Budget caps as they appear on the wire (a request's own, or the
/// shared `batch` budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetSpec {
    /// `max_verify`: cap on edit-distance verifications.
    pub max_verify: Option<u64>,
    /// `max_candidates`: cap on scanned posting entries.
    pub max_candidates: Option<u64>,
    /// `deadline_ms`: wall-clock deadline, milliseconds from receipt.
    pub deadline_ms: Option<u64>,
}

impl BudgetSpec {
    /// True when no field is set.
    pub fn is_empty(&self) -> bool {
        self.max_verify.is_none() && self.max_candidates.is_none() && self.deadline_ms.is_none()
    }
}

/// A parsed `op:query` request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// The queries on this line (one for `q`, many for `queries`).
    pub queries: Vec<Vec<u8>>,
    /// `tau`: per-line threshold; `None` defers to the server default.
    pub tau: Option<usize>,
    /// `limit`: top-k per query.
    pub limit: Option<usize>,
    /// `count`: count-only (no match lines, `eoq.n` carries the count).
    pub count: bool,
    /// `stream`: emit matches as verified (verification order) instead
    /// of buffered and sorted.
    pub stream: bool,
    /// Per-query budget caps (each query gets its own).
    pub budget: BudgetSpec,
    /// Shared budget drained across all queries on this line.
    pub batch: Option<BudgetSpec>,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `op:query` — execute similarity queries.
    Query(QuerySpec),
    /// `op:metrics` — dump the server's metrics registry.
    Metrics(MetricsFormat),
    /// `op:ping` — liveness check; responds with an empty `done`.
    Ping,
    /// `op:shutdown` — ask the server to shut down gracefully (honoured
    /// only when the server enables it).
    Shutdown,
}

/// A request parse failure: the typed code plus a human message, ready
/// to format as an error terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The typed code.
    pub code: ErrorCode,
    /// Human-readable detail for the `msg` field.
    pub msg: String,
}

impl RequestError {
    fn bad(msg: impl Into<String>) -> Self {
        Self {
            code: ErrorCode::BadRequest,
            msg: msg.into(),
        }
    }
}

fn field_u64(obj: &Json, key: &'static str) -> Result<Option<u64>, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| RequestError::bad(format!("{key} must be a non-negative integer"))),
    }
}

/// Ceiling for `tau`/`limit` on the wire. String ids are `u32`, so a
/// threshold or top-k limit beyond `u32::MAX` can never be meaningful —
/// and the same check keeps the value inside `usize` on 32-bit targets.
const WIRE_SIZE_MAX: u64 = u32::MAX as u64;

/// Like [`field_u64`], but bounded by [`WIRE_SIZE_MAX`] — a `u64::MAX`
/// tau on the wire must be a typed `bad_request`, never a silent `as`
/// wrap (which truncates on 32-bit targets and otherwise smuggles an
/// absurd-but-legal value into the engine).
fn field_usize(obj: &Json, key: &'static str) -> Result<Option<usize>, RequestError> {
    match field_u64(obj, key)? {
        None => Ok(None),
        Some(v) if v > WIRE_SIZE_MAX => Err(RequestError::bad(format!(
            "{key} = {v} is out of range (maximum {WIRE_SIZE_MAX})"
        ))),
        Some(v) => Ok(Some(v as usize)),
    }
}

fn field_bool(obj: &Json, key: &'static str) -> Result<bool, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| RequestError::bad(format!("{key} must be a boolean"))),
    }
}

fn budget_fields(obj: &Json) -> Result<BudgetSpec, RequestError> {
    Ok(BudgetSpec {
        max_verify: field_u64(obj, "max_verify")?,
        max_candidates: field_u64(obj, "max_candidates")?,
        deadline_ms: field_u64(obj, "deadline_ms")?,
    })
}

/// Parses one request line. `max_batch` bounds the `queries` array (the
/// typed [`ErrorCode::BatchTooLarge`] outcome).
pub fn parse_request(line: &[u8], max_batch: usize) -> Result<Request, RequestError> {
    let value = json::parse(line).map_err(|e| RequestError {
        code: ErrorCode::Parse,
        msg: e.to_string(),
    })?;
    if !matches!(value, Json::Object(_)) {
        return Err(RequestError {
            code: ErrorCode::Parse,
            msg: "request must be a JSON object".into(),
        });
    }
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::bad("missing or non-string \"op\""))?;
    match op {
        b"ping" => Ok(Request::Ping),
        b"shutdown" => Ok(Request::Shutdown),
        b"metrics" => {
            let format = match value.get("format").and_then(Json::as_str) {
                None => MetricsFormat::Prometheus,
                Some(b"prometheus") => MetricsFormat::Prometheus,
                Some(b"json") => MetricsFormat::Json,
                Some(_) => {
                    return Err(RequestError::bad(
                        "format must be \"prometheus\" or \"json\"",
                    ))
                }
            };
            Ok(Request::Metrics(format))
        }
        b"query" => {
            let queries = match (value.get("q"), value.get("queries")) {
                (Some(_), Some(_)) => {
                    return Err(RequestError::bad("\"q\" and \"queries\" are exclusive"))
                }
                (Some(q), None) => {
                    let q = q
                        .as_str()
                        .ok_or_else(|| RequestError::bad("q must be a string"))?;
                    vec![q.to_vec()]
                }
                (None, Some(qs)) => {
                    let items = qs
                        .as_array()
                        .ok_or_else(|| RequestError::bad("queries must be an array"))?;
                    if items.len() > max_batch {
                        return Err(RequestError {
                            code: ErrorCode::BatchTooLarge,
                            msg: format!(
                                "batch of {} queries exceeds the per-line maximum of {max_batch}",
                                items.len()
                            ),
                        });
                    }
                    items
                        .iter()
                        .map(|item| {
                            item.as_str().map(<[u8]>::to_vec).ok_or_else(|| {
                                RequestError::bad("queries must contain only strings")
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?
                }
                (None, None) => {
                    return Err(RequestError::bad("query op needs \"q\" or \"queries\""))
                }
            };
            let batch = match value.get("batch") {
                None | Some(Json::Null) => None,
                Some(obj @ Json::Object(_)) => Some(budget_fields(obj)?),
                Some(_) => return Err(RequestError::bad("batch must be an object")),
            };
            Ok(Request::Query(QuerySpec {
                queries,
                tau: field_usize(&value, "tau")?,
                limit: field_usize(&value, "limit")?,
                count: field_bool(&value, "count")?,
                stream: field_bool(&value, "stream")?,
                budget: budget_fields(&value)?,
                batch,
            }))
        }
        other => Err(RequestError::bad(format!(
            "unknown op {:?}",
            String::from_utf8_lossy(other)
        ))),
    }
}

// ---------------------------------------------------------------------
// Response formatting. Every helper returns one full line *without* the
// trailing newline; the connection layer appends it.
// ---------------------------------------------------------------------

/// Formats one match line: `{"q":Q,"id":I,"d":D}`.
pub fn match_line(q: usize, id: u32, dist: usize) -> String {
    format!("{{\"q\":{q},\"id\":{id},\"d\":{dist}}}")
}

/// Formats the end-of-query line for query `q`: its match/count `n` and
/// whether the scan completed (with the truncation reason otherwise).
pub fn eoq_line(q: usize, n: usize, completion: &Completion) -> String {
    match completion {
        Completion::Complete => format!("{{\"eoq\":{{\"q\":{q},\"n\":{n},\"complete\":true}}}}"),
        Completion::Truncated { reason } => {
            let mut line =
                format!("{{\"eoq\":{{\"q\":{q},\"n\":{n},\"complete\":false,\"reason\":");
            json::write_string(&mut line, reason.to_string().as_bytes());
            line.push_str("}}");
            line
        }
    }
}

/// Aggregates the wire totals of one request's outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DoneSummary {
    /// Queries executed on this line.
    pub queries: u64,
    /// Matches found (counts for count-only queries).
    pub matches: u64,
    /// Queries whose budget (own or shared) tripped.
    pub truncated: u64,
    /// Posting entries scanned across the line.
    pub candidates: u64,
    /// Edit-distance verifications across the line (both lanes).
    pub verifications: u64,
}

impl DoneSummary {
    /// Accumulates one query's outcome.
    pub fn absorb(&mut self, outcome: &QueryOutcome) {
        self.queries += 1;
        self.matches += outcome.count as u64;
        if !outcome.completion.is_complete() {
            self.truncated += 1;
        }
        let ExecStats {
            candidates,
            verifications,
            short_checked,
            ..
        } = outcome.stats;
        self.candidates += candidates;
        self.verifications += verifications + short_checked;
    }
}

/// Formats the success terminator.
pub fn done_line(summary: &DoneSummary) -> String {
    format!(
        "{{\"done\":{{\"queries\":{},\"matches\":{},\"truncated\":{},\"candidates\":{},\"verifications\":{}}}}}",
        summary.queries, summary.matches, summary.truncated, summary.candidates, summary.verifications
    )
}

/// Formats the error terminator.
pub fn error_line(code: ErrorCode, msg: &str) -> String {
    let mut line = String::from("{\"error\":{\"code\":");
    json::write_string(&mut line, code.as_str().as_bytes());
    line.push_str(",\"msg\":");
    json::write_string(&mut line, msg.as_bytes());
    line.push_str("}}");
    line
}

/// Formats the metrics payload line (the dump rides as one escaped
/// string so the JSONL framing survives embedded newlines).
pub fn metrics_line(dump: &str) -> String {
    let mut line = String::from("{\"metrics\":");
    json::write_string(&mut line, dump.as_bytes());
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use passjoin::sink::TruncationReason;

    #[test]
    fn parses_minimal_and_full_query() {
        let req = parse_request(br#"{"op":"query","q":"ab"}"#, 10).unwrap();
        let Request::Query(spec) = req else {
            panic!("expected a query")
        };
        assert_eq!(spec.queries, vec![b"ab".to_vec()]);
        assert_eq!(spec.tau, None);
        assert!(!spec.count && !spec.stream);
        assert!(spec.budget.is_empty() && spec.batch.is_none());

        let req = parse_request(
            br#"{"op":"query","queries":["a","b"],"tau":2,"limit":5,"count":true,"stream":true,"max_verify":9,"max_candidates":7,"deadline_ms":50,"batch":{"max_verify":100}}"#,
            10,
        )
        .unwrap();
        let Request::Query(spec) = req else {
            panic!("expected a query")
        };
        assert_eq!(spec.queries.len(), 2);
        assert_eq!(spec.tau, Some(2));
        assert_eq!(spec.limit, Some(5));
        assert!(spec.count && spec.stream);
        assert_eq!(spec.budget.max_verify, Some(9));
        assert_eq!(spec.budget.max_candidates, Some(7));
        assert_eq!(spec.budget.deadline_ms, Some(50));
        assert_eq!(spec.batch.unwrap().max_verify, Some(100));
    }

    #[test]
    fn parses_other_ops() {
        assert_eq!(
            parse_request(br#"{"op":"ping"}"#, 1).unwrap(),
            Request::Ping
        );
        assert_eq!(
            parse_request(br#"{"op":"shutdown"}"#, 1).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request(br#"{"op":"metrics"}"#, 1).unwrap(),
            Request::Metrics(MetricsFormat::Prometheus)
        );
        assert_eq!(
            parse_request(br#"{"op":"metrics","format":"json"}"#, 1).unwrap(),
            Request::Metrics(MetricsFormat::Json)
        );
    }

    #[test]
    fn typed_errors_for_bad_requests() {
        let cases: [(&[u8], ErrorCode); 11] = [
            (b"not json", ErrorCode::Parse),
            (b"[1]", ErrorCode::Parse),
            (br#"{"op":"nope"}"#, ErrorCode::BadRequest),
            (br#"{"op":"query"}"#, ErrorCode::BadRequest),
            (
                br#"{"op":"query","q":"a","queries":["b"]}"#,
                ErrorCode::BadRequest,
            ),
            (br#"{"op":"query","q":"a","tau":-1}"#, ErrorCode::BadRequest),
            (
                br#"{"op":"query","q":"a","tau":1.5}"#,
                ErrorCode::BadRequest,
            ),
            // Out-of-range integers are rejected at parse time, never
            // silently wrapped by an `as usize` cast.
            (
                br#"{"op":"query","q":"a","tau":18446744073709551615}"#,
                ErrorCode::BadRequest,
            ),
            (
                br#"{"op":"query","q":"a","tau":4294967296}"#,
                ErrorCode::BadRequest,
            ),
            (
                br#"{"op":"query","q":"a","limit":18446744073709551615}"#,
                ErrorCode::BadRequest,
            ),
            (
                br#"{"op":"query","queries":["a","b","c"]}"#,
                ErrorCode::BatchTooLarge,
            ),
        ];
        for (line, code) in cases {
            let err = parse_request(line, 2).unwrap_err();
            assert_eq!(err.code, code, "line {:?}", String::from_utf8_lossy(line));
            assert!(!err.msg.is_empty());
        }

        // The ceiling itself is legal: u32::MAX parses (the *semantic*
        // tau-vs-τ_max check lives in the server, not the parser).
        let spec = match parse_request(br#"{"op":"query","q":"a","tau":4294967295}"#, 2) {
            Ok(Request::Query(spec)) => spec,
            other => panic!("expected a query, got {other:?}"),
        };
        assert_eq!(spec.tau, Some(u32::MAX as usize));
    }

    #[test]
    fn response_lines_are_valid_json() {
        use crate::json;

        let lines = [
            match_line(0, 17, 1),
            eoq_line(0, 2, &Completion::Complete),
            eoq_line(
                1,
                9,
                &Completion::Truncated {
                    reason: TruncationReason::VerificationCap,
                },
            ),
            done_line(&DoneSummary {
                queries: 2,
                matches: 11,
                truncated: 1,
                candidates: 123,
                verifications: 45,
            }),
            error_line(ErrorCode::LineTooLong, "line of 70000 bytes"),
            metrics_line("passjoin_requests_total 5\nline two \"quoted\""),
        ];
        for line in &lines {
            let parsed = json::parse(line.as_bytes());
            assert!(parsed.is_ok(), "{line} must parse: {parsed:?}");
        }
        assert_eq!(lines[0], r#"{"q":0,"id":17,"d":1}"#);
        assert!(lines[2].contains("\"reason\":\"verification cap\""));
    }

    #[test]
    fn summary_absorbs_outcomes() {
        let mut summary = DoneSummary::default();
        summary.absorb(&QueryOutcome {
            count: 3,
            completion: Completion::Truncated {
                reason: TruncationReason::Deadline,
            },
            stats: ExecStats {
                candidates: 10,
                verifications: 4,
                short_checked: 2,
                ..ExecStats::default()
            },
            ..QueryOutcome::default()
        });
        summary.absorb(&QueryOutcome::default());
        assert_eq!(summary.queries, 2);
        assert_eq!(summary.matches, 3);
        assert_eq!(summary.truncated, 1);
        assert_eq!(summary.candidates, 10);
        assert_eq!(summary.verifications, 6);
    }
}
