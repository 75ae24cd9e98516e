//! The v1 wire contract, pinned by a transcript.
//!
//! `wire_v1.jsonl` holds one line for every request body, event and
//! error code of protocol v1, shaped the way a v1 peer sends or expects
//! it: no field added since v1 (`JobSpec.mem`, `Event::Hello`'s
//! `capabilities`/`workers`, `Event::Stats.metrics`) appears in the v1
//! variants' lines. The `Event::Result` line is a recorded `ddtr serve`
//! answer to `explore drr --quick`, so the whole exploration payload
//! (`MethodologyOutcome`, `MethodologyConfig`, …) is pinned too. The
//! inline `Run` line carries that answer's configuration verbatim. Error
//! texts are illustrative; the codes are what is pinned.
//!
//! Every line must decode, and its re-encoding must still carry every key
//! and value of the line. So a removed or renamed field, a field turned
//! required, or a changed value spelling fails here, while a new optional
//! field (a new key on re-encoding) passes. A new variant does not compile
//! until the exhaustive matches below (and `ErrorCode::as_str`) name it,
//! and then fails until it has a line of its own.
//!
//! Bumping the protocol deliberately means editing the transcript in the
//! same commit.

use ddtr_serve::{Event, Request, RequestBody};
use serde_json::Value;
use std::collections::BTreeSet;

const TRANSCRIPT: &str = include_str!("wire_v1.jsonl");

const REQUEST_BODIES: &[&str] = &[
    "Hello", "Ping", "Stats", "Metrics", "Run", "Cancel", "Shutdown",
];

const EVENTS: &[&str] = &[
    "Hello",
    "Welcome",
    "Pong",
    "Queued",
    "Running",
    "Cell",
    "Result",
    "Stats",
    "Metrics",
    "Cancelled",
    "Error",
    "Bye",
];

const ERROR_CODES: &[&str] = &[
    "Parse",
    "BadRequest",
    "AuthRequired",
    "AuthFailed",
    "UnsupportedProtocol",
    "RateLimited",
    "TooLarge",
    "DuplicateId",
    "UnknownTarget",
    "Overloaded",
    "Internal",
];

fn request_body_name(body: &RequestBody) -> &'static str {
    match body {
        RequestBody::Hello { .. } => "Hello",
        RequestBody::Ping => "Ping",
        RequestBody::Stats => "Stats",
        RequestBody::Metrics => "Metrics",
        RequestBody::Run(_) => "Run",
        RequestBody::Cancel { .. } => "Cancel",
        RequestBody::Shutdown => "Shutdown",
    }
}

fn event_name(event: &Event) -> &'static str {
    match event {
        Event::Hello { .. } => "Hello",
        Event::Welcome { .. } => "Welcome",
        Event::Pong { .. } => "Pong",
        Event::Queued { .. } => "Queued",
        Event::Running { .. } => "Running",
        Event::Cell { .. } => "Cell",
        Event::Result { .. } => "Result",
        Event::Stats { .. } => "Stats",
        Event::Metrics { .. } => "Metrics",
        Event::Cancelled { .. } => "Cancelled",
        Event::Error { .. } => "Error",
        Event::Bye => "Bye",
    }
}

/// The first place where `encoded` lacks a key of `line` or disagrees
/// on a value, as a JSON-pointer-like path; `None` when `line` is
/// contained in `encoded`.
fn missing_from(line: &Value, encoded: &Value, path: &str) -> Option<String> {
    match (line, encoded) {
        (Value::Map(want), Value::Map(have)) => want.iter().find_map(|(key, value)| {
            let at = format!("{path}/{key}");
            match have.get(key) {
                Some(got) => missing_from(value, got, &at),
                None => Some(format!("{at} is gone")),
            }
        }),
        (Value::Seq(want), Value::Seq(have)) if want.len() == have.len() => want
            .iter()
            .zip(have)
            .enumerate()
            .find_map(|(i, (w, h))| missing_from(w, h, &format!("{path}/{i}"))),
        _ if line == encoded => None,
        _ => Some(format!("{path}: {line:?} became {encoded:?}")),
    }
}

/// Decodes line `n` into `T` and checks that its re-encoding still
/// carries every key and value of `line` (the same text as a `Value`).
fn round_trip<T: serde::Serialize + serde::DeserializeOwned>(
    n: usize,
    text: &str,
    line: &Value,
) -> T {
    let decoded: T =
        serde_json::from_str(text).unwrap_or_else(|e| panic!("line {n} no longer decodes: {e}"));
    let encoded: Value =
        serde_json::from_str(&serde_json::to_string(&decoded).expect("re-encodes"))
            .expect("re-encoding parses");
    if let Some(diff) = missing_from(line, &encoded, "") {
        panic!("line {n} re-encodes without what a v1 peer relies on: {diff}");
    }
    decoded
}

#[test]
fn v1_transcript_decodes_and_re_encodes_every_key() {
    let mut bodies = BTreeSet::new();
    let mut events = BTreeSet::new();
    let mut codes = BTreeSet::new();
    for (i, text) in TRANSCRIPT.lines().enumerate() {
        let n = i + 1;
        let line: Value =
            serde_json::from_str(text).unwrap_or_else(|e| panic!("line {n} is not JSON: {e}"));
        // Requests are the only lines with a top-level `body`.
        let is_request = line.as_map().is_some_and(|m| m.get("body").is_some());
        if is_request {
            let request: Request = round_trip(n, text, &line);
            bodies.insert(request_body_name(&request.body));
        } else {
            let event: Event = round_trip(n, text, &line);
            events.insert(event_name(&event));
            if let Some(code) = event.error_code() {
                assert!(codes.insert(code.as_str()), "line {n}: code {code} twice");
            }
            if let Event::Result { result, .. } = &event {
                assert_eq!(result.mode(), "explore", "line {n}");
                assert!(
                    !result.front_labels().is_empty(),
                    "line {n} carries a front"
                );
            }
        }
    }
    let want = |names: &[&'static str]| names.iter().copied().collect::<BTreeSet<_>>();
    assert_eq!(
        bodies,
        want(REQUEST_BODIES),
        "request bodies without a line"
    );
    assert_eq!(events, want(EVENTS), "events without a line");
    assert_eq!(codes, want(ERROR_CODES), "error codes without a line");
}
