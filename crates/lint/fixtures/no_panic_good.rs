// Known-good boundary code: structured errors, poison-tolerant locks,
// checked indexing. Decoys ("unwrap()" in strings and comments,
// unwrap_or_else) must not match.
use std::sync::{Mutex, PoisonError};

fn handle(line: &str, xs: &[u8]) -> Result<u8, String> {
    let v: i64 = line.parse().map_err(|e| format!("bad request: {e}"))?;
    let first = xs.get(0).copied().ok_or("empty payload")?;
    let _ = v;
    Ok(first)
}

fn shared(counter: &Mutex<u64>) -> u64 {
    // A poisoned counter is still a counter: take the inner value.
    *counter.lock().unwrap_or_else(PoisonError::into_inner)
}

fn decoy() -> &'static str {
    "never unwrap() or expect() or panic!() across the boundary"
}
