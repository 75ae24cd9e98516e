//! The benchmark's own spans, recorded around each public call it makes
//! into a layer of ddtr (the program itself gains no tracing).
//!
//! A span carries its name (`<layer>.<call>`), start, end, parent span
//! and request id: one id per explore pass or `Run` request, inherited by
//! every span opened beneath it on the same thread. Spans stay in memory
//! and are written as Chrome trace JSON when the run ends. Recording is
//! off unless [`enable`] was called, and then costs one branch per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Unique span id (1-based).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Request id (explore pass or `Run` request); 0 outside any request.
    pub req: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Small per-thread number, for the Chrome trace's `tid`.
    pub tid: u64,
}

impl SpanRec {
    /// The layer: the name up to its first `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

static ON: AtomicBool = AtomicBool::new(false);
static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    /// Open spans of this thread: `(id, request id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static TID: RefCell<u64> = const { RefCell::new(0) };
    /// Recording muted on this thread only.
    static MUTED: RefCell<bool> = const { RefCell::new(false) };
}

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        next_tid: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turns span recording on or off for the whole process.
pub fn enable(on: bool) {
    tracer();
    ON.store(on, Ordering::SeqCst);
}

/// Mutes (or unmutes) recording on the calling thread only, so
/// concurrent clients can alternate traced and untraced requests.
pub fn mute_thread(muted: bool) {
    MUTED.with(|m| *m.borrow_mut() = muted);
}

/// Whether spans are being recorded on this thread.
#[must_use]
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed) && !MUTED.with(|m| *m.borrow())
}

/// An open span; records itself when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    open: Option<(u64, Option<u64>, &'static str, u64, u64)>,
}

/// Opens a span named `name` under the current span of this thread,
/// inheriting its request id.
pub fn enter(name: &'static str) -> Span {
    open(name, None)
}

/// Opens a span that starts request `req` (its children inherit `req`).
pub fn request(name: &'static str, req: u64) -> Span {
    open(name, Some(req))
}

fn open(name: &'static str, req: Option<u64>) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let (parent, inherited) = STACK.with(|s| {
        s.borrow()
            .last()
            .map_or((None, 0), |&(id, req)| (Some(id), req))
    });
    let req = req.unwrap_or(inherited);
    STACK.with(|s| s.borrow_mut().push((id, req)));
    let start = t.epoch.elapsed().as_nanos() as u64;
    Span {
        open: Some((id, parent, name, req, start)),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, name, req, start_ns)) = self.open.take() else {
            return;
        };
        let t = tracer();
        let end_ns = t.epoch.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(open, _)| open == id) {
                s.truncate(pos);
            }
        });
        let tid = TID.with(|tid| {
            let mut tid = tid.borrow_mut();
            if *tid == 0 {
                *tid = t.next_tid.fetch_add(1, Ordering::Relaxed);
            }
            *tid
        });
        let rec = SpanRec {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
            tid,
        };
        if let Ok(mut spans) = t.spans.lock() {
            spans.push(rec);
        }
    }
}

/// Takes every span recorded so far.
#[must_use]
pub fn drain() -> Vec<SpanRec> {
    let mut spans = tracer()
        .spans
        .lock()
        .map(|mut s| std::mem::take(&mut *s))
        .unwrap_or_default();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of `spans`.
#[must_use]
pub fn chrome_trace(spans: &[SpanRec]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// Self time per layer in ns: each span's duration minus the part of it
/// its children cover (children's intervals merged first, so
/// overlapping children are not subtracted twice).
#[must_use]
pub fn self_time_by_layer(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in kids {
            let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
            if a >= b {
                continue;
            }
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        *out.entry(s.layer()).or_default() += s.dur_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            req: 1,
            start_ns: start,
            end_ns: end,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = vec![
            rec(1, None, "bench.pass", 0, 100),
            rec(2, Some(1), "core.step1", 10, 40),
            rec(3, Some(1), "core.step2", 30, 60),
            rec(4, Some(3), "pareto.front", 50, 55),
        ];
        let st = self_time_by_layer(&spans);
        assert_eq!(st["bench"], 100 - 50);
        assert_eq!(st["core"], 30 + (30 - 5));
        assert_eq!(st["pareto"], 5);
        // Nested, non-overlapping spans partition the root's time.
        let nested = vec![
            rec(1, None, "bench.pass", 0, 100),
            rec(2, Some(1), "core.step1", 10, 40),
            rec(3, Some(2), "engine.batch", 20, 30),
        ];
        let st = self_time_by_layer(&nested);
        assert_eq!(st.values().sum::<u64>(), 100);
        assert_eq!(st["engine"], 10);
    }

    #[test]
    fn recorded_spans_nest_and_inherit_the_request() {
        enable(true);
        {
            let _root = request("bench.pass", 77);
            let _child = enter("core.step1");
        }
        enable(false);
        let _ignored = enter("core.off");
        let spans: Vec<SpanRec> = drain().into_iter().filter(|s| s.req == 77).collect();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "bench.pass").expect("root");
        let child = spans
            .iter()
            .find(|s| s.name == "core.step1")
            .expect("child");
        assert_eq!(child.parent, Some(root.id));
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        let json = chrome_trace(&spans);
        assert!(json.contains("\"name\":\"core.step1\"") && json.contains("\"req\":77"));
    }
}
