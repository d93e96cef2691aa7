//! Host-time spans recorded at the benchmark's own call sites, kept in
//! memory and written once at the end as Chrome `trace_event` JSON
//! (loadable in Perfetto). Nothing inside the program under test is
//! instrumented here: a span brackets one call the benchmark makes into
//! a layer's public API.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: &'static str,
    cat: &'static str,
    start_us: f64,
    dur_us: f64,
    tid: u32,
    /// Request or sweep-point id shared by the spans of one operation.
    id: u64,
}

/// An in-memory span sink. Shared by reference across sweep workers and
/// load threads; recording takes one uncontended lock per span.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Small stable per-thread number for the `tid` field.
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Record one complete span on the calling thread's track.
    pub fn span(
        &self,
        name: &'static str,
        cat: &'static str,
        start: Instant,
        end: Instant,
        id: u64,
    ) {
        let span = Span {
            name,
            cat,
            start_us: start.saturating_duration_since(self.t0).as_secs_f64() * 1e6,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            tid: TID.with(|t| *t),
            id,
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Chrome `trace_event` JSON ("JSON object" form, microsecond
    /// timestamps).
    pub fn chrome_json(&self, workload: &str) -> String {
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut out = String::with_capacity(64 + spans.len() * 120);
        let _ = write!(
            out,
            "{{\"traceEvents\":[{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"bfly-benchmark {workload}\"}}}}"
        );
        for s in spans.iter() {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{}}}}}",
                s.name, s.cat, s.start_us, s.dur_us, s.tid, s.id
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}
