//! Chrome `trace_event` JSON export (the "JSON Array with metadata" object
//! form), loadable in Perfetto / `chrome://tracing`.
//!
//! Simulated nanoseconds map onto the format's microsecond `ts`/`dur`
//! fields as fractional values (ns / 1000), which both viewers accept;
//! `displayTimeUnit: "ns"` keeps the UI readout in nanoseconds. `pid` is
//! the home node of the activity, `tid` the acting node/rank, so Perfetto
//! groups contention by where the contended resource lives.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::Probe;
use bfly_json::push_json_str;

pub fn chrome_trace(probe: &Probe) -> String {
    let spans = probe.timeline().spans();
    let instants = probe.timeline().instants();

    let mut out = String::with_capacity(128 + 96 * (spans.len() + instants.len()));
    out.push_str("{\"traceEvents\":[");
    let mut first = true;

    // Metadata: name each pid after its node so the viewer shows
    // "node 12" instead of a bare number.
    let pids: BTreeSet<u32> = spans
        .iter()
        .map(|s| s.pid)
        .chain(instants.iter().map(|i| i.pid))
        .collect();
    for pid in pids {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"node {pid}\"}}}}"
        );
    }

    for s in &spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":");
        push_json_str(&mut out, s.name);
        out.push_str(",\"cat\":");
        push_json_str(&mut out, s.cat);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{}}}",
            s.ts as f64 / 1e3,
            s.dur as f64 / 1e3,
            s.pid,
            s.tid
        );
    }

    for i in &instants {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":");
        push_json_str(&mut out, i.name);
        out.push_str(",\"cat\":");
        push_json_str(&mut out, i.cat);
        let _ = write!(
            out,
            ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":{},\"tid\":{}}}",
            i.ts as f64 / 1e3,
            i.pid,
            i.tid
        );
    }

    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_events\":{}}}}}",
        probe.timeline().dropped()
    );
    out
}

#[cfg(test)]
mod tests {
    use crate::Probe;
    use bfly_json::parse;

    #[test]
    fn trace_is_valid_json_with_expected_shape() {
        let p = Probe::new();
        p.span(0, 3, "lock_acquire", "lock", 1_000, 2_500);
        p.span(12, 5, "us_task", "task", 0, 800);
        p.instant(12, 5, "task_claim", "task", 0);
        let trace = p.chrome_trace();
        parse(&trace).unwrap_or_else(|(pos, msg)| panic!("invalid trace at {pos}: {msg}"));
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"i\""));
        assert!(trace.contains("\"displayTimeUnit\":\"ns\""));
        assert!(trace.contains("\"name\":\"node 12\""));
        // 1_000 ns → 1.000 µs
        assert!(trace.contains("\"ts\":1.000"), "{trace}");
    }

    #[test]
    fn empty_probe_still_exports_valid_trace() {
        let p = Probe::new();
        let trace = p.chrome_trace();
        parse(&trace).unwrap();
        assert!(trace.contains("\"dropped_events\":0"));
    }
}
