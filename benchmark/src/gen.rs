//! Open-loop load generator for the farm's JSON-lines protocol.
//!
//! Requests are *scheduled* at a fixed rate and sent on schedule whatever
//! the server is doing, and every latency runs from the scheduled arrival,
//! so a server stall is charged to every request queued behind it (no
//! coordinated omission). Two threads and two connections:
//!
//! * the **submitter** (the calling thread) writes `submit` lines on
//!   connection A and never reads, so a slow reply cannot delay the
//!   schedule;
//! * the **settler** reads A's submit replies in order, settles warm
//!   requests with one blocking `wait` per round on connection B, and
//!   polls outstanding cold requests with `"timeout_ms":0` between
//!   rounds, so a slow cold job never sits inside a warm wait.
//!
//! The hot path frames reply lines and scans fixed byte patterns; it
//! never parses JSON, so the generator stays cheaper than the server.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// Most ids one `wait` may carry (the servers' limit).
const MAX_WAIT_IDS: usize = 4096;
/// Budget for one warm `wait` round, ms. A warm id still pending after
/// it counts as unfinished.
const WARM_WAIT_MS: u64 = 10_000;
/// Cold-poll cadence when only cold requests are outstanding.
const COLD_POLL: Duration = Duration::from_millis(1);
/// How long the settler waits for the next submit reply before settling
/// what it already has.
const REPLY_POLL: Duration = Duration::from_millis(1);

/// A pipelined JSON-lines connection with raw line framing.
pub struct LineConn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    filled: usize,
}

impl LineConn {
    /// Dial `addr` (`host:port`) with Nagle off.
    pub fn connect(addr: &str) -> std::io::Result<LineConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(LineConn::over(stream))
    }

    fn over(stream: TcpStream) -> LineConn {
        LineConn {
            stream,
            buf: vec![0; 64 << 10],
            pos: 0,
            filled: 0,
        }
    }

    /// A second handle on the same socket with its own read buffer (the
    /// settler reads what the submitter's handle writes).
    pub fn try_clone(&self) -> std::io::Result<LineConn> {
        Ok(LineConn::over(self.stream.try_clone()?))
    }

    /// Write raw bytes (whole lines, newline included).
    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Next reply line, newline excluded. Blocking.
    pub fn recv_line(&mut self) -> std::io::Result<&[u8]> {
        match self.try_recv_line()? {
            Some(line) => Ok(line),
            None => Err(std::io::ErrorKind::TimedOut.into()),
        }
    }

    /// Next reply line, or `None` if none completes within the socket's
    /// read timeout.
    pub fn try_recv_line(&mut self) -> std::io::Result<Option<&[u8]>> {
        let (start, end) = loop {
            if let Some(off) = self.buf[self.pos..self.filled]
                .iter()
                .position(|&b| b == b'\n')
            {
                let start = self.pos;
                self.pos += off + 1;
                break (start, start + off);
            }
            if self.pos > 0 {
                self.buf.copy_within(self.pos..self.filled, 0);
                self.filled -= self.pos;
                self.pos = 0;
            }
            if self.filled == self.buf.len() {
                let len = self.buf.len();
                self.buf.resize(len * 2, 0);
            }
            match self.stream.read(&mut self.buf[self.filled..]) {
                Ok(0) => return Err(std::io::Error::other("server closed the connection")),
                Ok(n) => self.filled += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        };
        Ok(Some(&self.buf[start..end]))
    }

    /// One closed-loop request: send `line` (newline appended), return
    /// the reply line.
    pub fn request(&mut self, line: &str) -> std::io::Result<Vec<u8>> {
        let mut wire = Vec::with_capacity(line.len() + 1);
        wire.extend_from_slice(line.as_bytes());
        wire.push(b'\n');
        self.send(&wire)?;
        Ok(self.recv_line()?.to_vec())
    }
}

/// One request the schedule sends.
pub struct Request {
    /// The `submit` line, newline included.
    pub line: Vec<u8>,
    /// Cold (a cache miss that computes) rather than warm.
    pub cold: bool,
}

/// One open-loop stage.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Length of the arrival schedule.
    pub duration: Duration,
    /// How long after the last arrival outstanding requests may finish
    /// before they count as unfinished.
    pub drain: Duration,
    /// Record submit/settle spans for every `trace_every`-th request
    /// scheduled in an even second of the stage (0 = none).
    pub trace_every: u64,
}

/// One completed request: when it was scheduled (seconds after the
/// stage's first arrival) and its latency from that schedule, ms.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at_s: f64,
    pub ms: f64,
}

/// What a stage measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests the schedule sent.
    pub offered: u64,
    /// Completed warm requests.
    pub warm: Vec<Sample>,
    /// Completed cold requests.
    pub cold: Vec<Sample>,
    /// Submits refused by backpressure (`queue full`, `busy`, `draining`).
    pub refused: u64,
    /// Other non-`ok` submit replies.
    pub not_ok: u64,
    /// Jobs that reached a `failed` terminal state.
    pub failed: u64,
    /// Jobs still not terminal when the drain budget ran out.
    pub unfinished: u64,
    /// Send time minus scheduled time per request, ms.
    pub lateness_ms: Vec<f64>,
    /// First scheduled arrival to last completion, seconds.
    pub span_s: f64,
}

impl Outcome {
    /// Requests that did not complete successfully.
    pub fn ops_failed(&self) -> u64 {
        self.refused + self.not_ok + self.failed + self.unfinished
    }

    /// Completed requests per second over the stage's span.
    pub fn achieved_rps(&self) -> f64 {
        let done = (self.warm.len() + self.cold.len()) as f64;
        if self.span_s > 0.0 {
            done / self.span_s
        } else {
            0.0
        }
    }
}

struct Sent {
    n: u64,
    sched: Instant,
    cold: bool,
}

/// Run one open-loop stage against `addr`. `next(n)` builds the `n`-th
/// request of the schedule.
pub fn run_stage(
    addr: &str,
    stage: &Stage,
    mut next: impl FnMut(u64) -> Request,
    tracer: Option<&Tracer>,
) -> std::io::Result<Outcome> {
    let mut submit = LineConn::connect(addr)?;
    let replies = submit.try_clone()?;
    let waits = LineConn::connect(addr)?;
    let total = (stage.rate * stage.duration.as_secs_f64()).round() as u64;
    let period_ns = 1e9 / stage.rate;
    let t0 = Instant::now() + Duration::from_millis(2);
    let sched = |n: u64| t0 + Duration::from_nanos((n as f64 * period_ns) as u64);
    let (tx, rx) = mpsc::channel::<Vec<Sent>>();
    let ctx = Settle {
        t0,
        drain: stage.drain,
        trace_every: stage.trace_every,
        tracer,
    };
    std::thread::scope(|s| {
        let settler = s.spawn(move || ctx.run(replies, waits, rx));
        let mut lateness = Vec::with_capacity(total as usize);
        let mut wire = Vec::new();
        let mut n = 0u64;
        let mut send_err = None;
        while n < total {
            let now = Instant::now();
            let due = sched(n);
            if now < due {
                std::thread::sleep(due - now);
                continue;
            }
            // Everything due goes out in one write: after a stall the
            // backlog is sent as a burst, because open-loop demand does
            // not pause.
            wire.clear();
            let mut batch = Vec::new();
            while n < total && sched(n) <= now {
                let req = next(n);
                wire.extend_from_slice(&req.line);
                batch.push(Sent {
                    n,
                    sched: sched(n),
                    cold: req.cold,
                });
                n += 1;
            }
            let sent_at = Instant::now();
            if let Err(e) = submit.send(&wire) {
                send_err = Some(e);
                break;
            }
            for b in &batch {
                lateness.push(ms(sent_at.saturating_duration_since(b.sched)));
            }
            if tx.send(batch).is_err() {
                break; // the settler failed; its error is reported below
            }
        }
        drop(tx);
        let mut out = settler
            .join()
            .map_err(|_| std::io::Error::other("settler thread panicked"))??;
        if let Some(e) = send_err {
            return Err(e);
        }
        out.offered = n;
        out.lateness_ms = lateness;
        Ok(out)
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Terminal state of one id in a `wait` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Done,
    Failed,
    Pending,
}

struct Settle<'a> {
    t0: Instant,
    drain: Duration,
    trace_every: u64,
    tracer: Option<&'a Tracer>,
}

impl Settle<'_> {
    fn run(
        &self,
        mut replies: LineConn,
        mut waits: LineConn,
        rx: mpsc::Receiver<Vec<Sent>>,
    ) -> std::io::Result<Outcome> {
        let mut out = Outcome::default();
        // Submit replies are read with a short timeout: when the next one
        // is not there yet, the requests whose replies did arrive are
        // settled first rather than waiting behind it.
        replies.stream.set_read_timeout(Some(REPLY_POLL))?;
        let mut backlog: VecDeque<Sent> = VecDeque::new();
        // (id, request, admitted at)
        let mut cold: Vec<(u64, Sent, Instant)> = Vec::new();
        let mut open = true;
        let mut deadline = None;
        let mut last_done = self.t0;
        loop {
            if open {
                if backlog.is_empty() {
                    let got = if cold.is_empty() {
                        rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected)
                    } else {
                        rx.recv_timeout(COLD_POLL)
                    };
                    match got {
                        Ok(b) => backlog.extend(b),
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
                    }
                }
                loop {
                    match rx.try_recv() {
                        Ok(b) => backlog.extend(b),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                if !open {
                    deadline = Some(Instant::now() + self.drain);
                }
            }
            if !open && backlog.is_empty() && cold.is_empty() {
                break;
            }
            let mut warm: Vec<(u64, Sent, Instant)> = Vec::new();
            while !backlog.is_empty() {
                let Some(line) = replies.try_recv_line()? else {
                    break;
                };
                let admitted = Instant::now();
                let s = backlog.pop_front().expect("backlog is non-empty");
                match scan_id(line) {
                    Some(id) if s.cold => cold.push((id, s, admitted)),
                    Some(id) => warm.push((id, s, admitted)),
                    None if is_refusal(line) => out.refused += 1,
                    None => out.not_ok += 1,
                }
            }
            if deadline.is_some_and(|d| Instant::now() >= d) && !backlog.is_empty() {
                // Submits the server never answered.
                out.unfinished += backlog.len() as u64;
                backlog.clear();
            }
            for chunk in warm.chunks(MAX_WAIT_IDS) {
                let ids: Vec<u64> = chunk.iter().map(|c| c.0).collect();
                let reply = wait(&mut waits, &ids, WARM_WAIT_MS)?;
                let done_at = Instant::now();
                for ((_, s, admitted), st) in chunk.iter().zip(scan_states(&reply, &ids)) {
                    match st {
                        State::Done => {
                            out.warm.push(self.sample(s, done_at));
                            self.spans(s, *admitted, done_at);
                            last_done = last_done.max(done_at);
                        }
                        State::Failed => out.failed += 1,
                        State::Pending => out.unfinished += 1,
                    }
                }
            }
            if !cold.is_empty() {
                // While warm work can still arrive, never block on cold
                // work; after that there is nothing left to delay.
                let timeout = if open || !backlog.is_empty() { 0 } else { 20 };
                let polled = std::mem::take(&mut cold);
                let mut states = Vec::with_capacity(polled.len());
                for chunk in polled.chunks(MAX_WAIT_IDS) {
                    let ids: Vec<u64> = chunk.iter().map(|c| c.0).collect();
                    let reply = wait(&mut waits, &ids, timeout)?;
                    let done_at = Instant::now();
                    states.extend(scan_states(&reply, &ids).into_iter().map(|s| (s, done_at)));
                }
                for (c, (st, done_at)) in polled.into_iter().zip(states) {
                    match st {
                        State::Done => {
                            out.cold.push(self.sample(&c.1, done_at));
                            self.spans(&c.1, c.2, done_at);
                            last_done = last_done.max(done_at);
                        }
                        State::Failed => out.failed += 1,
                        State::Pending => cold.push(c),
                    }
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    out.unfinished += cold.len() as u64;
                    cold.clear();
                }
            }
        }
        out.span_s = last_done.saturating_duration_since(self.t0).as_secs_f64();
        Ok(out)
    }

    fn sample(&self, s: &Sent, done_at: Instant) -> Sample {
        Sample {
            at_s: s.sched.saturating_duration_since(self.t0).as_secs_f64(),
            ms: ms(done_at.saturating_duration_since(s.sched)),
        }
    }

    fn spans(&self, s: &Sent, admitted: Instant, done_at: Instant) {
        if let Some(t) = self.tracer {
            let at_s = s.sched.saturating_duration_since(self.t0).as_secs_f64();
            if self.trace_every > 0 && s.n.is_multiple_of(self.trace_every) && traced_second(at_s) {
                let cat = if s.cold { "cold" } else { "warm" };
                t.span("submit", cat, s.sched, admitted, s.n);
                t.span("settle", cat, admitted, done_at, s.n);
            }
        }
    }
}

/// Spans are recorded only for requests scheduled in even seconds of a
/// stage, so the odd seconds are an untraced control for the tracing
/// overhead.
pub fn traced_second(at_s: f64) -> bool {
    (at_s as u64).is_multiple_of(2)
}

fn wait(conn: &mut LineConn, ids: &[u64], timeout_ms: u64) -> std::io::Result<Vec<u8>> {
    let mut line = String::with_capacity(32 + ids.len() * 8);
    line.push_str("{\"op\":\"wait\",\"ids\":[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&id.to_string());
    }
    line.push_str(&format!("],\"timeout_ms\":{timeout_ms}}}"));
    let reply = conn.request(&line)?;
    if !reply.starts_with(b"{\"ok\":true") {
        return Err(std::io::Error::other(format!(
            "wait refused: {}",
            String::from_utf8_lossy(&reply[..reply.len().min(200)])
        )));
    }
    Ok(reply)
}

/// `"id":<digits>` of a submit reply; `None` for a refusal.
pub fn scan_id(line: &[u8]) -> Option<u64> {
    if !line.starts_with(b"{\"ok\":true") {
        return None;
    }
    let at = find(line, b"\"id\":", 0)? + 5;
    let digits = &line[at..];
    let end = digits
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(digits.len());
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

fn is_refusal(line: &[u8]) -> bool {
    [&b"queue full"[..], b"\"busy\"", b"draining"]
        .iter()
        .any(|pat| find(line, pat, 0).is_some())
}

fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    hay.get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// The state of each id in a `wait` reply, in request order. Status
/// objects lead with `{"ok":true,"id":N,"state":"..."`, and result bytes
/// never contain that prefix, so a forward scan finds each in turn; an
/// id answered with an error object counts as failed.
fn scan_states(reply: &[u8], ids: &[u64]) -> Vec<State> {
    let mut pos = 0;
    ids.iter()
        .map(|id| {
            let head = format!("{{\"ok\":true,\"id\":{id},\"state\":\"");
            let Some(at) = find(reply, head.as_bytes(), pos) else {
                return State::Failed;
            };
            pos = at + head.len();
            let rest = &reply[pos..];
            if rest.starts_with(b"done\"") {
                State::Done
            } else if rest.starts_with(b"failed\"") {
                State::Failed
            } else {
                State::Pending
            }
        })
        .collect()
}
