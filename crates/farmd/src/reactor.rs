//! The poll(2)-driven serving front end (DESIGN.md §15).
//!
//! One thread multiplexes every connection: a connection slab with
//! generation-tagged tokens (the sim executor's RawWaker discipline, on
//! real sockets), zero-copy newline framing over reused per-connection
//! buffers, vectored writes with per-connection backpressure, and a
//! min-heap that owns every `wait` deadline.
//!
//! Blocking verbs never block here: `batch` and `wait` park the
//! *connection* (not a thread) on the job table, and a worker finishing
//! a job pokes the self-pipe so the reactor wakes out of poll(2),
//! completes the parked reply, and resumes any pipelined requests
//! buffered behind it.
//!
//! The module is `std`-only: the three syscalls it needs beyond the
//! socket API (`poll`, `pipe`, `fcntl`) are declared directly, the same
//! way `server::install_signal_drain` declares `signal`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::front::{self, Acceptor, Executor, Front, Incoming};
use crate::json::Value;

/// Longest accepted request line. Caps per-connection buffering of
/// newline-less input; a line past this gets a typed error and a close.
const MAX_LINE: usize = 16 << 20;
/// Bytes per read(2) into a connection's input buffer.
const READ_CHUNK: usize = 64 << 10;
/// Read chunks drained per connection per poll round, so one firehose
/// peer cannot starve the rest (poll is level-triggered; leftovers are
/// reported again next round).
const MAX_READ_ROUNDS: usize = 4;
/// Write backpressure: stop reading from a connection whose unsent
/// reply backlog exceeds HIGH, resume below LOW.
const WBACK_HIGH: usize = 1 << 20;
const WBACK_LOW: usize = 64 << 10;
/// Target size of one pooled reply buffer; pipelined replies accumulate
/// into the tail buffer until it reaches this, then a fresh buffer
/// starts (so a backlog becomes several buffers and the flush path's
/// vectored writes have something to gather).
const OUT_CHUNK: usize = 60 << 10;
/// Most reply buffers gathered into a single writev.
const MAX_VECS: usize = 16;
/// How long the listener stays out of the poll set after a hard accept
/// error (fd exhaustion): the listener stays readable, so polling it
/// would spin the reactor.
const ACCEPT_BACKOFF_MS: u64 = 25;

// ---------------------------------------------------------------------
// Raw syscall surface (same pattern as `server::install_signal_drain`:
// std already links libc; declare exactly what we use).

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = u32;

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: i32 = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: i32 = 0x0004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    fn pipe(fds: *mut RawFd) -> i32;
    fn read(fd: RawFd, buf: *mut u8, count: usize) -> isize;
    fn write(fd: RawFd, buf: *const u8, count: usize) -> isize;
    fn close(fd: RawFd) -> i32;
    fn fcntl(fd: RawFd, cmd: i32, arg: i32) -> i32;
}

fn set_nonblocking_fd(fd: RawFd) {
    // SAFETY: F_GETFL/F_SETFL on an fd this process owns; both calls
    // take and return plain integers.
    unsafe {
        let flags = fcntl(fd, F_GETFL, 0);
        if flags >= 0 {
            fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        }
    }
}

/// The reactor's self-pipe. Workers (and `kill`/`request_shutdown`)
/// write a byte to the write end; the reactor polls the read end, so a
/// job turning terminal interrupts poll(2) immediately — completion
/// notification is a pipe write, not a poll quantum.
pub(crate) struct WakePipe {
    rfd: RawFd,
    wfd: RawFd,
}

impl WakePipe {
    pub(crate) fn new() -> std::io::Result<WakePipe> {
        let mut fds: [RawFd; 2] = [-1, -1];
        // SAFETY: `pipe` writes exactly two fds into the provided
        // 2-element array and returns 0 on success.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        // Nonblocking on both ends: a full pipe means a wake is already
        // pending, and draining must never block the reactor.
        set_nonblocking_fd(fds[0]);
        set_nonblocking_fd(fds[1]);
        Ok(WakePipe {
            rfd: fds[0],
            wfd: fds[1],
        })
    }

    /// Post a wakeup (any thread). EAGAIN means the pipe is already
    /// full of wakeups — exactly as good as one more.
    pub(crate) fn wake(&self) {
        let b = [1u8];
        // SAFETY: writes one byte from a live stack buffer to an fd
        // owned by this pipe (kept alive by its `Front`).
        let _ = unsafe { write(self.wfd, b.as_ptr(), 1) };
    }

    /// Swallow pending wakeups (reactor thread only).
    fn drain(&self) {
        let mut buf = [0u8; 256];
        // SAFETY: reads into a live stack buffer of the stated length.
        while unsafe { read(self.rfd, buf.as_mut_ptr(), buf.len()) } > 0 {}
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: the pipe owns both fds; its `Front` keeps it alive
        // until every thread that could wake it is gone.
        unsafe {
            close(self.rfd);
            close(self.wfd);
        }
    }
}

// ---------------------------------------------------------------------
// Line framing.

/// One step of newline framing over the connection's input buffer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum LineStep {
    /// A complete line at `buf[start..end]` (newline and any trailing
    /// `\r` excluded); resume scanning at `next`.
    Line {
        start: usize,
        end: usize,
        next: usize,
    },
    /// No newline yet — keep the tail buffered and read more.
    Incomplete,
    /// The unterminated tail exceeds `max_line`: protocol abuse.
    Oversize,
}

/// Frame the next request line, in place — no copy, no allocation; the
/// caller keeps appending reads to the same buffer and trims consumed
/// bytes when convenient.
pub(crate) fn next_line(buf: &[u8], pos: usize, max_line: usize) -> LineStep {
    match buf[pos..].iter().position(|&b| b == b'\n') {
        Some(rel) => {
            let mut end = pos + rel;
            let next = end + 1;
            if end > pos && buf[end - 1] == b'\r' {
                end -= 1;
            }
            LineStep::Line {
                start: pos,
                end,
                next,
            }
        }
        None if buf.len() - pos > max_line => LineStep::Oversize,
        None => LineStep::Incomplete,
    }
}

// ---------------------------------------------------------------------
// Reactor-owned `wait` deadlines.

/// A min-heap of `wait` deadlines in milliseconds since the reactor
/// started. Cancellation is lazy: a fired token is validated against the
/// connection slab's generation before it means anything.
struct Deadlines {
    start: Instant,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Deadlines {
    fn new() -> Deadlines {
        Deadlines {
            start: Instant::now(),
            heap: BinaryHeap::new(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn arm(&mut self, at_ms: u64, token: u64) {
        self.heap.push(Reverse((at_ms, token)));
    }

    /// Earliest armed deadline, if any (drives the poll timeout).
    fn earliest(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }

    /// Collect every token due at or before `now_ms`.
    fn collect_due(&mut self, now_ms: u64, out: &mut Vec<u64>) {
        while let Some(&Reverse((at, token))) = self.heap.peek() {
            if at > now_ms {
                break;
            }
            out.push(token);
            self.heap.pop();
        }
    }
}

// ---------------------------------------------------------------------
// Connection slab.

/// Why a connection is parked instead of reading more requests.
enum Parked {
    /// A `batch` whose jobs have not all turned terminal.
    Batch {
        ids: Vec<Result<u64, String>>,
        t0: Instant,
    },
    /// A `wait` long-poll; `deadline_ms` is [`Deadlines`] time.
    Wait { ids: Vec<u64>, deadline_ms: u64 },
}

struct OutBuf {
    buf: Vec<u8>,
    off: usize,
}

struct Conn {
    stream: Incoming,
    fd: RawFd,
    /// Unparsed input; `rpos` is the framing cursor. Reused across the
    /// connection's whole life (and pooled across connections).
    rbuf: Vec<u8>,
    rpos: usize,
    /// Unsent replies, oldest first; `out_bytes` is the backlog gauge.
    out: VecDeque<OutBuf>,
    out_bytes: usize,
    parked: Option<Parked>,
    /// Backpressure latch: reads stay off until the backlog drains
    /// below the low-water mark.
    paused: bool,
    close_after_flush: bool,
    peer_eof: bool,
}

impl Conn {
    fn can_read(&self) -> bool {
        self.parked.is_none() && !self.paused && !self.close_after_flush && !self.peer_eof
    }

    /// Trim consumed input. Cheap cases only; a mid-buffer cursor moves
    /// once it is past a page, amortizing the memmove.
    fn compact(&mut self) {
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos >= 4096 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
    }
}

struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

fn pack_token(gen: u32, idx: usize) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

fn unpack_token(token: u64) -> (u32, usize) {
    ((token >> 32) as u32, (token & 0xffff_ffff) as usize)
}

struct Reactor<E> {
    sh: Arc<Front<E>>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
    /// Slab indices with a parked verb (scan set for completion checks).
    parked: Vec<usize>,
    deadlines: Deadlines,
    /// Recycled byte buffers (input and reply); connections churn,
    /// allocations should not.
    pool: Vec<Vec<u8>>,
    /// Staging area for read(2): one reactor-owned chunk every
    /// connection reads through, so a read round costs a copy of the
    /// bytes that actually arrived instead of a 64 KiB zero-fill of
    /// the connection buffer's grow region.
    scratch: Box<[u8]>,
    pollfds: Vec<PollFd>,
    /// pollfds\[2 + i\] belongs to slab slot `poll_map[i]`.
    poll_map: Vec<usize>,
    /// [`Deadlines`] time before which the listener is not polled.
    accept_after_ms: u64,
}

/// Serve connections until drain or kill: [`Front::serve`]'s accept
/// loop.
pub(crate) fn serve<E: Executor>(sh: &Arc<Front<E>>, acceptor: &Acceptor) {
    Reactor {
        sh: Arc::clone(sh),
        slots: Vec::new(),
        free: Vec::new(),
        live: 0,
        parked: Vec::new(),
        deadlines: Deadlines::new(),
        pool: Vec::new(),
        scratch: vec![0u8; READ_CHUNK].into_boxed_slice(),
        pollfds: Vec::new(),
        poll_map: Vec::new(),
        accept_after_ms: 0,
    }
    .run(acceptor);
}

impl<E: Executor> Reactor<E> {
    fn run(mut self, acceptor: &Acceptor) {
        let wake_rfd = self.sh.wake_pipe.rfd;
        let listen_fd = acceptor.as_raw_fd();
        let mut fired: Vec<u64> = Vec::new();
        loop {
            if self.sh.killed.load(Ordering::SeqCst) {
                // Crash semantics: cut every connection, answer nothing.
                return;
            }
            let draining = self.sh.draining();
            if draining {
                // Exit once nothing is owed: every parked verb answered
                // and the work queue idle (admissions are refused while
                // draining, so this converges).
                if self.parked.is_empty() && self.sh.inflight() == 0 {
                    self.final_flush();
                    return;
                }
            }

            let accepting = !draining && self.deadlines.now_ms() >= self.accept_after_ms;
            self.pollfds.clear();
            self.poll_map.clear();
            self.pollfds.push(PollFd {
                fd: wake_rfd,
                events: POLLIN,
                revents: 0,
            });
            self.pollfds.push(PollFd {
                fd: listen_fd,
                events: if accepting { POLLIN } else { 0 },
                revents: 0,
            });
            for idx in 0..self.slots.len() {
                let Some(conn) = self.slots[idx].conn.as_ref() else {
                    continue;
                };
                let mut ev: i16 = 0;
                if conn.can_read() {
                    ev |= POLLIN;
                }
                if !conn.out.is_empty() {
                    ev |= POLLOUT;
                }
                // events == 0 still reports POLLERR/POLLHUP, which is
                // how a parked connection's dead peer is noticed.
                self.pollfds.push(PollFd {
                    fd: conn.fd,
                    events: ev,
                    revents: 0,
                });
                self.poll_map.push(idx);
            }

            let timeout_ms: i32 = {
                let now = self.deadlines.now_ms();
                let cap = match (draining, accepting) {
                    (true, _) => 10,
                    (false, false) => ACCEPT_BACKOFF_MS,
                    (false, true) => 100,
                };
                match self.deadlines.earliest() {
                    Some(at) => at.saturating_sub(now).min(cap) as i32,
                    None => cap as i32,
                }
            };
            // SAFETY: `pollfds` is a live, correctly-sized array of
            // repr(C) pollfd structs; the kernel writes only `revents`.
            let n = unsafe {
                poll(
                    self.pollfds.as_mut_ptr(),
                    self.pollfds.len() as Nfds,
                    timeout_ms,
                )
            };
            if n < 0 {
                // EINTR or a transient failure: back off and retry.
                // lint: allow(blocking): 1ms backoff on a failed poll(2) IS the reactor's idle point; nothing is runnable when poll errors
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }

            if self.pollfds[0].revents != 0 {
                self.sh.wake_pipe.drain();
            }
            // A finished job may complete a parked batch/wait; check on
            // every wakeup (cheap when nothing is parked).
            self.check_parked();
            if self.pollfds[1].revents & POLLIN != 0 {
                self.accept_new(acceptor);
            }
            for i in 0..self.poll_map.len() {
                let re = self.pollfds[2 + i].revents;
                if re == 0 {
                    continue;
                }
                let idx = self.poll_map[i];
                if re & (POLLERR | POLLNVAL) != 0 {
                    self.close(idx);
                    continue;
                }
                if re & (POLLIN | POLLHUP) != 0 {
                    self.handle_readable(idx);
                }
                if self.slots[idx].conn.is_some() && re & POLLOUT != 0 {
                    self.flush_conn(idx);
                }
            }

            fired.clear();
            let now_ms = self.deadlines.now_ms();
            self.deadlines.collect_due(now_ms, &mut fired);
            for &token in &fired {
                self.fire_wait_deadline(token, now_ms);
            }
        }
    }

    // -- buffers ------------------------------------------------------

    fn take_buf(&mut self) -> Vec<u8> {
        self.pool.pop().unwrap_or_default()
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() > 0 && buf.capacity() <= 4 * OUT_CHUNK && self.pool.len() < 64 {
            buf.clear();
            self.pool.push(buf);
        }
    }

    // -- connection lifecycle -----------------------------------------

    fn accept_new(&mut self, acceptor: &Acceptor) {
        loop {
            match acceptor.accept() {
                Ok(stream) => {
                    let _ = stream.set_nonblocking(true);
                    stream.set_nodelay();
                    if self.live >= self.sh.max_conns {
                        // Typed refusal, then a clean close. One
                        // nonblocking write: the line fits any fresh
                        // socket's send buffer.
                        let mut line = front::busy_reply(self.sh.max_conns);
                        line.push('\n');
                        let mut stream = stream;
                        let _ = stream.write(line.as_bytes());
                        continue;
                    }
                    self.insert(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.accept_after_ms = self.deadlines.now_ms() + ACCEPT_BACKOFF_MS;
                    break;
                }
            }
        }
    }

    fn insert(&mut self, stream: Incoming) {
        let fd = stream.raw_fd();
        let rbuf = self.take_buf();
        let conn = Conn {
            stream,
            fd,
            rbuf,
            rpos: 0,
            out: VecDeque::new(),
            out_bytes: 0,
            parked: None,
            paused: false,
            close_after_flush: false,
            peer_eof: false,
        };
        match self.free.pop() {
            Some(idx) => self.slots[idx].conn = Some(conn),
            None => self.slots.push(Slot {
                gen: 0,
                conn: Some(conn),
            }),
        }
        self.live += 1;
    }

    fn close(&mut self, idx: usize) {
        let Some(mut conn) = self.slots[idx].conn.take() else {
            return;
        };
        // Bump the generation: stale timer tokens and any other
        // reference to the old occupant die here.
        self.slots[idx].gen = self.slots[idx].gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        self.parked.retain(|&i| i != idx);
        let rbuf = std::mem::take(&mut conn.rbuf);
        self.recycle(rbuf);
        while let Some(b) = conn.out.pop_front() {
            self.recycle(b.buf);
        }
        // `conn.stream` drops here, closing the socket.
    }

    // -- reads & framing ----------------------------------------------

    fn handle_readable(&mut self, idx: usize) {
        let mut dead = false;
        {
            // Reads stage through the reactor's scratch chunk and only
            // the received bytes are appended to the connection buffer.
            // Reading straight into `rbuf` would mean zero-filling a
            // READ_CHUNK grow region per round (Vec::resize), a 64 KiB
            // memset to carry a typical 100-byte request line.
            let scratch = &mut self.scratch[..];
            let Some(conn) = self.slots[idx].conn.as_mut() else {
                return;
            };
            let mut rounds = 0;
            loop {
                if conn.rbuf.len() - conn.rpos > MAX_LINE {
                    break; // oversize tail; process_input answers it
                }
                match conn.stream.read(scratch) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&scratch[..n]);
                        rounds += 1;
                        if n < scratch.len() || rounds >= MAX_READ_ROUNDS {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close(idx);
            return;
        }
        self.process_input(idx);
    }

    /// Frame and dispatch every complete buffered line, stopping at a
    /// park (replies must stay in request order) or a close. Called on
    /// fresh reads and again on unpark to resume the pipeline.
    fn process_input(&mut self, idx: usize) {
        // Move the input buffer out of the slab while lines borrow it;
        // the slab (and reply queue) stay mutable for dispatch.
        let (rbuf, mut rpos, peer_eof) = {
            let Some(conn) = self.slots[idx].conn.as_mut() else {
                return;
            };
            (std::mem::take(&mut conn.rbuf), conn.rpos, conn.peer_eof)
        };
        loop {
            {
                let Some(conn) = self.slots[idx].conn.as_ref() else {
                    return; // closed mid-loop; buffer already recycled
                };
                if conn.parked.is_some() || conn.close_after_flush {
                    break;
                }
            }
            match next_line(&rbuf, rpos, MAX_LINE) {
                LineStep::Line { start, end, next } => {
                    rpos = next;
                    self.dispatch_raw(idx, &rbuf[start..end]);
                }
                LineStep::Incomplete => {
                    // A peer that half-closed with an unterminated tail
                    // still gets it served, as BufRead::read_line would.
                    if peer_eof && rpos < rbuf.len() {
                        let start = rpos;
                        rpos = rbuf.len();
                        let tail_end = rbuf.len();
                        self.dispatch_raw(idx, &rbuf[start..tail_end]);
                    }
                    break;
                }
                LineStep::Oversize => {
                    self.push_reply(
                        idx,
                        &front::error_reply(&format!("request line exceeds {} bytes", MAX_LINE)),
                    );
                    if let Some(conn) = self.slots[idx].conn.as_mut() {
                        conn.close_after_flush = true;
                    }
                    break;
                }
            }
        }
        if let Some(conn) = self.slots[idx].conn.as_mut() {
            conn.rbuf = rbuf;
            conn.rpos = rpos;
            conn.compact();
        }
        self.flush_conn(idx);
    }

    fn dispatch_raw(&mut self, idx: usize, raw: &[u8]) {
        let Ok(text) = std::str::from_utf8(raw) else {
            self.push_reply(idx, &front::error_reply("request is not valid UTF-8"));
            return;
        };
        let line = text.trim();
        if line.is_empty() {
            return;
        }
        if self.sh.killed.load(Ordering::SeqCst) {
            // A killed daemon answers nothing — cut the connection.
            if let Some(conn) = self.slots[idx].conn.as_mut() {
                conn.close_after_flush = true;
                conn.out.clear();
                conn.out_bytes = 0;
            }
            return;
        }
        self.dispatch_line(idx, line);
    }

    fn dispatch_line(&mut self, idx: usize, line: &str) {
        let v = match self.sh.parse_request(line) {
            Ok(v) => v,
            Err(reply) => {
                self.push_reply(idx, &reply);
                return;
            }
        };
        let op = v.get("op").and_then(Value::as_str);
        match op {
            // The blocking verbs: park the connection, not a thread.
            Some("batch") => match self.sh.batch_start(&v) {
                Err(e) => self.push_reply(idx, &front::error_reply(&e)),
                Ok((ids, t0)) => match self.sh.batch_ready(&ids, t0) {
                    Some(reply) => self.push_reply(idx, &reply),
                    None => self.park(idx, Parked::Batch { ids, t0 }),
                },
            },
            Some("wait") => match front::parse_wait(&v) {
                Err(e) => self.push_reply(idx, &front::error_reply(&e)),
                Ok((ids, timeout_ms)) => match self.sh.wait_ready(&ids, false) {
                    Some(reply) => self.push_reply(idx, &reply),
                    None => {
                        let deadline_ms = self.deadlines.now_ms() + timeout_ms;
                        let token = pack_token(self.slots[idx].gen, idx);
                        self.deadlines.arm(deadline_ms, token);
                        self.park(idx, Parked::Wait { ids, deadline_ms });
                    }
                },
            },
            _ => {
                let reply = self.sh.answer(&v, line);
                self.push_reply(idx, &reply);
                if op == Some("shutdown") {
                    // Ack, then close: a drained daemon takes no more.
                    if let Some(conn) = self.slots[idx].conn.as_mut() {
                        conn.close_after_flush = true;
                    }
                }
            }
        }
    }

    // -- parked verbs -------------------------------------------------

    fn park(&mut self, idx: usize, parked: Parked) {
        if let Some(conn) = self.slots[idx].conn.as_mut() {
            conn.parked = Some(parked);
            self.parked.push(idx);
        }
    }

    /// Complete every parked verb whose jobs all turned terminal.
    fn check_parked(&mut self) {
        let mut i = 0;
        while i < self.parked.len() {
            let idx = self.parked[i];
            let reply = match self.slots[idx]
                .conn
                .as_ref()
                .and_then(|c| c.parked.as_ref())
            {
                Some(Parked::Batch { ids, t0 }) => self.sh.batch_ready(ids, *t0),
                Some(Parked::Wait { ids, .. }) => self.sh.wait_ready(ids, false),
                None => {
                    // Stale index (connection closed or replaced).
                    self.parked.swap_remove(i);
                    continue;
                }
            };
            match reply {
                Some(reply) => {
                    self.parked.swap_remove(i);
                    self.unpark(idx, &reply);
                }
                None => i += 1,
            }
        }
    }

    /// A `wait` deadline fired: if the token still names a parked wait
    /// (generation match — lazy cancellation), answer it, reporting
    /// honestly whether completion raced the deadline.
    fn fire_wait_deadline(&mut self, token: u64, now_ms: u64) {
        let (gen, idx) = unpack_token(token);
        if idx >= self.slots.len() || self.slots[idx].gen != gen {
            return;
        }
        let reply = {
            let Some(conn) = self.slots[idx].conn.as_ref() else {
                return;
            };
            let Some(Parked::Wait { ids, deadline_ms }) = conn.parked.as_ref() else {
                return;
            };
            if *deadline_ms > now_ms {
                return; // superseded by a later wait on the same slot
            }
            self.sh.wait_ready(ids, true)
        };
        self.parked.retain(|&i| i != idx);
        if let Some(reply) = reply {
            self.unpark(idx, &reply);
        }
    }

    /// Answer a parked verb and resume the pipeline behind it.
    fn unpark(&mut self, idx: usize, reply: &str) {
        if let Some(conn) = self.slots[idx].conn.as_mut() {
            conn.parked = None;
        }
        self.push_reply(idx, reply);
        self.process_input(idx);
    }

    // -- writes -------------------------------------------------------

    /// Queue one reply line. Pipelined replies accumulate into the tail
    /// buffer (one eventual write for many replies); a partially-sent
    /// head buffer is never appended to.
    fn push_reply(&mut self, idx: usize, reply: &str) {
        let need_new = match self.slots[idx].conn.as_ref() {
            None => return,
            Some(conn) => match conn.out.back() {
                Some(b) => b.off > 0 || b.buf.len() + reply.len() + 1 > OUT_CHUNK,
                None => true,
            },
        };
        let fresh = if need_new {
            Some(self.take_buf())
        } else {
            None
        };
        let Some(conn) = self.slots[idx].conn.as_mut() else {
            return;
        };
        if let Some(buf) = fresh {
            conn.out.push_back(OutBuf { buf, off: 0 });
        }
        if let Some(tail) = conn.out.back_mut() {
            tail.buf.extend_from_slice(reply.as_bytes());
            tail.buf.push(b'\n');
        }
        conn.out_bytes += reply.len() + 1;
        if conn.out_bytes > WBACK_HIGH {
            // Backpressure: a peer that stops reading stops being read.
            conn.paused = true;
        }
    }

    /// Drain the reply backlog with vectored writes; close when done if
    /// the connection is finished (shutdown ack, peer EOF, oversize).
    fn flush_conn(&mut self, idx: usize) {
        let mut freed: Vec<Vec<u8>> = Vec::new();
        let mut dead = false;
        let want_close = {
            let Some(conn) = self.slots[idx].conn.as_mut() else {
                return;
            };
            'flush: while !conn.out.is_empty() {
                // Gather on the stack (IoSlice is Copy): no heap vec
                // per writev round.
                let mut slices = [IoSlice::new(&[]); MAX_VECS];
                let mut nvec = 0;
                for b in conn.out.iter().take(MAX_VECS) {
                    slices[nvec] = IoSlice::new(&b.buf[b.off..]);
                    nvec += 1;
                }
                match conn.stream.write_vectored(&slices[..nvec]) {
                    Ok(0) => {
                        dead = true;
                        break 'flush;
                    }
                    Ok(mut n) => {
                        conn.out_bytes -= n;
                        while n > 0 {
                            let Some(front) = conn.out.front_mut() else {
                                break;
                            };
                            let rem = front.buf.len() - front.off;
                            if n >= rem {
                                n -= rem;
                                if let Some(done) = conn.out.pop_front() {
                                    freed.push(done.buf);
                                }
                            } else {
                                front.off += n;
                                n = 0;
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break 'flush,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break 'flush;
                    }
                }
            }
            if conn.paused && conn.out_bytes < WBACK_LOW {
                conn.paused = false;
            }
            conn.out.is_empty()
                && conn.parked.is_none()
                && (conn.close_after_flush || conn.peer_eof)
        };
        for b in freed {
            self.recycle(b);
        }
        if dead || want_close {
            self.close(idx);
        }
    }

    /// Bounded best-effort flush of remaining backlogs at drain-exit.
    fn final_flush(&mut self) {
        let deadline = Instant::now() + Duration::from_millis(250);
        loop {
            let mut pending = false;
            for idx in 0..self.slots.len() {
                if self.slots[idx]
                    .conn
                    .as_ref()
                    .is_some_and(|c| !c.out.is_empty())
                {
                    self.flush_conn(idx);
                    if self.slots[idx]
                        .conn
                        .as_ref()
                        .is_some_and(|c| !c.out.is_empty())
                    {
                        pending = true;
                    }
                }
            }
            if !pending || Instant::now() >= deadline {
                return;
            }
            // lint: allow(blocking): shutdown drain — the event loop has already exited; sleeping here blocks no connection
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- framing ------------------------------------------------------

    #[test]
    fn framing_pipelined_lines() {
        let buf = b"{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n";
        let LineStep::Line { start, end, next } = next_line(buf, 0, MAX_LINE) else {
            panic!("expected a complete first line");
        };
        assert_eq!(&buf[start..end], b"{\"op\":\"ping\"}");
        let LineStep::Line {
            start: s2,
            end: e2,
            next: n2,
        } = next_line(buf, next, MAX_LINE)
        else {
            panic!("expected a complete second line");
        };
        assert_eq!(&buf[s2..e2], b"{\"op\":\"stats\"}");
        assert_eq!(n2, buf.len());
        assert_eq!(next_line(buf, n2, MAX_LINE), LineStep::Incomplete);
    }

    #[test]
    fn framing_partial_line_waits_for_more() {
        let buf = b"{\"op\":\"pi";
        assert_eq!(next_line(buf, 0, MAX_LINE), LineStep::Incomplete);
        // The same bytes with the rest appended frame cleanly.
        let buf = b"{\"op\":\"ping\"}\n";
        assert!(matches!(
            next_line(buf, 0, MAX_LINE),
            LineStep::Line {
                start: 0,
                end: 13,
                next: 14
            }
        ));
    }

    #[test]
    fn framing_crlf_is_trimmed() {
        let buf = b"{\"op\":\"ping\"}\r\n";
        let LineStep::Line { start, end, next } = next_line(buf, 0, MAX_LINE) else {
            panic!("expected a line");
        };
        assert_eq!(&buf[start..end], b"{\"op\":\"ping\"}");
        assert_eq!(next, buf.len());
    }

    #[test]
    fn framing_empty_lines_frame_as_empty() {
        let buf = b"\n\n{\"op\":\"ping\"}\n";
        let LineStep::Line { start, end, next } = next_line(buf, 0, MAX_LINE) else {
            panic!("expected a line");
        };
        assert_eq!(start, end); // empty — dispatch skips it
        assert_eq!(next, 1);
    }

    #[test]
    fn framing_oversized_line_is_rejected() {
        let cap = 64;
        let buf = vec![b'x'; 65]; // no newline, one past the cap
        assert_eq!(next_line(&buf, 0, cap), LineStep::Oversize);
        // Exactly at the cap: still waiting for a newline.
        assert_eq!(next_line(&buf[..64], 0, cap), LineStep::Incomplete);
        // A terminated line of the same length is fine (the cap bounds
        // buffering of newline-less input, not line length per se).
        let mut ok = vec![b'x'; 65];
        ok.push(b'\n');
        assert!(matches!(next_line(&ok, 0, cap), LineStep::Line { .. }));
    }

    // -- deadlines -----------------------------------------------------

    #[test]
    fn wheel_fires_near_and_far_in_due_time() {
        let mut w = Deadlines::new();
        w.arm(10, 1);
        w.arm(5_000, 2);
        let mut due = Vec::new();
        w.collect_due(4, &mut due);
        assert!(due.is_empty());
        w.collect_due(12, &mut due);
        assert_eq!(due, vec![1]);
        due.clear();
        w.collect_due(4_999, &mut due);
        assert!(due.is_empty());
        w.collect_due(5_001, &mut due);
        assert_eq!(due, vec![2]);
    }

    #[test]
    fn wheel_same_tick_arm_is_not_skipped() {
        let mut w = Deadlines::new();
        let mut due = Vec::new();
        w.collect_due(8, &mut due); // sweep forward first
        w.arm(9, 7); // arms just past the last sweep
        w.collect_due(9, &mut due);
        assert_eq!(due, vec![7]);
    }

    #[test]
    fn wheel_earliest_spans_buckets_and_overflow() {
        let mut w = Deadlines::new();
        assert_eq!(w.earliest(), None);
        w.arm(40, 1);
        w.arm(9_000, 2);
        assert_eq!(w.earliest(), Some(40));
        let mut due = Vec::new();
        w.collect_due(50, &mut due);
        assert_eq!(w.earliest(), Some(9_000));
    }

    // -- slab tokens --------------------------------------------------

    #[test]
    fn token_generation_survives_round_trip() {
        let t = pack_token(0xDEAD_BEEF, 12345);
        assert_eq!(unpack_token(t), (0xDEAD_BEEF, 12345));
    }
}
