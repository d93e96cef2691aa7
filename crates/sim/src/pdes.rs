//! # Conservative parallel discrete-event simulation (PDES) core.
//!
//! ROADMAP item 2: partition simulated nodes across *host* worker threads
//! and synchronize with fixed time windows whose size never exceeds the
//! **lookahead** — the minimum latency of any cross-node message, derived
//! from the switch topology (`bfly_machine::pdes_map`). This module holds
//! everything that is *engine-shape independent*: the event identity, the
//! node behaviour trait, the serial reference executor, state digests and
//! the instrumentation log. The windowed parallel executor lives in
//! [`crate::pdes_window`]; host-thread primitives live only in the
//! sanctioned pool [`crate::pdes_pool`] (xtask lint check 7 enforces this
//! split, plus a wall-clock and `HashMap`-iteration ban for all three).
//!
//! ## Determinism contract
//!
//! A PDES model is a fixed set of [`PdesNode`] state machines exchanging
//! timestamped [`Event`]s. The engine guarantees: **for a given seed the
//! final node states, per-node event sequences, statistics, digests and
//! instrumentation logs are bit-identical no matter how many host workers
//! execute the run** (`--hosts 1` ≡ `--hosts N`), and identical to the
//! serial reference executor in this file. The argument:
//!
//! 1. Every event carries the identity `(at, src, src_seq)` where
//!    `src_seq` is a per-source counter. Identities are unique, and they
//!    are assigned *by the sending node's own deterministic execution*, so
//!    they do not depend on host scheduling.
//! 2. Each node consumes the events addressed to it in the total order
//!    `(at, src, src_seq)`. A node is a pure function of (its state, its
//!    event sequence, its own seeded RNG stream), so per-dst delivery
//!    order fixes every node outcome.
//! 3. The serial executor processes the global event set in exactly that
//!    order via one binary heap. The windowed executor processes each
//!    partition's events in that order per window; conservative windows
//!    (`window ≤ lookahead`, cross-node delay ≥ lookahead, enforced by
//!    [`Ctx::send`]) guarantee no event generated inside a window can be
//!    *due* inside the same window, so barrier-deferred cross-partition
//!    delivery never reorders any node's sequence. Induction over windows
//!    gives serial ≡ parallel.
//!
//! `tests/pdes_determinism.rs` proptests the theorem over random seeds ×
//! worker counts × window sizes, including snapshot interchange between
//! the two executors.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Deref;
use std::sync::Arc;

use crate::rng::SplitMix64;

/// Simulated-node index inside a PDES model (dense, `0..n_nodes`).
pub type PdesNodeId = u32;

/// Mix a run seed and a node id into the node's private RNG seed.
/// SplitMix64 of the pair keeps streams statistically independent while
/// staying a pure function of `(seed, node)` — never of partitioning.
pub fn node_seed(seed: u64, node: PdesNodeId) -> u64 {
    let mut s = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15u64.rotate_left(node % 63));
    s.next_u64() ^ ((node as u64) << 32 | node as u64)
}

/// The bulk payload of an [`Event`]: an immutable word buffer shared by
/// every event that carries it. A broadcast builds the buffer once and
/// each send clones one pointer, so the host pays no per-destination copy
/// for a cost the model already charges in simulated time. `Arc`, not
/// `Rc`: the windowed executor moves events between host workers. The
/// empty payload holds no allocation. Snapshots and digests see only the
/// words, never the sharing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Payload(Option<Arc<[u64]>>);

impl Deref for Payload {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        self.0.as_deref().unwrap_or(&[])
    }
}

impl FromIterator<u64> for Payload {
    fn from_iter<I: IntoIterator<Item = u64>>(words: I) -> Payload {
        let words: Arc<[u64]> = words.into_iter().collect();
        Payload((!words.is_empty()).then_some(words))
    }
}

/// A timestamped message between simulated nodes.
///
/// `(at, src, src_seq)` is the globally unique identity (see module docs);
/// [`Ord`] sorts by exactly that triple so heap order never inspects the
/// payload. `kind`/`a`/`b` are model-defined; bulk payloads ride in
/// `data` as u64 words (`f64::to_bits` for floating point rows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual delivery time (simulated ns).
    pub at: u64,
    /// Sending node.
    pub src: PdesNodeId,
    /// Receiving node (may equal `src` for self-scheduling).
    pub dst: PdesNodeId,
    /// Per-source sequence number: the `src_seq`-th event `src` ever sent.
    pub src_seq: u32,
    /// Model-defined discriminant.
    pub kind: u16,
    /// Model-defined scalar payload.
    pub a: u64,
    /// Model-defined scalar payload.
    pub b: u64,
    /// Bulk payload words, shared with every other event of the same
    /// broadcast.
    pub data: Payload,
}

impl Event {
    /// The total-order key: delivery time, then sender, then the sender's
    /// sequence number. Unique per event.
    pub fn key(&self) -> (u64, PdesNodeId, u32) {
        (self.at, self.src, self.src_seq)
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One instrumentation record, produced by a node handler through
/// [`Ctx`]. Records are plain `Send` data: parallel workers accumulate
/// them per node and [`PdesSim::drain_log`] merges them into one
/// deterministic sequence, which the bench layer replays into the ambient
/// `bfly_probe::Probe` / `bfly_san::Sanitizer` — giving byte-identical
/// PROBE/SAN artifacts for any `--hosts` value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRec {
    /// A message left `from` for `to` carrying `bytes` payload bytes.
    MsgSend {
        at: u64,
        from: PdesNodeId,
        to: PdesNodeId,
        bytes: u64,
    },
    /// A message from `from` was consumed by `to`.
    MsgRecv {
        at: u64,
        from: PdesNodeId,
        to: PdesNodeId,
    },
    /// A plain shared-memory access to `[offset, offset+len)` of the
    /// region homed on `node`, issued by `from`.
    Access {
        at: u64,
        from: PdesNodeId,
        node: PdesNodeId,
        offset: u64,
        len: u64,
        write: bool,
    },
    /// `hops` switch-stage traversals by `from` (probe topology counter).
    Hop {
        at: u64,
        from: PdesNodeId,
        hops: u32,
    },
}

impl LogRec {
    /// Virtual time of the record.
    pub fn at(&self) -> u64 {
        match *self {
            LogRec::MsgSend { at, .. }
            | LogRec::MsgRecv { at, .. }
            | LogRec::Access { at, .. }
            | LogRec::Hop { at, .. } => at,
        }
    }

    /// The node whose handler produced the record (merge tiebreak).
    pub fn by(&self) -> PdesNodeId {
        match *self {
            LogRec::MsgSend { from, .. } => from,
            LogRec::MsgRecv { to, .. } => to,
            LogRec::Access { from, .. } => from,
            LogRec::Hop { from, .. } => from,
        }
    }
}

/// Handler context: the only channel through which a node may affect the
/// world. Borrowed mutably for the duration of one `init`/`handle` call.
pub struct Ctx<'a> {
    /// Virtual now (the event being handled is due exactly now).
    pub now: u64,
    /// The node being run.
    pub me: PdesNodeId,
    /// Number of nodes in the model.
    pub n_nodes: u32,
    lookahead: u64,
    seq: &'a mut u32,
    rng: &'a mut SplitMix64,
    out: Sink<'a>,
    log: Option<&'a mut Vec<LogRec>>,
}

/// Where [`Ctx::send`] deposits new events. The serial executor hands the
/// global queue over directly (skipping a buffer-and-drain round trip per
/// event); the windowed executor buffers, because each send must then be
/// routed to its destination partition.
pub(crate) enum Sink<'a> {
    Queue(&'a mut EventQueue),
    Buf(&'a mut Vec<Event>),
}

impl<'a> Ctx<'a> {
    /// Engine-internal constructor (the executors in this crate build one
    /// per delivered event).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        now: u64,
        me: PdesNodeId,
        n_nodes: u32,
        lookahead: u64,
        seq: &'a mut u32,
        rng: &'a mut SplitMix64,
        out: Sink<'a>,
        log: Option<&'a mut Vec<LogRec>>,
    ) -> Ctx<'a> {
        Ctx {
            now,
            me,
            n_nodes,
            lookahead,
            seq,
            rng,
            out,
            log,
        }
    }

    /// Schedule an event. Cross-node sends must respect the conservative
    /// contract `delay ≥ lookahead` — the windowed executor's correctness
    /// rests on it, so it is a hard panic, not a debug assert. Self-sends
    /// (`dst == me`) may use any delay ≥ 0.
    pub fn send(&mut self, dst: PdesNodeId, delay: u64, kind: u16, a: u64, b: u64) {
        self.send_data(dst, delay, kind, a, b, Payload::default());
    }

    /// [`Ctx::send`] with a bulk payload. To send one payload to several
    /// destinations, build it once and pass each send a clone.
    pub fn send_data(
        &mut self,
        dst: PdesNodeId,
        delay: u64,
        kind: u16,
        a: u64,
        b: u64,
        data: Payload,
    ) {
        assert!(
            dst == self.me || delay >= self.lookahead,
            "pdes: cross-node send {} -> {} with delay {} < lookahead {}",
            self.me,
            dst,
            delay,
            self.lookahead
        );
        assert!(dst < self.n_nodes, "pdes: send to node {dst} out of range");
        let ev = Event {
            at: self.now + delay,
            src: self.me,
            dst,
            src_seq: *self.seq,
            kind,
            a,
            b,
            data,
        };
        *self.seq += 1;
        match &mut self.out {
            Sink::Queue(q) => q.push(ev),
            Sink::Buf(v) => v.push(ev),
        }
    }

    /// The node's private deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        self.rng
    }

    /// The conservative lookahead (minimum legal cross-node delay).
    pub fn lookahead(&self) -> u64 {
        self.lookahead
    }

    /// Append an instrumentation record (no-op unless recording is on).
    pub fn log(&mut self, rec: LogRec) {
        if let Some(log) = self.log.as_deref_mut() {
            log.push(rec);
        }
    }

    /// Whether instrumentation recording is enabled (lets models skip
    /// building records that would be dropped).
    pub fn logging(&self) -> bool {
        self.log.is_some()
    }
}

/// A simulated node: a deterministic state machine driven by events.
///
/// Implementations must be pure functions of `(state, event, ctx.rng())` —
/// no wall-clock, no host-thread identity, no global mutable state. The
/// snapshot words must capture the full state: `load_words(state_words())`
/// on a freshly built node must reproduce the node exactly.
pub trait PdesNode: Send {
    /// Called once at virtual time 0, before any event, in node-id order.
    fn init(&mut self, ctx: &mut Ctx<'_>);

    /// Deliver one event addressed to this node. The engine drops the
    /// event afterwards, so the handler may move fields out of it (for
    /// example `std::mem::take(&mut ev.data)` to keep the payload without
    /// touching its reference count).
    fn handle(&mut self, ev: &mut Event, ctx: &mut Ctx<'_>);

    /// Serialize the node state as u64 words (`f64::to_bits` for floats).
    fn state_words(&self) -> Vec<u64>;

    /// Restore state captured by [`PdesNode::state_words`].
    fn load_words(&mut self, words: &[u64]) -> Result<(), String>;
}

/// Per-node runtime bookkeeping owned by the engine (not the model).
pub(crate) struct NodeRt {
    pub(crate) node: Box<dyn PdesNode>,
    /// Next `src_seq` this node will assign.
    pub(crate) seq: u32,
    pub(crate) rng: SplitMix64,
    /// Instrumentation records, in the node's own execution order.
    pub(crate) log: Vec<LogRec>,
    /// Events handled by this node.
    pub(crate) events: u64,
    /// Delivery time of the last event handled.
    pub(crate) last_at: u64,
}

/// Aggregate run statistics. `PartialEq` covers every field — serial and
/// parallel runs must agree exactly (wall time is measured by the bench
/// layer, never here: these modules are wall-clock free by lint).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PdesStats {
    /// Events delivered by this run segment.
    pub events: u64,
    /// Largest delivery time processed so far (0 if none).
    pub end_time: u64,
}

/// Ring size of the calendar queue, in buckets of width lookahead/4: the
/// ring spans 1,024 lookaheads ahead of the bucket being drained. That
/// covers the delays the shipped models schedule — PHOLD's one to two
/// lookaheads (4–8 buckets out), T22's cross-node pivot delay
/// `msg_ns(385)` = 119.8 µs against its 4.6 µs lookahead (~104 buckets)
/// and its elimination self-sends at 64 or more processors (up to
/// ~3,200 buckets) — so they are bucket appends, not heap sifts. Only
/// T22's long elimination steps at 32 or fewer processors land beyond
/// the ring and wait in the `far` heap. A power of two, so the bucket
/// index wraps with a mask.
const EQ_RING: usize = 4096;

/// Words of the ring's occupancy bitmap.
const EQ_WORDS: usize = EQ_RING / 64;

/// Priority queue of [`Event`]s keyed by `(at, src, src_seq)` — a
/// calendar queue tuned to the conservative-sync contract.
///
/// Cross-node sends carry `delay >= lookahead` (asserted in
/// [`Ctx::send`]), so with bucket width ≤ lookahead a new event can never
/// land in the bucket currently being drained: pushes append to a future
/// bucket's `Vec` (sequential, O(1)) and each bucket is sorted exactly
/// once when its turn comes — a 24-byte key sort plus one gather pass,
/// instead of O(log n) heap sifts per event. An occupancy bitmap finds
/// the next non-empty bucket a word at a time, so sparse traffic does
/// not walk empty buckets. An empty bucket owns no buffer: a drained
/// bucket's buffer goes to a `spare` pool that the next bucket to fill
/// takes from, so the buffers kept are bounded by the buckets occupied
/// at once, not by the ring size. The two escape hatches keep the
/// structure fully general: self-sends with `delay < width` that land
/// inside the active batch go to the tiny `late` heap (consulted by key
/// on every pop), and events beyond the ring horizon wait in the `far`
/// heap. Delivery order is the exact global `(at, src, src_seq)` order
/// of a single binary heap — the triple is unique per event (see module
/// docs), so the sort is a total order and the ring's shape is invisible
/// to the determinism contract.
pub(crate) struct EventQueue {
    /// Future buckets; `ring[cursor]` starts at `base`, bucket `k` after
    /// it covers `[base + k·width, base + (k+1)·width)`. Unsorted; an
    /// empty bucket has no capacity.
    ring: Vec<Vec<Event>>,
    /// Bit `i % 64` of word `i / 64` is set iff `ring[i]` is non-empty.
    occupied: [u64; EQ_WORDS],
    /// Empty buffers of drained buckets, capacity kept for reuse.
    spare: Vec<Vec<Event>>,
    cursor: usize,
    /// Start of the first undrained bucket. The active batch (`cur` +
    /// `late`) holds only events with `at < base`.
    base: u64,
    width: u64,
    /// Sorted remainder of the active batch, descending — `Vec::pop`
    /// yields events in ascending `(at, src, src_seq)` order.
    cur: Vec<Event>,
    /// Events pushed below `base` after the batch was sorted: self-sends
    /// due inside the batch, such as T22's zero-cost elimination steps.
    late: BinaryHeap<std::cmp::Reverse<Event>>,
    /// Events at or beyond `base + EQ_RING·width` when pushed.
    far: BinaryHeap<std::cmp::Reverse<Event>>,
    len: usize,
    /// Scratch for the per-bucket key sort: `(at, src, src_seq)` packed
    /// big-endian into a `u128` so the sort compare is one wide branchless
    /// compare, plus the batch index for the gather pass.
    keys: Vec<(u128, u32)>,
}

/// The event's unique total-order key as one wide integer.
fn pack_key(ev: &Event) -> u128 {
    ((ev.at as u128) << 64) | ((ev.src as u128) << 32) | ev.src_seq as u128
}

impl EventQueue {
    /// `lookahead` is the simulation lookahead. The bucket width is a
    /// quarter of it: any width ≤ the minimum cross-node delay keeps the
    /// hot path out of the `late` heap, and smaller buckets keep each
    /// sort batch cache-resident (the queue stays correct for any width).
    pub(crate) fn new(lookahead: u64) -> EventQueue {
        EventQueue {
            ring: (0..EQ_RING).map(|_| Vec::new()).collect(),
            occupied: [0; EQ_WORDS],
            spare: Vec::new(),
            cursor: 0,
            base: 0,
            width: (lookahead / 4).max(1),
            cur: Vec::new(),
            late: BinaryHeap::new(),
            far: BinaryHeap::new(),
            len: 0,
            keys: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, ev: Event) {
        self.len += 1;
        if ev.at < self.base {
            self.late.push(std::cmp::Reverse(ev));
            return;
        }
        let rel = (ev.at - self.base) / self.width;
        if rel >= EQ_RING as u64 {
            self.far.push(std::cmp::Reverse(ev));
            return;
        }
        let i = (self.cursor + rel as usize) % EQ_RING;
        let bucket = &mut self.ring[i];
        if bucket.is_empty() {
            self.occupied[i / 64] |= 1 << (i % 64);
            if let Some(buf) = self.spare.pop() {
                *bucket = buf;
            }
        }
        bucket.push(ev);
    }

    /// Distance in buckets from `cursor` to the first non-empty bucket
    /// of the ring, if any.
    fn next_occupied(&self) -> Option<u64> {
        let (w0, b0) = (self.cursor / 64, self.cursor % 64);
        let head = self.occupied[w0] & (!0u64 << b0);
        if head != 0 {
            return Some(u64::from(head.trailing_zeros()) - b0 as u64);
        }
        for step in 1..EQ_WORDS {
            let w = (w0 + step) % EQ_WORDS;
            if self.occupied[w] != 0 {
                let i = w * 64 + self.occupied[w].trailing_zeros() as usize;
                return Some(((i + EQ_RING - self.cursor) % EQ_RING) as u64);
            }
        }
        // The cursor word's bits below the cursor are the ring's far end.
        let tail = self.occupied[w0] & !(!0u64 << b0);
        (tail != 0).then(|| (EQ_RING - b0) as u64 + u64::from(tail.trailing_zeros()))
    }

    /// Sort the next non-empty bucket into `cur`. No-op unless the active
    /// batch is exhausted. Advances `base` past the sorted bucket.
    fn refill(&mut self) {
        if !self.cur.is_empty() || !self.late.is_empty() || self.len == 0 {
            return;
        }
        // Distance (in buckets) to the next pending event, in the ring
        // or parked in `far`.
        let k_ring = self.next_occupied();
        let k_far = self
            .far
            .peek()
            .map(|std::cmp::Reverse(ev)| (ev.at - self.base) / self.width);
        let k = match (k_ring, k_far) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => unreachable!("pdes: len > 0 with no pending event"),
        };
        self.base += k * self.width;
        let i = ((self.cursor as u64 + k) % EQ_RING as u64) as usize;
        self.occupied[i / 64] &= !(1 << (i % 64));
        // Batch = the bucket itself plus any `far` stragglers that now
        // fall inside it (possible after a long jump).
        let end = self.base + self.width;
        let mut batch = std::mem::take(&mut self.ring[i]);
        if batch.capacity() == 0 {
            // A batch of `far` stragglers alone borrows a pooled buffer,
            // so the pool does not grow by one per such batch.
            batch = self.spare.pop().unwrap_or_default();
        }
        while self
            .far
            .peek()
            .is_some_and(|std::cmp::Reverse(ev)| ev.at < end)
        {
            let std::cmp::Reverse(ev) = self.far.pop().expect("peeked");
            batch.push(ev);
        }
        // Key sort + gather: order 24-byte keys, then move each event
        // exactly once into `cur` (descending, so pop() ascends).
        self.keys.clear();
        self.keys.reserve(batch.len());
        for (i, ev) in batch.iter().enumerate() {
            self.keys.push((pack_key(ev), i as u32));
        }
        self.keys.sort_unstable();
        self.cur.clear();
        self.cur.reserve(batch.len());
        // SAFETY: `keys` holds each index in 0..batch.len() exactly once,
        // so every element is moved out exactly once; the length is
        // zeroed first so a leak (not a double drop) is the worst case.
        unsafe {
            let p = batch.as_ptr();
            batch.set_len(0);
            for &(_, i) in self.keys.iter().rev() {
                self.cur.push(std::ptr::read(p.add(i as usize)));
            }
        }
        // Hand the bucket's capacity to the next bucket that fills.
        self.spare.push(batch);
        self.base = end;
        self.cursor = (i + 1) % EQ_RING;
    }

    /// Delivery time of the earliest pending event.
    pub(crate) fn peek_at(&mut self) -> Option<u64> {
        self.refill();
        let c = self.cur.last().map(|ev| ev.at);
        let l = self.late.peek().map(|std::cmp::Reverse(ev)| ev.at);
        match (c, l) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pop the earliest event if it is due before `cut`.
    pub(crate) fn pop_lt(&mut self, cut: u64) -> Option<Event> {
        self.refill();
        let from_late = match (self.cur.last(), self.late.peek()) {
            (Some(c), Some(std::cmp::Reverse(l))) => l.key() < c.key(),
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => return None,
        };
        let ev = if from_late {
            let std::cmp::Reverse(ev) = self.late.peek().expect("checked");
            if ev.at >= cut {
                return None;
            }
            let std::cmp::Reverse(ev) = self.late.pop().expect("checked");
            ev
        } else {
            if self.cur.last().expect("checked").at >= cut {
                return None;
            }
            self.cur.pop().expect("checked")
        };
        self.len -= 1;
        Some(ev)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn clear(&mut self) {
        self.drain();
    }

    /// Iterate the pending events in arbitrary order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.cur
            .iter()
            .chain(self.late.iter().map(|r| &r.0))
            .chain(self.ring.iter().flatten())
            .chain(self.far.iter().map(|r| &r.0))
    }

    /// Remove and return every pending event, in arbitrary order.
    pub(crate) fn drain(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.len);
        out.append(&mut self.cur);
        out.extend(self.late.drain().map(|r| r.0));
        for b in &mut self.ring {
            if !b.is_empty() {
                out.append(b);
                self.spare.push(std::mem::take(b));
            }
        }
        out.extend(self.far.drain().map(|r| r.0));
        self.occupied = [0; EQ_WORDS];
        self.cursor = 0;
        self.base = 0;
        self.len = 0;
        out
    }

    /// Capacity held by bucket buffers, in the ring and in the pool.
    #[cfg(test)]
    fn bucket_capacity(&self) -> usize {
        self.ring.iter().chain(&self.spare).map(Vec::capacity).sum()
    }
}

/// A PDES simulation instance: the node set plus pending events.
///
/// Run it serially ([`PdesSim::run`] / [`PdesSim::run_until`]) or with the
/// windowed parallel executor ([`PdesSim::run_parallel`], in
/// `pdes_window.rs`); mix freely across a snapshot boundary — the state is
/// engine-shape independent.
pub struct PdesSim {
    pub(crate) nodes: Vec<NodeRt>,
    pub(crate) pending: EventQueue,
    pub(crate) lookahead: u64,
    pub(crate) seed: u64,
    /// All events with `at < now` have been delivered.
    pub(crate) now: u64,
    pub(crate) events: u64,
    pub(crate) inited: bool,
    pub(crate) record: bool,
}

impl PdesSim {
    /// Build a simulation. `lookahead` must be ≥ 1 (a zero lookahead
    /// admits no parallel window).
    pub fn new(seed: u64, lookahead: u64, nodes: Vec<Box<dyn PdesNode>>) -> PdesSim {
        assert!(lookahead >= 1, "pdes: lookahead must be >= 1");
        assert!(!nodes.is_empty(), "pdes: at least one node required");
        assert!(nodes.len() <= u32::MAX as usize, "pdes: too many nodes");
        let nodes = nodes
            .into_iter()
            .enumerate()
            .map(|(i, node)| NodeRt {
                node,
                seq: 0,
                rng: SplitMix64::new(node_seed(seed, i as PdesNodeId)),
                log: Vec::new(),
                events: 0,
                last_at: 0,
            })
            .collect();
        PdesSim {
            nodes,
            pending: EventQueue::new(lookahead),
            lookahead,
            seed,
            now: 0,
            events: 0,
            inited: false,
            record: false,
        }
    }

    /// Enable instrumentation recording ([`LogRec`] accumulation).
    pub fn record_log(&mut self, on: bool) {
        self.record = on;
    }

    /// Number of simulated nodes.
    pub fn n_nodes(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// The conservative lookahead.
    pub fn lookahead(&self) -> u64 {
        self.lookahead
    }

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Virtual time through which the simulation is complete.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Total events delivered so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Number of undelivered events.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Run node `init` hooks (idempotent; called by the executors).
    pub(crate) fn ensure_init(&mut self) {
        if self.inited {
            return;
        }
        self.inited = true;
        let lookahead = self.lookahead;
        let n_nodes = self.nodes.len() as u32;
        let record = self.record;
        let pending = &mut self.pending;
        for (i, rt) in self.nodes.iter_mut().enumerate() {
            let mut ctx = Ctx {
                now: 0,
                me: i as PdesNodeId,
                n_nodes,
                lookahead,
                seq: &mut rt.seq,
                rng: &mut rt.rng,
                out: Sink::Queue(&mut *pending),
                log: record.then_some(&mut rt.log),
            };
            rt.node.init(&mut ctx);
        }
    }

    /// Serial reference executor: run to completion.
    pub fn run(&mut self) -> PdesStats {
        self.run_until(u64::MAX)
    }

    /// Serial reference executor: deliver every event with `at < cut`,
    /// then advance `now` to the cut. One global heap pops events in
    /// `(at, src, src_seq)` order — the canonical order the parallel
    /// executor must reproduce per node.
    pub fn run_until(&mut self, cut: u64) -> PdesStats {
        self.ensure_init();
        let lookahead = self.lookahead;
        let n_nodes = self.nodes.len() as u32;
        let record = self.record;
        let mut delivered = 0u64;
        let mut last_at = 0u64;
        let pending = &mut self.pending;
        let nodes = &mut self.nodes;
        while let Some(mut ev) = pending.pop_lt(cut) {
            let rt = &mut nodes[ev.dst as usize];
            let mut ctx = Ctx {
                now: ev.at,
                me: ev.dst,
                n_nodes,
                lookahead,
                seq: &mut rt.seq,
                rng: &mut rt.rng,
                out: Sink::Queue(&mut *pending),
                log: record.then_some(&mut rt.log),
            };
            rt.node.handle(&mut ev, &mut ctx);
            rt.events += 1;
            rt.last_at = ev.at;
            last_at = ev.at;
            delivered += 1;
        }
        self.events += delivered;
        self.now = if cut == u64::MAX {
            self.now.max(last_at)
        } else {
            self.now.max(cut)
        };
        PdesStats {
            events: self.events,
            end_time: self.max_last_at(),
        }
    }

    pub(crate) fn max_last_at(&self) -> u64 {
        self.nodes.iter().map(|rt| rt.last_at).max().unwrap_or(0)
    }

    /// Snapshot of one node's model state.
    pub fn node_state(&self, node: PdesNodeId) -> Vec<u64> {
        self.nodes[node as usize].node.state_words()
    }

    /// Pending events in canonical (sorted) order — snapshot/digest input.
    pub fn pending_sorted(&self) -> Vec<Event> {
        let mut evs: Vec<Event> = self.pending.iter().cloned().collect();
        evs.sort();
        evs
    }

    /// FNV-1a digest over the behavioral simulation state: event count,
    /// per-node (seq, rng, state words, counters) and pending events.
    /// The `now` watermark is deliberately excluded — a run paused at a
    /// cut beyond its final event and a run-to-completion reach the same
    /// behavioral state with different watermarks. Snapshot bytes *do*
    /// include `now`, so same-cut comparisons still pin it. The
    /// bit-identity tests compare digests *and* full snapshot bytes.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.events);
        h.word(self.lookahead);
        h.word(self.seed);
        h.word(self.nodes.len() as u64);
        for rt in &self.nodes {
            h.word(rt.seq as u64);
            h.word(rt.rng.state());
            h.word(rt.events);
            h.word(rt.last_at);
            let words = rt.node.state_words();
            h.word(words.len() as u64);
            for w in words {
                h.word(w);
            }
        }
        for ev in self.pending_sorted() {
            h.word(ev.at);
            h.word(((ev.src as u64) << 32) | ev.dst as u64);
            h.word(((ev.src_seq as u64) << 16) | ev.kind as u64);
            h.word(ev.a);
            h.word(ev.b);
            h.word(ev.data.len() as u64);
            for &w in ev.data.iter() {
                h.word(w);
            }
        }
        h.finish()
    }

    /// Merge and drain the instrumentation log into one deterministic
    /// sequence ordered by `(at, producing node, per-node index)`. Per-node
    /// logs are identical for any executor (see module docs), and the merge
    /// key is partition-free, so the result is too.
    pub fn drain_log(&mut self) -> Vec<LogRec> {
        let mut tagged: Vec<(u64, PdesNodeId, u32, LogRec)> = Vec::new();
        for rt in self.nodes.iter_mut() {
            for (idx, rec) in rt.log.drain(..).enumerate() {
                tagged.push((rec.at(), rec.by(), idx as u32, rec));
            }
        }
        tagged.sort_by_key(|x| (x.0, x.1, x.2));
        tagged.into_iter().map(|t| t.3).collect()
    }
}

/// FNV-1a over u64 words (little-endian bytes), chaining
/// [`bfly_snap::fnv1a`] once per word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = bfly_snap::fnv1a(self.0, &w.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Toy model: each node keeps a counter; on every event it bumps the
    /// counter with a value from its RNG and forwards to `(me+1) % n`.
    pub(crate) struct Hot {
        pub sum: u64,
        pub hops_left: u64,
    }

    impl PdesNode for Hot {
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.me == 0 {
                let la = ctx.lookahead();
                ctx.send(1 % ctx.n_nodes, la, 1, self.hops_left, 0);
            }
        }

        fn handle(&mut self, ev: &mut Event, ctx: &mut Ctx<'_>) {
            self.sum = self
                .sum
                .wrapping_add(ev.a)
                .wrapping_add(ctx.rng().next_u64() >> 32);
            if ev.a > 0 {
                let nxt = (ctx.me + 1) % ctx.n_nodes;
                let la = ctx.lookahead();
                let jitter = ctx.rng().next_below(la);
                let (at, me) = (ctx.now, ctx.me);
                ctx.log(LogRec::MsgSend {
                    at,
                    from: me,
                    to: nxt,
                    bytes: 8,
                });
                ctx.send(nxt, la + jitter, 1, ev.a - 1, 0);
            }
        }

        fn state_words(&self) -> Vec<u64> {
            vec![self.sum, self.hops_left]
        }

        fn load_words(&mut self, words: &[u64]) -> Result<(), String> {
            if words.len() != 2 {
                return Err("hot: bad state".into());
            }
            self.sum = words[0];
            self.hops_left = words[1];
            Ok(())
        }
    }

    pub(crate) fn hot_ring(seed: u64, n: u32, hops: u64) -> PdesSim {
        let nodes: Vec<Box<dyn PdesNode>> = (0..n)
            .map(|_| {
                Box::new(Hot {
                    sum: 0,
                    hops_left: hops,
                }) as Box<dyn PdesNode>
            })
            .collect();
        PdesSim::new(seed, 1000, nodes)
    }

    /// Broadcast model: node 0 publishes one payload per lookahead, for
    /// `rounds` rounds, to every other node; receivers fold the words into
    /// a checksum. Every node hands what it sends and receives to `tap`
    /// as `(kind, at, payload)`, so a test can see the buffers themselves.
    struct Fan {
        rounds: u64,
        sum: u64,
        tap: FanTap,
    }

    pub(crate) type FanTap = Arc<std::sync::Mutex<Vec<(u16, u64, Payload)>>>;

    const FAN_TICK: u16 = 0;
    pub(crate) const FAN_ROW: u16 = 1;
    /// Tap-only kind: a payload as its sender built it.
    const FAN_SENT: u16 = 2;

    impl PdesNode for Fan {
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.me == 0 {
                ctx.send(0, 0, FAN_TICK, 0, 0);
            }
        }

        fn handle(&mut self, ev: &mut Event, ctx: &mut Ctx<'_>) {
            self.tap
                .lock()
                .unwrap()
                .push((ev.kind, ev.at, ev.data.clone()));
            if ev.kind == FAN_ROW {
                self.sum = ev.data.iter().fold(self.sum, |s, &w| s.rotate_left(5) ^ w);
                return;
            }
            if self.rounds == 0 {
                return;
            }
            self.rounds -= 1;
            let la = ctx.lookahead();
            let row: Payload = (0..8).map(|i| ev.at.wrapping_mul(31) ^ i).collect();
            self.tap
                .lock()
                .unwrap()
                .push((FAN_SENT, ev.at + la, row.clone()));
            for q in 1..ctx.n_nodes {
                ctx.send_data(q, la, FAN_ROW, 0, 0, row.clone());
            }
            ctx.send(0, la, FAN_TICK, 0, 0);
        }

        fn state_words(&self) -> Vec<u64> {
            vec![self.rounds, self.sum]
        }

        fn load_words(&mut self, words: &[u64]) -> Result<(), String> {
            let [rounds, sum] = words else {
                return Err("fan: bad state".into());
            };
            self.rounds = *rounds;
            self.sum = *sum;
            Ok(())
        }
    }

    /// `n` fan nodes (lookahead 1000) reporting to a fresh tap.
    pub(crate) fn fan(n: u32, rounds: u64) -> (PdesSim, FanTap) {
        let tap = FanTap::default();
        let nodes: Vec<Box<dyn PdesNode>> = (0..n)
            .map(|_| {
                Box::new(Fan {
                    rounds,
                    sum: 0,
                    tap: tap.clone(),
                }) as Box<dyn PdesNode>
            })
            .collect();
        (PdesSim::new(3, 1000, nodes), tap)
    }

    /// One broadcast is one buffer: every destination of a round holds the
    /// very allocation the sender built, carrying the words it sent, under
    /// either executor; a payload-less send holds no allocation at all.
    #[test]
    fn a_broadcast_shares_one_buffer() {
        let (k, rounds) = (6u32, 3u64);
        for hosts in [1usize, 2] {
            let (mut sim, tap) = fan(k + 1, rounds);
            if hosts == 1 {
                sim.run();
            } else {
                sim.run_parallel(hosts);
            }
            let tap = tap.lock().unwrap();
            let sent: Vec<&(u16, u64, Payload)> = tap.iter().filter(|t| t.0 == FAN_SENT).collect();
            assert_eq!(sent.len() as u64, rounds);
            for (_, at, built) in sent {
                let built = built.0.as_ref().expect("a row is allocated");
                let words: Vec<u64> = (0..8).map(|i| (at - 1000).wrapping_mul(31) ^ i).collect();
                let got: Vec<&Payload> = tap
                    .iter()
                    .filter(|t| t.0 == FAN_ROW && t.1 == *at)
                    .map(|t| &t.2)
                    .collect();
                assert_eq!(got.len() as u32, k, "hosts={hosts} at={at}");
                for p in got {
                    let p = p.0.as_ref().expect("delivered row");
                    assert!(Arc::ptr_eq(p, built), "hosts={hosts}: a row was copied");
                    assert_eq!(p[..], words[..]);
                }
            }
            let ticks: Vec<&(u16, u64, Payload)> = tap.iter().filter(|t| t.0 == FAN_TICK).collect();
            assert_eq!(ticks.len() as u64, rounds + 1);
            assert!(ticks.iter().all(|t| t.2 .0.is_none() && t.2.is_empty()));
        }
    }

    #[test]
    fn serial_run_is_deterministic() {
        let mut a = hot_ring(42, 8, 100);
        let mut b = hot_ring(42, 8, 100);
        let sa = a.run();
        let sb = b.run();
        assert_eq!(sa, sb);
        assert_eq!(sa.events, 101);
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = hot_ring(1, 8, 50);
        let mut b = hot_ring(2, 8, 50);
        a.run();
        b.run();
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn run_until_is_resumable() {
        let mut whole = hot_ring(7, 4, 200);
        let sw = whole.run();
        let mut split = hot_ring(7, 4, 200);
        split.run_until(50_000);
        split.run_until(150_000);
        let ss = split.run();
        assert_eq!(sw, ss);
        assert_eq!(whole.state_digest(), split.state_digest());
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn cross_node_send_below_lookahead_panics() {
        struct Bad;
        impl PdesNode for Bad {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.me == 0 {
                    ctx.send(1, 1, 0, 0, 0); // lookahead is 1000
                }
            }
            fn handle(&mut self, _ev: &mut Event, _ctx: &mut Ctx<'_>) {}
            fn state_words(&self) -> Vec<u64> {
                vec![]
            }
            fn load_words(&mut self, _w: &[u64]) -> Result<(), String> {
                Ok(())
            }
        }
        let nodes: Vec<Box<dyn PdesNode>> = vec![Box::new(Bad), Box::new(Bad)];
        PdesSim::new(0, 1000, nodes).run();
    }

    #[test]
    fn log_merge_is_sorted_and_stable() {
        struct Logger;
        impl PdesNode for Logger {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                let me = ctx.me;
                ctx.log(LogRec::Hop {
                    at: 5,
                    from: me,
                    hops: 1,
                });
                ctx.log(LogRec::Hop {
                    at: 9,
                    from: me,
                    hops: 2,
                });
            }
            fn handle(&mut self, _ev: &mut Event, _ctx: &mut Ctx<'_>) {}
            fn state_words(&self) -> Vec<u64> {
                vec![]
            }
            fn load_words(&mut self, _w: &[u64]) -> Result<(), String> {
                Ok(())
            }
        }
        let nodes: Vec<Box<dyn PdesNode>> = vec![Box::new(Logger), Box::new(Logger)];
        let mut sim = PdesSim::new(0, 10, nodes);
        sim.record_log(true);
        sim.run();
        let log = sim.drain_log();
        let ats: Vec<(u64, PdesNodeId)> = log.iter().map(|r| (r.at(), r.by())).collect();
        assert_eq!(ats, vec![(5, 0), (5, 1), (9, 0), (9, 1)]);
    }

    /// T22's lookahead: `PdesTopology::butterfly(512).lookahead_ns()`.
    const T22_LA: u64 = 4_600;
    /// T22's pivot-row delay: `msg_ns(385)` on the same machine, 26
    /// lookaheads.
    const T22_MSG: u64 = 119_800;

    /// An event from `src` to `dst` due at `at`, numbered by `seqs`.
    fn ev_at(seqs: &mut [u32], src: u32, dst: u32, at: u64, kind: u16, a: u64) -> Event {
        let src_seq = seqs[src as usize];
        seqs[src as usize] += 1;
        Event {
            at,
            src,
            dst,
            src_seq,
            kind,
            a,
            b: 0,
            data: Payload::default(),
        }
    }

    /// T22-shaped traffic: the owner of each pivot broadcasts it to every
    /// other node at the pivot-row delay, and the next owner starts its
    /// step after an elimination self-send of zero, ~600 µs or 40 ms —
    /// the last beyond the ring's horizon. Every cross-node event must be
    /// a bucket append: none may wait in the `far` heap.
    #[test]
    fn t22_cross_node_events_never_reach_far() {
        const STEP: u16 = 0;
        const PIVOT: u16 = 1;
        let (p, steps) = (48u32, 90u64);
        let mut q = EventQueue::new(T22_LA);
        let mut seqs = vec![0u32; p as usize];
        q.push(ev_at(&mut seqs, 0, 0, 0, STEP, 0));
        let (mut cross, mut far_seen, mut delivered) = (0u64, 0usize, 0u64);
        while let Some(e) = q.pop_lt(u64::MAX) {
            delivered += 1;
            let k = e.a;
            match e.kind {
                STEP => {
                    for dst in (0..p).filter(|&d| d != e.dst) {
                        let far = q.far.len();
                        q.push(ev_at(&mut seqs, e.dst, dst, e.at + T22_MSG, PIVOT, k));
                        assert_eq!(q.far.len(), far, "pivot {k} {} -> {dst} reached far", e.dst);
                        cross += 1;
                    }
                }
                _ if k + 1 < steps && e.dst as u64 == (k + 1) % p as u64 => {
                    let elim = [0, 600_000, 40_000_000][k as usize % 3];
                    q.push(ev_at(&mut seqs, e.dst, e.dst, e.at + elim, STEP, k + 1));
                    far_seen = far_seen.max(q.far.len());
                }
                _ => {}
            }
        }
        assert_eq!(cross, steps * (p as u64 - 1));
        assert_eq!(delivered, steps + cross);
        assert!(far_seen > 0, "the long self-sends exercise the far heap");
        assert_eq!(q.len(), 0);
    }

    /// PHOLD-shaped churn over many ring revolutions: bucket buffers are
    /// pooled, so the capacity the queue keeps tracks the events pending
    /// at once, not the ring size times each bucket's peak.
    #[test]
    fn phold_churn_keeps_bucket_capacity_near_peak_pending() {
        let (la, jobs, hops) = (4_000u64, 512u32, 800u32);
        let mut q = EventQueue::new(la);
        let mut rng = SplitMix64::new(5);
        let mut seqs = vec![0u32; jobs as usize];
        for j in 0..jobs {
            let at = la + rng.next_below(la);
            q.push(ev_at(&mut seqs, j, j, at, 0, u64::from(hops)));
        }
        let mut peak = q.len();
        while let Some(e) = q.pop_lt(u64::MAX) {
            if e.a > 1 {
                let at = e.at + la + rng.next_below(la);
                q.push(ev_at(&mut seqs, e.dst, e.dst, at, 0, e.a - 1));
            }
            peak = peak.max(q.len());
        }
        assert!(
            q.base > EQ_RING as u64 * q.width,
            "the cursor swept the ring"
        );
        assert!(
            q.bucket_capacity() <= 4 * peak,
            "bucket capacity {} for {} pending at peak",
            q.bucket_capacity(),
            peak
        );
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The calendar queue against a binary heap of keys: random
        /// pushes (delays of zero, in `[L, 2L)`, around 26·L and beyond
        /// the ring's horizon), pops under cuts that often land on bucket
        /// edges, peeks, clears and drains. Pop order and `len` agree at
        /// every step.
        #[test]
        fn event_queue_matches_a_binary_heap(ops in proptest::collection::vec((0u32..100, any::<u64>()), 1..400)) {
            use std::cmp::Reverse;
            let la = T22_LA;
            let mut q = EventQueue::new(la);
            let width = q.width;
            let horizon = EQ_RING as u64 * width;
            let mut model: BinaryHeap<Reverse<(u64, PdesNodeId, u32)>> = BinaryHeap::new();
            let mut seqs = vec![0u32; 8];
            let mut now = 0u64;
            for (op, r) in ops {
                match op {
                    0..=54 => {
                        let delay = match (r >> 8) % 6 {
                            0 => 0,
                            1 => r % width,
                            2 => la + r % la,
                            3 => 26 * la - 2 * width + r % (4 * width),
                            4 => horizon - width + r % (2 * width),
                            _ => horizon + r % (3 * horizon),
                        };
                        let e = ev_at(&mut seqs, (r % 8) as u32, 0, now + delay, 0, r);
                        model.push(Reverse(e.key()));
                        q.push(e);
                    }
                    55..=84 => {
                        let cut = match r % 4 {
                            0 => u64::MAX,
                            1 => now + r % (2 * la),
                            _ => (now / width + (r >> 8) % 200) * width,
                        };
                        let want = model.peek().filter(|k| k.0 .0 < cut).map(|k| k.0);
                        if want.is_some() {
                            model.pop();
                        }
                        let got = q.pop_lt(cut).map(|e| e.key());
                        prop_assert_eq!(got, want);
                        if let Some((at, _, _)) = got {
                            now = at;
                        }
                    }
                    85..=92 => {
                        prop_assert_eq!(q.peek_at(), model.peek().map(|k| k.0 .0));
                        let mut keys: Vec<_> = q.iter().map(Event::key).collect();
                        keys.sort_unstable();
                        let mut want: Vec<_> = model.iter().map(|k| k.0).collect();
                        want.sort_unstable();
                        prop_assert_eq!(keys, want);
                    }
                    93..=95 => {
                        q.clear();
                        model.clear();
                    }
                    _ => {
                        let mut keys: Vec<_> = q.drain().into_iter().map(|e| {
                            let k = e.key();
                            q.push(e);
                            k
                        }).collect();
                        keys.sort_unstable();
                        let mut want: Vec<_> = model.iter().map(|k| k.0).collect();
                        want.sort_unstable();
                        prop_assert_eq!(keys, want);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
            }
            while let Some(e) = q.pop_lt(u64::MAX) {
                prop_assert_eq!(Some(e.key()), model.pop().map(|k| k.0));
            }
            prop_assert!(model.is_empty());
        }
    }
}
