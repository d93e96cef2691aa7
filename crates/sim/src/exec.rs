//! The virtual-time executor: task spawning, the run loop, timers,
//! join handles, and deadlock detection.
//!
//! ## Hot-path design (see DESIGN.md §10)
//!
//! The executor is single-threaded by construction, and the run loop is the
//! binding constraint on how large a sweep the experiment harness can
//! afford, so every per-event cost is engineered out:
//!
//! * **Ready queue** — an uncontended `RefCell<VecDeque>` of packed
//!   (slot, generation) keys. No mutex: wakers only ever run on the
//!   simulation thread.
//! * **Wakers** — one manually-built [`RawWaker`] per task over an
//!   `Rc<WakerNode>`; cloning a waker is a non-atomic refcount bump and
//!   waking is a `Cell` flag test plus a queue push. No allocation per
//!   wake, no atomics anywhere on the wake path.
//! * **Task slab** — tasks live in a slab whose slots carry a generation
//!   counter, bumped on completion so slots can be reused across spawns
//!   while stale wakers (keyed by the old generation) become no-ops
//!   instead of spuriously polling an unrelated task.
//! * **Timers** — a timer wheel front end covers the near-horizon common
//!   case (a bucketed array indexed by `at >> WHEEL_BITS`). Each bucket is
//!   an append-mostly sorted vector consumed through a head cursor, so the
//!   common insert is a `push` and every pop is a cursor bump — no heap
//!   sifting. The geometry is fitted to the machine model's delays: they
//!   are multiples of 100 ns, so a 64 ns bucket holds one instant and
//!   every insert is a `push`, and 1 024 buckets (32 KB of headers) span
//!   the 65.5 µs in which a Figure 5 point's live timers sit. On the
//!   benchmark's 16 Figure 5 points (N=96, seed 7) the old 512 ns × 8 192
//!   wheel made 9 671 337 of the Uniform System's 26 240 173
//!   registrations sorted mid-bucket inserts; this one makes none. An
//!   empty bucket owns no buffer: a drained bucket's buffer goes to a
//!   spare pool for the next bucket to fill. Far-future timers (0.065 %
//!   of the US registrations, 15.1 % of SMP's) overflow to a binary
//!   heap. An entry is
//!   plain data, `(at, seq, key)`: an executor waker is stored as its
//!   task key, and anything else (a foreign waker, a continuation) sits in
//!   a side slab behind a tagged key. Cancellations go in a `(at, seq)`
//!   min-heap pruned from the front, consulted only when non-empty, so a
//!   `Delay` costs no allocation at all. The run loop pops *all*
//!   entries at the next instant in one batch and fires them in
//!   registration (`seq`) order, polling the woken task directly when the
//!   ready queue is empty (the overwhelmingly common case) instead of
//!   round-tripping through it.
//! * **Continuations** — a fused PNC reference ([`Resource::access_between`])
//!   registers its arrival and service-end instants as continuation
//!   entries that the run loop executes in place: take or release a
//!   memory unit and register the next leg, with no task poll. Only the
//!   return leg (or an arrival at a busy unit) polls the task.
//!
//! Determinism is preserved because none of this changes the *order* in
//! which tasks are polled: the ready queue is still strict FIFO, timers
//! still fire in `(at, seq)` order (the wheel compares against the
//! overflow heap's head on every pop), and a batch is drained one entry
//! at a time with the ready queue emptied in between — exactly the
//! schedule the previous heap-only engine produced. A continuation runs at
//! the batch position of the poll it replaces and makes that poll's
//! registrations in the same order, so it takes the same `seq` values;
//! only the poll count ([`RunStats::events`]) drops.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::future::Future;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::{Duration, Instant};

use crate::resource::Leg;
#[cfg(doc)]
use crate::resource::Resource;
use crate::rng::SplitMix64;
use crate::time::SimTime;
use crate::trace::Recorder;

type BoxFut = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// Timer-wheel granularity: one bucket spans `2^WHEEL_BITS` ns (64 ns).
/// Every delay the machine model schedules on the Figure 5 path is a
/// multiple of 100 ns: the word costs (`local_issue` 300, `remote_issue`
/// 1 100, `hop` 300, `mem_service` 500, a FLOP 10 000) and the block reads
/// of pivot rows, which move whole 8-byte words at 125 and 50 ns a byte.
/// Two such instants are at least 100 ns apart, so a 64 ns bucket holds
/// one instant, and since same-instant registrations arrive in `seq`
/// order every insert into it is a `push`.
const WHEEL_BITS: u32 = 6;
/// Number of wheel buckets; the wheel covers `WHEEL_SLOTS << WHEEL_BITS`
/// ≈ 65.5 µs past `now` with 32 KB of bucket headers. That spans a remote
/// reference (4–4.5 µs) and the 20 µs compute step, where the live
/// timers of a Figure 5 point sit. Longer timers (SMP's 300 µs send
/// software cost, its 66–80 µs row transfers) overflow to the binary
/// heap. A wider ring is not faster: the run loop sweeps its headers
/// through the cache as time advances.
const WHEEL_SLOTS: usize = 1024;

/// A handle to a simulation. Cheap to clone; all clones refer to the same
/// virtual clock and task set.
#[derive(Clone)]
pub struct Sim {
    pub(crate) inner: Rc<Inner>,
}

pub(crate) struct Inner {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    timers: RefCell<Timers>,
    tasks: RefCell<Slab>,
    ready: Rc<ReadyQueue>,
    live: Cell<usize>,
    rng: RefCell<SplitMix64>,
    events_processed: Cell<u64>,
    tasks_spawned: Cell<u64>,
    wall_ns: Cell<u64>,
    /// Popped-but-unfired entries of the current timer batch, persisted
    /// across [`Sim::run_events`] pauses so a bounded run can stop at any
    /// event count without losing scheduled wakeups. `run` takes the
    /// vector out for the duration of the loop (hot path stays on locals)
    /// and puts the remainder back before returning.
    batch: RefCell<Vec<TimerEntry>>,
    batch_pos: Cell<usize>,
    /// Whether the sanitizer has been told about the current quiescence
    /// (guards against double notification when `run` is called again
    /// after `run_events` already drained the schedule).
    quiesce_notified: Cell<bool>,
    recorder: RefCell<Option<Recorder>>,
    /// Ambient sanitizer captured at construction (see `bfly_san`). The
    /// disabled path is one `Option<Rc>` discriminant test per hook;
    /// hooks are strictly observational (no effect on the schedule).
    san: Option<bfly_san::Sanitizer>,
}

impl Inner {
    /// Register a timer entry at `at` for `key`, taking the next `seq`.
    fn schedule(&self, at: SimTime, key: impl FnOnce(&mut Timers) -> u64) -> u64 {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let mut timers = self.timers.borrow_mut();
        let key = key(&mut timers);
        timers.insert(self.now.get(), TimerEntry { at, seq, key });
        seq
    }

    /// Register a timer that wakes `waker` at `at`; returns its `seq`.
    pub(crate) fn schedule_wake(&self, at: SimTime, waker: &Waker) -> u64 {
        self.schedule(at, |t| match own_key(waker) {
            Some(key) => key,
            None => t.side_key(Side::Waker(waker.clone())),
        })
    }

    /// Register a timer that runs `leg` in place at `at`; returns its
    /// `seq`.
    pub(crate) fn schedule_leg(&self, at: SimTime, leg: Rc<Leg>) -> u64 {
        self.schedule(at, |t| t.side_key(Side::Leg(leg)))
    }

    /// Cancel the pending entry `(at, seq)`: it will never fire, and the
    /// clock never advances to it.
    pub(crate) fn cancel(&self, at: SimTime, seq: u64) {
        self.timers.borrow_mut().cancelled.push(Reverse((at, seq)));
    }
}

/// A task's diagnostic name. The unnamed-spawn fast path stores a static
/// string and allocates nothing.
enum TaskName {
    Static(&'static str),
    Owned(Box<str>),
}

impl TaskName {
    fn as_str(&self) -> &str {
        match self {
            TaskName::Static(s) => s,
            TaskName::Owned(s) => s,
        }
    }
}

struct Task {
    fut: BoxFut,
    /// The task's stable waker; passed by reference to every poll (never
    /// cloned on the poll path).
    waker: Waker,
    /// Direct handle to the waker's state, for clearing the queued flag.
    node: Rc<WakerNode>,
    name: TaskName,
}

// ---------------------------------------------------------------------------
// Task slab: generation-indexed slots reused across spawns.

/// Packed task key: low 32 bits slot index, high 32 bits generation.
type TaskKey = u64;

fn pack(idx: u32, gen: u32) -> TaskKey {
    (idx as u64) | ((gen as u64) << 32)
}

struct Slot {
    gen: u32,
    /// Boxed so the run loop moves 8 bytes (not the whole task) when it
    /// takes the task out for a poll and puts it back.
    task: Option<Box<Task>>,
}

#[derive(Default)]
struct Slab {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl Slab {
    /// Claim a slot (reusing a freed one if available) and return
    /// `(index, current generation)`.
    fn alloc(&mut self) -> (u32, u32) {
        match self.free.pop() {
            Some(idx) => (idx, self.slots[idx as usize].gen),
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot { gen: 0, task: None });
                (idx, 0)
            }
        }
    }

    /// Retire a completed task's slot: bump the generation (so stale
    /// wakers miss) and make the index reusable.
    fn retire(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
    }
}

// ---------------------------------------------------------------------------
// Ready queue + manual waker vtable.

/// Ready-task queue shared between the run loop and every task's waker.
/// Plain `RefCell`: the simulator is single-threaded, and wakers never
/// leave the simulation thread (see the module docs).
struct ReadyQueue {
    q: RefCell<VecDeque<TaskKey>>,
}

impl ReadyQueue {
    fn push(&self, key: TaskKey) {
        self.q.borrow_mut().push_back(key);
    }
    fn pop(&self) -> Option<TaskKey> {
        self.q.borrow_mut().pop_front()
    }
}

/// Per-task waker state. One `WakerNode` is allocated per *spawn*; wakes
/// and waker clones allocate nothing.
struct WakerNode {
    key: TaskKey,
    /// Deduplicates wakeups between polls so a task appears in the ready
    /// queue at most once.
    queued: Cell<bool>,
    ready: Rc<ReadyQueue>,
}

impl WakerNode {
    fn wake(&self) {
        if !self.queued.replace(true) {
            self.ready.push(self.key);
        }
    }
}

/// SAFETY CONTRACT: these vtable functions treat the data pointer as a
/// strong `Rc<WakerNode>` reference. `Waker` is nominally `Send + Sync`,
/// but every waker built here lives and dies on the single simulation
/// thread (the executor never hands futures to other threads), so the
/// non-atomic refcount and `Cell` accesses are sound.
static WAKER_VTABLE: RawWakerVTable =
    RawWakerVTable::new(rw_clone, rw_wake, rw_wake_by_ref, rw_drop);

// SAFETY: `p` is a strong `Rc<WakerNode>` count (see the contract above);
// cloning takes one more count without consuming the caller's.
unsafe fn rw_clone(p: *const ()) -> RawWaker {
    // SAFETY: as above — `p` came from `Rc::into_raw` and is still live.
    unsafe { Rc::increment_strong_count(p as *const WakerNode) };
    RawWaker::new(p, &WAKER_VTABLE)
}

// SAFETY: `wake` consumes the waker, so this consumes its strong count.
unsafe fn rw_wake(p: *const ()) {
    // SAFETY: `p` is a strong count from `Rc::into_raw`; reclaiming it
    // here balances the count the consumed waker owned.
    let node = unsafe { Rc::from_raw(p as *const WakerNode) };
    node.wake();
}

// SAFETY: `wake_by_ref` must not consume the waker's strong count.
unsafe fn rw_wake_by_ref(p: *const ()) {
    // SAFETY: `p` is a strong count from `Rc::into_raw`; `ManuallyDrop`
    // borrows it without taking ownership, leaving the count untouched.
    let node = ManuallyDrop::new(unsafe { Rc::from_raw(p as *const WakerNode) });
    node.wake();
}

// SAFETY: dropping the waker releases the strong count it owned.
unsafe fn rw_drop(p: *const ()) {
    // SAFETY: `p` is a strong count from `Rc::into_raw`, reclaimed exactly
    // once here.
    drop(unsafe { Rc::from_raw(p as *const WakerNode) });
}

/// The task key of one of this executor's wakers; `None` for a foreign
/// waker.
fn own_key(waker: &Waker) -> Option<TaskKey> {
    if std::ptr::eq(waker.vtable(), &WAKER_VTABLE) {
        // SAFETY: the vtable check proves `data` is the strong
        // `Rc<WakerNode>` our vtable functions manage; borrowing it for
        // the duration of this call cannot outlive the waker.
        Some(unsafe { &*(waker.data() as *const WakerNode) }.key)
    } else {
        None
    }
}

fn waker_for(node: &Rc<WakerNode>) -> Waker {
    let ptr = Rc::into_raw(node.clone()) as *const ();
    // SAFETY: the vtable's contract (above) matches the pointer handed
    // over: one strong `Rc<WakerNode>` count, single-threaded use only.
    unsafe { Waker::from_raw(RawWaker::new(ptr, &WAKER_VTABLE)) }
}

// ---------------------------------------------------------------------------
// Timers: wheel front end + overflow heap + cancellation min-heap, with
// a side slab for entries that do not name an executor task.

/// Tag bit, in the slot-index half of a [`TaskKey`], marking a timer key
/// as a side-slab index. Task slab indices stay far below it.
const SIDE: u64 = 1 << 31;

/// What a tagged timer key names.
enum Side {
    /// A waker of some other executor (a combinator wrapping its own).
    Waker(Waker),
    /// A fused-reference leg the run loop executes in place.
    Leg(Rc<Leg>),
}

/// A pending timer: fires at `at`, in `seq` order among same-instant
/// entries, waking the task `key` (or the side-slab entry it tags).
/// `(at, seq)` is unique, so the derived order is `(at, seq)` order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimerEntry {
    at: SimTime,
    seq: u64,
    key: u64,
}

/// One wheel bucket: entries `[head..]` live, ascending by `(at, seq)`.
/// Inserts are overwhelmingly appends (a bucket of the machine model's
/// delays holds one instant, and same-instant registrations arrive in
/// `seq` order); pops are a cursor bump, never a memmove. An empty bucket
/// owns no buffer: see [`Timers::spare`].
#[derive(Default)]
struct Bucket {
    entries: Vec<TimerEntry>,
    head: usize,
}

impl Bucket {
    fn live(&self) -> &[TimerEntry] {
        &self.entries[self.head..]
    }

    /// Insert in `(at, seq)` order. Costs that are not multiples of
    /// 100 ns (jitter, 25 ns block-transfer steps, arbitrary sleeps) can
    /// share a bucket out of order, so the sorted fallback stays.
    fn insert(&mut self, entry: TimerEntry) {
        let key = (entry.at, entry.seq);
        match self.entries.last() {
            Some(last) if (last.at, last.seq) > key => {
                let live = &self.entries[self.head..];
                let pos = live.partition_point(|e| (e.at, e.seq) < key);
                self.entries.insert(self.head + pos, entry);
            }
            _ => self.entries.push(entry),
        }
    }
}

#[derive(Default)]
struct Timers {
    /// Near-horizon buckets, indexed by `(at >> WHEEL_BITS) % WHEEL_SLOTS`.
    /// Because insertion requires `at` within the horizon and `at >= now`
    /// always holds, each bucket only ever holds entries of one absolute
    /// bucket number at a time.
    wheel: Vec<Bucket>,
    /// One bit per bucket: set iff the bucket is non-empty. Makes finding
    /// the next occupied bucket a handful of word scans instead of a walk
    /// over all buckets.
    occupied: Vec<u64>,
    wheel_len: usize,
    /// Empty buffers of drained buckets, capacity kept; the next bucket to
    /// fill takes the most recently returned one (still warm in cache).
    /// The buffers kept are bounded by the buckets occupied at once, not
    /// by the ring size.
    spare: Vec<Vec<TimerEntry>>,
    overflow: BinaryHeap<Reverse<TimerEntry>>,
    /// `(at, seq)` of entries whose owner was dropped before they fired.
    /// Checked during pops only while non-empty — cancellation is rare,
    /// so the common-case cost is one `is_empty` test per pop. Entries
    /// pop in strictly increasing `(at, seq)` order, so every record
    /// below the entry being popped is stale and is pruned from the front.
    cancelled: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Targets of tagged keys; a slot is freed when its entry pops.
    side: Vec<Option<Side>>,
    side_free: Vec<u32>,
}

impl Timers {
    fn new() -> Timers {
        Timers {
            wheel: (0..WHEEL_SLOTS).map(|_| Bucket::default()).collect(),
            occupied: vec![0; WHEEL_SLOTS / 64],
            ..Timers::default()
        }
    }

    /// Park `side` in the slab and return its tagged key.
    fn side_key(&mut self, side: Side) -> u64 {
        let idx = match self.side_free.pop() {
            Some(idx) => {
                self.side[idx as usize] = Some(side);
                idx
            }
            None => {
                self.side.push(Some(side));
                (self.side.len() - 1) as u32
            }
        };
        debug_assert!((idx as u64) < SIDE, "side slab outgrew its tag");
        SIDE | idx as u64
    }

    /// Free the slot a tagged key names and return its target.
    fn take_side(&mut self, key: u64) -> Side {
        let idx = (key & !SIDE) as u32;
        self.side_free.push(idx);
        self.side[idx as usize]
            .take()
            .expect("timer key names an empty side slot")
    }

    fn insert(&mut self, now: SimTime, entry: TimerEntry) {
        debug_assert!(entry.at >= now);
        let bucket = entry.at >> WHEEL_BITS;
        if bucket < (now >> WHEEL_BITS) + WHEEL_SLOTS as u64 {
            let i = (bucket % WHEEL_SLOTS as u64) as usize;
            let b = &mut self.wheel[i];
            if b.entries.is_empty() {
                self.occupied[i / 64] |= 1 << (i % 64);
                if let Some(buf) = self.spare.pop() {
                    b.entries = buf;
                }
            }
            b.insert(entry);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(entry));
        }
    }

    /// First occupied bucket in circular order starting at the bucket
    /// holding `now`. Buckets partition `at` ranges monotonically within
    /// the horizon, so this bucket holds the wheel's global minimum.
    fn first_occupied(&self, now: SimTime) -> usize {
        let words = self.occupied.len();
        let s = ((now >> WHEEL_BITS) % WHEEL_SLOTS as u64) as usize;
        let (sw, sb) = (s / 64, s % 64);
        let mut word = self.occupied[sw] & (!0u64 << sb);
        if word != 0 {
            return sw * 64 + word.trailing_zeros() as usize;
        }
        for k in 1..words {
            let wi = (sw + k) % words;
            word = self.occupied[wi];
            if word != 0 {
                return wi * 64 + word.trailing_zeros() as usize;
            }
        }
        // Wrapped all the way: bits of the start word below `sb`.
        word = self.occupied[sw] & ((1u64 << sb) - 1);
        debug_assert!(word != 0, "wheel_len out of sync with occupancy bitmap");
        sw * 64 + word.trailing_zeros() as usize
    }

    /// Pop bucket `i`'s first entry; a drained bucket hands its buffer
    /// to the spare pool and leaves the occupancy bitmap.
    fn pop_bucket(&mut self, i: usize) -> TimerEntry {
        let b = &mut self.wheel[i];
        let e = b.entries[b.head];
        b.head += 1;
        self.wheel_len -= 1;
        if b.head == b.entries.len() {
            let mut buf = std::mem::take(&mut b.entries);
            b.head = 0;
            buf.clear();
            self.spare.push(buf);
            self.occupied[i / 64] &= !(1 << (i % 64));
        }
        e
    }

    /// True if `(at, seq)` was cancelled; removes the match and prunes
    /// stale records (an entry can fire via its *task* completing without
    /// its `Delay` ever being re-polled, leaving a cancellation record for
    /// an already-popped entry — anything ordered before `(at, seq)` is
    /// stale).
    fn take_cancelled(&mut self, at: SimTime, seq: u64) -> bool {
        while let Some(&Reverse(first)) = self.cancelled.peek() {
            if first > (at, seq) {
                return false;
            }
            self.cancelled.pop();
            if first == (at, seq) {
                return true;
            }
        }
        false
    }

    /// Pop every live (non-cancelled) entry scheduled at the earliest
    /// pending instant, in `seq` order, appending them to `out`. Cancelled
    /// entries are discarded without contributing an instant, matching the
    /// old heap-only semantics where a cancelled pop never advanced the
    /// clock.
    fn pop_batch(&mut self, now: SimTime, out: &mut Vec<TimerEntry>) {
        debug_assert!(out.is_empty());
        while out.is_empty() {
            // The batch instant: min (at, seq) across wheel and overflow.
            let bucket = if self.wheel_len > 0 {
                Some(self.first_occupied(now))
            } else {
                None
            };
            let wheel_min = bucket.map(|i| {
                let e = self.wheel[i].live().first().expect("occupied bucket empty");
                (e.at, e.seq)
            });
            let heap_min = self.overflow.peek().map(|Reverse(e)| (e.at, e.seq));
            let t = match (wheel_min, heap_min) {
                (Some(w), Some(h)) => w.min(h).0,
                (Some(w), None) => w.0,
                (None, Some(h)) => h.0,
                (None, None) => return,
            };
            // Two-way merge by seq of the (at, seq)-sorted sources,
            // draining everything scheduled at `t`.
            loop {
                let w = bucket
                    .and_then(|i| self.wheel[i].live().first())
                    .filter(|e| e.at == t)
                    .map(|e| e.seq);
                let h = self
                    .overflow
                    .peek()
                    .filter(|Reverse(e)| e.at == t)
                    .map(|Reverse(e)| e.seq);
                let from_wheel = match (w, h) {
                    (Some(ws), Some(hs)) => ws < hs,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                let e = if from_wheel {
                    self.pop_bucket(bucket.expect("wheel pick without bucket"))
                } else {
                    self.overflow.pop().expect("heap pick without entry").0
                };
                if self.cancelled.is_empty() || !self.take_cancelled(e.at, e.seq) {
                    out.push(e);
                } else if e.key & SIDE != 0 {
                    drop(self.take_side(e.key));
                }
                // else: cancelled before firing; try the next entry. If the
                // whole instant was cancelled the outer loop advances to
                // the next instant without yielding a batch.
            }
        }
    }
}

/// Why [`Sim::run_events`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The cumulative event target was reached with work still pending;
    /// the simulation can be snapshotted here and continued later.
    Paused,
    /// The schedule drained: every task completed or is stuck. Calling
    /// [`Sim::run`] now computes the final [`RunStats`] without doing any
    /// further work.
    Quiescent,
}

/// Why [`Sim::run`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every spawned task ran to completion.
    Completed,
    /// Live tasks remain but nothing can ever wake them.
    Deadlock {
        /// Names of the stuck tasks, for diagnostics / Moviola.
        stuck: Vec<String>,
    },
}

/// Typed failure from the non-panicking run entry points
/// ([`Sim::try_run`], [`Sim::try_block_on`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run quiesced with live tasks that nothing can ever wake.
    /// Stuck-task names are sorted by task id, so the report is
    /// deterministic for a given (seed, fault plan).
    Deadlock { stuck: Vec<String> },
    /// The run completed but the awaited root future never resolved
    /// (its value was taken elsewhere, or it was abandoned).
    Incomplete,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { stuck } => {
                write!(f, "simulation deadlocked; stuck tasks: {stuck:?}")
            }
            SimError::Incomplete => write!(f, "simulation quiesced without a result"),
        }
    }
}

impl std::error::Error for SimError {}

/// Counters describing a finished run.
///
/// Equality ignores [`RunStats::wall`]: host wall time is measurement, not
/// simulation state, and two bit-identical runs will disagree on it.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Virtual time when the run loop stopped.
    pub end_time: SimTime,
    /// Total task polls performed.
    pub events: u64,
    /// Total tasks ever spawned.
    pub tasks: u64,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Host wall-clock time spent inside [`Sim::run`], cumulative across
    /// repeated runs of the same `Sim` (like [`RunStats::events`]).
    pub wall: Duration,
}

impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        self.end_time == other.end_time
            && self.events == other.events
            && self.tasks == other.tasks
            && self.outcome == other.outcome
    }
}
impl Eq for RunStats {}

impl RunStats {
    /// Engine throughput: task polls per host wall-clock second. The
    /// headline number of `BENCH_sim.json` and the `--stats` flag of the
    /// experiment binaries.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

impl Sim {
    /// Create a simulation with deterministic seed 0.
    pub fn new() -> Self {
        Self::with_seed(0)
    }

    /// Create a simulation whose injected nondeterminism derives from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        // A new simulation is a new "world" for the sanitizer: task-slab
        // keys restart, so their identities must not alias earlier runs.
        let san = bfly_san::ambient();
        if let Some(s) = &san {
            s.world_started();
        }
        Sim {
            inner: Rc::new(Inner {
                now: Cell::new(0),
                seq: Cell::new(0),
                timers: RefCell::new(Timers::new()),
                tasks: RefCell::new(Slab::default()),
                ready: Rc::new(ReadyQueue {
                    q: RefCell::new(VecDeque::new()),
                }),
                live: Cell::new(0),
                rng: RefCell::new(SplitMix64::new(seed)),
                events_processed: Cell::new(0),
                tasks_spawned: Cell::new(0),
                wall_ns: Cell::new(0),
                batch: RefCell::new(Vec::new()),
                batch_pos: Cell::new(0),
                quiesce_notified: Cell::new(false),
                recorder: RefCell::new(None),
                san,
            }),
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Borrow the simulation's deterministic RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut SplitMix64) -> R) -> R {
        f(&mut self.inner.rng.borrow_mut())
    }

    /// Install a trace recorder (see [`crate::trace`]). Returns any previous one.
    pub fn set_recorder(&self, rec: Option<Recorder>) -> Option<Recorder> {
        self.inner.recorder.replace(rec)
    }

    /// Record a trace event if a recorder is installed.
    pub fn record(&self, actor: u32, kind: &str, detail: impl FnOnce() -> String) {
        if let Some(rec) = self.inner.recorder.borrow().as_ref() {
            rec.push(self.now(), actor, kind, detail());
        }
    }

    /// True if a trace recorder is installed (lets callers skip building
    /// detail strings).
    pub fn tracing(&self) -> bool {
        self.inner.recorder.borrow().is_some()
    }

    /// Spawn a future as a simulated task. It starts running when [`run`]
    /// (or the current run loop iteration) reaches it.
    ///
    /// [`run`]: Sim::run
    pub fn spawn<T: 'static, F>(&self, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
    {
        self.spawn_inner(TaskName::Static("task"), fut)
    }

    /// Spawn with a diagnostic name (reported on deadlock).
    pub fn spawn_named<T: 'static, F>(&self, name: &str, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
    {
        self.spawn_inner(TaskName::Owned(name.into()), fut)
    }

    /// [`Sim::spawn_named`] without the name allocation, for static names.
    pub fn spawn_static<T: 'static, F>(&self, name: &'static str, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
    {
        self.spawn_inner(TaskName::Static(name), fut)
    }

    fn spawn_inner<T: 'static, F>(&self, name: TaskName, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
    {
        let state = Rc::new(JoinState {
            result: RefCell::new(None),
            waiters: RefCell::new(Vec::new()),
            san_id: Cell::new(0),
        });
        let wrapped: BoxFut = Box::pin(Wrapped {
            fut,
            state: state.clone(),
            // Keep the sim alive for the task's whole lifetime.
            _sim: self.inner.clone(),
        });

        let (idx, gen): (u32, u32);

        // One borrow covers both the slot allocation and the task install:
        // nothing in between re-enters the executor (waker construction is
        // pure), and spawn sits on the hot path of every fork-heavy model.
        {
            let mut tasks = self.inner.tasks.borrow_mut();
            let (i, g) = tasks.alloc();
            idx = i;
            gen = g;
            let node = Rc::new(WakerNode {
                key: pack(idx, gen),
                queued: Cell::new(true), // starts queued
                ready: self.inner.ready.clone(),
            });
            let waker = waker_for(&node);
            tasks.slots[idx as usize].task = Some(Box::new(Task {
                fut: wrapped,
                waker,
                node,
                name,
            }));
        }
        let key = pack(idx, gen);
        self.inner.live.set(self.inner.live.get() + 1);
        self.inner
            .tasks_spawned
            .set(self.inner.tasks_spawned.get() + 1);
        // New work after quiescence re-arms the sanitizer notification
        // (only host code can create work once the schedule is drained,
        // and it must start with a spawn).
        self.inner.quiesce_notified.set(false);
        if let Some(s) = &self.inner.san {
            let tasks = self.inner.tasks.borrow();
            let name = tasks.slots[idx as usize]
                .task
                .as_ref()
                .map(|t| t.name.as_str())
                .unwrap_or("task");
            s.task_spawned(key, name);
        }
        self.inner.ready.push(key);
        JoinHandle { state }
    }

    /// Sleep for `dur` nanoseconds of virtual time.
    pub fn sleep(&self, dur: SimTime) -> Delay {
        self.sleep_until(self.now().saturating_add(dur))
    }

    /// Sleep until an absolute virtual time (no-op if already past).
    pub fn sleep_until(&self, at: SimTime) -> Delay {
        Delay {
            sim: self.inner.clone(),
            at,
            registered: None,
            fired: false,
        }
    }

    /// Yield to other ready tasks at the same instant: returns `Pending`
    /// once (re-queueing this task at the back of the ready queue), so
    /// every other ready task gets a poll first. Note that `sleep(0)` does
    /// NOT yield — it completes immediately.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Poll task `key`. With `unless_queued`, a task already waiting in
    /// the ready queue is left there (a wake would be a no-op).
    fn poll_task(&self, key: TaskKey, unless_queued: bool) {
        let idx = (key & u32::MAX as u64) as usize;
        let gen = (key >> 32) as u32;
        // Take the task out so that re-entrant spawns can't alias the slot;
        // a generation mismatch means the wake raced a completed task whose
        // slot was (or may be) reused — skip it.
        let taken = {
            let mut tasks = self.inner.tasks.borrow_mut();
            match tasks.slots.get_mut(idx) {
                Some(slot) if slot.gen == gen => match &slot.task {
                    Some(t) if unless_queued && t.node.queued.get() => None,
                    _ => slot.task.take(),
                },
                _ => None,
            }
        };
        let Some(mut task) = taken else { return };
        task.node.queued.set(false);
        self.inner
            .events_processed
            .set(self.inner.events_processed.get() + 1);
        // Tell the sanitizer which task's accesses are about to happen
        // (restored after the poll: destructors and `fire` can nest).
        let san_prev = self
            .inner
            .san
            .as_ref()
            .map(|s| s.task_started(key, task.name.as_str()));
        let mut cx = Context::from_waker(&task.waker);
        match task.fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                if let Some(s) = &self.inner.san {
                    s.task_finished();
                }
                self.inner.live.set(self.inner.live.get() - 1);
                self.inner.tasks.borrow_mut().retire(idx as u32);
                // `task` (and its future) drop here, outside any borrow:
                // destructors may re-enter the executor (cancel timers,
                // release resources, even spawn).
                drop(task);
            }
            Poll::Pending => {
                self.inner.tasks.borrow_mut().slots[idx].task = Some(task);
            }
        }
        if let (Some(s), Some(prev)) = (&self.inner.san, san_prev) {
            s.task_suspended(prev);
        }
    }

    /// Wake `waker` from the run loop, with the ready queue empty. When
    /// the waker is one of ours (it always is for futures of this crate),
    /// a wake would enqueue the task and the next loop iteration would
    /// immediately dequeue it, so poll directly and skip the round trip.
    /// Foreign wakers (combinators wrapping their own) get a plain wake.
    pub(crate) fn fire(&self, waker: &Waker) {
        match own_key(waker) {
            Some(key) => self.poll_task(key, true),
            None => waker.wake_by_ref(),
        }
    }

    /// Fire one timer entry: poll its task, wake its foreign waker, or
    /// run its leg in place.
    fn fire_key(&self, key: u64) {
        if key & SIDE == 0 {
            self.poll_task(key, true);
            return;
        }
        let side = self.inner.timers.borrow_mut().take_side(key);
        match side {
            Side::Waker(waker) => waker.wake(),
            Side::Leg(leg) => Leg::run(leg),
        }
    }

    /// Run until the cumulative event count ([`RunStats::events`]) reaches
    /// `target_events` or nothing can make progress, whichever comes
    /// first. `Paused` means the schedule still has work: the simulation
    /// is at a well-defined cut point (pending timer-batch entries are
    /// preserved) from which a later `run_events`/[`Sim::run`] call
    /// continues exactly as if never interrupted — the property the
    /// snapshot/restore machinery (`bfly-snap`, DESIGN.md §16) is built
    /// on. The target is *cumulative*, counted from simulation start, so
    /// restore paths can fast-forward to an absolute snapshot cut.
    pub fn run_events(&self, target_events: u64) -> StepOutcome {
        // lint: allow(determinism): wall time feeds only RunStats telemetry (events/sec); no simulation state ever reads it
        let wall_start = Instant::now();
        // Entries at the current instant, drained one at a time with the
        // ready queue emptied in between. Safe to hold across polls: once
        // the first entry fires, `now` equals the batch instant, so no new
        // timer can be registered earlier than (or at the same instant
        // with a smaller seq than) the remaining entries. Taken out of
        // `inner` for the loop (hot path on locals) and put back — with
        // any unfired remainder — on exit.
        let mut batch: Vec<TimerEntry> = std::mem::take(&mut *self.inner.batch.borrow_mut());
        let mut batch_pos = self.inner.batch_pos.replace(0);
        let outcome = loop {
            if self.inner.events_processed.get() >= target_events {
                break StepOutcome::Paused;
            }
            if let Some(key) = self.inner.ready.pop() {
                self.poll_task(key, false);
                continue;
            }
            if batch_pos == batch.len() {
                batch.clear();
                batch_pos = 0;
                self.inner
                    .timers
                    .borrow_mut()
                    .pop_batch(self.inner.now.get(), &mut batch);
                if batch.is_empty() {
                    break StepOutcome::Quiescent; // no ready work, no timers
                }
            }
            let entry = batch[batch_pos];
            batch_pos += 1;
            debug_assert!(entry.at >= self.inner.now.get(), "time went backwards");
            self.inner.now.set(entry.at);
            self.fire_key(entry.key);
        };
        *self.inner.batch.borrow_mut() = batch;
        self.inner.batch_pos.set(batch_pos);
        self.inner
            .wall_ns
            .set(self.inner.wall_ns.get() + wall_start.elapsed().as_nanos() as u64);
        // Quiescence orders everything the tasks did before subsequent
        // host-side code (stuck tasks included: they will never run again).
        // Notified once per quiescence, not once per run call.
        if outcome == StepOutcome::Quiescent && !self.inner.quiesce_notified.get() {
            self.inner.quiesce_notified.set(true);
            if let Some(s) = &self.inner.san {
                s.run_quiesced();
            }
        }
        outcome
    }

    /// Run until all tasks complete or nothing can make progress.
    pub fn run(&self) -> RunStats {
        let _ = self.run_events(u64::MAX);
        let outcome = if self.inner.live.get() == 0 {
            RunOutcome::Completed
        } else {
            let stuck = self
                .inner
                .tasks
                .borrow()
                .slots
                .iter()
                .filter_map(|s| s.task.as_ref())
                .map(|t| t.name.as_str().to_string())
                .collect();
            RunOutcome::Deadlock { stuck }
        };
        RunStats {
            end_time: self.now(),
            events: self.inner.events_processed.get(),
            tasks: self.inner.tasks_spawned.get(),
            outcome,
            wall: Duration::from_nanos(self.inner.wall_ns.get()),
        }
    }

    /// Non-panicking [`Sim::run`]: `Err(SimError::Deadlock)` when live
    /// tasks remain that nothing can wake, `Ok(stats)` otherwise.
    pub fn try_run(&self) -> Result<RunStats, SimError> {
        let stats = self.run();
        match stats.outcome {
            RunOutcome::Completed => Ok(stats),
            RunOutcome::Deadlock { ref stuck } => Err(SimError::Deadlock {
                stuck: stuck.clone(),
            }),
        }
    }

    /// Spawn `fut`, run the simulation to quiescence, and return the future's
    /// result. Panics if the simulation deadlocks before the future resolves;
    /// use [`Sim::try_block_on`] for a typed error instead.
    pub fn block_on<T: 'static, F>(&self, fut: F) -> T
    where
        F: Future<Output = T> + 'static,
    {
        match self.try_block_on(fut) {
            Ok(v) => v,
            Err(e) => panic!("simulation ended without completing block_on future: {e}"),
        }
    }

    /// Non-panicking [`Sim::block_on`]: spawn `fut`, run to quiescence,
    /// and return its result, or a [`SimError`] describing why it never
    /// resolved.
    pub fn try_block_on<T: 'static, F>(&self, fut: F) -> Result<T, SimError>
    where
        F: Future<Output = T> + 'static,
    {
        let mut handle = self.spawn_static("block_on", fut);
        let stats = self.run();
        match handle.try_take() {
            Some(v) => Ok(v),
            None => match stats.outcome {
                RunOutcome::Deadlock { stuck } => Err(SimError::Deadlock { stuck }),
                RunOutcome::Completed => Err(SimError::Incomplete),
            },
        }
    }

    /// Number of live (unfinished) tasks.
    pub fn live_tasks(&self) -> usize {
        self.inner.live.get()
    }

    /// A deadline `dur` from now.
    pub fn deadline(&self, dur: SimTime) -> Deadline {
        Deadline {
            at: self.now().saturating_add(dur),
        }
    }

    /// Race `fut` against a timer: `Ok(value)` if it resolves within
    /// `dur`, `Err(Elapsed)` otherwise (the inner future is dropped).
    pub fn timeout<F: Future>(&self, dur: SimTime, fut: F) -> Timeout<F> {
        self.timeout_at(self.deadline(dur), fut)
    }

    /// [`Sim::timeout`] against an absolute [`Deadline`].
    pub fn timeout_at<F: Future>(&self, deadline: Deadline, fut: F) -> Timeout<F> {
        Timeout {
            delay: self.sleep_until(deadline.at),
            deadline,
            fut,
        }
    }

    /// Spawn a watchdog: unless [`Watchdog::disarm`] is called within
    /// `dur`, `on_expire` runs at the deadline. Disarming releases the
    /// watchdog task immediately (it does not hold the clock hostage).
    pub fn watchdog(
        &self,
        dur: SimTime,
        name: &str,
        on_expire: impl FnOnce(&Sim) + 'static,
    ) -> Watchdog {
        let gate = crate::sync::Gate::new();
        let g = gate.clone();
        let s = self.clone();
        self.spawn_named(name, async move {
            if s.timeout(dur, g.wait()).await.is_err() {
                on_expire(&s);
            }
        });
        Watchdog { gate }
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

/// Timer future returned by [`Sim::sleep`].
pub struct Delay {
    sim: Rc<Inner>,
    at: SimTime,
    /// `seq` of the registered timer entry, if any.
    registered: Option<u64>,
    fired: bool,
}

impl Future for Delay {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now.get() >= self.at {
            self.fired = true;
            return Poll::Ready(());
        }
        if self.registered.is_none() {
            self.registered = Some(self.sim.schedule_wake(self.at, cx.waker()));
        }
        Poll::Pending
    }
}

impl Drop for Delay {
    fn drop(&mut self) {
        // Abandoned before firing (e.g. a timeout whose future won the
        // race): record the entry as dead so the clock never advances to
        // it. If the entry already popped (the task moved on without
        // re-polling this `Delay`), the record is stale and gets pruned on
        // a later pop — see [`Timers::take_cancelled`].
        if !self.fired {
            if let Some(seq) = self.registered {
                self.sim.cancel(self.at, seq);
            }
        }
    }
}

/// An absolute point in virtual time used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    at: SimTime,
}

impl Deadline {
    /// Deadline at an absolute virtual time.
    pub fn at(at: SimTime) -> Deadline {
        Deadline { at }
    }

    /// The absolute expiry time.
    pub fn when(&self) -> SimTime {
        self.at
    }

    /// True once the sim clock has reached the deadline.
    pub fn expired(&self, sim: &Sim) -> bool {
        sim.now() >= self.at
    }

    /// Time left before expiry (`None` if already expired).
    pub fn remaining(&self, sim: &Sim) -> Option<SimTime> {
        self.at.checked_sub(sim.now()).filter(|&r| r > 0)
    }
}

/// Error returned by [`Sim::timeout`] when the timer wins the race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed {
    /// The deadline that expired.
    pub deadline: Deadline,
}

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline {} expired", self.deadline.at)
    }
}

impl std::error::Error for Elapsed {}

/// Future returned by [`Sim::timeout`] / [`Sim::timeout_at`].
pub struct Timeout<F> {
    delay: Delay,
    deadline: Deadline,
    fut: F,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: standard structural pinning; `fut` is never moved out of
        // `this`, and `Timeout` has no Drop impl of its own.
        let this = unsafe { self.get_unchecked_mut() };
        let fut = unsafe { Pin::new_unchecked(&mut this.fut) };
        if let Poll::Ready(v) = fut.poll(cx) {
            return Poll::Ready(Ok(v));
        }
        if Pin::new(&mut this.delay).poll(cx).is_ready() {
            return Poll::Ready(Err(Elapsed {
                deadline: this.deadline,
            }));
        }
        Poll::Pending
    }
}

/// Handle returned by [`Sim::watchdog`].
pub struct Watchdog {
    gate: crate::sync::Gate,
}

impl Watchdog {
    /// Stand the watchdog down; its expiry action will not run.
    pub fn disarm(&self) {
        self.gate.open();
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

struct JoinState<T> {
    result: RefCell<Option<T>>,
    waiters: RefCell<Vec<Waker>>,
    /// Lazily-assigned sanitizer sync-object id (0 = unassigned): task
    /// completion releases into it, join resolution acquires from it.
    san_id: Cell<u64>,
}

/// The executor-facing wrapper around a spawned future: forwards polls,
/// captures the result into the task's [`JoinState`], and wakes joiners.
/// A manual future (not an `async` block) so a task poll costs one state
/// machine dispatch, not two.
struct Wrapped<T, F> {
    fut: F,
    state: Rc<JoinState<T>>,
    _sim: Rc<Inner>,
}

impl<T, F: Future<Output = T>> Future for Wrapped<T, F> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: standard structural pinning; `fut` is never moved out of
        // `this`, and `Wrapped` has no Drop impl of its own.
        let this = unsafe { self.get_unchecked_mut() };
        let fut = unsafe { Pin::new_unchecked(&mut this.fut) };
        match fut.poll(cx) {
            Poll::Ready(out) => {
                *this.state.result.borrow_mut() = Some(out);
                if let Some(s) = &this._sim.san {
                    s.sync_release(s.sync_id(&this.state.san_id));
                }
                for w in this.state.waiters.borrow_mut().drain(..) {
                    w.wake();
                }
                Poll::Ready(())
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Await the result of a spawned task, or poll for it after [`Sim::run`].
pub struct JoinHandle<T> {
    state: Rc<JoinState<T>>,
}

impl<T> JoinHandle<T> {
    /// Take the result if the task has completed.
    pub fn try_take(&mut self) -> Option<T> {
        let v = self.state.result.borrow_mut().take();
        if v.is_some() {
            bfly_san::if_on(|s| s.sync_acquire(s.sync_id(&self.state.san_id)));
        }
        v
    }

    /// True once the task has completed (and the result not yet taken).
    pub fn is_done(&self) -> bool {
        self.state.result.borrow().is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        if let Some(v) = self.state.result.borrow_mut().take() {
            bfly_san::if_on(|s| s.sync_acquire(s.sync_id(&self.state.san_id)));
            return Poll::Ready(v);
        }
        self.state.waiters.borrow_mut().push(cx.waker().clone());
        Poll::Pending
    }
}

/// Await every handle in a vector, returning results in order.
pub async fn join_all<T: 'static>(handles: Vec<JoinHandle<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

// ---------------------------------------------------------------------------
// Raw state capture for the snapshot layer (`crate::snap`).

/// Every piece of deterministic scheduler state, as plain data: no wakers,
/// no futures, and deliberately no wall-clock (`wall_ns` is excluded so
/// snapshot bytes are a pure function of simulated state — enforced by the
/// `cargo xtask lint` snapshot-purity gate on the formatting layer).
/// Futures and wakers are re-derived on restore by rebuilding the program
/// and fast-forwarding (DESIGN.md §16).
pub(crate) struct CoreState {
    pub now: SimTime,
    pub seq: u64,
    pub live: usize,
    pub events: u64,
    pub spawned: u64,
    pub rng_state: u64,
    /// `(index, generation, occupied, name)` per slab slot, index order.
    pub slots: Vec<(u32, u32, bool, String)>,
    /// Free-list contents in stack order (reuse order matters).
    pub free: Vec<u32>,
    /// Ready-queue task keys in queue order.
    pub ready: Vec<u64>,
    /// Unfired `(at, seq)` of the in-flight timer batch, fire order.
    pub batch: Vec<(SimTime, u64)>,
    /// Every pending timer as `(at, seq)`, wheel and overflow heap alike,
    /// sorted, with cancelled entries removed.
    pub timers: Vec<(SimTime, u64)>,
}

impl Sim {
    pub(crate) fn core_state(&self) -> CoreState {
        let inner = &*self.inner;
        let tasks = inner.tasks.borrow();
        let slots = tasks
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let name = s
                    .task
                    .as_ref()
                    .map(|t| t.name.as_str().to_string())
                    .unwrap_or_default();
                (i as u32, s.gen, s.task.is_some(), name)
            })
            .collect();
        let timers = inner.timers.borrow();
        // Cancelled entries are pruned *lazily* (during pops), so whether a
        // dead `(at, seq)` still physically sits in the wheel/heap depends
        // on how far draining got — scratch state, not schedule state. So
        // is the split between wheel and overflow heap: which one an entry
        // sits in depends on the horizon when it was registered. The
        // canonical capture is the live set as one `(at, seq)`-sorted
        // list: entries minus their matching cancellation records. (A
        // record with no matching entry is stale — its entry already
        // fired — and matches nothing here.)
        let dead: BTreeSet<(SimTime, u64)> = timers.cancelled.iter().map(|r| r.0).collect();
        let mut pending: Vec<(SimTime, u64)> = timers
            .wheel
            .iter()
            .flat_map(Bucket::live)
            .chain(timers.overflow.iter().map(|Reverse(e)| e))
            .map(|e| (e.at, e.seq))
            .filter(|k| !dead.contains(k))
            .collect();
        pending.sort_unstable();
        let batch_ref = inner.batch.borrow();
        let batch = batch_ref[inner.batch_pos.get()..]
            .iter()
            .map(|e| (e.at, e.seq))
            .collect();
        CoreState {
            now: inner.now.get(),
            seq: inner.seq.get(),
            live: inner.live.get(),
            events: inner.events_processed.get(),
            spawned: inner.tasks_spawned.get(),
            rng_state: inner.rng.borrow().state(),
            slots,
            free: tasks.free.clone(),
            ready: inner.ready.q.borrow().iter().copied().collect(),
            batch,
            timers: pending,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell as StdCell;

    #[test]
    fn block_on_returns_value() {
        let sim = Sim::new();
        let v = sim.block_on(async { 40 + 2 });
        assert_eq!(v, 42);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Sim::new();
        let s2 = sim.clone();
        let t = sim.block_on(async move {
            s2.sleep(1_000).await;
            s2.sleep(2_000).await;
            s2.now()
        });
        assert_eq!(t, 3_000);
        assert_eq!(sim.now(), 3_000);
    }

    #[test]
    fn tasks_interleave_in_time_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u64, &str)>>> = Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("c", 300u64), ("a", 100), ("b", 200)] {
            let s = sim.clone();
            let l = log.clone();
            sim.spawn(async move {
                s.sleep(delay).await;
                l.borrow_mut().push((s.now(), name));
            });
        }
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Completed);
        assert_eq!(*log.borrow(), vec![(100, "a"), (200, "b"), (300, "c")]);
    }

    #[test]
    fn join_handle_awaits_child() {
        let sim = Sim::new();
        let s = sim.clone();
        let v = sim.block_on(async move {
            let h = s.spawn({
                let s = s.clone();
                async move {
                    s.sleep(500).await;
                    7u32
                }
            });
            h.await * 2
        });
        assert_eq!(v, 14);
    }

    #[test]
    fn deadlock_is_detected() {
        let sim = Sim::new();
        let gate = crate::sync::Gate::new();
        let g = gate.clone();
        sim.spawn_named("stuck-waiter", async move {
            g.wait().await; // never opened
        });
        let stats = sim.run();
        match stats.outcome {
            RunOutcome::Deadlock { stuck } => assert_eq!(stuck, vec!["stuck-waiter"]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn zero_sleep_yields() {
        let sim = Sim::new();
        let hits = Rc::new(StdCell::new(0u32));
        let h1 = hits.clone();
        let s1 = sim.clone();
        sim.spawn(async move {
            for _ in 0..10 {
                h1.set(h1.get() + 1);
                s1.yield_now().await;
            }
        });
        sim.run();
        assert_eq!(hits.get(), 10);
        assert_eq!(sim.now(), 0, "yield must not advance time");
    }

    #[test]
    fn yield_now_lets_other_tasks_run() {
        // A task spin-waiting on a flag with yield_now must observe a flag
        // set by a sibling task spawned *after* it started polling.
        let sim = Sim::new();
        let flag = Rc::new(StdCell::new(false));
        let f1 = flag.clone();
        let s1 = sim.clone();
        let mut waiter = sim.spawn(async move {
            let mut spins = 0u32;
            while !f1.get() {
                s1.yield_now().await;
                spins += 1;
                assert!(spins < 100, "yield_now failed to schedule the setter");
            }
            spins
        });
        let f2 = flag.clone();
        sim.spawn(async move {
            f2.set(true);
        });
        sim.run();
        assert!(waiter.try_take().unwrap() >= 1);
    }

    #[test]
    fn many_tasks_complete() {
        let sim = Sim::new();
        let total = Rc::new(StdCell::new(0u64));
        for i in 0..1_000u64 {
            let s = sim.clone();
            let t = total.clone();
            sim.spawn(async move {
                s.sleep(i % 17).await;
                t.set(t.get() + i);
            });
        }
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Completed);
        assert_eq!(total.get(), 999 * 1000 / 2);
        assert_eq!(stats.tasks, 1_000);
    }

    #[test]
    fn try_block_on_reports_deadlock() {
        let sim = Sim::new();
        let gate = crate::sync::Gate::new();
        let g = gate.clone();
        let err = sim
            .try_block_on(async move {
                g.wait().await; // never opened
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { stuck } => assert_eq!(stuck, vec!["block_on"]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn timeout_returns_value_in_time() {
        let sim = Sim::new();
        let s = sim.clone();
        let v = sim.block_on(async move {
            let inner = s.clone();
            s.timeout(1_000, async move {
                inner.sleep(500).await;
                9u32
            })
            .await
        });
        assert_eq!(v, Ok(9));
    }

    #[test]
    fn timeout_expires_and_drops_future() {
        let sim = Sim::new();
        let s = sim.clone();
        let res = sim.block_on(async move {
            let inner = s.clone();
            s.timeout(1_000, async move {
                inner.sleep(5_000).await;
                9u32
            })
            .await
        });
        assert!(res.is_err());
        assert_eq!(res.unwrap_err().deadline.when(), 1_000);
        // The loser's 5000ns timer was cancelled: the clock stops at the
        // deadline, not at the abandoned sleep.
        assert_eq!(sim.now(), 1_000);
    }

    #[test]
    fn deadline_tracks_clock() {
        let sim = Sim::new();
        let d = sim.deadline(250);
        assert!(!d.expired(&sim));
        assert_eq!(d.remaining(&sim), Some(250));
        let s = sim.clone();
        sim.block_on(async move { s.sleep(300).await });
        assert!(d.expired(&sim));
        assert_eq!(d.remaining(&sim), None);
    }

    #[test]
    fn watchdog_fires_when_not_disarmed() {
        let sim = Sim::new();
        let fired = Rc::new(StdCell::new(false));
        let f = fired.clone();
        sim.watchdog(400, "wd", move |s| {
            assert_eq!(s.now(), 400);
            f.set(true);
        });
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Completed);
        assert!(fired.get());
    }

    #[test]
    fn disarmed_watchdog_stays_quiet_and_releases_clock() {
        let sim = Sim::new();
        let fired = Rc::new(StdCell::new(false));
        let f = fired.clone();
        let wd = sim.watchdog(10_000, "wd", move |_| f.set(true));
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(50).await;
            wd.disarm();
        });
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Completed);
        assert!(!fired.get());
        assert_eq!(stats.end_time, 50, "disarm must cancel the watchdog timer");
    }

    #[test]
    fn determinism_same_seed_same_end_time() {
        fn run_once(seed: u64) -> (u64, u64) {
            let sim = Sim::with_seed(seed);
            for i in 0..100u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    let d = s.with_rng(|r| r.jitter(1_000, 20));
                    s.sleep(d + i).await;
                });
            }
            let stats = sim.run();
            (stats.end_time, stats.events)
        }
        assert_eq!(run_once(11), run_once(11));
        assert_ne!(run_once(11).0, run_once(12).0);
    }

    #[test]
    fn slab_slots_are_reused_across_spawns() {
        let sim = Sim::new();
        // Sequential generations of tasks: each wave completes before the
        // next spawns, so the slab should stay at the high-water mark of
        // one wave rather than growing per spawn.
        let s = sim.clone();
        sim.block_on(async move {
            for _wave in 0..10 {
                let hs: Vec<_> = (0..8)
                    .map(|i| {
                        let s2 = s.clone();
                        s.spawn(async move { s2.sleep(10 + i).await })
                    })
                    .collect();
                join_all(hs).await;
            }
        });
        assert!(
            sim.inner.tasks.borrow().slots.len() <= 10,
            "slab grew to {} slots for 81 sequential tasks",
            sim.inner.tasks.borrow().slots.len()
        );
    }

    #[test]
    fn stale_waker_does_not_poll_slot_reuser() {
        // Capture a waker inside a task, let the task finish, reuse its
        // slot, then fire the stale waker: the generation check must make
        // it a no-op (no spurious poll of the unrelated new task).
        struct GrabWaker(Rc<RefCell<Option<Waker>>>);
        impl Future for GrabWaker {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                *self.0.borrow_mut() = Some(cx.waker().clone());
                Poll::Ready(())
            }
        }
        let sim = Sim::new();
        let stash: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let st = stash.clone();
        sim.spawn(async move {
            GrabWaker(st).await;
        });
        let before = sim.run();
        assert_eq!(before.outcome, RunOutcome::Completed);

        // New task reuses the retired slot; it sleeps so it stays live.
        let s = sim.clone();
        sim.spawn(async move { s.sleep(1_000).await });
        let stale = stash.borrow_mut().take().unwrap();
        stale.wake(); // must NOT enqueue a poll of the new task
        let after = sim.run();
        assert_eq!(after.outcome, RunOutcome::Completed);
        // 1 initial poll + 1 wake after the sleep; a spurious stale-waker
        // poll would make it 3.
        assert_eq!(after.events, before.events + 2);
    }

    #[test]
    fn far_future_timers_fire_in_order_across_wheel_overflow() {
        // Mix near-horizon (wheel) and far-future (overflow heap) sleeps,
        // including one beyond-horizon timer that becomes "near" only
        // after time advances: global (at, seq) order must hold.
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for at in [
            5_000u64,      // wheel
            2_000_000,     // past the ~1ms horizon: overflow
            900_000,       // wheel
            1_500_000,     // overflow at t=0, near once now>0.5ms
            2_000_000 + 1, // overflow, adjacent instant
        ] {
            let s = sim.clone();
            let l = log.clone();
            sim.spawn(async move {
                s.sleep_until(at).await;
                l.borrow_mut().push(s.now());
            });
        }
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Completed);
        assert_eq!(
            *log.borrow(),
            vec![5_000, 900_000, 1_500_000, 2_000_000, 2_000_001]
        );
    }

    /// A combinator that polls its inner future with a waker of its own
    /// (relaying wakes to the task's), so the executor sees a foreign
    /// waker.
    pub(crate) struct Foreign<F>(pub(crate) Pin<Box<F>>);

    struct Relay(Waker);

    impl std::task::Wake for Relay {
        fn wake(self: std::sync::Arc<Self>) {
            self.0.wake_by_ref();
        }
    }

    impl<F: Future> Future for Foreign<F> {
        type Output = F::Output;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
            let w = Waker::from(std::sync::Arc::new(Relay(cx.waker().clone())));
            self.0.as_mut().poll(&mut Context::from_waker(&w))
        }
    }

    #[test]
    fn foreign_waker_timers_fire_cancel_and_free_their_side_slots() {
        // Timers registered under a foreign waker live in the side slab;
        // fired and cancelled entries alike give the slot back.
        let sim = Sim::new();
        let s = sim.clone();
        let expired = sim.block_on(async move {
            let mut expired = 0;
            for i in 0..50u64 {
                let inner = s.clone();
                // Odd rounds lose the race: the 1 000 ns sleep is cancelled.
                let budget = if i % 2 == 0 { 2_000 } else { 100 };
                let race = s.timeout(budget, async move { inner.sleep(1_000).await });
                if Foreign(Box::pin(race)).await.is_err() {
                    expired += 1;
                }
            }
            expired
        });
        assert_eq!(expired, 25);
        assert_eq!(
            sim.now(),
            25 * 1_000 + 25 * 100,
            "a cancelled timer advanced the clock"
        );
        let timers = sim.inner.timers.borrow();
        assert!(timers.side.iter().all(Option::is_none), "side slot leaked");
        assert!(
            timers.side.len() <= 4,
            "side slab grew to {}",
            timers.side.len()
        );
    }

    #[test]
    fn same_instant_batch_fires_in_registration_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..16u32 {
            let s = sim.clone();
            let l = log.clone();
            sim.spawn(async move {
                s.sleep_until(7_777).await; // all at the same instant
                l.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..16).collect::<Vec<_>>());
    }

    /// A reference model of [`Timers`]: one binary heap of pending
    /// `(at, seq)`. A batch is every live entry at the earliest pending
    /// instant, in `seq` order; cancelling an entry that already popped
    /// changes nothing.
    #[derive(Default)]
    struct HeapModel {
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
        popped: BTreeSet<(SimTime, u64)>,
        dead: BTreeSet<(SimTime, u64)>,
    }

    impl HeapModel {
        fn cancel(&mut self, k: (SimTime, u64)) {
            if !self.popped.contains(&k) {
                self.dead.insert(k);
            }
        }

        fn pop_batch(&mut self) -> Vec<(SimTime, u64)> {
            let mut out: Vec<(SimTime, u64)> = Vec::new();
            while let Some(&Reverse(k)) = self.heap.peek() {
                if out.first().is_some_and(|f| f.0 != k.0) {
                    break;
                }
                self.heap.pop();
                self.popped.insert(k);
                if !self.dead.remove(&k) {
                    out.push(k);
                }
            }
            out
        }
    }

    /// `Timers` against [`HeapModel`] under the run loop's protocol:
    /// fire a batch one entry at a time (setting `now`), registering and
    /// cancelling between entries, so a step that stops mid-batch is a
    /// `run_events` pause inside it.
    struct TimersHarness {
        t: Timers,
        model: HeapModel,
        now: SimTime,
        seq: u64,
        registered: Vec<(SimTime, u64)>,
        batch: Vec<TimerEntry>,
        pos: usize,
        peak_occupied: usize,
    }

    impl TimersHarness {
        fn new() -> Self {
            TimersHarness {
                t: Timers::new(),
                model: HeapModel::default(),
                now: 0,
                seq: 0,
                registered: Vec::new(),
                batch: Vec::new(),
                pos: 0,
                peak_occupied: 0,
            }
        }

        fn insert(&mut self, at: SimTime) {
            let e = TimerEntry {
                at,
                seq: self.seq,
                key: 0,
            };
            self.seq += 1;
            self.t.insert(self.now, e);
            self.model.heap.push(Reverse((at, e.seq)));
            self.registered.push((at, e.seq));
            let occupied = self.t.occupied.iter().map(|w| w.count_ones()).sum::<u32>();
            self.peak_occupied = self.peak_occupied.max(occupied as usize);
        }

        fn cancel(&mut self, k: (SimTime, u64)) {
            self.t.cancelled.push(Reverse(k));
            self.model.cancel(k);
        }

        /// Fire up to `n` entries; false once both queues are drained.
        fn step(&mut self, n: usize) -> Result<bool, TestCaseError> {
            for _ in 0..n {
                if self.pos == self.batch.len() {
                    self.batch.clear();
                    self.pos = 0;
                    self.t.pop_batch(self.now, &mut self.batch);
                    let got: Vec<(SimTime, u64)> =
                        self.batch.iter().map(|e| (e.at, e.seq)).collect();
                    prop_assert_eq!(got, self.model.pop_batch());
                    if self.batch.is_empty() {
                        return Ok(false);
                    }
                }
                self.now = self.batch[self.pos].at;
                self.pos += 1;
            }
            Ok(true)
        }

        /// Buffers the wheel keeps: those of occupied buckets plus the
        /// spare pool.
        fn buffers(&self) -> usize {
            let held = self.t.wheel.iter().filter(|b| b.entries.capacity() > 0);
            held.count() + self.t.spare.len()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Batches match the heap model entry for entry, across every
        /// kind of delay the wheel routes differently, cancellations of
        /// pending and already-fired entries, and pauses inside a batch;
        /// the spare pool stays bounded by the buckets occupied at once.
        #[test]
        fn timers_match_a_heap_model(
            ops in proptest::collection::vec((0u8..12, any::<u64>(), any::<u64>()), 1..400)
        ) {
            let mut d = TimersHarness::new();
            for (op, a, b) in ops {
                let now = d.now;
                let at = match op {
                    0 => Some(now),
                    1 => Some(now + a % 64),
                    2 => Some(now + a % 10_000),
                    // A repeated instant: one already registered, if not past.
                    3 => d.registered.last().map(|&(at, _)| at.max(now)),
                    4 => Some(now + 100 * (a % 400)),
                    // Within a bucket of the horizon: -1, 0 or +1.
                    5 => {
                        let bucket = (now >> WHEEL_BITS) + WHEEL_SLOTS as u64 + a % 3 - 1;
                        Some((bucket << WHEEL_BITS) + b % (1 << WHEEL_BITS))
                    }
                    6 => Some(now + 1_000_000 + a % 20_000_000),
                    7 | 8 => {
                        if !d.registered.is_empty() {
                            let k = d.registered[(a % d.registered.len() as u64) as usize];
                            d.cancel(k);
                        }
                        None
                    }
                    _ => {
                        d.step(1 + (a % 6) as usize)?;
                        None
                    }
                };
                if let Some(at) = at {
                    d.insert(at);
                }
            }
            while d.step(64)? {}
            prop_assert_eq!(d.t.wheel_len, 0);
            prop_assert!(d.t.overflow.is_empty());
            prop_assert!(d.t.wheel.iter().all(|b| b.entries.capacity() == 0));
            prop_assert!(
                d.buffers() <= 4 * d.peak_occupied.max(1),
                "{} buffers kept for a peak of {} occupied buckets",
                d.buffers(),
                d.peak_occupied
            );
        }
    }

    /// The machine model's legs as Figure 5 schedules them — a remote
    /// reference (2 300 ns out, 500 or 1 000 ns of memory service,
    /// 1 200 ns back), local references of 300 and 500 ns, and the 20 µs
    /// compute step — from 128 tasks staggered 100 ns apart: every occupied
    /// bucket holds one instant, so every insert is a push, and the ring
    /// spans every leg, so the overflow heap stays empty.
    #[test]
    fn fig5_legs_put_one_instant_in_each_bucket() {
        const LEGS: [SimTime; 6] = [2_300, 1_000, 1_200, 300, 500, 20_000];
        let mut t = Timers::new();
        let mut rng = SplitMix64::new(7);
        let mut seq = 0;
        let mut register = |t: &mut Timers, now: SimTime, at: SimTime, key: u64| {
            t.insert(now, TimerEntry { at, seq, key });
            seq += 1;
        };
        for task in 0..128u64 {
            register(&mut t, 0, task * 100, task);
        }
        let (mut now, mut fired, mut batch) = (0, 0u64, Vec::new());
        while fired < 100_000 {
            t.pop_batch(now, &mut batch);
            for e in batch.drain(..) {
                now = e.at;
                fired += 1;
                let leg = LEGS[rng.next_below(LEGS.len() as u64) as usize];
                register(&mut t, now, now + leg, e.key);
            }
            assert!(t.overflow.is_empty(), "a leg overflowed at {now}");
            for b in t.wheel.iter().filter(|b| !b.live().is_empty()) {
                let first = b.live()[0].at;
                assert!(
                    b.live().iter().all(|e| e.at == first),
                    "a bucket holds two instants at {now}"
                );
            }
        }
    }

    #[test]
    fn run_stats_expose_wall_time_and_throughput() {
        let sim = Sim::new();
        for i in 0..100u64 {
            let s = sim.clone();
            sim.spawn(async move { s.sleep(i).await });
        }
        let stats = sim.run();
        assert!(stats.wall > Duration::ZERO);
        assert!(stats.events_per_sec() > 0.0);
        // Equality ignores wall time.
        let mut other = stats.clone();
        other.wall += Duration::from_secs(5);
        assert_eq!(stats, other);
    }
}
