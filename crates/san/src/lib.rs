//! # bfly-san — a deterministic race & lock-order sanitizer
//!
//! Dynamic analysis for *simulated* Butterfly programs, in the spirit of
//! TSan and Eraser but aimed at the simulated `GAddr` space instead of
//! host memory (see DESIGN.md §13):
//!
//! * **Happens-before race detection** — every sim task (plus the host
//!   thread driving the simulation) carries a vector clock. Plain
//!   `read/write` PNC operations update FastTrack-style shadow words
//!   (4-byte granularity) and report an access pair as a race when
//!   neither access happens-before the other. Atomic operations
//!   (`fetch_add`, `test_and_set`, `atomic_store`) act as seq-cst
//!   synchronization: the word's clock and the task's clock join both
//!   ways, which models lock hand-off through Chrysalis spin locks for
//!   free. Host-level sync primitives (spawn/join, `Gate`, `Channel`,
//!   `Promise`, `WaitQueue`) and SMP message envelopes induce the
//!   remaining edges.
//! * **Eraser-style lockset checking** — each shadow word tracks the
//!   candidate lockset (locks held on *every* access so far) through the
//!   classic virgin → exclusive → shared → shared-modified state machine.
//!   Because the codebase leans on barrier-style synchronization (Us
//!   generations, SMP messages) that Eraser cannot see, an emptied
//!   lockset is reported as an **advisory warning**, not a race: the
//!   verdict that gates CI is the happens-before one. Locksets still
//!   feed attribution: every race report carries the locks held at both
//!   accesses.
//! * **Lock-order graph** — `SpinLock` acquire/release maintain a
//!   per-task held-set and a global `A → B` edge set (`B` acquired while
//!   holding `A`); strongly-connected components of that graph are
//!   reported as potential deadlocks even when the schedule never
//!   actually deadlocked.
//!
//! The sanitizer follows the `bfly-probe` playbook exactly: it is a
//! cheap `Rc` handle installed ambiently (thread-local) by `BenchCli
//! --sanitize`, auto-attached by `Sim`/`Machine` constructors, strictly
//! observational (a sanitized run is bit-identical to a bare run), and
//! close to free when disabled (one `Cell<bool>` test at each hook).
//!
//! This crate is a leaf: it depends on nothing, and everything from
//! `bfly-sim` upward reports into it. Addresses are raw
//! `(node, offset)` pairs so the crate does not need `GAddr`.

// This crate needs no unsafe; keep it that way.
#![forbid(unsafe_code)]
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

use bfly_json::quote;

/// Dense thread id of the host thread (code running outside any sim task).
pub const HOST_TID: u32 = 0;
/// Pseudo node id reported for host-side (`peek`/`poke`) accesses.
pub const HOST_NODE: u16 = u16::MAX;

// ---------------------------------------------------------------------------
// Vector clocks.

#[derive(Clone, Default, Debug)]
struct VClock(Vec<u32>);

impl VClock {
    #[inline]
    fn get(&self, t: u32) -> u32 {
        self.0.get(t as usize).copied().unwrap_or(0)
    }

    fn bump(&mut self, t: u32) {
        let i = t as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            if *b > *a {
                *a = *b;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-task state.

struct ThreadState {
    vc: VClock,
    name: String,
    /// Interned context-frame stack (`push_frame`/`pop_frame`).
    frames: Vec<u32>,
    /// Interned `name[/frame…]` string for attribution, recomputed on
    /// frame push/pop (accesses are hot, frame changes are not).
    site: u32,
    /// Digit-normalized variant of `site` used to deduplicate findings
    /// across sibling workers ("worker 3" and "worker 5" collapse).
    dsite: u32,
    /// Lock indices currently held, in acquisition order.
    locks: Vec<u32>,
    /// Interned sorted lockset, kept in sync with `locks`.
    lockset: u32,
    finished: bool,
}

/// One recorded access in a shadow word.
#[derive(Clone, Copy, Debug)]
struct Access {
    tid: u32,
    epoch: u32,
    site: u32,
    dsite: u32,
    lockset: u32,
    /// Node the access was issued *from* (`HOST_NODE` for peek/poke).
    from: u16,
}

/// Eraser state machine values.
const ER_VIRGIN: u8 = 0;
const ER_EXCLUSIVE: u8 = 1;
const ER_SHARED: u8 = 2;
const ER_SHARED_MOD: u8 = 3;

struct ShadowWord {
    write: Option<Access>,
    /// Reads since the last write, at most one per task.
    reads: Vec<Access>,
    er_state: u8,
    er_owner: u32,
    /// Interned candidate lockset (`None` until the word goes shared).
    er_cset: Option<u32>,
    er_warned: bool,
}

impl ShadowWord {
    fn new() -> Self {
        ShadowWord {
            write: None,
            reads: Vec::new(),
            er_state: ER_VIRGIN,
            er_owner: 0,
            er_cset: None,
            er_warned: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Findings.

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum RaceKind {
    WriteWrite,
    ReadWrite,
    WriteRead,
}

impl RaceKind {
    fn as_str(self) -> &'static str {
        match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::ReadWrite => "read-write",
            RaceKind::WriteRead => "write-read",
        }
    }
}

struct RaceInfo {
    /// First example site of the race.
    node: u16,
    offset: u64,
    count: u64,
    a: Access,
    b: Access,
    a_name: String,
    b_name: String,
    /// Every node that issued one of the racing accesses.
    nodes: BTreeSet<u16>,
    /// Allocation site covering the racing word, resolved when the race
    /// was recorded (later simulations in the same run reuse offsets, so
    /// resolving at report time could misattribute).
    alloc_site: Option<u32>,
}

struct WarnInfo {
    node: u16,
    offset: u64,
    count: u64,
}

struct LockInfo {
    node: u16,
    offset: u64,
    acquires: u64,
}

struct EdgeInfo {
    /// Site of the *second* acquisition (the one that created the edge).
    site: u32,
    count: u64,
}

struct RangeInfo {
    len: u64,
    site: u32,
    live: bool,
}

/// An exempt span: `(start, len, interned reason)`.
type ExemptRange = (u64, u64, u32);

// ---------------------------------------------------------------------------
// The sanitizer proper.

struct Inner {
    threads: RefCell<Vec<ThreadState>>,
    /// (world, packed task key) → dense tid. The world counter is bumped
    /// for every `Sim` created while this sanitizer is installed, so slab
    /// slot reuse across simulations cannot alias task identities.
    task_ids: RefCell<HashMap<(u64, u64), u32>>,
    world: Cell<u64>,
    current: Cell<u32>,

    /// String interner (sites, lock names, alloc sites).
    strings: RefCell<Vec<String>>,
    string_ids: RefCell<HashMap<String, u32>>,
    /// Lockset interner: sorted lock-index vectors.
    locksets: RefCell<Vec<Vec<u32>>>,
    lockset_ids: RefCell<HashMap<Vec<u32>, u32>>,

    shadow: RefCell<HashMap<(u16, u64), ShadowWord>>,
    /// Sync clocks of atomic words (seq-cst model).
    atomics: RefCell<HashMap<(u16, u64), VClock>>,
    /// Accumulating release clocks for gates/promises/joins.
    sync_vcs: RefCell<HashMap<u64, VClock>>,
    /// FIFO release clocks for channels (one entry per message).
    chan_fifos: RefCell<HashMap<u64, VecDeque<VClock>>>,
    /// FIFO release clocks per SMP (from, to) link.
    msg_fifos: RefCell<HashMap<(u16, u16), VecDeque<VClock>>>,
    next_sync_id: Cell<u64>,

    locks: RefCell<Vec<LockInfo>>,
    lock_ids: RefCell<HashMap<(u16, u64), u32>>,
    lock_edges: RefCell<BTreeMap<(u32, u32), EdgeInfo>>,

    /// Per-node allocation ranges keyed by start offset.
    ranges: RefCell<HashMap<u16, BTreeMap<u64, RangeInfo>>>,
    /// Per-node exempt ranges — modeling artifacts (e.g. reused SMP
    /// staging buffers) whose accesses are suppressed.
    exempt: RefCell<HashMap<u16, Vec<ExemptRange>>>,

    races: RefCell<BTreeMap<(RaceKind, u32, u32), RaceInfo>>,
    warnings: RefCell<BTreeMap<u32, WarnInfo>>,

    plain_reads: Cell<u64>,
    plain_writes: Cell<u64>,
    atomic_ops: Cell<u64>,
    host_ops: Cell<u64>,
    sync_ops: Cell<u64>,
    msg_ops: Cell<u64>,
    suppressed: Cell<u64>,
}

/// Clone-cheap handle to a sanitizer; all clones share state.
#[derive(Clone)]
pub struct Sanitizer {
    inner: Rc<Inner>,
}

impl Default for Sanitizer {
    fn default() -> Self {
        Self::new()
    }
}

impl Sanitizer {
    pub fn new() -> Sanitizer {
        let san = Sanitizer {
            inner: Rc::new(Inner {
                threads: RefCell::new(Vec::new()),
                task_ids: RefCell::new(HashMap::new()),
                world: Cell::new(0),
                current: Cell::new(HOST_TID),
                strings: RefCell::new(Vec::new()),
                string_ids: RefCell::new(HashMap::new()),
                locksets: RefCell::new(Vec::new()),
                lockset_ids: RefCell::new(HashMap::new()),
                shadow: RefCell::new(HashMap::new()),
                atomics: RefCell::new(HashMap::new()),
                sync_vcs: RefCell::new(HashMap::new()),
                chan_fifos: RefCell::new(HashMap::new()),
                msg_fifos: RefCell::new(HashMap::new()),
                next_sync_id: Cell::new(1),
                locks: RefCell::new(Vec::new()),
                lock_ids: RefCell::new(HashMap::new()),
                lock_edges: RefCell::new(BTreeMap::new()),
                ranges: RefCell::new(HashMap::new()),
                exempt: RefCell::new(HashMap::new()),
                races: RefCell::new(BTreeMap::new()),
                warnings: RefCell::new(BTreeMap::new()),
                plain_reads: Cell::new(0),
                plain_writes: Cell::new(0),
                atomic_ops: Cell::new(0),
                host_ops: Cell::new(0),
                sync_ops: Cell::new(0),
                msg_ops: Cell::new(0),
                suppressed: Cell::new(0),
            }),
        };
        // tid 0 is the host thread; the empty lockset is id 0.
        let empty_ls = san.intern_lockset(Vec::new());
        debug_assert_eq!(empty_ls, 0);
        let site = san.intern("host");
        san.inner.threads.borrow_mut().push(ThreadState {
            vc: VClock::default(),
            name: "host".into(),
            frames: Vec::new(),
            site,
            dsite: site,
            locks: Vec::new(),
            lockset: empty_ls,
            finished: false,
        });
        san
    }

    // -- interning ----------------------------------------------------------

    fn intern(&self, s: &str) -> u32 {
        if let Some(&id) = self.inner.string_ids.borrow().get(s) {
            return id;
        }
        let mut v = self.inner.strings.borrow_mut();
        let id = v.len() as u32;
        v.push(s.to_string());
        self.inner.string_ids.borrow_mut().insert(s.to_string(), id);
        id
    }

    fn string(&self, id: u32) -> String {
        self.inner.strings.borrow()[id as usize].clone()
    }

    fn intern_lockset(&self, mut ls: Vec<u32>) -> u32 {
        ls.sort_unstable();
        ls.dedup();
        if let Some(&id) = self.inner.lockset_ids.borrow().get(&ls) {
            return id;
        }
        let mut v = self.inner.locksets.borrow_mut();
        let id = v.len() as u32;
        v.push(ls.clone());
        self.inner.lockset_ids.borrow_mut().insert(ls, id);
        id
    }

    /// Collapse digit runs so sibling workers dedup to one finding
    /// ("worker 3" → "worker #").
    fn normalize(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut in_digits = false;
        for c in s.chars() {
            if c.is_ascii_digit() {
                if !in_digits {
                    out.push('#');
                    in_digits = true;
                }
            } else {
                in_digits = false;
                out.push(c);
            }
        }
        out
    }

    fn recompute_site(&self, t: &mut ThreadState) {
        let mut s = t.name.clone();
        let strings = self.inner.strings.borrow();
        for &f in &t.frames {
            s.push('/');
            s.push_str(&strings[f as usize]);
        }
        drop(strings);
        t.site = self.intern(&s);
        t.dsite = self.intern(&Self::normalize(&s));
    }

    // -- task lifecycle (called by the bfly-sim executor) -------------------

    /// A new `Sim` was created: bump the world counter so task-slab keys
    /// from different simulations never alias.
    pub fn world_started(&self) {
        self.inner.world.set(self.inner.world.get() + 1);
    }

    fn tid_for(&self, key: u64, name: &str) -> u32 {
        let wkey = (self.inner.world.get(), key);
        if let Some(&tid) = self.inner.task_ids.borrow().get(&wkey) {
            return tid;
        }
        let mut threads = self.inner.threads.borrow_mut();
        let tid = threads.len() as u32;
        let site = self.intern(name);
        let dsite = self.intern(&Self::normalize(name));
        threads.push(ThreadState {
            vc: VClock::default(),
            name: name.to_string(),
            frames: Vec::new(),
            site,
            dsite,
            locks: Vec::new(),
            lockset: 0,
            finished: false,
        });
        drop(threads);
        self.inner.task_ids.borrow_mut().insert(wkey, tid);
        tid
    }

    /// A task was spawned by the current task (or the host): the child
    /// inherits the parent's clock (spawn is a happens-before edge).
    pub fn task_spawned(&self, key: u64, name: &str) {
        let parent = self.inner.current.get();
        let child = self.tid_for(key, name);
        let mut threads = self.inner.threads.borrow_mut();
        let pvc = threads[parent as usize].vc.clone();
        let c = &mut threads[child as usize];
        c.vc.join(&pvc);
        c.vc.bump(child);
        threads[parent as usize].vc.bump(parent);
    }

    /// The executor is about to poll task `key`; returns the previously
    /// current tid (restore it with [`Sanitizer::task_suspended`]).
    pub fn task_started(&self, key: u64, name: &str) -> u32 {
        let tid = self.tid_for(key, name);
        self.inner.current.replace(tid)
    }

    /// The poll returned; restore the interrupted context.
    pub fn task_suspended(&self, prev: u32) {
        self.inner.current.set(prev);
    }

    /// The currently-running task ran to completion.
    pub fn task_finished(&self) {
        let tid = self.inner.current.get();
        self.inner.threads.borrow_mut()[tid as usize].finished = true;
    }

    /// `Sim::run` reached quiescence: everything every task did is now
    /// ordered before subsequent host-side code (stuck deadlocked tasks
    /// included — they will never run again).
    pub fn run_quiesced(&self) {
        let mut threads = self.inner.threads.borrow_mut();
        let mut host_vc = threads[HOST_TID as usize].vc.clone();
        for t in threads.iter().skip(1) {
            host_vc.join(&t.vc);
        }
        threads[HOST_TID as usize].vc = host_vc;
    }

    // -- context frames -----------------------------------------------------

    /// Push a named context frame onto the current task's attribution
    /// stack (pop with [`Sanitizer::pop_frame`]).
    pub fn push_frame(&self, name: &str) {
        let tid = self.inner.current.get();
        let id = self.intern(name);
        let mut threads = self.inner.threads.borrow_mut();
        let t = &mut threads[tid as usize];
        t.frames.push(id);
        let mut t2 = std::mem::replace(
            t,
            ThreadState {
                vc: VClock::default(),
                name: String::new(),
                frames: Vec::new(),
                site: 0,
                dsite: 0,
                locks: Vec::new(),
                lockset: 0,
                finished: false,
            },
        );
        drop(threads);
        self.recompute_site(&mut t2);
        self.inner.threads.borrow_mut()[tid as usize] = t2;
    }

    pub fn pop_frame(&self) {
        let tid = self.inner.current.get();
        let mut threads = self.inner.threads.borrow_mut();
        let t = &mut threads[tid as usize];
        t.frames.pop();
        let mut t2 = std::mem::replace(
            t,
            ThreadState {
                vc: VClock::default(),
                name: String::new(),
                frames: Vec::new(),
                site: 0,
                dsite: 0,
                locks: Vec::new(),
                lockset: 0,
                finished: false,
            },
        );
        drop(threads);
        self.recompute_site(&mut t2);
        self.inner.threads.borrow_mut()[tid as usize] = t2;
    }

    // -- host-level sync objects (gates, promises, joins, channels) ---------

    /// Assign (once) and return the sync-object id stored in `cell`.
    pub fn sync_id(&self, cell: &Cell<u64>) -> u64 {
        let id = cell.get();
        if id != 0 {
            return id;
        }
        let id = self.inner.next_sync_id.get();
        self.inner.next_sync_id.set(id + 1);
        cell.set(id);
        id
    }

    /// Release edge into an accumulating sync object (gate open, promise
    /// set, task completion).
    pub fn sync_release(&self, id: u64) {
        self.inner.sync_ops.set(self.inner.sync_ops.get() + 1);
        let tid = self.inner.current.get();
        let mut threads = self.inner.threads.borrow_mut();
        let tvc = threads[tid as usize].vc.clone();
        self.inner
            .sync_vcs
            .borrow_mut()
            .entry(id)
            .or_default()
            .join(&tvc);
        threads[tid as usize].vc.bump(tid);
    }

    /// Acquire edge from an accumulating sync object (gate wait returned,
    /// promise read, join handle resolved).
    pub fn sync_acquire(&self, id: u64) {
        self.inner.sync_ops.set(self.inner.sync_ops.get() + 1);
        let tid = self.inner.current.get();
        if let Some(vc) = self.inner.sync_vcs.borrow().get(&id) {
            self.inner.threads.borrow_mut()[tid as usize].vc.join(vc);
        }
    }

    /// FIFO release edge: one queued message on a channel.
    pub fn chan_send(&self, id: u64) {
        self.inner.sync_ops.set(self.inner.sync_ops.get() + 1);
        let tid = self.inner.current.get();
        let mut threads = self.inner.threads.borrow_mut();
        let tvc = threads[tid as usize].vc.clone();
        self.inner
            .chan_fifos
            .borrow_mut()
            .entry(id)
            .or_default()
            .push_back(tvc);
        threads[tid as usize].vc.bump(tid);
    }

    /// FIFO acquire edge: the message at the head of the channel.
    pub fn chan_recv(&self, id: u64) {
        self.inner.sync_ops.set(self.inner.sync_ops.get() + 1);
        let tid = self.inner.current.get();
        let vc = self
            .inner
            .chan_fifos
            .borrow_mut()
            .get_mut(&id)
            .and_then(|q| q.pop_front());
        if let Some(vc) = vc {
            self.inner.threads.borrow_mut()[tid as usize].vc.join(&vc);
        }
    }

    /// SMP message staged for delivery on the `(from, to)` link.
    pub fn msg_send(&self, from: u16, to: u16) {
        self.inner.msg_ops.set(self.inner.msg_ops.get() + 1);
        let tid = self.inner.current.get();
        let mut threads = self.inner.threads.borrow_mut();
        let tvc = threads[tid as usize].vc.clone();
        self.inner
            .msg_fifos
            .borrow_mut()
            .entry((from, to))
            .or_default()
            .push_back(tvc);
        threads[tid as usize].vc.bump(tid);
    }

    /// SMP message consumed from the `(from, to)` link (per-sender order
    /// on one inbox is FIFO, so head-of-queue matching is exact).
    pub fn msg_recv(&self, from: u16, to: u16) {
        self.inner.msg_ops.set(self.inner.msg_ops.get() + 1);
        let tid = self.inner.current.get();
        let vc = self
            .inner
            .msg_fifos
            .borrow_mut()
            .get_mut(&(from, to))
            .and_then(|q| q.pop_front());
        if let Some(vc) = vc {
            self.inner.threads.borrow_mut()[tid as usize].vc.join(&vc);
        }
    }

    // -- locks --------------------------------------------------------------

    fn lock_idx(&self, node: u16, offset: u64) -> u32 {
        if let Some(&i) = self.inner.lock_ids.borrow().get(&(node, offset)) {
            return i;
        }
        let mut locks = self.inner.locks.borrow_mut();
        let i = locks.len() as u32;
        locks.push(LockInfo {
            node,
            offset,
            acquires: 0,
        });
        drop(locks);
        self.inner.lock_ids.borrow_mut().insert((node, offset), i);
        i
    }

    /// A `SpinLock` at `(node, offset)` was acquired by the current task.
    /// Happens-before is already induced by the underlying
    /// `test_and_set`; this maintains locksets and the lock-order graph.
    pub fn lock_acquired(&self, node: u16, offset: u64) {
        let li = self.lock_idx(node, offset);
        self.inner.locks.borrow_mut()[li as usize].acquires += 1;
        let tid = self.inner.current.get();
        let (held, site) = {
            let mut threads = self.inner.threads.borrow_mut();
            let t = &mut threads[tid as usize];
            let held = t.locks.clone();
            t.locks.push(li);
            (held, t.dsite)
        };
        let ls = {
            let threads = self.inner.threads.borrow();
            threads[tid as usize].locks.clone()
        };
        let id = self.intern_lockset(ls);
        self.inner.threads.borrow_mut()[tid as usize].lockset = id;
        let mut edges = self.inner.lock_edges.borrow_mut();
        for h in held {
            if h != li {
                let e = edges.entry((h, li)).or_insert(EdgeInfo { site, count: 0 });
                e.count += 1;
            }
        }
    }

    /// The `SpinLock` at `(node, offset)` was released by the current task.
    pub fn lock_released(&self, node: u16, offset: u64) {
        let li = self.lock_idx(node, offset);
        let tid = self.inner.current.get();
        let ls = {
            let mut threads = self.inner.threads.borrow_mut();
            let t = &mut threads[tid as usize];
            if let Some(pos) = t.locks.iter().rposition(|&l| l == li) {
                t.locks.remove(pos);
            }
            t.locks.clone()
        };
        let id = self.intern_lockset(ls);
        self.inner.threads.borrow_mut()[tid as usize].lockset = id;
    }

    // -- allocation ranges --------------------------------------------------

    /// Register an allocation `[offset, offset+len)` on `node` with an
    /// attribution site (e.g. `"Us::alloc(8192) by task gauss"`).
    pub fn alloc_range(&self, node: u16, offset: u64, len: u64, site: &str) {
        let site = self.intern(site);
        self.inner
            .ranges
            .borrow_mut()
            .entry(node)
            .or_default()
            .insert(
                offset,
                RangeInfo {
                    len,
                    site,
                    live: true,
                },
            );
    }

    /// Mark the allocation starting at `offset` as freed (kept for
    /// attribution of late accesses).
    pub fn free_range(&self, node: u16, offset: u64) {
        if let Some(m) = self.inner.ranges.borrow_mut().get_mut(&node) {
            if let Some(r) = m.get_mut(&offset) {
                r.live = false;
            }
        }
    }

    /// Suppress race checking inside `[offset, offset+len)` on `node`.
    /// For modeling artifacts only — e.g. SMP staging buffers that are
    /// deliberately reused without an application-visible handshake.
    pub fn exempt_range(&self, node: u16, offset: u64, len: u64, why: &str) {
        let why = self.intern(why);
        self.inner
            .exempt
            .borrow_mut()
            .entry(node)
            .or_default()
            .push((offset, len, why));
    }

    fn alloc_site_of(&self, node: u16, offset: u64) -> Option<u32> {
        let ranges = self.inner.ranges.borrow();
        let m = ranges.get(&node)?;
        let (&start, r) = m.range(..=offset).next_back()?;
        if offset < start + r.len {
            Some(r.site)
        } else {
            None
        }
    }

    fn is_exempt(&self, node: u16, offset: u64) -> bool {
        let ex = self.inner.exempt.borrow();
        match ex.get(&node) {
            Some(v) => v.iter().any(|&(s, l, _)| offset >= s && offset < s + l),
            None => false,
        }
    }

    // -- memory accesses ----------------------------------------------------

    /// A plain (non-atomic) access to `[offset, offset+len)` of `node`,
    /// issued from node `from` (or [`HOST_NODE`] for peek/poke).
    pub fn plain_access(&self, from: u16, node: u16, offset: u64, len: u64, is_write: bool) {
        if is_write {
            self.inner
                .plain_writes
                .set(self.inner.plain_writes.get() + 1);
        } else {
            self.inner.plain_reads.set(self.inner.plain_reads.get() + 1);
        }
        if from == HOST_NODE {
            self.inner.host_ops.set(self.inner.host_ops.get() + 1);
        }
        if len == 0 {
            return;
        }
        if self.is_exempt(node, offset) {
            self.inner.suppressed.set(self.inner.suppressed.get() + 1);
            return;
        }
        let tid = self.inner.current.get();
        let (cur, vc) = {
            let threads = self.inner.threads.borrow();
            let t = &threads[tid as usize];
            (
                Access {
                    tid,
                    epoch: t.vc.get(tid),
                    site: t.site,
                    dsite: t.dsite,
                    lockset: t.lockset,
                    from,
                },
                t.vc.clone(),
            )
        };
        let first_word = offset >> 2;
        let last_word = (offset + len - 1) >> 2;
        // One shadow borrow covers every word of the access: block
        // transfers and row copies span dozens of 4-byte words, and a
        // RefCell borrow per word was the dominant cost of the check.
        // The race/warning side tables live in their own cells, so the
        // per-word bookkeeping can run while the borrow is held.
        let mut shadow = self.inner.shadow.borrow_mut();
        for w in first_word..=last_word {
            self.word_access(&mut shadow, node, w, cur, &vc, is_write);
        }
    }

    fn word_access(
        &self,
        shadow: &mut HashMap<(u16, u64), ShadowWord>,
        node: u16,
        word: u64,
        cur: Access,
        vc: &VClock,
        is_write: bool,
    ) {
        let sw = shadow.entry((node, word)).or_insert_with(ShadowWord::new);

        // Happens-before checks.
        let mut race: Option<(RaceKind, Access)> = None;
        if let Some(w) = sw.write {
            if w.tid != cur.tid && vc.get(w.tid) < w.epoch {
                race = Some((
                    if is_write {
                        RaceKind::WriteWrite
                    } else {
                        RaceKind::WriteRead
                    },
                    w,
                ));
            }
        }
        if is_write && race.is_none() {
            for r in &sw.reads {
                if r.tid != cur.tid && vc.get(r.tid) < r.epoch {
                    race = Some((RaceKind::ReadWrite, *r));
                    break;
                }
            }
        }

        // Shadow update.
        if is_write {
            sw.write = Some(cur);
            sw.reads.clear();
        } else {
            match sw.reads.iter_mut().find(|r| r.tid == cur.tid) {
                Some(r) => *r = cur,
                None => sw.reads.push(cur),
            }
        }

        // Eraser state machine (advisory).
        let mut warn = false;
        match sw.er_state {
            ER_VIRGIN => {
                sw.er_state = ER_EXCLUSIVE;
                sw.er_owner = cur.tid;
            }
            ER_EXCLUSIVE => {
                if sw.er_owner != cur.tid {
                    sw.er_state = if is_write { ER_SHARED_MOD } else { ER_SHARED };
                    sw.er_cset = Some(cur.lockset);
                    if sw.er_state == ER_SHARED_MOD && self.lockset_is_empty(cur.lockset) {
                        sw.er_warned = true;
                        warn = true;
                    }
                }
            }
            _ => {
                if is_write {
                    sw.er_state = ER_SHARED_MOD;
                }
                let cset = sw.er_cset.unwrap_or(cur.lockset);
                let new = self.intersect_locksets(cset, cur.lockset);
                sw.er_cset = Some(new);
                if sw.er_state == ER_SHARED_MOD && self.lockset_is_empty(new) && !sw.er_warned {
                    sw.er_warned = true;
                    warn = true;
                }
            }
        }
        if warn {
            let mut warns = self.inner.warnings.borrow_mut();
            let e = warns.entry(cur.dsite).or_insert(WarnInfo {
                node,
                offset: word << 2,
                count: 0,
            });
            e.count += 1;
        }
        if let Some((kind, prev)) = race {
            self.record_race(kind, node, word << 2, prev, cur);
        }
    }

    fn lockset_is_empty(&self, id: u32) -> bool {
        self.inner.locksets.borrow()[id as usize].is_empty()
    }

    fn intersect_locksets(&self, a: u32, b: u32) -> u32 {
        if a == b {
            return a;
        }
        let out = {
            let sets = self.inner.locksets.borrow();
            let (sa, sb) = (&sets[a as usize], &sets[b as usize]);
            sa.iter()
                .filter(|l| sb.contains(l))
                .copied()
                .collect::<Vec<_>>()
        };
        self.intern_lockset(out)
    }

    fn record_race(&self, kind: RaceKind, node: u16, offset: u64, a: Access, b: Access) {
        let (a_name, b_name) = {
            let threads = self.inner.threads.borrow();
            (
                threads[a.tid as usize].name.clone(),
                threads[b.tid as usize].name.clone(),
            )
        };
        let alloc_site = self.alloc_site_of(node, offset);
        let mut races = self.inner.races.borrow_mut();
        let e = races.entry((kind, a.dsite, b.dsite)).or_insert(RaceInfo {
            node,
            offset,
            count: 0,
            a,
            b,
            a_name,
            b_name,
            nodes: BTreeSet::new(),
            alloc_site,
        });
        e.count += 1;
        e.nodes.insert(a.from);
        e.nodes.insert(b.from);
    }

    /// A seq-cst atomic operation (`fetch_add`, `test_and_set`,
    /// `atomic_store`) on the word at `(node, offset)`: the word's sync
    /// clock and the task's clock join both ways.
    pub fn atomic_access(&self, _from: u16, node: u16, offset: u64) {
        self.inner.atomic_ops.set(self.inner.atomic_ops.get() + 1);
        let tid = self.inner.current.get();
        let mut threads = self.inner.threads.borrow_mut();
        let t = &mut threads[tid as usize];
        let mut atomics = self.inner.atomics.borrow_mut();
        let wvc = atomics.entry((node, offset >> 2)).or_default();
        t.vc.join(wvc);
        wvc.join(&t.vc);
        t.vc.bump(tid);
    }

    // -- results ------------------------------------------------------------

    /// Number of distinct happens-before races found.
    pub fn race_count(&self) -> usize {
        self.inner.races.borrow().len()
    }

    /// Number of distinct advisory lockset warnings.
    pub fn warning_count(&self) -> usize {
        self.inner.warnings.borrow().len()
    }

    /// Lock-order cycles (strongly-connected components of size > 1).
    pub fn cycle_count(&self) -> usize {
        self.find_cycles().len()
    }

    /// True when no races and no lock-order cycles were found (advisory
    /// lockset warnings do not affect cleanliness).
    pub fn is_clean(&self) -> bool {
        self.race_count() == 0 && self.cycle_count() == 0
    }

    /// `(plain_reads, plain_writes, atomic_ops, sync_ops)` — used by the
    /// determinism tests to assert the sanitizer actually saw traffic.
    pub fn traffic(&self) -> (u64, u64, u64, u64) {
        (
            self.inner.plain_reads.get(),
            self.inner.plain_writes.get(),
            self.inner.atomic_ops.get(),
            self.inner.sync_ops.get(),
        )
    }

    /// The sanitizer's shadow state as flat `(name, value)` counters for
    /// checkpoint hashing (`bfly-snap` sections are built by the caller —
    /// this crate stays dependency-free). Deterministic by construction:
    /// everything here derives from the simulated event stream, so two
    /// identical executions produce identical fields at any event cut.
    pub fn snapshot_fields(&self) -> Vec<(&'static str, u64)> {
        let (reads, writes, atomics, syncs) = self.traffic();
        vec![
            ("races", self.race_count() as u64),
            ("warnings", self.warning_count() as u64),
            ("cycles", self.cycle_count() as u64),
            ("plain_reads", reads),
            ("plain_writes", writes),
            ("atomic_ops", atomics),
            ("sync_ops", syncs),
            ("suppressed", self.inner.suppressed.get()),
        ]
    }

    /// One-line human summary of the verdict.
    pub fn verdict_line(&self) -> String {
        format!(
            "races={} lock_cycles={} lockset_warnings={} suppressed={}",
            self.race_count(),
            self.cycle_count(),
            self.warning_count(),
            self.inner.suppressed.get()
        )
    }

    /// Kinds + dedup-site pairs of every race, sorted — a stable
    /// fingerprint for determinism tests.
    pub fn race_fingerprint(&self) -> Vec<String> {
        let strings = self.inner.strings.borrow();
        self.inner
            .races
            .borrow()
            .iter()
            .map(|((kind, a, b), info)| {
                format!(
                    "{}|{}|{}|n{}+{:#x}|x{}",
                    kind.as_str(),
                    strings[*a as usize],
                    strings[*b as usize],
                    info.node,
                    info.offset,
                    info.count
                )
            })
            .collect()
    }

    fn find_cycles(&self) -> Vec<Vec<u32>> {
        // Tarjan SCC over the lock-order graph; SCCs with more than one
        // lock are potential deadlocks.
        let edges = self.inner.lock_edges.borrow();
        let n = self.inner.locks.borrow().len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges.keys() {
            adj[a as usize].push(b);
        }
        struct Tarjan<'a> {
            adj: &'a [Vec<u32>],
            index: Vec<i64>,
            low: Vec<i64>,
            on_stack: Vec<bool>,
            stack: Vec<u32>,
            next: i64,
            out: Vec<Vec<u32>>,
        }
        impl Tarjan<'_> {
            fn strongconnect(&mut self, v: u32) {
                self.index[v as usize] = self.next;
                self.low[v as usize] = self.next;
                self.next += 1;
                self.stack.push(v);
                self.on_stack[v as usize] = true;
                for i in 0..self.adj[v as usize].len() {
                    let w = self.adj[v as usize][i];
                    if self.index[w as usize] < 0 {
                        self.strongconnect(w);
                        self.low[v as usize] = self.low[v as usize].min(self.low[w as usize]);
                    } else if self.on_stack[w as usize] {
                        self.low[v as usize] = self.low[v as usize].min(self.index[w as usize]);
                    }
                }
                if self.low[v as usize] == self.index[v as usize] {
                    let mut scc = Vec::new();
                    loop {
                        let w = self.stack.pop().expect("tarjan stack underflow");
                        self.on_stack[w as usize] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if scc.len() > 1 {
                        scc.sort_unstable();
                        self.out.push(scc);
                    }
                }
            }
        }
        let mut t = Tarjan {
            adj: &adj,
            index: vec![-1; n],
            low: vec![-1; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next: 0,
            out: Vec::new(),
        };
        for v in 0..n as u32 {
            if t.index[v as usize] < 0 {
                t.strongconnect(v);
            }
        }
        t.out.sort();
        t.out
    }

    fn lock_name(&self, li: u32) -> String {
        let locks = self.inner.locks.borrow();
        let l = &locks[li as usize];
        let base = format!("L{}@{:#x}", l.node, l.offset);
        match self.alloc_site_of(l.node, l.offset) {
            Some(site) => format!("{} ({})", base, self.string(site)),
            None => base,
        }
    }

    fn lockset_names(&self, id: u32) -> Vec<String> {
        let ls = self.inner.locksets.borrow()[id as usize].clone();
        ls.into_iter().map(|li| self.lock_name(li)).collect()
    }

    /// The `SAN_<exp>.json` report (schema `bfly-san/1`). Ranked: races
    /// sorted by occurrence count (descending), capped at 25 entries
    /// (`races_total` always carries the full distinct count).
    pub fn report_json(&self, experiment: &str) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"bfly-san/1\",\n");
        out.push_str(&format!("  \"experiment\": {},\n", quote(experiment)));
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        {
            let threads = self.inner.threads.borrow();
            out.push_str(&format!("  \"tasks\": {},\n", threads.len() - 1));
        }
        out.push_str(&format!(
            "  \"words_tracked\": {},\n",
            self.inner.shadow.borrow().len()
        ));
        out.push_str(&format!(
            "  \"plain_reads\": {},\n  \"plain_writes\": {},\n  \"atomic_ops\": {},\n  \"host_ops\": {},\n  \"sync_ops\": {},\n  \"msg_ops\": {},\n  \"suppressed\": {},\n",
            self.inner.plain_reads.get(),
            self.inner.plain_writes.get(),
            self.inner.atomic_ops.get(),
            self.inner.host_ops.get(),
            self.inner.sync_ops.get(),
            self.inner.msg_ops.get(),
            self.inner.suppressed.get(),
        ));

        // Races, ranked by count.
        let races = self.inner.races.borrow();
        out.push_str(&format!("  \"races_total\": {},\n", races.len()));
        let mut ranked: Vec<(&(RaceKind, u32, u32), &RaceInfo)> = races.iter().collect();
        ranked.sort_by(|x, y| y.1.count.cmp(&x.1.count).then(x.0.cmp(y.0)));
        out.push_str("  \"races\": [");
        for (i, ((kind, _, _), info)) in ranked.iter().take(25).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"kind\": {}, ", quote(kind.as_str())));
            out.push_str(&format!(
                "\"node\": {}, \"offset\": {}, \"count\": {}, ",
                info.node, info.offset, info.count
            ));
            let alloc = info
                .alloc_site
                .map(|s| quote(&self.string(s)))
                .unwrap_or_else(|| "null".into());
            out.push_str(&format!("\"alloc_site\": {}, ", alloc));
            out.push_str(&format!(
                "\"nodes\": [{}], ",
                info.nodes
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            for (label, acc, name) in [
                ("first", &info.a, &info.a_name),
                ("second", &info.b, &info.b_name),
            ] {
                out.push_str(&format!(
                    "\"{}\": {{\"task\": {}, \"site\": {}, \"epoch\": {}, \"from_node\": {}, \"locks\": [{}]}}{}",
                    label,
                    quote(name),
                    quote(&self.string(acc.site)),
                    acc.epoch,
                    acc.from,
                    self.lockset_names(acc.lockset)
                        .iter()
                        .map(|l| quote(l))
                        .collect::<Vec<_>>()
                        .join(","),
                    if label == "first" { ", " } else { "" }
                ));
            }
            out.push('}');
        }
        drop(races);
        out.push_str("\n  ],\n");

        // Advisory lockset warnings (dedup by normalized site).
        let warns = self.inner.warnings.borrow();
        out.push_str(&format!("  \"lockset_warnings_total\": {},\n", warns.len()));
        out.push_str("  \"lockset_warnings\": [");
        for (i, (site, w)) in warns.iter().take(25).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"site\": {}, \"node\": {}, \"offset\": {}, \"count\": {}}}",
                quote(&self.string(*site)),
                w.node,
                w.offset,
                w.count
            ));
        }
        drop(warns);
        out.push_str("\n  ],\n");

        // Lock-order graph.
        let cycles = self.find_cycles();
        {
            let locks = self.inner.locks.borrow();
            let edges = self.inner.lock_edges.borrow();
            out.push_str(&format!(
                "  \"lock_order\": {{\"locks\": {}, \"edges\": {}, \"cycles\": [",
                locks.len(),
                edges.len()
            ));
        }
        for (i, scc) in cycles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let names: Vec<String> = scc.iter().map(|&l| self.lock_name(l)).collect();
            let edges = self.inner.lock_edges.borrow();
            let sites: Vec<String> = edges
                .iter()
                .filter(|((a, b), _)| scc.contains(a) && scc.contains(b))
                .map(|(_, e)| self.string(e.site))
                .collect();
            out.push_str(&format!(
                "\n    {{\"locks\": [{}], \"sites\": [{}]}}",
                names.iter().map(|n| quote(n)).collect::<Vec<_>>().join(","),
                sites.iter().map(|s| quote(s)).collect::<Vec<_>>().join(",")
            ));
        }
        out.push_str("]},\n");

        // Machine-readable lock-graph export (PR10): the observed locks,
        // acquisition-order edges, cycles, and interned locksets, in a
        // stable shape `bfly-lint` cross-checks its static graph against.
        // Everything is emitted in interner/BTreeMap order, so two runs
        // of the same schedule produce identical bytes.
        out.push_str("  \"lock_graph\": {\n    \"locks\": [");
        {
            let locks = self.inner.locks.borrow();
            for (i, l) in locks.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let alloc = self
                    .alloc_site_of(l.node, l.offset)
                    .map(|s| quote(&self.string(s)))
                    .unwrap_or_else(|| "null".into());
                out.push_str(&format!(
                    "\n      {{\"id\": {}, \"node\": {}, \"offset\": {}, \"acquires\": {}, \"alloc_site\": {}}}",
                    i, l.node, l.offset, l.acquires, alloc
                ));
            }
            if !locks.is_empty() {
                out.push_str("\n    ");
            }
        }
        out.push_str("],\n    \"edges\": [");
        {
            let edges = self.inner.lock_edges.borrow();
            for (i, (&(a, b), e)) in edges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {{\"from\": {}, \"to\": {}, \"count\": {}, \"site\": {}}}",
                    a,
                    b,
                    e.count,
                    quote(&self.string(e.site))
                ));
            }
            if !edges.is_empty() {
                out.push_str("\n    ");
            }
        }
        out.push_str("],\n    \"cycles\": [");
        for (i, scc) in cycles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{}]",
                scc.iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
        out.push_str("],\n    \"locksets\": [");
        {
            let sets = self.inner.locksets.borrow();
            for (i, s) in sets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "[{}]",
                    s.iter()
                        .map(|l| l.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
        }
        out.push_str("]\n  }\n}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Ambient (thread-local) installation — the probe playbook.

thread_local! {
    static AMBIENT: RefCell<Option<Sanitizer>> = const { RefCell::new(None) };
    static ON: Cell<bool> = const { Cell::new(false) };
}

/// Install (or clear) the calling thread's ambient sanitizer; returns the
/// previous one. `Sim::with_seed` auto-attaches the ambient sanitizer, so
/// installing before constructing the simulation is all a harness needs.
pub fn install_ambient(san: Option<Sanitizer>) -> Option<Sanitizer> {
    ON.with(|c| c.set(san.is_some()));
    AMBIENT.with(|a| a.replace(san))
}

/// The calling thread's ambient sanitizer, if one is installed.
pub fn ambient() -> Option<Sanitizer> {
    AMBIENT.with(|a| a.borrow().clone())
}

/// Run `f` against the ambient sanitizer. The disabled path is a single
/// thread-local flag test — this is the hook entry point for code (sim
/// sync primitives) that has no struct to cache a handle in.
#[inline]
pub fn if_on<R>(f: impl FnOnce(&Sanitizer) -> R) -> Option<R> {
    if !ON.with(|c| c.get()) {
        return None;
    }
    AMBIENT.with(|a| a.borrow().as_ref().map(f))
}

/// Push a named attribution frame on the ambient sanitizer (if any);
/// popped when the guard drops. Free for un-sanitized runs.
pub fn annotate(name: &str) -> FrameGuard {
    let on = if_on(|s| s.push_frame(name)).is_some();
    FrameGuard { on }
}

/// Guard returned by [`annotate`].
pub struct FrameGuard {
    on: bool,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if self.on {
            if_on(|s| s.pop_frame());
        }
    }
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tasks with no edge between them: write/write on one word races.
    #[test]
    fn unordered_writes_race() {
        let s = Sanitizer::new();
        s.world_started();
        s.task_spawned(1, "writer a");
        s.task_spawned(2, "writer b");
        let p = s.task_started(1, "writer a");
        s.plain_access(0, 0, 0x100, 4, true);
        s.task_suspended(p);
        let p = s.task_started(2, "writer b");
        s.plain_access(1, 0, 0x100, 4, true);
        s.task_suspended(p);
        assert_eq!(s.race_count(), 1);
        let fp = s.race_fingerprint();
        assert!(fp[0].starts_with("write-write|"), "{fp:?}");
        assert!(!s.is_clean());
    }

    /// The same schedule with a channel edge between the accesses is clean.
    #[test]
    fn channel_edge_orders_accesses() {
        let s = Sanitizer::new();
        s.world_started();
        s.task_spawned(1, "producer");
        s.task_spawned(2, "consumer");
        let ch = Cell::new(0u64);
        let p = s.task_started(1, "producer");
        s.plain_access(0, 0, 0x100, 4, true);
        let id = s.sync_id(&ch);
        s.chan_send(id);
        s.task_suspended(p);
        let p = s.task_started(2, "consumer");
        s.chan_recv(s.sync_id(&ch));
        s.plain_access(1, 0, 0x100, 4, true);
        s.task_suspended(p);
        assert_eq!(s.race_count(), 0);
        assert!(s.is_clean());
    }

    /// Atomic ops on the same word synchronize (spin-lock hand-off model).
    #[test]
    fn atomic_word_synchronizes() {
        let s = Sanitizer::new();
        s.world_started();
        s.task_spawned(1, "a");
        s.task_spawned(2, "b");
        let p = s.task_started(1, "a");
        s.plain_access(0, 0, 0x200, 4, true);
        s.atomic_access(0, 0, 0x80); // release-ish
        s.task_suspended(p);
        let p = s.task_started(2, "b");
        s.atomic_access(1, 0, 0x80); // acquire-ish
        s.plain_access(1, 0, 0x200, 4, false);
        s.task_suspended(p);
        assert_eq!(s.race_count(), 0);
    }

    /// Reads don't race with reads; a later unordered write races with both.
    #[test]
    fn read_read_ok_then_write_races() {
        let s = Sanitizer::new();
        s.world_started();
        s.task_spawned(1, "r1");
        s.task_spawned(2, "r2");
        s.task_spawned(3, "w");
        for (key, name) in [(1u64, "r1"), (2, "r2")] {
            let p = s.task_started(key, name);
            s.plain_access(0, 0, 0x300, 4, false);
            s.task_suspended(p);
        }
        assert_eq!(s.race_count(), 0);
        let p = s.task_started(3, "w");
        s.plain_access(2, 0, 0x300, 4, true);
        s.task_suspended(p);
        // Both prior readers race with the write, but "r1"/"r2" normalize
        // to the same dedup site, so one distinct finding is reported.
        assert_eq!(s.race_count(), 1);
        assert!(s.race_fingerprint()[0].starts_with("read-write|"));
    }

    /// AB–BA acquisition order is a cycle even without an actual deadlock.
    #[test]
    fn lock_order_cycle_detected() {
        let s = Sanitizer::new();
        s.world_started();
        s.task_spawned(1, "t1");
        s.task_spawned(2, "t2");
        let p = s.task_started(1, "t1");
        s.lock_acquired(0, 0x10);
        s.lock_acquired(0, 0x20);
        s.lock_released(0, 0x20);
        s.lock_released(0, 0x10);
        s.task_suspended(p);
        let p = s.task_started(2, "t2");
        s.lock_acquired(0, 0x20);
        s.lock_acquired(0, 0x10);
        s.lock_released(0, 0x10);
        s.lock_released(0, 0x20);
        s.task_suspended(p);
        assert_eq!(s.cycle_count(), 1);
        assert!(!s.is_clean());
        // Consistent ordering in a third task adds no cycle.
        assert_eq!(s.find_cycles()[0].len(), 2);
    }

    /// Exempt ranges suppress findings and count suppressions.
    #[test]
    fn exempt_range_suppresses() {
        let s = Sanitizer::new();
        s.world_started();
        s.exempt_range(0, 0x1000, 0x100, "staging buffer");
        s.task_spawned(1, "a");
        s.task_spawned(2, "b");
        for key in [1u64, 2] {
            let p = s.task_started(key, if key == 1 { "a" } else { "b" });
            s.plain_access(0, 0, 0x1040, 8, true);
            s.task_suspended(p);
        }
        assert_eq!(s.race_count(), 0);
        assert_eq!(s.inner.suppressed.get(), 2);
    }

    /// Allocation-site attribution lands in the race report.
    #[test]
    fn alloc_site_attribution() {
        let s = Sanitizer::new();
        s.world_started();
        s.alloc_range(3, 0x400, 64, "Us::alloc(64) matrix row");
        s.task_spawned(1, "a");
        s.task_spawned(2, "b");
        for key in [1u64, 2] {
            let p = s.task_started(key, if key == 1 { "a" } else { "b" });
            s.plain_access(0, 3, 0x410, 4, true);
            s.task_suspended(p);
        }
        assert_eq!(s.race_count(), 1);
        let json = s.report_json("unit");
        assert!(json.contains("Us::alloc(64) matrix row"), "{json}");
        assert!(json.contains("\"schema\": \"bfly-san/1\""));
        assert!(json.contains("\"clean\": false"));
    }

    /// The run_quiesced barrier orders task writes before host reads.
    #[test]
    fn quiescence_orders_tasks_before_host() {
        let s = Sanitizer::new();
        s.world_started();
        s.task_spawned(1, "t");
        let p = s.task_started(1, "t");
        s.plain_access(0, 0, 0x500, 4, true);
        s.task_finished();
        s.task_suspended(p);
        s.run_quiesced();
        s.plain_access(HOST_NODE, 0, 0x500, 4, false);
        assert_eq!(s.race_count(), 0);
    }

    /// Lockset warnings are advisory: they never flip `is_clean`.
    #[test]
    fn lockset_warning_is_advisory() {
        let s = Sanitizer::new();
        s.world_started();
        s.task_spawned(1, "a");
        s.task_spawned(2, "b");
        // a writes, then hands off through a gate (HB-clean), b writes
        // with no common lock: Eraser warns, HB does not.
        let gate = Cell::new(0u64);
        let p = s.task_started(1, "a");
        s.plain_access(0, 0, 0x600, 4, true);
        let id = s.sync_id(&gate);
        s.sync_release(id);
        s.task_suspended(p);
        let p = s.task_started(2, "b");
        s.sync_acquire(s.sync_id(&gate));
        s.plain_access(1, 0, 0x600, 4, true);
        s.task_suspended(p);
        assert_eq!(s.race_count(), 0);
        assert_eq!(s.warning_count(), 1);
        assert!(s.is_clean());
        let json = s.report_json("unit");
        assert!(json.contains("\"lockset_warnings_total\": 1"));
        assert!(json.contains("\"clean\": true"));
    }

    /// Frames change the attribution site.
    #[test]
    fn frames_attribute_sites() {
        let s = Sanitizer::new();
        s.world_started();
        s.task_spawned(1, "t");
        s.task_spawned(2, "u");
        let p = s.task_started(1, "t");
        {
            s.push_frame("pivot");
            s.plain_access(0, 0, 0x700, 4, true);
            s.pop_frame();
        }
        s.task_suspended(p);
        let p = s.task_started(2, "u");
        s.plain_access(1, 0, 0x700, 4, true);
        s.task_suspended(p);
        let json = s.report_json("unit");
        assert!(json.contains("t/pivot"), "{json}");
    }

    /// World separation: the same task key in a new world is a new task,
    /// and host quiescence keeps cross-world accesses ordered.
    #[test]
    fn worlds_do_not_alias() {
        let s = Sanitizer::new();
        s.world_started();
        s.task_spawned(1, "t");
        let p = s.task_started(1, "t");
        s.plain_access(0, 0, 0x800, 4, true);
        s.task_finished();
        s.task_suspended(p);
        s.run_quiesced();
        s.world_started();
        s.task_spawned(1, "t");
        let p = s.task_started(1, "t");
        s.plain_access(0, 0, 0x800, 4, true);
        s.task_suspended(p);
        assert_eq!(s.race_count(), 0);
        assert_eq!(s.inner.threads.borrow().len(), 3); // host + 2 tasks
    }

    #[test]
    fn ambient_install_and_guard() {
        assert!(ambient().is_none());
        assert!(if_on(|_| ()).is_none());
        let prev = install_ambient(Some(Sanitizer::new()));
        assert!(prev.is_none());
        assert!(if_on(|_| true).unwrap_or(false));
        {
            let _g = annotate("scope");
        }
        let s = install_ambient(None).expect("was installed");
        assert!(s.is_clean());
        assert!(if_on(|_| ()).is_none());
    }
}
