//! FIFO-queued resources: the workhorse abstraction of the machine model.
//!
//! A [`Resource`] is a server (or `capacity` identical servers) with a FIFO
//! queue. Simulated CPUs, memory units, switch output ports and disks are all
//! resources; *contention is whatever queueing emerges*. Each resource keeps
//! utilization and waiting-time statistics so experiments can report where
//! time went (e.g., Table 3's memory-cycle stealing).

use std::any::Any;
use std::cell::{Cell, Ref, RefCell, RefMut};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::exec::{Continuation, Sim};
use crate::time::SimTime;

/// A FIFO-queued server pool.
#[derive(Clone)]
pub struct Resource {
    inner: Rc<ResInner>,
}

struct ResInner {
    sim: Sim,
    name: String,
    capacity: usize,
    in_service: Cell<usize>,
    queue: RefCell<VecDeque<Waiter>>,
    // statistics
    busy_ns: Cell<u64>,
    last_change: Cell<SimTime>,
    acquisitions: Cell<u64>,
    total_wait_ns: Cell<u64>,
    max_queue: Cell<usize>,
    // Optional observability hook (bfly-probe). `probe_on` is the fast
    // flag: with no probe attached every hook is one predictable branch.
    probe_on: Cell<bool>,
    probe: RefCell<Option<bfly_probe::QueueProbe>>,
}

struct Waiter {
    slot: Rc<WaitSlot>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitState {
    Queued,
    Granted,
    Cancelled,
}

struct WaitSlot {
    state: Cell<WaitState>,
    waker: RefCell<Option<Waker>>,
    enqueued_at: SimTime,
}

/// Snapshot of a resource's accumulated statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceStats {
    /// Resource name (diagnostics).
    pub name: String,
    /// Number of servers.
    pub capacity: usize,
    /// Total server-busy nanoseconds accumulated so far.
    pub busy_ns: u64,
    /// Completed acquisitions.
    pub acquisitions: u64,
    /// Total time acquirers spent queued.
    pub total_wait_ns: u64,
    /// High-water mark of the wait queue.
    pub max_queue: usize,
}

impl ResourceStats {
    /// Mean queueing delay per acquisition, ns.
    pub fn mean_wait_ns(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.total_wait_ns as f64 / self.acquisitions as f64
        }
    }

    /// Fraction of `elapsed` during which servers were busy (per server).
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_ns as f64 / (elapsed as f64 * self.capacity as f64)
        }
    }
}

impl Resource {
    /// Create a resource with `capacity` identical servers.
    pub fn new(sim: &Sim, name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "resource must have at least one server");
        Resource {
            inner: Rc::new(ResInner {
                sim: sim.clone(),
                name: name.into(),
                capacity,
                in_service: Cell::new(0),
                queue: RefCell::new(VecDeque::new()),
                busy_ns: Cell::new(0),
                last_change: Cell::new(sim.now()),
                acquisitions: Cell::new(0),
                total_wait_ns: Cell::new(0),
                max_queue: Cell::new(0),
                probe_on: Cell::new(false),
                probe: RefCell::new(None),
            }),
        }
    }

    /// Attach a queue probe: every subsequent [`Resource::access`] (the
    /// one-step [`Program`]) and every other program step held here
    /// reports its arrival depth and queueing/service time into it. Probes
    /// are observational only — they never affect grant order or timing.
    pub fn attach_probe(&self, probe: bfly_probe::QueueProbe) {
        *self.inner.probe.borrow_mut() = Some(probe);
        self.inner.probe_on.set(true);
    }

    /// Detach any attached queue probe.
    pub fn detach_probe(&self) {
        *self.inner.probe.borrow_mut() = None;
        self.inner.probe_on.set(false);
    }

    fn account(&self) {
        let now = self.inner.sim.now();
        let dt = now - self.inner.last_change.get();
        if dt > 0 {
            self.inner
                .busy_ns
                .set(self.inner.busy_ns.get() + dt * self.inner.in_service.get() as u64);
            self.inner.last_change.set(now);
        }
    }

    /// Acquire one server; resolves to a guard that releases on drop.
    /// Grants are strictly FIFO.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            res: self.clone(),
            slot: None,
        }
    }

    /// Acquire, hold for `service` ns, release. The canonical "use a device"
    /// operation; returns the queueing delay experienced.
    ///
    /// The one-step [`Program`] of a [`Step::Hold`]: the accounting and
    /// timer registrations of `let g = acquire().await;
    /// sleep(service).await; drop(g)`, in the same order, and the same
    /// undo when dropped, plus the probe hooks. It is not
    /// `access_between(0, service, 0)`: a reference releases its unit at
    /// service end, a hold when its end polls the task.
    pub fn access(&self, service: SimTime) -> Program<Single> {
        self.one_step(Step::Hold {
            res: self.clone(),
            service,
        })
    }

    /// Travel for `before` ns, [`access`](Resource::access) one server for
    /// `service` ns, travel back for `after` ns; returns the queueing
    /// delay. This is a PNC reference on a fault-free network: the legs
    /// are constant delays around one memory-unit hold, the one-step
    /// [`Program`].
    ///
    /// The same accounting, probe hooks and timer registrations as
    /// `sleep(before)`, `access(service)`, `sleep(after)`, in the same
    /// order, but the executor runs the arrival and service-end instants
    /// itself: it takes a free server (or, if the server is busy or has a
    /// queue, polls the task to join the FIFO), then releases it and
    /// registers the return leg. Only the return polls the task.
    pub fn access_between(
        &self,
        before: SimTime,
        service: SimTime,
        after: SimTime,
    ) -> Program<Single> {
        self.one_step(Step::Ref {
            cpu: None,
            unit: self.clone(),
            before,
            service,
            after,
        })
    }

    /// The one-step program of `step`, on the state of a finished one
    /// from the `Sim`'s free list when there is one.
    fn one_step(&self, step: Step) -> Program<Single> {
        let sim = &self.inner.sim;
        let Some(mut steps) = sim.inner.spare.borrow_mut().pop() else {
            return Program::new(sim, Single(Some(step)));
        };
        // Its drop emptied its resources and waker; the step's start sets
        // every other field but these.
        let st = Rc::get_mut(&mut steps).expect("a spare program state is unshared");
        *st.script.get_mut() = Single(Some(step));
        st.phase.set(Phase::Idle);
        st.waited.set(0);
        st.pending.set((0, NO_ENTRY));
        Program {
            sim: sim.clone(),
            steps,
            queued: None,
        }
    }

    /// Current queue length (excluding in-service requests).
    pub fn queue_len(&self) -> usize {
        self.inner
            .queue
            .borrow()
            .iter()
            .filter(|w| w.slot.state.get() == WaitState::Queued)
            .count()
    }

    /// Number of servers currently busy.
    pub fn in_service(&self) -> usize {
        self.inner.in_service.get()
    }

    /// Snapshot statistics (accounts busy time up to now first).
    pub fn stats(&self) -> ResourceStats {
        self.account();
        ResourceStats {
            name: self.inner.name.clone(),
            capacity: self.inner.capacity,
            busy_ns: self.inner.busy_ns.get(),
            acquisitions: self.inner.acquisitions.get(),
            total_wait_ns: self.inner.total_wait_ns.get(),
            max_queue: self.inner.max_queue.get(),
        }
    }

    /// Reset accumulated statistics (not queue state).
    pub fn reset_stats(&self) {
        self.inner.busy_ns.set(0);
        self.inner.last_change.set(self.inner.sim.now());
        self.inner.acquisitions.set(0);
        self.inner.total_wait_ns.set(0);
        self.inner.max_queue.set(0);
    }

    /// True if a request arriving now is served at once.
    fn idle(&self) -> bool {
        self.inner.in_service.get() < self.inner.capacity && self.inner.queue.borrow().is_empty()
    }

    /// Take a server on the fast path ([`Resource::idle`] holds).
    fn take(&self) {
        self.account();
        self.inner.in_service.set(self.inner.in_service.get() + 1);
        self.inner
            .acquisitions
            .set(self.inner.acquisitions.get() + 1);
    }

    fn probe_arrival(&self) {
        if self.inner.probe_on.get() {
            if let Some(p) = &*self.inner.probe.borrow() {
                // Depth seen on arrival: requests in service plus the raw
                // queue (cancelled-but-unreaped waiters included; they are
                // rare and reaped on the next grant).
                p.arrival(self.inner.in_service.get() + self.inner.queue.borrow().len());
            }
        }
    }

    fn probe_served(&self, waited: SimTime, service: SimTime) {
        if self.inner.probe_on.get() {
            if let Some(p) = &*self.inner.probe.borrow() {
                p.served(waited, service);
            }
        }
    }

    /// A request arrives: take a free server or join the FIFO queue
    /// (waking through `cx`). A program step reports the arrival to the
    /// probe first ([`Resource::probe_arrival`]); a bare acquire does not.
    fn enter(&self, cx: &Context<'_>) -> Arrival {
        // Fast path: a server is free and no one is queued.
        if self.idle() {
            self.take();
            return Arrival::Served;
        }
        let inner = &self.inner;
        let slot = Rc::new(WaitSlot {
            state: Cell::new(WaitState::Queued),
            waker: RefCell::new(Some(cx.waker().clone())),
            enqueued_at: inner.sim.now(),
        });
        inner
            .queue
            .borrow_mut()
            .push_back(Waiter { slot: slot.clone() });
        let qlen = inner.queue.borrow().len();
        if qlen > inner.max_queue.get() {
            inner.max_queue.set(qlen);
        }
        // A server may be idle while the queue is non-empty only
        // transiently; if so, grant immediately in FIFO order.
        if inner.in_service.get() < inner.capacity {
            self.grant_next();
            if slot.state.get() == WaitState::Granted {
                inner.acquisitions.set(inner.acquisitions.get() + 1);
                return Arrival::Served;
            }
        }
        Arrival::Queued(slot)
    }

    /// Poll a queued request: its queueing delay once granted.
    fn poll_granted(&self, slot: &WaitSlot, cx: &Context<'_>) -> Option<SimTime> {
        if slot.state.get() == WaitState::Granted {
            let inner = &self.inner;
            inner.acquisitions.set(inner.acquisitions.get() + 1);
            self.account();
            Some(inner.sim.now() - slot.enqueued_at)
        } else {
            *slot.waker.borrow_mut() = Some(cx.waker().clone());
            None
        }
    }

    /// A queued request was dropped: mark the waiter dead, or release the
    /// server if the grant raced the drop.
    fn abandon(&self, slot: &WaitSlot) {
        match slot.state.get() {
            WaitState::Queued => slot.state.set(WaitState::Cancelled),
            WaitState::Granted => self.release_one(),
            WaitState::Cancelled => {}
        }
    }

    fn grant_next(&self) {
        // Pop cancelled entries; grant the first live waiter, if any.
        let mut queue = self.inner.queue.borrow_mut();
        while let Some(w) = queue.pop_front() {
            match w.slot.state.get() {
                WaitState::Cancelled => continue,
                WaitState::Queued => {
                    w.slot.state.set(WaitState::Granted);
                    self.inner.in_service.set(self.inner.in_service.get() + 1);
                    let wait = self.inner.sim.now() - w.slot.enqueued_at;
                    self.inner
                        .total_wait_ns
                        .set(self.inner.total_wait_ns.get() + wait);
                    if let Some(wk) = w.slot.waker.borrow_mut().take() {
                        wk.wake();
                    }
                    return;
                }
                WaitState::Granted => unreachable!("granted waiter left in queue"),
            }
        }
    }

    fn release_one(&self) {
        self.account();
        self.inner.in_service.set(self.inner.in_service.get() - 1);
        self.grant_next();
    }
}

/// Future returned by [`Resource::acquire`].
pub struct Acquire {
    res: Resource,
    /// Our place in the FIFO queue, until granted.
    slot: Option<Rc<WaitSlot>>,
}

impl Future for Acquire {
    type Output = ResourceGuard;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<ResourceGuard> {
        match self.slot.take() {
            None => {
                if let Arrival::Queued(slot) = self.res.enter(cx) {
                    self.slot = Some(slot);
                    return Poll::Pending;
                }
            }
            Some(slot) => {
                if self.res.poll_granted(&slot, cx).is_none() {
                    self.slot = Some(slot);
                    return Poll::Pending;
                }
            }
        }
        Poll::Ready(ResourceGuard {
            res: self.res.clone(),
            released: false,
        })
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        // A grant whose guard was never taken releases the server.
        if let Some(slot) = &self.slot {
            self.res.abandon(slot);
        }
    }
}

/// What an arriving request got.
enum Arrival {
    /// A server, at once.
    Served,
    /// A place in the FIFO queue.
    Queued(Rc<WaitSlot>),
}

/// One step of a [`Program`]: a server hold whose instants the executor
/// can run without polling the task that awaits it.
#[derive(Clone)]
pub enum Step {
    /// Hold one server of `res` for `service` ns: [`Resource::access`],
    /// or a processor's compute step. From the task's poll the step takes
    /// a free server or joins the queue; the executor starts it only on a
    /// free server.
    Hold {
        /// The resource held.
        res: Resource,
        /// Hold time, ns.
        service: SimTime,
    },
    /// A reference, as [`Resource::access_between`] plus the processor:
    /// take a free server of `cpu` (when given) for the round trip, travel
    /// `before` ns, hold one server of `unit` for `service` ns, travel back
    /// `after` ns.
    Ref {
        /// The issuing processor, held from issue to return.
        cpu: Option<Resource>,
        /// The memory unit referenced.
        unit: Resource,
        /// Outbound travel, ns.
        before: SimTime,
        /// Unit hold, ns.
        service: SimTime,
        /// Return travel, ns.
        after: SimTime,
    },
}

/// What a [`Program`] runs: its steps in order, and the caller's
/// bookkeeping at each step's issue and end.
pub trait Script: 'static {
    /// The next step, if the program may run it; `None` when the awaiting
    /// task must run it itself, or nothing is left. The step starts only
    /// if [`Script::started`] follows, so this must not change state.
    fn next(&self) -> Option<Step>;
    /// The step [`Script::next`] offered has started.
    fn started(&mut self);
    /// The current step has ended, at the instant its awaiting task would
    /// have been polled.
    fn finished(&mut self);
    /// True if the current step is the program's last: its end polls the
    /// task.
    fn last(&self) -> bool;
    /// True if [`Script::finished`] may run outside a poll of the task.
    fn in_place(&self) -> bool;
}

/// The one-step script of [`Resource::access`] and
/// [`Resource::access_between`].
pub struct Single(Option<Step>);

impl Script for Single {
    fn next(&self) -> Option<Step> {
        self.0.clone()
    }
    fn started(&mut self) {
        self.0 = None;
    }
    fn finished(&mut self) {}
    fn last(&self) -> bool {
        true
    }
    fn in_place(&self) -> bool {
        false
    }
}

/// Where a [`Program`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between steps, or before the first: nothing in flight.
    Idle,
    /// Travelling out; the arrival entry is pending.
    Travel,
    /// At the unit, or a hold's server: the task's poll takes it or joins
    /// its queue.
    Arrived,
    /// Holding the unit; the service-end entry is pending.
    Service,
    /// Travelling back; the return entry is pending, or due now.
    Return,
    /// Holding a [`Step::Hold`]'s server; its end is pending, or due now.
    Hold,
    /// Abandoned.
    Done,
}

/// Finished one-step programs' state, kept for reuse by their `Sim`.
pub(crate) type Spare = RefCell<Vec<Rc<Steps<Single>>>>;

/// `pending`'s sequence number while no entry is outstanding.
const NO_ENTRY: u64 = u64::MAX;

/// The state a [`Program`] shares with the executor, which runs its
/// entries in place ([`Continuation::run`]). It holds no [`Sim`]: the
/// program and the executor pass theirs in, so a finished one-step
/// program's state can wait in its `Sim`'s free list without keeping
/// the `Sim` alive.
pub(crate) struct Steps<S> {
    script: RefCell<S>,
    /// The current reference's unit, or the current hold's server.
    res: RefCell<Option<Resource>>,
    /// True if the current step is a [`Step::Hold`].
    hold: Cell<bool>,
    /// The processor the current reference holds until its return.
    cpu: RefCell<Option<Resource>>,
    service: Cell<SimTime>,
    after: Cell<SimTime>,
    phase: Cell<Phase>,
    /// The latest step's queueing delay.
    waited: Cell<SimTime>,
    /// `(at, seq)` of the pending entry; `seq` is [`NO_ENTRY`] once it has
    /// fired, or when the step's end is due with no entry.
    pending: Cell<(SimTime, u64)>,
    /// The awaiting task's waker, from its latest poll.
    waker: RefCell<Waker>,
}

impl<S: Script> Steps<S> {
    fn res(&self) -> Ref<'_, Resource> {
        Ref::map(self.res.borrow(), |r| {
            r.as_ref().expect("no step in flight")
        })
    }

    /// Register the next entry, `dur` from now: one run in place, or a
    /// plain wake of the task (`wake`, for the last step's end).
    fn schedule(self: &Rc<Self>, sim: &Sim, dur: SimTime, phase: Phase, wake: bool) {
        let at = sim.now() + dur;
        let seq = if wake {
            sim.inner.schedule_wake(at, &self.waker.borrow())
        } else {
            sim.inner.schedule_leg(at, self.clone())
        };
        self.pending.set((at, seq));
        self.phase.set(phase);
    }

    /// The current step's end is due at this instant, with no entry.
    fn due_now(&self, sim: &Sim, phase: Phase) {
        self.pending.set((sim.now(), NO_ENTRY));
        self.phase.set(phase);
    }

    /// Start the step the script offers, with exactly the accounting,
    /// probe hooks and registrations the task's own code would make:
    /// from the task's poll, or `in_place` of one. False (and nothing
    /// done) if the task must run the step itself: the script declines,
    /// a reference's processor is busy (the task queues for it), or, in
    /// place, a hold's server is busy or a zero-length leg or hold would
    /// need the task's poll at this instant.
    fn try_start(self: &Rc<Self>, sim: &Sim, in_place: bool) -> bool {
        let step = {
            let mut script = self.script.borrow_mut();
            let Some(step) = script.next() else {
                return false;
            };
            let declined = match &step {
                Step::Ref { cpu, before, .. } => {
                    cpu.as_ref().is_some_and(|c| !c.idle()) || (in_place && *before == 0)
                }
                Step::Hold { res, service } => in_place && (!res.idle() || *service == 0),
            };
            if declined {
                return false;
            }
            script.started();
            step
        };
        match step {
            Step::Ref {
                cpu,
                unit,
                before,
                service,
                after,
            } => {
                if let Some(c) = &cpu {
                    c.take();
                }
                *self.cpu.borrow_mut() = cpu;
                *self.res.borrow_mut() = Some(unit);
                self.hold.set(false);
                self.service.set(service);
                self.after.set(after);
                if before > 0 {
                    self.schedule(sim, before, Phase::Travel, false);
                } else {
                    self.phase.set(Phase::Arrived);
                }
            }
            Step::Hold { res, service } => {
                let idle = res.idle();
                *self.res.borrow_mut() = Some(res);
                self.hold.set(true);
                self.service.set(service);
                if idle {
                    self.take_idle(sim);
                } else {
                    self.phase.set(Phase::Arrived);
                }
            }
        }
        true
    }

    /// Arrive at the idle unit or server from the executor and take it.
    /// True if the step's end is due at this instant.
    fn take_idle(self: &Rc<Self>, sim: &Sim) -> bool {
        {
            let res = self.res();
            res.probe_arrival();
            res.take();
        }
        self.start_service(sim, 0)
    }

    /// A unit or server was taken after `waited`: start its hold. True if
    /// the step's end (a hold's, or a reference's return) is due at this
    /// instant.
    fn start_service(self: &Rc<Self>, sim: &Sim, waited: SimTime) -> bool {
        let service = self.service.get();
        self.res().probe_served(waited, service);
        self.waited.set(waited);
        if self.hold.get() {
            return self.end_in(sim, service, Phase::Hold);
        }
        if service > 0 {
            self.schedule(sim, service, Phase::Service, false);
            false
        } else {
            self.res().release_one();
            self.start_return(sim)
        }
    }

    /// The unit was released: start the trip back. True if the return is
    /// due at this instant.
    fn start_return(self: &Rc<Self>, sim: &Sim) -> bool {
        self.end_in(sim, self.after.get(), Phase::Return)
    }

    /// The current step ends `dur` from now, in `phase`: a wake of the
    /// task if it is the last step, else an entry run in place. True (and
    /// no entry) if the end is due at this instant.
    fn end_in(self: &Rc<Self>, sim: &Sim, dur: SimTime, phase: Phase) -> bool {
        if dur == 0 {
            self.due_now(sim, phase);
            return true;
        }
        let last = self.script.borrow().last();
        self.schedule(sim, dur, phase, last);
        false
    }

    /// End the current step: the script's bookkeeping, then release the
    /// reference's processor or the hold's server.
    fn finish(&self) {
        let (at, _) = self.pending.get();
        self.pending.set((at, NO_ENTRY));
        self.script.borrow_mut().finished();
        if self.phase.get() == Phase::Hold {
            self.res().release_one();
        } else if let Some(cpu) = self.cpu.take() {
            cpu.release_one();
        }
        self.phase.set(Phase::Idle);
    }

    /// Poll the awaiting task now, where a wake at this entry would have.
    fn poll_task(&self, sim: &Sim) {
        let waker = self.waker.borrow().clone();
        sim.fire(&waker);
    }

    /// A step's end is due and no poll has seen it. Where that poll would
    /// have taken every fast path (not the last step, the script's
    /// bookkeeping may run in place, the task is ours, idle and
    /// unwatched, and the next step starts), end the step and start the
    /// next one in its place, counting it as the poll it stands in for.
    /// Otherwise poll the task, which ends the step itself.
    fn boundary(self: &Rc<Self>, sim: &Sim) {
        let eligible = {
            let script = self.script.borrow();
            !script.last() && script.in_place() && sim.can_stand_in(&self.waker.borrow())
        };
        if !eligible {
            return self.poll_task(sim);
        }
        self.finish();
        if self.try_start(sim, true) {
            sim.stand_in();
        } else {
            self.poll_task(sim);
        }
    }
}

impl<S: Script> Continuation for Steps<S> {
    fn run(self: Rc<Self>, sim: &Sim, seq: u64) {
        let (at, live) = self.pending.get();
        if seq != live {
            // A step end the task's poll already saw: the wake it stood
            // for still fires, as a `Delay`'s would.
            return self.poll_task(sim);
        }
        self.pending.set((at, NO_ENTRY));
        match self.phase.get() {
            Phase::Travel if self.res().idle() => {
                if self.take_idle(sim) {
                    self.boundary(sim);
                }
            }
            Phase::Travel => {
                self.phase.set(Phase::Arrived);
                self.poll_task(sim);
            }
            Phase::Service => {
                self.res().release_one();
                if self.start_return(sim) {
                    self.boundary(sim);
                }
            }
            Phase::Return | Phase::Hold => self.boundary(sim),
            // Abandoned after its entry left the timer queue.
            Phase::Done => {}
            phase => unreachable!("live entry in phase {phase:?}"),
        }
    }
}

/// A sequence of [`Step`]s run for one task, returned by
/// [`Program::new`], and by [`Resource::access`] and
/// [`Resource::access_between`] as one-step programs. Resolves when the
/// script offers no step the program may run, with the latest step's
/// queueing delay; the task then runs that step itself, or is done.
///
/// Every step makes the accounting, probe hooks and timer registrations
/// of the awaits it replaces, at the same instants and in the same order.
/// The executor runs a reference's arrival and service end itself, and a
/// step's end too, starting the next step in place of the task's poll,
/// when that poll would have taken every fast path; the run counts such
/// a step as the poll it replaces ([`RunStats`](crate::exec::RunStats)).
/// Dropped mid-flight it undoes what those awaits would: a queued waiter
/// is cancelled, a held unit, server or processor released, the pending
/// entry cancelled.
pub struct Program<S: Script> {
    sim: Sim,
    steps: Rc<Steps<S>>,
    /// Our place in a unit's or server's FIFO queue, after arriving at a
    /// busy one.
    queued: Option<Rc<WaitSlot>>,
}

impl<S: Script> Program<S> {
    /// A program running `script` on `sim`; nothing starts before the
    /// first poll.
    pub fn new(sim: &Sim, script: S) -> Self {
        Program {
            sim: sim.clone(),
            steps: Rc::new(Steps {
                script: RefCell::new(script),
                res: RefCell::new(None),
                hold: Cell::new(false),
                cpu: RefCell::new(None),
                service: Cell::new(0),
                after: Cell::new(0),
                phase: Cell::new(Phase::Idle),
                waited: Cell::new(0),
                pending: Cell::new((0, NO_ENTRY)),
                waker: RefCell::new(Waker::noop().clone()),
            }),
            queued: None,
        }
    }

    /// The script, for the task to run a step it declined.
    pub fn script(&self) -> RefMut<'_, S> {
        self.steps.script.borrow_mut()
    }
}

impl<S: Script> Future for Program<S> {
    type Output = SimTime;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<SimTime> {
        let this = self.get_mut();
        let (sim, st) = (&this.sim, &this.steps);
        {
            let mut waker = st.waker.borrow_mut();
            if !waker.will_wake(cx.waker()) {
                *waker = cx.waker().clone();
            }
        }
        loop {
            match st.phase.get() {
                Phase::Idle => {
                    if !st.try_start(sim, false) {
                        return Poll::Ready(st.waited.get());
                    }
                }
                Phase::Arrived => {
                    let waited = match &this.queued {
                        None => {
                            let res = st.res();
                            res.probe_arrival();
                            match res.enter(cx) {
                                Arrival::Served => 0,
                                Arrival::Queued(slot) => {
                                    this.queued = Some(slot);
                                    return Poll::Pending;
                                }
                            }
                        }
                        Some(slot) => match st.res().poll_granted(slot, cx) {
                            Some(waited) => waited,
                            None => return Poll::Pending,
                        },
                    };
                    this.queued = None;
                    st.start_service(sim, waited);
                }
                Phase::Return | Phase::Hold if sim.now() >= st.pending.get().0 => st.finish(),
                _ => return Poll::Pending,
            }
        }
    }
}

impl<S: Script> Drop for Program<S> {
    fn drop(&mut self) {
        let st = &self.steps;
        let (at, seq) = st.pending.get();
        let live = seq != NO_ENTRY;
        if live {
            self.sim.inner.cancel(at, seq);
        }
        match st.phase.get() {
            Phase::Idle | Phase::Done | Phase::Travel => {}
            // A step end stands for a wake of the task: if its entry has
            // already left the timer queue it still fires one, as a
            // cancelled `Delay`'s would. A leg's entry fires nothing.
            Phase::Return => st.pending.set((at, NO_ENTRY)),
            Phase::Arrived => {
                if let Some(slot) = &self.queued {
                    st.res().abandon(slot);
                }
            }
            Phase::Service => st.res().release_one(),
            Phase::Hold => {
                st.res().release_one();
                st.pending.set((at, NO_ENTRY));
            }
        }
        // A reference's processor goes after its unit, as the guard held
        // around the reference would.
        if let Some(cpu) = st.cpu.take() {
            cpu.release_one();
        }
        st.phase.set(Phase::Done);
        // A one-step program's state no entry still holds goes to the
        // free list, emptied of the resource and waker it held, so that
        // nothing in the list refers back to the `Sim`.
        if let Some(steps) = (&mut self.steps as &mut dyn Any).downcast_mut::<Rc<Steps<Single>>>() {
            if let Some(st) = Rc::get_mut(steps) {
                st.res.get_mut().take();
                st.script.get_mut().0 = None;
                *st.waker.get_mut() = Waker::noop().clone();
                self.sim.inner.spare.borrow_mut().push(steps.clone());
            }
        }
    }
}

/// RAII guard for an acquired server; releases (and grants the next FIFO
/// waiter) on drop.
pub struct ResourceGuard {
    res: Resource,
    released: bool,
}

impl ResourceGuard {
    /// Release explicitly (drop also releases).
    pub fn release(mut self) {
        self.res.release_one();
        self.released = true;
    }
}

impl Drop for ResourceGuard {
    fn drop(&mut self) {
        if !self.released {
            self.res.release_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell as StdCell;

    #[test]
    fn uncontended_access_takes_service_time() {
        let sim = Sim::new();
        let res = Resource::new(&sim, "dev", 1);
        let s = sim.clone();
        let waited = sim.block_on(async move { res.access(100).await });
        assert_eq!(waited, 0);
        assert_eq!(s.now(), 100);
    }

    #[test]
    fn contention_serializes_fifo() {
        let sim = Sim::new();
        let res = Resource::new(&sim, "dev", 1);
        let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u32 {
            let r = res.clone();
            let o = order.clone();
            let s = sim.clone();
            sim.spawn(async move {
                // Stagger arrivals by 1ns so the FIFO order is well-defined.
                s.sleep(i as u64).await;
                r.access(100).await;
                o.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
        // Arrival at t=i, service 100 each, serialized: last done ~ 400.
        assert_eq!(sim.now(), 400);
    }

    #[test]
    fn capacity_allows_parallel_service() {
        let sim = Sim::new();
        let res = Resource::new(&sim, "dev", 4);
        for _ in 0..4 {
            let r = res.clone();
            sim.spawn(async move {
                r.access(100).await;
            });
        }
        sim.run();
        assert_eq!(sim.now(), 100, "4 servers serve 4 clients concurrently");
    }

    #[test]
    fn stats_track_utilization_and_wait() {
        let sim = Sim::new();
        let res = Resource::new(&sim, "dev", 1);
        for _ in 0..2 {
            let r = res.clone();
            sim.spawn(async move {
                r.access(100).await;
            });
        }
        sim.run();
        let st = res.stats();
        assert_eq!(st.acquisitions, 2);
        assert_eq!(st.busy_ns, 200);
        assert_eq!(st.total_wait_ns, 100); // second client queued 100ns
        assert!((st.utilization(sim.now()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn attached_queue_probe_observes_depth_and_wait() {
        let sim = Sim::new();
        let res = Resource::new(&sim, "dev", 1);
        let probe = bfly_probe::Probe::new();
        res.attach_probe(probe.mem_queue(0));
        for _ in 0..3 {
            let r = res.clone();
            sim.spawn(async move {
                r.access(100).await;
            });
        }
        sim.run();
        let q = probe.mem_queue_stats(0);
        assert_eq!(q.arrivals.get(), 3);
        assert_eq!(q.served.get(), 3);
        // Arrival depths: 0, 1 (one in service), 2 (one in service + one queued).
        assert_eq!(q.depth_hist[0].get(), 1);
        assert_eq!(q.depth_hist[1].get(), 1);
        assert_eq!(q.depth_hist[2].get(), 1);
        assert_eq!(q.max_depth.get(), 2);
        assert_eq!(q.busy_ns.get(), 300);
        assert_eq!(q.wait_ns.get(), 100 + 200);
        // The probe mirrored, not replaced, the resource's own stats.
        let st = res.stats();
        assert_eq!(st.total_wait_ns, 300);
        res.detach_probe();
        let r = res.clone();
        sim.spawn(async move {
            r.access(10).await;
        });
        sim.run();
        assert_eq!(q.arrivals.get(), 3, "detached probe sees nothing");
    }

    /// Completion instants and resource statistics of `clients` tasks
    /// each making one travel/hold/travel reference on a `capacity`-server
    /// resource, either fused or as three separate awaits; plus polls.
    /// Both modes attach a queue probe, so the probe hooks run the same way.
    fn legs_run(fused: bool, capacity: usize, clients: u64) -> (Vec<SimTime>, ResourceStats, u64) {
        let sim = Sim::new();
        let res = Resource::new(&sim, "mem", capacity);
        let probe = bfly_probe::Probe::new();
        res.attach_probe(probe.mem_queue(0));
        let done: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..clients {
            let (s, r, d) = (sim.clone(), res.clone(), done.clone());
            sim.spawn(async move {
                // Staggered issues, some colliding on the same instant.
                s.sleep(i / 2 * 30).await;
                let (before, service, after) = (200 + i % 3 * 50, 100, 300);
                if fused {
                    r.access_between(before, service, after).await;
                } else {
                    s.sleep(before).await;
                    r.access(service).await;
                    s.sleep(after).await;
                }
                d.borrow_mut().push(s.now());
            });
        }
        let stats = sim.run();
        let q = probe.mem_queue_stats(0);
        assert_eq!(q.arrivals.get(), clients);
        let done = done.borrow().clone();
        (done, res.stats(), stats.events)
    }

    #[test]
    fn access_between_matches_three_awaits_with_fewer_polls() {
        for capacity in [1, 2] {
            let (t_fused, st_fused, ev_fused) = legs_run(true, capacity, 12);
            let (t_plain, st_plain, ev_plain) = legs_run(false, capacity, 12);
            assert_eq!(t_fused, t_plain, "capacity {capacity}");
            assert_eq!(st_fused, st_plain, "capacity {capacity}");
            assert!(ev_fused < ev_plain, "{ev_fused} polls vs {ev_plain}");
        }
    }

    #[test]
    fn uncontended_access_between_polls_only_to_start_and_return() {
        let sim = Sim::new();
        let res = Resource::new(&sim, "dev", 1);
        let s = sim.clone();
        let waited = sim.block_on(async move { res.access_between(100, 50, 25).await });
        assert_eq!((waited, s.now()), (0, 175));
        let again = sim.run();
        assert_eq!(again.events, 2, "issue poll + return poll");
    }

    #[test]
    fn access_between_zero_legs_resolve_in_place() {
        for (before, service, after) in [(0, 0, 0), (0, 40, 0), (10, 0, 0), (0, 0, 7), (5, 6, 0)] {
            let sim = Sim::new();
            let res = Resource::new(&sim, "dev", 1);
            let r = res.clone();
            let s = sim.clone();
            sim.block_on(async move { r.access_between(before, service, after).await });
            assert_eq!(
                s.now(),
                before + service + after,
                "{before}/{service}/{after}"
            );
            assert_eq!(res.in_service(), 0);
            assert_eq!(res.stats().acquisitions, 1);
        }
    }

    #[test]
    fn access_between_under_a_foreign_waker() {
        // The legs' wakes (a busy arrival, the return) must go through a
        // combinator's own waker.
        use crate::exec::tests::Foreign;
        let sim = Sim::new();
        let res = Resource::new(&sim, "dev", 1);
        for i in 0..3u64 {
            let (r, s) = (res.clone(), sim.clone());
            sim.spawn(async move {
                let waited = Foreign(Box::pin(r.access_between(10, 100, 20))).await;
                assert_eq!((waited, s.now()), (100 * i, 130 + 100 * i));
            });
        }
        assert_eq!(sim.run().outcome, crate::exec::RunOutcome::Completed);
        assert_eq!(res.stats().total_wait_ns, 100 + 200);
    }

    /// Holds `res` for each of `holds`, in order; offers every step.
    struct Holds {
        res: Resource,
        holds: Vec<SimTime>,
        done: usize,
    }

    impl Script for Holds {
        fn next(&self) -> Option<Step> {
            self.holds.get(self.done).map(|&service| Step::Hold {
                res: self.res.clone(),
                service,
            })
        }
        fn started(&mut self) {}
        fn finished(&mut self) {
            self.done += 1;
        }
        fn last(&self) -> bool {
            self.done + 1 == self.holds.len()
        }
        fn in_place(&self) -> bool {
            true
        }
    }

    /// `(end, events, polls, stats)` of one task holding `cpu` for 300
    /// then 200 ns, as a program or as two `access` awaits.
    fn holds_run(program: bool) -> (SimTime, u64, u64, ResourceStats) {
        let sim = Sim::new();
        let cpu = Resource::new(&sim, "cpu", 1);
        let (s, r) = (sim.clone(), cpu.clone());
        sim.spawn(async move {
            if program {
                let holds = Holds {
                    res: r,
                    holds: vec![300, 200],
                    done: 0,
                };
                Program::new(&s, holds).await;
            } else {
                r.access(300).await;
                r.access(200).await;
            }
        });
        let st = sim.run();
        (st.end_time, st.events, st.polls, cpu.stats())
    }

    #[test]
    fn an_in_place_step_counts_one_event_and_no_poll() {
        let (end, events, polls, stats) = holds_run(true);
        let plain = holds_run(false);
        assert_eq!((end, events, &stats), (plain.0, plain.1, &plain.3));
        assert_eq!((events, plain.2), (3, 3), "start, first end, second end");
        assert_eq!(polls, 2, "the first hold's end ran in place of a poll");
    }

    #[test]
    fn one_step_programs_reuse_their_state_and_free_the_sim() {
        let sim = Sim::new();
        let res = Resource::new(&sim, "dev", 1);
        let (r, s) = (res.clone(), sim.clone());
        sim.block_on(async move {
            // Dropped with its travel leg pending: the entry still holds
            // the state, so it is not reused.
            let _ = s.timeout(2, r.access_between(5, 10, 5)).await;
            for _ in 0..3 {
                r.access(10).await;
                r.access_between(5, 10, 5).await;
            }
        });
        assert_eq!(sim.inner.spare.borrow().len(), 1, "one state served all");
        let inner = Rc::downgrade(&sim.inner);
        sim.run();
        drop((sim, res));
        assert!(
            inner.upgrade().is_none(),
            "the free list kept its Sim alive"
        );
    }

    #[test]
    fn guard_drop_releases() {
        let sim = Sim::new();
        let res = Resource::new(&sim, "dev", 1);
        let got = Rc::new(StdCell::new(false));
        {
            let r = res.clone();
            let s = sim.clone();
            sim.spawn(async move {
                let g = r.acquire().await;
                s.sleep(50).await;
                drop(g);
            });
        }
        {
            let r = res.clone();
            let g2 = got.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(1).await;
                let _g = r.acquire().await;
                g2.set(true);
            });
        }
        sim.run();
        assert!(got.get());
    }

    #[test]
    fn cancelled_waiter_is_skipped() {
        let sim = Sim::new();
        let res = Resource::new(&sim, "dev", 1);
        let winner = Rc::new(StdCell::new(0u32));

        // Task A holds the resource for 100ns.
        {
            let r = res.clone();
            sim.spawn(async move {
                r.access(100).await;
            });
        }
        // Task B queues but gives up (drops the acquire future) at t=10.
        {
            let r = res.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(1).await;
                let acq = r.acquire();
                // Race the acquire against a 9ns timeout; timeout wins.
                let mut acq = Box::pin(acq);
                let mut timeout = Box::pin(s.sleep(9));
                std::future::poll_fn(|cx| {
                    if Pin::new(&mut timeout).poll(cx).is_ready() {
                        return Poll::Ready(());
                    }
                    if Pin::new(&mut acq).poll(cx).is_ready() {
                        panic!("resource should still be held");
                    }
                    Poll::Pending
                })
                .await;
                drop(acq); // cancel while queued
            });
        }
        // Task C queues behind B and must still get the grant.
        {
            let r = res.clone();
            let s = sim.clone();
            let w = winner.clone();
            sim.spawn(async move {
                s.sleep(2).await;
                let _g = r.acquire().await;
                w.set(3);
            });
        }
        let stats = sim.run();
        assert_eq!(stats.outcome, crate::exec::RunOutcome::Completed);
        assert_eq!(winner.get(), 3);
    }
}
