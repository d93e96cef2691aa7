//! Property-based tests for the simulation engine: determinism, FIFO
//! resource discipline, channel ordering, virtual-time monotonicity, and
//! `Resource::access` against its definition, under arbitrary workloads.

use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use bfly_sim::exec::RunOutcome;
use bfly_sim::{Resource, ResourceStats, Sim, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any batch of sleeping tasks completes, and completion order is
    /// sorted by (wake time, spawn order).
    #[test]
    fn sleepers_finish_in_time_order(delays in proptest::collection::vec(0u64..10_000, 1..40)) {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &d) in delays.iter().enumerate() {
            let s = sim.clone();
            let log = log.clone();
            sim.spawn(async move {
                s.sleep(d).await;
                log.borrow_mut().push((s.now(), i));
            });
        }
        let stats = sim.run();
        prop_assert_eq!(stats.outcome, RunOutcome::Completed);
        let log = log.borrow();
        prop_assert_eq!(log.len(), delays.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time must be monotone");
        }
        // Each task woke exactly at its delay.
        for &(t, i) in log.iter() {
            prop_assert_eq!(t, delays[i]);
        }
    }

    /// A capacity-1 resource serves FIFO: with distinct arrival times,
    /// service order equals arrival order, and total busy time is the sum
    /// of service times.
    #[test]
    fn resource_is_fifo_and_conserves_time(
        jobs in proptest::collection::vec((0u64..500, 1u64..300), 1..25)
    ) {
        let sim = Sim::new();
        let res = Resource::new(&sim, "dev", 1);
        let order: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        // Make arrivals distinct by spacing them with the index.
        for (i, &(arrive, service)) in jobs.iter().enumerate() {
            let s = sim.clone();
            let r = res.clone();
            let order = order.clone();
            let t_arrive = arrive * 997 + i as u64;
            sim.spawn(async move {
                s.sleep(t_arrive).await;
                r.access(service).await;
                order.borrow_mut().push(i);
            });
        }
        let stats = sim.run();
        prop_assert_eq!(stats.outcome, RunOutcome::Completed);
        // FIFO by arrival time.
        let mut by_arrival: Vec<usize> = (0..jobs.len()).collect();
        by_arrival.sort_by_key(|&i| jobs[i].0 * 997 + i as u64);
        prop_assert_eq!(&*order.borrow(), &by_arrival);
        // Busy-time conservation.
        let st = res.stats();
        prop_assert_eq!(st.busy_ns, jobs.iter().map(|j| j.1).sum::<u64>());
        prop_assert_eq!(st.acquisitions, jobs.len() as u64);
    }

    /// With capacity >= number of jobs, nothing ever waits.
    #[test]
    fn ample_capacity_never_queues(
        services in proptest::collection::vec(1u64..1000, 1..20)
    ) {
        let sim = Sim::new();
        let res = Resource::new(&sim, "dev", 32);
        for &s in &services {
            let r = res.clone();
            sim.spawn(async move {
                let waited = r.access(s).await;
                assert_eq!(waited, 0);
            });
        }
        sim.run();
        prop_assert_eq!(res.stats().total_wait_ns, 0);
        // All run concurrently: elapsed = max service.
        prop_assert_eq!(sim.now(), *services.iter().max().unwrap());
    }

    /// Channels deliver every message exactly once, FIFO per sender.
    #[test]
    fn channel_delivers_all_fifo(
        sends in proptest::collection::vec(0u64..100, 1..50)
    ) {
        let sim = Sim::new();
        let ch = bfly_sim::Channel::new();
        let got: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let n = sends.len();
        {
            let ch = ch.clone();
            let got = got.clone();
            sim.spawn(async move {
                for _ in 0..n {
                    let v = ch.recv().await;
                    got.borrow_mut().push(v);
                }
            });
        }
        {
            let ch = ch.clone();
            let s = sim.clone();
            let sends = sends.clone();
            sim.spawn(async move {
                for (i, &gap) in sends.iter().enumerate() {
                    s.sleep(gap).await;
                    ch.send(i as u64);
                }
            });
        }
        let stats = sim.run();
        prop_assert_eq!(stats.outcome, RunOutcome::Completed);
        prop_assert_eq!(&*got.borrow(), &(0..n as u64).collect::<Vec<_>>());
    }

    /// Determinism: any workload of jittered sleepers ends at the same
    /// time for the same seed, across repeated runs.
    #[test]
    fn same_seed_same_end(seed in 0u64..1000, n in 1usize..30) {
        fn run(seed: u64, n: usize) -> (u64, u64) {
            let sim = Sim::with_seed(seed);
            for i in 0..n {
                let s = sim.clone();
                sim.spawn(async move {
                    let d = s.with_rng(|r| r.jitter(1_000 + i as u64 * 13, 30));
                    s.sleep(d).await;
                });
            }
            let st = sim.run();
            (st.end_time, st.events)
        }
        prop_assert_eq!(run(seed, n), run(seed, n));
    }
}

/// A combinator that polls its inner future with a waker of its own,
/// relaying wakes to the task's, so the executor sees a foreign waker.
struct Foreign<F>(F);

struct Relay(Waker);

impl Wake for Relay {
    fn wake(self: Arc<Self>) {
        self.0.wake_by_ref();
    }
}

impl<F: Future + Unpin> Future for Foreign<F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let w = Waker::from(Arc::new(Relay(cx.waker().clone())));
        Pin::new(&mut self.0).poll(&mut Context::from_waker(&w))
    }
}

type Hold = Pin<Box<dyn Future<Output = SimTime>>>;

/// Races `fut` against a deadline `dur` from now. Unlike `Sim::timeout`,
/// the deadline wins every tie after the first poll: a hold whose end
/// entry polled the task at the deadline instant is dropped unseen.
async fn deadline_first(s: &Sim, dur: SimTime, mut fut: Hold) -> Option<SimTime> {
    let mut timer = s.sleep(dur);
    let mut first = true;
    poll_fn(move |cx| {
        if !std::mem::take(&mut first) && Pin::new(&mut timer).poll(cx).is_ready() {
            return Poll::Ready(None);
        }
        if let Poll::Ready(waited) = fut.as_mut().poll(cx) {
            return Poll::Ready(Some(waited));
        }
        Pin::new(&mut timer).poll(cx).map(|()| None)
    })
    .await
}

/// One client: `(arrival, service, wrap, deadline, waker)`. `wrap` 0
/// awaits the hold, 1 races it in `Sim::timeout`, 2 in
/// [`deadline_first`]; `waker` 1 polls the hold, 2 the whole race, under
/// a [`Foreign`] waker.
type Client = (u64, u64, u64, u64, u64);

/// What a run of [`hold_run`] observed: per client, the instant its hold
/// ended or was dropped and its queueing delay (`None` if dropped); the
/// resource's stats, servers in service and live waiters at the end; the
/// run's outcome, events and task polls.
type Observed = (
    Vec<(SimTime, Option<SimTime>)>,
    ResourceStats,
    usize,
    usize,
    RunOutcome,
    u64,
    u64,
);

/// Runs `clients` on a `capacity`-server resource, each holding it by
/// `access`, or by its definition: acquire, sleep, drop the guard.
fn hold_run(by_definition: bool, capacity: usize, clients: &[Client]) -> Observed {
    let sim = Sim::new();
    let res = Resource::new(&sim, "dev", capacity);
    let done = Rc::new(RefCell::new(vec![(0, None); clients.len()]));
    for (i, &(at, service, wrap, deadline, waker)) in clients.iter().enumerate() {
        let (s, r, d) = (sim.clone(), res.clone(), done.clone());
        sim.spawn(async move {
            s.sleep(at).await;
            let mut hold: Hold = if by_definition {
                let s = s.clone();
                Box::pin(async move {
                    let t0 = s.now();
                    let g = r.acquire().await;
                    let waited = s.now() - t0;
                    s.sleep(service).await;
                    drop(g);
                    waited
                })
            } else {
                Box::pin(r.access(service))
            };
            if waker == 1 {
                hold = Box::pin(Foreign(hold));
            }
            let race: Pin<Box<dyn Future<Output = Option<SimTime>>>> = match wrap {
                0 => Box::pin(async move { Some(hold.await) }),
                1 => Box::pin(async { s.timeout(deadline, hold).await.ok() }),
                _ => Box::pin(deadline_first(&s, deadline, hold)),
            };
            let got = if waker == 2 {
                Foreign(race).await
            } else {
                race.await
            };
            d.borrow_mut()[i] = (s.now(), got);
            // A wake the dropped hold left behind polls a live task.
            s.sleep(5).await;
        });
    }
    let run = sim.run();
    let done = done.borrow().clone();
    (
        done,
        res.stats(),
        res.in_service(),
        res.queue_len(),
        run.outcome,
        run.events,
        run.polls,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `access(s)` is `let g = acquire().await; sleep(s).await; drop(g)`:
    /// the same completion instants, queueing delays, statistics, events
    /// and polls, whether it completes or is dropped while queued,
    /// mid-hold, or after its end's wake has fired, under own and foreign
    /// wakers.
    #[test]
    fn access_is_acquire_sleep_release(
        capacity in 1usize..4,
        clients in proptest::collection::vec(
            (0u64..8, 0u64..6, 0u64..3, 0u64..21, 0u64..3),
            1..21,
        ),
    ) {
        // Arrivals 25 ns apart, many colliding; services of 0 to 200 ns;
        // deadlines 0 to 400 ns, on the same 20 ns grid as service ends.
        let clients: Vec<Client> = clients
            .iter()
            .map(|&(at, svc, wrap, dl, waker)| (at * 25, svc * 40, wrap, dl * 20, waker))
            .collect();
        let program = hold_run(false, capacity, &clients);
        let definition = hold_run(true, capacity, &clients);
        prop_assert_eq!(program, definition);
    }
}
