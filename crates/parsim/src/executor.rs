//! The SPMD executor: cooperatively scheduled fibers, one per virtual rank.

use std::cell::RefCell;
use std::rc::Rc;

use crate::chaos::Perturbation;
use crate::comm::Comm;
use crate::deadlock::DeadlockError;
use crate::fiber::{Fiber, FiberStack};
use crate::sched::SchedState;
use crate::trace::{Hop, TraceEvent};
use crate::MachineModel;

thread_local! {
    /// Fiber stacks of finished steps, reused by every later step on this
    /// thread, whichever session runs it: a session lives for one cycle,
    /// and its ranks run on the stacks whose top pages earlier sessions
    /// already faulted in instead of touching fresh ones. A step short of
    /// stacks carves the shortfall as one slab; the pool owns its slabs
    /// through its stacks, and clearing it (or the thread ending) frees
    /// them.
    static STACK_POOL: RefCell<Vec<FiberStack>> = const { RefCell::new(Vec::new()) };
}

/// Result of one rank's execution: its return value plus communication and
/// virtual-time statistics.
#[derive(Debug)]
pub struct RankResult<T> {
    /// Rank id.
    pub rank: usize,
    /// The value returned by the rank body.
    pub value: T,
    /// Final virtual time on this rank, in seconds.
    pub elapsed: f64,
    /// Number of point-to-point messages this rank sent (collectives
    /// included).
    pub sent_messages: u64,
    /// Number of words this rank sent.
    pub sent_words: u64,
    /// The rank's structured event stream (see [`crate::trace`]); gather the
    /// streams of a whole run with [`crate::TraceLog::from_results`].
    pub events: Vec<TraceEvent>,
    /// The hops the stream's records name by position, in charge order.
    pub hops: Vec<Hop>,
}

/// A persistent SPMD machine: `nranks` communication contexts whose virtual
/// clocks, mailboxes, and send counters survive across multiple
/// [`Session::run`] steps.
///
/// This is what lets a whole adaption cycle execute as ONE continuous
/// parallel program: each phase is a step, and virtual time flows forward
/// from step to step instead of restarting at zero per phase. At the end of
/// every step the host aligns all rank clocks to the slowest rank (an
/// implicit barrier between phases), recording the idle on each faster rank
/// as a [`TraceEvent::Sync`](crate::trace::TraceEvent) so the per-rank trace
/// still accounts for its full elapsed time exactly.
///
/// [`spmd`] and [`spmd_with_args`] are single-step sessions.
///
/// ## Execution model
///
/// Each rank body runs as a stackful fiber (see `fiber.rs`) on the
/// calling thread; a central run queue keyed by virtual time (ties broken
/// by rank id) dispatches whichever rank is runnable next, and a blocking
/// receive suspends the fiber instead of parking an OS thread. A
/// collective suspends each rank once, at a rendezvous whose last arrival
/// prices the whole schedule (see `sched.rs`). Memory and scheduling cost
/// are O(ranks + messages), so four-digit rank counts run on a laptop.
/// Fiber stacks are pooled per thread and reused across steps and
/// sessions.
///
/// ## Chaos
///
/// [`Session::with_chaos`] builds a perturbed machine: per-rank compute
/// multipliers and per-link latency jitter from a [`Perturbation`]. A
/// perturbation touches only virtual time — message contents and ordering
/// are untouched, so algorithmic results are invariant under any seed.
///
/// ## Deadlock detection
///
/// Blocking is cooperative, so detection is exact: when the run queue
/// empties while unfinished ranks remain (blocked in a receive, or waiting
/// at a collective some rank never reaches), the step is provably stuck and
/// [`Session::try_run`] returns a structured [`DeadlockError`] naming the
/// blocked-on cycle — immediately and deterministically, with no timeouts
/// or heuristics. [`Session::run`] panics with the same diagnosis. After a
/// deadlock the session is poisoned (rank state is mid-protocol) and
/// cannot run further steps.
pub struct Session {
    nranks: usize,
    model: MachineModel,
    /// The per-rank contexts, parked host-side between steps.
    comms: Vec<Comm>,
    /// The cooperative scheduler (also held by every `Comm`).
    sched: Rc<RefCell<SchedState>>,
    /// Set after a deadlock or a rank panic: rank state is mid-protocol,
    /// so no further steps can run.
    poisoned: bool,
}

impl Session {
    /// Build the rank contexts and the scheduler with one (empty) mailbox
    /// per rank. All clocks start at zero. The machine is unperturbed.
    pub fn new(nranks: usize, model: MachineModel) -> Self {
        Self::with_chaos(nranks, model, &Perturbation::none(nranks))
    }

    /// Like [`Session::new`], but on a perturbed machine.
    /// `Perturbation::none(nranks)` reproduces the unperturbed session
    /// bit-exactly.
    ///
    /// Panics, naming the rank, on a compute multiplier that is not finite
    /// and positive.
    pub fn with_chaos(nranks: usize, model: MachineModel, perturb: &Perturbation) -> Self {
        assert!(nranks >= 1, "need at least one rank");
        assert_eq!(perturb.profile.len(), nranks, "one multiplier per rank");
        for (rank, &m) in perturb.profile.iter().enumerate() {
            assert!(
                m.is_finite() && m > 0.0,
                "rank {rank}: compute multiplier {m} must be finite and > 0"
            );
        }
        let sched = Rc::new(RefCell::new(SchedState::new(nranks)));
        let comms = (0..nranks)
            .map(|rank| Comm::new(rank, model, sched.clone(), perturb))
            .collect();
        Session {
            nranks,
            model,
            comms,
            sched,
            poisoned: false,
        }
    }

    /// Number of ranks in the session.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The machine cost model in effect.
    #[inline]
    pub fn model(&self) -> MachineModel {
        self.model
    }

    /// Current virtual time of the session. Between steps all rank clocks
    /// are aligned, so this is both the common time and the makespan so far.
    pub fn now(&self) -> f64 {
        self.comms.iter().map(|c| c.now()).fold(0.0, f64::max)
    }

    /// Run a *modeled* phase without spawning threads: rank `r`'s clock is
    /// charged `seconds[r]` inside a phase span named `name`, then all
    /// clocks align to the slowest rank (the sync idle lands inside the
    /// span, so the span covers the same interval on every rank). Returns
    /// per-rank results exactly like [`Session::run`] — the phase duration
    /// is `max(seconds)` and each `elapsed` is the aligned session time.
    pub fn modeled_phase(&mut self, name: &'static str, seconds: &[f64]) -> Vec<RankResult<()>> {
        assert_eq!(seconds.len(), self.nranks, "one cost per rank");
        assert!(
            !self.poisoned,
            "session was poisoned by a deadlock or rank panic"
        );
        for (c, &s) in self.comms.iter_mut().zip(seconds) {
            c.phase_begin(name);
            c.advance(s);
        }
        let t_max = self.now();
        let mut results = Vec::with_capacity(self.nranks);
        for c in &mut self.comms {
            c.sync_to(t_max);
            c.phase_end(name);
            results.push(c.result(()));
        }
        results
    }

    /// Run one step: `body` executes on every rank (one cooperatively
    /// scheduled fiber each), continuing from the clocks/counters left by
    /// previous steps. Panics in any rank propagate.
    ///
    /// On return, all clocks are aligned to the slowest rank, so each
    /// [`RankResult::elapsed`] equals the session's total virtual time so
    /// far; per-step durations are differences of `Session::now` across
    /// steps. `sent_messages` / `sent_words` are cumulative over the
    /// session; the event stream contains only this step's events.
    pub fn run<A, T, F>(&mut self, args: Vec<A>, body: F) -> Vec<RankResult<T>>
    where
        A: Send,
        T: Send,
        F: Fn(&mut Comm, A) -> T + Send + Sync,
    {
        self.try_run(args, body).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Session::run`], but a deadlocked step returns
    /// `Err(DeadlockError)` — detected exactly and immediately when the run
    /// queue empties with blocked ranks remaining — instead of panicking.
    /// Non-deadlock panics in rank bodies still propagate (first panic in
    /// rank order). After an `Err` the session is poisoned: rank state is
    /// mid-protocol, so further steps panic.
    pub fn try_run<A, T, F>(
        &mut self,
        args: Vec<A>,
        body: F,
    ) -> Result<Vec<RankResult<T>>, DeadlockError>
    where
        A: Send,
        T: Send,
        F: Fn(&mut Comm, A) -> T + Send + Sync,
    {
        assert_eq!(args.len(), self.nranks, "one argument per rank");
        assert!(
            !self.poisoned,
            "session was poisoned by a deadlock or rank panic"
        );
        self.sched.borrow_mut().reset_for_step();

        // Per-rank argument and output slots, sized once: the addresses the
        // fibers reach them through stay stable.
        let n = self.nranks;
        let mut args: Vec<Option<A>> = args.into_iter().map(Some).collect();
        let mut values: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let start_times: Vec<f64> = self.comms.iter().map(|c| c.now()).collect();

        // One body for every rank's fiber, handed its rank: it touches
        // exactly that rank's `Comm` and slots, through raw pointers. The
        // fibers all finish (normally or by abort-unwind) before this frame
        // returns, which is what makes the borrow erasure in `Fiber::new`
        // sound — the same containment argument as `std::thread::scope`.
        // `fibers` is declared after the slots and `rank_body`, so an unwind
        // drops (and thereby aborts) the fibers first.
        let (comms, arg_slots, out_slots) = (
            self.comms.as_mut_ptr(),
            args.as_mut_ptr(),
            values.as_mut_ptr(),
        );
        let rank_body = |rank: usize| {
            // SAFETY: this fiber is the only accessor of its rank's `Comm`
            // and slots while it runs, and all three outlive the fiber.
            unsafe {
                let arg = (*arg_slots.add(rank))
                    .take()
                    .expect("a rank runs once a step");
                *out_slots.add(rank) = Some(body(&mut *comms.add(rank), arg));
            }
        };
        let mut fibers: Vec<Fiber> = STACK_POOL.with_borrow_mut(|pool| {
            if pool.len() < n {
                pool.extend(FiberStack::slab(n - pool.len()));
            }
            let stacks = pool.drain(pool.len() - n..).enumerate();
            // SAFETY: `rank_body` and all it borrows outlive the fibers,
            // which finish before this frame returns (containment above).
            stacks
                .map(|(rank, stack)| unsafe { Fiber::new(stack, &rank_body, rank) })
                .collect()
        });

        // Seed the run queue with every rank at its current virtual time,
        // then dispatch until nobody is runnable: either all ranks
        // finished, or the step is provably stuck.
        {
            let mut sched = self.sched.borrow_mut();
            for (rank, &t) in start_times.iter().enumerate() {
                sched.push_runnable(rank, t);
            }
        }
        loop {
            let next = self.sched.borrow_mut().pop_runnable();
            let Some(rank) = next else { break };
            if fibers[rank].resume() {
                // The body returned (or panicked): this rank can no longer
                // send this step, which the deadlock diagnosis relies on.
                self.sched.borrow_mut().mark_done(rank);
            }
        }

        // A real panic beats a deadlock verdict: the first one in rank order
        // propagates. Run queue empty + unfinished ranks is an exact
        // deadlock, reported from the activity table. Either poisons the
        // session; then the stuck fibers unwind quietly, and every stack
        // goes back to the pool.
        let panic = fibers.iter_mut().find_map(|f| f.take_panic());
        let stuck = panic.is_none() && fibers.iter().any(|f| !f.is_done());
        let deadlock = stuck.then(|| self.sched.borrow().deadlock_report());
        if panic.is_some() || stuck {
            self.poison();
        }
        fibers.iter_mut().for_each(Fiber::abort);
        STACK_POOL.with_borrow_mut(|pool| pool.extend(fibers.into_iter().map(Fiber::into_stack)));
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        if let Some(err) = deadlock {
            return Err(err);
        }

        let t_max = self.comms.iter().map(|c| c.now()).fold(0.0, f64::max);
        let mut results = Vec::with_capacity(n);
        for (comm, value) in self.comms.iter_mut().zip(values) {
            comm.sync_to(t_max);
            results.push(comm.result(value.expect("every completed rank wrote its value")));
        }
        Ok(results)
    }

    /// Mark the session unusable (deadlock or rank panic mid-step) and drop
    /// undelivered messages.
    fn poison(&mut self) {
        self.poisoned = true;
        self.sched.borrow_mut().clear_queues();
    }
}

/// Run `body` on `nranks` virtual ranks (one cooperatively scheduled fiber
/// each) under the given machine model. Returns the per-rank results
/// ordered by rank.
///
/// The body receives a [`Comm`] for messaging, collectives, and virtual-time
/// charging. Panics in any rank propagate. This is a single-step [`Session`]:
/// all rank clocks are aligned at the end, so every `elapsed` equals the
/// program's makespan.
pub fn spmd<T, F>(nranks: usize, model: MachineModel, body: F) -> Vec<RankResult<T>>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Send + Sync,
{
    spmd_with_args(
        nranks,
        model,
        (0..nranks).map(|_| ()).collect(),
        |comm, ()| body(comm),
    )
}

/// Like [`spmd`], but moves a per-rank argument into each rank body. This is
/// how distributed data (e.g. one submesh per rank) enters the machine.
pub fn spmd_with_args<A, T, F>(
    nranks: usize,
    model: MachineModel,
    args: Vec<A>,
    body: F,
) -> Vec<RankResult<T>>
where
    A: Send,
    T: Send,
    F: Fn(&mut Comm, A) -> T + Send + Sync,
{
    Session::new(nranks, model).run(args, body)
}

/// Like [`spmd`], but a deadlocked program returns `Err(DeadlockError)`
/// (with per-rank blocked-on diagnosis) immediately and deterministically
/// instead of hanging. This is how tests assert that a communication
/// pattern deadlocks.
pub fn try_spmd<T, F>(
    nranks: usize,
    model: MachineModel,
    body: F,
) -> Result<Vec<RankResult<T>>, DeadlockError>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Send + Sync,
{
    Session::new(nranks, model).try_run((0..nranks).map(|_| ()).collect(), |comm, ()| body(comm))
}

/// Maximum virtual time over all ranks — the simulated wall-clock time of the
/// SPMD program.
pub fn makespan<T>(results: &[RankResult<T>]) -> f64 {
    results.iter().map(|r| r.elapsed).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Perturbation;
    use crate::deadlock::RankActivity;

    #[test]
    fn single_rank_runs() {
        let r = spmd(1, MachineModel::zero(), |comm| comm.rank() * 10);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].value, 0);
        assert_eq!(r[0].elapsed, 0.0);
    }

    #[test]
    fn ranks_see_distinct_ids() {
        let r = spmd(8, MachineModel::zero(), |comm| comm.rank());
        let ids: Vec<_> = r.iter().map(|x| x.value).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ping_pong_transfers_data_and_time() {
        let model = MachineModel::sp2();
        let r = spmd(2, model, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, 100, vec![1u32, 2, 3]);
                comm.recv::<u64>(1, 8)
            } else {
                let v = comm.recv::<Vec<u32>>(0, 7);
                comm.send(0, 8, 1, v.iter().map(|&x| x as u64).sum::<u64>());
                0
            }
        });
        assert_eq!(r[0].value, 6);
        // Rank 0's clock must include two transfers.
        let one_way = model.transfer_time(100);
        let way_back = model.transfer_time(1);
        assert!(r[0].elapsed >= one_way + way_back - 1e-12);
    }

    #[test]
    fn self_send_works() {
        let r = spmd(1, MachineModel::zero(), |comm| {
            comm.send(0, 1, 4, 99u8);
            comm.recv::<u8>(0, 1)
        });
        assert_eq!(r[0].value, 99);
    }

    #[test]
    fn per_rank_arguments_are_moved_in() {
        let args: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64; i + 1]).collect();
        let r = spmd_with_args(4, MachineModel::zero(), args, |_, a| a.iter().sum::<u64>());
        assert_eq!(
            r.iter().map(|x| x.value).collect::<Vec<_>>(),
            vec![0, 2, 6, 12]
        );
    }

    #[test]
    fn barrier_synchronizes_virtual_clocks() {
        let model = MachineModel::sp2();
        let r = spmd(4, model, |comm| {
            if comm.rank() == 2 {
                comm.advance(5.0); // one slow rank
            }
            comm.barrier();
            comm.now()
        });
        for res in &r {
            assert!(
                res.value >= 5.0,
                "rank {} exited the barrier at t={} before the slow rank",
                res.rank,
                res.value
            );
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for root in 0..5 {
            let r = spmd(5, MachineModel::sp2(), move |comm| {
                let v = if comm.rank() == root {
                    Some(vec![root as u32; 3])
                } else {
                    None
                };
                comm.bcast(root, 3, v)
            });
            for res in &r {
                assert_eq!(*res.value, vec![root as u32; 3]);
            }
        }
    }

    #[test]
    fn gather_and_scatter_roundtrip() {
        let r = spmd(6, MachineModel::sp2(), |comm| {
            let g = comm.gather(2, 1, comm.rank() as u64 * 3);
            let back = if comm.rank() == 2 {
                let v = g.unwrap();
                assert_eq!(v, vec![0, 3, 6, 9, 12, 15]);
                Some(v.into_iter().map(|x| (1, x + 1)).collect::<Vec<_>>())
            } else {
                assert!(g.is_none());
                None
            };
            comm.scatterv(2, back)
        });
        for (i, res) in r.iter().enumerate() {
            assert_eq!(res.value, i as u64 * 3 + 1);
        }
    }

    #[test]
    fn barrier_and_alltoallv_at_odd_rank_counts() {
        for p in [3, 5, 7] {
            let r = spmd(p, MachineModel::sp2(), move |comm| {
                comm.advance(comm.rank() as f64 * 0.25); // skew the clocks
                comm.barrier();
                let items: Vec<(u64, (usize, usize))> =
                    (0..p).map(|d| (2, (comm.rank(), d))).collect();
                comm.alltoallv(items)
            });
            for (d, res) in r.iter().enumerate() {
                for (s, got) in res.value.iter().enumerate() {
                    assert_eq!(*got, (s, d), "P={p}, slot {s} on rank {d}");
                }
            }
        }
    }

    #[test]
    fn gather_and_scatter_from_every_nonzero_root() {
        for p in [3, 5, 7] {
            for root in 1..p {
                let r = spmd(p, MachineModel::sp2(), move |comm| {
                    let g = comm.gather(root, 1, comm.rank() as u64 * 2);
                    if comm.rank() == root {
                        assert_eq!(
                            g.unwrap(),
                            (0..p as u64).map(|x| x * 2).collect::<Vec<_>>(),
                            "gather to root {root} at P={p}"
                        );
                    } else {
                        assert!(g.is_none());
                    }
                    let vals = (comm.rank() == root).then(|| {
                        (0..p)
                            .map(|d| (1, (d * 10 + root) as u64))
                            .collect::<Vec<_>>()
                    });
                    comm.scatterv(root, vals)
                });
                for (d, res) in r.iter().enumerate() {
                    assert_eq!(
                        res.value,
                        (d * 10 + root) as u64,
                        "scatter root {root} P={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn allgather_collects_everything_everywhere() {
        let r = spmd(7, MachineModel::sp2(), |comm| {
            comm.allgather(1, comm.rank() as u32)
        });
        for res in &r {
            assert_eq!(*res.value, (0..7u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn allreduce_variants() {
        let r = spmd(8, MachineModel::sp2(), |comm| {
            let s = comm.allreduce_sum_f64(comm.rank() as f64);
            let m = comm.allreduce_max_u64(comm.rank() as u64 * 7);
            (s, m)
        });
        for res in &r {
            assert_eq!(res.value.0, 28.0);
            assert_eq!(res.value.1, 49);
        }
    }

    /// Fiber stacks outlive the session that allocated them: two runs on one
    /// thread allocate one set of stacks, the second reusing the first's.
    #[test]
    fn two_runs_on_one_thread_allocate_one_set_of_stacks() {
        STACK_POOL.with_borrow_mut(Vec::clear);
        let allocated = || crate::fiber::STACKS_ALLOCATED.get();
        let before = allocated();
        spmd(8, MachineModel::sp2(), |comm| comm.barrier());
        assert_eq!(allocated() - before, 8, "one stack per rank");
        spmd(8, MachineModel::sp2(), |comm| comm.barrier());
        assert_eq!(allocated() - before, 8, "the second run reuses them");
    }

    #[test]
    fn alltoallv_permutes_correctly() {
        let p = 5;
        let r = spmd(p, MachineModel::sp2(), move |comm| {
            let items: Vec<(u64, (usize, usize))> = (0..p).map(|d| (1, (comm.rank(), d))).collect();
            comm.alltoallv(items)
        });
        for (d, res) in r.iter().enumerate() {
            for (s, got) in res.value.iter().enumerate() {
                assert_eq!(*got, (s, d), "slot {s} on rank {d}");
            }
        }
    }

    #[test]
    fn reduce_to_root() {
        let r = spmd(4, MachineModel::sp2(), |comm| {
            comm.reduce(1, |_| 1, comm.rank() as u64 + 1, |a, b| a * b)
        });
        assert_eq!(r[1].value, Some(24));
        assert!(r[0].value.is_none());
    }

    #[test]
    fn virtual_time_is_deterministic() {
        let run = || {
            let r = spmd(8, MachineModel::sp2(), |comm| {
                let v = comm.allgather(4, comm.rank() as u64);
                comm.compute(v.iter().sum::<u64>() as f64);
                comm.barrier();
                comm.now()
            });
            r.iter().map(|x| x.value).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recv_counted_reports_wire_size() {
        let r = spmd(2, MachineModel::sp2(), |comm| {
            if comm.rank() == 1 {
                let v = comm.recv::<Vec<u8>>(0, 3);
                assert_eq!(v.len(), 100);
            } else {
                comm.send(1, 3, 17, vec![1u8; 100]);
            }
        });
        // The receive's record is one hop of the declared words.
        assert!(matches!(r[1].events[..], [TraceEvent::Call { .. }]));
        assert_eq!(r[1].hops.iter().map(Hop::words).collect::<Vec<_>>(), [17]);
    }

    #[test]
    fn sent_statistics_accumulate() {
        let r = spmd(2, MachineModel::sp2(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10, ());
                comm.send(1, 2, 30, ());
            } else {
                comm.recv::<()>(0, 1);
                comm.recv::<()>(0, 2);
            }
        });
        assert_eq!(r[0].sent_messages, 2);
        assert_eq!(r[0].sent_words, 40);
        assert_eq!(r[1].sent_messages, 0);
    }

    #[test]
    fn makespan_is_max_elapsed() {
        let r = spmd(4, MachineModel::sp2(), |comm| {
            comm.advance(comm.rank() as f64);
        });
        assert!((makespan(&r) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn session_clocks_flow_across_steps() {
        let mut sess = Session::new(4, MachineModel::sp2());
        // Step 1: skewed local work; the step boundary aligns everyone.
        let r1 = sess.run((0..4).map(|_| ()).collect(), |comm, ()| {
            comm.advance(comm.rank() as f64);
            comm.now()
        });
        assert!((sess.now() - 3.0).abs() < 1e-12);
        for res in &r1 {
            assert!((res.elapsed - 3.0).abs() < 1e-12, "aligned at step end");
        }
        // Rank 3 was slowest: no sync idle; rank 0 idles 3 s.
        assert!(r1[3]
            .events
            .iter()
            .all(|e| !matches!(e, TraceEvent::Sync { .. })));
        assert!(r1[0]
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Sync { start, end }
                if *start == 0.0 && (*end - 3.0).abs() < 1e-12)));
        // Step 2 continues from t = 3, not from zero.
        let r2 = sess.run((0..4).map(|_| ()).collect(), |comm, ()| {
            let t0 = comm.now();
            comm.advance(1.0);
            t0
        });
        for res in &r2 {
            assert!((res.value - 3.0).abs() < 1e-12, "step 2 starts at t=3");
            assert!((res.elapsed - 4.0).abs() < 1e-12);
        }
        assert!((sess.now() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn session_channels_and_counters_persist_between_steps() {
        let mut sess = Session::new(2, MachineModel::sp2());
        // A message sent in step 1 is received in step 2: the channel (and
        // the virtual arrival stamp) survives the step boundary.
        sess.run(vec![(), ()], |comm, ()| {
            if comm.rank() == 0 {
                comm.send(1, 9, 25, 41u64);
            }
        });
        let r = sess.run(vec![(), ()], |comm, ()| {
            if comm.rank() == 1 {
                comm.recv::<u64>(0, 9)
            } else {
                0
            }
        });
        assert_eq!(r[1].value, 41);
        assert_eq!(r[0].sent_words, 25, "counters are cumulative");
    }

    // --- chaos ------------------------------------------------------------

    #[test]
    fn zero_chaos_session_is_bit_identical_to_plain() {
        let program = |sess: &mut Session| -> Vec<f64> {
            let r = sess.run(vec![(); 4], |comm, ()| {
                comm.compute(100.0 + comm.rank() as f64);
                comm.allreduce_sum_u64(comm.rank() as u64);
            });
            sess.modeled_phase("solver", &[0.5, 0.25, 0.125, 0.0625]);
            r.iter().map(|x| x.elapsed).chain([sess.now()]).collect()
        };
        let plain = program(&mut Session::new(4, MachineModel::sp2()));
        let chaos = program(&mut Session::with_chaos(
            4,
            MachineModel::sp2(),
            &Perturbation::none(4),
        ));
        assert_eq!(plain, chaos, "empty perturbation must be bit-exact");
    }

    #[test]
    fn rank_profile_scales_compute_per_rank() {
        let perturb = Perturbation::slowdown(2, 1, 3.0);
        let mut sess = Session::with_chaos(2, MachineModel::sp2(), &perturb);
        let r = sess.run(vec![(), ()], |comm, ()| {
            let start = comm.now();
            comm.compute(500.0);
            comm.now() - start
        });
        assert!((r[1].value - 3.0 * r[0].value).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rank 1: compute multiplier inf must be finite and > 0")]
    fn an_infinite_multiplier_is_rejected() {
        let mut perturb = Perturbation::none(2);
        perturb.profile[1] = f64::INFINITY;
        Session::with_chaos(2, MachineModel::sp2(), &perturb);
    }

    #[test]
    #[should_panic(expected = "rank 0: compute multiplier 0 must be finite and > 0")]
    fn a_zero_multiplier_is_rejected() {
        let mut perturb = Perturbation::none(2);
        perturb.profile[0] = 0.0;
        Session::with_chaos(2, MachineModel::sp2(), &perturb);
    }

    #[test]
    fn link_jitter_is_seeded_and_result_invariant() {
        let run = |seed: u64| {
            let perturb = Perturbation {
                link_jitter: 0.3,
                seed,
                ..Perturbation::none(4)
            };
            let mut sess = Session::with_chaos(4, MachineModel::sp2(), &perturb);
            let r = sess.run(vec![(); 4], |comm, ()| {
                comm.allreduce_sum_u64(comm.rank() as u64)
            });
            (r.iter().map(|x| x.value).collect::<Vec<_>>(), makespan(&r))
        };
        let (v1, t1) = run(1);
        let (v1b, t1b) = run(1);
        let (v2, t2) = run(2);
        assert_eq!(v1, v1b, "same seed replays the same run");
        assert_eq!(t1, t1b, "virtual times are bit-identical per seed");
        assert_eq!(v1, v2, "results are invariant under the jitter seed");
        assert_ne!(t1, t2, "different seeds perturb the virtual times");
    }

    // --- deadlock detection -------------------------------------------------

    #[test]
    fn mismatched_collective_sequence_fails_with_deadlock_error_at_p8() {
        // Rank 3 skips the barrier the other seven ranks enter: the
        // dissemination rounds starve and the step can never finish. The
        // scheduler must convert the hang into a structured error naming the
        // blocked ranks the moment the run queue empties.
        let err = try_spmd(8, MachineModel::sp2(), |comm| {
            if comm.rank() != 3 {
                comm.barrier();
            }
        })
        .unwrap_err();
        assert_eq!(err.ranks.len(), 8);
        assert_eq!(
            err.ranks[3],
            RankActivity::Done,
            "the rank that skipped the collective finished its body"
        );
        let blocked = err.blocked_ranks();
        assert!(
            !blocked.is_empty(),
            "someone must be reported blocked: {err}"
        );
        assert!(err.chain.len() >= 2, "chain shows who waits on whom");
        let msg = err.to_string();
        assert!(msg.contains("deadlock detected"), "{msg}");
        assert!(msg.contains("blocked on rank"), "{msg}");
        assert!(msg.contains("rank 3: done"), "{msg}");
    }

    /// Ranks that enter different collectives fail at once, the error
    /// naming both ranks and both collectives.
    #[test]
    fn mismatched_collective_kinds_name_both_ranks_and_both_kinds() {
        let caught = std::panic::catch_unwind(|| {
            spmd(4, MachineModel::sp2(), |comm| {
                if comm.rank() == 0 {
                    comm.allreduce_sum_u64(1);
                } else {
                    comm.barrier();
                }
            })
        });
        let payload = caught.expect_err("mismatched collectives must fail");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic");
        for needle in ["rank 0", "allreduce", "rank 1", "barrier"] {
            assert!(msg.contains(needle), "{needle:?} missing from {msg:?}");
        }
    }

    /// Ranks that reach one collective from two lines of the body do not
    /// meet: the panic names both ranks and both call sites.
    #[test]
    #[allow(clippy::if_same_then_else)] // the two lines are the point
    fn one_collective_reached_from_two_sites_names_both_sites() {
        let line = line!();
        let caught = std::panic::catch_unwind(|| {
            spmd(4, MachineModel::sp2(), |comm| {
                if comm.rank() == 0 {
                    comm.barrier();
                } else {
                    comm.barrier();
                }
            })
        });
        let payload = caught.expect_err("two call sites must not meet");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic");
        let site = |at: u32| format!("{}:{at}:", file!());
        let needles = [
            "rank 0".to_string(),
            "rank 1".into(),
            site(line + 4),
            site(line + 6),
        ];
        for needle in needles {
            assert!(msg.contains(&needle), "{needle:?} missing from {msg:?}");
        }
    }

    /// Point-to-point mail a schedule peer left undelivered is what a
    /// collective's receive from that peer would get: the FIFO check fails
    /// as it does on a blocking receive.
    #[test]
    #[should_panic(expected = "tag mismatch receiving from 1")]
    fn undelivered_mail_from_a_schedule_peer_fails_the_collective() {
        spmd(2, MachineModel::sp2(), |comm| {
            if comm.rank() == 1 {
                comm.send(0, 5, 1, 0u8);
            }
            comm.barrier();
        });
    }

    #[test]
    fn cyclic_recv_wait_is_detected() {
        let err = try_spmd(2, MachineModel::zero(), |comm| {
            // Both ranks wait for a message nobody sends.
            comm.recv::<u8>(1 - comm.rank(), 7)
        })
        .unwrap_err();
        assert_eq!(err.blocked_ranks(), vec![0, 1]);
        assert_eq!(
            err.chain.first(),
            err.chain.last(),
            "the chain closes a cycle: {:?}",
            err.chain
        );
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn deadlocked_session_is_poisoned() {
        let mut sess = Session::new(2, MachineModel::zero());
        let res = sess.try_run(vec![(), ()], |comm, ()| {
            if comm.rank() == 0 {
                comm.recv::<u8>(1, 1);
            }
        });
        assert!(res.is_err());
        // The rank threads died with their state; further steps must refuse
        // to run rather than hang on closed channels.
        sess.run(vec![(), ()], |_, ()| {});
    }

    #[test]
    fn healthy_programs_pass_through_try_run() {
        let r = try_spmd(8, MachineModel::sp2(), |comm| {
            comm.barrier();
            comm.allreduce_sum_u64(1)
        })
        .expect("no deadlock");
        assert!(r.iter().all(|x| x.value == 8));
    }

    #[test]
    fn session_per_step_summaries_account_for_aligned_elapsed() {
        use crate::TraceLog;
        let mut sess = Session::new(3, MachineModel::sp2());
        let mut accounted = [0.0; 3];
        for step in 0..3 {
            let mut r = sess.run(vec![(), (), ()], move |comm, ()| {
                comm.advance(((comm.rank() + step) % 3) as f64 * 0.5);
                comm.barrier();
            });
            let summary = TraceLog::from_results(&mut r).summary();
            for (s, res) in summary.ranks.iter().zip(&r) {
                accounted[s.rank] += s.total();
                assert!(
                    (accounted[s.rank] - res.elapsed).abs() < 1e-9,
                    "step {step} rank {}: accounted {} vs clock {}",
                    s.rank,
                    accounted[s.rank],
                    res.elapsed
                );
            }
        }
    }
}
