//! Execution-driven application threads.
//!
//! The paper uses augmint to run real application code and intercept its
//! memory references. We achieve the same effect with a *baton* scheme:
//! every simulated processor's program runs on a real OS thread, but a
//! strict handover protocol guarantees that at most one of these threads —
//! or the simulator itself — executes at any instant:
//!
//! 1. the simulator calls [`ThreadPool::resume`] for the thread it wants to
//!    advance and then blocks;
//! 2. the application thread runs until it performs a simulated operation
//!    (a shared read/write, a lock, a barrier, a block of computation),
//!    which calls [`Yielder::yield_op`]; that hands the operation — and the
//!    baton — back to the simulator and blocks;
//! 3. the simulator models the operation in simulated time and later resumes
//!    the thread again.
//!
//! Consequences:
//!
//! * the interleaving of application threads is chosen entirely by the
//!   simulator (by simulated time), so runs are **deterministic**;
//! * application code may freely share a single data store without
//!   synchronization, because real-time concurrency never happens (the
//!   `ssm-proto` crate relies on this for its shared-memory store).
//!
//! Each handoff costs two OS context switches, which dominates host time
//! for fine-grained programs. The engine hands over one message type `R`
//! per exchange and leaves its meaning to the caller: `ssm-proto`'s `Proc`
//! sends a whole batch of operations in one message, which `ssm-core`'s
//! driver replays one operation per scheduling step. Threads are leased
//! from a [`WorkerSet`] (`ThreadPool::with_workers`), so consecutive
//! simulations reuse parked OS threads instead of spawning fresh ones.
//!
//! Threads that return normally report [`Resumed::Finished`]; a panic inside
//! application code is captured and re-thrown in the simulator with the
//! thread's message, so test failures surface in the right place.
//!
//! # Which bodies run here
//!
//! Only sync thread bodies (`ssm_proto::ThreadBody`): workloads that
//! implement `Workload::spawn` alone, such as the example and test
//! workloads, and the thread form that perfbench's traced pass asks the
//! catalog applications for. The catalog's own async bodies run inline
//! on the driver's thread (`ssm_core::driver`), with no thread from this
//! pool and no baton handoff.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

use crate::workers::{Completion, WorkerSet};

/// Identifies a thread within its [`ThreadPool`] (dense, starting at 0).
///
/// In this workspace thread `i` is simulated processor `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

enum Req<R> {
    Op(R),
    Finished,
    Panicked(String),
}

/// Sentinel unwind payload used to silently cancel a parked thread when the
/// pool is dropped early (e.g. a test aborts a simulation midway).
struct Canceled;

/// What a resumed thread did with its time slice.
#[derive(Debug, PartialEq, Eq)]
pub enum Resumed<R> {
    /// The thread yielded a message and is parked again.
    Op(R),
    /// The thread's closure returned; it must not be resumed again.
    Finished,
}

/// The application-side handle: lets application code hand operations to the
/// simulator. One `Yielder` is passed to each spawned closure.
pub struct Yielder<R> {
    tid: ThreadId,
    resume_rx: Receiver<()>,
    req_tx: Sender<(ThreadId, Req<R>)>,
}

impl<R> Yielder<R> {
    /// This thread's id (equals its simulated processor number).
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// Hands `op` (and the baton) to the simulator; returns when the
    /// simulator resumes this thread.
    ///
    /// # Panics
    ///
    /// Panics (with a silent cancellation payload) if the pool was dropped;
    /// the unwind is caught by the pool's thread wrapper.
    pub fn yield_op(&self, op: R) {
        if self.req_tx.send((self.tid, Req::Op(op))).is_err() {
            panic::panic_any(Canceled);
        }
        if self.resume_rx.recv().is_err() {
            panic::panic_any(Canceled);
        }
    }
}

struct Slot {
    resume_tx: Sender<()>,
    finished: bool,
}

/// Tracks how many of this pool's jobs are still running on workers, so
/// `Drop` can quiesce before the pool's state goes away.
struct PendingJobs {
    count: Mutex<usize>,
    zero: Condvar,
}

impl PendingJobs {
    fn new() -> Arc<Self> {
        Arc::new(PendingJobs {
            count: Mutex::new(0),
            zero: Condvar::new(),
        })
    }

    fn inc(&self) {
        *self.count.lock().expect("pending jobs") += 1;
    }

    fn dec(&self) {
        let mut n = self.count.lock().expect("pending jobs");
        *n -= 1;
        if *n == 0 {
            self.zero.notify_all();
        }
    }

    fn wait_zero(&self) {
        let mut n = self.count.lock().expect("pending jobs");
        while *n > 0 {
            n = self.zero.wait(n).expect("pending jobs");
        }
    }
}

/// Owns the application threads and the baton.
///
/// # Example
///
/// ```rust
/// use ssm_engine::{ThreadPool, Resumed};
///
/// let mut pool: ThreadPool<u32> = ThreadPool::new();
/// let a = pool.spawn(|y| {
///     y.yield_op(1);
///     y.yield_op(2);
/// });
/// assert_eq!(pool.resume(a), Resumed::Op(1));
/// assert_eq!(pool.resume(a), Resumed::Op(2));
/// assert_eq!(pool.resume(a), Resumed::Finished);
/// ```
pub struct ThreadPool<R> {
    slots: Vec<Slot>,
    req_rx: Receiver<(ThreadId, Req<R>)>,
    req_tx: Sender<(ThreadId, Req<R>)>,
    workers: WorkerSet,
    pending: Arc<PendingJobs>,
    spawned: usize,
    reused: usize,
}

impl<R: Send + 'static> ThreadPool<R> {
    /// Creates an empty pool with a private [`WorkerSet`]. Application
    /// threads get an 8 MiB stack (recursive applications such as
    /// Barnes-Hut need more than the platform default for spawned
    /// threads).
    pub fn new() -> Self {
        Self::with_workers(WorkerSet::new())
    }

    /// Creates an empty pool that leases its OS threads from `workers`, so
    /// consecutive pools sharing one set recycle parked threads instead of
    /// spawning.
    pub fn with_workers(workers: WorkerSet) -> Self {
        let (req_tx, req_rx) = channel();
        ThreadPool {
            slots: Vec::new(),
            req_rx,
            req_tx,
            workers,
            pending: PendingJobs::new(),
            spawned: 0,
            reused: 0,
        }
    }

    /// Spawns `f` parked: it will not execute until first resumed.
    pub fn spawn<F>(&mut self, f: F) -> ThreadId
    where
        F: FnOnce(&Yielder<R>) + Send + 'static,
    {
        let tid = ThreadId(self.slots.len());
        let (resume_tx, resume_rx) = channel();
        let yielder = Yielder {
            tid,
            resume_rx,
            req_tx: self.req_tx.clone(),
        };
        let req_tx = self.req_tx.clone();
        let pending = self.pending.clone();
        pending.inc();
        let job = Box::new(move || -> Completion {
            // Park until the first resume; a closed channel means the pool
            // is gone and the job just retires.
            if yielder.resume_rx.recv().is_err() {
                return Box::new(move || pending.dec());
            }
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&yielder)));
            let msg = match result {
                Ok(()) => Some(Req::Finished),
                Err(payload) => {
                    if payload.downcast_ref::<Canceled>().is_some() {
                        None // silent cancellation; nobody is listening
                    } else {
                        let text = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "<non-string panic payload>".to_string());
                        Some(Req::Panicked(text))
                    }
                }
            };
            let tid = yielder.tid;
            // The worker runs this *after* re-parking itself, so whoever
            // receives the message can immediately reuse the worker.
            Box::new(move || {
                if let Some(msg) = msg {
                    let _ = req_tx.send((tid, msg));
                }
                pending.dec();
            })
        });
        if self.workers.submit(job) {
            self.reused += 1;
        } else {
            self.spawned += 1;
        }
        self.slots.push(Slot {
            resume_tx,
            finished: false,
        });
        tid
    }

    /// How many of this pool's threads required a fresh OS thread spawn,
    /// and how many reused a parked worker from the pool's [`WorkerSet`].
    pub fn thread_stats(&self) -> (usize, usize) {
        (self.spawned, self.reused)
    }

    /// Hands the baton to thread `tid` and blocks until it yields a
    /// message or finishes.
    ///
    /// # Panics
    ///
    /// * if `tid` already finished,
    /// * if the application thread panicked — the panic message is rethrown
    ///   here, prefixed with the thread id.
    pub fn resume(&mut self, tid: ThreadId) -> Resumed<R> {
        let slot = &mut self.slots[tid.0];
        assert!(!slot.finished, "resumed finished thread {tid}");
        slot.resume_tx
            .send(())
            .expect("simulated thread disappeared without reporting");
        let (from, req) = self
            .req_rx
            .recv()
            .expect("simulated thread disappeared without reporting");
        debug_assert_eq!(from, tid, "baton protocol violated: wrong thread ran");
        match req {
            Req::Op(op) => Resumed::Op(op),
            Req::Finished => {
                self.slots[tid.0].finished = true;
                Resumed::Finished
            }
            Req::Panicked(msg) => panic!("simulated thread {tid} panicked: {msg}"),
        }
    }
}

impl<R: Send + 'static> Default for ThreadPool<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> Drop for ThreadPool<R> {
    fn drop(&mut self) {
        // Wake every parked thread with a closed channel so it cancels
        // itself, then wait for all of this pool's jobs to retire — after
        // that, every leased worker is back on the set's idle list and no
        // application code from this simulation is still running.
        for slot in &mut self.slots {
            // Dropping the sender closes the channel.
            let (dead_tx, _) = channel();
            slot.resume_tx = dead_tx;
        }
        self.pending.wait_zero();
    }
}

impl<R> std::fmt::Debug for ThreadPool<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.slots.len())
            .field(
                "finished",
                &self.slots.iter().filter(|s| s.finished).count(),
            )
            .field("spawned", &self.spawned)
            .field("reused", &self.reused)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_round_trip() {
        let mut pool: ThreadPool<u32> = ThreadPool::new();
        let t = pool.spawn(|y| {
            for i in 0..5 {
                y.yield_op(i);
            }
        });
        for i in 0..5 {
            assert_eq!(pool.resume(t), Resumed::Op(i));
        }
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn interleaving_is_simulator_controlled() {
        let mut pool: ThreadPool<(usize, u32)> = ThreadPool::new();
        let a = pool.spawn(|y| {
            for i in 0..3 {
                y.yield_op((0, i));
            }
        });
        let b = pool.spawn(|y| {
            for i in 0..3 {
                y.yield_op((1, i));
            }
        });
        // Alternate; the observed order is exactly the resume order.
        let mut seen = Vec::new();
        for i in 0..3 {
            if let Resumed::Op(op) = pool.resume(a) {
                seen.push(op);
            }
            if let Resumed::Op(op) = pool.resume(b) {
                seen.push(op);
            }
            let _ = i;
        }
        assert_eq!(seen, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn threads_share_state_without_locks() {
        // The baton means plain Arc<UnsafeCell>-style sharing is sound; here
        // we demonstrate with an AtomicU64 for the test's own sanity.
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicU64::new(0));
        let mut pool: ThreadPool<()> = ThreadPool::new();
        let mut tids = Vec::new();
        for _ in 0..4 {
            let c = counter.clone();
            tids.push(pool.spawn(move |y| {
                for _ in 0..10 {
                    let v = c.load(Ordering::Relaxed);
                    y.yield_op(());
                    c.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        // Round-robin: the read-yield-write pattern would lose updates under
        // real concurrency, but the baton serializes fully only if we resume
        // one step at a time... here each thread reads, yields, then writes
        // when next resumed, so interleaved resumes DO overlap windows.
        // Resume each thread to completion sequentially instead: no overlap.
        for &t in &tids {
            loop {
                if pool.resume(t) == Resumed::Finished {
                    break;
                }
            }
        }
        assert_eq!(counter.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn pools_sharing_a_worker_set_recycle_threads() {
        let workers = WorkerSet::new();
        let run_one = |ws: &WorkerSet| {
            let mut pool: ThreadPool<u32> = ThreadPool::with_workers(ws.clone());
            let tids: Vec<ThreadId> = (0..3).map(|i| pool.spawn(move |y| y.yield_op(i))).collect();
            for &t in &tids {
                let _ = pool.resume(t);
                assert_eq!(pool.resume(t), Resumed::Finished);
            }
            pool.thread_stats()
        };
        assert_eq!(run_one(&workers), (3, 0), "cold set spawns every thread");
        assert_eq!(run_one(&workers), (0, 3), "warm set spawns none");
        assert_eq!(run_one(&workers), (0, 3), "and stays warm");
    }

    #[test]
    fn canceled_threads_return_to_the_worker_set() {
        let workers = WorkerSet::new();
        {
            let mut pool: ThreadPool<()> = ThreadPool::with_workers(workers.clone());
            let t = pool.spawn(|y| {
                y.yield_op(());
                y.yield_op(());
            });
            let _ = pool.resume(t);
            // Dropped mid-simulation: the parked thread cancels, and the
            // drop quiesce guarantees its worker re-parked.
        }
        let mut pool: ThreadPool<()> = ThreadPool::with_workers(workers);
        let t = pool.spawn(|y| y.yield_op(()));
        let _ = pool.resume(t);
        assert_eq!(pool.resume(t), Resumed::Finished);
        assert_eq!(pool.thread_stats(), (0, 1), "canceled worker was reused");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn app_panic_propagates() {
        let mut pool: ThreadPool<()> = ThreadPool::new();
        let t = pool.spawn(|y| {
            y.yield_op(());
            panic!("boom");
        });
        let _ = pool.resume(t);
        let _ = pool.resume(t);
    }

    #[test]
    fn drop_with_parked_threads_does_not_hang() {
        let mut pool: ThreadPool<()> = ThreadPool::new();
        let t = pool.spawn(|y| {
            y.yield_op(());
            y.yield_op(());
        });
        let _ = pool.resume(t);
        drop(pool); // thread is parked inside the first yield: must not hang
    }

    #[test]
    fn spawn_does_not_run_until_resumed() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        let mut pool: ThreadPool<()> = ThreadPool::new();
        let t = pool.spawn(move |_| {
            r.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!ran.load(Ordering::SeqCst));
        assert_eq!(pool.resume(t), Resumed::Finished);
        assert!(ran.load(Ordering::SeqCst));
    }
}
