//! The programming-model API that application code runs against.
//!
//! Applications are ordinary Rust functions that receive a [`Proc`] — the
//! handle for "this simulated processor". Every shared-memory access, lock,
//! barrier and block of computation goes through it; each call may hand the
//! baton to the simulator (see `ssm-engine::threads`).
//!
//! `compute` calls are *accumulated* locally and flushed on the next real
//! operation, so tight loops that interleave arithmetic with shared reads
//! cost only one baton handover per shared access.
//!
//! A batching handle ([`Proc::batched`]) goes further: it *buffers* every
//! operation that does not block — `Compute` blocks, reads, writes and lock
//! releases — and hands the run to the simulator as one batch
//! ([`ssm_engine::Yielder::yield_batch`]). A batch is flushed — one baton
//! handoff — when:
//!
//! * a **sync** operation is issued (`Lock`, `Barrier`): the thread must
//!   block until the simulator grants it ([`FLUSH_SYNC`]);
//! * the batch reaches [`BATCH_CAP`] operations ([`FLUSH_CAP`]);
//! * the thread body returns ([`FLUSH_END`]).
//!
//! So the number of handoffs depends on the operation stream alone.
//!
//! # Workloads must be data-race-free
//!
//! The driver replays a batch one operation per scheduling step, in issue
//! order, so the operation stream each processor feeds the protocol is
//! that of an unbatched run. What batching moves is *host* time: a thread
//! reads and writes the shared store while it builds its batch, before
//! the simulator has replayed what other processors did earlier in
//! simulated time. In a data-race-free program this changes no value
//! read: every conflicting access by another processor is ordered by a
//! `Lock`/`Unlock` or `Barrier` chain, and the thread cannot pass a `Lock`
//! or `Barrier` until the simulator grants it. A [`crate::Workload`] with
//! a data race may read different values, and so issue different
//! operations, batched and unbatched. Until the workspace has a race checker, run a new workload
//! both ways (`--no-batching` in the sweep CLI, `batching(false)` on the
//! simulation builder) and compare the output.

use std::cell::{Cell, RefCell};

use ssm_engine::Yielder;

use crate::shmem::{BarrierId, LockId};

/// An operation yielded by an application thread to the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The processor computes for `c` cycles (1-IPC model: `c` instructions).
    Compute(u64),
    /// Read `bytes` bytes at `addr` in the shared address space.
    Read { addr: u64, bytes: u64 },
    /// Write `bytes` bytes at `addr` in the shared address space.
    Write { addr: u64, bytes: u64 },
    /// Acquire a lock.
    Lock(LockId),
    /// Release a lock.
    Unlock(LockId),
    /// Enter a barrier episode.
    Barrier(BarrierId),
}

/// Most operations a batch may hold before it is handed over anyway —
/// bounds both the driver's queue memory and how far a thread can run
/// ahead of simulated time.
pub const BATCH_CAP: usize = 256;

/// Batch-flush cause: a sync operation (`Lock`/`Barrier`) ended the run.
pub const FLUSH_SYNC: u32 = 0;
/// Batch-flush cause: the batch reached [`BATCH_CAP`] operations.
pub const FLUSH_CAP: u32 = 2;
/// Batch-flush cause: the thread body returned.
pub const FLUSH_END: u32 = 3;

/// The per-processor handle passed to application code.
pub struct Proc<'a> {
    y: &'a Yielder<Op>,
    pid: usize,
    nprocs: usize,
    pending: Cell<u64>,
    /// The operations buffered so far; `None` when batching is off.
    batch: Option<RefCell<Vec<Op>>>,
}

impl<'a> Proc<'a> {
    /// Wraps a yielder; used by the simulation driver when spawning
    /// application threads. Every operation is one baton handoff.
    pub fn new(y: &'a Yielder<Op>, pid: usize, nprocs: usize) -> Self {
        Proc {
            y,
            pid,
            nprocs,
            pending: Cell::new(0),
            batch: None,
        }
    }

    /// Like [`Proc::new`], but buffers every non-blocking operation into
    /// batches (see module docs). Simulated results of a data-race-free
    /// workload are identical; only the number of baton handoffs changes.
    pub fn batched(y: &'a Yielder<Op>, pid: usize, nprocs: usize) -> Self {
        Proc {
            batch: Some(RefCell::new(Vec::new())),
            ..Proc::new(y, pid, nprocs)
        }
    }

    /// This processor's id, `0..nprocs`.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Number of processors in the run.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Charges `cycles` of computation (deferred until the next operation).
    pub fn compute(&self, cycles: u64) {
        self.pending.set(self.pending.get() + cycles);
    }

    /// Flushes deferred computation; called automatically before any other
    /// operation and by the driver when the thread body returns. In
    /// batching mode the `Compute` op joins the current batch instead of
    /// forcing a handoff.
    pub fn flush(&self) {
        let c = self.pending.replace(0);
        if c > 0 {
            self.issue(Op::Compute(c));
        }
    }

    /// Issues a non-blocking `op`: one handoff, or in batching mode into
    /// the current batch, which is handed over if the cap is reached.
    fn issue(&self, op: Op) {
        match &self.batch {
            None => self.y.yield_op(op),
            Some(b) => {
                let mut ops = b.borrow_mut();
                ops.push(op);
                if ops.len() >= BATCH_CAP {
                    let batch = std::mem::take(&mut *ops);
                    drop(ops);
                    self.y.yield_batch(batch, FLUSH_CAP);
                }
            }
        }
    }

    /// Issues a blocking `op`. In batching mode it ends the current batch
    /// and hands the whole run over; the thread blocks until the simulator
    /// has replayed every buffered operation.
    fn sync(&self, op: Op) {
        self.flush();
        match &self.batch {
            None => self.y.yield_op(op),
            Some(b) => {
                let mut batch = std::mem::take(&mut *b.borrow_mut());
                batch.push(op);
                self.y.yield_batch(batch, FLUSH_SYNC);
            }
        }
    }

    /// Simulated shared-memory read of `[addr, addr+bytes)`.
    pub fn touch_read(&self, addr: u64, bytes: u64) {
        self.flush();
        self.issue(Op::Read { addr, bytes });
    }

    /// Simulated shared-memory write of `[addr, addr+bytes)`.
    pub fn touch_write(&self, addr: u64, bytes: u64) {
        self.flush();
        self.issue(Op::Write { addr, bytes });
    }

    /// Acquires `lock` (blocks in simulated time until granted).
    pub fn lock(&self, lock: LockId) {
        self.sync(Op::Lock(lock));
    }

    /// Releases `lock`. Non-blocking, so in batching mode it joins the
    /// batch: the driver still replays it in issue order, before any
    /// waiter is granted the lock.
    pub fn unlock(&self, lock: LockId) {
        self.flush();
        self.issue(Op::Unlock(lock));
    }

    /// Enters `barrier`; returns when all processors have arrived.
    pub fn barrier(&self, barrier: BarrierId) {
        self.sync(Op::Barrier(barrier));
    }

    /// Hands over whatever remains buffered; called by the driver when the
    /// thread body returns. (Equivalent to [`Proc::flush`] when batching
    /// is off.)
    pub fn finish(&self) {
        self.flush();
        if let Some(b) = &self.batch {
            let batch = std::mem::take(&mut *b.borrow_mut());
            if !batch.is_empty() {
                self.y.yield_batch(batch, FLUSH_END);
            }
        }
    }

    /// Convenience: run `f` under `lock`.
    pub fn with_lock<R>(&self, lock: LockId, f: impl FnOnce() -> R) -> R {
        self.lock(lock);
        let r = f();
        self.unlock(lock);
        r
    }
}

impl std::fmt::Debug for Proc<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proc")
            .field("pid", &self.pid)
            .field("nprocs", &self.nprocs)
            .field("pending_compute", &self.pending.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_engine::{Resumed, ThreadPool};

    #[test]
    fn compute_batches_until_flush() {
        let mut pool: ThreadPool<Op> = ThreadPool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 0, 1);
            p.compute(10);
            p.compute(5);
            p.touch_read(0, 4); // flush(15) then read
            p.compute(3);
            p.flush();
        });
        assert_eq!(pool.resume(t), Resumed::Op(Op::Compute(15)));
        assert_eq!(pool.resume(t), Resumed::Op(Op::Read { addr: 0, bytes: 4 }));
        assert_eq!(pool.resume(t), Resumed::Op(Op::Compute(3)));
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn lock_ops_in_order() {
        let mut pool: ThreadPool<Op> = ThreadPool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 2, 4);
            assert_eq!(p.pid(), 2);
            assert_eq!(p.nprocs(), 4);
            p.with_lock(LockId(7), || {});
            p.barrier(BarrierId(1));
        });
        assert_eq!(pool.resume(t), Resumed::Op(Op::Lock(LockId(7))));
        assert_eq!(pool.resume(t), Resumed::Op(Op::Unlock(LockId(7))));
        assert_eq!(pool.resume(t), Resumed::Op(Op::Barrier(BarrierId(1))));
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn zero_compute_is_elided() {
        let mut pool: ThreadPool<Op> = ThreadPool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 0, 1);
            p.compute(0);
            p.touch_write(8, 8);
        });
        assert_eq!(pool.resume(t), Resumed::Op(Op::Write { addr: 8, bytes: 8 }));
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn batched_proc_buffers_cold_accesses_until_lock() {
        let mut pool: ThreadPool<Op> = ThreadPool::new();
        let t = pool.spawn(|y| {
            let p = Proc::batched(y, 0, 1);
            p.compute(10);
            p.touch_read(0, 4); // never touched before: still buffered
            p.touch_write(8192, 4); // another page: still buffered
            p.touch_read(1 << 20, 64);
            p.lock(LockId(0)); // sync: seals the whole run
            p.finish();
        });
        assert_eq!(
            pool.resume(t),
            Resumed::Batch(
                vec![
                    Op::Compute(10),
                    Op::Read { addr: 0, bytes: 4 },
                    Op::Write {
                        addr: 8192,
                        bytes: 4
                    },
                    Op::Read {
                        addr: 1 << 20,
                        bytes: 64
                    },
                    Op::Lock(LockId(0)),
                ],
                FLUSH_SYNC
            )
        );
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn sync_ops_seal_and_unlock_batches() {
        let mut pool: ThreadPool<Op> = ThreadPool::new();
        let t = pool.spawn(|y| {
            let p = Proc::batched(y, 0, 1);
            p.compute(5);
            p.lock(LockId(1)); // sync: seals [Compute, Lock]
            p.compute(7);
            p.unlock(LockId(1)); // non-blocking: buffered
            p.barrier(BarrierId(0)); // sync: seals [Compute, Unlock, Barrier]
            p.compute(1);
            p.finish(); // END flush of the tail
        });
        assert_eq!(
            pool.resume(t),
            Resumed::Batch(vec![Op::Compute(5), Op::Lock(LockId(1))], FLUSH_SYNC)
        );
        assert_eq!(
            pool.resume(t),
            Resumed::Batch(
                vec![
                    Op::Compute(7),
                    Op::Unlock(LockId(1)),
                    Op::Barrier(BarrierId(0)),
                ],
                FLUSH_SYNC
            )
        );
        assert_eq!(
            pool.resume(t),
            Resumed::Batch(vec![Op::Compute(1)], FLUSH_END)
        );
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn cap_flushes_long_runs() {
        let mut pool: ThreadPool<Op> = ThreadPool::new();
        let t = pool.spawn(|y| {
            let p = Proc::batched(y, 0, 1);
            for _ in 0..BATCH_CAP + 1 {
                p.touch_read(0, 4);
            }
            p.finish();
        });
        match pool.resume(t) {
            Resumed::Batch(ops, cause) => {
                assert_eq!(ops.len(), BATCH_CAP);
                assert_eq!(cause, FLUSH_CAP);
            }
            other => panic!("expected CAP batch, got {other:?}"),
        }
        assert_eq!(
            pool.resume(t),
            Resumed::Batch(vec![Op::Read { addr: 0, bytes: 4 }], FLUSH_END)
        );
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn empty_finish_yields_nothing() {
        let mut pool: ThreadPool<Op> = ThreadPool::new();
        let t = pool.spawn(|y| {
            let p = Proc::batched(y, 0, 1);
            p.finish();
        });
        assert_eq!(pool.resume(t), Resumed::Finished);
    }
}
