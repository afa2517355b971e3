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
//! A `Proc` *buffers* every operation that does not block — `Compute`
//! blocks, reads, writes and lock releases — and hands the run to the
//! simulator as one batch, in one [`ssm_engine::Yielder::yield_op`]
//! exchange that carries the operations and the [`Flush`] cause. A batch
//! is handed over when:
//!
//! * a **sync** operation is issued (`Lock`, `Barrier`): the thread must
//!   block until the simulator grants it ([`Flush::Sync`]);
//! * the batch reaches the `Proc`'s cap ([`Flush::Cap`]): [`BATCH_CAP`]
//!   operations when batching, 1 when it is off, so that every operation
//!   is a handoff of its own;
//! * the thread body returns ([`Flush::End`]).
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
//! operations, batched and unbatched. With a cap of 1 a thread cannot pass
//! any operation before the driver replays it, so the unbatched run is the
//! reference. Until the workspace has a race checker, run a new workload
//! both ways (`--no-batching` in the sweep CLI, `batching(false)` on the
//! simulation builder) and compare the output.
//!
//! Capture and replay (see `ssm_core::replay`) makes the requirement hold
//! across protocols too. A sweep runs an application's threads once per
//! (scale, processor count, batching setting) and replays the recorded
//! operation streams under every other protocol and cost preset whose
//! lock grants come in the same order. For a data-race-free workload
//! those streams are exactly what a live run would issue; a racy
//! workload would silently replay the first protocol's stream in every
//! cell. `--no-batching` is still the manual race check: it replays only
//! unbatched captures, so comparing its output with a batched sweep's
//! still compares two executions.

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

/// Why a batch was handed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// A sync operation (`Lock`/`Barrier`) ended the batch.
    Sync,
    /// The batch reached the `Proc`'s cap.
    Cap,
    /// The thread body returned.
    End,
}

/// The per-processor handle passed to application code.
pub struct Proc<'a> {
    y: &'a Yielder<(Vec<Op>, Flush)>,
    pid: usize,
    nprocs: usize,
    pending: Cell<u64>,
    /// The operations buffered since the last handoff.
    batch: RefCell<Vec<Op>>,
    /// How many operations a batch holds before it is handed over.
    cap: usize,
}

impl<'a> Proc<'a> {
    /// Wraps a yielder; used by the simulation driver when spawning
    /// application threads. Batches are handed over at `cap` operations
    /// (see module docs): [`BATCH_CAP`] batches, 1 hands over every
    /// operation alone. Simulated results of a data-race-free workload do
    /// not depend on `cap`; only the number of baton handoffs does.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    pub fn new(y: &'a Yielder<(Vec<Op>, Flush)>, pid: usize, nprocs: usize, cap: usize) -> Self {
        assert!(cap > 0, "a batch must hold at least one operation");
        Proc {
            y,
            pid,
            nprocs,
            pending: Cell::new(0),
            batch: RefCell::new(Vec::new()),
            cap,
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

    /// Flushes deferred computation into the current batch; called
    /// automatically before any other operation and by the driver when the
    /// thread body returns.
    pub fn flush(&self) {
        let c = self.pending.replace(0);
        if c > 0 {
            self.issue(Op::Compute(c));
        }
    }

    /// Buffers a non-blocking `op`, handing the batch over if it reached
    /// the cap.
    fn issue(&self, op: Op) {
        let mut ops = self.batch.borrow_mut();
        ops.push(op);
        if ops.len() >= self.cap {
            let batch = std::mem::take(&mut *ops);
            drop(ops);
            self.y.yield_op((batch, Flush::Cap));
        }
    }

    /// Issues a blocking `op`: it ends the current batch and hands the
    /// whole run over; the thread blocks until the simulator has replayed
    /// every buffered operation and granted `op`.
    fn sync(&self, op: Op) {
        self.flush();
        let mut batch = self.batch.take();
        batch.push(op);
        self.y.yield_op((batch, Flush::Sync));
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

    /// Releases `lock`. Non-blocking, so it joins the batch: the driver
    /// still replays it in issue order, before any waiter is granted the
    /// lock.
    pub fn unlock(&self, lock: LockId) {
        self.flush();
        self.issue(Op::Unlock(lock));
    }

    /// Enters `barrier`; returns when all processors have arrived.
    pub fn barrier(&self, barrier: BarrierId) {
        self.sync(Op::Barrier(barrier));
    }

    /// Hands over whatever remains buffered; called by the driver when the
    /// thread body returns.
    pub fn finish(&self) {
        self.flush();
        let batch = self.batch.take();
        if !batch.is_empty() {
            self.y.yield_op((batch, Flush::End));
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

    type Pool = ThreadPool<(Vec<Op>, Flush)>;

    fn batch(ops: &[Op], why: Flush) -> Resumed<(Vec<Op>, Flush)> {
        Resumed::Op((ops.to_vec(), why))
    }

    #[test]
    fn compute_batches_until_flush() {
        let mut pool = Pool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 0, 1, 1);
            p.compute(10);
            p.compute(5);
            p.touch_read(0, 4); // flush(15) then read
            p.compute(3);
            p.flush();
        });
        assert_eq!(pool.resume(t), batch(&[Op::Compute(15)], Flush::Cap));
        let read = Op::Read { addr: 0, bytes: 4 };
        assert_eq!(pool.resume(t), batch(&[read], Flush::Cap));
        assert_eq!(pool.resume(t), batch(&[Op::Compute(3)], Flush::Cap));
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn lock_ops_in_order() {
        let mut pool = Pool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 2, 4, 1);
            assert_eq!(p.pid(), 2);
            assert_eq!(p.nprocs(), 4);
            p.with_lock(LockId(7), || p.compute(1));
            p.barrier(BarrierId(1));
            p.finish(); // nothing left buffered: no END batch
        });
        assert_eq!(pool.resume(t), batch(&[Op::Lock(LockId(7))], Flush::Sync));
        assert_eq!(pool.resume(t), batch(&[Op::Compute(1)], Flush::Cap));
        assert_eq!(pool.resume(t), batch(&[Op::Unlock(LockId(7))], Flush::Cap));
        let b = Op::Barrier(BarrierId(1));
        assert_eq!(pool.resume(t), batch(&[b], Flush::Sync));
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn zero_compute_is_elided() {
        let mut pool = Pool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 0, 1, 1);
            p.compute(0);
            p.touch_write(8, 8);
        });
        let write = Op::Write { addr: 8, bytes: 8 };
        assert_eq!(pool.resume(t), batch(&[write], Flush::Cap));
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn batched_proc_buffers_cold_accesses_until_lock() {
        let mut pool = Pool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 0, 1, BATCH_CAP);
            p.compute(10);
            p.touch_read(0, 4); // never touched before: still buffered
            p.touch_write(8192, 4); // another page: still buffered
            p.touch_read(1 << 20, 64);
            p.lock(LockId(0)); // sync: seals the whole run
            p.finish();
        });
        let run = [
            Op::Compute(10),
            Op::Read { addr: 0, bytes: 4 },
            Op::Write {
                addr: 8192,
                bytes: 4,
            },
            Op::Read {
                addr: 1 << 20,
                bytes: 64,
            },
            Op::Lock(LockId(0)),
        ];
        assert_eq!(pool.resume(t), batch(&run, Flush::Sync));
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn sync_ops_seal_and_unlock_batches() {
        let mut pool = Pool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 0, 1, BATCH_CAP);
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
            batch(&[Op::Compute(5), Op::Lock(LockId(1))], Flush::Sync)
        );
        let run = [
            Op::Compute(7),
            Op::Unlock(LockId(1)),
            Op::Barrier(BarrierId(0)),
        ];
        assert_eq!(pool.resume(t), batch(&run, Flush::Sync));
        assert_eq!(pool.resume(t), batch(&[Op::Compute(1)], Flush::End));
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn cap_flushes_long_runs() {
        let mut pool = Pool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 0, 1, BATCH_CAP);
            for _ in 0..BATCH_CAP + 1 {
                p.touch_read(0, 4);
            }
            p.finish();
        });
        let read = Op::Read { addr: 0, bytes: 4 };
        assert_eq!(pool.resume(t), batch(&[read; BATCH_CAP], Flush::Cap));
        assert_eq!(pool.resume(t), batch(&[read], Flush::End));
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn empty_finish_yields_nothing() {
        let mut pool = Pool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 0, 1, BATCH_CAP);
            p.finish();
        });
        assert_eq!(pool.resume(t), Resumed::Finished);
    }
}
