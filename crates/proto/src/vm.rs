//! The programming-model API that application code runs against.
//!
//! Applications are ordinary Rust code that receives a handle for "this
//! simulated processor". Every shared-memory access, lock, barrier and
//! block of computation goes through it. There are two handles, over one
//! batching core:
//!
//! * [`Cpu`], for **async bodies** ([`crate::AsyncBody`], the catalog
//!   applications' form). Each operation returns a [`Handoff`] that the
//!   body awaits; a body suspends only where a batch is handed over. The
//!   simulation driver (`ssm_core::driver`) polls these bodies on its own
//!   thread, so they need no OS thread and no baton.
//! * [`Proc`], for **sync bodies** ([`crate::ThreadBody`]). Each body runs
//!   on an OS thread of the engine's thread pool, and a handover blocks
//!   the thread on the baton (see `ssm-engine::threads`).
//!   [`Proc::block_on`] runs an async body on such a thread, which is how
//!   [`crate::Workload::spawn`] derives a sync form of an async workload.
//!
//! `compute` calls are *accumulated* locally and flushed on the next real
//! operation, so tight loops that interleave arithmetic with shared reads
//! issue one `Compute` operation per run of arithmetic.
//!
//! A handle *buffers* every operation that does not block — `Compute`
//! blocks, reads, writes and lock releases — and hands the run to the
//! simulator as one batch, with the [`Flush`] cause. A batch is handed
//! over when:
//!
//! * a **sync** operation is issued (`Lock`, `Barrier`): the body must
//!   wait until the simulator grants it ([`Flush::Sync`]);
//! * the batch reaches the handle's cap ([`Flush::Cap`]): [`BATCH_CAP`]
//!   operations when batching, 1 when it is off, so that every operation
//!   is a handoff of its own;
//! * the body returns ([`Flush::End`]).
//!
//! So the number of handoffs depends on the operation stream alone, and is
//! the same under both executors. The cap is why an async body awaits every
//! shared access, not only its sync operations: a body that could not
//! suspend at the cap would buffer everything up to its next `Lock` or
//! `Barrier` (over half a million operations in Radix at bench scale).
//!
//! # Workloads must be data-race-free
//!
//! The driver replays a batch one operation per scheduling step, in issue
//! order, so the operation stream each processor feeds the protocol is
//! that of an unbatched run. What batching moves is *host* time: a body
//! reads and writes the shared store while it builds its batch, before
//! the simulator has replayed what other processors did earlier in
//! simulated time. In a data-race-free program this changes no value
//! read: every conflicting access by another processor is ordered by a
//! `Lock`/`Unlock` or `Barrier` chain, and the body cannot pass a `Lock`
//! or `Barrier` until the simulator grants it. A [`crate::Workload`] with
//! a data race may read different values, and so issue different
//! operations, batched and unbatched. With a cap of 1 a body cannot pass
//! any operation before the driver replays it, so the unbatched run is the
//! reference. Until the workspace has a race checker, run a new workload
//! both ways (`--no-batching` in the sweep CLI, `batching(false)` on the
//! simulation builder) and compare the output.
//!
//! Capture and replay (see `ssm_core::replay`) makes the requirement hold
//! across protocols too. A sweep runs an application's bodies once per
//! (scale, processor count, batching setting) and replays the recorded
//! operation streams under every other protocol and cost preset whose
//! lock grants come in the same order. For a data-race-free workload
//! those streams are exactly what a live run would issue; a racy
//! workload would silently replay the first protocol's stream in every
//! cell. `--no-batching` is still the manual race check: it replays only
//! unbatched captures, so comparing its output with a batched sweep's
//! still compares two executions.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use ssm_engine::Yielder;

use crate::shmem::{BarrierId, LockId};
use crate::workload::AsyncBody;

/// An operation an application body hands to the simulator.
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
/// bounds both the driver's queue memory and how far a body can run
/// ahead of simulated time.
pub const BATCH_CAP: usize = 256;

/// Why a batch was handed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// A sync operation (`Lock`/`Barrier`) ended the batch.
    Sync,
    /// The batch reached the handle's cap.
    Cap,
    /// The body returned.
    End,
}

/// A sealed batch and why it was sealed.
pub type Batch = (Vec<Op>, Flush);

/// The batching core both handles share: deferred computation, the open
/// batch, and the batches sealed but not yet handed over (at most two: a
/// compute flush can fill one batch just before a sync operation seals
/// the next).
struct Batcher {
    pid: usize,
    nprocs: usize,
    cap: usize,
    pending: Cell<u64>,
    batch: RefCell<Vec<Op>>,
    sealed: RefCell<VecDeque<Batch>>,
}

impl Batcher {
    /// Seals the open batch.
    fn seal(&self, why: Flush) {
        let ops = self.batch.take();
        self.sealed.borrow_mut().push_back((ops, why));
    }

    /// Buffers a non-blocking `op`, sealing the batch at the cap; true
    /// when it sealed.
    fn push(&self, op: Op) -> bool {
        let full = {
            let mut ops = self.batch.borrow_mut();
            ops.push(op);
            ops.len() >= self.cap
        };
        if full {
            self.seal(Flush::Cap);
        }
        full
    }

    /// Moves deferred computation into the batch; true when it sealed.
    fn flush(&self) -> bool {
        let c = self.pending.replace(0);
        c > 0 && self.push(Op::Compute(c))
    }

    /// Buffers `op` after any deferred computation; true when a batch was
    /// sealed.
    fn issue(&self, op: Op) -> bool {
        let flushed = self.flush();
        self.push(op) | flushed
    }

    /// Buffers a read or write of `bytes` bytes; a zero-byte access
    /// issues nothing.
    fn access(&self, op: Op, bytes: u64) -> bool {
        bytes > 0 && self.issue(op)
    }

    /// Ends the batch with the blocking `op`.
    fn sync(&self, op: Op) {
        self.flush();
        self.batch.borrow_mut().push(op);
        self.seal(Flush::Sync);
    }

    /// Seals whatever remains buffered when the body returns.
    fn finish(&self) {
        self.flush();
        if !self.batch.borrow().is_empty() {
            self.seal(Flush::End);
        }
    }
}

/// The awaitable handle an async body runs against: processor `pid` of
/// `nprocs`. Cloning shares the handle.
///
/// Every operation buffers at once and returns a [`Handoff`]; awaiting it
/// suspends the body when the operation sealed a batch, at the cap or at
/// a sync operation, and is free otherwise. An executor resumes the body
/// once the simulator wants its next batch (after granting a `Lock` or
/// releasing a `Barrier`), so a body never runs past an operation the
/// simulator has not granted.
///
/// # Example
///
/// ```rust
/// use ssm_proto::{Cpu, LockId, Op};
/// let p = Cpu::new(0, 1, 256);
/// p.compute(10);
/// let _ = p.touch_read(0, 8); // buffered: nothing handed over yet
/// let _ = p.lock(LockId(0)); // a sync operation seals the batch
/// let (ops, _) = p.take_batch().expect("sealed");
/// assert_eq!(ops[0], Op::Compute(10));
/// assert_eq!(ops.len(), 3);
/// ```
#[derive(Clone)]
pub struct Cpu(Rc<Batcher>);

/// The future every [`Cpu`] operation returns: pending once if the
/// operation sealed a batch, so the executor can hand it over. The
/// default is ready at once (an operation that issued nothing).
#[must_use = "an operation is handed over in order only when awaited"]
#[derive(Debug, Default)]
pub struct Handoff(bool);

impl Future for Handoff {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if std::mem::take(&mut self.0) {
            Poll::Pending
        } else {
            Poll::Ready(())
        }
    }
}

impl Cpu {
    /// A handle for processor `pid` of `nprocs` whose batches hold up to
    /// `cap` operations: [`BATCH_CAP`] batches, 1 hands over every
    /// operation alone. Simulated results of a data-race-free workload do
    /// not depend on `cap`; only the number of handoffs does.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    pub fn new(pid: usize, nprocs: usize, cap: usize) -> Self {
        assert!(cap > 0, "a batch must hold at least one operation");
        Cpu(Rc::new(Batcher {
            pid,
            nprocs,
            cap,
            pending: Cell::new(0),
            batch: RefCell::new(Vec::new()),
            sealed: RefCell::new(VecDeque::new()),
        }))
    }

    /// This processor's id, `0..nprocs`.
    pub fn pid(&self) -> usize {
        self.0.pid
    }

    /// Number of processors in the run.
    pub fn nprocs(&self) -> usize {
        self.0.nprocs
    }

    /// Charges `cycles` of computation (deferred until the next operation).
    pub fn compute(&self, cycles: u64) {
        self.0.pending.set(self.0.pending.get() + cycles);
    }

    /// Simulated shared-memory read of `[addr, addr+bytes)`; a zero-byte
    /// read issues nothing.
    pub fn touch_read(&self, addr: u64, bytes: u64) -> Handoff {
        Handoff(self.0.access(Op::Read { addr, bytes }, bytes))
    }

    /// Simulated shared-memory write of `[addr, addr+bytes)`; a zero-byte
    /// write issues nothing.
    pub fn touch_write(&self, addr: u64, bytes: u64) -> Handoff {
        Handoff(self.0.access(Op::Write { addr, bytes }, bytes))
    }

    /// Acquires `lock`: the body resumes once the simulator grants it.
    pub fn lock(&self, lock: LockId) -> Handoff {
        self.0.sync(Op::Lock(lock));
        Handoff(true)
    }

    /// Releases `lock`. Non-blocking, so it joins the batch: the driver
    /// still replays it in issue order, before any waiter is granted the
    /// lock.
    pub fn unlock(&self, lock: LockId) -> Handoff {
        Handoff(self.0.issue(Op::Unlock(lock)))
    }

    /// Enters `barrier`: the body resumes once all processors arrived.
    pub fn barrier(&self, barrier: BarrierId) -> Handoff {
        self.0.sync(Op::Barrier(barrier));
        Handoff(true)
    }

    /// For executors: the oldest sealed batch not yet handed over.
    pub fn take_batch(&self) -> Option<Batch> {
        self.0.sealed.borrow_mut().pop_front()
    }

    /// For executors: seals what remains buffered once the body returned
    /// (an [`Flush::End`] batch, if anything remains).
    pub fn finish(&self) {
        self.0.finish();
    }
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("pid", &self.0.pid)
            .field("nprocs", &self.0.nprocs)
            .field("pending_compute", &self.0.pending.get())
            .finish()
    }
}

/// The handle a sync thread body runs against: a [`Cpu`] whose sealed
/// batches go straight over the engine's baton, blocking the thread until
/// the simulator resumes it.
pub struct Proc<'a> {
    y: &'a Yielder<Batch>,
    cpu: Cpu,
}

impl<'a> Proc<'a> {
    /// Wraps a yielder; used by the simulation driver when spawning
    /// application threads. Batches are handed over at `cap` operations,
    /// as [`Cpu::new`] describes.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    pub fn new(y: &'a Yielder<Batch>, pid: usize, nprocs: usize, cap: usize) -> Self {
        Proc {
            y,
            cpu: Cpu::new(pid, nprocs, cap),
        }
    }

    /// Hands every sealed batch over, one baton exchange each.
    fn hand_over(&self) {
        while let Some(batch) = self.cpu.take_batch() {
            self.y.yield_op(batch);
        }
    }

    /// This processor's id, `0..nprocs`.
    pub fn pid(&self) -> usize {
        self.cpu.pid()
    }

    /// Number of processors in the run.
    pub fn nprocs(&self) -> usize {
        self.cpu.nprocs()
    }

    /// Charges `cycles` of computation (deferred until the next operation).
    pub fn compute(&self, cycles: u64) {
        self.cpu.compute(cycles);
    }

    /// Flushes deferred computation into the current batch; called
    /// automatically before any other operation.
    pub fn flush(&self) {
        self.cpu.0.flush();
        self.hand_over();
    }

    /// Simulated shared-memory read of `[addr, addr+bytes)`; a zero-byte
    /// read issues nothing.
    pub fn touch_read(&self, addr: u64, bytes: u64) {
        self.cpu.0.access(Op::Read { addr, bytes }, bytes);
        self.hand_over();
    }

    /// Simulated shared-memory write of `[addr, addr+bytes)`; a zero-byte
    /// write issues nothing.
    pub fn touch_write(&self, addr: u64, bytes: u64) {
        self.cpu.0.access(Op::Write { addr, bytes }, bytes);
        self.hand_over();
    }

    /// Acquires `lock` (blocks in simulated time until granted).
    pub fn lock(&self, lock: LockId) {
        self.cpu.0.sync(Op::Lock(lock));
        self.hand_over();
    }

    /// Releases `lock`. Non-blocking, so it joins the batch: the driver
    /// still replays it in issue order, before any waiter is granted the
    /// lock.
    pub fn unlock(&self, lock: LockId) {
        self.cpu.0.issue(Op::Unlock(lock));
        self.hand_over();
    }

    /// Enters `barrier`; returns when all processors have arrived.
    pub fn barrier(&self, barrier: BarrierId) {
        self.cpu.0.sync(Op::Barrier(barrier));
        self.hand_over();
    }

    /// Hands over whatever remains buffered; called by the driver when the
    /// thread body returns.
    pub fn finish(&self) {
        self.cpu.finish();
        self.hand_over();
    }

    /// Convenience: run `f` under `lock`.
    pub fn with_lock<R>(&self, lock: LockId, f: impl FnOnce() -> R) -> R {
        self.lock(lock);
        let r = f();
        self.unlock(lock);
        r
    }

    /// Runs the async `body` on this thread against this processor's
    /// handle: each time the body suspends, its sealed batches go over the
    /// baton, and the body resumes when the simulator resumes the thread.
    ///
    /// # Panics
    ///
    /// Panics if the body suspends on anything but its processor's
    /// operations.
    pub fn block_on(&self, body: AsyncBody) {
        let mut task = body(self.cpu.clone());
        let mut cx = Context::from_waker(Waker::noop());
        while task.as_mut().poll(&mut cx).is_pending() {
            assert!(
                !self.cpu.0.sealed.borrow().is_empty(),
                "an async body awaits only its processor's operations"
            );
            self.hand_over();
        }
    }
}

impl std::fmt::Debug for Proc<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proc")
            .field("pid", &self.cpu.0.pid)
            .field("nprocs", &self.cpu.0.nprocs)
            .field("pending_compute", &self.cpu.0.pending.get())
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

    /// Polls `h` once: whether the body would suspend there.
    fn suspends(mut h: Handoff) -> bool {
        Pin::new(&mut h)
            .poll(&mut Context::from_waker(Waker::noop()))
            .is_pending()
    }

    #[test]
    fn cpu_seals_the_batches_a_proc_hands_over() {
        let p = Cpu::new(0, 1, 2);
        p.compute(5);
        // [Compute] is one short of the cap; the read fills it.
        assert!(suspends(p.touch_read(0, 4)));
        let read = Op::Read { addr: 0, bytes: 4 };
        assert_eq!(
            p.take_batch(),
            Some((vec![Op::Compute(5), read], Flush::Cap))
        );
        assert!(!suspends(p.touch_write(8, 4)));
        p.compute(1);
        // The compute flush fills one batch and the lock seals the next:
        // one await point, two batches.
        assert!(suspends(p.lock(LockId(3))));
        let write = Op::Write { addr: 8, bytes: 4 };
        assert_eq!(
            p.take_batch(),
            Some((vec![write, Op::Compute(1)], Flush::Cap))
        );
        assert_eq!(
            p.take_batch(),
            Some((vec![Op::Lock(LockId(3))], Flush::Sync))
        );
        assert_eq!(p.take_batch(), None);
        assert!(!suspends(p.unlock(LockId(3))));
        p.finish();
        let unlock = Op::Unlock(LockId(3));
        assert_eq!(p.take_batch(), Some((vec![unlock], Flush::End)));
    }

    #[test]
    fn zero_byte_accesses_issue_nothing() {
        let p = Cpu::new(0, 1, 1);
        p.compute(7);
        assert!(!suspends(p.touch_read(0, 0)));
        assert!(!suspends(p.touch_write(64, 0)));
        assert_eq!(
            p.take_batch(),
            None,
            "nothing issued, compute still deferred"
        );
        p.finish();
        assert_eq!(p.take_batch(), Some((vec![Op::Compute(7)], Flush::Cap)));

        let mut pool = Pool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 0, 1, 1);
            p.touch_read(0, 0);
            p.touch_write(0, 0);
            p.finish();
        });
        assert_eq!(pool.resume(t), Resumed::Finished);
    }

    #[test]
    fn block_on_hands_an_async_body_over_the_baton() {
        let mut pool = Pool::new();
        let t = pool.spawn(|y| {
            let p = Proc::new(y, 1, 2, BATCH_CAP);
            p.block_on(crate::async_body(|c| async move {
                c.compute(3);
                c.barrier(BarrierId(0)).await;
                c.touch_read(16, 8).await;
            }));
            p.finish();
        });
        let run = [Op::Compute(3), Op::Barrier(BarrierId(0))];
        assert_eq!(pool.resume(t), batch(&run, Flush::Sync));
        let read = Op::Read { addr: 16, bytes: 8 };
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
