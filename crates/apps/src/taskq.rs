//! Distributed task queues with stealing — the work-distribution substrate
//! of Raytrace and Volrend.
//!
//! One queue per processor lives in shared memory (page-aligned so each
//! queue's header and items start on the owner's pages), guarded by one
//! lock per queue. A processor pops from the *head* of its own queue and,
//! when empty, steals from the *tail* of the other queues. Stealing is
//! intentionally expensive under software shared memory — each steal is a
//! lock acquire plus remote reads and writes — which is exactly the effect
//! the paper discusses for Volrend ("task stealing … is now very expensive
//! due to synchronization and protocol activity").

use ssm_proto::{Cpu, LockId, SharedVec, World};

use crate::common::INT_OP;

/// Per-queue header+item layout inside one `u32` stride:
/// `[head, tail, item0, item1, …]`.
const HDR: usize = 2;

/// A set of per-processor task queues in shared memory.
#[derive(Debug, Clone)]
pub struct TaskQueues {
    store: SharedVec<u32>,
    locks: Vec<LockId>,
    stride: usize,
    nprocs: usize,
}

impl TaskQueues {
    /// Allocates queues for `nprocs` processors, each holding up to `cap`
    /// tasks.
    pub fn alloc(world: &mut World, nprocs: usize, cap: usize) -> Self {
        // Pad the stride to a page (1024 u32) so queues do not share pages.
        let stride = (HDR + cap).next_multiple_of(1024);
        let store = world.alloc_vec::<u32>(stride * nprocs);
        let locks = world.alloc_locks(nprocs);
        TaskQueues {
            store,
            locks,
            stride,
            nprocs,
        }
    }

    /// Untimed initial assignment: appends `task` to `pid`'s queue (used
    /// during workload setup, like SPLASH-2's static initial partitions).
    pub fn seed(&self, pid: usize, task: u32) {
        let base = pid * self.stride;
        let tail = self.store.get_direct(base + 1) as usize;
        self.store.set_direct(base + HDR + tail, task);
        self.store.set_direct(base + 1, tail as u32 + 1);
    }

    /// Pops a task for processor `p`: its own queue first (from the head),
    /// then stealing from the busiest end (tail) of the other queues in
    /// round-robin order. Returns `(task, stolen)` or `None` when every
    /// queue was observed empty.
    pub async fn pop(&self, p: &Cpu) -> Option<(u32, bool)> {
        let me = p.pid();
        for k in 0..self.nprocs {
            let victim = (me + k) % self.nprocs;
            let base = victim * self.stride;
            p.lock(self.locks[victim]).await;
            // Head and tail live together: one fine-grained read.
            let hdr = self.store.read_range(p, base, 2).await;
            let (head, tail) = (hdr[0] as usize, hdr[1] as usize);
            let got = if head < tail {
                if victim == me {
                    // Own queue: take from the head.
                    let t = self.store.read(p, base + HDR + head).await;
                    self.store.write(p, base, head as u32 + 1).await;
                    Some((t, false))
                } else {
                    // Steal from the tail.
                    let t = self.store.read(p, base + HDR + tail - 1).await;
                    self.store.write(p, base + 1, tail as u32 - 1).await;
                    Some((t, true))
                }
            } else {
                None
            };
            p.compute(4 * INT_OP);
            p.unlock(self.locks[victim]).await;
            if got.is_some() {
                return got;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_core::{Protocol, SimBuilder};
    use ssm_proto::{async_body, AsyncBody, Workload};
    use std::cell::RefCell;
    use std::collections::HashSet;

    /// All processors drain the queues; every task must be executed exactly
    /// once, across own-pops and steals.
    struct Drain {
        tasks_per_proc: usize,
        done: RefCell<Option<SharedVec<u32>>>,
    }

    impl Workload for Drain {
        fn name(&self) -> String {
            "drain".into()
        }
        fn mem_bytes(&self) -> usize {
            1 << 20
        }
        fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
            let q = TaskQueues::alloc(world, nprocs, self.tasks_per_proc * nprocs);
            let total = self.tasks_per_proc * nprocs;
            let done = world.alloc_vec::<u32>(total);
            // Imbalanced seed: everything starts on P0.
            for t in 0..total {
                q.seed(0, t as u32);
            }
            *self.done.borrow_mut() = Some(done.clone());
            let bodies = (0..nprocs)
                .map(|_| {
                    let q = q.clone();
                    let done = done.clone();
                    async_body(move |p| async move {
                        while let Some((t, _stolen)) = q.pop(&p).await {
                            p.compute(500);
                            done.write(&p, t as usize, 1).await;
                        }
                    })
                })
                .collect();
            Some(bodies)
        }
        fn verify(&self) -> Result<(), String> {
            let guard = self.done.borrow();
            let done = guard.as_ref().ok_or("not spawned")?;
            let missing: Vec<usize> = (0..done.len())
                .filter(|&i| done.get_direct(i) != 1)
                .collect();
            if missing.is_empty() {
                Ok(())
            } else {
                Err(format!("tasks never executed: {missing:?}"))
            }
        }
    }

    #[test]
    fn all_tasks_execute_exactly_once_with_stealing() {
        let w = Drain {
            tasks_per_proc: 8,
            done: RefCell::new(None),
        };
        let r = SimBuilder::new(Protocol::Hlrc).procs(4).run(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
        // Stealing implies lock traffic well beyond one acquire per task.
        assert!(r.counters.lock_acquires >= 32);
    }

    #[test]
    fn seed_and_headers_are_consistent() {
        let mut world = World::new(1 << 20);
        let q = TaskQueues::alloc(&mut world, 2, 16);
        q.seed(1, 7);
        q.seed(1, 9);
        let base = q.stride;
        assert_eq!(q.store.get_direct(base), 0); // head
        assert_eq!(q.store.get_direct(base + 1), 2); // tail
        assert_eq!(q.store.get_direct(base + HDR), 7);
        assert_eq!(q.store.get_direct(base + HDR + 1), 9);
    }

    #[test]
    fn queues_do_not_share_pages() {
        let mut world = World::new(1 << 20);
        let q = TaskQueues::alloc(&mut world, 4, 3);
        let a0 = q.store.addr_of(0);
        let a1 = q.store.addr_of(q.stride);
        assert_ne!(a0 / 4096, a1 / 4096);
    }

    #[test]
    fn tasks_unique_even_under_ideal_concurrency() {
        let w = Drain {
            tasks_per_proc: 16,
            done: RefCell::new(None),
        };
        let r = SimBuilder::new(Protocol::Ideal).procs(8).run(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
        let _ = HashSet::<u32>::new();
    }
}
