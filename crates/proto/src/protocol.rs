//! The protocol-layer interface, plus the [`Ideal`] (PRAM-like) protocol
//! used for the paper's "IDEAL" speedup bars.
//!
//! A [`Protocol`] receives every simulated operation an application thread
//! performs and decides how much time it costs, charging CPUs, caches and
//! the network through the [`Machine`]. Blocking operations (locks,
//! barriers) may return `None` and later wake the processor through
//! [`Machine::wake`].

use ssm_engine::Cycles;

use crate::machine::{Machine, SendFrom};
use crate::shmem::{BarrierId, LockId};
use crate::sync::SyncManager;

/// Static shape of the workload's world, given to [`Protocol::init`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldShape {
    /// Bytes of shared address space actually allocated.
    pub heap_bytes: u64,
    /// Number of locks allocated.
    pub nlocks: usize,
    /// Number of barriers allocated.
    pub nbarriers: usize,
}

/// A software shared-memory protocol (the paper's protocol layer).
///
/// Completion-time convention: methods take the current application time
/// from `m.clock[p]` and return the cycle at which the operation completes
/// from the application's point of view. The driver then advances the
/// processor clock and attributes the elapsed window to the appropriate
/// bucket (see `ssm-core`).
pub trait Protocol {
    /// Short name for reports ("HLRC", "SC", "IDEAL").
    fn name(&self) -> &'static str;

    /// Called once before the run with the shape of the allocated world.
    fn init(&mut self, m: &Machine, shape: &WorldShape);

    /// A shared read of `[addr, addr+bytes)` by processor `p`.
    fn read(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles;

    /// A shared write of `[addr, addr+bytes)` by processor `p`.
    fn write(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles;

    /// `p` acquires `lock`. `Some(t)` if the acquire completes at `t`
    /// without waiting for another processor; `None` if `p` must block
    /// (the protocol will `m.wake(p, t)` when the lock is handed to it).
    fn lock(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Option<Cycles>;

    /// `p` releases `lock`; returns the local completion time.
    fn unlock(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Cycles;

    /// `p` arrives at `barrier`. `Some(t)` if `p` was the last arrival and
    /// leaves at `t`; `None` if `p` must block until the episode completes.
    fn barrier(&mut self, m: &mut Machine, p: usize, barrier: BarrierId) -> Option<Cycles>;

    /// `p`'s thread body returned (end of run for that processor).
    fn finished(&mut self, _m: &mut Machine, _p: usize) {}
}

/// The idealized shared-memory machine behind the paper's "IDEAL" bars:
/// remote communication and protocol actions are free; only computation,
/// the local cache hierarchy, and true synchronization dependences remain
/// (so load imbalance and serialization at locks still show, and
/// super-linear cache effects can push speedups above the processor count,
/// as the paper notes for Ocean and Volrend).
#[derive(Debug)]
pub struct Ideal {
    sync: SyncManager,
}

impl Default for Ideal {
    fn default() -> Self {
        Ideal::new()
    }
}

impl Ideal {
    /// Creates an ideal protocol instance.
    pub fn new() -> Self {
        // Synchronization is free: only the manager's tables are used.
        Ideal {
            sync: SyncManager::new(0, SendFrom::App),
        }
    }
}

impl Protocol for Ideal {
    fn name(&self) -> &'static str {
        "IDEAL"
    }

    fn init(&mut self, m: &Machine, shape: &WorldShape) {
        self.sync.init(m, shape);
    }

    // No coherence units: every access is local.
    fn read(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles {
        m.access(p, addr, bytes, false, 0..0, |_, _, t| (t, false))
    }

    fn write(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles {
        m.access(p, addr, bytes, true, 0..0, |_, _, t| (t, false))
    }

    fn lock(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Option<Cycles> {
        m.counters_mut(p).lock_acquires += 1;
        self.sync.locks.acquire(lock, p).then_some(m.clock[p])
    }

    fn unlock(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Cycles {
        let now = m.clock[p];
        if let Some(next) = self.sync.locks.release(lock, p) {
            m.wake(next, now);
        }
        now
    }

    fn barrier(&mut self, m: &mut Machine, p: usize, barrier: BarrierId) -> Option<Cycles> {
        let now = m.clock[p];
        let arrivals = self.sync.barriers.arrive(barrier, p, now)?;
        m.counters_mut(p).barriers += 1;
        for (q, _) in arrivals {
            if q != p {
                m.wake(q, now);
            }
        }
        Some(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::ProtoCosts;
    use ssm_mem::MemConfig;
    use ssm_net::CommParams;

    fn shape(nlocks: usize, nbarriers: usize) -> WorldShape {
        WorldShape {
            heap_bytes: 1 << 16,
            nlocks,
            nbarriers,
        }
    }

    fn machine(n: usize) -> Machine {
        Machine::new(
            n,
            CommParams::best(),
            ProtoCosts::best(),
            MemConfig::pentium_pro_like(),
        )
    }

    #[test]
    fn ideal_reads_cost_only_cache() {
        let mut m = machine(2);
        let mut pr = Ideal::new();
        pr.init(&m, &shape(0, 0));
        let t1 = pr.read(&mut m, 0, 0, 8);
        assert!(t1 > 0); // cold miss
        m.clock[0] = t1;
        let t2 = pr.read(&mut m, 0, 0, 8);
        assert_eq!(t2, t1); // warm
    }

    #[test]
    fn ideal_lock_contention_blocks() {
        let mut m = machine(2);
        let mut pr = Ideal::new();
        pr.init(&m, &shape(1, 0));
        assert_eq!(pr.lock(&mut m, 0, LockId(0)), Some(0));
        assert_eq!(pr.lock(&mut m, 1, LockId(0)), None);
        m.clock[0] = 500;
        let _ = pr.unlock(&mut m, 0, LockId(0));
        assert_eq!(m.take_wakeups(), vec![(1, 500)]);
    }

    #[test]
    fn ideal_barrier_wakes_all_at_last_arrival() {
        let mut m = machine(3);
        let mut pr = Ideal::new();
        pr.init(&m, &shape(0, 1));
        m.clock[0] = 10;
        m.clock[1] = 20;
        m.clock[2] = 90;
        assert_eq!(pr.barrier(&mut m, 0, BarrierId(0)), None);
        assert_eq!(pr.barrier(&mut m, 1, BarrierId(0)), None);
        assert_eq!(pr.barrier(&mut m, 2, BarrierId(0)), Some(90));
        let mut w = m.take_wakeups();
        w.sort_unstable();
        assert_eq!(w, vec![(0, 90), (1, 90)]);
    }
}
