//! The synchronization layer every protocol shares: a distributed lock
//! manager and a centralized-per-barrier manager ([`SyncManager`]), built
//! on a FIFO [`LockTable`] and an episode-counting [`BarrierTable`].
//!
//! The managers' functionality is the same under every protocol; only the
//! size of their control messages and the consistency data a protocol
//! attaches to a grant or a barrier release differ. Protocols therefore
//! call the manager for placement, queueing and the plain message hops,
//! and add their own payload around it (see DESIGN.md §5).

use ssm_engine::Cycles;

use crate::machine::{Activity, Machine, SendFrom};
use crate::protocol::WorldShape;
use crate::shmem::{BarrierId, LockId};

/// State of one lock.
#[derive(Debug, Clone, Default)]
struct LockState {
    holder: Option<usize>,
    waiters: Vec<usize>, // FIFO
}

/// A FIFO lock table covering `LockId(0)..LockId(n)`.
///
/// # Example
///
/// ```rust
/// use ssm_proto::{LockTable, LockId};
/// let mut t = LockTable::new(1);
/// assert!(t.acquire(LockId(0), 3));        // granted immediately
/// assert!(!t.acquire(LockId(0), 5));       // queued
/// assert_eq!(t.release(LockId(0), 3), Some(5)); // handed to the waiter
/// assert_eq!(t.release(LockId(0), 5), None);
/// ```
#[derive(Debug, Clone)]
pub struct LockTable {
    locks: Vec<LockState>,
}

impl LockTable {
    /// Creates a table of `n` free locks.
    pub fn new(n: usize) -> Self {
        LockTable {
            locks: vec![LockState::default(); n],
        }
    }

    /// Attempts to acquire for processor `p`. Returns `true` if granted
    /// immediately, `false` if `p` was queued.
    ///
    /// # Panics
    ///
    /// Panics if `p` already holds or already waits for the lock.
    pub fn acquire(&mut self, lock: LockId, p: usize) -> bool {
        let s = &mut self.locks[lock.0 as usize];
        assert_ne!(s.holder, Some(p), "recursive lock acquire by P{p}");
        assert!(!s.waiters.contains(&p), "duplicate lock wait by P{p}");
        if s.holder.is_none() {
            s.holder = Some(p);
            true
        } else {
            s.waiters.push(p);
            false
        }
    }

    /// Releases the lock held by `p`. Returns the next holder if a waiter
    /// was queued (the lock is handed over directly, FIFO).
    ///
    /// # Panics
    ///
    /// Panics if `p` does not hold the lock.
    pub fn release(&mut self, lock: LockId, p: usize) -> Option<usize> {
        let s = &mut self.locks[lock.0 as usize];
        assert_eq!(s.holder, Some(p), "P{p} released a lock it does not hold");
        if s.waiters.is_empty() {
            s.holder = None;
            None
        } else {
            let next = s.waiters.remove(0);
            s.holder = Some(next);
            Some(next)
        }
    }
}

/// State of one barrier.
#[derive(Debug, Clone, Default)]
struct BarrierState {
    /// `(processor, arrival cycle)` for the current episode.
    arrived: Vec<(usize, Cycles)>,
    episode: u64,
}

/// An episode-counting barrier table covering `BarrierId(0)..BarrierId(n)`.
///
/// # Example
///
/// ```rust
/// use ssm_proto::{BarrierTable, BarrierId};
/// let mut t = BarrierTable::new(1, 2);
/// assert_eq!(t.arrive(BarrierId(0), 0, 10), None);
/// assert_eq!(t.arrive(BarrierId(0), 1, 7), Some(vec![(0, 10), (1, 7)]));
/// assert_eq!(t.episodes(BarrierId(0)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BarrierTable {
    barriers: Vec<BarrierState>,
    nprocs: usize,
}

impl BarrierTable {
    /// Creates a table of `n` barriers for `nprocs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs == 0`.
    pub fn new(n: usize, nprocs: usize) -> Self {
        assert!(nprocs > 0);
        BarrierTable {
            barriers: vec![BarrierState::default(); n],
            nprocs,
        }
    }

    /// Records `p`'s arrival at cycle `t`. Returns every `(processor,
    /// arrival cycle)` in arrival order if `p` completed the episode (the
    /// barrier then resets for reuse), `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `p` arrives twice in one episode.
    pub fn arrive(
        &mut self,
        barrier: BarrierId,
        p: usize,
        t: Cycles,
    ) -> Option<Vec<(usize, Cycles)>> {
        let s = &mut self.barriers[barrier.0 as usize];
        assert!(
            s.arrived.iter().all(|&(q, _)| q != p),
            "P{p} arrived twice at barrier {barrier:?}"
        );
        s.arrived.push((p, t));
        if s.arrived.len() == self.nprocs {
            s.episode += 1;
            Some(std::mem::take(&mut s.arrived))
        } else {
            None
        }
    }

    /// Completed episodes of `barrier`.
    pub fn episodes(&self, barrier: BarrierId) -> u64 {
        self.barriers[barrier.0 as usize].episode
    }
}

/// The distributed lock manager and the centralized-per-barrier manager
/// shared by every protocol.
///
/// Lock `l` and barrier `b` are managed at node `l % nprocs` and
/// `b % nprocs`. A request reaches its manager as one control message
/// (or one `handler_base` of local work when the requester is the
/// manager); the manager queues lock waiters FIFO and answers each
/// grant or barrier release with a control message of its own. What a
/// protocol adds on top (write notices, flushes, ownership handoffs)
/// stays in the protocol.
#[derive(Debug, Clone)]
pub struct SyncManager {
    nprocs: usize,
    ctrl_bytes: u64,
    release_from: SendFrom,
    pub(crate) locks: LockTable,
    pub(crate) barriers: BarrierTable,
}

impl SyncManager {
    /// Creates an uninitialized manager whose control messages are
    /// `ctrl_bytes` long and whose lock releases are sent from
    /// `release_from` ([`SyncManager::init`] must run before use).
    /// Acquires and barrier arrivals are sent from the application; HLRC
    /// sends its lock releases from handler context (its release flush is
    /// protocol work).
    pub fn new(ctrl_bytes: u64, release_from: SendFrom) -> Self {
        SyncManager {
            nprocs: 0,
            ctrl_bytes,
            release_from,
            locks: LockTable::new(0),
            barriers: BarrierTable::new(0, 1),
        }
    }

    /// Sizes the tables for the machine and the allocated world.
    pub fn init(&mut self, m: &Machine, shape: &WorldShape) {
        self.nprocs = m.nprocs();
        self.locks = LockTable::new(shape.nlocks);
        self.barriers = BarrierTable::new(shape.nbarriers, self.nprocs);
    }

    /// Manager node of `lock`.
    pub fn lock_manager(&self, lock: LockId) -> usize {
        lock.0 as usize % self.nprocs
    }

    /// Manager node of `barrier`.
    pub fn barrier_manager(&self, barrier: BarrierId) -> usize {
        barrier.0 as usize % self.nprocs
    }

    /// Direct access to the lock table (test setup hook).
    pub fn locks_mut(&mut self) -> &mut LockTable {
        &mut self.locks
    }

    /// `p`'s control message reaches manager `mgr` at `now`: one
    /// `handler_base` of local work when `p` is the manager, otherwise a
    /// send plus a request handler. Returns `(local_done, at_manager)`.
    fn to_manager(
        &self,
        m: &mut Machine,
        p: usize,
        mgr: usize,
        now: Cycles,
        from: SendFrom,
    ) -> (Cycles, Cycles) {
        if mgr == p {
            let t = m.proto_work(p, now, m.costs().handler_base, Activity::Handler);
            return (t, t);
        }
        let (local, arr) = m.send(from, p, now, mgr, self.ctrl_bytes);
        (local, m.handle_request(mgr, arr, 0))
    }

    /// A message of `bytes` carrying `elems` list elements from manager
    /// `mgr` at `t` to `w`; free when `w` is the manager. Returns when
    /// `w`'s handler is done with it.
    pub fn notify(
        &self,
        m: &mut Machine,
        mgr: usize,
        t: Cycles,
        w: usize,
        bytes: u64,
        elems: u64,
    ) -> Cycles {
        if mgr == w {
            return t;
        }
        let (_, arr) = m.send(SendFrom::Handler, mgr, t, w, bytes);
        m.handle_request(w, arr, elems)
    }

    /// The plain grant of `lock` to `w`: one control message from the
    /// manager, sent at `t_mgr`.
    pub fn grant(&self, m: &mut Machine, lock: LockId, w: usize, t_mgr: Cycles) -> Cycles {
        self.notify(m, self.lock_manager(lock), t_mgr, w, self.ctrl_bytes, 0)
    }

    /// `p` requests `lock` at `m.clock[p]`. Returns the cycle the manager
    /// has granted it if the lock was free, `None` if `p` is queued (a
    /// later [`SyncManager::release`] names it as the next holder).
    pub fn acquire(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Option<Cycles> {
        m.counters_mut(p).lock_acquires += 1;
        let mgr = self.lock_manager(lock);
        let (_, t_mgr) = self.to_manager(m, p, mgr, m.clock[p], SendFrom::App);
        self.locks.acquire(lock, p).then_some(t_mgr)
    }

    /// `p` releases `lock` at `now`. Returns `p`'s local completion and,
    /// if a waiter was queued, the next holder with the cycle the manager
    /// hands it the lock.
    pub fn release(
        &mut self,
        m: &mut Machine,
        p: usize,
        lock: LockId,
        now: Cycles,
    ) -> (Cycles, Option<(usize, Cycles)>) {
        let mgr = self.lock_manager(lock);
        let (local, t_mgr) = self.to_manager(m, p, mgr, now, self.release_from);
        (local, self.locks.release(lock, p).map(|next| (next, t_mgr)))
    }

    /// `p` arrives at `barrier` at `now`. Returns `None` while the episode
    /// is incomplete. The last arrival gets the cycle the manager has
    /// handled every arrival and the episode's `(processor, arrival at
    /// the manager)` list, to release; its barrier count is bumped.
    pub fn arrive(
        &mut self,
        m: &mut Machine,
        p: usize,
        barrier: BarrierId,
        now: Cycles,
    ) -> Option<(Cycles, Vec<(usize, Cycles)>)> {
        let mgr = self.barrier_manager(barrier);
        let (_, t_arr) = self.to_manager(m, p, mgr, now, SendFrom::App);
        let episode = self.barriers.arrive(barrier, p, t_arr)?;
        m.counters_mut(p).barriers += 1;
        let last = episode.iter().map(|&(_, t)| t).max().unwrap_or(t_arr);
        Some((last, episode))
    }

    /// A barrier with no consistency payload: `p` arrives at `now`; the
    /// last arrival's manager releases everyone with one control message
    /// each, serialized on its CPU. Returns `p`'s completion if it was the
    /// last arrival (the others are woken), `None` otherwise.
    pub fn barrier(
        &mut self,
        m: &mut Machine,
        p: usize,
        barrier: BarrierId,
        now: Cycles,
    ) -> Option<Cycles> {
        let (mut t_mgr, episode) = self.arrive(m, p, barrier, now)?;
        let mgr = self.barrier_manager(barrier);
        let mut mine = t_mgr;
        for (q, _) in episode {
            let t_q = if q == mgr {
                t_mgr
            } else {
                let (local, arr) = m.send(SendFrom::Handler, mgr, t_mgr, q, self.ctrl_bytes);
                t_mgr = local;
                m.handle_request(q, arr, 0)
            };
            if q == p {
                mine = t_q;
            } else {
                m.wake(q, t_q);
            }
        }
        Some(mine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::ProtoCosts;
    use ssm_mem::MemConfig;
    use ssm_net::CommParams;

    const CTRL: u64 = 32;

    fn manager(nprocs: usize, nlocks: usize, nbarriers: usize) -> (Machine, SyncManager) {
        let m = Machine::new(
            nprocs,
            CommParams::achievable(),
            ProtoCosts::original(),
            MemConfig::pentium_pro_like(),
        );
        let mut sync = SyncManager::new(CTRL, SendFrom::App);
        sync.init(
            &m,
            &WorldShape {
                heap_bytes: 1,
                nlocks,
                nbarriers,
            },
        );
        (m, sync)
    }

    #[test]
    fn managers_are_placed_round_robin() {
        let (_, sync) = manager(3, 8, 8);
        for id in 0..8u32 {
            assert_eq!(sync.lock_manager(LockId(id)), id as usize % 3);
            assert_eq!(sync.barrier_manager(BarrierId(id)), id as usize % 3);
        }
    }

    #[test]
    fn self_managed_request_costs_one_handler_and_no_message() {
        let (mut m, mut sync) = manager(2, 1, 1);
        let base = m.costs().handler_base;
        m.clock[0] = 100;
        // Lock 0 and barrier 0 are managed at node 0.
        assert_eq!(sync.acquire(&mut m, 0, LockId(0)), Some(100 + base));
        assert_eq!(sync.grant(&mut m, LockId(0), 0, 100 + base), 100 + base);
        let (local, next) = sync.release(&mut m, 0, LockId(0), 500);
        assert_eq!((local, next), (500 + base, None));
        assert_eq!(sync.arrive(&mut m, 0, BarrierId(0), 900), None);
        assert_eq!(m.counters()[0].messages, 0);
        assert_eq!(m.breakdowns()[0].get(ssm_stats::Bucket::Protocol), 3 * base);
    }

    #[test]
    fn remote_request_is_one_control_message() {
        let (mut m, mut sync) = manager(2, 1, 0);
        let t_mgr = sync.acquire(&mut m, 1, LockId(0)).expect("free");
        assert_eq!(m.counters()[1].messages, 1);
        assert_eq!(m.counters()[1].bytes, CTRL);
        assert_eq!(m.counters()[1].lock_acquires, 1);
        let granted = sync.grant(&mut m, LockId(0), 1, t_mgr);
        assert!(granted > t_mgr);
        assert_eq!(m.counters()[0].messages, 1);
    }

    #[test]
    fn waiters_are_granted_fifo() {
        let (mut m, mut sync) = manager(4, 1, 0);
        assert!(sync.acquire(&mut m, 0, LockId(0)).is_some());
        for p in [3, 1, 2] {
            assert_eq!(sync.acquire(&mut m, p, LockId(0)), None);
        }
        let mut holder = 0;
        for want in [3, 1, 2] {
            let (_, next) = sync.release(&mut m, holder, LockId(0), 1000);
            let (w, t_mgr) = next.expect("a waiter is queued");
            assert_eq!(w, want);
            assert!(t_mgr >= 1000);
            holder = w;
        }
        assert_eq!(sync.release(&mut m, holder, LockId(0), 2000).1, None);
    }

    #[test]
    fn handler_release_charges_protocol_time() {
        let (mut m, mut app) = manager(2, 1, 0);
        assert!(app.acquire(&mut m, 1, LockId(0)).is_some());
        let before = m.breakdowns()[1].get(ssm_stats::Bucket::Protocol);
        let _ = app.release(&mut m, 1, LockId(0), 10_000);
        assert_eq!(m.breakdowns()[1].get(ssm_stats::Bucket::Protocol), before);

        let (mut m, mut sync) = manager(2, 1, 0);
        sync.release_from = SendFrom::Handler;
        assert!(sync.acquire(&mut m, 1, LockId(0)).is_some());
        let _ = sync.release(&mut m, 1, LockId(0), 10_000);
        let overhead = m.comm().host_overhead;
        assert_eq!(
            m.breakdowns()[1].get(ssm_stats::Bucket::Protocol),
            before + overhead
        );
    }

    #[test]
    fn barrier_releases_at_its_latest_arrival() {
        let (mut m, mut sync) = manager(3, 0, 1);
        // Node 0 manages the barrier; arrivals reach it out of time order.
        assert_eq!(sync.arrive(&mut m, 1, BarrierId(0), 50_000), None);
        assert_eq!(sync.arrive(&mut m, 0, BarrierId(0), 10), None);
        let (last, episode) = sync
            .arrive(&mut m, 2, BarrierId(0), 20)
            .expect("last arrival completes");
        let order: Vec<usize> = episode.iter().map(|&(q, _)| q).collect();
        assert_eq!(order, vec![1, 0, 2]);
        // The release starts at the latest arrival handled at the manager,
        // not at the last processor's (earlier) arrival time.
        assert_eq!(Some(last), episode.iter().map(|&(_, t)| t).max());
        assert!(last > 50_000);
        assert_eq!(m.counters()[2].barriers, 1);
        assert_eq!(m.counters()[0].barriers + m.counters()[1].barriers, 0);

        // The plain release wakes everyone else no earlier than that.
        assert_eq!(sync.barrier(&mut m, 1, BarrierId(0), 60_000), None);
        assert_eq!(sync.barrier(&mut m, 0, BarrierId(0), 100), None);
        let mine = sync.barrier(&mut m, 2, BarrierId(0), 200).expect("last");
        let mut woken = m.take_wakeups();
        woken.sort_unstable();
        assert_eq!(woken.iter().map(|w| w.0).collect::<Vec<_>>(), vec![0, 1]);
        assert!(mine > 60_000 && woken.iter().all(|&(_, t)| t > 60_000));
    }

    #[test]
    fn lock_fifo_handover() {
        let mut t = LockTable::new(2);
        assert!(t.acquire(LockId(1), 0));
        assert!(!t.acquire(LockId(1), 1));
        assert!(!t.acquire(LockId(1), 2));
        assert_eq!(t.release(LockId(1), 0), Some(1));
        assert_eq!(t.release(LockId(1), 1), Some(2));
        assert_eq!(t.release(LockId(1), 2), None);
        assert!(t.acquire(LockId(1), 0), "free again");
    }

    #[test]
    fn independent_locks() {
        let mut t = LockTable::new(2);
        assert!(t.acquire(LockId(0), 0));
        assert!(t.acquire(LockId(1), 1));
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn release_without_hold_panics() {
        let mut t = LockTable::new(1);
        let _ = t.release(LockId(0), 0);
    }

    #[test]
    #[should_panic(expected = "recursive")]
    fn recursive_acquire_panics() {
        let mut t = LockTable::new(1);
        assert!(t.acquire(LockId(0), 0));
        let _ = t.acquire(LockId(0), 0);
    }

    #[test]
    fn barrier_reuse_across_episodes() {
        let mut t = BarrierTable::new(1, 3);
        assert_eq!(t.arrive(BarrierId(0), 2, 5), None);
        assert_eq!(t.arrive(BarrierId(0), 0, 9), None);
        assert_eq!(
            t.arrive(BarrierId(0), 1, 3),
            Some(vec![(2, 5), (0, 9), (1, 3)])
        );
        // Second episode works after reset.
        assert_eq!(t.arrive(BarrierId(0), 0, 0), None);
        assert_eq!(t.arrive(BarrierId(0), 1, 0), None);
        assert!(t.arrive(BarrierId(0), 2, 0).is_some());
        assert_eq!(t.episodes(BarrierId(0)), 2);
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut t = BarrierTable::new(1, 3);
        let _ = t.arrive(BarrierId(0), 0, 0);
        let _ = t.arrive(BarrierId(0), 0, 1);
    }

    #[test]
    fn single_proc_barrier_completes_immediately() {
        let mut t = BarrierTable::new(1, 1);
        assert_eq!(t.arrive(BarrierId(0), 0, 4), Some(vec![(0, 4)]));
    }
}
