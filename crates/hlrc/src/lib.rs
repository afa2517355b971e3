//! Home-based Lazy Release Consistency (HLRC) — the paper's page-based
//! shared virtual memory protocol.
//!
//! Protocol summary (paper §2; Zhou, Iftode & Li, OSDI'96):
//!
//! * Every page has a **home**; the home's copy is kept up to date.
//! * A read fault fetches the **whole page** from the home.
//! * The first write to a non-home page creates a **twin**; modified words
//!   are tracked per word.
//! * At a **release** (lock release or barrier arrival), the writer
//!   computes a **diff** against the twin for each dirty page and sends it
//!   eagerly to the page's home, which applies it. The page downgrades to
//!   read-only at the writer.
//! * **Write notices** (page identities, grouped into per-release
//!   *intervals* with vector timestamps) travel lazily: a lock grant
//!   carries exactly the notices the acquirer has not seen; it invalidates
//!   those pages. Barriers deliver all outstanding notices to everyone.
//! * Home nodes write their own pages directly (no twin/diff) and their
//!   copies are never invalidated.
//!
//! Cost model hooks (all charged through [`ssm_proto::Machine`]): fault
//! handlers, mprotect, twin creation, diff creation/application (with cache
//! pollution), message handling, and the host/NI/bus costs of every
//! message.
//!
//! # AURC mode
//!
//! The same engine also implements **AURC** (automatic-update release
//! consistency — Iftode et al.), the hardware-assisted variant the paper
//! points to when diff cost dominates ("hardware support for automatic
//! write propagation can eliminate diffs", §4.3): writes to non-home pages
//! are snooped off the memory bus and propagated to the home by the NI as
//! they happen — no twins, no diffs, no host CPU involvement — and a
//! release only waits until the outstanding updates have drained into the
//! homes. The LRC machinery (intervals, vector timestamps, write notices)
//! is identical. Construct with [`Hlrc::aurc`].

mod notices;
mod pages;

pub use notices::{NoticeBoard, VectorTime};
pub use pages::{DirtyBits, NodePages, PageState};

use ssm_engine::Cycles;
use ssm_proto::machine::Activity;
use ssm_proto::{
    BarrierId, HomeMap, HomePolicy, LockId, LockTable, Machine, Protocol, SendFrom, SyncManager,
    WorldShape, PAGE_SIZE, PAGE_WORDS, WORD_BYTES,
};

/// Bytes of a small control message (requests, acks; includes a vector
/// timestamp when needed).
const CTRL_BYTES: u64 = 64;

/// Header bytes on data-bearing messages.
const HDR_BYTES: u64 = 16;

/// Bytes per encoded diff word (offset + value).
const DIFF_WORD_BYTES: u64 = 8;

/// Bytes per write notice in a grant/release message.
const NOTICE_BYTES: u64 = 8;

/// How writes propagate to the home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Software twins + diffs at release (classic HLRC).
    TwinDiff,
    /// Hardware automatic update: writes stream to the home as they occur
    /// (AURC); a release waits for the updates to drain.
    AutoUpdate,
}

/// The HLRC protocol engine.
///
/// # Example
///
/// ```rust
/// use ssm_hlrc::Hlrc;
/// use ssm_proto::{Machine, Protocol, ProtoCosts, WorldShape};
/// use ssm_mem::MemConfig;
/// use ssm_net::CommParams;
///
/// let mut m = Machine::new(2, CommParams::achievable(),
///                          ProtoCosts::original(), MemConfig::pentium_pro_like());
/// let mut hlrc = Hlrc::new();
/// hlrc.init(&m, &WorldShape { heap_bytes: 1 << 16, nlocks: 1, nbarriers: 1 });
/// // A read by P1 of page 0 (homed at node 0) is a remote page fetch.
/// let t = hlrc.read(&mut m, 1, 0, 8);
/// assert!(t > 1000);
/// ```
#[derive(Debug)]
pub struct Hlrc {
    pages: Vec<NodePages>,
    board: NoticeBoard,
    sync: SyncManager,
    /// Vector timestamp of each lock's last release.
    lock_vt: Vec<VectorTime>,
    mode: WriteMode,
    /// Page units and their homes.
    units: HomeMap,
    /// AURC: per-processor arrival time of the latest outstanding
    /// automatic update (releases wait for this).
    inflight: Vec<Cycles>,
    /// AURC: pages written by each processor in its current interval.
    auto_written: Vec<std::collections::BTreeSet<u64>>,
}

impl Hlrc {
    /// Creates an uninitialized protocol instance ([`Protocol::init`] must
    /// run before use).
    pub fn new() -> Self {
        Hlrc {
            pages: Vec::new(),
            board: NoticeBoard::new(1),
            // Releases carry p's new vector timestamp, built in handler
            // context by the release flush.
            sync: SyncManager::new(CTRL_BYTES, SendFrom::Handler),
            lock_vt: Vec::new(),
            mode: WriteMode::TwinDiff,
            units: HomeMap::new(HomePolicy::RoundRobin, PAGE_SIZE),
            inflight: Vec::new(),
            auto_written: Vec::new(),
        }
    }

    /// Selects the page-to-home placement policy (before `init`).
    pub fn with_homes(mut self, policy: HomePolicy) -> Self {
        self.units = HomeMap::new(policy, PAGE_SIZE);
        self
    }

    /// Creates the AURC variant (automatic update instead of twins/diffs).
    pub fn aurc() -> Self {
        let mut h = Hlrc::new();
        h.mode = WriteMode::AutoUpdate;
        h
    }

    /// The configured write-propagation mode.
    pub fn mode(&self) -> WriteMode {
        self.mode
    }

    /// The page state of `page` as seen by `node` (inspection hook for
    /// tests and tools).
    pub fn page_state(&self, node: usize, page: u64) -> PageState {
        self.pages[node].state(page)
    }

    /// Direct access to the lock table (test setup hook).
    pub fn lock_table_mut(&mut self) -> &mut LockTable {
        self.sync.locks_mut()
    }

    /// Synthetic address of the twin buffer for `page` at any node, used
    /// for cache-pollution modelling (twins live outside the shared heap).
    fn twin_addr(&self, page: u64) -> u64 {
        self.units.addr(self.units.count() + page)
    }

    /// Fetches `page` into `p` (read fault path). Returns completion time.
    fn fetch_page(&mut self, m: &mut Machine, p: usize, page: u64, t: Cycles) -> Cycles {
        let h = self.units.home(page, p);
        debug_assert_ne!(h, p, "home pages never fault at home");
        // Access fault: the SIGSEGV handler runs on p.
        let t = m.proto_work(p, t, m.costs().handler_base, Activity::Handler);
        // Request to the home.
        let (_, req) = m.send(SendFrom::App, p, t, h, CTRL_BYTES);
        let th = m.handle_request(h, req, 0);
        // VMMC-style send: the NI DMAs the page straight out of home
        // memory — the home CPU only posts the send (host overhead); the
        // data movement cost is the I/O-bus transfer inside `deliver`.
        let (_, data) = m.send(SendFrom::Handler, h, th, p, PAGE_SIZE + HDR_BYTES);
        // Fresh contents: locally cached lines of this page are stale.
        m.cache_invalidate(p, self.units.addr(page), PAGE_SIZE);
        // Map it read-only.
        let done = m.proto_work(p, data, m.costs().mprotect(1), Activity::Mprotect);
        self.pages[p].set_read_only(page);
        let c = m.counters_mut(p);
        c.fetches += 1;
        c.remote_reads += 1;
        done
    }

    /// Ensures `p` can read `page`, fetching it on a fault. Returns the
    /// completion time and whether `p` faulted.
    fn ensure_readable(
        &mut self,
        m: &mut Machine,
        p: usize,
        page: u64,
        t: Cycles,
    ) -> (Cycles, bool) {
        if self.units.home(page, p) == p || self.pages[p].state(page) != PageState::Invalid {
            return (t, false);
        }
        (self.fetch_page(m, p, page, t), true)
    }

    /// `p` writes the `[addr, addr+bytes)` slice of `page`. A home page is
    /// written in place. Elsewhere a write fault fetches the page if needed
    /// and twins it (AURC: switches it to automatic update), then the
    /// slice's words are marked dirty (AURC: streamed to the home).
    /// Returns the completion time and whether `p` faulted.
    fn write_page(
        &mut self,
        m: &mut Machine,
        p: usize,
        page: u64,
        addr: u64,
        bytes: u64,
        t: Cycles,
    ) -> (Cycles, bool) {
        let h = self.units.home(page, p);
        if h == p {
            self.pages[p].mark_home_written(page);
            return (t, false);
        }
        let pstart = self.units.addr(page);
        let state = self.pages[p].state(page);
        let mut t = t;
        if state == PageState::Invalid {
            t = self.fetch_page(m, p, page, t);
        }
        if state != PageState::ReadWrite {
            // Write fault on a read-only page.
            t = m.proto_work(p, t, m.costs().handler_base, Activity::Handler);
            if self.mode == WriteMode::TwinDiff {
                // Create the twin; the copy pollutes the cache (read the
                // page, write the twin).
                t = m.proto_work(p, t, m.costs().twin.cost(PAGE_WORDS), Activity::Twin);
                t = m.proto_touch(p, t, pstart, PAGE_SIZE, false, Activity::Twin);
                t = m.proto_touch(p, t, self.twin_addr(page), PAGE_SIZE, true, Activity::Twin);
                self.pages[p].make_writable(page);
                m.counters_mut(p).twins += 1;
            } else {
                // AURC still faults once, to switch the mapping to
                // write-through-with-update; no twin is made.
                self.pages[p].make_writable_untwinned(page);
            }
            t = m.proto_work(p, t, m.costs().mprotect(1), Activity::Mprotect);
            m.counters_mut(p).remote_writes += 1;
        }
        let lo = addr.max(pstart);
        let hi = (addr + bytes).min(pstart + PAGE_SIZE);
        match self.mode {
            WriteMode::TwinDiff => {
                // Record the dirty words of this page's slice.
                let first_word = (lo - pstart) / WORD_BYTES;
                let last_word = (hi - 1 - pstart) / WORD_BYTES;
                self.pages[p].mark_dirty(page, first_word, last_word - first_word + 1);
            }
            WriteMode::AutoUpdate => {
                // Hardware propagates the written words to the home as one
                // coalesced update (no CPU at either end).
                let (_, arrival) = m.send(SendFrom::Hardware, p, t, h, HDR_BYTES + (hi - lo));
                m.cache_invalidate(h, lo, hi - lo);
                self.inflight[p] = self.inflight[p].max(arrival);
                self.auto_written[p].insert(page);
                m.counters_mut(p).auto_updates += 1;
            }
        }
        (t, state != PageState::ReadWrite)
    }

    /// Computes and ships the diff of one page to its home; returns
    /// `(local_done, applied_at_home)`.
    fn flush_one(
        &mut self,
        m: &mut Machine,
        p: usize,
        page: u64,
        dirty: u64,
        t: Cycles,
    ) -> (Cycles, Cycles) {
        let h = self.units.home(page, p);
        debug_assert_ne!(h, p);
        // Diff creation: compare every word, encode the dirty ones.
        let create = m.costs().diff_compare.cost(PAGE_WORDS) + m.costs().diff_encode.cost(dirty);
        let t = m.proto_work(p, t, create, Activity::DiffCreate);
        let t = m.proto_touch(
            p,
            t,
            self.units.addr(page),
            PAGE_SIZE,
            false,
            Activity::DiffCreate,
        );
        let t = m.proto_touch(
            p,
            t,
            self.twin_addr(page),
            PAGE_SIZE,
            false,
            Activity::DiffCreate,
        );
        // Ship it.
        let bytes = HDR_BYTES + DIFF_WORD_BYTES * dirty;
        let (local, arr) = m.send(SendFrom::Handler, p, t, h, bytes);
        // Apply at the home.
        let th = m.handle_request(h, arr, 0);
        let apply = m.costs().diff_apply.cost(dirty);
        let th = m.proto_work(h, th, apply, Activity::DiffApply);
        let th = m.proto_touch(
            h,
            th,
            self.units.addr(page),
            PAGE_SIZE,
            true,
            Activity::DiffApply,
        );
        let c = m.counters_mut(p);
        c.diffs += 1;
        c.diff_words += dirty;
        (local, th)
    }

    /// Release-time flush: diffs every twinned page to its home, records
    /// the interval's write notices, downgrades pages. Returns the time at
    /// which the release may proceed (all diffs applied).
    fn release_flush(&mut self, m: &mut Machine, p: usize, t: Cycles) -> Cycles {
        if self.mode == WriteMode::AutoUpdate {
            // AURC: nothing to compute — wait for outstanding updates to
            // drain into the homes, then publish the interval's notices.
            // Pages stay writable (no downgrade: future writes keep
            // streaming updates).
            let done = t.max(self.inflight[p]);
            let mut notice_pages: Vec<u64> = std::mem::take(&mut self.auto_written[p])
                .into_iter()
                .collect();
            notice_pages.extend(self.pages[p].take_home_written());
            self.board.record_interval(p, notice_pages);
            return done;
        }
        let twins = self.pages[p].take_twins();
        let mut local = t;
        let mut done = t;
        let flushed = twins.len() as u64;
        let mut notice_pages: Vec<u64> = Vec::with_capacity(twins.len());
        for (page, bits) in twins {
            let dirty = bits.count();
            notice_pages.push(page);
            if dirty == 0 {
                continue; // twinned but never actually written
            }
            let (l, applied) = self.flush_one(m, p, page, dirty, local);
            local = l;
            done = done.max(applied);
        }
        if flushed > 0 {
            // One batched mprotect downgrades the flushed pages.
            let cost = m.costs().mprotect(flushed);
            local = m.proto_work(p, local, cost, Activity::Mprotect);
        }
        notice_pages.extend(self.pages[p].take_home_written());
        self.board.record_interval(p, notice_pages);
        local.max(done)
    }

    /// Applies write notices at `w`: invalidates the named pages (flushing
    /// any concurrently-twinned page first), charging mprotect once.
    fn apply_notices(
        &mut self,
        m: &mut Machine,
        w: usize,
        t: Cycles,
        pages: &[u64],
        raw: u64,
    ) -> Cycles {
        let mut t = t;
        let mut invalidated = 0u64;
        for &page in pages {
            if self.units.peek(page) == Some(w) {
                continue; // the home copy is always current
            }
            match self.pages[w].state(page) {
                PageState::Invalid => {}
                PageState::ReadOnly => {
                    self.pages[w].invalidate(page);
                    m.cache_invalidate(w, self.units.addr(page), PAGE_SIZE);
                    invalidated += 1;
                }
                PageState::ReadWrite => {
                    if self.mode == WriteMode::AutoUpdate {
                        // AURC: our writes already streamed to the home;
                        // record the page in our interval (if written) and
                        // drop the copy.
                        if self.auto_written[w].remove(&page) {
                            self.board.record_interval(w, vec![page]);
                        }
                        self.pages[w].invalidate(page);
                        m.cache_invalidate(w, self.units.addr(page), PAGE_SIZE);
                        invalidated += 1;
                        continue;
                    }
                    // Concurrent writer: flush our modifications, then drop
                    // the page (multiple-writer resolution through the home).
                    if let Some(bits) = self.pages[w].take_twin(page) {
                        let dirty = bits.count();
                        if dirty > 0 {
                            let (l, applied) = self.flush_one(m, w, page, dirty, t);
                            t = l.max(applied);
                        }
                        self.board.record_interval(w, vec![page]);
                    }
                    self.pages[w].invalidate(page);
                    m.cache_invalidate(w, self.units.addr(page), PAGE_SIZE);
                    invalidated += 1;
                }
            }
        }
        if invalidated > 0 {
            let cost = m.costs().mprotect(invalidated);
            t = m.proto_work(w, t, cost, Activity::Mprotect);
        }
        let c = m.counters_mut(w);
        c.write_notices += raw;
        c.invalidations += invalidated;
        t
    }

    /// Grants `lock` to `w` from its manager at time `t_mgr`: builds the
    /// notice list, ships it, applies invalidations at `w`. Returns when
    /// `w` holds the lock and is consistent.
    fn grant(&mut self, m: &mut Machine, lock: LockId, w: usize, t_mgr: Cycles) -> Cycles {
        let mgr = self.sync.lock_manager(lock);
        let target = self.lock_vt[lock.0 as usize].clone();
        let (pages, raw) = self.board.collect(w, &target);
        // The manager walks the notice list while building the grant.
        let walk = m.costs().per_list_element * raw;
        let t = m.proto_work(mgr, t_mgr, walk, Activity::Handler);
        let bytes = HDR_BYTES + NOTICE_BYTES * raw;
        let t_w = self.sync.notify(m, mgr, t, w, bytes, raw);
        self.apply_notices(m, w, t_w, &pages, raw)
    }
}

impl Default for Hlrc {
    fn default() -> Self {
        Hlrc::new()
    }
}

impl Protocol for Hlrc {
    fn name(&self) -> &'static str {
        match self.mode {
            WriteMode::TwinDiff => "HLRC",
            WriteMode::AutoUpdate => "AURC",
        }
    }

    fn init(&mut self, m: &Machine, shape: &WorldShape) {
        let nprocs = m.nprocs();
        self.units.init(nprocs, shape.heap_bytes);
        self.pages = (0..nprocs)
            .map(|_| NodePages::new(self.units.count()))
            .collect();
        self.board = NoticeBoard::new(nprocs);
        self.sync.init(m, shape);
        self.lock_vt = vec![vec![0; nprocs]; shape.nlocks];
        self.inflight = vec![0; nprocs];
        self.auto_written = vec![std::collections::BTreeSet::new(); nprocs];
    }

    fn read(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles {
        let span = self.units.span(addr, bytes);
        m.access(p, addr, bytes, false, span, |m, page, t| {
            self.ensure_readable(m, p, page, t)
        })
    }

    fn write(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles {
        let span = self.units.span(addr, bytes);
        m.access(p, addr, bytes, true, span, |m, page, t| {
            self.write_page(m, p, page, addr, bytes, t)
        })
    }

    fn lock(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Option<Cycles> {
        // The request carries p's vector timestamp to the manager.
        let t_mgr = self.sync.acquire(m, p, lock)?;
        Some(self.grant(m, lock, p, t_mgr))
    }

    fn unlock(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Cycles {
        // Release: flush diffs so the home copies are current, then tell
        // the manager (carrying p's new vector timestamp).
        let t = self.release_flush(m, p, m.clock[p]);
        let (t_local, next) = self.sync.release(m, p, lock, t);
        self.lock_vt[lock.0 as usize] = self.board.vt(p);
        if let Some((w, t_mgr)) = next {
            let granted = self.grant(m, lock, w, t_mgr);
            m.wake(w, granted);
        }
        t_local
    }

    fn barrier(&mut self, m: &mut Machine, p: usize, barrier: BarrierId) -> Option<Cycles> {
        // Arrival release: flush diffs, then notify the manager.
        let t = self.release_flush(m, p, m.clock[p]);
        let (mut t_mgr, episode) = self.sync.arrive(m, p, barrier, t)?;
        // Last arrival: the manager releases everyone, delivering all
        // outstanding write notices. Sends serialize on the manager's CPU.
        let mgr = self.sync.barrier_manager(barrier);
        let target = self.board.global_vt();
        let mut my_completion = t_mgr;
        for (q, _) in episode {
            let (pages, raw) = self.board.collect(q, &target);
            let walk = m.costs().per_list_element * raw;
            t_mgr = m.proto_work(mgr, t_mgr, walk, Activity::Handler);
            let bytes = HDR_BYTES + NOTICE_BYTES * raw;
            let t_q = self.sync.notify(m, mgr, t_mgr, q, bytes, raw);
            let t_q = self.apply_notices(m, q, t_q, &pages, raw);
            if q == p {
                my_completion = t_q;
            } else {
                m.wake(q, t_q);
            }
        }
        Some(my_completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_mem::MemConfig;
    use ssm_net::CommParams;
    use ssm_proto::ProtoCosts;
    use ssm_stats::Bucket;

    fn setup(nprocs: usize) -> (Machine, Hlrc) {
        let m = Machine::new(
            nprocs,
            CommParams::achievable(),
            ProtoCosts::original(),
            MemConfig::pentium_pro_like(),
        );
        let mut h = Hlrc::new();
        h.init(
            &m,
            &WorldShape {
                heap_bytes: 1 << 20,
                nlocks: 4,
                nbarriers: 2,
            },
        );
        (m, h)
    }

    #[test]
    fn home_access_is_local() {
        let (mut m, mut h) = setup(4);
        // Page 0 is homed at node 0: reads and writes there never fault.
        let t = h.read(&mut m, 0, 0, 8);
        let cache_only = m.breakdowns()[0].get(Bucket::CacheStall);
        assert_eq!(t, cache_only);
        let _ = h.write(&mut m, 0, 16, 8);
        assert_eq!(m.counters()[0].fetches, 0);
        assert_eq!(m.counters()[0].twins, 0);
        assert_eq!(m.counters()[0].local_accesses, 2);
    }

    #[test]
    fn remote_read_fetches_page_once() {
        let (mut m, mut h) = setup(4);
        let t1 = h.read(&mut m, 1, 0, 8); // page 0 homed at 0
        assert!(
            t1 > 2000,
            "page fetch should cost thousands of cycles, got {t1}"
        );
        assert_eq!(m.counters()[1].fetches, 1);
        assert_eq!(h.page_state(1, 0), PageState::ReadOnly);
        // Second read is local.
        m.clock[1] = t1;
        let t2 = h.read(&mut m, 1, 8, 8);
        assert_eq!(m.counters()[1].fetches, 1);
        assert!(
            t2 - t1 < 200,
            "warm read should be near-free, got {}",
            t2 - t1
        );
    }

    #[test]
    fn remote_write_creates_twin_and_release_flushes_diff() {
        let (mut m, mut h) = setup(2);
        // Node 0 writes 4 words of page 1 (home: node 1).
        let t = h.write(&mut m, 0, PAGE_SIZE, 16);
        assert_eq!(m.counters()[0].twins, 1);
        assert_eq!(h.page_state(0, 1), PageState::ReadWrite);
        m.clock[0] = t;
        // Lock release flushes the diff.
        assert!(h.lock_table_mut().acquire(LockId(0), 0));
        let t2 = h.unlock(&mut m, 0, LockId(0));
        assert!(t2 > t);
        assert_eq!(m.counters()[0].diffs, 1);
        assert_eq!(m.counters()[0].diff_words, 4);
        assert_eq!(h.page_state(0, 1), PageState::ReadOnly);
        assert!(m.activities()[0].diff_create > 0);
        assert!(m.activities()[1].diff_apply > 0);
    }

    #[test]
    fn notices_invalidate_at_next_acquire() {
        let (mut m3, mut h3) = setup(3);
        // P2 reads page 0 (home 0) so it holds a read-only copy.
        let t = h3.read(&mut m3, 2, 0, 8);
        m3.clock[2] = t;
        assert_eq!(h3.page_state(2, 0), PageState::ReadOnly);
        // P1 locks, writes page 0, unlocks.
        let t = h3.lock(&mut m3, 1, LockId(1)).expect("free");
        m3.clock[1] = t;
        let t = h3.write(&mut m3, 1, 0, 8);
        m3.clock[1] = t;
        let _ = h3.unlock(&mut m3, 1, LockId(1));
        // P2 acquires the same lock: the grant carries the notice and
        // invalidates its copy.
        let t = h3.lock(&mut m3, 2, LockId(1)).expect("free after release");
        assert_eq!(h3.page_state(2, 0), PageState::Invalid);
        assert_eq!(m3.counters()[2].write_notices, 1);
        assert_eq!(m3.counters()[2].invalidations, 1);
        assert!(t > 0);
    }

    #[test]
    fn contended_lock_blocks_and_wakes() {
        let (mut m, mut h) = setup(2);
        let t = h.lock(&mut m, 0, LockId(0)).expect("free");
        m.clock[0] = t;
        assert_eq!(h.lock(&mut m, 1, LockId(0)), None);
        m.clock[0] = t + 10_000;
        let _ = h.unlock(&mut m, 0, LockId(0));
        let w = m.take_wakeups();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, 1);
        assert!(w[0].1 > t + 10_000);
    }

    #[test]
    fn barrier_delivers_all_notices() {
        let (mut m, mut h) = setup(2);
        // P0 reads page 1 (home: node 1) to cache it.
        let t = h.read(&mut m, 0, PAGE_SIZE, 8);
        m.clock[0] = t;
        assert_eq!(h.page_state(0, 1), PageState::ReadOnly);
        // P1 writes page 1 at home (no twin) then both hit the barrier.
        let t1 = h.write(&mut m, 1, PAGE_SIZE + 8, 8);
        m.clock[1] = t1;
        assert_eq!(h.barrier(&mut m, 1, BarrierId(0)), None);
        let done = h.barrier(&mut m, 0, BarrierId(0));
        assert!(done.is_some());
        // P0's stale copy of page 1 was invalidated by the barrier.
        assert_eq!(h.page_state(0, 1), PageState::Invalid);
        let w = m.take_wakeups();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, 1);
    }

    #[test]
    fn barrier_is_reusable() {
        let (mut m, mut h) = setup(2);
        for _ in 0..3 {
            assert_eq!(h.barrier(&mut m, 1, BarrierId(0)), None);
            assert!(h.barrier(&mut m, 0, BarrierId(0)).is_some());
            let _ = m.take_wakeups();
        }
    }

    #[test]
    fn diff_words_match_written_words() {
        let (mut m, mut h) = setup(2);
        // Write 3 separate words on page 1 (home: node 1) from node 0.
        for i in 0..3u64 {
            let t = h.write(&mut m, 0, PAGE_SIZE + i * 128, 4);
            m.clock[0] = t;
        }
        assert!(h.lock_table_mut().acquire(LockId(0), 0));
        let _ = h.unlock(&mut m, 0, LockId(0));
        assert_eq!(m.counters()[0].diff_words, 3);
    }

    #[test]
    fn multi_page_write_twins_each_page() {
        let (mut m, mut h) = setup(2);
        // A 2-page write from node 0 covering pages 1 and 3 (homes at 1).
        let t = h.write(&mut m, 0, PAGE_SIZE, PAGE_SIZE + 8);
        assert!(t > 0);
        assert_eq!(m.counters()[0].twins, 1); // page 1 twinned; page 2 is home
        assert_eq!(h.page_state(0, 1), PageState::ReadWrite);
    }

    #[test]
    fn protocol_costs_zero_reduce_time() {
        let shape = WorldShape {
            heap_bytes: 1 << 20,
            nlocks: 1,
            nbarriers: 1,
        };
        let run = |costs: ProtoCosts| {
            let mut m = Machine::new(
                2,
                CommParams::achievable(),
                costs,
                MemConfig::pentium_pro_like(),
            );
            let mut h = Hlrc::new();
            h.init(&m, &shape);
            let t = h.write(&mut m, 0, PAGE_SIZE, 64);
            m.clock[0] = t;
            assert!(h.lock_table_mut().acquire(LockId(0), 0));
            h.unlock(&mut m, 0, LockId(0))
        };
        assert!(run(ProtoCosts::best()) < run(ProtoCosts::original()));
    }

    #[test]
    fn concurrent_writer_flushes_on_notice() {
        let (mut m, mut h) = setup(3);
        // P2 writes page 0 under no lock (racy app, multiple-writer case).
        let t = h.write(&mut m, 2, 0, 8);
        m.clock[2] = t;
        assert_eq!(h.page_state(2, 0), PageState::ReadWrite);
        // P1 locks, writes the same page, unlocks.
        let t = h.lock(&mut m, 1, LockId(1)).expect("free");
        m.clock[1] = t;
        let t = h.write(&mut m, 1, 64, 8);
        m.clock[1] = t;
        let _ = h.unlock(&mut m, 1, LockId(1));
        // P2 acquires: its concurrent twin must be flushed, then dropped.
        let diffs_before = m.counters()[2].diffs;
        let _ = h.lock(&mut m, 2, LockId(1)).expect("free");
        assert_eq!(m.counters()[2].diffs, diffs_before + 1);
        assert_eq!(h.page_state(2, 0), PageState::Invalid);
    }
}
