//! One-sided RDMA / disaggregated-memory DSM protocol — the "what if the
//! communication layer offers cheap one-sided remote reads/writes"
//! scenario layered over the paper's machine model.
//!
//! Three ideas distinguish this protocol from HLRC and SC:
//!
//! * **Home memory is served by the NI, not the host.** A remote read or
//!   write is a one-sided operation: the initiator posts a descriptor
//!   ([`ssm_net::CommParams::rdma_issue`] cycles of CPU), a small command
//!   crosses the network with *hardware* send semantics (no host overhead
//!   at either end), and the target's NI DMAs against host memory for
//!   [`ssm_net::CommParams::rdma_occupancy`] cycles. No handler runs; the
//!   home processor never notices. The protocol-layer bucket stays near
//!   zero on the data path by construction — exactly the property the
//!   layered decomposition is probing.
//! * **Remote lines are cached with explicit invalidation.** Fetched lines
//!   are held `Clean`; a write dirties the local copy and the flush (at
//!   release/barrier, per release consistency) pushes the line home
//!   one-sidedly and invalidates stale sharers NI-to-NI.
//! * **Synchronization-aware coherence (GCS-style).** Blocks written
//!   under a lock are associated with that lock. On a later acquire by
//!   another node, ownership of those blocks is handed off *with the lock
//!   grant*: the manager's grant triggers the previous owner's NI to push
//!   the protected lines (plus their write notices) straight to the new
//!   holder. The common "acquire → touch protected data → release"
//!   pattern therefore costs one round trip instead of per-line
//!   fault-driven traffic.
//!
//! Like the other protocols, this engine is a *cost model*: workload data
//! lives in host memory and is computed directly, so result verification
//! is independent of protocol bookkeeping. Under release consistency a
//! home read never blocks on a remote dirty copy — properly synchronized
//! programs order such reads after the writer's release (which flushes).

use std::collections::BTreeSet;

use ssm_engine::Cycles;
use ssm_proto::{
    BarrierId, HomeMap, HomePolicy, LockId, Machine, Protocol, SendFrom, SyncManager, WorldShape,
};

/// Bytes of a one-sided command descriptor (remote address + length +
/// doorbell) and of NI-to-NI invalidation / ack messages.
const CMD_BYTES: u64 = 16;

/// Bytes of a small control message on the (host-mediated) lock/barrier
/// paths — same framing as the other protocols.
const CTRL_BYTES: u64 = 32;

/// Header bytes on data-bearing messages.
const HDR_BYTES: u64 = 16;

/// Largest per-lock protected set carried through a deferred ownership
/// handoff. A write burst past this cap stops being associated with the
/// lock and flushes at release like any other dirty line.
const MAX_PROTECTED: usize = 64;

/// Local state of a block at a non-home node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// No valid copy.
    Invalid,
    /// Valid copy matching the home (registered in the home's sharer set).
    Clean,
    /// Locally modified copy; the home is stale until the next flush.
    Dirty,
}

/// The one-sided RDMA protocol engine.
///
/// # Example
///
/// ```rust
/// use ssm_rdma::Rdma;
/// use ssm_proto::{Machine, Protocol, ProtoCosts, WorldShape};
/// use ssm_mem::MemConfig;
/// use ssm_net::CommParams;
///
/// let mut m = Machine::new(2, CommParams::achievable(),
///                          ProtoCosts::original(), MemConfig::pentium_pro_like());
/// let mut rdma = Rdma::new(64);
/// rdma.init(&m, &WorldShape { heap_bytes: 1 << 16, nlocks: 0, nbarriers: 0 });
/// // P1 reads a block homed at node 0: one one-sided fetch, no handler.
/// let t = rdma.read(&mut m, 1, 0, 8);
/// assert!(t > 0);
/// ```
#[derive(Debug)]
pub struct Rdma {
    /// Lines (blocks) and their homes.
    units: HomeMap,
    /// Per-block sharer bitmask kept at the home (NI-maintained; the home
    /// processor never runs a handler for it). The home itself is not in
    /// the mask.
    sharers: Vec<u64>,
    /// `local[node][block]` — this node's copy state (a block's home node
    /// always reads its own memory directly).
    local: Vec<Vec<BlockState>>,
    /// Dirty blocks each node must eventually flush. For a home node this
    /// holds blocks whose *remote sharers* are stale and await
    /// invalidation at the next release.
    write_set: Vec<BTreeSet<u64>>,
    /// Stack of locks each node currently holds, innermost last, with the
    /// blocks written under each (the lock's *protected set*).
    held: Vec<Vec<(LockId, BTreeSet<u64>)>>,
    /// Per-lock deferred ownership: the last releaser and the blocks it
    /// associated with the lock. Advisory — intersected with the owner's
    /// live write set at grant time, so early flushes simply shrink the
    /// transfer.
    deferred: Vec<Option<(usize, BTreeSet<u64>)>>,
    sync: SyncManager,
}

impl Rdma {
    /// Creates a write-back RDMA protocol with the given line (block) size
    /// in bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `block` is a power of two in `[4, PAGE_SIZE]`.
    pub fn new(block: u64) -> Self {
        Rdma {
            units: HomeMap::new(HomePolicy::RoundRobin, block),
            sharers: Vec::new(),
            local: Vec::new(),
            write_set: Vec::new(),
            held: Vec::new(),
            deferred: Vec::new(),
            sync: SyncManager::new(CTRL_BYTES, SendFrom::App),
        }
    }

    /// Selects the page-to-home placement policy (before `init`).
    pub fn with_homes(mut self, policy: HomePolicy) -> Self {
        self.units = HomeMap::new(policy, self.units.unit());
        self
    }

    /// Local state of `block` at `node` (inspection hook).
    pub fn block_state(&self, node: usize, block: u64) -> BlockState {
        self.local[node][block as usize]
    }

    /// Number of dirty blocks `node` has yet to flush (inspection hook).
    pub fn dirty_blocks(&self, node: usize) -> usize {
        self.write_set[node].len()
    }

    /// Ensures `p` can read block `b`, fetching it on a miss. Home memory
    /// is always read in place: under release consistency a correctly
    /// synchronized program orders a home read after the remote writer's
    /// release, which flushed the line home. Returns the completion time
    /// and whether `p` missed.
    fn ensure_valid(&mut self, m: &mut Machine, p: usize, b: u64, t: Cycles) -> (Cycles, bool) {
        let h = self.units.home(b, p);
        if p == h || self.local[p][b as usize] != BlockState::Invalid {
            return (t, false);
        }
        (self.fetch(m, p, h, b, t), true)
    }

    /// One-sided fetch of block `b` into `p` (read miss / write-allocate):
    /// post a descriptor, command to the home's NI, NI serves from host
    /// memory, data returns. No handler runs anywhere. Returns the cycle
    /// the line sits in `p`'s memory.
    fn fetch(&mut self, m: &mut Machine, p: usize, h: usize, b: u64, t: Cycles) -> Cycles {
        let t_issue = m.occupy_cpu(p, t, m.comm().rdma_issue).1;
        let (_, cmd) = m.send(SendFrom::Hardware, p, t_issue, h, CMD_BYTES);
        let served = m.rdma_serve(h, cmd);
        let line = self.units.unit() + HDR_BYTES;
        let (_, data) = m.send(SendFrom::Hardware, h, served, p, line);
        m.cache_invalidate(p, self.units.addr(b), self.units.unit());
        self.local[p][b as usize] = BlockState::Clean;
        self.sharers[b as usize] |= 1u64 << p;
        let c = m.counters_mut(p);
        c.remote_reads += 1;
        c.fetches += 1;
        data
    }

    /// `p` writes block `b`. Home memory is written in place; remote
    /// sharers go stale and are invalidated at the release. A remote line
    /// is fetched on a miss (write-allocate) and dirtied. Returns the
    /// completion time and whether `p` missed.
    fn write_block(&mut self, m: &mut Machine, p: usize, b: u64, t: Cycles) -> (Cycles, bool) {
        if self.units.home(b, p) == p {
            if self.sharers[b as usize] != 0 {
                self.note_write(p, b);
            }
            return (t, false);
        }
        let done = self.ensure_valid(m, p, b, t);
        self.local[p][b as usize] = BlockState::Dirty;
        self.note_write(p, b);
        done
    }

    /// NI-to-NI invalidation of every sharer of `b` except `except`,
    /// initiated from node `from`'s NI at `t`; hardware acks collected.
    /// No host CPU is involved at any end. Returns the all-acked time.
    fn hw_invalidate(
        &mut self,
        m: &mut Machine,
        from: usize,
        b: u64,
        t: Cycles,
        except: usize,
    ) -> Cycles {
        let sharers = self.sharers[b as usize];
        let mut all_acked = t;
        for q in 0..m.nprocs() {
            if q == except || q == from || sharers & (1u64 << q) == 0 {
                continue;
            }
            let (_, arr) = m.send(SendFrom::Hardware, from, t, q, CMD_BYTES);
            let tq = m.rdma_serve(q, arr);
            self.local[q][b as usize] = BlockState::Invalid;
            m.cache_invalidate(q, self.units.addr(b), self.units.unit());
            m.counters_mut(q).invalidations += 1;
            // An invalidated dirty copy is dead; q no longer owes a flush.
            self.write_set[q].remove(&b);
            let (_, ack) = m.send(SendFrom::Hardware, q, tq, from, CMD_BYTES);
            all_acked = all_acked.max(m.rdma_serve(from, ack));
        }
        self.sharers[b as usize] &= 1u64 << except;
        all_acked
    }

    /// Flushes one dirty block: home writers invalidate their stale
    /// remote sharers NI-to-NI; remote writers push the line home
    /// one-sidedly, then the home's NI invalidates the other sharers.
    /// Returns `(local_done, all_done)`.
    fn flush_block(&mut self, m: &mut Machine, p: usize, b: u64, t: Cycles) -> (Cycles, Cycles) {
        let h = self.units.home(b, p);
        if p == h {
            let done = self.hw_invalidate(m, p, b, t, p);
            return (t, done);
        }
        let t_issue = m.occupy_cpu(p, t, m.comm().rdma_issue).1;
        let line = self.units.unit() + HDR_BYTES;
        let (_, arr) = m.send(SendFrom::Hardware, p, t_issue, h, line);
        let served = m.rdma_serve(h, arr);
        let done = self.hw_invalidate(m, h, b, served, p);
        self.local[p][b as usize] = BlockState::Clean;
        self.sharers[b as usize] |= 1u64 << p;
        m.counters_mut(p).remote_writes += 1;
        (t_issue, done)
    }

    /// Flushes every dirty block of `p` (release-consistency release /
    /// barrier). Returns when all flushes are applied and acknowledged.
    fn flush_all(&mut self, m: &mut Machine, p: usize, t: Cycles) -> Cycles {
        let dirty: Vec<u64> = std::mem::take(&mut self.write_set[p]).into_iter().collect();
        let mut local = t;
        let mut done = t;
        for b in dirty {
            let (l, d) = self.flush_block(m, p, b, local);
            local = l;
            done = done.max(d);
        }
        local.max(done)
    }

    /// Records a write by `p` to block `b`: remembers the flush
    /// obligation and associates the block with the innermost lock `p`
    /// holds (the GCS protected set), unless that set is already at the
    /// [`MAX_PROTECTED`] cap.
    fn note_write(&mut self, p: usize, b: u64) {
        self.write_set[p].insert(b);
        if let Some((_, protected)) = self.held[p].last_mut() {
            if protected.len() < MAX_PROTECTED {
                protected.insert(b);
            }
        }
    }

    /// A lock grant from the manager to `w`, with GCS ownership handoff:
    /// if the previous releaser still holds lines it wrote under this
    /// lock, the manager's grant triggers the releaser's NI to push them
    /// (plus write notices) straight to `w`. Returns `w`'s completion.
    fn grant(&mut self, m: &mut Machine, lock: LockId, w: usize, t_mgr: Cycles) -> Cycles {
        let t_ctrl = self.sync.grant(m, lock, w, t_mgr);
        let Some((owner, blocks)) = self.deferred[lock.0 as usize].clone() else {
            return t_ctrl;
        };
        if owner == w {
            return t_ctrl; // reacquire: the data is already local
        }
        // Only lines the owner still holds dirty transfer; anything
        // flushed (or invalidated) since the release dropped out.
        let transfer: Vec<u64> = blocks
            .iter()
            .copied()
            .filter(|&b| {
                self.write_set[owner].contains(&b)
                    && self.local[owner][b as usize] == BlockState::Dirty
            })
            .collect();
        if transfer.is_empty() {
            self.deferred[lock.0 as usize] = None;
            return t_ctrl;
        }
        // Manager → owner: one command wakes the owner's NI...
        let mgr = self.sync.lock_manager(lock);
        let t_o = if mgr == owner {
            // The manager IS the previous owner: no wire hop, the local NI
            // just picks up the push.
            m.rdma_serve(owner, t_mgr)
        } else {
            let (_, cmd) = m.send(SendFrom::Hardware, mgr, t_mgr, owner, CMD_BYTES);
            m.rdma_serve(owner, cmd)
        };
        // ...which pushes the whole protected set to `w` in one message.
        let n = transfer.len() as u64;
        let bytes = n * (self.units.unit() + HDR_BYTES);
        let (_, data) = m.send(SendFrom::Hardware, owner, t_o, w, bytes);
        // `w` installs the lines and their write notices (per-list-element
        // handler cost — the piggybacked coherence information).
        let mut installed = m.handle_request(w, data, n);
        let mut moved = BTreeSet::new();
        for b in transfer {
            self.write_set[owner].remove(&b);
            self.local[owner][b as usize] = BlockState::Invalid;
            m.cache_invalidate(owner, self.units.addr(b), self.units.unit());
            self.sharers[b as usize] &= !(1u64 << owner);
            let h = self.units.home(b, w);
            if h == w {
                // The new holder is the line's home: installing the data
                // *is* the flush. Stale remote sharers get invalidated now.
                installed = installed.max(self.hw_invalidate(m, w, b, installed, w));
                if self.sharers[b as usize] != 0 {
                    self.write_set[w].insert(b);
                }
            } else {
                self.local[w][b as usize] = BlockState::Dirty;
                self.sharers[b as usize] |= 1u64 << w;
                self.write_set[w].insert(b);
                moved.insert(b);
            }
        }
        m.counters_mut(w).write_notices += n;
        // The transferred lines ride with the lock for the next handoff.
        self.deferred[lock.0 as usize] = if moved.is_empty() {
            None
        } else {
            Some((w, moved))
        };
        t_ctrl.max(installed)
    }
}

impl Protocol for Rdma {
    fn name(&self) -> &'static str {
        "RDMA"
    }

    fn init(&mut self, m: &Machine, shape: &WorldShape) {
        let nprocs = m.nprocs();
        assert!(nprocs <= 64, "sharer bitmask holds at most 64 nodes");
        self.units.init(nprocs, shape.heap_bytes);
        let nblocks = self.units.count() as usize;
        self.sharers = vec![0; nblocks];
        self.local = vec![vec![BlockState::Invalid; nblocks]; nprocs];
        self.write_set = vec![BTreeSet::new(); nprocs];
        self.held = vec![Vec::new(); nprocs];
        self.deferred = vec![None; shape.nlocks];
        self.sync.init(m, shape);
    }

    fn read(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles {
        let span = self.units.span(addr, bytes);
        m.access(p, addr, bytes, false, span, |m, b, t| {
            self.ensure_valid(m, p, b, t)
        })
    }

    fn write(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles {
        let span = self.units.span(addr, bytes);
        m.access(p, addr, bytes, true, span, |m, b, t| {
            self.write_block(m, p, b, t)
        })
    }

    fn lock(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Option<Cycles> {
        let t_mgr = self.sync.acquire(m, p, lock)?;
        self.held[p].push((lock, BTreeSet::new()));
        Some(self.grant(m, lock, p, t_mgr))
    }

    fn unlock(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Cycles {
        let now = m.clock[p];
        // Pop this lock's protected set off p's held stack.
        let protected = match self.held[p].iter().rposition(|(l, _)| *l == lock) {
            Some(i) => self.held[p].remove(i).1,
            None => BTreeSet::new(),
        };
        // Lines written under this lock defer their flush: ownership
        // rides with the lock to the next acquirer instead (unless
        // the set overflowed the handoff cap).
        let deferrable: BTreeSet<u64> = if protected.len() <= MAX_PROTECTED {
            protected
                .iter()
                .copied()
                .filter(|b| self.write_set[p].contains(b))
                .collect()
        } else {
            BTreeSet::new()
        };
        // Lines protected by locks p still holds defer to *their*
        // releases; everything else dirty flushes now.
        let still_protected: BTreeSet<u64> = self.held[p]
            .iter()
            .flat_map(|(_, s)| s.iter().copied())
            .collect();
        let flush_now: Vec<u64> = self.write_set[p]
            .iter()
            .copied()
            .filter(|b| !deferrable.contains(b) && !still_protected.contains(b))
            .collect();
        let mut local = now;
        let mut done = now;
        for b in flush_now {
            self.write_set[p].remove(&b);
            let (l, d) = self.flush_block(m, p, b, local);
            local = l;
            done = done.max(d);
        }
        if !deferrable.is_empty() {
            // Merge with an earlier deferral of ours that was never
            // claimed (reacquire-and-release of our own lock).
            let mut blocks = deferrable;
            if let Some((o, prior)) = self.deferred[lock.0 as usize].take() {
                if o == p {
                    blocks.extend(prior);
                }
            }
            self.deferred[lock.0 as usize] = Some((p, blocks));
        }
        let now = local.max(done);
        let (t_local, next) = self.sync.release(m, p, lock, now);
        if let Some((w, t_mgr)) = next {
            self.held[w].push((lock, BTreeSet::new()));
            let granted = self.grant(m, lock, w, t_mgr);
            m.wake(w, granted);
        }
        t_local
    }

    fn barrier(&mut self, m: &mut Machine, p: usize, barrier: BarrierId) -> Option<Cycles> {
        // A barrier is a release of everything: protected sets included.
        for (_, s) in self.held[p].iter_mut() {
            s.clear();
        }
        let now = self.flush_all(m, p, m.clock[p]);
        self.sync.barrier(m, p, barrier, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_mem::MemConfig;
    use ssm_net::CommParams;
    use ssm_proto::{ProtoCosts, PAGE_SIZE};

    fn setup(nprocs: usize, block: u64) -> (Machine, Rdma) {
        let m = Machine::new(
            nprocs,
            CommParams::achievable(),
            ProtoCosts::original(),
            MemConfig::pentium_pro_like(),
        );
        let mut r = Rdma::new(block);
        r.init(
            &m,
            &WorldShape {
                heap_bytes: 1 << 20,
                nlocks: 2,
                nbarriers: 1,
            },
        );
        (m, r)
    }

    #[test]
    fn home_access_is_local_and_free_of_messages() {
        let (mut m, mut r) = setup(4, 64);
        let t = r.read(&mut m, 0, 0, 8);
        m.clock[0] = t;
        let t2 = r.write(&mut m, 0, 0, 8);
        assert_eq!(m.counters()[0].messages, 0);
        assert_eq!(m.counters()[0].local_accesses, 2);
        assert!(t2 >= t);
    }

    #[test]
    fn remote_read_is_one_sided() {
        let (mut m, mut r) = setup(2, 64);
        let b = PAGE_SIZE / 64; // first block of page 1, home = node 1
        let t = r.read(&mut m, 0, PAGE_SIZE, 8);
        assert!(t > 0);
        assert_eq!(r.block_state(0, b), BlockState::Clean);
        assert_eq!(m.counters()[0].fetches, 1);
        // The home processor never ran: no protocol time on node 1.
        assert_eq!(m.breakdowns()[1].get(ssm_stats::Bucket::Protocol), 0);
        // And the initiator spent no *protocol-bucket* time either — the
        // issue cost occupies the CPU without handler work.
        assert_eq!(m.breakdowns()[0].get(ssm_stats::Bucket::Protocol), 0);
        // One command out, one line back.
        assert_eq!(m.counters()[0].messages, 1);
        assert_eq!(m.counters()[1].messages, 1);
        // Warm read: free.
        m.clock[0] = t;
        let t2 = r.read(&mut m, 0, PAGE_SIZE + 8, 8);
        assert_eq!(m.counters()[0].fetches, 1);
        assert!(t2 - t < 100);
    }

    #[test]
    fn one_sided_fetch_is_cheaper_than_a_handler_round_trip() {
        // The whole point of the protocol: compare against SC-style
        // host-mediated service costs. achievable: host_overhead 600 +
        // msg_handling 200 + handler costs vs rdma_issue 150 +
        // rdma_occupancy 250.
        let (mut m, mut r) = setup(2, 64);
        let t = r.read(&mut m, 0, PAGE_SIZE, 8);
        // Issue(150) + cmd(16B: 32+1000+20+32) + serve(250) + data(80B:
        // 160+1000+20+160) is well under 4000 even with the double NI
        // crossing; an SC read miss on the same machine exceeds it.
        assert!(t < 4000, "one-sided fetch took {t}");
    }

    #[test]
    fn write_back_dirties_locally_and_flushes_at_barrier() {
        let (mut m, mut r) = setup(2, 64);
        let b = PAGE_SIZE / 64;
        let t = r.write(&mut m, 0, PAGE_SIZE, 8);
        m.clock[0] = t;
        assert_eq!(r.block_state(0, b), BlockState::Dirty);
        assert_eq!(r.dirty_blocks(0), 1);
        let writes_before_flush = m.counters()[0].remote_writes;
        assert_eq!(writes_before_flush, 0, "write-back defers the push");
        // Warm rewrite: entirely local.
        let t2 = r.write(&mut m, 0, PAGE_SIZE, 8);
        m.clock[0] = t2;
        assert_eq!(m.counters()[0].local_accesses, 1);
        // Barrier flushes the line home.
        assert_eq!(r.barrier(&mut m, 1, BarrierId(0)), None);
        assert!(r.barrier(&mut m, 0, BarrierId(0)).is_some());
        assert_eq!(r.dirty_blocks(0), 0);
        assert_eq!(r.block_state(0, b), BlockState::Clean);
        assert_eq!(m.counters()[0].remote_writes, 1);
    }

    #[test]
    fn flush_invalidates_stale_sharers() {
        let (mut m, mut r) = setup(3, 64);
        let b = PAGE_SIZE / 64; // home = node 1
        let t0 = r.read(&mut m, 0, PAGE_SIZE, 8);
        m.clock[0] = t0;
        let t2 = r.read(&mut m, 2, PAGE_SIZE, 8);
        m.clock[2] = t2;
        // Node 0 writes (silent local upgrade), then releases via barrier.
        let tw = r.write(&mut m, 0, PAGE_SIZE, 8);
        m.clock[0] = tw;
        assert_eq!(r.block_state(2, b), BlockState::Clean, "lazy: not yet");
        assert_eq!(r.barrier(&mut m, 1, BarrierId(0)), None);
        m.clock[2] = t2 + 1;
        assert_eq!(r.barrier(&mut m, 2, BarrierId(0)), None);
        assert!(r.barrier(&mut m, 0, BarrierId(0)).is_some());
        assert_eq!(r.block_state(2, b), BlockState::Invalid);
        assert_eq!(m.counters()[2].invalidations, 1);
    }

    #[test]
    fn lock_handoff_carries_protected_lines() {
        let (mut m, mut r) = setup(2, 64);
        let b = PAGE_SIZE / 64; // home = node 1
        let l = LockId(0); // manager = node 0
                           // Node 0 acquires, writes a remote line, releases.
        let t = r.lock(&mut m, 0, l).expect("free");
        m.clock[0] = t;
        let t = r.write(&mut m, 0, PAGE_SIZE, 8);
        m.clock[0] = t;
        assert_eq!(r.block_state(0, b), BlockState::Dirty);
        let t = r.unlock(&mut m, 0, l);
        m.clock[0] = t;
        // The line did NOT flush at release: ownership rides with the lock.
        assert_eq!(r.block_state(0, b), BlockState::Dirty);
        assert_eq!(m.counters()[0].remote_writes, 0);
        // Node 1 acquires: the grant hands the line over directly.
        let t1 = r.lock(&mut m, 1, l).expect("free after release");
        assert!(t1 > 0);
        assert_eq!(r.block_state(0, b), BlockState::Invalid);
        assert_eq!(m.counters()[1].write_notices, 1);
        // Node 1 is the line's home, so the handoff doubled as the flush.
        assert_eq!(r.dirty_blocks(1), 0);
        // Reading the protected data now costs nothing extra.
        m.clock[1] = t1;
        let t2 = r.read(&mut m, 1, PAGE_SIZE, 8);
        assert_eq!(m.counters()[1].fetches, 0);
        assert!(t2 >= t1);
    }

    #[test]
    fn handoff_to_a_non_home_node_keeps_the_line_dirty() {
        let (mut m, mut r) = setup(4, 64);
        let b = 2 * PAGE_SIZE / 64; // page 2, home = node 2
        let l = LockId(1); // manager = node 1
        let t = r.lock(&mut m, 0, l).expect("free");
        m.clock[0] = t;
        let t = r.write(&mut m, 0, 2 * PAGE_SIZE, 8);
        m.clock[0] = t;
        let _ = r.unlock(&mut m, 0, l);
        // Node 3 (not the home) acquires: it inherits the dirty line and
        // the flush obligation.
        let _ = r.lock(&mut m, 3, l).expect("free after release");
        assert_eq!(r.block_state(3, b), BlockState::Dirty);
        assert_eq!(r.block_state(0, b), BlockState::Invalid);
        assert_eq!(r.dirty_blocks(3), 1);
        assert_eq!(m.counters()[3].write_notices, 1);
    }

    #[test]
    fn unprotected_dirty_lines_flush_at_release() {
        let (mut m, mut r) = setup(2, 64);
        // Write outside any lock, then acquire/release a lock touching
        // nothing: the unprotected line flushes at the release.
        let t = r.write(&mut m, 0, PAGE_SIZE, 8);
        m.clock[0] = t;
        assert_eq!(r.dirty_blocks(0), 1);
        let t = r.lock(&mut m, 0, LockId(0)).expect("free");
        m.clock[0] = t;
        let _ = r.unlock(&mut m, 0, LockId(0));
        assert_eq!(r.dirty_blocks(0), 0);
        assert_eq!(m.counters()[0].remote_writes, 1);
    }

    #[test]
    fn reacquire_of_own_lock_transfers_nothing() {
        let (mut m, mut r) = setup(2, 64);
        let l = LockId(0);
        let t = r.lock(&mut m, 0, l).expect("free");
        m.clock[0] = t;
        let t = r.write(&mut m, 0, PAGE_SIZE, 8);
        m.clock[0] = t;
        let t = r.unlock(&mut m, 0, l);
        m.clock[0] = t;
        let notices = m.counters()[0].write_notices;
        let _ = r.lock(&mut m, 0, l).expect("free");
        assert_eq!(m.counters()[0].write_notices, notices);
        assert_eq!(r.block_state(0, PAGE_SIZE / 64), BlockState::Dirty);
    }

    #[test]
    fn rdma_locks_and_barriers_round_trip() {
        let (mut m, mut r) = setup(2, 64);
        let t = r.lock(&mut m, 0, LockId(0)).expect("free");
        m.clock[0] = t;
        assert_eq!(r.lock(&mut m, 1, LockId(0)), None);
        m.clock[0] = t + 1000;
        let _ = r.unlock(&mut m, 0, LockId(0));
        let w = m.take_wakeups();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, 1);
        assert_eq!(r.barrier(&mut m, 1, BarrierId(0)), None);
        assert!(r.barrier(&mut m, 0, BarrierId(0)).is_some());
        assert_eq!(m.take_wakeups().len(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_block_size() {
        let _ = Rdma::new(48);
    }
}
