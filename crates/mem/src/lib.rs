//! Node memory-hierarchy model: L1/L2 caches, a write buffer and the memory
//! bus — the per-node architecture of Figure 2 of the paper (a PentiumPro-
//! like node).
//!
//! The hierarchy is *timing-directed*: it never stores data, only tags and
//! dirty bits, and answers "how many cycles does this access stall the
//! processor?". Application data lives in the shared store owned by
//! `ssm-proto`; protocols call [`Hierarchy::touch_range`] to model the cache
//! pollution caused by twinning/diffing, which the paper simulates
//! explicitly ("cache pollution due to protocol processing is also
//! included", §3.1).
//!
//! Defaults (see [`MemConfig::pentium_pro_like`]):
//!
//! * L1: 8 KB, 2-way, 32 B lines, hit folded into the 1-IPC busy time;
//! * L2: 256 KB, 4-way, 32 B lines, 8-cycle hit;
//! * memory: 60-cycle latency plus 32 B over a 2 bytes/cycle memory bus;
//! * write buffer: 8 entries, retiring at the L2/memory (writes stall only
//!   when the buffer is full).
//!
//! L1 and L2 are independent directories, not an inclusive pair. An access
//! looks L1 up once and, on an L1 miss, L2 once; each lookup installs the
//! line where it missed. An L1 hit leaves L2's LRU order alone, and an L2
//! eviction leaves any L1 copy in place. L1 writes through to L2, so only
//! L2 victims are written back.

pub mod cache;

pub use cache::{Access, Cache, CacheConfig};

use ssm_engine::{Cycles, Resource};
use std::collections::VecDeque;

/// Configuration of a node's memory system.
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// First-level cache geometry.
    pub l1: CacheConfig,
    /// Second-level cache geometry.
    pub l2: CacheConfig,
    /// Extra cycles for an L2 hit (beyond the pipelined L1 path).
    pub l2_hit_cycles: Cycles,
    /// DRAM access latency in cycles (before bus occupancy).
    pub mem_latency: Cycles,
    /// Memory-bus bandwidth numerator/denominator in bytes per cycles.
    pub bus_bytes: u64,
    /// Memory-bus bandwidth denominator (cycles per `bus_bytes`).
    pub bus_cycles: u64,
    /// Write-buffer depth (writes stall only when full).
    pub write_buffer: usize,
}

impl MemConfig {
    /// The paper's PentiumPro-like node (Appendix): 8 KB 2-way L1, 256 KB
    /// 4-way L2, 32 B lines everywhere, 60-cycle memory, 2 B/cycle bus,
    /// 8-entry write buffer.
    pub fn pentium_pro_like() -> Self {
        MemConfig {
            l1: CacheConfig {
                size: 8 << 10,
                line: 32,
                assoc: 2,
            },
            l2: CacheConfig {
                size: 256 << 10,
                line: 32,
                assoc: 4,
            },
            l2_hit_cycles: 8,
            mem_latency: 60,
            bus_bytes: 2,
            bus_cycles: 1,
            write_buffer: 8,
        }
    }

    /// A tiny configuration for unit tests (256 B L1, 1 KB L2).
    pub fn tiny() -> Self {
        MemConfig {
            l1: CacheConfig {
                size: 256,
                line: 32,
                assoc: 1,
            },
            l2: CacheConfig {
                size: 1024,
                line: 32,
                assoc: 2,
            },
            l2_hit_cycles: 8,
            mem_latency: 60,
            bus_bytes: 2,
            bus_cycles: 1,
            write_buffer: 2,
        }
    }

    /// Memory-bus cycles `bytes` occupy: the exact ceiling of `bytes *
    /// bus_cycles / bus_bytes`.
    fn bus_occupancy(&self, bytes: u64) -> Cycles {
        (bytes * self.bus_cycles).div_ceil(self.bus_bytes)
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::pentium_pro_like()
    }
}

/// Hit/miss statistics for one hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Processor-issued accesses (reads + writes).
    pub accesses: u64,
    /// Accesses that hit in L1.
    pub l1_hits: u64,
    /// Accesses that missed L1 but hit L2.
    pub l2_hits: u64,
    /// Accesses that went to memory.
    pub mem_accesses: u64,
    /// Dirty-line writebacks to memory.
    pub writebacks: u64,
    /// Write-buffer full stalls.
    pub wb_stalls: u64,
}

/// One node's two-level cache hierarchy plus write buffer and memory bus.
///
/// # Example
///
/// ```rust
/// use ssm_mem::{Hierarchy, MemConfig};
/// let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
/// let cold = h.read(0, 0x1000);   // cold miss: memory latency + bus
/// assert!(cold > 60);
/// let warm = h.read(1000, 0x1000); // now cached: free (L1 hit)
/// assert_eq!(warm, 0);
/// ```
#[derive(Debug)]
pub struct Hierarchy {
    cfg: MemConfig,
    l1: Cache,
    l2: Cache,
    bus: Resource,
    /// Bus cycles one line occupies, fixed by the configuration.
    line_bus: Cycles,
    /// Retirement times of in-flight buffered writes.
    wb: VecDeque<Cycles>,
    stats: MemStats,
}

impl Hierarchy {
    /// Creates an empty (cold) hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if either bus-rate term is zero, or if L1 and L2 lines differ
    /// in size: every range path steps at one line size for both levels.
    pub fn new(cfg: MemConfig) -> Self {
        assert!(
            cfg.bus_bytes > 0 && cfg.bus_cycles > 0,
            "bus rate terms must be non-zero"
        );
        assert_eq!(cfg.l1.line, cfg.l2.line, "L1 and L2 lines must match");
        Hierarchy {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            bus: Resource::new(),
            line_bus: cfg.bus_occupancy(cfg.l2.line as u64),
            wb: VecDeque::new(),
            cfg,
            stats: MemStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// One access on the line path: a single lookup in L1 and, on an L1
    /// miss, a single lookup in L2. Each lookup installs the line where it
    /// missed. Counts the access and the level that served it.
    fn lookup(&mut self, addr: u64, write: bool) -> Served {
        self.stats.accesses += 1;
        // An L1 victim needs no writeback: L1 writes through to L2.
        if self.l1.access(addr, write) == Access::Hit {
            self.stats.l1_hits += 1;
            return Served::L1;
        }
        match self.l2.access(addr, write) {
            Access::Hit => {
                self.stats.l2_hits += 1;
                Served::L2
            }
            Access::Miss { evicted_dirty } => {
                self.stats.mem_accesses += 1;
                Served::Memory { evicted_dirty }
            }
        }
    }

    /// Fetches one missed line from memory at `now`, then writes back the
    /// dirty L2 victim if there is one. Returns the fetch's cycles: memory
    /// latency plus bus occupancy, including queueing behind earlier
    /// transfers.
    fn mem_fill(&mut self, now: Cycles, evicted_dirty: bool) -> Cycles {
        let done = self.bus.acquire(now + self.cfg.mem_latency, self.line_bus);
        if evicted_dirty {
            self.writeback(now);
        }
        done - now
    }

    fn writeback(&mut self, now: Cycles) {
        self.stats.writebacks += 1;
        // Writebacks occupy the bus but do not stall the processor.
        let _ = self.bus.acquire(now, self.line_bus);
    }

    /// Models a processor *read* of the line containing `addr`; returns the
    /// stall cycles beyond the 1-IPC pipeline.
    pub fn read(&mut self, now: Cycles, addr: u64) -> Cycles {
        match self.lookup(addr, false) {
            Served::L1 => 0,
            Served::L2 => self.cfg.l2_hit_cycles,
            Served::Memory { evicted_dirty } => {
                self.cfg.l2_hit_cycles + self.mem_fill(now, evicted_dirty)
            }
        }
    }

    /// Models a processor *write*; returns stall cycles. Writes retire
    /// through the write buffer, so they stall only when the buffer is full.
    pub fn write(&mut self, now: Cycles, addr: u64) -> Cycles {
        // Retire completed buffered writes.
        while let Some(&t) = self.wb.front() {
            if t <= now {
                self.wb.pop_front();
            } else {
                break;
            }
        }
        let mut stall = 0;
        let mut now = now;
        if self.wb.len() >= self.cfg.write_buffer {
            let t = self.wb.pop_front().expect("non-empty write buffer");
            self.stats.wb_stalls += 1;
            stall = t - now;
            now = t;
        }
        // Determine how long the write takes to retire (in the background).
        let retire = match self.lookup(addr, true) {
            Served::L1 => now,
            Served::L2 => now + self.cfg.l2_hit_cycles,
            // Write-allocate: fetch the line, then write.
            Served::Memory { evicted_dirty } => {
                now + self.cfg.l2_hit_cycles + self.mem_fill(now, evicted_dirty)
            }
        };
        self.wb.push_back(retire);
        stall
    }

    /// Models protocol code streaming over `[addr, addr+len)` (twin/diff
    /// creation or application). Touches every line, polluting the caches,
    /// and returns the total stall cycles the protocol engine incurs.
    ///
    /// `write` selects whether the lines are dirtied.
    pub fn touch_range(&mut self, now: Cycles, addr: u64, len: u64, write: bool) -> Cycles {
        if len == 0 {
            return 0;
        }
        let line = self.cfg.l2.line as u64;
        let first = addr / line;
        let last = (addr + len - 1) / line;
        let mut stall = 0;
        for l in first..=last {
            let a = l * line;
            stall += if write {
                self.write(now + stall, a)
            } else {
                self.read(now + stall, a)
            };
        }
        stall
    }

    /// Models protocol code *streaming* over `[addr, addr+len)` — bulk
    /// copies such as twin creation and diff creation/application. Unlike
    /// [`Hierarchy::touch_range`], misses pipeline: the caller pays the
    /// DRAM latency once plus bandwidth-limited bus occupancy for the
    /// missed lines (plus a small per-line L2 cost for hits), instead of
    /// the full miss latency per line. The caches are polluted exactly as
    /// with per-line access (fills + evictions), which is the effect the
    /// paper simulates for twinning/diffing.
    pub fn stream_range(&mut self, now: Cycles, addr: u64, len: u64, write: bool) -> Cycles {
        if len == 0 {
            return 0;
        }
        let line = self.cfg.l2.line as u64;
        let first = addr / line;
        let last = (addr + len - 1) / line;
        let mut missed_lines = 0u64;
        let mut hit_lines = 0u64;
        for l in first..=last {
            match self.lookup(l * line, write) {
                Served::L1 | Served::L2 => hit_lines += 1,
                Served::Memory { evicted_dirty } => {
                    missed_lines += 1;
                    if evicted_dirty {
                        self.writeback(now);
                    }
                }
            }
        }
        let mut stall = 2 * hit_lines; // pipelined L2 throughput
        if missed_lines > 0 {
            // One transfer for the whole range.
            let occupancy = self.cfg.bus_occupancy(missed_lines * line);
            let done = self.bus.acquire(now + self.cfg.mem_latency, occupancy);
            stall += done - now;
        }
        stall
    }

    /// Drops every line of `[addr, addr+len)` from both caches without
    /// writing back (used when a page is invalidated by the protocol: its
    /// cached contents are stale).
    pub fn invalidate_range(&mut self, addr: u64, len: u64) {
        self.l1.invalidate_range(addr, len);
        self.l2.invalidate_range(addr, len);
    }
}

/// The level that served an access.
enum Served {
    L1,
    L2,
    /// An L2 miss; the line's install may have displaced a dirty L2 line.
    Memory {
        evicted_dirty: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_read_then_hits() {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        let cold = h.read(0, 4096);
        // 8 (L2 probe path) + 60 (memory) + 16 (32 B over 2 B/cycle).
        assert_eq!(cold, 8 + 60 + 16);
        assert_eq!(h.read(100, 4096), 0);
        assert_eq!(h.read(100, 4100), 0); // same 32 B line
        let s = h.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.l1_hits, 2);
        assert_eq!(s.mem_accesses, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let cfg = MemConfig::tiny(); // L1: 256 B direct-mapped, 8 lines
        let mut h = Hierarchy::new(cfg);
        h.read(0, 0); // line 0
        h.read(200, 256); // maps to same L1 set (direct-mapped), evicts
        let stall = h.read(400, 0); // L1 miss, L2 hit
        assert_eq!(stall, 8);
        assert_eq!(h.stats().l2_hits, 1);
    }

    #[test]
    fn writes_use_buffer() {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        // Two cold writes to distinct lines: both buffered, no stall.
        assert_eq!(h.write(0, 0), 0);
        assert_eq!(h.write(1, 64), 0);
        assert_eq!(h.stats().wb_stalls, 0);
    }

    #[test]
    fn write_buffer_full_stalls() {
        let mut h = Hierarchy::new(MemConfig::tiny()); // depth 2
                                                       // Issue 3 cold writes at the same instant: the third must stall.
        h.write(0, 0);
        h.write(0, 64);
        let stall = h.write(0, 128);
        assert!(stall > 0);
        assert_eq!(h.stats().wb_stalls, 1);
    }

    #[test]
    fn touch_range_covers_all_lines() {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        let stall = h.touch_range(0, 0, 4096, false);
        assert!(stall > 0);
        assert_eq!(h.stats().mem_accesses, 4096 / 32);
        // A second pass hits (4 KB fits in the 256 KB L2 and 8 KB L1).
        let stall2 = h.touch_range(10_000, 0, 4096, false);
        assert_eq!(stall2, 0);
    }

    #[test]
    fn invalidate_range_forces_refetch() {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        h.read(0, 0);
        assert_eq!(h.read(100, 0), 0);
        h.invalidate_range(0, 32);
        assert!(h.read(200, 0) > 0);
    }

    #[test]
    #[should_panic(expected = "lines must match")]
    fn mismatched_line_sizes_rejected() {
        let mut cfg = MemConfig::tiny();
        cfg.l2.line = 64;
        let _ = Hierarchy::new(cfg);
    }

    #[test]
    fn touch_range_empty_is_free() {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        assert_eq!(h.touch_range(0, 128, 0, true), 0);
        assert_eq!(h.stats().accesses, 0);
    }

    #[test]
    fn stream_is_much_cheaper_than_per_line_touch() {
        let mut a = Hierarchy::new(MemConfig::pentium_pro_like());
        let per_line = a.touch_range(0, 0, 4096, false);
        let mut b = Hierarchy::new(MemConfig::pentium_pro_like());
        let streamed = b.stream_range(0, 0, 4096, false);
        assert!(
            streamed * 3 < per_line,
            "stream {streamed} vs touch {per_line}"
        );
        // Both pollute identically: a second streamed pass hits.
        let warm = b.stream_range(10_000, 0, 4096, false);
        assert_eq!(warm, 2 * (4096 / 32));
        assert_eq!(b.stats().mem_accesses, 4096 / 32);
    }

    #[test]
    fn l1_line_survives_eviction_of_its_l2_copy() {
        // L1 and L2 are independent directories: an L1 hit does not refresh
        // L2's LRU order, and an L2 eviction does not remove the L1 copy.
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        let same_l2_set = |k: u64| k * 2048 * 32; // L2: 2048 sets of 32 B lines
        let a = same_l2_set(0);
        let mut now = 0;
        let mut read = |h: &mut Hierarchy, addr| {
            now += 1000;
            h.read(now, addr)
        };
        assert_eq!(read(&mut h, a), 8 + 60 + 16);
        for k in 1..=3 {
            assert_eq!(read(&mut h, same_l2_set(k)), 8 + 60 + 16);
            assert_eq!(read(&mut h, a), 0); // L1 hit; L2 never sees it
        }
        // The fifth line of the 4-way L2 set evicts `a`, its LRU entry.
        assert_eq!(read(&mut h, same_l2_set(4)), 8 + 60 + 16);
        assert_eq!(read(&mut h, a), 0, "the L1 copy survives");
        // Two L1-only conflicts (L1: 128 sets, 2-way) push `a` out of L1 too;
        // with no L2 copy left, it comes from memory.
        assert_eq!(read(&mut h, 128 * 32), 8 + 60 + 16);
        assert_eq!(read(&mut h, 256 * 32), 8 + 60 + 16);
        assert_eq!(read(&mut h, a), 8 + 60 + 16);
        assert_eq!(h.stats().mem_accesses, 8);
        assert_eq!(h.stats().l2_hits, 0);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut h = Hierarchy::new(MemConfig::tiny()); // L2: 1 KB, 2-way, 32 B
                                                       // Dirty many distinct lines so L2 must evict dirty victims.
        for i in 0..128u64 {
            h.write(i * 1000, i * 32);
        }
        assert!(h.stats().writebacks > 0);
    }
}

#[cfg(test)]
mod pinned {
    //! Pinned traces: every stall and the final statistics of fixed access
    //! sequences. The values are the model's output, so any change to the
    //! per-line path that moves a simulated number fails here.

    use super::*;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Read(u64),
        Write(u64),
        Touch(u64, u64, bool),
        Stream(u64, u64, bool),
        Inval(u64, u64),
    }

    fn apply(h: &mut Hierarchy, now: Cycles, op: Op) -> Cycles {
        match op {
            Op::Read(a) => h.read(now, a),
            Op::Write(a) => h.write(now, a),
            Op::Touch(a, len, w) => h.touch_range(now, a, len, w),
            Op::Stream(a, len, w) => h.stream_range(now, a, len, w),
            Op::Inval(a, len) => {
                h.invalidate_range(a, len);
                0
            }
        }
    }

    #[test]
    fn fixed_trace_on_tiny() {
        use Op::*;
        let trace = [
            Read(0),
            Read(4),
            Write(32),
            Write(288),
            Write(544),
            Read(256),
            Touch(0, 200, false),
            Touch(1000, 300, true),
            Stream(64, 512, false),
            Stream(2048, 256, true),
            Read(2048),
            Inval(2048, 64),
            Read(2048),
            Write(2080),
            Touch(512, 1024, true),
            Stream(0, 1024, true),
            Inval(0, 4096),
            Stream(0, 96, false),
            Write(0),
            Write(32),
            Write(64),
            Write(96),
            Read(1024),
            Touch(3000, 1, false),
            Stream(3000, 1, true),
        ];
        let mut h = Hierarchy::new(MemConfig::tiny());
        let mut now = 0;
        let mut stalls = Vec::new();
        for op in trace {
            let s = apply(&mut h, now, op);
            stalls.push(s);
            now += 10 + s;
        }
        assert_eq!(
            stalls,
            [
                84, 0, 0, 0, 64, 90, 436, 368, 240, 256, 0, 0, 84, 0, 1282, 1090, 0, 108, 0, 0, 0,
                0, 90, 84, 2
            ]
        );
        assert_eq!(
            h.stats(),
            MemStats {
                accesses: 124,
                l1_hits: 6,
                l2_hits: 12,
                mem_accesses: 106,
                writebacks: 51,
                wb_stalls: 38,
            }
        );
    }

    /// A small SplitMix64 stream, so the trace needs no dependency.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Runs `n` seeded random operations over `span` bytes; returns the sum
    /// of stalls, an order-sensitive fold of them, and the final stats.
    fn random_trace(cfg: MemConfig, seed: u64, n: usize, span: u64) -> (u64, u64, MemStats) {
        let mut h = Hierarchy::new(cfg);
        let mut rng = seed;
        let (mut now, mut sum, mut fold) = (0, 0u64, 0u64);
        for _ in 0..n {
            let r = mix(&mut rng);
            let addr = (r >> 8) % span;
            let len = 1 + (r >> 40) % 4096;
            let op = match r % 16 {
                0..=5 => Op::Read(addr),
                6..=10 => Op::Write(addr),
                11 | 12 => Op::Touch(addr, len, r & 0x10 != 0),
                13 | 14 => Op::Stream(addr, len, r & 0x10 != 0),
                _ => Op::Inval(addr, len),
            };
            let s = apply(&mut h, now, op);
            sum += s;
            fold = fold.wrapping_mul(0x100_0000_01B3) ^ s;
            now += 1 + (r >> 56) + s;
        }
        (sum, fold, h.stats())
    }

    #[test]
    fn random_traces() {
        // Miss-heavy: 8 KB of addresses over a 1 KB L2.
        assert_eq!(
            random_trace(MemConfig::tiny(), 1, 20_000, 8 << 10),
            (
                14_588_820,
                16_160_108_232_894_249_484,
                MemStats {
                    accesses: 342_068,
                    l1_hits: 1_315,
                    l2_hits: 10_906,
                    mem_accesses: 329_847,
                    writebacks: 157_136,
                    wb_stalls: 74_973,
                }
            )
        );
        // The paper's node, 1 MB of addresses: L2 capacity misses.
        assert_eq!(
            random_trace(MemConfig::pentium_pro_like(), 2, 20_000, 1 << 20),
            (
                10_504_067,
                740_122_300_324_640_033,
                MemStats {
                    accesses: 343_248,
                    l1_hits: 2_751,
                    l2_hits: 76_733,
                    mem_accesses: 263_764,
                    writebacks: 132_925,
                    wb_stalls: 58_371,
                }
            )
        );
        // 16 KB of addresses: overflows L1, fits in L2.
        assert_eq!(
            random_trace(MemConfig::pentium_pro_like(), 3, 20_000, 16 << 10),
            (
                2_865_432,
                3_361_882_226_823_825_614,
                MemStats {
                    accesses: 340_605,
                    l1_hits: 146_234,
                    l2_hits: 128_931,
                    mem_accesses: 65_440,
                    writebacks: 0,
                    wb_stalls: 17_909,
                }
            )
        );
    }
}
