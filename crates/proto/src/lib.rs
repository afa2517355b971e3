//! Software-DSM substrate for the `ssm` reproduction: the shared address
//! space, the programming-model API that applications run against, the
//! protocol cost model, the synchronization managers, the coherence-unit
//! map ([`HomeMap`]), and the [`Machine`] that ties one simulated cluster
//! together.
//!
//! The actual coherence protocols live in their own crates (`ssm-hlrc`,
//! `ssm-sc` and `ssm-rdma`) and implement the [`Protocol`] trait defined
//! here; `ssm-core` provides the driver loop that advances application
//! threads and calls into the protocol.
//!
//! # Layering (paper Figure 1)
//!
//! ```text
//! ssm-apps                     <- application layer
//! ssm-hlrc / ssm-sc / ssm-rdma <- protocol / programming-model layer (this trait)
//! ssm-net + ssm-mem            <- communication layer + node architecture
//! ssm-engine                   <- "hardware": time, contention, threads
//! ```

pub mod costs;
pub mod machine;
pub mod protocol;
#[allow(unsafe_code)] // the one `unsafe` island (DESIGN.md §11)
pub mod shmem;
pub mod sync;
pub mod vm;
pub mod workload;

pub use costs::{PerWord, ProtoCosts};
pub use machine::{Machine, SendFrom, TraceEvent};
pub use protocol::{Ideal, Protocol, WorldShape};
pub use shmem::{BarrierId, LockId, Scalar, SharedVec, World};
pub use sync::{BarrierTable, LockTable, SyncManager};
pub use vm::{Batch, Cpu, Flush, Handoff, Op, Proc, BATCH_CAP};
pub use workload::{async_body, AsyncBody, BodyFuture, ThreadBody, Workload};

/// Page size of the shared virtual memory system (bytes).
pub const PAGE_SIZE: u64 = 4096;

/// Machine word size (bytes) — the unit of diffing (x86, 32-bit words).
pub const WORD_BYTES: u64 = 4;

/// Words per page.
pub const PAGE_WORDS: u64 = PAGE_SIZE / WORD_BYTES;

/// Page-to-home placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomePolicy {
    /// Pages homed round-robin by page number (the paper's placement).
    RoundRobin,
    /// A page is homed at the node that first *accesses* it in simulated
    /// time (classic first-touch; SVM systems use it to align homes with
    /// the dominant writer).
    FirstTouch,
}

impl HomePolicy {
    /// The label used on the command line and in sweep cells.
    pub fn label(self) -> &'static str {
        match self {
            HomePolicy::RoundRobin => "rr",
            HomePolicy::FirstTouch => "first-touch",
        }
    }

    /// Parses a policy from its label (`rr`, `first-touch`).
    pub fn from_label(s: &str) -> Result<Self, String> {
        match s {
            "rr" => Ok(HomePolicy::RoundRobin),
            "first-touch" => Ok(HomePolicy::FirstTouch),
            other => Err(format!("unknown home policy {other:?}")),
        }
    }
}

/// The coherence-unit map every protocol shares: the unit size (a page for
/// HLRC and AURC, the block for SC, SC-delayed and RDMA) and where each
/// unit's home is. A unit's home is the home of its page, so every
/// protocol sees the same data placement and the unit size and the cost
/// of a miss are the only differences between them.
#[derive(Debug, Clone)]
pub struct HomeMap {
    policy: HomePolicy,
    /// log2 of the unit size in bytes.
    shift: u32,
    nodes: usize,
    /// First-touch page homes (`u32::MAX` = unassigned); empty under
    /// round-robin.
    assigned: Vec<u32>,
    /// Units covering the heap.
    units: u64,
}

impl HomeMap {
    /// A map of `unit`-byte units under `policy`, sized by [`HomeMap::init`].
    ///
    /// # Panics
    ///
    /// Panics unless [`HomeMap::check_unit`] accepts `unit`.
    pub fn new(policy: HomePolicy, unit: u64) -> Self {
        Self::check_unit(unit).unwrap_or_else(|e| panic!("{e}"));
        HomeMap {
            policy,
            shift: unit.trailing_zeros(),
            nodes: 1,
            assigned: Vec::new(),
            units: 0,
        }
    }

    /// Whether `unit` can be a coherence unit: a power of two in
    /// `[4, PAGE_SIZE]`.
    pub fn check_unit(unit: u64) -> Result<(), &'static str> {
        if unit.is_power_of_two() && (4..=PAGE_SIZE).contains(&unit) {
            Ok(())
        } else {
            Err("block must be a power of two between 4 B and the page size")
        }
    }

    /// Sizes the map for `nodes` nodes over a `heap_bytes` heap. Only
    /// first-touch allocates (one slot per page).
    pub fn init(&mut self, nodes: usize, heap_bytes: u64) {
        self.nodes = nodes;
        self.units = heap_bytes.div_ceil(self.unit()).max(1);
        self.assigned = match self.policy {
            HomePolicy::RoundRobin => Vec::new(),
            HomePolicy::FirstTouch => {
                vec![u32::MAX; heap_bytes.div_ceil(PAGE_SIZE).max(1) as usize]
            }
        };
    }

    /// The unit size in bytes.
    pub fn unit(&self) -> u64 {
        1 << self.shift
    }

    /// Number of units covering the heap (at least one).
    pub fn count(&self) -> u64 {
        self.units
    }

    /// First byte of unit `u`.
    pub fn addr(&self, u: u64) -> u64 {
        u << self.shift
    }

    /// The units `[addr, addr + bytes)` touches, in order.
    pub fn span(&self, addr: u64, bytes: u64) -> std::ops::Range<u64> {
        (addr >> self.shift)..((addr + bytes - 1) >> self.shift) + 1
    }

    /// Home of unit `u` if already determined — never assigns. Under
    /// round-robin every unit is always determined.
    pub fn peek(&self, u: u64) -> Option<usize> {
        let page = self.page(u);
        match self.policy {
            HomePolicy::RoundRobin => Some((page % self.nodes as u64) as usize),
            HomePolicy::FirstTouch => {
                let v = self.assigned[page as usize];
                (v != u32::MAX).then_some(v as usize)
            }
        }
    }

    /// Home of unit `u`, assigning its page to `toucher` on first touch
    /// under [`HomePolicy::FirstTouch`].
    pub fn home(&mut self, u: u64, toucher: usize) -> usize {
        if let Some(h) = self.peek(u) {
            return h;
        }
        let page = self.page(u);
        self.assigned[page as usize] = toucher as u32;
        toucher
    }

    /// The page unit `u` lies in.
    fn page(&self, u: u64) -> u64 {
        u >> (PAGE_SIZE.trailing_zeros() - self.shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sized(policy: HomePolicy, unit: u64, nodes: usize, heap_bytes: u64) -> HomeMap {
        let mut m = HomeMap::new(policy, unit);
        m.init(nodes, heap_bytes);
        m
    }

    #[test]
    fn page_units_home_round_robin() {
        assert_eq!(PAGE_WORDS, 1024);
        let mut m = sized(HomePolicy::RoundRobin, PAGE_SIZE, 4, 16 * PAGE_SIZE);
        assert_eq!(m.count(), 16);
        assert_eq!(m.span(4095, 1), 0..1);
        assert_eq!(m.span(4095, 2), 0..2);
        for (pg, home) in [(0, 0), (5, 1), (7, 3)] {
            assert_eq!(m.home(pg, 3), home);
            assert_eq!(m.peek(pg), Some(home));
            assert_eq!(m.addr(pg), pg * PAGE_SIZE);
        }
    }

    #[test]
    fn blocks_take_their_page_home() {
        let mut m = sized(HomePolicy::RoundRobin, 64, 4, 2 * PAGE_SIZE + 1);
        assert_eq!(m.unit(), 64);
        assert_eq!(m.count(), 129);
        assert_eq!(m.span(48, 32), 0..2);
        assert_eq!(m.addr(65), 65 * 64);
        assert_eq!(m.home(63, 2), 0);
        assert_eq!(m.home(64, 2), 1);
    }

    #[test]
    fn first_touch_sticks_per_page() {
        let mut m = sized(HomePolicy::FirstTouch, 64, 4, 8 * PAGE_SIZE);
        assert_eq!(m.peek(3 * 64), None);
        assert_eq!(m.home(3 * 64, 2), 2);
        // Later touchers, of this block or another block of the page, do
        // not move the home.
        assert_eq!(m.home(3 * 64, 0), 2);
        assert_eq!(m.home(3 * 64 + 5, 1), 2);
        assert_eq!(m.peek(3 * 64), Some(2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_unit() {
        let _ = HomeMap::new(HomePolicy::RoundRobin, 48);
    }

    #[test]
    fn policy_labels_round_trip() {
        for h in [HomePolicy::RoundRobin, HomePolicy::FirstTouch] {
            assert_eq!(HomePolicy::from_label(h.label()), Ok(h));
        }
        assert!(HomePolicy::from_label("RR").is_err());
    }
}
