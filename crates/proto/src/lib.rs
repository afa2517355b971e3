//! Software-DSM substrate for the `ssm` reproduction: the shared address
//! space, the programming-model API that applications run against, the
//! protocol cost model, the synchronization managers, and the [`Machine`]
//! that ties one simulated cluster together.
//!
//! The actual coherence protocols live in their own crates (`ssm-hlrc` and
//! `ssm-sc`) and implement the [`Protocol`] trait defined here; `ssm-core`
//! provides the driver loop that advances application threads and calls
//! into the protocol.
//!
//! # Layering (paper Figure 1)
//!
//! ```text
//! ssm-apps          <- application layer
//! ssm-hlrc / ssm-sc <- protocol / programming-model layer (this trait)
//! ssm-net + ssm-mem <- communication layer + node architecture
//! ssm-engine        <- "hardware": time, contention, threads
//! ```

pub mod costs;
pub mod machine;
pub mod protocol;
pub mod shmem;
pub mod sync;
pub mod vm;
pub mod workload;

pub use costs::{PerWord, ProtoCosts};
pub use machine::{Machine, TraceEvent};
pub use protocol::{Ideal, Protocol, WorldShape};
pub use shmem::{BarrierId, LockId, Scalar, SharedMem, SharedVec, World};
pub use sync::{BarrierTable, LockTable, SendFrom, SyncManager};
pub use vm::{Op, Proc, BATCH_CAP, FLUSH_CAP, FLUSH_END, FLUSH_SYNC};
pub use workload::{ThreadBody, Workload};

/// Page size of the shared virtual memory system (bytes).
pub const PAGE_SIZE: u64 = 4096;

/// Machine word size (bytes) — the unit of diffing (x86, 32-bit words).
pub const WORD_BYTES: u64 = 4;

/// Words per page.
pub const PAGE_WORDS: u64 = PAGE_SIZE / WORD_BYTES;

/// Page number containing `addr`.
pub fn page_of(addr: u64) -> u64 {
    addr / PAGE_SIZE
}

/// Round-robin home node for a page — the paper's default placement.
pub fn home_of_page(page: u64, nodes: usize) -> usize {
    (page % nodes as u64) as usize
}

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

/// Resolves page homes under a [`HomePolicy`].
#[derive(Debug, Clone)]
pub struct HomeMap {
    policy: HomePolicy,
    nodes: usize,
    /// First-touch assignments (`u32::MAX` = unassigned).
    assigned: Vec<u32>,
}

impl HomeMap {
    /// Creates the map for `nodes` nodes over `npages` pages.
    pub fn new(policy: HomePolicy, nodes: usize, npages: u64) -> Self {
        HomeMap {
            policy,
            nodes,
            assigned: match policy {
                HomePolicy::RoundRobin => Vec::new(),
                HomePolicy::FirstTouch => vec![u32::MAX; npages as usize],
            },
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> HomePolicy {
        self.policy
    }

    /// Home of `page` if already determined — never assigns. Under
    /// round-robin every page is always determined.
    pub fn peek(&self, page: u64) -> Option<usize> {
        match self.policy {
            HomePolicy::RoundRobin => Some(home_of_page(page, self.nodes)),
            HomePolicy::FirstTouch => {
                let v = self.assigned[page as usize];
                (v != u32::MAX).then_some(v as usize)
            }
        }
    }

    /// Home of `page`, assigning it to `toucher` on first touch under
    /// [`HomePolicy::FirstTouch`].
    pub fn home(&mut self, page: u64, toucher: usize) -> usize {
        match self.policy {
            HomePolicy::RoundRobin => home_of_page(page, self.nodes),
            HomePolicy::FirstTouch => {
                let slot = &mut self.assigned[page as usize];
                if *slot == u32::MAX {
                    *slot = toucher as u32;
                }
                *slot as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic() {
        assert_eq!(page_of(0), 0);
        assert_eq!(page_of(4095), 0);
        assert_eq!(page_of(4096), 1);
        assert_eq!(PAGE_WORDS, 1024);
    }

    #[test]
    fn homes_round_robin() {
        assert_eq!(home_of_page(0, 4), 0);
        assert_eq!(home_of_page(5, 4), 1);
        assert_eq!(home_of_page(7, 4), 3);
    }

    #[test]
    fn home_map_round_robin_matches_function() {
        let mut m = HomeMap::new(HomePolicy::RoundRobin, 4, 16);
        for pg in 0..16u64 {
            assert_eq!(m.home(pg, 3), home_of_page(pg, 4));
            assert_eq!(m.peek(pg), Some(home_of_page(pg, 4)));
        }
    }

    #[test]
    fn home_map_first_touch_sticks() {
        let mut m = HomeMap::new(HomePolicy::FirstTouch, 4, 8);
        assert_eq!(m.peek(3), None);
        assert_eq!(m.home(3, 2), 2);
        // Later touchers do not move the home.
        assert_eq!(m.home(3, 0), 2);
        assert_eq!(m.peek(3), Some(2));
        assert_eq!(m.policy(), HomePolicy::FirstTouch);
    }
}
