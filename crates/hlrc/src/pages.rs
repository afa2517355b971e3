//! Per-node page tables and per-word dirty tracking for HLRC.

use std::collections::{BTreeMap, BTreeSet};

use ssm_proto::PAGE_WORDS;

/// Number of `u64` limbs in a per-page dirty-word bitset.
const LIMBS: usize = (PAGE_WORDS as usize).div_ceil(64);

/// A per-word dirty bitset for one twinned page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyBits {
    limbs: [u64; LIMBS],
}

impl DirtyBits {
    /// An all-clean bitset.
    pub fn new() -> Self {
        DirtyBits { limbs: [0; LIMBS] }
    }

    /// Marks words `[first, first + n)` dirty.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    pub fn mark(&mut self, first: u64, n: u64) {
        assert!(first + n <= PAGE_WORDS, "dirty range exceeds page");
        for w in first..first + n {
            self.limbs[(w / 64) as usize] |= 1u64 << (w % 64);
        }
    }

    /// Number of dirty words.
    pub fn count(&self) -> u64 {
        self.limbs.iter().map(|l| l.count_ones() as u64).sum()
    }

    /// Whether no word is dirty.
    pub fn is_clean(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }
}

impl Default for DirtyBits {
    fn default() -> Self {
        DirtyBits::new()
    }
}

/// State of a page at a *non-home* node. (The home's copy is always valid
/// and writable: diffs are applied to it eagerly.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// No valid copy; any access faults and fetches from the home.
    Invalid,
    /// Valid read-only copy; a write faults and creates a twin.
    ReadOnly,
    /// Writable copy with a twin recording modifications.
    ReadWrite,
}

/// One node's view of the shared pages.
#[derive(Debug)]
pub struct NodePages {
    state: Vec<PageState>,
    /// Dirty-word bitsets for pages in `ReadWrite` (twinned) state.
    twins: BTreeMap<u64, DirtyBits>,
    /// Pages homed here and written since the last release (they produce
    /// write notices but need no twin/diff).
    home_written: BTreeSet<u64>,
}

impl NodePages {
    /// Creates one node's page table over `npages` pages. Non-home pages
    /// start `Invalid` (cold).
    pub fn new(npages: u64) -> Self {
        NodePages {
            state: vec![PageState::Invalid; npages as usize],
            twins: BTreeMap::new(),
            home_written: BTreeSet::new(),
        }
    }

    /// Current state of `page` (meaningful for non-home pages).
    pub fn state(&self, page: u64) -> PageState {
        self.state[page as usize]
    }

    /// Sets `page` to `ReadOnly` after a fetch.
    pub fn set_read_only(&mut self, page: u64) {
        self.state[page as usize] = PageState::ReadOnly;
    }

    /// Creates a twin for `page` (transition `ReadOnly -> ReadWrite`).
    pub fn make_writable(&mut self, page: u64) {
        self.state[page as usize] = PageState::ReadWrite;
        self.twins.insert(page, DirtyBits::new());
    }

    /// Makes `page` writable *without* a twin — AURC mode, where hardware
    /// write propagation replaces twinning/diffing entirely.
    pub fn make_writable_untwinned(&mut self, page: u64) {
        self.state[page as usize] = PageState::ReadWrite;
    }

    /// Records a write to words `[first, first+n)` of a twinned page.
    ///
    /// # Panics
    ///
    /// Panics if the page has no twin.
    pub fn mark_dirty(&mut self, page: u64, first_word: u64, nwords: u64) {
        self.twins
            .get_mut(&page)
            .expect("write to page without a twin")
            .mark(first_word, nwords);
    }

    /// Records that this node wrote one of its own home pages (for write
    /// notices). No twin is needed: the home copy is the master.
    pub fn mark_home_written(&mut self, page: u64) {
        self.home_written.insert(page);
    }

    /// Takes all twinned pages and their dirty sets (release flush), and
    /// downgrades those pages to `ReadOnly`.
    pub fn take_twins(&mut self) -> Vec<(u64, DirtyBits)> {
        let twins = std::mem::take(&mut self.twins);
        let out: Vec<(u64, DirtyBits)> = twins.into_iter().collect();
        for (pg, _) in &out {
            self.state[*pg as usize] = PageState::ReadOnly;
        }
        out
    }

    /// Takes one page's twin (used when a write notice invalidates a page
    /// that is concurrently being written here).
    pub fn take_twin(&mut self, page: u64) -> Option<DirtyBits> {
        let b = self.twins.remove(&page);
        if b.is_some() {
            self.state[page as usize] = PageState::ReadOnly;
        }
        b
    }

    /// Takes the set of home pages written since the last release.
    pub fn take_home_written(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.home_written).into_iter().collect()
    }

    /// Invalidates `page` (write-notice application).
    pub fn invalidate(&mut self, page: u64) {
        debug_assert!(!self.twins.contains_key(&page), "invalidate with live twin");
        self.state[page as usize] = PageState::Invalid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_bits_mark_and_count() {
        let mut d = DirtyBits::new();
        assert!(d.is_clean());
        d.mark(0, 2);
        d.mark(100, 1);
        d.mark(1023, 1);
        assert_eq!(d.count(), 4);
        d.mark(0, 2); // idempotent
        assert_eq!(d.count(), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds page")]
    fn dirty_bits_bounds() {
        let mut d = DirtyBits::new();
        d.mark(1020, 8);
    }

    #[test]
    fn page_lifecycle() {
        let mut np = NodePages::new(16);
        assert_eq!(np.state(6), PageState::Invalid);
        np.set_read_only(6);
        assert_eq!(np.state(6), PageState::ReadOnly);
        np.make_writable(6);
        assert_eq!(np.state(6), PageState::ReadWrite);
        np.mark_dirty(6, 10, 4);
        let twins = np.take_twins();
        assert_eq!(twins.len(), 1);
        assert_eq!(twins[0].0, 6);
        assert_eq!(twins[0].1.count(), 4);
        // Flushing downgrades to read-only.
        assert_eq!(np.state(6), PageState::ReadOnly);
        np.invalidate(6);
        assert_eq!(np.state(6), PageState::Invalid);
    }

    #[test]
    fn home_written_tracked_separately() {
        let mut np = NodePages::new(8);
        np.mark_home_written(0);
        np.mark_home_written(2);
        np.mark_home_written(0);
        assert_eq!(np.take_home_written(), vec![0, 2]);
        assert!(np.take_home_written().is_empty());
    }

    #[test]
    fn take_single_twin() {
        let mut np = NodePages::new(8);
        np.set_read_only(1);
        np.make_writable(1);
        np.mark_dirty(1, 0, 1);
        let t = np.take_twin(1).expect("twin exists");
        assert_eq!(t.count(), 1);
        assert_eq!(np.state(1), PageState::ReadOnly);
        assert!(np.take_twin(1).is_none());
    }
}
