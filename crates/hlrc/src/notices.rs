//! Vector timestamps, intervals and write notices — the lazy-release-
//! consistency machinery of HLRC.
//!
//! Each node's execution is divided into *intervals*, delimited by its
//! releases. An interval carries the set of pages the node wrote during it
//! (its *write notices*). A vector timestamp counts, per node, how many of
//! that node's intervals have been *seen*. On an acquire, the acquirer
//! receives exactly the write notices of the intervals it has not yet seen
//! (up to the grantor's timestamp) and invalidates those pages.

use std::collections::BTreeSet;

/// A vector timestamp: `vt[i]` = number of node `i`'s intervals covered.
pub type VectorTime = Vec<u64>;

/// The global interval/notice store.
///
/// Physically this state is distributed in a real HLRC system; modelling it
/// centrally is exact because the simulator charges the *messages* that
/// carry it (lock grants, barrier releases) explicitly.
#[derive(Debug)]
pub struct NoticeBoard {
    /// `intervals[i][k]` = pages written by node `i` in its interval `k`.
    intervals: Vec<Vec<Vec<u64>>>,
    /// `seen[p]` = vector timestamp of node `p`.
    seen: Vec<VectorTime>,
}

impl NoticeBoard {
    /// Creates the board for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        NoticeBoard {
            intervals: vec![Vec::new(); nodes],
            seen: vec![vec![0; nodes]; nodes],
        }
    }

    /// Records that `node` completed an interval having written `pages`.
    /// Empty intervals are not recorded (no release activity to convey).
    pub fn record_interval(&mut self, node: usize, pages: Vec<u64>) {
        if pages.is_empty() {
            return;
        }
        self.intervals[node].push(pages);
        self.seen[node][node] = self.intervals[node].len() as u64;
    }

    /// `node`'s current vector timestamp.
    pub fn vt(&self, node: usize) -> VectorTime {
        self.seen[node].clone()
    }

    /// The "everything so far" timestamp (used by barriers).
    pub fn global_vt(&self) -> VectorTime {
        self.intervals.iter().map(|iv| iv.len() as u64).collect()
    }

    /// Delivers to `node` the write notices of every interval between its
    /// own timestamp and `target`, advancing its timestamp.
    ///
    /// Returns `(pages, raw_count)`: the deduplicated page set to
    /// invalidate, and the raw number of notices (which is what handler
    /// list-traversal costs scale with).
    pub fn collect(&mut self, node: usize, target: &[u64]) -> (Vec<u64>, u64) {
        let mut pages = BTreeSet::new();
        let mut raw = 0u64;
        for (i, ivs) in self.intervals.iter().enumerate() {
            if i == node {
                continue; // own writes are never invalidated
            }
            let from = self.seen[node][i];
            let to = target[i].min(ivs.len() as u64);
            for k in from..to {
                let notice_pages = &ivs[k as usize];
                raw += notice_pages.len() as u64;
                pages.extend(notice_pages.iter().copied());
            }
            if to > from {
                self.seen[node][i] = to;
            }
        }
        (pages.into_iter().collect(), raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_intervals_are_skipped() {
        let mut b = NoticeBoard::new(2);
        b.record_interval(0, vec![]);
        assert_eq!(b.vt(0), vec![0, 0]);
        // The next interval is node 0's first.
        b.record_interval(0, vec![3]);
        assert_eq!(b.collect(1, &[1, 0]), (vec![3], 1));
    }

    #[test]
    fn own_intervals_advance_own_vt() {
        let mut b = NoticeBoard::new(3);
        b.record_interval(1, vec![4, 5]);
        b.record_interval(1, vec![6]);
        assert_eq!(b.vt(1), vec![0, 2, 0]);
        assert_eq!(b.global_vt(), vec![0, 2, 0]);
    }

    #[test]
    fn collect_delivers_unseen_only() {
        let mut b = NoticeBoard::new(2);
        b.record_interval(0, vec![1, 2]);
        b.record_interval(0, vec![2, 3]);
        let target = b.global_vt();
        let (pages, raw) = b.collect(1, &target);
        assert_eq!(pages, vec![1, 2, 3]); // deduplicated
        assert_eq!(raw, 4); // but the raw notice count is 4
                            // A second collect delivers nothing new.
        let (pages, raw) = b.collect(1, &target);
        assert!(pages.is_empty());
        assert_eq!(raw, 0);
    }

    #[test]
    fn collect_respects_partial_target() {
        let mut b = NoticeBoard::new(2);
        b.record_interval(0, vec![1]);
        b.record_interval(0, vec![2]);
        // Lock released after the first interval only.
        let (pages, _) = b.collect(1, &[1, 0]);
        assert_eq!(pages, vec![1]);
        // The second interval arrives with a later target.
        let (pages, _) = b.collect(1, &[2, 0]);
        assert_eq!(pages, vec![2]);
    }

    #[test]
    fn own_notices_never_returned() {
        let mut b = NoticeBoard::new(2);
        b.record_interval(1, vec![7]);
        let target = b.global_vt();
        let (pages, raw) = b.collect(1, &target);
        assert!(pages.is_empty());
        assert_eq!(raw, 0);
    }
}
