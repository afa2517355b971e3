//! Randomized-property tests over the core data structures and invariants
//! of the simulator.
//!
//! These used to be `proptest` properties; they are now driven by the
//! repo's own seeded [`Rng`](ssm::apps::common::Rng) so the tier-1 suite
//! builds and runs with no registry access. Each property samples many
//! deterministic random cases (seeded per case index), so failures
//! reproduce exactly.

use ssm::apps::common::{block_range, Rng};
use ssm::engine::Resource;
use ssm::hlrc::{DirtyBits, NoticeBoard};
use ssm::mem::{Access, Cache, CacheConfig};
use ssm::proto::{BarrierId, BarrierTable, LockId, LockTable, PerWord};

/// Number of random cases sampled per property.
const CASES: u64 = 64;

/// A resource never serves two reservations at once and never goes
/// backwards.
#[test]
fn resource_reservations_disjoint() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x4E50 + case);
        let n = 1 + rng.gen_range(99);
        let mut r = Resource::new();
        let mut last_end = 0u64;
        let mut total = 0u64;
        for _ in 0..n {
            let now = rng.gen_range(10_000);
            let dur = rng.gen_range(500);
            let (start, end) = r.acquire_span(now, dur);
            assert!(start >= last_end, "case {case}");
            assert!(start >= now, "case {case}");
            assert_eq!(end - start, dur, "case {case}");
            last_end = end;
            total += dur;
        }
        assert_eq!(r.busy_cycles(), total, "case {case}");
    }
}

/// block_range always partitions [0, n) exactly, in order.
#[test]
fn block_range_partitions() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xB10C + case);
        let n = rng.gen_range(10_000) as usize;
        let np = 1 + rng.gen_range(63) as usize;
        let mut next = 0usize;
        for pid in 0..np {
            let (s, e) = block_range(n, np, pid);
            assert_eq!(s, next, "case {case}");
            assert!(e >= s, "case {case}");
            assert!(e - s <= n / np + 1, "case {case}");
            next = e;
        }
        assert_eq!(next, n, "case {case}");
    }
}

/// Lock handover is FIFO and every acquirer is granted exactly once.
#[test]
fn lock_table_fifo() {
    for nprocs in 2usize..10 {
        let mut t = LockTable::new(1);
        let l = LockId(0);
        assert!(t.acquire(l, 0));
        for p in 1..nprocs {
            assert!(!t.acquire(l, p));
        }
        // Releases hand the lock over in request order.
        for p in 0..nprocs {
            let next = t.release(l, p);
            if p + 1 < nprocs {
                assert_eq!(next, Some(p + 1));
            } else {
                assert_eq!(next, None);
            }
        }
    }
}

/// A barrier completes exactly when all processors arrive, for any
/// arrival order, and is reusable.
#[test]
fn barrier_completes_once() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xBA44 + case);
        let mut order: Vec<usize> = (0..8).collect();
        rng.shuffle(&mut order);
        let episodes = 1 + rng.gen_range(3) as usize;
        let mut t = BarrierTable::new(1, 8);
        for _ in 0..episodes {
            for (k, &p) in order.iter().enumerate() {
                let done = t.arrive(BarrierId(0), p, k as u64);
                if k + 1 < order.len() {
                    assert!(done.is_none(), "case {case}");
                } else {
                    let arrivals = done.expect("last arrival completes");
                    assert_eq!(arrivals.len(), 8, "case {case}");
                }
            }
        }
        assert_eq!(t.episodes(BarrierId(0)), episodes as u64, "case {case}");
    }
}

/// Dirty-bit counts equal the size of the union of marked ranges.
#[test]
fn dirty_bits_count_union() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xD147 + case);
        let nranges = rng.gen_range(20);
        let mut d = DirtyBits::new();
        let mut model = std::collections::HashSet::new();
        for _ in 0..nranges {
            let start = rng.gen_range(1024);
            let len = (1 + rng.gen_range(63)).min(1024 - start);
            if len == 0 {
                continue;
            }
            d.mark(start, len);
            for w in start..start + len {
                model.insert(w);
            }
        }
        assert_eq!(d.count(), model.len() as u64, "case {case}");
    }
}

/// Write notices are delivered to a node at most once, regardless of
/// how collects interleave.
#[test]
fn notices_delivered_once() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x4075 + case);
        let nsteps = 1 + rng.gen_range(19) as usize;
        let mut collect_points: Vec<usize> = (0..1 + rng.gen_range(9))
            .map(|_| rng.gen_range(20) as usize)
            .collect();
        collect_points.sort_unstable();
        let mut b = NoticeBoard::new(5);
        let mut raw_total = 0u64;
        let mut collected_raw = 0u64;
        for step in 0..nsteps {
            let node = rng.gen_range(4) as usize;
            let pages: Vec<u64> = (0..1 + rng.gen_range(4))
                .map(|_| rng.gen_range(50))
                .collect();
            b.record_interval(node, pages.clone());
            raw_total += pages.len() as u64;
            while collect_points.first() == Some(&step) {
                collect_points.remove(0);
                let target = b.global_vt();
                let (_, raw) = b.collect(4, &target);
                collected_raw += raw;
            }
        }
        let target = b.global_vt();
        let (_, raw) = b.collect(4, &target);
        collected_raw += raw;
        // Node 4 recorded nothing itself, so it must see each notice
        // exactly once in total.
        assert_eq!(collected_raw, raw_total, "case {case}");
        // And nothing more on a second pass.
        let (pages, raw) = b.collect(4, &b.global_vt());
        assert!(pages.is_empty(), "case {case}");
        assert_eq!(raw, 0, "case {case}");
    }
}

/// Cache: after accessing any sequence of addresses, accessing the most
/// recently accessed address again always hits (it is MRU in its set).
#[test]
fn cache_mru_always_present() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xCACE + case);
        let n = 1 + rng.gen_range(199);
        let mut c = Cache::new(CacheConfig {
            size: 1024,
            line: 32,
            assoc: 2,
        });
        for _ in 0..n {
            let a = rng.gen_range(100_000);
            c.access(a, rng.gen_range(2) == 1);
            assert_eq!(
                c.access(a, false),
                Access::Hit,
                "case {case}: just-accessed {a} missing"
            );
        }
    }
}

/// PerWord costs are linear and halving halves (within rounding).
#[test]
fn per_word_linear() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x9E42 + case);
        let words = rng.gen_range(100_000);
        let num = rng.gen_range(10);
        let den = 1 + rng.gen_range(9);
        let c = PerWord::new(num, den);
        let whole = c.cost(words);
        let half = c.halved().cost(words);
        assert!(half <= whole.div_ceil(2), "case {case}");
        assert_eq!(c.cost(0), 0, "case {case}");
        // Linearity within integer truncation.
        let double = c.cost(words * 2);
        assert!(
            double >= (whole * 2).saturating_sub(1) && double <= whole * 2 + 1,
            "case {case}"
        );
    }
}
