//! Radix — the SPLASH-2 parallel radix sort, the paper's stress case for
//! page-based SVM.
//!
//! Each pass histograms one digit, computes global write offsets, then
//! **permutes** every key to its destination. In the original version each
//! key is written directly into the (mostly remote) destination array: an
//! all-to-all scatter of 4-byte writes that causes massive page-level false
//! sharing and bandwidth demand — the reason the paper's Radix speedup is
//! 0.x on the base system and needs the "better-than-best" network to
//! recover.
//!
//! **Radix-Local** (restructured) first writes each processor's keys,
//! sorted by digit, into its *own* contiguous buffer region (local, coarse,
//! single-writer), and then each processor **gathers** its destination
//! range with contiguous remote *reads*. Converting the all-to-all from
//! scattered remote writes into coarse remote reads eliminates the
//! write-write false sharing and most of the diff traffic — the paper's
//! "writing to a local buffer first in Radix".

use std::cell::RefCell;

use ssm_proto::{async_body, AsyncBody, SharedVec, Workload, World};

use crate::common::{block_range, read_block, write_block, INT_OP};

/// Digit width in bits (radix 256).
const DIGIT_BITS: u32 = 8;
/// Radix (buckets per pass).
const R: usize = 1 << DIGIT_BITS;
/// Key width in bits: two passes of radix 256.
const KEY_BITS: u32 = 16;

/// Deterministic pseudo-random 16-bit key.
fn key_init(i: usize) -> u32 {
    let mut x = i as u64 + 0x9e3779b97f4a7c15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    (x as u32) & ((1 << KEY_BITS) - 1)
}

/// Stable sort of `keys` by the digit at `shift`, given that digit's
/// histogram `counts`: a counting sort, O(keys + R). The result is the
/// digit-major order, and within a digit the input order, that a filter
/// pass per digit gives.
fn digit_sort(keys: &[u32], counts: &[u32], shift: u32) -> Vec<u32> {
    let mut next = vec![0usize; R];
    let mut start = 0usize;
    for (slot, &c) in next.iter_mut().zip(counts) {
        *slot = start;
        start += c as usize;
    }
    let mut sorted = vec![0u32; keys.len()];
    for &k in keys {
        let d = ((k >> shift) as usize) & (R - 1);
        sorted[next[d]] = k;
        next[d] += 1;
    }
    sorted
}

/// Which permutation-write strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadixVariant {
    /// Original: scatter each key with an individual (word) write.
    Original,
    /// Restructured: buffer locally, write one contiguous run per digit.
    Local,
}

/// The radix-sort workload over `n` keys.
#[derive(Debug)]
pub struct Radix {
    n: usize,
    variant: RadixVariant,
    state: RefCell<Option<SharedVec<u32>>>,
}

impl Radix {
    /// Original Radix over `n` keys.
    pub fn original(n: usize) -> Self {
        Radix::new(n, RadixVariant::Original)
    }

    /// Restructured Radix-Local over `n` keys.
    pub fn local(n: usize) -> Self {
        Radix::new(n, RadixVariant::Local)
    }

    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, variant: RadixVariant) -> Self {
        assert!(n >= 2);
        Radix {
            n,
            variant,
            state: RefCell::new(None),
        }
    }

    /// Number of keys.
    pub fn keys(&self) -> usize {
        self.n
    }
}

impl Workload for Radix {
    fn name(&self) -> String {
        match self.variant {
            RadixVariant::Original => format!("Radix(n={})", self.n),
            RadixVariant::Local => format!("Radix-Local(n={})", self.n),
        }
    }

    fn mem_bytes(&self) -> usize {
        // src + dst + digit-sorted staging buffer + per-proc histograms
        // (allow up to 64 procs).
        self.n * 12 + 64 * R * 4 + 192 * 1024
    }

    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        let src = world.alloc_vec::<u32>(self.n);
        let dst = world.alloc_vec::<u32>(self.n);
        let buf = world.alloc_vec::<u32>(self.n);
        let hist = world.alloc_vec::<u32>(nprocs * R);
        let bar = world.alloc_barrier();
        for i in 0..self.n {
            src.set_direct(i, key_init(i));
        }
        *self.state.borrow_mut() = Some(src.clone());
        let n = self.n;
        let variant = self.variant;
        let bodies = (0..nprocs)
            .map(|pid| {
                let src = src.clone();
                let dst = dst.clone();
                let buf = buf.clone();
                let hist = hist.clone();
                async_body(move |p| async move {
                    let p = &p;
                    let np = p.nprocs();
                    let (k0, k1) = block_range(n, np, pid);
                    let mut arrays = [&src, &dst];
                    let passes = KEY_BITS / DIGIT_BITS;
                    for pass in 0..passes {
                        let shift = pass * DIGIT_BITS;
                        let (from, to) = (arrays[0], arrays[1]);
                        // Phase 1: local histogram of my segment.
                        let mine = read_block(p, from, k0, k1 - k0).await;
                        let mut counts = vec![0u32; R];
                        for &k in &mine {
                            counts[((k >> shift) as usize) & (R - 1)] += 1;
                        }
                        p.compute(mine.len() as u64 * INT_OP);
                        write_block(p, &hist, pid * R, &counts).await;
                        p.barrier(bar).await;
                        // Phase 2: read all histograms, compute my bases.
                        let mut all = Vec::with_capacity(np);
                        for q in 0..np {
                            all.push(read_block(p, &hist, q * R, R).await);
                        }
                        p.compute((np * R) as u64 * INT_OP);
                        let mut base = vec![0u32; R];
                        let mut running = 0u32;
                        for d in 0..R {
                            let mut mine_base = running;
                            for (q, h) in all.iter().enumerate() {
                                if q < pid {
                                    mine_base += h[d];
                                }
                                running += h[d];
                            }
                            base[d] = mine_base;
                        }
                        p.barrier(bar).await;
                        // Phase 3: permutation.
                        match variant {
                            RadixVariant::Original => {
                                // Scatter: one word write per key, mostly
                                // into remote processors' regions.
                                let mut next = base;
                                for &k in &mine {
                                    let d = ((k >> shift) as usize) & (R - 1);
                                    let pos = next[d] as usize;
                                    next[d] += 1;
                                    to.write(p, pos, k).await;
                                    p.compute(2 * INT_OP);
                                }
                            }
                            RadixVariant::Local => {
                                // 3a: digit-sort my keys into MY buffer
                                // region (local, coarse, single-writer).
                                let sorted = digit_sort(&mine, &counts, shift);
                                p.compute(mine.len() as u64 * 3 * INT_OP);
                                write_block(p, &buf, k0, &sorted).await;
                                p.barrier(bar).await;
                                // 3b: gather my destination range with
                                // contiguous remote reads. Bucket (q, d)
                                // lives at q's segment start plus the
                                // prefix of q's counts below d; globally
                                // the destination is ordered by (d, q).
                                let seg_start: Vec<usize> =
                                    (0..np).map(|q| block_range(n, np, q).0).collect();
                                let mut bucket_at: Vec<Vec<usize>> = vec![vec![0; R + 1]; np];
                                for q in 0..np {
                                    let mut acc = seg_start[q];
                                    for d in 0..R {
                                        bucket_at[q][d] = acc;
                                        acc += all[q][d] as usize;
                                    }
                                    bucket_at[q][R] = acc;
                                }
                                p.compute((np * R) as u64 * INT_OP);
                                let mut g = 0usize; // global output position
                                let mut out: Vec<u32> = Vec::with_capacity(k1 - k0);
                                for d in 0..R {
                                    for q in 0..np {
                                        let len = all[q][d] as usize;
                                        if len == 0 {
                                            continue;
                                        }
                                        let lo = g.max(k0);
                                        let hi = (g + len).min(k1);
                                        if lo < hi {
                                            let off = bucket_at[q][d] + (lo - g);
                                            let vals = read_block(p, &buf, off, hi - lo).await;
                                            out.extend_from_slice(&vals);
                                        }
                                        g += len;
                                    }
                                }
                                p.compute(out.len() as u64 * INT_OP);
                                write_block(p, to, k0, &out).await;
                            }
                        }
                        p.barrier(bar).await;
                        arrays.swap(0, 1);
                    }
                })
            })
            .collect();
        Some(bodies)
    }

    fn verify(&self) -> Result<(), String> {
        let guard = self.state.borrow();
        let src = guard.as_ref().ok_or("spawn() was never called")?;
        // Two passes: the sorted result lands back in `src`.
        let mut prev = 0u32;
        let mut got_sum = 0u64;
        for i in 0..self.n {
            let k = src.get_direct(i);
            if k < prev {
                return Err(format!("keys[{i}] = {k} < keys[{}] = {prev}", i - 1));
            }
            prev = k;
            got_sum += k as u64;
        }
        let want_sum: u64 = (0..self.n).map(|i| key_init(i) as u64).sum();
        if got_sum != want_sum {
            return Err(format!(
                "key multiset changed: sum {got_sum}, want {want_sum}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_core::{sequential_baseline, Protocol, SimBuilder};

    #[test]
    fn sequential_radix_sorts() {
        for v in [RadixVariant::Original, RadixVariant::Local] {
            let w = Radix::new(512, v);
            let r = sequential_baseline(&w);
            assert!(r.verify_error.is_none(), "{v:?}: {:?}", r.verify_error);
        }
    }

    #[test]
    fn parallel_radix_sorts_under_hlrc_and_sc() {
        for v in [RadixVariant::Original, RadixVariant::Local] {
            for proto in [Protocol::Hlrc, Protocol::Sc] {
                let w = Radix::new(512, v);
                let r = SimBuilder::new(proto).procs(4).run(&w);
                assert!(
                    r.verify_error.is_none(),
                    "{v:?}/{proto:?}: {:?}",
                    r.verify_error
                );
            }
        }
    }

    #[test]
    fn local_variant_is_coarser() {
        // Needs a realistic size: with only a page or two of keys the
        // restructuring's constant overheads dominate.
        let orig = Radix::original(16384);
        let ro = SimBuilder::new(Protocol::Hlrc).procs(4).run(&orig);
        let rest = Radix::local(16384);
        let rr = SimBuilder::new(Protocol::Hlrc).procs(4).run(&rest);
        // The restructured version twins far fewer pages repeatedly and
        // sends fewer messages overall.
        assert!(
            rr.counters.messages < ro.counters.messages,
            "local {} vs original {}",
            rr.counters.messages,
            ro.counters.messages
        );
        // And it is faster on the base system (the paper's ~66% effect).
        assert!(
            rr.total_cycles < ro.total_cycles,
            "local {} should beat original {}",
            rr.total_cycles,
            ro.total_cycles
        );
    }

    /// The per-digit filter form `digit_sort` replaces.
    fn digit_sort_by_filter(keys: &[u32], shift: u32) -> Vec<u32> {
        let mut sorted = Vec::with_capacity(keys.len());
        for d in 0..R {
            for &k in keys {
                if ((k >> shift) as usize) & (R - 1) == d {
                    sorted.push(k);
                }
            }
        }
        sorted
    }

    #[test]
    fn digit_sort_matches_the_filter_form() {
        let mut rng = crate::common::Rng::new(7);
        let random: Vec<u32> = (0..5000)
            .map(|_| rng.next_u32() & ((1 << KEY_BITS) - 1))
            .collect();
        let cases: [Vec<u32>; 6] = [
            random,
            (0..4096).map(key_init).collect(),
            Vec::new(),
            vec![0xa5c3],
            // One shared digit per pass; the other digit shows the order.
            (0..300).map(|i| 0x3c | ((i * 37 % 256) << 8)).collect(),
            (0..300).map(|i| 0x3c00 | (i * 37 % 256)).collect(),
        ];
        for keys in &cases {
            for pass in 0..KEY_BITS / DIGIT_BITS {
                let shift = pass * DIGIT_BITS;
                let mut counts = vec![0u32; R];
                for &k in keys {
                    counts[((k >> shift) as usize) & (R - 1)] += 1;
                }
                assert_eq!(
                    digit_sort(keys, &counts, shift),
                    digit_sort_by_filter(keys, shift),
                    "{} keys, shift {shift}",
                    keys.len()
                );
            }
        }
    }

    #[test]
    fn keys_cover_the_space() {
        let ks: std::collections::HashSet<u32> = (0..4096).map(key_init).collect();
        assert!(ks.len() > 3000, "keys should be well spread");
        assert!(ks.iter().all(|&k| k < 1 << KEY_BITS));
    }
}
