//! Shared helpers for the application suite: work partitioning, cycle-cost
//! constants, complex arithmetic, and running a future that never suspends.
//!
//! # Cost model
//!
//! The paper's simulator counts retired x86 instructions at 1 IPC. Our
//! applications charge explicit cycle costs per arithmetic operation
//! instead (see DESIGN.md §3); the constants below fold in the loads,
//! stores and loop overhead surrounding each floating-point operation, so
//! computation-to-communication ratios stay realistic.

use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

/// Cycles charged per floating-point operation (with surrounding loads,
/// stores and address arithmetic at 1 IPC).
pub const FLOP: u64 = 8;

/// Cycles charged per integer/bookkeeping operation.
pub const INT_OP: u64 = 2;

/// Cycles charged per element copied between buffers.
pub const COPY: u64 = 4;

/// A small, fast, seeded pseudo-random generator (SplitMix64 state
/// advance + xorshift-style output mixing). This replaces the external
/// `rand` crate so the workspace builds with no registry access; it is
/// deterministic by construction, which the simulator requires anyway
/// (identical seeds must reproduce identical workloads and results).
///
/// # Example
///
/// ```rust
/// use ssm_apps::common::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.gen_range(10);
/// assert!(x < 10);
/// let f = a.next_f64();
/// assert!((0.0..1.0).contains(&f));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed` (any value, including 0, is fine).
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The next 64 uniformly distributed bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform value in `[0, bound)`; 0 when `bound` is 0.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift range reduction (Lemire); the tiny modulo bias of
        // the plain form is irrelevant for workload generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle of `xs`.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Splits `n` items over `nprocs` processors; returns `[start, end)` for
/// `pid`. Remainders go to the lowest-numbered processors, so sizes differ
/// by at most one.
///
/// # Example
///
/// ```rust
/// use ssm_apps::common::block_range;
/// assert_eq!(block_range(10, 4, 0), (0, 3));
/// assert_eq!(block_range(10, 4, 1), (3, 6));
/// assert_eq!(block_range(10, 4, 3), (8, 10));
/// ```
pub fn block_range(n: usize, nprocs: usize, pid: usize) -> (usize, usize) {
    assert!(pid < nprocs && nprocs > 0);
    let base = n / nprocs;
    let rem = n % nprocs;
    let start = pid * base + pid.min(rem);
    let len = base + usize::from(pid < rem);
    (start, start + len)
}

/// The value of a future that never suspends: application code run
/// outside the simulation, such as a reference computation whose shared
/// reads are untimed.
///
/// # Panics
///
/// Panics if the future suspends.
pub fn ready<T>(f: impl Future<Output = T>) -> T {
    match pin!(f).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!("an untimed computation suspended"),
    }
}

/// A complex number (interleaved re/im storage in shared arrays).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cx {
    /// `re + im*i`.
    pub fn new(re: f64, im: f64) -> Self {
        Cx { re, im }
    }

    /// `e^{i theta}`.
    pub fn cis(theta: f64) -> Self {
        Cx {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude.
    pub fn norm2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Add for Cx {
    type Output = Cx;
    fn add(self, o: Cx) -> Cx {
        Cx::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Cx {
    type Output = Cx;
    fn sub(self, o: Cx) -> Cx {
        Cx::new(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for Cx {
    type Output = Cx;
    fn mul(self, o: Cx) -> Cx {
        Cx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// In-place iterative radix-2 FFT (Cooley-Tukey with bit reversal).
/// `inverse` flips the transform direction (no 1/n scaling applied).
///
/// # Panics
///
/// Panics if `a.len()` is not a power of two.
pub fn fft_in_place(a: &mut [Cx], inverse: bool) {
    let n = a.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            a.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wl = Cx::cis(ang);
        for start in (0..n).step_by(len) {
            let mut w = Cx::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = a[start + k];
                let v = a[start + k + len / 2] * w;
                a[start + k] = u + v;
                a[start + k + len / 2] = u - v;
                w = w * wl;
            }
        }
        len <<= 1;
    }
}

/// Cycles an `n`-point in-place FFT costs (5 n log2 n flops, the standard
/// count).
pub fn fft_cycles(n: usize) -> u64 {
    let logn = n.trailing_zeros() as u64;
    5 * n as u64 * logn * FLOP
}

/// Naive DFT used by verification code.
pub fn dft_reference(x: &[Cx]) -> Vec<Cx> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut s = Cx::default();
            for (j, &xj) in x.iter().enumerate() {
                let w = Cx::cis(-2.0 * std::f64::consts::PI * (k * j % n) as f64 / n as f64);
                s = s + xj * w;
            }
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_covers_exactly() {
        for n in [0usize, 1, 7, 16, 100] {
            for np in [1usize, 2, 3, 16] {
                let mut covered = 0;
                let mut prev_end = 0;
                for pid in 0..np {
                    let (s, e) = block_range(n, np, pid);
                    assert_eq!(s, prev_end);
                    prev_end = e;
                    covered += e - s;
                }
                assert_eq!(covered, n);
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        let n = 32;
        let x: Vec<Cx> = (0..n)
            .map(|i| Cx::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let want = dft_reference(&x);
        let mut got = x.clone();
        fft_in_place(&mut got, false);
        for k in 0..n {
            assert!(
                (got[k] - want[k]).norm2() < 1e-18,
                "bin {k}: {:?} vs {:?}",
                got[k],
                want[k]
            );
        }
    }

    #[test]
    fn fft_round_trip() {
        let n = 64;
        let x: Vec<Cx> = (0..n).map(|i| Cx::new(i as f64, -(i as f64))).collect();
        let mut y = x.clone();
        fft_in_place(&mut y, false);
        fft_in_place(&mut y, true);
        for k in 0..n {
            let back = Cx::new(y[k].re / n as f64, y[k].im / n as f64);
            assert!((back - x[k]).norm2() < 1e-16);
        }
    }

    #[test]
    fn complex_algebra() {
        let a = Cx::new(1.0, 2.0);
        let b = Cx::new(3.0, -1.0);
        assert_eq!(a * b, Cx::new(5.0, 5.0));
        assert_eq!(a + b, Cx::new(4.0, 1.0));
        assert!((Cx::cis(0.0).re - 1.0).abs() < 1e-15);
    }

    #[test]
    fn fft_cycles_scale() {
        assert!(fft_cycles(64) > fft_cycles(32) * 2);
    }

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rng_range_and_unit_interval_bounds() {
        let mut r = Rng::new(123);
        for _ in 0..1000 {
            assert!(r.gen_range(17) < 17);
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(r.gen_range(0), 0);
        assert_eq!(r.gen_range(1), 0);
    }

    #[test]
    fn rng_shuffle_is_a_permutation() {
        let mut r = Rng::new(5);
        let mut xs: Vec<usize> = (0..64).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..64).collect::<Vec<_>>(),
            "64! leaves ~no chance of identity"
        );
    }
}
