//! FFT — the SPLASH-2 radix-√n six-step 1-D FFT.
//!
//! The n-point dataset is viewed as a √n x √n complex matrix; each
//! processor owns a contiguous band of rows. The computation alternates
//! row-local FFTs with three all-to-all **transposes**, which are the only
//! communication phases: coarse-grained, single-writer, barrier-separated —
//! exactly the behaviour the paper relies on when it calls FFT a
//! "coarse-grained-access, single-writer application" with little protocol
//! activity but real bandwidth demands.
//!
//! The input and the six-step twiddles both need n-th roots of unity. Each
//! `spawn` builds them once, as a `Roots` table of two √n-entry halves,
//! and its threads share it through an `Arc`.

use std::cell::RefCell;
use std::f64::consts::PI;
use std::sync::Arc;

use ssm_proto::{async_body, AsyncBody, Cpu, SharedVec, Workload, World};

use crate::common::{block_range, fft_cycles, fft_in_place, Cx, COPY, FLOP};

/// The FFT workload. `n` complex points (a power of four so the matrix is
/// square).
#[derive(Debug)]
pub struct Fft {
    n: usize,
    m: usize,
    result: RefCell<Option<SharedVec<f64>>>,
}

/// Spectral spike used for initialization/verification: the input is a sum
/// of two complex exponentials, so the spectrum is known analytically.
const K0: usize = 5;
const A0: Cx = Cx { re: 1.0, im: 0.5 };
const A1: Cx = Cx { re: -0.75, im: 2.0 };

impl Fft {
    /// Creates an `n`-point FFT.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of four (so √n is a power of two) and
    /// at least 16.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 16 && n.is_power_of_two() && n.trailing_zeros().is_multiple_of(2),
            "n must be a power of four >= 16 (square matrix form)"
        );
        let m = 1usize << (n.trailing_zeros() / 2);
        Fft {
            n,
            m,
            result: RefCell::new(None),
        }
    }

    /// Number of points.
    pub fn points(&self) -> usize {
        self.n
    }

    fn second_spike(&self) -> usize {
        self.n / 3 + 1
    }

    fn input(&self, roots: &Roots, j: usize) -> Cx {
        A0 * roots.get(K0 * j) + A1 * roots.get(self.second_spike() * j)
    }
}

/// The n-th roots of unity `W^k = e^{2πik/n}` for an n = m² point FFT, from
/// two m-entry tables. Writing `k = i·m + j` with `i, j < m`, `W^k =
/// cis(2πi/m) · cis(2πj/n)`: one complex product per root, against one
/// `cos` and one `sin` for the direct form. Each part is within 1e-15 of
/// `Cx::cis(2πk/n)`.
#[derive(Debug)]
struct Roots {
    /// `cis(2πi/m)`: the roots at multiples of m.
    coarse: Vec<Cx>,
    /// `cis(2πj/n)`: the roots between two multiples of m.
    fine: Vec<Cx>,
    /// `log2 m`.
    shift: u32,
}

impl Roots {
    fn new(n: usize) -> Self {
        let m = 1usize << (n.trailing_zeros() / 2);
        let table = |steps: usize| -> Vec<Cx> {
            (0..m)
                .map(|i| Cx::cis(2.0 * PI * i as f64 / steps as f64))
                .collect()
        };
        Roots {
            coarse: table(m),
            fine: table(n),
            shift: m.trailing_zeros(),
        }
    }

    /// `e^{2πik/n}`, for any `k` (taken mod n).
    fn get(&self, k: usize) -> Cx {
        let mask = (1 << self.shift) - 1;
        self.coarse[(k >> self.shift) & mask] * self.fine[k & mask]
    }
}

/// One processor's transpose: `dst` rows `r0..r1` receive `src` columns
/// `r0..r1`. The simulated accesses are the blocked SPLASH-2 transpose's:
/// one coarse read of each source row's contiguous segment, then one
/// coarse write of each destination row. The values move between the same
/// two barriers, one tile at a time: up to √m segments' worth of columns
/// from enough source rows to fill m points, so no buffer is larger than
/// one row.
async fn transpose_band(
    p: &Cpu,
    src: &SharedVec<f64>,
    dst: &SharedVec<f64>,
    m: usize,
    r0: usize,
    r1: usize,
) {
    let width = r1 - r0;
    if width == 0 {
        return;
    }
    for j in 0..m {
        src.touch_read(p, (j * m + r0) * 2, width * 2).await;
        p.compute(width as u64 * COPY);
    }
    let cols = width.min(m.isqrt());
    let rows = m / cols;
    let mut tile = vec![0.0; rows * cols * 2];
    let mut run = vec![0.0; rows * 2];
    for c0 in (0..width).step_by(cols) {
        let cw = cols.min(width - c0);
        for j0 in (0..m).step_by(rows) {
            let rh = rows.min(m - j0);
            for (b, seg) in tile.chunks_exact_mut(cw * 2).take(rh).enumerate() {
                src.read_range_into(((j0 + b) * m + r0 + c0) * 2, seg);
            }
            for t in 0..cw {
                for (b, pt) in run.chunks_exact_mut(2).take(rh).enumerate() {
                    pt.copy_from_slice(&tile[(b * cw + t) * 2..][..2]);
                }
                dst.write_range_direct(((r0 + c0 + t) * m + j0) * 2, &run[..rh * 2]);
            }
        }
    }
    for r in r0..r1 {
        dst.touch_write(p, r * m * 2, m * 2).await;
    }
}

/// One processor's row-FFT pass over its band, optionally applying the
/// six-step twiddle factors `W_n^{-j2*k1}` after the transform.
async fn fft_band(
    p: &Cpu,
    v: &SharedVec<f64>,
    m: usize,
    r0: usize,
    r1: usize,
    twiddle: Option<&Roots>,
) {
    for r in r0..r1 {
        let seg = v.read_range(p, r * m * 2, m * 2).await;
        let mut row: Vec<Cx> = (0..m)
            .map(|i| Cx::new(seg[2 * i], seg[2 * i + 1]))
            .collect();
        fft_in_place(&mut row, false);
        p.compute(fft_cycles(m));
        if let Some(roots) = twiddle {
            for (k1, c) in row.iter_mut().enumerate() {
                // W^{-k} is the conjugate of W^k.
                let w = roots.get(r * k1);
                *c = *c * Cx::new(w.re, -w.im);
            }
            p.compute(m as u64 * 6 * FLOP);
        }
        let flat: Vec<f64> = row.iter().flat_map(|c| [c.re, c.im]).collect();
        v.write_range(p, r * m * 2, &flat).await;
    }
}

impl Workload for Fft {
    fn name(&self) -> String {
        format!("FFT(n={})", self.n)
    }

    fn mem_bytes(&self) -> usize {
        // data + scratch (+ page slack for alignment).
        self.n * 16 * 2 + 64 * 1024
    }

    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        assert!(
            nprocs <= self.m,
            "need at least one matrix row per processor"
        );
        let data = world.alloc_vec::<f64>(self.n * 2);
        let scratch = world.alloc_vec::<f64>(self.n * 2);
        let bar = world.alloc_barrier();
        let roots = Arc::new(Roots::new(self.n));
        for j in 0..self.n {
            let c = self.input(&roots, j);
            data.set_direct(2 * j, c.re);
            data.set_direct(2 * j + 1, c.im);
        }
        *self.result.borrow_mut() = Some(scratch.clone());
        let m = self.m;
        let bodies = (0..nprocs)
            .map(|pid| {
                let data = data.clone();
                let scratch = scratch.clone();
                let roots = Arc::clone(&roots);
                async_body(move |p| async move {
                    let p = &p;
                    let (r0, r1) = block_range(m, p.nprocs(), pid);
                    // Step 1: transpose data -> scratch.
                    transpose_band(p, &data, &scratch, m, r0, r1).await;
                    p.barrier(bar).await;
                    // Step 2+3: row FFTs on scratch with twiddles.
                    fft_band(p, &scratch, m, r0, r1, Some(&roots)).await;
                    p.barrier(bar).await;
                    // Step 4: transpose scratch -> data.
                    transpose_band(p, &scratch, &data, m, r0, r1).await;
                    p.barrier(bar).await;
                    // Step 5: row FFTs on data.
                    fft_band(p, &data, m, r0, r1, None).await;
                    p.barrier(bar).await;
                    // Step 6: final transpose data -> scratch (natural order).
                    transpose_band(p, &data, &scratch, m, r0, r1).await;
                    p.barrier(bar).await;
                })
            })
            .collect();
        Some(bodies)
    }

    fn verify(&self) -> Result<(), String> {
        let guard = self.result.borrow();
        let out = guard.as_ref().ok_or("spawn() was never called")?;
        let n = self.n as f64;
        let read = |k: usize| Cx::new(out.get_direct(2 * k), out.get_direct(2 * k + 1));
        let close = |got: Cx, want: Cx, k: usize| -> Result<(), String> {
            let err = (got - want).norm2().sqrt();
            if err > 1e-6 * n {
                Err(format!(
                    "bin {k}: got ({:.3},{:.3}), want ({:.3},{:.3})",
                    got.re, got.im, want.re, want.im
                ))
            } else {
                Ok(())
            }
        };
        // Spikes at K0 and second_spike with amplitude a*n; near-zero
        // elsewhere.
        close(read(K0), Cx::new(A0.re * n, A0.im * n), K0)?;
        let k1 = self.second_spike();
        close(read(k1), Cx::new(A1.re * n, A1.im * n), k1)?;
        for probe in [0usize, 1, self.n / 2, self.n - 1] {
            if probe != K0 && probe != k1 {
                close(read(probe), Cx::default(), probe)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_core::{sequential_baseline, Protocol, SimBuilder};

    #[test]
    fn sequential_fft_verifies() {
        let w = Fft::new(256);
        let r = sequential_baseline(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn parallel_fft_verifies_under_hlrc() {
        let w = Fft::new(256);
        let r = SimBuilder::new(Protocol::Hlrc).procs(4).run(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
        assert_eq!(r.counters.barriers, 5);
        assert!(r.counters.fetches > 0, "transposes must communicate");
    }

    #[test]
    fn parallel_fft_verifies_under_sc_coarse() {
        let w = Fft::new(256);
        let r = SimBuilder::new(Protocol::Sc)
            .procs(4)
            .sc_block(4096)
            .run(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
    }

    #[test]
    fn parallel_beats_sequential_on_ideal() {
        let w = Fft::new(1024);
        let seq = sequential_baseline(&w).total_cycles;
        let w = Fft::new(1024);
        let par = SimBuilder::new(Protocol::Ideal)
            .procs(4)
            .run(&w)
            .total_cycles;
        assert!(
            (seq as f64 / par as f64) > 2.0,
            "ideal speedup too low: {seq}/{par}"
        );
    }

    #[test]
    fn output_does_not_depend_on_the_processor_count() {
        // 3 and 5 processors give bands that split into partial tiles.
        let output = |procs: usize| -> Vec<u64> {
            let w = Fft::new(256);
            let r = SimBuilder::new(Protocol::Hlrc).procs(procs).run(&w);
            assert!(r.verify_error.is_none(), "p{procs}: {:?}", r.verify_error);
            let guard = w.result.borrow();
            let out = guard.as_ref().expect("spawned");
            out.read_range_direct(0, out.len())
                .iter()
                .map(|x| x.to_bits())
                .collect()
        };
        let one = output(1);
        for procs in [2, 3, 4, 5] {
            assert!(output(procs) == one, "p{procs} differs from p1");
        }
    }

    #[test]
    fn roots_match_the_direct_form() {
        // Test scale and bench scale (4^10 points).
        for n in [256, 1 << 20] {
            let roots = Roots::new(n);
            for k in 0..n {
                let got = roots.get(k);
                let want = Cx::cis(2.0 * PI * k as f64 / n as f64);
                assert!(
                    (got.re - want.re).abs() <= 1e-15 && (got.im - want.im).abs() <= 1e-15,
                    "n {n}, k {k}: {got:?} vs {want:?}"
                );
            }
            assert_eq!(roots.get(n + 3), roots.get(3), "taken mod n");
        }
    }

    #[test]
    #[should_panic(expected = "power of four")]
    fn rejects_non_square_sizes() {
        let _ = Fft::new(512);
    }
}
