//! LU-Contiguous — the SPLASH-2 blocked dense LU factorization with
//! block-contiguous allocation.
//!
//! The n x n matrix is stored as B x B blocks, each contiguous in memory,
//! owned by processors in a 2-D scatter. Each elimination step factorizes
//! the diagonal block, updates the perimeter (block row/column), then the
//! interior, with barriers between phases. Like FFT, this is the paper's
//! coarse-grained **single-writer** case: every block has one writer, remote
//! reads are 2 KB block transfers, and there is almost no lock activity.
//!
//! No pivoting: the generated matrix is made diagonally dominant, which is
//! also what SPLASH-2 LU assumes.

use std::cell::RefCell;

use ssm_proto::{async_body, AsyncBody, SharedVec, Workload, World};

use crate::common::{read_block, write_block, FLOP};

/// Deterministic matrix entry (regenerable by verification).
fn a_init(n: usize, i: usize, j: usize) -> f64 {
    let h = (i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503)) & 0xffff;
    let frac = h as f64 / 65536.0;
    if i == j {
        n as f64 + frac
    } else {
        frac - 0.5
    }
}

/// The LU workload: `n x n` matrix in `b x b` blocks.
#[derive(Debug)]
pub struct Lu {
    n: usize,
    b: usize,
    nb: usize,
    data: RefCell<Option<SharedVec<f64>>>,
}

impl Lu {
    /// Creates an `n x n` LU factorization with `b x b` blocks.
    ///
    /// # Panics
    ///
    /// Panics unless `b` divides `n` and both are at least 2.
    pub fn new(n: usize, b: usize) -> Self {
        assert!(
            n >= 2 && b >= 2 && n.is_multiple_of(b),
            "block size must divide n"
        );
        Lu {
            n,
            b,
            nb: n / b,
            data: RefCell::new(None),
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    fn block_base(&self, bi: usize, bj: usize) -> usize {
        (bi * self.nb + bj) * self.b * self.b
    }
}

/// Owner of block `(bi, bj)` on a `pr x pc` processor grid.
fn owner(bi: usize, bj: usize, pr: usize, pc: usize) -> usize {
    (bi % pr) * pc + (bj % pc)
}

/// Near-square factorization of the processor count.
fn proc_grid(nprocs: usize) -> (usize, usize) {
    let mut pr = (nprocs as f64).sqrt() as usize;
    while !nprocs.is_multiple_of(pr) {
        pr -= 1;
    }
    (pr, nprocs / pr)
}

/// In-place LU of the diagonal block (unit lower, upper in place).
fn lu0(a: &mut [f64], b: usize) {
    for k in 0..b {
        let pivot = a[k * b + k];
        for i in k + 1..b {
            a[i * b + k] /= pivot;
            let l = a[i * b + k];
            for j in k + 1..b {
                a[i * b + j] -= l * a[k * b + j];
            }
        }
    }
}

/// `x := x * U^{-1}` for a sub-diagonal block (right-solve with the upper
/// triangle of `diag`).
fn bdiv(x: &mut [f64], diag: &[f64], b: usize) {
    for r in 0..b {
        for j in 0..b {
            let mut s = x[r * b + j];
            for t in 0..j {
                s -= x[r * b + t] * diag[t * b + j];
            }
            x[r * b + j] = s / diag[j * b + j];
        }
    }
}

/// `x := L^{-1} * x` for a right-of-diagonal block (left-solve with the
/// unit-lower triangle of `diag`).
fn bmodd(x: &mut [f64], diag: &[f64], b: usize) {
    for c in 0..b {
        for i in 0..b {
            let mut s = x[i * b + c];
            for t in 0..i {
                s -= diag[i * b + t] * x[t * b + c];
            }
            x[i * b + c] = s;
        }
    }
}

/// `x := x - l * u` (interior update).
fn bmod(x: &mut [f64], l: &[f64], u: &[f64], b: usize) {
    for i in 0..b {
        for j in 0..b {
            let mut s = 0.0;
            for t in 0..b {
                s += l[i * b + t] * u[t * b + j];
            }
            x[i * b + j] -= s;
        }
    }
}

impl Workload for Lu {
    fn name(&self) -> String {
        format!("LU(n={},b={})", self.n, self.b)
    }

    fn mem_bytes(&self) -> usize {
        self.n * self.n * 8 + 64 * 1024
    }

    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        let a = world.alloc_vec::<f64>(self.n * self.n);
        let bar = world.alloc_barrier();
        // Block-contiguous initialization.
        for bi in 0..self.nb {
            for bj in 0..self.nb {
                let base = self.block_base(bi, bj);
                for r in 0..self.b {
                    for c in 0..self.b {
                        a.set_direct(
                            base + r * self.b + c,
                            a_init(self.n, bi * self.b + r, bj * self.b + c),
                        );
                    }
                }
            }
        }
        *self.data.borrow_mut() = Some(a.clone());
        let (b, nb) = (self.b, self.nb);
        let (pr, pc) = proc_grid(nprocs);
        let bsz = b * b;
        let flops_block = (b * b * b) as u64 * FLOP;
        let bodies = (0..nprocs)
            .map(|pid| {
                let a = a.clone();
                async_body(move |p| async move {
                    let p = &p;
                    let base_of = |bi: usize, bj: usize| (bi * nb + bj) * bsz;
                    for k in 0..nb {
                        // Phase 1: factor the diagonal block.
                        if owner(k, k, pr, pc) == pid {
                            let mut d = read_block(p, &a, base_of(k, k), bsz).await;
                            lu0(&mut d, b);
                            p.compute(2 * flops_block / 3);
                            write_block(p, &a, base_of(k, k), &d).await;
                        }
                        p.barrier(bar).await;
                        // Phase 2: perimeter updates.
                        let mut diag: Option<Vec<f64>> = None;
                        for i in k + 1..nb {
                            if owner(i, k, pr, pc) == pid {
                                if diag.is_none() {
                                    diag = Some(read_block(p, &a, base_of(k, k), bsz).await);
                                }
                                let mut x = read_block(p, &a, base_of(i, k), bsz).await;
                                bdiv(&mut x, diag.as_ref().expect("diag loaded"), b);
                                p.compute(flops_block);
                                write_block(p, &a, base_of(i, k), &x).await;
                            }
                            if owner(k, i, pr, pc) == pid {
                                if diag.is_none() {
                                    diag = Some(read_block(p, &a, base_of(k, k), bsz).await);
                                }
                                let mut x = read_block(p, &a, base_of(k, i), bsz).await;
                                bmodd(&mut x, diag.as_ref().expect("diag loaded"), b);
                                p.compute(flops_block);
                                write_block(p, &a, base_of(k, i), &x).await;
                            }
                        }
                        p.barrier(bar).await;
                        // Phase 3: interior updates.
                        let mut lcache: Option<(usize, Vec<f64>)> = None;
                        for i in k + 1..nb {
                            for j in k + 1..nb {
                                if owner(i, j, pr, pc) != pid {
                                    continue;
                                }
                                // Cache the row's L block across j.
                                if lcache.as_ref().map(|(li, _)| *li) != Some(i) {
                                    lcache = Some((i, read_block(p, &a, base_of(i, k), bsz).await));
                                }
                                let u = read_block(p, &a, base_of(k, j), bsz).await;
                                let mut x = read_block(p, &a, base_of(i, j), bsz).await;
                                bmod(&mut x, &lcache.as_ref().expect("L cached").1, &u, b);
                                p.compute(2 * flops_block);
                                write_block(p, &a, base_of(i, j), &x).await;
                            }
                        }
                        p.barrier(bar).await;
                    }
                })
            })
            .collect();
        Some(bodies)
    }

    fn verify(&self) -> Result<(), String> {
        let guard = self.data.borrow();
        let a = guard.as_ref().ok_or("spawn() was never called")?;
        let n = self.n;
        // Read the factored matrix back into dense element order.
        let mut f = vec![0.0f64; n * n];
        for bi in 0..self.nb {
            for bj in 0..self.nb {
                let base = self.block_base(bi, bj);
                for r in 0..self.b {
                    for c in 0..self.b {
                        f[(bi * self.b + r) * n + bj * self.b + c] =
                            a.get_direct(base + r * self.b + c);
                    }
                }
            }
        }
        // Check L*U == A on a deterministic sample of entries (full check
        // is O(n^3); the sample covers every block row/column).
        let step = (self.b / 2).max(1);
        let idx: Vec<usize> = (0..n).step_by(step).collect();
        for &i in &idx {
            for &j in &idx {
                let mut s = 0.0;
                for t in 0..n {
                    let l = if t < i {
                        f[i * n + t]
                    } else if t == i {
                        1.0
                    } else {
                        0.0
                    };
                    let u = if t <= j { f[t * n + j] } else { 0.0 };
                    s += l * u;
                }
                let want = a_init(n, i, j);
                if (s - want).abs() > 1e-6 * n as f64 {
                    return Err(format!("(L*U)[{i}][{j}] = {s}, want {want}"));
                }
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
    fn kernels_factor_a_small_matrix() {
        // Dense LU via lu0 on a whole 4x4 (b = n) and check L*U = A.
        let n = 4;
        let a: Vec<f64> = (0..16).map(|k| a_init(n, k / 4, k % 4)).collect();
        let mut m = a.clone();
        lu0(&mut m, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..n {
                    let l = if t < i {
                        m[i * n + t]
                    } else if t == i {
                        1.0
                    } else {
                        0.0
                    };
                    let u = if t <= j { m[t * n + j] } else { 0.0 };
                    s += l * u;
                }
                assert!((s - a[i * n + j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn blocked_kernels_consistent_with_dense() {
        // Factor an 8x8 with b=4 blocks using the block kernels directly
        // and compare against dense lu0.
        let n = 8;
        let b = 4;
        let mut dense: Vec<f64> = (0..n * n).map(|k| a_init(n, k / n, k % n)).collect();
        let orig = dense.clone();
        lu0(&mut dense, n);
        // Blocked path.
        let get = |m: &Vec<f64>, bi: usize, bj: usize| -> Vec<f64> {
            let mut out = vec![0.0; b * b];
            for r in 0..b {
                for c in 0..b {
                    out[r * b + c] = m[(bi * b + r) * n + bj * b + c];
                }
            }
            out
        };
        let put = |m: &mut Vec<f64>, bi: usize, bj: usize, blk: &[f64]| {
            for r in 0..b {
                for c in 0..b {
                    m[(bi * b + r) * n + bj * b + c] = blk[r * b + c];
                }
            }
        };
        let mut m = orig.clone();
        for k in 0..2 {
            let mut d = get(&m, k, k);
            lu0(&mut d, b);
            put(&mut m, k, k, &d);
            for i in k + 1..2 {
                let mut x = get(&m, i, k);
                bdiv(&mut x, &d, b);
                put(&mut m, i, k, &x);
                let mut y = get(&m, k, i);
                bmodd(&mut y, &d, b);
                put(&mut m, k, i, &y);
            }
            for i in k + 1..2 {
                for j in k + 1..2 {
                    let l = get(&m, i, k);
                    let u = get(&m, k, j);
                    let mut x = get(&m, i, j);
                    bmod(&mut x, &l, &u, b);
                    put(&mut m, i, j, &x);
                }
            }
        }
        for k in 0..n * n {
            assert!(
                (m[k] - dense[k]).abs() < 1e-9,
                "element {k}: blocked {} vs dense {}",
                m[k],
                dense[k]
            );
        }
    }

    #[test]
    fn sequential_lu_verifies() {
        let w = Lu::new(32, 8);
        let r = sequential_baseline(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
    }

    #[test]
    fn parallel_lu_verifies_under_hlrc_and_sc() {
        for proto in [Protocol::Hlrc, Protocol::Sc] {
            let w = Lu::new(32, 8);
            let r = SimBuilder::new(proto).procs(4).sc_block(512).run(&w);
            assert!(r.verify_error.is_none(), "{proto:?}: {:?}", r.verify_error);
            assert!(r.counters.fetches > 0);
        }
    }

    #[test]
    fn proc_grid_is_exact() {
        assert_eq!(proc_grid(16), (4, 4));
        assert_eq!(proc_grid(8), (2, 4));
        assert_eq!(proc_grid(1), (1, 1));
        assert_eq!(proc_grid(7), (1, 7));
    }
}
