//! Ocean — the regular nearest-neighbour grid solver (red-black
//! Gauss-Seidel on the SPLASH-2 Ocean pattern), in two versions:
//!
//! * **Ocean-Contiguous** (original): processors own 2-D subgrids stored
//!   block-contiguously. North/south boundary exchanges are contiguous row
//!   segments (coarse), but east/west exchanges read a *column* of the
//!   neighbour's block — one word per row. This is the fine-grained
//!   "message per word of useful data" behaviour the paper highlights for
//!   Ocean-Contiguous (§4.3).
//! * **Ocean-rowwise** (restructured): processors own horizontal strips of
//!   a row-major grid, so every boundary exchange is one contiguous row.
//!   This "greatly reduces the number of messages" (§4.5), trading surface-
//!   to-volume ratio for coarse access.
//!
//! The solver runs a fixed number of red-black sweeps with barriers between
//! half-sweeps; both variants compute bit-identical results to a sequential
//! reference, which `verify` checks exactly.

use std::cell::RefCell;

use ssm_proto::{async_body, AsyncBody, SharedVec, Workload, World};

use crate::common::{block_range, read_block, FLOP, INT_OP};

/// Fixed boundary value at grid point `(i, j)`.
fn boundary(i: usize, j: usize) -> f64 {
    ((i * 31 + j * 17) % 97) as f64 / 97.0
}

/// Source term at grid point `(i, j)`.
fn source(i: usize, j: usize) -> f64 {
    ((i * 131 + j * 101) % 256) as f64 / 256.0 - 0.5
}

/// Which layout/decomposition variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OceanVariant {
    /// Original: 2-D block decomposition, block-contiguous storage.
    Contiguous,
    /// Restructured: row-strip decomposition, row-major storage.
    Rowwise,
}

/// The Ocean workload: an `(n+2) x (n+2)` grid (n interior points per
/// side), `iters` red-black iterations.
#[derive(Debug)]
pub struct Ocean {
    n: usize,
    iters: usize,
    variant: OceanVariant,
    state: RefCell<Option<(SharedVec<f64>, Layout)>>,
}

/// How grid point `(i, j)` maps to an index in the shared array.
#[derive(Debug, Clone)]
enum Layout {
    /// Row-major over the full `(n+2)^2` grid.
    RowMajor { total: usize },
    /// Block-contiguous: `rows[i]`/`cols[j]` give each block's spans;
    /// `bases[i * pc + j]` its starting index.
    Blocked {
        rows: Vec<(usize, usize)>,
        cols: Vec<(usize, usize)>,
        bases: Vec<usize>,
    },
}

impl Layout {
    fn index(&self, i: usize, j: usize) -> usize {
        match self {
            Layout::RowMajor { total } => i * total + j,
            Layout::Blocked { rows, cols, bases } => {
                let bi = rows
                    .iter()
                    .position(|&(s, e)| i >= s && i < e)
                    .expect("row in range");
                let bj = cols
                    .iter()
                    .position(|&(s, e)| j >= s && j < e)
                    .expect("col in range");
                let (r0, _) = rows[bi];
                let (c0, c1) = cols[bj];
                bases[bi * cols.len() + bj] + (i - r0) * (c1 - c0) + (j - c0)
            }
        }
    }
}

/// Near-square factorization of the processor count.
fn proc_grid(nprocs: usize) -> (usize, usize) {
    let mut pr = (nprocs as f64).sqrt() as usize;
    while !nprocs.is_multiple_of(pr) {
        pr -= 1;
    }
    (pr, nprocs / pr)
}

impl Ocean {
    /// Original Ocean-Contiguous with `n` interior points per side.
    pub fn contiguous(n: usize, iters: usize) -> Self {
        Ocean::new(n, iters, OceanVariant::Contiguous)
    }

    /// Restructured Ocean-rowwise.
    pub fn rowwise(n: usize, iters: usize) -> Self {
        Ocean::new(n, iters, OceanVariant::Rowwise)
    }

    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `iters == 0`.
    pub fn new(n: usize, iters: usize, variant: OceanVariant) -> Self {
        assert!(n >= 4 && iters > 0);
        Ocean {
            n,
            iters,
            variant,
            state: RefCell::new(None),
        }
    }

    /// Interior grid dimension.
    pub fn interior(&self) -> usize {
        self.n
    }

    fn total(&self) -> usize {
        self.n + 2
    }

    fn build_layout(&self, nprocs: usize) -> Layout {
        match self.variant {
            OceanVariant::Rowwise => Layout::RowMajor {
                total: self.total(),
            },
            OceanVariant::Contiguous => {
                let (pr, pc) = proc_grid(nprocs);
                let total = self.total();
                let rows: Vec<(usize, usize)> =
                    (0..pr).map(|i| block_range(total, pr, i)).collect();
                let cols: Vec<(usize, usize)> =
                    (0..pc).map(|j| block_range(total, pc, j)).collect();
                let mut bases = Vec::with_capacity(pr * pc);
                let mut next = 0usize;
                for &(r0, r1) in &rows {
                    for &(c0, c1) in &cols {
                        bases.push(next);
                        next += (r1 - r0) * (c1 - c0);
                    }
                }
                Layout::Blocked { rows, cols, bases }
            }
        }
    }

    /// Sequential reference with identical arithmetic and sweep structure.
    fn reference(&self) -> Vec<f64> {
        let total = self.total();
        let mut u = vec![0.0f64; total * total];
        for i in 0..total {
            for j in 0..total {
                if i == 0 || j == 0 || i == total - 1 || j == total - 1 {
                    u[i * total + j] = boundary(i, j);
                }
            }
        }
        for _ in 0..self.iters {
            for color in 0..2usize {
                let old = u.clone();
                for i in 1..total - 1 {
                    for j in 1..total - 1 {
                        if (i + j) % 2 == color {
                            u[i * total + j] = 0.25
                                * (old[(i - 1) * total + j]
                                    + old[(i + 1) * total + j]
                                    + old[i * total + j - 1]
                                    + old[i * total + j + 1]
                                    + source(i, j));
                        }
                    }
                }
            }
        }
        u
    }
}

impl Workload for Ocean {
    fn name(&self) -> String {
        match self.variant {
            OceanVariant::Contiguous => format!("Ocean-Contiguous(n={})", self.n),
            OceanVariant::Rowwise => format!("Ocean-rowwise(n={})", self.n),
        }
    }

    fn mem_bytes(&self) -> usize {
        self.total() * self.total() * 8 + 64 * 1024
    }

    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        let total = self.total();
        let grid = world.alloc_vec::<f64>(total * total);
        let bar = world.alloc_barrier();
        let layout = self.build_layout(nprocs);
        for i in 0..total {
            for j in 0..total {
                let v = if i == 0 || j == 0 || i == total - 1 || j == total - 1 {
                    boundary(i, j)
                } else {
                    0.0
                };
                grid.set_direct(layout.index(i, j), v);
            }
        }
        *self.state.borrow_mut() = Some((grid.clone(), layout.clone()));
        let iters = self.iters;
        let variant = self.variant;
        let (pr, pc) = proc_grid(nprocs);
        let bodies = (0..nprocs)
            .map(|pid| {
                let grid = grid.clone();
                let layout = layout.clone();
                async_body(move |p| async move {
                    let p = &p;
                    // My owned span of the FULL grid (boundary cells
                    // included; they are never updated). In the blocked
                    // layout this is exactly my contiguous block.
                    let (r0, r1, c0, c1) = match variant {
                        OceanVariant::Rowwise => {
                            let (a, b) = block_range(total, p.nprocs(), pid);
                            (a, b, 0, total)
                        }
                        OceanVariant::Contiguous => {
                            let bi = pid / pc;
                            let bj = pid % pc;
                            let (a, b) = block_range(total, pr, bi);
                            let (c, d) = block_range(total, pc, bj);
                            (a, b, c, d)
                        }
                    };
                    let h = r1 - r0;
                    let w = c1 - c0;
                    if h == 0 || w == 0 {
                        for _ in 0..iters * 2 {
                            p.barrier(bar).await;
                        }
                        return;
                    }
                    // Local mirror of my span plus a halo ring.
                    let mut local = vec![0.0f64; (h + 2) * (w + 2)];
                    let lw = w + 2;
                    for _ in 0..iters {
                        for color in 0..2usize {
                            // Refresh my span: one coarse read in the
                            // blocked layout, per-row in rowwise.
                            match variant {
                                OceanVariant::Contiguous => {
                                    let base = layout.index(r0, c0);
                                    let blk = read_block(p, &grid, base, h * w).await;
                                    for r in 0..h {
                                        for c in 0..w {
                                            local[(r + 1) * lw + c + 1] = blk[r * w + c];
                                        }
                                    }
                                }
                                OceanVariant::Rowwise => {
                                    let base = layout.index(r0, 0);
                                    let blk = read_block(p, &grid, base, h * total).await;
                                    for r in 0..h {
                                        for c in 0..w {
                                            local[(r + 1) * lw + c + 1] = blk[r * total + c];
                                        }
                                    }
                                }
                            }
                            // Halo: north & south neighbour rows —
                            // contiguous runs in the underlying layout
                            // (coarse reads).
                            let row_halo =
                                async |local: &mut Vec<f64>, dst_r: usize, src_i: usize| {
                                    let mut j = c0;
                                    while j < c1 {
                                        let start_idx = layout.index(src_i, j);
                                        let mut len = 1usize;
                                        while j + len < c1
                                            && layout.index(src_i, j + len) == start_idx + len
                                        {
                                            len += 1;
                                        }
                                        let seg = read_block(p, &grid, start_idx, len).await;
                                        for (t, v) in seg.into_iter().enumerate() {
                                            local[dst_r * lw + (j - c0) + 1 + t] = v;
                                        }
                                        j += len;
                                    }
                                };
                            if r0 > 0 {
                                row_halo(&mut local, 0, r0 - 1).await;
                            }
                            if r1 < total {
                                row_halo(&mut local, h + 1, r1).await;
                            }
                            // Halo: west & east neighbour columns — one
                            // word per row (the fine-grained accesses the
                            // paper calls out for Ocean-Contiguous).
                            if c0 > 0 {
                                for r in 0..h {
                                    let idx = layout.index(r0 + r, c0 - 1);
                                    grid.touch_read(p, idx, 1).await;
                                    local[(r + 1) * lw] = grid.get_direct(idx);
                                }
                            }
                            if c1 < total {
                                for r in 0..h {
                                    let idx = layout.index(r0 + r, c1);
                                    grid.touch_read(p, idx, 1).await;
                                    local[(r + 1) * lw + w + 1] = grid.get_direct(idx);
                                }
                            }
                            // Update my interior cells of this color.
                            let mut updates: Vec<(usize, f64)> = Vec::new();
                            for r in 0..h {
                                for c in 0..w {
                                    let (gi, gj) = (r0 + r, c0 + c);
                                    if gi == 0
                                        || gj == 0
                                        || gi == total - 1
                                        || gj == total - 1
                                        || (gi + gj) % 2 != color
                                    {
                                        continue;
                                    }
                                    let v = 0.25
                                        * (local[r * lw + c + 1]
                                            + local[(r + 2) * lw + c + 1]
                                            + local[(r + 1) * lw + c]
                                            + local[(r + 1) * lw + c + 2]
                                            + source(gi, gj));
                                    updates.push((layout.index(gi, gj), v));
                                }
                            }
                            p.compute(updates.len() as u64 * (5 * FLOP + 2 * INT_OP));
                            // Word-granularity writes (red-black cells
                            // alternate; there is no contiguous run to
                            // batch).
                            for (idx, v) in updates {
                                grid.touch_write(p, idx, 1).await;
                                grid.set_direct(idx, v);
                            }
                            p.barrier(bar).await;
                        }
                    }
                })
            })
            .collect();
        Some(bodies)
    }

    fn verify(&self) -> Result<(), String> {
        let guard = self.state.borrow();
        let (grid, layout) = guard.as_ref().ok_or("spawn() was never called")?;
        let want = self.reference();
        let total = self.total();
        for i in 0..total {
            for j in 0..total {
                let got = grid.get_direct(layout.index(i, j));
                let w = want[i * total + j];
                if (got - w).abs() > 1e-12 {
                    return Err(format!("grid[{i}][{j}] = {got}, want {w}"));
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
    fn sequential_both_variants_verify() {
        for v in [OceanVariant::Contiguous, OceanVariant::Rowwise] {
            let w = Ocean::new(8, 2, v);
            let r = sequential_baseline(&w);
            assert!(r.verify_error.is_none(), "{v:?}: {:?}", r.verify_error);
        }
    }

    #[test]
    fn parallel_contiguous_verifies_under_hlrc() {
        let w = Ocean::contiguous(16, 2);
        let r = SimBuilder::new(Protocol::Hlrc).procs(4).run(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
        assert_eq!(r.counters.barriers as usize, 4);
    }

    #[test]
    fn parallel_rowwise_verifies_under_sc() {
        let w = Ocean::rowwise(16, 2);
        let r = SimBuilder::new(Protocol::Sc)
            .procs(4)
            .sc_block(1024)
            .run(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
    }

    #[test]
    fn rowwise_sends_fewer_messages_than_contiguous() {
        // The restructuring's whole point (paper §4.5): fewer, coarser
        // messages. At fine granularity (SC, 64 B) the contiguous variant's
        // per-word column exchanges dominate; rowwise strips have no
        // east/west boundaries at all.
        let orig = Ocean::contiguous(24, 2);
        let ro = SimBuilder::new(Protocol::Sc)
            .procs(4)
            .sc_block(64)
            .run(&orig);
        let rest = Ocean::rowwise(24, 2);
        let rr = SimBuilder::new(Protocol::Sc)
            .procs(4)
            .sc_block(64)
            .run(&rest);
        assert!(ro.verify_error.is_none() && rr.verify_error.is_none());
        assert!(
            rr.counters.messages < ro.counters.messages,
            "rowwise {} should send fewer messages than contiguous {}",
            rr.counters.messages,
            ro.counters.messages
        );
    }

    #[test]
    fn layout_blocked_is_bijective() {
        let o = Ocean::contiguous(6, 1);
        let l = o.build_layout(4);
        let total = 8;
        let mut seen = std::collections::HashSet::new();
        for i in 0..total {
            for j in 0..total {
                assert!(seen.insert(l.index(i, j)), "duplicate index at ({i},{j})");
            }
        }
        assert_eq!(seen.len(), total * total);
        assert!(seen.iter().max() == Some(&(total * total - 1)));
    }
}
