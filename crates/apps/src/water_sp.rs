//! Water-Spatial — cutoff molecular dynamics with a spatial cell
//! decomposition, following the SPLASH-2 Water-Spatial sharing structure.
//!
//! Space is divided into a 3-D grid of cells (cell side ≥ cutoff);
//! processors own contiguous *slabs* of cells. Each timestep a processor:
//!
//! 1. reads the position array (read-mostly, coarse) and selects the
//!    molecules currently inside its slab — ownership follows the
//!    molecules, so load balance shifts as they move;
//! 2. computes cutoff-limited forces for its molecules against molecules
//!    in the 27-cell neighbourhood (neighbourhood sharing, far fewer
//!    remote molecules than Water-Nsquared);
//! 3. integrates its molecules and, when one crosses a cell boundary,
//!    updates the shared per-cell occupancy counters **under the cell's
//!    lock** (the remaining — much lighter — lock traffic of this
//!    application).
//!
//! Verification compares final positions against a sequential reference
//! within floating-point tolerance.

use std::cell::RefCell;

use ssm_proto::{async_body, AsyncBody, SharedVec, Workload, World};

use crate::common::{block_range, read_block, write_block, FLOP};

/// Integration step.
const DT: f64 = 1e-3;
/// Force softening.
const SOFT: f64 = 0.05;
/// Cutoff radius (unit box).
const CUTOFF: f64 = 0.30;
/// Cells per box side. The cell side (1/CELLS) must be at least the
/// cutoff; 3 cells/side gives 27 cells so a 16-processor run keeps every
/// processor busy.
const CELLS: usize = 3;

/// Deterministic initial position (unit box, away from walls so a few
/// steps never escape).
fn pos_init(i: usize, c: usize) -> f64 {
    let h = (i * 3 + c).wrapping_mul(2654435761) & 0xfffff;
    0.1 + 0.8 * (h as f64 / 1048576.0)
}

/// Cutoff pair force of `b` on `a` (zero outside the cutoff).
fn pair_force(a: [f64; 3], b: [f64; 3]) -> Option<[f64; 3]> {
    let d = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    if r2 > CUTOFF * CUTOFF {
        return None;
    }
    let r2s = r2 + SOFT;
    let inv = 1.0 / (r2s * r2s.sqrt());
    Some([d[0] * inv, d[1] * inv, d[2] * inv])
}

/// Cell index of a position (clamped to the box).
fn cell_of(x: [f64; 3]) -> usize {
    let c = |v: f64| ((v * CELLS as f64) as isize).clamp(0, CELLS as isize - 1) as usize;
    (c(x[0]) * CELLS + c(x[1])) * CELLS + c(x[2])
}

/// The Water-Spatial workload: `n` molecules, `steps` timesteps.
#[derive(Debug)]
pub struct WaterSp {
    n: usize,
    steps: usize,
    state: RefCell<Option<SharedVec<f64>>>,
}

impl WaterSp {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `steps == 0`.
    pub fn new(n: usize, steps: usize) -> Self {
        assert!(n >= 4 && steps > 0);
        WaterSp {
            n,
            steps,
            state: RefCell::new(None),
        }
    }

    /// Molecule count.
    pub fn molecules(&self) -> usize {
        self.n
    }

    /// Sequential reference with the identical force law and update order
    /// (forces for molecule `i` are accumulated over `j` in index order).
    #[allow(clippy::needless_range_loop)] // indexed loops mirror the kernel
    fn reference(&self) -> Vec<f64> {
        let n = self.n;
        let mut pos: Vec<f64> = (0..n * 3).map(|k| pos_init(k / 3, k % 3)).collect();
        let mut vel = vec![0.0f64; n * 3];
        for _ in 0..self.steps {
            let mut force = vec![0.0f64; n * 3];
            for i in 0..n {
                let a = [pos[i * 3], pos[i * 3 + 1], pos[i * 3 + 2]];
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let b = [pos[j * 3], pos[j * 3 + 1], pos[j * 3 + 2]];
                    if let Some(f) = pair_force(a, b) {
                        for c in 0..3 {
                            force[i * 3 + c] += f[c];
                        }
                    }
                }
            }
            for k in 0..n * 3 {
                vel[k] += force[k] * DT;
                pos[k] += vel[k] * DT;
            }
        }
        pos
    }
}

impl Workload for WaterSp {
    fn name(&self) -> String {
        format!("Water-Spatial(n={})", self.n)
    }

    fn mem_bytes(&self) -> usize {
        self.n * 3 * 8 * 3 + CELLS * CELLS * CELLS * 8 + 128 * 1024
    }

    #[allow(clippy::needless_range_loop)] // indexed loops mirror the SPLASH-2 kernels
    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        let n = self.n;
        let ncells = CELLS * CELLS * CELLS;
        let pos = world.alloc_vec::<f64>(n * 3);
        let vel = world.alloc_vec::<f64>(n * 3);
        let occupancy = world.alloc_vec::<u32>(ncells);
        let cell_locks = world.alloc_locks(ncells);
        let bar = world.alloc_barrier();
        let mut occ = vec![0u32; ncells];
        for i in 0..n {
            let x = [pos_init(i, 0), pos_init(i, 1), pos_init(i, 2)];
            for c in 0..3 {
                pos.set_direct(i * 3 + c, x[c]);
            }
            occ[cell_of(x)] += 1;
        }
        for (c, &v) in occ.iter().enumerate() {
            occupancy.set_direct(c, v);
        }
        *self.state.borrow_mut() = Some(pos.clone());
        let steps = self.steps;
        let bodies = (0..nprocs)
            .map(|pid| {
                let pos = pos.clone();
                let vel = vel.clone();
                let occupancy = occupancy.clone();
                let cell_locks = cell_locks.clone();
                async_body(move |p| async move {
                    let p = &p;
                    // Slab ownership: contiguous range of cell indices.
                    let (c0, c1) = block_range(ncells, p.nprocs(), pid);
                    for _ in 0..steps {
                        // Phase 1: read all positions (read-mostly sharing)
                        // and pick my molecules by current cell.
                        let all_pos = read_block(p, &pos, 0, n * 3).await;
                        let mine: Vec<usize> = (0..n)
                            .filter(|&i| {
                                let x = [all_pos[i * 3], all_pos[i * 3 + 1], all_pos[i * 3 + 2]];
                                let c = cell_of(x);
                                c >= c0 && c < c1
                            })
                            .collect();
                        p.compute(n as u64 * 4);
                        // Phase 2: cutoff forces for my molecules (j in
                        // index order to match the reference exactly).
                        let mut forces = vec![[0.0f64; 3]; mine.len()];
                        let mut interactions = 0u64;
                        for (t, &i) in mine.iter().enumerate() {
                            let a = [all_pos[i * 3], all_pos[i * 3 + 1], all_pos[i * 3 + 2]];
                            for j in 0..n {
                                if i == j {
                                    continue;
                                }
                                let b = [all_pos[j * 3], all_pos[j * 3 + 1], all_pos[j * 3 + 2]];
                                // Cell-distance prefilter (the cell lists):
                                // only the 27-neighbourhood is examined.
                                if !cells_adjacent(cell_of(a), cell_of(b)) {
                                    continue;
                                }
                                interactions += 1;
                                if let Some(f) = pair_force(a, b) {
                                    for c in 0..3 {
                                        forces[t][c] += f[c];
                                    }
                                }
                            }
                        }
                        // Same per-interaction cost rationale as Water-Nsquared: a real
                        // water-water interaction is hundreds of flops.
                        p.compute(interactions * 600 * FLOP);
                        p.barrier(bar).await;
                        // Phase 3: integrate my molecules; update cell
                        // occupancy under locks on boundary crossings.
                        for (t, &i) in mine.iter().enumerate() {
                            let mut v = read_block(p, &vel, i * 3, 3).await;
                            let mut x = read_block(p, &pos, i * 3, 3).await;
                            let before = cell_of([x[0], x[1], x[2]]);
                            for c in 0..3 {
                                v[c] += forces[t][c] * DT;
                                x[c] += v[c] * DT;
                            }
                            p.compute(12 * FLOP);
                            write_block(p, &vel, i * 3, &v).await;
                            write_block(p, &pos, i * 3, &x).await;
                            let after = cell_of([x[0], x[1], x[2]]);
                            if before != after {
                                let (lo, hi) = (before.min(after), before.max(after));
                                p.lock(cell_locks[lo]).await;
                                p.lock(cell_locks[hi]).await;
                                let b = occupancy.read(p, before).await;
                                occupancy.write(p, before, b.saturating_sub(1)).await;
                                let a = occupancy.read(p, after).await;
                                occupancy.write(p, after, a + 1).await;
                                p.unlock(cell_locks[hi]).await;
                                p.unlock(cell_locks[lo]).await;
                            }
                        }
                        p.barrier(bar).await;
                    }
                })
            })
            .collect();
        Some(bodies)
    }

    #[allow(clippy::needless_range_loop)] // k indexes both got and want
    fn verify(&self) -> Result<(), String> {
        let guard = self.state.borrow();
        let pos = guard.as_ref().ok_or("spawn() was never called")?;
        let want = self.reference();
        for k in 0..self.n * 3 {
            let got = pos.get_direct(k);
            if (got - want[k]).abs() > 1e-9 {
                return Err(format!(
                    "pos[{k}] = {got}, want {} (|err| = {:.2e})",
                    want[k],
                    (got - want[k]).abs()
                ));
            }
        }
        Ok(())
    }
}

/// Whether two cells are within one step of each other in every dimension.
fn cells_adjacent(a: usize, b: usize) -> bool {
    let unpack = |c: usize| {
        let z = c % CELLS;
        let y = (c / CELLS) % CELLS;
        let x = c / (CELLS * CELLS);
        (x as isize, y as isize, z as isize)
    };
    let (ax, ay, az) = unpack(a);
    let (bx, by, bz) = unpack(b);
    (ax - bx).abs() <= 1 && (ay - by).abs() <= 1 && (az - bz).abs() <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_core::{sequential_baseline, Protocol, SimBuilder};

    #[test]
    fn cell_mapping_is_in_range() {
        for i in 0..100 {
            let x = [pos_init(i, 0), pos_init(i, 1), pos_init(i, 2)];
            assert!(cell_of(x) < CELLS * CELLS * CELLS);
        }
    }

    #[test]
    fn adjacency_is_reflexive_and_symmetric() {
        let nc = CELLS * CELLS * CELLS;
        for a in 0..nc {
            assert!(cells_adjacent(a, a));
            for b in 0..nc {
                assert_eq!(cells_adjacent(a, b), cells_adjacent(b, a));
            }
        }
    }

    #[test]
    fn cutoff_prefilter_is_safe() {
        // Any pair within the cutoff must be in adjacent cells (cell side
        // 1/CELLS ≥ CUTOFF).
        assert!(1.0 / CELLS as f64 >= CUTOFF);
    }

    #[test]
    fn sequential_water_spatial_verifies() {
        let w = WaterSp::new(32, 2);
        let r = sequential_baseline(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
    }

    #[test]
    fn parallel_water_spatial_verifies() {
        for proto in [Protocol::Hlrc, Protocol::Sc] {
            let w = WaterSp::new(32, 2);
            let r = SimBuilder::new(proto).procs(4).run(&w);
            assert!(r.verify_error.is_none(), "{proto:?}: {:?}", r.verify_error);
        }
    }

    #[test]
    fn spatial_locks_less_than_nsquared() {
        let nsq = crate::water_nsq::WaterNsq::new(32, 2);
        let r1 = SimBuilder::new(Protocol::Hlrc).procs(4).run(&nsq);
        let sp = WaterSp::new(32, 2);
        let r2 = SimBuilder::new(Protocol::Hlrc).procs(4).run(&sp);
        assert!(
            r2.counters.lock_acquires < r1.counters.lock_acquires / 2,
            "spatial {} vs nsquared {}",
            r2.counters.lock_acquires,
            r1.counters.lock_acquires
        );
    }
}
