//! Water-Nsquared — O(n²) pairwise molecular dynamics with per-molecule
//! force locks, following the SPLASH-2 Water-Nsquared sharing structure.
//!
//! Each processor owns a contiguous band of molecules. Every timestep:
//!
//! 1. owners zero their molecules' forces (local, coarse);
//! 2. each processor computes the pair interactions `(i, j)` for its
//!    molecules `i` against the *next n/2 molecules* (each pair computed
//!    exactly once), accumulating contributions in a private array; at the
//!    end of the phase it merges every non-zero partial sum into the
//!    shared force array **under that molecule's lock** (the SPLASH-2
//!    structure) — the migratory, lock-heavy traffic the paper calls out
//!    ("Water-Nsquared … computes many diffs for a lot of migratory data
//!    when it is updating forces");
//! 3. owners integrate their molecules (local).
//!
//! The physics is a softened inverse-square pair force (the water-specific
//! intra-molecular terms do not change the sharing structure; see
//! DESIGN.md §3 on substitutions). Verification compares positions against
//! a sequential reference within a floating-point-reassociation tolerance.

use std::cell::RefCell;

use ssm_proto::{async_body, AsyncBody, SharedVec, Workload, World};

use crate::common::{block_range, read_block, write_block, FLOP};

/// Integration step.
const DT: f64 = 1e-3;
/// Force softening (avoids singular close pairs).
const SOFT: f64 = 0.05;

/// Deterministic initial position component `c` of molecule `i` in a unit
/// box.
fn pos_init(i: usize, c: usize) -> f64 {
    let h = (i * 3 + c).wrapping_mul(2654435761) & 0xfffff;
    h as f64 / 1048576.0
}

/// Softened inverse-square pair force of `b` on `a`.
fn pair_force(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    let d = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + SOFT;
    let inv = 1.0 / (r2 * r2.sqrt());
    [d[0] * inv, d[1] * inv, d[2] * inv]
}

/// Cycles for one pair interaction. A real SPLASH-2 water-water
/// interaction evaluates all O-O/O-H/H-H terms — several hundred floating
/// point operations — so the charged cost reflects that, even though the
/// substituted physics (DESIGN.md §3) computes a single softened pair
/// force. This keeps the computation-to-communication ratio of the
/// original application.
const PAIR_COST: u64 = 600 * FLOP;

/// The Water-Nsquared workload: `n` molecules, `steps` timesteps.
#[derive(Debug)]
pub struct WaterNsq {
    n: usize,
    steps: usize,
    state: RefCell<Option<SharedVec<f64>>>,
}

impl WaterNsq {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `steps == 0`.
    pub fn new(n: usize, steps: usize) -> Self {
        assert!(n >= 4 && steps > 0);
        WaterNsq {
            n,
            steps,
            state: RefCell::new(None),
        }
    }

    /// Molecule count.
    pub fn molecules(&self) -> usize {
        self.n
    }

    /// Sequential reference: same force law, same pair set, deterministic
    /// order. Returns final positions.
    fn reference(&self) -> Vec<f64> {
        let n = self.n;
        let mut pos: Vec<f64> = (0..n * 3).map(|k| pos_init(k / 3, k % 3)).collect();
        let mut vel = vec![0.0f64; n * 3];
        for _ in 0..self.steps {
            let mut force = vec![0.0f64; n * 3];
            for i in 0..n {
                for half in 1..=n / 2 {
                    let j = (i + half) % n;
                    // Each unordered pair once: skip the double-counted
                    // half when n is even.
                    if n.is_multiple_of(2) && half == n / 2 && i >= n / 2 {
                        continue;
                    }
                    let a = [pos[i * 3], pos[i * 3 + 1], pos[i * 3 + 2]];
                    let b = [pos[j * 3], pos[j * 3 + 1], pos[j * 3 + 2]];
                    let f = pair_force(a, b);
                    for c in 0..3 {
                        force[i * 3 + c] += f[c];
                        force[j * 3 + c] -= f[c];
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

impl Workload for WaterNsq {
    fn name(&self) -> String {
        format!("Water-Nsquared(n={})", self.n)
    }

    fn mem_bytes(&self) -> usize {
        self.n * 3 * 8 * 3 + 128 * 1024
    }

    #[allow(clippy::needless_range_loop)] // indexed loops mirror the SPLASH-2 kernels
    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        let n = self.n;
        let pos = world.alloc_vec::<f64>(n * 3);
        let vel = world.alloc_vec::<f64>(n * 3);
        let force = world.alloc_vec::<f64>(n * 3);
        let locks = world.alloc_locks(n);
        let bar = world.alloc_barrier();
        for i in 0..n {
            for c in 0..3 {
                pos.set_direct(i * 3 + c, pos_init(i, c));
            }
        }
        *self.state.borrow_mut() = Some(pos.clone());
        let steps = self.steps;
        let bodies = (0..nprocs)
            .map(|pid| {
                let pos = pos.clone();
                let vel = vel.clone();
                let force = force.clone();
                let locks = locks.clone();
                async_body(move |p| async move {
                    let p = &p;
                    let (m0, m1) = block_range(n, p.nprocs(), pid);
                    for _ in 0..steps {
                        // Phase 1: zero my forces.
                        write_block(p, &force, m0 * 3, &vec![0.0; (m1 - m0) * 3]).await;
                        p.barrier(bar).await;
                        // Phase 2: pair forces. Read all positions coarsely
                        // (read-mostly), accumulate my own contributions
                        // privately, push contributions to others under
                        // their molecule lock.
                        let all_pos = read_block(p, &pos, 0, n * 3).await;
                        let mut partial = vec![0.0f64; n * 3];
                        let mut touched = vec![false; n];
                        for i in m0..m1 {
                            for half in 1..=n / 2 {
                                let j = (i + half) % n;
                                if n.is_multiple_of(2) && half == n / 2 && i >= n / 2 {
                                    continue;
                                }
                                let a = [all_pos[i * 3], all_pos[i * 3 + 1], all_pos[i * 3 + 2]];
                                let b = [all_pos[j * 3], all_pos[j * 3 + 1], all_pos[j * 3 + 2]];
                                let f = pair_force(a, b);
                                p.compute(PAIR_COST);
                                for c in 0..3 {
                                    partial[i * 3 + c] += f[c];
                                    partial[j * 3 + c] -= f[c];
                                }
                                touched[i] = true;
                                touched[j] = true;
                            }
                        }
                        // Merge phase: every non-zero partial sum goes into
                        // the shared array under the molecule's lock (the
                        // molecule records are the paper's migratory data).
                        for j in 0..n {
                            if !touched[j] {
                                continue;
                            }
                            p.lock(locks[j]).await;
                            let cur = read_block(p, &force, j * 3, 3).await;
                            write_block(
                                p,
                                &force,
                                j * 3,
                                &[
                                    cur[0] + partial[j * 3],
                                    cur[1] + partial[j * 3 + 1],
                                    cur[2] + partial[j * 3 + 2],
                                ],
                            )
                            .await;
                            p.unlock(locks[j]).await;
                        }
                        p.barrier(bar).await;
                        // Phase 3: integrate my molecules.
                        let f = read_block(p, &force, m0 * 3, (m1 - m0) * 3).await;
                        let mut v = read_block(p, &vel, m0 * 3, (m1 - m0) * 3).await;
                        let mut x = read_block(p, &pos, m0 * 3, (m1 - m0) * 3).await;
                        for k in 0..(m1 - m0) * 3 {
                            v[k] += f[k] * DT;
                            x[k] += v[k] * DT;
                        }
                        p.compute(((m1 - m0) * 3) as u64 * 4 * FLOP);
                        write_block(p, &vel, m0 * 3, &v).await;
                        write_block(p, &pos, m0 * 3, &x).await;
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
            // Accumulation order differs across processors; tolerate
            // floating-point reassociation only.
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

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_core::{sequential_baseline, Protocol, SimBuilder};

    #[test]
    fn pair_force_is_antisymmetric_in_use() {
        let a = [0.1, 0.2, 0.3];
        let b = [0.7, 0.5, 0.9];
        let f_ab = pair_force(a, b);
        let f_ba = pair_force(b, a);
        for c in 0..3 {
            assert!((f_ab[c] + f_ba[c]).abs() < 1e-15);
        }
    }

    #[test]
    fn every_pair_computed_exactly_once() {
        // The (i, i+half) enumeration over all i must cover each unordered
        // pair exactly once, for even and odd n.
        for n in [6usize, 7, 8, 9] {
            let mut seen = std::collections::HashSet::new();
            for i in 0..n {
                for half in 1..=n / 2 {
                    let j = (i + half) % n;
                    if n % 2 == 0 && half == n / 2 && i >= n / 2 {
                        continue;
                    }
                    let key = (i.min(j), i.max(j));
                    assert!(seen.insert(key), "pair {key:?} duplicated (n={n})");
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn sequential_water_verifies() {
        let w = WaterNsq::new(16, 2);
        let r = sequential_baseline(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
    }

    #[test]
    fn parallel_water_verifies_and_locks() {
        for proto in [Protocol::Hlrc, Protocol::Sc] {
            let w = WaterNsq::new(16, 2);
            let r = SimBuilder::new(proto).procs(4).run(&w);
            assert!(r.verify_error.is_none(), "{proto:?}: {:?}", r.verify_error);
            // Each processor merges up to n molecules per step: with
            // n=16, 2 steps, 4 procs that is ~128 lock acquires.
            assert!(
                r.counters.lock_acquires > 40,
                "{proto:?}: expected per-molecule merge locking, got {}",
                r.counters.lock_acquires
            );
        }
    }
}
