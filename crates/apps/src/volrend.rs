//! Volrend — volume rendering by ray casting, with the SPLASH-2 Volrend
//! execution structure: tiles of image pixels as tasks, distributed task
//! queues with stealing, early ray termination (the source of load
//! imbalance), and per-pixel image writes whose page-level false sharing
//! the paper calls out.
//!
//! The paper's CT-head input is replaced by a procedural shell-structured
//! density volume (DESIGN.md §3): rays through the dense core terminate
//! early while background rays traverse the full depth, reproducing the
//! imbalance that makes task stealing matter.
//!
//! Two variants:
//!
//! * **Original**: contiguous initial tile assignment (heavy stealing once
//!   the dense-region processors fall behind) and word-granularity pixel
//!   writes.
//! * **Restructured**: interleaved initial assignment ("improving the
//!   initial assignments of tasks so there is less need for task
//!   stealing", §4.2) and row-buffered coarse image writes (reducing
//!   false sharing and fragmentation in the image at page granularity).

use std::cell::RefCell;

use ssm_proto::{async_body, AsyncBody, SharedVec, Workload, World};

use crate::common::{ready, write_block, FLOP, INT_OP};
use crate::taskq::TaskQueues;

/// Tile edge in pixels.
const TILE: usize = 4;
/// Early-termination opacity threshold.
const TERM: f64 = 0.95;

/// Procedural density at voxel (x, y, z) of a `v`-sided volume: nested
/// shells around the centre plus a dense core.
fn density(v: usize, x: usize, y: usize, z: usize) -> f32 {
    let c = (v as f64 - 1.0) / 2.0;
    let dx = (x as f64 - c) / c;
    let dy = (y as f64 - c) / c;
    let dz = (z as f64 - c) / c;
    let r = (dx * dx + dy * dy + dz * dz).sqrt();
    if r < 0.25 {
        return 0.9; // dense core: rays terminate quickly
    }
    let shell = (10.0 * r).sin().max(0.0) * (-1.5 * r).exp();
    if shell > 0.2 {
        shell as f32
    } else {
        0.0
    }
}

/// Fills `volume`, laid out `(z * v + y) * v + x`, with [`density`]. The
/// field is symmetric under each reflection `x -> v - 1 - x` (and likewise
/// in y and z), and bit-exactly so: `x - c` and `(v - 1 - x) - c` are
/// half-integers, so their quotients by `c` are exact negations and `r`
/// is the same `f64`. So `density` runs on one octant only, and each
/// plane is mirrored from its first quadrant and written with one copy.
fn fill_volume(volume: &SharedVec<f32>, v: usize) {
    let h = v.div_ceil(2);
    let mut plane = vec![0f32; v * v];
    for z in 0..h {
        for y in 0..h {
            for x in 0..h {
                let rho = density(v, x, y, z);
                let (mx, my) = (v - 1 - x, v - 1 - y);
                plane[y * v + x] = rho;
                plane[y * v + mx] = rho;
                plane[my * v + x] = rho;
                plane[my * v + mx] = rho;
            }
        }
        volume.write_range_direct(z * v * v, &plane);
        volume.write_range_direct((v - 1 - z) * v * v, &plane);
    }
}

/// Predicted ray steps of each `TILE x TILE` tile, in tile order, with
/// the volume read through `sample`.
fn tile_work<F>(v: usize, sample: &mut F) -> Vec<u64>
where
    F: FnMut(usize, usize, usize) -> f32,
{
    let tiles_per_row = v / TILE;
    (0..tiles_per_row * tiles_per_row)
        .map(|t| {
            let tx = (t % tiles_per_row) * TILE;
            let ty = (t / tiles_per_row) * TILE;
            let mut w = 0u64;
            for py in ty..ty + TILE {
                for px in tx..tx + TILE {
                    w += ready(cast_ray(v, px, py, &mut async |x, y, z| sample(x, y, z))).1 as u64;
                }
            }
            w
        })
        .collect()
}

/// Composites one ray through the volume via `sample`; returns the pixel
/// value and the number of voxels actually read (early termination).
async fn cast_ray<F>(v: usize, px: usize, py: usize, sample: &mut F) -> (u32, usize)
where
    F: AsyncFnMut(usize, usize, usize) -> f32,
{
    let mut opacity = 0.0f64;
    let mut color = 0.0f64;
    let mut steps = 0;
    for z in 0..v {
        let rho = sample(px, py, z).await as f64;
        steps += 1;
        if rho > 0.0 {
            let alpha = (rho * 0.75).min(1.0);
            let shade = 0.3 + 0.7 * rho;
            color += (1.0 - opacity) * alpha * shade;
            opacity += (1.0 - opacity) * alpha;
            if opacity > TERM {
                break;
            }
        }
    }
    (((color.clamp(0.0, 1.0)) * 255.0) as u32, steps)
}

/// Which task-assignment/write strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VolrendVariant {
    /// Contiguous initial assignment, per-pixel writes.
    Original,
    /// Interleaved assignment, row-buffered coarse writes.
    Restructured,
}

/// The Volrend workload: a `v^3` volume rendered to a `v x v` image.
#[derive(Debug)]
pub struct Volrend {
    v: usize,
    variant: VolrendVariant,
    image: RefCell<Option<SharedVec<u32>>>,
}

impl Volrend {
    /// Original Volrend over a `v^3` volume.
    pub fn original(v: usize) -> Self {
        Volrend::new(v, VolrendVariant::Original)
    }

    /// Restructured Volrend.
    pub fn restructured(v: usize) -> Self {
        Volrend::new(v, VolrendVariant::Restructured)
    }

    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics unless `v` is a positive multiple of the tile edge (4).
    pub fn new(v: usize, variant: VolrendVariant) -> Self {
        assert!(
            v > 0 && v.is_multiple_of(TILE),
            "volume side must be a multiple of 4"
        );
        Volrend {
            v,
            variant,
            image: RefCell::new(None),
        }
    }

    /// Volume side length.
    pub fn side(&self) -> usize {
        self.v
    }

    /// Sequential reference image.
    fn reference(&self) -> Vec<u32> {
        let v = self.v;
        let mut img = vec![0u32; v * v];
        for py in 0..v {
            for px in 0..v {
                let (val, _) = ready(cast_ray(v, px, py, &mut async |x, y, z| {
                    density(v, x, y, z)
                }));
                img[py * v + px] = val;
            }
        }
        img
    }
}

impl Workload for Volrend {
    fn name(&self) -> String {
        match self.variant {
            VolrendVariant::Original => format!("Volrend(v={})", self.v),
            VolrendVariant::Restructured => format!("Volrend-rest(v={})", self.v),
        }
    }

    fn mem_bytes(&self) -> usize {
        self.v * self.v * self.v * 4 + self.v * self.v * 4 + (1 << 21)
    }

    #[allow(clippy::needless_range_loop)] // indexed loops mirror the SPLASH-2 kernels
    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        let v = self.v;
        let volume = world.alloc_vec::<f32>(v * v * v);
        fill_volume(&volume, v);
        let image = world.alloc_vec::<u32>(v * v);
        let tiles = (v / TILE) * (v / TILE);
        let q = TaskQueues::alloc(world, nprocs, tiles);
        match self.variant {
            VolrendVariant::Original => {
                // Contiguous ranges: the processors owning the dense centre
                // run long; everyone else steals from them.
                for t in 0..tiles {
                    q.seed(t * nprocs / tiles, t as u32);
                }
            }
            VolrendVariant::Restructured => {
                // Work-predicted contiguous bands (the real Volrend
                // restructuring uses the previous frame / a precomputed
                // octree to balance the initial assignment): estimate each
                // tile's ray steps (untimed preprocessing), then cut the
                // tile sequence into contiguous, equal-work bands. This
                // both removes most stealing and keeps each processor's
                // image writes contiguous (less page-level false sharing).
                let work = tile_work(v, &mut |x, y, z| volume.get_direct((z * v + y) * v + x));
                let total: u64 = work.iter().sum();
                let mut pid = 0usize;
                let mut acc = 0u64;
                for t in 0..tiles {
                    q.seed(pid.min(nprocs - 1), t as u32);
                    acc += work[t];
                    while pid + 1 < nprocs && acc * nprocs as u64 > total * (pid as u64 + 1) {
                        pid += 1;
                    }
                }
            }
        }
        *self.image.borrow_mut() = Some(image.clone());
        let variant = self.variant;
        let bodies = (0..nprocs)
            .map(|_| {
                let volume = volume.clone();
                let image = image.clone();
                let q = q.clone();
                async_body(move |p| async move {
                    let p = &p;
                    let tiles_per_row = v / TILE;
                    while let Some((tile, _stolen)) = q.pop(p).await {
                        let tx = (tile as usize % tiles_per_row) * TILE;
                        let ty = (tile as usize / tiles_per_row) * TILE;
                        for py in ty..ty + TILE {
                            let mut row = [0u32; TILE];
                            for (i, px) in (tx..tx + TILE).enumerate() {
                                let (val, steps) = cast_ray(v, px, py, &mut async |x, y, z| {
                                    let idx = (z * v + y) * v + x;
                                    volume.touch_read(p, idx, 1).await;
                                    volume.get_direct(idx)
                                })
                                .await;
                                p.compute(steps as u64 * (6 * FLOP + 2 * INT_OP));
                                row[i] = val;
                            }
                            match variant {
                                VolrendVariant::Original => {
                                    for (i, &val) in row.iter().enumerate() {
                                        image.write(p, py * v + tx + i, val).await;
                                    }
                                }
                                VolrendVariant::Restructured => {
                                    write_block(p, &image, py * v + tx, &row).await;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        Some(bodies)
    }

    fn verify(&self) -> Result<(), String> {
        let guard = self.image.borrow();
        let image = guard.as_ref().ok_or("spawn() was never called")?;
        let want = self.reference();
        for (i, &w) in want.iter().enumerate() {
            let got = image.get_direct(i);
            if got != w {
                return Err(format!(
                    "pixel ({},{}) = {got}, want {w}",
                    i % self.v,
                    i / self.v
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
    fn volume_has_structure_and_early_termination() {
        let v = 16;
        let mut sample = async |x, y, z| density(v, x, y, z);
        let centre = ready(cast_ray(v, v / 2, v / 2, &mut sample));
        let corner = ready(cast_ray(v, 0, 0, &mut sample));
        assert!(centre.0 > corner.0, "centre brighter than corner");
        assert!(
            centre.1 < v,
            "centre ray should terminate early ({} steps)",
            centre.1
        );
        assert_eq!(corner.1, v, "corner ray traverses full depth");
    }

    #[test]
    fn mirrored_fill_equals_density_everywhere() {
        for v in [8, 9, 64] {
            let mut world = World::new(v * v * v * 4);
            let volume = world.alloc_vec::<f32>(v * v * v);
            fill_volume(&volume, v);
            for z in 0..v {
                for y in 0..v {
                    for x in 0..v {
                        let got = volume.get_direct((z * v + y) * v + x);
                        let want = density(v, x, y, z);
                        assert_eq!(got.to_bits(), want.to_bits(), "v {v} at ({x},{y},{z})");
                    }
                }
            }
        }
    }

    #[test]
    fn tile_work_from_the_volume_equals_density() {
        for v in [16, 64] {
            let mut world = World::new(v * v * v * 4);
            let volume = world.alloc_vec::<f32>(v * v * v);
            fill_volume(&volume, v);
            let from_volume = tile_work(v, &mut |x, y, z| volume.get_direct((z * v + y) * v + x));
            let direct = tile_work(v, &mut |x, y, z| density(v, x, y, z));
            assert_eq!(from_volume, direct, "v {v}");
            assert!(from_volume.iter().any(|&w| w < (TILE * TILE * v) as u64));
        }
    }

    #[test]
    fn sequential_volrend_verifies() {
        for v in [VolrendVariant::Original, VolrendVariant::Restructured] {
            let w = Volrend::new(16, v);
            let r = sequential_baseline(&w);
            assert!(r.verify_error.is_none(), "{v:?}: {:?}", r.verify_error);
        }
    }

    #[test]
    fn parallel_volrend_verifies() {
        for variant in [VolrendVariant::Original, VolrendVariant::Restructured] {
            for proto in [Protocol::Hlrc, Protocol::Sc] {
                let w = Volrend::new(16, variant);
                let r = SimBuilder::new(proto).procs(4).run(&w);
                assert!(
                    r.verify_error.is_none(),
                    "{variant:?}/{proto:?}: {:?}",
                    r.verify_error
                );
            }
        }
    }

    #[test]
    fn restructured_needs_fewer_lock_acquires() {
        // Interleaved assignment balances work, so fewer steal attempts.
        let orig = Volrend::original(32);
        let ro = SimBuilder::new(Protocol::Hlrc).procs(4).run(&orig);
        let rest = Volrend::restructured(32);
        let rr = SimBuilder::new(Protocol::Hlrc).procs(4).run(&rest);
        assert!(
            rr.counters.lock_acquires <= ro.counters.lock_acquires,
            "restructured {} vs original {}",
            rr.counters.lock_acquires,
            ro.counters.lock_acquires
        );
    }
}
