//! Raytrace — a ray tracer with the SPLASH-2 Raytrace sharing structure:
//! a read-mostly scene accessed *irregularly and at fine grain* through a
//! uniform-grid acceleration structure, distributed task queues with
//! stealing, and per-pixel image writes.
//!
//! The paper's car scene is proprietary input; the substitute is a
//! procedurally generated field of spheres (DESIGN.md §3). What matters
//! for the study is preserved: rays walk the spatial grid cell by cell
//! (many small dependent reads — Raytrace has "a very large number of
//! fine-grained messages due to irregular access", §4.3), intersect a
//! data-dependent subset of spheres, and write one word per pixel.
//!
//! Rendering is deterministic, so `verify` compares the image word for
//! word against a sequential in-memory reference.

use std::cell::RefCell;

use ssm_proto::{async_body, AsyncBody, SharedVec, Workload, World};

use crate::common::{ready, FLOP, INT_OP};
use crate::taskq::TaskQueues;

/// Grid resolution per axis of the acceleration structure.
const GRID: usize = 4;
/// Pixel tile edge for the task decomposition.
const TILE: usize = 4;
/// Light direction (normalized below).
const LIGHT: [f64; 3] = [0.4, 0.7, -0.6];

/// A sphere of the procedural scene.
#[derive(Debug, Clone, Copy)]
struct Sphere {
    c: [f64; 3],
    r: f64,
    shade: f64,
}

/// Deterministic procedural scene: `ns` spheres jittered over the box.
fn make_scene(ns: usize) -> Vec<Sphere> {
    (0..ns)
        .map(|i| {
            let h = |k: usize| ((i * 5 + k).wrapping_mul(2654435761) & 0xffff) as f64 / 65536.0;
            Sphere {
                c: [h(0), h(1), 0.2 + 0.6 * h(2)],
                r: 0.04 + 0.08 * h(3),
                shade: 0.3 + 0.7 * h(4),
            }
        })
        .collect()
}

fn normalize(v: [f64; 3]) -> [f64; 3] {
    let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    [v[0] / n, v[1] / n, v[2] / n]
}

/// Ray-sphere intersection: distance along the ray, if any.
fn hit_sphere(o: [f64; 3], d: [f64; 3], s: &Sphere) -> Option<f64> {
    let oc = [o[0] - s.c[0], o[1] - s.c[1], o[2] - s.c[2]];
    let b = oc[0] * d[0] + oc[1] * d[1] + oc[2] * d[2];
    let c = oc[0] * oc[0] + oc[1] * oc[1] + oc[2] * oc[2] - s.r * s.r;
    let disc = b * b - c;
    if disc < 0.0 {
        return None;
    }
    let t = -b - disc.sqrt();
    if t > 1e-9 {
        Some(t)
    } else {
        None
    }
}

/// Grid cell of a point (clamped).
fn cell_of(x: [f64; 3]) -> (usize, usize, usize) {
    let c = |v: f64| ((v * GRID as f64) as isize).clamp(0, GRID as isize - 1) as usize;
    (c(x[0]), c(x[1]), c(x[2]))
}

fn cell_index(c: (usize, usize, usize)) -> usize {
    (c.0 * GRID + c.1) * GRID + c.2
}

/// Builds the uniform grid: cell -> sphere-index list (CSR form).
fn build_grid(scene: &[Sphere]) -> (Vec<u32>, Vec<u32>) {
    let ncells = GRID * GRID * GRID;
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); ncells];
    for (si, s) in scene.iter().enumerate() {
        let lo = cell_of([s.c[0] - s.r, s.c[1] - s.r, s.c[2] - s.r]);
        let hi = cell_of([s.c[0] + s.r, s.c[1] + s.r, s.c[2] + s.r]);
        for x in lo.0..=hi.0 {
            for y in lo.1..=hi.1 {
                for z in lo.2..=hi.2 {
                    lists[cell_index((x, y, z))].push(si as u32);
                }
            }
        }
    }
    let mut starts = Vec::with_capacity(ncells + 1);
    let mut items = Vec::new();
    starts.push(0u32);
    for l in &lists {
        items.extend_from_slice(l);
        starts.push(items.len() as u32);
    }
    (starts, items)
}

/// The pure shading function used by both the simulated render and the
/// reference: traces the pixel ray through the grid (via the provided
/// *accessors*, which either charge simulated time or read directly).
async fn trace_pixel<FStart, FItem, FSphere>(
    px: usize,
    py: usize,
    res: usize,
    scene_len: usize,
    get_start: &mut FStart,
    get_item: &mut FItem,
    get_sphere: &mut FSphere,
) -> u32
where
    FStart: AsyncFnMut(usize) -> u32,
    FItem: AsyncFnMut(usize) -> u32,
    FSphere: AsyncFnMut(usize) -> Sphere,
{
    let _ = scene_len;
    let o = [
        (px as f64 + 0.5) / res as f64,
        (py as f64 + 0.5) / res as f64,
        -1.0,
    ];
    let d = [0.0, 0.0, 1.0];
    // Walk the grid slabs along +z through the (x, y) column.
    let (cx, cy, _) = cell_of([o[0], o[1], 0.0]);
    let mut best: Option<(f64, Sphere)> = None;
    for cz in 0..GRID {
        let ci = cell_index((cx, cy, cz));
        let s0 = get_start(ci).await as usize;
        let s1 = get_start(ci + 1).await as usize;
        for k in s0..s1 {
            let si = get_item(k).await as usize;
            let s = get_sphere(si).await;
            if let Some(t) = hit_sphere(o, d, &s) {
                if best.map(|(bt, _)| t < bt).unwrap_or(true) {
                    best = Some((t, s));
                }
            }
        }
        if let Some((t, _)) = best {
            // Early exit once the hit is before the next slab.
            let slab_z = (cz + 1) as f64 / GRID as f64;
            if o[2] + t * d[2] < slab_z {
                break;
            }
        }
    }
    let Some((t, s)) = best else {
        // Background gradient.
        return (16 + (px * 11 + py * 7) % 32) as u32;
    };
    let hit = [o[0] + t * d[0], o[1] + t * d[1], o[2] + t * d[2]];
    let n = normalize([hit[0] - s.c[0], hit[1] - s.c[1], hit[2] - s.c[2]]);
    let l = normalize(LIGHT);
    let mut lambert = n[0] * l[0] + n[1] * l[1] + n[2] * l[2];
    if lambert < 0.0 {
        lambert = 0.0;
    }
    // Shadow ray through the grid toward the light.
    let so = [
        hit[0] + n[0] * 1e-6,
        hit[1] + n[1] * 1e-6,
        hit[2] + n[2] * 1e-6,
    ];
    let mut shadow = false;
    'outer: for step in 1..=GRID {
        let pos = [
            so[0] + l[0] * step as f64 / GRID as f64,
            so[1] + l[1] * step as f64 / GRID as f64,
            so[2] + l[2] * step as f64 / GRID as f64,
        ];
        if pos.iter().any(|&v| !(0.0..1.0).contains(&v)) {
            break;
        }
        let ci = cell_index(cell_of(pos));
        let s0 = get_start(ci).await as usize;
        let s1 = get_start(ci + 1).await as usize;
        for k in s0..s1 {
            let si = get_item(k).await as usize;
            let sp = get_sphere(si).await;
            if hit_sphere(so, l, &sp).is_some() {
                shadow = true;
                break 'outer;
            }
        }
    }
    let shade = s.shade * lambert * if shadow { 0.35 } else { 1.0 } + 0.05;
    (shade.clamp(0.0, 1.0) * 255.0) as u32
}

/// The Raytrace workload: a `res x res` image over `ns` spheres.
#[derive(Debug)]
pub struct Raytrace {
    res: usize,
    ns: usize,
    image: RefCell<Option<SharedVec<u32>>>,
}

impl Raytrace {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics unless `res` is a positive multiple of the tile edge (4).
    pub fn new(res: usize, ns: usize) -> Self {
        assert!(
            res > 0 && res.is_multiple_of(TILE),
            "resolution must be a multiple of 4"
        );
        assert!(ns > 0);
        Raytrace {
            res,
            ns,
            image: RefCell::new(None),
        }
    }

    /// Image resolution.
    pub fn resolution(&self) -> usize {
        self.res
    }

    /// Sequential reference image.
    fn reference(&self) -> Vec<u32> {
        let scene = make_scene(self.ns);
        let (starts, items) = build_grid(&scene);
        let mut img = vec![0u32; self.res * self.res];
        for py in 0..self.res {
            for px in 0..self.res {
                img[py * self.res + px] = ready(trace_pixel(
                    px,
                    py,
                    self.res,
                    scene.len(),
                    &mut async |i| starts[i],
                    &mut async |i| items[i],
                    &mut async |i| scene[i],
                ));
            }
        }
        img
    }
}

impl Workload for Raytrace {
    fn name(&self) -> String {
        format!("Raytrace(res={},ns={})", self.res, self.ns)
    }

    fn mem_bytes(&self) -> usize {
        self.res * self.res * 4 + self.ns * 64 + (GRID * GRID * GRID + 1) * 40 + (1 << 21)
    }

    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        let scene = make_scene(self.ns);
        let (starts, items) = build_grid(&scene);
        // Shared scene arrays (read-only during the run).
        let v_starts = world.alloc_vec::<u32>(starts.len());
        let v_items = world.alloc_vec::<u32>(items.len().max(1));
        let v_sph = world.alloc_vec::<f64>(self.ns * 5);
        for (i, &s) in starts.iter().enumerate() {
            v_starts.set_direct(i, s);
        }
        for (i, &s) in items.iter().enumerate() {
            v_items.set_direct(i, s);
        }
        for (i, s) in scene.iter().enumerate() {
            v_sph.set_direct(i * 5, s.c[0]);
            v_sph.set_direct(i * 5 + 1, s.c[1]);
            v_sph.set_direct(i * 5 + 2, s.c[2]);
            v_sph.set_direct(i * 5 + 3, s.r);
            v_sph.set_direct(i * 5 + 4, s.shade);
        }
        let image = world.alloc_vec::<u32>(self.res * self.res);
        let tiles = (self.res / TILE) * (self.res / TILE);
        let q = TaskQueues::alloc(world, nprocs, tiles);
        // Static initial assignment: contiguous tile ranges.
        for t in 0..tiles {
            q.seed(t * nprocs / tiles, t as u32);
        }
        *self.image.borrow_mut() = Some(image.clone());
        let res = self.res;
        let ns = self.ns;
        let bodies = (0..nprocs)
            .map(|_| {
                let v_starts = v_starts.clone();
                let v_items = v_items.clone();
                let v_sph = v_sph.clone();
                let image = image.clone();
                let q = q.clone();
                async_body(move |p| async move {
                    let p = &p;
                    let tiles_per_row = res / TILE;
                    while let Some((tile, _stolen)) = q.pop(p).await {
                        let tx = (tile as usize % tiles_per_row) * TILE;
                        let ty = (tile as usize / tiles_per_row) * TILE;
                        for py in ty..ty + TILE {
                            for px in tx..tx + TILE {
                                let v = trace_pixel(
                                    px,
                                    py,
                                    res,
                                    ns,
                                    &mut async |i| {
                                        let s = v_starts.read(p, i).await;
                                        p.compute(2 * INT_OP);
                                        s
                                    },
                                    &mut async |i| {
                                        let s = v_items.read(p, i).await;
                                        p.compute(INT_OP);
                                        s
                                    },
                                    &mut async |i| {
                                        let f = v_sph.read_range(p, i * 5, 5).await;
                                        p.compute(15 * FLOP);
                                        Sphere {
                                            c: [f[0], f[1], f[2]],
                                            r: f[3],
                                            shade: f[4],
                                        }
                                    },
                                )
                                .await;
                                p.compute(30 * FLOP);
                                image.write(p, py * res + px, v).await;
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
                    i % self.res,
                    i / self.res
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
    fn reference_image_is_nontrivial() {
        let w = Raytrace::new(16, 24);
        let img = w.reference();
        let distinct: std::collections::HashSet<u32> = img.iter().copied().collect();
        assert!(distinct.len() > 8, "flat image: {} shades", distinct.len());
        // Some pixels hit spheres (bright), some are background.
        assert!(img.iter().any(|&v| v > 60));
        assert!(img.iter().any(|&v| v < 50));
    }

    #[test]
    fn sequential_render_verifies() {
        let w = Raytrace::new(16, 24);
        let r = sequential_baseline(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
    }

    #[test]
    fn parallel_render_verifies_with_stealing() {
        for proto in [Protocol::Hlrc, Protocol::Sc] {
            let w = Raytrace::new(16, 24);
            let r = SimBuilder::new(proto).procs(4).run(&w);
            assert!(r.verify_error.is_none(), "{proto:?}: {:?}", r.verify_error);
            assert!(r.counters.lock_acquires >= 16, "queue traffic expected");
        }
    }

    #[test]
    fn sphere_intersection_sanity() {
        let s = Sphere {
            c: [0.5, 0.5, 0.5],
            r: 0.25,
            shade: 1.0,
        };
        let t = hit_sphere([0.5, 0.5, -1.0], [0.0, 0.0, 1.0], &s).expect("hit");
        assert!((t - 1.25).abs() < 1e-12);
        assert!(hit_sphere([0.0, 0.0, -1.0], [0.0, 0.0, 1.0], &s).is_none());
    }
}
