//! Barnes — the Barnes-Hut hierarchical N-body application, in the two
//! versions the paper studies:
//!
//! * **Barnes-original** (SPLASH-2 structure): all processors insert their
//!   bodies into one shared octree concurrently, taking a **per-cell lock**
//!   around every examine/modify step of the descent. The tree-building
//!   phase is the paper's canonical example of fine-grained locking that
//!   cripples SVM ("the many critical sections in its tree-building phase
//!   each incur not one but several page faults", §4.4).
//! * **Barnes-Spatial** (restructured): space is pre-split into the eight
//!   top-level octants; each processor builds the subtrees of the octants
//!   assigned to it **without any locks**, at the price of load imbalance
//!   (the clustered body distribution concentrates work in a few octants)
//!   — the paper's "reducing locking … at perhaps some cost in load
//!   balance" (§4.2).
//!
//! Both variants then run the same center-of-mass and force-computation
//! phases (irregular fine-grained reads of tree cells) and integrate.
//! Verification compares the tree-computed accelerations of every body
//! against a direct O(n²) sum — the Barnes-Hut approximation must land
//! within the θ-controlled error bound — and checks that every body is in
//! the final tree exactly once.

use std::cell::RefCell;

use ssm_proto::{async_body, AsyncBody, Cpu, SharedVec, Workload, World};

use crate::common::{block_range, read_block, write_block, FLOP, INT_OP};

/// Opening criterion (cell used whole if `size/dist < THETA`).
const THETA: f64 = 0.5;
/// Gravitational softening.
const SOFT: f64 = 1e-4;
/// Integration step.
const DT: f64 = 0.03;

/// Child-slot encoding in the shared tree: empty, a cell, or a body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Empty,
    Cell(usize),
    Body(usize),
}

fn decode(v: i64) -> Slot {
    match v {
        0 => Slot::Empty,
        c if c > 0 => Slot::Cell((c - 1) as usize),
        b => Slot::Body((-b - 1) as usize),
    }
}

fn encode(s: Slot) -> i64 {
    match s {
        Slot::Empty => 0,
        Slot::Cell(c) => c as i64 + 1,
        Slot::Body(b) => -(b as i64) - 1,
    }
}

/// Deterministic clustered ("Plummer-like") body position.
fn body_pos(i: usize) -> [f64; 3] {
    let h = |k: usize| (((i * 3 + k).wrapping_mul(2654435761) >> 4) & 0xfffff) as f64 / 1048576.0;
    let u = h(0);
    let radius = 0.45 * u * u.sqrt(); // clustered toward the centre
    let theta = h(1) * std::f64::consts::PI;
    let phi = h(2) * 2.0 * std::f64::consts::PI;
    [
        (0.5 + radius * theta.sin() * phi.cos()).clamp(0.02, 0.98),
        (0.5 + radius * theta.sin() * phi.sin()).clamp(0.02, 0.98),
        (0.5 + radius * theta.cos()).clamp(0.02, 0.98),
    ]
}

/// Octant of `x` within a cell centred at `c`.
fn octant(x: &[f64], c: &[f64]) -> usize {
    (usize::from(x[0] >= c[0]) << 2) | (usize::from(x[1] >= c[1]) << 1) | usize::from(x[2] >= c[2])
}

/// Which tree-build strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarnesVariant {
    /// Shared concurrent build with per-cell locks.
    Original,
    /// Lock-free per-octant build (restructured).
    Spatial,
}

/// The Barnes-Hut workload: `n` bodies, `steps` timesteps.
#[derive(Debug)]
pub struct Barnes {
    n: usize,
    steps: usize,
    variant: BarnesVariant,
    state: RefCell<Option<Handles>>,
}

#[derive(Debug, Clone)]
struct Handles {
    pos: SharedVec<f64>,
    acc: SharedVec<f64>,
    child: SharedVec<i64>,
}

impl Barnes {
    /// Barnes-original.
    pub fn original(n: usize, steps: usize) -> Self {
        Barnes::new(n, steps, BarnesVariant::Original)
    }

    /// Barnes-Spatial (restructured).
    pub fn spatial(n: usize, steps: usize) -> Self {
        Barnes::new(n, steps, BarnesVariant::Spatial)
    }

    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` or `steps == 0`.
    pub fn new(n: usize, steps: usize, variant: BarnesVariant) -> Self {
        assert!(n >= 8 && steps > 0);
        Barnes {
            n,
            steps,
            variant,
            state: RefCell::new(None),
        }
    }

    /// Body count.
    pub fn bodies(&self) -> usize {
        self.n
    }

    /// Prints per-body force-error diagnostics (debugging aid).
    #[doc(hidden)]
    pub fn debug_errors(&self) {
        let guard = self.state.borrow();
        let h = guard.as_ref().expect("spawned");
        let n = self.n;
        let body_mass = 1.0 / n as f64;
        let mut rows: Vec<(f64, f64, usize)> = Vec::new();
        for i in 0..n {
            let x = [
                h.pos.get_direct(i * 3),
                h.pos.get_direct(i * 3 + 1),
                h.pos.get_direct(i * 3 + 2),
            ];
            let mut direct = [0.0f64; 3];
            for j in 0..n {
                if j == i {
                    continue;
                }
                let y = [
                    h.pos.get_direct(j * 3),
                    h.pos.get_direct(j * 3 + 1),
                    h.pos.get_direct(j * 3 + 2),
                ];
                add_grav(&mut direct, &x, &y, body_mass);
            }
            let got = [
                h.acc.get_direct(i * 3),
                h.acc.get_direct(i * 3 + 1),
                h.acc.get_direct(i * 3 + 2),
            ];
            let dn = (direct[0].powi(2) + direct[1].powi(2) + direct[2].powi(2)).sqrt();
            let en = ((got[0] - direct[0]).powi(2)
                + (got[1] - direct[1]).powi(2)
                + (got[2] - direct[2]).powi(2))
            .sqrt();
            rows.push((en / dn.max(1e-9), dn, i));
        }
        rows.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let mean_f: f64 = rows.iter().map(|r| r.1).sum::<f64>() / n as f64;
        println!("mean |direct| = {mean_f:.4}");
        for r in rows.iter().take(5) {
            println!("body {}: rel={:.4} |direct|={:.4}", r.2, r.0, r.1);
        }
    }

    /// Tree-cell capacity. Each processor allocates from its own `cap / np`
    /// slice, and Barnes-Spatial builds at most 8 top-level octants, so a
    /// slice must hold a whole octant's subtree. At 8 cells per body that
    /// stops holding at n = 32 with 16 processors; the floor of 4096 cells
    /// keeps small problems runnable up to 64 processors and leaves every
    /// n >= 512 as it was.
    fn cap(&self) -> usize {
        (8 * self.n).max(4096)
    }
}

/// All the shared-tree plumbing one thread needs.
struct Tree {
    child: SharedVec<i64>,
    center: SharedVec<f64>,
    half: SharedVec<f64>,
    com: SharedVec<f64>,
    cmass: SharedVec<f64>,
}

impl Tree {
    /// Creates a cell `nc` under (`parent_center`, `parent_half`) at
    /// `octant` (timed writes by `p`).
    async fn create_cell(
        &self,
        p: &Cpu,
        nc: usize,
        parent_center: &[f64; 3],
        parent_half: f64,
        oct: usize,
    ) -> ([f64; 3], f64) {
        let h = parent_half / 2.0;
        let c = [
            parent_center[0] + if oct & 4 != 0 { h } else { -h },
            parent_center[1] + if oct & 2 != 0 { h } else { -h },
            parent_center[2] + if oct & 1 != 0 { h } else { -h },
        ];
        write_block(p, &self.center, nc * 3, &c).await;
        self.half.touch_write(p, nc, 1).await;
        self.half.set_direct(nc, h);
        write_block(p, &self.child, nc * 8, &[0i64; 8]).await;
        p.compute(8 * INT_OP);
        (c, h)
    }

    async fn read_cell_geom(&self, p: &Cpu, cell: usize) -> ([f64; 3], f64) {
        let c = read_block(p, &self.center, cell * 3, 3).await;
        self.half.touch_read(p, cell, 1).await;
        let h = self.half.get_direct(cell);
        ([c[0], c[1], c[2]], h)
    }

    /// Inserts body `b` at `x` into the subtree rooted at `root`,
    /// allocating cells from `pool` (a `(next, end)` cursor). `lock_cells`
    /// selects the Barnes-original per-cell locking discipline.
    #[allow(clippy::too_many_arguments)]
    async fn insert(
        &self,
        p: &Cpu,
        pos: &SharedVec<f64>,
        locks: &[ssm_proto::LockId],
        b: usize,
        x: [f64; 3],
        root: usize,
        pool: &mut (usize, usize),
        lock_cells: bool,
    ) {
        let mut cur = root;
        loop {
            if lock_cells {
                p.lock(locks[cur]).await;
            }
            let (c, h) = self.read_cell_geom(p, cur).await;
            let oct = octant(&x, &c);
            p.compute(6 * INT_OP);
            self.child.touch_read(p, cur * 8 + oct, 1).await;
            match decode(self.child.get_direct(cur * 8 + oct)) {
                Slot::Empty => {
                    self.child.touch_write(p, cur * 8 + oct, 1).await;
                    self.child.set_direct(cur * 8 + oct, encode(Slot::Body(b)));
                    if lock_cells {
                        p.unlock(locks[cur]).await;
                    }
                    return;
                }
                Slot::Cell(next) => {
                    if lock_cells {
                        p.unlock(locks[cur]).await;
                    }
                    cur = next;
                }
                Slot::Body(b2) => {
                    // Split: create a child cell holding b2, publish it,
                    // then keep descending with b.
                    let nc = pool.0;
                    assert!(nc < pool.1, "cell pool exhausted");
                    pool.0 += 1;
                    let (ncenter, _nh) = self.create_cell(p, nc, &c, h, oct).await;
                    let b2pos = read_block(p, pos, b2 * 3, 3).await;
                    let o2 = octant(&b2pos, &ncenter);
                    self.child.touch_write(p, nc * 8 + o2, 1).await;
                    self.child.set_direct(nc * 8 + o2, encode(Slot::Body(b2)));
                    self.child.touch_write(p, cur * 8 + oct, 1).await;
                    self.child.set_direct(cur * 8 + oct, encode(Slot::Cell(nc)));
                    if lock_cells {
                        p.unlock(locks[cur]).await;
                    }
                    cur = nc;
                }
            }
        }
    }

    /// Post-order center-of-mass computation for the subtree at `cell`,
    /// depth first with an explicit stack of the cells being summed.
    /// Returns `(mass, weighted position)`.
    async fn compute_com(
        &self,
        p: &Cpu,
        pos: &SharedVec<f64>,
        body_mass: f64,
        cell: usize,
    ) -> (f64, [f64; 3]) {
        /// A cell whose children are being summed.
        struct Frame {
            cell: usize,
            kids: Vec<i64>,
            next: usize,
            mass: f64,
            w: [f64; 3],
        }
        let frame = async |cell: usize| Frame {
            cell,
            kids: read_block(p, &self.child, cell * 8, 8).await,
            next: 0,
            mass: 0.0,
            w: [0.0; 3],
        };
        let mut stack = vec![frame(cell).await];
        loop {
            let top = stack.last_mut().expect("the root frame is popped last");
            if let Some(&k) = top.kids.get(top.next) {
                top.next += 1;
                match decode(k) {
                    Slot::Empty => {}
                    Slot::Body(b) => {
                        let bp = read_block(p, pos, b * 3, 3).await;
                        top.mass += body_mass;
                        for (wc, x) in top.w.iter_mut().zip(&bp) {
                            *wc += body_mass * x;
                        }
                    }
                    Slot::Cell(sub) => {
                        // Its `8 * FLOP` is charged once the subtree is done.
                        stack.push(frame(sub).await);
                        continue;
                    }
                }
                p.compute(8 * FLOP);
                continue;
            }
            let Frame { cell, mass, w, .. } = stack.pop().expect("a frame is on top");
            let com = if mass > 0.0 {
                [w[0] / mass, w[1] / mass, w[2] / mass]
            } else {
                [0.0; 3]
            };
            write_block(p, &self.com, cell * 3, &com).await;
            self.cmass.touch_write(p, cell, 1).await;
            self.cmass.set_direct(cell, mass);
            let Some(parent) = stack.last_mut() else {
                return (mass, w);
            };
            parent.mass += mass;
            for (pw, x) in parent.w.iter_mut().zip(w) {
                *pw += x;
            }
            p.compute(8 * FLOP);
        }
    }

    /// Barnes-Hut force on the body at `x` (excluding itself), traversing
    /// from `root`. Returns the acceleration and the interaction count.
    async fn force_on(
        &self,
        p: &Cpu,
        pos: &SharedVec<f64>,
        body_mass: f64,
        me: usize,
        x: [f64; 3],
        root: usize,
    ) -> ([f64; 3], u64) {
        let mut acc = [0.0f64; 3];
        let mut interactions = 0u64;
        let mut stack = vec![Slot::Cell(root)];
        while let Some(node) = stack.pop() {
            match node {
                Slot::Empty => {}
                Slot::Body(b) => {
                    if b == me {
                        continue;
                    }
                    let bp = read_block(p, pos, b * 3, 3).await;
                    add_grav(&mut acc, &x, &[bp[0], bp[1], bp[2]], body_mass);
                    interactions += 1;
                }
                Slot::Cell(cell) => {
                    self.cmass.touch_read(p, cell, 1).await;
                    let m = self.cmass.get_direct(cell);
                    if m <= 0.0 {
                        continue;
                    }
                    let com = read_block(p, &self.com, cell * 3, 3).await;
                    self.half.touch_read(p, cell, 1).await;
                    let h = self.half.get_direct(cell);
                    let d = [com[0] - x[0], com[1] - x[1], com[2] - x[2]];
                    let dist2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + SOFT;
                    let size = 4.0 * h * h; // (2 * half)^2
                    if size < THETA * THETA * dist2 {
                        add_grav(&mut acc, &x, &[com[0], com[1], com[2]], m);
                        interactions += 1;
                    } else {
                        let kids = read_block(p, &self.child, cell * 8, 8).await;
                        for &k in &kids {
                            let s = decode(k);
                            if s != Slot::Empty {
                                stack.push(s);
                            }
                        }
                    }
                }
            }
        }
        (acc, interactions)
    }
}

/// Accumulates the softened gravitational pull of mass `m` at `src` on a
/// body at `x`.
fn add_grav(acc: &mut [f64; 3], x: &[f64; 3], src: &[f64; 3], m: f64) {
    let d = [src[0] - x[0], src[1] - x[1], src[2] - x[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + SOFT;
    let inv = m / (r2 * r2.sqrt());
    acc[0] += d[0] * inv;
    acc[1] += d[1] * inv;
    acc[2] += d[2] * inv;
}

impl Workload for Barnes {
    fn name(&self) -> String {
        match self.variant {
            BarnesVariant::Original => format!("Barnes-original(n={})", self.n),
            BarnesVariant::Spatial => format!("Barnes-Spatial(n={})", self.n),
        }
    }

    fn mem_bytes(&self) -> usize {
        let cap = self.cap();
        self.n * 3 * 8 * 3 + cap * (8 * 8 + 3 * 8 + 8 + 3 * 8 + 8) + (1 << 21)
    }

    #[allow(clippy::needless_range_loop)] // indexed loops mirror the SPLASH-2 kernels
    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        let n = self.n;
        let cap = self.cap();
        let pos = world.alloc_vec::<f64>(n * 3);
        let vel = world.alloc_vec::<f64>(n * 3);
        let acc = world.alloc_vec::<f64>(n * 3);
        let child = world.alloc_vec::<i64>(cap * 8);
        let center = world.alloc_vec::<f64>(cap * 3);
        let half = world.alloc_vec::<f64>(cap);
        let com = world.alloc_vec::<f64>(cap * 3);
        let cmass = world.alloc_vec::<f64>(cap);
        let cell_locks = world.alloc_locks(cap);
        let bar = world.alloc_barrier();
        for i in 0..n {
            let x = body_pos(i);
            for c in 0..3 {
                pos.set_direct(i * 3 + c, x[c]);
                vel.set_direct(i * 3 + c, 0.0);
            }
        }
        *self.state.borrow_mut() = Some(Handles {
            pos: pos.clone(),
            acc: acc.clone(),
            child: child.clone(),
        });
        let steps = self.steps;
        let variant = self.variant;
        let body_mass = 1.0 / n as f64;
        let bodies = (0..nprocs)
            .map(|pid| {
                let pos = pos.clone();
                let vel = vel.clone();
                let acc = acc.clone();
                let tree = Tree {
                    child: child.clone(),
                    center: center.clone(),
                    half: half.clone(),
                    com: com.clone(),
                    cmass: cmass.clone(),
                };
                let cell_locks = cell_locks.clone();
                async_body(move |p| async move {
                    let p = &p;
                    let np = p.nprocs();
                    let (b0, b1) = block_range(n, np, pid);
                    // Per-processor cell pool; the first 9 global slots
                    // (root + 8 top octant cells) come off P0's pool.
                    let pool_lo = pid * (cap / np) + if pid == 0 { 9 } else { 0 };
                    let pool_hi = (pid + 1) * (cap / np);
                    for step in 0..steps {
                        let mut pool = (pool_lo, pool_hi);
                        // --- Build phase ---
                        if pid == 0 {
                            // Reset the root (and, for the spatial variant,
                            // the eight top-level octant cells).
                            write_block(p, &tree.center, 0, &[0.5, 0.5, 0.5]).await;
                            tree.half.touch_write(p, 0, 1).await;
                            tree.half.set_direct(0, 0.5);
                            write_block(p, &tree.child, 0, &[0i64; 8]).await;
                            if variant == BarnesVariant::Spatial {
                                for o in 0..8usize {
                                    tree.create_cell(p, 1 + o, &[0.5, 0.5, 0.5], 0.5, o).await;
                                    tree.child.touch_write(p, o, 1).await;
                                    tree.child.set_direct(o, encode(Slot::Cell(1 + o)));
                                }
                            }
                        }
                        p.barrier(bar).await;
                        match variant {
                            BarnesVariant::Original => {
                                // Concurrent locked insertion of my bodies.
                                for b in b0..b1 {
                                    let bp = read_block(p, &pos, b * 3, 3).await;
                                    tree.insert(
                                        p,
                                        &pos,
                                        &cell_locks,
                                        b,
                                        [bp[0], bp[1], bp[2]],
                                        0,
                                        &mut pool,
                                        true,
                                    )
                                    .await;
                                }
                            }
                            BarnesVariant::Spatial => {
                                // Lock-free build of my octants: read every
                                // position coarsely, insert the bodies that
                                // fall in octants assigned to me.
                                let all = read_block(p, &pos, 0, n * 3).await;
                                p.compute(n as u64 * 2 * INT_OP);
                                for b in 0..n {
                                    let x = [all[b * 3], all[b * 3 + 1], all[b * 3 + 2]];
                                    let o = octant(&x, &[0.5, 0.5, 0.5]);
                                    if o % np == pid {
                                        tree.insert(
                                            p,
                                            &pos,
                                            &cell_locks,
                                            b,
                                            x,
                                            1 + o,
                                            &mut pool,
                                            false,
                                        )
                                        .await;
                                    }
                                }
                            }
                        }
                        p.barrier(bar).await;
                        // --- Center-of-mass phase: one top-level subtree
                        // per processor (round-robin). ---
                        for o in 0..8usize {
                            if o % np != pid {
                                continue;
                            }
                            tree.child.touch_read(p, o, 1).await;
                            if let Slot::Cell(c) = decode(tree.child.get_direct(o)) {
                                tree.compute_com(p, &pos, body_mass, c).await;
                            }
                        }
                        p.barrier(bar).await;
                        if pid == 0 {
                            // Root COM from its children.
                            let kids = read_block(p, &tree.child, 0, 8).await;
                            let mut mass = 0.0;
                            let mut w = [0.0f64; 3];
                            for &k in &kids {
                                match decode(k) {
                                    Slot::Empty => {}
                                    Slot::Body(b) => {
                                        let bp = read_block(p, &pos, b * 3, 3).await;
                                        mass += body_mass;
                                        for c in 0..3 {
                                            w[c] += body_mass * bp[c];
                                        }
                                    }
                                    Slot::Cell(sub) => {
                                        tree.cmass.touch_read(p, sub, 1).await;
                                        let m = tree.cmass.get_direct(sub);
                                        let sc = read_block(p, &tree.com, sub * 3, 3).await;
                                        mass += m;
                                        for c in 0..3 {
                                            w[c] += m * sc[c];
                                        }
                                    }
                                }
                                p.compute(8 * FLOP);
                            }
                            let root_com = if mass > 0.0 {
                                [w[0] / mass, w[1] / mass, w[2] / mass]
                            } else {
                                [0.0; 3]
                            };
                            write_block(p, &tree.com, 0, &root_com).await;
                            tree.cmass.touch_write(p, 0, 1).await;
                            tree.cmass.set_direct(0, mass);
                        }
                        p.barrier(bar).await;
                        // --- Force phase ---
                        for b in b0..b1 {
                            let bp = read_block(p, &pos, b * 3, 3).await;
                            let (a, inter) = tree
                                .force_on(p, &pos, body_mass, b, [bp[0], bp[1], bp[2]], 0)
                                .await;
                            p.compute(inter * 20 * FLOP);
                            write_block(p, &acc, b * 3, &a).await;
                        }
                        p.barrier(bar).await;
                        // --- Integration (skipped on the last step so the
                        // accelerations correspond to the final positions
                        // for verification) ---
                        if step + 1 < steps {
                            let f = read_block(p, &acc, b0 * 3, (b1 - b0) * 3).await;
                            let mut v = read_block(p, &vel, b0 * 3, (b1 - b0) * 3).await;
                            let mut x = read_block(p, &pos, b0 * 3, (b1 - b0) * 3).await;
                            for k in 0..(b1 - b0) * 3 {
                                v[k] += f[k] * DT;
                                x[k] = (x[k] + v[k] * DT).clamp(0.02, 0.98);
                            }
                            p.compute(((b1 - b0) * 3) as u64 * 4 * FLOP);
                            write_block(p, &vel, b0 * 3, &v).await;
                            write_block(p, &pos, b0 * 3, &x).await;
                        }
                        p.barrier(bar).await;
                    }
                })
            })
            .collect();
        Some(bodies)
    }

    fn verify(&self) -> Result<(), String> {
        let guard = self.state.borrow();
        let h = guard.as_ref().ok_or("spawn() was never called")?;
        let n = self.n;
        let body_mass = 1.0 / n as f64;
        // 1. Structural: every body appears in the final tree exactly once.
        let mut seen = vec![0u32; n];
        let mut stack = vec![0usize];
        while let Some(cell) = stack.pop() {
            for o in 0..8 {
                match decode(h.child.get_direct(cell * 8 + o)) {
                    Slot::Empty => {}
                    Slot::Body(b) => seen[b] += 1,
                    Slot::Cell(c) => stack.push(c),
                }
            }
        }
        if let Some(b) = seen.iter().position(|&c| c != 1) {
            return Err(format!("body {b} appears {} times in the tree", seen[b]));
        }
        // 2. Physics: tree accelerations track the direct O(n^2) sum.
        // Relative error is floored by a fraction of the mean force
        // magnitude: bodies whose net force nearly cancels otherwise make
        // the *relative* error meaningless.
        let mut errs: Vec<(f64, f64)> = Vec::with_capacity(n);
        for i in 0..n {
            let x = [
                h.pos.get_direct(i * 3),
                h.pos.get_direct(i * 3 + 1),
                h.pos.get_direct(i * 3 + 2),
            ];
            let mut direct = [0.0f64; 3];
            for j in 0..n {
                if j == i {
                    continue;
                }
                let y = [
                    h.pos.get_direct(j * 3),
                    h.pos.get_direct(j * 3 + 1),
                    h.pos.get_direct(j * 3 + 2),
                ];
                add_grav(&mut direct, &x, &y, body_mass);
            }
            let got = [
                h.acc.get_direct(i * 3),
                h.acc.get_direct(i * 3 + 1),
                h.acc.get_direct(i * 3 + 2),
            ];
            let dn = (direct[0] * direct[0] + direct[1] * direct[1] + direct[2] * direct[2]).sqrt();
            let en = ((got[0] - direct[0]).powi(2)
                + (got[1] - direct[1]).powi(2)
                + (got[2] - direct[2]).powi(2))
            .sqrt();
            errs.push((en, dn));
        }
        let mean_dn = errs.iter().map(|e| e.1).sum::<f64>() / n as f64;
        let worst = errs
            .iter()
            .map(|&(en, dn)| en / dn.max(0.5 * mean_dn))
            .fold(0.0f64, f64::max);
        if worst > 0.2 {
            return Err(format!(
                "Barnes-Hut force error too large: worst floored relative error {worst:.3}"
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
    fn slot_encoding_round_trips() {
        for s in [
            Slot::Empty,
            Slot::Cell(0),
            Slot::Cell(17),
            Slot::Body(0),
            Slot::Body(9),
        ] {
            assert_eq!(decode(encode(s)), s);
        }
    }

    #[test]
    fn octants_partition_space() {
        let c = [0.5, 0.5, 0.5];
        assert_eq!(octant(&[0.1, 0.1, 0.1], &c), 0);
        assert_eq!(octant(&[0.9, 0.9, 0.9], &c), 7);
        assert_eq!(octant(&[0.9, 0.1, 0.1], &c), 4);
    }

    #[test]
    fn bodies_are_distinct_and_clustered() {
        let ps: Vec<[f64; 3]> = (0..64).map(body_pos).collect();
        for i in 0..ps.len() {
            for j in i + 1..ps.len() {
                let d: f64 = (0..3).map(|c| (ps[i][c] - ps[j][c]).powi(2)).sum();
                assert!(d > 1e-12, "bodies {i} and {j} collide");
            }
        }
        // Clustered: most bodies within 0.3 of the centre.
        let near = ps
            .iter()
            .filter(|p| {
                let d: f64 = (0..3).map(|c| (p[c] - 0.5).powi(2)).sum();
                d.sqrt() < 0.3
            })
            .count();
        assert!(near * 2 > ps.len(), "only {near}/64 near the centre");
    }

    #[test]
    fn sequential_barnes_verifies() {
        for v in [BarnesVariant::Original, BarnesVariant::Spatial] {
            let w = Barnes::new(32, 1, v);
            let r = sequential_baseline(&w);
            assert!(r.verify_error.is_none(), "{v:?}: {:?}", r.verify_error);
        }
    }

    #[test]
    fn parallel_barnes_verifies() {
        for variant in [BarnesVariant::Original, BarnesVariant::Spatial] {
            for proto in [Protocol::Hlrc, Protocol::Sc] {
                let w = Barnes::new(32, 2, variant);
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
    fn spatial_variant_locks_less() {
        let orig = Barnes::original(64, 1);
        let ro = SimBuilder::new(Protocol::Hlrc).procs(4).run(&orig);
        let sp = Barnes::spatial(64, 1);
        let rs = SimBuilder::new(Protocol::Hlrc).procs(4).run(&sp);
        assert!(ro.verify_error.is_none() && rs.verify_error.is_none());
        assert!(
            rs.counters.lock_acquires * 4 < ro.counters.lock_acquires,
            "spatial {} vs original {}",
            rs.counters.lock_acquires,
            ro.counters.lock_acquires
        );
    }
}
