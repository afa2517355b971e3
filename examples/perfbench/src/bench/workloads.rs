//! The benchmark's workloads: which cells each one runs, on how many
//! executor workers, and why it exists.
//!
//! Every workload is a closed loop: each of its `jobs` executor workers
//! takes the next cell only when its current cell finishes, and inside a
//! cell only the baton holder runs, so at most `jobs` threads are runnable.
//!
//! Cells are submitted in enumeration order (application-major, as the
//! figure binaries submit theirs), whatever the seed: peak RSS depends on
//! the order, by up to 60% across shuffles of `fig3`, because it decides
//! which cells overlap on two workers and which pooled thread keeps which
//! allocator arena. The seed picks the fault schedule of `chaos`.

use ssm_apps::catalog::Scale;
use ssm_core::{FaultSpec, LayerConfig, Protocol};
use ssm_sweep::Cell;

/// Simulated processors per cell: the paper's scale.
pub const PROCS: usize = 16;

/// Per-class fault rate of the `chaos` cells, parts per million.
const CHAOS_PPM: u32 = 10_000;

/// The seed `golden.txt` was recorded at.
pub const GOLDEN_SEED: u64 = 42;

/// One benchmark workload.
#[derive(Debug)]
pub struct BenchWorkload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Sweep executor workers (cells in flight at once).
    pub jobs: usize,
    /// Why the workload exists: the layers it stresses.
    pub why: &'static str,
    apps: &'static [&'static str],
    protocols: &'static [Protocol],
    fault_ppm: u32,
}

const FIG3_APPS: &[&str] = &[
    "FFT",
    "LU-Contiguous",
    "Ocean-Contiguous",
    "Ocean-rowwise",
    "Radix",
    "Radix-Local",
    "Barnes-original",
    "Barnes-Spatial",
    "Raytrace",
    "Volrend",
    "Volrend-rest",
    "Water-Nsquared",
    "Water-Spatial",
];

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [BenchWorkload; 4] = [
    BenchWorkload {
        name: "fig3",
        jobs: 2,
        why: "figure3's base column (13 apps x HLRC/SC at AO) on 2 workers: every layer plus the parallel executor; FFT is 35% of host time",
        apps: FIG3_APPS,
        protocols: &[Protocol::Hlrc, Protocol::Sc],
        fault_ppm: 0,
    },
    BenchWorkload {
        name: "bulk",
        jobs: 1,
        why: "few large operations over big shared arrays: app threads, the memory model, page and diff work, and setup dominate",
        apps: &[
            "FFT",
            "LU-Contiguous",
            "Ocean-Contiguous",
            "Ocean-rowwise",
            "Volrend",
        ],
        protocols: &[Protocol::Ideal, Protocol::Hlrc, Protocol::Sc, Protocol::Rdma],
        fault_ppm: 0,
    },
    BenchWorkload {
        name: "finegrain",
        jobs: 1,
        why: "many small operations and frequent sync: the driver loop, baton handoffs and per-op protocol dispatch dominate",
        apps: &["Radix", "Barnes-original", "Water-Nsquared", "Raytrace"],
        protocols: &[Protocol::Ideal, Protocol::Hlrc, Protocol::Sc, Protocol::Rdma],
        fault_ppm: 0,
    },
    BenchWorkload {
        name: "chaos",
        jobs: 1,
        why: "1% faults per class: the reliability sublayer's retransmits and duplicate suppression, which fault-free cells bypass",
        apps: &[
            "Water-Nsquared",
            "Barnes-original",
            "Radix",
            "Ocean-Contiguous",
            "LU-Contiguous",
        ],
        protocols: &[Protocol::Hlrc, Protocol::Sc, Protocol::Rdma],
        fault_ppm: CHAOS_PPM,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static BenchWorkload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl BenchWorkload {
    /// The workload's cells at `scale` on `procs` processors, in
    /// submission order; `seed` is the fault-schedule seed of faulty cells.
    pub fn cells(&self, seed: u64, scale: Scale, procs: usize) -> Vec<Cell> {
        let cfg = LayerConfig::base().with_faults(FaultSpec::at(self.fault_ppm, seed));
        self.apps
            .iter()
            .flat_map(|app| {
                self.protocols
                    .iter()
                    .map(move |&p| Cell::new(app, p, cfg, procs, scale))
            })
            .collect()
    }
}
