//! RDMA grid: the one-sided RDMA / disaggregated-memory protocol swept
//! through the full paper grid, next to the HLRC and SC columns of
//! Figure 3, plus Figure-4-style execution-time breakdowns and a
//! per-application *limiting layer* analysis (which layer bounds RDMA's
//! speedup at the achievable point).
//!
//! ```text
//! cargo run --release -p ssm-bench --bin rdmagrid > results/rdma.txt
//! ```
//!
//! Shares the sweep cache with every other binary: HLRC/SC columns are
//! cache hits after `figure3`, and the RDMA cells this adds are reused by
//! later sweeps. Pre-existing cell hashes are untouched — the RDMA
//! variant only extends the hash space.

use ssm_bench::{fmt_speedup_opt, report_failures};
use ssm_core::{LayerConfig, Protocol};
use ssm_stats::{Bucket, Table};
use ssm_sweep::prelude::*;

/// The layer grid each protocol sweeps. RDMA is swept over both comm and
/// protocol costs like HLRC (its handoff machinery has a protocol-layer
/// component); SC runs at original protocol costs only, per the paper.
fn grids() -> (Vec<LayerConfig>, Vec<LayerConfig>) {
    let hlrc_like = LayerConfig::figure3(); // B+B BB AB BO AO WO
    let sc: Vec<LayerConfig> = ["B+O", "BO", "HO", "AO", "WO"]
        .into_iter()
        .map(|l| LayerConfig::parse(l).expect("known labels"))
        .collect();
    (hlrc_like, sc)
}

/// The bucket → layer attribution of the paper's layered model: where the
/// time goes decides which layer bounds the achieved speedup.
fn layer_of(b: Bucket) -> &'static str {
    match b {
        Bucket::Busy | Bucket::CacheStall => "application",
        Bucket::DataWait => "communication",
        Bucket::LockWait | Bucket::BarrierWait => "synchronization",
        Bucket::Protocol => "protocol",
    }
}

fn main() {
    let cli = SweepCli::parse();
    let (rdma_cfgs, sc_cfgs) = grids();
    let apps = cli.apps();
    let cells_for = |spec_name: &str| {
        let mut cells = vec![
            Cell::baseline(spec_name, cli.scale),
            Cell::ideal(spec_name, cli.procs, cli.scale),
        ];
        for proto in [Protocol::Rdma, Protocol::Hlrc] {
            for cfg in &rdma_cfgs {
                cells.push(Cell::new(spec_name, proto, *cfg, cli.procs, cli.scale));
            }
        }
        for cfg in &sc_cfgs {
            cells.push(Cell::new(
                spec_name,
                Protocol::Sc,
                *cfg,
                cli.procs,
                cli.scale,
            ));
        }
        cells
    };
    let all: Vec<Cell> = apps.iter().flat_map(|a| cells_for(a.name)).collect();
    let run = Sweep::enumerate(&all).configure(&cli).run();
    println!(
        "RDMA grid: one-sided protocol speedups next to HLRC and SC,\n{} (paper scale: 16 procs).\n",
        cli.describe()
    );
    report_failures(&run);

    // --- Speedup table: RDMA vs HLRC vs SC across the grid. ---
    let mut head = vec!["Application".to_string(), "IDEAL".to_string()];
    head.extend(rdma_cfgs.iter().map(|c| format!("RDMA {}", c.label())));
    head.extend(rdma_cfgs.iter().map(|c| format!("HLRC {}", c.label())));
    head.extend(sc_cfgs.iter().map(|c| format!("SC {}", c.label())));
    let mut t = Table::new(head);
    for spec in &apps {
        let cells = cells_for(spec.name);
        let mut row = vec![spec.name.to_string()];
        row.extend(cells[1..].iter().map(|c| fmt_speedup_opt(run.speedup(c))));
        t.row(row);
    }
    println!("{t}");
    println!("Labels: <comm><proto>; A=achievable, B=best, B+=better-than-best,");
    println!("H=halfway, W=worse / O=original, B=best protocol costs.\n");

    // --- Figure-4-style breakdowns for the RDMA rows. ---
    println!("RDMA execution-time breakdowns (% of average processor time):\n");
    let mut head = vec!["App / Config".to_string()];
    head.extend(Bucket::ALL.iter().map(|b| b.label().to_string()));
    for spec in &apps {
        let mut t = Table::new(head.clone());
        for cfg in &rdma_cfgs {
            let cell = Cell::new(spec.name, Protocol::Rdma, *cfg, cli.procs, cli.scale);
            let mut row = vec![format!("RDMA {}", cfg.label())];
            match run.record(&cell) {
                Some(rec) => {
                    let b = rec.avg_breakdown();
                    row.extend(
                        Bucket::ALL
                            .iter()
                            .map(|k| format!("{:.1}%", 100.0 * b.fraction(*k))),
                    );
                }
                None => row.extend(Bucket::ALL.iter().map(|_| "-".to_string())),
            }
            t.row(row);
        }
        println!("--- {} ---", spec.name);
        println!("{t}");
    }

    // --- Per-application limiting layer at the achievable point (AO). ---
    println!("Limiting layer at AO (largest non-application time share):\n");
    let ao = LayerConfig::parse("AO").expect("known label");
    let mut t = Table::new(vec![
        "Application".to_string(),
        "RDMA AO".to_string(),
        "HLRC AO".to_string(),
        "limiting layer (RDMA)".to_string(),
        "share".to_string(),
    ]);
    for spec in &apps {
        let rdma = Cell::new(spec.name, Protocol::Rdma, ao, cli.procs, cli.scale);
        let hlrc = Cell::new(spec.name, Protocol::Hlrc, ao, cli.procs, cli.scale);
        let mut row = vec![
            spec.name.to_string(),
            fmt_speedup_opt(run.speedup(&rdma)),
            fmt_speedup_opt(run.speedup(&hlrc)),
        ];
        match run.record(&rdma) {
            Some(rec) => {
                let b = rec.avg_breakdown();
                // Sum the non-application buckets into layer shares; the
                // layer with the largest share bounds the speedup.
                let mut shares: Vec<(&str, f64)> = Vec::new();
                for k in Bucket::ALL {
                    let layer = layer_of(k);
                    if layer == "application" {
                        continue;
                    }
                    match shares.iter_mut().find(|(l, _)| *l == layer) {
                        Some((_, s)) => *s += b.fraction(k),
                        None => shares.push((layer, b.fraction(k))),
                    }
                }
                let (layer, share) =
                    shares
                        .iter()
                        .cloned()
                        .fold(("application", 0.0), |best, cur| {
                            if cur.1 > best.1 {
                                cur
                            } else {
                                best
                            }
                        });
                row.push(layer.to_string());
                row.push(format!("{:.1}%", 100.0 * share));
            }
            None => {
                row.push("-".to_string());
                row.push("-".to_string());
            }
        }
        t.row(row);
    }
    println!("{t}");
    println!("Layers: communication = data wait; synchronization = lock + barrier wait;");
    println!("protocol = handler/bookkeeping occupancy. One-sided service moves the");
    println!("home-node protocol time into the NI, so RDMA's bound is usually the");
    println!("communication or synchronization layer, not the protocol layer.");
}
