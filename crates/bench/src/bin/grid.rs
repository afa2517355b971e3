//! The full 15-point configuration grid (5 communication x 3 protocol
//! presets) for selected applications — the HO/AH/HB points the paper
//! discusses in prose but leaves out of Figure 3 "to prevent
//! overcrowding".

use ssm_bench::{fmt_speedup_opt, report_failures};
use ssm_core::{CommPreset, LayerConfig, ProtoPreset, Protocol};
use ssm_stats::Table;
use ssm_sweep::prelude::*;

fn main() {
    let cli = SweepCli::parse();
    let default = [
        "FFT",
        "Ocean-Contiguous",
        "Barnes-original",
        "Water-Nsquared",
    ];
    let apps: Vec<_> = cli
        .apps()
        .into_iter()
        .filter(|a| !cli.filter.is_empty() || default.contains(&a.name))
        .collect();
    let cell = |app: &str, comm, proto| {
        Cell::new(
            app,
            Protocol::Hlrc,
            LayerConfig::of(comm, proto),
            cli.procs,
            cli.scale,
        )
    };
    let mut cells = Vec::new();
    for spec in &apps {
        cells.push(Cell::baseline(spec.name, cli.scale));
        // Worst to best: the presets' own order, reversed.
        for comm in CommPreset::ALL.into_iter().rev() {
            for proto in ProtoPreset::ALL.into_iter().rev() {
                cells.push(cell(spec.name, comm, proto));
            }
        }
    }
    let run = Sweep::enumerate(&cells).configure(&cli).run();
    println!(
        "Full configuration grid (HLRC speedups), {}.\n\
         Rows: communication preset; columns: protocol preset.\n",
        cli.describe()
    );
    report_failures(&run);

    for spec in &apps {
        let mut t = Table::new(vec!["comm \\ proto", "O", "H", "B"]);
        for comm in CommPreset::ALL.into_iter().rev() {
            let mut row = vec![comm.label().to_string()];
            for proto in ProtoPreset::ALL.into_iter().rev() {
                row.push(fmt_speedup_opt(run.speedup(&cell(spec.name, comm, proto))));
            }
            t.row(row);
        }
        println!("--- {} ---", spec.name);
        println!("{t}");
    }
    println!(
        "Read along rows/columns for the paper's halfway observations:\n\
         \"improving communication costs to the halfway point usually improves\n\
         performance about halfway between AO and BO\", and the synergy that\n\
         protocol costs gain leverage once communication reaches H or B."
    );
}
