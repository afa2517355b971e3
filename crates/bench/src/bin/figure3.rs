//! Figure 3: speedups for every application under HLRC and SC across the
//! layer configurations (bars: IDEAL, B+B, BB, AB, BO, AO, WO for HLRC;
//! IDEAL, B+O, BO, HO, AO, WO for SC — SC is not swept over protocol
//! costs, per the paper §4.3).

use ssm_bench::{fmt_speedup_opt, report_failures};
use ssm_core::{LayerConfig, Protocol};
use ssm_stats::Table;
use ssm_sweep::prelude::*;

fn main() {
    let cli = SweepCli::parse();
    let hlrc_cfgs = LayerConfig::figure3(); // B+B BB AB BO AO WO
    let sc_cfgs: Vec<LayerConfig> = ["B+O", "BO", "HO", "AO", "WO"]
        .into_iter()
        .map(|l| LayerConfig::parse(l).expect("known labels"))
        .collect();

    // One flat enumeration: baselines + every bar of every application.
    let apps = cli.apps();
    let cells_for = |spec_name: &str| {
        let mut cells = vec![
            Cell::baseline(spec_name, cli.scale),
            Cell::ideal(spec_name, cli.procs, cli.scale),
        ];
        for cfg in &hlrc_cfgs {
            cells.push(Cell::new(
                spec_name,
                Protocol::Hlrc,
                *cfg,
                cli.procs,
                cli.scale,
            ));
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
        "Figure 3: speedups, {} (paper scale: 16 procs).\n",
        cli.describe()
    );
    report_failures(&run);

    let mut head = vec!["Application".to_string(), "IDEAL".to_string()];
    head.extend(hlrc_cfgs.iter().map(|c| format!("HLRC {}", c.label())));
    head.extend(sc_cfgs.iter().map(|c| format!("SC {}", c.label())));
    let mut t = Table::new(head);
    for spec in &apps {
        let cells = cells_for(spec.name);
        let mut row = vec![spec.name.to_string()];
        // cells[0] is the baseline; the bars start at the IDEAL cell.
        row.extend(cells[1..].iter().map(|c| fmt_speedup_opt(run.speedup(c))));
        t.row(row);
    }
    println!("{t}");
    println!("Labels: <comm><proto>; A=achievable, B=best, B+=better-than-best,");
    println!("H=halfway, W=worse / O=original, B=best protocol costs.");
}
