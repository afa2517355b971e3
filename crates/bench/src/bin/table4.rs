//! Table 4: percentage of time processors spend in protocol activity
//! under HLRC at the base (AO) configuration, split into protocol-handler
//! execution and diff computation (plus twin/mprotect detail).

use ssm_bench::report_failures;
use ssm_core::{LayerConfig, Protocol};
use ssm_stats::Table;
use ssm_sweep::prelude::*;

fn main() {
    let cli = SweepCli::parse();
    let apps = cli.apps();
    let cells: Vec<Cell> = apps
        .iter()
        .map(|spec| {
            Cell::new(
                spec.name,
                Protocol::Hlrc,
                LayerConfig::base(),
                cli.procs,
                cli.scale,
            )
        })
        .collect();
    let run = Sweep::enumerate(&cells).configure(&cli).run();
    println!(
        "Table 4: % of processor time in protocol activity (HLRC, AO),\n\
         {}.\n",
        cli.describe()
    );
    report_failures(&run);

    let mut t = Table::new(vec![
        "Application",
        "Total%",
        "Handler%",
        "Diff%",
        "Twin%",
        "Mprotect%",
    ]);
    for (spec, cell) in apps.iter().zip(&cells) {
        let Some(rec) = run.record(cell) else {
            t.row(vec![
                spec.name.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        // Percentages of total (all-processor) execution time, like the
        // paper's Table 4.
        let wall: u64 = (0..rec.per_proc.len())
            .map(|p| rec.breakdown(p).total())
            .sum();
        let wall = wall.max(1) as f64;
        let a = rec.activity;
        t.row(vec![
            spec.name.to_string(),
            format!("{:.1}", 100.0 * a.total() as f64 / wall),
            format!("{:.1}", 100.0 * a.handler as f64 / wall),
            format!("{:.1}", 100.0 * a.diff_total() as f64 / wall),
            format!("{:.1}", 100.0 * a.twin as f64 / wall),
            format!("{:.1}", 100.0 * a.mprotect as f64 / wall),
        ]);
    }
    println!("{t}");
}
