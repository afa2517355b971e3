//! Figure 4: execution-time breakdowns (busy / cache stall / data wait /
//! lock wait / barrier wait / protocol), averaged over processors, for the
//! main layer configurations.

use ssm_bench::report_failures;
use ssm_core::{LayerConfig, ProtoPreset, Protocol};
use ssm_stats::{Bucket, Table};
use ssm_sweep::prelude::*;

/// The (protocol, configuration) pairs of the figure, in row order.
fn points(cfgs: &[LayerConfig]) -> Vec<(Protocol, LayerConfig)> {
    let mut points = Vec::new();
    for proto in [Protocol::Hlrc, Protocol::Sc] {
        for cfg in cfgs {
            if proto == Protocol::Sc && cfg.proto != ProtoPreset::Original {
                continue; // SC runs at original protocol costs only
            }
            points.push((proto, *cfg));
        }
    }
    points
}

fn main() {
    let cli = SweepCli::parse();
    let cfgs = LayerConfig::figure3();
    let apps = cli.apps();
    let cells: Vec<Cell> = apps
        .iter()
        .flat_map(|spec| {
            points(&cfgs)
                .into_iter()
                .map(|(proto, cfg)| Cell::new(spec.name, proto, cfg, cli.procs, cli.scale))
        })
        .collect();
    let run = Sweep::enumerate(&cells).configure(&cli).run();
    println!(
        "Figure 4: execution-time breakdowns (% of average processor time),\n\
         {}.\n",
        cli.describe()
    );
    report_failures(&run);

    let mut head = vec!["App / Config".to_string()];
    head.extend(Bucket::ALL.iter().map(|b| b.label().to_string()));
    for spec in &apps {
        let mut t = Table::new(head.clone());
        for (proto, cfg) in points(&cfgs) {
            let cell = Cell::new(spec.name, proto, cfg, cli.procs, cli.scale);
            let mut row = vec![format!("{} {}", proto.label(), cfg.label())];
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
}
