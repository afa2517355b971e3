//! Table 5: per-application summary for HLRC — which system layer matters
//! more from the base system, whether AB or HB beats BO, and the cheapest
//! configuration (if any) reaching ~10-fold speedup on 16 processors.

use ssm_bench::{fmt_speedup_opt, report_failures};
use ssm_core::{CommPreset, LayerConfig, ProtoPreset, Protocol};
use ssm_stats::Table;
use ssm_sweep::prelude::*;

fn cfg(comm: CommPreset, proto: ProtoPreset) -> LayerConfig {
    LayerConfig::of(comm, proto)
}

/// Configurations ordered from cheapest improvement to most aggressive;
/// the "first 10x" column reports the first that reaches 10-fold speedup.
const LADDER: [(CommPreset, ProtoPreset); 10] = [
    (CommPreset::Achievable, ProtoPreset::Original),
    (CommPreset::Achievable, ProtoPreset::Halfway),
    (CommPreset::Halfway, ProtoPreset::Original),
    (CommPreset::Halfway, ProtoPreset::Halfway),
    (CommPreset::Achievable, ProtoPreset::Best),
    (CommPreset::Best, ProtoPreset::Original),
    (CommPreset::Halfway, ProtoPreset::Best),
    (CommPreset::Best, ProtoPreset::Halfway),
    (CommPreset::Best, ProtoPreset::Best),
    (CommPreset::BetterThanBest, ProtoPreset::Best),
];

fn main() {
    let cli = SweepCli::parse();
    let apps = cli.apps();
    let cell = |app: &str, comm, proto| {
        Cell::new(app, Protocol::Hlrc, cfg(comm, proto), cli.procs, cli.scale)
    };
    let mut cells = Vec::new();
    for spec in &apps {
        cells.push(Cell::baseline(spec.name, cli.scale));
        for (comm, proto) in LADDER {
            cells.push(cell(spec.name, comm, proto));
        }
    }
    let run = Sweep::enumerate(&cells).configure(&cli).run();
    println!(
        "Table 5: per-application summary (HLRC), {}.\n",
        cli.describe()
    );
    report_failures(&run);

    let mut t = Table::new(vec![
        "Application",
        "AO",
        "AB",
        "BO",
        "HB",
        "more important",
        "AB|HB > BO?",
        "first 10x",
    ]);
    for spec in &apps {
        let s = |comm, proto| run.speedup(&cell(spec.name, comm, proto));
        let ao = s(CommPreset::Achievable, ProtoPreset::Original);
        let ab = s(CommPreset::Achievable, ProtoPreset::Best);
        let bo = s(CommPreset::Best, ProtoPreset::Original);
        let hb = s(CommPreset::Halfway, ProtoPreset::Best);
        let (more, beats) = match (ab, bo, hb) {
            (Some(ab), Some(bo), Some(hb)) => (
                if bo > ab { "communication" } else { "protocol" },
                if ab > bo || hb > bo { "yes" } else { "no" },
            ),
            _ => ("-", "-"),
        };
        let first10 = LADDER
            .into_iter()
            .find(|&(comm, proto)| s(comm, proto) >= Some(10.0))
            .map_or_else(
                || "none".to_string(),
                |(comm, proto)| cfg(comm, proto).label(),
            );
        t.row(vec![
            spec.name.to_string(),
            fmt_speedup_opt(ao),
            fmt_speedup_opt(ab),
            fmt_speedup_opt(bo),
            fmt_speedup_opt(hb),
            more.to_string(),
            beats.to_string(),
            first10,
        ]);
    }
    println!("{t}");
}
