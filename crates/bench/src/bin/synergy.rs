//! Synergy between layers (paper §4.5): the improvement each system layer
//! buys depends on the state of the other. Reports, per application under
//! HLRC, the percentage speedup gains:
//!
//! * protocol idealization before/after communication idealization
//!   (AO→AB vs BO→BB),
//! * communication idealization before/after protocol idealization
//!   (AO→BO vs AB→BB).

use ssm_bench::report_failures;
use ssm_core::{CommPreset, LayerConfig, ProtoPreset, Protocol};
use ssm_stats::Table;
use ssm_sweep::prelude::*;

const CORNERS: [(CommPreset, ProtoPreset); 4] = [
    (CommPreset::Achievable, ProtoPreset::Original),
    (CommPreset::Achievable, ProtoPreset::Best),
    (CommPreset::Best, ProtoPreset::Original),
    (CommPreset::Best, ProtoPreset::Best),
];

fn main() {
    let cli = SweepCli::parse();
    let apps = cli.apps();
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
        for (comm, proto) in CORNERS {
            cells.push(cell(spec.name, comm, proto));
        }
    }
    let run = Sweep::enumerate(&cells).configure(&cli).run();
    println!("Layer synergy under HLRC, {}.\n", cli.describe());
    report_failures(&run);

    let mut t = Table::new(vec![
        "Application",
        "AO->AB",
        "BO->BB",
        "AO->BO",
        "AB->BB",
        "synergy",
    ]);
    for spec in &apps {
        let s = |comm, proto| run.speedup(&cell(spec.name, comm, proto));
        let (Some(ao), Some(ab), Some(bo), Some(bb)) = (
            s(CommPreset::Achievable, ProtoPreset::Original),
            s(CommPreset::Achievable, ProtoPreset::Best),
            s(CommPreset::Best, ProtoPreset::Original),
            s(CommPreset::Best, ProtoPreset::Best),
        ) else {
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
        let pct = |from: f64, to: f64| 100.0 * (to - from) / from;
        let proto_before = pct(ao, ab);
        let proto_after = pct(bo, bb);
        let comm_before = pct(ao, bo);
        let comm_after = pct(ab, bb);
        let synergy = proto_after > proto_before || comm_after > comm_before;
        t.row(vec![
            spec.name.to_string(),
            format!("{proto_before:+.0}%"),
            format!("{proto_after:+.0}%"),
            format!("{comm_before:+.0}%"),
            format!("{comm_after:+.0}%"),
            if synergy { "yes" } else { "no" }.to_string(),
        ]);
    }
    println!("{t}");
    println!("Synergy = idealizing one layer raises the percentage gain of the other.");
}
