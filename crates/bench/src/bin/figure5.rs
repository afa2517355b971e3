//! Figure 5: the impact of varying ONE communication parameter at a time
//! (host overhead, NI occupancy, I/O bus bandwidth, message handling),
//! holding the others at the achievable values — for both protocols.
//!
//! The paper's finding: fine-grained SC depends mostly on overhead and
//! occupancy, while HLRC depends mostly on bandwidth.

use ssm_bench::{fmt_speedup_opt, report_failures};
use ssm_core::Protocol;
use ssm_net::CommParams;
use ssm_stats::Table;
use ssm_sweep::prelude::*;

/// (label, multiplier-applied-to-achievable): 0 = free, 1/2, 1, 2.
const POINTS: [(&str, u64, u64); 4] = [("0x", 0, 1), ("0.5x", 1, 2), ("1x", 1, 1), ("2x", 2, 1)];

const PARAMS: [&str; 4] = [
    "host overhead",
    "NI occupancy",
    "I/O bus bw",
    "msg handling",
];

fn vary(param: &str, num: u64, den: u64) -> CommParams {
    let mut p = CommParams::achievable();
    let scale = |v: u64| v * num / den;
    match param {
        "host overhead" => p.host_overhead = scale(p.host_overhead),
        "NI occupancy" => p.ni_occupancy = scale(p.ni_occupancy),
        "msg handling" => p.msg_handling = scale(p.msg_handling),
        "I/O bus bw" => {
            // Varying the *cost* of bandwidth: 0x cost = infinite bw.
            p.io_bus_rate = if num == 0 {
                None
            } else {
                let (b, c) = p.io_bus_rate.expect("achievable has a rate");
                Some((b * den, c * num))
            };
        }
        _ => unreachable!(),
    }
    p
}

fn cell(cli: &SweepCli, app: &str, proto: Protocol, param: &str, num: u64, den: u64) -> Cell {
    Cell::new(
        app,
        proto,
        ssm_core::LayerConfig::base(),
        cli.procs,
        cli.scale,
    )
    .with_comm_params(vary(param, num, den))
}

fn main() {
    let cli = SweepCli::parse();
    // The paper shows a subset of applications; default to a regular, an
    // irregular and the bandwidth-bound one unless --app filters.
    let default = [
        "FFT",
        "Ocean-Contiguous",
        "Barnes-original",
        "Water-Nsquared",
        "Radix",
    ];
    let apps: Vec<_> = cli
        .apps()
        .into_iter()
        .filter(|a| !cli.filter.is_empty() || default.contains(&a.name))
        .collect();
    let mut cells = Vec::new();
    for spec in &apps {
        cells.push(Cell::baseline(spec.name, cli.scale));
        for proto in [Protocol::Hlrc, Protocol::Sc] {
            for param in PARAMS {
                for (_, num, den) in POINTS {
                    cells.push(cell(&cli, spec.name, proto, param, num, den));
                }
            }
        }
    }
    let run = Sweep::enumerate(&cells).configure(&cli).run();
    println!(
        "Figure 5: speedup vs a single communication parameter (others at\n\
         achievable), {}.\n",
        cli.describe()
    );
    report_failures(&run);

    for spec in &apps {
        let mut t = Table::new(vec!["Parameter", "0x", "0.5x", "1x", "2x"]);
        for proto in [Protocol::Hlrc, Protocol::Sc] {
            for param in PARAMS {
                let mut row = vec![format!("{} {}", proto.label(), param)];
                for (_, num, den) in POINTS {
                    let c = cell(&cli, spec.name, proto, param, num, den);
                    row.push(fmt_speedup_opt(run.speedup(&c)));
                }
                t.row(row);
            }
        }
        println!("--- {} ---", spec.name);
        println!("{t}");
    }
}
