//! Chaos sweep: deterministic fault injection across fault rate x
//! protocol x application.
//!
//! Every application runs under HLRC, SC and RDMA at the base ("AO") layer
//! configuration, once fault-free and once per requested fault rate (the
//! per-class rate of message drops, duplicates, delay spikes and NI
//! stalls). The reliability sublayer must recover every run to the same
//! application result as the fault-free execution — an unverified or
//! failed cell makes the binary exit nonzero, so CI can assert recovery
//! with a single invocation.
//!
//! Extra flags on top of the common sweep CLI:
//!
//! * `--rates PPM[,PPM...]` — per-class fault rates to sweep (default
//!   `2000,10000,50000`);
//! * `--fault-seed N` — the injected-fault schedule seed (default 42).

use ssm_bench::report_failures;
use ssm_core::{FaultSpec, LayerConfig, Protocol};
use ssm_stats::Table;
use ssm_sweep::prelude::*;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut rates: Vec<u32> = vec![2_000, 10_000, 50_000];
    let mut fault_seed: u64 = 42;
    let cli = SweepCli::parse_with(|flag, args| match flag {
        "--rates" => {
            let v = args
                .next()
                .unwrap_or_else(|| die("--rates needs ppm[,ppm...]"));
            rates = v
                .split(',')
                .map(|r| match r.trim().parse::<u32>() {
                    Ok(n) if n > 0 && n <= FaultSpec::MAX_RATE_PPM => n,
                    _ => die(&format!(
                        "--rates entries must be 1..={} ppm, got {r:?}",
                        FaultSpec::MAX_RATE_PPM
                    )),
                })
                .collect();
        }
        "--fault-seed" => {
            fault_seed = args
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die("--fault-seed needs a number"));
        }
        other => die(&format!(
            "unknown flag {other}; chaos adds --rates/--fault-seed to the common sweep flags"
        )),
    });
    let apps = cli.apps();
    let protocols = [Protocol::Hlrc, Protocol::Sc, Protocol::Rdma];
    let cells_for = |app: &str, proto: Protocol| {
        // Rate 0 is the clean cell: `with_faults(FaultSpec::none())` keeps
        // the pre-fault cell identity (and cache hash) bit-for-bit.
        std::iter::once(0)
            .chain(rates.iter().copied())
            .map(|r| {
                Cell::new(
                    app,
                    proto,
                    LayerConfig::base().with_faults(FaultSpec::at(r, fault_seed)),
                    cli.procs,
                    cli.scale,
                )
            })
            .collect::<Vec<_>>()
    };
    let all: Vec<Cell> = apps
        .iter()
        .flat_map(|a| protocols.iter().flat_map(|&p| cells_for(a.name, p)))
        .collect();
    let run = Sweep::enumerate(&all).configure(&cli).run();
    println!(
        "Chaos: fault injection and recovery, {} (schedule seed {fault_seed}).\n",
        cli.describe()
    );
    report_failures(&run);

    let mut head = vec![
        "Application".to_string(),
        "Protocol".to_string(),
        "clean cycles".to_string(),
    ];
    head.extend(rates.iter().map(|r| format!("f{r}")));
    let mut t = Table::new(head);
    let mut bad = 0usize;
    let mut total_retx = 0u64;
    for spec in &apps {
        for &proto in &protocols {
            let cells = cells_for(spec.name, proto);
            let mut row = vec![spec.name.to_string(), proto.label().to_string()];
            let clean = run.record(&cells[0]).map(|r| r.total_cycles);
            row.push(clean.map_or_else(|| "-".to_string(), |c| c.to_string()));
            for cell in &cells[1..] {
                match run.record(cell) {
                    Some(rec) if rec.verified => {
                        let c = &rec.counters;
                        total_retx += c.retransmissions;
                        let slowdown = clean.map_or_else(
                            || "?".to_string(),
                            |base| format!("{:.3}x", rec.total_cycles as f64 / base as f64),
                        );
                        row.push(format!(
                            "{slowdown} rtx={} dup={}",
                            c.retransmissions, c.dup_suppressed
                        ));
                    }
                    _ => {
                        bad += 1;
                        row.push("FAILED".to_string());
                    }
                }
            }
            // The fault-free run must verify too: it is the checksum the
            // faulty runs are recovered back to.
            if clean.is_none() || !run.record(&cells[0]).is_some_and(|r| r.verified) {
                bad += 1;
            }
            t.row(row);
        }
    }
    println!("{t}");
    println!("Cells: slowdown vs the fault-free run; rtx = retransmissions,");
    println!("dup = duplicate copies suppressed by the reliability sublayer.");
    if bad > 0 {
        eprintln!("[chaos] {bad} cell(s) failed or did not verify under fault injection");
        std::process::exit(1);
    }
    println!(
        "\nAll {} cells verified; {total_retx} total retransmissions recovered.",
        run.outcomes.len()
    );
}
