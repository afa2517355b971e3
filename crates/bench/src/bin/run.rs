//! General-purpose runner: one application x protocol x configuration,
//! with full reporting. The Swiss-army knife for exploring the simulator.
//!
//! ```text
//! cargo run --release -p ssm-bench --bin run -- \
//!     --app Barnes-original --protocol hlrc --comm A --proto O \
//!     --procs 16 --scale bench --breakdown --counters --perproc
//! ```
//!
//! Shares the sweep cache: a cell this runner executes is a cache hit for
//! every figure/table binary, and vice versa.
//!
//! `--protocol` takes any protocol's table label in any case (`HLRC`,
//! `sc-delayed`, ...).
//!
//! Exits 1 if the cell failed, timed out or did not verify (after printing
//! the requested report), 2 on a usage error.

use ssm_apps::catalog::{by_name, suite};
use ssm_core::{CommPreset, LayerConfig, ProtoPreset, Protocol};
use ssm_proto::{HomeMap, HomePolicy};
use ssm_stats::{Bucket, Table};
use ssm_sweep::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: run --app NAME [--protocol hlrc|aurc|sc|sc-delayed|rdma|ideal] \
         [--comm A|B|B+|H|W] [--proto O|H|B] [--procs N] \
         [--scale test|bench|full] [--homes rr|first-touch] [--block BYTES] \
         [--jobs N] [--no-cache] [--results DIR] \
         [--breakdown] [--counters] [--perproc] [--list]"
    );
    std::process::exit(2)
}

#[derive(Default)]
struct Extra {
    protocol: Option<Protocol>,
    comm: Option<CommPreset>,
    proto: Option<ProtoPreset>,
    homes: Option<HomePolicy>,
    sc_block: Option<u64>,
    breakdown: bool,
    counters: bool,
    perproc: bool,
}

fn parse() -> (SweepCli, Extra) {
    let mut x = Extra::default();
    let cli = SweepCli::parse_with(|flag, args| {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag {
            "--protocol" => {
                let v = val();
                x.protocol = Some(
                    Protocol::ALL
                        .into_iter()
                        .find(|p| p.label().eq_ignore_ascii_case(&v))
                        .unwrap_or_else(|| usage()),
                )
            }
            "--comm" => x.comm = Some(CommPreset::from_label(&val()).unwrap_or_else(|_| usage())),
            "--proto" => {
                x.proto = Some(ProtoPreset::from_label(&val()).unwrap_or_else(|_| usage()))
            }
            "--homes" => x.homes = Some(HomePolicy::from_label(&val()).unwrap_or_else(|_| usage())),
            "--block" => {
                let b = val().parse().unwrap_or_else(|_| usage());
                if let Err(e) = HomeMap::check_unit(b) {
                    eprintln!("error: {e}");
                    std::process::exit(2)
                }
                x.sc_block = Some(b)
            }
            "--breakdown" => x.breakdown = true,
            "--counters" => x.counters = true,
            "--perproc" => x.perproc = true,
            "--list" => {
                for s in suite() {
                    println!("{}", s.name);
                }
                std::process::exit(0);
            }
            _ => usage(),
        }
    });
    (cli, x)
}

fn main() {
    let (cli, x) = parse();
    if cli.filter.is_empty() {
        usage();
    }
    let spec = by_name(&cli.filter).unwrap_or_else(|| {
        eprintln!("unknown app {:?}; use --list", cli.filter);
        std::process::exit(2)
    });
    let cfg = LayerConfig::of(
        x.comm.unwrap_or(CommPreset::Achievable),
        x.proto.unwrap_or(ProtoPreset::Original),
    );
    let mut cell = Cell::new(
        spec.name,
        x.protocol.unwrap_or(Protocol::Hlrc),
        cfg,
        cli.procs,
        cli.scale,
    );
    if let Some(h) = x.homes {
        cell = cell.with_homes(h);
    }
    if let Some(b) = x.sc_block {
        cell = cell.with_sc_block(b);
    }

    let cells = vec![Cell::baseline(spec.name, cli.scale), cell.clone()];
    let run = Sweep::enumerate(&cells).configure(&cli).run();
    let outcome = run.outcome(&cell).expect("cell swept");
    let rec = match &outcome.status {
        CellStatus::Done(rec) => rec,
        CellStatus::Failed(e) => {
            eprintln!("[run] FAILED: {e}");
            std::process::exit(1)
        }
        CellStatus::TimedOut(d) => {
            eprintln!("[run] timed out after {d:?}");
            std::process::exit(1)
        }
    };
    let seq = run.record(&cells[0]).map(|r| r.total_cycles);

    println!("cell:       {} ({})", cell.label(), outcome.hash);
    println!("cached:     {}", outcome.cached);
    println!("processors: {}", cell.procs);
    match seq {
        Some(seq) => println!("sequential: {seq} cycles"),
        None => println!("sequential: unavailable"),
    }
    println!("parallel:   {} cycles", rec.total_cycles);
    if let Some(s) = run.speedup(&cell) {
        println!("speedup:    {s:.2}");
    }
    if !rec.verified {
        println!(
            "verified:   NO — {}",
            rec.verify_error.as_deref().unwrap_or("unknown")
        );
    }
    if x.breakdown {
        println!("\naverage breakdown: {}", rec.avg_breakdown());
    }
    if x.counters {
        let c = rec.counters;
        println!(
            "\nmessages={} bytes={} fetches={} diffs={} diff_words={} twins={} \
             auto_updates={} write_notices={} invalidations={} locks={} barriers={}",
            c.messages,
            c.bytes,
            c.fetches,
            c.diffs,
            c.diff_words,
            c.twins,
            c.auto_updates,
            c.write_notices,
            c.invalidations,
            c.lock_acquires,
            c.barriers
        );
    }
    if x.perproc {
        let mut head = vec!["proc".to_string()];
        head.extend(Bucket::ALL.iter().map(|b| b.label().to_string()));
        let mut t = Table::new(head);
        for p in 0..rec.per_proc.len() {
            let b = rec.breakdown(p);
            let mut row = vec![format!("P{p}")];
            row.extend(Bucket::ALL.iter().map(|k| b.get(*k).to_string()));
            t.row(row);
        }
        println!("\n{t}");
    }
    if !rec.verified {
        std::process::exit(1);
    }
}
