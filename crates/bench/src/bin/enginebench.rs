//! Engine scheduling microbench: what operation batching buys per cell.
//!
//! Runs every application under HLRC and RDMA at the base layer
//! configuration, once with batched baton handoffs and once without, and
//! reports the schedule-derived evidence (handoffs per cell, the fraction
//! of operations that travelled in a batch, flush causes) plus host-side
//! cells/sec. Wall-clock on a shared CI host is noise, so the binary
//! *asserts* on the deterministic counters instead: for every protocol,
//! at least five applications must show a >= 3x handoff reduction, or it
//! exits nonzero. A batch ends only at a `Lock`, a `Barrier`, the batch
//! cap or the end of the thread, so handoffs are a function of the
//! operation stream alone and one-sided coherence batches as well as
//! HLRC does.
//!
//! The machine-readable report lands in `results/BENCH_engine.json`
//! (committed; the counter fields are deterministic, the `cells_per_sec`
//! fields are wall-clock and vary by host).
//!
//! Flags: `--procs N` (default 2), `--app NAME` (substring filter),
//! `--results DIR` (default `results/`), `--quiet`. The sweep always runs
//! at test scale — the counters scale with the op stream, not the problem
//! size, and test scale keeps the binary CI-fast.

use std::path::PathBuf;
use std::time::Instant;

use ssm_apps::catalog::{suite, Scale};
use ssm_core::{LayerConfig, Protocol};
use ssm_stats::Table;
use ssm_sweep::{execute_with, Cell, CellRecord, Json};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut procs: usize = 2;
    let mut filter = String::new();
    let mut results_dir = PathBuf::from("results");
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--procs" => {
                procs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--procs needs a number"));
            }
            "--app" => filter = args.next().unwrap_or_else(|| die("--app needs a name")),
            "--results" => {
                results_dir =
                    PathBuf::from(args.next().unwrap_or_else(|| die("--results needs a dir")));
            }
            "--quiet" => quiet = true,
            other => die(&format!(
                "unknown flag {other}; enginebench takes --procs/--app/--results/--quiet"
            )),
        }
    }

    let apps: Vec<_> = suite()
        .into_iter()
        .filter(|a| filter.is_empty() || a.name.contains(&filter))
        .collect();
    if apps.is_empty() {
        die(&format!("no application matches {filter:?}"));
    }
    println!("Engine batching bench: {procs} processors, scale test.\n");

    let run = |app: &str, proto: Protocol, batching: bool| -> CellRecord {
        let cell = Cell::new(app, proto, LayerConfig::base(), procs, Scale::Test);
        execute_with(&cell, None, batching).unwrap_or_else(|e| die(&format!("{app} failed: {e}")))
    };

    let protocols = [Protocol::Hlrc, Protocol::Rdma];
    let mut t = Table::new(vec![
        "Application".to_string(),
        "Protocol".to_string(),
        "Handoffs".to_string(),
        "Unbatched".to_string(),
        "Reduction".to_string(),
        "Ops/batchd".to_string(),
    ]);
    let mut entries: Vec<Json> = Vec::new();
    let mut cleared = vec![0usize; protocols.len()];
    let (mut secs_batched, mut secs_unbatched) = (0.0f64, 0.0f64);
    for app in &apps {
        for (pi, &proto) in protocols.iter().enumerate() {
            let t0 = Instant::now();
            let b = run(app.name, proto, true);
            secs_batched += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let u = run(app.name, proto, false);
            secs_unbatched += t0.elapsed().as_secs_f64();
            let (bc, uc) = (&b.counters, &u.counters);
            if bc.sim_ops != uc.sim_ops {
                die(&format!(
                    "{} {}: op streams differ ({} vs {} ops) — batching is not transparent",
                    app.name,
                    proto.label(),
                    bc.sim_ops,
                    uc.sim_ops
                ));
            }
            let ratio = uc.handoffs as f64 / bc.handoffs.max(1) as f64;
            let batched_frac = bc.ops_batched as f64 / bc.sim_ops.max(1) as f64;
            if ratio >= 3.0 {
                cleared[pi] += 1;
            }
            t.row(vec![
                app.name.to_string(),
                proto.label().to_string(),
                bc.handoffs.to_string(),
                uc.handoffs.to_string(),
                format!("{ratio:.1}x"),
                format!("{:.0}%", batched_frac * 100.0),
            ]);
            entries.push(Json::Obj(vec![
                ("app".to_string(), Json::Str(app.name.to_string())),
                ("protocol".to_string(), Json::Str(proto.label().to_string())),
                ("handoffs".to_string(), Json::Int(bc.handoffs)),
                ("handoffs_unbatched".to_string(), Json::Int(uc.handoffs)),
                ("handoff_reduction".to_string(), Json::Num(ratio)),
                ("sim_ops".to_string(), Json::Int(bc.sim_ops)),
                ("ops_batched".to_string(), Json::Int(bc.ops_batched)),
                ("batched_op_ratio".to_string(), Json::Num(batched_frac)),
                ("flush_sync".to_string(), Json::Int(bc.flush_sync)),
                ("flush_miss".to_string(), Json::Int(bc.flush_miss)),
                ("flush_cap".to_string(), Json::Int(bc.flush_cap)),
                ("flush_end".to_string(), Json::Int(bc.flush_end)),
            ]));
        }
    }
    println!("{}", t.render());
    let cells = (apps.len() * protocols.len()) as f64;
    println!(
        "cells/sec (host, wall-clock): {:.1} batched, {:.1} unbatched",
        cells / secs_batched.max(1e-9),
        cells / secs_unbatched.max(1e-9),
    );
    for (pi, &proto) in protocols.iter().enumerate() {
        println!(
            "{}: {}/{} applications at >= 3x handoff reduction",
            proto.label(),
            cleared[pi],
            apps.len()
        );
    }

    let report = Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str("ssm-enginebench/2".to_string()),
        ),
        ("procs".to_string(), Json::Int(procs as u64)),
        ("scale".to_string(), Json::Str("test".to_string())),
        (
            "apps_at_3x".to_string(),
            Json::Obj(
                protocols
                    .iter()
                    .enumerate()
                    .map(|(pi, p)| (p.label().to_string(), Json::Int(cleared[pi] as u64)))
                    .collect(),
            ),
        ),
        (
            "cells_per_sec_batched".to_string(),
            Json::Num(cells / secs_batched.max(1e-9)),
        ),
        (
            "cells_per_sec_unbatched".to_string(),
            Json::Num(cells / secs_unbatched.max(1e-9)),
        ),
        ("apps".to_string(), Json::Arr(entries)),
    ]);
    std::fs::create_dir_all(&results_dir)
        .and_then(|()| {
            std::fs::write(
                results_dir.join("BENCH_engine.json"),
                report.render() + "\n",
            )
        })
        .unwrap_or_else(|e| die(&format!("cannot write BENCH_engine.json: {e}")));
    if !quiet {
        eprintln!(
            "[enginebench] wrote {}",
            results_dir.join("BENCH_engine.json").display()
        );
    }

    // The full application filter must hold the CI bar for every
    // protocol; a substring run (fewer than 5 apps) only reports.
    if filter.is_empty() {
        for (pi, &proto) in protocols.iter().enumerate() {
            if cleared[pi] < 5 {
                eprintln!(
                    "error: only {} application(s) reached a 3x handoff reduction under {} (need 5)",
                    cleared[pi],
                    proto.label()
                );
                std::process::exit(1);
            }
        }
    }
}
