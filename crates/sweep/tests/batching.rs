//! Byte-identity of batched baton handoffs (DESIGN.md §14).
//!
//! Batching is a host-side scheduling optimization: the driver processes
//! the exact same operation sequence at the exact same simulated times
//! whether the operations arrive one per handoff or in runs. These tests
//! pin that invariant across the whole application catalog, every
//! protocol, the figure-3 layer presets, and chaos fault plans — and pin
//! the two perf claims the optimization is justified by (fewer handoffs,
//! zero fresh thread spawns once the worker pool is warm).

use ssm_apps::catalog::{suite, Scale};
use ssm_core::{LayerConfig, Protocol};
use ssm_sweep::{execute_with, Cell, CellRecord, CellStatus, Sweep, SweepOpts};

const PROCS: usize = 2;

fn run(cell: &Cell, batching: bool) -> CellRecord {
    execute_with(cell, None, batching).unwrap_or_else(|e| panic!("{} failed: {e}", cell.label()))
}

/// Asserts the batched and unbatched runs of `cell` agree on everything
/// the simulation defines: cycles, per-processor breakdowns, protocol
/// activity, machine counters, verification. Only the engine-scheduling
/// counters (handoffs, batch sizes, flush causes) may differ.
fn assert_identical(cell: &Cell) {
    let batched = run(cell, true);
    let unbatched = run(cell, false);
    let label = cell.label();
    assert_eq!(
        batched.total_cycles, unbatched.total_cycles,
        "{label}: total_cycles"
    );
    assert_eq!(batched.per_proc, unbatched.per_proc, "{label}: per_proc");
    assert_eq!(batched.activity, unbatched.activity, "{label}: activity");
    assert_eq!(
        batched.counters.without_engine_counters(),
        unbatched.counters.without_engine_counters(),
        "{label}: machine counters"
    );
    assert!(batched.verified, "{label}: {:?}", batched.verify_error);
    assert!(unbatched.verified, "{label}: {:?}", unbatched.verify_error);
    // The whole point: batching never takes MORE handoffs, and an
    // unbatched run batches nothing.
    assert!(
        batched.counters.handoffs <= unbatched.counters.handoffs,
        "{label}: batching increased handoffs ({} > {})",
        batched.counters.handoffs,
        unbatched.counters.handoffs
    );
    assert_eq!(unbatched.counters.ops_batched, 0, "{label}");
    // Batches end only at sync ops, the cap and thread end.
    assert_eq!(batched.counters.flush_miss, 0, "{label}: flush_miss");
    assert_eq!(
        batched.counters.sim_ops, unbatched.counters.sim_ops,
        "{label}: op streams differ"
    );
}

#[test]
fn batched_results_are_identical_across_the_catalog() {
    // Every application under the ideal machine and under every
    // (protocol, figure-3 layer preset) pair at test scale.
    for app in suite() {
        assert_identical(&Cell::ideal(app.name, PROCS, Scale::Test));
        for cfg in LayerConfig::figure3() {
            for proto in [
                Protocol::Hlrc,
                Protocol::Aurc,
                Protocol::Sc,
                Protocol::ScDelayed,
                Protocol::Rdma,
            ] {
                assert_identical(&Cell::new(app.name, proto, cfg, PROCS, Scale::Test));
            }
        }
    }
}

#[test]
fn batched_results_are_identical_under_fault_injection() {
    // Chaos plans exercise the reliable-delivery sublayer (timeouts,
    // retransmissions, dup suppression); the injected-fault schedule is a
    // pure function of the message stream, which batching must not
    // perturb.
    for app in ["FFT", "Radix", "Water-Nsquared"] {
        for proto in [Protocol::Hlrc, Protocol::Sc, Protocol::Rdma] {
            for (rate_ppm, seed) in [(50_000, 7), (200_000, 13)] {
                let cell = Cell::new(app, proto, LayerConfig::base(), PROCS, Scale::Test)
                    .with_faults(rate_ppm, seed);
                assert_identical(&cell);
            }
        }
    }
}

#[test]
fn batching_cuts_handoffs_at_least_3x_on_most_apps() {
    // The CI-assertable perf evidence: on a shared, noisy host the
    // handoff counter, not wall-clock, is the witness. Applications that
    // run long stretches between sync ops must drop by >= 3x; at least 5
    // of the catalog's apps must clear that bar under HLRC at test scale.
    let mut cleared = Vec::new();
    let mut ratios = Vec::new();
    for app in suite() {
        let cell = Cell::new(
            app.name,
            Protocol::Hlrc,
            LayerConfig::base(),
            PROCS,
            Scale::Test,
        );
        let batched = run(&cell, true).counters.handoffs;
        let unbatched = run(&cell, false).counters.handoffs;
        assert!(
            batched > 0 && unbatched > 0,
            "{}: no handoffs counted",
            app.name
        );
        let ratio = unbatched as f64 / batched as f64;
        ratios.push(format!("{} {ratio:.1}x", app.name));
        if ratio >= 3.0 {
            cleared.push(app.name);
        }
    }
    assert!(
        cleared.len() >= 5,
        "only {} app(s) reached a 3x handoff reduction: {}",
        cleared.len(),
        ratios.join(", ")
    );
}

#[test]
fn second_cell_of_a_sweep_spawns_no_threads() {
    // With one sweep worker the two cells run back to back on the same
    // WorkerSet: the first cell's simulation spawns its application
    // threads, the second leases every one of them back out of the idle
    // pool. `threads_spawned`/`threads_reused` come from the simulation's
    // own ThreadPool, so the guard thread is not in these numbers.
    let cells = [
        Cell::ideal("FFT", PROCS, Scale::Test),
        Cell::ideal("Radix", PROCS, Scale::Test),
    ];
    let run = Sweep::enumerate(&cells)
        .options(SweepOpts {
            jobs: 1,
            cache: false,
            progress: false,
            summary: false,
            ..SweepOpts::default()
        })
        .run();
    let rec = |i: usize| match &run.outcomes[i].status {
        CellStatus::Done(r) => r,
        other => panic!("cell {i} did not complete: {other:?}"),
    };
    let first = rec(0);
    assert_eq!(
        (first.threads_spawned, first.threads_reused),
        (PROCS as u64, 0),
        "cold pool: first cell spawns one thread per simulated processor"
    );
    let second = rec(1);
    assert_eq!(
        (second.threads_spawned, second.threads_reused),
        (0, PROCS as u64),
        "warm pool: second cell must recycle, not spawn"
    );
}
