//! Byte-identity of batched baton handoffs (DESIGN.md §14).
//!
//! Batching is a host-side scheduling optimization: the driver processes
//! the exact same operation sequence at the exact same simulated times
//! whether the operations arrive one per handoff or in runs. These tests
//! pin that invariant across the whole application catalog, every
//! protocol, the figure-3 layer presets, and chaos fault plans; pin the
//! batched handoff schedule of a few cells; and pin the two perf claims
//! the optimization is justified by (fewer handoffs, zero fresh thread
//! spawns once the worker pool is warm).

use ssm_apps::catalog::{suite, Scale};
use ssm_core::{LayerConfig, Protocol};
use ssm_sweep::{execute_with, Cell, CellRecord, CellStatus, Sweep, SweepCli};

const PROCS: usize = 2;

fn run(cell: &Cell, batching: bool) -> CellRecord {
    execute_with(cell, batching).unwrap_or_else(|e| panic!("{} failed: {e}", cell.label()))
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
    // The whole point: batching never takes MORE handoffs. An unbatched
    // run hands over one operation per handoff, plus each thread's final
    // resume that reports it finished.
    assert!(
        batched.counters.handoffs <= unbatched.counters.handoffs,
        "{label}: batching increased handoffs ({} > {})",
        batched.counters.handoffs,
        unbatched.counters.handoffs
    );
    assert_eq!(
        unbatched.counters.handoffs,
        unbatched.counters.sim_ops + cell.procs as u64,
        "{label}: unbatched handoffs"
    );
    assert_eq!(
        unbatched.counters.ops_batched, unbatched.counters.sim_ops,
        "{label}: an unbatched run hands over one-op batches"
    );
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
fn batched_handoff_schedule_is_pinned() {
    // Where every batch ends is a function of the op stream alone, so the
    // engine counters of a batched run are exact. Together these cells end
    // batches at a sync op, at the cap and at thread end.
    let cell = |app, proto| Cell::new(app, proto, LayerConfig::base(), PROCS, Scale::Test);
    let pins = [
        // handoffs, ops_batched, flush_sync, flush_cap, flush_end, sim_ops
        (
            Cell::ideal("Barnes-original", PROCS, Scale::Test),
            [187, 6404, 169, 16, 0, 6404],
        ),
        (
            cell("Raytrace", Protocol::Hlrc),
            [52, 8932, 20, 28, 2, 8932],
        ),
        (cell("Volrend", Protocol::Sc), [40, 4692, 20, 16, 2, 4692]),
        (cell("Radix", Protocol::Rdma), [22, 2084, 12, 8, 0, 2084]),
    ];
    for (cell, want) in pins {
        let c = run(&cell, true).counters;
        let got = [
            c.handoffs,
            c.ops_batched,
            c.flush_sync,
            c.flush_cap,
            c.flush_end,
            c.sim_ops,
        ];
        assert_eq!(got, want, "{}", cell.label());
    }
}

#[test]
fn batching_cuts_handoffs_at_least_3x_on_every_app() {
    // The CI-assertable perf evidence: on a shared, noisy host the
    // handoff counter, not wall-clock, is the witness. A batch ends only
    // at a Lock, a Barrier, the batch cap or thread end, so handoffs are
    // a function of the op stream alone: every catalog app must drop by
    // >= 3x under HLRC and under one-sided RDMA alike.
    let mut short = Vec::new();
    for app in suite() {
        for proto in [Protocol::Hlrc, Protocol::Rdma] {
            let cell = Cell::new(app.name, proto, LayerConfig::base(), PROCS, Scale::Test);
            let batched = run(&cell, true).counters.handoffs;
            let unbatched = run(&cell, false).counters.handoffs;
            assert!(batched > 0, "{}: no handoffs counted", cell.label());
            let ratio = unbatched as f64 / batched as f64;
            if ratio < 3.0 {
                short.push(format!("{} {ratio:.1}x", cell.label()));
            }
        }
    }
    assert!(
        short.is_empty(),
        "below a 3x handoff reduction: {}",
        short.join(", ")
    );
}

#[test]
fn second_cell_of_a_sweep_spawns_no_threads() {
    // Catalog applications have async bodies, which the driver polls in
    // place: no cell of a sweep spawns or leases an application thread,
    // the first no more than the second. (Thread reuse across runs of a
    // sync workload is tested in the root package's tests/executors.rs.)
    let cells = [
        Cell::ideal("FFT", PROCS, Scale::Test),
        Cell::ideal("Radix", PROCS, Scale::Test),
    ];
    let run = Sweep::enumerate(&cells)
        .configure(&SweepCli {
            jobs: 1,
            no_cache: true,
            quiet: true,
            ..SweepCli::default()
        })
        .run();
    for (i, o) in run.outcomes.iter().enumerate() {
        let rec = match &o.status {
            CellStatus::Done(r) => r,
            other => panic!("cell {i} did not complete: {other:?}"),
        };
        assert_eq!(
            (rec.threads_spawned, rec.threads_reused),
            (0, 0),
            "{}: an inline cell uses no application thread",
            o.cell.label()
        );
    }
}
