//! Behavioral tests of the parallel executor: deterministic ordering
//! independent of worker count, duplicate collapsing, failed cells that
//! don't kill the sweep, and the resumable on-disk cache.

use std::path::PathBuf;

use ssm_apps::catalog::Scale;
use ssm_core::{LayerConfig, Protocol};
use ssm_sweep::{Cell, CellStatus, Json, Sweep, SweepCli, CACHE_FILE, SUMMARY_FILE};

fn run_sweep(cells: &[Cell], cli: &SweepCli) -> ssm_sweep::SweepRun {
    Sweep::enumerate(cells).configure(cli).run()
}

fn quiet_cli() -> SweepCli {
    SweepCli {
        jobs: 2,
        no_cache: true,
        quiet: true,
        ..SweepCli::default()
    }
}

fn small_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in ["FFT", "Radix"] {
        cells.push(Cell::baseline(app, Scale::Test));
        cells.push(Cell::ideal(app, 2, Scale::Test));
        for proto in [Protocol::Hlrc, Protocol::Sc] {
            cells.push(Cell::new(app, proto, LayerConfig::base(), 2, Scale::Test));
        }
    }
    cells
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ssm-sweep-exec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn ordering_is_deterministic_across_worker_counts() {
    let cells = small_cells();
    let serial = run_sweep(
        &cells,
        &SweepCli {
            jobs: 1,
            ..quiet_cli()
        },
    );
    let parallel = run_sweep(
        &cells,
        &SweepCli {
            jobs: 4,
            ..quiet_cli()
        },
    );
    assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
    for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(a.hash, b.hash, "enumeration order differs");
        // The simulator is deterministic, so parallel execution must
        // reproduce serial results cycle-for-cycle. Host wall time and the
        // thread-recycling stats are the legitimately nondeterministic
        // fields (the latter depend on how warm the worker pool is when
        // the cell starts), matching what `CellRecord::canonical` zeroes.
        match (&a.status, &b.status) {
            (CellStatus::Done(x), CellStatus::Done(y)) => {
                let mut y = y.clone();
                y.host_ms = x.host_ms;
                y.threads_spawned = x.threads_spawned;
                y.threads_reused = x.threads_reused;
                assert_eq!(*x, y);
            }
            other => panic!("unexpected statuses {other:?}"),
        }
    }
}

#[test]
fn fault_injection_is_deterministic_across_runs_and_workers() {
    // Same (seed, rate) must produce the same injected-fault schedule —
    // and hence bit-identical records — on every rerun and under any
    // worker count (each cell's simulation is single-threaded).
    let cells: Vec<Cell> = ["FFT", "Radix"]
        .iter()
        .flat_map(|app| {
            [Protocol::Hlrc, Protocol::Sc].map(|proto| {
                Cell::new(app, proto, LayerConfig::base(), 2, Scale::Test).with_faults(50_000, 7)
            })
        })
        .collect();
    let serial = run_sweep(
        &cells,
        &SweepCli {
            jobs: 1,
            ..quiet_cli()
        },
    );
    let parallel = run_sweep(
        &cells,
        &SweepCli {
            jobs: 4,
            ..quiet_cli()
        },
    );
    for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
        match (&a.status, &b.status) {
            (CellStatus::Done(x), CellStatus::Done(y)) => {
                assert!(
                    x.verified,
                    "{}: wrong result under faults: {:?}",
                    a.cell.label(),
                    x.verify_error
                );
                assert!(
                    x.counters.faults_injected() > 0,
                    "{}: no faults fired at 5% per class",
                    a.cell.label()
                );
                assert_eq!(
                    x.counters.retransmissions,
                    x.counters.faults_dropped,
                    "{}: reliable delivery retransmits once per loss",
                    a.cell.label()
                );
                let mut y = y.clone();
                y.host_ms = x.host_ms;
                y.threads_spawned = x.threads_spawned;
                y.threads_reused = x.threads_reused;
                assert_eq!(
                    *x,
                    y,
                    "{}: fault schedule varies with worker count",
                    a.cell.label()
                );
            }
            other => panic!("unexpected statuses {other:?}"),
        }
    }
}

#[test]
fn duplicate_cells_collapse_to_one_execution() {
    let one = Cell::ideal("FFT", 2, Scale::Test);
    let run = run_sweep(&[one.clone(), one.clone(), one.clone()], &quiet_cli());
    assert_eq!(run.outcomes.len(), 1);
    assert_eq!(run.executed, 1);
    assert!(run.record(&one).is_some());
}

#[test]
fn failed_cells_do_not_kill_the_sweep() {
    let good = Cell::ideal("FFT", 2, Scale::Test);
    let bad = Cell::new(
        "No-Such-App",
        Protocol::Hlrc,
        LayerConfig::base(),
        2,
        Scale::Test,
    );
    let run = run_sweep(&[bad.clone(), good.clone()], &quiet_cli());
    assert_eq!(run.failed, 1);
    assert!(run.record(&good).is_some(), "good cell still completes");
    match &run.outcome(&bad).expect("outcome kept").status {
        CellStatus::Failed(e) => assert!(e.contains("No-Such-App"), "{e}"),
        other => panic!("expected Failed, got {other:?}"),
    }
}

#[test]
fn rerun_completes_entirely_from_cache() {
    let dir = tmpdir("cache");
    let cells = small_cells();
    let opts = SweepCli {
        no_cache: false,
        results_dir: dir.clone(),
        ..quiet_cli()
    };
    let first = run_sweep(&cells, &opts);
    assert_eq!(first.cached, 0);
    assert_eq!(first.executed, first.outcomes.len());

    // One JSONL line per executed cell.
    let cache = std::fs::read_to_string(dir.join(CACHE_FILE)).expect("cache file");
    assert_eq!(cache.lines().count(), first.executed);

    // The summary is valid JSON with one entry per cell.
    let summary = std::fs::read_to_string(dir.join(SUMMARY_FILE)).expect("summary");
    let summary = Json::parse(summary.trim()).expect("summary parses");
    assert_eq!(
        summary
            .get("cells")
            .and_then(|c| c.as_arr())
            .map(<[Json]>::len),
        Some(first.outcomes.len())
    );

    let second = run_sweep(&cells, &opts);
    assert_eq!(second.executed, 0, "rerun must be all cache hits");
    assert_eq!(second.cached, first.outcomes.len());
    for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.status, b.status, "cached result differs from fresh");
        assert!(b.cached);
    }

    // A new cell joins without invalidating the cache (resumable sweep).
    let mut extended = cells.clone();
    extended.push(Cell::new(
        "FFT",
        Protocol::Aurc,
        LayerConfig::base(),
        2,
        Scale::Test,
    ));
    let third = run_sweep(&extended, &opts);
    assert_eq!(third.executed, 1);
    assert_eq!(third.cached, cells.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_cache_runs_do_not_touch_disk() {
    let dir = tmpdir("nocache");
    let opts = SweepCli {
        results_dir: dir.clone(),
        ..quiet_cli()
    };
    let run = run_sweep(&[Cell::ideal("FFT", 2, Scale::Test)], &opts);
    assert_eq!(run.executed, 1);
    assert!(!dir.exists(), "no-cache sweep created {dir:?}");
}
