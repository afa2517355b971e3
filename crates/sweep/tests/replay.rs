//! Capture and replay (DESIGN.md §14): a cell replayed from another
//! cell's capture must produce the record a live run produces, engine
//! counters included, and a replay whose lock grants leave the capture's
//! must be abandoned for a live run.

use std::cell::RefCell;

use ssm_apps::catalog::{self, suite, Scale};
use ssm_core::{LayerConfig, Protocol, RunResult, SimBuilder};
use ssm_proto::{Proc, SharedVec, ThreadBody, Workload, World};
use ssm_sweep::{execute_with, Cell, CellRecord, CellStatus, Sweep, SweepCli, SweepRun};

const PROCS: usize = 4;

const PROTOCOLS: [Protocol; 5] = [
    Protocol::Hlrc,
    Protocol::Aurc,
    Protocol::Sc,
    Protocol::ScDelayed,
    Protocol::Rdma,
];

fn sweep(cells: &[Cell], batching: bool) -> SweepRun {
    Sweep::enumerate(cells)
        .configure(&SweepCli {
            jobs: 1,
            no_cache: true,
            no_batching: !batching,
            quiet: true,
            ..SweepCli::default()
        })
        .run()
}

fn done(run: &SweepRun, i: usize) -> &CellRecord {
    match &run.outcomes[i].status {
        CellStatus::Done(rec) => rec,
        other => panic!("{}: {other:?}", run.outcomes[i].cell.label()),
    }
}

/// Requires every record of `run` to equal a live run of its cell, and
/// returns how many were replayed.
fn assert_all_live_identical(run: &SweepRun, batching: bool) -> usize {
    let mut replays = 0;
    for (i, o) in run.outcomes.iter().enumerate() {
        let rec = done(run, i);
        let live = execute_with(&o.cell, batching).expect("live run");
        assert_eq!(rec.canonical(), live.canonical(), "{}", o.cell.label());
        replays += usize::from(o.replayed);
    }
    replays
}

#[test]
fn replayed_records_equal_live_records_across_the_catalog() {
    // Per application: the ideal machine, every protocol at every figure-3
    // preset, and every protocol under one fault plan. With one worker the
    // first cell captures and the others replay, unless a replay diverges.
    let mut cells = Vec::new();
    for app in suite() {
        cells.push(Cell::ideal(app.name, PROCS, Scale::Test));
        for cfg in LayerConfig::figure3() {
            for proto in PROTOCOLS {
                cells.push(Cell::new(app.name, proto, cfg, PROCS, Scale::Test));
            }
        }
        for proto in PROTOCOLS {
            let cell = Cell::new(app.name, proto, LayerConfig::base(), PROCS, Scale::Test);
            cells.push(cell.with_faults(50_000, 7));
        }
    }
    let run = sweep(&cells, true);
    assert_eq!(run.failed, 0);
    let replays = assert_all_live_identical(&run, true);
    assert_eq!(replays, run.replayed);
    // A key either replays every cell after its capture, or aborts its
    // first replay and runs the rest live.
    let per_app = cells.len() / suite().len();
    let apps = suite().len();
    assert_eq!(
        run.replayed + run.replays_aborted * (per_app - 1),
        apps * (per_app - 1),
        "{} replayed, {} aborted",
        run.replayed,
        run.replays_aborted
    );
    assert!(
        run.replayed >= apps / 2 * (per_app - 1),
        "only {} of {} cells replayed",
        run.replayed,
        cells.len()
    );
}

#[test]
fn unbatched_captures_feed_only_unbatched_cells() {
    // In a --no-batching sweep every replayed record carries the
    // unbatched handoff signature and equals a live unbatched run.
    let cells: Vec<Cell> = ["FFT", "Radix"]
        .iter()
        .flat_map(|app| {
            [Protocol::Ideal, Protocol::Hlrc, Protocol::Sc]
                .map(|proto| Cell::new(app, proto, LayerConfig::base(), PROCS, Scale::Test))
        })
        .collect();
    let run = sweep(&cells, false);
    assert_eq!(assert_all_live_identical(&run, false), 4);
    for (i, cell) in cells.iter().enumerate() {
        let c = done(&run, i).counters;
        assert_eq!(c.handoffs, c.sim_ops + PROCS as u64, "{}", cell.label());
    }

    // And a log captured unbatched is refused by a batched run (and the
    // other way round).
    let spec = catalog::by_name("FFT").expect("FFT");
    for batching in [true, false] {
        let builder = SimBuilder::new(Protocol::Ideal)
            .procs(PROCS)
            .batching(batching);
        let (_, log) = builder.capture(spec.build(Scale::Test).as_ref());
        let log = log.expect("log");
        let other = SimBuilder::new(Protocol::Hlrc).procs(PROCS);
        assert!(other.clone().batching(!batching).replay(&log).is_none());
        assert!(other.batching(batching).replay(&log).is_some());
    }
}

/// `tasks` tasks handed out from one counter under one lock. A task's
/// compute depends on who takes it, so the order in which processors win
/// the lock, and hence which tasks each one runs, depends on protocol
/// timing.
struct TaskQueue {
    tasks: usize,
    owners: RefCell<Option<SharedVec<u64>>>,
}

impl TaskQueue {
    fn new() -> Self {
        TaskQueue {
            tasks: 64,
            owners: RefCell::new(None),
        }
    }
}

impl Workload for TaskQueue {
    fn name(&self) -> String {
        "task-queue".into()
    }

    fn mem_bytes(&self) -> usize {
        1 << 16
    }

    fn spawn(&self, world: &mut World, nprocs: usize) -> Vec<ThreadBody> {
        // [next task, owner of task 0, owner of task 1, ...]
        let v = world.alloc_vec::<u64>(self.tasks + 1);
        let lock = world.alloc_lock();
        *self.owners.borrow_mut() = Some(v.clone());
        let tasks = self.tasks as u64;
        (0..nprocs)
            .map(|pid| {
                let v = v.clone();
                let body: ThreadBody = Box::new(move |p: &Proc<'_>| loop {
                    let t = p.with_lock(lock, || {
                        let t = v.get(p, 0);
                        v.set(p, 0, t + 1);
                        t
                    });
                    if t >= tasks {
                        break;
                    }
                    p.compute(500 + 700 * pid as u64 + 13 * t);
                    v.set(p, 1 + t as usize, pid as u64 + 1);
                });
                body
            })
            .collect()
    }

    fn verify(&self) -> Result<(), String> {
        let v = self.owners.borrow();
        let v = v.as_ref().expect("spawned");
        match (1..v.len()).find(|&i| v.get_direct(i) == 0) {
            Some(i) => Err(format!("task {} never ran", i - 1)),
            None => Ok(()),
        }
    }
}

fn same(a: &RunResult, b: &RunResult) -> bool {
    (
        a.total_cycles,
        &a.per_proc,
        a.activity,
        a.counters,
        &a.verify_error,
    ) == (
        b.total_cycles,
        &b.per_proc,
        b.activity,
        b.counters,
        &b.verify_error,
    )
}

#[test]
fn a_replay_whose_grants_diverge_is_abandoned() {
    let ideal = SimBuilder::new(Protocol::Ideal).procs(PROCS);
    let (live, log) = ideal.capture(&TaskQueue::new());
    assert!(live.verify_error.is_none(), "{:?}", live.verify_error);
    let log = log.expect("log");
    // The capture stands for its own configuration, threads aside.
    let again = ideal.replay(&log).expect("same timing, same grants");
    assert!(same(&again, &live));
    assert_eq!((again.threads_spawned, again.threads_reused), (0, 0));
    // Under HLRC lock handoffs cost messages, the processors win the lock
    // in another order, and the replay must stop.
    let hlrc = SimBuilder::new(Protocol::Hlrc).procs(PROCS);
    assert!(hlrc.replay(&log).is_none());
    let live_hlrc = hlrc.run(&TaskQueue::new());
    assert!(live_hlrc.verify_error.is_none());
    assert!(!same(&live_hlrc, &live));
}

#[test]
fn a_diverged_key_reruns_live_and_stays_live() {
    // Volrend's task queue grants in another order under every protocol:
    // its second cell's replay aborts and reruns live, and the key's later
    // cells run live without trying again.
    let cells: Vec<Cell> = [
        Protocol::Ideal,
        Protocol::Hlrc,
        Protocol::Sc,
        Protocol::Rdma,
    ]
    .map(|proto| Cell::new("Volrend", proto, LayerConfig::base(), PROCS, Scale::Test))
    .to_vec();
    let run = sweep(&cells, true);
    assert_eq!((run.replayed, run.replays_aborted), (0, 1));
    assert_eq!(assert_all_live_identical(&run, true), 0);
}

#[cfg(unix)]
#[test]
fn a_sweep_leaves_no_replay_log_behind() {
    let cells: Vec<Cell> = [Protocol::Ideal, Protocol::Hlrc]
        .map(|proto| {
            Cell::new(
                "LU-Contiguous",
                proto,
                LayerConfig::base(),
                PROCS,
                Scale::Test,
            )
        })
        .to_vec();
    let run = sweep(&cells, true);
    assert_eq!(run.replayed, 1);
    let ours = format!("ssm-replay-{}-", std::process::id());
    let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(&ours))
        .collect();
    assert!(left.is_empty(), "replay logs left behind: {left:?}");
}
