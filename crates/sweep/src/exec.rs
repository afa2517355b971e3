//! The parallel sweep executor.
//!
//! Cells are embarrassingly parallel: each simulation runs on one thread,
//! shares no mutable state with its neighbours, and is deterministic. The
//! executor's coordinator, on the calling thread, deals unique uncached
//! cells to `--jobs` job threads (`ssm-sweep-N`, std only) and alone owns
//! the queues, the replay state, the cache and the counters. It provides:
//!
//! * **panic capture** — a diverging application/configuration reports as
//!   a failed cell instead of killing the sweep (the global panic hook is
//!   taught to stay quiet for the job threads);
//! * **wall-time limits** — a cell that exceeds `--timeout` is reported as
//!   timed out, and its job thread is abandoned (it exits once the cell
//!   returns, and its late report is ignored) and replaced by a fresh one;
//! * **deterministic ordering** — results come back in cell-enumeration
//!   order regardless of completion order;
//! * **caching** — completed cells append to the [`ResultStore`] as they
//!   finish, so an interrupted sweep resumes where it stopped;
//! * **shard merging** — once the cache is open, every
//!   `<results>/shards/*/sweep_cache.jsonl` written by `--shard i/N`
//!   workers (on this machine or copied back from others) is folded into
//!   it with [`ResultStore::merge_shards`]; cells the shards did not
//!   finish simply execute here. A conflicting shard record aborts the
//!   sweep (exit 1) and leaves the main cache untouched;
//! * **capture and replay** — cells that share a replay key (app, scale,
//!   procs, batching) feed the driver the same operation streams, so the
//!   first cell of a key runs live and records them, and the key's later
//!   cells replay the record under their own protocol and costs, without
//!   running the application (DESIGN.md §14). Cells are dealt to the job
//!   queues by key, so a key's cells follow each other on one job thread;
//! * **progress** — a live stderr line (done/total, cache hits, failures,
//!   ETA), and a completion line that counts replayed cells and aborted
//!   replays.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ssm_apps::catalog::{self, Scale};
use ssm_core::{FaultSpec, Protocol, ReplayLog, SimBuilder};

use crate::cell::Cell;
use crate::cli::SweepCli;
use crate::json::Json;
use crate::record::CellRecord;
use crate::shard::SHARDS_DIR;
use crate::store::{ResultStore, SUMMARY_FILE};

/// How a cell ended.
// `Done` dwarfs the other variants, but it is also the overwhelmingly
// common case; boxing it would cost an allocation per cell for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CellStatus {
    /// Completed (possibly with a verification failure — see
    /// [`CellRecord::verified`]).
    Done(CellRecord),
    /// The simulation panicked (deadlock, bad configuration, app bug).
    Failed(String),
    /// The per-cell wall-time limit expired.
    TimedOut(Duration),
}

/// One cell's outcome within a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The cell.
    pub cell: Cell,
    /// The cell's cache hash.
    pub hash: String,
    /// Whether the result came from the on-disk cache.
    pub cached: bool,
    /// Whether the cell was replayed from an earlier cell's capture.
    pub replayed: bool,
    /// The outcome.
    pub status: CellStatus,
}

/// The outcome of a sweep: per-cell results in enumeration order plus
/// execution statistics.
#[derive(Debug)]
pub struct SweepRun {
    /// Unique cells in first-occurrence order.
    pub outcomes: Vec<CellOutcome>,
    pub(crate) index: HashMap<String, usize>,
    /// Cells actually simulated during this run.
    pub executed: usize,
    /// Executed cells that were replayed from an earlier cell's capture.
    pub replayed: usize,
    /// Replays abandoned because the cell's lock grants left the capture;
    /// each such cell reran live.
    pub replays_aborted: usize,
    /// Cells served from the cache.
    pub cached: usize,
    /// Cells that failed or timed out.
    pub failed: usize,
    /// Detached simulation threads abandoned by timed-out cells. Each
    /// one keeps running (and holding memory) until its simulation
    /// finishes or the process exits — a nonzero count means the process
    /// is carrying zombie work.
    pub abandoned_threads: usize,
    /// Host wall time of the whole sweep, milliseconds.
    pub host_ms: u64,
}

impl SweepRun {
    /// The completed record for `cell`, if it succeeded (here or in the
    /// cache).
    pub fn record(&self, cell: &Cell) -> Option<&CellRecord> {
        match &self.outcomes.get(*self.index.get(&cell.hash())?)?.status {
            CellStatus::Done(rec) => Some(rec),
            _ => None,
        }
    }

    /// The outcome for `cell` (including failures), if it was in the
    /// sweep.
    pub fn outcome(&self, cell: &Cell) -> Option<&CellOutcome> {
        self.outcomes.get(*self.index.get(&cell.hash())?)
    }

    /// Speedup of `cell` against its application's sequential baseline
    /// (the one-processor ideal cell, which the sweep must also contain).
    pub fn speedup(&self, cell: &Cell) -> Option<f64> {
        let r = self.record(cell)?;
        let base = self.record(&Cell::baseline(&cell.app, cell.scale))?;
        if r.total_cycles == 0 {
            return None;
        }
        Some(base.total_cycles as f64 / r.total_cycles as f64)
    }

    /// Writes `bench_summary.json` into `dir`: sweep totals plus one entry
    /// per cell (a completed cell carries its cache record under `record`
    /// and its speedup when a baseline is available). This is the repo's
    /// machine-readable benchmark-trajectory output. The write is atomic
    /// (temp file, then rename), so a killed sweep never leaves a torn
    /// summary behind.
    pub fn write_summary(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let totals = Json::Obj(vec![
            (
                "schema".to_string(),
                Json::Str("ssm-sweep-summary/2".to_string()),
            ),
            (
                "cells_total".to_string(),
                Json::Int(self.outcomes.len() as u64),
            ),
            (
                "cells_executed".to_string(),
                Json::Int(self.executed as u64),
            ),
            ("cells_cached".to_string(), Json::Int(self.cached as u64)),
            ("cells_failed".to_string(), Json::Int(self.failed as u64)),
            (
                "abandoned_threads".to_string(),
                Json::Int(self.abandoned_threads as u64),
            ),
            ("host_ms".to_string(), Json::Int(self.host_ms)),
        ])
        .render();
        let path = dir.join(SUMMARY_FILE);
        let tmp = path.with_extension("json.tmp");
        let mut out = BufWriter::new(File::create(&tmp)?);
        // The cell entries follow the totals and are rendered and written
        // one at a time, so a large sweep's summary is never held in
        // memory whole.
        let open = totals
            .strip_suffix('}')
            .expect("an object renders with braces");
        write!(out, "{open},\"cells\":[")?;
        for (i, o) in self.outcomes.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(out, "{sep}{}", self.summary_entry(o).render())?;
        }
        writeln!(out, "]}}")?;
        out.into_inner()?;
        std::fs::rename(&tmp, &path)
    }

    /// One cell's `bench_summary.json` entry.
    fn summary_entry(&self, o: &CellOutcome) -> Json {
        let mut fields = vec![
            ("hash".to_string(), Json::Str(o.hash.clone())),
            ("label".to_string(), Json::Str(o.cell.label())),
            ("cell".to_string(), o.cell.to_json()),
            ("cached".to_string(), Json::Bool(o.cached)),
        ];
        match &o.status {
            CellStatus::Done(rec) => {
                fields.push(("status".to_string(), Json::Str("done".to_string())));
                fields.push(("record".to_string(), rec.to_json()));
                if let Some(s) = self.speedup(&o.cell) {
                    fields.push(("speedup".to_string(), Json::Num(s)));
                }
            }
            CellStatus::Failed(e) => {
                fields.push(("status".to_string(), Json::Str("failed".to_string())));
                fields.push(("error".to_string(), Json::Str(e.clone())));
            }
            CellStatus::TimedOut(d) => {
                fields.push(("status".to_string(), Json::Str("timeout".to_string())));
                fields.push(("timeout_ms".to_string(), Json::Int(d.as_millis() as u64)));
            }
        }
        Json::Obj(fields)
    }

    /// Prints the live progress line of a sweep that began at `started`:
    /// done/total, failures and an ETA.
    fn report_progress(&self, started: Instant) {
        let (done, total) = (self.cached + self.executed, self.outcomes.len());
        let mut line = format!("[ssm-sweep] {done}/{total} cells");
        if self.failed > 0 {
            line += &format!(", {} failed", self.failed);
        }
        if self.executed > 0 && done < total {
            let per_cell = started.elapsed().as_secs_f64() / self.executed as f64;
            line += &format!(", ETA {:.0}s", per_cell * (total - done) as f64);
        }
        eprintln!("{line}");
    }
}

/// Builds and runs the simulation for one cell. Panics propagate to the
/// caller (the executor turns them into failed cells).
pub fn execute(cell: &Cell) -> Result<CellRecord, String> {
    execute_with(cell, true)
}

/// [`execute`] with the sweep's batching toggle, which does not affect
/// simulated results. The cell always runs live.
pub fn execute_with(cell: &Cell, batching: bool) -> Result<CellRecord, String> {
    execute_planned(cell, batching, Plan::Live).map(|(rec, _)| rec)
}

/// The cells whose application bodies issue the same operation streams:
/// one application at one scale, processor count and batching setting.
/// The protocol, the layer costs, the SC block, the home policy and the
/// fault plan reach only the protocol and the machine; application code
/// sees only its `pid` and `nprocs` and the values it reads.
type ReplayKey = (String, Scale, usize, bool);

fn replay_key(cell: &Cell, batching: bool) -> ReplayKey {
    (cell.app.clone(), cell.scale, cell.procs, batching)
}

/// How a cell is to run.
enum Plan {
    Live,
    /// Live, recording a log for the key's later cells.
    Capture,
    Replay(Arc<ReplayLog>),
}

/// How a cell did run.
enum Ran {
    Live,
    /// Live; the log, unless it could not be written.
    Captured(Option<ReplayLog>),
    Replayed,
    /// The replay diverged and the cell reran live.
    Aborted,
}

/// Runs `cell` as `plan` says: a replay that diverges reruns live on a
/// fresh machine.
fn execute_planned(cell: &Cell, batching: bool, plan: Plan) -> Result<(CellRecord, Ran), String> {
    let spec =
        catalog::by_name(&cell.app).ok_or_else(|| format!("unknown application {:?}", cell.app))?;
    let started = Instant::now();
    let mut builder = SimBuilder::new(cell.protocol)
        .procs(cell.procs)
        .sc_block(cell.sc_block.unwrap_or(spec.sc_block))
        .home_policy(cell.homes)
        .batching(batching);
    if cell.protocol != Protocol::Ideal {
        builder = builder.comm(cell.comm.params()).proto(cell.proto.costs());
    }
    if cell.has_faults() {
        builder = builder.faults(FaultSpec::at(cell.fault_rate_ppm, cell.fault_seed));
    }
    let live = || builder.run(spec.build(cell.scale).as_ref());
    let (result, ran) = match plan {
        Plan::Live => (live(), Ran::Live),
        Plan::Capture => {
            let (result, log) = builder.capture(spec.build(cell.scale).as_ref());
            (result, Ran::Captured(log))
        }
        Plan::Replay(log) => match builder.replay(&log) {
            Some(result) => (result, Ran::Replayed),
            None => (live(), Ran::Aborted),
        },
    };
    let rec = CellRecord::from_run(cell.clone(), &result, started.elapsed().as_millis() as u64);
    Ok((rec, ran))
}

/// The replay state of one [`ReplayKey`] within a sweep.
struct KeyLog {
    /// The key's cells not yet started.
    unstarted: usize,
    log: LogState,
}

enum LogState {
    Idle,
    Capturing,
    Ready(Arc<ReplayLog>),
    /// A replay diverged: the key's remaining cells run live.
    LiveOnly,
}

impl KeyLog {
    /// Plans the key's next cell: replay a finished log; else capture one
    /// if a later cell could use it and no cell is capturing already; else
    /// run live. The sweep lets go of the log when its last cell starts.
    fn start(&mut self) -> Plan {
        self.unstarted -= 1;
        match &self.log {
            LogState::Ready(log) => {
                let log = Arc::clone(log);
                if self.unstarted == 0 {
                    self.log = LogState::Idle;
                }
                Plan::Replay(log)
            }
            LogState::Idle if self.unstarted > 0 => {
                self.log = LogState::Capturing;
                Plan::Capture
            }
            _ => Plan::Live,
        }
    }

    /// Takes in how a cell of this key ran (`None`: it failed or timed
    /// out); `capturing` says whether it was planned as the capture.
    fn finish(&mut self, capturing: bool, ran: Option<Ran>) {
        match ran {
            Some(Ran::Aborted) => self.log = LogState::LiveOnly,
            Some(Ran::Captured(Some(log))) if self.unstarted > 0 => {
                self.log = LogState::Ready(Arc::new(log));
            }
            _ if capturing => self.log = LogState::Idle,
            _ => {}
        }
    }
}

/// Name prefix of the sweep's job threads (`ssm-sweep-<slot>`).
const THREAD_PREFIX: &str = "ssm-sweep-";

/// Installs (once per process) a panic hook that suppresses the default
/// backtrace spew for panics on the sweep's job threads, which run every
/// cell, and with it the catalog's inline bodies, under `catch_unwind`.
/// The panic still unwinds and is reported as a failed cell; every other
/// thread keeps the previous hook's behavior.
fn install_panic_filter() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let name = std::thread::current().name().unwrap_or("").to_string();
            if !name.starts_with(THREAD_PREFIX) {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// What a job thread runs for a cell: [`execute_planned`], or a stand-in
/// in tests.
type Runner = fn(&Cell, bool, Plan) -> Result<(CellRecord, Ran), String>;

/// A cell for a job thread: its index in the sweep, the cell, its plan.
type Job = (usize, Cell, Plan);

/// A job thread's report: its slot, the cell's index and how it ended.
type Report = (usize, usize, Result<(CellRecord, Ran), String>);

/// Spawns the job thread of `slot`. It runs each cell it receives under
/// `catch_unwind`, reports on `done`, and exits when its job channel
/// closes (or the coordinator is gone).
fn spawn_job_thread(
    slot: usize,
    done: Sender<Report>,
    runner: Runner,
    batching: bool,
) -> (Sender<Job>, JoinHandle<()>) {
    let (tx, rx) = channel::<Job>();
    let thread = std::thread::Builder::new()
        .name(format!("{THREAD_PREFIX}{slot}"))
        .stack_size(8 << 20) // recursive applications outgrow the default
        .spawn(move || {
            for (i, cell, plan) in rx {
                let out = catch_unwind(AssertUnwindSafe(|| runner(&cell, batching, plan)))
                    .unwrap_or_else(|payload| Err(panic_message(payload)));
                if done.send((slot, i, out)).is_err() {
                    return;
                }
            }
        })
        .expect("failed to spawn a sweep job thread");
    (tx, thread)
}

/// One of the `--jobs` slots: its job thread, once started, and the cell
/// it is running.
#[derive(Default)]
struct Slot {
    thread: Option<(Sender<Job>, JoinHandle<()>)>,
    running: Option<Running>,
}

/// A cell in flight.
struct Running {
    index: usize,
    /// Planned as its key's capture.
    capturing: bool,
    deadline: Option<Instant>,
}

/// The in-process executor behind [`crate::Sweep::run`]: executes `cells`
/// (deduplicated by hash, first occurrence wins) and returns the outcomes
/// in enumeration order.
///
/// Unless `cli.no_cache`, the [`ResultStore`] opens and merges the shard
/// caches under `<results>/shards/` (a conflict is fatal: exit 1), cached
/// cells are served from it without executing, fresh results are appended
/// to it as they complete, and the sweep's `bench_summary.json` is
/// (re)written at the end.
pub(crate) fn run_local(cells: &[Cell], cli: &SweepCli) -> SweepRun {
    run_cells(cells, cli, execute_planned)
}

/// [`run_local`], with each cell run by `runner` on a job thread.
fn run_cells(cells: &[Cell], cli: &SweepCli, runner: Runner) -> SweepRun {
    install_panic_filter();
    let started = Instant::now();
    let progress_on = !cli.quiet;

    let mut store = if cli.no_cache {
        None
    } else {
        match ResultStore::open(&cli.results_dir) {
            Ok(mut s) => {
                if s.skipped() > 0 {
                    eprintln!(
                        "[ssm-sweep] warning: skipped {} unreadable cache line(s)",
                        s.skipped()
                    );
                }
                match s.merge_shards(&cli.results_dir.join(SHARDS_DIR)) {
                    Ok((added, duplicates)) if progress_on && added + duplicates > 0 => eprintln!(
                        "[ssm-sweep] merged shard caches: {added} new record(s), {duplicates} duplicate(s)"
                    ),
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("[ssm-sweep] fatal: {e}");
                        std::process::exit(1);
                    }
                }
                Some(s)
            }
            Err(e) => {
                eprintln!(
                    "[ssm-sweep] warning: cache disabled ({} unopenable: {e})",
                    cli.results_dir.display()
                );
                None
            }
        }
    };

    let mut run = SweepRun {
        outcomes: Vec::new(),
        index: HashMap::new(),
        executed: 0,
        replayed: 0,
        replays_aborted: 0,
        cached: 0,
        failed: 0,
        abandoned_threads: 0,
        host_ms: 0,
    };
    let mut misses: Vec<usize> = Vec::new();
    for cell in cells {
        let hash = cell.hash();
        if run.index.contains_key(&hash) {
            continue;
        }
        let rec = store.as_ref().and_then(|s| s.get(&hash));
        if rec.is_none() {
            misses.push(run.outcomes.len());
        }
        run.index.insert(hash.clone(), run.outcomes.len());
        run.outcomes.push(CellOutcome {
            cell: cell.clone(),
            hash,
            cached: rec.is_some(),
            replayed: false,
            // A miss's placeholder, replaced when its cell reports.
            status: rec.map_or_else(
                || CellStatus::Failed("not run".to_string()),
                CellStatus::Done,
            ),
        });
    }
    run.cached = run.outcomes.len() - misses.len();

    let jobs = cli.jobs.max(1).min(misses.len().max(1));
    if progress_on {
        eprintln!(
            "[ssm-sweep] {} cells ({} unique): {} cached, {} to run on {} worker(s)",
            cells.len(),
            run.outcomes.len(),
            run.cached,
            misses.len(),
            jobs
        );
    }

    // One queue per slot: each replay key's cells go to one queue in
    // enumeration order, so a key's later cells follow its capture on the
    // same job thread; keys are dealt round-robin.
    let batching = !cli.no_batching;
    let mut keys: HashMap<ReplayKey, usize> = HashMap::new();
    let mut key_of = vec![0; run.outcomes.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &i in &misses {
        let key = replay_key(&run.outcomes[i].cell, batching);
        key_of[i] = *keys.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[key_of[i]].push(i);
    }
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); jobs];
    for (k, group) in groups.iter().enumerate() {
        queues[k % jobs].extend(group);
    }
    let mut key_logs: Vec<KeyLog> = groups
        .iter()
        .map(|g| KeyLog {
            unstarted: g.len(),
            log: LogState::Idle,
        })
        .collect();

    let (done_tx, done_rx) = channel::<Report>();
    let mut slots: Vec<Slot> = (0..jobs).map(|_| Slot::default()).collect();
    loop {
        // An idle slot takes the front of its own queue, or else steals
        // from the back of another's.
        for (s, slot) in slots.iter_mut().enumerate() {
            if slot.running.is_some() {
                continue;
            }
            let next = queues[s]
                .pop_front()
                .or_else(|| (1..jobs).find_map(|d| queues[(s + d) % jobs].pop_back()));
            let Some(i) = next else { continue };
            let plan = key_logs[key_of[i]].start();
            slot.running = Some(Running {
                index: i,
                capturing: matches!(plan, Plan::Capture),
                // A limit past the end of time is no limit.
                deadline: cli.timeout.and_then(|t| Instant::now().checked_add(t)),
            });
            let (tx, _) = slot
                .thread
                .get_or_insert_with(|| spawn_job_thread(s, done_tx.clone(), runner, batching));
            tx.send((i, run.outcomes[i].cell.clone(), plan))
                .expect("an idle job thread listens");
        }
        if slots.iter().all(|s| s.running.is_none()) {
            break;
        }

        // Wait for a report, or until the earliest deadline passes. The
        // coordinator holds a sender, so the channel never disconnects.
        let deadline = slots
            .iter()
            .filter_map(|s| s.running.as_ref()?.deadline)
            .min();
        let report = match deadline {
            Some(d) => done_rx
                .recv_timeout(d.saturating_duration_since(Instant::now()))
                .ok(),
            None => done_rx.recv().ok(),
        };
        let mut finished: Vec<(Running, CellStatus, Option<Ran>)> = Vec::new();
        if let Some((s, i, out)) = report {
            // An abandoned thread's late report matches no running cell.
            if let Some(running) = slots[s].running.take_if(|r| r.index == i) {
                finished.push(match out {
                    Ok((rec, ran)) => (running, CellStatus::Done(rec), Some(ran)),
                    Err(e) => (running, CellStatus::Failed(e), None),
                });
            }
        } else {
            let now = Instant::now();
            for slot in &mut slots {
                let expired = |r: &mut Running| r.deadline.is_some_and(|d| d <= now);
                if let Some(running) = slot.running.take_if(expired) {
                    // Abandon the thread: dropping its job channel makes it
                    // exit once the cell returns. The slot starts a fresh
                    // one for its next cell.
                    slot.thread = None;
                    run.abandoned_threads += 1;
                    let limit = cli.timeout.expect("only a limited cell has a deadline");
                    finished.push((running, CellStatus::TimedOut(limit), None));
                }
            }
        }

        for (running, status, ran) in finished {
            let i = running.index;
            let replayed = matches!(ran, Some(Ran::Replayed));
            run.replayed += usize::from(replayed);
            run.replays_aborted += usize::from(matches!(ran, Some(Ran::Aborted)));
            key_logs[key_of[i]].finish(running.capturing, ran);
            if let CellStatus::Done(rec) = &status {
                if let Err(e) = store.as_mut().map_or(Ok(()), |s| s.append(rec.clone())) {
                    eprintln!("[ssm-sweep] warning: cache append failed: {e}");
                }
            } else {
                run.failed += 1;
            }
            run.outcomes[i].replayed = replayed;
            run.outcomes[i].status = status;
            run.executed += 1;
            if progress_on {
                run.report_progress(started);
            }
        }
    }
    for (tx, thread) in slots.into_iter().filter_map(|s| s.thread) {
        drop(tx);
        thread.join().expect("job threads catch panics");
    }

    run.host_ms = started.elapsed().as_millis() as u64;
    if !cli.no_cache {
        if let Err(e) = run.write_summary(&cli.results_dir) {
            eprintln!("[ssm-sweep] warning: summary write failed: {e}");
        }
    }
    if progress_on {
        let zombies = if run.abandoned_threads > 0 {
            format!(
                ", {} abandoned thread(s) still running",
                run.abandoned_threads
            )
        } else {
            String::new()
        };
        eprintln!(
            "[ssm-sweep] sweep complete: {} cells ({} executed, {} cached, {} failed, {} replayed, {} replays aborted{zombies}) in {:.1}s",
            run.outcomes.len(),
            run.executed,
            run.cached,
            run.failed,
            run.replayed,
            run.replays_aborted,
            run.host_ms as f64 / 1000.0
        );
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_apps::catalog::Scale;
    use ssm_core::LayerConfig;
    use ssm_stats::{Counters, ProtoActivity};

    fn cell(app: &str, procs: usize) -> Cell {
        Cell::new(app, Protocol::Hlrc, LayerConfig::base(), procs, Scale::Test)
    }

    /// Runs `cells` on one job thread, uncached and quiet, each cell by
    /// `runner`.
    fn sweep(cells: &[Cell], timeout: Option<Duration>, runner: Runner) -> SweepRun {
        let cli = SweepCli {
            timeout,
            jobs: 1,
            no_cache: true,
            quiet: true,
            ..SweepCli::default()
        };
        run_cells(cells, &cli, runner)
    }

    fn failure<'a>(run: &'a SweepRun, cell: &Cell) -> &'a str {
        match &run.outcome(cell).expect("in the sweep").status {
            CellStatus::Failed(msg) => msg,
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    /// Asserts that `cell` completed, verified, with the record a plain
    /// run gives.
    fn assert_ran(run: &SweepRun, cell: &Cell) {
        let rec = run.record(cell).expect("the cell completed");
        assert!(rec.verified);
        let want = execute(cell).expect("the cell runs");
        assert_eq!(rec.canonical(), want.canonical());
    }

    #[test]
    fn a_panicking_cell_fails_alone() {
        let cells = [cell("FFT", 0), cell("FFT", 2)];
        let run = sweep(&cells, None, execute_planned);
        let msg = failure(&run, &cells[0]);
        assert!(msg.contains("need at least one processor"), "{msg}");
        // The panic unwound through the job thread, which runs the next
        // cell normally.
        assert_ran(&run, &cells[1]);
        assert_eq!((run.executed, run.failed, run.abandoned_threads), (2, 1, 0));
    }

    /// Processor 1's body panics, or never reaches the barrier; the
    /// others wait at it.
    struct Broken {
        panics: bool,
    }

    impl ssm_proto::Workload for Broken {
        fn name(&self) -> String {
            "broken".into()
        }
        fn mem_bytes(&self) -> usize {
            1 << 16
        }
        fn spawn_async(
            &self,
            world: &mut ssm_proto::World,
            nprocs: usize,
        ) -> Option<Vec<ssm_proto::AsyncBody>> {
            let bar = world.alloc_barrier();
            let panics = self.panics;
            let bodies = (0..nprocs)
                .map(|pid| {
                    ssm_proto::async_body(move |p| async move {
                        p.compute(10);
                        if pid == 1 {
                            assert!(!panics, "body gave up");
                            return;
                        }
                        p.barrier(bar).await;
                    })
                })
                .collect();
            Some(bodies)
        }
    }

    /// Runs [`Broken`] for the cells named "panics" and "deadlocks", and
    /// every other cell as the sweep does.
    fn with_broken(cell: &Cell, batching: bool, plan: Plan) -> Result<(CellRecord, Ran), String> {
        let panics = match cell.app.as_str() {
            "panics" => true,
            "deadlocks" => false,
            _ => return execute_planned(cell, batching, plan),
        };
        let r = SimBuilder::new(Protocol::Hlrc)
            .procs(cell.procs)
            .run(&Broken { panics });
        Ok((CellRecord::from_run(cell.clone(), &r, 0), Ran::Live))
    }

    #[test]
    fn inline_body_failures_fail_only_their_cell() {
        let cells = [cell("panics", 3), cell("deadlocks", 3), cell("FFT", 2)];
        let run = sweep(&cells, None, with_broken);
        let msg = failure(&run, &cells[0]);
        assert!(msg.contains("P1") && msg.contains("body gave up"), "{msg}");
        let msg = failure(&run, &cells[1]);
        assert!(msg.contains("simulation deadlock"), "{msg}");
        assert!(msg.contains("P0@") && msg.contains("P2@"), "{msg}");
        assert!(!msg.contains("P1@"), "P1 finished: {msg}");
        assert_ran(&run, &cells[2]);
        assert_eq!((run.failed, run.abandoned_threads), (2, 0));
    }

    /// Sleeps far past any test's limit for the cell named "sleeps"; runs
    /// every other cell at once, as a dummy.
    fn sleepy(cell: &Cell, _: bool, _: Plan) -> Result<(CellRecord, Ran), String> {
        if cell.app == "sleeps" {
            std::thread::sleep(Duration::from_secs(5));
        }
        let rec = CellRecord {
            cell: cell.clone(),
            total_cycles: 1,
            per_proc: vec![[1, 0, 0, 0, 0, 0]; cell.procs],
            activity: ProtoActivity::default(),
            counters: Counters::default(),
            verified: true,
            verify_error: None,
            host_ms: 0,
            attempts: 1,
            threads_spawned: 0,
            threads_reused: 0,
        };
        Ok((rec, Ran::Live))
    }

    #[test]
    fn a_cell_past_its_limit_times_out_and_a_fresh_thread_takes_its_slot() {
        let limit = Duration::from_millis(20);
        let cells = [cell("sleeps", 2), cell("quick", 2)];
        let run = sweep(&cells, Some(limit), sleepy);
        let status = &run.outcome(&cells[0]).expect("in the sweep").status;
        assert_eq!(status, &CellStatus::TimedOut(limit));
        // The one slot's thread was abandoned; its replacement ran the
        // next cell.
        assert!(run.record(&cells[1]).is_some());
        assert_eq!((run.executed, run.failed, run.abandoned_threads), (2, 1, 1));
    }

    #[test]
    fn a_limit_too_far_to_reach_is_no_limit() {
        let cells = [cell("quick", 2)];
        let run = sweep(&cells, Some(Duration::MAX), sleepy);
        assert!(run.record(&cells[0]).is_some());
    }

    #[test]
    fn unknown_application_is_a_failed_cell() {
        let cells = [cell("No-Such-App", 2)];
        let run = sweep(&cells, None, execute_planned);
        let msg = failure(&run, &cells[0]);
        assert!(msg.contains("No-Such-App"), "{msg}");
    }

    fn key_log(cells: usize) -> KeyLog {
        KeyLog {
            unstarted: cells,
            log: LogState::Idle,
        }
    }

    /// A replay log of a small live run.
    fn captured() -> ReplayLog {
        let spec = catalog::by_name("FFT").expect("FFT");
        let (_, log) = SimBuilder::new(Protocol::Ideal)
            .procs(2)
            .capture(spec.build(Scale::Test).as_ref());
        log.expect("the log is written")
    }

    #[test]
    fn a_cell_captures_only_for_a_later_cell_of_its_key() {
        assert!(matches!(key_log(1).start(), Plan::Live));
        let mut key = key_log(3);
        assert!(matches!(key.start(), Plan::Capture));
        // One capture at a time: the next cell runs live meanwhile.
        assert!(matches!(key.start(), Plan::Live));
        // A capture that finishes after the key's last cell started is
        // not kept.
        assert!(matches!(key.start(), Plan::Live));
        key.finish(true, Some(Ran::Captured(Some(captured()))));
        assert!(matches!(key.log, LogState::Idle));
    }

    #[test]
    fn a_failed_capture_lets_the_next_cell_capture() {
        let mut key = key_log(3);
        assert!(matches!(key.start(), Plan::Capture));
        key.finish(true, None); // failed or timed out
        assert!(matches!(key.start(), Plan::Capture));
        key.finish(true, Some(Ran::Captured(None))); // the log was not written
        assert!(matches!(key.log, LogState::Idle));
    }

    #[test]
    fn an_aborted_replay_makes_the_rest_of_the_key_live() {
        let mut key = key_log(4);
        assert!(matches!(key.start(), Plan::Capture));
        key.finish(true, Some(Ran::Captured(Some(captured()))));
        assert!(matches!(key.start(), Plan::Replay(_)));
        key.finish(false, Some(Ran::Aborted));
        assert!(matches!(key.start(), Plan::Live));
        key.finish(false, Some(Ran::Live));
        assert!(matches!(key.start(), Plan::Live));
    }

    #[test]
    fn the_log_is_dropped_when_the_last_cell_of_its_key_starts() {
        let mut key = key_log(3);
        assert!(matches!(key.start(), Plan::Capture));
        key.finish(true, Some(Ran::Captured(Some(captured()))));
        let Plan::Replay(first) = key.start() else {
            panic!("the second cell replays")
        };
        assert_eq!(Arc::strong_count(&first), 2, "the key keeps the log");
        let Plan::Replay(last) = key.start() else {
            panic!("the last cell replays")
        };
        assert!(matches!(key.log, LogState::Idle));
        drop(first);
        assert_eq!(Arc::strong_count(&last), 1, "only the last replay holds it");
    }

    #[cfg(unix)]
    #[test]
    fn summary_rewrite_replaces_the_file_atomically() {
        use std::os::unix::fs::MetadataExt;
        let dir = std::env::temp_dir().join(format!("ssm-sweep-summary-{}", std::process::id()));
        let run = SweepRun {
            outcomes: Vec::new(),
            index: HashMap::new(),
            executed: 0,
            replayed: 0,
            replays_aborted: 0,
            cached: 0,
            failed: 0,
            abandoned_threads: 0,
            host_ms: 0,
        };
        let inode = || {
            std::fs::metadata(dir.join(SUMMARY_FILE))
                .expect("summary")
                .ino()
        };
        run.write_summary(&dir).expect("first write");
        let first = inode();
        run.write_summary(&dir).expect("rewrite");
        // A rename installs a new inode; an in-place truncate would not.
        assert_ne!(inode(), first, "summary rewritten in place");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
