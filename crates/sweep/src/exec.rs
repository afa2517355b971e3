//! The parallel sweep executor.
//!
//! Cells are embarrassingly parallel: each simulation is single-threaded
//! under the engine's baton, shares no mutable state with its neighbours,
//! and is deterministic. The executor therefore fans unique, uncached
//! cells out over a work-stealing pool of OS threads (std only), with:
//!
//! * **panic capture** — a diverging application/configuration reports as
//!   a failed cell instead of killing the sweep (the global panic hook is
//!   taught to stay quiet for sweep-owned threads);
//! * **wall-time limits** — a cell that exceeds `--timeout` is abandoned
//!   (its detached simulation thread's eventual result is discarded) and
//!   reported as timed out;
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
//! * **progress** — a live stderr line (done/total, cache hits, failures,
//!   ETA).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use ssm_apps::catalog;
use ssm_core::{FaultSpec, Protocol, SimBuilder};
use ssm_engine::{WorkerSet, WORKER_THREAD_PREFIX};

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
}

/// Builds and runs the simulation for one cell. Panics propagate to the
/// caller (the executor turns them into failed cells).
pub fn execute(cell: &Cell) -> Result<CellRecord, String> {
    execute_with(cell, None, true)
}

/// [`execute`] with the sweep's engine knobs: an optional shared
/// [`WorkerSet`] to recycle OS threads across cells, and the batching
/// toggle. Neither affects simulated results.
pub fn execute_with(
    cell: &Cell,
    workers: Option<&WorkerSet>,
    batching: bool,
) -> Result<CellRecord, String> {
    let spec =
        catalog::by_name(&cell.app).ok_or_else(|| format!("unknown application {:?}", cell.app))?;
    let started = Instant::now();
    let workload = spec.build(cell.scale);
    let mut builder = SimBuilder::new(cell.protocol)
        .procs(cell.procs)
        .sc_block(cell.sc_block.unwrap_or(spec.sc_block))
        .home_policy(cell.homes)
        .batching(batching);
    if let Some(ws) = workers {
        builder = builder.workers(ws.clone());
    }
    if cell.protocol != Protocol::Ideal {
        builder = builder.comm(cell.comm.params()).proto(cell.proto.costs());
    }
    if cell.has_faults() {
        builder = builder.faults(FaultSpec::at(cell.fault_rate_ppm, cell.fault_seed));
    }
    let result = builder.run(workload.as_ref());
    Ok(CellRecord::from_run(
        cell.clone(),
        &result,
        started.elapsed().as_millis() as u64,
    ))
}

/// Number of sweep cells currently in flight (used by the panic filter).
static ACTIVE_CELLS: AtomicUsize = AtomicUsize::new(0);

/// Installs (once per process) a panic hook that suppresses the default
/// backtrace spew for panics on sweep-owned threads — the pooled
/// `ssm-worker-N` threads that run both the per-cell guard jobs and the
/// engine's application threads — while cells are in flight. The panic
/// still unwinds and is reported as a failed cell; every other thread
/// keeps the previous hook's behavior.
fn install_panic_filter() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let name = std::thread::current().name().unwrap_or("").to_string();
            let owned =
                name.starts_with(WORKER_THREAD_PREFIX) && ACTIVE_CELLS.load(Ordering::SeqCst) > 0;
            if !owned {
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

/// Runs one cell on a leased worker thread, enforcing the wall-time
/// limit. Returns the status (never panics).
fn execute_with_limits(cell: &Cell, workers: &WorkerSet, cli: &SweepCli) -> CellStatus {
    let c = cell.clone();
    let ws = workers.clone();
    let batching = !cli.no_batching;
    run_guarded(workers, cli.timeout, move || {
        execute_with(&c, Some(&ws), batching)
    })
}

/// The guard around one cell execution: a leased worker thread, panic
/// capture, and the wall-time limit. Split from [`execute_with_limits`] so
/// the guard itself is testable with arbitrary workloads.
///
/// The result is delivered by the worker's *completion* closure, which
/// runs only after the worker has re-registered itself as idle — so by
/// the time this returns, the guard's worker (and, once the simulation's
/// own `ThreadPool` has dropped, its application workers) are parked and
/// ready for the next cell. That ordering is what makes "zero fresh
/// spawns on the second cell" deterministic.
fn run_guarded(
    workers: &WorkerSet,
    timeout: Option<Duration>,
    work: impl FnOnce() -> Result<CellRecord, String> + Send + 'static,
) -> CellStatus {
    let (tx, rx) = channel();
    ACTIVE_CELLS.fetch_add(1, Ordering::SeqCst);
    workers.submit(Box::new(move || {
        let out = match catch_unwind(AssertUnwindSafe(work)) {
            Ok(r) => r,
            Err(payload) => Err(panic_message(payload)),
        };
        Box::new(move || {
            let _ = tx.send(out);
        })
    }));
    let received = match timeout {
        Some(t) => rx.recv_timeout(t),
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
    };
    let status = match received {
        Ok(Ok(rec)) => CellStatus::Done(rec),
        Ok(Err(e)) => CellStatus::Failed(e),
        Err(RecvTimeoutError::Timeout) => {
            // Abandon the cell: its completion will land on a dropped
            // receiver, and its worker stays busy (unavailable for lease)
            // until the simulation finishes. A late panic on the zombie's
            // threads may print, which is acceptable for an
            // already-reported cell.
            drop(rx);
            ACTIVE_CELLS.fetch_sub(1, Ordering::SeqCst);
            return CellStatus::TimedOut(timeout.expect("timeout fired"));
        }
        Err(RecvTimeoutError::Disconnected) => {
            CellStatus::Failed("cell worker vanished without a result".to_string())
        }
    };
    ACTIVE_CELLS.fetch_sub(1, Ordering::SeqCst);
    status
}

struct Progress {
    total: usize,
    done: usize,
    executed: usize,
    failed: usize,
    abandoned: usize,
    started: Instant,
}

impl Progress {
    fn report(&self, enabled: bool) {
        if !enabled {
            return;
        }
        let eta = if self.executed > 0 && self.done < self.total {
            let per_cell = self.started.elapsed().as_secs_f64() / self.executed as f64;
            let remaining = (self.total - self.done) as f64;
            format!(", ETA {:.0}s", per_cell * remaining)
        } else {
            String::new()
        };
        let failures = if self.failed > 0 {
            format!(", {} failed", self.failed)
        } else {
            String::new()
        };
        eprintln!(
            "[ssm-sweep] {}/{} cells{failures}{eta}",
            self.done, self.total
        );
    }
}

/// Deduplicates `cells` by hash, first occurrence wins, preserving
/// enumeration order. Returns the hash→slot index and the unique
/// `(cell, hash)` list.
fn dedup_cells(cells: &[Cell]) -> (HashMap<String, usize>, Vec<(Cell, String)>) {
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut unique: Vec<(Cell, String)> = Vec::new();
    for cell in cells {
        let hash = cell.hash();
        index.entry(hash.clone()).or_insert_with(|| {
            unique.push((cell.clone(), hash));
            unique.len() - 1
        });
    }
    (index, unique)
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
    install_panic_filter();
    let sweep_started = Instant::now();
    let progress_on = !cli.quiet;

    let (index, unique) = dedup_cells(cells);

    let store = if cli.no_cache {
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

    let mut statuses: Vec<Option<CellStatus>> = vec![None; unique.len()];
    let mut cached_flags: Vec<bool> = vec![false; unique.len()];
    let mut misses: Vec<usize> = Vec::new();
    let mut cached = 0usize;
    for (i, (_, hash)) in unique.iter().enumerate() {
        if let Some(rec) = store.as_ref().and_then(|s| s.get(hash)) {
            statuses[i] = Some(CellStatus::Done(rec));
            cached_flags[i] = true;
            cached += 1;
        } else {
            misses.push(i);
        }
    }

    let jobs = cli.jobs.max(1).min(misses.len().max(1));
    if progress_on {
        eprintln!(
            "[ssm-sweep] {} cells ({} unique): {} cached, {} to run on {} worker(s)",
            cells.len(),
            unique.len(),
            cached,
            misses.len(),
            jobs
        );
    }

    // Work-stealing deques: cells are dealt round-robin; a worker pops its
    // own deque from the front and steals from the back of others'.
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (k, &i) in misses.iter().enumerate() {
        deques[k % jobs].lock().expect("deque").push_back(i);
    }

    // State shared by the workers: per-cell status slots, the open cache,
    // and progress accounting. One lock, taken once per finished cell.
    type SharedState<'a> = (
        &'a mut Vec<Option<CellStatus>>,
        Option<ResultStore>,
        Progress,
    );
    let shared_results: Mutex<SharedState> = Mutex::new((
        &mut statuses,
        store,
        Progress {
            total: unique.len(),
            done: cached,
            executed: 0,
            failed: 0,
            abandoned: 0,
            started: Instant::now(),
        },
    ));
    let unique_ref = &unique;
    let deques_ref = &deques;
    let shared = &shared_results;

    // One worker set per sweep: both the per-cell guard jobs and every
    // simulation's application threads lease OS threads from it, so cell
    // N+1 recycles cell N's threads instead of spawning.
    let workers = WorkerSet::new();
    let workers_ref = &workers;

    std::thread::scope(|scope| {
        for w in 0..jobs {
            scope.spawn(move || loop {
                let next = {
                    let mut own = deques_ref[w].lock().expect("deque");
                    own.pop_front()
                };
                let next = next.or_else(|| {
                    (1..jobs)
                        .find_map(|d| deques_ref[(w + d) % jobs].lock().expect("deque").pop_back())
                });
                let Some(i) = next else { break };
                let (cell, _) = &unique_ref[i];
                let status = execute_with_limits(cell, workers_ref, cli);
                let mut guard = shared.lock().expect("results");
                let (results, store, progress) = &mut *guard;
                if let CellStatus::Done(rec) = &status {
                    if let Some(s) = store.as_mut() {
                        if let Err(e) = s.append(rec.clone()) {
                            eprintln!("[ssm-sweep] warning: cache append failed: {e}");
                        }
                    }
                } else {
                    progress.failed += 1;
                }
                if matches!(status, CellStatus::TimedOut(_)) {
                    // The timed-out simulation keeps its worker busy.
                    progress.abandoned += 1;
                }
                results[i] = Some(status);
                progress.done += 1;
                progress.executed += 1;
                progress.report(progress_on);
            });
        }
    });

    let (executed, failed, abandoned_threads) = {
        let (_, _, progress) = shared_results.into_inner().expect("results");
        (progress.executed, progress.failed, progress.abandoned)
    };

    let outcomes: Vec<CellOutcome> = unique
        .iter()
        .zip(statuses.iter_mut())
        .zip(cached_flags.iter())
        .map(|(((cell, hash), status), &was_cached)| CellOutcome {
            cell: cell.clone(),
            hash: hash.clone(),
            cached: was_cached,
            status: status.take().expect("every cell resolved"),
        })
        .collect();

    let run = SweepRun {
        outcomes,
        index,
        executed,
        cached,
        failed,
        abandoned_threads,
        host_ms: sweep_started.elapsed().as_millis() as u64,
    };
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
            "[ssm-sweep] sweep complete: {} cells ({} executed, {} cached, {} failed{zombies}) in {:.1}s",
            run.outcomes.len(),
            run.executed,
            run.cached,
            run.failed,
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

    fn dummy_record() -> CellRecord {
        CellRecord {
            cell: Cell::new("FFT", Protocol::Hlrc, LayerConfig::base(), 2, Scale::Test),
            total_cycles: 1,
            per_proc: vec![[1, 0, 0, 0, 0, 0]; 2],
            activity: ProtoActivity::default(),
            counters: Counters::default(),
            verified: true,
            verify_error: None,
            host_ms: 0,
            attempts: 1,
            threads_spawned: 0,
            threads_reused: 0,
        }
    }

    #[test]
    fn guard_passes_results_through() {
        let workers = WorkerSet::new();
        let rec = dummy_record();
        let want = rec.clone();
        match run_guarded(&workers, None, move || Ok(rec)) {
            CellStatus::Done(got) => assert_eq!(got, want),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn guard_captures_panics_as_failed_cells() {
        install_panic_filter(); // keep the test log free of backtrace spew
        let workers = WorkerSet::new();
        match run_guarded(&workers, None, || panic!("cell exploded: {}", 7)) {
            CellStatus::Failed(msg) => assert!(msg.contains("cell exploded: 7"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        // The panic unwound through the leased worker; the set hands out a
        // fresh one and the caller keeps going.
        match run_guarded(&workers, None, || Err("soft failure".to_string())) {
            CellStatus::Failed(msg) => assert_eq!(msg, "soft failure"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn guard_enforces_wall_time_limit() {
        let workers = WorkerSet::new();
        let limit = Duration::from_millis(20);
        let status = run_guarded(&workers, Some(limit), move || {
            // Far beyond the limit; the guard abandons this thread.
            std::thread::sleep(Duration::from_secs(5));
            Ok(dummy_record())
        });
        assert_eq!(status, CellStatus::TimedOut(limit));
    }

    #[test]
    fn timed_out_cells_count_abandoned_threads() {
        // A timed-out cell detaches its simulation thread; the sweep must
        // count it.
        let cell = Cell::new("FFT", Protocol::Hlrc, LayerConfig::base(), 2, Scale::Test);
        let cli = SweepCli {
            timeout: Some(Duration::from_nanos(1)),
            jobs: 1,
            no_cache: true,
            quiet: true,
            ..SweepCli::default()
        };
        let run = run_local(&[cell], &cli);
        if matches!(run.outcomes[0].status, CellStatus::TimedOut(_)) {
            assert_eq!((run.failed, run.abandoned_threads), (1, 1));
        } else {
            // A 1ns budget losing the race is wildly unlikely but not
            // impossible on a loaded host; a completed cell abandons
            // nothing.
            assert_eq!((run.failed, run.abandoned_threads), (0, 0));
        }
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

    #[test]
    fn unknown_application_is_a_failed_cell() {
        let cell = Cell::new(
            "No-Such-App",
            Protocol::Hlrc,
            LayerConfig::base(),
            2,
            Scale::Test,
        );
        let err = execute(&cell).expect_err("unknown app");
        assert!(err.contains("No-Such-App"), "{err}");
    }
}
