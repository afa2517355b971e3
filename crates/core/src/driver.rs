//! The execution-driven simulation loop.
//!
//! The driver owns the [`Machine`], the protocol and the application
//! bodies, and advances them in simulated-time order: at every step it
//! resumes the *ready* processor with the smallest clock, hands the
//! operation it yields to the protocol, and attributes the elapsed window
//! to the right time bucket.
//!
//! # Two executors
//!
//! A workload's bodies run one of two ways, chosen by what it provides
//! (no option selects it):
//!
//! * **inline**, for async bodies ([`Workload::spawn_async`], the whole
//!   catalog): the live feed polls processor `p`'s future with a no-op
//!   waker whenever the driver wants `p`'s next batch. `Pending`
//!   means the body sealed a batch, at the cap or at a sync operation;
//!   `Ready` means it returned. Everything runs on the driver's thread:
//!   no OS thread per processor and no handoff syscall.
//! * **on threads**, for sync bodies ([`Workload::spawn`] alone): the
//!   live feed resumes each body's OS thread over the engine's baton.
//!
//! Both feed the same loop, so a run's record, engine counters included,
//! is the same either way; only `threads_spawned`/`threads_reused` (zero
//! inline) and host time differ.
//!
//! # Window accounting
//!
//! For every operation window `[t0, t1]` the protocol has already charged
//! some cycles to this processor's buckets (protocol work, cache stalls).
//! The driver charges the *remainder* `t1 - t0 - charged` to the
//! operation's designated bucket (data wait for reads/writes, lock wait for
//! lock operations, barrier wait for barriers). Handler service performed
//! for other nodes lands in this processor's Protocol bucket at the moment
//! it executes, so bucket sums track wall time closely (small deviations
//! can occur when a handler slips into an already-closed window; the
//! remainder rule saturates at zero).
//!
//! # Batched handoffs
//!
//! Bodies run against a handle ([`Cpu`] or [`Proc`]) that hands every
//! operation up to the next `Lock` or `Barrier` to the driver as one
//! batch, up to [`BATCH_CAP`] operations (one when batching is off). The
//! driver queues each batch per processor and replays it **one operation
//! per scheduling step**: a step either pops the next queued operation or
//! — only when the queue is empty — resumes the body for more. The
//! operation stream each processor feeds the protocol, and the order the
//! scheduler interleaves the processors, are therefore exactly those of
//! an unbatched run, and every simulated result of a data-race-free workload
//! is byte-identical; only the handoff counters differ (see
//! [`ssm_proto::vm`]).
//!
//! # Capture and replay
//!
//! The loop takes its batches from a feed. A live run's feed resumes the
//! application bodies, and [`run_captured`] also records what they hand
//! over into a [`ReplayLog`]. [`run_replayed`] feeds the same loop from
//! such a log, under another protocol or other layer costs, with no
//! threads and no world; it stops at the first lock grant the log did not
//! record. The loop is the same either way, so the engine counters
//! (`handoffs`, `ops_batched`, the flush causes) come out exactly as in a
//! live run.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::task::{Context, Poll, Waker};

use ssm_engine::{Cycles, Resumed, ThreadId, ThreadPool, WorkerSet};
use ssm_proto::{
    Batch, BodyFuture, Cpu, Flush, LockId, Machine, Op, Proc, Protocol as ProtocolTrait, Workload,
    World, WorldShape, BATCH_CAP,
};
use ssm_stats::Bucket;

use crate::replay::{Recorder, ReplayLog};
use crate::result::RunResult;

/// Host-side engine knobs. None of them affect simulated results — they
/// trade OS context switches and thread spawns for bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Recycle OS threads from this set instead of spawning per run (sync
    /// thread bodies only; async bodies use no thread).
    pub workers: Option<WorkerSet>,
    /// Hand every operation up to the next `Lock`/`Barrier` over in one
    /// baton exchange (see [`ssm_proto::vm`] module docs); off, each
    /// operation is a one-op batch of its own. On by default.
    pub batching: Batching,
}

/// Whether operation batching is enabled (newtype so the default is *on*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batching(pub bool);

impl Default for Batching {
    fn default() -> Self {
        Batching(true)
    }
}

/// What a blocked processor waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    Lock(LockId),
    Barrier,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    Ready,
    Blocked {
        since: Cycles,
        bucket_total_before: u64,
        wait: Wait,
    },
    Done,
}

/// Runs `workload` with default [`EngineOptions`] (batching on, private
/// thread pool). See [`run_simulation_with`].
pub fn run_simulation(
    protocol: &mut dyn ProtocolTrait,
    workload: &dyn Workload,
    nprocs: usize,
    machine: Machine,
) -> RunResult {
    run_simulation_with(
        protocol,
        workload,
        nprocs,
        machine,
        &EngineOptions::default(),
    )
}

/// Runs `workload` on `nprocs` simulated processors under `protocol`,
/// against an already-built [`Machine`]. Returns the measured result.
///
/// # Panics
///
/// * if the workload does not return exactly `nprocs` bodies,
/// * on deadlock (every unfinished processor blocked — e.g. a barrier that
///   not all processors reach),
/// * if an application body panics; the message names its processor.
pub fn run_simulation_with(
    protocol: &mut dyn ProtocolTrait,
    workload: &dyn Workload,
    nprocs: usize,
    machine: Machine,
    opts: &EngineOptions,
) -> RunResult {
    run_live(protocol, workload, nprocs, machine, opts, false).0
}

/// [`run_simulation_with`], also recording the run into a [`ReplayLog`]
/// for [`run_replayed`]. The log is `None` when it could not be written
/// (no temporary file, a failed write); the run is unaffected.
///
/// # Panics
///
/// As [`run_simulation_with`].
pub fn run_captured(
    protocol: &mut dyn ProtocolTrait,
    workload: &dyn Workload,
    nprocs: usize,
    machine: Machine,
    opts: &EngineOptions,
) -> (RunResult, Option<ReplayLog>) {
    run_live(protocol, workload, nprocs, machine, opts, true)
}

/// Runs the application captured in `log` under `protocol` on `machine`,
/// feeding the driver loop from the log instead of from application
/// threads: no thread starts and no world is built. Every lock grant is
/// checked against the log. `None` means the log cannot stand for this
/// run, which must then run live on a fresh machine: the run's
/// synchronization order left the log's, the log's file could not be read
/// back, or the log was captured at another processor count or batching
/// setting. A run that completes is identical to a live run of the
/// workload, except that it reports no threads.
///
/// # Panics
///
/// On deadlock.
pub fn run_replayed(
    protocol: &mut dyn ProtocolTrait,
    log: &ReplayLog,
    nprocs: usize,
    mut machine: Machine,
    batching: Batching,
) -> Option<RunResult> {
    assert_eq!(machine.nprocs(), nprocs, "machine size must match nprocs");
    if log.nprocs() != nprocs || log.batching() != batching {
        return None;
    }
    protocol.init(&machine, log.shape());
    let mut feed = Replay {
        log,
        next_batch: vec![0; nprocs],
        next_grant: vec![0; log.shape().nlocks],
        buf: Vec::new(),
    };
    drive(protocol, &mut machine, &mut feed, log.app()).ok()?;
    Some(summarize(
        protocol,
        &mut machine,
        log.app().to_string(),
        log.verify_error(),
        (0, 0),
    ))
}

/// A live run, recording it when `capture` is set and a log can be opened.
/// Async bodies run inline on this thread; thread bodies run on the
/// engine's threads.
fn run_live(
    protocol: &mut dyn ProtocolTrait,
    workload: &dyn Workload,
    nprocs: usize,
    mut machine: Machine,
    opts: &EngineOptions,
    capture: bool,
) -> (RunResult, Option<ReplayLog>) {
    assert_eq!(machine.nprocs(), nprocs, "machine size must match nprocs");
    let mut world = World::new(workload.mem_bytes());
    let one_each = |n: usize, kind: &str| {
        assert_eq!(n, nprocs, "workload must produce one {kind} per processor");
    };
    let cap = if opts.batching.0 { BATCH_CAP } else { 1 };
    let bodies = match workload.spawn_async(&mut world, nprocs) {
        Some(bodies) => {
            one_each(bodies.len(), "async body");
            let tasks = bodies.into_iter().enumerate().map(|(pid, body)| {
                let cpu = Cpu::new(pid, nprocs, cap);
                Task {
                    body: Some(body(cpu.clone())),
                    cpu,
                }
            });
            Bodies::Inline(tasks.collect())
        }
        None => {
            let bodies = workload.spawn(&mut world, nprocs);
            one_each(bodies.len(), "thread body");
            let mut pool = match &opts.workers {
                Some(ws) => ThreadPool::with_workers(ws.clone()),
                None => ThreadPool::new(),
            };
            for (pid, body) in bodies.into_iter().enumerate() {
                pool.spawn(move |y| {
                    let proc = Proc::new(y, pid, nprocs, cap);
                    body(&proc);
                    proc.finish();
                });
            }
            Bodies::Threads(pool)
        }
    };
    let shape = WorldShape {
        heap_bytes: world.used().max(1),
        nlocks: world.lock_count() as usize,
        nbarriers: world.barrier_count() as usize,
    };
    protocol.init(&machine, &shape);

    let mut feed = Live {
        bodies,
        recorder: capture
            .then(|| Recorder::new(nprocs, shape, opts.batching).ok())
            .flatten(),
    };
    let name = workload.name();
    if drive(protocol, &mut machine, &mut feed, &name).is_err() {
        unreachable!("a live feed never stops a run");
    }
    let verify_error = workload.verify().err();
    let (spawned, reused) = match &feed.bodies {
        Bodies::Threads(pool) => pool.thread_stats(),
        Bodies::Inline(_) => (0, 0),
    };
    let log = feed
        .recorder
        .and_then(|r| r.finish(name.clone(), verify_error.clone()));
    let result = summarize(
        protocol,
        &mut machine,
        name,
        verify_error,
        (spawned as u64, reused as u64),
    );
    (result, log)
}

/// A replay cannot go on: its sync order left the log's, or the log could
/// not be read back.
struct Abandon;

/// Where the driver loop's batches come from.
trait Feed {
    /// Appends processor `p`'s next batch to `queue` and returns why it
    /// ended, or `None` once `p`'s body has finished.
    fn next_batch(&mut self, p: usize, queue: &mut VecDeque<Op>) -> Result<Option<Flush>, Abandon>;

    /// `lock` was just granted to `p`.
    fn granted(&mut self, lock: LockId, p: usize) -> Result<(), Abandon>;
}

/// The application bodies, run live; optionally recorded.
struct Live {
    bodies: Bodies,
    recorder: Option<Recorder>,
}

/// How a live run's bodies execute.
enum Bodies {
    /// Sync bodies, each on its own thread behind the baton.
    Threads(ThreadPool<Batch>),
    /// Async bodies, polled in place on the driver's thread: a body runs
    /// only while the driver asks it for its next batch, so one thread
    /// runs every processor and the simulator in turn.
    Inline(Vec<Task>),
}

/// One async body and its processor's handle.
struct Task {
    cpu: Cpu,
    /// `None` once the body has returned.
    body: Option<BodyFuture>,
}

impl Task {
    /// Processor `p`'s next batch, polling its body if it has none
    /// sealed; `None` once the body returned and its tail was handed over.
    fn next_batch(&mut self, p: usize) -> Option<Batch> {
        if let Some(batch) = self.cpu.take_batch() {
            // A body that sealed two batches at one await point hands the
            // second over without being polled.
            return Some(batch);
        }
        let body = self.body.as_mut()?;
        let mut cx = Context::from_waker(Waker::noop());
        match catch_unwind(AssertUnwindSafe(|| body.as_mut().poll(&mut cx))) {
            Ok(Poll::Pending) => Some(self.cpu.take_batch().unwrap_or_else(|| {
                panic!("P{p}'s body awaited something other than its processor's operations")
            })),
            Ok(Poll::Ready(())) => {
                self.body = None;
                self.cpu.finish();
                self.cpu.take_batch()
            }
            Err(e) => panic!("simulated processor P{p} panicked: {}", panic_text(&*e)),
        }
    }
}

impl Feed for Live {
    fn next_batch(&mut self, p: usize, queue: &mut VecDeque<Op>) -> Result<Option<Flush>, Abandon> {
        let batch = match &mut self.bodies {
            Bodies::Threads(pool) => match pool.resume(ThreadId(p)) {
                Resumed::Finished => None,
                Resumed::Op(batch) => Some(batch),
            },
            Bodies::Inline(tasks) => tasks[p].next_batch(p),
        };
        Ok(batch.map(|(ops, flush)| {
            if let Some(r) = &mut self.recorder {
                r.batch(p, &ops, flush);
            }
            queue.extend(ops);
            flush
        }))
    }

    fn granted(&mut self, lock: LockId, p: usize) -> Result<(), Abandon> {
        if let Some(r) = &mut self.recorder {
            r.grant(lock, p);
        }
        Ok(())
    }
}

/// The message of a panic payload.
fn panic_text(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// A captured run, read back batch by batch.
struct Replay<'a> {
    log: &'a ReplayLog,
    /// Per processor, the index of its next batch.
    next_batch: Vec<usize>,
    /// Per lock, how many grants have been checked.
    next_grant: Vec<usize>,
    buf: Vec<u8>,
}

impl Feed for Replay<'_> {
    fn next_batch(&mut self, p: usize, queue: &mut VecDeque<Op>) -> Result<Option<Flush>, Abandon> {
        let i = self.next_batch[p];
        self.next_batch[p] += 1;
        self.log
            .batch(p, i, &mut self.buf, queue)
            .map_err(|_| Abandon)
    }

    fn granted(&mut self, lock: LockId, p: usize) -> Result<(), Abandon> {
        let n = &mut self.next_grant[lock.0 as usize];
        *n += 1;
        match self.log.grant(lock, *n - 1) {
            Some(q) if q == p => Ok(()),
            _ => Err(Abandon),
        }
    }
}

/// The scheduling loop, shared by live and replayed runs.
fn drive(
    protocol: &mut dyn ProtocolTrait,
    m: &mut Machine,
    feed: &mut impl Feed,
    name: &str,
) -> Result<(), Abandon> {
    let nprocs = m.nprocs();
    let mut state = vec![PState::Ready; nprocs];
    // Operations received in a batch but not yet replayed, per processor.
    let mut queued: Vec<VecDeque<Op>> = vec![VecDeque::new(); nprocs];
    let mut done = 0usize;
    while done < nprocs {
        // Pick the ready processor with the smallest clock (determinism:
        // ties break toward the lower pid).
        let p = (0..nprocs)
            .filter(|&q| state[q] == PState::Ready)
            .min_by_key(|&q| (m.clock[q], q));
        let Some(p) = p else {
            let blocked: Vec<String> = (0..nprocs)
                .filter(|&q| !matches!(state[q], PState::Done))
                .map(|q| format!("P{q}@{}", m.clock[q]))
                .collect();
            panic!(
                "simulation deadlock in {name}: all unfinished processors blocked: {}",
                blocked.join(", ")
            );
        };

        // One operation per step: replay from the processor's queue, and
        // only hand the baton over when the queue is dry.
        let next = match queued[p].pop_front() {
            Some(op) => Some(op),
            None => {
                m.counters_mut(p).handoffs += 1;
                let queue = &mut queued[p];
                match feed.next_batch(p, queue)? {
                    None => None,
                    Some(flush) => {
                        let c = m.counters_mut(p);
                        c.ops_batched += queue.len() as u64;
                        match flush {
                            Flush::Sync => c.flush_sync += 1,
                            Flush::Cap => c.flush_cap += 1,
                            Flush::End => c.flush_end += 1,
                        }
                        queue.pop_front()
                    }
                }
            }
        };

        match next {
            None => {
                protocol.finished(m, p);
                state[p] = PState::Done;
                done += 1;
            }
            Some(op) => {
                m.counters_mut(p).sim_ops += 1;
                let t0 = m.clock[p];
                let before = m.breakdowns()[p].total();
                let block = |wait| PState::Blocked {
                    since: t0,
                    bucket_total_before: before,
                    wait,
                };
                match op {
                    Op::Compute(c) => {
                        let (_, end) = m.occupy_cpu(p, t0, c);
                        m.charge(p, Bucket::Busy, c);
                        m.clock[p] = end;
                    }
                    Op::Read { addr, bytes } => {
                        let t = protocol.read(m, p, addr, bytes);
                        settle_window(m, p, t0, t, before, Bucket::DataWait);
                    }
                    Op::Write { addr, bytes } => {
                        let t = protocol.write(m, p, addr, bytes);
                        settle_window(m, p, t0, t, before, Bucket::DataWait);
                    }
                    Op::Lock(l) => match protocol.lock(m, p, l) {
                        Some(t) => {
                            feed.granted(l, p)?;
                            settle_window(m, p, t0, t, before, Bucket::LockWait);
                        }
                        None => state[p] = block(Wait::Lock(l)),
                    },
                    Op::Unlock(l) => {
                        let t = protocol.unlock(m, p, l);
                        settle_window(m, p, t0, t, before, Bucket::LockWait);
                    }
                    Op::Barrier(b) => match protocol.barrier(m, p, b) {
                        Some(t) => settle_window(m, p, t0, t, before, Bucket::BarrierWait),
                        None => state[p] = block(Wait::Barrier),
                    },
                }
            }
        }

        // Deliver protocol wakeups (lock grants, barrier releases).
        for (q, t) in m.take_wakeups() {
            let PState::Blocked {
                since,
                bucket_total_before,
                wait,
            } = state[q]
            else {
                panic!("protocol woke P{q}, which is not blocked");
            };
            let bucket = match wait {
                Wait::Lock(l) => {
                    feed.granted(l, q)?;
                    Bucket::LockWait
                }
                Wait::Barrier => Bucket::BarrierWait,
            };
            settle_window(m, q, since, t, bucket_total_before, bucket);
            state[q] = PState::Ready;
        }
    }
    Ok(())
}

/// The result of a finished run on `m`.
fn summarize(
    protocol: &dyn ProtocolTrait,
    m: &mut Machine,
    app: String,
    verify_error: Option<String>,
    (threads_spawned, threads_reused): (u64, u64),
) -> RunResult {
    let total_cycles = m.clock.iter().copied().max().unwrap_or(0);
    let activity = m
        .activities()
        .iter()
        .fold(ssm_stats::ProtoActivity::default(), |a, b| a.merge(b));
    let counters = m
        .counters()
        .iter()
        .fold(ssm_stats::Counters::default(), |a, b| a.merge(b));
    RunResult {
        app,
        protocol: protocol.name().to_string(),
        nprocs: m.nprocs(),
        total_cycles,
        per_proc: m.breakdowns().to_vec(),
        activity,
        counters,
        verify_error,
        trace: m.take_trace(),
        threads_spawned,
        threads_reused,
    }
}

fn settle_window(m: &mut Machine, p: usize, t0: Cycles, t1: Cycles, before: u64, bucket: Bucket) {
    let t1 = t1.max(t0);
    let elapsed = t1 - t0;
    let charged = m.breakdowns()[p].total() - before;
    m.charge(p, bucket, elapsed.saturating_sub(charged));
    m.clock[p] = t1;
}
