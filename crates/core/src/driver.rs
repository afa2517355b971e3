//! The execution-driven simulation loop.
//!
//! The driver owns the [`Machine`], the protocol and the application
//! threads, and advances them in simulated-time order: at every step it
//! resumes the *ready* processor with the smallest clock, hands the
//! operation it yields to the protocol, and attributes the elapsed window
//! to the right time bucket.
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
//! Threads run against a [`Proc`] that hands every operation up to the
//! next `Lock` or `Barrier` to the driver in one baton exchange, up to
//! [`BATCH_CAP`] operations (one when batching is off). The driver queues
//! each batch per processor and replays it **one operation per scheduling
//! step**: a step either pops the next queued operation or — only when
//! the queue is empty — resumes the thread for more. The operation stream
//! each processor feeds the protocol, and the order the scheduler
//! interleaves the processors, are therefore exactly those of an
//! unbatched run, and every simulated result of a data-race-free workload
//! is byte-identical; only the handoff counters differ (see
//! [`ssm_proto::vm`]).

use std::collections::VecDeque;

use ssm_engine::{Cycles, Resumed, ThreadId, ThreadPool, WorkerSet};
use ssm_proto::{
    Flush, Machine, Op, Proc, Protocol as ProtocolTrait, Workload, World, WorldShape, BATCH_CAP,
};
use ssm_stats::Bucket;

use crate::result::RunResult;

/// Host-side engine knobs. None of them affect simulated results — they
/// trade OS context switches and thread spawns for bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Recycle OS threads from this set instead of spawning per run.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    Ready,
    Blocked {
        since: Cycles,
        bucket_total_before: u64,
        bucket: Bucket,
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
/// * if the workload does not return exactly `nprocs` thread bodies,
/// * on deadlock (every unfinished processor blocked — e.g. a barrier that
///   not all processors reach),
/// * if an application thread panics.
pub fn run_simulation_with(
    protocol: &mut dyn ProtocolTrait,
    workload: &dyn Workload,
    nprocs: usize,
    mut machine: Machine,
    opts: &EngineOptions,
) -> RunResult {
    assert_eq!(machine.nprocs(), nprocs, "machine size must match nprocs");
    let mut world = World::new(workload.mem_bytes());
    let bodies = workload.spawn(&mut world, nprocs);
    assert_eq!(
        bodies.len(),
        nprocs,
        "workload must produce one thread body per processor"
    );
    let shape = WorldShape {
        heap_bytes: world.used().max(1),
        nlocks: world.lock_count() as usize,
        nbarriers: world.barrier_count() as usize,
    };
    protocol.init(&machine, &shape);

    let mut pool: ThreadPool<(Vec<Op>, Flush)> = match &opts.workers {
        Some(ws) => ThreadPool::with_workers(ws.clone()),
        None => ThreadPool::new(),
    };
    let cap = if opts.batching.0 { BATCH_CAP } else { 1 };
    for (pid, body) in bodies.into_iter().enumerate() {
        pool.spawn(move |y| {
            let proc = Proc::new(y, pid, nprocs, cap);
            body(&proc);
            proc.finish();
        });
    }

    let m = &mut machine;
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
                "simulation deadlock in {}: all unfinished processors blocked: {}",
                workload.name(),
                blocked.join(", ")
            );
        };

        // One operation per step: replay from the processor's queue, and
        // only hand the baton over when the queue is dry.
        let next = match queued[p].pop_front() {
            Some(op) => Some(op),
            None => {
                m.counters_mut(p).handoffs += 1;
                match pool.resume(ThreadId(p)) {
                    Resumed::Finished => None,
                    Resumed::Op((ops, flush)) => {
                        let c = m.counters_mut(p);
                        c.ops_batched += ops.len() as u64;
                        match flush {
                            Flush::Sync => c.flush_sync += 1,
                            Flush::Cap => c.flush_cap += 1,
                            Flush::End => c.flush_end += 1,
                        }
                        queued[p].extend(ops);
                        queued[p].pop_front()
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
                        Some(t) => settle_window(m, p, t0, t, before, Bucket::LockWait),
                        None => {
                            state[p] = PState::Blocked {
                                since: t0,
                                bucket_total_before: before,
                                bucket: Bucket::LockWait,
                            }
                        }
                    },
                    Op::Unlock(l) => {
                        let t = protocol.unlock(m, p, l);
                        settle_window(m, p, t0, t, before, Bucket::LockWait);
                    }
                    Op::Barrier(b) => match protocol.barrier(m, p, b) {
                        Some(t) => settle_window(m, p, t0, t, before, Bucket::BarrierWait),
                        None => {
                            state[p] = PState::Blocked {
                                since: t0,
                                bucket_total_before: before,
                                bucket: Bucket::BarrierWait,
                            }
                        }
                    },
                }
            }
        }

        // Deliver protocol wakeups (lock grants, barrier releases).
        for (q, t) in m.take_wakeups() {
            let PState::Blocked {
                since,
                bucket_total_before,
                bucket,
            } = state[q]
            else {
                panic!("protocol woke P{q}, which is not blocked");
            };
            settle_window(m, q, since, t, bucket_total_before, bucket);
            state[q] = PState::Ready;
        }
    }

    let total_cycles = m.clock.iter().copied().max().unwrap_or(0);
    let activity = m
        .activities()
        .iter()
        .fold(ssm_stats::ProtoActivity::default(), |a, b| a.merge(b));
    let counters = m
        .counters()
        .iter()
        .fold(ssm_stats::Counters::default(), |a, b| a.merge(b));
    let trace = m.take_trace();
    let (threads_spawned, threads_reused) = pool.thread_stats();
    RunResult {
        app: workload.name(),
        protocol: protocol.name().to_string(),
        nprocs,
        total_cycles,
        per_proc: m.breakdowns().to_vec(),
        activity,
        counters,
        verify_error: workload.verify().err(),
        trace,
        threads_spawned: threads_spawned as u64,
        threads_reused: threads_reused as u64,
    }
}

fn settle_window(m: &mut Machine, p: usize, t0: Cycles, t1: Cycles, before: u64, bucket: Bucket) {
    let t1 = t1.max(t0);
    let elapsed = t1 - t0;
    let charged = m.breakdowns()[p].total() - before;
    m.charge(p, bucket, elapsed.saturating_sub(charged));
    m.clock[p] = t1;
}
