//! The two executors: async bodies polled inline on the driver's thread,
//! and sync thread bodies on the engine's threads behind the baton. They
//! must produce the same run, engine counters included.

use ssm::apps::catalog::{suite, Scale};
use ssm::core::{LayerConfig, Protocol, RunResult, SimBuilder};
use ssm::engine::WorkerSet;
use ssm::proto::{async_body, AsyncBody, Proc, ThreadBody, Workload, World};
use ssm_sweep::{Cell, CellRecord};

/// A workload's thread bodies alone: the driver must run them on threads.
struct OnThreads(Box<dyn Workload>);

impl Workload for OnThreads {
    fn name(&self) -> String {
        self.0.name()
    }
    fn mem_bytes(&self) -> usize {
        self.0.mem_bytes()
    }
    fn spawn(&self, world: &mut World, nprocs: usize) -> Vec<ThreadBody> {
        self.0.spawn(world, nprocs)
    }
    fn verify(&self) -> Result<(), String> {
        self.0.verify()
    }
}

/// Everything a run's record holds except host time and thread counts.
fn record(r: &RunResult, procs: usize) -> CellRecord {
    let cell = Cell::new(
        &r.app,
        Protocol::Hlrc,
        LayerConfig::base(),
        procs,
        Scale::Test,
    );
    CellRecord::from_run(cell, r, 0).canonical()
}

#[test]
fn inline_and_thread_executors_agree_on_every_catalog_cell() {
    for spec in suite() {
        for procs in [1, 4, 16] {
            for batching in [true, false] {
                let sim = SimBuilder::new(Protocol::Hlrc)
                    .procs(procs)
                    .sc_block(spec.sc_block)
                    .batching(batching);
                let inline = sim.run(spec.build(Scale::Test).as_ref());
                let threads = sim.run(&OnThreads(spec.build(Scale::Test)));
                let what = format!("{} p{procs} batching {batching}", spec.name);
                assert!(inline.verify_error.is_none(), "{what}");
                assert_eq!(
                    (inline.threads_spawned, inline.threads_reused),
                    (0, 0),
                    "{what}"
                );
                assert_eq!(
                    threads.threads_spawned + threads.threads_reused,
                    procs as u64,
                    "{what}"
                );
                assert!(record(&inline, procs) == record(&threads, procs), "{what}");
            }
        }
    }
}

/// Each processor writes its own slot; a sync workload.
struct Slots;

impl Workload for Slots {
    fn name(&self) -> String {
        "slots".into()
    }
    fn mem_bytes(&self) -> usize {
        1 << 16
    }
    fn spawn(&self, world: &mut World, nprocs: usize) -> Vec<ThreadBody> {
        let v = world.alloc_vec::<u64>(nprocs);
        (0..nprocs)
            .map(|pid| {
                let v = v.clone();
                let body: ThreadBody = Box::new(move |p: &Proc<'_>| v.set(p, pid, 1));
                body
            })
            .collect()
    }
}

#[test]
fn catalog_runs_use_no_threads_and_sync_workloads_do() {
    let fft = suite().into_iter().next().expect("FFT").build(Scale::Test);
    let r = SimBuilder::new(Protocol::Hlrc).procs(4).run(fft.as_ref());
    assert_eq!((r.threads_spawned, r.threads_reused), (0, 0));

    let workers = WorkerSet::new();
    let sim = SimBuilder::new(Protocol::Hlrc).procs(4).workers(workers);
    let first = sim.run(&Slots);
    assert_eq!((first.threads_spawned, first.threads_reused), (4, 0));
    let second = sim.run(&Slots);
    assert_eq!(second.threads_spawned + second.threads_reused, 4);
}

/// Zero-byte reads and writes at address 0 and 64 between real ones, in
/// the form `inline` says, or none of them.
struct ZeroBytes {
    inline: bool,
    zeros: bool,
}

impl Workload for ZeroBytes {
    fn name(&self) -> String {
        "zero-bytes".into()
    }
    fn mem_bytes(&self) -> usize {
        1 << 16
    }
    fn spawn(&self, world: &mut World, nprocs: usize) -> Vec<ThreadBody> {
        let v = world.alloc_vec::<u64>(64);
        let zeros = self.zeros;
        (0..nprocs)
            .map(|pid| {
                let v = v.clone();
                let body: ThreadBody = Box::new(move |p: &Proc<'_>| {
                    p.compute(100);
                    if zeros {
                        p.touch_read(0, 0);
                        p.touch_write(64, 0);
                    }
                    v.set(p, 8 * pid, 1);
                    if zeros {
                        p.touch_write(0, 0);
                        p.touch_read(64, 0);
                    }
                });
                body
            })
            .collect()
    }
    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        if !self.inline {
            return None;
        }
        let v = world.alloc_vec::<u64>(64);
        let zeros = self.zeros;
        let bodies = (0..nprocs)
            .map(|pid| {
                let v = v.clone();
                async_body(move |p| async move {
                    p.compute(100);
                    if zeros {
                        p.touch_read(0, 0).await;
                        p.touch_write(64, 0).await;
                    }
                    v.write(&p, 8 * pid, 1).await;
                    if zeros {
                        p.touch_write(0, 0).await;
                        p.touch_read(64, 0).await;
                    }
                })
            })
            .collect();
        Some(bodies)
    }
}

#[test]
fn zero_byte_touches_issue_nothing() {
    for proto in [
        Protocol::Ideal,
        Protocol::Hlrc,
        Protocol::Aurc,
        Protocol::Sc,
        Protocol::ScDelayed,
        Protocol::Rdma,
    ] {
        for inline in [true, false] {
            let sim = SimBuilder::new(proto).procs(2);
            let with = sim.run(&ZeroBytes {
                inline,
                zeros: true,
            });
            let without = sim.run(&ZeroBytes {
                inline,
                zeros: false,
            });
            assert!(
                record(&with, 2) == record(&without, 2),
                "{proto:?}, inline {inline}: a zero-byte touch cost something"
            );
            assert_eq!(with.counters.sim_ops, 2 * 2, "{proto:?}, inline {inline}");
        }
    }
}
