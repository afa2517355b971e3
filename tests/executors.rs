//! The two executors: async bodies polled inline on the driver's thread,
//! and the same bodies on the engine's threads behind the baton, through
//! [`Workload::spawn`]'s thread adapter. They must produce the same run,
//! engine counters included.

use ssm::apps::catalog::{suite, Scale};
use ssm::core::{LayerConfig, Protocol, RunResult, SimBuilder};
use ssm::proto::{async_body, AsyncBody, ThreadBody, Workload, World};
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

/// Each processor writes its own slot.
struct Slots;

impl Workload for Slots {
    fn name(&self) -> String {
        "slots".into()
    }
    fn mem_bytes(&self) -> usize {
        1 << 16
    }
    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        let v = world.alloc_vec::<u64>(nprocs);
        let bodies = (0..nprocs).map(|pid| {
            let v = v.clone();
            async_body(move |p| async move { v.write(&p, pid, 1).await })
        });
        Some(bodies.collect())
    }
}

/// A plain run uses no thread; a workload's thread form (`OnThreads`,
/// what the name calls a sync workload) takes one per processor.
#[test]
fn catalog_runs_use_no_threads_and_sync_workloads_do() {
    let fft = suite().into_iter().next().expect("FFT").build(Scale::Test);
    let r = SimBuilder::new(Protocol::Hlrc).procs(4).run(fft.as_ref());
    assert_eq!((r.threads_spawned, r.threads_reused), (0, 0));

    let sim = SimBuilder::new(Protocol::Hlrc).procs(4);
    let inline = sim.run(&Slots);
    assert_eq!((inline.threads_spawned, inline.threads_reused), (0, 0));
    let threads = sim.run(&OnThreads(Box::new(Slots)));
    assert_eq!((threads.threads_spawned, threads.threads_reused), (4, 0));
    assert!(record(&inline, 4) == record(&threads, 4));
}

/// One body whatever the processor count.
struct OneBody;

impl Workload for OneBody {
    fn name(&self) -> String {
        "one-body".into()
    }
    fn mem_bytes(&self) -> usize {
        4096
    }
    fn spawn_async(&self, _world: &mut World, _nprocs: usize) -> Option<Vec<AsyncBody>> {
        Some(vec![async_body(|_p| async {})])
    }
}

#[test]
#[should_panic(expected = "one thread body per processor")]
fn the_thread_executor_wants_one_body_per_processor() {
    let _ = SimBuilder::new(Protocol::Ideal)
        .procs(3)
        .run(&OnThreads(Box::new(OneBody)));
}

/// Zero-byte reads and writes at address 0 and 64 between real ones, or
/// none of them.
struct ZeroBytes {
    zeros: bool,
}

impl Workload for ZeroBytes {
    fn name(&self) -> String {
        "zero-bytes".into()
    }
    fn mem_bytes(&self) -> usize {
        1 << 16
    }
    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        let v = world.alloc_vec::<u64>(64);
        let zeros = self.zeros;
        let bodies = (0..nprocs).map(|pid| {
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
        });
        Some(bodies.collect())
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
            let run = |zeros| {
                let w = ZeroBytes { zeros };
                let sim = SimBuilder::new(proto).procs(2);
                if inline {
                    sim.run(&w)
                } else {
                    sim.run(&OnThreads(Box::new(w)))
                }
            };
            let (with, without) = (run(true), run(false));
            assert!(
                record(&with, 2) == record(&without, 2),
                "{proto:?}, inline {inline}: a zero-byte touch cost something"
            );
            assert_eq!(with.counters.sim_ops, 2 * 2, "{proto:?}, inline {inline}");
            assert_eq!(with.threads_spawned, if inline { 0 } else { 2 });
        }
    }
}
