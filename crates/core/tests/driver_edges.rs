//! Driver edge cases: wrong body counts, single-processor worlds,
//! trivial workloads, and machine-size mismatches.

use ssm_core::{run_simulation, Protocol, SimBuilder};
use ssm_mem::MemConfig;
use ssm_net::CommParams;
use ssm_proto::{async_body, AsyncBody, Ideal, Machine, ProtoCosts, Workload, World};

struct WrongCount;
impl Workload for WrongCount {
    fn name(&self) -> String {
        "wrong-count".into()
    }
    fn mem_bytes(&self) -> usize {
        4096
    }
    fn spawn_async(&self, _w: &mut World, _nprocs: usize) -> Option<Vec<AsyncBody>> {
        Some(vec![async_body(|_p| async {})]) // always one body
    }
}

#[test]
#[should_panic(expected = "one async body per processor")]
fn wrong_body_count_is_rejected() {
    let _ = SimBuilder::new(Protocol::Ideal).procs(3).run(&WrongCount);
}

struct Empty;
impl Workload for Empty {
    fn name(&self) -> String {
        "empty".into()
    }
    fn mem_bytes(&self) -> usize {
        4096
    }
    fn spawn_async(&self, _w: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        Some((0..nprocs).map(|_| async_body(|_p| async {})).collect())
    }
}

#[test]
fn empty_workload_finishes_at_time_zero() {
    for proto in [
        Protocol::Ideal,
        Protocol::Hlrc,
        Protocol::Aurc,
        Protocol::Sc,
    ] {
        let r = SimBuilder::new(proto).procs(4).run(&Empty);
        assert_eq!(r.total_cycles, 0, "{proto:?}");
        assert_eq!(r.counters.messages, 0, "{proto:?}");
    }
}

#[test]
#[should_panic(expected = "machine size must match")]
fn machine_size_mismatch_is_rejected() {
    let machine = Machine::new(
        2,
        CommParams::achievable(),
        ProtoCosts::original(),
        MemConfig::pentium_pro_like(),
    );
    let mut p = Ideal::new();
    let _ = run_simulation(&mut p, &Empty, 4, machine);
}

#[test]
fn single_processor_lock_and_barrier_are_cheap_on_ideal() {
    struct OneProcSync;
    impl Workload for OneProcSync {
        fn name(&self) -> String {
            "one-proc-sync".into()
        }
        fn mem_bytes(&self) -> usize {
            4096
        }
        fn spawn_async(&self, w: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
            assert_eq!(nprocs, 1);
            let l = w.alloc_lock();
            let b = w.alloc_barrier();
            Some(vec![async_body(move |p| async move {
                for _ in 0..100 {
                    p.lock(l).await;
                    p.unlock(l).await;
                    p.barrier(b).await;
                }
            })])
        }
    }
    let r = SimBuilder::new(Protocol::Ideal).procs(1).run(&OneProcSync);
    assert_eq!(r.total_cycles, 0, "ideal sync is free");
    assert_eq!(r.counters.lock_acquires, 100);
    assert_eq!(r.counters.barriers, 100);
}

#[test]
fn huge_compute_blocks_do_not_overflow_accounting() {
    struct Big;
    impl Workload for Big {
        fn name(&self) -> String {
            "big".into()
        }
        fn mem_bytes(&self) -> usize {
            4096
        }
        fn spawn_async(&self, _w: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
            let body = || async_body(|p| async move { p.compute(1 << 40) });
            Some((0..nprocs).map(|_| body()).collect())
        }
    }
    let r = SimBuilder::new(Protocol::Hlrc).procs(2).run(&Big);
    assert_eq!(r.total_cycles, 1 << 40);
}
