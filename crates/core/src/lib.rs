//! Top-level simulation builder, layer-cost presets and result types for
//! the `ssm` reproduction of *"Limits to the Performance of Software Shared
//! Memory: A Layered Approach"* (HPCA 1999).
//!
//! This crate glues the stack together: it owns the driver loop
//! ([`driver::run_simulation`]), the paper's named parameter sets
//! ([`CommPreset`], [`ProtoPreset`], [`LayerConfig`]), and the
//! [`SimBuilder`] front door that examples, tests and the benchmark
//! harness use.
//!
//! # Example
//!
//! ```rust
//! use ssm_core::{LayerConfig, Protocol, SimBuilder};
//! use ssm_proto::{async_body, AsyncBody, Workload, World};
//!
//! // A toy workload: every processor increments its own counter slot.
//! struct Count;
//! impl Workload for Count {
//!     fn name(&self) -> String { "count".into() }
//!     fn mem_bytes(&self) -> usize { 1 << 16 }
//!     fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
//!         let v = world.alloc_vec::<u64>(nprocs * 512);
//!         Some((0..nprocs).map(|pid| {
//!             let v = v.clone();
//!             async_body(move |p| async move {
//!                 p.compute(100);
//!                 v.write(&p, pid * 512, pid as u64).await;
//!             })
//!         }).collect())
//!     }
//! }
//!
//! let r = SimBuilder::new(Protocol::Hlrc)
//!     .procs(4)
//!     .layers(LayerConfig::parse("AO").unwrap())
//!     .run(&Count);
//! assert_eq!(r.nprocs, 4);
//! assert!(r.total_cycles >= 100);
//! ```

pub mod config;
pub mod driver;
pub mod replay;
pub mod result;

pub use config::{CommPreset, FaultSpec, LayerConfig, ProtoPreset, Protocol};
pub use driver::{run_simulation, run_simulation_with, EngineOptions};
pub use replay::ReplayLog;
pub use result::RunResult;

use ssm_hlrc::Hlrc;
use ssm_mem::MemConfig;
use ssm_net::CommParams;
use ssm_proto::{HomePolicy, Machine, ProtoCosts, Protocol as ProtocolTrait, Workload};
use ssm_rdma::Rdma;
use ssm_sc::Sc;

/// Default processor count — the paper's 16-node scale.
pub const DEFAULT_PROCS: usize = 16;

/// Default SC coherence granularity (bytes) for irregular applications.
pub const DEFAULT_SC_BLOCK: u64 = 64;

/// Builds and runs one simulation.
#[derive(Debug, Clone)]
pub struct SimBuilder {
    protocol: Protocol,
    nprocs: usize,
    comm: CommParams,
    costs: ProtoCosts,
    sc_block: u64,
    homes: HomePolicy,
    trace: bool,
    faults: FaultSpec,
    batching: bool,
}

impl SimBuilder {
    /// Starts a builder for `protocol` with the paper's base ("AO")
    /// parameters, 16 processors, and a 64-byte SC block.
    pub fn new(protocol: Protocol) -> Self {
        SimBuilder {
            protocol,
            nprocs: DEFAULT_PROCS,
            comm: CommParams::achievable(),
            costs: ProtoCosts::original(),
            sc_block: DEFAULT_SC_BLOCK,
            homes: HomePolicy::RoundRobin,
            trace: false,
            faults: FaultSpec::none(),
            batching: true,
        }
    }

    /// Sets the processor count.
    pub fn procs(mut self, n: usize) -> Self {
        self.nprocs = n;
        self
    }

    /// Sets the communication-layer parameters.
    pub fn comm(mut self, comm: CommParams) -> Self {
        self.comm = comm;
        self
    }

    /// Sets the protocol-layer costs.
    pub fn proto(mut self, costs: ProtoCosts) -> Self {
        self.costs = costs;
        self
    }

    /// Sets both layer-cost presets *and* the fault-injection spec from a
    /// named configuration — the one-call path from a [`LayerConfig`]
    /// (e.g. `LayerConfig::parse("AO")`) to a configured builder.
    pub fn layers(self, cfg: LayerConfig) -> Self {
        self.comm(cfg.comm.params())
            .proto(cfg.proto.costs())
            .faults(cfg.faults)
    }

    /// Sets the SC protocol's coherence granularity in bytes (ignored by
    /// HLRC and IDEAL). The paper uses each application's best granularity.
    pub fn sc_block(mut self, bytes: u64) -> Self {
        self.sc_block = bytes;
        self
    }

    /// Sets the page-to-home placement policy (round-robin is the paper's
    /// default; first-touch is a classic SVM alternative, ablated in the
    /// harness).
    pub fn home_policy(mut self, policy: HomePolicy) -> Self {
        self.homes = policy;
        self
    }

    /// Sets the deterministic fault-injection spec. `FaultSpec::none()`
    /// (the default) keeps the run on the exact fault-free code path; a
    /// nonzero rate installs a seeded [`ssm_net::FaultPlan`] plus the
    /// reliable-delivery sublayer that recovers from it. Ignored by the
    /// ideal machine (it never sends).
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = spec;
        self
    }

    /// Enables protocol-event tracing; the events land in
    /// [`RunResult::trace`]. Intended for debugging small runs (the trace
    /// grows with every message).
    pub fn trace(mut self, enable: bool) -> Self {
        self.trace = enable;
        self
    }

    /// Toggles batched baton handoffs (default on). Simulated results of a
    /// data-race-free workload are byte-identical either way; off is useful
    /// for measuring the handoff reduction, for A/B tests, and for checking
    /// a new workload (see [`ssm_proto::vm`]).
    pub fn batching(mut self, enable: bool) -> Self {
        self.batching = enable;
        self
    }

    /// Runs `workload` live and returns the measurements.
    ///
    /// # Panics
    ///
    /// Panics on simulation deadlock or an application-body panic (see
    /// [`driver::run_simulation`]).
    pub fn run(&self, workload: &dyn Workload) -> RunResult {
        let (machine, mut protocol, opts) = self.parts();
        driver::run_simulation_with(protocol.as_mut(), workload, self.nprocs, machine, &opts)
    }

    /// [`SimBuilder::run`], also recording the run for
    /// [`SimBuilder::replay`] (see [`driver::run_captured`]).
    pub fn capture(&self, workload: &dyn Workload) -> (RunResult, Option<ReplayLog>) {
        let (machine, mut protocol, opts) = self.parts();
        driver::run_captured(protocol.as_mut(), workload, self.nprocs, machine, &opts)
    }

    /// Runs this configuration from `log` instead of from the
    /// application's bodies; `None` when the log cannot stand for this
    /// run (see [`driver::run_replayed`]).
    pub fn replay(&self, log: &ReplayLog) -> Option<RunResult> {
        let (machine, mut protocol, opts) = self.parts();
        driver::run_replayed(protocol.as_mut(), log, self.nprocs, machine, opts.batching)
    }

    /// The machine, protocol and engine options this builder describes.
    fn parts(&self) -> (Machine, Box<dyn ProtocolTrait>, EngineOptions) {
        let mut machine = Machine::new(
            self.nprocs,
            self.comm.clone(),
            self.costs.clone(),
            MemConfig::pentium_pro_like(),
        );
        if self.trace {
            machine.enable_trace();
        }
        if !self.faults.is_none() && self.protocol != Protocol::Ideal {
            machine.set_fault_plan(ssm_net::FaultPlan::uniform(
                self.faults.rate_ppm,
                self.faults.seed,
            ));
        }
        let opts = EngineOptions {
            workers: None,
            batching: driver::Batching(self.batching),
        };
        let protocol: Box<dyn ProtocolTrait> = match self.protocol {
            Protocol::Hlrc => Box::new(Hlrc::new().with_homes(self.homes)),
            Protocol::Aurc => Box::new(Hlrc::aurc().with_homes(self.homes)),
            Protocol::Sc => Box::new(Sc::new(self.sc_block).with_homes(self.homes)),
            Protocol::ScDelayed => Box::new(Sc::delayed(self.sc_block).with_homes(self.homes)),
            // The one-sided protocol shares the SC granularity knob: its
            // line size is the application's best block size.
            Protocol::Rdma => Box::new(Rdma::new(self.sc_block).with_homes(self.homes)),
            Protocol::Ideal => Box::new(ssm_proto::Ideal::new()),
        };
        (machine, protocol, opts)
    }
}

/// Runs the best *sequential* version of `workload`: one processor on the
/// ideal machine (no protocol, no communication). This is the paper's
/// speedup baseline.
pub fn sequential_baseline(workload: &dyn Workload) -> RunResult {
    SimBuilder::new(Protocol::Ideal).procs(1).run(workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_proto::{async_body, AsyncBody, World};
    use ssm_stats::Bucket;
    use std::cell::RefCell;

    /// Each processor writes a private page-aligned slot, then all barrier,
    /// then P0 sums everything.
    struct SumAll {
        expected: u64,
        handle: RefCell<Option<ssm_proto::SharedVec<u64>>>,
    }

    impl SumAll {
        fn new(nprocs: usize) -> Self {
            SumAll {
                expected: (0..nprocs as u64).map(|i| i + 1).sum(),
                handle: RefCell::new(None),
            }
        }
    }

    impl Workload for SumAll {
        fn name(&self) -> String {
            "sum-all".into()
        }
        fn mem_bytes(&self) -> usize {
            1 << 20
        }
        fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
            // One page-sized stride per processor so slots live on distinct
            // pages, plus a result slot at the end.
            let v = world.alloc_vec::<u64>(nprocs * 512 + 1);
            let bar = world.alloc_barrier();
            *self.handle.borrow_mut() = Some(v.clone());
            let bodies = (0..nprocs).map(|pid| {
                let v = v.clone();
                async_body(move |p| async move {
                    p.compute(1000);
                    v.write(&p, pid * 512, pid as u64 + 1).await;
                    p.barrier(bar).await;
                    if pid == 0 {
                        let mut sum = 0;
                        for q in 0..p.nprocs() {
                            sum += v.read(&p, q * 512).await;
                            p.compute(4);
                        }
                        v.write(&p, p.nprocs() * 512, sum).await;
                    }
                    p.barrier(bar).await;
                })
            });
            Some(bodies.collect())
        }
        fn verify(&self) -> Result<(), String> {
            let h = self.handle.borrow();
            let v = h.as_ref().expect("spawned");
            let got = v.get_direct(v.len() - 1);
            if got == self.expected {
                Ok(())
            } else {
                Err(format!("sum: got {got}, want {}", self.expected))
            }
        }
    }

    #[test]
    fn runs_on_all_protocols_and_verifies() {
        for proto in [
            Protocol::Ideal,
            Protocol::Hlrc,
            Protocol::Sc,
            Protocol::Rdma,
        ] {
            let w = SumAll::new(4);
            let r = SimBuilder::new(proto).procs(4).run(&w).expect_verified();
            assert_eq!(r.nprocs, 4);
            assert!(r.total_cycles >= 1000, "{proto:?} too fast");
            assert_eq!(r.counters.barriers, 2, "{proto:?} barrier count");
        }
    }

    #[test]
    fn faulty_runs_verify_and_are_deterministic() {
        for proto in [Protocol::Hlrc, Protocol::Sc, Protocol::Rdma] {
            let w = SumAll::new(4);
            let clean = SimBuilder::new(proto).procs(4).run(&w).expect_verified();
            let spec = FaultSpec::at(200_000, 42);
            let w = SumAll::new(4);
            let faulty = SimBuilder::new(proto)
                .procs(4)
                .faults(spec)
                .run(&w)
                .expect_verified();
            assert!(
                faulty.counters.faults_injected() > 0,
                "{proto:?}: no faults fired at 20% per class"
            );
            assert_eq!(
                faulty.counters.retransmissions, faulty.counters.faults_dropped,
                "{proto:?}: every drop is retransmitted exactly once per loss"
            );
            assert!(
                faulty.total_cycles >= clean.total_cycles,
                "{proto:?}: recovery cannot make the run faster"
            );
            let w = SumAll::new(4);
            let again = SimBuilder::new(proto)
                .procs(4)
                .faults(spec)
                .run(&w)
                .expect_verified();
            assert_eq!(
                faulty.total_cycles, again.total_cycles,
                "{proto:?}: same (rate, seed) must replay the same schedule"
            );
            assert_eq!(
                faulty.counters, again.counters,
                "{proto:?}: counters differ"
            );
        }
    }

    #[test]
    fn hlrc_slower_than_ideal_and_faster_when_best() {
        let w = SumAll::new(4);
        let ideal = SimBuilder::new(Protocol::Ideal)
            .procs(4)
            .run(&w)
            .total_cycles;
        let w = SumAll::new(4);
        let base = SimBuilder::new(Protocol::Hlrc)
            .procs(4)
            .run(&w)
            .total_cycles;
        let w = SumAll::new(4);
        let best = SimBuilder::new(Protocol::Hlrc)
            .procs(4)
            .comm(CommPreset::Best.params())
            .proto(ProtoPreset::Best.costs())
            .run(&w)
            .total_cycles;
        assert!(ideal < best, "ideal {ideal} < BB {best}");
        assert!(best < base, "BB {best} < AO {base}");
    }

    #[test]
    fn buckets_do_not_exceed_wall_time_materially() {
        let w = SumAll::new(4);
        let r = SimBuilder::new(Protocol::Hlrc).procs(4).run(&w);
        for (q, b) in r.per_proc.iter().enumerate() {
            let covered = b.total() as f64;
            let wall = r.total_cycles as f64;
            // Handler service can slip into already-settled windows (see
            // driver docs), so allow bounded overcount.
            assert!(
                covered <= wall * 1.25,
                "P{q} buckets {covered} exceed wall {wall}"
            );
        }
    }

    #[test]
    fn sequential_baseline_is_single_proc_ideal() {
        let w = SumAll::new(1);
        let r = sequential_baseline(&w);
        assert_eq!(r.nprocs, 1);
        assert_eq!(r.protocol, "IDEAL");
        assert!(r.verify_error.is_none());
    }

    #[test]
    fn speedup_emerges_with_more_procs() {
        // Pure compute scales linearly on the ideal machine.
        struct Busy(u64);
        impl Workload for Busy {
            fn name(&self) -> String {
                "busy".into()
            }
            fn mem_bytes(&self) -> usize {
                4096
            }
            fn spawn_async(&self, _world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
                let per = self.0 / nprocs as u64;
                let bodies =
                    (0..nprocs).map(|_| async_body(move |p| async move { p.compute(per) }));
                Some(bodies.collect())
            }
        }
        let seq = sequential_baseline(&Busy(64_000)).total_cycles;
        let par = SimBuilder::new(Protocol::Ideal)
            .procs(8)
            .run(&Busy(64_000))
            .total_cycles;
        assert_eq!(seq, 64_000);
        assert_eq!(par, 8_000);
    }

    #[test]
    fn lock_wait_attributed() {
        // Two processors contend on one lock with long critical sections.
        struct Contend;
        impl Workload for Contend {
            fn name(&self) -> String {
                "contend".into()
            }
            fn mem_bytes(&self) -> usize {
                4096
            }
            fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
                let l = world.alloc_lock();
                let bodies = (0..nprocs).map(|_| {
                    async_body(move |p| async move {
                        p.lock(l).await;
                        p.compute(50_000);
                        p.unlock(l).await;
                    })
                });
                Some(bodies.collect())
            }
        }
        let r = SimBuilder::new(Protocol::Hlrc).procs(2).run(&Contend);
        let total_lock_wait: u64 = r.per_proc.iter().map(|b| b.get(Bucket::LockWait)).sum();
        assert!(
            total_lock_wait >= 50_000,
            "second acquirer must wait out the first critical section, got {total_lock_wait}"
        );
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn mismatched_barriers_deadlock() {
        struct Broken;
        impl Workload for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn mem_bytes(&self) -> usize {
                4096
            }
            fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
                let bar = world.alloc_barrier();
                let bodies = (0..nprocs).map(|pid| {
                    async_body(move |p| async move {
                        if pid == 0 {
                            p.barrier(bar).await; // only P0 arrives
                        }
                    })
                });
                Some(bodies.collect())
            }
        }
        let _ = SimBuilder::new(Protocol::Ideal).procs(2).run(&Broken);
    }
}
