//! Cross-crate integration tests: the full stack (engine → caches →
//! network → protocol → driver → applications) exercised through the
//! public `ssm` API.

use ssm::apps::catalog::{suite, Scale};
use ssm::core::{sequential_baseline, CommPreset, LayerConfig, ProtoPreset, Protocol, SimBuilder};
use ssm::proto::HomePolicy;
use ssm::stats::Bucket;

/// Every application in the catalog runs and self-verifies under every
/// protocol at the base configuration, at 4 and at the paper's 16
/// processors. Barnes-Spatial also runs at 64, where each processor's
/// slice of the tree-cell pool is smallest.
#[test]
fn whole_suite_verifies_under_all_protocols() {
    let suite = suite();
    let spatial = suite
        .iter()
        .find(|s| s.name == "Barnes-Spatial")
        .expect("Barnes-Spatial");
    let inputs = suite.iter().flat_map(|s| [(s, 4), (s, 16)]);
    for (spec, procs) in inputs.chain([(spatial, 64)]) {
        for proto in [
            Protocol::Ideal,
            Protocol::Hlrc,
            Protocol::Aurc,
            Protocol::Sc,
            Protocol::Rdma,
        ] {
            let w = spec.build(Scale::Test);
            let r = SimBuilder::new(proto)
                .procs(procs)
                .sc_block(spec.sc_block)
                .run(w.as_ref());
            assert!(
                r.verify_error.is_none(),
                "{} under {proto:?} at p{procs}: {:?}",
                spec.name,
                r.verify_error
            );
            assert!(r.total_cycles > 0);
        }
    }
}

/// Simulated time is bit-for-bit reproducible: the baton makes thread
/// interleaving deterministic, so two identical runs agree exactly.
#[test]
fn runs_are_deterministic() {
    for proto in [Protocol::Hlrc, Protocol::Sc] {
        let one = {
            let spec = ssm::apps::catalog::by_name("Barnes-original").expect("barnes");
            let w = spec.build(Scale::Test);
            SimBuilder::new(proto).procs(4).run(w.as_ref())
        };
        let two = {
            let spec = ssm::apps::catalog::by_name("Barnes-original").expect("barnes");
            let w = spec.build(Scale::Test);
            SimBuilder::new(proto).procs(4).run(w.as_ref())
        };
        assert_eq!(
            one.total_cycles, two.total_cycles,
            "{proto:?} not deterministic"
        );
        assert_eq!(one.counters, two.counters);
        assert_eq!(one.per_proc, two.per_proc);
    }
}

/// The IDEAL machine bounds both real protocols from below (in time).
#[test]
fn ideal_is_fastest() {
    for spec in suite().into_iter().take(4) {
        let w = spec.build(Scale::Test);
        let ideal = SimBuilder::new(Protocol::Ideal).procs(4).run(w.as_ref());
        for proto in [Protocol::Hlrc, Protocol::Sc] {
            let w = spec.build(Scale::Test);
            let r = SimBuilder::new(proto)
                .procs(4)
                .sc_block(spec.sc_block)
                .run(w.as_ref());
            assert!(
                ideal.total_cycles <= r.total_cycles,
                "{}: IDEAL {} slower than {proto:?} {}",
                spec.name,
                ideal.total_cycles,
                r.total_cycles
            );
        }
    }
}

/// Idealizing both system layers never hurts (monotonicity of the cost
/// model along the main diagonal of the configuration grid).
#[test]
fn better_layers_never_slow_hlrc_down() {
    let spec = ssm::apps::catalog::by_name("Water-Nsquared").expect("water");
    let run = |cfg: LayerConfig| {
        let w = spec.build(Scale::Test);
        SimBuilder::new(Protocol::Hlrc)
            .procs(4)
            .layers(cfg)
            .run(w.as_ref())
            .total_cycles
    };
    let wo = run(LayerConfig::of(CommPreset::Worse, ProtoPreset::Original));
    let ao = run(LayerConfig::base());
    let bb = run(LayerConfig::of(CommPreset::Best, ProtoPreset::Best));
    assert!(bb <= ao, "BB {bb} should not exceed AO {ao}");
    assert!(ao <= wo, "AO {ao} should not exceed WO {wo}");
}

/// Sequential baselines are protocol-free: no messages, no protocol time.
#[test]
fn baseline_is_communication_free() {
    let spec = ssm::apps::catalog::by_name("LU-Contiguous").expect("LU");
    let w = spec.build(Scale::Test);
    let r = sequential_baseline(w.as_ref());
    assert_eq!(r.counters.messages, 0);
    assert_eq!(r.counters.fetches, 0);
    assert_eq!(r.per_proc[0].get(Bucket::Protocol), 0);
    assert_eq!(r.per_proc[0].get(Bucket::DataWait), 0);
}

/// The restructured variants keep their headline properties at small
/// scale: Barnes-Spatial eliminates tree-build locking; Radix-Local cuts
/// messages.
#[test]
fn restructuring_effects_hold_end_to_end() {
    let orig = ssm::apps::catalog::by_name("Barnes-original").expect("app");
    let rest = ssm::apps::catalog::by_name("Barnes-Spatial").expect("app");
    let wo = orig.build(Scale::Test);
    let wr = rest.build(Scale::Test);
    let ro = SimBuilder::new(Protocol::Hlrc).procs(4).run(wo.as_ref());
    let rr = SimBuilder::new(Protocol::Hlrc).procs(4).run(wr.as_ref());
    assert!(ro.counters.lock_acquires > 0);
    assert_eq!(
        rr.counters.lock_acquires, 0,
        "spatial build must be lock-free"
    );
}

/// Worse communication hurts more under SC (which pays per block) than a
/// purely compute-bound run would notice.
#[test]
fn comm_sensitivity_is_visible() {
    let spec = ssm::apps::catalog::by_name("Ocean-Contiguous").expect("ocean");
    let run = |comm: CommPreset| {
        let w = spec.build(Scale::Test);
        SimBuilder::new(Protocol::Sc)
            .procs(4)
            .sc_block(spec.sc_block)
            .comm(comm.params())
            .run(w.as_ref())
            .total_cycles
    };
    let best = run(CommPreset::Best);
    let worse = run(CommPreset::Worse);
    assert!(
        worse > best * 2,
        "2x-worse comm should at least double SC Ocean time: {best} -> {worse}"
    );
}

/// Processor scaling: more processors never increase total simulated time
/// for an embarrassingly-regular app on the ideal machine.
#[test]
fn ideal_scales_with_processors() {
    let mut last = u64::MAX;
    for procs in [1usize, 2, 4, 8] {
        let w = ssm::apps::fft::Fft::new(1024);
        let r = SimBuilder::new(Protocol::Ideal).procs(procs).run(&w);
        assert!(r.verify_error.is_none());
        assert!(
            r.total_cycles < last,
            "{procs} procs should beat fewer: {} !< {last}",
            r.total_cycles
        );
        last = r.total_cycles;
    }
}

/// First-touch placement puts each processor's partition at its own node,
/// eliminating most remote write traffic for block-partitioned apps.
#[test]
fn first_touch_reduces_ocean_traffic() {
    // Needs a grid whose per-processor blocks span whole pages (the test-
    // scale grid fits in one page, where placement cannot matter).
    let run = |policy: HomePolicy| {
        let w = ssm::apps::ocean::Ocean::contiguous(64, 2);
        SimBuilder::new(Protocol::Hlrc)
            .procs(4)
            .home_policy(policy)
            .run(&w)
            .expect_verified()
    };
    let rr = run(HomePolicy::RoundRobin);
    let ft = run(HomePolicy::FirstTouch);
    assert!(
        ft.counters.twins < rr.counters.twins,
        "first-touch should twin fewer pages: {} vs {}",
        ft.counters.twins,
        rr.counters.twins
    );
    assert!(
        ft.total_cycles < rr.total_cycles,
        "first-touch ({}) should beat round-robin ({}) for Ocean",
        ft.total_cycles,
        rr.total_cycles
    );
}

/// AURC removes all diff traffic while still verifying, and runs the whole
/// suite deterministically.
#[test]
fn aurc_eliminates_diffs_across_the_suite() {
    for spec in suite().into_iter().take(6) {
        let w = spec.build(Scale::Test);
        let r = SimBuilder::new(Protocol::Aurc).procs(4).run(w.as_ref());
        assert!(
            r.verify_error.is_none(),
            "{}: {:?}",
            spec.name,
            r.verify_error
        );
        assert_eq!(r.counters.diffs, 0, "{}: AURC must not diff", spec.name);
        assert_eq!(r.counters.twins, 0, "{}: AURC must not twin", spec.name);
    }
}

/// Model-composition validation (the `validation` binary's checks, kept
/// honest in the test suite): zero-load latencies and a full HLRC fetch
/// decompose exactly into their documented parts.
#[test]
fn model_composes_exactly() {
    use ssm::net::{CommParams, Network};
    let p = CommParams::achievable();
    let mut net = Network::new(2, p.clone());
    assert_eq!(
        net.deliver(0, 0, 1, 64),
        64 * 2 + p.ni_occupancy + p.link_latency + 64 * 2
    );
    let wire = |bytes: u64| {
        let mut n = Network::new(2, p.clone());
        n.deliver(0, 0, 1, bytes)
    };
    let costs = ssm::proto::ProtoCosts::original();
    let m = ssm::proto::Machine::new(
        2,
        p.clone(),
        costs.clone(),
        ssm::mem::MemConfig::pentium_pro_like(),
    );
    let mut m = m;
    let mut hlrc = ssm::hlrc::Hlrc::new();
    use ssm::proto::Protocol as _;
    hlrc.init(
        &m,
        &ssm::proto::WorldShape {
            heap_bytes: 1 << 16,
            nlocks: 1,
            nbarriers: 1,
        },
    );
    let analytic = costs.handler_base
        + p.host_overhead
        + wire(64)
        + p.msg_handling
        + costs.handler_base
        + p.host_overhead
        + wire(4096 + 16)
        + costs.mprotect(1)
        + (8 + 60 + 16);
    assert_eq!(hlrc.read(&mut m, 1, 0, 8), analytic);
}

/// Regular applications compute bit-identical results regardless of the
/// processor count (their parallelizations are exact, not approximate).
#[test]
fn results_independent_of_processor_count() {
    // FFT: the spectrum spike magnitudes must match between runs.
    let probe_fft = |procs: usize| -> Vec<u64> {
        let w = ssm::apps::fft::Fft::new(256);
        let r = SimBuilder::new(Protocol::Hlrc).procs(procs).run(&w);
        assert!(r.verify_error.is_none());
        // verify() already checks the spectrum; return counters as a
        // determinism fingerprint of the run itself.
        vec![r.counters.barriers]
    };
    assert_eq!(probe_fft(1)[0], probe_fft(4)[0]);

    // Ocean: exact equality with the sequential reference is asserted by
    // verify() itself at every processor count.
    for procs in [1usize, 2, 5] {
        let w = ssm::apps::ocean::Ocean::contiguous(12, 2);
        let r = SimBuilder::new(Protocol::Sc).procs(procs).run(&w);
        assert!(
            r.verify_error.is_none(),
            "{procs} procs: {:?}",
            r.verify_error
        );
    }

    // Radix sorts correctly at awkward processor counts (non-dividing).
    for procs in [3usize, 7] {
        let w = ssm::apps::radix::Radix::local(1000);
        let r = SimBuilder::new(Protocol::Hlrc).procs(procs).run(&w);
        assert!(
            r.verify_error.is_none(),
            "{procs} procs: {:?}",
            r.verify_error
        );
    }
}

/// The harness utilities hold together: every figure3 configuration is
/// runnable for one app and produces internally consistent results.
#[test]
fn figure3_configurations_all_run() {
    let spec = ssm::apps::catalog::by_name("Water-Spatial").expect("app");
    for cfg in LayerConfig::figure3() {
        let w = spec.build(Scale::Test);
        let r = SimBuilder::new(Protocol::Hlrc)
            .procs(4)
            .layers(cfg)
            .run(w.as_ref());
        assert!(
            r.verify_error.is_none(),
            "{}: {:?}",
            cfg.label(),
            r.verify_error
        );
        assert!(r.total_cycles > 0);
    }
}

/// Tracing captures the protocol conversation and is off by default.
#[test]
fn tracing_captures_protocol_events() {
    let w = ssm::apps::fft::Fft::new(256);
    let silent = SimBuilder::new(Protocol::Hlrc).procs(4).run(&w);
    assert!(silent.trace.is_empty(), "tracing must be opt-in");
    let w = ssm::apps::fft::Fft::new(256);
    let traced = SimBuilder::new(Protocol::Hlrc).procs(4).trace(true).run(&w);
    assert!(!traced.trace.is_empty());
    // Every send has a matching wire direction and times are sane.
    assert!(traced.trace.iter().any(|e| e.label == "send"));
    assert!(traced.trace.iter().any(|e| e.label == "handle"));
    for e in &traced.trace {
        assert!(e.node < 4);
        assert!(e.time <= traced.total_cycles);
    }
    // Sends recorded equal messages counted.
    let sends = traced.trace.iter().filter(|e| e.label == "send").count() as u64;
    assert_eq!(sends, traced.counters.messages);
}

/// Four processors contend for an outer lock (FIFO handoff), take a
/// nested inner lock inside it, and meet at two barrier episodes.
struct SyncMix {
    data: std::cell::RefCell<Option<ssm::proto::SharedVec<u64>>>,
}

impl ssm::proto::Workload for SyncMix {
    fn name(&self) -> String {
        "sync-mix".into()
    }

    fn mem_bytes(&self) -> usize {
        4 * 4096
    }

    fn spawn(&self, world: &mut ssm::proto::World, nprocs: usize) -> Vec<ssm::proto::ThreadBody> {
        // 512 u64s per page: the counter, the inner-lock slots, the
        // outer-lock slots and the barrier-phase slots sit on four pages,
        // homed round-robin at four different nodes.
        let v = world.alloc_vec::<u64>(4 * 512);
        let outer = world.alloc_lock();
        let inner = world.alloc_lock();
        let bar = world.alloc_barrier();
        *self.data.borrow_mut() = Some(v.clone());
        (0..nprocs)
            .map(|pid| {
                let v = v.clone();
                let body: ssm::proto::ThreadBody = Box::new(move |p| {
                    p.compute(50 * (pid as u64 + 1));
                    for r in 0..3u64 {
                        p.lock(outer);
                        v.set(p, 0, v.get(p, 0) + 1);
                        p.lock(inner);
                        let slot = 512 + 8 * pid;
                        v.set(p, slot, v.get(p, slot) + r);
                        p.unlock(inner);
                        v.set(p, 1024 + pid, r);
                        p.unlock(outer);
                        p.compute(200);
                    }
                    p.barrier(bar);
                    v.set(p, 1536 + 64 * pid, pid as u64);
                    let _ = v.get(p, 0);
                    p.barrier(bar);
                    let _ = v.get(p, 1536 + 64 * ((pid + 1) % nprocs));
                });
                body
            })
            .collect()
    }

    fn verify(&self) -> Result<(), String> {
        let v = self.data.borrow();
        let got = v.as_ref().expect("spawned").get_direct(0);
        (got == 12)
            .then_some(())
            .ok_or(format!("counter {got}, want 12"))
    }
}

/// Synchronization timing is pinned for every protocol at p4: a contended
/// lock, a nested lock and two barrier episodes give these totals, these
/// per-processor LockWait and BarrierWait buckets and these message
/// counts. A refactor of the lock or barrier managers must leave every
/// number unchanged.
#[test]
fn sync_timing_is_pinned() {
    use ssm::proto::Protocol as ProtocolTrait;
    type Pin = (&'static str, u64, [u64; 4], [u64; 4], u64);
    let pins: [Pin; 6] = [
        ("IDEAL", 1422, [304, 286, 236, 354], [168, 176, 176, 8], 0),
        (
            "HLRC",
            1006364,
            [463864, 528186, 599622, 623096],
            [248320, 177154, 107722, 57098],
            166,
        ),
        (
            "AURC",
            847488,
            [367344, 420620, 480438, 500116],
            [203776, 148360, 89664, 103728],
            166,
        ),
        (
            "SC",
            366908,
            [164300, 192348, 203966, 244656],
            [70458, 64486, 37732, 17518],
            204,
        ),
        (
            "SC-delayed",
            317512,
            [170192, 189124, 220900, 245170],
            [66704, 56504, 36272, 18076],
            186,
        ),
        (
            "RDMA",
            203246,
            [110200, 120204, 148130, 153922],
            [44748, 43824, 32526, 23724],
            140,
        ),
    ];
    for (name, total, lock_wait, barrier_wait, messages) in pins {
        let mut proto: Box<dyn ProtocolTrait> = match name {
            "IDEAL" => Box::new(ssm::proto::Ideal::new()),
            "HLRC" => Box::new(ssm::hlrc::Hlrc::new()),
            "AURC" => Box::new(ssm::hlrc::Hlrc::aurc()),
            "SC" => Box::new(ssm::sc::Sc::new(64)),
            "SC-delayed" => Box::new(ssm::sc::Sc::delayed(64)),
            _ => Box::new(ssm_rdma::Rdma::new(64)),
        };
        assert_eq!(proto.name(), name);
        let machine = ssm::proto::Machine::new(
            4,
            ssm::net::CommParams::achievable(),
            ssm::proto::ProtoCosts::original(),
            ssm::mem::MemConfig::pentium_pro_like(),
        );
        let w = SyncMix {
            data: std::cell::RefCell::new(None),
        };
        let r = ssm::core::run_simulation(proto.as_mut(), &w, 4, machine).expect_verified();
        let bucket = |b: Bucket| -> Vec<u64> { r.per_proc.iter().map(|x| x.get(b)).collect() };
        let got = (
            r.total_cycles,
            bucket(Bucket::LockWait),
            bucket(Bucket::BarrierWait),
            r.counters.messages,
        );
        assert_eq!(
            got,
            (total, lock_wait.to_vec(), barrier_wait.to_vec(), messages),
            "{name}: (total cycles, LockWait, BarrierWait, messages)"
        );
    }
}
