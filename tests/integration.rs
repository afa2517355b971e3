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

    fn spawn_async(
        &self,
        world: &mut ssm::proto::World,
        nprocs: usize,
    ) -> Option<Vec<ssm::proto::AsyncBody>> {
        // 512 u64s per page: the counter, the inner-lock slots, the
        // outer-lock slots and the barrier-phase slots sit on four pages,
        // homed round-robin at four different nodes.
        let v = world.alloc_vec::<u64>(4 * 512);
        let outer = world.alloc_lock();
        let inner = world.alloc_lock();
        let bar = world.alloc_barrier();
        *self.data.borrow_mut() = Some(v.clone());
        let bodies = (0..nprocs).map(|pid| {
            let v = v.clone();
            ssm::proto::async_body(move |p| async move {
                p.compute(50 * (pid as u64 + 1));
                for r in 0..3u64 {
                    p.lock(outer).await;
                    let n = v.read(&p, 0).await;
                    v.write(&p, 0, n + 1).await;
                    p.lock(inner).await;
                    let slot = 512 + 8 * pid;
                    let x = v.read(&p, slot).await;
                    v.write(&p, slot, x + r).await;
                    p.unlock(inner).await;
                    v.write(&p, 1024 + pid, r).await;
                    p.unlock(outer).await;
                    p.compute(200);
                }
                p.barrier(bar).await;
                v.write(&p, 1536 + 64 * pid, pid as u64).await;
                v.read(&p, 0).await;
                p.barrier(bar).await;
                v.read(&p, 1536 + 64 * ((pid + 1) % nprocs)).await;
            })
        });
        Some(bodies.collect())
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

/// Elements of `u64` per 4 KB page.
const PAGE_ELEMS: usize = 512;

/// The data path on five pages: accesses that cross 64 B block and 4 KB
/// page boundaries, home writes to units with remote sharers, and reads
/// after a remote write across a lock and across a barrier.
struct DataPath {
    data: std::cell::RefCell<Option<ssm::proto::SharedVec<u64>>>,
}

impl ssm::proto::Workload for DataPath {
    fn name(&self) -> String {
        "data-path".into()
    }

    fn mem_bytes(&self) -> usize {
        6 * 4096
    }

    fn spawn_async(
        &self,
        world: &mut ssm::proto::World,
        nprocs: usize,
    ) -> Option<Vec<ssm::proto::AsyncBody>> {
        let v = world.alloc_vec::<u64>(5 * PAGE_ELEMS);
        let lock = world.alloc_lock();
        let bar = world.alloc_barrier();
        *self.data.borrow_mut() = Some(v.clone());
        let bodies = (0..nprocs).map(|pid| {
            let v = v.clone();
            ssm::proto::async_body(move |p| async move {
                p.compute(40 * (pid as u64 + 1));
                // Bytes 48..80 of page `pid` (two blocks), then the last
                // two and first two words of pages `pid` and `pid + 1`.
                v.touch_write(&p, PAGE_ELEMS * pid + 6, 4).await;
                v.touch_read(&p, PAGE_ELEMS * (pid + 1) - 2, 4).await;
                // Everyone shares two blocks of page 4.
                v.touch_read(&p, 4 * PAGE_ELEMS + 6, 4).await;
                for _ in 0..3 {
                    p.lock(lock).await;
                    // Reads what the previous holder wrote.
                    let n = v.read(&p, 0).await;
                    v.write(&p, 0, n + 1).await;
                    v.touch_write(&p, PAGE_ELEMS - 1, 2).await;
                    p.unlock(lock).await;
                    p.compute(100);
                }
                p.barrier(bar).await;
                if pid == 0 {
                    // Page 4's home under round-robin writes blocks
                    // the others share.
                    v.touch_write(&p, 4 * PAGE_ELEMS + 4, 8).await;
                }
                p.barrier(bar).await;
                v.touch_read(&p, 4 * PAGE_ELEMS, 16).await;
                v.read(&p, 0).await;
                v.write(&p, 3 * PAGE_ELEMS + 8 * pid, pid as u64).await;
                p.barrier(bar).await;
                v.read(&p, 3 * PAGE_ELEMS + 8 * ((pid + 1) % nprocs)).await;
            })
        });
        Some(bodies.collect())
    }

    fn verify(&self) -> Result<(), String> {
        let v = self.data.borrow();
        let got = v.as_ref().expect("spawned").get_direct(0);
        (got == 12)
            .then_some(())
            .ok_or(format!("counter {got}, want 12"))
    }
}

/// The shared-access path is pinned for every protocol under both home
/// policies at p4 with 64 B blocks: total cycles, every per-processor
/// bucket and the simulated-machine counters. A refactor of home
/// placement, unit geometry or the per-access loop must leave every number
/// unchanged.
///
/// Each cell is a `protocol homes total_cycles` line, one line per
/// processor with its buckets in `Bucket::ALL` order, and one line of
/// counters in the order `simulated` lists them.
#[test]
fn data_path_is_pinned() {
    const PINS: &str = "
        IDEAL RoundRobin 1320
        [340, 728, 0, 152, 100, 0]
        [380, 728, 0, 112, 100, 0]
        [420, 728, 0, 88, 84, 0]
        [460, 636, 0, 132, 76, 0]
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12, 3, 65, 0]
        HLRC RoundRobin 789530
        [340, 672, 143700, 313432, 238200, 78990]
        [380, 1092, 270664, 382444, 78566, 57284]
        [420, 1016, 320708, 362726, 30846, 65462]
        [460, 1008, 257344, 286822, 147184, 64368]
        [134, 145376, 34, 21, 34, 21, 60, 21, 93, 24, 12, 3, 21, 0]
        AURC RoundRobin 674176
        [340, 924, 143656, 209376, 261476, 44360]
        [380, 1092, 270128, 312276, 68520, 22680]
        [420, 1016, 314252, 291100, 40376, 18660]
        [460, 1092, 254476, 230920, 134228, 21960]
        [143, 145280, 34, 21, 34, 0, 0, 0, 93, 24, 12, 3, 21, 30]
        SC RoundRobin 440146
        [340, 512, 116170, 137096, 106910, 83530]
        [380, 1008, 133690, 239602, 40884, 29032]
        [420, 1092, 141616, 175758, 105958, 19958]
        [460, 1008, 159730, 184308, 70934, 26066]
        [253, 11888, 33, 41, 50, 0, 0, 0, 0, 16, 12, 3, 8, 0]
        SC-delayed RoundRobin 376528
        [340, 7968, 36464, 159230, 106642, 73836]
        [380, 1092, 83934, 170520, 90332, 31860]
        [420, 1092, 101434, 188446, 66336, 21592]
        [460, 932, 88922, 216442, 45636, 23564]
        [237, 11376, 49, 0, 49, 30, 0, 0, 0, 32, 12, 3, 27, 0]
        RDMA RoundRobin 171184
        [340, 672, 15268, 0, 132284, 19800]
        [380, 1092, 49104, 62920, 53758, 2520]
        [420, 1092, 56942, 65484, 44426, 2820]
        [460, 1016, 37454, 79924, 42372, 2880]
        [142, 6784, 28, 7, 28, 0, 0, 0, 21, 9, 12, 3, 42, 0]
        IDEAL FirstTouch 1320
        [340, 728, 0, 152, 100, 0]
        [380, 728, 0, 112, 100, 0]
        [420, 728, 0, 88, 84, 0]
        [460, 636, 0, 132, 76, 0]
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12, 3, 65, 0]
        HLRC FirstTouch 775632
        [340, 712, 48716, 12152, 629250, 70458]
        [380, 932, 323158, 359158, 20490, 71514]
        [420, 1040, 231014, 281412, 163512, 64980]
        [460, 1008, 276074, 327736, 91840, 69262]
        [136, 145552, 34, 23, 34, 23, 76, 23, 96, 24, 12, 3, 21, 0]
        AURC FirstTouch 656220
        [340, 788, 57792, 21836, 514040, 48320]
        [380, 1016, 333352, 281416, 20876, 19180]
        [420, 1124, 239640, 226600, 136316, 21980]
        [460, 1092, 281192, 267532, 78712, 17980]
        [145, 145392, 34, 22, 34, 0, 0, 0, 96, 24, 12, 3, 22, 32]
        SC FirstTouch 465676
        [340, 6730, 118050, 164250, 85878, 97030]
        [380, 1092, 193994, 181516, 73092, 19358]
        [420, 1040, 111358, 211712, 115432, 30348]
        [460, 1016, 186858, 217946, 46626, 17280]
        [261, 12432, 33, 43, 54, 0, 0, 0, 0, 14, 12, 3, 10, 0]
        SC-delayed FirstTouch 406282
        [340, 6738, 26034, 171658, 122652, 89460]
        [380, 1092, 111988, 200518, 73804, 21200]
        [420, 1040, 86886, 185050, 105808, 31346]
        [460, 1016, 109222, 230386, 46896, 19800]
        [252, 12240, 54, 0, 54, 33, 0, 0, 0, 33, 12, 3, 29, 0]
        RDMA FirstTouch 175054
        [340, 712, 12436, 0, 138946, 19800]
        [380, 1092, 60510, 63098, 47094, 2880]
        [420, 1124, 47508, 60638, 55766, 2520]
        [460, 1016, 57810, 69126, 42352, 2880]
        [148, 7376, 30, 9, 30, 0, 0, 0, 24, 9, 12, 3, 45, 0]
    ";
    let mut got: Vec<String> = Vec::new();
    for homes in [HomePolicy::RoundRobin, HomePolicy::FirstTouch] {
        for proto in [
            Protocol::Ideal,
            Protocol::Hlrc,
            Protocol::Aurc,
            Protocol::Sc,
            Protocol::ScDelayed,
            Protocol::Rdma,
        ] {
            let w = DataPath {
                data: std::cell::RefCell::new(None),
            };
            let r = SimBuilder::new(proto)
                .procs(4)
                .sc_block(64)
                .home_policy(homes)
                .run(&w)
                .expect_verified();
            let c = r.counters.without_engine_counters();
            let simulated = [
                c.messages,
                c.bytes,
                c.remote_reads,
                c.remote_writes,
                c.fetches,
                c.diffs,
                c.diff_words,
                c.twins,
                c.write_notices,
                c.invalidations,
                c.lock_acquires,
                c.barriers,
                c.local_accesses,
                c.auto_updates,
            ];
            // Every other counter is zero on a fault-free run.
            let rebuilt = ssm::stats::Counters {
                messages: c.messages,
                bytes: c.bytes,
                remote_reads: c.remote_reads,
                remote_writes: c.remote_writes,
                fetches: c.fetches,
                diffs: c.diffs,
                diff_words: c.diff_words,
                twins: c.twins,
                write_notices: c.write_notices,
                invalidations: c.invalidations,
                lock_acquires: c.lock_acquires,
                barriers: c.barriers,
                local_accesses: c.local_accesses,
                auto_updates: c.auto_updates,
                ..Default::default()
            };
            assert_eq!(c, rebuilt, "{proto:?} {homes:?}: unpinned counter");
            got.push(format!("{} {homes:?} {}", proto.label(), r.total_cycles));
            for b in &r.per_proc {
                let cycles: Vec<u64> = Bucket::ALL.iter().map(|&k| b.get(k)).collect();
                got.push(format!("{cycles:?}"));
            }
            got.push(format!("{simulated:?}"));
        }
    }
    let want: Vec<&str> = PINS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(got, want, "(total; buckets per processor; counters)");
}

/// Every catalog application's simulated numbers at test scale, p4, HLRC
/// at the base configuration. A rewrite of an application's host code
/// must issue the same op stream, so it must leave every number here
/// unchanged.
///
/// Each line is `app total_cycles sim_ops messages [bucket sums]`, where
/// the bucket sums add each `Bucket::ALL` entry over the processors.
#[test]
fn catalog_numbers_are_pinned() {
    const PINS: &str = "
        FFT 374276 548 81 [97280, 31720, 528708, 0, 557176, 180704]
        LU-Contiguous 677576 171 138 [174760, 56704, 793808, 0, 1414020, 241256]
        Ocean-Contiguous 235212 720 60 [22528, 34944, 364184, 0, 381192, 129760]
        Ocean-rowwise 229108 584 60 [22528, 30156, 364016, 0, 360934, 130558]
        Radix 369686 2136 84 [22528, 75856, 609452, 0, 504148, 161544]
        Radix-Local 554180 966 120 [43008, 103728, 983396, 0, 755778, 238742]
        Barnes-original 3404622 6416 928 [114028, 107180, 4703904, 4260318, 2369726, 2049466]
        Barnes-Spatial 1224114 6050 205 [115284, 111480, 2746756, 0, 1474368, 417096]
        Raytrace 438676 8988 106 [211308, 12828, 710362, 350246, 0, 170354]
        Volrend 521452 4740 118 [211792, 84049, 1054418, 289797, 0, 255472]
        Volrend-rest 498736 4548 118 [211792, 93777, 1056014, 307020, 0, 256912]
        Water-Nsquared 2063266 464 500 [1155072, 18468, 3173768, 1622636, 1380636, 986138]
        Water-Spatial 3352340 352 60 [5901568, 16652, 3760910, 0, 3557328, 137518]
    ";
    let mut got: Vec<String> = Vec::new();
    for spec in suite() {
        let w = spec.build(Scale::Test);
        let r = SimBuilder::new(Protocol::Hlrc)
            .procs(4)
            .run(w.as_ref())
            .expect_verified();
        let sums: Vec<u64> = Bucket::ALL
            .iter()
            .map(|&k| r.per_proc.iter().map(|b| b.get(k)).sum())
            .collect();
        got.push(format!(
            "{} {} {} {} {sums:?}",
            spec.name, r.total_cycles, r.counters.sim_ops, r.counters.messages
        ));
    }
    let want: Vec<&str> = PINS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(got, want, "(app total sim_ops messages bucket sums)");
}
