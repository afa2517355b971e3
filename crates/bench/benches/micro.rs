//! Micro-benchmarks of the simulator's hot paths: the cache model, the
//! network model, and the two protocols' fundamental transactions. Uses
//! the std-only timing loop from `ssm_bench::bench` (the hermetic build
//! carries no benchmark-harness dependency).
//!
//! Run with `cargo bench -p ssm-bench --bench micro`.

use std::hint::black_box;

use ssm_bench::bench;
use ssm_hlrc::Hlrc;
use ssm_mem::{Hierarchy, MemConfig};
use ssm_net::{CommParams, Network};
use ssm_proto::{Machine, ProtoCosts, Protocol, WorldShape, PAGE_SIZE};
use ssm_sc::Sc;

fn machine(n: usize) -> Machine {
    Machine::new(
        n,
        CommParams::achievable(),
        ProtoCosts::original(),
        MemConfig::pentium_pro_like(),
    )
}

fn shape() -> WorldShape {
    WorldShape {
        heap_bytes: 1 << 22,
        nlocks: 1,
        nbarriers: 1,
    }
}

fn main() {
    bench("cache/stream_64kb", || {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        black_box(h.stream_range(0, 0, 64 * 1024, false))
    });
    bench("cache/touch_4kb", || {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        black_box(h.touch_range(0, 0, 4096, true))
    });

    {
        let mut net = Network::new(16, CommParams::achievable());
        let mut t = 0;
        bench("network/deliver_page", || {
            t += 1;
            black_box(net.deliver(t, 0, 1, PAGE_SIZE))
        });
    }

    bench("hlrc/page_fetch", || {
        let mut m = machine(4);
        let mut p = Hlrc::new();
        p.init(&m, &shape());
        black_box(p.read(&mut m, 1, 0, 8))
    });
    bench("hlrc/twin_diff_cycle", || {
        let mut m = machine(4);
        let mut p = Hlrc::new();
        p.init(&m, &shape());
        // Write a remote page, then flush at a release.
        let t = p.write(&mut m, 1, 0, 256);
        m.clock[1] = t;
        assert!(p.lock_table_mut().acquire(ssm_proto::LockId(0), 1));
        black_box(p.unlock(&mut m, 1, ssm_proto::LockId(0)))
    });

    bench("sc/read_miss_64b", || {
        let mut m = machine(4);
        let mut p = Sc::new(64);
        p.init(&m, &shape());
        black_box(p.read(&mut m, 1, 0, 8))
    });
    bench("sc/write_invalidate_3_sharers", || {
        let mut m = machine(4);
        let mut p = Sc::new(64);
        p.init(&m, &shape());
        for q in 1..4 {
            let t = p.read(&mut m, q, 0, 8);
            m.clock[q] = t;
        }
        black_box(p.write(&mut m, 1, 0, 8))
    });
}
