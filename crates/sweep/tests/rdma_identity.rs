//! Hash-space extension guard for the RDMA protocol: linking `ssm-rdma`
//! (and threading its comm knobs through `CommParams`) must not disturb a
//! single pre-existing cell hash or cache byte. A warm figure-3-style
//! rerun executes zero cells and leaves the cache byte-identical; adding
//! the RDMA bars only *appends* to the cache.

use std::path::{Path, PathBuf};

use ssm_apps::catalog::Scale;
use ssm_core::{LayerConfig, Protocol};
use ssm_sweep::{Cell, Sweep, SweepCli, CACHE_FILE};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ssm-rdma-identity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn opts(dir: &Path) -> SweepCli {
    SweepCli {
        jobs: 2,
        quiet: true,
        results_dir: dir.to_path_buf(),
        ..SweepCli::default()
    }
}

/// The figure-3 enumeration shape (baseline + ideal + HLRC grid + SC
/// grid) for one application at test scale.
fn figure3_cells(app: &str) -> Vec<Cell> {
    let mut cells = vec![
        Cell::baseline(app, Scale::Test),
        Cell::ideal(app, 2, Scale::Test),
    ];
    for cfg in LayerConfig::figure3() {
        cells.push(Cell::new(app, Protocol::Hlrc, cfg, 2, Scale::Test));
    }
    for label in ["B+O", "BO", "HO", "AO", "WO"] {
        let cfg = LayerConfig::parse(label).expect("known label");
        cells.push(Cell::new(app, Protocol::Sc, cfg, 2, Scale::Test));
    }
    cells
}

/// The RDMA bars that the `rdmagrid` binary adds on top of figure 3.
fn rdma_cells(app: &str) -> Vec<Cell> {
    LayerConfig::figure3()
        .iter()
        .map(|cfg| Cell::new(app, Protocol::Rdma, *cfg, 2, Scale::Test))
        .collect()
}

#[test]
fn warm_figure3_rerun_executes_nothing_and_diffs_clean() {
    let dir = tmpdir("warm");
    let cells = figure3_cells("FFT");

    let cold = Sweep::enumerate(&cells).configure(&opts(&dir)).run();
    assert_eq!(cold.cached, 0);
    assert_eq!(cold.executed, cells.len());
    let cache_after_cold = std::fs::read(dir.join(CACHE_FILE)).expect("cache");

    // Warm rerun with the RDMA crate linked into this very test binary:
    // zero executions, and the cache file is byte-identical.
    let warm = Sweep::enumerate(&cells).configure(&opts(&dir)).run();
    assert_eq!(
        warm.executed, 0,
        "warm figure3 rerun must be all cache hits"
    );
    assert_eq!(warm.cached, cells.len());
    assert_eq!(
        std::fs::read(dir.join(CACHE_FILE)).expect("cache"),
        cache_after_cold,
        "warm rerun must not rewrite a single cache byte"
    );

    // Adding the RDMA bars executes exactly the new cells and *appends*:
    // the pre-existing cache bytes are an untouched prefix.
    let mut extended = cells.clone();
    extended.extend(rdma_cells("FFT"));
    let ext = Sweep::enumerate(&extended).configure(&opts(&dir)).run();
    assert_eq!(ext.cached, cells.len());
    assert_eq!(ext.executed, extended.len() - cells.len());
    let cache_after_ext = std::fs::read(dir.join(CACHE_FILE)).expect("cache");
    assert!(
        cache_after_ext.starts_with(&cache_after_cold),
        "RDMA cells must append to the cache, not rewrite it"
    );

    // And the extended enumeration is itself warm-stable.
    let warm2 = Sweep::enumerate(&extended).configure(&opts(&dir)).run();
    assert_eq!(warm2.executed, 0);
    assert_eq!(
        std::fs::read(dir.join(CACHE_FILE)).expect("cache"),
        cache_after_ext
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rdma_cells_have_hashes_disjoint_from_every_other_protocol() {
    // Same app/config/procs/scale, different protocol ⇒ different hash;
    // the RDMA variant extends the hash space instead of colliding into
    // any pre-existing cell.
    let mut hashes = std::collections::HashSet::new();
    for proto in Protocol::ALL {
        if proto == Protocol::Ideal {
            continue; // ideal cells normalize layer fields away by design
        }
        for cfg in LayerConfig::figure3() {
            let cell = Cell::new("FFT", proto, cfg, 2, Scale::Test);
            assert!(
                hashes.insert(cell.hash()),
                "hash collision at {} {}",
                proto.label(),
                cfg.label()
            );
        }
    }
}
