//! `ssm-sweep` — sweep execution for the `ssm` paper reproduction.
//!
//! Every figure and table in the paper is a *sweep*: a set of independent
//! simulation **cells** `{application, protocol, layer configuration,
//! processors, scale}`. This crate owns the whole pipeline from cell
//! enumeration to cached results:
//!
//! * [`Cell`] — a content-addressed cell description with a stable hash
//!   ([`Cell::hash`]), so identical cells are recognized across binaries
//!   and sessions;
//! * [`Sweep`] — the builder front door: an in-process executor whose
//!   coordinator deals cells to one std thread per `--jobs` slot, with
//!   per-cell panic capture, wall-time limits, live progress and
//!   deterministic result ordering;
//! * [`ResultStore`] — an append-only JSONL cache under `results/` keyed
//!   by cell hash, making every sweep resumable and shareable between
//!   binaries, and the only reader and writer of cache files (shard merges
//!   included); plus `results/bench_summary.json`, the machine-readable
//!   summary of the latest sweep;
//! * [`SweepCli`] — the common `--procs/--scale/--app/--jobs/--no-cache`
//!   (and `--shard i/N`) command line every binary speaks, and the whole
//!   sweep configuration.
//!
//! Multi-machine runs need no coordinator: each machine runs a
//! `--shard i/N` worker ([`ShardSpec`]) into `results/shards/<i>-of-<N>`,
//! the shard directories are copied back, and any plain sweep over that
//! results directory merges them ([`ResultStore::merge_shards`]) before
//! executing whatever they left out.
//!
//! A typical binary enumerates its cells, runs one sweep, then renders its
//! figure/table from the returned [`SweepRun`]:
//!
//! ```no_run
//! use ssm_sweep::prelude::*;
//! use ssm_core::{LayerConfig, Protocol};
//!
//! let cli = SweepCli::parse();
//! let mut cells = Vec::new();
//! for app in cli.apps() {
//!     cells.push(Cell::baseline(app.name, cli.scale)); // speedup denominator
//!     cells.push(Cell::new(app.name, Protocol::Hlrc, LayerConfig::base(), cli.procs, cli.scale));
//! }
//! let run = Sweep::enumerate(&cells).configure(&cli).run();
//! for cell in &cells {
//!     if let Some(s) = run.speedup(cell) {
//!         println!("{}: {s:.2}", cell.label());
//!     }
//! }
//! ```

pub mod builder;
pub mod cell;
pub mod cli;
pub mod exec;
pub mod json;
pub mod record;
pub mod shard;
pub mod store;

pub use builder::Sweep;
pub use cell::{Cell, CommSpec};
pub use cli::SweepCli;
pub use exec::{execute, execute_with, CellOutcome, CellStatus, SweepRun};
pub use json::Json;
pub use record::{CellRecord, SCHEMA_VERSION};
pub use shard::{shard_of, ShardSpec, SHARDS_DIR};
pub use store::{ResultStore, CACHE_FILE, SUMMARY_FILE};

/// Everything a bench binary needs: `use ssm_sweep::prelude::*;`.
pub mod prelude {
    pub use crate::builder::Sweep;
    pub use crate::cell::{Cell, CommSpec};
    pub use crate::cli::SweepCli;
    pub use crate::exec::{CellOutcome, CellStatus, SweepRun};
    pub use crate::record::CellRecord;
    pub use crate::shard::ShardSpec;
}
