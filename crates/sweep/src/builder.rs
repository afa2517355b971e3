//! The `Sweep` builder: the one front door to sweep execution.
//!
//! Every bench binary builds its cell enumeration, then runs it through
//! this builder, configured straight from the shared command line (the
//! [`SweepCli`] is the whole configuration):
//!
//! ```no_run
//! use ssm_sweep::prelude::*;
//! # let cells: Vec<Cell> = Vec::new();
//! let cli = SweepCli::parse();
//! let run = Sweep::enumerate(&cells).configure(&cli).run();
//! # let _ = run;
//! ```
//!
//! Embedders without a command line set the few knobs they need with
//! [`Sweep::jobs`], [`Sweep::cache`] and [`Sweep::quiet`].

use std::path::PathBuf;

use crate::cell::Cell;
use crate::cli::SweepCli;
use crate::exec::{run_local, SweepRun};

/// A configured sweep over an explicit cell enumeration.
///
/// Without `--shard` every cell runs in-process; with `--shard i/N` the
/// sweep is a worker that runs only its slice into the results directory
/// and then exits the process (see [`Sweep::run`]).
#[derive(Debug)]
pub struct Sweep {
    cells: Vec<Cell>,
    cli: SweepCli,
}

impl Sweep {
    /// Starts a sweep over `cells` with default options (cache on under
    /// `results/`, all host cores, progress and summary enabled).
    pub fn enumerate(cells: &[Cell]) -> Self {
        Sweep {
            cells: cells.to_vec(),
            cli: SweepCli::default(),
        }
    }

    /// Applies everything the shared command line selected.
    pub fn configure(mut self, cli: &SweepCli) -> Self {
        self.cli = cli.clone();
        self
    }

    /// Host worker threads (cells in flight at once).
    pub fn jobs(mut self, n: usize) -> Self {
        self.cli.jobs = n.max(1);
        self
    }

    /// Enables the on-disk cache under `dir` (also the summary location).
    pub fn cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cli.results_dir = dir.into();
        self.cli.no_cache = false;
        self
    }

    /// Suppresses stderr progress.
    pub fn quiet(mut self) -> Self {
        self.cli.quiet = true;
        self
    }

    /// Runs the sweep.
    ///
    /// As a `--shard i/N` worker this **never returns**: it runs the
    /// owned cells with the cache on (the cache *is* the worker's output)
    /// and exits 0 when every one completed, 1 otherwise, before the
    /// calling binary gets a chance to render anything.
    pub fn run(mut self) -> SweepRun {
        let Some(spec) = self.cli.shard else {
            return run_local(&self.cells, &self.cli);
        };
        self.cli.no_cache = false;
        self.cells.retain(|c| spec.owns(c));
        let run = run_local(&self.cells, &self.cli);
        std::process::exit(if run.failed == 0 { 0 } else { 1 });
    }
}
