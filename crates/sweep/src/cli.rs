//! The shared command line for every sweep binary.
//!
//! All figure/table binaries accept the same flags:
//!
//! * `--procs N` — simulated processors (default 16, the paper's scale);
//! * `--scale test|bench|full` — problem sizes (default `bench`);
//! * `--app NAME` — restrict to applications whose name contains `NAME`
//!   (a name that matches no application is a usage error);
//! * `--jobs N` — job threads, one cell in flight on each (default:
//!   available parallelism);
//! * `--no-cache` — ignore the result cache and write nothing under
//!   `--results` (neither `sweep_cache.jsonl` nor `bench_summary.json`);
//! * `--no-batching` — one handoff per simulated operation: the same
//!   batching path with a cap of one operation, so a body never runs
//!   past an operation the driver has not replayed (results are
//!   byte-identical; only the host-side handoff counters and wall time
//!   change, and every operation counts as a one-op batch);
//! * `--timeout SECS` — per-cell wall-time limit, a positive number of
//!   seconds (default: none); a cell past it is reported as timed out and
//!   its job thread is abandoned and replaced;
//! * `--results DIR` — results directory (default `results/`);
//! * `--quiet` — suppress stderr progress;
//! * `--shard i/N` — worker mode: run only the cells whose hash lands on
//!   shard `i` of an N-way partition into `--results`, write the summary
//!   and exit (0 when every owned cell completed, 1 otherwise) without
//!   rendering. A later plain run whose `--results` holds the shard
//!   directories under `shards/` merges their caches into its own before
//!   it executes anything (see [`crate::ResultStore::merge_shards`]).
//!
//! The same struct is the whole sweep configuration: embedders and tests
//! set its public fields and hand it to [`crate::Sweep::configure`].
//!
//! Binaries with extra flags use [`SweepCli::parse_with`] and handle their
//! own in the callback.

use std::path::PathBuf;
use std::time::Duration;

use ssm_apps::catalog::{suite, AppSpec, Scale};

use crate::shard::ShardSpec;

/// Prints a usage error and exits with status 2 (no panic backtrace).
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parsed common flags.
#[derive(Debug, Clone)]
pub struct SweepCli {
    /// Simulated processor count.
    pub procs: usize,
    /// Problem-size scale.
    pub scale: Scale,
    /// Substring filter on application names (empty = all).
    pub filter: String,
    /// Job threads (cells in flight at once).
    pub jobs: usize,
    /// Skip the on-disk cache and the summary: write nothing to disk.
    pub no_cache: bool,
    /// Disable batched handoffs (diagnostic; results identical).
    pub no_batching: bool,
    /// Per-cell wall-time limit.
    pub timeout: Option<Duration>,
    /// Results directory.
    pub results_dir: PathBuf,
    /// Suppress stderr progress.
    pub quiet: bool,
    /// Worker mode: run this shard's slice into `--results`, then exit.
    pub shard: Option<ShardSpec>,
}

impl Default for SweepCli {
    fn default() -> Self {
        SweepCli {
            procs: 16,
            scale: Scale::Bench,
            filter: String::new(),
            jobs: std::thread::available_parallelism().map_or(1, usize::from),
            no_cache: false,
            no_batching: false,
            timeout: None,
            results_dir: PathBuf::from("results"),
            quiet: false,
            shard: None,
        }
    }
}

impl SweepCli {
    /// Parses the common flags from `std::env::args`, rejecting unknown
    /// ones. Malformed or unknown arguments print a usage error and exit
    /// with status 2.
    pub fn parse() -> Self {
        Self::parse_with(|flag, _| {
            die(&format!(
                "unknown flag {flag}; use --procs/--scale/--app/--jobs/--no-cache/--no-batching/--timeout/--results/--quiet/--shard"
            ))
        })
    }

    /// Parses the common flags; each unknown flag is handed to `extra`
    /// together with the argument iterator so binaries can consume a
    /// value for it. Malformed arguments print a usage error and exit
    /// with status 2.
    pub fn parse_with(mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>)) -> Self {
        let mut cli = SweepCli::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--procs" => {
                    cli.procs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| die("--procs needs a positive number"));
                }
                "--scale" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| die("--scale test|bench|full"));
                    cli.scale = Scale::from_label(&v)
                        .unwrap_or_else(|_| die(&format!("--scale test|bench|full, got {v:?}")));
                }
                "--app" => {
                    cli.filter = args.next().unwrap_or_else(|| die("--app needs a name"));
                }
                "--jobs" => {
                    cli.jobs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| die("--jobs needs a positive number"));
                }
                "--no-cache" => cli.no_cache = true,
                "--no-batching" => cli.no_batching = true,
                "--timeout" => {
                    cli.timeout = Some(Duration::from_secs(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&s: &u64| s > 0)
                            .unwrap_or_else(|| die("--timeout needs a positive number of seconds")),
                    ));
                }
                "--results" => {
                    cli.results_dir =
                        PathBuf::from(args.next().unwrap_or_else(|| die("--results needs a dir")));
                }
                "--quiet" => cli.quiet = true,
                "--shard" => {
                    let v = args.next().unwrap_or_else(|| die("--shard needs i/N"));
                    cli.shard = Some(
                        ShardSpec::parse(&v).unwrap_or_else(|e| die(&format!("--shard: {e}"))),
                    );
                }
                other => extra(other, &mut args),
            }
        }
        if cli.shard.is_some() && cli.no_cache {
            die("--shard writes its slice into the cache under --results; drop --no-cache");
        }
        if cli.apps().is_empty() {
            let names: Vec<&str> = suite().iter().map(|a| a.name).collect();
            die(&format!(
                "--app {:?} matches no application; the catalog has {}",
                cli.filter,
                names.join(", ")
            ));
        }
        cli
    }

    /// A CLI with explicit settings (used by tests).
    pub fn fixed(procs: usize, scale: Scale) -> Self {
        SweepCli {
            procs,
            scale,
            ..SweepCli::default()
        }
    }

    /// The selected applications.
    pub fn apps(&self) -> Vec<AppSpec> {
        suite()
            .into_iter()
            .filter(|a| self.filter.is_empty() || a.name.contains(&self.filter))
            .collect()
    }

    /// One-line run description for table headers.
    pub fn describe(&self) -> String {
        format!("{} processors, scale {}", self.procs, self.scale.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_scale() {
        let cli = SweepCli::default();
        assert_eq!(cli.procs, 16);
        assert_eq!(cli.scale, Scale::Bench);
        assert!(cli.jobs >= 1);
        assert!(!cli.no_cache);
    }

    #[test]
    fn filter_selects_apps() {
        let mut cli = SweepCli::fixed(2, Scale::Test);
        cli.filter = "Water".to_string();
        let apps = cli.apps();
        assert_eq!(apps.len(), 2);
        assert!(apps.iter().all(|a| a.name.contains("Water")));
    }
}
