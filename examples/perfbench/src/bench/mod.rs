//! The benchmark's measuring code, shared by the `perfbench` binary and its
//! smoke test.

pub mod rep;
pub mod report;
pub mod workloads;

/// `golden.txt`: every workload cell's simulated result at
/// [`workloads::GOLDEN_SEED`].
pub const GOLDEN: &str = include_str!("../../golden.txt");
