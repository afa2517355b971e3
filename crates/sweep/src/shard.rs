//! Deterministic shard assignment for distributed sweep execution.
//!
//! A shard is a slice of the cell enumeration selected by cell-hash
//! modulus: cell `c` belongs to shard `i` of `N` iff
//! `hash(c) % N == i`. The assignment depends only on the cell identity,
//! so every worker, on this machine or another, computes the same
//! partition without communicating.

use crate::cell::Cell;

/// Subdirectory of the results directory whose per-shard caches a plain
/// sweep merges before it runs. By convention worker `i` of `N` writes to
/// `<results>/shards/<i>-of-<N>`; any subdirectory name works.
pub const SHARDS_DIR: &str = "shards";

/// One shard of an `N`-way partition of the cell space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Zero-based shard index.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl ShardSpec {
    /// Builds a spec, validating `index < count` and `count > 0`.
    pub fn new(index: usize, count: usize) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shards (use 0..{count})"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parses the `--shard i/N` argument form.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("bad shard spec {s:?} (expected i/N, e.g. 0/3)"))?;
        let index = i
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("bad shard index {i:?}"))?;
        let count = n
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("bad shard count {n:?}"))?;
        ShardSpec::new(index, count)
    }

    /// Whether this shard owns `cell`.
    pub fn owns(&self, cell: &Cell) -> bool {
        shard_of(&cell.hash(), self.count) == self.index
    }
}

/// The shard index that owns a cell hash under an `N`-way partition.
///
/// The hash is the cell's 16-hex-digit FNV-1a string; the modulus is taken
/// over its `u64` value, so the partition is stable across processes and
/// machines.
pub fn shard_of(hash: &str, count: usize) -> usize {
    debug_assert!(count > 0);
    let h = u64::from_str_radix(hash, 16).unwrap_or(0);
    (h % count as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_apps::catalog::Scale;
    use ssm_core::{LayerConfig, Protocol};

    fn cells() -> Vec<Cell> {
        let mut out = Vec::new();
        for app in ["FFT", "Radix", "LU", "Ocean"] {
            out.push(Cell::baseline(app, Scale::Test));
            for procs in [2, 4, 8, 16] {
                out.push(Cell::new(
                    app,
                    Protocol::Hlrc,
                    LayerConfig::base(),
                    procs,
                    Scale::Test,
                ));
            }
        }
        out
    }

    #[test]
    fn every_cell_lands_in_exactly_one_shard() {
        for count in [1, 2, 3, 7] {
            for cell in cells() {
                let owners: Vec<usize> = (0..count)
                    .filter(|&i| ShardSpec::new(i, count).unwrap().owns(&cell))
                    .collect();
                assert_eq!(
                    owners.len(),
                    1,
                    "cell {} under {count} shards",
                    cell.label()
                );
                assert_eq!(owners[0], shard_of(&cell.hash(), count));
            }
        }
    }

    #[test]
    fn one_shard_owns_everything() {
        let spec = ShardSpec::new(0, 1).unwrap();
        for cell in cells() {
            assert!(spec.owns(&cell));
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let s = ShardSpec::parse("2/7").unwrap();
        assert_eq!(s, ShardSpec { index: 2, count: 7 });
        assert!(ShardSpec::parse("7/7").is_err(), "index out of range");
        assert!(ShardSpec::parse("0/0").is_err(), "zero shards");
        assert!(ShardSpec::parse("3").is_err(), "missing slash");
        assert!(ShardSpec::parse("a/b").is_err(), "not numbers");
    }
}
