//! Merging per-shard JSONL caches back into the main result cache.
//!
//! The merge is deterministic down to the byte: pre-existing lines of the
//! main cache are preserved verbatim in file order, and new records
//! harvested from the shard caches are appended in *canonical* form
//! ([`CellRecord::canonical`], `host_ms` zeroed) sorted by cell hash.
//! Running the same sweep under any shard count (including 1) therefore
//! produces an identical merged cache file.
//!
//! Two records for the same hash must agree on their canonical payload;
//! a disagreement means a hash collision or nondeterministic simulation
//! and aborts the merge — silently picking a winner would poison every
//! future cache hit.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::record::CellRecord;
use crate::store::CACHE_FILE;

/// What a completed merge did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Parseable records in the merged cache.
    pub total: usize,
    /// New records appended from the shard caches.
    pub added: usize,
    /// Shard records skipped because an identical record was already
    /// present (in the main cache or an earlier shard).
    pub duplicates: usize,
}

/// Why a merge refused to write.
#[derive(Debug)]
pub enum MergeError {
    /// Reading or writing a cache file failed.
    Io(std::io::Error),
    /// Two sources hold different results for the same cell hash.
    Conflict {
        /// The contested cell hash.
        hash: String,
        /// Display label of the conflicting cell.
        label: String,
        /// Which sources disagree and how.
        detail: String,
    },
}

impl From<std::io::Error> for MergeError {
    fn from(e: std::io::Error) -> Self {
        MergeError::Io(e)
    }
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Io(e) => write!(f, "merge I/O error: {e}"),
            MergeError::Conflict {
                hash,
                label,
                detail,
            } => write!(f, "conflicting records for cell {label} ({hash}): {detail}"),
        }
    }
}

/// The non-blank lines of a cache file (none if it does not exist).
fn read_lines(path: &Path) -> std::io::Result<Vec<String>> {
    let mut lines = Vec::new();
    if path.exists() {
        for line in BufReader::new(File::open(path)?).lines() {
            let line = line?;
            if !line.trim().is_empty() {
                lines.push(line);
            }
        }
    }
    Ok(lines)
}

/// One source's winning record per hash, in the order hashes first appear.
/// Within a single cache file later lines win, matching
/// [`crate::ResultStore`]'s read semantics. Unparseable lines are skipped.
fn parse_records(lines: &[String]) -> Vec<(String, CellRecord)> {
    let mut order: Vec<String> = Vec::new();
    let mut map: HashMap<String, CellRecord> = HashMap::new();
    for line in lines {
        if let Ok(rec) = Json::parse(line).and_then(|j| CellRecord::from_json(&j)) {
            let hash = rec.cell.hash();
            if map.insert(hash.clone(), rec).is_none() {
                order.push(hash);
            }
        }
    }
    order
        .into_iter()
        .map(|h| {
            let rec = map.remove(&h).expect("ordered hash present");
            (h, rec)
        })
        .collect()
}

/// Merges the shard caches under `shard_dirs` into `main_dir`'s cache.
///
/// Existing main-cache lines are kept byte-for-byte; new shard records are
/// appended canonically (host time zeroed) in hash order. The write is
/// atomic (temp file + rename), so a failed merge leaves the main cache
/// untouched; a merge that adds nothing does not write at all.
pub fn merge_caches(main_dir: &Path, shard_dirs: &[PathBuf]) -> Result<MergeOutcome, MergeError> {
    let main_path = main_dir.join(CACHE_FILE);

    // Pre-existing main-cache lines, preserved verbatim.
    let raw_lines = read_lines(&main_path)?;

    // Canonical payload per known hash, for conflict detection. Main-cache
    // records are canonicalized for comparison only — their stored bytes
    // (with real host times) stay as-is.
    let mut seen: HashMap<String, (String, String)> = HashMap::new(); // hash -> (source, canonical)
    for (hash, rec) in parse_records(&raw_lines) {
        seen.insert(
            hash,
            ("main cache".to_string(), rec.canonical().to_json().render()),
        );
    }
    let mut total = seen.len();

    let mut added: Vec<(String, String)> = Vec::new(); // (hash, canonical line)
    let mut duplicates = 0usize;
    for dir in shard_dirs {
        let source = dir.display().to_string();
        for (hash, rec) in parse_records(&read_lines(&dir.join(CACHE_FILE))?) {
            let canonical = rec.canonical().to_json().render();
            match seen.get(&hash) {
                Some((prior, existing)) if *existing == canonical => duplicates += 1,
                Some((prior, existing)) => {
                    return Err(MergeError::Conflict {
                        hash,
                        label: rec.cell.label(),
                        detail: conflict_detail(prior, existing, &source, &rec),
                    });
                }
                None => {
                    seen.insert(hash.clone(), (source.clone(), canonical.clone()));
                    added.push((hash, canonical));
                    total += 1;
                }
            }
        }
    }

    let outcome = MergeOutcome {
        total,
        added: added.len(),
        duplicates,
    };
    if added.is_empty() {
        return Ok(outcome); // nothing new: leave the main cache alone
    }
    // New records in hash order: deterministic regardless of shard count
    // or completion order.
    added.sort();

    let tmp = main_path.with_extension("jsonl.tmp");
    std::fs::create_dir_all(main_dir)?;
    {
        let mut f = File::create(&tmp)?;
        for line in &raw_lines {
            writeln!(f, "{line}")?;
        }
        for (_, line) in &added {
            writeln!(f, "{line}")?;
        }
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &main_path)?;
    Ok(outcome)
}

/// Human-readable description of which fields disagree.
fn conflict_detail(prior: &str, existing: &str, source: &str, rec: &CellRecord) -> String {
    let diff = match Json::parse(existing)
        .ok()
        .map(|j| CellRecord::from_json(&j))
    {
        Some(Ok(old)) if old.total_cycles != rec.total_cycles => {
            format!("total_cycles {} != {}", old.total_cycles, rec.total_cycles)
        }
        Some(Ok(old)) if old.verified != rec.verified => {
            format!("verified {} != {}", old.verified, rec.verified)
        }
        _ => "payloads differ".to_string(),
    };
    format!("{prior} vs {source}: {diff} (hash collision or nondeterministic simulation)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use ssm_apps::catalog::Scale;
    use ssm_core::{LayerConfig, Protocol};
    use ssm_stats::{Counters, ProtoActivity};

    fn record(app: &str, procs: usize, cycles: u64, host_ms: u64) -> CellRecord {
        CellRecord {
            cell: Cell::new(app, Protocol::Hlrc, LayerConfig::base(), procs, Scale::Test),
            total_cycles: cycles,
            per_proc: vec![[1, 0, 0, 0, 0, 0]; procs],
            activity: ProtoActivity::default(),
            counters: Counters::default(),
            verified: true,
            verify_error: None,
            host_ms,
            attempts: 1,
            threads_spawned: 0,
            threads_reused: 0,
        }
    }

    fn write_cache(dir: &Path, recs: &[CellRecord]) {
        std::fs::create_dir_all(dir).expect("mkdir");
        let lines: String = recs.iter().map(|r| r.to_json().render() + "\n").collect();
        std::fs::write(dir.join(CACHE_FILE), lines).expect("write");
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ssm-sweep-merge-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn merge_is_byte_identical_across_shard_groupings() {
        let root = tmpdir("group");
        let recs: Vec<CellRecord> = (2..=5)
            .map(|p| record("FFT", p, 100 * p as u64, p as u64))
            .collect();

        // One shard holding everything vs. two shards splitting it.
        let one = root.join("one");
        write_cache(&one.join("s0"), &recs);
        let a = root.join("main-a");
        std::fs::create_dir_all(&a).expect("mkdir");
        merge_caches(&a, &[one.join("s0")]).expect("merge");

        let two = root.join("two");
        write_cache(&two.join("s0"), &recs[..2]);
        write_cache(&two.join("s1"), &recs[2..]);
        let b = root.join("main-b");
        std::fs::create_dir_all(&b).expect("mkdir");
        // Reversed shard order: output must not depend on harvest order.
        merge_caches(&b, &[two.join("s1"), two.join("s0")]).expect("merge");

        let bytes_a = std::fs::read(a.join(CACHE_FILE)).expect("read");
        let bytes_b = std::fs::read(b.join(CACHE_FILE)).expect("read");
        assert_eq!(bytes_a, bytes_b);
        // Canonical lines carry no host time.
        let text = String::from_utf8(bytes_a).expect("utf8");
        assert!(text.contains("\"host_ms\":0"));
        assert!(!text.contains("\"host_ms\":2"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn existing_main_lines_survive_verbatim_and_duplicates_collapse() {
        let root = tmpdir("verbatim");
        let main = root.join("main");
        // Main cache holds a record with a real (nonzero) host time.
        write_cache(&main, &[record("FFT", 2, 100, 42)]);
        let before = std::fs::read_to_string(main.join(CACHE_FILE)).expect("read");

        // Shard re-ran the same cell (host time differs, payload agrees)
        // and adds one new cell.
        let shard = root.join("s0");
        write_cache(
            &shard,
            &[record("FFT", 2, 100, 7), record("FFT", 4, 400, 7)],
        );

        let out = merge_caches(&main, &[shard]).expect("merge");
        assert_eq!(
            out,
            MergeOutcome {
                total: 2,
                added: 1,
                duplicates: 1
            }
        );
        let after = std::fs::read_to_string(main.join(CACHE_FILE)).expect("read");
        assert!(
            after.starts_with(&before),
            "main lines must keep their bytes"
        );
        assert_eq!(after.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn conflicting_payloads_abort_without_touching_the_cache() {
        let root = tmpdir("conflict");
        let main = root.join("main");
        write_cache(&main, &[record("FFT", 2, 100, 1)]);
        let before = std::fs::read(main.join(CACHE_FILE)).expect("read");

        let shard = root.join("s0");
        write_cache(&shard, &[record("FFT", 2, 999, 1)]); // same cell, different cycles

        match merge_caches(&main, &[shard]) {
            Err(MergeError::Conflict { label, detail, .. }) => {
                assert!(label.contains("FFT"), "{label}");
                assert!(detail.contains("total_cycles 100 != 999"), "{detail}");
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(std::fs::read(main.join(CACHE_FILE)).expect("read"), before);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_shard_caches_are_empty_not_errors() {
        let root = tmpdir("missing");
        let main = root.join("main");
        std::fs::create_dir_all(&main).expect("mkdir");
        let out = merge_caches(&main, &[root.join("no-such-shard")]).expect("merge");
        assert_eq!(
            out,
            MergeOutcome {
                total: 0,
                added: 0,
                duplicates: 0
            }
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
