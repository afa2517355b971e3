//! The on-disk result store: a JSON-lines cache keyed by cell hash.
//!
//! Layout under the results directory (default `results/`):
//!
//! * `sweep_cache.jsonl` — one [`CellRecord`] per line, appended as cells
//!   complete. Re-running an interrupted sweep only executes the missing
//!   cells; every binary shares the one cache, so `figure4` reuses cells
//!   `figure3` already ran.
//! * `shards/*/sweep_cache.jsonl` — caches written by `--shard i/N`
//!   workers, folded in by [`ResultStore::merge_shards`].
//! * `bench_summary.json` — the latest sweep's machine-readable summary
//!   (written by the executor), doubling as the repo's benchmark
//!   trajectory.
//!
//! This module is the only code that reads or writes a cache file: one
//! line scanner serves both [`ResultStore::open`] and the shard merge.
//! Corrupt or stale-schema lines are counted and skipped, never trusted,
//! and later lines win. A torn *trailing* line (a partial record with no
//! newline, left by an interrupted append) is truncated away at open, so a
//! crashed sweep or merge resumes onto a clean tail instead of poisoning
//! the next append.
//!
//! # Memory residency
//!
//! The store keeps only an offset index (cell hash → byte offset of the
//! record's line) resident; records are parsed lazily on [`ResultStore::get`].
//! At `--scale full` a cache holds thousands of per-processor breakdown
//! vectors, and keeping them all decoded would dwarf the simulator's own
//! footprint. Opening still validates every line once (parse then drop) so
//! corrupt lines are counted exactly as before. One append handle is held
//! for the store's lifetime — appends never reopen the file.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::record::CellRecord;

/// File name of the JSONL cell cache inside the results directory.
pub const CACHE_FILE: &str = "sweep_cache.jsonl";

/// File name of the sweep summary inside the results directory.
pub const SUMMARY_FILE: &str = "bench_summary.json";

/// How a cache file ends, as [`scan`] found it.
enum Tail {
    /// Empty, or the last line has its newline.
    Clean,
    /// The last line is a whole record missing only its newline.
    Unterminated,
    /// The last line is a partial record starting at this byte offset.
    Torn(u64),
}

/// What [`scan`] saw besides the records it handed out.
struct Scan {
    /// Bytes read.
    len: u64,
    /// Unreadable newline-terminated lines.
    skipped: usize,
    tail: Tail,
}

/// Reads the cache file at `path` once, handing every record that parses
/// to `each` with its line's byte offset, in file order. Blank lines are
/// ignored; a missing file reads as empty.
fn scan(path: &Path, mut each: impl FnMut(u64, CellRecord)) -> std::io::Result<Scan> {
    let mut scan = Scan {
        len: 0,
        skipped: 0,
        tail: Tail::Clean,
    };
    let mut reader = match File::open(path) {
        Ok(f) => BufReader::new(f),
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(e),
    };
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(scan);
        }
        let offset = scan.len;
        scan.len += n as u64;
        let terminated = line.ends_with('\n');
        if terminated && line.trim().is_empty() {
            continue;
        }
        if !terminated {
            scan.tail = Tail::Unterminated;
        }
        match Json::parse(&line).and_then(|j| CellRecord::from_json(&j)) {
            Ok(rec) => each(offset, rec),
            Err(_) if terminated => scan.skipped += 1,
            Err(_) => scan.tail = Tail::Torn(offset),
        }
    }
}

/// Checks that `rec` (from `source`) agrees with the `prior` record for
/// the same cell (from `prior_source`) in canonical form.
fn agree(
    prior_source: &str,
    prior: &CellRecord,
    source: &str,
    rec: &CellRecord,
) -> Result<(), String> {
    if prior.canonical().to_json().render() == rec.canonical().to_json().render() {
        return Ok(());
    }
    let diff = if prior.total_cycles != rec.total_cycles {
        format!(
            "total_cycles {} != {}",
            prior.total_cycles, rec.total_cycles
        )
    } else if prior.verified != rec.verified {
        format!("verified {} != {}", prior.verified, rec.verified)
    } else {
        "payloads differ".to_string()
    };
    Err(format!(
        "conflicting records for cell {} ({}): {prior_source} vs {source}: {diff} \
         (hash collision or nondeterministic simulation)",
        rec.cell.label(),
        rec.cell.hash()
    ))
}

/// An append-only JSONL store of completed cells, indexed by cell hash.
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    /// Held open for the store's lifetime; every append goes through it.
    writer: File,
    /// Cell hash → byte offset of the record's line (later lines win).
    index: HashMap<String, u64>,
    /// End-of-file offset where the next append lands.
    end: u64,
    skipped: usize,
}

impl ResultStore {
    /// Opens (creating if needed) the store under `results_dir`, building
    /// the offset index. Every existing line is validated once (and
    /// dropped); unreadable lines are counted in [`ResultStore::skipped`].
    /// A torn trailing line (partial record, no newline) is truncated away
    /// — not counted — so an interrupted sweep resumes cleanly.
    pub fn open(results_dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(results_dir)?;
        let path = results_dir.join(CACHE_FILE);
        let mut writer = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut index = HashMap::new();
        let scan = scan(&path, |offset, rec| {
            // Validated transiently; only the offset stays resident.
            index.insert(rec.cell.hash(), offset);
        })?;
        // A final line missing its newline is a torn append from an
        // interrupted run. If the record itself survived intact, heal it
        // in place by finishing the line; otherwise truncate the partial
        // write so the next append starts on a clean line boundary
        // instead of gluing onto garbage.
        let end = match scan.tail {
            Tail::Clean => scan.len,
            Tail::Unterminated => {
                writer.write_all(b"\n")?;
                scan.len + 1
            }
            Tail::Torn(at) => {
                writer.set_len(at)?;
                at
            }
        };
        Ok(ResultStore {
            path,
            writer,
            index,
            end,
            skipped: scan.skipped,
        })
    }

    /// The cached record for `hash`, if present — parsed from disk on
    /// every call (records are not kept resident).
    pub fn get(&self, hash: &str) -> Option<CellRecord> {
        let &offset = self.index.get(hash)?;
        let mut reader = File::open(&self.path).ok()?;
        reader.seek(SeekFrom::Start(offset)).ok()?;
        let mut line = String::new();
        BufReader::new(reader).read_line(&mut line).ok()?;
        // The line validated at open/append time; a parse failure here
        // means the file changed underneath us — treat as a miss.
        Json::parse(&line)
            .and_then(|j| CellRecord::from_json(&j))
            .ok()
    }

    /// Whether a record for `hash` is cached (no parse, index only).
    pub fn contains(&self, hash: &str) -> bool {
        self.index.contains_key(hash)
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of unreadable lines skipped while loading.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Appends `rec` through the held handle and indexes its offset.
    pub fn append(&mut self, rec: CellRecord) -> std::io::Result<()> {
        let mut line = rec.to_json().render();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.index.insert(rec.cell.hash(), self.end);
        self.end += line.len() as u64;
        Ok(())
    }

    /// Folds every shard cache `<shards_dir>/*/sweep_cache.jsonl` into this
    /// store and returns `(new records, duplicates)`. A missing
    /// `shards_dir` merges nothing.
    ///
    /// Each shard file is read once and never written. A record for a
    /// hash already held (here or in an earlier shard, in sorted directory
    /// order) must agree with that copy in canonical form
    /// ([`CellRecord::canonical`]); any disagreement is a hash collision or
    /// a nondeterministic simulation, and fails the whole merge before
    /// anything is written. New records are then appended in canonical
    /// form, sorted by hash, so the merged cache is byte-identical for any
    /// shard count. Existing lines are never rewritten. A merge killed
    /// mid-append leaves a torn tail that the next [`ResultStore::open`]
    /// heals or truncates; the next merge finds the records already
    /// appended as duplicates and appends the rest in the same order, so
    /// it converges to the same bytes.
    pub fn merge_shards(&mut self, shards_dir: &Path) -> Result<(usize, usize), String> {
        let Ok(entries) = std::fs::read_dir(shards_dir) else {
            return Ok((0, 0));
        };
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| Some(e.ok()?.path())).collect();
        dirs.sort();
        // Hash → (the shard that first held it, its record), in hash order.
        let mut new: BTreeMap<String, (String, CellRecord)> = BTreeMap::new();
        let mut duplicates = 0;
        for dir in &dirs {
            let source = dir.display().to_string();
            let path = dir.join(CACHE_FILE);
            // Within one file later lines win, as in `open`.
            let mut recs = BTreeMap::new();
            scan(&path, |_, rec| {
                recs.insert(rec.cell.hash(), rec);
            })
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            for (hash, rec) in recs {
                if let Some((prior_source, prior)) = new.get(&hash) {
                    agree(prior_source, prior, &source, &rec)?;
                    duplicates += 1;
                } else if self.contains(&hash) {
                    let prior = self
                        .get(&hash)
                        .ok_or_else(|| format!("cannot re-read cell {hash} from the main cache"))?;
                    agree("main cache", &prior, &source, &rec)?;
                    duplicates += 1;
                } else {
                    new.insert(hash, (source.clone(), rec));
                }
            }
        }
        let added = new.len();
        for (_, (_, rec)) in new {
            self.append(rec.canonical())
                .map_err(|e| format!("cannot append to {}: {e}", self.path.display()))?;
        }
        Ok((added, duplicates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use ssm_apps::catalog::Scale;
    use ssm_core::{LayerConfig, Protocol};
    use ssm_stats::{Counters, ProtoActivity};

    fn record(app: &str, cycles: u64) -> CellRecord {
        record_at(app, 2, cycles, 1)
    }

    fn record_at(app: &str, procs: usize, cycles: u64, host_ms: u64) -> CellRecord {
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

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ssm-sweep-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn write_cache(dir: &Path, recs: &[CellRecord]) {
        std::fs::create_dir_all(dir).expect("mkdir");
        let lines: String = recs.iter().map(|r| r.to_json().render() + "\n").collect();
        std::fs::write(dir.join(CACHE_FILE), lines).expect("write");
    }

    /// Opens the store under `main` and merges `shards` into it.
    fn merge(main: &Path, shards: &Path) -> Result<(usize, usize), String> {
        ResultStore::open(main).expect("open").merge_shards(shards)
    }

    #[test]
    fn append_then_reopen_hits() {
        let dir = tmpdir("reopen");
        {
            let mut s = ResultStore::open(&dir).expect("open");
            assert!(s.is_empty());
            s.append(record("FFT", 100)).expect("append");
            s.append(record("Radix", 200)).expect("append");
            assert_eq!(s.len(), 2);
            // Appends are visible through the same store without reopening.
            let hash = record("Radix", 0).cell.hash();
            assert!(s.contains(&hash));
            assert_eq!(s.get(&hash).expect("hit").total_cycles, 200);
        }
        let s = ResultStore::open(&dir).expect("reopen");
        assert_eq!(s.len(), 2);
        assert_eq!(s.skipped(), 0);
        let hash = record("FFT", 0).cell.hash();
        assert_eq!(s.get(&hash).expect("hit").total_cycles, 100);
        assert!(!s.contains("no-such-hash"));
        assert!(s.get("no-such-hash").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_lines_win_and_corrupt_lines_skip() {
        let dir = tmpdir("corrupt");
        {
            let mut s = ResultStore::open(&dir).expect("open");
            s.append(record("FFT", 100)).expect("append");
            s.append(record("FFT", 300)).expect("append"); // resumed rerun
        }
        // Inject garbage between valid lines.
        let path = dir.join(CACHE_FILE);
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.insert_str(0, "{not json\n\n");
        std::fs::write(&path, text).expect("write");
        let s = ResultStore::open(&dir).expect("reopen");
        assert_eq!(s.len(), 1);
        assert_eq!(s.skipped(), 1);
        let hash = record("FFT", 0).cell.hash();
        assert_eq!(s.get(&hash).expect("hit").total_cycles, 300);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_truncates_for_a_clean_resume() {
        let dir = tmpdir("torn");
        {
            let mut s = ResultStore::open(&dir).expect("open");
            s.append(record("FFT", 100)).expect("append");
        }
        let path = dir.join(CACHE_FILE);
        let clean = std::fs::read_to_string(&path).expect("read");
        // Simulate a crash mid-append: half of the next record, no newline.
        let partial = &record("Radix", 200).to_json().render()[..40];
        std::fs::write(&path, format!("{clean}{partial}")).expect("write");
        {
            let mut s = ResultStore::open(&dir).expect("reopen");
            // The torn tail is truncated, not skip-counted.
            assert_eq!(s.skipped(), 0);
            assert_eq!(s.len(), 1);
            assert_eq!(
                std::fs::read_to_string(&path).expect("read"),
                clean,
                "torn tail should be truncated away"
            );
            // The resumed sweep re-executes the lost cell and appends it
            // onto the clean boundary.
            s.append(record("Radix", 200)).expect("append");
        }
        let s = ResultStore::open(&dir).expect("resume");
        assert_eq!(s.len(), 2);
        assert_eq!(s.skipped(), 0);
        let hash = record("Radix", 0).cell.hash();
        assert_eq!(s.get(&hash).expect("hit").total_cycles, 200);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn intact_unterminated_tail_is_healed_not_dropped() {
        let dir = tmpdir("heal");
        {
            let mut s = ResultStore::open(&dir).expect("open");
            s.append(record("FFT", 100)).expect("append");
        }
        // Crash after the record bytes but before the newline: the record
        // is complete, only the line terminator is missing.
        let path = dir.join(CACHE_FILE);
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str(&record("Radix", 200).to_json().render());
        std::fs::write(&path, &text).expect("write");
        {
            let mut s = ResultStore::open(&dir).expect("reopen");
            assert_eq!(s.len(), 2);
            assert_eq!(s.skipped(), 0);
            // Appends after healing land on their own lines.
            s.append(record("LU-Contiguous", 300)).expect("append");
        }
        let s = ResultStore::open(&dir).expect("resume");
        assert_eq!(s.len(), 3);
        assert_eq!(s.skipped(), 0);
        for (app, cycles) in [("FFT", 100), ("Radix", 200), ("LU-Contiguous", 300)] {
            let hash = record(app, 0).cell.hash();
            assert_eq!(s.get(&hash).expect("hit").total_cycles, cycles, "{app}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn offsets_stay_correct_across_corrupt_prefix_appends() {
        // Offsets must index the right byte positions even when earlier
        // lines are garbage and appends continue after reopening.
        let dir = tmpdir("offsets");
        {
            let mut s = ResultStore::open(&dir).expect("open");
            s.append(record("FFT", 1)).expect("append");
        }
        let path = dir.join(CACHE_FILE);
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.insert_str(0, "garbage line\n");
        std::fs::write(&path, text).expect("write");
        let mut s = ResultStore::open(&dir).expect("reopen");
        s.append(record("Radix", 2)).expect("append");
        s.append(record("LU-Contiguous", 3)).expect("append");
        for (app, cycles) in [("FFT", 1), ("Radix", 2), ("LU-Contiguous", 3)] {
            let hash = record(app, 0).cell.hash();
            assert_eq!(
                s.get(&hash).expect("hit").total_cycles,
                cycles,
                "{app} record mis-indexed"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_is_byte_identical_across_shard_groupings() {
        let root = tmpdir("group");
        let recs: Vec<CellRecord> = (2..=5)
            .map(|p| record_at("FFT", p, 100 * p as u64, p as u64))
            .collect();

        // One shard holding everything vs. two shards splitting it.
        let one = root.join("one");
        write_cache(&one.join("s0"), &recs);
        let a = root.join("main-a");
        merge(&a, &one).expect("merge");

        let two = root.join("two");
        // The shard sorting first holds the later records: output must not
        // depend on harvest order.
        write_cache(&two.join("s0"), &recs[2..]);
        write_cache(&two.join("s1"), &recs[..2]);
        let b = root.join("main-b");
        merge(&b, &two).expect("merge");

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
        write_cache(&main, &[record_at("FFT", 2, 100, 42)]);
        let before = std::fs::read_to_string(main.join(CACHE_FILE)).expect("read");

        // Shard re-ran the same cell (host time differs, payload agrees)
        // and adds one new cell.
        let shards = root.join("shards");
        write_cache(
            &shards.join("s0"),
            &[record_at("FFT", 2, 100, 7), record_at("FFT", 4, 400, 7)],
        );

        let mut store = ResultStore::open(&main).expect("open");
        assert_eq!(store.merge_shards(&shards), Ok((1, 1)));
        assert_eq!(store.len(), 2);
        let after = std::fs::read_to_string(main.join(CACHE_FILE)).expect("read");
        assert!(
            after.starts_with(&before),
            "main lines must keep their bytes"
        );
        assert_eq!(after.lines().count(), 2);
        // The merged record is served without reopening.
        let hash = record_at("FFT", 4, 0, 0).cell.hash();
        assert_eq!(store.get(&hash).expect("hit").total_cycles, 400);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn conflicting_payloads_abort_without_touching_the_cache() {
        let root = tmpdir("conflict");
        let main = root.join("main");
        write_cache(&main, &[record_at("FFT", 2, 100, 1)]);
        let before = std::fs::read(main.join(CACHE_FILE)).expect("read");

        let shards = root.join("shards");
        // A new cell sorts first, then the same cell with different cycles:
        // nothing may be appended, not even the new cell.
        write_cache(&shards.join("s0"), &[record_at("FFT", 4, 400, 1)]);
        write_cache(&shards.join("s1"), &[record_at("FFT", 2, 999, 1)]);

        let err = merge(&main, &shards).expect_err("conflict");
        assert!(err.contains("conflicting records"), "{err}");
        assert!(err.contains("FFT"), "{err}");
        assert!(err.contains("total_cycles 100 != 999"), "{err}");
        assert_eq!(std::fs::read(main.join(CACHE_FILE)).expect("read"), before);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_shard_caches_are_empty_not_errors() {
        let root = tmpdir("missing");
        let main = root.join("main");
        assert_eq!(merge(&main, &root.join("no-such-dir")), Ok((0, 0)));
        // A shard directory without a cache file holds no records.
        let shards = root.join("shards");
        std::fs::create_dir_all(shards.join("s0")).expect("mkdir");
        assert_eq!(merge(&main, &shards), Ok((0, 0)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn interrupted_merge_converges_to_the_same_bytes() {
        let root = tmpdir("interrupt");
        let shards = root.join("shards");
        let recs: Vec<CellRecord> = (2..=6)
            .map(|p| record_at("FFT", p, 100 * p as u64, p as u64))
            .collect();
        write_cache(&shards.join("s0"), &recs[..3]);
        write_cache(&shards.join("s1"), &recs[3..]);
        let whole = root.join("whole");
        assert_eq!(merge(&whole, &shards), Ok((5, 0)));
        let want = std::fs::read(whole.join(CACHE_FILE)).expect("read");

        // Line k of the merged file starts at starts[k] and ends (newline
        // included) at starts[k + 1].
        let mut starts = vec![0];
        starts.extend(
            want.iter()
                .enumerate()
                .filter(|&(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        );
        assert_eq!(starts.len(), recs.len() + 1);
        for k in 0..recs.len() {
            let (lo, hi) = (starts[k], starts[k + 1]);
            // Cut partway through the k-th appended line, and just before
            // its newline (a whole record whose line was not finished).
            for cut in [lo + (hi - lo) / 2, hi - 1] {
                let main = root.join(format!("cut-{k}-{cut}"));
                merge(&main, &shards).expect("merge");
                OpenOptions::new()
                    .write(true)
                    .open(main.join(CACHE_FILE))
                    .and_then(|f| f.set_len(cut as u64))
                    .expect("cut");
                let healed = usize::from(cut == hi - 1);
                assert_eq!(
                    merge(&main, &shards),
                    Ok((recs.len() - k - healed, k + healed)),
                    "cut at byte {cut} of line {k}"
                );
                assert_eq!(
                    std::fs::read(main.join(CACHE_FILE)).expect("read"),
                    want,
                    "cut at byte {cut} of line {k}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
