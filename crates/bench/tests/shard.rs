//! End-to-end tests of multi-machine sharding, driving the `figure3`
//! binary the way EXPERIMENTS.md tells a user to: hand-run `--shard i/N`
//! workers into `results/shards/<i>-of-<N>`, then a plain run over the
//! same results directory merges their caches and executes only what they
//! left out.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ssm_sweep::{shard_of, Json, CACHE_FILE, SHARDS_DIR, SUMMARY_FILE};

const FIGURE3: &str = env!("CARGO_BIN_EXE_figure3");

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ssm-bench-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

/// figure3 over one application at test scale: 13 cells, milliseconds each.
fn figure3(results: &Path, extra: &[&str]) -> Output {
    Command::new(FIGURE3)
        .args([
            "--scale", "test", "--procs", "2", "--app", "FFT", "--jobs", "2",
        ])
        .arg("--results")
        .arg(results)
        .args(extra)
        .output()
        .expect("run figure3")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Runs worker `index` of `count` into its conventional shard directory.
fn worker(results: &Path, index: usize, count: usize) {
    let dir = results.join(SHARDS_DIR).join(format!("{index}-of-{count}"));
    let out = figure3(&dir, &["--quiet", "--shard", &format!("{index}/{count}")]);
    assert!(
        out.status.success(),
        "worker {index}/{count}: {}",
        stderr(&out)
    );
    assert!(dir.join(SUMMARY_FILE).exists(), "worker wrote no summary");
    // A worker renders no table, so it prints no title either.
    assert!(
        out.stdout.is_empty(),
        "worker {index}/{count} wrote to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn hand_run_workers_merge_to_what_a_plain_run_renders() {
    let root = tmpdir("counts");
    let plain = figure3(&root.join("plain"), &[]);
    assert!(plain.status.success(), "{}", stderr(&plain));

    let mut caches = Vec::new();
    for count in [1, 2, 7] {
        let results = root.join(format!("n{count}"));
        for index in 0..count {
            worker(&results, index, count);
        }
        let merged = figure3(&results, &[]);
        assert!(merged.status.success(), "{}", stderr(&merged));
        assert!(
            stderr(&merged).contains("(0 executed"),
            "merge run re-executed cells under {count} shard(s):\n{}",
            stderr(&merged)
        );
        assert_eq!(
            String::from_utf8_lossy(&merged.stdout),
            String::from_utf8_lossy(&plain.stdout),
            "merged {count}-shard run renders differently from a plain run"
        );
        let cache = read(&results.join(CACHE_FILE));
        let warm = figure3(&results, &[]);
        assert!(stderr(&warm).contains("(0 executed"), "{}", stderr(&warm));
        assert_eq!(warm.stdout, merged.stdout);
        assert_eq!(
            read(&results.join(CACHE_FILE)),
            cache,
            "warm rerun moved the cache"
        );
        caches.push(cache);
    }
    assert!(
        caches.windows(2).all(|w| w[0] == w[1]),
        "merged caches differ across shard counts"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn plain_run_executes_exactly_the_missing_shard() {
    let root = tmpdir("partial");
    worker(&root, 0, 2);
    let out = figure3(&root, &[]);
    assert!(out.status.success(), "{}", stderr(&out));

    let text = String::from_utf8(read(&root.join(SUMMARY_FILE))).expect("utf8");
    let summary = Json::parse(text.trim()).expect("summary parses");
    let cells = summary.get("cells").and_then(Json::as_arr).expect("cells");
    let owned_by_1 = cells
        .iter()
        .filter(|c| shard_of(c.get("hash").and_then(Json::as_str).expect("hash"), 2) == 1)
        .count();
    assert!(
        owned_by_1 > 0 && owned_by_1 < cells.len(),
        "degenerate split"
    );
    for c in cells {
        let hash = c.get("hash").and_then(Json::as_str).expect("hash");
        let cached = c.get("cached") == Some(&Json::Bool(true));
        assert_eq!(cached, shard_of(hash, 2) == 0, "cell {hash}");
    }
    assert_eq!(
        summary.get("cells_executed").and_then(Json::as_u64),
        Some(owned_by_1 as u64)
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn tampered_shard_record_aborts_and_leaves_the_main_cache_alone() {
    let root = tmpdir("conflict");
    worker(&root, 0, 2);
    worker(&root, 1, 2);
    assert!(figure3(&root, &[]).status.success());
    let before = read(&root.join(CACHE_FILE));

    // Rewrite one shard record's cycles: it now disagrees with the main
    // cache's copy of the same cell.
    let shard_cache = root.join(SHARDS_DIR).join("0-of-2").join(CACHE_FILE);
    let text = String::from_utf8(read(&shard_cache)).expect("utf8");
    let key = "\"total_cycles\":";
    let pos = text.find(key).expect("a shard record") + key.len();
    std::fs::write(&shard_cache, format!("{}9{}", &text[..pos], &text[pos..])).expect("tamper");

    let out = figure3(&root, &[]);
    assert!(!out.status.success(), "merge accepted a conflicting record");
    assert!(
        stderr(&out).contains("conflicting records"),
        "{}",
        stderr(&out)
    );
    assert_eq!(read(&root.join(CACHE_FILE)), before, "main cache changed");
    let _ = std::fs::remove_dir_all(&root);
}
