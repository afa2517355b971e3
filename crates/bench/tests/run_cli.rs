//! The `run` binary's exit status: a cell that did not verify prints its
//! report and then exits 1, so a script can tell it failed; a flag value
//! it cannot run exits 2 before any cell runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const RUN: &str = env!("CARGO_BIN_EXE_run");

#[test]
fn unverified_cell_exits_1_after_its_report() {
    let dir = fresh_dir("verify");
    let out = run_with(&dir, &["--counters"]);
    assert_eq!(out.status.code(), Some(0), "a verified cell exits 0");

    // Forge the cached records as unverified; the rerun is all cache hits.
    let cache = dir.join(ssm_sweep::CACHE_FILE);
    let text = std::fs::read_to_string(&cache).expect("read cache");
    let forged = text.replace(
        "\"verified\":true,\"verify_error\":null",
        "\"verified\":false,\"verify_error\":\"forged\"",
    );
    assert_ne!(forged, text, "the cache holds verified records");
    std::fs::write(&cache, forged).expect("write cache");

    let out = run_with(&dir, &["--counters"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("verified:   NO — forged"), "{stdout}");
    assert!(
        stdout.contains("messages="),
        "--counters still printed: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh, empty directory for one test's results.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssm-bench-run-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs FFT at test scale on 2 processors with `extra` flags.
fn run_with(results: &Path, extra: &[&str]) -> Output {
    Command::new(RUN)
        .args(["--app", "FFT", "--procs", "2", "--scale", "test"])
        .args(extra)
        .arg("--results")
        .arg(results)
        .output()
        .expect("run the run binary")
}

#[test]
fn block_that_is_no_coherence_unit_is_a_usage_error() {
    let dir = fresh_dir("block");
    for block in ["0", "48"] {
        let out = run_with(&dir, &["--protocol", "sc", "--block", block, "--no-cache"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--block {block}: {stderr}");
        assert!(
            stderr.contains("error: block must be a power of two between 4 B and the page size"),
            "--block {block}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "--block {block}");
        assert!(!dir.exists(), "--block {block} ran a cell");
    }
}

#[test]
fn protocol_takes_every_table_label_in_any_case() {
    let dir = fresh_dir("protocol");
    for (flag, label) in [
        ("sc-delayed", "SC-delayed"),
        ("HLRC", "HLRC"),
        ("Rdma", "RDMA"),
    ] {
        let out = run_with(&dir, &["--protocol", flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "--protocol {flag}: {stdout}");
        assert!(
            stdout.contains(&format!("cell:       FFT {label} AO p2 ")),
            "--protocol {flag}: {stdout}"
        );
    }
    let out = run_with(&dir, &["--protocol", "hlrc2"]);
    assert_eq!(out.status.code(), Some(2), "an unknown protocol");
    let _ = std::fs::remove_dir_all(&dir);
}
