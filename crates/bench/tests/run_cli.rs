//! The `run` binary's exit status: a cell that did not verify prints its
//! report and then exits 1, so a script can tell it failed.

use std::path::Path;
use std::process::{Command, Output};

const RUN: &str = env!("CARGO_BIN_EXE_run");

fn run(results: &Path) -> Output {
    Command::new(RUN)
        .args([
            "--app",
            "FFT",
            "--procs",
            "2",
            "--scale",
            "test",
            "--counters",
        ])
        .arg("--results")
        .arg(results)
        .output()
        .expect("run the run binary")
}

#[test]
fn unverified_cell_exits_1_after_its_report() {
    let dir = std::env::temp_dir().join(format!("ssm-bench-run-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    let out = run(&dir);
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

    let out = run(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("verified:   NO — forged"), "{stdout}");
    assert!(
        stdout.contains("messages="),
        "--counters still printed: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
