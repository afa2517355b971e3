//! The sweep CLI's flag checks, driven through the `figure3` binary: a
//! malformed flag exits 2 before any cell runs.

use std::process::{Command, Output};

const FIGURE3: &str = env!("CARGO_BIN_EXE_figure3");

/// Runs `figure3` with `args`, asserts that it exited 2 with `error` on
/// stderr and printed no table, and returns its output.
fn rejected(args: &[&str], error: &str) -> Output {
    let out = Command::new(FIGURE3)
        .args(args)
        .output()
        .expect("run figure3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(error), "{stderr}");
    assert!(out.stdout.is_empty(), "no table is printed");
    out
}

#[test]
fn zero_procs_exits_2_and_runs_no_cell() {
    let dir = std::env::temp_dir().join(format!("ssm-bench-sweep-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("a UTF-8 temp dir");
    rejected(
        &["--procs", "0", "--scale", "test", "--results", dir_arg],
        "--procs needs a positive number",
    );
    assert!(!dir.exists(), "no cell ran, so nothing was written");
}

#[test]
fn an_app_filter_that_matches_nothing_exits_2_and_lists_the_catalog() {
    let dir = std::env::temp_dir().join(format!("ssm-bench-sweep-app-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("a UTF-8 temp dir");
    let out = rejected(
        &[
            "--app",
            "NoSuchApp",
            "--scale",
            "test",
            "--results",
            dir_arg,
        ],
        "--app \"NoSuchApp\" matches no application",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("FFT") && stderr.contains("Water-Spatial"),
        "{stderr}"
    );
    assert!(!dir.exists(), "no cell ran, so nothing was written");
}

#[test]
fn a_zero_timeout_exits_2_and_runs_no_cell() {
    // FFT alone: where this check is missing, the sweep starts one
    // simulation per cell (13) and abandons each at once.
    rejected(
        &[
            "--scale",
            "test",
            "--procs",
            "2",
            "--jobs",
            "1",
            "--no-cache",
            "--app",
            "FFT",
            "--timeout",
            "0",
        ],
        "--timeout needs a positive number of seconds",
    );
}
