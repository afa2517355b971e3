//! The sweep CLI's flag checks, driven through the `figure3` binary: a
//! malformed flag exits 2 before any cell runs.

use std::process::Command;

const FIGURE3: &str = env!("CARGO_BIN_EXE_figure3");

#[test]
fn zero_procs_exits_2_and_runs_no_cell() {
    let dir = std::env::temp_dir().join(format!("ssm-bench-sweep-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(FIGURE3)
        .args(["--procs", "0", "--scale", "test", "--results"])
        .arg(&dir)
        .output()
        .expect("run figure3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--procs needs a positive number"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no table is printed");
    assert!(!dir.exists(), "no cell ran, so nothing was written");
}
