//! Shared rendering utilities for the `ssm` benchmark binaries.
//!
//! Sweep execution (cell enumeration, parallelism, caching, the common
//! command line) lives in [`ssm_sweep`]; the binaries in `src/bin/` only
//! enumerate cells and render figures/tables from the sweep's results.
//! This crate keeps the few pieces that are about *presentation*; host
//! speed is measured by `examples/perfbench`.
//!
//! Run e.g. `cargo run --release -p ssm-bench --bin figure3 -- --jobs 8`.

/// Formats a speedup cell.
pub fn fmt_speedup(s: f64) -> String {
    format!("{s:.2}")
}

/// Formats an optional speedup cell (`-` for a failed/missing cell).
pub fn fmt_speedup_opt(s: Option<f64>) -> String {
    s.map_or_else(|| "-".to_string(), fmt_speedup)
}

/// Prints a progress note to stderr (kept out of the table output).
pub fn note(msg: &str) {
    eprintln!("[ssm-bench] {msg}");
}

/// Reports every failed, timed-out or unverified cell of a sweep to
/// stderr, so a `-` in a rendered table is always explained.
pub fn report_failures(run: &ssm_sweep::SweepRun) {
    use ssm_sweep::CellStatus;
    for o in &run.outcomes {
        let tries = if o.attempts > 1 {
            format!(" (after {} attempts)", o.attempts)
        } else {
            String::new()
        };
        match &o.status {
            CellStatus::Done(rec) if !rec.verified => note(&format!(
                "{}: verification FAILED: {}",
                o.cell.label(),
                rec.verify_error.as_deref().unwrap_or("unknown")
            )),
            CellStatus::Failed(e) => note(&format!("{}: FAILED{tries}: {e}", o.cell.label())),
            CellStatus::TimedOut(d) => {
                note(&format!("{}: timed out after {d:?}{tries}", o.cell.label()));
            }
            CellStatus::Done(_) => {}
        }
    }
    if run.abandoned_threads > 0 {
        note(&format!(
            "{} abandoned simulation thread(s) from timed-out cells are still running in this process",
            run.abandoned_threads
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_speedup_renders() {
        assert_eq!(fmt_speedup(12.3456), "12.35");
        assert_eq!(fmt_speedup_opt(Some(2.0)), "2.00");
        assert_eq!(fmt_speedup_opt(None), "-");
    }
}
