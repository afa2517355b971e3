//! The outcome of one simulated run.

use ssm_stats::{Breakdown, Counters, ProtoActivity};

/// Everything measured during one run of one workload under one protocol
/// and one layer configuration.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload display name.
    pub app: String,
    /// Protocol display name ("HLRC", "SC", "IDEAL").
    pub protocol: String,
    /// Processors simulated.
    pub nprocs: usize,
    /// Parallel execution time: the last processor's finish time, in
    /// cycles.
    pub total_cycles: u64,
    /// Per-processor execution-time breakdowns (Figure 4 raw data).
    pub per_proc: Vec<Breakdown>,
    /// Protocol-activity detail summed over processors (Table 4 raw data).
    pub activity: ProtoActivity,
    /// Event counters summed over processors.
    pub counters: Counters,
    /// Result of the workload's self-verification.
    pub verify_error: Option<String>,
    /// Protocol event trace (empty unless tracing was enabled on the
    /// builder).
    pub trace: Vec<ssm_proto::TraceEvent>,
    /// OS threads freshly spawned for this run (host-side; zero when the
    /// run recycled every thread from a shared [`ssm_engine::WorkerSet`]).
    pub threads_spawned: u64,
    /// OS threads recycled from a shared worker set for this run.
    pub threads_reused: u64,
}

impl RunResult {
    /// The all-processor average breakdown (how Figure 4 presents bars).
    pub fn avg_breakdown(&self) -> Breakdown {
        Breakdown::average(self.per_proc.iter())
    }

    /// Speedup relative to a sequential baseline time.
    ///
    /// # Panics
    ///
    /// Panics if this run recorded zero cycles.
    pub fn speedup(&self, sequential_cycles: u64) -> f64 {
        assert!(self.total_cycles > 0, "run recorded no time");
        sequential_cycles as f64 / self.total_cycles as f64
    }

    /// Asserts the workload verified; returns `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics with the verification message if the run produced a wrong
    /// result.
    pub fn expect_verified(self) -> Self {
        if let Some(err) = &self.verify_error {
            panic!(
                "{} under {}: verification failed: {err}",
                self.app, self.protocol
            );
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_stats::Bucket;

    fn result() -> RunResult {
        let mut b = Breakdown::new();
        b.add(Bucket::Busy, 60);
        b.add(Bucket::Protocol, 40);
        RunResult {
            app: "x".into(),
            protocol: "HLRC".into(),
            nprocs: 2,
            total_cycles: 500,
            per_proc: vec![b, b],
            activity: ProtoActivity::default(),
            counters: Counters::default(),
            verify_error: None,
            trace: Vec::new(),
            threads_spawned: 0,
            threads_reused: 0,
        }
    }

    #[test]
    fn speedup_is_ratio() {
        let r = result();
        assert!((r.speedup(1000) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn protocol_share_of_the_average_breakdown() {
        let r = result();
        let share = r.avg_breakdown().fraction(Bucket::Protocol);
        assert!((share - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "verification failed")]
    fn expect_verified_panics_on_error() {
        let mut r = result();
        r.verify_error = Some("wrong sum".into());
        let _ = r.expect_verified();
    }
}
