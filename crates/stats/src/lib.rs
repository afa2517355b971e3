//! Per-processor time breakdowns, event counters and plain-text table
//! rendering for the `ssm` simulator.
//!
//! The paper presents its results in two forms that this crate models
//! directly:
//!
//! * **execution-time breakdowns** (Figure 4): every simulated cycle of
//!   every processor is attributed to exactly one [`Bucket`] — busy time,
//!   local cache stall, data wait, lock wait, barrier wait, or protocol
//!   overhead — see [`Breakdown`];
//! * **protocol-activity breakdowns** (Table 4): protocol time split into
//!   handler execution, diff creation/application, twinning and page
//!   protection — see [`ProtoActivity`].
//!
//! [`Counters`] aggregates raw event counts (messages, bytes, faults, diffs,
//! …) used throughout the analysis, and [`Table`] renders the harness output
//! as aligned plain text, which is how every figure/table binary reports its
//! rows.

use std::fmt::Write as _;

/// Where a simulated processor cycle went. One bucket per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Application computation (including local L1 hits folded into IPC).
    Busy,
    /// Stalls in the local memory hierarchy (L2/memory for local data).
    CacheStall,
    /// Waiting for remotely-fetched data (page or block fetches).
    DataWait,
    /// Waiting to acquire a lock.
    LockWait,
    /// Waiting at a barrier.
    BarrierWait,
    /// Software protocol overhead: handlers, twins, diffs, mprotect — both
    /// for this processor's own faults and for serving other nodes.
    Protocol,
}

impl Bucket {
    /// All buckets, in presentation order.
    pub const ALL: [Bucket; 6] = [
        Bucket::Busy,
        Bucket::CacheStall,
        Bucket::DataWait,
        Bucket::LockWait,
        Bucket::BarrierWait,
        Bucket::Protocol,
    ];

    /// Short column label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Bucket::Busy => "busy",
            Bucket::CacheStall => "cache",
            Bucket::DataWait => "data",
            Bucket::LockWait => "lock",
            Bucket::BarrierWait => "barrier",
            Bucket::Protocol => "proto",
        }
    }

    fn index(self) -> usize {
        match self {
            Bucket::Busy => 0,
            Bucket::CacheStall => 1,
            Bucket::DataWait => 2,
            Bucket::LockWait => 3,
            Bucket::BarrierWait => 4,
            Bucket::Protocol => 5,
        }
    }
}

impl std::fmt::Display for Bucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A per-processor execution-time breakdown (Figure 4 of the paper).
///
/// # Example
///
/// ```rust
/// use ssm_stats::{Breakdown, Bucket};
/// let mut b = Breakdown::new();
/// b.add(Bucket::Busy, 70);
/// b.add(Bucket::DataWait, 30);
/// assert_eq!(b.total(), 100);
/// assert_eq!(b.get(Bucket::DataWait), 30);
/// assert!((b.fraction(Bucket::Busy) - 0.7).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    cycles: [u64; 6],
}

impl Breakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Breakdown::default()
    }

    /// Adds `cycles` to `bucket`.
    pub fn add(&mut self, bucket: Bucket, cycles: u64) {
        self.cycles[bucket.index()] += cycles;
    }

    /// Cycles recorded for `bucket`.
    pub fn get(&self, bucket: Bucket) -> u64 {
        self.cycles[bucket.index()]
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// `bucket` as a fraction of the total (0 if the total is 0).
    pub fn fraction(&self, bucket: Bucket) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.get(bucket) as f64 / t as f64
        }
    }

    /// Element-wise sum, used to average over processors.
    pub fn merge(&self, other: &Breakdown) -> Breakdown {
        let mut out = *self;
        for i in 0..6 {
            out.cycles[i] += other.cycles[i];
        }
        out
    }

    /// Averages a set of per-processor breakdowns (the paper's Figure 4
    /// shows the average over all processors).
    pub fn average<'a>(items: impl IntoIterator<Item = &'a Breakdown>) -> Breakdown {
        let mut sum = Breakdown::new();
        let mut n = 0u64;
        for b in items {
            sum = sum.merge(b);
            n += 1;
        }
        for c in &mut sum.cycles {
            *c = c.checked_div(n).unwrap_or(0);
        }
        sum
    }
}

impl std::fmt::Display for Breakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.total().max(1) as f64;
        for (i, b) in Bucket::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{}={:.1}%", b.label(), 100.0 * self.get(*b) as f64 / t)?;
        }
        Ok(())
    }
}

/// Protocol-activity sub-breakdown (Table 4 of the paper): which protocol
/// costs the processors actually spend their protocol time on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtoActivity {
    /// Cycles executing protocol handlers (request service, control).
    pub handler: u64,
    /// Cycles creating diffs (compare + encode).
    pub diff_create: u64,
    /// Cycles applying diffs at homes.
    pub diff_apply: u64,
    /// Cycles creating twins.
    pub twin: u64,
    /// Cycles changing page protections (mprotect model).
    pub mprotect: u64,
}

impl ProtoActivity {
    /// How many leading fields of [`ProtoActivity::fields_mut`] every
    /// record carries: all of them (see [`Counters::ALWAYS_RECORDED`]).
    pub const ALWAYS_RECORDED: usize = 5;

    /// Every field by its record name, in record order. This is the one
    /// place the names are written; `merge` and the sweep's record
    /// codec go through it.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 5] {
        [
            ("handler", &mut self.handler),
            ("diff_create", &mut self.diff_create),
            ("diff_apply", &mut self.diff_apply),
            ("twin", &mut self.twin),
            ("mprotect", &mut self.mprotect),
        ]
    }

    /// [`ProtoActivity::fields_mut`] by value.
    pub fn fields(mut self) -> [(&'static str, u64); 5] {
        self.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Total protocol cycles.
    pub fn total(&self) -> u64 {
        self.fields().iter().map(|&(_, v)| v).sum()
    }

    /// All diff-related cycles (creation + application), the paper's "diff
    /// computation" column.
    pub fn diff_total(&self) -> u64 {
        self.diff_create + self.diff_apply
    }

    /// Element-wise sum.
    pub fn merge(&self, o: &ProtoActivity) -> ProtoActivity {
        let mut out = *self;
        for ((_, x), (_, y)) in out.fields_mut().into_iter().zip(o.fields()) {
            *x += y;
        }
        out
    }
}

/// Raw event counts kept by the protocols and the network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Messages injected into the network (requests + data + control).
    pub messages: u64,
    /// Payload bytes injected into the network.
    pub bytes: u64,
    /// Read faults/misses that required remote communication.
    pub remote_reads: u64,
    /// Write faults/upgrades that required remote communication.
    pub remote_writes: u64,
    /// Whole-page fetches (HLRC) or block fetches (SC).
    pub fetches: u64,
    /// Diffs created (HLRC only).
    pub diffs: u64,
    /// Words carried by diffs (HLRC only).
    pub diff_words: u64,
    /// Twins created (HLRC only).
    pub twins: u64,
    /// Write notices received and applied (HLRC only).
    pub write_notices: u64,
    /// Invalidation messages processed (SC) or pages invalidated (HLRC).
    pub invalidations: u64,
    /// Lock acquires performed.
    pub lock_acquires: u64,
    /// Barrier episodes completed.
    pub barriers: u64,
    /// Accesses satisfied entirely locally.
    pub local_accesses: u64,
    /// Automatic-update messages propagated (AURC only).
    pub auto_updates: u64,
    /// Copies resent by the reliability sublayer after a loss (zero on a
    /// fault-free network).
    pub retransmissions: u64,
    /// Duplicate copies discarded at the receiver by sequence number.
    pub dup_suppressed: u64,
    /// Injected faults observed on this node's sends: message drops.
    pub faults_dropped: u64,
    /// Injected faults observed on this node's sends: duplicated copies.
    pub faults_duplicated: u64,
    /// Injected faults observed on this node's sends: delay spikes.
    pub faults_delayed: u64,
    /// Injected faults observed on this node's sends: transient NI stalls.
    pub faults_stalled: u64,
    /// Baton handoffs: engine-thread resumes performed by the driver. Each
    /// one costs two host OS context switches, making this the primary
    /// host-side cost metric (deterministic, unlike wall clock).
    pub handoffs: u64,
    /// Simulated operations processed by the driver (compute blocks,
    /// shared accesses, sync operations).
    pub sim_ops: u64,
    /// Operations that arrived inside a batch. Every operation does, so
    /// this equals `sim_ops`; with batching disabled each batch holds one.
    pub ops_batched: u64,
    /// Batch flushes forced by a synchronization operation (lock/barrier).
    pub flush_sync: u64,
    /// Always 0: batches no longer end at a predicted remote access. Kept
    /// so the perfbench `engine.flush_miss` metric and sweep-cache lines
    /// written by older builds keep their shape.
    pub flush_miss: u64,
    /// Batch flushes forced by the batch-length cap.
    pub flush_cap: u64,
    /// Batch flushes at the end of a thread body.
    pub flush_end: u64,
}

impl Counters {
    /// How many leading fields of [`Counters::fields_mut`] every record
    /// carries: `messages` through `auto_updates` were in the first
    /// cache records. The fault and engine counters after them were added
    /// later, so a record reader requires the first
    /// `ALWAYS_RECORDED` and reads any later one that is absent as 0.
    pub const ALWAYS_RECORDED: usize = 14;

    /// Every counter by its record name, in record order. This is the one
    /// place the names are written; `merge` and the sweep's record codec
    /// go through it.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 27] {
        [
            ("messages", &mut self.messages),
            ("bytes", &mut self.bytes),
            ("remote_reads", &mut self.remote_reads),
            ("remote_writes", &mut self.remote_writes),
            ("fetches", &mut self.fetches),
            ("diffs", &mut self.diffs),
            ("diff_words", &mut self.diff_words),
            ("twins", &mut self.twins),
            ("write_notices", &mut self.write_notices),
            ("invalidations", &mut self.invalidations),
            ("lock_acquires", &mut self.lock_acquires),
            ("barriers", &mut self.barriers),
            ("local_accesses", &mut self.local_accesses),
            ("auto_updates", &mut self.auto_updates),
            ("retransmissions", &mut self.retransmissions),
            ("dup_suppressed", &mut self.dup_suppressed),
            ("faults_dropped", &mut self.faults_dropped),
            ("faults_duplicated", &mut self.faults_duplicated),
            ("faults_delayed", &mut self.faults_delayed),
            ("faults_stalled", &mut self.faults_stalled),
            ("handoffs", &mut self.handoffs),
            ("sim_ops", &mut self.sim_ops),
            ("ops_batched", &mut self.ops_batched),
            ("flush_sync", &mut self.flush_sync),
            ("flush_miss", &mut self.flush_miss),
            ("flush_cap", &mut self.flush_cap),
            ("flush_end", &mut self.flush_end),
        ]
    }

    /// [`Counters::fields_mut`] by value.
    pub fn fields(mut self) -> [(&'static str, u64); 27] {
        self.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Element-wise sum.
    pub fn merge(&self, o: &Counters) -> Counters {
        let mut out = *self;
        for ((_, x), (_, y)) in out.fields_mut().into_iter().zip(o.fields()) {
            *x += y;
        }
        out
    }

    /// A copy with the engine-performance counters (handoffs, batching,
    /// flush causes) zeroed — the simulated-machine counters alone. Used
    /// when comparing runs that must agree on protocol behaviour but may
    /// legitimately differ in host-side engine scheduling (e.g. batching
    /// enabled vs disabled).
    pub fn without_engine_counters(&self) -> Counters {
        Counters {
            handoffs: 0,
            sim_ops: 0,
            ops_batched: 0,
            flush_sync: 0,
            flush_miss: 0,
            flush_cap: 0,
            flush_end: 0,
            ..*self
        }
    }

    /// Total injected-fault events observed on this node's sends.
    pub fn faults_injected(&self) -> u64 {
        self.faults_dropped + self.faults_duplicated + self.faults_delayed + self.faults_stalled
    }
}

/// A plain-text table with aligned columns — the output format of every
/// figure/table binary in the benchmark harness.
///
/// # Example
///
/// ```rust
/// let mut t = ssm_stats::Table::new(vec!["app", "speedup"]);
/// t.row(vec!["FFT".into(), "7.9".into()]);
/// t.row(vec!["LU".into(), "11.2".into()]);
/// let s = t.render();
/// assert!(s.contains("FFT"));
/// assert!(s.lines().count() >= 4); // header + rule + 2 rows
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with blanks;
    /// longer rows extend the implicit width.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with space-aligned columns (first column left-aligned, the
    /// rest right-aligned, which suits numeric results).
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let all = std::iter::once(&self.headers).chain(self.rows.iter());
        for row in all {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for i in 0..ncols {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    let _ = write!(out, "{cell:<width$}", width = widths[0]);
                } else {
                    let _ = write!(out, "  {cell:>width$}", width = widths[i]);
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a cycle count compactly (e.g. `1.25M`).
pub fn fmt_cycles(c: u64) -> String {
    if c >= 1_000_000_000 {
        format!("{:.2}G", c as f64 / 1e9)
    } else if c >= 1_000_000 {
        format!("{:.2}M", c as f64 / 1e6)
    } else if c >= 10_000 {
        format!("{:.1}K", c as f64 / 1e3)
    } else {
        c.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accounting() {
        let mut b = Breakdown::new();
        b.add(Bucket::Busy, 10);
        b.add(Bucket::Busy, 5);
        b.add(Bucket::Protocol, 85);
        assert_eq!(b.get(Bucket::Busy), 15);
        assert_eq!(b.total(), 100);
        assert!((b.fraction(Bucket::Protocol) - 0.85).abs() < 1e-12);
        assert_eq!(b.fraction(Bucket::LockWait), 0.0);
    }

    #[test]
    fn breakdown_average() {
        let mut a = Breakdown::new();
        a.add(Bucket::Busy, 100);
        let mut b = Breakdown::new();
        b.add(Bucket::Busy, 200);
        b.add(Bucket::DataWait, 50);
        let avg = Breakdown::average([&a, &b]);
        assert_eq!(avg.get(Bucket::Busy), 150);
        assert_eq!(avg.get(Bucket::DataWait), 25);
    }

    #[test]
    fn empty_average_is_zero() {
        let avg = Breakdown::average(std::iter::empty::<&Breakdown>());
        assert_eq!(avg.total(), 0);
    }

    #[test]
    fn proto_activity_totals() {
        let p = ProtoActivity {
            handler: 10,
            diff_create: 20,
            diff_apply: 5,
            twin: 3,
            mprotect: 2,
        };
        assert_eq!(p.total(), 40);
        assert_eq!(p.diff_total(), 25);
        let doubled = p.merge(&p);
        assert_eq!(doubled.total(), 80);
    }

    #[test]
    fn counters_merge() {
        let a = Counters {
            messages: 3,
            bytes: 100,
            ..Counters::default()
        };
        let b = Counters {
            messages: 2,
            diffs: 7,
            ..Counters::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.messages, 5);
        assert_eq!(m.bytes, 100);
        assert_eq!(m.diffs, 7);
    }

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["name", "x"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn table_ragged_rows() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["x".into(), "extra".into()]);
        t.row(vec![]);
        let s = t.render();
        assert!(s.contains("extra"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn cycles_formatting() {
        assert_eq!(fmt_cycles(500), "500");
        assert_eq!(fmt_cycles(12_345), "12.3K");
        assert_eq!(fmt_cycles(2_500_000), "2.50M");
        assert_eq!(fmt_cycles(3_000_000_000), "3.00G");
    }

    #[test]
    fn bucket_labels_unique() {
        let labels: std::collections::HashSet<_> = Bucket::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), 6);
    }
}
