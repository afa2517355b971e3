//! The metrics the benchmark reports, how repetitions are summarised, how
//! two sets of runs are compared, and how cell results are checked.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use ssm_sweep::Json;

use super::rep::CellCheck;
use super::workloads::GOLDEN_SEED;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes).
    Lower,
    /// Larger is better (work per handoff).
    Higher,
}

impl Better {
    /// `lower` or `higher`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as printed and as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the median may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        bound,
        ..m(name, unit)
    }
}

/// What a user of the simulator sees, measured with tracing off.
///
/// The time bounds are 25% because the host drifts. Across ten 30-second
/// runs per workload on a shared 2-vCPU VM, with nothing else running, the
/// quartile distance of the run medians was 2.4% to 12.2% of their median.
/// Peak RSS repeats within 0.5%.
pub const END_TO_END: [Metric; 4] = [
    e2e("wall_s", "s", 0.25),
    e2e("cpu_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.05),
    e2e("setup_s", "s", 0.25),
];

/// Host time and work per layer, from the traced repetitions.
pub const PER_LAYER: [Metric; 50] = [
    m("apps.build_s", "s"),
    m("apps.spawn_s", "s"),
    m("proto.machine_new_s", "s"),
    m("proto.init_s", "s"),
    m("apps.thread_cpu_s", "s"),
    m("apps.thread_ns_per_op", "ns/op"),
    m("core.driver_cpu_s", "s"),
    m("core.driver_ns_per_op", "ns/op"),
    m("core.sim_ops", "count"),
    m("engine.handoff_idle_s", "s"),
    m("engine.idle_us_per_handoff", "us"),
    m("engine.handoffs", "count"),
    Metric {
        better: Better::Higher,
        ..m("engine.ops_per_handoff", "ops/handoff")
    },
    m("engine.flush_miss", "count"),
    m("engine.flush_sync", "count"),
    m("engine.flush_cap", "count"),
    m("engine.sys_s", "s"),
    m("engine.threads_spawned", "count"),
    m("hlrc.read_s", "s"),
    m("hlrc.write_s", "s"),
    m("hlrc.lock_s", "s"),
    m("hlrc.unlock_s", "s"),
    m("hlrc.barrier_s", "s"),
    m("hlrc.read_ns", "ns/call"),
    m("hlrc.write_ns", "ns/call"),
    m("sc.read_s", "s"),
    m("sc.write_s", "s"),
    m("sc.lock_s", "s"),
    m("sc.unlock_s", "s"),
    m("sc.barrier_s", "s"),
    m("sc.read_ns", "ns/call"),
    m("sc.write_ns", "ns/call"),
    m("rdma.read_s", "s"),
    m("rdma.write_s", "s"),
    m("rdma.lock_s", "s"),
    m("rdma.unlock_s", "s"),
    m("rdma.barrier_s", "s"),
    m("rdma.read_ns", "ns/call"),
    m("rdma.write_ns", "ns/call"),
    m("mem.access_s", "s"),
    m("mem.access_ns", "ns/call"),
    m("mem.accesses", "count"),
    m("net.messages", "count"),
    m("net.bytes", "bytes"),
    m("net.retransmissions", "count"),
    m("net.dup_suppressed", "count"),
    m("net.faults_injected", "count"),
    m("sweep.warm_ms", "ms"),
    m("trace.wall_s", "s"),
    m("trace.overhead_pct", "%"),
];

/// Looks a metric up in either table.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

// ---------------------------------------------------------------------------
// Statistics.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median. Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default, exclusive method). One value is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    assert!(len > 0, "quartiles of nothing");
    if len == 1 {
        return (v[0], v[0]);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// A metric's values over repetitions, summarised.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Every value, in the order measured.
    pub values: Vec<f64>,
}

impl Summary {
    /// Summarises `values` (at least one).
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        let v = sorted(values);
        Summary {
            median: median(values),
            q1,
            q3,
            min: v[0],
            max: v[v.len() - 1],
            values: values.to_vec(),
        }
    }

    /// The spread: the distance between the quartiles as a share of the
    /// median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// JSON form, with the metric's unit and direction.
    pub fn to_json(&self, metric: &Metric) -> Json {
        Json::Obj(vec![
            ("unit".into(), Json::Str(metric.unit.to_string())),
            (
                "better".into(),
                Json::Str(metric.better.label().to_string()),
            ),
            ("median".into(), Json::Num(self.median)),
            ("q1".into(), Json::Num(self.q1)),
            ("q3".into(), Json::Num(self.q3)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
            ("n".into(), Json::Int(self.values.len() as u64)),
            (
                "values".into(),
                Json::Arr(self.values.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// Comparing two sets of runs.

/// The verdict on one (workload, metric) pair of a parent and a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain: the change wins at least nine tenths of all (parent, change)
    /// pairs, and the medians differ by more than the parent's quartile
    /// distance.
    Better,
    /// The change's median is worse than the parent's by more than the
    /// bound, and the spread is within it.
    Worse,
    /// Within the bound, and not a gain.
    Same,
    /// The spread of either side is wider than the bound, so a difference
    /// of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case name, as printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The change's median relative to the parent's, signed so that a positive
/// value is a worsening.
pub fn worsening(parent: &Summary, change: &Summary, better: Better) -> f64 {
    if parent.median == 0.0 {
        return 0.0;
    }
    let d = (change.median - parent.median) / parent.median.abs();
    match better {
        Better::Lower => d,
        Better::Higher => -d,
    }
}

/// Judges a change against its parent on one metric.
pub fn verdict(parent: &Summary, change: &Summary, better: Better, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let pairs = parent.values.len() * change.values.len();
    let wins = parent
        .values
        .iter()
        .map(|&p| change.values.iter().filter(|&&c| beats(c, p)).count())
        .sum::<usize>();
    if wins * 10 >= pairs * 9 && (change.median - parent.median).abs() > parent.q3 - parent.q1 {
        Verdict::Better
    } else if parent.spread().max(change.spread()) > bound {
        Verdict::Unresolved
    } else if worsening(parent, change, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

// ---------------------------------------------------------------------------
// Checking cell results.

/// Counts attempted and failed cell executions over a workload's
/// repetitions.
///
/// A cell execution fails when it panicked, timed out, did not verify, or
/// lost a retransmission; when it differs from `golden.txt`; or when its
/// record differs from an earlier repetition of the same cell, traced or
/// not. `golden.txt` holds every cell of every workload at
/// [`GOLDEN_SEED`]; a faulty cell at another seed has a fault schedule
/// of its own and is not in it.
#[derive(Debug)]
pub struct Checker {
    golden: HashMap<String, (u64, u64)>,
    seed: u64,
    seen: HashMap<String, u64>,
    /// Cell executions checked.
    pub attempted: u64,
    /// Cell executions that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
}

impl Checker {
    /// A checker against the `golden` text for runs at `seed`.
    pub fn new(golden: &str, seed: u64) -> Self {
        let golden = golden
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                let cycles = f.get(1).and_then(|v| v.parse().ok());
                let digest = f.get(2).and_then(|v| u64::from_str_radix(v, 16).ok());
                match (f.first(), cycles, digest) {
                    (Some(h), Some(c), Some(d)) => (h.to_string(), (c, d)),
                    _ => panic!("malformed golden line {l:?}"),
                }
            })
            .collect();
        Checker {
            golden,
            seed,
            seen: HashMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Checks one repetition's cells.
    pub fn check(&mut self, cells: &[CellCheck]) {
        for c in cells {
            self.attempted += 1;
            let problem = c
                .problem
                .clone()
                .or_else(|| self.golden_problem(c))
                .or_else(|| match self.seen.entry(c.hash.clone()) {
                    Entry::Occupied(e) if *e.get() != c.record_digest => {
                        Some("record differs from an earlier repetition".to_string())
                    }
                    Entry::Occupied(_) => None,
                    Entry::Vacant(e) => {
                        e.insert(c.record_digest);
                        None
                    }
                });
            if let Some(p) = problem {
                self.failed += 1;
                self.problems.push(format!("{}: {p}", c.label));
            }
        }
    }

    /// Counts `n` cell executions lost with their repetition.
    pub fn lost(&mut self, n: usize, why: &str) {
        self.attempted += n as u64;
        self.failed += n as u64;
        self.problems.push(why.to_string());
    }

    fn golden_problem(&self, c: &CellCheck) -> Option<String> {
        match self.golden.get(&c.hash) {
            Some(&(cycles, digest)) if (cycles, digest) != (c.total_cycles, c.sim_digest) => {
                Some(format!(
                    "differs from golden.txt: {} cycles, digest {:016x}; want {cycles}, {digest:016x}",
                    c.total_cycles, c.sim_digest
                ))
            }
            None if self.seed == GOLDEN_SEED => Some("missing from golden.txt".to_string()),
            _ => None,
        }
    }
}
