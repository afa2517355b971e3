//! One repetition of a workload, measured from outside the program.
//!
//! * [`untraced`] runs the cells through the user's path,
//!   `Sweep::enumerate(..).jobs(J).cache(dir).quiet().run()`, and times the
//!   sweep as a whole; afterwards it replays each cell's setup to time it.
//! * [`traced`] runs the same cells on `J` workers through
//!   `ssm_core::run_simulation_with`, configured as `ssm_sweep::execute_with`
//!   configures it, but with a [`Protocol`] wrapper that times every call
//!   into the protocol layer and a [`Workload`] wrapper whose thread bodies
//!   read their own on-CPU time. Nothing inside the program is changed.
//!
//! Both return one [`CellCheck`] per cell so the caller can prove the traced
//! run reproduced the untraced one bit for bit.

use std::cell::Cell as StdCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ssm_apps::catalog;
use ssm_core::driver::Batching;
use ssm_core::{run_simulation_with, EngineOptions, Protocol as ProtocolKind};
use ssm_engine::{Cycles, WorkerSet};
use ssm_hlrc::Hlrc;
use ssm_mem::MemConfig;
use ssm_net::{CommParams, FaultPlan};
use ssm_proto::{
    BarrierId, Ideal, LockId, Machine, Proc, ProtoCosts, Protocol, ThreadBody, Workload, World,
    WorldShape,
};
use ssm_rdma::Rdma;
use ssm_sc::Sc;
use ssm_sweep::{Cell, CellRecord, CellStatus, Json, ResultStore, Sweep};

/// What one cell produced, reduced to what the checks need.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCheck {
    /// The cell's cache hash.
    pub hash: String,
    /// The cell's display label.
    pub label: String,
    /// Simulated parallel time, cycles.
    pub total_cycles: u64,
    /// FNV-1a of the canonical record without engine counters: what a
    /// simulator speed-up must leave unchanged.
    pub sim_digest: u64,
    /// FNV-1a of the whole canonical record, engine counters included: what
    /// the traced run must reproduce.
    pub record_digest: u64,
    /// Why the cell does not count as correct, if it does not.
    pub problem: Option<String>,
}

impl CellCheck {
    fn of(rec: &CellRecord) -> Self {
        let full = rec.canonical();
        let mut sim = full.clone();
        sim.counters = full.counters.without_engine_counters();
        let c = &rec.counters;
        let problem = if !rec.verified {
            Some(format!(
                "unverified: {}",
                rec.verify_error.as_deref().unwrap_or("?")
            ))
        } else if c.retransmissions != c.faults_dropped {
            Some(format!(
                "{} retransmissions for {} drops",
                c.retransmissions, c.faults_dropped
            ))
        } else {
            None
        };
        CellCheck {
            hash: rec.cell.hash(),
            label: rec.cell.label(),
            total_cycles: rec.total_cycles,
            sim_digest: fnv1a(&sim.to_json().render()),
            record_digest: fnv1a(&full.to_json().render()),
            problem,
        }
    }

    fn failed(cell: &Cell, problem: String) -> Self {
        CellCheck {
            hash: cell.hash(),
            label: cell.label(),
            total_cycles: 0,
            sim_digest: 0,
            record_digest: 0,
            problem: Some(problem),
        }
    }

    /// JSON form, digests as 16 hex digits.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("hash".into(), Json::Str(self.hash.clone())),
            ("label".into(), Json::Str(self.label.clone())),
            ("total_cycles".into(), Json::Int(self.total_cycles)),
            ("sim".into(), Json::Str(format!("{:016x}", self.sim_digest))),
            (
                "record".into(),
                Json::Str(format!("{:016x}", self.record_digest)),
            ),
            (
                "problem".into(),
                self.problem.clone().map_or(Json::Null, Json::Str),
            ),
        ])
    }

    /// Parses [`CellCheck::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let s = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("cell check missing {k}"))
        };
        let hex = |k: &str| u64::from_str_radix(s(k)?, 16).map_err(|e| format!("{k}: {e}"));
        Ok(CellCheck {
            hash: s("hash")?.to_string(),
            label: s("label")?.to_string(),
            total_cycles: v
                .get("total_cycles")
                .and_then(Json::as_u64)
                .ok_or("cell check missing total_cycles")?,
            sim_digest: hex("sim")?,
            record_digest: hex("record")?,
            problem: v.get("problem").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// 64-bit FNV-1a, the hash the sweep uses for cell identities.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The outcome of one repetition: named metric values plus the per-cell
/// checks (and, for a traced repetition, its spans).
#[derive(Debug, Default)]
pub struct RepOut {
    /// Metric name to value.
    pub metrics: BTreeMap<String, f64>,
    /// One check per cell, in submission order.
    pub cells: Vec<CellCheck>,
    /// Coarse spans of a traced repetition.
    pub spans: Vec<Span>,
}

/// A coarse span of a traced repetition, microseconds since its start.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the cell in submission order.
    pub cell: usize,
    /// `cell`, `build`, `machine`, `spawn`, `init` or `run`.
    pub name: &'static str,
    /// Start, microseconds since the traced pass began.
    pub start_us: u64,
    /// End, microseconds since the traced pass began.
    pub end_us: u64,
}

/// One traced cell's wall time split across layers, nanoseconds. The five
/// parts must sum to `wall` exactly: `driver` and `idle` are remainders, so
/// a cell whose parts do not add up has been mismeasured.
#[derive(Debug, Clone, Copy)]
struct Split {
    /// Cell wall time on its executor worker.
    wall: i64,
    /// `AppSpec::build` + `Workload::spawn` + `Machine::new` + `Protocol::init`.
    setup: i64,
    /// Time inside protocol calls (read, write, lock, unlock, barrier, finish).
    protocol: i64,
    /// Driver-thread CPU time outside setup and protocol calls.
    driver: i64,
    /// On-CPU time of the cell's application threads.
    app: i64,
    /// Wall time neither the driver nor an app thread was on a CPU: the
    /// baton handoffs (signed, since the parts are measured separately).
    idle: i64,
}

impl Split {
    fn reconciles(&self) -> bool {
        self.setup + self.protocol + self.driver + self.app + self.idle == self.wall
    }
}

// ---------------------------------------------------------------------------
// Host probes (Linux /proc).

fn read_proc(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("perfbench needs {path}: {e}"))
}

/// On-CPU time of the calling thread, nanoseconds.
fn thread_cpu_ns() -> u64 {
    read_proc("/proc/thread-self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("schedstat starts with the on-CPU nanoseconds")
}

/// User and system CPU time of the whole process, seconds.
fn process_cpu_s() -> (f64, f64) {
    let stat = read_proc("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in clock ticks.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let field = |i: usize| -> f64 {
        rest.split_whitespace()
            .nth(i)
            .and_then(|v| v.parse::<u64>().ok())
            .expect("stat has utime and stime") as f64
    };
    // USER_HZ is 100 on every Linux target Rust supports.
    (field(11) / 100.0, field(12) / 100.0)
}

/// Peak resident set size of the process so far (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    read_proc("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("status has VmHWM")
        / 1024.0
}

// ---------------------------------------------------------------------------
// Cell construction, as `ssm_sweep::execute_with` and `SimBuilder::run` do it.

fn machine_for(cell: &Cell) -> Machine {
    let (comm, costs) = if cell.protocol == ProtocolKind::Ideal {
        (CommParams::achievable(), ProtoCosts::original())
    } else {
        (cell.comm.params(), cell.proto.costs())
    };
    let mut m = Machine::new(cell.procs, comm, costs, MemConfig::pentium_pro_like());
    if cell.has_faults() {
        m.set_fault_plan(FaultPlan::uniform(cell.fault_rate_ppm, cell.fault_seed));
    }
    m
}

fn protocol_for(cell: &Cell, app_sc_block: u64) -> Box<dyn Protocol> {
    let block = cell.sc_block.unwrap_or(app_sc_block);
    let homes = cell.homes;
    match cell.protocol {
        ProtocolKind::Hlrc => Box::new(Hlrc::new().with_homes(homes)),
        ProtocolKind::Aurc => Box::new(Hlrc::aurc().with_homes(homes)),
        ProtocolKind::Sc => Box::new(Sc::new(block).with_homes(homes)),
        ProtocolKind::ScDelayed => Box::new(Sc::delayed(block).with_homes(homes)),
        ProtocolKind::Rdma => Box::new(Rdma::new(block).with_homes(homes)),
        ProtocolKind::Ideal => Box::new(Ideal::new()),
    }
}

fn spec_for(cell: &Cell) -> catalog::AppSpec {
    catalog::by_name(&cell.app).unwrap_or_else(|| panic!("unknown application {:?}", cell.app))
}

fn shape_of(world: &World) -> WorldShape {
    WorldShape {
        heap_bytes: world.used().max(1),
        nlocks: world.lock_count() as usize,
        nbarriers: world.barrier_count() as usize,
    }
}

/// Seconds `cell` spends in `AppSpec::build`, `Workload::spawn`,
/// `Machine::new` and `Protocol::init`, without running it.
fn setup_seconds(cell: &Cell) -> f64 {
    let spec = spec_for(cell);
    let t = Instant::now();
    let workload = spec.build(cell.scale);
    let mut took = t.elapsed();
    let mut world = World::new(workload.mem_bytes());
    let t = Instant::now();
    let bodies = workload.spawn(&mut world, cell.procs);
    let machine = machine_for(cell);
    let mut protocol = protocol_for(cell, spec.sc_block);
    protocol.init(&machine, &shape_of(&world));
    took += t.elapsed();
    drop(bodies);
    took.as_secs_f64()
}

// ---------------------------------------------------------------------------
// The untraced repetition.

/// Runs `cells` cold through the sweep on `jobs` workers with its cache in
/// `cache_dir` (which must not hold a cache yet), then replays every cell's
/// setup. Reports `wall_s`, `cpu_s` and `peak_rss_mb` of the sweep and the
/// summed `setup_s`.
pub fn untraced(cells: &[Cell], jobs: usize, cache_dir: &Path) -> RepOut {
    let cpu0 = process_cpu_s();
    let t = Instant::now();
    let run = Sweep::enumerate(cells)
        .jobs(jobs)
        .cache(cache_dir)
        .quiet()
        .run();
    let wall = t.elapsed().as_secs_f64();
    let cpu1 = process_cpu_s();
    let rss = peak_rss_mb();
    let setup: f64 = cells.iter().map(setup_seconds).sum();

    let checks = run
        .outcomes
        .iter()
        .map(|o| match &o.status {
            CellStatus::Done(_) if o.cached => {
                CellCheck::failed(&o.cell, "served from a cache that should be cold".into())
            }
            CellStatus::Done(rec) => CellCheck::of(rec),
            CellStatus::Failed(e) => CellCheck::failed(&o.cell, format!("failed: {e}")),
            CellStatus::TimedOut(d) => CellCheck::failed(&o.cell, format!("timed out after {d:?}")),
        })
        .collect();
    let metrics = [
        ("wall_s", wall),
        ("cpu_s", (cpu1.0 + cpu1.1) - (cpu0.0 + cpu0.1)),
        ("peak_rss_mb", rss),
        ("setup_s", setup),
    ];
    RepOut {
        metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        cells: checks,
        ..RepOut::default()
    }
}

// ---------------------------------------------------------------------------
// The traced repetition.

/// Protocol calls by kind, in the order of [`OP_NAMES`].
const OPS: usize = 6;
const OP_NAMES: [&str; OPS] = ["read", "write", "lock", "unlock", "barrier", "finish"];
const READ: usize = 0;
const WRITE: usize = 1;
const LOCK: usize = 2;
const UNLOCK: usize = 3;
const BARRIER: usize = 4;
const FINISH: usize = 5;

/// Times every call into the wrapped protocol.
struct TimedProtocol<'a> {
    inner: &'a mut dyn Protocol,
    init: Option<(Instant, Instant)>,
    ns: [u64; OPS],
    calls: [u64; OPS],
}

impl TimedProtocol<'_> {
    fn timed<T>(&mut self, op: usize, f: impl FnOnce(&mut dyn Protocol) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner);
        self.ns[op] += t.elapsed().as_nanos() as u64;
        self.calls[op] += 1;
        out
    }
}

impl Protocol for TimedProtocol<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, m: &Machine, shape: &WorldShape) {
        let t = Instant::now();
        self.inner.init(m, shape);
        self.init = Some((t, Instant::now()));
    }

    fn read(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles {
        self.timed(READ, |x| x.read(m, p, addr, bytes))
    }

    fn write(&mut self, m: &mut Machine, p: usize, addr: u64, bytes: u64) -> Cycles {
        self.timed(WRITE, |x| x.write(m, p, addr, bytes))
    }

    fn lock(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Option<Cycles> {
        self.timed(LOCK, |x| x.lock(m, p, lock))
    }

    fn unlock(&mut self, m: &mut Machine, p: usize, lock: LockId) -> Cycles {
        self.timed(UNLOCK, |x| x.unlock(m, p, lock))
    }

    fn barrier(&mut self, m: &mut Machine, p: usize, barrier: BarrierId) -> Option<Cycles> {
        self.timed(BARRIER, |x| x.barrier(m, p, barrier))
    }

    fn finished(&mut self, m: &mut Machine, p: usize) {
        self.timed(FINISH, |x| x.finished(m, p))
    }
}

/// Times `spawn` and makes every thread body add its on-CPU time to
/// `app_cpu_ns`.
struct TimedWorkload<'a> {
    inner: &'a dyn Workload,
    spawn: StdCell<Option<(Instant, Instant)>>,
    app_cpu_ns: Arc<AtomicU64>,
}

impl Workload for TimedWorkload<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn mem_bytes(&self) -> usize {
        self.inner.mem_bytes()
    }

    fn spawn(&self, world: &mut World, nprocs: usize) -> Vec<ThreadBody> {
        let t = Instant::now();
        let bodies = self.inner.spawn(world, nprocs);
        self.spawn.set(Some((t, Instant::now())));
        bodies
            .into_iter()
            .map(|body| {
                let acc = Arc::clone(&self.app_cpu_ns);
                let timed: ThreadBody = Box::new(move |p: &Proc<'_>| {
                    let c = thread_cpu_ns();
                    body(p);
                    acc.fetch_add(thread_cpu_ns() - c, Ordering::Relaxed);
                });
                timed
            })
            .collect()
    }

    fn verify(&self) -> Result<(), String> {
        self.inner.verify()
    }
}

/// Everything measured about one traced cell.
struct CellTrace {
    index: usize,
    protocol: ProtocolKind,
    record: CellRecord,
    split: Split,
    build_ns: u64,
    machine_ns: u64,
    spawn_ns: u64,
    init_ns: u64,
    ns: [u64; OPS],
    calls: [u64; OPS],
    spans: Vec<Span>,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn trace_cell(index: usize, cell: &Cell, workers: &WorkerSet, origin: Instant) -> CellTrace {
    let us = |t: Instant| t.duration_since(origin).as_micros() as u64;
    let cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    let spec = spec_for(cell);
    let workload = spec.build(cell.scale);
    let t1 = Instant::now();
    let machine = machine_for(cell);
    let t2 = Instant::now();
    let mut inner = protocol_for(cell, spec.sc_block);
    let mut protocol = TimedProtocol {
        inner: inner.as_mut(),
        init: None,
        ns: [0; OPS],
        calls: [0; OPS],
    };
    let timed_workload = TimedWorkload {
        inner: workload.as_ref(),
        spawn: StdCell::new(None),
        app_cpu_ns: Arc::new(AtomicU64::new(0)),
    };
    let opts = EngineOptions {
        workers: Some(workers.clone()),
        batching: Batching(true),
    };
    let t3 = Instant::now();
    let result = run_simulation_with(&mut protocol, &timed_workload, cell.procs, machine, &opts);
    let t4 = Instant::now();
    let record = CellRecord::from_run(cell.clone(), &result, ns(t4 - t0) / 1_000_000);
    let cpu1 = thread_cpu_ns();
    let t5 = Instant::now();

    let spawn = timed_workload.spawn.get().expect("the driver spawns");
    let init = protocol.init.expect("the driver initialises the protocol");
    let (build_ns, machine_ns) = (ns(t1 - t0), ns(t2 - t1));
    let (spawn_ns, init_ns) = (ns(spawn.1 - spawn.0), ns(init.1 - init.0));
    let setup = (build_ns + machine_ns + spawn_ns + init_ns) as i64;
    let proto: u64 = protocol.ns.iter().sum();
    let driver_cpu = (cpu1 - cpu0) as i64;
    let app = timed_workload.app_cpu_ns.load(Ordering::Relaxed) as i64;
    let wall = ns(t5 - t0) as i64;
    let split = Split {
        wall,
        setup,
        protocol: proto as i64,
        driver: driver_cpu - proto as i64 - setup,
        app,
        idle: wall - driver_cpu - app,
    };
    let span = |name, a: Instant, b: Instant| Span {
        cell: index,
        name,
        start_us: us(a),
        end_us: us(b),
    };
    CellTrace {
        index,
        protocol: cell.protocol,
        record,
        split,
        build_ns,
        machine_ns,
        spawn_ns,
        init_ns,
        ns: protocol.ns,
        calls: protocol.calls,
        spans: vec![
            span("cell", t0, t5),
            span("build", t0, t1),
            span("machine", t1, t2),
            span("spawn", spawn.0, spawn.1),
            span("init", init.0, init.1),
            span("run", t3, t4),
        ],
    }
}

/// Runs `cells` traced on `jobs` workers, then times a warm sweep of the
/// same cells from a cache in `cache_dir` (which must not hold a cache
/// yet). Reports every per-layer metric except `trace.overhead_pct`, which
/// needs the untraced median.
pub fn traced(cells: &[Cell], jobs: usize, cache_dir: &Path) -> RepOut {
    let workers = WorkerSet::new();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Result<CellTrace, (usize, String)>>> = Mutex::new(Vec::new());
    let (_, sys0) = process_cpu_s();
    let origin = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..jobs.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let out = catch_unwind(AssertUnwindSafe(|| trace_cell(i, cell, &workers, origin)))
                    .map_err(|p| (i, panic_text(p.as_ref())));
                done.lock()
                    .expect("no worker panics holding the lock")
                    .push(out);
            });
        }
    });
    let wall = origin.elapsed().as_secs_f64();
    let (_, sys1) = process_cpu_s();

    let mut out = RepOut::default();
    let mut traces = Vec::new();
    let mut checks: Vec<Option<CellCheck>> = vec![None; cells.len()];
    for r in done.into_inner().expect("workers joined") {
        match r {
            Ok(t) => {
                let mut check = CellCheck::of(&t.record);
                if !t.split.reconciles() && check.problem.is_none() {
                    check.problem = Some(format!("host-time split {:?} misses", t.split));
                }
                checks[t.index] = Some(check);
                traces.push(t);
            }
            Err((i, e)) => checks[i] = Some(CellCheck::failed(&cells[i], format!("failed: {e}"))),
        }
    }
    traces.sort_by_key(|t| t.index);
    out.cells = checks
        .into_iter()
        .map(|c| c.expect("every cell ran"))
        .collect();

    // The warm sweep: seed a cache with the traced records, then every cell
    // must be a hit.
    let mut store = ResultStore::open(cache_dir)
        .unwrap_or_else(|e| panic!("cannot open {}: {e}", cache_dir.display()));
    for t in &traces {
        store
            .append(t.record.clone())
            .unwrap_or_else(|e| panic!("cannot seed the warm cache: {e}"));
    }
    drop(store);
    let t = Instant::now();
    let run = Sweep::enumerate(cells)
        .jobs(jobs)
        .cache(cache_dir)
        .quiet()
        .run();
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    for (o, c) in run.outcomes.iter().zip(out.cells.iter_mut()) {
        if !o.cached && c.problem.is_none() {
            c.problem = Some("warm sweep missed the cache".to_string());
        }
    }

    out.metrics = layer_metrics(&traces, wall, sys1 - sys0, warm_ms);
    out.spans = traces.into_iter().flat_map(|t| t.spans).collect();
    out
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// The per-layer metrics of a traced pass, summed over its cells.
fn layer_metrics(
    traces: &[CellTrace],
    wall_s: f64,
    sys_s: f64,
    warm_ms: f64,
) -> BTreeMap<String, f64> {
    let sum = |f: &dyn Fn(&CellTrace) -> f64| traces.iter().map(f).sum::<f64>();
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let s = |ns: i64| ns as f64 / 1e9;
    let c = |f: fn(&ssm_stats::Counters) -> u64| sum(&|t| f(&t.record.counters) as f64);

    let sim_ops = c(|c| c.sim_ops);
    let handoffs = c(|c| c.handoffs);
    let app_ns = sum(&|t| t.split.app as f64);
    let driver_ns = sum(&|t| t.split.driver as f64);
    let idle_ns = sum(&|t| t.split.idle as f64);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };

    put("apps.build_s", sum(&|t| s(t.build_ns as i64)));
    put("apps.spawn_s", sum(&|t| s(t.spawn_ns as i64)));
    put("proto.machine_new_s", sum(&|t| s(t.machine_ns as i64)));
    put("proto.init_s", sum(&|t| s(t.init_ns as i64)));
    put("apps.thread_cpu_s", app_ns / 1e9);
    put("apps.thread_ns_per_op", per(app_ns, sim_ops));
    put("core.driver_cpu_s", driver_ns / 1e9);
    put("core.driver_ns_per_op", per(driver_ns, sim_ops));
    put("core.sim_ops", sim_ops);
    put("engine.handoff_idle_s", idle_ns / 1e9);
    put("engine.idle_us_per_handoff", per(idle_ns / 1e3, handoffs));
    put("engine.handoffs", handoffs);
    put("engine.ops_per_handoff", per(sim_ops, handoffs));
    put("engine.flush_miss", c(|c| c.flush_miss));
    put("engine.flush_sync", c(|c| c.flush_sync));
    put("engine.flush_cap", c(|c| c.flush_cap));
    put("engine.sys_s", sys_s);
    put(
        "engine.threads_spawned",
        sum(&|t| t.record.threads_spawned as f64),
    );

    for (family, kinds) in [
        ("hlrc", &[ProtocolKind::Hlrc, ProtocolKind::Aurc][..]),
        ("sc", &[ProtocolKind::Sc, ProtocolKind::ScDelayed][..]),
        ("rdma", &[ProtocolKind::Rdma][..]),
    ] {
        let mine = |t: &CellTrace| kinds.contains(&t.protocol);
        let op_ns = |op: usize| sum(&|t| if mine(t) { t.ns[op] as f64 } else { 0.0 });
        let op_calls = |op: usize| sum(&|t| if mine(t) { t.calls[op] as f64 } else { 0.0 });
        for (op, name) in OP_NAMES.iter().enumerate().take(5) {
            put(&format!("{family}.{name}_s"), op_ns(op) / 1e9);
        }
        for op in [READ, WRITE] {
            put(
                &format!("{family}.{}_ns", OP_NAMES[op]),
                per(op_ns(op), op_calls(op)),
            );
        }
    }

    // Every IDEAL read or write is exactly one `Machine::cache_access`.
    let ideal = |t: &CellTrace| t.protocol == ProtocolKind::Ideal;
    let access_ns = sum(&|t| {
        if ideal(t) {
            (t.ns[READ] + t.ns[WRITE]) as f64
        } else {
            0.0
        }
    });
    let accesses = sum(&|t| {
        if ideal(t) {
            (t.calls[READ] + t.calls[WRITE]) as f64
        } else {
            0.0
        }
    });
    put("mem.access_s", access_ns / 1e9);
    put("mem.access_ns", per(access_ns, accesses));
    put("mem.accesses", accesses);

    put("net.messages", c(|c| c.messages));
    put("net.bytes", c(|c| c.bytes));
    put("net.retransmissions", c(|c| c.retransmissions));
    put("net.dup_suppressed", c(|c| c.dup_suppressed));
    put("net.faults_injected", c(|c| c.faults_injected()));

    put("sweep.warm_ms", warm_ms);
    put("trace.wall_s", wall_s);
    m
}
