//! `perfbench`: the benchmark of record for the simulator's host time, end
//! to end and layer by layer. See `README.md` beside this package.
//!
//! ```text
//! perfbench run [--workload NAME|all] [--runs K | --seconds S] [--seed N] [--trace 0|1] [--out DIR]
//! perfbench compare DIR_A DIR_B
//! perfbench golden
//! ```
//!
//! `run` repeats each workload, every repetition in a fresh child process,
//! for `K` repetitions or until `S` seconds are spent. With `--trace 1` (the
//! default) each untraced repetition is followed by a traced one. It prints
//! every metric by name with its unit, writes `e2e.json` (and `layers.json`
//! when tracing) under `DIR` (default `target/perfbench`), and ends with one
//! JSON line: the end-to-end medians with `--trace 0`, the per-layer medians
//! with `--trace 1`. It exits 1 if any cell result fails a check.

mod bench;

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::str::FromStr;
use std::time::Instant;

use bench::rep::{self, CellCheck, RepOut};
use bench::report::{self, Checker, Metric, Summary, END_TO_END, PER_LAYER};
use bench::workloads::{self, BenchWorkload, GOLDEN_SEED, PROCS, WORKLOADS};
use ssm_apps::catalog::Scale;
use ssm_sweep::Json;

const USAGE: &str = "usage:
  perfbench run [--workload NAME|all] [--runs K | --seconds S] [--seed N] [--trace 0|1] [--out DIR]
  perfbench compare DIR_A DIR_B
  perfbench golden";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("golden") if args.len() == 1 => golden(),
        Some("child") => child(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// `--flag value` pairs, restricted to `known` flags.
fn flags(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        if !known.contains(&k.as_str()) {
            return Err(format!("unknown argument {k:?}\n{USAGE}"));
        }
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        out.insert(k.clone(), v.clone());
    }
    Ok(out)
}

fn value<T: FromStr>(f: &BTreeMap<String, String>, key: &str, default: T) -> Result<T, String> {
    f.get(key).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("bad value {v:?} for {key}"))
    })
}

fn workload(name: &str) -> Result<&'static BenchWorkload, String> {
    workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?} (one of {}, or all)",
            names.join(", ")
        )
    })
}

fn trace_flag(f: &BTreeMap<String, String>) -> Result<bool, String> {
    match f.get("--trace").map_or("1", String::as_str) {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("--trace takes 0 or 1, not {other:?}")),
    }
}

/// How long `run` repeats each workload.
enum Budget {
    Runs(usize),
    Seconds(f64),
}

/// What one child repetition reported.
struct ChildOut {
    metrics: BTreeMap<String, f64>,
    cells: Vec<CellCheck>,
    spans: Json,
}

/// Everything `run` gathered for one workload.
struct Measured {
    workload: &'static BenchWorkload,
    e2e: BTreeMap<String, Vec<f64>>,
    layers: BTreeMap<String, Vec<f64>>,
    spans: Option<Json>,
    checker: Checker,
}

fn run(args: &[String]) -> Result<i32, String> {
    let f = flags(
        args,
        &[
            "--workload",
            "--runs",
            "--seconds",
            "--seed",
            "--trace",
            "--out",
        ],
    )?;
    let selected: Vec<&'static BenchWorkload> = match f.get("--workload").map(String::as_str) {
        None | Some("all") => WORKLOADS.iter().collect(),
        Some(name) => vec![workload(name)?],
    };
    let budget = match (f.contains_key("--runs"), f.contains_key("--seconds")) {
        (true, true) => return Err("give --runs or --seconds, not both".into()),
        (_, true) => Budget::Seconds(value(&f, "--seconds", 0.0)?),
        _ => Budget::Runs(value(&f, "--runs", 5)?),
    };
    if matches!(budget, Budget::Runs(0))
        || matches!(budget, Budget::Seconds(s) if s.is_nan() || s <= 0.0)
    {
        return Err("--runs and --seconds must be positive".into());
    }
    let seed: u64 = value(&f, "--seed", GOLDEN_SEED)?;
    let trace = trace_flag(&f)?;
    let out = PathBuf::from(value(&f, "--out", "target/perfbench".to_string())?);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    let measured: Vec<Measured> = selected
        .into_iter()
        .map(|w| measure(w, seed, &budget, trace, &out))
        .collect();
    let _ = std::fs::remove_dir(out.join("tmp"));

    for m in &measured {
        print_workload(m);
    }
    write_set(&out.join("e2e.json"), seed, &measured, |m| &m.e2e, false)?;
    if trace {
        write_set(
            &out.join("layers.json"),
            seed,
            &measured,
            |m| &m.layers,
            true,
        )?;
    }

    let attempted: u64 = measured.iter().map(|m| m.checker.attempted).sum();
    let failed: u64 = measured.iter().map(|m| m.checker.failed).sum();
    let mut metrics = Vec::new();
    for m in &measured {
        let (table, values): (&[Metric], _) = if trace {
            (&PER_LAYER, &m.layers)
        } else {
            (&END_TO_END, &m.e2e)
        };
        for metric in table {
            if let Some(v) = values.get(metric.name) {
                let key = if measured.len() == 1 {
                    metric.name.to_string()
                } else {
                    format!("{}/{}", m.workload.name, metric.name)
                };
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Num(report::median(v))),
                    ("unit".into(), Json::Str(metric.unit.into())),
                ]);
                metrics.push((key, entry));
            }
        }
    }
    let last = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Int(attempted)),
        ("failed".into(), Json::Int(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", last.render());
    Ok(if failed == 0 { 0 } else { 1 })
}

fn measure(
    w: &'static BenchWorkload,
    seed: u64,
    budget: &Budget,
    trace: bool,
    out: &Path,
) -> Measured {
    let mut m = Measured {
        workload: w,
        e2e: BTreeMap::new(),
        layers: BTreeMap::new(),
        spans: None,
        checker: Checker::new(bench::GOLDEN, seed),
    };
    let ncells = w.cells(seed, Scale::Bench, PROCS).len();
    let kinds: &[bool] = if trace { &[false, true] } else { &[false] };
    let started = Instant::now();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        for &traced in kinds {
            let rep = match repetition(w, seed, traced, out) {
                Ok(rep) => rep,
                Err(e) => {
                    m.checker.lost(ncells, &format!("{}: {e}", w.name));
                    return m;
                }
            };
            m.checker.check(&rep.cells);
            let into = if traced { &mut m.layers } else { &mut m.e2e };
            for (k, v) in rep.metrics {
                into.entry(k).or_default().push(v);
            }
            if traced && m.spans.is_none() {
                let labels = rep.cells.iter().map(|c| Json::Str(c.label.clone()));
                m.spans = Some(Json::Obj(vec![
                    ("cells".into(), Json::Arr(labels.collect())),
                    ("spans".into(), rep.spans),
                ]));
            }
        }
        let spent = started.elapsed().as_secs_f64();
        let done = match *budget {
            Budget::Runs(k) => iterations >= k,
            // Stop before an iteration that would overrun the budget.
            Budget::Seconds(s) => spent + spent / iterations as f64 > s,
        };
        if done {
            break;
        }
    }
    if trace {
        let overhead =
            report::median(&m.layers["trace.wall_s"]) / report::median(&m.e2e["wall_s"]) - 1.0;
        m.layers
            .insert("trace.overhead_pct".into(), vec![overhead * 100.0]);
    }
    m
}

/// Runs one repetition of `w` in a fresh child process, so no thread,
/// allocation or cache of an earlier repetition is carried over.
fn repetition(w: &BenchWorkload, seed: u64, traced: bool, out: &Path) -> Result<ChildOut, String> {
    let dir = out.join("tmp").join(format!(
        "{}-{}-{}",
        w.name,
        std::process::id(),
        if traced { "traced" } else { "untraced" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let output = Command::new(exe)
        .args(["child", "--workload", w.name, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(&dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    if !output.status.success() {
        return Err(format!("repetition exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().ok_or("repetition printed nothing")?;
    let j = Json::parse(line)?;
    let metrics = match j.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or(format!("{k} is not a number"))?)))
            .collect::<Result<_, String>>()?,
        _ => return Err("repetition reported no metrics".into()),
    };
    let cells = j
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("repetition reported no cells")?
        .iter()
        .map(CellCheck::from_json)
        .collect::<Result<_, _>>()?;
    Ok(ChildOut {
        metrics,
        cells,
        spans: j.get("spans").cloned().unwrap_or(Json::Null),
    })
}

/// The hidden single-repetition mode `run` starts.
fn child(args: &[String]) -> Result<i32, String> {
    let f = flags(args, &["--workload", "--seed", "--trace", "--dir"])?;
    let w = workload(f.get("--workload").ok_or("--workload is required")?)?;
    let seed: u64 = value(&f, "--seed", GOLDEN_SEED)?;
    let dir = PathBuf::from(f.get("--dir").ok_or("--dir is required")?);
    let cells = w.cells(seed, Scale::Bench, PROCS);
    let rep = if trace_flag(&f)? {
        rep::traced(&cells, w.jobs, &dir)
    } else {
        rep::untraced(&cells, w.jobs, &dir)
    };
    println!("{}", rep_json(&rep).render());
    Ok(0)
}

fn rep_json(rep: &RepOut) -> Json {
    let spans = rep.spans.iter().map(|s| {
        Json::Arr(vec![
            Json::Int(s.cell as u64),
            Json::Str(s.name.into()),
            Json::Int(s.start_us),
            Json::Int(s.end_us),
        ])
    });
    Json::Obj(vec![
        (
            "metrics".into(),
            Json::Obj(
                rep.metrics
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Num(v)))
                    .collect(),
            ),
        ),
        (
            "cells".into(),
            Json::Arr(rep.cells.iter().map(CellCheck::to_json).collect()),
        ),
        ("spans".into(), Json::Arr(spans.collect())),
    ])
}

fn print_workload(m: &Measured) {
    let w = m.workload;
    println!(
        "== {}: {} cell runs, {} failed. {} worker(s); {}",
        w.name, m.checker.attempted, m.checker.failed, w.jobs, w.why
    );
    for p in &m.checker.problems {
        println!("   FAILED {p}");
    }
    let rows = END_TO_END
        .iter()
        .map(|metric| (metric, &m.e2e))
        .chain(PER_LAYER.iter().map(|metric| (metric, &m.layers)));
    for (metric, values) in rows {
        if let Some(v) = values.get(metric.name) {
            let s = Summary::of(v);
            println!(
                "{:<10} {:<28} {:>16.6} {:<11} q1 {:.6}  q3 {:.6}  min {:.6}  max {:.6}  n={}",
                w.name,
                metric.name,
                s.median,
                metric.unit,
                s.q1,
                s.q3,
                s.min,
                s.max,
                v.len()
            );
        }
    }
}

fn write_set(
    path: &Path,
    seed: u64,
    measured: &[Measured],
    values: impl Fn(&Measured) -> &BTreeMap<String, Vec<f64>>,
    with_spans: bool,
) -> Result<(), String> {
    let workloads = measured
        .iter()
        .map(|m| {
            let metrics = values(m)
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), Summary::of(v).to_json(report::metric(k)?))))
                .collect();
            let mut fields = vec![
                ("jobs".into(), Json::Int(m.workload.jobs as u64)),
                ("attempted".into(), Json::Int(m.checker.attempted)),
                ("failed".into(), Json::Int(m.checker.failed)),
                ("metrics".into(), Json::Obj(metrics)),
            ];
            if with_spans {
                fields.push(("spans".into(), m.spans.clone().unwrap_or(Json::Null)));
            }
            (m.workload.name.to_string(), Json::Obj(fields))
        })
        .collect();
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("perfbench/1".into())),
        ("seed".into(), Json::Int(seed)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    std::fs::write(path, doc.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads `DIR/e2e.json`: workload to metric to its values.
fn load_e2e(dir: &str) -> Result<BTreeMap<String, BTreeMap<String, Summary>>, String> {
    let path = Path::new(dir).join("e2e.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{} has no workloads", path.display()));
    };
    let mut out = BTreeMap::new();
    for (name, w) in workloads {
        let Some(Json::Obj(metrics)) = w.get("metrics") else {
            continue;
        };
        let mut per = BTreeMap::new();
        for (metric, s) in metrics {
            let values: Vec<f64> = s
                .get("values")
                .and_then(Json::as_arr)
                .map(|v| v.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            if !values.is_empty() {
                per.insert(metric.clone(), Summary::of(&values));
            }
        }
        out.insert(name.clone(), per);
    }
    Ok(out)
}

/// `compare DIR_A DIR_B`: the parent's runs in `DIR_A`, the change's in
/// `DIR_B`. Exits 1 if any (workload, metric) pair is worse.
fn compare(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let (parent, change) = (load_e2e(a)?, load_e2e(b)?);
    println!(
        "{:<10} {:<12} {:>28} {:>28} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound", "spread"
    );
    let mut worse = 0;
    for (w, pa) in &parent {
        let Some(pb) = change.get(w) else { continue };
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (pa.get(metric.name), pb.get(metric.name)) else {
                continue;
            };
            let v = report::verdict(sa, sb, metric.better, metric.bound);
            worse += usize::from(v == report::Verdict::Worse);
            let side = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{:<10} {:<12} {:>28} {:>28} {:>+7.1}% {:>5.0}% {:>6.1}%  {}",
                w,
                metric.name,
                side(sa),
                side(sb),
                100.0 * report::worsening(sa, sb, metric.better),
                100.0 * metric.bound,
                100.0 * sa.spread().max(sb.spread()),
                v.label()
            );
        }
    }
    Ok(if worse == 0 { 0 } else { 1 })
}

/// `golden`: prints `golden.txt` for the current program, from one
/// untraced repetition of every workload at [`GOLDEN_SEED`].
fn golden() -> Result<i32, String> {
    let dir = PathBuf::from("target/perfbench/tmp").join(format!("golden-{}", std::process::id()));
    let mut seen = HashSet::new();
    let mut lines = Vec::new();
    for w in &WORKLOADS {
        let cells = w.cells(GOLDEN_SEED, Scale::Bench, PROCS);
        let mut checks = rep::untraced(&cells, w.jobs, &dir.join(w.name)).cells;
        checks.sort_by(|a, b| a.label.cmp(&b.label));
        for c in checks {
            if let Some(p) = &c.problem {
                return Err(format!("{}: {p}", c.label));
            }
            if seen.insert(c.hash.clone()) {
                lines.push(format!(
                    "{} {} {:016x} {}",
                    c.hash, c.total_cycles, c.sim_digest, c.label
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "# Every perfbench cell at seed {GOLDEN_SEED}: cell hash, total_cycles, FNV-1a of the\n\
         # canonical record without engine counters, label. Regenerate with `perfbench golden`."
    );
    for l in lines {
        println!("{l}");
    }
    Ok(0)
}
