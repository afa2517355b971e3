//! Smoke test of the `perfbench` benchmark in `examples/perfbench`: every
//! workload's cells at test scale on 4 processors, once untraced and once
//! traced; the metric names `BENCHMARK.json` declares; and the verdicts of
//! `perfbench compare`.

#[allow(dead_code)]
#[path = "../../examples/perfbench/src/bench/mod.rs"]
mod bench;

use std::collections::BTreeSet;
use std::path::PathBuf;

use bench::rep::{self, CellCheck};
use bench::report::{self, Better, Checker, Summary, Verdict, END_TO_END, PER_LAYER};
use bench::workloads::WORKLOADS;
use ssm_apps::catalog::Scale;
use ssm_sweep::Json;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{name}-{}", std::process::id()))
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a Json {
    entry
        .get(key)
        .unwrap_or_else(|| panic!("{} lacks {key}", entry.render()))
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    field(doc, key).as_arr().expect("an array")
}

#[test]
fn every_workload_runs_identically_traced_and_untraced() {
    let mut reported = BTreeSet::new();
    for w in &WORKLOADS {
        let cells = w.cells(7, Scale::Test, 4);
        let dir = scratch(w.name);
        let _ = std::fs::remove_dir_all(&dir);
        let plain = rep::untraced(&cells, w.jobs, &dir.join("untraced"));
        let traced = rep::traced(&cells, w.jobs, &dir.join("traced"));
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(plain.cells.len(), cells.len(), "{}", w.name);
        // A traced cell whose host-time split does not add up to its wall
        // time carries a problem too.
        for c in plain.cells.iter().chain(&traced.cells) {
            assert_eq!(c.problem, None, "{}: {}", w.name, c.label);
        }
        assert_eq!(
            plain.cells, traced.cells,
            "{}: the wrappers must not perturb any simulated record",
            w.name
        );
        assert_eq!(
            traced.spans.len(),
            6 * cells.len(),
            "{}: cell, build, machine, spawn, init and run per cell",
            w.name
        );
        if w.name == "chaos" {
            assert!(traced.metrics["net.faults_injected"] > 0.0);
            assert!(traced.metrics["net.retransmissions"] > 0.0);
        }
        reported.extend(plain.metrics.into_keys());
        reported.extend(traced.metrics.into_keys());
    }
    // `perfbench run` derives this one from both kinds of repetition.
    reported.insert("trace.overhead_pct".to_string());

    let doc = benchmark_json();
    let declared: BTreeSet<String> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|k| entries(&doc, k))
        .map(|e| field(e, "name").as_str().expect("a name").to_string())
        .collect();
    assert_eq!(reported, declared);
}

#[test]
fn benchmark_json_matches_the_code() {
    let doc = benchmark_json();
    let workloads: Vec<(&str, &str)> = entries(&doc, "workloads")
        .iter()
        .map(|e| {
            (
                field(e, "name").as_str().expect("name"),
                field(e, "why").as_str().expect("why"),
            )
        })
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, ours);

    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = entries(&doc, key);
        assert_eq!(listed.len(), table.len(), "{key}");
        for (e, m) in listed.iter().zip(table) {
            assert_eq!(field(e, "name").as_str(), Some(m.name));
            assert_eq!(field(e, "unit").as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                field(e, "better").as_str(),
                Some(m.better.label()),
                "{}",
                m.name
            );
            if key == "end_to_end" {
                assert_eq!(field(e, "bound").as_f64(), Some(m.bound), "{}", m.name);
            }
        }
    }
}

#[test]
fn quartiles_match_python() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(report::quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(report::quartiles(&[2.0, 1.0]), (0.75, 2.25));
    assert_eq!(report::median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
}

#[test]
fn compare_verdicts() {
    let s = Summary::of;
    let base = s(&[10.0, 10.1, 9.9, 10.05, 9.95]);
    let slow = s(&[12.0, 12.1, 11.9, 12.05, 11.95]);
    let fast = s(&[9.5, 9.55, 9.45, 9.5, 9.52]);
    let noisy = s(&[6.0, 14.0, 8.0, 12.0, 10.0]);
    let v = |a: &Summary, b: &Summary, better| report::verdict(a, b, better, 0.10);

    assert_eq!(v(&base, &base, Better::Lower), Verdict::Same);
    assert_eq!(v(&base, &slow, Better::Lower), Verdict::Worse);
    // A gain needs no more than nine tenths of the pairs and a median
    // difference beyond the parent's quartile distance, not the bound.
    assert_eq!(v(&base, &fast, Better::Lower), Verdict::Better);
    // Read the other way round, 5% lower is within a 10% bound.
    assert_eq!(v(&base, &fast, Better::Higher), Verdict::Same);
    assert_eq!(v(&base, &slow, Better::Higher), Verdict::Better);
    // A spread wider than the bound leaves a difference unresolved...
    assert_eq!(v(&noisy, &slow, Better::Lower), Verdict::Unresolved);
    assert_eq!(v(&slow, &noisy, Better::Lower), Verdict::Unresolved);
    // ...unless every run of the change beats every run of the parent.
    assert_eq!(
        v(&noisy, &s(&[2.0, 2.1, 1.9]), Better::Lower),
        Verdict::Better
    );
}

#[test]
fn checker_counts_golden_and_repetition_mismatches() {
    let cell = |cycles, sim, record| CellCheck {
        hash: "00000000000000aa".into(),
        label: "X HLRC AO p16".into(),
        total_cycles: cycles,
        sim_digest: sim,
        record_digest: record,
        problem: None,
    };
    let golden = "# comment\n00000000000000aa 500 00000000000000ff X HLRC AO p16\n";
    let mut c = Checker::new(golden, 42);
    c.check(&[cell(500, 0xff, 1)]);
    assert_eq!((c.attempted, c.failed), (1, 0));
    c.check(&[cell(501, 0xff, 1)]); // wrong cycles
    c.check(&[cell(500, 0xfe, 1)]); // engine-independent record changed
    c.check(&[cell(500, 0xff, 2)]); // differs from the first repetition
    assert_eq!((c.attempted, c.failed), (4, 3), "{:?}", c.problems);

    // A cell absent from golden.txt fails at the golden seed only.
    let other = CellCheck {
        hash: "00000000000000bb".into(),
        ..cell(1, 1, 1)
    };
    let mut at_golden_seed = Checker::new(golden, 42);
    at_golden_seed.check(std::slice::from_ref(&other));
    assert_eq!(at_golden_seed.failed, 1);
    let mut elsewhere = Checker::new(golden, 7);
    elsewhere.check(&[other]);
    assert_eq!(elsewhere.failed, 0);
}
