//! The measured outcome of one cell, in the machine-readable schema that
//! both the on-disk cache (`results/sweep_cache.jsonl`) and the benchmark
//! trajectory (`results/bench_summary.json`) use.
//!
//! A record is self-contained: everything any figure/table binary renders
//! (speedups via the baseline cell, Figure-4 bucket breakdowns, Table-4
//! protocol activity, raw counters, per-processor views) reconstructs from
//! it without re-running the simulator.

use ssm_core::RunResult;
use ssm_stats::{Breakdown, Bucket, Counters, ProtoActivity};

use crate::cell::Cell;
use crate::json::Json;

/// Current record schema version; bump when the schema changes shape so
/// stale cache lines are skipped rather than misread.
pub const SCHEMA_VERSION: u64 = 1;

/// Everything measured for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell this record measures.
    pub cell: Cell,
    /// Parallel execution time (last processor's finish), cycles.
    pub total_cycles: u64,
    /// Per-processor Figure-4 buckets, in [`Bucket::ALL`] order.
    pub per_proc: Vec<[u64; 6]>,
    /// Protocol-activity detail summed over processors (Table 4).
    pub activity: ProtoActivity,
    /// Event counters summed over processors.
    pub counters: Counters,
    /// Whether the workload's self-verification passed.
    pub verified: bool,
    /// The verification failure message, if any.
    pub verify_error: Option<String>,
    /// Host (real) wall time spent simulating this cell, milliseconds.
    pub host_ms: u64,
    /// Always 1 in new records: cells are deterministic, so each runs
    /// once. The field stays because it is part of the canonical record
    /// JSON, which the shard merge compares and perfbench's golden `sim`
    /// digest hashes; lines from older sweeps may hold other counts.
    pub attempts: u64,
    /// OS threads freshly spawned for this cell (host-side, depends on
    /// worker-pool warmth — zeroed in [`CellRecord::canonical`] like
    /// `host_ms`).
    pub threads_spawned: u64,
    /// OS threads recycled from an engine worker pool for this cell
    /// (host-side, zeroed in canonical form; 0 for a catalog cell, whose
    /// bodies run inline).
    pub threads_reused: u64,
}

impl CellRecord {
    /// Builds a record from a completed simulation.
    pub fn from_run(cell: Cell, r: &RunResult, host_ms: u64) -> Self {
        let per_proc = r
            .per_proc
            .iter()
            .map(|b| {
                let mut row = [0u64; 6];
                for (i, k) in Bucket::ALL.iter().enumerate() {
                    row[i] = b.get(*k);
                }
                row
            })
            .collect();
        CellRecord {
            cell,
            total_cycles: r.total_cycles,
            per_proc,
            activity: r.activity,
            counters: r.counters,
            verified: r.verify_error.is_none(),
            verify_error: r.verify_error.clone(),
            host_ms,
            attempts: 1,
            threads_spawned: r.threads_spawned,
            threads_reused: r.threads_reused,
        }
    }

    /// A copy with the nondeterministic fields (`host_ms` and the
    /// pool-warmth-dependent thread stats) zeroed — the form the shard
    /// merge writes, so merged caches come out byte-identical across
    /// reruns and shard counts.
    pub fn canonical(&self) -> Self {
        CellRecord {
            host_ms: 0,
            threads_spawned: 0,
            threads_reused: 0,
            ..self.clone()
        }
    }

    /// Processor `p`'s breakdown.
    pub fn breakdown(&self, p: usize) -> Breakdown {
        let mut b = Breakdown::new();
        for (i, k) in Bucket::ALL.iter().enumerate() {
            b.add(*k, self.per_proc[p][i]);
        }
        b
    }

    /// The all-processor average breakdown (Figure 4's bars).
    pub fn avg_breakdown(&self) -> Breakdown {
        let rows: Vec<Breakdown> = (0..self.per_proc.len())
            .map(|p| self.breakdown(p))
            .collect();
        Breakdown::average(rows.iter())
    }

    /// Serializes to the cache-line schema.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("v".to_string(), Json::Int(SCHEMA_VERSION)),
            ("hash".to_string(), Json::Str(self.cell.hash())),
            ("cell".to_string(), self.cell.to_json()),
            ("total_cycles".to_string(), Json::Int(self.total_cycles)),
            (
                "per_proc".to_string(),
                Json::Arr(
                    self.per_proc
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(|&x| Json::Int(x)).collect()))
                        .collect(),
                ),
            ),
            ("activity".to_string(), fields_json(self.activity.fields())),
            ("counters".to_string(), fields_json(self.counters.fields())),
            ("verified".to_string(), Json::Bool(self.verified)),
            (
                "verify_error".to_string(),
                match &self.verify_error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
            ("host_ms".to_string(), Json::Int(self.host_ms)),
            ("attempts".to_string(), Json::Int(self.attempts)),
            (
                "threads_spawned".to_string(),
                Json::Int(self.threads_spawned),
            ),
            ("threads_reused".to_string(), Json::Int(self.threads_reused)),
        ])
    }

    /// Deserializes a cache line; rejects other schema versions.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        match v.get("v").and_then(Json::as_u64) {
            Some(SCHEMA_VERSION) => {}
            other => return Err(format!("schema version {other:?} != {SCHEMA_VERSION}")),
        }
        let cell = Cell::from_json(v.get("cell").ok_or("record missing cell")?)?;
        let per_proc = v
            .get("per_proc")
            .and_then(Json::as_arr)
            .ok_or("record missing per_proc")?
            .iter()
            .map(|row| {
                let row = row.as_arr().ok_or("per_proc row not an array")?;
                if row.len() != 6 {
                    return Err(format!("per_proc row has {} buckets", row.len()));
                }
                let mut out = [0u64; 6];
                for (i, x) in row.iter().enumerate() {
                    out[i] = x.as_u64().ok_or("per_proc bucket not a u64")?;
                }
                Ok(out)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let section = |name: &str| v.get(name).ok_or_else(|| format!("record missing {name}"));
        let mut activity = ProtoActivity::default();
        read_fields(
            section("activity")?,
            activity.fields_mut(),
            ProtoActivity::ALWAYS_RECORDED,
        )?;
        let mut counters = Counters::default();
        read_fields(
            section("counters")?,
            counters.fields_mut(),
            Counters::ALWAYS_RECORDED,
        )?;
        Ok(CellRecord {
            cell,
            total_cycles: v
                .get("total_cycles")
                .and_then(Json::as_u64)
                .ok_or("record missing total_cycles")?,
            per_proc,
            activity,
            counters,
            verified: v
                .get("verified")
                .and_then(Json::as_bool)
                .ok_or("record missing verified")?,
            verify_error: match v.get("verify_error") {
                Some(Json::Str(e)) => Some(e.clone()),
                _ => None,
            },
            host_ms: v.get("host_ms").and_then(Json::as_u64).unwrap_or(0),
            attempts: v.get("attempts").and_then(Json::as_u64).unwrap_or(1),
            threads_spawned: v.get("threads_spawned").and_then(Json::as_u64).unwrap_or(0),
            threads_reused: v.get("threads_reused").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

/// A by-name field view as a JSON object, in view order.
fn fields_json<const N: usize>(fields: [(&'static str, u64); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(name, v)| (name.to_string(), Json::Int(v)))
            .collect(),
    )
}

/// Reads `obj` into a by-name field view. The first `required` names
/// must be present; a later one that is absent keeps its value.
fn read_fields<const N: usize>(
    obj: &Json,
    fields: [(&'static str, &mut u64); N],
    required: usize,
) -> Result<(), String> {
    for (i, (name, slot)) in fields.into_iter().enumerate() {
        match obj.get(name).and_then(Json::as_u64) {
            Some(x) => *slot = x,
            None if i >= required => {}
            None => return Err(format!("record missing {name}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_apps::catalog::Scale;
    use ssm_core::{LayerConfig, Protocol};

    fn record() -> CellRecord {
        CellRecord {
            cell: Cell::new("FFT", Protocol::Hlrc, LayerConfig::base(), 2, Scale::Test),
            total_cycles: 123_456,
            per_proc: vec![[1, 2, 3, 4, 5, 6], [60, 50, 40, 30, 20, 10]],
            activity: ProtoActivity {
                handler: 9,
                diff_create: 8,
                diff_apply: 7,
                twin: 6,
                mprotect: 5,
            },
            counters: Counters {
                messages: 100,
                bytes: 1 << 40,
                ..Counters::default()
            },
            verified: false,
            verify_error: Some("sum: got 3, want \"4\"\n(line two)".to_string()),
            host_ms: 42,
            attempts: 1,
            threads_spawned: 3,
            threads_reused: 0,
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let r = record();
        let line = r.to_json().render();
        assert!(!line.contains('\n'), "cache lines must be single-line");
        let back = CellRecord::from_json(&Json::parse(&line).expect("parse")).expect("record");
        assert_eq!(back, r);
    }

    #[test]
    fn breakdown_views_match_buckets() {
        let r = record();
        assert_eq!(r.breakdown(0).total(), 21);
        assert_eq!(r.breakdown(1).get(Bucket::Busy), 60);
        assert_eq!(r.avg_breakdown().get(Bucket::Protocol), 8);
    }

    #[test]
    fn pre_fault_records_parse_with_defaults() {
        // A cache line written before the fault/retry fields existed must
        // still load: counters default to 0, attempts to 1.
        let mut j = record().to_json();
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| k != "attempts");
            for (k, v) in fields.iter_mut() {
                if k == "counters" {
                    if let Json::Obj(cs) = v {
                        cs.retain(|(ck, _)| !ck.starts_with("faults_") && ck != "retransmissions");
                        cs.retain(|(ck, _)| ck != "dup_suppressed");
                    }
                }
            }
        }
        let back = CellRecord::from_json(&j).expect("old record");
        assert_eq!(back.attempts, 1);
        assert_eq!(back.counters.retransmissions, 0);
        assert_eq!(back.counters.faults_injected(), 0);
    }

    /// [`record`] with every counter and activity field distinct and
    /// nonzero, so a name read into the wrong field changes the result.
    fn distinct_record() -> CellRecord {
        CellRecord {
            activity: ProtoActivity {
                handler: 101,
                diff_create: 102,
                diff_apply: 103,
                twin: 104,
                mprotect: 105,
            },
            counters: Counters {
                messages: 1,
                bytes: 2,
                remote_reads: 3,
                remote_writes: 4,
                fetches: 5,
                diffs: 6,
                diff_words: 7,
                twins: 8,
                write_notices: 9,
                invalidations: 10,
                lock_acquires: 11,
                barriers: 12,
                local_accesses: 13,
                auto_updates: 14,
                retransmissions: 15,
                dup_suppressed: 16,
                faults_dropped: 17,
                faults_duplicated: 18,
                faults_delayed: 19,
                faults_stalled: 20,
                handoffs: 21,
                sim_ops: 22,
                ops_batched: 23,
                flush_sync: 24,
                flush_miss: 25,
                flush_cap: 26,
                flush_end: 27,
            },
            ..record()
        }
    }

    /// The counters added after the first schema-1 records: absent ones
    /// read as 0.
    const LATER_COUNTERS: [&str; 13] = [
        "retransmissions",
        "dup_suppressed",
        "faults_dropped",
        "faults_duplicated",
        "faults_delayed",
        "faults_stalled",
        "handoffs",
        "sim_ops",
        "ops_batched",
        "flush_sync",
        "flush_miss",
        "flush_cap",
        "flush_end",
    ];

    /// `record`'s JSON with `drop(name)` counters removed.
    fn without_counters(r: &CellRecord, drop: impl Fn(&str) -> bool) -> Json {
        let mut j = r.to_json();
        if let Json::Obj(fields) = &mut j {
            for (k, v) in fields.iter_mut() {
                if let (true, Json::Obj(cs)) = (k == "counters", v) {
                    cs.retain(|(ck, _)| !drop(ck));
                }
            }
        }
        j
    }

    #[test]
    fn record_codec_is_pinned_field_by_field() {
        const PINNED: &str = r#"{"v":1,"hash":"7778b45c36420f1e","cell":{"app":"FFT","protocol":"HLRC","comm":"A","proto":"O","procs":2,"scale":"test","sc_block":null,"homes":"rr"},"total_cycles":123456,"per_proc":[[1,2,3,4,5,6],[60,50,40,30,20,10]],"activity":{"handler":101,"diff_create":102,"diff_apply":103,"twin":104,"mprotect":105},"counters":{"messages":1,"bytes":2,"remote_reads":3,"remote_writes":4,"fetches":5,"diffs":6,"diff_words":7,"twins":8,"write_notices":9,"invalidations":10,"lock_acquires":11,"barriers":12,"local_accesses":13,"auto_updates":14,"retransmissions":15,"dup_suppressed":16,"faults_dropped":17,"faults_duplicated":18,"faults_delayed":19,"faults_stalled":20,"handoffs":21,"sim_ops":22,"ops_batched":23,"flush_sync":24,"flush_miss":25,"flush_cap":26,"flush_end":27},"verified":false,"verify_error":"sum: got 3, want \"4\"\n(line two)","host_ms":42,"attempts":1,"threads_spawned":3,"threads_reused":0}"#;
        let r = distinct_record();
        let line = r.to_json().render();
        assert_eq!(line, PINNED);
        let back = CellRecord::from_json(&Json::parse(&line).expect("parse")).expect("record");
        assert_eq!(back, r);
    }

    #[test]
    fn first_schema_counters_are_required() {
        let j = without_counters(&distinct_record(), |k| k == "messages");
        let err = CellRecord::from_json(&j).expect_err("messages is required");
        assert!(err.contains("messages"), "{err}");
    }

    #[test]
    fn later_counters_read_as_zero_when_absent() {
        let r = distinct_record();
        let j = without_counters(&r, |k| LATER_COUNTERS.contains(&k));
        let back = CellRecord::from_json(&j).expect("record without later counters");
        let want = Counters {
            messages: 1,
            bytes: 2,
            remote_reads: 3,
            remote_writes: 4,
            fetches: 5,
            diffs: 6,
            diff_words: 7,
            twins: 8,
            write_notices: 9,
            invalidations: 10,
            lock_acquires: 11,
            barriers: 12,
            local_accesses: 13,
            auto_updates: 14,
            ..Counters::default()
        };
        assert_eq!(back.counters, want);
        assert_eq!(back.activity, r.activity);
    }

    #[test]
    fn future_schema_versions_are_rejected() {
        let mut j = record().to_json();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::Int(SCHEMA_VERSION + 1);
        }
        assert!(CellRecord::from_json(&j).is_err());
    }
}
