//! The sweep cell model: one simulation point (application x protocol x
//! layer configuration x processors x scale) with a stable content hash.
//!
//! Every figure and table of the paper is an enumeration of cells; the
//! hash keys the on-disk result cache, so a cell re-run anywhere in the
//! repo (any binary, any sweep order) hits the same cache line.

use ssm_apps::catalog::Scale;
use ssm_core::{CommPreset, LayerConfig, ProtoPreset, Protocol};
use ssm_net::CommParams;
use ssm_proto::HomePolicy;

use crate::json::Json;

/// Achievable-preset values for the one-sided RDMA knobs. Custom comm specs
/// at these values canonicalize (and serialize) exactly as they did before
/// the knobs existed, keeping every pre-RDMA cell hash and cache line valid.
const RDMA_DEFAULTS: (u64, u64) = (250, 150);

/// The communication layer of a cell: one of the paper's named presets, or
/// explicit parameter values (Figure 5 and the ablations vary single
/// parameters off-preset).
#[derive(Debug, Clone, PartialEq)]
pub enum CommSpec {
    /// A named preset (Table 2 column).
    Preset(CommPreset),
    /// Explicit parameter values.
    Custom(CommParams),
}

impl CommSpec {
    /// The parameter values for this spec.
    pub fn params(&self) -> CommParams {
        match self {
            CommSpec::Preset(p) => p.params(),
            CommSpec::Custom(p) => p.clone(),
        }
    }

    /// Display label: the preset letter, or `custom`.
    pub fn label(&self) -> String {
        match self {
            CommSpec::Preset(p) => p.label().to_string(),
            CommSpec::Custom(_) => "custom".to_string(),
        }
    }

    /// Canonical text for hashing: presets by letter, custom by full
    /// parameter values.
    fn canonical(&self) -> String {
        match self {
            CommSpec::Preset(p) => p.label().to_string(),
            CommSpec::Custom(p) => {
                let rate = match p.io_bus_rate {
                    Some((b, c)) => format!("{b}/{c}"),
                    None => "inf".to_string(),
                };
                let mut s = format!(
                    "custom:{},{rate},{},{},{},{}",
                    p.host_overhead, p.ni_occupancy, p.msg_handling, p.link_latency, p.max_packet
                );
                // Appended only when off the achievable defaults so every
                // pre-RDMA custom cell keeps its canonical form and hash.
                if (p.rdma_occupancy, p.rdma_issue) != RDMA_DEFAULTS {
                    s.push_str(&format!(",rdma:{}/{}", p.rdma_occupancy, p.rdma_issue));
                }
                s
            }
        }
    }

    fn to_json(&self) -> Json {
        match self {
            CommSpec::Preset(p) => Json::Str(p.label().to_string()),
            CommSpec::Custom(p) => {
                let mut fields = vec![
                    ("host_overhead".to_string(), Json::Int(p.host_overhead)),
                    ("ni_occupancy".to_string(), Json::Int(p.ni_occupancy)),
                    ("msg_handling".to_string(), Json::Int(p.msg_handling)),
                    ("link_latency".to_string(), Json::Int(p.link_latency)),
                    ("max_packet".to_string(), Json::Int(p.max_packet)),
                ];
                match p.io_bus_rate {
                    Some((b, c)) => fields.push((
                        "io_bus_rate".to_string(),
                        Json::Arr(vec![Json::Int(b), Json::Int(c)]),
                    )),
                    None => fields.push(("io_bus_rate".to_string(), Json::Null)),
                }
                // Emitted only off-default, so pre-RDMA records render
                // byte-identically.
                if (p.rdma_occupancy, p.rdma_issue) != RDMA_DEFAULTS {
                    fields.push(("rdma_occupancy".to_string(), Json::Int(p.rdma_occupancy)));
                    fields.push(("rdma_issue".to_string(), Json::Int(p.rdma_issue)));
                }
                Json::Obj(fields)
            }
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        if let Some(s) = v.as_str() {
            return Ok(CommSpec::Preset(CommPreset::from_label(s)?));
        }
        let int = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("comm spec missing {key}"))
        };
        let io_bus_rate = match v.get("io_bus_rate") {
            Some(Json::Null) | None => None,
            Some(Json::Arr(pair)) if pair.len() == 2 => Some((
                pair[0].as_u64().ok_or("bad io_bus_rate")?,
                pair[1].as_u64().ok_or("bad io_bus_rate")?,
            )),
            _ => return Err("bad io_bus_rate".to_string()),
        };
        Ok(CommSpec::Custom(CommParams {
            host_overhead: int("host_overhead")?,
            io_bus_rate,
            ni_occupancy: int("ni_occupancy")?,
            msg_handling: int("msg_handling")?,
            link_latency: int("link_latency")?,
            max_packet: int("max_packet")?,
            // Absent in records written before the RDMA layer existed.
            rdma_occupancy: v
                .get("rdma_occupancy")
                .and_then(Json::as_u64)
                .unwrap_or(RDMA_DEFAULTS.0),
            rdma_issue: v
                .get("rdma_issue")
                .and_then(Json::as_u64)
                .unwrap_or(RDMA_DEFAULTS.1),
        }))
    }
}

/// One simulation point. Construct with [`Cell::new`] (or the
/// [`Cell::baseline`]/[`Cell::ideal`] shorthands) and refine with the
/// `with_*` builders.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Catalog application name.
    pub app: String,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Communication-layer parameters.
    pub comm: CommSpec,
    /// Protocol-layer cost preset.
    pub proto: ProtoPreset,
    /// Simulated processor count.
    pub procs: usize,
    /// Problem-size scale.
    pub scale: Scale,
    /// SC coherence granularity override (`None` = the application's best
    /// granularity from the catalog).
    pub sc_block: Option<u64>,
    /// Page-to-home placement policy.
    pub homes: HomePolicy,
    /// Per-class fault-injection rate, parts per million (0 = faults off;
    /// zero keeps the canonical form — and hence the hash — identical to
    /// pre-fault-injection cells).
    pub fault_rate_ppm: u32,
    /// Seed of the injected-fault schedule (ignored when the rate is 0).
    pub fault_seed: u64,
}

impl Cell {
    /// A cell at a named layer configuration (including any fault spec the
    /// configuration carries — `LayerConfig::base()` keeps faults off).
    pub fn new(
        app: &str,
        protocol: Protocol,
        cfg: LayerConfig,
        procs: usize,
        scale: Scale,
    ) -> Self {
        Cell {
            app: app.to_string(),
            protocol,
            comm: CommSpec::Preset(cfg.comm),
            proto: cfg.proto,
            procs,
            scale,
            sc_block: None,
            homes: HomePolicy::RoundRobin,
            fault_rate_ppm: cfg.faults.rate_ppm,
            fault_seed: cfg.faults.seed,
        }
    }

    /// The sequential-baseline cell for `app`: one processor on the ideal
    /// machine (the paper's speedup denominator).
    pub fn baseline(app: &str, scale: Scale) -> Self {
        Cell::ideal(app, 1, scale)
    }

    /// The ideal-machine cell at `procs` processors (the paper's topmost
    /// bar).
    pub fn ideal(app: &str, procs: usize, scale: Scale) -> Self {
        Cell::new(app, Protocol::Ideal, LayerConfig::base(), procs, scale)
    }

    /// Replaces the communication layer with explicit parameter values.
    pub fn with_comm_params(mut self, params: CommParams) -> Self {
        self.comm = CommSpec::Custom(params);
        self
    }

    /// Sets an explicit SC coherence granularity.
    pub fn with_sc_block(mut self, bytes: u64) -> Self {
        self.sc_block = Some(bytes);
        self
    }

    /// Sets the page-placement policy.
    pub fn with_homes(mut self, homes: HomePolicy) -> Self {
        self.homes = homes;
        self
    }

    /// Sets deterministic fault injection (per-class rate in ppm plus the
    /// schedule seed). Rate 0 restores the fault-free cell identity.
    pub fn with_faults(mut self, rate_ppm: u32, seed: u64) -> Self {
        self.fault_rate_ppm = rate_ppm;
        self.fault_seed = seed;
        self
    }

    /// Whether this cell injects faults (the ideal machine never sends, so
    /// its cells are always fault-free).
    pub fn has_faults(&self) -> bool {
        self.fault_rate_ppm > 0 && self.protocol != Protocol::Ideal
    }

    /// Display label, e.g. `FFT HLRC AO p16`. Whatever else sets the cell
    /// apart from its default is appended: an SC or RDMA block override
    /// (`FFT SC AO p16 256B`), first-touch homes, a custom comm layer's
    /// canonical parameters, and the fault injection rate (`f10000`).
    pub fn label(&self) -> String {
        match self.protocol {
            Protocol::Ideal => format!("{} IDEAL p{}", self.app, self.procs),
            _ => {
                let mut s = format!(
                    "{} {} {}{} p{}",
                    self.app,
                    self.protocol.label(),
                    self.comm.label(),
                    self.proto.label(),
                    self.procs
                );
                if let (Some(b), false) = (self.sc_block, self.page_based()) {
                    s.push_str(&format!(" {b}B"));
                }
                if self.homes != HomePolicy::RoundRobin {
                    s.push_str(&format!(" {}", self.homes.label()));
                }
                if let CommSpec::Custom(_) = self.comm {
                    s.push_str(&format!(" {}", self.comm.canonical()));
                }
                if self.has_faults() {
                    s.push_str(&format!(" f{}", self.fault_rate_ppm));
                }
                s
            }
        }
    }

    /// Whether the protocol is page-based, and so ignores the SC block.
    fn page_based(&self) -> bool {
        matches!(self.protocol, Protocol::Hlrc | Protocol::Aurc)
    }

    /// The canonical identity string the hash is computed over. The ideal
    /// machine ignores layer costs, granularity and placement, so those
    /// fields are normalized away — every binary's "IDEAL" cell for an
    /// application is the *same* cell, whichever sweep ran it first.
    fn canonical(&self) -> String {
        let scale = self.scale.label();
        match self.protocol {
            Protocol::Ideal => {
                format!("v1|{}|IDEAL|-|-|{}|{scale}|-|-", self.app, self.procs)
            }
            _ => {
                let block = match self.sc_block {
                    _ if self.page_based() => "-".to_string(),
                    Some(b) => b.to_string(),
                    None => "app".to_string(),
                };
                let mut s = format!(
                    "v1|{}|{}|{}|{}|{}|{scale}|{block}|{}",
                    self.app,
                    self.protocol.label(),
                    self.comm.canonical(),
                    self.proto.label(),
                    self.procs,
                    self.homes.label(),
                );
                // Appended only when nonzero so every pre-existing cache
                // line keeps its hash.
                if self.has_faults() {
                    s.push_str(&format!("|f{}:{}", self.fault_rate_ppm, self.fault_seed));
                }
                s
            }
        }
    }

    /// Stable content hash (16 hex digits, FNV-1a 64 over the canonical
    /// identity). This keys the on-disk result cache.
    pub fn hash(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.canonical().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Serializes the cell for the result record. Fault fields are emitted
    /// only when active, so fault-free records render byte-identically to
    /// the pre-fault-injection schema.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("app".to_string(), Json::Str(self.app.clone())),
            (
                "protocol".to_string(),
                Json::Str(self.protocol.label().to_string()),
            ),
            ("comm".to_string(), self.comm.to_json()),
            (
                "proto".to_string(),
                Json::Str(self.proto.label().to_string()),
            ),
            ("procs".to_string(), Json::Int(self.procs as u64)),
            (
                "scale".to_string(),
                Json::Str(self.scale.label().to_string()),
            ),
            (
                "sc_block".to_string(),
                match self.sc_block {
                    Some(b) => Json::Int(b),
                    None => Json::Null,
                },
            ),
            (
                "homes".to_string(),
                Json::Str(self.homes.label().to_string()),
            ),
        ];
        if self.has_faults() {
            fields.push((
                "fault_rate_ppm".to_string(),
                Json::Int(self.fault_rate_ppm as u64),
            ));
            fields.push(("fault_seed".to_string(), Json::Int(self.fault_seed)));
        }
        Json::Obj(fields)
    }

    /// Deserializes a cell from a result record.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let str_field = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("cell missing {key}"))
        };
        Ok(Cell {
            app: str_field("app")?.to_string(),
            protocol: Protocol::from_label(str_field("protocol")?)?,
            comm: CommSpec::from_json(v.get("comm").ok_or("cell missing comm")?)?,
            proto: ProtoPreset::from_label(str_field("proto")?)?,
            procs: v
                .get("procs")
                .and_then(Json::as_u64)
                .ok_or("cell missing procs")? as usize,
            scale: Scale::from_label(str_field("scale")?)?,
            sc_block: match v.get("sc_block") {
                Some(Json::Null) | None => None,
                Some(b) => Some(b.as_u64().ok_or("bad sc_block")?),
            },
            homes: HomePolicy::from_label(str_field("homes")?)?,
            // Absent in records written before fault injection existed.
            fault_rate_ppm: v.get("fault_rate_ppm").and_then(Json::as_u64).unwrap_or(0) as u32,
            fault_seed: v.get("fault_seed").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    fn cell() -> Cell {
        Cell::new("FFT", Protocol::Hlrc, LayerConfig::base(), 16, Scale::Bench)
    }

    #[test]
    fn hash_is_stable_across_processes() {
        // Pinned value: changing the canonical form invalidates every
        // on-disk cache, which must be a deliberate (versioned) act.
        assert_eq!(cell().hash(), cell().hash());
        assert_eq!(cell().canonical(), "v1|FFT|HLRC|A|O|16|bench|-|rr");
    }

    #[test]
    fn hash_distinguishes_every_field() {
        let base = cell();
        let variants = [
            Cell {
                app: "Radix".into(),
                ..base.clone()
            },
            Cell {
                protocol: Protocol::Sc,
                ..base.clone()
            },
            Cell {
                comm: CommSpec::Preset(CommPreset::Best),
                ..base.clone()
            },
            Cell {
                proto: ProtoPreset::Best,
                ..base.clone()
            },
            Cell {
                procs: 8,
                ..base.clone()
            },
            Cell {
                scale: Scale::Test,
                ..base.clone()
            },
            Cell {
                homes: HomePolicy::FirstTouch,
                ..base.clone()
            },
            base.clone().with_comm_params(CommParams::achievable()),
            base.clone().with_comm_params(CommParams::best()),
            Cell {
                protocol: Protocol::Sc,
                ..base.clone()
            }
            .with_sc_block(256),
            Cell {
                protocol: Protocol::Rdma,
                ..base.clone()
            }
            .with_sc_block(256),
            Cell {
                protocol: Protocol::Rdma,
                ..base.clone()
            },
            base.clone().with_faults(10_000, 42),
        ];
        let mut cells = variants.to_vec();
        cells.push(base.clone());
        let hashes: HashSet<String> = cells.iter().map(Cell::hash).collect();
        assert_eq!(hashes.len(), cells.len(), "hash collision among {cells:?}");
        // Distinct hashes print distinct labels. The scale is the one
        // exception: a sweep runs at one scale, which every table header
        // names, so labels leave it out.
        cells.retain(|c| c.scale == base.scale);
        let labels: HashSet<String> = cells.iter().map(Cell::label).collect();
        assert_eq!(
            labels.len(),
            cells.len(),
            "label collision among {labels:?}"
        );
    }

    #[test]
    fn default_labels_are_unchanged_and_overrides_are_appended() {
        assert_eq!(cell().label(), "FFT HLRC AO p16");
        assert_eq!(cell().with_sc_block(256).label(), "FFT HLRC AO p16");
        let sc = Cell {
            protocol: Protocol::Sc,
            ..cell()
        };
        assert_eq!(sc.label(), "FFT SC AO p16");
        assert_eq!(
            sc.with_sc_block(256)
                .with_homes(HomePolicy::FirstTouch)
                .with_faults(10_000, 42)
                .label(),
            "FFT SC AO p16 256B first-touch f10000"
        );
        assert_eq!(
            cell().with_comm_params(CommParams::best()).label(),
            "FFT HLRC customO p16 custom:0,1/2,0,0,20,4096,rdma:0/0"
        );
    }

    #[test]
    fn sc_block_affects_sc_but_not_hlrc() {
        let sc = Cell {
            protocol: Protocol::Sc,
            ..cell()
        };
        assert_ne!(sc.hash(), sc.clone().with_sc_block(256).hash());
        assert_ne!(
            sc.clone().with_sc_block(64).hash(),
            sc.clone().with_sc_block(256).hash()
        );
        // HLRC ignores the SC granularity, so the cache must too.
        assert_eq!(cell().hash(), cell().with_sc_block(256).hash());
    }

    #[test]
    fn ideal_cells_normalize_layer_fields() {
        let a = Cell::new("FFT", Protocol::Ideal, LayerConfig::base(), 1, Scale::Test);
        let b = Cell::new(
            "FFT",
            Protocol::Ideal,
            LayerConfig::of(CommPreset::Best, ProtoPreset::Best),
            1,
            Scale::Test,
        );
        assert_eq!(a.hash(), b.hash());
        assert_eq!(Cell::baseline("FFT", Scale::Test).hash(), a.hash());
    }

    #[test]
    fn fault_fields_extend_the_hash_only_when_active() {
        let base = cell();
        // Zero rate: same canonical form, same hash, same JSON — every
        // pre-fault cache line stays valid.
        assert_eq!(base.clone().with_faults(0, 99).hash(), base.hash());
        assert_eq!(
            base.clone().with_faults(0, 99).to_json().render(),
            base.to_json().render()
        );
        // Nonzero rate: distinct hash, and rate/seed both matter.
        let faulty = base.clone().with_faults(10_000, 42);
        assert_eq!(
            faulty.canonical(),
            "v1|FFT|HLRC|A|O|16|bench|-|rr|f10000:42"
        );
        assert_ne!(faulty.hash(), base.hash());
        assert_ne!(faulty.hash(), base.clone().with_faults(20_000, 42).hash());
        assert_ne!(faulty.hash(), base.clone().with_faults(10_000, 43).hash());
        // The ideal machine never sends, so its cells ignore fault specs.
        let ideal = Cell::ideal("FFT", 1, Scale::Test);
        assert_eq!(ideal.clone().with_faults(10_000, 42).hash(), ideal.hash());
    }

    #[test]
    fn layer_config_faults_flow_into_the_cell() {
        use ssm_core::FaultSpec;
        let via_cfg = Cell::new(
            "FFT",
            Protocol::Hlrc,
            LayerConfig::base().with_faults(FaultSpec::at(10_000, 42)),
            16,
            Scale::Bench,
        );
        assert_eq!(via_cfg, cell().with_faults(10_000, 42));
        // A fault-free config builds the exact pre-fault cell identity.
        assert_eq!(
            Cell::new("FFT", Protocol::Hlrc, LayerConfig::base(), 16, Scale::Bench).hash(),
            cell().hash()
        );
    }

    #[test]
    fn faulty_cell_round_trips_through_json() {
        let faulty = cell().with_faults(10_000, 42);
        let text = faulty.to_json().render();
        let back = Cell::from_json(&Json::parse(&text).expect("parse")).expect("cell");
        assert_eq!(back, faulty, "{text}");
        assert_eq!(back.hash(), faulty.hash());
    }

    #[test]
    fn rdma_knobs_extend_the_hash_only_when_off_default() {
        // At the achievable defaults the custom canonical form (and JSON)
        // is byte-identical to the pre-RDMA schema.
        let base = cell().with_comm_params(CommParams::achievable());
        assert!(!base.canonical().contains("rdma"));
        assert!(!base.to_json().render().contains("rdma"));
        // Off-default values extend the canonical form and hence the hash.
        let mut params = CommParams::achievable();
        params.rdma_occupancy = 500;
        params.rdma_issue = 300;
        let tuned = cell().with_comm_params(params);
        assert!(tuned.canonical().ends_with(",rdma:500/300|O|16|bench|-|rr"));
        assert_ne!(tuned.hash(), base.hash());
        // And round-trip through JSON intact.
        let text = tuned.to_json().render();
        let back = Cell::from_json(&Json::parse(&text).expect("parse")).expect("cell");
        assert_eq!(back, tuned, "{text}");
        assert_eq!(back.hash(), tuned.hash());
    }

    #[test]
    fn json_round_trip_preset_and_custom() {
        let preset = cell();
        let mut params = CommParams::achievable();
        params.io_bus_rate = None;
        let custom = Cell {
            protocol: Protocol::Sc,
            sc_block: Some(1024),
            homes: HomePolicy::FirstTouch,
            ..cell()
        }
        .with_comm_params(params);
        for c in [preset, custom] {
            let text = c.to_json().render();
            let back = Cell::from_json(&Json::parse(&text).expect("parse")).expect("cell");
            assert_eq!(back, c, "{text}");
            assert_eq!(back.hash(), c.hash());
        }
    }
}
