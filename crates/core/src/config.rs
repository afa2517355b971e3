//! Layer-cost presets: the paper's named communication and protocol
//! parameter sets, and the composite configurations that label every bar
//! in Figures 3 and 4.

use ssm_net::CommParams;
use ssm_proto::ProtoCosts;

/// Named communication-layer parameter sets (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommPreset {
    /// "A": achievable today (PentiumPro + Myrinet + VMMC).
    Achievable,
    /// "B": all parameterized costs zero (link latency remains).
    Best,
    /// "B+": better than best — free link, 4 bytes/cycle I/O bus.
    BetterThanBest,
    /// "H": halfway between achievable and best.
    Halfway,
    /// "W": all costs doubled relative to achievable (communication
    /// degrading against processor speed).
    Worse,
}

impl CommPreset {
    /// All presets in best-to-worst order.
    pub const ALL: [CommPreset; 5] = [
        CommPreset::BetterThanBest,
        CommPreset::Best,
        CommPreset::Halfway,
        CommPreset::Achievable,
        CommPreset::Worse,
    ];

    /// The parameter values for this preset.
    pub fn params(self) -> CommParams {
        match self {
            CommPreset::Achievable => CommParams::achievable(),
            CommPreset::Best => CommParams::best(),
            CommPreset::BetterThanBest => CommParams::better_than_best(),
            CommPreset::Halfway => CommParams::halfway(),
            CommPreset::Worse => CommParams::worse(),
        }
    }

    /// The paper's one-letter label.
    pub fn label(self) -> &'static str {
        match self {
            CommPreset::Achievable => "A",
            CommPreset::Best => "B",
            CommPreset::BetterThanBest => "B+",
            CommPreset::Halfway => "H",
            CommPreset::Worse => "W",
        }
    }

    /// Parses a preset from its paper label (`A`, `B`, `B+`, `H`, `W`).
    pub fn from_label(s: &str) -> Result<Self, String> {
        match s {
            "A" => Ok(CommPreset::Achievable),
            "B" => Ok(CommPreset::Best),
            "B+" => Ok(CommPreset::BetterThanBest),
            "H" => Ok(CommPreset::Halfway),
            "W" => Ok(CommPreset::Worse),
            other => Err(format!("unknown comm preset {other:?}")),
        }
    }
}

/// Named protocol-layer cost sets (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtoPreset {
    /// "O": the measured costs of the real implementation.
    Original,
    /// "B": all protocol actions free (idealized hardware support).
    Best,
    /// "H": halfway.
    Halfway,
}

impl ProtoPreset {
    /// All presets in best-to-worst order.
    pub const ALL: [ProtoPreset; 3] = [
        ProtoPreset::Best,
        ProtoPreset::Halfway,
        ProtoPreset::Original,
    ];

    /// The cost values for this preset.
    pub fn costs(self) -> ProtoCosts {
        match self {
            ProtoPreset::Original => ProtoCosts::original(),
            ProtoPreset::Best => ProtoCosts::best(),
            ProtoPreset::Halfway => ProtoCosts::halfway(),
        }
    }

    /// The paper's one-letter label.
    pub fn label(self) -> &'static str {
        match self {
            ProtoPreset::Original => "O",
            ProtoPreset::Best => "B",
            ProtoPreset::Halfway => "H",
        }
    }

    /// Parses a preset from its paper label (`O`, `H`, `B`).
    pub fn from_label(s: &str) -> Result<Self, String> {
        match s {
            "O" => Ok(ProtoPreset::Original),
            "H" => Ok(ProtoPreset::Halfway),
            "B" => Ok(ProtoPreset::Best),
            other => Err(format!("unknown proto preset {other:?}")),
        }
    }
}

/// The typed bundle of everything below the application in the layer
/// stack: a `<communication><protocol>` configuration labelled as in the
/// paper ("AO" is the base system, "BB" idealizes both system layers,
/// "B+B" adds the better-than-best network, "WO" degrades communication
/// 2x), plus the fault-injection setting of the network underneath.
///
/// This is the one value benchmarks hand to [`crate::SimBuilder::layers`]
/// and to the sweep cell model instead of assembling `(CommPreset,
/// ProtoPreset, FaultSpec)` tuples by hand. Construct named points with
/// [`LayerConfig::of`] or [`LayerConfig::parse`] and refine with
/// [`LayerConfig::with_faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerConfig {
    /// Communication-layer preset.
    pub comm: CommPreset,
    /// Protocol-layer preset.
    pub proto: ProtoPreset,
    /// Fault injection beneath the communication layer (off by default;
    /// excluded from [`LayerConfig::label`], which names only the paper's
    /// two-letter vocabulary).
    pub faults: FaultSpec,
}

impl LayerConfig {
    /// The base system ("AO").
    pub fn base() -> Self {
        LayerConfig::of(CommPreset::Achievable, ProtoPreset::Original)
    }

    /// The configuration at a named communication/protocol preset pair,
    /// fault-free.
    pub fn of(comm: CommPreset, proto: ProtoPreset) -> Self {
        LayerConfig {
            comm,
            proto,
            faults: FaultSpec::none(),
        }
    }

    /// Parses a paper label ("AO", "BB", "B+B", "HO", …) into the named
    /// configuration: everything but the last character is the
    /// communication preset, the last character the protocol preset.
    pub fn parse(label: &str) -> Result<Self, String> {
        if label.len() < 2 {
            return Err(format!("layer config label too short: {label:?}"));
        }
        let (comm, proto) = label.split_at(label.len() - 1);
        Ok(LayerConfig::of(
            CommPreset::from_label(comm).map_err(|e| format!("in {label:?}: {e}"))?,
            ProtoPreset::from_label(proto).map_err(|e| format!("in {label:?}: {e}"))?,
        ))
    }

    /// The same configuration with deterministic fault injection set.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// The configurations shown as bars in Figure 3, best to worst:
    /// B+B, BB, AB, BO, AO, WO. (HO/AH/HB are discussed in the text; the
    /// `grid` binary sweeps all of [`CommPreset::ALL`] x
    /// [`ProtoPreset::ALL`].)
    pub fn figure3() -> Vec<LayerConfig> {
        ["B+B", "BB", "AB", "BO", "AO", "WO"]
            .into_iter()
            .map(|l| LayerConfig::parse(l).expect("known labels"))
            .collect()
    }

    /// The paper's two-letter label ("AO", "BB", "B+B", …). Fault
    /// injection is not part of the paper's vocabulary and is excluded;
    /// see [`FaultSpec::label`].
    pub fn label(self) -> String {
        format!("{}{}", self.comm.label(), self.proto.label())
    }
}

impl Default for LayerConfig {
    fn default() -> Self {
        LayerConfig::base()
    }
}

/// A deterministic fault-injection setting: the per-class rate handed to
/// [`ssm_net::FaultPlan::uniform`] plus the schedule seed. The default
/// (`none`) injects nothing and keeps every run on the exact fault-free
/// code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Per-transmission rate of *each* fault class (drop, duplicate,
    /// delay spike, NI stall), parts per million. 0 = faults off.
    pub rate_ppm: u32,
    /// Seed of the injected-fault schedule.
    pub seed: u64,
}

impl FaultSpec {
    /// The ceiling on `rate_ppm` (the four classes share one draw).
    pub const MAX_RATE_PPM: u32 = 250_000;

    /// No faults (the default everywhere).
    pub fn none() -> Self {
        FaultSpec {
            rate_ppm: 0,
            seed: 0,
        }
    }

    /// Faults at `rate_ppm` per class with the given schedule seed.
    ///
    /// # Panics
    ///
    /// Panics if `rate_ppm` exceeds [`FaultSpec::MAX_RATE_PPM`].
    pub fn at(rate_ppm: u32, seed: u64) -> Self {
        assert!(
            rate_ppm <= Self::MAX_RATE_PPM,
            "fault rate {rate_ppm} ppm exceeds the {} ppm ceiling",
            Self::MAX_RATE_PPM
        );
        FaultSpec { rate_ppm, seed }
    }

    /// Whether this spec injects nothing.
    pub fn is_none(&self) -> bool {
        self.rate_ppm == 0
    }

    /// Display label, e.g. `f10000/s42` (or `f0`).
    pub fn label(&self) -> String {
        if self.is_none() {
            "f0".to_string()
        } else {
            format!("f{}/s{}", self.rate_ppm, self.seed)
        }
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// Which protocol runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Home-based lazy release consistency (page-grained SVM).
    Hlrc,
    /// AURC: HLRC with hardware automatic-update write propagation
    /// instead of twins/diffs (the paper's diff-elimination direction).
    Aurc,
    /// Fine/variable-grained sequentially-consistent DSM.
    Sc,
    /// Fine-grained delayed / eager-release consistency (the paper's
    /// footnote variant: "a little better than SC for most granularities
    /// smaller than a page").
    ScDelayed,
    /// One-sided RDMA / disaggregated-memory protocol: home memory served
    /// directly by the NI (no host involvement), write-back caching of
    /// remote lines with explicit invalidation, and synchronization-aware
    /// ownership handoff on lock transfer (GCS-style).
    Rdma,
    /// The idealized machine (free communication and protocol).
    Ideal,
}

impl Protocol {
    /// Every protocol, in the order the tables print them.
    pub const ALL: [Protocol; 6] = [
        Protocol::Hlrc,
        Protocol::Aurc,
        Protocol::Sc,
        Protocol::ScDelayed,
        Protocol::Rdma,
        Protocol::Ideal,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Hlrc => "HLRC",
            Protocol::Aurc => "AURC",
            Protocol::Sc => "SC",
            Protocol::ScDelayed => "SC-delayed",
            Protocol::Rdma => "RDMA",
            Protocol::Ideal => "IDEAL",
        }
    }

    /// Parses a display name back into the protocol.
    pub fn from_label(s: &str) -> Result<Self, String> {
        match s {
            "HLRC" => Ok(Protocol::Hlrc),
            "AURC" => Ok(Protocol::Aurc),
            "SC" => Ok(Protocol::Sc),
            "SC-delayed" => Ok(Protocol::ScDelayed),
            "RDMA" => Ok(Protocol::Rdma),
            "IDEAL" => Ok(Protocol::Ideal),
            other => Err(format!("unknown protocol {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(LayerConfig::base().label(), "AO");
        let f3: Vec<String> = LayerConfig::figure3().iter().map(|c| c.label()).collect();
        assert_eq!(f3, vec!["B+B", "BB", "AB", "BO", "AO", "WO"]);
    }

    #[test]
    fn presets_resolve() {
        assert_eq!(CommPreset::Best.params().host_overhead, 0);
        assert_eq!(ProtoPreset::Halfway.costs().handler_base, 50);
        assert_eq!(Protocol::Hlrc.label(), "HLRC");
    }

    #[test]
    fn labels_round_trip() {
        for comm in CommPreset::ALL {
            assert_eq!(CommPreset::from_label(comm.label()), Ok(comm));
        }
        for proto in ProtoPreset::ALL {
            assert_eq!(ProtoPreset::from_label(proto.label()), Ok(proto));
        }
        // Exhaustive over Protocol::ALL so a new variant that misses a
        // from_label arm fails here rather than at sweep-cache load time.
        for p in Protocol::ALL {
            assert_eq!(Protocol::from_label(p.label()), Ok(p));
        }
        assert_eq!(Protocol::from_label("RDMA"), Ok(Protocol::Rdma));
        for comm in CommPreset::ALL {
            for proto in ProtoPreset::ALL {
                let cfg = LayerConfig::of(comm, proto);
                assert_eq!(LayerConfig::parse(&cfg.label()), Ok(cfg));
            }
        }
        assert_eq!(
            LayerConfig::parse("B+B"),
            Ok(LayerConfig::of(
                CommPreset::BetterThanBest,
                ProtoPreset::Best
            ))
        );
        assert!(LayerConfig::parse("XO").is_err());
        assert!(LayerConfig::parse("A").is_err());
    }

    #[test]
    fn layer_config_carries_faults() {
        let base = LayerConfig::base();
        assert!(base.faults.is_none());
        let faulty = base.with_faults(FaultSpec::at(10_000, 42));
        assert_eq!(faulty.faults.rate_ppm, 10_000);
        // The paper's label vocabulary is unaffected by fault injection.
        assert_eq!(faulty.label(), base.label());
        assert_eq!(LayerConfig::default(), base);
    }
}
