//! The application catalog: the paper's Table 1 (applications, problem
//! sizes, Shasta instrumentation costs) plus factories that build each
//! workload at one of three scales.
//!
//! * [`Scale::Test`] — seconds-fast sizes for unit/integration tests;
//! * [`Scale::Bench`] — the default harness sizes (every committed
//!   `results/*.txt` regenerates from a cold cache in under a minute on
//!   2 vCPUs; the *shape* of the results is what the reproduction
//!   targets, per DESIGN.md);
//! * [`Scale::Full`] — the paper's own problem sizes (a cold `figure3
//!   --scale full --procs 16 --jobs 2` takes under 6 minutes on 2 vCPUs).

use ssm_proto::Workload;

use crate::barnes::Barnes;
use crate::fft::Fft;
use crate::lu::Lu;
use crate::ocean::Ocean;
use crate::radix::Radix;
use crate::raytrace::Raytrace;
use crate::volrend::Volrend;
use crate::water_nsq::WaterNsq;
use crate::water_sp::WaterSp;

/// Problem-size scale for a catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny: for tests.
    Test,
    /// Default benchmark-harness size.
    Bench,
    /// The paper's size.
    Full,
}

impl Scale {
    /// The scale's label, as `--scale` and the result records spell it.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Bench => "bench",
            Scale::Full => "full",
        }
    }

    /// Parses a scale from its label (`test`, `bench`, `full`).
    pub fn from_label(s: &str) -> Result<Self, String> {
        match s {
            "test" => Ok(Scale::Test),
            "bench" => Ok(Scale::Bench),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale {other:?} (test|bench|full)")),
        }
    }
}

/// One application in the suite (a row of Table 1).
pub struct AppSpec {
    /// Display name as the paper uses it.
    pub name: &'static str,
    /// The paper's problem size (Table 1).
    pub paper_size: &'static str,
    /// Shasta software access-control instrumentation cost, % (Table 1).
    /// Values the OCR dropped are reconstructed and flagged in DESIGN.md.
    pub instrumentation_pct: u32,
    /// The best SC coherence granularity for this application (bytes) —
    /// the paper's per-application choice (§2).
    pub sc_block: u64,
    /// Whether this entry is a restructured variant, and of which app.
    pub restructured_of: Option<&'static str>,
    make: fn(Scale) -> Box<dyn Workload>,
}

impl AppSpec {
    /// Builds the workload at the given scale.
    pub fn build(&self, scale: Scale) -> Box<dyn Workload> {
        (self.make)(scale)
    }
}

impl std::fmt::Debug for AppSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppSpec")
            .field("name", &self.name)
            .field("paper_size", &self.paper_size)
            .finish()
    }
}

/// The full suite, originals first, each restructured variant directly
/// after its original (the paper's bar-ordering convention).
pub fn suite() -> Vec<AppSpec> {
    vec![
        AppSpec {
            name: "FFT",
            paper_size: "1M points",
            instrumentation_pct: 29,
            sc_block: 4096,
            restructured_of: None,
            make: |s| {
                Box::new(match s {
                    Scale::Test => Fft::new(256),
                    Scale::Bench => Fft::new(1 << 20),
                    Scale::Full => Fft::new(1 << 20),
                })
            },
        },
        AppSpec {
            name: "LU-Contiguous",
            paper_size: "512x512 matrix",
            instrumentation_pct: 29,
            sc_block: 4096,
            restructured_of: None,
            make: |s| {
                Box::new(match s {
                    Scale::Test => Lu::new(32, 8),
                    Scale::Bench => Lu::new(256, 16),
                    Scale::Full => Lu::new(512, 16),
                })
            },
        },
        AppSpec {
            name: "Ocean-Contiguous",
            paper_size: "514x514 grid",
            instrumentation_pct: 40,
            sc_block: 1024,
            restructured_of: None,
            make: |s| {
                Box::new(match s {
                    Scale::Test => Ocean::contiguous(16, 2),
                    Scale::Bench => Ocean::contiguous(258, 4),
                    Scale::Full => Ocean::contiguous(512, 10),
                })
            },
        },
        AppSpec {
            name: "Ocean-rowwise",
            paper_size: "514x514 grid",
            instrumentation_pct: 40,
            sc_block: 1024,
            restructured_of: Some("Ocean-Contiguous"),
            make: |s| {
                Box::new(match s {
                    Scale::Test => Ocean::rowwise(16, 2),
                    Scale::Bench => Ocean::rowwise(258, 4),
                    Scale::Full => Ocean::rowwise(512, 10),
                })
            },
        },
        AppSpec {
            name: "Radix",
            paper_size: "1M keys",
            instrumentation_pct: 33,
            sc_block: 64,
            restructured_of: None,
            make: |s| {
                Box::new(match s {
                    Scale::Test => Radix::original(512),
                    Scale::Bench => Radix::original(1 << 18),
                    Scale::Full => Radix::original(1 << 20),
                })
            },
        },
        AppSpec {
            name: "Radix-Local",
            paper_size: "1M keys",
            instrumentation_pct: 33,
            sc_block: 64,
            restructured_of: Some("Radix"),
            make: |s| {
                Box::new(match s {
                    Scale::Test => Radix::local(512),
                    Scale::Bench => Radix::local(1 << 18),
                    Scale::Full => Radix::local(1 << 20),
                })
            },
        },
        AppSpec {
            name: "Barnes-original",
            paper_size: "16K particles",
            instrumentation_pct: 24,
            sc_block: 64,
            restructured_of: None,
            make: |s| {
                Box::new(match s {
                    Scale::Test => Barnes::original(32, 1),
                    Scale::Bench => Barnes::original(512, 2),
                    Scale::Full => Barnes::original(16384, 4),
                })
            },
        },
        AppSpec {
            name: "Barnes-Spatial",
            paper_size: "16K particles",
            instrumentation_pct: 24,
            sc_block: 64,
            restructured_of: Some("Barnes-original"),
            make: |s| {
                Box::new(match s {
                    Scale::Test => Barnes::spatial(32, 1),
                    Scale::Bench => Barnes::spatial(512, 2),
                    Scale::Full => Barnes::spatial(16384, 4),
                })
            },
        },
        AppSpec {
            name: "Raytrace",
            paper_size: "car scene",
            instrumentation_pct: 29,
            sc_block: 64,
            restructured_of: None,
            make: |s| {
                Box::new(match s {
                    Scale::Test => Raytrace::new(16, 24),
                    Scale::Bench => Raytrace::new(64, 256),
                    Scale::Full => Raytrace::new(256, 2048),
                })
            },
        },
        AppSpec {
            name: "Volrend",
            paper_size: "256^3 CT head",
            instrumentation_pct: 24,
            sc_block: 64,
            restructured_of: None,
            make: |s| {
                Box::new(match s {
                    Scale::Test => Volrend::original(16),
                    Scale::Bench => Volrend::original(64),
                    Scale::Full => Volrend::original(256),
                })
            },
        },
        AppSpec {
            name: "Volrend-rest",
            paper_size: "256^3 CT head",
            instrumentation_pct: 24,
            sc_block: 64,
            restructured_of: Some("Volrend"),
            make: |s| {
                Box::new(match s {
                    Scale::Test => Volrend::restructured(16),
                    Scale::Bench => Volrend::restructured(64),
                    Scale::Full => Volrend::restructured(256),
                })
            },
        },
        AppSpec {
            name: "Water-Nsquared",
            paper_size: "512 molecules",
            instrumentation_pct: 15,
            sc_block: 64,
            restructured_of: None,
            make: |s| {
                Box::new(match s {
                    Scale::Test => WaterNsq::new(16, 2),
                    Scale::Bench => WaterNsq::new(512, 2),
                    Scale::Full => WaterNsq::new(512, 3),
                })
            },
        },
        AppSpec {
            name: "Water-Spatial",
            paper_size: "512 molecules",
            instrumentation_pct: 15,
            sc_block: 64,
            restructured_of: None,
            make: |s| {
                Box::new(match s {
                    Scale::Test => WaterSp::new(32, 2),
                    Scale::Bench => WaterSp::new(512, 2),
                    Scale::Full => WaterSp::new(512, 3),
                })
            },
        },
    ]
}

/// Only the original (non-restructured) applications.
pub fn originals() -> Vec<AppSpec> {
    suite()
        .into_iter()
        .filter(|a| a.restructured_of.is_none())
        .collect()
}

/// Looks an application up by name.
pub fn by_name(name: &str) -> Option<AppSpec> {
    suite().into_iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_shape() {
        let s = suite();
        assert_eq!(s.len(), 13);
        assert_eq!(originals().len(), 9);
        // Every restructured entry points at a real original.
        for a in &s {
            if let Some(base) = a.restructured_of {
                assert!(by_name(base).is_some(), "{base} missing for {}", a.name);
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> = suite().iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn every_app_builds_and_names_itself_at_test_scale() {
        for spec in suite() {
            let w = spec.build(Scale::Test);
            assert!(!w.name().is_empty());
            assert!(w.mem_bytes() > 0);
        }
    }

    #[test]
    fn regular_apps_use_coarse_sc_blocks() {
        assert_eq!(by_name("FFT").expect("FFT").sc_block, 4096);
        assert_eq!(by_name("Ocean-Contiguous").expect("ocean").sc_block, 1024);
        assert_eq!(by_name("Barnes-original").expect("barnes").sc_block, 64);
    }
}
