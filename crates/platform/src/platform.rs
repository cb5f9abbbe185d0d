//! A platform ties together the component specs of one compute node (or one
//! accelerator card treated as a node, as the paper does).

use crate::cpu::CpuSpec;
use crate::dram::DramSpec;
use crate::gpu::GpuSpec;
use pbc_types::Watts;
use std::fmt;

/// Stable identifier for the four platforms of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// CPU Platform I: 2× Xeon 10-core IvyBridge, 256 GB DDR3.
    IvyBridge,
    /// CPU Platform II: 2× Xeon 12-core Haswell, 256 GB DDR4.
    Haswell,
    /// GPU Platform I: Nvidia Titan XP, 12 GB GDDR5X.
    TitanXp,
    /// GPU Platform II: Nvidia Titan V, 12 GB HBM2.
    TitanV,
}

impl PlatformId {
    /// All four paper platforms.
    pub const ALL: [PlatformId; 4] = [
        PlatformId::IvyBridge,
        PlatformId::Haswell,
        PlatformId::TitanXp,
        PlatformId::TitanV,
    ];

    /// Short lowercase name used on CLIs and in file names.
    pub fn slug(self) -> &'static str {
        match self {
            PlatformId::IvyBridge => "ivybridge",
            PlatformId::Haswell => "haswell",
            PlatformId::TitanXp => "titan-xp",
            PlatformId::TitanV => "titan-v",
        }
    }

    /// Parse from a slug (case-insensitive; accepts a few aliases).
    pub fn from_slug(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "ivybridge" | "ivy" | "ivb" => Some(PlatformId::IvyBridge),
            "haswell" | "hsw" => Some(PlatformId::Haswell),
            "titan-xp" | "titanxp" | "xp" => Some(PlatformId::TitanXp),
            "titan-v" | "titanv" | "v" => Some(PlatformId::TitanV),
            _ => None,
        }
    }

    /// Resolve a slug as [`PlatformId::from_slug`] does, or refuse it
    /// with the message every front end prints: `platform "x"; known:
    /// ivybridge, haswell, titan-xp, titan-v`.
    #[must_use = "the lookup carries either the platform or the refusal to print"]
    pub fn lookup(slug: &str) -> Result<Self, String> {
        Self::from_slug(slug).ok_or_else(|| {
            let known: Vec<&str> = Self::ALL.iter().map(|id| id.slug()).collect();
            format!("platform {slug:?}; known: {}", known.join(", "))
        })
    }

    /// Is this a GPU platform?
    pub fn is_gpu(self) -> bool {
        matches!(self, PlatformId::TitanXp | PlatformId::TitanV)
    }
}

impl fmt::Display for PlatformId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// The component composition of a node: either a host (CPU packages +
/// DRAM) or a discrete GPU card (SMs + global memory).
#[derive(Debug, Clone, PartialEq)]
pub enum NodeSpec {
    /// Host node: CPU packages and DRAM, capped independently by RAPL.
    Cpu {
        /// Aggregated CPU component.
        cpu: CpuSpec,
        /// Aggregated DRAM component.
        dram: DramSpec,
    },
    /// Discrete GPU card: SM domain and memory domain under the card-level
    /// capper.
    Gpu(GpuSpec),
}

/// A named platform with its component specification.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Identifier (Table 2 row).
    pub id: PlatformId,
    /// Human-readable description.
    pub description: String,
    /// Component composition.
    pub spec: NodeSpec,
}

impl Platform {
    /// Is this a GPU platform?
    pub fn is_gpu(&self) -> bool {
        matches!(self.spec, NodeSpec::Gpu(_))
    }

    /// The CPU spec, if this is a host platform.
    pub fn cpu(&self) -> Option<&CpuSpec> {
        match &self.spec {
            NodeSpec::Cpu { cpu, .. } => Some(cpu),
            NodeSpec::Gpu(_) => None,
        }
    }

    /// The DRAM spec, if this is a host platform.
    pub fn dram(&self) -> Option<&DramSpec> {
        match &self.spec {
            NodeSpec::Cpu { dram, .. } => Some(dram),
            NodeSpec::Gpu(_) => None,
        }
    }

    /// The GPU spec, if this is a GPU platform.
    pub fn gpu(&self) -> Option<&GpuSpec> {
        match &self.spec {
            NodeSpec::Gpu(g) => Some(g),
            NodeSpec::Cpu { .. } => None,
        }
    }

    /// Hardware floor: the node draws at least this much while running,
    /// regardless of caps.
    pub fn min_node_power(&self) -> Watts {
        match &self.spec {
            NodeSpec::Cpu { cpu, dram } => cpu.min_active_power + dram.background_power,
            NodeSpec::Gpu(g) => g.min_power(),
        }
    }

    /// Validate all component specs.
    #[must_use = "validation reports spec inconsistencies via Err"]
    pub fn validate(&self) -> Result<(), String> {
        match &self.spec {
            NodeSpec::Cpu { cpu, dram } => {
                cpu.validate()?;
                dram.validate()
            }
            NodeSpec::Gpu(g) => g.validate(),
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id, self.description)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slug_roundtrip() {
        for id in PlatformId::ALL {
            assert_eq!(PlatformId::from_slug(id.slug()), Some(id));
        }
        assert_eq!(PlatformId::from_slug("IVY"), Some(PlatformId::IvyBridge));
        assert_eq!(PlatformId::from_slug("nope"), None);
        assert_eq!(PlatformId::lookup("ivb"), Ok(PlatformId::IvyBridge));
        assert_eq!(
            PlatformId::lookup("nope"),
            Err(r#"platform "nope"; known: ivybridge, haswell, titan-xp, titan-v"#.to_string())
        );
    }

    #[test]
    fn gpu_flags() {
        assert!(!PlatformId::IvyBridge.is_gpu());
        assert!(!PlatformId::Haswell.is_gpu());
        assert!(PlatformId::TitanXp.is_gpu());
        assert!(PlatformId::TitanV.is_gpu());
    }
}
