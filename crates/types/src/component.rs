//! Component identity: what kind of hardware a power cap applies to.

use std::fmt;

/// The two power domains the paper coordinates across. Every platform has
/// exactly one processing domain and one memory domain (assumption (a)-(c)
/// of §2.2: cores and memory modules are each aggregated into one
/// power-boundable component).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// The aggregated processing component: CPU packages or GPU SMs.
    Processor,
    /// The aggregated memory component: DRAM modules or GPU global memory.
    Memory,
}

impl Domain {
    /// The other domain — useful when shifting power between the two.
    pub fn other(self) -> Self {
        match self {
            Domain::Processor => Domain::Memory,
            Domain::Memory => Domain::Processor,
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Processor => write!(f, "processor"),
            Domain::Memory => write!(f, "memory"),
        }
    }
}

/// Concrete hardware kinds, refining [`Domain`] with the technology that
/// determines the power-capping mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// Host CPU package(s), capped by RAPL's PKG domain
    /// (P-state → T-state → C-state ladder).
    CpuPackage,
    /// Host DRAM, capped by RAPL's DRAM domain (bandwidth throttling).
    Dram,
    /// GPU streaming multiprocessors, capped via clock/voltage offsets.
    GpuSm,
    /// GPU global memory (GDDR5X / HBM2), capped via memory clock offsets.
    GpuMemory,
}

impl ComponentKind {
    /// Which coordination domain this kind belongs to.
    pub fn domain(self) -> Domain {
        match self {
            ComponentKind::CpuPackage | ComponentKind::GpuSm => Domain::Processor,
            ComponentKind::Dram | ComponentKind::GpuMemory => Domain::Memory,
        }
    }

    /// True for GPU-side components. GPU components share the card-level
    /// capper that reclaims unused budget across domains (§4).
    pub fn is_gpu(self) -> bool {
        matches!(self, ComponentKind::GpuSm | ComponentKind::GpuMemory)
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentKind::CpuPackage => write!(f, "CPU package"),
            ComponentKind::Dram => write!(f, "DRAM"),
            ComponentKind::GpuSm => write!(f, "GPU SMs"),
            ComponentKind::GpuMemory => write!(f, "GPU memory"),
        }
    }
}

/// Identifier for a component instance on a node: its kind plus an index
/// (e.g. socket 0 / socket 1, or card 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId {
    /// The hardware kind.
    pub kind: ComponentKind,
    /// Instance index (socket or card number).
    pub index: u16,
}

impl ComponentId {
    /// Create an id for the `index`-th instance of `kind`.
    pub fn new(kind: ComponentKind, index: u16) -> Self {
        Self { kind, index }
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.kind, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_other_is_involutive() {
        assert_eq!(Domain::Processor.other(), Domain::Memory);
        assert_eq!(Domain::Memory.other(), Domain::Processor);
        assert_eq!(Domain::Processor.other().other(), Domain::Processor);
    }

    #[test]
    fn kind_domains() {
        assert_eq!(ComponentKind::CpuPackage.domain(), Domain::Processor);
        assert_eq!(ComponentKind::GpuSm.domain(), Domain::Processor);
        assert_eq!(ComponentKind::Dram.domain(), Domain::Memory);
        assert_eq!(ComponentKind::GpuMemory.domain(), Domain::Memory);
    }

    #[test]
    fn gpu_detection() {
        assert!(ComponentKind::GpuSm.is_gpu());
        assert!(ComponentKind::GpuMemory.is_gpu());
        assert!(!ComponentKind::CpuPackage.is_gpu());
        assert!(!ComponentKind::Dram.is_gpu());
    }

    #[test]
    fn display_strings() {
        let id = ComponentId::new(ComponentKind::CpuPackage, 1);
        assert_eq!(id.to_string(), "CPU package#1");
        assert_eq!(Domain::Memory.to_string(), "memory");
    }
}
