//! The two power domains a cap applies to.

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
    fn display_strings() {
        assert_eq!(Domain::Memory.to_string(), "memory");
    }
}
