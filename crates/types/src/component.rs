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
    fn display_strings() {
        assert_eq!(Domain::Memory.to_string(), "memory");
    }
}
