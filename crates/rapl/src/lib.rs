//! # pbc-rapl
//!
//! A real-hardware backend: Intel RAPL through the Linux *powercap* sysfs
//! interface (`/sys/class/powercap/intel-rapl*`). This is the same
//! mechanism the paper drives ("We use the Intel's Running Average Power
//! Limit RAPL technology to cap the power for the CPU based machine",
//! §2.1), exposed by the kernel as:
//!
//! ```text
//! /sys/class/powercap/intel-rapl:0/            # package 0 domain
//!     name                                     # "package-0"
//!     energy_uj                                # cumulative energy, µJ
//!     max_energy_range_uj                      # counter wrap point
//!     constraint_0_power_limit_uw              # long-term limit, µW
//!     constraint_0_time_window_us
//!     intel-rapl:0:0/                          # subdomain (core/dram/...)
//! ```
//!
//! The crate degrades gracefully: on machines without the interface (no
//! Intel CPU, container without sysfs, missing permissions) every entry
//! point returns [`PbcError::BackendUnavailable`] and the rest of the
//! workspace keeps working against the simulator. All functions take an
//! explicit sysfs root so tests exercise the full parsing/writing logic
//! against a fixture tree.
//!
//! NVML (the GPU analogue) is deliberately *not* linked — it is outside
//! this project's approved dependency set. The coordination layer in
//! `pbc-core` is backend-agnostic; an NVML-backed implementation would
//! slot in exactly like [`RaplSysfs`] does for CPUs.

pub mod enforce;
pub mod mock;

pub use enforce::{
    current_allocation, enforce as enforce_allocation, enforce_with, EnforceReport, WRITE_ATTEMPTS,
};

use pbc_types::{check_budget, u64_from_f64, Joules, PbcError, Result, Watts};
use std::fs;
use std::path::{Path, PathBuf};

/// Default sysfs location of the powercap RAPL control type.
pub const DEFAULT_SYSFS_ROOT: &str = "/sys/class/powercap";

/// Which RAPL domain a directory represents, parsed from its `name` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainKind {
    /// Whole processor package.
    Package,
    /// Core (PP0) subdomain.
    Core,
    /// Uncore (PP1) subdomain.
    Uncore,
    /// DRAM subdomain — the paper's memory capping knob.
    Dram,
    /// Platform/psys or anything else.
    Other,
}

impl DomainKind {
    fn from_name(name: &str) -> Self {
        let n = name.trim();
        if n.starts_with("package") {
            DomainKind::Package
        } else if n == "core" {
            DomainKind::Core
        } else if n == "uncore" {
            DomainKind::Uncore
        } else if n == "dram" {
            DomainKind::Dram
        } else {
            DomainKind::Other
        }
    }
}

/// One powercap domain directory.
#[derive(Debug, Clone, PartialEq)]
pub struct RaplDomain {
    /// Directory path (`.../intel-rapl:0` or `.../intel-rapl:0:0`).
    pub path: PathBuf,
    /// Parsed `name` file.
    pub kind: DomainKind,
    /// Raw name string (e.g. `"package-0"`).
    pub name: String,
}

impl RaplDomain {
    fn read_u64(path: &Path) -> Result<u64> {
        let text = fs::read_to_string(path)
            .map_err(|e| PbcError::Io(format!("{}: {e}", path.display())))?;
        text.trim()
            .parse::<u64>()
            .map_err(|e| PbcError::Io(format!("{}: {e}", path.display())))
    }

    /// Cumulative energy since an unspecified epoch.
    #[must_use = "an unused energy reading does nothing"]
    pub fn energy(&self) -> Result<Joules> {
        let uj = Self::read_u64(&self.path.join("energy_uj"))?;
        Ok(Joules::new(uj as f64 / 1e6))
    }

    /// The long-term (constraint 0) power limit.
    #[must_use = "an unused limit reading does nothing"]
    pub fn power_limit(&self) -> Result<Watts> {
        let uw = Self::read_u64(&self.path.join("constraint_0_power_limit_uw"))?;
        Ok(Watts::new(uw as f64 / 1e6))
    }

    /// Program the long-term power limit. Requires write permission on the
    /// sysfs file (root, typically).
    #[must_use = "an unchecked cap write may have silently failed"]
    pub fn set_power_limit(&self, limit: Watts) -> Result<()> {
        check_budget("power limit", limit.value())?;
        let uw = u64_from_f64((limit.value() * 1e6).round()).ok_or_else(|| {
            PbcError::InvalidInput(format!("power limit {limit} overflows the µW register"))
        })?;
        let path = self.path.join("constraint_0_power_limit_uw");
        fs::write(&path, uw.to_string())
            .map_err(|e| PbcError::Io(format!("{}: {e}", path.display())))
    }
}

/// A discovered RAPL topology: package domains with their subdomains.
#[derive(Debug, Clone, PartialEq)]
pub struct RaplSysfs {
    /// All discovered domains, packages and subdomains alike.
    pub domains: Vec<RaplDomain>,
}

impl RaplSysfs {
    /// Discover domains under the default sysfs root.
    #[must_use = "discovery is read-only; the topology is the result"]
    pub fn discover() -> Result<Self> {
        Self::discover_at(Path::new(DEFAULT_SYSFS_ROOT))
    }

    /// Discover domains under an explicit root (tests use a fixture tree).
    #[must_use = "discovery is read-only; the topology is the result"]
    pub fn discover_at(root: &Path) -> Result<Self> {
        if !root.is_dir() {
            return Err(PbcError::BackendUnavailable(format!(
                "{} does not exist — no powercap support on this machine",
                root.display()
            )));
        }
        let mut domains = Vec::new();
        let entries = fs::read_dir(root).map_err(|e| PbcError::Io(e.to_string()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            let file_name = entry.file_name();
            let dir_name = file_name.to_string_lossy();
            if !dir_name.starts_with("intel-rapl") || dir_name == "intel-rapl" {
                continue;
            }
            let name_file = path.join("name");
            let Ok(name) = fs::read_to_string(&name_file) else {
                continue;
            };
            let name = name.trim().to_string();
            domains.push(RaplDomain { kind: DomainKind::from_name(&name), name, path });
        }
        if domains.is_empty() {
            return Err(PbcError::BackendUnavailable(format!(
                "no intel-rapl domains under {}",
                root.display()
            )));
        }
        domains.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Self { domains })
    }

    /// All package-level domains.
    pub fn packages(&self) -> impl Iterator<Item = &RaplDomain> {
        self.domains.iter().filter(|d| d.kind == DomainKind::Package)
    }

    /// All DRAM subdomains.
    pub fn dram(&self) -> impl Iterator<Item = &RaplDomain> {
        self.domains.iter().filter(|d| d.kind == DomainKind::Dram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixture sysfs tree: two packages, each with a dram child.
    fn fixture(tag: &str) -> mock::MockTree {
        mock::MockTree::new(tag, 2, 1).unwrap()
    }

    #[test]
    fn discovery_finds_packages_and_dram() {
        let rapl = fixture("rapl-discover").discover().unwrap();
        assert_eq!(rapl.domains.len(), 4);
        assert_eq!(rapl.packages().count(), 2);
        assert_eq!(rapl.dram().count(), 2);
    }

    #[test]
    fn missing_root_is_backend_unavailable() {
        let err = RaplSysfs::discover_at(Path::new("/definitely/not/here")).unwrap_err();
        assert!(matches!(err, PbcError::BackendUnavailable(_)));
    }

    #[test]
    fn empty_root_is_backend_unavailable() {
        let err = mock::MockTree::new("rapl-empty", 0, 0).unwrap().discover().unwrap_err();
        assert!(matches!(err, PbcError::BackendUnavailable(_)));
    }

    #[test]
    fn reads_energy_and_limits() {
        let tree = fixture("rapl-read");
        let rapl = tree.discover().unwrap();
        let pkg = rapl.packages().next().unwrap();
        assert!((pkg.energy().unwrap().value() - 123.456789).abs() < 1e-9);
        assert!((pkg.power_limit().unwrap().value() - 115.0).abs() < 1e-9);
    }

    #[test]
    fn writes_power_limit() {
        let tree = fixture("rapl-write");
        let rapl = tree.discover().unwrap();
        let pkg = rapl.packages().next().unwrap();
        pkg.set_power_limit(Watts::new(90.5)).unwrap();
        assert!((pkg.power_limit().unwrap().value() - 90.5).abs() < 1e-9);
        // Invalid limits are rejected before touching sysfs.
        assert!(pkg.set_power_limit(Watts::new(-5.0)).is_err());
        assert!(pkg.set_power_limit(Watts::new(0.0)).is_err());
    }

    #[test]
    fn domain_kind_parsing() {
        assert_eq!(DomainKind::from_name("package-0"), DomainKind::Package);
        assert_eq!(DomainKind::from_name("package-13"), DomainKind::Package);
        assert_eq!(DomainKind::from_name("dram"), DomainKind::Dram);
        assert_eq!(DomainKind::from_name("core"), DomainKind::Core);
        assert_eq!(DomainKind::from_name("uncore"), DomainKind::Uncore);
        assert_eq!(DomainKind::from_name("psys"), DomainKind::Other);
    }
}
