//! Mock powercap sysfs trees for tests and the chaos harnesses.
//!
//! Writes a directory layout indistinguishable (to this crate's parser)
//! from `/sys/class/powercap`: one `intel-rapl:P` package directory per
//! package, each with `intel-rapl:P:D` DRAM children, all carrying the
//! same files the kernel exposes. The fixture values match a real Ivy
//! Bridge reading: 115 W constraint-0 limits, a ~262 kJ energy wrap.
//!
//! Kept in the library (not `#[cfg(test)]`) because `pbc-faults` and
//! `pbc-cluster` drive their chaos enforcement loops against one of
//! these trees — the whole transactional [`crate::enforce`] path runs
//! for real, file writes and all, with faults injected only at the
//! writer.

use crate::RaplSysfs;
use pbc_types::{PbcError, Result};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The constraint-0 power limit every mocked domain starts at, in
/// microwatts as the kernel stores it (115 W).
const DEFAULT_LIMIT_UW: u64 = 115_000_000;

/// A mock powercap tree in its own temporary directory, removed when
/// the guard drops — on every exit path, early returns and panics
/// included.
#[derive(Debug)]
pub struct MockTree {
    root: PathBuf,
}

impl MockTree {
    /// Build a tree with `packages` package domains and
    /// `dram_per_package` DRAM subdomains each, under a directory unique
    /// to this process and call (`tag` names it), so concurrent runs
    /// never share one.
    #[must_use = "dropping the guard removes the tree"]
    pub fn new(tag: &str, packages: usize, dram_per_package: usize) -> Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "pbc-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).map_err(|e| PbcError::Io(format!("{}: {e}", root.display())))?;
        // Armed before it is populated, so a failed build is removed too.
        let tree = Self { root };
        for p in 0..packages {
            write_domain(&tree.root.join(format!("intel-rapl:{p}")), &format!("package-{p}"))?;
            for d in 0..dram_per_package {
                write_domain(&tree.root.join(format!("intel-rapl:{p}:{d}")), "dram")?;
            }
        }
        Ok(tree)
    }

    /// Discover the tree's domains.
    #[must_use = "discovery is read-only; the topology is the result"]
    pub fn discover(&self) -> Result<RaplSysfs> {
        RaplSysfs::discover_at(&self.root)
    }
}

impl Drop for MockTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// One domain directory with the files the kernel exposes.
fn write_domain(dir: &Path, name: &str) -> Result<()> {
    fs::create_dir_all(dir).map_err(|e| PbcError::Io(format!("{}: {e}", dir.display())))?;
    for (file, contents) in [
        ("name", format!("{name}\n")),
        ("energy_uj", "123456789\n".to_string()),
        ("max_energy_range_uj", "262143328850\n".to_string()),
        (
            "constraint_0_power_limit_uw",
            format!("{DEFAULT_LIMIT_UW}\n"),
        ),
        ("constraint_0_time_window_us", "976\n".to_string()),
    ] {
        let p = dir.join(file);
        fs::write(&p, contents).map_err(|e| PbcError::Io(format!("{}: {e}", p.display())))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_tree_is_discoverable() {
        let tree = MockTree::new("mock-test", 2, 2).unwrap();
        let rapl = tree.discover().unwrap();
        assert_eq!(rapl.packages().count(), 2);
        assert_eq!(rapl.dram().count(), 4);
        for d in &rapl.domains {
            assert!((d.power_limit().unwrap().value() - 115.0).abs() < 1e-9);
        }
        let root = rapl.domains[0].path.parent().unwrap().to_path_buf();
        drop(tree);
        assert!(!root.exists(), "{} outlived its guard", root.display());
    }
}
