//! Sweep-profile persistence: CSV round-trip.
//!
//! On real hardware a sweep is hours of capped benchmark runs; persisting
//! the profile is what makes offline analysis practical.
//! The format is a plain CSV with a two-line header (metadata + columns)
//! so the files double as plotting inputs.

use crate::profile::{SweepPoint, SweepProfile};
use pbc_platform::PlatformId;
use pbc_powersim::{CpuMechanismState, GpuMechanismState, MechanismState, NodeOperatingPoint};
use pbc_types::{Bandwidth, PbcError, PowerAllocation, Result, Watts};
use std::fmt::Write as _;
use std::path::Path;

/// Serialize a profile to the CSV format.
pub fn to_csv(profile: &SweepProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# platform={} workload={} budget_w={}",
        profile.platform.slug(),
        profile.workload,
        profile.budget.value()
    );
    let _ = writeln!(
        out,
        "proc_cap_w,mem_cap_w,perf_rel,proc_power_w,mem_power_w,work_rate,bandwidth_gbps,proc_busy,mechanism,state_a,state_b,flag"
    );
    for pt in &profile.points {
        let (mech, a, b, flag) = match pt.op.mechanism {
            MechanismState::Cpu(st) => (
                "cpu",
                st.pstate as f64,
                st.duty,
                st.cap_unenforceable as u8,
            ),
            MechanismState::Gpu(st) => (
                "gpu",
                st.sm_clock as f64,
                st.mem_level as f64,
                0,
            ),
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{mech},{a},{b},{flag}",
            pt.alloc.proc.value(),
            pt.alloc.mem.value(),
            pt.op.perf_rel,
            pt.op.proc_power.value(),
            pt.op.mem_power.value(),
            pt.op.work_rate,
            pt.op.bandwidth.value(),
            pt.op.proc_busy,
        );
    }
    out
}

/// Parse a profile from the CSV format produced by [`to_csv`].
pub fn from_csv(text: &str) -> Result<SweepProfile> {
    let mut lines = text.lines();
    let meta = lines
        .next()
        .ok_or_else(|| PbcError::InvalidInput("empty profile file".into()))?;
    if !meta.starts_with('#') {
        return Err(PbcError::InvalidInput(
            "missing metadata header (expected a line starting with '#')".into(),
        ));
    }
    let mut platform = None;
    let mut workload = String::new();
    let mut budget = None;
    for field in meta.trim_start_matches('#').split_whitespace() {
        if let Some((k, v)) = field.split_once('=') {
            match k {
                "platform" => platform = PlatformId::from_slug(v),
                "workload" => workload = v.to_string(),
                "budget_w" => budget = v.parse::<f64>().ok(),
                _ => {}
            }
        }
    }
    let platform = platform
        .ok_or_else(|| PbcError::InvalidInput("unknown or missing platform in header".into()))?;
    let budget = Watts::new(
        budget.ok_or_else(|| PbcError::InvalidInput("missing budget_w in header".into()))?,
    );
    // Skip the column header line.
    let _ = lines.next();

    let mut points = Vec::new();
    for (n, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != 12 {
            return Err(PbcError::InvalidInput(format!(
                "row {}: expected 12 columns, got {}",
                n + 3,
                cells.len()
            )));
        }
        let f = |i: usize| -> Result<f64> {
            cells[i].trim().parse::<f64>().map_err(|e| {
                PbcError::InvalidInput(format!("row {}, column {}: {e}", n + 3, i + 1))
            })
        };
        let alloc = PowerAllocation::new(Watts::new(f(0)?), Watts::new(f(1)?));
        let mechanism = match cells[8].trim() {
            "cpu" => MechanismState::Cpu(CpuMechanismState {
                pstate: f(9)? as usize,
                duty: f(10)?,
                cap_unenforceable: !pbc_types::is_zero(f(11)?),
            }),
            "gpu" => MechanismState::Gpu(GpuMechanismState {
                sm_clock: f(9)? as usize,
                mem_level: f(10)? as usize,
                reclaimed: Watts::ZERO,
            }),
            other => {
                return Err(PbcError::InvalidInput(format!(
                    "row {}: unknown mechanism {other:?}",
                    n + 3
                )))
            }
        };
        points.push(SweepPoint {
            alloc,
            op: NodeOperatingPoint {
                alloc,
                perf_rel: f(2)?,
                proc_power: Watts::new(f(3)?),
                mem_power: Watts::new(f(4)?),
                work_rate: f(5)?,
                bandwidth: Bandwidth::new(f(6)?),
                proc_busy: f(7)?,
                mechanism,
            },
        });
    }
    Ok(SweepProfile {
        platform,
        workload,
        budget,
        points,
    })
}

/// Write a profile to a file.
pub fn save(profile: &SweepProfile, path: &Path) -> Result<()> {
    std::fs::write(path, to_csv(profile)).map_err(Into::into)
}

/// Read a profile from a file.
pub fn load(path: &Path) -> Result<SweepProfile> {
    let text = std::fs::read_to_string(path)?;
    from_csv(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PowerBoundedProblem;
    use crate::sweep::{sweep_budget, DEFAULT_STEP};
    use pbc_platform::presets::{ivybridge, titan_xp};
    use pbc_workloads::by_name;

    fn sample(bench: &str, gpu: bool) -> SweepProfile {
        let platform = if gpu { titan_xp() } else { ivybridge() };
        let budget = if gpu { 200.0 } else { 208.0 };
        let problem = PowerBoundedProblem::new(
            platform,
            by_name(bench).unwrap().demand,
            Watts::new(budget),
        )
        .unwrap();
        sweep_budget(&problem, DEFAULT_STEP).unwrap()
    }

    #[test]
    fn cpu_profile_roundtrip() {
        let profile = sample("sra", false);
        let csv = to_csv(&profile);
        let back = from_csv(&csv).unwrap();
        assert_eq!(back.platform, profile.platform);
        assert_eq!(back.workload, profile.workload);
        assert_eq!(back.points.len(), profile.points.len());
        for (a, b) in profile.points.iter().zip(&back.points) {
            assert!((a.op.perf_rel - b.op.perf_rel).abs() < 1e-12);
            assert!((a.op.proc_power.value() - b.op.proc_power.value()).abs() < 1e-9);
            assert_eq!(a.op.mechanism, b.op.mechanism);
        }
        // Derived statistics survive the round trip exactly.
        assert_eq!(profile.best().unwrap().alloc, back.best().unwrap().alloc);
    }

    #[test]
    fn gpu_profile_roundtrip() {
        let profile = sample("minife", true);
        let back = from_csv(&to_csv(&profile)).unwrap();
        assert_eq!(back.points.len(), profile.points.len());
        // Reclaimed watts are not persisted (set to zero), everything else
        // in the mechanism is.
        for (a, b) in profile.points.iter().zip(&back.points) {
            if let (MechanismState::Gpu(x), MechanismState::Gpu(y)) =
                (a.op.mechanism, b.op.mechanism)
            {
                assert_eq!(x.sm_clock, y.sm_clock);
                assert_eq!(x.mem_level, y.mem_level);
            } else {
                panic!("expected GPU mechanisms");
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let profile = sample("stream", false);
        let path = std::env::temp_dir().join(format!("pbc-profile-{}.csv", std::process::id()));
        save(&profile, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.points.len(), profile.points.len());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_csv("").is_err());
        assert!(from_csv("no header\na,b\n").is_err());
        assert!(from_csv("# platform=ivybridge workload=x\ncols\n1,2,3\n").is_err());
        assert!(from_csv("# platform=unknown workload=x budget_w=100\ncols\n").is_err());
        // Bad numeric cell.
        let bad = "# platform=ivybridge workload=x budget_w=100\ncols\n1,2,NOTANUMBER,4,5,6,7,8,cpu,0,1,0\n";
        assert!(from_csv(bad).is_err());
    }
}
