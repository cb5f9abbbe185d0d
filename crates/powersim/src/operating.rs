//! The solver output contract: a node's steady-state operating point under
//! a given workload and cross-component power allocation.

use pbc_types::{Bandwidth, PowerAllocation, Watts};

/// Mechanism state chosen by the RAPL PKG controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuMechanismState {
    /// Selected P-state index (0 = lowest frequency).
    pub pstate: usize,
    /// T-state duty cycle in `(0, 1]`; 1.0 = no clock modulation.
    pub duty: f64,
    /// Whether the package cap was below the `P_cpu,L4` floor and is
    /// therefore not enforceable (the paper's scenario VI).
    pub cap_unenforceable: bool,
}

/// Mechanism state chosen by the GPU card capper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuMechanismState {
    /// Selected SM clock index (0 = lowest).
    pub sm_clock: usize,
    /// Selected memory clock level index (0 = lowest).
    pub mem_level: usize,
    /// Watts of unused memory allocation the card governor shifted back to
    /// the SM domain (0 when `reclaims_unused` is off).
    pub reclaimed: Watts,
}

/// Which capping mechanism produced this operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MechanismState {
    /// Host node: RAPL PKG + DRAM domains.
    Cpu(CpuMechanismState),
    /// GPU card: SM + memory clock domains under the card capper.
    Gpu(GpuMechanismState),
}

/// The steady-state result of running a workload under an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeOperatingPoint {
    /// The allocation that was applied.
    pub alloc: PowerAllocation,
    /// Throughput relative to the unconstrained run on the same platform
    /// (1.0 = no slowdown). The workload's absolute rate in its natural
    /// unit is `nominal_rate * perf_rel` (the workload crate holds the
    /// nominal rates).
    pub perf_rel: f64,
    /// Actual power drawn by the processing component.
    pub proc_power: Watts,
    /// Actual power drawn by the memory component.
    pub mem_power: Watts,
    /// Absolute work rate in GFLOP/s of workload progress (the natural
    /// units a benchmark reports in are derived from this plus
    /// `bandwidth`).
    pub work_rate: f64,
    /// Achieved memory bandwidth (raw traffic, before pattern cost).
    pub bandwidth: Bandwidth,
    /// Fraction of time the processor spends executing (vs stalled).
    pub proc_busy: f64,
    /// Mechanism state behind this point.
    pub mechanism: MechanismState,
}

impl NodeOperatingPoint {
    /// Total actual node power.
    pub fn total_power(&self) -> Watts {
        self.proc_power + self.mem_power
    }

    /// Does the actual draw respect the allocation's total? False only in
    /// the paper's scenario VI, where the processor cap fell below the
    /// hardware floor.
    // pbc-lint: allow(unreached-pub) the law the end-to-end tests assert
    pub fn respects_bound(&self) -> bool {
        self.total_power().value() <= self.alloc.total().value() + 1e-6
    }

    /// Relative performance per watt of *actual* draw.
    pub fn efficiency(&self) -> f64 {
        let p = self.total_power().value();
        if p > 0.0 {
            self.perf_rel / p
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(perf: f64, proc: f64, mem: f64, alloc: (f64, f64)) -> NodeOperatingPoint {
        NodeOperatingPoint {
            alloc: PowerAllocation::new(Watts::new(alloc.0), Watts::new(alloc.1)),
            perf_rel: perf,
            proc_power: Watts::new(proc),
            mem_power: Watts::new(mem),
            work_rate: perf * 100.0,
            bandwidth: Bandwidth::new(40.0),
            proc_busy: 0.8,
            mechanism: MechanismState::Cpu(CpuMechanismState {
                pstate: 3,
                duty: 1.0,
                cap_unenforceable: false,
            }),
        }
    }

    #[test]
    fn totals_and_waste() {
        let p = point(0.9, 100.0, 90.0, (120.0, 120.0));
        assert_eq!(p.total_power().value(), 190.0);
        assert!(p.respects_bound());
    }

    #[test]
    fn bound_violation_detected() {
        // Scenario VI shape: floor power exceeds the tiny allocation.
        let p = point(0.1, 48.0, 100.0, (30.0, 100.0));
        assert!(!p.respects_bound());
    }

    #[test]
    fn efficiency() {
        let p = point(0.5, 50.0, 50.0, (60.0, 60.0));
        assert!((p.efficiency() - 0.005).abs() < 1e-12);
    }
}
