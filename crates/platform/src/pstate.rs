//! P-state (DVFS operating point) tables.
//!
//! A P-state pairs a core frequency with the supply voltage the part needs
//! at that frequency. RAPL's first capping mechanism is walking this table
//! downward (§3.3: "RAPL applies DVFS to adjust the processor's P-state to
//! meet the power limit"), which is what produces the paper's scenario II.

use pbc_types::Hertz;

/// One DVFS operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PState {
    /// Core clock frequency at this operating point.
    pub freq: Hertz,
    /// Supply voltage (volts) at this operating point.
    pub voltage: f64,
}

impl PState {
    /// Dynamic-power scale factor of this state relative to a reference
    /// state: `(V/V_ref)² · (f/f_ref)`, the classic CMOS `C·V²·f` model with
    /// the capacitance folded into the reference power.
    pub fn dyn_scale(&self, reference: &PState) -> f64 {
        let v = self.voltage / reference.voltage;
        let f = self.freq / reference.freq;
        v * v * f
    }

    /// Leakage-power scale factor relative to a reference state. Leakage is
    /// roughly linear in supply voltage over the small DVFS voltage range.
    pub fn leak_scale(&self, reference: &PState) -> f64 {
        self.voltage / reference.voltage
    }

    /// Speed of this state relative to a reference state (frequency ratio).
    pub fn speed(&self, reference: &PState) -> f64 {
        self.freq / reference.freq
    }
}

/// An ordered DVFS table, lowest frequency first. The highest entry is the
/// *nominal* state (turbo is excluded, as in the paper: "We don't consider
/// the turbo boost state").
#[derive(Debug, Clone, PartialEq)]
pub struct PStateTable {
    states: Vec<PState>,
}

impl PStateTable {
    /// Build a table from states; they are sorted by frequency ascending.
    ///
    /// # Panics
    /// Panics if `states` is empty or contains non-positive frequencies or
    /// voltages — a P-state table is hardware ground truth and must be
    /// well-formed at construction.
    pub fn new(mut states: Vec<PState>) -> Self {
        assert!(!states.is_empty(), "P-state table must have at least one state");
        for s in &states {
            assert!(s.freq.value() > 0.0, "non-positive P-state frequency");
            assert!(s.voltage > 0.0, "non-positive P-state voltage");
        }
        states.sort_by(|a, b| a.freq.value().total_cmp(&b.freq.value()));
        Self { states }
    }

    /// Build a table by interpolating `n` states between `(f_min, v_min)`
    /// and `(f_max, v_max)` with frequency-linear voltage — a good fit for
    /// the published voltage/frequency curves of server parts.
    pub fn linear(n: usize, f_min: Hertz, v_min: f64, f_max: Hertz, v_max: f64) -> Self {
        assert!(n >= 2, "need at least the min and max states");
        let states = (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                PState {
                    freq: f_min.lerp(f_max, t),
                    voltage: v_min + t * (v_max - v_min),
                }
            })
            .collect();
        Self::new(states)
    }

    /// Lowest-frequency state (`P_cpu,L2`'s operating point).
    pub fn lowest(&self) -> &PState {
        &self.states[0]
    }

    /// Nominal (highest non-turbo) state (`P_cpu,L1`'s operating point).
    pub fn nominal(&self) -> &PState {
        &self.states[self.states.len() - 1]
    }

    /// All states, lowest frequency first.
    pub fn states(&self) -> &[PState] {
        &self.states
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// A P-state table is never empty (checked at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The state at `index` (0 = lowest frequency).
    pub fn get(&self, index: usize) -> Option<&PState> {
        self.states.get(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PStateTable {
        PStateTable::linear(14, Hertz::from_ghz(1.2), 0.80, Hertz::from_ghz(2.5), 1.05)
    }

    #[test]
    fn linear_table_endpoints() {
        let t = table();
        assert_eq!(t.len(), 14);
        assert!((t.lowest().freq.ghz() - 1.2).abs() < 1e-12);
        assert!((t.lowest().voltage - 0.80).abs() < 1e-12);
        assert!((t.nominal().freq.ghz() - 2.5).abs() < 1e-12);
        assert!((t.nominal().voltage - 1.05).abs() < 1e-12);
    }

    #[test]
    fn states_sorted_ascending() {
        let t = PStateTable::new(vec![
            PState { freq: Hertz::from_ghz(2.0), voltage: 1.0 },
            PState { freq: Hertz::from_ghz(1.0), voltage: 0.8 },
            PState { freq: Hertz::from_ghz(1.5), voltage: 0.9 },
        ]);
        let freqs: Vec<f64> = t.states().iter().map(|s| s.freq.ghz()).collect();
        assert_eq!(freqs, vec![1.0, 1.5, 2.0]);
        let desc: Vec<f64> = t.states().iter().rev().map(|s| s.freq.ghz()).collect();
        assert_eq!(desc, vec![2.0, 1.5, 1.0]);
    }

    #[test]
    fn dyn_scale_monotone_in_state() {
        let t = table();
        let nominal = *t.nominal();
        let mut last = f64::INFINITY;
        for s in t.states().iter().rev() {
            let scale = s.dyn_scale(&nominal);
            assert!(scale <= last + 1e-12, "dyn power must fall with P-state");
            assert!(scale > 0.0);
            last = scale;
        }
        // The nominal state scales to exactly 1.
        assert!((nominal.dyn_scale(&nominal) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lowest_state_dyn_scale_value() {
        let t = table();
        let s = t.lowest().dyn_scale(t.nominal());
        // (0.8/1.05)^2 * (1.2/2.5) ≈ 0.2786
        assert!((s - 0.2786).abs() < 1e-3, "got {s}");
    }

    #[test]
    fn speed_is_frequency_ratio() {
        let t = table();
        assert!((t.lowest().speed(t.nominal()) - 0.48).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_table_panics() {
        let _ = PStateTable::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn bad_voltage_panics() {
        let _ = PStateTable::new(vec![PState { freq: Hertz::from_ghz(1.0), voltage: 0.0 }]);
    }
}
