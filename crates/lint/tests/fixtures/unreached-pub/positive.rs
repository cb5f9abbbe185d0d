//! unreached-pub positive cases: `pub` items that only tests, a
//! re-export or an impl header name. The fixture is the whole tree.

/// A closed-form shortcut whose only caller is its own unit test.
pub fn estimate_from_spec(tdp_w: f64) -> f64 { //~ unreached-pub
    tdp_w * 0.5
}

pub struct ThermalKnob { //~ unreached-pub
    pub trip_c: f64,
}

pub const DEFAULT_LIMIT_W: f64 = 100.0; //~ unreached-pub

pub static mut LAST_READING: u64 = 0; //~ unreached-pub

pub type Celsius = f64; //~ unreached-pub

pub enum Mode { //~ unreached-pub
    Soak,
}

pub trait Merge { //~ unreached-pub
    fn merge(&mut self, other: &Self);
}

pub mod model {
    pub fn fit() -> f64 { //~ unreached-pub
        0.0
    }
}

// A re-export is not a use.
pub use model::fit;

pub struct Histogram {
    count: u64,
}

impl Histogram {
    pub const fn zero() -> Self { //~ unreached-pub
        Histogram { count: 0 }
    }
}

// An impl header does not reach the type it implements for.
impl Merge for ThermalKnob {
    fn merge(&mut self, other: &Self) {
        self.trip_c = self.trip_c.max(other.trip_c);
    }
}

fn record(h: &mut Histogram) {
    h.count += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_tests_name_these() {
        assert!(estimate_from_spec(200.0) > 0.0);
        let knob = ThermalKnob { trip_c: DEFAULT_LIMIT_W };
        let _: Celsius = knob.trip_c;
        let _ = (Mode::Soak, Histogram::zero(), fit());
    }
}
