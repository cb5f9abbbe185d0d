//! unreached-pub negative cases: none of these may produce a finding.

// case: a pub fn that non-test code in its own file calls
pub fn critical_powers(tdp_w: f64) -> f64 {
    floor(tdp_w) * 2.0
}

fn floor(tdp_w: f64) -> f64 {
    tdp_w * 0.25
}

// case: a type named by a signature, a constant named by a body
pub struct Allocation {
    pub proc_w: f64,
}

pub const STEP_W: f64 = 4.0;

fn step(a: &mut Allocation) {
    a.proc_w += STEP_W;
}

// case: a return-position `impl Trait` is a use, not an impl header
pub struct Sample;

fn samples() -> impl Iterator<Item = Sample> {
    std::iter::once(Sample)
}

// case: restricted visibility is not a declaration
pub(crate) fn only_tests_call_this_crate_helper() -> u32 {
    7
}

// case: main is not a declaration
pub fn main() {
    step(&mut Allocation { proc_w: critical_powers(100.0) });
    samples().count();
}

// case: macro_rules! templates are not declarations
macro_rules! unit {
    ($name:ident) => {
        pub struct $name(pub f64);
        impl $name {
            pub const fn raw_value(self) -> f64 {
                self.0
            }
        }
    };
}

// case: an item kept on purpose carries the marker and its reason
// pbc-lint: allow(unreached-pub) the reference solver the tests compare against
pub fn solve_damped(x: f64) -> f64 {
    x
}

// case: pub items inside test code are not declarations
#[cfg(test)]
mod tests {
    pub fn fixture_helper() -> u32 {
        super::only_tests_call_this_crate_helper()
    }

    #[test]
    fn t() {
        assert_eq!(fixture_helper(), 7);
        assert_eq!(super::solve_damped(1.0), 1.0);
    }
}
