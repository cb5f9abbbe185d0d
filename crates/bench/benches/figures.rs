//! One bench per paper artifact: how long each table/figure takes to
//! regenerate, with a shape assertion so the bench run doubles as a
//! reproduction smoke test.

use pbc_bench::Bench;
use std::hint::black_box;

fn main() {
    let mut bench = Bench::from_env();
    for (name, experiment) in pbc_experiments::EXPERIMENTS {
        bench.run(&format!("figures/{name}"), || {
            let out = black_box(experiment)().expect("experiment runs");
            assert!(!out.tables.is_empty(), "{name} produced no tables");
            out
        });
    }
    bench.finish();
}
