//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints one JSON result line on success. A failed check prints the
//! reason on stderr, no result, and exits nonzero.

use std::process::ExitCode;

fn main() -> ExitCode {
    // Fix the executor count of the process-wide pool (which the daemon
    // and the registries use) before anything creates it.
    std::env::set_var("PBC_THREADS", perfbench::EXECUTORS.to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    match perfbench::Args::parse(&args).and_then(|a| perfbench::run(&a)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
