//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list              # show available experiments
//! repro fig3              # run one experiment, print its tables
//! repro all               # run everything
//! repro fig9 --out results/   # also write CSV series
//! repro all --trace t.jsonl   # also record a pbc-trace of the run
//! ```

use pbc_experiments::{run, EXPERIMENTS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: repro <experiment|all|list> [--out DIR] [--trace FILE]");
    eprintln!("experiments: {}", EXPERIMENTS.join(", "));
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target: Option<String> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                if i + 1 >= args.len() {
                    return usage();
                }
                out_dir = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--trace" => {
                if i + 1 >= args.len() {
                    return usage();
                }
                trace_path = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "-h" | "--help" => return usage(),
            other if target.is_none() => {
                target = Some(other.to_string());
                i += 1;
            }
            _ => return usage(),
        }
    }
    let Some(target) = target else { return usage() };

    if target == "list" {
        for e in EXPERIMENTS {
            println!("{e}");
        }
        return ExitCode::SUCCESS;
    }

    let names: Vec<&str> = if target == "all" {
        EXPERIMENTS.to_vec()
    } else {
        vec![target.as_str()]
    };

    if trace_path.is_some() {
        pbc_trace::enable();
    }

    for name in names {
        let _span = pbc_trace::span(&format!("experiment.{name}"));
        match run(name) {
            Ok(output) => {
                println!("{}", output.render());
                if let Some(dir) = &out_dir {
                    if let Err(e) = std::fs::create_dir_all(dir) {
                        eprintln!("cannot create {}: {e}", dir.display());
                        return ExitCode::FAILURE;
                    }
                    for (file, contents) in output.csv_files() {
                        let path = dir.join(file);
                        if let Err(e) = std::fs::write(&path, contents) {
                            eprintln!("cannot write {}: {e}", path.display());
                            return ExitCode::FAILURE;
                        }
                        eprintln!("wrote {}", path.display());
                    }
                }
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = trace_path {
        pbc_trace::disable();
        if let Err(e) = pbc_trace::export(&path, &pbc_trace::snapshot()) {
            eprintln!("could not write trace to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
