//! The `pbc` command-line tool — see `pbc --help`.

use std::collections::HashMap;
use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;
use std::str::FromStr;

const HELP: &str = "\
pbc — cross-component power coordination for power-bounded systems

USAGE:
  pbc platforms                         list the built-in platform models
  pbc benchmarks                        list the Table-3 workload suite
  pbc probe     -p PLATFORM -w BENCH    profile the critical power values
  pbc coord     -p PLATFORM -w BENCH -b WATTS
                                        coordinate a budget (COORD)
  pbc sweep     -p PLATFORM -w BENCH -b WATTS [--save FILE]
                                        exhaustive allocation sweep
  pbc curve     -p PLATFORM -w BENCH -b W1,W2,...
                                        shared-grid sweep over several
                                        budgets (one pooled job + memo)
  pbc scenarios -p PLATFORM -w BENCH -b WATTS
                                        sweep with scenario labels (CPU)
  pbc online    -p PLATFORM -w BENCH -b WATTS
                                        model-free online coordination
  pbc fastpath  -p PLATFORM -w BENCH -b W1,W2,...
                                        table-served allocations per
                                        budget (steady-state fast path)
  pbc corun     -p PLATFORM -w A,B -b WATTS
                                        coordinate two co-running jobs
  pbc hybrid    --host CPU --card GPU --host-bench X --gpu-bench Y
                --gpu-share F -b WATTS  coordinate a host+card node
  pbc report    -p PLATFORM -w BENCH -b WATTS
                                        markdown coordination report
  pbc chaos     -p PLATFORM -w BENCH -b WATTS [--plan NAME] [--seed N]
                [--epochs N]             run a fault plan against the
                                        online loop, print survival report
  pbc cluster   -p SPEC-FILE -b WATTS [--objective NAME] [--tenants SPEC]
                                        coordinate a fleet of nodes under
                                        one global budget: COORD vs a
                                        uniform split vs the oracle
  pbc cluster-chaos -p SPEC-FILE -b WATTS [--plan NAME] [--seed N]
                [--epochs N] [--objective NAME] [--tenants SPEC]
                                        replay a fleet fault plan with a
                                        mock RAPL tree as the cap sink,
                                        print the survival report;
                                        --objective picks throughput |
                                        max-min | weighted, --tenants
                                        co-locates name:weight[:sla]
                                        groups on every node
  pbc faults list                       list every canned fault plan
  pbc repro     EXPERIMENT|all|list [--out DIR]
                                        regenerate the paper's figures and
                                        tables (EXPERIMENTS.md); --out
                                        writes their CSV series to DIR
  pbc rapl-status                       read real RAPL domains (Linux)
  pbc serve     [--port N] [--prom-port N] [--snapshot FILE]
                                        run the coordination daemon:
                                        line protocol over TCP and stdin,
                                        one snapshot per export tick to
                                        the Prometheus endpoint and FILE;
                                        drains cleanly on stdin EOF or the
                                        `shutdown` verb (docs/SERVING.md)
  pbc serve-bench [-p PLATFORM] [-w BENCH] [--save FILE]
                                        load-test the daemon (1024
                                        sessions, 2 workers, pipeline 64,
                                        1.5 s); report queries/sec and
                                        p50/p99/p999 dispatch latency

Global options:
  --trace FILE    record spans and counters for the run and write them
                  to FILE as JSON lines (see docs/OBSERVABILITY.md)

PLATFORM: ivybridge | haswell | titan-xp | titan-v
BENCH:    see `pbc benchmarks`";

/// Remove `--trace FILE` from `argv`, returning the file when present.
/// Handled before command dispatch so every subcommand accepts it.
fn take_trace_flag(argv: &mut Vec<String>) -> Result<Option<String>, String> {
    let Some(pos) = argv.iter().position(|a| a == "--trace") else {
        return Ok(None);
    };
    if pos + 1 >= argv.len() {
        return Err("--trace needs a file path".to_string());
    }
    let path = argv.remove(pos + 1);
    argv.remove(pos);
    Ok(Some(path))
}

/// A flag's value check, run as `parse` meets it; `None` for a switch.
type Check = Option<fn(&str) -> Result<(), String>>;

/// A flag that takes any text.
const TEXT: Check = Some(|_| Ok(()));

/// Check that `v` parses as a `T`, naming the flag by `noun` if not.
fn number<T: FromStr<Err: std::fmt::Display>>(noun: &str, v: &str) -> Result<(), String> {
    v.parse::<T>().map(drop).map_err(|e| format!("bad {noun}: {e}"))
}

/// Every flag `pbc` takes: its spellings (errors name the first), the
/// key `run` reads it by, and its check, which for a number holds the
/// noun its error names and the type it must parse as.
const FLAGS: &[(&[&str], &str, Check)] = &[
    (&["-p", "--platform"], "platform", TEXT),
    (&["-w", "--workload", "--bench"], "bench", TEXT),
    (&["-b", "--budget"], "budget", Some(|v| budget_list(v).map(drop))),
    (&["--save"], "save", TEXT),
    (&["--host"], "host", TEXT),
    (&["--card"], "card", TEXT),
    (&["--host-bench"], "host-bench", TEXT),
    (&["--gpu-bench"], "gpu-bench", TEXT),
    (&["--gpu-share"], "gpu-share", Some(|v| number::<f64>("gpu share", v))),
    (&["--plan"], "plan", TEXT),
    (&["--seed"], "seed", Some(|v| number::<u64>("seed", v))),
    (&["--epochs"], "epochs", Some(|v| number::<usize>("epoch count", v))),
    (&["--objective"], "objective", TEXT),
    (&["--tenants"], "tenants", TEXT),
    (&["--port"], "port", Some(|v| number::<u16>("port", v))),
    (&["--prom-port"], "prom-port", Some(|v| number::<u16>("prom port", v))),
    (&["--snapshot"], "snapshot", TEXT),
    (&["--out"], "out", TEXT),
];

/// The wattages of one `-b` value.
fn budget_list(v: &str) -> Result<Vec<f64>, String> {
    v.split(',')
        .map(|w| w.trim().parse().map_err(|e| format!("bad budget {w:?}: {e}")))
        .collect()
}

/// "missing FLAG METAVAR" for the flag `run` reads by `key`.
fn missing(key: &str, metavar: &str) -> String {
    let flag = FLAGS.iter().find(|f| f.1 == key).map_or(key, |f| f.0[0]);
    format!("missing {flag} {metavar}")
}

/// One command line's flags by key; the last value given wins.
struct Flags<'a>(HashMap<&'static str, &'a str>);

impl<'a> Flags<'a> {
    /// Walk `args` once against [`FLAGS`], checking each value in order.
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some((_, key, check)) = FLAGS.iter().find(|f| f.0.contains(&arg.as_str())) else {
                return Err(format!("unknown argument {arg}"));
            };
            let value = match check {
                Some(_) => args.next().ok_or_else(|| format!("{arg} needs a value"))?,
                None => "",
            };
            check.map_or(Ok(()), |check| check(value))?;
            flags.insert(*key, value);
        }
        Ok(Self(flags))
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.0.get(key).copied()
    }

    /// The value of `key`, or an error naming its flag and `metavar`.
    fn req(&self, key: &str, metavar: &str) -> Result<&'a str, String> {
        self.get(key).ok_or_else(|| missing(key, metavar))
    }

    fn platform(&self) -> Result<&'a str, String> {
        self.req("platform", "PLATFORM")
    }

    fn bench(&self) -> Result<&'a str, String> {
        self.req("bench", "BENCH")
    }

    /// A number, read as the type its [`FLAGS`] check let through.
    fn num<T: FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).and_then(|v| v.parse().ok())
    }

    /// Every `-b` wattage, for the commands that take a list.
    fn budgets(&self) -> Result<Vec<f64>, String> {
        budget_list(self.req("budget", "W1,W2,...")?)
    }

    /// The `-b` wattage of a single-budget command: exactly one.
    fn budget(&self) -> Result<f64, String> {
        match self.get("budget").map(budget_list).transpose()?.as_deref() {
            Some(&[w]) => Ok(w),
            _ => Err(missing("budget", "WATTS")),
        }
    }
}

fn run(argv: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(HELP.to_string());
    };
    // Each command's body reads its flags and returns what it prints.
    let command: fn(&Flags) -> Result<String, Box<dyn std::error::Error>> = match cmd.as_str() {
        "-h" | "--help" | "help" => return Ok(HELP.to_string()),
        "platforms" => return Ok(pbc_cli::cmd_platforms()),
        "benchmarks" => return Ok(pbc_cli::cmd_benchmarks()),
        "rapl-status" => return Ok(pbc_cli::cmd_rapl_status()),
        "faults" => {
            return match rest.first().map(String::as_str) {
                Some("list") | None => Ok(pbc_cli::cmd_faults_list()),
                Some(other) => Err(format!("unknown faults subcommand {other}; try `pbc faults list`")),
            }
        }
        "repro" => {
            // The experiment comes first; flags follow it.
            let target = rest.first().map(String::as_str).filter(|t| !t.starts_with('-'));
            let out = Flags::parse(&rest[usize::from(target.is_some())..])?.get("out");
            return pbc_cli::cmd_repro(target, out).map_err(|e| e.to_string());
        }
        "probe" => |a| Ok(pbc_cli::cmd_probe(a.platform()?, a.bench()?)?),
        "coord" => |a| Ok(pbc_cli::cmd_coord(a.platform()?, a.bench()?, a.budget()?)?),
        "sweep" => |a| Ok(pbc_cli::cmd_sweep(a.platform()?, a.bench()?, a.budget()?, a.get("save"))?),
        "curve" => |a| Ok(pbc_cli::cmd_curve(a.platform()?, a.bench()?, &a.budgets()?)?),
        "scenarios" => |a| Ok(pbc_cli::cmd_scenarios(a.platform()?, a.bench()?, a.budget()?)?),
        "report" => |a| Ok(pbc_cli::cmd_report(a.platform()?, a.bench()?, a.budget()?)?),
        "corun" => |a| Ok(pbc_cli::cmd_corun(a.platform()?, a.req("bench", "A,B")?, a.budget()?)?),
        "hybrid" => |a| {
            Ok(pbc_cli::cmd_hybrid(
                a.req("host", "CPU-PLATFORM")?,
                a.req("card", "GPU-PLATFORM")?,
                a.req("host-bench", "BENCH")?,
                a.req("gpu-bench", "BENCH")?,
                a.num("gpu-share").unwrap_or(0.7),
                a.budget()?,
            )?)
        },
        "online" => |a| Ok(pbc_cli::cmd_online(a.platform()?, a.bench()?, a.budget()?)?),
        "fastpath" => |a| Ok(pbc_cli::cmd_fastpath(a.platform()?, a.bench()?, &a.budgets()?)?),
        "chaos" => |a| {
            Ok(pbc_cli::cmd_chaos(
                a.platform()?,
                a.bench()?,
                a.budget()?,
                a.get("plan").unwrap_or("everything"),
                a.num("seed").unwrap_or(42),
                a.num("epochs").unwrap_or(200),
            )?)
        },
        "cluster" => |a| {
            if ["plan", "seed", "epochs"].into_iter().any(|k| a.get(k).is_some()) {
                return Err("pbc cluster runs the static comparison only; replay a fault \
                            plan with `pbc cluster-chaos` (same --plan, --seed and --epochs)"
                    .into());
            }
            Ok(pbc_cli::cmd_cluster(
                a.req("platform", "SPEC-FILE")?,
                a.budget()?,
                a.get("objective").unwrap_or("throughput"),
                a.get("tenants"),
            )?)
        },
        "cluster-chaos" => |a| {
            Ok(pbc_cli::cmd_cluster_chaos(
                a.req("platform", "SPEC-FILE")?,
                a.budget()?,
                a.get("plan").unwrap_or("everything"),
                a.num("seed").unwrap_or(42),
                a.num("epochs").unwrap_or(0),
                a.get("objective").unwrap_or("throughput"),
                a.get("tenants"),
            )?)
        },
        "serve" => |a| Ok(run_serve(a)?),
        "serve-bench" => |a| {
            Ok(pbc_cli::cmd_serve_bench(
                a.get("platform").unwrap_or("ivybridge"),
                a.get("bench").unwrap_or("stream"),
                a.get("save"),
            )?)
        },
        other => return Err(format!("unknown command {other}\n\n{HELP}")),
    };
    command(&Flags::parse(rest)?).map_err(|e| e.to_string())
}

/// Print `text` and a newline on stdout. A closed pipe (`BrokenPipe`)
/// is the reader's choice to stop reading, not a failure.
fn emit(text: &str) -> Result<(), String> {
    match writeln!(std::io::stdout(), "{text}") {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("failed printing to stdout: {e}")),
        _ => Ok(()),
    }
}

/// The interactive daemon: TCP accept loop plus a stdin control
/// session on this thread, which runs the TCP connections' request
/// loop with stdout as its writer. The daemon drains (finish in-flight,
/// publish a final snapshot) when that session ends — stdin EOF,
/// `quit`, `shutdown`, or a failed read or write — then exits 0.
fn run_serve(a: &Flags) -> Result<String, String> {
    let engine = std::sync::Arc::new(pbc_serve::ServeEngine::new());
    let config = pbc_serve::ServerConfig {
        addr: format!("127.0.0.1:{}", a.num::<u16>("port").unwrap_or(0)),
        prom_addr: a.num::<u16>("prom-port").map(|p| format!("127.0.0.1:{p}")),
        snapshot: a.get("snapshot").map(Into::into),
        ..pbc_serve::ServerConfig::default()
    };
    let server = pbc_serve::Server::start(std::sync::Arc::clone(&engine), config)
        .map_err(|e| format!("serve: could not start: {e}"))?;
    // The TCP side serves whether or not anyone reads these lines.
    let _ = emit(&format!("listening {}", server.local_addr()));
    if let Some(prom) = server.prom_addr() {
        let _ = emit(&format!("prometheus {prom}"));
    }

    let stdin = std::io::BufReader::new(std::io::stdin());
    // Stdin reads never time out, so the session never reads its flag.
    let flag = std::sync::atomic::AtomicBool::new(false);
    pbc_serve::serve_lines(&engine, stdin, std::io::stdout(), &flag);
    let sessions = engine.session_count();
    server
        .drain()
        .map_err(|e| format!("serve: drain failed: {e}"))?;
    Ok(format!("serve: drained cleanly ({sessions} sessions)"))
}

fn main() -> ExitCode {
    let Err(msg) = traced_run() else {
        return ExitCode::SUCCESS;
    };
    eprintln!("{msg}");
    ExitCode::FAILURE
}

/// Run the command line, export the `--trace` file if one was asked
/// for, then print the command's output.
fn traced_run() -> Result<(), String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = take_trace_flag(&mut argv)?;
    if trace_path.is_some() {
        pbc_trace::enable();
    }
    let outcome = run(&argv);
    if let Some(path) = trace_path {
        pbc_trace::disable();
        pbc_trace::export(std::path::Path::new(&path), &pbc_trace::snapshot())
            .map_err(|e| format!("could not write trace to {path}: {e}"))?;
    }
    emit(&outcome?)
}
