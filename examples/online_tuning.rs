//! Online, model-free power coordination — no profiling at all.
//!
//! The `OnlineCoordinator` starts at an arbitrary split of the budget and
//! hill-climbs on the observed performance alone, exactly what a runtime
//! daemon would do on a machine it has never profiled. Watch it escape a
//! memory-starved start, cross the scenario boundaries, and settle at the
//! balance point the exhaustive oracle also finds.
//!
//! ```text
//! cargo run --example online_tuning
//! ```

use power_bounded_computing::core::OnlineCoordinator;
use power_bounded_computing::prelude::*;

fn main() -> Result<()> {
    let platform = ivybridge();
    let stream = by_name("stream").unwrap();
    let budget = Watts::new(208.0);

    // A deliberately bad start: 75% of the budget on the CPUs, memory
    // starved — deep in scenario III territory for a bandwidth benchmark.
    let start = PowerAllocation::split(budget, 0.75);
    let start_perf = solve(&platform, &stream.demand, start)?.perf_rel;
    println!(
        "STREAM on {} at {budget}: starting from {} (perf {:.3})\n",
        platform.id, start, start_perf
    );

    let mut coordinator = OnlineCoordinator::new(budget, start, Watts::ZERO);
    println!("{:>6}  {:>18}  {:>10}  {:>18}", "epoch", "tried", "perf", "best so far");
    while !coordinator.converged() && coordinator.epochs() < 100 {
        let alloc = coordinator.next_allocation();
        let op = solve(&platform, &stream.demand, alloc)?;
        coordinator.observe(&op);
        println!(
            "{:>6}  {:>18}  {:>10.3}  {:>18}",
            coordinator.epochs(),
            format!("({:.0}, {:.0})", alloc.proc.value(), alloc.mem.value()),
            op.perf_rel,
            format!(
                "({:.0}, {:.0})",
                coordinator.best().proc.value(),
                coordinator.best().mem.value()
            ),
        );
    }

    let final_perf = solve(&platform, &stream.demand, coordinator.best())?.perf_rel;
    let problem = PowerBoundedProblem::new(platform.clone(), stream.demand.clone(), budget)?;
    let best = oracle(&problem, DEFAULT_STEP)?;
    println!(
        "\nconverged in {} epochs at {} (perf {:.3})",
        coordinator.epochs(),
        coordinator.best(),
        final_perf
    );
    println!(
        "exhaustive oracle: {} (perf {:.3}) — online reached {:.1}% of it with zero profiling",
        best.alloc,
        best.op.perf_rel,
        100.0 * final_perf / best.op.perf_rel
    );
    Ok(())
}
