//! Seeded fault-injection harness for the resilient run layer.
//!
//! Usage: `faultinject <mode>:<seed>` (or set `SLA_FAULT_INJECT=mode:seed`).
//! Modes: `panic` (worker panic quarantine), `corrupt` (snapshot bit flip
//! plus fresh-run fallback), `budget` (mid-run budget exhaustion). Each mode
//! runs the table5 workload, injects the failure at seed-chosen points and
//! verifies the documented degradation; the process exits 0 when the
//! resilience contract held and 1 with a one-line diagnostic when it did
//! not.

use sla_atpg::{
    AbortReason, AtpgEngine, AtpgOptions, AtpgRun, FaultStatus, LearnedData, WorkBudget,
};
use sla_circuits::{table5_circuit, Table5Config};
use sla_netlist::Netlist;
use sla_sim::{collapsed_fault_list, Fault};
use sla_snapshot::inject::{corrupt, plan_from_env, InjectMode, InjectPlan};
use sla_snapshot::{resume_or_fresh, AtpgSnapshot, SnapshotError};
use std::process::ExitCode;

/// Thread counts every injected run must agree across.
const THREADS: [usize; 2] = [1, 4];

fn main() -> ExitCode {
    // Injected panics are expected; keep their default backtrace spew out of
    // the harness output so real diagnostics stay visible.
    std::panic::set_hook(Box::new(|_| {}));

    let plan = match std::env::args().nth(1) {
        Some(spec) => match InjectPlan::parse(&spec) {
            Ok(plan) => plan,
            Err(e) => return fail(&e),
        },
        None => match plan_from_env() {
            Ok(Some(plan)) => plan,
            Ok(None) => {
                return fail("no injection requested: pass `mode:seed` or set SLA_FAULT_INJECT")
            }
            Err(e) => return fail(&e),
        },
    };

    let netlist = table5_circuit(&Table5Config::default());
    let faults = collapsed_fault_list(&netlist);
    let result = match plan.mode {
        InjectMode::WorkerPanic => check_panic(&netlist, &faults, plan),
        InjectMode::SnapshotCorrupt => check_corrupt(&netlist, &faults, plan),
        InjectMode::BudgetExhaust => check_budget(&netlist, &faults, plan),
    };
    match result {
        Ok(report) => {
            println!(
                "faultinject {plan_mode}:{seed} ok: {report}",
                plan_mode = plan.mode,
                seed = plan.seed
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!(
            "{mode}:{seed} {e}",
            mode = plan.mode,
            seed = plan.seed
        )),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("faultinject: {message}");
    ExitCode::FAILURE
}

/// Normalizes the documented thread-variant fields so runs can be compared
/// bit-for-bit.
fn canonical(mut run: AtpgRun) -> AtpgRun {
    run.stats.cpu = std::time::Duration::ZERO;
    run.stats.wasted_speculations = 0;
    run
}

fn run_with(
    netlist: &Netlist,
    faults: &[Fault],
    config: AtpgOptions,
    panic_at: Option<usize>,
    threads: usize,
) -> Result<AtpgRun, String> {
    let mut engine =
        AtpgEngine::new(netlist, config).map_err(|e| format!("engine build failed: {e}"))?;
    if let Some(idx) = panic_at {
        engine = engine.with_panic_at(idx);
    }
    Ok(canonical(engine.run_with_threads(faults, threads)))
}

/// A panicking speculative fault search must poison only its own fault, be
/// recorded in strict fault order, and leave every thread count with the
/// identical run.
fn check_panic(netlist: &Netlist, faults: &[Fault], plan: InjectPlan) -> Result<String, String> {
    let target = plan.pick(faults.len());
    // Fault dropping could classify the target from an earlier test before
    // its own search runs, in which case the injected panic never fires;
    // disable it so every seed actually exercises the quarantine.
    let config = AtpgOptions::builder().fault_dropping(false).build();
    let mut runs = Vec::new();
    for threads in THREADS {
        runs.push(run_with(netlist, faults, config, Some(target), threads)?);
    }
    if runs[1] != runs[0] {
        return Err("panicked runs differ across thread counts".to_string());
    }
    let run = &runs[0];
    if run.status[target] != FaultStatus::Aborted(AbortReason::Panic) {
        return Err(format!(
            "fault {target} should be Aborted(Panic), got {:?}",
            run.status[target]
        ));
    }
    if run.panics.len() != 1 || run.panics[0].0 != target {
        return Err(format!(
            "expected exactly one panic at {target}, got {:?}",
            run.panics
        ));
    }
    let others = run
        .status
        .iter()
        .enumerate()
        .filter(|(i, s)| *i != target && **s == FaultStatus::Aborted(AbortReason::Panic))
        .count();
    if others != 0 {
        return Err(format!("{others} unrelated faults were poisoned"));
    }
    Ok(format!(
        "panic at fault {target} quarantined, other {n} faults classified",
        n = faults.len() - 1
    ))
}

/// A bit-flipped snapshot must fail decoding with a typed error and
/// `resume_or_fresh` must fall back to a run identical to a fresh one.
fn check_corrupt(netlist: &Netlist, faults: &[Fault], plan: InjectPlan) -> Result<String, String> {
    let engine = AtpgEngine::new(netlist, AtpgOptions::default())
        .map_err(|e| format!("engine build failed: {e}"))?;
    let boundary = 1 + plan.pick(faults.len() - 1);
    let mut progress = engine.start(faults);
    engine.advance(faults, 1, &mut progress, Some(boundary));
    let mut bytes = AtpgSnapshot::capture(netlist, &engine, faults, &progress).encode();
    corrupt(&mut bytes, plan.seed);

    match AtpgSnapshot::decode(&bytes) {
        Err(_) => {}
        Ok(_) => {
            return Err(format!(
                "bit flip (seed {}) went undetected by decode",
                plan.seed
            ))
        }
    }
    let fresh = run_with(netlist, faults, AtpgOptions::default(), None, 1)?;
    let (run, err) = resume_or_fresh(
        &bytes,
        netlist,
        AtpgOptions::default(),
        &LearnedData::new(),
        faults,
        1,
    );
    let err = match err {
        Some(e) => e,
        None => return Err("fallback did not report the snapshot error".to_string()),
    };
    if matches!(err, SnapshotError::Netlist(_)) {
        return Err(format!("fallback itself failed: {err}"));
    }
    if canonical(run) != fresh {
        return Err("fallback run differs from a fresh run".to_string());
    }
    Ok(format!("snapshot at boundary {boundary} corrupted, decode rejected ({err}), fresh fallback identical"))
}

/// A budget-limited run must stop at the same classified prefix for every
/// thread count, with the unprocessed tail marked `Aborted(Budget)`.
fn check_budget(netlist: &Netlist, faults: &[Fault], plan: InjectPlan) -> Result<String, String> {
    let unlimited = run_with(netlist, faults, AtpgOptions::default(), None, 1)?;
    let total = unlimited.stats.budget_spent;
    if total == 0 {
        return Err("workload spent no budget; harness cannot exhaust it".to_string());
    }
    let units = 1 + plan.pick(total as usize) as u64;
    let config = AtpgOptions::builder()
        .budget(WorkBudget::units(units))
        .build();
    let mut runs = Vec::new();
    for threads in THREADS {
        runs.push(run_with(netlist, faults, config, None, threads)?);
    }
    if runs[1] != runs[0] {
        return Err(format!(
            "budget-limited runs differ across thread counts (units {units})"
        ));
    }
    let run = &runs[0];
    let aborted = run
        .status
        .iter()
        .filter(|s| **s == FaultStatus::Aborted(AbortReason::Budget))
        .count();
    if aborted == 0 {
        return Err(format!("budget of {units}/{total} units exhausted nothing"));
    }
    for (i, s) in run.status.iter().enumerate() {
        if *s != FaultStatus::Aborted(AbortReason::Budget) && *s != unlimited.status[i] {
            return Err(format!(
                "classified verdict {i} diverged from the unlimited run: {s:?} vs {:?}",
                unlimited.status[i]
            ));
        }
    }
    Ok(format!(
        "budget {units}/{total} units: {aborted} faults aborted, classified prefix matches unlimited run"
    ))
}
