//! End-to-end measurement: fresh `generate` -> `System::new` ->
//! `run_to_completion` reps with tracing off, each one checked against
//! an independent reference.

use crate::env::{cpu_seconds, peak_rss_mb, CpuSet};
use crate::stats::{summarize, Summary};
use crate::workloads::WorkloadSpec;
use darco_core::{Report, System};
use darco_guest::{CpuState, ExecCtx};
use darco_workloads::{generate, BenchProfile, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What the raw guest emulation says the program does: the reference
/// every rep is checked against. Nothing of the software layer, the
/// event bus or the timing model runs here.
pub struct Reference {
    pub guest_insts: u64,
    pub state: CpuState,
    /// Wall seconds of the emulation loop (the `guest_exec` stage).
    pub exec_s: f64,
}

/// Runs the workload on the raw guest emulator until it halts.
pub fn reference(w: &Workload) -> Reference {
    let mut mem = w.mem.clone();
    let mut cpu = w.initial.clone();
    let mut ctx = ExecCtx::new();
    let mut guest_insts = 0u64;
    let t = Instant::now();
    while !cpu.halted {
        ctx.step(&mut cpu, &mut mem).expect("generated programs decode");
        guest_insts += 1;
    }
    ctx.force_flags(&mut cpu);
    Reference { guest_insts, state: cpu, exec_s: t.elapsed().as_secs_f64() }
}

/// Set-up as a user of the library pays it: generate the program and
/// build the system around it.
pub fn setup(spec: &WorkloadSpec, profile: &BenchProfile) -> (System, f64) {
    let t = Instant::now();
    let sys = System::new(generate(profile, 1.0), (spec.config)());
    (sys, t.elapsed().as_secs_f64())
}

/// Timings of one successful rep.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub setup_s: f64,
    pub run_wall_s: f64,
    pub cpu_s: f64,
}

/// The gate every run of a workload must pass, whichever loop produced
/// it. `first` holds the serialized report of the first run seen.
pub struct Gate<'a> {
    pub spec: &'a WorkloadSpec,
    pub reference: &'a Reference,
    pub first: Option<String>,
}

impl Gate<'_> {
    /// Checks one finished run.
    ///
    /// # Errors
    ///
    /// Names the first check that failed.
    pub fn check(&mut self, report: &Report, state: &CpuState) -> Result<(), String> {
        let r = self.reference;
        if report.guest_insts != r.guest_insts {
            return Err(format!(
                "retired {} guest instructions, reference retired {}",
                report.guest_insts, r.guest_insts
            ));
        }
        if !state.arch_eq(&r.state) {
            return Err(format!("final state {state} differs from reference {}", r.state));
        }
        if (self.spec.config)().cosim && report.cosim_checks == 0 {
            return Err("co-simulation was on but checked nothing".to_owned());
        }
        let json = serde_json::to_string(report).expect("reports serialize");
        match &self.first {
            None => self.first = Some(json),
            Some(first) if *first != json => {
                return Err("serialized report differs from the first run's".to_owned())
            }
            Some(_) => {}
        }
        Ok(())
    }
}

/// Runs `f`, turning a panic into a failed check.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Err(format!("panicked: {msg}"))
    })
}

/// One timed rep through the program's own entry points.
pub fn rep(profile: &BenchProfile, gate: &mut Gate<'_>) -> Result<Rep, String> {
    guarded(|| {
        let (mut sys, setup_s) = setup(gate.spec, profile);
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let report = sys.run_to_completion();
        let run_wall_s = t.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        gate.check(&report, &sys.tol().emulated_state())?;
        Ok(Rep { setup_s, run_wall_s, cpu_s })
    })
}

/// Extra set-up-only passes before each timed rep. Set-up takes a
/// millisecond or so and the host's CPUs slow down for seconds to
/// minutes at a time: with many samples spread over the whole run, not a
/// burst of them at its start, some land on an undisturbed CPU.
const SETUP_PASSES_PER_REP: usize = 8;

/// The end-to-end metrics of one run, by name.
pub struct EndToEndRun {
    pub values: BTreeMap<&'static str, Summary>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Times fresh reps until `seconds` have passed and at least `min_reps`
/// were made.
///
/// Each rep is confined to one CPU, taking the allowed CPUs in turn. The
/// host slows each of its CPUs down independently, for a fraction of a
/// second to minutes at a time, so a rep that needs several of them
/// undisturbed at once hardly ever runs at full speed, while among many
/// short one-CPU reps some do (README, "Noise policy"). The program
/// sizes its worker threads from the CPUs it may use, so a confined rep
/// is the program as it runs on a one-CPU host, or as one job of a
/// `run-set --jobs N` sweep.
///
/// # Errors
///
/// Fails when every rep failed its check.
pub fn run(
    spec: &WorkloadSpec,
    profile: &BenchProfile,
    seconds: f64,
    min_reps: usize,
) -> Result<EndToEndRun, String> {
    let refr = reference(&generate(profile, 1.0));
    let mut gate = Gate { spec, reference: &refr, first: None };
    let mut setup_s = Vec::new();
    let mut reps = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0;
    let allowed = CpuSet::of_this_thread();
    let cpus = allowed.map(|set| set.cpus()).unwrap_or_default();
    let started = Instant::now();
    while attempted < min_reps || started.elapsed().as_secs_f64() < seconds {
        if !cpus.is_empty() && !CpuSet::only(cpus[attempted % cpus.len()]).confine_this_thread() {
            eprintln!("warning: could not confine rep {} to one CPU", attempted + 1);
        }
        attempted += 1;
        setup_s.extend((0..SETUP_PASSES_PER_REP).map(|_| setup(spec, profile).1));
        match rep(profile, &mut gate) {
            Ok(r) => {
                eprintln!(
                    "{} rep {attempted}: setup {:.6} s, run {:.4} s, cpu {:.2} s, {:.3} MIPS",
                    spec.name,
                    r.setup_s,
                    r.run_wall_s,
                    r.cpu_s,
                    refr.guest_insts as f64 / 1e6 / r.run_wall_s
                );
                setup_s.push(r.setup_s);
                reps.push(r);
            }
            Err(e) => {
                eprintln!("FAILED {} rep {attempted}: {e}", spec.name);
                failures.push(format!("rep {attempted}: {e}"));
            }
        }
    }
    if let Some(set) = allowed {
        set.confine_this_thread();
    }
    if reps.is_empty() {
        return Err(format!("{}: all {attempted} reps failed", spec.name));
    }
    let column = |f: &dyn Fn(&Rep) -> f64| summarize(&reps.iter().map(f).collect::<Vec<_>>());
    let minsts = refr.guest_insts as f64 / 1e6;
    let values = BTreeMap::from([
        ("setup_s", summarize(&setup_s)),
        ("guest_mips", column(&|r| minsts / r.run_wall_s)),
        ("peak_rss_mb", summarize(&[peak_rss_mb()])),
    ]);
    Ok(EndToEndRun { values, attempted: attempted as u64, failures })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, shrink_for_smoke};

    fn smoke_profile(spec: &WorkloadSpec) -> BenchProfile {
        let mut p = (spec.profile)(7);
        shrink_for_smoke(&mut p);
        p
    }

    #[test]
    fn every_workload_passes_its_own_gate() {
        for spec in &workloads::ALL {
            let p = smoke_profile(spec);
            let refr = reference(&generate(&p, 1.0));
            let mut gate = Gate { spec, reference: &refr, first: None };
            rep(&p, &mut gate).expect(spec.name);
            rep(&p, &mut gate).expect("second rep repeats the first report");
        }
    }

    #[test]
    fn gate_fails_a_rep_that_disagrees_with_the_reference() {
        let spec = &workloads::ALL[0];
        let p = smoke_profile(spec);
        let good = reference(&generate(&p, 1.0));

        let short =
            Reference { guest_insts: good.guest_insts - 1, ..reference(&generate(&p, 1.0)) };
        let err = rep(&p, &mut Gate { spec, reference: &short, first: None }).unwrap_err();
        assert!(err.contains("guest instructions"), "{err}");

        let mut state = good.state.clone();
        state.eip ^= 4;
        let moved = Reference { state, ..reference(&generate(&p, 1.0)) };
        let err = rep(&p, &mut Gate { spec, reference: &moved, first: None }).unwrap_err();
        assert!(err.contains("final state"), "{err}");
    }

    #[test]
    fn gate_fails_a_report_that_differs_from_the_first() {
        let spec = &workloads::ALL[0];
        let p = smoke_profile(spec);
        let refr = reference(&generate(&p, 1.0));
        let mut gate = Gate { spec, reference: &refr, first: Some("{}".to_owned()) };
        let err = rep(&p, &mut gate).unwrap_err();
        assert!(err.contains("differs from the first"), "{err}");
    }

    #[test]
    fn a_panic_is_a_failed_check_not_a_crash() {
        let r: Result<(), String> = guarded(|| panic!("co-simulation failed: {}", 42));
        assert_eq!(r.unwrap_err(), "panicked: co-simulation failed: 42");
    }
}
