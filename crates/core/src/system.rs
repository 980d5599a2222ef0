//! The DARCO system driver: software layer + authoritative emulator +
//! timing pipelines, run in lockstep.

use crate::checker::StateChecker;
use crate::sinks::{CheckerSink, SinkSet, TimingSink};
use darco_host::{HostEvent, HostEventSink, TraceStats, TraceStatsSink};
use darco_timing::{Stats, TimingConfig};
use darco_tol::{RunSummary, Tol, TolConfig};
use darco_workloads::{generate, BenchProfile, Workload};
use serde::{Deserialize, Serialize};

/// The paper's TOL configuration with the `BB/SBth` promotion threshold
/// scaled from 10 000 to 50, matching the ~2000× scaling of dynamic
/// instruction counts relative to the paper's 4-billion-instruction runs
/// (DESIGN.md §2). `IM/BBth` stays at 5 — cold code executes an
/// *absolute* handful of times regardless of run length.
pub fn scaled_tol_config() -> TolConfig {
    TolConfig { bb_sb_threshold: 50, ..TolConfig::default() }
}

/// System configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Software-layer parameters.
    pub tol: TolConfig,
    /// Host timing parameters (shared pipeline).
    pub timing: TimingConfig,
    /// Run co-simulation (authoritative emulator + state checks). Exact
    /// but roughly doubles functional work; figure sweeps disable it
    /// after the test suite has established equivalence.
    pub cosim: bool,
    /// Attach a second pipeline fed only application instructions
    /// (the "w/o interaction" APP run of Fig. 10).
    pub app_only_pipeline: bool,
    /// Attach a third pipeline fed only TOL instructions (Fig. 8's
    /// TOL-in-isolation study and Fig. 10's TOL run).
    pub tol_only_pipeline: bool,
    /// Guest-instruction budget per engine step (dispatch granularity of
    /// co-simulation checks).
    pub step_budget: u64,
    /// Hard cap on emulated guest instructions (0 = run to completion).
    pub max_guest_insts: u64,
    /// Sample a timeline window every this many guest instructions
    /// (0 disables). Windows expose the start-up vs steady-state
    /// transition the paper insists on capturing (Sec. II-B).
    pub window_guest_insts: u64,
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig {
            tol: scaled_tol_config(),
            timing: TimingConfig::default(),
            cosim: true,
            app_only_pipeline: false,
            tol_only_pipeline: false,
            step_budget: 20_000,
            max_guest_insts: 0,
            window_guest_insts: 0,
        }
    }
}

/// One timeline window: deltas over a fixed span of guest instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Window {
    /// Guest instructions retired by the end of this window.
    pub guest_insts: u64,
    /// Host cycles spent within the window.
    pub cycles: u64,
    /// Application host instructions within the window.
    pub app_insts: u64,
    /// Software-layer host instructions within the window.
    pub tol_insts: u64,
}

impl Window {
    /// Software-layer share of the window's host instructions.
    pub fn overhead_share(&self) -> f64 {
        let t = self.app_insts + self.tol_insts;
        if t == 0 {
            0.0
        } else {
            self.tol_insts as f64 / t as f64
        }
    }
}

/// Results of one system run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Workload name.
    pub name: String,
    /// Timing results of the shared (real) pipeline.
    pub timing: Stats,
    /// Timing results of the application-only pipeline, if attached.
    pub app_only: Option<Stats>,
    /// Timing results of the TOL-only pipeline, if attached.
    pub tol_only: Option<Stats>,
    /// Software-layer summary (mode distributions, counters).
    pub tol: RunSummary,
    /// Guest instructions retired.
    pub guest_insts: u64,
    /// State-checker comparisons performed (0 when co-sim is off).
    pub cosim_checks: u64,
    /// Static guest instructions of the generated program.
    pub static_insts: u32,
    /// Timeline windows (empty unless `window_guest_insts` was set).
    pub timeline: Vec<Window>,
    /// Trace-level statistics of the host-event stream (timing-model
    /// independent).
    pub trace: TraceStats,
}

/// A complete DARCO instance for one workload.
#[derive(Debug)]
pub struct System {
    name: String,
    cfg: SystemConfig,
    tol: Tol,
    emu_mem: darco_guest::GuestMem,
    checker: Option<StateChecker>,
    static_insts: u32,
}

impl System {
    /// Builds a system for a generated workload.
    pub fn new(w: Workload, cfg: SystemConfig) -> System {
        let mut tol = Tol::new(cfg.tol.clone(), w.entry);
        tol.set_state(&w.initial);
        let checker = cfg.cosim.then(|| {
            let mut chk = StateChecker::new(w.initial.clone(), w.mem.clone());
            // The authority: a run that already pays for exactness
            // (`darco verify`) checks against the independent executor;
            // any other run keeps the micro-op executor, which the
            // interpreter shares — the checker is a third of a
            // co-simulated run (DESIGN.md §16).
            chk.set_fast_path(!cfg.tol.verify);
            chk
        });
        System { name: w.name, tol, emu_mem: w.mem, checker, static_insts: w.static_insts, cfg }
    }

    /// Convenience: generates the profile's workload at scale 1.0 and
    /// builds a system with the default configuration.
    pub fn from_profile(profile: &BenchProfile) -> System {
        System::new(generate(profile, 1.0), SystemConfig::default())
    }

    /// The software layer, for inspection after a run — e.g. the
    /// wall-clock pass timings ([`Tol::pass_nanos`]) that are
    /// deliberately kept out of the serialized [`Report`].
    pub fn tol(&self) -> &Tol {
        &self.tol
    }

    /// Runs the workload to completion (or the configured cap) and
    /// returns the report.
    ///
    /// The controller only drives the engine and emits boundary events;
    /// every observer — timing pipelines, co-simulation checker, trace
    /// statistics — consumes the host-event stream through the
    /// [`SinkSet`], on this thread.
    ///
    /// # Panics
    ///
    /// Panics on guest decode faults or co-simulation divergence — both
    /// indicate an infrastructure bug, exactly as they would in DARCO.
    pub fn run_to_completion(&mut self) -> Report {
        let cap = if self.cfg.max_guest_insts == 0 { u64::MAX } else { self.cfg.max_guest_insts };
        let mut sinks = SinkSet {
            trace: TraceStatsSink::default(),
            checker: self.checker.take().map(|chk| CheckerSink::new(self.name.clone(), chk)),
            timing: TimingSink::new(&self.cfg),
        };
        let mut total = 0u64;
        let mut last_window = 0u64;
        while !self.tol.is_done() && total < cap {
            let budget = self.cfg.step_budget.min(cap - total);
            let out = self
                .tol
                .step(&mut self.emu_mem, &mut sinks, budget)
                .unwrap_or_else(|e| panic!("{}: guest decode fault: {e}", self.name));
            total += out.guest_insts;
            if sinks.checker.is_some() {
                sinks.consume(&[HostEvent::StepBoundary {
                    guest_insts: total,
                    emulated: Box::new(self.tol.emulated_state()),
                }]);
            }
            let w = self.cfg.window_guest_insts;
            if w > 0 && total >= last_window + w {
                sinks.consume(&[HostEvent::WindowMark { guest_insts: total }]);
                last_window = total;
            }
        }
        if self.cfg.window_guest_insts > 0 && total > last_window {
            sinks.consume(&[HostEvent::WindowMark { guest_insts: total }]);
        }
        let SinkSet { trace, checker, timing } = sinks;
        self.checker = checker.map(CheckerSink::into_inner);
        if let Some(chk) = &self.checker {
            // End-of-run memory co-verification: every store the
            // translated code performed must match the authoritative
            // execution byte-for-byte.
            if let Err(addr) = chk.check_memory(&self.emu_mem) {
                panic!(
                    "{}: memory divergence at guest address {addr:#x}\n  \
                     hint: run `darco verify {}` to localize a miscompiling pass",
                    self.name, self.name
                );
            }
        }
        let (shared, app_only, tol_only, timeline) = timing.into_parts();
        Report {
            name: self.name.clone(),
            timing: shared,
            app_only,
            tol_only,
            tol: self.tol.summary(),
            guest_insts: total,
            cosim_checks: self.checker.as_ref().map_or(0, |c| c.checks()),
            static_insts: self.static_insts,
            timeline,
            trace: trace.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_host::{Component, Owner};
    use darco_workloads::suites;

    fn quick_system(cfg: SystemConfig) -> System {
        let w = generate(&suites::quicktest_profile(), 0.3);
        System::new(w, cfg)
    }

    #[test]
    fn full_run_with_cosimulation() {
        let mut sys = quick_system(SystemConfig::default());
        let r = sys.run_to_completion();
        assert!(r.guest_insts > 10_000);
        assert!(r.cosim_checks > 0, "checker must run");
        assert!(r.timing.total_cycles > 0);
        assert!(r.tol.dyn_dist.iter().sum::<u64>() == r.guest_insts);
        // TOL overhead exists but the application dominates.
        let overhead = r.timing.tol_overhead_share();
        assert!((0.01..0.95).contains(&overhead), "overhead {overhead}");
    }

    #[test]
    fn verification_puts_the_independent_executor_on_the_checking_side() {
        let authority = |cfg: SystemConfig| {
            let chk = quick_system(cfg).checker.expect("co-simulated");
            chk.steps_independently()
        };
        assert!(!authority(SystemConfig::default()), "the default run checks with ExecCtx");
        let mut verify = SystemConfig { cosim: true, ..SystemConfig::default() };
        verify.tol.verify = true;
        assert!(authority(verify), "`darco verify` checks with exec::step");
    }

    #[test]
    fn filtered_pipelines_partition_the_stream() {
        let cfg = SystemConfig {
            app_only_pipeline: true,
            tol_only_pipeline: true,
            cosim: false,
            ..SystemConfig::default()
        };
        let mut sys = quick_system(cfg);
        let r = sys.run_to_completion();
        let app = r.app_only.unwrap();
        let tol = r.tol_only.unwrap();
        assert_eq!(app.owner_insts(Owner::Tol), 0);
        assert_eq!(tol.owner_insts(Owner::App), 0);
        assert_eq!(
            app.owner_insts(Owner::App) + tol.owner_insts(Owner::Tol),
            r.timing.total_insts(),
            "filtered pipelines partition the shared stream"
        );
        // Without contention, each side finishes no slower than its
        // attributed share of the shared run.
        assert!(app.total_cycles <= r.timing.total_cycles);
        assert!(tol.total_cycles <= r.timing.total_cycles);
    }

    #[test]
    fn timeline_captures_startup_transient() {
        let cfg =
            SystemConfig { window_guest_insts: 10_000, cosim: false, ..SystemConfig::default() };
        let w = generate(&suites::quicktest_profile(), 1.0);
        let mut sys = System::new(w, cfg);
        let r = sys.run_to_completion();
        assert!(r.timeline.len() >= 5, "windows sampled: {}", r.timeline.len());
        // Window accounting is exhaustive: instruction deltas sum to the
        // run totals.
        let tol: u64 = r.timeline.iter().map(|w| w.tol_insts).sum();
        let app: u64 = r.timeline.iter().map(|w| w.app_insts).sum();
        assert_eq!(tol + app, r.timing.total_insts());
        // The start-up transient (Sec. II-B): the first window is
        // translation-dominated, the steady state is not.
        let first = r.timeline.first().unwrap().overhead_share();
        let last_quarter: Vec<_> = r.timeline.iter().skip(3 * r.timeline.len() / 4).collect();
        let steady = last_quarter.iter().map(|w| w.overhead_share()).sum::<f64>()
            / last_quarter.len() as f64;
        assert!(
            first > 2.0 * steady,
            "start-up ({first:.3}) must dwarf steady state ({steady:.3})"
        );
    }

    #[test]
    fn max_guest_insts_caps_the_run() {
        let cfg = SystemConfig { max_guest_insts: 5_000, cosim: true, ..SystemConfig::default() };
        let mut sys = quick_system(cfg);
        let r = sys.run_to_completion();
        assert!(r.guest_insts >= 5_000, "runs until the cap");
        assert!(r.guest_insts < 60_000, "stops near the cap, got {}", r.guest_insts);
    }

    #[test]
    fn component_times_cover_all_categories_eventually() {
        let mut sys = quick_system(SystemConfig { cosim: false, ..SystemConfig::default() });
        let r = sys.run_to_completion();
        for c in [Component::AppCode, Component::TolIm, Component::TolBbm, Component::TolOthers] {
            assert!(r.timing.component_insts(c) > 0, "component {c} never executed");
        }
    }
}
