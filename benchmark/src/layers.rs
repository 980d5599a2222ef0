//! The per-layer phase: where the host time of a run goes.
//!
//! Everything here runs the timing pipelines inline on the calling
//! thread, so a layer's time is wall time nobody else overlaps. Three
//! views per round, outside in:
//!
//! * stage `guest_exec` — the raw guest emulator alone,
//! * stage `tol_func` — the software layer alone, events discarded,
//! * the controller loop — this file's copy of
//!   `System::run_to_completion`, once with a span around every call
//!   into a layer and once with the timers compiled out; the difference
//!   between the fastest pass of each kind is the tracing overhead.
//!
//! A round ends with one rep through `System` itself, which ties the
//! inline numbers to what the default timing backend delivers.

use crate::measure::{guarded, reference, rep, Gate, Reference};
use crate::spans::{SpanTotals, Spans};
use crate::stats::median;
use crate::workloads::WorkloadSpec;
use darco_core::{CheckerSink, Report, StateChecker, SystemConfig, TimingSink};
use darco_guest::CpuState;
use darco_host::{HostEvent, HostEventSink, NullSink, Owner, TraceStatsSink};
use darco_tol::{Mode, Tol};
use darco_workloads::{generate, BenchProfile, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

const SPAN_NAMES: &[&str] = &[
    "core.run",
    "tol.step_im",
    "tol.step_bbm",
    "tol.step_sbm",
    "host.trace_consume",
    "core.checker_consume",
    "timing.consume",
    "core.boundary",
    "timing.finish",
];
const RUN: usize = 0;
const STEP: usize = 1; // + mode index
const TRACE_CONSUME: usize = 4;
const CHECKER_CONSUME: usize = 5;
const TIMING_CONSUME: usize = 6;
const BOUNDARY: usize = 7;
const FINISH: usize = 8;

/// Runs `f` inside a span; with `TIMED` off this is just `f()`.
#[inline]
fn span<const TIMED: bool, R>(spans: &mut Spans, name: usize, f: impl FnOnce() -> R) -> R {
    if TIMED {
        spans.enter();
    }
    let r = f();
    if TIMED {
        spans.exit(name);
    }
    r
}

/// The controller's observer set (`SinkSet` with the inline backend),
/// with a span around each observer.
struct Observers<const TIMED: bool> {
    spans: Spans,
    trace: TraceStatsSink,
    checker: Option<CheckerSink>,
    timing: TimingSink,
    events: u64,
}

impl<const TIMED: bool> HostEventSink for Observers<TIMED> {
    fn consume(&mut self, batch: &[HostEvent]) {
        self.events += batch.len() as u64;
        span::<TIMED, _>(&mut self.spans, TRACE_CONSUME, || self.trace.consume(batch));
        if let Some(chk) = &mut self.checker {
            span::<TIMED, _>(&mut self.spans, CHECKER_CONSUME, || chk.consume(batch));
        }
        span::<TIMED, _>(&mut self.spans, TIMING_CONSUME, || self.timing.consume(batch));
    }
}

/// One pass of the controller loop.
struct LoopRun {
    wall_s: f64,
    spans: Vec<(&'static str, SpanTotals)>,
    report: Report,
    state: CpuState,
    /// `Tol::step` calls by the mode they reported, `[IM, BBM, SBM]`.
    steps: [u64; 3],
    /// Events delivered over the bus (a macro-event counts once).
    events: u64,
    batches: u64,
}

/// `System::new` + `System::run_to_completion`, written out so that each
/// call into a layer can carry a span. The timed region is the one
/// `run_to_completion` covers.
fn controller_loop<const TIMED: bool>(w: Workload, cfg: &SystemConfig) -> Result<LoopRun, String> {
    let mut tol = Tol::new(cfg.tol.clone(), w.entry);
    tol.set_state(&w.initial);
    let mut mem = w.mem;
    let checker = cfg.cosim.then(|| {
        let mut chk = StateChecker::new(w.initial.clone(), mem.clone());
        // `System::new` switches its checker to the guest fast path
        // through private wiring; this copy has to say so itself.
        chk.set_fast_path(true);
        CheckerSink::new(w.name.clone(), chk)
    });

    let t = Instant::now();
    let mut spans = Spans::new(SPAN_NAMES);
    if TIMED {
        spans.enter();
    }
    let mut obs = Observers::<TIMED> {
        spans,
        trace: TraceStatsSink::default(),
        checker,
        timing: TimingSink::new(cfg),
        events: 0,
    };
    let mut total = 0u64;
    let mut steps = [0u64; 3];
    while !tol.is_done() {
        if TIMED {
            obs.spans.enter();
        }
        let out = tol
            .step(&mut mem, &mut obs, cfg.step_budget)
            .map_err(|e| format!("guest decode fault: {e}"))?;
        let mode = match out.mode {
            Mode::Im => 0,
            Mode::Bbm => 1,
            Mode::Sbm => 2,
        };
        if TIMED {
            obs.spans.exit(STEP + mode);
        }
        steps[mode] += 1;
        total += out.guest_insts;
        if obs.checker.is_some() {
            if TIMED {
                obs.spans.enter();
            }
            obs.consume(&[HostEvent::StepBoundary {
                guest_insts: total,
                emulated: Box::new(tol.emulated_state()),
            }]);
            if TIMED {
                obs.spans.exit(BOUNDARY);
            }
        }
    }
    let Observers { mut spans, trace, checker, timing, events } = obs;
    let (shared, app_only, tol_only, timeline) =
        span::<TIMED, _>(&mut spans, FINISH, || timing.into_parts());
    let checker = checker.map(CheckerSink::into_inner);
    if let Some(chk) = &checker {
        chk.check_memory(&mem).map_err(|a| format!("memory divergence at guest address {a:#x}"))?;
    }
    let report = Report {
        name: w.name,
        timing: shared,
        app_only,
        tol_only,
        tol: tol.summary(),
        guest_insts: total,
        cosim_checks: checker.as_ref().map_or(0, StateChecker::checks),
        static_insts: w.static_insts,
        timeline,
        trace: trace.stats,
    };
    if TIMED {
        spans.exit(RUN);
    }
    let untimed_wall_s = t.elapsed().as_secs_f64();
    let spans = spans.finish();
    Ok(LoopRun {
        // A traced pass lasts exactly as long as its root span.
        wall_s: if TIMED { spans[RUN].1.total_ns as f64 / 1e9 } else { untimed_wall_s },
        spans,
        state: tol.emulated_state(),
        report,
        steps,
        events,
        batches: trace.stats.batches,
    })
}

/// Stage `tol_func`: the software layer alone, its events discarded.
fn tol_functional(w: Workload, cfg: &SystemConfig, r: &Reference) -> Result<f64, String> {
    let mut tol = Tol::new(cfg.tol.clone(), w.entry);
    tol.set_state(&w.initial);
    let mut mem = w.mem;
    let t = Instant::now();
    let n = tol.run(&mut mem, &mut NullSink, u64::MAX).map_err(|e| format!("decode fault: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if n != r.guest_insts || !tol.emulated_state().arch_eq(&r.state) {
        return Err(format!("tol_func retired {n} guest instructions and diverged from reference"));
    }
    Ok(secs)
}

/// What one span costs on this host, in nanoseconds: `trace.spans` times
/// this is what the timers add to the traced loop. On a host whose speed
/// wanders, that product says more than `trace.overhead_pct`, which is a
/// difference of two walls measured seconds apart.
fn span_cost_ns() -> f64 {
    const SPANS: u32 = 200_000;
    let mut spans = Spans::new(SPAN_NAMES);
    let t = Instant::now();
    for _ in 0..SPANS {
        spans.enter();
        spans.exit(RUN);
    }
    t.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

/// What the layer phase found.
pub struct Layers {
    /// Metric values by name; `crate::metrics::PER_LAYER` gives units.
    pub values: BTreeMap<&'static str, f64>,
    /// Span totals of the traced pass the span metrics come from.
    pub spans: Vec<(&'static str, SpanTotals)>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Runs rounds of the layer phase until `seconds` have passed (at least
/// one), and reduces them to the per-layer metrics.
///
/// # Errors
///
/// Fails when no round completed every pass.
pub fn run(spec: &WorkloadSpec, profile: &BenchProfile, seconds: f64) -> Result<Layers, String> {
    let cfg = (spec.config)();
    let started = Instant::now();

    let t = Instant::now();
    let first = generate(profile, 1.0);
    let generate_s = t.elapsed().as_secs_f64();
    let refr = reference(&first);
    drop(first);
    let mut gate = Gate { spec, reference: &refr, first: None };

    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut exec_s = vec![refr.exec_s];
    let mut func_s = Vec::new();
    let mut inline_s = Vec::new();
    let mut traced: Vec<LoopRun> = Vec::new();
    let mut system_wall_s = Vec::new();
    let mut system_cpu_s = Vec::new();
    let mut round = 0;
    // Another round starts only while at least half of it still fits.
    let half_fits = |rounds: u32| {
        let elapsed = started.elapsed().as_secs_f64();
        elapsed + 0.5 * elapsed / f64::from(rounds) < seconds
    };
    while round == 0 || half_fits(round) {
        round += 1;
        if round > 1 {
            exec_s.push(reference(&generate(profile, 1.0)).exec_s);
        }
        let mut pass = |what: &str, r: Result<(), String>| {
            attempted += 1;
            if let Err(e) = r {
                eprintln!("FAILED {} round {round} {what}: {e}", spec.name);
                failures.push(format!("round {round} {what}: {e}"));
            }
        };
        pass(
            "tol_func",
            guarded(|| tol_functional(generate(profile, 1.0), &cfg, &refr)).map(|s| func_s.push(s)),
        );
        for timed in [false, true] {
            let run = guarded(|| {
                let w = generate(profile, 1.0);
                let run = if timed {
                    controller_loop::<true>(w, &cfg)?
                } else {
                    controller_loop::<false>(w, &cfg)?
                };
                gate.check(&run.report, &run.state)?;
                Ok(run)
            });
            pass(
                if timed { "traced loop" } else { "inline loop" },
                run.map(|run| if timed { traced.push(run) } else { inline_s.push(run.wall_s) }),
            );
        }
        pass(
            "system rep",
            rep(profile, &mut gate).map(|r| {
                system_wall_s.push(r.run_wall_s);
                system_cpu_s.push(r.cpu_s);
            }),
        );
        let last = |xs: &[f64]| xs.last().copied().unwrap_or(f64::NAN);
        eprintln!(
            "{} round {round}: guest_exec {:.3} s, tol_func {:.3} s, inline loop {:.3} s, \
             traced loop {:.3} s, system rep {:.3} s",
            spec.name,
            last(&exec_s),
            last(&func_s),
            last(&inline_s),
            traced.last().map_or(f64::NAN, |r| r.wall_s),
            last(&system_wall_s),
        );
    }
    if func_s.is_empty() || inline_s.is_empty() || traced.is_empty() || system_wall_s.is_empty() {
        return Err(format!(
            "{}: no complete layer round ({} failures)",
            spec.name,
            failures.len()
        ));
    }

    // Span metrics all come from one traced pass, the one of median wall,
    // so that its self times add up to its `trace.wall_s` exactly.
    traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    // Noise only ever adds time, so the fastest pass of each kind
    // isolates what the timers themselves cost.
    let fastest_inline_s = inline_s.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead_pct = (traced[0].wall_s - fastest_inline_s) / fastest_inline_s * 100.0;
    let run = traced.swap_remove((traced.len() - 1) / 2);
    let spans_closed: u64 = run.spans.iter().map(|(_, t)| t.count).sum();
    let self_s = |span: usize| run.spans[span].1.self_ns as f64 / 1e9;
    let inline_wall_s = median(&inline_s);
    let run_wall_s = median(&system_wall_s);
    let report = &run.report;
    let insts = report.guest_insts as f64;
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let dyn_total: u64 = report.tol.dyn_dist.iter().sum();
    let t = &report.timing;

    let values = BTreeMap::from([
        ("workloads.generate_s", generate_s),
        ("workloads.static_insts", f64::from(report.static_insts)),
        ("workloads.guest_insts", insts),
        ("guest.exec_s", median(&exec_s)),
        ("guest.exec_mips", insts / median(&exec_s) / 1e6),
        ("tol.func_s", median(&func_s)),
        ("tol.func_mips", insts / median(&func_s) / 1e6),
        ("tol.step_im_self_s", self_s(STEP)),
        ("tol.step_bbm_self_s", self_s(STEP + 1)),
        ("tol.step_sbm_self_s", self_s(STEP + 2)),
        ("tol.steps_im", run.steps[0] as f64),
        ("tol.steps_bbm", run.steps[1] as f64),
        ("tol.steps_sbm", run.steps[2] as f64),
        ("tol.dyn_share_im", ratio(report.tol.dyn_dist[0], dyn_total)),
        ("tol.dyn_share_bbm", ratio(report.tol.dyn_dist[1], dyn_total)),
        ("tol.dyn_share_sbm", ratio(report.tol.dyn_dist[2], dyn_total)),
        ("tol.translations", report.tol.installed as f64),
        ("tol.superblocks", report.tol.counters.sbm_invocations as f64),
        ("tol.chains", report.tol.chains as f64),
        ("tol.indirect_branches", report.tol.counters.indirect_branches as f64),
        (
            "tol.ibtc_hit_ratio",
            ratio(report.tol.ibtc_hits, report.tol.ibtc_hits + report.tol.ibtc_misses),
        ),
        ("tol.cache_flushes", report.tol.flushes as f64),
        ("tol.retranslations", report.tol.cache.retranslations as f64),
        ("tol.opt_bailouts", report.tol.counters.opt_bailouts as f64),
        ("host.events", run.events as f64),
        ("host.batches", run.batches as f64),
        ("host.events_per_guest_inst", run.events as f64 / insts),
        ("host.event_bytes", (run.events * std::mem::size_of::<HostEvent>() as u64) as f64),
        ("host.trace_consume_s", self_s(TRACE_CONSUME)),
        ("timing.consume_s", self_s(TIMING_CONSUME)),
        ("timing.ns_per_event", self_s(TIMING_CONSUME) * 1e9 / run.events as f64),
        ("timing.finish_s", self_s(FINISH)),
        ("timing.sim_cycles", t.total_cycles as f64),
        ("timing.sim_host_insts", t.total_insts() as f64),
        ("timing.sim_ipc", t.ipc()),
        ("timing.sim_tol_overhead_share", t.tol_overhead_share()),
        ("timing.sim_dmiss_rate_app", t.d_miss_rate(Owner::App)),
        ("timing.sim_mispredict_rate", ratio(t.mispredicts.iter().sum(), t.branches.iter().sum())),
        ("core.checker_consume_s", self_s(CHECKER_CONSUME)),
        ("core.cosim_checks", report.cosim_checks as f64),
        ("core.boundary_s", self_s(BOUNDARY)),
        ("core.loop_other_s", self_s(RUN)),
        ("core.inline_wall_s", inline_wall_s),
        ("core.system_wall_s", run_wall_s),
        ("core.system_cpu_s", median(&system_cpu_s)),
        ("core.backend_overlap_ratio", inline_wall_s / run_wall_s),
        ("core.cpu_per_wall", median(&system_cpu_s) / run_wall_s),
        ("trace.wall_s", run.wall_s),
        ("trace.spans", spans_closed as f64),
        ("trace.span_cost_ns", span_cost_ns()),
        ("trace.overhead_pct", overhead_pct),
    ]);
    Ok(Layers { values, spans: run.spans, attempted, failures })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::workloads::{self, shrink_for_smoke};

    /// The traced loop is only a profile of the program if it does the
    /// program's work (the gate compares its report with `System`'s) and
    /// if its spans account for all of its time.
    #[test]
    fn layer_phase_closes_on_every_workload() {
        for spec in &workloads::ALL {
            let mut p = (spec.profile)(3);
            shrink_for_smoke(&mut p);
            let l = run(spec, &p, 0.0).expect(spec.name);
            assert_eq!(l.failures, Vec::<String>::new(), "{}", spec.name);
            assert_eq!(l.attempted, 4);

            let self_sum: u64 = l.spans.iter().map(|(_, t)| t.self_ns).sum();
            assert_eq!(self_sum, l.spans[RUN].1.total_ns, "{}: self times close", spec.name);
            assert_eq!(l.values["trace.wall_s"], l.spans[RUN].1.total_ns as f64 / 1e9);

            let measured: Vec<&str> = l.values.keys().copied().collect();
            let mut listed: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            listed.sort_unstable();
            assert_eq!(measured, listed, "PER_LAYER and the measured metrics name the same set");

            let cosim = (spec.config)().cosim;
            assert_eq!(l.values["core.cosim_checks"] > 0.0, cosim, "{}", spec.name);
            assert_eq!(l.values["core.checker_consume_s"] > 0.0, cosim, "{}", spec.name);
        }
    }
}
