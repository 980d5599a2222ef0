//! Event-stream consumers of the controller.
//!
//! The software layer emits typed [`HostEvent`]s in retire-order batches
//! (see `darco_host::events`). The controller composes its observers —
//! timing pipelines, the co-simulation checker, delivery accounting —
//! as [`HostEventSink`]s in a [`SinkSet`], which accounts for every
//! batch once and walks it once on the emulation thread, handing each
//! event to the observers that act on events, so each has seen the
//! exact same ordered stream prefix whenever one of them acts.

use crate::checker::{memory_divergence, StateChecker};
use crate::system::{SystemConfig, Window};
use darco_guest::{CpuState, GuestMem};
use darco_host::{HostEvent, HostEventSink, Owner, TraceStatsSink};
use darco_timing::{Pipeline, Stats};

/// Feeds retired instructions to the timing pipelines and keeps the
/// timeline ([`SystemConfig::window_guest_insts`]).
///
/// Owns the shared pipeline (every instruction; the one the timeline is
/// sampled from) plus the optional application-only and TOL-only
/// pipelines — the multi-pipeline methodology of Figs. 8–11.
#[derive(Debug)]
pub struct TimingSink {
    shared: Pipeline,
    /// The application-only and TOL-only pipelines, indexed by
    /// [`Owner`].
    filtered: [Option<Pipeline>; 2],
    /// Guest instructions per timeline window (0: no timeline).
    window: u64,
    /// Guest instructions retired at the last [`TimingSink::window_mark`].
    guest_insts: u64,
    timeline: Vec<Window>,
    /// The shared pipeline's running totals where the current window
    /// began; deltas against them form the next [`Window`].
    start: Window,
}

impl TimingSink {
    /// Builds the pipelines and the window cadence the configuration asks for.
    pub fn new(cfg: &SystemConfig) -> TimingSink {
        TimingSink {
            shared: Pipeline::new(),
            filtered: [
                cfg.app_only_pipeline.then(Pipeline::new),
                cfg.tol_only_pipeline.then(Pipeline::new),
            ],
            window: cfg.window_guest_insts,
            guest_insts: 0,
            timeline: Vec::new(),
            start: Window::default(),
        }
    }

    /// Dissolves the sink into report material: shared stats, optional
    /// filtered stats, and the timeline, its last partial window closed.
    pub fn into_parts(mut self) -> (Stats, Option<Stats>, Option<Stats>, Vec<Window>) {
        if self.window > 0 && self.guest_insts > self.start.guest_insts {
            self.sample_window();
        }
        let [app_only, tol_only] =
            self.filtered.each_ref().map(|p| p.as_ref().map(Pipeline::snapshot));
        (self.shared.snapshot(), app_only, tol_only, self.timeline)
    }

    /// The controller's call after each step, `guest_insts` retired so
    /// far: closes the current window once it spans the configured count.
    pub fn window_mark(&mut self, guest_insts: u64) {
        self.guest_insts = guest_insts;
        if self.window > 0 && guest_insts >= self.start.guest_insts + self.window {
            self.sample_window();
        }
    }

    /// Closes the current timeline window at the last marked guest
    /// instruction count, from the shared pipeline's incremental
    /// counters — no statistics clone per window.
    fn sample_window(&mut self) {
        let cycles = self.shared.cycles_so_far();
        let s = self.shared.stats();
        let app = s.owner_insts(Owner::App);
        let tol = s.owner_insts(Owner::Tol);
        let (m, guest_insts) = (self.start, self.guest_insts);
        self.timeline.push(Window {
            guest_insts,
            cycles: cycles - m.cycles,
            app_insts: app - m.app_insts,
            tol_insts: tol - m.tol_insts,
        });
        self.start = Window { guest_insts, cycles, app_insts: app, tol_insts: tol };
    }

    /// Routes one retirement to every pipeline that wants it, in one
    /// call; a step boundary is the checker's.
    #[inline(always)]
    pub fn event(&mut self, e: &HostEvent) {
        if let HostEvent::Retire(d) = e {
            match &mut self.filtered[d.owner() as usize] {
                Some(filtered) => self.shared.retire_pair(filtered, d),
                None => self.shared.retire(d),
            }
        }
    }
}

impl HostEventSink for TimingSink {
    fn consume(&mut self, batch: &[HostEvent]) {
        for e in batch {
            self.event(e);
        }
    }
}

/// Co-simulates against the authoritative emulator at every
/// [`HostEvent::StepBoundary`].
///
/// The boundary event carries the layer's emulated state and the running
/// guest-instruction total; the sink advances the authoritative side by
/// the delta since the previous boundary and compares architectural
/// state — no back-reference into the engine required.
#[derive(Debug)]
pub struct CheckerSink {
    name: String,
    checker: StateChecker,
}

impl CheckerSink {
    /// Wraps the authoritative emulator; `name` labels panic messages.
    pub fn new(name: String, checker: StateChecker) -> CheckerSink {
        CheckerSink { name, checker }
    }

    /// Returns the authoritative emulator for end-of-run memory checks.
    pub fn into_inner(self) -> StateChecker {
        self.checker
    }

    /// Settles guest memory after the last boundary's register check
    /// ([`StateChecker::settle`]).
    ///
    /// # Panics
    ///
    /// Panics with the boundary and the lowest differing address when
    /// the two memories differ.
    pub fn settle(&mut self, emulated: &mut GuestMem) {
        if let Err(addr) = self.checker.settle(emulated) {
            panic!("{}", memory_divergence(&self.name, addr, self.checker.retired()));
        }
    }

    /// Co-simulates at a [`HostEvent::StepBoundary`] and ignores every
    /// other event.
    ///
    /// # Panics
    ///
    /// Panics when the boundary goes backwards, the authoritative side
    /// faults, or the two architectural states differ.
    #[inline(always)]
    pub fn event(&mut self, e: &HostEvent) {
        if let HostEvent::StepBoundary { guest_insts, emulated } = e {
            self.boundary(*guest_insts, emulated);
        }
    }

    fn boundary(&mut self, guest_insts: u64, emulated: &CpuState) {
        let checked = self.checker.retired();
        let delta = guest_insts.checked_sub(checked).unwrap_or_else(|| {
            panic!(
                "{}: StepBoundary went backwards to {guest_insts} guest instructions \
                 after {checked} were checked",
                self.name
            )
        });
        if let Err(e) = self.checker.advance(delta) {
            panic!(
                "{}: authoritative fault after {} guest instructions, at pc {:#x}: {e}",
                self.name,
                self.checker.retired(),
                self.checker.state().eip
            );
        }
        self.checker
            .check(emulated)
            .unwrap_or_else(|e| panic!("{}: co-simulation failed: {e}", self.name));
    }
}

impl HostEventSink for CheckerSink {
    fn consume(&mut self, batch: &[HostEvent]) {
        for e in batch {
            self.event(e);
        }
    }
}

/// The controller's full observer set. A batch is accounted for once
/// and walked once, each event going to the optional co-simulation
/// checker and then the timing pipelines. The checker runs in the same
/// pass by design: a co-simulation divergence must fault at the
/// boundary that caused it.
#[derive(Debug)]
pub struct SinkSet {
    /// Delivery accounting (always on).
    pub trace: TraceStatsSink,
    /// Co-simulation, when enabled.
    pub checker: Option<CheckerSink>,
    /// The timing pipelines.
    pub timing: TimingSink,
}

impl HostEventSink for SinkSet {
    /// The single pass over `batch`. The per-event methods are
    /// `#[inline(always)]`: left as calls, which is what the compiler
    /// chooses, the pass costs 1.5–2 ns per event more.
    fn consume(&mut self, batch: &[HostEvent]) {
        let SinkSet { trace, checker, timing } = self;
        trace.batch(batch.len());
        for e in batch {
            if let Some(chk) = checker {
                chk.event(e);
            }
            timing.event(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_host::{Component, DynInst, ExecClass};

    fn retire(pc: u64, component: Component) -> HostEvent {
        HostEvent::Retire(DynInst::plain(pc, ExecClass::SimpleInt, component))
    }

    fn boundary(guest_insts: u64, emulated: CpuState) -> HostEvent {
        HostEvent::StepBoundary { guest_insts, emulated: Box::new(emulated) }
    }

    fn test_cfg() -> SystemConfig {
        SystemConfig {
            app_only_pipeline: true,
            tol_only_pipeline: true,
            cosim: false,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn timing_sink_routes_by_owner_and_samples_windows() {
        let mut sink = TimingSink::new(&SystemConfig { window_guest_insts: 10, ..test_cfg() });
        sink.consume(&[
            retire(0x100, Component::AppCode),
            retire(0x104, Component::TolIm),
            retire(0x108, Component::AppCode),
        ]);
        sink.window_mark(10);
        sink.consume(&[retire(0x10c, Component::TolBbm)]);
        sink.window_mark(20);
        // A mark short of the next window closes none: no empty window.
        sink.window_mark(20);
        sink.consume(&[retire(0x110, Component::AppCode)]);
        sink.window_mark(25);
        let (shared, app, tol, timeline) = sink.into_parts();
        assert_eq!(shared.total_insts(), 5);
        assert_eq!(app.unwrap().owner_insts(Owner::App), 3);
        assert_eq!(tol.unwrap().owner_insts(Owner::Tol), 2);
        // The run ended inside the third window: `into_parts` closes it.
        let spans = timeline.iter().map(|w| (w.guest_insts, w.app_insts, w.tol_insts));
        assert_eq!(spans.collect::<Vec<_>>(), [(10, 2, 1), (20, 0, 1), (25, 1, 0)]);
    }

    #[test]
    fn checker_sink_advances_by_boundary_deltas() {
        let (mem, initial, [_, after_two]) = two_movs_program();
        let mut sink = CheckerSink::new("t".into(), StateChecker::new(initial, mem));
        // A delta of two instructions, then a boundary without progress.
        sink.consume(&[boundary(2, after_two.clone())]);
        sink.consume(&[boundary(2, after_two)]);
        let chk = sink.into_inner();
        assert_eq!((chk.retired(), chk.checks()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "co-simulation failed")]
    fn checker_sink_panics_on_divergence() {
        let (mem, initial, [mut wrong, _]) = two_movs_program();
        wrong.set_gpr(darco_guest::Gpr::Eax, 999);
        let mut sink = CheckerSink::new("t".into(), StateChecker::new(initial, mem));
        sink.consume(&[boundary(1, wrong)]);
    }

    #[test]
    #[should_panic(expected = "t: memory divergence at guest address 0x2004 after 1 guest \
                               instructions\n  hint: `darco verify t` rechecks")]
    fn checker_sink_names_the_boundary_of_a_memory_divergence() {
        let (mut emu_mem, initial, [after_one, _]) = two_movs_program();
        let mut sink = CheckerSink::new("t".into(), StateChecker::new(initial, emu_mem.share()));
        emu_mem.write_u8(0x2004, 1);
        sink.consume(&[boundary(1, after_one)]);
        sink.settle(&mut emu_mem);
    }

    /// Two `MovRI`s and a `Halt`, plus the emulated state after each of
    /// the first two instructions.
    fn two_movs_program() -> (darco_guest::GuestMem, CpuState, [CpuState; 2]) {
        use darco_guest::asm::Asm;
        use darco_guest::{exec, Gpr, GuestMem, Inst};
        let mut a = Asm::new(0x100);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 7 });
        a.push(Inst::MovRI { dst: Gpr::Ebx, imm: 9 });
        a.push(Inst::Halt);
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        let initial = CpuState::at(p.base);
        let mut emu = initial.clone();
        let mut emu_mem = mem.clone();
        let after = [(); 2].map(|()| {
            exec::step(&mut emu, &mut emu_mem).unwrap();
            emu.clone()
        });
        (mem, initial, after)
    }

    /// A random stream of everything the bus carries — retirements of
    /// every component (loads, stores, branches, plain) and the two step
    /// boundaries of [`two_movs_program`] at random positions — cut into
    /// steps, each ending at a running guest-instruction total, some
    /// short of the next timeline window.
    fn random_stream(seed: u64, after: &[CpuState; 2]) -> Vec<(Vec<HostEvent>, u64)> {
        use darco_host::BranchKind;
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(200..1500usize);
        let boundary_at = [rng.gen_range(0..len / 2), rng.gen_range(len / 2..len)];
        let mut guest = 0u64;
        let (mut steps, mut out) = (Vec::new(), Vec::new());
        for i in 0..len {
            if let Some(k) = boundary_at.iter().position(|&at| at == i) {
                out.push(boundary(k as u64 + 1, after[k].clone()));
            }
            let pc = 0x1000 + 4 * rng.gen_range(0..512u64);
            let addr = 0x8_0000 + 8 * rng.gen_range(0..4096u64);
            let component = Component::ALL[rng.gen_range(0..Component::ALL.len())];
            let d = |class| DynInst::plain(pc, class, component);
            out.push(HostEvent::Retire(match rng.gen_range(0..4u32) {
                0 => d(ExecClass::Load).with_mem(addr, 8, false),
                1 => d(ExecClass::Store).with_mem(addr, 4, true),
                2 => d(ExecClass::Branch).with_branch(
                    BranchKind::CondDirect,
                    pc + 64,
                    rng.gen_bool(0.5),
                ),
                _ => d(ExecClass::SimpleInt).with_dst(rng.gen_range(8..40u8)),
            }));
            if rng.gen_range(0..8u32) == 0 {
                guest += rng.gen_range(1..50u64);
                steps.push((std::mem::take(&mut out), guest));
            }
        }
        steps.push((out, guest + 1));
        steps
    }

    /// One pipeline fed by [`Pipeline::retire`] with the retirements of
    /// `stream` that `keep` admits, as text: every field, floats exactly.
    fn retire_alone(stream: &[(Vec<HostEvent>, u64)], keep: impl Fn(Owner) -> bool) -> String {
        let mut p = Pipeline::new();
        for e in stream.iter().flat_map(|(step, _)| step) {
            match e {
                HostEvent::Retire(d) if keep(d.owner()) => p.retire(d),
                _ => {}
            }
        }
        format!("{:?}", p.snapshot())
    }

    #[test]
    fn one_pass_equals_three_passes() {
        let (mem, initial, after) = two_movs_program();
        let text = |s: &Stats| format!("{s:?}");
        // Both filtered pipelines, then each alone: without its partner,
        // the other owner's retirements take the unpaired call.
        let configs = [(true, true), (true, false), (false, true)].map(|(app, tol)| SystemConfig {
            app_only_pipeline: app,
            tol_only_pipeline: tol,
            window_guest_insts: 40,
            ..test_cfg()
        });
        for (seed, cfg) in (0..12).flat_map(|seed| configs.iter().map(move |cfg| (seed, cfg))) {
            let stream = random_stream(seed, &after);
            let all = retire_alone(&stream, |_| true);
            let app_alone = retire_alone(&stream, |o| o == Owner::App);
            let tol_alone = retire_alone(&stream, |o| o == Owner::Tol);
            for chunk in [1, 7, 64, 4096] {
                // The reference: each sink walks each batch on its own.
                let mut trace = TraceStatsSink::default();
                let mut checker =
                    CheckerSink::new("ref".into(), StateChecker::new(initial.clone(), mem.clone()));
                let mut timing = TimingSink::new(cfg);
                for (step, guest_insts) in &stream {
                    for c in step.chunks(chunk) {
                        trace.consume(c);
                        checker.consume(c);
                        timing.consume(c);
                    }
                    timing.window_mark(*guest_insts);
                }
                let checker = checker.into_inner();
                assert_eq!(checker.checks(), 2, "both boundaries were co-simulated");
                let (_, _, _, timeline) = timing.into_parts();
                assert!(
                    timeline.len() > 1 && stream.len() > timeline.len(),
                    "marks short of a window too"
                );

                let (app, tol) = (cfg.app_only_pipeline, cfg.tol_only_pipeline);
                let ctx = format!("seed {seed}, chunk {chunk}, app-only {app}, TOL-only {tol}");
                let mut set = SinkSet {
                    trace: TraceStatsSink::default(),
                    checker: Some(CheckerSink::new(
                        "set".into(),
                        StateChecker::new(initial.clone(), mem.clone()),
                    )),
                    timing: TimingSink::new(cfg),
                };
                for (step, guest_insts) in &stream {
                    for c in step.chunks(chunk) {
                        set.consume(c);
                    }
                    set.timing.window_mark(*guest_insts);
                }
                let SinkSet { trace: t, checker: c, timing } = set;
                assert_eq!(t.stats, trace.stats, "{ctx}: trace stats (with batch accounting)");
                let c = c.expect("built with a checker").into_inner();
                assert_eq!((c.checks(), c.retired()), (checker.checks(), checker.retired()));
                let (s, a, o, w) = timing.into_parts();
                assert_eq!(text(&s), all, "{ctx}: shared pipeline");
                assert_eq!(a.as_ref().map(text), app.then(|| app_alone.clone()), "{ctx}: app-only");
                assert_eq!(o.as_ref().map(text), tol.then(|| tol_alone.clone()), "{ctx}: TOL-only");
                assert_eq!(w, timeline, "{ctx}: timeline");
            }
        }
    }

    /// A [`SinkSet`] whose checker runs the faulting program; the panic
    /// tests below reach the checker through the set's single pass.
    fn set_with_checker(chk: StateChecker) -> SinkSet {
        SinkSet {
            trace: TraceStatsSink::default(),
            checker: Some(CheckerSink::new("t".into(), chk)),
            timing: TimingSink::new(&test_cfg()),
        }
    }

    #[test]
    #[should_panic(expected = "t: authoritative fault after 2 guest instructions, at pc 0x")]
    fn checker_sink_names_where_the_authoritative_side_faulted() {
        // The two `MovRI`s, then an undecodable byte where the `Halt` was.
        let (mut mem, initial, [_, after_two]) = two_movs_program();
        mem.write_u8(after_two.eip, 0xFF);
        let mut chk = StateChecker::new(initial.clone(), mem);
        chk.set_fast_path(true);
        let mut sink = set_with_checker(chk);
        sink.consume(&[retire(0x100, Component::AppCode), boundary(5, initial)]);
    }

    #[test]
    #[should_panic(expected = "t: StepBoundary went backwards to 1 guest instructions after 2")]
    fn checker_sink_names_a_boundary_that_goes_backwards() {
        let (mem, initial, [_, after_two]) = two_movs_program();
        let mut sink = set_with_checker(StateChecker::new(initial, mem));
        sink.consume(&[
            boundary(2, after_two.clone()),
            retire(0x100, Component::TolIm),
            boundary(1, after_two),
        ]);
    }
}
