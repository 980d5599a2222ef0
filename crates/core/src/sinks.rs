//! Event-stream consumers of the controller.
//!
//! The software layer emits typed [`HostEvent`]s in retire-order batches
//! (see `darco_host::events`). The controller composes its observers —
//! timing pipelines, the co-simulation checker, trace statistics — as
//! [`HostEventSink`]s in a [`SinkSet`], which walks every batch once on
//! the emulation thread and hands each event to all of them, so each
//! consumer has seen the exact same ordered stream prefix whenever one
//! of them acts.

use crate::checker::StateChecker;
use crate::system::{SystemConfig, Window};
use darco_guest::CpuState;
use darco_host::{HostEvent, HostEventSink, Owner, TraceStatsSink};
use darco_timing::{Pipeline, Stats};

/// Shared-pipeline snapshot at the last timeline-window boundary; deltas
/// against it form the next [`Window`].
#[derive(Debug, Clone, Copy, Default)]
struct WindowMark {
    guest_insts: u64,
    cycles: u64,
    app_insts: u64,
    tol_insts: u64,
}

/// Feeds retired instructions to the timing pipelines and samples
/// timeline windows at [`HostEvent::WindowMark`] boundaries.
///
/// Owns the shared pipeline (every instruction; the one the timeline is
/// sampled from) plus the optional application-only and TOL-only
/// pipelines — the multi-pipeline methodology of Figs. 8–11.
#[derive(Debug)]
pub struct TimingSink {
    shared: Pipeline,
    app_only: Option<Pipeline>,
    tol_only: Option<Pipeline>,
    timeline: Vec<Window>,
    last_mark: WindowMark,
}

impl TimingSink {
    /// Builds the pipeline set the configuration asks for.
    pub fn new(cfg: &SystemConfig) -> TimingSink {
        let pipeline = || Pipeline::new(cfg.timing.clone());
        TimingSink {
            shared: pipeline(),
            app_only: cfg.app_only_pipeline.then(pipeline),
            tol_only: cfg.tol_only_pipeline.then(pipeline),
            timeline: Vec::new(),
            last_mark: WindowMark::default(),
        }
    }

    /// Dissolves the sink into report material: shared stats, optional
    /// filtered stats, and the sampled timeline.
    pub fn into_parts(self) -> (Stats, Option<Stats>, Option<Stats>, Vec<Window>) {
        (
            self.shared.snapshot(),
            self.app_only.as_ref().map(Pipeline::snapshot),
            self.tol_only.as_ref().map(Pipeline::snapshot),
            self.timeline,
        )
    }

    /// Closes the current timeline window at `total_guest` retired guest
    /// instructions, from the shared pipeline's incremental counters —
    /// no statistics clone per window.
    fn sample_window(&mut self, total_guest: u64) {
        let cycles = self.shared.cycles_so_far();
        let s = self.shared.stats();
        let app = s.owner_insts(Owner::App);
        let tol = s.owner_insts(Owner::Tol);
        let m = self.last_mark;
        self.timeline.push(Window {
            guest_insts: total_guest,
            cycles: cycles - m.cycles,
            app_insts: app - m.app_insts,
            tol_insts: tol - m.tol_insts,
        });
        self.last_mark =
            WindowMark { guest_insts: total_guest, cycles, app_insts: app, tol_insts: tol };
    }

    /// Routes one event: a retirement to every pipeline that wants it, a
    /// fresh window mark to the timeline sampler.
    #[inline(always)]
    pub fn event(&mut self, e: &HostEvent) {
        match e {
            HostEvent::Retire(d) => {
                self.shared.retire(d);
                let filtered = match d.owner() {
                    Owner::App => &mut self.app_only,
                    Owner::Tol => &mut self.tol_only,
                };
                if let Some(p) = filtered {
                    p.retire(d);
                }
            }
            HostEvent::WindowMark { guest_insts } if *guest_insts > self.last_mark.guest_insts => {
                self.sample_window(*guest_insts);
            }
            _ => {}
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
    advanced: u64,
}

impl CheckerSink {
    /// Wraps the authoritative emulator; `name` labels panic messages.
    pub fn new(name: String, checker: StateChecker) -> CheckerSink {
        CheckerSink { name, checker, advanced: 0 }
    }

    /// Returns the authoritative emulator for end-of-run memory checks.
    pub fn into_inner(self) -> StateChecker {
        self.checker
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
        let delta = guest_insts.checked_sub(self.advanced).unwrap_or_else(|| {
            panic!(
                "{}: StepBoundary went backwards to {guest_insts} guest instructions \
                 after {} were checked",
                self.name,
                self.checker.retired()
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
        self.advanced = guest_insts;
    }
}

impl HostEventSink for CheckerSink {
    fn consume(&mut self, batch: &[HostEvent]) {
        for e in batch {
            self.event(e);
        }
    }
}

/// The controller's full observer set. A batch is walked once, each
/// event going to trace statistics, the optional co-simulation checker
/// and the timing pipelines — in that fixed order. The checker runs in
/// the same pass by design: a co-simulation divergence must fault at
/// the boundary that caused it.
#[derive(Debug)]
pub struct SinkSet {
    /// Trace-level statistics (always on).
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
            trace.event(e);
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
        let mut sink = TimingSink::new(&test_cfg());
        sink.consume(&[
            retire(0x100, Component::AppCode),
            retire(0x104, Component::TolIm),
            retire(0x108, Component::AppCode),
            HostEvent::WindowMark { guest_insts: 10 },
            retire(0x10c, Component::TolBbm),
            HostEvent::WindowMark { guest_insts: 20 },
            // A stale mark (same total) must not produce an empty window.
            HostEvent::WindowMark { guest_insts: 20 },
        ]);
        let (shared, app, tol, timeline) = sink.into_parts();
        assert_eq!(shared.total_insts(), 4);
        assert_eq!(app.unwrap().owner_insts(Owner::App), 2);
        assert_eq!(tol.unwrap().owner_insts(Owner::Tol), 2);
        assert_eq!(timeline.len(), 2);
        assert_eq!(timeline[0].app_insts, 2);
        assert_eq!(timeline[0].tol_insts, 1);
        assert_eq!(timeline[1].tol_insts, 1);
    }

    #[test]
    fn checker_sink_advances_by_boundary_deltas() {
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

        // The "emulated" side: the same emulator stepped by hand.
        let mut emu = initial.clone();
        let mut emu_mem = mem.clone();
        let mut sink = CheckerSink::new("t".into(), StateChecker::new(initial, mem));

        exec::step(&mut emu, &mut emu_mem).unwrap();
        sink.consume(&[HostEvent::StepBoundary {
            guest_insts: 1,
            emulated: Box::new(emu.clone()),
        }]);
        exec::step(&mut emu, &mut emu_mem).unwrap();
        exec::step(&mut emu, &mut emu_mem).unwrap();
        sink.consume(&[HostEvent::StepBoundary {
            guest_insts: 3,
            emulated: Box::new(emu.clone()),
        }]);

        let chk = sink.into_inner();
        assert_eq!(chk.retired(), 3);
        assert_eq!(chk.checks(), 2);
    }

    #[test]
    #[should_panic(expected = "co-simulation failed")]
    fn checker_sink_panics_on_divergence() {
        use darco_guest::asm::Asm;
        use darco_guest::{Gpr, GuestMem, Inst};
        let mut a = Asm::new(0x100);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 7 });
        a.push(Inst::Halt);
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        let initial = CpuState::at(p.base);
        let mut wrong = initial.clone();
        wrong.set_gpr(Gpr::Eax, 999);
        let mut sink = CheckerSink::new("t".into(), StateChecker::new(initial, mem));
        sink.consume(&[HostEvent::StepBoundary { guest_insts: 1, emulated: Box::new(wrong) }]);
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

    /// A random stream of everything the bus carries: retirements of
    /// every component (loads, stores, branches, plain), window marks
    /// including stale ones, every module marker, and the two step
    /// boundaries of [`two_movs_program`] at random positions.
    fn random_stream(seed: u64, after: &[CpuState; 2]) -> Vec<HostEvent> {
        use darco_host::events::{ExecMode, TranslationKind};
        use darco_host::BranchKind;
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(200..1500usize);
        let boundary_at = [rng.gen_range(0..len / 2), rng.gen_range(len / 2..len)];
        let mut guest = 0u64;
        let mut out = Vec::new();
        for i in 0..len {
            if let Some(k) = boundary_at.iter().position(|&at| at == i) {
                out.push(HostEvent::StepBoundary {
                    guest_insts: k as u64 + 1,
                    emulated: Box::new(after[k].clone()),
                });
            }
            let pc = 0x1000 + 4 * rng.gen_range(0..512u64);
            let addr = 0x8_0000 + 8 * rng.gen_range(0..4096u64);
            out.push(match rng.gen_range(0..24u32) {
                0 => {
                    guest += rng.gen_range(1..50u64);
                    HostEvent::WindowMark { guest_insts: guest }
                }
                1 => HostEvent::WindowMark { guest_insts: guest }, // stale
                2 => HostEvent::ModeEnter([ExecMode::Im, ExecMode::Bbm, ExecMode::Sbm][i % 3]),
                3 => HostEvent::Translated {
                    entry: pc as u32,
                    kind: if i % 2 == 0 { TranslationKind::Bb } else { TranslationKind::Sb },
                    host_len: rng.gen_range(1..40u32),
                },
                4 => HostEvent::Chained { site: pc },
                5 => HostEvent::CacheInsert { entry: pc as u32, flushed: i % 5 == 0 },
                6 => HostEvent::Evict { entry: pc as u32, smc: i % 3 == 0 },
                7 => HostEvent::Unchain { site: pc },
                8 => HostEvent::IbtcResolve { target: pc as u32, hit: i % 2 == 0 },
                n => {
                    let component = Component::ALL[rng.gen_range(0..Component::ALL.len())];
                    let d = DynInst::plain(pc, ExecClass::SimpleInt, component);
                    HostEvent::Retire(match n % 4 {
                        0 => DynInst { class: ExecClass::Load, ..d }.with_mem(addr, 8, false),
                        1 => DynInst { class: ExecClass::Store, ..d }.with_mem(addr, 4, true),
                        2 => DynInst { class: ExecClass::Branch, ..d }.with_branch(
                            BranchKind::CondDirect,
                            pc + 64,
                            rng.gen_bool(0.5),
                        ),
                        _ => d.with_dst(rng.gen_range(8..40u8)),
                    })
                }
            });
        }
        out
    }

    #[test]
    fn one_pass_equals_three_passes() {
        let (mem, initial, after) = two_movs_program();
        let text = |s: &Stats| format!("{s:?}"); // every field, floats exactly
        for seed in 0..12 {
            let stream = random_stream(seed, &after);
            for chunk in [1, 7, 64, 4096] {
                // The reference: each sink walks each batch on its own.
                let mut trace = TraceStatsSink::default();
                let mut checker =
                    CheckerSink::new("ref".into(), StateChecker::new(initial.clone(), mem.clone()));
                let mut timing = TimingSink::new(&test_cfg());
                for c in stream.chunks(chunk) {
                    trace.consume(c);
                    checker.consume(c);
                    timing.consume(c);
                }
                let checker = checker.into_inner();
                assert_eq!(checker.checks(), 2, "both boundaries were co-simulated");
                let (shared, app, tol, timeline) = timing.into_parts();
                assert!(timeline.len() > 1 && trace.stats.window_marks > timeline.len() as u64);

                let ctx = format!("seed {seed}, chunk {chunk}");
                let mut set = SinkSet {
                    trace: TraceStatsSink::default(),
                    checker: Some(CheckerSink::new(
                        "set".into(),
                        StateChecker::new(initial.clone(), mem.clone()),
                    )),
                    timing: TimingSink::new(&test_cfg()),
                };
                for c in stream.chunks(chunk) {
                    set.consume(c);
                }
                let SinkSet { trace: t, checker: c, timing } = set;
                assert_eq!(t.stats, trace.stats, "{ctx}: trace stats (with batch accounting)");
                let c = c.expect("built with a checker").into_inner();
                assert_eq!((c.checks(), c.retired()), (checker.checks(), checker.retired()));
                let (s, a, o, w) = timing.into_parts();
                assert_eq!(text(&s), text(&shared), "{ctx}: shared pipeline");
                assert_eq!(a.as_ref().map(text), app.as_ref().map(text), "{ctx}: app-only");
                assert_eq!(o.as_ref().map(text), tol.as_ref().map(text), "{ctx}: TOL-only");
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

    /// Two `MovRI`s followed by an undecodable byte.
    fn two_movs_then_garbage() -> (darco_guest::GuestMem, CpuState) {
        use darco_guest::asm::Asm;
        use darco_guest::{Gpr, GuestMem, Inst};
        let mut a = Asm::new(0x100);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 7 });
        a.push(Inst::MovRI { dst: Gpr::Ebx, imm: 8 });
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        mem.write_u8(p.base + p.bytes.len() as u32, 0xFF);
        (mem, CpuState::at(p.base))
    }

    #[test]
    #[should_panic(expected = "t: authoritative fault after 2 guest instructions, at pc 0x")]
    fn checker_sink_names_where_the_authoritative_side_faulted() {
        let (mem, initial) = two_movs_then_garbage();
        let mut chk = StateChecker::new(initial.clone(), mem);
        chk.set_fast_path(true);
        let mut sink = set_with_checker(chk);
        sink.consume(&[
            retire(0x100, Component::AppCode),
            HostEvent::StepBoundary { guest_insts: 5, emulated: Box::new(initial) },
        ]);
    }

    #[test]
    #[should_panic(expected = "t: StepBoundary went backwards to 1 guest instructions after 2")]
    fn checker_sink_names_a_boundary_that_goes_backwards() {
        let (mem, initial) = two_movs_then_garbage();
        let mut emu = initial.clone();
        let mut emu_mem = mem.clone();
        darco_guest::exec::step(&mut emu, &mut emu_mem).unwrap();
        darco_guest::exec::step(&mut emu, &mut emu_mem).unwrap();
        let mut sink = set_with_checker(StateChecker::new(initial, mem));
        sink.consume(&[
            HostEvent::StepBoundary { guest_insts: 2, emulated: Box::new(emu.clone()) },
            retire(0x100, Component::TolIm),
            HostEvent::StepBoundary { guest_insts: 1, emulated: Box::new(emu) },
        ]);
    }
}
