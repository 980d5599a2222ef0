//! Co-simulation: the authoritative x86 Component and the state checker.
//!
//! DARCO keeps two independent executions of the guest program (paper
//! Fig. 2): the authoritative functional emulator, and the emulated
//! state maintained by the software layer. The checker advances the
//! authoritative side by the same number of guest instructions the layer
//! just retired and compares architectural state — the co-simulation
//! debugging technique the paper inherits from Transmeta (ref. \[15\]).
//!
//! The two executions share guest memory wherever it is proven equal.
//! `System::new` hands the checker a [`GuestMem::share`] of the emulated
//! side's memory; every store either side makes lands in a private copy
//! of its frame, and at each step boundary [`StateChecker::settle`]
//! compares the frames written since the last one, then drops the
//! checker's copy of each equal frame for the emulated side's. So the
//! checker only ever reads its own state, and holds a private copy of
//! no more than one step's writes.

use darco_guest::uops::ExecCtx;
use darco_guest::{exec, CpuState, DecodeError, GuestMem};
use std::fmt;

/// A detected divergence between the two executions.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Guest instructions retired when the mismatch was found.
    pub at_guest_inst: u64,
    /// The authoritative state.
    pub authoritative: CpuState,
    /// The software layer's emulated state.
    pub emulated: CpuState,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "state divergence after {} guest instructions:\n  authoritative: {}\n  emulated:      {}\n  \
             hint: `darco verify <benchmark>` rechecks the run against the independent executor;\n  \
             `darco disasm` / `darco analyze` show the translations and their IR",
            self.at_guest_inst, self.authoritative, self.emulated
        )
    }
}

impl std::error::Error for Divergence {}

/// The panic message of a memory divergence found at `addr` once
/// `guest_insts` guest instructions had retired, at a step boundary or
/// at the end of the run of benchmark `name`.
pub(crate) fn memory_divergence(name: &str, addr: u32, guest_insts: u64) -> String {
    format!(
        "{name}: memory divergence at guest address {addr:#x} after {guest_insts} guest \
         instructions\n  hint: `darco verify {name}` rechecks the run against the independent \
         executor; `darco disasm` / `darco analyze` show the translations and their IR"
    )
}

/// The authoritative emulator plus comparison logic.
#[derive(Debug, Clone)]
pub struct StateChecker {
    cpu: CpuState,
    mem: GuestMem,
    retired: u64,
    checks: u64,
    /// `Some`: the authoritative side runs the micro-op executor (the
    /// one the software layer's interpreter runs too); `None`: the
    /// independent `exec::step`. Lazy flags are forced before every
    /// comparison, so the observable states are bit-identical either
    /// way.
    fast: Option<ExecCtx>,
}

impl StateChecker {
    /// Creates the authoritative side from the initial program state and
    /// its own guest memory — a [`GuestMem::share`] of the emulated
    /// side's, for [`StateChecker::settle`], or any copy of it —
    /// executing with the independent `exec::step` (see
    /// [`StateChecker::set_fast_path`]).
    pub fn new(initial: CpuState, mem: GuestMem) -> StateChecker {
        StateChecker { cpu: initial, mem, retired: 0, checks: 0, fast: None }
    }

    /// Chooses which executor is the *authority*: `true` is the guest
    /// layer's micro-op executor ([`ExecCtx`]), `false` the hand-written
    /// decode-per-step `exec::step`. This is not a speed switch with an
    /// equivalent twin. `ExecCtx` is also what the software layer's
    /// interpreter runs, so with it IM-mode co-simulation compares an
    /// executor with itself (translated code is still checked against
    /// an implementation it shares nothing with); `exec::step` shares
    /// nothing with any mode and costs about a third of a co-simulated
    /// run more. `System::new` picks `exec::step` when
    /// `SystemConfig::independent_checker` is set (`darco verify`) and
    /// `ExecCtx` otherwise (DESIGN.md §16).
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast = on.then(ExecCtx::new);
    }

    /// Whether the authority is the independent `exec::step`.
    #[cfg(test)]
    pub(crate) fn steps_independently(&self) -> bool {
        self.fast.is_none()
    }

    /// Advances the authoritative emulator by `n` guest instructions,
    /// stopping early at `Halt`. [`StateChecker::retired`] counts the
    /// instructions that actually executed, also when a fault ends the
    /// advance half-way.
    ///
    /// # Errors
    ///
    /// Propagates decode faults (which the emulated side would hit too).
    pub fn advance(&mut self, n: u64) -> Result<(), DecodeError> {
        match self.fast.as_mut() {
            Some(ctx) => ctx.run(&mut self.cpu, &mut self.mem, n, &mut self.retired),
            None => {
                for _ in 0..n {
                    if self.cpu.halted {
                        break;
                    }
                    exec::step(&mut self.cpu, &mut self.mem)?;
                    self.retired += 1;
                }
                Ok(())
            }
        }
    }

    /// Compares the emulated state against the authoritative one,
    /// materializing any lazy flag definition first.
    ///
    /// # Errors
    ///
    /// Returns the full [`Divergence`] on mismatch.
    pub fn check(&mut self, emulated: &CpuState) -> Result<(), Box<Divergence>> {
        if let Some(ctx) = self.fast.as_mut() {
            ctx.force_flags(&mut self.cpu);
        }
        self.checks += 1;
        if self.cpu.arch_eq(emulated) {
            Ok(())
        } else {
            Err(Box::new(Divergence {
                at_guest_inst: self.retired,
                authoritative: self.cpu.clone(),
                emulated: emulated.clone(),
            }))
        }
    }

    /// Compares the frames of guest memory either side wrote since the
    /// last settle ([`GuestMem::settle`]) and, where they are equal,
    /// drops the checker's copy for the emulated side's frame. Run at
    /// every step boundary, after the register check: register checks
    /// alone can miss diverging stores whose values are never reloaded.
    ///
    /// # Errors
    ///
    /// Returns the lowest differing guest address.
    pub fn settle(&mut self, emulated: &mut GuestMem) -> Result<(), u32> {
        self.mem.settle(emulated)
    }

    /// Compares the emulated guest *memory* against the authoritative
    /// side's in full. A page sweep, but frames the two sides share are
    /// equal unread, so after a [`StateChecker::settle`] it reads
    /// nothing; DARCO runs it at end-of-run.
    ///
    /// # Errors
    ///
    /// Returns the first differing guest address.
    pub fn check_memory(&self, emulated: &GuestMem) -> Result<(), u32> {
        match self.mem.first_difference(emulated) {
            None => Ok(()),
            Some(addr) => Err(addr),
        }
    }

    /// Authoritative architectural state. Flags are guaranteed current
    /// after a [`StateChecker::check`]; between advances of the micro-op
    /// executor a lazy definition may still be pending.
    pub fn state(&self) -> &CpuState {
        &self.cpu
    }

    /// Guest instructions retired on the authoritative side.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Comparisons performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Heap bytes the authoritative side holds: the frames of its memory
    /// it does not share with the emulated side, and its micro-op
    /// executor's block cache.
    pub fn live_bytes(&self) -> [(&'static str, usize); 2] {
        [
            ("checker memory frames", self.mem.private_frame_bytes()),
            ("checker uop cache", self.fast.as_ref().map_or(0, ExecCtx::cache_bytes)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_guest::asm::Asm;
    use darco_guest::{AluOp, Gpr, Inst};

    fn program() -> (GuestMem, CpuState) {
        let mut a = Asm::new(0x100);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 1 });
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 2 });
        a.push(Inst::Halt);
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        (mem, CpuState::at(p.base))
    }

    #[test]
    fn matching_execution_passes() {
        let (mem, initial) = program();
        let mut chk = StateChecker::new(initial.clone(), mem.clone());

        // A correct "emulated" run: same emulator.
        let mut emu = initial;
        let mut emu_mem = mem;
        exec::step(&mut emu, &mut emu_mem).unwrap();
        chk.advance(1).unwrap();
        chk.check(&emu).unwrap();
        assert_eq!(chk.retired(), 1);
        assert_eq!(chk.checks(), 1);
    }

    #[test]
    fn divergence_is_reported_with_context() {
        let (mem, initial) = program();
        let mut chk = StateChecker::new(initial.clone(), mem);
        chk.advance(1).unwrap();
        let mut wrong = initial;
        wrong.set_gpr(Gpr::Eax, 999);
        wrong.eip = chk.state().eip;
        let err = chk.check(&wrong).unwrap_err();
        assert_eq!(err.at_guest_inst, 1);
        assert!(err.to_string().contains("divergence"));
    }

    #[test]
    fn advance_stops_at_halt() {
        let (mem, initial) = program();
        let mut chk = StateChecker::new(initial, mem);
        chk.advance(100).unwrap();
        assert!(chk.state().halted);
        assert_eq!(chk.retired(), 3);
    }

    #[test]
    fn fast_path_checker_matches_oracle() {
        let (mem, initial) = program();
        let mut oracle = StateChecker::new(initial.clone(), mem.clone());
        let mut fast = StateChecker::new(initial, mem);
        fast.set_fast_path(true);
        oracle.advance(100).unwrap();
        fast.advance(100).unwrap();
        // check() against the oracle's state forces fast's lazy flags
        // and must pass bit-exactly (the last AluRI defines flags).
        fast.check(oracle.state()).unwrap();
        assert_eq!(fast.retired(), oracle.retired());
        fast.check_memory(&mem_of(&oracle)).unwrap();
    }

    #[test]
    fn a_fault_half_way_through_an_advance_leaves_retired_exact() {
        for fast in [false, true] {
            let (mut mem, initial) = program();
            // Make the Halt (third instruction) undecodable.
            let mut probe = StateChecker::new(initial.clone(), mem.clone());
            probe.advance(2).unwrap();
            mem.write_u8(probe.state().eip, 0xFF);

            let mut chk = StateChecker::new(initial, mem);
            chk.set_fast_path(fast);
            assert_eq!(chk.advance(10), Err(DecodeError::BadOpcode(0xFF)), "fast={fast}");
            assert_eq!(chk.retired(), 2, "fast={fast}: two instructions ran before the fault");
            assert_eq!(chk.state().eip, probe.state().eip, "fast={fast}: stopped at the fault");
        }
    }

    /// Two sides split by `share`: one stray byte on the emulated side
    /// is found at its address, by this settle and, as it still
    /// differs, by the next.
    #[test]
    fn settle_finds_a_stray_byte_on_the_emulated_side() {
        let (mut emulated, initial) = program();
        let mut chk = StateChecker::new(initial, emulated.share());
        chk.mem.write_u32(0x2000, 5);
        emulated.write_u32(0x2000, 5);
        emulated.write_u8(0x2C03, 0x80);
        assert_eq!(chk.settle(&mut emulated), Err(0x2C03));
        assert_eq!(chk.settle(&mut emulated), Err(0x2C03), "an unequal frame stays logged");
    }

    /// Equal writes settle, leave the checker no private frame, and
    /// stay apart: a later write on either side does not show on the
    /// other.
    #[test]
    fn settled_sides_share_frames_but_not_writes() {
        let (mut emulated, initial) = program();
        let mut chk = StateChecker::new(initial, emulated.share());
        for m in [&mut emulated, &mut chk.mem] {
            m.write_u32(0x2000, 0xDEAD_BEEF);
            m.write_u8(0x100, 0x90); // a code byte: a frame shared since `share`
        }
        assert_eq!(chk.settle(&mut emulated), Ok(()));
        assert_eq!(chk.live_bytes()[0], ("checker memory frames", 0));
        emulated.write_u32(0x2000, 1);
        assert_eq!(chk.mem.read_u32(0x2000), 0xDEAD_BEEF, "an emulated write showed");
        chk.mem.write_u8(0x100, 0x55);
        assert_eq!(emulated.read_u8(0x100), 0x90, "a checker write showed");
        assert_eq!(chk.check_memory(&emulated), Err(0x100));
        assert_eq!(chk.settle(&mut emulated), Err(0x100));
    }

    fn mem_of(c: &StateChecker) -> GuestMem {
        c.mem.clone()
    }
}
