//! The interpreter (IM).
//!
//! Cold guest code is decode-and-dispatch interpreted against the
//! *emulated* guest state, with the per-instruction host cost charged
//! through [`Emitter::interp_step`](crate::emission::Emitter::interp_step).
//! The paper counts interpretation as overhead despite its forward
//! progress because of the high per-instruction emulation cost
//! (Sec. III-B) — the emitted stream reflects that cost.
//!
//! Hot not-yet-translated loops would re-decode the same guest bytes
//! every iteration; [`step_fast`] executes them from the guest layer's
//! pre-decoded micro-op buffers instead, with [`step`] as the
//! decode-per-step reference. The executed semantics and the emitted
//! cost stream are identical.

use crate::emission::Emitter;
use darco_guest::exec::{self, StepInfo};
use darco_guest::uops::ExecCtx;
use darco_guest::{CpuState, DecodeError, GuestMem};
use darco_host::events::EventBuffer;

/// Interprets one guest instruction: executes it functionally on `cpu`
/// and emits the IM host-cost stream.
///
/// # Errors
///
/// Propagates decode failures from the guest instruction stream.
pub fn step(
    cpu: &mut CpuState,
    mem: &mut GuestMem,
    em: &mut Emitter,
    ev: &mut EventBuffer<'_>,
) -> Result<StepInfo, DecodeError> {
    let pc = cpu.eip;
    let info = exec::step(cpu, mem)?;
    em.interp_step(ev, pc, &info);
    Ok(info)
}

/// [`step`] through the guest layer's pre-decoded micro-op buffers with
/// lazy flag materialization (`--guest-fast-path`, DESIGN.md §16).
/// Functionally and stream-identical to [`step`] — the op carries its
/// precomputed emission shape, so the cost stream is emitted through
/// [`Emitter::interp_step_shaped`] without re-deriving the shape key.
///
/// `cpu.flags` may be stale after this returns (a lazy definition
/// pending in `ctx`); the engine forces materialization before any
/// consumer reads architectural flags (`store_cpu` at block end).
///
/// # Errors
///
/// Propagates decode failures from the guest instruction stream.
pub fn step_fast(
    cpu: &mut CpuState,
    mem: &mut GuestMem,
    em: &mut Emitter,
    ctx: &mut ExecCtx,
    ev: &mut EventBuffer<'_>,
) -> Result<StepInfo, DecodeError> {
    let pc = cpu.eip;
    let (info, shape) = ctx.step_shaped(cpu, mem)?;
    em.interp_step_shaped(ev, pc, &info, shape);
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_guest::asm::Asm;
    use darco_guest::{Gpr, Inst};

    #[test]
    fn interpretation_matches_direct_execution() {
        let mut a = Asm::new(0x1000);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 5 });
        a.push(Inst::AluRI { op: darco_guest::AluOp::Add, dst: Gpr::Eax, imm: 37 });
        a.push(Inst::Halt);
        let p = a.assemble();

        let mut mem_a = GuestMem::new();
        mem_a.write_bytes(p.base, &p.bytes);
        let mut mem_b = mem_a.clone();

        let mut direct = CpuState::at(p.base);
        while !direct.halted {
            exec::step(&mut direct, &mut mem_a).unwrap();
        }

        let mut interp = CpuState::at(p.base);
        let mut em = Emitter::new();
        let mut n = 0u64;
        let mut sink = darco_host::events::RetireSink(|_: &darco_host::DynInst| n += 1);
        let mut ev = EventBuffer::new(64, &mut sink);
        while !interp.halted {
            step(&mut interp, &mut mem_b, &mut em, &mut ev).unwrap();
        }
        ev.flush();

        assert!(direct.arch_eq(&interp));
        assert!(n > 20, "interpretation must cost host instructions, got {n}");
    }

    #[test]
    fn decode_errors_propagate() {
        let mut mem = GuestMem::new();
        mem.write_u8(0x100, 0xFF); // invalid opcode
        let mut cpu = CpuState::at(0x100);
        let mut em = Emitter::new();
        let mut sink = darco_host::events::NullSink;
        let mut ev = EventBuffer::new(64, &mut sink);
        assert!(step(&mut cpu, &mut mem, &mut em, &mut ev).is_err());
    }

    #[test]
    fn fast_interpretation_matches_uncached() {
        // A counted loop (the same pcs interpreted many times) driven
        // through the micro-op fast path. State and cost stream must be
        // identical to the reference; the debug_assert inside
        // interp_step_shaped additionally pins the static emission shape
        // against the dynamic key on every step.
        let mut a = Asm::new(0x1000);
        a.push(Inst::MovRI { dst: Gpr::Ecx, imm: 50 });
        let top = a.here();
        a.push(Inst::AluRI { op: darco_guest::AluOp::Add, dst: Gpr::Eax, imm: 3 });
        a.push(Inst::AluRI { op: darco_guest::AluOp::Sub, dst: Gpr::Ecx, imm: 1 });
        a.push(Inst::Jcc { cond: darco_guest::Cond::Ne, target: top });
        a.push(Inst::Halt);
        let p = a.assemble();

        let run = |fast: bool| -> (CpuState, u64, u64) {
            let mut mem = GuestMem::new();
            mem.set_fast_path(fast);
            mem.write_bytes(p.base, &p.bytes);
            let mut cpu = CpuState::at(p.base);
            let mut em = Emitter::new();
            let mut n = 0u64;
            let mut sink = darco_host::events::RetireSink(|_: &darco_host::DynInst| n += 1);
            let mut ev = EventBuffer::new(64, &mut sink);
            let mut ctx = ExecCtx::new();
            while !cpu.halted {
                if fast {
                    step_fast(&mut cpu, &mut mem, &mut em, &mut ctx, &mut ev).unwrap();
                } else {
                    step(&mut cpu, &mut mem, &mut em, &mut ev).unwrap();
                }
            }
            ev.flush();
            ctx.force_flags(&mut cpu);
            (cpu, n, ctx.stats.uop_hits)
        };

        let (cpu_u, n_u, _) = run(false);
        let (cpu_f, n_f, hits) = run(true);
        assert!(cpu_u.arch_eq(&cpu_f));
        assert_eq!(n_u, n_f, "cost stream must be identical");
        assert!(hits > 100, "loop body must hit the micro-op cache, got {hits}");
    }
}
