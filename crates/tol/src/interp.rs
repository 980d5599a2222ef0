//! The interpreter (IM).
//!
//! Cold guest code is decode-and-dispatch interpreted against the
//! *emulated* guest state, with the per-instruction host cost charged
//! through [`Emitter::interp_step`](crate::emission::Emitter::interp_step).
//! The paper counts interpretation as overhead despite its forward
//! progress because of the high per-instruction emulation cost
//! (Sec. III-B) — the emitted stream reflects that cost.
//!
//! [`step`] is the decode-per-step reference (`guest_fast_path = false`).
//! The default path does not come through here: `Tol::interpret_bb` runs
//! a whole basic block from the guest layer's pre-decoded micro-op
//! buffers in one [`ExecCtx::run_visiting`](darco_guest::uops::ExecCtx::run_visiting)
//! call and charges the same cost stream from its per-op visitor
//! (DESIGN.md §16). The executed semantics and the emitted stream are
//! identical; the engine-level test below compares them event by event.

use crate::emission::Emitter;
use darco_guest::exec::{self, StepInfo};
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
    fn interpretation_through_the_visitor_emits_the_reference_stream() {
        // A counted loop with a memory access and a taken/not-taken
        // branch, interpreted only (no promotion), once per executor.
        // Every event must be equal — cost stream, boundaries and all;
        // the debug_assert inside interp_step_shaped additionally pins
        // the static emission shape against the dynamic key on every op.
        use crate::{Tol, TolConfig};
        use darco_guest::MemRef;
        use darco_host::events::{HostEvent, HostEventSink};

        struct Record(Vec<HostEvent>);
        impl HostEventSink for Record {
            fn consume(&mut self, batch: &[HostEvent]) {
                self.0.extend_from_slice(batch);
            }
        }

        let mut a = Asm::new(0x1000);
        a.push(Inst::MovRI { dst: Gpr::Ecx, imm: 50 });
        a.push(Inst::MovRI { dst: Gpr::Esi, imm: 0x4000 });
        let top = a.here();
        a.push(Inst::AluRI { op: darco_guest::AluOp::Add, dst: Gpr::Eax, imm: 3 });
        a.push(Inst::AluMR {
            op: darco_guest::AluOp::Add,
            addr: MemRef::base(Gpr::Esi, 0),
            src: Gpr::Eax,
        });
        a.push(Inst::AluRI { op: darco_guest::AluOp::Sub, dst: Gpr::Ecx, imm: 1 });
        a.push(Inst::Jcc { cond: darco_guest::Cond::Ne, target: top });
        a.push(Inst::Halt);
        let p = a.assemble();

        let run = |fast: bool| {
            let mut mem = GuestMem::new();
            mem.set_fast_path(fast);
            mem.write_bytes(p.base, &p.bytes);
            let cfg = TolConfig {
                im_bb_threshold: u32::MAX,
                guest_fast_path: fast,
                ..TolConfig::default()
            };
            let mut tol = Tol::new(cfg, p.base);
            let mut rec = Record(Vec::new());
            let n = tol.run(&mut mem, &mut rec, u64::MAX).unwrap();
            (tol.emulated_state(), n, rec.0, tol.fast_stats().uop_hits, tol.summary())
        };

        let (cpu_u, n_u, ev_u, _, sum_u) = run(false);
        let (cpu_f, n_f, ev_f, hits, sum_f) = run(true);
        assert!(cpu_u.arch_eq(&cpu_f));
        assert_eq!(n_u, n_f);
        assert_eq!(ev_u.len(), ev_f.len(), "event count");
        // `HostEvent` has no `PartialEq`; its `Debug` form prints every field.
        let differs = |(u, f): (&HostEvent, &HostEvent)| format!("{u:?}") != format!("{f:?}");
        if let Some(i) = ev_u.iter().zip(&ev_f).position(differs) {
            panic!("event {i} differs\nreference: {:?}\nvisitor:   {:?}", ev_u[i], ev_f[i]);
        }
        assert_eq!(sum_u.static_dist, sum_f.static_dist);
        assert_eq!(sum_u.counters.indirect_branches, sum_f.counters.indirect_branches);
        assert!(hits > 100, "loop body must hit the micro-op cache, got {hits}");
    }
}
