//! Functional execution of guest instructions: the independent
//! authority on g86 semantics.
//!
//! [`step`] decodes the bytes at `eip` and executes them, eagerly and
//! with nothing cached. Nothing on a default run calls it: the software
//! layer's interpreter and the default state checker execute through
//! [`crate::uops::ExecCtx`], which states the same semantics a second
//! time (lazy flags, pre-decoded blocks) and shares no code with this
//! file. That is what makes this the witness the other is held to — by
//! the differential tests (`guest_fast_path_matches_oracle_per_step`,
//! `tests/opcode_boundary.rs`) and by `darco verify`, which puts `step`
//! on the checking side of co-simulation.

use crate::decode::{decode, DecodeError};
use crate::inst::{AluOp, Cond, FpOp, Gpr, Inst, MemRef, MemWidth, ShiftOp};
use crate::mem::GuestMem;
use crate::state::{CpuState, Flags};

/// Longest possible instruction encoding, in bytes (`StoreI` with a
/// fully general memory operand and a 32-bit immediate: opcode + size
/// byte + 6 memory-operand bytes + 4 immediate bytes).
pub const MAX_INST_LEN: usize = 12;

/// What an instruction did to control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Fell through to the next sequential instruction.
    Next,
    /// Transferred control: `target` is the new `eip`.
    Jump {
        /// New instruction pointer.
        target: u32,
        /// For conditional branches, whether the branch was taken
        /// (`true` for unconditional transfers).
        taken: bool,
    },
    /// The program halted.
    Halt,
}

/// One guest memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Guest virtual address.
    pub addr: u32,
    /// Access size in bytes: 1 or 2 for the sub-word loads and stores,
    /// 4 for integer words, 8 for FP.
    pub size: u8,
    /// `true` for stores.
    pub is_store: bool,
}

/// Result of executing one instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct StepInfo {
    /// The decoded instruction.
    pub inst: Inst,
    /// Encoded length in bytes.
    pub len: usize,
    /// Control-flow outcome.
    pub control: Control,
    /// Data accesses performed (at most two: a read-modify-write is the
    /// largest, and never combines with a stack access).
    pub accesses: AccessList,
}

/// Fixed-capacity list of memory accesses (no instruction performs more
/// than two data accesses).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessList {
    items: [Option<MemAccess>; 2],
    len: u8,
}

impl AccessList {
    /// Appends an access.
    ///
    /// # Panics
    ///
    /// Panics if more than two accesses are recorded (an ISA invariant
    /// violation, not a runtime condition).
    pub fn push(&mut self, a: MemAccess) {
        self.items[self.len as usize] = Some(a);
        self.len += 1;
    }

    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no accesses were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the recorded accesses.
    pub fn iter(&self) -> impl Iterator<Item = &MemAccess> {
        self.items.iter().take(self.len as usize).flatten()
    }
}

/// Evaluates a branch condition against the flags.
pub fn cond_holds(cond: Cond, f: Flags) -> bool {
    match cond {
        Cond::E => f.zf,
        Cond::Ne => !f.zf,
        Cond::L => f.sf != f.of,
        Cond::Le => f.zf || f.sf != f.of,
        Cond::G => !f.zf && f.sf == f.of,
        Cond::Ge => f.sf == f.of,
        Cond::B => f.cf,
        Cond::Be => f.cf || f.zf,
        Cond::A => !f.cf && !f.zf,
        Cond::Ae => !f.cf,
        Cond::S => f.sf,
        Cond::Ns => !f.sf,
    }
}

/// Computes the effective address of a memory operand.
pub fn effective_address(m: &MemRef, cpu: &CpuState) -> u32 {
    let mut a = m.disp as u32;
    if let Some(b) = m.base {
        a = a.wrapping_add(cpu.gpr(b));
    }
    if let Some(i) = m.index {
        a = a.wrapping_add(cpu.gpr(i).wrapping_mul(m.scale.factor()));
    }
    a
}

fn alu(op: AluOp, a: u32, b: u32) -> (u32, Flags) {
    match op {
        AluOp::Add => (a.wrapping_add(b), Flags::add(a, b)),
        AluOp::Sub => (a.wrapping_sub(b), Flags::sub(a, b)),
        AluOp::And => (a & b, Flags::logic(a & b)),
        AluOp::Or => (a | b, Flags::logic(a | b)),
        AluOp::Xor => (a ^ b, Flags::logic(a ^ b)),
    }
}

fn shift(op: ShiftOp, v: u32, amount: u32) -> (u32, Flags) {
    let amt = amount & 31;
    if amt == 0 {
        // Flags unchanged on zero shift handled by the caller.
        return (v, Flags::from_result(v));
    }
    let (r, cf) = match op {
        ShiftOp::Shl => (v << amt, (v >> (32 - amt)) & 1 != 0),
        ShiftOp::Shr => (v >> amt, (v >> (amt - 1)) & 1 != 0),
        ShiftOp::Sar => (((v as i32) >> amt) as u32, ((v as i32) >> (amt - 1)) & 1 != 0),
    };
    let mut f = Flags::from_result(r);
    f.cf = cf;
    f.of = false;
    (r, f)
}

/// Signed, total division: divide-by-zero yields 0; `MIN / -1` yields `MIN`.
fn total_div(a: i32, b: i32) -> i32 {
    if b == 0 {
        0
    } else {
        a.wrapping_div(b)
    }
}

/// Executes the instruction at `cpu.eip`, updating state and memory.
///
/// Returns a [`StepInfo`] describing what happened, which callers use to
/// account instruction mixes, branch outcomes and data accesses.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the bytes at `eip` do not decode; the CPU
/// state is left unchanged in that case.
pub fn step(cpu: &mut CpuState, mem: &mut GuestMem) -> Result<StepInfo, DecodeError> {
    debug_assert!(!cpu.halted, "step() after halt");
    let mut window = [0u8; MAX_INST_LEN];
    mem.read_bytes(cpu.eip, &mut window);
    let (inst, len) = decode(&window)?;
    let next = cpu.eip.wrapping_add(len as u32);
    let mut accesses = AccessList::default();
    let mut control = Control::Next;

    use Inst::*;
    match inst {
        Nop | Syscall => {}
        Halt => {
            cpu.halted = true;
            control = Control::Halt;
        }
        MovRR { dst, src } => cpu.set_gpr(dst, cpu.gpr(src)),
        MovRI { dst, imm } => cpu.set_gpr(dst, imm as u32),
        Load { dst, addr } => {
            let a = effective_address(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 4, is_store: false });
            cpu.set_gpr(dst, mem.read_u32(a));
        }
        Store { addr, src } => {
            let a = effective_address(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 4, is_store: true });
            mem.write_u32(a, cpu.gpr(src));
        }
        StoreI { addr, imm } => {
            let a = effective_address(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 4, is_store: true });
            mem.write_u32(a, imm as u32);
        }
        LoadZx { dst, addr, width } => {
            let a = effective_address(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: width.bytes(), is_store: false });
            let v = match width {
                MemWidth::B1 => mem.read_u8(a) as u32,
                MemWidth::B2 => mem.read_u16(a) as u32,
            };
            cpu.set_gpr(dst, v);
        }
        LoadSx { dst, addr, width } => {
            let a = effective_address(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: width.bytes(), is_store: false });
            let v = match width {
                MemWidth::B1 => mem.read_u8(a) as i8 as i32 as u32,
                MemWidth::B2 => mem.read_u16(a) as i16 as i32 as u32,
            };
            cpu.set_gpr(dst, v);
        }
        StoreN { addr, src, width } => {
            let a = effective_address(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: width.bytes(), is_store: true });
            match width {
                MemWidth::B1 => mem.write_u8(a, cpu.gpr(src) as u8),
                MemWidth::B2 => mem.write_u16(a, cpu.gpr(src) as u16),
            }
        }
        Lea { dst, addr } => cpu.set_gpr(dst, effective_address(&addr, cpu)),
        AluRR { op, dst, src } => {
            let (r, f) = alu(op, cpu.gpr(dst), cpu.gpr(src));
            cpu.set_gpr(dst, r);
            cpu.flags = f;
        }
        AluRI { op, dst, imm } => {
            let (r, f) = alu(op, cpu.gpr(dst), imm as u32);
            cpu.set_gpr(dst, r);
            cpu.flags = f;
        }
        AluRM { op, dst, addr } => {
            let a = effective_address(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 4, is_store: false });
            let (r, f) = alu(op, cpu.gpr(dst), mem.read_u32(a));
            cpu.set_gpr(dst, r);
            cpu.flags = f;
        }
        AluMR { op, addr, src } => {
            let a = effective_address(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 4, is_store: false });
            accesses.push(MemAccess { addr: a, size: 4, is_store: true });
            let (r, f) = alu(op, mem.read_u32(a), cpu.gpr(src));
            mem.write_u32(a, r);
            cpu.flags = f;
        }
        CmpRR { a, b } => cpu.flags = Flags::sub(cpu.gpr(a), cpu.gpr(b)),
        CmpRI { a, imm } => cpu.flags = Flags::sub(cpu.gpr(a), imm as u32),
        TestRR { a, b } => cpu.flags = Flags::logic(cpu.gpr(a) & cpu.gpr(b)),
        Shift { op, dst, amount } => {
            if amount & 31 != 0 {
                let (r, f) = shift(op, cpu.gpr(dst), amount as u32);
                cpu.set_gpr(dst, r);
                cpu.flags = f;
            }
        }
        ShiftCl { op, dst } => {
            // Unlike the immediate form, the CL form always writes flags
            // (logic flags of the unchanged value when the amount is
            // zero), so translated straight-line code needs no
            // conditional skip.
            let amt = cpu.gpr(Gpr::Ecx) & 31;
            if amt != 0 {
                let (r, f) = shift(op, cpu.gpr(dst), amt);
                cpu.set_gpr(dst, r);
                cpu.flags = f;
            } else {
                cpu.flags = Flags::logic(cpu.gpr(dst));
            }
        }
        Imul { dst, src } => {
            let a = cpu.gpr(dst) as i32 as i64;
            let b = cpu.gpr(src) as i32 as i64;
            let wide = a * b;
            let r = wide as i32;
            let overflow = wide != r as i64;
            cpu.set_gpr(dst, r as u32);
            let mut f = Flags::from_result(r as u32);
            f.cf = overflow;
            f.of = overflow;
            cpu.flags = f;
        }
        Idiv { dst, src } => {
            let r = total_div(cpu.gpr(dst) as i32, cpu.gpr(src) as i32);
            cpu.set_gpr(dst, r as u32);
            cpu.flags = Flags::from_result(r as u32);
        }
        Neg { dst } => {
            let v = cpu.gpr(dst);
            let (r, mut f) = alu(AluOp::Sub, 0, v);
            f.cf = v != 0;
            cpu.set_gpr(dst, r);
            cpu.flags = f;
        }
        Not { dst } => cpu.set_gpr(dst, !cpu.gpr(dst)),
        Push { src } => {
            let sp = cpu.gpr(Gpr::Esp).wrapping_sub(4);
            cpu.set_gpr(Gpr::Esp, sp);
            accesses.push(MemAccess { addr: sp, size: 4, is_store: true });
            mem.write_u32(sp, cpu.gpr(src));
        }
        Pop { dst } => {
            let sp = cpu.gpr(Gpr::Esp);
            accesses.push(MemAccess { addr: sp, size: 4, is_store: false });
            let v = mem.read_u32(sp);
            cpu.set_gpr(Gpr::Esp, sp.wrapping_add(4));
            cpu.set_gpr(dst, v);
        }
        Jcc { cond, target } => {
            if cond_holds(cond, cpu.flags) {
                control = Control::Jump { target, taken: true };
            } else {
                control = Control::Jump { target: next, taken: false };
            }
        }
        Jmp { target } => control = Control::Jump { target, taken: true },
        JmpInd { reg } => {
            control = Control::Jump { target: cpu.gpr(reg), taken: true };
        }
        JmpMem { addr } => {
            let a = effective_address(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 4, is_store: false });
            control = Control::Jump { target: mem.read_u32(a), taken: true };
        }
        Call { target } => {
            let sp = cpu.gpr(Gpr::Esp).wrapping_sub(4);
            cpu.set_gpr(Gpr::Esp, sp);
            accesses.push(MemAccess { addr: sp, size: 4, is_store: true });
            mem.write_u32(sp, next);
            control = Control::Jump { target, taken: true };
        }
        CallInd { reg } => {
            let target = cpu.gpr(reg);
            let sp = cpu.gpr(Gpr::Esp).wrapping_sub(4);
            cpu.set_gpr(Gpr::Esp, sp);
            accesses.push(MemAccess { addr: sp, size: 4, is_store: true });
            mem.write_u32(sp, next);
            control = Control::Jump { target, taken: true };
        }
        Ret => {
            let sp = cpu.gpr(Gpr::Esp);
            accesses.push(MemAccess { addr: sp, size: 4, is_store: false });
            let target = mem.read_u32(sp);
            cpu.set_gpr(Gpr::Esp, sp.wrapping_add(4));
            control = Control::Jump { target, taken: true };
        }
        FMovRR { dst, src } => cpu.set_fpr(dst, cpu.fpr(src)),
        FLoad { dst, addr } => {
            let a = effective_address(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 8, is_store: false });
            cpu.set_fpr(dst, mem.read_f64(a));
        }
        FStore { addr, src } => {
            let a = effective_address(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 8, is_store: true });
            mem.write_f64(a, cpu.fpr(src));
        }
        FArith { op, dst, src } => {
            let a = cpu.fpr(dst);
            let b = cpu.fpr(src);
            let r = match op {
                FpOp::Add => a + b,
                FpOp::Sub => a - b,
                FpOp::Mul => a * b,
                FpOp::Div => a / b,
            };
            cpu.set_fpr(dst, r);
        }
        CvtIF { dst, src } => cpu.set_fpr(dst, cpu.gpr(src) as i32 as f64),
        CvtFI { dst, src } => {
            let v = cpu.fpr(src);
            let r = if v.is_nan() { 0 } else { v.clamp(i32::MIN as f64, i32::MAX as f64) as i32 };
            cpu.set_gpr(dst, r as u32);
        }
    }

    cpu.eip = match control {
        Control::Next => next,
        Control::Jump { target, .. } => target,
        Control::Halt => cpu.eip,
    };

    Ok(StepInfo { inst, len, control, accesses })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::inst::Scale;

    fn run(insts: &[Inst]) -> (CpuState, GuestMem) {
        let mut a = Asm::new(0x1000);
        for i in insts {
            a.push(*i);
        }
        a.push(Inst::Halt);
        let prog = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(prog.base, &prog.bytes);
        let mut cpu = CpuState::at(prog.base);
        cpu.set_gpr(Gpr::Esp, 0x8_0000);
        for _ in 0..10_000 {
            if cpu.halted {
                break;
            }
            step(&mut cpu, &mut mem).unwrap();
        }
        assert!(cpu.halted, "program did not halt");
        (cpu, mem)
    }

    #[test]
    fn arithmetic_and_flags() {
        let (cpu, _) = run(&[
            Inst::MovRI { dst: Gpr::Eax, imm: 7 },
            Inst::MovRI { dst: Gpr::Ebx, imm: 5 },
            Inst::Imul { dst: Gpr::Eax, src: Gpr::Ebx },
            Inst::AluRI { op: AluOp::Sub, dst: Gpr::Eax, imm: 35 },
        ]);
        assert_eq!(cpu.gpr(Gpr::Eax), 0);
        assert!(cpu.flags.zf);
    }

    #[test]
    fn division_is_total() {
        let (cpu, _) = run(&[
            Inst::MovRI { dst: Gpr::Eax, imm: 10 },
            Inst::MovRI { dst: Gpr::Ebx, imm: 0 },
            Inst::Idiv { dst: Gpr::Eax, src: Gpr::Ebx },
        ]);
        assert_eq!(cpu.gpr(Gpr::Eax), 0);
        let (cpu, _) = run(&[
            Inst::MovRI { dst: Gpr::Eax, imm: i32::MIN },
            Inst::MovRI { dst: Gpr::Ebx, imm: -1 },
            Inst::Idiv { dst: Gpr::Eax, src: Gpr::Ebx },
        ]);
        assert_eq!(cpu.gpr(Gpr::Eax) as i32, i32::MIN);
    }

    #[test]
    fn memory_rmw() {
        let (cpu, mem) = run(&[
            Inst::MovRI { dst: Gpr::Esi, imm: 0x4000 },
            Inst::StoreI { addr: MemRef::base(Gpr::Esi, 0), imm: 10 },
            Inst::MovRI { dst: Gpr::Eax, imm: 32 },
            Inst::AluMR { op: AluOp::Add, addr: MemRef::base(Gpr::Esi, 0), src: Gpr::Eax },
        ]);
        assert_eq!(mem.read_u32(0x4000), 42);
        assert!(!cpu.flags.zf);
    }

    #[test]
    fn push_pop_call_ret() {
        // call a function that adds 1 to eax and returns.
        let mut a = Asm::new(0x1000);
        let func = a.fresh_label();
        let done = a.fresh_label();
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 41 });
        a.push_call(func);
        a.push_jmp(done);
        a.bind(func);
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 });
        a.push(Inst::Ret);
        a.bind(done);
        a.push(Inst::Halt);
        let prog = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(prog.base, &prog.bytes);
        let mut cpu = CpuState::at(prog.base);
        cpu.set_gpr(Gpr::Esp, 0x8_0000);
        while !cpu.halted {
            step(&mut cpu, &mut mem).unwrap();
        }
        assert_eq!(cpu.gpr(Gpr::Eax), 42);
        assert_eq!(cpu.gpr(Gpr::Esp), 0x8_0000);
    }

    #[test]
    fn conditional_branch_loop() {
        // for (eax = 0; eax != 10; eax++);
        let mut a = Asm::new(0x2000);
        let top = a.fresh_label();
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 0 });
        a.bind(top);
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 });
        a.push(Inst::CmpRI { a: Gpr::Eax, imm: 10 });
        a.push_jcc(Cond::Ne, top);
        a.push(Inst::Halt);
        let prog = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(prog.base, &prog.bytes);
        let mut cpu = CpuState::at(prog.base);
        while !cpu.halted {
            step(&mut cpu, &mut mem).unwrap();
        }
        assert_eq!(cpu.gpr(Gpr::Eax), 10);
    }

    #[test]
    fn indirect_jump_table() {
        // Jump table with two entries, select entry 1.
        let mut a = Asm::new(0x3000);
        let table = 0x9000u32;
        let t0 = a.fresh_label();
        let t1 = a.fresh_label();
        a.push(Inst::MovRI { dst: Gpr::Ecx, imm: 1 });
        a.push(Inst::JmpMem {
            addr: MemRef {
                base: None,
                index: Some(Gpr::Ecx),
                scale: Scale::S4,
                disp: table as i32,
            },
        });
        a.bind(t0);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 100 });
        a.push(Inst::Halt);
        a.bind(t1);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 200 });
        a.push(Inst::Halt);
        let prog = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(prog.base, &prog.bytes);
        mem.write_u32(table, prog.label_addr(t0));
        mem.write_u32(table + 4, prog.label_addr(t1));
        let mut cpu = CpuState::at(prog.base);
        while !cpu.halted {
            step(&mut cpu, &mut mem).unwrap();
        }
        assert_eq!(cpu.gpr(Gpr::Eax), 200);
    }

    #[test]
    fn subword_loads_and_stores() {
        let (cpu, mem) = run(&[
            Inst::MovRI { dst: Gpr::Esi, imm: 0x4000 },
            // Store 0xFFEE as a halfword, read back pieces.
            Inst::MovRI { dst: Gpr::Eax, imm: 0xFFEE },
            Inst::StoreN { addr: MemRef::base(Gpr::Esi, 0), src: Gpr::Eax, width: MemWidth::B2 },
            Inst::LoadZx { dst: Gpr::Ebx, addr: MemRef::base(Gpr::Esi, 0), width: MemWidth::B1 },
            Inst::LoadSx { dst: Gpr::Ecx, addr: MemRef::base(Gpr::Esi, 0), width: MemWidth::B1 },
            Inst::LoadZx { dst: Gpr::Edx, addr: MemRef::base(Gpr::Esi, 0), width: MemWidth::B2 },
            Inst::LoadSx { dst: Gpr::Edi, addr: MemRef::base(Gpr::Esi, 0), width: MemWidth::B2 },
        ]);
        assert_eq!(mem.read_u16(0x4000), 0xFFEE);
        assert_eq!(cpu.gpr(Gpr::Ebx), 0xEE, "zero-extended byte");
        assert_eq!(cpu.gpr(Gpr::Ecx) as i32, -18, "sign-extended byte (0xEE)");
        assert_eq!(cpu.gpr(Gpr::Edx), 0xFFEE, "zero-extended halfword");
        assert_eq!(cpu.gpr(Gpr::Edi) as i32, -18, "sign-extended halfword (0xFFEE)");
    }

    #[test]
    fn fp_pipeline() {
        use crate::inst::FpReg;
        let (cpu, _) = run(&[
            Inst::MovRI { dst: Gpr::Eax, imm: 3 },
            Inst::CvtIF { dst: FpReg(0), src: Gpr::Eax },
            Inst::MovRI { dst: Gpr::Ebx, imm: 4 },
            Inst::CvtIF { dst: FpReg(1), src: Gpr::Ebx },
            Inst::FArith { op: FpOp::Mul, dst: FpReg(0), src: FpReg(1) },
            Inst::FArith { op: FpOp::Add, dst: FpReg(0), src: FpReg(0) },
            Inst::CvtFI { dst: Gpr::Edx, src: FpReg(0) },
        ]);
        assert_eq!(cpu.gpr(Gpr::Edx), 24);
    }

    #[test]
    fn shift_by_zero_preserves_flags() {
        let (cpu, _) = run(&[
            Inst::MovRI { dst: Gpr::Eax, imm: 5 },
            Inst::CmpRI { a: Gpr::Eax, imm: 5 }, // sets ZF
            Inst::Shift { op: ShiftOp::Shl, dst: Gpr::Eax, amount: 0 },
        ]);
        assert!(cpu.flags.zf, "zero shift must not clobber flags");
        assert_eq!(cpu.gpr(Gpr::Eax), 5);
    }

    #[test]
    fn cond_coverage() {
        let f = Flags::sub(1, 2); // 1 < 2
        assert!(cond_holds(Cond::L, f));
        assert!(cond_holds(Cond::Le, f));
        assert!(cond_holds(Cond::Ne, f));
        assert!(cond_holds(Cond::B, f));
        assert!(cond_holds(Cond::Be, f));
        assert!(cond_holds(Cond::S, f));
        assert!(!cond_holds(Cond::G, f));
        assert!(!cond_holds(Cond::Ge, f));
        assert!(!cond_holds(Cond::A, f));
        assert!(!cond_holds(Cond::Ae, f));
        assert!(!cond_holds(Cond::E, f));
        assert!(!cond_holds(Cond::Ns, f));
    }
}
