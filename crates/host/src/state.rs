//! Functional execution of host instructions.
//!
//! Translated application code manipulates the emulated guest's 32-bit
//! state, so the architectural width that matters is 32 bits: integer
//! registers hold `u32` values and memory operands address guest memory
//! directly. `r0` is hardwired to zero.

use crate::isa::{Exit, FlagsKind, HAluOp, HCond, HFreg, HInst, HReg, Width};
use darco_guest::exec::cond_holds;
use darco_guest::{Flags, FpOp, GuestMem};

/// Host register state used when executing translated code.
#[derive(Debug, Clone, PartialEq)]
pub struct HostState {
    regs: [u32; HReg::COUNT as usize],
    fregs: [f64; HFreg::COUNT as usize],
}

impl Default for HostState {
    fn default() -> HostState {
        HostState::new()
    }
}

impl HostState {
    /// A zeroed register file.
    pub fn new() -> HostState {
        HostState { regs: [0; HReg::COUNT as usize], fregs: [0.0; HFreg::COUNT as usize] }
    }

    /// Reads an integer register (`r0` always reads zero).
    #[inline]
    pub fn reg(&self, r: HReg) -> u32 {
        self.regs[r.0 as usize]
    }

    /// Writes an integer register (writes to `r0` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: HReg, v: u32) {
        if r.0 != 0 {
            self.regs[r.0 as usize] = v;
        }
    }

    /// Reads an FP register.
    #[inline]
    pub fn freg(&self, r: HFreg) -> f64 {
        self.fregs[r.0 as usize]
    }

    /// Writes an FP register.
    #[inline]
    pub fn set_freg(&mut self, r: HFreg, v: f64) {
        self.fregs[r.0 as usize] = v;
    }
}

/// Result of executing one host instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Fall through to the next instruction in the block.
    Next,
    /// Branch/jump taken to a local instruction index.
    Taken(u32),
    /// Control left the translation.
    Exited(Exit),
}

/// Evaluates a host ALU operation on 32-bit values: what [`exec_inst`]
/// executes, and what the software layer's constant folder folds with,
/// so the two agree.
pub fn eval_alu(op: HAluOp, a: u32, b: u32) -> u32 {
    match op {
        HAluOp::Add => a.wrapping_add(b),
        HAluOp::Sub => a.wrapping_sub(b),
        HAluOp::And => a & b,
        HAluOp::Or => a | b,
        HAluOp::Xor => a ^ b,
        HAluOp::Shl => a.wrapping_shl(b & 31),
        HAluOp::Shr => a.wrapping_shr(b & 31),
        HAluOp::Sar => ((a as i32).wrapping_shr(b & 31)) as u32,
        HAluOp::SltS => ((a as i32) < (b as i32)) as u32,
        HAluOp::SltU => (a < b) as u32,
    }
}

/// The flags word a [`FlagsKind`] materialization produces for
/// operands `a`, `b` (`HInst::FlagsArith`).
fn flags_word(kind: FlagsKind, a: u32, b: u32) -> u32 {
    let f = match kind {
        FlagsKind::Add => Flags::add(a, b),
        FlagsKind::Sub => Flags::sub(a, b),
        FlagsKind::Logic => Flags::logic(a),
        FlagsKind::Shl | FlagsKind::Shr | FlagsKind::Sar => {
            let amt = b & 31;
            if amt == 0 {
                // Callers must not emit zero-amount shift flags; treat as
                // logic flags of the unchanged value for totality.
                Flags::logic(a)
            } else {
                let (r, cf) = match kind {
                    FlagsKind::Shl => (a << amt, (a >> (32 - amt)) & 1 != 0),
                    FlagsKind::Shr => (a >> amt, (a >> (amt - 1)) & 1 != 0),
                    _ => (((a as i32) >> amt) as u32, ((a as i32) >> (amt - 1)) & 1 != 0),
                };
                let mut f = Flags::from_result(r);
                f.cf = cf;
                f
            }
        }
        FlagsKind::Mul => {
            let wide = (a as i32 as i64) * (b as i32 as i64);
            let overflow = wide != wide as i32 as i64;
            let mut f = Flags::from_result(wide as i32 as u32);
            f.cf = overflow;
            f.of = overflow;
            f
        }
    };
    f.to_word()
}

fn cond_eval(cond: HCond, a: u32, b: u32) -> bool {
    match cond {
        HCond::Eq => a == b,
        HCond::Ne => a != b,
        HCond::LtS => (a as i32) < (b as i32),
        HCond::GeS => (a as i32) >= (b as i32),
        HCond::LtU => a < b,
        HCond::GeU => a >= b,
    }
}

/// Executes one host instruction against guest memory.
///
/// Returns where control goes next. Memory operands address the guest's
/// 32-bit space directly (the identity mapping of
/// [`crate::layout::GUEST_BASE`]).
pub fn exec_inst(st: &mut HostState, inst: &HInst, mem: &mut GuestMem) -> Outcome {
    use crate::isa::Inst::*;
    match *inst {
        Nop => {}
        Alu { op, rd, ra, rb } => st.set_reg(rd, eval_alu(op, st.reg(ra), st.reg(rb))),
        AluI { op, rd, ra, imm } => st.set_reg(rd, eval_alu(op, st.reg(ra), imm as u32)),
        Li { rd, imm } => st.set_reg(rd, imm as u32),
        Mul { rd, ra, rb } => {
            st.set_reg(rd, (st.reg(ra) as i32).wrapping_mul(st.reg(rb) as i32) as u32)
        }
        Div { rd, ra, rb } => {
            let b = st.reg(rb) as i32;
            let r = if b == 0 { 0 } else { (st.reg(ra) as i32).wrapping_div(b) };
            st.set_reg(rd, r as u32);
        }
        FlagsArith { kind, rd, ra, rb } => st.set_reg(rd, flags_word(kind, st.reg(ra), st.reg(rb))),
        Prefetch { .. } => {} // a hint: no architectural effect
        Ld { rd, base, off, width } => {
            let a = st.reg(base).wrapping_add(off as u32);
            let v = match width {
                Width::W1 => mem.read_u8(a) as u32,
                Width::W2 => mem.read_u16(a) as u32,
                Width::W4 => mem.read_u32(a),
                Width::W8 => mem.read_u64(a) as u32,
            };
            st.set_reg(rd, v);
        }
        St { rs, base, off, width } => {
            let a = st.reg(base).wrapping_add(off as u32);
            match width {
                Width::W1 => mem.write_u8(a, st.reg(rs) as u8),
                Width::W2 => mem.write_u16(a, st.reg(rs) as u16),
                Width::W4 => mem.write_u32(a, st.reg(rs)),
                Width::W8 => mem.write_u64(a, st.reg(rs) as u64),
            }
        }
        FLd { fd, base, off } => {
            let a = st.reg(base).wrapping_add(off as u32);
            st.set_freg(fd, mem.read_f64(a));
        }
        FSt { fs, base, off } => {
            let a = st.reg(base).wrapping_add(off as u32);
            mem.write_f64(a, st.freg(fs));
        }
        FMov { fd, fa } => st.set_freg(fd, st.freg(fa)),
        FArith { op, fd, fa, fb } => {
            let a = st.freg(fa);
            let b = st.freg(fb);
            let r = match op {
                FpOp::Add => a + b,
                FpOp::Sub => a - b,
                FpOp::Mul => a * b,
                FpOp::Div => a / b,
            };
            st.set_freg(fd, r);
        }
        CvtIF { fd, ra } => st.set_freg(fd, st.reg(ra) as i32 as f64),
        CvtFI { rd, fa } => {
            let v = st.freg(fa);
            let r = if v.is_nan() { 0 } else { v.clamp(i32::MIN as f64, i32::MAX as f64) as i32 };
            st.set_reg(rd, r as u32);
        }
        Br { cond, ra, rb, target } => {
            if cond_eval(cond, st.reg(ra), st.reg(rb)) {
                return Outcome::Taken(target);
            }
        }
        BrFlags { cond, flags, target } => {
            if cond_holds(cond, Flags::from_word(st.reg(flags))) {
                return Outcome::Taken(target);
            }
        }
        Jump { target } => return Outcome::Taken(target),
        Exit(e) => return Outcome::Exited(e),
    }
    Outcome::Next
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_guest::Cond;

    #[test]
    fn r0_is_hardwired_zero() {
        let mut st = HostState::new();
        st.set_reg(HReg(0), 123);
        assert_eq!(st.reg(HReg(0)), 0);
        st.set_reg(HReg(1), 123);
        assert_eq!(st.reg(HReg(1)), 123);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(eval_alu(HAluOp::Add, u32::MAX, 1), 0);
        assert_eq!(eval_alu(HAluOp::Sar, 0x8000_0000, 31), u32::MAX);
        assert_eq!(eval_alu(HAluOp::Shr, 0x8000_0000, 31), 1);
        assert_eq!(eval_alu(HAluOp::SltS, u32::MAX, 0), 1); // -1 < 0 signed
        assert_eq!(eval_alu(HAluOp::SltU, u32::MAX, 0), 0);
    }

    #[test]
    fn flags_match_guest_semantics() {
        // The host FlagsArith must agree with the guest's flag rules,
        // since translated code stores these words into the emulated
        // flags register.
        for (a, b) in [(0u32, 0u32), (5, 5), (0, 1), (u32::MAX, 1), (1 << 31, 1)] {
            assert_eq!(flags_word(FlagsKind::Add, a, b), Flags::add(a, b).to_word());
            assert_eq!(flags_word(FlagsKind::Sub, a, b), Flags::sub(a, b).to_word());
        }
        assert_eq!(flags_word(FlagsKind::Logic, 0, 0), Flags::logic(0).to_word());
    }

    #[test]
    fn memory_and_branches() {
        let mut st = HostState::new();
        let mut mem = GuestMem::new();
        st.set_reg(HReg(2), 0x1000);
        exec_inst(&mut st, &HInst::Li { rd: HReg(3), imm: 77 }, &mut mem);
        exec_inst(
            &mut st,
            &HInst::St { rs: HReg(3), base: HReg(2), off: 4, width: Width::W4 },
            &mut mem,
        );
        assert_eq!(mem.read_u32(0x1004), 77);
        exec_inst(
            &mut st,
            &HInst::Ld { rd: HReg(4), base: HReg(2), off: 4, width: Width::W4 },
            &mut mem,
        );
        assert_eq!(st.reg(HReg(4)), 77);

        let taken = exec_inst(
            &mut st,
            &HInst::Br { cond: HCond::Eq, ra: HReg(3), rb: HReg(4), target: 9 },
            &mut mem,
        );
        assert_eq!(taken, Outcome::Taken(9));
        let not = exec_inst(
            &mut st,
            &HInst::Br { cond: HCond::Ne, ra: HReg(3), rb: HReg(4), target: 9 },
            &mut mem,
        );
        assert_eq!(not, Outcome::Next);
    }

    #[test]
    fn brflags_agrees_with_guest_conditions() {
        let mut st = HostState::new();
        let mut mem = GuestMem::new();
        let f = Flags::sub(1, 2); // 1 < 2: L, B, Ne, S hold
        st.set_reg(HReg(9), f.to_word());
        for (cond, expect) in [
            (Cond::L, true),
            (Cond::B, true),
            (Cond::Ne, true),
            (Cond::E, false),
            (Cond::Ge, false),
        ] {
            let out =
                exec_inst(&mut st, &HInst::BrFlags { cond, flags: HReg(9), target: 1 }, &mut mem);
            assert_eq!(out == Outcome::Taken(1), expect, "cond {cond:?}");
        }
    }

    #[test]
    fn exits_propagate() {
        let mut st = HostState::new();
        let mut mem = GuestMem::new();
        let out = exec_inst(&mut st, &HInst::Exit(Exit::Halt), &mut mem);
        assert_eq!(out, Outcome::Exited(Exit::Halt));
    }

    #[test]
    fn fp_ops() {
        let mut st = HostState::new();
        let mut mem = GuestMem::new();
        st.set_reg(HReg(1), 6);
        exec_inst(&mut st, &HInst::CvtIF { fd: HFreg(0), ra: HReg(1) }, &mut mem);
        exec_inst(&mut st, &HInst::FMov { fd: HFreg(1), fa: HFreg(0) }, &mut mem);
        exec_inst(
            &mut st,
            &HInst::FArith { op: FpOp::Mul, fd: HFreg(0), fa: HFreg(0), fb: HFreg(1) },
            &mut mem,
        );
        exec_inst(&mut st, &HInst::CvtFI { rd: HReg(2), fa: HFreg(0) }, &mut mem);
        assert_eq!(st.reg(HReg(2)), 36);
    }
}
