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
///
/// `#[inline]` so that the match compiles into the translated-block
/// loop of the software layer, which calls this once per retired host
/// instruction from another crate (the build has no LTO).
#[inline]
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
    use crate::isa::BlockId;
    use darco_guest::Cond;
    use std::mem::discriminant;

    /// Where the per-variant cases' memory lives: `DATA_LEN` bytes
    /// `0xF0, 0xF1, ...` from `DATA`, zero around them.
    const DATA: u32 = 0x2000;
    const DATA_LEN: u32 = 16;

    /// One execution of one instruction from a known state: the
    /// registers every case starts from, overridden by `regs`/`fregs`,
    /// and the `DATA` bytes.
    struct Case {
        inst: HInst,
        regs: Vec<(HReg, u32)>,
        fregs: Vec<(HFreg, f64)>,
        outcome: Outcome,
        want_reg: Option<(HReg, u32)>,
        want_freg: Option<(HFreg, f64)>,
        want_bytes: Option<(u32, Vec<u8>)>,
    }

    impl Case {
        /// A case that changes nothing but where control goes.
        fn new(inst: HInst, outcome: Outcome) -> Case {
            Case {
                inst,
                regs: Vec::new(),
                fregs: Vec::new(),
                outcome,
                want_reg: None,
                want_freg: None,
                want_bytes: None,
            }
        }

        /// A case that falls through having written `rd = v`.
        fn writes(inst: HInst, rd: HReg, v: u32) -> Case {
            Case { want_reg: Some((rd, v)), ..Case::new(inst, Outcome::Next) }
        }

        /// A case that falls through having written `fd = v`.
        fn writes_f(inst: HInst, fd: HFreg, v: f64) -> Case {
            Case { want_freg: Some((fd, v)), ..Case::new(inst, Outcome::Next) }
        }

        /// A case that falls through having stored `bytes` at `addr`.
        fn stores(inst: HInst, addr: u32, bytes: &[u8]) -> Case {
            Case { want_bytes: Some((addr, bytes.to_vec())), ..Case::new(inst, Outcome::Next) }
        }

        fn reg(mut self, r: HReg, v: u32) -> Case {
            self.regs.push((r, v));
            self
        }

        fn freg(mut self, r: HFreg, v: f64) -> Case {
            self.fregs.push((r, v));
            self
        }
    }

    /// Every register holds a distinct value, so a write of any value
    /// to the wrong register shows.
    fn start_state() -> HostState {
        let mut st = HostState::new();
        for i in 1..HReg::COUNT {
            st.set_reg(HReg(i), 0x5A5A_0000 | i as u32);
        }
        for i in 0..HFreg::COUNT {
            st.set_freg(HFreg(i), 100.0 + i as f64);
        }
        st
    }

    /// One instruction of every [`HInst`] variant.
    fn templates() -> Vec<HInst> {
        use crate::isa::Inst::*;
        let (r, f) = (HReg(1), HFreg(1));
        vec![
            Nop,
            Alu { op: HAluOp::Add, rd: r, ra: r, rb: r },
            AluI { op: HAluOp::Add, rd: r, ra: r, imm: 0 },
            Li { rd: r, imm: 0 },
            Mul { rd: r, ra: r, rb: r },
            Div { rd: r, ra: r, rb: r },
            FlagsArith { kind: FlagsKind::Add, rd: r, ra: r, rb: r },
            Prefetch { base: r, off: 0 },
            Ld { rd: r, base: r, off: 0, width: Width::W4 },
            St { rs: r, base: r, off: 0, width: Width::W4 },
            FLd { fd: f, base: r, off: 0 },
            FSt { fs: f, base: r, off: 0 },
            FMov { fd: f, fa: f },
            FArith { op: FpOp::Add, fd: f, fa: f, fb: f },
            CvtIF { fd: f, ra: r },
            CvtFI { rd: r, fa: f },
            Br { cond: HCond::Eq, ra: r, rb: r, target: 0 },
            BrFlags { cond: Cond::E, flags: r, target: 0 },
            Jump { target: 0 },
            Exit(crate::isa::Exit::Halt),
        ]
    }

    /// The cases of `template`'s variant. The `match` has no wildcard
    /// arm: a new host instruction does not compile until it has cases
    /// here (and a template in [`templates`]).
    fn cases_for(template: &HInst, out: &mut Vec<Case>) {
        use crate::isa::Inst::*;
        let (ra, rb, rd, base) = (HReg(1), HReg(2), HReg(3), HReg(4));
        let (fa, fb, fd) = (HFreg(1), HFreg(2), HFreg(3));
        let min = i32::MIN as u32;
        let neg = |v: i32| v as u32;
        match *template {
            Nop => out.push(Case::new(Nop, Outcome::Next)),
            Alu { .. } => {
                for (op, a, b, v) in [
                    (HAluOp::Add, u32::MAX, 1, 0),
                    (HAluOp::Sub, 0, 1, u32::MAX),
                    (HAluOp::And, 0xF0F0, 0xFF00, 0xF000),
                    (HAluOp::Or, 0xF0F0, 0xFF00, 0xFFF0),
                    (HAluOp::Xor, 0xF0F0, 0xFF00, 0x0FF0),
                    (HAluOp::Shl, 3, 33, 6), // amounts are taken mod 32
                    (HAluOp::Shr, min, 31, 1),
                    (HAluOp::Sar, min, 31, u32::MAX),
                    (HAluOp::SltS, u32::MAX, 0, 1),
                    (HAluOp::SltU, u32::MAX, 0, 0),
                ] {
                    let inst = Alu { op, rd, ra, rb };
                    out.push(Case::writes(inst, rd, v).reg(ra, a).reg(rb, b));
                }
                // A write to r0 is discarded.
                let inst = Alu { op: HAluOp::Add, rd: HReg(0), ra, rb };
                out.push(Case::new(inst, Outcome::Next).reg(ra, 1).reg(rb, 2));
            }
            AluI { .. } => {
                // The immediate is sign-extended to 32 bits.
                let add = AluI { op: HAluOp::Add, rd, ra, imm: -1 };
                out.push(Case::writes(add, rd, 4).reg(ra, 5));
                let sltu = AluI { op: HAluOp::SltU, rd, ra, imm: -1 };
                out.push(Case::writes(sltu, rd, 1).reg(ra, 5));
            }
            Li { .. } => {
                out.push(Case::writes(Li { rd, imm: -1 }, rd, u32::MAX));
                out.push(Case::writes(Li { rd, imm: 0 }, rd, 0));
            }
            Mul { .. } => {
                for (a, b, v) in [
                    (0x1_0000, 0x1_0000, 0), // wraps
                    (i32::MAX as u32, 2, 0xFFFF_FFFE),
                    (neg(-3), 7, neg(-21)),
                ] {
                    out.push(Case::writes(Mul { rd, ra, rb }, rd, v).reg(ra, a).reg(rb, b));
                }
            }
            Div { .. } => {
                for (a, b, v) in [
                    (7, neg(-2), neg(-3)), // truncates toward zero
                    (7, 0, 0),             // total: x / 0 = 0
                    (min, neg(-1), min),   // i32::MIN / -1 wraps
                ] {
                    out.push(Case::writes(Div { rd, ra, rb }, rd, v).reg(ra, a).reg(rb, b));
                }
            }
            FlagsArith { .. } => {
                // Words are CF | ZF << 1 | SF << 2 | OF << 3 | PF << 4.
                let a = 0x8000_0001;
                for (kind, a, b, word) in [
                    (FlagsKind::Add, u32::MAX, 1, 0b10011),
                    (FlagsKind::Sub, 0, 1, 0b10101),
                    (FlagsKind::Logic, 0, 0, 0b10010),
                    (FlagsKind::Mul, 0x1_0000, 0x1_0000, 0b11011),
                    (FlagsKind::Shl, a, 0, 0b00100), // amount 0: logic flags of `a`
                    (FlagsKind::Shl, a, 1, 0b00001),
                    (FlagsKind::Shl, a, 31, 0b10100),
                    (FlagsKind::Shr, a, 0, 0b00100),
                    (FlagsKind::Shr, a, 1, 0b10001),
                    (FlagsKind::Shr, a, 31, 0b00000),
                    (FlagsKind::Sar, a, 0, 0b00100),
                    (FlagsKind::Sar, a, 1, 0b10101),
                    (FlagsKind::Sar, a, 31, 0b10100),
                ] {
                    let inst = FlagsArith { kind, rd, ra, rb };
                    out.push(Case::writes(inst, rd, word).reg(ra, a).reg(rb, b));
                }
            }
            Prefetch { .. } => {
                // A hint: nothing changes, not even at an unmapped address.
                let inst = Prefetch { base, off: 64 };
                out.push(Case::new(inst, Outcome::Next).reg(base, 0xFFFF_FFC0));
            }
            Ld { .. } => {
                for (width, v) in [
                    (Width::W1, 0xF1),
                    (Width::W2, 0xF2F1),
                    (Width::W4, 0xF4F3_F2F1),
                    (Width::W8, 0xF4F3_F2F1), // the low 32 bits
                ] {
                    let inst = Ld { rd, base, off: -7, width };
                    out.push(Case::writes(inst, rd, v).reg(base, DATA + 8));
                }
                // The base may be the destination: the address is read first.
                let inst = Ld { rd: base, base, off: 0, width: Width::W1 };
                out.push(Case::writes(inst, base, 0xF0).reg(base, DATA));
            }
            St { .. } => {
                let v = 0xA1B2_C3D4;
                for (width, bytes) in [
                    (Width::W1, &[0xD4][..]),
                    (Width::W2, &[0xD4, 0xC3]),
                    (Width::W4, &[0xD4, 0xC3, 0xB2, 0xA1]),
                    (Width::W8, &[0xD4, 0xC3, 0xB2, 0xA1, 0, 0, 0, 0]), // zero-extended
                ] {
                    let inst = St { rs: ra, base, off: 4, width };
                    out.push(Case::stores(inst, DATA + 5, bytes).reg(ra, v).reg(base, DATA + 1));
                }
            }
            FLd { .. } => {
                let v = f64::from_bits(0xF7F6_F5F4_F3F2_F1F0);
                out.push(Case::writes_f(FLd { fd, base, off: 0 }, fd, v).reg(base, DATA));
            }
            FSt { .. } => {
                let inst = FSt { fs: fa, base, off: -8 };
                let bytes = (-2.5f64).to_le_bytes();
                out.push(Case::stores(inst, DATA, &bytes).reg(base, DATA + 8).freg(fa, -2.5));
            }
            FMov { .. } => {
                out.push(Case::writes_f(FMov { fd, fa }, fd, -0.0).freg(fa, -0.0));
            }
            FArith { .. } => {
                for (op, v) in
                    [(FpOp::Add, 7.5), (FpOp::Sub, 2.5), (FpOp::Mul, 12.5), (FpOp::Div, 2.0)]
                {
                    let inst = FArith { op, fd, fa, fb };
                    out.push(Case::writes_f(inst, fd, v).freg(fa, 5.0).freg(fb, 2.5));
                }
                let div = FArith { op: FpOp::Div, fd, fa, fb };
                out.push(Case::writes_f(div, fd, f64::INFINITY).freg(fa, 1.0).freg(fb, 0.0));
            }
            CvtIF { .. } => {
                out.push(Case::writes_f(CvtIF { fd, ra }, fd, -1.0).reg(ra, u32::MAX));
                out.push(Case::writes_f(CvtIF { fd, ra }, fd, -2147483648.0).reg(ra, min));
            }
            CvtFI { .. } => {
                for (x, v) in [
                    (-2.7, neg(-2)), // truncates
                    (f64::NAN, 0),
                    (1e10, i32::MAX as u32), // saturates
                    (-1e10, min),
                    (f64::INFINITY, i32::MAX as u32),
                    (f64::NEG_INFINITY, min),
                ] {
                    out.push(Case::writes(CvtFI { rd, fa }, rd, v).freg(fa, x));
                }
            }
            Br { .. } => {
                // Operands -1 and 1: signed less, unsigned greater.
                for (cond, taken) in [
                    (HCond::Eq, false),
                    (HCond::Ne, true),
                    (HCond::LtS, true),
                    (HCond::GeS, false),
                    (HCond::LtU, false),
                    (HCond::GeU, true),
                ] {
                    let outcome = if taken { Outcome::Taken(5) } else { Outcome::Next };
                    let inst = Br { cond, ra, rb, target: 5 };
                    out.push(Case::new(inst, outcome).reg(ra, u32::MAX).reg(rb, 1));
                }
            }
            BrFlags { .. } => {
                // The flags of 1 - 2.
                let word = Flags::sub(1, 2).to_word();
                for (cond, taken) in [
                    (Cond::L, true),
                    (Cond::B, true),
                    (Cond::Ne, true),
                    (Cond::E, false),
                    (Cond::Ge, false),
                    (Cond::G, false),
                ] {
                    let outcome = if taken { Outcome::Taken(2) } else { Outcome::Next };
                    let inst = BrFlags { cond, flags: ra, target: 2 };
                    out.push(Case::new(inst, outcome).reg(ra, word));
                }
            }
            Jump { .. } => out.push(Case::new(Jump { target: 7 }, Outcome::Taken(7))),
            Exit(_) => {
                let link = Some(BlockId { idx: 3, gen: 1 });
                for e in [
                    crate::isa::Exit::Direct { guest_target: 0x40, link: None },
                    crate::isa::Exit::Direct { guest_target: 0x40, link },
                    crate::isa::Exit::Indirect { reg: ra },
                    crate::isa::Exit::Halt,
                ] {
                    out.push(Case::new(Exit(e), Outcome::Exited(e)));
                }
            }
        }
    }

    #[test]
    fn exec_inst_runs_every_variant_on_its_edges() {
        let templates = templates();
        let mut cases = Vec::new();
        for (i, t) in templates.iter().enumerate() {
            assert!(
                templates[..i].iter().all(|s| discriminant(s) != discriminant(t)),
                "two templates of one variant: {t:?}"
            );
            let first = cases.len();
            cases_for(t, &mut cases);
            assert!(cases.len() > first, "no case for {t:?}");
            for c in &cases[first..] {
                assert_eq!(discriminant(&c.inst), discriminant(t), "{:?} under {t:?}", c.inst);
            }
        }
        let mut data = GuestMem::new();
        for i in 0..DATA_LEN {
            data.write_u8(DATA + i, 0xF0 + i as u8);
        }
        for c in &cases {
            let mut st = start_state();
            for &(r, v) in &c.regs {
                st.set_reg(r, v);
            }
            for &(r, v) in &c.fregs {
                st.set_freg(r, v);
            }
            let mut want = st.clone();
            if let Some((r, v)) = c.want_reg {
                want.set_reg(r, v);
            }
            if let Some((r, v)) = c.want_freg {
                want.set_freg(r, v);
            }
            let mut want_mem: Vec<u8> =
                (0..DATA_LEN + 16).map(|i| data.read_u8(DATA - 8 + i)).collect();
            if let Some((addr, bytes)) = &c.want_bytes {
                let at = (addr + 8 - DATA) as usize;
                want_mem[at..at + bytes.len()].copy_from_slice(bytes);
            }

            let mut mem = data.clone();
            let outcome = exec_inst(&mut st, &c.inst, &mut mem);
            assert_eq!(outcome, c.outcome, "{:?}", c.inst);
            assert_eq!(st.regs, want.regs, "{:?}", c.inst);
            let bits = |s: &HostState| s.fregs.map(f64::to_bits);
            assert_eq!(bits(&st), bits(&want), "{:?}", c.inst);
            let got_mem: Vec<u8> = (0..DATA_LEN + 16).map(|i| mem.read_u8(DATA - 8 + i)).collect();
            assert_eq!(got_mem, want_mem, "{:?}", c.inst);
        }
    }

    #[test]
    fn fp_store_then_load_round_trips_every_bit() {
        let mut st = HostState::new();
        let mut mem = GuestMem::new();
        st.set_reg(HReg(4), DATA);
        for v in [f64::from_bits(0x7FF8_0000_0000_0001), -0.0, f64::MIN_POSITIVE / 2.0] {
            st.set_freg(HFreg(1), v);
            let store = HInst::FSt { fs: HFreg(1), base: HReg(4), off: 12 };
            let load = HInst::FLd { fd: HFreg(2), base: HReg(4), off: 12 };
            assert_eq!(exec_inst(&mut st, &store, &mut mem), Outcome::Next);
            assert_eq!(exec_inst(&mut st, &load, &mut mem), Outcome::Next);
            assert_eq!(st.freg(HFreg(2)).to_bits(), v.to_bits());
        }
    }

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
