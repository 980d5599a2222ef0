//! Binary decoding of guest instructions.
//!
//! Mirrors [`crate::encode()`]; see that module for the format. The decoder
//! is total over the byte stream: malformed input yields a
//! [`DecodeError`] rather than a panic, since the interpreter may be
//! pointed at arbitrary guest memory by wild indirect branches.

use crate::encode::opcodes as op;
use crate::inst::{AluOp, Cond, FpOp, FpReg, Gpr, Inst, MemRef, MemWidth, Scale, ShiftOp};
use std::fmt;

/// Error decoding a guest instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte stream ended before the instruction was complete.
    Truncated,
    /// The opcode byte does not name any instruction.
    BadOpcode(u8),
    /// An operand field held an out-of-range value.
    BadOperand(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "instruction bytes truncated"),
            DecodeError::BadOpcode(b) => write!(f, "unknown opcode byte {b:#04x}"),
            DecodeError::BadOperand(b) => write!(f, "invalid operand byte {b:#04x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        let s = self.bytes.get(self.pos..self.pos + 4).ok_or(DecodeError::Truncated)?;
        self.pos += 4;
        Ok(i32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        self.i32().map(|v| v as u32)
    }

    fn gpr(&mut self) -> Result<Gpr, DecodeError> {
        let b = self.u8()?;
        if b < 8 {
            Ok(Gpr::from_index(b as usize))
        } else {
            Err(DecodeError::BadOperand(b))
        }
    }

    fn gpr_pair(&mut self) -> Result<(Gpr, Gpr), DecodeError> {
        let b = self.u8()?;
        let hi = b >> 4;
        let lo = b & 0x0F;
        if hi < 8 && lo < 8 {
            Ok((Gpr::from_index(hi as usize), Gpr::from_index(lo as usize)))
        } else {
            Err(DecodeError::BadOperand(b))
        }
    }

    fn fpr_pair(&mut self) -> Result<(FpReg, FpReg), DecodeError> {
        let b = self.u8()?;
        let hi = b >> 4;
        let lo = b & 0x0F;
        if hi < FpReg::COUNT && lo < FpReg::COUNT {
            Ok((FpReg(hi), FpReg(lo)))
        } else {
            Err(DecodeError::BadOperand(b))
        }
    }

    /// Immediate whose size bit lives in bit 7 of an earlier byte.
    fn imm(&mut self, size_byte: u8) -> Result<i32, DecodeError> {
        if size_byte & 0x80 != 0 {
            self.i32()
        } else {
            Ok(self.u8()? as i8 as i32)
        }
    }

    fn mem(&mut self) -> Result<MemRef, DecodeError> {
        let flags = self.u8()?;
        let base =
            if flags & 1 != 0 { Some(Gpr::from_index(((flags >> 1) & 7) as usize)) } else { None };
        let index = if flags & (1 << 4) != 0 {
            let b = self.u8()?;
            if b >= 8 {
                return Err(DecodeError::BadOperand(b));
            }
            Some(Gpr::from_index(b as usize))
        } else {
            None
        };
        let disp = if flags & (1 << 5) != 0 { self.i32()? } else { self.u8()? as i8 as i32 };
        Ok(MemRef { base, index, scale: Scale::from_bits(flags >> 6), disp })
    }
}

/// Decodes one instruction from the front of `bytes`.
///
/// Returns the instruction and the number of bytes it occupied.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the bytes are truncated, the opcode is
/// unknown, or an operand field is out of range.
pub fn decode(bytes: &[u8]) -> Result<(Inst, usize), DecodeError> {
    let mut c = Cursor { bytes, pos: 0 };
    let opc = c.u8()?;
    let inst = match opc {
        op::NOP => Inst::Nop,
        op::HALT => Inst::Halt,
        op::SYSCALL => Inst::Syscall,
        op::MOV_RR => {
            let (dst, src) = c.gpr_pair()?;
            Inst::MovRR { dst, src }
        }
        op::MOV_RI => {
            let b = c.u8()?;
            let dst = reg_low(b)?;
            let imm = c.imm(b)?;
            Inst::MovRI { dst, imm }
        }
        op::LOAD => {
            let dst = c.gpr()?;
            let addr = c.mem()?;
            Inst::Load { dst, addr }
        }
        op::STORE => {
            let src = c.gpr()?;
            let addr = c.mem()?;
            Inst::Store { addr, src }
        }
        op::STORE_I => {
            let b = c.u8()?;
            let addr = c.mem()?;
            let imm = c.imm(b)?;
            Inst::StoreI { addr, imm }
        }
        op::LEA => {
            let dst = c.gpr()?;
            let addr = c.mem()?;
            Inst::Lea { dst, addr }
        }
        op::LOAD_ZX | op::LOAD_SX | op::STORE_N => {
            let b = c.u8()?;
            let reg_idx = b & 0x07;
            if b & !0x17 != 0 {
                return Err(DecodeError::BadOperand(b));
            }
            let reg = Gpr::from_index(reg_idx as usize);
            let width = MemWidth::from_bit(b >> 4);
            let addr = c.mem()?;
            match opc {
                op::LOAD_ZX => Inst::LoadZx { dst: reg, addr, width },
                op::LOAD_SX => Inst::LoadSx { dst: reg, addr, width },
                _ => Inst::StoreN { addr, src: reg, width },
            }
        }
        _ if (op::ALU_RR_BASE..op::ALU_RR_BASE + 5).contains(&opc) => {
            let o = AluOp::from_bits(opc - op::ALU_RR_BASE).ok_or(DecodeError::BadOpcode(opc))?;
            let (dst, src) = c.gpr_pair()?;
            Inst::AluRR { op: o, dst, src }
        }
        _ if (op::ALU_RI_BASE..op::ALU_RI_BASE + 5).contains(&opc) => {
            let o = AluOp::from_bits(opc - op::ALU_RI_BASE).ok_or(DecodeError::BadOpcode(opc))?;
            let b = c.u8()?;
            let dst = reg_low(b)?;
            let imm = c.imm(b)?;
            Inst::AluRI { op: o, dst, imm }
        }
        _ if (op::ALU_RM_BASE..op::ALU_RM_BASE + 5).contains(&opc) => {
            let o = AluOp::from_bits(opc - op::ALU_RM_BASE).ok_or(DecodeError::BadOpcode(opc))?;
            let dst = c.gpr()?;
            let addr = c.mem()?;
            Inst::AluRM { op: o, dst, addr }
        }
        _ if (op::ALU_MR_BASE..op::ALU_MR_BASE + 5).contains(&opc) => {
            let o = AluOp::from_bits(opc - op::ALU_MR_BASE).ok_or(DecodeError::BadOpcode(opc))?;
            let src = c.gpr()?;
            let addr = c.mem()?;
            Inst::AluMR { op: o, addr, src }
        }
        op::CMP_RR => {
            let (a, b) = c.gpr_pair()?;
            Inst::CmpRR { a, b }
        }
        op::CMP_RI => {
            let b = c.u8()?;
            let a = reg_low(b)?;
            let imm = c.imm(b)?;
            Inst::CmpRI { a, imm }
        }
        op::TEST_RR => {
            let (a, b) = c.gpr_pair()?;
            Inst::TestRR { a, b }
        }
        _ if (op::SHIFT_BASE..op::SHIFT_BASE + 3).contains(&opc) => {
            let o = ShiftOp::from_bits(opc - op::SHIFT_BASE).ok_or(DecodeError::BadOpcode(opc))?;
            let b = c.u8()?;
            Inst::Shift { op: o, dst: Gpr::from_index((b & 7) as usize), amount: b >> 3 }
        }
        _ if (op::SHIFT_CL_BASE..op::SHIFT_CL_BASE + 3).contains(&opc) => {
            let o =
                ShiftOp::from_bits(opc - op::SHIFT_CL_BASE).ok_or(DecodeError::BadOpcode(opc))?;
            let dst = c.gpr()?;
            Inst::ShiftCl { op: o, dst }
        }
        op::IMUL => {
            let (dst, src) = c.gpr_pair()?;
            Inst::Imul { dst, src }
        }
        op::IDIV => {
            let (dst, src) = c.gpr_pair()?;
            Inst::Idiv { dst, src }
        }
        op::NEG => Inst::Neg { dst: c.gpr()? },
        op::NOT => Inst::Not { dst: c.gpr()? },
        op::PUSH => Inst::Push { src: c.gpr()? },
        op::POP => Inst::Pop { dst: c.gpr()? },
        op::JCC => {
            let b = c.u8()?;
            let cond = Cond::from_bits(b).ok_or(DecodeError::BadOperand(b))?;
            let target = c.u32()?;
            Inst::Jcc { cond, target }
        }
        op::JMP => Inst::Jmp { target: c.u32()? },
        op::JMP_IND => Inst::JmpInd { reg: c.gpr()? },
        op::JMP_MEM => Inst::JmpMem { addr: c.mem()? },
        op::CALL => Inst::Call { target: c.u32()? },
        op::CALL_IND => Inst::CallInd { reg: c.gpr()? },
        op::RET => Inst::Ret,
        op::FMOV_RR => {
            let (dst, src) = c.fpr_pair()?;
            Inst::FMovRR { dst, src }
        }
        op::FLOAD => {
            let b = c.u8()?;
            if b >= FpReg::COUNT {
                return Err(DecodeError::BadOperand(b));
            }
            let addr = c.mem()?;
            Inst::FLoad { dst: FpReg(b), addr }
        }
        op::FSTORE => {
            let b = c.u8()?;
            if b >= FpReg::COUNT {
                return Err(DecodeError::BadOperand(b));
            }
            let addr = c.mem()?;
            Inst::FStore { addr, src: FpReg(b) }
        }
        _ if (op::FARITH_BASE..op::FARITH_BASE + 4).contains(&opc) => {
            let o = FpOp::from_bits(opc - op::FARITH_BASE).ok_or(DecodeError::BadOpcode(opc))?;
            let (dst, src) = c.fpr_pair()?;
            Inst::FArith { op: o, dst, src }
        }
        op::CVT_IF => {
            let b = c.u8()?;
            let hi = b >> 4;
            let lo = b & 0x0F;
            if hi >= FpReg::COUNT || lo >= 8 {
                return Err(DecodeError::BadOperand(b));
            }
            Inst::CvtIF { dst: FpReg(hi), src: Gpr::from_index(lo as usize) }
        }
        op::CVT_FI => {
            let b = c.u8()?;
            let hi = b >> 4;
            let lo = b & 0x0F;
            if hi >= 8 || lo >= FpReg::COUNT {
                return Err(DecodeError::BadOperand(b));
            }
            Inst::CvtFI { dst: Gpr::from_index(hi as usize), src: FpReg(lo) }
        }
        other => return Err(DecodeError::BadOpcode(other)),
    };
    Ok((inst, c.pos))
}

fn reg_low(b: u8) -> Result<Gpr, DecodeError> {
    let idx = b & 0x07;
    // Bits 3..7 must be clear (bit 7 is the immediate size flag).
    if b & 0x78 != 0 {
        return Err(DecodeError::BadOperand(b));
    }
    Ok(Gpr::from_index(idx as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_to_vec;

    fn roundtrip(i: Inst) {
        let bytes = encode_to_vec(&i);
        let (d, len) = decode(&bytes).unwrap();
        assert_eq!(d, i, "roundtrip mismatch for {i}");
        assert_eq!(len, bytes.len());
    }

    #[test]
    fn roundtrip_representative_instructions() {
        use crate::inst::*;
        let mem = MemRef::base_index(Gpr::Ebx, Gpr::Esi, Scale::S4, -123456);
        let small_mem = MemRef::base(Gpr::Esp, 8);
        for i in [
            Inst::Nop,
            Inst::Halt,
            Inst::Syscall,
            Inst::MovRR { dst: Gpr::Eax, src: Gpr::Edi },
            Inst::MovRI { dst: Gpr::Ebp, imm: -1 },
            Inst::MovRI { dst: Gpr::Ebp, imm: i32::MAX },
            Inst::Load { dst: Gpr::Ecx, addr: mem },
            Inst::Store { addr: small_mem, src: Gpr::Edx },
            Inst::StoreI { addr: mem, imm: 300 },
            Inst::Lea { dst: Gpr::Esi, addr: mem },
            Inst::LoadZx { dst: Gpr::Eax, addr: small_mem, width: MemWidth::B1 },
            Inst::LoadZx { dst: Gpr::Edi, addr: mem, width: MemWidth::B2 },
            Inst::LoadSx { dst: Gpr::Ecx, addr: small_mem, width: MemWidth::B1 },
            Inst::LoadSx { dst: Gpr::Ebx, addr: mem, width: MemWidth::B2 },
            Inst::StoreN { addr: small_mem, src: Gpr::Edx, width: MemWidth::B1 },
            Inst::StoreN { addr: mem, src: Gpr::Esi, width: MemWidth::B2 },
            Inst::AluRR { op: AluOp::Xor, dst: Gpr::Eax, src: Gpr::Eax },
            Inst::AluRI { op: AluOp::Add, dst: Gpr::Esp, imm: -16 },
            Inst::AluRM { op: AluOp::Sub, dst: Gpr::Eax, addr: small_mem },
            Inst::AluMR { op: AluOp::Or, addr: mem, src: Gpr::Ebx },
            Inst::CmpRR { a: Gpr::Eax, b: Gpr::Ebx },
            Inst::CmpRI { a: Gpr::Ecx, imm: 100000 },
            Inst::TestRR { a: Gpr::Edx, b: Gpr::Edx },
            Inst::Shift { op: ShiftOp::Sar, dst: Gpr::Eax, amount: 31 },
            Inst::ShiftCl { op: ShiftOp::Shl, dst: Gpr::Ebx },
            Inst::Imul { dst: Gpr::Eax, src: Gpr::Ecx },
            Inst::Idiv { dst: Gpr::Eax, src: Gpr::Ecx },
            Inst::Neg { dst: Gpr::Edi },
            Inst::Not { dst: Gpr::Esi },
            Inst::Push { src: Gpr::Ebp },
            Inst::Pop { dst: Gpr::Ebp },
            Inst::Jcc { cond: Cond::Le, target: 0xDEAD_BEEF },
            Inst::Jmp { target: 0x1000 },
            Inst::JmpInd { reg: Gpr::Eax },
            Inst::JmpMem { addr: mem },
            Inst::Call { target: 0x2000 },
            Inst::CallInd { reg: Gpr::Edx },
            Inst::Ret,
            Inst::FMovRR { dst: FpReg(0), src: FpReg(7) },
            Inst::FLoad { dst: FpReg(3), addr: small_mem },
            Inst::FStore { addr: mem, src: FpReg(5) },
            Inst::FArith { op: FpOp::Div, dst: FpReg(1), src: FpReg(2) },
            Inst::CvtIF { dst: FpReg(4), src: Gpr::Eax },
            Inst::CvtFI { dst: Gpr::Ebx, src: FpReg(6) },
        ] {
            roundtrip(i);
        }
    }

    #[test]
    fn bad_opcode_rejected() {
        assert_eq!(decode(&[0xFF]), Err(DecodeError::BadOpcode(0xFF)));
        assert_eq!(decode(&[0x03]), Err(DecodeError::BadOpcode(0x03)));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
        // mov eax, imm32 missing bytes
        assert_eq!(decode(&[0x11, 0x80, 0x01]), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_operand_rejected() {
        // mov with register index 9 in high nibble
        assert_eq!(decode(&[0x10, 0x9F]), Err(DecodeError::BadOperand(0x9F)));
        // jcc with condition 15
        assert!(matches!(decode(&[0x60, 15, 0, 0, 0, 0]), Err(DecodeError::BadOperand(15))));
    }

    #[test]
    fn error_display() {
        assert_eq!(DecodeError::Truncated.to_string(), "instruction bytes truncated");
        assert!(DecodeError::BadOpcode(0xAB).to_string().contains("0xab"));
    }
}
