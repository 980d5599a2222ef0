//! Architectural guest state: registers, flags, instruction pointer.

use crate::inst::{FpReg, Gpr};
use std::fmt;

/// Guest condition flags (a subset of x86 EFLAGS that the ISA uses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Flags {
    /// Carry flag.
    pub cf: bool,
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Overflow flag.
    pub of: bool,
    /// Parity flag (of the low byte, as on x86).
    pub pf: bool,
}

impl Flags {
    /// Packs the flags into a word (bit 0 CF, 1 ZF, 2 SF, 3 OF, 4 PF).
    pub fn to_word(self) -> u32 {
        (self.cf as u32)
            | (self.zf as u32) << 1
            | (self.sf as u32) << 2
            | (self.of as u32) << 3
            | (self.pf as u32) << 4
    }

    /// Inverse of [`Flags::to_word`]; ignores unused bits.
    pub fn from_word(w: u32) -> Flags {
        Flags { cf: w & 1 != 0, zf: w & 2 != 0, sf: w & 4 != 0, of: w & 8 != 0, pf: w & 16 != 0 }
    }

    /// Flags produced by a logic operation (AND/OR/XOR/TEST/NOT result):
    /// CF and OF cleared, ZF/SF/PF from the result.
    pub fn logic(result: u32) -> Flags {
        Flags { cf: false, of: false, ..Flags::from_result(result) }
    }

    /// ZF/SF/PF computed from a result, CF/OF left clear.
    pub fn from_result(result: u32) -> Flags {
        Flags {
            cf: false,
            of: false,
            zf: result == 0,
            sf: (result as i32) < 0,
            pf: (result as u8).count_ones().is_multiple_of(2),
        }
    }

    /// Flags for `a + b`.
    pub fn add(a: u32, b: u32) -> Flags {
        let (r, carry) = a.overflowing_add(b);
        let of = ((a ^ r) & (b ^ r)) >> 31 != 0;
        Flags { cf: carry, of, ..Flags::from_result(r) }
    }

    /// Flags for `a - b` (also used by `cmp`).
    pub fn sub(a: u32, b: u32) -> Flags {
        let (r, borrow) = a.overflowing_sub(b);
        let of = ((a ^ b) & (a ^ r)) >> 31 != 0;
        Flags { cf: borrow, of, ..Flags::from_result(r) }
    }
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}{}{}{}{}]",
            if self.cf { 'C' } else { '-' },
            if self.zf { 'Z' } else { '-' },
            if self.sf { 'S' } else { '-' },
            if self.of { 'O' } else { '-' },
            if self.pf { 'P' } else { '-' },
        )
    }
}

/// Complete guest architectural state.
///
/// Two copies of this exist at run time, exactly as in DARCO (paper
/// Fig. 2): the *authoritative* state owned by the functional emulator,
/// and the *emulated* state maintained by the software layer; the state
/// checker compares them at basic-block boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuState {
    /// General-purpose registers, indexed by [`Gpr::index`].
    pub gprs: [u32; 8],
    /// Floating-point registers.
    pub fprs: [f64; 8],
    /// Instruction pointer.
    pub eip: u32,
    /// Condition flags.
    pub flags: Flags,
    /// Set once a `Halt` retires; no further instructions execute.
    pub halted: bool,
}

impl CpuState {
    /// A zeroed state with `eip` at `entry`.
    pub fn at(entry: u32) -> CpuState {
        CpuState {
            gprs: [0; 8],
            fprs: [0.0; 8],
            eip: entry,
            flags: Flags::default(),
            halted: false,
        }
    }

    /// Reads a general-purpose register.
    #[inline]
    pub fn gpr(&self, r: Gpr) -> u32 {
        self.gprs[r.index()]
    }

    /// Writes a general-purpose register.
    #[inline]
    pub fn set_gpr(&mut self, r: Gpr, v: u32) {
        self.gprs[r.index()] = v;
    }

    /// Reads a floating-point register.
    #[inline]
    pub fn fpr(&self, r: FpReg) -> f64 {
        self.fprs[r.index()]
    }

    /// Writes a floating-point register.
    #[inline]
    pub fn set_fpr(&mut self, r: FpReg, v: f64) {
        self.fprs[r.index()] = v;
    }

    /// Compares two states for architectural equality, treating FP
    /// registers bit-exactly (NaN == NaN if same bits). `eip` is included.
    pub fn arch_eq(&self, other: &CpuState) -> bool {
        self.gprs == other.gprs
            && self.eip == other.eip
            && self.flags == other.flags
            && self.halted == other.halted
            && self.fprs.iter().zip(other.fprs.iter()).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Default for CpuState {
    fn default() -> CpuState {
        CpuState::at(0)
    }
}

impl fmt::Display for CpuState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "eip={:#010x} flags={} halted={}", self.eip, self.flags, self.halted)?;
        for (i, r) in Gpr::ALL.iter().enumerate() {
            write!(f, "{r}={:#010x} ", self.gprs[i])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_word_roundtrip() {
        for w in 0..32u32 {
            assert_eq!(Flags::from_word(w).to_word(), w);
        }
    }

    #[test]
    fn add_flags() {
        let f = Flags::add(u32::MAX, 1);
        assert!(f.cf && f.zf && !f.sf && !f.of);
        let f = Flags::add(i32::MAX as u32, 1);
        assert!(f.of && f.sf && !f.cf);
        let f = Flags::add(1, 2);
        assert!(!f.cf && !f.zf && !f.of && !f.sf);
    }

    #[test]
    fn sub_flags() {
        let f = Flags::sub(0, 1);
        assert!(f.cf && f.sf && !f.zf);
        let f = Flags::sub(5, 5);
        assert!(f.zf && !f.cf);
        let f = Flags::sub(i32::MIN as u32, 1);
        assert!(f.of);
    }

    #[test]
    fn parity_matches_x86_convention() {
        // 0b11 has two set bits -> even parity -> PF set.
        assert!(Flags::from_result(3).pf);
        // 0b1 has one set bit -> PF clear.
        assert!(!Flags::from_result(1).pf);
        // Only the low byte counts.
        assert!(Flags::from_result(0x0100).pf);
    }

    #[test]
    fn state_accessors() {
        let mut s = CpuState::at(0x400);
        s.set_gpr(Gpr::Esp, 0x8000);
        s.set_fpr(FpReg(2), 2.5);
        assert_eq!(s.gpr(Gpr::Esp), 0x8000);
        assert_eq!(s.fpr(FpReg(2)), 2.5);
        assert_eq!(s.eip, 0x400);
        let t = s.clone();
        assert!(s.arch_eq(&t));
    }

    #[test]
    fn arch_eq_is_bit_exact_for_fp() {
        let mut a = CpuState::at(0);
        let mut b = CpuState::at(0);
        a.set_fpr(FpReg(0), f64::NAN);
        b.set_fpr(FpReg(0), f64::NAN);
        assert!(a.arch_eq(&b));
        b.set_fpr(FpReg(0), f64::from_bits(f64::NAN.to_bits() ^ 1));
        assert!(!a.arch_eq(&b));
    }
}
