//! The dynamic host instruction stream.
//!
//! Every host instruction that retires — whether it belongs to translated
//! application code or to one of the software layer's activities — is
//! reported to the timing simulator as one [`DynInst`]. The record
//! carries exactly what an in-order pipeline model needs: PC (for the
//! I-cache and branch predictor), execution class (for unit latency),
//! register operands (for the scoreboard), memory event (for the D-cache
//! and TLB) and branch outcome (for the predictor). The [`Component`] tag
//! is what lets the simulator attribute cycles and bubbles to TOL modules
//! versus the application — the capability the paper highlights as what
//! makes DARCO's timing simulator suited to this study (Sec. II-A).

use std::fmt;

/// Execution class of a host instruction: selects the unit and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecClass {
    /// 1-cycle integer (ALU, moves, immediates).
    SimpleInt,
    /// 2-cycle integer (multiply, divide, flags materialization).
    ComplexInt,
    /// 2-cycle FP (add, sub, moves, converts).
    SimpleFp,
    /// 5-cycle FP (multiply, divide).
    ComplexFp,
    /// Memory load (latency from the cache hierarchy).
    Load,
    /// Memory store.
    Store,
    /// Conditional branch (resolved in EXE; 6-cycle mispredict penalty).
    Branch,
    /// Unconditional jump, call, return or translation exit.
    Jump,
}

/// What kind of control transfer a branch-class instruction performs,
/// for branch-predictor modeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch (Gshare-predicted direction).
    CondDirect,
    /// Unconditional direct jump (BTB-predicted target).
    UncondDirect,
    /// Indirect jump (BTB-predicted target, often wrong on varying targets).
    Indirect,
    /// Return (indirect; predicted via BTB — the modeled host has no RAS).
    Return,
}

/// The entity a host instruction belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Owner {
    /// Translated/interpreted *application* work that makes forward
    /// progress.
    App,
    /// The software layer (any module).
    Tol,
}

/// Fine-grained producer of a host instruction: the paper's execution
/// time categories (Figs. 6 and 7), declared in [`Component::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// Translated application code executing from the code cache.
    AppCode,
    /// Everything else in the software layer: dispatch loop,
    /// entry/exit transitions, initialization (the paper's "TOL others").
    TolOthers,
    /// Interpreter emulating guest instructions (IM). The paper counts
    /// interpretation as overhead despite its forward progress, because
    /// of the high per-instruction cost (Sec. III-B).
    TolIm,
    /// Basic-block translation work (BBM).
    TolBbm,
    /// Superblock formation and optimization (SBM).
    TolSbm,
    /// Linking translations together.
    TolChaining,
    /// Code-cache lookups (translation map probes, IBTC misses).
    TolLookup,
}

impl Component {
    /// All components, in the paper's Fig. 7 legend order.
    pub const ALL: [Component; 7] = [
        Component::AppCode,
        Component::TolOthers,
        Component::TolIm,
        Component::TolBbm,
        Component::TolSbm,
        Component::TolChaining,
        Component::TolLookup,
    ];

    /// Position of this component in [`Component::ALL`] (stable index
    /// for per-component counter arrays).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The owning entity.
    pub fn owner(self) -> Owner {
        match self {
            Component::AppCode => Owner::App,
            _ => Owner::Tol,
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Component::AppCode => "Application",
            Component::TolIm => "IM",
            Component::TolBbm => "BBM",
            Component::TolSbm => "SBM",
            Component::TolChaining => "Chaining",
            Component::TolLookup => "Code$ look-up",
            Component::TolOthers => "TOL others",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A data-memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// Host physical address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u8,
    /// `true` for stores.
    pub is_store: bool,
    /// `true` for software prefetches: the line is brought in but the
    /// instruction neither produces a value nor stalls.
    pub is_prefetch: bool,
}

/// Sentinel meaning "no register" in [`DynInst`] operand slots.
pub const NO_REG: u8 = u8::MAX;

/// Bits of `DynOp::flags`. A record carries a data access ([`MEM`]) or
/// a control transfer ([`BRANCH`]), never both: the payload word holds
/// the one it carries.
mod flag {
    /// A data access is attached: the payload is its address, `size` its
    /// width, [`STORE`] and [`PREFETCH`] its kind.
    pub const MEM: u8 = 1 << 0;
    pub const STORE: u8 = 1 << 1;
    pub const PREFETCH: u8 = 1 << 2;
    /// A control transfer is attached: the payload is its target,
    /// [`TAKEN`] its outcome, bits 5–6 its kind.
    pub const BRANCH: u8 = 1 << 3;
    pub const TAKEN: u8 = 1 << 4;
    /// The [`super::BranchKind`] discriminant sits in bits 5–6.
    pub const KIND_SHIFT: u32 = 5;
    pub const KIND: u8 = 3 << KIND_SHIFT;
}

/// One retired host instruction, as seen by the timing simulator: a
/// 24-byte `Copy` record (a [`HostEvent`](crate::HostEvent) is no larger),
/// the pc and then a [`DynOp`], everything the pc does not fix.
///
/// Integer registers are numbered `0..64`, FP registers `64..96`. The
/// optional data access and branch outcome are one payload word, a size
/// byte and a flag byte, not two `Option`s (which made the record 48
/// bytes); [`DynOp::mem`] and [`DynOp::branch`] unpack them. A record
/// carries an access or a branch, never both: no host instruction does
/// both, so [`with_mem`](Self::with_mem) and
/// [`with_prefetch`](Self::with_prefetch) drop an attached branch and
/// [`with_branch`](Self::with_branch) an attached access. Parts that are
/// absent hold zeros, so two records are equal exactly when what they
/// describe is.
///
/// A `DynInst` dereferences to its `DynOp`, so `d.class` and `d.mem()`
/// read through. A translation stores only the `DynOp` of each of its
/// instructions: the pc follows from the instruction's position
/// ([`crate::template`]).
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Host PC of the instruction (drives I-cache and predictor).
    pub pc: u64,
    op: DynOp,
}

/// The 16 bytes of a [`DynInst`] that its pc does not fix: what retired,
/// not where. [`DynOp::at`] places it.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynOp {
    /// The data access's address under [`flag::MEM`], the branch's target
    /// under [`flag::BRANCH`], 0 with neither.
    payload: u64,
    /// Execution class.
    pub class: ExecClass,
    /// Producing component (owner derives from it).
    pub component: Component,
    /// Destination register id, or [`NO_REG`].
    pub dst: u8,
    /// Source register ids, [`NO_REG`]-padded.
    pub srcs: [u8; 2],
    size: u8,
    flags: u8,
}

impl std::ops::Deref for DynInst {
    type Target = DynOp;

    #[inline]
    fn deref(&self) -> &DynOp {
        &self.op
    }
}

impl std::ops::DerefMut for DynInst {
    #[inline]
    fn deref_mut(&mut self) -> &mut DynOp {
        &mut self.op
    }
}

impl DynInst {
    /// A plain instruction with no memory access or branch.
    pub const fn plain(pc: u64, class: ExecClass, component: Component) -> DynInst {
        let op = DynOp {
            payload: 0,
            class,
            component,
            dst: NO_REG,
            srcs: [NO_REG, NO_REG],
            size: 0,
            flags: 0,
        };
        op.at(pc)
    }

    /// Sets the destination register (builder-style).
    pub fn with_dst(mut self, dst: u8) -> DynInst {
        self.dst = dst;
        self
    }

    /// Sets the source registers (builder-style).
    pub fn with_srcs(mut self, a: u8, b: u8) -> DynInst {
        self.srcs = [a, b];
        self
    }

    /// Attaches a memory event, dropping any branch (builder-style).
    pub fn with_mem(self, addr: u64, size: u8, is_store: bool) -> DynInst {
        let store = if is_store { flag::STORE } else { 0 };
        self.attach(addr, size, flag::MEM | store)
    }

    /// Attaches a software-prefetch memory event, dropping any branch
    /// (builder-style).
    pub fn with_prefetch(self, addr: u64) -> DynInst {
        self.attach(addr, 64, flag::MEM | flag::PREFETCH)
    }

    /// Attaches a branch outcome, dropping any memory event
    /// (builder-style).
    pub fn with_branch(self, kind: BranchKind, target: u64, taken: bool) -> DynInst {
        let taken = if taken { flag::TAKEN } else { 0 };
        self.attach(target, 0, flag::BRANCH | (kind as u8) << flag::KIND_SHIFT | taken)
    }

    /// Replaces whatever was attached: every flag bit belongs to the
    /// access or to the branch.
    fn attach(mut self, payload: u64, size: u8, flags: u8) -> DynInst {
        (self.op.payload, self.op.size, self.op.flags) = (payload, size, flags);
        self
    }
}

impl DynOp {
    /// The record of this instruction retiring at `pc`.
    #[inline]
    pub const fn at(self, pc: u64) -> DynInst {
        DynInst { pc, op: self }
    }

    /// The data access, if any.
    #[inline]
    pub fn mem(&self) -> Option<MemEvent> {
        (self.flags & flag::MEM != 0).then_some(MemEvent {
            addr: self.payload,
            size: self.size,
            is_store: self.flags & flag::STORE != 0,
            is_prefetch: self.flags & flag::PREFETCH != 0,
        })
    }

    /// The control transfer, if any: `(kind, target_pc, taken)`.
    #[inline]
    pub fn branch(&self) -> Option<(BranchKind, u64, bool)> {
        (self.flags & flag::BRANCH != 0).then(|| {
            let kind = match (self.flags & flag::KIND) >> flag::KIND_SHIFT {
                0 => BranchKind::CondDirect,
                1 => BranchKind::UncondDirect,
                2 => BranchKind::Indirect,
                _ => BranchKind::Return,
            };
            (kind, self.payload, self.flags & flag::TAKEN != 0)
        })
    }

    /// The address of the attached data access, for patching a staged
    /// record in place; `None` without one.
    #[inline]
    pub fn mem_addr_mut(&mut self) -> Option<&mut u64> {
        (self.flags & flag::MEM != 0).then_some(&mut self.payload)
    }

    /// Sets the taken bit of the attached branch.
    #[inline]
    pub fn set_taken(&mut self, taken: bool) {
        debug_assert!(self.flags & flag::BRANCH != 0, "no branch to patch: {self:?}");
        self.flags = self.flags & !flag::TAKEN | if taken { flag::TAKEN } else { 0 };
    }

    /// The owning entity (shorthand for `component.owner()`).
    pub fn owner(&self) -> Owner {
        self.component.owner()
    }
}

/// The text of the two-`Option` record this one packs, field for field:
/// `tests/event_stream_golden.rs` pins every retirement by its `Debug`
/// line.
impl fmt::Debug for DynInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynInst")
            .field("pc", &self.pc)
            .field("class", &self.class)
            .field("component", &self.component)
            .field("mem", &self.mem())
            .field("branch", &self.branch())
            .field("dst", &self.dst)
            .field("srcs", &self.srcs)
            .finish()
    }
}

/// Register id for an integer register.
#[inline]
pub fn int_reg(i: u8) -> u8 {
    debug_assert!(i < 64);
    i
}

/// Register id for an FP register.
#[inline]
pub fn fp_reg(i: u8) -> u8 {
    debug_assert!(i < 32);
    64 + i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_owners() {
        assert_eq!(Component::AppCode.owner(), Owner::App);
        for c in Component::ALL {
            if c != Component::AppCode {
                assert_eq!(c.owner(), Owner::Tol);
            }
        }
    }

    #[test]
    fn builder_chains() {
        let d = DynInst::plain(0x100, ExecClass::Load, Component::TolLookup)
            .with_dst(int_reg(40))
            .with_srcs(int_reg(41), NO_REG)
            .with_mem(0x1_0000_0100, 8, false);
        assert_eq!(d.owner(), Owner::Tol);
        assert_eq!(d.dst, 40);
        assert_eq!(d.mem().unwrap().size, 8);
        assert!(d.branch().is_none());
    }

    /// A translation stores each host instruction twice: once to execute
    /// (`HInst`) and once to retire (a 16-byte `DynOp`), 32 bytes in all.
    #[test]
    fn host_inst_is_16_bytes() {
        assert_eq!(std::mem::size_of::<crate::HInst>(), 16);
    }

    /// One payload word serves the access or the branch, whichever was
    /// attached last: each order drops the other, and the patches reach
    /// the one that stays.
    #[test]
    fn packed_parts_round_trip() {
        assert_eq!(std::mem::size_of::<DynInst>(), 24);
        assert_eq!(std::mem::size_of::<DynOp>(), 16);
        let d = DynInst::plain(0x100, ExecClass::Jump, Component::AppCode);
        let store = MemEvent { addr: 0x88, size: 4, is_store: true, is_prefetch: false };
        for kind in [
            BranchKind::CondDirect,
            BranchKind::UncondDirect,
            BranchKind::Indirect,
            BranchKind::Return,
        ] {
            for taken in [false, true] {
                // Access, then branch: the branch is all that is left.
                let mut b = d
                    .with_prefetch(0x80)
                    .with_mem(0x88, 4, true)
                    .with_branch(BranchKind::Return, 1, true)
                    .with_branch(kind, 0x240, taken);
                assert_eq!((b.mem(), b.branch()), (None, Some((kind, 0x240, taken))));
                assert_eq!(b.mem_addr_mut(), None);
                b.set_taken(!taken);
                assert_eq!(b.branch(), Some((kind, 0x240, !taken)));
                assert_eq!(b, d.with_branch(kind, 0x240, !taken), "no access bit survives");

                // Branch, then access: the access is all that is left.
                let mut m =
                    d.with_branch(kind, 0x240, taken).with_prefetch(0x80).with_mem(0x88, 4, true);
                assert_eq!((m.mem(), m.branch()), (Some(store), None));
                *m.mem_addr_mut().unwrap() = 0x90;
                assert_eq!(m.mem(), Some(MemEvent { addr: 0x90, ..store }));
                assert_eq!(m, d.with_mem(0x90, 4, true), "no branch bit survives");
            }
        }
        let p = d.with_mem(0x88, 4, true).with_prefetch(0x80);
        let want = MemEvent { addr: 0x80, size: 64, is_store: false, is_prefetch: true };
        assert_eq!(p.mem(), Some(want));
        assert_eq!(d.clone().mem_addr_mut(), None);
        assert_eq!(p.op.at(0x100), p, "a record is its pc and its op");
    }

    #[test]
    fn reg_id_spaces_disjoint() {
        assert_eq!(int_reg(63), 63);
        assert_eq!(fp_reg(0), 64);
        assert_eq!(fp_reg(31), 95);
    }

    #[test]
    fn component_index_matches_all_order() {
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c} index out of sync with ALL");
        }
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(Component::TolLookup.label(), "Code$ look-up");
        assert_eq!(Component::TolOthers.to_string(), "TOL others");
    }
}
