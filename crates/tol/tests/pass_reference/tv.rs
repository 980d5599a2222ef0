//! Translation validation: per-block semantic equivalence checking.
//!
//! The validator proves an optimized block equivalent to its
//! pre-optimization snapshot without trusting any pass. Linear IR makes
//! this tractable: both bodies are evaluated **symbolically** into
//! hash-consed terms over the initial pinned guest state and memory, and
//! the observable behavior — every side exit (condition, target, pinned
//! snapshot), every store in order, and the final pinned state — must
//! produce identical terms.
//!
//! Term normalization mirrors exactly the algebra the optimizer is
//! allowed to use (constant folding through [`eval_alu`], copy
//! transparency of `or/add x, 0`, commutative operand ordering,
//! memory-version-indexed loads), so a correct pass yields syntactically
//! equal terms. The check is sound: equal terms always denote equal
//! values. It is incomplete — a rewrite outside the normalized algebra
//! produces unequal terms for equal behavior — so on mismatch the
//! validator falls back to **randomized differential execution** of both
//! blocks against the reference host semantics, and only reports a
//! miscompile when a concrete input actually diverges.

use super::{fail, VerifyFailure};
use darco_guest::{Cond, FpOp, GuestMem};
use darco_host::{eval_alu, exec_inst, FlagsKind, HAluOp, HFreg, HReg, HostState, Outcome, Width};
use darco_tol::ir::{self, IrBlock, IrFreg, IrInst, IrReg};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// How the validator discharged a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proof {
    /// Symbolic terms matched: equivalence proven.
    Symbolic,
    /// Symbolic mismatch, but differential execution found no divergence.
    Differential,
}

/// Number of random input vectors tried by the differential fallback.
const DIFF_TRIALS: u64 = 4;

// ---------------------------------------------------------------------
// Symbolic evaluation
// ---------------------------------------------------------------------

/// A hash-consed term. Children are term ids into the interner, so
/// structurally equal computations get equal ids regardless of the order
/// the two blocks are evaluated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    /// Initial value of pinned integer register `r<n>`.
    InitInt(u8),
    /// Known 32-bit constant.
    Const(u32),
    /// Use of an undefined virtual (kept total; structural checks flag it).
    UndefInt(u32),
    Alu(HAluOp, u32, u32),
    Mul(u32, u32),
    Div(u32, u32),
    Flags(FlagsKind, u32, u32),
    /// Integer load: address term, width, memory version (stores so far).
    Load(u32, Width, u32),
    CvtFI(u32),
    /// Initial value of pinned FP register `f<n>`.
    InitFp(u8),
    UndefFp(u32),
    FArith(FpOp, u32, u32),
    /// FP load: address term, memory version.
    FLoad(u32, u32),
    CvtIF(u32),
}

#[derive(Default)]
struct Interner {
    ids: HashMap<Node, u32>,
    nodes: Vec<Node>,
}

impl Interner {
    fn intern(&mut self, n: Node) -> u32 {
        if let Some(&id) = self.ids.get(&n) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(n);
        self.ids.insert(n, id);
        id
    }

    fn as_const(&self, id: u32) -> Option<u32> {
        match self.nodes[id as usize] {
            Node::Const(c) => Some(c),
            _ => None,
        }
    }

    /// Interns an ALU term, normalizing with the same algebra the
    /// optimizer uses: full constant folding, `x op 0` identities, and
    /// commutative operand ordering.
    fn alu(&mut self, op: HAluOp, a: u32, b: u32) -> u32 {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.intern(Node::Const(eval_alu(op, x, y)));
        }
        match op {
            HAluOp::Add | HAluOp::Or | HAluOp::Xor => {
                if self.as_const(a) == Some(0) {
                    return b;
                }
                if self.as_const(b) == Some(0) {
                    return a;
                }
            }
            HAluOp::Sub | HAluOp::Shl | HAluOp::Shr | HAluOp::Sar
                if self.as_const(b) == Some(0) =>
            {
                return a;
            }
            _ => {}
        }
        let (a, b) = match op {
            HAluOp::Add | HAluOp::And | HAluOp::Or | HAluOp::Xor => (a.min(b), a.max(b)),
            _ => (a, b),
        };
        self.intern(Node::Alu(op, a, b))
    }

    fn mul(&mut self, a: u32, b: u32) -> u32 {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.intern(Node::Const((x as i32).wrapping_mul(y as i32) as u32));
        }
        self.intern(Node::Mul(a.min(b), a.max(b)))
    }
}

/// One entry of the ordered store log: `(address, value, tag)` where the
/// tag is the integer width in bytes or `0xF` for an FP store.
type StoreObs = (u32, u32, u8);

/// A side exit's observable: stub index, condition, flags term, pinned
/// snapshot, and how many stores precede it (a store crossing a branch is
/// a miscompile even if the final logs agree).
type BranchObs = (u32, Cond, u32, Vec<u32>, usize);

/// Everything an external observer can see of one block execution.
#[derive(PartialEq, Eq)]
struct SymObs {
    branches: Vec<BranchObs>,
    stores: Vec<StoreObs>,
    final_pinned: Vec<u32>,
}

/// Pinned architectural snapshot: integer r1..=r10 (guest GPRs, flags,
/// exit target) then FP f0..f7 (guest FPRs).
fn snapshot(int: &HashMap<IrReg, u32>, fp: &HashMap<IrFreg, u32>, tt: &mut Interner) -> Vec<u32> {
    let mut out = Vec::with_capacity(18);
    for r in 1..=10u8 {
        let reg = IrReg::Phys(HReg(r));
        out.push(*int.get(&reg).unwrap_or(&tt.intern(Node::InitInt(r))));
    }
    for f in 0..ir::FSCRATCH_BASE {
        let reg = IrFreg::Phys(HFreg(f));
        out.push(*fp.get(&reg).unwrap_or(&tt.intern(Node::InitFp(f))));
    }
    out
}

/// Evaluates one block into its observable terms under `tt`.
fn sym_eval(block: &IrBlock, tt: &mut Interner) -> SymObs {
    let mut int: HashMap<IrReg, u32> = HashMap::new();
    let mut fp: HashMap<IrFreg, u32> = HashMap::new();
    let mut obs = SymObs { branches: Vec::new(), stores: Vec::new(), final_pinned: Vec::new() };

    macro_rules! read {
        ($r:expr) => {{
            let r = $r;
            match r {
                IrReg::Phys(HReg(0)) => tt.intern(Node::Const(0)),
                IrReg::Phys(HReg(p)) => {
                    *int.entry(r).or_insert_with(|| tt.intern(Node::InitInt(p)))
                }
                IrReg::Virt(v) => *int.entry(r).or_insert_with(|| tt.intern(Node::UndefInt(v))),
            }
        }};
    }
    macro_rules! fread {
        ($r:expr) => {{
            let r = $r;
            match r {
                IrFreg::Phys(HFreg(p)) => {
                    *fp.entry(r).or_insert_with(|| tt.intern(Node::InitFp(p)))
                }
                IrFreg::Virt(v) => *fp.entry(r).or_insert_with(|| tt.intern(Node::UndefFp(v))),
            }
        }};
    }

    for op in &block.ops {
        match op.inst {
            IrInst::Nop | IrInst::Prefetch { .. } => {}
            IrInst::Alu { op: o, rd, ra, rb } => {
                let (a, b) = (read!(ra), read!(rb));
                let t = tt.alu(o, a, b);
                int.insert(rd, t);
            }
            IrInst::AluI { op: o, rd, ra, imm } => {
                let a = read!(ra);
                let b = tt.intern(Node::Const(imm as u32));
                let t = tt.alu(o, a, b);
                int.insert(rd, t);
            }
            IrInst::Li { rd, imm } => {
                let t = tt.intern(Node::Const(imm as u32));
                int.insert(rd, t);
            }
            IrInst::Mul { rd, ra, rb } => {
                let (a, b) = (read!(ra), read!(rb));
                let t = tt.mul(a, b);
                int.insert(rd, t);
            }
            IrInst::Div { rd, ra, rb } => {
                let (a, b) = (read!(ra), read!(rb));
                let t = tt.intern(Node::Div(a, b));
                int.insert(rd, t);
            }
            IrInst::FlagsArith { kind, rd, ra, rb } => {
                let (a, b) = (read!(ra), read!(rb));
                let t = tt.intern(Node::Flags(kind, a, b));
                int.insert(rd, t);
            }
            IrInst::Ld { rd, base, off, width } => {
                let b = read!(base);
                let o = tt.intern(Node::Const(off as u32));
                let addr = tt.alu(HAluOp::Add, b, o);
                let ver = obs.stores.len() as u32;
                let t = tt.intern(Node::Load(addr, width, ver));
                int.insert(rd, t);
            }
            IrInst::St { rs, base, off, width } => {
                let v = read!(rs);
                let b = read!(base);
                let o = tt.intern(Node::Const(off as u32));
                let addr = tt.alu(HAluOp::Add, b, o);
                obs.stores.push((addr, v, width.bytes()));
            }
            IrInst::FLd { fd, base, off } => {
                let b = read!(base);
                let o = tt.intern(Node::Const(off as u32));
                let addr = tt.alu(HAluOp::Add, b, o);
                let ver = obs.stores.len() as u32;
                let t = tt.intern(Node::FLoad(addr, ver));
                fp.insert(fd, t);
            }
            IrInst::FSt { fs, base, off } => {
                let v = fread!(fs);
                let b = read!(base);
                let o = tt.intern(Node::Const(off as u32));
                let addr = tt.alu(HAluOp::Add, b, o);
                obs.stores.push((addr, v, 0xF));
            }
            IrInst::FMov { fd, fa } => {
                let t = fread!(fa);
                fp.insert(fd, t);
            }
            IrInst::FArith { op: o, fd, fa, fb } => {
                let (a, b) = (fread!(fa), fread!(fb));
                let t = tt.intern(Node::FArith(o, a, b));
                fp.insert(fd, t);
            }
            IrInst::CvtIF { fd, ra } => {
                let a = read!(ra);
                let t = tt.intern(Node::CvtIF(a));
                fp.insert(fd, t);
            }
            IrInst::CvtFI { rd, fa } => {
                let a = fread!(fa);
                let t = tt.intern(Node::CvtFI(a));
                int.insert(rd, t);
            }
            IrInst::BrFlags { cond, flags, target: stub } => {
                let f = read!(flags);
                let snap = snapshot(&int, &fp, tt);
                obs.branches.push((stub, cond, f, snap, obs.stores.len()));
            }
            IrInst::Br { .. } | IrInst::Jump { .. } | IrInst::Exit(_) => {
                unreachable!("check_wellformed rejects host-only control flow")
            }
        }
    }
    obs.final_pinned = snapshot(&int, &fp, tt);
    obs
}

// ---------------------------------------------------------------------
// Differential execution
// ---------------------------------------------------------------------

/// Where a concrete execution of the block left to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConcreteExit {
    Stub(u32),
    Fallthrough,
}

/// Concrete IR interpreter: virtuals live in side tables, pinned
/// registers in a [`HostState`], and every instruction is delegated to
/// the host's [`exec_inst`] with its operands renamed to staging
/// registers, so tricky semantics (flag materialization, converts,
/// division, FP rounding) come from the one reference implementation.
/// The staging registers sit in the scratch window, which
/// pre-allocation IR never names.
struct ExecEnv {
    st: HostState,
    virt: HashMap<u32, u32>,
    fvirt: HashMap<u32, f64>,
}

impl ExecEnv {
    fn new(st: HostState) -> ExecEnv {
        ExecEnv { st, virt: HashMap::new(), fvirt: HashMap::new() }
    }

    fn read(&self, r: IrReg) -> u32 {
        match r {
            IrReg::Phys(p) => self.st.reg(p),
            IrReg::Virt(v) => self.virt.get(&v).copied().unwrap_or(0),
        }
    }

    fn write(&mut self, r: IrReg, v: u32) {
        match r {
            IrReg::Phys(p) => self.st.set_reg(p, v),
            IrReg::Virt(n) => {
                self.virt.insert(n, v);
            }
        }
    }

    fn fref(&self, r: IrFreg) -> f64 {
        match r {
            IrFreg::Phys(p) => self.st.freg(p),
            IrFreg::Virt(v) => self.fvirt.get(&v).copied().unwrap_or(0.0),
        }
    }

    fn fwrite(&mut self, r: IrFreg, v: f64) {
        match r {
            IrFreg::Phys(p) => self.st.set_freg(p, v),
            IrFreg::Virt(n) => {
                self.fvirt.insert(n, v);
            }
        }
    }

    fn run(&mut self, block: &IrBlock, mem: &mut GuestMem) -> ConcreteExit {
        for op in &block.ops {
            let (mut n, mut fn_) = (ir::SCRATCH_BASE, ir::FSCRATCH_BASE);
            let staged = op.inst.map_regs(
                |_| {
                    n += 1;
                    HReg(n - 1)
                },
                |_| {
                    fn_ += 1;
                    HFreg(fn_ - 1)
                },
            );
            for (s, r) in staged.srcs().into_iter().zip(op.inst.srcs()) {
                if let (Some(s), Some(r)) = (s, r) {
                    self.st.set_reg(s, self.read(r));
                }
            }
            for (s, r) in staged.fsrcs().into_iter().zip(op.inst.fsrcs()) {
                if let (Some(s), Some(r)) = (s, r) {
                    self.st.set_freg(s, self.fref(r));
                }
            }
            if let Outcome::Taken(stub) = exec_inst(&mut self.st, &staged, mem) {
                return ConcreteExit::Stub(stub);
            }
            if let (Some(d), Some(r)) = (staged.dst(), op.inst.dst()) {
                self.write(r, self.st.reg(d));
            }
            if let (Some(d), Some(r)) = (staged.fdst(), op.inst.fdst()) {
                self.fwrite(r, self.st.freg(d));
            }
        }
        ConcreteExit::Fallthrough
    }
}

/// Minimal deterministic PRNG (SplitMix64) so the validator needs no
/// external randomness source and stays reproducible.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }
}

/// Deterministic seed derived from the block's instruction sequence, so
/// every validation of the same block replays the same trials.
fn block_seed(block: &IrBlock) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for op in &block.ops {
        op.inst.hash(&mut h);
        op.guest_idx.hash(&mut h);
    }
    h.finish()
}

/// Draws one random pinned state and seeded guest memory.
fn random_init(rng: &mut SplitMix64) -> (HostState, GuestMem) {
    let mut init = HostState::new();
    for r in 1..=10u8 {
        // Bias half the registers toward low addresses so loads hit the
        // seeded memory region below.
        let v = if rng.next() & 1 == 0 { rng.next_u32() & 0x7_FFFF } else { rng.next_u32() };
        init.set_reg(HReg(r), v);
    }
    for f in 0..ir::FSCRATCH_BASE {
        init.set_freg(HFreg(f), (rng.next_u32() as i32 as f64) / 16.0);
    }
    let mut mem0 = GuestMem::new();
    for _ in 0..256 {
        let a = rng.next_u32() & 0x7_FFFC;
        mem0.write_u32(a, rng.next_u32());
    }
    (init, mem0)
}

/// One random trial: identical initial state fed to both blocks; returns
/// a description of the first divergence, if any.
fn diff_trial(pre: &IrBlock, post: &IrBlock, rng: &mut SplitMix64) -> Option<String> {
    let (init, mem0) = random_init(rng);

    let mut env_a = ExecEnv::new(init.clone());
    let mut mem_a = mem0.clone();
    let exit_a = env_a.run(pre, &mut mem_a);

    let mut env_b = ExecEnv::new(init);
    let mut mem_b = mem0;
    let exit_b = env_b.run(post, &mut mem_b);

    if exit_a != exit_b {
        return Some(format!("exits diverge: pre {exit_a:?}, post {exit_b:?}"));
    }
    for r in 1..=10u8 {
        let (a, b) = (env_a.st.reg(HReg(r)), env_b.st.reg(HReg(r)));
        if a != b {
            return Some(format!("pinned r{r} diverges: pre {a:#x}, post {b:#x}"));
        }
    }
    for f in 0..ir::FSCRATCH_BASE {
        let (a, b) = (env_a.st.freg(HFreg(f)), env_b.st.freg(HFreg(f)));
        if a != b && !(a.is_nan() && b.is_nan()) {
            return Some(format!("pinned f{f} diverges: pre {a}, post {b}"));
        }
    }
    if let Some(addr) = mem_a.first_difference(&mem_b) {
        return Some(format!("memory diverges at {addr:#x}"));
    }
    None
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Validates that `post` is observationally equivalent to `pre`.
///
/// # Errors
///
/// A [`VerifyFailure`] naming `pass` when a concrete differential trial
/// diverges (symbolic mismatch alone is never reported: the symbolic
/// engine is incomplete by design).
pub fn validate(
    pass: &'static str,
    pre: &IrBlock,
    post: &IrBlock,
) -> Result<Proof, Box<VerifyFailure>> {
    let mut tt = Interner::default();
    let obs_pre = sym_eval(pre, &mut tt);
    let obs_post = sym_eval(post, &mut tt);
    if obs_pre == obs_post {
        return Ok(Proof::Symbolic);
    }
    let mut rng = SplitMix64(block_seed(pre));
    for trial in 0..DIFF_TRIALS {
        if let Some(divergence) = diff_trial(pre, post, &mut rng) {
            return fail(
                pass,
                "optimized block equivalent to snapshot",
                format!("differential trial {trial}: {divergence}"),
                pre,
                post,
            );
        }
    }
    Ok(Proof::Differential)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{block, phys};

    #[test]
    fn copy_propagated_block_proved_symbolically() {
        // t0 <- r2 | 0 ; r1 <- r1 + t0   vs.   nop ; r1 <- r1 + r2
        let pre = block(vec![
            IrInst::AluI { op: HAluOp::Or, rd: IrReg::Virt(0), ra: phys(2), imm: 0 },
            IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(1), rb: IrReg::Virt(0) },
        ]);
        let post = block(vec![
            IrInst::Nop,
            IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(1), rb: phys(2) },
        ]);
        assert_eq!(validate("t", &pre, &post).unwrap(), Proof::Symbolic);
    }

    #[test]
    fn wrong_constant_is_caught() {
        let pre = block(vec![IrInst::Li { rd: phys(1), imm: 5 }]);
        let post = block(vec![IrInst::Li { rd: phys(1), imm: 6 }]);
        let err = validate("t", &pre, &post).unwrap_err();
        assert_eq!(err.pass, "t");
        assert!(err.detail.contains("r1 diverges"), "{}", err.detail);
    }

    #[test]
    fn dropped_store_is_caught() {
        let pre = block(vec![IrInst::St { rs: phys(1), base: phys(2), off: 0, width: Width::W4 }]);
        let post = block(vec![IrInst::Nop]);
        let err = validate("t", &pre, &post).unwrap_err();
        assert!(err.detail.contains("memory diverges"), "{}", err.detail);
    }

    #[test]
    fn commutation_proved_symbolically() {
        let pre =
            block(vec![IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(2), rb: phys(3) }]);
        let post =
            block(vec![IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(3), rb: phys(2) }]);
        assert_eq!(validate("t", &pre, &post).unwrap(), Proof::Symbolic);
    }

    #[test]
    fn equivalent_but_unnormalized_rewrite_passes_differentially() {
        // x*2 vs x+x: outside the normalized algebra, semantically equal.
        let pre = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 2 },
            IrInst::Mul { rd: phys(1), ra: phys(2), rb: IrReg::Virt(0) },
        ]);
        let post = block(vec![
            IrInst::Nop,
            IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(2), rb: phys(2) },
        ]);
        assert_eq!(validate("t", &pre, &post).unwrap(), Proof::Differential);
    }

    #[test]
    fn store_hoisted_across_branch_fails_symbolically_and_differentially() {
        // pre: br ; st    post: st ; br  — diverges when the branch is taken.
        let st = IrInst::St { rs: phys(1), base: phys(2), off: 0, width: Width::W4 };
        let br = IrInst::BrFlags { cond: Cond::E, flags: phys(9), target: 0 };
        let pre = block(vec![br, st]);
        let post = block(vec![st, br]);
        // Either a trial takes the branch (memory diverges) or all trials
        // fall through (accepted differentially); with flag words random,
        // at least one taken trial is overwhelmingly likely.
        match validate("t", &pre, &post) {
            Err(e) => assert!(e.detail.contains("diverges"), "{}", e.detail),
            Ok(p) => assert_eq!(p, Proof::Differential),
        }
    }
}
