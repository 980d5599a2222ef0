//! Reference models for the dense dataflow analyses.
//!
//! The production analyses keep their facts in register-indexed bitsets
//! and arrays ([`RegSet`], [`RegVec`]) and the passes consume them as one
//! running fact per sweep. What they replaced — a `HashSet` of live
//! registers and a `HashMap` of known values per program point, solved by
//! the generic fixpoint driver — lives on here as the readable reference,
//! built on the public [`Analysis`] / [`Lattice`] traits and [`solve`].
//! Every test asserts the two agree: fact by fact, for every register, at
//! every program point, over the random-IR generator and over directed
//! blocks aimed at the index arithmetic (virtuals past one and many
//! bitset words, FP virtuals, side exits, `r0`, the empty body).
//!
//! Runs in debug and in `--release` (`scripts/check.sh`): index-and-shift
//! code must hold with overflow checks and `debug_assert!` compiled out.

mod common;

use common::random_ir_block;
use darco_guest::{Cond, FpOp};
use darco_host::{Exit, FlagsKind, HAluOp, HFreg, HReg, Width};
use darco_tol::analysis::knownbits::{self, alu_result, flags_result, AbsVal};
use darco_tol::analysis::liveness::{self, LiveSet};
use darco_tol::analysis::regset::{RegSet, RegVec, VIRT_BASE};
use darco_tol::analysis::{solve, Analysis, Direction, Lattice};
use darco_tol::ir::{IrBlock, IrFreg, IrInst, IrOp, IrReg, FLAGS_REG, FSCRATCH_BASE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

// ------------------------------------------------------------ liveness

/// The reference live set: two hash sets of registers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct RefLive {
    int: HashSet<IrReg>,
    fp: HashSet<IrFreg>,
}

impl Lattice for RefLive {
    fn join(&mut self, other: &RefLive) {
        self.int.extend(other.int.iter().copied());
        self.fp.extend(other.fp.iter().copied());
    }
}

/// The full pinned architectural state (what every exit observes):
/// integer r1..=r10 (guest GPRs, flags, exit target) and FP f0..f7.
fn ref_pinned() -> RefLive {
    RefLive {
        int: (1..=10).map(|r| IrReg::Phys(HReg(r))).collect(),
        fp: (0..FSCRATCH_BASE).map(|f| IrFreg::Phys(HFreg(f))).collect(),
    }
}

struct RefLiveness;

impl Analysis for RefLiveness {
    type Fact = RefLive;
    const DIRECTION: Direction = Direction::Backward;

    fn boundary(&self, _block: &IrBlock) -> RefLive {
        ref_pinned()
    }

    fn transfer(&self, op: &IrOp, _idx: usize, fact: &mut RefLive, _block: &IrBlock) {
        if op.inst == IrInst::Nop {
            return;
        }
        if op.inst.is_branch() {
            fact.join(&ref_pinned());
        }
        if let Some(d) = op.inst.dst() {
            fact.int.remove(&d);
        }
        if let Some(d) = op.inst.fdst() {
            fact.fp.remove(&d);
        }
        fact.int.extend(op.inst.srcs().into_iter().flatten());
        fact.fp.extend(op.inst.fsrcs().into_iter().flatten());
    }
}

// ---------------------------------------------------------- known bits

/// The reference value map: a hash map, absent = top, `r0` = 0.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct RefVals(HashMap<IrReg, AbsVal>);

impl RefVals {
    fn get(&self, r: IrReg) -> Option<AbsVal> {
        if r == IrReg::ZERO {
            return Some(AbsVal::constant(0));
        }
        self.0.get(&r).copied()
    }

    fn get_or_top(&self, r: IrReg) -> AbsVal {
        self.get(r).unwrap_or_else(AbsVal::top)
    }

    fn set(&mut self, r: IrReg, v: AbsVal) {
        if v == AbsVal::top() {
            self.0.remove(&r);
        } else {
            self.0.insert(r, v);
        }
    }
}

impl Lattice for RefVals {
    fn join(&mut self, other: &RefVals) {
        self.0.retain(|k, _| other.0.contains_key(k));
        for (k, v) in &mut self.0 {
            v.join(&other.0[k]);
        }
    }
}

struct RefKnownBits;

impl Analysis for RefKnownBits {
    type Fact = RefVals;
    const DIRECTION: Direction = Direction::Forward;

    fn boundary(&self, _block: &IrBlock) -> RefVals {
        RefVals::default()
    }

    fn transfer(&self, op: &IrOp, _idx: usize, fact: &mut RefVals, _block: &IrBlock) {
        match op.inst {
            IrInst::Alu { op, rd, ra, rb } => {
                let v = alu_result(op, fact.get_or_top(ra), fact.get_or_top(rb));
                fact.set(rd, v);
            }
            IrInst::AluI { op, rd, ra, imm } => {
                let v = alu_result(op, fact.get_or_top(ra), AbsVal::constant(imm as u32));
                fact.set(rd, v);
            }
            IrInst::Li { rd, imm } => fact.set(rd, AbsVal::constant(imm as u32)),
            IrInst::FlagsArith { kind, rd, ra, rb } => {
                let v = flags_result(kind, fact.get_or_top(ra), fact.get_or_top(rb));
                fact.set(rd, v);
            }
            IrInst::Ld { rd, width, .. } => {
                let v = match width {
                    Width::W1 => AbsVal { zeros: !0xFF, ones: 0, lo: 0, hi: 0xFF },
                    Width::W2 => AbsVal { zeros: !0xFFFF, ones: 0, lo: 0, hi: 0xFFFF },
                    Width::W4 | Width::W8 => AbsVal::top(),
                };
                fact.set(rd, v);
            }
            IrInst::Mul { rd, .. } | IrInst::Div { rd, .. } | IrInst::CvtFI { rd, .. } => {
                fact.set(rd, AbsVal::top());
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------- comparison

/// Every register worth asking about: the whole physical files, every
/// register the block mentions, and a few virtuals it does not.
fn universe(block: &IrBlock) -> (Vec<IrReg>, Vec<IrFreg>) {
    let mut int: Vec<IrReg> = (0..64).map(|r| IrReg::Phys(HReg(r))).collect();
    let mut fp: Vec<IrFreg> = (0..32).map(|r| IrFreg::Phys(HFreg(r))).collect();
    for op in &block.ops {
        int.extend(op.inst.srcs().into_iter().flatten().chain(op.inst.dst()));
        fp.extend(op.inst.fsrcs().into_iter().flatten().chain(op.inst.fdst()));
    }
    for v in [0, 63, 64, 65, 127, 128, 999, 1_000, 5_000] {
        int.push(IrReg::Virt(v));
        fp.push(IrFreg::Virt(v));
    }
    (int, fp)
}

/// Asserts dense facts == reference facts for every register at every
/// program point, and the single-sweep consumer == the filter over the
/// per-point facts.
fn assert_agrees(block: &IrBlock, what: &str) {
    let (ints, fps) = universe(block);
    let n = block.ops.len();

    let live = liveness::facts(block);
    let ref_live = solve(&RefLiveness, block);
    assert_eq!((live.len(), ref_live.len()), (n + 1, n + 1), "{what}: one fact per point");
    for (i, (d, r)) in live.iter().zip(&ref_live).enumerate() {
        for &x in &ints {
            assert_eq!(d.int.contains(x.index()), r.int.contains(&x), "{what}: point {i}, {x}");
            assert_eq!(d.contains_int(x), r.int.contains(&x), "{what}: point {i}, {x}");
        }
        for &x in &fps {
            assert_eq!(d.fp.contains(x.index()), r.fp.contains(&x), "{what}: point {i}, {x}");
        }
        // Nothing beyond the registers asked about either.
        assert_eq!((d.int.len(), d.fp.len()), (r.int.len(), r.fp.len()), "{what}: point {i}");
    }

    let by_filter = |is_dead: &dyn Fn(usize, IrReg) -> bool| -> Vec<usize> {
        (0..n)
            .filter(|&i| match block.ops[i].inst {
                IrInst::FlagsArith { rd, .. } => is_dead(i, rd),
                _ => false,
            })
            .collect()
    };
    let mut dead = vec![usize::MAX]; // stale contents must not survive
    let mut running = LiveSet::default();
    running.int.insert(VIRT_BASE + 3); // nor a stale running fact
    liveness::dead_flag_defs(block, &mut running, &mut dead);
    assert_eq!(dead, by_filter(&|i, rd| !live[i + 1].contains_int(rd)), "{what}: dense filter");
    assert_eq!(dead, by_filter(&|i, rd| !ref_live[i + 1].int.contains(&rd)), "{what}: reference");
    if n > 0 {
        assert_eq!(running, live[0], "{what}: the sweep ends on the block-entry fact");
    }

    let vals = knownbits::facts(block);
    let ref_vals = solve(&RefKnownBits, block);
    assert_eq!((vals.len(), ref_vals.len()), (n + 1, n + 1), "{what}: one fact per point");
    for (i, (d, r)) in vals.iter().zip(&ref_vals).enumerate() {
        for &x in &ints {
            assert_eq!(d.get(x), r.get(x), "{what}: point {i}, {x}");
        }
    }
    // The running form `rangesimp` consumes: transfer by transfer.
    let mut running = knownbits::ValMap::default();
    for (i, op) in block.ops.iter().enumerate() {
        assert_eq!(running, vals[i], "{what}: running fact before op {i}");
        knownbits::transfer(&op.inst, &mut running);
    }
    assert_eq!(running, vals[n], "{what}: running fact at the end");
}

fn block(ops: Vec<IrInst>, stubs: u32) -> IrBlock {
    IrBlock {
        ops: ops
            .into_iter()
            .enumerate()
            .map(|(i, inst)| IrOp { inst, guest_idx: i as u32 })
            .collect(),
        stubs: (0..stubs).map(|_| Exit::Halt).collect(),
        stub_guest_counts: (1..=stubs).collect(),
        fallthrough: Exit::Halt,
        guest_len: 1,
    }
}

fn phys(r: u8) -> IrReg {
    IrReg::Phys(HReg(r))
}

const FLAGS: IrReg = IrReg::Phys(FLAGS_REG);

// --------------------------------------------------------------- tests

#[test]
fn dense_facts_match_the_reference_on_random_ir() {
    for case in 0u64..256 {
        let mut rng = SmallRng::seed_from_u64(0x70_7001 + case);
        let b = random_ir_block(&mut rng);
        assert_agrees(&b, &format!("random case {case}"));
    }
}

/// The random generator numbers virtuals from zero and rarely reaches
/// the second bitset word; shifting every virtual up exercises word
/// boundaries and growth far past the first allocation.
#[test]
fn dense_facts_match_the_reference_with_high_virtual_ids() {
    for (case, base) in [60u32, 64, 120, 1_000, 4_095].into_iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(0x70_8001 + case as u64);
        let mut b = random_ir_block(&mut rng);
        let up = |r: &mut IrReg| {
            if let IrReg::Virt(v) = r {
                *v += base;
            }
        };
        let fup = |r: &mut IrFreg| {
            if let IrFreg::Virt(v) = r {
                *v += base;
            }
        };
        for op in &mut b.ops {
            use IrInst::*;
            match &mut op.inst {
                Alu { rd, ra, rb, .. }
                | Mul { rd, ra, rb }
                | Div { rd, ra, rb }
                | FlagsArith { rd, ra, rb, .. } => [rd, ra, rb].into_iter().for_each(up),
                AluI { rd, ra, .. } => [rd, ra].into_iter().for_each(up),
                Li { rd, .. } => up(rd),
                Ld { rd, base, .. } => [rd, base].into_iter().for_each(up),
                St { rs, base, .. } => [rs, base].into_iter().for_each(up),
                Prefetch { base, .. } => up(base),
                FLd { fd, base, .. } => (fup(fd), up(base)).1,
                FSt { fs, base, .. } => (fup(fs), up(base)).1,
                FMov { fd, fa } => [fd, fa].into_iter().for_each(fup),
                FArith { fd, fa, fb, .. } => [fd, fa, fb].into_iter().for_each(fup),
                CvtIF { fd, ra } => (fup(fd), up(ra)).1,
                CvtFI { rd, fa } => (up(rd), fup(fa)).1,
                BrFlags { flags, .. } => up(flags),
                Nop => {}
            }
        }
        assert_agrees(&b, &format!("virtuals from {base}"));
    }
}

#[test]
fn directed_blocks_match_the_reference() {
    let fa = |rd, ra| IrInst::FlagsArith { kind: FlagsKind::Sub, rd, ra, rb: phys(2) };
    let br = |flags, stub| IrInst::BrFlags { cond: Cond::E, flags, stub };

    assert_agrees(&block(vec![], 0), "empty body");
    assert_agrees(&block(vec![IrInst::Nop, IrInst::Nop], 0), "tombstones only");

    // r0: reads as the constant 0 whatever was "written" to it, and is
    // never part of the pinned state.
    assert_agrees(
        &block(
            vec![
                IrInst::Li { rd: IrReg::ZERO, imm: 7 },
                IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: IrReg::ZERO, rb: IrReg::ZERO },
                IrInst::AluI { op: HAluOp::Or, rd: IrReg::Virt(0), ra: IrReg::ZERO, imm: 0 },
                IrInst::St { rs: IrReg::Virt(0), base: IrReg::ZERO, off: 64, width: Width::W4 },
            ],
            0,
        ),
        "r0",
    );

    // Branch-heavy: every side exit revives the whole pinned state, so
    // a redefinition on the far side of one never kills a flags def.
    assert_agrees(
        &block(
            vec![
                fa(FLAGS, phys(1)),
                br(FLAGS, 0),
                fa(FLAGS, phys(3)),
                fa(FLAGS, phys(4)),
                br(FLAGS, 1),
                IrInst::Li { rd: phys(5), imm: 1 },
                br(FLAGS, 2),
                fa(FLAGS, phys(5)),
                fa(FLAGS, phys(6)),
            ],
            3,
        ),
        "branch-heavy",
    );
    let mut dead = Vec::new();
    liveness::dead_flag_defs(
        &block(vec![fa(FLAGS, phys(1)), br(FLAGS, 0), fa(FLAGS, phys(3)), fa(FLAGS, phys(4))], 1),
        &mut LiveSet::default(),
        &mut dead,
    );
    assert_eq!(dead, vec![2], "only the def overwritten with no exit in between");

    // A dead virtual flags def, a live one feeding a branch, and
    // virtuals straddling bitset words.
    assert_agrees(
        &block(
            vec![
                fa(IrReg::Virt(63), phys(1)),
                fa(IrReg::Virt(64), phys(1)),
                fa(IrReg::Virt(1_000), phys(1)),
                br(IrReg::Virt(64), 0),
                IrInst::Alu {
                    op: HAluOp::And,
                    rd: IrReg::Virt(2_000),
                    ra: IrReg::Virt(1_000),
                    rb: phys(3),
                },
                IrInst::St { rs: IrReg::Virt(2_000), base: phys(4), off: 0, width: Width::W2 },
            ],
            1,
        ),
        "virtual flags defs",
    );

    // FP virtuals next to integer virtuals with the same numbers: the
    // two index spaces must not bleed into each other.
    assert_agrees(
        &block(
            vec![
                IrInst::Li { rd: IrReg::Virt(70), imm: 0x40 },
                IrInst::CvtIF { fd: IrFreg::Virt(70), ra: IrReg::Virt(70) },
                IrInst::FLd { fd: IrFreg::Virt(1_500), base: phys(2), off: 8 },
                IrInst::FArith {
                    op: FpOp::Add,
                    fd: IrFreg::Phys(HFreg(2)),
                    fa: IrFreg::Virt(70),
                    fb: IrFreg::Virt(1_500),
                },
                IrInst::FMov { fd: IrFreg::Virt(3), fa: IrFreg::Phys(HFreg(7)) },
                IrInst::CvtFI { rd: phys(6), fa: IrFreg::Virt(3) },
                IrInst::FSt { fs: IrFreg::Phys(HFreg(2)), base: IrReg::Virt(70), off: 0 },
            ],
            0,
        ),
        "fp virtuals",
    );
}

/// `RegSet` against `HashSet<usize>` under random insert / remove /
/// union / copy / clear, including comparisons between sets that have
/// grown to different lengths.
#[test]
fn regset_behaves_as_a_set() {
    let mut rng = SmallRng::seed_from_u64(0x70_9001);
    let index = |rng: &mut SmallRng| match rng.gen_range(0..4) {
        0 => rng.gen_range(0..VIRT_BASE),
        1 => VIRT_BASE + rng.gen_range(0usize..130),
        2 => VIRT_BASE + [63, 64, 127, 128, 191, 192][rng.gen_range(0..6)],
        _ => VIRT_BASE + rng.gen_range(0usize..3_000),
    };
    for _ in 0..200 {
        let (mut a, mut ra) = (RegSet::default(), HashSet::new());
        let (mut b, mut rb) = (RegSet::default(), HashSet::new());
        for _ in 0..rng.gen_range(0usize..60) {
            let i = index(&mut rng);
            match rng.gen_range(0..10) {
                0..=3 => (a.insert(i), ra.insert(i)).0,
                4..=5 => (b.insert(i), rb.insert(i)).0,
                6 => (a.remove(i), ra.remove(&i)).0,
                7 => (b.remove(i), rb.remove(&i)).0,
                8 => (a.union_with(&b), ra.extend(rb.iter().copied())).0,
                _ => assert_eq!(a.contains(i), ra.contains(&i), "contains({i})"),
            }
        }
        for (set, model) in [(&a, &ra), (&b, &rb)] {
            assert!(model.iter().all(|&i| set.contains(i)), "{set:?} lacks a member of {model:?}");
            assert_eq!((set.len(), set.is_empty()), (model.len(), model.is_empty()));
        }
        assert_eq!(a == b, ra == rb, "equality is set equality: {a:?} vs {b:?}");
        assert_eq!(b == a, ra == rb, "and symmetric");

        // Growing and emptying again must not make a set unequal to
        // one that never grew.
        let mut grown = a.clone();
        grown.insert(VIRT_BASE + 10_000);
        assert_ne!(grown, a);
        grown.remove(VIRT_BASE + 10_000);
        assert_eq!(grown, a, "trailing zero words are not a difference");
        assert_eq!(a, grown);

        grown.clear();
        assert!(grown.is_empty() && grown == RegSet::default());
    }
    let mut pinned = RegSet::of_phys(0b110);
    pinned.insert_phys(0b1000);
    assert!(pinned.len() == 3 && (1..=3).all(|r| pinned.contains(r)));
}

/// `RegVec` against `HashMap<usize, u32>`.
#[test]
fn regvec_behaves_as_a_map() {
    let mut rng = SmallRng::seed_from_u64(0x70_A001);
    for _ in 0..200 {
        let (mut m, mut r) = (RegVec::<u32>::default(), HashMap::new());
        for _ in 0..rng.gen_range(0usize..60) {
            let i = rng.gen_range(0usize..300);
            match rng.gen_range(0..4) {
                0 | 1 => {
                    let v = rng.gen_range(0u32..5);
                    m.insert(i, v);
                    r.insert(i, v);
                }
                2 => (m.remove(i), r.remove(&i)).0,
                _ => {
                    let drop = rng.gen_range(0u32..5);
                    m.retain(|&v| v != drop);
                    r.retain(|_, v| *v != drop);
                }
            }
            assert_eq!(m.get(i), r.get(&i).copied());
        }
        let mut want: Vec<(usize, u32)> = r.iter().map(|(&k, &v)| (k, v)).collect();
        want.sort_unstable();
        assert_eq!(m.iter().collect::<Vec<_>>(), want);
        assert!(m.span() >= want.len());

        let mut grown = m.clone();
        grown.insert(9_999, 1);
        assert_ne!(grown, m);
        grown.remove(9_999);
        assert_eq!(grown, m, "trailing absent slots are not a difference");
        assert_eq!(m, grown);
    }
}
