//! The reference model of [`Pipeline::retire`] and the differential
//! test that holds the production pipeline to it.
//!
//! `Reference::retire` is the pipeline walk as it was first written —
//! `Option`s, a `VecDeque` instruction queue, three parallel scoreboard
//! arrays consulted under explicit `!= NO_REG` tests, a bubble recorded
//! only when there is one. The production `retire` is the same
//! arithmetic laid out as straight-line code (sentinel scoreboard slots,
//! a fixed ring, selects); it must agree with this model on every cycle
//! count and on every bit of every bubble cell. Both read Table I from
//! `darco_timing::config`, add bubble time up in whole `1/width`-cycle units and divide
//! once, when they report, and both count every event against the
//! component of the instruction that caused it. The model is built from
//! the public `MemSystem`/`Predictor`/`Stats` API only, so it is
//! compiled into no library.

use darco_host::layout::{CODE_CACHE_BASE, TOL_CODE_BASE, TOL_DATA_BASE};
use darco_host::stream::NO_REG;
use darco_host::{BranchKind, Component, DynInst, ExecClass, Owner};
use darco_timing::config::{
    FRONTEND_DEPTH, IQ_SIZE, ISSUE_WIDTH, L1D, L1I, LAT_COMPLEX_FP, LAT_COMPLEX_INT, LAT_SIMPLE_FP,
    LAT_SIMPLE_INT,
};
use darco_timing::predictor::Predictor;
use darco_timing::{BubbleCause, MemSystem, Pipeline, Stats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

const REGS: usize = 96; // 64 int + 32 fp

struct Reference {
    mem: MemSystem,
    pred: Predictor,
    stats: Stats,
    /// Bubble time per component and cause, in `1/width`-cycle units.
    bubble_units: [[u64; 4]; 7],

    reg_ready: [u64; REGS],
    reg_load_miss: [bool; REGS],
    reg_producer: [Component; REGS],

    last_issue: u64,
    issued_in_cycle: u32,
    iq_ring: VecDeque<u64>,

    fetch_pos: u64,
    fetch_in_cycle: u32,
    last_fetch_line: u64,
    redirect_at: Option<(u64, Component)>,

    // Two units per complex class (one per pipe), unpipelined.
    unit_free_cint: [u64; 2],
    unit_free_sfp: [u64; 2],
    unit_free_cfp: [u64; 2],

    max_completion: u64,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            mem: MemSystem::new(),
            pred: Predictor::new(),
            stats: Stats::default(),
            bubble_units: [[0; 4]; 7],
            reg_ready: [0; REGS],
            reg_load_miss: [false; REGS],
            reg_producer: [Component::AppCode; REGS],
            last_issue: 0,
            issued_in_cycle: 0,
            iq_ring: VecDeque::with_capacity(IQ_SIZE + 1),
            fetch_pos: 0,
            fetch_in_cycle: 0,
            last_fetch_line: u64::MAX,
            redirect_at: None,
            unit_free_cint: [0; 2],
            unit_free_sfp: [0; 2],
            unit_free_cfp: [0; 2],
            max_completion: 0,
        }
    }

    fn retire(&mut self, d: &DynInst) {
        let c = d.component.index();
        self.stats.insts[c] += 1;

        // ---- Front end ----------------------------------------------
        let mut frontend_cause: Option<(BubbleCause, Component)> = None;
        let natural =
            if self.fetch_in_cycle < ISSUE_WIDTH { self.fetch_pos } else { self.fetch_pos + 1 };
        let mut fetch = natural;
        if let Some((at, comp)) = self.redirect_at.take() {
            if at > fetch {
                fetch = at;
                frontend_cause = Some((BubbleCause::Branch, comp));
            }
            self.last_fetch_line = u64::MAX; // refetch the target line
        }
        let line = d.pc / u64::from(L1I.block);
        if line != self.last_fetch_line {
            self.last_fetch_line = line;
            let acc = self.mem.access_inst(d.pc);
            self.stats.i_accesses[c] += 1;
            if acc.l1_miss {
                self.stats.i_misses[c] += 1;
            }
            if acc.latency > 1 {
                let icache_delay = (acc.latency - 1) as u64;
                // The larger of redirect vs I$ delay dominates attribution.
                let branch_delay = fetch - natural;
                fetch += icache_delay;
                if frontend_cause.is_none() || icache_delay > branch_delay {
                    frontend_cause = Some((BubbleCause::ICacheMiss, d.component));
                }
            }
        }
        if fetch > self.fetch_pos {
            self.fetch_pos = fetch;
            self.fetch_in_cycle = 1;
        } else {
            self.fetch_in_cycle += 1;
        }

        let decode_ready = fetch + FRONTEND_DEPTH;
        let iq_ready = if self.iq_ring.len() == IQ_SIZE {
            self.iq_ring.front().copied().unwrap_or(0) + 1
        } else {
            0
        };
        let t_front = decode_ready.max(iq_ready) + 1;

        // ---- Issue constraints --------------------------------------
        let t_inorder =
            if self.issued_in_cycle < ISSUE_WIDTH { self.last_issue } else { self.last_issue + 1 };

        // `reg_ready` holds the cycle the producer's result is on the
        // bypass network (its EXE completion). The consumer reads in its
        // own EXE stage (issue + 2), so the issue-time constraint is the
        // bypass time minus the pipeline offset.
        let mut t_src_exec = 0u64;
        let mut src_load_miss = false;
        let mut src_producer = d.component;
        // The two sources, then dst, which participates for WAW ordering
        // on the scoreboard.
        for s in [d.srcs[0], d.srcs[1], d.dst] {
            if s != NO_REG {
                let r = self.reg_ready[s as usize];
                if r > t_src_exec {
                    t_src_exec = r;
                    src_load_miss = self.reg_load_miss[s as usize];
                    src_producer = self.reg_producer[s as usize];
                }
            }
        }
        let t_src = t_src_exec.saturating_sub(2);

        let (t_unit, unit_slot) = self.unit_constraint(d.class);

        let issue = t_front.max(t_inorder).max(t_src).max(t_unit);

        // ---- Bubble attribution (in 1/width-cycle units) -------------
        let width = ISSUE_WIDTH as u64;
        let gap = issue.saturating_sub(self.last_issue + 1) * width;
        let partial = if issue > self.last_issue && self.issued_in_cycle > 0 {
            width - self.issued_in_cycle.min(ISSUE_WIDTH) as u64
        } else {
            0
        };
        let bubble = gap + partial;
        if bubble > 0 {
            let (cause, comp) = if issue == t_src && src_load_miss {
                (BubbleCause::DCacheMiss, src_producer)
            } else if issue == t_front && frontend_cause.is_some() {
                frontend_cause.unwrap()
            } else if issue == t_src || issue == t_unit {
                (BubbleCause::Scheduling, d.component)
            } else {
                // Front-end rate or in-order width limitation.
                (BubbleCause::Scheduling, d.component)
            };
            let col = BubbleCause::ALL.iter().position(|b| *b == cause).expect("cause is in ALL");
            self.bubble_units[comp.index()][col] += bubble;
        }

        if issue > self.last_issue {
            self.last_issue = issue;
            self.issued_in_cycle = 1;
        } else {
            self.issued_in_cycle += 1;
        }
        self.iq_ring.push_back(issue);
        if self.iq_ring.len() > IQ_SIZE {
            self.iq_ring.pop_front();
        }

        // ---- Execute ------------------------------------------------
        let exec = issue + 2; // ISSUE -> RR -> EXE
        let mut load_missed = false;
        let latency = match d.class {
            ExecClass::SimpleInt => LAT_SIMPLE_INT,
            ExecClass::ComplexInt => LAT_COMPLEX_INT,
            ExecClass::SimpleFp => LAT_SIMPLE_FP,
            ExecClass::ComplexFp => LAT_COMPLEX_FP,
            ExecClass::Load | ExecClass::Store => {
                if let Some(m) = d.mem() {
                    if m.is_prefetch {
                        // Software prefetch: fire-and-forget line fill —
                        // occupies an issue slot but never stalls.
                        self.mem.prefetch_fill(m.addr);
                        1
                    } else {
                        let acc = self.mem.access_data(d.pc, m.addr);
                        self.stats.d_accesses[c] += 1;
                        if acc.l1_miss {
                            self.stats.d_misses[c] += 1;
                        }
                        if d.class == ExecClass::Load {
                            // Any latency beyond the L1 hit (cache miss
                            // or TLB serialization) is a memory-system
                            // stall for attribution purposes.
                            load_missed = acc.latency > L1D.hit_latency;
                            acc.latency as u64
                        } else {
                            1 // stores retire via the store buffer
                        }
                    }
                } else {
                    1
                }
            }
            ExecClass::Branch | ExecClass::Jump => 1,
        };
        if let Some(slot) = unit_slot {
            // Unpipelined unit: the next same-class op's EXE must start
            // after this one finishes, i.e. its issue is `latency` later.
            self.set_unit_busy(d.class, slot, issue + latency);
        }
        let complete = exec + latency;
        self.max_completion = self.max_completion.max(complete);

        if d.dst != NO_REG {
            let i = d.dst as usize;
            self.reg_ready[i] = complete;
            self.reg_load_miss[i] = load_missed;
            self.reg_producer[i] = d.component;
        }

        // ---- Control flow -------------------------------------------
        if let Some((kind, target, taken)) = d.branch() {
            let mispredict = self.pred.predict_and_update(d.pc, kind, taken, target);
            self.stats.branches[c] += 1;
            if mispredict {
                self.stats.mispredicts[c] += 1;
                // Resolved in EXE; resteer the cycle after.
                self.redirect_at = Some((exec + 1, d.component));
            }
        }
    }

    fn unit_constraint(&self, class: ExecClass) -> (u64, Option<usize>) {
        let pool = match class {
            ExecClass::ComplexInt => &self.unit_free_cint,
            ExecClass::SimpleFp => &self.unit_free_sfp,
            ExecClass::ComplexFp => &self.unit_free_cfp,
            _ => return (0, None),
        };
        let (slot, &t) =
            pool.iter().enumerate().min_by_key(|(_, &t)| t).expect("unit pool is non-empty");
        (t, Some(slot))
    }

    fn set_unit_busy(&mut self, class: ExecClass, slot: usize, until: u64) {
        let pool = match class {
            ExecClass::ComplexInt => &mut self.unit_free_cint,
            ExecClass::SimpleFp => &mut self.unit_free_sfp,
            ExecClass::ComplexFp => &mut self.unit_free_cfp,
            _ => return,
        };
        pool[slot] = until;
    }

    fn cycles_so_far(&self) -> u64 {
        self.max_completion
    }

    fn snapshot(&self) -> Stats {
        let mut s = self.stats.clone();
        s.total_cycles = self.max_completion;
        for (c, units) in self.bubble_units.iter().enumerate() {
            for (k, &u) in units.iter().enumerate() {
                s.bubbles[c][k] = u as f64 / ISSUE_WIDTH as f64;
            }
        }
        s.prefetches = self.mem.prefetches();
        s
    }
}

const CLASSES: [ExecClass; 8] = [
    ExecClass::SimpleInt,
    ExecClass::ComplexInt,
    ExecClass::SimpleFp,
    ExecClass::ComplexFp,
    ExecClass::Load,
    ExecClass::Store,
    ExecClass::Branch,
    ExecClass::Jump,
];

const KINDS: [BranchKind; 4] =
    [BranchKind::CondDirect, BranchKind::UncondDirect, BranchKind::Indirect, BranchKind::Return];

/// Random retired-instruction streams that reach every arm of `retire`:
/// all classes and components; every operand slot absent or present
/// independently, drawn from a pool small enough that dependences, WAW
/// hazards and "source is also destination" are the rule; loads, stores
/// and software prefetches over a hot set, a stride and a miss-prone
/// range, in guest (TLB) and TOL (physical) space; a memory event on a
/// non-memory class; every branch kind, taken and not, on any class;
/// PCs that walk a line, cross lines and jump far. Now and then a
/// directed triple makes two operands ready in the same cycle, which
/// chance alone almost never does (see [`Stream::tie`]).
struct Stream {
    rng: SmallRng,
    pc: u64,
    stride: u64,
    queued: Vec<DynInst>,
}

impl Stream {
    fn reg(&mut self) -> u8 {
        match self.rng.gen_range(0u32..10) {
            0..=3 => NO_REG,
            4..=7 => self.rng.gen_range(0u8..6),  // int pool
            8 => 64 + self.rng.gen_range(0u8..3), // fp pool
            _ => self.rng.gen_range(0u8..REGS as u8),
        }
    }

    /// Two loads by different components that miss all the way to
    /// memory from one issue cycle, then a consumer of both: equal ready
    /// times with different tags, so the stall is charged to the wrong
    /// component unless the *first* maximum in slot order wins.
    fn tie(&mut self) {
        let line = self.pc & !63; // one I-line, so the loads can pair up
        let far = |rng: &mut SmallRng| TOL_DATA_BASE + rng.gen_range(1u64 << 20..1 << 26) * 64;
        let (a, b) = (far(&mut self.rng), far(&mut self.rng));
        let (ra, rb) = if self.rng.gen::<bool>() { (7, 6) } else { (6, 7) };
        self.queued = vec![
            DynInst::plain(TOL_CODE_BASE + line + 8, ExecClass::SimpleInt, Component::TolLookup)
                .with_srcs(ra, rb)
                .with_dst(8),
            DynInst::plain(TOL_CODE_BASE + line + 4, ExecClass::Load, Component::TolLookup)
                .with_dst(7)
                .with_mem(b, 8, false),
            DynInst::plain(TOL_CODE_BASE + line, ExecClass::Load, Component::TolIm)
                .with_dst(6)
                .with_mem(a, 8, false),
        ];
    }

    fn next(&mut self) -> DynInst {
        if self.queued.is_empty() && self.rng.gen_range(0u32..64) == 0 {
            self.tie();
        }
        if let Some(d) = self.queued.pop() {
            return d;
        }
        let component = Component::ALL
            [if self.rng.gen_range(0u32..3) == 0 { self.rng.gen_range(1usize..7) } else { 0 }];
        let code_base =
            if component == Component::AppCode { CODE_CACHE_BASE } else { TOL_CODE_BASE };
        self.pc = match self.rng.gen_range(0u32..40) {
            0 => self.rng.gen_range(0u64..1 << 22) * 4, // far jump: I$ misses
            1..=3 => self.rng.gen_range(0u64..64) * 64, // another hot line
            _ => self.pc + 4,
        } % (1 << 24);
        // SimpleInt dominates, as in real streams; the rest uniform.
        let class = if self.rng.gen::<bool>() {
            ExecClass::SimpleInt
        } else {
            CLASSES[self.rng.gen_range(0usize..8)]
        };
        let mut d = DynInst::plain(code_base + self.pc, class, component);
        d.dst = self.reg();
        d.srcs = [self.reg(), self.reg()];
        if self.rng.gen_range(0u32..8) == 0 && d.srcs[0] != NO_REG {
            d.dst = d.srcs[0];
        }
        let is_mem = matches!(class, ExecClass::Load | ExecClass::Store);
        // Most memory-class instructions access memory (not all: `mem:
        // None` is legal), and now and then another class carries an
        // event the model must ignore.
        let has_mem = if is_mem {
            self.rng.gen_range(0u32..8) != 0
        } else {
            self.rng.gen_range(0u32..50) == 0
        };
        if has_mem {
            let base = if self.rng.gen::<bool>() { 0 } else { TOL_DATA_BASE };
            self.stride += 64;
            let addr = base
                + match self.rng.gen_range(0u32..4) {
                    0 => self.rng.gen_range(0u64..32) * 8,       // hot lines
                    1 => 0x10_0000 + self.stride % (1 << 20),    // stream
                    2 => self.rng.gen_range(0u64..1 << 16) * 64, // 4 MiB: L1 misses
                    _ => self.rng.gen_range(0u64..1 << 26) * 64, // 4 GiB: everything misses
                } % (1 << 32);
            d = if self.rng.gen_range(0u32..10) == 0 {
                d.with_prefetch(addr)
            } else {
                d.with_mem(addr, 8, class == ExecClass::Store)
            };
        }
        let is_branch = matches!(class, ExecClass::Branch | ExecClass::Jump);
        if is_branch || self.rng.gen_range(0u32..60) == 0 {
            let kind = KINDS[self.rng.gen_range(0usize..4)];
            // A few stable targets (the BTB learns them) and some noise.
            let target = if self.rng.gen_range(0u32..4) == 0 {
                self.rng.gen::<u32>() as u64 * 4
            } else {
                code_base + (self.pc % 7) * 256
            };
            d = d.with_branch(kind, target, self.rng.gen::<bool>());
        }
        d
    }
}

fn assert_stats_identical(a: &Stats, b: &Stats, at: &str) {
    assert_eq!(a.total_cycles, b.total_cycles, "total_cycles {at}");
    assert_eq!(a.insts, b.insts, "insts {at}");
    for (c, (ra, rb)) in a.bubbles.iter().zip(&b.bubbles).enumerate() {
        for (k, (x, y)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "bubbles[{c}][{k}] {x} vs {y} {at}");
        }
    }
    assert_eq!(a.d_accesses, b.d_accesses, "d_accesses {at}");
    assert_eq!(a.d_misses, b.d_misses, "d_misses {at}");
    assert_eq!(a.i_accesses, b.i_accesses, "i_accesses {at}");
    assert_eq!(a.i_misses, b.i_misses, "i_misses {at}");
    assert_eq!(a.branches, b.branches, "branches {at}");
    assert_eq!(a.mispredicts, b.mispredicts, "mispredicts {at}");
    assert_eq!(a.prefetches, b.prefetches, "prefetches {at}");
}

/// The production pipeline and the reference agree after every retired
/// instruction, on twelve seeded streams.
#[test]
fn production_retire_matches_reference_model() {
    const RETIRES: usize = 20_000;
    for seed in 0x15_0002u64..0x15_0002 + 12 {
        let stream_id = format!("seed {seed:#x}");
        let mut fast = Pipeline::new();
        let mut slow = Reference::new();
        let mut stream =
            Stream { rng: SmallRng::seed_from_u64(seed), pc: 0, stride: 0, queued: Vec::new() };
        let mut seen = Coverage::default();
        for i in 1..=RETIRES {
            let d = stream.next();
            seen.note(&d);
            fast.retire(&d);
            slow.retire(&d);
            assert_eq!(
                fast.cycles_so_far(),
                slow.cycles_so_far(),
                "cycles after retire {i} ({stream_id}): {d:?}"
            );
            if i % 1000 == 0 {
                let at = format!("after retire {i} ({stream_id})");
                assert_stats_identical(&fast.snapshot(), &slow.snapshot(), &at);
            }
        }
        let s = fast.finish();
        assert_stats_identical(&s, &slow.snapshot(), &format!("at finish ({stream_id})"));
        seen.assert_complete(&s, &stream_id);
    }
}

/// What a stream exercised, so that a generator edit cannot quietly
/// stop reaching an arm the comparison is there for.
#[derive(Default)]
struct Coverage {
    classes: [bool; 8],
    components: [bool; 7],
    operand_shapes: [bool; 8],
    branch_arms: [bool; 8],
    src_is_dst: bool,
    prefetch: bool,
    mem_on_non_mem_class: bool,
}

impl Coverage {
    fn note(&mut self, d: &DynInst) {
        self.classes[CLASSES.iter().position(|c| *c == d.class).expect("known class")] = true;
        self.components[d.component.index()] = true;
        let present = |r: u8| (r != NO_REG) as usize;
        self.operand_shapes[present(d.srcs[0]) | present(d.srcs[1]) << 1 | present(d.dst) << 2] =
            true;
        self.src_is_dst |= d.dst != NO_REG && d.srcs.contains(&d.dst);
        if let Some((kind, _, taken)) = d.branch() {
            let k = KINDS.iter().position(|x| *x == kind).expect("known kind");
            self.branch_arms[2 * k + taken as usize] = true;
        }
        if let Some(m) = d.mem() {
            self.prefetch |= m.is_prefetch;
            self.mem_on_non_mem_class |= !matches!(d.class, ExecClass::Load | ExecClass::Store);
        }
    }

    fn assert_complete(&self, s: &Stats, stream: &str) {
        assert!(self.classes.iter().all(|&b| b), "classes {stream}");
        assert!(self.components.iter().all(|&b| b), "components {stream}");
        assert!(self.operand_shapes.iter().all(|&b| b), "NO_REG slot combinations {stream}");
        assert!(self.branch_arms.iter().all(|&b| b), "branch kinds x taken {stream}");
        assert!(self.src_is_dst && self.prefetch && self.mem_on_non_mem_class, "{stream}");
        // Every bubble cause was charged, to both owners where it can be.
        for cause in BubbleCause::ALL {
            for owner in [Owner::App, Owner::Tol] {
                assert!(s.owner_bubbles(owner, cause) > 0.0, "no {cause:?}/{owner:?} {stream}");
            }
        }
        // Every component missed both caches and mispredicted.
        for (name, counts) in
            [("i_misses", s.i_misses), ("d_misses", s.d_misses), ("mispredicts", s.mispredicts)]
        {
            assert!(counts.iter().all(|&n| n > 0), "{name} {counts:?} {stream}");
        }
    }
}
