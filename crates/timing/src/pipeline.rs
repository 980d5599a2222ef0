//! The in-order pipeline model.
//!
//! A timestamp dataflow walk over the retired instruction stream,
//! computing for every instruction when it fetches, issues and completes
//! under the front-end, instruction-queue, scoreboard (register
//! dependence), execution-unit and memory constraints of the paper's host
//! (Fig. 4). For an in-order machine this is cycle-exact for issue: an
//! instruction issues at the maximum of its constraint times, and the
//! constraint that binds is exactly what caused any stall — which gives
//! the per-cause, per-component bubble attribution of Figs. 9 and 11
//! directly, with no post-processing.
//!
//! Accounting convention (documented in DESIGN.md): a fully idle issue
//! cycle is one bubble cycle attributed to the binding constraint of the
//! next instruction to issue; a half-used issue cycle contributes
//! `1/width` bubble cycles; instruction (retire) time is `insts/width`.
//! The effective branch misprediction penalty emerges from the modeled
//! depth (fetch→EXE ≈ 6 cycles, per Table I).

use crate::config::TimingConfig;
use crate::memsys::MemSystem;
use crate::predictor::Predictor;
use crate::stats::{BubbleCause, Stats};
use darco_host::stream::NO_REG;
use darco_host::{DynInst, ExecClass, Owner};

/// Register ids in use: 64 int + 32 fp.
const REGS: u8 = 96;
/// Scoreboard slots: one per `u8` value, so an operand byte indexes
/// without a bounds check. Slot [`NO_REG`] (255) is never written and
/// always reads 0, which can never be a strict maximum — an absent
/// operand needs no test.
const SLOTS: usize = 256;
/// Where an instruction without a destination writes; never read (real
/// ids are below [`REGS`]).
const TRASH_SLOT: usize = 254;
/// Tag-byte bit: the producer was a load that missed the L1-D. The low
/// bits hold the producer's [`darco_host::Component::index`].
const TAG_LOAD_MISS: u8 = 0x80;

const D_CACHE_MISS: usize = BubbleCause::DCacheMiss.index();
const I_CACHE_MISS: usize = BubbleCause::ICacheMiss.index();
const BRANCH: usize = BubbleCause::Branch.index();
const SCHEDULING: usize = BubbleCause::Scheduling.index();

/// Trace-driven pipeline simulator; feed with [`Pipeline::retire`] and
/// collect results with [`Pipeline::finish`].
#[derive(Debug)]
pub struct Pipeline {
    cfg: TimingConfig,
    mem: MemSystem,
    pred: Predictor,
    stats: Stats,

    /// Cycle each register's value is on the bypass network.
    reg_ready: [u64; SLOTS],
    /// Who produced it: component index, plus [`TAG_LOAD_MISS`].
    reg_tag: [u8; SLOTS],

    last_issue: u64,
    issued_in_cycle: u32,
    /// Issue times of the last `iq_size` instructions, the oldest at
    /// `iq_head`. Starts as `u64::MAX`, so that "oldest + 1" wraps to
    /// the 0 a queue that is not full yet imposes.
    iq_ring: Box<[u64]>,
    iq_head: usize,
    /// `partial_cycle[n]`: the bubble share of an issue cycle that used
    /// `n` of its slots, `(width - n) / width`; 0 for `n = 0`, a cycle
    /// that is not left behind.
    partial_cycle: Box<[f64]>,

    fetch_pos: u64,
    fetch_in_cycle: u32,
    last_fetch_line: u64,
    i_line_shift: u32,
    /// Pending resteer: the cycle fetch resumes and the component index
    /// of the mispredicted branch.
    redirect_at: Option<(u64, usize)>,

    // Two units per complex class (one per pipe), unpipelined.
    unit_free_cint: [u64; 2],
    unit_free_sfp: [u64; 2],
    unit_free_cfp: [u64; 2],

    max_completion: u64,
}

impl Pipeline {
    /// Builds a pipeline from the configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`TimingConfig::validate`] rejects the configuration
    /// (zero issue width or IQ size, non-power-of-two geometry, ...); the
    /// message names the field.
    pub fn new(cfg: TimingConfig) -> Pipeline {
        cfg.validate().expect("TimingConfig cannot be simulated");
        let mem = MemSystem::new(&cfg);
        // Line size is a power of two; cache the shift so the hot retire
        // path never divides.
        let i_line_shift = mem.i_line_bytes().trailing_zeros();
        let width = cfg.issue_width;
        Pipeline {
            mem,
            pred: Predictor::new(cfg.bp_history_bits, cfg.btb_entries),
            stats: Stats { issue_width: width, ..Stats::default() },
            reg_ready: [0; SLOTS],
            reg_tag: [0; SLOTS],
            last_issue: 0,
            issued_in_cycle: 0,
            iq_ring: vec![u64::MAX; cfg.iq_size as usize].into_boxed_slice(),
            iq_head: 0,
            partial_cycle: (0..=width)
                .map(|n| if n == 0 { 0.0 } else { (width - n) as f64 / width as f64 })
                .collect(),
            fetch_pos: 0,
            fetch_in_cycle: 0,
            last_fetch_line: u64::MAX,
            i_line_shift,
            redirect_at: None,
            unit_free_cint: [0; 2],
            unit_free_sfp: [0; 2],
            unit_free_cfp: [0; 2],
            max_completion: 0,
            cfg,
        }
    }

    /// Processes one retired instruction.
    ///
    /// Two thirds of the stream is plain integer work with nothing to
    /// look up, so the constraint arithmetic is straight-line (selects,
    /// fixed-slot reads) and only the rare events — redirect, I-line
    /// change, memory access, branch — are branches. Held bit-identical
    /// to the readable model in `tests/retire_reference.rs`.
    pub fn retire(&mut self, d: &DynInst) {
        debug_assert!(
            [d.srcs[0], d.srcs[1], d.dst].iter().all(|&r| r < REGS || r == NO_REG),
            "register id out of range: {d:?}"
        );
        let owner = d.owner();
        let comp = d.component.index();
        let width = self.cfg.issue_width;
        self.stats.insts[comp] += 1;

        // ---- Front end ----------------------------------------------
        // Cause and component of a front-end delay. "Scheduling, by this
        // instruction" doubles as "none": it is what a stall nobody else
        // claims is charged to.
        let (mut fe_cause, mut fe_comp) = (SCHEDULING, comp);
        let natural = self.fetch_pos + u64::from(self.fetch_in_cycle >= width);
        let mut fetch = natural;
        if let Some((at, by)) = self.redirect_at.take() {
            if at > fetch {
                fetch = at;
                (fe_cause, fe_comp) = (BRANCH, by);
            }
            self.last_fetch_line = u64::MAX; // refetch the target line
        }
        let line = d.pc >> self.i_line_shift;
        if line != self.last_fetch_line {
            self.last_fetch_line = line;
            let acc = self.mem.access_inst(owner, d.pc);
            if acc.latency > 1 {
                let icache_delay = (acc.latency - 1) as u64;
                // The larger of redirect vs I$ delay dominates attribution.
                let branch_delay = fetch - natural;
                fetch += icache_delay;
                if fe_cause == SCHEDULING || icache_delay > branch_delay {
                    (fe_cause, fe_comp) = (I_CACHE_MISS, comp);
                }
            }
        }
        // `fetch >= natural >= fetch_pos`, so the store needs no test.
        self.fetch_in_cycle = if fetch > self.fetch_pos { 1 } else { self.fetch_in_cycle + 1 };
        self.fetch_pos = fetch;

        let decode_ready = fetch + self.cfg.frontend_depth as u64;
        let iq_ready = self.iq_ring[self.iq_head].wrapping_add(1);
        let t_front = decode_ready.max(iq_ready) + 1;

        // ---- Issue constraints --------------------------------------
        let t_inorder = self.last_issue + u64::from(self.issued_in_cycle >= width);

        // `reg_ready` holds the cycle the producer's result is on the
        // bypass network (its EXE completion). The consumer reads in its
        // own EXE stage (issue + 2), so the issue-time constraint is the
        // bypass time minus the pipeline offset. The destination takes
        // part for WAW ordering. The first strict maximum in slot order
        // names the producer.
        let mut t_src_exec = 0u64;
        let mut src_tag = comp as u8;
        for s in [d.srcs[0], d.srcs[1], d.dst] {
            let r = self.reg_ready[s as usize];
            if r > t_src_exec {
                t_src_exec = r;
                src_tag = self.reg_tag[s as usize];
            }
        }
        let t_src = t_src_exec.saturating_sub(2);

        let (t_unit, unit_slot) = self.unit_constraint(d.class);

        let issue = t_front.max(t_inorder).max(t_src).max(t_unit);

        // ---- Bubble attribution -------------------------------------
        let new_cycle = issue > self.last_issue;
        let gap = issue.saturating_sub(self.last_issue + 1) as f64;
        let left_behind = if new_cycle { self.issued_in_cycle.min(width) } else { 0 };
        let bubble = gap + self.partial_cycle[left_behind as usize];
        let (cause, by) = if issue == t_src && src_tag & TAG_LOAD_MISS != 0 {
            (D_CACHE_MISS, (src_tag & !TAG_LOAD_MISS) as usize)
        } else if issue == t_front {
            (fe_cause, fe_comp)
        } else {
            // Dependence, busy unit, front-end rate or in-order width.
            (SCHEDULING, comp)
        };
        // Not under `if bubble > 0.0`: the sums start at +0.0 and only
        // ever receive non-negative terms, so they are never -0.0 and
        // `x + 0.0` leaves every bit of them alone.
        self.stats.bubbles[by][cause] += bubble;

        self.issued_in_cycle = if new_cycle { 1 } else { self.issued_in_cycle + 1 };
        self.last_issue = issue; // `issue >= t_inorder >= last_issue`
        self.iq_ring[self.iq_head] = issue;
        self.iq_head = if self.iq_head + 1 == self.iq_ring.len() { 0 } else { self.iq_head + 1 };

        // ---- Execute ------------------------------------------------
        let exec = issue + 2; // ISSUE -> RR -> EXE
        let mut load_missed = false;
        let latency = match d.class {
            ExecClass::SimpleInt => self.cfg.lat_simple_int as u64,
            ExecClass::ComplexInt => self.cfg.lat_complex_int as u64,
            ExecClass::SimpleFp => self.cfg.lat_simple_fp as u64,
            ExecClass::ComplexFp => self.cfg.lat_complex_fp as u64,
            ExecClass::Load | ExecClass::Store => {
                if let Some(m) = d.mem {
                    if m.is_prefetch {
                        // Software prefetch: fire-and-forget line fill —
                        // occupies an issue slot but never stalls.
                        self.mem.prefetch_fill(owner, m.addr);
                        1
                    } else {
                        let acc = self.mem.access_data(owner, d.pc, m.addr, m.is_store);
                        if d.class == ExecClass::Load {
                            // Any latency beyond the L1 hit (cache miss
                            // or TLB serialization) is a memory-system
                            // stall for attribution purposes.
                            load_missed = acc.latency > self.cfg.l1d.hit_latency;
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

        let dst = if d.dst == NO_REG { TRASH_SLOT } else { d.dst as usize };
        self.reg_ready[dst] = complete;
        self.reg_tag[dst] = comp as u8 | if load_missed { TAG_LOAD_MISS } else { 0 };

        // ---- Control flow -------------------------------------------
        if let Some((kind, target, taken)) = d.branch {
            let mispredict = self.pred.predict_and_update(d.pc, kind, taken, target);
            self.stats.record_branch(owner, mispredict);
            if mispredict {
                // Resolved in EXE; resteer the cycle after.
                self.redirect_at = Some((exec + 1, comp));
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

    /// Completes the run and returns the statistics.
    pub fn finish(mut self) -> Stats {
        self.stats.total_cycles = self.max_completion;
        for (i, owner) in [Owner::App, Owner::Tol].into_iter().enumerate() {
            let m = self.mem.owner_stats(owner);
            self.stats.d_accesses[i] = m.d_accesses;
            self.stats.d_misses[i] = m.d_misses;
            self.stats.i_accesses[i] = m.i_accesses;
            self.stats.i_misses[i] = m.i_misses;
        }
        self.stats.prefetches = self.mem.prefetches();
        self.stats
    }

    /// Read-only view of the running statistics (cycle and memory-system
    /// totals are only filled by [`Pipeline::finish`]/[`Pipeline::snapshot`]).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Cycles elapsed so far (the completion time of the latest-finishing
    /// instruction) — the same value [`Pipeline::snapshot`] reports as
    /// `total_cycles`, without cloning the statistics.
    pub fn cycles_so_far(&self) -> u64 {
        self.max_completion
    }

    /// A complete statistics snapshot at the current point, without
    /// consuming the pipeline.
    pub fn snapshot(&self) -> Stats {
        let mut s = self.stats.clone();
        s.total_cycles = self.max_completion;
        for (i, owner) in [Owner::App, Owner::Tol].into_iter().enumerate() {
            let m = self.mem.owner_stats(owner);
            s.d_accesses[i] = m.d_accesses;
            s.d_misses[i] = m.d_misses;
            s.i_accesses[i] = m.i_accesses;
            s.i_misses[i] = m.i_misses;
        }
        s.prefetches = self.mem.prefetches();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_host::stream::int_reg;
    use darco_host::{BranchKind, Component};

    fn simple(pc: u64) -> DynInst {
        DynInst::plain(pc, ExecClass::SimpleInt, Component::AppCode)
    }

    /// Warm up the I-cache over a tiny loop footprint so fetch effects
    /// vanish, then measure.
    fn run_loop(insts: &[DynInst], iters: usize) -> Stats {
        let mut p = Pipeline::new(TimingConfig::default());
        for _ in 0..iters {
            for d in insts {
                p.retire(d);
            }
        }
        p.finish()
    }

    #[test]
    fn independent_stream_reaches_full_width() {
        // Independent simple ints at distinct pcs within one line.
        let insts: Vec<DynInst> = (0..8).map(|i| simple(i * 4)).collect();
        let s = run_loop(&insts, 20_000);
        assert!(s.ipc() > 1.9, "ipc = {}", s.ipc());
    }

    #[test]
    fn dependent_chain_halves_throughput() {
        // Each instruction reads the previous one's destination.
        let insts: Vec<DynInst> = (0..8)
            .map(|i| simple(i * 4).with_dst(int_reg(1)).with_srcs(int_reg(1), NO_REG))
            .collect();
        let s = run_loop(&insts, 20_000);
        assert!(s.ipc() < 1.1, "ipc = {}", s.ipc());
        // The stall shows up as scheduling bubbles.
        assert!(
            s.owner_bubbles(Owner::App, BubbleCause::Scheduling) > 0.0,
            "dependence stalls must be scheduling bubbles"
        );
    }

    #[test]
    fn load_misses_become_dcache_bubbles() {
        // A pointer-chase over a footprint far beyond L2, consumer
        // immediately dependent.
        let mut p = Pipeline::new(TimingConfig::default());
        let mut x = 0x12345678u64;
        for _ in 0..50_000u64 {
            // xorshift scramble: no stable stride for the prefetcher.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x % (1 << 24)) * 64;
            let ld = DynInst::plain(0x100, ExecClass::Load, Component::AppCode)
                .with_dst(int_reg(2))
                .with_mem(addr, 4, false);
            let use_it = simple(0x104).with_srcs(int_reg(2), NO_REG).with_dst(int_reg(3));
            p.retire(&ld);
            p.retire(&use_it);
        }
        let s = p.finish();
        let d = s.owner_bubbles(Owner::App, BubbleCause::DCacheMiss);
        assert!(d > 0.0);
        assert!(
            d > s.owner_bubbles(Owner::App, BubbleCause::Scheduling),
            "memory-bound loop must be dominated by D$ bubbles"
        );
        assert!(s.ipc() < 0.2, "ipc = {}", s.ipc());
    }

    #[test]
    fn mispredicted_branches_cost_about_six_cycles() {
        // A data-dependent (unpredictable-target) indirect jump per
        // iteration: every one mispredicts.
        let mut p = Pipeline::new(TimingConfig::default());
        let n = 10_000u64;
        for i in 0..n {
            p.retire(&simple(0x0));
            p.retire(&DynInst::plain(0x4, ExecClass::Jump, Component::AppCode).with_branch(
                BranchKind::Indirect,
                0x1000 + (i % 64) * 128, // changing targets defeat the BTB
                true,
            ));
        }
        let s = p.finish();
        assert!(s.mispredict_rate(Owner::App) > 0.9);
        let br = s.owner_bubbles(Owner::App, BubbleCause::Branch);
        let per_branch = br / n as f64;
        assert!(
            (4.0..8.0).contains(&per_branch),
            "effective penalty should be about 6 cycles, got {per_branch}"
        );
    }

    #[test]
    fn giant_code_footprint_creates_icache_bubbles() {
        // Walk 4 MB of code once per iteration: everything misses L1I.
        let mut p = Pipeline::new(TimingConfig::default());
        for rep in 0..4u64 {
            for i in 0..20_000u64 {
                // One instruction per 64B line, strided to defeat reuse.
                p.retire(&simple(rep + i * 64 * 7));
            }
        }
        let s = p.finish();
        assert!(
            s.owner_bubbles(Owner::App, BubbleCause::ICacheMiss) > 0.0,
            "line-crossing misses must produce I$ bubbles"
        );
        assert!(s.i_miss_rate(Owner::App) > 0.5);
    }

    #[test]
    fn attributed_time_tracks_total_cycles() {
        let insts: Vec<DynInst> = (0..16)
            .map(|i| {
                if i % 4 == 0 {
                    DynInst::plain(i * 4, ExecClass::Load, Component::AppCode)
                        .with_dst(int_reg(2))
                        .with_mem(0x2000 + (i % 8) * 64, 4, false)
                } else {
                    simple(i * 4).with_srcs(int_reg(2), NO_REG).with_dst(int_reg(4))
                }
            })
            .collect();
        let s = run_loop(&insts, 5_000);
        let attributed = s.attributed_time();
        let total = s.total_cycles as f64;
        let err = (attributed - total).abs() / total;
        assert!(err < 0.15, "attribution error {err} (attributed {attributed}, total {total})");
    }

    #[test]
    fn complex_units_serialize() {
        // Four independent FP divides per "cycle group" contend for the
        // two unpipelined complex FP units.
        let insts: Vec<DynInst> = (0..8)
            .map(|i| DynInst::plain(i * 4, ExecClass::ComplexFp, Component::AppCode))
            .collect();
        let s = run_loop(&insts, 5_000);
        // Two 5-cycle unpipelined units sustain at most 2/5 inst/cycle.
        assert!(s.ipc() < 0.45, "ipc = {}", s.ipc());
    }

    #[test]
    fn software_prefetch_fills_without_stalling() {
        let mut p = Pipeline::new(TimingConfig::default());
        // Prefetch a line, then load from it: the load must hit.
        p.retire(&DynInst::plain(0x100, ExecClass::Load, Component::AppCode).with_prefetch(0x9000));
        // Spacer work so the (modelled-as-instant) fill precedes the load.
        for i in 0..4 {
            p.retire(&simple(0x104 + i * 4));
        }
        p.retire(
            &DynInst::plain(0x200, ExecClass::Load, Component::AppCode)
                .with_dst(int_reg(2))
                .with_mem(0x9000, 4, false),
        );
        let s = p.finish();
        assert_eq!(s.d_misses[0], 0, "prefetched line must hit");
        assert_eq!(s.prefetches, 0, "software prefetches are not HW-prefetcher issues");
    }

    #[test]
    fn tol_and_app_attribution_separate() {
        let mut p = Pipeline::new(TimingConfig::default());
        for i in 0..20_000u64 {
            p.retire(&simple(i % 64));
            let tol = DynInst::plain(
                darco_host::layout::TOL_CODE_BASE + (i % 16) * 4,
                ExecClass::Load,
                Component::TolLookup,
            )
            .with_dst(int_reg(40))
            .with_mem(
                darco_host::layout::TOL_DATA_BASE + (i * 4099 * 64) % (1 << 26),
                8,
                false,
            );
            p.retire(&tol);
            // TOL consumer of the probe.
            p.retire(
                &DynInst::plain(
                    darco_host::layout::TOL_CODE_BASE + 0x40,
                    ExecClass::SimpleInt,
                    Component::TolLookup,
                )
                .with_srcs(int_reg(40), NO_REG)
                .with_dst(int_reg(41)),
            );
        }
        let s = p.finish();
        assert!(s.owner_insts(Owner::Tol) > 0);
        assert!(s.owner_insts(Owner::App) > 0);
        assert!(
            s.owner_bubbles(Owner::Tol, BubbleCause::DCacheMiss)
                > s.owner_bubbles(Owner::App, BubbleCause::DCacheMiss),
            "TOL's scattered probes must own the D$ bubbles"
        );
        assert!(s.component_time(Component::TolLookup) > 0.0);
    }
}
