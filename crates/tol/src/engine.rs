//! The software layer's main execution engine (the paper's Fig. 3 flow).
//!
//! `code cache hit? → execute translation (chained) ;
//!  miss → count; over IM/BBth? → translate BB ; else interpret ;
//!  BB over BB/SBth? → form + optimize superblock`
//!
//! [`Tol::step`] advances the emulated guest by (at least) one dispatch
//! unit — one interpreted basic block or one run of chained translations
//! bounded by a budget — emitting every retired host instruction, tagged
//! with the TOL module or application code that retired it, as a
//! [`HostEvent::Retire`](darco_host::events::HostEvent::Retire). Events
//! are staged in a fixed-capacity [`EventBuffer`] and delivered to the
//! caller's [`HostEventSink`] in retire-order batches, flushed at the
//! end of every step. The caller
//! (DARCO's controller) dispatches those batches to the timing
//! simulator and co-simulates against the authoritative functional
//! emulator between steps.

use crate::codecache::{BlockKind, CacheError, CacheHealth, CodeCache, Installed, TranslatedBlock};
use crate::compile::{compile_bb, compile_sb, timed, StageNanos};
use crate::config::TolConfig;
use crate::emission::{self, Emitter};
use crate::ibtc::Ibtc;
use crate::ir::{self, EXIT_TARGET_REG, FLAGS_REG};
use crate::opt::PassTally;
use crate::profile::{Mode, Profiler};
use crate::superblock::form_region_into;
use crate::translate::{decode_bb_into, TranslateScratch};
use darco_guest::{CpuState, DecodeError, Flags, FpReg, Gpr, GuestMem};
use darco_host::events::{EventBuffer, EventStorage, HostEventSink, EVENT_BATCH};
use darco_host::layout::{guest_to_host, CODE_CACHE_BASE, TOL_CODE_BASE};
use darco_host::{
    exec_inst, mem_operand, BlockId, BranchKind, DynInst, Exit, HFreg, HostState, Outcome,
};
use serde::Serialize;
use std::ops::ControlFlow;

/// Counters the engine maintains across a run.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct TolCounters {
    /// Superblocks formed (the paper's "SBM invocations", Fig. 6).
    pub sbm_invocations: u64,
    /// Dynamic guest indirect branches (incl. returns), Fig. 7 overlay.
    pub indirect_branches: u64,
    /// Transitions from translated code into the software layer.
    pub tol_entries: u64,
    /// Superblocks whose optimization bailed (register pressure).
    pub opt_bailouts: u64,
    /// Speculative indirect-branch resolutions that hit (optional
    /// feature, Sec. III-E).
    pub spec_hits: u64,
    /// Speculative resolutions that missed (compensation taken).
    pub spec_misses: u64,
    /// Code-cache flushes forced by a guest write to translated code (a
    /// subset of [`RunSummary::flushes`]).
    pub smc_flushes: u64,
}

/// What one [`Tol::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Guest instructions retired during this step.
    pub guest_insts: u64,
    /// Mode the step (mostly) executed in.
    pub mode: Mode,
}

/// End-of-run summary used by the experiment drivers.
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    /// Engine counters.
    pub counters: TolCounters,
    /// Static guest instructions per final mode `[IM, BBM, SBM]`.
    pub static_dist: [u64; 3],
    /// Dynamic guest instructions per mode `[IM, BBM, SBM]`.
    pub dyn_dist: [u64; 3],
    /// Translations installed into the code cache (BBM and SBM,
    /// re-translations included).
    pub installed: u64,
    /// Code cache flushes, on overflow or after a guest write to
    /// translated code ([`TolCounters::smc_flushes`]).
    pub flushes: u64,
    /// Chain links created.
    pub chains: u64,
    /// IBTC hits.
    pub ibtc_hits: u64,
    /// IBTC misses.
    pub ibtc_misses: u64,
    /// End-of-run code-cache health: occupancy, dead space, and
    /// retranslations.
    pub cache: CacheHealth,
    /// Per-pass instruction deltas across every optimized block, in
    /// pipeline order (`darco analyze` reports these).
    pub pass_deltas: Vec<crate::opt::PassDelta>,
}

/// The Translation Optimization Layer engine.
#[derive(Debug)]
pub struct Tol {
    cfg: TolConfig,
    /// The code cache (public for inspection by experiments).
    pub cc: CodeCache,
    /// The indirect-branch translation cache.
    ibtc: Ibtc,
    /// The profiler.
    prof: Profiler,
    /// The interpreter's cost-stream templates.
    em: Emitter,
    host: HostState,
    guest_pc: u32,
    halted: bool,
    counters: TolCounters,
    /// Set when a step ended mid-translated-run purely for budget
    /// reasons, so the next entry does not re-charge a transition.
    resume_translated: bool,
    /// Last observed target per indirect exit site, for the optional
    /// speculative-resolution feature: `(block, exit) -> (guest, block)`.
    /// Cleared with every flush, like the IBTC.
    spec_targets: std::collections::HashMap<(BlockId, u32), (u32, BlockId)>,
    /// Reused allocation for the retirement event buffer.
    ev_storage: EventStorage,
    /// The guest layer's micro-op execution context (pre-decoded block
    /// buffers + lazy flags): the interpreter's executor.
    fastctx: darco_guest::uops::ExecCtx,
    /// Per-pass tallies across every optimized superblock.
    pass_deltas: PassTally,
    /// Wall-clock nanoseconds per compile-path stage. Kept outside
    /// [`TolCounters`] so serialized reports stay deterministic.
    pass_nanos: StageNanos,
    /// Reusable translation buffers.
    scratch: TranslateScratch,
}

impl Tol {
    /// Creates the layer with the emulated guest starting at `entry`.
    pub fn new(cfg: TolConfig, entry: u32) -> Tol {
        let cc = if cfg.codecache_scattered {
            CodeCache::new_scattered(cfg.code_cache_capacity)
        } else {
            CodeCache::new(cfg.code_cache_capacity)
        };
        let mut tol = Tol {
            cc,
            ibtc: Ibtc::new(cfg.ibtc_entries),
            prof: Profiler::new(),
            em: Emitter::new(),
            host: HostState::new(),
            guest_pc: entry,
            halted: false,
            counters: TolCounters::default(),
            resume_translated: false,
            spec_targets: std::collections::HashMap::new(),
            ev_storage: EventStorage::default(),
            fastctx: darco_guest::uops::ExecCtx::new(),
            pass_deltas: PassTally::default(),
            pass_nanos: Vec::new(),
            scratch: TranslateScratch::default(),
            cfg,
        };
        tol.store_cpu(&CpuState::at(entry));
        tol
    }

    /// Seeds the emulated guest state (e.g. initial stack pointer).
    pub fn set_state(&mut self, cpu: &CpuState) {
        self.guest_pc = cpu.eip;
        self.halted = cpu.halted;
        self.store_cpu(cpu);
    }

    /// Materializes the emulated guest state from the pinned host
    /// registers (the *Emulated x86 Register State* of the paper's
    /// Fig. 2), for the state checker.
    pub fn emulated_state(&self) -> CpuState {
        let mut cpu = CpuState::at(self.guest_pc);
        for (i, r) in Gpr::ALL.iter().enumerate() {
            cpu.set_gpr(*r, self.host.reg(ir::guest_gpr_reg(i)));
        }
        cpu.flags = Flags::from_word(self.host.reg(FLAGS_REG));
        for i in 0..8 {
            cpu.set_fpr(FpReg(i), self.host.freg(HFreg(i)));
        }
        cpu.halted = self.halted;
        cpu
    }

    fn store_cpu(&mut self, cpu: &CpuState) {
        for (i, r) in Gpr::ALL.iter().enumerate() {
            self.host.set_reg(ir::guest_gpr_reg(i), cpu.gpr(*r));
        }
        self.host.set_reg(FLAGS_REG, cpu.flags.to_word());
        for i in 0..8 {
            self.host.set_freg(HFreg(i), cpu.fpr(FpReg(i)));
        }
    }

    /// Wall-clock nanoseconds per stage of the compile path, BBM and
    /// SBM combined, in encounter order: the passes keyed like
    /// [`RunSummary::pass_deltas`] (BBM's peephole pair as
    /// `bbm-constprop` / `bbm-dce`), and around them `region` (decode /
    /// superblock formation), `translate` (guest → IR), `regalloc`,
    /// `lower` (IR → host) and `install` (retirement templates + code
    /// cache). Deliberately not part of [`TolCounters`] or
    /// [`RunSummary`]: serialized reports must stay bit-identical across
    /// reruns.
    pub fn pass_nanos(&self) -> &[(&'static str, u64)] {
        &self.pass_nanos
    }

    /// Heap bytes the layer holds, per holder, read from the
    /// structures' own lengths rather than from an allocator. Like
    /// [`Tol::pass_nanos`], kept out of [`RunSummary`].
    pub fn live_bytes(&self) -> Vec<(&'static str, usize)> {
        let mut out = self.cc.live_bytes().to_vec();
        out.push(("profiler pages", self.prof.page_bytes()));
        out.push(("interpreter uop cache", self.fastctx.cache_bytes()));
        out.push(("event buffer", self.ev_storage.bytes()));
        out
    }

    /// Whether the guest has halted.
    pub fn is_done(&self) -> bool {
        self.halted
    }

    /// Builds the end-of-run summary.
    pub fn summary(&self) -> RunSummary {
        let s = self.cc.stats();
        RunSummary {
            counters: self.counters,
            static_dist: self.prof.static_distribution(),
            dyn_dist: self.prof.dyn_insts,
            installed: s.installed,
            flushes: s.flushes,
            chains: s.chains,
            ibtc_hits: self.ibtc.hits(),
            ibtc_misses: self.ibtc.misses(),
            cache: self.cc.health(),
            pass_deltas: self.pass_deltas.deltas(),
        }
    }

    /// Advances the emulated guest by one dispatch unit, or up to
    /// `budget` guest instructions of chained translated execution.
    /// Events are delivered to `sink` in retire-order batches of at most
    /// [`EVENT_BATCH`]; the buffer is always drained before this returns
    /// (a budget boundary is a flush boundary).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the guest jumps into undecodable
    /// bytes.
    pub fn step(
        &mut self,
        mem: &mut GuestMem,
        sink: &mut dyn HostEventSink,
        budget: u64,
    ) -> Result<StepOutcome, DecodeError> {
        let storage = std::mem::take(&mut self.ev_storage);
        let mut ev = EventBuffer::from_storage(storage, EVENT_BATCH, sink);
        let out = self.step_buffered(mem, &mut ev, budget);
        self.ev_storage = ev.into_storage();
        out
    }

    fn step_buffered(
        &mut self,
        mem: &mut GuestMem,
        ev: &mut EventBuffer<'_>,
        budget: u64,
    ) -> Result<StepOutcome, DecodeError> {
        if self.halted {
            return Ok(StepOutcome { guest_insts: 0, mode: Mode::Im });
        }
        let pc = self.guest_pc;
        if self.cc.lookup(pc).is_some() {
            let n = self.run_translated(mem, ev, budget)?;
            return Ok(StepOutcome { guest_insts: n, mode: Mode::Sbm });
        }

        // Miss: the dispatcher decides between interpretation and
        // translation (Fig. 3, left vs. middle path).
        let count = self.prof.bump_target(pc);
        let promote = count > self.cfg.im_bb_threshold;
        emission::dispatch(ev, if promote { Mode::Bbm } else { Mode::Im });
        emission::map_lookup(ev, pc, false);

        if promote {
            if self.install_bb(pc, mem, ev)?.is_none() {
                // The translation alone exceeds the whole cache: it can
                // never be installed, so this block stays interpreted.
                let n = self.interpret_bb(mem, ev)?;
                return Ok(StepOutcome { guest_insts: n, mode: Mode::Im });
            }
            let n = self.run_translated(mem, ev, budget)?;
            Ok(StepOutcome { guest_insts: n, mode: Mode::Bbm })
        } else {
            let n = self.interpret_bb(mem, ev)?;
            Ok(StepOutcome { guest_insts: n, mode: Mode::Im })
        }
    }

    /// Runs the program to completion (or for `budget` guest
    /// instructions), returning total guest instructions executed:
    /// [`Tol::step`] in a loop.
    ///
    /// # Errors
    ///
    /// Propagates guest decode errors.
    pub fn run(
        &mut self,
        mem: &mut GuestMem,
        sink: &mut dyn HostEventSink,
        budget: u64,
    ) -> Result<u64, DecodeError> {
        let mut total = 0;
        while !self.halted && total < budget {
            total += self.step(mem, sink, budget - total)?.guest_insts;
        }
        Ok(total)
    }

    /// Interprets one basic block (IM): cold guest code runs against the
    /// *emulated* guest state from the guest layer's pre-decoded blocks,
    /// with each instruction's host cost charged through
    /// [`Emitter::interp_step`]. The paper counts interpretation
    /// as overhead despite its forward progress because of the high
    /// per-instruction emulation cost (Sec. III-B) — the emitted stream
    /// reflects that cost.
    fn interpret_bb(
        &mut self,
        mem: &mut GuestMem,
        ev: &mut EventBuffer<'_>,
    ) -> Result<u64, DecodeError> {
        let mut cpu = self.emulated_state();
        debug_assert!(
            !self.fastctx.lazy.is_pending(),
            "pending lazy flags across interpret_bb entries"
        );
        let mut n = 0u64;
        // One call runs the whole basic block; the visitor charges each
        // instruction's IM cost stream as it retires and ends the chunk
        // at the block-ending instruction.
        let Tol { prof, em, counters, fastctx, .. } = self;
        let ran =
            fastctx.run_visiting(&mut cpu, mem, u64::MAX, &mut n, |pc, op, control, accesses| {
                prof.mark_static([pc], Mode::Im);
                em.interp_step(ev, pc, &op.step_info(control, accesses));
                if op.inst.is_indirect() {
                    counters.indirect_branches += 1;
                }
                if op.block_end {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
        if let Err(e) = ran {
            // A pc the interpreter reaches counts as interpreted even
            // when it then fails to decode. The local `cpu` (which any
            // pending lazy definition refers to) is discarded with the
            // error.
            self.prof.mark_static([cpu.eip], Mode::Im);
            self.fastctx.discard_pending();
            return Err(e);
        }
        // Materialize any pending flag definition before the state
        // becomes visible to `StepBoundary` consumers via `store_cpu`.
        self.fastctx.force_flags(&mut cpu);
        self.prof.count_dynamic(Mode::Im, n);
        self.guest_pc = cpu.eip;
        self.halted = cpu.halted;
        self.store_cpu(&cpu);
        Ok(n)
    }

    /// Engagement counters of the interpreter's executor (micro-op
    /// cache hits, lazy-flag elisions).
    pub fn fast_stats(&self) -> darco_guest::uops::FastStats {
        self.fastctx.stats
    }

    /// Drops the engine's own handles after a code-cache flush, whatever
    /// its cause: every IBTC entry and speculation hint names the epoch
    /// that just ended.
    fn forget_flushed(&mut self) {
        self.ibtc.clear();
        self.spec_targets.clear();
    }

    /// Decodes, translates and installs the basic block at `entry`
    /// (BBM). `Ok(None)` means the translation was larger than the whole
    /// cache (it is rejected, and the caller falls back to
    /// interpretation).
    fn install_bb(
        &mut self,
        entry: u32,
        mem: &GuestMem,
        ev: &mut EventBuffer<'_>,
    ) -> Result<Option<BlockId>, DecodeError> {
        let TranslateScratch { region, ir, opt } = &mut self.scratch;
        region.clear();
        timed(&mut self.pass_nanos, "region", || decode_bb_into(mem, entry, region))?;
        let compiled = compile_bb(region, &self.cfg, ir, opt, &mut self.pass_nanos);
        let host_len = compiled.insts.len();
        let ins = timed(&mut self.pass_nanos, "install", || {
            self.cc.install(entry, compiled, BlockKind::Bb, region.iter().map(|r| r.pc), mem)
        });
        emission::bb_translate(ev, entry, region, written_at(&ins), host_len);
        let Ok(ins) = ins else {
            return Ok(None);
        };
        // Only an installed translation runs its pcs in BBM.
        self.prof.mark_static(region.iter().map(|r| r.pc), Mode::Bbm);
        if ins.flushed {
            self.forget_flushed();
        }
        Ok(Some(ins.id))
    }

    /// Forms, optimizes and installs a superblock rooted at `entry`.
    /// `Ok(None)` means the superblock was larger than the whole cache
    /// and was discarded (the BBM block keeps running).
    fn install_sb(
        &mut self,
        entry: u32,
        mem: &GuestMem,
        ev: &mut EventBuffer<'_>,
    ) -> Result<Option<(BlockId, bool)>, DecodeError> {
        let TranslateScratch { region, ir, opt } = &mut self.scratch;
        region.clear();
        let bbs = timed(&mut self.pass_nanos, "region", || {
            form_region_into(mem, entry, &self.prof, region)
        })?;
        let compiled =
            compile_sb(region, &self.cfg, ir, opt, &mut self.pass_deltas, &mut self.pass_nanos);
        if compiled.optimized.is_err() {
            self.counters.opt_bailouts += 1;
        }
        let (ir_len, host_len) = (compiled.ir_len, compiled.code.insts.len());
        self.counters.sbm_invocations += 1;
        let res = timed(&mut self.pass_nanos, "install", || {
            self.cc.install(entry, compiled.code, BlockKind::Sb, region.iter().map(|r| r.pc), mem)
        });
        emission::sb_optimize(ev, bbs as usize, ir_len, written_at(&res), host_len);
        let Ok(ins) = res else {
            return Ok(None);
        };
        self.prof.mark_static(region.iter().map(|r| r.pc), Mode::Sbm);
        if ins.flushed {
            self.forget_flushed();
        }
        Ok(Some((ins.id, ins.flushed)))
    }

    /// Follows promotion redirects (the patched entry jump of a promoted
    /// BBM block), charging one application-side jump per hop. A redirect
    /// and its superblock are of one epoch, so they die together.
    fn resolve_redirects(&mut self, mut bid: BlockId, ev: &mut EventBuffer<'_>) -> BlockId {
        while let Some(b) = self.cc.get(bid) {
            let (pc, Some(r)) = (b.host_base, b.redirect) else { break };
            let target = self.cc.get(r).expect("a redirect dies with its superblock").host_base;
            ev.retire(
                DynInst::plain(pc, darco_host::ExecClass::Jump, darco_host::Component::AppCode)
                    .with_branch(BranchKind::UncondDirect, target, true),
            );
            bid = r;
        }
        bid
    }

    /// Executes chained translations starting at the current guest pc
    /// (which must be translated), until control returns to the software
    /// layer, the program halts, or the budget expires.
    fn run_translated(
        &mut self,
        mem: &mut GuestMem,
        ev: &mut EventBuffer<'_>,
        budget: u64,
    ) -> Result<u64, DecodeError> {
        if !self.resume_translated {
            emission::transition(ev); // context restore, TOL -> app
        }
        self.resume_translated = false;
        let mut executed = 0u64;
        let mut bid = self.cc.lookup(self.guest_pc).expect("caller checked lookup");

        loop {
            // Dispatch guard: every hop (entry, chain link, IBTC hit,
            // speculation, redirect) lands here before executing, so a
            // handle from an earlier epoch returns control to the
            // dispatcher instead of running dead code.
            if self.cc.get(bid).is_none() {
                self.counters.tol_entries += 1;
                emission::transition(ev);
                return Ok(executed);
            }
            // The guest wrote to this translation's code: flush, as an
            // overflow does, and re-translate from the current bytes.
            if self.cc.smc_stale(bid, mem) {
                self.cc.flush();
                self.forget_flushed();
                self.counters.smc_flushes += 1;
                self.counters.tol_entries += 1;
                emission::transition(ev);
                return Ok(executed);
            }

            let (exit, exit_idx, guest_n, cond_taken) = self.exec_block_templates(bid, mem, ev);
            executed += guest_n;

            // Per-execution bookkeeping of BBM blocks: instrumentation
            // cost, execution counting, edge profiling.
            let (kind, entry, host_base, exec_count, promoted) = {
                let b = self.cc.get_mut(bid).expect("guarded live at dispatch");
                b.exec_count += 1;
                (b.kind, b.guest_entry, b.host_base, b.exec_count, b.promoted)
            };
            let mode = if kind == BlockKind::Bb { Mode::Bbm } else { Mode::Sbm };
            self.prof.count_dynamic(mode, guest_n);
            if kind == BlockKind::Bb {
                emission::bbm_instrumentation(ev, host_base + 4 * exit_idx as u64, entry);
                if let Some(taken) = cond_taken {
                    self.prof.record_edge(entry, taken);
                }
            }

            // Decide where control goes next (possibly through the
            // software layer), before any promotion can invalidate ids.
            let mut next: Option<BlockId> = match exit {
                Exit::Halt => {
                    // A region ends at its `Halt`; the pc stays on it, as
                    // the interpreter and `exec::step` leave it.
                    let b = self.cc.get(bid).expect("guarded live at dispatch");
                    self.guest_pc = b.last_pc;
                    self.halted = true;
                    emission::transition(ev);
                    return Ok(executed);
                }
                Exit::Direct { guest_target, link } => {
                    self.guest_pc = guest_target;
                    if let Some(to) = link {
                        Some(to)
                    } else if let Some(to) = self.cc.lookup(guest_target) {
                        // One trip into the layer to patch the exit (`chain`
                        // cannot fail: both blocks are live and `exit_idx` is
                        // the direct exit just taken).
                        self.counters.tol_entries += 1;
                        emission::transition(ev);
                        let _ = self.cc.chain(bid, exit_idx, to);
                        emission::chain(ev, host_base + 4 * exit_idx as u64);
                        emission::transition(ev);
                        Some(to)
                    } else {
                        // Unknown target: back to the dispatcher.
                        self.counters.tol_entries += 1;
                        emission::transition(ev);
                        return Ok(executed);
                    }
                }
                Exit::Indirect { reg } => {
                    debug_assert_eq!(reg, EXIT_TARGET_REG);
                    let target = self.host.reg(reg);
                    self.guest_pc = target;
                    self.counters.indirect_branches += 1;
                    let site_pc = host_base + 4 * exit_idx as u64;
                    // Optional speculative resolution (Sec. III-E): the
                    // exit inlines a compare against its last observed
                    // target and jumps straight to the cached translation
                    // on a match, skipping even the IBTC probe.
                    let spec_key = (bid, exit_idx as u32);
                    let mut speculated = None;
                    if self.cfg.speculate_indirect {
                        if let Some(&(t, to)) = self.spec_targets.get(&spec_key) {
                            let hit = t == target;
                            let to_base = self.cc.get(to).expect("flushes clear hints").host_base;
                            emission::spec_check(ev, site_pc, hit, to_base);
                            if hit {
                                self.counters.spec_hits += 1;
                                speculated = Some(to);
                            } else {
                                self.counters.spec_misses += 1;
                            }
                        }
                    }
                    if let Some(to) = speculated {
                        Some(to)
                    } else {
                        let slot = self.ibtc.slot(target);
                        let resolved = match self.ibtc.lookup(target) {
                            Some(to) => {
                                let to_base =
                                    self.cc.get(to).expect("flushes clear the IBTC").host_base;
                                emission::ibtc_probe_inline(ev, site_pc, slot, true, to_base);
                                Some(to)
                            }
                            None => {
                                emission::ibtc_probe_inline(ev, site_pc, slot, false, 0);
                                self.counters.tol_entries += 1;
                                emission::transition(ev);
                                let found = self.cc.lookup(target);
                                emission::map_lookup(ev, target, found.is_some());
                                match found {
                                    Some(to) => {
                                        self.ibtc.update(target, to);
                                        emission::ibtc_update(ev, slot);
                                        emission::transition(ev);
                                        Some(to)
                                    }
                                    None => return Ok(executed),
                                }
                            }
                        };
                        // Remember this site's target for next time.
                        if self.cfg.speculate_indirect {
                            if let Some(to) = resolved {
                                self.spec_targets.insert(spec_key, (target, to));
                            }
                        }
                        resolved
                    }
                }
            };

            // SBM promotion of the block just executed (Fig. 3, right
            // path): install the superblock and patch the old entry.
            if kind == BlockKind::Bb
                && exec_count >= self.cfg.bb_sb_threshold as u64
                && !promoted
                // Blocks already swallowed into an existing superblock
                // (reached through its side exits) are not re-optimized
                // at the normal threshold — that would spawn an avalanche
                // of overlapping superblocks. But a covered block that
                // *keeps* being entered at its own address (a loop head
                // reached by a back edge, while the covering superblock
                // was rooted at the function entry) earns its own
                // superblock at 4x the threshold.
                && (self.prof.static_mode(entry) != Some(Mode::Sbm)
                    || exec_count >= 4 * self.cfg.bb_sb_threshold as u64)
            {
                self.cc.get_mut(bid).expect("guarded live at dispatch").promoted = true;
                self.counters.tol_entries += 1;
                emission::transition(ev);
                match self.install_sb(entry, mem, ev)? {
                    Some((_, true)) => {
                        // Every id (including `next` and chain links) is
                        // stale; re-enter through the dispatcher.
                        emission::transition(ev);
                        next = self.cc.lookup(self.guest_pc);
                        if next.is_none() {
                            return Ok(executed);
                        }
                    }
                    Some((sb, false)) => {
                        // The BBM block stays as dead code behind a
                        // redirect until the next flush.
                        self.cc.redirect(bid, sb);
                        emission::transition(ev);
                    }
                    None => {
                        // Superblock larger than the cache: discarded.
                        // The (promoted) BBM block just keeps running.
                        emission::transition(ev);
                    }
                }
            }

            bid = self.resolve_redirects(next.expect("next block decided"), ev);

            if executed >= budget {
                // Budget pause (simulation artifact): no transition cost.
                self.resume_translated = true;
                return Ok(executed);
            }
        }
    }

    /// Executes one translated block functionally, emitting its dynamic
    /// host instructions. Returns the exit, the host index of the exit
    /// instruction, guest instructions retired, and — when the block ends
    /// in a conditional branch — whether it was taken.
    ///
    /// Retirement is by template: write the instruction's pc and copy
    /// the block's prebuilt record behind it into the event buffer,
    /// execute, and patch what only execution knows in the staged event
    /// (`darco_host::template`). No per-retire metadata
    /// derivation, no match over `HInst`, no copy on the stack. (The unit
    /// tests re-derive every record from the instruction's own metadata
    /// and compare.)
    fn exec_block_templates(
        &mut self,
        bid: BlockId,
        mem: &mut GuestMem,
        ev: &mut EventBuffer<'_>,
    ) -> (Exit, usize, u64, Option<bool>) {
        let block = self.cc.get(bid).expect("guarded live at dispatch");
        debug_assert!(block.redirect.is_none(), "{bid} runs behind its redirect");
        let mut idx = 0usize;
        loop {
            let d = ev.retire_in_place(block.host_base + 4 * idx as u64, &block.templates[idx]);

            // The template holds the operand; the effective address must
            // be read before execution, since the instruction may
            // overwrite its own base register.
            if let Some(addr) = d.mem_addr_mut() {
                let (base, off) = mem_operand(*addr);
                *addr = guest_to_host(self.host.reg(base).wrapping_add(off));
            }

            match exec_inst(&mut self.host, &block.insts[idx], mem) {
                Outcome::Next => idx += 1,
                Outcome::Taken(t) => {
                    d.set_taken(true);
                    idx = t as usize;
                }
                Outcome::Exited(e) => {
                    if let Exit::Direct { link, .. } = e {
                        // Chained exits jump block-to-block; unchained
                        // ones jump into the dispatcher. The link is
                        // patched after install (chaining), so it must be
                        // resolved here, not baked into the template.
                        let target = link
                            .and_then(|to| self.cc.get(to))
                            .map_or(TOL_CODE_BASE, |b| b.host_base);
                        *d = d.with_branch(BranchKind::UncondDirect, target, true);
                    }
                    let (guest_n, cond_taken) = exit_info(block, idx);
                    return (e, idx, guest_n, cond_taken);
                }
            }
        }
    }
}

/// Where the translator writes a translation: where the cache placed it,
/// or the cache's base for one rejected as larger than the whole cache.
fn written_at(ins: &Result<Installed, CacheError>) -> u64 {
    ins.as_ref().map_or(CODE_CACHE_BASE, |ins| ins.host_base)
}

/// Guest instructions retired and — for a BBM block whose last guest
/// instruction is a conditional branch — the edge direction, given the
/// host index of the exit taken: leaving via a stub means the branch was
/// taken, via fall-through means not taken.
fn exit_info(block: &TranslatedBlock, idx: usize) -> (u64, Option<bool>) {
    let body_len = block.body_len as usize;
    let guest_n = if idx == body_len {
        block.guest_len as u64
    } else {
        block.stub_guest_counts[idx - body_len - 1] as u64
    };
    let cond_taken = if block.kind == BlockKind::Bb && !block.stub_guest_counts.is_empty() {
        Some(idx != body_len)
    } else {
        None
    };
    (guest_n, cond_taken)
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_guest::asm::Asm;
    use darco_guest::{exec, AluOp, Cond, Inst};

    /// A counting loop plus a function call per iteration.
    fn loop_program(iters: i32) -> (GuestMem, u32) {
        let mut a = Asm::new(0x1000);
        let top = a.fresh_label();
        let func = a.fresh_label();
        let start = a.fresh_label();
        a.push_jmp(start);
        a.bind(func);
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Ebx, imm: 3 });
        a.push(Inst::Ret);
        a.bind(start);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 0 });
        a.push(Inst::MovRI { dst: Gpr::Ebx, imm: 0 });
        a.bind(top);
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 });
        a.push_call(func);
        a.push(Inst::CmpRI { a: Gpr::Eax, imm: iters });
        a.push_jcc(Cond::Ne, top);
        a.push(Inst::Halt);
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        (mem, p.base)
    }

    fn run_tol(mem: &mut GuestMem, entry: u32, cfg: TolConfig) -> (Tol, u64) {
        let mut tol = Tol::new(cfg, entry);
        let mut cpu = CpuState::at(entry);
        cpu.set_gpr(Gpr::Esp, 0x10_0000);
        tol.set_state(&cpu);
        let mut count = 0u64;
        let mut sink = darco_host::RetireSink(|_: &DynInst| count += 1);
        tol.run(mem, &mut sink, 50_000_000).unwrap();
        (tol, count)
    }

    /// Runs the same program on the authoritative emulator.
    fn run_reference(mem: &mut GuestMem, entry: u32) -> (CpuState, u64) {
        let mut cpu = CpuState::at(entry);
        cpu.set_gpr(Gpr::Esp, 0x10_0000);
        let mut n = 0u64;
        while !cpu.halted {
            darco_guest::exec::step(&mut cpu, mem).unwrap();
            n += 1;
        }
        (cpu, n)
    }

    #[test]
    fn emulation_is_architecturally_exact() {
        let (mem0, entry) = loop_program(2_000);
        let mut mem_ref = mem0.clone();
        let (ref_cpu, ref_n) = run_reference(&mut mem_ref, entry);

        let mut mem = mem0.clone();
        let (tol, _) = run_tol(&mut mem, entry, TolConfig::default());
        let emu = tol.emulated_state();
        assert!(ref_cpu.arch_eq(&emu), "state diverged:\nref: {ref_cpu}\nemu: {emu}");
        assert_eq!(tol.summary().dyn_dist.iter().sum::<u64>(), ref_n);
    }

    /// A `Halt` reached in translated code leaves the pc on the `Halt`,
    /// not on the entry of the translation it ended.
    #[test]
    fn translated_halt_leaves_eip_on_the_halt() {
        let mut a = Asm::new(0x1000);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 7 });
        a.push(Inst::Halt);
        let p = a.assemble();
        let mut mem0 = GuestMem::new();
        mem0.write_bytes(p.base, &p.bytes);
        let (ref_cpu, _) = run_reference(&mut mem0.clone(), p.base);
        assert_ne!(ref_cpu.eip, p.base);

        let cfg = TolConfig { im_bb_threshold: 0, ..TolConfig::default() };
        let (tol, _) = run_tol(&mut mem0.clone(), p.base, cfg);
        assert_eq!(tol.summary().dyn_dist, [0, 2, 0], "the one block ran translated");
        let emu = tol.emulated_state();
        assert!(ref_cpu.arch_eq(&emu), "state diverged:\nref: {ref_cpu}\nemu: {emu}");
    }

    #[test]
    fn modes_progress_im_bbm_sbm() {
        let (mut mem, entry) = loop_program(30_000);
        let (tol, _) = run_tol(&mut mem, entry, TolConfig::default());
        let s = tol.summary();
        assert!(s.dyn_dist[0] > 0, "some interpretation");
        assert!(s.dyn_dist[1] > 0, "some BBM execution");
        assert!(s.dyn_dist[2] > 0, "SBM dominates eventually: {:?}", s.dyn_dist);
        assert!(s.counters.sbm_invocations >= 1);
        // With a 10K threshold and 30K iterations, the overwhelming share
        // of dynamic instructions comes from SBM (paper Fig. 5b shape).
        let total: u64 = s.dyn_dist.iter().sum();
        assert!(s.dyn_dist[2] as f64 / total as f64 > 0.5, "SBM share too low: {:?}", s.dyn_dist);
    }

    #[test]
    fn low_threshold_skips_interpretation_quickly() {
        let (mut mem, entry) = loop_program(1_000);
        let cfg = TolConfig { im_bb_threshold: 1, ..TolConfig::default() };
        let (tol, _) = run_tol(&mut mem, entry, cfg);
        let s = tol.summary();
        assert!(s.dyn_dist[0] < 20, "threshold 1 interprets each target once");
    }

    #[test]
    fn returns_go_through_the_ibtc() {
        let (mut mem, entry) = loop_program(5_000);
        let (tol, _) = run_tol(&mut mem, entry, TolConfig::default());
        let s = tol.summary();
        assert!(s.counters.indirect_branches >= 4_000, "one return per iteration");
        assert!(s.ibtc_hits > s.ibtc_misses, "stable return target must hit");
    }

    /// Once a loop's direct exits are chained, its iterations stay in
    /// translated code: ten times the iterations, no more entries into
    /// the layer.
    #[test]
    fn chained_loops_stop_entering_the_layer() {
        let run = |iters| {
            let (mut mem, entry) = loop_program(iters);
            let (tol, _) = run_tol(&mut mem, entry, TolConfig::default());
            (tol.summary().chains, tol.summary().counters.tol_entries)
        };
        let ((short_chains, short), (long_chains, long)) = (run(2_000), run(20_000));
        assert!(short_chains > 0 && long_chains > 0, "{short_chains} / {long_chains} chains");
        assert!(long < short + 100, "layer entries grew with the iterations: {short} -> {long}");
    }

    #[test]
    fn step_budget_pauses_and_resumes_consistently() {
        let (mem0, entry) = loop_program(3_000);
        let mut mem_ref = mem0.clone();
        let (ref_cpu, _) = run_reference(&mut mem_ref, entry);

        let mut mem = mem0.clone();
        let mut tol = Tol::new(TolConfig::default(), entry);
        let mut cpu = CpuState::at(entry);
        cpu.set_gpr(Gpr::Esp, 0x10_0000);
        tol.set_state(&cpu);
        let mut sink = darco_host::NullSink;
        // Tiny budgets force many pauses inside translated execution.
        while !tol.is_done() {
            tol.step(&mut mem, &mut sink, 7).unwrap();
        }
        assert!(ref_cpu.arch_eq(&tol.emulated_state()));
    }

    #[test]
    fn speculative_indirect_resolution_is_exact_and_hits() {
        let (mem0, entry) = loop_program(5_000);
        let mut mem_ref = mem0.clone();
        let (ref_cpu, _) = run_reference(&mut mem_ref, entry);

        let mut mem = mem0.clone();
        let cfg = TolConfig { speculate_indirect: true, ..TolConfig::default() };
        let (tol, _) = run_tol(&mut mem, entry, cfg);
        assert!(ref_cpu.arch_eq(&tol.emulated_state()), "speculation must be transparent");
        let c = tol.summary().counters;
        assert!(c.spec_hits > 0, "the stable return target must speculate successfully");
        assert!(
            c.spec_hits > 10 * c.spec_misses,
            "single-target site: hits {} misses {}",
            c.spec_hits,
            c.spec_misses
        );
    }

    #[test]
    fn software_prefetching_is_transparent_and_emits_prefetches() {
        // A memory-streaming loop: load, accumulate, advance, repeat.
        let mut a = Asm::new(0x1000);
        let top = a.fresh_label();
        a.push(Inst::MovRI { dst: Gpr::Esi, imm: 0x4000 });
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 0 });
        a.bind(top);
        a.push(Inst::AluRM {
            op: AluOp::Add,
            dst: Gpr::Ebx,
            addr: darco_guest::MemRef::base(Gpr::Esi, 0),
        });
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Esi, imm: 4 });
        a.push(Inst::AluRI { op: AluOp::And, dst: Gpr::Esi, imm: 0x7FFC });
        a.push(Inst::MovRR { dst: Gpr::Edx, src: Gpr::Ebx });
        a.push(Inst::Shift { op: darco_guest::ShiftOp::Sar, dst: Gpr::Edx, amount: 3 });
        a.push(Inst::AluRR { op: AluOp::Xor, dst: Gpr::Ecx, src: Gpr::Edx });
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 });
        a.push(Inst::CmpRI { a: Gpr::Eax, imm: 50_000 });
        a.push_jcc(Cond::Ne, top);
        a.push(Inst::Halt);
        let p = a.assemble();
        let mut mem0 = GuestMem::new();
        mem0.write_bytes(p.base, &p.bytes);
        let entry = p.base;

        let mut mem_ref = mem0.clone();
        let (ref_cpu, _) = run_reference(&mut mem_ref, entry);

        let mut mem = mem0.clone();
        let mut tol = Tol::new(TolConfig { opt_sw_prefetch: true, ..TolConfig::default() }, entry);
        let mut cpu = CpuState::at(entry);
        cpu.set_gpr(Gpr::Esp, 0x10_0000);
        tol.set_state(&cpu);
        let mut prefetches = 0u64;
        let mut sink = darco_host::RetireSink(|d: &DynInst| {
            if d.mem().is_some_and(|m| m.is_prefetch) {
                prefetches += 1;
            }
        });
        tol.run(&mut mem, &mut sink, 50_000_000).unwrap();
        assert!(ref_cpu.arch_eq(&tol.emulated_state()), "prefetching must be transparent");
        assert!(prefetches > 0, "superblocks with loads must carry prefetches");
    }

    /// The translator writes each translation where the code cache put
    /// it, also after flushes and under scattered placement: every store
    /// into the code-cache region lands inside a block resident after
    /// the step that made it. (A one-instruction budget installs at most
    /// one block per step, so none a step wrote is flushed before the
    /// check.)
    #[test]
    fn code_writes_land_in_the_installed_block() {
        use crate::guest_programs::{any_inst, build_program};
        use rand::{rngs::SmallRng, SeedableRng};
        let eager = TolConfig { im_bb_threshold: 1, bb_sb_threshold: 2, ..TolConfig::default() };
        let small = TolConfig { code_cache_capacity: 256, ..eager.clone() };
        for cfg in [small, TolConfig { codecache_scattered: true, ..eager }] {
            let mut rng = SmallRng::seed_from_u64(0xC0DE);
            let body: Vec<Inst> = (0..80).map(|_| any_inst(&mut rng)).collect();
            let (mut mem, cpu) = build_program(&body, 40);
            let mut tol = Tol::new(cfg.clone(), cpu.eip);
            tol.set_state(&cpu);
            let (mut writes, code) = (0, CODE_CACHE_BASE..TOL_CODE_BASE);
            while !tol.is_done() {
                let mut stores = Vec::new();
                let mut sink = darco_host::RetireSink(|d: &DynInst| {
                    stores.extend(d.mem().filter(|m| m.is_store && code.contains(&m.addr)))
                });
                tol.step(&mut mem, &mut sink, 1).unwrap();
                writes += stores.len();
                for addr in stores.into_iter().map(|m| m.addr) {
                    let holds = |b: &TranslatedBlock| b.host_base + 4 * b.insts.len() as u64 > addr;
                    let home = tol.cc.blocks().any(|(_, b)| b.host_base <= addr && holds(b));
                    assert!(home, "{cfg:?}: code write at {addr:#x} lands in no installed block");
                }
            }
            let s = tol.summary();
            assert!(s.installed > 10 && writes > 500, "{} installs, {writes} writes", s.installed);
            assert!(cfg.codecache_scattered || s.flushes > 1, "the small cache must flush");
            let aligned = tol.cc.blocks().all(|(_, b)| b.host_base & 0xFFF == 0);
            assert!(!cfg.codecache_scattered || aligned, "scattered blocks start page-aligned");
        }
    }

    /// A superblock whose allocation fails adds nothing to the per-pass
    /// rows: each pass ran once per superblock that was optimized.
    #[test]
    fn bailed_superblocks_leave_the_pass_rows_alone() {
        let counter = |a: &mut Asm, top| {
            a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Ebp, imm: 1 });
            a.push(Inst::CmpRI { a: Gpr::Ebp, imm: 200 });
            a.push_jcc(Cond::Ne, top);
        };
        let mut a = Asm::new(0x1000);
        let (plain, pressure) = (a.fresh_label(), a.fresh_label());
        a.bind(plain);
        counter(&mut a, plain);
        a.push(Inst::MovRI { dst: Gpr::Ebp, imm: 0 });
        a.bind(pressure);
        // 24 distinct addresses, each stored to twice: CSE keeps the 24
        // first computations live across the second half, more than
        // the scratch file holds.
        let regs = [Gpr::Eax, Gpr::Ebx, Gpr::Ecx, Gpr::Edx, Gpr::Esi, Gpr::Edi];
        let addrs: Vec<_> = regs
            .iter()
            .flat_map(|&b| regs.iter().filter(move |&&i| i != b).map(move |&i| (b, i)))
            .take(24)
            .collect();
        for disp in [0x8000, 0x9000] {
            for &(b, i) in &addrs {
                let addr = darco_guest::MemRef::base_index(b, i, darco_guest::Scale::S4, disp);
                a.push(Inst::Store { addr, src: Gpr::Eax });
            }
        }
        counter(&mut a, pressure);
        a.push(Inst::Halt);
        let p = a.assemble();
        let mut mem0 = GuestMem::new();
        mem0.write_bytes(p.base, &p.bytes);
        let (ref_cpu, _) = run_reference(&mut mem0.clone(), p.base);

        let cfg = TolConfig { im_bb_threshold: 1, bb_sb_threshold: 50, ..TolConfig::default() };
        let (tol, _) = run_tol(&mut mem0.clone(), p.base, cfg);
        assert!(ref_cpu.arch_eq(&tol.emulated_state()), "a bailed superblock runs unoptimized");
        let s = tol.summary();
        let optimized = s.counters.sbm_invocations - s.counters.opt_bailouts;
        assert!(s.counters.opt_bailouts > 0 && optimized > 0, "{:?}", s.counters);
        let rows: Vec<_> = s.pass_deltas.iter().map(|d| (d.pass.as_str(), d.runs)).collect();
        let passes = ["constprop", "cse", "constprop-cleanup", "dce", "schedule"];
        assert_eq!(rows, passes.map(|p| (p, optimized)));
    }

    #[test]
    fn oversized_translations_degrade_to_interpretation() {
        // A capacity smaller than any translated block: every install is
        // rejected and the whole program interprets — correctly.
        let (mem0, entry) = loop_program(500);
        let mut mem_ref = mem0.clone();
        let (ref_cpu, _) = run_reference(&mut mem_ref, entry);
        let cfg = TolConfig { code_cache_capacity: 2, ..TolConfig::default() };
        let mut mem = mem0.clone();
        let (tol, _) = run_tol(&mut mem, entry, cfg);
        assert!(ref_cpu.arch_eq(&tol.emulated_state()));
        let s = tol.summary();
        assert_eq!(s.installed, 0, "nothing fits a 2-inst cache");
        assert_eq!(s.dyn_dist[1] + s.dyn_dist[2], 0, "interpreter-only");
        // A rejected translation leaves its pcs in IM: no pc is reported
        // as translated that only ever ran in the interpreter.
        let statics: u64 = s.static_dist.iter().sum();
        assert!(statics > 0);
        assert_eq!(s.static_dist[0], statics, "static modes {:?}", s.static_dist);
    }

    /// A loop of three blocks: a head that falls through to a body of
    /// `body` additions on seven iterations in eight and branches to a
    /// two-instruction side block on the eighth; both rejoin the body.
    /// With a cache that holds the head and the side block but not the
    /// body, the body stays interpreted while the head keeps running
    /// and, entering the installed side block, reaches its promotion:
    /// the superblock follows the head's biased edge into the body.
    fn head_side_and_big_body(iters: i32, body: usize) -> (GuestMem, u32) {
        let mut a = Asm::new(0x1000);
        let (head, side, rest) = (a.fresh_label(), a.fresh_label(), a.fresh_label());
        a.push(Inst::MovRI { dst: Gpr::Ecx, imm: iters });
        a.bind(head);
        a.push(Inst::MovRR { dst: Gpr::Edx, src: Gpr::Ecx });
        a.push(Inst::AluRI { op: AluOp::And, dst: Gpr::Edx, imm: 7 });
        a.push_jcc(Cond::E, side);
        a.bind(rest);
        for _ in 0..body {
            a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 });
        }
        a.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Ecx, imm: 1 });
        a.push_jcc(Cond::Ne, head);
        a.push(Inst::Halt);
        a.bind(side);
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Esi, imm: 1 });
        a.push_jmp(rest);
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        (mem, p.base)
    }

    #[test]
    fn a_superblock_larger_than_the_cache_is_discarded() {
        let (mem0, entry) = head_side_and_big_body(800, 40);
        let mut mem_ref = mem0.clone();
        let (ref_cpu, ref_n) = run_reference(&mut mem_ref, entry);
        let cfg =
            TolConfig { code_cache_capacity: 24, bb_sb_threshold: 50, ..TolConfig::default() };
        let mut mem = mem0.clone();
        let (tol, _) = run_tol(&mut mem, entry, cfg);
        assert!(ref_cpu.arch_eq(&tol.emulated_state()));
        let s = tol.summary();
        assert_eq!(s.dyn_dist.iter().sum::<u64>(), ref_n);
        // One superblock formed and discarded; the promoted head keeps
        // running in BBM and is not promoted again.
        assert_eq!(s.counters.sbm_invocations, 1);
        assert_eq!((s.installed, s.flushes), (2, 0), "head and side block only");
        assert!(s.dyn_dist[1] > 0);
        assert_eq!((s.dyn_dist[2], s.static_dist[2]), (0, 0), "nothing ran in SBM");
    }

    /// A layer over `loop_program(iters)`, stepped until `until` holds.
    fn run_until(iters: i32, until: impl Fn(&Tol) -> bool) -> (Tol, GuestMem, u32) {
        let (mut mem, entry) = loop_program(iters);
        let mut tol = Tol::new(TolConfig::default(), entry);
        let mut cpu = CpuState::at(entry);
        cpu.set_gpr(Gpr::Esp, 0x10_0000);
        tol.set_state(&cpu);
        while !until(&tol) {
            assert!(!tol.is_done(), "the program ended first");
            tol.step(&mut mem, &mut darco_host::NullSink, 256).unwrap();
        }
        (tol, mem, entry)
    }

    /// Runs `tol` to completion and requires the reference state and
    /// instruction count of `loop_program(iters)`.
    fn finish_exactly(tol: &mut Tol, mem: &mut GuestMem, entry: u32, iters: i32) {
        while !tol.is_done() {
            tol.step(mem, &mut darco_host::NullSink, 4096).unwrap();
        }
        let (mut mem_ref, _) = loop_program(iters);
        let (ref_cpu, ref_n) = run_reference(&mut mem_ref, entry);
        assert!(ref_cpu.arch_eq(&tol.emulated_state()));
        assert_eq!(tol.summary().dyn_dist.iter().sum::<u64>(), ref_n);
    }

    #[test]
    fn smc_write_flushes_and_retranslates() {
        // Run until the loop is translated, then write to its code page
        // (the same byte value: even an idempotent write must invalidate,
        // as the stamp is a page write-generation, not a content hash).
        let (mut tol, mut mem, entry) = run_until(5_000, |t| t.cc.health().resident > 0);
        let byte = mem.read_u8(entry);
        mem.write_u8(entry, byte);
        finish_exactly(&mut tol, &mut mem, entry, 5_000);
        let s = tol.summary();
        assert_eq!(s.counters.smc_flushes, 1, "one write, one flush");
        assert_eq!(s.flushes, 1, "an SMC flush is a flush");
        assert!(s.cache.retranslations > 0, "hot code must come back");
    }

    /// An SMC flush drops the IBTC with the code cache. If it did not, the
    /// return's next probe would hit a handle of the old epoch, which the
    /// dispatch guard turns into a trip to the dispatcher: still exact,
    /// but the probe must miss.
    #[test]
    fn smc_flush_clears_the_ibtc() {
        let (mut tol, mut mem, entry) = run_until(5_000, |t| t.ibtc.hits() > 0);
        let misses = tol.ibtc.misses();
        let byte = mem.read_u8(entry);
        mem.write_u8(entry, byte);
        finish_exactly(&mut tol, &mut mem, entry, 5_000);
        assert_eq!(tol.summary().counters.smc_flushes, 1);
        assert!(tol.ibtc.misses() > misses, "the return must miss after the flush");
    }

    #[test]
    fn overhead_share_is_plausible() {
        let (mut mem, entry) = loop_program(100_000);
        let mut tol = Tol::new(TolConfig::default(), entry);
        let mut cpu = CpuState::at(entry);
        cpu.set_gpr(Gpr::Esp, 0x10_0000);
        tol.set_state(&cpu);
        let (mut app, mut tol_side) = (0u64, 0u64);
        let mut sink = darco_host::RetireSink(|d: &DynInst| match d.owner() {
            darco_host::Owner::App => app += 1,
            darco_host::Owner::Tol => tol_side += 1,
        });
        tol.run(&mut mem, &mut sink, u64::MAX).unwrap();
        let overhead = tol_side as f64 / (app + tol_side) as f64;
        // A hot loop amortizes overhead to a small share.
        assert!(overhead < 0.30, "overhead share {overhead}");
    }

    /// An interpreter-only layer (promotion unreachable) over `p`.
    fn interpreter_only(p: &darco_guest::asm::Program) -> (Tol, GuestMem) {
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        let cfg = TolConfig { im_bb_threshold: u32::MAX, ..TolConfig::default() };
        (Tol::new(cfg, p.base), mem)
    }

    #[test]
    fn interpretation_matches_direct_execution() {
        let mut a = Asm::new(0x1000);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 5 });
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 37 });
        a.push(Inst::Halt);
        let p = a.assemble();
        let (mut tol, mut mem) = interpreter_only(&p);
        let mut direct = CpuState::at(p.base);
        let mut direct_mem = mem.clone();
        while !direct.halted {
            exec::step(&mut direct, &mut direct_mem).unwrap();
        }
        let mut n = 0u64;
        let mut sink = darco_host::events::RetireSink(|_: &DynInst| n += 1);
        tol.run(&mut mem, &mut sink, u64::MAX).unwrap();
        assert!(direct.arch_eq(&tol.emulated_state()));
        assert!(n > 20, "interpretation must cost host instructions, got {n}");
    }

    #[test]
    fn decode_errors_propagate() {
        let mut mem = GuestMem::new();
        mem.write_u8(0x100, 0xFF); // invalid opcode
        let mut tol = Tol::new(TolConfig::default(), 0x100);
        assert!(tol.run(&mut mem, &mut darco_host::NullSink, u64::MAX).is_err());
    }

    #[test]
    fn interpretation_through_the_visitor_emits_the_reference_stream() {
        // A counted loop with a memory access and a taken/not-taken
        // branch, interpreted only (no promotion). The reference is the
        // readable loop the visitor replaced: decode and execute one
        // instruction with the independent executor, then charge its
        // cost stream from the `StepInfo` that reports. Every IM-cost
        // retirement must be equal, in order.
        use darco_guest::MemRef;
        use darco_host::Component;

        let mut a = Asm::new(0x1000);
        a.push(Inst::MovRI { dst: Gpr::Ecx, imm: 50 });
        a.push(Inst::MovRI { dst: Gpr::Esi, imm: 0x4000 });
        let top = a.here();
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 3 });
        a.push(Inst::AluMR { op: AluOp::Add, addr: MemRef::base(Gpr::Esi, 0), src: Gpr::Eax });
        a.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Ecx, imm: 1 });
        a.push(Inst::Jcc { cond: Cond::Ne, target: top });
        a.push(Inst::Halt);
        let p = a.assemble();
        let (mut tol, mut mem) = interpreter_only(&p);

        let mut reference: Vec<DynInst> = Vec::new();
        let mut ref_cpu = CpuState::at(p.base);
        let mut ref_n = 0u64;
        {
            let mut ref_mem = mem.clone();
            let mut em = Emitter::new();
            let mut sink = darco_host::events::RetireSink(|d: &DynInst| reference.push(*d));
            let mut ev = EventBuffer::new(EVENT_BATCH, &mut sink);
            while !ref_cpu.halted {
                let pc = ref_cpu.eip;
                let info = exec::step(&mut ref_cpu, &mut ref_mem).unwrap();
                em.interp_step(&mut ev, pc, &info);
                ref_n += 1;
            }
            ev.flush();
        }

        let mut visited: Vec<DynInst> = Vec::new();
        let mut sink = darco_host::events::RetireSink(|d: &DynInst| {
            if d.component == Component::TolIm {
                visited.push(*d);
            }
        });
        let n = tol.run(&mut mem, &mut sink, u64::MAX).unwrap();

        assert!(ref_cpu.arch_eq(&tol.emulated_state()));
        assert_eq!(n, ref_n);
        assert_eq!(visited.len(), reference.len(), "IM cost stream length");
        if let Some(i) = visited.iter().zip(&reference).position(|(v, r)| v != r) {
            panic!(
                "IM retirement {i} differs\nreference: {:?}\nvisitor:   {:?}",
                reference[i], visited[i]
            );
        }
        let hits = tol.fast_stats().uop_hits;
        assert!(hits > 100, "loop body must hit the micro-op cache, got {hits}");
    }

    /// The re-derivation reference: executes block `bid` from `host` and
    /// `mem`, building every retirement record from the instruction's
    /// own metadata (`class`/`dst`/`srcs`/`fsrcs` and a match over
    /// [`HInst`]) — what the engine did per retirement before templates
    /// hoisted it to install time. Returns the records and the exit.
    fn rederive_block(
        cc: &CodeCache,
        bid: BlockId,
        host: &mut HostState,
        mem: &mut GuestMem,
    ) -> (Vec<DynInst>, Exit, usize) {
        use darco_host::stream::{fp_reg, int_reg, NO_REG};
        use darco_host::HInst;
        let block = cc.get(bid).expect("live block");
        let host_base = block.host_base;
        let mut records = Vec::new();
        let mut idx = 0usize;
        loop {
            let inst = &block.insts[idx];
            let pc = host_base + 4 * idx as u64;

            // Pre-compute the memory event (operand registers may change).
            let ea = |base, off: i32| guest_to_host(host.reg(base).wrapping_add(off as u32));
            let mem_event = match *inst {
                HInst::Prefetch { base, off } => Some((ea(base, off), 64, false)),
                HInst::Ld { base, off, width, .. } => Some((ea(base, off), width.bytes(), false)),
                HInst::St { base, off, width, .. } => Some((ea(base, off), width.bytes(), true)),
                HInst::FLd { base, off, .. } => Some((ea(base, off), 8, false)),
                HInst::FSt { base, off, .. } => Some((ea(base, off), 8, true)),
                _ => None,
            };

            let outcome = exec_inst(host, inst, mem);

            let mut d = DynInst::plain(pc, inst.class(), darco_host::Component::AppCode);
            if let Some((addr, size, is_store)) = mem_event {
                if matches!(inst, HInst::Prefetch { .. }) {
                    d = d.with_prefetch(addr);
                } else {
                    d = d.with_mem(addr, size, is_store);
                }
            }
            if let Some(r) = inst.dst() {
                d.dst = int_reg(r.0);
            } else if let Some(f) = inst.fdst() {
                d.dst = fp_reg(f.0);
            }
            let mut srcs = [NO_REG; 2];
            let mut si = 0;
            for s in inst.srcs().into_iter().flatten() {
                if si < 2 {
                    srcs[si] = int_reg(s.0);
                    si += 1;
                }
            }
            for s in inst.fsrcs().into_iter().flatten() {
                if si < 2 {
                    srcs[si] = fp_reg(s.0);
                    si += 1;
                }
            }
            d.srcs = srcs;
            match (*inst, outcome) {
                (HInst::Br { target, .. }, out) | (HInst::BrFlags { target, .. }, out) => {
                    let taken = matches!(out, Outcome::Taken(_));
                    d = d.with_branch(BranchKind::CondDirect, host_base + 4 * target as u64, taken);
                }
                (HInst::Jump { target }, _) => {
                    d = d.with_branch(
                        BranchKind::UncondDirect,
                        host_base + 4 * target as u64,
                        true,
                    );
                }
                (HInst::Exit(Exit::Direct { link, .. }), _) => {
                    // Chained exits jump block-to-block; unchained ones
                    // jump into the dispatcher.
                    let t = link.and_then(|to| cc.get(to)).map_or(TOL_CODE_BASE, |b| b.host_base);
                    d = d.with_branch(BranchKind::UncondDirect, t, true);
                }
                _ => {}
            }
            records.push(d);

            match outcome {
                Outcome::Next => idx += 1,
                Outcome::Taken(t) => idx = t as usize,
                Outcome::Exited(e) => return (records, e, idx),
            }
        }
    }

    /// Retirement by template must emit the *exact* records a straight
    /// re-derivation builds. There is one engine, so the comparison is
    /// block by block: whenever the next dispatch unit starts in a
    /// translated block, that block runs twice from copies of the
    /// engine's host state and guest memory — once through
    /// `exec_block_templates`, once through [`rederive_block`] — and
    /// records, exit, registers and memory must agree; then the engine
    /// itself executes it (budget 1 ends the unit after one block).
    #[test]
    fn retirement_templates_match_rederivation_oracle() {
        use crate::guest_programs::{any_inst, build_program};
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut compared = 0u64;
        for case in 0u64..12 {
            let mut rng = SmallRng::seed_from_u64(0xDA_0007 + case);
            let len = rng.gen_range(4usize..40);
            let body: Vec<Inst> = (0..len).map(|_| any_inst(&mut rng)).collect();
            let iters = rng.gen_range(3i32..40);
            let (mut mem, cpu) = build_program(&body, iters);
            let cfg = TolConfig { im_bb_threshold: 1, bb_sb_threshold: 2, ..TolConfig::default() };
            let mut tol = Tol::new(cfg, cpu.eip);
            tol.set_state(&cpu);

            while !tol.is_done() {
                let next = tol.cc.lookup(tol.guest_pc);
                if let Some(bid) = next.filter(|&b| !tol.cc.smc_stale(b, &mem)) {
                    let (mut ref_host, mut ref_mem) = (tol.host.clone(), mem.clone());
                    let (want, want_exit, want_idx) =
                        rederive_block(&tol.cc, bid, &mut ref_host, &mut ref_mem);

                    let saved_host = tol.host.clone();
                    let mut tpl_mem = mem.clone();
                    let mut got: Vec<DynInst> = Vec::new();
                    let mut sink = darco_host::events::RetireSink(|d: &DynInst| got.push(*d));
                    let mut ev = EventBuffer::new(EVENT_BATCH, &mut sink);
                    let (exit, idx, ..) = tol.exec_block_templates(bid, &mut tpl_mem, &mut ev);
                    ev.flush();
                    let tpl_host = std::mem::replace(&mut tol.host, saved_host);

                    let ctx = format!("case {case}, block at guest {:#x}", tol.guest_pc);
                    assert_eq!((exit, idx), (want_exit, want_idx), "{ctx}: exit");
                    assert_eq!(got.len(), want.len(), "{ctx}: stream length");
                    if let Some(i) = got.iter().zip(&want).position(|(a, b)| a != b) {
                        panic!(
                            "{ctx}: DynInst {i} differs\ntemplate: {:?}\noracle:   {:?}",
                            got[i], want[i]
                        );
                    }
                    assert!(tpl_host == ref_host, "{ctx}: host state");
                    assert_eq!(tpl_mem.first_difference(&ref_mem), None, "{ctx}: guest memory");
                    compared += 1;
                }
                tol.step(&mut mem, &mut darco_host::NullSink, 1).expect("tol step");
            }
        }
        assert!(compared > 200, "only {compared} block executions were compared");
    }
}
