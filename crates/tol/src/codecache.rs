//! The code cache: storage for translations, the translation map,
//! chaining, and the translation lifecycle.
//!
//! Translations are bounded by a host-instruction capacity, and a
//! translation dies one way only: [`CodeCache::flush`] drops the whole
//! cache (Hazelwood & Smith, cited as \[33\] in the paper — what the
//! paper's DARCO does on overflow). It has two callers: an install that
//! does not fit, and the engine when the guest has written to translated
//! code. Dead space from replaced blocks (a BBM block behind its
//! superblock) accumulates until then.
//!
//! Block handles carry the flush epoch ([`BlockId`]): a flush bumps it,
//! so a handle issued before the flush is detectably stale through
//! [`CodeCache::get`] instead of silently resolving to whatever was
//! installed at its index since. Within one epoch no block dies, so a
//! chain link is live whenever the block holding it is.
//!
//! Translations are stamped against self-modifying code: at install each
//! block records the covered guest pages and the maximum [`GuestMem`]
//! page write-generation over them; [`CodeCache::smc_stale`] compares
//! the stamp on dispatch, so a guest that overwrites translated code
//! flushes and re-translates instead of executing stale host code.
//!
//! Chaining patches a block's direct exit to name its successor block,
//! so steady-state execution hops from translation to translation
//! without entering the software layer (Sec. III-B).

use crate::pcmap::PcMap;
use darco_guest::GuestMem;
use darco_host::layout::CODE_CACHE_BASE;
use darco_host::{compile_block, BlockId, Exit, HInst, RetireTemplate};
use serde::Serialize;
use std::collections::HashSet;

/// Which mode produced a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Basic-block translation (BBM): instrumented for edge profiling.
    Bb,
    /// Optimized superblock (SBM).
    Sb,
}

/// Typed errors at the cache's public API boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// The handle is from an earlier flush epoch: its block is gone.
    Stale(BlockId),
    /// A chain request named an instruction that is not a direct exit.
    NotDirectExit {
        /// Block the bad site is in.
        id: BlockId,
        /// Host-instruction index that was not a direct exit.
        exit_idx: usize,
    },
    /// A translation larger than the whole cache capacity was rejected
    /// (installing it anyway would silently break the cache bound).
    TooLarge {
        /// Host instructions in the rejected translation.
        insts: usize,
        /// Cache capacity in host instructions.
        capacity: u32,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Stale(id) => write!(f, "stale block handle {id}"),
            CacheError::NotDirectExit { id, exit_idx } => {
                write!(f, "instruction {exit_idx} of {id} is not a direct exit")
            }
            CacheError::TooLarge { insts, capacity } => {
                write!(f, "translation of {insts} host insts exceeds cache capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Result of a successful [`CodeCache::install`].
#[derive(Debug)]
pub struct Installed {
    /// Handle of the new translation.
    pub id: BlockId,
    /// Whether installing forced a whole-cache flush.
    pub flushed: bool,
}

/// One installed translation.
#[derive(Debug, Clone)]
pub struct TranslatedBlock {
    /// Guest address this translation starts at.
    pub guest_entry: u32,
    /// Host address of the first instruction (for I-cache modeling).
    pub host_base: u64,
    /// The translated host code: body, then fall-through exit, then
    /// side-exit stubs.
    pub insts: Vec<HInst>,
    /// Per-instruction retirement templates (parallel to `insts`),
    /// compiled once at install time so the execution loop never
    /// re-derives static retirement metadata.
    pub templates: Vec<RetireTemplate>,
    /// Producing mode.
    pub kind: BlockKind,
    /// Host-instruction index of the fall-through exit (= body length).
    pub body_len: u32,
    /// Guest instructions retired when leaving via stub `i` (the exit at
    /// host index `body_len + 1 + i`).
    pub stub_guest_counts: Vec<u32>,
    /// Guest instructions retired on the fall-through exit.
    pub guest_len: u32,
    /// Guest addresses covered (for static-mode accounting).
    pub guest_pcs: Vec<u32>,
    /// Executions observed (drives SBM promotion of BBM blocks).
    pub exec_count: u64,
    /// Set once this BBM block has been promoted to a superblock.
    pub promoted: bool,
    /// When promoted, the block's entry is patched with a jump to the
    /// replacing superblock, so stale chain links reach the new code.
    pub redirect: Option<BlockId>,
    /// Guest page numbers (`addr >> 12`) the translated code was decoded
    /// from (over-approximated to instruction-length granularity).
    pub code_pages: Vec<u32>,
    /// Maximum [`GuestMem`] page write-generation over `code_pages` at
    /// install time: the block's self-modifying-code stamp.
    pub smc_gen: u64,
}

/// Statistics the code cache keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeCacheStats {
    /// Translations installed over the run (including re-translations
    /// after flushes).
    pub installed: u64,
    /// Whole-cache flushes, whatever their cause.
    pub flushes: u64,
    /// Chain links patched.
    pub chains: u64,
    /// Installs at a guest entry whose previous translation had been
    /// flushed — the re-translation work a bounded cache trades against
    /// space, and a write to translated code forces.
    pub retranslations: u64,
}

/// A serializable snapshot of cache health for end-of-run reports:
/// occupancy, dead space, and the re-translation count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheHealth {
    /// Capacity in host instructions.
    pub capacity: u32,
    /// Host instructions currently allocated (live + dead).
    pub used: u32,
    /// Host instructions in map-reachable (live) translations.
    pub live_used: u32,
    /// Currently resident (live) translations.
    pub resident: u32,
    /// Re-translations of previously flushed entries.
    pub retranslations: u64,
}

impl CacheHealth {
    /// Fraction of the capacity currently allocated.
    pub fn occupancy(&self) -> f64 {
        self.used as f64 / self.capacity.max(1) as f64
    }

    /// Fraction of allocated space held by dead (unreachable) blocks,
    /// which only the next flush reclaims.
    pub fn dead_space_ratio(&self) -> f64 {
        (self.used - self.live_used) as f64 / self.used.max(1) as f64
    }
}

/// The bounded code cache and translation map.
#[derive(Debug)]
pub struct CodeCache {
    /// Every translation installed since the last flush, replaced ones
    /// included, indexed by [`BlockId::idx`].
    blocks: Vec<TranslatedBlock>,
    /// Flushes so far: the [`BlockId::gen`] of every live handle.
    epoch: u32,
    map: PcMap<BlockId>,
    capacity: u32,
    used: u32,
    live_used: u32,
    next_host_base: u64,
    scattered: bool,
    /// Guest entries whose translation was flushed, for re-translation
    /// counting (cleared per entry on re-install).
    flushed_entries: HashSet<u32>,
    stats: CodeCacheStats,
}

impl CodeCache {
    /// Creates a cache bounded to `capacity` host instructions, packing
    /// translations sequentially in emission order.
    pub fn new(capacity: u32) -> CodeCache {
        CodeCache {
            blocks: Vec::new(),
            epoch: 0,
            map: PcMap::default(),
            capacity,
            used: 0,
            live_used: 0,
            next_host_base: CODE_CACHE_BASE,
            scattered: false,
            flushed_entries: HashSet::new(),
            stats: CodeCacheStats::default(),
        }
    }

    /// Creates a cache with page-aligned ("scattered") placement: every
    /// translation starts on a 4 KiB boundary, so block heads pile onto
    /// the same I-cache sets and lines are underused — the bad placement
    /// policy the paper's code-placement recommendation (Sec. III-E)
    /// implicitly argues against.
    pub fn new_scattered(capacity: u32) -> CodeCache {
        CodeCache { scattered: true, ..CodeCache::new(capacity) }
    }

    /// Looks up the translation covering guest address `pc` (entry match).
    pub fn lookup(&self, pc: u32) -> Option<BlockId> {
        self.map.get(&pc).copied()
    }

    /// Installs a translation.
    ///
    /// Overflow flushes the whole cache first; a same-entry translation
    /// (e.g. an SBM block replacing a BBM block) takes over the map entry
    /// and the old block stays allocated as dead space until the next
    /// flush, as in a real flush-policy code cache.
    ///
    /// The block is stamped against self-modifying code from `mem`'s
    /// current page write-generations over `guest_pcs`.
    ///
    /// # Errors
    ///
    /// [`CacheError::TooLarge`] if the translation alone exceeds the
    /// cache capacity (it is rejected, never partially installed).
    #[allow(clippy::too_many_arguments)]
    pub fn install(
        &mut self,
        guest_entry: u32,
        insts: Vec<HInst>,
        kind: BlockKind,
        body_len: u32,
        stub_guest_counts: Vec<u32>,
        guest_len: u32,
        guest_pcs: Vec<u32>,
        mem: &GuestMem,
    ) -> Result<Installed, CacheError> {
        let n = insts.len() as u32;
        if n > self.capacity {
            return Err(CacheError::TooLarge { insts: insts.len(), capacity: self.capacity });
        }
        let flushed = self.used + n > self.capacity;
        if flushed {
            self.flush();
        }
        // A replaced block leaks as dead space until the flush.
        if let Some(&old) = self.map.get(&guest_entry) {
            if let Some(b) = self.get(old) {
                self.live_used -= b.insts.len() as u32;
            }
        }
        let host_base = self.alloc(n);
        let (code_pages, smc_gen) = smc_stamp(mem, guest_pcs.iter().copied());
        let templates = compile_block(&insts, host_base);
        let id = BlockId { idx: self.blocks.len() as u32, gen: self.epoch };
        self.blocks.push(TranslatedBlock {
            guest_entry,
            host_base,
            insts,
            templates,
            kind,
            body_len,
            stub_guest_counts,
            guest_len,
            guest_pcs,
            exec_count: 0,
            promoted: false,
            redirect: None,
            code_pages,
            smc_gen,
        });
        self.map.insert(guest_entry, id);
        self.used += n;
        self.live_used += n;
        self.stats.installed += 1;
        if self.flushed_entries.remove(&guest_entry) {
            self.stats.retranslations += 1;
        }
        Ok(Installed { id, flushed })
    }

    /// Allocates a host-address range for `n` instructions.
    fn alloc(&mut self, n: u32) -> u64 {
        if self.scattered {
            self.next_host_base = (self.next_host_base + 0xFFF) & !0xFFF;
        }
        let base = self.next_host_base;
        self.next_host_base += n as u64 * 4;
        base
    }

    /// Drops every translation and starts a new epoch, so every
    /// outstanding handle goes stale at once. The only way a translation
    /// dies.
    pub fn flush(&mut self) {
        self.flushed_entries.extend(self.blocks.drain(..).map(|b| b.guest_entry));
        self.epoch += 1;
        self.map.clear();
        self.used = 0;
        self.live_used = 0;
        self.next_host_base = CODE_CACHE_BASE;
        self.stats.flushes += 1;
    }

    /// Accesses a block by handle, `None` if the handle is stale.
    pub fn get(&self, id: BlockId) -> Option<&TranslatedBlock> {
        if id.gen != self.epoch {
            return None;
        }
        self.blocks.get(id.idx as usize)
    }

    /// Mutable access by handle, `None` if the handle is stale.
    pub fn get_mut(&mut self, id: BlockId) -> Option<&mut TranslatedBlock> {
        if id.gen != self.epoch {
            return None;
        }
        self.blocks.get_mut(id.idx as usize)
    }

    /// Iterates over every translation installed since the last flush,
    /// replaced ones included.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &TranslatedBlock)> {
        let gen = self.epoch;
        self.blocks.iter().enumerate().map(move |(i, b)| (BlockId { idx: i as u32, gen }, b))
    }

    /// Whether `id`'s SMC stamp is out of date: some covered guest page
    /// has been written since the block was translated. A stale handle
    /// reports `true` (its code is gone either way).
    pub fn smc_stale(&self, id: BlockId, mem: &GuestMem) -> bool {
        match self.get(id) {
            Some(b) => b.code_pages.iter().any(|&p| mem.page_gen(p << PAGE_SHIFT) > b.smc_gen),
            None => true,
        }
    }

    /// Patches the direct exit at host-instruction index `exit_idx` of
    /// block `from` to link directly to block `to`. Both are of the
    /// current epoch, so the next flush drops the link with its target.
    ///
    /// # Errors
    ///
    /// [`CacheError::Stale`] if either endpoint is from an earlier epoch;
    /// [`CacheError::NotDirectExit`] if the instruction at `exit_idx` is
    /// not a direct exit.
    pub fn chain(&mut self, from: BlockId, exit_idx: usize, to: BlockId) -> Result<(), CacheError> {
        if self.get(to).is_none() {
            return Err(CacheError::Stale(to));
        }
        let fb = self.get_mut(from).ok_or(CacheError::Stale(from))?;
        match fb.insts.get_mut(exit_idx) {
            Some(HInst::Exit(Exit::Direct { link, .. })) => *link = Some(to),
            _ => return Err(CacheError::NotDirectExit { id: from, exit_idx }),
        }
        self.stats.chains += 1;
        Ok(())
    }

    /// Host instructions currently allocated (live + dead space).
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> CodeCacheStats {
        self.stats
    }

    /// Snapshot of occupancy, dead space, and the re-translation count.
    pub fn health(&self) -> CacheHealth {
        CacheHealth {
            capacity: self.capacity,
            used: self.used,
            live_used: self.live_used,
            resident: self.map.len() as u32,
            retranslations: self.stats.retranslations,
        }
    }

    /// Number of currently resident translations.
    pub fn resident(&self) -> usize {
        self.map.len()
    }
}

/// Guest page size shift shared with [`GuestMem`] (4 KiB pages).
const PAGE_SHIFT: u32 = 12;

/// Collects the guest pages a translation's code spans and the maximum
/// page write-generation over them. Each instruction is
/// over-approximated to [`darco_guest::exec::MAX_INST_LEN`] bytes; a
/// spurious page inclusion only makes invalidation more conservative,
/// never less safe.
fn smc_stamp(mem: &GuestMem, guest_pcs: impl IntoIterator<Item = u32>) -> (Vec<u32>, u64) {
    let span = darco_guest::exec::MAX_INST_LEN as u32 - 1;
    let mut pages: Vec<u32> = Vec::new();
    for pc in guest_pcs {
        for p in [pc >> PAGE_SHIFT, pc.saturating_add(span) >> PAGE_SHIFT] {
            if !pages.contains(&p) {
                pages.push(p);
            }
        }
    }
    let gen = pages.iter().map(|&p| mem.page_gen(p << PAGE_SHIFT)).max().unwrap_or(0);
    (pages, gen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_block() -> Vec<HInst> {
        vec![HInst::Nop, HInst::Exit(Exit::Direct { guest_target: 0x200, link: None })]
    }

    /// `install` with the boilerplate arguments filled in.
    fn put(cc: &mut CodeCache, entry: u32, kind: BlockKind) -> Installed {
        let mem = GuestMem::new();
        cc.install(entry, tiny_block(), kind, 1, vec![], 1, vec![entry], &mem).expect("fits")
    }

    #[test]
    fn install_and_lookup() {
        let mut cc = CodeCache::new(100);
        let mem = GuestMem::new();
        let ins = cc
            .install(0x100, tiny_block(), BlockKind::Bb, 1, vec![], 3, vec![0x100], &mem)
            .unwrap();
        assert!(!ins.flushed);
        assert_eq!(cc.lookup(0x100), Some(ins.id));
        assert_eq!(cc.lookup(0x104), None);
        assert_eq!(cc.get(ins.id).unwrap().guest_len, 3);
        assert_eq!(cc.used(), 2);
    }

    #[test]
    fn install_compiles_templates() {
        let mut cc = CodeCache::new(100);
        let id = put(&mut cc, 0x100, BlockKind::Bb).id;
        let b = cc.get(id).unwrap();
        assert_eq!(b.templates.len(), b.insts.len());
        assert_eq!(b.templates[0].inst.pc, b.host_base);
        assert_eq!(b.templates[1].inst.pc, b.host_base + 4);
    }

    #[test]
    fn sbm_replaces_map_entry() {
        let mut cc = CodeCache::new(100);
        let bb = put(&mut cc, 0x100, BlockKind::Bb).id;
        let sb = put(&mut cc, 0x100, BlockKind::Sb).id;
        assert_ne!(bb, sb);
        assert_eq!(cc.lookup(0x100), Some(sb));
        // The replaced block stays allocated as dead space.
        assert!(cc.get(bb).is_some());
        assert_eq!(cc.health().dead_space_ratio(), 0.5);
    }

    #[test]
    fn overflow_flushes() {
        let mut cc = CodeCache::new(5);
        put(&mut cc, 0x100, BlockKind::Bb);
        put(&mut cc, 0x200, BlockKind::Bb);
        // Third block exceeds 5 instructions: flush, then install.
        let ins = put(&mut cc, 0x300, BlockKind::Bb);
        assert!(ins.flushed);
        assert_eq!(cc.stats().flushes, 1);
        assert_eq!(cc.lookup(0x100), None, "flushed");
        assert_eq!(cc.resident(), 1);
    }

    #[test]
    fn flush_stales_outstanding_handles() {
        let mut cc = CodeCache::new(5);
        let a = put(&mut cc, 0x100, BlockKind::Bb).id;
        let b = put(&mut cc, 0x200, BlockKind::Bb).id;
        put(&mut cc, 0x300, BlockKind::Bb); // forces the flush
        assert!(cc.get(a).is_none());
        assert!(cc.get(b).is_none());
        // The new epoch reuses `b`'s index; the old handle stays dead.
        let c = put(&mut cc, 0x400, BlockKind::Bb).id;
        assert_eq!(c.idx, b.idx);
        assert_eq!(cc.get(c).unwrap().guest_entry, 0x400);
        assert!(cc.get(b).is_none());
    }

    #[test]
    fn oversized_translation_is_rejected() {
        let mut cc = CodeCache::new(4);
        put(&mut cc, 0x100, BlockKind::Bb);
        let mem = GuestMem::new();
        let big: Vec<HInst> = (0..6).map(|_| HInst::Nop).collect();
        let err =
            cc.install(0x200, big, BlockKind::Bb, 5, vec![], 1, vec![0x200], &mem).unwrap_err();
        assert_eq!(err, CacheError::TooLarge { insts: 6, capacity: 4 });
        // The reject is clean: nothing was flushed, and the resident
        // block still runs.
        assert_eq!(cc.stats().flushes, 0);
        assert!(cc.lookup(0x100).is_some());
        assert!(cc.used() <= 4, "bound never exceeded");
    }

    #[test]
    fn chaining_patches_direct_exits() {
        let mut cc = CodeCache::new(100);
        let a = put(&mut cc, 0x100, BlockKind::Bb).id;
        let b = put(&mut cc, 0x200, BlockKind::Bb).id;
        cc.chain(a, 1, b).unwrap();
        match cc.get(a).unwrap().insts[1] {
            HInst::Exit(Exit::Direct { link, .. }) => assert_eq!(link, Some(b)),
            ref o => panic!("unexpected {o:?}"),
        }
        assert_eq!(cc.stats().chains, 1);
    }

    #[test]
    fn chaining_wrong_instruction_errors() {
        let mut cc = CodeCache::new(100);
        let a = put(&mut cc, 0x100, BlockKind::Bb).id;
        // Index 0 is a Nop, not a direct exit.
        assert_eq!(cc.chain(a, 0, a), Err(CacheError::NotDirectExit { id: a, exit_idx: 0 }));
        // Out-of-range index reports the same typed error, not a panic.
        assert_eq!(cc.chain(a, 99, a), Err(CacheError::NotDirectExit { id: a, exit_idx: 99 }));
    }

    #[test]
    fn chaining_stale_endpoints_error() {
        let mut cc = CodeCache::new(100);
        let a = put(&mut cc, 0x100, BlockKind::Bb).id;
        cc.flush();
        let b = put(&mut cc, 0x200, BlockKind::Bb).id;
        assert_eq!(cc.chain(a, 1, b), Err(CacheError::Stale(a)));
        assert_eq!(cc.chain(b, 1, a), Err(CacheError::Stale(a)));
        assert_eq!(cc.stats().chains, 0);
    }

    #[test]
    fn host_bases_are_disjoint() {
        let mut cc = CodeCache::new(100);
        let a = put(&mut cc, 0x100, BlockKind::Bb).id;
        let b = put(&mut cc, 0x200, BlockKind::Bb).id;
        let ba = cc.get(a).unwrap();
        let bb = cc.get(b).unwrap();
        assert!(bb.host_base >= ba.host_base + 4 * ba.insts.len() as u64);
    }

    #[test]
    fn retranslation_counting() {
        let mut cc = CodeCache::new(4);
        put(&mut cc, 0x100, BlockKind::Bb);
        put(&mut cc, 0x200, BlockKind::Bb); // fills the cache
        put(&mut cc, 0x300, BlockKind::Bb); // flush
        assert_eq!(cc.stats().retranslations, 0);
        put(&mut cc, 0x100, BlockKind::Bb); // re-translation after the flush
        assert_eq!(cc.stats().retranslations, 1);
        // So does a re-install after a flush the engine asks for.
        cc.flush();
        put(&mut cc, 0x100, BlockKind::Bb);
        assert_eq!(cc.stats().retranslations, 2);
        // A same-entry replacement (promotion) is deliberate new work,
        // not lifecycle churn.
        let mut pc = CodeCache::new(8);
        put(&mut pc, 0x100, BlockKind::Bb);
        put(&mut pc, 0x100, BlockKind::Sb); // replaces in place
        assert_eq!(pc.stats().retranslations, 0);
    }

    #[test]
    fn smc_stamp_detects_code_page_writes() {
        let mut mem = GuestMem::new();
        mem.write_u32(0x1000, 0xDEAD_BEEF);
        let mut cc = CodeCache::new(100);
        let id = cc
            .install(0x1000, tiny_block(), BlockKind::Bb, 1, vec![], 1, vec![0x1000], &mem)
            .unwrap()
            .id;
        assert!(!cc.smc_stale(id, &mem), "fresh stamp");
        mem.write_u8(0x0200_0000, 7); // unrelated page
        assert!(!cc.smc_stale(id, &mem), "writes elsewhere don't invalidate");
        mem.write_u8(0x1002, 7); // inside the covered page
        assert!(cc.smc_stale(id, &mem), "covered-page write invalidates");
        cc.flush();
        assert!(cc.smc_stale(id, &mem), "stale handle reports stale");
    }

    /// The acceptance property: over randomized install/chain/flush
    /// sequences, every handle ever issued either still names a block
    /// with the same guest entry it was issued for, or is detectably
    /// stale — so a handle kept across a flush can never resolve to the
    /// block installed at its index since. Every chain link held by a
    /// block names a block of the same epoch. No operation panics.
    #[test]
    fn property_randomized_lifecycle_never_misdispatches() {
        let mut rng = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            // xorshift64*
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut cc = CodeCache::new(16);
        let mem = GuestMem::new();
        // Every handle ever issued, with the entry it was issued for.
        let mut issued: Vec<(BlockId, u32)> = Vec::new();
        let mut stale_seen = 0u32;
        for _ in 0..2_000 {
            match next() % 10 {
                0..=5 => {
                    let entry = 0x100 * (1 + (next() % 12) as u32);
                    let n = 1 + (next() % 4) as usize;
                    let mut insts: Vec<HInst> = vec![HInst::Nop; n];
                    insts.push(HInst::Exit(Exit::Direct { guest_target: 0x100, link: None }));
                    if let Ok(ins) = cc.install(
                        entry,
                        insts,
                        BlockKind::Bb,
                        n as u32,
                        vec![],
                        1,
                        vec![entry],
                        &mem,
                    ) {
                        issued.push((ins.id, entry));
                    }
                }
                6..=8 => {
                    if issued.len() >= 2 {
                        let (from, _) = issued[(next() % issued.len() as u64) as usize];
                        let (to, _) = issued[(next() % issued.len() as u64) as usize];
                        let exit_idx = cc.get(from).map_or(0, |b| b.insts.len().saturating_sub(1));
                        let _ = cc.chain(from, exit_idx, to);
                    }
                }
                _ => {
                    if next() % 4 == 0 {
                        cc.flush();
                    }
                }
            }
            // Invariants after every operation.
            for &(id, entry) in &issued {
                match cc.get(id) {
                    Some(b) => assert_eq!(b.guest_entry, entry, "handle resolved to wrong entry"),
                    None => stale_seen += 1,
                }
            }
            for (id, b) in cc.blocks() {
                assert_eq!(cc.get(id).map(|g| g.guest_entry), Some(b.guest_entry));
                for inst in &b.insts {
                    if let HInst::Exit(Exit::Direct { link: Some(to), .. }) = inst {
                        assert!(cc.get(*to).is_some(), "a chain link outlived its target");
                    }
                }
            }
            assert!(cc.used() <= 16, "instruction bound violated");
        }
        assert!(cc.stats().flushes > 10 && stale_seen > 0, "the run must cross epochs");
    }
}
