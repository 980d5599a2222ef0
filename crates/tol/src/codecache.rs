//! The code cache: storage for translations, the translation map,
//! chaining, and the translation lifecycle (eviction, unlinking,
//! SMC invalidation).
//!
//! Translations are bounded by a host-instruction capacity. Two overflow
//! policies exist, selected by [`CachePolicy`]:
//!
//! * [`CachePolicy::Flush`] — the classic whole-cache flush (Hazelwood &
//!   Smith, cited as \[33\] in the paper). Dead space from replaced blocks
//!   accumulates until the next flush; every handle goes stale at once.
//!   This is the byte-equality oracle: its event stream is identical to
//!   the pre-lifecycle implementation.
//! * [`CachePolicy::Fifo`] — partial eviction: on overflow the oldest
//!   translations are evicted one at a time until the new one fits, a
//!   same-entry replacement (SBM promotion) evicts the replaced block
//!   immediately, and reclaimed address ranges go onto a free list for
//!   reuse. Only the chains *into* an evicted block are unpatched (each
//!   block tracks its incoming chain sites) and only the IBTC entries
//!   naming it are invalidated — the rest of the cache keeps running.
//!
//! Block handles are generation-tagged ([`BlockId`]): every eviction
//! bumps the slot generation, so a stale handle is detectable through
//! [`CodeCache::get`] instead of silently resolving to an unrelated
//! translation.
//!
//! Translations are additionally stamped against self-modifying code:
//! at install each block records the covered guest pages and the maximum
//! [`GuestMem`] page write-generation over them; [`CodeCache::smc_stale`]
//! compares the stamp on entry/dispatch so a guest that overwrites
//! translated code re-translates instead of executing stale host code.
//!
//! Chaining patches a block's direct exit to name its successor block,
//! so steady-state execution hops from translation to translation
//! without entering the software layer (Sec. III-B).

use darco_guest::GuestMem;
use darco_host::layout::CODE_CACHE_BASE;
use darco_host::{compile_block, BlockId, Exit, HInst, RetireTemplate};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};

/// Which mode produced a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Basic-block translation (BBM): instrumented for edge profiling.
    Bb,
    /// Optimized superblock (SBM).
    Sb,
}

/// Code-cache overflow policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CachePolicy {
    /// Whole-cache flush on overflow (the classic bounded-cache policy;
    /// Hazelwood & Smith). The byte-equality oracle.
    #[default]
    Flush,
    /// Partial eviction: evict the oldest translations until the new one
    /// fits, reclaim their space via a free list, unlink only the chains
    /// into them, and invalidate only the IBTC entries naming them.
    Fifo,
}

impl std::str::FromStr for CachePolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<CachePolicy, String> {
        match s {
            "flush" => Ok(CachePolicy::Flush),
            "fifo" => Ok(CachePolicy::Fifo),
            other => Err(format!("unknown cache policy {other} (flush|fifo)")),
        }
    }
}

/// Typed errors at the cache's public API boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// The handle's slot generation does not match: the block was
    /// evicted (or the cache flushed) after the handle was issued.
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

/// Why a block was evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictCause {
    /// Capacity pressure under [`CachePolicy::Fifo`].
    Capacity,
    /// A same-entry install replaced it (SBM promotion under fifo).
    Replaced,
    /// A guest write invalidated its SMC stamp.
    Smc,
}

/// One evicted translation, as reported to the engine so it can emit
/// lifecycle events and invalidate its own side tables.
#[derive(Debug, Clone)]
pub struct Evicted {
    /// The now-stale handle (IBTC entries naming it must go).
    pub id: BlockId,
    /// Guest entry address of the evicted translation.
    pub entry: u32,
    /// Whether a self-modifying-code stamp mismatch forced the eviction.
    pub smc: bool,
    /// Host PCs of chain sites that were unpatched because they linked
    /// into the evicted block.
    pub unchained: Vec<u64>,
}

/// Result of a successful [`CodeCache::install`].
#[derive(Debug)]
pub struct Installed {
    /// Handle of the new translation.
    pub id: BlockId,
    /// Whether installing forced a whole-cache flush
    /// ([`CachePolicy::Flush`] only).
    pub flushed: bool,
    /// Blocks evicted to make room ([`CachePolicy::Fifo`] only).
    pub evicted: Vec<Evicted>,
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
    /// Chain sites patched to link into this block: `(from, exit_idx)`.
    /// Evicting this block unpatches every still-live site, so no live
    /// exit can keep jumping into freed code.
    pub incoming: Vec<(BlockId, u32)>,
    /// Guest page numbers (`addr >> 12`) the translated code was decoded
    /// from (over-approximated to instruction-length granularity).
    pub code_pages: Vec<u32>,
    /// Maximum [`GuestMem`] page write-generation over `code_pages` at
    /// install time: the block's self-modifying-code stamp.
    pub smc_gen: u64,
}

/// Statistics the code cache keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeCacheStats {
    /// Translations installed over the run (including re-translations
    /// after flushes/evictions).
    pub installed: u64,
    /// Whole-cache flushes.
    pub flushes: u64,
    /// Chain links patched.
    pub chains: u64,
    /// Per-block evictions (capacity, replacement, and SMC; whole-cache
    /// flushes are counted in `flushes`, not here).
    pub evictions: u64,
    /// Evictions forced by a self-modifying-code stamp mismatch.
    pub smc_evictions: u64,
    /// Chain links unpatched because their target was evicted.
    pub unchains: u64,
    /// Installs at a guest entry whose previous translation had been
    /// flushed or evicted — the re-translation work the lifecycle
    /// policies trade against cache space.
    pub retranslations: u64,
}

/// A serializable snapshot of cache health for end-of-run reports:
/// occupancy, dead space, and the lifetime lifecycle counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheHealth {
    /// Capacity in host instructions.
    pub capacity: u32,
    /// Host instructions currently allocated (live + dead).
    pub used: u32,
    /// Host instructions in map-reachable (live) translations.
    pub live_used: u32,
    /// Currently resident (live) translations.
    pub resident: u32,
    /// Per-block evictions over the run.
    pub evictions: u64,
    /// SMC-forced evictions over the run.
    pub smc_evictions: u64,
    /// Chain links unpatched over the run.
    pub unchains: u64,
    /// Re-translations of previously flushed/evicted entries.
    pub retranslations: u64,
}

impl CacheHealth {
    /// Fraction of the capacity currently allocated.
    pub fn occupancy(&self) -> f64 {
        self.used as f64 / self.capacity.max(1) as f64
    }

    /// Fraction of allocated space held by dead (unreachable) blocks —
    /// the leak the partial-eviction policy reclaims.
    pub fn dead_space_ratio(&self) -> f64 {
        (self.used - self.live_used) as f64 / self.used.max(1) as f64
    }
}

/// One storage slot: a generation counter plus the (possibly evicted)
/// occupant. The generation bumps on every eviction, invalidating every
/// outstanding [`BlockId`] that names the slot.
#[derive(Debug)]
struct Slot {
    gen: u32,
    block: Option<TranslatedBlock>,
}

/// The bounded code cache and translation map.
#[derive(Debug)]
pub struct CodeCache {
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    map: HashMap<u32, BlockId>,
    /// Install order of (possibly since-evicted) blocks, for fifo
    /// victim selection; cleaned lazily.
    order: VecDeque<BlockId>,
    /// Reclaimed host-address extents `(base, bytes)`, sorted by base
    /// and coalesced; first-fit allocation under fifo.
    free_space: Vec<(u64, u64)>,
    capacity: u32,
    used: u32,
    live_used: u32,
    next_host_base: u64,
    scattered: bool,
    policy: CachePolicy,
    /// Guest entries whose translation was flushed or evicted, for
    /// re-translation counting (cleared per entry on re-install).
    evicted_entries: HashSet<u32>,
    stats: CodeCacheStats,
}

impl CodeCache {
    /// Creates a cache bounded to `capacity` host instructions, packing
    /// translations sequentially in emission order, with the classic
    /// flush-on-overflow policy.
    pub fn new(capacity: u32) -> CodeCache {
        CodeCache {
            slots: Vec::new(),
            free_slots: Vec::new(),
            map: HashMap::new(),
            order: VecDeque::new(),
            free_space: Vec::new(),
            capacity,
            used: 0,
            live_used: 0,
            next_host_base: CODE_CACHE_BASE,
            scattered: false,
            policy: CachePolicy::Flush,
            evicted_entries: HashSet::new(),
            stats: CodeCacheStats::default(),
        }
    }

    /// Creates a cache with the given overflow policy.
    pub fn with_policy(capacity: u32, policy: CachePolicy) -> CodeCache {
        CodeCache { policy, ..CodeCache::new(capacity) }
    }

    /// Creates a cache with page-aligned ("scattered") placement: every
    /// translation starts on a 4 KiB boundary, so block heads pile onto
    /// the same I-cache sets and lines are underused — the bad placement
    /// policy the paper's code-placement recommendation (Sec. III-E)
    /// implicitly argues against. Under fifo, scattered placement skips
    /// address reuse (alignment padding breaks the extent bookkeeping);
    /// the instruction-count bound still holds.
    pub fn new_scattered(capacity: u32) -> CodeCache {
        CodeCache { scattered: true, ..CodeCache::new(capacity) }
    }

    /// The configured overflow policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Sets the overflow policy (engine configuration time only).
    pub fn set_policy(&mut self, policy: CachePolicy) {
        self.policy = policy;
    }

    /// Looks up the translation covering guest address `pc` (entry match).
    pub fn lookup(&self, pc: u32) -> Option<BlockId> {
        self.map.get(&pc).copied()
    }

    /// Installs a translation.
    ///
    /// Under [`CachePolicy::Flush`], overflow flushes the whole cache
    /// first; a same-entry translation (e.g. an SBM block replacing a
    /// BBM block) takes over the map entry and the old block stays
    /// allocated as dead space until the next flush, as in a real
    /// flush-policy code cache. Under [`CachePolicy::Fifo`], the oldest
    /// translations are evicted until the new one fits, a same-entry
    /// install evicts the replaced block immediately, and reclaimed
    /// space is reused.
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
        let mut flushed = false;
        let mut evicted = Vec::new();
        match self.policy {
            CachePolicy::Flush => {
                if self.used + n > self.capacity {
                    self.flush();
                    flushed = true;
                }
                // A replaced block leaks as dead space until the flush.
                if let Some(&old) = self.map.get(&guest_entry) {
                    if let Some(b) = self.get(old) {
                        self.live_used -= b.insts.len() as u32;
                    }
                }
            }
            CachePolicy::Fifo => {
                if let Some(&old) = self.map.get(&guest_entry) {
                    if let Some(e) = self.evict(old, EvictCause::Replaced) {
                        evicted.push(e);
                    }
                }
                while self.used + n > self.capacity {
                    match self.pop_oldest() {
                        Some(victim) => {
                            if let Some(e) = self.evict(victim, EvictCause::Capacity) {
                                evicted.push(e);
                            }
                        }
                        None => break, // empty: n <= capacity fits
                    }
                }
            }
        }
        let host_base = self.alloc(n, &mut evicted);
        let (code_pages, smc_gen) = smc_stamp(mem, guest_pcs.iter().copied());
        let templates = compile_block(&insts, host_base);
        let block = TranslatedBlock {
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
            incoming: Vec::new(),
            code_pages,
            smc_gen,
        };
        let id = self.alloc_slot(block);
        self.map.insert(guest_entry, id);
        self.order.push_back(id);
        self.used += n;
        self.live_used += n;
        self.stats.installed += 1;
        if self.evicted_entries.remove(&guest_entry) {
            self.stats.retranslations += 1;
        }
        Ok(Installed { id, flushed, evicted })
    }

    /// Places a block into a free slot (bumped-generation reuse) or a
    /// fresh one, returning its handle.
    fn alloc_slot(&mut self, block: TranslatedBlock) -> BlockId {
        match self.free_slots.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.block.is_none());
                slot.block = Some(block);
                BlockId { idx, gen: slot.gen }
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot { gen: 0, block: Some(block) });
                BlockId { idx, gen: 0 }
            }
        }
    }

    /// Allocates a host-address range for `n` instructions. Under fifo
    /// (non-scattered) the free list is tried first; exhaustion of the
    /// address window evicts further victims until an extent fits.
    fn alloc(&mut self, n: u32, evicted: &mut Vec<Evicted>) -> u64 {
        let bytes = n as u64 * 4;
        if self.scattered {
            self.next_host_base = (self.next_host_base + 0xFFF) & !0xFFF;
            let base = self.next_host_base;
            self.next_host_base += bytes;
            return base;
        }
        if self.policy == CachePolicy::Flush {
            let base = self.next_host_base;
            self.next_host_base += bytes;
            return base;
        }
        let window_end = CODE_CACHE_BASE + self.capacity as u64 * 4;
        loop {
            if let Some(base) = self.take_extent(bytes) {
                return base;
            }
            if self.next_host_base + bytes <= window_end {
                let base = self.next_host_base;
                self.next_host_base += bytes;
                return base;
            }
            // Fragmentation: no contiguous extent fits even though the
            // instruction budget does. Evict more until one opens up; an
            // empty cache resets the whole window.
            match self.pop_oldest() {
                Some(victim) => {
                    if let Some(e) = self.evict(victim, EvictCause::Capacity) {
                        evicted.push(e);
                    }
                }
                None => {
                    self.free_space.clear();
                    self.next_host_base = CODE_CACHE_BASE;
                }
            }
        }
    }

    /// First-fit over the free extents; splits the chosen one.
    fn take_extent(&mut self, bytes: u64) -> Option<u64> {
        let i = self.free_space.iter().position(|&(_, sz)| sz >= bytes)?;
        let (base, sz) = self.free_space[i];
        if sz == bytes {
            self.free_space.remove(i);
        } else {
            self.free_space[i] = (base + bytes, sz - bytes);
        }
        Some(base)
    }

    /// Returns an extent to the free list, coalescing with neighbors.
    fn free_extent(&mut self, base: u64, bytes: u64) {
        let i = self.free_space.partition_point(|&(b, _)| b < base);
        // Merge with the predecessor if adjacent.
        if i > 0 && self.free_space[i - 1].0 + self.free_space[i - 1].1 == base {
            self.free_space[i - 1].1 += bytes;
            // And with the successor, if now adjacent too.
            if i < self.free_space.len()
                && self.free_space[i - 1].0 + self.free_space[i - 1].1 == self.free_space[i].0
            {
                self.free_space[i - 1].1 += self.free_space[i].1;
                self.free_space.remove(i);
            }
            return;
        }
        if i < self.free_space.len() && base + bytes == self.free_space[i].0 {
            self.free_space[i] = (base, bytes + self.free_space[i].1);
            return;
        }
        self.free_space.insert(i, (base, bytes));
    }

    /// Oldest still-live block in install order (lazily skipping handles
    /// already invalidated by replacement or SMC eviction).
    fn pop_oldest(&mut self) -> Option<BlockId> {
        while let Some(id) = self.order.pop_front() {
            if self.get(id).is_some() {
                return Some(id);
            }
        }
        None
    }

    /// Evicts one block: bumps its slot generation (staling every
    /// outstanding handle), frees its space, removes its map entry, and
    /// unpatches every live chain site linking into it. Returns what was
    /// evicted (`None` if the handle was already stale).
    pub fn evict_block(&mut self, id: BlockId, cause: EvictCause) -> Option<Evicted> {
        self.evict(id, cause)
    }

    fn evict(&mut self, id: BlockId, cause: EvictCause) -> Option<Evicted> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        let b = slot.block.take()?;
        slot.gen += 1;
        self.free_slots.push(id.idx);
        let n = b.insts.len() as u32;
        self.used -= n;
        if self.map.get(&b.guest_entry) == Some(&id) {
            self.map.remove(&b.guest_entry);
            self.live_used -= n;
        }
        if !self.scattered && self.policy == CachePolicy::Fifo {
            self.free_extent(b.host_base, n as u64 * 4);
        }
        // Replacement means a new translation for the same entry is
        // being installed right now (promotion); counting that install
        // as a "retranslation" would misread deliberate new work as
        // lifecycle churn.
        if cause != EvictCause::Replaced {
            self.evicted_entries.insert(b.guest_entry);
        }
        self.stats.evictions += 1;
        if cause == EvictCause::Smc {
            self.stats.smc_evictions += 1;
        }
        let mut unchained = Vec::new();
        for &(from, exit_idx) in &b.incoming {
            let Some(fb) = self.get_mut(from) else { continue };
            if let Some(HInst::Exit(Exit::Direct { link, .. })) =
                fb.insts.get_mut(exit_idx as usize)
            {
                if *link == Some(id) {
                    *link = None;
                    unchained.push(fb.host_base + 4 * exit_idx as u64);
                }
            }
        }
        self.stats.unchains += unchained.len() as u64;
        Some(Evicted { id, entry: b.guest_entry, smc: cause == EvictCause::Smc, unchained })
    }

    /// Drops every translation (bounded-cache overflow policy), bumping
    /// every occupied slot's generation so all outstanding handles go
    /// stale.
    pub fn flush(&mut self) {
        for (i, s) in self.slots.iter_mut().enumerate() {
            if let Some(b) = s.block.take() {
                s.gen += 1;
                self.free_slots.push(i as u32);
                self.evicted_entries.insert(b.guest_entry);
            }
        }
        self.map.clear();
        self.order.clear();
        self.free_space.clear();
        self.used = 0;
        self.live_used = 0;
        self.next_host_base = CODE_CACHE_BASE;
        self.stats.flushes += 1;
    }

    /// Accesses a block by handle, `None` if the handle is stale.
    pub fn get(&self, id: BlockId) -> Option<&TranslatedBlock> {
        let slot = self.slots.get(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.block.as_ref()
    }

    /// Mutable access by handle, `None` if the handle is stale.
    pub fn get_mut(&mut self, id: BlockId) -> Option<&mut TranslatedBlock> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.block.as_mut()
    }

    /// Accesses a block by handle.
    ///
    /// # Errors
    ///
    /// [`CacheError::Stale`] if the block was evicted (or the cache
    /// flushed) after the handle was issued.
    pub fn block(&self, id: BlockId) -> Result<&TranslatedBlock, CacheError> {
        self.get(id).ok_or(CacheError::Stale(id))
    }

    /// Mutable access to a block (profiling counters, promotion flag).
    ///
    /// # Errors
    ///
    /// [`CacheError::Stale`] if the handle no longer names a live block.
    pub fn block_mut(&mut self, id: BlockId) -> Result<&mut TranslatedBlock, CacheError> {
        self.get_mut(id).ok_or(CacheError::Stale(id))
    }

    /// Iterates over the live (still-installed) translations.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &TranslatedBlock)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.block.as_ref().map(|b| (BlockId { idx: i as u32, gen: s.gen }, b))
        })
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
    /// block `from` to link directly to block `to`, and records the site
    /// on `to`'s incoming set so eviction can unpatch it.
    ///
    /// # Errors
    ///
    /// [`CacheError::Stale`] if either endpoint has been evicted;
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
        let tb = self.get_mut(to).expect("liveness checked above");
        tb.incoming.push((from, exit_idx as u32));
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

    /// Snapshot of occupancy, dead space, and lifecycle counters.
    pub fn health(&self) -> CacheHealth {
        CacheHealth {
            capacity: self.capacity,
            used: self.used,
            live_used: self.live_used,
            resident: self.map.len() as u32,
            evictions: self.stats.evictions,
            smc_evictions: self.stats.smc_evictions,
            unchains: self.stats.unchains,
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
        assert_eq!(cc.block(ins.id).unwrap().guest_len, 3);
        assert_eq!(cc.used(), 2);
    }

    #[test]
    fn install_compiles_templates() {
        let mut cc = CodeCache::new(100);
        let id = put(&mut cc, 0x100, BlockKind::Bb).id;
        let b = cc.block(id).unwrap();
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
        // Under flush, the replaced block stays allocated as dead space.
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
        assert_eq!(cc.block(b).err(), Some(CacheError::Stale(b)));
        // Slot reuse must not resurrect the old handle.
        let c = put(&mut cc, 0x400, BlockKind::Bb).id;
        assert!(cc.get(c).is_some());
        assert!(cc.get(a).is_none());
    }

    #[test]
    fn oversized_translation_is_rejected() {
        for policy in [CachePolicy::Flush, CachePolicy::Fifo] {
            let mut cc = CodeCache::with_policy(4, policy);
            put(&mut cc, 0x100, BlockKind::Bb);
            let mem = GuestMem::new();
            let big: Vec<HInst> = (0..6).map(|_| HInst::Nop).collect();
            let err =
                cc.install(0x200, big, BlockKind::Bb, 5, vec![], 1, vec![0x200], &mem).unwrap_err();
            assert_eq!(err, CacheError::TooLarge { insts: 6, capacity: 4 });
            // The reject is clean: nothing was flushed or evicted, and
            // the resident block still runs.
            assert_eq!(cc.stats().flushes, 0);
            assert_eq!(cc.stats().evictions, 0);
            assert!(cc.lookup(0x100).is_some());
            assert!(cc.used() <= 4, "bound never exceeded");
        }
    }

    #[test]
    fn chaining_patches_direct_exits() {
        let mut cc = CodeCache::new(100);
        let a = put(&mut cc, 0x100, BlockKind::Bb).id;
        let b = put(&mut cc, 0x200, BlockKind::Bb).id;
        cc.chain(a, 1, b).unwrap();
        match cc.block(a).unwrap().insts[1] {
            HInst::Exit(Exit::Direct { link, .. }) => assert_eq!(link, Some(b)),
            ref o => panic!("unexpected {o:?}"),
        }
        assert_eq!(cc.stats().chains, 1);
        assert_eq!(cc.block(b).unwrap().incoming, vec![(a, 1)]);
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
        let mut cc = CodeCache::with_policy(100, CachePolicy::Fifo);
        let a = put(&mut cc, 0x100, BlockKind::Bb).id;
        let b = put(&mut cc, 0x200, BlockKind::Bb).id;
        cc.evict_block(b, EvictCause::Capacity);
        assert_eq!(cc.chain(a, 1, b), Err(CacheError::Stale(b)));
        assert_eq!(cc.chain(b, 1, a), Err(CacheError::Stale(b)));
    }

    #[test]
    fn host_bases_are_disjoint() {
        let mut cc = CodeCache::new(100);
        let a = put(&mut cc, 0x100, BlockKind::Bb).id;
        let b = put(&mut cc, 0x200, BlockKind::Bb).id;
        let ba = cc.block(a).unwrap();
        let bb = cc.block(b).unwrap();
        assert!(bb.host_base >= ba.host_base + 4 * ba.insts.len() as u64);
    }

    #[test]
    fn fifo_evicts_oldest_and_unlinks_incoming_chains() {
        // Capacity 6 holds three 2-inst blocks.
        let mut cc = CodeCache::with_policy(6, CachePolicy::Fifo);
        let a = put(&mut cc, 0x100, BlockKind::Bb).id;
        let b = put(&mut cc, 0x200, BlockKind::Bb).id;
        let c = put(&mut cc, 0x300, BlockKind::Bb).id;
        cc.chain(b, 1, a).unwrap(); // b's exit jumps into a
        let ins = put(&mut cc, 0x400, BlockKind::Bb); // overflow: evict a
        assert_eq!(ins.evicted.len(), 1);
        assert_eq!(ins.evicted[0].entry, 0x100);
        assert_eq!(ins.evicted[0].id, a);
        assert!(cc.get(a).is_none(), "oldest evicted");
        assert!(cc.get(b).is_some() && cc.get(c).is_some(), "younger blocks survive");
        assert_eq!(cc.stats().flushes, 0, "fifo never flushes");
        // The chain into the victim was unpatched, at the right site.
        let bb = cc.block(b).unwrap();
        match bb.insts[1] {
            HInst::Exit(Exit::Direct { link, .. }) => assert_eq!(link, None, "unlinked"),
            ref o => panic!("unexpected {o:?}"),
        }
        assert_eq!(ins.evicted[0].unchained, vec![bb.host_base + 4]);
        assert_eq!(cc.stats().unchains, 1);
        assert!(cc.used() <= 6);
    }

    #[test]
    fn fifo_replacement_reclaims_space_and_addresses() {
        let mut cc = CodeCache::with_policy(8, CachePolicy::Fifo);
        let bb = put(&mut cc, 0x100, BlockKind::Bb);
        let old_base = cc.block(bb.id).unwrap().host_base;
        let sb = put(&mut cc, 0x100, BlockKind::Sb);
        assert_eq!(sb.evicted.len(), 1, "replaced block evicted eagerly");
        assert!(cc.get(bb.id).is_none());
        assert_eq!(cc.block(sb.id).unwrap().host_base, old_base, "address reused");
        assert_eq!(cc.used(), 2, "no dead space under fifo");
        assert_eq!(cc.health().dead_space_ratio(), 0.0);
    }

    #[test]
    fn fifo_free_extents_coalesce() {
        let mut cc = CodeCache::with_policy(6, CachePolicy::Fifo);
        let a = put(&mut cc, 0x100, BlockKind::Bb).id;
        let b = put(&mut cc, 0x200, BlockKind::Bb).id;
        put(&mut cc, 0x300, BlockKind::Bb);
        // Evict the two adjacent oldest blocks; their extents coalesce
        // into one 16-byte range that can hold a 4-inst block.
        cc.evict_block(a, EvictCause::Capacity);
        cc.evict_block(b, EvictCause::Capacity);
        let mem = GuestMem::new();
        let four: Vec<HInst> = (0..4).map(|_| HInst::Nop).collect();
        let ins = cc.install(0x400, four, BlockKind::Bb, 3, vec![], 1, vec![0x400], &mem).unwrap();
        assert_eq!(cc.block(ins.id).unwrap().host_base, CODE_CACHE_BASE, "coalesced head reused");
    }

    #[test]
    fn retranslation_counting() {
        let mut cc = CodeCache::with_policy(4, CachePolicy::Fifo);
        put(&mut cc, 0x100, BlockKind::Bb);
        put(&mut cc, 0x200, BlockKind::Bb); // fills the cache
        put(&mut cc, 0x300, BlockKind::Bb); // capacity-evicts 0x100
        assert_eq!(cc.stats().retranslations, 0);
        put(&mut cc, 0x100, BlockKind::Bb); // re-translation of 0x100
        assert_eq!(cc.stats().retranslations, 1);
        // Flush-policy flushes count re-installs too.
        let mut fc = CodeCache::new(4);
        put(&mut fc, 0x100, BlockKind::Bb);
        put(&mut fc, 0x200, BlockKind::Bb); // flush
        put(&mut fc, 0x100, BlockKind::Bb); // re-translation after flush
        assert_eq!(fc.stats().retranslations, 1);
        // A same-entry replacement (promotion) is deliberate new work,
        // not lifecycle churn: the eager fifo eviction it triggers must
        // not make the install count as a retranslation.
        let mut pc = CodeCache::with_policy(8, CachePolicy::Fifo);
        put(&mut pc, 0x100, BlockKind::Bb);
        put(&mut pc, 0x100, BlockKind::Sb); // replaces in place
        assert_eq!(pc.stats().evictions, 1, "replacement evicts eagerly");
        assert_eq!(pc.stats().retranslations, 0, "but is not a retranslation");
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
        let e = cc.evict_block(id, EvictCause::Smc).unwrap();
        assert!(e.smc);
        assert_eq!(cc.stats().smc_evictions, 1);
        assert!(cc.smc_stale(id, &mem), "stale handle reports stale");
    }

    /// The acceptance property: over randomized install/evict/chain/
    /// flush sequences, every handle ever issued either still names a
    /// live block with the same guest entry it was issued for, or is
    /// detectably stale — and every chain link held by a live block
    /// points to a live block (eager unlinking), so a dispatch through
    /// any of them lands on live same-entry code or exits to the
    /// software layer. No operation panics.
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
        for policy in [CachePolicy::Flush, CachePolicy::Fifo] {
            let mut cc = CodeCache::with_policy(16, policy);
            let mem = GuestMem::new();
            // Every handle ever issued, with the entry it was issued for.
            let mut issued: Vec<(BlockId, u32)> = Vec::new();
            for _ in 0..2_000 {
                match next() % 10 {
                    0..=4 => {
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
                    5..=6 => {
                        if !issued.is_empty() {
                            let (id, _) = issued[(next() % issued.len() as u64) as usize];
                            cc.evict_block(id, EvictCause::Capacity);
                        }
                    }
                    7..=8 => {
                        if issued.len() >= 2 {
                            let (from, _) = issued[(next() % issued.len() as u64) as usize];
                            let (to, _) = issued[(next() % issued.len() as u64) as usize];
                            let exit_idx =
                                cc.get(from).map_or(0, |b| b.insts.len().saturating_sub(1));
                            let _ = cc.chain(from, exit_idx, to);
                        }
                    }
                    _ => {
                        if next() % 8 == 0 {
                            cc.flush();
                        }
                    }
                }
                // Invariants after every operation.
                for &(id, entry) in &issued {
                    if let Some(b) = cc.get(id) {
                        assert_eq!(b.guest_entry, entry, "handle resolved to wrong entry");
                    }
                }
                let live: Vec<BlockId> = cc.blocks().map(|(id, _)| id).collect();
                for &id in &live {
                    let b = cc.get(id).unwrap();
                    for inst in &b.insts {
                        if let HInst::Exit(Exit::Direct { link: Some(to), .. }) = inst {
                            assert!(
                                cc.get(*to).is_some(),
                                "live block holds a chain link into evicted code"
                            );
                        }
                    }
                    if let Some(r) = b.redirect {
                        // Redirects may go stale; they must at least be
                        // *detectably* stale (never resolve to a
                        // different entry).
                        if let Some(rb) = cc.get(r) {
                            assert_eq!(rb.guest_entry, b.guest_entry);
                        }
                    }
                }
                assert!(cc.used() <= 16, "instruction bound violated");
            }
        }
    }
}
