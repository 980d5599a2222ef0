//! Reference models of the memory hierarchy, for the unit tests only.
//!
//! The production structures keep their tags in one flat array and skip
//! probes they can prove redundant (the last-line and last-page
//! shortcuts). These models do neither: a cache is a `Vec` of sets with
//! a tag and a valid bit per way, and every access probes every level.
//! They are what the flat layout and the shortcuts replaced, kept
//! readable rather than fast; the tests in `cache`, `tlb` and `memsys`
//! run the same access streams through both and compare every outcome
//! and the prefetch count. Replacement
//! ([`PlruSet`]) and prefetching ([`StridePrefetcher`]) are shared:
//! they are policy, not layout.

use crate::cache::Lookup;
use crate::config::{CacheParams, L1D, L1I, L2, MEM_LATENCY, TLB1, TLB2, TLB_WALK_LATENCY};
use crate::memsys::Access;
use crate::plru::PlruSet;
use crate::prefetch::StridePrefetcher;
use crate::tlb::pages;
use darco_host::layout::is_guest_addr;

struct Set {
    tags: Vec<u64>,
    valid: Vec<bool>,
    plru: PlruSet,
}

/// The per-set tag layout: two vectors and a PLRU tree per set.
pub(crate) struct LegacyCache {
    sets: Vec<Set>,
    block_shift: u32,
    ways: u32,
}

impl LegacyCache {
    pub(crate) fn new(p: CacheParams) -> LegacyCache {
        let ways = p.ways as usize;
        LegacyCache {
            sets: (0..p.sets())
                .map(|_| Set {
                    tags: vec![0; ways],
                    valid: vec![false; ways],
                    plru: PlruSet::default(),
                })
                .collect(),
            block_shift: p.block.trailing_zeros(),
            ways: p.ways,
        }
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.block_shift;
        let sets = self.sets.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    pub(crate) fn fill(&mut self, addr: u64) {
        let _ = self.access(addr);
    }

    pub(crate) fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        let set = &self.sets[set_idx];
        (0..self.ways as usize).any(|w| set.valid[w] && set.tags[w] == tag)
    }

    pub(crate) fn access(&mut self, addr: u64) -> Lookup {
        let (set_idx, tag) = self.index(addr);
        let ways = self.ways;
        let set = &mut self.sets[set_idx];
        for w in 0..ways as usize {
            if set.valid[w] && set.tags[w] == tag {
                set.plru.touch(w as u32, ways);
                return Lookup::Hit;
            }
        }
        // Prefer an invalid way, else the PLRU victim.
        let victim = (0..ways as usize)
            .find(|&w| !set.valid[w])
            .unwrap_or_else(|| set.plru.victim(ways) as usize);
        set.tags[victim] = tag;
        set.valid[victim] = true;
        set.plru.touch(victim as u32, ways);
        Lookup::Miss
    }
}

/// The two-level data TLB probing both levels on every access.
pub(crate) struct FullProbeTlb {
    l1: LegacyCache,
    l2: LegacyCache,
}

impl FullProbeTlb {
    pub(crate) fn new() -> FullProbeTlb {
        FullProbeTlb { l1: LegacyCache::new(pages(TLB1)), l2: LegacyCache::new(pages(TLB2)) }
    }

    pub(crate) fn access(&mut self, addr: u64) -> u32 {
        if self.l1.access(addr) == Lookup::Hit {
            TLB1.hit_latency
        } else if self.l2.access(addr) == Lookup::Hit {
            TLB2.hit_latency
        } else {
            TLB_WALK_LATENCY
        }
    }
}

/// The memory system probing L1-D (and, on a miss, L2) and the TLB on
/// every access.
pub(crate) struct FullProbeMemSystem {
    l1i: LegacyCache,
    l1d: LegacyCache,
    l2: LegacyCache,
    tlb: FullProbeTlb,
    prefetch: StridePrefetcher,
}

impl FullProbeMemSystem {
    pub(crate) fn new() -> FullProbeMemSystem {
        FullProbeMemSystem {
            l1i: LegacyCache::new(L1I),
            l1d: LegacyCache::new(L1D),
            l2: LegacyCache::new(L2),
            tlb: FullProbeTlb::new(),
            prefetch: StridePrefetcher::new(),
        }
    }

    pub(crate) fn access_data(&mut self, pc: u64, addr: u64) -> Access {
        let mut latency = 0;
        if is_guest_addr(addr) {
            latency += self.tlb.access(addr).saturating_sub(1);
        }
        let l1_miss = self.l1d.access(addr) == Lookup::Miss;
        latency += match l1_miss {
            false => L1D.hit_latency,
            true if self.l2.access(addr) == Lookup::Miss => MEM_LATENCY,
            true => L2.hit_latency,
        };
        if let Some(pf_addr) = self.prefetch.observe(pc, addr) {
            if !self.l1d.contains(pf_addr) {
                self.l1d.fill(pf_addr);
                self.l2.fill(pf_addr);
            }
        }
        Access { latency, l1_miss }
    }

    pub(crate) fn prefetch_fill(&mut self, addr: u64) {
        if is_guest_addr(addr) {
            self.tlb.access(addr);
        }
        self.l1d.fill(addr);
        self.l2.fill(addr);
    }

    pub(crate) fn access_inst(&mut self, pc: u64) -> Access {
        let l1_miss = self.l1i.access(pc) == Lookup::Miss;
        let latency = match l1_miss {
            false => 1,
            true if self.l2.access(pc) == Lookup::Miss => MEM_LATENCY,
            true => L2.hit_latency,
        };
        Access { latency, l1_miss }
    }

    pub(crate) fn prefetches(&self) -> u64 {
        self.prefetch.issued()
    }
}
