//! Reference models of the memory hierarchy, for the unit tests only.
//!
//! The production structures keep their tags in one flat array and skip
//! probes they can prove redundant (the last-line and last-page
//! shortcuts). These models do neither: a cache is a `Vec` of sets with
//! a tag and a valid bit per way, and every access probes every level.
//! They are what the flat layout and the shortcuts replaced, kept
//! readable rather than fast; the tests in `cache`, `tlb` and `memsys`
//! run the same access streams through both and compare every outcome
//! and the memory system's per-owner counters. Replacement
//! ([`PlruSet`]) and prefetching ([`StridePrefetcher`]) are shared:
//! they are policy, not layout.

use crate::cache::Lookup;
use crate::config::{CacheParams, TimingConfig, TlbParams};
use crate::memsys::{DataAccess, InstAccess, OwnerMemStats};
use crate::plru::PlruSet;
use crate::prefetch::StridePrefetcher;
use crate::tlb::TlbOutcome;
use darco_host::layout::is_guest_addr;
use darco_host::Owner;

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
    latencies: [u32; 3],
}

impl FullProbeTlb {
    pub(crate) fn new(l1: TlbParams, l2: TlbParams, walk_latency: u32) -> FullProbeTlb {
        let pages = |p: TlbParams| {
            LegacyCache::new(CacheParams {
                size: p.entries * 4096,
                block: 4096,
                ways: p.ways,
                hit_latency: p.hit_latency,
            })
        };
        FullProbeTlb {
            l1: pages(l1),
            l2: pages(l2),
            latencies: [l1.hit_latency, l2.hit_latency, walk_latency],
        }
    }

    pub(crate) fn access(&mut self, addr: u64) -> (TlbOutcome, u32) {
        if self.l1.access(addr) == Lookup::Hit {
            (TlbOutcome::L1Hit, self.latencies[0])
        } else if self.l2.access(addr) == Lookup::Hit {
            (TlbOutcome::L2Hit, self.latencies[1])
        } else {
            (TlbOutcome::Walk, self.latencies[2])
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
    stats: [OwnerMemStats; 2],
    cfg: TimingConfig,
}

impl FullProbeMemSystem {
    pub(crate) fn new(cfg: &TimingConfig) -> FullProbeMemSystem {
        FullProbeMemSystem {
            l1i: LegacyCache::new(cfg.l1i),
            l1d: LegacyCache::new(cfg.l1d),
            l2: LegacyCache::new(cfg.l2),
            tlb: FullProbeTlb::new(cfg.tlb1, cfg.tlb2, cfg.tlb_walk_latency),
            prefetch: StridePrefetcher::new(cfg.prefetcher_entries),
            stats: [OwnerMemStats::default(); 2],
            cfg: cfg.clone(),
        }
    }

    pub(crate) fn access_data(&mut self, owner: Owner, pc: u64, addr: u64) -> DataAccess {
        let mut latency = 0;
        if is_guest_addr(addr) {
            let (_, tlb_lat) = self.tlb.access(addr);
            latency += tlb_lat.saturating_sub(1);
        }
        let l1_miss = self.l1d.access(addr) == Lookup::Miss;
        let l2_miss = l1_miss && self.l2.access(addr) == Lookup::Miss;
        latency += match (l1_miss, l2_miss) {
            (false, _) => self.cfg.l1d.hit_latency,
            (true, false) => self.cfg.l2.hit_latency,
            (true, true) => self.cfg.mem_latency,
        };
        if let Some(pf_addr) = self.prefetch.observe(pc, addr) {
            if !self.l1d.contains(pf_addr) {
                self.l1d.fill(pf_addr);
                self.l2.fill(pf_addr);
            }
        }
        let n = &mut self.stats[owner as usize];
        n.d_accesses += 1;
        n.d_misses += u64::from(l1_miss);
        DataAccess { latency, l1_miss, l2_miss }
    }

    pub(crate) fn prefetch_fill(&mut self, addr: u64) {
        if is_guest_addr(addr) {
            let _ = self.tlb.access(addr);
        }
        self.l1d.fill(addr);
        self.l2.fill(addr);
    }

    pub(crate) fn access_inst(&mut self, owner: Owner, pc: u64) -> InstAccess {
        let l1_miss = self.l1i.access(pc) == Lookup::Miss;
        let latency = match l1_miss {
            false => 1,
            true if self.l2.access(pc) == Lookup::Miss => self.cfg.mem_latency,
            true => self.cfg.l2.hit_latency,
        };
        let n = &mut self.stats[owner as usize];
        n.i_accesses += 1;
        n.i_misses += u64::from(l1_miss);
        InstAccess { latency, l1_miss }
    }

    pub(crate) fn owner_stats(&self, owner: Owner) -> OwnerMemStats {
        self.stats[owner as usize]
    }

    pub(crate) fn prefetches(&self) -> u64 {
        self.prefetch.issued()
    }
}
