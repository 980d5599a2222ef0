//! Set-associative cache with tree-PLRU replacement.
//!
//! One structure serves the L1-I, L1-D and unified L2 of Table I; the
//! TLBs reuse it at page granularity via [`crate::tlb`].
//!
//! Tags live in one contiguous set-major entry array for the whole
//! cache, each entry `(tag << 1) | 1` with `0` meaning invalid — a probe
//! touches a single short run of one allocation. Table I's levels are 4-
//! and 8-way, and those are the only shapes the cache builds: each gets a
//! monomorphized, branch-free scan (`probe_set::<W>`: a hit mask and a
//! free mask over all `W` entries, `trailing_zeros` of each) feeding the
//! table-driven PLRU of [`crate::plru`].
//!
//! The per-set layout this one replaced lives on as a model in the
//! test-only `reference` module, and `flat_and_legacy_layouts_are_bit_exact`
//! holds every lookup and presence answer of the five Table I levels to
//! it. The cache keeps no counters: its callers count what their reports
//! read from [`Lookup`].

use crate::config::CacheParams;
use crate::plru::PlruSet;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (victim possibly evicted).
    Miss,
}

/// A set-associative, write-allocate cache model (tags only — data lives
/// in the functional memory).
#[derive(Debug, Clone)]
pub struct Cache {
    /// Set-major interleaved entries (`sets * ways` of them) with the
    /// validity bit folded into bit 0.
    entries: Box<[u64]>,
    /// Replacement state per set.
    plru: Box<[PlruSet]>,
    set_mask: u64,
    block_shift: u32,
    tag_shift: u32,
    ways: u32,
}

/// Probe-and-fill over one flat set with compile-time associativity:
/// the slice length is pinned to `W`, so the scan unrolls into straight
/// compares. Bit `w` of `hit`/`free` is way `w`, so `trailing_zeros`
/// picks the lowest matching way, as an early-exit scan would.
#[inline(always)]
fn probe_set<const W: usize>(set: &mut [u64], plru: &mut PlruSet, key: u64) -> Lookup {
    let set: &mut [u64; W] = set.try_into().expect("set run matches associativity");
    let (mut hit, mut free) = (0u32, 0u32);
    for (w, &e) in set.iter().enumerate() {
        hit |= u32::from(e == key) << w;
        free |= u32::from(e == 0) << w;
    }
    if hit != 0 {
        plru.touch(hit.trailing_zeros(), W as u32);
        return Lookup::Hit;
    }
    let victim = if free != 0 { free.trailing_zeros() } else { plru.victim(W as u32) };
    set[victim as usize % W] = key; // `% W`: no-op, spares the bounds check
    plru.touch(victim, W as u32);
    Lookup::Miss
}

impl Cache {
    /// Builds a cache from its parameters.
    ///
    /// # Panics
    ///
    /// Panics if the way count is not 4 or 8 (Table I's), block size or
    /// set count is not a power of two, or the block is smaller than 2
    /// bytes (the tag encoding needs one spare bit).
    pub fn new(p: CacheParams) -> Cache {
        let sets = p.sets();
        assert!(p.block.is_power_of_two(), "block size must be a power of two");
        assert!(p.block >= 2, "tag encoding needs block >= 2 bytes");
        assert!(p.ways == 4 || p.ways == 8, "ways must be 4 or 8");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            entries: vec![0u64; (sets * p.ways) as usize].into_boxed_slice(),
            plru: vec![PlruSet::default(); sets as usize].into_boxed_slice(),
            set_mask: (sets - 1) as u64,
            block_shift: p.block.trailing_zeros(),
            tag_shift: (sets - 1).count_ones(),
            ways: p.ways,
        }
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.block_shift;
        ((line & self.set_mask) as usize, line >> self.tag_shift)
    }

    /// Fills `addr` when absent, discarding the outcome (used by the
    /// prefetchers, whose fills are not demand accesses).
    pub fn fill(&mut self, addr: u64) {
        let _ = self.access(addr);
    }

    /// Checks for presence without filling.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        let ways = self.ways as usize;
        self.entries[set_idx * ways..(set_idx + 1) * ways].contains(&((tag << 1) | 1))
    }

    /// Accesses `addr`, filling the line on a miss.
    pub fn access(&mut self, addr: u64) -> Lookup {
        let (set_idx, tag) = self.index(addr);
        let ways = self.ways;
        let base = set_idx * ways as usize;
        let set = &mut self.entries[base..base + ways as usize];
        let plru = &mut self.plru[set_idx];
        let key = (tag << 1) | 1;
        // `new` admits 4 and 8 ways only.
        if ways == 4 {
            probe_set::<4>(set, plru, key)
        } else {
            probe_set::<8>(set, plru, key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{L1D, L1I, L2, TLB1, TLB2};
    use crate::reference::LegacyCache;
    use crate::tlb::pages;

    /// Set stride of L1D: 128 sets x 64 B blocks.
    const STRIDE: u64 = 128 * 64;

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(L1D);
        assert_eq!(c.access(0x40), Lookup::Miss);
        assert_eq!(c.access(0x40), Lookup::Hit);
        assert_eq!(c.access(0x7F), Lookup::Hit, "same 64B line");
        assert_eq!(c.access(0x80), Lookup::Miss, "next line");
    }

    #[test]
    fn eviction_on_conflict() {
        let mut c = Cache::new(L1D);
        // Five lines mapping to set 0 of a 4-way set: the fifth evicts
        // one of the first four.
        for i in 0..5 {
            assert_eq!(c.access(i * STRIDE), Lookup::Miss);
        }
        // The most recently used of the four (line 3) must survive.
        assert!(c.contains(3 * STRIDE));
        assert!(!c.contains(0));
    }

    #[test]
    fn fill_makes_the_line_present() {
        let mut c = Cache::new(L1D);
        c.fill(0x100);
        assert_eq!(c.access(0x100), Lookup::Hit);
    }

    #[test]
    fn distinct_tags_same_set() {
        let mut c = Cache::new(L1D);
        c.access(0x000);
        assert!(c.contains(0x000));
        assert!(!c.contains(STRIDE), "different tag, same set");
    }

    #[test]
    fn table_i_shapes_construct() {
        let _ = Cache::new(L1I);
        let _ = Cache::new(L1D);
        let _ = Cache::new(L2);
    }

    #[test]
    fn flat_and_legacy_layouts_are_bit_exact() {
        // Random-ish address streams over Table I's five levels (the
        // TLBs as caches of 4 KiB "blocks", which puts the 8-way mask
        // probe on the tag bits a TLB sees): every lookup outcome and
        // presence answer must match the reference model.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for p in [L1I, L1D, L2, pages(TLB1), pages(TLB2)] {
            let size = p.size as u64;
            let mut flat = Cache::new(p);
            let mut legacy = LegacyCache::new(p);
            // Each line of the cache about 16 times over, drawn from 8x
            // its capacity: plenty of evictions in every set.
            for i in 0..16 * size / p.block as u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = x % (8 * size);
                match i % 5 {
                    4 => {
                        flat.fill(addr);
                        legacy.fill(addr);
                    }
                    _ => assert_eq!(flat.access(addr), legacy.access(addr), "access {i}"),
                }
                assert_eq!(flat.contains(addr), legacy.contains(addr));
                assert_eq!(flat.contains(addr ^ size), legacy.contains(addr ^ size));
            }
        }
    }
}
