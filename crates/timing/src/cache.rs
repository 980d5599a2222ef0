//! Set-associative cache with tree-PLRU replacement.
//!
//! One structure serves the L1-I, L1-D and unified L2 of Table I; the
//! TLBs reuse it at page granularity via [`crate::tlb`].
//!
//! Tags live in one contiguous set-major entry array for the whole
//! cache, each entry `(tag << 1) | 1` with `0` meaning invalid — a probe
//! touches a single short run of one allocation, and the common 2/4/8-way
//! shapes get a monomorphized, branch-free scan (`probe_set::<W>`: a hit
//! mask and a free mask over all `W` entries, `trailing_zeros` of each)
//! feeding the table-driven PLRU of [`crate::plru`].
//!
//! Presence checks (`contains`) and the run-time-associativity demand
//! probe (`probe_set_any`) share the early-exit way scan `find_way`; the
//! mask scan picks the same ways (lowest matching index first). The
//! per-set layout this one replaced lives on as a model in the test-only
//! `reference` module, and `flat_and_legacy_layouts_are_bit_exact` holds
//! every lookup and presence answer to it. The cache keeps no counters:
//! its callers count what their reports read from [`Lookup`].

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

/// Position of `key` in a set's entry run, if present (an invalid way
/// is found the same way, with `key = 0`).
#[inline(always)]
fn find_way(set: &[u64], key: u64) -> Option<usize> {
    set.iter().position(|&e| e == key)
}

/// Probe-and-fill over one flat set with compile-time associativity:
/// the slice length is pinned to `W`, so the scan unrolls into straight
/// compares. Bit `w` of `hit`/`free` is way `w`, so `trailing_zeros`
/// picks the way the early-exit scans of [`probe_set_any`] would.
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

/// Probe-and-fill over one flat set, associativity known at runtime.
#[inline(always)]
fn probe_set_any(set: &mut [u64], plru: &mut PlruSet, key: u64, ways: u32) -> Lookup {
    if let Some(w) = find_way(set, key) {
        plru.touch(w as u32, ways);
        return Lookup::Hit;
    }
    // Prefer an invalid way (entry 0), else the PLRU victim.
    let victim = find_way(set, 0).unwrap_or_else(|| plru.victim(ways) as usize);
    set[victim] = key;
    plru.touch(victim as u32, ways);
    Lookup::Miss
}

impl Cache {
    /// Builds a cache from its parameters.
    ///
    /// # Panics
    ///
    /// Panics if block size, way count or set count is not a power of
    /// two, or the block is smaller than 2 bytes (the tag encoding
    /// needs one spare bit).
    pub fn new(p: CacheParams) -> Cache {
        let sets = p.sets();
        assert!(p.block.is_power_of_two(), "block size must be a power of two");
        assert!(p.block >= 2, "tag encoding needs block >= 2 bytes");
        assert!(p.ways.is_power_of_two(), "ways must be a power of two");
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
        find_way(&self.entries[set_idx * ways..(set_idx + 1) * ways], (tag << 1) | 1).is_some()
    }

    /// Accesses `addr`, filling the line on a miss.
    pub fn access(&mut self, addr: u64) -> Lookup {
        let (set_idx, tag) = self.index(addr);
        let ways = self.ways;
        let base = set_idx * ways as usize;
        let set = &mut self.entries[base..base + ways as usize];
        let plru = &mut self.plru[set_idx];
        let key = (tag << 1) | 1;
        match ways {
            2 => probe_set::<2>(set, plru, key),
            4 => probe_set::<4>(set, plru, key),
            8 => probe_set::<8>(set, plru, key),
            _ => probe_set_any(set, plru, key, ways),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::LegacyCache;

    fn small() -> Cache {
        // 4 sets x 2 ways x 16B blocks = 128 B.
        Cache::new(CacheParams { size: 128, block: 16, ways: 2, hit_latency: 1 })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert_eq!(c.access(0x40), Lookup::Miss);
        assert_eq!(c.access(0x40), Lookup::Hit);
        assert_eq!(c.access(0x4F), Lookup::Hit, "same 16B line");
        assert_eq!(c.access(0x50), Lookup::Miss, "next line");
    }

    #[test]
    fn eviction_on_conflict() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = sets*block = 64).
        assert_eq!(c.access(0x000), Lookup::Miss);
        assert_eq!(c.access(0x040), Lookup::Miss);
        assert_eq!(c.access(0x080), Lookup::Miss); // evicts one of the two
                                                   // The most recently used (0x040) must survive.
        assert!(c.contains(0x040));
        assert!(!c.contains(0x000));
    }

    #[test]
    fn fill_makes_the_line_present() {
        let mut c = small();
        c.fill(0x100);
        assert_eq!(c.access(0x100), Lookup::Hit);
    }

    #[test]
    fn distinct_tags_same_set() {
        let mut c = small();
        c.access(0x000);
        assert!(c.contains(0x000));
        assert!(!c.contains(0x040), "different tag, same set");
    }

    #[test]
    fn table_i_shapes_construct() {
        use crate::config::{L1D, L1I, L2};
        let _ = Cache::new(L1I);
        let _ = Cache::new(L1D);
        let _ = Cache::new(L2);
    }

    #[test]
    fn flat_and_legacy_layouts_are_bit_exact() {
        // Random-ish address streams over several shapes, including the
        // odd 1-way case: every lookup outcome and presence answer must
        // match the reference model.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        // The last shape is the L1 TLB's (64 pages, 8-way): 8 sets of
        // 4 KiB "blocks" put the 8-way mask probe on the tag bits a TLB
        // sees.
        for &(size, block, ways) in &[
            (128u32, 16u32, 2u32),
            (1024, 32, 4),
            (4096, 64, 8),
            (256, 16, 1),
            (64 * 4096, 4096, 8),
        ] {
            let p = CacheParams { size, block, ways, hit_latency: 1 };
            let mut flat = Cache::new(p);
            let mut legacy = LegacyCache::new(p);
            for i in 0..4000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = x % (8 * size as u64); // 8x capacity: plenty of evictions
                match i % 5 {
                    4 => {
                        flat.fill(addr);
                        legacy.fill(addr);
                    }
                    _ => assert_eq!(flat.access(addr), legacy.access(addr), "access {i}"),
                }
                assert_eq!(flat.contains(addr), legacy.contains(addr));
                assert_eq!(
                    flat.contains(addr ^ (size as u64)),
                    legacy.contains(addr ^ (size as u64))
                );
            }
        }
    }
}
