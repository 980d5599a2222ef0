//! Two-level data TLB.
//!
//! The modeled host has a TLB only for data: the software layer works
//! with physical addresses, so instruction fetch needs no translation
//! (paper Sec. II-A-2). Pages are 4 KiB. A miss in both levels charges
//! the page-walk latency.
//!
//! Consecutive accesses to the same page are extremely common (any walk
//! over a data structure, any run of stack traffic), and after *any*
//! access the page is resident and most-recently-used in L1 — a repeat
//! access must hit, and re-touching the MRU way of a tree PLRU is a
//! no-op. The last-page shortcut exploits this to skip the tag probe
//! entirely (a unit test holds it to a TLB that probes every time).

use crate::cache::{Cache, Lookup};
use crate::config::{CacheParams, TlbParams, TLB1, TLB2, TLB_WALK_LATENCY};

const PAGE_SHIFT: u32 = 12;

/// Sentinel for "no previous page": real page numbers are at most
/// 2^52 - 1 (addresses are 64-bit, pages 4 KiB).
const NO_PAGE: u64 = u64::MAX;

/// Two-level data TLB (Table I: 64-entry/8-way L1, 256-entry/8-way L2,
/// both PLRU).
#[derive(Debug, Clone)]
pub struct Tlb {
    l1: Cache,
    l2: Cache,
    /// Page number of the previous access ([`NO_PAGE`] if none).
    last_page: u64,
}

impl Tlb {
    /// Builds Table I's TLB: levels [`TLB1`] and [`TLB2`], and a walk
    /// of [`TLB_WALK_LATENCY`] cycles.
    pub fn new() -> Tlb {
        Tlb { l1: Cache::new(pages(TLB1)), l2: Cache::new(pages(TLB2)), last_page: NO_PAGE }
    }

    /// Translates the page of `addr`, updating both levels, and returns
    /// the latency: [`TLB1`]'s or [`TLB2`]'s hit latency for the level
    /// that hit, else [`TLB_WALK_LATENCY`].
    #[inline]
    pub fn access(&mut self, addr: u64) -> u32 {
        let page = addr >> PAGE_SHIFT;
        if page == self.last_page {
            // The previous access left this page resident and MRU in L1:
            // a probe would hit and its PLRU touch would be a no-op.
            return TLB1.hit_latency;
        }
        self.last_page = page;
        if self.l1.access(addr) == Lookup::Hit {
            return TLB1.hit_latency;
        }
        if self.l2.access(addr) == Lookup::Hit {
            return TLB2.hit_latency;
        }
        TLB_WALK_LATENCY
    }
}

impl Default for Tlb {
    fn default() -> Tlb {
        Tlb::new()
    }
}

/// A TLB level as a cache of page-sized blocks, the shape
/// [`Tlb::new`] builds it in.
pub const fn pages(t: TlbParams) -> CacheParams {
    CacheParams {
        size: t.entries << PAGE_SHIFT,
        block: 1 << PAGE_SHIFT,
        ways: t.ways,
        hit_latency: t.hit_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests tell the levels apart by latency alone.
    const _: () =
        assert!(TLB1.hit_latency < TLB2.hit_latency && TLB2.hit_latency < TLB_WALK_LATENCY);

    #[test]
    fn first_touch_walks_then_hits() {
        let mut t = Tlb::new();
        assert_eq!(t.access(0x1234), TLB_WALK_LATENCY);
        assert_eq!(t.access(0x1FFF), TLB1.hit_latency); // same 4K page
        assert_eq!(t.access(0x2000), TLB_WALK_LATENCY); // next page
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut t = Tlb::new();
        // Touch 65 distinct pages; the 65th maps to page 0's L1 set (8
        // sets of 8 ways), whose nine pages cannot all stay in L1. Page 0
        // is that set's PLRU victim, so re-touching it must hit L2 (256
        // entries).
        let walks = (0..65u64).filter(|p| t.access(p << 12) == TLB_WALK_LATENCY).count();
        assert_eq!(walks, 65);
        assert_eq!(t.access(0), TLB2.hit_latency, "L2 TLB must retain the page");
    }

    #[test]
    fn shortcut_matches_full_probe() {
        let mut fast = Tlb::new();
        let mut slow = crate::reference::FullProbeTlb::new();
        // A stream with heavy same-page repetition plus set-conflicting
        // strides: the latencies must match.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..20_000u64 {
            let addr = if i % 3 != 0 {
                x & 0xFFFF_F000 | (i & 0xFFF) // repeat recent page
            } else {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % (1 << 24)
            };
            assert_eq!(fast.access(addr), slow.access(addr), "access {i}");
        }
    }
}
