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
//! entirely while keeping counters identical to the probed path (a unit
//! test holds it to a TLB that probes every time).

use crate::cache::{Cache, Lookup};
use crate::config::{CacheParams, TlbParams};

const PAGE_SHIFT: u32 = 12;

/// Sentinel for "no previous page": real page numbers are at most
/// 2^52 - 1 (addresses are 64-bit, pages 4 KiB).
const NO_PAGE: u64 = u64::MAX;

/// Latency outcome of a TLB access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// Hit in the first level.
    L1Hit,
    /// Miss in L1, hit in L2.
    L2Hit,
    /// Missed both levels; a page walk was performed.
    Walk,
}

/// Two-level data TLB (Table I: 64-entry/8-way L1, 256-entry/8-way L2,
/// both PLRU).
#[derive(Debug, Clone)]
pub struct Tlb {
    l1: Cache,
    l2: Cache,
    l1_latency: u32,
    l2_latency: u32,
    walk_latency: u32,
    /// Page number of the previous access ([`NO_PAGE`] if none).
    last_page: u64,
}

impl Tlb {
    /// Builds the TLB from the two level parameters and walk latency.
    pub fn new(l1: TlbParams, l2: TlbParams, walk_latency: u32) -> Tlb {
        // Reuse the cache structure at page granularity: "block" = page.
        let mk = |p: TlbParams| {
            Cache::new(CacheParams {
                size: p.entries * (1 << PAGE_SHIFT), // entries * page size
                block: 1 << PAGE_SHIFT,
                ways: p.ways,
                hit_latency: p.hit_latency,
            })
        };
        Tlb {
            l1: mk(l1),
            l2: mk(l2),
            l1_latency: l1.hit_latency,
            l2_latency: l2.hit_latency,
            walk_latency,
            last_page: NO_PAGE,
        }
    }

    /// Translates the page of `addr`, updating both levels.
    #[inline]
    pub fn access(&mut self, addr: u64) -> (TlbOutcome, u32) {
        let page = addr >> PAGE_SHIFT;
        if page == self.last_page {
            // The previous access left this page resident and MRU in L1:
            // a probe would hit and its PLRU touch would be a no-op.
            self.l1.count_hit();
            return (TlbOutcome::L1Hit, self.l1_latency);
        }
        self.last_page = page;
        if self.l1.access(addr) == Lookup::Hit {
            return (TlbOutcome::L1Hit, self.l1_latency);
        }
        if self.l2.access(addr) == Lookup::Hit {
            return (TlbOutcome::L2Hit, self.l2_latency);
        }
        (TlbOutcome::Walk, self.walk_latency)
    }

    /// L1 TLB miss rate.
    pub fn l1_miss_rate(&self) -> f64 {
        self.l1.miss_rate()
    }

    /// Number of page walks performed.
    pub fn walks(&self) -> u64 {
        self.l2.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimingConfig;

    fn tlb() -> Tlb {
        let c = TimingConfig::default();
        Tlb::new(c.tlb1, c.tlb2, c.tlb_walk_latency)
    }

    #[test]
    fn first_touch_walks_then_hits() {
        let mut t = tlb();
        let (o, lat) = t.access(0x1234);
        assert_eq!(o, TlbOutcome::Walk);
        assert_eq!(lat, 128);
        let (o, lat) = t.access(0x1FFF); // same 4K page
        assert_eq!(o, TlbOutcome::L1Hit);
        assert_eq!(lat, 1);
        let (o, _) = t.access(0x2000); // next page
        assert_eq!(o, TlbOutcome::Walk);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut t = tlb();
        // Touch 65 distinct pages mapping across the 8 sets of L1
        // (64 entries); then re-touch the first. It may have been evicted
        // from L1 but must hit L2 (256 entries).
        for p in 0..65u64 {
            t.access(p << 12);
        }
        let (o, _) = t.access(0);
        assert_ne!(o, TlbOutcome::Walk, "L2 TLB must retain the page");
        assert_eq!(t.walks(), 65);
    }

    #[test]
    fn shortcut_matches_full_probe() {
        let c = TimingConfig::default();
        let mut fast = Tlb::new(c.tlb1, c.tlb2, c.tlb_walk_latency);
        let mut slow = crate::reference::FullProbeTlb::new(c.tlb1, c.tlb2, c.tlb_walk_latency);
        // A stream with heavy same-page repetition plus set-conflicting
        // strides: outcomes, latencies and counters must match.
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
        assert_eq!(fast.walks(), slow.walks());
        assert!((fast.l1_miss_rate() - slow.l1_miss_rate()).abs() < 1e-15);
    }
}
