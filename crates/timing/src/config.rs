//! Host processor configuration: the paper's Table I, as constants.
//!
//! The model times one host, so its parameters are compiled in rather
//! than passed around. The checks at the end of this file run when it
//! compiles: an edit that gives Table I a shape the model cannot build
//! or would mis-simulate fails the build, not a run.

use crate::tlb::pages;

/// Parameters of one set-associative cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size: u32,
    /// Block (line) size in bytes; must be a power of two.
    pub block: u32,
    /// Associativity; 4 or 8, the ways of Table I's levels.
    pub ways: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheParams {
    /// Number of sets.
    pub const fn sets(&self) -> u32 {
        // Same quotient as `size / (block * ways)`, without the product
        // that overflows on absurd input.
        self.size / self.block / self.ways
    }
}

/// Parameters of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbParams {
    /// Number of entries.
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

/// Issue width (2 symmetric pipes).
pub const ISSUE_WIDTH: u32 = 2;
/// Instruction queue capacity.
pub const IQ_SIZE: usize = 16;
/// Gshare history register bits.
pub const BP_HISTORY_BITS: u32 = 12;
/// Branch target buffer entries (direct-mapped; the paper does not size
/// it, 1024 chosen and documented in DESIGN.md).
pub const BTB_ENTRIES: u32 = 1024;
/// Front-end depth in cycles (AC, IF, DEC).
pub const FRONTEND_DEPTH: u64 = 3;
/// L1 instruction cache.
pub const L1I: CacheParams = CacheParams { size: 32 * 1024, block: 64, ways: 4, hit_latency: 1 };
/// L1 data cache.
pub const L1D: CacheParams = CacheParams { size: 32 * 1024, block: 64, ways: 4, hit_latency: 1 };
/// Unified L2 cache.
pub const L2: CacheParams = CacheParams { size: 512 * 1024, block: 128, ways: 8, hit_latency: 16 };
/// Main memory access latency in cycles.
pub const MEM_LATENCY: u32 = 128;
/// L1 data TLB.
pub const TLB1: TlbParams = TlbParams { entries: 64, ways: 8, hit_latency: 1 };
/// L2 data TLB.
pub const TLB2: TlbParams = TlbParams { entries: 256, ways: 8, hit_latency: 16 };
/// Page-walk latency charged on a full TLB miss (not in Table I; equals
/// main-memory latency, see DESIGN.md).
pub const TLB_WALK_LATENCY: u32 = 128;
/// Stride prefetcher table entries.
pub const PREFETCHER_ENTRIES: u32 = 256;
/// Simple integer operation latency.
pub const LAT_SIMPLE_INT: u64 = 1;
/// Complex integer (mul/div/flags) latency.
pub const LAT_COMPLEX_INT: u64 = 2;
/// Simple FP (add/sub/mov/convert) latency.
pub const LAT_SIMPLE_FP: u64 = 2;
/// Complex FP (mul/div) latency.
pub const LAT_COMPLEX_FP: u64 = 5;

/// Whether [`Cache::new`](crate::Cache::new) can build `c`: the cache
/// probes and tree PLRU come in 4 and 8 ways, the index masks need
/// powers of two, the tag encoding a spare bit.
const fn buildable(c: CacheParams) -> bool {
    c.block.is_power_of_two()
        && c.block >= 2
        && (c.ways == 4 || c.ways == 8)
        && c.sets().is_power_of_two()
}

// A zero issue width makes every partial-cycle bubble `0/0` and a zero
// IQ leaves the queue without a slot; the predictor, the prefetcher and
// every cache and TLB level index with a mask.
const _: () = {
    assert!(ISSUE_WIDTH >= 1, "ISSUE_WIDTH must be at least 1");
    assert!(IQ_SIZE >= 1, "IQ_SIZE must be at least 1");
    assert!(BP_HISTORY_BITS <= 20, "BP_HISTORY_BITS must be at most 20");
    assert!(BTB_ENTRIES.is_power_of_two(), "BTB_ENTRIES must be a power of two");
    assert!(PREFETCHER_ENTRIES.is_power_of_two(), "PREFETCHER_ENTRIES must be a power of two");
    assert!(
        buildable(L1I) && buildable(L1D) && buildable(L2),
        "L1I, L1D and L2 need 4 or 8 ways and power-of-two blocks of 2+ bytes and sets"
    );
    assert!(
        buildable(pages(TLB1)) && buildable(pages(TLB2)),
        "TLB1 and TLB2 need 4 or 8 ways and power-of-two sets"
    );
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_defaults() {
        assert_eq!((ISSUE_WIDTH, IQ_SIZE, MEM_LATENCY, TLB1.entries), (2, 16, 128, 64));
        assert_eq!(L1D.sets(), 128); // 32K / (64 * 4)
        assert_eq!(L2.sets(), 512); // 512K / (128 * 8)
        assert_eq!(TLB1.entries / TLB1.ways, 8);
        // What the checks above reject, so that they are known to bite.
        assert!(!buildable(CacheParams { block: 1, ..L1D }));
        assert!(!buildable(CacheParams { ways: 3, ..L1D }));
        assert!(!buildable(CacheParams { ways: 2, ..L1D }));
        assert!(!buildable(CacheParams { size: 3 * 4096, ..L1D }));
        assert!(!buildable(pages(TlbParams { entries: 48, ..TLB1 })));
    }
}
