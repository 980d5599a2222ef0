//! Host processor configuration (the paper's Table I).

use std::fmt;

/// Parameters of one set-associative cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size: u32,
    /// Block (line) size in bytes; must be a power of two.
    pub block: u32,
    /// Associativity; must be a power of two for tree PLRU.
    pub ways: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheParams {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
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

/// Full host configuration; [`TimingConfig::default`] reproduces Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingConfig {
    /// Issue width (2 symmetric pipes in the paper).
    pub issue_width: u32,
    /// Instruction queue capacity.
    pub iq_size: u32,
    /// Gshare history register bits.
    pub bp_history_bits: u32,
    /// Branch target buffer entries (direct-mapped; the paper does not
    /// size it, 1024 chosen and documented in DESIGN.md).
    pub btb_entries: u32,
    /// Front-end depth in cycles (AC, IF, DEC).
    pub frontend_depth: u32,
    /// L1 instruction cache.
    pub l1i: CacheParams,
    /// L1 data cache.
    pub l1d: CacheParams,
    /// Unified L2 cache.
    pub l2: CacheParams,
    /// Main memory access latency in cycles.
    pub mem_latency: u32,
    /// L1 data TLB.
    pub tlb1: TlbParams,
    /// L2 data TLB.
    pub tlb2: TlbParams,
    /// Page-walk latency charged on a full TLB miss (not in Table I;
    /// equals main-memory latency, see DESIGN.md).
    pub tlb_walk_latency: u32,
    /// Stride prefetcher table entries (0 disables prefetching).
    pub prefetcher_entries: u32,
    /// Simple integer operation latency.
    pub lat_simple_int: u32,
    /// Complex integer (mul/div/flags) latency.
    pub lat_complex_int: u32,
    /// Simple FP (add/sub/mov/convert) latency.
    pub lat_simple_fp: u32,
    /// Complex FP (mul/div) latency.
    pub lat_complex_fp: u32,
}

impl Default for TimingConfig {
    fn default() -> TimingConfig {
        TimingConfig {
            issue_width: 2,
            iq_size: 16,
            bp_history_bits: 12,
            btb_entries: 1024,
            frontend_depth: 3,
            l1i: CacheParams { size: 32 * 1024, block: 64, ways: 4, hit_latency: 1 },
            l1d: CacheParams { size: 32 * 1024, block: 64, ways: 4, hit_latency: 1 },
            l2: CacheParams { size: 512 * 1024, block: 128, ways: 8, hit_latency: 16 },
            mem_latency: 128,
            tlb1: TlbParams { entries: 64, ways: 8, hit_latency: 1 },
            tlb2: TlbParams { entries: 256, ways: 8, hit_latency: 16 },
            tlb_walk_latency: 128,
            prefetcher_entries: 256,
            lat_simple_int: 1,
            lat_complex_int: 2,
            lat_simple_fp: 2,
            lat_complex_fp: 5,
        }
    }
}

/// Why a [`TimingConfig`] describes a machine the model cannot simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfigError {
    /// The offending field, or the quantity derived from it (`"l2 sets"`).
    pub field: &'static str,
    /// The condition it violates.
    pub must_be: &'static str,
}

impl fmt::Display for TimingConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} must be {}", self.field, self.must_be)
    }
}

impl std::error::Error for TimingConfigError {}

fn require(ok: bool, field: &'static str, must_be: &'static str) -> Result<(), TimingConfigError> {
    if ok {
        Ok(())
    } else {
        Err(TimingConfigError { field, must_be })
    }
}

fn power_of_two(v: u32, field: &'static str) -> Result<(), TimingConfigError> {
    require(v.is_power_of_two(), field, "a power of two")
}

impl TimingConfig {
    /// Rejects shapes the model would mis-simulate (a zero issue width
    /// makes every partial-cycle bubble `0/0`) or cannot build (tree
    /// PLRU and the index masks need powers of two): everything
    /// [`Pipeline::new`](crate::Pipeline::new) relies on.
    pub fn validate(&self) -> Result<(), TimingConfigError> {
        require(self.issue_width >= 1, "issue_width", "at least 1")?;
        require(self.iq_size >= 1, "iq_size", "at least 1")?;
        require(self.bp_history_bits <= 20, "bp_history_bits", "at most 20")?;
        power_of_two(self.btb_entries, "btb_entries")?;
        if self.prefetcher_entries != 0 {
            power_of_two(self.prefetcher_entries, "prefetcher_entries")?;
        }
        for (c, [block, ways, sets]) in [
            (self.l1i, ["l1i.block", "l1i.ways", "l1i sets"]),
            (self.l1d, ["l1d.block", "l1d.ways", "l1d sets"]),
            (self.l2, ["l2.block", "l2.ways", "l2 sets"]),
        ] {
            power_of_two(c.block, block)?;
            require(c.block >= 2, block, "at least 2 bytes")?;
            power_of_two(c.ways, ways)?;
            power_of_two(c.sets(), sets)?;
        }
        for (t, [ways, sets]) in
            [(self.tlb1, ["tlb1.ways", "tlb1 sets"]), (self.tlb2, ["tlb2.ways", "tlb2 sets"])]
        {
            power_of_two(t.ways, ways)?;
            power_of_two(t.entries / t.ways, sets)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_defaults() {
        let c = TimingConfig::default();
        assert_eq!(c.issue_width, 2);
        assert_eq!(c.iq_size, 16);
        assert_eq!(c.l1d.sets(), 128); // 32K / (64 * 4)
        assert_eq!(c.l2.sets(), 512); // 512K / (128 * 8)
        assert_eq!(c.mem_latency, 128);
        assert_eq!(c.tlb1.entries, 64);
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        let d = TimingConfig::default();
        assert_eq!(d.validate(), Ok(()));
        let field = |c: TimingConfig| c.validate().expect_err("must be rejected").field;
        assert_eq!(field(TimingConfig { issue_width: 0, ..d.clone() }), "issue_width");
        assert_eq!(field(TimingConfig { iq_size: 0, ..d.clone() }), "iq_size");
        assert_eq!(field(TimingConfig { bp_history_bits: 21, ..d.clone() }), "bp_history_bits");
        assert_eq!(field(TimingConfig { btb_entries: 1000, ..d.clone() }), "btb_entries");
        assert_eq!(
            field(TimingConfig { prefetcher_entries: 3, ..d.clone() }),
            "prefetcher_entries"
        );
        assert_eq!(TimingConfig { prefetcher_entries: 0, ..d.clone() }.validate(), Ok(()));
        let l1d = |f: fn(&mut CacheParams)| {
            let mut c = TimingConfig::default();
            f(&mut c.l1d);
            field(c)
        };
        assert_eq!(l1d(|p| p.block = 0), "l1d.block");
        assert_eq!(l1d(|p| p.block = 1), "l1d.block");
        assert_eq!(l1d(|p| p.ways = 3), "l1d.ways");
        assert_eq!(l1d(|p| p.size = 3 * 4096), "l1d sets");
        let mut c = d.clone();
        c.tlb2.ways = 0;
        assert_eq!(field(c), "tlb2.ways");
        let mut c = d;
        c.tlb1.entries = 48;
        let e = c.validate().expect_err("6 sets");
        assert_eq!(e.to_string(), "tlb1 sets must be a power of two");
    }
}
