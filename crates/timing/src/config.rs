//! Host processor configuration (the paper's Table I).

use serde::{Deserialize, Serialize};

/// Parameters of one set-associative cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
        self.size / (self.block * self.ways)
    }
}

/// Parameters of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbParams {
    /// Number of entries.
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

/// Whether the software layer and the application share
/// microarchitectural state (caches, TLB, predictor, prefetcher).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Interaction {
    /// One set of structures, contended by both entities — the machine's
    /// real behavior and the paper's "w/" configuration.
    #[default]
    Shared,
    /// Private structures per entity — the counterfactual "w/o"
    /// configuration of Fig. 10 used to quantify interaction.
    Isolated,
}

/// Full host configuration; [`TimingConfig::default`] reproduces Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Branch misprediction penalty in cycles (detected in EXE).
    pub mispredict_penalty: u32,
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
    /// Resource sharing between TOL and the application.
    pub interaction: Interaction,
    /// Use the flattened (struct-of-arrays) cache/TLB tag layout: one
    /// contiguous entry array per structure with the validity bit folded
    /// into the tag word, plus monomorphized probe loops for the common
    /// associativities. `false` keeps the original per-set
    /// `Vec<u64>`+`Vec<bool>` layout as a bit-exact oracle (same PLRU,
    /// same victims, same counters) — simulator-speed only.
    pub flat_mem: bool,
    /// Enable the last-line/last-page hit shortcuts in
    /// [`MemSystem`](crate::MemSystem) and [`Tlb`](crate::Tlb): a demand
    /// access to the same L1-D line (or TLB page) as the immediately
    /// preceding one skips the tag probes, exploiting PLRU touch
    /// idempotence. `false` keeps the full-probe oracle. Bit-exact
    /// either way — simulator-speed only.
    pub mem_shortcuts: bool,
}

impl Default for TimingConfig {
    fn default() -> TimingConfig {
        TimingConfig {
            issue_width: 2,
            iq_size: 16,
            bp_history_bits: 12,
            btb_entries: 1024,
            mispredict_penalty: 6,
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
            interaction: Interaction::Shared,
            flat_mem: true,
            mem_shortcuts: true,
        }
    }
}

impl TimingConfig {
    /// Table I configuration with isolated (non-interacting) resources.
    pub fn isolated() -> TimingConfig {
        TimingConfig { interaction: Interaction::Isolated, ..TimingConfig::default() }
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
        assert_eq!(c.mispredict_penalty, 6);
        assert_eq!(c.mem_latency, 128);
        assert_eq!(c.tlb1.entries, 64);
        assert_eq!(c.interaction, Interaction::Shared);
    }

    #[test]
    fn isolated_flips_only_interaction() {
        let c = TimingConfig::isolated();
        assert_eq!(c.interaction, Interaction::Isolated);
        assert_eq!(c.l1d, TimingConfig::default().l1d);
    }

    #[test]
    fn fast_paths_default_on() {
        let c = TimingConfig::default();
        assert!(c.flat_mem, "flat layout is the shipping default");
        assert!(c.mem_shortcuts, "hit shortcuts are the shipping default");
    }
}
