//! Software-layer configuration.

/// Tunable parameters of the Translation Optimization Layer.
///
/// Defaults are the paper's (Sec. III-A): promotion thresholds
/// `IM/BBth = 5` and `BB/SBth = 10_000`. Translations are always
/// chained, as in the paper (Sec. III-B); the optimization switches
/// exist for the ablation study in DESIGN.md §8.
#[derive(Debug, Clone, PartialEq)]
pub struct TolConfig {
    /// Interpreter-to-BBM promotion threshold: a branch target is
    /// translated once it has been reached this many times.
    pub im_bb_threshold: u32,
    /// BBM-to-SBM promotion threshold: a translated basic block is
    /// promoted to a superblock once it has executed this many times.
    pub bb_sb_threshold: u32,
    /// Code cache capacity in host instructions; on overflow the whole
    /// cache is flushed (cf. Hazelwood & Smith).
    pub code_cache_capacity: u32,
    /// IBTC entries (direct-mapped, power of two).
    pub ibtc_entries: u32,
    /// The optimizer as one switch (Sec. II-A-1): SBM constant propagation
    /// and folding, CSE and DCE, and the BBM peephole. Off, with
    /// `opt_schedule` off too, is the translate-only reference.
    pub optimize: bool,
    /// List scheduling for the 2-issue in-order back-end.
    pub opt_schedule: bool,
    /// Insert next-line software prefetches into superblocks (the first
    /// Sec. III-E recommendation; off by default as in the paper).
    pub opt_sw_prefetch: bool,
    /// Speculatively resolve indirect-branch exits by inline-comparing
    /// against the last observed target (Sec. III-E, cf. McFarlin &
    /// Zilles' "bungee jumps"; off by default as in the paper).
    pub speculate_indirect: bool,
    /// Scatter translations across the code cache instead of packing
    /// them sequentially — the *bad* placement policy, used to quantify
    /// the paper's code-placement recommendation (Sec. III-E).
    pub codecache_scattered: bool,
}

impl Default for TolConfig {
    fn default() -> TolConfig {
        TolConfig {
            im_bb_threshold: 5,
            bb_sb_threshold: 10_000,
            code_cache_capacity: 1 << 20,
            ibtc_entries: 512,
            optimize: true,
            opt_schedule: true,
            opt_sw_prefetch: false,
            speculate_indirect: false,
            codecache_scattered: false,
        }
    }
}

impl TolConfig {
    /// Paper defaults with every optimization disabled (translation
    /// only), for ablations and as the differential tests' reference.
    pub fn no_optimization() -> TolConfig {
        TolConfig { optimize: false, opt_schedule: false, ..TolConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_thresholds() {
        let c = TolConfig::default();
        assert_eq!(c.im_bb_threshold, 5);
        assert_eq!(c.bb_sb_threshold, 10_000);
    }

    #[test]
    fn ablation_config() {
        let c = TolConfig::no_optimization();
        assert!(!c.optimize && !c.opt_schedule);
        assert_eq!((c.im_bb_threshold, c.bb_sb_threshold), (5, 10_000), "thresholds unchanged");
    }
}
