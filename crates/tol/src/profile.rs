//! Runtime profiling: promotion counters, edge profiles and the
//! static/dynamic mode accounting behind the paper's Fig. 5.

use crate::pcmap::PcMap;

/// Highest execution mode a static guest instruction has reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StaticMode {
    /// Only ever interpreted.
    Im,
    /// Translated as part of a basic block.
    Bbm,
    /// Included in an optimized superblock.
    Sbm,
}

/// Direction counts of a basic block's terminal conditional branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeProfile {
    /// Times the branch was taken.
    pub taken: u64,
    /// Times it fell through.
    pub not_taken: u64,
}

impl EdgeProfile {
    /// Total executions.
    pub fn total(&self) -> u64 {
        self.taken + self.not_taken
    }

    /// Bias toward the majority direction, in `0.5..=1.0` (1.0 when
    /// empty, so formation treats unprofiled edges as unfollowable only
    /// via the count check).
    pub fn bias(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        self.taken.max(self.not_taken) as f64 / t as f64
    }

    /// `true` if the majority direction is *taken*.
    pub fn majority_taken(&self) -> bool {
        self.taken >= self.not_taken
    }
}

/// The profiler: IM promotion counters, BBM edge profiles, and
/// per-static-instruction mode tracking.
#[derive(Debug, Default)]
pub struct Profiler {
    target_counts: PcMap<u32>,
    edges: PcMap<EdgeProfile>, // keyed by BB guest entry
    static_modes: PcMap<StaticMode>,
    /// Dynamic guest instructions executed per mode `[IM, BBM, SBM]`.
    pub dyn_insts: [u64; 3],
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Bumps and returns the execution count of a branch target
    /// (IM-phase promotion counter).
    pub fn bump_target(&mut self, pc: u32) -> u32 {
        let c = self.target_counts.entry(pc).or_insert(0);
        *c += 1;
        *c
    }

    /// Records the direction of the terminal branch of the BB at
    /// `bb_entry` (gathered by BBM instrumentation).
    pub fn record_edge(&mut self, bb_entry: u32, taken: bool) {
        let e = self.edges.entry(bb_entry).or_default();
        if taken {
            e.taken += 1;
        } else {
            e.not_taken += 1;
        }
    }

    /// Edge profile of a BB, if any was collected.
    pub fn edge(&self, bb_entry: u32) -> Option<EdgeProfile> {
        self.edges.get(&bb_entry).copied()
    }

    /// Marks static instructions as having reached `mode` (monotonic:
    /// a pc never moves back down).
    pub fn mark_static(&mut self, pcs: impl IntoIterator<Item = u32>, mode: StaticMode) {
        for pc in pcs {
            let e = self.static_modes.entry(pc).or_insert(mode);
            if *e < mode {
                *e = mode;
            }
        }
    }

    /// Highest mode a static instruction has reached, if seen.
    pub fn static_mode(&self, pc: u32) -> Option<StaticMode> {
        self.static_modes.get(&pc).copied()
    }

    /// Counts `n` dynamic guest instructions executed in `mode`.
    pub fn count_dynamic(&mut self, mode: StaticMode, n: u64) {
        self.dyn_insts[mode as usize] += n;
    }

    /// Static instruction counts per final mode `[IM, BBM, SBM]`
    /// (the paper's Fig. 5a).
    pub fn static_distribution(&self) -> [u64; 3] {
        let mut out = [0; 3];
        for m in self.static_modes.values() {
            out[*m as usize] += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_counter() {
        let mut p = Profiler::new();
        for expect in 1..=6 {
            assert_eq!(p.bump_target(0x100), expect);
        }
        assert_eq!(p.bump_target(0x200), 1, "independent targets");
    }

    #[test]
    fn edge_bias() {
        let mut p = Profiler::new();
        for _ in 0..9 {
            p.record_edge(0x100, true);
        }
        p.record_edge(0x100, false);
        let e = p.edge(0x100).unwrap();
        assert_eq!(e.total(), 10);
        assert!((e.bias() - 0.9).abs() < 1e-12);
        assert!(e.majority_taken());
        assert_eq!(p.edge(0x999), None);
    }

    #[test]
    fn static_modes_are_monotonic() {
        let mut p = Profiler::new();
        p.mark_static([0x100, 0x104], StaticMode::Im);
        p.mark_static([0x104], StaticMode::Sbm);
        p.mark_static([0x104], StaticMode::Im); // must not demote
        assert_eq!(p.static_distribution(), [1, 0, 1]);
    }

    #[test]
    fn dynamic_counting() {
        let mut p = Profiler::new();
        p.count_dynamic(StaticMode::Im, 10);
        p.count_dynamic(StaticMode::Sbm, 90);
        assert_eq!(p.dyn_insts, [10, 0, 90]);
    }
}
