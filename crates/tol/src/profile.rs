//! Runtime profiling: promotion counters, edge profiles and the
//! static/dynamic mode accounting behind the paper's Fig. 5.

use crate::pcmap::PcMap;
use darco_guest::mem::PAGE_SHIFT;

/// An execution mode: the one a step (mostly) ran in, and per static
/// guest instruction the highest one it has reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mode {
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

    /// Bias toward the majority direction, in `0.5..=1.0`, and 0.0 when
    /// empty (formation checks the count before it reads the bias).
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

/// Bytes, and so static-mode slots, per guest code page.
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;
/// A static-mode byte decoded: 0 is unseen, `mode as u8 + 1` is `mode`.
const MODES: [Mode; 3] = [Mode::Im, Mode::Bbm, Mode::Sbm];

/// The profiler: IM promotion counters, BBM edge profiles, and
/// per-static-instruction mode tracking.
#[derive(Debug, Default)]
pub struct Profiler {
    target_counts: PcMap<u32>,
    edges: PcMap<EdgeProfile>, // keyed by BB guest entry
    /// One static-mode byte per guest pc, in a table per code page
    /// keyed by page number (`pc >> PAGE_SHIFT`).
    static_pages: PcMap<Box<[u8; PAGE_BYTES]>>,
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
    /// a pc never moves back down). A run of same-page pcs looks its
    /// page up once.
    pub fn mark_static(&mut self, pcs: impl IntoIterator<Item = u32>, mode: Mode) {
        let m = mode as u8 + 1;
        let mut pcs = pcs.into_iter().peekable();
        while let Some(mut pc) = pcs.next() {
            let page = pc >> PAGE_SHIFT;
            let table = self.static_pages.entry(page).or_insert_with(|| Box::new([0; PAGE_BYTES]));
            loop {
                let b = &mut table[pc as usize & (PAGE_BYTES - 1)];
                *b = (*b).max(m);
                match pcs.next_if(|&next| next >> PAGE_SHIFT == page) {
                    Some(next) => pc = next,
                    None => break,
                }
            }
        }
    }

    /// Highest mode a static instruction has reached, if seen.
    pub fn static_mode(&self, pc: u32) -> Option<Mode> {
        let table = self.static_pages.get(&(pc >> PAGE_SHIFT))?;
        match table[pc as usize & (PAGE_BYTES - 1)] {
            0 => None,
            m => Some(MODES[m as usize - 1]),
        }
    }

    /// Counts `n` dynamic guest instructions executed in `mode`.
    pub fn count_dynamic(&mut self, mode: Mode, n: u64) {
        self.dyn_insts[mode as usize] += n;
    }

    /// Static instruction counts per final mode `[IM, BBM, SBM]`
    /// (the paper's Fig. 5a).
    pub fn static_distribution(&self) -> [u64; 3] {
        let mut out = [0; 3];
        for &m in self.static_pages.values().flat_map(|t| t.iter()) {
            if m != 0 {
                out[m as usize - 1] += 1;
            }
        }
        out
    }

    /// Heap bytes held by the static-mode page tables.
    pub fn page_bytes(&self) -> usize {
        self.static_pages.len() * PAGE_BYTES
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
        p.mark_static([0x100, 0x104], Mode::Im);
        p.mark_static([0x104], Mode::Sbm);
        p.mark_static([0x104], Mode::Im); // must not demote
        assert_eq!(p.static_distribution(), [1, 0, 1]);
    }

    #[test]
    fn empty_edge_has_zero_bias() {
        assert_eq!(EdgeProfile::default().bias(), 0.0);
    }

    /// The per-page static-mode tables against a `BTreeMap` model, after
    /// every `mark_static`: seeded random runs of pcs (some crossing a
    /// page boundary), the run `0x0FFE..0x1002`, the top page, regions
    /// that interleave two pages, and modes that try to demote a pc.
    #[test]
    fn static_pages_match_a_btreemap_model() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        use std::collections::BTreeMap;
        let mut rng = SmallRng::seed_from_u64(0x0057_471C);
        let mut p = Profiler::new();
        let mut model: BTreeMap<u32, Mode> = BTreeMap::new();
        let check = |p: &Profiler, model: &BTreeMap<u32, Mode>, pcs: &[u32]| {
            // Each pc, its neighbour and its half-page alias.
            for &pc in pcs {
                for q in [pc, pc ^ 1, pc ^ 0x800] {
                    assert_eq!(p.static_mode(q), model.get(&q).copied(), "pc {q:#x}");
                }
            }
            let mut dist = [0; 3];
            for m in model.values() {
                dist[*m as usize] += 1;
            }
            assert_eq!(p.static_distribution(), dist);
        };
        for _ in 0..600 {
            let pcs: Vec<u32> = match rng.gen_range(0..4) {
                0 => {
                    let start = rng.gen_range(0u32..0x4000);
                    let step = rng.gen_range(1u32..5);
                    (0..rng.gen_range(1u32..24)).map(|i| start + i * step).collect()
                }
                1 => (0x0FFE..0x1002).collect(),
                2 => {
                    let start = rng.gen_range(0xFFFF_F000u32..0xFFFF_FFFF);
                    (start..=0xFFFF_FFFF).step_by(rng.gen_range(1usize..300)).collect()
                }
                _ => {
                    let (a, b) = (rng.gen_range(0u32..4) << 12, rng.gen_range(4u32..8) << 12);
                    (0..rng.gen_range(1u32..12))
                        .flat_map(|i| [a + rng.gen_range(0u32..0x1000), b + 4 * i])
                        .collect()
                }
            };
            let mode = MODES[rng.gen_range(0..3)];
            p.mark_static(pcs.iter().copied(), mode);
            for &pc in &pcs {
                let e = model.entry(pc).or_insert(mode);
                *e = (*e).max(mode);
            }
            check(&p, &model, &pcs);
        }
        let all: Vec<u32> = model.keys().copied().collect();
        check(&p, &model, &all);
        assert!(model.values().any(|&m| m == Mode::Im), "some pc stays interpreted");
    }

    #[test]
    fn dynamic_counting() {
        let mut p = Profiler::new();
        p.count_dynamic(Mode::Im, 10);
        p.count_dynamic(Mode::Sbm, 90);
        assert_eq!(p.dyn_insts, [10, 0, 90]);
    }
}
