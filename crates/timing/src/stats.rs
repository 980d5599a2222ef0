//! Execution statistics: cycles, per-component instruction counts and
//! bubble attribution.
//!
//! The categories mirror the paper's figures: components are the Fig. 6/7
//! execution-time breakdown, bubble causes are the Fig. 9/11 stall
//! classes, and per-owner miss/misprediction rates feed Fig. 8.

use darco_host::{Component, Owner};
use serde::{Deserialize, Serialize};

/// Why an issue slot went unused (the paper's bubble sources, Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BubbleCause {
    /// Waiting on data from a load that missed in the L1 D-cache.
    DCacheMiss,
    /// Front-end starved by an instruction-cache miss.
    ICacheMiss,
    /// Front-end resteered after a branch misprediction.
    Branch,
    /// IQ could not issue: data dependence on an in-flight (non-missing)
    /// producer or execution-unit unavailability.
    Scheduling,
}

impl BubbleCause {
    /// All causes in Fig. 9 legend order.
    pub const ALL: [BubbleCause; 4] = [
        BubbleCause::DCacheMiss,
        BubbleCause::ICacheMiss,
        BubbleCause::Branch,
        BubbleCause::Scheduling,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            BubbleCause::DCacheMiss => "D$ miss bubbles",
            BubbleCause::ICacheMiss => "I$ miss bubbles",
            BubbleCause::Branch => "Branch bubbles",
            BubbleCause::Scheduling => "Instruction scheduling",
        }
    }

    /// Column of [`Stats::bubbles`] (the position in [`BubbleCause::ALL`]).
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// Aggregated timing results for one simulation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Stats {
    /// Total execution cycles (completion time of the last instruction).
    pub total_cycles: u64,
    /// Retired instructions per component ([`Component::index`] order).
    pub insts: [u64; 7],
    /// Bubble cycles per component per cause ([`BubbleCause::ALL`] order).
    pub bubbles: [[f64; 4]; 7],
    /// Demand L1-D accesses/misses per owner `[app, tol]`.
    pub d_accesses: [u64; 2],
    /// Demand L1-D misses per owner.
    pub d_misses: [u64; 2],
    /// L1-I line accesses per owner.
    pub i_accesses: [u64; 2],
    /// L1-I misses per owner.
    pub i_misses: [u64; 2],
    /// Control transfers per owner.
    pub branches: [u64; 2],
    /// Mispredictions per owner.
    pub mispredicts: [u64; 2],
    /// Prefetches issued.
    pub prefetches: u64,
    /// Issue width the run was configured with (for time accounting).
    pub issue_width: u32,
}

fn owner_idx(o: Owner) -> usize {
    match o {
        Owner::App => 0,
        Owner::Tol => 1,
    }
}

impl Stats {
    /// Instructions retired by a component.
    pub fn component_insts(&self, c: Component) -> u64 {
        self.insts[c.index()]
    }

    /// Total retired instructions.
    pub fn total_insts(&self) -> u64 {
        self.insts.iter().sum()
    }

    /// Instructions retired by an owner.
    pub fn owner_insts(&self, o: Owner) -> u64 {
        Component::ALL.iter().filter(|c| c.owner() == o).map(|c| self.component_insts(*c)).sum()
    }

    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.total_insts() as f64 / self.total_cycles as f64
        }
    }

    /// Bubble cycles of one cause for a component.
    pub fn component_bubbles(&self, c: Component, cause: BubbleCause) -> f64 {
        self.bubbles[c.index()][cause.index()]
    }

    /// Bubble cycles of one cause for an owner.
    pub fn owner_bubbles(&self, o: Owner, cause: BubbleCause) -> f64 {
        Component::ALL
            .iter()
            .filter(|c| c.owner() == o)
            .map(|c| self.component_bubbles(*c, cause))
            .sum()
    }

    /// All bubble cycles for an owner.
    pub fn owner_bubble_total(&self, o: Owner) -> f64 {
        BubbleCause::ALL.iter().map(|b| self.owner_bubbles(o, *b)).sum()
    }

    /// Cycles spent retiring a component's instructions (`insts / width`).
    pub fn component_inst_cycles(&self, c: Component) -> f64 {
        self.component_insts(c) as f64 / self.issue_width.max(1) as f64
    }

    /// Estimated execution time attributable to a component: its retire
    /// cycles plus the bubbles its instructions caused. This is the
    /// quantity behind the Fig. 6/7 breakdowns.
    pub fn component_time(&self, c: Component) -> f64 {
        self.component_inst_cycles(c)
            + BubbleCause::ALL.iter().map(|b| self.component_bubbles(c, *b)).sum::<f64>()
    }

    /// Total attributed time (≈ `total_cycles`).
    pub fn attributed_time(&self) -> f64 {
        Component::ALL.iter().map(|c| self.component_time(*c)).sum()
    }

    /// Fraction of attributed time spent in a component.
    pub fn component_share(&self, c: Component) -> f64 {
        let t = self.attributed_time();
        if t == 0.0 {
            0.0
        } else {
            self.component_time(c) / t
        }
    }

    /// Fraction of attributed time that is software-layer overhead
    /// (everything but `AppCode` — interpretation counts as overhead, as
    /// in the paper, Sec. III-B).
    pub fn tol_overhead_share(&self) -> f64 {
        1.0 - self.component_share(Component::AppCode)
    }

    /// L1-D miss rate per owner.
    pub fn d_miss_rate(&self, o: Owner) -> f64 {
        let i = owner_idx(o);
        if self.d_accesses[i] == 0 {
            0.0
        } else {
            self.d_misses[i] as f64 / self.d_accesses[i] as f64
        }
    }

    /// L1-I miss rate per owner.
    pub fn i_miss_rate(&self, o: Owner) -> f64 {
        let i = owner_idx(o);
        if self.i_accesses[i] == 0 {
            0.0
        } else {
            self.i_misses[i] as f64 / self.i_accesses[i] as f64
        }
    }

    /// Branch misprediction rate per owner.
    pub fn mispredict_rate(&self, o: Owner) -> f64 {
        let i = owner_idx(o);
        if self.branches[i] == 0 {
            0.0
        } else {
            self.mispredicts[i] as f64 / self.branches[i] as f64
        }
    }

    pub(crate) fn record_branch(&mut self, o: Owner, mispredicted: bool) {
        let i = owner_idx(o);
        self.branches[i] += 1;
        if mispredicted {
            self.mispredicts[i] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_roundtrip() {
        let mut s = Stats { issue_width: 2, ..Stats::default() };
        s.insts[Component::AppCode.index()] = 2;
        s.insts[Component::TolLookup.index()] = 1;
        s.bubbles[Component::TolLookup.index()][BubbleCause::DCacheMiss.index()] = 3.0;
        s.total_cycles = 5;

        assert_eq!(s.total_insts(), 3);
        assert_eq!(s.owner_insts(Owner::App), 2);
        assert_eq!(s.owner_insts(Owner::Tol), 1);
        assert_eq!(s.component_inst_cycles(Component::AppCode), 1.0);
        assert_eq!(s.component_time(Component::TolLookup), 0.5 + 3.0);
        assert!(s.tol_overhead_share() > 0.7);
        assert_eq!(s.owner_bubbles(Owner::Tol, BubbleCause::DCacheMiss), 3.0);
        assert_eq!(s.owner_bubble_total(Owner::App), 0.0);
    }

    #[test]
    fn rates_guard_division_by_zero() {
        let s = Stats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.d_miss_rate(Owner::App), 0.0);
        assert_eq!(s.mispredict_rate(Owner::Tol), 0.0);
        assert_eq!(s.component_share(Component::AppCode), 0.0);
    }

    #[test]
    fn branch_recording() {
        let mut s = Stats::default();
        s.record_branch(Owner::App, true);
        s.record_branch(Owner::App, false);
        assert_eq!(s.branches[0], 2);
        assert_eq!(s.mispredicts[0], 1);
        assert!((s.mispredict_rate(Owner::App) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn labels() {
        assert_eq!(BubbleCause::DCacheMiss.label(), "D$ miss bubbles");
        assert_eq!(BubbleCause::ALL.len(), 4);
        for (i, b) in BubbleCause::ALL.iter().enumerate() {
            assert_eq!(b.index(), i, "{b:?} index out of sync with ALL");
        }
    }
}
