//! Branch prediction: Gshare direction predictor plus a branch target
//! buffer.
//!
//! The modeled front-end (paper Fig. 4) predicts conditional branch
//! directions with a Gshare predictor (12-bit global history register,
//! Table I) and branch targets with a BTB. The host has no return address
//! stack, so returns and indirect jumps are predicted by the BTB alone —
//! which is why indirect-branch-heavy guests hurt (Sec. III-B).

use darco_host::BranchKind;

/// Gshare + BTB predictor with statistics.
#[derive(Debug, Clone)]
pub struct Predictor {
    history: u32,
    history_mask: u32,
    pht: Vec<u8>,
    btb_tags: Vec<u64>,
    btb_targets: Vec<u64>,
    btb_mask: u64,
    branches: u64,
    mispredicts: u64,
}

impl Predictor {
    /// Builds a predictor with `history_bits` of global history and a
    /// direct-mapped BTB of `btb_entries` entries (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `btb_entries` is not a power of two or `history_bits`
    /// exceeds 20.
    pub fn new(history_bits: u32, btb_entries: u32) -> Predictor {
        assert!(btb_entries.is_power_of_two(), "BTB entries must be a power of two");
        assert!(history_bits <= 20, "history register too large");
        Predictor {
            history: 0,
            history_mask: (1 << history_bits) - 1,
            pht: vec![1; 1 << history_bits], // weakly not-taken
            btb_tags: vec![u64::MAX; btb_entries as usize],
            btb_targets: vec![0; btb_entries as usize],
            btb_mask: (btb_entries - 1) as u64,
            branches: 0,
            mispredicts: 0,
        }
    }

    /// Processes one control transfer with its actual outcome; returns
    /// `true` if the prediction was wrong (redirect needed).
    ///
    /// For conditional branches, both the direction (Gshare) and, when
    /// predicted taken, the target (BTB) must be right. Unconditional and
    /// indirect transfers need only the BTB target.
    pub fn predict_and_update(
        &mut self,
        pc: u64,
        kind: BranchKind,
        taken: bool,
        target: u64,
    ) -> bool {
        self.branches += 1;
        let mispredict = match kind {
            BranchKind::CondDirect => {
                let idx = ((pc >> 2) as u32 ^ self.history) & self.history_mask;
                let ctr = &mut self.pht[idx as usize];
                let pred_taken = *ctr >= 2;
                // Update the 2-bit counter.
                if taken {
                    *ctr = (*ctr + 1).min(3);
                } else {
                    *ctr = ctr.saturating_sub(1);
                }
                self.history = ((self.history << 1) | taken as u32) & self.history_mask;
                let dir_wrong = pred_taken != taken;
                let target_wrong = taken && self.btb_lookup_update(pc, target);
                dir_wrong || target_wrong
            }
            BranchKind::UncondDirect | BranchKind::Indirect | BranchKind::Return => {
                self.btb_lookup_update(pc, target)
            }
        };
        if mispredict {
            self.mispredicts += 1;
        }
        mispredict
    }

    /// Returns `true` if the BTB did not hold the correct target
    /// (and installs/updates the entry).
    fn btb_lookup_update(&mut self, pc: u64, target: u64) -> bool {
        let idx = ((pc >> 2) & self.btb_mask) as usize;
        let wrong = self.btb_tags[idx] != pc || self.btb_targets[idx] != target;
        self.btb_tags[idx] = pc;
        self.btb_targets[idx] = target;
        wrong
    }

    /// Control transfers observed.
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// Mispredictions observed.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Misprediction rate (0 if no branches).
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Predictor {
        Predictor::new(12, 1024)
    }

    #[test]
    fn learns_a_biased_branch() {
        let mut pred = p();
        // Always-taken branch at a fixed pc: once the global history
        // saturates (12 bits) and the counter trains, no mispredicts.
        for _ in 0..50 {
            pred.predict_and_update(0x100, BranchKind::CondDirect, true, 0x200);
        }
        let before = pred.mispredicts();
        for _ in 0..100 {
            pred.predict_and_update(0x100, BranchKind::CondDirect, true, 0x200);
        }
        assert_eq!(pred.mispredicts(), before, "steady-state biased branch");
    }

    #[test]
    fn learns_an_alternating_branch_via_history() {
        let mut pred = p();
        // Strict alternation is a history pattern Gshare captures.
        for i in 0..200 {
            pred.predict_and_update(0x300, BranchKind::CondDirect, i % 2 == 0, 0x400);
        }
        let before = pred.mispredicts();
        for i in 0..100 {
            pred.predict_and_update(0x300, BranchKind::CondDirect, i % 2 == 0, 0x400);
        }
        assert_eq!(pred.mispredicts(), before);
    }

    #[test]
    fn btb_miss_on_first_sight_then_hit() {
        let mut pred = p();
        assert!(pred.predict_and_update(0x500, BranchKind::UncondDirect, true, 0x900));
        assert!(!pred.predict_and_update(0x500, BranchKind::UncondDirect, true, 0x900));
    }

    #[test]
    fn varying_indirect_targets_keep_missing() {
        let mut pred = p();
        let mut miss = 0;
        for t in 0..50u64 {
            if pred.predict_and_update(0x600, BranchKind::Indirect, true, 0x1000 + t * 8) {
                miss += 1;
            }
        }
        assert_eq!(miss, 50, "a new target every time defeats the BTB");
        assert!((pred.mispredict_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stable_return_site_predicts() {
        let mut pred = p();
        pred.predict_and_update(0x700, BranchKind::Return, true, 0x123);
        assert!(!pred.predict_and_update(0x700, BranchKind::Return, true, 0x123));
        // A different return target mispredicts (no RAS).
        assert!(pred.predict_and_update(0x700, BranchKind::Return, true, 0x456));
    }
}
