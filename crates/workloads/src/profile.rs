//! Benchmark profile parameters.

use crate::gen::{MAX_STATIC_INSTS, MIN_MEM_FOOTPRINT};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Benchmark suite, as grouped in every figure of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Suite {
    /// SPEC CPU2006 integer.
    SpecInt,
    /// SPEC CPU2006 floating point.
    SpecFp,
    /// Physicsbench.
    Physics,
    /// Mediabench.
    Media,
}

impl Suite {
    /// All suites in the paper's presentation order.
    pub const ALL: [Suite; 4] = [Suite::SpecInt, Suite::SpecFp, Suite::Physics, Suite::Media];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Suite::SpecInt => "SPEC CPU2006 INT",
            Suite::SpecFp => "SPEC CPU2006 FP",
            Suite::Physics => "Physicsbench",
            Suite::Media => "Mediabench",
        }
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Generator parameters for one benchmark (see the crate docs for the
/// property each field reproduces).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchProfile {
    /// Benchmark name as it appears in the paper's figures.
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// Approximate static guest instructions the program executes.
    pub static_insts: u32,
    /// Dynamic guest instructions at scale 1.0.
    pub dyn_base: u64,
    /// Fraction of hot-loop operations that are floating point.
    pub fp_fraction: f64,
    /// Guest indirect branches (incl. returns) per dynamic instruction.
    pub indirect_freq: f64,
    /// Fraction of static code that becomes hot (superblock candidates).
    pub hot_fraction: f64,
    /// Fraction of static code executed a medium number of times (BBM).
    pub warm_fraction: f64,
    /// Data footprint in bytes (power of two).
    pub mem_footprint: u32,
    /// Fraction of memory accesses that stream sequentially (the rest
    /// are pseudo-random over the footprint).
    pub stream_fraction: f64,
    /// Probability that a conditional branch site is data-dependent
    /// (hard to predict) rather than strongly biased.
    pub branch_entropy: f64,
    /// Generator seed (deterministic programs).
    pub seed: u64,
}

impl BenchProfile {
    /// Dynamic instruction target at a given scale.
    pub fn dyn_target(&self, scale: f64) -> u64 {
        (self.dyn_base as f64 * scale).max(1.0) as u64
    }

    /// The paper's dynamic/static instruction ratio for this profile.
    pub fn dyn_static_ratio(&self, scale: f64) -> f64 {
        self.dyn_target(scale) as f64 / self.static_insts as f64
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        let frac = |v: f64, n: &str| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{n} out of [0,1]: {v}"))
            }
        };
        frac(self.fp_fraction, "fp_fraction")?;
        frac(self.hot_fraction, "hot_fraction")?;
        frac(self.warm_fraction, "warm_fraction")?;
        frac(self.stream_fraction, "stream_fraction")?;
        frac(self.branch_entropy, "branch_entropy")?;
        if self.hot_fraction + self.warm_fraction > 1.0 {
            return Err("hot + warm fractions exceed 1".into());
        }
        if !self.mem_footprint.is_power_of_two() {
            return Err(format!("mem_footprint not a power of two: {}", self.mem_footprint));
        }
        if self.mem_footprint < MIN_MEM_FOOTPRINT {
            return Err(format!(
                "mem_footprint below the {MIN_MEM_FOOTPRINT}-byte word the generator stores: {}",
                self.mem_footprint
            ));
        }
        if self.static_insts < 50 {
            return Err("static_insts too small".into());
        }
        if self.static_insts > MAX_STATIC_INSTS {
            return Err(format!(
                "static_insts above {MAX_STATIC_INSTS}, the most whose code is sure to end below \
                 the jump tables: {}",
                self.static_insts
            ));
        }
        if self.indirect_freq >= 0.2 {
            return Err(format!("indirect_freq implausible: {}", self.indirect_freq));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> BenchProfile {
        BenchProfile {
            name: "test".into(),
            suite: Suite::SpecInt,
            static_insts: 1000,
            dyn_base: 1_000_000,
            fp_fraction: 0.1,
            indirect_freq: 0.001,
            hot_fraction: 0.2,
            warm_fraction: 0.4,
            mem_footprint: 1 << 20,
            stream_fraction: 0.5,
            branch_entropy: 0.3,
            seed: 42,
        }
    }

    #[test]
    fn ratio_math() {
        let p = base();
        assert_eq!(p.dyn_target(1.0), 1_000_000);
        assert_eq!(p.dyn_target(0.5), 500_000);
        assert!((p.dyn_static_ratio(1.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_fields() {
        assert!(base().validate().is_ok());
        let mut p = base();
        p.fp_fraction = 1.5;
        assert!(p.validate().is_err());
        let mut p = base();
        p.hot_fraction = 0.7;
        p.warm_fraction = 0.7;
        assert!(p.validate().is_err());
        let mut p = base();
        p.mem_footprint = 1000;
        assert!(p.validate().is_err());
    }

    /// Both passed `validate` and then killed the process: the generator
    /// drew from the empty range `0..mem_footprint / 4`, and code past
    /// `TABLE_BASE` was overwritten by the loader's jump tables.
    #[test]
    fn validation_rejects_what_the_generator_cannot_lay_out() {
        for footprint in [1, 2] {
            let p = BenchProfile { mem_footprint: footprint, ..base() };
            let e = p.validate().unwrap_err();
            assert!(e.contains("mem_footprint") && e.ends_with(&footprint.to_string()), "{e}");
        }
        assert!(BenchProfile { mem_footprint: MIN_MEM_FOOTPRINT, ..base() }.validate().is_ok());

        let p = BenchProfile { static_insts: 2_500_000, ..base() };
        let e = p.validate().unwrap_err();
        assert!(e.contains("static_insts") && e.ends_with("2500000"), "{e}");
        assert!(BenchProfile { static_insts: MAX_STATIC_INSTS, ..base() }.validate().is_ok());
        assert!(BenchProfile { static_insts: MAX_STATIC_INSTS + 1, ..base() }.validate().is_err());
    }

    #[test]
    fn suite_labels() {
        assert_eq!(Suite::SpecInt.label(), "SPEC CPU2006 INT");
        assert_eq!(Suite::ALL.len(), 4);
    }
}
