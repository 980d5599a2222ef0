//! The paper's benchmark roster: SPEC CPU2006 INT/FP, Physicsbench and
//! Mediabench (48 benchmarks, Sec. II-B), with generator parameters
//! calibrated to the characteristics the paper reports or implies:
//!
//! * 400.perlbench / 403.gcc / 483.xalancbmk: large static code, high
//!   indirect-branch density (the paper quotes 22.7M indirect branches
//!   per 4B instructions for perlbench vs. 1933 for 401.bzip2);
//! * 462.libquantum: tiny static code with extreme repetition (385K
//!   dynamic/static ratio) — minimal TOL overhead;
//! * 470.lbm: high ratio, streaming FP — TOL overhead amortized away;
//! * 000.cjpeg / 001.djpeg / 433.milc: similar ~15K-instruction static
//!   footprints but very different dynamic lengths (Sec. III-B);
//! * 007.jpg2000enc: execution spread over many blocks with repetition
//!   close to the promotion threshold (many superblocks, poor payback)
//!   vs. 006.jpg2000dec concentrated in few hot blocks;
//! * 107.novis_ragdoll: low ratio, large cold fraction (interpreter
//!   heavy);
//! * SPEC FP generally: high FP fraction, streaming access, high
//!   repetition — the lowest TOL overhead of the four suites (Fig. 6).
//!
//! Dynamic lengths are scaled down from the paper's 4B-instruction runs
//! (DESIGN.md §2); the experiment drivers scale the `BB/SBth` threshold
//! correspondingly so ratio-versus-threshold relationships match.

use crate::profile::{BenchProfile, Suite};

#[allow(clippy::too_many_arguments)]
fn p(
    name: &str,
    suite: Suite,
    static_insts: u32,
    dyn_base: u64,
    fp: f64,
    indirect: f64,
    hot: f64,
    warm: f64,
    foot_log2: u32,
    stream: f64,
    entropy: f64,
    seed: u64,
) -> BenchProfile {
    BenchProfile {
        name: name.to_owned(),
        suite,
        static_insts,
        dyn_base,
        fp_fraction: fp,
        indirect_freq: indirect,
        hot_fraction: hot,
        warm_fraction: warm,
        mem_footprint: 1 << foot_log2,
        stream_fraction: stream,
        branch_entropy: entropy,
        seed,
    }
}

/// All 48 benchmarks in the paper's figure order.
pub fn all_profiles() -> Vec<BenchProfile> {
    use Suite::*;
    vec![
        // ---- SPEC CPU2006 INT ------------------------------------------
        p(
            "400.perlbench",
            SpecInt,
            32_000,
            3_000_000,
            0.02,
            0.0057,
            0.12,
            0.48,
            22,
            0.35,
            0.45,
            4001,
        ),
        p("401.bzip2", SpecInt, 9_000, 3_500_000, 0.01, 0.0004, 0.15, 0.45, 23, 0.60, 0.50, 4012),
        p("403.gcc", SpecInt, 48_000, 2_500_000, 0.01, 0.0040, 0.10, 0.50, 22, 0.40, 0.50, 4030),
        p("429.mcf", SpecInt, 3_000, 3_500_000, 0.02, 0.0008, 0.20, 0.40, 24, 0.20, 0.50, 4290),
        p("445.gobmk", SpecInt, 24_000, 2_500_000, 0.02, 0.0020, 0.12, 0.50, 21, 0.40, 0.62, 4450),
        p("458.sjeng", SpecInt, 15_000, 3_000_000, 0.01, 0.0025, 0.14, 0.50, 21, 0.40, 0.60, 4580),
        p(
            "462.libquantum",
            SpecInt,
            800,
            6_000_000,
            0.08,
            0.0003,
            0.30,
            0.35,
            22,
            0.85,
            0.20,
            4620,
        ),
        p(
            "464.h264ref",
            SpecInt,
            20_000,
            3_500_000,
            0.08,
            0.0012,
            0.15,
            0.50,
            22,
            0.60,
            0.35,
            4640,
        ),
        p(
            "471.omnetpp",
            SpecInt,
            18_000,
            2_500_000,
            0.02,
            0.0050,
            0.12,
            0.50,
            22,
            0.30,
            0.50,
            4710,
        ),
        p("473.astar", SpecInt, 5_000, 3_000_000, 0.03, 0.0010, 0.20, 0.40, 23, 0.35, 0.55, 4730),
        p(
            "483.xalancbmk",
            SpecInt,
            30_000,
            2_500_000,
            0.01,
            0.0055,
            0.10,
            0.52,
            22,
            0.30,
            0.45,
            4830,
        ),
        p("998.specrand", SpecInt, 400, 2_000_000, 0.05, 0.0003, 0.35, 0.30, 16, 0.50, 0.50, 9980),
        // ---- SPEC CPU2006 FP -------------------------------------------
        p("410.bwaves", SpecFp, 4_000, 4_500_000, 0.42, 0.0002, 0.25, 0.35, 23, 0.90, 0.15, 4100),
        p("433.milc", SpecFp, 15_000, 4_000_000, 0.38, 0.0003, 0.18, 0.42, 23, 0.85, 0.20, 4330),
        p("434.zeusmp", SpecFp, 12_000, 4_000_000, 0.40, 0.0002, 0.20, 0.40, 23, 0.85, 0.15, 4340),
        p("435.gromacs", SpecFp, 14_000, 3_500_000, 0.35, 0.0005, 0.18, 0.42, 22, 0.75, 0.25, 4350),
        p(
            "436.cactusADM",
            SpecFp,
            10_000,
            4_500_000,
            0.45,
            0.0002,
            0.22,
            0.38,
            23,
            0.90,
            0.10,
            4360,
        ),
        p("437.leslie3d", SpecFp, 9_000, 4_200_000, 0.42, 0.0002, 0.22, 0.38, 23, 0.90, 0.15, 4370),
        p("444.namd", SpecFp, 8_000, 4_000_000, 0.40, 0.0004, 0.20, 0.40, 22, 0.80, 0.20, 4440),
        p("447.dealII", SpecFp, 20_000, 3_000_000, 0.30, 0.0015, 0.15, 0.45, 22, 0.60, 0.30, 4470),
        p("450.soplex", SpecFp, 16_000, 3_000_000, 0.28, 0.0012, 0.15, 0.45, 23, 0.50, 0.35, 4500),
        p(
            "459.GemsFDTD",
            SpecFp,
            11_000,
            4_000_000,
            0.40,
            0.0030,
            0.20,
            0.40,
            23,
            0.85,
            0.20,
            4590,
        ),
        p("453.povray", SpecFp, 18_000, 3_000_000, 0.30, 0.0020, 0.14, 0.46, 21, 0.50, 0.40, 4530),
        p(
            "454.calculix",
            SpecFp,
            15_000,
            3_500_000,
            0.35,
            0.0008,
            0.18,
            0.42,
            22,
            0.70,
            0.25,
            4540,
        ),
        p("470.lbm", SpecFp, 1_500, 6_000_000, 0.45, 0.0001, 0.35, 0.30, 24, 0.95, 0.10, 4700),
        p("481.wrf", SpecFp, 22_000, 3_500_000, 0.38, 0.0006, 0.16, 0.44, 23, 0.80, 0.20, 4810),
        p("482.sphinx3", SpecFp, 10_000, 3_500_000, 0.32, 0.0008, 0.20, 0.40, 22, 0.70, 0.30, 4820),
        p("999.specrand", SpecFp, 400, 2_000_000, 0.05, 0.0003, 0.35, 0.30, 16, 0.50, 0.50, 9990),
        // ---- Physicsbench ----------------------------------------------
        p(
            "100.novis_breakable",
            Physics,
            12_000,
            2_000_000,
            0.30,
            0.0015,
            0.13,
            0.45,
            22,
            0.55,
            0.40,
            1000,
        ),
        p(
            "101.novis_continuous",
            Physics,
            11_000,
            2_200_000,
            0.32,
            0.0012,
            0.14,
            0.44,
            22,
            0.60,
            0.35,
            1010,
        ),
        p(
            "102.novis_deformable",
            Physics,
            13_000,
            2_000_000,
            0.34,
            0.0014,
            0.13,
            0.45,
            22,
            0.55,
            0.38,
            1020,
        ),
        p(
            "103.novis_everything",
            Physics,
            15_000,
            2_200_000,
            0.30,
            0.0018,
            0.12,
            0.46,
            22,
            0.50,
            0.42,
            1030,
        ),
        p(
            "104.novis_explosions",
            Physics,
            12_000,
            2_100_000,
            0.33,
            0.0013,
            0.14,
            0.44,
            22,
            0.55,
            0.40,
            1040,
        ),
        p(
            "105.novis_highspeed",
            Physics,
            10_000,
            2_300_000,
            0.35,
            0.0010,
            0.16,
            0.42,
            22,
            0.60,
            0.35,
            1050,
        ),
        p(
            "106.novis_periodic",
            Physics,
            11_000,
            2_200_000,
            0.32,
            0.0012,
            0.15,
            0.43,
            22,
            0.60,
            0.36,
            1060,
        ),
        p(
            "107.novis_ragdoll",
            Physics,
            16_000,
            900_000,
            0.28,
            0.0020,
            0.08,
            0.40,
            22,
            0.50,
            0.45,
            1070,
        ),
        // ---- Mediabench ------------------------------------------------
        p("000.cjpeg", Media, 15_000, 800_000, 0.10, 0.0010, 0.12, 0.42, 21, 0.70, 0.35, 2000),
        p("001.djpeg", Media, 15_000, 1_000_000, 0.10, 0.0010, 0.13, 0.42, 21, 0.70, 0.35, 2010),
        p("002.h263dec", Media, 9_000, 1_400_000, 0.15, 0.0012, 0.25, 0.40, 21, 0.65, 0.35, 2020),
        p("003.h263enc", Media, 11_000, 2_000_000, 0.15, 0.0010, 0.18, 0.44, 21, 0.65, 0.35, 2030),
        p("004.h264dec", Media, 14_000, 2_200_000, 0.18, 0.0012, 0.16, 0.45, 22, 0.60, 0.38, 2040),
        p("005.h264enc", Media, 18_000, 2_400_000, 0.18, 0.0012, 0.15, 0.46, 22, 0.60, 0.38, 2050),
        p(
            "006.jpg2000dec",
            Media,
            10_000,
            1_400_000,
            0.16,
            0.0010,
            0.06,
            0.48,
            21,
            0.70,
            0.30,
            2060,
        ),
        p("007.jpg2000enc", Media, 12_000, 900_000, 0.16, 0.0012, 0.30, 0.42, 21, 0.65, 0.32, 2070),
        p("008.mpeg2dec", Media, 9_000, 1_800_000, 0.15, 0.0010, 0.16, 0.44, 21, 0.70, 0.32, 2080),
        p("009.mpeg2enc", Media, 12_000, 2_200_000, 0.15, 0.0010, 0.15, 0.45, 21, 0.70, 0.33, 2090),
        p("010.mpeg4dec", Media, 12_000, 2_000_000, 0.17, 0.0011, 0.15, 0.45, 22, 0.65, 0.35, 2100),
        p("011.mpeg4enc", Media, 16_000, 2_400_000, 0.17, 0.0011, 0.14, 0.46, 22, 0.65, 0.35, 2110),
    ]
}

/// Looks up a profile by its figure name (e.g. `"400.perlbench"`).
pub fn by_name(name: &str) -> Option<BenchProfile> {
    all_profiles().into_iter().find(|p| p.name == name)
}

/// The paper's four Sec. III-D outliers, in Fig. 9/10/11 order.
pub fn outliers() -> Vec<BenchProfile> {
    ["470.lbm", "007.jpg2000enc", "107.novis_ragdoll", "400.perlbench"]
        .iter()
        .map(|n| by_name(n).expect("outlier present"))
        .collect()
}

/// A small, fast profile for tests, examples and smoke runs.
pub fn quicktest_profile() -> BenchProfile {
    p("quicktest", Suite::SpecInt, 1_200, 250_000, 0.10, 0.0015, 0.20, 0.40, 18, 0.60, 0.40, 7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_48_benchmarks() {
        let all = all_profiles();
        assert_eq!(all.len(), 48);
        let count = |s: Suite| all.iter().filter(|p| p.suite == s).count();
        assert_eq!(count(Suite::SpecInt), 12);
        assert_eq!(count(Suite::SpecFp), 16);
        assert_eq!(count(Suite::Physics), 8);
        assert_eq!(count(Suite::Media), 12);
    }

    #[test]
    fn all_profiles_validate() {
        for p in all_profiles() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
        quicktest_profile().validate().unwrap();
    }

    #[test]
    fn names_unique_and_seeds_unique() {
        let all = all_profiles();
        let mut names: Vec<_> = all.iter().map(|p| p.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 48);
        let mut seeds: Vec<_> = all.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 48);
    }

    #[test]
    fn paper_anchors_hold() {
        let perl = by_name("400.perlbench").unwrap();
        let bzip = by_name("401.bzip2").unwrap();
        assert!(perl.indirect_freq > 10.0 * bzip.indirect_freq, "perlbench ≫ bzip2 indirects");

        let libq = by_name("462.libquantum").unwrap();
        assert!(libq.dyn_static_ratio(1.0) > 5_000.0, "libquantum extreme repetition");

        // cjpeg, djpeg and milc share a footprint but not dynamic length
        // (Sec. III-B).
        let cj = by_name("000.cjpeg").unwrap();
        let mi = by_name("433.milc").unwrap();
        assert_eq!(cj.static_insts, mi.static_insts);
        assert!(mi.dyn_base > 3 * cj.dyn_base);

        // FP suite is more FP-heavy than INT on average.
        let avg = |s: Suite| {
            let v: Vec<_> = all_profiles().into_iter().filter(|p| p.suite == s).collect();
            v.iter().map(|p| p.fp_fraction).sum::<f64>() / v.len() as f64
        };
        assert!(avg(Suite::SpecFp) > 3.0 * avg(Suite::SpecInt));
    }

    #[test]
    fn outliers_are_the_papers() {
        let o = outliers();
        assert_eq!(o[0].name, "470.lbm");
        assert_eq!(o[3].name, "400.perlbench");
    }
}
