//! The translator's output, pinned by digest.
//!
//! Compiled host code is a pure function of `(guest region, TolConfig)`,
//! and a change to the translator, the passes or the allocators must not
//! move a single instruction unless it says so. `figures all | cmp`
//! notices a moved instruction too, but only through a 12 s release run
//! of every figure; this test notices in seconds, in debug and release.
//!
//! Each case runs [`Tol`] alone (no timing, no co-simulation) over a
//! generated workload and hashes, in guest-entry order, every resident
//! translation's `insts`, `body_len` and `stub_guest_counts` into `code`,
//! and `RunSummary::pass_deltas` into `deltas`. The two are separate so
//! that a change to the pass accounting (a pass or a column added or
//! removed) cannot hide a moved instruction: `code` must only ever change
//! together with an explanation of which instruction moved and why
//! (it has not since the constants were taken, before the dense-dataflow
//! rewrite of the compile path). `deltas` moved twice in the fourth
//! switch audit (DESIGN.md §15): the two IR-analysis passes' rows left
//! with the passes, then two columns of every row left the schema.

use darco::core::SystemConfig;
use darco::host::NullSink;
use darco::tol::codecache::BlockKind;
use darco::tol::{Tol, TolConfig};
use darco::workloads::{generate, suites, BenchProfile, Suite};

/// FNV-1a, 64 bit: stable across Rust releases, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What one run translated: the digest plus enough shape to show the
/// case exercises both translators.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Golden {
    code: u64,
    deltas: u64,
    bbs: usize,
    sbs: usize,
    host_insts: usize,
}

/// The benchmark's `startup_churn` profile at a tenth of its size:
/// many kernels that each leave BBM for SBM shortly before they finish.
fn churn_profile() -> BenchProfile {
    BenchProfile {
        name: "startup_churn_small".into(),
        suite: Suite::SpecInt,
        static_insts: 4_000,
        dyn_base: 180_000,
        fp_fraction: 0.02,
        indirect_freq: 0.005,
        hot_fraction: 0.45,
        warm_fraction: 0.10,
        mem_footprint: 1 << 22,
        stream_fraction: 0.40,
        branch_entropy: 0.50,
        seed: 1,
    }
}

fn golden(profile: &BenchProfile, scale: f64, cfg: TolConfig) -> Golden {
    let w = generate(profile, scale);
    let mut mem = w.mem.clone();
    let mut tol = Tol::new(cfg, w.entry);
    tol.set_state(&w.initial);
    tol.run(&mut mem, &mut NullSink, u64::MAX).expect("generated workloads decode");
    assert!(tol.is_done(), "{}: guest must halt", profile.name);

    let mut blocks: Vec<_> = tol.cc.blocks().map(|(id, b)| (b.guest_entry, id.idx, b)).collect();
    blocks.sort_by_key(|&(entry, idx, b)| (entry, b.kind == BlockKind::Sb, idx));
    let mut h = Fnv::new();
    let mut out = Golden { code: 0, deltas: 0, bbs: 0, sbs: 0, host_insts: 0 };
    for (entry, _, b) in blocks {
        match b.kind {
            BlockKind::Bb => out.bbs += 1,
            BlockKind::Sb => out.sbs += 1,
        }
        out.host_insts += b.insts.len();
        h.write(
            format!(
                "{entry:#x} {:?} body {} stubs {:?}\n{:?}\n",
                b.kind, b.body_len, b.stub_guest_counts, b.insts
            )
            .as_bytes(),
        );
    }
    out.code = h.0;
    let mut h = Fnv::new();
    h.write(format!("{:?}", tol.summary().pass_deltas).as_bytes());
    out.deltas = h.0;
    out
}

/// The three configurations whose compile paths differ: the default
/// pipeline, the default plus the inserting pass, and translation only
/// (`bbm_allocate` on both translators).
fn configs() -> [(&'static str, TolConfig); 3] {
    let base = SystemConfig::default().tol;
    [
        ("default", base.clone()),
        ("sw_prefetch", TolConfig { opt_sw_prefetch: true, ..base.clone() }),
        (
            "no_optimization",
            TolConfig { bb_sb_threshold: base.bb_sb_threshold, ..TolConfig::no_optimization() },
        ),
    ]
}

fn check(profile: &BenchProfile, scale: f64, expected: [Golden; 3]) {
    let got = configs().map(|(name, cfg)| (name, golden(profile, scale, cfg)));
    let want = configs().map(|(name, _)| name).into_iter().zip(expected).collect::<Vec<_>>();
    assert_eq!(got.to_vec(), want, "{}: translator output moved", profile.name);
}

#[test]
fn quicktest_translations_are_pinned() {
    check(
        &suites::quicktest_profile(),
        0.5,
        [
            Golden {
                code: 13421110261261487721,
                deltas: 4395392654766738463,
                bbs: 115,
                sbs: 12,
                host_insts: 2030,
            },
            Golden {
                code: 17882089451716962164,
                deltas: 4153740308883041482,
                bbs: 115,
                sbs: 12,
                host_insts: 2052,
            },
            Golden {
                code: 1453149490194086202,
                deltas: 675868731199239589,
                bbs: 115,
                sbs: 12,
                host_insts: 2030,
            },
        ],
    );
}

#[test]
fn startup_churn_translations_are_pinned() {
    check(
        &churn_profile(),
        1.0,
        [
            Golden {
                code: 67855125530329446,
                deltas: 11024610637021771310,
                bbs: 217,
                sbs: 57,
                host_insts: 6136,
            },
            Golden {
                code: 5109670393850649914,
                deltas: 14096770186853071314,
                bbs: 217,
                sbs: 57,
                host_insts: 6239,
            },
            Golden {
                code: 4590340615413950902,
                deltas: 675868731199239589,
                bbs: 217,
                sbs: 57,
                host_insts: 6156,
            },
        ],
    );
}
