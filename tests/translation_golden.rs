//! The translator's output, pinned as golden text (`tests/common/golden.rs`).
//!
//! Compiled host code is a pure function of `(guest region, TolConfig)`.
//! Each case runs [`Tol`] alone (no timing, no co-simulation) over a
//! generated workload under three configurations and pins, per
//! configuration, a digest of every resident translation's `insts`,
//! `body_len` and `stub_guest_counts` in guest-entry order (about 6 k
//! host instructions, too many to commit), the BBM and SBM block counts,
//! the host-instruction total and every `RunSummary::pass_deltas` row.
//! `figures all | cmp` notices a moved instruction too, but only through
//! a 12 s release run; this test notices in seconds, in debug and
//! release. The `code` digest moves only with an explanation of which
//! instruction moved and why; a change to the pass accounting alone
//! moves only the rows.

#[path = "common/fnv.rs"]
mod fnv;
#[path = "common/golden.rs"]
mod golden;

use darco::core::SystemConfig;
use darco::host::NullSink;
use darco::tol::codecache::BlockKind;
use darco::tol::{Tol, TolConfig};
use darco::workloads::{generate, suites, BenchProfile, Suite};
use std::fmt::Write;

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

/// The layer after running `profile` at `scale` to its halt.
fn translated(profile: &BenchProfile, scale: f64, cfg: TolConfig) -> Tol {
    let w = generate(profile, scale);
    let mut mem = w.mem.clone();
    let mut tol = Tol::new(cfg, w.entry);
    tol.set_state(&w.initial);
    tol.run(&mut mem, &mut NullSink, u64::MAX).expect("generated workloads decode");
    assert!(tol.is_done(), "{}: guest must halt", profile.name);
    tol
}

/// What one configuration translated: one header line, then one line
/// per pass.
fn golden(name: &str, profile: &BenchProfile, scale: f64, cfg: TolConfig) -> String {
    let tol = translated(profile, scale, cfg);
    let mut blocks: Vec<_> = tol.cc.blocks().map(|(id, b)| (b.guest_entry, id.idx, b)).collect();
    blocks.sort_by_key(|&(entry, idx, b)| (entry, b.kind == BlockKind::Sb, idx));
    let mut code = fnv::Fnv::default();
    let (mut bbs, mut sbs, mut host_insts) = (0, 0, 0);
    for (entry, _, b) in blocks {
        match b.kind {
            BlockKind::Bb => bbs += 1,
            BlockKind::Sb => sbs += 1,
        }
        host_insts += b.insts.len();
        write!(
            code,
            "{entry:#x} {:?} body {} stubs {:?}\n{:?}\n",
            b.kind, b.body_len, b.stub_guest_counts, b.insts
        )
        .expect("hashing cannot fail");
    }
    let mut text = format!(
        "{name}: code {}, {bbs} BBM blocks, {sbs} SBM blocks, {host_insts} host instructions\n",
        code.0
    );
    for d in tol.summary().pass_deltas {
        writeln!(text, "  {}: runs {}, insts_removed {}", d.pass, d.runs, d.insts_removed)
            .expect("writing to a String cannot fail");
    }
    text
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

fn check(profile: &BenchProfile, scale: f64) {
    let text: String = configs().map(|(name, cfg)| golden(name, profile, scale, cfg)).concat();
    golden::assert_golden(&format!("translation/{}.txt", profile.name), &text);
}

#[test]
fn quicktest_translations_are_pinned() {
    check(&suites::quicktest_profile(), 0.5);
}

#[test]
fn startup_churn_translations_are_pinned() {
    check(&churn_profile(), 1.0);
}

/// A block replaced by its superblock keeps its code (digested above)
/// but drops its retirement templates when it is redirected, since
/// every way into it then leads to the superblock; every other block
/// keeps the templates it runs by.
#[test]
fn only_redirected_blocks_drop_their_templates() {
    for (profile, scale) in [(suites::quicktest_profile(), 0.5), (churn_profile(), 1.0)] {
        for (name, cfg) in configs() {
            let tol = translated(&profile, scale, cfg);
            let mut redirected = 0;
            for (id, b) in tol.cc.blocks() {
                assert!(!b.insts.is_empty(), "{}/{name}: {id} has no code", profile.name);
                assert_eq!(
                    b.templates.is_empty(),
                    b.redirect.is_some(),
                    "{}/{name}: {id} ({} templates, redirect {:?})",
                    profile.name,
                    b.templates.len(),
                    b.redirect
                );
                redirected += usize::from(b.redirect.is_some());
            }
            assert!(redirected > 0, "{}/{name}: no block was replaced", profile.name);
        }
    }
}
