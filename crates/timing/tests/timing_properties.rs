//! Property tests for the timing substrates: caches, PLRU, predictor
//! and TLB invariants over random access streams. Driven by a seeded
//! deterministic generator (no crates.io access, so `proptest` is
//! replaced by case loops over a `SmallRng`).

use darco_host::BranchKind;
use darco_timing::cache::{Cache, Lookup};
use darco_timing::config::{CacheParams, L1D, L1I, L2, TLB1, TLB2};
use darco_timing::plru::PlruSet;
use darco_timing::predictor::Predictor;
use darco_timing::tlb::pages;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Table I's five levels as the caches the model builds: L1-I, L1-D,
/// L2, and the two TLBs as caches of pages.
fn table_i_levels() -> [CacheParams; 5] {
    [L1I, L1D, L2, pages(TLB1), pages(TLB2)]
}

/// A line is always present immediately after being accessed, whatever
/// the history, at every Table I level.
#[test]
fn hit_after_access_at_every_table_i_level() {
    let mut rng = SmallRng::seed_from_u64(0x71_0001);
    for case in 0..64 {
        let mut c = Cache::new(table_i_levels()[case % 5]);
        let n = rng.gen_range(1usize..200);
        for _ in 0..n {
            let a: u32 = rng.gen();
            c.access(a as u64);
            assert_eq!(c.access(a as u64), Lookup::Hit);
            assert!(c.contains(a as u64));
        }
    }
}

/// Every first touch of a line misses, and there are never more misses
/// than accesses.
#[test]
fn cache_misses_cover_first_touches() {
    let mut rng = SmallRng::seed_from_u64(0x71_0002);
    for _ in 0..32 {
        let mut c = Cache::new(L1D);
        let n = rng.gen_range(1usize..300);
        let mut lines = std::collections::BTreeSet::new();
        let mut misses = 0;
        for _ in 0..n {
            let a: u32 = rng.gen();
            misses += usize::from(c.access(a as u64) == Lookup::Miss);
            lines.insert(a >> 6);
        }
        assert!(lines.len() <= misses && misses <= n);
    }
}

/// The PLRU victim is always a legal way and never the way just
/// touched, at the associativity of every Table I level.
#[test]
fn plru_victim_in_range() {
    let mut rng = SmallRng::seed_from_u64(0x71_0003);
    for case in 0..64 {
        let ways = table_i_levels()[case % 5].ways;
        let mut p = PlruSet::default();
        let n = rng.gen_range(1usize..200);
        for _ in 0..n {
            let w = rng.gen::<u32>() % ways;
            p.touch(w, ways);
            let v = p.victim(ways);
            assert!(v < ways);
            assert_ne!(v, w, "victim equals the MRU way");
        }
    }
}

/// A perfectly stable direct branch converges to zero further
/// mispredictions.
#[test]
fn predictor_converges_on_stable_targets() {
    let mut rng = SmallRng::seed_from_u64(0x71_0004);
    for _ in 0..32 {
        let mut p = Predictor::new();
        let n = rng.gen_range(1usize..50);
        let pcs: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1024)).collect();
        for &pc in &pcs {
            for _ in 0..4 {
                p.predict_and_update(pc * 4, BranchKind::UncondDirect, true, pc * 8 + 4);
            }
        }
        // Re-visit every site: all targets cached now (BTB is 1024
        // entries and pcs < 1024*4 map to distinct slots).
        let wrong = pcs
            .iter()
            .filter(|&&pc| p.predict_and_update(pc * 4, BranchKind::UncondDirect, true, pc * 8 + 4))
            .count();
        assert_eq!(wrong, 0, "stable targets must not mispredict");
    }
}
