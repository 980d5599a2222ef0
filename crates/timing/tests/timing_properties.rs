//! Property tests for the timing substrates: caches, PLRU, predictor
//! and TLB invariants over random access streams. Driven by a seeded
//! deterministic generator (no crates.io access, so `proptest` is
//! replaced by case loops over a `SmallRng`).

use darco_host::BranchKind;
use darco_timing::cache::{Cache, Lookup};
use darco_timing::config::{CacheParams, L1D};
use darco_timing::plru::PlruSet;
use darco_timing::predictor::Predictor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A line is always present immediately after being accessed, for
/// any legal cache shape.
#[test]
fn hit_after_access_any_shape() {
    let mut rng = SmallRng::seed_from_u64(0x71_0001);
    for _ in 0..64 {
        let ways = 1u32 << rng.gen_range(0u32..4);
        let block = 1u32 << rng.gen_range(4u32..8);
        let sets = 1u32 << rng.gen_range(0u32..6);
        let mut c =
            Cache::new(CacheParams { size: sets * ways * block, block, ways, hit_latency: 1 });
        let n = rng.gen_range(1usize..100);
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
/// touched (for associativity >= 2).
#[test]
fn plru_victim_in_range() {
    let mut rng = SmallRng::seed_from_u64(0x71_0003);
    for _ in 0..64 {
        let ways = 1u32 << rng.gen_range(1u32..6);
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
