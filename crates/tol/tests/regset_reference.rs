//! Reference models for the dense register containers.
//!
//! Every pass on the compile path keeps its per-register facts in
//! [`RegSet`] (a growable bitset) and [`RegVec`] (a growable array map).
//! What they replaced — `HashSet<usize>` and `HashMap<usize, _>` — lives
//! on here as the readable reference, and each test replays random
//! operations against both, aimed at the index arithmetic (slots past
//! one and many bitset words, sets grown to different lengths).
//!
//! Runs in debug and in `--release` (`scripts/check.sh`): index-and-shift
//! code must hold with overflow checks and `debug_assert!` compiled out.

use darco_tol::regset::{RegSet, RegVec, VIRT_BASE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// `RegSet` against `HashSet<usize>` under random insert / remove /
/// copy / clear, including comparisons between sets that have
/// grown to different lengths.
#[test]
fn regset_behaves_as_a_set() {
    let mut rng = SmallRng::seed_from_u64(0x70_9001);
    let index = |rng: &mut SmallRng| match rng.gen_range(0..4) {
        0 => rng.gen_range(0..VIRT_BASE),
        1 => VIRT_BASE + rng.gen_range(0usize..130),
        2 => VIRT_BASE + [63, 64, 127, 128, 191, 192][rng.gen_range(0..6)],
        _ => VIRT_BASE + rng.gen_range(0usize..3_000),
    };
    for _ in 0..200 {
        let (mut a, mut ra) = (RegSet::default(), HashSet::new());
        let (mut b, mut rb) = (RegSet::default(), HashSet::new());
        for _ in 0..rng.gen_range(0usize..60) {
            let i = index(&mut rng);
            match rng.gen_range(0..9) {
                0..=3 => (a.insert(i), ra.insert(i)).0,
                4..=5 => (b.insert(i), rb.insert(i)).0,
                6 => (a.remove(i), ra.remove(&i)).0,
                7 => (b.remove(i), rb.remove(&i)).0,
                _ => assert_eq!(a.contains(i), ra.contains(&i), "contains({i})"),
            }
        }
        for (set, model) in [(&a, &ra), (&b, &rb)] {
            assert!(model.iter().all(|&i| set.contains(i)), "{set:?} lacks a member of {model:?}");
            assert_eq!((set.len(), set.is_empty()), (model.len(), model.is_empty()));
        }
        assert_eq!(a == b, ra == rb, "equality is set equality: {a:?} vs {b:?}");
        assert_eq!(b == a, ra == rb, "and symmetric");

        // Growing and emptying again must not make a set unequal to
        // one that never grew.
        let mut grown = a.clone();
        grown.insert(VIRT_BASE + 10_000);
        assert_ne!(grown, a);
        grown.remove(VIRT_BASE + 10_000);
        assert_eq!(grown, a, "trailing zero words are not a difference");
        assert_eq!(a, grown);

        grown.clear();
        assert!(grown.is_empty() && grown == RegSet::default());
    }
}

/// `RegVec` against `HashMap<usize, u32>`.
#[test]
fn regvec_behaves_as_a_map() {
    let mut rng = SmallRng::seed_from_u64(0x70_A001);
    for _ in 0..200 {
        let (mut m, mut r) = (RegVec::<u32>::default(), HashMap::new());
        for _ in 0..rng.gen_range(0usize..60) {
            let i = rng.gen_range(0usize..300);
            match rng.gen_range(0..4) {
                0 | 1 => {
                    let v = rng.gen_range(0u32..5);
                    m.insert(i, v);
                    r.insert(i, v);
                }
                2 => (m.remove(i), r.remove(&i)).0,
                _ => {
                    let drop = rng.gen_range(0u32..5);
                    m.retain(|&v| v != drop);
                    r.retain(|_, v| *v != drop);
                }
            }
            assert_eq!(m.get(i), r.get(&i).copied());
        }
        let mut want: Vec<(usize, u32)> = r.iter().map(|(&k, &v)| (k, v)).collect();
        want.sort_unstable();
        assert_eq!(m.iter().collect::<Vec<_>>(), want);
        assert!(m.span() >= want.len());

        let mut grown = m.clone();
        grown.insert(9_999, 1);
        assert_ne!(grown, m);
        grown.remove(9_999);
        assert_eq!(grown, m, "trailing absent slots are not a difference");
        assert_eq!(m, grown);
    }
}
