//! Tree-based pseudo-LRU replacement state.
//!
//! All cache-like structures in Table I use PLRU, at 4 or 8 ways. For
//! associativity `w`, the state is a binary tree of `w - 1` bits; a hit
//! flips the path bits away from the accessed way, and the victim is
//! found by following the bits.

/// PLRU state for one 4- or 8-way set.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlruSet {
    bits: u64,
}

/// The tree after marking `way` most recently used: the path bits flip
/// away from it. This loop and [`walk_victim`] are the one definition of
/// the policy; the 4- and 8-way tables below are these functions evaluated
/// at compile time.
const fn walk_touch(mut bits: u64, way: u32, ways: u32) -> u64 {
    let mut node = 0u32; // root at index 0; children of n are 2n+1, 2n+2
    let mut lo = 0u32;
    let mut hi = ways;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if way < mid {
            // Accessed left subtree: point the bit right (away).
            bits |= 1 << node;
            node = 2 * node + 1;
            hi = mid;
        } else {
            bits &= !(1 << node);
            node = 2 * node + 2;
            lo = mid;
        }
    }
    bits
}

/// The way the tree bits lead to.
const fn walk_victim(bits: u64, ways: u32) -> u32 {
    let mut node = 0u32;
    let mut lo = 0u32;
    let mut hi = ways;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if bits & (1 << node) != 0 {
            // Bit points right: victim is on the right.
            node = 2 * node + 2;
            lo = mid;
        } else {
            node = 2 * node + 1;
            hi = mid;
        }
    }
    lo
}

/// Per-way `(and, or)` masks: a touch only sets and clears path bits,
/// whatever the state, so it is `(bits & and) | or` with the masks read
/// off touching an all-ones and an all-zeros tree.
const fn touch_table<const W: usize>() -> [(u64, u64); W] {
    let mut t = [(0, 0); W];
    let mut way = 0;
    while way < W {
        t[way] = (walk_touch(!0, way as u32, W as u32), walk_touch(0, way as u32, W as u32));
        way += 1;
    }
    t
}

/// Victim way of each of the `S = 2^(ways - 1)` tree states.
const fn victim_table<const S: usize>(ways: u32) -> [u8; S] {
    let mut t = [0; S];
    let mut bits = 0;
    while bits < S {
        t[bits] = walk_victim(bits as u64, ways) as u8;
        bits += 1;
    }
    t
}

static TOUCH4: [(u64, u64); 4] = touch_table();
static TOUCH8: [(u64, u64); 8] = touch_table();
static VICTIM4: [u8; 8] = victim_table(4);
static VICTIM8: [u8; 128] = victim_table(8);

impl PlruSet {
    /// Marks `way` as most recently used among `ways` (4 or 8) ways.
    ///
    /// # Panics
    ///
    /// Debug-panics if `ways` is neither 4 nor 8 or `way >= ways`.
    #[inline]
    pub fn touch(&mut self, way: u32, ways: u32) {
        debug_assert!((ways == 4 || ways == 8) && way < ways);
        // The `%` are no-ops that spare the bounds checks.
        let (and, or) = if ways == 4 { TOUCH4[way as usize % 4] } else { TOUCH8[way as usize % 8] };
        self.bits = (self.bits & and) | or;
    }

    /// Returns the victim way among `ways` (4 or 8) ways (the
    /// pseudo-least recently used one). Does not modify state.
    #[inline]
    pub fn victim(&self, ways: u32) -> u32 {
        debug_assert!(ways == 4 || ways == 8);
        if ways == 4 {
            VICTIM4[self.bits as usize % 8] as u32
        } else {
            VICTIM8[self.bits as usize % 128] as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_avoids_recent_touches() {
        let ways = 4;
        let mut p = PlruSet::default();
        // Touching every way in order leaves way 0 as the tree-PLRU
        // victim (root and left bits both point left).
        for w in 0..ways {
            p.touch(w, ways);
        }
        assert_eq!(p.victim(ways), 0);
        p.touch(0, ways);
        // The victim is never the way just touched.
        assert_ne!(p.victim(ways), 0);
    }

    #[test]
    fn eight_way_full_rotation() {
        let ways = 8;
        let mut p = PlruSet::default();
        // Touch every way in order: the tree victim is way 0 again.
        for w in 0..ways {
            p.touch(w, ways);
        }
        assert_eq!(p.victim(ways), 0);
        // Repeatedly touching the current victim always moves it: a
        // filled set cycles through all ways without repeats-in-a-row.
        for _ in 0..32 {
            let v = p.victim(ways);
            p.touch(v, ways);
            assert_ne!(p.victim(ways), v);
        }
    }

    #[test]
    fn tables_agree_with_the_tree_walk_exhaustively() {
        for ways in [4u32, 8] {
            for bits in 0..1u64 << (ways - 1) {
                let p = PlruSet { bits };
                assert_eq!(
                    p.victim(ways),
                    walk_victim(bits, ways),
                    "{ways}-way victim of {bits:#b}"
                );
                for way in 0..ways {
                    let mut t = p;
                    t.touch(way, ways);
                    assert_eq!(
                        t.bits,
                        walk_touch(bits, way, ways),
                        "{ways}-way touch of way {way} in {bits:#b}"
                    );
                }
            }
        }
    }

    #[test]
    fn victim_is_stable_without_touches() {
        let p = PlruSet::default();
        assert_eq!(p.victim(8), p.victim(8));
    }
}
