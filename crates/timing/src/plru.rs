//! Tree-based pseudo-LRU replacement state.
//!
//! All cache-like structures in Table I use PLRU. For a power-of-two
//! associativity `w`, the state is a binary tree of `w - 1` bits; a hit
//! flips the path bits away from the accessed way, and the victim is
//! found by following the bits.

/// PLRU state for one set (supports up to 64 ways).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlruSet {
    bits: u64,
}

impl PlruSet {
    /// Marks `way` as most recently used among `ways` ways.
    ///
    /// # Panics
    ///
    /// Debug-panics if `ways` is not a power of two or `way >= ways`.
    pub fn touch(&mut self, way: u32, ways: u32) {
        debug_assert!(ways.is_power_of_two() && way < ways);
        let mut node = 0u32; // root at index 0; children of n are 2n+1, 2n+2
        let mut lo = 0u32;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Accessed left subtree: point the bit right (away).
                self.bits |= 1 << node;
                node = 2 * node + 1;
                hi = mid;
            } else {
                self.bits &= !(1 << node);
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    /// Returns the victim way among `ways` ways (the pseudo-least
    /// recently used one). Does not modify state.
    pub fn victim(&self, ways: u32) -> u32 {
        debug_assert!(ways.is_power_of_two());
        let mut node = 0u32;
        let mut lo = 0u32;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bits & (1 << node) != 0 {
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
    fn single_way_degenerates() {
        let p = PlruSet::default();
        assert_eq!(p.victim(1), 0);
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
    fn victim_is_stable_without_touches() {
        let p = PlruSet::default();
        assert_eq!(p.victim(8), p.victim(8));
    }
}
