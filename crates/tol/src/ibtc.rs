//! Indirect Branch Translation Cache.
//!
//! Translated code cannot jump through the translation map on every
//! indirect branch — the map probe is a data-intensive trip into the
//! software layer. The IBTC (Hiser et al., cited as \[20\] in the paper)
//! is a small direct-mapped table of `guest target → translation` pairs
//! probed inline by translated code; only a miss transitions to the
//! software layer for a full code-cache lookup, after which the entry is
//! updated (Sec. III-B).
//!
//! Entries hold generation-tagged [`BlockId`] handles. The engine keeps
//! them live eagerly: a whole-cache flush [`clear`](Ibtc::clear)s the
//! table, and an SMC eviction [`invalidate`](Ibtc::invalidate)s only the
//! entries naming the evicted block — so a probe can never hand out a
//! handle to freed code.

use darco_host::BlockId;

/// Direct-mapped IBTC.
#[derive(Debug, Clone)]
pub struct Ibtc {
    entries: Vec<Option<(u32, BlockId)>>, // (guest target, block handle)
    mask: u32,
    hits: u64,
    misses: u64,
}

impl Ibtc {
    /// Creates an IBTC with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: u32) -> Ibtc {
        assert!(entries.is_power_of_two(), "IBTC entries must be a power of two");
        Ibtc { entries: vec![None; entries as usize], mask: entries - 1, hits: 0, misses: 0 }
    }

    /// Slot index a guest target maps to (exposed so the cost model can
    /// derive the probe's data address).
    pub fn slot(&self, guest_target: u32) -> u32 {
        // Multiplicative hash; guest code is byte-aligned so low bits
        // alone are fine but mixing avoids pathological strides.
        (guest_target.wrapping_mul(0x9E37_79B9) >> 16) & self.mask
    }

    /// Probes for a guest target; returns the cached block handle.
    pub fn lookup(&mut self, guest_target: u32) -> Option<BlockId> {
        let e = self.entries[self.slot(guest_target) as usize];
        match e {
            Some((g, b)) if g == guest_target => {
                self.hits += 1;
                Some(b)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Installs/overwrites the entry for a guest target.
    pub fn update(&mut self, guest_target: u32, block: BlockId) {
        let s = self.slot(guest_target) as usize;
        self.entries[s] = Some((guest_target, block));
    }

    /// Drops every entry naming `block` (after an SMC eviction; a
    /// whole-cache flush uses [`Ibtc::clear`]).
    pub fn invalidate(&mut self, block: BlockId) {
        for e in self.entries.iter_mut() {
            if matches!(e, Some((_, b)) if *b == block) {
                *e = None;
            }
        }
    }

    /// Clears all entries (after a code-cache flush, every block handle
    /// is stale).
    pub fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
    }

    /// Probe hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probe misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bid(idx: u32) -> BlockId {
        BlockId { idx, gen: 0 }
    }

    #[test]
    fn miss_then_hit() {
        let mut i = Ibtc::new(512);
        assert_eq!(i.lookup(0x1234), None);
        i.update(0x1234, bid(7));
        assert_eq!(i.lookup(0x1234), Some(bid(7)));
        assert_eq!(i.hits(), 1);
        assert_eq!(i.misses(), 1);
    }

    #[test]
    fn conflicting_targets_evict() {
        let mut i = Ibtc::new(1); // everything collides
        i.update(0x100, bid(1));
        i.update(0x200, bid(2));
        assert_eq!(i.lookup(0x100), None, "evicted by 0x200");
        assert_eq!(i.lookup(0x200), Some(bid(2)));
    }

    #[test]
    fn clear_drops_everything() {
        let mut i = Ibtc::new(64);
        i.update(0x100, bid(1));
        i.clear();
        assert_eq!(i.lookup(0x100), None);
    }

    #[test]
    fn invalidate_is_selective() {
        let mut i = Ibtc::new(64);
        i.update(0x100, bid(1));
        i.update(0x200, bid(2));
        i.invalidate(bid(1));
        assert_eq!(i.lookup(0x100), None, "entries naming the block go");
        assert_eq!(i.lookup(0x200), Some(bid(2)), "others survive");
        // A different generation of the same slot is a different block.
        i.update(0x300, BlockId { idx: 2, gen: 1 });
        i.invalidate(bid(2));
        assert_eq!(i.lookup(0x300), Some(BlockId { idx: 2, gen: 1 }));
    }

    #[test]
    fn slots_stay_in_range() {
        let i = Ibtc::new(512);
        for t in (0..100_000u32).step_by(97) {
            assert!(i.slot(t) < 512);
        }
    }
}
