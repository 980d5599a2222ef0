//! Stride prefetcher.
//!
//! The back-end is equipped with a 256-entry stride prefetcher (Table I):
//! a table indexed by load PC tracking the last address and stride; after
//! two consecutive accesses with the same stride, the next line is
//! prefetched into the L1 data cache.

/// One prefetch-table entry.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    pc: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// PC-indexed stride predictor; emits prefetch addresses.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<Entry>,
    mask: u64,
    issued: u64,
}

impl StridePrefetcher {
    /// Builds a prefetcher with `entries` slots (power of two; 0 yields
    /// an inert prefetcher).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is neither zero nor a power of two.
    pub fn new(entries: u32) -> StridePrefetcher {
        assert!(entries == 0 || entries.is_power_of_two());
        StridePrefetcher {
            table: vec![Entry::default(); entries as usize],
            mask: entries.wrapping_sub(1) as u64,
            issued: 0,
        }
    }

    /// Observes a demand data access; returns an address to prefetch, if
    /// a stable stride is established.
    pub fn observe(&mut self, pc: u64, addr: u64) -> Option<u64> {
        if self.table.is_empty() {
            return None;
        }
        let idx = ((pc >> 2) & self.mask) as usize;
        let e = &mut self.table[idx];
        if !e.valid || e.pc != pc {
            *e = Entry { pc, last_addr: addr, stride: 0, confidence: 0, valid: true };
            return None;
        }
        let stride = addr.wrapping_sub(e.last_addr) as i64;
        if stride == e.stride && stride != 0 {
            e.confidence = e.confidence.saturating_add(1);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_addr = addr;
        if e.confidence >= 2 {
            self.issued += 1;
            Some(addr.wrapping_add(e.stride as u64))
        } else {
            None
        }
    }

    /// Prefetches issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_trigger_prefetch() {
        let mut p = StridePrefetcher::new(256);
        let pc = 0x1000;
        assert_eq!(p.observe(pc, 0x100), None); // learn addr
        assert_eq!(p.observe(pc, 0x140), None); // learn stride
        assert_eq!(p.observe(pc, 0x180), None); // confidence 1
        assert_eq!(p.observe(pc, 0x1C0), Some(0x200)); // confident
        assert_eq!(p.observe(pc, 0x200), Some(0x240));
        assert_eq!(p.issued(), 2);
    }

    #[test]
    fn irregular_accesses_stay_quiet() {
        let mut p = StridePrefetcher::new(256);
        let pc = 0x2000;
        for a in [0x10u64, 0x90, 0x30, 0x200, 0x18] {
            assert_eq!(p.observe(pc, a), None);
        }
    }

    #[test]
    fn pc_conflicts_reset_entries() {
        let mut p = StridePrefetcher::new(1); // everything collides
        p.observe(0x1000, 0x100);
        p.observe(0x1000, 0x140);
        // Different pc steals the entry.
        assert_eq!(p.observe(0x2004, 0x500), None);
        // Original pc must relearn from scratch.
        assert_eq!(p.observe(0x1000, 0x180), None);
        assert_eq!(p.observe(0x1000, 0x1C0), None);
    }

    #[test]
    fn disabled_prefetcher_is_inert() {
        let mut p = StridePrefetcher::new(0);
        for i in 0..10u64 {
            assert_eq!(p.observe(0x100, i * 64), None);
        }
        assert_eq!(p.issued(), 0);
    }
}
