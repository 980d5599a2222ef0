//! Stride prefetcher.
//!
//! The back-end is equipped with a 256-entry stride prefetcher (Table I):
//! a table indexed by load PC tracking the last address and stride. The
//! first access of a PC claims the entry and the second sets the stride;
//! from the fourth access on, once the same non-zero stride has repeated
//! three times in a row, every access in the run prefetches
//! `addr + stride`, which the memory system fills into L1-D and L2
//! unless L1-D already holds the line.

use crate::config::PREFETCHER_ENTRIES;

const MASK: u64 = PREFETCHER_ENTRIES as u64 - 1;

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
    issued: u64,
}

impl StridePrefetcher {
    /// Builds Table I's prefetcher, of [`PREFETCHER_ENTRIES`] slots.
    pub fn new() -> StridePrefetcher {
        StridePrefetcher { table: vec![Entry::default(); PREFETCHER_ENTRIES as usize], issued: 0 }
    }

    /// Observes a demand data access; returns an address to prefetch, if
    /// a stable stride is established.
    pub fn observe(&mut self, pc: u64, addr: u64) -> Option<u64> {
        let idx = ((pc >> 2) & MASK) as usize;
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

impl Default for StridePrefetcher {
    fn default() -> StridePrefetcher {
        StridePrefetcher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_trigger_prefetch() {
        let mut p = StridePrefetcher::new();
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
        let mut p = StridePrefetcher::new();
        let pc = 0x2000;
        for a in [0x10u64, 0x90, 0x30, 0x200, 0x18] {
            assert_eq!(p.observe(pc, a), None);
        }
    }

    #[test]
    fn pc_conflicts_reset_entries() {
        let mut p = StridePrefetcher::new();
        p.observe(0x1000, 0x100);
        p.observe(0x1000, 0x140);
        // A pc 256 words on shares the slot and steals the entry.
        assert_eq!(p.observe(0x1400, 0x500), None);
        // Original pc must relearn from scratch.
        assert_eq!(p.observe(0x1000, 0x180), None);
        assert_eq!(p.observe(0x1000, 0x1C0), None);
    }
}
