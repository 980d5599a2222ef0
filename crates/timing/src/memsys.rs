//! The memory system: split L1s, unified L2, data TLB and stride
//! prefetcher.
//!
//! The software layer and the application contend for one set of
//! structures — TOL's data-intensive code-cache lookups evict application
//! lines and vice versa (the "ping-pong" effect of Sec. III-D). The
//! "without interaction" numbers of Figs. 10 and 11 come from a pipeline
//! that is fed one owner's instructions only, not from a second set of
//! structures here. The structures keep no counts of who used them: each
//! access returns its outcome, and the pipeline counts it against the
//! component of the instruction that made it.

use crate::cache::{Cache, Lookup};
use crate::config::{L1D, L1I, L2, MEM_LATENCY};
use crate::prefetch::StridePrefetcher;
use crate::tlb::Tlb;
use darco_host::layout::is_guest_addr;

/// Outcome of a data access or an instruction fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Total latency in cycles (for data, TLB + cache hierarchy).
    pub latency: u32,
    /// Missed in the L1 cache (L1-D for data, L1-I for a fetch).
    pub l1_miss: bool,
}

/// Sentinel for "no previous L1-D line": real line numbers fit in 58
/// bits (lines are at least 2 bytes).
const NO_LINE: u64 = u64::MAX;

const D_LINE_SHIFT: u32 = L1D.block.trailing_zeros();

/// The modeled cache/TLB/prefetch hierarchy.
#[derive(Debug)]
pub struct MemSystem {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    tlb: Tlb,
    prefetch: StridePrefetcher,
    /// Line number of the previous demand data access, used by the
    /// last-line hit shortcut; [`NO_LINE`] after any L1-D fill (a fill
    /// may disturb replacement state in the same set).
    last_d_line: u64,
}

impl MemSystem {
    /// Builds Table I's hierarchy.
    pub fn new() -> MemSystem {
        MemSystem {
            l1i: Cache::new(L1I),
            l1d: Cache::new(L1D),
            l2: Cache::new(L2),
            tlb: Tlb::new(),
            prefetch: StridePrefetcher::new(),
            last_d_line: NO_LINE,
        }
    }

    /// Performs a demand data access (load or store) at `addr`, issued
    /// by the instruction at `pc`.
    ///
    /// The data TLB is consulted only for guest-space addresses: the
    /// software layer works with physical addresses (Sec. II-A-2).
    pub fn access_data(&mut self, pc: u64, addr: u64) -> Access {
        let line = addr >> D_LINE_SHIFT;
        let fast_hit = line == self.last_d_line;

        let mut latency = 0;
        if is_guest_addr(addr) {
            // An L1-TLB hit overlaps the cache access; only the excess
            // latency of lower levels is serialized.
            latency += self.tlb.access(addr).saturating_sub(1);
        }

        let mut l1_miss = false;
        if fast_hit {
            // Same L1-D line as the previous demand access, with no fill
            // in between (fills clear `last_d_line`): the probe would hit
            // and its MRU re-touch would be a PLRU no-op.
            latency += L1D.hit_latency;
        } else {
            l1_miss = self.l1d.access(addr) == Lookup::Miss;
            if l1_miss {
                latency +=
                    if self.l2.access(addr) == Lookup::Miss { MEM_LATENCY } else { L2.hit_latency };
            } else {
                latency += L1D.hit_latency;
            }
        }
        self.last_d_line = line;

        // Stride prefetching on demand accesses. This runs on the
        // shortcut path too: the prefetcher's stride state is observable
        // through future fills.
        if let Some(pf_addr) = self.prefetch.observe(pc, addr) {
            if !self.l1d.contains(pf_addr) {
                self.l1d.fill(pf_addr);
                self.l2.fill(pf_addr);
                // The fill may have evicted or re-ordered lines in the
                // set the shortcut would vouch for.
                self.last_d_line = NO_LINE;
            }
        }

        Access { latency, l1_miss }
    }

    /// Brings a line toward the core for a software prefetch: fills L1D
    /// and L2 (and translates the page) without charging demand-miss
    /// statistics or latency.
    pub fn prefetch_fill(&mut self, addr: u64) {
        if is_guest_addr(addr) {
            self.tlb.access(addr);
        }
        self.l1d.fill(addr);
        self.l2.fill(addr);
        self.last_d_line = NO_LINE;
    }

    /// Performs an instruction-fetch access for the line containing `pc`.
    pub fn access_inst(&mut self, pc: u64) -> Access {
        let l1_miss = self.l1i.access(pc) == Lookup::Miss;
        let latency = if l1_miss {
            if self.l2.access(pc) == Lookup::Miss {
                MEM_LATENCY
            } else {
                L2.hit_latency
            }
        } else {
            L1I.hit_latency
        };
        Access { latency, l1_miss }
    }

    /// Total prefetches issued.
    pub fn prefetches(&self) -> u64 {
        self.prefetch.issued()
    }
}

impl Default for MemSystem {
    fn default() -> MemSystem {
        MemSystem::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_host::layout::TOL_DATA_BASE;

    #[test]
    fn data_hit_miss_latencies() {
        let mut m = MemSystem::new();
        // Cold: TLB walk (128 - 1 overlapped) + memory (128).
        let a = m.access_data(0x10, 0x8000);
        assert!(a.l1_miss);
        assert_eq!(a.latency, 127 + 128);
        // Warm: TLB L1 hit (overlapped) + L1D hit.
        let b = m.access_data(0x10, 0x8000);
        assert!(!b.l1_miss);
        assert_eq!(b.latency, 1);
    }

    #[test]
    fn tol_addresses_skip_tlb() {
        let mut m = MemSystem::new();
        let a = m.access_data(0x10, TOL_DATA_BASE + 0x100);
        assert!(a.l1_miss);
        assert_eq!(a.latency, 128, "no TLB serialization for physical TOL data");
    }

    #[test]
    fn tol_accesses_evict_application_lines() {
        // App touches a line; TOL then floods the same set, evicting it.
        let mut m = MemSystem::new();
        m.access_data(0x10, 0x4000);
        // 4-way L1D, 128 sets, 64B lines: stride 8192 stays in one set.
        for i in 0..8u64 {
            m.access_data(0x20, TOL_DATA_BASE + 0x4000 + i * 8192);
        }
        let again = m.access_data(0x10, 0x4000);
        assert!(again.l1_miss, "TOL evicted the app line");
    }

    #[test]
    fn inst_fetch_path() {
        let mut m = MemSystem::new();
        let a = m.access_inst(0x100);
        assert!(a.l1_miss);
        assert_eq!(a.latency, 128);
        let b = m.access_inst(0x104);
        assert!(!b.l1_miss);
        assert_eq!(b.latency, 1);
    }

    #[test]
    fn fast_paths_match_full_probe_oracle() {
        // Flat layout + shortcuts vs the per-set, full-probe reference
        // model on a mixed stream (repeats, strides, one hammered set, sw
        // prefetches, guest and TOL space): every access result and the
        // prefetch count must be identical.
        let mut f = MemSystem::new();
        let mut s = crate::reference::FullProbeMemSystem::new();
        let mut x = 0x853C_49E6_748F_EA9Bu64;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let base = if x & 8 == 0 { 0 } else { TOL_DATA_BASE };
            let addr = if x & 0x60 == 0 {
                // Six lines of one L1-D set (4-way): fills and repeat
                // hits in the set the last-line shortcut vouches for.
                base + 0x20_0000 + (x >> 20) % 6 * 8192 + (x >> 30) % 2 * 8
            } else {
                match i % 4 {
                    0 => base + (x % 0x40_0000),        // random
                    3 => base + (i % 512) * 8,          // sw-prefetch target pool
                    _ => base + (i / 7) * 8 % 0x1_0000, // strided with repeats
                }
            };
            let pc = 0x100 + (x % 64) * 4;
            if i % 11 == 0 {
                f.prefetch_fill(addr);
                s.prefetch_fill(addr);
            } else {
                assert_eq!(f.access_data(pc, addr), s.access_data(pc, addr), "access {i}");
            }
            if i % 5 == 0 {
                assert_eq!(f.access_inst(pc), s.access_inst(pc));
            }
        }
        assert_eq!(f.prefetches(), s.prefetches());
    }

    #[test]
    fn prefetcher_hides_stream_misses() {
        let mut m = MemSystem::new();
        let pc = 0x500;
        let mut misses = 0;
        for i in 0..64u64 {
            let a = m.access_data(pc, 0x10000 + i * 64);
            if a.l1_miss {
                misses += 1;
            }
        }
        assert!(m.prefetches() > 0);
        // Far fewer misses than lines touched once prefetching kicks in.
        assert!(misses < 32, "prefetcher should cover the stream, got {misses}");
    }
}
