//! The memory system: split L1s, unified L2, data TLB and stride
//! prefetcher.
//!
//! The software layer and the application contend for one set of
//! structures — TOL's data-intensive code-cache lookups evict application
//! lines and vice versa (the "ping-pong" effect of Sec. III-D). The
//! "without interaction" numbers of Figs. 10 and 11 come from a pipeline
//! that is fed one owner's instructions only, not from a second set of
//! structures here. Demand statistics are kept per owner so miss rates
//! can be reported per entity.

use crate::cache::{Cache, Lookup};
use crate::config::TimingConfig;
use crate::prefetch::StridePrefetcher;
use crate::tlb::Tlb;
use darco_host::layout::is_guest_addr;
use darco_host::Owner;

/// Outcome of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataAccess {
    /// Total latency in cycles (TLB + cache hierarchy).
    pub latency: u32,
    /// Missed in the L1 data cache.
    pub l1_miss: bool,
    /// Missed in the L2 as well.
    pub l2_miss: bool,
}

/// Outcome of an instruction fetch access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstAccess {
    /// Fetch latency in cycles.
    pub latency: u32,
    /// Missed in the L1 instruction cache.
    pub l1_miss: bool,
}

/// Per-owner demand counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct OwnerMemStats {
    /// Demand data accesses.
    pub d_accesses: u64,
    /// L1-D demand misses.
    pub d_misses: u64,
    /// Instruction-fetch line accesses.
    pub i_accesses: u64,
    /// L1-I misses.
    pub i_misses: u64,
    /// Data TLB walks.
    pub tlb_walks: u64,
    /// Software prefetches issued (the layer's optional pass).
    pub sw_prefetches: u64,
}

impl OwnerMemStats {
    /// L1-D miss rate (0 when idle).
    pub fn d_miss_rate(&self) -> f64 {
        if self.d_accesses == 0 {
            0.0
        } else {
            self.d_misses as f64 / self.d_accesses as f64
        }
    }

    /// L1-I miss rate (0 when idle).
    pub fn i_miss_rate(&self) -> f64 {
        if self.i_accesses == 0 {
            0.0
        } else {
            self.i_misses as f64 / self.i_accesses as f64
        }
    }
}

/// Sentinel for "no previous L1-D line": real line numbers fit in 58
/// bits (lines are at least 2 bytes).
const NO_LINE: u64 = u64::MAX;

/// The modeled cache/TLB/prefetch hierarchy.
#[derive(Debug)]
pub struct MemSystem {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    tlb: Tlb,
    prefetch: StridePrefetcher,
    stats: [OwnerMemStats; 2],
    l1_hit: u32,
    l2_hit: u32,
    mem_lat: u32,
    /// Line number of the previous demand data access, used by the
    /// last-line hit shortcut; [`NO_LINE`] after any L1-D fill (a fill
    /// may disturb replacement state in the same set).
    last_d_line: u64,
    d_line_shift: u32,
}

fn owner_idx(owner: Owner) -> usize {
    match owner {
        Owner::App => 0,
        Owner::Tol => 1,
    }
}

impl MemSystem {
    /// Builds the hierarchy from the configuration.
    pub fn new(cfg: &TimingConfig) -> MemSystem {
        MemSystem {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            tlb: Tlb::new(cfg.tlb1, cfg.tlb2, cfg.tlb_walk_latency),
            prefetch: StridePrefetcher::new(cfg.prefetcher_entries),
            stats: [OwnerMemStats::default(); 2],
            l1_hit: cfg.l1d.hit_latency,
            l2_hit: cfg.l2.hit_latency,
            mem_lat: cfg.mem_latency,
            last_d_line: NO_LINE,
            d_line_shift: cfg.l1d.block.trailing_zeros(),
        }
    }

    /// Performs a demand data access (load or store) for `owner` at
    /// `addr`, issued by the instruction at `pc`.
    ///
    /// The data TLB is consulted only for guest-space addresses: the
    /// software layer works with physical addresses (Sec. II-A-2).
    pub fn access_data(&mut self, owner: Owner, pc: u64, addr: u64, _is_store: bool) -> DataAccess {
        self.stats[owner_idx(owner)].d_accesses += 1;

        let line = addr >> self.d_line_shift;
        let fast_hit = line == self.last_d_line;

        let mut latency = 0;
        if is_guest_addr(addr) {
            let (outcome, tlb_lat) = self.tlb.access(addr);
            if outcome == crate::tlb::TlbOutcome::Walk {
                self.stats[owner_idx(owner)].tlb_walks += 1;
            }
            // An L1-TLB hit overlaps the cache access; only the excess
            // latency of lower levels is serialized.
            latency += tlb_lat.saturating_sub(1);
        }

        let mut l1_miss = false;
        let mut l2_miss = false;
        if fast_hit {
            // Same L1-D line as the previous demand access, with no fill
            // in between (fills clear `last_d_line`): the probe would hit
            // and its MRU re-touch would be a PLRU no-op, so only the
            // access counter needs to move.
            self.l1d.count_hit();
            latency += self.l1_hit;
        } else {
            l1_miss = self.l1d.access(addr) == Lookup::Miss;
            if l1_miss {
                self.stats[owner_idx(owner)].d_misses += 1;
                l2_miss = self.l2.access(addr) == Lookup::Miss;
                latency += if l2_miss { self.mem_lat } else { self.l2_hit };
            } else {
                latency += self.l1_hit;
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

        DataAccess { latency, l1_miss, l2_miss }
    }

    /// Brings a line toward the core for a software prefetch: fills L1D
    /// and L2 (and translates the page) without charging demand-miss
    /// statistics or latency.
    pub fn prefetch_fill(&mut self, owner: Owner, addr: u64) {
        if is_guest_addr(addr) {
            let _ = self.tlb.access(addr);
        }
        self.stats[owner_idx(owner)].sw_prefetches += 1;
        self.l1d.fill(addr);
        self.l2.fill(addr);
        self.last_d_line = NO_LINE;
    }

    /// Performs an instruction-fetch access for the line containing `pc`.
    pub fn access_inst(&mut self, owner: Owner, pc: u64) -> InstAccess {
        let s = &mut self.stats[owner_idx(owner)];
        s.i_accesses += 1;
        let l1_miss = self.l1i.access(pc) == Lookup::Miss;
        let latency = if l1_miss {
            s.i_misses += 1;
            if self.l2.access(pc) == Lookup::Miss {
                self.mem_lat
            } else {
                self.l2_hit
            }
        } else {
            1
        };
        InstAccess { latency, l1_miss }
    }

    /// Per-owner demand statistics.
    pub fn owner_stats(&self, owner: Owner) -> OwnerMemStats {
        self.stats[owner_idx(owner)]
    }

    /// Total prefetches issued.
    pub fn prefetches(&self) -> u64 {
        self.prefetch.issued()
    }

    /// L1-I line size in bytes (for the pipeline's fetch grouping).
    pub fn i_line_bytes(&self) -> u64 {
        self.l1i.block_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_host::layout::TOL_DATA_BASE;

    fn table_i() -> MemSystem {
        MemSystem::new(&TimingConfig::default())
    }

    #[test]
    fn data_hit_miss_latencies() {
        let mut m = table_i();
        // Cold: TLB walk (128 - 1 overlapped) + memory (128).
        let a = m.access_data(Owner::App, 0x10, 0x8000, false);
        assert!(a.l1_miss && a.l2_miss);
        assert_eq!(a.latency, 127 + 128);
        // Warm: TLB L1 hit (overlapped) + L1D hit.
        let b = m.access_data(Owner::App, 0x10, 0x8000, false);
        assert!(!b.l1_miss);
        assert_eq!(b.latency, 1);
    }

    #[test]
    fn tol_addresses_skip_tlb() {
        let mut m = table_i();
        let a = m.access_data(Owner::Tol, 0x10, TOL_DATA_BASE + 0x100, false);
        assert!(a.l1_miss && a.l2_miss);
        assert_eq!(a.latency, 128, "no TLB serialization for physical TOL data");
        assert_eq!(m.owner_stats(Owner::Tol).tlb_walks, 0);
    }

    #[test]
    fn tol_accesses_evict_application_lines() {
        // App touches a line; TOL then floods the same set, evicting it.
        let mut m = table_i();
        m.access_data(Owner::App, 0x10, 0x4000, false);
        // 4-way L1D, 128 sets, 64B lines: stride 8192 stays in one set.
        for i in 0..8u64 {
            m.access_data(Owner::Tol, 0x20, TOL_DATA_BASE + 0x4000 + i * 8192, false);
        }
        let again = m.access_data(Owner::App, 0x10, 0x4000, false);
        assert!(again.l1_miss, "TOL evicted the app line");
    }

    #[test]
    fn per_owner_stats_tracked_even_when_shared() {
        let mut m = table_i();
        m.access_data(Owner::App, 0x10, 0x1000, false);
        m.access_data(Owner::Tol, 0x20, TOL_DATA_BASE, true);
        assert_eq!(m.owner_stats(Owner::App).d_accesses, 1);
        assert_eq!(m.owner_stats(Owner::Tol).d_accesses, 1);
        assert_eq!(m.owner_stats(Owner::App).d_misses, 1);
    }

    #[test]
    fn inst_fetch_path() {
        let mut m = table_i();
        let a = m.access_inst(Owner::App, 0x100);
        assert!(a.l1_miss);
        assert_eq!(a.latency, 128);
        let b = m.access_inst(Owner::App, 0x104);
        assert!(!b.l1_miss);
        assert_eq!(b.latency, 1);
        assert!(m.owner_stats(Owner::App).i_miss_rate() < 1.0);
    }

    #[test]
    fn fast_paths_match_full_probe_oracle() {
        // Flat layout + shortcuts vs the per-set, full-probe reference
        // model on a mixed stream (repeats, strides, one hammered set, sw
        // prefetches, both owners): every access result and all counters
        // must be identical.
        let cfg = TimingConfig::default();
        let mut f = MemSystem::new(&cfg);
        let mut s = crate::reference::FullProbeMemSystem::new(&cfg);
        let mut x = 0x853C_49E6_748F_EA9Bu64;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let owner = if x & 8 == 0 { Owner::App } else { Owner::Tol };
            let base = if owner == Owner::App { 0 } else { TOL_DATA_BASE };
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
                f.prefetch_fill(owner, addr);
                s.prefetch_fill(owner, addr);
            } else {
                assert_eq!(
                    f.access_data(owner, pc, addr, x & 16 == 0),
                    s.access_data(owner, pc, addr),
                    "access {i}"
                );
            }
            if i % 5 == 0 {
                assert_eq!(f.access_inst(owner, pc), s.access_inst(owner, pc));
            }
        }
        let counts = |s: OwnerMemStats| {
            [s.d_accesses, s.d_misses, s.i_accesses, s.i_misses, s.tlb_walks, s.sw_prefetches]
        };
        for o in [Owner::App, Owner::Tol] {
            assert_eq!(counts(f.owner_stats(o)), counts(s.owner_stats(o)), "{o:?}");
        }
        assert_eq!(f.prefetches(), s.prefetches());
    }

    #[test]
    fn prefetcher_hides_stream_misses() {
        let mut m = table_i();
        let pc = 0x500;
        let mut misses = 0;
        for i in 0..64u64 {
            let a = m.access_data(Owner::App, pc, 0x10000 + i * 64, false);
            if a.l1_miss {
                misses += 1;
            }
        }
        assert!(m.prefetches() > 0);
        // Far fewer misses than lines touched once prefetching kicks in.
        assert!(misses < 32, "prefetcher should cover the stream, got {misses}");
    }
}
