//! Sparse paged guest memory.
//!
//! The guest sees a flat 32-bit address space. Pages (4 KiB) are allocated
//! lazily on first touch, so programs with large but sparsely-used
//! footprints stay cheap to model.
//!
//! # The page table
//!
//! A page number is 20 bits: the top ten index a 1024-entry directory,
//! the low ten a 1024-entry leaf, allocated on the first write into its
//! 4 MiB of guest space (16 KiB each). A leaf entry holds the page's
//! frame (an index into `slots` plus one, zero meaning "absent") and its
//! write generation. A load is two dependent indexed reads and then the
//! frame; a store is one walk that stamps the generation and gets the
//! frame back; [`GuestMem::page_gen`] reads the same entry. Nothing is
//! hashed and no cache sits in front: the walk is as short as a cache
//! probe would be (DESIGN.md §16).
//!
//! # Zero-fill semantics
//!
//! Reads of memory never touched by a write return zero — this is a
//! contract, not an accident, and the workload generator relies on it for
//! its data regions. It interacts with the generation stamps as follows:
//! an unmapped page reads as all-zero *and* reports [`GuestMem::page_gen`]
//! of 0; the first write to it allocates the page and stamps it with a
//! non-zero generation. Reads never allocate, neither a frame nor a leaf.
//!
//! # Width-native accesses
//!
//! A multi-byte access that stays inside one page is served by a single
//! page-table walk; one that straddles a page boundary is composed from
//! byte accesses. Either way the result is what `N` byte accesses would
//! produce, in contents *and* in generation stamps: a width-`N` write
//! advances the global write-generation counter by `N` and stamps the
//! page with the final value (a unit test holds the wide accessors to
//! exactly that, `tests/mem_reference.rs` the whole type to a
//! `BTreeMap` model).

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;

/// Page-number bits resolved by a leaf (the directory takes the rest).
const LEAF_BITS: u32 = 10;
const LEAF_LEN: usize = 1 << LEAF_BITS;
const DIR_LEN: usize = 1 << (32 - PAGE_SHIFT - LEAF_BITS);

type Frame = [u8; PAGE_SIZE];

/// One page-table entry. The default is an absent page: no frame,
/// generation 0.
#[derive(Debug, Clone, Copy, Default)]
struct Pte {
    /// Index into `slots` plus one; 0 = never written.
    slot1: u32,
    /// [`GuestMem::write_gen`] after the last write to the page.
    gen: u64,
}

type Leaf = [Pte; LEAF_LEN];

/// Sparse 32-bit guest address space with 4 KiB pages.
///
/// Every write bumps a global write-generation counter and stamps the
/// touched page with it, so consumers that cache derived views of memory
/// (the micro-op buffers, the code cache's SMC stamps) can detect
/// self-modifying code with one [`GuestMem::page_gen`] comparison.
#[derive(Debug, Clone)]
pub struct GuestMem {
    /// Page frames, only ever appended: one per resident page.
    slots: Vec<Box<Frame>>,
    /// Directory of lazily allocated leaves, indexed by the top bits of
    /// the page number.
    dir: Box<[Option<Box<Leaf>>; DIR_LEN]>,
    write_gen: u64,
}

// Nothing here is interior-mutable, so `&GuestMem` may cross threads;
// this keeps it so.
const _: fn() = || {
    fn sync<T: Sync>() {}
    sync::<GuestMem>();
};

impl Default for GuestMem {
    fn default() -> GuestMem {
        GuestMem { slots: Vec::new(), dir: Box::new(std::array::from_fn(|_| None)), write_gen: 0 }
    }
}

impl GuestMem {
    /// Creates an empty address space (all bytes read as zero).
    pub fn new() -> GuestMem {
        GuestMem::default()
    }

    /// Number of pages that have been touched by a write.
    pub fn resident_pages(&self) -> usize {
        self.slots.len()
    }

    /// The page-table entry of page `pn` (the absent entry if its leaf
    /// was never allocated).
    #[inline]
    fn pte(&self, pn: u32) -> Pte {
        match &self.dir[(pn >> LEAF_BITS) as usize] {
            Some(leaf) => leaf[pn as usize % LEAF_LEN],
            None => Pte::default(),
        }
    }

    /// The frame of page `pn`, `None` if it was never written.
    #[inline]
    fn frame(&self, pn: u32) -> Option<&Frame> {
        // `slot1 == 0` wraps to an index no `Vec` has, so the one bounds
        // check is also the presence check.
        self.slots.get((self.pte(pn).slot1 as usize).wrapping_sub(1)).map(|f| &**f)
    }

    /// Stamps page `pn` with `gen` and returns its frame, allocating leaf
    /// and frame (zero-filled) on first touch.
    #[inline]
    fn slot_mut(&mut self, pn: u32, gen: u64) -> &mut Frame {
        let leaf = self.dir[(pn >> LEAF_BITS) as usize]
            .get_or_insert_with(|| Box::new([Pte::default(); LEAF_LEN]));
        let pte = &mut leaf[pn as usize % LEAF_LEN];
        pte.gen = gen;
        if pte.slot1 == 0 {
            self.slots.push(Box::new([0u8; PAGE_SIZE]));
            pte.slot1 = self.slots.len() as u32;
        }
        &mut self.slots[pte.slot1 as usize - 1]
    }

    /// Reads one byte. Untouched memory reads as zero.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.frame(addr >> PAGE_SHIFT) {
            Some(f) => f[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte, allocating the page if needed.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, val: u8) {
        self.write_gen += 1;
        self.slot_mut(addr >> PAGE_SHIFT, self.write_gen)[(addr & PAGE_MASK) as usize] = val;
    }

    /// Write generation of the page containing `addr`: strictly
    /// monotonic across writes anywhere, per-page precise. A page never
    /// written is generation 0 (and reads as zero — see the module docs).
    #[inline]
    pub fn page_gen(&self, addr: u32) -> u64 {
        self.pte(addr >> PAGE_SHIFT).gen
    }

    /// The global write-generation counter (total bytes written).
    pub fn write_gen(&self) -> u64 {
        self.write_gen
    }

    /// Reads `W` little-endian bytes in one page-table walk when the
    /// access stays within a page; returns `None` (caller falls back to
    /// the byte path) on page-crossing.
    #[inline]
    fn read_in_page<const W: usize>(&self, addr: u32) -> Option<[u8; W]> {
        let off = (addr & PAGE_MASK) as usize;
        if off > PAGE_SIZE - W {
            return None;
        }
        Some(match self.frame(addr >> PAGE_SHIFT) {
            Some(f) => f[off..off + W].try_into().expect("in-page slice of width W"),
            None => [0u8; W],
        })
    }

    /// Writes `W` little-endian bytes in one page-table walk when
    /// in-page; generation arithmetic is identical to `W` byte writes
    /// (counter advances by `W`, page stamped with the final value).
    /// Returns `false` (caller falls back) on page-crossing.
    #[inline]
    fn write_in_page<const W: usize>(&mut self, addr: u32, bytes: [u8; W]) -> bool {
        let off = (addr & PAGE_MASK) as usize;
        if off > PAGE_SIZE - W {
            return false;
        }
        self.write_gen += W as u64;
        self.slot_mut(addr >> PAGE_SHIFT, self.write_gen)[off..off + W].copy_from_slice(&bytes);
        true
    }

    /// Reads a little-endian 16-bit halfword.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        if let Some(b) = self.read_in_page::<2>(addr) {
            return u16::from_le_bytes(b);
        }
        self.read_u8(addr) as u16 | (self.read_u8(addr.wrapping_add(1)) as u16) << 8
    }

    /// Writes a little-endian 16-bit halfword.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, val: u16) {
        if self.write_in_page(addr, val.to_le_bytes()) {
            return;
        }
        self.write_u8(addr, val as u8);
        self.write_u8(addr.wrapping_add(1), (val >> 8) as u8);
    }

    /// Reads a little-endian 32-bit word (unaligned is fine, wrapping at
    /// the top of the address space).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        if let Some(b) = self.read_in_page::<4>(addr) {
            return u32::from_le_bytes(b);
        }
        let mut v = 0u32;
        for i in 0..4 {
            v |= (self.read_u8(addr.wrapping_add(i)) as u32) << (8 * i);
        }
        v
    }

    /// Writes a little-endian 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, val: u32) {
        if self.write_in_page(addr, val.to_le_bytes()) {
            return;
        }
        for (i, b) in val.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Reads a little-endian 64-bit word.
    #[inline]
    pub fn read_u64(&self, addr: u32) -> u64 {
        if let Some(b) = self.read_in_page::<8>(addr) {
            return u64::from_le_bytes(b);
        }
        let lo = self.read_u32(addr) as u64;
        let hi = self.read_u32(addr.wrapping_add(4)) as u64;
        lo | (hi << 32)
    }

    /// Writes a little-endian 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, addr: u32, val: u64) {
        if self.write_in_page(addr, val.to_le_bytes()) {
            return;
        }
        self.write_u32(addr, val as u32);
        self.write_u32(addr.wrapping_add(4), (val >> 32) as u32);
    }

    /// Reads an `f64` stored with [`GuestMem::write_f64`].
    #[inline]
    pub fn read_f64(&self, addr: u32) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn write_f64(&mut self, addr: u32, val: f64) {
        self.write_u64(addr, val.to_bits());
    }

    /// Copies a byte slice into memory starting at `addr`, a page chunk
    /// at a time, with the generation arithmetic of a byte loop (each
    /// touched page is stamped with the counter value after its last
    /// byte, in ascending order).
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let mut a = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (a & PAGE_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            self.write_gen += n as u64;
            self.slot_mut(a >> PAGE_SHIFT, self.write_gen)[off..off + n]
                .copy_from_slice(&rest[..n]);
            a = a.wrapping_add(n as u32);
            rest = &rest[n..];
        }
    }

    /// Copies `buf.len()` bytes out of memory starting at `addr`
    /// (untouched ranges read as zero).
    pub fn read_bytes(&self, addr: u32, buf: &mut [u8]) {
        let mut a = addr;
        let mut rest = &mut buf[..];
        while !rest.is_empty() {
            let off = (a & PAGE_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            match self.frame(a >> PAGE_SHIFT) {
                Some(f) => rest[..n].copy_from_slice(&f[off..off + n]),
                None => rest[..n].fill(0),
            }
            a = a.wrapping_add(n as u32);
            rest = &mut rest[n..];
        }
    }

    /// Returns up to `max` bytes starting at `addr`, for use by the
    /// instruction decoder.
    pub fn window(&self, addr: u32, max: usize) -> Vec<u8> {
        let mut buf = vec![0u8; max];
        self.read_bytes(addr, &mut buf);
        buf
    }

    /// Compares two address spaces byte-for-byte and returns the lowest
    /// differing address, treating absent pages as zero-filled. Walks
    /// both page tables in address order; a 4 MiB range with no leaf on
    /// either side is skipped whole.
    pub fn first_difference(&self, other: &GuestMem) -> Option<u32> {
        const ZERO: Frame = [0; PAGE_SIZE];
        for (d, (la, lb)) in self.dir.iter().zip(other.dir.iter()).enumerate() {
            if la.is_none() && lb.is_none() {
                continue;
            }
            for pn in (d << LEAF_BITS) as u32..((d + 1) << LEAF_BITS) as u32 {
                let (a, b) = (self.frame(pn), other.frame(pn));
                if a.is_none() && b.is_none() {
                    continue;
                }
                let (a, b) = (a.unwrap_or(&ZERO), b.unwrap_or(&ZERO));
                if a != b {
                    let off = a.iter().zip(b).position(|(x, y)| x != y).expect("pages differ");
                    return Some((pn << PAGE_SHIFT) + off as u32);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = GuestMem::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xFFFF_FFFC), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    /// Pins the contract documented at the top of this module: an
    /// unmapped page reads as zero with generation 0, and the first
    /// write is visible immediately through every access path, with or
    /// without a leaf already there.
    #[test]
    fn zero_fill_first_touch_is_visible() {
        let mut m = GuestMem::new();
        // Read the page while unmapped: reads allocate nothing.
        assert_eq!(m.read_u32(0x9000), 0);
        assert_eq!(m.read_u8(0x9002), 0);
        assert_eq!(m.page_gen(0x9000), 0);
        assert_eq!(m.resident_pages(), 0);
        // First-touch write must be observed by both access widths.
        m.write_u8(0x9002, 0xAB);
        assert_eq!(m.read_u8(0x9002), 0xAB);
        assert_eq!(m.read_u32(0x9000), 0x00AB_0000);
        assert!(m.page_gen(0x9000) > 0);
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = GuestMem::new();
        m.write_u32(0x1000, 0xDEAD_BEEF);
        assert_eq!(m.read_u32(0x1000), 0xDEAD_BEEF);
        assert_eq!(m.read_u8(0x1000), 0xEF);
        assert_eq!(m.read_u8(0x1003), 0xDE);
        m.write_u64(0x2000, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u64(0x2000), 0x0123_4567_89AB_CDEF);
        m.write_f64(0x3000, -1.5);
        assert_eq!(m.read_f64(0x3000), -1.5);
    }

    #[test]
    fn unaligned_cross_page() {
        let mut m = GuestMem::new();
        // Straddles the page boundary at 0x1000.
        m.write_u32(0x0FFE, 0xAABB_CCDD);
        assert_eq!(m.read_u32(0x0FFE), 0xAABB_CCDD);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn u16_roundtrip() {
        let mut m = GuestMem::new();
        m.write_u16(0x7FF, 0xBEEF); // straddles nothing special
        assert_eq!(m.read_u16(0x7FF), 0xBEEF);
        assert_eq!(m.read_u8(0x7FF), 0xEF);
        assert_eq!(m.read_u8(0x800), 0xBE);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = GuestMem::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x5000, &data);
        let mut back = vec![0u8; 256];
        m.read_bytes(0x5000, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn write_generations_are_per_page_precise() {
        let mut m = GuestMem::new();
        assert_eq!(m.page_gen(0x1000), 0);
        m.write_u8(0x1000, 1);
        let g1 = m.page_gen(0x1000);
        assert!(g1 > 0);
        // A write to a *different* page leaves this page's stamp alone.
        m.write_u8(0x5000, 2);
        assert_eq!(m.page_gen(0x1000), g1);
        assert!(m.page_gen(0x5000) > g1);
        // A second write to the same page advances its stamp.
        m.write_u8(0x1FFF, 3);
        assert!(m.page_gen(0x1000) > g1);
        assert_eq!(m.write_gen(), 3);
    }

    #[test]
    fn address_wraparound() {
        let mut m = GuestMem::new();
        m.write_u32(u32::MAX - 1, 0x1122_3344);
        assert_eq!(m.read_u32(u32::MAX - 1), 0x1122_3344);
        assert_eq!(m.read_u8(0), 0x22);
        assert_eq!(m.read_u8(1), 0x11);
    }

    /// Writes `bytes` one [`GuestMem::write_u8`] at a time: the byte
    /// composition every wide accessor must be indistinguishable from.
    fn write_bytewise(m: &mut GuestMem, addr: u32, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            m.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Reads `N` bytes one [`GuestMem::read_u8`] at a time.
    fn read_bytewise<const N: usize>(m: &GuestMem, addr: u32) -> [u8; N] {
        std::array::from_fn(|i| m.read_u8(addr.wrapping_add(i as u32)))
    }

    /// The wide accessors must agree with byte composition on contents
    /// *and* generation stamps for every width, including
    /// page-straddling accesses.
    #[test]
    fn wide_accesses_match_byte_composition() {
        let addrs =
            [0x1000, 0x1001, 0x0FFE, 0x0FFF, 0x1FFC, 0x1FFD, 0x2FFA, u32::MAX - 3, u32::MAX];
        let mut wide = GuestMem::new();
        let mut bytes = GuestMem::new();
        let mut x = 0x1234_5678_9ABC_DEFFu64;
        for &a in &addrs {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            wide.write_u8(a, x as u8);
            write_bytewise(&mut bytes, a, &[x as u8]);
            wide.write_u16(a.wrapping_add(2), x as u16);
            write_bytewise(&mut bytes, a.wrapping_add(2), &(x as u16).to_le_bytes());
            wide.write_u32(a.wrapping_add(4), x as u32);
            write_bytewise(&mut bytes, a.wrapping_add(4), &(x as u32).to_le_bytes());
            wide.write_u64(a.wrapping_add(8), x);
            write_bytewise(&mut bytes, a.wrapping_add(8), &x.to_le_bytes());
            wide.write_bytes(a.wrapping_add(16), &x.to_le_bytes());
            write_bytewise(&mut bytes, a.wrapping_add(16), &x.to_le_bytes());
        }
        assert_eq!(wide.write_gen(), bytes.write_gen());
        assert_eq!(wide.first_difference(&bytes), None);
        for &a in &addrs {
            assert_eq!(wide.page_gen(a), bytes.page_gen(a), "page_gen at {a:#x}");
            for off in 0..24u32 {
                let p = a.wrapping_add(off);
                assert_eq!(wide.read_u16(p).to_le_bytes(), read_bytewise::<2>(&bytes, p));
                assert_eq!(wide.read_u32(p).to_le_bytes(), read_bytewise::<4>(&bytes, p));
                assert_eq!(wide.read_u64(p).to_le_bytes(), read_bytewise::<8>(&bytes, p));
            }
            let mut chunked = [0u8; 40];
            wide.read_bytes(a, &mut chunked);
            assert_eq!(chunked, read_bytewise::<40>(&bytes, a));
        }
    }
}
