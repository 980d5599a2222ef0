//! Sparse paged guest memory.
//!
//! The guest sees a flat 32-bit address space, mapped in 4 KiB pages and
//! stored in 1 KiB frames. A page's four frames are allocated lazily,
//! each on the first write into its quarter, so programs with large but
//! sparsely-used footprints stay cheap to model: a page the guest wrote
//! one word of costs one frame, not four.
//!
//! # The page table
//!
//! A page number is 20 bits: the top ten index a 1024-entry directory,
//! the low ten a 1024-entry leaf, allocated on the first write into its
//! 4 MiB of guest space (16 KiB each). A leaf entry holds the page's
//! slot (an index into `slots` plus one, zero meaning "never written")
//! and its write generation; the slot holds the page's four frames. A
//! load is two dependent indexed reads, then the frame's pointer in the
//! slot and the frame; a store is one walk that stamps the generation
//! and gets the frame back; [`GuestMem::page_gen`] reads the same entry.
//! Nothing is hashed and no cache sits in front: the walk is as short as
//! a cache probe would be (DESIGN.md §16).
//!
//! # Zero-fill semantics
//!
//! Reads of memory never touched by a write return zero — this is a
//! contract, not an accident, and the workload generator relies on it for
//! its data regions. It interacts with the generation stamps as follows:
//! an unmapped page reads as all-zero *and* reports [`GuestMem::page_gen`]
//! of 0; the first write to it makes the page resident, allocates the
//! frame written and stamps the page with a non-zero generation. Reads
//! never allocate, neither a frame, a slot nor a leaf.
//!
//! # Width-native accesses
//!
//! A multi-byte access that stays inside one frame is served by a single
//! page-table walk; one that straddles a frame boundary is composed from
//! byte accesses. Either way the result is what `N` byte accesses would
//! produce, in contents *and* in generation stamps: a width-`N` write
//! advances the global write-generation counter by `N` and stamps the
//! page with the final value (a unit test holds the wide accessors to
//! exactly that, `tests/mem_reference.rs` the whole type to a
//! `BTreeMap` model).
//!
//! # Shared frames
//!
//! A frame is reference-counted, so a copy of a `GuestMem` shares every
//! frame with the original and costs only its page table. A store into
//! a shared frame first takes a private copy (copy on write), so neither
//! side ever sees the other's writes. Co-simulation splits memory with
//! [`GuestMem::share`]: from then on each side logs the frames it
//! allocates or unshares, and [`GuestMem::settle`] compares just those
//! at every step boundary and shares each one found equal again, so the
//! checker's side keeps a private copy only of what one step wrote
//! (DESIGN.md §16).

use std::rc::Rc;

/// Guest page size shift (4 KiB pages): the unit of
/// [`GuestMem::page_gen`], which the software layer's code cache and
/// profiler key their pages by.
pub const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Frame-number bits below the page number: a frame is a quarter page,
/// the unit of allocation (DESIGN.md §16 says why 1 KiB).
const FRAME_SHIFT: u32 = 10;
const FRAME_SIZE: usize = 1 << FRAME_SHIFT;
const FRAME_MASK: u32 = (FRAME_SIZE as u32) - 1;
const FRAMES_PER_PAGE: usize = PAGE_SIZE / FRAME_SIZE;

/// Page-number bits resolved by a leaf (the directory takes the rest).
const LEAF_BITS: u32 = 10;
const LEAF_LEN: usize = 1 << LEAF_BITS;
const DIR_LEN: usize = 1 << (32 - PAGE_SHIFT - LEAF_BITS);

type Frame = [u8; FRAME_SIZE];

/// A resident page: its frames in address order, each `None` until the
/// first write into its quarter. A frame may be shared with copies of
/// this address space; only a frame held once is written in place.
type Slot = [Option<Rc<Frame>>; FRAMES_PER_PAGE];

/// Index of the frame holding `addr` within its page's [`Slot`].
#[inline]
fn quarter(addr: u32) -> usize {
    (addr >> FRAME_SHIFT) as usize % FRAMES_PER_PAGE
}

/// One page-table entry. The default is an absent page: no slot,
/// generation 0.
#[derive(Debug, Clone, Copy, Default)]
struct Pte {
    /// Index into `slots` plus one; 0 = never written.
    slot1: u32,
    /// [`GuestMem::write_gen`] after the last write to the page.
    gen: u64,
}

type Leaf = [Pte; LEAF_LEN];

// First-touch allocation and unsharing, out of line and cold so that
// the rest of `GuestMem::write_frame` inlines into every store. Inlined,
// the frame's allocation alone made each store into an allocated frame
// more than twice as slow, and the leaf's gave every store call a 16 KiB
// stack frame to probe.

/// A leaf of absent entries.
#[cold]
#[inline(never)]
fn new_leaf() -> Box<Leaf> {
    Box::new([Pte::default(); LEAF_LEN])
}

/// Appends an empty slot and returns its index plus one.
#[cold]
#[inline(never)]
fn new_slot(slots: &mut Vec<Slot>) -> u32 {
    slots.push(Slot::default());
    slots.len() as u32
}

/// A zero-filled frame.
#[cold]
#[inline(never)]
fn new_frame() -> Rc<Frame> {
    Rc::new([0; FRAME_SIZE])
}

/// Makes the frame holding `addr` this side's own — zero-filled on first
/// touch, a private copy if it is shared — and logs its number when the
/// side keeps a write log.
#[cold]
#[inline(never)]
fn own_frame<'a>(
    frame: &'a mut Option<Rc<Frame>>,
    written: &mut Option<Vec<u32>>,
    addr: u32,
) -> &'a mut Frame {
    if let Some(log) = written {
        log.push(addr >> FRAME_SHIFT);
    }
    let own = match frame {
        Some(shared) => Rc::new(**shared),
        None => new_frame(),
    };
    Rc::make_mut(frame.insert(own))
}

/// Offset of the first byte at which two frames differ, an absent frame
/// reading as zeros. One frame shared by both sides is equal unread.
fn frame_difference(a: Option<&Rc<Frame>>, b: Option<&Rc<Frame>>) -> Option<usize> {
    const ZERO: Frame = [0; FRAME_SIZE];
    if let (Some(x), Some(y)) = (a, b) {
        if Rc::ptr_eq(x, y) {
            return None;
        }
    }
    let (x, y) = (a.map_or(&ZERO, |f| &**f), b.map_or(&ZERO, |f| &**f));
    if x == y {
        return None;
    }
    x.iter().zip(y).position(|(p, q)| p != q)
}

/// Sparse 32-bit guest address space: 4 KiB pages in 1 KiB frames.
///
/// Every write bumps a global write-generation counter and stamps the
/// touched page with it, so consumers that cache derived views of memory
/// (the micro-op buffers, the code cache's SMC stamps) can detect
/// self-modifying code with one [`GuestMem::page_gen`] comparison.
///
/// `clone` shares every frame (see the module docs), which is why a
/// `GuestMem` is neither `Send` nor `Sync`: each thread builds its own.
#[derive(Debug, Clone)]
pub struct GuestMem {
    /// Page slots, only ever appended: one per resident page.
    slots: Vec<Slot>,
    /// Directory of lazily allocated leaves, indexed by the top bits of
    /// the page number.
    dir: Box<[Option<Box<Leaf>>; DIR_LEN]>,
    write_gen: u64,
    /// Numbers (`addr >> 10`) of the frames allocated or unshared since
    /// the last [`GuestMem::settle`]; `None`, and never touched, unless
    /// the space was split by [`GuestMem::share`].
    written: Option<Vec<u32>>,
}

impl Default for GuestMem {
    fn default() -> GuestMem {
        GuestMem {
            slots: Vec::new(),
            dir: Box::new(std::array::from_fn(|_| None)),
            write_gen: 0,
            written: None,
        }
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

    /// Heap bytes held by frames: what the guest's writes cost.
    pub fn frame_bytes(&self) -> usize {
        self.slots.iter().flatten().flatten().map(|f| std::mem::size_of_val(&**f)).sum()
    }

    /// Heap bytes held by frames no copy of this space shares: what it
    /// costs beyond the copies.
    pub fn private_frame_bytes(&self) -> usize {
        let private = self.slots.iter().flatten().flatten().filter(|f| Rc::strong_count(f) == 1);
        private.map(|f| std::mem::size_of_val(&**f)).sum()
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

    /// The slot of page `pn`, `None` if it was never written.
    #[inline]
    fn slot(&self, pn: u32) -> Option<&Slot> {
        // `slot1 == 0` wraps to an index no `Vec` has, so the one bounds
        // check is also the presence check.
        self.slots.get((self.pte(pn).slot1 as usize).wrapping_sub(1))
    }

    /// The frame holding `addr`, `None` if nothing was written into it.
    #[inline]
    fn frame(&self, addr: u32) -> Option<&Frame> {
        self.slot(addr >> PAGE_SHIFT)?[quarter(addr)].as_deref()
    }

    /// Stamps the page of `addr` with `gen` and hands `write` the frame
    /// holding `addr`, allocating leaf, slot and frame (zero-filled) on
    /// first touch and unsharing a shared frame. (`write` rather than a
    /// returned `&mut Frame`: returning the frame from the held-once
    /// test's arm would keep the slot borrowed in the other arm.)
    #[inline]
    fn write_frame(&mut self, addr: u32, gen: u64, write: impl FnOnce(&mut Frame)) {
        let pn = addr >> PAGE_SHIFT;
        let leaf = self.dir[(pn >> LEAF_BITS) as usize].get_or_insert_with(new_leaf);
        let pte = &mut leaf[pn as usize % LEAF_LEN];
        pte.gen = gen;
        if pte.slot1 == 0 {
            pte.slot1 = new_slot(&mut self.slots);
        }
        let frame = &mut self.slots[pte.slot1 as usize - 1][quarter(addr)];
        match frame.as_mut().and_then(Rc::get_mut) {
            Some(own) => write(own),
            None => write(own_frame(frame, &mut self.written, addr)),
        }
    }

    /// Reads one byte. Untouched memory reads as zero.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.frame(addr) {
            Some(f) => f[(addr & FRAME_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte, allocating its frame if needed.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, val: u8) {
        self.write_gen += 1;
        self.write_frame(addr, self.write_gen, |f| f[(addr & FRAME_MASK) as usize] = val);
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
    /// access stays within a frame; returns `None` (caller falls back to
    /// the byte path) when it crosses into the next one.
    #[inline]
    fn read_in_frame<const W: usize>(&self, addr: u32) -> Option<[u8; W]> {
        let off = (addr & FRAME_MASK) as usize;
        if off > FRAME_SIZE - W {
            return None;
        }
        Some(match self.frame(addr) {
            Some(f) => f[off..off + W].try_into().expect("in-frame slice of width W"),
            None => [0u8; W],
        })
    }

    /// Writes `W` little-endian bytes in one page-table walk when
    /// in-frame; generation arithmetic is identical to `W` byte writes
    /// (counter advances by `W`, page stamped with the final value).
    /// Returns `false` (caller falls back) on frame-crossing.
    #[inline]
    fn write_in_frame<const W: usize>(&mut self, addr: u32, bytes: [u8; W]) -> bool {
        let off = (addr & FRAME_MASK) as usize;
        if off > FRAME_SIZE - W {
            return false;
        }
        self.write_gen += W as u64;
        self.write_frame(addr, self.write_gen, |f| f[off..off + W].copy_from_slice(&bytes));
        true
    }

    /// Reads a little-endian 16-bit halfword.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        if let Some(b) = self.read_in_frame::<2>(addr) {
            return u16::from_le_bytes(b);
        }
        self.read_u8(addr) as u16 | (self.read_u8(addr.wrapping_add(1)) as u16) << 8
    }

    /// Writes a little-endian 16-bit halfword.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, val: u16) {
        if self.write_in_frame(addr, val.to_le_bytes()) {
            return;
        }
        self.write_u8(addr, val as u8);
        self.write_u8(addr.wrapping_add(1), (val >> 8) as u8);
    }

    /// Reads a little-endian 32-bit word (unaligned is fine, wrapping at
    /// the top of the address space).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        if let Some(b) = self.read_in_frame::<4>(addr) {
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
        if self.write_in_frame(addr, val.to_le_bytes()) {
            return;
        }
        for (i, b) in val.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Reads a little-endian 64-bit word.
    #[inline]
    pub fn read_u64(&self, addr: u32) -> u64 {
        if let Some(b) = self.read_in_frame::<8>(addr) {
            return u64::from_le_bytes(b);
        }
        let lo = self.read_u32(addr) as u64;
        let hi = self.read_u32(addr.wrapping_add(4)) as u64;
        lo | (hi << 32)
    }

    /// Writes a little-endian 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, addr: u32, val: u64) {
        if self.write_in_frame(addr, val.to_le_bytes()) {
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

    /// Copies a byte slice into memory starting at `addr`, a frame
    /// chunk at a time, with the generation arithmetic of a byte loop
    /// (each touched page is stamped with the counter value after its
    /// last byte, in ascending order).
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let mut a = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (a & FRAME_MASK) as usize;
            let n = rest.len().min(FRAME_SIZE - off);
            self.write_gen += n as u64;
            self.write_frame(a, self.write_gen, |f| f[off..off + n].copy_from_slice(&rest[..n]));
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
            let off = (a & FRAME_MASK) as usize;
            let n = rest.len().min(FRAME_SIZE - off);
            match self.frame(a) {
                Some(f) => rest[..n].copy_from_slice(&f[off..off + n]),
                None => rest[..n].fill(0),
            }
            a = a.wrapping_add(n as u32);
            rest = &mut rest[n..];
        }
    }

    /// The frame of number `fno` (`addr >> 10`), `None` if absent.
    fn frame_rc(&self, fno: u32) -> Option<&Rc<Frame>> {
        self.slot(fno >> (PAGE_SHIFT - FRAME_SHIFT))?[fno as usize % FRAMES_PER_PAGE].as_ref()
    }

    /// Compares two address spaces byte-for-byte and returns the lowest
    /// differing address, treating absent frames as zero-filled. Walks
    /// both page tables in address order; a 4 MiB range with no leaf on
    /// either side is skipped whole, and so is a page with no slot and a
    /// frame both sides share.
    pub fn first_difference(&self, other: &GuestMem) -> Option<u32> {
        for (d, (la, lb)) in self.dir.iter().zip(other.dir.iter()).enumerate() {
            if la.is_none() && lb.is_none() {
                continue;
            }
            for pn in (d << LEAF_BITS) as u32..((d + 1) << LEAF_BITS) as u32 {
                let (sa, sb) = (self.slot(pn), other.slot(pn));
                if sa.is_none() && sb.is_none() {
                    continue;
                }
                for q in 0..FRAMES_PER_PAGE {
                    let (a, b) = (sa.and_then(|s| s[q].as_ref()), sb.and_then(|s| s[q].as_ref()));
                    if let Some(off) = frame_difference(a, b) {
                        return Some((pn << PAGE_SHIFT) + (q << FRAME_SHIFT) as u32 + off as u32);
                    }
                }
            }
        }
        None
    }

    /// Splits this space for co-simulation: returns a copy sharing every
    /// frame, and from now on both sides log the frames they allocate or
    /// unshare, for [`GuestMem::settle`].
    pub fn share(&mut self) -> GuestMem {
        self.written = Some(Vec::new());
        self.clone()
    }

    /// Compares, byte for byte, every frame either side logged since
    /// the last settle (the two descend from one [`GuestMem::share`]),
    /// empties both logs and, where a frame is equal on both sides,
    /// drops this side's copy and shares `other`'s. Afterwards the two
    /// sides hold the same frames wherever their contents agree; page
    /// generations and the write counter are untouched on both.
    ///
    /// # Errors
    ///
    /// Returns the lowest address at which the two sides differ. Frames
    /// that differ stay in this side's log, so the next settle compares
    /// them again.
    pub fn settle(&mut self, other: &mut GuestMem) -> Result<(), u32> {
        let mut frames = self.written.take().unwrap_or_default();
        frames.extend(other.written.iter_mut().flat_map(|log| log.drain(..)));
        frames.sort_unstable();
        frames.dedup();
        let mut first = None;
        frames.retain(|&fno| {
            let theirs = other.frame_rc(fno);
            if let Some(off) = frame_difference(self.frame_rc(fno), theirs) {
                first.get_or_insert((fno << FRAME_SHIFT) + off as u32);
                return true;
            }
            let slot1 = self.pte(fno >> (PAGE_SHIFT - FRAME_SHIFT)).slot1;
            match self.slots.get_mut((slot1 as usize).wrapping_sub(1)) {
                Some(slot) => {
                    slot[fno as usize % FRAMES_PER_PAGE] = theirs.cloned();
                    false
                }
                // Zeros on `other` in a page this side never wrote: there
                // is no copy to drop, and nothing to share them into
                // without making the page resident here.
                None => theirs.is_some(),
            }
        });
        self.written = Some(frames);
        first.map_or(Ok(()), Err)
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
        m.write_u16(0x7FF, 0xBEEF); // straddles two frames of one page
        assert_eq!(m.read_u16(0x7FF), 0xBEEF);
        assert_eq!(m.read_u8(0x7FF), 0xEF);
        assert_eq!(m.read_u8(0x800), 0xBE);
    }

    /// One word written in the third quarter of each of 64 pages costs
    /// 64 frames of 1 KiB, not 64 whole pages (256 frames' worth); the
    /// other quarters read as zero and reading them allocates nothing.
    #[test]
    fn a_sparse_page_costs_one_frame() {
        let mut m = GuestMem::new();
        for p in 0..64u32 {
            m.write_u32((p << PAGE_SHIFT) + 0x800, 0xA5A5_0000 | p);
        }
        assert_eq!(m.frame_bytes(), 64 * 1024);
        for p in 0..64u32 {
            let base = p << PAGE_SHIFT;
            assert_eq!(m.read_u32(base + 0x800), 0xA5A5_0000 | p);
            for quarter in [0x000, 0x400, 0xC00] {
                let mut got = [0xFFu8; 1024];
                m.read_bytes(base + quarter, &mut got);
                assert!(got.iter().all(|&b| b == 0), "page {p}, quarter {quarter:#x}");
                assert_eq!(m.read_u64(base + quarter + 0x3F8), 0, "page {p}, {quarter:#x} + 0x3F8");
            }
        }
        assert_eq!(m.frame_bytes(), 64 * 1024, "a read allocated");
        assert_eq!(m.resident_pages(), 64);
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
    /// *and* generation stamps for every width, including frame- and
    /// page-straddling accesses.
    #[test]
    fn wide_accesses_match_byte_composition() {
        let addrs = [
            0x1000,
            0x1001,
            0x0FFE,
            0x0FFF,
            0x13FD,
            0x17FE,
            0x1BF9,
            0x1FFC,
            0x1FFD,
            0x2FFA,
            u32::MAX - 3,
            u32::MAX,
        ];
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
