//! [`GuestMem`] against a model that is obviously right: a `BTreeMap`
//! from page number to (page bytes, write generation) and a counter,
//! written and read one byte at a time.
//!
//! Two address spaces run side by side (so that `clone()`, `share()`,
//! `settle` and `first_difference` have something to work on), each
//! with its model. After every operation the bytes around the access,
//! the generation of the pages it touched, `write_gen`, `resident_pages`
//! and `first_difference` must equal the model's; every few operations
//! every page either side knows is swept in full. Once the two have been
//! split by `share()`, `settle` must succeed exactly when the models are
//! equal, and otherwise name their lowest differing address.

use darco_guest::exec::MAX_INST_LEN;
use darco_guest::GuestMem;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const PAGE: usize = 4096;

#[derive(Clone, Default)]
struct Model {
    pages: BTreeMap<u32, ([u8; PAGE], u64)>,
    counter: u64,
}

impl Model {
    fn read(&self, addr: u32) -> u8 {
        self.pages.get(&(addr >> 12)).map_or(0, |(p, _)| p[addr as usize % PAGE])
    }

    fn write(&mut self, addr: u32, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            let a = addr.wrapping_add(i as u32);
            self.counter += 1;
            let (page, gen) = self.pages.entry(a >> 12).or_insert_with(|| ([0; PAGE], 0));
            page[a as usize % PAGE] = *b;
            *gen = self.counter;
        }
    }

    fn read_n(&self, addr: u32, n: usize) -> Vec<u8> {
        (0..n).map(|i| self.read(addr.wrapping_add(i as u32))).collect()
    }

    fn page_gen(&self, addr: u32) -> u64 {
        self.pages.get(&(addr >> 12)).map_or(0, |(_, g)| *g)
    }

    /// Lowest address whose byte differs, an absent page being zeros.
    fn first_difference(&self, other: &Model) -> Option<u32> {
        const ZERO: [u8; PAGE] = [0; PAGE];
        let mut pns: Vec<u32> = self.pages.keys().chain(other.pages.keys()).copied().collect();
        pns.sort_unstable();
        pns.dedup();
        pns.into_iter().find_map(|pn| {
            let a = self.pages.get(&pn).map_or(&ZERO, |(p, _)| p);
            let b = other.pages.get(&pn).map_or(&ZERO, |(p, _)| p);
            if a == b {
                return None;
            }
            (0..PAGE).find(|&i| a[i] != b[i]).map(|i| (pn << 12) + i as u32)
        })
    }
}

/// One address space and its model.
#[derive(Clone, Default)]
struct Side {
    mem: GuestMem,
    model: Model,
}

impl Side {
    /// Everything cheap, plus the bytes and generations around
    /// `addr..addr + len`.
    fn check_around(&self, addr: u32, len: usize, ctx: &str) {
        assert_eq!(self.mem.write_gen(), self.model.counter, "{ctx}: write_gen");
        assert_eq!(self.mem.resident_pages(), self.model.pages.len(), "{ctx}: resident_pages");
        let from = addr.wrapping_sub(8);
        for i in 0..len as u32 + 16 {
            let a = from.wrapping_add(i);
            assert_eq!(self.mem.read_u8(a), self.model.read(a), "{ctx}: byte at {a:#x}");
        }
        // Page by page over the access, and one page either side of it.
        let first = addr.wrapping_sub(PAGE as u32);
        for i in 0..len.div_ceil(PAGE) as u32 + 3 {
            let a = first.wrapping_add(i * PAGE as u32);
            assert_eq!(self.mem.page_gen(a), self.model.page_gen(a), "{ctx}: page_gen at {a:#x}");
        }
    }

    /// Every page the model holds and every [`HOT`] page, in full.
    fn sweep(&self, ctx: &str) {
        let pns = self.model.pages.keys().copied().chain(HOT.iter().map(|a| a >> 12));
        for pn in pns {
            let base = pn << 12;
            let mut got = [0u8; PAGE];
            self.mem.read_bytes(base, &mut got);
            let want = self.model.pages.get(&pn).map_or([0; PAGE], |(p, _)| *p);
            assert!(got == want, "{ctx}: page {pn:#x} contents");
            assert_eq!(self.mem.page_gen(base), self.model.page_gen(base), "{ctx}: page {pn:#x}");
        }
    }
}

/// Page bases the script keeps coming back to: both ends of the address
/// space, both sides of a leaf boundary (4 MiB), pages whose directory
/// and leaf indices differ, and two pages that differ only in the
/// directory index.
const HOT: [u32; 9] = [
    0x0000_0000,
    0x0000_1000,
    0x003F_F000,
    0x0040_0000,
    0x0040_1000,
    0x1234_5000,
    0x8000_1000,
    0xFFFF_E000,
    0xFFFF_F000,
];

fn address(rng: &mut SmallRng) -> u32 {
    let mut base = HOT[rng.gen_range(0..HOT.len())];
    match rng.gen_range(0..100u32) {
        0..=89 => {}
        // Any page of the same leaf; now and then, any page at all.
        90..=97 => base ^= rng.gen_range(0..1024u32) << 12,
        _ => base = rng.gen(),
    }
    // Half the accesses sit within eight bytes below a 1 KiB boundary,
    // the end of the page or one inside it, so that every width
    // straddles two frames (and at the last page, wraps).
    let off = if rng.gen_bool(0.5) {
        rng.gen_range(1..5u32) * 1024 - rng.gen_range(1..9u32)
    } else {
        rng.gen_range(0..4096)
    };
    (base & !0xFFF) + off
}

fn payload(rng: &mut SmallRng, len: usize) -> Vec<u8> {
    // All-zero writes matter: they allocate, yet compare equal to absence.
    let zero = rng.gen_bool(0.1);
    (0..len).map(|_| if zero { 0 } else { rng.gen_range(0..256u32) as u8 }).collect()
}

fn run_script(seed: u64, ops: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sides = [Side::default(), Side::default()];
    // Pages no operation has touched yet, for first-touch-after-read:
    // every third page of a range `address` stays out of, which starts
    // in a leaf of the seed's own and runs on into the next ones.
    let mut untouched = (0x2000_0000u32 + (seed as u32 % 64) * 0x0100_0000..).step_by(0x3000);
    // Whether the two sides descend from one `share()`, which `settle`
    // requires.
    let mut split = false;

    for op in 0..ops {
        let which = rng.gen_range(0..2usize);
        let kind = rng.gen_range(0..14u32);
        let ctx = format!("seed {seed}, op {op} (kind {kind}, side {which})");
        let addr = address(&mut rng);
        let mut len = 8;
        let Side { mem, model } = &mut sides[which];
        match kind {
            0 => {
                let v: u64 = rng.gen();
                mem.write_u8(addr, v as u8);
                model.write(addr, &[v as u8]);
            }
            1 => {
                let v: u64 = rng.gen();
                mem.write_u16(addr, v as u16);
                model.write(addr, &(v as u16).to_le_bytes());
            }
            2 => {
                let v: u64 = rng.gen();
                mem.write_u32(addr, v as u32);
                model.write(addr, &(v as u32).to_le_bytes());
            }
            3 => {
                let v: u64 = rng.gen();
                mem.write_u64(addr, v);
                model.write(addr, &v.to_le_bytes());
            }
            4 => {
                // Any bit pattern, NaNs included, must survive unchanged.
                let v = f64::from_bits(rng.gen());
                mem.write_f64(addr, v);
                model.write(addr, &v.to_bits().to_le_bytes());
            }
            5 => {
                len = if rng.gen_bool(0.8) { rng.gen_range(0..40) } else { rng.gen_range(0..9000) };
                let bytes = payload(&mut rng, len);
                mem.write_bytes(addr, &bytes);
                model.write(addr, &bytes);
            }
            6 => {
                let want = model.read_n(addr, 8);
                assert_eq!(mem.read_u8(addr), want[0], "{ctx}: read_u8");
                assert_eq!(mem.read_u16(addr).to_le_bytes(), want[..2], "{ctx}: read_u16");
                assert_eq!(mem.read_u32(addr).to_le_bytes(), want[..4], "{ctx}: read_u32");
                assert_eq!(mem.read_u64(addr).to_le_bytes(), want[..8], "{ctx}: read_u64");
                assert_eq!(mem.read_f64(addr).to_bits().to_le_bytes(), want[..8], "{ctx}: f64");
            }
            7 => {
                len = if rng.gen_bool(0.8) { rng.gen_range(0..40) } else { rng.gen_range(0..9000) };
                let want = model.read_n(addr, len);
                let mut got = vec![0xAAu8; len];
                mem.read_bytes(addr, &mut got);
                assert!(got == want, "{ctx}: read_bytes({addr:#x}, {len})");
                // The decoders' form: one instruction's bytes into a
                // fixed buffer on the stack.
                let mut inst = [0x55u8; MAX_INST_LEN];
                mem.read_bytes(addr, &mut inst);
                let want = model.read_n(addr, MAX_INST_LEN);
                assert!(inst[..] == want, "{ctx}: read_bytes({addr:#x}) into a stack buffer");
            }
            8 => {
                // Read a page nothing has written (a read must allocate
                // nothing and memoize nothing), then write it.
                let fresh = untouched.next().expect("unbounded") + (addr & 0xFFF);
                let resident = mem.resident_pages();
                assert_eq!(mem.read_u64(fresh), 0, "{ctx}: untouched reads as zero");
                assert_eq!(mem.page_gen(fresh), 0, "{ctx}: untouched generation");
                assert_eq!(mem.resident_pages(), resident, "{ctx}: a read allocated");
                let v: u64 = rng.gen();
                mem.write_u32(fresh, v as u32);
                model.write(fresh, &(v as u32).to_le_bytes());
                sides[which].check_around(fresh, 4, &ctx);
            }
            9 => {
                // The copy must be equal now and independent from now on:
                // later operations write one side and check both.
                sides[1 - which] = sides[which].clone();
                assert_eq!(sides[0].mem.first_difference(&sides[1].mem), None, "{ctx}: clone");
            }
            12 | 13 if kind == 12 || !split => {
                // Like `clone()`, and from now on both sides keep a
                // write log.
                let copy = sides[which].mem.share();
                sides[1 - which] = Side { mem: copy, model: sides[which].model.clone() };
                split = true;
                assert_eq!(sides[0].mem.first_difference(&sides[1].mem), None, "{ctx}: share");
            }
            13 => {
                let [a, b] = &mut sides;
                let (me, them) = if which == 0 { (a, b) } else { (b, a) };
                let want = me.model.first_difference(&them.model);
                assert_eq!(me.mem.settle(&mut them.mem).err(), want, "{ctx}: settle");
                if want.is_none() {
                    assert_eq!(me.mem.private_frame_bytes(), 0, "{ctx}: a copy outlived settle");
                }
            }
            _ => {
                // Make the sides differ in exactly one byte and put it
                // back: the answer is that address, from either side.
                let old = model.read(addr);
                mem.write_u8(addr, !old);
                model.write(addr, &[!old]);
                let [a, b] = &sides;
                let want = a.model.first_difference(&b.model);
                assert_eq!(a.mem.first_difference(&b.mem), want, "{ctx}: flipped {addr:#x}");
                assert_eq!(b.mem.first_difference(&a.mem), want, "{ctx}: flipped, reversed");
                let Side { mem, model } = &mut sides[which];
                mem.write_u8(addr, old);
                model.write(addr, &[old]);
                len = 1;
            }
        }
        let [a, b] = &sides;
        a.check_around(addr, len, &ctx);
        b.check_around(addr, len, &ctx);
        assert_eq!(
            a.mem.first_difference(&b.mem),
            a.model.first_difference(&b.model),
            "{ctx}: first_difference"
        );
        if op % 64 == 63 || op + 1 == ops {
            a.sweep(&ctx);
            b.sweep(&ctx);
        }
    }
}

#[test]
fn guest_mem_matches_the_btreemap_model() {
    for seed in 0..16 {
        run_script(seed, 500);
    }
}

/// `first_difference` names the lowest differing address wherever the
/// higher ones are: same page, next leaf, other end of the address space.
#[test]
fn first_difference_names_the_lowest_address() {
    let spots = [0x0000_0007u32, 0x0000_0FFF, 0x003F_FFFF, 0x0040_0000, 0x9000_0123, 0xFFFF_FFFF];
    for (i, &low) in spots.iter().enumerate() {
        for &high in &spots[i + 1..] {
            let (mut a, mut b) = (GuestMem::new(), GuestMem::new());
            // Present on one side only, on the other only, and on both.
            a.write_u8(high, 1);
            b.write_u8(low, 2);
            assert_eq!(a.first_difference(&b), Some(low), "{low:#x} / {high:#x}");
            assert_eq!(b.first_difference(&a), Some(low), "{low:#x} / {high:#x}, reversed");
            a.write_u8(low, 2);
            b.write_u8(high, 1);
            assert_eq!(a.first_difference(&b), None, "{low:#x} / {high:#x}, made equal");
        }
    }
}

/// Inside a page both sides hold, a frame only one side has compares as
/// zeros on the other: equal while it holds zeros, and the lowest
/// non-zero byte in it is the answer once it does not, below a
/// difference in a later frame and above one in an earlier frame.
#[test]
fn first_difference_sees_a_frame_one_side_lacks() {
    const PAGE: u32 = 0x5000;
    for quarter in 1..4u32 {
        for off in [0, 1, 0x1FF, 0x3FF] {
            let at = PAGE + quarter * 0x400 + off;
            let ctx = format!("quarter {quarter}, offset {off:#x}");
            let (mut a, mut b) = (GuestMem::new(), GuestMem::new());
            // Both hold the page through its first frame.
            a.write_u8(PAGE, 7);
            b.write_u8(PAGE, 7);
            a.write_u8(at, 0);
            assert_eq!(a.first_difference(&b), None, "{ctx}: zero frame on one side");
            assert_eq!(b.first_difference(&a), None, "{ctx}: zero frame, reversed");
            a.write_u8(at, 9);
            assert_eq!(a.first_difference(&b), Some(at), "{ctx}");
            assert_eq!(b.first_difference(&a), Some(at), "{ctx}, reversed");
            // A difference in the page's last byte, on the other side,
            // does not hide the lower one.
            if at != PAGE + 0xFFF {
                b.write_u8(PAGE + 0xFFF, 3);
                assert_eq!(a.first_difference(&b), Some(at), "{ctx}, later frame differs");
            }
            // One in the first frame does.
            b.write_u8(PAGE + 1, 5);
            assert_eq!(a.first_difference(&b), Some(PAGE + 1), "{ctx}, earlier frame differs");
            assert_eq!(b.first_difference(&a), Some(PAGE + 1), "{ctx}, earlier, reversed");
        }
    }
}
