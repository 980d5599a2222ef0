//! The hash map TOL keys by guest pc: the profiler's two tables keyed by
//! basic-block entry and its static-mode page directory (keyed by page
//! number), and the code cache's translation map.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` from guest pc to `V` that hashes with one multiply. The
/// keys come from the guest program, not from outside the simulator, so
/// there is no collision attack to seed against, and without a per-process
/// seed the iteration order is the same in every process.
pub(crate) type PcMap<V> = HashMap<u32, V, BuildHasherDefault<PcHasher>>;

/// Fibonacci hashing of one `u32`: multiply by 2^64 / phi, then fold the
/// high half onto the low. The standard map takes the bucket from the low
/// bits of a hash and the control tag from its top seven; the product's
/// best-mixed bits are its high ones, so both draw on them.
#[derive(Default)]
pub(crate) struct PcHasher(u64);

impl Hasher for PcHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a PcMap key is one u32");
    }

    #[inline]
    fn write_u32(&mut self, pc: u32) {
        let h = u64::from(pc).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}
