//! FNV-1a, 64 bit: the digest of a pin too long to commit as text,
//! stable across Rust releases, unlike `DefaultHasher`. Fed through
//! [`std::fmt::Write`], so `write!` digests text without building it.
//!
//! Shared by `#[path]` between the `*_golden.rs` tests that keep a digest.

/// A running digest; `.0` is its value.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}
