//! The dense register-indexed containers every pass on the compile path
//! shares.
//!
//! IR registers map onto one index space per register file: a pinned
//! physical register `Phys(r)` is index `r` (the host has 64 integer and
//! 32 FP registers), a virtual temporary `Virt(v)` is index
//! [`VIRT_BASE`]` + v`. [`RegSet`] is a growable bitset over that space
//! and [`RegVec`] a growable array map; both keep their allocation
//! across [`clear`](RegSet::clear), so a pass that borrows them from the
//! engine's scratch allocates only while a block is larger than any it
//! has seen before. Neither hashes anything.

use crate::ir::{IrFreg, IrReg};

/// Index of the first virtual register; everything below is physical.
pub const VIRT_BASE: usize = 64;

/// A physical register's slot: its number.
fn phys_index(r: u8) -> usize {
    debug_assert!(usize::from(r) < VIRT_BASE, "physical register {r} out of range");
    usize::from(r)
}

impl IrReg {
    /// This register's slot in the dense integer index space.
    pub fn index(self) -> usize {
        match self {
            IrReg::Phys(r) => phys_index(r.0),
            IrReg::Virt(v) => VIRT_BASE + v as usize,
        }
    }
}

impl IrFreg {
    /// This register's slot in the dense FP index space.
    pub fn index(self) -> usize {
        match self {
            IrFreg::Phys(r) => phys_index(r.0),
            IrFreg::Virt(v) => VIRT_BASE + v as usize,
        }
    }
}

/// A set of register indices: one word for the physical registers, a
/// vector of words for the virtuals that grows on insert.
#[derive(Debug, Clone, Default)]
pub struct RegSet {
    phys: u64,
    virt: Vec<u64>,
}

impl RegSet {
    /// Adds index `i`.
    pub fn insert(&mut self, i: usize) {
        if i < VIRT_BASE {
            self.phys |= 1 << i;
            return;
        }
        let (w, b) = ((i - VIRT_BASE) / 64, (i - VIRT_BASE) % 64);
        if w >= self.virt.len() {
            self.virt.resize(w + 1, 0);
        }
        self.virt[w] |= 1 << b;
    }

    /// Removes index `i` (a no-op if absent).
    pub fn remove(&mut self, i: usize) {
        if i < VIRT_BASE {
            self.phys &= !(1 << i);
        } else if let Some(w) = self.virt.get_mut((i - VIRT_BASE) / 64) {
            *w &= !(1 << ((i - VIRT_BASE) % 64));
        }
    }

    /// Whether index `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        if i < VIRT_BASE {
            return self.phys >> i & 1 != 0;
        }
        self.virt.get((i - VIRT_BASE) / 64).is_some_and(|w| w >> ((i - VIRT_BASE) % 64) & 1 != 0)
    }

    /// Empties the set, keeping its allocation.
    pub fn clear(&mut self) {
        self.phys = 0;
        self.virt.clear();
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        (self.phys.count_ones() + self.virt.iter().map(|w| w.count_ones()).sum::<u32>()) as usize
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.phys == 0 && self.virt.iter().all(|&w| w == 0)
    }
}

/// Equality is set equality: how many (all-zero) words a set happens to
/// have grown to does not matter.
impl PartialEq for RegSet {
    fn eq(&self, other: &RegSet) -> bool {
        let n = self.virt.len().min(other.virt.len());
        self.phys == other.phys
            && self.virt[..n] == other.virt[..n]
            && self.virt[n..].iter().chain(&other.virt[n..]).all(|&w| w == 0)
    }
}

impl Eq for RegSet {}

/// A map from register index to `T`, stored as a growable array of
/// `Option<T>`: absent and never-reached slots both read as `None`.
#[derive(Debug, Clone)]
pub struct RegVec<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for RegVec<T> {
    fn default() -> RegVec<T> {
        RegVec { slots: Vec::new() }
    }
}

impl<T: Copy> RegVec<T> {
    /// The value at index `i`, if any.
    pub fn get(&self, i: usize) -> Option<T> {
        self.slots.get(i).copied().flatten()
    }

    /// Sets index `i` to `v`, growing the array to reach it.
    pub fn insert(&mut self, i: usize, v: T) {
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(v);
    }

    /// Clears index `i` (a no-op if absent).
    pub fn remove(&mut self, i: usize) {
        if let Some(s) = self.slots.get_mut(i) {
            *s = None;
        }
    }

    /// Empties the map, keeping its allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// The present `(index, value)` pairs, in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, T)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.map(|v| (i, v)))
    }

    /// Drops every entry whose value fails `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for s in &mut self.slots {
            if s.as_ref().is_some_and(|v| !keep(v)) {
                *s = None;
            }
        }
    }

    /// One past the highest index set since the last clear: an upper
    /// bound on the number of entries that costs nothing to read.
    pub fn span(&self) -> usize {
        self.slots.len()
    }
}

/// Equality is map equality: trailing absent slots do not matter.
impl<T: PartialEq> PartialEq for RegVec<T> {
    fn eq(&self, other: &RegVec<T>) -> bool {
        let n = self.slots.len().min(other.slots.len());
        self.slots[..n] == other.slots[..n]
            && self.slots[n..].iter().chain(&other.slots[n..]).all(|s| s.is_none())
    }
}

impl<T: Eq> Eq for RegVec<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_host::{HFreg, HReg};

    #[test]
    fn index_space_keeps_files_and_kinds_apart() {
        assert_eq!(IrReg::Phys(HReg(0)).index(), 0);
        assert_eq!(IrReg::Phys(HReg(63)).index(), 63);
        assert_eq!(IrReg::Virt(0).index(), VIRT_BASE);
        assert_eq!(IrFreg::Phys(HFreg(31)).index(), 31);
        assert_eq!(IrFreg::Virt(7).index(), VIRT_BASE + 7);
    }

    #[test]
    fn set_grows_on_insert_and_compares_as_a_set() {
        let mut a = RegSet::default();
        assert!(a.is_empty() && !a.contains(5_000));
        a.insert(3);
        a.insert(VIRT_BASE + 1_000);
        assert!(a.contains(3) && a.contains(VIRT_BASE + 1_000) && !a.contains(VIRT_BASE + 999));
        assert_eq!(a.len(), 2);
        a.remove(VIRT_BASE + 1_000);
        a.remove(VIRT_BASE + 70_000); // beyond the words: nothing to do
        let mut small = RegSet::default();
        small.insert(3);
        assert_eq!(a, small, "trailing zero words are not a difference");
        assert_eq!(a.len(), 1);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn vec_reads_unreached_slots_as_absent() {
        let mut m: RegVec<u32> = RegVec::default();
        assert_eq!(m.get(9), None);
        m.insert(70, 7);
        m.insert(2, 1);
        assert_eq!((m.get(70), m.get(2), m.get(71), m.span()), (Some(7), Some(1), None, 71));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(2, 1), (70, 7)]);
        m.remove(70);
        m.remove(10_000);
        let mut small = RegVec::default();
        small.insert(2, 1);
        assert_eq!(m, small, "trailing absent slots are not a difference");
    }
}
