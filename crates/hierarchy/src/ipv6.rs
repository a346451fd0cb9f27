//! IPv6 address hierarchy at configurable granularity.

use crate::chain::Hierarchy;
use hhh_nettypes::Ipv6Prefix;

/// The IPv6 address hierarchy with a configurable generalization step.
///
/// Mirrors [`crate::Ipv4Hierarchy`] for the 128-bit domain. Sensible
/// granularities: `4` (nibble, follows the written representation), `8`
/// (byte), `16` (hextet). Bit granularity (`g = 1`) gives 129 levels,
/// which works but makes full-ancestry algorithms expensive — exactly
/// the trade-off the RHHH line of work addresses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv6Hierarchy {
    granularity: u8,
}

impl Ipv6Hierarchy {
    /// A hierarchy that generalizes `granularity` bits per level.
    /// Panics unless `1 <= granularity <= 128`.
    pub const fn new(granularity: u8) -> Self {
        assert!(granularity >= 1, "granularity must be >= 1");
        Ipv6Hierarchy { granularity }
    }

    /// Nibble granularity: 33 levels.
    pub const fn nibbles() -> Self {
        Self::new(4)
    }

    /// Hextet granularity: 9 levels (/128, /112, …, /0).
    pub const fn hextets() -> Self {
        Self::new(16)
    }

    /// The prefix length at a level.
    #[inline]
    pub fn prefix_len_at(&self, level: usize) -> u8 {
        let drop = (level as u32) * self.granularity as u32;
        128u32.saturating_sub(drop) as u8
    }

    /// The network mask at a level (a branchless table lookup; a
    /// per-instance table like [`crate::Ipv4Hierarchy`]'s would cost
    /// 2 KiB per `Copy` — at 128 bits the shared length-indexed table
    /// in `hhh-nettypes` is the same single load). Panics if
    /// `level >= levels()`.
    #[inline]
    pub fn mask_at(&self, level: usize) -> u128 {
        assert!(level < self.levels(), "level {level} out of range");
        Ipv6Prefix::mask(self.prefix_len_at(level))
    }
}

impl Hierarchy for Ipv6Hierarchy {
    type Item = u128;
    type Prefix = Ipv6Prefix;

    #[inline]
    fn levels(&self) -> usize {
        128usize.div_ceil(self.granularity as usize) + 1
    }

    #[inline]
    fn generalize(&self, item: u128, level: usize) -> Ipv6Prefix {
        assert!(level < self.levels(), "level {level} out of range");
        let len = self.prefix_len_at(level);
        Ipv6Prefix::from_masked(item & Ipv6Prefix::mask(len), len)
    }

    #[inline]
    fn item_prefix(&self, item: u128) -> Ipv6Prefix {
        // Level 0 is always /128, so the host constructor skips the
        // level check, the mask-table load, and the masking AND that
        // `generalize` pays. Bottom-pipe detectors call this per packet.
        Ipv6Prefix::host(item)
    }

    #[inline]
    fn prefix_item(&self, p: Ipv6Prefix) -> Option<u128> {
        (p.len() == 128).then(|| p.addr())
    }

    #[inline]
    fn level_of(&self, p: Ipv6Prefix) -> Option<usize> {
        if p.is_root() {
            return Some(self.levels() - 1);
        }
        let drop = 128 - p.len() as u32;
        let g = self.granularity as u32;
        drop.is_multiple_of(g).then_some((drop / g) as usize)
    }

    #[inline]
    fn parent(&self, p: Ipv6Prefix) -> Option<Ipv6Prefix> {
        if p.is_root() {
            None
        } else {
            Some(p.ancestor(p.len().saturating_sub(self.granularity)))
        }
    }

    #[inline]
    fn root(&self) -> Ipv6Prefix {
        Ipv6Prefix::ROOT
    }

    #[inline]
    fn contains(&self, ancestor: Ipv6Prefix, descendant: Ipv6Prefix) -> bool {
        ancestor.contains(descendant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hextet_shape() {
        let h = Ipv6Hierarchy::hextets();
        assert_eq!(h.levels(), 9);
        let item = 0x2001_0db8_0000_0000_0000_0000_0000_0001u128;
        assert_eq!(h.generalize(item, 0).len(), 128);
        assert_eq!(h.generalize(item, 6).to_string(), "2001:db8::/32");
        assert_eq!(h.generalize(item, 8), Ipv6Prefix::ROOT);
    }

    /// Golden: mask table vs the arithmetic definition at every level,
    /// with spot-pinned values for the two standard granularities.
    #[test]
    fn mask_table_pinned_at_every_level() {
        for g in [1u8, 4, 8, 16, 32, 64, 128] {
            let h = Ipv6Hierarchy::new(g);
            for l in 0..h.levels() {
                let len = h.prefix_len_at(l);
                let want = if len == 0 { 0u128 } else { u128::MAX << (128 - len) };
                assert_eq!(h.mask_at(l), want, "g={g} level={l}");
                assert_eq!(Ipv6Prefix::mask(len), want, "len={len}");
                assert_eq!(h.generalize(u128::MAX, l), Ipv6Prefix::new(u128::MAX, len));
            }
        }
        let h = Ipv6Hierarchy::hextets();
        assert_eq!(h.mask_at(0), u128::MAX);
        assert_eq!(h.mask_at(6), 0xFFFF_FFFF_0000_0000_0000_0000_0000_0000);
        assert_eq!(h.mask_at(8), 0);
        let n = Ipv6Hierarchy::nibbles();
        assert_eq!(n.mask_at(1), u128::MAX << 4);
        assert_eq!(n.mask_at(32), 0);
    }

    #[test]
    fn nibble_levels() {
        let h = Ipv6Hierarchy::nibbles();
        assert_eq!(h.levels(), 33);
        assert_eq!(h.prefix_len_at(1), 124);
    }

    proptest! {
        #[test]
        fn contract_holds(item in any::<u128>(), other in any::<u128>(), g in prop::sample::select(vec![1u8, 4, 8, 16, 32, 64, 128])) {
            let h = Ipv6Hierarchy::new(g);
            prop_assert_eq!(h.generalize(item, h.levels() - 1), h.root());
            for l in 0..h.levels() {
                let p = h.generalize(item, l);
                prop_assert_eq!(h.level_of(p), Some(l));
                prop_assert!(p.contains_addr(item));
                if l + 1 < h.levels() {
                    prop_assert_eq!(h.parent(p).unwrap(), h.generalize(item, l + 1));
                }
                let q = h.generalize(other, l);
                let (lo, hi) = if p <= q { (p, q) } else { (q, p) };
                prop_assert!(h.parent(lo) <= h.parent(hi), "parent breaks the order of {lo} <= {hi}");
            }
        }

        #[test]
        fn prefix_item_inverts_level_zero_only(item in any::<u128>(), g in prop::sample::select(vec![1u8, 4, 8, 16, 32, 64, 128])) {
            let h = Ipv6Hierarchy::new(g);
            prop_assert_eq!(h.prefix_item(h.item_prefix(item)), Some(item));
            for l in 1..h.levels() {
                prop_assert_eq!(h.prefix_item(h.generalize(item, l)), None);
            }
        }
    }
}
