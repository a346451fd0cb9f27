//! IPv4 source/destination address hierarchies at configurable
//! granularity.

use crate::chain::Hierarchy;
use hhh_nettypes::Ipv4Prefix;

/// The IPv4 address hierarchy with a configurable generalization step.
///
/// With granularity `g`, the prefix lengths are `32, 32-g, 32-2g, …`
/// down to (and always including) `0`. The two standard instantiations:
///
/// * [`Ipv4Hierarchy::bits()`] — `g = 1`, 33 levels, the full binary
///   trie. What "HHH on source IPs" means in the exact literature.
/// * [`Ipv4Hierarchy::bytes()`] — `g = 8`, 5 levels (/32, /24, /16, /8,
///   /0). What RHHH and most data-plane work use, because the level
///   count bounds per-packet work.
///
/// Any `g` in `1..=32` is allowed; when `g` does not divide 32 the last
/// step before the root is simply shorter (e.g. `g = 12` gives /32, /20,
/// /8, /0).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv4Hierarchy {
    granularity: u8,
    // Network mask per level, precomputed at construction so the
    // per-packet `generalize` is one load + one AND instead of a
    // length computation and a branchy shift. Entries past the root
    // level repeat the root mask (0) and are never indexed.
    masks: [u32; 33],
}

impl Ipv4Hierarchy {
    /// A hierarchy that generalizes `granularity` bits per level.
    /// Panics unless `1 <= granularity <= 32`.
    pub const fn new(granularity: u8) -> Self {
        assert!(granularity >= 1 && granularity <= 32, "granularity must be in 1..=32");
        let mut masks = [0u32; 33];
        let mut level = 0usize;
        while level < 33 {
            let drop = level as u32 * granularity as u32;
            let len = if drop >= 32 { 0 } else { (32 - drop) as u8 };
            masks[level] = Ipv4Prefix::mask(len);
            level += 1;
        }
        Ipv4Hierarchy { granularity, masks }
    }

    /// Bit-granularity: 33 levels, /32 … /0.
    pub const fn bits() -> Self {
        Self::new(1)
    }

    /// Byte-granularity: 5 levels, /32, /24, /16, /8, /0.
    pub const fn bytes() -> Self {
        Self::new(8)
    }

    /// The generalization step in bits.
    pub const fn granularity(&self) -> u8 {
        self.granularity
    }

    /// The prefix length at a level (level 0 → 32, root level → 0).
    #[inline]
    pub fn prefix_len_at(&self, level: usize) -> u8 {
        let drop = (level as u32) * self.granularity as u32;
        32u32.saturating_sub(drop) as u8
    }

    /// The precomputed network mask at a level (level 0 → all ones,
    /// root level → 0). Panics if `level >= levels()`.
    #[inline]
    pub fn mask_at(&self, level: usize) -> u32 {
        assert!(level < self.levels(), "level {level} out of range");
        self.masks[level]
    }

    /// The level of a given prefix length, or `None` if `len` is not
    /// one of this hierarchy's lengths.
    #[inline]
    pub fn level_for_len(&self, len: u8) -> Option<usize> {
        if len == 0 {
            return Some(self.levels() - 1);
        }
        let drop = 32u32.checked_sub(len as u32)?;
        let g = self.granularity as u32;
        drop.is_multiple_of(g).then_some((drop / g) as usize)
    }
}

impl Hierarchy for Ipv4Hierarchy {
    type Item = u32;
    type Prefix = Ipv4Prefix;

    #[inline]
    fn levels(&self) -> usize {
        // ceil(32 / g) intermediate steps plus the item level.
        32usize.div_ceil(self.granularity as usize) + 1
    }

    #[inline]
    fn generalize(&self, item: u32, level: usize) -> Ipv4Prefix {
        assert!(level < self.levels(), "level {level} out of range");
        // Table-driven: one load + one AND. In a level-major loop the
        // mask is loop-invariant, so the per-item masking vectorizes.
        Ipv4Prefix::from_masked(item & self.masks[level], self.prefix_len_at(level))
    }

    #[inline]
    fn item_prefix(&self, item: u32) -> Ipv4Prefix {
        // Level 0 is always /32, so the host constructor skips the
        // level check, the mask-table load, and the masking AND that
        // `generalize` pays. Bottom-pipe detectors call this per packet.
        Ipv4Prefix::host(item)
    }

    #[inline]
    fn prefix_item(&self, p: Ipv4Prefix) -> Option<u32> {
        (p.len() == 32).then(|| p.addr())
    }

    #[inline]
    fn level_of(&self, p: Ipv4Prefix) -> Option<usize> {
        self.level_for_len(p.len())
    }

    #[inline]
    fn parent(&self, p: Ipv4Prefix) -> Option<Ipv4Prefix> {
        if p.is_root() {
            None
        } else {
            Some(p.ancestor(p.len().saturating_sub(self.granularity)))
        }
    }

    #[inline]
    fn root(&self) -> Ipv4Prefix {
        Ipv4Prefix::ROOT
    }

    #[inline]
    fn contains(&self, ancestor: Ipv4Prefix, descendant: Ipv4Prefix) -> bool {
        ancestor.contains(descendant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn byte_hierarchy_shape() {
        let h = Ipv4Hierarchy::bytes();
        assert_eq!(h.levels(), 5);
        let item = 0x0A010203; // 10.1.2.3
        let want = ["10.1.2.3/32", "10.1.2.0/24", "10.1.0.0/16", "10.0.0.0/8", "0.0.0.0/0"];
        for (l, w) in want.iter().enumerate() {
            assert_eq!(h.generalize(item, l).to_string(), *w);
            assert_eq!(h.level_of(h.generalize(item, l)), Some(l));
        }
    }

    #[test]
    fn bit_hierarchy_shape() {
        let h = Ipv4Hierarchy::bits();
        assert_eq!(h.levels(), 33);
        assert_eq!(h.generalize(u32::MAX, 0).len(), 32);
        assert_eq!(h.generalize(u32::MAX, 32), Ipv4Prefix::ROOT);
    }

    /// Golden: the precomputed mask table must match the arithmetic
    /// definition `mask(len) = len == 0 ? 0 : !0 << (32 - len)` at every
    /// level, for every granularity — spot-pinned values included so a
    /// table-generation bug can't silently redefine both sides.
    #[test]
    fn mask_table_pinned_at_every_level() {
        for g in 1u8..=32 {
            let h = Ipv4Hierarchy::new(g);
            for l in 0..h.levels() {
                let len = h.prefix_len_at(l);
                let want = if len == 0 { 0u32 } else { u32::MAX << (32 - len) };
                assert_eq!(h.mask_at(l), want, "g={g} level={l}");
                assert_eq!(Ipv4Prefix::mask(len), want, "len={len}");
                // generalize must agree with mask-then-construct.
                assert_eq!(h.generalize(0xDEAD_BEEF, l), Ipv4Prefix::new(0xDEAD_BEEF, len));
            }
        }
        let h = Ipv4Hierarchy::bytes();
        assert_eq!(
            (0..h.levels()).map(|l| h.mask_at(l)).collect::<Vec<_>>(),
            vec![0xFFFF_FFFF, 0xFFFF_FF00, 0xFFFF_0000, 0xFF00_0000, 0x0000_0000],
        );
        let b = Ipv4Hierarchy::bits();
        assert_eq!(b.mask_at(0), u32::MAX);
        assert_eq!(b.mask_at(1), 0xFFFF_FFFE);
        assert_eq!(b.mask_at(31), 0x8000_0000);
        assert_eq!(b.mask_at(32), 0);
    }

    #[test]
    fn non_dividing_granularity() {
        let h = Ipv4Hierarchy::new(12);
        // /32, /20, /8, /0
        assert_eq!(h.levels(), 4);
        assert_eq!(h.prefix_len_at(0), 32);
        assert_eq!(h.prefix_len_at(1), 20);
        assert_eq!(h.prefix_len_at(2), 8);
        assert_eq!(h.prefix_len_at(3), 0);
        // Parent of the /8 level is the root, even though 8 < 12.
        let p = h.generalize(0xDEADBEEF, 2);
        assert_eq!(h.parent(p), Some(Ipv4Prefix::ROOT));
    }

    #[test]
    fn parent_matches_next_level() {
        for g in [1u8, 2, 4, 8, 12, 16, 32] {
            let h = Ipv4Hierarchy::new(g);
            let item = 0xC0A80A01u32;
            for l in 0..h.levels() - 1 {
                let p = h.generalize(item, l);
                assert_eq!(h.parent(p), Some(h.generalize(item, l + 1)), "g={g} level={l}");
            }
            assert_eq!(h.parent(h.root()), None);
        }
    }

    #[test]
    fn all_prefixes_ends_at_root() {
        let h = Ipv4Hierarchy::bytes();
        let ps = h.all_prefixes(0x01020304);
        assert_eq!(ps.len(), 5);
        assert_eq!(*ps.last().unwrap(), Ipv4Prefix::ROOT);
    }

    #[test]
    fn a_foreign_prefix_has_no_level() {
        let h = Ipv4Hierarchy::bytes();
        assert_eq!(h.level_of("10.0.0.0/9".parse().unwrap()), None);
        assert_eq!(h.level_of("10.16.0.0/12".parse().unwrap()), None);
        assert_eq!(h.level_for_len(33), None);
    }

    proptest! {
        #[test]
        fn contract_holds(item in any::<u32>(), other in any::<u32>(), g in 1u8..=32) {
            let h = Ipv4Hierarchy::new(g);
            let root_level = h.levels() - 1;
            prop_assert_eq!(h.generalize(item, root_level), h.root());
            for l in 0..h.levels() {
                let p = h.generalize(item, l);
                prop_assert_eq!(h.level_of(p), Some(l));
                prop_assert!(p.contains_addr(item));
                if l + 1 < h.levels() {
                    prop_assert_eq!(h.parent(p).unwrap(), h.generalize(item, l + 1));
                    prop_assert!(h.contains(h.generalize(item, l + 1), p));
                }
                let q = h.generalize(other, l);
                let (lo, hi) = if p <= q { (p, q) } else { (q, p) };
                prop_assert!(h.parent(lo) <= h.parent(hi), "parent breaks the order of {lo} <= {hi}");
            }
        }

        #[test]
        fn prefix_item_inverts_level_zero_only(item in any::<u32>(), g in 1u8..=32) {
            let h = Ipv4Hierarchy::new(g);
            prop_assert_eq!(h.prefix_item(h.item_prefix(item)), Some(item));
            for l in 1..h.levels() {
                prop_assert_eq!(h.prefix_item(h.generalize(item, l)), None);
            }
        }

        #[test]
        fn distinct_items_share_ancestors_correctly(a in any::<u32>(), b in any::<u32>()) {
            let h = Ipv4Hierarchy::bytes();
            for l in 0..h.levels() {
                let pa = h.generalize(a, l);
                let pb = h.generalize(b, l);
                // Same level prefixes are either equal or disjoint.
                if pa != pb {
                    prop_assert!(!h.contains(pa, pb));
                    prop_assert!(!h.contains(pb, pa));
                }
            }
        }
    }
}
