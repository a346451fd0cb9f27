//! The one-dimensional hierarchy trait.

use core::fmt::{Debug, Display};
use core::hash::Hash;

/// A one-dimensional (chain) prefix hierarchy.
///
/// Implementations define, for a domain of items, a fixed set of
/// generalization levels. The contract (checked by the property tests in
/// this crate and relied upon by every detector in `hhh-core`):
///
/// 1. `generalize(item, 0)` is the unique most-specific prefix of `item`,
///    and `generalize(item, levels() - 1) == root()` for every item.
/// 2. For `l + 1 < levels()`,
///    `parent(generalize(item, l)) == Some(generalize(item, l + 1))`,
///    and `parent(root()) == None`.
/// 3. `level_of(generalize(item, l)) == Some(l)`.
/// 4. `contains(generalize(item, l2), generalize(item, l1))` for
///    `l1 <= l2` (higher levels contain lower levels of the same item).
/// 5. Within one level, `p <= q` implies `parent(p) <= parent(q)`:
///    `parent` keeps prefix order, so the parents of a level's sorted
///    prefixes come out sorted, and `hhh-core` reports by merge-joining
///    sorted levels instead of hashing them.
///
/// Implementations are small value types (a granularity and little
/// else), so the trait takes `&self` everywhere and implementations are
/// `Copy`.
pub trait Hierarchy: Clone {
    /// The exact-level item observed on the wire (e.g. `u32` source
    /// IP). Items are plain wire integers: `Default` gives detectors a
    /// filler value for empty sentinel slots, and `Ord` a canonical
    /// order for deterministic tie-breaks.
    type Item: Copy + Eq + Ord + Hash + Debug + Default;
    /// A generalization of an item (e.g. an IPv4 prefix).
    type Prefix: Copy + Eq + Hash + Ord + Debug + Display;

    /// Number of levels including both the item level (0) and the root.
    fn levels(&self) -> usize;

    /// The prefix of `item` at `level`. Panics if `level >= levels()`.
    fn generalize(&self, item: Self::Item, level: usize) -> Self::Prefix;

    /// The level a prefix sits at, or `None` for a prefix whose length
    /// is no level of this hierarchy (a `/12` among byte levels).
    fn level_of(&self, p: Self::Prefix) -> Option<usize>;

    /// The next more-general prefix, or `None` at the root.
    fn parent(&self, p: Self::Prefix) -> Option<Self::Prefix>;

    /// The root prefix (contains everything).
    fn root(&self) -> Self::Prefix;

    /// Ancestor-or-self containment between two prefixes.
    fn contains(&self, ancestor: Self::Prefix, descendant: Self::Prefix) -> bool;

    /// The most specific prefix of an item (level 0).
    #[inline]
    fn item_prefix(&self, item: Self::Item) -> Self::Prefix {
        self.generalize(item, 0)
    }

    /// The item whose [`item_prefix`](Self::item_prefix) is `p`, or
    /// `None` when `p` sits above level 0. Level-0 prefixes are
    /// bijective with items, which lets bottom-level detectors store
    /// raw items (narrower than prefixes — no length byte, no
    /// padding) and rebuild prefixes only at report and decode time.
    fn prefix_item(&self, p: Self::Prefix) -> Option<Self::Item>;

    /// All prefixes of `item`, from level 0 up to the root.
    fn all_prefixes(&self, item: Self::Item) -> Vec<Self::Prefix> {
        (0..self.levels()).map(|l| self.generalize(item, l)).collect()
    }
}
