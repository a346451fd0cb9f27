//! IP prefixes and the containment algebra used by HHH hierarchies.
//!
//! A hierarchical heavy hitter is *a prefix*, so prefixes are the single
//! most load-bearing type in this workspace. [`Ipv4Prefix`] stores the
//! address as a host-order `u32` with all host bits cleared — that
//! canonical form makes equality, hashing, and containment cheap bit
//! operations, and is enforced by every constructor.
//!
//! The hierarchy algebra lives here as methods:
//! [`parent`](Ipv4Prefix::parent) (one bit shorter),
//! [`ancestor`](Ipv4Prefix::ancestor) (any shorter length),
//! [`contains`](Ipv4Prefix::contains) (partial order), and
//! [`common_ancestor`](Ipv4Prefix::common_ancestor) (meet in the trie).
//! The `hhh-hierarchy` crate builds its level systems on top of these.

use core::fmt;
use core::hash::{Hash, Hasher};
use core::str::FromStr;

/// Error returned when parsing a prefix from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError {
    what: &'static str,
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.what)
    }
}

impl std::error::Error for PrefixParseError {}

impl PrefixParseError {
    fn new(what: &'static str) -> Self {
        PrefixParseError { what }
    }
}

// Precomputed network masks indexed by prefix length. A computed mask
// (`u32::MAX << (32 - len)`) needs a branch for the `len == 0` case
// (shifting by the full width is UB in Rust); the table makes `mask()`
// a branchless load, which matters because every prefix construction on
// the per-packet hot path goes through it.
const IPV4_MASKS: [u32; 33] = {
    let mut t = [0u32; 33];
    let mut len = 1usize;
    while len <= 32 {
        t[len] = u32::MAX << (32 - len);
        len += 1;
    }
    t
};

const IPV6_MASKS: [u128; 129] = {
    let mut t = [0u128; 129];
    let mut len = 1usize;
    while len <= 128 {
        t[len] = u128::MAX << (128 - len);
        len += 1;
    }
    t
};

/// An IPv4 prefix: a (masked) address plus a prefix length in `0..=32`.
///
/// Invariant: all bits below the prefix length are zero. `10.1.2.3/24`
/// is not representable; constructing with that input yields
/// `10.1.2.0/24`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Prefix {
    // Order matters for the derived Ord: sorting by (len, bits) groups
    // prefixes by hierarchy level, which is what the report formatters
    // and the exact HHH algorithm want.
    len: u8,
    bits: u32,
}

impl Ipv4Prefix {
    /// The root prefix `0.0.0.0/0`, which contains every address.
    pub const ROOT: Ipv4Prefix = Ipv4Prefix { len: 0, bits: 0 };

    /// Build a prefix, masking away any host bits. Panics if `len > 32`.
    #[inline]
    pub const fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "IPv4 prefix length must be <= 32");
        Ipv4Prefix { bits: addr & Self::mask(len), len }
    }

    /// A full-length (host) prefix, `addr/32`.
    #[inline]
    pub const fn host(addr: u32) -> Self {
        Ipv4Prefix { bits: addr, len: 32 }
    }

    /// The network mask for a prefix length: `mask(24) = 0xFFFF_FF00`.
    /// A branchless table lookup; panics if `len > 32`.
    #[inline]
    pub const fn mask(len: u8) -> u32 {
        IPV4_MASKS[len as usize]
    }

    /// Build a prefix from an address whose host bits are already
    /// cleared, skipping the re-mask. The canonical-form invariant is
    /// the caller's responsibility (checked in debug builds).
    #[inline]
    pub const fn from_masked(addr: u32, len: u8) -> Self {
        debug_assert!(addr & !Self::mask(len) == 0, "host bits must be cleared");
        Ipv4Prefix { bits: addr, len }
    }

    /// The (masked) address bits, host byte order.
    #[inline]
    pub const fn addr(self) -> u32 {
        self.bits
    }

    /// The prefix length. (`len` here is CIDR length, not a
    /// container size, hence no `is_empty` counterpart.)
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// `true` only for the root prefix (length 0).
    #[inline]
    pub const fn is_root(self) -> bool {
        self.len == 0
    }

    /// Does this prefix contain the given host address?
    #[inline]
    pub const fn contains_addr(self, addr: u32) -> bool {
        addr & Self::mask(self.len) == self.bits
    }

    /// Does this prefix contain the other prefix (or equal it)?
    ///
    /// This is the partial order of the prefix trie: `a.contains(b)` iff
    /// `a` is an ancestor-or-self of `b`.
    #[inline]
    pub const fn contains(self, other: Ipv4Prefix) -> bool {
        self.len <= other.len && other.bits & Self::mask(self.len) == self.bits
    }

    /// The parent prefix (one bit shorter), or `None` at the root.
    #[inline]
    pub const fn parent(self) -> Option<Ipv4Prefix> {
        match self.len {
            0 => None,
            l => Some(Ipv4Prefix::new(self.bits, l - 1)),
        }
    }

    /// The ancestor at an arbitrary (shorter or equal) length.
    /// Panics if `len` is longer than this prefix's length.
    #[inline]
    pub const fn ancestor(self, len: u8) -> Ipv4Prefix {
        assert!(len <= self.len, "ancestor length must not exceed prefix length");
        Ipv4Prefix::new(self.bits, len)
    }

    /// The longest prefix containing both inputs (their meet in the trie).
    pub fn common_ancestor(self, other: Ipv4Prefix) -> Ipv4Prefix {
        let max_len = self.len.min(other.len) as u32;
        let diff = self.bits ^ other.bits;
        let agree = diff.leading_zeros().min(max_len);
        Ipv4Prefix::new(self.bits, agree as u8)
    }

    /// Iterator over this prefix and all its ancestors up to the root,
    /// in order of decreasing length (self first, root last).
    pub fn self_and_ancestors(self) -> impl Iterator<Item = Ipv4Prefix> {
        let mut cur = Some(self);
        core::iter::from_fn(move || {
            let out = cur?;
            cur = out.parent();
            Some(out)
        })
    }

    /// The two children one bit longer, or `None` for host prefixes.
    pub const fn children(self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len == 32 {
            return None;
        }
        let l = self.len + 1;
        let bit = 1u32 << (32 - l);
        Some((Ipv4Prefix { bits: self.bits, len: l }, Ipv4Prefix { bits: self.bits | bit, len: l }))
    }

    /// Number of host addresses covered (`2^(32-len)`), saturating for /0.
    pub const fn size(self) -> u64 {
        1u64 << (32 - self.len)
    }
}

/// Append `v`'s decimal digits to `buf` at `*at`.
fn push_decimal(buf: &mut [u8], at: &mut usize, v: u8) {
    if v >= 100 {
        buf[*at] = b'0' + v / 100;
        *at += 1;
    }
    if v >= 10 {
        buf[*at] = b'0' + v / 10 % 10;
        *at += 1;
    }
    buf[*at] = b'0' + v % 10;
    *at += 1;
}

impl fmt::Display for Ipv4Prefix {
    /// `a.b.c.d/len`, the digits written by hand into a stack buffer
    /// and handed over in one `write_str`: wire rows and `/hhh` renders
    /// print many prefixes, and the formatting machinery costs several
    /// times this.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; 18]; // "255.255.255.255/32"
        let mut at = 0;
        for (i, octet) in self.bits.to_be_bytes().into_iter().enumerate() {
            if i > 0 {
                buf[at] = b'.';
                at += 1;
            }
            push_decimal(&mut buf, &mut at, octet);
        }
        buf[at] = b'/';
        at += 1;
        push_decimal(&mut buf, &mut at, self.len);
        f.write_str(core::str::from_utf8(&buf[..at]).expect("ASCII digits"))
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = match s.split_once('/') {
            Some(parts) => parts,
            None => (s, "32"),
        };
        let len: u8 =
            len_s.parse().map_err(|_| PrefixParseError::new("prefix length is not a number"))?;
        if len > 32 {
            return Err(PrefixParseError::new("IPv4 prefix length exceeds 32"));
        }
        let mut octets = [0u8; 4];
        let mut n = 0;
        for part in addr_s.split('.') {
            if n == 4 {
                return Err(PrefixParseError::new("more than four octets"));
            }
            octets[n] = part
                .parse()
                .map_err(|_| PrefixParseError::new("octet is not a number in 0..=255"))?;
            n += 1;
        }
        if n != 4 {
            return Err(PrefixParseError::new("fewer than four octets"));
        }
        Ok(Ipv4Prefix::new(u32::from_be_bytes(octets), len))
    }
}

/// An IPv6 prefix: a (masked) address plus a prefix length in `0..=128`.
///
/// Same canonical-form invariant as [`Ipv4Prefix`]. IPv6 is supported by
/// the type layer and the hierarchy layer; the paper's experiments are
/// IPv4-only, which is why only IPv4 appears in the experiment crates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ipv6Prefix {
    len: u8,
    bits: u128,
}

impl Hash for Ipv6Prefix {
    /// Folds the whole prefix into one 64-bit hasher write, so hashing
    /// an IPv6 prefix costs the same hasher-chain depth as an IPv4 one
    /// instead of 50% more (the derived impl writes len + two address
    /// words). The fold is lossy only across inputs that differ in both
    /// halves and length in a precisely cancelling pattern — ordinary
    /// hash-collision territory, and same-length keys (the only keys a
    /// single sketch level ever mixes) collide just when `hi ^ lo`
    /// is rotation-invariant, i.e. essentially never.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let hi = (self.bits >> 64) as u64;
        let lo = self.bits as u64;
        state.write_u64(lo ^ hi.rotate_left(29) ^ ((self.len as u64) << 56));
    }
}

impl Ipv6Prefix {
    /// The root prefix `::/0`.
    pub const ROOT: Ipv6Prefix = Ipv6Prefix { len: 0, bits: 0 };

    /// Build a prefix, masking away any host bits. Panics if `len > 128`.
    #[inline]
    pub const fn new(addr: u128, len: u8) -> Self {
        assert!(len <= 128, "IPv6 prefix length must be <= 128");
        Ipv6Prefix { bits: addr & Self::mask(len), len }
    }

    /// A full-length (host) prefix.
    #[inline]
    pub const fn host(addr: u128) -> Self {
        Ipv6Prefix { bits: addr, len: 128 }
    }

    /// The network mask for a prefix length. A branchless table lookup;
    /// panics if `len > 128`.
    #[inline]
    pub const fn mask(len: u8) -> u128 {
        IPV6_MASKS[len as usize]
    }

    /// Build a prefix from an address whose host bits are already
    /// cleared, skipping the re-mask. The canonical-form invariant is
    /// the caller's responsibility (checked in debug builds).
    #[inline]
    pub const fn from_masked(addr: u128, len: u8) -> Self {
        debug_assert!(addr & !Self::mask(len) == 0, "host bits must be cleared");
        Ipv6Prefix { bits: addr, len }
    }

    /// The (masked) address bits.
    #[inline]
    pub const fn addr(self) -> u128 {
        self.bits
    }

    /// The prefix length. (CIDR length, not a container size.)
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// `true` only for the root prefix (length 0).
    #[inline]
    pub const fn is_root(self) -> bool {
        self.len == 0
    }

    /// Does this prefix contain the given host address?
    #[inline]
    pub const fn contains_addr(self, addr: u128) -> bool {
        addr & Self::mask(self.len) == self.bits
    }

    /// Does this prefix contain the other prefix (or equal it)?
    #[inline]
    pub const fn contains(self, other: Ipv6Prefix) -> bool {
        self.len <= other.len && other.bits & Self::mask(self.len) == self.bits
    }

    /// The parent prefix (one bit shorter), or `None` at the root.
    #[inline]
    pub const fn parent(self) -> Option<Ipv6Prefix> {
        match self.len {
            0 => None,
            l => Some(Ipv6Prefix::new(self.bits, l - 1)),
        }
    }

    /// The ancestor at an arbitrary (shorter or equal) length.
    #[inline]
    pub const fn ancestor(self, len: u8) -> Ipv6Prefix {
        assert!(len <= self.len, "ancestor length must not exceed prefix length");
        Ipv6Prefix::new(self.bits, len)
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = std::net::Ipv6Addr::from(self.bits);
        write!(f, "{}/{}", a, self.len)
    }
}

impl fmt::Debug for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Ipv6Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = match s.split_once('/') {
            Some(parts) => parts,
            None => (s, "128"),
        };
        let len: u8 =
            len_s.parse().map_err(|_| PrefixParseError::new("prefix length is not a number"))?;
        if len > 128 {
            return Err(PrefixParseError::new("IPv6 prefix length exceeds 128"));
        }
        let addr: std::net::Ipv6Addr =
            addr_s.parse().map_err(|_| PrefixParseError::new("invalid IPv6 address"))?;
        Ok(Ipv6Prefix::new(u128::from(addr), len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn construction_masks_host_bits() {
        assert_eq!(Ipv4Prefix::new(0x0A010203, 24), p("10.1.2.0/24"));
        assert_eq!(Ipv4Prefix::new(0xFFFF_FFFF, 0), Ipv4Prefix::ROOT);
        assert_eq!(Ipv4Prefix::new(0xFFFF_FFFF, 32).addr(), 0xFFFF_FFFF);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "1.2.3.4/32", "128.0.0.0/1"] {
            assert_eq!(p(s).to_string(), s);
        }
        // Host bits are masked on parse, so display differs from input.
        assert_eq!(p("10.1.2.3/24").to_string(), "10.1.2.0/24");
        // Bare address parses as /32.
        assert_eq!(p("1.2.3.4"), Ipv4Prefix::host(0x01020304));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("1.2.3/24".parse::<Ipv4Prefix>().is_err());
        assert!("1.2.3.4.5/24".parse::<Ipv4Prefix>().is_err());
        assert!("1.2.3.4/33".parse::<Ipv4Prefix>().is_err());
        assert!("1.2.3.256/8".parse::<Ipv4Prefix>().is_err());
        assert!("a.b.c.d/8".parse::<Ipv4Prefix>().is_err());
        assert!("1.2.3.4/x".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn containment_is_a_partial_order() {
        let a = p("10.0.0.0/8");
        let b = p("10.1.0.0/16");
        let c = p("11.0.0.0/8");
        assert!(a.contains(b));
        assert!(!b.contains(a));
        assert!(a.contains(a));
        assert!(!a.contains(c) && !c.contains(a));
        assert!(Ipv4Prefix::ROOT.contains(a));
    }

    #[test]
    fn contains_addr_matches_contains_host() {
        let a = p("172.16.0.0/12");
        assert!(a.contains_addr(0xAC10_0001)); // 172.16.0.1
        assert!(a.contains_addr(0xAC1F_FFFF)); // 172.31.255.255
        assert!(!a.contains_addr(0xAC20_0000)); // 172.32.0.0
    }

    #[test]
    fn parent_chain_reaches_root() {
        let mut cur = p("255.255.255.255/32");
        let mut steps = 0;
        while let Some(up) = cur.parent() {
            assert!(up.contains(cur));
            assert_eq!(up.len(), cur.len() - 1);
            cur = up;
            steps += 1;
        }
        assert_eq!(steps, 32);
        assert_eq!(cur, Ipv4Prefix::ROOT);
        assert!(Ipv4Prefix::ROOT.parent().is_none());
    }

    #[test]
    fn self_and_ancestors_lengths_descend() {
        let chain: Vec<_> = p("10.1.2.0/24").self_and_ancestors().collect();
        assert_eq!(chain.len(), 25);
        assert_eq!(chain[0], p("10.1.2.0/24"));
        assert_eq!(chain[24], Ipv4Prefix::ROOT);
        for w in chain.windows(2) {
            assert_eq!(w[1].len() + 1, w[0].len());
            assert!(w[1].contains(w[0]));
        }
    }

    #[test]
    fn ancestor_jumps_levels() {
        let h = Ipv4Prefix::host(0x0A010203);
        assert_eq!(h.ancestor(24), p("10.1.2.0/24"));
        assert_eq!(h.ancestor(16), p("10.1.0.0/16"));
        assert_eq!(h.ancestor(8), p("10.0.0.0/8"));
        assert_eq!(h.ancestor(0), Ipv4Prefix::ROOT);
    }

    #[test]
    fn common_ancestor_is_meet() {
        assert_eq!(p("10.1.0.0/16").common_ancestor(p("10.2.0.0/16")), p("10.0.0.0/14"));
        assert_eq!(p("10.1.0.0/16").common_ancestor(p("10.1.2.0/24")), p("10.1.0.0/16"));
        assert_eq!(p("0.0.0.0/8").common_ancestor(p("128.0.0.0/8")), Ipv4Prefix::ROOT);
        let x = p("10.1.2.0/24");
        assert_eq!(x.common_ancestor(x), x);
    }

    #[test]
    fn children_partition_parent() {
        let a = p("10.0.0.0/8");
        let (l, r) = a.children().unwrap();
        assert_eq!(l, p("10.0.0.0/9"));
        assert_eq!(r, p("10.128.0.0/9"));
        assert!(a.contains(l) && a.contains(r));
        assert_eq!(l.size() + r.size(), a.size());
        assert!(Ipv4Prefix::host(1).children().is_none());
    }

    #[test]
    fn ordering_groups_by_level() {
        let mut v = vec![p("10.1.2.0/24"), p("0.0.0.0/0"), p("9.0.0.0/8"), p("10.0.0.0/8")];
        v.sort();
        assert_eq!(v, vec![p("0.0.0.0/0"), p("9.0.0.0/8"), p("10.0.0.0/8"), p("10.1.2.0/24")]);
    }

    #[test]
    fn ipv6_basics() {
        let a: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
        assert_eq!(a.to_string(), "2001:db8::/32");
        assert!(a.contains_addr(0x2001_0db8_0000_0000_0000_0000_0000_0001));
        let b: Ipv6Prefix = "2001:db8:1::/48".parse().unwrap();
        assert!(a.contains(b));
        assert_eq!(b.ancestor(32), a);
        assert_eq!(Ipv6Prefix::ROOT.to_string(), "::/0");
        let mut cur = b;
        let mut steps = 0;
        while let Some(up) = cur.parent() {
            cur = up;
            steps += 1;
        }
        assert_eq!(steps, 48);
        assert!("2001:db8::/129".parse::<Ipv6Prefix>().is_err());
        assert!("zzz/32".parse::<Ipv6Prefix>().is_err());
    }

    #[test]
    fn ipv6_host_bits_masked() {
        let a = Ipv6Prefix::new(u128::MAX, 64);
        assert_eq!(a.addr(), 0xFFFF_FFFF_FFFF_FFFF_0000_0000_0000_0000);
    }

    proptest! {
        /// The hand-written text is `std`'s address form plus `/len`.
        #[test]
        fn ipv4_display_is_the_std_address_form(bits in any::<u32>(), len in 0u8..=32) {
            let p = Ipv4Prefix::new(bits, len);
            let want = format!("{}/{}", std::net::Ipv4Addr::from(p.addr()), len);
            prop_assert_eq!(p.to_string(), want);
        }
    }
}
