//! IPv6 CIDR prefix algebra.
//!
//! [`Ipv6Prefix`] is the central address-space abstraction: telescopes are
//! configured by prefix, BGP announces prefixes, scanners select target
//! prefixes, and the T1 experiment recursively splits a /32 into 17 prefixes.
//! All operations are pure integer arithmetic on the 128-bit address.

use crate::error::TypeError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

/// An IPv6 prefix in CIDR notation, stored canonically (host bits zeroed).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ipv6Prefix {
    bits: u128,
    len: u8,
}

impl Ipv6Prefix {
    /// Creates a prefix, zeroing any host bits below `len`.
    ///
    /// Returns [`TypeError::InvalidPrefixLength`] if `len > 128`.
    pub fn new(addr: Ipv6Addr, len: u8) -> Result<Self, TypeError> {
        if len > 128 {
            return Err(TypeError::InvalidPrefixLength(len as u16));
        }
        Ok(Self {
            bits: u128::from(addr) & Self::mask(len),
            len,
        })
    }

    /// Creates a prefix from raw 128-bit integer network bits.
    pub fn from_bits(bits: u128, len: u8) -> Result<Self, TypeError> {
        Self::new(Ipv6Addr::from(bits), len)
    }

    /// The all-encompassing `::/0` prefix.
    pub fn default_route() -> Self {
        Self { bits: 0, len: 0 }
    }

    /// The network mask for a prefix length: `len` leading ones.
    pub fn mask(len: u8) -> u128 {
        if len == 0 {
            0
        } else {
            u128::MAX << (128 - len as u32)
        }
    }

    /// The first address of the prefix (network bits, host bits zero).
    pub fn network(&self) -> Ipv6Addr {
        Ipv6Addr::from(self.bits)
    }

    /// Network bits as a raw integer.
    pub fn bits(&self) -> u128 {
        self.bits
    }

    /// Prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True for `::/0` only; provided to satisfy the `len`/`is_empty` idiom.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tests whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        u128::from(addr) & Self::mask(self.len) == self.bits
    }

    /// Tests whether `other` is equal to or more specific than `self`.
    pub fn covers(&self, other: &Ipv6Prefix) -> bool {
        other.len >= self.len && (other.bits & Self::mask(self.len)) == self.bits
    }

    /// Tests whether the two prefixes share any address.
    pub fn overlaps(&self, other: &Ipv6Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// Splits the prefix into its two more-specific halves.
    ///
    /// Returns the `(low, high)` pair — e.g. `2001:db8::/32` splits into
    /// `2001:db8::/33` (low) and `2001:db8:8000::/33` (high). This is the
    /// paper's bi-weekly split primitive (Fig. 2).
    pub fn split(&self) -> Result<(Ipv6Prefix, Ipv6Prefix), TypeError> {
        if self.len >= 128 {
            return Err(TypeError::CannotSplit);
        }
        let child_len = self.len + 1;
        let high_bit = 1u128 << (128 - child_len as u32);
        Ok((
            Ipv6Prefix {
                bits: self.bits,
                len: child_len,
            },
            Ipv6Prefix {
                bits: self.bits | high_bit,
                len: child_len,
            },
        ))
    }

    /// The immediate parent prefix (one bit less specific), or `None` for `::/0`.
    pub fn parent(&self) -> Option<Ipv6Prefix> {
        if self.len == 0 {
            None
        } else {
            let len = self.len - 1;
            Some(Ipv6Prefix {
                bits: self.bits & Self::mask(len),
                len,
            })
        }
    }

    /// The *low-byte address* of the prefix per the paper: its `::1` address.
    ///
    /// The split-selection rule in §3.1 avoids splitting the prefix that
    /// contains the low-byte address of the previously announced covering
    /// prefix, so new announcements get fresh low-byte targets.
    pub fn low_byte_address(&self) -> Ipv6Addr {
        Ipv6Addr::from(self.bits | 1)
    }

    /// The Subnet-Router anycast address (RFC 4291): all host bits zero.
    pub fn subnet_router_anycast(&self) -> Ipv6Addr {
        self.network()
    }

    /// Number of addresses covered, saturating at `u128::MAX` for `::/0`.
    pub fn address_count(&self) -> u128 {
        if self.len == 0 {
            u128::MAX
        } else {
            1u128 << (128 - self.len as u32)
        }
    }

    /// Iterates the more-specific subnets of length `sub_len` inside this
    /// prefix, in address order.
    ///
    /// # Panics
    /// Panics if `sub_len < self.len()` or `sub_len > 128`, or if the number
    /// of subnets would exceed `u64::MAX`.
    pub fn subnets(&self, sub_len: u8) -> SubnetIter {
        assert!(
            sub_len >= self.len && sub_len <= 128,
            "subnet length {sub_len} invalid for /{}",
            self.len
        );
        assert!(
            sub_len - self.len <= 64,
            "too many subnets to iterate (/{} inside /{})",
            sub_len,
            self.len
        );
        SubnetIter {
            base: self.bits,
            sub_len,
            next: 0,
            count: 1u128 << (sub_len - self.len) as u32,
        }
    }

    /// The `n`-th address inside the prefix (offset from the network address),
    /// wrapping within the prefix if `n` exceeds its size.
    pub fn nth_address(&self, n: u128) -> Ipv6Addr {
        let host_mask = !Self::mask(self.len);
        Ipv6Addr::from(self.bits | (n & host_mask))
    }
}

/// Iterator over fixed-length subnets of a prefix, in address order.
pub struct SubnetIter {
    base: u128,
    sub_len: u8,
    next: u128,
    count: u128,
}

impl Iterator for SubnetIter {
    type Item = Ipv6Prefix;

    fn next(&mut self) -> Option<Ipv6Prefix> {
        if self.next >= self.count {
            return None;
        }
        let step = 1u128 << (128 - self.sub_len as u32);
        let bits = self.base + self.next * step;
        self.next += 1;
        Some(Ipv6Prefix {
            bits,
            len: self.sub_len,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.count - self.next).min(usize::MAX as u128) as usize;
        (rem, Some(rem))
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Debug for Ipv6Prefix {
    // Delegates to `Display` so prefix dumps stay compact in test output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Ipv6Prefix {
    type Err = TypeError;

    fn from_str(s: &str) -> Result<Self, TypeError> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| TypeError::MissingLength(s.to_string()))?;
        let addr: Ipv6Addr = addr
            .parse()
            .map_err(|_| TypeError::ParseAddr(addr.to_string()))?;
        let len: u8 = len
            .parse()
            .map_err(|_| TypeError::InvalidPrefixLength(u16::MAX))?;
        Ipv6Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            "2001:db8::/32",
            "::/0",
            "2001:db8:8000::/33",
            "2001:db8::1/128",
        ] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn new_zeroes_host_bits() {
        let pre = Ipv6Prefix::new("2001:db8::dead:beef".parse().unwrap(), 32).unwrap();
        assert_eq!(pre, p("2001:db8::/32"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("2001:db8::/129".parse::<Ipv6Prefix>().is_err());
        assert!("2001:db8::".parse::<Ipv6Prefix>().is_err());
        assert!("zz/32".parse::<Ipv6Prefix>().is_err());
        assert!("2001:db8::/xx".parse::<Ipv6Prefix>().is_err());
    }

    #[test]
    fn contains_checks_network_bits() {
        let pre = p("2001:db8::/32");
        assert!(pre.contains("2001:db8::1".parse().unwrap()));
        assert!(pre.contains("2001:db8:ffff:ffff:ffff:ffff:ffff:ffff".parse().unwrap()));
        assert!(!pre.contains("2001:db9::1".parse().unwrap()));
    }

    #[test]
    fn covers_is_reflexive_and_directional() {
        let p32 = p("2001:db8::/32");
        let p33 = p("2001:db8:8000::/33");
        assert!(p32.covers(&p32));
        assert!(p32.covers(&p33));
        assert!(!p33.covers(&p32));
        assert!(!p33.covers(&p("2001:db8::/33")));
    }

    #[test]
    fn overlaps_in_either_direction() {
        let p32 = p("2001:db8::/32");
        let p48 = p("2001:db8:1234::/48");
        assert!(p32.overlaps(&p48));
        assert!(p48.overlaps(&p32));
        assert!(!p48.overlaps(&p("2001:db8:1235::/48")));
    }

    #[test]
    fn split_produces_ordered_halves() {
        let (lo, hi) = p("2001:db8::/32").split().unwrap();
        assert_eq!(lo, p("2001:db8::/33"));
        assert_eq!(hi, p("2001:db8:8000::/33"));
        assert!(p("2001:db8::/32").covers(&lo));
        assert!(p("2001:db8::/32").covers(&hi));
        assert!(!lo.overlaps(&hi));
    }

    #[test]
    fn split_of_host_route_fails() {
        assert_eq!(p("::1/128").split().unwrap_err(), TypeError::CannotSplit);
    }

    #[test]
    fn parent_inverts_split() {
        let pre = p("2001:db8::/32");
        let (lo, hi) = pre.split().unwrap();
        assert_eq!(lo.parent().unwrap(), pre);
        assert_eq!(hi.parent().unwrap(), pre);
        assert!(Ipv6Prefix::default_route().parent().is_none());
    }

    #[test]
    fn low_byte_address_is_colon_one() {
        assert_eq!(
            p("2001:db8::/32").low_byte_address(),
            "2001:db8::1".parse::<Ipv6Addr>().unwrap()
        );
        assert_eq!(
            p("2001:db8:8000::/33").low_byte_address(),
            "2001:db8:8000::1".parse::<Ipv6Addr>().unwrap()
        );
    }

    #[test]
    fn low_byte_containment_drives_split_choice() {
        // The low-byte address of the covering /32 lives in the low half —
        // the paper's rule therefore splits the *high* half next.
        let p32 = p("2001:db8::/32");
        let (lo, hi) = p32.split().unwrap();
        assert!(lo.contains(p32.low_byte_address()));
        assert!(!hi.contains(p32.low_byte_address()));
    }

    #[test]
    fn address_count_and_last_address() {
        let p48 = p("2001:db8:1234::/48");
        assert_eq!(p48.address_count(), 1u128 << 80);
        let last: Ipv6Addr = "2001:db8:1234:ffff:ffff:ffff:ffff:ffff".parse().unwrap();
        assert!(p48.contains(last));
        assert!(!p48.contains(Ipv6Addr::from(u128::from(last) + 1)));
        assert_eq!(Ipv6Prefix::default_route().address_count(), u128::MAX);
    }

    #[test]
    fn subnets_iterate_in_order() {
        let subs: Vec<_> = p("2001:db8::/32").subnets(34).collect();
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0], p("2001:db8::/34"));
        assert_eq!(subs[1], p("2001:db8:4000::/34"));
        assert_eq!(subs[2], p("2001:db8:8000::/34"));
        assert_eq!(subs[3], p("2001:db8:c000::/34"));
    }

    #[test]
    fn subnets_of_same_length_is_identity() {
        let subs: Vec<_> = p("2001:db8::/32").subnets(32).collect();
        assert_eq!(subs, vec![p("2001:db8::/32")]);
    }

    #[test]
    fn nth_address_wraps_within_prefix() {
        let p126 = p("2001:db8::/126");
        assert_eq!(
            p126.nth_address(0),
            "2001:db8::".parse::<Ipv6Addr>().unwrap()
        );
        assert_eq!(
            p126.nth_address(3),
            "2001:db8::3".parse::<Ipv6Addr>().unwrap()
        );
        assert_eq!(
            p126.nth_address(4),
            "2001:db8::".parse::<Ipv6Addr>().unwrap()
        );
    }

    #[test]
    fn ordering_is_by_network_then_length() {
        let mut v = vec![
            p("2001:db8:8000::/33"),
            p("2001:db8::/32"),
            p("2001:db8::/33"),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                p("2001:db8::/32"),
                p("2001:db8::/33"),
                p("2001:db8:8000::/33")
            ]
        );
    }
}
