//! Telescope identities and configurations (paper §3.1).

use serde::{Deserialize, Serialize};
use sixscope_types::Ipv6Prefix;
use std::fmt;
use std::net::Ipv6Addr;

/// The four telescopes of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TelescopeId {
    /// BGP-controlled, untainted /32 split down to /48s.
    T1,
    /// Partially productive /48 (13 years announced, /56 in active use,
    /// one DNS-exposed address outside the productive subnet).
    T2,
    /// Entirely silent /48, only covered by a larger /29 announcement.
    T3,
    /// Reactive /48 in the same covering /29 — answers probes.
    T4,
}

impl TelescopeId {
    /// All telescopes in order.
    pub const ALL: [TelescopeId; 4] = [
        TelescopeId::T1,
        TelescopeId::T2,
        TelescopeId::T3,
        TelescopeId::T4,
    ];
}

impl fmt::Display for TelescopeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TelescopeId::T1 => "T1",
            TelescopeId::T2 => "T2",
            TelescopeId::T3 => "T3",
            TelescopeId::T4 => "T4",
        };
        f.write_str(s)
    }
}

/// Static configuration of one telescope: its identity, its prefix and
/// its capture filter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelescopeConfig {
    /// Which telescope this is.
    pub id: TelescopeId,
    /// The telescope's own prefix (the space it observes).
    pub prefix: Ipv6Prefix,
    /// A productive sub-prefix whose traffic is excluded from capture
    /// (T2's active /56).
    pub productive_subnet: Option<Ipv6Prefix>,
}

impl TelescopeConfig {
    /// The study's T1: untainted /32, BGP-controlled.
    pub fn t1(prefix: Ipv6Prefix) -> Self {
        assert_eq!(prefix.len(), 32, "T1 is a /32");
        TelescopeConfig {
            id: TelescopeId::T1,
            prefix,
            productive_subnet: None,
        }
    }

    /// The study's T2: /48 announced for 13 years, with its first /56 in
    /// productive use and excluded from capture. (Its DNS-exposed address,
    /// `ExperimentLayout::t2_dns_exposed`, sits in the second /56.)
    pub fn t2(prefix: Ipv6Prefix) -> Self {
        assert_eq!(prefix.len(), 48, "T2 is a /48");
        let productive = prefix.subnets(56).next().expect("a /48 has /56 subnets");
        TelescopeConfig {
            id: TelescopeId::T2,
            prefix,
            productive_subnet: Some(productive),
        }
    }

    /// The study's T3: silent /48 inside a covering /29.
    pub fn t3(prefix: Ipv6Prefix) -> Self {
        assert_eq!(prefix.len(), 48, "T3 is a /48");
        TelescopeConfig {
            id: TelescopeId::T3,
            prefix,
            productive_subnet: None,
        }
    }

    /// The study's T4: reactive /48 inside the same covering /29.
    pub fn t4(prefix: Ipv6Prefix) -> Self {
        assert_eq!(prefix.len(), 48, "T4 is a /48");
        TelescopeConfig {
            id: TelescopeId::T4,
            prefix,
            productive_subnet: None,
        }
    }

    /// True if traffic to `addr` should be captured (inside the prefix and
    /// not excluded as productive-subnet traffic).
    pub fn captures(&self, addr: Ipv6Addr) -> bool {
        if !self.prefix.contains(addr) {
            return false;
        }
        match &self.productive_subnet {
            Some(p) => !p.contains(addr),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn t1_constructor_checks_length() {
        let cfg = TelescopeConfig::t1(p("2001:db8::/32"));
        assert_eq!((cfg.id, cfg.productive_subnet), (TelescopeId::T1, None));
    }

    #[test]
    #[should_panic]
    fn t1_rejects_non_32() {
        TelescopeConfig::t1(p("2001:db8::/48"));
    }

    #[test]
    fn t2_excludes_productive_subnet_from_capture() {
        let cfg = TelescopeConfig::t2(p("2001:db8:2::/48"));
        let productive = cfg.productive_subnet.unwrap();
        assert_eq!(productive, p("2001:db8:2::/56"));
        // An address in the productive /56 is not captured.
        assert!(!cfg.captures("2001:db8:2:0:0::1".parse().unwrap()));
    }

    #[test]
    fn captures_requires_prefix_membership() {
        let cfg = TelescopeConfig::t3(p("2001:db8:3::/48"));
        assert!(cfg.captures("2001:db8:3::1".parse().unwrap()));
        assert!(!cfg.captures("2001:db8:4::1".parse().unwrap()));
    }

    #[test]
    fn display_names() {
        assert_eq!(TelescopeId::T1.to_string(), "T1");
        assert_eq!(TelescopeId::ALL.len(), 4);
    }
}
