//! IRR route6 objects.
//!
//! §3.2 of the paper: the authors created a route6 object for the non-split
//! /33 four months in (observing no scanner effect) and deliberately did not
//! create ROAs, because *not-found* routes are not filtered. The route6
//! registry is modelled so the experiment schedule can reproduce that
//! action and an IRR-filtering upstream can be configured in ablations.

use serde::{Deserialize, Serialize};
use sixscope_types::{Asn, Ipv6Prefix, SimTime};
use std::collections::BTreeSet;

/// A route6 object: "this origin AS may announce this prefix".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Route6Object {
    /// The registered prefix.
    pub prefix: Ipv6Prefix,
    /// The registered origin AS.
    pub origin: Asn,
}

/// An IRR database of route6 objects with creation timestamps.
#[derive(Debug, Clone, Default)]
pub struct Route6Registry {
    objects: BTreeSet<(Route6Object, SimTime)>,
}

impl Route6Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an object at `now`.
    pub fn register(&mut self, prefix: Ipv6Prefix, origin: Asn, now: SimTime) {
        self.objects.insert((Route6Object { prefix, origin }, now));
    }

    /// True if a matching object existed at `at` that covers the announced
    /// prefix (IRR filters typically accept exact or covered more-specifics).
    pub fn is_registered(&self, prefix: &Ipv6Prefix, origin: Asn, at: SimTime) -> bool {
        self.objects.iter().any(|(obj, created)| {
            *created <= at && obj.origin == origin && obj.prefix.covers(prefix)
        })
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn route6_registration_is_time_aware() {
        let mut reg = Route6Registry::new();
        let t_create = SimTime::from_secs(1000);
        reg.register(p("2001:db8::/33"), Asn(64500), t_create);
        assert!(!reg.is_registered(&p("2001:db8::/33"), Asn(64500), SimTime::from_secs(999)));
        assert!(reg.is_registered(&p("2001:db8::/33"), Asn(64500), t_create));
        // Covered more-specific counts; other origin does not.
        assert!(reg.is_registered(&p("2001:db8::/34"), Asn(64500), t_create));
        assert!(!reg.is_registered(&p("2001:db8::/33"), Asn(64501), t_create));
        // Unrelated prefix does not.
        assert!(!reg.is_registered(&p("2001:db8:8000::/33"), Asn(64500), t_create));
    }
}
