//! Target-address classification per RFC 7707 — our `addr6` equivalent.
//!
//! The paper categorizes every probed destination (Table 3) into the
//! RFC 7707 pattern classes plus Subnet-Router anycast (RFC 4291). The
//! classifier looks at the 64-bit interface identifier:
//!
//! | class | IID shape | example |
//! |---|---|---|
//! | subnet-anycast | all-zero IID | `2001:db8:1::` |
//! | isatap | `xx00:5efe:a.b.c.d` | `2001:db8::0:5efe:c000:1` |
//! | ieee-derived | EUI-64 `ff:fe` in the middle | `…:0211:22ff:fe33:4455` |
//! | embedded-port | service port in the low word, rest zero | `2001:db8::443` |
//! | low-byte | only the low 16 bits set | `2001:db8::1` |
//! | embedded-ipv4 | IPv4 address in the low 32 bits, rest zero | `2001:db8::c000:201` |
//! | pattern-bytes | repeated bytes or hex words | `2001:db8::cafe:cafe` |
//! | randomized | none of the above | privacy/TGA addresses |
//!
//! Order matters: `::443` is a port *and* a low-byte shape; addr6 (and we)
//! prefer the more specific service-port reading.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv6Addr;

/// RFC 7707 address classes as used in Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AddressType {
    /// No recognizable structure (privacy extensions, TGA output, random).
    Randomized,
    /// Only the lowest bytes of the IID are set (`::1`, `::20`).
    LowByte,
    /// Repeated bytes or semantic hex words (`::cafe:cafe`).
    PatternBytes,
    /// An IPv4 address embedded in the IID (`::192.0.2.1`).
    EmbeddedIpv4,
    /// Subnet-Router anycast: the all-zeros IID (RFC 4291).
    SubnetAnycast,
    /// A well-known service port embedded in the IID (`::443`).
    EmbeddedPort,
    /// EUI-64 / MAC-derived (`ff:fe` infix).
    IeeeDerived,
    /// ISATAP tunnel addresses (`::5efe:a.b.c.d`).
    Isatap,
}

impl AddressType {
    /// All classes in Table 3 row order.
    pub const ALL: [AddressType; 8] = [
        AddressType::Randomized,
        AddressType::LowByte,
        AddressType::PatternBytes,
        AddressType::EmbeddedIpv4,
        AddressType::SubnetAnycast,
        AddressType::EmbeddedPort,
        AddressType::IeeeDerived,
        AddressType::Isatap,
    ];

    /// True for every class except `Randomized` — the "structured" notion
    /// used by the address-selection taxonomy (§5.3).
    pub fn is_structured(self) -> bool {
        self != AddressType::Randomized
    }

    /// Dense code of the class: its index in [`AddressType::ALL`]. Used by
    /// the columnar corpus index to store classifications as `u8`.
    pub fn code(self) -> u8 {
        match self {
            AddressType::Randomized => 0,
            AddressType::LowByte => 1,
            AddressType::PatternBytes => 2,
            AddressType::EmbeddedIpv4 => 3,
            AddressType::SubnetAnycast => 4,
            AddressType::EmbeddedPort => 5,
            AddressType::IeeeDerived => 6,
            AddressType::Isatap => 7,
        }
    }
}

impl fmt::Display for AddressType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AddressType::Randomized => "randomized",
            AddressType::LowByte => "low-byte",
            AddressType::PatternBytes => "pattern-bytes",
            AddressType::EmbeddedIpv4 => "embedded-ipv4",
            AddressType::SubnetAnycast => "subnet-anycast",
            AddressType::EmbeddedPort => "embedded-port",
            AddressType::IeeeDerived => "ieee-derived",
            AddressType::Isatap => "isatap",
        };
        f.write_str(s)
    }
}

/// Well-known service ports recognized for the embedded-port class, both as
/// decimal values (`::80` = 0x50) and as hex spellings (`::443` = 0x443).
const SERVICE_PORTS: [u16; 16] = [
    21, 22, 23, 25, 53, 80, 110, 123, 143, 161, 443, 500, 993, 3306, 8080, 8443,
];

/// A service port re-read as hex digits: decimal 443 becomes IID value
/// 0x443, so `2001:db8::443` *displays* as "443". Returns `None` when a
/// decimal digit of the port is ≥ 10 in some position — impossible by
/// construction (decimal digits are 0–9) — or when the hex spelling would
/// not fit 16 bits (ports ≥ 10000, whose spelling needs five nibbles).
const fn hex_spelling(port: u16) -> Option<u16> {
    if port >= 10_000 {
        return None;
    }
    let mut value: u16 = 0;
    let mut shift = 0u32;
    let mut rest = port;
    loop {
        value |= (rest % 10) << shift;
        rest /= 10;
        if rest == 0 {
            return Some(value);
        }
        shift += 4;
    }
}

/// IID values whose *hex rendering* spells a well-known service port
/// (`::443` = 0x443 renders as "443"). Precomputed from [`SERVICE_PORTS`]
/// at compile time so [`classify`] never formats or parses strings on the
/// per-packet hot path.
const HEX_SPELLED_PORTS: [u16; 16] = {
    let mut table = [0u16; 16];
    let mut i = 0;
    while i < SERVICE_PORTS.len() {
        table[i] = match hex_spelling(SERVICE_PORTS[i]) {
            Some(v) => v,
            None => SERVICE_PORTS[i], // spelling overflow: decimal entry covers it
        };
        i += 1;
    }
    table
};

/// Hex words commonly used in manually configured "wordy" addresses.
const HEX_WORDS: [u16; 12] = [
    0xcafe, 0xbabe, 0xdead, 0xbeef, 0xf00d, 0xfeed, 0xface, 0xc0de, 0xb00b, 0xd00d, 0xabba, 0xaffe,
];

/// Classifies the interface identifier of `addr`.
pub fn classify(addr: Ipv6Addr) -> AddressType {
    let iid = u128::from(addr) as u64;
    if iid == 0 {
        return AddressType::SubnetAnycast;
    }
    // ISATAP: 0000:5efe or 0200:5efe in the upper 32 bits of the IID.
    let upper32 = (iid >> 32) as u32;
    if upper32 == 0x0000_5efe || upper32 == 0x0200_5efe {
        return AddressType::Isatap;
    }
    // EUI-64: bytes 3..5 of the IID are ff:fe.
    if (iid >> 24) & 0xffff == 0xfffe {
        return AddressType::IeeeDerived;
    }
    if iid <= 0xffff {
        let low = iid as u16;
        // Hex spelling: 0x443 *displays* as "443". The precomputed table
        // replaces the former format!+parse round-trip (a heap allocation
        // per low-IID packet on the Table-3 hot path).
        if SERVICE_PORTS.contains(&low) || HEX_SPELLED_PORTS.contains(&low) {
            return AddressType::EmbeddedPort;
        }
        return AddressType::LowByte;
    }
    // Embedded IPv4: upper 32 bits of the IID zero, low 32 look like v4.
    if upper32 == 0 {
        return AddressType::EmbeddedIpv4;
    }
    if is_pattern_bytes(iid) {
        return AddressType::PatternBytes;
    }
    AddressType::Randomized
}

/// Pattern detection: at most two distinct byte values in the IID, or a
/// recognized hex word in any 16-bit group.
fn is_pattern_bytes(iid: u64) -> bool {
    let bytes = iid.to_be_bytes();
    let mut distinct: Vec<u8> = Vec::with_capacity(3);
    for b in bytes {
        if !distinct.contains(&b) {
            distinct.push(b);
            if distinct.len() > 2 {
                break;
            }
        }
    }
    if distinct.len() <= 2 {
        return true;
    }
    (0..4).any(|i| {
        let group = ((iid >> (48 - i * 16)) & 0xffff) as u16;
        HEX_WORDS.contains(&group)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> AddressType {
        classify(s.parse().unwrap())
    }

    #[test]
    fn subnet_anycast() {
        assert_eq!(c("2001:db8:1::"), AddressType::SubnetAnycast);
        assert_eq!(c("2001:db8:ffff:abcd::"), AddressType::SubnetAnycast);
    }

    #[test]
    fn low_byte_examples() {
        assert_eq!(c("2001:db8::1"), AddressType::LowByte);
        assert_eq!(c("2001:db8::2"), AddressType::LowByte);
        assert_eq!(c("2001:db8::1a"), AddressType::LowByte);
        // Two low bytes still count.
        assert_eq!(c("2001:db8::1234"), AddressType::LowByte);
    }

    #[test]
    fn embedded_port_beats_low_byte() {
        assert_eq!(
            c("2001:db8::443"),
            AddressType::EmbeddedPort,
            "hex spelling of 443"
        );
        assert_eq!(
            c("2001:db8::80"),
            AddressType::EmbeddedPort,
            "hex spelling of 80"
        );
        assert_eq!(
            c("2001:db8::50"),
            AddressType::EmbeddedPort,
            "0x50 = decimal 80"
        );
        assert_eq!(
            c("2001:db8::35"),
            AddressType::EmbeddedPort,
            "0x35 = decimal 53"
        );
        // 1 is not a service port.
        assert_eq!(c("2001:db8::1"), AddressType::LowByte);
    }

    #[test]
    fn embedded_ipv4() {
        // 192.0.2.1 = 0xc0000201.
        assert_eq!(c("2001:db8::c000:201"), AddressType::EmbeddedIpv4);
        assert_eq!(c("2001:db8::192.0.2.1"), AddressType::EmbeddedIpv4);
    }

    #[test]
    fn ieee_derived() {
        assert_eq!(c("2001:db8::211:22ff:fe33:4455"), AddressType::IeeeDerived);
        assert_eq!(c("2001:db8::ff:fe00:1"), AddressType::IeeeDerived);
    }

    #[test]
    fn isatap() {
        assert_eq!(c("2001:db8::5efe:c000:201"), AddressType::Isatap);
        assert_eq!(c("2001:db8::200:5efe:c000:201"), AddressType::Isatap);
    }

    #[test]
    fn pattern_bytes() {
        assert_eq!(
            c("2001:db8::cafe:cafe:cafe:cafe"),
            AddressType::PatternBytes
        );
        assert_eq!(c("2001:db8::dead:beef:0:1"), AddressType::PatternBytes);
        assert_eq!(
            c("2001:db8::aaaa:aaaa:aaaa:aaaa"),
            AddressType::PatternBytes
        );
        // ≤ 2 distinct bytes.
        assert_eq!(c("2001:db8::a5a5:a5a5:a5a5:0"), AddressType::PatternBytes);
    }

    #[test]
    fn randomized_fallback() {
        assert_eq!(c("2001:db8::3a7f:91c4:d02e:65b8"), AddressType::Randomized);
        assert_eq!(c("2001:db8::1234:5678:9abc:def0"), AddressType::Randomized);
    }

    #[test]
    fn classification_ignores_the_network_prefix() {
        // Same IID under different prefixes classifies identically.
        assert_eq!(c("2001:db8::1"), c("3fff:1234:5678::1"));
        assert_eq!(
            c("2001:db8:1:2:211:22ff:fe33:4455"),
            c("3fff::211:22ff:fe33:4455")
        );
    }

    #[test]
    fn hex_spelled_table_matches_string_round_trip() {
        // The const table must agree with the format!+parse definition it
        // replaced, for every possible low IID value.
        for low in 0..=u16::MAX {
            let rendered = format!("{low:x}");
            let parsed: Option<u16> = rendered.parse().ok();
            let string_based = parsed.is_some_and(|p| SERVICE_PORTS.contains(&p));
            assert_eq!(
                HEX_SPELLED_PORTS.contains(&low),
                string_based,
                "table diverges from string check at 0x{low:x}"
            );
        }
    }

    #[test]
    fn hex_spelling_of_known_ports() {
        assert_eq!(hex_spelling(443), Some(0x443));
        assert_eq!(hex_spelling(80), Some(0x80));
        assert_eq!(hex_spelling(8443), Some(0x8443));
        assert_eq!(hex_spelling(10_000), None, "five nibbles overflow u16");
    }

    #[test]
    fn codes_round_trip_in_table_order() {
        for (i, &ty) in AddressType::ALL.iter().enumerate() {
            assert_eq!(ty.code() as usize, i);
            assert_eq!(AddressType::ALL[ty.code() as usize], ty);
        }
    }

    #[test]
    fn structured_predicate() {
        assert!(AddressType::LowByte.is_structured());
        assert!(AddressType::SubnetAnycast.is_structured());
        assert!(!AddressType::Randomized.is_structured());
    }
}
