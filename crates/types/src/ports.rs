//! Well-known transport ports and port classification used in Table 4.
//!
//! The paper aggregates the default traceroute destination range
//! `[33434, 33523]` into a single "Traceroute" row; everything else is
//! reported by its raw port number.

/// Default traceroute UDP destination range (base port 33434, 90 hops).
pub const TRACEROUTE_RANGE: std::ops::RangeInclusive<u16> = 33434..=33523;

/// HTTP.
pub const HTTP: u16 = 80;
/// HTTPS.
pub const HTTPS: u16 = 443;
/// FTP control.
pub const FTP: u16 = 21;
/// SSH.
pub const SSH: u16 = 22;
/// DNS.
pub const DNS: u16 = 53;
/// NTP.
pub const NTP: u16 = 123;
/// SNMP.
pub const SNMP: u16 = 161;
/// ISAKMP / IKE.
pub const ISAKMP: u16 = 500;
/// SMB.
pub const SMB: u16 = 445;
/// RDP.
pub const RDP: u16 = 3389;

/// True if `port` lies in the default traceroute destination range.
pub fn is_traceroute_port(port: u16) -> bool {
    TRACEROUTE_RANGE.contains(&port)
}

/// The label used by Table 4 for a UDP destination port: traceroute-range
/// ports collapse to one label, everything else is its number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PortLabel {
    /// Any port in [`TRACEROUTE_RANGE`].
    Traceroute,
    /// A concrete port number.
    Port(u16),
}

impl PortLabel {
    /// Classifies a UDP destination port.
    pub fn classify_udp(port: u16) -> PortLabel {
        if is_traceroute_port(port) {
            PortLabel::Traceroute
        } else {
            PortLabel::Port(port)
        }
    }

    /// Classifies a TCP destination port (no aggregation applies).
    pub fn classify_tcp(port: u16) -> PortLabel {
        PortLabel::Port(port)
    }
}

impl std::fmt::Display for PortLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortLabel::Traceroute => f.write_str("Traceroute"),
            PortLabel::Port(p) => write!(f, "{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceroute_range_boundaries() {
        assert!(is_traceroute_port(33434));
        assert!(is_traceroute_port(33523));
        assert!(!is_traceroute_port(33433));
        assert!(!is_traceroute_port(33524));
    }

    #[test]
    fn udp_classification_collapses_traceroute() {
        assert_eq!(PortLabel::classify_udp(33500), PortLabel::Traceroute);
        assert_eq!(PortLabel::classify_udp(DNS), PortLabel::Port(53));
    }

    #[test]
    fn tcp_classification_keeps_raw_ports() {
        assert_eq!(PortLabel::classify_tcp(33500), PortLabel::Port(33500));
    }

    #[test]
    fn display_labels() {
        assert_eq!(PortLabel::Traceroute.to_string(), "Traceroute");
        assert_eq!(PortLabel::Port(443).to_string(), "443");
    }
}
