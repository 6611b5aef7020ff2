//! Helpers for manipulating raw IPv6 addresses as 128-bit integers.
//!
//! The analysis pipeline frequently inspects nibbles (4-bit hex digits) of
//! target addresses — e.g. to render the nibble matrices of Figures 12/13 or
//! to detect low-byte structure — so the helpers here operate on `u128` with
//! nibble index 0 being the *most significant* nibble (the leftmost hex digit
//! of the canonical textual form).

/// Returns nibble `i` (0 = most significant, 31 = least significant) of `addr`.
///
/// # Panics
/// Panics if `i >= 32`.
pub fn nibble(addr: u128, i: usize) -> u8 {
    assert!(i < 32, "nibble index {i} out of range");
    ((addr >> ((31 - i) * 4)) & 0xf) as u8
}

/// Returns a copy of `addr` with nibble `i` replaced by `value & 0xf`.
///
/// # Panics
/// Panics if `i >= 32`.
pub fn set_nibble(addr: u128, i: usize, value: u8) -> u128 {
    assert!(i < 32, "nibble index {i} out of range");
    let shift = (31 - i) * 4;
    (addr & !(0xfu128 << shift)) | (((value & 0xf) as u128) << shift)
}

/// Extracts the interface identifier (low 64 bits) of an address.
pub fn iid(addr: u128) -> u64 {
    addr as u64
}

/// Extracts bits `[start_len, start_len + count)` counted from the most
/// significant bit, right-aligned in the result.
///
/// Used to isolate the "subnet part" of a target address relative to a
/// telescope prefix — the paper's Appendix B tests the 32 bits after the
/// fixed /32 separately from the 64-bit IID.
///
/// # Panics
/// Panics if `start_len + count > 128` or `count == 0 || count > 128`.
pub fn subnet_bits(addr: u128, start_len: u32, count: u32) -> u128 {
    assert!((1..=128).contains(&count), "bit count {count} out of range");
    assert!(start_len + count <= 128, "bit range exceeds 128 bits");
    let shifted = addr << start_len;
    shifted >> (128 - count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;

    #[test]
    fn nibble_extracts_hex_digits_in_text_order() {
        let addr: u128 = u128::from("2001:db8::1".parse::<Ipv6Addr>().unwrap());
        assert_eq!(nibble(addr, 0), 0x2);
        assert_eq!(nibble(addr, 1), 0x0);
        assert_eq!(nibble(addr, 2), 0x0);
        assert_eq!(nibble(addr, 3), 0x1);
        assert_eq!(nibble(addr, 4), 0x0);
        assert_eq!(nibble(addr, 5), 0xd);
        assert_eq!(nibble(addr, 6), 0xb);
        assert_eq!(nibble(addr, 7), 0x8);
        assert_eq!(nibble(addr, 31), 0x1);
    }

    #[test]
    fn set_nibble_round_trips() {
        let addr = 0u128;
        let out = set_nibble(addr, 0, 0xf);
        assert_eq!(nibble(out, 0), 0xf);
        let out = set_nibble(out, 31, 0x7);
        assert_eq!(nibble(out, 31), 0x7);
        assert_eq!(nibble(out, 0), 0xf);
    }

    #[test]
    fn set_nibble_masks_value_to_four_bits() {
        let out = set_nibble(0, 5, 0xab);
        assert_eq!(nibble(out, 5), 0xb);
    }

    #[test]
    fn iid_is_low_64_bits() {
        let addr = (0x2001_0db8_0000_0000u128 << 64) | 0xdead_beef_cafe_0001;
        assert_eq!(iid(addr), 0xdead_beef_cafe_0001);
    }

    #[test]
    fn subnet_bits_extracts_middle_range() {
        // 2001:db8:abcd:1234::/64 — take 32 bits after a /32.
        let addr: u128 = u128::from("2001:db8:abcd:1234::".parse::<Ipv6Addr>().unwrap());
        assert_eq!(subnet_bits(addr, 32, 32), 0xabcd_1234);
        // Whole address.
        assert_eq!(subnet_bits(addr, 0, 128), addr);
        // The IID.
        assert_eq!(subnet_bits(addr, 64, 64) as u64, iid(addr));
    }

    #[test]
    #[should_panic]
    fn nibble_rejects_out_of_range_index() {
        nibble(0, 32);
    }
}
