//! 64-bit FNV-1a: the one stable, dependency-free hash behind checkpoint
//! checksums and context fingerprints, fleet cell seeds and report
//! fingerprints. Its output is identical on every platform and release.

/// FNV-1a 64 offset basis: the hash of the empty input.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 prime.
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continue the FNV-1a 64 hash `h` over `bytes`, so a hash can be built
/// up field by field without buffering.
#[inline]
pub fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME))
}

/// FNV-1a 64 over `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // FNV-1a 64 published test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Extending field by field equals hashing the concatenation.
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
