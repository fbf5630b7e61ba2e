//! `trajectory::crc32` is the checksum every `.convoy` block and stream
//! checkpoint stores, so its values are part of both file formats: the
//! word-at-a-time implementation must agree with the classic byte-at-a-time
//! table CRC on every input, whatever its length or alignment.

use proptest::prelude::*;
use trajectory::crc32;

/// The textbook byte-wise IEEE CRC-32 (reflected polynomial `0xEDB88320`),
/// kept here as the reference the fast implementation is checked against.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, entry) in (0u32..).zip(table.iter_mut()) {
        let mut c = i;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *entry = c;
    }
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[test]
fn crc32_matches_known_vectors() {
    // Standard IEEE CRC-32 test vectors (zlib's `crc32` agrees).
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(
        crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
}

#[test]
fn reference_matches_known_vectors() {
    assert_eq!(reference_crc32(b""), 0);
    assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(
        reference_crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
}

#[test]
fn every_length_around_the_chunk_size_agrees() {
    let bytes: Vec<u8> = (0u8..=255).cycle().take(80).collect();
    for len in 0..=bytes.len() {
        assert_eq!(
            crc32(&bytes[..len]),
            reference_crc32(&bytes[..len]),
            "len={len}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes of every length 0..=1000 agree with the reference.
    #[test]
    fn matches_bytewise_reference(
        bytes in proptest::collection::vec(0u8..=255u8, 0..1001),
    ) {
        prop_assert_eq!(crc32(&bytes), reference_crc32(&bytes));
    }

    /// Sub-slices starting at any offset (so not aligned to the word size)
    /// agree with the reference.
    #[test]
    fn unaligned_subslices_match_bytewise_reference(
        bytes in proptest::collection::vec(0u8..=255u8, 0..1001),
        from in 0usize..1001,
        len in 0usize..1001,
    ) {
        let from = from.min(bytes.len());
        let to = from.saturating_add(len).min(bytes.len());
        let slice = &bytes[from..to];
        prop_assert_eq!(crc32(slice), reference_crc32(slice));
    }
}
