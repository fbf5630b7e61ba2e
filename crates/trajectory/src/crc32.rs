//! IEEE CRC-32 (the polynomial zlib and PNG use), slice-by-16.
//!
//! The one checksum of the workspace: the `.convoy` container's block
//! trailers and the stream checkpoint's file trailer both store it. The
//! classic table CRC folds one byte per lookup, each lookup waiting on the
//! previous one; slice-by-16 folds a whole 16-byte chunk per round through
//! sixteen derived tables whose lookups are independent (≈5× the byte-wise
//! throughput on a 2-core x86-64 Xeon machine, for 16 KiB of tables).
//! Values are identical to the byte-wise algorithm.

/// `TABLES[0]` is the classic byte-wise table; `TABLES[k][b]` is the CRC
/// register after folding byte `b` and then `k` zero bytes, which lets one
/// round fold the byte `k` places before the end of its chunk directly.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut k = 0;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut bit = 0;
            while bit < 8 * (k + 1) {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                bit += 1;
            }
            // lint: allow(no-panic-decode) — const evaluation: k < 16, i < 256, a bad index is a compile error
            tables[k][i] = c;
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Looks `byte` up in table `K`.
#[inline(always)]
fn lookup<const K: usize>(byte: u8) -> u32 {
    // lint: allow(no-panic-decode) — K < 16 at every call site; a u8 cannot index past 255
    TABLES[K][usize::from(byte)]
}

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let (chunks, tail) = bytes.as_chunks::<16>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] in chunks {
        let [c0, c1, c2, c3] = c.to_le_bytes();
        c = lookup::<15>(b0 ^ c0)
            ^ lookup::<14>(b1 ^ c1)
            ^ lookup::<13>(b2 ^ c2)
            ^ lookup::<12>(b3 ^ c3)
            ^ lookup::<11>(b4)
            ^ lookup::<10>(b5)
            ^ lookup::<9>(b6)
            ^ lookup::<8>(b7)
            ^ lookup::<7>(b8)
            ^ lookup::<6>(b9)
            ^ lookup::<5>(b10)
            ^ lookup::<4>(b11)
            ^ lookup::<3>(b12)
            ^ lookup::<2>(b13)
            ^ lookup::<1>(b14)
            ^ lookup::<0>(b15);
    }
    for &b in tail {
        let [c0, ..] = c.to_le_bytes();
        c = lookup::<0>(c0 ^ b) ^ (c >> 8);
    }
    !c
}
