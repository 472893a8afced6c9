//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), the checksum every chunk
//! payload carries.
//!
//! Implemented locally because the build environment has no crates
//! registry.  Every chunk is hashed once on write and once on read, so the
//! checksum sits on the ingest path: it uses slicing-by-8, folding eight
//! input bytes per step through eight 256-entry tables, and finishes the
//! last `len % 8` bytes with the classic byte-at-a-time table step.  Both
//! forms compute the same function; the tests compare them bit for bit.

/// Slicing-by-8 lookup tables for the reflected polynomial: `TABLES[0]` is
/// the classic byte-at-a-time table, and `TABLES[k][i]` is the CRC state of
/// byte `i` followed by `k` zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        let mut byte_table = [0u32; 256];
        for (i, entry) in byte_table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        let mut previous = byte_table;
        for table in tables.iter_mut() {
            *table = previous;
            for entry in previous.iter_mut() {
                *entry = (*entry >> 8) ^ lookup(&byte_table, *entry as u8);
            }
        }
        tables
    })
}

/// One table entry; a `u8` index is always in bounds, so the check folds
/// away.
#[inline(always)]
fn lookup(table: &[u32; 256], byte: u8) -> u32 {
    table.get(usize::from(byte)).copied().unwrap_or(0)
}

/// Computes the IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = tables();
    let mut crc = !0u32;
    let (words, tail) = bytes.as_chunks::<8>();
    for &word in words {
        let [b0, b1, b2, b3, b4, b5, b6, b7] =
            (u64::from_le_bytes(word) ^ u64::from(crc)).to_le_bytes();
        crc = lookup(t7, b0)
            ^ lookup(t6, b1)
            ^ lookup(t5, b2)
            ^ lookup(t4, b3)
            ^ lookup(t3, b4)
            ^ lookup(t2, b5)
            ^ lookup(t1, b6)
            ^ lookup(t0, b7);
    }
    for &byte in tail {
        crc = (crc >> 8) ^ lookup(t0, crc as u8 ^ byte);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition, straight from the polynomial.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn matches_the_byte_at_a_time_reference_on_random_buffers() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next_byte = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 56) as u8
        };
        for len in 0..=64usize {
            for _ in 0..8 {
                let buf: Vec<u8> = (0..len).map(|_| next_byte()).collect();
                assert_eq!(crc32(&buf), reference_crc32(&buf), "length {len}");
            }
        }
        // A long buffer exercises many 8-byte steps plus a tail.
        let long: Vec<u8> = (0..10_007).map(|_| next_byte()).collect();
        assert_eq!(crc32(&long), reference_crc32(&long));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"chunk payload bytes".to_vec();
        let baseline = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), baseline, "flip at byte {i} bit {bit}");
            }
        }
    }
}
