//! Self-contained LZ byte compressor (greedy hash-chain match finder).
//!
//! The token stream is LZ4-shaped but registry-free and varint-based:
//!
//! ```text
//! block    := raw_len varint | sequence*
//! sequence := ctrl u8 (lit_len:4 | match_len:4)
//!           | lit_ext varint        (only if lit_len nibble == 15)
//!           | literal bytes         (lit_len of them)
//!           | distance varint       (absent when the literals complete the block)
//!           | match_ext varint      (only if match_len nibble == 15)
//! ```
//!
//! A sequence's literal length is the nibble, plus the extension varint when
//! the nibble saturates at 15.  The match length is the nibble plus
//! [`MIN_MATCH`] (matches shorter than that are never emitted), again with a
//! varint extension at 15.  `distance` counts back from the current output
//! position and may reach anywhere into the already-produced output — the
//! window is the whole block, which is fine because blocks are container
//! chunks, not gigabyte files.  Overlapping matches (distance < length) are
//! legal, which is how runs compress.  The decoder copies a match in bulk:
//! the first step copies at most `distance` bytes, and every later step
//! copies all the bytes already written since the match source began, so
//! each copy reads only bytes that exist and a run of length `n` takes
//! `O(log n)` copies.
//!
//! The match finder is a classic greedy hash chain: 4-byte hashes index the
//! most recent occurrence, a `prev` chain links earlier ones, and the search
//! walks at most `MAX_CHAIN` candidates.  Compression is deterministic.

use trace_model::codec::varint::write_u64;
use trace_model::codec::Reader;

use crate::error::CompressError;

/// Shortest match worth encoding (a sequence costs about 3 bytes).
pub const MIN_MATCH: usize = 4;
/// Longest hash-chain walk per position; bounds worst-case encode time.
const MAX_CHAIN: usize = 128;
/// Hash table size (log2).
const HASH_BITS: u32 = 15;
/// Hard cap on a block's decompressed size.  Chunk payloads are cut far
/// smaller by the container writer; anything past this in a crafted file is
/// rejected before allocation.
pub const MAX_RAW_LEN: u64 = 1 << 30;

#[inline]
fn hash4(window: &[u8]) -> usize {
    // Callers pass windows of at least MIN_MATCH bytes; a shorter window
    // hashes to a fixed bucket instead of panicking.
    let v = match window.first_chunk::<4>() {
        Some(&bytes) => u32::from_le_bytes(bytes),
        None => 0,
    };
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `input[a..]` and `input[b..]` (`a < b`).
#[inline]
fn match_length(input: &[u8], a: usize, b: usize) -> usize {
    let tail_a = input.get(a..).unwrap_or(&[]);
    let tail_b = input.get(b..).unwrap_or(&[]);
    tail_a
        .iter()
        .zip(tail_b)
        .take_while(|(x, y)| x == y)
        .count()
}

fn write_sequence(out: &mut Vec<u8>, literals: &[u8], matched: Option<(usize, usize)>) {
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = matched
        .map(|(_, len)| (len - MIN_MATCH).min(15) as u8)
        .unwrap_or(0);
    out.push((lit_nibble << 4) | match_nibble);
    if lit_nibble == 15 {
        write_u64(out, (literals.len() - 15) as u64);
    }
    out.extend_from_slice(literals);
    if let Some((distance, len)) = matched {
        write_u64(out, distance as u64);
        if match_nibble == 15 {
            write_u64(out, (len - MIN_MATCH - 15) as u64);
        }
    }
}

/// Compresses `input` into a self-contained LZ block.
///
/// The output is never larger than `input.len() + varint(len) + a few
/// bytes` of sequence overhead; callers that care (the container writer)
/// compare lengths and keep the raw payload when compression does not pay.
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    write_u64(&mut out, input.len() as u64);
    if input.is_empty() {
        return out;
    }

    // The hash-chain internals index with loop invariants (hash4 yields
    // values below the table size by construction, positions stay below
    // input.len()); this is the trusted in-process encoder hot loop, not
    // untrusted input, so the invariants are allowed rather than re-checked
    // per byte.
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; input.len()];
    let insert = |head: &mut Vec<usize>, prev: &mut Vec<usize>, pos: usize| {
        let h = hash4(input.get(pos..).unwrap_or(&[]));
        // lint:allow(indexing) -- pos < input.len() == prev.len(); h < head.len() by the hash shift
        prev[pos] = head[h];
        // lint:allow(indexing) -- h < head.len() by the hash shift
        head[h] = pos;
    };
    let find = |head: &Vec<usize>, prev: &Vec<usize>, pos: usize| -> (usize, usize) {
        let mut best_len = 0usize;
        let mut best_pos = 0usize;
        // lint:allow(indexing) -- h < head.len() by the hash shift
        let mut candidate = head[hash4(input.get(pos..).unwrap_or(&[]))];
        let mut depth = 0usize;
        while candidate != usize::MAX && depth < MAX_CHAIN {
            let len = match_length(input, candidate, pos);
            if len > best_len {
                best_len = len;
                best_pos = candidate;
                if pos + len == input.len() {
                    break; // cannot do better than reaching the end
                }
            }
            // lint:allow(indexing) -- chain entries are positions already inserted, all < prev.len()
            candidate = prev[candidate];
            depth += 1;
        }
        (best_len, best_pos)
    };

    let mut lit_start = 0usize;
    let mut pos = 0usize;
    while pos + MIN_MATCH <= input.len() {
        let (best_len, best_pos) = find(&head, &prev, pos);
        if best_len < MIN_MATCH {
            insert(&mut head, &mut prev, pos);
            pos += 1;
            continue;
        }
        // Lazy matching: if starting one byte later yields a strictly
        // longer match, emit this byte as a literal and take the later
        // match instead (the classic gzip deferral, one step deep).
        if pos + 1 + MIN_MATCH <= input.len() {
            let (next_len, _) = find(&head, &prev, pos + 1);
            if next_len > best_len + 1 {
                insert(&mut head, &mut prev, pos);
                pos += 1;
                continue;
            }
        }
        write_sequence(
            &mut out,
            // lint:allow(indexing) -- lit_start <= pos <= input.len() by the scan loop
            &input[lit_start..pos],
            Some((pos - best_pos, best_len)),
        );
        let insert_end = (pos + best_len).min(input.len() - MIN_MATCH + 1);
        for p in pos..insert_end {
            insert(&mut head, &mut prev, p);
        }
        pos += best_len;
        lit_start = pos;
    }
    if lit_start < input.len() {
        // lint:allow(indexing) -- guarded by the bounds check on the previous line
        write_sequence(&mut out, &input[lit_start..], None);
    }
    out
}

/// Decompresses a block produced by [`lz_compress`].
///
/// Every way the input can be malformed — truncation, a distance reaching
/// before the output start, lengths disagreeing with the declared raw
/// length, trailing bytes — is a typed [`CompressError`]; the output buffer
/// grows only as bytes are actually produced.
pub fn lz_decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut out = Vec::new();
    lz_decompress_into(input, &mut out)?;
    Ok(out)
}

/// [`lz_decompress`] into a caller-owned buffer, so a reader decoding chunk
/// after chunk reuses one allocation.  `out` is cleared first; on error its
/// contents are unspecified.
pub fn lz_decompress_into(input: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
    out.clear();
    let mut reader = Reader::new(input);
    let raw_len = trace_model::codec::varint::read_u64(&mut reader)?;
    if raw_len > MAX_RAW_LEN {
        return Err(CompressError::LengthOverflow {
            what: "lz block raw length",
            declared: raw_len,
            limit: MAX_RAW_LEN,
        });
    }
    let raw_len = raw_len as usize;
    out.reserve(raw_len.min(1 << 20));
    while out.len() < raw_len {
        let ctrl = reader.read_byte().map_err(|_| CompressError::Truncated {
            what: "lz sequence control byte",
        })?;
        let mut lit_len = u64::from(ctrl >> 4);
        if lit_len == 15 {
            lit_len = lit_len
                .checked_add(trace_model::codec::varint::read_u64(&mut reader)?)
                .ok_or(CompressError::LengthOverflow {
                    what: "lz literal run",
                    declared: u64::MAX,
                    limit: raw_len as u64,
                })?;
        }
        if lit_len > (raw_len - out.len()) as u64 {
            return Err(CompressError::LengthOverflow {
                what: "lz literal run",
                declared: lit_len,
                limit: (raw_len - out.len()) as u64,
            });
        }
        let literals =
            reader
                .read_bytes(lit_len as usize)
                .map_err(|_| CompressError::Truncated {
                    what: "lz literal bytes",
                })?;
        out.extend_from_slice(literals);
        if out.len() == raw_len {
            break;
        }
        let distance = trace_model::codec::varint::read_u64(&mut reader)?;
        if distance == 0 || distance > out.len() as u64 {
            return Err(CompressError::BadMatch {
                position: out.len(),
                distance,
            });
        }
        let mut match_len = u64::from(ctrl & 0x0f) + MIN_MATCH as u64;
        if ctrl & 0x0f == 15 {
            match_len = match_len
                .checked_add(trace_model::codec::varint::read_u64(&mut reader)?)
                .ok_or(CompressError::LengthOverflow {
                    what: "lz match run",
                    declared: u64::MAX,
                    limit: raw_len as u64,
                })?;
        }
        if match_len > (raw_len - out.len()) as u64 {
            return Err(CompressError::LengthOverflow {
                what: "lz match run",
                declared: match_len,
                limit: (raw_len - out.len()) as u64,
            });
        }
        // Overlapping matches are legal (distance < length).  The source
        // `start..` repeats with period `distance`, so copying from `start`
        // as many bytes as exist past it (at most `distance` at first, then
        // doubling) always copies whole periods of already-written bytes.
        let start = out.len() - distance as usize;
        let mut left = match_len as usize;
        while left > 0 {
            let step = left.min(out.len() - start);
            out.extend_from_within(start..start + step);
            left -= step;
        }
    }
    if !reader.is_at_end() {
        return Err(CompressError::TrailingBytes {
            what: "the declared lz block",
            bytes: reader.remaining(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(input: &[u8]) -> Vec<u8> {
        let compressed = lz_compress(input);
        let decoded = lz_decompress(&compressed).expect("decompress");
        assert_eq!(decoded, input);
        compressed
    }

    #[test]
    fn empty_and_tiny_inputs_round_trip() {
        assert_eq!(round_trip(b""), vec![0]);
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn repetitive_input_compresses_well() {
        let input: Vec<u8> = b"late_sender late_sender late_sender "
            .iter()
            .cycle()
            .take(4096)
            .copied()
            .collect();
        let compressed = round_trip(&input);
        assert!(
            compressed.len() * 10 < input.len(),
            "{} vs {}",
            compressed.len(),
            input.len()
        );
    }

    #[test]
    fn runs_use_overlapping_matches() {
        let input = vec![7u8; 100_000];
        let compressed = round_trip(&input);
        assert!(compressed.len() < 64, "{}", compressed.len());
    }

    #[test]
    fn incompressible_input_round_trips_with_bounded_expansion() {
        // A xorshift byte stream: no 4-byte match survives, so everything
        // is literals.
        let mut state = 0x9e3779b97f4a7c15u64;
        let input: Vec<u8> = (0..10_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect();
        let compressed = round_trip(&input);
        assert!(compressed.len() <= input.len() + input.len() / 100 + 16);
    }

    #[test]
    fn long_literal_and_match_extensions_round_trip() {
        // > 15 literals followed by a > 15+MIN_MATCH match of them.
        let mut input: Vec<u8> = (0u8..=99).collect();
        input.extend(0u8..=99);
        round_trip(&input);
    }

    #[test]
    fn repeats_at_every_short_distance_round_trip() {
        // A distinct prefix of `distance` bytes repeated to `len` bytes
        // forces matches with exactly that distance, overlapping whenever
        // the run is longer than the distance.
        for distance in 1..=16usize {
            for len in [4usize, 5, 15, 16, 17, 19, 20, 33, 64, 100, 255, 256, 300] {
                let mut input: Vec<u8> = (0..distance).map(|i| 0xa0 + i as u8).collect();
                input.extend((0..len).map(|i| 0xa0 + (i % distance) as u8));
                input.extend_from_slice(b"|tail");
                round_trip(&input);
            }
        }
    }

    #[test]
    fn crafted_overlapping_matches_decode_like_a_byte_copy() {
        // One literal run of `distance` bytes, then one match of `len`
        // bytes reaching back exactly `distance`: the decoder must agree
        // with the byte-at-a-time definition of an LZ match.
        for distance in 1..=16usize {
            for len in MIN_MATCH..=300 {
                let literals: Vec<u8> = (0..distance as u8).map(|i| i * 7 + 1).collect();
                let mut expected = literals.clone();
                for i in 0..len {
                    expected.push(expected[i]);
                }
                let mut block = Vec::new();
                write_u64(&mut block, (distance + len) as u64);
                write_sequence(&mut block, &literals, Some((distance, len)));
                assert_eq!(
                    lz_decompress(&block).unwrap(),
                    expected,
                    "distance {distance} length {len}"
                );
            }
        }
    }

    #[test]
    fn decompress_into_reuses_the_buffer_and_matches_decompress() {
        let first: Vec<u8> = b"abcabcabcabc-first".repeat(50);
        let second: Vec<u8> = b"xyz".repeat(7);
        let mut out = Vec::new();
        lz_decompress_into(&lz_compress(&first), &mut out).unwrap();
        assert_eq!(out, first);
        lz_decompress_into(&lz_compress(&second), &mut out).unwrap();
        assert_eq!(out, second);
        assert!(out.capacity() >= first.len());
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let input: Vec<u8> = b"abcdabcdabcdabcd-tail".to_vec();
        let compressed = lz_compress(&input);
        for cut in 0..compressed.len() {
            let err = lz_decompress(&compressed[..cut]).expect_err("truncated");
            assert!(
                matches!(
                    err,
                    CompressError::Truncated { .. }
                        | CompressError::LengthOverflow { .. }
                        | CompressError::BadMatch { .. }
                        | CompressError::TrailingBytes { .. }
                        | CompressError::Codec(_)
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_distance_and_oversized_lengths_are_typed_errors() {
        // raw_len 8, one literal, then a match reaching back 5 bytes.
        let block = [8u8, 0x11, b'x', 5u8];
        assert!(matches!(
            lz_decompress(&block),
            Err(CompressError::BadMatch { distance: 5, .. })
        ));
        // Declared raw length above the cap is rejected before allocating.
        let mut huge = Vec::new();
        write_u64(&mut huge, MAX_RAW_LEN + 1);
        assert!(matches!(
            lz_decompress(&huge),
            Err(CompressError::LengthOverflow { .. })
        ));
        // A match that would overrun the declared raw length.
        let overrun = [6u8, 0x4f, b'a', b'b', b'c', b'd', 2u8, 100u8];
        assert!(matches!(
            lz_decompress(&overrun),
            Err(CompressError::LengthOverflow { .. })
        ));
        // Trailing bytes after the block completes.
        let mut trailing = lz_compress(b"abcdefgh");
        trailing.push(0);
        assert!(matches!(
            lz_decompress(&trailing),
            Err(CompressError::TrailingBytes { .. })
        ));
    }
}
