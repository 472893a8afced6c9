//! Reduced-container decode checks the stored-id invariants.
//!
//! A reduced section's stored ids must fit 32 bits and be dense, and every
//! execution must reference a stored segment.  These tests craft CRC-valid
//! single-section containers, row-coded (`none`) and columnar (`delta-lz`),
//! whose ids break those rules, and check that the reader fails with a
//! typed error instead of truncating the id or keeping an execution that
//! reconstruction would have to skip.

use trace_compress::{compress, CompressError, PayloadClass};
use trace_container::layout::{write_chunk, write_header};
use trace_container::{
    decode_reduced_any, read_reduced_container, ChunkKind, Codec, ContainerError, PayloadKind,
    INDEX_MAGIC,
};
use trace_model::codec::varint::{write_i64, write_u64};
use trace_model::codec::{write_string, write_string_table, CodecError};
use trace_model::{ContextId, ReducedTraceError, Time};

/// 2^32 + 1 truncates to 1 under an `as u32` cast.
const WIDE: u64 = (1 << 32) + 1;

fn varints(fields: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &field in fields {
        write_u64(&mut out, field);
    }
    out
}

fn svarint(value: i64) -> Vec<u8> {
    let mut out = Vec::new();
    write_i64(&mut out, value);
    out
}

fn join_columns(count: u64, streams: &[Vec<u8>]) -> Vec<u8> {
    let mut out = varints(&[count]);
    for stream in streams {
        write_u64(&mut out, stream.len() as u64);
        out.extend_from_slice(stream);
    }
    out
}

/// The stored bytes of one `STORED` chunk holding one event-less segment
/// (context 0, end 10) with id `id`, and of one `EXECS` chunk holding one
/// execution of `exec` at time 0, under `codec`.
fn payloads(codec: Codec, id: u64, exec: u64) -> (Vec<u8>, Vec<u8>) {
    match codec {
        Codec::None => (
            varints(&[1, id, 1, 0, 0, 10, 0]),
            [varints(&[1, exec]), svarint(0)].concat(),
        ),
        Codec::DeltaLz => {
            // Columns are zig-zag deltas from zero: segment ids,
            // represented counts, contexts, starts, ends, event counts,
            // then the (empty) event time and seven event streams.
            let mut stored = vec![
                svarint(id as i64),
                svarint(1),
                svarint(0),
                svarint(0),
                svarint(10),
                svarint(0),
            ];
            stored.extend(std::iter::repeat_n(Vec::new(), 8));
            let execs = [svarint(exec as i64), svarint(0)];
            let lz =
                |columns: Vec<u8>| compress(Codec::Lz, PayloadClass::Opaque, &columns).unwrap();
            (lz(join_columns(1, &stored)), lz(join_columns(1, &execs)))
        }
        other => panic!("untested codec {}", other.name()),
    }
}

/// A CRC-valid reduced container with one rank section: one `STORED` and
/// one `EXECS` chunk built by [`payloads`].
fn container(codec: Codec, id: u64, exec: u64) -> Vec<u8> {
    let (stored, execs) = payloads(codec, id, exec);
    let mut file = Vec::new();
    write_header(&mut file, PayloadKind::Reduced).unwrap();
    let mut preamble = Vec::new();
    write_string(&mut preamble, "crafted_reduced");
    write_string_table(&mut preamble, &[]);
    write_string_table(&mut preamble, &["main".to_string()]);
    write_u64(&mut preamble, 1);
    write_chunk(&mut file, ChunkKind::Preamble, Codec::None, &preamble).unwrap();
    let section = file.len() as u64;
    write_chunk(&mut file, ChunkKind::RankBegin, Codec::None, &varints(&[0])).unwrap();
    write_chunk(&mut file, ChunkKind::Stored, codec, &stored).unwrap();
    write_chunk(&mut file, ChunkKind::Execs, codec, &execs).unwrap();
    let end = varints(&[0, 2, 2, 1, 1]);
    write_chunk(&mut file, ChunkKind::RankEnd, Codec::None, &end).unwrap();
    let index = file.len() as u64;
    let entries = varints(&[1, 0, section, 2, 2, 1, 1]);
    write_chunk(&mut file, ChunkKind::Index, Codec::None, &entries).unwrap();
    file.extend_from_slice(&index.to_le_bytes());
    file.extend_from_slice(&INDEX_MAGIC);
    file
}

/// The record-codec error inside `err`, from the row decode or the
/// columnar one.
fn codec_error(err: ContainerError) -> CodecError {
    match err {
        ContainerError::Codec(e) | ContainerError::Compress(CompressError::Codec(e)) => e,
        other => panic!("expected a codec error, got {other:?}"),
    }
}

#[test]
fn valid_ids_decode_under_both_codecs() {
    for codec in [Codec::None, Codec::DeltaLz] {
        let reduced = read_reduced_container(&container(codec, 0, 0)[..]).unwrap();
        let rank = &reduced.ranks[0];
        assert_eq!(rank.stored[0].id, 0, "{}", codec.name());
        assert_eq!(rank.stored[0].segment.context, ContextId(0));
        assert_eq!(rank.stored[0].segment.end, Time::from_nanos(10));
        assert_eq!(rank.execs[0].segment, 0);
        assert_eq!(
            decode_reduced_any(&container(codec, 0, 0)).unwrap(),
            reduced
        );
    }
}

#[test]
fn a_stored_id_above_32_bits_is_a_typed_error() {
    for codec in [Codec::None, Codec::DeltaLz] {
        let file = container(codec, WIDE, 1);
        for err in [
            read_reduced_container(&file[..]).unwrap_err(),
            decode_reduced_any(&file).unwrap_err(),
        ] {
            assert_eq!(
                codec_error(err),
                CodecError::FieldOutOfRange {
                    field: "stored segment id",
                    value: WIDE
                },
                "{}",
                codec.name()
            );
        }
    }
}

#[test]
fn sparse_stored_ids_and_dangling_executions_are_typed_errors() {
    for codec in [Codec::None, Codec::DeltaLz] {
        for (file, expected) in [
            (
                container(codec, 1, 1),
                ReducedTraceError::SparseStoredId {
                    expected: 0,
                    found: 1,
                },
            ),
            (
                container(codec, 0, 1),
                ReducedTraceError::UnknownStoredSegment(1),
            ),
        ] {
            let err = read_reduced_container(&file[..]).unwrap_err();
            assert_eq!(
                codec_error(err),
                CodecError::Reduced(expected),
                "{}",
                codec.name()
            );
        }
    }
}
