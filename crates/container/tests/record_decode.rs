//! The `RECORDS` decode path against its oracle.
//!
//! `ChunkReader` decodes a `RECORDS` chunk straight from its stored bytes:
//! row payloads with the row codec, columnar payloads (`delta`,
//! `delta-lz`) column by column.  The oracle is the rebuild-then-parse
//! path: `trace_compress::decompress` to row bytes, then `read_record`
//! over them.  These tests check that both yield the same records on
//! generated traces, that crafted CRC-valid chunks are typed errors on
//! both, and that 32-bit fields that do not fit are rejected rather than
//! truncated.

use proptest::prelude::*;
use trace_compress::{column_encode, compress, decompress, CompressError, PayloadClass};
use trace_container::layout::{read_header, write_chunk, write_header, ChunkStream};
use trace_container::{
    decode_app_any, encode_app_container, ChunkKind, ChunkReader, ChunkSpec, Codec, ContainerError,
    ContainerItem, PayloadKind, INDEX_MAGIC,
};
use trace_model::codec::varint::{read_u64, write_i64, write_u64};
use trace_model::codec::{read_record, write_record, write_string, write_string_table};
use trace_model::codec::{CodecError, Reader};
use trace_model::{CollectiveOp, CommInfo, ContextId, Event, Rank, RegionId, Time, TraceRecord};
use trace_sim::specgen::trace_from_specs;

/// Every record `ChunkReader` yields, in order.
fn reader_records(bytes: &[u8]) -> Result<Vec<TraceRecord>, ContainerError> {
    let mut reader = ChunkReader::new(bytes)?;
    let mut records = Vec::new();
    while let Some(item) = reader.next_item()? {
        if let ContainerItem::Record(record) = item {
            records.push(record);
        }
    }
    Ok(records)
}

/// The row bytes of one `RECORDS` payload, parsed with `read_record`
/// under the container's rules: the clock restarts per chunk and the
/// declared count must consume the payload exactly.
fn parse_rows(rows: &[u8], out: &mut Vec<TraceRecord>) -> Result<(), ContainerError> {
    let mut reader = Reader::new(rows);
    let count = read_u64(&mut reader)?;
    let mut prev = Time::ZERO;
    for _ in 0..count {
        let (record, next) = read_record(&mut reader, prev)?;
        prev = next;
        out.push(record);
    }
    if !reader.is_at_end() {
        return Err(ContainerError::TrailingBytes {
            what: "the declared records of a RECORDS chunk",
            bytes: reader.remaining(),
        });
    }
    Ok(())
}

/// The oracle: every `RECORDS` chunk's stored bytes decompressed to rows
/// and parsed with `read_record`.
fn oracle_records(bytes: &[u8]) -> Result<Vec<TraceRecord>, ContainerError> {
    let mut stream = ChunkStream::new(bytes, 0);
    read_header(&mut stream)?;
    let mut stored = Vec::new();
    let mut records = Vec::new();
    loop {
        let frame = stream.read_stored(&mut stored)?;
        match frame.kind {
            ChunkKind::Records => {
                let rows = decompress(frame.codec, PayloadClass::Records, &stored)?;
                parse_rows(&rows, &mut records)?;
            }
            ChunkKind::Index => return Ok(records),
            _ => {}
        }
    }
}

/// The row payload of `records`: count, then each record delta-coded
/// against the previous one, as the container writer lays it out.
fn rows_of(records: &[TraceRecord]) -> Vec<u8> {
    let mut rows = Vec::new();
    write_u64(&mut rows, records.len() as u64);
    let mut prev = Time::ZERO;
    for record in records {
        prev = write_record(&mut rows, record, prev);
    }
    rows
}

/// A CRC-valid single-section app container whose one `RECORDS` chunk
/// holds `stored` under `codec`; the section's `RANK_END` declares
/// `records`, `segments` and `events`.
fn container_with_records(codec: Codec, stored: &[u8], counts: [u64; 3]) -> Vec<u8> {
    fn control(file: &mut Vec<u8>, kind: ChunkKind, fields: &[u64]) {
        let mut payload = Vec::new();
        for &field in fields {
            write_u64(&mut payload, field);
        }
        write_chunk(file, kind, Codec::None, &payload).unwrap();
    }
    let [records, segments, events] = counts;
    let mut file = Vec::new();
    write_header(&mut file, PayloadKind::App).unwrap();
    let mut preamble = Vec::new();
    write_string(&mut preamble, "crafted_records");
    write_string_table(&mut preamble, &["work".to_string(), "send".to_string()]);
    write_string_table(&mut preamble, &["main".to_string()]);
    write_u64(&mut preamble, 1);
    write_chunk(&mut file, ChunkKind::Preamble, Codec::None, &preamble).unwrap();
    let section = file.len() as u64;
    control(&mut file, ChunkKind::RankBegin, &[0]);
    write_chunk(&mut file, ChunkKind::Records, codec, stored).unwrap();
    control(
        &mut file,
        ChunkKind::RankEnd,
        &[0, 1, records, segments, events],
    );
    let index = file.len() as u64;
    control(
        &mut file,
        ChunkKind::Index,
        &[1, 0, section, 1, records, segments, events],
    );
    file.extend_from_slice(&index.to_le_bytes());
    file.extend_from_slice(&INDEX_MAGIC);
    file
}

/// Splits a columnar payload into its declared count and its streams.
fn split_columns(columnar: &[u8]) -> (u64, Vec<Vec<u8>>) {
    let mut reader = Reader::new(columnar);
    let count = read_u64(&mut reader).unwrap();
    let mut streams = Vec::new();
    while !reader.is_at_end() {
        let len = read_u64(&mut reader).unwrap() as usize;
        streams.push(reader.read_bytes(len).unwrap().to_vec());
    }
    (count, streams)
}

/// Inverse of [`split_columns`].
fn join_columns(count: u64, streams: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    write_u64(&mut out, count);
    for stream in streams {
        write_u64(&mut out, stream.len() as u64);
        out.extend_from_slice(stream);
    }
    out
}

/// The stored bytes of a columnar payload under `delta` or `delta-lz`.
fn store_columns(codec: Codec, columnar: &[u8]) -> Vec<u8> {
    match codec {
        Codec::Delta => columnar.to_vec(),
        Codec::DeltaLz => compress(Codec::Lz, PayloadClass::Opaque, columnar).unwrap(),
        other => panic!("{} is not a columnar codec", other.name()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chunk_reader_records_equal_the_rebuild_then_parse_oracle(rank_specs in prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..12),
        1..4,
    )) {
        let app = trace_from_specs("recorddecode", &rank_specs);
        let expected: Vec<TraceRecord> = app
            .ranks
            .iter()
            .flat_map(|rank| rank.records.iter().cloned())
            .collect();
        for segments_per_chunk in [1, 3, 128] {
            for codec in Codec::ALL {
                let spec = ChunkSpec::with_segments(segments_per_chunk).codec(codec);
                let bytes = encode_app_container(&app, spec);
                let decoded = reader_records(&bytes).expect("reader");
                let oracle = oracle_records(&bytes).expect("oracle");
                prop_assert_eq!(
                    &decoded, &oracle,
                    "{} segments/chunk, codec {}",
                    segments_per_chunk, codec.name()
                );
                prop_assert_eq!(&decoded, &expected);
            }
        }
    }
}

/// Two segments of events covering every comm shape the columns carry.
fn sample_records() -> Vec<TraceRecord> {
    let comms = [
        CommInfo::Compute,
        CommInfo::Send {
            peer: Rank(3),
            tag: 11,
            bytes: 4096,
        },
        CommInfo::Recv {
            peer: Rank(2),
            tag: 11,
            bytes: 4096,
        },
        CommInfo::SendRecv {
            to: Rank(1),
            from: Rank(5),
            tag: 4,
            bytes: 512,
        },
        CommInfo::Collective {
            op: CollectiveOp::Allreduce,
            root: Rank(0),
            comm_size: 8,
            bytes: 256,
        },
    ];
    let mut records = Vec::new();
    for segment in 0..2u64 {
        let base = segment * 10_000;
        records.push(TraceRecord::SegmentBegin {
            context: ContextId(0),
            time: Time::from_nanos(base),
        });
        for (i, comm) in (0u64..).zip(comms) {
            let start = base + 100 + i * 1_000;
            records.push(TraceRecord::Event(
                Event::with_comm(
                    RegionId((i % 2) as u32),
                    Time::from_nanos(start),
                    Time::from_nanos(start + 300 + segment * 7),
                    comm,
                )
                .with_wait(Time::from_nanos(i * 3)),
            ));
        }
        records.push(TraceRecord::SegmentEnd {
            context: ContextId(0),
            time: Time::from_nanos(base + 9_000),
        });
    }
    records
}

/// Section counts (records, completed segments, events) of `records`.
fn counts_of(records: &[TraceRecord]) -> [u64; 3] {
    let segments = records
        .iter()
        .filter(|r| matches!(r, TraceRecord::SegmentEnd { .. }))
        .count();
    let events = records
        .iter()
        .filter(|r| matches!(r, TraceRecord::Event(_)))
        .count();
    [records.len() as u64, segments as u64, events as u64]
}

#[test]
fn mutated_columnar_chunks_are_typed_errors_on_both_paths() {
    let records = sample_records();
    let counts = counts_of(&records);
    let columnar = column_encode(PayloadClass::Records, &rows_of(&records)).unwrap();
    let (count, streams) = split_columns(&columnar);
    assert_eq!(streams.len(), 10, "RECORDS payloads have ten columns");

    let mut mutants: Vec<(String, Vec<u8>)> = Vec::new();
    for (i, stream) in streams.iter().enumerate() {
        if !stream.is_empty() {
            let mut cut = streams.clone();
            cut[i].pop();
            mutants.push((format!("column {i} truncated"), join_columns(count, &cut)));
        }
        let mut extra = streams.clone();
        extra[i].push(0);
        mutants.push((
            format!("column {i} with a trailing byte"),
            join_columns(count, &extra),
        ));
    }
    mutants.push(("count + 1".into(), join_columns(count + 1, &streams)));
    mutants.push(("count - 1".into(), join_columns(count - 1, &streams)));
    mutants.push(("count 0 with bytes".into(), join_columns(0, &streams)));

    for codec in [Codec::Delta, Codec::DeltaLz] {
        // The unmutated chunk decodes on both paths.
        let file = container_with_records(codec, &store_columns(codec, &columnar), counts);
        assert_eq!(reader_records(&file).unwrap(), records);
        assert_eq!(oracle_records(&file).unwrap(), records);

        for (what, mutant) in &mutants {
            let file = container_with_records(codec, &store_columns(codec, mutant), counts);
            let new = reader_records(&file);
            let old = oracle_records(&file);
            assert!(
                matches!(new, Err(ContainerError::Compress(_))),
                "{} {what}: reader gave {new:?}",
                codec.name()
            );
            assert!(old.is_err(), "{} {what}: oracle accepted it", codec.name());
            assert!(
                decode_app_any(&file).is_err(),
                "{} {what}: decode_app_any accepted it",
                codec.name()
            );
        }
    }
}

#[test]
fn event_peers_beyond_32_bits_are_rejected_not_truncated() {
    // 2^32 + 1 truncates to rank 1 under an `as u32` cast.
    const WIDE: u64 = (1 << 32) + 1;
    const COMM_SEND: u8 = 1;
    const RECORD_EVENT: u8 = 2;

    // One Send event at t = 10 ns lasting 5 ns: the row layout is tag,
    // region, start delta, duration, wait, then the comm tag, peer,
    // message tag and size.
    let rows = |peer: u64| {
        let mut rows = Vec::new();
        write_u64(&mut rows, 1);
        rows.push(RECORD_EVENT);
        write_u64(&mut rows, 1);
        write_i64(&mut rows, 10);
        write_u64(&mut rows, 5);
        write_u64(&mut rows, 0);
        rows.push(COMM_SEND);
        write_u64(&mut rows, peer);
        write_u64(&mut rows, 7);
        write_u64(&mut rows, 64);
        rows
    };
    // The same event as RECORDS columns: record tags, contexts, times,
    // comm tags, regions, durations, waits, peers, meta (tags) and sizes,
    // the delta-coded ones as zig-zag deltas from zero.
    let columns = |peer: u64| {
        let svarint = |v: i64| {
            let mut out = Vec::new();
            write_i64(&mut out, v);
            out
        };
        let varint = |v: u64| {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            out
        };
        join_columns(
            1,
            &[
                vec![RECORD_EVENT],
                vec![],
                svarint(10),
                vec![COMM_SEND],
                svarint(1),
                varint(5),
                varint(0),
                svarint(peer as i64),
                svarint(7),
                svarint(64),
            ],
        )
    };
    let file = |codec: Codec, peer: u64| {
        let stored = match codec {
            Codec::None => compress(Codec::None, PayloadClass::Records, &rows(peer)).unwrap(),
            Codec::DeltaLz => compress(Codec::Lz, PayloadClass::Opaque, &columns(peer)).unwrap(),
            other => panic!("untested codec {}", other.name()),
        };
        container_with_records(codec, &stored, [1, 0, 1])
    };

    for codec in [Codec::None, Codec::DeltaLz] {
        // Control: peer 1 decodes the same record under both codecs.
        let valid = file(codec, 1);
        let records = reader_records(&valid).unwrap();
        match records.as_slice() {
            [TraceRecord::Event(event)] => assert!(
                matches!(
                    event.comm,
                    CommInfo::Send {
                        peer: Rank(1),
                        tag: 7,
                        bytes: 64
                    }
                ),
                "{:?}",
                event.comm
            ),
            other => panic!("{}: {other:?}", codec.name()),
        }
        assert_eq!(decode_app_any(&valid).unwrap().ranks[0].records, records);

        let wide = file(codec, WIDE);
        let out_of_range = |err: ContainerError| {
            let field = match &err {
                ContainerError::Codec(e) | ContainerError::Compress(CompressError::Codec(e)) => e,
                other => panic!("{}: {other:?}", codec.name()),
            };
            assert_eq!(
                field,
                &CodecError::FieldOutOfRange {
                    field: "peer rank",
                    value: WIDE
                },
                "{}",
                codec.name()
            );
        };
        out_of_range(reader_records(&wide).expect_err("ChunkReader"));
        out_of_range(decode_app_any(&wide).expect_err("decode_app_any"));
    }
}
