//! Acceptance test: the streaming reducer's resident state is bounded by
//! stored representatives + in-flight segments, on a generated trace at
//! least 10× larger than that bound (ISSUE 2 acceptance criterion).

use trace_format::parse_app_trace;
use trace_obs::Recorder;
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{reduce_input, StreamError, StreamReduction, TraceInput};

/// Generates an amplified Late Sender trace (the run replayed back-to-back)
/// directly into a byte buffer via the sim's writer integration.
fn amplified_text(repeats: usize) -> Vec<u8> {
    Workload::new(WorkloadKind::LateSender, SizePreset::Tiny)
        .write_text_amplified_to(Vec::new(), repeats)
        .expect("writing to a Vec cannot fail")
}

/// Reduces `input` through the single entry point with recording off.
fn reduce(
    config: MethodConfig,
    input: TraceInput<'_>,
    workers: usize,
) -> Result<StreamReduction, StreamError> {
    reduce_input(&Reducer::new(config), input, workers, &Recorder::disabled())
}

#[test]
fn resident_state_stays_an_order_of_magnitude_below_the_stream() {
    let text = amplified_text(60);
    let config = MethodConfig::with_default_threshold(Method::AvgWave);
    let streamed = reduce(config, TraceInput::Bytes(&text), 1).unwrap();

    // The amplified trace streams ≥ 10× more segments than the reducer
    // ever holds at once (stored representatives + one in-flight segment
    // per active rank — ranks are streamed one at a time here).
    let bound = streamed.stats.stored + 1;
    assert!(streamed.stats.peak_resident_segments <= bound);
    assert!(
        streamed.stats.segments >= 10 * streamed.stats.peak_resident_segments,
        "trace too small for the claim: {} segments vs peak resident {}",
        streamed.stats.segments,
        streamed.stats.peak_resident_segments
    );

    // Semantically identical to materializing the whole trace and reducing
    // it in memory.
    let app = parse_app_trace(std::str::from_utf8(&text).unwrap()).unwrap();
    let in_memory = Reducer::new(config).reduce_app(&app);
    assert_eq!(streamed.reduced, in_memory);
}

#[test]
fn big_trace_end_to_end_through_a_file_with_shards() {
    let text = amplified_text(40);
    let mut path = std::env::temp_dir();
    path.push(format!("trace_stream_big_{}.txt", std::process::id()));
    std::fs::write(&path, &text).unwrap();

    let config = MethodConfig::with_default_threshold(Method::RelDiff);
    let sequential = reduce(config, TraceInput::Bytes(&text), 1).unwrap();
    let sharded = reduce(config, TraceInput::File(&path), 4).unwrap();
    assert_eq!(sharded.reduced, sequential.reduced);
    // A text file is one partition, so four requested workers read it as
    // one whole stream; the resident bound stays far below the streamed
    // segment count.
    assert_eq!(sharded.workers, 1);
    assert!(sharded.stats.segments >= 10 * sharded.stats.peak_resident_segments);

    let _ = std::fs::remove_file(&path);
}
