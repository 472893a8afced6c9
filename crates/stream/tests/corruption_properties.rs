//! Property: corrupt input never panics a parser.
//!
//! The decode surfaces (text stream parser, chunked container reader) are
//! written panic-free — enforced statically by `cargo run -p xtask -- lint`
//! — and these properties exercise the same guarantee dynamically: any
//! truncation, bit flip or garbage prefix must surface as a typed error
//! (with a line number for text input) or parse to something valid, never
//! unwind.

use proptest::prelude::*;
use trace_container::{encode_app_container, ChunkSpec};
use trace_format::write_app_trace;
use trace_obs::Recorder;
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::specgen::{trace_from_specs, SegmentSpec};
use trace_stream::{reduce_input, StreamError, StreamReduction, TraceInput};

fn build_trace(rank_specs: &[Vec<SegmentSpec>]) -> trace_model::AppTrace {
    trace_from_specs("corrupttrace", rank_specs)
}

fn spec_strategy() -> impl Strategy<Value = Vec<Vec<(u8, u8, u16)>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..6),
        1..4,
    )
}

fn config() -> MethodConfig {
    MethodConfig::with_default_threshold(Method::AvgWave)
}

/// Reduces `input` through the single entry point with recording off.
fn reduce(
    config: MethodConfig,
    input: TraceInput<'_>,
    workers: usize,
) -> Result<StreamReduction, StreamError> {
    reduce_input(&Reducer::new(config), input, workers, &Recorder::disabled())
}

/// Asserts a text parse outcome is sane: success, or a format error whose
/// line number does not exceed the input's line count (structural errors
/// report line 0).
fn assert_text_outcome(result: Result<(), StreamError>, input: &[u8]) {
    if let Err(err) = result {
        if let Some(format_err) = err.as_format() {
            let lines = input.iter().filter(|&&b| b == b'\n').count() + 1;
            assert!(
                format_err.line <= lines,
                "line {} out of range for {} lines",
                format_err.line,
                lines
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn truncated_text_never_panics(
        rank_specs in spec_strategy(),
        cut_seed in any::<usize>(),
    ) {
        let text = write_app_trace(&build_trace(&rank_specs));
        let bytes = text.as_bytes();
        let cut = cut_seed % (bytes.len() + 1);
        let truncated = &bytes[..cut];
        let result = reduce(config(), TraceInput::Bytes(truncated), 1).map(|_| ());
        if cut < bytes.len() {
            prop_assert!(result.is_err(), "truncation at {cut} must not parse");
        }
        assert_text_outcome(result, truncated);
    }

    #[test]
    fn bit_flipped_text_never_panics(
        rank_specs in spec_strategy(),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let text = write_app_trace(&build_trace(&rank_specs));
        let mut bytes = text.into_bytes();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1 << bit;
        let result = reduce(config(), TraceInput::Bytes(&bytes[..]), 1).map(|_| ());
        assert_text_outcome(result, &bytes);
    }

    #[test]
    fn garbage_prefix_text_never_panics(garbage in prop::collection::vec(any::<u8>(), 0..256)) {
        // Arbitrary bytes are (at best) not a valid header; either way the
        // parser must return, not unwind.
        let _ = reduce(config(), TraceInput::Bytes(&garbage[..]), 1);
    }

    #[test]
    fn truncated_container_never_panics(
        rank_specs in spec_strategy(),
        cut_seed in any::<usize>(),
    ) {
        let bytes = encode_app_container(&build_trace(&rank_specs), ChunkSpec::with_segments(3));
        let cut = cut_seed % bytes.len();
        let result = reduce(config(), TraceInput::Bytes(&bytes[..cut]), 1);
        prop_assert!(result.is_err(), "truncation at {cut} of {} must not parse", bytes.len());
    }

    #[test]
    fn bit_flipped_container_never_panics(
        rank_specs in spec_strategy(),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_app_container(&build_trace(&rank_specs), ChunkSpec::with_segments(3));
        let reference = reduce(config(), TraceInput::Bytes(&bytes[..]), 1)
            .expect("pristine container parses");
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1 << bit;
        // A flip is either detected (CRC, magic, structure) or lands in a
        // byte that keeps the container decodable; both are fine — only a
        // panic or a silent wrong answer on detectable corruption is not.
        if let Ok(reduction) = reduce(config(), TraceInput::Bytes(&bytes[..]), 1) {
            let _ = (reduction, &reference);
        }
    }
}
