//! Property: the worker count never changes a reduction.
//!
//! Random multi-rank traces are reduced with every method of the catalogue
//! (the nine paper methods and the five extensions, each at its default
//! threshold) through the one entry point from every input kind — a text
//! stream, monolithic v1 bytes, a chunked container and the in-memory
//! trace — on 1, 2, 3, 8 and 64 workers.  Every output must equal the
//! naive reference reducer, and every counter except
//! the two peaks (which sum per-worker maxima by design) must be identical
//! across worker counts and input kinds, matching counters included.

use proptest::prelude::*;
use trace_container::{encode_app_container, ChunkSpec};
use trace_format::write_app_trace;
use trace_model::codec::encode_app_trace;
use trace_obs::Recorder;
use trace_reduce::{reduce_app_reference, ExtendedConfig, Reducer};
use trace_sim::specgen::trace_from_specs;
use trace_stream::{reduce_input, StreamStats, TraceInput};

const WORKERS: [usize; 5] = [1, 2, 3, 8, 64];

/// The counters that must not depend on the worker count.
fn without_peaks(stats: StreamStats) -> StreamStats {
    StreamStats {
        peak_resident_segments: 0,
        peak_chunk_bytes: 0,
        ..stats
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_input_kind_and_worker_count_reduces_identically(rank_specs in prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..10),
        1..6,
    )) {
        let app = trace_from_specs("workers", &rank_specs);
        let text = write_app_trace(&app);
        let v1 = encode_app_trace(&app);
        let container = encode_app_container(&app, ChunkSpec::with_segments(3));
        let inputs = [
            ("text", TraceInput::Bytes(text.as_bytes())),
            ("v1", TraceInput::Bytes(&v1)),
            ("container", TraceInput::Bytes(&container)),
            ("in-memory", TraceInput::App(&app)),
        ];

        for config in ExtendedConfig::all_defaults() {
            let method = config.label();
            let reference = reduce_app_reference(config, &app);
            let mut counters: Option<StreamStats> = None;
            for (kind, input) in inputs {
                for workers in WORKERS {
                    let reduction =
                        reduce_input(&Reducer::new(config), input, workers, &Recorder::disabled())
                            .expect("generated traces decode");
                    prop_assert_eq!(
                        &reduction.reduced, &reference,
                        "{} from {} on {} workers", method, kind, workers
                    );
                    prop_assert!(reduction.workers >= 1 && reduction.workers <= workers.max(1));
                    let stats = without_peaks(reduction.stats);
                    let expected = *counters.get_or_insert(stats);
                    prop_assert_eq!(
                        stats, expected,
                        "{} from {} on {} workers", method, kind, workers
                    );
                }
            }
        }
    }
}
