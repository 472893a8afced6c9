//! Acceptance test: observability is behaviour-neutral (ISSUE 8).
//!
//! For every paper method and every input and worker count of the one
//! reduction entry point — in-memory on one and four workers, text, and
//! containers read whole or by index sections — the reduced trace produced with an enabled
//! recorder must be bit-identical to the one produced with recording off.
//! The comparison is on the *encoded bytes*, not just `PartialEq`, so even
//! an ordering or serialization drift would fail.  Each enabled run is
//! also asserted to have actually recorded (non-empty report), so the
//! neutrality claim is never vacuous.

use trace_container::{encode_app_container, ChunkSpec};
use trace_model::codec::encode_reduced_trace;
use trace_model::ReducedAppTrace;
use trace_obs::Recorder;
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{reduce_input, TraceInput};

/// A reduction driver: one way of running a method over the workload.
type Driver<'a> = Box<dyn Fn(&Recorder) -> ReducedAppTrace + 'a>;

/// Runs `drive` twice — recording off, then on — and returns both reduced
/// traces plus the enabled run's report emptiness.
fn both_states(drive: impl Fn(&Recorder) -> ReducedAppTrace) -> (Vec<u8>, Vec<u8>, bool) {
    let off = drive(&Recorder::disabled());
    let enabled = Recorder::enabled();
    let on = drive(&enabled);
    (
        encode_reduced_trace(&off),
        encode_reduced_trace(&on),
        enabled.report().is_empty(),
    )
}

#[test]
fn recording_never_changes_the_reduction_for_any_method_or_driver() {
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    let text = trace_format::write_app_trace(&app).into_bytes();
    let container = encode_app_container(&app, ChunkSpec::with_segments(8));

    for method in Method::ALL {
        let config = MethodConfig::with_default_threshold(method);
        let reducer = Reducer::new(config);
        let drive = |input: TraceInput<'_>, workers: usize, rec: &Recorder| {
            reduce_input(&reducer, input, workers, rec).unwrap().reduced
        };
        let drivers: Vec<(&str, Driver)> = vec![
            (
                "sequential",
                Box::new(|rec| drive(TraceInput::App(&app), 1, rec)),
            ),
            (
                "parallel",
                Box::new(|rec| drive(TraceInput::App(&app), 4, rec)),
            ),
            (
                "streaming",
                Box::new(|rec| drive(TraceInput::Bytes(&text), 1, rec)),
            ),
            (
                "sharded",
                Box::new(|rec| drive(TraceInput::Bytes(&text), 3, rec)),
            ),
            (
                "container",
                Box::new(|rec| drive(TraceInput::Bytes(&container), 1, rec)),
            ),
            (
                "container sections",
                Box::new(|rec| drive(TraceInput::Bytes(&container), 3, rec)),
            ),
        ];
        for (driver, drive) in drivers {
            let (off, on, report_empty) = both_states(drive);
            assert_eq!(
                off, on,
                "{method} / {driver}: recording changed the reduced bytes"
            );
            assert!(
                !report_empty,
                "{method} / {driver}: the enabled run recorded nothing — the \
                 neutrality assertion would be vacuous"
            );
        }
    }
}

#[test]
fn enabled_reports_carry_the_drained_pipeline_counters() {
    let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
    let text = trace_format::write_app_trace(&app).into_bytes();
    let config = MethodConfig::with_default_threshold(Method::AvgWave);

    let recorder = Recorder::enabled();
    let reducer = Reducer::new(config);
    let reduction = reduce_input(&reducer, TraceInput::Bytes(&text), 1, &recorder).unwrap();
    let report = recorder.report();

    // The unified registry mirrors the legacy stats structs exactly —
    // counters are drained once, not once per shard.
    assert_eq!(
        report.counters.get("stream.events").copied(),
        Some(reduction.stats.events as u64)
    );
    assert_eq!(
        report.counters.get("stream.stored").copied(),
        Some(reduction.stats.stored as u64)
    );
    assert_eq!(
        report.counters.get("match.comparisons").copied(),
        Some(reduction.stats.matching.comparisons as u64)
    );
    assert_eq!(
        report.gauges.get("stream.peak_resident_segments").copied(),
        Some(reduction.stats.peak_resident_segments as u64)
    );
    // One Rank span per rank section streamed.
    let rank_spans = report
        .spans
        .iter()
        .filter(|s| s.stage == trace_obs::Stage::Rank)
        .count();
    assert_eq!(rank_spans, reduction.stats.ranks);
}
