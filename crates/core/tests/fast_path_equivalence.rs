//! Property: the cached-feature fast path ≡ the naive reference path.
//!
//! The reducer's hot loop ([`trace_reduce::OnlineRankReducer`]) matches
//! through cached [`trace_reduce::SegmentFeatures`] with admissible
//! prefilters and early-abandoning kernels; the pre-fast-path behaviour is
//! preserved as [`trace_reduce::reduce_rank_reference`].  These tests
//! require the two paths to make the same match decisions and produce
//! *identical* `ReducedAppTrace`s — every stored segment, every execution,
//! every timestamp — across all nine methods, the paper's threshold grids,
//! the simulated workloads and randomly generated traces, sequentially and
//! through the parallel driver.

use proptest::prelude::*;

use trace_obs::Recorder;
use trace_reduce::{
    reduce_app_reference, reduce_app_with_predicate, reduce_rank_reference, segments_match,
    ExtendedConfig, ExtendedMethod, Method, MethodConfig, Reducer,
};
use trace_sim::specgen::{trace_from_specs, SegmentSpec};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{reduce_input, TraceInput};

/// Every method at its default threshold plus its full paper grid.
fn all_configs() -> Vec<MethodConfig> {
    Method::ALL
        .into_iter()
        .flat_map(|method| {
            std::iter::once(MethodConfig::with_default_threshold(method)).chain(
                method
                    .threshold_grid()
                    .into_iter()
                    .map(move |t| MethodConfig::new(method, t)),
            )
        })
        .collect()
}

#[test]
fn fast_path_is_bit_identical_on_workloads_across_the_threshold_grid() {
    for kind in [
        WorkloadKind::LateSender,
        WorkloadKind::DynLoadBalance,
        WorkloadKind::Sweep3d8p,
    ] {
        let app = Workload::new(kind, SizePreset::Tiny).generate();
        for config in all_configs() {
            let fast = Reducer::new(config).reduce_app(&app);
            let reference = reduce_app_reference(config, &app);
            assert_eq!(fast, reference, "{} on {}", config.label(), kind.name());
        }
    }
}

#[test]
fn parallel_driver_matches_the_reference_path() {
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    for method in Method::ALL {
        let config = MethodConfig::with_default_threshold(method);
        let reference = reduce_app_reference(config, &app);
        for workers in [2, 8] {
            let parallel = reduce_input(
                &Reducer::new(config),
                TraceInput::App(&app),
                workers,
                &Recorder::disabled(),
            )
            .unwrap()
            .reduced;
            assert_eq!(parallel, reference, "{method} with {workers} workers");
        }
    }
}

#[test]
fn fast_path_matches_the_predicate_reducer_for_distance_methods() {
    // The predicate-based reducer recomputes everything per comparison via
    // the naive `segments_match`; a third independent witness.
    let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
    for method in Method::ALL.into_iter().filter(|m| m.is_distance_method()) {
        let config = MethodConfig::with_default_threshold(method);
        let fast = Reducer::new(config).reduce_app(&app);
        let naive = reduce_app_with_predicate(&app, |a, b| segments_match(&config, a, b));
        assert_eq!(fast, naive, "{method}");
    }
}

#[test]
fn extended_dtw_early_abandon_does_not_change_reductions() {
    use trace_reduce::normalized_dtw_distance;
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    for threshold in [0.01, 0.1, 0.2, 0.6] {
        let fast =
            Reducer::new(ExtendedConfig::new(ExtendedMethod::Dtw, threshold)).reduce_app(&app);
        // Naive witness: the pre-abandon formulation — full band-limited
        // DTW distance compared against the scaled threshold.
        let naive = reduce_app_with_predicate(&app, |a, b| {
            let va = a.measurement_vector();
            let vb = b.measurement_vector();
            let distance = normalized_dtw_distance(&va, &vb, Some(2));
            let max_value = trace_model::stats::max(&va).max(trace_model::stats::max(&vb));
            distance <= threshold * max_value
        });
        assert_eq!(fast, naive, "dtw({threshold})");
    }
}

#[test]
fn fast_path_match_counters_partition_and_agree_with_the_reference() {
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    for method in Method::ALL.into_iter().filter(|m| m.is_distance_method()) {
        let config = MethodConfig::with_default_threshold(method);
        for rank in &app.ranks {
            let fast = Reducer::new(config).reduce_rank(rank);
            let reference = reduce_rank_reference(config, rank);
            let stats = fast.matching;
            assert_eq!(
                stats.prefilter_rejects + stats.early_abandons + stats.full_kernels,
                stats.comparisons,
                "{method}: counters must partition"
            );
            // Both paths walk identical buckets in identical order, so the
            // candidate and match counts line up exactly; the fast path just
            // resolves some candidates without visiting them (index prunes)
            // or without a full kernel (prefilters / early abandons).
            assert_eq!(
                stats.candidates(),
                reference.matching.comparisons,
                "{method}"
            );
            assert_eq!(stats.matches, reference.matching.matches, "{method}");
            assert!(
                stats.full_kernels <= reference.matching.full_kernels,
                "{method}"
            );
        }
    }
}

fn specs_strategy() -> impl Strategy<Value = Vec<Vec<SegmentSpec>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..12),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fast_path_is_bit_identical_on_random_traces(rank_specs in specs_strategy()) {
        let app = trace_from_specs("fastpath", &rank_specs);
        prop_assert!(app.is_well_formed());
        for config in all_configs() {
            let fast = Reducer::new(config).reduce_app(&app);
            let reference = reduce_app_reference(config, &app);
            prop_assert_eq!(&fast, &reference, "{}", config.label());
        }
    }

    #[test]
    fn fast_path_is_bit_identical_on_random_traces_with_random_thresholds(
        rank_specs in specs_strategy(),
        threshold in 0.0..2.0f64,
    ) {
        let app = trace_from_specs("fastpath", &rank_specs);
        for method in Method::ALL {
            // A fractional threshold for every method; for absDiff it is
            // microseconds, i.e. up to 2000 ns — the order of magnitude of
            // the generated jitter, so both outcomes occur.
            let config = MethodConfig::new(method, threshold);
            let fast = Reducer::new(config).reduce_app(&app);
            let reference = reduce_app_reference(config, &app);
            prop_assert_eq!(&fast, &reference, "{} at {}", method, threshold);
        }
    }
}
