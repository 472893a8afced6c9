//! Integration tests for the extended similarity-method catalogue: the
//! extension methods must behave coherently with the paper methods when run
//! through the full pipeline (generation → reduction → reconstruction →
//! analysis).

use trace_reduction::eval::criteria::{
    approximation_distance_us, file_size_percent, trends_retained,
};
use trace_reduction::reduce::{ExtendedConfig, ExtendedMethod, Method, Reducer};
use trace_reduction::sim::{SizePreset, Workload, WorkloadKind};

fn generate(kind: WorkloadKind) -> trace_reduction::model::AppTrace {
    Workload::new(kind, SizePreset::Tiny).generate()
}

#[test]
fn every_extension_method_completes_the_pipeline_on_every_category() {
    let kinds = [
        WorkloadKind::LateSender,
        WorkloadKind::by_name("1to1r_32").unwrap(),
        WorkloadKind::DynLoadBalance,
        WorkloadKind::Sweep3d8p,
    ];
    for kind in kinds {
        let full = generate(kind);
        for method in ExtendedMethod::EXTENSIONS {
            let reduced = Reducer::with_default_threshold(method).reduce_app(&full);
            let percent = file_size_percent(&full, &reduced);
            assert!(
                percent > 0.0 && percent < 120.0,
                "{kind:?}/{method}: {percent}"
            );
            let approx = reduced.reconstruct();
            assert_eq!(
                approx.total_events(),
                full.total_events(),
                "{kind:?}/{method}"
            );
            assert!(approximation_distance_us(&full, &approx).is_finite());
        }
    }
}

#[test]
fn cdf97_wavelet_behaves_like_the_paper_wavelets_on_regular_benchmarks() {
    // On a regular benchmark the CDF 9/7 wavelet metric should land in the
    // same ballpark as avgWave/haarWave: comparable file sizes and retained
    // trends.
    let full = generate(WorkloadKind::LateSender);
    let avg = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&full);
    let cdf = Reducer::with_default_threshold(ExtendedMethod::Cdf97Wave).reduce_app(&full);
    let avg_size = file_size_percent(&full, &avg);
    let cdf_size = file_size_percent(&full, &cdf);
    assert!(
        (avg_size - cdf_size).abs() < 15.0,
        "avgWave {avg_size}% and cdf97Wave {cdf_size}% should be comparable"
    );
    let trend = trends_retained(&full, &cdf.reconstruct());
    assert!(trend.retained, "{:?}", trend.discrepancies);
}

#[test]
fn dtw_retains_trends_on_regular_benchmarks_at_its_default_threshold() {
    for kind in [WorkloadKind::LateSender, WorkloadKind::EarlyGather] {
        let full = generate(kind);
        let reduced = Reducer::with_default_threshold(ExtendedMethod::Dtw).reduce_app(&full);
        let trend = trends_retained(&full, &reduced.reconstruct());
        assert!(trend.retained, "{kind:?}: {:?}", trend.discrepancies);
    }
}

#[test]
fn loosening_the_threshold_of_an_extension_never_stores_more_segments() {
    // For every extension method, sweeping its threshold grid from the
    // tightest to the loosest setting must monotonically reduce (or hold)
    // the number of stored representatives — the same monotonicity the
    // paper's threshold study relies on for its figures.
    let full = generate(WorkloadKind::DynLoadBalance);
    for method in ExtendedMethod::EXTENSIONS {
        let mut previous = usize::MAX;
        for threshold in method.threshold_grid() {
            let stored = Reducer::new(ExtendedConfig::new(method, threshold))
                .reduce_app(&full)
                .total_stored();
            assert!(
                stored <= previous,
                "{method}: {stored} stored at threshold {threshold} exceeds {previous} at a tighter one"
            );
            previous = stored;
        }
    }
}

#[test]
fn normalized_euclidean_matches_at_least_as_much_as_plain_euclidean() {
    // Dividing the distance by sqrt(len) can only make the test easier to
    // pass at the same threshold, so it stores at most as many segments.
    let full = generate(WorkloadKind::Sweep3d8p);
    let plain = Reducer::new(trace_reduction::reduce::MethodConfig::new(
        Method::Euclidean,
        0.2,
    ))
    .reduce_app(&full);
    let normalized = Reducer::new(ExtendedConfig::new(
        ExtendedMethod::NormalizedEuclidean,
        0.2,
    ))
    .reduce_app(&full);
    assert!(
        normalized.total_stored() <= plain.total_stored(),
        "normalized ({}) must not store more than plain Euclidean ({})",
        normalized.total_stored(),
        plain.total_stored()
    );
}

#[test]
fn paper_methods_are_reachable_through_the_extended_catalogue() {
    let full = generate(WorkloadKind::EarlyGather);
    for method in Method::ALL {
        let direct = Reducer::with_default_threshold(method).reduce_app(&full);
        let wrapped =
            Reducer::with_default_threshold(ExtendedMethod::Paper(method)).reduce_app(&full);
        assert_eq!(direct.total_stored(), wrapped.total_stored(), "{method}");
        assert_eq!(direct.total_execs(), wrapped.total_execs(), "{method}");
    }
}
