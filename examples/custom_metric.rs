//! Plugging a custom similarity metric into the reduction pipeline.
//!
//! The predicate-based reducer lets downstream users evaluate their own
//! similarity definitions against the paper's methods without touching the
//! stored-segments algorithm.  This example defines a simple
//! "communication-time only" metric (segments match when their total
//! communication time differs by less than 10%), compares it with the
//! built-in DTW extension and with the paper's avgWave method, and reports
//! the three criteria that matter: size, error, and trend retention.
//!
//! Run with:
//! ```text
//! cargo run --release --example custom_metric
//! ```

// Examples print their results to stdout by design.
#![allow(clippy::print_stdout)]

use trace_reduction::eval::criteria::{
    approximation_distance_us, file_size_percent, trends_retained,
};
use trace_reduction::model::Segment;
use trace_reduction::reduce::{reduce_app_with_predicate, ExtendedMethod, Method, Reducer};
use trace_reduction::sim::{SizePreset, Workload, WorkloadKind};

/// A deliberately coarse user-defined metric: two segments are similar when
/// their total communication time differs by at most 10% (relative to the
/// larger one).
fn comm_time_metric(a: &Segment, b: &Segment) -> bool {
    let ca = a.communication_time().as_f64();
    let cb = b.communication_time().as_f64();
    let max = ca.max(cb);
    max == 0.0 || (ca - cb).abs() <= 0.10 * max
}

fn main() {
    let full = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Small).generate();
    println!(
        "workload {}: {} ranks, {} events\n",
        full.name,
        full.rank_count(),
        full.total_events()
    );
    println!(
        "{:<22} {:>12} {:>18} {:>10}",
        "method", "file size %", "approx dist (us)", "trends"
    );

    let report = |label: &str, reduced: trace_reduction::model::ReducedAppTrace| {
        let approx = reduced.reconstruct();
        let trend = trends_retained(&full, &approx);
        println!(
            "{:<22} {:>12.2} {:>18.2} {:>10}",
            label,
            file_size_percent(&full, &reduced),
            approximation_distance_us(&full, &approx),
            if trend.retained { "retained" } else { "LOST" }
        );
    };

    // The paper's recommended method.
    report(
        "avgWave(0.2)",
        Reducer::with_default_threshold(Method::AvgWave).reduce_app(&full),
    );
    // An extension method from the built-in catalogue.
    report(
        "dtw(0.2)",
        Reducer::with_default_threshold(ExtendedMethod::Dtw).reduce_app(&full),
    );
    // The user-defined metric.
    report(
        "custom comm-time 10%",
        reduce_app_with_predicate(&full, comm_time_metric),
    );

    println!(
        "\nThe custom metric matches aggressively (it ignores compute-time changes), so it\n\
         produces the smallest file but loses the load-imbalance trend that avgWave keeps —\n\
         exactly the trade-off the paper's evaluation criteria are designed to expose."
    );
}
