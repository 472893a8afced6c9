//! The extension study: similarity-based reduction versus the other
//! reduction families.
//!
//! The paper's conclusion names two future-work directions — additional
//! difference methods and trace sampling — and its related-work section
//! describes a third family, inter-process statistical clustering.  This
//! module evaluates all of them with the paper's criteria (plus the
//! trace-confidence measure of Gamblin et al.), so the trade-offs between
//! the families can be read off one table:
//!
//! * similarity-based reduction with the paper methods and with the extended
//!   catalogue (`trace-reduce`),
//! * segment sampling and periodicity-based reduction (`trace-sampling`),
//! * representative-rank clustering (`trace-clustering`).

use trace_clustering::{
    cluster_reduce, euclidean_distance_matrix, kmeans, rank_features, KMeansConfig, Normalization,
};
use trace_model::codec::encode_app_trace;
use trace_model::AppTrace;
use trace_reduce::{ExtendedConfig, ExtendedMethod, Method, Reducer};
use trace_sampling::{
    reduce_by_periodicity, sample_app, trace_confidence, AdaptiveConfig, PeriodicityConfig,
    SamplingPolicy,
};

use crate::criteria::{approximation_distance_us, file_size_percent, trends_retained};
use crate::report::{fmt_f64, fmt_retained, Table};

/// Error bound (microseconds) used for the trace-confidence column.
pub const CONFIDENCE_BOUND_US: f64 = 100.0;

/// One reduction technique evaluated by the extension study.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ExtensionTechnique {
    /// Similarity-based reduction (paper or extended method).
    Similarity(ExtendedConfig),
    /// Segment sampling under a sampling policy.
    Sampling(SamplingPolicy),
    /// Periodicity-based reduction.
    Periodicity(PeriodicityConfig),
    /// Inter-process clustering keeping one representative rank per cluster.
    Clustering {
        /// Number of clusters (clamped to the rank count per workload).
        k: usize,
    },
}

impl ExtensionTechnique {
    /// Display label used in tables, e.g. `dtw(0.2)`, `sampling:every10`,
    /// `clustering:k=4`.
    pub fn label(&self) -> String {
        match self {
            ExtensionTechnique::Similarity(cfg) => cfg.label(),
            ExtensionTechnique::Sampling(policy) => format!("sampling:{}", policy.label()),
            ExtensionTechnique::Periodicity(cfg) => {
                format!("periodicity:keep{}", cfg.keep_periods)
            }
            ExtensionTechnique::Clustering { k } => format!("clustering:k={k}"),
        }
    }

    /// The default catalogue compared by the extension study.
    pub fn default_catalogue() -> Vec<ExtensionTechnique> {
        let mut techniques = Vec::new();
        // The paper's best method (avgWave) plus the strongest baselines as
        // reference points, then every extension method.
        for method in [
            ExtendedMethod::Paper(Method::AvgWave),
            ExtendedMethod::Paper(Method::Euclidean),
            ExtendedMethod::Paper(Method::IterAvg),
        ] {
            techniques.push(ExtensionTechnique::Similarity(
                ExtendedConfig::with_default_threshold(method),
            ));
        }
        for method in ExtendedMethod::EXTENSIONS {
            techniques.push(ExtensionTechnique::Similarity(
                ExtendedConfig::with_default_threshold(method),
            ));
        }
        techniques.push(ExtensionTechnique::Sampling(SamplingPolicy::EveryNth(10)));
        techniques.push(ExtensionTechnique::Sampling(SamplingPolicy::Random {
            fraction: 0.1,
            seed: 0xA5,
        }));
        techniques.push(ExtensionTechnique::Sampling(SamplingPolicy::Adaptive(
            AdaptiveConfig::default(),
        )));
        techniques.push(ExtensionTechnique::Periodicity(PeriodicityConfig::default()));
        techniques.push(ExtensionTechnique::Clustering { k: 4 });
        techniques
    }
}

/// The outcome of evaluating one technique on one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtensionEvaluation {
    /// Workload (trace) name.
    pub workload: String,
    /// Technique label.
    pub technique: String,
    /// Reduced data size as a percentage of the full encoded trace.
    pub file_size_percent: f64,
    /// 90th-percentile absolute time-stamp error, microseconds.
    pub approximation_distance_us: f64,
    /// Whether the KOJAK-style diagnosis of the reconstructed trace matches
    /// the full trace's diagnosis.
    pub trends_retained: bool,
    /// Fraction of trend checks that passed.
    pub trend_score: f64,
    /// Trace confidence at [`CONFIDENCE_BOUND_US`] (fraction of time stamps
    /// within the bound).
    pub confidence: f64,
}

/// Evaluates one technique on one full trace.
pub fn evaluate_technique(full: &AppTrace, technique: ExtensionTechnique) -> ExtensionEvaluation {
    let (size_percent, approx) = match technique {
        ExtensionTechnique::Similarity(config) => {
            let reduced = Reducer::new(config).reduce_app(full);
            (file_size_percent(full, &reduced), reduced.reconstruct())
        }
        ExtensionTechnique::Sampling(policy) => {
            let reduced = sample_app(full, policy);
            (file_size_percent(full, &reduced), reduced.reconstruct())
        }
        ExtensionTechnique::Periodicity(config) => {
            let reduced = reduce_by_periodicity(full, &config);
            (file_size_percent(full, &reduced), reduced.reconstruct())
        }
        ExtensionTechnique::Clustering { k } => {
            let features = rank_features(full, Normalization::MinMax);
            let matrix = euclidean_distance_matrix(&features);
            let clusters = kmeans(
                &features,
                &KMeansConfig::new(k.min(full.rank_count().max(1))),
            );
            let clustered = cluster_reduce(full, &clusters.assignments, &matrix);
            let full_bytes = encode_app_trace(full).len() as f64;
            let retained_bytes = encode_app_trace(&clustered.retained).len() as f64;
            let percent = if full_bytes > 0.0 {
                100.0 * retained_bytes / full_bytes
            } else {
                0.0
            };
            (percent, clustered.reconstruct())
        }
    };

    let trend = trends_retained(full, &approx);
    let confidence = trace_confidence(full, &approx, CONFIDENCE_BOUND_US);

    ExtensionEvaluation {
        workload: full.name.clone(),
        technique: technique.label(),
        file_size_percent: size_percent,
        approximation_distance_us: approximation_distance_us(full, &approx),
        trends_retained: trend.retained,
        trend_score: trend.score,
        confidence: confidence.timestamp_confidence,
    }
}

/// Runs the default extension catalogue over a set of full traces.
pub fn extension_study(traces: &[AppTrace]) -> Vec<ExtensionEvaluation> {
    let techniques = ExtensionTechnique::default_catalogue();
    let mut evaluations = Vec::with_capacity(traces.len() * techniques.len());
    for trace in traces {
        for &technique in &techniques {
            evaluations.push(evaluate_technique(trace, technique));
        }
    }
    evaluations
}

/// Per-workload detail table of an extension study.
pub fn extension_table(evaluations: &[ExtensionEvaluation]) -> Table {
    let mut table = Table::new(
        "Extension study: similarity vs. sampling vs. clustering",
        &[
            "workload",
            "technique",
            "file size %",
            "approx dist (us)",
            "trends",
            "confidence",
        ],
    );
    for eval in evaluations {
        table.push_row(vec![
            eval.workload.clone(),
            eval.technique.clone(),
            fmt_f64(eval.file_size_percent),
            fmt_f64(eval.approximation_distance_us),
            fmt_retained(eval.trends_retained),
            fmt_f64(eval.confidence),
        ]);
    }
    table
}

/// Summary table: per-technique averages over all workloads plus the number
/// of workloads whose trends were retained.
pub fn extension_summary_table(evaluations: &[ExtensionEvaluation]) -> Table {
    let mut techniques: Vec<String> = Vec::new();
    for eval in evaluations {
        if !techniques.contains(&eval.technique) {
            techniques.push(eval.technique.clone());
        }
    }
    let mut table = Table::new(
        "Extension study summary (averages over workloads)",
        &[
            "technique",
            "avg file size %",
            "avg approx dist (us)",
            "trends retained",
            "avg confidence",
        ],
    );
    for technique in techniques {
        let rows: Vec<&ExtensionEvaluation> = evaluations
            .iter()
            .filter(|e| e.technique == technique)
            .collect();
        let n = rows.len() as f64;
        let avg_size = rows.iter().map(|e| e.file_size_percent).sum::<f64>() / n;
        let avg_dist = rows
            .iter()
            .map(|e| e.approximation_distance_us)
            .sum::<f64>()
            / n;
        let retained = rows.iter().filter(|e| e.trends_retained).count();
        let avg_conf = rows.iter().map(|e| e.confidence).sum::<f64>() / n;
        table.push_row(vec![
            technique,
            fmt_f64(avg_size),
            fmt_f64(avg_dist),
            format!("{retained}/{}", rows.len()),
            fmt_f64(avg_conf),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    fn workload(kind: WorkloadKind) -> AppTrace {
        Workload::new(kind, SizePreset::Tiny).generate()
    }

    #[test]
    fn default_catalogue_has_unique_labels() {
        let catalogue = ExtensionTechnique::default_catalogue();
        assert!(catalogue.len() >= 12);
        let mut labels: Vec<String> = catalogue.iter().map(|t| t.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), catalogue.len());
    }

    #[test]
    fn similarity_techniques_match_the_method_evaluation_pipeline() {
        let full = workload(WorkloadKind::LateSender);
        let technique = ExtensionTechnique::Similarity(ExtendedConfig::with_default_threshold(
            ExtendedMethod::Paper(Method::AvgWave),
        ));
        let eval = evaluate_technique(&full, technique);
        let reference = crate::evaluation::evaluate_method(
            &full,
            trace_reduce::MethodConfig::with_default_threshold(Method::AvgWave),
        );
        assert!((eval.file_size_percent - reference.file_size_percent).abs() < 1e-9);
        assert_eq!(eval.trends_retained, reference.trends_retained);
    }

    #[test]
    fn lossless_sampling_has_full_size_and_no_error() {
        let full = workload(WorkloadKind::EarlyGather);
        let eval = evaluate_technique(
            &full,
            ExtensionTechnique::Sampling(SamplingPolicy::EveryNth(1)),
        );
        assert_eq!(eval.approximation_distance_us, 0.0);
        assert_eq!(eval.confidence, 1.0);
        assert!(eval.trends_retained);
        assert!(
            eval.file_size_percent > 50.0,
            "keeping every segment cannot shrink much"
        );
    }

    #[test]
    fn coarse_sampling_is_smaller_but_less_confident_than_lossless() {
        let full = workload(WorkloadKind::DynLoadBalance);
        let lossless = evaluate_technique(
            &full,
            ExtensionTechnique::Sampling(SamplingPolicy::EveryNth(1)),
        );
        let coarse = evaluate_technique(
            &full,
            ExtensionTechnique::Sampling(SamplingPolicy::EveryNth(16)),
        );
        assert!(coarse.file_size_percent < lossless.file_size_percent);
        assert!(coarse.confidence <= lossless.confidence);
        assert!(coarse.approximation_distance_us >= lossless.approximation_distance_us);
    }

    #[test]
    fn clustering_with_one_cluster_per_rank_is_lossless() {
        let full = workload(WorkloadKind::LateSender);
        let eval = evaluate_technique(
            &full,
            ExtensionTechnique::Clustering {
                k: full.rank_count(),
            },
        );
        assert_eq!(eval.approximation_distance_us, 0.0);
        assert!(eval.trends_retained);
        assert!(eval.file_size_percent > 95.0);
    }

    #[test]
    fn clustering_with_few_clusters_shrinks_the_retained_data() {
        let full = workload(WorkloadKind::LateSender);
        let eval = evaluate_technique(&full, ExtensionTechnique::Clustering { k: 2 });
        assert!(
            eval.file_size_percent < 60.0,
            "2 clusters out of {} ranks should retain well under 60%, got {}",
            full.rank_count(),
            eval.file_size_percent
        );
    }

    #[test]
    fn extension_study_covers_every_technique_and_workload() {
        let traces = vec![
            workload(WorkloadKind::LateSender),
            workload(WorkloadKind::EarlyGather),
        ];
        let evaluations = extension_study(&traces);
        let catalogue = ExtensionTechnique::default_catalogue();
        assert_eq!(evaluations.len(), traces.len() * catalogue.len());
        let table = extension_table(&evaluations);
        let summary = extension_summary_table(&evaluations);
        let rendered = table.render();
        assert!(rendered.contains("late_sender"));
        let summary_text = summary.render();
        assert!(summary_text.contains("clustering:k=4"));
        assert!(summary_text.contains("sampling:every10"));
        // CSV output stays consistent with the row count.
        assert_eq!(table.to_csv().lines().count(), evaluations.len() + 1);
    }
}
