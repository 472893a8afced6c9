//! Ablation benchmarks for the extension crates: the per-comparison cost of
//! the extended similarity kernels, the throughput of the sampling and
//! clustering reducers relative to the paper's reducer, and the cost of the
//! text format relative to the binary codec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use trace_clustering::{
    cluster_reduce, euclidean_distance_matrix, kmeans, rank_features, KMeansConfig, Normalization,
};
use trace_format::{parse_app_trace, write_app_trace};
use trace_model::codec::{decode_app_trace, encode_app_trace};
use trace_reduce::{dtw_distance, ExtendedMethod, Method, Reducer};
use trace_sampling::{sample_app, SamplingPolicy};
use trace_sim::{SizePreset, Workload, WorkloadKind};

fn bench_extended_kernels(c: &mut Criterion) {
    // Per-comparison cost of the extension kernels against the Euclidean
    // baseline on a realistic segment-sized measurement vector.
    let vector: Vec<f64> = (0..64).map(|i| (i * 997 % 5000) as f64).collect();
    let other: Vec<f64> = vector.iter().map(|v| v * 1.01 + 3.0).collect();
    let mut group = c.benchmark_group("ablation_ext/kernels");
    group.bench_function("euclidean_direct", |b| {
        b.iter(|| trace_model::stats::euclidean_distance(&vector, &other))
    });
    group.bench_function("dtw_banded", |b| {
        b.iter(|| dtw_distance(&vector, &other, Some(2)))
    });
    group.bench_function("dtw_unbounded", |b| {
        b.iter(|| dtw_distance(&vector, &other, None))
    });
    group.bench_function("cdf97_transform_pair", |b| {
        b.iter(|| {
            let ta = trace_wavelet::cdf97_transform(&vector);
            let tb = trace_wavelet::cdf97_transform(&other);
            trace_wavelet::coefficient_distance(&ta, &tb)
        })
    });
    group.finish();
}

fn bench_reduction_families(c: &mut Criterion) {
    // Whole-trace reduction throughput of the three families on the same
    // workload: similarity (paper avgWave and extended DTW), sampling, and
    // clustering.
    let full = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Small).generate();
    let mut group = c.benchmark_group("ablation_ext/reduction_families");
    group.sample_size(10);
    group.throughput(Throughput::Elements(full.total_events() as u64));
    group.bench_function("similarity_avgWave", |b| {
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        b.iter(|| reducer.reduce_app(&full))
    });
    group.bench_function("similarity_dtw", |b| {
        let reducer = Reducer::with_default_threshold(ExtendedMethod::Dtw);
        b.iter(|| reducer.reduce_app(&full))
    });
    for n in [2usize, 10] {
        group.bench_with_input(BenchmarkId::new("sampling_every", n), &n, |b, &n| {
            b.iter(|| sample_app(&full, SamplingPolicy::EveryNth(n)))
        });
    }
    group.bench_function("clustering_k4", |b| {
        b.iter(|| {
            let features = rank_features(&full, Normalization::MinMax);
            let matrix = euclidean_distance_matrix(&features);
            let result = kmeans(&features, &KMeansConfig::new(4));
            cluster_reduce(&full, &result.assignments, &matrix)
        })
    });
    group.finish();
}

fn bench_text_format_vs_codec(c: &mut Criterion) {
    let full = Workload::new(WorkloadKind::LateSender, SizePreset::Small).generate();
    let binary = encode_app_trace(&full);
    let text = write_app_trace(&full);
    println!(
        "[ablation_ext] encoded sizes: binary {} bytes, text {} bytes ({}x)",
        binary.len(),
        text.len(),
        text.len() / binary.len().max(1)
    );
    let mut group = c.benchmark_group("ablation_ext/formats");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(binary.len() as u64));
    group.bench_function("binary_encode", |b| b.iter(|| encode_app_trace(&full)));
    group.bench_function("binary_decode", |b| {
        b.iter(|| decode_app_trace(&binary).unwrap())
    });
    group.bench_function("text_write", |b| b.iter(|| write_app_trace(&full)));
    group.bench_function("text_parse", |b| b.iter(|| parse_app_trace(&text).unwrap()));
    group.finish();
}

criterion_group!(
    benches,
    bench_extended_kernels,
    bench_reduction_families,
    bench_text_format_vs_codec
);
criterion_main!(benches);
