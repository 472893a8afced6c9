//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * per-rank parallel reduction versus sequential reduction;
//! * the cost of the binary codec (encode/decode throughput);
//! * segmentation throughput in isolation;
//! * wavelet transform cost versus direct Minkowski comparison.
//!
//! These are not paper figures; they justify implementation choices of this
//! reproduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use trace_model::codec::{decode_app_trace, encode_app_trace};
use trace_obs::Recorder;
use trace_reduce::{segments_of_rank, Method, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{reduce_input, TraceInput};
use trace_wavelet::{average_transform, haar_transform};

fn bench_parallel_vs_sequential(c: &mut Criterion) {
    let full = Workload::new(WorkloadKind::Sweep3d32p, SizePreset::Small).generate();
    let reducer = Reducer::with_default_threshold(Method::AvgWave);
    let mut group = c.benchmark_group("ablation/parallel_reduction");
    group.sample_size(10);
    group.throughput(Throughput::Elements(full.total_events() as u64));
    group.bench_function("sequential", |b| b.iter(|| reducer.reduce_app(&full)));
    let (app, disabled) = (TraceInput::App(&full), Recorder::disabled());
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("parallel", threads),
            &threads,
            |b, &threads| b.iter(|| reduce_input(&reducer, app, threads, &disabled).unwrap()),
        );
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let full = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Small).generate();
    let bytes = encode_app_trace(&full);
    let mut group = c.benchmark_group("ablation/codec");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode", |b| b.iter(|| encode_app_trace(&full)));
    group.bench_function("decode", |b| b.iter(|| decode_app_trace(&bytes).unwrap()));
    group.finish();
}

fn bench_segmentation(c: &mut Criterion) {
    let full = Workload::new(WorkloadKind::LateSender, SizePreset::Small).generate();
    let mut group = c.benchmark_group("ablation/segmentation");
    group.sample_size(20);
    group.throughput(Throughput::Elements(full.ranks[0].len() as u64));
    group.bench_function("segments_of_rank", |b| {
        b.iter(|| segments_of_rank(&full.ranks[0]))
    });
    group.finish();
}

fn bench_similarity_kernels(c: &mut Criterion) {
    // Compare the per-comparison cost of the similarity kernels on a
    // realistic segment-sized time-stamp vector.
    let vector: Vec<f64> = (0..64).map(|i| (i * 997 % 5000) as f64).collect();
    let other: Vec<f64> = vector.iter().map(|v| v * 1.01 + 3.0).collect();
    let mut group = c.benchmark_group("ablation/similarity_kernels");
    group.bench_function("euclidean_direct", |b| {
        b.iter(|| trace_model::stats::euclidean_distance(&vector, &other))
    });
    group.bench_function("avg_wavelet_transform_pair", |b| {
        b.iter(|| {
            let ta = average_transform(&vector);
            let tb = average_transform(&other);
            trace_wavelet::coefficient_distance(&ta, &tb)
        })
    });
    group.bench_function("haar_wavelet_transform_pair", |b| {
        b.iter(|| {
            let ta = haar_transform(&vector);
            let tb = haar_transform(&other);
            trace_wavelet::coefficient_distance(&ta, &tb)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_vs_sequential,
    bench_codec,
    bench_segmentation,
    bench_similarity_kernels
);
criterion_main!(benches);
