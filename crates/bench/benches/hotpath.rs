//! Criterion micro-benchmarks of the runtime hot path: end-to-end
//! pipelines swept over `batch_size`, with operator chaining disabled so
//! channel synchronization dominates. Absolute numbers live in
//! `BENCH_hotpath.json` (see `scripts/bench_hotpath.sh`); this suite is
//! for relative tracking across commits.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bench::hotpath::{
    dense_stream, run_chain, run_fanout, run_window_join, run_window_join_global_scan,
    run_window_join_keyed, stream, BATCH_SIZES,
};

const CHAIN_N: usize = 50_000;
const FANOUT_N: usize = 50_000;
const JOIN_N: usize = 10_000;

fn bench_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath_chain");
    g.throughput(Throughput::Elements(CHAIN_N as u64));
    for bs in BATCH_SIZES {
        g.bench_with_input(BenchmarkId::new("filter_map", bs), &bs, |b, &bs| {
            b.iter(|| {
                let (report, sink) = run_chain(stream(CHAIN_N, 4, 1), bs);
                black_box(report.sink_count(sink))
            })
        });
    }
    g.finish();
}

fn bench_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath_fanout");
    g.throughput(Throughput::Elements(FANOUT_N as u64));
    for bs in BATCH_SIZES {
        g.bench_with_input(BenchmarkId::new("hash_x4", bs), &bs, |b, &bs| {
            b.iter(|| {
                let (report, sink) = run_fanout(stream(FANOUT_N, 16, 2), bs, 4);
                black_box(report.sink_count(sink))
            })
        });
    }
    g.finish();
}

fn bench_window_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath_window_join");
    g.throughput(Throughput::Elements(2 * JOIN_N as u64));
    for bs in [1usize, 64] {
        g.bench_with_input(BenchmarkId::new("sliding_5_1", bs), &bs, |b, &bs| {
            b.iter(|| {
                let (report, sink) =
                    run_window_join(stream(JOIN_N, 4, 3), stream(JOIN_N, 4, 4), bs);
                black_box(report.sink_count(sink))
            })
        });
    }
    g.finish();
}

/// Keyed vs frozen global-scan window join on the same dense K=64 input:
/// the criterion-tracked form of the headline state-layout ratio.
fn bench_window_join_keyed(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath_window_join_keyed");
    g.throughput(Throughput::Elements(2 * JOIN_N as u64));
    g.bench_function("keyed_k64", |b| {
        b.iter(|| {
            let (report, sink) =
                run_window_join_keyed(dense_stream(JOIN_N, 64, 3), dense_stream(JOIN_N, 64, 4), 64);
            black_box(report.sink_count(sink))
        })
    });
    g.bench_function("global_scan_k64", |b| {
        b.iter(|| {
            let (report, sink) = run_window_join_global_scan(
                dense_stream(JOIN_N, 64, 3),
                dense_stream(JOIN_N, 64, 4),
                64,
            );
            black_box(report.sink_count(sink))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_chain, bench_fanout, bench_window_join, bench_window_join_keyed
}
criterion_main!(benches);
