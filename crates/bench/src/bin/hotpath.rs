//! Emits `BENCH_hotpath.json`: absolute throughput of the hot-path
//! pipelines swept over `batch_size ∈ {1, 16, 64, 256}`, plus the keyed
//! join sweep over key cardinality `K ∈ {1, 4, 64, 1024}` with the frozen
//! global-scan operator as the speedup denominator.
//!
//! Usage: `hotpath [--quick] [--out PATH] [--telemetry PATH] [--explain]
//! [--assert-keyed-floor] [--assert-columnar-floor] [--assert-shard-floor]
//! [--assert-multi-floor] [--assert-batch-efficiency]`
//! (normally via `scripts/bench_hotpath.sh`). `--quick` shrinks the event
//! counts and repetitions for CI smoke runs; the headline
//! `speedup_filter_map_64_vs_1` and
//! `speedup_window_join_keyed_k64_vs_global_scan` ratios are still
//! meaningful, just noisier. `--assert-keyed-floor` exits nonzero if the
//! key-partitioned window join at K = 64, batch 64 falls below the
//! global-scan baseline — the CI regression gate for the state layout.
//! `--assert-columnar-floor` exits nonzero if the filter→map chain at
//! batch 256 runs less than 4× the same chain at batch 1 in the same run
//! (`speedup_filter_map_256_vs_1`, the gate for batch amortization on the
//! columnar data plane). `--assert-shard-floor` exits nonzero if the adaptive
//! multi-shard zipf join falls below 1.3× static hashing or 3× the
//! single-instance run; the worker count auto-sizes to the host
//! (`cores.clamp(2, 8)`, the `shard_workers` field) and the floor is
//! asserted only on hosts with ≥ 4 cores (skipped loudly otherwise:
//! time-sliced shard workers measure contention, not scaling; the
//! recorded `cores` field says which regime a JSON artifact
//! came from).
//!
//! `--assert-batch-efficiency` exits nonzero if `hash_fanout_x4`,
//! `window_join` or `interval_join` at batch 256 realizes less than 0.95
//! of the configured batch at the source (`batch_efficiency`): punctuation
//! rides batches as in-band marks, so only end-of-stream partials and idle
//! hard flushes may shorten a batch.
//!
//! `--assert-multi-floor` exits nonzero if the shared-subplan DAG over
//! 1000 overlapping pattern variants (`multi_patterns`) falls below 3×
//! the isolated per-pattern pipelines on the same workload — the CI gate
//! for the multi-query optimizer. Both arms run single-threaded source
//! replay of identical streams and must agree on every sink count before
//! the ratio is recorded.
//!
//! After the sweep, one *instrumented* run of the filter→map chain at the
//! default batch size exports the runtime's full telemetry (per-operator
//! latency histograms, watermark-lag / queue-depth / backpressure gauges,
//! resource samples, and the structured event log) to the `--telemetry`
//! path (default `BENCH_hotpath_telemetry.json`), with a summary block
//! printed next to the throughput numbers.

use std::io::Write as _;

use bench::hotpath::{
    dense_stream, run_chain, run_chain_instrumented, run_fanout, run_interval_join,
    run_window_join, run_window_join_global_scan, run_window_join_keyed, run_window_join_sharded,
    stream, zipf_stream, BATCH_SIZES, KEY_CARDINALITIES, ZIPF_KEYS,
};
use serde::Serialize;

/// One measured point of the sweep.
#[derive(Serialize)]
struct Point {
    /// The *configured* `ExecutorConfig::batch_size`.
    batch_size: usize,
    /// Source-side sustainable throughput, events/second (median of reps).
    throughput_eps: f64,
    /// Mean tuples per channel message the source actually *realized*.
    /// Punctuation never truncates per-destination output buffers — a
    /// watermark reaching a destination with a partial buffer rides that
    /// buffer's batch as an in-band mark — so buffers flush only when full,
    /// on idle (hard flush), or at end of stream. Realized batch therefore
    /// tracks the configured size even across hash fan-out; the residual
    /// gap comes from end-of-stream partials and idle hard flushes.
    avg_batch_at_source: f64,
    /// `avg_batch_at_source / batch_size`: the fraction of the configured
    /// batch the pipeline could actually use (1.0 = fully realized).
    batch_efficiency: f64,
    /// Tuples that reached the sink (sanity: batch-size independent).
    sink_count: u64,
}

/// A [`Point`] of the keyed-join sweep, tagged with its key cardinality.
#[derive(Serialize)]
struct KeyedPoint {
    /// Distinct join keys in the input streams (the `sensors` parameter).
    keys: u32,
    #[serde(flatten)]
    point: Point,
}

#[derive(Serialize)]
struct Output {
    bench: &'static str,
    mode: &'static str,
    events: Events,
    repetitions: usize,
    filter_map_chain: Vec<Point>,
    hash_fanout_x4: Vec<Point>,
    window_join: Vec<Point>,
    /// Key-partitioned window join swept over K × batch_size.
    window_join_keyed: Vec<KeyedPoint>,
    /// Frozen pre-rework global-scan window join, swept over K at
    /// batch_size=64 — the denominator for the keyed speedup.
    window_join_global_scan: Vec<KeyedPoint>,
    /// Key-partitioned interval join (sequence bounds) at K=64, swept
    /// over batch_size.
    interval_join: Vec<Point>,
    /// Logical CPU cores the host exposed. Shard speedups are only
    /// meaningful when this is ≥ 4 — on fewer cores the shard workers
    /// time-slice one another and the ratios below record contention, not
    /// scaling.
    cores: usize,
    /// Shard workers the multi-shard scenarios ran with: auto-sized to
    /// the host's core count, clamped to [2, 8] — so a 2-core CI runner
    /// measures 2 real workers instead of 8 time-sliced ones, and big
    /// hosts stay comparable to the historical 8-shard runs.
    shard_workers: usize,
    /// Zipf-skewed (~1M-key) keyed window join at batch 64:
    /// single-instance, static multi-shard (rebalancer off), and adaptive
    /// multi-shard (hot-key rebalancer on), at `shard_workers` workers.
    window_join_sharded: Vec<ShardedPoint>,
    /// Headline number: filter→map chain throughput at batch_size=64 over
    /// batch_size=1. The acceptance floor for the micro-batching work is 2×.
    speedup_filter_map_64_vs_1: f64,
    /// Headline number for the key-partitioned state layout: keyed window
    /// join over the global-scan baseline at K=64, batch 64. Target ≥ 3×;
    /// `--assert-keyed-floor` fails the run if it drops below 1×.
    speedup_window_join_keyed_k64_vs_global_scan: f64,
    /// Batch amortization on the columnar data plane: filter→map chain
    /// throughput at batch_size=256 over batch_size=1 in the same run.
    /// `--assert-columnar-floor` fails the run if it drops below 4×.
    speedup_filter_map_256_vs_1: f64,
    /// Headline for adaptive sharding: zipf-skewed keyed join, adaptive
    /// over static placement at `shard_workers` workers. Target ≥ 1.3× on
    /// ≥ 4 cores; `--assert-shard-floor` gates on it (skipped below
    /// 4 cores).
    speedup_shard_adaptive_vs_static: f64,
    /// Adaptive multi-shard over the single-instance run. Target ≥ 3× on
    /// ≥ 4 cores; `--assert-shard-floor` gates on it (same core gate).
    speedup_shard_adaptive_vs_single: f64,
    /// The multi-pattern scenario: ~1k overlapping pattern variants over
    /// shared streams, once as one shared-subplan DAG and once as
    /// isolated per-pattern pipelines.
    multi_patterns: Vec<MultiPoint>,
    /// Headline for the shared-subplan optimizer: logical throughput of
    /// the shared DAG over the isolated pipelines (a pure wall-time
    /// ratio — both arms process the same logical volume). Target ≥ 3×;
    /// `--assert-multi-floor` fails the run below that.
    speedup_multi_shared_vs_isolated: f64,
}

/// One arm of the multi-pattern scenario.
#[derive(Serialize)]
struct MultiPoint {
    /// Pattern variants in the batch.
    variants: usize,
    /// Whether the shared-subplan pass was on.
    shared: bool,
    /// End-to-end wall time (translate + build + run), seconds.
    wall_secs: f64,
    /// Logical events per second: `variants × 2 × stream_len / wall` —
    /// the same numerator for both arms, so the ratio is wall time.
    throughput_eps: f64,
    /// Events the sources actually replayed (shared arm: once per merged
    /// scan; isolated arm: once per pattern per scan).
    source_events: u64,
    /// Total matches across all per-pattern sinks (cross-arm oracle).
    sink_total: u64,
    /// Plan nodes before sharing.
    nodes_total: usize,
    /// Plan nodes actually lowered.
    nodes_lowered: usize,
    /// Scans before sharing.
    scans_total: usize,
    /// Scans actually lowered.
    scans_lowered: usize,
}

/// One sharded-scenario configuration with its measured point.
#[derive(Serialize)]
struct ShardedPoint {
    /// Shard-worker instances of the join node.
    shards: usize,
    /// Whether the hot-key rebalancer was running.
    adaptive: bool,
    /// Key migrations the rebalancer actually performed (last rep).
    migrations: u64,
    #[serde(flatten)]
    point: Point,
}

#[derive(Serialize)]
struct Events {
    chain: usize,
    fanout: usize,
    join_per_side: usize,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("throughput is finite"));
    xs[xs.len() / 2]
}

/// Median throughput over `reps` runs of `f`, plus stats from the last run.
fn measure(reps: usize, f: impl Fn() -> (f64, f64, u64)) -> Point {
    let mut tputs = Vec::with_capacity(reps);
    let mut last = (0.0, 0);
    for _ in 0..reps {
        let (t, avg, n) = f();
        tputs.push(t);
        last = (avg, n);
    }
    Point {
        batch_size: 0,         // filled by caller
        batch_efficiency: 0.0, // filled by caller once batch_size is known
        throughput_eps: median(tputs),
        avg_batch_at_source: last.0,
        sink_count: last.1,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--explain") {
        // Static plan analysis of the standard suite instead of the sweep.
        print!(
            "{}",
            bench::explain::suite_report(
                &bench::explain::ExplainConfig::default(),
                cep2asp::OrderingStrategy::CostBased,
            )
        );
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_hotpath.json")
        .to_string();
    let telemetry_path = args
        .iter()
        .position(|a| a == "--telemetry")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_hotpath_telemetry.json")
        .to_string();

    let (chain_n, fanout_n, join_n, reps) = if quick {
        (100_000, 50_000, 10_000, 3)
    } else {
        (500_000, 250_000, 40_000, 5)
    };

    let src_avg = |report: &asp::runtime::RunReport| {
        report
            .nodes
            .iter()
            .find(|n| n.name == "src" || n.name == "a")
            .map(|n| n.avg_batch())
            .unwrap_or(0.0)
    };

    let sweep = |label: &str, f: &dyn Fn(usize) -> (f64, f64, u64)| -> Vec<Point> {
        BATCH_SIZES
            .iter()
            .map(|&bs| {
                let mut p = measure(reps, || f(bs));
                p.batch_size = bs;
                p.batch_efficiency = p.avg_batch_at_source / bs as f64;
                eprintln!(
                    "{label:>20} batch_size={bs:<4} {:>12.0} events/s  (avg batch {:.1})",
                    p.throughput_eps, p.avg_batch_at_source
                );
                p
            })
            .collect()
    };

    let chain = sweep("filter_map", &|bs| {
        let (r, s) = run_chain(stream(chain_n, 4, 1), bs);
        (r.throughput(), src_avg(&r), r.sink_count(s))
    });
    // Same graph, same input: every batch size must agree on the output.
    for p in &chain[1..] {
        assert_eq!(
            p.sink_count, chain[0].sink_count,
            "filter→map chain output depends on batch_size={}",
            p.batch_size
        );
    }
    let fanout = sweep("hash_fanout_x4", &|bs| {
        let (r, s) = run_fanout(stream(fanout_n, 16, 2), bs, 4);
        (r.throughput(), src_avg(&r), r.sink_count(s))
    });
    let join = sweep("window_join", &|bs| {
        let (r, s) = run_window_join(stream(join_n, 4, 3), stream(join_n, 4, 4), bs);
        (r.throughput(), src_avg(&r), r.sink_count(s))
    });

    // Keyed sweep: K × batch_size with the key-partitioned operator, then
    // the frozen global-scan operator per K at the headline batch size.
    let mut keyed: Vec<KeyedPoint> = Vec::new();
    for &k in &KEY_CARDINALITIES {
        let pts = sweep(&format!("wjoin_keyed k={k}"), &|bs| {
            let (r, s) =
                run_window_join_keyed(dense_stream(join_n, k, 3), dense_stream(join_n, k, 4), bs);
            (r.throughput(), src_avg(&r), r.sink_count(s))
        });
        keyed.extend(pts.into_iter().map(|point| KeyedPoint { keys: k, point }));
    }
    let mut global_scan: Vec<KeyedPoint> = Vec::new();
    for &k in &KEY_CARDINALITIES {
        let mut p = measure(reps, || {
            let (r, s) = run_window_join_global_scan(
                dense_stream(join_n, k, 3),
                dense_stream(join_n, k, 4),
                64,
            );
            (r.throughput(), src_avg(&r), r.sink_count(s))
        });
        p.batch_size = 64;
        p.batch_efficiency = p.avg_batch_at_source / 64.0;
        eprintln!(
            "{:>20} batch_size=64   {:>12.0} events/s  (avg batch {:.1})",
            format!("wjoin_global k={k}"),
            p.throughput_eps,
            p.avg_batch_at_source
        );
        global_scan.push(KeyedPoint { keys: k, point: p });
    }
    // The two layouts must be observationally equivalent — same sink
    // multiset, so same count — or the speedup ratio is meaningless.
    for g in &global_scan {
        let kp = keyed
            .iter()
            .find(|p| p.keys == g.keys && p.point.batch_size == 64)
            .expect("keyed sweep covers batch_size=64");
        assert_eq!(
            kp.point.sink_count, g.point.sink_count,
            "keyed and global-scan joins disagree at K={}",
            g.keys
        );
    }
    let interval = sweep("interval_join", &|bs| {
        let (r, s) =
            run_interval_join(dense_stream(join_n, 64, 3), dense_stream(join_n, 64, 4), bs);
        (r.throughput(), src_avg(&r), r.sink_count(s))
    });

    // Zipf-skewed sharded scenario at batch 64: identical inputs through
    // the single-instance join, a static multi-shard placement, and the
    // adaptive multi-shard placement with the hot-key rebalancer live.
    // Worker count auto-sizes to the host: min(cores, 8), at least 2, so
    // small CI runners measure real parallelism instead of time-slicing.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shard_workers = cores.clamp(2, 8);
    let zleft = zipf_stream(join_n, ZIPF_KEYS, 9);
    let zright = zipf_stream(join_n, ZIPF_KEYS, 10);
    let mut sharded: Vec<ShardedPoint> = Vec::new();
    for &(shards, adaptive) in &[
        (1usize, false),
        (shard_workers, false),
        (shard_workers, true),
    ] {
        let mut tputs = Vec::with_capacity(reps);
        let mut avg = 0.0;
        let mut count = 0u64;
        let mut migrations = 0u64;
        for _ in 0..reps {
            let (r, s) =
                run_window_join_sharded(zleft.clone(), zright.clone(), 64, shards, adaptive);
            tputs.push(r.throughput());
            avg = src_avg(&r);
            count = r.sink_count(s);
            migrations = r.nodes.iter().map(|n| n.shard_migrations).sum();
        }
        let point = Point {
            batch_size: 64,
            throughput_eps: median(tputs),
            avg_batch_at_source: avg,
            batch_efficiency: avg / 64.0,
            sink_count: count,
        };
        eprintln!(
            "{:>20} batch_size=64   {:>12.0} events/s  ({} migrations)",
            format!(
                "wjoin_shard n={shards}{}",
                if adaptive { " adpt" } else { "" }
            ),
            point.throughput_eps,
            migrations,
        );
        sharded.push(ShardedPoint {
            shards,
            adaptive,
            migrations,
            point,
        });
    }
    // All three configurations see the same input — the sink count is the
    // correctness oracle for the migration protocol under load.
    for p in &sharded[1..] {
        assert_eq!(
            p.point.sink_count, sharded[0].point.sink_count,
            "sharded join (shards={}, adaptive={}) diverged from single instance",
            p.shards, p.adaptive
        );
    }

    // Multi-pattern scenario: ~1k overlapping variants, shared DAG vs
    // isolated pipelines. Arms are interleaved across 3 reps and each
    // arm keeps its best wall — each run stands up thousands of threads,
    // and allocator/scheduler drift across runs in one process otherwise
    // leaks into the ratio.
    let multi_cfg = if quick {
        bench::multi::MultiBenchConfig::quick()
    } else {
        bench::multi::MultiBenchConfig::full()
    };
    let (multi_jobs, multi_sources) = bench::multi::build_workload(&multi_cfg);
    let mut multi_points: Vec<MultiPoint> = Vec::new();
    let mut multi_sinks: Vec<u64> = Vec::new();
    let mut best: [Option<MultiPoint>; 2] = [None, None];
    for _ in 0..3 {
        for (slot, shared) in [true, false].into_iter().enumerate() {
            let (run, wall) = bench::multi::run_multi(&multi_jobs, &multi_sources, shared);
            let sink_total = bench::multi::sink_total(&run);
            multi_sinks.push(sink_total);
            let point = MultiPoint {
                variants: multi_cfg.variants,
                shared,
                wall_secs: wall.as_secs_f64(),
                throughput_eps: multi_cfg.logical_events() as f64 / wall.as_secs_f64().max(1e-9),
                source_events: run.report.source_events,
                sink_total,
                nodes_total: run.share.nodes_total,
                nodes_lowered: run.share.nodes_lowered,
                scans_total: run.share.scans_total,
                scans_lowered: run.share.scans_lowered,
            };
            match &best[slot] {
                Some(b) if point.wall_secs >= b.wall_secs => {}
                _ => best[slot] = Some(point),
            }
        }
    }
    for point in best {
        let point = point.expect("three reps ran");
        eprintln!(
            "{:>20} variants={} {:>12.0} events/s  (wall {:.2}s, scans {} → {})",
            if point.shared {
                "multi_shared"
            } else {
                "multi_isolated"
            },
            multi_cfg.variants,
            point.throughput_eps,
            point.wall_secs,
            point.scans_total,
            point.scans_lowered,
        );
        multi_points.push(point);
    }
    // Same workload, same streams: every rep of both arms must agree
    // exactly on the total output or the speedup is meaningless.
    assert!(
        multi_sinks.windows(2).all(|w| w[0] == w[1]),
        "multi-pattern arms disagree on sink totals: {multi_sinks:?}"
    );
    let multi_speedup = multi_points[1].wall_secs / multi_points[0].wall_secs.max(1e-9);
    eprintln!(
        "multi_patterns shared speedup ({} variants, vs isolated pipelines): {multi_speedup:.2}x",
        multi_cfg.variants
    );

    let at = |pts: &[Point], bs: usize| -> f64 {
        pts.iter()
            .find(|p| p.batch_size == bs)
            .map(|p| p.throughput_eps)
            .expect("swept batch size present")
    };
    let keyed_at = |pts: &[KeyedPoint], k: u32, bs: usize| -> f64 {
        pts.iter()
            .find(|p| p.keys == k && p.point.batch_size == bs)
            .map(|p| p.point.throughput_eps)
            .expect("swept keyed point present")
    };
    let speedup = at(&chain, 64) / at(&chain, 1);
    eprintln!("filter_map speedup (batch 64 vs 1): {speedup:.2}x");
    let keyed_speedup = keyed_at(&keyed, 64, 64) / keyed_at(&global_scan, 64, 64);
    eprintln!("window_join keyed speedup at K=64, batch 64 (vs global scan): {keyed_speedup:.2}x");
    let amortization = at(&chain, 256) / at(&chain, 1);
    eprintln!("filter_map speedup (batch 256 vs 1): {amortization:.2}x");
    let sharded_at = |shards: usize, adaptive: bool| -> f64 {
        sharded
            .iter()
            .find(|p| p.shards == shards && p.adaptive == adaptive)
            .map(|p| p.point.throughput_eps)
            .expect("sharded scenario present")
    };
    let shard_vs_static = sharded_at(shard_workers, true) / sharded_at(shard_workers, false);
    let shard_vs_single = sharded_at(shard_workers, true) / sharded_at(1, false);
    eprintln!(
        "zipf keyed join, adaptive {shard_workers}-shard: {shard_vs_static:.2}x vs static \
         hashing, {shard_vs_single:.2}x vs single instance ({cores} cores)"
    );

    let out = Output {
        bench: "hotpath",
        mode: if quick { "quick" } else { "full" },
        events: Events {
            chain: chain_n,
            fanout: fanout_n,
            join_per_side: join_n,
        },
        repetitions: reps,
        filter_map_chain: chain,
        hash_fanout_x4: fanout,
        window_join: join,
        window_join_keyed: keyed,
        window_join_global_scan: global_scan,
        interval_join: interval,
        cores,
        shard_workers,
        window_join_sharded: sharded,
        speedup_filter_map_64_vs_1: speedup,
        speedup_window_join_keyed_k64_vs_global_scan: keyed_speedup,
        speedup_filter_map_256_vs_1: amortization,
        speedup_shard_adaptive_vs_static: shard_vs_static,
        speedup_shard_adaptive_vs_single: shard_vs_single,
        multi_patterns: multi_points,
        speedup_multi_shared_vs_isolated: multi_speedup,
    };
    let json = serde_json::to_string_pretty(&out).expect("serializable");
    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    f.write_all(b"\n").expect("write trailing newline");
    eprintln!("wrote {out_path}");

    if args.iter().any(|a| a == "--assert-keyed-floor") && keyed_speedup < 1.0 {
        eprintln!(
            "FAIL: keyed window join at K=64, batch 64 regressed below the \
             global-scan baseline ({keyed_speedup:.2}x < 1.00x)"
        );
        std::process::exit(1);
    }
    if args.iter().any(|a| a == "--assert-columnar-floor") && amortization < 4.0 {
        eprintln!(
            "FAIL: filter→map chain at batch 256 fell below 4x the same chain \
             at batch 1 ({amortization:.2}x)"
        );
        std::process::exit(1);
    }
    if args.iter().any(|a| a == "--assert-batch-efficiency") {
        let mut failed = false;
        for (label, pts) in [
            ("hash_fanout_x4", &out.hash_fanout_x4),
            ("window_join", &out.window_join),
            ("interval_join", &out.interval_join),
        ] {
            let eff = pts
                .iter()
                .find(|p| p.batch_size == 256)
                .map(|p| p.batch_efficiency)
                .expect("swept batch size present");
            if eff < 0.95 {
                eprintln!(
                    "FAIL: {label} at batch 256 realized {eff:.3} of the configured \
                     batch at the source (floor 0.95)"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
    if args.iter().any(|a| a == "--assert-multi-floor") && multi_speedup < 3.0 {
        eprintln!(
            "FAIL: shared-subplan DAG over {} overlapping pattern variants fell \
             below 3x the isolated pipelines ({multi_speedup:.2}x)",
            out.multi_patterns[0].variants
        );
        std::process::exit(1);
    }
    if args.iter().any(|a| a == "--assert-shard-floor") {
        if cores < 4 {
            eprintln!(
                "SKIP: --assert-shard-floor needs ≥ 4 cores (host has {cores}); \
                 {shard_workers} shard workers time-slicing {cores} core(s) measure \
                 contention, not scaling — the floor is not asserted"
            );
        } else {
            if shard_vs_static < 1.3 {
                eprintln!(
                    "FAIL: adaptive {shard_workers}-shard zipf join fell below 1.3x \
                     static hashing ({shard_vs_static:.2}x)"
                );
                std::process::exit(1);
            }
            if shard_vs_single < 3.0 {
                eprintln!(
                    "FAIL: adaptive {shard_workers}-shard zipf join fell below 3x the \
                     single-instance run ({shard_vs_single:.2}x)"
                );
                std::process::exit(1);
            }
        }
    }

    // One instrumented run at the default batch size for the telemetry
    // artifact — sampling and progress reporting on, never measured.
    let (report, _) = run_chain_instrumented(stream(chain_n, 4, 1), 64);
    eprintln!("telemetry (filter_map chain @ batch_size=64, instrumented run):");
    for n in &report.nodes {
        eprintln!(
            "  {:>8}: proc p99 ≤ {} ns (n={}), wm lag peak {} ms, \
             inbox peak {}, backpressure {:.2} ms",
            n.name,
            n.proc_latency.quantile_le_ns(0.99),
            n.proc_latency.count,
            n.watermark_lag_peak_ms,
            n.queue_depth_peak,
            n.backpressure_ns as f64 / 1e6,
        );
    }
    eprintln!(
        "  {} resource samples, {} log events ({} displaced)",
        report.samples.len(),
        report.events.len(),
        report.events_displaced
    );
    let mut f = std::fs::File::create(&telemetry_path).expect("create telemetry file");
    f.write_all(report.to_json().as_bytes())
        .expect("write telemetry file");
    f.write_all(b"\n").expect("write trailing newline");
    eprintln!("wrote {telemetry_path}");
}
