#!/usr/bin/env bash
# Regenerate BENCH_hotpath.json: absolute throughput of the runtime hot
# path swept over batch_size ∈ {1, 16, 64, 256}, plus the keyed-join sweep
# over key cardinality K ∈ {1, 4, 64, 1024} against the frozen global-scan
# baseline.
#
# Usage: scripts/bench_hotpath.sh [--quick] [--out PATH] [--telemetry PATH]
#                                 [--assert-keyed-floor] [--assert-columnar-floor]
#                                 [--assert-shard-floor] [--assert-multi-floor]
#                                 [--assert-batch-efficiency]
#   --quick          smaller event counts / fewer repetitions (CI smoke mode)
#   --out PATH       output file (default: BENCH_hotpath.json at the repo root)
#   --telemetry PATH runtime-telemetry export from one instrumented run
#                    (default: BENCH_hotpath_telemetry.json) — per-operator
#                    latency histograms, watermark-lag / queue-depth /
#                    backpressure gauges, resource samples, and the event
#                    log, printed as a summary block after the sweep
#   --assert-keyed-floor  exit nonzero if the key-partitioned window join at
#                    K=64, batch 64 falls below the global-scan baseline
#                    (the CI regression gate for the join state layout)
#   --assert-columnar-floor  exit nonzero if the filter→map chain at batch
#                    256 runs less than 4x the same chain at batch 1 in the
#                    same run (the CI gate for batch amortization on the
#                    columnar data plane)
#   --assert-shard-floor  exit nonzero if the adaptive multi-shard zipf
#                    join falls below 1.3x static hashing or 3x
#                    single-instance. The worker count auto-sizes to the
#                    host — cores clamped to [2, 8], recorded in the JSON
#                    as `shard_workers` — and the floor is asserted only
#                    on hosts with >= 4 cores; skipped with a loud notice
#                    otherwise, since shard workers time-slicing fewer
#                    cores measure contention, not scaling (the JSON
#                    records the host's `cores`)
#   --assert-multi-floor  exit nonzero if the shared-subplan DAG over 1000
#                    overlapping pattern variants (`multi_patterns`) falls
#                    below 3x the isolated per-pattern pipelines on the
#                    same workload (the CI gate for the multi-query
#                    optimizer; best-of-3 interleaved walls per arm)
#   --assert-batch-efficiency  exit nonzero if hash_fanout_x4, window_join
#                    or interval_join at batch 256 realizes less than 0.95
#                    of the configured batch at the source (the CI gate
#                    for in-band watermark marks: punctuation must not
#                    split batches)
#
# Headline numbers: speedup_filter_map_64_vs_1 (micro-batching acceptance
# floor 2x), speedup_window_join_keyed_k64_vs_global_scan (key-partitioned
# state target 3x), speedup_filter_map_256_vs_1 (batch amortization
# floor 4x), and speedup_shard_adaptive_vs_{static,single}
# (adaptive sharding targets 1.3x / 3x on >= 4 cores), and
# speedup_multi_shared_vs_isolated (shared-subplan optimizer target 3x at
# 1000 overlapping variants). Relative,
# statistically sampled numbers live in the criterion suite:
# cargo bench -p bench --bench hotpath
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --offline --release -p bench --bin hotpath
exec ./target/release/hotpath "$@"
