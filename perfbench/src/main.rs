//! End-to-end CEP benchmark.
//!
//! ```text
//! perfbench --workload <keyed_seq7|iter4_paced|multi_share> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Generates the workload's input from the seed, computes the references
//! outside the timed region, then repeats the workload's arms until
//! `--seconds` have passed: the FCEP arm, the closed-loop FASP arm and the
//! two paced FASP phases. Every run's output is checked against its
//! reference. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for what each metric means.

mod jobs;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use asp::runtime::RunReport;

use jobs::{Input, Job, BATCH_SIZE, GEN_LAG_BOUND};
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <keyed_seq7|iter4_paced|multi_share> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut out) =
            (None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value for --trace: {value}")),
                    })
                }
                "--out" => out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !jobs::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            out,
        })
    }
}

/// Operations attempted and failed, with the reason of each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn op<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("FAILED {what}: {e}");
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Per-repetition observations, by metric name.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }

    fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Reference match counts per pattern index (`None`: not referenced).
type Counts = Vec<Option<u64>>;

fn as_counts(patterns: usize, got: &[(usize, u64)]) -> Counts {
    let mut c = vec![None; patterns];
    for &(i, n) in got {
        c[i] = Some(n);
    }
    c
}

fn check_counts(got: &[(usize, u64)], reference: &Counts) -> Result<(), String> {
    for &(i, n) in got {
        match reference.get(i).copied().flatten() {
            Some(want) if want != n => {
                return Err(format!("pattern {i}: {n} matches, reference {want}"))
            }
            _ => {}
        }
    }
    Ok(())
}

fn late_dropped(report: &RunReport) -> u64 {
    report.nodes.iter().map(|n| n.late_dropped).sum()
}

/// Stateful operator nodes (joins, aggregates): neither source nor sink,
/// and holding state at some point of the run.
fn is_stateful_operator(n: &asp::runtime::NodeStats) -> bool {
    !jobs::is_source_or_sink(&n.name) && n.peak_state_bytes > 0
}

/// Tuples per channel message over all of a run's edges: tuples received
/// by every non-source node over messages sent by every node. (A source's
/// own `records_out` counts the events it ingested, before the filter
/// chained into it, so it cannot stand in for the tuples it sent.)
fn avg_batch(report: &RunReport) -> f64 {
    let delivered: u64 = report
        .nodes
        .iter()
        .filter(|n| !n.name.starts_with("src:"))
        .map(|n| n.records_in)
        .sum();
    let batches: u64 = report.nodes.iter().map(|n| n.batches_out).sum();
    if batches == 0 {
        0.0
    } else {
        delivered as f64 / batches as f64
    }
}

/// Counters of one FASP run, read from `RunReport` / `NodeStats`.
fn run_counters(report: &RunReport) -> Vec<(&'static str, f64)> {
    let nodes = &report.nodes;
    let batches: u64 = nodes.iter().map(|n| n.batches_out).sum();
    let avg_batch = avg_batch(report);
    let ops: Vec<_> = nodes.iter().filter(|n| is_stateful_operator(n)).collect();
    let proc_count: u64 = ops.iter().map(|n| n.proc_latency.count).sum();
    let proc_sum: u64 = ops.iter().map(|n| n.proc_latency.sum_ns).sum();
    vec![
        ("asp.runtime.batches_out", batches as f64),
        ("asp.runtime.avg_batch", avg_batch),
        (
            "asp.runtime.batch_efficiency",
            avg_batch / BATCH_SIZE as f64,
        ),
        (
            "asp.runtime.backpressure_ms",
            nodes.iter().map(|n| n.backpressure_ns).sum::<u64>() as f64 / 1e6,
        ),
        (
            "asp.runtime.queue_depth_peak",
            nodes.iter().map(|n| n.queue_depth_peak).max().unwrap_or(0) as f64,
        ),
        (
            "asp.runtime.watermark_lag_peak_ms",
            nodes
                .iter()
                .map(|n| n.watermark_lag_peak_ms)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("asp.runtime.late_dropped", late_dropped(report) as f64),
        (
            "asp.operator.records_in",
            ops.iter().map(|n| n.records_in).sum::<u64>() as f64,
        ),
        (
            "asp.operator.records_out",
            ops.iter().map(|n| n.records_out).sum::<u64>() as f64,
        ),
        (
            "asp.operator.proc_latency_mean_us",
            if proc_count == 0 {
                0.0
            } else {
                proc_sum as f64 / proc_count as f64 / 1e3
            },
        ),
        (
            "asp.operator.peak_state_bytes",
            ops.iter().map(|n| n.peak_state_bytes).sum::<usize>() as f64,
        ),
        (
            "asp.operator.keyed_max_run",
            ops.iter().map(|n| n.keyed_max_run).max().unwrap_or(0) as f64,
        ),
    ]
}

/// Detection latency of a paced run: p50 and p99 of each sink, then the
/// median over the job's patterns (one pattern: its own figures).
fn latency(report: &RunReport, sinks: &[asp::graph::SinkId]) -> (f64, f64, usize) {
    let stats: Vec<_> = sinks
        .iter()
        .map(|s| report.latency(*s))
        .filter(|l| l.samples > 0)
        .collect();
    let p50: Vec<f64> = stats.iter().map(|l| l.p50_ms).collect();
    let p99: Vec<f64> = stats.iter().map(|l| l.p99_ms).collect();
    (
        median(&p50),
        median(&p99),
        stats.iter().map(|l| l.samples).sum(),
    )
}

struct Bench<'a> {
    job: &'a Job,
    tr: Tracer,
    tally: Tally,
    samples: Samples,
    /// Counters of the latest run of each arm.
    counters: BTreeMap<String, f64>,
    refs: BTreeMap<&'static str, Counts>,
}

impl Bench<'_> {
    /// Reference counts for `input`, outside the timed region: the
    /// share-off arm for a multi-pattern job, FCEP otherwise.
    fn reference(&mut self, input: &Input) {
        let job = self.job;
        let counts = self.tr.span("bench.reference", |tr| {
            if input.catalog.is_some() {
                job.isolated_counts(input, tr)
                    .map(|c| c.into_iter().map(Some).collect())
            } else {
                job.run_fcep(input, tr)
                    .map(|run| as_counts(job.patterns(), &run.counts))
            }
        });
        if let Some(c) = self.tally.op(&format!("reference {}", input.label), counts) {
            self.refs.insert(input.label, c);
        }
    }

    fn fcep_arm(&mut self) {
        let job = self.job;
        let refs = &mut self.refs;
        let r = self.tr.span("arm.fcep", |tr| {
            let run = job.run_fcep(&job.closed, tr)?;
            tr.span("check", |_| {
                if run.late_dropped > 0 {
                    return Err(format!("{} late events dropped", run.late_dropped));
                }
                match refs.get("closed") {
                    Some(r) => check_counts(&run.counts, r),
                    None => {
                        // Single-pattern jobs: the timed FCEP arm is the
                        // reference of the closed-loop FASP arm.
                        refs.insert("closed", as_counts(job.patterns(), &run.counts));
                        Ok(())
                    }
                }
            })?;
            Ok(run)
        });
        if let Some(run) = self.tally.op("fcep", r) {
            let s = &mut self.samples;
            s.push(
                "fcep_throughput_eps",
                job.closed.distinct as f64 / run.wall.as_secs_f64(),
            );
            s.push("cep.run_s", run.wall.as_secs_f64());
            self.counters.insert(
                "cep.peak_state_mib".into(),
                run.peak_state_bytes as f64 / 1048576.0,
            );
            self.counters
                .insert("cep.records_in".into(), run.records_in as f64);
        }
    }

    /// Setup plus one run of the FASP job over `input`; checks the output.
    fn fasp(
        job: &Job,
        refs: &BTreeMap<&'static str, Counts>,
        input: &Input,
        rate: Option<f64>,
        tr: &mut Tracer,
    ) -> Result<(jobs::Built, RunReport), String> {
        let (graph, built) = job.setup(input, rate.map(|r| input.source_rate(r)), tr)?;
        let report = job.run(graph, if rate.is_some() { 1 } else { 16 }, tr)?;
        tr.span("check", |_| {
            let got: Vec<(usize, u64)> = built
                .sinks
                .iter()
                .map(|s| report.sink_count(*s))
                .enumerate()
                .collect();
            check_counts(&got, refs.get(input.label).ok_or("no reference")?)?;
            let late = late_dropped(&report);
            if late > 0 {
                return Err(format!("{late} late events dropped"));
            }
            match built.expected_source_events {
                Some(e) if e != report.source_events => Err(format!(
                    "source events {} != ShareReport::expected_source_events {e}",
                    report.source_events
                )),
                _ => Ok(()),
            }
        })?;
        Ok((built, report))
    }

    fn closed_arm(&mut self, traced: bool) {
        let (job, refs) = (self.job, &self.refs);
        let r = self.tr.span("arm.fasp", |tr| {
            Self::fasp(job, refs, &job.closed, None, tr)
        });
        let Some((built, report)) = self.tally.op("fasp closed", r) else {
            return;
        };
        let s = &mut self.samples;
        let eps = job.closed.distinct as f64 / report.duration.as_secs_f64();
        s.push("throughput_eps", eps);
        s.push(if traced { "eps.traced" } else { "eps.untraced" }, eps);
        s.push("setup_s", built.times.total().as_secs_f64());
        s.push("sea.parse_ms", built.times.parse.as_secs_f64() * 1e3);
        s.push(
            "cep2asp.translate_ms",
            built.times.translate.as_secs_f64() * 1e3,
        );
        s.push(
            "cep2asp.typecheck_ms",
            built.times.typecheck.as_secs_f64() * 1e3,
        );
        s.push("cep2asp.lower_ms", built.times.lower.as_secs_f64() * 1e3);
        s.push("asp.runtime.run_s", report.duration.as_secs_f64());
        // More set-ups than runs: set-up time is short and its median
        // needs the samples.
        for _ in 0..EXTRA_SETUPS {
            let r = job
                .setup(&job.closed, None, &mut self.tr)
                .map(|(_, b)| b.times);
            if let Some(t) = self.tally.op("setup", r) {
                self.samples.push("setup_s", t.total().as_secs_f64());
            }
        }
        let c = &mut self.counters;
        c.insert("cep2asp.plan_nodes".into(), built.plan_nodes as f64);
        c.insert("cep2asp.share.nodes_saved".into(), built.nodes_saved as f64);
        c.insert("cep2asp.share.scans_saved".into(), built.scans_saved as f64);
        c.insert("asp.graph_nodes".into(), built.graph_nodes as f64);
        for (k, v) in run_counters(&report) {
            c.insert(k.into(), v);
        }
    }

    fn paced_arm(&mut self, phase: jobs::Phase, input: &Input) {
        let (job, refs) = (self.job, &self.refs);
        let r = self.tr.span("arm.paced", |tr| {
            let (built, report) = Self::fasp(job, refs, input, Some(phase.rate), tr)?;
            let scheduled = input.distinct as f64 / phase.rate;
            let lag = report.duration.as_secs_f64() - scheduled;
            let (p50, p99, n) = latency(&report, &built.sinks);
            let avg_batch = avg_batch(&report);
            if n == 0 {
                return Err("no latency samples".to_string());
            }
            if lag > GEN_LAG_BOUND * scheduled {
                // The source could not keep the schedule: the phase's
                // latency misses the limit and the phase counts as failed.
                return Err(format!(
                    "generator fell behind by {:.1} ms of a {:.0} ms schedule",
                    lag * 1e3,
                    scheduled * 1e3
                ));
            }
            Ok((p50, p99, n, lag, avg_batch))
        });
        let l = phase.label;
        if let Some((p50, p99, n, lag, avg_batch)) = self.tally.op(&format!("paced {l}"), r) {
            let s = &mut self.samples;
            s.push(format!("latency_p50_ms.{l}"), p50);
            s.push(format!("latency_p99_ms.{l}"), p99);
            s.push(format!("latency_samples.{l}"), n as f64);
            s.push(format!("workloads.gen_lag_ms.{l}"), lag * 1e3);
            s.push(format!("asp.runtime.paced_avg_batch.{l}"), avg_batch);
        }
    }
}

/// Closed-loop FASP runs per round: they are short, and their median
/// needs more samples than the FCEP arm's.
const CLOSED_REPS: usize = 3;
/// Set-ups per closed-loop run besides its own.
const EXTRA_SETUPS: usize = 2;

/// End-to-end metrics: (name, unit).
const END_TO_END: [(&str, &str); 7] = [
    ("throughput_eps", "events/s"),
    ("fcep_throughput_eps", "events/s"),
    ("setup_s", "s"),
    ("latency_p50_ms.lo", "ms"),
    ("latency_p99_ms.lo", "ms"),
    ("latency_p50_ms.hi", "ms"),
    ("latency_p99_ms.hi", "ms"),
];

/// Per-layer metrics reported as medians over repetitions: (name, unit).
const PER_LAYER_MEDIANS: [(&str, &str); 12] = [
    ("sea.parse_ms", "ms"),
    ("cep2asp.translate_ms", "ms"),
    ("cep2asp.typecheck_ms", "ms"),
    ("cep2asp.lower_ms", "ms"),
    ("asp.runtime.run_s", "s"),
    ("asp.runtime.paced_avg_batch.lo", "tuples"),
    ("asp.runtime.paced_avg_batch.hi", "tuples"),
    ("cep.run_s", "s"),
    ("workloads.gen_lag_ms.lo", "ms"),
    ("workloads.gen_lag_ms.hi", "ms"),
    ("latency_samples.lo", "count"),
    ("latency_samples.hi", "count"),
];

/// Per-layer counters of the latest run of each arm: (name, unit).
const PER_LAYER_COUNTERS: [(&str, &str); 19] = [
    ("cep2asp.plan_nodes", "count"),
    ("cep2asp.share.nodes_saved", "count"),
    ("cep2asp.share.scans_saved", "count"),
    ("asp.graph_nodes", "count"),
    ("asp.runtime.batches_out", "count"),
    ("asp.runtime.avg_batch", "tuples"),
    ("asp.runtime.batch_efficiency", "ratio"),
    ("asp.runtime.backpressure_ms", "ms"),
    ("asp.runtime.queue_depth_peak", "count"),
    ("asp.runtime.watermark_lag_peak_ms", "ms"),
    ("asp.runtime.late_dropped", "count"),
    ("asp.operator.records_in", "count"),
    ("asp.operator.records_out", "count"),
    ("asp.operator.proc_latency_mean_us", "us"),
    ("asp.operator.peak_state_bytes", "bytes"),
    ("asp.operator.keyed_max_run", "count"),
    ("cep.peak_state_mib", "MiB"),
    ("cep.records_in", "count"),
    ("workloads.gen_s", "s"),
];

/// Layers of the self-time table, in pipeline order.
const LAYERS: [&str; 7] = [
    "workloads",
    "sea",
    "cep2asp",
    "asp",
    "cep",
    "check",
    "bench",
];

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", finite(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_id = u64::from(std::process::id()) << 32 ^ args.seed;
    let mut tr = Tracer::new(args.trace, run_id);

    let prepare = tr.begin("bench.prepare");
    let t = Instant::now();
    let (job, phase_inputs) = tr.span("workloads.gen", |_| {
        let job = jobs::build(&args.workload, args.seed).expect("workload name was validated");
        let phase_inputs: Vec<Input> = job
            .phases
            .iter()
            .map(|p| job.closed.prefix(p.label, (p.rate * p.seconds) as u64))
            .collect();
        (job, phase_inputs)
    });
    let gen_s = t.elapsed().as_secs_f64();

    let mut b = Bench {
        job: &job,
        tr,
        tally: Tally::default(),
        samples: Samples::default(),
        counters: BTreeMap::new(),
        refs: BTreeMap::new(),
    };
    b.counters.insert("workloads.gen_s".into(), gen_s);
    if job.closed.catalog.is_some() {
        b.reference(&job.closed);
    }
    for input in &phase_inputs {
        b.reference(input);
    }
    b.tr.end(prepare);

    // The measured loop: whole rounds of every arm until time is up. The
    // traced run interleaves traced and untraced rounds (T U U T T U …, so
    // that a steady drift of the host's speed cancels), and the difference
    // of their throughput medians gives the tracing overhead.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut round = 0usize;
    while round == 0 || Instant::now() < deadline {
        let traced = args.trace && matches!(round % 4, 0 | 3);
        b.tr.set_enabled(traced);
        let span = b.tr.begin("bench.round");
        b.fcep_arm();
        for _ in 0..CLOSED_REPS {
            b.closed_arm(traced);
        }
        for (phase, input) in job.phases.iter().zip(&phase_inputs) {
            b.paced_arm(*phase, input);
        }
        b.tr.end(span);
        round += 1;
    }
    b.tr.set_enabled(args.trace);
    let measured_s = start.elapsed().as_secs_f64();

    // End-to-end summary.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench {} seed={} seconds={} trace={} rounds={round} measured={measured_s:.1}s nproc={nproc}",
        job.name, args.seed, args.seconds, args.trace as u8
    );
    let _ = writeln!(
        text,
        "  input: {} distinct events; phases: {}",
        job.closed.distinct,
        job.phases
            .iter()
            .zip(&phase_inputs)
            .map(|(p, i)| format!("{} = {} events at {} events/s", p.label, i.distinct, p.rate))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let s = &b.samples;
    let e2e: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), s.median(n), *u))
        .collect();
    for (n, v, u) in &e2e {
        let extra = match n.rsplit_once('.') {
            Some((_, l)) if n.starts_with("latency") => {
                format!(
                    ", {:.0} samples/phase",
                    s.median(&format!("latency_samples.{l}"))
                )
            }
            _ => String::new(),
        };
        let _ = writeln!(
            text,
            "  {n:<22} {v:>14.4} {u:<9} (median of {}{extra})",
            s.count(n)
        );
    }
    let failed = b.tally.failures.len() as u64;
    let _ = writeln!(text, "  ops {} ops_failed {failed}", b.tally.attempted);

    // Per-layer view.
    let mut layer: Vec<(String, f64, &str)> = PER_LAYER_MEDIANS
        .iter()
        .map(|(n, u)| (n.to_string(), s.median(n), *u))
        .collect();
    layer.extend(PER_LAYER_COUNTERS.iter().map(|(n, u)| {
        (
            n.to_string(),
            b.counters.get(*n).copied().unwrap_or(0.0),
            *u,
        )
    }));
    let by_layer = b.tr.self_by_layer();
    let wall_ns = b.tr.root_ns().max(1);
    for l in LAYERS {
        layer.push((
            format!("self_s.{l}"),
            *by_layer.get(l).unwrap_or(&0) as f64 / 1e9,
            "s",
        ));
    }
    let (traced, untraced) = (s.median("eps.traced"), s.median("eps.untraced"));
    let overhead_pct = (untraced - traced) / untraced * 100.0;
    layer.push(("trace.wall_s".into(), wall_ns as f64 / 1e9, "s"));
    layer.push((
        "trace.harness_pct".into(),
        *by_layer.get("bench").unwrap_or(&0) as f64 / wall_ns as f64 * 100.0,
        "%",
    ));
    layer.push(("trace.overhead_pct".into(), overhead_pct, "%"));
    if args.trace {
        let _ = writeln!(
            text,
            "  per-layer self time (traced rounds, prepare and references):"
        );
        for l in LAYERS {
            let ns = *by_layer.get(l).unwrap_or(&0);
            let _ = writeln!(
                text,
                "    {l:<10} {:>9.3} s {:>6.1} %",
                ns as f64 / 1e9,
                ns as f64 / wall_ns as f64 * 100.0
            );
        }
        let _ = writeln!(
            text,
            "    traced wall {:.3} s; tracing overhead {overhead_pct:.2} % (throughput_eps traced {traced:.0} vs untraced {untraced:.0} events/s)",
            wall_ns as f64 / 1e9
        );
        for (n, v, u) in &layer {
            let _ = writeln!(text, "  {n:<36} {v:>14.4} {u}");
        }
    }
    for f in &b.tally.failures {
        let _ = writeln!(text, "  failure: {f}");
    }
    print!("{text}");

    let metrics = if args.trace { &layer } else { &e2e };
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        b.tally.attempted,
        json_metrics(metrics)
    );
    if let Some(dir) = &args.out {
        if let Err(e) = write_outputs(dir, &args, &job, &b, &e2e, &layer, &result, nproc) {
            eprintln!("perfbench: cannot write results to {}: {e}", dir.display());
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}

/// The run's record: environment, parameters, every sample and, for the
/// traced run, the spans.
#[allow(clippy::too_many_arguments)]
fn write_outputs(
    dir: &std::path::Path,
    args: &Args,
    job: &Job,
    b: &Bench,
    e2e: &[(String, f64, &str)],
    layer: &[(String, f64, &str)],
    result: &str,
    nproc: usize,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let stem = format!("{}-seed{}-trace{}", job.name, args.seed, args.trace as u8);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": \"{}\",", job.name);
    let _ = writeln!(
        out,
        "  \"env\": {{\"nproc\": {nproc}, \"commit\": \"{}\", \"source_digest\": \"{}\", \"rustc\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}},",
        env("PERFBENCH_COMMIT"),
        env("PERFBENCH_SOURCE_DIGEST"),
        env("PERFBENCH_RUSTC"),
        args.seed,
        args.seconds,
        args.trace
    );
    let params: Vec<String> = job
        .params
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .chain(job.phases.iter().map(|p| {
            format!(
                "\"rate_{}\": \"{} events/s for {} s\"",
                p.label, p.rate, p.seconds
            )
        }))
        .collect();
    let _ = writeln!(out, "  \"params\": {{{}}},", params.join(", "));
    let _ = writeln!(out, "  \"end_to_end\": {},", json_metrics(e2e));
    let _ = writeln!(out, "  \"per_layer\": {},", json_metrics(layer));
    let samples: Vec<String> = b
        .samples
        .0
        .iter()
        .map(|(k, v)| {
            let vs: Vec<String> = v.iter().map(|x| finite(*x).to_string()).collect();
            format!("\"{k}\": [{}]", vs.join(", "))
        })
        .collect();
    let _ = writeln!(out, "  \"samples\": {{{}}},", samples.join(", "));
    let failures: Vec<String> = b
        .tally
        .failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    let _ = writeln!(out, "  \"failures\": [{}],", failures.join(", "));
    let _ = writeln!(out, "  \"result\": {result}\n}}");
    std::fs::write(dir.join(format!("{stem}.json")), out)?;
    if args.trace {
        std::fs::write(
            dir.join(format!("{stem}-spans.json")),
            b.tr.to_json(job.name),
        )?;
    }
    Ok(())
}
