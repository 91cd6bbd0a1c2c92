//! The three workloads and the calls they make into each layer.
//!
//! Every FASP arm goes through the public entry points in order:
//! `sea::parser::parse` → `cep2asp::translate` → `cep2asp::typecheck` →
//! `cep2asp::build_pipeline` / `build_multi_pipeline` →
//! `asp::runtime::Executor::run`. The FCEP arm goes through
//! `cep::build_baseline` → `Executor::run`. Configurations are spelled
//! out field by field so that environment overrides (`ASP_DATA_PLANE`,
//! `ASP_SHARDS`) cannot change what is measured.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use asp::event::{Event, EventType, TypeRegistry};
use asp::graph::{GraphBuilder, SinkId};
use asp::runtime::{Executor, ExecutorConfig, RunReport};
use asp::time::{Timestamp, MINUTE_MS};
use cep2asp::{
    build_multi_pipeline, build_pipeline, share_summary, shared_catalog, translate, typecheck,
    LogicalPlan, MapperOptions, PhysicalConfig, SourceCatalog,
};
use sea::pattern::{Pattern, PatternExpr};
use workloads::{generate_aq, generate_qnv, AqConfig, QnvConfig, ValueModel, PM10, Q, V};

use crate::trace::Tracer;

/// Micro-batch size every run uses (the runtime's default, pinned).
pub const BATCH_SIZE: usize = 64;
/// Sensor keys of the keyed Fig. 4 workloads.
pub const KEYS: u32 = 128;
/// A paced phase fails when its source fell behind the schedule by more
/// than this share of the scheduled duration (the latency metrics' bound).
pub const GEN_LAG_BOUND: f64 = 0.25;

/// `keyed_seq7`: minutes of QnV + AQ data (128 keys, ≈ 2.25M events read).
const SEQ7_MINUTES: i64 = 7_812;
/// `keyed_seq7`: filter pass rate of SEQ7(3) (σₒ ≈ 1 %, as in Fig. 4).
const SEQ7_PASS: f64 = 0.1;
/// `iter4_paced`: minutes of V data (128 keys, 2M events).
const ITER4_MINUTES: i64 = 15_625;
/// `iter4_paced`: filter pass rate of ITER⁴₄(1), giving ≥ 1,000 matches in
/// each paced phase.
const ITER4_PASS: f64 = 0.015;
/// `multi_share`: pattern variants of `bench::multi::variant_catalog`.
pub const MULTI_VARIANTS: usize = 250;
/// `multi_share`: readings per minute per stream, and stream length.
const MULTI_SENSORS: u32 = 4;
const MULTI_MINUTES: i64 = 2_000;
/// `multi_share`: the four equal-density input streams.
const MULTI_TYPES: u16 = 4;

/// How the FASP arm's patterns enter the planner.
pub enum Front {
    /// PSL text, parsed by `sea::parser::parse` at every setup.
    Text(Vec<String>),
    /// A `bench::patterns` builder: ITER⁴₄(1) has no PSL form yet (the
    /// grammar cannot name ITER positions), so this setup has no parse step.
    Builder(Box<Pattern>),
}

/// One paced phase of the open loop.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Metric suffix: `lo` or `hi`.
    pub label: &'static str,
    /// Distinct input events per second the sources are paced to.
    pub rate: f64,
    /// Scheduled length of the phase, seconds.
    pub seconds: f64,
}

/// A workload: its generated input, its patterns, and how they run.
pub struct Job {
    pub name: &'static str,
    pub front: Front,
    /// Patterns the FCEP arm runs, with their index in the FASP job. The
    /// NFA has no conjunction (Table 2), so `multi_share`'s AND variants
    /// have no FCEP counterpart.
    pub fcep: Vec<(usize, Pattern)>,
    pub opts: MapperOptions,
    /// Task slots of keyed operators (FASP O3 and keyed FCEP).
    pub parallelism: usize,
    pub channel_capacity: usize,
    pub phases: [Phase; 2],
    pub closed: Input,
    /// Workload parameters recorded with the results.
    pub params: Vec<(&'static str, String)>,
}

/// Generated per-type streams plus what the metrics need to know of them.
pub struct Input {
    pub label: &'static str,
    pub streams: HashMap<EventType, Vec<Event>>,
    /// The same streams `Arc`ed once, for the multi-pattern build.
    pub catalog: Option<SourceCatalog>,
    /// Distinct input events (a stream read by several scans counts once).
    pub distinct: u64,
    /// Length of the longest stream.
    pub max_stream: u64,
}

impl Input {
    fn new(label: &'static str, streams: HashMap<EventType, Vec<Event>>, multi: bool) -> Self {
        let distinct = streams.values().map(|v| v.len() as u64).sum();
        let max_stream = streams.values().map(|v| v.len() as u64).max().unwrap_or(0);
        let catalog = multi.then(|| shared_catalog(&streams));
        Input {
            label,
            streams,
            catalog,
            distinct,
            max_stream,
        }
    }

    /// The events of every stream before the event-time cut that keeps
    /// about `target` events in total.
    pub fn prefix(&self, label: &'static str, target: u64) -> Input {
        let lo = self
            .streams
            .values()
            .filter_map(|v| v.first())
            .map(|e| e.ts.millis())
            .min();
        let hi = self
            .streams
            .values()
            .filter_map(|v| v.last())
            .map(|e| e.ts.millis())
            .max();
        let (lo, hi) = (lo.unwrap_or(0), hi.unwrap_or(0));
        let frac = (target as f64 / self.distinct.max(1) as f64).min(1.0);
        let cut = Timestamp(lo + ((hi - lo) as f64 * frac) as i64 + 1);
        let streams = self
            .streams
            .iter()
            .map(|(t, v)| (*t, v[..v.partition_point(|e| e.ts < cut)].to_vec()))
            .collect();
        Input::new(label, streams, self.catalog.is_some())
    }

    /// Per-source pacing that feeds `rate` distinct events per second:
    /// each source replays its stream at `rate × (its share of the
    /// longest stream)`, so equal-density streams stay aligned in event
    /// time and a stream read by several scans still counts once.
    pub fn source_rate(&self, rate: f64) -> f64 {
        rate * self.max_stream as f64 / self.distinct.max(1) as f64
    }
}

/// Wall time of each planner step of one setup.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub parse: Duration,
    pub translate: Duration,
    pub typecheck: Duration,
    pub lower: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.parse + self.translate + self.typecheck + self.lower
    }
}

/// What the planner reported while building a runnable graph.
pub struct Built {
    pub sinks: Vec<SinkId>,
    pub times: SetupTimes,
    /// `ShareReport::expected_source_events` of a multi-pattern build.
    pub expected_source_events: Option<u64>,
    pub plan_nodes: usize,
    pub nodes_saved: usize,
    pub scans_saved: usize,
    pub graph_nodes: usize,
}

/// The FCEP arm's result over one input.
pub struct FcepRun {
    /// Match count per FASP pattern index.
    pub counts: Vec<(usize, u64)>,
    /// Summed `Executor::run` wall time (one job per pattern: the NFA
    /// baseline has no multi-query sharing).
    pub wall: Duration,
    pub records_in: u64,
    pub peak_state_bytes: usize,
    pub late_dropped: u64,
}

impl Job {
    /// Every field is set here; the struct update only gives fields that a
    /// later version of the program adds their defaults.
    pub fn phys(&self, source_rate: Option<f64>) -> PhysicalConfig {
        #[allow(clippy::needless_update)]
        PhysicalConfig {
            parallelism: self.parallelism,
            shards: None,
            memory_limit: None,
            source_rate,
            watermark_every: 256,
            watermark_lag: asp::time::Duration::ZERO,
            collect_output: false,
            dedup_output: false,
            schema_conformance: false,
            ..PhysicalConfig::default()
        }
    }

    /// As [`Job::phys`]: every field set, env-derived ones included.
    pub fn exec(&self, latency_stride: usize) -> ExecutorConfig {
        #[allow(clippy::needless_update)]
        ExecutorConfig {
            channel_capacity: self.channel_capacity,
            sample_interval: None,
            latency_stride,
            operator_chaining: true,
            drop_late: true,
            batch_size: BATCH_SIZE,
            idle_flush: Duration::from_millis(5),
            proc_latency_every: 32,
            progress_interval: None,
            event_log_capacity: 256,
            columnar: true,
            shards: None,
            rebalance_interval: None,
            env_errors: Vec::new(),
            ..ExecutorConfig::default()
        }
    }

    /// Number of patterns in the FASP job.
    pub fn patterns(&self) -> usize {
        match &self.front {
            Front::Text(texts) => texts.len(),
            Front::Builder(_) => 1,
        }
    }

    /// Pattern → checked logical plans: parse, translate, typecheck.
    fn plans(&self, times: &mut SetupTimes, tr: &mut Tracer) -> Result<Vec<LogicalPlan>, String> {
        let t = Instant::now();
        let patterns = match &self.front {
            Front::Text(texts) => tr.span("sea.parse", |_| {
                let mut reg = workloads::registry();
                texts
                    .iter()
                    .map(|s| sea::parser::parse(s, &mut reg).map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()
            })?,
            Front::Builder(p) => vec![(**p).clone()],
        };
        if matches!(self.front, Front::Text(_)) {
            times.parse = t.elapsed();
        }
        let t = Instant::now();
        let plans = tr.span("cep2asp.translate", |_| {
            patterns
                .iter()
                .map(|p| translate(p, &self.opts).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()
        })?;
        times.translate = t.elapsed();
        let t = Instant::now();
        tr.span("cep2asp.typecheck", |_| {
            plans.iter().try_for_each(|p| {
                let tc = typecheck(p);
                if tc.is_clean() {
                    Ok(())
                } else {
                    Err(format!("typecheck: {:?}", tc.diagnostics))
                }
            })
        })?;
        times.typecheck = t.elapsed();
        Ok(plans)
    }

    /// Pattern → runnable graph: parse, translate, typecheck, lower.
    pub fn setup(
        &self,
        input: &Input,
        source_rate: Option<f64>,
        tr: &mut Tracer,
    ) -> Result<(GraphBuilder, Built), String> {
        let mut times = SetupTimes::default();
        let plans = self.plans(&mut times, tr)?;
        let named = named(&plans);
        let named: Vec<(&str, &LogicalPlan)> =
            named.iter().map(|(n, p)| (n.as_str(), *p)).collect();
        let phys = self.phys(source_rate);
        let t = Instant::now();
        let lowered = tr.span("cep2asp.lower", |_| match &input.catalog {
            Some(catalog) => build_multi_pipeline(&named, catalog, &phys, true)
                .map(|b| (b.graph, b.sinks, Some(b.share))),
            None => {
                build_pipeline(&plans[0], &input.streams, &phys).map(|(g, s)| (g, vec![s], None))
            }
        });
        times.lower = t.elapsed();
        let (graph, sinks, share) = lowered.map_err(|e| e.to_string())?;
        let plan_nodes = share_summary(named.iter().copied()).nodes_total;
        let built = Built {
            graph_nodes: graph.node_count(),
            sinks,
            times,
            expected_source_events: share.as_ref().map(|s| s.expected_source_events),
            plan_nodes,
            nodes_saved: share.as_ref().map_or(0, |s| s.nodes_saved()),
            scans_saved: share.as_ref().map_or(0, |s| s.scans_saved()),
        };
        Ok((graph, built))
    }

    /// Execute a built graph.
    pub fn run(
        &self,
        graph: GraphBuilder,
        latency_stride: usize,
        tr: &mut Tracer,
    ) -> Result<RunReport, String> {
        let exec = self.exec(latency_stride);
        tr.span("asp.run", |_| Executor::new(exec).run(graph))
            .map_err(|e| e.to_string())
    }

    /// The share-off arm over `input`: every pattern lowered as its own
    /// pipeline (the multi-pattern reference). Returns per-pattern counts.
    pub fn isolated_counts(&self, input: &Input, tr: &mut Tracer) -> Result<Vec<u64>, String> {
        let catalog = input
            .catalog
            .as_ref()
            .ok_or("isolated arm needs a catalog")?;
        let plans = self.plans(&mut SetupTimes::default(), tr)?;
        let named = named(&plans);
        let named: Vec<(&str, &LogicalPlan)> =
            named.iter().map(|(n, p)| (n.as_str(), *p)).collect();
        let built = tr
            .span("cep2asp.lower", |_| {
                build_multi_pipeline(&named, catalog, &self.phys(None), false)
            })
            .map_err(|e| e.to_string())?;
        let report = self.run(built.graph, 16, tr)?;
        Ok(built.sinks.iter().map(|s| report.sink_count(*s)).collect())
    }

    /// The FCEP arm over `input`.
    pub fn run_fcep(&self, input: &Input, tr: &mut Tracer) -> Result<FcepRun, String> {
        let cfg = cep::BaselineConfig {
            parallelism: self.parallelism,
            keyed: true,
            policy: cep::SelectionPolicy::SkipTillAnyMatch,
            after_match: cep::AfterMatchSkip::NoSkip,
            memory_limit: None,
            source_rate: None,
            watermark_every: 256,
            watermark_lag: asp::time::Duration::ZERO,
            collect_output: false,
        };
        let mut out = FcepRun {
            counts: Vec::with_capacity(self.fcep.len()),
            wall: Duration::ZERO,
            records_in: 0,
            peak_state_bytes: 0,
            late_dropped: 0,
        };
        for (idx, pattern) in &self.fcep {
            let (graph, sink) = tr
                .span("cep.build", |_| {
                    cep::build_baseline(pattern, &input.streams, &cfg)
                })
                .map_err(|e| format!("FCEP build: {e:?}"))?;
            let exec = self.exec(16);
            let report = tr
                .span("cep.run", |_| Executor::new(exec).run(graph))
                .map_err(|e| e.to_string())?;
            out.wall += report.duration;
            out.counts.push((*idx, report.sink_count(sink)));
            // Events into the NFA: the union in front of it passes every
            // event on, and chaining may fuse the two into one node.
            out.records_in += report
                .nodes
                .iter()
                .filter(|n| !is_source_or_sink(&n.name))
                .map(|n| n.records_in)
                .max()
                .unwrap_or(0);
            out.peak_state_bytes = out.peak_state_bytes.max(report.peak_state_bytes());
            out.late_dropped += report.nodes.iter().map(|n| n.late_dropped).sum::<u64>();
        }
        Ok(out)
    }
}

/// Plans labelled for the multi-pattern builder.
fn named(plans: &[LogicalPlan]) -> Vec<(String, &LogicalPlan)> {
    plans
        .iter()
        .enumerate()
        .map(|(i, p)| (format!("p{i}"), p))
        .collect()
}

/// Source and sink nodes, as the graph builders name them.
pub fn is_source_or_sink(name: &str) -> bool {
    name.starts_with("src:") || name.starts_with("sink")
}

/// Build a workload's job from the seed. Only the generated events reach
/// the program; the seed stays in the benchmark.
pub fn build(name: &str, seed: u64) -> Option<Job> {
    match name {
        "keyed_seq7" => Some(keyed_seq7(seed)),
        "iter4_paced" => Some(iter4_paced(seed)),
        "multi_share" => Some(multi_share(seed)),
        _ => None,
    }
}

pub const WORKLOADS: [&str; 3] = ["keyed_seq7", "iter4_paced", "multi_share"];

/// SEQ7(3) as PSL text: `SEQ(Q, V, PM10)` keyed by sensor id, every event
/// filtered at the same pass rate, window 15 minutes.
pub fn seq7_text(pass_rate: f64) -> String {
    let t = workloads::threshold_for_pass_rate(pass_rate);
    format!(
        "PATTERN SEQ(Q q, V v, PM10 p)\n\
         WHERE q.id == v.id AND v.id == p.id AND q.value <= {t} AND v.value <= {t} AND p.value <= {t}\n\
         WITHIN 15 MINUTES"
    )
}

/// The paced phases of the keyed workloads: 250k and 1M events/s, the
/// latter the highest rate the paced source keeps up with on two cores.
/// Each phase runs long enough to average over thousands of matches.
fn keyed_phases() -> [Phase; 2] {
    [
        Phase {
            label: "lo",
            rate: 250_000.0,
            seconds: 2.0,
        },
        Phase {
            label: "hi",
            rate: 1_000_000.0,
            seconds: 1.0,
        },
    ]
}

fn keyed_seq7(seed: u64) -> Job {
    let mut qnv = generate_qnv(&QnvConfig {
        sensors: KEYS,
        minutes: SEQ7_MINUTES,
        seed,
        value_model: ValueModel::Uniform,
    });
    let mut aq = generate_aq(&AqConfig {
        sensors: KEYS,
        minutes: SEQ7_MINUTES,
        seed,
        value_model: ValueModel::Uniform,
        id_offset: 0,
    });
    let take = |w: &mut workloads::Workload, t| (t, w.streams.remove(&t).unwrap_or_default());
    let streams = HashMap::from([take(&mut qnv, Q), take(&mut qnv, V), take(&mut aq, PM10)]);
    Job {
        name: "keyed_seq7",
        front: Front::Text(vec![seq7_text(SEQ7_PASS)]),
        fcep: vec![(0, bench::patterns::seq7(SEQ7_PASS, 15))],
        opts: MapperOptions::o1().and_o3(),
        parallelism: 2,
        channel_capacity: 1024,
        phases: keyed_phases(),
        closed: Input::new("closed", streams, false),
        params: vec![
            ("pattern", "SEQ7(3) FASP-O1+O3".into()),
            ("pattern_source", "psl".into()),
            ("keys", KEYS.to_string()),
            ("minutes", SEQ7_MINUTES.to_string()),
            ("pass_rate", SEQ7_PASS.to_string()),
        ],
    }
}

fn iter4_paced(seed: u64) -> Job {
    let mut qnv = generate_qnv(&QnvConfig {
        sensors: KEYS,
        minutes: ITER4_MINUTES,
        seed,
        value_model: ValueModel::Uniform,
    });
    let streams = HashMap::from([(V, qnv.streams.remove(&V).unwrap_or_default())]);
    let pattern = bench::patterns::iter4(ITER4_PASS, 90);
    Job {
        name: "iter4_paced",
        front: Front::Builder(Box::new(pattern.clone())),
        fcep: vec![(0, pattern)],
        opts: MapperOptions::o1().and_o3(),
        parallelism: 2,
        channel_capacity: 1024,
        phases: keyed_phases(),
        closed: Input::new("closed", streams, false),
        params: vec![
            ("pattern", "ITER4_4(1) FASP-O1+O3".into()),
            ("pattern_source", "builder".into()),
            ("keys", KEYS.to_string()),
            ("minutes", ITER4_MINUTES.to_string()),
            ("pass_rate", ITER4_PASS.to_string()),
        ],
    }
}

/// Render a catalog variant as PSL text over the workload type names.
pub fn variant_text(pattern: &Pattern, reg: &TypeRegistry) -> String {
    let mut p = pattern.clone();
    if let PatternExpr::Seq(parts) | PatternExpr::And(parts) = &mut p.expr {
        for part in parts {
            if let PatternExpr::Leaf(l) = part {
                if let Some(name) = reg.name(l.etype) {
                    l.type_name = name.to_string();
                }
            }
        }
    }
    sea::parser::to_psl(&p)
}

/// Four equal-density streams: `MULTI_SENSORS` readings per minute each,
/// values uniform in `[0, 100)` from a seeded LCG, ids round-robin.
fn multi_streams(seed: u64) -> HashMap<EventType, Vec<Event>> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5_DEEC_E66D;
    (0..MULTI_TYPES)
        .map(|t| {
            let mut stream = Vec::with_capacity((MULTI_MINUTES * MULTI_SENSORS as i64) as usize);
            for m in 0..MULTI_MINUTES {
                for s in 0..MULTI_SENSORS {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let value = (x >> 33) as f64 / (1u64 << 31) as f64 * 100.0;
                    stream.push(Event::new(EventType(t), s, Timestamp(m * MINUTE_MS), value));
                }
            }
            (EventType(t), stream)
        })
        .collect()
}

fn multi_share(seed: u64) -> Job {
    let reg = workloads::registry();
    let catalog = bench::multi::variant_catalog(MULTI_VARIANTS);
    let texts = catalog
        .iter()
        .map(|j| variant_text(&j.pattern, &reg))
        .collect();
    let fcep = catalog
        .iter()
        .enumerate()
        .filter(|(_, j)| matches!(j.pattern.expr, PatternExpr::Seq(_)))
        .map(|(i, j)| (i, j.pattern.clone()))
        .collect();
    Job {
        name: "multi_share",
        front: Front::Text(texts),
        fcep,
        opts: MapperOptions::o1(),
        parallelism: 1,
        // The share-off reference stands up one pipeline per pattern.
        channel_capacity: 64,
        phases: [
            // Every source node sleeps per event when paced; above about
            // 10k events/s the 43 paced scans of this DAG cannot keep
            // the schedule on two cores. Starting and joining the 712
            // task threads adds ~50 ms to every run's wall time, so both
            // phases last 2 s to keep that far below the lag bound.
            Phase {
                label: "lo",
                rate: 5_000.0,
                seconds: 2.0,
            },
            Phase {
                label: "hi",
                rate: 10_000.0,
                seconds: 2.0,
            },
        ],
        closed: Input::new("closed", multi_streams(seed), true),
        params: vec![
            (
                "pattern",
                "bench::multi::variant_catalog, O1, shared DAG".into(),
            ),
            ("pattern_source", "psl".into()),
            ("variants", MULTI_VARIANTS.to_string()),
            ("sensors", MULTI_SENSORS.to_string()),
            ("minutes", MULTI_MINUTES.to_string()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cep2asp::canonical_key;

    fn key(p: &Pattern, opts: &MapperOptions) -> String {
        canonical_key(&translate(p, opts).expect("translates").root)
    }

    #[test]
    fn seq7_text_plans_like_its_builder() {
        let mut reg = workloads::registry();
        let opts = MapperOptions::o1().and_o3();
        let parsed = sea::parser::parse(&seq7_text(SEQ7_PASS), &mut reg).expect("parses");
        assert_eq!(
            key(&parsed, &opts),
            key(&bench::patterns::seq7(SEQ7_PASS, 15), &opts)
        );
    }

    #[test]
    fn variant_texts_plan_like_their_builders() {
        let reg = workloads::registry();
        let opts = MapperOptions::o1();
        for job in bench::multi::variant_catalog(MULTI_VARIANTS) {
            let text = variant_text(&job.pattern, &reg);
            let parsed = sea::parser::parse(&text, &mut reg.clone()).expect("parses");
            assert_eq!(key(&parsed, &opts), key(&job.pattern, &opts), "{text}");
        }
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let a = multi_streams(3);
        assert_eq!(a[&EventType(2)], multi_streams(3)[&EventType(2)]);
        assert_ne!(a[&EventType(2)], multi_streams(4)[&EventType(2)]);
    }

    #[test]
    fn prefix_keeps_about_the_target() {
        let input = Input::new("closed", multi_streams(1), true);
        let p = input.prefix("lo", 10_000);
        assert!((9_000..=11_000).contains(&p.distinct), "{}", p.distinct);
        assert_eq!(p.max_stream * MULTI_TYPES as u64, p.distinct);
        assert!((p.source_rate(40_000.0) - 10_000.0).abs() < 1e-6);
    }
}
