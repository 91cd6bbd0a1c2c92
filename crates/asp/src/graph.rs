//! Dataflow graph construction (the processing model of Section 2,
//! model 3): sources, operators, and sinks connected by directed edges with
//! an exchange strategy per edge.
//!
//! A [`GraphBuilder`] assembles the logical graph; [`crate::runtime::Executor`]
//! turns every node into `parallelism` independently-threaded instances
//! ("task slots") and every edge into per-instance-pair channels.

use std::sync::Arc;

use crate::event::Event;
use crate::operator::Operator;

/// How tuples travel across an edge.
///
/// At runtime an edge carries micro-batched envelopes: the sender
/// accumulates up to [`crate::runtime::ExecutorConfig::batch_size`] tuples
/// per destination instance and ships them as one channel message, so the
/// exchange pattern decides *where* a tuple goes while batching amortizes
/// *how often* the channel is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exchange {
    /// Direct 1:1 wiring; requires equal parallelism on both ends.
    Forward,
    /// Partition by `tuple.key` — the shuffling step that re-partitions
    /// sub-operation outputs (and the vehicle of the O3 optimization).
    Hash,
    /// Round-robin redistribution for stateless load balancing.
    Rebalance,
}

/// Identifies a node in the graph under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// Identifies a sink; used to retrieve collected output from a
/// [`crate::runtime::RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SinkId(pub(crate) usize);

/// What a sink retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SinkMode {
    /// Keep every tuple (tests, examples).
    #[default]
    Collect,
    /// Keep only counts + sampled latencies (benchmarks producing millions
    /// of matches).
    CountOnly,
}

/// Creates one operator instance per task slot. The argument is the
/// instance index `0..parallelism`.
pub type OperatorFactory = Box<dyn Fn(usize) -> Box<dyn Operator> + Send>;

/// Source behaviour knobs.
#[derive(Clone)]
pub struct SourceConfig {
    /// Pre-generated events in *arrival* order. With parallelism > 1 the
    /// events are dealt round-robin. Arrival order may deviate from
    /// timestamp order by at most [`SourceConfig::watermark_lag`].
    pub events: Arc<Vec<Event>>,
    /// Emit a watermark every `watermark_every` events (punctuated
    /// watermarking). This is also the source's output-flush cadence:
    /// pending micro-batches are released with each punctuation so the
    /// watermark never overtakes the tuples it covers.
    pub watermark_every: usize,
    /// Optional pacing in events/second *per instance*; `None` = as fast
    /// as backpressure allows (how sustainable throughput is probed).
    pub rate: Option<f64>,
    /// Bounded out-of-orderness: watermarks assert `max seen ts − lag`,
    /// tolerating arrivals up to `lag` behind the newest event (Flink's
    /// bounded-out-of-orderness strategy). Zero for in-order producers.
    pub watermark_lag: crate::time::Duration,
    /// Set when a negative lag was clamped to zero; surfaced by
    /// [`crate::validate::check`] as a `G014` warning.
    pub(crate) lag_clamped: bool,
}

impl SourceConfig {
    /// A source replaying `events` as fast as possible, with a watermark
    /// every 256 events and no out-of-orderness allowance.
    pub fn new(events: Vec<Event>) -> Self {
        SourceConfig {
            events: Arc::new(events),
            watermark_every: 256,
            rate: None,
            watermark_lag: crate::time::Duration::ZERO,
            lag_clamped: false,
        }
    }

    /// A source replaying an already-`Arc`ed event array — the multi-
    /// pattern path, where many scans over the same stream must not copy
    /// it once per scan. Same defaults as [`SourceConfig::new`].
    pub fn from_shared(events: Arc<Vec<Event>>) -> Self {
        SourceConfig {
            events,
            watermark_every: 256,
            rate: None,
            watermark_lag: crate::time::Duration::ZERO,
            lag_clamped: false,
        }
    }

    /// Pace the replay at `events_per_sec` (wall-clock throttling).
    pub fn with_rate(mut self, events_per_sec: f64) -> Self {
        self.rate = Some(events_per_sec);
        self
    }

    /// Emit a watermark after every `n` events (clamped to ≥ 1).
    pub fn with_watermark_every(mut self, n: usize) -> Self {
        self.watermark_every = n.max(1);
        self
    }

    /// Tolerate arrivals up to `lag` behind the newest seen timestamp.
    ///
    /// A negative lag is meaningless (it would assert watermarks *ahead* of
    /// observed time); it is clamped to zero and reported as a `G014`
    /// warning by [`crate::validate::check`].
    pub fn with_watermark_lag(mut self, lag: crate::time::Duration) -> Self {
        if lag.millis() < 0 {
            self.watermark_lag = crate::time::Duration::ZERO;
            self.lag_clamped = true;
        } else {
            self.watermark_lag = lag;
        }
        self
    }
}

pub(crate) enum NodeKind {
    Source {
        cfg: SourceConfig,
        /// Operators fused into the source task by chaining.
        chain: Vec<OperatorFactory>,
    },
    Operator(OperatorFactory),
    Sink(SinkId),
}

pub(crate) struct Node {
    pub name: String,
    pub parallelism: usize,
    pub kind: NodeKind,
    /// Marked by [`GraphBuilder::shard_node`]: this node's instances form a
    /// shared-nothing keyed shard group routed through a
    /// `runtime::shard::ShardPlan` slot table instead of plain
    /// hash-mod routing, making its keys eligible for adaptive migration.
    pub sharded: bool,
}

pub(crate) struct Edge {
    pub src: NodeId,
    pub dst: NodeId,
    /// Logical input port on `dst` (0 = left/only, 1 = right, …).
    pub port: usize,
    pub exchange: Exchange,
}

/// Builder for dataflow graphs.
///
/// The builder itself accepts anything — structural problems (dangling
/// inputs, zero parallelism, missing sinks…) are reported as typed
/// [`crate::validate::Diagnostic`]s by [`crate::validate::validate`], which
/// [`crate::runtime::Executor::run`] invokes before spawning any thread.
#[derive(Default)]
pub struct GraphBuilder {
    pub(crate) nodes: Vec<Node>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) sink_count: usize,
    pub(crate) sink_modes: Vec<SinkMode>,
    /// Builder-misuse warnings, surfaced by [`crate::validate::check`].
    pub(crate) warnings: Vec<crate::validate::Diagnostic>,
}

impl GraphBuilder {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() - 1)
    }

    /// Add a source over a pre-generated, ts-sorted event vector.
    pub fn source(
        &mut self,
        name: impl Into<String>,
        events: Vec<Event>,
        parallelism: usize,
    ) -> NodeId {
        self.source_with(name, SourceConfig::new(events), parallelism)
    }

    /// Add a source with explicit configuration.
    pub fn source_with(
        &mut self,
        name: impl Into<String>,
        cfg: SourceConfig,
        parallelism: usize,
    ) -> NodeId {
        // Parallelism 0 is reported as G007 by `validate`, not a panic here.
        self.push(Node {
            name: name.into(),
            parallelism,
            kind: NodeKind::Source {
                cfg,
                chain: Vec::new(),
            },
            sharded: false,
        })
    }

    /// Add a single-input operator.
    pub fn unary(
        &mut self,
        input: NodeId,
        exchange: Exchange,
        parallelism: usize,
        factory: OperatorFactory,
    ) -> NodeId {
        self.nary(&[(input, exchange)], parallelism, factory)
    }

    /// Add a two-input operator (port 0 = left, port 1 = right).
    pub fn binary(
        &mut self,
        left: NodeId,
        right: NodeId,
        exchange: Exchange,
        parallelism: usize,
        factory: OperatorFactory,
    ) -> NodeId {
        self.nary(&[(left, exchange), (right, exchange)], parallelism, factory)
    }

    /// Add an operator with any number of inputs; the i-th entry feeds
    /// logical port i.
    pub fn nary(
        &mut self,
        inputs: &[(NodeId, Exchange)],
        parallelism: usize,
        factory: OperatorFactory,
    ) -> NodeId {
        // Zero parallelism (G007), empty inputs (G011), and forward
        // references (G001/G006) are all reported by `validate` instead of
        // panicking during construction.
        let name = format!("op{}", self.nodes.len());
        let id = self.push(Node {
            name,
            parallelism,
            kind: NodeKind::Operator(factory),
            sharded: false,
        });
        for (port, (src, exchange)) in inputs.iter().enumerate() {
            self.edges.push(Edge {
                src: *src,
                dst: id,
                port,
                exchange: *exchange,
            });
        }
        id
    }

    /// Add a collecting sink. A sink runs no task: every instance of
    /// `input` delivers into it on its own thread as it emits, whatever
    /// the exchange, and its count, latency samples and tuples are pooled
    /// across those instances. It stays a graph node with parallelism 1.
    pub fn sink(&mut self, input: NodeId, exchange: Exchange) -> SinkId {
        self.sink_with_mode(input, exchange, SinkMode::Collect)
    }

    /// Add a count-only sink for benchmark runs with huge match volumes.
    pub fn counting_sink(&mut self, input: NodeId, exchange: Exchange) -> SinkId {
        self.sink_with_mode(input, exchange, SinkMode::CountOnly)
    }

    /// Add a sink with an explicit retention mode.
    pub fn sink_with_mode(&mut self, input: NodeId, exchange: Exchange, mode: SinkMode) -> SinkId {
        let sid = SinkId(self.sink_count);
        self.sink_count += 1;
        self.sink_modes.push(mode);
        let id = self.push(Node {
            name: format!("sink{}", sid.0),
            parallelism: 1,
            kind: NodeKind::Sink(sid),
            sharded: false,
        });
        self.edges.push(Edge {
            src: input,
            dst: id,
            port: 0,
            exchange,
        });
        sid
    }

    /// Name the most recently added node (for plans and metrics).
    ///
    /// Calling this on an empty builder used to be a silent no-op; it is now
    /// recorded as a `G013` warning so the lost name is visible in
    /// [`crate::validate::check`] output.
    pub fn name_last(&mut self, name: impl Into<String>) {
        let name = name.into();
        if let Some(n) = self.nodes.last_mut() {
            n.name = name;
        } else {
            self.warnings.push(crate::validate::Diagnostic::warning(
                crate::validate::Code::BuilderMisuse,
                None,
                format!("name_last(\"{name}\") called on an empty builder; the name is dropped"),
            ));
        }
    }

    /// Mark `node` as a shared-nothing keyed shard group: its instances are
    /// routed through a mutable slot table (`runtime::shard`)
    /// instead of static hash-mod partitioning, which lets the adaptive
    /// rebalancer migrate hot key slots between instances at runtime.
    ///
    /// Every input edge of a sharded node must be [`Exchange::Hash`]
    /// (checked as `G018` by [`crate::validate::check`]): shard routing owns
    /// key placement, and any other exchange would scatter a key's tuples
    /// across shards. Marking a node that does not exist is recorded as a
    /// `G013` builder-misuse warning.
    pub fn shard_node(&mut self, node: NodeId) {
        if let Some(n) = self.nodes.get_mut(node.0) {
            n.sharded = true;
        } else {
            self.warnings.push(crate::validate::Diagnostic::warning(
                crate::validate::Code::BuilderMisuse,
                None,
                format!("shard_node({}) references a node outside the graph", node.0),
            ));
        }
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Append another graph's nodes and edges to this one (multi-job
    /// composition with shared executor slots). Returns the re-mapped
    /// [`SinkId`]s of `other`'s sinks, in their original order.
    pub fn splice(&mut self, other: GraphBuilder) -> Vec<SinkId> {
        let node_offset = self.nodes.len();
        let sink_offset = self.sink_count;
        // Out-of-range edges in `other` would be silently remapped into
        // nonsense ids; catch them in debug builds. In release they survive
        // the remap and are reported as G001 by `validate`.
        debug_assert!(
            other
                .edges
                .iter()
                .all(|e| e.src.0 < other.nodes.len() && e.dst.0 < other.nodes.len()),
            "splice: `other` contains edges referencing nodes outside itself"
        );
        let mut mapped = vec![SinkId(usize::MAX); other.sink_count];
        for mut node in other.nodes {
            if let NodeKind::Sink(sid) = &mut node.kind {
                let new = SinkId(sink_offset + sid.0);
                mapped[sid.0] = new;
                *sid = new;
            }
            self.nodes.push(node);
        }
        for e in other.edges {
            self.edges.push(Edge {
                src: NodeId(e.src.0 + node_offset),
                dst: NodeId(e.dst.0 + node_offset),
                port: e.port,
                exchange: e.exchange,
            });
        }
        self.sink_count += other.sink_count;
        self.sink_modes.extend(other.sink_modes);
        self.warnings.extend(other.warnings);
        debug_assert!(mapped.iter().all(|s| s.0 != usize::MAX));
        mapped
    }

    /// Test support: number of edges added so far (edges are stored in
    /// construction order).
    #[doc(hidden)]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Test support: remove the edge at `index` (construction order),
    /// simulating a builder that forgot to wire an input. The damage is
    /// reported by [`crate::validate::check`], not here.
    #[doc(hidden)]
    pub fn drop_edge(&mut self, index: usize) {
        self.edges.remove(index);
    }

    /// Test support: duplicate the edge at `index` verbatim, producing a
    /// duplicated destination port (`G004`).
    #[doc(hidden)]
    pub fn duplicate_edge(&mut self, index: usize) {
        let Edge {
            src,
            dst,
            port,
            exchange,
        } = self.edges[index];
        self.edges.push(Edge {
            src,
            dst,
            port,
            exchange,
        });
    }

    /// Test support: wrap the operator of node `index`, e.g. to inject a
    /// fault deep inside a graph built by a planner. Returns `false`, and
    /// changes nothing, if the node is not an operator.
    #[doc(hidden)]
    pub fn wrap_operator(
        &mut self,
        index: usize,
        wrap: impl Fn(Box<dyn Operator>) -> Box<dyn Operator> + Send + 'static,
    ) -> bool {
        let Some(NodeKind::Operator(factory)) = self.nodes.get_mut(index).map(|n| &mut n.kind)
        else {
            return false;
        };
        let inner = std::mem::replace(factory, Box::new(|_| unreachable!("replaced below")));
        *factory = Box::new(move |i| wrap(inner(i)));
        true
    }

    /// Test support: overwrite a node's parallelism after construction,
    /// e.g. to break a `Forward` exchange (`G005`) or zero it out (`G007`).
    #[doc(hidden)]
    pub fn set_parallelism(&mut self, node: NodeId, parallelism: usize) {
        self.nodes[node.0].parallelism = parallelism;
    }

    /// Upstream parallelism of each input port of a node, in port order.
    pub(crate) fn input_channels(&self, node: NodeId) -> Vec<usize> {
        let mut ports: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter(|e| e.dst == node)
            .map(|e| (e.port, self.nodes[e.src.0].parallelism))
            .collect();
        ports.sort_unstable();
        ports
            .into_iter()
            .map(|(_, parallelism)| parallelism)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventType;
    use crate::operator::FilterOp;
    use crate::time::Timestamp;

    fn some_events(n: i64) -> Vec<Event> {
        (0..n)
            .map(|i| Event::new(EventType(0), 0, Timestamp::from_minutes(i), i as f64))
            .collect()
    }

    #[test]
    fn builder_assigns_sequential_ids_and_ports() {
        let mut g = GraphBuilder::new();
        let a = g.source("a", some_events(3), 1);
        let b = g.source("b", some_events(3), 2);
        let j = g.binary(
            a,
            b,
            Exchange::Hash,
            2,
            Box::new(|_| Box::new(FilterOp::new("f", crate::operator::always_true()))),
        );
        let _s = g.sink(j, Exchange::Forward);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.input_channels(j), vec![1, 2]);
    }

    #[test]
    fn forward_references_are_rejected() {
        let mut g = GraphBuilder::new();
        let a = g.source("a", some_events(1), 1);
        // Fabricate a dangling id beyond the current node count. The builder
        // accepts it; validation flags the edge as G001.
        let bogus = NodeId(5);
        let f = g.binary(
            a,
            bogus,
            Exchange::Forward,
            1,
            Box::new(|_| Box::new(FilterOp::new("f", crate::operator::always_true()))),
        );
        let _ = g.sink(f, Exchange::Forward);
        let errs = crate::validate::validate(&g).unwrap_err();
        assert!(
            errs.iter()
                .any(|d| d.code == crate::validate::Code::DanglingEdge),
            "expected G001, got {errs:?}"
        );
    }

    #[test]
    fn negative_watermark_lag_is_clamped() {
        use crate::time::Duration;
        let cfg = SourceConfig::new(some_events(1)).with_watermark_lag(Duration::from_millis(-250));
        assert_eq!(cfg.watermark_lag, Duration::ZERO);
        assert!(cfg.lag_clamped);
        // Non-negative lags pass through untouched.
        let cfg = SourceConfig::new(some_events(1)).with_watermark_lag(Duration::from_millis(250));
        assert_eq!(cfg.watermark_lag, Duration::from_millis(250));
        assert!(!cfg.lag_clamped);
    }

    #[test]
    fn source_config_defaults() {
        let cfg = SourceConfig::new(some_events(2));
        assert_eq!(cfg.watermark_every, 256);
        assert!(cfg.rate.is_none());
        let cfg = cfg.with_rate(1000.0).with_watermark_every(0);
        assert_eq!(cfg.rate, Some(1000.0));
        assert_eq!(cfg.watermark_every, 1, "clamped to at least 1");
    }
}
