//! Static validation of dataflow graphs before execution.
//!
//! [`validate`] inspects a [`GraphBuilder`] and reports every structural
//! defect as a typed [`Diagnostic`] instead of panicking mid-construction or
//! mid-run. [`crate::runtime::Executor::run`] calls it before spawning any
//! thread, so a malformed graph is refused with a full list of problems
//! rather than aborting the process.
//!
//! Each defect class has a stable code (`G001`–`G016`); see [`Code`] for the
//! catalogue. Codes `G001`–`G012` and `G015`–`G016` are errors (the graph
//! cannot run); `G013`–`G014` are warnings about suspicious but runnable
//! constructions. `G015` and `G016` are special in that they are raised by
//! the runtime rather than by the graph checks here — `G015` by
//! [`crate::runtime::Executor::run`] against the runtime configuration (an
//! invalid [`crate::runtime::ExecutorConfig::batch_size`]), and `G016` by the
//! operator harness when an operator that declared columnar batch support
//! rejects the payload it is handed mid-run. They share the diagnostic
//! vocabulary so callers see one uniform refusal path.

use std::fmt;

use crate::graph::{Exchange, GraphBuilder, NodeKind};

/// Stable identifier of a defect class found by [`validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// G001: an edge endpoint references a node id outside the graph.
    DanglingEdge,
    /// G002: a non-source node has inputs, but none traces back to a source.
    UnreachableNode,
    /// G003: no directed path from this node to any sink.
    NoSinkOnPath,
    /// G004: a node's input ports are non-contiguous or duplicated.
    PortGapOrDuplicate,
    /// G005: a `Forward` edge connects nodes of unequal parallelism.
    ForwardParallelismMismatch,
    /// G006: an edge does not respect topological id order (`src ≥ dst`),
    /// which would make the graph cyclic — typically a splice gone wrong.
    CycleAfterSplice,
    /// G007: a node was declared with parallelism 0.
    ZeroParallelism,
    /// G008: a sink node has outgoing edges.
    SinkWithDownstream,
    /// G009: the graph has no sink at all.
    NoSink,
    /// G010: a source node has input edges.
    SourceWithInputs,
    /// G011: a non-source node has no input edges.
    NoInputs,
    /// G012: the graph has no nodes.
    EmptyGraph,
    /// G013 (warning): a builder method was misused and had no effect
    /// (e.g. [`GraphBuilder::name_last`] on an empty builder).
    BuilderMisuse,
    /// G014 (warning): a negative watermark lag was clamped to zero.
    ClampedWatermarkLag,
    /// G015: [`crate::runtime::ExecutorConfig::batch_size`] is 0 — a batch
    /// that size would never flush, so the executor refuses to run.
    InvalidBatchSize,
    /// G016: an operator declared columnar batch support
    /// ([`crate::operator::BatchSupport::Columnar`]) but rejected the
    /// payload the harness handed it at runtime
    /// ([`crate::error::OpError::ColumnarUnsupported`]). Like `G015`, this
    /// is raised by the runtime (the operator harness), not the static
    /// graph checks — the declaration/implementation mismatch is only
    /// observable once a payload arrives.
    ColumnarPayloadMismatch,
    /// G017: the `ASP_SHARDS` environment override held a value the
    /// executor does not understand. Raised by
    /// [`crate::runtime::Executor::run`] rather than the graph checks: the
    /// defect lives in the process environment, not the graph, but silently
    /// ignoring a typo'd override would run the wrong configuration.
    InvalidEnvConfig,
    /// G018: a node was marked for keyed sharding
    /// ([`GraphBuilder::shard_node`]) but its input edges are not all
    /// [`Exchange::Hash`] — shard routing owns key placement, so any other
    /// exchange would scatter a key across shards.
    InvalidShardedNode,
}

impl Code {
    /// Every code, in `Gxxx` order — the doc-sync test checks DESIGN.md's
    /// code table against this list, so keep it exhaustive.
    pub const ALL: &'static [Code] = &[
        Code::DanglingEdge,
        Code::UnreachableNode,
        Code::NoSinkOnPath,
        Code::PortGapOrDuplicate,
        Code::ForwardParallelismMismatch,
        Code::CycleAfterSplice,
        Code::ZeroParallelism,
        Code::SinkWithDownstream,
        Code::NoSink,
        Code::SourceWithInputs,
        Code::NoInputs,
        Code::EmptyGraph,
        Code::BuilderMisuse,
        Code::ClampedWatermarkLag,
        Code::InvalidBatchSize,
        Code::ColumnarPayloadMismatch,
        Code::InvalidEnvConfig,
        Code::InvalidShardedNode,
    ];

    /// The stable `Gxxx` string for this code.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::DanglingEdge => "G001",
            Code::UnreachableNode => "G002",
            Code::NoSinkOnPath => "G003",
            Code::PortGapOrDuplicate => "G004",
            Code::ForwardParallelismMismatch => "G005",
            Code::CycleAfterSplice => "G006",
            Code::ZeroParallelism => "G007",
            Code::SinkWithDownstream => "G008",
            Code::NoSink => "G009",
            Code::SourceWithInputs => "G010",
            Code::NoInputs => "G011",
            Code::EmptyGraph => "G012",
            Code::BuilderMisuse => "G013",
            Code::ClampedWatermarkLag => "G014",
            Code::InvalidBatchSize => "G015",
            Code::ColumnarPayloadMismatch => "G016",
            Code::InvalidEnvConfig => "G017",
            Code::InvalidShardedNode => "G018",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The graph cannot run; [`validate`] returns `Err`.
    Error,
    /// Suspicious but runnable; reported alongside errors, never fatal.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => f.write_str("error"),
            Severity::Warning => f.write_str("warning"),
        }
    }
}

/// One defect found by [`validate`], tied to a [`Code`] and, where
/// applicable, the name of the offending node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable defect class.
    pub code: Code,
    /// Error (fatal) or warning (informational).
    pub severity: Severity,
    /// Name of the node the defect is anchored at, when one exists.
    pub node: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn error(code: Code, node: Option<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            node,
            message: message.into(),
        }
    }

    pub(crate) fn warning(code: Code, node: Option<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            node,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.node {
            Some(n) => write!(
                f,
                "{} {} at node `{}`: {}",
                self.code, self.severity, n, self.message
            ),
            None => write!(f, "{} {}: {}", self.code, self.severity, self.message),
        }
    }
}

/// Collect every diagnostic (errors *and* warnings) for `graph` without
/// deciding whether it may run. [`validate`] is the go/no-go wrapper.
pub fn check(graph: &GraphBuilder) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = graph.warnings.clone();
    let n = graph.nodes.len();
    let name = |id: usize| graph.nodes[id].name.clone();

    if n == 0 {
        out.push(Diagnostic::error(
            Code::EmptyGraph,
            None,
            "graph has no nodes",
        ));
        return out;
    }

    // G007: zero parallelism.
    for node in &graph.nodes {
        if node.parallelism == 0 {
            out.push(Diagnostic::error(
                Code::ZeroParallelism,
                Some(node.name.clone()),
                "declared with parallelism 0",
            ));
        }
    }

    // G001 / G006: edge endpoint sanity. Only in-range edges participate in
    // the structural checks below.
    let mut valid_edges = Vec::new();
    for e in &graph.edges {
        if e.src.0 >= n || e.dst.0 >= n {
            out.push(Diagnostic::error(
                Code::DanglingEdge,
                if e.src.0 < n {
                    Some(name(e.src.0))
                } else if e.dst.0 < n {
                    Some(name(e.dst.0))
                } else {
                    None
                },
                format!(
                    "edge {} → {} references a node outside the graph ({} nodes)",
                    e.src.0, e.dst.0, n
                ),
            ));
            continue;
        }
        if e.src.0 >= e.dst.0 {
            out.push(Diagnostic::error(
                Code::CycleAfterSplice,
                Some(name(e.dst.0)),
                format!(
                    "edge `{}` ({}) → `{}` ({}) violates topological id order; the graph must stay acyclic",
                    name(e.src.0), e.src.0, name(e.dst.0), e.dst.0
                ),
            ));
            continue;
        }
        valid_edges.push(e);
    }

    // G005: Forward edges need equal parallelism on both ends.
    for e in &valid_edges {
        if e.exchange == Exchange::Forward
            && graph.nodes[e.src.0].parallelism != graph.nodes[e.dst.0].parallelism
        {
            out.push(Diagnostic::error(
                Code::ForwardParallelismMismatch,
                Some(name(e.dst.0)),
                format!(
                    "Forward edge `{}` → `{}` with unequal parallelism {} vs {}",
                    name(e.src.0),
                    name(e.dst.0),
                    graph.nodes[e.src.0].parallelism,
                    graph.nodes[e.dst.0].parallelism
                ),
            ));
        }
    }

    // G008: sinks are terminal.
    for e in &valid_edges {
        if matches!(graph.nodes[e.src.0].kind, NodeKind::Sink(_)) {
            out.push(Diagnostic::error(
                Code::SinkWithDownstream,
                Some(name(e.src.0)),
                format!("sink has a downstream edge to `{}`", name(e.dst.0)),
            ));
        }
    }

    // G009: at least one sink.
    if graph.sink_count == 0 {
        out.push(Diagnostic::error(Code::NoSink, None, "graph has no sink"));
    }

    // Per-node input structure: G010 / G011 / G004.
    let mut in_ports: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &valid_edges {
        in_ports[e.dst.0].push(e.port);
    }
    for (i, node) in graph.nodes.iter().enumerate() {
        let mut ports = in_ports[i].clone();
        ports.sort_unstable();
        match node.kind {
            NodeKind::Source { .. } => {
                if !ports.is_empty() {
                    out.push(Diagnostic::error(
                        Code::SourceWithInputs,
                        Some(node.name.clone()),
                        format!(
                            "source has {} input edge(s); sources must be roots",
                            ports.len()
                        ),
                    ));
                }
            }
            _ => {
                if ports.is_empty() {
                    out.push(Diagnostic::error(
                        Code::NoInputs,
                        Some(node.name.clone()),
                        "non-source node has no input edges",
                    ));
                    continue;
                }
                for (want, port) in ports.iter().enumerate() {
                    if *port != want {
                        let kind = if ports.windows(2).any(|w| w[0] == w[1]) {
                            "duplicated"
                        } else {
                            "non-contiguous"
                        };
                        out.push(Diagnostic::error(
                            Code::PortGapOrDuplicate,
                            Some(node.name.clone()),
                            format!(
                                "input ports are {kind}: got {ports:?}, expected 0..{}",
                                ports.len()
                            ),
                        ));
                        break;
                    }
                }
            }
        }
    }

    // Reachability. Forward from sources (G002) and backward from sinks
    // (G003), over in-range, order-respecting edges only. Nodes already
    // flagged G010/G011 are skipped to avoid piling codes on one defect.
    let mut fwd = vec![false; n];
    let mut bwd = vec![false; n];
    for (i, node) in graph.nodes.iter().enumerate() {
        match node.kind {
            NodeKind::Source { .. } => fwd[i] = true,
            NodeKind::Sink(_) => bwd[i] = true,
            NodeKind::Operator(_) => {}
        }
    }
    // Edges are topologically ordered (src < dst), so one forward sweep and
    // one backward sweep settle reachability without a worklist.
    for e in &valid_edges {
        if fwd[e.src.0] {
            fwd[e.dst.0] = true;
        }
    }
    for e in valid_edges.iter().rev() {
        if bwd[e.dst.0] {
            bwd[e.src.0] = true;
        }
    }
    let any_sink = graph.sink_count > 0;
    for (i, node) in graph.nodes.iter().enumerate() {
        let has_inputs = !in_ports[i].is_empty();
        if !fwd[i] && has_inputs {
            out.push(Diagnostic::error(
                Code::UnreachableNode,
                Some(node.name.clone()),
                "has inputs, but no path from any source reaches it",
            ));
        }
        if any_sink && !bwd[i] && !matches!(node.kind, NodeKind::Sink(_)) {
            out.push(Diagnostic::error(
                Code::NoSinkOnPath,
                Some(node.name.clone()),
                "no directed path from this node reaches a sink; its output is dropped",
            ));
        }
    }

    // G018: sharded nodes must be operators whose every input is a Hash
    // exchange — shard routing owns key placement, so a Forward/Rebalance
    // input would scatter one key's tuples across shard instances.
    for (i, node) in graph.nodes.iter().enumerate() {
        if !node.sharded {
            continue;
        }
        if !matches!(node.kind, NodeKind::Operator(_)) {
            out.push(Diagnostic::error(
                Code::InvalidShardedNode,
                Some(node.name.clone()),
                "shard_node on a source or sink; only operators hold keyed shard state",
            ));
            continue;
        }
        for e in &valid_edges {
            if e.dst.0 == i && e.exchange != Exchange::Hash {
                out.push(Diagnostic::error(
                    Code::InvalidShardedNode,
                    Some(node.name.clone()),
                    format!(
                        "sharded node has a non-Hash input edge from `{}` ({:?})",
                        name(e.src.0),
                        e.exchange
                    ),
                ));
            }
        }
    }

    // G014: sources whose watermark lag was clamped at configuration time.
    for node in &graph.nodes {
        if let NodeKind::Source { cfg, .. } = &node.kind {
            if cfg.lag_clamped {
                out.push(Diagnostic::warning(
                    Code::ClampedWatermarkLag,
                    Some(node.name.clone()),
                    "negative watermark lag was clamped to zero",
                ));
            }
        }
    }

    out
}

/// Validate `graph` for execution.
///
/// Returns `Ok(())` when no **error**-severity diagnostic is present
/// (warnings alone do not fail validation). On failure, returns every
/// diagnostic found — errors and warnings — so callers can render the
/// complete picture at once.
pub fn validate(graph: &GraphBuilder) -> Result<(), Vec<Diagnostic>> {
    let diags = check(graph);
    if diags.iter().any(|d| d.severity == Severity::Error) {
        Err(diags)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventType};
    use crate::graph::{Edge, NodeId, SourceConfig};
    use crate::operator::{always_true, FilterOp};
    use crate::time::{Duration, Timestamp};

    fn some_events(n: i64) -> Vec<Event> {
        (0..n)
            .map(|i| Event::new(EventType(0), 0, Timestamp::from_minutes(i), i as f64))
            .collect()
    }

    fn filter_factory() -> crate::graph::OperatorFactory {
        Box::new(|_| Box::new(FilterOp::new("f", always_true())))
    }

    fn codes(g: &GraphBuilder) -> Vec<Code> {
        check(g).into_iter().map(|d| d.code).collect()
    }

    /// src → filter → sink, entirely well-formed.
    fn good_graph() -> GraphBuilder {
        let mut g = GraphBuilder::new();
        let s = g.source("s", some_events(3), 1);
        let f = g.unary(s, Exchange::Forward, 1, filter_factory());
        let _ = g.sink(f, Exchange::Forward);
        g
    }

    #[test]
    fn well_formed_graph_passes() {
        assert!(validate(&good_graph()).is_ok());
        assert!(check(&good_graph()).is_empty());
    }

    #[test]
    fn g001_dangling_edge() {
        let mut g = GraphBuilder::new();
        let s = g.source("s", some_events(1), 1);
        let f = g.unary(s, Exchange::Forward, 1, filter_factory());
        let _ = g.sink(f, Exchange::Forward);
        g.edges.push(Edge {
            src: NodeId(99),
            dst: NodeId(1),
            port: 1,
            exchange: Exchange::Hash,
        });
        assert!(codes(&g).contains(&Code::DanglingEdge));
    }

    #[test]
    fn g002_unreachable_node() {
        let mut g = GraphBuilder::new();
        let s = g.source("s", some_events(1), 1);
        let _direct = g.sink(s, Exchange::Forward);
        // A head → tail chain, then detach head from the source: head has no
        // inputs (G011) and tail has inputs but no path from any source (G002).
        let head = g.unary(s, Exchange::Forward, 1, filter_factory());
        let tail = g.unary(head, Exchange::Forward, 1, filter_factory());
        let _ = g.sink(tail, Exchange::Forward);
        g.edges.retain(|e| !(e.src == s && e.dst == head));
        let cs = codes(&g);
        assert!(cs.contains(&Code::UnreachableNode), "{cs:?}");
        assert!(cs.contains(&Code::NoInputs), "{cs:?}");
    }

    #[test]
    fn g003_no_sink_on_path() {
        let mut g = GraphBuilder::new();
        let s = g.source("s", some_events(1), 1);
        let _ = g.sink(s, Exchange::Forward);
        // A second branch that never reaches any sink.
        let dead = g.unary(s, Exchange::Forward, 1, filter_factory());
        let _dead2 = g.unary(dead, Exchange::Forward, 1, filter_factory());
        let cs = codes(&g);
        assert!(cs.contains(&Code::NoSinkOnPath), "{cs:?}");
    }

    #[test]
    fn g004_duplicate_port() {
        let mut g = good_graph();
        // Duplicate the filter's port-0 input.
        g.edges.push(Edge {
            src: NodeId(0),
            dst: NodeId(1),
            port: 0,
            exchange: Exchange::Hash,
        });
        let ds = check(&g);
        let d = ds
            .iter()
            .find(|d| d.code == Code::PortGapOrDuplicate)
            .expect("G004");
        assert!(d.message.contains("duplicated"), "{}", d.message);
    }

    #[test]
    fn g004_port_gap() {
        let mut g = GraphBuilder::new();
        let a = g.source("a", some_events(1), 1);
        let b = g.source("b", some_events(1), 1);
        let j = g.binary(a, b, Exchange::Hash, 1, filter_factory());
        let _ = g.sink(j, Exchange::Forward);
        // Shift the right input from port 1 to port 2, leaving a gap.
        for e in &mut g.edges {
            if e.dst == j && e.port == 1 {
                e.port = 2;
            }
        }
        let ds = check(&g);
        let d = ds
            .iter()
            .find(|d| d.code == Code::PortGapOrDuplicate)
            .expect("G004");
        assert!(d.message.contains("non-contiguous"), "{}", d.message);
    }

    #[test]
    fn g005_forward_parallelism_mismatch() {
        let mut g = GraphBuilder::new();
        let s = g.source("s", some_events(1), 1);
        let f = g.unary(s, Exchange::Forward, 3, filter_factory());
        let _ = g.sink(f, Exchange::Rebalance);
        let ds = check(&g);
        let d = ds
            .iter()
            .find(|d| d.code == Code::ForwardParallelismMismatch)
            .expect("G005");
        assert!(
            d.message.contains("1 vs 3") || d.message.contains("3 vs 1"),
            "{}",
            d.message
        );
        assert!(d.node.is_some());
    }

    #[test]
    fn g006_cycle_after_splice() {
        let mut g = good_graph();
        // Back-edge from the filter to the source: violates id order.
        g.edges.push(Edge {
            src: NodeId(1),
            dst: NodeId(0),
            port: 0,
            exchange: Exchange::Hash,
        });
        assert!(codes(&g).contains(&Code::CycleAfterSplice));
    }

    #[test]
    fn g007_zero_parallelism() {
        let mut g = GraphBuilder::new();
        let s = g.source("s", some_events(1), 0);
        let _ = g.sink(s, Exchange::Forward);
        assert!(codes(&g).contains(&Code::ZeroParallelism));
    }

    #[test]
    fn g008_sink_with_downstream() {
        let mut g = good_graph();
        // Node 2 is the sink; give it an outgoing edge to a new operator.
        let extra = g.unary(NodeId(1), Exchange::Forward, 1, filter_factory());
        g.edges.push(Edge {
            src: NodeId(2),
            dst: extra,
            port: 1,
            exchange: Exchange::Hash,
        });
        assert!(codes(&g).contains(&Code::SinkWithDownstream));
    }

    #[test]
    fn g009_no_sink() {
        let mut g = GraphBuilder::new();
        let _s = g.source("s", some_events(1), 1);
        assert!(codes(&g).contains(&Code::NoSink));
    }

    #[test]
    fn g010_source_with_inputs() {
        let mut g = GraphBuilder::new();
        let a = g.source("a", some_events(1), 1);
        let b = g.source("b", some_events(1), 1);
        let _ = g.sink(b, Exchange::Forward);
        g.edges.push(Edge {
            src: a,
            dst: b,
            port: 0,
            exchange: Exchange::Forward,
        });
        assert!(codes(&g).contains(&Code::SourceWithInputs));
    }

    #[test]
    fn g011_no_inputs() {
        let mut g = GraphBuilder::new();
        let s = g.source("s", some_events(1), 1);
        let f = g.unary(s, Exchange::Forward, 1, filter_factory());
        let _ = g.sink(f, Exchange::Forward);
        g.edges.retain(|e| e.dst != f);
        assert!(codes(&g).contains(&Code::NoInputs));
    }

    #[test]
    fn g012_empty_graph() {
        let g = GraphBuilder::new();
        let err = validate(&g).unwrap_err();
        assert_eq!(err.len(), 1);
        assert_eq!(err[0].code, Code::EmptyGraph);
    }

    #[test]
    fn g013_name_last_on_empty_builder() {
        let mut g = GraphBuilder::new();
        g.name_last("ghost");
        let ds = check(&g);
        let d = ds
            .iter()
            .find(|d| d.code == Code::BuilderMisuse)
            .expect("G013");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("ghost"), "{}", d.message);
    }

    #[test]
    fn g014_clamped_watermark_lag_warns_but_runs() {
        let mut g = GraphBuilder::new();
        let cfg = SourceConfig::new(some_events(1)).with_watermark_lag(Duration::from_millis(-5));
        let s = g.source_with("s", cfg, 1);
        let _ = g.sink(s, Exchange::Forward);
        let ds = check(&g);
        let d = ds
            .iter()
            .find(|d| d.code == Code::ClampedWatermarkLag)
            .expect("G014");
        assert_eq!(d.severity, Severity::Warning);
        // Warnings alone never fail validation.
        assert!(validate(&g).is_ok());
    }

    #[test]
    fn g015_invalid_batch_size_code_is_stable() {
        assert_eq!(Code::InvalidBatchSize.as_str(), "G015");
        let d = Diagnostic::error(Code::InvalidBatchSize, None, "batch_size must be ≥ 1");
        assert!(d.to_string().starts_with("G015 error:"), "{d}");
    }

    #[test]
    fn diagnostics_render_with_code_severity_and_node() {
        let d = Diagnostic::error(
            Code::ForwardParallelismMismatch,
            Some("⋈".into()),
            "Forward edge `a` → `⋈` with unequal parallelism 1 vs 3",
        );
        let s = d.to_string();
        assert!(s.starts_with("G005 error at node `⋈`:"), "{s}");
        let w = Diagnostic::warning(Code::BuilderMisuse, None, "no-op");
        assert_eq!(w.to_string(), "G013 warning: no-op");
    }

    #[test]
    fn validate_reports_all_errors_at_once() {
        let mut g = GraphBuilder::new();
        let s = g.source("s", some_events(1), 0); // G007
        let f = g.unary(s, Exchange::Forward, 3, filter_factory()); // G005
        let _ = f;
        // No sink → G009; dead path → G003.
        let errs = validate(&g).unwrap_err();
        let cs: Vec<Code> = errs.iter().map(|d| d.code).collect();
        assert!(cs.contains(&Code::ZeroParallelism), "{cs:?}");
        assert!(cs.contains(&Code::ForwardParallelismMismatch), "{cs:?}");
        assert!(cs.contains(&Code::NoSink), "{cs:?}");
        assert!(cs.len() >= 3);
    }
}
