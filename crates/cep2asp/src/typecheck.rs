//! The plan checker: well-formedness, schema inference and partition
//! safety (`S`-codes).
//!
//! One bottom-up pass over a [`LogicalPlan`], alongside the graph
//! validator (`G`-codes, `asp::validate`) and the cost analyzer
//! (`A`-codes, [`mod@crate::analyze`]):
//!
//! 1. **Per-edge schema inference** — propagate typed tuple schemas
//!    (constituent event types + `VarId` layout, plus the `ats`/`agg`
//!    annotation channels) from the source declarations through every
//!    [`PlanNode`], rejecting layout/arity mismatches, variables an edge
//!    does not bind, and predicates over undeclared attributes.
//! 2. **Plan invariants** — window, interval and hold bounds against the
//!    pattern window, span guards, union and aggregate arity, all read off
//!    the same walk.
//! 3. **Key-provenance analysis** — a small dataflow lattice
//!    ([`KeyProvenance`]) tracking which attribute is the partition key on
//!    each edge, whether each operator preserves, destroys, or rewrites
//!    it, and whether every `ByKey` join is actually co-partitioned on its
//!    `key_pair` (the equi-key closure check, S005).
//! 4. **Partition-safety verdicts** — classify each operator as
//!    shardable-by-key / global-only / stateless ([`ShardSafety`]),
//!    exported in EXPLAIN output and a machine-readable JSON artifact for
//!    the future sharded executor.
//!
//! The pass is wired in as a `translate()` debug-mode post-condition, a
//! pre-run check in [`crate::exec::run_pattern`], the pre-flight of the
//! reproduction harness, and — with the `schema-conformance` feature (or
//! [`crate::physical::PhysicalConfig::schema_conformance`]) — a gate in
//! front of the physical build plus a runtime conformance mode that
//! asserts every tuple crossing an edge matches the inferred schema and
//! key, so the analysis is validated against reality instead of merely
//! asserted.
//!
//! | code | rejected plan defect |
//! |------|----------------------|
//! | S001 | predicate reads an attribute the bound source never declares |
//! | S002 | scan node and its leaf disagree on the event type |
//! | S003 | a pattern variable is bound twice in one match |
//! | S004 | projection layout is not a permutation of its input columns |
//! | S005 | partitioning and key pair disagree, or the key pair is not in one equi-key class |
//! | S006 | `ByKey` aggregate over an input that is not sensor-id keyed |
//! | S007 | `ats` check with no `ats`-carrying input (statically dead) |
//! | S008 | aggregate over a composite (multi-event) input |
//! | S009 | a predicate, order pair or `ats` check names a variable its input does not bind |
//! | S010 | sliding window with `slide ≤ 0` or `slide > size` |
//! | S011 | interval join with `lower ≥ upper` |
//! | S012 | exclusive interval bounds outside `[-W, W]` |
//! | S013 | join/aggregate window size ≠ `W`, hold outside `(0, W]`, or `W ≤ 0` |
//! | S014 | union with fewer than two inputs |
//! | S015 | aggregate counting to zero |
//! | S016 | join span guard ≠ `W` |
//!
//! ## Window boundary convention
//!
//! The whole stack is **half-open**: `sea::oracle::evaluate_per_window`
//! enumerates windows `[k·s, k·s + W)`, so two co-windowed events differ
//! by *strictly less than* `W`. The runtime agrees — interval-join bounds
//! are EXCLUSIVE (`lower < r.ts − l.ts < upper`, so `upper = W` admits a
//! maximum difference of `W − 1` ms, exactly the half-open maximum) and
//! the physical span guard rejects `span ≥ W`. S012 and S013 pin this
//! convention: interval bounds beyond `±W`, or a sliding-join/aggregate
//! window sized differently from the pattern window, admit (or lose)
//! pairs that no half-open pattern window co-hosts.

use std::collections::HashMap;
use std::fmt;

use asp::event::{Attr, EventType};

use sea::predicate::{Expr, Predicate, VarId};
use sea::schema::SchemaCatalog;

use crate::diag::{json_str, Diag, DiagCode};
use crate::plan::{JoinWindowing, LogicalPlan, Partitioning, PlanNode};

/// Stable identifier of a plan defect found by [`typecheck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeCode {
    /// S001: a predicate reads an attribute the bound source's declared
    /// schema does not provide.
    UnknownAttribute,
    /// S002: a scan's `etype` and its leaf's `etype` disagree — the same
    /// variable would bind conflicting types.
    InconsistentVarType,
    /// S003: a pattern variable is bound twice in one match — a join's
    /// sides overlap, so the output layout would carry a duplicate column.
    DuplicateColumn,
    /// S004: a projection's layout is not a permutation of its input's
    /// columns (or the input is a mixed union with no single layout).
    ProjectionLayoutMismatch,
    /// S005: partitioning and key pair disagree — `ByKey` without a key
    /// pair, `Global` with one, a key drawn from the wrong side — or a
    /// `ByKey` join whose `key_pair` sides are not provably equal under the
    /// plan's equi-key predicate closure, so the hash partitioner would
    /// separate matching pairs and silently lose matches.
    JoinKeyNotCoPartitioned,
    /// S006: a `ByKey` aggregate over an input whose partition key is not
    /// a sensor id — the per-key counts would be grouped arbitrarily.
    AggregateKeyProvenance,
    /// S007: a join checks the `ats` annotation but no input can carry
    /// one — the join statically emits nothing.
    AtsWithoutProvider,
    /// S008: an aggregate over a composite (multi-event) input; the count
    /// mapping is defined over single scanned events.
    AggregateOverComposite,
    /// S009: a predicate, ordering constraint or `ats` check names a
    /// variable its input schema does not bind (for `ats`: the join's
    /// right side).
    UnboundVariable,
    /// S010: a sliding window's slide is zero, negative, or larger than
    /// its size.
    SlidingSlideExceedsSize,
    /// S011: an interval join's lower bound is not strictly below its
    /// upper bound.
    IntervalBoundsInverted,
    /// S012: an interval join's bounds exceed the pattern window `[-W, W]`.
    IntervalExceedsWindow,
    /// S013: a window duration disagrees with the pattern window — a
    /// sliding-join or aggregate window sized differently from `W`
    /// (admitting or losing pairs the half-open pattern windows
    /// `[k·s, k·s + W)` never co-host), a non-positive / over-long hold
    /// duration, or a non-positive pattern window.
    WindowOutOfRange,
    /// S014: a union with fewer than two inputs.
    EmptyUnion,
    /// S015: an aggregate requiring a count of zero (always true).
    AggregateCountZero,
    /// S016: a join's span guard differs from the pattern window.
    SpanMismatch,
}

impl TypeCode {
    /// Every code, in `Sxxx` order — the doc-sync test checks DESIGN.md's
    /// code table against this list, so keep it exhaustive.
    pub const ALL: &'static [TypeCode] = &[
        TypeCode::UnknownAttribute,
        TypeCode::InconsistentVarType,
        TypeCode::DuplicateColumn,
        TypeCode::ProjectionLayoutMismatch,
        TypeCode::JoinKeyNotCoPartitioned,
        TypeCode::AggregateKeyProvenance,
        TypeCode::AtsWithoutProvider,
        TypeCode::AggregateOverComposite,
        TypeCode::UnboundVariable,
        TypeCode::SlidingSlideExceedsSize,
        TypeCode::IntervalBoundsInverted,
        TypeCode::IntervalExceedsWindow,
        TypeCode::WindowOutOfRange,
        TypeCode::EmptyUnion,
        TypeCode::AggregateCountZero,
        TypeCode::SpanMismatch,
    ];

    /// The stable `Sxxx` string for this code.
    pub fn as_str(&self) -> &'static str {
        match self {
            TypeCode::UnknownAttribute => "S001",
            TypeCode::InconsistentVarType => "S002",
            TypeCode::DuplicateColumn => "S003",
            TypeCode::ProjectionLayoutMismatch => "S004",
            TypeCode::JoinKeyNotCoPartitioned => "S005",
            TypeCode::AggregateKeyProvenance => "S006",
            TypeCode::AtsWithoutProvider => "S007",
            TypeCode::AggregateOverComposite => "S008",
            TypeCode::UnboundVariable => "S009",
            TypeCode::SlidingSlideExceedsSize => "S010",
            TypeCode::IntervalBoundsInverted => "S011",
            TypeCode::IntervalExceedsWindow => "S012",
            TypeCode::WindowOutOfRange => "S013",
            TypeCode::EmptyUnion => "S014",
            TypeCode::AggregateCountZero => "S015",
            TypeCode::SpanMismatch => "S016",
        }
    }
}

impl fmt::Display for TypeCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl DiagCode for TypeCode {
    fn as_str(&self) -> &'static str {
        TypeCode::as_str(self)
    }
}

/// One plan defect. All typecheck findings are errors; the shared [`Diag`]
/// carrier keeps rendering uniform with the G/A/M families.
pub type TypeDiagnostic = Diag<TypeCode>;

/// One column of a tuple schema: the pattern position it binds and the
/// event type of the constituent stored there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Pattern variable bound at this tuple position.
    pub var: VarId,
    /// Event type of the constituent.
    pub etype: EventType,
    /// Human-readable type name (diagnostics, EXPLAIN).
    pub type_name: String,
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}:{}", self.var + 1, self.type_name)
    }
}

/// The schema of one tuple shape an edge can carry: its columns in tuple
/// order plus whether the `ats`/`agg` annotation channels are populated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSchema {
    /// Constituent columns, in physical tuple order.
    pub columns: Vec<Column>,
    /// Tuples of this shape carry the NSEQ `ats` annotation.
    pub ats: bool,
    /// Tuples of this shape carry the aggregation result (`agg`).
    pub agg: bool,
}

impl RowSchema {
    /// The `VarId` layout of this row, in tuple order.
    pub fn layout(&self) -> Vec<VarId> {
        self.columns.iter().map(|c| c.var).collect()
    }
}

impl fmt::Display for RowSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols: Vec<String> = self.columns.iter().map(Column::to_string).collect();
        write!(f, "({})", cols.join(", "))?;
        if self.ats {
            write!(f, "+ats")?;
        }
        if self.agg {
            write!(f, "+agg")?;
        }
        Ok(())
    }
}

/// Where an edge's partition key comes from — the key-provenance lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyProvenance {
    /// Every tuple's key equals the sensor id of the constituent bound at
    /// this pattern position (scans, `ByKey` joins/aggregates).
    SensorId(VarId),
    /// Every tuple carries the single uniform key `0` (global operators).
    Uniform,
    /// No single provenance holds (e.g. a union of differently-keyed
    /// branches); downstream keyed operators must re-key.
    Mixed,
}

impl fmt::Display for KeyProvenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyProvenance::SensorId(v) => write!(f, "id(e{})", v + 1),
            KeyProvenance::Uniform => write!(f, "uniform"),
            KeyProvenance::Mixed => write!(f, "mixed"),
        }
    }
}

/// The partition-safety verdict for one operator — whether a sharded
/// runtime may split its state by key, must run it globally, or can place
/// it anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSafety {
    /// State is partitioned by the sensor-id key; instances are
    /// independent and the operator parallelizes (O3).
    ShardableByKey,
    /// State spans keys (uniform-key joins, global aggregates, the NSEQ
    /// UDF); exactly one instance must see every tuple.
    GlobalOnly,
    /// No state at all; the operator can run anywhere at any parallelism.
    Stateless,
}

impl fmt::Display for ShardSafety {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardSafety::ShardableByKey => write!(f, "shardable-by-key"),
            ShardSafety::GlobalOnly => write!(f, "global-only"),
            ShardSafety::Stateless => write!(f, "stateless"),
        }
    }
}

/// The inferred schema of one dataflow edge: the tuple shapes it can carry
/// (one per union variant) and the partition-key provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSchema {
    /// Possible tuple shapes; a single-variant edge is the common case,
    /// union outputs carry one entry per branch shape.
    pub variants: Vec<RowSchema>,
    /// Where the partition key on this edge comes from.
    pub key: KeyProvenance,
}

impl fmt::Display for EdgeSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let vs: Vec<String> = self.variants.iter().map(RowSchema::to_string).collect();
        write!(f, "{}  key={}", vs.join(" | "), self.key)
    }
}

/// One plan node annotated with its inferred output-edge schema and its
/// partition-safety verdict. The tree mirrors the plan (and
/// [`crate::analyze::AnalyzedNode`]) child order exactly, so the EXPLAIN
/// renderer can walk both in lockstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypedNode {
    /// Node label ([`PlanNode::label`], shared with the cost analyzer).
    pub label: String,
    /// Inferred schema of the node's output edge.
    pub schema: EdgeSchema,
    /// The node's partition-safety verdict.
    pub safety: ShardSafety,
    /// Typed children, in plan order.
    pub children: Vec<TypedNode>,
}

/// The result of [`typecheck`]: the typed plan tree plus every defect
/// found. An empty diagnostic list means the plan is schema- and
/// key-sound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypecheckResult {
    /// Typed plan tree (inference proceeds even past defects, so the tree
    /// is always complete).
    pub root: TypedNode,
    /// Every defect found, in walk order. All are errors.
    pub diagnostics: Vec<TypeDiagnostic>,
}

impl TypecheckResult {
    /// Did the plan pass with zero defects?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render the typed tree plus diagnostics as indented text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, 0, &mut out);
        for d in &self.diagnostics {
            out.push_str(&format!("!! {d}\n"));
        }
        out
    }

    /// Serialize the verdicts as a machine-readable JSON document (for
    /// the CI artifact and the future sharded placer). Hand-rolled — this
    /// crate deliberately carries no serialization dependency.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"clean\":");
        out.push_str(if self.is_clean() { "true" } else { "false" });
        out.push_str(",\"diagnostics\":[");
        let diags: Vec<String> = self.diagnostics.iter().map(Diag::to_json).collect();
        out.push_str(&diags.join(","));
        out.push_str("],\"root\":");
        json_node(&self.root, &mut out);
        out.push('}');
        out
    }
}

fn render_node(n: &TypedNode, depth: usize, out: &mut String) {
    use std::fmt::Write;
    let pad = "  ".repeat(depth);
    let _ = writeln!(out, "{pad}{}  :: {}  [{}]", n.label, n.schema, n.safety);
    for c in &n.children {
        render_node(c, depth + 1, out);
    }
}

fn json_node(n: &TypedNode, out: &mut String) {
    out.push_str(&format!("{{\"label\":{},\"key\":", json_str(&n.label)));
    match n.schema.key {
        KeyProvenance::SensorId(v) => {
            out.push_str(&format!("{{\"kind\":\"sensor-id\",\"var\":{v}}}"));
        }
        KeyProvenance::Uniform => out.push_str("{\"kind\":\"uniform\"}"),
        KeyProvenance::Mixed => out.push_str("{\"kind\":\"mixed\"}"),
    }
    out.push_str(&format!(",\"safety\":{},\"variants\":[", {
        json_str(&n.safety.to_string())
    }));
    for (i, v) in n.schema.variants.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"columns\":[");
        for (j, c) in v.columns.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"var\":{},\"etype\":{},\"type\":{}}}",
                c.var,
                c.etype.0,
                json_str(&c.type_name)
            ));
        }
        out.push_str(&format!(
            "],\"ats\":{},\"agg\":{}}}",
            if v.ats { "true" } else { "false" },
            if v.agg { "true" } else { "false" }
        ));
    }
    out.push_str("],\"children\":[");
    for (i, c) in n.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_node(c, out);
    }
    out.push_str("]}");
}

/// Typecheck a plan against a fully permissive schema catalog (every
/// source exposes every attribute): every check except S001.
pub fn typecheck(plan: &LogicalPlan) -> TypecheckResult {
    typecheck_with(plan, &SchemaCatalog::new())
}

/// Typecheck a plan against declared source schemas: everything
/// [`typecheck`] checks, plus S001 for predicates reading attributes the
/// bound source never declares.
pub fn typecheck_with(plan: &LogicalPlan, catalog: &SchemaCatalog) -> TypecheckResult {
    let mut diagnostics = Vec::new();
    let mut classes = UnionFind::default();
    collect_equi_classes(&plan.root, &mut classes);
    let (w_ms, slide_ms) = (plan.window.size.millis(), plan.window.slide.millis());
    let mut cx = Ctx {
        catalog,
        classes,
        w_ms,
        diags: &mut diagnostics,
    };
    if w_ms <= 0 {
        cx.err(
            TypeCode::WindowOutOfRange,
            "Plan",
            format!("pattern window size must be positive, got {w_ms}ms"),
        );
    }
    if slide_ms <= 0 || slide_ms > w_ms.max(1) {
        cx.err(
            TypeCode::SlidingSlideExceedsSize,
            "Plan",
            format!("pattern window slide {slide_ms}ms outside (0, {w_ms}ms]"),
        );
    }
    let root = infer(&plan.root, &mut cx);
    TypecheckResult { root, diagnostics }
}

/// Union-find over pattern variables, built from the plan's equi-key
/// predicates (`eA.id = eB.id`); two variables in one class are provably
/// co-keyed wherever both are bound.
#[derive(Debug, Default)]
struct UnionFind {
    parent: HashMap<VarId, VarId>,
}

impl UnionFind {
    fn find(&mut self, v: VarId) -> VarId {
        let p = *self.parent.entry(v).or_insert(v);
        if p == v {
            return v;
        }
        let root = self.find(p);
        self.parent.insert(v, root);
        root
    }

    fn union(&mut self, a: VarId, b: VarId) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }

    fn same(&mut self, a: VarId, b: VarId) -> bool {
        self.find(a) == self.find(b)
    }
}

fn collect_equi_classes(node: &PlanNode, uf: &mut UnionFind) {
    if let PlanNode::Join { predicates, .. } = node {
        for p in predicates {
            if p.is_equi_key() {
                if let (Expr::Var(a, _), Expr::Var(b, _)) = (p.lhs, p.rhs) {
                    uf.union(a, b);
                }
            }
        }
    }
    node.children().for_each(|c| collect_equi_classes(c, uf));
}

struct Ctx<'a> {
    catalog: &'a SchemaCatalog,
    classes: UnionFind,
    /// The pattern window `W` every join, aggregate and hold is bounded by.
    w_ms: i64,
    diags: &'a mut Vec<TypeDiagnostic>,
}

impl Ctx<'_> {
    fn err(&mut self, code: TypeCode, node: &str, msg: impl Into<String>) {
        self.diags.push(TypeDiagnostic::error(code, node, msg));
    }

    /// Check one predicate against the tuple shapes it is evaluated over:
    /// every variable it names must be bound (S009), and every attribute it
    /// reads declared by the bound source (S001).
    fn check_pred(&mut self, label: &str, p: &Predicate, variants: &[RowSchema]) {
        for v in p.vars() {
            if !binds(variants, v) {
                self.err(
                    TypeCode::UnboundVariable,
                    label,
                    format!(
                        "predicate `{p}` references e{}, not bound by its input",
                        v + 1
                    ),
                );
            }
        }
        for (v, attr) in pred_refs(p) {
            for variant in variants {
                if let Some(col) = variant.columns.iter().find(|c| c.var == v) {
                    if !self.catalog.declares(col.etype, attr) {
                        self.err(
                            TypeCode::UnknownAttribute,
                            label,
                            format!(
                                "predicate `{p}` reads e{}.{attr}, but source {} \
                                 does not declare attribute `{attr}`",
                                v + 1,
                                col.type_name
                            ),
                        );
                        break; // one finding per reference is enough
                    }
                }
            }
        }
    }
}

/// Does every tuple shape an edge can carry bind `v`?
fn binds(variants: &[RowSchema], v: VarId) -> bool {
    variants
        .iter()
        .all(|r| r.columns.iter().any(|c| c.var == v))
}

/// The attribute references `(var, attr)` a predicate reads.
fn pred_refs(p: &Predicate) -> Vec<(VarId, Attr)> {
    [p.lhs, p.rhs]
        .into_iter()
        .filter_map(|e| match e {
            Expr::Var(v, a) => Some((v, a)),
            Expr::Const(_) => None,
        })
        .collect()
}

/// Type `node` bottom-up: its children first, then the node itself.
fn infer(node: &PlanNode, cx: &mut Ctx<'_>) -> TypedNode {
    let children: Vec<TypedNode> = node.children().map(|c| infer(c, cx)).collect();
    let label = node.label();
    let (schema, safety) = check_node(node, &label, &children, cx);
    TypedNode {
        label,
        schema,
        safety,
        children,
    }
}

/// The output schema and verdict of `node` given its typed children,
/// reporting every defect of the node itself.
fn check_node(
    node: &PlanNode,
    label: &str,
    children: &[TypedNode],
    cx: &mut Ctx<'_>,
) -> (EdgeSchema, ShardSafety) {
    let w_ms = cx.w_ms;
    match node {
        PlanNode::Scan {
            etype,
            type_name,
            leaf,
            var,
            predicates,
        } => {
            if leaf.etype != *etype {
                cx.err(
                    TypeCode::InconsistentVarType,
                    label,
                    format!(
                        "scan type {etype} disagrees with its leaf's type {} — e{} \
                         would bind conflicting event types",
                        leaf.etype,
                        var + 1
                    ),
                );
            }
            let row = RowSchema {
                columns: vec![Column {
                    var: *var,
                    etype: *etype,
                    type_name: type_name.clone(),
                }],
                ats: false,
                agg: false,
            };
            for f in &leaf.filters {
                if !cx.catalog.declares(*etype, f.attr) {
                    cx.err(
                        TypeCode::UnknownAttribute,
                        label,
                        format!(
                            "filter `{f}` reads attribute `{}`, undeclared by source \
                             {type_name}",
                            f.attr
                        ),
                    );
                }
            }
            for p in predicates {
                cx.check_pred(label, p, std::slice::from_ref(&row));
            }
            let schema = EdgeSchema {
                variants: vec![row],
                // `Tuple::from_event` sets key = event id.
                key: KeyProvenance::SensorId(*var),
            };
            (schema, ShardSafety::Stateless)
        }

        PlanNode::Join {
            windowing,
            partitioning,
            order_pairs,
            predicates,
            span_ms,
            ats_check,
            key_pair,
            ..
        } => {
            let (l, r) = (&children[0].schema, &children[1].schema);
            match *windowing {
                JoinWindowing::Sliding { size, slide } => {
                    let (size, slide) = (size.millis(), slide.millis());
                    if slide <= 0 || slide > size {
                        cx.err(
                            TypeCode::SlidingSlideExceedsSize,
                            label,
                            format!(
                                "sliding windowing requires 0 < slide ≤ size, got slide \
                                 {slide}ms, size {size}ms"
                            ),
                        );
                    }
                    if size != w_ms {
                        cx.err(
                            TypeCode::WindowOutOfRange,
                            label,
                            format!(
                                "sliding join size {size}ms must equal the pattern window \
                                 {w_ms}ms: a larger size admits pairs no half-open window \
                                 [k·s, k·s + W) co-hosts, a smaller one silently drops \
                                 matches"
                            ),
                        );
                    }
                }
                JoinWindowing::Interval { lower, upper } => {
                    let (lo, hi) = (lower.millis(), upper.millis());
                    if lo >= hi {
                        cx.err(
                            TypeCode::IntervalBoundsInverted,
                            label,
                            format!("interval join requires lower < upper, got [{lo}ms, {hi}ms]"),
                        );
                    }
                    if lo < -w_ms || hi > w_ms {
                        cx.err(
                            TypeCode::IntervalExceedsWindow,
                            label,
                            format!(
                                "exclusive interval bounds ({lo}ms, {hi}ms) exceed ±{w_ms}ms; \
                                 upper = W is the half-open maximum (ts diff ≤ W − 1ms), \
                                 anything wider admits pairs no window [k·s, k·s + W) \
                                 co-hosts"
                            ),
                        );
                    }
                }
            }
            if *span_ms != w_ms {
                cx.err(
                    TypeCode::SpanMismatch,
                    label,
                    format!("span guard {span_ms}ms differs from the pattern window {w_ms}ms"),
                );
            }

            // Variant product: each left shape can meet each right shape.
            let mut variants = Vec::new();
            for lv in &l.variants {
                for rv in &r.variants {
                    if let Some(dup) = lv
                        .columns
                        .iter()
                        .find(|c| rv.columns.iter().any(|d| d.var == c.var))
                    {
                        cx.err(
                            TypeCode::DuplicateColumn,
                            label,
                            format!(
                                "both sides bind e{} — the output layout would carry \
                                 a duplicate column",
                                dup.var + 1
                            ),
                        );
                    }
                    let mut columns = lv.columns.clone();
                    columns.extend(rv.columns.iter().cloned());
                    variants.push(RowSchema {
                        columns,
                        // `Tuple::join` propagates ats = l.ats.or(r.ats) …
                        ats: lv.ats || rv.ats,
                        // … and always clears agg.
                        agg: false,
                    });
                }
            }

            for p in predicates {
                cx.check_pred(label, p, &variants);
            }
            for (a, b) in order_pairs {
                if !binds(&variants, *a) || !binds(&variants, *b) {
                    cx.err(
                        TypeCode::UnboundVariable,
                        label,
                        format!(
                            "ordering e{}.ts < e{}.ts references a variable not bound by \
                             the join's inputs",
                            a + 1,
                            b + 1
                        ),
                    );
                }
            }
            if let Some(v) = ats_check {
                if !binds(&r.variants, *v) {
                    cx.err(
                        TypeCode::UnboundVariable,
                        label,
                        format!("ats ≥ e{}.ts but the right side does not bind it", v + 1),
                    );
                }
                if !l.variants.iter().chain(&r.variants).any(|v| v.ats) {
                    cx.err(
                        TypeCode::AtsWithoutProvider,
                        label,
                        "join checks the ats annotation but no input can carry one — \
                         every candidate match is statically rejected",
                    );
                }
            }

            let key = match (partitioning, key_pair) {
                (Partitioning::Global, None) => KeyProvenance::Uniform,
                (Partitioning::Global, Some(_)) => {
                    cx.err(
                        TypeCode::JoinKeyNotCoPartitioned,
                        label,
                        "Global partitioning with a key pair (the key would never be used)",
                    );
                    KeyProvenance::Uniform
                }
                (Partitioning::ByKey, None) => {
                    cx.err(
                        TypeCode::JoinKeyNotCoPartitioned,
                        label,
                        "ByKey partitioning without a key pair",
                    );
                    KeyProvenance::Mixed
                }
                (Partitioning::ByKey, Some((kl, kr))) => {
                    if !binds(&l.variants, *kl) || !binds(&r.variants, *kr) {
                        cx.err(
                            TypeCode::JoinKeyNotCoPartitioned,
                            label,
                            format!(
                                "key pair (e{}, e{}) not drawn from the left / right side",
                                kl + 1,
                                kr + 1
                            ),
                        );
                    } else if !cx.classes.same(*kl, *kr) {
                        cx.err(
                            TypeCode::JoinKeyNotCoPartitioned,
                            label,
                            format!(
                                "key pair (e{}, e{}) is not connected by the plan's \
                                 equi-key predicates — hashing each side by its own id \
                                 would separate matching pairs and silently lose matches",
                                kl + 1,
                                kr + 1
                            ),
                        );
                    }
                    // Physical planner re-keys the left side on kl; the join
                    // output keeps the left key.
                    KeyProvenance::SensorId(*kl)
                }
            };
            let safety = match partitioning {
                Partitioning::ByKey => ShardSafety::ShardableByKey,
                Partitioning::Global => ShardSafety::GlobalOnly,
            };
            (EdgeSchema { variants, key }, safety)
        }

        PlanNode::Union { inputs } => {
            if inputs.len() < 2 {
                cx.err(
                    TypeCode::EmptyUnion,
                    label,
                    format!("union has {} input(s); it needs at least two", inputs.len()),
                );
            }
            // The physical planner projects every non-aggregate branch into
            // canonical (ascending-VarId) order before the union, so the
            // edge carries canonicalized variants.
            let mut variants = Vec::new();
            for (child, input) in children.iter().zip(inputs) {
                for v in &child.schema.variants {
                    let mut canon = v.clone();
                    if !matches!(input, PlanNode::Aggregate { .. }) {
                        canon.columns.sort_by_key(|c| c.var);
                    }
                    variants.push(canon);
                }
            }
            let key = children
                .iter()
                .map(|c| c.schema.key)
                .reduce(|a, b| if a == b { a } else { KeyProvenance::Mixed })
                .unwrap_or(KeyProvenance::Mixed);
            (EdgeSchema { variants, key }, ShardSafety::Stateless)
        }

        PlanNode::Aggregate {
            m,
            window,
            partitioning,
            ..
        } => {
            let c = &children[0].schema;
            if *m == 0 {
                cx.err(
                    TypeCode::AggregateCountZero,
                    label,
                    "count ≥ 0 holds vacuously; m must be at least 1",
                );
            }
            let (size, slide) = (window.size.millis(), window.slide.millis());
            if slide <= 0 || slide > size {
                cx.err(
                    TypeCode::SlidingSlideExceedsSize,
                    label,
                    format!(
                        "aggregation window requires 0 < slide ≤ size, got slide {slide}ms, \
                         size {size}ms"
                    ),
                );
            }
            if size != w_ms {
                cx.err(
                    TypeCode::WindowOutOfRange,
                    label,
                    format!(
                        "aggregation window size {size}ms must equal the pattern window \
                         {w_ms}ms (the count is defined over the half-open pattern windows)"
                    ),
                );
            }
            if c.variants.iter().any(|v| v.columns.len() != 1) {
                cx.err(
                    TypeCode::AggregateOverComposite,
                    label,
                    "count aggregation is defined over single scanned events, but \
                     the input carries composite tuples",
                );
            }
            // The aggregate emits a representative (last-contributing)
            // tuple with the pane key and agg populated.
            let variants: Vec<RowSchema> = c
                .variants
                .iter()
                .map(|v| RowSchema {
                    agg: true,
                    ..v.clone()
                })
                .collect();
            let (key, safety) = match partitioning {
                Partitioning::ByKey => {
                    if !matches!(c.key, KeyProvenance::SensorId(_)) {
                        cx.err(
                            TypeCode::AggregateKeyProvenance,
                            label,
                            format!(
                                "ByKey aggregation requires a sensor-id-keyed input, \
                                 but the input key is {} — per-key counts would be \
                                 grouped arbitrarily",
                                c.key
                            ),
                        );
                    }
                    (c.key, ShardSafety::ShardableByKey)
                }
                Partitioning::Global => (KeyProvenance::Uniform, ShardSafety::GlobalOnly),
            };
            (EdgeSchema { variants, key }, safety)
        }

        PlanNode::NextOccurrence { w, .. } => {
            if w.millis() <= 0 || w.millis() > w_ms {
                cx.err(
                    TypeCode::WindowOutOfRange,
                    label,
                    format!("hold duration {}ms outside (0, {w_ms}ms]", w.millis()),
                );
            }
            let c = &children[0].schema;
            // The UDF re-emits each trigger annotated with ats (always
            // populated: next marker ts, or ts + W when none arrives).
            let variants: Vec<RowSchema> = c
                .variants
                .iter()
                .map(|v| RowSchema {
                    ats: true,
                    ..v.clone()
                })
                .collect();
            // Holds cross-key trigger/marker state in one instance.
            (
                EdgeSchema {
                    variants,
                    key: c.key,
                },
                ShardSafety::GlobalOnly,
            )
        }

        PlanNode::Project { layout, .. } => {
            let c = &children[0].schema;
            let variants = if let [only] = c.variants.as_slice() {
                let mut in_vars = only.layout();
                let mut out_vars = layout.clone();
                in_vars.sort_unstable();
                out_vars.sort_unstable();
                if in_vars == out_vars {
                    let columns = layout
                        .iter()
                        .filter_map(|v| only.columns.iter().find(|c| c.var == *v).cloned())
                        .collect();
                    vec![RowSchema {
                        columns,
                        ats: only.ats,
                        agg: only.agg,
                    }]
                } else {
                    cx.err(
                        TypeCode::ProjectionLayoutMismatch,
                        label,
                        format!(
                            "projection layout {:?} is not a permutation of the \
                             input columns {:?}",
                            layout,
                            only.layout()
                        ),
                    );
                    c.variants.clone()
                }
            } else {
                cx.err(
                    TypeCode::ProjectionLayoutMismatch,
                    label,
                    format!(
                        "projection over a {}-variant input has no single layout \
                         to permute",
                        c.variants.len()
                    ),
                );
                c.variants.clone()
            };
            (
                EdgeSchema {
                    variants,
                    key: c.key,
                },
                ShardSafety::Stateless,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp::event::EventType;
    use asp::time::Duration;
    use sea::pattern::{Leaf, WindowSpec};
    use sea::predicate::{CmpOp, Predicate};

    use crate::plan::JoinWindowing;

    fn scan(t: u16, var: VarId) -> PlanNode {
        PlanNode::Scan {
            etype: EventType(t),
            type_name: format!("T{t}"),
            leaf: Leaf::new(EventType(t), format!("T{t}"), format!("e{}", var + 1)),
            var,
            predicates: vec![],
        }
    }

    fn join(left: PlanNode, right: PlanNode) -> PlanNode {
        PlanNode::Join {
            left: Box::new(left),
            right: Box::new(right),
            windowing: JoinWindowing::Sliding {
                size: Duration::from_minutes(4),
                slide: Duration::from_minutes(1),
            },
            partitioning: Partitioning::Global,
            order_pairs: vec![],
            predicates: vec![],
            span_ms: 4 * asp::time::MINUTE_MS,
            ats_check: None,
            key_pair: None,
        }
    }

    fn plan(root: PlanNode) -> LogicalPlan {
        LogicalPlan {
            root,
            positions: 2,
            mapping: "test".into(),
            window: WindowSpec::minutes(4),
        }
    }

    fn codes(p: &LogicalPlan) -> Vec<TypeCode> {
        typecheck(p)
            .diagnostics
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    /// Mutate the root join of `join(scan e1, scan e2)` in place.
    fn with_join(f: impl FnOnce(&mut PlanNode)) -> LogicalPlan {
        let mut root = join(scan(0, 0), scan(1, 1));
        f(&mut root);
        plan(root)
    }

    fn with_windowing(w: JoinWindowing) -> LogicalPlan {
        with_join(|j| {
            if let PlanNode::Join { windowing, .. } = j {
                *windowing = w;
            }
        })
    }

    #[test]
    fn clean_join_infers_schema_and_key() {
        let res = typecheck(&plan(join(scan(0, 0), scan(1, 1))));
        assert!(res.is_clean(), "{}", res.render());
        assert_eq!(res.root.schema.variants.len(), 1);
        assert_eq!(res.root.schema.variants[0].layout(), vec![0, 1]);
        assert_eq!(res.root.schema.key, KeyProvenance::Uniform);
        assert_eq!(res.root.safety, ShardSafety::GlobalOnly);
        assert_eq!(res.root.children.len(), 2);
        assert_eq!(res.root.children[0].schema.key, KeyProvenance::SensorId(0));
        assert_eq!(res.root.children[0].safety, ShardSafety::Stateless);
    }

    #[test]
    fn s001_undeclared_attribute() {
        let mut root = join(scan(0, 0), scan(1, 1));
        if let PlanNode::Join { predicates, .. } = &mut root {
            predicates.push(Predicate::cross(0, Attr::Lat, CmpOp::Lt, 1, Attr::Lat));
        }
        let p = plan(root);
        let mut cat = SchemaCatalog::new();
        cat.declare(EventType(0), "T0", &[Attr::Value]);
        let res = typecheck_with(&p, &cat);
        let codes: Vec<TypeCode> = res.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![TypeCode::UnknownAttribute]);
        // Permissive catalog accepts the same plan.
        assert!(typecheck(&p).is_clean());
    }

    #[test]
    fn s002_scan_leaf_type_clash() {
        let mut s = scan(0, 0);
        if let PlanNode::Scan { etype, .. } = &mut s {
            *etype = EventType(9);
        }
        assert_eq!(codes(&plan(s)), vec![TypeCode::InconsistentVarType]);
    }

    #[test]
    fn s003_duplicate_column() {
        let p = plan(join(scan(0, 0), scan(1, 0)));
        assert!(codes(&p).contains(&TypeCode::DuplicateColumn));
    }

    #[test]
    fn s003_rebinding_across_union_branches_is_allowed() {
        // Each union branch is its own match scope.
        let u = PlanNode::Union {
            inputs: vec![join(scan(0, 0), scan(1, 1)), join(scan(0, 0), scan(2, 1))],
        };
        let res = typecheck(&plan(u));
        assert!(res.is_clean(), "{}", res.render());
    }

    #[test]
    fn s004_layout_permutation_rejected() {
        // e3 is not a column of the input {e1, e2}.
        let root = PlanNode::Project {
            input: Box::new(join(scan(0, 0), scan(1, 1))),
            layout: vec![0, 2],
        };
        assert_eq!(codes(&plan(root)), vec![TypeCode::ProjectionLayoutMismatch]);
        // A true permutation is accepted and reorders the columns.
        let ok = PlanNode::Project {
            input: Box::new(join(scan(0, 0), scan(1, 1))),
            layout: vec![1, 0],
        };
        let res = typecheck(&plan(ok));
        assert!(res.is_clean(), "{}", res.render());
        assert_eq!(res.root.schema.variants[0].layout(), vec![1, 0]);
        assert_eq!(res.root.safety, ShardSafety::Stateless);
    }

    #[test]
    fn s005_miskeyed_join_rejected() {
        // ByKey with key pair (e1, e2) but the only equi-key predicate
        // relates e1 to itself — nothing proves id(e1) = id(e2).
        let mut root = join(scan(0, 0), scan(1, 1));
        if let PlanNode::Join {
            partitioning,
            key_pair,
            ..
        } = &mut root
        {
            *partitioning = Partitioning::ByKey;
            *key_pair = Some((0, 1));
        }
        assert_eq!(codes(&plan(root)), vec![TypeCode::JoinKeyNotCoPartitioned]);
        // ByKey without a key pair, Global with one, and a pair drawn from
        // the wrong sides are the same defect.
        for (p, k) in [
            (Partitioning::ByKey, None),
            (Partitioning::Global, Some((0, 1))),
            (Partitioning::ByKey, Some((1, 0))),
        ] {
            let bad = with_join(|j| {
                if let PlanNode::Join {
                    partitioning,
                    key_pair,
                    ..
                } = j
                {
                    *partitioning = p;
                    *key_pair = k;
                }
            });
            assert_eq!(
                codes(&bad),
                vec![TypeCode::JoinKeyNotCoPartitioned],
                "{p} {k:?}"
            );
        }
        // With the equi-key predicate attached, the same plan is sound.
        let mut ok = join(scan(0, 0), scan(1, 1));
        if let PlanNode::Join {
            partitioning,
            key_pair,
            predicates,
            ..
        } = &mut ok
        {
            *partitioning = Partitioning::ByKey;
            *key_pair = Some((0, 1));
            predicates.push(Predicate::same_id(0, 1));
        }
        let res = typecheck(&plan(ok));
        assert!(res.is_clean(), "{}", res.render());
        assert_eq!(res.root.schema.key, KeyProvenance::SensorId(0));
        assert_eq!(res.root.safety, ShardSafety::ShardableByKey);
    }

    #[test]
    fn s006_global_input_to_bykey_aggregate() {
        let root = PlanNode::Aggregate {
            input: Box::new(join(scan(0, 0), scan(1, 1))),
            m: 2,
            window: WindowSpec::minutes(4),
            partitioning: Partitioning::ByKey,
        };
        let found = codes(&plan(root));
        assert!(
            found.contains(&TypeCode::AggregateKeyProvenance),
            "{found:?}"
        );
    }

    #[test]
    fn s007_ats_check_without_provider() {
        let mut root = join(scan(0, 0), scan(1, 1));
        if let PlanNode::Join { ats_check, .. } = &mut root {
            *ats_check = Some(1);
        }
        assert_eq!(codes(&plan(root)), vec![TypeCode::AtsWithoutProvider]);
    }

    #[test]
    fn s008_aggregate_over_composite() {
        let root = PlanNode::Aggregate {
            input: Box::new(join(scan(0, 0), scan(1, 1))),
            m: 2,
            window: WindowSpec::minutes(4),
            partitioning: Partitioning::Global,
        };
        assert_eq!(codes(&plan(root)), vec![TypeCode::AggregateOverComposite]);
    }

    #[test]
    fn next_occurrence_provides_ats_downstream() {
        // NSEQ shape: NextOccurrence feeds the left side of an ats-checked
        // join — no S007.
        let mut root = join(
            PlanNode::NextOccurrence {
                trigger: Box::new(scan(0, 0)),
                marker: Leaf::new(EventType(7), "N", "n"),
                w: Duration::from_minutes(4),
            },
            scan(1, 1),
        );
        if let PlanNode::Join { ats_check, .. } = &mut root {
            *ats_check = Some(1);
        }
        let res = typecheck(&plan(root));
        assert!(res.is_clean(), "{}", res.render());
        let no = &res.root.children[0];
        assert!(no.schema.variants[0].ats);
        assert_eq!(no.safety, ShardSafety::GlobalOnly);
        // The join output inherits the ats channel.
        assert!(res.root.schema.variants[0].ats);
    }

    #[test]
    fn union_of_mixed_keys_is_mixed() {
        let p = plan(PlanNode::Union {
            inputs: vec![scan(0, 0), scan(1, 1)],
        });
        let res = typecheck(&p);
        assert!(res.is_clean());
        assert_eq!(res.root.schema.key, KeyProvenance::Mixed);
        assert_eq!(res.root.schema.variants.len(), 2);
    }

    #[test]
    fn s009_unbound_variables() {
        // A join predicate over e8, which neither side binds.
        let p = with_join(|j| {
            if let PlanNode::Join { predicates, .. } = j {
                predicates.push(Predicate::cross(0, Attr::Value, CmpOp::Le, 7, Attr::Value));
            }
        });
        let res = typecheck(&p);
        let d = res
            .diagnostics
            .iter()
            .find(|d| d.code == TypeCode::UnboundVariable)
            .expect("S009");
        assert!(d.message.contains("e8"), "{}", d.message);
        // A scan predicate reaching for another scan's variable.
        let mut s = scan(0, 0);
        if let PlanNode::Scan { predicates, .. } = &mut s {
            predicates.push(Predicate::cross(0, Attr::Value, CmpOp::Le, 1, Attr::Value));
        }
        assert_eq!(
            codes(&plan(join(s, scan(1, 1)))),
            vec![TypeCode::UnboundVariable]
        );
        // An ordering constraint over e10.
        let p = with_join(|j| {
            if let PlanNode::Join { order_pairs, .. } = j {
                order_pairs.push((0, 9));
            }
        });
        assert_eq!(codes(&p), vec![TypeCode::UnboundVariable]);
        // An ats check on a variable the LEFT side binds.
        let p = with_join(|j| {
            if let PlanNode::Join { ats_check, .. } = j {
                *ats_check = Some(0);
            }
        });
        assert!(codes(&p).contains(&TypeCode::UnboundVariable));
    }

    #[test]
    fn s010_sliding_slide_exceeds_size() {
        let p = with_windowing(JoinWindowing::Sliding {
            size: Duration::from_minutes(4),
            slide: Duration::from_minutes(5),
        });
        assert_eq!(codes(&p), vec![TypeCode::SlidingSlideExceedsSize]);
    }

    #[test]
    fn s011_interval_bounds_inverted() {
        let p = with_windowing(JoinWindowing::Interval {
            lower: Duration::from_minutes(4),
            upper: Duration::ZERO,
        });
        assert_eq!(codes(&p), vec![TypeCode::IntervalBoundsInverted]);
    }

    #[test]
    fn s012_interval_exceeds_window() {
        let p = with_windowing(JoinWindowing::Interval {
            lower: Duration::ZERO,
            upper: Duration::from_minutes(99),
        });
        assert_eq!(codes(&p), vec![TypeCode::IntervalExceedsWindow]);
    }

    #[test]
    fn interval_upper_equal_to_window_is_half_open_clean() {
        // Regression (boundary convention): the interval bounds are
        // EXCLUSIVE, so upper = W caps the ts difference at W − 1ms —
        // exactly the half-open maximum. This must check clean; one
        // millisecond more must not.
        let p = with_windowing(JoinWindowing::Interval {
            lower: Duration::ZERO,
            upper: Duration::from_minutes(4), // == pattern window
        });
        assert!(typecheck(&p).is_clean(), "{}", typecheck(&p).render());
        let p = with_windowing(JoinWindowing::Interval {
            lower: Duration::ZERO,
            upper: Duration::from_millis(4 * asp::time::MINUTE_MS + 1),
        });
        assert_eq!(codes(&p), vec![TypeCode::IntervalExceedsWindow]);
    }

    #[test]
    fn s013_window_out_of_range() {
        // NextOccurrence holding longer than the pattern window.
        let n = PlanNode::NextOccurrence {
            trigger: Box::new(scan(0, 0)),
            marker: Leaf::new(EventType(5), "M", "m"),
            w: Duration::from_minutes(99),
        };
        assert_eq!(
            codes(&plan(join(n, scan(1, 1)))),
            vec![TypeCode::WindowOutOfRange]
        );
        // Non-positive pattern window.
        let mut p = plan(join(scan(0, 0), scan(1, 1)));
        p.window.size = Duration::ZERO;
        assert!(codes(&p).contains(&TypeCode::WindowOutOfRange));
        // Regression (boundary convention): a sliding join sized 2W admits
        // pairs up to 2W − 1ms apart, which no half-open pattern window
        // [k·s, k·s + W) ever co-hosts; size W/2 loses matches. Both are
        // S013, independent of the S010 slide rule.
        for size in [8, 2] {
            let p = with_windowing(JoinWindowing::Sliding {
                size: Duration::from_minutes(size),
                slide: Duration::from_minutes(1),
            });
            assert_eq!(codes(&p), vec![TypeCode::WindowOutOfRange], "size {size}");
        }
        // An aggregate counting over a window other than the pattern's.
        let a = PlanNode::Aggregate {
            input: Box::new(scan(0, 0)),
            m: 2,
            window: WindowSpec::minutes(8),
            partitioning: Partitioning::Global,
        };
        assert_eq!(codes(&plan(a)), vec![TypeCode::WindowOutOfRange]);
    }

    #[test]
    fn s014_empty_union() {
        let p = plan(PlanNode::Union {
            inputs: vec![scan(0, 0)],
        });
        assert_eq!(codes(&p), vec![TypeCode::EmptyUnion]);
    }

    #[test]
    fn s015_aggregate_count_zero() {
        let a = PlanNode::Aggregate {
            input: Box::new(scan(0, 0)),
            m: 0,
            window: WindowSpec::minutes(4),
            partitioning: Partitioning::Global,
        };
        assert_eq!(codes(&plan(a)), vec![TypeCode::AggregateCountZero]);
    }

    #[test]
    fn s016_span_mismatch() {
        let p = with_join(|j| {
            if let PlanNode::Join { span_ms, .. } = j {
                *span_ms = 123;
            }
        });
        assert_eq!(codes(&p), vec![TypeCode::SpanMismatch]);
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let res = typecheck(&plan(join(scan(0, 0), scan(1, 1))));
        let j = res.to_json();
        assert!(j.starts_with("{\"clean\":true"), "{j}");
        assert!(j.contains("\"kind\":\"uniform\""), "{j}");
        assert!(j.contains("\"safety\":\"global-only\""), "{j}");
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces: {j}"
        );
    }
}
