//! The logical ASP query plan produced by the operator mapping
//! (paper Section 4, Table 1).
//!
//! A plan is a tree of relational stream operators: typed scans (with
//! pushed-down selections), window joins (sliding or interval — O1), set
//! union, count aggregation (O2), and the NSEQ next-occurrence rewrite.
//! Each node tracks its *layout* — which pattern positions its output
//! tuples' constituent events occupy — so that predicates and ordering
//! constraints stay checkable under arbitrary join orders (the manual
//! join-reordering opportunity of Section 4.2.2).

use std::fmt;

use asp::event::EventType;
use asp::time::Duration;

use sea::pattern::{Leaf, WindowSpec};
use sea::predicate::{Predicate, VarId};

/// How a join discretizes time (Section 4.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinWindowing {
    /// Apriori sliding windows `(W, s)`; produces duplicates, needs a
    /// stream-dependent slide.
    Sliding {
        /// Window size `W`.
        size: Duration,
        /// Window slide `s` (0 < s ≤ W).
        slide: Duration,
    },
    /// Content-based interval join with exclusive bounds
    /// `(ts + lower, ts + upper)` — duplicate-free, slide-free (O1).
    Interval {
        /// Exclusive lower bound on `r.ts − l.ts` (negative for AND).
        lower: Duration,
        /// Exclusive upper bound on `r.ts − l.ts`.
        upper: Duration,
    },
}

impl fmt::Display for JoinWindowing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinWindowing::Sliding { size, slide } => write!(f, "SLIDING({size}, {slide})"),
            JoinWindowing::Interval { lower, upper } => write!(f, "INTERVAL({lower}, {upper})"),
        }
    }
}

/// How a join's inputs are partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// A preceding map assigns one uniform key — single partition, no
    /// parallelization potential (the Cartesian-product workaround of
    /// Section 4.2.1).
    Global,
    /// Partition by the sensor-id equi-key (O3): the join parallelizes.
    ByKey,
}

impl fmt::Display for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Partitioning::Global => write!(f, "global"),
            Partitioning::ByKey => write!(f, "by-key"),
        }
    }
}

/// A logical plan node.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Typed scan `σ_filters(T)` with pushed-down per-event selections.
    Scan {
        /// The scanned event type.
        etype: EventType,
        /// Human-readable name of the type (plan printing).
        type_name: String,
        /// The leaf carries its local filters (type test + thresholds).
        leaf: Leaf,
        /// Pattern position this scan binds.
        var: VarId,
        /// Pushed-down single-variable predicates that are not simple
        /// attribute-vs-constant thresholds (e.g. `e1.value < e1.ts`).
        predicates: Vec<Predicate>,
    },
    /// Binary window join `left ⋈ right` under the given windowing.
    Join {
        /// Left (build) input.
        left: Box<PlanNode>,
        /// Right (probe) input.
        right: Box<PlanNode>,
        /// Time discretization: sliding windows or interval bounds.
        windowing: JoinWindowing,
        /// Global or key-partitioned execution.
        partitioning: Partitioning,
        /// Ordering constraints `a.ts < b.ts` newly checkable here.
        order_pairs: Vec<(VarId, VarId)>,
        /// Cross predicates that become fully bound at this join.
        predicates: Vec<Predicate>,
        /// Enforce `span(all bound events) < W` (always on for
        /// correctness under composite inputs — see DESIGN.md).
        span_ms: i64,
        /// Check the NSEQ annotation `left.ats ≥ right-var ts` here.
        ats_check: Option<VarId>,
        /// For [`Partitioning::ByKey`]: the pattern variables (one per
        /// side) whose sensor id is the partition key. The physical
        /// planner re-keys each input on its variable so the sides are
        /// co-partitioned even when an input comes from a global join.
        key_pair: Option<(VarId, VarId)>,
    },
    /// Set union of schema-compatible branches (the OR mapping).
    Union {
        /// The unioned branches (≥ 2).
        inputs: Vec<PlanNode>,
    },
    /// Windowed count-aggregation `γ_{count ≥ m}` (the O2 ITER mapping).
    Aggregate {
        /// The aggregated input.
        input: Box<PlanNode>,
        /// Emit a window iff it holds at least `m` constituents.
        m: u64,
        /// The window/slide the aggregation is computed over.
        window: WindowSpec,
        /// Global or key-partitioned execution.
        partitioning: Partitioning,
    },
    /// The NSEQ rewrite UDF: annotate each trigger with the ts of the next
    /// marker within `W` (`ats`).
    NextOccurrence {
        /// Producer of candidate (trigger) tuples.
        trigger: Box<PlanNode>,
        /// The negated leaf whose next occurrence is sought.
        marker: Leaf,
        /// How far ahead to look for the marker.
        w: Duration,
    },
    /// Explicit layout permutation `π_layout` — reorder the input's
    /// constituent events into the declared position order. The physical
    /// planner lowers it to a stateless map; the typechecker rejects a
    /// layout that is not a permutation of the input's columns (S004).
    Project {
        /// The projected input.
        input: Box<PlanNode>,
        /// Output position order; must be a permutation of
        /// `input.layout()`.
        layout: Vec<VarId>,
    },
}

impl PlanNode {
    /// Pattern positions of this node's output constituents, in tuple
    /// order (empty for summary outputs like aggregates and mixed unions).
    pub fn layout(&self) -> Vec<VarId> {
        match self {
            PlanNode::Scan { var, .. } => vec![*var],
            PlanNode::Join { left, right, .. } => {
                let mut l = left.layout();
                l.extend(right.layout());
                l
            }
            PlanNode::Union { .. } => Vec::new(),
            PlanNode::Aggregate { .. } => Vec::new(),
            PlanNode::NextOccurrence { trigger, .. } => trigger.layout(),
            PlanNode::Project { layout, .. } => layout.clone(),
        }
    }

    /// The node's inputs in plan order: a join's left then right side, a
    /// union's branches in order, the single input of every other operator.
    /// Borrows without allocating, so whole-tree walks stay cheap.
    pub fn children(&self) -> impl Iterator<Item = &PlanNode> {
        let (boxed, inputs): ([Option<&PlanNode>; 2], &[PlanNode]) = match self {
            PlanNode::Scan { .. } => ([None, None], &[]),
            PlanNode::Join { left, right, .. } => {
                ([Some(left.as_ref()), Some(right.as_ref())], &[])
            }
            PlanNode::Union { inputs } => ([None, None], inputs),
            PlanNode::Aggregate { input, .. }
            | PlanNode::NextOccurrence { trigger: input, .. }
            | PlanNode::Project { input, .. } => ([Some(input.as_ref()), None], &[]),
        };
        boxed.into_iter().flatten().chain(inputs)
    }

    /// The one-line operator label shared by the typed, analyzed and
    /// migration trees (`Scan V [e2]`, `Join INTERVAL(0min, 4min) [by-key]`, …).
    pub fn label(&self) -> String {
        match self {
            PlanNode::Scan { type_name, var, .. } => format!("Scan {type_name} [e{}]", var + 1),
            PlanNode::Join {
                windowing,
                partitioning,
                ..
            } => format!("Join {windowing} [{partitioning}]"),
            PlanNode::Union { .. } => "Union".to_string(),
            PlanNode::Aggregate {
                m, partitioning, ..
            } => {
                format!("Aggregate count ≥ {m} [{partitioning}]")
            }
            PlanNode::NextOccurrence { marker, .. } => {
                format!("NextOccurrence(¬{})", marker.type_name)
            }
            PlanNode::Project { layout, .. } => {
                let cols: Vec<String> = layout.iter().map(|v| format!("e{}", v + 1)).collect();
                format!("Project [{}]", cols.join(", "))
            }
        }
    }

    /// Number of join operators in the plan — the decomposition degree the
    /// paper contrasts with the single CEP operator.
    pub fn join_count(&self) -> usize {
        usize::from(matches!(self, PlanNode::Join { .. }))
            + self.children().map(PlanNode::join_count).sum::<usize>()
    }

    /// All scans in the plan, left to right.
    pub fn scans(&self) -> Vec<&PlanNode> {
        let mut out = Vec::new();
        self.collect_scans(&mut out);
        out
    }

    fn collect_scans<'a>(&'a self, out: &mut Vec<&'a PlanNode>) {
        if matches!(self, PlanNode::Scan { .. }) {
            out.push(self);
        }
        self.children().for_each(|c| c.collect_scans(out));
    }

    /// Render an `EXPLAIN`-style indented tree.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.explain_into(&mut s, 0);
        s
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let line = match self {
            PlanNode::Scan {
                leaf, predicates, ..
            } => {
                let mut filters: Vec<String> =
                    leaf.filters.iter().map(|f| format!("{f}")).collect();
                filters.extend(predicates.iter().map(|p| p.to_string()));
                if filters.is_empty() {
                    self.label()
                } else {
                    format!("{} σ({})", self.label(), filters.join(" ∧ "))
                }
            }
            PlanNode::Join {
                order_pairs,
                predicates,
                ats_check,
                ..
            } => {
                let mut conds: Vec<String> = order_pairs
                    .iter()
                    .map(|(a, b)| format!("e{}.ts < e{}.ts", a + 1, b + 1))
                    .collect();
                conds.extend(predicates.iter().map(|p| p.to_string()));
                if let Some(v) = ats_check {
                    conds.push(format!("ats ≥ e{}.ts", v + 1));
                }
                if conds.is_empty() {
                    format!("{} (cross)", self.label())
                } else {
                    format!("{} on {}", self.label(), conds.join(" ∧ "))
                }
            }
            PlanNode::Aggregate {
                m,
                window,
                partitioning,
                ..
            } => format!(
                "Aggregate count ≥ {m} over SLIDING({}, {}) [{partitioning}]",
                window.size, window.slide
            ),
            PlanNode::NextOccurrence { marker, w, .. } => {
                format!("NextOccurrence(¬{} within {w}) → ats", marker.type_name)
            }
            PlanNode::Union { .. } | PlanNode::Project { .. } => self.label(),
        };
        let _ = writeln!(out, "{}{line}", "  ".repeat(depth));
        for c in self.children() {
            c.explain_into(out, depth + 1);
        }
    }
}

/// A complete logical plan: the root node plus pattern-level metadata.
#[derive(Debug, Clone)]
pub struct LogicalPlan {
    /// The plan's root operator.
    pub root: PlanNode,
    /// Total bound positions of the pattern.
    pub positions: usize,
    /// Human-readable description of which mapping produced this plan.
    pub mapping: String,
    /// The pattern's window, kept so [`mod@crate::typecheck`] can bound-check
    /// join windowing and UDF hold durations against the enclosing window.
    pub window: WindowSpec,
}

impl LogicalPlan {
    /// Render an `EXPLAIN`-style tree with the mapping header line.
    pub fn explain(&self) -> String {
        format!("-- mapping: {}\n{}", self.mapping, self.root.explain())
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp::event::EventType;

    fn scan(t: u16, var: VarId) -> PlanNode {
        PlanNode::Scan {
            etype: EventType(t),
            type_name: format!("T{t}"),
            leaf: Leaf::new(EventType(t), format!("T{t}"), format!("e{}", var + 1)),
            var,
            predicates: vec![],
        }
    }

    #[test]
    fn layout_concatenates_left_to_right() {
        let j = PlanNode::Join {
            left: Box::new(scan(0, 2)),
            right: Box::new(scan(1, 0)),
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
        };
        assert_eq!(j.layout(), vec![2, 0]);
        assert_eq!(j.join_count(), 1);
        assert_eq!(j.scans().len(), 2);
    }

    #[test]
    fn explain_renders_tree() {
        let j = PlanNode::Join {
            left: Box::new(scan(0, 0)),
            right: Box::new(scan(1, 1)),
            windowing: JoinWindowing::Interval {
                lower: Duration::ZERO,
                upper: Duration::from_minutes(4),
            },
            partitioning: Partitioning::ByKey,
            order_pairs: vec![(0, 1)],
            predicates: vec![],
            span_ms: 4 * asp::time::MINUTE_MS,
            ats_check: None,
            key_pair: Some((0, 1)),
        };
        let text = j.explain();
        assert!(
            text.contains("Join INTERVAL(0min, 4min) [by-key] on e1.ts < e2.ts"),
            "{text}"
        );
        assert!(text.contains("Scan T0 [e1]"), "{text}");
    }
}
