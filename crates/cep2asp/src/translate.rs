//! Pattern → logical-plan translation: the operator mapping of Section 4.
//!
//! | SEA operator | ASP plan (Table 1) |
//! |---|---|
//! | conjunction  | Cartesian product / window join (`⋈` with no order constraint) |
//! | sequence     | theta join on event-time order |
//! | disjunction  | set union (after schema alignment) |
//! | iteration    | chain of theta self-joins, or `γ_{count ≥ m}` (O2) |
//! | negated seq. | next-occurrence UDF + theta join + `σ_{ats ≥ e3.ts}` |
//!
//! The translator decomposes the pattern into one operator per SEA
//! operator — the decomposition that unlocks pipeline parallelism — and
//! applies the three optimizations the paper studies: O1 (interval joins),
//! O2 (aggregation for iterations), O3 (equi-join key partitioning).
//!
//! Disjunctions nested under sequences/conjunctions are handled by
//! *distribution*: `SEQ(A, OR(B, C)) ≡ OR(SEQ(A, B), SEQ(A, C))` — each
//! variant is planned separately and the results unioned, preserving the
//! per-branch layouts that positional predicates need.

use std::fmt;

use asp::time::Duration;

use sea::pattern::{Pattern, PatternExpr};
use sea::predicate::{Predicate, VarId};

use crate::plan::{JoinWindowing, LogicalPlan, Partitioning, PlanNode};

/// How sequences/iterations order their join tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum JoinOrder {
    /// Left-deep in textual order.
    #[default]
    Textual,
    /// Left-deep over the given permutation of the top-level parts — the
    /// manual frequency-based reordering of Section 4.2.2 (e.g. put the
    /// least frequent stream first so interval joins open fewer windows).
    Permutation(Vec<usize>),
}

/// Mapping configuration: which of the paper's optimizations to apply.
#[derive(Debug, Clone, Default)]
pub struct MapperOptions {
    /// O1: use interval joins instead of sliding-window joins.
    pub interval_join: bool,
    /// O2: map iterations to windowed count aggregations. Approximate for
    /// patterns with constraints *between* contributing events (the count
    /// ignores them, per Section 4.3.2).
    pub aggregate_iteration: bool,
    /// O3: partition joins by the sensor-id equi-key where the pattern
    /// provides one.
    pub partition_by_key: bool,
    /// Join-order hint for top-level sequences/conjunctions.
    pub join_order: JoinOrder,
}

impl MapperOptions {
    /// Plain mapping, no optimizations (the paper's "FASP").
    pub fn plain() -> Self {
        MapperOptions::default()
    }

    /// FASP-O1.
    pub fn o1() -> Self {
        MapperOptions {
            interval_join: true,
            ..Default::default()
        }
    }

    /// FASP-O2.
    pub fn o2() -> Self {
        MapperOptions {
            aggregate_iteration: true,
            ..Default::default()
        }
    }

    /// FASP-O3.
    pub fn o3() -> Self {
        MapperOptions {
            partition_by_key: true,
            ..Default::default()
        }
    }

    /// Combine with O3 (e.g. `MapperOptions::o1().and_o3()`).
    pub fn and_o3(mut self) -> Self {
        self.partition_by_key = true;
        self
    }
}

/// Errors the mapping can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// Kleene+ (`ITER m+`) requires the O2 aggregation mapping.
    KleenePlusNeedsAggregation,
    /// Too many disjunction variants after distribution.
    DisjunctionExplosion {
        /// How many variants distribution produced.
        variants: usize,
        /// The configured cap.
        limit: usize,
    },
    /// NSEQ with identical first/absent types can't be disambiguated after
    /// the union in front of the next-occurrence UDF.
    NseqTypeClash,
    /// A predicate could not be attached anywhere in the plan.
    UnattachablePredicate(String),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::KleenePlusNeedsAggregation => {
                write!(
                    f,
                    "ITER m+ (Kleene+) requires MapperOptions::aggregate_iteration (O2)"
                )
            }
            TranslateError::DisjunctionExplosion { variants, limit } => {
                write!(
                    f,
                    "disjunction distribution produced {variants} variants (limit {limit})"
                )
            }
            TranslateError::NseqTypeClash => {
                write!(
                    f,
                    "NSEQ trigger and negated leaf must have distinct event types"
                )
            }
            TranslateError::UnattachablePredicate(p) => {
                write!(f, "predicate `{p}` could not be attached to any join")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

const MAX_VARIANTS: usize = 64;

/// Translate a validated pattern into a logical ASP plan.
pub fn translate(pattern: &Pattern, opts: &MapperOptions) -> Result<LogicalPlan, TranslateError> {
    let variants = expand_disjunctions(&pattern.expr);
    if variants.len() > MAX_VARIANTS {
        return Err(TranslateError::DisjunctionExplosion {
            variants: variants.len(),
            limit: MAX_VARIANTS,
        });
    }
    let pairs = order_pairs(&pattern.expr);

    let mut roots = Vec::with_capacity(variants.len());
    for variant in &variants {
        // The equi-key closure must be computed per disjunction variant:
        // a chain `id(a)=id(b) ∧ id(b)=id(d)` connects a and d in the
        // full pattern, but in a variant that does not bind b both
        // predicates evaluate vacuously (sparse bindings), so nothing
        // constrains id(a) = id(d) — keying an (a, d) join on that chain
        // would hash legitimate cross-sensor matches to different
        // partitions and silently lose them.
        let bound = positions_of(variant);
        let mut ctx = Ctx {
            pattern,
            opts,
            pairs: &pairs,
            pending: pattern.cross_predicates(),
            key_class: equi_key_classes(pattern, &bound),
        };
        let root = build(variant, &mut ctx)?;
        // Every cross predicate must have found a join (or reference
        // positions of other variants, where it is vacuous).
        let layout = root.layout();
        for p in &ctx.pending {
            if p.vars().iter().all(|v| layout.contains(v)) {
                return Err(TranslateError::UnattachablePredicate(p.to_string()));
            }
        }
        roots.push(root);
    }
    let root = if roots.len() == 1 {
        roots.pop().expect("one variant")
    } else {
        PlanNode::Union { inputs: roots }
    };

    let mut mapping = describe(&pattern.expr, opts);
    if opts.partition_by_key && pattern.equi_keys().is_empty() {
        mapping.push_str(" (O3 requested but no equi-key predicate: global)");
    }
    let plan = LogicalPlan {
        root,
        positions: pattern.positions(),
        mapping,
        window: pattern.window,
    };
    // Post-condition (debug builds): the mapping must emit well-formed
    // plans with consistent per-edge schemas and co-partitioned keys.
    // Released binaries skip the walk; callers can still typecheck.
    #[cfg(debug_assertions)]
    {
        let res = crate::typecheck::typecheck(&plan);
        assert!(
            res.is_clean(),
            "translate produced a plan that fails its own typecheck:\n{}",
            res.render()
        );
    }
    Ok(plan)
}

struct Ctx<'a> {
    pattern: &'a Pattern,
    opts: &'a MapperOptions,
    pairs: &'a [(VarId, VarId)],
    /// Cross predicates not yet attached to a join.
    pending: Vec<Predicate>,
    /// Transitive closure of the equi-key predicates: `key_class[v]` is
    /// the representative of v's same-id equivalence class (or `v` itself
    /// if unconstrained).
    key_class: Vec<VarId>,
}

/// All positions bound in a subtree.
fn positions_of(expr: &PatternExpr) -> Vec<VarId> {
    match expr {
        PatternExpr::Leaf(l) => vec![l.var],
        PatternExpr::Seq(ps) | PatternExpr::And(ps) | PatternExpr::Or(ps) => {
            ps.iter().flat_map(positions_of).collect()
        }
        PatternExpr::Iter { leaf, m, .. } => (leaf.var..leaf.var + m).collect(),
        PatternExpr::NegSeq { first, last, .. } => vec![first.var, last.var],
    }
}

/// The full set of `a.ts < b.ts` constraints implied by the pattern
/// structure (checked pairwise so any join order works).
fn order_pairs(expr: &PatternExpr) -> Vec<(VarId, VarId)> {
    let mut out = Vec::new();
    collect_pairs(expr, &mut out);
    out
}

fn collect_pairs(expr: &PatternExpr, out: &mut Vec<(VarId, VarId)>) {
    match expr {
        PatternExpr::Leaf(_) => {}
        PatternExpr::Seq(parts) => {
            for p in parts {
                collect_pairs(p, out);
            }
            // All ordered part combinations, not only consecutive ones:
            // the transitive pairs let reordered joins derive tight
            // interval bounds and check order as early as possible.
            for i in 0..parts.len() {
                for j in i + 1..parts.len() {
                    for a in positions_of(&parts[i]) {
                        for b in positions_of(&parts[j]) {
                            out.push((a, b));
                        }
                    }
                }
            }
        }
        PatternExpr::And(parts) | PatternExpr::Or(parts) => {
            for p in parts {
                collect_pairs(p, out);
            }
        }
        PatternExpr::Iter { leaf, m, at_least } => {
            if !at_least {
                for i in 0..m.saturating_sub(1) {
                    out.push((leaf.var + i, leaf.var + i + 1));
                }
            }
        }
        PatternExpr::NegSeq { first, last, .. } => out.push((first.var, last.var)),
    }
}

/// Distribute nested disjunctions: return the cartesian product of branch
/// choices, each a disjunction-free expression.
fn expand_disjunctions(expr: &PatternExpr) -> Vec<PatternExpr> {
    match expr {
        PatternExpr::Leaf(_) | PatternExpr::Iter { .. } | PatternExpr::NegSeq { .. } => {
            vec![expr.clone()]
        }
        PatternExpr::Or(parts) => parts.iter().flat_map(expand_disjunctions).collect(),
        PatternExpr::Seq(parts) | PatternExpr::And(parts) => {
            let is_seq = matches!(expr, PatternExpr::Seq(_));
            let mut combos: Vec<Vec<PatternExpr>> = vec![Vec::new()];
            for p in parts {
                let choices = expand_disjunctions(p);
                let mut next = Vec::with_capacity(combos.len() * choices.len());
                for c in &combos {
                    for ch in &choices {
                        let mut c = c.clone();
                        c.push(ch.clone());
                        next.push(c);
                    }
                }
                combos = next;
            }
            combos
                .into_iter()
                .map(|c| {
                    if is_seq {
                        PatternExpr::Seq(c)
                    } else {
                        PatternExpr::And(c)
                    }
                })
                .collect()
        }
    }
}

/// Pick the join's time discretization. Interval-join bounds follow the
/// *direction* of the ordering constraints between the two sides: if every
/// constraint says left-before-right the window is `(0, W)`; all
/// right-before-left gives `(-W, 0)` (a reordered sequence join); mixed or
/// absent ordering (conjunctions) falls back to the symmetric `(-W, +W)`.
fn windowing(ctx: &Ctx<'_>, order: &[(VarId, VarId)], ll: &[VarId], rl: &[VarId]) -> JoinWindowing {
    let w = ctx.pattern.window.size;
    if !ctx.opts.interval_join {
        return JoinWindowing::Sliding {
            size: w,
            slide: ctx.pattern.window.slide,
        };
    }
    // The interval is anchored at the left tuple's working timestamp, the
    // minimum of its constituents. A right event provably *after* some
    // left constituent is after that anchor, so the lower bound tightens
    // to 0; a right event provably before *every* left constituent is
    // before the anchor, so the upper bound tightens to 0. Anything else
    // keeps the symmetric conjunction bounds.
    let right_after_some_left = !rl.is_empty()
        && rl
            .iter()
            .all(|r| order.iter().any(|(a, b)| b == r && ll.contains(a)));
    let right_before_every_left = !rl.is_empty()
        && rl
            .iter()
            .all(|r| ll.iter().all(|l| order.contains(&(*r, *l))));
    let lower = if right_after_some_left {
        Duration::ZERO
    } else {
        w.neg()
    };
    let upper = if right_before_every_left {
        Duration::ZERO
    } else {
        w
    };
    JoinWindowing::Interval { lower, upper }
}

/// Union-find closure of the pattern's `a.id = b.id` predicates,
/// restricted to the positions `bound` by the current disjunction
/// variant: a predicate referencing an unbound position is vacuous in
/// this variant (sparse evaluation) and must not contribute to the
/// closure.
fn equi_key_classes(pattern: &Pattern, bound: &[VarId]) -> Vec<VarId> {
    let n = pattern.positions();
    let mut parent: Vec<VarId> = (0..n).collect();
    fn find(parent: &mut Vec<VarId>, v: VarId) -> VarId {
        if parent[v] != v {
            let root = find(parent, parent[v]);
            parent[v] = root;
        }
        parent[v]
    }
    for p in pattern.equi_keys() {
        let vs = p.vars();
        if vs.len() == 2
            && vs[0] < n
            && vs[1] < n
            && bound.contains(&vs[0])
            && bound.contains(&vs[1])
        {
            let (a, b) = (find(&mut parent, vs[0]), find(&mut parent, vs[1]));
            parent[a.max(b)] = a.min(b);
        }
    }
    for v in 0..n {
        find(&mut parent, v);
    }
    parent
}

/// Does an equi-key connect the two layouts (O3 opportunity)? Uses the
/// transitive closure: `id0 = id1 ∧ id1 = id2` keys a direct (T0, T2)
/// join as well. Returns the connecting variable pair (left, right).
fn keyed_join(ctx: &Ctx<'_>, left: &[VarId], right: &[VarId]) -> Option<(VarId, VarId)> {
    if !ctx.opts.partition_by_key {
        return None;
    }
    // Layouts are disjoint, so equal classes for an (l, r) pair can only
    // come from an equi-key chain between them.
    let class = |v: VarId| ctx.key_class.get(v).copied().unwrap_or(v);
    for l in left {
        for r in right {
            if class(*l) == class(*r) {
                return Some((*l, *r));
            }
        }
    }
    None
}

fn make_scan(ctx: &Ctx<'_>, leaf: &sea::pattern::Leaf, var: VarId) -> PlanNode {
    // Filter pushdown: single-variable threshold predicates become leaf
    // filters on the scan (the classic ASP optimization the single CEP
    // operator forgoes).
    let mut leaf = leaf.clone();
    leaf.var = var;
    let mut residual = Vec::new();
    for p in ctx.pattern.single_var_predicates(var) {
        if let (sea::predicate::Expr::Var(_, attr), sea::predicate::Expr::Const(c)) = (p.lhs, p.rhs)
        {
            leaf.filters.push(sea::pattern::LocalFilter {
                attr,
                op: p.op,
                value: c,
            });
        } else if let (sea::predicate::Expr::Const(c), sea::predicate::Expr::Var(_, attr)) =
            (p.lhs, p.rhs)
        {
            let flipped = match p.op {
                sea::predicate::CmpOp::Lt => sea::predicate::CmpOp::Gt,
                sea::predicate::CmpOp::Le => sea::predicate::CmpOp::Ge,
                sea::predicate::CmpOp::Gt => sea::predicate::CmpOp::Lt,
                sea::predicate::CmpOp::Ge => sea::predicate::CmpOp::Le,
                other => other,
            };
            leaf.filters.push(sea::pattern::LocalFilter {
                attr,
                op: flipped,
                value: c,
            });
        } else {
            // Same-variable var-var predicate (e.g. e1.value < e1.ts):
            // evaluated at the scan against the single bound event.
            residual.push(p);
        }
    }
    PlanNode::Scan {
        etype: leaf.etype,
        type_name: leaf.type_name.clone(),
        var,
        leaf,
        predicates: residual,
    }
}

/// Join `left ⋈ right`, attaching newly-checkable order pairs and
/// newly-bound predicates.
fn make_join(ctx: &mut Ctx<'_>, left: PlanNode, right: PlanNode) -> PlanNode {
    let ll = left.layout();
    let rl = right.layout();
    let order: Vec<(VarId, VarId)> = ctx
        .pairs
        .iter()
        .filter(|(a, b)| (ll.contains(a) && rl.contains(b)) || (ll.contains(b) && rl.contains(a)))
        .copied()
        .collect();
    let mut merged: Vec<VarId> = ll.clone();
    merged.extend(&rl);
    let mut attached = Vec::new();
    ctx.pending.retain(|p| {
        let vs = p.vars();
        let fully = vs.iter().all(|v| merged.contains(v));
        let new = !vs.iter().all(|v| ll.contains(v)) && !vs.iter().all(|v| rl.contains(v));
        if fully && new {
            attached.push(*p);
            false
        } else {
            true
        }
    });
    let key_pair = keyed_join(ctx, &ll, &rl);
    PlanNode::Join {
        left: Box::new(left),
        right: Box::new(right),
        windowing: windowing(ctx, &order, &ll, &rl),
        partitioning: if key_pair.is_some() {
            Partitioning::ByKey
        } else {
            Partitioning::Global
        },
        order_pairs: order,
        predicates: attached,
        span_ms: ctx.pattern.window.size.millis(),
        ats_check: None,
        key_pair,
    }
}

fn build(expr: &PatternExpr, ctx: &mut Ctx<'_>) -> Result<PlanNode, TranslateError> {
    match expr {
        PatternExpr::Leaf(l) => Ok(make_scan(ctx, l, l.var)),

        PatternExpr::Seq(parts) | PatternExpr::And(parts) => {
            let order: Vec<usize> = match &ctx.opts.join_order {
                JoinOrder::Textual => (0..parts.len()).collect(),
                JoinOrder::Permutation(perm) if perm.len() == parts.len() => perm.clone(),
                JoinOrder::Permutation(_) => (0..parts.len()).collect(),
            };
            let mut iter = order.into_iter();
            let first = iter.next().expect("arity ≥ 2 validated");
            let mut acc = build(&parts[first], ctx)?;
            for idx in iter {
                let rhs = build(&parts[idx], ctx)?;
                acc = make_join(ctx, acc, rhs);
            }
            Ok(acc)
        }

        // Disjunctions were distributed away before build(); a bare OR at
        // the root arrives here only via expand() producing variants, so
        // this arm is unreachable in practice — but keep it total.
        PatternExpr::Or(parts) => {
            let mut inputs = Vec::with_capacity(parts.len());
            for p in parts {
                inputs.push(build(p, ctx)?);
            }
            Ok(PlanNode::Union { inputs })
        }

        PatternExpr::Iter { leaf, m, at_least } => {
            if *at_least && !ctx.opts.aggregate_iteration {
                return Err(TranslateError::KleenePlusNeedsAggregation);
            }
            if ctx.opts.aggregate_iteration {
                // O2: γ_{count ≥ m}. Constraints between contributing
                // events are dropped (approximate, Section 4.3.2) — remove
                // them from pending so they don't trip the attachment check.
                let iter_vars: Vec<VarId> = (leaf.var..leaf.var + m).collect();
                // Equi-keys *between iteration positions* are what the
                // per-key aggregation makes implicit, so only those may
                // select ByKey; an equi-key elsewhere in the pattern
                // (e.g. between two non-iterated positions) must neither
                // trigger per-key counting — that would change the count
                // semantics — nor be dropped from `pending`, or its
                // constraint would be silently lost at the outer joins.
                let intra_iter_key = ctx
                    .pattern
                    .equi_keys()
                    .iter()
                    .any(|p| p.vars().iter().all(|v| iter_vars.contains(v)));
                ctx.pending
                    .retain(|p| !p.vars().iter().all(|v| iter_vars.contains(v)));
                let scan = make_scan(ctx, leaf, leaf.var);
                let partitioning = if ctx.opts.partition_by_key && intra_iter_key {
                    Partitioning::ByKey
                } else {
                    Partitioning::Global
                };
                return Ok(PlanNode::Aggregate {
                    input: Box::new(scan),
                    m: *m as u64,
                    window: ctx.pattern.window,
                    partitioning,
                });
            }
            // Join chain: m scans of the same type, theta self-joins.
            let mut acc = make_scan(ctx, leaf, leaf.var);
            for i in 1..*m {
                let rhs = make_scan(ctx, leaf, leaf.var + i);
                acc = make_join(ctx, acc, rhs);
            }
            Ok(acc)
        }

        PatternExpr::NegSeq {
            first,
            absent,
            last,
        } => {
            if first.etype == absent.etype {
                return Err(TranslateError::NseqTypeClash);
            }
            let trigger = make_scan(ctx, first, first.var);
            let next_occ = PlanNode::NextOccurrence {
                trigger: Box::new(trigger),
                marker: absent.clone(),
                w: ctx.pattern.window.size,
            };
            let last_scan = make_scan(ctx, last, last.var);
            let mut join = make_join(ctx, next_occ, last_scan);
            if let PlanNode::Join { ats_check, .. } = &mut join {
                *ats_check = Some(last.var);
            }
            Ok(join)
        }
    }
}

fn describe(expr: &PatternExpr, opts: &MapperOptions) -> String {
    let mut parts = Vec::new();
    let base = match expr {
        PatternExpr::Leaf(_) => "scan",
        PatternExpr::Seq(_) => "SEQ → ⋈θ (order join)",
        PatternExpr::And(_) => "AND → × (window cross join)",
        PatternExpr::Or(_) => "OR → ∪ (union)",
        PatternExpr::Iter {
            at_least: false, ..
        } => "ITER → ⋈θ self-join chain",
        PatternExpr::Iter { at_least: true, .. } => "ITER+ → γ_count (Kleene+)",
        PatternExpr::NegSeq { .. } => "NSEQ → UDF(∪) ⋈θ σ_ats",
    };
    parts.push(base.to_string());
    if opts.interval_join {
        parts.push("O1 interval join".into());
    }
    if opts.aggregate_iteration && matches!(expr, PatternExpr::Iter { .. }) {
        parts.push("O2 aggregation (approximate)".into());
    }
    if opts.partition_by_key {
        parts.push("O3 equi-key partitioning".into());
    }
    parts.join(" + ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp::event::{Attr, EventType};
    use sea::pattern::{builders, Leaf, WindowSpec};
    use sea::predicate::CmpOp;

    const Q: EventType = EventType(0);
    const V: EventType = EventType(1);
    const PM: EventType = EventType(2);

    #[test]
    fn seq_maps_to_left_deep_join_chain() {
        let p = builders::seq(
            &[(Q, "Q"), (V, "V"), (PM, "PM")],
            WindowSpec::minutes(15),
            vec![],
        );
        let plan = translate(&p, &MapperOptions::plain()).unwrap();
        assert_eq!(plan.root.join_count(), 2, "n-1 joins for SEQ(n)");
        assert_eq!(plan.root.layout(), vec![0, 1, 2]);
        let text = plan.explain();
        assert!(text.contains("SLIDING(15min, 1min)"), "{text}");
    }

    #[test]
    fn and_join_has_no_order_constraint() {
        let p = builders::and(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(15), vec![]);
        let plan = translate(&p, &MapperOptions::plain()).unwrap();
        match &plan.root {
            PlanNode::Join { order_pairs, .. } => assert!(order_pairs.is_empty()),
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn o1_switches_to_interval_join_with_correct_bounds() {
        let w = Duration::from_minutes(15);
        let p = builders::seq(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(15), vec![]);
        let plan = translate(&p, &MapperOptions::o1()).unwrap();
        match &plan.root {
            PlanNode::Join { windowing, .. } => assert_eq!(
                *windowing,
                JoinWindowing::Interval {
                    lower: Duration::ZERO,
                    upper: w
                }
            ),
            _ => panic!(),
        }
        let p = builders::and(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(15), vec![]);
        let plan = translate(&p, &MapperOptions::o1()).unwrap();
        match &plan.root {
            PlanNode::Join { windowing, .. } => assert_eq!(
                *windowing,
                JoinWindowing::Interval {
                    lower: w.neg(),
                    upper: w
                }
            ),
            _ => panic!(),
        }
    }

    #[test]
    fn o3_partitions_only_with_equi_key() {
        let preds = vec![Predicate::same_id(0, 1)];
        let p = builders::seq(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(15), preds);
        let plan = translate(&p, &MapperOptions::o3()).unwrap();
        match &plan.root {
            PlanNode::Join { partitioning, .. } => assert_eq!(*partitioning, Partitioning::ByKey),
            _ => panic!(),
        }
        // Without the predicate O3 degrades to global.
        let p = builders::seq(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(15), vec![]);
        let plan = translate(&p, &MapperOptions::o3()).unwrap();
        match &plan.root {
            PlanNode::Join { partitioning, .. } => assert_eq!(*partitioning, Partitioning::Global),
            _ => panic!(),
        }
        assert!(plan.mapping.contains("no equi-key"), "{}", plan.mapping);
    }

    #[test]
    fn iter_maps_to_self_joins_or_aggregate() {
        let p = builders::iter(V, "V", 4, WindowSpec::minutes(15), vec![]);
        let plan = translate(&p, &MapperOptions::plain()).unwrap();
        assert_eq!(plan.root.join_count(), 3);
        let plan = translate(&p, &MapperOptions::o2()).unwrap();
        match &plan.root {
            PlanNode::Aggregate { m, .. } => assert_eq!(*m, 4),
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn kleene_plus_requires_o2() {
        let p = builders::kleene_plus(V, "V", 3, WindowSpec::minutes(15));
        assert_eq!(
            translate(&p, &MapperOptions::plain()).unwrap_err(),
            TranslateError::KleenePlusNeedsAggregation
        );
        assert!(translate(&p, &MapperOptions::o2()).is_ok());
    }

    #[test]
    fn nseq_maps_to_next_occurrence_and_ats_join() {
        let p = builders::nseq(
            (Q, "Q"),
            Leaf::new(V, "V", "n"),
            (PM, "PM"),
            WindowSpec::minutes(15),
            vec![],
        );
        let plan = translate(&p, &MapperOptions::plain()).unwrap();
        match &plan.root {
            PlanNode::Join {
                left,
                ats_check,
                order_pairs,
                ..
            } => {
                assert_eq!(*ats_check, Some(1));
                assert_eq!(order_pairs, &vec![(0, 1)]);
                assert!(matches!(**left, PlanNode::NextOccurrence { .. }));
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn nseq_type_clash_is_rejected() {
        let p = builders::nseq(
            (Q, "Q"),
            Leaf::new(Q, "Q", "n"),
            (PM, "PM"),
            WindowSpec::minutes(15),
            vec![],
        );
        assert_eq!(
            translate(&p, &MapperOptions::plain()).unwrap_err(),
            TranslateError::NseqTypeClash
        );
    }

    #[test]
    fn or_maps_to_union() {
        let p = builders::or(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(15));
        let plan = translate(&p, &MapperOptions::plain()).unwrap();
        match &plan.root {
            PlanNode::Union { inputs } => assert_eq!(inputs.len(), 2),
            other => panic!("expected union, got {other:?}"),
        }
    }

    #[test]
    fn nested_or_distributes_over_seq() {
        use sea::pattern::Pattern;
        let expr = PatternExpr::Seq(vec![
            PatternExpr::Leaf(Leaf::new(Q, "Q", "a")),
            PatternExpr::Or(vec![
                PatternExpr::Leaf(Leaf::new(V, "V", "b")),
                PatternExpr::Leaf(Leaf::new(PM, "PM", "c")),
            ]),
        ]);
        let p = Pattern::new("m", expr, WindowSpec::minutes(15), vec![]).unwrap();
        let plan = translate(&p, &MapperOptions::plain()).unwrap();
        match &plan.root {
            PlanNode::Union { inputs } => {
                assert_eq!(inputs.len(), 2, "SEQ(Q, OR(V, PM)) → 2 variants");
                assert!(inputs.iter().all(|i| i.join_count() == 1));
            }
            other => panic!("expected union of variants, got {other:?}"),
        }
    }

    #[test]
    fn equi_key_closure_is_computed_per_variant() {
        use sea::pattern::Pattern;
        const W: EventType = EventType(3);
        // SEQ(Q, OR(V, PM), W) with id(e1)=id(e2) ∧ id(e2)=id(e4): the
        // chain connects positions 0 and 3 only through position 1, which
        // the PM variant does not bind — there both predicates evaluate
        // vacuously, so its joins must stay global.
        let expr = PatternExpr::Seq(vec![
            PatternExpr::Leaf(Leaf::new(Q, "Q", "a")),
            PatternExpr::Or(vec![
                PatternExpr::Leaf(Leaf::new(V, "V", "b")),
                PatternExpr::Leaf(Leaf::new(PM, "PM", "c")),
            ]),
            PatternExpr::Leaf(Leaf::new(W, "W", "d")),
        ]);
        let p = Pattern::new(
            "chain",
            expr,
            WindowSpec::minutes(15),
            vec![Predicate::same_id(0, 1), Predicate::same_id(1, 3)],
        )
        .unwrap();
        let plan = translate(&p, &MapperOptions::o3()).unwrap();
        fn partitionings(n: &PlanNode, out: &mut Vec<Partitioning>) {
            if let PlanNode::Join {
                left,
                right,
                partitioning,
                ..
            } = n
            {
                partitionings(left, out);
                partitionings(right, out);
                out.push(*partitioning);
            }
        }
        match &plan.root {
            PlanNode::Union { inputs } => {
                assert_eq!(inputs.len(), 2);
                // Variant binding V (positions 0, 1, 3): the chain is
                // fully bound, both joins are keyed.
                let mut v = Vec::new();
                partitionings(&inputs[0], &mut v);
                assert_eq!(v, vec![Partitioning::ByKey; 2], "{}", plan.explain());
                // Variant binding PM (positions 0, 2, 3): nothing keyed.
                let mut g = Vec::new();
                partitionings(&inputs[1], &mut g);
                assert_eq!(g, vec![Partitioning::Global; 2], "{}", plan.explain());
            }
            other => panic!("expected union, got {other:?}"),
        }
    }

    #[test]
    fn o2_keeps_equi_keys_outside_the_iteration() {
        use crate::exec::{run_pattern_simple, split_by_type};
        use asp::event::Event;
        use asp::time::Timestamp;
        use sea::pattern::Pattern;
        // SEQ(Q, ITER(V, 2), PM) with id(e1) = id(e4): the equi-key does
        // not touch the iteration, so O2 must not switch the count to
        // per-key, and the constraint must survive to the outer join.
        let expr = PatternExpr::Seq(vec![
            PatternExpr::Leaf(Leaf::new(Q, "Q", "a")),
            PatternExpr::Iter {
                leaf: Leaf::new(V, "V", "b"),
                m: 2,
                at_least: false,
            },
            PatternExpr::Leaf(Leaf::new(PM, "PM", "c")),
        ]);
        let p = Pattern::new(
            "outer-key",
            expr,
            WindowSpec::minutes(15),
            vec![Predicate::same_id(0, 3)],
        )
        .unwrap();
        fn agg_partitioning(n: &PlanNode) -> Option<Partitioning> {
            match n {
                PlanNode::Aggregate { partitioning, .. } => Some(*partitioning),
                PlanNode::Join { left, right, .. } => {
                    agg_partitioning(left).or_else(|| agg_partitioning(right))
                }
                _ => None,
            }
        }
        for opts in [MapperOptions::o2(), MapperOptions::o2().and_o3()] {
            let plan = translate(&p, &opts).unwrap();
            assert_eq!(
                agg_partitioning(&plan.root),
                Some(Partitioning::Global),
                "no intra-iteration equi-key → global count\n{}",
                plan.explain()
            );
            match &plan.root {
                PlanNode::Join {
                    predicates,
                    partitioning,
                    ..
                } => {
                    // Under O3 the constraint is enforced by the keyed
                    // exchange; otherwise it must remain a join predicate.
                    if *partitioning == Partitioning::Global {
                        assert!(
                            predicates.iter().any(|pr| pr.is_equi_key()),
                            "id(e1)=id(e4) dropped from the outer join\n{}",
                            plan.explain()
                        );
                    }
                }
                other => panic!("expected outer join, got {other:?}"),
            }
        }
        // Semantics: PM with a different sensor id than Q must not match.
        let events = vec![
            Event::new(Q, 7, Timestamp::from_minutes(0), 1.0),
            Event::new(V, 1, Timestamp::from_minutes(1), 2.0),
            Event::new(V, 2, Timestamp::from_minutes(2), 3.0),
            Event::new(PM, 7, Timestamp::from_minutes(3), 4.0),
            Event::new(PM, 9, Timestamp::from_minutes(4), 5.0),
        ];
        let run = run_pattern_simple(&p, &MapperOptions::o2(), &split_by_type(&events)).unwrap();
        assert_eq!(
            run.dedup_matches().len(),
            1,
            "only the id-7 PM may complete the match"
        );
    }

    #[test]
    fn filter_pushdown_reaches_the_scan() {
        let p = builders::seq(
            &[(Q, "Q"), (V, "V")],
            WindowSpec::minutes(15),
            vec![Predicate::threshold(1, Attr::Value, CmpOp::Le, 10.0)],
        );
        let plan = translate(&p, &MapperOptions::plain()).unwrap();
        let text = plan.explain();
        assert!(text.contains("Scan V [e2] σ(.value <= 10"), "{text}");
    }

    #[test]
    fn cross_predicates_attach_at_first_covering_join() {
        let p = builders::seq(
            &[(Q, "Q"), (V, "V"), (PM, "PM")],
            WindowSpec::minutes(15),
            vec![Predicate::cross(0, Attr::Value, CmpOp::Le, 2, Attr::Value)],
        );
        let plan = translate(&p, &MapperOptions::plain()).unwrap();
        // The e1–e3 predicate binds at the outer join.
        match &plan.root {
            PlanNode::Join { predicates, .. } => assert_eq!(predicates.len(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn join_order_permutation_is_applied() {
        let p = builders::seq(
            &[(Q, "Q"), (V, "V"), (PM, "PM")],
            WindowSpec::minutes(15),
            vec![],
        );
        let opts = MapperOptions {
            join_order: JoinOrder::Permutation(vec![2, 0, 1]),
            ..Default::default()
        };
        let plan = translate(&p, &opts).unwrap();
        // Leftmost scan is PM (position 2); ordering still enforced via
        // pairwise ts predicates.
        assert_eq!(plan.root.layout(), vec![2, 0, 1]);
        let text = plan.explain();
        assert!(
            text.contains("e1.ts < e2.ts") || text.contains("e2.ts < e3.ts"),
            "{text}"
        );
    }
}
