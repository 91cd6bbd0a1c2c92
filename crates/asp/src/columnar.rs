//! Columnar (struct-of-arrays) micro-batches for the stateless data plane.
//!
//! The row-oriented wire format (`Vec<Tuple>` of `Arc<Vec<Event>>`) pays an
//! enum dispatch and a refcount per record even for primitive sensor events,
//! which is the measured hot-path ceiling of the filter/map tier. A
//! [`ColumnarBatch`] stores the same records as typed columns so that
//!
//! * sources build batches by pushing column values — **no heap allocation
//!   per primitive event**;
//! * stateless operators (σ, Π, ∪) run tight per-column loops driven by a
//!   *selection vector* instead of materializing tuples;
//! * routing reads the `key` column directly for hash partitioning.
//!
//! ## Layout
//!
//! Per-row tuple metadata (`key`, `ts`, `wall`) and the fields of the
//! *head constituent* (`events[0]`: `etype`, `id`, event-`ts`, `value`,
//! `lat`, `lon`) are always dense columns. Because the head-event columns
//! are filled for every row — composite rows included — single-event
//! predicates (the σ tier) vectorize uniformly over the batch.
//!
//! Two rarely-used groups are lazily allocated:
//!
//! * **optional attributes** (`ats`, `agg`) — allocated the first time a
//!   row actually carries one;
//! * **composite payloads** — rows with ≠ 1 constituent keep their
//!   `Arc<Vec<Event>>` in a side table referenced by row index
//!   (the crate-private `PRIMITIVE` sentinel marks rows fully described
//!   by the head columns).
//!
//! ## Selection vectors
//!
//! `sel: Option<Vec<u32>>` lists the live physical row indices in order
//! (`None` ⇒ all rows live). Filters *narrow* the selection; downstream
//! vectorized operators visit only selected indices;
//! [`compact`](ColumnarBatch::compact) gathers survivors into a dense
//! batch. The
//! runtime compacts at route flush, so **batches on the wire are always
//! dense** — receivers never see a selection vector.
//!
//! ## Row shim
//!
//! Stateful operators (joins, aggregation, NFA/dedup) keep their per-tuple
//! logic; the runtime materializes rows via
//! [`tuple_at`](ColumnarBatch::tuple_at) at their input boundary and
//! re-batches their emissions. Materializing a primitive row is the only
//! point where an `Arc` is allocated; composite rows just bump the side
//! table's refcount.

use std::sync::Arc;

use crate::error::OpError;
use crate::event::{Attr, Event, EventType};
use crate::time::Timestamp;
use crate::tuple::{Key, Tuple};

/// Sentinel in the composite index column: the row is a primitive event
/// fully described by the head-event columns.
pub(crate) const PRIMITIVE: u32 = u32::MAX;

/// Checked narrowing for composite side-table indices: `len` is the slot a
/// new entry would occupy. Near `u32::MAX` a bare `as u32` cast would wrap
/// — and at exactly [`PRIMITIVE`] it would *alias the sentinel*, silently
/// re-labelling a composite row as primitive. Surfaced as the G016
/// payload-mismatch error rather than a corrupted batch.
#[inline]
pub(crate) fn comp_slot(len: usize) -> Result<u32, OpError> {
    if len >= PRIMITIVE as usize {
        return Err(OpError::ColumnarUnsupported {
            operator: "columnar-batch".to_string(),
            detail: format!(
                "composite side table overflow: {len} entries exhaust the u32 \
                 index space (the next index would alias the PRIMITIVE sentinel)"
            ),
        });
    }
    Ok(len as u32)
}

/// Lazily-allocated optional per-row attributes (`ats`, `agg`).
#[derive(Debug, Clone, Default)]
struct OptCols {
    ats: Vec<Option<Timestamp>>,
    agg: Vec<Option<f64>>,
}

/// Lazily-allocated composite-payload side table.
#[derive(Debug, Clone, Default)]
struct CompCols {
    /// Per-row index into `table`; [`PRIMITIVE`] for primitive rows.
    idx: Vec<u32>,
    /// Constituent lists of composite rows, in first-reference order.
    table: Vec<Arc<Vec<Event>>>,
}

/// A struct-of-arrays micro-batch of [`Tuple`]s (see module docs).
#[derive(Debug, Clone, Default)]
pub struct ColumnarBatch {
    /// Partition key column ([`Tuple::key`]).
    pub(crate) key: Vec<Key>,
    /// Working event-time column ([`Tuple::ts`]).
    pub(crate) ts: Vec<Timestamp>,
    /// Wall-clock creation stamp column ([`Tuple::wall`]).
    pub(crate) wall: Vec<u64>,
    /// Head-constituent event type.
    pub(crate) etype: Vec<EventType>,
    /// Head-constituent sensor id.
    pub(crate) id: Vec<u32>,
    /// Head-constituent event timestamp (distinct from the tuple's working
    /// `ts`, which maps may redefine).
    pub(crate) ets: Vec<Timestamp>,
    /// Head-constituent measurement value.
    pub(crate) value: Vec<f64>,
    /// Head-constituent latitude.
    pub(crate) lat: Vec<f32>,
    /// Head-constituent longitude.
    pub(crate) lon: Vec<f32>,
    opt: Option<Box<OptCols>>,
    comp: Option<Box<CompCols>>,
    /// Selection vector: live physical row indices in order; `None` ⇒ dense.
    pub(crate) sel: Option<Vec<u32>>,
}

impl ColumnarBatch {
    /// An empty batch with room for `cap` rows in the dense columns.
    pub fn with_capacity(cap: usize) -> Self {
        ColumnarBatch {
            key: Vec::with_capacity(cap),
            ts: Vec::with_capacity(cap),
            wall: Vec::with_capacity(cap),
            etype: Vec::with_capacity(cap),
            id: Vec::with_capacity(cap),
            ets: Vec::with_capacity(cap),
            value: Vec::with_capacity(cap),
            lat: Vec::with_capacity(cap),
            lon: Vec::with_capacity(cap),
            opt: None,
            comp: None,
            sel: None,
        }
    }

    /// Physical row count (selected or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.key.len()
    }

    /// Whether the batch holds no physical rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.key.is_empty()
    }

    /// Number of *selected* rows (= [`len`](Self::len) when dense).
    #[inline]
    pub fn selected_len(&self) -> usize {
        match &self.sel {
            None => self.len(),
            Some(s) => s.len(),
        }
    }

    /// Whether every physical row is selected (no selection vector).
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.sel.is_none()
    }

    /// Append a primitive event (key = sensor id, ts = event ts). Pure
    /// column pushes: never touches the heap beyond column growth.
    #[inline]
    pub fn push_event(&mut self, e: Event, wall: u64) {
        self.key.push(e.id as Key);
        self.ts.push(e.ts);
        self.wall.push(wall);
        self.etype.push(e.etype);
        self.id.push(e.id);
        self.ets.push(e.ts);
        self.value.push(e.value);
        self.lat.push(e.lat);
        self.lon.push(e.lon);
        if let Some(o) = &mut self.opt {
            o.ats.push(None);
            o.agg.push(None);
        }
        if let Some(c) = &mut self.comp {
            c.idx.push(PRIMITIVE);
        }
    }

    /// Append a row-format tuple, decomposing primitives into columns and
    /// side-tabling composite constituent lists. Fails (G016 class) only if
    /// the composite side table would exhaust its u32 index space.
    pub fn push_tuple(&mut self, t: Tuple) -> Result<(), OpError> {
        let head = t
            .head()
            .copied()
            .unwrap_or_else(|| Event::new(EventType(0), 0, t.ts, 0.0));
        self.key.push(t.key);
        self.ts.push(t.ts);
        self.wall.push(t.wall);
        self.etype.push(head.etype);
        self.id.push(head.id);
        self.ets.push(head.ts);
        self.value.push(head.value);
        self.lat.push(head.lat);
        self.lon.push(head.lon);
        self.push_opt(t.ats, t.agg);
        let comp = if t.is_composite() {
            Some(Arc::clone(&t.events))
        } else {
            None
        };
        self.push_comp(comp)
    }

    /// Append row `i` of `src` (physical index) by copying columns; the
    /// composite side table transfers by refcount bump.
    pub(crate) fn push_row_from(&mut self, src: &ColumnarBatch, i: usize) -> Result<(), OpError> {
        self.key.push(src.key[i]);
        self.ts.push(src.ts[i]);
        self.wall.push(src.wall[i]);
        self.etype.push(src.etype[i]);
        self.id.push(src.id[i]);
        self.ets.push(src.ets[i]);
        self.value.push(src.value[i]);
        self.lat.push(src.lat[i]);
        self.lon.push(src.lon[i]);
        self.push_opt(src.ats_at(i), src.agg_at(i));
        self.push_comp(src.comp_at(i).cloned())
    }

    /// Push the optional attributes of the row just added to the dense
    /// columns (callers push base columns first).
    #[inline]
    fn push_opt(&mut self, ats: Option<Timestamp>, agg: Option<f64>) {
        if ats.is_some() || agg.is_some() {
            let o = self.ensure_opt();
            o.ats.push(ats);
            o.agg.push(agg);
        } else if let Some(o) = &mut self.opt {
            o.ats.push(None);
            o.agg.push(None);
        }
    }

    /// Push the composite payload of the row just added (None = primitive).
    #[inline]
    fn push_comp(&mut self, events: Option<Arc<Vec<Event>>>) -> Result<(), OpError> {
        match events {
            Some(ev) => {
                let c = self.ensure_comp();
                let slot = comp_slot(c.table.len())?;
                c.idx.push(slot);
                c.table.push(ev);
            }
            None => {
                if let Some(c) = &mut self.comp {
                    c.idx.push(PRIMITIVE);
                }
            }
        }
        Ok(())
    }

    /// Allocate the optional-attribute columns, back-filling `None` for the
    /// rows pushed before the first carrier. The base columns must already
    /// include the row being pushed, hence `len() - 1`.
    fn ensure_opt(&mut self) -> &mut OptCols {
        let rows = self.len() - 1;
        self.opt.get_or_insert_with(|| {
            Box::new(OptCols {
                ats: vec![None; rows],
                agg: vec![None; rows],
            })
        })
    }

    /// Allocate the composite side table, back-filling [`PRIMITIVE`] for
    /// the rows pushed before the first composite.
    fn ensure_comp(&mut self) -> &mut CompCols {
        let rows = self.len() - 1;
        self.comp.get_or_insert_with(|| {
            Box::new(CompCols {
                idx: vec![PRIMITIVE; rows],
                table: Vec::new(),
            })
        })
    }

    /// The `ats` attribute of physical row `i`.
    #[inline]
    pub(crate) fn ats_at(&self, i: usize) -> Option<Timestamp> {
        self.opt.as_ref().and_then(|o| o.ats[i])
    }

    /// The `agg` attribute of physical row `i`.
    #[inline]
    pub(crate) fn agg_at(&self, i: usize) -> Option<f64> {
        self.opt.as_ref().and_then(|o| o.agg[i])
    }

    /// The composite constituent list of physical row `i`, if any.
    #[inline]
    pub(crate) fn comp_at(&self, i: usize) -> Option<&Arc<Vec<Event>>> {
        let c = self.comp.as_ref()?;
        match c.idx[i] {
            PRIMITIVE => None,
            k => Some(&c.table[k as usize]),
        }
    }

    /// Reconstruct the head constituent of physical row `i` from columns.
    #[inline]
    pub(crate) fn head_event_at(&self, i: usize) -> Event {
        Event {
            etype: self.etype[i],
            id: self.id[i],
            ts: self.ets[i],
            value: self.value[i],
            lat: self.lat[i],
            lon: self.lon[i],
        }
    }

    /// A head-constituent attribute of physical row `i` (the currency of
    /// vectorized σ evaluation; equals `tuple.events[0].attr(a)`).
    #[inline]
    pub(crate) fn attr_at(&self, i: usize, a: Attr) -> f64 {
        match a {
            Attr::Value => self.value[i],
            Attr::Ts => self.ets[i].millis() as f64,
            Attr::Id => self.id[i] as f64,
            Attr::Lat => self.lat[i] as f64,
            Attr::Lon => self.lon[i] as f64,
        }
    }

    /// Materialize physical row `i` as a row-format [`Tuple`] (the shim at
    /// stateful-operator and collecting-sink boundaries).
    pub fn tuple_at(&self, i: usize) -> Tuple {
        let events = match self.comp_at(i) {
            Some(ev) => Arc::clone(ev),
            None => Arc::new(vec![self.head_event_at(i)]),
        };
        Tuple {
            key: self.key[i],
            ts: self.ts[i],
            wall: self.wall[i],
            events,
            ats: self.ats_at(i),
            agg: self.agg_at(i),
        }
    }

    /// Narrow the selection to rows where `pred` holds. Returns
    /// `(kept, dropped)` over the previously selected rows.
    pub(crate) fn narrow(&mut self, pred: impl Fn(&Self, usize) -> bool) -> (u64, u64) {
        let old = self.sel.take();
        let mut kept: Vec<u32> = Vec::with_capacity(match &old {
            None => self.len(),
            Some(s) => s.len(),
        });
        let mut dropped = 0u64;
        match &old {
            None => {
                for i in 0..self.len() {
                    if pred(self, i) {
                        kept.push(i as u32);
                    } else {
                        dropped += 1;
                    }
                }
            }
            Some(s) => {
                for &i in s {
                    if pred(self, i as usize) {
                        kept.push(i);
                    } else {
                        dropped += 1;
                    }
                }
            }
        }
        let kept_n = kept.len() as u64;
        self.sel = Some(kept);
        (kept_n, dropped)
    }

    /// Drop rows of a dense batch that arrive behind their channel's
    /// watermark (late under `drop_late`); returns the number dropped. The
    /// channel clock starts at `wm` and advances at each in-band mark
    /// `(offset, wm)`, so every row is judged against the clock in force at
    /// its offset. The batch stays dense when nothing was late.
    pub(crate) fn drop_late(&mut self, mut wm: Timestamp, marks: &[(usize, Timestamp)]) -> u64 {
        debug_assert!(self.is_dense(), "wire batches are dense");
        let mut marks = marks.iter().peekable();
        // The selection is built only once the first late row shows up.
        let mut kept: Option<Vec<u32>> = None;
        for (i, &ts) in self.ts.iter().enumerate() {
            while let Some(&(_, w)) = marks.next_if(|&&(p, _)| p <= i) {
                wm = wm.max(w);
            }
            match &mut kept {
                None if ts < wm => kept = Some((0..i as u32).collect()),
                Some(k) if ts >= wm => k.push(i as u32),
                _ => {}
            }
        }
        let Some(kept) = kept else {
            return 0;
        };
        let dropped = (self.len() - kept.len()) as u64;
        self.sel = Some(kept);
        dropped
    }

    /// Maximum working timestamp over selected rows.
    pub(crate) fn max_ts(&self) -> Option<Timestamp> {
        match &self.sel {
            None => self.ts.iter().max().copied(),
            Some(s) => s.iter().map(|&i| self.ts[i as usize]).max(),
        }
    }

    /// Minimum working timestamp over selected rows (emission-floor checks).
    #[cfg(feature = "invariant-checks")]
    pub(crate) fn min_ts(&self) -> Option<Timestamp> {
        match &self.sel {
            None => self.ts.iter().min().copied(),
            Some(s) => s.iter().map(|&i| self.ts[i as usize]).min(),
        }
    }

    /// Gather selected rows into a dense batch (in place, order-preserving)
    /// and drop the selection vector. Unreferenced side-table entries are
    /// released. No-op when already dense. Fails (G016 class) only if the
    /// rebuilt composite side table would exhaust its u32 index space —
    /// impossible when the batch was built through the checked push paths,
    /// but kept checked so compaction can never mint a sentinel alias.
    pub fn compact(&mut self) -> Result<(), OpError> {
        let Some(sel) = self.sel.take() else {
            return Ok(());
        };
        if sel.len() == self.len() {
            return Ok(()); // every row selected: already dense in order
        }
        fn gather<T: Copy>(v: &mut Vec<T>, sel: &[u32]) {
            for (dst, &src) in sel.iter().enumerate() {
                v[dst] = v[src as usize];
            }
            v.truncate(sel.len());
        }
        gather(&mut self.key, &sel);
        gather(&mut self.ts, &sel);
        gather(&mut self.wall, &sel);
        gather(&mut self.etype, &sel);
        gather(&mut self.id, &sel);
        gather(&mut self.ets, &sel);
        gather(&mut self.value, &sel);
        gather(&mut self.lat, &sel);
        gather(&mut self.lon, &sel);
        if let Some(o) = &mut self.opt {
            gather(&mut o.ats, &sel);
            gather(&mut o.agg, &sel);
            if o.ats.iter().all(Option::is_none) && o.agg.iter().all(Option::is_none) {
                self.opt = None;
            }
        }
        if let Some(c) = &mut self.comp {
            // Rebuild the side table with only surviving composites.
            let mut table = Vec::new();
            for (dst, &src) in sel.iter().enumerate() {
                c.idx[dst] = match c.idx[src as usize] {
                    PRIMITIVE => PRIMITIVE,
                    k => {
                        let slot = comp_slot(table.len())?;
                        table.push(Arc::clone(&c.table[k as usize]));
                        slot
                    }
                };
            }
            c.idx.truncate(sel.len());
            if table.is_empty() {
                self.comp = None;
            } else {
                c.table = table;
            }
        }
        Ok(())
    }

    /// Materialize every selected row as a [`Tuple`], in selection order.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.selected_len());
        match &self.sel {
            None => {
                for i in 0..self.len() {
                    out.push(self.tuple_at(i));
                }
            }
            Some(s) => {
                for &i in s {
                    out.push(self.tuple_at(i as usize));
                }
            }
        }
        out
    }

    /// Build a dense batch from row-format tuples (test/shim convenience).
    /// Infallible in practice: the side table cannot overflow below
    /// `u32::MAX` rows.
    pub fn from_tuples(tuples: Vec<Tuple>) -> Self {
        let mut b = ColumnarBatch::with_capacity(tuples.len());
        for t in tuples {
            b.push_tuple(t)
                .expect("side-table overflow requires > u32::MAX composite rows");
        }
        b
    }

    /// Append the physical rows listed in `sel` (in order) from `src` —
    /// a column-wise gather, so splitting one inbound batch across many
    /// shard destinations walks each column contiguously instead of
    /// materializing row objects.
    pub(crate) fn extend_gather(
        &mut self,
        src: &ColumnarBatch,
        sel: &[u32],
    ) -> Result<(), OpError> {
        let before = self.len();
        macro_rules! gather {
            ($f:ident) => {
                self.$f.reserve(sel.len());
                for &i in sel {
                    self.$f.push(src.$f[i as usize]);
                }
            };
        }
        gather!(key);
        gather!(ts);
        gather!(wall);
        gather!(etype);
        gather!(id);
        gather!(ets);
        gather!(value);
        gather!(lat);
        gather!(lon);
        if self.opt.is_some() || src.opt.is_some() {
            let o = self.opt.get_or_insert_with(|| {
                Box::new(OptCols {
                    ats: vec![None; before],
                    agg: vec![None; before],
                })
            });
            match &src.opt {
                Some(so) => {
                    for &i in sel {
                        o.ats.push(so.ats[i as usize]);
                        o.agg.push(so.agg[i as usize]);
                    }
                }
                None => {
                    o.ats.resize(before + sel.len(), None);
                    o.agg.resize(before + sel.len(), None);
                }
            }
        }
        if self.comp.is_some() || src.comp.is_some() {
            let c = self.comp.get_or_insert_with(|| {
                Box::new(CompCols {
                    idx: vec![PRIMITIVE; before],
                    table: Vec::new(),
                })
            });
            match &src.comp {
                Some(sc) => {
                    for &i in sel {
                        match sc.idx[i as usize] {
                            PRIMITIVE => c.idx.push(PRIMITIVE),
                            k => {
                                let slot = comp_slot(c.table.len())?;
                                c.idx.push(slot);
                                c.table.push(Arc::clone(&sc.table[k as usize]));
                            }
                        }
                    }
                }
                None => c.idx.resize(before + sel.len(), PRIMITIVE),
            }
        }
        Ok(())
    }

    /// Approximate heap footprint of the dense columns, for accounting.
    pub fn mem_bytes(&self) -> usize {
        // Per-row column footprint; composite lists are charged to holders
        // elsewhere, consistent with `Tuple::mem_bytes`.
        self.len() * (8 + 8 + 8 + 2 + 4 + 8 + 8 + 4 + 4)
            + self
                .comp
                .as_ref()
                .map_or(0, |c| c.table.iter().map(|e| e.len() * 32).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TsRule;

    fn ev(t: u16, id: u32, m: i64, v: f64) -> Event {
        Event::new(EventType(t), id, Timestamp::from_minutes(m), v)
    }

    #[test]
    fn push_event_round_trips_through_tuple_at() {
        let mut b = ColumnarBatch::with_capacity(4);
        let e = ev(3, 7, 5, 42.5);
        b.push_event(e, 99);
        assert_eq!(b.len(), 1);
        let t = b.tuple_at(0);
        assert_eq!(t, {
            let mut x = Tuple::from_event(e);
            x.wall = 99;
            x
        });
    }

    #[test]
    fn push_tuple_preserves_composites_and_options() {
        let a = Tuple::from_event(ev(0, 1, 2, 1.0));
        let c = Tuple::from_event(ev(1, 1, 7, 2.0));
        let mut joined = a.join(&c, TsRule::Max);
        joined.ats = Some(Timestamp::from_minutes(9));
        joined.agg = Some(3.0);
        let mut b = ColumnarBatch::default();
        b.push_tuple(a.clone()).unwrap();
        b.push_tuple(joined.clone()).unwrap();
        assert_eq!(b.tuple_at(0), a);
        assert_eq!(b.tuple_at(1), joined);
        // Head-event columns describe events[0] even for composites.
        assert_eq!(b.attr_at(1, Attr::Value), 1.0);
    }

    #[test]
    fn narrow_then_compact_gathers_survivors() {
        let mut b = ColumnarBatch::default();
        for i in 0..6 {
            b.push_event(ev(0, i, i as i64, i as f64), 0);
        }
        let (kept, dropped) = b.narrow(|b, i| b.value[i] >= 2.0);
        assert_eq!((kept, dropped), (4, 2));
        assert_eq!(b.selected_len(), 4);
        // Second narrowing composes over the first.
        b.narrow(|b, i| b.value[i] < 5.0);
        assert_eq!(b.selected_len(), 3);
        b.compact().unwrap();
        assert!(b.is_dense());
        let vals: Vec<f64> = b.to_tuples().iter().map(|t| t.events[0].value).collect();
        assert_eq!(vals, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn compact_rebuilds_composite_side_table() {
        let a = Tuple::from_event(ev(0, 1, 1, 1.0));
        let c1 = a.join(&Tuple::from_event(ev(1, 1, 2, 2.0)), TsRule::Max);
        let c2 = a.join(&Tuple::from_event(ev(1, 1, 3, 3.0)), TsRule::Max);
        let mut b = ColumnarBatch::default();
        b.push_tuple(c1).unwrap();
        b.push_tuple(a.clone()).unwrap();
        b.push_tuple(c2.clone()).unwrap();
        b.narrow(|b, i| b.ts[i] >= Timestamp::from_minutes(3));
        b.compact().unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.tuple_at(0), c2);
    }

    #[test]
    fn drop_late_counts_and_keeps_dense_when_clean() {
        let mut b = ColumnarBatch::default();
        for m in [1, 5, 3, 8] {
            b.push_event(ev(0, 1, m, 0.0), 0);
        }
        assert_eq!(b.drop_late(Timestamp::from_minutes(0), &[]), 0);
        assert!(b.is_dense(), "no drops → stays dense");
        assert_eq!(b.drop_late(Timestamp::from_minutes(4), &[]), 2);
        assert_eq!(b.selected_len(), 2);
        assert_eq!(b.max_ts(), Some(Timestamp::from_minutes(8)));
    }

    #[test]
    fn comp_slot_rejects_sentinel_alias_at_the_boundary() {
        // Largest legal slot: one below the PRIMITIVE sentinel.
        assert_eq!(
            comp_slot(PRIMITIVE as usize - 1).expect("last non-sentinel slot"),
            PRIMITIVE - 1
        );
        // A table of PRIMITIVE entries would hand out the sentinel itself —
        // the silent `as u32` alias the checked path exists to refuse.
        assert!(matches!(
            comp_slot(PRIMITIVE as usize),
            Err(OpError::ColumnarUnsupported { .. })
        ));
        // And anything past it would wrap under a bare cast.
        assert!(comp_slot(u32::MAX as usize + 1).is_err());
    }

    #[test]
    fn drop_late_judges_each_row_against_the_mark_in_force() {
        let mut b = ColumnarBatch::default();
        for m in [1, 5, 3, 8, 6] {
            b.push_event(ev(0, 1, m, 0.0), 0);
        }
        // Clock 2 before row 0 (drops ts 1), 4 from row 2 on (drops ts 3,
        // though row 1 at ts 5 was judged before it), 7 from row 4 on
        // (drops ts 6); a trailing mark judges nothing.
        let marks = [
            (0, Timestamp::from_minutes(2)),
            (2, Timestamp::from_minutes(4)),
            (4, Timestamp::from_minutes(7)),
            (5, Timestamp::from_minutes(9)),
        ];
        assert_eq!(b.drop_late(Timestamp::MIN, &marks), 3);
        let kept: Vec<i64> = b
            .to_tuples()
            .iter()
            .map(|t| t.ts.millis() / 60_000)
            .collect();
        assert_eq!(kept, vec![5, 8]);
    }

    #[test]
    fn extend_gather_matches_row_at_a_time_pushes() {
        let a = Tuple::from_event(ev(0, 1, 1, 1.0));
        let comp = a.join(&Tuple::from_event(ev(1, 2, 2, 2.0)), TsRule::Max);
        let mut withagg = Tuple::from_event(ev(2, 3, 4, 5.0));
        withagg.agg = Some(7.5);
        let src = ColumnarBatch::from_tuples(vec![a.clone(), comp.clone(), withagg.clone()]);
        let mut out = ColumnarBatch::default();
        out.push_tuple(comp.clone()).expect("push");
        out.extend_gather(&src, &[2, 0]).expect("gather");
        assert_eq!(out.to_tuples(), vec![comp, withagg, a]);
    }

    #[test]
    fn round_trip_multiset_equivalence() {
        let a = Tuple::from_event(ev(0, 1, 1, 1.0));
        let mut withats = Tuple::from_event(ev(2, 3, 4, 5.0));
        withats.ats = Some(Timestamp::from_minutes(6));
        let j = a.join(&withats, TsRule::Min);
        let rows = vec![a, withats, j];
        let b = ColumnarBatch::from_tuples(rows.clone());
        assert_eq!(b.to_tuples(), rows);
    }
}
