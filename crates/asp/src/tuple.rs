//! The record type that flows through dataflow pipelines.
//!
//! A [`Tuple`] is either a single primitive event or a *composite event*
//! (a partial or complete pattern match, paper Section 2: each match `M`
//! is a tuple `ce(e1, …, en, ts_b, ts_e)`). Joins concatenate constituent
//! lists; the planner re-defines the tuple's working timestamp after each
//! join (minimum of the pair for a partial match, maximum for a complete
//! match — Section 4.2.2).
//!
//! `Tuple` is the *row format*: self-contained, heap-backed, the unit the
//! stateful operator tier processes. On the wire the same record
//! travels decomposed into per-field arrays ([`crate::columnar::
//! ColumnarBatch`]); the runtime materializes a `Tuple` from a batch row
//! only at stateful-operator and collecting-sink boundaries. The two
//! representations round-trip losslessly (`ColumnarBatch::from_tuples` /
//! `to_tuples`).

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::event::Event;
use crate::time::Timestamp;

/// Partition key carried by every tuple. Workloads use the sensor id;
/// the "no equi-join condition" case maps everything to a single key
/// (global window, parallelism 1 — Section 5.1.2).
pub type Key = u64;

/// A dataflow record: one or more constituent events plus routing and
/// timing metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Partition key for hash exchanges.
    pub key: Key,
    /// Working event-time timestamp. For primitive events this is `e.ts`;
    /// after a join the planner sets it per the nested-pattern rule.
    pub ts: Timestamp,
    /// Wall-clock creation time of the newest constituent, in nanoseconds
    /// since the harness epoch. Detection latency = sink wall time − this
    /// (the paper's latency metric, Section 5.1.3).
    pub wall: u64,
    /// Constituent events in pattern order. Reference-counted: window
    /// operators buffer the same tuple in every overlapping pane, so a
    /// clone must be a refcount bump, not a heap copy.
    pub events: Arc<Vec<Event>>,
    /// Auxiliary timestamp attribute `ats` added by the NSEQ rewrite
    /// (Section 4.1, negated-sequence discussion).
    pub ats: Option<Timestamp>,
    /// Aggregate payload for the O2 (count-aggregation) mapping: the count
    /// of contributing events in the window.
    pub agg: Option<f64>,
}

impl Tuple {
    /// Wrap a primitive event; the key defaults to the sensor id.
    pub fn from_event(e: Event) -> Self {
        Tuple {
            key: e.id as Key,
            ts: e.ts,
            wall: 0,
            events: Arc::new(vec![e]),
            ats: None,
            agg: None,
        }
    }

    /// Wrap a primitive event with an explicit wall-clock creation stamp.
    pub fn from_event_wall(e: Event, wall: u64) -> Self {
        let mut t = Tuple::from_event(e);
        t.wall = wall;
        t
    }

    /// The head constituent (`e1`), if any. Vectorizable predicates
    /// ([`crate::operator::FilterSpec`]) are defined over exactly this
    /// event, whose fields the columnar plane keeps as dense per-row
    /// columns for every tuple, composite or primitive.
    #[inline]
    pub fn head(&self) -> Option<&Event> {
        self.events.first()
    }

    /// Whether this tuple carries more than one constituent (a partial or
    /// complete match rather than a wrapped primitive event). Composite
    /// rows are the only ones that hit the columnar plane's side table.
    #[inline]
    pub fn is_composite(&self) -> bool {
        self.events.len() > 1
    }

    /// Timestamp of the earliest constituent (`ce.ts_b`).
    pub fn ts_begin(&self) -> Timestamp {
        self.events.iter().map(|e| e.ts).min().unwrap_or(self.ts)
    }

    /// Timestamp of the latest constituent (`ce.ts_e`).
    pub fn ts_end(&self) -> Timestamp {
        self.events.iter().map(|e| e.ts).max().unwrap_or(self.ts)
    }

    /// Join two tuples: concatenate constituents left-then-right, keep the
    /// left key, take the max wall stamp, and set the working timestamp
    /// according to `ts_rule`.
    pub fn join(&self, right: &Tuple, ts_rule: TsRule) -> Tuple {
        let mut events = Vec::with_capacity(self.events.len() + right.events.len());
        events.extend_from_slice(&self.events);
        events.extend_from_slice(&right.events);
        let events = Arc::new(events);
        let ts = match ts_rule {
            TsRule::Min => self.ts.min(right.ts),
            TsRule::Max => self.ts.max(right.ts),
            TsRule::Left => self.ts,
            TsRule::Right => right.ts,
        };
        Tuple {
            key: self.key,
            ts,
            wall: self.wall.max(right.wall),
            events,
            ats: self.ats.or(right.ats),
            agg: None,
        }
    }

    /// Approximate heap + inline footprint in bytes, for state accounting
    /// (drives the Figure 5 memory series). Shared constituent lists are
    /// charged to every holder — an upper bound on the real footprint.
    #[inline]
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Tuple>() + self.events.capacity() * std::mem::size_of::<Event>()
    }

    /// Canonical identity of a match: the ordered constituent list. Two
    /// duplicate detections from overlapping sliding windows compare equal
    /// under this key (the paper's semantic-equivalence-modulo-duplicates,
    /// Section 4).
    pub fn match_key(&self) -> MatchKey {
        MatchKey((*self.events).clone())
    }

    /// Replace the constituent list (copy-on-write if shared).
    pub fn set_events(&mut self, events: Vec<Event>) {
        self.events = Arc::new(events);
    }
}

/// How a join derives the output tuple's working timestamp (Section 4.2.2):
/// minimum for partial matches of a nested pattern, maximum for complete
/// matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsRule {
    /// Earliest constituent timestamp (partial matches).
    Min,
    /// Latest constituent timestamp (complete matches).
    Max,
    /// The left input's timestamp, unchanged.
    Left,
    /// The right input's timestamp, unchanged.
    Right,
}

/// Hashable identity of a match, used for deduplication and for comparing
/// engine outputs in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchKey(pub Vec<Event>);

impl Hash for MatchKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for e in &self.0 {
            e.hash(state);
        }
    }
}

impl PartialOrd for MatchKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MatchKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let a = self
            .0
            .iter()
            .map(|e| (e.ts, e.etype, e.id, e.value.to_bits()));
        let b = other
            .0
            .iter()
            .map(|e| (e.ts, e.etype, e.id, e.value.to_bits()));
        a.cmp(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventType;

    fn ev(t: u16, id: u32, min: i64, v: f64) -> Event {
        Event::new(EventType(t), id, Timestamp::from_minutes(min), v)
    }

    #[test]
    fn from_event_sets_key_and_ts() {
        let t = Tuple::from_event(ev(0, 9, 5, 1.0));
        assert_eq!(t.key, 9);
        assert_eq!(t.ts, Timestamp::from_minutes(5));
        assert_eq!(t.events.len(), 1);
    }

    #[test]
    fn join_concatenates_and_applies_ts_rule() {
        let a = Tuple::from_event_wall(ev(0, 1, 2, 1.0), 100);
        let b = Tuple::from_event_wall(ev(1, 1, 7, 2.0), 300);
        let min = a.join(&b, TsRule::Min);
        assert_eq!(min.ts, Timestamp::from_minutes(2));
        assert_eq!(min.events.len(), 2);
        assert_eq!(min.wall, 300, "wall is max of constituents");
        let max = a.join(&b, TsRule::Max);
        assert_eq!(max.ts, Timestamp::from_minutes(7));
        assert_eq!(a.join(&b, TsRule::Left).ts, a.ts);
        assert_eq!(a.join(&b, TsRule::Right).ts, b.ts);
    }

    #[test]
    fn ts_begin_end_span_constituents() {
        let a = Tuple::from_event(ev(0, 1, 2, 1.0));
        let b = Tuple::from_event(ev(1, 1, 7, 2.0));
        let c = Tuple::from_event(ev(2, 1, 4, 3.0));
        let m = a.join(&b, TsRule::Max).join(&c, TsRule::Max);
        assert_eq!(m.ts_begin(), Timestamp::from_minutes(2));
        assert_eq!(m.ts_end(), Timestamp::from_minutes(7));
    }

    #[test]
    fn match_key_identifies_duplicates() {
        let a = Tuple::from_event(ev(0, 1, 2, 1.0));
        let b = Tuple::from_event(ev(1, 1, 3, 2.0));
        let m1 = a.join(&b, TsRule::Max);
        let mut m2 = a.join(&b, TsRule::Max);
        m2.wall = 999; // different detection time, same match
        assert_eq!(m1.match_key(), m2.match_key());
        let m3 = b.join(&a, TsRule::Max); // different constituent order
        assert_ne!(m1.match_key(), m3.match_key());
    }

    #[test]
    fn ats_propagates_through_join() {
        let mut a = Tuple::from_event(ev(0, 1, 2, 1.0));
        a.ats = Some(Timestamp::from_minutes(10));
        let b = Tuple::from_event(ev(1, 1, 3, 2.0));
        assert_eq!(
            a.join(&b, TsRule::Max).ats,
            Some(Timestamp::from_minutes(10))
        );
        assert_eq!(
            b.join(&a, TsRule::Max).ats,
            Some(Timestamp::from_minutes(10))
        );
    }

    #[test]
    fn mem_bytes_grows_with_constituents() {
        let a = Tuple::from_event(ev(0, 1, 2, 1.0));
        let b = Tuple::from_event(ev(1, 1, 3, 2.0));
        let joined = a.join(&b, TsRule::Max);
        assert!(joined.mem_bytes() > a.mem_bytes());
    }
}
