//! The unified data model (paper Section 2, model 1).
//!
//! Both paradigms operate on the same representation: a CEP *event* is an
//! ASP *tuple* with a mandatory timestamp attribute and an inferable *event
//! type*. This module defines the primitive [`Event`] with the evaluation
//! schema used throughout the paper's workloads — `(id, lat, lon, ts, value)`
//! — plus the [`EventType`] universe and the attribute accessors the
//! predicate layer builds on.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::Timestamp;

/// An event type `T_i` from the universe ε = {T1, …, Tn}.
///
/// Types are small integers assigned by a [`TypeRegistry`]; the payload is a
/// dense index so type dispatch in hot operator paths is a single compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventType(pub u16);

impl fmt::Display for EventType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Maps human-readable event-type names ("Q", "V", "PM10", …) to dense
/// [`EventType`] indices and back. Shared by workload generators, the
/// pattern language, and plan printers.
///
/// Lookups are O(1): a hash index backs [`intern`](Self::intern) and
/// [`get`](Self::get), while the dense `names` vec keeps id → name
/// resolution and registration-order iteration allocation-free.
#[derive(Debug, Default, Clone)]
pub struct TypeRegistry {
    names: Vec<String>,
    index: std::collections::HashMap<String, EventType>,
}

impl TypeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a type by name, returning its id.
    ///
    /// # Panics
    ///
    /// If `name` is new and the registry already holds `u16::MAX` types;
    /// [`try_intern`](Self::try_intern) reports that as `None` instead.
    pub fn intern(&mut self, name: &str) -> EventType {
        self.try_intern(name).expect("type universe exhausted")
    }

    /// Register (or look up) a type by name, returning its id, or `None`
    /// if `name` is new and the `u16` id space is exhausted.
    pub fn try_intern(&mut self, name: &str) -> Option<EventType> {
        if let Some(t) = self.index.get(name) {
            return Some(*t);
        }
        if self.names.len() >= u16::MAX as usize {
            return None;
        }
        let t = EventType(self.names.len() as u16);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), t);
        Some(t)
    }

    /// Resolve a registered name without interning.
    pub fn get(&self, name: &str) -> Option<EventType> {
        self.index.get(name).copied()
    }

    /// Resolve a type id back to its name.
    pub fn name(&self, t: EventType) -> Option<&str> {
        self.names.get(t.0 as usize).map(String::as_str)
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no types have been registered yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(EventType, name)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (EventType, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (EventType(i as u16), n.as_str()))
    }
}

/// A primitive sensor event with the paper's common schema
/// `(id, lat, lon, ts, value)` plus its event type.
///
/// The struct is `Copy` and 32 bytes so join buffers stay allocation-free
/// per element and state-size accounting is exact. On the wire
/// each field becomes its own dense array ([`crate::columnar::
/// ColumnarBatch`]), so a primitive event flows source→sink without ever
/// being boxed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Event type `T_i ∈ ε`.
    pub etype: EventType,
    /// Producer/sensor identifier — the partition key in keyed workloads.
    pub id: u32,
    /// Creation timestamp `e.ts` (event time).
    pub ts: Timestamp,
    /// The measurement (quantity, velocity, PM10, …).
    pub value: f64,
    /// Sensor latitude.
    pub lat: f32,
    /// Sensor longitude.
    pub lon: f32,
}

impl Event {
    /// Construct an event with zeroed coordinates (most tests don't care).
    pub fn new(etype: EventType, id: u32, ts: Timestamp, value: f64) -> Self {
        Event {
            etype,
            id,
            ts,
            value,
            lat: 0.0,
            lon: 0.0,
        }
    }

    /// Read a named attribute, the common currency of the predicate layer.
    #[inline]
    pub fn attr(&self, a: Attr) -> f64 {
        match a {
            Attr::Value => self.value,
            Attr::Ts => self.ts.millis() as f64,
            Attr::Id => self.id as f64,
            Attr::Lat => self.lat as f64,
            Attr::Lon => self.lon as f64,
        }
    }
}

impl Eq for Event {}

impl std::hash::Hash for Event {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.etype.hash(state);
        self.id.hash(state);
        self.ts.hash(state);
        self.value.to_bits().hash(state);
        self.lat.to_bits().hash(state);
        self.lon.to_bits().hash(state);
    }
}

/// Named attributes of the common schema, used by predicates and the
/// pattern language (`e1.value`, `e2.id`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Attr {
    /// The measurement payload (`value`).
    Value,
    /// The event timestamp (`ts`).
    Ts,
    /// The sensor/entity id (`id`).
    Id,
    /// Latitude (`lat`), for spatial workloads.
    Lat,
    /// Longitude (`lon`), for spatial workloads.
    Lon,
}

impl Attr {
    /// Every attribute, in declaration order — the column set of the
    /// head-event block in [`crate::columnar::ColumnarBatch`] (plus the
    /// type column). Lets tests and generators enumerate the schema.
    pub const ALL: [Attr; 5] = [Attr::Value, Attr::Ts, Attr::Id, Attr::Lat, Attr::Lon];

    /// Parse an attribute name as written in the pattern language.
    pub fn parse(s: &str) -> Option<Attr> {
        match s {
            "value" => Some(Attr::Value),
            "ts" => Some(Attr::Ts),
            "id" => Some(Attr::Id),
            "lat" => Some(Attr::Lat),
            "lon" => Some(Attr::Lon),
            _ => None,
        }
    }

    /// The attribute's name as written in the pattern language.
    pub fn name(self) -> &'static str {
        match self {
            Attr::Value => "value",
            Attr::Ts => "ts",
            Attr::Id => "id",
            Attr::Lat => "lat",
            Attr::Lon => "lon",
        }
    }
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_interns_and_resolves() {
        let mut reg = TypeRegistry::new();
        let q = reg.intern("Q");
        let v = reg.intern("V");
        assert_ne!(q, v);
        assert_eq!(reg.intern("Q"), q, "intern is idempotent");
        assert_eq!(reg.get("V"), Some(v));
        assert_eq!(reg.get("PM10"), None);
        assert_eq!(reg.name(q), Some("Q"));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn registry_iteration_order_is_registration_order() {
        let mut reg = TypeRegistry::new();
        for n in ["Q", "V", "PM10"] {
            reg.intern(n);
        }
        let names: Vec<_> = reg.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["Q", "V", "PM10"]);
    }

    #[test]
    fn event_is_32_bytes() {
        // Join buffers hold millions of these; keep the layout compact.
        assert_eq!(std::mem::size_of::<Event>(), 32);
    }

    #[test]
    fn attr_accessors() {
        let mut e = Event::new(EventType(3), 7, Timestamp::from_minutes(2), 42.5);
        e.lat = 50.1;
        e.lon = 8.7;
        assert_eq!(e.attr(Attr::Value), 42.5);
        assert_eq!(e.attr(Attr::Id), 7.0);
        assert_eq!(e.attr(Attr::Ts), (2 * crate::time::MINUTE_MS) as f64);
        assert!((e.attr(Attr::Lat) - 50.1).abs() < 1e-5);
        assert!((e.attr(Attr::Lon) - 8.7).abs() < 1e-5);
    }

    #[test]
    fn attr_parse_round_trips() {
        for a in [Attr::Value, Attr::Ts, Attr::Id, Attr::Lat, Attr::Lon] {
            assert_eq!(Attr::parse(a.name()), Some(a));
        }
        assert_eq!(Attr::parse("speed"), None);
    }
}
