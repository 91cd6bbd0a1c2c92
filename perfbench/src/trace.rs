//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public entry
//! point. Every span has a start, an end and a parent; all spans of one
//! workload run carry the same run id. Nothing is written until the run
//! exits ([`Tracer::to_json`]). With tracing off, [`Tracer::span`] reads
//! no clock and records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    run_id: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer {
            enabled,
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off between spans (used to interleave
    /// untraced repetitions into the traced run for the overhead figure).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "cannot toggle tracing inside a span");
        self.enabled = on;
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Open a span; close it with [`Tracer::end`]. `None` when tracing is
    /// off.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_ns = self.now_ns();
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it covered
    /// by its children (children of one parent run one after another).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self time summed per layer (see [`layer_of`]), in nanoseconds.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(layer_of(s.name)).or_insert(0) += own;
        }
        out
    }

    /// Wall time of the root spans, in nanoseconds.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!(
            "{{\"run_id\": {}, \"workload\": \"{workload}\", \"spans\": [",
            self.run_id
        );
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n  {{\"run_id\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                self.run_id, s.id, s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The layer a span belongs to: the module whose public entry point it
/// wraps. `bench` is the harness itself (root and per-arm spans).
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "sea" => "sea",
        "cep2asp" => "cep2asp",
        "asp" => "asp",
        "cep" => "cep",
        "check" => "check",
        "workloads" => "workloads",
        _ => "bench",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_root() {
        let mut t = Tracer::new(true, 7);
        t.span("bench.run", |t| {
            t.span("sea.parse", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("arm.fasp", |t| {
                t.span("asp.run", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(3))
                });
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let own = t.self_ns();
        assert_eq!(own.iter().sum::<u64>(), t.root_ns());
        assert!(own[3] >= 3_000_000);
        let by_layer = t.self_by_layer();
        assert_eq!(by_layer.values().sum::<u64>(), t.root_ns());
        assert!(by_layer["asp"] >= 3_000_000 && by_layer["sea"] >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        let v = t.span("asp.run", |t| t.span("check", |_| 5));
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }
}
