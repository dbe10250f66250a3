//! In-memory spans for the traced run.
//!
//! A span is a timed call into one layer's public function: name, start,
//! end, and the span it belongs to. Spans stay in memory and are written
//! once, as a Chrome trace, when the run ends. A span's self time is its
//! duration minus the durations of its children.
//!
//! Stage spans (packing, GEMM, reference ops, ISA lowering, ...) are
//! timed in a replay right after their parent span, on the parent's own
//! operands, because the parent calls them internally where the benchmark
//! cannot see. They name the parent they replay, and the Chrome trace
//! puts them on their own track.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifies a recorded span.
pub type SpanId = usize;

struct Span {
    name: String,
    parent: Option<SpanId>,
    start_s: f64,
    end_s: f64,
    replay: bool,
}

/// Records spans against one clock.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Opens a span named `name` under `parent`; [`Recorder::end`] closes it.
    pub fn start(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_s: now,
            end_s: now,
            replay: false,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.start(name, parent);
        let value = f();
        self.end(id);
        (value, id)
    }

    /// Times `f` as a replayed stage of `parent`, returning the value and
    /// the span's milliseconds.
    pub fn replay<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> (T, f64) {
        let (value, id) = self.time(name, Some(parent), f);
        self.spans[id].replay = true;
        (value, self.ms(id))
    }

    /// A span's duration, milliseconds.
    pub fn ms(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end_s - s.start_s) * 1e3
    }

    /// A span's self time: its duration minus its children's, milliseconds.
    pub fn self_ms(&self, id: SpanId) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .enumerate()
            .skip(id + 1)
            .filter(|(_, s)| s.parent == Some(id))
            .map(|(i, _)| self.ms(i))
            .sum();
        self.ms(id) - children
    }

    /// The spans as Chrome trace-event JSON (load it in Perfetto). Direct
    /// calls sit on track 1, replayed stages on track 2.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                if s.replay { 2 } else { 1 },
                s.start_s * 1e6,
                (s.end_s - s.start_s) * 1e6,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-job totals of the traced quantities, by metric name; the reported
/// value of each is its median over the traced jobs.
#[derive(Debug, Default, Clone)]
pub struct Tally(pub BTreeMap<String, f64>);

impl Tally {
    /// Adds `v` to metric `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_default() += v;
    }

    /// Sets metric `name` to `v`.
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    /// Metric `name`, 0 when never recorded.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The per-metric median over several jobs' tallies.
pub fn median_tally(tallies: &[Tally]) -> Tally {
    let mut names: Vec<&String> = tallies.iter().flat_map(|t| t.0.keys()).collect();
    names.sort();
    names.dedup();
    let mut out = Tally::default();
    for name in names {
        let values: Vec<f64> = tallies.iter().map(|t| t.get(name)).collect();
        out.set(name, crate::measure::median(&values));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::default();
        let ((), parent) = rec.time("parent", None, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        let ((), child) = rec.replay("child", parent, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!(child >= 5.0);
        let expect = rec.ms(parent) - child;
        assert!((rec.self_ms(parent) - expect).abs() < 1e-9);
        assert!(rec.chrome_json().contains("\"parent\":0"));
    }
}
