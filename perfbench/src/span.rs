//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public function. A span's name is `<layer>.<what>`; its layer is the
//! part before the first dot. Spans named `bench.*` group one operation's
//! layer calls and are not a layer: their self time is the benchmark's own
//! glue, so it counts against `trace.coverage`.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans of one run, kept in memory until the run ends.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Spans {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Records `f` as one leaf span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Summed self time of every span with this name, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e9)
            .sum()
    }

    /// Summed self time of every layer span (everything but `bench.*`).
    pub fn layer_self_s(&self) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.layer() != "bench")
            .map(|(_, ns)| ns as f64 / 1e9)
            .sum()
    }

    /// One JSON object per line: name, start, end, parent, op.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut sp = Spans::default();
        let outer = sp.enter("bench.op", 1);
        sp.time("core.checked", 1, || std::thread::sleep(std::time::Duration::from_millis(5)));
        sp.time("exec.run", 1, || std::thread::sleep(std::time::Duration::from_millis(5)));
        sp.exit(outer);
        let own = sp.self_ns();
        let total = sp.all()[outer].dur_ns();
        assert_eq!(own[outer] + own[1] + own[2], total);
        assert!(sp.layer_self_s() * 1e9 <= total as f64);
        assert_eq!(sp.all()[1].parent, Some(outer));
        assert_eq!(sp.all()[1].layer(), "core");
    }
}
