//! The traced run's span log: spans recorded by the benchmark around
//! its calls into each layer, kept in memory and written out at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are seconds since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span covers, e.g. `codec.v2.encode`.
    pub name: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The request (or solve) the span belongs to; spans of one
    /// request share it.
    pub req: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Append-only span log. A disabled log records nothing and reads no
/// clock, so the untraced pass runs the same code at no cost.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log timing spans against `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span from timestamps already taken; returns its index
    /// (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span called `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Move every span of `other` into this log (parent links are
    /// re-based; both logs must share an epoch).
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Write one JSON record per span: name, start and end (seconds
    /// since the epoch), parent index (or null) and request id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// What a total leaves after its attributed parts: the share no layer
/// claims. Reported, never hidden.
pub fn unattributed(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unattributed_is_total_minus_its_layers() {
        assert_eq!(unattributed(10.0, &[2.0, 3.0, 4.0]), 1.0);
        assert_eq!(unattributed(5.0, &[]), 5.0);
        // Overlapping parts can claim more than the total; the
        // remainder then shows as negative rather than being clamped.
        assert_eq!(unattributed(1.0, &[0.75, 0.5]), -0.25);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        assert_eq!(log.time("x", None, 1, || 7), 7);
        let now = Instant::now();
        assert_eq!(log.record("y", None, 1, now, now), None);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn spans_keep_parent_and_request_across_absorb() {
        let epoch = Instant::now();
        let t = |ms: u64| epoch + Duration::from_millis(ms);
        let mut a = SpanLog::new(epoch, true);
        let root = a.record("request", None, 1, t(0), t(10));
        a.record("encode", root, 1, t(0), t(2));
        let mut b = SpanLog::new(epoch, true);
        let root_b = b.record("request", None, 2, t(5), t(9));
        b.record("decode", root_b, 2, t(8), t(9));
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[3].req, 2);
        let requests = a.secs_of("request");
        assert_eq!(requests.len(), 2);
        assert!((requests[1] - 0.004).abs() < 1e-12);
    }
}
