//! The traced run's span log: one span per call into a layer, recorded by
//! the benchmark around the call (nothing inside the program is touched).
//!
//! Spans stay in memory while the run measures and are written out as one
//! JSON file when it ends. An untraced log records nothing, so the same
//! measurement code serves both runs.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start, end, and the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `engine.solve_epoch`.
    pub name: &'static str,
    /// Index of the parent span in the same lane, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
}

/// A per-thread span log (one lane of the timeline).
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    lane: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log for `lane`; `enabled = false` records nothing.
    pub fn new(enabled: bool, lane: impl Into<String>, origin: Instant) -> Self {
        SpanLog {
            enabled,
            lane: lane.into(),
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this log records spans.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; it becomes the parent of spans opened before its
    /// matching [`SpanLog::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Write every lane's spans as one JSON document; returns the span count.
///
/// # Errors
///
/// Filesystem failure.
pub fn write_json(path: &Path, logs: &[&SpanLog]) -> std::io::Result<usize> {
    let mut out = String::from("{\"schema\": \"perfbench.spans/1\", \"lanes\": [");
    let mut total = 0;
    for (l, log) in logs.iter().filter(|l| l.enabled).enumerate() {
        let sep = if l == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n{{\"lane\": {:?}, \"spans\": [", log.lane);
        for (i, s) in log.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n[{:?}, {}, {}, {parent}]",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}");
        total += log.spans.len();
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)?;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_logs_stay_empty() {
        let origin = Instant::now();
        let mut log = SpanLog::new(true, "main", origin);
        log.time("outer", || {});
        log.enter("outer");
        log.time("inner", || {});
        log.exit();
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].parent, Some(1));
        assert!(s[1].end_ns >= s[2].end_ns);

        let mut off = SpanLog::new(false, "main", origin);
        off.time("outer", || {});
        assert!(off.spans().is_empty());
    }
}
