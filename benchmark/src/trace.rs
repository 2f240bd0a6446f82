//! Span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer; nothing inside the product crates is instrumented.  They are
//! kept in memory and written out once, when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that was open when this one started.
    parent: Option<usize>,
    /// Counts taken at this span's boundary.
    counts: Vec<(String, f64)>,
}

/// Records nested spans, or does nothing when disabled.
pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records; `run_id` is shared by every span of the run.
    pub fn recording(run_id: String) -> Tracer {
        Tracer {
            enabled: true,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer whose `span` only calls the closure.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::recording(String::new())
        }
    }

    /// Switch recording on or off (the traced run alternates untraced and
    /// traced repetitions to measure the overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, a child of the span open now.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        if let Some(&index) = self.open.last() {
            self.spans[index].counts.push((name.to_string(), value));
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"run_id\": {}, \"spans\": [",
            json_string(&self.run_id)
        );
        for (i, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let counts: Vec<String> = span
                .counts
                .iter()
                .map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v)))
                .collect();
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"run_id\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"counts\": {{{}}}}}{}",
                json_string(&self.run_id),
                json_string(&span.name),
                span.start_ns,
                span.end_ns,
                counts.join(", "),
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits that were measured; JSON has no
/// NaN/infinity, so a value that is not finite is a bug in the caller.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}
