//! The benchmark's own tracing: one span per public call it makes into
//! the simulator, kept in memory and written out at exit. Spans nest
//! by call order on the main thread, so a layer's self time is its
//! span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Span recorder; a disabled recorder (the untraced run) records nothing.
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when recording is off.
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.t0.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name);
        let out = f();
        self.exit(s);
        out
    }

    /// Self time per span name, seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += s.end - s.start - c;
        }
        out
    }

    /// Every span as a JSON array of `{name, start_s, end_s, parent}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i > 0 { ",\n" } else { "\n" };
            let _ = write!(
                s,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                sp.name, sp.start, sp.end
            );
        }
        s.push_str("\n]\n");
        s
    }
}
