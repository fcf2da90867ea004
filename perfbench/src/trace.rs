//! Spans recorded from the benchmark's own code, around its calls into
//! each layer. Kept in memory and written out when the run ends, as a
//! Chrome trace-event file and a per-layer text table.
//!
//! A disabled tracer runs the wrapped closures and records nothing, so the
//! untraced runs that give the end-to-end metrics pay one branch per span.

use crate::alloc;
use std::fmt::Write;
use std::time::Instant;

/// One recorded span. `start_ns` is `None` for an aggregate: many short
/// intervals summed into one record (a hot loop's phases), which has a
/// duration but no place on the timeline.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: Option<u64>,
    pub dur_ns: u64,
    pub count: u64,
    pub allocs: u64,
    pub bytes: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        alloc::set_counting(enabled);
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let (allocs, bytes) = alloc::totals();
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns: Some(self.origin.elapsed().as_nanos() as u64),
            dur_ns: 0,
            count: 1,
            allocs,
            bytes,
        });
        self.stack.push(idx);
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        let (allocs, bytes) = alloc::totals();
        self.stack.pop();
        let s = &mut self.spans[idx];
        s.dur_ns = end - s.start_ns.expect("timeline span");
        s.allocs = allocs - s.allocs;
        s.bytes = bytes - s.bytes;
        out
    }

    /// Record an aggregate child of the innermost open span.
    pub fn aggregate(&mut self, name: &str, dur_ns: u64, count: u64, allocs: u64, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns: None,
            dur_ns,
            count,
            allocs,
            bytes,
        });
    }

    /// The last span recorded under `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    pub fn get(&self, idx: usize) -> &Span {
        &self.spans[idx]
    }

    pub fn children(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.spans.len()).filter(move |&i| self.spans[i].parent == Some(idx))
    }

    /// Duration minus the part covered by child spans. Children of one span
    /// run one after another, so their durations do not overlap.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let covered: u64 = self.children(idx).map(|c| self.spans[c].dur_ns).sum();
        self.spans[idx].dur_ns.saturating_sub(covered)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto). Timeline
    /// spans become complete (`X`) events carrying their self time and
    /// allocations; aggregates are listed in their parent's `args`.
    /// `metadata` is a JSON object placed under `otherData`.
    pub fn chrome_json(&self, metadata: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            let Some(start) = s.start_ns else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            let aggregates: Vec<String> = self
                .children(i)
                .filter(|&c| self.spans[c].start_ns.is_none())
                .map(|c| {
                    let a = &self.spans[c];
                    format!(
                        "{}:{{\"dur_ms\":{},\"count\":{},\"allocs\":{},\"bytes\":{}}}",
                        json_str(&a.name),
                        a.dur_ns as f64 / 1e6,
                        a.count,
                        a.allocs,
                        a.bytes
                    )
                })
                .collect();
            write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"self_ms\":{},\"allocs\":{},\"bytes\":{},\"aggregates\":{{{}}}}}}}",
                json_str(&s.name),
                start as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                self.self_ns(i) as f64 / 1e6,
                s.allocs,
                s.bytes,
                aggregates.join(",")
            )
            .expect("write to String");
        }
        write!(out, "],\"otherData\":{metadata}}}").expect("write to String");
        out
    }

    /// The span tree as text: total and self time, call count and
    /// allocations per span, children indented under their parent.
    pub fn tree_table(&self) -> String {
        let mut out = format!(
            "{:<44} {:>11} {:>11} {:>8} {:>12} {:>14}\n",
            "span", "total_ms", "self_ms", "count", "allocs", "alloc_bytes"
        );
        fn walk(t: &Tracer, idx: usize, depth: usize, out: &mut String) {
            let s = &t.spans[idx];
            let label = format!("{}{}", "  ".repeat(depth), s.name);
            writeln!(
                out,
                "{:<44} {:>11.3} {:>11.3} {:>8} {:>12} {:>14}",
                label,
                s.dur_ns as f64 / 1e6,
                t.self_ns(idx) as f64 / 1e6,
                s.count,
                s.allocs,
                s.bytes
            )
            .expect("write to String");
            let kids: Vec<usize> = t.children(idx).collect();
            for c in kids {
                walk(t, c, depth + 1, out);
            }
        }
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .collect();
        for r in roots {
            walk(self, r, 0, &mut out);
        }
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
