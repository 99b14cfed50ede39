//! Spans recorded from outside the program, around the public calls
//! into each layer. A disabled tracer costs one branch per call, so the
//! untraced and the traced run execute the same code.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` at the top.
    pub parent: u32,
    /// The operation this span belongs to.
    pub op: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<u32>,
    op: u32,
    pub spans: Vec<Span>,
}

/// Handle of an open span; `u32::MAX` when tracing is off.
#[derive(Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            op: 0,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Every span begun until the next call belongs to operation `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op as u32;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(u32::MAX);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(u32::MAX),
            op: self.op,
        });
        self.open.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == u32::MAX {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[open.0 as usize].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(open.0), "spans must nest");
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64)
            .collect()
    }

    /// Total nanoseconds spent in spans called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for s in &self.spans {
            if s.parent != u32::MAX {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.nanos());
            }
        }
        own
    }

    /// The whole trace as one JSON array, written when the run ends.
    pub fn to_json(&self) -> String {
        let own = self.self_nanos();
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                s.parent as i64
            };
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, own[i]
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        let outer = t.begin("op");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[1].op, 3);
        let own = t.self_nanos();
        assert_eq!(own[0], t.spans[0].nanos() - t.spans[1].nanos());
        assert!(t.to_json().contains("\"name\":\"child\""));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", || 5), 5);
        assert!(off.spans.is_empty());
    }
}
