//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: a name, an optional tag (the
//! experiment id, or the cache outcome of a request), the iteration or
//! request id it belongs to, start and end in nanoseconds since the
//! recorder's epoch, and the span that was open when it began. Spans are
//! only appended while the run measures; they are reduced to self times
//! and written out as TSV once it ends.
//!
//! A disabled recorder keeps no spans, so the untraced run goes through
//! the same code with one branch per span boundary.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; [`Tracer::end`] closes it.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between spans, so traced and untraced
    /// passes over the same work can alternate in one process.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "switched inside an open span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, tag: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            id,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(index), "spans must close innermost first");
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Replace the tag of a closed span (the cache outcome of a request
    /// is known only after its span ends).
    pub fn retag(&mut self, open: Open, tag: &'static str) {
        if let Some(index) = open.0 {
            self.spans[index].tag = tag;
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, "", id);
        let out = f();
        self.end(open);
        out
    }

    /// Self time of every span: its duration minus what its children
    /// cover. Children of one parent never overlap — every span is
    /// opened and closed on the recording thread.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, child)| span.dur_ns() - child)
            .collect()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every closed span named `name` (any tag when
    /// `tag` is `None`).
    pub fn durations_ms(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Write every span, with its self time, as TSV.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let self_times = self.self_times();
        let mut out = String::from("index\tname\ttag\tid\tstart_ns\tend_ns\tparent\tself_ns\n");
        for (i, (span, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = span.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{parent}\t{self_ns}",
                span.name,
                if span.tag.is_empty() { "-" } else { span.tag },
                span.id,
                span.start_ns,
                span.end_ns,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", "", 1);
        t.time("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let self_times = t.self_times();
        assert_eq!(
            self_times[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert_eq!(self_times[1], spans[1].dur_ns());
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("x", "", 0);
        t.time("y", 0, || ());
        t.end(open);
        assert!(t.spans().is_empty());
    }
}
