//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer:
//! name, start, end, parent span and request id. Spans stay in memory
//! until the run ends and are then written out as JSON lines. Self time
//! is a span's duration minus the part of it covered by its children.
//! Summaries use every span; the file keeps a sample of whole requests.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub req: u64,
}

/// Spans of one thread of the benchmark.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans { epoch, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn wrap<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Append another recorder's spans, re-basing their parent links.
    /// Every recorder of a run shares the run's epoch, so times carry over.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Median duration and median self time, in microseconds, per span
    /// path (the span's name under its ancestors' names, joined by `.`),
    /// in path order.
    pub fn summary(&self) -> BTreeMap<String, (f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut paths: Vec<String> = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            // A parent is always opened, so recorded, before its children.
            let path = match s.parent {
                Some(p) => {
                    child_ns[p] += s.end_ns - s.start_ns;
                    format!("{}.{}", paths[p], s.name)
                }
                None => s.name.to_string(),
            };
            paths.push(path);
        }
        let mut by_path: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = by_path.entry(std::mem::take(&mut paths[i])).or_default();
            e.0.push(dur as f64 / 1e3);
            e.1.push(dur.saturating_sub(child_ns[i]) as f64 / 1e3);
        }
        by_path
            .into_iter()
            .map(|(k, (d, s))| (k, (crate::stats::median(&d), crate::stats::median(&s))))
            .collect()
    }

    /// Write the spans of every `every`-th request id, one JSON object per
    /// line; a written span's parent is always written too, since a
    /// request's spans share its id. Returns the number written.
    pub fn write_jsonl(&self, path: &Path, every: u64) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = 0;
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.req % every == 0) {
            written += 1;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(Instant::now());
        sp.spans.push(Span { name: "root", start_ns: 0, end_ns: 100, parent: None, req: 1 });
        sp.spans.push(Span { name: "a", start_ns: 10, end_ns: 40, parent: Some(0), req: 1 });
        sp.spans.push(Span { name: "b", start_ns: 50, end_ns: 70, parent: Some(0), req: 1 });
        let s = sp.summary();
        assert_eq!(s["root"], (0.1, 0.05));
        assert_eq!(s["root.a"], (0.03, 0.03));
    }
}
