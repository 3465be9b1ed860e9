//! In-memory span recorder for traced runs.
//!
//! A span is recorded around each call into a public library function:
//! name, start, end, parent span and request id. Spans stay in memory
//! and are written out once, when the run ends. A disabled tracer runs
//! the wrapped closure and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the run's time origin.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Request (operation) id shared by every span of one request.
    pub req: u64,
}

/// Per-thread span recorder; threads merge theirs with [`Tracer::absorb`].
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span of this tracer.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        r
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self time of each span: its duration minus the time its direct
    /// children cover. Children of one span run one after another on
    /// its thread, so their durations add without overlap.
    pub fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start - c).max(0.0))
            .collect()
    }

    /// Writes every span plus per-name totals as one JSON document.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += st;
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"workload\": \"{workload}\", \"seed\": {seed},")?;
        writeln!(w, "\"by_name\": {{")?;
        for (i, (name, (count, total, own))) in by_name.iter().enumerate() {
            let sep = if i + 1 < by_name.len() { "," } else { "" };
            writeln!(
                w,
                "  \"{name}\": {{\"count\": {count}, \"total_s\": {total}, \"self_s\": {own}}}{sep}"
            )?;
        }
        writeln!(w, "}},\n\"spans\": [")?;
        for (i, (s, st)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"self_s\": {st}, \"parent\": {parent}, \"req\": {}}}{sep}",
                s.name, s.start, s.end, s.req
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Host seconds one recorded span costs, measured on a throwaway tracer.
pub fn cost_per_span() -> f64 {
    const N: u64 = 20_000;
    let mut t = Tracer::new(true, Instant::now());
    let start = Instant::now();
    for i in 0..N {
        t.span("probe", i, |_| std::hint::black_box(i));
    }
    start.elapsed().as_secs_f64() / N as f64
}
