//! Spans and counters recorded around the benchmark's calls into each
//! layer, kept in memory and written out when the run ends.
//!
//! A disabled [`Trace`] records nothing: `span` calls the closure
//! directly, so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call: `parent` indexes the enclosing span, `job` is the
/// job the call belongs to (`None` during set-up).
struct Span {
    name: &'static str,
    job: Option<u64>,
    parent: Option<usize>,
    start: Duration,
    dur: Duration,
}

/// Per-layer spans plus per-occurrence metric samples.
pub struct Trace {
    on: bool,
    origin: Instant,
    job: Option<u64>,
    open: Vec<usize>,
    spans: Vec<Span>,
    /// Metric name → (sum of samples, number of samples).
    samples: BTreeMap<&'static str, (f64, u64)>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            job: None,
            open: Vec::new(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Attributes the following spans to `job` (`None`: set-up).
    pub fn set_job(&mut self, job: Option<u64>) {
        self.job = job;
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            dur: Duration::ZERO,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id` and returns its duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        if !self.on {
            return 0.0;
        }
        self.open.retain(|&open| open != id);
        let span = &mut self.spans[id];
        span.dur = self.origin.elapsed().saturating_sub(span.start);
        span.dur.as_secs_f64() * 1e3
    }

    /// Times `f` as span `name` and records its duration in milliseconds
    /// as a sample of `metric`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        metric: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.begin(name);
        let out = f();
        let ms = self.end(id);
        self.sample(metric, ms);
        out
    }

    /// Records one sample of `metric`; the reported value is the mean
    /// over samples.
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        if self.on {
            let slot = self.samples.entry(metric).or_insert((0.0, 0));
            slot.0 += value;
            slot.1 += 1;
        }
    }

    /// The mean of `metric`'s samples, if any were recorded.
    pub fn mean(&self, metric: &str) -> Option<f64> {
        self.samples
            .get(metric)
            .map(|&(sum, n)| sum / n.max(1) as f64)
    }

    /// Writes every span as a Chrome trace-event JSON array.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let job = s
                .job
                .map_or_else(|| "\"setup\"".to_string(), |j| j.to_string());
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"job\":{job},\"parent\":{parent}}}}}{sep}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing_but_still_runs_the_call() {
        let mut tr = Trace::new(false);
        assert_eq!(tr.span("a", "a_ms", || 7), 7);
        tr.sample("n", 3.0);
        assert_eq!(tr.mean("a_ms"), None);
        assert_eq!(tr.mean("n"), None);
    }

    #[test]
    fn spans_nest_and_samples_average() {
        let mut tr = Trace::new(true);
        let job = tr.begin("job");
        tr.span("inner", "inner_ms", || ());
        tr.end(job);
        tr.sample("n", 2.0);
        tr.sample("n", 4.0);
        assert_eq!(tr.mean("n"), Some(3.0));
        assert!(tr.mean("inner_ms").is_some());
        assert_eq!(tr.spans[1].parent, Some(0));
    }
}
