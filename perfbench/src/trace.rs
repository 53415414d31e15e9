//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer's public API. Each span has a name, start and end (ns since the
//! tracer was created), its parent span, and the id of the workload pass
//! it belongs to. Nothing is written while the workload runs; [`Tracer::write`]
//! dumps every span at exit.
//!
//! A disabled tracer ([`Tracer::off`]) records nothing, so coarse-grained
//! workloads can share one code path between the untraced and traced runs.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span (and the id a disabled tracer hands out).
pub const NO_SPAN: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name (`zcache.array.walk`, `zsim.system_run`, ...).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Enclosing span, or [`NO_SPAN`].
    pub parent: u32,
    /// Workload pass this span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times (duration minus child-covered time), ns.
    pub self_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    run: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            on: true,
            ..Self::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new run id; spans recorded from now on carry it.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_SPAN);
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
            run: self.run,
        });
        self.stack.push(id);
        // Read the clock last, so the bookkeeping above is not billed to
        // the span.
        self.spans[id as usize].start = self.now();
        id
    }

    /// Closes span `id` (the innermost open span).
    #[inline]
    pub fn exit(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let end = self.now();
        self.spans[id as usize].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Closes span `id` and renames it, for spans whose name depends on
    /// the call's outcome (a hit or a miss).
    #[inline]
    pub fn exit_as(&mut self, id: u32, name: &'static str) {
        if id == NO_SPAN {
            return;
        }
        self.exit(id);
        self.spans[id as usize].name = name;
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its child
    /// spans cover. Spans nest strictly on one thread, so children never
    /// overlap and their durations can simply be summed.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child[s.parent as usize] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, &c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur();
            t.self_ns += st;
        }
        out
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Writes every span as CSV (`run,id,parent,name,start_ns,end_ns,self_ns`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "run,id,parent,name,start_ns,end_ns,self_ns")?;
        for (i, (s, st)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = if s.parent == NO_SPAN {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{},{},{},{},{},{},{}",
                s.run, i, parent, s.name, s.start, s.end, st
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        let root = t.enter("root");
        t.span("child", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let st = t.self_times();
        let spans = t.spans();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(st[0] + spans[1].dur(), spans[0].dur());
        assert!(spans[1].dur() >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("x");
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
