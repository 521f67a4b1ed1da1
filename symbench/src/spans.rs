//! In-memory span recording for the traced pass.
//!
//! A span is `(id, parent, thread, name, start, end)`, recorded by the
//! benchmark around its calls into one layer's public functions. Each
//! worker records into its own [`Local`] buffer, which hands its spans to
//! the shared [`Tracer`] when dropped, so recording takes no lock on the
//! hot path. With tracing off, [`Local::begin`] reads no clock and nothing
//! is kept: the untraced replay runs the same code minus the timestamps,
//! which is what `obs.trace_overhead_ratio` compares.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a top-level span.
pub const NO_PARENT: u32 = 0;

/// One finished span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u32,
    pub parent: u32,
    pub thread: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The shared span store of one replay.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

/// A span that has begun and not yet ended.
pub struct Open {
    /// The span's id, to pass as the parent of nested spans.
    pub id: u32,
    parent: u32,
    name: &'static str,
    start: Option<Instant>,
}

/// One thread's span buffer.
pub struct Local<'a> {
    tracer: &'a Tracer,
    thread: u32,
    buf: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recording buffer for worker `thread`.
    pub fn local(&self, thread: u32) -> Local<'_> {
        Local {
            tracer: self,
            thread,
            buf: Vec::new(),
        }
    }

    /// Every span handed over so far, ordered by start time.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

impl Local<'_> {
    /// Starts a span named `name` under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: u32) -> Open {
        if !self.tracer.on {
            return Open {
                id: NO_PARENT,
                parent,
                name,
                start: None,
            };
        }
        Open {
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Ends `open`, keeping it when tracing is on.
    pub fn end(&mut self, open: Open) {
        if let Some(start) = open.start {
            let end = Instant::now();
            let ns = |t: Instant| t.duration_since(self.tracer.epoch).as_nanos() as u64;
            self.buf.push(SpanRec {
                id: open.id,
                parent: open.parent,
                thread: self.thread,
                name: open.name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, parent);
        let out = f();
        self.end(open);
        out
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans.append(&mut self.buf);
            }
        }
    }
}

/// Summed self time of the spans named `name`: each span's duration minus
/// the part its same-thread children cover.
pub fn self_ns(spans: &[SpanRec], name: &str) -> u64 {
    let mut covered: HashMap<(u32, u32), u64> = HashMap::new();
    for c in spans.iter().filter(|c| c.parent != NO_PARENT) {
        *covered.entry((c.parent, c.thread)).or_default() += c.dur_ns();
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let children = covered.get(&(s.id, s.thread)).copied().unwrap_or(0);
            s.dur_ns().saturating_sub(children)
        })
        .sum()
}

/// Summed duration of the spans named `name`.
pub fn total_ns(spans: &[SpanRec], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::dur_ns)
        .sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[SpanRec], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Appends `spans` to a tab-separated dump (`pipeline id parent thread
/// name start_ns end_ns`), writing the header when the file is new.
pub fn dump(path: &Path, pipeline: &str, spans: &[SpanRec]) -> std::io::Result<()> {
    let fresh = !path.exists();
    let mut out = std::io::BufWriter::new(
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?,
    );
    if fresh {
        writeln!(out, "pipeline\tid\tparent\tthread\tname\tstart_ns\tend_ns")?;
    }
    for s in spans {
        writeln!(
            out,
            "{pipeline}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let tracer = Tracer::new(true);
        {
            let mut local = tracer.local(0);
            let outer = local.begin("outer", NO_PARENT);
            local.span("inner", outer.id, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            local.end(outer);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = total_ns(&spans, "outer");
        let inner = total_ns(&spans, "inner");
        assert!(inner >= 2_000_000 && outer >= inner);
        assert_eq!(self_ns(&spans, "outer"), outer - inner);
        assert_eq!(count(&spans, "inner"), 1);
    }

    #[test]
    fn an_untraced_tracer_keeps_nothing() {
        let tracer = Tracer::new(false);
        tracer.local(0).span("x", NO_PARENT, || ());
        assert!(tracer.spans().is_empty());
    }
}
