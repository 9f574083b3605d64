//! Spans recorded from outside the program, around each call the
//! benchmark makes into a layer's public functions.
//!
//! A span has a name (`<layer>.<call>`), start and end, the span that
//! encloses it on the same thread, and the id of the operation it
//! serves. Spans stay in memory while tracing is on and are written out
//! as JSON lines when the run ends. Nothing is recorded while tracing is
//! off, so the timed runs pay one relaxed atomic load per call.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static PARENT: Cell<u64> = const { Cell::new(0) };
    static OP: Cell<u64> = const { Cell::new(0) };
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` as a new operation: spans inside it share a fresh op id.
pub fn op<R>(f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_OP.fetch_add(1, Ordering::Relaxed);
    let outer = OP.with(|o| o.replace(id));
    let r = f();
    OP.with(|o| o.set(outer));
    r
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = PARENT.with(|p| p.replace(id));
    let start_ns = now_ns();
    let r = f();
    let end_ns = now_ns();
    PARENT.with(|p| p.set(parent));
    let op = OP.with(Cell::get);
    LOCAL.with(|l| {
        l.borrow_mut().push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        })
    });
    r
}

/// Moves this thread's spans to the shared list; worker threads call it
/// before they end.
pub fn flush_thread() {
    let mine = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    if !mine.is_empty() {
        SPANS.lock().expect("span list lock").extend(mine);
    }
}

/// Every span recorded so far (this thread's flushed first).
pub fn take_all() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *SPANS.lock().expect("span list lock"))
}

/// Seconds of self time per layer: each span's duration minus the part
/// of it its child spans cover (children never overlap on one thread).
pub fn self_seconds(spans: &[Span], layer: &str) -> f64 {
    let mut child_ns = std::collections::HashMap::<u64, u64>::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.layer() == layer)
        .map(|s| {
            s.dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .sum::<u64>() as f64
        / 1e9
}

/// Writes the spans as JSON lines.
pub fn write(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"op":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
