//! In-memory span recording around every call the benchmark makes into
//! the simulator, and the per-layer table built from the spans.
//!
//! The untraced run uses [`NoTrace`], whose calls compile to nothing, so
//! the end-to-end numbers time the simulator alone. The traced run uses
//! [`Recorder`]: each span keeps its name, host start and end, parent and
//! operation id, and the whole list is written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Every span name the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Setup,
    SetupConstruct,
    SetupKvdir,
    SetupPopulate,
    Probe,
    Drive,
    /// Generator step: turn due arrivals into queued operations.
    GenArrivals,
    /// Generator step: hand queued operations to the backend.
    GenPost,
    /// Generator step: poll completions and account them.
    GenHarvest,
    Post,
    Poll,
    Advance,
    Clock,
    Verify,
}

/// Span labels, indexed by `Name as usize`.
pub const LABELS: [&str; 14] = [
    "setup",
    "setup.construct",
    "setup.kvdir",
    "setup.populate",
    "probe",
    "drive",
    "gen.arrivals",
    "gen.post",
    "gen.harvest",
    "backend.post",
    "backend.poll",
    "backend.advance",
    "backend.clock",
    "verify",
];

/// No operation id.
pub const NO_OP: u64 = u64::MAX;

/// The operation id of token `token` posted on `node` (tokens are unique
/// per posting node, so the pair names one operation).
pub fn op_id(node: u16, token: u64) -> u64 {
    ((node as u64) << 48) | token
}

/// Span sink. `open` returns a handle that `close` ends; spans nest.
pub trait Trace {
    fn open(&mut self, name: Name) -> u32;
    fn close(&mut self, span: u32, op: u64);
}

/// Tracing off.
pub struct NoTrace;

impl Trace for NoTrace {
    #[inline(always)]
    fn open(&mut self, _: Name) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: u32, _: u64) {}
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Tracing on: spans in memory.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

pub const NO_PARENT: u32 = u32::MAX;

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Writes the spans as tab-separated `id parent name op start_ns
    /// end_ns` lines (`-` for no parent or op).
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("id\tparent\tname\top\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let op = if s.op == NO_OP {
                "-".to_string()
            } else {
                format!("{}:{}", s.op >> 48, s.op & ((1 << 48) - 1))
            };
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{op}\t{}\t{}",
                LABELS[s.name as usize], s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Trace for Recorder {
    fn open(&mut self, name: Name) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op: NO_OP,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, span: u32, op: u64) {
        let end = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(span), "spans close in LIFO order");
        let s = &mut self.spans[span as usize];
        s.end_ns = end;
        s.op = op;
    }
}

/// Per-name totals over a span list: calls, inclusive and self seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Aggregates `spans` by name. Self time is a span's duration minus the
/// time its direct children cover. Also returns the part of every `drive`
/// span that no child span covers.
pub fn layer_table(spans: &[Span]) -> (Vec<LayerTime>, f64) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut table = vec![LayerTime::default(); LABELS.len()];
    let mut unattributed_ns = 0u64;
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let self_ns = dur.saturating_sub(child_ns[i]);
        let row = &mut table[s.name as usize];
        row.calls += 1;
        row.total_s += dur as f64 * 1e-9;
        row.self_s += self_ns as f64 * 1e-9;
        if s.name == Name::Drive {
            unattributed_ns += self_ns;
        }
    }
    (table, unattributed_ns as f64 * 1e-9)
}
