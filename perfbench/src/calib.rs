//! Host-speed gauge for the end-to-end host metrics.
//!
//! On a shared host the simulator's speed swings by up to 2x within
//! seconds, even on the CPU clock, as other guests load the shared last
//! level cache and memory. The gauge runs a fixed reference workload in
//! short slices interleaved with the drive phase, so it sees the same
//! host at the same moments. The reference is a pointer chase through a
//! 256 KiB ring in seeded random order. Between slices the simulator
//! pushes the ring out of the private L2, so each slice's hops are mostly
//! last-level cache hits, the access the simulator itself waits on most.
//! `host_ops_per_s` and `setup_s` are scaled by `slowdown` to estimates
//! of what they would read on a host where a hop takes `REF_HOP_NS`.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::drive::process_cpu_s;
use crate::workload::Rng;

/// Ring entries (u32): 256 KiB.
const RING: usize = 1 << 16;
/// Hops per slice; about 0.4 ms.
const HOPS: u32 = 20_000;
/// Wall time between slices.
const EVERY: Duration = Duration::from_millis(10);
/// Nominal hop time the rate is scaled to, ns: about the time of one
/// hop on a quiet 2-vCPU Xeon guest (300 MB shared L3) where the
/// benchmark was built.
pub const REF_HOP_NS: f64 = 20.0;
/// How strongly the drive rate follows the gauge. Regressing the log of
/// episode rates on the log of their hop times gave slopes of -0.43 to
/// -0.91, depending on the workload and how busy the host was.
pub const RATE_SENSITIVITY: f64 = 0.75;
/// How strongly set-up time follows the gauge. Regressing the log of
/// run medians of set-up time on the log of their median hop times over
/// 20 runs gave slopes of 0.19 (`kv-zipf`) to 0.48 (`tenants-mixed`).
pub const SETUP_SENSITIVITY: f64 = 0.3;

/// How much slower than the reference the host ran, for work that
/// follows the gauge with `sensitivity`, while a hop took `hop_ns`:
/// multiply a rate by it, divide a time by it.
pub fn slowdown(hop_ns: f64, sensitivity: f64) -> f64 {
    (hop_ns / REF_HOP_NS).powf(sensitivity)
}

/// The ring: one cycle through `0..RING` in seeded random order
/// (Sattolo's algorithm).
fn ring() -> &'static [u32] {
    static RING_NEXT: OnceLock<Vec<u32>> = OnceLock::new();
    RING_NEXT.get_or_init(|| {
        let mut next: Vec<u32> = (0..RING as u32).collect();
        let mut rng = Rng::new(0x6A06E, 0);
        for i in (1..RING).rev() {
            let j = rng.below(i as u64) as usize;
            next.swap(i, j);
        }
        next
    })
}

/// Slices of the reference chase, run every `EVERY` of wall time by
/// `tick`.
pub struct Gauge {
    last: Instant,
    pos: u32,
    slices: u32,
    /// CPU seconds spent in slices; the caller takes them out of its
    /// own timing.
    pub spent_s: f64,
}

impl Gauge {
    pub fn new() -> Self {
        ring();
        Gauge {
            last: Instant::now(),
            pos: 0,
            slices: 0,
            spent_s: 0.0,
        }
    }

    /// Runs a slice if `EVERY` has gone by since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.slice();
        }
    }

    fn slice(&mut self) {
        let next = ring();
        let t0 = process_cpu_s();
        let mut i = self.pos;
        for _ in 0..HOPS {
            i = next[i as usize];
        }
        self.pos = black_box(i);
        self.spent_s += process_cpu_s() - t0;
        self.slices += 1;
        self.last = Instant::now();
    }

    /// Measured time of one hop over all slices so far, ns; runs one
    /// slice first if there was none.
    pub fn hop_ns(&mut self) -> f64 {
        if self.slices == 0 {
            self.slice();
        }
        self.spent_s * 1e9 / (f64::from(self.slices) * f64::from(HOPS))
    }
}
