//! Memory-hierarchy hot path: nanoseconds per `MemoryHierarchy::access`
//! for each level that can supply a line.
//!
//! Every case runs on the Table 1 hierarchy with two agents (one core and
//! the RMC, as in a `cores_per_node = 1` node):
//!
//! * `l1_hit` — one agent re-reads a line its L1 holds;
//! * `llc_hit` — one agent cycles through three lines of one 2-way L1
//!   set, so LRU evicts each line just before it is read again and the
//!   LLC supplies it;
//! * `dram_miss` — a cold sweep of distinct lines, spaced 10 ns apart so
//!   the DRAM channel never saturates;
//! * `cache_to_cache` — the agents alternately write one line, so every
//!   access pulls the other agent's dirty copy.
//!
//! Runs offline through the in-repo criterion shim:
//!
//! ```text
//! cargo bench -p sonuma-memory --bench hierarchy
//! ```
//!
//! Besides the shim's per-sample timing, each case prints its best
//! sample as nanoseconds per access.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use sonuma_memory::{AccessKind, AgentId, HierarchyConfig, HitLevel, MemoryHierarchy, PAddr};
use sonuma_sim::SimTime;

const ACCESSES: u64 = 200_000;

/// One access of a case: who, where, what, when.
type Step = fn(u64) -> (AgentId, PAddr, AccessKind, SimTime);

fn cases() -> [(&'static str, HitLevel, Step); 4] {
    [
        ("l1_hit", HitLevel::L1, |_| {
            (
                AgentId(0),
                PAddr::new(0x4000),
                AccessKind::Read,
                SimTime::ZERO,
            )
        }),
        ("llc_hit", HitLevel::L2, |i| {
            // Three lines of one 2-way L1 set, cycled: LRU misses on each.
            let addr = PAddr::new((i % 3) * 32 * 1024);
            (AgentId(0), addr, AccessKind::Read, SimTime::ZERO)
        }),
        ("dram_miss", HitLevel::Dram, |i| {
            (
                AgentId(0),
                PAddr::new(i * 64),
                AccessKind::Read,
                SimTime::from_ns(i * 10),
            )
        }),
        ("cache_to_cache", HitLevel::CacheToCache, |i| {
            let agent = AgentId((i % 2) as usize);
            (agent, PAddr::new(0x8000), AccessKind::Write, SimTime::ZERO)
        }),
    ]
}

/// A hierarchy after the first `warm` steps of `step`.
fn warmed(step: Step, warm: u64) -> MemoryHierarchy {
    let mut h = MemoryHierarchy::new(HierarchyConfig::table1(), 2);
    for i in 0..warm {
        let (agent, addr, kind, now) = step(i);
        h.access(agent, addr, kind, now);
    }
    h
}

fn bench_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("hierarchy");
    g.sample_size(10);
    for (name, level, step) in cases() {
        // Cold misses need fresh lines every sample; the others start warm.
        let warm = if level == HitLevel::Dram { 0 } else { 8 };
        let mut best = f64::INFINITY;
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut h = warmed(step, warm);
                let start = Instant::now();
                for i in warm..warm + ACCESSES {
                    let (agent, addr, kind, now) = step(i);
                    let r = h.access(agent, black_box(addr), kind, now);
                    assert_eq!(r.level, level, "{name} access {i}");
                }
                best = best.min(start.elapsed().as_secs_f64());
                h
            })
        });
        println!(
            "hierarchy/{name}: {:.1} ns/access (best of 10 samples of {ACCESSES})",
            best * 1e9 / ACCESSES as f64
        );
    }
    g.finish();
}

criterion_group!(benches, bench_access);
criterion_main!(benches);
