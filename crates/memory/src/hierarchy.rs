//! The node's cache-coherent memory hierarchy as a latency calculator.
//!
//! Each *agent* (a core, or the RMC — which the paper integrates "into the
//! node's local coherence hierarchy via a private L1 cache", §4) owns an L1
//! tag array; all agents share one LLC and one DRAM channel. An access
//! returns the latency it would take, while maintaining MESI-style line
//! ownership so that producer/consumer interactions between a core and the
//! RMC (WQ entries, CQ entries, buffers) pay explicit cache-to-cache
//! transfer costs instead of magic zero-cost sharing. This is the mechanism
//! behind the paper's claim that RMC/core communication avoids PCIe DMA:
//! here it costs a ~15 ns on-chip transfer rather than ~450 ns per crossing.
//!
//! The L1 tags are the coherence state. An agent shares a line exactly when
//! its L1 holds it, and owns it modified exactly when its L1 holds it dirty:
//! every write invalidates the other L1s' copies, and a reader that pulls a
//! dirty line cleans the owner's copy. So an access learns the line's
//! sharers and owner by probing the other agents' L1 sets (one 2-way set
//! each under Table 1) instead of keeping a separate line directory.

use sonuma_sim::SimTime;

use crate::addr::PAddr;
use crate::cache::{CacheArray, CacheGeometry, LookupResult};
use crate::dram::{DramConfig, DramModel};

/// Identifies an agent (core or RMC) attached to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentId(pub usize);

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load: may share the line.
    Read,
    /// Store: acquires exclusive ownership.
    Write,
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Own L1.
    L1,
    /// Shared LLC.
    L2,
    /// Another agent's L1 (dirty), via cache-to-cache transfer.
    CacheToCache,
    /// DRAM.
    Dram,
}

/// Latency and provenance of one memory access.
#[derive(Debug, Clone, Copy)]
pub struct AccessResult {
    /// Start-to-data latency of this access.
    pub latency: SimTime,
    /// The level that supplied the line.
    pub level: HitLevel,
}

/// Timing and geometry parameters of the hierarchy (paper Table 1).
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// L1 geometry (per agent).
    pub l1_geometry: CacheGeometry,
    /// L1 hit latency (tag+data; 3 cycles at 2 GHz).
    pub l1_latency: SimTime,
    /// Shared LLC geometry.
    pub l2_geometry: CacheGeometry,
    /// LLC hit latency (6 cycles at 2 GHz).
    pub l2_latency: SimTime,
    /// Latency of a dirty cache-to-cache transfer between two agents' L1s.
    pub cache_to_cache: SimTime,
    /// DRAM channel configuration.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// Table 1 parameters: 32 KB 2-way L1 (3 cycles), 4 MB 16-way LLC
    /// (6 cycles), DDR3-1600, 15 ns cache-to-cache transfers.
    pub fn table1() -> Self {
        HierarchyConfig {
            l1_geometry: CacheGeometry::new(32 * 1024, 2),
            l1_latency: SimTime::from_cycles(3, 2_000_000_000),
            l2_geometry: CacheGeometry::new(4 * 1024 * 1024, 16),
            l2_latency: SimTime::from_cycles(6, 2_000_000_000),
            cache_to_cache: SimTime::from_ns(15),
            dram: DramConfig::ddr3_1600(),
        }
    }

    /// Table 1 parameters scaled to an `n`-core multiprocessor with 4 MB of
    /// LLC per core — the configuration of the `SHM(pthreads)` PageRank
    /// baseline, which provisions aggregate cache equal to the distributed
    /// setup so that "no benefits can be attributed to larger cache
    /// capacity" (§7.5).
    pub fn table1_multicore(n: usize) -> Self {
        let mut c = Self::table1();
        c.l2_geometry = CacheGeometry::new(4 * 1024 * 1024 * n as u64, 16);
        c
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::table1()
    }
}

/// A node's memory hierarchy: per-agent L1s, shared LLC, one DRAM channel.
///
/// # Example
///
/// ```
/// use sonuma_memory::{AccessKind, AgentId, HierarchyConfig, HitLevel, MemoryHierarchy, PAddr};
/// use sonuma_sim::SimTime;
///
/// let mut h = MemoryHierarchy::new(HierarchyConfig::table1(), 2);
/// let a = PAddr::new(0x1000);
/// let first = h.access(AgentId(0), a, AccessKind::Read, SimTime::ZERO);
/// assert_eq!(first.level, HitLevel::Dram);
/// let second = h.access(AgentId(0), a, AccessKind::Read, SimTime::ZERO);
/// assert_eq!(second.level, HitLevel::L1);
/// assert!(second.latency < first.latency);
/// ```
#[derive(Debug)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1s: Vec<CacheArray>,
    l2: CacheArray,
    dram: DramModel,
    hits_by_level: [u64; 4],
}

impl MemoryHierarchy {
    /// Creates a hierarchy with `agents` L1 caches.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is zero or exceeds 64.
    pub fn new(config: HierarchyConfig, agents: usize) -> Self {
        assert!(agents > 0 && agents <= 64, "1..=64 agents supported");
        MemoryHierarchy {
            config,
            l1s: (0..agents)
                .map(|_| CacheArray::new(config.l1_geometry))
                .collect(),
            l2: CacheArray::new(config.l2_geometry),
            dram: DramModel::new(config.dram),
            hits_by_level: [0; 4],
        }
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Number of attached agents.
    pub fn agents(&self) -> usize {
        self.l1s.len()
    }

    /// Accesses per level: `[L1, L2, cache-to-cache, DRAM]`.
    pub fn hits_by_level(&self) -> [u64; 4] {
        self.hits_by_level
    }

    /// The DRAM channel (for bandwidth statistics).
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// Valid cache lines across all levels. The tag arrays are virtually
    /// sized by geometry but zero-page-backed until touched, so this — not
    /// `size_bytes()` — tracks what the hierarchy actually costs.
    pub fn resident_lines(&self) -> usize {
        self.l1s
            .iter()
            .map(CacheArray::resident_lines)
            .sum::<usize>()
            + self.l2.resident_lines()
    }

    fn note(&mut self, level: HitLevel) {
        let i = match level {
            HitLevel::L1 => 0,
            HitLevel::L2 => 1,
            HitLevel::CacheToCache => 2,
            HitLevel::Dram => 3,
        };
        self.hits_by_level[i] += 1;
    }

    fn apply_l2_side_effects(&mut self, now: SimTime, result: LookupResult) {
        if let LookupResult::MissDirtyEviction { .. } = result {
            // LLC writeback consumes DRAM bandwidth off the critical path.
            self.dram.access(now, 64);
        }
    }

    /// Performs one cache-line access by `agent` starting at `now`.
    ///
    /// Returns the latency to data and the supplying level, and updates tag
    /// and ownership state. Accesses never span lines: callers split larger
    /// transfers with [`crate::addr::split_into_lines`].
    pub fn access(
        &mut self,
        agent: AgentId,
        addr: PAddr,
        kind: AccessKind,
        now: SimTime,
    ) -> AccessResult {
        assert!(agent.0 < self.l1s.len(), "unknown agent {agent:?}");
        let write = kind == AccessKind::Write;

        let mut latency = self.config.l1_latency;
        let l1_result = self.l1s[agent.0].access(addr, write);
        if let LookupResult::MissDirtyEviction { victim_line } = l1_result {
            // Dirty L1 victims write back into the LLC.
            self.l2.access(PAddr::new(victim_line * 64), true);
        }

        if l1_result.is_hit() {
            // L1 hit. No other agent can hold the line dirty: a write
            // leaves the writer's L1 the only holder. A write to a shared
            // line pays an upgrade (invalidate sharers through the LLC's
            // directory).
            if write && self.invalidate_others(addr, agent) {
                latency += self.config.l2_latency;
            }
            self.note(HitLevel::L1);
            return AccessResult {
                latency,
                level: HitLevel::L1,
            };
        }

        // L1 miss: go through the LLC lookup, unless another agent holds
        // the line dirty (that L1 is then its only other holder).
        latency += self.config.l2_latency;
        let dirty_other = (0..self.l1s.len())
            .find(|&i| i != agent.0 && self.l1s[i].probe_dirty(addr) == Some(true));

        let level = if let Some(owner) = dirty_other {
            // Dirty in another agent's L1: cache-to-cache transfer. The
            // owner's copy is downgraded (read) or invalidated (write,
            // below), and the line lands in the LLC.
            latency += self.config.cache_to_cache;
            if !write {
                self.l1s[owner].clean(addr);
            }
            let l2r = self.l2.access(addr, true);
            self.apply_l2_side_effects(now, l2r);
            HitLevel::CacheToCache
        } else {
            let l2r = self.l2.access(addr, write);
            self.apply_l2_side_effects(now, l2r);
            if l2r.is_hit() {
                HitLevel::L2
            } else {
                // Miss to DRAM; the channel model adds queueing under load.
                let issue = now + latency;
                let done = self.dram.access(issue, 64);
                latency = done - now;
                HitLevel::Dram
            }
        };

        if write {
            self.invalidate_others(addr, agent);
        }
        self.note(level);
        AccessResult { latency, level }
    }

    /// Invalidates every L1 copy of `addr`'s line but `keep`'s; returns
    /// whether any existed.
    fn invalidate_others(&mut self, addr: PAddr, keep: AgentId) -> bool {
        let mut any = false;
        for (i, l1) in self.l1s.iter_mut().enumerate() {
            if i != keep.0 {
                any |= l1.invalidate(addr).is_some();
            }
        }
        any
    }

    /// Latency of an uncontended local DRAM access — the paper's baseline
    /// "local memory" figure that remote reads are compared against (~60 ns
    /// device + lookup overheads).
    pub fn local_dram_latency(&self) -> SimTime {
        self.config.l1_latency + self.config.l2_latency + self.config.dram.access_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h2() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::table1(), 2)
    }

    const A: AgentId = AgentId(0);
    const B: AgentId = AgentId(1);

    #[test]
    fn cold_read_goes_to_dram_then_l1() {
        let mut h = h2();
        let addr = PAddr::new(0x4000);
        let r1 = h.access(A, addr, AccessKind::Read, SimTime::ZERO);
        assert_eq!(r1.level, HitLevel::Dram);
        assert!(r1.latency >= SimTime::from_ns(60));
        let r2 = h.access(A, addr, AccessKind::Read, SimTime::ZERO);
        assert_eq!(r2.level, HitLevel::L1);
        assert_eq!(r2.latency, h.config().l1_latency);
    }

    #[test]
    fn second_agent_hits_in_llc() {
        let mut h = h2();
        let addr = PAddr::new(0x4000);
        h.access(A, addr, AccessKind::Read, SimTime::ZERO);
        let r = h.access(B, addr, AccessKind::Read, SimTime::ZERO);
        assert_eq!(r.level, HitLevel::L2);
        assert_eq!(r.latency, h.config().l1_latency + h.config().l2_latency);
    }

    #[test]
    fn dirty_line_transfers_cache_to_cache() {
        let mut h = h2();
        let addr = PAddr::new(0x8000);
        h.access(A, addr, AccessKind::Write, SimTime::ZERO); // A owns dirty
        let r = h.access(B, addr, AccessKind::Read, SimTime::ZERO);
        assert_eq!(r.level, HitLevel::CacheToCache);
        assert_eq!(
            r.latency,
            h.config().l1_latency + h.config().l2_latency + h.config().cache_to_cache
        );
        // After the transfer the line is clean and shared: B re-reads in L1.
        let r2 = h.access(B, addr, AccessKind::Read, SimTime::ZERO);
        assert_eq!(r2.level, HitLevel::L1);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut h = h2();
        let addr = PAddr::new(0xC000);
        h.access(A, addr, AccessKind::Read, SimTime::ZERO);
        h.access(B, addr, AccessKind::Read, SimTime::ZERO);
        // B writes: A's copy must be invalidated.
        h.access(B, addr, AccessKind::Write, SimTime::ZERO);
        let r = h.access(A, addr, AccessKind::Read, SimTime::ZERO);
        assert_eq!(
            r.level,
            HitLevel::CacheToCache,
            "A must fetch B's dirty line"
        );
    }

    #[test]
    fn write_upgrade_on_shared_hit_costs_more_than_plain_hit() {
        let mut h = h2();
        let addr = PAddr::new(0x10000);
        h.access(A, addr, AccessKind::Read, SimTime::ZERO);
        h.access(B, addr, AccessKind::Read, SimTime::ZERO);
        let up = h.access(A, addr, AccessKind::Write, SimTime::ZERO);
        assert_eq!(up.level, HitLevel::L1);
        assert_eq!(up.latency, h.config().l1_latency + h.config().l2_latency);
        // Subsequent write by the same agent is a plain L1 hit.
        let again = h.access(A, addr, AccessKind::Write, SimTime::ZERO);
        assert_eq!(again.latency, h.config().l1_latency);
    }

    #[test]
    fn ping_pong_write_sharing_pays_every_time() {
        let mut h = h2();
        let addr = PAddr::new(0x14000);
        for _ in 0..4 {
            let ra = h.access(A, addr, AccessKind::Write, SimTime::ZERO);
            let rb = h.access(B, addr, AccessKind::Write, SimTime::ZERO);
            // After warm-up, each write misses to the other's dirty copy.
            if h.hits_by_level()[2] > 1 {
                assert_eq!(ra.level, HitLevel::CacheToCache);
                assert_eq!(rb.level, HitLevel::CacheToCache);
            }
        }
    }

    #[test]
    fn local_dram_latency_matches_table1_ballpark() {
        let h = h2();
        let t = h.local_dram_latency();
        // 1.5 + 3 + 60 = 64.5 ns — the paper's ~60 ns local DRAM figure.
        assert_eq!(t, SimTime::from_ps(64_500));
    }

    #[test]
    fn dram_queueing_raises_latency_under_load() {
        let mut h = h2();
        // Stream distinct lines back-to-back at t=0: later ones queue.
        let first = h.access(A, PAddr::new(0), AccessKind::Read, SimTime::ZERO);
        let mut last = first;
        for i in 1..200u64 {
            last = h.access(A, PAddr::new(i * 64), AccessKind::Read, SimTime::ZERO);
        }
        assert!(last.latency > first.latency, "queueing must add latency");
    }

    #[test]
    fn stats_track_levels() {
        let mut h = h2();
        let addr = PAddr::new(0x18000);
        h.access(A, addr, AccessKind::Read, SimTime::ZERO); // DRAM
        h.access(A, addr, AccessKind::Read, SimTime::ZERO); // L1
        h.access(B, addr, AccessKind::Read, SimTime::ZERO); // L2
        let [l1, l2, c2c, dram] = h.hits_by_level();
        assert_eq!((l1, l2, c2c, dram), (1, 1, 0, 1));
    }

    #[test]
    #[should_panic(expected = "unknown agent")]
    fn unknown_agent_panics() {
        let mut h = h2();
        h.access(AgentId(5), PAddr::new(0), AccessKind::Read, SimTime::ZERO);
    }
}
