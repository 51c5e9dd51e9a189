//! Differential tests: the packed, rank-LRU [`CacheArray`] and the
//! tag-derived coherence of [`MemoryHierarchy`] against plain reference
//! models of the same semantics.
//!
//! `RefCache` keeps a tag, an LRU tick and a flag byte per way and evicts
//! the minimum-tick way; `RefHierarchy` keeps an explicit per-line
//! directory (holder bitmask and dirty owner) beside `RefCache` L1s. Both
//! must agree with the real models on every observable: lookup results and
//! victims, hit/miss counts, occupancy, latencies and supplying levels.

use proptest::collection::vec;
use proptest::prelude::*;

use std::collections::HashMap;

use sonuma_memory::{
    AccessKind, AgentId, CacheArray, CacheGeometry, DramModel, HierarchyConfig, HitLevel,
    LookupResult, MemoryHierarchy, PAddr,
};
use sonuma_sim::SimTime;

const VALID: u8 = 1;
const DIRTY: u8 = 2;

/// Tick-LRU cache tags: parallel tag, tick and flag arrays.
struct RefCache {
    geom: CacheGeometry,
    tags: Vec<u64>,
    lru: Vec<u64>,
    flags: Vec<u8>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl RefCache {
    fn new(geom: CacheGeometry) -> Self {
        let n = (geom.sets() * geom.ways() as u64) as usize;
        RefCache {
            geom,
            tags: vec![0; n],
            lru: vec![0; n],
            flags: vec![0; n],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_range(&self, addr: PAddr) -> std::ops::Range<usize> {
        let w = self.geom.ways() as usize;
        let base = self.geom.set_of(addr) as usize * w;
        base..base + w
    }

    fn find(&self, addr: PAddr) -> Option<usize> {
        let tag = self.geom.tag_of(addr);
        self.set_range(addr)
            .find(|&i| self.flags[i] & VALID != 0 && self.tags[i] == tag)
    }

    fn probe_dirty(&self, addr: PAddr) -> Option<bool> {
        self.find(addr).map(|i| self.flags[i] & DIRTY != 0)
    }

    fn access(&mut self, addr: PAddr, write: bool) -> LookupResult {
        self.tick += 1;
        if let Some(i) = self.find(addr) {
            self.lru[i] = self.tick;
            if write {
                self.flags[i] |= DIRTY;
            }
            self.hits += 1;
            return LookupResult::Hit;
        }
        self.misses += 1;
        let range = self.set_range(addr);
        let idx = match range.clone().find(|&i| self.flags[i] & VALID == 0) {
            Some(i) => i,
            None => range.min_by_key(|&i| self.lru[i]).unwrap(),
        };
        let result = if self.flags[idx] & VALID != 0 {
            let victim_line = self.tags[idx] * self.geom.sets() + self.geom.set_of(addr);
            if self.flags[idx] & DIRTY != 0 {
                LookupResult::MissDirtyEviction { victim_line }
            } else {
                LookupResult::Miss {
                    evicted_clean: Some(victim_line),
                }
            }
        } else {
            LookupResult::Miss {
                evicted_clean: None,
            }
        };
        self.tags[idx] = self.geom.tag_of(addr);
        self.lru[idx] = self.tick;
        self.flags[idx] = VALID | if write { DIRTY } else { 0 };
        result
    }

    fn invalidate(&mut self, addr: PAddr) -> Option<bool> {
        let i = self.find(addr)?;
        self.flags[i] &= !VALID;
        Some(self.flags[i] & DIRTY != 0)
    }

    fn clean(&mut self, addr: PAddr) -> bool {
        match self.find(addr) {
            Some(i) => {
                self.flags[i] &= !DIRTY;
                true
            }
            None => false,
        }
    }

    fn resident_lines(&self) -> usize {
        self.flags.iter().filter(|&&f| f & VALID != 0).count()
    }
}

#[derive(Default, Clone, Copy)]
struct LineState {
    holders: u64,
    dirty_owner: Option<usize>,
}

/// The hierarchy with an explicit per-line coherence directory.
struct RefHierarchy {
    config: HierarchyConfig,
    l1s: Vec<RefCache>,
    l2: RefCache,
    dram: DramModel,
    lines: HashMap<u64, LineState>,
    hits_by_level: [u64; 4],
}

impl RefHierarchy {
    fn new(config: HierarchyConfig, agents: usize) -> Self {
        RefHierarchy {
            config,
            l1s: (0..agents)
                .map(|_| RefCache::new(config.l1_geometry))
                .collect(),
            l2: RefCache::new(config.l2_geometry),
            dram: DramModel::new(config.dram),
            lines: HashMap::new(),
            hits_by_level: [0; 4],
        }
    }

    fn resident_lines(&self) -> usize {
        self.l1s.iter().map(RefCache::resident_lines).sum::<usize>() + self.l2.resident_lines()
    }

    fn l2_access(&mut self, now: SimTime, addr: PAddr, write: bool) -> LookupResult {
        let r = self.l2.access(addr, write);
        if let LookupResult::MissDirtyEviction { .. } = r {
            self.dram.access(now, 64);
        }
        r
    }

    fn invalidate_others(&mut self, line: u64, keep: usize) {
        let state = self.lines.entry(line).or_default();
        let holders = state.holders;
        state.holders &= 1 << keep;
        if state.dirty_owner.is_some_and(|o| o != keep) {
            state.dirty_owner = None;
        }
        for i in 0..self.l1s.len() {
            if i != keep && holders & (1 << i) != 0 {
                self.l1s[i].invalidate(PAddr::new(line * 64));
            }
        }
    }

    fn access(
        &mut self,
        agent: usize,
        addr: PAddr,
        write: bool,
        now: SimTime,
    ) -> (SimTime, HitLevel) {
        let line = addr.line_index();
        let me = 1u64 << agent;
        let mut latency = self.config.l1_latency;
        let l1r = self.l1s[agent].access(addr, write);
        let evicted = match l1r {
            LookupResult::Hit => None,
            LookupResult::Miss { evicted_clean } => evicted_clean,
            LookupResult::MissDirtyEviction { victim_line } => {
                self.l2.access(PAddr::new(victim_line * 64), true);
                Some(victim_line)
            }
        };
        if let Some(v) = evicted {
            if let Some(st) = self.lines.get_mut(&v) {
                st.holders &= !me;
                if st.dirty_owner == Some(agent) {
                    st.dirty_owner = None;
                }
            }
        }
        let state = *self.lines.entry(line).or_default();
        let others = state.holders & !me;
        let dirty_other = state.dirty_owner.filter(|&o| o != agent);

        if l1r.is_hit() && dirty_other.is_none() {
            if write && others != 0 {
                latency += self.config.l2_latency;
                self.invalidate_others(line, agent);
            }
            let st = self.lines.entry(line).or_default();
            st.holders |= me;
            if write {
                st.dirty_owner = Some(agent);
            }
            self.hits_by_level[0] += 1;
            return (latency, HitLevel::L1);
        }

        latency += self.config.l2_latency;
        let level = if let Some(owner) = dirty_other {
            latency += self.config.cache_to_cache;
            if write {
                self.l1s[owner].invalidate(addr);
            } else {
                self.l1s[owner].clean(addr);
            }
            self.l2_access(now, addr, true);
            HitLevel::CacheToCache
        } else if self.l2_access(now, addr, write).is_hit() {
            HitLevel::L2
        } else {
            latency = self.dram.access(now + latency, 64) - now;
            HitLevel::Dram
        };

        if write {
            self.invalidate_others(line, agent);
            let st = self.lines.entry(line).or_default();
            st.holders = me;
            st.dirty_owner = Some(agent);
        } else {
            let st = self.lines.entry(line).or_default();
            st.holders |= me;
            if dirty_other.is_some() && st.dirty_owner == dirty_other {
                st.dirty_owner = None;
            }
        }
        let i = match level {
            HitLevel::L1 => 0,
            HitLevel::L2 => 1,
            HitLevel::CacheToCache => 2,
            HitLevel::Dram => 3,
        };
        self.hits_by_level[i] += 1;
        (latency, level)
    }
}

/// 1-, 2-, 4- and 16-way geometries of 2–8 sets, so short op streams
/// conflict and evict.
fn geometries() -> [CacheGeometry; 4] {
    [
        CacheGeometry::new(8 * 64, 1),
        CacheGeometry::new(4 * 2 * 64, 2),
        CacheGeometry::new(4 * 4 * 64, 4),
        CacheGeometry::new(2 * 16 * 64, 16),
    ]
}

/// A line address: mostly a small conflicting range, sometimes with high
/// tag bits set so the packed tag word is exercised.
fn line_addr(line: u64, far: u64) -> PAddr {
    PAddr::new((line + (far << 28)) * 64)
}

proptest! {
    #[test]
    fn cache_array_matches_tick_lru_reference(
        ops in vec((0u8..5, 0u64..80, 0u64..3, any::<bool>()), 1..400),
    ) {
        for geom in geometries() {
            let mut real = CacheArray::new(geom);
            let mut reference = RefCache::new(geom);
            for &(op, line, far, write) in &ops {
                let addr = line_addr(line, far);
                match op {
                    0 | 1 => prop_assert_eq!(real.access(addr, write), reference.access(addr, write)),
                    2 => prop_assert_eq!(real.invalidate(addr), reference.invalidate(addr)),
                    3 => prop_assert_eq!(real.clean(addr), reference.clean(addr)),
                    _ => {
                        prop_assert_eq!(real.probe_dirty(addr), reference.probe_dirty(addr));
                        prop_assert_eq!(real.probe(addr), reference.find(addr).is_some());
                    }
                }
                prop_assert_eq!(real.hits(), reference.hits);
                prop_assert_eq!(real.misses(), reference.misses);
                prop_assert_eq!(real.resident_lines(), reference.resident_lines());
            }
        }
    }

    #[test]
    fn hierarchy_matches_directory_reference(
        ops in vec((0usize..8, 0u64..48, any::<bool>(), 7u64..30), 1..300),
    ) {
        // 2-set 2-way L1s and a 4-set 4-way LLC: every few accesses evict.
        let config = HierarchyConfig {
            l1_geometry: CacheGeometry::new(2 * 2 * 64, 2),
            l2_geometry: CacheGeometry::new(4 * 4 * 64, 4),
            ..HierarchyConfig::table1()
        };
        for agents in [1, 2, 3, 8] {
            let mut real = MemoryHierarchy::new(config, agents);
            let mut reference = RefHierarchy::new(config, agents);
            // Accesses at least 7 ns apart keep the DRAM channel below
            // saturation (30 lines per 200 ns bucket).
            let mut now = SimTime::ZERO;
            for &(agent, line, write, gap_ns) in &ops {
                now += SimTime::from_ns(gap_ns);
                let agent = agent % agents;
                let addr = PAddr::new(line * 64);
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let r = real.access(AgentId(agent), addr, kind, now);
                let (latency, level) = reference.access(agent, addr, write, now);
                prop_assert_eq!(r.latency, latency);
                prop_assert_eq!(r.level, level);
            }
            prop_assert_eq!(real.hits_by_level(), reference.hits_by_level);
            prop_assert_eq!(real.resident_lines(), reference.resident_lines());
        }
    }
}
