//! Set-associative cache tag arrays with LRU replacement.
//!
//! Caches here are *timing* structures: they track which lines are resident
//! (tags, dirty bits, LRU order) but never hold data — the functional bytes
//! stay in [`crate::PhysicalMemory`]. This is the classic decoupled
//! functional/timing simulator split and keeps the model honest: a hit or
//! miss changes only latency, never values.

use crate::addr::{PAddr, CACHE_LINE_BYTES};

/// Geometry of one cache level.
///
/// # Example
///
/// ```
/// use sonuma_memory::CacheGeometry;
///
/// // The paper's L1: 32 KB, 2-way, 64 B lines => 256 sets.
/// let l1 = CacheGeometry::new(32 * 1024, 2);
/// assert_eq!(l1.sets(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry from total size and associativity (64 B lines).
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not yield a power-of-two, nonzero set
    /// count.
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        assert!(ways > 0, "associativity must be nonzero");
        assert!(
            size_bytes.is_multiple_of(CACHE_LINE_BYTES * ways as u64),
            "size not divisible into sets"
        );
        let sets = size_bytes / CACHE_LINE_BYTES / ways as u64;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a nonzero power of two"
        );
        CacheGeometry { size_bytes, ways }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / CACHE_LINE_BYTES / self.ways as u64
    }

    /// Set index for a physical address.
    #[inline]
    pub fn set_of(&self, addr: PAddr) -> u64 {
        addr.line_index() & (self.sets() - 1)
    }

    /// Tag for a physical address.
    #[inline]
    pub fn tag_of(&self, addr: PAddr) -> u64 {
        addr.line_index() / self.sets()
    }
}

/// Way-word bits (see [`CacheArray`]): the tag sits above these two.
const VALID: u32 = 1;
const DIRTY: u32 = 2;
const TAG_SHIFT: u32 = 2;

/// Outcome of a cache lookup-with-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The line was resident.
    Hit,
    /// The line missed; no dirty line was displaced.
    Miss {
        /// Line index (addr/64) of a clean line that was evicted, if any.
        evicted_clean: Option<u64>,
    },
    /// The line missed and filling it displaced a dirty line that must be
    /// written back.
    MissDirtyEviction {
        /// Line index (addr/64) of the dirty victim.
        victim_line: u64,
    },
}

impl LookupResult {
    /// Whether the lookup hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupResult::Hit)
    }
}

/// One level of set-associative, LRU, write-back cache tags.
///
/// Each way is 5 bytes: a `u32` word holding `tag << 2 | DIRTY | VALID`
/// and a `u8` recency rank. The valid ways of a set always hold exactly
/// the ranks `0..valid` (0 = most recent): a hit promotes its way to 0
/// and ages the ways that were more recent, a fill ranks the new line 0
/// and ages every other valid way, and an invalidate closes the gap it
/// leaves. A full set's victim is therefore the way ranked `ways - 1`,
/// the least recently used one. Every method panics on an address whose
/// tag needs more than 30 bits (beyond 2^44 B for Table 1's L1, 2^48 B
/// for its LLC) rather than alias it with another line.
///
/// # Example
///
/// ```
/// use sonuma_memory::{CacheArray, CacheGeometry, PAddr};
///
/// let mut l1 = CacheArray::new(CacheGeometry::new(32 * 1024, 2));
/// assert!(!l1.probe(PAddr::new(0)));            // cold
/// l1.access(PAddr::new(0), false);              // fill
/// assert!(l1.probe(PAddr::new(0)));             // now resident
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    geom: CacheGeometry,
    /// `log2(sets)`: the line index splits into `tag << set_bits | set`.
    set_bits: u32,
    // Way state (sets × ways, row-major by set), all zero-initialized,
    // which is the all-invalid state. `vec![0; n]` allocates zeroed pages
    // straight from the allocator, so building a rack of 4 MB LLC tag
    // arrays costs virtual address space, not hundreds of megabytes of
    // writes — pages materialize only for sets the workload touches.
    words: Vec<u32>,
    ranks: Vec<u8>,
    valid: usize,
    hits: u64,
    misses: u64,
}

impl CacheArray {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 256 (ranks are bytes).
    pub fn new(geom: CacheGeometry) -> Self {
        assert!(geom.ways() <= 256, "at most 256 ways supported");
        let n = (geom.sets() * geom.ways() as u64) as usize;
        CacheArray {
            geom,
            set_bits: geom.sets().trailing_zeros(),
            words: vec![0; n],
            ranks: vec![0; n],
            valid: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The first way index of `addr`'s set, and the word a valid clean
    /// copy of its line holds. Panics if the tag does not fit the word.
    #[inline]
    fn locate(&self, addr: PAddr) -> (usize, u32) {
        let line = addr.line_index();
        let set = line & ((1u64 << self.set_bits) - 1);
        let tag = line >> self.set_bits;
        assert!(
            tag <= (u32::MAX >> TAG_SHIFT) as u64,
            "{addr} is beyond the cache's tag range"
        );
        let base = set as usize * self.geom.ways() as usize;
        (base, (tag as u32) << TAG_SHIFT | VALID)
    }

    /// The way in `base`'s set holding `key`'s line, if resident.
    #[inline]
    fn find(&self, base: usize, key: u32) -> Option<usize> {
        let w = self.geom.ways() as usize;
        self.words[base..base + w]
            .iter()
            .position(|&x| x & !DIRTY == key)
            .map(|i| base + i)
    }

    /// Whether `addr`'s line is resident, without disturbing LRU or stats.
    pub fn probe(&self, addr: PAddr) -> bool {
        self.probe_dirty(addr).is_some()
    }

    /// Whether `addr`'s line is resident and, if so, whether it is dirty;
    /// like [`CacheArray::probe`], it leaves LRU order and stats alone.
    #[inline]
    pub fn probe_dirty(&self, addr: PAddr) -> Option<bool> {
        let (base, key) = self.locate(addr);
        self.find(base, key).map(|i| self.words[i] & DIRTY != 0)
    }

    /// Makes `way` of the set at `base` the most recent: every valid way
    /// ranked below `from` ages by one.
    #[inline]
    fn promote(&mut self, base: usize, way: usize, from: usize) {
        let w = self.geom.ways() as usize;
        let words = &self.words[base..base + w];
        for (rank, &word) in self.ranks[base..base + w].iter_mut().zip(words) {
            if word & VALID != 0 && (*rank as usize) < from {
                *rank += 1;
            }
        }
        self.ranks[way] = 0;
    }

    /// Accesses `addr`'s line, filling on miss; `write` marks it dirty.
    ///
    /// Returns what happened, including any eviction the fill caused.
    pub fn access(&mut self, addr: PAddr, write: bool) -> LookupResult {
        let (base, key) = self.locate(addr);
        let w = self.geom.ways() as usize;

        // Hit path.
        if let Some(i) = self.find(base, key) {
            let rank = self.ranks[i] as usize;
            if rank != 0 {
                self.promote(base, i, rank);
            }
            if write {
                self.words[i] |= DIRTY;
            }
            self.hits += 1;
            return LookupResult::Hit;
        }

        self.misses += 1;

        // Miss: fill the first invalid way, else evict the LRU way.
        let invalid = self.words[base..base + w]
            .iter()
            .position(|&x| x & VALID == 0);
        let (i, result) = match invalid {
            Some(i) => {
                self.valid += 1;
                self.promote(base, base + i, w);
                (
                    base + i,
                    LookupResult::Miss {
                        evicted_clean: None,
                    },
                )
            }
            None => {
                let i = base
                    + self.ranks[base..base + w]
                        .iter()
                        .position(|&r| r as usize == w - 1)
                        .expect("a full set ranks one way last");
                let set = addr.line_index() & ((1u64 << self.set_bits) - 1);
                let victim = self.words[i];
                let victim_line = ((victim >> TAG_SHIFT) as u64) << self.set_bits | set;
                self.promote(base, i, w - 1);
                let result = if victim & DIRTY != 0 {
                    LookupResult::MissDirtyEviction { victim_line }
                } else {
                    LookupResult::Miss {
                        evicted_clean: Some(victim_line),
                    }
                };
                (i, result)
            }
        };
        self.words[i] = key | if write { DIRTY } else { 0 };
        result
    }

    /// Invalidates `addr`'s line if resident; returns whether it was dirty.
    ///
    /// Used for coherence: a remote writer invalidates other agents' copies.
    pub fn invalidate(&mut self, addr: PAddr) -> Option<bool> {
        let (base, key) = self.locate(addr);
        let i = self.find(base, key)?;
        let dirty = self.words[i] & DIRTY != 0;
        let rank = self.ranks[i];
        self.words[i] = 0;
        self.valid -= 1;
        let w = self.geom.ways() as usize;
        let words = &self.words[base..base + w];
        for (r, &word) in self.ranks[base..base + w].iter_mut().zip(words) {
            if word & VALID != 0 && *r > rank {
                *r -= 1;
            }
        }
        Some(dirty)
    }

    /// Downgrades `addr`'s line to clean (e.g. after a sharer reads a line
    /// this cache held modified). Returns whether the line was present.
    pub fn clean(&mut self, addr: PAddr) -> bool {
        let (base, key) = self.locate(addr);
        match self.find(base, key) {
            Some(i) => {
                self.words[i] &= !DIRTY;
                true
            }
            None => false,
        }
    }

    /// Number of resident lines (for tests and occupancy stats).
    pub fn resident_lines(&self) -> usize {
        self.valid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 4 sets x 2 ways x 64B = 512B cache: easy to force evictions.
        CacheArray::new(CacheGeometry::new(512, 2))
    }

    fn line(i: u64) -> PAddr {
        PAddr::new(i * CACHE_LINE_BYTES)
    }

    #[test]
    fn geometry_decomposition() {
        let g = CacheGeometry::new(4 * 1024 * 1024, 16);
        assert_eq!(g.sets(), 4096);
        let a = PAddr::new(0x12345678);
        assert_eq!(g.set_of(a), (0x12345678u64 / 64) % 4096);
        assert_eq!(g.tag_of(a), (0x12345678u64 / 64) / 4096);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        CacheGeometry::new(192, 1);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(line(0), false).is_hit());
        assert!(c.access(line(0), false).is_hit());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn conflict_eviction_lru() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 in a 4-set cache.
        c.access(line(0), false);
        c.access(line(4), false);
        c.access(line(0), false); // 0 is now MRU, 4 is LRU
        match c.access(line(8), false) {
            LookupResult::Miss {
                evicted_clean: Some(v),
            } => assert_eq!(v, 4),
            other => panic!("expected clean eviction of line 4, got {other:?}"),
        }
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(4)));
        assert!(c.probe(line(8)));
    }

    #[test]
    fn dirty_eviction_reports_victim() {
        let mut c = tiny();
        c.access(line(0), true); // dirty
        c.access(line(4), false);
        c.access(line(4), false);
        // line 0 is LRU and dirty; filling line 8 must report a writeback.
        match c.access(line(8), false) {
            LookupResult::MissDirtyEviction { victim_line } => assert_eq!(victim_line, 0),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = tiny();
        c.access(line(0), false);
        c.access(line(0), true); // dirtied by hit
        c.access(line(4), false);
        match c.access(line(8), false) {
            LookupResult::MissDirtyEviction { victim_line } => assert_eq!(victim_line, 0),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.access(line(0), true);
        c.access(line(1), false);
        assert_eq!(c.invalidate(line(0)), Some(true));
        assert_eq!(c.invalidate(line(1)), Some(false));
        assert_eq!(c.invalidate(line(2)), None);
        assert!(!c.probe(line(0)));
    }

    #[test]
    fn clean_downgrades() {
        let mut c = tiny();
        c.access(line(0), true);
        assert!(c.clean(line(0)));
        // After cleaning, evicting it is a clean eviction.
        c.access(line(4), false);
        c.access(line(4), false);
        match c.access(line(8), false) {
            LookupResult::Miss {
                evicted_clean: Some(0),
            } => {}
            other => panic!("expected clean eviction of line 0, got {other:?}"),
        }
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut c = tiny();
        c.access(line(0), false);
        c.access(line(4), false);
        // Probing 0 must not promote it.
        assert!(c.probe(line(0)));
        match c.access(line(8), false) {
            LookupResult::Miss {
                evicted_clean: Some(v),
            } => assert_eq!(v, 0),
            other => panic!("expected eviction of line 0, got {other:?}"),
        }
    }

    #[test]
    fn resident_count() {
        let mut c = tiny();
        assert_eq!(c.resident_lines(), 0);
        c.access(line(0), false);
        c.access(line(1), false);
        assert_eq!(c.resident_lines(), 2);
        c.invalidate(line(0));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    #[should_panic(expected = "tag range")]
    fn tag_beyond_the_way_word_panics() {
        // 4 sets: a 2^40 B address has a 32-bit tag.
        tiny().access(PAddr::new(1 << 40), false);
    }
}
