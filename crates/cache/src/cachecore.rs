//! Tag-array machinery with run-time switchable associativity.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use dvs_sram::{CacheGeometry, FrameId};

use crate::{lru, Addr};

/// Operating mode of a [`CacheCore`].
///
/// The paper's BBR instruction cache is built on a cache that is
/// set-associative at high voltage and direct-mapped at low voltage
/// (Figure 7, after the Dynamic Associative Cache). In direct-mapped mode
/// the least-significant tag bits select the way explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheMode {
    /// Normal set-associative lookup with LRU replacement.
    SetAssociative,
    /// Direct-mapped lookup: `block_number mod total_lines` names the only
    /// frame the block may occupy.
    DirectMapped,
}

/// Result of a tag lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The block is present in the given frame.
    Hit {
        /// Frame holding the block.
        frame: FrameId,
    },
    /// The block is absent.
    Miss,
}

impl LookupResult {
    /// Whether this is a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupResult::Hit { .. })
    }
}

/// A block evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block number (byte address >> offset bits) of the victim.
    pub block_number: u64,
    /// Whether the victim was dirty (needs a writeback in a write-back
    /// cache).
    pub dirty: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Frame {
    tag: u64,
    valid: bool,
    dirty: bool,
}

/// A cache tag array: validity, tags, dirty bits and LRU state.
///
/// `CacheCore` deliberately stores no data — the simulators in this
/// workspace are timing models, and the fault-tolerance schemes layer word
/// validity on top (see `dvs-schemes`). It answers "is block X present,
/// and in which frame?" and performs fills/evictions.
///
/// # Example
///
/// ```rust
/// use dvs_cache::{Addr, CacheCore, CacheMode};
/// use dvs_sram::CacheGeometry;
///
/// let mut cache = CacheCore::new(CacheGeometry::dsn_l1());
/// cache.fill(Addr::new(0));
/// cache.set_mode(CacheMode::DirectMapped); // invalidates all contents
/// assert!(!cache.lookup(Addr::new(0)).is_hit());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCore {
    geometry: CacheGeometry,
    mode: CacheMode,
    /// `frames[set * ways + way]`.
    frames: Vec<Frame>,
    /// Every set's recency order in one array: set `s` owns
    /// `lru[s * ways..(s + 1) * ways]` (see [`crate::LruQueue`]).
    lru: Vec<u8>,
    /// Valid lines dropped by [`CacheCore::invalidate`] and
    /// [`CacheCore::invalidate_all`] over the cache's lifetime.
    invalidations: u64,
}

impl CacheCore {
    /// Creates an empty cache in set-associative mode.
    pub fn new(geometry: CacheGeometry) -> Self {
        let frames = vec![
            Frame {
                tag: 0,
                valid: false,
                dirty: false,
            };
            geometry.total_lines() as usize
        ];
        lru::assert_ways(geometry.ways());
        let mut lru = vec![0; geometry.total_lines() as usize];
        for order in lru.chunks_exact_mut(geometry.ways() as usize) {
            lru::reset(order);
        }
        CacheCore {
            geometry,
            mode: CacheMode::SetAssociative,
            frames,
            lru,
            invalidations: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Current operating mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Switches mode, invalidating all contents (the paper flushes the
    /// cache on every low-voltage mode switch).
    ///
    /// A round-trip (SA→DM→SA) leaves the cache behaviourally identical
    /// to a fresh one: all lines invalid, LRU state reset, and each valid
    /// line counted in [`CacheCore::invalidations`] exactly once — the
    /// flush here is the single counting site, never doubled by the mode
    /// change itself.
    pub fn set_mode(&mut self, mode: CacheMode) {
        self.mode = mode;
        self.invalidate_all();
    }

    /// Invalidates every frame (contents and dirty bits are dropped) and
    /// resets replacement state, so a subsequent refill sequence behaves
    /// exactly as on a fresh cache. Each line that was valid adds one to
    /// [`CacheCore::invalidations`].
    pub fn invalidate_all(&mut self) {
        self.invalidations += u64::from(self.valid_lines());
        for f in &mut self.frames {
            f.valid = false;
            f.dirty = false;
        }
        for order in self.lru.chunks_exact_mut(self.geometry.ways() as usize) {
            lru::reset(order);
        }
    }

    /// Valid lines dropped by invalidations (single-block and whole-cache)
    /// over the cache's lifetime. Misses that invalidate nothing do not
    /// count, and a flush counts each line once even when triggered by a
    /// mode switch.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    fn frame_index(&self, frame: FrameId) -> usize {
        (frame.set * self.geometry.ways() + frame.way) as usize
    }

    /// Where `set`'s recency order lies in `lru`.
    fn order(&self, set: u32) -> Range<usize> {
        let ways = self.geometry.ways() as usize;
        let start = set as usize * ways;
        start..start + ways
    }

    /// Marks `frame` most recently used in its set.
    fn touch(&mut self, frame: FrameId) {
        let order = self.order(frame.set);
        lru::touch(&mut self.lru[order], frame.way);
    }

    /// The frame a block maps to in direct-mapped mode: the combined
    /// {low tag bits, set index} line number of Figure 7.
    pub fn direct_mapped_frame(&self, addr: Addr) -> FrameId {
        let line = addr.block_number(&self.geometry) % u64::from(self.geometry.total_lines());
        FrameId {
            set: (line % u64::from(self.geometry.sets())) as u32,
            way: (line / u64::from(self.geometry.sets())) as u32,
        }
    }

    /// Looks up a block without updating replacement state.
    pub fn probe(&self, addr: Addr) -> LookupResult {
        let tag = addr.tag(&self.geometry);
        match self.mode {
            CacheMode::SetAssociative => {
                let set = addr.set_index(&self.geometry);
                for way in 0..self.geometry.ways() {
                    let frame = FrameId { set, way };
                    let f = &self.frames[self.frame_index(frame)];
                    if f.valid && f.tag == tag {
                        return LookupResult::Hit { frame };
                    }
                }
                LookupResult::Miss
            }
            CacheMode::DirectMapped => {
                let frame = self.direct_mapped_frame(addr);
                let f = &self.frames[self.frame_index(frame)];
                if f.valid && f.tag == tag {
                    LookupResult::Hit { frame }
                } else {
                    LookupResult::Miss
                }
            }
        }
    }

    /// Looks up a block and updates LRU state on a hit.
    pub fn lookup(&mut self, addr: Addr) -> LookupResult {
        let result = self.probe(addr);
        if let LookupResult::Hit { frame } = result {
            if self.mode == CacheMode::SetAssociative {
                self.touch(frame);
            }
        }
        result
    }

    /// Chooses the frame a fill of `addr` would occupy (LRU way in SA mode,
    /// the designated frame in DM mode) without modifying anything.
    pub fn victim_frame(&self, addr: Addr) -> FrameId {
        match self.mode {
            CacheMode::SetAssociative => {
                let set = addr.set_index(&self.geometry);
                FrameId {
                    set,
                    way: lru::victim(&self.lru[self.order(set)]),
                }
            }
            CacheMode::DirectMapped => self.direct_mapped_frame(addr),
        }
    }

    /// Inserts the block containing `addr`, evicting the victim if the
    /// target frame was valid. Returns the frame used and any eviction.
    ///
    /// Filling a block that is already present refreshes its LRU position
    /// and returns its frame with no eviction.
    pub fn fill(&mut self, addr: Addr) -> (FrameId, Option<Eviction>) {
        if let LookupResult::Hit { frame } = self.lookup(addr) {
            return (frame, None);
        }
        let frame = self.victim_frame(addr);
        let tag = addr.tag(&self.geometry);
        let idx = self.frame_index(frame);
        let evicted = if self.frames[idx].valid {
            // Reconstruct the victim's block number from its tag and set.
            let block_number =
                (self.frames[idx].tag << self.geometry.index_bits()) | u64::from(frame.set);
            Some(Eviction {
                block_number,
                dirty: self.frames[idx].dirty,
            })
        } else {
            None
        };
        self.frames[idx] = Frame {
            tag,
            valid: true,
            dirty: false,
        };
        if self.mode == CacheMode::SetAssociative {
            self.touch(frame);
        }
        (frame, evicted)
    }

    /// Inserts the block containing `addr` into a *specific* way of its
    /// set, evicting that frame's occupant if valid. Used by schemes that
    /// restrict which frames may hold data (line/way disabling).
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range or the block is already present in
    /// a different frame of the set (callers must look up first).
    pub fn fill_into(&mut self, addr: Addr, way: u32) -> (FrameId, Option<Eviction>) {
        assert!(way < self.geometry.ways(), "way {way} out of range");
        if let LookupResult::Hit { frame } = self.probe(addr) {
            assert_eq!(frame.way, way, "block already present in another way");
        }
        let set = match self.mode {
            CacheMode::SetAssociative => addr.set_index(&self.geometry),
            CacheMode::DirectMapped => self.direct_mapped_frame(addr).set,
        };
        let frame = FrameId { set, way };
        let idx = self.frame_index(frame);
        let evicted = if self.frames[idx].valid {
            let block_number =
                (self.frames[idx].tag << self.geometry.index_bits()) | u64::from(frame.set);
            Some(Eviction {
                block_number,
                dirty: self.frames[idx].dirty,
            })
        } else {
            None
        };
        self.frames[idx] = Frame {
            tag: addr.tag(&self.geometry),
            valid: true,
            dirty: false,
        };
        if self.mode == CacheMode::SetAssociative {
            self.touch(frame);
        }
        (frame, evicted)
    }

    /// LRU recency rank of `way` in `set` (0 = most recent).
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    pub fn way_rank(&self, set: u32, way: u32) -> u32 {
        lru::rank(&self.lru[self.order(set)], way)
    }

    /// Marks the block containing `addr` dirty if present; returns whether
    /// it was present.
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        match self.probe(addr) {
            LookupResult::Hit { frame } => {
                let idx = self.frame_index(frame);
                self.frames[idx].dirty = true;
                true
            }
            LookupResult::Miss => false,
        }
    }

    /// Invalidates the block containing `addr` if present; returns the
    /// eviction record if it was present.
    pub fn invalidate(&mut self, addr: Addr) -> Option<Eviction> {
        match self.probe(addr) {
            LookupResult::Hit { frame } => {
                let idx = self.frame_index(frame);
                let ev = Eviction {
                    block_number: addr.block_number(&self.geometry),
                    dirty: self.frames[idx].dirty,
                };
                self.frames[idx].valid = false;
                self.frames[idx].dirty = false;
                self.invalidations += 1;
                Some(ev)
            }
            LookupResult::Miss => None,
        }
    }

    /// Number of valid frames.
    pub fn valid_lines(&self) -> u32 {
        self.frames.iter().filter(|f| f.valid).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> CacheCore {
        // 2 sets × 2 ways × 32 B blocks = 128 B.
        CacheCore::new(CacheGeometry::new(128, 2, 32).unwrap())
    }

    fn addr_for(set: u32, tag: u64) -> Addr {
        // 2 sets → 1 index bit, 5 offset bits.
        Addr::new((tag << 6) | u64::from(set) << 5)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let a = addr_for(0, 1);
        assert!(!c.lookup(a).is_hit());
        c.fill(a);
        assert!(c.lookup(a).is_hit());
        // Other words of the same block also hit.
        assert!(c.lookup(a.offset(28)).is_hit());
        // The next block does not.
        assert!(!c.lookup(a.offset(32)).is_hit());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        let a = addr_for(0, 1);
        let b = addr_for(0, 2);
        let d = addr_for(0, 3);
        c.fill(a);
        c.fill(b);
        c.lookup(a); // a is now MRU; b is LRU
        let (_, ev) = c.fill(d);
        let ev = ev.expect("set was full");
        assert_eq!(ev.block_number, b.block_number(c.geometry()));
        assert!(c.lookup(a).is_hit());
        assert!(!c.lookup(b).is_hit());
    }

    #[test]
    fn refill_of_present_block_evicts_nothing() {
        let mut c = small();
        let a = addr_for(1, 5);
        c.fill(a);
        let (frame, ev) = c.fill(a);
        assert!(ev.is_none());
        assert_eq!(frame.set, 1);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        let a = addr_for(0, 1);
        c.fill(a);
        assert!(c.mark_dirty(a));
        c.fill(addr_for(0, 2));
        let (_, ev) = c.fill(addr_for(0, 3));
        assert!(ev.expect("eviction").dirty);
    }

    #[test]
    fn mark_dirty_on_absent_block_is_noop() {
        let mut c = small();
        assert!(!c.mark_dirty(addr_for(0, 9)));
    }

    #[test]
    fn mode_switch_flushes() {
        let mut c = small();
        c.fill(addr_for(0, 1));
        assert_eq!(c.valid_lines(), 1);
        c.set_mode(CacheMode::DirectMapped);
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(c.mode(), CacheMode::DirectMapped);
    }

    /// Shrunk reproducer from the dvs-diff SA/DM oracle: `invalidate_all`
    /// used to leave LRU state behind, so after an SA→DM→SA round-trip the
    /// first refill victimised a different way than a fresh cache would —
    /// the paired runs diverged on the first post-switch eviction.
    #[test]
    fn mode_round_trip_behaves_like_a_fresh_cache() {
        let mut c = small();
        let a = addr_for(0, 1);
        let b = addr_for(0, 2);
        c.fill(a);
        c.fill(b);
        c.lookup(a); // perturb set 0 recency away from the fresh order
        c.set_mode(CacheMode::DirectMapped);
        c.set_mode(CacheMode::SetAssociative);

        let fresh = small();
        assert_eq!(c.victim_frame(a), fresh.victim_frame(a));
        for way in 0..2 {
            assert_eq!(c.way_rank(0, way), fresh.way_rank(0, way));
            assert_eq!(c.way_rank(1, way), fresh.way_rank(1, way));
        }
        // Replays of the same fill sequence now evict identically.
        let (frame, _) = c.fill(a);
        let (fresh_frame, _) = small().fill(a);
        assert_eq!(frame, fresh_frame);
    }

    #[test]
    fn invalidations_counted_exactly_once_across_mode_switches() {
        let mut c = small();
        c.fill(addr_for(0, 1));
        c.fill(addr_for(1, 1));
        c.set_mode(CacheMode::DirectMapped);
        assert_eq!(c.invalidations(), 2);
        // Flushing an already-empty cache adds nothing, even via set_mode.
        c.set_mode(CacheMode::SetAssociative);
        assert_eq!(c.invalidations(), 2);
        c.invalidate_all();
        assert_eq!(c.invalidations(), 2);
        // Single-block invalidations count only when a line was present.
        let a = addr_for(0, 3);
        c.fill(a);
        assert!(c.invalidate(a).is_some());
        assert_eq!(c.invalidations(), 3);
        assert!(c.invalidate(a).is_none());
        assert_eq!(c.invalidations(), 3);
    }

    #[test]
    fn direct_mapped_frame_uses_low_tag_bits() {
        let mut c = small(); // 4 lines total
        c.set_mode(CacheMode::DirectMapped);
        // Block numbers 0..4 map to lines 0..4: set = bn % 2, way = (bn/2) % 2.
        for bn in 0..4u64 {
            let frame = c.direct_mapped_frame(Addr::new(bn << 5));
            assert_eq!(u64::from(frame.set), bn % 2);
            assert_eq!(u64::from(frame.way), (bn / 2) % 2);
        }
        // Block 4 wraps onto line 0.
        let f = c.direct_mapped_frame(Addr::new(4 << 5));
        assert_eq!((f.set, f.way), (0, 0));
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let mut c = small();
        c.set_mode(CacheMode::DirectMapped);
        let a = Addr::new(0);
        let b = Addr::new(4 << 5); // same DM line as a
        c.fill(a);
        assert!(c.lookup(a).is_hit());
        let (_, ev) = c.fill(b);
        assert_eq!(ev.expect("conflict").block_number, 0);
        assert!(!c.lookup(a).is_hit());
        assert!(c.lookup(b).is_hit());
    }

    #[test]
    fn set_associative_blocks_in_different_sets_coexist() {
        let mut c = small();
        c.fill(addr_for(0, 1));
        c.fill(addr_for(1, 1));
        assert_eq!(c.valid_lines(), 2);
    }

    #[test]
    fn invalidate_single_block() {
        let mut c = small();
        let a = addr_for(0, 1);
        c.fill(a);
        c.mark_dirty(a);
        let ev = c.invalidate(a).expect("present");
        assert!(ev.dirty);
        assert!(!c.lookup(a).is_hit());
        assert!(c.invalidate(a).is_none());
    }

    #[test]
    fn eviction_block_number_reconstruction() {
        let g = CacheGeometry::dsn_l1();
        let mut c = CacheCore::new(g);
        // Fill 5 blocks in the same set (4 ways) and check the first
        // eviction is the first block, with an exact block number.
        let set = 77u32;
        let addrs: Vec<Addr> = (0..5)
            .map(|t| Addr::new((t << (g.index_bits() + g.offset_bits())) | u64::from(set) << 5))
            .collect();
        for a in &addrs[..4] {
            c.fill(*a);
        }
        let (_, ev) = c.fill(addrs[4]);
        assert_eq!(
            ev.expect("full set").block_number,
            addrs[0].block_number(&g)
        );
    }

    proptest! {
        #[test]
        fn lookup_after_fill_always_hits(byte in 0u64..(1 << 30)) {
            let mut c = CacheCore::new(CacheGeometry::dsn_l1());
            let a = Addr::new(byte);
            c.fill(a);
            prop_assert!(c.lookup(a).is_hit());
        }

        #[test]
        fn valid_lines_never_exceed_capacity(bytes in proptest::collection::vec(0u64..(1 << 20), 1..200)) {
            let mut c = small();
            for b in bytes {
                c.fill(Addr::new(b));
            }
            prop_assert!(c.valid_lines() <= 4);
        }

        #[test]
        fn dm_mode_single_location(byte in 0u64..(1 << 30)) {
            let mut c = small();
            c.set_mode(CacheMode::DirectMapped);
            let a = Addr::new(byte);
            let (frame, _) = c.fill(a);
            prop_assert_eq!(frame, c.direct_mapped_frame(a));
        }
    }
}
