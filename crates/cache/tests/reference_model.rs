//! Equivalence of `CacheCore` against a deliberately naive reference
//! model, over randomized address streams — the classic way to catch
//! subtle LRU/indexing bugs in a cache simulator. The geometry is an
//! input (1 to 16 ways, so the L2's 8 ways are covered), and the streams
//! interleave whole-cache invalidations and mode switches with accesses.

use std::collections::VecDeque;

use dvs_cache::{Addr, CacheCore, CacheMode, LookupResult};
use dvs_sram::{CacheGeometry, FrameId};
use proptest::prelude::*;

/// The simplest possible LRU cache: per set, the resident blocks and the
/// way each occupies, least recently used at the front. A fill into a set
/// with free ways takes the highest free way, as from a fresh cache (way 0
/// most recent, the highest way the first victim).
struct NaiveCache {
    sets: Vec<VecDeque<(u64, u32)>>,
    geom: CacheGeometry,
    mode: CacheMode,
}

impl NaiveCache {
    fn new(geom: CacheGeometry, mode: CacheMode) -> Self {
        NaiveCache {
            sets: vec![VecDeque::new(); geom.sets() as usize],
            geom,
            mode,
        }
    }

    /// Ways of `set` that hold no block, ascending.
    fn free_ways(&self, set: usize) -> Vec<u32> {
        (0..self.geom.ways())
            .filter(|w| self.sets[set].iter().all(|&(_, way)| way != *w))
            .collect()
    }

    /// Set-associative mode: each resident block sits where the real cache
    /// has it, with the rank of its queue position; the free ways follow
    /// in ascending order, as in a fresh set.
    fn check_ranks(&self, real: &CacheCore, step: usize) {
        for (set, queue) in self.sets.iter().enumerate() {
            let free = self.free_ways(set);
            let used = queue.iter().rev().map(|&(block, way)| {
                let addr = Addr::new(block << self.geom.offset_bits());
                assert_eq!(
                    real.probe(addr),
                    LookupResult::Hit {
                        frame: FrameId::new(set as u32, way)
                    },
                    "step {step}: block {block}"
                );
                way
            });
            for (rank, way) in used.chain(free).enumerate() {
                assert_eq!(
                    real.way_rank(set as u32, way) as usize,
                    rank,
                    "step {step}: rank of way {way} in set {set}"
                );
            }
        }
    }

    fn lookup(&mut self, addr: Addr) -> bool {
        let block = addr.block_number(&self.geom);
        let set = addr.set_index(&self.geom) as usize;
        let Some(pos) = self.sets[set].iter().position(|&(b, _)| b == block) else {
            return false;
        };
        if self.mode == CacheMode::SetAssociative {
            let entry = self.sets[set].remove(pos).unwrap();
            self.sets[set].push_back(entry);
        }
        true
    }

    /// Fills a missing block: returns the way it takes and the evicted
    /// block, if any.
    fn fill(&mut self, addr: Addr) -> (u32, Option<u64>) {
        let block = addr.block_number(&self.geom);
        let set = addr.set_index(&self.geom) as usize;
        let (way, evicted) = match self.mode {
            CacheMode::SetAssociative => match self.free_ways(set).last() {
                Some(&way) => (way, None),
                None => {
                    let (victim, way) = self.sets[set].pop_front().unwrap();
                    (way, Some(victim))
                }
            },
            CacheMode::DirectMapped => {
                // The block's line, {low tag bits, set index}, names the way.
                let line = block % u64::from(self.geom.total_lines());
                let way = (line / u64::from(self.geom.sets())) as u32;
                let evicted = self.sets[set]
                    .iter()
                    .position(|&(_, w)| w == way)
                    .and_then(|pos| self.sets[set].remove(pos))
                    .map(|(victim, _)| victim);
                (way, evicted)
            }
        };
        self.sets[set].push_back((block, way));
        (way, evicted)
    }
}

/// One step of a generated stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Look the block up and fill it on a miss.
    Access(u64),
    /// Flush the whole cache.
    InvalidateAll,
    /// Switch SA→DM or DM→SA (two switches make a round trip).
    ToggleMode,
}

/// Decodes a generated word: 1 in 32 flushes, 1 in 32 switches mode, the
/// rest access one of `blocks` blocks.
fn decode(code: u64, blocks: u64) -> Op {
    match code % 32 {
        0 => Op::InvalidateAll,
        1 => Op::ToggleMode,
        _ => Op::Access((code >> 5) % blocks),
    }
}

/// `2^sets_log` sets × `2^ways_log` ways of 32 B blocks.
fn geometry(ways_log: u32, sets_log: u32) -> CacheGeometry {
    let ways = 1 << ways_log;
    CacheGeometry::new((32 * ways) << sets_log, ways, 32).unwrap()
}

fn exercise(geom: CacheGeometry, mode: CacheMode, ops: impl IntoIterator<Item = Op>) {
    let mut real = CacheCore::new(geom);
    real.set_mode(mode);
    let mut naive = NaiveCache::new(geom, mode);
    for (i, op) in ops.into_iter().enumerate() {
        match op {
            Op::Access(block) => {
                let addr = Addr::new(block << geom.offset_bits());
                let real_hit = matches!(real.lookup(addr), LookupResult::Hit { .. });
                let naive_hit = naive.lookup(addr);
                assert_eq!(real_hit, naive_hit, "step {i}: hit disagreement on {block}");
                if !real_hit {
                    let (frame, real_ev) = real.fill(addr);
                    let (way, naive_ev) = naive.fill(addr);
                    assert_eq!(frame.way, way, "step {i}: way disagreement on {block}");
                    assert_eq!(
                        real_ev.map(|e| e.block_number),
                        naive_ev,
                        "step {i}: eviction disagreement on {block}"
                    );
                }
            }
            Op::InvalidateAll => {
                real.invalidate_all();
                naive = NaiveCache::new(geom, naive.mode);
            }
            Op::ToggleMode => {
                let next = match naive.mode {
                    CacheMode::SetAssociative => CacheMode::DirectMapped,
                    CacheMode::DirectMapped => CacheMode::SetAssociative,
                };
                real.set_mode(next);
                naive = NaiveCache::new(geom, next);
            }
        }
        assert_eq!(
            real.valid_lines() as usize,
            naive.sets.iter().map(VecDeque::len).sum()
        );
        if naive.mode == CacheMode::SetAssociative {
            naive.check_ranks(&real, i);
        }
    }
}

fn ops(codes: Vec<u64>, geom: CacheGeometry) -> impl Iterator<Item = Op> {
    // Three blocks per frame: conflicts and evictions in every set.
    let blocks = 3 * u64::from(geom.total_lines());
    codes.into_iter().map(move |code| decode(code, blocks))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn set_associative_matches_reference(
        ways_log in 0u32..5,
        sets_log in 0u32..4,
        codes in proptest::collection::vec(any::<u64>(), 1..400),
    ) {
        let geom = geometry(ways_log, sets_log);
        exercise(geom, CacheMode::SetAssociative, ops(codes, geom));
    }

    #[test]
    fn direct_mapped_matches_reference(
        ways_log in 0u32..5,
        sets_log in 0u32..4,
        codes in proptest::collection::vec(any::<u64>(), 1..400),
    ) {
        let geom = geometry(ways_log, sets_log);
        exercise(geom, CacheMode::DirectMapped, ops(codes, geom));
    }
}

#[test]
fn adversarial_same_set_stream() {
    // Every block lands in set 0 (4 sets => stride 4).
    let blocks = (0..200).map(|i| Op::Access((i % 7) * 4));
    exercise(geometry(1, 2), CacheMode::SetAssociative, blocks);
}
