//! Defect buffers: the FBA's fully associative word store and the IDC's
//! set-associative variant.

use std::collections::{HashMap, VecDeque};

/// A word-location-tagged buffer holding the contents of in-use defective
/// words (paper Section III-B: FBA, IDC).
///
/// Entries are keyed by global word address; each set is a true-LRU queue.
/// The FBA is the fully associative special case (one set), kept as an
/// exact LRU list with a hash index so an access costs O(1) at any
/// capacity; the IDC's small sets are scanned.
///
/// # Example
///
/// ```rust
/// use dvs_schemes::DefectBuffer;
///
/// let mut fba = DefectBuffer::fully_associative(2);
/// assert!(!fba.access(100)); // miss, inserted
/// assert!(fba.access(100));  // hit
/// fba.access(101);
/// fba.access(102);           // evicts 100 (LRU)
/// assert!(!fba.access(100));
/// ```
#[derive(Debug, Clone)]
pub struct DefectBuffer {
    entries: Entries,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone)]
enum Entries {
    /// The FBA: one set of any size.
    Full(LruWords),
    /// The IDC: per-set LRU queues of word addresses, most recent at the
    /// back, scanned on every access.
    Sets { sets: Vec<VecDeque<u64>>, ways: u32 },
}

impl DefectBuffer {
    /// A fully associative buffer of `entries` words (the FBA).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn fully_associative(entries: u32) -> Self {
        assert!(entries > 0, "buffer needs at least one entry");
        DefectBuffer {
            entries: Entries::Full(LruWords::new(entries as usize)),
            hits: 0,
            misses: 0,
        }
    }

    /// A set-associative buffer (the IDC): `entries` total words in sets of
    /// `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or does not divide `entries`.
    pub fn set_associative(entries: u32, ways: u32) -> Self {
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "entries must split into whole sets"
        );
        let sets = (entries / ways) as usize;
        DefectBuffer {
            entries: Entries::Sets {
                sets: vec![VecDeque::with_capacity(ways as usize); sets],
                ways,
            },
            hits: 0,
            misses: 0,
        }
    }

    /// Total capacity in words.
    pub fn capacity(&self) -> u32 {
        match &self.entries {
            Entries::Full(lru) => lru.capacity as u32,
            Entries::Sets { sets, ways } => sets.len() as u32 * ways,
        }
    }

    /// Whether the buffer currently holds `word_addr` (no state change).
    pub fn probe(&self, word_addr: u64) -> bool {
        match &self.entries {
            Entries::Full(lru) => lru.slot_of(word_addr).is_some(),
            Entries::Sets { sets, .. } => sets[set_of(sets, word_addr)].contains(&word_addr),
        }
    }

    /// Accesses `word_addr`: on a hit the entry is promoted and `true` is
    /// returned; on a miss the word is inserted (evicting the set's LRU
    /// entry if full) and `false` is returned.
    pub fn access(&mut self, word_addr: u64) -> bool {
        let hit = match &mut self.entries {
            Entries::Full(lru) => lru.access(word_addr),
            Entries::Sets { sets, ways } => {
                let set_idx = set_of(sets, word_addr);
                let set = &mut sets[set_idx];
                if let Some(pos) = set.iter().position(|&w| w == word_addr) {
                    set.remove(pos);
                    set.push_back(word_addr);
                    true
                } else {
                    set.push_back(word_addr);
                    if set.len() > *ways as usize {
                        set.pop_front();
                    }
                    false
                }
            }
        };
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Buffer hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Buffer misses (each cost an L2 access) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Words currently buffered.
    pub fn occupancy(&self) -> u32 {
        match &self.entries {
            Entries::Full(lru) => lru.slots.len() as u32,
            Entries::Sets { sets, .. } => sets.iter().map(|s| s.len() as u32).sum(),
        }
    }
}

/// Equal when the counters and the buffered words, in recency order, are.
impl PartialEq for DefectBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.hits == other.hits
            && self.misses == other.misses
            && match (&self.entries, &other.entries) {
                (Entries::Full(a), Entries::Full(b)) => {
                    a.capacity == b.capacity && a.most_recent_first().eq(b.most_recent_first())
                }
                (Entries::Sets { sets: a, ways: wa }, Entries::Sets { sets: b, ways: wb }) => {
                    wa == wb && a == b
                }
                _ => false,
            }
    }
}

impl Eq for DefectBuffer {}

fn set_of(sets: &[VecDeque<u64>], word_addr: u64) -> usize {
    (word_addr % sets.len() as u64) as usize
}

/// No slot (the end of the recency list).
const NIL: u32 = u32::MAX;

/// An exact LRU set of word addresses: a doubly linked recency list over
/// a slab of slots, found through a hash index. Lookup, promotion,
/// insertion and eviction each touch a constant number of slots.
#[derive(Debug, Clone)]
struct LruWords {
    slots: Vec<Slot>,
    /// The slot of every buffered word.
    index: HashMap<u64, u32>,
    /// Most and least recently used slots.
    head: u32,
    tail: u32,
    capacity: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    word: u64,
    /// The next more recently used slot.
    newer: u32,
    /// The next less recently used slot.
    older: u32,
}

impl LruWords {
    fn new(capacity: usize) -> Self {
        LruWords {
            slots: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn slot_of(&self, word: u64) -> Option<u32> {
        self.index.get(&word).copied()
    }

    /// Promotes `word` on a hit; on a miss inserts it, evicting the least
    /// recently used word when full. Returns whether it hit.
    fn access(&mut self, word: u64) -> bool {
        if let Some(slot) = self.slot_of(word) {
            if slot != self.head {
                self.unlink(slot);
                self.push_front(slot);
            }
            return true;
        }
        let slot = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                word,
                newer: NIL,
                older: NIL,
            });
            (self.slots.len() - 1) as u32
        } else {
            let victim = self.tail;
            self.index.remove(&self.slots[victim as usize].word);
            self.unlink(victim);
            self.slots[victim as usize].word = word;
            victim
        };
        self.index.insert(word, slot);
        self.push_front(slot);
        false
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { newer, older, .. } = self.slots[slot as usize];
        match newer {
            NIL => self.head = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        self.slots[slot as usize].newer = NIL;
        self.slots[slot as usize].older = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.slots[h as usize].newer = slot,
        }
        self.head = slot;
    }

    fn most_recent_first(&self) -> impl Iterator<Item = u64> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let slot = self.slots[at as usize];
                at = slot.older;
                slot.word
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: per-set `VecDeque`s, most recent at the back,
    /// searched linearly, for every shape.
    struct ScanBuffer {
        sets: Vec<VecDeque<u64>>,
        ways: usize,
        hits: u64,
        misses: u64,
    }

    impl ScanBuffer {
        fn new(entries: u32, ways: u32) -> Self {
            ScanBuffer {
                sets: vec![VecDeque::new(); (entries / ways) as usize],
                ways: ways as usize,
                hits: 0,
                misses: 0,
            }
        }

        fn probe(&self, word_addr: u64) -> bool {
            self.sets[set_of(&self.sets, word_addr)].contains(&word_addr)
        }

        fn access(&mut self, word_addr: u64) -> bool {
            let set_idx = set_of(&self.sets, word_addr);
            let set = &mut self.sets[set_idx];
            if let Some(pos) = set.iter().position(|&w| w == word_addr) {
                set.remove(pos);
                set.push_back(word_addr);
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            set.push_back(word_addr);
            if set.len() > self.ways {
                set.pop_front();
            }
            false
        }

        fn occupancy(&self) -> u32 {
            self.sets.iter().map(|s| s.len() as u32).sum()
        }
    }

    #[test]
    fn lru_eviction_in_fully_associative() {
        let mut b = DefectBuffer::fully_associative(2);
        b.access(1);
        b.access(2);
        b.access(1); // promote 1; 2 is now LRU
        b.access(3); // evicts 2
        assert!(b.probe(1));
        assert!(!b.probe(2));
        assert!(b.probe(3));
    }

    #[test]
    fn set_associative_isolates_sets() {
        // 4 entries, 2 ways → 2 sets; even/odd word addresses separate.
        let mut b = DefectBuffer::set_associative(4, 2);
        b.access(0);
        b.access(2);
        b.access(4); // evicts 0 within set 0
        assert!(!b.probe(0));
        assert!(b.probe(2));
        b.access(1); // set 1 untouched by the above
        assert!(b.probe(1));
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut b = DefectBuffer::fully_associative(4);
        b.access(7);
        b.access(7);
        b.access(8);
        assert_eq!(b.hits(), 1);
        assert_eq!(b.misses(), 2);
    }

    #[test]
    fn capacity_reports() {
        assert_eq!(DefectBuffer::fully_associative(64).capacity(), 64);
        assert_eq!(DefectBuffer::set_associative(1024, 4).capacity(), 1024);
    }

    #[test]
    #[should_panic(expected = "whole sets")]
    fn rejects_ragged_sets() {
        let _ = DefectBuffer::set_associative(10, 4);
    }

    #[test]
    fn equality_follows_contents_and_recency() {
        let mut a = DefectBuffer::fully_associative(3);
        let mut b = DefectBuffer::fully_associative(3);
        for w in [1, 2, 3] {
            a.access(w);
        }
        for w in [2, 1, 3] {
            b.access(w);
        }
        // Same words and counters, different recency order.
        assert_ne!(a, b);
        // Promoting 1 leaves both at 1, 3, 2 from most recent down.
        a.access(1);
        b.access(1);
        assert_eq!(a, b);
        b.access(9);
        assert_ne!(a, b);
    }

    proptest! {
        #[test]
        fn occupancy_bounded(words in proptest::collection::vec(0u64..100, 0..300)) {
            let mut b = DefectBuffer::set_associative(16, 4);
            for w in words {
                b.access(w);
            }
            prop_assert!(b.occupancy() <= 16);
        }

        #[test]
        fn probe_after_access_hits(w in 0u64..1000) {
            let mut b = DefectBuffer::fully_associative(8);
            b.access(w);
            prop_assert!(b.probe(w));
            prop_assert!(b.access(w));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every shape agrees with the scanning reference on mixed
        /// streams of accesses and probes: over a span of words near the
        /// capacity (hits and evictions both), strided, at any base.
        #[test]
        fn matches_the_scanning_reference(
            stream in proptest::collection::vec(any::<u64>(), 0..3000),
            span in 1u64..4096,
            stride in 1u64..64,
            base: u64,
        ) {
            for (entries, ways) in [(1, 1), (2, 2), (64, 64), (1024, 1024), (1024, 4)] {
                let mut fast = if entries == ways {
                    DefectBuffer::fully_associative(entries)
                } else {
                    DefectBuffer::set_associative(entries, ways)
                };
                let mut reference = ScanBuffer::new(entries, ways);
                for &x in &stream {
                    let word = base.wrapping_add((x >> 2) % span * stride);
                    if x & 3 == 0 {
                        prop_assert_eq!(fast.probe(word), reference.probe(word));
                    } else {
                        prop_assert_eq!(fast.access(word), reference.access(word));
                    }
                    prop_assert_eq!(fast.occupancy(), reference.occupancy());
                }
                prop_assert_eq!(fast.hits(), reference.hits);
                prop_assert_eq!(fast.misses(), reference.misses);
            }
        }
    }
}
