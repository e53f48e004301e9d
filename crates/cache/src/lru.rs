//! True-LRU replacement state.
//!
//! One set's state is its recency order: the way indices from most to
//! least recently used, one byte each. The functions below run on one
//! set's slice of that order. [`crate::CacheCore`] keeps every set's order
//! in one flat array and [`LruQueue`] owns a single set's, so both run the
//! same code.

use serde::{Deserialize, Serialize};

/// Panics unless `ways` fits a one-byte way index.
pub(crate) fn assert_ways(ways: u32) {
    assert!(ways > 0 && ways <= 255, "unsupported way count {ways}");
}

/// Recency rank of `way` in `order`: 0 = most recent.
///
/// # Panics
///
/// Panics if `way` is out of range.
pub(crate) fn rank(order: &[u8], way: u32) -> u32 {
    order
        .iter()
        .position(|&w| u32::from(w) == way)
        .unwrap_or_else(|| panic!("way {way} out of range {}", order.len())) as u32
}

/// Marks `way` most recently used in `order`.
///
/// # Panics
///
/// Panics if `way` is out of range.
pub(crate) fn touch(order: &mut [u8], way: u32) {
    let pos = rank(order, way) as usize;
    order[..=pos].rotate_right(1);
}

/// The least recently used way in `order` (the replacement victim).
pub(crate) fn victim(order: &[u8]) -> u32 {
    u32::from(*order.last().expect("order is never empty"))
}

/// Restores the fresh order: way 0 most recent, the highest way the victim.
pub(crate) fn reset(order: &mut [u8]) {
    for (way, w) in order.iter_mut().enumerate() {
        *w = way as u8;
    }
}

/// A true-LRU recency queue over the ways of one set.
///
/// The front of the queue is the most recently used way, the back the least
/// recently used. Both L1 caches and the L2 in the paper use LRU (Table I).
///
/// # Example
///
/// ```rust
/// use dvs_cache::LruQueue;
///
/// let mut lru = LruQueue::new(4);
/// lru.touch(2);
/// lru.touch(0);
/// assert_eq!(lru.victim(), 3); // untouched ways age out first
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LruQueue {
    /// Way indices ordered most- to least-recently used.
    order: Vec<u8>,
}

impl LruQueue {
    /// Creates a queue over `ways` ways; initially way 0 is most recent and
    /// the highest way is the victim.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or exceeds 255.
    pub fn new(ways: u32) -> Self {
        assert_ways(ways);
        let mut order = vec![0; ways as usize];
        reset(&mut order);
        LruQueue { order }
    }

    /// Number of ways tracked.
    pub fn ways(&self) -> u32 {
        self.order.len() as u32
    }

    /// Marks `way` most recently used.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn touch(&mut self, way: u32) {
        touch(&mut self.order, way);
    }

    /// The least recently used way (the replacement victim).
    pub fn victim(&self) -> u32 {
        victim(&self.order)
    }

    /// Restores the freshly-constructed recency order (way 0 most recent,
    /// highest way the victim), as after a whole-cache invalidation. A
    /// reset queue is indistinguishable from `LruQueue::new(self.ways())`.
    pub fn reset(&mut self) {
        reset(&mut self.order);
    }

    /// Recency rank of `way`: 0 = most recent.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn rank(&self, way: u32) -> u32 {
        rank(&self.order, way)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn initial_order() {
        let lru = LruQueue::new(4);
        assert_eq!(lru.victim(), 3);
        assert_eq!(lru.rank(0), 0);
    }

    #[test]
    fn touch_promotes_to_front() {
        let mut lru = LruQueue::new(4);
        lru.touch(3);
        assert_eq!(lru.rank(3), 0);
        assert_eq!(lru.victim(), 2);
    }

    #[test]
    fn repeated_touch_is_idempotent() {
        let mut lru = LruQueue::new(2);
        lru.touch(1);
        lru.touch(1);
        assert_eq!(lru.rank(1), 0);
        assert_eq!(lru.victim(), 0);
    }

    #[test]
    fn victim_cycles_through_all_ways() {
        let mut lru = LruQueue::new(3);
        let mut victims = Vec::new();
        for _ in 0..3 {
            let v = lru.victim();
            victims.push(v);
            lru.touch(v);
        }
        victims.sort_unstable();
        assert_eq!(victims, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn touch_out_of_range_panics() {
        LruQueue::new(2).touch(2);
    }

    #[test]
    fn reset_matches_a_fresh_queue() {
        let mut lru = LruQueue::new(4);
        lru.touch(3);
        lru.touch(1);
        lru.reset();
        assert_eq!(lru, LruQueue::new(4));
        assert_eq!(lru.victim(), 3);
    }

    #[test]
    #[should_panic(expected = "unsupported way count")]
    fn zero_ways_rejected() {
        let _ = LruQueue::new(0);
    }

    proptest! {
        #[test]
        fn victim_is_never_recently_touched(touches in proptest::collection::vec(0u32..8, 1..50)) {
            let mut lru = LruQueue::new(8);
            for &w in &touches {
                lru.touch(w);
            }
            let last = *touches.last().unwrap();
            prop_assert_ne!(lru.victim(), last);
            prop_assert_eq!(lru.rank(last), 0);
        }

        #[test]
        fn ranks_are_a_permutation(touches in proptest::collection::vec(0u32..4, 0..30)) {
            let mut lru = LruQueue::new(4);
            for &w in &touches {
                lru.touch(w);
            }
            let mut ranks: Vec<u32> = (0..4).map(|w| lru.rank(w)).collect();
            ranks.sort_unstable();
            prop_assert_eq!(ranks, vec![0, 1, 2, 3]);
        }
    }
}
