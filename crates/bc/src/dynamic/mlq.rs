//! Multi-level queue (`QQ[level]`) from Green et al., Algorithm 2.
//!
//! Brandes's static algorithm drains vertices in reverse-BFS order with a
//! stack. The *dynamic* dependency-accumulation stage cannot use a stack:
//! while level `i + 1` is being drained, previously-untouched predecessors
//! are discovered and inserted at level `i`, and a stack would pop them
//! before the rest of level `i + 1` — violating the level-order invariant.
//! The multi-level queue keeps one FIFO bucket per BFS depth and is drained
//! from the deepest bucket upward, so late insertions at shallower levels
//! are always processed after every deeper vertex.

/// A bucketed queue indexed by BFS level.
///
/// Levels are `0..capacity_levels`; each holds a FIFO of vertex ids.
#[derive(Debug, Clone)]
pub struct MultiLevelQueue {
    levels: Vec<Vec<u32>>,
    /// Deepest level that has ever received an element since the last clear.
    max_occupied: usize,
    len: usize,
}

impl MultiLevelQueue {
    /// Creates a queue with buckets for levels `0..num_levels`.
    ///
    /// For a graph of `n` vertices, `n` levels always suffice (a BFS tree's
    /// depth is at most `n - 1`).
    pub fn new(num_levels: usize) -> Self {
        Self {
            levels: vec![Vec::new(); num_levels],
            max_occupied: 0,
            len: 0,
        }
    }

    /// Number of level buckets.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total elements across all levels.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when every bucket is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues vertex `v` at `level`.
    ///
    /// # Panics
    /// Panics if `level >= num_levels()`.
    pub fn enqueue(&mut self, level: usize, v: u32) {
        self.levels[level].push(v);
        self.max_occupied = self.max_occupied.max(level);
        self.len += 1;
    }

    /// Number of vertices currently waiting at `level`.
    pub fn level_len(&self, level: usize) -> usize {
        self.levels.get(level).map_or(0, Vec::len)
    }

    /// Read-only view of a level's pending vertices.
    pub fn level(&self, level: usize) -> &[u32] {
        &self.levels[level]
    }

    /// Removes and returns the whole bucket at `level` (FIFO order).
    ///
    /// The dynamic dependency accumulation drains one full level at a time;
    /// taking the bucket wholesale lets the caller iterate it while still
    /// enqueueing into shallower buckets.
    pub fn take_level(&mut self, level: usize) -> Vec<u32> {
        let bucket = std::mem::take(&mut self.levels[level]);
        self.len -= bucket.len();
        bucket
    }

    /// Returns the bucket at `level`, replacing it with the (emptied)
    /// `reuse` vector — an allocation-free variant of [`take_level`].
    ///
    /// [`take_level`]: MultiLevelQueue::take_level
    pub fn swap_level(&mut self, level: usize, mut reuse: Vec<u32>) -> Vec<u32> {
        reuse.clear();
        let bucket = std::mem::replace(&mut self.levels[level], reuse);
        self.len -= bucket.len();
        bucket
    }

    /// Deepest level that has received any element since the last
    /// [`clear`](MultiLevelQueue::clear) (0 if none have).
    pub fn deepest_touched(&self) -> usize {
        self.max_occupied
    }

    /// Empties every bucket, retaining allocations.
    pub fn clear(&mut self) {
        let hi = self.max_occupied.min(self.levels.len().saturating_sub(1));
        for bucket in &mut self.levels[..=hi] {
            bucket.clear();
        }
        self.max_occupied = 0;
        self.len = 0;
    }

    /// Drains the queue from `start_level` down to level 1 (exclusive of 0,
    /// matching the `while level > 0` loop of Algorithm 2), invoking
    /// `visit(level, vertex)` for each vertex. `visit` may enqueue vertices
    /// at strictly shallower levels via the returned handle pattern — for
    /// that flexibility callers usually drive [`take_level`](Self::take_level) manually; this
    /// convenience method serves read-only traversals.
    pub fn drain_top_down<F: FnMut(usize, u32)>(&mut self, start_level: usize, mut visit: F) {
        let mut level = start_level.min(self.levels.len().saturating_sub(1));
        while level > 0 {
            let bucket = self.take_level(level);
            for v in bucket {
                visit(level, v);
            }
            level -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn starts_empty() {
        let q = MultiLevelQueue::new(4);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.num_levels(), 4);
    }

    #[test]
    fn enqueue_and_take() {
        let mut q = MultiLevelQueue::new(4);
        q.enqueue(2, 10);
        q.enqueue(2, 11);
        q.enqueue(1, 5);
        assert_eq!(q.len(), 3);
        assert_eq!(q.level_len(2), 2);
        let l2 = q.take_level(2);
        assert_eq!(l2, [10, 11]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.level_len(2), 0);
    }

    #[test]
    fn deepest_touched_tracks_max() {
        let mut q = MultiLevelQueue::new(8);
        q.enqueue(3, 1);
        assert_eq!(q.deepest_touched(), 3);
        q.enqueue(6, 2);
        assert_eq!(q.deepest_touched(), 6);
        q.take_level(6);
        // deepest_touched is a high-water mark, not current occupancy.
        assert_eq!(q.deepest_touched(), 6);
        q.clear();
        assert_eq!(q.deepest_touched(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn insertion_at_shallower_level_during_drain_is_seen() {
        // The property the MLQ exists for: a vertex enqueued at level i
        // while level i+1 drains must still be visited.
        let mut q = MultiLevelQueue::new(5);
        q.enqueue(3, 30);
        q.enqueue(2, 20);
        let mut order = Vec::new();
        let mut level = 3;
        while level > 0 {
            let bucket = q.take_level(level);
            for v in bucket {
                order.push(v);
                if v == 30 {
                    // Discover a predecessor at level 2 mid-drain.
                    q.enqueue(2, 21);
                }
            }
            level -= 1;
        }
        assert_eq!(order, [30, 20, 21]);
    }

    #[test]
    fn swap_level_reuses_allocation() {
        let mut q = MultiLevelQueue::new(3);
        q.enqueue(1, 7);
        let reuse = Vec::with_capacity(16);
        let bucket = q.swap_level(1, reuse);
        assert_eq!(bucket, [7]);
        assert_eq!(q.level_len(1), 0);
        // The swapped-in vector backs the bucket now.
        q.enqueue(1, 8);
        assert_eq!(q.level(1), [8]);
    }

    #[test]
    fn drain_top_down_visits_deep_first_and_skips_level_zero() {
        let mut q = MultiLevelQueue::new(4);
        q.enqueue(0, 100); // level 0 (the source) is never drained
        q.enqueue(1, 1);
        q.enqueue(3, 3);
        q.enqueue(2, 2);
        let mut seen = Vec::new();
        q.drain_top_down(3, |lvl, v| seen.push((lvl, v)));
        assert_eq!(seen, [(3, 3), (2, 2), (1, 1)]);
        assert_eq!(q.level_len(0), 1);
    }

    #[test]
    fn clear_is_idempotent_and_retains_levels() {
        let mut q = MultiLevelQueue::new(2);
        q.enqueue(1, 4);
        q.clear();
        q.clear();
        assert!(q.is_empty());
        q.enqueue(1, 9);
        assert_eq!(q.level(1), [9]);
    }

    proptest! {
        #[test]
        fn preserves_level_order_and_fifo(
            items in proptest::collection::vec((0usize..8, any::<u32>()), 0..100)
        ) {
            let mut q = MultiLevelQueue::new(8);
            for &(lvl, v) in &items {
                q.enqueue(lvl, v);
            }
            let mut seen: Vec<(usize, u32)> = Vec::new();
            q.drain_top_down(7, |lvl, v| seen.push((lvl, v)));
            // Drained deepest-first; level 0 stays.
            prop_assert!(seen.windows(2).all(|w| w[0].0 >= w[1].0));
            // FIFO within each level.
            for lvl in 1..8 {
                let drained: Vec<u32> =
                    seen.iter().filter(|&&(l, _)| l == lvl).map(|&(_, v)| v).collect();
                let inserted: Vec<u32> =
                    items.iter().filter(|&&(l, _)| l == lvl).map(|&(_, v)| v).collect();
                prop_assert_eq!(drained, inserted, "level {}", lvl);
            }
            prop_assert_eq!(q.len(), items.iter().filter(|&&(l, _)| l == 0).count());
        }
    }
}
