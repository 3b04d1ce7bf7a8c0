//! The simulators' and streams' timer queue, and the exponential
//! holding-time draw.
//!
//! Every seeded run in the workspace — the packet and flow simulators, the
//! tenant and network event streams — is a pure function of its seed
//! because events due at the same instant fire in the order they were
//! scheduled. [`TimerQueue`] is the one place that rule lives.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::Nanos;

/// Min-heap of items keyed by due time: earliest first, and first in
/// first out among items due at the same instant.
///
/// Ties break on the number of pushes made to this queue before the item,
/// so the pop order is fixed by the pushes alone, whatever the heap's
/// layout. The item type needs no ordering.
#[derive(Debug)]
pub struct TimerQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<T> {
    at: Nanos,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<T> Default for TimerQueue<T> {
    fn default() -> Self {
        TimerQueue { heap: BinaryHeap::new(), seq: 0 }
    }
}

impl<T> TimerQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `item` at absolute time `at`.
    pub fn push(&mut self, at: Nanos, item: T) {
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq: self.seq, item }));
    }

    /// Remove and return the earliest item with its due time.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.item))
    }

    /// Due time of the earliest item.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no items are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Exponential holding time with the given mean, from a uniform draw `u`
/// in (0, 1]: the inverse CDF `-mean · ln(u)`, clamped at 1e18 ns so a
/// pathological draw cannot overflow the clock.
pub fn exp_holding(mean: Nanos, u: f64) -> Nanos {
    debug_assert!(u > 0.0 && u <= 1.0);
    (-(mean as f64) * u.ln()).min(1e18) as Nanos
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = TimerQueue::new();
        q.push(30, 'c');
        q.push(10, 'a');
        q.push(20, 'b');
        let order: Vec<Nanos> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = TimerQueue::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(4, 9);
        q.push(5, 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, x)| x)).collect();
        assert_eq!(order, vec![9, 1, 2, 3]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = TimerQueue::new();
        assert!(q.is_empty());
        q.push(7, ());
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 1);
        q.pop().unwrap();
        assert!(q.peek_time().is_none());
    }

    proptest! {
        // Random interleavings of pushes and pops over a narrow time
        // range (so most pushes tie with another) against a plain list
        // that removes the minimum `(at, push index)`. An op `(0, _)`
        // pops; `(_, at)` otherwise pushes at `at`.
        #[test]
        fn matches_a_sorted_list(ops in prop::collection::vec((0u8..3, 0u64..4), 0..200)) {
            let mut q = TimerQueue::new();
            let mut reference: Vec<(Nanos, usize)> = Vec::new();
            for (i, (op, at)) in ops.into_iter().enumerate() {
                if op == 0 {
                    let min = (0..reference.len()).min_by_key(|&k| reference[k]);
                    prop_assert_eq!(q.pop(), min.map(|k| reference.remove(k)));
                } else {
                    q.push(at, i);
                    reference.push((at, i));
                }
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.peek_time(), reference.iter().map(|e| e.0).min());
            }
        }
    }
}
