//! Bounded FIFO queues used between pipeline stages.
//!
//! Memory controllers in the simulator have finite read/write queues; when a
//! queue is full the producer must stall, which is exactly how bandwidth
//! bloat turns into queuing delay in the paper. [`BoundedQueue`] makes the
//! capacity limit explicit and impossible to bypass.

use std::collections::VecDeque;

/// A FIFO queue with a hard capacity bound.
///
/// # Example
///
/// ```
/// use bear_sim::queue::BoundedQueue;
/// let mut q = BoundedQueue::new(2);
/// assert!(q.try_push(1).is_ok());
/// assert!(q.try_push(2).is_ok());
/// assert!(q.try_push(3).is_err()); // full: producer must stall
/// assert_eq!(q.pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

/// Error returned by [`BoundedQueue::try_push`] when the queue is full; the
/// rejected element is handed back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull<T>(pub T);

impl<T> std::fmt::Display for QueueFull<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "queue is full")
    }
}

impl<T: std::fmt::Debug> std::error::Error for QueueFull<T> {}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        BoundedQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Attempts to enqueue; returns the element back inside [`QueueFull`] if
    /// there is no room.
    pub fn try_push(&mut self, item: T) -> Result<(), QueueFull<T>> {
        if self.items.len() >= self.capacity {
            Err(QueueFull(item))
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    /// Dequeues the oldest element.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Oldest element without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Maximum number of elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over queued elements from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Removes and returns the element at `index` (0 = oldest). Used by
    /// FR-FCFS schedulers that pick row-buffer hits out of order.
    pub fn remove(&mut self, index: usize) -> Option<T> {
        self.items.remove(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_enforced_and_element_returned() {
        let mut q = BoundedQueue::new(1);
        q.try_push("a").unwrap();
        assert!(q.is_full());
        let err = q.try_push("b").unwrap_err();
        assert_eq!(err.0, "b");
        assert_eq!(format!("{err}"), "queue is full");
    }

    #[test]
    fn occupancy_reporting() {
        let mut q = BoundedQueue::new(3);
        assert!(q.is_empty());
        q.try_push(1).unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.capacity(), 3);
        assert_eq!(q.front(), Some(&1));
    }

    #[test]
    fn out_of_order_removal() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.remove(2), Some(2));
        assert_eq!(q.len(), 3);
        let rest: Vec<_> = q.iter().copied().collect();
        assert_eq!(rest, vec![0, 1, 3]);
        assert_eq!(q.remove(10), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        BoundedQueue::<u8>::new(0);
    }
}
