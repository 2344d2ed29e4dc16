//! A bump-style buffer arena for per-epoch matrix temporaries.
//!
//! The GCN propagation path allocates the same set of temporaries
//! every epoch — per-layer combination outputs, aggregation outputs,
//! activations, backward deltas and transposes — and frees them all at
//! the epoch boundary. [`BufferArena`] keeps those buffers alive
//! across epochs instead: [`BufferArena::alloc`] hands out a zeroed
//! matrix backed by a recycled allocation when one with enough
//! capacity exists, and [`BufferArena::recycle`] returns a matrix's
//! storage to the free list. After the first epoch warms the arena,
//! the steady-state propagation path performs no heap allocation for
//! its temporaries — provided it recycles only matrices the arena
//! handed out. Recycling a foreign matrix (a clone, a `Matrix::zeros`)
//! adds a buffer the next epoch does not ask back, so a loop that does
//! it every epoch grows the free list without bound.
//!
//! Determinism: an arena-backed matrix is zero-filled on allocation,
//! exactly like `Matrix::zeros`, so recycling can never leak one
//! epoch's values into the next — the differential and golden tests
//! pin the training trajectories bitwise.

use crate::Matrix;
use gopim_obs::metrics::LazyCounter;

static ARENA_REUSES: LazyCounter = LazyCounter::new("linalg.arena.reuses");
static ARENA_MISSES: LazyCounter = LazyCounter::new("linalg.arena.misses");

/// A free list of `f64` buffers reused across epochs.
///
/// # Example
///
/// ```
/// use gopim_linalg::arena::BufferArena;
///
/// let mut arena = BufferArena::new();
/// let m = arena.alloc(4, 3);
/// assert_eq!(m.shape(), (4, 3));
/// arena.recycle(m);
/// // The next allocation of any shape that fits reuses the storage.
/// let again = arena.alloc(2, 6);
/// assert_eq!(again.shape(), (2, 6));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BufferArena {
    free: Vec<Vec<f64>>,
}

impl BufferArena {
    /// An empty arena.
    pub fn new() -> Self {
        BufferArena::default()
    }

    /// A zeroed `rows × cols` matrix, backed by a recycled buffer when
    /// one with sufficient capacity is available.
    pub fn alloc(&mut self, rows: usize, cols: usize) -> Matrix {
        let need = rows * cols;
        // Smallest sufficient buffer. The free list stays tiny as long
        // as callers recycle only buffers this arena handed out: then
        // it holds at most one entry per live temporary, and a linear
        // scan is cheapest.
        let pick = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, buf)| buf.capacity() >= need)
            .min_by_key(|(_, buf)| buf.capacity())
            .map(|(i, _)| i);
        let data = match pick {
            Some(i) => {
                ARENA_REUSES.add(1);
                let mut buf = self.free.swap_remove(i);
                buf.clear();
                buf.resize(need, 0.0);
                buf
            }
            None => {
                ARENA_MISSES.add(1);
                vec![0.0; need]
            }
        };
        Matrix::from_vec(rows, cols, data)
    }

    /// Returns a matrix's storage to the free list.
    pub fn recycle(&mut self, m: Matrix) {
        let buf = m.into_vec();
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Number of buffers currently on the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_zeroed_even_after_recycling_dirty_buffers() {
        let mut arena = BufferArena::new();
        let mut m = arena.alloc(3, 3);
        for v in m.as_mut_slice() {
            *v = 7.5;
        }
        arena.recycle(m);
        assert_eq!(arena.free_buffers(), 1);
        let again = arena.alloc(3, 3);
        assert_eq!(arena.free_buffers(), 0, "storage was reused");
        assert!(again.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn smaller_requests_reuse_larger_buffers() {
        let mut arena = BufferArena::new();
        let big = arena.alloc(10, 10);
        arena.recycle(big);
        let small = arena.alloc(2, 2);
        assert_eq!(small.shape(), (2, 2));
        assert_eq!(arena.free_buffers(), 0);
    }

    #[test]
    fn insufficient_buffers_are_left_on_the_free_list() {
        let mut arena = BufferArena::new();
        arena.recycle(Matrix::zeros(2, 2));
        let fresh = arena.alloc(8, 8);
        assert_eq!(fresh.shape(), (8, 8));
        assert_eq!(arena.free_buffers(), 1, "the 2x2 buffer stays free");
    }

    #[test]
    fn zero_sized_matrices_round_trip() {
        let mut arena = BufferArena::new();
        let empty = arena.alloc(0, 5);
        assert_eq!(empty.shape(), (0, 5));
        arena.recycle(empty);
    }
}
