//! Dependency-free, deterministic parallel runtime for the GoPIM
//! reproduction.
//!
//! Every hot path in the workspace — dense matmul, sparse Â·X
//! aggregation, the per-configuration DES sweeps — fans out through
//! the primitives here. Two rules make that safe for a simulator
//! whose tests pin bit-exact outputs:
//!
//! 1. **Fixed work partitioning.** What gets computed, and in which
//!    units, never depends on the thread count. Chunk boundaries come
//!    from the caller (or from the input size alone); threads only
//!    decide *who* computes a unit, never *what* a unit is.
//! 2. **Ordered reduction.** Whenever partial results are combined,
//!    they are combined serially in index order. Floating-point
//!    addition is not associative, so an unordered reduction would
//!    make the answer a function of scheduling.
//!
//! Together these guarantee: any kernel built on this module returns
//! bit-identical results at `GOPIM_THREADS=1` and `GOPIM_THREADS=64`
//! (`tests/determinism.rs` pins this for matmul, propagation and the
//! DES sweeps).
//!
//! The global pool is created lazily on first use, sized by the
//! `GOPIM_THREADS` environment variable (default: available
//! parallelism). Tests compare thread counts in-process by running
//! the same kernel under [`Pool::install`] with differently-sized
//! pools.

#![warn(missing_docs)]

pub mod pool;

pub use pool::{current, Pool};

/// Parallelism of the pool the primitives would dispatch to right now.
pub fn num_threads() -> usize {
    current().threads()
}

/// Runs `a` and `b`, potentially in parallel, returning both results.
pub fn par_join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    // Spans open before the serial fast-path branch and carry only
    // input-shape args, so the traced event set is identical at every
    // thread count (pinned by tests/trace_determinism.rs).
    let _span = gopim_obs::span!("par.join");
    let pool = current();
    if pool.threads() <= 1 {
        return (a(), b());
    }
    let mut ra = None;
    let mut rb = None;
    {
        let slot_a = &mut ra;
        let slot_b = &mut rb;
        pool.scope(vec![
            Box::new(move || *slot_a = Some(a())),
            Box::new(move || *slot_b = Some(b())),
        ]);
    }
    // lint:allow(no-panic-in-lib): scope returns only after both tasks ran, so both slots are filled
    (ra.unwrap(), rb.unwrap())
}

/// Applies `f` to consecutive `chunk_len`-sized mutable chunks of
/// `data` in parallel. `f` receives the chunk index and the chunk;
/// chunk boundaries depend only on `chunk_len` and `data.len()`, so a
/// per-chunk-pure `f` yields thread-count-independent results.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let elems = data.len();
    // Shape-only args: callers often derive `chunk_len` from the pool
    // width, which would break trace thread-count invariance.
    let _span = gopim_obs::span!("par.chunks_mut", elems);
    let pool = current();
    if pool.threads() <= 1 || data.len() <= chunk_len {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
        .chunks_mut(chunk_len)
        .enumerate()
        .map(|(i, chunk)| Box::new(move || f(i, chunk)) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    pool.scope(tasks);
}

/// Runs `f` over `0..count` split into contiguous index ranges, in
/// parallel. The range boundaries scale with the pool size, which is
/// safe exactly when `f` is independent per index (each index's
/// result must not depend on which range it landed in) — the
/// row-partitioned kernels' contract.
pub fn par_index_ranges(count: usize, f: impl Fn(std::ops::Range<usize>) + Sync) {
    let _span = gopim_obs::span!("par.index_ranges", count);
    let pool = current();
    let threads = pool.threads();
    if threads <= 1 || count <= 1 {
        f(0..count);
        return;
    }
    // Oversubscribe modestly so uneven ranges (e.g. skewed CSR rows)
    // still load-balance.
    let chunk = count.div_ceil(threads * 4).max(1);
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..count)
        .step_by(chunk)
        .map(|start| {
            let end = (start + chunk).min(count);
            Box::new(move || f(start..end)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.scope(tasks);
}

/// Maps `f` over `items` in parallel, preserving order. Each item is
/// mapped independently, so the output is identical at any thread
/// count — this is the fan-out primitive for the independent
/// configuration/replica sweeps behind the figure harness.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let _span = gopim_obs::span!("par.map", n);
    let pool = current();
    if pool.threads() <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    {
        let f = &f;
        // One task per item: sweep items are few and heavy, and a
        // FIFO keeps the long ones from serializing behind a block.
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
            .iter_mut()
            .zip(items)
            .map(|(slot, item)| {
                Box::new(move || *slot = Some(f(item))) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(tasks);
    }
    out.into_iter()
        // lint:allow(no-panic-in-lib): scope returns only after every task ran, so every slot is filled
        .map(|slot| slot.expect("scope ran every task"))
        .collect()
}

/// Deterministic parallel map-reduce: folds `items` in fixed
/// `chunk_len`-sized chunks (each chunk folded serially, in order,
/// from a clone of `identity`), then reduces the per-chunk
/// accumulators serially in chunk order.
///
/// The partitioning is fixed by `chunk_len` alone, so for any `fold`
/// / `reduce` pair the result is bit-identical at every thread count.
/// When `reduce` is associative with `fold` (e.g. integer sums, max,
/// set union), the result also equals the plain serial fold — the
/// property `gopim-par`'s test suite pins for arbitrary `chunk_len`.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn par_map_reduce<T, A>(
    items: &[T],
    chunk_len: usize,
    identity: A,
    fold: impl Fn(A, &T) -> A + Sync,
    reduce: impl Fn(A, A) -> A,
) -> A
where
    T: Sync,
    A: Send + Clone,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let items_len = items.len();
    // Shape-only args (see par_chunks_mut): `chunk_len` may be derived
    // from the pool width by callers.
    let _span = gopim_obs::span!("par.map_reduce", items_len);
    let pool = current();
    let accs: Vec<A> = if pool.threads() <= 1 || items.len() <= chunk_len {
        items
            .chunks(chunk_len)
            .map(|chunk| chunk.iter().fold(identity.clone(), &fold))
            .collect()
    } else {
        let n_chunks = items.len().div_ceil(chunk_len);
        let mut out: Vec<Option<A>> = (0..n_chunks).map(|_| None).collect();
        {
            let fold = &fold;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                .iter_mut()
                .zip(items.chunks(chunk_len))
                .map(|(slot, chunk)| {
                    // Each task folds from its own clone of the
                    // identity, made here so `A` need not be `Sync`.
                    let seed = identity.clone();
                    Box::new(move || *slot = Some(chunk.iter().fold(seed, fold)))
                        as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope(tasks);
        }
        out.into_iter()
            // lint:allow(no-panic-in-lib): scope returns only after every task ran, so every slot is filled
            .map(|slot| slot.expect("scope ran every task"))
            .collect()
    };
    // Ordered reduction: strictly left-to-right in chunk order.
    accs.into_iter().fold(identity, reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_join_returns_both() {
        let (a, b) = par_join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4] {
            let out = Pool::new(threads).install(|| par_map(&items, |&x| x * x));
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_chunks_mut_covers_every_element() {
        let mut data = vec![0u32; 103];
        Pool::new(4).install(|| {
            par_chunks_mut(&mut data, 10, |i, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = (i * 10 + j) as u32;
                }
            });
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn par_index_ranges_covers_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let hits: Vec<AtomicU32> = (0..57).map(|_| AtomicU32::new(0)).collect();
        Pool::new(3).install(|| {
            par_index_ranges(hits.len(), |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_reduce_matches_serial_sum() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: u64 = items.iter().sum();
        for chunk_len in [1, 3, 64, 1000, 5000] {
            for threads in [1, 4] {
                let got = Pool::new(threads).install(|| {
                    par_map_reduce(&items, chunk_len, 0u64, |acc, &x| acc + x, |a, b| a + b)
                });
                assert_eq!(got, serial, "chunk_len={chunk_len} threads={threads}");
            }
        }
    }

    #[test]
    fn nested_scopes_never_open_more_outer_items_than_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = Pool::new(2);
        let open = AtomicUsize::new(0);
        let most_open = AtomicUsize::new(0);
        let items: Vec<u64> = (0..16).collect();
        let sums = pool.install(|| {
            par_map(&items, |&i| {
                let now = open.fetch_add(1, Ordering::SeqCst) + 1;
                most_open.fetch_max(now, Ordering::SeqCst);
                let mut data = vec![0u64; 64];
                pool.install(|| {
                    par_chunks_mut(&mut data, 8, |c, chunk| {
                        for (j, x) in chunk.iter_mut().enumerate() {
                            *x = i * 64 + (c * 8 + j) as u64;
                        }
                    });
                });
                open.fetch_sub(1, Ordering::SeqCst);
                data.iter().sum::<u64>()
            })
        });
        let most_open = most_open.load(Ordering::SeqCst);
        assert!(
            most_open <= 2,
            "{most_open} outer items were open at once on a 2-thread pool"
        );
        let want: Vec<u64> = items.iter().map(|&i| 64 * 64 * i + 63 * 32).collect();
        assert_eq!(sums, want);
    }

    #[test]
    fn nested_chunks_run_on_the_outer_tasks_thread_in_index_order() {
        use std::sync::Mutex;
        use std::thread::{self, ThreadId};
        let outer_pool = Pool::new(3);
        // A different, wider pool: nesting follows the thread, not the
        // pool a scope targets.
        let inner_pool = Pool::new(4);
        let items: Vec<usize> = (0..8).collect();
        let runs: Vec<(ThreadId, Vec<(ThreadId, usize)>)> = outer_pool.install(|| {
            par_map(&items, |_| {
                let log = Mutex::new(Vec::new());
                let mut data = vec![0u8; 40];
                inner_pool.install(|| {
                    par_chunks_mut(&mut data, 5, |c, _| {
                        log.lock().unwrap().push((thread::current().id(), c));
                    });
                });
                (thread::current().id(), log.into_inner().unwrap())
            })
        });
        for (outer, log) in runs {
            let order: Vec<usize> = log.iter().map(|&(_, c)| c).collect();
            assert_eq!(order, (0..8).collect::<Vec<_>>(), "chunks ran out of order");
            assert!(
                log.iter().all(|&(t, _)| t == outer),
                "a nested chunk left its outer task's thread"
            );
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: [u64; 0] = [];
        assert_eq!(par_map(&empty, |&x| x), Vec::<u64>::new());
        assert_eq!(
            par_map_reduce(&empty, 8, 7u64, |acc, &x| acc + x, |a, b| a + b),
            7
        );
        par_index_ranges(0, |r| assert!(r.is_empty()));
    }
}
