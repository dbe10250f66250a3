//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to the crates.io registry, so this
//! workspace ships a minimal `rayon` with the same package name and the API
//! subset the codebase uses: `par_iter`/`into_par_iter` → `map` →
//! `collect`, and `par_chunks_mut` → (`enumerate` →) `for_each`. Swapping
//! back to the registry crate is a one-line change in each manifest.
//!
//! Unlike real rayon's lazy, work-stealing iterators, this shim is *eager*
//! and has no pool: every parallel call starts its own `std::thread::scope`
//! workers, at most one per available core, and joins them before it
//! returns.
//!
//! - `map` splits its items into one contiguous run per worker. Output
//!   order matches input order, so `collect` is a plain reassembly.
//! - `par_chunks_mut` splits the slice into `chunk_size`-element chunks
//!   (the last one shorter when `chunk_size` does not divide the length);
//!   the calling thread and its workers take them one at a time from a
//!   shared queue. A single chunk runs on the calling thread with no
//!   spawn.
//!
//! That is exactly the semantics the workspace relies on (uniform-cost
//! parallel maps over experiment grids, and in-place passes over tensors)
//! and nothing more. Because every call spawns threads, a caller should
//! merge adjacent passes into one call and keep small inputs in one chunk.

use std::sync::{Mutex, OnceLock};
use std::thread;

/// The traits users import; mirrors `rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter, ParallelSliceMut};
}

/// An eagerly-evaluated stand-in for rayon's parallel iterators: it owns its
/// items and applies each `map` in parallel at the call site.
#[derive(Debug)]
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Applies `f` to every item in parallel, preserving order.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: par_map(self.items, &f),
        }
    }

    /// Reassembles the (already computed) items into any collection.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Number of items in the iterator.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the iterator carries no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Conversion into a parallel iterator by value (`rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// Converts `self` into a parallel iterator over owned items.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<T: Send, const N: usize> IntoParallelIterator for [T; N] {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter {
            items: self.into_iter().collect(),
        }
    }
}

/// Conversion into a parallel iterator over references
/// (`rayon::iter::IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed element type.
    type Item: Send + 'a;
    /// Returns a parallel iterator over `&self`'s items.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Parallel iteration over mutable chunks of a slice
/// (`rayon::slice::ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// A parallel iterator over `chunk_size`-element chunks of `self`, in
    /// order; the last chunk is shorter when `chunk_size` does not divide
    /// the length.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is 0.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// The chunks of [`ParallelSliceMut::par_chunks_mut`]
/// (`rayon::slice::ChunksMut`).
#[derive(Debug)]
pub struct ChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ChunksMut<'a, T> {
    /// Pairs every chunk with its index.
    pub fn enumerate(self) -> Enumerate<'a, T> {
        Enumerate { chunks: self }
    }

    /// Calls `f` on every chunk, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a mut [T]) + Sync + Send,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Chunks paired with their indices (`rayon::iter::Enumerate` over
/// [`ChunksMut`]).
#[derive(Debug)]
pub struct Enumerate<'a, T> {
    chunks: ChunksMut<'a, T>,
}

impl<'a, T: Send> Enumerate<'a, T> {
    /// Calls `f` on every `(index, chunk)` pair, in parallel: the calling
    /// thread and its workers take the chunks one at a time, in order,
    /// from a shared queue, so a worker that is descheduled holds up at
    /// most the chunk it is on.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &'a mut [T])) + Sync + Send,
    {
        let ChunksMut { slice, chunk_size } = self.chunks;
        let chunks = slice.len().div_ceil(chunk_size);
        let threads = max_threads().min(chunks);
        if threads <= 1 {
            slice.chunks_mut(chunk_size).enumerate().for_each(f);
            return;
        }
        let queue = Mutex::new(slice.chunks_mut(chunk_size).enumerate());
        let work = || loop {
            let next = queue
                .lock()
                .expect("the queue is never locked across a panic")
                .next();
            match next {
                Some(item) => f(item),
                None => break,
            }
        };
        thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(work);
            }
            work();
        });
    }
}

/// Worker threads a parallel map may use: `available_parallelism`, read
/// once per process (it parses cgroup limits on every call), the way real
/// rayon fixes its pool size when the pool starts.
fn max_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |c| c.get()))
}

/// Order-preserving parallel map: contiguous chunks, one scoped thread per
/// chunk, at most [`max_threads`] threads.
fn par_map<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: &F) -> Vec<R> {
    let n = items.len();
    let threads = max_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_size = n.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<T> = it.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let mapped: Vec<Vec<R>> = thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| s.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel map worker panicked"))
            .collect()
    });
    mapped.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<i64> = (0..1000)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|x| x * 2)
            .collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_borrows() {
        let data = vec![1u64, 2, 3, 4, 5];
        let out: Vec<u64> = data.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4, 5, 6]);
        assert_eq!(data.len(), 5);
    }

    /// Every element's chunk index and offset, as `for_each` saw them.
    fn chunk_layout(len: usize, chunk_size: usize) -> Vec<(usize, usize)> {
        let mut seen = vec![(usize::MAX, usize::MAX); len];
        seen.par_chunks_mut(chunk_size)
            .enumerate()
            .for_each(|(i, chunk)| {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = (i, j);
                }
            });
        seen
    }

    #[test]
    fn chunks_come_in_order_with_an_uneven_tail() {
        // 10 elements in chunks of 3: three full chunks and a tail of one,
        // spread over more than one worker wherever there are two cores.
        let want: Vec<(usize, usize)> = (0..10).map(|e| (e / 3, e % 3)).collect();
        assert_eq!(chunk_layout(10, 3), want);
        let mut data: Vec<u32> = (0..1000).collect();
        data.par_chunks_mut(7)
            .for_each(|c| c.iter_mut().for_each(|x| *x *= 2));
        assert_eq!(data, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_of_an_empty_slice_never_run() {
        let mut empty: Vec<u8> = Vec::new();
        empty
            .par_chunks_mut(4)
            .for_each(|_| panic!("an empty slice has no chunks"));
    }

    #[test]
    fn fewer_chunks_than_threads() {
        // One chunk runs on the calling thread; two chunks still cover
        // every element once.
        assert_eq!(
            chunk_layout(5, 8),
            vec![(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]
        );
        assert_eq!(chunk_layout(3, 2), vec![(0, 0), (0, 1), (1, 0)]);
        let caller = std::thread::current().id();
        let mut one = [0u8; 4];
        one.par_chunks_mut(4)
            .for_each(|_| assert_eq!(std::thread::current().id(), caller));
    }

    #[test]
    #[should_panic(expected = "chunk_size must not be zero")]
    fn zero_chunk_size_panics() {
        let mut data = [0u8; 4];
        data.par_chunks_mut(0).for_each(|_| {});
    }

    #[test]
    fn empty_and_single() {
        let out: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        let one: Vec<u8> = vec![7u8].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }
}
