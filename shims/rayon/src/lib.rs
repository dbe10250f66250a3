//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to the crates.io registry, so this
//! workspace ships a minimal `rayon` with the same package name and the API
//! subset the codebase uses (`par_iter`/`into_par_iter` → `map` →
//! `collect`); swapping back to the registry crate is a one-line change in
//! each manifest.
//!
//! Unlike real rayon's lazy, work-stealing iterators, this shim is *eager*:
//! `map` runs immediately on `std::thread::scope` workers, splitting the
//! input into one contiguous chunk per available core. Output order matches
//! input order, so `collect` is a plain reassembly. That is exactly the
//! semantics the workspace relies on (uniform-cost parallel maps over
//! experiment grids) and nothing more.

use std::sync::OnceLock;
use std::thread;

/// The traits users import; mirrors `rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
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

    #[test]
    fn empty_and_single() {
        let out: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        let one: Vec<u8> = vec![7u8].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }
}
