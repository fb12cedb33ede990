//! Thread-local, size-classed buffer arena for packing scratch.
//!
//! Every blocked product needs packing buffers (an `mc x kc` A block, a
//! `kc x nc` B block, and the triangular routines' diagonal-tile scratch).
//! Allocating them per call puts `malloc`/`free` — and, worse, page faults
//! on first touch — inside the hot path of every BLAS call, which both
//! costs time and adds allocator noise to exactly the timings the ADSALA
//! model is trained on. This module keeps returned buffers on a per-thread
//! free list, bucketed by power-of-two size class, so steady-state traffic
//! (a service replaying the same shapes) performs **zero** packing
//! allocations: the [`allocation_count`] counter — incremented only when a
//! request misses the free list — is asserted to stay flat by the parallel
//! parity suite.
//!
//! Buffers are handed out as [`PackBuf<T>`], which derefs to `[T]` and
//! returns its storage to the arena on drop. Storage is `u64`-backed, so
//! any `Float` (f32/f64) is align- and bit-pattern-compatible; contents are
//! *stale* on reuse, which is fine for the packing layer (it overwrites
//! every lane, padding included) — callers that need zeroed scratch use
//! [`take_zeroed`]. Lending a buffer twice or releasing it twice cannot be
//! expressed: its `Vec` is moved out of the free list into the `PackBuf`,
//! and `Drop` runs once.

use crate::Float;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Size classes are powers of two of `u64` words; anything above 2^33 words
/// (64 GiB) falls through to a plain allocation.
const CLASSES: usize = 34;

/// Free buffers kept per (thread, class); beyond this, dropped buffers are
/// released to the allocator so one burst cannot pin memory forever.
const MAX_FREE_PER_CLASS: usize = 8;

/// Fresh allocations performed because no free-listed buffer fit
/// (process-wide, all threads). The parallel parity suite's steady-state
/// test hook: warm the arena, reset, replay, assert this stays 0.
static MISSES: AtomicUsize = AtomicUsize::new(0);

/// Buffers served from the free list (process-wide); together with
/// [`allocation_count`] this gives a hit rate for diagnostics.
static HITS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static FREE: RefCell<[Vec<Vec<u64>>; CLASSES]> =
        RefCell::new(std::array::from_fn(|_| Vec::new()));
}

/// Number of arena misses (fresh heap allocations) since the last
/// [`reset_stats`]. Process-wide across all pool workers.
pub fn allocation_count() -> usize {
    MISSES.load(Ordering::Relaxed)
}

/// Number of free-list hits since the last [`reset_stats`].
pub fn hit_count() -> usize {
    HITS.load(Ordering::Relaxed)
}

/// Reset both counters (test hook; safe to call any time).
pub fn reset_stats() {
    MISSES.store(0, Ordering::Relaxed);
    HITS.store(0, Ordering::Relaxed);
}

fn class_of(words: usize) -> usize {
    (words.max(1).next_power_of_two().trailing_zeros() as usize).min(CLASSES - 1)
}

/// Take a buffer of `len` elements of `T` from this thread's arena
/// (allocating only on a free-list miss). Contents are unspecified; the
/// packing layer overwrites every lane it will read.
pub fn take<T: Float>(len: usize) -> PackBuf<T> {
    // Elements per u64 word: 2 for f32, 1 for f64.
    let words = len.div_ceil(8 / T::BYTES).max(1);
    let class = class_of(words);
    let cap = 1usize << class.min(CLASSES - 2);
    let reused = FREE.with(|free| free.borrow_mut()[class].pop());
    let words_vec = match reused {
        Some(v) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            v
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            vec![0u64; cap.max(words)]
        }
    };
    debug_assert!(words_vec.len() * 8 >= len * T::BYTES);
    PackBuf {
        words: words_vec,
        len,
        _marker: PhantomData,
    }
}

/// [`take`], then zero the live `len` elements (for accumulate-into
/// scratch such as the triangular routines' diagonal tiles).
pub fn take_zeroed<T: Float>(len: usize) -> PackBuf<T> {
    let mut buf = take::<T>(len);
    buf.as_mut_slice().fill(T::ZERO);
    buf
}

/// A borrowed-from-the-arena buffer of `len` elements of `T`; storage goes
/// back to the owning thread's free list on drop.
///
/// Dropping on a *different* thread than the one that took it is allowed
/// (the storage just migrates to that thread's free list), which is exactly
/// what long-lived pool workers want.
pub struct PackBuf<T: Float> {
    words: Vec<u64>,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Float> PackBuf<T> {
    /// The live elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `words` owns at least `len * T::BYTES` initialised bytes
        // (asserted in `take`), u64 storage satisfies f32/f64 alignment,
        // and every bit pattern is a valid f32/f64.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const T, self.len) }
    }

    /// The live elements, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as for `as_slice`, plus `&mut self` gives exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut T, self.len) }
    }

    /// Base pointer to the live elements (for sharing across a team via
    /// [`SendPtr`](crate::pool::SendPtr); the caller keeps the `PackBuf`
    /// alive for the duration).
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.words.as_mut_ptr() as *mut T
    }

    /// Number of live elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: Float> std::ops::Deref for PackBuf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Float> std::ops::DerefMut for PackBuf<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Float> Drop for PackBuf<T> {
    fn drop(&mut self) {
        let words = std::mem::take(&mut self.words);
        if words.is_empty() {
            return;
        }
        let class = class_of(words.len());
        // If the thread is unwinding its TLS (process exit), just let the
        // Vec drop normally.
        let _ = FREE.try_with(|free| {
            let mut free = free.borrow_mut();
            if free[class].len() < MAX_FREE_PER_CLASS {
                free[class].push(words);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_hits_free_list() {
        // Use an odd size no other test's class collides with to keep the
        // assertion robust under concurrent tests on this thread.
        let len = 12_345usize;
        {
            let _warm = take::<f64>(len);
        }
        let before = allocation_count();
        for _ in 0..10 {
            let b = take::<f64>(len);
            assert_eq!(b.len(), len);
        }
        assert_eq!(
            allocation_count(),
            before,
            "steady-state takes must not allocate"
        );
    }

    #[test]
    fn take_zeroed_is_zero_even_after_reuse() {
        let len = 777usize;
        {
            let mut b = take::<f32>(len);
            b.as_mut_slice().fill(3.5);
        }
        let b = take_zeroed::<f32>(len);
        assert!(b.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn distinct_types_share_word_storage_safely() {
        let a = take::<f32>(100);
        assert!(a.len() == 100);
        drop(a);
        let b = take::<f64>(50); // same word count => same class
        assert_eq!(b.len(), 50);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn a_buffer_dropped_on_another_thread_is_reused_there() {
        // Storage pointers, not `allocation_count`: other tests bump that
        // process-wide counter concurrently.
        let len = 4_321usize;
        let buf = take::<f64>(len);
        let storage = buf.as_ptr() as usize;
        let reused = std::thread::spawn(move || {
            drop(buf);
            take::<f64>(len).as_ptr() as usize
        })
        .join()
        .unwrap();
        assert_eq!(reused, storage, "the dropping thread's next take");
    }

    #[test]
    fn class_of_is_monotone() {
        assert!(class_of(1) <= class_of(2));
        assert!(class_of(100) <= class_of(1000));
        assert!(class_of(usize::MAX / 2) < CLASSES);
    }
}
