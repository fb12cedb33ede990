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
//! request misses the free list — is asserted to stay flat by
//! `tests/arena_steady_state.rs`.
//!
//! Buffers are handed out as [`PackBuf<T>`], which derefs to `[T]` and
//! returns its storage to the arena on drop. Storage is `u64`-backed, so
//! any `Float` (f32/f64) is align- and bit-pattern-compatible; contents are
//! *stale* on reuse, which is fine for the packing layer (it overwrites
//! every lane, padding included). Lending a buffer twice or releasing it
//! twice cannot be expressed: its `Vec` is moved out of the free list into
//! the `PackBuf`, and `Drop` runs once.
//!
//! Every buffer's first element sits on a 64-byte line, so a 512-bit load
//! of a packed panel never spans two cache lines. The `Vec` is allocated
//! `PAD` (8) words longer than its class and the buffer starts at the first
//! 64-byte boundary inside it. The `Vec` keeps `u64`'s 8-byte alignment and
//! is allocated zeroed (`vec![0u64; n]`, i.e. `calloc`), so a large buffer's
//! untouched pages stay unmapped until the packers write them; an
//! over-aligned allocation would be zeroed by writing every page.

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

/// Words allocated beyond a buffer's class: the most an 8-byte-aligned
/// base can lie below the next 64-byte boundary is 7 words.
const PAD: usize = 8;

/// Bytes per cache line, the alignment of every buffer's first element.
const LINE: usize = 64;

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

/// Words from `words`' base to its first 64-byte boundary (0..PAD), from
/// the address itself rather than `align_offset`, which may give up.
fn line_offset(words: &[u64]) -> usize {
    let misalign = words.as_ptr().addr() % LINE;
    (LINE - misalign) % LINE / std::mem::size_of::<u64>()
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
            vec![0u64; cap.max(words) + PAD]
        }
    };
    let off = line_offset(&words_vec);
    debug_assert!((words_vec.len() - off) * 8 >= len * T::BYTES);
    PackBuf {
        words: words_vec,
        off,
        len,
        _marker: PhantomData,
    }
}

/// A borrowed-from-the-arena buffer of `len` elements of `T`; storage goes
/// back to the owning thread's free list on drop.
///
/// Dropping on a *different* thread than the one that took it is allowed
/// (the storage just migrates to that thread's free list), which is exactly
/// what long-lived pool workers want.
pub struct PackBuf<T: Float> {
    /// Class capacity plus [`PAD`] words.
    words: Vec<u64>,
    /// Words from `words`' base to the live elements (a 64-byte boundary).
    off: usize,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Float> PackBuf<T> {
    /// The live elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `take` allocated `words` as a class capacity that holds
        // `len` elements plus `PAD` words, and `off < PAD` (`line_offset`),
        // so `off` words plus `len * T::BYTES` bytes stay inside the `Vec`'s
        // initialised storage (asserted in `take`); the base is 64-byte
        // aligned, which satisfies f32/f64, and every bit pattern is a valid
        // f32/f64.
        unsafe {
            std::slice::from_raw_parts(self.words.as_ptr().add(self.off) as *const T, self.len)
        }
    }

    /// The live elements, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        let base = self.as_mut_ptr();
        // SAFETY: as for `as_slice`, plus `&mut self` gives exclusivity.
        unsafe { std::slice::from_raw_parts_mut(base, self.len) }
    }

    /// Base pointer to the live elements, on a 64-byte line (for sharing
    /// across a team via [`SendPtr`](crate::pool::SendPtr); the caller keeps
    /// the `PackBuf` alive for the duration).
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        // SAFETY: `off < PAD <= words.len()`, so the offset pointer stays
        // inside the `Vec`'s allocation.
        unsafe { self.words.as_mut_ptr().add(self.off) as *mut T }
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
        // The class of the unpadded capacity, the one `take` looks up.
        let class = class_of(words.len() - PAD);
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
    fn every_base_is_on_a_line_and_keeps_its_class() {
        // Word counts on both sides of glibc's 128 KiB mmap threshold
        // (16 384 words). This test's thread starts with empty free lists,
        // so a class's first take is a fresh allocation; every later one,
        // and the second take of each size, reuses storage.
        let words = [1usize, 7, 777, 12_345, 16_383, 16_385, 300_001];
        fn check<T: Float>(len: usize) {
            let fresh = take::<T>(len);
            let storage = fresh.as_ptr();
            assert_eq!(storage.addr() % LINE, 0, "fresh base, len {len}");
            drop(fresh);
            let reused = take::<T>(len);
            assert_eq!(reused.as_ptr(), storage, "same class, len {len}");
            assert_eq!(reused.as_ptr().addr() % LINE, 0, "reused base, len {len}");
        }
        for w in words {
            check::<f64>(w);
            check::<f32>(2 * w);
        }
    }

    #[test]
    fn class_of_is_monotone() {
        assert!(class_of(1) <= class_of(2));
        assert!(class_of(100) <= class_of(1000));
        assert!(class_of(usize::MAX / 2) < CLASSES);
    }
}
