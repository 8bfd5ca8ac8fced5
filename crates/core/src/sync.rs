//! Switchable concurrency primitives for the bank's hot paths, plus the
//! debug-build lock-order witness.
//!
//! `db.rs` (group-commit queue, journal, idempotency table) and
//! `server.rs` (per-key in-flight guard, worker pool) import their
//! locks, condvars, and atomics from here instead of naming
//! `parking_lot`/`std::sync::atomic` directly. A normal build re-exports
//! those unchanged — zero cost. Building with `RUSTFLAGS="--cfg loom"`
//! swaps in the vendored `loom` substitute, whose wrappers inject
//! seeded randomized yields at every acquisition/atomic op so the
//! `loom_model` tests (see `scripts/check.sh` stage `LOOM=1` and
//! docs/STATIC_ANALYSIS.md) can shake out interleaving bugs.
//!
//! # The lock-order witness
//!
//! [`OrderedMutex`] and [`OrderedRwLock`] carry the rank their class
//! holds in the declared acquisition order (the L6 table in
//! docs/STATIC_ANALYSIS.md). In debug builds every acquisition pushes
//! its rank onto a thread-local stack and panics if it is not strictly
//! greater than the current top — the dynamic complement to the lexical
//! `gridbank-lint` L6 pass, catching inversions that only materialize
//! through call chains the lint cannot see. Each rank has one lock, so
//! a second lock of a held rank is an inversion like any other.
//! In release builds the bookkeeping compiles out entirely and the
//! wrappers are plain newtypes around the underlying locks. Locks
//! coupled to a `Condvar` (the commit queue, the in-flight key table)
//! stay unwrapped: `Condvar::wait` releases and reacquires its mutex
//! while parked, which a strict held-stack cannot model.

#[cfg(not(loom))]
pub(crate) use parking_lot::{Condvar, Mutex, RwLock};
#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
#[cfg(loom)]
pub(crate) use loom::sync::{Condvar, Mutex, RwLock};

/// Acquisition ranks mirroring the declared lock-order table in
/// docs/STATIC_ANALYSIS.md §L6. Keep the two in sync: the lint checks
/// the table lexically, these constants enforce it at runtime.
pub(crate) mod rank {
    /// `Database.accounts`.
    pub const ACCOUNTS: u16 = 80;
    /// `JournalStore.appended`.
    pub const JOURNAL: u16 = 110;
    /// `Database.history`.
    pub const HISTORY: u16 = 120;
    /// `Database.idem`.
    pub const IDEM_CACHE: u16 = 140;
    /// `Database.ib_pending`.
    pub const IB_PENDING: u16 = 150;
}

/// Debug-only held-lock bookkeeping. Everything in here is behind
/// `debug_assertions`; release builds never touch the thread-local.
#[cfg(debug_assertions)]
mod witness {
    use std::cell::RefCell;

    thread_local! {
        /// Stack of `(rank, name)` for locks this thread holds, in
        /// acquisition order.
        static HELD: RefCell<Vec<(u16, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII token: popping happens on drop, so early returns and panics
    /// inside the guard scope unwind the stack correctly.
    pub(super) struct Token {
        rank: u16,
    }

    /// Records an acquisition, panicking on inversion. Read-side
    /// re-acquisition of a held rank is also rejected: `parking_lot`
    /// locks are not reentrant and an interleaved writer deadlocks the
    /// pair.
    pub(super) fn acquire(rank: u16, name: &'static str) -> Token {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top_rank, top_name)) = held.last() {
                if rank <= top_rank {
                    // lint:allow(no-panic) the witness exists to panic: a debug-build
                    // tripwire for lock-order bugs, compiled out of release binaries.
                    panic!(
                        "lock-order inversion: acquiring {name} (rank {rank}) while holding \
                         {top_name} (rank {top_rank}) — see docs/STATIC_ANALYSIS.md §L6"
                    );
                }
            }
            held.push((rank, name));
        });
        Token { rank }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                // Guards can drop out of acquisition order (drop(a) before
                // drop(b)); remove the matching entry, not blindly the top.
                if let Some(pos) = held.iter().rposition(|&(r, _)| r == self.rank) {
                    held.remove(pos);
                }
            });
        }
    }
}

/// A mutex with a declared position in the global lock order.
pub(crate) struct OrderedMutex<T> {
    inner: Mutex<T>,
    #[cfg(debug_assertions)]
    meta: (u16, &'static str),
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` at `rank` in the declared order.
    pub(crate) fn new(rank: u16, name: &'static str, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = (rank, name);
        OrderedMutex {
            inner: Mutex::new(value),
            #[cfg(debug_assertions)]
            meta: (rank, name),
        }
    }

    pub(crate) fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = witness::acquire(self.meta.0, self.meta.1);
        OrderedMutexGuard {
            inner: self.inner.lock(),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }
}

/// Guard for [`OrderedMutex`]; releases the witness entry on drop.
pub(crate) struct OrderedMutexGuard<'a, T> {
    inner: parking_lot::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: witness::Token,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// An rwlock with a declared position in the global lock order. Both
/// read and write acquisitions are witnessed: a read-while-held-read of
/// the same lock can still deadlock against a queued writer.
pub(crate) struct OrderedRwLock<T> {
    inner: RwLock<T>,
    #[cfg(debug_assertions)]
    meta: (u16, &'static str),
}

impl<T> OrderedRwLock<T> {
    /// See [`OrderedMutex::new`].
    pub(crate) fn new(rank: u16, name: &'static str, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = (rank, name);
        OrderedRwLock {
            inner: RwLock::new(value),
            #[cfg(debug_assertions)]
            meta: (rank, name),
        }
    }

    pub(crate) fn read(&self) -> OrderedReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = witness::acquire(self.meta.0, self.meta.1);
        OrderedReadGuard {
            inner: self.inner.read(),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    pub(crate) fn write(&self) -> OrderedWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = witness::acquire(self.meta.0, self.meta.1);
        OrderedWriteGuard {
            inner: self.inner.write(),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }
}

/// Shared guard for [`OrderedRwLock`].
pub(crate) struct OrderedReadGuard<'a, T> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: witness::Token,
}

impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard for [`OrderedRwLock`].
pub(crate) struct OrderedWriteGuard<'a, T> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: witness::Token,
}

impl<T> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(all(test, debug_assertions, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_passes_and_unwinds() {
        let a = OrderedMutex::new(10, "a", 1u32);
        let b = OrderedMutex::new(20, "b", 2u32);
        {
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
        }
        // The stack unwound: rank 10 is acquirable again.
        let _ga = a.lock();
    }

    #[test]
    fn out_of_order_drop_keeps_the_stack_consistent() {
        let a = OrderedMutex::new(10, "a", ());
        let b = OrderedMutex::new(20, "b", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // dropping the *lower* rank first must not corrupt the stack
        drop(gb);
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    #[should_panic(expected = "lock-order inversion")]
    fn seeded_inversion_panics() {
        let accounts = OrderedRwLock::new(80, "accounts", ());
        let journal = OrderedMutex::new(110, "journal", ());
        let _gj = journal.lock();
        let _ga = accounts.write(); // 80 after 110: the classic inversion
    }

    #[test]
    #[should_panic(expected = "lock-order inversion")]
    fn a_second_lock_of_a_held_rank_panics() {
        let first = OrderedRwLock::new(80, "accounts", ());
        let second = OrderedRwLock::new(80, "accounts", ());
        let _g1 = first.read();
        let _g2 = second.read(); // one lock per rank: a second is an inversion
    }
}
