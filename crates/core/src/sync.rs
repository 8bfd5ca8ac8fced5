//! Switchable concurrency primitives for the bank's hot paths, plus the
//! debug-build lock-order witness.
//!
//! `db.rs`, `server.rs` and `federation.rs` import their locks,
//! condvars, and atomics from here instead of naming
//! `parking_lot`/`std::sync::atomic` directly. A normal build re-exports
//! those unchanged — zero cost. Building with `RUSTFLAGS="--cfg loom"`
//! swaps in the vendored `loom` substitute, whose wrappers inject
//! seeded randomized yields at every acquisition/atomic op so the
//! `loom_model` tests (see `scripts/check.sh` stage `LOOM=1` and
//! docs/STATIC_ANALYSIS.md) can shake out interleaving bugs.
//!
//! # The lock-order witness
//!
//! [`rank`] is the one declaration of the order in which the bank's
//! locks may be taken, and [`OrderedMutex`] / [`OrderedRwLock`] are its
//! one check. Each wrapper carries its rank; in debug builds every
//! acquisition pushes that rank onto a thread-local stack and panics if
//! it is not strictly greater than the current top. The check follows
//! the thread, not the source text, so it sees inversions that cross a
//! function call, a file, or — through an in-process federation link —
//! a second bank. Each rank has one lock, so a second lock of a held
//! rank is an inversion like any other. In release builds the
//! bookkeeping compiles out entirely and the wrappers are plain
//! newtypes around the underlying locks.
//!
//! [`may_block`] puts the same held-lock stack to a second use: which
//! ranks may be held across blocking I/O ([`rank`] says).
//!
//! One lock stays plain because it is coupled to a `Condvar`: the
//! server's `in_flight_keys`. `Condvar::wait` releases and reacquires
//! its mutex while parked, which a strict held-stack cannot model.

#[cfg(not(loom))]
pub(crate) use parking_lot::{Condvar, Mutex, RwLock};
#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
#[cfg(loom)]
pub(crate) use loom::sync::{Condvar, Mutex, RwLock};

/// The global lock order: a thread holding a lock of rank *r* may only
/// acquire ranks above *r*. One constant per lock; the debug witness
/// enforces it at every acquisition.
///
/// With a direct link (`federation::direct_mesh`) a call into a peer
/// runs the peer bank's whole dispatch on the caller's thread, under
/// the caller's settlement round and peer client. So those two rank
/// lowest, a bank's own tables follow, and the leaf tables — nothing is
/// acquired while one is held — rank above everything a holder may
/// have. A peer never calls back out while serving a federation
/// request, so no thread holds two peer clients.
///
/// Ranks up to and including [`JOURNAL`] may be held across blocking
/// I/O: the journal lock exists to serialize the log's append and fsync,
/// and the locks below it are held for whole commits or settlement
/// rounds. The tables and leaves above it never are — [`may_block`]
/// checks this at each of the store's file-system entry points.
///
/// [`may_block`]: super::may_block
pub(crate) mod rank {
    /// `FederationRouter.settle_lock`: held for a whole settlement round.
    pub const SETTLE_ROUND: u16 = 10;
    /// One `FederationRouter` peer client: held for one call to the peer.
    pub const PEER_CLIENT: u16 = 30;
    /// `FederationRouter.clearing`: held while a clearing account is found
    /// or created.
    pub const CLEARING: u16 = 40;
    /// `Database.accounts`.
    pub const ACCOUNTS: u16 = 80;
    /// `JournalStore.appended`: taken inside the accounts lock by each
    /// commit's append (docs/STORAGE.md §3.2).
    pub const JOURNAL: u16 = 110;
    /// `Database.history`.
    pub const HISTORY: u16 = 120;
    /// `Database.idem`.
    pub const IDEM_CACHE: u16 = 140;
    /// `Database.ib_pending`.
    pub const IB_PENDING: u16 = 150;
    /// `FederationRouter.peers` (leaf).
    pub const PEERS: u16 = 200;
    /// `FederationRouter.peer_identities` (leaf).
    pub const PEER_IDENTITIES: u16 = 210;
    /// `GridBank.federation` (leaf).
    pub const FEDERATION: u16 = 220;
    /// `GridBank.ops_admins` (leaf).
    pub const OPS_ADMINS: u16 = 230;
    /// `GridBank.descriptions` (leaf).
    pub const DESCRIPTIONS: u16 = 250;
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
    #[allow(clippy::panic, reason = "the witness is a debug-build tripwire; it exists to panic")]
    pub(super) fn acquire(rank: u16, name: &'static str) -> Token {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top_rank, top_name)) = held.last() {
                if rank <= top_rank {
                    panic!(
                        "lock-order inversion: acquiring {name} (rank {rank}) while holding \
                         {top_name} (rank {top_rank}) — see sync::rank"
                    );
                }
            }
            held.push((rank, name));
        });
        Token { rank }
    }

    /// Panics if the thread holds a rank above `rank::JOURNAL`.
    #[allow(clippy::panic, reason = "the witness is a debug-build tripwire; it exists to panic")]
    pub(super) fn may_block(what: &str) {
        HELD.with(|held| {
            if let Some(&(rank, name)) =
                held.borrow().iter().find(|&&(rank, _)| rank > super::rank::JOURNAL)
            {
                panic!(
                    "blocking under a lock: {what} while holding {name} (rank {rank}) — \
                     only ranks up to JOURNAL may be held across I/O, see sync::rank"
                );
            }
        });
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

/// Marks a call that may block the thread on I/O. In debug builds it
/// panics if the thread holds any rank above [`rank::JOURNAL`]; in
/// release builds it does nothing.
#[inline]
pub(crate) fn may_block(what: &str) {
    #[cfg(debug_assertions)]
    witness::may_block(what);
    #[cfg(not(debug_assertions))]
    let _ = what;
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
        let accounts = OrderedRwLock::new(rank::ACCOUNTS, "accounts", ());
        let journal = OrderedMutex::new(rank::JOURNAL, "journal", ());
        let _gj = journal.lock();
        let _ga = accounts.write(); // accounts after journal: the classic inversion
    }

    #[test]
    fn blocking_is_allowed_up_to_the_journal_rank() {
        let accounts = OrderedRwLock::new(rank::ACCOUNTS, "accounts", ());
        let journal = OrderedMutex::new(rank::JOURNAL, "journal", ());
        may_block("nothing held");
        let _ga = accounts.write();
        let _gj = journal.lock();
        may_block("log append under the journal lock");
    }

    #[test]
    #[should_panic(expected = "blocking under a lock: fsync while holding history")]
    fn blocking_under_a_table_lock_panics() {
        let history = OrderedRwLock::new(rank::HISTORY, "history", ());
        let _gh = history.write();
        may_block("fsync");
    }

    #[test]
    #[should_panic(expected = "lock-order inversion")]
    fn a_second_lock_of_a_held_rank_panics() {
        let first = OrderedRwLock::new(rank::ACCOUNTS, "accounts", ());
        let second = OrderedRwLock::new(rank::ACCOUNTS, "accounts", ());
        let _g1 = first.read();
        let _g2 = second.read(); // one lock per rank: a second is an inversion
    }
}
