//! The GB database module.
//!
//! §3.2: "GB database module is a relational database that stores account
//! and transaction information." The paper used MySQL; this is the
//! embedded substitute (DESIGN.md §2): typed tables with the §5.1 schemas,
//! a certificate-name secondary index, an `(account, date)` index that
//! answers a statement in time proportional to its rows, and a
//! write-ahead journal for crash-consistency. The ACCOUNT table and its
//! index sit behind one lock, as the paper's one database with atomic
//! transfers does (DESIGN.md §2 records the measurement that retired the
//! sixteen shards); the TRANSACTION and TRANSFER tables and their index
//! sit behind a second, taken inside the first.
//!
//! Monetary fields are exact [`Credits`] rather than the paper's SQL
//! `FLOAT` (see DESIGN.md §4).
//!
//! Journal appends from commit batches go through a **group-commit
//! queue** ([`GroupCommitConfig`]): concurrent committers enqueue their
//! entry batches and one of them, the elected leader, flushes every
//! pending batch with a single journal acquisition. Each batch stays
//! contiguous and per-account order is preserved (committers hold the
//! accounts lock across submission), so crash-replay semantics are
//! unchanged. Since every committer holds that one lock, at most one is
//! ever inside the queue: it forms no groups and stays only because the
//! benchmark names its configuration (ROADMAP item 8).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::sync::{
    rank, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Condvar, Mutex, OrderedMutex,
    OrderedRwLock, Ordering,
};

use gridbank_rur::Credits;

use crate::error::BankError;

/// ACCOUNT RECORD key (§5.1): "imitates real world account numbers: bank
/// number-branch number-account number. E.g. 01-0001-00000001".
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AccountId {
    /// Bank number (multiple payment systems, §6).
    pub bank: u16,
    /// Branch number (one branch per Virtual Organization, §6).
    pub branch: u16,
    /// Account number within the branch.
    pub number: u32,
}

impl AccountId {
    /// Builds an id.
    pub const fn new(bank: u16, branch: u16, number: u32) -> Self {
        AccountId { bank, branch, number }
    }

    /// Parses the `bb-bbbb-nnnnnnnn` form.
    pub fn parse(s: &str) -> Option<AccountId> {
        let mut parts = s.split('-');
        let bank = parts.next()?.parse().ok()?;
        let branch = parts.next()?.parse().ok()?;
        let number = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(AccountId { bank, branch, number })
    }
}

impl std::fmt::Display for AccountId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:02}-{:04}-{:08}", self.bank, self.branch, self.number)
    }
}

impl std::fmt::Debug for AccountId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

/// ACCOUNT RECORD (§5.1).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccountRecord {
    /// Account id.
    pub id: AccountId,
    /// X509v3 certificate name — the globally unique client identifier.
    pub certificate_name: String,
    /// Optional organization name.
    pub organization: Option<String>,
    /// Spendable balance.
    pub available: Credits,
    /// Funds locked "to guarantee payment for jobs that already have
    /// started".
    pub locked: Credits,
    /// Currency label (e.g. "GridDollar").
    pub currency: String,
    /// Credit limit (default 0): how far `available` may go negative.
    pub credit_limit: Credits,
}

impl AccountRecord {
    /// Spendable headroom: available + credit limit.
    pub fn spendable(&self) -> Credits {
        self.available.saturating_add(self.credit_limit)
    }
}

/// TRANSACTION RECORD type tag (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransactionType {
    /// Funds entered the bank from outside.
    Deposit,
    /// Funds left the bank.
    Withdrawal,
    /// Internal transfer (paired with a TRANSFER RECORD).
    Transfer,
}

impl TransactionType {
    /// Stable tag for codecs.
    pub fn tag(self) -> u8 {
        match self {
            TransactionType::Deposit => 0,
            TransactionType::Withdrawal => 1,
            TransactionType::Transfer => 2,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(TransactionType::Deposit),
            1 => Some(TransactionType::Withdrawal),
            2 => Some(TransactionType::Transfer),
            _ => None,
        }
    }
}

/// TRANSACTION RECORD (§5.1).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransactionRecord {
    /// Unique transaction identifier.
    pub transaction_id: u64,
    /// The account the entry is posted against.
    pub account: AccountId,
    /// Deposit / Withdrawal / Transfer.
    pub tx_type: TransactionType,
    /// Commit time, virtual epoch ms.
    pub date_ms: u64,
    /// Signed amount: negative when funds leave the account.
    pub amount: Credits,
}

/// TRANSFER RECORD (§5.1); `rur_blob` is the binary-encoded Resource
/// Usage Record ("GridBank stores RUR in binary format").
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferRecord {
    /// Same id as the paired transaction records.
    pub transaction_id: u64,
    /// Commit time.
    pub date_ms: u64,
    /// GSC (payer) account.
    pub drawer: AccountId,
    /// Transfer amount, always positive.
    pub amount: Credits,
    /// GSP (payee) account.
    pub recipient: AccountId,
    /// Binary RUR evidence, empty when none applies (plain transfers).
    pub rur_blob: Vec<u8>,
    /// Telemetry trace id active when the transfer committed (0 when
    /// telemetry was off) — correlates the audit trail with span traces.
    pub trace_id: u64,
}

/// A full account statement (§5.2 Request Account Statement): the
/// account and its rows in a date window, read as of one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Statement {
    /// The account record as of the query.
    pub account: AccountRecord,
    /// Transactions in the requested window.
    pub transactions: Vec<TransactionRecord>,
    /// Transfers (either side) in the requested window.
    pub transfers: Vec<TransferRecord>,
}

/// A cross-branch credit owed to a remote payee: the drawer's branch has
/// already parked the amount in its clearing account, and the matching
/// `IbCredit` has not yet been acknowledged by the payee's branch. The
/// set of pending credits is journal-backed (`IbOut`/`IbAck` entries), so
/// a crashed branch re-ships exactly the credits that never landed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingIbCredit {
    /// The idempotency key the credit ships under — stable across
    /// redeliveries, so the payee's branch applies it at most once.
    pub key: u64,
    /// The remote payee account.
    pub to: AccountId,
    /// Amount owed.
    pub amount: Credits,
    /// This (the drawer's) branch.
    pub origin: u16,
    /// The payer account the parked amount came from — a re-ship that
    /// the payee's branch rejects refunds here.
    pub drawer: AccountId,
    /// The `(cert, key)` idempotency stamp of the payer's original
    /// request, if it carried one: a rejected re-ship invalidates it so
    /// the payer's retry does not read a stale success.
    pub idem: Option<(String, u64)>,
}

/// One write-ahead journal entry. Replaying a journal into a fresh
/// [`Database`] reconstructs identical state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalEntry {
    /// Account created with this initial record.
    Create(AccountRecord),
    /// Account state after a mutation (absolute, idempotent on replay).
    Update(AccountRecord),
    /// Account removed.
    Remove(AccountId),
    /// A transaction row appended.
    Transaction(TransactionRecord),
    /// A transfer row appended.
    Transfer(TransferRecord),
    /// An idempotency key consumed by a mutating request, with the
    /// encoded response it produced — replay repopulates the dedup
    /// cache so retries after a crash still return the original result.
    Idem {
        /// Certificate name of the caller that supplied the key.
        cert: String,
        /// Client-generated idempotency key.
        key: u64,
        /// Encoded response of the original execution.
        response: Vec<u8>,
        /// The stamp's place in the database-wide recording order: what
        /// recovery merges snapshot and journal stamps by
        /// (docs/STORAGE.md §5).
        seq: u64,
    },
    /// A cross-branch credit became owed (committed atomically with the
    /// drawer's debit into the clearing account).
    IbOut(PendingIbCredit),
    /// The payee's branch acknowledged the credit with this key.
    IbAck {
        /// Key of the acknowledged [`JournalEntry::IbOut`].
        key: u64,
    },
    /// An idempotency stamp was invalidated: the operation it remembered
    /// was compensated (e.g. a rejected cross-branch payment refunded),
    /// so a retry must re-attempt instead of reading the stale success.
    IdemDrop {
        /// Certificate name of the caller that supplied the key.
        cert: String,
        /// Client-generated idempotency key.
        key: u64,
    },
}

/// An idempotency stamp committed atomically with a mutation batch.
#[derive(Clone, Debug)]
pub struct IdemStamp {
    /// Certificate name of the caller.
    pub cert: String,
    /// Client-generated idempotency key.
    pub key: u64,
    /// Encoded response to hand back on a retried request.
    pub response: Vec<u8>,
}

/// Rows committed atomically with a two-account mutation — the audit
/// trail and the dedup mark land in the journal in the same critical
/// section as the balance updates, so a crash can never separate them.
#[derive(Default)]
pub struct CommitRows {
    /// TRANSACTION RECORD rows (one per posted account entry).
    pub transactions: Vec<TransactionRecord>,
    /// The paired TRANSFER RECORD, if this mutation is a transfer.
    pub transfer: Option<TransferRecord>,
    /// Idempotency stamp for exactly-once retry semantics.
    pub idem: Option<IdemStamp>,
    /// A cross-branch credit to record as owed, atomically with the
    /// drawer's debit — a crash can never separate "funds parked in
    /// clearing" from "credit owed to the remote payee".
    pub ib_out: Option<PendingIbCredit>,
}

/// Bounded FIFO dedup cache for idempotency keys. Every stamp carries a
/// sequence number from one database-wide counter; `order` is sorted by
/// it, so the front is always the oldest stamp — also after recovery,
/// which inserts stamps from the snapshot and from the journal tail.
struct IdemCache {
    capacity: usize,
    next_seq: u64,
    map: HashMap<(String, u64), (u64, Vec<u8>)>,
    order: VecDeque<(u64, (String, u64))>,
}

impl IdemCache {
    fn remove(&mut self, cert: &str, key: u64) -> bool {
        // The `order` entry stays behind; its sequence number no longer
        // matches anything in the map, so popping it later is a no-op.
        self.map.remove(&(cert.to_string(), key)).is_some()
    }

    /// Records a new stamp, evicting oldest-first down to `capacity`,
    /// and returns its sequence number.
    fn insert(&mut self, cert: &str, key: u64, response: Vec<u8>) -> u64 {
        let seq = self.next_seq;
        self.insert_at(seq, cert, key, response);
        self.trim();
        seq
    }

    /// Records a stamp under the sequence number it was first given
    /// (snapshot load, journal tail). Evicts nothing: recovery runs
    /// before the configured bound is known, and trimming at the default
    /// would forget stamps a larger cache remembered before the restart;
    /// [`Database::set_idem_capacity`] trims once the bound is set.
    fn insert_at(&mut self, seq: u64, cert: &str, key: u64, response: Vec<u8>) {
        self.next_seq = self.next_seq.max(seq.saturating_add(1));
        if self.capacity == 0 {
            return;
        }
        let k = (cert.to_string(), key);
        match self.map.entry(k) {
            // A live stamp keeps its place; only the response changes.
            Entry::Occupied(mut live) => live.get_mut().1 = response,
            Entry::Vacant(slot) => {
                let at = self.order.partition_point(|(s, _)| *s < seq);
                self.order.insert(at, (seq, slot.key().clone()));
                slot.insert((seq, response));
            }
        }
    }

    /// Evicts oldest-first down to `capacity`.
    fn trim(&mut self) {
        while self.order.len() > self.capacity {
            if let Some((seq, old)) = self.order.pop_front() {
                if self.map.get(&old).is_some_and(|(s, _)| *s == seq) {
                    self.map.remove(&old);
                }
            }
        }
    }
}

/// Default bound on remembered idempotency keys per database.
pub const DEFAULT_IDEM_CAPACITY: usize = 4096;

/// Group-commit tuning for the write-ahead journal.
#[derive(Clone, Copy, Debug)]
pub struct GroupCommitConfig {
    /// Most batches one leader flushes in a single journal acquisition.
    /// `<= 1` disables grouping: every committer appends directly.
    pub max_batch: usize,
    /// Longest a flush leader lingers waiting for more committers to
    /// join the group before flushing what it has.
    pub max_delay_micros: u64,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig { max_batch: 64, max_delay_micros: 100 }
    }
}

/// One committer's journal entries, queued for a grouped flush. The
/// entries of a batch are appended contiguously, never interleaved with
/// another batch's.
struct PendingBatch {
    ticket: u64,
    entries: Vec<JournalEntry>,
}

struct CommitState {
    pending: Vec<PendingBatch>,
    /// A leader is currently gathering or flushing.
    leader: bool,
    next_ticket: u64,
    /// Highest ticket whose entries have reached the journal.
    flushed_through: u64,
}

/// The group-commit queue: committers enqueue entry batches; one becomes
/// the flush leader, lingers briefly for stragglers, and appends every
/// pending batch in ticket order under a single journal acquisition.
///
/// Committers call [`CommitQueue::submit`] while still holding the
/// accounts lock, so two batches touching the same account can never
/// race into the queue out of application order — the invariant recovery
/// depends on (updates are absolute snapshots).
struct CommitQueue {
    state: Mutex<CommitState>,
    /// Signals a gathering leader that another batch arrived.
    arrived: Condvar,
    /// Signals followers that a flush advanced `flushed_through`.
    flushed: Condvar,
    /// Threads currently inside `submit` — lets a leader flush
    /// immediately when nobody else could still join the group.
    writers: AtomicUsize,
    config: Mutex<GroupCommitConfig>,
}

impl CommitQueue {
    fn new() -> Self {
        CommitQueue {
            state: Mutex::new(CommitState {
                pending: Vec::new(),
                leader: false,
                next_ticket: 1,
                flushed_through: 0,
            }),
            arrived: Condvar::new(),
            flushed: Condvar::new(),
            writers: AtomicUsize::new(0),
            config: Mutex::new(GroupCommitConfig::default()),
        }
    }

    /// Appends `entries` to `journal` as one contiguous batch, returning
    /// once they are flushed. Blocks at most `max_delay` waiting for a
    /// group to form; with grouping disabled (`max_batch <= 1`), appends
    /// directly.
    fn submit(&self, entries: Vec<JournalEntry>, journal: &JournalStore) {
        // The journal stage of request processing: everything between a
        // committer arriving with entries and those entries reaching the
        // journal (including group-formation linger and leader flushes).
        let timer = gridbank_obs::Stopwatch::start();
        self.submit_inner(entries, journal);
        timer.record_named("server.stage.journal_ns");
    }

    fn submit_inner(&self, entries: Vec<JournalEntry>, journal: &JournalStore) {
        let cfg = *self.config.lock();
        if cfg.max_batch <= 1 {
            journal.append(entries);
            return;
        }
        self.writers.fetch_add(1, Ordering::SeqCst);
        let mut st = self.state.lock();
        let ticket = st.next_ticket;
        st.next_ticket = st.next_ticket.wrapping_add(1);
        st.pending.push(PendingBatch { ticket, entries });
        self.arrived.notify_all();
        loop {
            if st.flushed_through >= ticket {
                break;
            }
            if st.leader {
                // A leader is gathering or flushing; it will take our
                // batch (it drains everything pending) — wait for it.
                self.flushed.wait(&mut st);
                continue;
            }
            st.leader = true;
            // Linger for stragglers — but only while other writers are
            // actually in flight; a lone committer flushes immediately.
            // A pathological max_delay_micros that overflows Instant
            // clamps to a bounded one-second linger rather than
            // silently degrading to zero linger.
            let now = Instant::now();
            let deadline = now
                .checked_add(Duration::from_micros(cfg.max_delay_micros))
                .or_else(|| now.checked_add(Duration::from_secs(1)))
                .unwrap_or(now);
            while st.pending.len() < cfg.max_batch
                && st.pending.len() < self.writers.load(Ordering::SeqCst)
            {
                if self.arrived.wait_until(&mut st, deadline).timed_out() {
                    break;
                }
            }
            st.pending.sort_by_key(|b| b.ticket);
            let drained = std::mem::take(&mut st.pending);
            let high = drained.last().map_or(st.flushed_through, |b| b.ticket);
            drop(st);
            let batches = drained.len();
            {
                // One contiguous flush: a single journal acquisition and
                // (in durable mode) a single disk append + fsync for the
                // whole group — the amortization the queue exists for.
                let mut flat = Vec::with_capacity(
                    drained.iter().fold(0usize, |n, b| n.saturating_add(b.entries.len())),
                );
                for batch in drained {
                    flat.extend(batch.entries);
                }
                journal.append(flat);
            }
            gridbank_obs::count("db.journal.flushes", 1);
            gridbank_obs::observe("db.journal.batch_size", batches as u64);
            st = self.state.lock();
            st.flushed_through = st.flushed_through.max(high);
            st.leader = false;
            self.flushed.notify_all();
            // Loop re-checks: the leader drained its own ticket, so this
            // terminates here; a woken follower may become the next
            // leader for batches that arrived mid-flush.
        }
        drop(st);
        self.writers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What the journal lock guards: whatever an append writes to.
#[derive(Default)]
struct Appended {
    /// Entries appended so far in memory mode (a durable journal reads
    /// its log's last LSN instead).
    entries: u64,
    /// The durable log's active segment (unused in memory mode).
    head: crate::store::LogHead,
}

/// The write-ahead journal: the on-disk log
/// ([`crate::store::DiskLog`]) in durable mode; in memory mode nothing
/// but a count — a bank that persists nothing has nothing to read back,
/// so it retains no entry.
///
/// Every append holds the `appended` lock across the disk write: it is
/// the log's one writer lock. A commit is one frame in one file and
/// frames land in LSN order, so LSN order, file order and commit order
/// are one order and there is no second file an unlocked append could
/// write in parallel; sharing the `fdatasync` is the group-commit
/// queue's job (EXPERIMENTS.md E24).
pub(crate) struct JournalStore {
    /// The LSN-order and snapshot-cut lock.
    appended: OrderedMutex<Appended>,
    disk: Option<crate::store::DiskLog>,
}

impl JournalStore {
    /// A memory-only journal (the non-durable default).
    fn memory() -> Self {
        JournalStore {
            appended: OrderedMutex::new(rank::JOURNAL, "journal", Appended::default()),
            disk: None,
        }
    }

    /// Appends one batch under the `appended` lock. A durable journal
    /// writes it as one frame (LSN assignment + fsync); a memory journal
    /// counts the batch and drops it.
    fn append(&self, entries: Vec<JournalEntry>) {
        let mut appended = self.appended.lock();
        match &self.disk {
            Some(disk) => disk.append(&mut appended.head, &entries),
            None => appended.entries = appended.entries.saturating_add(entries.len() as u64),
        }
    }
}

/// The ACCOUNT table and its certificate-name index: two maps that must
/// agree, so they change under one lock.
#[derive(Default)]
struct Accounts {
    records: HashMap<AccountId, AccountRecord>,
    by_cert: HashMap<String, AccountId>,
}

impl Accounts {
    fn insert(&mut self, record: AccountRecord) {
        self.by_cert.insert(record.certificate_name.clone(), record.id);
        self.records.insert(record.id, record);
    }

    fn remove(&mut self, id: &AccountId) -> Option<AccountRecord> {
        let record = self.records.remove(id)?;
        self.by_cert.remove(&record.certificate_name);
        Some(record)
    }
}

/// A row's place in its table. `u32`, not `usize`: the index holds one
/// position per TRANSACTION row and two per TRANSFER row, at eight bytes
/// each the 100,000-transfer ledger's peak RSS read 13 % over the
/// unindexed one's (EXPERIMENTS.md E27), and 2^32 rows of either table
/// are 200 GB of rows before they are an index problem.
type Pos = u32;

/// One account's rows: positions into [`History::transactions`] and
/// [`History::transfers`], each list sorted by `(date_ms, position)`.
#[derive(Default)]
struct AccountRows {
    transactions: Vec<Pos>,
    transfers: Vec<Pos>,
}

/// The TRANSACTION and TRANSFER tables and their `(account, date)`
/// index: rows and the positions that point at them must agree, so they
/// change under one lock and only through `push_transaction` /
/// `push_transfer`. The index is derived state — never journaled, never
/// in a snapshot; [`Database::open`] rebuilds it by pushing every
/// recovered row (docs/STORAGE.md §5).
#[derive(Default)]
struct History {
    /// TRANSACTION rows in commit order.
    transactions: Vec<TransactionRecord>,
    /// TRANSFER rows in commit order.
    transfers: Vec<TransferRecord>,
    by_account: HashMap<AccountId, AccountRows>,
}

/// Files the row about to be pushed onto `rows` — the newest, so the
/// highest position — dated `date_ms` into `list`, keeping it sorted by
/// `(date, position)`.
fn index_insert<R>(list: &mut Vec<Pos>, rows: &[R], date_of: fn(&R) -> u64, date_ms: u64) {
    let date_at = |p: Pos| date_of(&rows[p as usize]);
    // Rows land in date order unless two committers read the clock one
    // way round and took the accounts lock the other.
    let at = match list.last() {
        Some(&last) if date_at(last) > date_ms => list.partition_point(|&p| date_at(p) <= date_ms),
        _ => list.len(),
    };
    // Never the fallback: the commit asked `History::has_room` first.
    list.insert(at, Pos::try_from(rows.len()).unwrap_or(Pos::MAX));
}

/// The rows that `list` dates `start_ms <= date < end_ms`, in `list`'s
/// order: two binary searches and a clone of what is returned. None when
/// the window is empty or inverted.
fn rows_in_window<R: Clone>(
    list: &[Pos],
    rows: &[R],
    date_of: fn(&R) -> u64,
    start_ms: u64,
    end_ms: u64,
) -> Vec<R> {
    let date_at = |p: Pos| date_of(&rows[p as usize]);
    let lo = list.partition_point(|&p| date_at(p) < start_ms);
    let hi = list.partition_point(|&p| date_at(p) < end_ms);
    let window = list.get(lo..hi).unwrap_or_default();
    window.iter().map(|&p| rows[p as usize].clone()).collect()
}

impl History {
    /// Whether both tables have positions left for this many more rows.
    /// A commit asks before it changes anything, so its pushes cannot
    /// fail half-way.
    fn has_room(&self, transactions: usize, transfers: usize) -> bool {
        let fits = |len: usize, more: usize| {
            len.checked_add(more).is_some_and(|rows| Pos::try_from(rows).is_ok())
        };
        fits(self.transactions.len(), transactions) && fits(self.transfers.len(), transfers)
    }

    fn push_transaction(&mut self, row: TransactionRecord) {
        let list = &mut self.by_account.entry(row.account).or_default().transactions;
        index_insert(list, &self.transactions, |t| t.date_ms, row.date_ms);
        self.transactions.push(row);
    }

    /// A transfer is a row of its drawer's statement and of its
    /// recipient's.
    fn push_transfer(&mut self, row: TransferRecord) {
        let both = [Some(row.drawer), (row.recipient != row.drawer).then_some(row.recipient)];
        for account in both.into_iter().flatten() {
            let list = &mut self.by_account.entry(account).or_default().transfers;
            index_insert(list, &self.transfers, |t| t.date_ms, row.date_ms);
        }
        self.transfers.push(row);
    }

    /// `account`'s transaction rows with `start_ms <= date < end_ms`, in
    /// date order, ties in commit order.
    fn transactions_in_range(
        &self,
        account: &AccountId,
        start_ms: u64,
        end_ms: u64,
    ) -> Vec<TransactionRecord> {
        let list = self.by_account.get(account).map_or(&[][..], |a| &a.transactions);
        rows_in_window(list, &self.transactions, |t| t.date_ms, start_ms, end_ms)
    }

    /// Transfer rows with `account` on either side, window and order as
    /// in [`History::transactions_in_range`].
    fn transfers_in_range(
        &self,
        account: &AccountId,
        start_ms: u64,
        end_ms: u64,
    ) -> Vec<TransferRecord> {
        let list = self.by_account.get(account).map_or(&[][..], |a| &a.transfers);
        rows_in_window(list, &self.transfers, |t| t.date_ms, start_ms, end_ms)
    }
}

/// What a commit gets when [`History::has_room`] says no.
fn history_full() -> BankError {
    BankError::Storage("a history table is full: no row position is left".into())
}

/// The embedded store.
pub struct Database {
    branch: u16,
    bank: u16,
    /// Every account mutation journals before it releases this lock, so
    /// journal order is application order and a snapshot, which holds it
    /// too, sees no row, stamp or pending credit without an LSN at or
    /// below its cut (docs/STORAGE.md §3.3).
    accounts: OrderedRwLock<Accounts>,
    /// Taken inside the accounts lock by whoever commits rows, so a
    /// reader holding `accounts.read()` sees balances and rows of one
    /// instant ([`Database::statement`]).
    history: OrderedRwLock<History>,
    journal: JournalStore,
    commit: CommitQueue,
    idem: OrderedMutex<IdemCache>,
    ib_pending: OrderedMutex<BTreeMap<u64, PendingIbCredit>>,
    next_account: AtomicU32,
    next_tx: AtomicU64,
    /// Guards `maybe_checkpoint` so at most one thread snapshots at a
    /// time (others skip rather than queue).
    checkpointing: AtomicBool,
}

impl Database {
    /// Creates an empty database for `bank`/`branch`.
    pub fn new(bank: u16, branch: u16) -> Self {
        Database {
            bank,
            branch,
            accounts: OrderedRwLock::new(rank::ACCOUNTS, "accounts", Accounts::default()),
            history: OrderedRwLock::new(rank::HISTORY, "history", History::default()),
            journal: JournalStore::memory(),
            commit: CommitQueue::new(),
            idem: OrderedMutex::new(
                rank::IDEM_CACHE,
                "idem-cache",
                IdemCache {
                    next_seq: 0,
                    capacity: DEFAULT_IDEM_CAPACITY,
                    map: HashMap::new(),
                    order: VecDeque::new(),
                },
            ),
            ib_pending: OrderedMutex::new(rank::IB_PENDING, "ib-pending", BTreeMap::new()),
            next_account: AtomicU32::new(1),
            next_tx: AtomicU64::new(1),
            checkpointing: AtomicBool::new(false),
        }
    }

    /// Opens (or creates) a durable database at `cfg.dir` and recovers
    /// its state: the newest valid snapshot + replay of only the journal
    /// tail past it (docs/STORAGE.md §5). All subsequent commits are
    /// written through to the log via the group-commit queue.
    /// Recovered idempotency stamps are all kept until the caller
    /// sets the bound ([`Database::set_idem_capacity`]).
    pub fn open(
        bank: u16,
        branch: u16,
        cfg: crate::store::StoreConfig,
    ) -> Result<(Self, crate::store::RecoveryReport), BankError> {
        let started = Instant::now();
        let (state, log) = crate::store::open_store(bank, branch, cfg)?;
        let mut db = Database::new(bank, branch);
        let base = state.base;
        let mut max_account = base.next_account_hint;
        let mut max_tx = base.next_tx_hint;

        // Fold the base image in by value: recovery never holds the
        // state twice.
        {
            let mut accounts = db.accounts.write();
            for r in base.accounts {
                if r.id.bank == bank && r.id.branch == branch {
                    max_account = max_account.max(r.id.number);
                }
                accounts.insert(r);
            }
        }
        {
            // Row by row, not table by table: each push files its row in
            // the index, which the snapshot does not store.
            let mut history = db.history.write();
            for t in base.transactions {
                max_tx = max_tx.max(t.transaction_id);
                history.push_transaction(t);
            }
            for t in base.transfers {
                history.push_transfer(t);
            }
        }
        db.ib_pending.lock().extend(base.pending.into_iter().map(|p| (p.key, p)));
        {
            // The cache orders the snapshot's stamps, and the tail's,
            // by sequence number.
            let mut cache = db.idem.lock();
            for s in base.idem {
                cache.insert_at(s.order, &s.cert, s.key, s.response);
            }
        }
        // Replay the tail in LSN order — the original commit order.
        for (_lsn, entry) in &state.tail {
            db.apply_entry(entry, &mut max_account, &mut max_tx);
        }
        db.next_account.store(max_account.saturating_add(1), Ordering::Relaxed);
        db.next_tx.store(max_tx.saturating_add(1), Ordering::Relaxed);
        db.journal.disk = Some(log);

        let mut report = state.report;
        report.accounts = db.account_count();
        report.elapsed_ms = started.elapsed().as_millis() as u64;
        gridbank_obs::count("db.recovery.replayed", report.tail_entries_replayed as u64);
        gridbank_obs::count("db.recovery.snapshots_loaded", report.snapshots_loaded as u64);
        gridbank_obs::count("db.recovery.torn_tails", report.torn_tails as u64);
        gridbank_obs::observe("db.recovery.ms", report.elapsed_ms);
        Ok((db, report))
    }

    /// Replaces the group-commit tuning. Takes effect for subsequent
    /// commits; `max_batch <= 1` turns grouping off entirely.
    pub fn set_group_commit(&self, config: GroupCommitConfig) {
        *self.commit.config.lock() = config;
    }

    /// The current group-commit tuning.
    pub fn group_commit(&self) -> GroupCommitConfig {
        *self.commit.config.lock()
    }

    /// Batches currently queued behind the group-commit leader — the
    /// ops-plane's view of journal backlog.
    pub fn commit_queue_depth(&self) -> usize {
        self.commit.state.lock().pending.len()
    }

    /// Commit tickets issued but not yet flushed to the journal: how far
    /// the write-ahead log trails its committers. Zero when idle.
    pub fn journal_flush_lag(&self) -> u64 {
        let st = self.commit.state.lock();
        st.next_ticket.saturating_sub(1).saturating_sub(st.flushed_through)
    }

    /// Re-bounds the idempotency dedup cache. Capacity 0 disables
    /// exactly-once deduplication entirely (chaos tests use this to
    /// prove their double-charge assertions have teeth).
    pub fn set_idem_capacity(&self, capacity: usize) {
        let mut cache = self.idem.lock();
        cache.capacity = capacity;
        if capacity == 0 {
            cache.map.clear();
            cache.order.clear();
        } else {
            cache.trim();
        }
    }

    /// Looks up the remembered response for `(cert, key)`, if this
    /// idempotency key was already consumed.
    pub fn idem_lookup(&self, cert: &str, key: u64) -> Option<Vec<u8>> {
        self.idem.lock().map.get(&(cert.to_string(), key)).map(|(_, response)| response.clone())
    }

    /// Records a consumed idempotency key with its response: cached for
    /// retries and journaled so crash-replay preserves the dedup. No-op
    /// when the cache is disabled (capacity 0).
    pub fn idem_record(&self, cert: &str, key: u64, response: Vec<u8>) {
        let mut cache = self.idem.lock();
        if cache.capacity == 0 {
            return;
        }
        let seq = cache.insert(cert, key, response.clone());
        drop(cache);
        self.journal.append(vec![JournalEntry::Idem {
            cert: cert.to_string(),
            key,
            response,
            seq,
        }]);
    }

    /// Invalidates a consumed idempotency key: the remembered operation
    /// was compensated (refunded), so a retry must re-attempt instead of
    /// reading the stale success. Removed from the cache and journaled
    /// (`IdemDrop`) so crash-replay cannot resurrect the stamp.
    pub fn idem_invalidate(&self, cert: &str, key: u64) {
        let removed = self.idem.lock().remove(cert, key);
        if removed {
            self.journal.append(vec![JournalEntry::IdemDrop { cert: cert.to_string(), key }]);
        }
    }

    /// Replaces the cached response for an already-recorded key without
    /// journaling again — used to upgrade a journaled placeholder to the
    /// fully signed response once post-commit signing finishes.
    pub fn idem_upgrade(&self, cert: &str, key: u64, response: Vec<u8>) {
        let mut cache = self.idem.lock();
        let k = (cert.to_string(), key);
        if let Some((_, slot)) = cache.map.get_mut(&k) {
            *slot = response;
        }
    }

    /// The branch number of this database.
    pub fn branch(&self) -> u16 {
        self.branch
    }

    /// The bank number of this database.
    pub fn bank(&self) -> u16 {
        self.bank
    }

    /// Allocates the next account id in this branch.
    pub fn allocate_account_id(&self) -> AccountId {
        AccountId {
            bank: self.bank,
            branch: self.branch,
            number: self.next_account.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Allocates the next transaction id.
    pub fn allocate_transaction_id(&self) -> u64 {
        self.next_tx.fetch_add(1, Ordering::Relaxed)
    }

    /// Inserts a brand-new account record. Fails if the certificate name
    /// is already bound (one account per identity per branch). `Create`
    /// is journaled under the accounts lock, like every commit: a
    /// payment can find the account only once its `Update` is sure to
    /// follow the `Create` in the journal.
    pub fn insert_account(&self, record: AccountRecord) -> Result<(), BankError> {
        let mut accounts = self.accounts.write();
        if accounts.by_cert.contains_key(&record.certificate_name) {
            return Err(BankError::DuplicateAccount(record.certificate_name.clone()));
        }
        accounts.insert(record.clone());
        self.journal.append(vec![JournalEntry::Create(record)]);
        drop(accounts);
        Ok(())
    }

    /// Rebinds an account to `certificate_name` and `organization` —
    /// record, certificate index and journal in one step under the
    /// accounts lock, so no payment can land between them. A new name is
    /// journaled as `[Remove, Create]` in one batch (replay moves the
    /// index entry with it); an unchanged one as an `Update`.
    pub fn rename_account(
        &self,
        id: &AccountId,
        certificate_name: &str,
        organization: Option<String>,
    ) -> Result<(), BankError> {
        let mut guard = self.accounts.write();
        let accounts = &mut *guard;
        let record = accounts.records.get_mut(id).ok_or(BankError::NoSuchAccount(*id))?;
        let renamed = record.certificate_name != certificate_name;
        if renamed {
            if accounts.by_cert.contains_key(certificate_name) {
                return Err(BankError::DuplicateAccount(certificate_name.to_string()));
            }
            accounts.by_cert.remove(&record.certificate_name);
            accounts.by_cert.insert(certificate_name.to_string(), *id);
            record.certificate_name = certificate_name.to_string();
        }
        record.organization = organization;
        let after = record.clone();
        self.journal.append(if renamed {
            vec![JournalEntry::Remove(*id), JournalEntry::Create(after)]
        } else {
            vec![JournalEntry::Update(after)]
        });
        drop(guard);
        Ok(())
    }

    /// Reads an account by id.
    pub fn get_account(&self, id: &AccountId) -> Result<AccountRecord, BankError> {
        self.accounts.read().records.get(id).cloned().ok_or(BankError::NoSuchAccount(*id))
    }

    /// Looks up the account bound to a certificate name.
    pub fn account_by_cert(&self, cert: &str) -> Result<AccountRecord, BankError> {
        let accounts = self.accounts.read();
        let id = accounts.by_cert.get(cert);
        id.and_then(|id| accounts.records.get(id))
            .cloned()
            .ok_or_else(|| BankError::UnknownSubject(cert.to_string()))
    }

    /// True if a certificate name has an account (the connection gate's
    /// query).
    pub fn subject_known(&self, cert: &str) -> bool {
        self.accounts.read().by_cert.contains_key(cert)
    }

    /// Mutates one account atomically; the closure's result is journaled.
    pub fn with_account_mut<T>(
        &self,
        id: &AccountId,
        f: impl FnOnce(&mut AccountRecord) -> Result<T, BankError>,
    ) -> Result<T, BankError> {
        self.one_account_commit(id, |record| Ok((f(record)?, None)))
    }

    /// Like [`Database::with_account_mut`], but the closure may also hand
    /// back the TRANSACTION RECORD evidencing its mutation (a deposit, a
    /// withdrawal), built only once the mutation succeeded. The row is
    /// pushed to the table and journaled in the *same* batch as the
    /// balance update, under the accounts lock — the one-account shape of
    /// [`Database::two_account_commit`]: a crash keeps both or neither,
    /// never money without its §5.1 row.
    pub fn one_account_commit<T>(
        &self,
        id: &AccountId,
        f: impl FnOnce(&mut AccountRecord) -> Result<(T, Option<TransactionRecord>), BankError>,
    ) -> Result<T, BankError> {
        let mut accounts = self.accounts.write();
        let record = accounts.records.get_mut(id).ok_or(BankError::NoSuchAccount(*id))?;
        // `f` works on the copy the journal needs anyway; the live
        // record changes only once `f` has succeeded, so a closure that
        // fails half-way leaves nothing behind.
        let mut next = record.clone();
        let (out, row) = f(&mut next)?;
        let mut entries = vec![JournalEntry::Update(next.clone())];
        if let Some(tx) = row {
            let mut history = self.history.write();
            if !history.has_room(1, 0) {
                return Err(history_full());
            }
            history.push_transaction(tx.clone());
            entries.push(JournalEntry::Transaction(tx));
        }
        *record = next;
        // Submit while still holding the accounts lock: Update entries
        // are absolute snapshots, so per-account journal order must match
        // application order or recovery resurrects stale balances.
        self.commit.submit(entries, &self.journal);
        drop(accounts);
        Ok(out)
    }

    /// Mutates two accounts atomically (transfers): both journal entries
    /// are appended together.
    pub fn with_two_accounts_mut<T>(
        &self,
        a: &AccountId,
        b: &AccountId,
        f: impl FnOnce(&mut AccountRecord, &mut AccountRecord) -> Result<T, BankError>,
    ) -> Result<T, BankError> {
        self.two_account_commit(a, b, f, CommitRows::default())
    }

    /// Like [`Database::with_two_accounts_mut`], but also commits the
    /// given audit rows and idempotency stamp in the *same* critical
    /// section: the balance updates, transaction/transfer rows, and the
    /// dedup mark reach the journal as one contiguous batch while the
    /// accounts lock is still held. A crash therefore either sees the
    /// whole operation (and replay dedups the retry) or none of it (and
    /// the retry applies cleanly) — never a double-apply.
    pub fn two_account_commit<T>(
        &self,
        a: &AccountId,
        b: &AccountId,
        f: impl FnOnce(&mut AccountRecord, &mut AccountRecord) -> Result<T, BankError>,
        rows: CommitRows,
    ) -> Result<T, BankError> {
        if a == b {
            return Err(BankError::Protocol("transfer to the same account".into()));
        }
        let mut accounts = self.accounts.write();
        // As in `one_account_commit`: `f` works on the copies the journal
        // needs anyway and the live records change only once it succeeded.
        let mut snap_a = accounts.records.get(a).cloned().ok_or(BankError::NoSuchAccount(*a))?;
        let mut snap_b = accounts.records.get(b).cloned().ok_or(BankError::NoSuchAccount(*b))?;
        let out = f(&mut snap_a, &mut snap_b)?;
        // The one refusal past the closure comes first, while nothing has
        // changed yet.
        let mut history = self.history.write();
        if !history.has_room(rows.transactions.len(), usize::from(rows.transfer.is_some())) {
            return Err(history_full());
        }
        accounts.records.insert(*a, snap_a.clone());
        accounts.records.insert(*b, snap_b.clone());
        // Commit tables, stamp and pending credit, then hand the journal
        // batch to the group-commit queue — all still under the accounts
        // lock, so recovery order matches application order and no
        // snapshot can see any of it before the batch has an LSN. The
        // closure already succeeded by now; a member whose closure failed
        // returned above and contributes nothing.
        let mut entries = Vec::with_capacity(rows.transactions.len().saturating_add(3));
        entries.push(JournalEntry::Update(snap_a));
        entries.push(JournalEntry::Update(snap_b));
        for tx in rows.transactions {
            history.push_transaction(tx.clone());
            entries.push(JournalEntry::Transaction(tx));
        }
        if let Some(t) = rows.transfer {
            history.push_transfer(t.clone());
            entries.push(JournalEntry::Transfer(t));
        }
        drop(history);
        if let Some(stamp) = rows.idem {
            let mut cache = self.idem.lock();
            if cache.capacity > 0 {
                let seq = cache.insert(&stamp.cert, stamp.key, stamp.response.clone());
                entries.push(JournalEntry::Idem {
                    cert: stamp.cert,
                    key: stamp.key,
                    response: stamp.response,
                    seq,
                });
            }
        }
        if let Some(credit) = rows.ib_out {
            self.ib_pending.lock().insert(credit.key, credit.clone());
            entries.push(JournalEntry::IbOut(credit));
        }
        self.commit.submit(entries, &self.journal);
        drop(accounts);
        Ok(out)
    }

    /// Marks a pending cross-branch credit as delivered: the payee's
    /// branch acknowledged the `IbCredit` with this key. Journaled so
    /// replay won't re-ship it. Returns whether the key was pending.
    pub fn ib_ack(&self, key: u64) -> bool {
        let removed = self.ib_pending.lock().remove(&key).is_some();
        if removed {
            self.journal.append(vec![JournalEntry::IbAck { key }]);
        }
        removed
    }

    /// Snapshot of unacknowledged cross-branch credits, in key order —
    /// the set a recovering branch must re-ship.
    pub fn ib_pending_snapshot(&self) -> Vec<PendingIbCredit> {
        self.ib_pending.lock().values().cloned().collect()
    }

    /// Removes an account (close-account path; caller enforces emptiness).
    pub fn remove_account(&self, id: &AccountId) -> Result<AccountRecord, BankError> {
        let mut accounts = self.accounts.write();
        let record = accounts.remove(id).ok_or(BankError::NoSuchAccount(*id))?;
        self.journal.append(vec![JournalEntry::Remove(*id)]);
        drop(accounts);
        Ok(record)
    }

    /// Request Account Statement (§5.2): the account and its rows with
    /// `start_ms <= date < end_ms`, as of one instant. Committers push
    /// rows while they hold `accounts.write()`, so holding
    /// `accounts.read()` across the history read keeps every balance
    /// next to exactly the rows that produced it.
    pub fn statement(
        &self,
        id: &AccountId,
        start_ms: u64,
        end_ms: u64,
    ) -> Result<Statement, BankError> {
        let accounts = self.accounts.read();
        let account = accounts.records.get(id).cloned().ok_or(BankError::NoSuchAccount(*id))?;
        let history = self.history.read();
        Ok(Statement {
            account,
            transactions: history.transactions_in_range(id, start_ms, end_ms),
            transfers: history.transfers_in_range(id, start_ms, end_ms),
        })
    }

    /// Statement query: transactions for `account` with
    /// `start_ms <= date < end_ms`, in date order (ties in commit
    /// order). Costs the rows it returns, not the table's length.
    pub fn transactions_in_range(
        &self,
        account: &AccountId,
        start_ms: u64,
        end_ms: u64,
    ) -> Vec<TransactionRecord> {
        self.history.read().transactions_in_range(account, start_ms, end_ms)
    }

    /// Transfer rows involving `account` in the window (either side),
    /// ordered like [`Database::transactions_in_range`].
    pub fn transfers_in_range(
        &self,
        account: &AccountId,
        start_ms: u64,
        end_ms: u64,
    ) -> Vec<TransferRecord> {
        self.history.read().transfers_in_range(account, start_ms, end_ms)
    }

    /// All transfer rows, owned (tests that count them).
    pub fn all_transfers(&self) -> Vec<TransferRecord> {
        self.history.read().transfers.clone()
    }

    /// Visits every transfer row in commit order under the history read
    /// lock, cloning nothing (price-estimation scans; bank-internal).
    /// `f` must not call back into the database.
    pub fn for_each_transfer(&self, f: impl FnMut(&TransferRecord)) {
        self.history.read().transfers.iter().for_each(f);
    }

    /// Finds a transfer by transaction id. A scan of the whole table:
    /// its one caller is the administrator's `cancel_transfer`, too rare
    /// to pay a third index for.
    pub fn transfer_by_id(&self, transaction_id: u64) -> Option<TransferRecord> {
        self.history.read().transfers.iter().find(|t| t.transaction_id == transaction_id).cloned()
    }

    /// Total of available+locked across all accounts — the conservation
    /// quantity the property tests track.
    pub fn total_funds(&self) -> Credits {
        self.accounts.read().records.values().fold(Credits::ZERO, |total, r| {
            total.saturating_add(r.available).saturating_add(r.locked)
        })
    }

    /// Number of accounts.
    pub fn account_count(&self) -> usize {
        self.accounts.read().records.len()
    }

    /// Snapshot of every account (statements, settlement, diagnostics).
    pub fn all_accounts(&self) -> Vec<AccountRecord> {
        let mut out: Vec<AccountRecord> = self.accounts.read().records.values().cloned().collect();
        out.sort_by_key(|r| r.id);
        out
    }

    /// Journal entries so far: the count of appended entries in memory
    /// mode, the disk log's last LSN — entries since the store was
    /// created — in durable mode.
    pub fn journal_len(&self) -> usize {
        let appended = self.journal.appended.lock();
        let entries = self.journal.disk.as_ref().map_or(appended.entries, |disk| disk.last_lsn());
        usize::try_from(entries).unwrap_or(usize::MAX)
    }

    /// Applies one journal entry to live state — the tail transition of
    /// [`Database::open`], the one recovery there is.
    fn apply_entry(&self, entry: &JournalEntry, max_account: &mut u32, max_tx: &mut u64) {
        match entry {
            JournalEntry::Create(r) => {
                *max_account = (*max_account).max(r.id.number);
                self.accounts.write().insert(r.clone());
            }
            JournalEntry::Update(r) => {
                self.accounts.write().records.insert(r.id, r.clone());
            }
            JournalEntry::Remove(id) => {
                self.accounts.write().remove(id);
            }
            JournalEntry::Transaction(t) => {
                *max_tx = (*max_tx).max(t.transaction_id);
                self.history.write().push_transaction(t.clone());
            }
            JournalEntry::Transfer(t) => {
                *max_tx = (*max_tx).max(t.transaction_id);
                self.history.write().push_transfer(t.clone());
            }
            JournalEntry::Idem { cert, key, response, seq } => {
                self.idem.lock().insert_at(*seq, cert, *key, response.clone());
            }
            JournalEntry::IbOut(credit) => {
                self.ib_pending.lock().insert(credit.key, credit.clone());
            }
            JournalEntry::IbAck { key } => {
                self.ib_pending.lock().remove(key);
            }
            JournalEntry::IdemDrop { cert, key } => {
                self.idem.lock().remove(cert, *key);
            }
        }
    }

    // -- durable mode -------------------------------------------------

    /// `false` once a disk append has failed: the bank keeps serving
    /// from memory, but acknowledgements are no longer crash-durable
    /// and the ops plane reports the branch Unhealthy.
    pub fn disk_healthy(&self) -> bool {
        self.journal.disk.as_ref().is_none_or(|d| d.healthy())
    }

    /// Encodes a consistent image of the whole database. Holding the
    /// accounts lock *and* the journal lock at the cut means every entry
    /// with `lsn <= through_lsn` is in the image and none past it is:
    /// whoever commits holds the accounts lock until its batch has an LSN
    /// (docs/STORAGE.md §3.3). Rows are encoded straight from the live
    /// tables, so a capture's memory is the one buffer it returns.
    fn capture(&self, disk: &crate::store::DiskLog) -> (u64, Vec<u8>) {
        let accounts = self.accounts.read();
        let _cut = self.journal.appended.lock();
        let through_lsn = disk.last_lsn();
        let history = self.history.read();
        let cache = self.idem.lock();
        let pending = self.ib_pending.lock();
        let mut records: Vec<&AccountRecord> = accounts.records.values().collect();
        records.sort_unstable_by_key(|r| r.id);
        let rows = crate::store::SnapshotRows {
            through_lsn,
            next_account_hint: self.next_account.load(Ordering::Relaxed).saturating_sub(1),
            next_tx_hint: self.next_tx.load(Ordering::Relaxed).saturating_sub(1),
            accounts: records,
            transactions: &history.transactions,
            transfers: &history.transfers,
            idem: (cache.order.iter())
                .filter_map(|(seq, k)| {
                    let (live, response) = cache.map.get(k)?;
                    (live == seq).then_some((*seq, k.0.as_str(), k.1, response.as_slice()))
                })
                .collect(),
            pending: pending.values().collect(),
        };
        (through_lsn, rows.to_bytes())
    }

    /// Writes one snapshot of the whole database (no compaction) and
    /// closes the log's active segment, so compaction has a closed
    /// segment boundary next to the cut. No-op (Ok) when not durable.
    pub fn snapshot_all(&self) -> Result<CheckpointStats, BankError> {
        let mut stats = CheckpointStats::default();
        let Some(disk) = self.journal.disk.as_ref() else { return Ok(stats) };
        let (through_lsn, bytes) = self.capture(disk);
        stats.bytes = disk.write_snapshot(through_lsn, bytes)?;
        self.journal.appended.lock().head.rotate();
        Ok(stats)
    }

    /// One compaction pass: prunes old snapshot generations and drops
    /// the log segments the oldest retained snapshot covers.
    pub fn compact_store(&self) -> Result<CheckpointStats, BankError> {
        let mut stats = CheckpointStats::default();
        if let Some(disk) = self.journal.disk.as_ref() {
            (stats.segments_dropped, stats.snapshots_pruned) = disk.compact()?;
        }
        Ok(stats)
    }

    /// Full checkpoint: snapshot, then compact. After this, a restart
    /// replays only entries committed since the call started.
    pub fn checkpoint(&self) -> Result<CheckpointStats, BankError> {
        let mut stats = self.snapshot_all()?;
        let compacted = self.compact_store()?;
        stats.segments_dropped = compacted.segments_dropped;
        stats.snapshots_pruned = compacted.snapshots_pruned;
        Ok(stats)
    }

    /// Checkpoint trigger: runs [`Database::checkpoint`] once the log is
    /// `snapshot_every` entries past the newest snapshot. Must be called
    /// with **no** database locks held (the server calls it after
    /// dispatch). Concurrent callers skip; returns whether work ran.
    pub fn maybe_checkpoint(&self) -> Result<bool, BankError> {
        let due = self.journal.disk.as_ref().is_some_and(|disk| disk.snapshot_due());
        if !due || self.checkpointing.swap(true, Ordering::SeqCst) {
            return Ok(false);
        }
        let result = self.checkpoint().map(|_| true);
        self.checkpointing.store(false, Ordering::SeqCst);
        result
    }

    /// Order-insensitive digest of durable state: accounts (sorted),
    /// audit rows (sorted by encoding), pending credits, and live idem
    /// stamps. Two databases with identical logical state — e.g. before
    /// a kill and after the recovery — produce identical digests.
    pub fn state_digest(&self) -> u64 {
        use gridbank_rur::codec::{ByteWriter, Encode as _};
        let mut w = ByteWriter::with_capacity(4096);
        for r in self.all_accounts() {
            r.encode(&mut w);
        }
        let history = self.history.read();
        let mut rows: Vec<Vec<u8>> = history
            .transactions
            .iter()
            .map(|t| {
                let mut rw = ByteWriter::with_capacity(64);
                t.encode(&mut rw);
                rw.into_bytes()
            })
            .collect();
        rows.sort_unstable();
        for row in rows {
            w.put_bytes(&row);
        }
        let mut rows: Vec<Vec<u8>> = history
            .transfers
            .iter()
            .map(|t| {
                let mut rw = ByteWriter::with_capacity(64);
                t.encode(&mut rw);
                rw.into_bytes()
            })
            .collect();
        drop(history);
        rows.sort_unstable();
        for row in rows {
            w.put_bytes(&row);
        }
        for p in self.ib_pending_snapshot() {
            w.put_u64(p.key);
        }
        let mut stamps: Vec<(String, u64)> = self.idem.lock().map.keys().cloned().collect();
        stamps.sort_unstable();
        for (cert, key) in stamps {
            w.put_str(&cert);
            w.put_u64(key);
        }
        crate::store::fnv64(&w.into_bytes())
    }
}

/// What a checkpoint did (snapshot + compaction totals).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Snapshot bytes written.
    pub bytes: u64,
    /// Segment files deleted by compaction.
    pub segments_dropped: usize,
    /// Old snapshot generations deleted.
    pub snapshots_pruned: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use proptest::prelude::*;

    /// A database on a fresh scratch store, and the config that reopens it.
    fn scratch_db(tag: &str) -> (Database, StoreConfig) {
        let cfg = StoreConfig::scratch(tag);
        (Database::open(1, 1, cfg.clone()).expect("open scratch store").0, cfg)
    }

    /// Kills `db` and restarts it from its store — the recovery every
    /// durable bank runs.
    fn reopen(db: Database, cfg: &StoreConfig) -> Database {
        drop(db);
        Database::open(1, 1, cfg.clone()).expect("reopen scratch store").0
    }

    /// Every entry in the (closed) store at `cfg`, in LSN order: a scratch
    /// store is never checkpointed, so its tail is its whole journal.
    fn journal_of(cfg: &StoreConfig) -> Vec<JournalEntry> {
        let (state, _log) = crate::store::open_store(1, 1, cfg.clone()).expect("read store");
        state.tail.into_iter().map(|(_lsn, entry)| entry).collect()
    }

    fn record(db: &Database, cert: &str, gd: i64) -> AccountRecord {
        AccountRecord {
            id: db.allocate_account_id(),
            certificate_name: cert.to_string(),
            organization: None,
            available: Credits::from_gd(gd),
            locked: Credits::ZERO,
            currency: "GridDollar".into(),
            credit_limit: Credits::ZERO,
        }
    }

    #[test]
    fn account_id_format_and_parse() {
        let id = AccountId::new(1, 1, 1);
        assert_eq!(id.to_string(), "01-0001-00000001");
        assert_eq!(AccountId::parse("01-0001-00000001"), Some(id));
        assert_eq!(AccountId::parse("01-0001"), None);
        assert_eq!(AccountId::parse("x-y-z"), None);
        assert_eq!(AccountId::parse("1-2-3-4"), None);
    }

    #[test]
    fn insert_get_and_cert_index() {
        let db = Database::new(1, 1);
        let r = record(&db, "/CN=alice", 10);
        let id = r.id;
        db.insert_account(r.clone()).unwrap();
        assert_eq!(db.get_account(&id).unwrap(), r);
        assert_eq!(db.account_by_cert("/CN=alice").unwrap().id, id);
        assert!(db.subject_known("/CN=alice"));
        assert!(!db.subject_known("/CN=bob"));
        assert!(matches!(
            db.insert_account(record(&db, "/CN=alice", 0)),
            Err(BankError::DuplicateAccount(_))
        ));
    }

    #[test]
    fn ids_are_sequential_per_branch() {
        let db = Database::new(1, 3);
        let a = db.allocate_account_id();
        let b = db.allocate_account_id();
        assert_eq!(a.branch, 3);
        assert_eq!(b.number, a.number + 1);
    }

    #[test]
    fn two_account_mutation_both_orders() {
        let db = Database::new(1, 1);
        let ra = record(&db, "/CN=a", 10);
        let rb = record(&db, "/CN=b", 0);
        let (ida, idb) = (ra.id, rb.id);
        db.insert_account(ra).unwrap();
        db.insert_account(rb).unwrap();

        db.with_two_accounts_mut(&ida, &idb, |a, b| {
            a.available = a.available.checked_sub(Credits::from_gd(4))?;
            b.available = b.available.checked_add(Credits::from_gd(4))?;
            Ok(())
        })
        .unwrap();
        // Reverse order too.
        db.with_two_accounts_mut(&idb, &ida, |b, a| {
            b.available = b.available.checked_sub(Credits::from_gd(1))?;
            a.available = a.available.checked_add(Credits::from_gd(1))?;
            Ok(())
        })
        .unwrap();
        assert_eq!(db.get_account(&ida).unwrap().available, Credits::from_gd(7));
        assert_eq!(db.get_account(&idb).unwrap().available, Credits::from_gd(3));
    }

    #[test]
    fn two_account_mutation_error_rolls_back() {
        let db = Database::new(1, 1);
        let ra = record(&db, "/CN=a", 10);
        let rb = record(&db, "/CN=b", 5);
        let (ida, idb) = (ra.id, rb.id);
        db.insert_account(ra).unwrap();
        db.insert_account(rb).unwrap();
        let before_a = db.get_account(&ida).unwrap();
        let err = db
            .with_two_accounts_mut(&ida, &idb, |_a, _b| Err::<(), _>(BankError::NonPositiveAmount));
        assert!(err.is_err());
        assert_eq!(db.get_account(&ida).unwrap(), before_a);
        // Self-transfer rejected.
        assert!(db.with_two_accounts_mut(&ida, &ida, |_a, _b| Ok(())).is_err());
        // Missing account rejected either side.
        let ghost = AccountId::new(9, 9, 9);
        assert!(db.with_two_accounts_mut(&ida, &ghost, |_a, _b| Ok(())).is_err());
        assert!(db.with_two_accounts_mut(&ghost, &ida, |_a, _b| Ok(())).is_err());
    }

    #[test]
    fn a_closure_that_mutates_then_fails_leaves_no_trace() {
        let db = Database::new(1, 1);
        let ra = record(&db, "/CN=a", 10);
        let rb = record(&db, "/CN=b", 5);
        for r in [&ra, &rb] {
            db.insert_account(r.clone()).unwrap();
        }
        let debit_then_fail = |x: &mut AccountRecord, y: &mut AccountRecord| {
            x.available = x.available.checked_sub(Credits::from_gd(3))?;
            y.locked = Credits::from_gd(1);
            Err::<(), _>(BankError::NonPositiveAmount)
        };
        for (x, y) in [(&ra, &rb), (&rb, &ra)] {
            assert!(db.with_two_accounts_mut(&x.id, &y.id, debit_then_fail).is_err());
            assert_eq!(db.get_account(&x.id).unwrap(), *x);
            assert_eq!(db.get_account(&y.id).unwrap(), *y);
        }
        let out = db.one_account_commit(&ra.id, |x| {
            x.available = Credits::ZERO;
            Err::<((), _), _>(BankError::NonPositiveAmount)
        });
        assert!(out.is_err());
        assert_eq!(db.get_account(&ra.id).unwrap(), ra);
        assert_eq!(db.journal_len(), 2, "nothing but the two creations was journaled");
    }

    #[test]
    fn statements_filter_by_range_and_account() {
        let db = Database::new(1, 1);
        let ra = record(&db, "/CN=a", 0);
        let rb = record(&db, "/CN=b", 0);
        let (ida, idb) = (ra.id, rb.id);
        db.insert_account(ra).unwrap();
        db.insert_account(rb).unwrap();
        for (t, amount, date) in [(ida, 5, 10u64), (ida, -2, 20), (idb, 7, 15)] {
            let row = TransactionRecord {
                transaction_id: db.allocate_transaction_id(),
                account: t,
                tx_type: TransactionType::Deposit,
                date_ms: date,
                amount: Credits::from_gd(amount),
            };
            db.one_account_commit(&t, |_| Ok(((), Some(row)))).unwrap();
        }
        let transfer = TransferRecord {
            transaction_id: db.allocate_transaction_id(),
            date_ms: 12,
            drawer: ida,
            amount: Credits::from_gd(3),
            recipient: idb,
            rur_blob: vec![1, 2, 3],
            trace_id: 0,
        };
        let rows = CommitRows { transfer: Some(transfer), ..CommitRows::default() };
        db.two_account_commit(&ida, &idb, |_a, _b| Ok(()), rows).unwrap();

        assert_eq!(db.transactions_in_range(&ida, 0, 100).len(), 2);
        assert_eq!(db.transactions_in_range(&ida, 15, 100).len(), 1);
        assert_eq!(db.transactions_in_range(&idb, 0, 100).len(), 1);
        // Transfers visible from both sides.
        assert_eq!(db.transfers_in_range(&ida, 0, 100).len(), 1);
        assert_eq!(db.transfers_in_range(&idb, 0, 100).len(), 1);
        assert_eq!(db.transfers_in_range(&ida, 13, 100).len(), 0);
        assert!(db.transfer_by_id(999).is_none());
    }

    /// What the index must answer: a linear filter of the table, sorted by
    /// `(date_ms, position)`.
    fn filtered<R: Clone>(
        rows: &[R],
        date_of: fn(&R) -> u64,
        mine: impl Fn(&R) -> bool,
        (start_ms, end_ms): (u64, u64),
    ) -> Vec<R> {
        let mut hits: Vec<(u64, usize)> = (rows.iter().enumerate())
            .filter(|(_, r)| mine(r) && date_of(r) >= start_ms && date_of(r) < end_ms)
            .map(|(pos, r)| (date_of(r), pos))
            .collect();
        hits.sort_unstable();
        hits.into_iter().map(|(_, pos)| rows[pos].clone()).collect()
    }

    fn assert_index_matches_oracle(db: &Database, ids: &[AccountId], windows: &[(u64, u64)]) {
        for id in ids {
            for &window in windows {
                let (start_ms, end_ms) = window;
                let history = db.history.read();
                let transactions =
                    filtered(&history.transactions, |t| t.date_ms, |t| t.account == *id, window);
                let transfers = filtered(
                    &history.transfers,
                    |t| t.date_ms,
                    |t| t.drawer == *id || t.recipient == *id,
                    window,
                );
                drop(history);
                assert_eq!(db.transactions_in_range(id, start_ms, end_ms), transactions);
                assert_eq!(db.transfers_in_range(id, start_ms, end_ms), transfers);
                match db.statement(id, start_ms, end_ms) {
                    Ok(st) => {
                        assert_eq!((st.transactions, st.transfers), (transactions, transfers))
                    }
                    Err(_) => assert!(db.get_account(id).is_err(), "{id} has an account"),
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Rows dated out of order reach the tables through both commit
        /// paths, a checkpoint lands somewhere among them, and the index
        /// must answer like the oracle — live, and again once recovery
        /// has rebuilt it from the snapshot fold and the replayed tail.
        #[test]
        fn index_answers_like_a_linear_filter(
            ops in prop::collection::vec((0u8..4, 0usize..4, 0usize..4, 0u64..40), 0..50),
            checkpoint_at in 0usize..50,
            drawn in prop::collection::vec((0u64..45, 0u64..45), 1..12),
        ) {
            let (db, cfg) = scratch_db("index-oracle");
            let mut ids = Vec::new();
            // The fifth account never gets a row; the sixth id has no account.
            for i in 0..5 {
                let r = record(&db, &format!("/CN=h{i}"), 0);
                ids.push(r.id);
                db.insert_account(r).unwrap();
            }
            ids.push(AccountId::new(9, 9, 9));
            for (step, (kind, a, b, date_ms)) in ops.into_iter().enumerate() {
                if step == checkpoint_at {
                    db.snapshot_all().unwrap();
                }
                let (a, b) = (ids[a], ids[b]);
                let transaction_id = db.allocate_transaction_id();
                let row = |account| TransactionRecord {
                    transaction_id,
                    account,
                    tx_type: TransactionType::Transfer,
                    date_ms,
                    amount: Credits::ZERO,
                };
                if kind == 0 {
                    db.one_account_commit(&a, |_| Ok(((), Some(row(a))))).unwrap();
                } else if a != b {
                    // One kind in three names the drawer on both sides
                    // of the row: it is still one row of one statement.
                    let recipient = if kind == 3 { a } else { b };
                    let transfer = TransferRecord {
                        transaction_id,
                        date_ms,
                        drawer: a,
                        amount: Credits::ZERO,
                        recipient,
                        rur_blob: vec![kind],
                        trace_id: 0,
                    };
                    let rows = CommitRows {
                        transactions: vec![row(a), row(b)],
                        transfer: Some(transfer),
                        ..CommitRows::default()
                    };
                    db.two_account_commit(&a, &b, |_a, _b| Ok(()), rows).unwrap();
                }
            }
            let mut windows = drawn;
            windows.extend([(0, u64::MAX), (20, u64::MAX), (7, 7), (30, 10), (u64::MAX, u64::MAX)]);
            assert_index_matches_oracle(&db, &ids, &windows);
            let digest = db.state_digest();
            let db = reopen(db, &cfg);
            assert_index_matches_oracle(&db, &ids, &windows);
            prop_assert_eq!(db.state_digest(), digest);
            let _ = std::fs::remove_dir_all(&cfg.dir);
        }
    }

    #[test]
    fn kill_and_reopen_reconstructs_state() {
        let (db, cfg) = scratch_db("reconstruct");
        let ra = record(&db, "/CN=a", 100);
        let rb = record(&db, "/CN=b", 50);
        let rc = record(&db, "/CN=c", 10);
        let (ida, idb, idc) = (ra.id, rb.id, rc.id);
        for r in [ra, rb, rc] {
            db.insert_account(r).unwrap();
        }
        db.with_two_accounts_mut(&ida, &idb, |a, b| {
            a.available = a.available.checked_sub(Credits::from_gd(30))?;
            b.available = b.available.checked_add(Credits::from_gd(30))?;
            Ok(())
        })
        .unwrap();
        db.with_account_mut(&idc, |c| {
            c.locked = Credits::from_gd(5);
            c.available = c.available.checked_sub(Credits::from_gd(5))?;
            Ok(())
        })
        .unwrap();
        let row = TransactionRecord {
            transaction_id: db.allocate_transaction_id(),
            account: ida,
            tx_type: TransactionType::Transfer,
            date_ms: 1,
            amount: Credits::from_gd(-30),
        };
        db.one_account_commit(&ida, |_| Ok(((), Some(row)))).unwrap();
        db.remove_account(&idc).unwrap();

        let (accounts, funds) = (db.all_accounts(), db.total_funds());
        let rebuilt = reopen(db, &cfg);
        assert_eq!(rebuilt.all_accounts(), accounts);
        assert_eq!(rebuilt.account_count(), 2);
        assert_eq!(rebuilt.total_funds(), funds);
        assert_eq!(rebuilt.transactions_in_range(&ida, 0, 10).len(), 1);
        // Id allocation resumes past the recovered maximum — past the
        // removed account's number too, never re-issuing it.
        assert!(rebuilt.allocate_account_id().number > idc.number);
        assert!(rebuilt.allocate_transaction_id() > 1);
        // Removed account's cert can be reused after the restart.
        assert!(!rebuilt.subject_known("/CN=c"));
    }

    #[test]
    fn idem_cache_remembers_evicts_and_survives_a_restart() {
        let (db, cfg) = scratch_db("idem");
        assert_eq!(db.idem_lookup("/CN=a", 7), None);
        db.idem_record("/CN=a", 7, vec![1, 2]);
        assert_eq!(db.idem_lookup("/CN=a", 7), Some(vec![1, 2]));
        // Keys are scoped per caller certificate.
        assert_eq!(db.idem_lookup("/CN=b", 7), None);
        // Upgrade replaces the cached bytes without another journal row.
        let journal_len = db.journal_len();
        db.idem_upgrade("/CN=a", 7, vec![9]);
        assert_eq!(db.idem_lookup("/CN=a", 7), Some(vec![9]));
        assert_eq!(db.journal_len(), journal_len);
        // A restart repopulates the cache (with the journaled bytes).
        let db = reopen(db, &cfg);
        assert_eq!(db.idem_lookup("/CN=a", 7), Some(vec![1, 2]));
        // FIFO eviction at the capacity bound.
        db.set_idem_capacity(2);
        db.idem_record("/CN=a", 8, vec![]);
        db.idem_record("/CN=a", 9, vec![]);
        assert_eq!(db.idem_lookup("/CN=a", 7), None);
        assert!(db.idem_lookup("/CN=a", 9).is_some());
        // Capacity 0 disables the cache entirely.
        db.set_idem_capacity(0);
        assert_eq!(db.idem_lookup("/CN=a", 9), None);
        db.idem_record("/CN=a", 10, vec![3]);
        assert_eq!(db.idem_lookup("/CN=a", 10), None);
    }

    #[test]
    fn recovery_keeps_every_stamp_until_the_configured_capacity_is_known() {
        // A bank configured above the default bound remembers N keys
        // live; recovery must not trim them to the default before
        // `set_idem_capacity` runs, or a retry of an older key re-applies.
        let (db, cfg) = scratch_db("idem-capacity");
        db.set_idem_capacity(6_000);
        (0..5_000u64).for_each(|key| db.idem_record("/CN=a", key, vec![1]));
        let digest = db.state_digest();
        let db = reopen(db, &cfg);
        db.set_idem_capacity(6_000);
        assert_eq!(db.idem_lookup("/CN=a", 0), Some(vec![1]), "the oldest stamp was evicted");
        assert_eq!(db.state_digest(), digest);
        // The bound still binds once it is set.
        db.set_idem_capacity(10);
        assert_eq!(db.idem_lookup("/CN=a", 4_989), None);
        assert!(db.idem_lookup("/CN=a", 4_990).is_some());
    }

    #[test]
    fn two_account_commit_batches_rows_atomically() {
        let (db, cfg) = scratch_db("batch-order");
        let ra = record(&db, "/CN=a", 10);
        let rb = record(&db, "/CN=b", 0);
        let (ida, idb) = (ra.id, rb.id);
        db.insert_account(ra).unwrap();
        db.insert_account(rb).unwrap();
        let txid = db.allocate_transaction_id();
        let rows = CommitRows {
            transactions: vec![TransactionRecord {
                transaction_id: txid,
                account: ida,
                tx_type: TransactionType::Transfer,
                date_ms: 5,
                amount: Credits::from_gd(-4),
            }],
            transfer: Some(TransferRecord {
                transaction_id: txid,
                date_ms: 5,
                drawer: ida,
                amount: Credits::from_gd(4),
                recipient: idb,
                rur_blob: vec![],
                trace_id: 0,
            }),
            idem: Some(IdemStamp { cert: "/CN=a".into(), key: 42, response: vec![7] }),
            ib_out: None,
        };
        db.two_account_commit(
            &ida,
            &idb,
            |a, b| {
                a.available = a.available.checked_sub(Credits::from_gd(4))?;
                b.available = b.available.checked_add(Credits::from_gd(4))?;
                Ok(())
            },
            rows,
        )
        .unwrap();
        assert_eq!(db.idem_lookup("/CN=a", 42), Some(vec![7]));
        assert!(db.transfer_by_id(txid).is_some());
        assert_eq!(db.transactions_in_range(&ida, 0, 100).len(), 1);
        // A failed mutation commits none of the rows.
        let before = db.journal_len();
        let bad = db.two_account_commit(
            &ida,
            &idb,
            |_a, _b| Err::<(), _>(BankError::NonPositiveAmount),
            CommitRows {
                idem: Some(IdemStamp { cert: "/CN=a".into(), key: 43, response: vec![] }),
                ..CommitRows::default()
            },
        );
        assert!(bad.is_err());
        assert_eq!(db.journal_len(), before);
        assert_eq!(db.idem_lookup("/CN=a", 43), None);
        // The journal batch is contiguous: updates, rows, then the stamp.
        drop(db);
        let journal = journal_of(&cfg);
        let batch = &journal[journal.len() - 5..];
        assert!(matches!(&batch[0], JournalEntry::Update(r) if r.id == ida));
        assert!(matches!(&batch[1], JournalEntry::Update(r) if r.id == idb));
        assert!(matches!(batch[2], JournalEntry::Transaction(_)));
        assert!(matches!(batch[3], JournalEntry::Transfer(_)));
        assert!(matches!(batch[4], JournalEntry::Idem { key: 42, .. }));
    }

    #[test]
    fn group_commit_coalesces_concurrent_transfers() {
        let (db, cfg) = scratch_db("grouped");
        db.set_group_commit(GroupCommitConfig { max_batch: 8, max_delay_micros: 500 });
        let mut ids = Vec::new();
        for i in 0..8 {
            let r = record(&db, &format!("/CN=gc{i}"), 100);
            ids.push(r.id);
            db.insert_account(r).unwrap();
        }
        // Four threads transfer over disjoint account pairs, so every
        // interleaving of their grouped batches is order-equivalent.
        std::thread::scope(|s| {
            for pair in ids.chunks(2) {
                let (a, b) = (pair[0], pair[1]);
                let db = &db;
                s.spawn(move || {
                    for _ in 0..25 {
                        db.with_two_accounts_mut(&a, &b, |ra, rb| {
                            ra.available = ra.available.checked_sub(Credits::from_gd(1))?;
                            rb.available = rb.available.checked_add(Credits::from_gd(1))?;
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(db.total_funds(), Credits::from_gd(800));
        // Every batch reached the journal and recovery agrees with live
        // state — grouping changed journal-lock traffic, not contents.
        let (accounts, funds) = (db.all_accounts(), db.total_funds());
        let rebuilt = reopen(db, &cfg);
        assert_eq!(rebuilt.all_accounts(), accounts);
        assert_eq!(rebuilt.total_funds(), funds);
    }

    #[test]
    fn group_commit_disabled_appends_directly() {
        let (db, cfg) = scratch_db("ungrouped");
        db.set_group_commit(GroupCommitConfig { max_batch: 1, max_delay_micros: 10_000 });
        let ra = record(&db, "/CN=a", 10);
        let rb = record(&db, "/CN=b", 0);
        let (ida, idb) = (ra.id, rb.id);
        db.insert_account(ra).unwrap();
        db.insert_account(rb).unwrap();
        let before = db.journal_len();
        db.with_two_accounts_mut(&ida, &idb, |a, b| {
            a.available = a.available.checked_sub(Credits::from_gd(1))?;
            b.available = b.available.checked_add(Credits::from_gd(1))?;
            Ok(())
        })
        .unwrap();
        assert_eq!(db.journal_len(), before + 2);
        let accounts = db.all_accounts();
        assert_eq!(reopen(db, &cfg).all_accounts(), accounts);
    }

    #[test]
    fn failed_group_member_is_split_out_without_journal_rows() {
        let (db, cfg) = scratch_db("split-out");
        db.set_group_commit(GroupCommitConfig { max_batch: 4, max_delay_micros: 2_000 });
        let accounts: Vec<_> = [100i64, 100, 100, 100, 0, 100]
            .iter()
            .enumerate()
            .map(|(i, gd)| {
                let r = record(&db, &format!("/CN=m{i}"), *gd);
                db.insert_account(r.clone()).unwrap();
                r.id
            })
            .collect();
        let poor = accounts[4];
        let (a0, a1, a2, a3, a5) =
            (accounts[0], accounts[1], accounts[2], accounts[3], accounts[5]);
        // Three committers race into one group; the broke member must
        // fail without contributing journal rows while the others' rows
        // commit (abort-or-split, not abort-the-group).
        std::thread::scope(|s| {
            let db = &db;
            s.spawn(move || {
                db.with_two_accounts_mut(&a0, &a1, |a, b| {
                    a.available = a.available.checked_sub(Credits::from_gd(10))?;
                    b.available = b.available.checked_add(Credits::from_gd(10))?;
                    Ok(())
                })
                .unwrap();
            });
            s.spawn(move || {
                db.with_two_accounts_mut(&a2, &a3, |a, b| {
                    a.available = a.available.checked_sub(Credits::from_gd(10))?;
                    b.available = b.available.checked_add(Credits::from_gd(10))?;
                    Ok(())
                })
                .unwrap();
            });
            s.spawn(move || {
                let out = db.with_two_accounts_mut(&poor, &a5, |a, b| {
                    let amount = Credits::from_gd(10);
                    if a.spendable() < amount {
                        return Err(BankError::InsufficientFunds {
                            account: a.id,
                            needed: amount,
                            spendable: a.spendable(),
                        });
                    }
                    a.available = a.available.checked_sub(amount)?;
                    b.available = b.available.checked_add(amount)?;
                    Ok(())
                });
                assert!(matches!(out, Err(BankError::InsufficientFunds { .. })));
            });
        });
        // The failed member left no Update rows; recovery can't
        // resurrect a half-applied transfer.
        assert_eq!(db.get_account(&poor).unwrap().available, Credits::ZERO);
        let accounts = db.all_accounts();
        drop(db);
        let journal = journal_of(&cfg);
        assert!(!journal.iter().any(|e| matches!(e, JournalEntry::Update(r) if r.id == poor)));
        assert_eq!(Database::open(1, 1, cfg).unwrap().0.all_accounts(), accounts);
    }

    #[test]
    fn ib_pending_tracks_acks_and_survives_restarts() {
        let (db, cfg) = scratch_db("ib-pending");
        let ra = record(&db, "/CN=a", 10);
        let rb = record(&db, "/CN=clearing", 0);
        let (ida, idb) = (ra.id, rb.id);
        db.insert_account(ra).unwrap();
        db.insert_account(rb).unwrap();
        let credit = PendingIbCredit {
            key: 0xC0FFEE,
            to: AccountId::new(1, 2, 5),
            amount: Credits::from_gd(4),
            origin: 1,
            drawer: ida,
            idem: Some(("/CN=a".into(), 77)),
        };
        db.two_account_commit(
            &ida,
            &idb,
            |a, b| {
                a.available = a.available.checked_sub(Credits::from_gd(4))?;
                b.available = b.available.checked_add(Credits::from_gd(4))?;
                Ok(())
            },
            CommitRows { ib_out: Some(credit.clone()), ..CommitRows::default() },
        )
        .unwrap();
        assert_eq!(db.ib_pending_snapshot(), vec![credit.clone()]);
        // A crash here re-ships the credit: recovery rebuilds the set.
        let db = reopen(db, &cfg);
        assert_eq!(db.ib_pending_snapshot(), vec![credit]);
        // Invalidation journals an IdemDrop that recovery honors.
        db.idem_record("/CN=a", 77, vec![1]);
        assert!(db.idem_lookup("/CN=a", 77).is_some());
        db.idem_invalidate("/CN=a", 77);
        assert!(db.idem_lookup("/CN=a", 77).is_none());
        let db = reopen(db, &cfg);
        assert!(db.idem_lookup("/CN=a", 77).is_none());
        // Acking removes it, is journaled, and is idempotent.
        assert!(db.ib_ack(0xC0FFEE));
        assert!(!db.ib_ack(0xC0FFEE));
        assert!(db.ib_pending_snapshot().is_empty());
        assert!(reopen(db, &cfg).ib_pending_snapshot().is_empty());
    }

    #[test]
    fn total_funds_sums_available_and_locked() {
        let db = Database::new(1, 1);
        let mut r = record(&db, "/CN=a", 10);
        r.locked = Credits::from_gd(4);
        db.insert_account(r).unwrap();
        db.insert_account(record(&db, "/CN=b", 1)).unwrap();
        assert_eq!(db.total_funds(), Credits::from_gd(15));
    }

    #[test]
    fn concurrent_transfers_preserve_total() {
        let db = std::sync::Arc::new(Database::new(1, 1));
        let mut ids = Vec::new();
        for i in 0..8 {
            let r = record(&db, &format!("/CN=u{i}"), 100);
            ids.push(r.id);
            db.insert_account(r).unwrap();
        }
        let before = db.total_funds();
        std::thread::scope(|s| {
            for t in 0..8 {
                let db = db.clone();
                let ids = ids.clone();
                s.spawn(move || {
                    for k in 0..200 {
                        let from = ids[(t + k) % ids.len()];
                        let to = ids[(t + k + 1 + k % 5) % ids.len()];
                        if from == to {
                            continue;
                        }
                        let _ = db.with_two_accounts_mut(&from, &to, |a, b| {
                            let amt = Credits::from_micro(1_000);
                            a.available = a.available.checked_sub(amt)?;
                            b.available = b.available.checked_add(amt)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(db.total_funds(), before);
    }
}

// ---------------------------------------------------------------------------
// Loom model: the group-commit queue under concurrent submitters.
// ---------------------------------------------------------------------------
//
// Built only under `RUSTFLAGS="--cfg loom"`: `crate::sync` swaps to the
// vendored yield-injecting primitives and these models hammer
// `CommitQueue::submit` across many randomized interleavings (see
// docs/STATIC_ANALYSIS.md for how bounded the exploration is).

#[cfg(all(loom, test))]
mod loom_model {
    use super::*;
    use crate::store::{open_store, StoreConfig};
    use std::sync::Arc;

    /// A journal entry tagged so it can be tracked through a flush.
    fn entry(tag: u64) -> JournalEntry {
        JournalEntry::Transaction(TransactionRecord {
            transaction_id: tag,
            account: AccountId::new(1, 1, 1),
            tx_type: TransactionType::Transfer,
            date_ms: 0,
            amount: Credits::ZERO,
        })
    }

    fn tag_of(e: &JournalEntry) -> u64 {
        match e {
            JournalEntry::Transaction(t) => t.transaction_id,
            other => panic!("unexpected journal entry {other:?}"),
        }
    }

    /// Three submitters, two 2-entry batches each, `max_batch = 2`: the
    /// queue must run several flush rounds with leader handoff in
    /// between. Every batch must land exactly once, stay contiguous,
    /// and batches from one submitter must land in submission order.
    #[test]
    fn group_commit_loses_nothing_and_keeps_batches_contiguous() {
        loom::model(|| {
            let queue = Arc::new(CommitQueue::new());
            *queue.config.lock() = GroupCommitConfig { max_batch: 2, max_delay_micros: 50 };
            // The real sink: a scratch store's disk log, read back below.
            let cfg = StoreConfig::scratch("loom-queue");
            let (_empty, log) = open_store(1, 1, cfg.clone()).expect("open scratch store");
            let journal = Arc::new(JournalStore { disk: Some(log), ..JournalStore::memory() });

            let handles: Vec<_> = (0..3u64)
                .map(|t| {
                    let queue = Arc::clone(&queue);
                    let journal = Arc::clone(&journal);
                    loom::thread::spawn(move || {
                        for b in 0..2u64 {
                            let batch = t * 2 + b;
                            queue.submit(vec![entry(batch * 2), entry(batch * 2 + 1)], &journal);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("submitter thread");
            }

            drop(journal);
            let (state, _log) = open_store(1, 1, cfg.clone()).expect("read scratch store");
            let _ = std::fs::remove_dir_all(&cfg.dir);
            let tags: Vec<u64> = state.tail.iter().map(|(_lsn, e)| tag_of(e)).collect();
            assert_eq!(tags.len(), 12, "lost or duplicated entries: {tags:?}");
            let mut sorted = tags.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..12).collect::<Vec<_>>(), "entry set mangled: {tags:?}");
            // Batches are contiguous: each even tag is immediately
            // followed by its odd partner (submit promises a single
            // journal acquisition per group, batch by batch).
            for pair in tags.chunks(2) {
                assert_eq!(pair[0] % 2, 0, "batch boundary misaligned: {tags:?}");
                assert_eq!(pair[1], pair[0] + 1, "batch split across flushes: {tags:?}");
            }
            // Submitter order: thread t's first batch (first tag 4t)
            // precedes its second (first tag 4t + 2).
            let pos = |tag: u64| tags.iter().position(|&x| x == tag).expect("tag present");
            for t in 0..3u64 {
                assert!(pos(t * 4) < pos(t * 4 + 2), "submitter {t} batches reordered: {tags:?}");
            }
        });
    }

    /// A lone submitter with a large `max_batch` must not deadlock
    /// waiting for a group that can never form: the linger loop is
    /// bounded by the live-writer count, so a single writer flushes
    /// immediately.
    #[test]
    fn lone_submitter_flushes_without_lingering() {
        loom::model(|| {
            let queue = Arc::new(CommitQueue::new());
            // Deadline long enough that an accidental linger would make
            // the model run visibly slow rather than racing past it.
            *queue.config.lock() = GroupCommitConfig { max_batch: 64, max_delay_micros: 100_000 };
            let journal = Arc::new(JournalStore::memory());
            let h = {
                let queue = Arc::clone(&queue);
                let journal = Arc::clone(&journal);
                loom::thread::spawn(move || queue.submit(vec![entry(1)], &journal))
            };
            h.join().expect("submitter thread");
            assert_eq!(journal.appended.lock().entries, 1);
        });
    }

    fn funded_account(db: &Database, cert: &str, gd: i64) -> AccountRecord {
        AccountRecord {
            id: db.allocate_account_id(),
            certificate_name: cert.to_string(),
            organization: None,
            available: Credits::from_gd(gd),
            locked: Credits::ZERO,
            currency: "GridDollar".into(),
            credit_limit: Credits::ZERO,
        }
    }

    /// A snapshot racing a commit: the snapshot cut must land each
    /// update either *in* the snapshot or *past* it
    /// in the replay tail — a reopened store always converges to the
    /// live digest, never double-applies, never loses a deposit.
    #[test]
    fn snapshot_during_commit_replays_to_the_live_digest() {
        loom::model(|| {
            // No power-failure drill here — the model probes lock/cut
            // interleavings, not fsync ordering (L8 covers that).
            let cfg = StoreConfig::scratch("loom-snap");
            let (db, _report) = Database::open(1, 1, cfg.clone()).expect("open scratch store");
            let rec = funded_account(&db, "/CN=loom-snap", 100);
            let id = rec.id;
            db.insert_account(rec).expect("insert");

            let db = Arc::new(db);
            let depositor = {
                let db = Arc::clone(&db);
                loom::thread::spawn(move || {
                    for _ in 0..2 {
                        db.with_account_mut(&id, |a| {
                            a.available = a.available.checked_add(Credits::from_gd(1))?;
                            Ok(())
                        })
                        .expect("deposit");
                    }
                })
            };
            let snapshotter = {
                let db = Arc::clone(&db);
                loom::thread::spawn(move || db.snapshot_all().map(drop).expect("snapshot"))
            };
            depositor.join().expect("depositor thread");
            snapshotter.join().expect("snapshot thread");

            let live_digest = db.state_digest();
            let live_funds = db.total_funds();
            assert_eq!(live_funds, Credits::from_gd(102), "deposit lost or doubled");
            drop(db);

            let (reopened, _report) =
                Database::open(1, 1, cfg.clone()).expect("reopen scratch store");
            assert_eq!(reopened.state_digest(), live_digest, "replay diverged from live state");
            assert_eq!(reopened.total_funds(), live_funds);
            let _ = std::fs::remove_dir_all(&cfg.dir);
        });
    }

    /// A transfer racing store compaction: the transfer's commit and
    /// compaction's marker-then-delete protocol must interleave without
    /// deadlock, conservation breaks, or a recovery gap (the COMPACTED
    /// marker never outruns a snapshot that covers it).
    #[test]
    fn transfer_vs_compaction_conserves_and_recovers() {
        loom::model(|| {
            let cfg = StoreConfig { retain_snapshots: 1, ..StoreConfig::scratch("loom-compact") };
            let (db, _report) = Database::open(1, 1, cfg.clone()).expect("open scratch store");
            let payer = funded_account(&db, "/CN=loom-payer", 100);
            let payee = funded_account(&db, "/CN=loom-payee", 50);
            let (pay_from, pay_to) = (payer.id, payee.id);
            db.insert_account(payer).expect("insert payer");
            db.insert_account(payee).expect("insert payee");
            // Seed a snapshot generation so compaction has a covered
            // prefix to mark and prune behind.
            db.snapshot_all().expect("seed snapshots");

            let db = Arc::new(db);
            let transferrer = {
                let db = Arc::clone(&db);
                loom::thread::spawn(move || {
                    db.with_two_accounts_mut(&pay_from, &pay_to, |a, b| {
                        a.available = a.available.checked_sub(Credits::from_gd(30))?;
                        b.available = b.available.checked_add(Credits::from_gd(30))?;
                        Ok(())
                    })
                    .expect("transfer");
                })
            };
            let compactor = {
                let db = Arc::clone(&db);
                loom::thread::spawn(move || {
                    db.compact_store().expect("compact");
                })
            };
            transferrer.join().expect("transfer thread");
            compactor.join().expect("compactor thread");

            let live_digest = db.state_digest();
            let live_funds = db.total_funds();
            assert_eq!(live_funds, Credits::from_gd(150), "transfer broke conservation");
            assert_eq!(db.get_account(&pay_from).expect("payer").available, Credits::from_gd(70));
            drop(db);

            let (reopened, _report) =
                Database::open(1, 1, cfg.clone()).expect("reopen scratch store");
            assert_eq!(reopened.state_digest(), live_digest, "replay diverged from live state");
            assert_eq!(reopened.total_funds(), live_funds);
            let _ = std::fs::remove_dir_all(&cfg.dir);
        });
    }

    /// A keyed cross-branch payment — a two-account commit carrying its
    /// history rows, an idempotency stamp and an `IbOut` credit — racing
    /// a checkpoint. Rows, stamp and credit enter their tables (each
    /// behind a lock of its own, taken inside the accounts lock) before
    /// the batch is journaled, so a snapshot may carry them only when the
    /// batch's LSNs are at or below its cut. One that is in the snapshot
    /// *and* in the tail past it was captured ahead of its journal entry:
    /// a crash before the append would have kept a stamp for a payment
    /// that never committed (ROADMAP item 1 (vii), possible while a stamp
    /// sat on a shard its committer did not hold).
    #[test]
    fn snapshot_during_keyed_commit_never_runs_ahead_of_the_journal() {
        loom::model(|| {
            let cfg = StoreConfig::scratch("loom-stamp");
            let (db, _report) = Database::open(1, 1, cfg.clone()).expect("open scratch store");
            let payer = funded_account(&db, "/CN=loom-payer", 10);
            let clearing = funded_account(&db, "/CN=loom-clearing", 0);
            let (from, to) = (payer.id, clearing.id);
            db.insert_account(payer).expect("insert payer");
            db.insert_account(clearing).expect("insert clearing");
            let db = Arc::new(db);
            let committer = {
                let db = Arc::clone(&db);
                loom::thread::spawn(move || {
                    let rows = CommitRows {
                        transactions: vec![TransactionRecord {
                            transaction_id: 1,
                            account: from,
                            tx_type: TransactionType::Transfer,
                            date_ms: 1,
                            amount: Credits::from_gd(-4),
                        }],
                        transfer: Some(TransferRecord {
                            transaction_id: 1,
                            date_ms: 1,
                            drawer: from,
                            amount: Credits::from_gd(4),
                            recipient: to,
                            rur_blob: vec![],
                            trace_id: 0,
                        }),
                        idem: Some(IdemStamp {
                            cert: "/CN=loom-payer".into(),
                            key: 7,
                            response: vec![1],
                        }),
                        ib_out: Some(PendingIbCredit {
                            key: 0xC0FFEE,
                            to: AccountId::new(1, 2, 5),
                            amount: Credits::from_gd(4),
                            origin: 1,
                            drawer: from,
                            idem: Some(("/CN=loom-payer".into(), 7)),
                        }),
                    };
                    let park = |a: &mut AccountRecord, b: &mut AccountRecord| {
                        a.available = a.available.checked_sub(Credits::from_gd(4))?;
                        b.available = b.available.checked_add(Credits::from_gd(4))?;
                        Ok(())
                    };
                    db.two_account_commit(&from, &to, park, rows).expect("payment");
                })
            };
            let snapshotter = {
                let db = Arc::clone(&db);
                loom::thread::spawn(move || db.snapshot_all().map(drop).expect("snapshot"))
            };
            committer.join().expect("committer thread");
            snapshotter.join().expect("snapshot thread");
            drop(db);

            let (state, _log) = open_store(1, 1, cfg.clone()).expect("read scratch store");
            let _ = std::fs::remove_dir_all(&cfg.dir);
            let replayed = |wanted: fn(&JournalEntry) -> bool| {
                state.tail.iter().any(|(lsn, e)| *lsn > state.base.through_lsn && wanted(e))
            };
            assert!(
                state.base.transactions.is_empty()
                    || !replayed(|e| matches!(e, JournalEntry::Transaction(_))),
                "the snapshot holds a transaction row its cut does not cover"
            );
            assert!(
                state.base.transfers.is_empty()
                    || !replayed(|e| matches!(e, JournalEntry::Transfer(_))),
                "the snapshot holds a transfer row its cut does not cover"
            );
            assert!(
                state.base.idem.is_empty() || !replayed(|e| matches!(e, JournalEntry::Idem { .. })),
                "the snapshot holds a stamp its cut does not cover"
            );
            assert!(
                state.base.pending.is_empty() || !replayed(|e| matches!(e, JournalEntry::IbOut(_))),
                "the snapshot holds a pending credit its cut does not cover"
            );
        });
    }

    /// Kills `db` and reopens its store; the credited balance and the
    /// funds total must have reached the journal in an order that
    /// replays to them.
    fn assert_survives_a_restart(db: Arc<Database>, cfg: &StoreConfig, id: AccountId, gd: i64) {
        let funds = db.total_funds();
        assert_eq!(db.get_account(&id).expect("live account").available, Credits::from_gd(gd));
        drop(db);
        let (reopened, _report) = Database::open(1, 1, cfg.clone()).expect("reopen scratch store");
        let replayed = reopened.get_account(&id).expect("replayed account").available;
        assert_eq!(replayed, Credits::from_gd(gd), "the credit vanished across the restart");
        assert_eq!(reopened.total_funds(), funds);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    /// Credits `id` with G$5 as soon as the account can be found.
    fn credit_when_found(db: &Database, id: AccountId) {
        let credit = |a: &mut AccountRecord| {
            a.available = a.available.checked_add(Credits::from_gd(5))?;
            Ok(())
        };
        while let Err(e) = db.with_account_mut(&id, credit) {
            assert!(matches!(e, BankError::NoSuchAccount(_)), "credit failed: {e}");
            loom::thread::yield_now();
        }
    }

    /// An account's creation racing its first credit: whoever finds the
    /// account must journal after its `Create`, or replay ends on the
    /// creation-time record.
    #[test]
    fn account_creation_vs_first_credit_replays_the_credit() {
        loom::model(|| {
            let cfg = StoreConfig::scratch("loom-create");
            let (db, _report) = Database::open(1, 1, cfg.clone()).expect("open scratch store");
            let rec = funded_account(&db, "/CN=loom-new", 0);
            let id = rec.id;
            let db = Arc::new(db);
            let creator = {
                let db = Arc::clone(&db);
                loom::thread::spawn(move || db.insert_account(rec).expect("insert"))
            };
            let payer = {
                let db = Arc::clone(&db);
                loom::thread::spawn(move || credit_when_found(&db, id))
            };
            creator.join().expect("creator thread");
            payer.join().expect("payer thread");
            assert_survives_a_restart(db, &cfg, id, 5);
        });
    }

    /// A certificate rename racing a credit to the same account: the
    /// rename must carry the balance it finds under the lock, in memory
    /// and in the journal.
    #[test]
    fn rename_vs_credit_keeps_the_credit() {
        loom::model(|| {
            let cfg = StoreConfig::scratch("loom-rename");
            let (db, _report) = Database::open(1, 1, cfg.clone()).expect("open scratch store");
            let rec = funded_account(&db, "/CN=loom-old-name", 10);
            let id = rec.id;
            db.insert_account(rec.clone()).expect("insert");
            let db = Arc::new(db);
            let renamer = {
                let accounts =
                    crate::accounts::GbAccounts::new(Arc::clone(&db), Default::default());
                let renamed = AccountRecord { certificate_name: "/CN=loom-new-name".into(), ..rec };
                loom::thread::spawn(move || accounts.update_details(&renamed).expect("rename"))
            };
            let payer = {
                let db = Arc::clone(&db);
                loom::thread::spawn(move || credit_when_found(&db, id))
            };
            renamer.join().expect("renamer thread");
            payer.join().expect("payer thread");
            assert!(
                db.subject_known("/CN=loom-new-name") && !db.subject_known("/CN=loom-old-name")
            );
            assert_survives_a_restart(db, &cfg, id, 15);
        });
    }

    /// A snapshot racing a two-account commit with its audit rows: the
    /// rows are visible in the tables only while the committer holds the
    /// accounts lock through its journal append, so the snapshot has
    /// them *or* the tail replays them — never both (a duplicated row,
    /// PR 11's digest finding), never neither.
    #[test]
    fn snapshot_during_transfer_replays_each_row_once() {
        loom::model(|| {
            let cfg = StoreConfig::scratch("loom-rows");
            let (db, _report) = Database::open(1, 1, cfg.clone()).expect("open scratch store");
            let (payer, payee) =
                (funded_account(&db, "/CN=a", 10), funded_account(&db, "/CN=b", 0));
            let (from, to) = (payer.id, payee.id);
            db.insert_account(payer).expect("insert payer");
            db.insert_account(payee).expect("insert payee");
            let row = TransactionRecord {
                transaction_id: db.allocate_transaction_id(),
                account: from,
                tx_type: TransactionType::Transfer,
                date_ms: 1,
                amount: Credits::from_gd(-1),
            };
            let db = Arc::new(db);
            let transferrer = {
                let db = Arc::clone(&db);
                loom::thread::spawn(move || {
                    let rows = CommitRows { transactions: vec![row], ..CommitRows::default() };
                    db.two_account_commit(&from, &to, |_a, _b| Ok(()), rows).expect("transfer");
                })
            };
            let snapshotter = {
                let db = Arc::clone(&db);
                loom::thread::spawn(move || db.snapshot_all().map(drop).expect("snapshot"))
            };
            transferrer.join().expect("transfer thread");
            snapshotter.join().expect("snapshot thread");
            let live_digest = db.state_digest();
            drop(db);
            let (reopened, _report) =
                Database::open(1, 1, cfg.clone()).expect("reopen scratch store");
            assert_eq!(
                reopened.transactions_in_range(&from, 0, 10).len(),
                1,
                "row lost or doubled"
            );
            assert_eq!(reopened.state_digest(), live_digest);
            let _ = std::fs::remove_dir_all(&cfg.dir);
        });
    }
}
