//! The on-disk storage engine behind [`crate::db::Database`].
//!
//! The paper's GridBank server sits on a persistent DBMS (§3.2); this
//! module is the durable substrate of our embedded substitute. State is
//! **account-sharded**: every journal entry is routed to exactly one of
//! the [`crate::db`] shards (by account id, caller certificate, or
//! cross-branch credit key), and each shard owns its own directory of
//! rotating, checksummed **journal segment files** plus periodic
//! **snapshot files**. Crash recovery loads the newest valid snapshot
//! per shard and replays only the journal tail past it, so
//! restart-to-serving time is bounded by the tail length — not by the
//! full history. Compaction deletes segments the snapshots have made
//! redundant.
//!
//! Byte-level file formats, the durability contract, the recovery state
//! machine, and the compaction invariants are documented in
//! `docs/STORAGE.md`; this module is their implementation. The engine
//! is deliberately dependency-free: plain `std::fs`, the workspace's
//! own [`gridbank_rur::codec`] framing, and an FNV-1a checksum.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use gridbank_rur::codec::{ByteReader, ByteWriter, Decode, Encode};
use gridbank_rur::RurError;

use crate::db::{
    entry_shard, AccountRecord, JournalEntry, PendingIbCredit, TransactionRecord, TransferRecord,
    SHARDS,
};
use crate::error::BankError;
use crate::sync::{rank, AtomicBool, AtomicU64, OrderedMutex, Ordering};

/// Store format version; bumped on any incompatible layout change.
pub const FORMAT_VERSION: u32 = 2;

const MANIFEST_MAGIC: u32 = 0x4742_4D46; // "GBMF"
const SEGMENT_MAGIC: u32 = 0x4742_5347; // "GBSG"
const SNAPSHOT_MAGIC: u32 = 0x4742_534E; // "GBSN"
const COMPACTED_MAGIC: u32 = 0x4742_4354; // "GBCT"

/// Segment record frame overhead: `len: u32` + `check: u64`.
const FRAME_HEADER: usize = 12;
/// Segment file header size: magic + version + shard + first_lsn.
const SEGMENT_HEADER: usize = 20;

/// Tuning for the on-disk store.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Root directory; created on first open.
    pub dir: PathBuf,
    /// `fsync` segment appends and snapshot files. `true` is the
    /// durability contract of docs/STORAGE.md §3; `false` trades the
    /// power-failure guarantee for speed (process-crash durability is
    /// retained either way because the OS holds the written pages).
    pub fsync: bool,
    /// Rotate a shard's active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// [`crate::db::Database::maybe_checkpoint`] snapshots a shard once
    /// this many entries accumulated in its journal tail.
    pub snapshot_every: u64,
    /// Snapshot generations kept per shard (≥ 1). Compaction only drops
    /// segments already covered by the *oldest retained* snapshot, so a
    /// torn newest snapshot can always fall back one generation.
    pub retain_snapshots: usize,
}

impl StoreConfig {
    /// A config rooted at `dir` with production defaults.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            fsync: true,
            segment_bytes: 8 * 1024 * 1024,
            snapshot_every: 10_000,
            retain_snapshots: 2,
        }
    }

    /// Disables `fsync` (benchmarks, bulk loads, tests).
    pub fn no_fsync(mut self) -> Self {
        self.fsync = false;
        self
    }

    /// The one scratch store of tests, loom models and drills: a
    /// directory under the system temp dir unique to this process and
    /// call, emptied here; `fsync` off and no checkpoint unless the
    /// caller makes one (override fields with struct-update syntax).
    /// Opening it, dropping the bank and opening it again is how a test
    /// kills a bank — the recovery every durable deployment runs.
    #[doc(hidden)]
    pub fn scratch(tag: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gridbank-scratch-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        StoreConfig { snapshot_every: u64::MAX, ..StoreConfig::at(dir).no_fsync() }
    }
}

/// FNV-1a 64-bit over `bytes` — the store's corruption check (and the
/// ledger digest hash). Detection-grade, not cryptographic; the threat
/// model is torn writes and bit rot, not an adversary (docs/STORAGE.md §2).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn storage_err(context: &str, e: impl std::fmt::Display) -> BankError {
    BankError::Storage(format!("{context}: {e}"))
}

fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard:02}"))
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.gbj"))
}

fn snapshot_path(dir: &Path, through_lsn: u64) -> PathBuf {
    dir.join(format!("snap-{through_lsn:020}.gbs"))
}

/// Parses `prefix-<number>.<ext>` names back to their number.
fn parse_numbered(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(ext)?.parse().ok()
}

// ---------------------------------------------------------------------------
// Shard snapshot: the per-shard durable state image.
// ---------------------------------------------------------------------------

/// One consumed idempotency stamp inside a snapshot. `order` is the
/// stamp's database-wide sequence number — the same one its journal
/// `Idem` entry carries — so recovery restores the exact eviction order
/// across shards snapshotted at different times.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotIdem {
    /// Sequence number the stamp was recorded under.
    pub order: u64,
    /// Certificate name of the caller that consumed the key.
    pub cert: String,
    /// Client-generated idempotency key.
    pub key: u64,
    /// Remembered encoded response.
    pub response: Vec<u8>,
}

/// The durable image of one shard: every piece of [`crate::db::Database`]
/// state routed to it, plus the journal position (`through_lsn`) the
/// image is consistent with. Recovery = newest valid snapshot + replay
/// of the shard's journal entries with `lsn > through_lsn`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index the image belongs to.
    pub shard: u32,
    /// Every journal entry with `lsn <= through_lsn` routed to this
    /// shard is reflected in the image; entries past it are not.
    pub through_lsn: u64,
    /// Account-number allocator hint (max seen; recovery takes the max
    /// across shards and tail).
    pub next_account_hint: u32,
    /// Transaction-id allocator hint.
    pub next_tx_hint: u64,
    /// Account records homed on this shard, ordered by id.
    pub accounts: Vec<AccountRecord>,
    /// TRANSACTION rows whose account is homed here, in commit order.
    pub transactions: Vec<TransactionRecord>,
    /// TRANSFER rows whose drawer is homed here, in commit order.
    pub transfers: Vec<TransferRecord>,
    /// Idempotency stamps routed here (by certificate hash).
    pub idem: Vec<SnapshotIdem>,
    /// Unacknowledged cross-branch credits routed here (by key hash).
    pub pending: Vec<PendingIbCredit>,
}

impl ShardSnapshot {
    /// An empty image for `shard` at the journal's origin.
    pub fn empty(shard: u32) -> Self {
        ShardSnapshot {
            shard,
            through_lsn: 0,
            next_account_hint: 0,
            next_tx_hint: 0,
            accounts: Vec::new(),
            transactions: Vec::new(),
            transfers: Vec::new(),
            idem: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Serializes the snapshot (docs/STORAGE.md §2.3): header, the five
    /// sections, and a trailing FNV-1a checksum over everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w =
            ByteWriter::with_capacity(self.accounts.len().saturating_mul(96).saturating_add(256));
        w.put_u32(SNAPSHOT_MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u32(self.shard);
        w.put_u64(self.through_lsn);
        w.put_u32(self.next_account_hint);
        w.put_u64(self.next_tx_hint);
        w.put_u64(self.accounts.len() as u64);
        for r in &self.accounts {
            r.encode(&mut w);
        }
        w.put_u64(self.transactions.len() as u64);
        for t in &self.transactions {
            t.encode(&mut w);
        }
        w.put_u64(self.transfers.len() as u64);
        for t in &self.transfers {
            t.encode(&mut w);
        }
        w.put_u64(self.idem.len() as u64);
        for s in &self.idem {
            w.put_u64(s.order);
            w.put_str(&s.cert);
            w.put_u64(s.key);
            w.put_bytes(&s.response);
        }
        w.put_u64(self.pending.len() as u64);
        for p in &self.pending {
            // Reuse the journal codec: a pending credit is exactly the
            // payload of an `IbOut` entry.
            JournalEntry::IbOut(p.clone()).encode(&mut w);
        }
        let mut bytes = w.into_bytes();
        let check = fnv64(&bytes);
        bytes.extend_from_slice(&check.to_le_bytes());
        bytes
    }

    /// Parses and checksum-verifies a serialized snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardSnapshot, RurError> {
        if bytes.len() < 8 {
            return Err(RurError::Decode("snapshot too short".into()));
        }
        let (body, tail) = bytes.split_at(bytes.len().saturating_sub(8));
        let mut check = [0u8; 8];
        check.copy_from_slice(tail);
        if fnv64(body) != u64::from_le_bytes(check) {
            return Err(RurError::Decode("snapshot checksum mismatch".into()));
        }
        let mut r = ByteReader::new(body);
        if r.get_u32()? != SNAPSHOT_MAGIC {
            return Err(RurError::Decode("bad snapshot magic".into()));
        }
        let version = r.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(RurError::Decode(format!("unsupported snapshot version {version}")));
        }
        let shard = r.get_u32()?;
        let through_lsn = r.get_u64()?;
        let next_account_hint = r.get_u32()?;
        let next_tx_hint = r.get_u64()?;
        let bounded = |n: u64| -> Result<usize, RurError> {
            if n > 1 << 28 {
                return Err(RurError::Decode("snapshot section too large".into()));
            }
            Ok(n as usize)
        };
        let n = bounded(r.get_u64()?)?;
        let mut accounts = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            accounts.push(AccountRecord::decode(&mut r)?);
        }
        let n = bounded(r.get_u64()?)?;
        let mut transactions = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            transactions.push(TransactionRecord::decode(&mut r)?);
        }
        let n = bounded(r.get_u64()?)?;
        let mut transfers = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            transfers.push(TransferRecord::decode(&mut r)?);
        }
        let n = bounded(r.get_u64()?)?;
        let mut idem = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            idem.push(SnapshotIdem {
                order: r.get_u64()?,
                cert: r.get_str()?,
                key: r.get_u64()?,
                response: r.get_bytes()?.to_vec(),
            });
        }
        let n = bounded(r.get_u64()?)?;
        let mut pending = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            match JournalEntry::decode(&mut r)? {
                JournalEntry::IbOut(p) => pending.push(p),
                other => {
                    return Err(RurError::Decode(format!(
                        "snapshot pending section holds non-IbOut entry {other:?}"
                    )))
                }
            }
        }
        r.finish()?;
        Ok(ShardSnapshot {
            shard,
            through_lsn,
            next_account_hint,
            next_tx_hint,
            accounts,
            transactions,
            transfers,
            idem,
            pending,
        })
    }
}

// ---------------------------------------------------------------------------
// Frames: journal entries on disk.
// ---------------------------------------------------------------------------

/// One decoded segment record: its LSN, the commit batch it belongs to
/// (first LSN + length), and the entry itself. A commit batch is one
/// `JournalStore::append` call — a multi-shard transfer, or a whole
/// group-commit flush. Acknowledgement happens only after the entire
/// batch reached every touched shard, so recovery drops any batch with
/// a missing member (it was never acked) instead of half-applying it.
#[derive(Clone, Debug)]
struct FrameRecord {
    lsn: u64,
    batch_first: u64,
    batch_len: u32,
    /// Byte offset of this frame in its segment file — where a repair
    /// truncation cuts if the frame's batch turns out torn.
    offset: u64,
    entry: JournalEntry,
}

fn encode_frame(
    out: &mut Vec<u8>,
    lsn: u64,
    batch_first: u64,
    batch_len: u32,
    entry: &JournalEntry,
) {
    let mut w = ByteWriter::with_capacity(64);
    w.put_u64(lsn);
    w.put_u64(batch_first);
    w.put_u32(batch_len);
    entry.encode(&mut w);
    let body = w.into_bytes();
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(&body).to_le_bytes());
    out.extend_from_slice(&body);
}

/// Outcome of scanning one segment file's record stream.
struct SegmentScan {
    /// Decoded records, in file order (= LSN order).
    records: Vec<FrameRecord>,
    /// `true` when the scan stopped at a truncated or checksum-failed
    /// frame before the end of the file — a torn tail.
    torn: bool,
    /// Byte length of the valid prefix: the offset just past the last
    /// intact frame. Recovery truncates a torn final segment here.
    clean_len: u64,
}

/// Reads a segment file. A short/corrupt final frame ends the scan with
/// `torn = true`; a bad header is an error (the file is not a segment).
fn read_segment(path: &Path, expect_shard: u32) -> Result<SegmentScan, BankError> {
    let bytes = fs::read(path).map_err(|e| storage_err(&path.display().to_string(), e))?;
    if bytes.len() < SEGMENT_HEADER {
        // A segment created but never written past its header — or torn
        // inside the header itself. Treat as an empty torn segment.
        return Ok(SegmentScan { records: Vec::new(), torn: !bytes.is_empty(), clean_len: 0 });
    }
    let mut r = ByteReader::new(&bytes[..SEGMENT_HEADER]);
    let magic = r.get_u32().map_err(|e| storage_err("segment header", e))?;
    let version = r.get_u32().map_err(|e| storage_err("segment header", e))?;
    let shard = r.get_u32().map_err(|e| storage_err("segment header", e))?;
    let _first_lsn = r.get_u64().map_err(|e| storage_err("segment header", e))?;
    if magic != SEGMENT_MAGIC || version != FORMAT_VERSION || shard != expect_shard {
        return Err(BankError::Storage(format!(
            "{}: bad segment header (magic {magic:#x}, version {version}, shard {shard})",
            path.display()
        )));
    }
    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER;
    let mut torn = false;
    while pos < bytes.len() {
        let remaining = bytes.len().saturating_sub(pos);
        if remaining < FRAME_HEADER {
            torn = true;
            break;
        }
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&bytes[pos..pos.saturating_add(4)]);
        let len = u32::from_le_bytes(len4) as usize;
        let mut check8 = [0u8; 8];
        check8.copy_from_slice(&bytes[pos.saturating_add(4)..pos.saturating_add(12)]);
        let check = u64::from_le_bytes(check8);
        let body_start = pos.saturating_add(FRAME_HEADER);
        let body_end = body_start.saturating_add(len);
        if len == 0 || body_end > bytes.len() {
            torn = true;
            break;
        }
        let body = &bytes[body_start..body_end];
        if fnv64(body) != check {
            torn = true;
            break;
        }
        let mut br = ByteReader::new(body);
        let header = (br.get_u64(), br.get_u64(), br.get_u32());
        let (lsn, batch_first, batch_len) = match header {
            (Ok(l), Ok(f), Ok(n)) => (l, f, n),
            _ => {
                torn = true;
                break;
            }
        };
        match JournalEntry::decode(&mut br).and_then(|e| br.finish().map(|()| e)) {
            Ok(entry) => {
                records.push(FrameRecord { lsn, batch_first, batch_len, offset: pos as u64, entry })
            }
            Err(_) => {
                // The checksum held but the payload does not parse — a
                // format drift, not a torn write. Stop here too, but
                // callers distinguish last-segment (tolerated) from
                // mid-log (fatal) positions.
                torn = true;
                break;
            }
        }
        pos = body_end;
    }
    Ok(SegmentScan { records, torn, clean_len: pos as u64 })
}

// ---------------------------------------------------------------------------
// The live log: per-shard segment writers.
// ---------------------------------------------------------------------------

struct ShardWriter {
    dir: PathBuf,
    /// Sequence number of the *active* segment (created lazily).
    seq: u64,
    file: Option<fs::File>,
    bytes: u64,
}

impl ShardWriter {
    /// Closes the active segment (if any); the next append opens
    /// `seq + 1`. Called at snapshot time so compaction has a closed
    /// segment boundary to work with.
    fn rotate(&mut self, fsync: bool) -> Result<(), BankError> {
        if let Some(f) = self.file.take() {
            if fsync {
                f.sync_data().map_err(|e| storage_err("segment sync on rotate", e))?;
            }
            self.seq = self.seq.saturating_add(1);
            self.bytes = 0;
        }
        Ok(())
    }
}

/// The open, append-only side of the store: one rotating segment writer
/// per shard plus the global LSN allocator. Appends are serialized by
/// the [`crate::db`] journal lock; the group-commit queue amortizes the
/// per-batch `fsync` exactly as it amortizes the journal acquisition.
pub struct DiskLog {
    cfg: StoreConfig,
    /// Next LSN to assign (LSNs are global across shards, strictly
    /// increasing, sparse within any one shard's files).
    next_lsn: AtomicU64,
    shards: Vec<OrderedMutex<ShardWriter>>,
    /// Entries appended per shard since its last snapshot — the
    /// `maybe_checkpoint` trigger.
    since_snapshot: Vec<AtomicU64>,
    /// Sticky I/O failure flag: once an append fails, acks are no longer
    /// durable and the health report degrades (docs/STORAGE.md §3.4).
    failed: AtomicBool,
}

impl DiskLog {
    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Highest LSN assigned so far (0 before the first append).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn.load(Ordering::SeqCst).saturating_sub(1)
    }

    /// Entries appended to `shard` since its last snapshot.
    pub fn tail_len(&self, shard: usize) -> u64 {
        self.since_snapshot.get(shard).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Whether every append so far reached disk. `false` means a prior
    /// append hit an I/O error: the process keeps serving from memory,
    /// but acknowledgements are no longer crash-durable.
    pub fn healthy(&self) -> bool {
        !self.failed.load(Ordering::Relaxed)
    }

    /// Appends `entries` as one commit batch, assigning consecutive
    /// LSNs. Caller (the journal lock) serializes invocations, so LSN
    /// order equals commit order. One buffered write and at
    /// most one `fsync` per *touched shard* per call — batching is the
    /// group-commit leader's job. Every frame carries the batch bounds,
    /// so recovery can refuse to half-apply a batch torn across shards.
    pub(crate) fn append(&self, entries: &[JournalEntry]) {
        if entries.is_empty() {
            return;
        }
        let batch_len = entries.len() as u32;
        let batch_first = self.next_lsn.fetch_add(entries.len() as u64, Ordering::SeqCst);
        // Route and frame first, one buffer per touched shard.
        let mut buffers: Vec<Option<(Vec<u8>, u64, u64)>> = (0..SHARDS).map(|_| None).collect();
        for (i, entry) in entries.iter().enumerate() {
            let lsn = batch_first.saturating_add(i as u64);
            let shard = entry_shard(entry);
            let slot = match buffers.get_mut(shard) {
                Some(s) => s,
                None => continue,
            };
            let (buf, _first, count) = slot.get_or_insert_with(|| (Vec::new(), lsn, 0));
            encode_frame(buf, lsn, batch_first, batch_len, entry);
            *count = count.saturating_add(1);
        }
        for (shard, slot) in buffers.into_iter().enumerate() {
            let Some((buf, first_lsn, count)) = slot else { continue };
            if let Err(e) = self.write_shard(shard, &buf, first_lsn) {
                if !self.failed.swap(true, Ordering::Relaxed) {
                    gridbank_obs::count("db.journal.disk_errors", 1);
                    eprintln!(
                        "gridbank-store: shard {shard} append failed ({e}); \
                         continuing in memory — acks are no longer crash-durable"
                    );
                }
            }
            if let Some(c) = self.since_snapshot.get(shard) {
                c.fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    fn write_shard(&self, shard: usize, framed: &[u8], first_lsn: u64) -> Result<(), BankError> {
        let writer = match self.shards.get(shard) {
            Some(w) => w,
            None => return Err(BankError::Storage(format!("no such shard {shard}"))),
        };
        let mut w = writer.lock();
        if w.bytes >= self.cfg.segment_bytes {
            w.rotate(self.cfg.fsync)?;
        }
        if w.file.is_none() {
            // lint:allow(blocking-under-lock) first append to a fresh shard dir only;
            // the writer lock *is* the per-shard append serializer (docs/STORAGE.md §2)
            fs::create_dir_all(&w.dir).map_err(|e| storage_err("create shard dir", e))?;
            let path = segment_path(&w.dir, w.seq);
            // lint:allow(blocking-under-lock) segment open on rotate boundary; rare and
            // must happen under the writer lock to keep seq/bytes coherent
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| storage_err(&path.display().to_string(), e))?;
            let mut h = ByteWriter::with_capacity(SEGMENT_HEADER);
            h.put_u32(SEGMENT_MAGIC);
            h.put_u32(FORMAT_VERSION);
            h.put_u32(shard as u32);
            h.put_u64(first_lsn);
            let header = h.into_bytes();
            f.write_all(&header).map_err(|e| storage_err("segment header write", e))?;
            w.bytes = header.len() as u64;
            w.file = Some(f);
        }
        let Some(f) = w.file.as_mut() else {
            return Err(BankError::Storage("segment writer vanished".into()));
        };
        f.write_all(framed).map_err(|e| storage_err("segment append", e))?;
        if self.cfg.fsync {
            // lint:allow(blocking-under-lock) the group-commit fsync: one sync_data
            // covers the whole batch; moving it off-lock is ROADMAP item 1
            f.sync_data().map_err(|e| storage_err("segment fsync", e))?;
        }
        w.bytes = w.bytes.saturating_add(framed.len() as u64);
        Ok(())
    }

    /// Writes `snap` durably: tmp file → `fsync` → atomic rename →
    /// directory `fsync` → read-back verification. Only after the
    /// verification does the shard's tail counter reset and the segment
    /// rotate; a crash at any earlier point leaves the previous
    /// snapshot authoritative. Returns the bytes written.
    pub(crate) fn write_snapshot(&self, snap: &ShardSnapshot) -> Result<u64, BankError> {
        let shard = snap.shard as usize;
        let dir = shard_dir(&self.cfg.dir, shard);
        fs::create_dir_all(&dir).map_err(|e| storage_err("create shard dir", e))?;
        let bytes = snap.to_bytes();
        let final_path = snapshot_path(&dir, snap.through_lsn);
        let tmp_path = final_path.with_extension("gbs.tmp");
        {
            let mut f = fs::File::create(&tmp_path)
                .map_err(|e| storage_err(&tmp_path.display().to_string(), e))?;
            f.write_all(&bytes).map_err(|e| storage_err("snapshot write", e))?;
            if self.cfg.fsync {
                f.sync_all().map_err(|e| storage_err("snapshot fsync", e))?;
            }
        }
        fs::rename(&tmp_path, &final_path).map_err(|e| storage_err("snapshot rename", e))?;
        if self.cfg.fsync {
            if let Ok(d) = fs::File::open(&dir) {
                let _ = d.sync_all();
            }
        }
        // Belt and braces: never compact on the strength of a snapshot
        // we cannot read back.
        let reread = fs::read(&final_path).map_err(|e| storage_err("snapshot read-back", e))?;
        ShardSnapshot::from_bytes(&reread).map_err(|e| storage_err("snapshot verify", e))?;
        if let Some(c) = self.since_snapshot.get(shard) {
            c.store(0, Ordering::Relaxed);
        }
        if let Some(w) = self.shards.get(shard) {
            w.lock().rotate(self.cfg.fsync)?;
        }
        gridbank_obs::count("db.snapshot.writes", 1);
        gridbank_obs::count("db.snapshot.bytes", bytes.len() as u64);
        Ok(bytes.len() as u64)
    }

    /// Compacts one shard: prunes snapshot generations beyond
    /// `retain_snapshots`, records the covered prefix in the shard's
    /// `COMPACTED` marker, and deletes every *closed* segment whose
    /// entries are all at or below the oldest retained snapshot's
    /// `through_lsn`. Returns `(segments_dropped, snapshots_pruned)`.
    pub(crate) fn compact_shard(&self, shard: usize) -> Result<(usize, usize), BankError> {
        let dir = shard_dir(&self.cfg.dir, shard);
        let mut snaps = list_numbered(&dir, "snap-", ".gbs")?;
        if snaps.is_empty() {
            return Ok((0, 0));
        }
        snaps.sort_unstable();
        let retain = self.cfg.retain_snapshots.max(1);
        let cut = snaps.len().saturating_sub(retain);
        let mut pruned = 0usize;
        for lsn in snaps.drain(..cut) {
            if fs::remove_file(snapshot_path(&dir, lsn)).is_ok() {
                pruned = pruned.saturating_add(1);
            }
        }
        // `snaps` now holds the retained generations, oldest first.
        let Some(&oldest_retained) = snaps.first() else { return Ok((0, pruned)) };

        // Marker first, then deletion: recovery refuses to run from a
        // snapshot older than the marker, so a crash between the two
        // steps can never silently lose the gap.
        write_compacted_marker(&dir, oldest_retained, self.cfg.fsync)?;

        let mut segs = list_numbered(&dir, "seg-", ".gbj")?;
        segs.sort_unstable();
        let active_seq = self.shards.get(shard).map(|w| w.lock().seq);
        let mut dropped = 0usize;
        // A closed segment may be deleted when its successor's first
        // LSN shows every entry it holds is <= oldest_retained
        // (docs/STORAGE.md §4: LSNs are strictly increasing across a
        // shard's segment sequence).
        for pair in segs.windows(2) {
            let (seq, next_seq) = (pair[0], pair[1]);
            if Some(seq) == active_seq {
                break;
            }
            let next_first = read_segment_first_lsn(&segment_path(&dir, next_seq))?;
            if next_first == 0 || next_first > oldest_retained.saturating_add(1) {
                break;
            }
            if fs::remove_file(segment_path(&dir, seq)).is_ok() {
                dropped = dropped.saturating_add(1);
            }
        }
        gridbank_obs::count("db.snapshot.compacted_segments", dropped as u64);
        Ok((dropped, pruned))
    }
}

/// Reads only a segment's header to learn its first LSN (0 when the
/// file is shorter than a header — an empty torn segment).
fn read_segment_first_lsn(path: &Path) -> Result<u64, BankError> {
    let bytes = fs::read(path).map_err(|e| storage_err(&path.display().to_string(), e))?;
    if bytes.len() < SEGMENT_HEADER {
        return Ok(0);
    }
    let mut r = ByteReader::new(&bytes[..SEGMENT_HEADER]);
    let _magic = r.get_u32().map_err(|e| storage_err("segment header", e))?;
    let _version = r.get_u32().map_err(|e| storage_err("segment header", e))?;
    let _shard = r.get_u32().map_err(|e| storage_err("segment header", e))?;
    r.get_u64().map_err(|e| storage_err("segment header", e))
}

fn write_compacted_marker(dir: &Path, through: u64, fsync: bool) -> Result<(), BankError> {
    let mut w = ByteWriter::with_capacity(24);
    w.put_u32(COMPACTED_MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u64(through);
    let mut bytes = w.into_bytes();
    let check = fnv64(&bytes);
    bytes.extend_from_slice(&check.to_le_bytes());
    let final_path = dir.join("COMPACTED");
    let tmp = dir.join("COMPACTED.tmp");
    {
        let mut f = fs::File::create(&tmp).map_err(|e| storage_err("compacted marker", e))?;
        f.write_all(&bytes).map_err(|e| storage_err("compacted marker", e))?;
        if fsync {
            f.sync_all().map_err(|e| storage_err("compacted marker fsync", e))?;
        }
    }
    fs::rename(&tmp, &final_path).map_err(|e| storage_err("compacted marker rename", e))
}

fn read_compacted_marker(dir: &Path) -> u64 {
    let Ok(bytes) = fs::read(dir.join("COMPACTED")) else { return 0 };
    if bytes.len() != 24 {
        return 0;
    }
    let (body, tail) = bytes.split_at(16);
    let mut check = [0u8; 8];
    check.copy_from_slice(tail);
    if fnv64(body) != u64::from_le_bytes(check) {
        return 0;
    }
    let mut r = ByteReader::new(body);
    match (r.get_u32(), r.get_u32(), r.get_u64()) {
        (Ok(magic), Ok(version), Ok(through))
            if magic == COMPACTED_MAGIC && version == FORMAT_VERSION =>
        {
            through
        }
        _ => 0,
    }
}

fn list_numbered(dir: &Path, prefix: &str, ext: &str) -> Result<Vec<u64>, BankError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(storage_err(&dir.display().to_string(), e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| storage_err("read_dir", e))?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(n) = parse_numbered(name, prefix, ext) {
                out.push(n);
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

fn manifest_bytes(bank: u16, branch: u16) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32);
    w.put_u32(MANIFEST_MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u32(bank as u32);
    w.put_u32(branch as u32);
    w.put_u32(SHARDS as u32);
    let mut bytes = w.into_bytes();
    let check = fnv64(&bytes);
    bytes.extend_from_slice(&check.to_le_bytes());
    bytes
}

/// Parsed `MANIFEST` identity of a store directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Format version the store was written with.
    pub version: u32,
    /// Bank number the store belongs to.
    pub bank: u16,
    /// Branch number the store belongs to.
    pub branch: u16,
    /// Shard count the layout was built with.
    pub shards: u32,
}

/// Reads and verifies a store's `MANIFEST`.
pub fn read_manifest(dir: &Path) -> Result<Manifest, BankError> {
    let path = dir.join("MANIFEST");
    let bytes = fs::read(&path).map_err(|e| storage_err(&path.display().to_string(), e))?;
    if bytes.len() != 28 {
        return Err(BankError::Storage("MANIFEST has wrong length".into()));
    }
    let (body, tail) = bytes.split_at(20);
    let mut check = [0u8; 8];
    check.copy_from_slice(tail);
    if fnv64(body) != u64::from_le_bytes(check) {
        return Err(BankError::Storage("MANIFEST checksum mismatch".into()));
    }
    let mut r = ByteReader::new(body);
    let magic = r.get_u32().map_err(|e| storage_err("MANIFEST", e))?;
    let version = r.get_u32().map_err(|e| storage_err("MANIFEST", e))?;
    let bank = r.get_u32().map_err(|e| storage_err("MANIFEST", e))?;
    let branch = r.get_u32().map_err(|e| storage_err("MANIFEST", e))?;
    let shards = r.get_u32().map_err(|e| storage_err("MANIFEST", e))?;
    if magic != MANIFEST_MAGIC {
        return Err(BankError::Storage("bad MANIFEST magic".into()));
    }
    if version != FORMAT_VERSION {
        return Err(BankError::Storage(format!("unsupported store version {version}")));
    }
    Ok(Manifest { version, bank: bank as u16, branch: branch as u16, shards })
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

/// What recovery did — the evidence behind the "tail-only" claim
/// (docs/STORAGE.md §5). `tail_entries_replayed` is the number the
/// bounded-recovery tests assert on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shards in the store.
    pub shards: usize,
    /// Shards whose state came from a snapshot file (the rest were
    /// rebuilt from journal alone — a fresh or never-snapshotted store).
    pub snapshots_loaded: usize,
    /// Newest-generation snapshots that failed verification and were
    /// skipped in favor of an older generation.
    pub snapshots_skipped: usize,
    /// Journal entries replayed past the snapshots — the *tail*. This,
    /// not total history, bounds restart time.
    pub tail_entries_replayed: usize,
    /// Segment files scanned while collecting the tail.
    pub segments_scanned: usize,
    /// Shards whose final segment ended in a truncated or
    /// checksum-failed record (tolerated: the torn suffix never acked).
    pub torn_tails: usize,
    /// Tail entries dropped because their commit batch was torn: the
    /// crash hit mid-batch, some shards' frames never reached disk, and
    /// the batch as a whole was never acknowledged. Dropping the found
    /// members keeps multi-shard batches (e.g. both sides of a
    /// transfer) all-or-nothing.
    pub torn_batch_entries_dropped: usize,
    /// Accounts alive after recovery.
    pub accounts: usize,
    /// Wall-clock recovery time (directory scan to serving state).
    pub elapsed_ms: u64,
}

/// Everything read back from disk, ready to be folded into a fresh
/// [`crate::db::Database`]: one base image per shard plus the merged,
/// LSN-ordered journal tail.
pub struct RecoveredState {
    /// Base image per shard (empty image where no snapshot existed).
    pub bases: Vec<ShardSnapshot>,
    /// Tail entries past each shard's snapshot, merged across shards in
    /// global LSN order.
    pub tail: Vec<(u64, JournalEntry)>,
    /// Evidence report (finished by the caller with timing/accounts).
    pub report: RecoveryReport,
}

/// Opens (or creates) the store at `cfg.dir` and recovers its state:
/// newest valid snapshot per shard, tail-only journal replay past it.
/// Returns the recovered state and the live log positioned to append.
pub fn open_store(
    bank: u16,
    branch: u16,
    cfg: StoreConfig,
) -> Result<(RecoveredState, DiskLog), BankError> {
    fs::create_dir_all(&cfg.dir).map_err(|e| storage_err("create store dir", e))?;
    let manifest_path = cfg.dir.join("MANIFEST");
    match read_manifest(&cfg.dir) {
        Ok(m) => {
            if m.bank != bank || m.branch != branch || m.shards as usize != SHARDS {
                return Err(BankError::Storage(format!(
                    "store at {} belongs to bank {} branch {} ({} shards), \
                     not bank {bank} branch {branch} ({SHARDS} shards)",
                    cfg.dir.display(),
                    m.bank,
                    m.branch,
                    m.shards
                )));
            }
        }
        Err(_) if !manifest_path.exists() => {
            fs::write(&manifest_path, manifest_bytes(bank, branch))
                .map_err(|e| storage_err("write MANIFEST", e))?;
        }
        Err(e) => return Err(e),
    }

    let mut report = RecoveryReport { shards: SHARDS, ..RecoveryReport::default() };
    let mut bases = Vec::with_capacity(SHARDS);
    // Tail records tagged with their shard and whether they sit in the
    // shard's final segment (only final-segment frames can belong to a
    // torn batch, and only they are truncatable).
    let mut raw_tail: Vec<(usize, bool, FrameRecord)> = Vec::new();
    // Per shard: final segment path + valid-prefix length, for repair.
    let mut finals: Vec<Option<(PathBuf, u64)>> = Vec::with_capacity(SHARDS);
    let mut max_lsn = 0u64;
    let mut writers = Vec::with_capacity(SHARDS);

    for shard in 0..SHARDS {
        let dir = shard_dir(&cfg.dir, shard);
        let compacted = read_compacted_marker(&dir);

        // Newest valid snapshot wins; corrupt generations are skipped.
        let mut snaps = list_numbered(&dir, "snap-", ".gbs")?;
        snaps.sort_unstable_by(|a, b| b.cmp(a));
        let mut base = None;
        for lsn in snaps {
            match fs::read(snapshot_path(&dir, lsn)) {
                Ok(bytes) => match ShardSnapshot::from_bytes(&bytes) {
                    Ok(s) if s.shard as usize == shard => {
                        base = Some(s);
                        break;
                    }
                    _ => report.snapshots_skipped = report.snapshots_skipped.saturating_add(1),
                },
                Err(_) => report.snapshots_skipped = report.snapshots_skipped.saturating_add(1),
            }
        }
        let base = match base {
            Some(s) => {
                report.snapshots_loaded = report.snapshots_loaded.saturating_add(1);
                s
            }
            None => ShardSnapshot::empty(shard as u32),
        };
        if base.through_lsn < compacted {
            return Err(BankError::Storage(format!(
                "shard {shard}: no valid snapshot covers the compacted journal prefix \
                 (best snapshot at LSN {}, journal compacted through LSN {compacted}); \
                 the store cannot be recovered completely",
                base.through_lsn
            )));
        }
        max_lsn = max_lsn.max(base.through_lsn);

        // Journal tail: every segment record past the snapshot. A torn
        // record is tolerated only at the very end of the newest
        // segment; anywhere else it is mid-log corruption.
        let mut segs = list_numbered(&dir, "seg-", ".gbj")?;
        segs.sort_unstable();
        let last_seq = segs.last().copied();
        let mut final_seg = None;
        for seq in &segs {
            let path = segment_path(&dir, *seq);
            let scan = read_segment(&path, shard as u32)?;
            report.segments_scanned = report.segments_scanned.saturating_add(1);
            let is_last = Some(*seq) == last_seq;
            if scan.torn {
                if is_last {
                    report.torn_tails = report.torn_tails.saturating_add(1);
                } else {
                    return Err(BankError::Storage(format!(
                        "{}: corrupt record before the final segment — mid-log corruption, \
                         not a torn tail",
                        path.display()
                    )));
                }
            }
            if is_last {
                final_seg = Some((path, scan.clean_len));
            }
            for rec in scan.records {
                max_lsn = max_lsn.max(rec.lsn);
                if rec.lsn > base.through_lsn {
                    raw_tail.push((shard, is_last, rec));
                }
            }
        }
        finals.push(final_seg);
        let next_seq = segs.last().map_or(1, |s| s.saturating_add(1));
        writers.push(OrderedMutex::new(
            rank::SEGMENT_WRITER,
            shard as u32,
            "segment-writer",
            ShardWriter { dir, seq: next_seq, file: None, bytes: 0 },
        ));
        bases.push(base);
    }

    // Batch atomicity: a commit batch may span several shard files, and
    // a crash mid-flush can persist some members but not others. A batch
    // wholly past every snapshot (`batch_first > max_through`) was never
    // acknowledged unless *all* its frames hit disk, so an incomplete
    // such batch is dropped in full — half a multi-shard transfer must
    // not replay. A batch that overlaps a snapshot *was* acknowledged
    // (snapshots cut at durable batch boundaries); its "missing"
    // members are simply covered by a snapshot.
    let max_through = bases.iter().map(|b| b.through_lsn).max().unwrap_or(0);
    let mut found: BTreeMap<u64, u32> = BTreeMap::new();
    for (_, _, rec) in &raw_tail {
        if rec.batch_first > max_through {
            let n = found.entry(rec.batch_first).or_insert(0u32);
            *n = n.saturating_add(1);
        }
    }
    // Because appends are serialized, only the globally-last batch can
    // be incomplete, and its surviving frames are each the last frames
    // of their shard's final segment. Truncating there (plus any torn
    // partial frame) makes recovery idempotent: the orphans can never
    // resurrect after later appends or snapshots move past them.
    let mut truncate_to: Vec<Option<u64>> =
        finals.iter().map(|f| f.as_ref().map(|&(_, clean)| clean)).collect();
    let mut tail: Vec<(u64, JournalEntry)> = Vec::with_capacity(raw_tail.len());
    for (shard, in_final, rec) in raw_tail {
        let complete = rec.batch_first <= max_through
            || found.get(&rec.batch_first).copied().unwrap_or(0) >= rec.batch_len;
        if complete {
            tail.push((rec.lsn, rec.entry));
        } else {
            report.torn_batch_entries_dropped = report.torn_batch_entries_dropped.saturating_add(1);
            if in_final {
                if let Some(cut) = truncate_to.get_mut(shard).and_then(|c| c.as_mut()) {
                    *cut = (*cut).min(rec.offset);
                }
            }
        }
    }
    for (shard, final_seg) in finals.iter().enumerate() {
        let (path, _) = match final_seg {
            Some(f) => f,
            None => continue,
        };
        let cut = match truncate_to.get(shard).copied().flatten() {
            Some(c) => c,
            None => continue,
        };
        let len = fs::metadata(path).map_err(|e| storage_err("stat segment", e))?.len();
        if cut < len {
            let f = fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| storage_err("open segment for repair", e))?;
            f.set_len(cut).map_err(|e| storage_err("truncate torn suffix", e))?;
            f.sync_all().map_err(|e| storage_err("sync repaired segment", e))?;
        }
    }

    // Global LSN order across shards restores the original commit
    // interleaving for the whole tail.
    tail.sort_by_key(|(lsn, _)| *lsn);
    report.tail_entries_replayed = tail.len();

    let log = DiskLog {
        next_lsn: AtomicU64::new(max_lsn.saturating_add(1)),
        shards: writers,
        since_snapshot: (0..SHARDS).map(|_| AtomicU64::new(0)).collect(),
        failed: AtomicBool::new(false),
        cfg,
    };
    Ok((RecoveredState { bases, tail, report }, log))
}

// ---------------------------------------------------------------------------
// Offline inspection (`gridbank store`).
// ---------------------------------------------------------------------------

/// One shard's on-disk inventory.
#[derive(Clone, Debug, Default)]
pub struct ShardInventory {
    /// Segment files present.
    pub segments: usize,
    /// Total segment bytes.
    pub segment_bytes: u64,
    /// Snapshot generations present.
    pub snapshots: usize,
    /// Newest snapshot's `through_lsn` (0 when none).
    pub snapshot_lsn: u64,
    /// Newest snapshot bytes (0 when none).
    pub snapshot_bytes: u64,
    /// Accounts in the newest valid snapshot.
    pub snapshot_accounts: usize,
    /// Journal-tail entries past the newest snapshot (what a restart
    /// would replay).
    pub tail_entries: usize,
    /// Whether the newest segment ends in a torn record.
    pub torn_tail: bool,
    /// The shard's `COMPACTED` marker (0 when never compacted).
    pub compacted_through: u64,
}

/// A full offline inventory of a store directory.
#[derive(Clone, Debug)]
pub struct StoreInspection {
    /// The verified manifest.
    pub manifest: Manifest,
    /// Per-shard inventories, indexed by shard.
    pub shards: Vec<ShardInventory>,
}

impl StoreInspection {
    /// Total journal-tail entries a restart would replay.
    pub fn tail_entries(&self) -> usize {
        self.shards.iter().fold(0usize, |acc, s| acc.saturating_add(s.tail_entries))
    }

    /// Total accounts across the newest snapshots.
    pub fn snapshot_accounts(&self) -> usize {
        self.shards.iter().fold(0usize, |acc, s| acc.saturating_add(s.snapshot_accounts))
    }

    /// Total bytes on disk (segments + newest snapshots).
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().fold(0u64, |acc, s| {
            acc.saturating_add(s.segment_bytes).saturating_add(s.snapshot_bytes)
        })
    }
}

/// Reads a store directory without opening it for writing — the
/// `gridbank store` subcommand. Never mutates anything.
///
/// Distinguishes "this was never a store" (missing, empty, or
/// MANIFEST-less directory → [`BankError::NotAStore`]) from "this store
/// is damaged" (manifest present but unreadable → [`BankError::Storage`]).
pub fn inspect(dir: &Path) -> Result<StoreInspection, BankError> {
    let not_a_store = |reason: &str| BankError::NotAStore {
        dir: dir.display().to_string(),
        reason: reason.to_string(),
    };
    if !dir.exists() {
        return Err(not_a_store("directory does not exist"));
    }
    if !dir.is_dir() {
        return Err(not_a_store("not a directory"));
    }
    let mut entries = fs::read_dir(dir).map_err(|e| storage_err("read store dir", &e))?;
    if entries.next().is_none() {
        return Err(not_a_store("directory is empty"));
    }
    if !dir.join("MANIFEST").is_file() {
        return Err(not_a_store("no MANIFEST file"));
    }
    let manifest = read_manifest(dir)?;
    let mut shards = Vec::with_capacity(manifest.shards as usize);
    for shard in 0..manifest.shards as usize {
        let sdir = shard_dir(dir, shard);
        let mut inv = ShardInventory {
            compacted_through: read_compacted_marker(&sdir),
            ..ShardInventory::default()
        };
        let mut snaps = list_numbered(&sdir, "snap-", ".gbs")?;
        snaps.sort_unstable_by(|a, b| b.cmp(a));
        inv.snapshots = snaps.len();
        let mut through = 0u64;
        for lsn in snaps {
            let path = snapshot_path(&sdir, lsn);
            if let Ok(bytes) = fs::read(&path) {
                if let Ok(s) = ShardSnapshot::from_bytes(&bytes) {
                    inv.snapshot_lsn = s.through_lsn;
                    inv.snapshot_bytes = bytes.len() as u64;
                    inv.snapshot_accounts = s.accounts.len();
                    through = s.through_lsn;
                    break;
                }
            }
        }
        let mut segs = list_numbered(&sdir, "seg-", ".gbj")?;
        segs.sort_unstable();
        inv.segments = segs.len();
        let last_seq = segs.last().copied();
        for seq in segs {
            let path = segment_path(&sdir, seq);
            if let Ok(meta) = fs::metadata(&path) {
                inv.segment_bytes = inv.segment_bytes.saturating_add(meta.len());
            }
            if let Ok(scan) = read_segment(&path, shard as u32) {
                if scan.torn && Some(seq) == last_seq {
                    inv.torn_tail = true;
                }
                inv.tail_entries = inv
                    .tail_entries
                    .saturating_add(scan.records.iter().filter(|r| r.lsn > through).count());
            }
        }
        shards.push(inv);
    }
    Ok(StoreInspection { manifest, shards })
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::db::AccountId;
    use gridbank_rur::Credits;

    fn arb_credits() -> impl Strategy<Value = Credits> {
        any::<i64>().prop_map(|v| Credits::from_micro(v as i128))
    }

    fn arb_account_id() -> impl Strategy<Value = AccountId> {
        (0u16..99, 0u16..9999, 0u32..1_000_000).prop_map(|(bank, branch, number)| AccountId {
            bank,
            branch,
            number,
        })
    }

    fn arb_account() -> impl Strategy<Value = AccountRecord> {
        (
            (arb_account_id(), "[a-zA-Z0-9/=_ ]{0,24}", proptest::option::of("[a-zA-Z0-9]{0,12}")),
            (arb_credits(), arb_credits(), "[a-zA-Z]{0,12}", arb_credits()),
        )
            .prop_map(
                |(
                    (id, certificate_name, organization),
                    (available, locked, currency, credit_limit),
                )| {
                    AccountRecord {
                        id,
                        certificate_name,
                        organization,
                        available,
                        locked,
                        currency,
                        credit_limit,
                    }
                },
            )
    }

    fn arb_transaction() -> impl Strategy<Value = TransactionRecord> {
        (any::<u64>(), arb_account_id(), 0u8..3, any::<u64>(), arb_credits()).prop_map(
            |(transaction_id, account, tag, date_ms, amount)| TransactionRecord {
                transaction_id,
                account,
                tx_type: crate::db::TransactionType::from_tag(tag).unwrap(),
                date_ms,
                amount,
            },
        )
    }

    fn arb_transfer() -> impl Strategy<Value = TransferRecord> {
        (
            (any::<u64>(), any::<u64>(), arb_account_id()),
            (
                arb_credits(),
                arb_account_id(),
                proptest::collection::vec(any::<u8>(), 0..32),
                any::<u64>(),
            ),
        )
            .prop_map(
                |((transaction_id, date_ms, drawer), (amount, recipient, rur_blob, trace_id))| {
                    TransferRecord {
                        transaction_id,
                        date_ms,
                        drawer,
                        amount,
                        recipient,
                        rur_blob,
                        trace_id,
                    }
                },
            )
    }

    fn arb_idem() -> impl Strategy<Value = SnapshotIdem> {
        (
            any::<u64>(),
            "[a-zA-Z0-9/=]{0,24}",
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..48),
        )
            .prop_map(|(order, cert, key, response)| SnapshotIdem {
                order,
                cert,
                key,
                response,
            })
    }

    fn arb_pending() -> impl Strategy<Value = PendingIbCredit> {
        (
            any::<u64>(),
            arb_account_id(),
            arb_credits(),
            any::<u16>(),
            arb_account_id(),
            proptest::option::of(("[a-z]{0,16}", any::<u64>())),
        )
            .prop_map(|(key, to, amount, origin, drawer, idem)| PendingIbCredit {
                key,
                to,
                amount,
                origin,
                drawer,
                idem,
            })
    }

    fn arb_snapshot() -> impl Strategy<Value = ShardSnapshot> {
        (
            (0u32..SHARDS as u32, any::<u64>(), any::<u32>(), any::<u64>()),
            proptest::collection::vec(arb_account(), 0..8),
            proptest::collection::vec(arb_transaction(), 0..8),
            proptest::collection::vec(arb_transfer(), 0..8),
            proptest::collection::vec(arb_idem(), 0..6),
            proptest::collection::vec(arb_pending(), 0..6),
        )
            .prop_map(
                |(
                    (shard, through_lsn, next_account_hint, next_tx_hint),
                    accounts,
                    transactions,
                    transfers,
                    idem,
                    pending,
                )| ShardSnapshot {
                    shard,
                    through_lsn,
                    next_account_hint,
                    next_tx_hint,
                    accounts,
                    transactions,
                    transfers,
                    idem,
                    pending,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// docs/STORAGE.md §2.3: the snapshot codec round-trips any state
        /// image exactly.
        #[test]
        fn snapshot_codec_round_trips(snap in arb_snapshot()) {
            let bytes = snap.to_bytes();
            let back = ShardSnapshot::from_bytes(&bytes).expect("decode");
            prop_assert_eq!(back, snap);
        }

        /// Any single flipped byte breaks the trailing checksum — the
        /// corruption detection compaction and recovery depend on.
        #[test]
        fn snapshot_codec_rejects_bit_rot(snap in arb_snapshot(), pos in any::<usize>()) {
            let mut bytes = snap.to_bytes();
            let i = pos % bytes.len();
            bytes[i] ^= 0x01;
            prop_assert!(ShardSnapshot::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let bytes = ShardSnapshot::empty(3).to_bytes();
        assert!(ShardSnapshot::from_bytes(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(ShardSnapshot::from_bytes(&bytes[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // FNV-1a 64 published test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn numbered_names_parse_and_sort() {
        assert_eq!(parse_numbered("seg-00000042.gbj", "seg-", ".gbj"), Some(42));
        assert_eq!(parse_numbered("snap-00000000000000000007.gbs", "snap-", ".gbs"), Some(7));
        assert_eq!(parse_numbered("seg-x.gbj", "seg-", ".gbj"), None);
        assert_eq!(parse_numbered("other-1.gbj", "seg-", ".gbj"), None);
    }
}
