//! The on-disk storage engine behind [`crate::db::Database`].
//!
//! The paper's GridBank server sits on a persistent DBMS (§3.2); this
//! module is the durable substrate of our embedded substitute. Every
//! commit batch is one checksummed frame in **one log** — a sequence of
//! rotating segment files — so a batch is on disk whole or not at all.
//! Periodically the database writes **one snapshot file** of its whole
//! state. Crash recovery loads the newest valid snapshot and replays, in
//! one forward scan of the log, only the entries past it, so
//! restart-to-serving time is bounded by the tail length — not by the
//! full history. Compaction deletes the segments the retained snapshots
//! have made redundant.
//!
//! Byte-level file formats, the durability contract, the recovery state
//! machine, and the compaction invariants are documented in
//! `docs/STORAGE.md`; this module is their implementation. The engine
//! is deliberately dependency-free: plain `std::fs`, the workspace's
//! own [`gridbank_rur::codec`] framing, and an FNV-1a checksum.

use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use gridbank_rur::codec::{ByteReader, ByteWriter, Decode, Encode};
use gridbank_rur::RurError;

use crate::db::{AccountRecord, JournalEntry, PendingIbCredit, TransactionRecord, TransferRecord};
use crate::error::BankError;
use crate::sync::{AtomicBool, AtomicU64, Ordering};

/// Store format version; bumped on any incompatible layout change.
pub const FORMAT_VERSION: u32 = 5;

const MANIFEST_MAGIC: u32 = 0x4742_4D46; // "GBMF"
const SEGMENT_MAGIC: u32 = 0x4742_5347; // "GBSG"
const SNAPSHOT_MAGIC: u32 = 0x4742_534E; // "GBSN"
const COMPACTED_MAGIC: u32 = 0x4742_4354; // "GBCT"

/// Frame overhead ahead of the checksummed body: `len: u32` + `check: u64`.
const FRAME_HEADER: usize = 12;
/// Segment file header size: magic + version + first_lsn.
const SEGMENT_HEADER: usize = 16;

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
    /// Rotate the log's active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// [`crate::db::Database::maybe_checkpoint`] writes a snapshot once
    /// the log is this many entries past the newest one.
    pub snapshot_every: u64,
    /// Snapshot generations kept (≥ 1). Compaction only drops segments
    /// already covered by the *oldest retained* snapshot, so a torn
    /// newest snapshot can always fall back one generation.
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

fn snapshot_dir(root: &Path) -> PathBuf {
    root.join("snapshots")
}

fn log_dir(root: &Path) -> PathBuf {
    root.join("log")
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
// Snapshot: the durable state image.
// ---------------------------------------------------------------------------

/// One consumed idempotency stamp inside a snapshot. `order` is the
/// stamp's database-wide sequence number — the same one its journal
/// `Idem` entry carries — so recovery restores the exact eviction order
/// across the snapshot and the tail.
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

/// A snapshot read back from disk: every piece of
/// [`crate::db::Database`] state, plus the journal position
/// (`through_lsn`) the image is consistent with. Recovery = newest valid
/// snapshot + replay of the log entries with `lsn > through_lsn`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Every journal entry with `lsn <= through_lsn` is reflected in the
    /// image; entries past it are not.
    pub through_lsn: u64,
    /// Account-number allocator hint (max seen; recovery takes the max
    /// of this, the image and the tail).
    pub next_account_hint: u32,
    /// Transaction-id allocator hint.
    pub next_tx_hint: u64,
    /// Account records, ordered by id.
    pub accounts: Vec<AccountRecord>,
    /// TRANSACTION rows, in commit order.
    pub transactions: Vec<TransactionRecord>,
    /// TRANSFER rows, in commit order.
    pub transfers: Vec<TransferRecord>,
    /// Idempotency stamps, oldest first.
    pub idem: Vec<SnapshotIdem>,
    /// Unacknowledged cross-branch credits.
    pub pending: Vec<PendingIbCredit>,
}

/// What a snapshot is written from: rows borrowed from the live tables,
/// so a capture copies no row and the encoded buffer is all it allocates
/// beyond a pointer per account and stamp.
pub(crate) struct SnapshotRows<'a> {
    pub(crate) through_lsn: u64,
    pub(crate) next_account_hint: u32,
    pub(crate) next_tx_hint: u64,
    pub(crate) accounts: Vec<&'a AccountRecord>,
    pub(crate) transactions: &'a [TransactionRecord],
    pub(crate) transfers: &'a [TransferRecord],
    /// `(order, cert, key, response)` per stamp, oldest first.
    pub(crate) idem: Vec<(u64, &'a str, u64, &'a [u8])>,
    pub(crate) pending: Vec<&'a PendingIbCredit>,
}

impl SnapshotRows<'_> {
    /// The encoded size: each row's fixed width under the codec
    /// (docs/STORAGE.md §2.3) plus its strings and blobs.
    fn encoded_len(&self) -> usize {
        let accounts = self.accounts.iter().map(|r| {
            let org = r.organization.as_ref().map_or(0, |o| o.len().saturating_add(4));
            [69, r.certificate_name.len(), r.currency.len(), org]
        });
        let transfers = self.transfers.iter().map(|t| [68, t.rur_blob.len(), 0, 0]);
        let stamps =
            self.idem.iter().map(|(_, cert, _, response)| [24, cert.len(), response.len(), 0]);
        let credits = self.pending.iter().map(|p| match &p.idem {
            Some((cert, _)) => [66, cert.len(), 0, 0],
            None => [54, 0, 0, 0],
        });
        // Header (28), five section counts (40), trailing checksum (8).
        let fixed = self.transactions.len().saturating_mul(45).saturating_add(76);
        (accounts.chain(transfers).chain(stamps).chain(credits).flatten())
            .fold(fixed, usize::saturating_add)
    }

    /// Serializes the snapshot (docs/STORAGE.md §2.3) into one pre-sized
    /// buffer: header, the five sections, and a trailing FNV-1a checksum
    /// over everything before it.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_len());
        w.put_u32(SNAPSHOT_MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u64(self.through_lsn);
        w.put_u32(self.next_account_hint);
        w.put_u64(self.next_tx_hint);
        w.put_u64(self.accounts.len() as u64);
        for r in &self.accounts {
            r.encode(&mut w);
        }
        w.put_u64(self.transactions.len() as u64);
        for t in self.transactions {
            t.encode(&mut w);
        }
        w.put_u64(self.transfers.len() as u64);
        for t in self.transfers {
            t.encode(&mut w);
        }
        w.put_u64(self.idem.len() as u64);
        for (order, cert, key, response) in &self.idem {
            w.put_u64(*order);
            w.put_str(cert);
            w.put_u64(*key);
            w.put_bytes(response);
        }
        w.put_u64(self.pending.len() as u64);
        for p in &self.pending {
            // Reuse the journal codec: a pending credit is exactly the
            // payload of an `IbOut` entry.
            JournalEntry::IbOut(PendingIbCredit::clone(p)).encode(&mut w);
        }
        let mut bytes = w.into_bytes();
        let check = fnv64(&bytes);
        bytes.extend_from_slice(&check.to_le_bytes());
        bytes
    }
}

impl Snapshot {
    /// Parses and checksum-verifies a serialized snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, RurError> {
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
        Ok(Snapshot {
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
// The log: one sequence of segment files, one frame per commit batch.
// ---------------------------------------------------------------------------

/// Appends one commit batch to `out` as one frame (docs/STORAGE.md
/// §2.2). A commit batch is one `JournalStore::append` call — for a
/// transfer, its updates, rows and stamp — so it is acknowledged, and
/// recovered, whole or not at all.
fn encode_frame(out: &mut Vec<u8>, first_lsn: u64, entries: &[JournalEntry]) {
    let mut w = ByteWriter::with_capacity(entries.len().saturating_mul(96));
    w.put_u64(first_lsn);
    w.put_u32(entries.len() as u32);
    for entry in entries {
        entry.encode(&mut w);
    }
    let body = w.into_bytes();
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(&body).to_le_bytes());
    out.extend_from_slice(&body);
}

/// Decodes the frame at the start of `rest`: its first LSN, its entries
/// and its length on disk. `None` when it is cut short, fails its
/// checksum or does not parse.
fn decode_frame(rest: &[u8]) -> Option<(u64, Vec<JournalEntry>, usize)> {
    let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
    let check = u64::from_le_bytes(rest.get(4..FRAME_HEADER)?.try_into().ok()?);
    let end = FRAME_HEADER.checked_add(len)?;
    let body = rest.get(FRAME_HEADER..end)?;
    if fnv64(body) != check {
        return None;
    }
    let mut r = ByteReader::new(body);
    let first_lsn = r.get_u64().ok()?;
    let count = r.get_u32().ok()?;
    let mut entries = Vec::with_capacity((count as usize).min(1 << 10));
    for _ in 0..count {
        entries.push(JournalEntry::decode(&mut r).ok()?);
    }
    r.finish().ok()?;
    Some((first_lsn, entries, end))
}

fn segment_header(first_lsn: u64) -> Vec<u8> {
    let mut h = ByteWriter::with_capacity(SEGMENT_HEADER);
    h.put_u32(SEGMENT_MAGIC);
    h.put_u32(FORMAT_VERSION);
    h.put_u64(first_lsn);
    h.into_bytes()
}

/// The `first_lsn` in a segment's header; `None` when `bytes` is shorter
/// than a header (a segment torn as it was created). A whole header of
/// another format is an error: the file is not a segment.
fn parse_segment_header(path: &Path, bytes: &[u8]) -> Result<Option<u64>, BankError> {
    let Some(header) = bytes.get(..SEGMENT_HEADER) else { return Ok(None) };
    let mut r = ByteReader::new(header);
    let (Ok(magic), Ok(version), Ok(first_lsn)) = (r.get_u32(), r.get_u32(), r.get_u64()) else {
        return Ok(None);
    };
    if magic != SEGMENT_MAGIC || version != FORMAT_VERSION {
        return Err(BankError::Storage(format!(
            "{}: bad segment header (magic {magic:#x}, version {version})",
            path.display()
        )));
    }
    Ok(Some(first_lsn))
}

/// Reads only a segment's header to learn its first LSN.
fn read_first_lsn(path: &Path) -> Result<Option<u64>, BankError> {
    let mut header = [0u8; SEGMENT_HEADER];
    let mut f = fs::File::open(path).map_err(|e| storage_err(&path.display().to_string(), e))?;
    match f.read_exact(&mut header) {
        Ok(()) => parse_segment_header(path, &header),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(storage_err(&path.display().to_string(), e)),
    }
}

/// The log's active segment — the one thing an append mutates. It has no
/// lock of its own: it lives inside the journal lock of [`crate::db`],
/// which already serializes appends so that LSN order is commit order.
#[derive(Default)]
pub(crate) struct LogHead {
    /// `None` until the next append opens a fresh segment.
    file: Option<fs::File>,
    /// Bytes written to `file` so far.
    bytes: u64,
}

impl LogHead {
    /// Closes the active segment; the next append starts a new one.
    /// Called after every checkpoint pass, so compaction has a closed
    /// segment boundary next to the cut.
    pub(crate) fn rotate(&mut self) {
        self.file = None;
    }
}

/// The open, append-only side of the store: the LSN allocator, the
/// checkpoint position and the compaction pass. Appends write
/// through the caller's `LogHead` under the [`crate::db`] journal
/// lock, one frame and one `fsync` per commit batch.
pub struct DiskLog {
    cfg: StoreConfig,
    /// Next LSN to assign: one per entry, consecutive within a batch
    /// and across the log.
    next_lsn: AtomicU64,
    /// Sequence number of the next segment file.
    next_seq: AtomicU64,
    /// `through_lsn` of the newest snapshot.
    snapshot_lsn: AtomicU64,
    /// The `COMPACTED` marker's value.
    compacted: AtomicU64,
    /// Sticky I/O failure flag: once an append fails, acks are no longer
    /// durable and the health report degrades (docs/STORAGE.md §3.4).
    failed: AtomicBool,
}

impl DiskLog {
    /// Highest LSN assigned so far (0 before the first append).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn.load(Ordering::SeqCst).saturating_sub(1)
    }

    /// Whether a snapshot is due: the log is `snapshot_every` entries
    /// past the newest one (docs/STORAGE.md §4).
    pub(crate) fn snapshot_due(&self) -> bool {
        let every = self.cfg.snapshot_every;
        let since = self.last_lsn().saturating_sub(self.snapshot_lsn.load(Ordering::Relaxed));
        every != 0 && since >= every
    }

    /// Whether every append so far reached disk. `false` means a prior
    /// append hit an I/O error: the process keeps serving from memory,
    /// but acknowledgements are no longer crash-durable.
    pub fn healthy(&self) -> bool {
        !self.failed.load(Ordering::Relaxed)
    }

    /// Appends `entries` as one commit batch — one frame — assigning
    /// consecutive LSNs. The caller holds the journal lock that owns
    /// `head`, so LSN order equals commit order and file order. One
    /// `write_all` and at most one `fdatasync` per call.
    pub(crate) fn append(&self, head: &mut LogHead, entries: &[JournalEntry]) {
        if entries.is_empty() {
            return;
        }
        let first_lsn = self.next_lsn.fetch_add(entries.len() as u64, Ordering::SeqCst);
        if let Err(e) = self.write_batch(head, first_lsn, entries) {
            if !self.failed.swap(true, Ordering::Relaxed) {
                gridbank_obs::count("db.journal.disk_errors", 1);
                eprintln!(
                    "gridbank-store: log append failed ({e}); \
                     continuing in memory — acks are no longer crash-durable"
                );
            }
        }
    }

    fn write_batch(
        &self,
        head: &mut LogHead,
        first_lsn: u64,
        entries: &[JournalEntry],
    ) -> Result<(), BankError> {
        crate::sync::may_block("log append");
        if head.bytes >= self.cfg.segment_bytes {
            head.rotate();
        }
        let mut buf = Vec::new();
        // The log directory, when this append opens a segment in it.
        let mut opened_in = None;
        let file = match &mut head.file {
            Some(f) => f,
            slot => {
                let dir = log_dir(&self.cfg.dir);
                let path = segment_path(&dir, self.next_seq.fetch_add(1, Ordering::Relaxed));
                let f = fs::OpenOptions::new()
                    .create_new(true)
                    .append(true)
                    .open(&path)
                    .map_err(|e| storage_err(&path.display().to_string(), e))?;
                // The header rides in the same write as the first frame.
                buf = segment_header(first_lsn);
                head.bytes = 0;
                opened_in = Some(dir);
                slot.insert(f)
            }
        };
        encode_frame(&mut buf, first_lsn, entries);
        file.write_all(&buf).map_err(|e| storage_err("log append", e))?;
        if self.cfg.fsync {
            file.sync_data().map_err(|e| storage_err("log fsync", e))?;
            if let Some(dir) = opened_in {
                // A new file is durable only once its directory entry is.
                sync_dir(&dir)?;
            }
        }
        head.bytes = head.bytes.saturating_add(buf.len() as u64);
        Ok(())
    }

    /// Writes an encoded snapshot durably: tmp file → `fsync` → atomic
    /// rename → directory `fsync` → read-back verification. Only after
    /// the verification does the checkpoint position move; a crash or an
    /// error at any earlier point leaves the previous snapshot
    /// authoritative. Returns the bytes written.
    pub(crate) fn write_snapshot(
        &self,
        through_lsn: u64,
        bytes: Vec<u8>,
    ) -> Result<u64, BankError> {
        crate::sync::may_block("snapshot write");
        let dir = snapshot_dir(&self.cfg.dir);
        let len = bytes.len() as u64;
        let final_path = snapshot_path(&dir, through_lsn);
        let tmp_path = final_path.with_extension("gbs.tmp");
        {
            let mut f = fs::File::create(&tmp_path)
                .map_err(|e| storage_err(&tmp_path.display().to_string(), e))?;
            // In 64 KiB pieces: on the reference host a `write` costs by
            // its size — a 16 MB image 65 ms in one call, 5 ms in these,
            // and either in 1 MiB ones (EXPERIMENTS.md E25).
            for piece in bytes.chunks(1 << 16) {
                f.write_all(piece).map_err(|e| storage_err("snapshot write", e))?;
            }
            // The kernel has the image now: free it before the read-back
            // below holds the file and its decoded rows.
            drop(bytes);
            if self.cfg.fsync {
                f.sync_all().map_err(|e| storage_err("snapshot fsync", e))?;
            }
        }
        fs::rename(&tmp_path, &final_path).map_err(|e| storage_err("snapshot rename", e))?;
        if self.cfg.fsync {
            sync_dir(&dir)?;
        }
        // Belt and braces: never compact on the strength of a snapshot
        // we cannot read back.
        let reread = fs::read(&final_path).map_err(|e| storage_err("snapshot read-back", e))?;
        Snapshot::from_bytes(&reread).map_err(|e| storage_err("snapshot verify", e))?;
        self.snapshot_lsn.store(through_lsn, Ordering::Relaxed);
        gridbank_obs::count("db.snapshot.writes", 1);
        gridbank_obs::count("db.snapshot.bytes", len);
        Ok(len)
    }

    /// One compaction pass (docs/STORAGE.md §4): prunes the snapshot
    /// generations beyond `retain_snapshots`, takes the **cut** — the
    /// oldest retained generation's `through_lsn`, so every entry at or
    /// below it is in every retained snapshot — records it in the
    /// `COMPACTED` marker, and deletes the closed segments that end at
    /// or below it. Returns `(segments_dropped, snapshots_pruned)`.
    pub(crate) fn compact(&self) -> Result<(usize, usize), BankError> {
        crate::sync::may_block("compaction");
        let retain = self.cfg.retain_snapshots.max(1);
        let snap_dir = snapshot_dir(&self.cfg.dir);
        let mut snaps = list_numbered(&snap_dir, "snap-", ".gbs")?;
        snaps.sort_unstable();
        let excess = snaps.len().saturating_sub(retain);
        let mut pruned = 0usize;
        for lsn in snaps.drain(..excess) {
            if fs::remove_file(snapshot_path(&snap_dir, lsn)).is_ok() {
                pruned = pruned.saturating_add(1);
            }
        }
        // A store never snapshotted needs the whole log.
        let cut = snaps.first().copied().unwrap_or(0);

        // Marker first, then deletion: recovery refuses to run from a
        // snapshot older than the marker, so a crash between the two
        // steps can never silently lose the gap.
        let dir = log_dir(&self.cfg.dir);
        if cut > self.compacted.load(Ordering::Relaxed) {
            write_compacted_marker(&dir, cut, self.cfg.fsync)?;
            self.compacted.store(cut, Ordering::Relaxed);
        }

        let mut segs = list_numbered(&dir, "seg-", ".gbj")?;
        segs.sort_unstable();
        let mut dropped = 0usize;
        // LSNs rise along the segment sequence, so a successor that
        // starts at or before `cut + 1` proves every entry of its
        // predecessor is at or below the cut. The newest segment has no
        // successor and is never deleted.
        for pair in segs.windows(2) {
            match read_first_lsn(&segment_path(&dir, pair[1]))? {
                Some(next_first) if next_first <= cut.saturating_add(1) => {}
                _ => break,
            }
            if fs::remove_file(segment_path(&dir, pair[0])).is_ok() {
                dropped = dropped.saturating_add(1);
            }
        }
        gridbank_obs::count("db.snapshot.compacted_segments", dropped as u64);
        Ok((dropped, pruned))
    }
}

fn write_compacted_marker(dir: &Path, through: u64, fsync: bool) -> Result<(), BankError> {
    crate::sync::may_block("compacted marker write");
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
    fs::rename(&tmp, &final_path).map_err(|e| storage_err("compacted marker rename", e))?;
    if fsync {
        // "Marker before delete" needs the rename itself on disk before
        // `compact` removes a segment.
        sync_dir(dir)?;
    }
    Ok(())
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

/// Makes a file creation, rename or removal in `dir` durable.
fn sync_dir(dir: &Path) -> Result<(), BankError> {
    crate::sync::may_block("directory fsync");
    let synced = fs::File::open(dir).and_then(|d| d.sync_all());
    synced.map_err(|e| storage_err(&dir.display().to_string(), e))
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
    let mut w = ByteWriter::with_capacity(24);
    w.put_u32(MANIFEST_MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u32(bank as u32);
    w.put_u32(branch as u32);
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
}

/// Reads and verifies a store's `MANIFEST`. The version is judged
/// first, from the two leading words every format version shares: an
/// older store's manifest has another length, and the refusal should
/// name its version rather than its size.
pub fn read_manifest(dir: &Path) -> Result<Manifest, BankError> {
    let path = dir.join("MANIFEST");
    let bytes = fs::read(&path).map_err(|e| storage_err(&path.display().to_string(), e))?;
    let mut r = ByteReader::new(&bytes);
    let magic = r.get_u32().map_err(|e| storage_err("MANIFEST", e))?;
    let version = r.get_u32().map_err(|e| storage_err("MANIFEST", e))?;
    if magic != MANIFEST_MAGIC {
        return Err(BankError::Storage("bad MANIFEST magic".into()));
    }
    if version != FORMAT_VERSION {
        return Err(BankError::Storage(format!("unsupported store version {version}")));
    }
    if bytes.len() != 24 {
        return Err(BankError::Storage("MANIFEST has wrong length".into()));
    }
    let (body, tail) = bytes.split_at(16);
    let mut check = [0u8; 8];
    check.copy_from_slice(tail);
    if fnv64(body) != u64::from_le_bytes(check) {
        return Err(BankError::Storage("MANIFEST checksum mismatch".into()));
    }
    let bank = r.get_u32().map_err(|e| storage_err("MANIFEST", e))?;
    let branch = r.get_u32().map_err(|e| storage_err("MANIFEST", e))?;
    Ok(Manifest { version, bank: bank as u16, branch: branch as u16 })
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

/// What recovery did — the evidence behind the "tail-only" claim
/// (docs/STORAGE.md §5). `tail_entries_replayed` is the number the
/// bounded-recovery tests assert on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// 1 when the state came from a snapshot file, 0 when it was rebuilt
    /// from the journal alone (a fresh or never-snapshotted store).
    pub snapshots_loaded: usize,
    /// Newer snapshot generations that failed verification and were
    /// skipped in favor of an older one.
    pub snapshots_skipped: usize,
    /// Journal entries replayed past the snapshot — the *tail*. This,
    /// not total history, bounds restart time.
    pub tail_entries_replayed: usize,
    /// Segment files scanned while collecting the tail.
    pub segments_scanned: usize,
    /// 1 when the final segment ended in a truncated or checksum-failed
    /// frame (tolerated and cut off: that batch never acked), else 0.
    pub torn_tails: usize,
    /// Accounts alive after recovery.
    pub accounts: usize,
    /// Wall-clock recovery time (directory scan to serving state).
    pub elapsed_ms: u64,
}

/// Everything read back from disk, ready to be folded into a fresh
/// [`crate::db::Database`]: the base image plus the journal tail.
pub struct RecoveredState {
    /// The newest valid snapshot (an empty image where none existed).
    pub base: Snapshot,
    /// Every log entry past the base, in LSN order — the order the log
    /// holds them in.
    pub tail: Vec<(u64, JournalEntry)>,
    /// Evidence report (finished by the caller with timing/accounts).
    pub report: RecoveryReport,
}

/// The newest snapshot that verifies.
struct Base {
    /// The image (empty when there is no valid generation).
    image: Snapshot,
    /// Its size on disk; 0 when there is no valid generation.
    bytes: u64,
    /// Generations present, valid or not.
    generations: usize,
    /// Newer generations skipped as unreadable or corrupt.
    skipped: usize,
}

fn load_base(root: &Path) -> Result<Base, BankError> {
    let dir = snapshot_dir(root);
    let mut snaps = list_numbered(&dir, "snap-", ".gbs")?;
    snaps.sort_unstable_by(|a, b| b.cmp(a));
    let mut base =
        Base { image: Snapshot::default(), bytes: 0, generations: snaps.len(), skipped: 0 };
    for lsn in snaps {
        let parsed = fs::read(snapshot_path(&dir, lsn))
            .ok()
            .and_then(|bytes| Some((Snapshot::from_bytes(&bytes).ok()?, bytes.len())));
        match parsed {
            Some((image, len)) => {
                base.image = image;
                base.bytes = len as u64;
                break;
            }
            None => base.skipped = base.skipped.saturating_add(1),
        }
    }
    Ok(base)
}

/// What one forward scan of the log found.
#[derive(Default)]
struct LogScan {
    /// Segment files present.
    segments: usize,
    /// Their total size.
    bytes: u64,
    /// Highest segment sequence number present (0 when none).
    last_seq: u64,
    /// Highest LSN an intact frame holds (0 when none).
    last_lsn: u64,
    /// The final segment and the length of its valid prefix, when it
    /// ends in a frame that is cut short, fails its checksum or does not
    /// parse — a torn tail.
    torn: Option<(PathBuf, u64)>,
    /// Every entry past the floor, in LSN order.
    tail: Vec<(u64, JournalEntry)>,
}

/// Reads the log front to back, one segment in memory at a time. A
/// frame is whole or absent — it carries one checksum — and frames sit
/// in LSN order by construction, so there is nothing to reassemble: an
/// entry is kept iff its LSN is past `floor`, the base snapshot's
/// `through_lsn`. A bad frame ends the **final** segment's scan (a torn
/// tail: the write never completed, so it was never acknowledged);
/// anywhere earlier it is an error — later segments prove data was
/// acknowledged after it.
fn scan_log(root: &Path, floor: u64) -> Result<LogScan, BankError> {
    let dir = log_dir(root);
    let mut seqs = list_numbered(&dir, "seg-", ".gbj")?;
    seqs.sort_unstable();
    let last_seq = seqs.last().copied().unwrap_or(0);
    let mut scan = LogScan { segments: seqs.len(), last_seq, ..LogScan::default() };
    for seq in seqs {
        let path = segment_path(&dir, seq);
        let bytes = fs::read(&path).map_err(|e| storage_err(&path.display().to_string(), e))?;
        scan.bytes = scan.bytes.saturating_add(bytes.len() as u64);
        // Length of the prefix that is a header and whole frames.
        let mut clean = 0usize;
        if parse_segment_header(&path, &bytes)?.is_some() {
            clean = SEGMENT_HEADER;
            while let Some((first_lsn, entries, len)) = bytes.get(clean..).and_then(decode_frame) {
                for (i, entry) in entries.into_iter().enumerate() {
                    let lsn = first_lsn.saturating_add(i as u64);
                    scan.last_lsn = scan.last_lsn.max(lsn);
                    if lsn > floor {
                        scan.tail.push((lsn, entry));
                    }
                }
                clean = clean.saturating_add(len);
            }
        }
        if clean < bytes.len() || clean == 0 {
            if seq != last_seq {
                return Err(BankError::Storage(format!(
                    "{}: corrupt frame before the final segment — mid-log corruption, \
                     not a torn tail",
                    path.display()
                )));
            }
            scan.torn = Some((path, clean as u64));
        }
    }
    Ok(scan)
}

/// Everything on disk below the manifest: steps 2–3 of recovery
/// (docs/STORAGE.md §5), shared with the read-only [`inspect`].
struct StoreScan {
    base: Base,
    /// The `COMPACTED` marker (0 when never compacted).
    compacted: u64,
    log: LogScan,
}

fn scan_store(root: &Path) -> Result<StoreScan, BankError> {
    let base = load_base(root)?;
    let log = scan_log(root, base.image.through_lsn)?;
    Ok(StoreScan { base, compacted: read_compacted_marker(&log_dir(root)), log })
}

/// Opens (or creates) the store at `cfg.dir` and recovers its state:
/// newest valid snapshot, tail-only journal replay past it. Returns the
/// recovered state and the live log positioned to append.
pub fn open_store(
    bank: u16,
    branch: u16,
    cfg: StoreConfig,
) -> Result<(RecoveredState, DiskLog), BankError> {
    let dir = log_dir(&cfg.dir);
    for made in [&dir, &snapshot_dir(&cfg.dir)] {
        fs::create_dir_all(made).map_err(|e| storage_err("create store dir", e))?;
    }
    let manifest_path = cfg.dir.join("MANIFEST");
    match read_manifest(&cfg.dir) {
        Ok(m) => {
            if m.bank != bank || m.branch != branch {
                return Err(BankError::Storage(format!(
                    "store at {} belongs to bank {} branch {}, not bank {bank} branch {branch}",
                    cfg.dir.display(),
                    m.bank,
                    m.branch,
                )));
            }
        }
        Err(_) if !manifest_path.exists() => {
            fs::write(&manifest_path, manifest_bytes(bank, branch))
                .map_err(|e| storage_err("write MANIFEST", e))?;
        }
        Err(e) => return Err(e),
    }

    let StoreScan { base, compacted, log } = scan_store(&cfg.dir)?;
    let mut report = RecoveryReport {
        snapshots_loaded: usize::from(base.bytes != 0),
        snapshots_skipped: base.skipped,
        segments_scanned: log.segments,
        tail_entries_replayed: log.tail.len(),
        ..RecoveryReport::default()
    };
    // The tripwire: segments at or below the marker may be gone, so a
    // store whose best snapshot is older cannot be made whole.
    let floor = base.image.through_lsn;
    if floor < compacted {
        return Err(BankError::Storage(format!(
            "no valid snapshot covers the compacted journal prefix (best snapshot at LSN \
             {floor}, journal compacted through LSN {compacted}); the store cannot be \
             recovered completely"
        )));
    }
    if let Some((path, clean)) = &log.torn {
        report.torn_tails = 1;
        // Cut the torn frame off, so a second open finds a clean log and
        // no later append lands behind garbage. A segment left without a
        // whole frame goes altogether: it holds nothing, and an empty
        // file has no first LSN for compaction to pivot on.
        if *clean <= SEGMENT_HEADER as u64 {
            fs::remove_file(path).map_err(|e| storage_err("remove torn segment", e))?;
            sync_dir(&dir)?;
        } else {
            let f = fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| storage_err("open segment for repair", e))?;
            f.set_len(*clean).map_err(|e| storage_err("truncate torn frame", e))?;
            f.sync_all().map_err(|e| storage_err("sync repaired segment", e))?;
        }
    }

    let disk = DiskLog {
        next_lsn: AtomicU64::new(floor.max(log.last_lsn).saturating_add(1)),
        next_seq: AtomicU64::new(log.last_seq.saturating_add(1)),
        snapshot_lsn: AtomicU64::new(floor),
        compacted: AtomicU64::new(compacted),
        failed: AtomicBool::new(false),
        cfg,
    };
    Ok((RecoveredState { base: base.image, tail: log.tail, report }, disk))
}

// ---------------------------------------------------------------------------
// Offline inspection (`gridbank store`).
// ---------------------------------------------------------------------------

/// A full offline inventory of a store directory.
#[derive(Clone, Debug)]
pub struct StoreInspection {
    /// The verified manifest.
    pub manifest: Manifest,
    /// Log segment files present.
    pub segments: usize,
    /// Total log segment bytes.
    pub segment_bytes: u64,
    /// The `COMPACTED` marker (0 when never compacted).
    pub compacted_through: u64,
    /// Whether the newest segment ends in a torn frame.
    pub torn_tail: bool,
    /// Snapshot generations present.
    pub snapshots: usize,
    /// Newest valid snapshot's `through_lsn` (0 when none).
    pub snapshot_lsn: u64,
    /// Newest valid snapshot's bytes (0 when none).
    pub snapshot_bytes: u64,
    /// Accounts in the newest valid snapshot.
    pub snapshot_accounts: usize,
    /// Log entries past the newest valid snapshot — what a restart
    /// would replay.
    pub tail_entries: usize,
}

impl StoreInspection {
    /// Total bytes on disk (segments + the newest snapshot).
    pub fn total_bytes(&self) -> u64 {
        self.segment_bytes.saturating_add(self.snapshot_bytes)
    }
}

/// Reads a store directory without opening it for writing — the
/// `gridbank store` subcommand. Never mutates anything.
///
/// Distinguishes "this was never a store" (missing, empty, or
/// MANIFEST-less directory → [`BankError::NotAStore`]) from "this store
/// is damaged" (manifest or a non-final segment unreadable →
/// [`BankError::Storage`]).
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
    let StoreScan { base, compacted, log } = scan_store(dir)?;
    Ok(StoreInspection {
        manifest,
        segments: log.segments,
        segment_bytes: log.bytes,
        compacted_through: compacted,
        torn_tail: log.torn.is_some(),
        snapshots: base.generations,
        snapshot_lsn: base.image.through_lsn,
        snapshot_bytes: base.bytes,
        snapshot_accounts: base.image.accounts.len(),
        tail_entries: log.tail.len(),
    })
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

    fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
        (
            (any::<u64>(), any::<u32>(), any::<u64>()),
            proptest::collection::vec(arb_account(), 0..8),
            proptest::collection::vec(arb_transaction(), 0..8),
            proptest::collection::vec(arb_transfer(), 0..8),
            proptest::collection::vec(arb_idem(), 0..6),
            proptest::collection::vec(arb_pending(), 0..6),
        )
            .prop_map(
                |(
                    (through_lsn, next_account_hint, next_tx_hint),
                    accounts,
                    transactions,
                    transfers,
                    idem,
                    pending,
                )| Snapshot {
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

    /// The rows of an owned image, as a capture borrows them from the
    /// live tables.
    fn rows(snap: &Snapshot) -> SnapshotRows<'_> {
        SnapshotRows {
            through_lsn: snap.through_lsn,
            next_account_hint: snap.next_account_hint,
            next_tx_hint: snap.next_tx_hint,
            accounts: snap.accounts.iter().collect(),
            transactions: &snap.transactions,
            transfers: &snap.transfers,
            idem: snap
                .idem
                .iter()
                .map(|s| (s.order, s.cert.as_str(), s.key, s.response.as_slice()))
                .collect(),
            pending: snap.pending.iter().collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// docs/STORAGE.md §2.3: the snapshot codec round-trips any state
        /// image exactly, in the one buffer it sized beforehand.
        #[test]
        fn snapshot_codec_round_trips(snap in arb_snapshot()) {
            let bytes = rows(&snap).to_bytes();
            prop_assert_eq!(bytes.len(), rows(&snap).encoded_len());
            let back = Snapshot::from_bytes(&bytes).expect("decode");
            prop_assert_eq!(back, snap);
        }

        /// Any single flipped byte breaks the trailing checksum — the
        /// corruption detection compaction and recovery depend on.
        #[test]
        fn snapshot_codec_rejects_bit_rot(snap in arb_snapshot(), pos in any::<usize>()) {
            let mut bytes = rows(&snap).to_bytes();
            let i = pos % bytes.len();
            bytes[i] ^= 0x01;
            prop_assert!(Snapshot::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let bytes = rows(&Snapshot::default()).to_bytes();
        assert!(Snapshot::from_bytes(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "cut {cut} accepted");
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
