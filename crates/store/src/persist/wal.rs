//! The write-ahead log: length-prefixed, CRC32-checksummed record segments,
//! plus the group committer that coalesces concurrent `fdatasync`s.
//!
//! ## On-disk format
//!
//! A WAL is a sequence of *segment* files named `wal-<start>.log`, where
//! `<start>` is the zero-padded store version of the segment's first
//! record. Versions are assigned contiguously — one version per record,
//! whether the record carries one operation or a whole batch — so segment
//! `i` holds exactly the versions `[start_i, start_{i+1})`. A fresh segment
//! is started on every store open and on every checkpoint (rotation), and a
//! segment is deleted once a checkpoint covers all of its records.
//!
//! Each record is one frame, whatever it carries — a single insert or
//! delete, a whole [`crate::WriteBatch`], or a transaction commit:
//!
//! ```text
//! ┌──────────┬──────────┬────────────────────────────────────────────────────────┐
//! │ len: u32 │ crc: u32 │ payload (len = 13 + 9·n bytes)                         │
//! │  (LE)    │  (LE)    │ version: u64 │ tag: u8 = 2 │ n: u32 │ n × (op, key)    │
//! └──────────┴──────────┴────────────────────────────────────────────────────────┘
//! ```
//!
//! `crc` is the CRC32 (IEEE) of the payload. `op` is `0` for an insert,
//! `1` for a delete tombstone. Keys are widened to `u64` on disk regardless
//! of the store's key width. A single insert or delete is a frame with
//! `n = 1` ([`FRAME_LEN`] = 30 bytes). Because a record is one frame under
//! one checksum, a batch is durable **all-or-nothing**: a crash can never
//! persist a prefix of it.
//!
//! Earlier releases wrote single writes as a 25-byte frame whose 17-byte
//! payload is `version: u64 │ op: u8 │ key: u64` (the op byte sits where
//! the tag is). The reader still accepts that payload and decodes it into
//! the same one-op record, so directories written before the switch replay
//! unchanged; the writer never emits it.
//!
//! A reader stops at the first frame that is short, has an inconsistent
//! length, carries an unknown tag, or fails its checksum: that is the torn
//! tail of a crash, and everything before it is the durable prefix.
//!
//! ## Group commit
//!
//! Under [`SyncPolicy::Always`] every record must be durable before its
//! write is acknowledged — naively one `fdatasync` per record. The
//! crate-internal `GroupCommitter` instead lets concurrently submitted records share
//! syncs: each writer appends its frame (and applies in memory) under the
//! WAL lock, then waits on the committer; one waiter is elected *leader*,
//! syncs the file once — covering every frame appended before the sync —
//! and publishes how far durability reached, releasing every waiter at or
//! below that point. Writers that arrive while the leader is inside
//! `fdatasync` pile up behind the WAL lock and are drained by the *next*
//! leader's single sync, so `w` concurrent writers pay ~2 syncs per wave
//! instead of `w`.

use crate::batch::BatchOp;
use crate::config::SyncPolicy;
use crate::persist::crc32;
use sosd_data::key::Key;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

/// Payload tag byte of a record (the only tag the writer emits).
pub const BATCH_TAG: u8 = 2;
/// Payload bytes of a record holding `n` operations.
pub const fn payload_len(n: usize) -> usize {
    8 + 1 + 4 + 9 * n
}
/// Total frame bytes of a one-op record (a single insert or delete):
/// len (4) + crc (4) + payload.
pub const FRAME_LEN: usize = 8 + payload_len(1);
/// Payload bytes of the single-op record earlier releases wrote: version
/// (8) + op (1) + key (8). Read, never written.
const V1_PAYLOAD_LEN: usize = 17;

/// One decoded WAL record: every operation of one write call — a single
/// insert or delete, an applied [`crate::WriteBatch`] or a committed
/// transaction — under a single version and a single checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatchRecord {
    /// The monotonic store version assigned to the whole record.
    pub version: u64,
    /// The record's operations, in application order, keys widened to `u64`.
    pub ops: Vec<BatchOp<u64>>,
}

impl WalBatchRecord {
    /// Number of logical operations the record carries.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

/// Encode one complete frame for `ops` under `version` into `frame`
/// (cleared first; its capacity is reused across appends).
fn encode_frame<K: Key>(frame: &mut Vec<u8>, version: u64, ops: &[BatchOp<K>]) {
    frame.clear();
    frame.extend_from_slice(&(payload_len(ops.len()) as u32).to_le_bytes());
    frame.extend_from_slice(&[0; 4]); // the CRC, filled in below
    frame.extend_from_slice(&version.to_le_bytes());
    frame.push(BATCH_TAG);
    frame.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        let (byte, key) = match *op {
            BatchOp::Insert(k) => (0, k.to_u64()),
            BatchOp::Delete(k) => (1, k.to_u64()),
        };
        frame.push(byte);
        frame.extend_from_slice(&key.to_le_bytes());
    }
    let crc = crc32(&frame[8..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Decode one `(op, key)` pair; `None` for an unknown op byte.
fn decode_op(bytes: &[u8]) -> Option<BatchOp<u64>> {
    // lint: allow(panic) callers pass exactly 9 bytes (chunks_exact(9) or the 17-byte v1 length check); try_into cannot fail
    let key = u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes"));
    match bytes[0] {
        0 => Some(BatchOp::Insert(key)),
        1 => Some(BatchOp::Delete(key)),
        _ => None,
    }
}

/// Decode one length- and CRC-validated payload into a record. `None`
/// means an unknown shape (treated as a torn tail by the reader).
fn decode_payload(payload: &[u8]) -> Option<WalBatchRecord> {
    if payload.len() < 9 {
        return None;
    }
    // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
    let version = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let ops = match payload[8] {
        BATCH_TAG => {
            if payload.len() < payload_len(0) {
                return None;
            }
            // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
            let count = u32::from_le_bytes(payload[9..13].try_into().expect("4 bytes")) as usize;
            if count == 0 || payload.len() != payload_len(count) {
                return None;
            }
            payload[13..]
                .chunks_exact(9)
                .map(decode_op)
                .collect::<Option<Vec<_>>>()?
        }
        // A single-op payload from an earlier release: its op byte sits
        // where the tag is.
        _ if payload.len() == V1_PAYLOAD_LEN => vec![decode_op(&payload[8..])?],
        _ => return None,
    };
    Some(WalBatchRecord { version, ops })
}

/// File name of the segment whose first record carries `start`.
pub fn segment_name(start: u64) -> String {
    format!("wal-{start:020}.log")
}

/// Parse a segment file name back to its start version.
pub fn parse_segment_start(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// The WAL segments of `dir` as `(start_version, path)` pairs, sorted by
/// start version (replay order).
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(start) = entry.file_name().to_str().and_then(parse_segment_start) {
            out.push((start, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(start, _)| start);
    Ok(out)
}

/// The decoded contents of one segment scan.
#[derive(Debug, Clone, Default)]
pub struct SegmentScan {
    /// The validated records, in append (= version) order.
    pub records: Vec<WalBatchRecord>,
    /// Byte offset of the end of each validated record — `boundaries[i]` is
    /// where record `i`'s frame ends, so truncating the file there keeps
    /// exactly the first `i + 1` records (crash-point tests lean on this).
    pub boundaries: Vec<u64>,
    /// True when trailing bytes after the last validated record were
    /// discarded (a torn frame, a checksum mismatch, or garbage).
    pub torn_tail: bool,
}

/// Scan a segment file, validating every frame. Never fails on a damaged
/// *tail* — a short frame, a bad length, an unknown tag or a CRC mismatch
/// terminates the scan with `torn_tail` set (recovery invariant 4); only
/// the initial open or read can error.
pub fn read_segment(path: &Path) -> std::io::Result<SegmentScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut scan = SegmentScan::default();
    let mut at = 0usize;
    while bytes.len() - at >= 8 {
        // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if bytes.len() - at - 8 < len {
            break; // short frame: the torn tail of a crash
        }
        let payload = &bytes[at + 8..at + 8 + len];
        if crc32(payload) != crc {
            break;
        }
        let Some(record) = decode_payload(payload) else {
            break; // unknown record shape: treat as torn
        };
        at += 8 + len;
        scan.records.push(record);
        scan.boundaries.push(at as u64);
    }
    scan.torn_tail = at < bytes.len();
    Ok(scan)
}

/// Appender over one open segment, enforcing the sync policy.
///
/// A *failed* append is rolled back: the segment is truncated to the last
/// accepted frame, so a write the caller saw fail can never be durable
/// (and a partial frame can never strand later acknowledged frames behind
/// garbage — the reader stops at the first bad frame). If even the
/// rollback fails the writer poisons itself and refuses further appends.
pub(crate) struct WalWriter {
    file: File,
    policy: SyncPolicy,
    /// When set, [`SyncPolicy::Always`] appends do **not** sync inline —
    /// the [`GroupCommitter`] owns the sync instead (after the in-memory
    /// apply, outside the append), so concurrent writers can share it.
    defer_sync: bool,
    /// Appends since the last explicit sync (drives [`SyncPolicy::EveryN`]).
    unsynced: u32,
    /// `fdatasync`s issued against this segment (for the group-commit
    /// accounting surfaced by `DurabilityStats::wal_syncs`).
    syncs: u64,
    /// Bytes of accepted frames: every successful append ends here, and a
    /// failed one truncates back to here.
    len: u64,
    /// Set when a failed append could not be rolled back — or a deferred
    /// (group) sync failed: the segment tail is in an unknown state, so no
    /// further record may land after it.
    poisoned: bool,
    /// Encoding buffer reused by every append.
    frame: Vec<u8>,
}

impl WalWriter {
    /// Start the segment whose first record will carry `start` (truncating
    /// any same-named leftover: a collision is only possible when that
    /// leftover holds no validated record, since replay advances the next
    /// version past every record it accepts).
    pub(crate) fn create(dir: &Path, start: u64, policy: SyncPolicy) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(segment_name(start)))?;
        crate::persist::sync_dir(dir);
        Ok(Self {
            file,
            policy,
            defer_sync: false,
            unsynced: 0,
            syncs: 0,
            len: 0,
            poisoned: false,
            frame: Vec::new(),
        })
    }

    /// `fdatasync`s issued against this segment so far.
    pub(crate) fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// Hand [`SyncPolicy::Always`] syncs to the group committer (see the
    /// module docs) instead of syncing inline on every append.
    pub(crate) fn defer_sync(&mut self, defer: bool) {
        self.defer_sync = defer;
    }

    /// True once an unrecoverable append/sync failure has been observed.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Test hook: mark the writer poisoned as a failed sync would, without
    /// injecting a real I/O error.
    pub(crate) fn poison_for_tests(&mut self) {
        self.poisoned = true;
    }

    /// Append one record holding `ops` under `version` and apply the sync
    /// policy. Returns the bytes written (for write-amplification
    /// accounting). The frame is encoded into the writer's reused buffer,
    /// so an append allocates nothing once the buffer has grown to the
    /// largest frame seen. The whole record is one frame under one checksum
    /// — durable all-or-nothing — but it advances the [`SyncPolicy::EveryN`]
    /// counter by its full operation count, so the documented "lose at most
    /// `n − 1` acknowledged *writes*" bound holds regardless of batching.
    pub(crate) fn append<K: Key>(
        &mut self,
        version: u64,
        ops: &[BatchOp<K>],
    ) -> std::io::Result<u64> {
        let mut frame = std::mem::take(&mut self.frame);
        encode_frame(&mut frame, version, ops);
        let result = self.append_frame(&frame, ops.len().min(u32::MAX as usize) as u32);
        self.frame = frame;
        result
    }

    /// Append one encoded frame carrying `ops` logical operations and apply
    /// the sync policy (unless deferred to the group committer).
    ///
    /// On a short write the frame is rolled back (durably — the truncate is
    /// fsynced) before the error is returned, so the caller's view ("this
    /// write did not happen") matches the disk. On an inline *sync* error
    /// the writer additionally poisons itself: once `fdatasync` has failed,
    /// the kernel may drop the dirty pages of earlier acknowledged frames
    /// while clearing the error, so no durability promise about this
    /// segment can be kept any more and continuing to append would silently
    /// widen the loss beyond the documented `n − 1` bound.
    fn append_frame(&mut self, frame: &[u8], ops: u32) -> std::io::Result<u64> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "WAL writer poisoned by an earlier append or sync failure",
            ));
        }
        if let Err(e) = self.file.write_all(frame) {
            if self.rollback().is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.unsynced = self.unsynced.saturating_add(ops);
        let sync_due = match self.policy {
            SyncPolicy::Always => !self.defer_sync,
            SyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            SyncPolicy::Os => false,
        };
        if sync_due {
            if let Err(e) = self.sync() {
                let _ = self.rollback();
                return Err(e);
            }
        }
        self.len += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Truncate the segment back to the last accepted frame and make the
    /// truncate itself durable (without the fsync, a power loss could
    /// resurrect the rolled-back frame from cached metadata).
    fn rollback(&mut self) -> std::io::Result<()> {
        self.file.set_len(self.len)?;
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.sync_data()
    }

    /// Force everything appended so far to stable storage.
    ///
    /// A failed `fdatasync` **poisons the writer**, whichever path issued
    /// it (an inline policy sync, the checkpoint rotation, an explicit
    /// `sync_wal`, or a group-commit leader): the kernel reports a
    /// writeback error once per fd and may drop the dirty pages while
    /// clearing it, so a *later* sync on the same segment could falsely
    /// report lost records as durable. Once poisoned, no further append or
    /// sync is accepted — reopening the store recovers the durable prefix.
    pub(crate) fn sync(&mut self) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "WAL writer poisoned by an earlier append or sync failure",
            ));
        }
        self.syncs += 1;
        if let Err(e) = self.file.sync_data() {
            self.poisoned = true;
            return Err(e);
        }
        self.unsynced = 0;
        Ok(())
    }
}

/// Outcome of one group-commit wait (see [`GroupCommitter::commit`]).
#[derive(Debug)]
pub(crate) enum GroupCommitError {
    /// This waiter's own leader sync failed.
    Sync(std::io::Error),
    /// An earlier sync failure poisoned the log before this record became
    /// durable.
    Poisoned,
}

#[derive(Debug, Default)]
struct GroupState {
    /// Highest ticket (append sequence) proven durable.
    synced: u64,
    /// A leader is currently inside the sync.
    leader: bool,
    /// A sync failed on the **live** segment: no later ticket on it can
    /// ever become durable. Cleared by [`GroupCommitter::reset`] when a
    /// checkpoint rotates the poisoned segment away.
    failed: bool,
    /// Tickets below this belong to a poisoned, rotated-away segment whose
    /// unsynced durability is unknowable — they must still fail even after
    /// `failed` is cleared (unless `synced` already covered them before the
    /// failure, in which case they are genuinely durable).
    invalid_below: u64,
}

/// Coalesces the `fdatasync`s of concurrently committed records under
/// [`SyncPolicy::Always`] (see the module docs): waiters elect one leader
/// per wave, the leader's single sync covers every frame appended before
/// it, and everyone whose ticket the sync reached is released at once.
#[derive(Debug, Default)]
pub(crate) struct GroupCommitter {
    state: Mutex<GroupState>,
    cv: Condvar,
}

impl GroupCommitter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Block until the append identified by `ticket` is durable. `sync` is
    /// the leader duty: flush the log and report the highest ticket the
    /// flush covered (the caller runs it under its WAL lock; this committer
    /// never holds its own state lock across it). `arrivals` is a cheap
    /// monotonic append counter: before paying the sync, the elected
    /// leader yields while it still observes new appends landing (bounded),
    /// so a burst of concurrent writers is drained by one deep wave instead
    /// of several shallow ones — a solo writer sees arrivals stop after one
    /// probe and syncs immediately.
    ///
    /// On a sync failure every waiter whose ticket was not yet covered
    /// gets an error — their records may or may not have reached the disk,
    /// and the caller is expected to poison the writer so the uncertainty
    /// cannot widen.
    pub(crate) fn commit(
        &self,
        ticket: u64,
        arrivals: impl Fn() -> u64,
        mut sync: impl FnMut() -> std::io::Result<u64>,
    ) -> Result<(), GroupCommitError> {
        // lint: allow(panic) group-commit state poisoning means a leader panicked mid-commit; propagate
        let mut st = self.state.lock().expect("group commit state poisoned");
        loop {
            if st.synced >= ticket {
                return Ok(()); // covered by a successful sync: durable
            }
            if st.failed || ticket < st.invalid_below {
                return Err(GroupCommitError::Poisoned);
            }
            if !st.leader {
                st.leader = true;
                drop(st);
                // Deepen the wave: while appends keep arriving, one yield
                // buys many more records per fdatasync. Bounded so a
                // steady trickle cannot delay durability indefinitely.
                let mut last = arrivals();
                for _ in 0..64 {
                    std::thread::yield_now();
                    let now = arrivals();
                    if now == last {
                        break;
                    }
                    last = now;
                }
                let result = sync();
                // lint: allow(panic) group-commit state poisoning means a leader panicked mid-commit; propagate
                st = self.state.lock().expect("group commit state poisoned");
                st.leader = false;
                match result {
                    Ok(upto) => st.synced = st.synced.max(upto),
                    Err(e) => {
                        st.failed = true;
                        self.cv.notify_all();
                        return Err(GroupCommitError::Sync(e));
                    }
                }
                self.cv.notify_all();
            } else {
                // lint: allow(panic) group-commit state poisoning means a leader panicked mid-commit; propagate
                st = self.cv.wait(st).expect("group commit state poisoned");
            }
        }
    }

    /// Heal the committer after a checkpoint rotated a **poisoned** segment
    /// away: tickets on the fresh segment (`>= next_ticket`) commit
    /// normally again, while tickets from the poisoned era keep failing —
    /// their records' durability is unknowable. Without this, the store
    /// would apply-and-append every post-rotation write but report it
    /// failed forever, and retrying callers would double-apply.
    pub(crate) fn reset(&self, next_ticket: u64) {
        // lint: allow(panic) group-commit state poisoning means a leader panicked mid-commit; propagate
        let mut st = self.state.lock().expect("group commit state poisoned");
        st.failed = false;
        st.invalid_below = st.invalid_below.max(next_ticket);
        drop(st);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shift-store-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    /// `n` one-op records, a delete every third.
    fn records(n: u64) -> Vec<WalBatchRecord> {
        (0..n)
            .map(|i| {
                let key = i * 977;
                single(
                    i + 1,
                    if i % 3 == 0 {
                        BatchOp::Delete(key)
                    } else {
                        BatchOp::Insert(key)
                    },
                )
            })
            .collect()
    }

    fn single(version: u64, op: BatchOp<u64>) -> WalBatchRecord {
        WalBatchRecord {
            version,
            ops: vec![op],
        }
    }

    fn append(w: &mut WalWriter, r: &WalBatchRecord) -> u64 {
        w.append(r.version, &r.ops).unwrap()
    }

    /// The complete frame the writer emits for `r`.
    fn frame_of(r: &WalBatchRecord) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_frame(&mut frame, r.version, &r.ops);
        frame
    }

    #[test]
    fn append_then_scan_round_trips() {
        let dir = tmp_dir("roundtrip");
        let recs = records(20);
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::EveryN(4)).unwrap();
        for r in &recs {
            assert_eq!(append(&mut w, r), FRAME_LEN as u64);
        }
        drop(w);
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].0, 1);
        let scan = read_segment(&segments[0].1).unwrap();
        assert_eq!(scan.records, recs);
        assert!(!scan.torn_tail);
        assert_eq!(scan.boundaries.len(), 20);
        assert_eq!(*scan.boundaries.last().unwrap(), 20 * FRAME_LEN as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_records_round_trip_interleaved_with_singles() {
        let dir = tmp_dir("batch-roundtrip");
        let first = single(1, BatchOp::Insert(42));
        let batch = WalBatchRecord {
            version: 2,
            ops: vec![BatchOp::Insert(7), BatchOp::Delete(42), BatchOp::Insert(7)],
        };
        let tail = single(3, BatchOp::Delete(7));
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::Os).unwrap();
        assert_eq!(append(&mut w, &first), FRAME_LEN as u64);
        assert_eq!(append(&mut w, &batch), (8 + payload_len(3)) as u64);
        append(&mut w, &tail);
        drop(w);
        let scan = read_segment(&dir.join(segment_name(1))).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.records, vec![first, batch.clone(), tail]);
        assert_eq!(scan.records[1].version, 2);
        assert_eq!(scan.records[1].op_count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batches_advance_the_every_n_counter_by_their_op_count() {
        // The `EveryN(n)` loss bound is phrased in acknowledged *writes*:
        // a 64-op batch under EveryN(64) must sync just like 64 singles
        // would, not count as one record towards the threshold.
        let dir = tmp_dir("batch-everyn");
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::EveryN(64)).unwrap();
        let batch = WalBatchRecord {
            version: 1,
            ops: (0..64u64).map(BatchOp::Insert).collect(),
        };
        append(&mut w, &batch);
        assert_eq!(w.sync_count(), 1, "64 batched ops hit the n = 64 bound");
        // A small batch leaves the counter partially filled…
        let small = WalBatchRecord {
            version: 2,
            ops: (0..60u64).map(BatchOp::Delete).collect(),
        };
        append(&mut w, &small);
        assert_eq!(w.sync_count(), 1);
        // …and singles top it up to the next sync.
        for v in 3..7u64 {
            append(&mut w, &single(v, BatchOp::Insert(v)));
        }
        assert_eq!(w.sync_count(), 2, "60 + 4 ops crossed the bound");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_batch_records_drop_whole_not_prefix() {
        let dir = tmp_dir("batch-torn");
        let first = single(1, BatchOp::Insert(9));
        let batch = WalBatchRecord {
            version: 2,
            ops: (0..8u64).map(|i| BatchOp::Insert(i * 3)).collect(),
        };
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::Os).unwrap();
        append(&mut w, &first);
        append(&mut w, &batch);
        drop(w);
        let path = dir.join(segment_name(1));
        let full = std::fs::read(&path).unwrap();

        // Truncate anywhere inside the batch frame: the single before it
        // survives, the batch vanishes whole — never a prefix of its ops.
        for cut in [1usize, 8, 13, 20, full.len() - FRAME_LEN - 1] {
            std::fs::write(&path, &full[..FRAME_LEN + cut]).unwrap();
            let scan = read_segment(&path).unwrap();
            assert_eq!(scan.records, vec![first.clone()], "cut {cut}");
            assert!(scan.torn_tail, "cut {cut}");
        }

        // A checksum-valid frame with a lying op count is rejected whole.
        let mut lying = frame_of(&batch);
        lying[8 + 9] = 7; // count 8 -> 7: length no longer matches
        let crc = crc32(&lying[8..]);
        lying[4..8].copy_from_slice(&crc.to_le_bytes());
        let mut evil = full[..FRAME_LEN].to_vec();
        evil.extend_from_slice(&lying);
        std::fs::write(&path, &evil).unwrap();
        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.records, vec![first]);
        assert!(scan.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_and_corruption_end_the_scan() {
        let dir = tmp_dir("torn");
        let recs = records(10);
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::Os).unwrap();
        for r in &recs {
            append(&mut w, r);
        }
        drop(w);
        let path = dir.join(segment_name(1));
        let full = std::fs::read(&path).unwrap();

        // Truncate mid-record: the partial frame is discarded.
        std::fs::write(&path, &full[..4 * FRAME_LEN + 7]).unwrap();
        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.records, recs[..4]);
        assert!(scan.torn_tail);

        // Flip one payload byte of record 6: records 0..=5 survive.
        let mut bent = full.clone();
        bent[6 * FRAME_LEN + 12] ^= 0xFF;
        std::fs::write(&path, &bent).unwrap();
        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.records, recs[..6]);
        assert!(scan.torn_tail);

        // A bogus op byte is rejected by decode, not just by the CRC: craft
        // a frame with a valid checksum but op = 9, in both the current
        // payload and the single-op payload earlier releases wrote.
        let mut current = frame_of(&single(3, BatchOp::Insert(5)));
        current[8 + 13] = 9;
        let crc = crc32(&current[8..]);
        current[4..8].copy_from_slice(&crc.to_le_bytes());
        let mut v1 = [0u8; V1_PAYLOAD_LEN];
        v1[8] = 9;
        let mut v1_frame = (V1_PAYLOAD_LEN as u32).to_le_bytes().to_vec();
        v1_frame.extend_from_slice(&crc32(&v1).to_le_bytes());
        v1_frame.extend_from_slice(&v1);
        for bad in [current, v1_frame] {
            let mut evil = full[..2 * FRAME_LEN].to_vec();
            evil.extend_from_slice(&bad);
            std::fs::write(&path, &evil).unwrap();
            let scan = read_segment(&path).unwrap();
            assert_eq!(scan.records, recs[..2]);
            assert!(scan.torn_tail);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_op_frames_of_earlier_releases_decode_as_one_op_records() {
        let dir = tmp_dir("v1");
        let v1_frame = |version: u64, op: u8, key: u64| {
            let mut payload = version.to_le_bytes().to_vec();
            payload.push(op);
            payload.extend_from_slice(&key.to_le_bytes());
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&crc32(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            frame
        };
        let mut bytes = v1_frame(1, 0, 42);
        bytes.extend_from_slice(&v1_frame(2, 1, 42));
        let batch = WalBatchRecord {
            version: 3,
            ops: vec![BatchOp::Insert(5), BatchOp::Delete(6)],
        };
        bytes.extend_from_slice(&frame_of(&batch));
        let path = dir.join(segment_name(1));
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_segment(&path).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(
            scan.records,
            vec![
                single(1, BatchOp::Insert(42)),
                single(2, BatchOp::Delete(42)),
                batch,
            ]
        );
        assert_eq!(scan.boundaries, vec![25, 50, bytes.len() as u64]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_committer_fails_poisoned_era_tickets_and_heals_on_reset() {
        let g = GroupCommitter::new();
        let no_arrivals = || 0u64;
        // Ticket 3 synced successfully through version 5.
        assert!(g.commit(3, no_arrivals, || Ok(5)).is_ok());
        // Ticket 7's leader sync fails: the committer is failed.
        assert!(matches!(
            g.commit(7, no_arrivals, || Err(std::io::Error::other("EIO"))),
            Err(GroupCommitError::Sync(_))
        ));
        // Everything not already covered now fails fast, even with a sync
        // that would succeed (no leader may run while failed).
        assert!(matches!(
            g.commit(6, no_arrivals, || Ok(100)),
            Err(GroupCommitError::Poisoned)
        ));
        // …but a ticket the pre-failure sync covered is genuinely durable.
        assert!(g.commit(4, no_arrivals, || Ok(100)).is_ok());

        // A checkpoint rotates the poisoned segment away at version 10.
        g.reset(10);
        // Poisoned-era tickets stay rejected (durability unknowable)…
        assert!(matches!(
            g.commit(8, no_arrivals, || Ok(100)),
            Err(GroupCommitError::Poisoned)
        ));
        // …old durable tickets stay Ok, and fresh-segment tickets commit.
        assert!(g.commit(5, no_arrivals, || Ok(100)).is_ok());
        assert!(g.commit(11, no_arrivals, || Ok(12)).is_ok());
    }

    #[test]
    fn segments_list_in_version_order() {
        let dir = tmp_dir("order");
        for start in [900u64, 1, 37] {
            WalWriter::create(&dir, start, SyncPolicy::Os).unwrap();
        }
        let starts: Vec<u64> = list_segments(&dir).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(starts, vec![1, 37, 900]);
        assert_eq!(parse_segment_start(&segment_name(42)), Some(42));
        assert_eq!(parse_segment_start("wal-x.log"), None);
        assert_eq!(parse_segment_start("manifest-1"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
