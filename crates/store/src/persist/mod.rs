//! The durability subsystem: write-ahead log, epoch-consistent snapshots,
//! manifest rotation and crash recovery.
//!
//! A store opened with [`crate::ShardedStore::open`] keeps three kinds of
//! files in its directory:
//!
//! * **WAL segments** (`wal-<start-version>.log`, [`wal`]) — the ordered
//!   ledger of every insert/delete, length-prefixed and CRC32-checksummed.
//!   Every durable write appends its record *before* it is applied in
//!   memory, under one store-wide WAL lock that also assigns the record its
//!   monotonically increasing store version.
//! * **Shard snapshots** (`snap-<checkpoint>-<shard>.snap`) — one file per
//!   shard holding the shard's merged key column (base plus folded delta
//!   chain). New checkpoints write the block-structured **format v2**
//!   ([`v2`]): fixed-size key blocks each under its own CRC32, a trailing
//!   block index, and a versioned footer — so recovery can *mount* a shard
//!   cold and serve reads off the block index before any key is decoded.
//!   [`snapshot`] names the files. The trained model is *not* persisted:
//!   recovery retrains it from the keys and the spec string.
//! * **A manifest** (`manifest-<seq>`, [`manifest`]) — the root of every
//!   checkpoint: the spec string, the fence table, the snapshot file of
//!   each shard (with the shard's own applied version) and the checkpoint
//!   version. Written to a temp file and atomically renamed, so a crash can
//!   never leave a half-written root.
//!
//! ## Epoch-consistent checkpoints
//!
//! Because every durable write applies while holding the WAL lock, holding
//! that lock is a *global barrier*: a checkpoint takes it, rotates the WAL
//! to a fresh segment, pins every shard's published [`crate::ShardState`],
//! and releases it. The pinned set is then an exact cut — it contains every
//! write with version `<= cv` (the checkpoint version) and none above —
//! even though the snapshot files themselves are written leisurely after
//! the lock is dropped (pinned states are immutable). Once the manifest
//! referencing them is durable, every WAL segment whose records all carry
//! versions `<= cv` is deleted.
//!
//! ## Incremental checkpoints and their GC invariants
//!
//! Each manifest shard entry records the shard's **own** `applied` version
//! — the highest commit version folded into that snapshot file. A
//! checkpoint therefore only rewrites shards whose applied version advanced
//! since their last snapshot; a clean shard's entry is carried forward
//! verbatim, **re-referencing the prior checkpoint's file** under the new
//! manifest. That makes three invariants load-bearing:
//!
//! 1. *GC is manifest-driven, not sequence-driven*: a snapshot file is
//!    garbage only when the **newest** manifest does not reference it, so a
//!    `snap-0000000003-*.snap` file re-referenced by manifest 9 survives
//!    every intermediate collection (`gc` builds the referenced set from
//!    the manifest it just published).
//! 2. *Snapshot names never collide*: fresh files are always named under
//!    the current manifest sequence, so a rewrite can never overwrite a
//!    file an older manifest still references.
//! 3. *Skipping is only sound for identical content*: a shard is skipped
//!    iff its state's `applied_cv` equals the memoised value at its last
//!    snapshot **and** the topology (fence table) is unchanged — rebuilds
//!    and compaction never move `applied_cv` precisely because they never
//!    change the merged view, so "same `applied_cv`, same fences" implies
//!    byte-identical merged keys. Replay keeps its per-shard gate
//!    (`version <= shard.applied`), so a WAL record covered by a reused
//!    snapshot is a no-op on recovery exactly as before.
//!
//! ## The cold → hot shard lifecycle (streaming open)
//!
//! With [`crate::StoreConfig::cold_start`] set, recovery does not decode or
//! retrain anything on the open path: it parses the manifest, **mounts**
//! each v2 snapshot ([`v2::ColdBase`] — footer + index validation plus one
//! checksum sweep), and publishes each shard *cold*: an empty base column
//! whose [`RangeIndex`](algo_index::search::RangeIndex) is a
//! [`v2::ColdBlockIndex`] answering `lower_bound` off the per-block index,
//! with the WAL tail replayed into the shard's delta chain. First reads are
//! served in O(manifest + mount) time. A background hydrator then decodes
//! and retrains shards (bounded parallelism, the same scaffolding as
//! parallel recovery builds) and atomically swaps each hot via the ordinary
//! rebuild path — readers never block, and a pinned cold state stays valid
//! forever. Writes to a cold shard land in its delta chain unchanged, since
//! write paths only consult the index.
//!
//! ## Recovery invariants ([`recovery`])
//!
//! 1. The newest manifest that validates wins; older manifests and orphaned
//!    files are garbage, removed on the next successful checkpoint.
//! 2. Snapshots are rebuilt into shards by *retraining* the persisted spec
//!    over the persisted keys — model quality is reproduced, not restored —
//!    either eagerly at open or in the background after a cold mount.
//! 3. The WAL tail is replayed in version order through the recovered fence
//!    router. Replay is idempotent: a record whose version is at or below
//!    the routed shard's recovered version is a no-op, so stale segments
//!    that escaped truncation — and records already folded into a reused
//!    incremental snapshot — are harmless.
//! 4. A torn tail (short frame, or a CRC/length mismatch) ends the log:
//!    everything before it is the recovered durable prefix, everything
//!    after it is discarded.

pub mod manifest;
pub mod recovery;
pub mod snapshot;
pub mod v2;
pub mod wal;

use crate::config::{DurabilityConfig, SyncPolicy};
use crate::error::StoreError;
use shift_obs::{Histogram, Metric, Sampler};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use wal::{GroupCommitError, GroupCommitter, WalOp, WalRecord, WalWriter};

/// WAL appends pay the sampled latency timer 1-in-this-many times (power of
/// two so the sampler's mask test stays one AND).
const WAL_APPEND_SAMPLE: u64 = 64;

/// CRC32 (IEEE, reflected) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the checksum guarding every WAL record and
/// snapshot body. Implemented here so the on-disk format needs no external
/// dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Cumulative I/O counters of a durable store, for write-amplification
/// accounting (see the `store_durable` bench experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL records (frames) appended since the store was opened — a whole
    /// [`crate::WriteBatch`] is one record.
    pub wal_records: u64,
    /// Logical operations appended since the store was opened (every op of
    /// a batch counts).
    pub wal_ops: u64,
    /// `fdatasync` calls issued against the WAL since the store was opened
    /// — under group commit, concurrent writers share them.
    pub wal_syncs: u64,
    /// Bytes appended to the WAL since the store was opened.
    pub wal_bytes: u64,
    /// Checkpoints taken since the store was opened.
    pub checkpoints: u64,
    /// Bytes written to snapshot files since the store was opened.
    pub snapshot_bytes: u64,
    /// Store version of the most recent checkpoint (0 before the first).
    pub last_checkpoint_version: u64,
    /// Logical operations replayed from the WAL tail when the store was
    /// opened — every operation of a batch record counts, so this is
    /// `wal_ops`-denominated, not `wal_records`-denominated.
    pub replayed_records: u64,
    /// Shard snapshot files actually (re)written by checkpoints since the
    /// store was opened.
    pub checkpoint_shards_written: u64,
    /// Shards skipped by incremental checkpoints (their `applied_cv` had
    /// not advanced; the prior snapshot file was re-referenced).
    pub checkpoint_shards_skipped: u64,
    /// Bytes of prior snapshot files re-referenced instead of rewritten —
    /// the write amplification incremental checkpoints saved.
    pub snapshot_bytes_reused: u64,
}

/// Mutable persistence state, guarded by the store-wide WAL lock.
pub(crate) struct PersistInner {
    wal: WalWriter,
    /// Version the next WAL record will carry (strictly increasing).
    next_version: u64,
    /// Records appended since the last checkpoint (drives the worker duty).
    since_checkpoint: u64,
    /// Sequence number of the newest manifest on disk.
    manifest_seq: u64,
}

/// The persistence half of a durable store's core: the WAL writer plus the
/// checkpoint bookkeeping. All durable writes and the checkpoint *cut*
/// funnel through [`Persistence::append`] / [`Persistence::begin_checkpoint`],
/// whose shared mutex makes the cut an exact global barrier.
pub(crate) struct Persistence {
    dir: PathBuf,
    durability: DurabilityConfig,
    /// Logical operations recovery replayed before this layer was opened.
    replayed: u64,
    inner: Mutex<PersistInner>,
    /// `Some` when [`SyncPolicy::Always`] syncs are coalesced across
    /// concurrent writers (see [`GroupCommitter`]); appends then defer
    /// their sync to the commit wait below the WAL lock.
    group: Option<GroupCommitter>,
    /// Serialises whole checkpoints (worker vs. explicit calls); taken
    /// strictly before the `inner` lock.
    checkpoint_gate: Mutex<()>,
    wal_records: AtomicU64,
    wal_ops: AtomicU64,
    wal_bytes: AtomicU64,
    /// Syncs of rotated-away segments (the live segment's count lives in
    /// its writer).
    wal_syncs_rotated: AtomicU64,
    checkpoints: AtomicU64,
    snapshot_bytes: AtomicU64,
    last_checkpoint_version: AtomicU64,
    checkpoint_shards_written: AtomicU64,
    checkpoint_shards_skipped: AtomicU64,
    snapshot_bytes_reused: AtomicU64,
    /// Sampled WAL append latency (lock-to-applied), scraped into the
    /// `wal_append_ns` family by [`crate::ShardedStore::metrics`].
    wal_append_ns: Histogram,
    /// WAL `fdatasync` latency (group-commit leader syncs and explicit
    /// syncs; unsampled — device-bound).
    wal_sync_ns: Histogram,
    /// Records proven durable per group-commit leader sync (wave size).
    group_commit_wave: Histogram,
    append_sampler: Sampler,
    /// Always-fire sampler so sync timing needs no raw clock read here.
    sync_sampler: Sampler,
    /// Highest version a group-commit leader has proven durable (feeds the
    /// wave-size histogram).
    last_group_synced: AtomicU64,
}

impl Persistence {
    /// Open the persistence layer over `dir`, starting a fresh WAL segment
    /// at `next_version` (recovery already replayed everything below it).
    pub(crate) fn create(
        dir: PathBuf,
        durability: DurabilityConfig,
        next_version: u64,
        manifest_seq: u64,
        replayed: u64,
    ) -> Result<Self, StoreError> {
        let group = (durability.sync == SyncPolicy::Always && durability.group_commit)
            .then(GroupCommitter::new);
        let mut wal = WalWriter::create(&dir, next_version, durability.sync)?;
        wal.defer_sync(group.is_some());
        Ok(Self {
            dir,
            durability,
            replayed,
            inner: Mutex::new(PersistInner {
                wal,
                next_version,
                since_checkpoint: 0,
                manifest_seq,
            }),
            group,
            checkpoint_gate: Mutex::new(()),
            wal_records: AtomicU64::new(0),
            wal_ops: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            wal_syncs_rotated: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
            last_checkpoint_version: AtomicU64::new(0),
            checkpoint_shards_written: AtomicU64::new(0),
            checkpoint_shards_skipped: AtomicU64::new(0),
            snapshot_bytes_reused: AtomicU64::new(0),
            wal_append_ns: Histogram::new(),
            wal_sync_ns: Histogram::new(),
            group_commit_wave: Histogram::new(),
            append_sampler: Sampler::one_in(WAL_APPEND_SAMPLE),
            sync_sampler: Sampler::one_in(1),
            last_group_synced: AtomicU64::new(next_version.saturating_sub(1)),
        })
    }

    /// The store directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The durability configuration in force.
    pub(crate) fn durability(&self) -> DurabilityConfig {
        self.durability
    }

    /// Assign the next store version, append the record to the WAL
    /// (honouring the sync policy) and run `apply` — the in-memory write —
    /// **while still holding the WAL lock**. Holding the lock across the
    /// apply is what makes per-shard apply order equal version order, the
    /// invariant replay and the checkpoint cut both lean on.
    ///
    /// Under group commit ([`SyncPolicy::Always`] with
    /// [`DurabilityConfig::group_commit`]), the durability wait happens
    /// *after* the lock is released, so concurrent writers share one
    /// `fdatasync`; the call still only returns once this record is durable
    /// (or the sync failed, poisoning the writer).
    pub(crate) fn append<R>(
        &self,
        op: WalOp,
        key: u64,
        apply: impl FnOnce(u64) -> R,
    ) -> Result<R, StoreError> {
        let timer = self.append_sampler.start();
        let (result, ticket) = {
            let mut inner = self.inner.lock().expect("wal lock poisoned"); // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
            if inner.wal.is_poisoned() {
                return Err(StoreError::WalPoisoned);
            }
            let version = inner.next_version;
            let bytes = inner.wal.append(&WalRecord { version, op, key })?;
            inner.next_version += 1;
            inner.since_checkpoint += 1;
            self.wal_records.fetch_add(1, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            self.wal_ops.fetch_add(1, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            self.wal_bytes.fetch_add(bytes, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            (apply(version), version)
        };
        timer.finish(&self.wal_append_ns);
        self.group_commit(ticket)?;
        Ok(result)
    }

    /// [`Persistence::append`] for a whole [`crate::WriteBatch`]: one
    /// version, one multi-op frame, one durability wait. The batch is
    /// applied in memory under the WAL lock, so a checkpoint cut always
    /// contains whole batches.
    pub(crate) fn append_batch<R>(
        &self,
        ops: &[(WalOp, u64)],
        apply: impl FnOnce(u64) -> R,
    ) -> Result<R, StoreError> {
        let timer = self.append_sampler.start();
        let (result, ticket) = {
            let mut inner = self.inner.lock().expect("wal lock poisoned"); // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
            if inner.wal.is_poisoned() {
                return Err(StoreError::WalPoisoned);
            }
            let version = inner.next_version;
            let bytes = inner.wal.append_batch(version, ops)?;
            inner.next_version += 1;
            inner.since_checkpoint += ops.len() as u64;
            self.wal_records.fetch_add(1, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            self.wal_ops.fetch_add(ops.len() as u64, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            self.wal_bytes.fetch_add(bytes, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            (apply(version), version)
        };
        timer.finish(&self.wal_append_ns);
        self.group_commit(ticket)?;
        Ok(result)
    }

    /// [`Persistence::append_batch`] with a validation hook run **under the
    /// WAL lock, before the frame is written**: the transaction-commit path.
    ///
    /// Holding the WAL lock across every durable apply means the commit
    /// clock is quiescent while `validate` runs — no other durable write can
    /// be mid-publication — so a read-set check here sees exactly the
    /// committed state the transaction would serialize after. When
    /// `validate` fails, no frame is appended and no version is consumed:
    /// a conflicting transaction leaves no trace in the log.
    pub(crate) fn append_batch_validated<R>(
        &self,
        ops: &[(WalOp, u64)],
        validate: impl FnOnce() -> Result<(), StoreError>,
        apply: impl FnOnce(u64) -> R,
    ) -> Result<R, StoreError> {
        let timer = self.append_sampler.start();
        let (result, ticket) = {
            let mut inner = self.inner.lock().expect("wal lock poisoned"); // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
            if inner.wal.is_poisoned() {
                return Err(StoreError::WalPoisoned);
            }
            validate()?;
            let version = inner.next_version;
            let bytes = inner.wal.append_batch(version, ops)?;
            inner.next_version += 1;
            inner.since_checkpoint += ops.len() as u64;
            self.wal_records.fetch_add(1, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            self.wal_ops.fetch_add(ops.len() as u64, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            self.wal_bytes.fetch_add(bytes, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            (apply(version), version)
        };
        timer.finish(&self.wal_append_ns);
        self.group_commit(ticket)?;
        Ok(result)
    }

    /// Wait until the record carrying `ticket` (its store version) is
    /// durable. A no-op unless group commit is active — every other policy
    /// synced (or deliberately didn't) inside the append.
    ///
    /// On a sync failure the record **is** applied in memory but its
    /// durability is unknowable; the writer is poisoned so the divergence
    /// cannot widen (every later append fails), and the caller gets
    /// [`StoreError::WalPoisoned`] / the sync error.
    fn group_commit(&self, ticket: u64) -> Result<(), StoreError> {
        let Some(group) = &self.group else {
            return Ok(());
        };
        group
            .commit(
                ticket,
                || self.wal_records.load(Ordering::Relaxed), // lint: ordering(Relaxed) arrival-count hint for wave deepening; correctness never reads it
                || {
                    let mut inner = self.inner.lock().expect("wal lock poisoned"); // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
                    let upto = inner.next_version - 1;
                    let timer = self.sync_sampler.start();
                    // A failure here poisons the writer (see WalWriter::sync),
                    // so no later leader can falsely acknowledge lost records.
                    // lint: allow(guard-across-sync) group-commit leader: the flush must cover exactly the appended prefix, so the WAL lock stays held
                    let synced = inner.wal.sync().map(|()| upto);
                    if synced.is_ok() {
                        timer.finish(&self.wal_sync_ns);
                        // lint: ordering(Relaxed) stats gauge feeding the wave histogram; no synchronising role
                        let prev = self.last_group_synced.swap(upto, Ordering::Relaxed);
                        self.group_commit_wave.record(upto.saturating_sub(prev));
                    }
                    synced
                },
            )
            .map_err(|e| match e {
                GroupCommitError::Sync(e) => StoreError::Io(e),
                GroupCommitError::Poisoned => StoreError::WalPoisoned,
            })
    }

    /// Flush every appended WAL record to stable storage now, regardless of
    /// the sync policy.
    pub(crate) fn sync(&self) -> Result<(), StoreError> {
        let timer = self.sync_sampler.start();
        self.inner.lock().expect("wal lock poisoned").wal.sync()?; // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
        timer.finish(&self.wal_sync_ns);
        Ok(())
    }

    /// Test hook: poison the live WAL writer exactly as a failed
    /// `fdatasync` would, so repair and rejection paths can be exercised
    /// without injecting real I/O errors (reachable from integration tests
    /// via the `doc(hidden)` hook on [`crate::ShardedStore`]).
    pub(crate) fn poison_for_tests(&self) {
        self.inner
            .lock()
            .expect("wal lock poisoned") // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
            .wal
            .poison_for_tests();
    }

    /// True when the automatic-checkpoint record threshold has been crossed
    /// (the maintenance worker's duty trigger).
    pub(crate) fn checkpoint_due(&self) -> bool {
        self.durability.checkpoint_ops > 0
            && self
                .inner
                .lock()
                .expect("wal lock poisoned") // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
                .since_checkpoint
                >= self.durability.checkpoint_ops
    }

    /// Take the gate serialising whole checkpoints.
    pub(crate) fn checkpoint_gate(&self) -> MutexGuard<'_, ()> {
        self.checkpoint_gate
            .lock()
            .expect("checkpoint gate poisoned") // lint: allow(panic) gate poisoning means a checkpoint died half-written; no sound continuation
    }

    /// The checkpoint *cut*: under the WAL lock — which blocks every durable
    /// write — rotate the WAL to a fresh segment and run `pin` (which loads
    /// every shard's published state). Returns the checkpoint version `cv`
    /// (every write `<= cv` is inside the pinned states, none above), the
    /// manifest sequence to publish under, and `pin`'s result.
    pub(crate) fn begin_checkpoint<T>(
        &self,
        pin: impl FnOnce() -> T,
    ) -> Result<(u64, u64, T), StoreError> {
        let mut inner = self.inner.lock().expect("wal lock poisoned"); // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
        let cv = inner.next_version - 1;
        // The outgoing segment stops receiving appends here; flush its
        // unsynced tail first, or a power loss during the off-lock snapshot
        // window could lose versions `<= cv` while the *new* segment's
        // later, synced records survive — a hole, not a prefix. A
        // *poisoned* segment skips the doomed sync: every write it ever
        // acknowledged was synced before the poisoning, and the snapshots
        // about to be cut come from the in-memory states (which hold every
        // applied write), so this checkpoint is exactly how a poisoned
        // store heals — durability is rebuilt from fresh files and the
        // damaged segment becomes garbage once the manifest lands.
        let was_poisoned = inner.wal.is_poisoned();
        if !was_poisoned {
            // lint: allow(guard-across-sync) the WAL lock IS the checkpoint barrier: appends must stall while the outgoing segment flushes and rotates
            inner.wal.sync()?;
        }
        self.wal_syncs_rotated
            .fetch_add(inner.wal.sync_count(), Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        let mut wal = WalWriter::create(&self.dir, inner.next_version, self.durability.sync)?;
        wal.defer_sync(self.group.is_some());
        inner.wal = wal;
        inner.since_checkpoint = 0;
        inner.manifest_seq += 1;
        if was_poisoned {
            // Heal the group committer in step with the writer it mirrors:
            // new-segment tickets commit normally, poisoned-era tickets
            // keep failing (their durability is unknowable).
            if let Some(group) = &self.group {
                group.reset(inner.next_version);
            }
        }
        let pinned = pin();
        Ok((cv, inner.manifest_seq, pinned))
    }

    /// Record a finished checkpoint in the counters: bytes written, plus
    /// the incremental accounting — shards rewritten vs. skipped, and the
    /// bytes of prior snapshots re-referenced instead of rewritten.
    pub(crate) fn finish_checkpoint(
        &self,
        cv: u64,
        snapshot_bytes: u64,
        shards_written: u64,
        shards_skipped: u64,
        bytes_reused: u64,
    ) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        self.snapshot_bytes
            .fetch_add(snapshot_bytes, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        self.last_checkpoint_version.store(cv, Ordering::Relaxed); // lint: ordering(Relaxed) stats gauge; no synchronising role
        self.checkpoint_shards_written
            .fetch_add(shards_written, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        self.checkpoint_shards_skipped
            .fetch_add(shards_skipped, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        self.snapshot_bytes_reused
            .fetch_add(bytes_reused, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
    }

    /// Online WAL-poison repair: if the writer is poisoned, rotate to a
    /// fresh segment at the current `next_version` and re-arm the group
    /// committer, restoring writability without reopening the store.
    /// Returns whether a repair happened (`false` = the WAL was healthy).
    ///
    /// Poisoned-era commits stay rejected — their durability is unknowable
    /// — and the damaged segment stays on disk (harmless to recovery: its
    /// acknowledged prefix is valid, replay is idempotent) until the next
    /// checkpoint's GC. Repair restores *writability only*; the writes
    /// applied in memory after the poisoning remain covered by nothing but
    /// the next [`begin_checkpoint`](Self::begin_checkpoint), which is the
    /// full heal.
    pub(crate) fn repair(&self) -> Result<bool, StoreError> {
        // Same order as a checkpoint: gate first, then the WAL lock.
        let _gate = self.checkpoint_gate();
        let mut inner = self.inner.lock().expect("wal lock poisoned"); // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
        if !inner.wal.is_poisoned() {
            return Ok(false);
        }
        self.wal_syncs_rotated
            .fetch_add(inner.wal.sync_count(), Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        let mut wal = WalWriter::create(&self.dir, inner.next_version, self.durability.sync)?;
        wal.defer_sync(self.group.is_some());
        inner.wal = wal;
        if let Some(group) = &self.group {
            group.reset(inner.next_version);
        }
        Ok(true)
    }

    /// The WAL latency and group-commit-wave histogram families, scraped by
    /// [`crate::ShardedStore::metrics`] (the counter families come from
    /// [`Persistence::stats`]).
    pub(crate) fn obs_metrics(&self) -> Vec<Metric> {
        vec![
            crate::obs::hist_metric("wal_append_ns", &self.wal_append_ns),
            crate::obs::hist_metric("wal_sync_ns", &self.wal_sync_ns),
            crate::obs::hist_metric("wal_group_commit_wave", &self.group_commit_wave),
        ]
    }

    /// Current cumulative counters.
    pub(crate) fn stats(&self) -> DurabilityStats {
        let live_syncs = self
            .inner
            .lock()
            .expect("wal lock poisoned") // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
            .wal
            .sync_count();
        DurabilityStats {
            wal_records: self.wal_records.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            wal_ops: self.wal_ops.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            wal_syncs: self.wal_syncs_rotated.load(Ordering::Relaxed) + live_syncs, // lint: ordering(Relaxed) stats snapshot; counters are independent
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            checkpoints: self.checkpoints.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            last_checkpoint_version: self.last_checkpoint_version.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            replayed_records: self.replayed,
            checkpoint_shards_written: self.checkpoint_shards_written.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            checkpoint_shards_skipped: self.checkpoint_shards_skipped.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            snapshot_bytes_reused: self.snapshot_bytes_reused.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
        }
    }
}

impl Drop for Persistence {
    /// Best-effort flush of the WAL tail on a clean close: without it, a
    /// graceful shutdown under `SyncPolicy::EveryN(n)` would leave up to
    /// `n − 1` acknowledged writes in dirty pages — the same exposure as a
    /// crash. Errors are swallowed (nothing useful can be done in drop; a
    /// poisoned or failing segment falls back to crash semantics).
    fn drop(&mut self) {
        if let Ok(mut inner) = self.inner.lock() {
            // lint: allow(guard-across-sync) drop-time tail flush; the store is gone, nothing else can hold or want the lock
            let _ = inner.wal.sync();
        }
    }
}

/// Best-effort removal of files superseded by the manifest `m`: older
/// manifests, snapshot files it does not reference, and WAL segments whose
/// records all sit at or below its checkpoint version. Failures are ignored
/// — stale files are harmless to recovery (invariant 3) and will be retried
/// by the next checkpoint.
pub(crate) fn gc(dir: &Path, m: &manifest::Manifest) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let referenced: std::collections::HashSet<&str> =
        m.shards.iter().map(|s| s.snapshot.as_str()).collect();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = match () {
            _ if manifest::parse_manifest_seq(name).is_some_and(|seq| seq < m.seq) => true,
            _ if name.starts_with("snap-") && name.ends_with(".snap") => !referenced.contains(name),
            _ => false,
        };
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    // A WAL segment is covered by the checkpoint when the *next* segment
    // starts at or below `cv + 1`: versions are assigned contiguously, so
    // every record it holds is `<= cv` and already inside the snapshots.
    if let Ok(segments) = wal::list_segments(dir) {
        for pair in segments.windows(2) {
            if pair[1].0 <= m.version + 1 {
                let _ = std::fs::remove_file(&pair[0].1);
            }
        }
    }
}

/// Flush directory metadata so a just-created or just-renamed file survives
/// a power loss. Best-effort: some filesystems refuse to sync a directory
/// handle, and losing only metadata degrades to an older (still valid)
/// recovery point.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 64];
        let base = crc32(&data);
        data[17] ^= 0x04;
        assert_ne!(crc32(&data), base);
    }
}
