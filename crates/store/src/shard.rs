//! The updatable shard: an immutable learned base plus an immutable delta
//! chain, published together as one epoch-pinned state.
//!
//! A [`StoreShard`] publishes a [`ShardState`] — the epoch-stamped
//! [`ShardSnapshot`] (sorted base column behind `Arc<[K]>` plus the
//! corrected index built over it) *and* the [`DeltaChain`] of buffered
//! writes — through an [`EpochCell`]. Because both halves are immutable and
//! travel together, **a read is one snapshot acquisition followed by pure
//! merges**: pin the state, probe the learned index, add the chain's prefix
//! sums. No lock is held while probing, and a read that finds an empty chain
//! skips the merge machinery entirely.
//!
//! ## Locking protocol (write side only)
//!
//! * `write` — a per-shard mutex serialising *publishers*: every insert,
//!   delete, compaction and state swap happens under it. It is never taken
//!   by a read, and it is never held across a merge or an index build.
//! * `rebuild_guard` — serialises rebuilds (and, via the store, splits and
//!   merges targeting this shard). Taken strictly before `write`.
//!
//! A rebuild **seals** the chain under the write lock (an index move — no
//! data is copied), merges and retrains entirely off-lock while readers and
//! writers proceed against the sealed state, then reacquires the write lock
//! only to swap in the new epoch and strip the sealed suffix — writes that
//! landed during the rebuild survive as the residual chain.
//!
//! ## Cold bases
//!
//! A streaming open ([`crate::StoreConfig::cold_start`]) publishes shards
//! whose base is a **cold** [`ShardSnapshot`]: the key column stays encoded
//! inside a mounted v2 snapshot file ([`crate::persist::v2::ColdBase`]) and
//! the state's index is a [`crate::persist::v2::ColdBlockIndex`] answering
//! probes off the per-block index. Every read and write path below works
//! unchanged — reads only probe the index, writes only append to the delta
//! chain — except the paths that materialise base *keys*
//! ([`ShardState::merged_keys`] / [`ShardState::merged_range_keys`]), which
//! decode from the cold base on demand. [`StoreShard::rebuild`] doubles as
//! **hydration**: on a cold base it proceeds even with a clean chain,
//! decoding + retraining off-lock and swapping in a hot epoch.

use crate::delta::DeltaChain;
use crate::epoch::{CommitClock, EpochCell};
use algo_index::search::{DynRangeIndex, RangeIndex};
use shift_table::error::BuildError;
use shift_table::spec::IndexSpec;
use sosd_data::key::Key;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One immutable epoch of a shard's *base*: the sorted key column and the
/// index built over it. Snapshots are shared behind `Arc` so readers can
/// keep using an old epoch while the next one is being installed.
///
/// A **cold** snapshot (streaming open) keeps the column encoded inside a
/// mounted v2 file instead of a decoded `Arc<[K]>`: [`ShardSnapshot::keys`]
/// is then empty and [`ShardSnapshot::base_len`] /
/// [`ShardSnapshot::cold`] are the truth — use `base_len` wherever the
/// base's key count is meant.
pub struct ShardSnapshot<K: Key> {
    keys: Arc<[K]>,
    index: DynRangeIndex<K>,
    epoch: u64,
    /// `Some` while the base is still encoded in a mounted v2 snapshot
    /// file; hydration replaces the whole snapshot with a hot epoch.
    cold: Option<Arc<crate::persist::v2::ColdBase<K>>>,
}

impl<K: Key> ShardSnapshot<K> {
    /// Assemble a hot snapshot (used by rebuilds, splits and merges).
    pub(crate) fn new(keys: Arc<[K]>, index: DynRangeIndex<K>, epoch: u64) -> Self {
        Self {
            keys,
            index,
            epoch,
            cold: None,
        }
    }

    /// Assemble a cold snapshot over a mounted v2 base: the published index
    /// is a [`crate::persist::v2::ColdBlockIndex`] and the decoded key
    /// column is empty until hydration swaps the shard hot.
    pub(crate) fn new_cold(base: Arc<crate::persist::v2::ColdBase<K>>, epoch: u64) -> Self {
        Self {
            keys: Arc::from(Vec::new()),
            index: Box::new(crate::persist::v2::ColdBlockIndex(base.clone())),
            epoch,
            cold: Some(base),
        }
    }

    /// The decoded sorted base key column of this epoch — empty on a cold
    /// snapshot (see [`ShardSnapshot::base_len`]).
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The index serving this epoch (a cold block index until hydration).
    pub fn index(&self) -> &DynRangeIndex<K> {
        &self.index
    }

    /// Number of keys in the base column, decoded or not.
    pub fn base_len(&self) -> usize {
        match &self.cold {
            Some(base) => base.len(),
            None => self.keys.len(),
        }
    }

    /// The mounted cold base, while this epoch is still cold.
    pub fn cold(&self) -> Option<&Arc<crate::persist::v2::ColdBase<K>>> {
        self.cold.as_ref()
    }

    /// True while the base is still encoded (not yet hydrated).
    pub fn is_cold(&self) -> bool {
        self.cold.is_some()
    }

    /// Epoch number: 0 for the initial build, +1 per rebuild (splits and
    /// merges also advance it on the shards they produce; hydration is a
    /// rebuild).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The complete immutable state of a shard at one version: base snapshot
/// plus delta chain. Reads pin one `ShardState` and never look back at the
/// shard, so base and chain are always a coherent pair.
pub struct ShardState<K: Key> {
    snapshot: Arc<ShardSnapshot<K>>,
    delta: DeltaChain<K>,
    version: u64,
    /// Highest store-wide commit version among the writes this state has
    /// absorbed (0 before the first write; maintenance republications carry
    /// it forward unchanged — they never change the merged view).
    applied_cv: u64,
}

impl<K: Key> ShardState<K> {
    /// The base snapshot of this state.
    pub fn snapshot(&self) -> &Arc<ShardSnapshot<K>> {
        &self.snapshot
    }

    /// The delta chain of this state.
    pub fn delta(&self) -> &DeltaChain<K> {
        &self.delta
    }

    /// Publication version: +1 on every published state (writes, seals,
    /// compactions and swaps all count). Strictly monotonic per shard.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Highest store-wide commit version this state has absorbed (see
    /// [`CommitClock`]): every write stamped at or below it and routed to
    /// this shard is contained, and — at a quiescent cut — none above it is.
    /// 0 for a state that has never absorbed a write.
    pub fn applied_cv(&self) -> u64 {
        self.applied_cv
    }

    /// Number of keys in the merged (base + delta) view of this state.
    pub fn merged_len(&self) -> usize {
        merged_len(self.snapshot.base_len(), self.delta.len_delta())
    }

    /// Lower bound of `q` in this state's merged view — the pure read,
    /// evaluated entirely against immutable data.
    #[inline]
    pub fn lower_bound(&self, q: K) -> usize {
        if self.delta.entry_count() == 0 {
            // Fast path: an empty chain means the base *is* the merged view.
            return self.snapshot.index.lower_bound(q);
        }
        merged_position(self.snapshot.index.lower_bound(q), self.delta.net_below(q))
    }

    /// Merged occurrence count of exactly `k` in this state.
    #[inline]
    pub fn count_of(&self, k: K) -> usize {
        let base = self.snapshot.index.range(k, k).len();
        if self.delta.entry_count() == 0 {
            return base;
        }
        (base as i64 + self.delta.net_of(k)).max(0) as usize
    }

    /// Batched lower bounds over this state's merged view: the base
    /// positions go through the pinned index's pipelined batch kernel
    /// ([`shift_table::kernel`]), then each block of positions is shifted by
    /// the chain's prefix sums — accumulated run-outer into a stack scratch
    /// ([`DeltaChain::net_below_batch`]) so a run's entry array stays
    /// cache-resident across the block. With an empty chain the shift stage
    /// is skipped entirely.
    pub fn lower_bound_batch(&self, queries: &[K], out: &mut [usize]) {
        // lint: allow(panic) API contract: slices must be equal length — zip-truncating would silently serve wrong positions
        assert_eq!(
            queries.len(),
            out.len(),
            "lower_bound_batch requires queries and out of equal length"
        );
        self.snapshot.index.lower_bound_batch(queries, out);
        if self.delta.entry_count() == 0 {
            return;
        }
        const BLOCK: usize = shift_table::kernel::DEFAULT_BATCH_BLOCK;
        let mut acc = [0i64; BLOCK];
        for (qs, os) in queries.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
            let acc = &mut acc[..qs.len()];
            acc.fill(0);
            self.delta.net_below_batch(qs, acc);
            for (o, &net) in os.iter_mut().zip(acc.iter()) {
                *o = merged_position(*o, net);
            }
        }
    }

    /// Range query `lo <= key <= hi` over this state's merged view, as a
    /// half-open position range. Both endpoints resolve against the same
    /// immutable state by construction; they travel as one two-query batch
    /// so the pinned index's pipelined kernel overlaps their probes.
    pub fn range(&self, lo: K, hi: K) -> std::ops::Range<usize> {
        if lo > hi {
            return 0..0;
        }
        match hi.checked_next() {
            Some(h) => {
                let queries = [lo, h];
                let mut out = [0usize; 2];
                self.lower_bound_batch(&queries, &mut out);
                out[0]..out[1].max(out[0])
            }
            None => {
                let start = self.lower_bound(lo);
                start..self.merged_len().max(start)
            }
        }
    }

    /// Materialise this state's merged key column (base with the chain
    /// folded in) — what rebuilds, splits, merges and checkpoints cut
    /// their output from. Skips the merge for an entry-less chain; a cold
    /// base is decoded on demand.
    pub fn merged_keys(&self) -> Vec<K> {
        match self.snapshot.cold() {
            Some(base) => {
                let decoded = base.decode_all();
                if self.delta.entry_count() == 0 {
                    decoded
                } else {
                    self.delta.merge_into(&decoded)
                }
            }
            None => {
                if self.delta.entry_count() == 0 {
                    self.snapshot.keys().to_vec()
                } else {
                    self.delta.merge_into(self.snapshot.keys())
                }
            }
        }
    }

    /// Materialise the merged keys in `lo ..= hi` only — the snapshot-scan
    /// read. Cost is two index probes plus a merge bounded by the result
    /// size (never the whole shard); a cold base decodes only the touched
    /// blocks.
    pub fn merged_range_keys(&self, lo: K, hi: K) -> Vec<K> {
        if lo > hi {
            return Vec::new();
        }
        let range = self.snapshot.index.range(lo, hi);
        let decoded;
        let base: &[K] = match self.snapshot.cold() {
            Some(cold) => {
                decoded = cold.keys_in(range);
                &decoded
            }
            None => &self.snapshot.keys()[range],
        };
        if self.delta.entry_count() == 0 {
            base.to_vec()
        } else {
            self.delta.merge_range(base, lo, hi)
        }
    }
}

/// An updatable shard: immutable learned base + immutable delta chain,
/// swapped atomically as one state.
pub struct StoreShard<K: Key> {
    spec: IndexSpec,
    threshold: usize,
    state: EpochCell<ShardState<K>>,
    /// Serialises publishers (writes, compactions, swaps); never read-side.
    write: Mutex<()>,
    /// Serialises rebuilds / splits / merges; taken before `write`.
    rebuild_guard: Mutex<()>,
    /// Cached merged key count, updated under the write lock on every
    /// recorded write (rebuilds are length-neutral). Lets [`StoreShard::len`]
    /// — called for every preceding shard on every global-position read —
    /// be a plain atomic load.
    merged_len: AtomicUsize,
    /// Set (under the write lock) when a split or merge replaced this shard:
    /// writers observing it retry against the new shard table.
    retired: AtomicBool,
    /// Decayed access counter: reads resolving to this shard bump it, each
    /// maintenance pass halves it — the exponentially-decayed frequency
    /// signal the workload-adaptive rebalancer consumes (and the
    /// `store_shard_accesses` metric exports). Pure statistics.
    accesses: AtomicU64,
    /// Set by the first read that touches this shard while it is still cold
    /// (hydrate-on-first-touch): the hydrator and the maintenance worker
    /// prioritise requested shards over the background sweep order.
    hydration_requested: AtomicBool,
}

impl<K: Key> StoreShard<K> {
    /// Build a shard over `keys`, which the caller guarantees are sorted
    /// (the sharded store validates its whole column once, then cuts it
    /// into chunks; recovery loads columns that were sorted when written).
    pub(crate) fn build_prevalidated(spec: IndexSpec, keys: Arc<[K]>, threshold: usize) -> Self {
        let index = build_index(&spec, keys.clone());
        let snapshot = Arc::new(ShardSnapshot::new(keys, index, 0));
        Self::from_parts_at(spec, threshold, snapshot, DeltaChain::new(), 0)
    }

    /// Assemble a shard from an already-built snapshot, a carried-over
    /// delta chain and an inherited commit-version floor — the constructor
    /// splits and merges use for their children (which start at their
    /// parent's `applied_cv`, so the stamp stays monotonic across topology
    /// changes) and recovery uses for cold shards.
    pub(crate) fn from_parts_at(
        spec: IndexSpec,
        threshold: usize,
        snapshot: Arc<ShardSnapshot<K>>,
        delta: DeltaChain<K>,
        applied_cv: u64,
    ) -> Self {
        let merged_len = AtomicUsize::new(merged_len(snapshot.base_len(), delta.len_delta()));
        let version = 0;
        Self {
            spec,
            threshold: threshold.max(1),
            state: EpochCell::new(Arc::new(ShardState {
                snapshot,
                delta,
                version,
                applied_cv,
            })),
            write: Mutex::new(()),
            rebuild_guard: Mutex::new(()),
            merged_len,
            retired: AtomicBool::new(false),
            accesses: AtomicU64::new(0),
            hydration_requested: AtomicBool::new(false),
        }
    }

    /// Record `n` read accesses resolving to this shard (statistics only).
    #[inline]
    pub(crate) fn record_accesses(&self, n: u64) {
        // lint: ordering(Relaxed) statistics counter — no reader synchronises through it
        self.accesses.fetch_add(n, Ordering::Relaxed);
    }

    /// The decayed access counter's current value.
    pub fn accesses(&self) -> u64 {
        // lint: ordering(Relaxed) statistics readout — staleness is acceptable by contract
        self.accesses.load(Ordering::Relaxed)
    }

    /// Halve the access counter (one exponential-decay step, run by each
    /// maintenance pass). Concurrent bumps may land before or after the
    /// halving — both orders are acceptable for a frequency estimate.
    pub(crate) fn decay_accesses(&self) {
        // lint: ordering(Relaxed) statistics counter — no reader synchronises through it
        let now = self.accesses.load(Ordering::Relaxed);
        // lint: ordering(Relaxed) statistics counter — no reader synchronises through it
        self.accesses.store(now / 2, Ordering::Relaxed);
    }

    /// Mark this cold shard as wanting hydration (first-touch). Returns
    /// true only on the first request, so the caller emits exactly one
    /// trace event per cold period.
    pub(crate) fn request_hydration(&self) -> bool {
        // lint: ordering(Relaxed) advisory priority flag — hydration correctness is carried by the rebuild guard
        !self.hydration_requested.swap(true, Ordering::Relaxed)
    }

    /// Was hydration requested by a read (and not yet consumed)?
    pub(crate) fn hydration_requested(&self) -> bool {
        // lint: ordering(Relaxed) advisory priority flag — hydration correctness is carried by the rebuild guard
        self.hydration_requested.load(Ordering::Relaxed)
    }

    /// Consume a pending hydration request; returns whether one was set.
    pub(crate) fn take_hydration_request(&self) -> bool {
        // lint: ordering(Relaxed) advisory priority flag — hydration correctness is carried by the rebuild guard
        self.hydration_requested.swap(false, Ordering::Relaxed)
    }

    /// Pin and return the current state (one epoch acquisition; see
    /// [`EpochCell::load`]). Everything derived from the returned value is
    /// immutable and internally consistent.
    pub fn state(&self) -> Arc<ShardState<K>> {
        self.state.load()
    }

    /// The current epoch's base snapshot (cheap `Arc` clone).
    pub fn snapshot(&self) -> Arc<ShardSnapshot<K>> {
        self.state.load().snapshot.clone()
    }

    /// Number of keys in the merged (base + delta) view (one atomic load).
    pub fn len(&self) -> usize {
        self.merged_len.load(Ordering::Acquire) // lint: ordering(Acquire) pairs with the write paths' AcqRel updates: a count is never staler than the publication it rode in on
    }

    /// True when the merged view holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lower bound of `q` in the merged view: pin the state, then pure
    /// merges — no lock is held while probing.
    pub fn lower_bound(&self, q: K) -> usize {
        self.state.load().lower_bound(q)
    }

    /// Batched lower bounds over the merged view: the base positions are
    /// resolved through the pinned index's pipelined batch kernel, then
    /// each block is shifted by the chain's prefix sums. With an empty chain
    /// the shift stage is skipped entirely.
    pub fn lower_bound_batch(&self, queries: &[K], out: &mut [usize]) {
        self.state.load().lower_bound_batch(queries, out);
    }

    /// Merged occurrence count of the exact key `k`.
    pub fn count_of(&self, k: K) -> usize {
        self.state.load().count_of(k)
    }

    /// Range query `lo <= key <= hi` over the merged view, as a half-open
    /// position range (the [`RangeIndex::range`] contract). Both endpoints
    /// are resolved against the same pinned state.
    pub fn range(&self, lo: K, hi: K) -> std::ops::Range<usize> {
        self.state.load().range(lo, hi)
    }

    /// Buffer one inserted occurrence of `k`, stamped against the caller's
    /// commit clock (the store's, so store-wide snapshots can cut across
    /// shards). Returns `Some(dirty)` — true when the write made (or left)
    /// the shard dirty — or `None` when the shard has been retired by a
    /// split/merge (the caller re-routes). The clock window is opened under
    /// the shard's write lock, which is what keeps per-shard apply order
    /// equal to commit-version order.
    pub(crate) fn try_insert_clocked(&self, k: K, clock: &CommitClock) -> Option<bool> {
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        let _w = self.write.lock().expect("write lock poisoned");
        // lint: ordering(Relaxed) read under the shard write lock, which retire() also holds; the lock orders it
        if self.retired.load(Ordering::Relaxed) {
            return None;
        }
        let cv = clock.begin();
        let dirty = self.publish_op(k, 1, cv);
        self.merged_len.fetch_add(1, Ordering::AcqRel); // lint: ordering(AcqRel) release side of len()'s Acquire load: the count stays paired with the state published before it
        clock.end();
        Some(dirty)
    }

    /// Apply one insert that already owns an open clock window (a
    /// [`crate::WriteBatch`] apply: the store brackets the whole batch in
    /// one `begin`/`end` and stamps every op with the batch's single commit
    /// version `cv`).
    pub(crate) fn try_insert_at(&self, k: K, cv: u64) -> Option<bool> {
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        let _w = self.write.lock().expect("write lock poisoned");
        // lint: ordering(Relaxed) read under the shard write lock, which retire() also holds; the lock orders it
        if self.retired.load(Ordering::Relaxed) {
            return None;
        }
        let dirty = self.publish_op(k, 1, cv);
        self.merged_len.fetch_add(1, Ordering::AcqRel); // lint: ordering(AcqRel) release side of len()'s Acquire load: the count stays paired with the state published before it
        Some(dirty)
    }

    /// Buffer a tombstone for one occurrence of `k`, stamped against the
    /// caller's commit clock (see [`StoreShard::try_insert_clocked`]).
    /// Returns `Some((removed, dirty))`: `removed` is false (and nothing is
    /// recorded) when the merged view holds no occurrence of `k`. `None`
    /// means the shard was retired (the caller re-routes).
    pub(crate) fn try_delete_clocked(&self, k: K, clock: &CommitClock) -> Option<(bool, bool)> {
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        let _w = self.write.lock().expect("write lock poisoned");
        // lint: ordering(Relaxed) read under the shard write lock, which retire() also holds; the lock orders it
        if self.retired.load(Ordering::Relaxed) {
            return None;
        }
        let cur = self.state.load();
        if cur.count_of(k) == 0 {
            return Some((false, cur.delta.ops() >= self.threshold));
        }
        let cv = clock.begin();
        let dirty = self.publish_op(k, -1, cv);
        self.merged_len.fetch_sub(1, Ordering::AcqRel); // lint: ordering(AcqRel) release side of len()'s Acquire load: the count stays paired with the state published before it
        clock.end();
        Some((true, dirty))
    }

    /// Apply one delete inside an already-open clock window (see
    /// [`StoreShard::try_insert_at`]).
    pub(crate) fn try_delete_at(&self, k: K, cv: u64) -> Option<(bool, bool)> {
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        let _w = self.write.lock().expect("write lock poisoned");
        // lint: ordering(Relaxed) read under the shard write lock, which retire() also holds; the lock orders it
        if self.retired.load(Ordering::Relaxed) {
            return None;
        }
        let cur = self.state.load();
        if cur.count_of(k) == 0 {
            return Some((false, cur.delta.ops() >= self.threshold));
        }
        let dirty = self.publish_op(k, -1, cv);
        self.merged_len.fetch_sub(1, Ordering::AcqRel); // lint: ordering(AcqRel) release side of len()'s Acquire load: the count stays paired with the state published before it
        Some((true, dirty))
    }

    /// Publish a successor state with the given parts, the next version and
    /// an explicit applied commit version. Every publication funnels through
    /// here so the strictly-monotonic version guarantee (the concurrent
    /// tests' anchor) lives in one place. Must hold `write`.
    fn publish_at(
        &self,
        snapshot: Arc<ShardSnapshot<K>>,
        delta: DeltaChain<K>,
        applied_cv: u64,
    ) -> Arc<ShardState<K>> {
        let next = Arc::new(ShardState {
            snapshot,
            delta,
            version: self.state.load().version + 1,
            applied_cv,
        });
        self.state.store(next.clone());
        next
    }

    /// Publish a maintenance successor (seal, compaction, swap): the merged
    /// view is unchanged, so the applied commit version carries forward.
    /// Must hold `write`.
    fn publish(&self, snapshot: Arc<ShardSnapshot<K>>, delta: DeltaChain<K>) -> Arc<ShardState<K>> {
        let applied_cv = self.state.load().applied_cv;
        self.publish_at(snapshot, delta, applied_cv)
    }

    /// Record one op stamped with commit version `cv` and publish the
    /// successor state. The stamp is `max`-folded so a batch's single commit
    /// version interleaving with later singles can never move a shard's
    /// `applied_cv` backwards. Must hold `write`.
    fn publish_op(&self, k: K, net: i64, cv: u64) -> bool {
        let cur = self.state.load();
        let delta = chain_with_op(&cur.delta, k, net);
        let dirty = delta.ops() >= self.threshold;
        self.publish_at(cur.snapshot.clone(), delta, cur.applied_cv.max(cv));
        dirty
    }

    /// True when the buffered operation count has reached the threshold
    /// (lock-free: reads the published state).
    pub fn is_dirty(&self) -> bool {
        self.state.load().delta.ops() >= self.threshold
    }

    /// Number of operations buffered since the last rebuild (lock-free).
    pub fn buffered_ops(&self) -> usize {
        self.state.load().delta.ops()
    }

    /// True once a split or merge has replaced this shard in the table.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire) // lint: ordering(Acquire) pairs with retire()'s Release store: seeing `retired` implies the replacement table is published
    }

    /// Fold the chain's unsealed runs into one run, bounding per-read merge
    /// cost. Returns true when the chain shape changed. Called by the
    /// maintenance worker; writers also compact inline past a fixed run count.
    pub fn compact(&self) -> bool {
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        let _w = self.write.lock().expect("write lock poisoned");
        let cur = self.state.load();
        if cur.delta.unsealed_run_count() < 2 {
            return false;
        }
        self.publish(cur.snapshot.clone(), cur.delta.compact());
        true
    }

    /// Fold the delta chain into a new base column, rebuild the index and
    /// swap in the new epoch. Returns false (and does nothing) when no
    /// write is buffered or the shard is retired — except on a **cold**
    /// base, where a rebuild is exactly hydration (decode + retrain + hot
    /// swap) and proceeds even with a clean chain. Readers and writers
    /// proceed concurrently against the sealed state for the whole merge +
    /// build; writes that land during the rebuild survive as the residual
    /// chain against the new epoch.
    ///
    /// # Errors
    /// Never fails today — the merged column is sorted by construction and
    /// the index build takes the prevalidated path. The `Result` is kept so
    /// future rebuild failure modes (durability, resource limits) can
    /// surface without an API break.
    pub fn rebuild(&self) -> Result<bool, BuildError> {
        // lint: allow(panic) guard poisoning propagates a rebuild/split panic; shard shape is unknowable
        let _guard = self.rebuild_guard.lock().expect("rebuild guard poisoned");
        // lint: ordering(Acquire) pairs with retire()'s Release store; a retired shard must not rebuild
        if self.retired.load(Ordering::Acquire) {
            return Ok(false);
        }
        // Freeze phase: seal the chain (an index move, no data copied).
        let frozen = {
            // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
            let _w = self.write.lock().expect("write lock poisoned");
            let cur = self.state.load();
            if cur.delta.is_clean() && !cur.snapshot.is_cold() {
                return Ok(false);
            }
            self.publish(cur.snapshot.clone(), cur.delta.sealed())
        };
        // Build phase — no lock held; reads and writes proceed.
        let merged: Arc<[K]> = frozen.merged_keys().into();
        let index = build_index(&self.spec, merged.clone());
        let snapshot = Arc::new(ShardSnapshot::new(merged, index, frozen.snapshot.epoch + 1));
        // Swap phase: install the new epoch, keep only post-seal writes.
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        let _w = self.write.lock().expect("write lock poisoned");
        let residual = self.residual_since(&frozen);
        self.publish(snapshot, residual);
        Ok(true)
    }

    /// Bytes of auxiliary structure: the learned index plus the live chain.
    pub fn index_size_bytes(&self) -> usize {
        let state = self.state.load();
        state.snapshot.index.index_size_bytes() + state.delta.size_bytes()
    }

    // ---- split/merge support (used by the sharded store) ----------------

    /// Take the rebuild guard for the duration of a split/merge targeting
    /// this shard, excluding concurrent rebuilds.
    pub(crate) fn lock_rebuild(&self) -> MutexGuard<'_, ()> {
        // lint: allow(panic) guard poisoning propagates a rebuild/split panic; shard shape is unknowable
        self.rebuild_guard.lock().expect("rebuild guard poisoned")
    }

    /// Take the write lock for a topology commit.
    pub(crate) fn lock_write(&self) -> MutexGuard<'_, ()> {
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        self.write.lock().expect("write lock poisoned")
    }

    /// Seal the chain and publish the sealed state, returning it. Unlike
    /// the rebuild freeze this seals even a clean chain (a split of a cold
    /// shard still needs a frozen view).
    pub(crate) fn seal(&self) -> Arc<ShardState<K>> {
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        let _w = self.write.lock().expect("write lock poisoned");
        let cur = self.state.load();
        self.publish(cur.snapshot.clone(), cur.delta.sealed())
    }

    /// Roll back a [`StoreShard::seal`] whose consumer abandoned its
    /// split: republish the current chain with every run amendable again,
    /// so abandoned seals cannot accumulate unfoldable sealed runs (reads
    /// pay one binary search per run). The caller must still hold the
    /// rebuild guard it sealed under.
    pub(crate) fn unseal(&self) {
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        let _w = self.write.lock().expect("write lock poisoned");
        let cur = self.state.load();
        self.publish(cur.snapshot.clone(), cur.delta.unsealed_all());
    }

    /// Mark the shard retired. Must be called while holding the write lock
    /// (see [`StoreShard::lock_write`]) so no writer can interleave between
    /// the residual capture and the flag.
    pub(crate) fn retire(&self) {
        self.retired.store(true, Ordering::Release); // lint: ordering(Release) pairs with is_retired()'s Acquire loads: retirement is ordered after the table swap it follows
    }

    /// The residual chain recorded since `frozen` (see
    /// [`DeltaChain::strip_sealed`]). Must hold the write lock.
    pub(crate) fn residual_since(&self, frozen: &ShardState<K>) -> DeltaChain<K> {
        self.state.load().delta.strip_sealed(&frozen.delta)
    }

    /// The spec this shard builds its indexes from.
    pub(crate) fn spec(&self) -> IndexSpec {
        self.spec
    }

    /// The shard's rebuild threshold.
    pub(crate) fn threshold(&self) -> usize {
        self.threshold
    }
}

/// Maximum entry count of the delta-chain head run a write may amend; past
/// it the write opens a fresh run. Bounds the per-write copy cost.
pub(crate) const MAX_RUN_LEN: usize = 32;

/// Unsealed run count at which a write folds the chain inline (the
/// maintenance worker compacts earlier, at half of it). Bounds the per-read
/// merge cost at one binary search per run.
pub(crate) const COMPACT_RUNS: usize = 8;

/// `delta` with one more op recorded — the chain-shape decision every
/// writer and WAL replay shares. Inline amortised compaction (O(chain
/// entries) once every `COMPACT_RUNS × MAX_RUN_LEN` ops) keeps reads at a
/// handful of binary searches without waiting for the maintenance worker.
#[inline]
pub(crate) fn chain_with_op<K: Key>(delta: &DeltaChain<K>, k: K, net: i64) -> DeltaChain<K> {
    let next = delta.with_op(k, net, MAX_RUN_LEN);
    if next.unsealed_run_count() >= COMPACT_RUNS {
        next.compact()
    } else {
        next
    }
}

/// Merged length from a base length and a net delta.
#[inline]
pub(crate) fn merged_len(base: usize, len_delta: i64) -> usize {
    (base as i64 + len_delta).max(0) as usize
}

/// Merged position from a base lower bound and a delta prefix sum. The
/// delete-path invariant keeps the true sum non-negative; clamp anyway so a
/// racy estimate can never underflow.
#[inline]
fn merged_position(base: usize, net_below: i64) -> usize {
    (base as i64 + net_below).max(0) as usize
}

/// Build a shard index from a spec over shared storage the caller
/// guarantees is sorted — initial builds validate up front, rebuilds merge
/// sorted inputs — so no redundant O(n) sortedness scan runs per (re)build.
pub(crate) fn build_index<K: Key>(spec: &IndexSpec, keys: Arc<[K]>) -> DynRangeIndex<K> {
    spec.build_dyn_prevalidated_with(keys, Default::default(), 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> IndexSpec {
        IndexSpec::parse("im+r1").unwrap()
    }

    /// A shard over sorted `keys`, built through the store's constructor.
    fn shard_over(keys: Vec<u64>, threshold: usize) -> StoreShard<u64> {
        StoreShard::build_prevalidated(spec(), keys.into(), threshold)
    }

    #[test]
    fn merged_reads_reflect_buffered_writes() {
        let clock = CommitClock::new();
        let keys: Vec<u64> = (0..100u64).map(|i| i * 10).collect();
        let shard = shard_over(keys, 1_000);
        assert_eq!(shard.len(), 100);
        assert_eq!(shard.lower_bound(55), 6);
        shard.try_insert_clocked(55, &clock).unwrap();
        assert_eq!(shard.len(), 101);
        assert_eq!(shard.lower_bound(55), 6);
        assert_eq!(shard.lower_bound(56), 7);
        assert_eq!(shard.count_of(55), 1);
        let (removed, _) = shard.try_delete_clocked(55, &clock).unwrap();
        assert!(removed);
        assert_eq!(shard.count_of(55), 0);
        let (removed, _) = shard.try_delete_clocked(55, &clock).unwrap();
        assert!(!removed, "deleting an absent key is a no-op");
        assert_eq!(shard.len(), 100);
    }

    #[test]
    fn rebuild_folds_the_chain_and_bumps_the_epoch() {
        let clock = CommitClock::new();
        let keys: Vec<u64> = (0..50u64).map(|i| i * 2).collect();
        let shard = shard_over(keys, 4);
        assert_eq!(shard.snapshot().epoch(), 0);
        assert!(!shard.rebuild().unwrap(), "clean shard does not rebuild");
        let mut dirty = false;
        for k in [1u64, 3, 5, 7, 9] {
            dirty = shard.try_insert_clocked(k, &clock).unwrap();
        }
        assert!(dirty);
        assert!(shard.is_dirty());
        assert!(shard.rebuild().unwrap());
        let snap = shard.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.keys().len(), 55, "chain folded into the base");
        assert_eq!(shard.buffered_ops(), 0);
        assert!(!shard.is_dirty());
        // Merged base is now 0, 1, 2, ..., 9, 10, 12, ...: five odd inserts.
        assert_eq!(shard.lower_bound(4), 4);
        assert_eq!(shard.range(1, 5).len(), 5); // 1, 2, 3, 4, 5
    }

    #[test]
    fn delete_then_rebuild_shrinks_the_base() {
        let clock = CommitClock::new();
        let keys = vec![5u64, 5, 5, 9];
        let shard = shard_over(keys, 100);
        assert!(shard.try_delete_clocked(5, &clock).unwrap().0);
        assert!(shard.try_delete_clocked(5, &clock).unwrap().0);
        assert_eq!(shard.len(), 2);
        shard.rebuild().unwrap();
        assert_eq!(shard.snapshot().keys(), &[5, 9]);
        assert_eq!(shard.lower_bound(6), 1);
    }

    #[test]
    fn empty_shard_accepts_writes() {
        let clock = CommitClock::new();
        let shard = shard_over(Vec::new(), 100);
        assert!(shard.is_empty());
        assert_eq!(shard.lower_bound(7), 0);
        shard.try_insert_clocked(7, &clock).unwrap();
        assert_eq!(shard.len(), 1);
        assert_eq!(shard.lower_bound(7), 0);
        assert_eq!(shard.lower_bound(8), 1);
        shard.rebuild().unwrap();
        assert_eq!(shard.snapshot().keys(), &[7]);
    }

    #[test]
    fn a_pinned_state_is_immune_to_later_writes_and_rebuilds() {
        let clock = CommitClock::new();
        let keys: Vec<u64> = (0..100u64).collect();
        let shard = shard_over(keys, 4);
        shard.try_insert_clocked(1_000, &clock).unwrap();
        let pinned = shard.state();
        let v = pinned.version();
        assert_eq!(pinned.lower_bound(u64::MAX), 101);
        for k in 0..20u64 {
            shard.try_insert_clocked(2_000 + k, &clock).unwrap(); // crosses the threshold — no rebuild yet
        }
        shard.rebuild().unwrap();
        // The pinned state still answers from its own epoch.
        assert_eq!(pinned.lower_bound(u64::MAX), 101);
        assert_eq!(pinned.version(), v, "pinned state is a frozen value");
        assert_eq!(shard.lower_bound(u64::MAX), 121);
        assert!(shard.state().version() > v, "published version advanced");
    }

    #[test]
    fn versions_increase_with_every_published_write() {
        let clock = CommitClock::new();
        let shard = shard_over(vec![1u64, 2, 3], 1_000);
        let mut last = shard.state().version();
        for k in 0..10u64 {
            shard.try_insert_clocked(k, &clock).unwrap();
            let v = shard.state().version();
            assert!(v > last);
            last = v;
        }
    }

    #[test]
    fn inline_compaction_bounds_the_chain() {
        let clock = CommitClock::new();
        let keys: Vec<u64> = (0..100u64).collect();
        let shard = shard_over(keys, 1_000_000);
        // Enough distinct inserts to fill `COMPACT_RUNS` full runs twice.
        let n = 2 * COMPACT_RUNS * MAX_RUN_LEN;
        for k in 0..n as u64 {
            shard.try_insert_clocked(500 + k, &clock).unwrap();
        }
        let state = shard.state();
        assert!(
            state.delta().run_count() < COMPACT_RUNS,
            "inline compaction must bound the chain, got {} runs",
            state.delta().run_count()
        );
        assert_eq!(state.delta().ops(), n, "compaction preserves churn");
        assert_eq!(shard.lower_bound(u64::MAX), 100 + n);
    }

    #[test]
    fn cold_shard_reads_equal_hot_reads_and_rebuild_hydrates() {
        let clock = CommitClock::new();
        let dir = std::env::temp_dir().join(format!("shift-store-cold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let keys: Vec<u64> = (0..3_000u64).map(|i| i * 3).collect();
        let path = dir.join("cold.snap");
        crate::persist::v2::write_snapshot(&path, 17, &keys, 256).unwrap();
        let base = Arc::new(crate::persist::v2::ColdBase::<u64>::mount(&path).unwrap());
        assert_eq!(base.applied(), 17);

        let hot = shard_over(keys.clone(), 1_000_000);
        let cold = StoreShard::from_parts_at(
            spec(),
            1_000_000,
            Arc::new(ShardSnapshot::new_cold(base, 0)),
            DeltaChain::new(),
            17,
        );
        assert!(cold.snapshot().is_cold());
        assert_eq!(cold.snapshot().base_len(), keys.len());
        assert_eq!(cold.len(), hot.len());
        assert_eq!(cold.state().applied_cv(), 17);

        // Writes land in the chain of a cold shard exactly as a hot one.
        for shard in [&cold, &hot] {
            shard.try_insert_clocked(10, &clock).unwrap();
            shard.try_insert_clocked(9_001, &clock).unwrap();
            assert!(shard.try_delete_clocked(6, &clock).unwrap().0);
        }
        let probes: Vec<u64> = (0..400).map(|i| i * 23).collect();
        for &q in &probes {
            assert_eq!(cold.lower_bound(q), hot.lower_bound(q), "q={q}");
            assert_eq!(cold.count_of(q), hot.count_of(q), "count {q}");
        }
        assert_eq!(cold.range(100, 5_000), hot.range(100, 5_000));
        assert_eq!(
            cold.state().merged_range_keys(100, 200),
            hot.state().merged_range_keys(100, 200)
        );
        assert_eq!(cold.state().merged_keys(), hot.state().merged_keys());
        assert_eq!(cold.state().snapshot().index().name(), "cold-v2");

        // Hydration: rebuild proceeds on a cold base, swaps it hot, and the
        // merged view is unchanged.
        assert!(cold.rebuild().unwrap());
        assert!(!cold.snapshot().is_cold());
        assert_eq!(cold.snapshot().epoch(), 1);
        assert!(
            !cold.rebuild().unwrap(),
            "hydrated + clean shard does not rebuild again"
        );
        for &q in &probes {
            assert_eq!(cold.lower_bound(q), hot.lower_bound(q), "hydrated q={q}");
        }
        assert_eq!(cold.state().merged_keys(), hot.state().merged_keys());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_shard_rejects_writes_but_still_serves_reads() {
        let clock = CommitClock::new();
        let shard = shard_over(vec![1u64, 2, 3], 100);
        shard.try_insert_clocked(10, &clock).unwrap();
        {
            let _w = shard.lock_write();
            shard.retire();
        }
        assert!(shard.is_retired());
        assert_eq!(shard.try_insert_clocked(11, &clock), None);
        assert_eq!(shard.try_delete_clocked(1, &clock), None);
        assert_eq!(shard.lower_bound(u64::MAX), 4, "reads keep working");
        assert!(!shard.rebuild().unwrap(), "retired shards do not rebuild");
    }
}
