//! WAL replay acceptance tests: segments holding the single-op frames
//! earlier releases wrote still replay (and still end their durable prefix
//! at a torn frame), and a long tail replayed into one hot shard recovers
//! exactly, eagerly and cold.

use algo_index::RangeIndex;
use shift_store::persist::{crc32, wal};
use shift_store::{DurabilityConfig, ShardedStore, StoreConfig, SyncPolicy};
use shift_table::spec::IndexSpec;
use sosd_data::prelude::*;
use std::path::{Path, PathBuf};

fn spec() -> IndexSpec {
    IndexSpec::parse("im+r1").unwrap()
}

/// A scratch directory under the cargo-managed tmp root, wiped on entry.
fn scratch(name: &str) -> PathBuf {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Copy every file of `src` into a wiped `dst` (a disk image at crash time).
fn clone_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn config(cold: bool) -> StoreConfig {
    StoreConfig::new(spec())
        .shards(4)
        .cold_start(cold)
        .durability(
            DurabilityConfig::new()
                .sync(SyncPolicy::Os)
                .checkpoint_ops(0), // the seed is the only checkpoint
        )
}

/// The reference implementation: a sorted multiset where a delete removes
/// one occurrence when present, else is a no-op.
#[derive(Clone, Default)]
struct Oracle {
    keys: Vec<u64>,
}

impl Oracle {
    fn insert(&mut self, k: u64) {
        let pos = self.keys.partition_point(|&x| x < k);
        self.keys.insert(pos, k);
    }

    fn delete(&mut self, k: u64) -> bool {
        let pos = self.keys.partition_point(|&x| x < k);
        if self.keys.get(pos) == Some(&k) {
            self.keys.remove(pos);
            true
        } else {
            false
        }
    }

    fn count_of(&self, k: u64) -> usize {
        self.keys.partition_point(|&x| x <= k) - self.keys.partition_point(|&x| x < k)
    }
}

/// The reopened store holds exactly the oracle's multiset.
fn assert_exact(store: &ShardedStore<u64>, oracle: &Oracle, tag: &str) {
    let snap = store.snapshot();
    assert_eq!(snap.len(), oracle.keys.len(), "{tag}: len");
    assert_eq!(snap.scan(0, u64::MAX), oracle.keys, "{tag}: scan");
}

/// One frame of the single-op format earlier releases wrote: a 17-byte
/// payload of version, op byte (0 insert, 1 delete) and key.
fn v1_frame(version: u64, delete: bool, key: u64) -> Vec<u8> {
    let mut payload = version.to_le_bytes().to_vec();
    payload.push(u8::from(delete));
    payload.extend_from_slice(&key.to_le_bytes());
    framed(&payload)
}

/// One multi-op frame: version, tag 2, op count, then `(op, key)` pairs.
fn batch_frame(version: u64, ops: &[(bool, u64)]) -> Vec<u8> {
    let mut payload = version.to_le_bytes().to_vec();
    payload.push(2);
    payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for &(delete, key) in ops {
        payload.push(u8::from(delete));
        payload.extend_from_slice(&key.to_le_bytes());
    }
    framed(&payload)
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// A seeded store's directory, closed, with the path of its (empty) live
/// WAL segment and the version that segment's first record must carry.
fn seeded_dir(dir: &Path, base: &[u64]) -> (PathBuf, u64) {
    let store = ShardedStore::open_seeded(dir, config(false), base).unwrap();
    assert!(store.shard_count() >= 4);
    drop(store);
    let segments = wal::list_segments(dir).unwrap();
    assert_eq!(segments.len(), 1, "the seed checkpoint leaves one segment");
    let (start, path) = segments.into_iter().next().unwrap();
    assert!(wal::read_segment(&path).unwrap().records.is_empty());
    (path, start)
}

/// A segment written by an earlier release — single writes as 25-byte v1
/// frames, a batch as one multi-op frame — replays into exactly the oracle
/// state, eagerly and cold, and a cut strictly inside a v1 frame ends the
/// durable prefix right before it.
#[test]
fn segments_with_single_op_frames_of_earlier_releases_still_replay() {
    let dir = scratch("v1-wal");
    let mut rng = SplitMix64::new(0x0001_D15C);
    let mut base: Vec<u64> = (0..3_000).map(|_| rng.next_below(20_000)).collect();
    base.sort_unstable();
    let (segment, start) = seeded_dir(&dir, &base);

    // 30 v1 frames, one batch frame, 10 more v1 frames; `prefixes[i]` is the
    // oracle after the first `i` records, `frame_starts[i]` where record i
    // begins.
    let mut oracle = Oracle { keys: base };
    let mut prefixes = vec![oracle.clone()];
    let mut frame_starts = Vec::new();
    let mut bytes = Vec::new();
    let mut replayed = 0u64;
    let mut v1 = |bytes: &mut Vec<u8>, oracle: &mut Oracle, version: u64| {
        let delete = rng.next_below(3) == 0;
        let key = if delete && rng.next_below(4) != 0 {
            oracle.keys[rng.next_below(oracle.keys.len() as u64) as usize]
        } else {
            rng.next_below(20_000) // duplicates for inserts, misses for deletes
        };
        if delete {
            oracle.delete(key);
        } else {
            oracle.insert(key);
        }
        bytes.extend_from_slice(&v1_frame(version, delete, key));
    };
    for (i, version) in (start..start + 41).enumerate() {
        frame_starts.push(bytes.len());
        if i == 30 {
            let present = oracle.keys[17];
            let ops = [(false, 7), (true, present), (false, 7), (true, 19_999)];
            for &(delete, key) in &ops {
                if delete {
                    oracle.delete(key);
                } else {
                    oracle.insert(key);
                }
            }
            bytes.extend_from_slice(&batch_frame(version, &ops));
            replayed += ops.len() as u64;
        } else {
            v1(&mut bytes, &mut oracle, version);
            replayed += 1;
        }
        prefixes.push(oracle.clone());
    }
    assert_eq!(bytes.len(), 40 * 25 + 8 + 13 + 4 * 9);
    std::fs::write(&segment, &bytes).unwrap();

    let scan = wal::read_segment(&segment).unwrap();
    assert_eq!(scan.records.len(), 41);
    assert!(!scan.torn_tail);
    assert_eq!(scan.records[30].op_count(), 4);

    for cold in [false, true] {
        let tag = if cold { "cold" } else { "eager" };
        let store: ShardedStore<u64> = ShardedStore::open(&dir, config(cold)).unwrap();
        assert_eq!(
            store.open_breakdown().unwrap().cold_shards > 0,
            cold,
            "{tag}"
        );
        assert_eq!(
            store.durability_stats().unwrap().replayed_records,
            replayed,
            "{tag}"
        );
        assert_exact(&store, &prefixes[41], tag);
        // New writes append after the replayed versions and survive.
        store.insert(123_456).unwrap();
        drop(store);
        let store: ShardedStore<u64> = ShardedStore::open(&dir, config(cold)).unwrap();
        let mut with_new = prefixes[41].clone();
        with_new.insert(123_456);
        assert_exact(&store, &with_new, &format!("{tag} after a new write"));
        drop(store);
        // Put the hand-built image back for the next open mode.
        for (_, path) in wal::list_segments(&dir).unwrap() {
            if path != segment {
                std::fs::remove_file(path).unwrap();
            }
        }
        std::fs::write(&segment, &bytes).unwrap();
    }

    // Torn inside a v1 frame: the records before it survive, it and
    // everything after it are gone.
    let crash_dir = scratch("v1-wal-torn");
    for record in [0usize, 7, 29, 31, 40] {
        for within in [1usize, 9, 24] {
            clone_dir(&dir, &crash_dir);
            let cut = frame_starts[record] + within;
            std::fs::write(crash_dir.join(segment.file_name().unwrap()), &bytes[..cut]).unwrap();
            for cold in [false, true] {
                let tag = format!("cut {within} bytes into record {record}, cold {cold}");
                let store: ShardedStore<u64> =
                    ShardedStore::open(&crash_dir, config(cold)).unwrap();
                assert_exact(&store, &prefixes[record], &tag);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// About 10,000 single writes land in one shard — duplicate inserts, deletes
/// of present keys and deletes of absent keys — and the store is dropped
/// without a checkpoint. Reopening replays the whole tail into that shard's
/// chain and folds it once; every key's count must match the oracle.
#[test]
fn a_long_tail_replays_exactly_into_one_hot_shard() {
    const OPS: u64 = 10_000;
    let dir = scratch("long-replay");
    let base: Vec<u64> = (0..8_000u64).map(|i| i * 5).collect();
    let store = ShardedStore::open_seeded(&dir, config(false), &base).unwrap();
    assert!(store.shard_count() >= 4);
    // Every write stays below the first fence: one shard takes them all.
    let domain = store.fences()[1].min(4_000);
    assert!(domain > 1_000, "fence {domain}");
    let target = store.table().router().shard_of(0);

    let mut oracle = Oracle { keys: base };
    let mut rng = SplitMix64::new(0x0010_0000);
    let (mut inserts, mut hits, mut misses) = (0u64, 0u64, 0u64);
    for _ in 0..OPS {
        match rng.next_below(20) {
            // Even keys: inserted over and over, so counts climb past one.
            0..=10 => {
                let k = rng.next_below(domain / 2) * 2;
                store.insert(k).unwrap();
                oracle.insert(k);
                inserts += 1;
            }
            // A key the shard holds (base or inserted).
            11..=16 => {
                let lo = oracle.keys.partition_point(|&x| x < domain);
                let k = oracle.keys[rng.next_below(lo as u64) as usize];
                assert!(store.delete(k).unwrap());
                assert!(oracle.delete(k));
                hits += 1;
            }
            // Odd, not a multiple of 5: never in the base, never inserted.
            _ => {
                let k = loop {
                    let k = rng.next_below(domain);
                    if k % 2 == 1 && !k.is_multiple_of(5) {
                        break k;
                    }
                };
                assert!(!store.delete(k).unwrap());
                assert!(!oracle.delete(k));
                misses += 1;
            }
        }
    }
    assert!(inserts > 0 && hits > 0 && misses > 0);
    assert_exact(&store, &oracle, "before the crash");
    assert_eq!(
        store.durability_stats().unwrap().checkpoints,
        1,
        "only the seed checkpoint ran"
    );
    drop(store);

    for cold in [false, true] {
        let tag = if cold { "cold" } else { "eager" };
        let store: ShardedStore<u64> = ShardedStore::open(&dir, config(cold)).unwrap();
        assert_eq!(
            store.durability_stats().unwrap().replayed_records,
            OPS,
            "{tag}: every op of the tail replays"
        );
        assert_eq!(store.table().router().shard_of(domain - 1), target, "{tag}");
        if !cold {
            // The eager open folded the replayed chain into the base.
            assert_eq!(store.shards()[target].buffered_ops(), 0, "{tag}");
        }
        assert_exact(&store, &oracle, tag);
        let snap = store.snapshot();
        for k in 0..domain + 10 {
            assert_eq!(snap.count_of(k), oracle.count_of(k), "{tag}: count {k}");
        }
        drop(snap);
        drop(store);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
