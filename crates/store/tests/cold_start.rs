//! Snapshot-format-v2 acceptance tests: incremental checkpoints (clean
//! shards skipped, bytes reused, cross-restart memo), streaming cold-start
//! opens (cold reads equal hot reads, hydration converges), block-confined
//! corruption detection, rejection of the retired v1 format, and online
//! WAL repair.

use algo_index::RangeIndex;
use shift_store::persist::{manifest, snapshot, wal};
use shift_store::{DurabilityConfig, ShardedStore, StoreConfig, StoreError, SyncPolicy};
use shift_table::spec::IndexSpec;
use sosd_data::prelude::*;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

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

fn durable_config() -> StoreConfig {
    StoreConfig::new(spec())
        .shards(4)
        .delta_threshold(64)
        .durability(
            DurabilityConfig::new()
                .sync(SyncPolicy::EveryN(8))
                .checkpoint_ops(0), // checkpoints only when the test says so
        )
}

/// Seed a 4-shard durable store with a deterministic key column.
fn seeded(dir: &Path) -> (ShardedStore<u64>, Vec<u64>) {
    let mut rng = SplitMix64::new(0xC01D);
    let mut base: Vec<u64> = (0..6_000).map(|_| rng.next_below(100_000)).collect();
    base.sort_unstable();
    let store = ShardedStore::open_seeded(dir, durable_config(), &base).unwrap();
    assert!(store.shard_count() >= 4);
    (store, base)
}

/// Every read path of `a` and `b` must agree on a deterministic probe set.
fn assert_stores_agree(a: &ShardedStore<u64>, b: &ShardedStore<u64>, tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: len");
    let mut rng = SplitMix64::new(0x5EED);
    let mut probes = vec![0u64, 1, u64::MAX];
    for _ in 0..200 {
        probes.push(rng.next_below(110_000));
    }
    for &q in &probes {
        assert_eq!(a.lower_bound(q), b.lower_bound(q), "{tag}: q={q}");
        assert_eq!(a.count_of(q), b.count_of(q), "{tag}: count {q}");
    }
    assert_eq!(
        a.lower_bound_many(&probes),
        b.lower_bound_many(&probes),
        "{tag}: batch"
    );
    for pair in probes.chunks(2) {
        if pair.len() < 2 {
            continue;
        }
        let (lo, hi) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
        assert_eq!(a.range(lo, hi), b.range(lo, hi), "{tag}: range [{lo},{hi}]");
        assert_eq!(a.scan(lo, hi), b.scan(lo, hi), "{tag}: scan [{lo},{hi}]");
    }
}

/// Wait (bounded) until the background hydrator has retrained every shard.
fn await_hydration(store: &ShardedStore<u64>) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while store.cold_shards() > 0 {
        assert!(Instant::now() < deadline, "hydration never completed");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(!store.is_hydrating());
}

/// The tentpole oracle test: the same disk image opened eagerly and opened
/// cold must answer every read identically — immediately after the cold
/// open (models not yet trained), while writes land on cold shards, and
/// after explicit hydration.
#[test]
fn cold_start_reads_equal_eager_reads_before_and_after_hydration() {
    let dir = scratch("cold-oracle");
    let (store, base) = seeded(&dir);
    // Dirty every region, checkpoint mid-trace, then leave a WAL tail.
    let mut rng = SplitMix64::new(0xBEEF);
    for _ in 0..300 {
        store.insert(rng.next_below(100_000)).unwrap();
    }
    store.checkpoint().unwrap();
    for _ in 0..200 {
        store.insert(rng.next_below(100_000)).unwrap();
        store.delete(rng.next_below(100_000)).unwrap();
    }
    store.sync_wal().unwrap();
    drop(store);

    let eager_dir = scratch("cold-oracle-eager");
    let cold_dir = scratch("cold-oracle-cold");
    clone_dir(&dir, &eager_dir);
    clone_dir(&dir, &cold_dir);

    let eager = ShardedStore::<u64>::open(&eager_dir, durable_config()).unwrap();
    let cold = ShardedStore::<u64>::open(&cold_dir, durable_config().cold_start(true)).unwrap();

    // The cold open mounted every shard cold and trained nothing in the
    // foreground; the eager open trained everything and mounted nothing.
    let cb = cold.open_breakdown().unwrap();
    assert_eq!(
        cb.cold_shards,
        cold.shard_count(),
        "all shards mounted cold"
    );
    let eb = eager.open_breakdown().unwrap();
    assert_eq!(eb.cold_shards, 0);
    assert!(!base.is_empty());

    // First reads — served from the block index wherever the hydrator has
    // not caught up yet — must already agree with the eager store.
    assert_stores_agree(&eager, &cold, "first reads");

    // Writes land on cold shards (buffered in the delta chain, the mounted
    // base untouched) exactly as they land on hot ones.
    for k in [0u64, 55_555, 99_999, 3] {
        eager.insert(k).unwrap();
        cold.insert(k).unwrap();
        assert_eq!(eager.delete(1).unwrap(), cold.delete(1).unwrap());
    }
    assert_stores_agree(&eager, &cold, "after writes");

    // Explicit hydration races the background hydrator safely; afterwards
    // nothing is cold and reads are unchanged.
    cold.hydrate().unwrap();
    assert_eq!(cold.cold_shards(), 0);
    assert!(cold.take_maintenance_errors().is_empty());
    assert_stores_agree(&eager, &cold, "after hydration");

    // A third image hydrates purely in the background.
    let bg_dir = scratch("cold-oracle-bg");
    clone_dir(&dir, &bg_dir);
    let bg = ShardedStore::<u64>::open(&bg_dir, durable_config().cold_start(true)).unwrap();
    await_hydration(&bg);
    assert!(bg.take_maintenance_errors().is_empty());
}

/// Incremental checkpoints: clean shards are skipped and their files
/// re-referenced (and kept by GC); the skip memo survives a reopen; and a
/// topology change forces a full rewrite.
#[test]
fn incremental_checkpoints_skip_clean_shards_and_survive_reopen() {
    let dir = scratch("incr-ckpt");
    let (store, base) = seeded(&dir);
    let shard_count = store.shard_count() as u64;
    let after_seed = store.durability_stats().unwrap();
    assert_eq!(after_seed.checkpoint_shards_written, shard_count);
    assert_eq!(after_seed.checkpoint_shards_skipped, 0);
    assert_eq!(after_seed.snapshot_bytes_reused, 0);

    // Writes confined to the lowest-keyed shard: duplicates of the global
    // minimum always route to shard 0.
    for _ in 0..50 {
        store.insert(base[0]).unwrap();
    }
    store.checkpoint().unwrap();
    let s = store.durability_stats().unwrap();
    assert_eq!(
        s.checkpoint_shards_written,
        after_seed.checkpoint_shards_written + 1,
        "only the dirtied shard is rewritten"
    );
    assert_eq!(s.checkpoint_shards_skipped, shard_count - 1);
    assert!(s.snapshot_bytes_reused > 0, "reused bytes are accounted");

    // On disk: exactly one manifest, exactly `shard_count` snapshots — the
    // re-referenced seed-era files survive GC, the superseded one is gone.
    let manifests = manifest::list_manifests(&dir).unwrap();
    assert_eq!(manifests.len(), 1);
    assert_eq!(manifests[0].0, 2);
    assert!(!dir.join(snapshot::snapshot_name(1, 0)).exists());
    assert!(dir.join(snapshot::snapshot_name(2, 0)).exists());
    for shard in 1..shard_count as usize {
        assert!(
            dir.join(snapshot::snapshot_name(1, shard)).exists(),
            "shard {shard}'s seed snapshot must be re-referenced, not rewritten"
        );
    }

    // A checkpoint with no intervening writes skips everything.
    store.checkpoint().unwrap();
    let s2 = store.durability_stats().unwrap();
    assert_eq!(s2.checkpoint_shards_written, s.checkpoint_shards_written);
    assert_eq!(
        s2.checkpoint_shards_skipped,
        s.checkpoint_shards_skipped + shard_count
    );
    drop(store);

    // The memo is reseeded from the manifest on reopen: with no WAL tail,
    // the first post-reopen checkpoint re-references every file.
    let store = ShardedStore::<u64>::open(&dir, durable_config()).unwrap();
    store.checkpoint().unwrap();
    let s3 = store.durability_stats().unwrap();
    assert_eq!(s3.checkpoint_shards_written, 0);
    assert_eq!(s3.checkpoint_shards_skipped, shard_count);
    assert!(s3.snapshot_bytes_reused > 0);

    // ... but a shard the WAL tail replayed into is rewritten.
    store.insert(base[0]).unwrap();
    store.sync_wal().unwrap();
    drop(store);
    let store = ShardedStore::<u64>::open(&dir, durable_config()).unwrap();
    store.checkpoint().unwrap();
    let s4 = store.durability_stats().unwrap();
    assert_eq!(s4.checkpoint_shards_written, 1);
    assert_eq!(s4.checkpoint_shards_skipped, shard_count - 1);

    // A topology change invalidates the whole memo: grow the store by one
    // catch-up split, then checkpoint — every shard of the new topology is
    // rewritten.
    drop(store);
    let store = ShardedStore::<u64>::open(&dir, durable_config().shards(8)).unwrap();
    assert!(store.rebalance().unwrap() > 0, "catch-up split must fire");
    let grown = store.shard_count() as u64;
    assert!(grown > shard_count);
    store.checkpoint().unwrap();
    let s5 = store.durability_stats().unwrap();
    assert_eq!(s5.checkpoint_shards_written, grown);
    assert_eq!(s5.checkpoint_shards_skipped, 0);

    // With the knob off, nothing is ever skipped.
    drop(store);
    let off = durable_config().durability(
        DurabilityConfig::new()
            .checkpoint_ops(0)
            .incremental_checkpoints(false),
    );
    let store = ShardedStore::<u64>::open(&dir, off).unwrap();
    store.checkpoint().unwrap();
    store.checkpoint().unwrap();
    let s6 = store.durability_stats().unwrap();
    assert_eq!(s6.checkpoint_shards_written, 2 * store.shard_count() as u64);
    assert_eq!(s6.checkpoint_shards_skipped, 0);
}

/// Corruption anywhere in a v2 snapshot — a bent block, a truncated index
/// or footer — surfaces as a typed `Corrupt` error naming the damaged
/// file, on both eager and cold opens.
#[test]
fn v2_corruption_and_truncation_are_typed_and_name_the_file() {
    let dir = scratch("v2-damage");
    let mut base: Vec<u64> = (0..4_000u64).map(|i| i * 7).collect();
    base.dedup();
    let config = StoreConfig::new(spec()).shards(2).durability(
        DurabilityConfig::new()
            .checkpoint_ops(0)
            .snapshot_block_keys(64), // many blocks per shard
    );
    let store = ShardedStore::open_seeded(&dir, config, &base).unwrap();
    drop(store);

    let snap = dir.join(snapshot::snapshot_name(1, 0));
    let pristine = std::fs::read(&snap).unwrap();
    assert!(pristine.len() > 200, "need room for mid-file damage");

    let expect_corrupt = |tag: &str, dir: &Path, damaged: &Path| {
        for cold in [false, true] {
            let cfg = config.cold_start(cold);
            match ShardedStore::<u64>::open(dir, cfg) {
                Err(StoreError::Corrupt { path, .. }) => {
                    assert_eq!(&path, damaged, "{tag} (cold={cold}): wrong file blamed")
                }
                Err(e) => panic!("{tag} (cold={cold}): wrong error {e}"),
                Ok(_) => panic!("{tag} (cold={cold}): damage not detected"),
            }
        }
    };

    let work = scratch("v2-damage-work");
    let damaged_snap = work.join(snapshot::snapshot_name(1, 0));

    // A single flipped byte in the middle of a key block.
    clone_dir(&dir, &work);
    let mut bent = pristine.clone();
    bent[pristine.len() / 2] ^= 0x01;
    std::fs::write(&damaged_snap, &bent).unwrap();
    expect_corrupt("mid-block flip", &work, &damaged_snap);

    // Truncations: mid-block, mid-index, mid-footer, one byte short.
    for cut in [
        20usize,
        pristine.len() / 2,
        pristine.len() - 60, // inside the block index
        pristine.len() - 30, // inside the footer
        pristine.len() - 1,
    ] {
        clone_dir(&dir, &work);
        std::fs::write(&damaged_snap, &pristine[..cut]).unwrap();
        expect_corrupt(&format!("truncated at {cut}"), &work, &damaged_snap);
    }

    // The undamaged image still opens (the harness itself is sound).
    clone_dir(&dir, &work);
    let store = ShardedStore::<u64>::open(&work, config).unwrap();
    assert_eq!(store.len(), base.len());
}

/// The monolithic v1 snapshot format is no longer read: a directory whose
/// only manifest names a well-formed v1 file fails to open with a typed
/// `Corrupt` error naming that file, eagerly and cold, and never panics.
#[test]
fn v1_snapshot_directories_fail_to_open_with_a_typed_error() {
    let dir = scratch("v1-rejected");
    std::fs::create_dir_all(&dir).unwrap();
    // A v1 image, byte for byte: magic (the v2 magic with version digit 1),
    // body CRC32, body length, then applied │ key_bits │ count │ keys.
    let keys: Vec<u64> = (0..400u64).map(|i| i * 2).collect();
    let mut body = Vec::new();
    body.extend_from_slice(&5u64.to_le_bytes());
    body.extend_from_slice(&64u32.to_le_bytes());
    body.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    for k in &keys {
        body.extend_from_slice(&k.to_le_bytes());
    }
    let mut magic = shift_store::persist::v2::MAGIC;
    magic[7] = b'1';
    let mut image = magic.to_vec();
    image.extend_from_slice(&shift_store::persist::crc32(&body).to_le_bytes());
    image.extend_from_slice(&(body.len() as u64).to_le_bytes());
    image.extend_from_slice(&body);
    let snap = dir.join(snapshot::snapshot_name(1, 0));
    std::fs::write(&snap, &image).unwrap();
    let text = format!(
        "shift-store-manifest 1\nseq 1\nversion 5\nspec im+r1\nfences 1\nfence 0\n\
         shards 1\nshard {} 5\nend\n",
        snapshot::snapshot_name(1, 0),
    );
    std::fs::write(dir.join(manifest::manifest_name(1)), text).unwrap();

    let config = StoreConfig::new(spec()).durability(DurabilityConfig::new().checkpoint_ops(0));
    for cold in [false, true] {
        match ShardedStore::<u64>::open(&dir, config.cold_start(cold)) {
            Err(StoreError::Corrupt { path, .. }) => {
                assert_eq!(path, snap, "cold={cold}: wrong file blamed")
            }
            Err(e) => panic!("cold={cold}: wrong error {e}"),
            Ok(_) => panic!("cold={cold}: a v1 snapshot must not open"),
        }
    }
}

/// Online WAL repair: a poisoned store refuses writes, `repair_wal`
/// restores writability without a reopen, poisoned-era rejections stay
/// rejected, and recovery agrees with everything that was acknowledged.
#[test]
fn repair_wal_heals_a_poisoned_store_online() {
    // In-memory stores have no WAL to repair.
    let mem = ShardedStore::build(StoreConfig::new(spec()), [1u64, 2, 3]).unwrap();
    assert!(matches!(mem.repair_wal(), Err(StoreError::NotDurable)));
    assert!(!mem.poison_wal_for_tests());

    let dir = scratch("wal-repair");
    let base: Vec<u64> = (0..1_000u64).map(|i| i * 3).collect();
    let config = StoreConfig::new(spec()).shards(2).durability(
        DurabilityConfig::new()
            .sync(SyncPolicy::EveryN(4))
            .checkpoint_ops(0),
    );
    let store = ShardedStore::open_seeded(&dir, config, &base).unwrap();
    store.insert(10).unwrap();
    let segments_before = wal::list_segments(&dir).unwrap().len();

    // A healthy WAL: repair is a no-op.
    assert!(!store.repair_wal().unwrap());

    // Poison. Every write is rejected; reads keep working.
    assert!(store.poison_wal_for_tests());
    let len_poisoned = store.len();
    assert!(matches!(store.insert(11), Err(StoreError::WalPoisoned)));
    assert!(matches!(store.delete(10), Err(StoreError::WalPoisoned)));
    assert_eq!(store.len(), len_poisoned, "rejected writes must not apply");
    assert_eq!(store.count_of(10), 1);

    // Repair: writability returns on a fresh segment, no reopen.
    assert!(store.repair_wal().unwrap());
    assert!(!store.repair_wal().unwrap(), "second repair is a no-op");
    assert!(
        wal::list_segments(&dir).unwrap().len() > segments_before,
        "repair must rotate to a fresh segment"
    );
    store.insert(14).unwrap();
    assert!(store.delete(10).unwrap());
    store.sync_wal().unwrap();

    // Recovery sees exactly the acknowledged writes: the pre-poison insert
    // and the post-repair ones; the poisoned-era rejects never reappear.
    let image = scratch("wal-repair-image");
    clone_dir(&dir, &image);
    let recovered = ShardedStore::<u64>::open(&image, config).unwrap();
    assert_eq!(recovered.count_of(10), 0);
    assert_eq!(recovered.count_of(11), 0, "rejected write resurrected");
    assert_eq!(recovered.count_of(14), 1);
    assert_eq!(recovered.len(), store.len());

    // A checkpoint after repair is the full heal; the store keeps working.
    store.checkpoint().unwrap();
    store.insert(13).unwrap();
    store.sync_wal().unwrap();
    let image2 = scratch("wal-repair-image2");
    clone_dir(&dir, &image2);
    let recovered = ShardedStore::<u64>::open(&image2, config).unwrap();
    assert_eq!(recovered.count_of(13), 1);
    assert_eq!(recovered.len(), store.len());
}
