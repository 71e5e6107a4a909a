//! Snapshot format v2: block-structured shard snapshots.
//!
//! A monolithic body under one checksum (the retired v1 format) forces a
//! reader to load, checksum and decode the whole file before it can answer
//! a single query, and makes a single flipped byte indistinguishable from
//! total loss. Format v2 splits the key column into
//! fixed-size **blocks**, each under its own CRC32, with a trailing **block
//! index** (first key + offset + count per block) and a versioned
//! **footer** — so a reader can locate and binary-search one block without
//! decoding the rest of the file, which is what makes cold-mounted shards
//! (first reads before any model retrains) possible.
//!
//! ## On-disk layout
//!
//! ```text
//! ┌──────────────┬─────────┬─────────┬───┬─────────────┬──────────────┐
//! │ magic (8 B)  │ block 0 │ block 1 │ … │ block index │ footer (52 B)│
//! │ "SSTSNAP2"   │         │         │   │             │              │
//! └──────────────┴─────────┴─────────┴───┴─────────────┴──────────────┘
//!
//! block      := crc: u32 LE │ count: u32 LE │ keys: count × u64 LE
//!               (crc covers the count field and the keys)
//!
//! index      := block_count × entry, entry (20 B) :=
//!               first_key: u64 LE │ offset: u64 LE │ count: u32 LE
//!               (offset is the absolute file offset of the block header)
//!
//! footer     := applied: u64 LE      ── store version the file is exact at
//!             │ key_bits: u32 LE     ── logical key width, validated on load
//!             │ total: u64 LE        ── key count across all blocks
//!             │ block_count: u32 LE
//!             │ index_offset: u64 LE ── absolute offset of the index region
//!             │ index_crc: u32 LE    ── CRC32 of the index region
//!             │ footer_crc: u32 LE   ── CRC32 of the 36 bytes above
//!             │ version: u32 LE = 2
//!             │ magic (8 B) "SSTSNAP2"
//! ```
//!
//! Keys are written as `u64` LE regardless of the store's key width, and
//! an empty shard is a valid file of magic + footer with zero blocks. The
//! trained model is still *not* persisted — a mounted file serves reads
//! straight off the block index, and hydration retrains the model from the
//! decoded keys and the manifest's spec string.
//!
//! ## Validation model
//!
//! [`ColdBase::mount`] validates the **entire file structurally up front**:
//! both magics, the footer and index checksums, key width, block
//! contiguity (every byte between the magic and the index is covered by
//! exactly one block), per-block checksums, index first-keys against block
//! contents, and global key sortedness — one sequential sweep, no
//! per-key allocation, no model training. Corruption anywhere therefore
//! surfaces as a typed [`StoreError::Corrupt`](crate::StoreError::Corrupt)
//! naming the file *at mount time* (i.e. at `open`, confined to the one
//! shard), and every cold read afterwards is infallible.
//!
//! `write_snapshot` is the builder ([`builder`]); [`ColdBase`] /
//! [`ColdBlockIndex`] are the mounted reader ([`reader`]); [`block`] holds
//! the byte-level helpers both share.

pub mod block;
pub mod builder;
pub mod reader;

pub(crate) use builder::write_snapshot;
pub use reader::{read_snapshot_v2, ColdBase, ColdBlockIndex};

/// v2 snapshot file magic — leads the file and closes the footer.
pub const MAGIC: [u8; 8] = *b"SSTSNAP2";

/// Format version recorded in the footer.
pub const FORMAT_VERSION: u32 = 2;

/// Bytes of a block header (`crc: u32 │ count: u32`).
pub const BLOCK_HEADER_LEN: usize = 8;

/// Bytes of one block-index entry (`first_key: u64 │ offset: u64 │ count: u32`).
pub const INDEX_ENTRY_LEN: usize = 20;

/// Bytes of the footer (`applied │ key_bits │ total │ block_count │
/// index_offset │ index_crc │ footer_crc │ version │ magic`).
pub const FOOTER_LEN: usize = 52;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shift-store-snap2-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn v2_round_trips_both_key_widths_and_block_boundaries() {
        let dir = tmp("roundtrip");
        // Counts that are under, exactly at, and just past block multiples.
        for (i, n) in [0usize, 1, 63, 64, 65, 128, 1000].into_iter().enumerate() {
            let path = dir.join(format!("rt-{n}.snap"));
            let keys: Vec<u64> = (0..n as u64).map(|k| k * k).collect();
            let bytes = write_snapshot(&path, 7 + i as u64, &keys, 64).unwrap();
            assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
            let (applied, loaded): (u64, Vec<u64>) = read_snapshot_v2(&path).unwrap();
            assert_eq!(applied, 7 + i as u64);
            assert_eq!(loaded, keys, "n={n}");
        }
        // u32 keys round-trip through the widened representation.
        let p32 = dir.join("rt-u32.snap");
        let keys32: Vec<u32> = vec![1, 1, 2, 900, u32::MAX];
        write_snapshot(&p32, 3, &keys32, 2).unwrap();
        let (applied, loaded): (u64, Vec<u32>) = read_snapshot_v2(&p32).unwrap();
        assert_eq!((applied, loaded), (3, keys32));
        // Width mismatch is rejected, not silently narrowed.
        assert!(matches!(
            read_snapshot_v2::<u64>(&p32),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_lower_bound_matches_the_sorted_vec_oracle() {
        let dir = tmp("oracle");
        // Duplicate runs deliberately spanning block boundaries.
        let mut keys: Vec<u64> = Vec::new();
        for k in 0..200u64 {
            for _ in 0..(k % 5 + 1) {
                keys.push(k * 3);
            }
        }
        let path = dir.join("oracle.snap");
        write_snapshot(&path, 1, &keys, 16).unwrap();
        let base: ColdBase<u64> = ColdBase::mount(&path).unwrap();
        assert_eq!(base.len(), keys.len());
        assert_eq!(base.applied(), 1);
        for q in 0..620u64 {
            assert_eq!(
                base.lower_bound(q),
                keys.partition_point(|&k| k < q),
                "q={q}"
            );
        }
        assert_eq!(base.lower_bound(u64::MAX), keys.len());
        assert_eq!(base.count_of(6), 3);
        assert_eq!(base.count_of(7), 0);
        assert_eq!(base.decode_all(), keys);
        assert_eq!(base.keys_in(0..keys.len()), keys);
        assert_eq!(base.keys_in(10..40), keys[10..40].to_vec());
        assert_eq!(base.keys_in(17..17), Vec::<u64>::new());
        assert!(base.size_bytes() > keys.len() * 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_region_rejects_a_bit_flip() {
        let dir = tmp("flip");
        let path = dir.join("flip.snap");
        let keys: Vec<u64> = (0..256u64).collect();
        write_snapshot(&path, 5, &keys, 32).unwrap();
        let good = std::fs::read(&path).unwrap();
        let index_off = good.len() - FOOTER_LEN - (256 / 32) * INDEX_ENTRY_LEN;
        let probes = [
            (0usize, "head magic"),
            (8, "block 0 crc"),
            (12, "block 0 count"),
            (40, "block 0 keys"),
            (index_off - 16, "last block keys"),
            (index_off + 3, "index entry"),
            (good.len() - FOOTER_LEN + 2, "footer applied"),
            (good.len() - 20, "footer crc region"),
            (good.len() - 3, "tail magic"),
        ];
        for (at, what) in probes {
            let mut bent = good.clone();
            bent[at] ^= 0x10;
            std::fs::write(&path, &bent).unwrap();
            let err = ColdBase::<u64>::mount(&path).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{what}: {err}");
        }
        // Pristine bytes still mount after the damage loop.
        std::fs::write(&path, &good).unwrap();
        assert!(ColdBase::<u64>::mount(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_anywhere_is_corrupt_and_unsorted_keys_are_rejected() {
        let dir = tmp("trunc");
        let path = dir.join("trunc.snap");
        let keys: Vec<u64> = (0..300u64).map(|k| k * 2).collect();
        write_snapshot(&path, 2, &keys, 64).unwrap();
        let good = std::fs::read(&path).unwrap();
        let index_len = (300u64.div_ceil(64) as usize) * INDEX_ENTRY_LEN;
        for (len, what) in [
            (3usize, "mid head magic"),
            (200, "mid block"),
            (good.len() - FOOTER_LEN - index_len / 2, "mid index"),
            (good.len() - FOOTER_LEN / 2, "mid footer"),
            (good.len() - 1, "last byte"),
        ] {
            std::fs::write(&path, &good[..len]).unwrap();
            let err = ColdBase::<u64>::mount(&path).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{what}: {err}");
        }

        // An unsorted column cannot be produced by the builder; forge one by
        // patching keys inside a block and fixing every checksum on the way.
        let mut forged = good.clone();
        forged[16..24].copy_from_slice(&u64::MAX.to_le_bytes()); // first key of block 0
        let body_end = 8 + BLOCK_HEADER_LEN + 64 * 8;
        let crc = crate::persist::crc32(&forged[12..body_end]);
        forged[8..12].copy_from_slice(&crc.to_le_bytes());
        let index_off = good.len() - FOOTER_LEN - index_len;
        forged[index_off..index_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let index_crc = crate::persist::crc32(&forged[index_off..index_off + index_len]);
        let footer_off = good.len() - FOOTER_LEN;
        forged[footer_off + 32..footer_off + 36].copy_from_slice(&index_crc.to_le_bytes());
        let footer_crc = crate::persist::crc32(&forged[footer_off..footer_off + 36]);
        forged[footer_off + 36..footer_off + 40].copy_from_slice(&footer_crc.to_le_bytes());
        std::fs::write(&path, &forged).unwrap();
        let err = ColdBase::<u64>::mount(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "unsorted: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
