//! Shard snapshot file naming.
//!
//! Checkpoints write each shard's merged key column in the block-structured
//! v2 format ([`crate::persist::v2`]); this module names the files, so a
//! fresh file is always named under the manifest sequence that first
//! references it (see the GC invariants in [`crate::persist`]).

/// File name of shard `shard`'s snapshot under manifest sequence `seq`.
pub fn snapshot_name(seq: u64, shard: usize) -> String {
    format!("snap-{seq:010}-{shard:04}.snap")
}
