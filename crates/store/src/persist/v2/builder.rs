//! The v2 snapshot builder: key column in, block-structured file out.
//!
//! The builder slices the merged key column into blocks of
//! `block_keys` keys (the [`crate::DurabilityConfig::snapshot_block_keys`]
//! knob), encodes each under its own CRC32, records an index entry per
//! block, and closes the file with the checksummed index and footer — see
//! the [`super`] module docs for the byte layout. The whole image is
//! assembled in memory and written with one `write_all` + `fsync`: the
//! manifest must never reference a snapshot that could still be lost.

use super::block::{encode_block, BlockMeta};
use super::{FOOTER_LEN, FORMAT_VERSION, MAGIC};
use crate::persist::crc32;
use sosd_data::key::Key;
use std::io::Write;
use std::path::Path;

/// Write a v2 snapshot of `keys` (consistent with store version `applied`)
/// to `path` in blocks of `block_keys` keys, fsyncing before returning.
/// Returns the bytes written.
pub(crate) fn write_snapshot<K: Key>(
    path: &Path,
    applied: u64,
    keys: &[K],
    block_keys: usize,
) -> std::io::Result<u64> {
    let block_keys = block_keys.max(1);
    let mut out = Vec::with_capacity(
        MAGIC.len() + keys.len() * 8 + (keys.len() / block_keys + 2) * 64 + FOOTER_LEN,
    );
    out.extend_from_slice(&MAGIC);

    let mut metas: Vec<BlockMeta> = Vec::with_capacity(keys.len().div_ceil(block_keys));
    let mut widened: Vec<u64> = Vec::with_capacity(block_keys.min(keys.len()));
    for chunk in keys.chunks(block_keys) {
        widened.clear();
        widened.extend(chunk.iter().map(|k| k.to_u64()));
        let offset = out.len() as u64;
        encode_block(&widened, &mut out);
        metas.push(BlockMeta {
            first_key: widened[0],
            offset,
            count: chunk.len() as u32,
        });
    }

    let index_offset = out.len() as u64;
    let index_at = out.len();
    for meta in &metas {
        meta.encode_entry(&mut out);
    }
    let index_crc = crc32(&out[index_at..]);

    let footer_at = out.len();
    out.extend_from_slice(&applied.to_le_bytes());
    out.extend_from_slice(&K::BITS.to_le_bytes());
    out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    out.extend_from_slice(&(metas.len() as u32).to_le_bytes());
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(&index_crc.to_le_bytes());
    let footer_crc = crc32(&out[footer_at..]);
    out.extend_from_slice(&footer_crc.to_le_bytes());
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&MAGIC);
    debug_assert_eq!(out.len() - footer_at, FOOTER_LEN);

    let mut file = std::fs::File::create(path)?;
    file.write_all(&out)?;
    file.sync_all()?;
    Ok(out.len() as u64)
}
