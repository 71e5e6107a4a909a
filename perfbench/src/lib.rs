//! End-to-end and per-layer benchmark of the `shift-store` serving layer.
//!
//! Three workloads, each chosen to make a different set of layers work:
//!
//! * `read_dram` — read-only, 64M `amzn64` keys in 8 shards: the key
//!   column and index far exceed the last-level cache, so Shift-Table
//!   correction and the local search pay memory misses (the paper's
//!   regime). Deltas, commits and the WAL do no work.
//! * `mixed_rw` — 4M keys in 64 shards (cache-resident), 10% writes with
//!   inline rebuilds: snapshot re-pins after writes, delta merges and
//!   rebuilds dominate.
//! * `durable_ingest` — 1M `face64` keys on disk, two clients, 80% writes
//!   to the most recent eighth of the key range: the WAL, batches,
//!   transactions, worker checkpoints and recovery work.
//!
//! Every run checks every answer against a reference after timing ends.
//!
//! Run one workload from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! read_dram --seed 1 --seconds 15 --trace 0`; the self-tests run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

pub mod core_probe;
pub mod durable;
pub mod json;
pub mod oracle;
pub mod read;
pub mod report;
pub mod stats;
pub mod trace;

use algo_index::RangeIndex;
use shift_store::ShardedStore;
use std::time::{Duration, Instant};

/// When a timed loop stops.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// After this many seconds of wall time.
    Seconds(f64),
    /// After exactly this many operations (tests: exact counts repeat).
    Ops(u64),
}

impl Budget {
    #[inline]
    pub fn done(self, ops: u64, start: Instant, now: Instant) -> bool {
        match self {
            Budget::Seconds(s) => now.duration_since(start) >= Duration::from_secs_f64(s),
            Budget::Ops(n) => ops >= n,
        }
    }

    /// The round (of [`stats::ROUNDS`]) an operation finishing now is in.
    #[inline]
    pub fn round(self, ops: u64, start: Instant, now: Instant) -> usize {
        let done = match self {
            Budget::Seconds(s) => now.duration_since(start).as_secs_f64() / s,
            Budget::Ops(n) => ops as f64 / n as f64,
        };
        ((done * stats::ROUNDS as f64) as usize).min(stats::ROUNDS - 1)
    }
}

/// Index bytes per live key once every buffered write is folded in, so the
/// figure does not depend on where the run stopped relative to rebuilds.
pub fn aux_bytes_per_key(store: &ShardedStore<u64>) -> f64 {
    store.flush().expect("rebuilding sorted shards cannot fail");
    store.index_size_bytes() as f64 / store.len().max(1) as f64
}

/// The shard most of `reads` route to: the core probe replays the reads of
/// one shard, so it takes the one the trace favours.
pub fn busiest_shard(store: &ShardedStore<u64>, reads: impl Iterator<Item = u64>) -> usize {
    let snap = store.snapshot();
    let mut hits = vec![0usize; snap.shard_count()];
    for k in reads {
        hits[snap.table().router().shard_of(k)] += 1;
    }
    (0..hits.len()).max_by_key(|&s| hits[s]).unwrap_or(0)
}

/// The benchmark's workloads, by name.
pub const WORKLOADS: &[&str] = &["read_dram", "mixed_rw", "durable_ingest"];

/// Run one workload; returns the report and the tracers of a traced run.
pub fn run(
    workload: &str,
    seed: u64,
    budget: Budget,
    trace: bool,
    smoke: bool,
) -> Option<(report::Report, Vec<trace::Tracer>)> {
    let single = |p: read::Params| {
        if trace {
            let (r, t) = read::run_traced_report(&p, seed, budget);
            (r, vec![t])
        } else {
            (read::run(&p, seed, budget), Vec::new())
        }
    };
    Some(match workload {
        "read_dram" => single(read::Params::read_dram(smoke)),
        "mixed_rw" => single(read::Params::mixed_rw(smoke)),
        "durable_ingest" => {
            let p = durable::Params::durable_ingest(smoke);
            let warm = Budget::Seconds(if smoke { 0.2 } else { durable::WARM_SECONDS });
            if trace {
                durable::run_traced_report(&p, seed, (warm, budget))
            } else {
                (durable::run(&p, seed, (warm, budget)), Vec::new())
            }
        }
        _ => return None,
    })
}
