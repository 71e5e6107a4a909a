//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A [`Tracer`] belongs to one client thread. Every span carries a name, its
//! start and end (nanoseconds since the tracer was created), the index of
//! the span that was open when it started, and the request id of the
//! operation it serves. Aggregates (count and total time per name) are kept
//! for every span; the first [`SPAN_BUFFER`] spans are also kept
//! verbatim in a buffer allocated up front and written out when the run
//! ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept verbatim per tracer (the buffer is allocated once, up front).
pub const SPAN_BUFFER: usize = 1 << 16;

/// Span names. The first group wraps whole client operations; the rest wrap
/// one call into one layer's public API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    OpLookup,
    OpCount,
    OpScan,
    OpBatch,
    OpTxn,
    /// `ShardedStore::snapshot`.
    SnapshotPin,
    /// `StoreSnapshot::lower_bound` / `count_of` (route, shard and the
    /// snapshot's own bookkeeping).
    SnapshotRead,
    /// `ShardRouter::shard_of`.
    RouterRoute,
    /// `ShardRouter::shard_of` over all keys of one batch.
    RouterRouteBatch,
    /// `ShardState::lower_bound`.
    ShardLowerBound,
    /// `ShardState::count_of`.
    ShardCountOf,
    /// `ShardState::merged_range_keys`.
    ShardScan,
    /// `ShardState::lower_bound_batch`.
    ShardBatch,
    /// `DeltaChain::net_below`.
    DeltaNetBelow,
    /// `ShardedStore::insert` / `delete`.
    ShardedWrite,
    /// `ShardedStore::apply`.
    BatchApply,
    /// `ShardedStore::begin`.
    TxnBegin,
    /// `Txn::get`.
    TxnGet,
    /// `Txn::commit`.
    TxnCommit,
    /// `CorrectedIndex::predict_uncorrected`.
    CorePredict,
    /// `CorrectedIndex::predict_corrected`.
    CorePredictCorrected,
    /// `RangeIndex::lower_bound` on the corrected index.
    CoreLowerBound,
    /// `RangeIndex::lower_bound_batch` on the corrected index.
    CoreBatch,
    /// Nothing: measures the cost of recording a span.
    Empty,
}

const NAMES: usize = Name::Empty as usize + 1;

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::OpLookup => "op.lookup",
            Name::OpCount => "op.count",
            Name::OpScan => "op.scan",
            Name::OpBatch => "op.batch",
            Name::OpTxn => "op.txn",
            Name::SnapshotPin => "snapshot.pin",
            Name::SnapshotRead => "snapshot.read",
            Name::RouterRoute => "router.route",
            Name::RouterRouteBatch => "router.route_batch",
            Name::ShardLowerBound => "shard.lower_bound",
            Name::ShardCountOf => "shard.count_of",
            Name::ShardScan => "shard.scan",
            Name::ShardBatch => "shard.batch",
            Name::DeltaNetBelow => "delta.net_below",
            Name::ShardedWrite => "sharded.write",
            Name::BatchApply => "batch.apply",
            Name::TxnBegin => "txn.begin",
            Name::TxnGet => "txn.get",
            Name::TxnCommit => "txn.commit",
            Name::CorePredict => "learned_index.predict",
            Name::CorePredictCorrected => "core.predict_corrected",
            Name::CoreLowerBound => "core.lower_bound",
            Name::CoreBatch => "core.batch",
            Name::Empty => "empty",
        }
    }
}

/// One recorded span.
#[derive(Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    request: u64,
    start: u64,
    end: u64,
}

struct Open {
    name: Name,
    slot: u32,
    start: u64,
}

/// Per-name aggregate.
#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
}

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    agg: [Agg; NAMES],
    last_ns: u64,
    /// Mean cost of recording an empty span, subtracted from every mean.
    overhead_ns: f64,
}

impl Tracer {
    pub fn new() -> Self {
        let mut t = Self {
            t0: Instant::now(),
            spans: Vec::with_capacity(SPAN_BUFFER),
            stack: Vec::with_capacity(16),
            agg: [Agg::default(); NAMES],
            last_ns: 0,
            overhead_ns: 0.0,
        };
        t.calibrate();
        t
    }

    fn calibrate(&mut self) {
        const N: u64 = 200_000;
        for _ in 0..N {
            self.span(Name::Empty, 0, || ());
        }
        let a = self.agg[Name::Empty as usize];
        self.overhead_ns = a.total_ns as f64 / a.count as f64;
        self.spans.clear();
        self.agg[Name::Empty as usize] = Agg::default();
    }

    #[inline]
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn enter(&mut self, name: Name, request: u64) {
        let slot = if self.spans.len() < SPAN_BUFFER {
            let parent = self.stack.last().map_or(NO_PARENT, |o| o.slot);
            self.spans.push(Span {
                name,
                parent,
                request,
                start: 0,
                end: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        let start = self.now();
        self.stack.push(Open { name, slot, start });
    }

    #[inline]
    pub fn exit(&mut self) {
        let end = self.now();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end - open.start;
        let a = &mut self.agg[open.name as usize];
        a.count += 1;
        a.total_ns += dur;
        if let Some(s) = self.spans.get_mut(open.slot as usize) {
            s.start = open.start;
            s.end = end;
        }
        self.last_ns = dur;
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: Name, request: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, request);
        let r = f();
        self.exit();
        r
    }

    /// Duration of the span that closed last.
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    pub fn overhead_ns(&self) -> f64 {
        self.overhead_ns
    }

    pub fn agg(&self, name: Name) -> Agg {
        self.agg[name as usize]
    }

    /// Mean duration of `name`'s spans with the recording cost removed, or
    /// 0 when no such span was recorded.
    pub fn mean_ns(&self, name: Name) -> f64 {
        let a = self.agg(name);
        if a.count == 0 {
            0.0
        } else {
            (a.total_ns as f64 / a.count as f64 - self.overhead_ns).max(0.0)
        }
    }

    /// Total duration of `name`'s spans with the recording cost removed.
    pub fn total_ns(&self, name: Name) -> f64 {
        let a = self.agg(name);
        (a.total_ns as f64 - a.count as f64 * self.overhead_ns).max(0.0)
    }

    /// Fold another client's aggregates into this one.
    pub fn absorb(&mut self, other: &Tracer) {
        for (a, b) in self.agg.iter_mut().zip(other.agg.iter()) {
            a.count += b.count;
            a.total_ns += b.total_ns;
        }
        self.overhead_ns = (self.overhead_ns + other.overhead_ns) / 2.0;
    }

    /// Write the buffered spans as tab-separated lines
    /// (`client span parent request name start_ns end_ns`).
    pub fn write_spans(tracers: &[&Tracer], path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "client\tspan\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (c, t) in tracers.iter().enumerate() {
            for (i, s) in t.spans.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    "-".to_string()
                } else {
                    s.parent.to_string()
                };
                writeln!(
                    out,
                    "{c}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                    s.request,
                    s.name.as_str(),
                    s.start,
                    s.end
                )?;
            }
        }
        out.flush()
    }
}

/// Mean time between two consecutive clock reads: what an untraced
/// operation's measured latency holds beyond the operation itself.
pub fn clock_pair_ns() -> f64 {
    const N: u32 = 200_000;
    let mut total = 0u128;
    for _ in 0..N {
        let a = Instant::now();
        total += a.elapsed().as_nanos();
    }
    total as f64 / N as f64
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_their_parent_and_nest_in_time() {
        let mut t = Tracer::new();
        t.enter(Name::OpLookup, 1);
        t.span(Name::SnapshotPin, 1, || std::hint::black_box(0));
        t.exit();
        let (root, child) = (t.agg(Name::OpLookup), t.agg(Name::SnapshotPin));
        assert_eq!((root.count, child.count), (1, 1));
        assert!(child.total_ns <= root.total_ns);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(
            (t.spans[1].request, t.spans[1].name),
            (1, Name::SnapshotPin)
        );
        assert!(t.spans[0].start <= t.spans[1].start && t.spans[1].end <= t.spans[0].end);
    }
}
