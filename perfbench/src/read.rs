//! The single-client workloads over an in-memory store: `read_dram`
//! (read-only, column far larger than the last-level cache) and `mixed_rw`
//! (reads after writes, cache-resident column, inline rebuilds).

use crate::core_probe;
use crate::oracle::{batch_digest, scan_digest, CountedMultiset, SortedOracle};
use crate::report::Report;
use crate::stats::{
    below, close_rounds, draw, in_range, median, round_quantile, round_rate, Mark, Rounds, Samples,
    ROUNDS,
};
use crate::trace::{clock_pair_ns, Name, Tracer};
use crate::Budget;
use algo_index::RangeIndex;
use shift_store::{ShardedStore, StoreConfig, StoreSnapshot, StoreTable};
use shift_table::spec::IndexSpec;
use sosd_data::SosdName;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Keys per pinned batch.
pub const BATCH: usize = 64;
/// Longest scan, in records of the base column.
const MAX_SCAN: u64 = 100;
/// Build repetitions whose median is `setup_s`: few for the 64M-key column,
/// whose builds take seconds each, more for the small one.
fn setups(p: &Params) -> usize {
    if p.n > 10_000_000 {
        3
    } else {
        15
    }
}
/// Read-only operations run before timing starts.
const WARMUP_OPS: u64 = 200_000;
/// Queries the core probe replays at most.
const PROBE_QUERIES: usize = 200_000;

/// Operation types of the single-client mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Lookup,
    Count,
    Scan,
    Batch,
    Insert,
    Delete,
}

const KINDS: usize = 6;
const ALL: [Kind; KINDS] = [
    Kind::Lookup,
    Kind::Count,
    Kind::Scan,
    Kind::Batch,
    Kind::Insert,
    Kind::Delete,
];

/// Shares of each kind, per mille, in [`ALL`] order.
pub type Mix = [u32; KINDS];

/// 80% one-shot lookups, 8% counts, 8% scans, 4% pinned batches.
pub const READ_MIX: Mix = [800, 80, 80, 40, 0, 0];
/// The read mix on 90% of operations, 6% inserts and 4% deletes.
pub const MIXED_MIX: Mix = [720, 72, 72, 36, 60, 40];
const WARMUP_MIX: Mix = [1000, 0, 0, 0, 0, 0];

/// Parameters of one single-client workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub dataset: SosdName,
    pub n: usize,
    pub shards: usize,
    pub spec: &'static str,
    pub mix: Mix,
}

impl Params {
    pub fn read_dram(smoke: bool) -> Self {
        Self {
            dataset: SosdName::Amzn64,
            n: if smoke { 200_000 } else { 64_000_000 },
            shards: 8,
            spec: "im+r1",
            mix: READ_MIX,
        }
    }

    pub fn mixed_rw(smoke: bool) -> Self {
        Self {
            dataset: SosdName::Amzn64,
            n: if smoke { 100_000 } else { 4_000_000 },
            // Few shards at smoke scale, so a short trace still rebuilds.
            shards: if smoke { 4 } else { 64 },
            spec: "im+r1",
            mix: MIXED_MIX,
        }
    }

    fn writes(&self) -> bool {
        self.mix[4] + self.mix[5] > 0
    }

    fn config(&self) -> StoreConfig {
        StoreConfig::new(IndexSpec::parse(self.spec).expect("valid spec")).shards(self.shards)
    }

    fn record(&self, r: &mut Report) {
        r.param("dataset", self.dataset.as_str());
        r.param("n", self.n);
        r.param("spec", self.spec);
        r.param("shards", self.shards);
        r.param("mix_per_mille", format!("{:?}", self.mix));
        r.param("delta_threshold", self.config().delta_threshold);
        r.param("sync_policy", "none (in-memory)");
        r.param("client_threads", 1);
        r.param("worker_threads", 0);
        r.param("loop", "closed");
    }
}

/// One generated operation.
#[derive(Clone, Copy, Debug)]
struct Op {
    kind: Kind,
    a: u64,
    b: u64,
}

/// Regenerates the trace from `(seed, stream, i)`.
pub struct Gen<'a> {
    seed: u64,
    stream: u64,
    mix: Mix,
    col: &'a [u64],
    lo: u64,
    hi: u64,
}

impl<'a> Gen<'a> {
    fn new(seed: u64, stream: u64, mix: Mix, col: &'a [u64]) -> Self {
        Self {
            seed,
            stream,
            mix,
            col,
            lo: col[0],
            hi: col[col.len() - 1],
        }
    }

    #[inline]
    fn op(&self, i: u64, batch: &mut [u64; BATCH]) -> Op {
        let h = draw(self.seed, self.stream, i);
        let h2 = draw(self.seed, self.stream ^ 0xA5A5, i);
        let mut r = (h % 1000) as u32;
        let mut kind = Kind::Lookup;
        for (k, &share) in ALL.iter().zip(self.mix.iter()) {
            if r < share {
                kind = *k;
                break;
            }
            r -= share;
        }
        let n = self.col.len() as u64;
        let (a, b) = match kind {
            Kind::Lookup | Kind::Insert => (in_range(h2, self.lo, self.hi), 0),
            Kind::Count | Kind::Delete => (self.col[below(h2, n) as usize], 0),
            Kind::Scan => {
                let p = below(h2, n);
                let len = 1 + (h >> 32) % MAX_SCAN;
                (
                    self.col[p as usize],
                    self.col[(p + len - 1).min(n - 1) as usize],
                )
            }
            Kind::Batch => {
                for (j, q) in batch.iter_mut().enumerate() {
                    *q = in_range(crate::stats::mix64(h2 ^ j as u64), self.lo, self.hi);
                }
                (0, 0)
            }
        };
        Op { kind, a, b }
    }
}

/// What one timed phase produced.
pub struct Phase {
    pub ops: u64,
    pub elapsed_s: f64,
    /// Answer digests, truncated to 32 bits, checked after timing ends.
    pub answers: Vec<u32>,
    lat: [Samples; KINDS],
    marks: Vec<Mark>,
}

impl Phase {
    /// Buffers for `cap` operations; latency buffers sized by `mix` when the
    /// phase times each operation (a little over each kind's share).
    fn new(cap: usize, timed_mix: Option<&Mix>) -> Self {
        Self {
            ops: 0,
            elapsed_s: 0.0,
            answers: Vec::with_capacity(cap),
            lat: std::array::from_fn(|k| {
                Samples::with_capacity(timed_mix.map_or(0, |m| cap * m[k] as usize / 900))
            }),
            marks: Vec::with_capacity(ROUNDS),
        }
    }
}

/// Expected-operations sizing for the answer buffer.
fn capacity(budget: Budget) -> usize {
    match budget {
        Budget::Ops(n) => n as usize,
        Budget::Seconds(s) => (s * 1_000_000.0) as usize,
    }
}

/// The untraced closed loop: the public one-shot calls, each timed alone.
fn run_plain(store: &ShardedStore<u64>, g: &Gen, budget: Budget) -> Phase {
    let mut ph = Phase::new(capacity(budget), Some(&g.mix));
    let mut batch = [0u64; BATCH];
    let mut out = [0usize; BATCH];
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let op = g.op(i, &mut batch);
        let t0 = Instant::now();
        let (ans, t1) = match op.kind {
            Kind::Lookup => {
                let p = store.lower_bound(op.a);
                (p as u64, Instant::now())
            }
            Kind::Count => {
                let c = store.count_of(op.a);
                (c as u64, Instant::now())
            }
            Kind::Scan => {
                let v = store.scan(op.a, op.b);
                let t1 = Instant::now();
                (scan_digest(&v), t1)
            }
            Kind::Batch => {
                let snap = store.snapshot();
                snap.lower_bound_batch(&batch, &mut out);
                let t1 = Instant::now();
                (batch_digest(&out), t1)
            }
            Kind::Insert => {
                let ok = store.insert(op.a).is_ok();
                (if ok { 1 } else { u64::MAX }, Instant::now())
            }
            Kind::Delete => {
                let r = store.delete(op.a);
                (r.map_or(u64::MAX, |b| b as u64), Instant::now())
            }
        };
        ph.lat[op.kind as usize].push((t1 - t0).as_nanos() as u64);
        ph.answers.push(ans as u32);
        i += 1;
        let round = budget.round(i, start, t1);
        if round > ph.marks.len() {
            close_rounds(&mut ph.marks, round, i, (t1 - start).as_secs_f64(), &ph.lat);
        }
        if budget.done(i, start, t1) {
            break;
        }
    }
    ph.elapsed_s = start.elapsed().as_secs_f64();
    ph.ops = i;
    close_rounds(&mut ph.marks, ROUNDS, i, ph.elapsed_s, &ph.lat);
    ph
}

/// Global offsets of a pinned cut's shards, recomputed only when the cut
/// changes (the benchmark's own work, kept outside every span).
#[derive(Default)]
struct Offsets {
    key: Option<(u64, Arc<StoreTable<u64>>)>,
    offsets: Vec<usize>,
}

impl Offsets {
    fn of(&mut self, snap: &StoreSnapshot<u64>) -> &[usize] {
        let fresh = matches!(&self.key, Some((v, t)) if *v == snap.version() && Arc::ptr_eq(t, snap.table()));
        if !fresh {
            self.offsets.clear();
            let mut total = 0;
            for st in snap.states() {
                self.offsets.push(total);
                total += st.merged_len();
            }
            self.key = Some((snap.version(), Arc::clone(snap.table())));
        }
        &self.offsets
    }
}

/// Read-path and write-path aggregates of a traced phase that spans alone
/// do not give.
#[derive(Default)]
pub struct TraceExtra {
    pub lookups: u64,
    pub delta_runs: u64,
    pub delta_entries: u64,
    pub batch_keys: u64,
    pub write_ns: Samples,
    pub rebuild_write_ns: Samples,
    pub probe_queries: Vec<u64>,
}

/// The traced closed loop: each operation is decomposed into the public
/// calls of the layers it crosses, each inside its own span.
fn run_traced(
    store: &ShardedStore<u64>,
    g: &Gen,
    budget: Budget,
    tr: &mut Tracer,
    probe_shard: usize,
) -> (Phase, TraceExtra) {
    let mut ph = Phase::new(capacity(budget), None);
    let mut x = TraceExtra::default();
    let mut offsets = Offsets::default();
    let mut batch = [0u64; BATCH];
    let mut out = [0usize; BATCH];
    let mut shard_of = [0usize; BATCH];
    let mut order: Vec<usize> = (0..BATCH).collect();
    let mut qs = Vec::with_capacity(BATCH);
    let mut os = vec![0usize; BATCH];
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let op = g.op(i, &mut batch);
        let ans = match op.kind {
            // Odd requests time the snapshot's whole read call, even ones
            // the calls it makes: each query is measured once, cold.
            Kind::Lookup if i % 2 == 1 => {
                tr.enter(Name::OpLookup, i);
                let snap = tr.span(Name::SnapshotPin, i, || store.snapshot());
                let p = tr.span(Name::SnapshotRead, i, || snap.lower_bound(op.a));
                tr.exit();
                p as u64
            }
            Kind::Lookup => {
                let q = op.a;
                tr.enter(Name::OpLookup, i);
                let snap = tr.span(Name::SnapshotPin, i, || store.snapshot());
                let s = tr.span(Name::RouterRoute, i, || snap.table().router().shard_of(q));
                let state = &snap.states()[s];
                let local = tr.span(Name::ShardLowerBound, i, || state.lower_bound(q));
                let d = state.delta();
                if d.entry_count() > 0 {
                    tr.span(Name::DeltaNetBelow, i, || black_box(d.net_below(q)));
                }
                tr.exit();
                x.lookups += 1;
                x.delta_runs += d.run_count() as u64;
                x.delta_entries += d.entry_count() as u64;
                if s == probe_shard && x.probe_queries.len() < PROBE_QUERIES {
                    x.probe_queries.push(q);
                }
                (offsets.of(&snap)[s] + local) as u64
            }
            Kind::Count => {
                tr.enter(Name::OpCount, i);
                let snap = tr.span(Name::SnapshotPin, i, || store.snapshot());
                let s = tr.span(Name::RouterRoute, i, || {
                    snap.table().router().shard_of(op.a)
                });
                let c = tr.span(Name::ShardCountOf, i, || snap.states()[s].count_of(op.a));
                tr.exit();
                c as u64
            }
            Kind::Scan => {
                tr.enter(Name::OpScan, i);
                let snap = tr.span(Name::SnapshotPin, i, || store.snapshot());
                let router = snap.table().router();
                let s_lo = tr.span(Name::RouterRoute, i, || router.shard_of(op.a));
                let s_hi = tr.span(Name::RouterRoute, i, || router.shard_of(op.b));
                let mut keys = Vec::new();
                for state in &snap.states()[s_lo..=s_hi] {
                    let part = tr.span(Name::ShardScan, i, || state.merged_range_keys(op.a, op.b));
                    keys.extend(part);
                }
                tr.exit();
                scan_digest(&keys)
            }
            Kind::Batch => {
                tr.enter(Name::OpBatch, i);
                let snap = tr.span(Name::SnapshotPin, i, || store.snapshot());
                let router = snap.table().router();
                tr.span(Name::RouterRouteBatch, i, || {
                    for (s, &q) in shard_of.iter_mut().zip(batch.iter()) {
                        *s = router.shard_of(q);
                    }
                });
                order.sort_unstable_by_key(|&j| shard_of[j]);
                let mut a = 0;
                while a < BATCH {
                    let s = shard_of[order[a]];
                    let mut b = a;
                    qs.clear();
                    while b < BATCH && shard_of[order[b]] == s {
                        qs.push(batch[order[b]]);
                        b += 1;
                    }
                    let os = &mut os[..qs.len()];
                    let state = &snap.states()[s];
                    tr.span(Name::ShardBatch, i, || state.lower_bound_batch(&qs, os));
                    for (j, &p) in order[a..b].iter().zip(os.iter()) {
                        out[*j] = p;
                    }
                    a = b;
                }
                tr.exit();
                let off = offsets.of(&snap);
                for (o, &s) in out.iter_mut().zip(shard_of.iter()) {
                    *o += off[s];
                }
                x.batch_keys += BATCH as u64;
                batch_digest(&out)
            }
            Kind::Insert | Kind::Delete => {
                let before = store.total_rebuilds();
                let ans = tr.span(Name::ShardedWrite, i, || match op.kind {
                    Kind::Insert => store.insert(op.a).map_or(u64::MAX, |()| 1),
                    _ => store.delete(op.a).map_or(u64::MAX, |b| b as u64),
                });
                let ns = tr.last_ns();
                if store.total_rebuilds() > before {
                    x.rebuild_write_ns.push(ns);
                } else {
                    x.write_ns.push(ns);
                }
                ans
            }
        };
        ph.answers.push(ans as u32);
        i += 1;
        if budget.done(i, start, Instant::now()) {
            break;
        }
    }
    ph.elapsed_s = start.elapsed().as_secs_f64();
    ph.ops = i;
    (ph, x)
}

/// Replay the trace on the reference and count answers that differ.
pub fn check(g: &Gen, answers: &[u32]) -> u64 {
    let mut batch = [0u64; BATCH];
    if g.mix[4] + g.mix[5] == 0 {
        // Read-only: the sorted column is the reference; split the replay
        // over two threads.
        let oracle = SortedOracle::new(g.col);
        let half = answers.len() / 2;
        let check_range = |from: usize, to: usize| {
            let mut batch = [0u64; BATCH];
            let mut failed = 0;
            for (i, &got) in answers.iter().enumerate().take(to).skip(from) {
                let op = g.op(i as u64, &mut batch);
                let want = match op.kind {
                    Kind::Lookup => oracle.lower_bound(op.a) as u64,
                    Kind::Count => oracle.count_of(op.a) as u64,
                    Kind::Scan => scan_digest(oracle.scan(op.a, op.b)),
                    Kind::Batch => {
                        let pos: Vec<usize> =
                            batch.iter().map(|&q| oracle.lower_bound(q)).collect();
                        batch_digest(&pos)
                    }
                    Kind::Insert | Kind::Delete => unreachable!("read-only mix"),
                };
                if want as u32 != got {
                    failed += 1;
                }
            }
            failed
        };
        return std::thread::scope(|s| {
            let first = s.spawn(|| check_range(0, half));
            let second = check_range(half, answers.len());
            first.join().expect("check thread panicked") + second
        });
    }
    // Writes: replay on a counted multiset whose universe holds every key
    // the trace inserts.
    let inserted: Vec<u64> = (0..answers.len() as u64)
        .map(|i| g.op(i, &mut batch))
        .filter(|op| op.kind == Kind::Insert)
        .map(|op| op.a)
        .collect();
    let mut m = CountedMultiset::new(g.col, &inserted);
    let mut failed = 0;
    for (i, &got) in answers.iter().enumerate() {
        let op = g.op(i as u64, &mut batch);
        let want = match op.kind {
            Kind::Lookup => m.lower_bound(op.a) as u64,
            Kind::Count => m.count_of(op.a) as u64,
            Kind::Scan => m.scan_digest(op.a, op.b),
            Kind::Batch => {
                let pos: Vec<usize> = batch.iter().map(|&q| m.lower_bound(q)).collect();
                batch_digest(&pos)
            }
            Kind::Insert => {
                m.insert(op.a);
                1
            }
            Kind::Delete => m.delete(op.a) as u64,
        };
        if want as u32 != got {
            failed += 1;
        }
    }
    failed
}

/// Seed of every generated key column. The column is fixed, like a SOSD
/// data file; `--seed` varies the operation trace. Columns drawn with
/// different seeds differ in shard sizes and local skew enough to move
/// the end-to-end figures by more than the run-to-run noise.
pub const DATA_SEED: u64 = 0x5EED;

/// Generate the column (timed separately, never part of `setup_s`).
pub fn generate(dataset: SosdName, n: usize, r: &mut Report) -> Vec<u64> {
    let t = Instant::now();
    let col = dataset.generate::<u64>(n, DATA_SEED).into_keys();
    r.param("data_seed", DATA_SEED);
    r.param("generate_s", format!("{:.3}", t.elapsed().as_secs_f64()));
    col
}

fn build(p: &Params, col: &[u64]) -> (ShardedStore<u64>, f64) {
    let t = Instant::now();
    let store = ShardedStore::build(p.config(), col).expect("generated columns are sorted");
    (store, t.elapsed().as_secs_f64())
}

/// Build [`setups`] times, dropping each store before the next build, and
/// keep the last one; returns it with the median build time.
fn setup(p: &Params, col: &[u64]) -> (ShardedStore<u64>, f64) {
    let mut times = Vec::new();
    let mut store = None;
    for _ in 0..setups(p) {
        drop(store.take());
        let (s, t) = build(p, col);
        times.push(t);
        store = Some(s);
    }
    (store.expect("at least one setup"), median(&times))
}

/// Untimed read-only pass so caches and page tables are warm.
fn warm_up(store: &ShardedStore<u64>, col: &[u64], seed: u64) {
    let g = Gen::new(seed, 99, WARMUP_MIX, col);
    black_box(run_plain(store, &g, Budget::Ops(WARMUP_OPS)).ops);
}

/// Streams of the operation trace: the same trace drives every phase.
const TRACE_STREAM: u64 = 1;

/// The untraced run: every end-to-end metric.
pub fn run(p: &Params, seed: u64, budget: Budget) -> Report {
    let mut r = Report::default();
    p.record(&mut r);
    let col = generate(p.dataset, p.n, &mut r);
    let (store, setup_s) = setup(p, &col);
    r.set_sampled("setup_s", setup_s, Some(setups(p)));
    warm_up(&store, &col, seed);
    let g = Gen::new(seed, TRACE_STREAM, p.mix, &col);
    let mut ph = run_plain(&store, &g, budget);
    let aux = crate::aux_bytes_per_key(&store);
    drop(store);
    let failed = check(&g, &ph.answers);
    r.attempted = ph.ops;
    r.failed = failed;

    // Gated figures: medians over rounds (sample counts are per round).
    let rounds = [Rounds {
        marks: &ph.marks,
        lat: &ph.lat,
    }];
    r.set_sampled("ops_per_s", round_rate(&rounds), Some(ph.ops as usize));
    let all: Vec<usize> = (0..KINDS).collect();
    let (p50, n) = round_quantile(&rounds, &all, 0.5);
    r.set_percentile("op_p50_ns", 0.5, p50, n);
    let (p90, n) = round_quantile(&rounds, &all, 0.9);
    r.set_percentile("op_p90_ns", 0.9, p90, n);
    let (p50, n) = round_quantile(&rounds, &[Kind::Count as usize], 0.5);
    r.set_percentile("count_p50_ns", 0.5, p50, n);
    // Detail figures: over the whole run.
    let mut all_ops = Samples::default();
    for s in &ph.lat {
        all_ops.extend(s);
    }
    let n = all_ops.len();
    r.set_percentile("op_p99_ns", 0.99, all_ops.quantile(0.99), n);
    let [lookup, count, scan, batch, insert, delete] = &mut ph.lat;
    let n = count.len();
    r.set_percentile("count_p99_ns", 0.99, count.quantile(0.99), n);
    r.set("aux_bytes_per_key", aux);
    let n = lookup.len();
    r.set_percentile("lookup_p50_ns", 0.5, lookup.quantile(0.5), n);
    r.set_percentile("lookup_p99_ns", 0.99, lookup.quantile(0.99), n);
    let n = scan.len();
    r.set_percentile("scan_p50_ns", 0.5, scan.quantile(0.5), n);
    r.set_percentile("scan_p99_ns", 0.99, scan.quantile(0.99), n);
    let n = batch.len();
    let per_key = batch.quantile(0.5) / BATCH as f64;
    r.set_percentile("batch_ns_per_key", 0.5, per_key, n);
    if p.writes() {
        insert.extend(delete);
        let n = insert.len();
        r.set_percentile("write_p50_ns", 0.5, insert.quantile(0.5), n);
        r.set_percentile("write_p99_ns", 0.99, insert.quantile(0.99), n);
    }
    r.set("failed_op_ratio", failed as f64 / ph.ops.max(1) as f64);
    r
}

/// The traced run: an untraced phase for reference, then a traced phase on
/// a fresh store (same trace), then the core probe.
pub fn run_traced_report(p: &Params, seed: u64, budget: Budget) -> (Report, Tracer) {
    let mut r = Report::default();
    p.record(&mut r);
    let col = generate(p.dataset, p.n, &mut r);
    let g = Gen::new(seed, TRACE_STREAM, p.mix, &col);

    let (store, _) = build(p, &col);
    warm_up(&store, &col, seed);
    let plain = run_plain(&store, &g, budget);
    let mut failed = check(&g, &plain.answers);
    let plain_lookup_mean = plain.lat[Kind::Lookup as usize].mean();
    let plain_ops_per_s = plain.ops as f64 / plain.elapsed_s;
    let store = if p.writes() {
        drop(store);
        let (fresh, _) = build(p, &col);
        warm_up(&fresh, &col, seed);
        fresh
    } else {
        store
    };

    let mut batch = [0u64; BATCH];
    let probe_shard = crate::busiest_shard(
        &store,
        (0..10_000)
            .map(|i| g.op(i, &mut batch))
            .filter(|op| op.kind == Kind::Lookup)
            .map(|op| op.a),
    );
    let mut tr = Tracer::new();
    let rebuilds0 = store.total_rebuilds();
    let reshards0 = store.total_splits() + store.total_merges();
    let (ph, mut x) = run_traced(&store, &g, budget, &mut tr, probe_shard);
    failed += check(&g, &ph.answers);
    r.attempted = plain.ops + ph.ops;

    let pin = tr.mean_ns(Name::SnapshotPin);
    let route = tr.mean_ns(Name::RouterRoute);
    let shard_lb = tr.mean_ns(Name::ShardLowerBound);
    r.set_sampled(
        "snapshot.pin_ns",
        pin,
        Some(tr.agg(Name::SnapshotPin).count as usize),
    );
    r.set_sampled(
        "router.route_ns",
        route,
        Some(tr.agg(Name::RouterRoute).count as usize),
    );
    r.set_sampled("shard.lower_bound_ns", shard_lb, Some(x.lookups as usize));
    r.set("shard.count_of_ns", tr.mean_ns(Name::ShardCountOf));
    r.set("shard.scan_ns", tr.mean_ns(Name::ShardScan));
    r.set(
        "shard.batch_ns_per_key",
        tr.total_ns(Name::ShardBatch) / x.batch_keys.max(1) as f64,
    );
    let lookups = x.lookups.max(1) as f64;
    r.set(
        "delta.net_below_ns",
        tr.total_ns(Name::DeltaNetBelow) / lookups,
    );
    r.set("delta.runs_mean", x.delta_runs as f64 / lookups);
    r.set("delta.entries_mean", x.delta_entries as f64 / lookups);
    let writes = x.write_ns.len();
    let rebuild_writes = x.rebuild_write_ns.len();
    let oh = tr.overhead_ns();
    r.set_sampled(
        "sharded.write_ns",
        (x.write_ns.mean() - oh).max(0.0),
        Some(writes),
    );
    r.set_sampled(
        "sharded.rebuild_write_ns",
        (x.rebuild_write_ns.mean() - oh).max(0.0),
        Some(rebuild_writes),
    );
    r.set(
        "sharded.rebuilds",
        (store.total_rebuilds() - rebuilds0) as f64,
    );
    r.set(
        "sharded.rebuild_time_share",
        x.rebuild_write_ns.sum() / 1e9 / ph.elapsed_s,
    );
    r.set(
        "sharded.reshards",
        (store.total_splits() + store.total_merges() - reshards0) as f64,
    );
    for name in [
        "batch.apply_ns",
        "txn.begin_ns",
        "txn.commit_ns",
        "txn.conflict_ratio",
    ] {
        r.set(name, 0.0);
    }
    crate::durable::no_durability(&mut r);

    let snap = store.snapshot();
    failed += core_probe::probe(
        &snap,
        p.config().spec,
        probe_shard,
        &x.probe_queries,
        &mut r,
    );
    r.attempted += 2 * x.probe_queries.len() as u64;
    x.probe_queries = Vec::new();
    drop(snap);

    // The snapshot read call's own work, beyond routing and the shard.
    let read_self = tr.mean_ns(Name::SnapshotRead) - route - shard_lb;
    r.set("snapshot.read_self_ns", read_self);
    r.set(
        "trace.read_sum_ratio",
        (pin + read_self + route + shard_lb) / (plain_lookup_mean - clock_pair_ns()),
    );
    r.set(
        "trace.overhead_ratio",
        (ph.ops as f64 / ph.elapsed_s) / plain_ops_per_s,
    );
    r.param("trace_span_overhead_ns", format!("{:.1}", tr.overhead_ns()));
    r.failed = failed;
    (r, tr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_mixed() -> Params {
        Params {
            n: 20_000,
            shards: 8,
            ..Params::mixed_rw(true)
        }
    }

    #[test]
    fn check_counts_a_corrupted_answer() {
        for p in [
            Params {
                n: 20_000,
                ..Params::read_dram(true)
            },
            smoke_mixed(),
        ] {
            let col = p.dataset.generate::<u64>(p.n, 3).into_keys();
            let store = ShardedStore::build(p.config(), &col).unwrap();
            let g = Gen::new(3, TRACE_STREAM, p.mix, &col);
            let mut ph = run_plain(&store, &g, Budget::Ops(5_000));
            assert_eq!(check(&g, &ph.answers), 0, "{p:?}");
            // The reference never reads the store's answers, so one
            // corrupted slot is exactly one failure.
            ph.answers[4_000] ^= 1;
            assert_eq!(check(&g, &ph.answers), 1, "{p:?}");
        }
    }

    #[test]
    fn traced_answers_match_the_reference() {
        let p = smoke_mixed();
        let col = p.dataset.generate::<u64>(p.n, 5).into_keys();
        let store = ShardedStore::build(p.config(), &col).unwrap();
        let g = Gen::new(5, TRACE_STREAM, p.mix, &col);
        let mut tr = Tracer::new();
        let (ph, x) = run_traced(&store, &g, Budget::Ops(20_000), &mut tr, 1);
        assert_eq!(check(&g, &ph.answers), 0);
        assert!(x.lookups > 0 && !x.probe_queries.is_empty());
    }
}
