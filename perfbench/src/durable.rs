//! `durable_ingest`: two closed-loop clients writing to a durable store,
//! then a reopen.
//!
//! Every client owns the keys whose low two bits equal its id, so its own
//! inserts, deletes, batches and reads replay exactly on a private counted
//! multiset even while the other client writes. Transactions touch a shared
//! hot slice (low bits `11`) that no other operation touches; they are
//! replayed in commit-version order, which checks every value they read.

use crate::core_probe;
use crate::oracle::SortedOracle;
use crate::report::Report;
use crate::stats::{
    below, close_rounds, draw, in_range, median, mix64, round_quantile, round_rate, Mark, Rounds,
    Samples, ROUNDS,
};
use crate::trace::{clock_pair_ns, Name, Tracer};
use crate::Budget;
use algo_index::RangeIndex;
use shift_obs::MetricValue;
use shift_store::{
    DurabilityConfig, DurabilityStats, ShardedStore, StoreConfig, StoreError, SyncPolicy, Txn,
    WriteBatch,
};
use shift_table::spec::IndexSpec;
use sosd_data::SosdName;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

const CLIENTS: usize = 2;
/// Keys in the hot slice the clients' transactions share.
const HOT: usize = 32;
/// Writes and reads go to the top `1/RECENT` of the key range (recent keys
/// favoured, as in time-ordered ingest): about two of the 16 shards, so
/// incremental checkpoints rewrite only the shards that changed.
const RECENT: usize = 8;
/// Operations per `WriteBatch`.
const BATCH_OPS: usize = 8;
/// Attempts per transaction before a conflict counts as a failure.
const TXN_ATTEMPTS: u32 = 64;
/// Logged operations between background checkpoints (8× the default).
const CHECKPOINT_OPS: u64 = 65_536;
/// Open-and-seed repetitions whose median is `setup_s`.
const SETUPS: usize = 15;
/// Untimed writes before timing: the first seconds of a fresh durable store
/// run far slower while the file system settles (on a 2-vCPU VM, 2-second
/// runs measured half the rate of 10-second ones).
pub const WARM_SECONDS: f64 = 3.0;
const WARMUP_OPS: u64 = 50_000;
const PROBE_QUERIES: usize = 200_000;

/// 40% inserts, 10% deletes, 20% batches, 10% transactions, 20% counts.
const MIX: [u32; 5] = [400, 100, 200, 100, 200];

#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub dataset: SosdName,
    pub n: usize,
    pub shards: usize,
    pub spec: &'static str,
}

impl Params {
    pub fn durable_ingest(smoke: bool) -> Self {
        Self {
            dataset: SosdName::Face64,
            n: if smoke { 50_000 } else { 1_000_000 },
            shards: 16,
            spec: "im+r1",
        }
    }

    /// The default durability settings except the sync cadence and the
    /// checkpoint interval. With the defaults (`EveryN(64)`, a checkpoint
    /// every 8192 operations) throughput and tail latency on a 2-vCPU VM
    /// with a virtual disk followed the device: `fdatasync` latency swung
    /// run-to-run figures by 30%, and even at one sync per 1024 records the
    /// spread of ops/s over ten runs reached 27%. The WAL is still written
    /// for every commit and synced at each checkpoint rotation; checkpoints
    /// still run in the background worker while the clients write.
    fn config(&self) -> StoreConfig {
        StoreConfig::new(IndexSpec::parse(self.spec).expect("valid spec"))
            .shards(self.shards)
            .auto_rebuild(false)
            .background_maintenance(true)
            .durability(
                DurabilityConfig::default()
                    .sync(SyncPolicy::Os)
                    .checkpoint_ops(CHECKPOINT_OPS),
            )
    }

    fn record(&self, r: &mut Report) {
        let c = self.config();
        let d = c.durability.expect("set above");
        r.param("dataset", self.dataset.as_str());
        r.param("n", self.n);
        r.param("spec", self.spec);
        r.param("shards", self.shards);
        r.param(
            "mix_per_mille",
            "insert 400, delete 100, batch8 200, txn 100, count_of 200",
        );
        r.param("sync_policy", format!("{:?}", d.sync));
        r.param("group_commit", d.group_commit);
        r.param("checkpoint_ops", d.checkpoint_ops);
        r.param("client_threads", CLIENTS);
        r.param("worker_threads", 1);
        r.param("auto_rebuild", c.auto_rebuild);
        r.param("loop", "closed");
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64),
    Delete(u64),
    Batch([(bool, u64); BATCH_OPS]),
    Txn(u64, u64),
    Count(u64),
}

const KINDS: usize = 5;

impl Op {
    fn kind(&self) -> usize {
        match self {
            Op::Insert(_) => 0,
            Op::Delete(_) => 1,
            Op::Batch(_) => 2,
            Op::Txn(..) => 3,
            Op::Count(_) => 4,
        }
    }
}

/// One client's operation generator. Deletes and reads pick among keys the
/// client inserted earlier or base keys it owns, so the generator carries
/// the list of its inserts; a run and its check replay it identically.
struct Gen<'a> {
    seed: u64,
    client: u64,
    col: &'a [u64],
    hot: &'a [u64],
    inserted: Vec<u64>,
}

impl<'a> Gen<'a> {
    fn new(seed: u64, client: usize, col: &'a [u64], hot: &'a [u64]) -> Self {
        Self {
            seed,
            client: client as u64,
            col,
            hot,
            inserted: Vec::new(),
        }
    }

    /// First base position of the recent range the clients write to.
    fn recent(&self) -> usize {
        self.col.len() - self.col.len() / RECENT
    }

    fn new_key(&mut self, h: u64) -> u64 {
        let lo = self.col[self.recent()];
        let k = (in_range(h, lo, self.col[self.col.len() - 1]) & !3) | self.client;
        self.inserted.push(k);
        k
    }

    fn existing_key(&self, h: u64) -> u64 {
        if h & 1 == 0 && !self.inserted.is_empty() {
            return self.inserted[below(h >> 1, self.inserted.len() as u64) as usize];
        }
        let from = self.recent();
        let p = from + below(h >> 1, (self.col.len() - from) as u64) as usize;
        self.col[p..]
            .iter()
            .take(64)
            .find(|&&k| k & 3 == self.client)
            .copied()
            // No owned base key nearby: a key the client never wrote (the
            // read or delete still has an exact expected answer).
            .unwrap_or((self.col[p] & !3) | self.client)
    }

    fn op(&mut self, i: u64) -> Op {
        let stream = 10 + self.client;
        let h = draw(self.seed, stream, i);
        let h2 = draw(self.seed, stream ^ 0xA5A5, i);
        let mut r = (h % 1000) as u32;
        let mut kind = 0;
        while r >= MIX[kind] {
            r -= MIX[kind];
            kind += 1;
        }
        match kind {
            0 => Op::Insert(self.new_key(h2)),
            1 => Op::Delete(self.existing_key(h2)),
            2 => {
                let mut ops = [(false, 0); BATCH_OPS];
                for (j, slot) in ops.iter_mut().enumerate() {
                    let hj = mix64(h2 ^ j as u64);
                    *slot = if hj & 1 == 1 {
                        (true, self.new_key(hj >> 1))
                    } else {
                        (false, self.existing_key(hj >> 1))
                    };
                }
                Op::Batch(ops)
            }
            3 => {
                let a = below(h2, HOT as u64) as usize;
                let b = (a + 1 + below(h2 >> 7 | 1, HOT as u64 - 1) as usize) % HOT;
                Op::Txn(self.hot[a], self.hot[b])
            }
            _ => Op::Count(self.existing_key(h2)),
        }
    }
}

/// A committed transaction: its commit version and the counts it read.
#[derive(Clone, Copy, Debug)]
struct TxnRec {
    cv: u64,
    a: u64,
    b: u64,
    ca: usize,
    cb: usize,
}

/// Flip a hot key: delete it when present, insert it when absent.
fn toggle(t: &mut Txn<'_, u64>, k: u64, count: usize) {
    if count > 0 {
        t.delete(k);
    } else {
        t.insert(k);
    }
}

struct ClientOut {
    /// Timed operations (the warm-up's are only in `answers`).
    ops: u64,
    elapsed_s: f64,
    marks: Vec<Mark>,
    answers: Vec<u32>,
    lat: [Samples; KINDS],
    txns: Vec<TxnRec>,
    tracer: Option<Tracer>,
    commit_attempts: u64,
    conflicts: u64,
    delta_runs: u64,
    delta_entries: u64,
    write_ns: Samples,
    rebuild_write_ns: Samples,
    probe_queries: Vec<u64>,
}

fn batch_answer(inserted: usize, deleted: usize) -> u64 {
    ((inserted as u64) << 16) | deleted as u64
}

/// One client's closed loop. With a tracer, each operation is decomposed
/// into spans around the public calls it makes.
fn client_loop(
    store: &ShardedStore<u64>,
    mut g: Gen,
    warm: Budget,
    budget: Budget,
    trace: bool,
    probe_shard: usize,
) -> ClientOut {
    let cap = match budget {
        Budget::Ops(n) => n as usize,
        Budget::Seconds(s) => (s * 300_000.0) as usize,
    };
    let mut o = ClientOut {
        ops: 0,
        elapsed_s: 0.0,
        marks: Vec::with_capacity(ROUNDS),
        answers: Vec::with_capacity(cap),
        lat: std::array::from_fn(|k| {
            Samples::with_capacity(if trace {
                0
            } else {
                cap * MIX[k] as usize / 900
            })
        }),
        txns: Vec::new(),
        tracer: None,
        commit_attempts: 0,
        conflicts: 0,
        delta_runs: 0,
        delta_entries: 0,
        write_ns: Samples::default(),
        rebuild_write_ns: Samples::default(),
        probe_queries: Vec::new(),
    };
    // Warm-up: the first operations of the same trace, untimed and
    // untraced (their answers are checked like the rest).
    let mut i = 0u64;
    let mut timed_from = None;
    let warm_start = Instant::now();
    let mut start = warm_start;
    loop {
        if timed_from.is_none() && warm.done(i, warm_start, Instant::now()) {
            timed_from = Some(i);
            if trace {
                o.tracer = Some(Tracer::new());
            }
            start = Instant::now();
        }
        let timed = timed_from.is_some();
        let op = g.op(i);
        let t0 = Instant::now();
        let ans = match (&mut o.tracer, op) {
            (None, Op::Insert(k)) => store.insert(k).map_or(u64::MAX, |()| 1),
            (None, Op::Delete(k)) => store.delete(k).map_or(u64::MAX, |b| b as u64),
            (None, Op::Batch(ops)) => store
                .apply(&batch_of(&ops))
                .map_or(u64::MAX, |r| batch_answer(r.inserted, r.deleted)),
            (None, Op::Txn(a, b)) => {
                let r = store.commit_with_retries(TXN_ATTEMPTS, |t| {
                    let (ca, cb) = (t.get(a), t.get(b));
                    toggle(t, a, ca);
                    toggle(t, b, cb);
                    Ok((ca, cb))
                });
                match r {
                    Ok(((ca, cb), rc)) => {
                        o.txns.push(TxnRec {
                            cv: rc.commit_version,
                            a,
                            b,
                            ca,
                            cb,
                        });
                        1
                    }
                    Err(_) => u64::MAX,
                }
            }
            (None, Op::Count(k)) => store.count_of(k) as u64,
            (Some(tr), Op::Insert(k) | Op::Delete(k)) => {
                let before = store.total_rebuilds();
                let ans = tr.span(Name::ShardedWrite, i, || match op {
                    Op::Insert(_) => store.insert(k).map_or(u64::MAX, |()| 1),
                    _ => store.delete(k).map_or(u64::MAX, |b| b as u64),
                });
                if store.total_rebuilds() > before {
                    o.rebuild_write_ns.push(tr.last_ns());
                } else {
                    o.write_ns.push(tr.last_ns());
                }
                ans
            }
            (Some(tr), Op::Batch(ops)) => {
                let batch = batch_of(&ops);
                tr.span(Name::BatchApply, i, || store.apply(&batch))
                    .map_or(u64::MAX, |r| batch_answer(r.inserted, r.deleted))
            }
            (Some(tr), Op::Txn(a, b)) => {
                tr.enter(Name::OpTxn, i);
                let mut result = Err(StoreError::TxnConflict {
                    point: None,
                    range: None,
                });
                for _ in 0..TXN_ATTEMPTS {
                    let mut t = tr.span(Name::TxnBegin, i, || store.begin());
                    let ca = tr.span(Name::TxnGet, i, || t.get(a));
                    let cb = tr.span(Name::TxnGet, i, || t.get(b));
                    toggle(&mut t, a, ca);
                    toggle(&mut t, b, cb);
                    o.commit_attempts += 1;
                    match tr.span(Name::TxnCommit, i, || t.commit()) {
                        Ok(rc) => {
                            result = Ok(TxnRec {
                                cv: rc.commit_version,
                                a,
                                b,
                                ca,
                                cb,
                            });
                            break;
                        }
                        Err(StoreError::TxnConflict { .. }) => o.conflicts += 1,
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                tr.exit();
                match result {
                    Ok(rec) => {
                        o.txns.push(rec);
                        1
                    }
                    Err(_) => u64::MAX,
                }
            }
            (Some(tr), Op::Count(k)) if i % 2 == 1 => {
                tr.enter(Name::OpCount, i);
                let snap = tr.span(Name::SnapshotPin, i, || store.snapshot());
                let c = tr.span(Name::SnapshotRead, i, || snap.count_of(k));
                tr.exit();
                c as u64
            }
            (Some(tr), Op::Count(k)) => {
                tr.enter(Name::OpCount, i);
                let snap = tr.span(Name::SnapshotPin, i, || store.snapshot());
                let s = tr.span(Name::RouterRoute, i, || snap.table().router().shard_of(k));
                let state = &snap.states()[s];
                let c = tr.span(Name::ShardCountOf, i, || state.count_of(k));
                tr.exit();
                o.delta_runs += state.delta().run_count() as u64;
                o.delta_entries += state.delta().entry_count() as u64;
                if s == probe_shard && o.probe_queries.len() < PROBE_QUERIES {
                    o.probe_queries.push(k);
                }
                c as u64
            }
        };
        let t1 = Instant::now();
        if timed && !trace {
            o.lat[op.kind()].push((t1 - t0).as_nanos() as u64);
        }
        o.answers.push(ans as u32);
        i += 1;
        if let Some(i0) = timed_from {
            let secs = (t1 - start).as_secs_f64();
            let round = budget.round(i - i0, start, t1);
            if round > o.marks.len() {
                close_rounds(&mut o.marks, round, i - i0, secs, &o.lat);
            }
            if budget.done(i - i0, start, t1) {
                o.ops = i - i0;
                o.elapsed_s = secs;
                close_rounds(&mut o.marks, ROUNDS, o.ops, secs, &o.lat);
                return o;
            }
        }
    }
}

fn batch_of(ops: &[(bool, u64)]) -> WriteBatch<u64> {
    let mut b = WriteBatch::with_capacity(ops.len());
    for &(insert, k) in ops {
        if insert {
            b.insert(k);
        } else {
            b.delete(k);
        }
    }
    b
}

/// Run both clients through the warm-up and then until the budget ends;
/// returns their outputs and the longest client's timed wall time.
fn run_clients(
    store: &ShardedStore<u64>,
    seed: u64,
    col: &[u64],
    hot: &[u64],
    (warm, budget): (Budget, Budget),
    trace: bool,
    probe_shard: usize,
) -> (Vec<ClientOut>, f64) {
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let g = Gen::new(seed, c, col, hot);
                s.spawn(move || client_loop(store, g, warm, budget, trace, probe_shard))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = outs.iter().map(|o| o.elapsed_s).fold(0.0, f64::max);
    (outs, wall)
}

/// Counts every client's writes leave behind, for the post-reopen check.
struct Expected {
    counts: HashMap<u64, usize>,
    net: i64,
}

/// Replay each client's trace on its own counted multiset, then the
/// transactions in commit order; returns the failures and the expected
/// final counts of every key the run wrote.
fn check(seed: u64, col: &[u64], hot: &[u64], outs: &[ClientOut]) -> (u64, Expected) {
    let base = SortedOracle::new(col);
    let mut failed = 0;
    let mut exp = Expected {
        counts: HashMap::new(),
        net: 0,
    };
    for (c, out) in outs.iter().enumerate() {
        let mut g = Gen::new(seed, c, col, hot);
        let mut net: BTreeMap<u64, i64> = BTreeMap::new();
        let count = |net: &BTreeMap<u64, i64>, k: u64| {
            base.count_of(k) as i64 + net.get(&k).copied().unwrap_or(0)
        };
        let delete = |net: &mut BTreeMap<u64, i64>, k: u64| {
            let present = count(net, k) > 0;
            if present {
                *net.entry(k).or_default() -= 1;
            }
            present
        };
        for (i, &got) in out.answers.iter().enumerate() {
            let want = match g.op(i as u64) {
                Op::Insert(k) => {
                    *net.entry(k).or_default() += 1;
                    1
                }
                Op::Delete(k) => delete(&mut net, k) as u64,
                Op::Batch(ops) => {
                    let (mut ins, mut del) = (0, 0);
                    for (insert, k) in ops {
                        if insert {
                            *net.entry(k).or_default() += 1;
                            ins += 1;
                        } else {
                            del += delete(&mut net, k) as usize;
                        }
                    }
                    batch_answer(ins, del)
                }
                Op::Txn(..) => 1,
                Op::Count(k) => count(&net, k) as u64,
            };
            if want as u32 != got {
                failed += 1;
            }
        }
        for (&k, &d) in &net {
            exp.counts.insert(k, (base.count_of(k) as i64 + d) as usize);
            exp.net += d;
        }
    }
    let mut txns: Vec<TxnRec> = outs.iter().flat_map(|o| o.txns.iter().copied()).collect();
    txns.sort_by_key(|t| t.cv);
    let mut hot_counts: HashMap<u64, usize> = hot.iter().map(|&k| (k, base.count_of(k))).collect();
    for t in &txns {
        if hot_counts[&t.a] != t.ca || hot_counts[&t.b] != t.cb {
            failed += 1;
        }
        for (k, seen) in [(t.a, t.ca), (t.b, t.cb)] {
            let c = hot_counts.get_mut(&k).expect("hot key");
            if seen > 0 {
                *c = c.saturating_sub(1);
            } else {
                *c += 1;
            }
        }
    }
    for &k in hot {
        let c = hot_counts[&k];
        exp.net += c as i64 - base.count_of(k) as i64;
        exp.counts.insert(k, c);
    }
    (failed, exp)
}

/// Keys whose count after reopen differs from the replay, plus one if the
/// store's length differs.
fn check_reopened(store: &ShardedStore<u64>, n: usize, exp: &Expected) -> u64 {
    let snap = store.snapshot();
    let mut failed = exp
        .counts
        .iter()
        .filter(|(&k, &c)| snap.count_of(k) != c)
        .count() as u64;
    if snap.len() as i64 != n as i64 + exp.net {
        failed += 1;
    }
    failed
}

/// A scratch directory for one run's stores, inside the working directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(seed: u64) -> Self {
        let dir = PathBuf::from(".perfbench")
            .join("tmp")
            .join(format!("durable-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
        Self(dir)
    }

    fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open_seeded(p: &Params, dir: &Path, col: &[u64]) -> (ShardedStore<u64>, f64) {
    let t = Instant::now();
    let store = ShardedStore::open_seeded(dir, p.config(), col).expect("seed a fresh store");
    (store, t.elapsed().as_secs_f64())
}

/// Seed [`SETUPS`] fresh directories and keep the last store.
fn setup(p: &Params, tmp: &TempDir, tag: &str, col: &[u64]) -> (ShardedStore<u64>, PathBuf, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        if let Some((store, dir)) = last.take() {
            drop(store);
            let _ = std::fs::remove_dir_all::<PathBuf>(dir);
        }
        let dir = tmp.sub(&format!("{tag}-{i}"));
        let (store, t) = open_seeded(p, &dir, col);
        times.push(t);
        last = Some((store, dir));
    }
    let (store, dir) = last.expect("at least one setup");
    (store, dir, median(&times))
}

fn warm_up(store: &ShardedStore<u64>, col: &[u64], seed: u64) {
    for i in 0..WARMUP_OPS {
        std::hint::black_box(
            store.count_of(col[below(draw(seed, 98, i), col.len() as u64) as usize]),
        );
    }
}

/// Drop the store, reopen it and answer one read; returns the reopened
/// store and the time to the first answer.
fn reopen(
    p: &Params,
    store: ShardedStore<u64>,
    dir: &Path,
    col: &[u64],
) -> (ShardedStore<u64>, f64) {
    drop(store);
    let t = Instant::now();
    let store = ShardedStore::open(dir, p.config()).expect("reopen the durable store");
    std::hint::black_box(store.count_of(col[col.len() / 2]));
    (store, t.elapsed().as_secs_f64())
}

fn stats(store: &ShardedStore<u64>) -> DurabilityStats {
    store.durability_stats().expect("a durable store")
}

fn hot_slice(col: &[u64]) -> Vec<u64> {
    let start = col[col.len() - col.len() / (2 * RECENT)] & !3;
    (0..HOT as u64).map(|j| start + 4 * j + 3).collect()
}

/// The untraced run: every end-to-end metric.
pub fn run(p: &Params, seed: u64, budget: (Budget, Budget)) -> Report {
    let mut r = Report::default();
    p.record(&mut r);
    let col = crate::read::generate(p.dataset, p.n, &mut r);
    let hot = hot_slice(&col);
    let tmp = TempDir::new(seed);
    let (store, dir, setup_s) = setup(p, &tmp, "run", &col);
    r.set_sampled("setup_s", setup_s, Some(SETUPS));
    warm_up(&store, &col, seed);
    let s0 = stats(&store);
    let (mut outs, _) = run_clients(&store, seed, &col, &hot, budget, false, usize::MAX);
    let s1 = stats(&store);
    let aux = crate::aux_bytes_per_key(&store);
    let (store, reopen_s) = reopen(p, store, &dir, &col);
    let (mut failed, exp) = check(seed, &col, &hot, &outs);
    failed += check_reopened(&store, p.n, &exp);
    drop(store);

    let ops: u64 = outs.iter().map(|o| o.ops).sum();
    r.attempted = outs.iter().map(|o| o.answers.len() as u64).sum();
    r.failed = failed;
    // Gated figures: medians over rounds (sample counts are per round).
    let rounds: Vec<Rounds> = outs
        .iter()
        .map(|o| Rounds {
            marks: &o.marks,
            lat: &o.lat,
        })
        .collect();
    r.set_sampled("ops_per_s", round_rate(&rounds), Some(ops as usize));
    let all: Vec<usize> = (0..KINDS).collect();
    let (p50, n) = round_quantile(&rounds, &all, 0.5);
    r.set_percentile("op_p50_ns", 0.5, p50, n);
    let (p90, n) = round_quantile(&rounds, &all, 0.9);
    r.set_percentile("op_p90_ns", 0.9, p90, n);
    let (p50, n) = round_quantile(&rounds, &[4], 0.5);
    r.set_percentile("count_p50_ns", 0.5, p50, n);
    drop(rounds);
    // Detail figures: over the whole run.
    let mut lat: [Samples; KINDS] = Default::default();
    for o in &mut outs {
        for (all, s) in lat.iter_mut().zip(o.lat.iter()) {
            all.extend(s);
        }
    }
    let mut all_ops = Samples::default();
    for s in &lat {
        all_ops.extend(s);
    }
    let n = all_ops.len();
    r.set_percentile("op_p99_ns", 0.99, all_ops.quantile(0.99), n);
    let [insert, delete, batch, txn, count] = &mut lat;
    let n = count.len();
    r.set_percentile("count_p99_ns", 0.99, count.quantile(0.99), n);
    r.set("aux_bytes_per_key", aux);
    let mut writes = Samples::default();
    for s in [&*insert, &*delete, &*batch, &*txn] {
        writes.extend(s);
    }
    let n = writes.len();
    r.set_percentile("write_p50_ns", 0.5, writes.quantile(0.5), n);
    r.set_percentile("write_p99_ns", 0.99, writes.quantile(0.99), n);
    r.set("reopen_s", reopen_s);
    let written = (s1.wal_bytes - s0.wal_bytes) + (s1.snapshot_bytes - s0.snapshot_bytes);
    let user = 8 * (s1.wal_ops - s0.wal_ops).max(1);
    r.set("disk_bytes_per_user_byte", written as f64 / user as f64);
    r.set("failed_op_ratio", failed as f64 / r.attempted.max(1) as f64);
    r
}

/// Per-layer metrics of the WAL, checkpoints, the worker and recovery read
/// 0 on the in-memory workloads, where those layers do no work.
pub fn no_durability(r: &mut Report) {
    for name in [
        "wal.records_per_sync",
        "wal.syncs",
        "wal.bytes_per_op",
        "persist.checkpoints",
        "persist.snapshot_bytes",
        "persist.snapshot_bytes_reused",
        "worker.checkpoint_ms_p50",
        "recovery.replayed_ops",
        "recovery.mount_ms",
        "recovery.replay_ms",
        "recovery.retrain_ms",
    ] {
        r.set(name, 0.0);
    }
}

fn checkpoint_ms_p50(store: &ShardedStore<u64>) -> f64 {
    store
        .metrics()
        .metrics
        .iter()
        .find(|m| m.name == "store_checkpoint_duration_ns")
        .and_then(|m| match &m.value {
            MetricValue::Histogram(h) => Some(h.quantile(0.5) as f64 / 1e6),
            _ => None,
        })
        .unwrap_or(0.0)
}

/// The traced run: an untraced phase for reference, a traced phase on a
/// fresh store (same traces), the reopen of the traced store, then the
/// core probe on the reopened store.
pub fn run_traced_report(p: &Params, seed: u64, budget: (Budget, Budget)) -> (Report, Vec<Tracer>) {
    let mut r = Report::default();
    p.record(&mut r);
    let col = crate::read::generate(p.dataset, p.n, &mut r);
    let hot = hot_slice(&col);
    let tmp = TempDir::new(seed);

    let (store, _) = open_seeded(p, &tmp.sub("plain"), &col);
    warm_up(&store, &col, seed);
    let (plain, plain_wall) = run_clients(&store, seed, &col, &hot, budget, false, usize::MAX);
    let mut failed = check(seed, &col, &hot, &plain).0;
    drop(store);
    let plain_ops: u64 = plain.iter().map(|o| o.ops).sum();
    r.attempted = plain.iter().map(|o| o.answers.len() as u64).sum();
    let mut plain_count = Samples::default();
    for o in &plain {
        plain_count.extend(&o.lat[4]);
    }
    drop(plain);

    let dir = tmp.sub("traced");
    let (store, _) = open_seeded(p, &dir, &col);
    warm_up(&store, &col, seed);
    let mut g = Gen::new(seed, 0, &col, &hot);
    let probe_shard = crate::busiest_shard(
        &store,
        (0..10_000).filter_map(|i| match g.op(i) {
            Op::Count(k) => Some(k),
            _ => None,
        }),
    );
    let s0 = stats(&store);
    let rebuilds0 = store.total_rebuilds();
    let reshards0 = store.total_splits() + store.total_merges();
    let (mut outs, wall) = run_clients(&store, seed, &col, &hot, budget, true, probe_shard);
    let s1 = stats(&store);
    r.set(
        "sharded.rebuilds",
        (store.total_rebuilds() - rebuilds0) as f64,
    );
    r.set(
        "sharded.reshards",
        (store.total_splits() + store.total_merges() - reshards0) as f64,
    );
    r.set("worker.checkpoint_ms_p50", checkpoint_ms_p50(&store));
    let (store, _) = reopen(p, store, &dir, &col);
    let (f, exp) = check(seed, &col, &hot, &outs);
    failed += f + check_reopened(&store, p.n, &exp);
    let ops: u64 = outs.iter().map(|o| o.ops).sum();
    r.attempted += outs.iter().map(|o| o.answers.len() as u64).sum::<u64>();

    let tracers: Vec<Tracer> = outs
        .iter_mut()
        .map(|o| o.tracer.take().expect("traced"))
        .collect();
    let mut tr = Tracer::new();
    for t in &tracers {
        tr.absorb(t);
    }
    let (mut write_ns, mut rebuild_write_ns) = (Samples::default(), Samples::default());
    let (mut attempts, mut conflicts, mut runs, mut entries) = (0, 0, 0, 0);
    let mut probe_queries = Vec::new();
    for o in &outs {
        write_ns.extend(&o.write_ns);
        rebuild_write_ns.extend(&o.rebuild_write_ns);
        attempts += o.commit_attempts;
        conflicts += o.conflicts;
        runs += o.delta_runs;
        entries += o.delta_entries;
        probe_queries.extend_from_slice(&o.probe_queries);
    }
    let oh = tr.overhead_ns();
    let pin = tr.mean_ns(Name::SnapshotPin);
    let route = tr.mean_ns(Name::RouterRoute);
    let shard_count = tr.mean_ns(Name::ShardCountOf);
    let counts = tr.agg(Name::ShardCountOf).count.max(1) as f64;
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
    r.set("shard.count_of_ns", shard_count);
    for name in [
        "shard.lower_bound_ns",
        "shard.scan_ns",
        "shard.batch_ns_per_key",
        "delta.net_below_ns",
    ] {
        r.set(name, 0.0);
    }
    r.set("delta.runs_mean", runs as f64 / counts);
    r.set("delta.entries_mean", entries as f64 / counts);
    r.set_sampled(
        "sharded.write_ns",
        (write_ns.mean() - oh).max(0.0),
        Some(write_ns.len()),
    );
    r.set_sampled(
        "sharded.rebuild_write_ns",
        (rebuild_write_ns.mean() - oh).max(0.0),
        Some(rebuild_write_ns.len()),
    );
    r.set(
        "sharded.rebuild_time_share",
        rebuild_write_ns.sum() / 1e9 / (wall * CLIENTS as f64),
    );
    r.set_sampled(
        "batch.apply_ns",
        tr.mean_ns(Name::BatchApply),
        Some(tr.agg(Name::BatchApply).count as usize),
    );
    r.set_sampled(
        "txn.begin_ns",
        tr.mean_ns(Name::TxnBegin),
        Some(tr.agg(Name::TxnBegin).count as usize),
    );
    r.set_sampled(
        "txn.commit_ns",
        tr.mean_ns(Name::TxnCommit),
        Some(attempts as usize),
    );
    r.set(
        "txn.conflict_ratio",
        conflicts as f64 / attempts.max(1) as f64,
    );

    let syncs = s1.wal_syncs - s0.wal_syncs;
    r.set("wal.syncs", syncs as f64);
    r.set(
        "wal.records_per_sync",
        (s1.wal_records - s0.wal_records) as f64 / syncs.max(1) as f64,
    );
    r.set(
        "wal.bytes_per_op",
        (s1.wal_bytes - s0.wal_bytes) as f64 / (s1.wal_ops - s0.wal_ops).max(1) as f64,
    );
    r.set(
        "persist.checkpoints",
        (s1.checkpoints - s0.checkpoints) as f64,
    );
    r.set(
        "persist.snapshot_bytes",
        (s1.snapshot_bytes - s0.snapshot_bytes) as f64,
    );
    r.set(
        "persist.snapshot_bytes_reused",
        (s1.snapshot_bytes_reused - s0.snapshot_bytes_reused) as f64,
    );
    r.set(
        "recovery.replayed_ops",
        stats(&store).replayed_records as f64,
    );
    let b = store.open_breakdown().expect("a reopened store");
    r.set("recovery.mount_ms", b.mount.as_secs_f64() * 1e3);
    r.set("recovery.replay_ms", b.replay.as_secs_f64() * 1e3);
    r.set("recovery.retrain_ms", b.retrain.as_secs_f64() * 1e3);

    let snap = store.snapshot();
    let shard = probe_shard.min(snap.shard_count() - 1);
    failed += core_probe::probe(&snap, p.config().spec, shard, &probe_queries, &mut r);
    r.attempted += 2 * probe_queries.len() as u64;
    drop(snap);
    drop(store);

    let read_self = tr.mean_ns(Name::SnapshotRead) - route - shard_count;
    r.set("snapshot.read_self_ns", read_self);
    r.set(
        "trace.read_sum_ratio",
        (pin + read_self + route + shard_count) / (plain_count.mean() - clock_pair_ns()),
    );
    r.set(
        "trace.overhead_ratio",
        (ops as f64 / wall) / (plain_ops as f64 / plain_wall),
    );
    r.param("trace_span_overhead_ns", format!("{oh:.1}"));
    r.failed = failed;
    (r, tracers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_answers_match_the_replay() {
        let p = Params {
            n: 20_000,
            shards: 4,
            ..Params::durable_ingest(true)
        };
        let col = p.dataset.generate::<u64>(p.n, 9).into_keys();
        let hot = hot_slice(&col);
        let tmp = TempDir::new(9_000 + std::process::id() as u64);
        let (store, _) = open_seeded(&p, &tmp.sub("t"), &col);
        let (mut outs, _) = run_clients(
            &store,
            9,
            &col,
            &hot,
            (Budget::Ops(500), Budget::Ops(3_000)),
            false,
            0,
        );
        let (store, _) = reopen(&p, store, &tmp.sub("t"), &col);
        let (failed, exp) = check(9, &col, &hot, &outs);
        assert_eq!(failed, 0);
        assert_eq!(check_reopened(&store, p.n, &exp), 0);
        assert!(outs.iter().all(|o| !o.txns.is_empty()));
        outs[0].answers[100] ^= 1;
        assert_eq!(check(9, &col, &hot, &outs).0, 1);
    }
}
