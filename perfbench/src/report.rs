//! Metric names, the result line, the human-readable table and the run
//! record.

use std::fmt::Write as _;
use std::path::Path;

/// Metrics gated by the benchmark contract: reported by every workload with
/// tracing off (`BENCHMARK.json` `end_to_end`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ns", "ns"),
    ("op_p90_ns", "ns"),
    ("count_p50_ns", "ns"),
];

/// Metrics reported by the traced run (`BENCHMARK.json` `per_layer`). A
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("snapshot.pin_ns", "ns"),
    ("snapshot.read_self_ns", "ns"),
    ("router.route_ns", "ns"),
    ("shard.lower_bound_ns", "ns"),
    ("shard.count_of_ns", "ns"),
    ("shard.scan_ns", "ns"),
    ("shard.batch_ns_per_key", "ns"),
    ("learned_index.predict_ns", "ns"),
    ("core.correct_ns", "ns"),
    ("core.search_ns", "ns"),
    ("core.window_mean", "records"),
    ("core.window_p99", "records"),
    ("core.batch_ns_per_key", "ns"),
    ("core.wide_lane_fraction", "ratio"),
    ("core.build_s_per_mkey", "s/Mkey"),
    ("delta.net_below_ns", "ns"),
    ("delta.runs_mean", "count"),
    ("delta.entries_mean", "count"),
    ("sharded.write_ns", "ns"),
    ("sharded.rebuild_write_ns", "ns"),
    ("sharded.rebuilds", "count"),
    ("sharded.rebuild_time_share", "ratio"),
    ("sharded.reshards", "count"),
    ("batch.apply_ns", "ns"),
    ("txn.begin_ns", "ns"),
    ("txn.commit_ns", "ns"),
    ("txn.conflict_ratio", "ratio"),
    ("wal.records_per_sync", "records"),
    ("wal.syncs", "count"),
    ("wal.bytes_per_op", "B/op"),
    ("persist.checkpoints", "count"),
    ("persist.snapshot_bytes", "B"),
    ("persist.snapshot_bytes_reused", "B"),
    ("worker.checkpoint_ms_p50", "ms"),
    ("recovery.replayed_ops", "count"),
    ("recovery.mount_ms", "ms"),
    ("recovery.replay_ms", "ms"),
    ("recovery.retrain_ms", "ms"),
    ("trace.read_sum_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Workload-specific end-to-end metrics: printed in the table and stored in
/// the run record on the workloads that have the operation, but not part of
/// the result line (the contract requires every gated metric on every
/// workload, a ratio of failures reads 0 on a correct run, index bytes per
/// key read the same on every run of `read_dram`, and the p99 of all
/// operations follows disk stalls in `durable_ingest`: it moved 30% between
/// two sets of ten runs of one build, where the p90 moved under 1%).
pub const DETAIL: &[(&str, &str)] = &[
    ("op_p99_ns", "ns"),
    ("aux_bytes_per_key", "B/key"),
    ("lookup_p50_ns", "ns"),
    ("lookup_p99_ns", "ns"),
    ("count_p99_ns", "ns"),
    ("scan_p50_ns", "ns"),
    ("scan_p99_ns", "ns"),
    ("batch_ns_per_key", "ns"),
    ("write_p50_ns", "ns"),
    ("write_p99_ns", "ns"),
    ("reopen_s", "s"),
    ("disk_bytes_per_user_byte", "B/B"),
    ("failed_op_ratio", "ratio"),
];

/// One measured value with its sample count (`None` for single readings).
#[derive(Clone, Debug)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Option<usize>,
    /// For a percentile: samples strictly beyond it (at least ten are
    /// needed for the figure to be supported).
    pub beyond: Option<usize>,
}

/// Everything one invocation measured.
#[derive(Default)]
pub struct Report {
    pub values: Vec<Value>,
    pub attempted: u64,
    pub failed: u64,
    /// Workload parameters, as `key = value` pairs for the run record.
    pub params: Vec<(&'static str, String)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(DETAIL)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_sampled(name, value, None);
    }

    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        let unit = unit_of(name);
        self.values.retain(|v| v.name != name);
        self.values.push(Value {
            name,
            unit,
            value,
            samples,
            beyond: None,
        });
    }

    /// A `q`-quantile of `n` samples.
    pub fn set_percentile(&mut self, name: &'static str, q: f64, value: f64, n: usize) {
        self.set_sampled(name, value, Some(n));
        let beyond = crate::stats::beyond(n, q);
        if beyond < 10 {
            eprintln!("perfbench: {name} has only {beyond} samples beyond it");
        }
        self.values.last_mut().expect("just set").beyond = Some(beyond);
    }

    pub fn param(&mut self, key: &'static str, value: impl ToString) {
        self.params.push((key, value.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }

    /// The contract's last line: `correct`, `attempted`, `failed` and the
    /// `wanted` metrics.
    pub fn result_line(&self, wanted: &[(&str, &str)]) -> String {
        let mut m = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let v = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if i > 0 {
                m.push_str(", ");
            }
            write!(
                m,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
            .unwrap();
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }

    /// A table of every value, for people.
    pub fn table(&self, workload: &str) -> String {
        let mut t = format!("# {workload}\n");
        for (k, v) in &self.params {
            writeln!(t, "#   {k} = {v}").unwrap();
        }
        writeln!(t, "{:<30} {:>18} {:<8} samples", "metric", "value", "unit").unwrap();
        for v in &self.values {
            let samples = v.samples.map_or(String::from("-"), |n| n.to_string());
            writeln!(
                t,
                "{:<30} {:>18.4} {:<8} {samples}",
                v.name, v.value, v.unit
            )
            .unwrap();
        }
        writeln!(t, "attempted {} failed {}", self.attempted, self.failed).unwrap();
        t
    }

    /// The run record: git revision, host, parameters, seed, and every
    /// value with its unit and sample count.
    pub fn record(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut s = String::from("{\n");
        writeln!(s, "  \"workload\": \"{workload}\",").unwrap();
        writeln!(s, "  \"seed\": {seed},").unwrap();
        writeln!(s, "  \"trace\": {trace},").unwrap();
        writeln!(s, "  \"git_rev\": \"{}\",", esc(&git_rev())).unwrap();
        let host = host();
        writeln!(
            s,
            "  \"host\": {{\"nproc\": {}, \"l3\": \"{}\", \"cpu\": \"{}\"}},",
            host.0,
            esc(&host.1),
            esc(&host.2)
        )
        .unwrap();
        s.push_str("  \"params\": {");
        for (i, (k, v)) in self.params.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(s, "{sep}\"{k}\": \"{}\"", esc(v)).unwrap();
        }
        s.push_str("},\n  \"metrics\": [\n");
        for (i, v) in self.values.iter().enumerate() {
            let sep = if i + 1 == self.values.len() { "" } else { "," };
            let samples = v.samples.map_or(String::from("null"), |n| n.to_string());
            let beyond = v.beyond.map_or(String::from("null"), |n| n.to_string());
            writeln!(
                s,
                "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {samples}, \"beyond\": {beyond}}}{sep}",
                v.name,
                num(v.value),
                v.unit
            )
            .unwrap();
        }
        writeln!(
            s,
            "  ],\n  \"attempted\": {},\n  \"failed\": {}\n}}",
            self.attempted, self.failed
        )
        .unwrap();
        s
    }
}

/// A JSON number (non-finite values cannot be represented; they read 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The revision of the source tree, when it is a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `(cpus, L3 size, CPU model)` as the OS reports them.
pub fn host() -> (usize, String, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    (nproc, l3, cpu)
}

/// Write `contents` to `dir/file`, creating `dir`.
pub fn write_out(dir: &Path, file: &str, contents: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(file), contents)
}
