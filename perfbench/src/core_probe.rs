//! Core-layer metrics: a `DynCorrectedIndex` built with the store's spec
//! over one pinned shard's base keys, timed call by call on the queries the
//! traced run sent to that shard.
//!
//! The calls nest, so self times are differences of cumulative calls:
//! predict; predict + correct; predict + correct + local search.

use crate::report::Report;
use crate::trace::{Name, Tracer};
use algo_index::RangeIndex;
use shift_store::StoreSnapshot;
use shift_table::spec::IndexSpec;
use shift_table::{Correction, CorrectionLayer};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Probe shard `shard` of `snap` with `queries`; returns wrong answers.
pub fn probe(
    snap: &StoreSnapshot<u64>,
    spec: IndexSpec,
    shard: usize,
    queries: &[u64],
    report: &mut Report,
) -> u64 {
    let keys: Arc<[u64]> = Arc::from(snap.states()[shard].snapshot().keys());
    let t = Instant::now();
    let idx = spec
        .build_corrected(Arc::clone(&keys))
        .expect("a shard's base keys are sorted");
    let build_s = t.elapsed().as_secs_f64();
    report.set(
        "core.build_s_per_mkey",
        build_s / (keys.len().max(1) as f64 / 1e6),
    );
    report.param("core_probe_keys", keys.len());
    report.param("core_probe_queries", queries.len());

    let mut tr = Tracer::new();
    let mut failed = 0;
    for (i, &q) in queries.iter().enumerate() {
        tr.span(Name::CorePredict, i as u64, || {
            black_box(idx.predict_uncorrected(q))
        });
    }
    for (i, &q) in queries.iter().enumerate() {
        tr.span(Name::CorePredictCorrected, i as u64, || {
            black_box(idx.predict_corrected(q))
        });
    }
    for (i, &q) in queries.iter().enumerate() {
        let got = tr.span(Name::CoreLowerBound, i as u64, || idx.lower_bound(q));
        if got != keys.partition_point(|&k| k < q) {
            failed += 1;
        }
    }
    let predict = tr.mean_ns(Name::CorePredict);
    let corrected = tr.mean_ns(Name::CorePredictCorrected);
    let full = tr.mean_ns(Name::CoreLowerBound);
    report.set_sampled("learned_index.predict_ns", predict, Some(queries.len()));
    report.set_sampled("core.correct_ns", corrected - predict, Some(queries.len()));
    report.set_sampled("core.search_ns", full - corrected, Some(queries.len()));

    // Search-window widths after correction, exact for these queries.
    let mut windows: Vec<u64> = queries
        .iter()
        .map(|&q| {
            let pred = idx.predict_uncorrected(q);
            let hint = match idx.layer() {
                CorrectionLayer::Range(t) => t.correct(pred),
                CorrectionLayer::Midpoint(t) => t.correct(pred),
                CorrectionLayer::None => return 0,
            };
            hint.window.unwrap_or(0) as u64
        })
        .collect();
    let mean = windows.iter().sum::<u64>() as f64 / windows.len().max(1) as f64;
    let p99 = if windows.is_empty() {
        0.0
    } else {
        let rank = ((0.99 * windows.len() as f64).ceil() as usize).clamp(1, windows.len()) - 1;
        *windows.select_nth_unstable(rank).1 as f64
    };
    report.set_sampled("core.window_mean", mean, Some(windows.len()));
    report.set_percentile("core.window_p99", 0.99, p99, windows.len());

    // Batched lookups, with the kernel's wide-lane share over the same calls.
    let before = shift_table::stats::snapshot();
    let mut out = vec![0usize; shift_table::kernel::DEFAULT_BATCH_BLOCK];
    for (i, qs) in queries.chunks(out.len()).enumerate() {
        let os = &mut out[..qs.len()];
        tr.span(Name::CoreBatch, i as u64, || idx.lower_bound_batch(qs, os));
        for (&q, &p) in qs.iter().zip(os.iter()) {
            if p != keys.partition_point(|&k| k < q) {
                failed += 1;
            }
        }
    }
    let after = shift_table::stats::snapshot();
    let lanes = after.lanes - before.lanes;
    let wide = after.wide_lanes - before.wide_lanes;
    report.set(
        "core.batch_ns_per_key",
        tr.total_ns(Name::CoreBatch) / queries.len().max(1) as f64,
    );
    report.set(
        "core.wide_lane_fraction",
        if lanes == 0 {
            0.0
        } else {
            wide as f64 / lanes as f64
        },
    );
    failed
}
