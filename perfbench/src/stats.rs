//! Deterministic input generation and order statistics.

/// SplitMix64 finaliser: a stateless, well-mixed hash of one word.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th draw of stream `stream` under `seed`. Inputs are a pure
/// function of `(seed, stream, i)`, so a run and its check regenerate the
/// same operations without storing them.
#[inline]
pub fn draw(seed: u64, stream: u64, i: u64) -> u64 {
    mix64(mix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)) ^ i)
}

/// Map a hash onto `0..n` (multiply-shift, no modulo bias worth naming).
#[inline]
pub fn below(h: u64, n: u64) -> u64 {
    ((h as u128 * n as u128) >> 64) as u64
}

/// Map a hash onto `lo..=hi`.
#[inline]
pub fn in_range(h: u64, lo: u64, hi: u64) -> u64 {
    lo + below(h, hi - lo + 1)
}

/// Fold one word into a running answer digest.
#[inline]
pub fn fold(acc: u64, x: u64) -> u64 {
    mix64(acc ^ x)
}

/// Latency samples of one operation type, in nanoseconds.
#[derive(Default, Clone)]
pub struct Samples {
    ns: Vec<u32>,
}

impl Samples {
    /// Pre-size the buffer so the timed loop does not reallocate.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            ns: Vec::with_capacity(n),
        }
    }

    #[inline]
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns.min(u32::MAX as u64) as u32);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    pub fn mean(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.sum() / self.ns.len() as f64
    }

    pub fn sum(&self) -> f64 {
        self.ns.iter().fold(0.0, |acc, &x| acc + x as f64)
    }

    /// Nearest-rank quantile, or 0 without samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let n = self.ns.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        let (_, v, _) = self.ns.select_nth_unstable(rank);
        *v as f64
    }
}

/// Rounds a timed phase is cut into: the gated figures are medians over
/// rounds, so a burst of interference from outside the program spoils one
/// round, not the run.
pub const ROUNDS: usize = 5;

/// Where one round ended: operations done, seconds since the phase
/// started, and the length of every latency buffer.
#[derive(Clone, Debug)]
pub struct Mark {
    pub ops: u64,
    pub secs: f64,
    pub lens: Vec<usize>,
}

/// One client's round ends, with its latency buffers (one per op kind).
pub struct Rounds<'a> {
    pub marks: &'a [Mark],
    pub lat: &'a [Samples],
}

/// Close rounds until `marks` holds `upto` of them.
pub fn close_rounds(marks: &mut Vec<Mark>, upto: usize, ops: u64, secs: f64, lat: &[Samples]) {
    while marks.len() < upto {
        marks.push(Mark {
            ops,
            secs,
            lens: lat.iter().map(Samples::len).collect(),
        });
    }
}

fn bounds(marks: &[Mark], r: usize) -> (Option<&Mark>, &Mark) {
    (r.checked_sub(1).map(|p| &marks[p]), &marks[r])
}

/// Median over rounds of the `q`-quantile of the samples of `kinds`, pooled
/// across clients; also returns the samples per round (the smallest).
pub fn round_quantile(clients: &[Rounds], kinds: &[usize], q: f64) -> (f64, usize) {
    let mut per_round = Vec::with_capacity(ROUNDS);
    let mut fewest = usize::MAX;
    for r in 0..ROUNDS {
        let mut pooled = Samples::default();
        for c in clients {
            let (prev, end) = bounds(c.marks, r);
            for &k in kinds {
                let from = prev.map_or(0, |m| m.lens[k]);
                pooled.ns.extend_from_slice(&c.lat[k].ns[from..end.lens[k]]);
            }
        }
        fewest = fewest.min(pooled.len());
        per_round.push(pooled.quantile(q));
    }
    (median(&per_round), fewest)
}

/// Median over rounds of the operations completed per second, summed over
/// clients.
pub fn round_rate(clients: &[Rounds]) -> f64 {
    let per_round: Vec<f64> = (0..ROUNDS)
        .map(|r| {
            clients
                .iter()
                .map(|c| {
                    let (prev, end) = bounds(c.marks, r);
                    let ops = end.ops - prev.map_or(0, |m| m.ops);
                    let secs = end.secs - prev.map_or(0.0, |m| m.secs);
                    ops as f64 / secs.max(1e-9)
                })
                .sum()
        })
        .collect();
    median(&per_round)
}

/// Samples strictly beyond the `q`-quantile of `n` samples: a percentile is
/// only reported as supported when at least ten samples lie past it.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Median of a small set of measurements.
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s = Samples::default();
        for x in 1..=100 {
            s.push(x);
        }
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn round_figures_are_medians_over_rounds() {
        let mut lat = vec![Samples::default()];
        let mut marks = Vec::new();
        for r in 0..ROUNDS as u64 {
            for _ in 0..10 {
                lat[0].push(r * 100);
            }
            close_rounds(
                &mut marks,
                r as usize + 1,
                10 * (r + 1),
                (r + 1) as f64,
                &lat,
            );
        }
        let c = [Rounds {
            marks: &marks,
            lat: &lat,
        }];
        assert_eq!(round_quantile(&c, &[0], 0.5), (200.0, 10));
        assert_eq!(round_rate(&c), 10.0);
    }

    #[test]
    fn in_range_stays_inside() {
        for i in 0..1000 {
            let v = in_range(draw(7, 1, i), 10, 20);
            assert!((10..=20).contains(&v));
        }
    }
}
