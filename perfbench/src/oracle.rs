//! Reference answers the benchmark checks the store against.

use crate::stats::fold;

/// Lower bounds over a static sorted column, through a radix table on the
/// key's offset from the minimum so a check of millions of answers stays
/// quick on a column much larger than the cache.
pub struct SortedOracle<'a> {
    col: &'a [u64],
    starts: Vec<u32>,
    min: u64,
    shift: u32,
}

const RADIX_BITS: u32 = 20;

impl<'a> SortedOracle<'a> {
    pub fn new(col: &'a [u64]) -> Self {
        assert!(
            col.len() < u32::MAX as usize,
            "column too long for the radix table"
        );
        let (min, max) = match (col.first(), col.last()) {
            (Some(&a), Some(&b)) => (a, b),
            _ => (0, 0),
        };
        let span_bits = 64 - (max - min).leading_zeros();
        let shift = span_bits.saturating_sub(RADIX_BITS);
        let buckets = ((max - min) >> shift) as usize + 1;
        // starts[b] = first position whose key lies in bucket b or above.
        let mut starts = vec![0u32; buckets + 1];
        let mut pos = 0usize;
        for (b, s) in starts.iter_mut().enumerate() {
            while pos < col.len() && (((col[pos] - min) >> shift) as usize) < b {
                pos += 1;
            }
            *s = pos as u32;
        }
        Self {
            col,
            starts,
            min,
            shift,
        }
    }

    /// Number of keys `< q`.
    #[inline]
    pub fn lower_bound(&self, q: u64) -> usize {
        if q <= self.min || self.col.is_empty() {
            return 0;
        }
        let b = ((q - self.min) >> self.shift) as usize;
        if b + 1 >= self.starts.len() {
            return self.col.len();
        }
        let (lo, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        lo + self.col[lo..hi].partition_point(|&k| k < q)
    }

    /// Number of keys `<= q`.
    #[inline]
    pub fn upper_bound(&self, q: u64) -> usize {
        q.checked_add(1)
            .map_or(self.col.len(), |next| self.lower_bound(next))
    }

    pub fn count_of(&self, k: u64) -> usize {
        self.upper_bound(k) - self.lower_bound(k)
    }

    /// The keys in `lo ..= hi`.
    pub fn scan(&self, lo: u64, hi: u64) -> &[u64] {
        let a = self.lower_bound(lo);
        &self.col[a..self.upper_bound(hi).max(a)]
    }
}

/// Digest of a scan result: its length and every key, in order.
pub fn scan_digest(keys: &[u64]) -> u64 {
    keys.iter().fold(keys.len() as u64, |h, &k| fold(h, k))
}

/// Digest of a batch of positions.
pub fn batch_digest(positions: &[usize]) -> u64 {
    positions.iter().fold(0, |h, &p| fold(h, p as u64))
}

/// A counted multiset over a universe fixed up front (the base column plus
/// every key the trace inserts), with rank queries through a Fenwick tree:
/// the sequential replay oracle for a trace that mixes writes into reads.
pub struct CountedMultiset {
    universe: Vec<u64>,
    counts: Vec<i64>,
    fenwick: Vec<i64>,
}

impl CountedMultiset {
    /// `base` is the sorted initial column; `extra` holds every key a later
    /// `insert` may add.
    pub fn new(base: &[u64], extra: &[u64]) -> Self {
        let mut universe: Vec<u64> = Vec::with_capacity(base.len() + extra.len());
        universe.extend_from_slice(base);
        universe.extend_from_slice(extra);
        universe.sort_unstable();
        universe.dedup();
        let mut counts = vec![0i64; universe.len()];
        let mut i = 0;
        for &k in base {
            while universe[i] < k {
                i += 1;
            }
            counts[i] += 1;
        }
        // Linear-time Fenwick construction.
        let mut fenwick = counts.clone();
        for j in 0..fenwick.len() {
            let up = j | (j + 1);
            if up < fenwick.len() {
                fenwick[up] += fenwick[j];
            }
        }
        Self {
            universe,
            counts,
            fenwick,
        }
    }

    fn slot(&self, k: u64) -> Option<usize> {
        self.universe.binary_search(&k).ok()
    }

    fn add(&mut self, mut j: usize, d: i64) {
        self.counts[j] += d;
        while j < self.fenwick.len() {
            self.fenwick[j] += d;
            j |= j + 1;
        }
    }

    /// Sum of counts over the first `j` universe slots.
    fn prefix(&self, j: usize) -> i64 {
        let mut j = j;
        let mut s = 0;
        while j > 0 {
            s += self.fenwick[j - 1];
            j &= j - 1;
        }
        s
    }

    pub fn insert(&mut self, k: u64) {
        let j = self
            .slot(k)
            .expect("inserted key missing from the universe");
        self.add(j, 1);
    }

    /// Remove one occurrence; false when `k` is absent.
    pub fn delete(&mut self, k: u64) -> bool {
        match self.slot(k) {
            Some(j) if self.counts[j] > 0 => {
                self.add(j, -1);
                true
            }
            _ => false,
        }
    }

    pub fn count_of(&self, k: u64) -> usize {
        self.slot(k).map_or(0, |j| self.counts[j] as usize)
    }

    /// Number of keys `< q`.
    pub fn lower_bound(&self, q: u64) -> usize {
        self.prefix(self.universe.partition_point(|&k| k < q)) as usize
    }

    /// Digest of the keys in `lo ..= hi`, with multiplicity.
    pub fn scan_digest(&self, lo: u64, hi: u64) -> u64 {
        let start = self.universe.partition_point(|&k| k < lo);
        let mut keys = Vec::new();
        for (j, &k) in self.universe[start..].iter().enumerate() {
            if k > hi {
                break;
            }
            for _ in 0..self.counts[start + j] {
                keys.push(k);
            }
        }
        scan_digest(&keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_oracle_matches_partition_point() {
        let col: Vec<u64> = (0..5000u64).map(|i| i * i / 7 + 3).collect();
        let o = SortedOracle::new(&col);
        for q in [0, 1, 3, 4, 100, 5000, 3_571_430, u64::MAX] {
            assert_eq!(o.lower_bound(q), col.partition_point(|&k| k < q), "q={q}");
            assert_eq!(o.upper_bound(q), col.partition_point(|&k| k <= q), "q={q}");
        }
        for (i, &k) in col.iter().enumerate().step_by(37) {
            assert_eq!(o.lower_bound(k), col.partition_point(|&x| x < k), "i={i}");
        }
    }

    #[test]
    fn counted_multiset_tracks_ranks() {
        let base = vec![10, 20, 20, 30];
        let mut m = CountedMultiset::new(&base, &[15, 20, 40]);
        assert_eq!(m.lower_bound(20), 1);
        m.insert(15);
        m.insert(20);
        assert_eq!(m.lower_bound(20), 2);
        assert_eq!(m.count_of(20), 3);
        assert!(m.delete(10));
        assert!(!m.delete(10));
        assert!(!m.delete(99));
        assert_eq!(m.lower_bound(31), 5);
        assert_eq!(m.scan_digest(15, 20), scan_digest(&[15, 20, 20, 20]));
    }
}
