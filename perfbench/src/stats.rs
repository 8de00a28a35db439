//! The harness's own statistics: medians, the tail percentile it may
//! report for a sample count, and quartiles.

/// The median of `values` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of an ascending slice; 0 when empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The smallest of `values`; infinity for an empty slice.
pub fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The tail percentile a timing of `n` samples may be reported at: p99
/// when at least ten samples lie beyond it, else the highest percentile
/// with at least ten samples beyond it (never below the median).
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so the harness and a reader's script agree on spreads.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative when the clamp raised `j`, as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median; 0 for fewer than two values or a zero median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2,
        _ => 0.0,
    }
}

/// A latency sample summarised as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub count: usize,
    /// Median, microseconds.
    pub p50_us: f64,
    /// The tail percentile chosen by [`tail_quantile`], as a fraction.
    pub tail_q: f64,
    /// The value at `tail_q`, microseconds.
    pub tail_us: f64,
}

/// Sub-buckets per power of two: a recorded value is kept to within
/// 1/256 of itself.
const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
/// Buckets cover 0 ns up to 2^48 ns (about three days).
const BUCKETS: usize = SUB + (48 - SUB_BITS as usize) * SUB;

/// A log-linear histogram of nanosecond values. Its memory is fixed, so
/// how many calls a run makes does not move the process's peak RSS.
#[derive(Debug, Clone)]
struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Hist {
    fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
        (SUB + (e - SUB_BITS) as usize * SUB + sub).min(BUCKETS - 1)
    }

    /// The lowest value bucket `b` holds and its width.
    fn range(b: usize) -> (f64, f64) {
        if b < SUB {
            return (b as f64, 1.0);
        }
        let shift = ((b - SUB) / SUB) as u32;
        let sub = ((b - SUB) % SUB) as u64;
        (((SUB as u64 + sub) << shift) as f64, (1u64 << shift) as f64)
    }

    fn record(&mut self, v: u64) {
        self.counts[Hist::bucket(v)] += 1;
        self.n += 1;
    }

    fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The nearest-rank `q`-quantile, placed within its bucket by rank.
    fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if below + c >= rank {
                let (low, width) = Hist::range(b);
                return low + width * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("rank is at most the count")
    }

    fn latency(&self) -> Latency {
        let tail_q = tail_quantile(self.n as usize);
        Latency {
            count: self.n as usize,
            p50_us: self.quantile(0.5) / 1e3,
            tail_q,
            tail_us: self.quantile(tail_q) / 1e3,
        }
    }
}

/// Latency samples in nanoseconds.
#[derive(Debug, Clone)]
pub struct Samples {
    hist: Hist,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples { hist: Hist::new() }
    }
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.hist.record(ns);
    }

    pub fn len(&self) -> usize {
        self.hist.n as usize
    }

    pub fn extend(&mut self, other: Samples) {
        self.hist.merge(&other.hist);
    }

    /// The median, and the tail at the percentile [`tail_quantile`]
    /// picks for the sample count.
    pub fn summary(&self) -> Latency {
        self.hist.latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(10_000), 0.99);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert!((tail_quantile(500) - 0.98).abs() < 1e-12);
        assert!((tail_quantile(100) - 0.90).abs() < 1e-12);
        assert_eq!(tail_quantile(12), 0.5);
        for n in [20usize, 37, 100, 999, 1000, 5000] {
            let q = tail_quantile(n);
            let mut s: Vec<u64> = (1..=n as u64).collect();
            let at = quantile_sorted(&s, q);
            let beyond = s.iter().filter(|&&x| x > at).count();
            assert!(beyond >= 10, "n={n} q={q} leaves {beyond} beyond");
            s.clear();
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50);
        assert_eq!(quantile_sorted(&s, 0.99), 99);
        assert_eq!(quantile_sorted(&s, 1.0), 100);
        assert_eq!(quantile_sorted(&s, 0.0), 1);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_stall_in_two_percent_of_calls_sets_the_tail() {
        let (mut fast, mut stalled) = (Samples::default(), Samples::default());
        for k in 1..=4900u64 {
            fast.push(k * 100);
        }
        for _ in 0..100 {
            stalled.push(1_000_000);
        }
        fast.extend(stalled);
        let l = fast.summary();
        assert_eq!(l.count, 5000);
        assert_eq!(l.tail_q, 0.99);
        assert!((l.tail_us - 1000.0).abs() < 1000.0 / 256.0, "{}", l.tail_us);
    }

    #[test]
    fn histogram_keeps_values_to_within_a_256th() {
        for v in [
            0u64,
            1,
            255,
            256,
            257,
            1000,
            53_217,
            2_700_000,
            9_999_999_999,
        ] {
            let b = Hist::bucket(v);
            let (low, width) = Hist::range(b);
            assert!(
                low <= v as f64 && (v as f64) < low + width,
                "{v} not in bucket {b}"
            );
            assert!(width <= 1.0f64.max(v as f64 / 256.0), "{v}: width {width}");
        }
        let mut h = Hist::new();
        for k in 1..=1000u64 {
            h.record(k * 1000);
        }
        let l = h.latency();
        assert_eq!(l.count, 1000);
        assert!((l.p50_us - 500.0).abs() < 500.0 / 256.0, "{}", l.p50_us);
        assert!((l.tail_us - 990.0).abs() < 990.0 / 256.0, "{}", l.tail_us);
    }

    #[test]
    fn latency_summary_names_its_tail() {
        let mut s = Samples::default();
        for k in 1..=200u64 {
            s.push(k * 1000);
        }
        let l = s.summary();
        assert_eq!(l.count, 200);
        assert!((l.p50_us - 100.0).abs() < 100.0 / 256.0);
        assert!((l.tail_q - 0.95).abs() < 1e-12);
        assert!((l.tail_us - 190.0).abs() < 190.0 / 256.0);
    }
}
