//! Exact quantiles from raw samples.
//!
//! Percentiles are computed from every recorded sample, never from a
//! bucketed histogram: the program's power-of-two histogram buckets would
//! snap a p99 onto a bucket edge.

/// A latency distribution summarised from raw samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quantiles {
    /// Samples the percentiles were computed from.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// The `q`-quantile (`0.0..=1.0`) of ascending `sorted`, interpolating
/// linearly between the two nearest ranks. 0 for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// p50 and p99 of `samples_ns`, scaled by `per_unit` nanoseconds (1e3 for
/// microseconds, 1e6 for milliseconds).
pub fn summarize(samples_ns: &[u64], per_unit: f64) -> Quantiles {
    let mut v: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / per_unit).collect();
    v.sort_by(f64::total_cmp);
    Quantiles {
        n: v.len(),
        p50: quantile(&v, 0.50),
        p99: quantile(&v, 0.99),
    }
}

/// The latencies of `(start, latency)` samples.
pub fn latencies(samples: &[(u64, u64)]) -> Vec<u64> {
    samples.iter().map(|&(_, ns)| ns).collect()
}

/// A measured window cut into equal slices.
#[derive(Clone, Copy, Debug)]
pub struct Slices {
    n: usize,
    slice_ns: u64,
}

impl Slices {
    /// `seconds` cut into slices of `slice` (the last one may be short).
    pub fn new(seconds: f64, slice: std::time::Duration) -> Slices {
        let slice_ns = slice.as_nanos().max(1) as u64;
        let n = ((seconds * 1e9) / slice_ns as f64).ceil().max(1.0) as usize;
        Slices { n, slice_ns }
    }

    /// Each slice's latencies; `(start, latency)` samples fall in the
    /// slice their start falls in.
    pub fn split(&self, samples: &[(u64, u64)]) -> Vec<Vec<u64>> {
        let mut per: Vec<Vec<u64>> = vec![Vec::new(); self.n];
        for &(at, ns) in samples {
            per[((at / self.slice_ns) as usize).min(self.n - 1)].push(ns);
        }
        per
    }
}

/// The steady value of per-stretch measurements: the upper quartile of a
/// rate, the lower quartile of a latency. Other work on a shared host
/// only ever slows a stretch down, so these quartiles move with the
/// program and far less with its neighbours; a change that slows every
/// stretch still moves them. 0 for no values.
pub fn steady(values: impl IntoIterator<Item = f64>, rate: bool) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    quantile(&v, if rate { 0.75 } else { 0.25 })
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn slices_split_by_start_time() {
        let s = Slices::new(2.5, std::time::Duration::from_secs(1));
        let samples = [
            (0, 1),
            (999_999_999, 2),
            (1_000_000_000, 3),
            (2_600_000_000, 4),
        ];
        assert_eq!(s.split(&samples), vec![vec![1, 2], vec![3], vec![4]]);
    }

    #[test]
    fn steady_takes_the_undisturbed_quartile() {
        let v = [10.0, 1.0, 7.0, 4.0, 13.0];
        assert_eq!(steady(v, true), 10.0);
        assert_eq!(steady(v, false), 4.0);
        assert_eq!(steady([], false), 0.0);
    }

    #[test]
    fn percentiles_are_not_bucketed() {
        // 131 µs is not a power of two; a log-bucketed histogram would
        // report the bucket edge 2^17 ns instead.
        let q = summarize(&[131_000; 200], 1e6);
        assert_eq!(q.n, 200);
        assert_eq!(q.p99, 0.131);
    }
}
