//! Exact order statistics over raw samples (no histograms, no buckets).

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `values`, reported only
/// when at least ten samples lie beyond it, so a tail figure always rests
/// on more than a handful of observations. `None` otherwise.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    let s = sorted(values);
    let rank = (q * s.len() as f64).ceil() as usize;
    if rank == 0 || s.len() - rank < 10 {
        return None;
    }
    Some(s[rank - 1])
}

/// First quartile, median and third quartile by the "exclusive" method
/// (Python's `statistics.quantiles(values, n=4)`). `None` below two
/// samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let step = (i + 1) * m;
        // Clamp into [1, n - 1] exactly as Python does at the edges.
        let j = (step / 4).clamp(1, n - 1);
        let delta = step as f64 / 4.0 - j as f64;
        *slot = s[j - 1] + (s[j] - s[j - 1]) * delta;
    }
    Some(out)
}

/// Interquartile range as a share of the median (the run-to-run spread a
/// bound is compared against). `None` below two samples or at a zero
/// median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, med, q3] = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Mean of the middle half of `values` (the interquartile mean): immune
/// to the extreme quarter on either side like a median, but it averages
/// over what remains, so a value that flips between two levels from one
/// sample to the next reads as their weighted mean instead of jumping
/// between them. `None` when empty.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let cut = s.len() / 4;
    let middle = &s[cut..s.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// Latency statistics over consecutive windows of a fixed number of
/// samples: each full window's median and p99, summarized by their
/// interquartile mean over the windows. A host stall then moves only the
/// windows it falls in, not the reported figure. A trailing partial
/// window is dropped.
#[derive(Debug, Clone)]
pub struct Windows {
    size: usize,
    current: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl Windows {
    /// Windows of `size` samples; 1000 leaves exactly ten beyond each p99.
    pub fn new(size: usize) -> Windows {
        Windows {
            size,
            current: Vec::with_capacity(size),
            p50: Vec::new(),
            p99: Vec::new(),
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.current.push(value);
        if self.current.len() == self.size {
            self.p50.extend(median(&self.current));
            self.p99.extend(tail_percentile(&self.current, 0.99));
            self.current.clear();
        }
    }

    /// Full windows so far.
    pub fn windows(&self) -> usize {
        self.p50.len()
    }

    /// Interquartile mean over the windows of each window's median.
    pub fn p50(&self) -> Option<f64> {
        interquartile_mean(&self.p50)
    }

    /// Interquartile mean over the windows of each window's p99 (`None`
    /// when the windows are too small to hold ten samples beyond a p99).
    pub fn p99(&self) -> Option<f64> {
        interquartile_mean(&self.p99)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // edge clamp extrapolates.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(interquartile_mean(&[4.0]), Some(4.0));
        assert_eq!(interquartile_mean(&[1.0, 3.0]), Some(2.0));
        // Eight values: the lowest two and highest two are dropped.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(interquartile_mean(&v), Some(3.5));
        // Two levels, half each: the mean of the middle, not one level.
        let flip: Vec<f64> = (0..12)
            .map(|i| if i % 2 == 0 { 20.0 } else { 40.0 })
            .collect();
        assert_eq!(interquartile_mean(&flip), Some(30.0));
    }

    #[test]
    fn windows_ignore_a_stall_confined_to_one_window() {
        // Five windows of 1000 samples; the third holds a burst of slow
        // ones that alone would set the whole run's p99.
        let mut w = Windows::new(1000);
        let mut all = Vec::new();
        for i in 0..5500 {
            let v = if (2000..2100).contains(&i) {
                5000.0
            } else {
                f64::from(i % 100)
            };
            w.push(v);
            all.push(v);
        }
        assert_eq!(tail_percentile(&all, 0.99), Some(5000.0));
        assert_eq!(w.windows(), 5, "the partial sixth window is dropped");
        assert_eq!(w.p99(), Some(98.0));
        assert_eq!(w.p50(), Some(49.5));
        // Windows too small for a p99 report none.
        let mut small = Windows::new(100);
        (0..1000).for_each(|i| small.push(f64::from(i)));
        assert_eq!(small.windows(), 10);
        assert_eq!(small.p99(), None);
        assert!(small.p50().is_some());
        assert_eq!(Windows::new(1000).p50(), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990: exactly ten samples (991..=1000) lie beyond it.
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(tail_percentile(&rev, 0.99), Some(990.0));
    }
}
