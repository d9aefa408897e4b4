//! Order statistics, the result digest, and process memory readings.

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile over the distinct operations of a round-based
/// workload, each represented by the median of its own samples. A raw
/// percentile over a few dozen distinct heavy operations sits between two
/// of their latency clusters and jumps from one to the other with the
/// noise; the median of each cluster first, then the percentile, does not.
pub fn percentile_of_medians(samples: &[(usize, f64)], p: f64) -> f64 {
    let mut groups: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(key, value) in samples {
        groups.entry(key).or_default().push(value);
    }
    let medians: Vec<f64> = groups.values().map(|v| median(v)).collect();
    percentile(&medians, p)
}

/// First quartile, median, third quartile — the exclusive method of
/// Python's `statistics.quantiles(values, n=4)`, which the acceptance
/// driver uses for its spread test.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let cut = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    [cut(1), cut(2), cut(3)]
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// FNV-1a (64-bit) over a stream of `u64` words, fed little-endian.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set of this process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 100.0), 10.0);
    }

    #[test]
    fn percentile_of_medians_ignores_cluster_sizes() {
        // Two operations at 10 and 20; an extra sample of either must not
        // move the median from the middle of the two.
        let even = [(0, 10.0), (1, 20.0), (0, 10.2), (1, 19.8)];
        let skewed = [(0, 10.0), (1, 20.0), (0, 10.2), (1, 19.8), (1, 20.0)];
        assert!((percentile_of_medians(&even, 50.0) - 15.0).abs() < 0.2);
        assert!((percentile_of_medians(&skewed, 50.0) - 15.0).abs() < 0.2);
        assert_eq!(percentile(&[10.0, 10.2, 19.8, 20.0, 20.0], 50.0), 19.8);
    }

    #[test]
    fn digest_depends_on_order() {
        let mut a = Digest::default();
        a.feed(1);
        a.feed(2);
        let mut b = Digest::default();
        b.feed(2);
        b.feed(1);
        assert_ne!(a.value(), b.value());
    }
}
