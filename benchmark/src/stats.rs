//! Order statistics, the percentile rule, name checks and the FNV digest.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method), so the referee's own spread figures
/// are the ones whoever judges it will compute. A single value is its own
/// median and quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "a summary needs at least one sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let n = v.len();
    if n == 1 {
        return Summary { median: v[0], q1: v[0], q3: v[0], n };
    }
    let cut = |i: usize| {
        // j and delta as in CPython: position i*(n+1)/4, clamped to the data.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary { median: cut(2), q1: cut(1), q3: cut(3), n }
}

/// Interquartile range as a share of the median.
pub fn spread(s: &Summary) -> f64 {
    if s.median == 0.0 {
        0.0
    } else {
        (s.q3 - s.q1) / s.median.abs()
    }
}

pub fn median_u64(values: &[u64]) -> f64 {
    summarize(&values.iter().map(|&v| v as f64).collect::<Vec<_>>()).median
}

/// The highest reportable percentile of `n` samples: the largest of
/// 99.9 / 99 / 90 with at least ten samples beyond it, else the median.
pub fn top_percentile(n: usize) -> f64 {
    // (percentile, samples beyond it per thousand): whole numbers, so the
    // boundary cases do not hang on a floating-point rounding.
    [(99.9, 1), (99.0, 10), (90.0, 100)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond / 1000 >= 10)
        .map_or(50.0, |(p, _)| p)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "a percentile needs at least one sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Metric and workload names: a letter or digit first, then at most 64
/// letters, digits, `_`, `.` and `-` in all.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte stream, continuable across chunks.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(FNV_BASIS)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) -> [1.0, 2.0, 4.0]
        let s = summarize(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) -> [2.5, 4.0, 5.5]
        let s = summarize(&[3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
        // Nine samples: the median is the fifth.
        let s = summarize(&[9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        let one = summarize(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary { median: 10.0, q1: 9.0, q3: 11.5, n: 10 };
        assert_eq!(spread(&s), 0.25);
        assert_eq!(spread(&Summary { median: 0.0, q1: 0.0, q3: 0.0, n: 1 }), 0.0);
    }

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        assert_eq!(top_percentile(19), 50.0);
        assert_eq!(top_percentile(99), 50.0);
        assert_eq!(top_percentile(100), 90.0);
        assert_eq!(top_percentile(999), 90.0);
        assert_eq!(top_percentile(1000), 99.0);
        assert_eq!(top_percentile(2048), 99.0);
        assert_eq!(top_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn names_are_restricted() {
        for ok in ["wall_s", "fleet.cache.hit_rate", "p99-us", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.feed(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.feed(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut split = Fnv::new();
        split.feed(b"foo");
        split.feed(b"bar");
        assert_eq!(split.0, 0x85944171f73967e8);
    }
}
