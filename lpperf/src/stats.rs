//! Order statistics over per-pass samples.

/// Fewest timed passes for which [`tail`] exists: the tail statistic needs
/// ten samples beyond it.
pub const MIN_PASSES: usize = 11;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); `None` for
/// no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest order statistic with at least ten samples beyond it: the
/// (n−10)-th smallest of n. `None` below [`MIN_PASSES`] samples.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    (n >= MIN_PASSES).then(|| sorted(samples)[n - MIN_PASSES])
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(samples, n=4)` does (the "exclusive" method);
/// `None` for fewer than two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a bound is judged against. `None` when undefined.
#[must_use]
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.5));
        assert_eq!(median(&ramp(11)), Some(6.0));
        assert_eq!(median(&ramp(30)), Some(15.5));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&ramp(11)), Some(1.0));
        assert_eq!(tail(&ramp(14)), Some(4.0));
        assert_eq!(tail(&ramp(60)), Some(50.0));
        assert_eq!(tail(&ramp(80)), Some(70.0));
        for n in [11, 20, 57, 200] {
            let v = ramp(n);
            let t = tail(&v).unwrap();
            assert_eq!(v.iter().filter(|&&x| x > t).count(), 10, "n={n}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&ramp(4)), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&ramp(2)), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[5.0]), None);
        let s = spread(&ramp(10)).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
    }
}
