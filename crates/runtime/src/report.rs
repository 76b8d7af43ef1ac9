//! Cross-program aggregation helpers for the experiment harness.

/// Geometric mean of a slice (1.0 for an empty slice).
///
/// The paper reports GEOMEAN speedups per suite (Figs 2–3).
///
/// ```
/// assert_eq!(lp_runtime::geomean(&[2.0, 8.0]), 4.0);
/// assert_eq!(lp_runtime::geomean(&[]), 1.0);
/// ```
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_scale_invariant() {
        let a = geomean(&[1.5, 2.5, 3.5]);
        let b = geomean(&[3.0, 5.0, 7.0]);
        assert!((b / a - 2.0).abs() < 1e-9);
    }
}
