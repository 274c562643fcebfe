//! Statistical accounting for empirical utilities: confidence intervals
//! instead of point estimates.
//!
//! The conformance harness turns batch outcomes into per-player expected
//! utilities. Those are sample means over a finite seed sweep, so every
//! comparison against an ε bound must carry its sampling error. Both
//! estimators it uses are normal approximations: [`mean_ci`] for a sample
//! mean (utility samples are bounded, n is tens-to-thousands) and
//! [`paired_gain_ci`] for a common-random-number gain.

/// A two-sided confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The point estimate (the sample mean).
    pub mean: f64,
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
    /// Samples the estimate is based on.
    pub samples: usize,
}

impl ConfidenceInterval {
    /// A degenerate (zero-width) interval: an exactly known value.
    pub fn point(value: f64, samples: usize) -> Self {
        ConfidenceInterval {
            mean: value,
            lo: value,
            hi: value,
            samples,
        }
    }

    /// The interval's full width `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        self.lo <= value && value <= self.hi
    }
}

/// Normal-approximation confidence interval for the mean of `xs` at
/// critical value `z` (1.96 ≈ 95%). With fewer than two samples the
/// interval is the degenerate point (no variance estimate exists).
pub fn mean_ci(xs: &[f64], z: f64) -> ConfidenceInterval {
    let n = xs.len();
    if n == 0 {
        return ConfidenceInterval::point(0.0, 0);
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return ConfidenceInterval::point(mean, 1);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let half = z * (var / n as f64).sqrt();
    ConfidenceInterval {
        mean,
        lo: mean - half,
        hi: mean + half,
        samples: n,
    }
}

/// Per-player utility samples over `(types, actions)` runs (outer index:
/// player; inner: one value per run), so paired estimators
/// (common-random-number gains) can difference them run-by-run.
pub fn utility_samples(
    game: &crate::game::BayesianGame,
    runs: &[(Vec<usize>, Vec<usize>)],
) -> Vec<Vec<f64>> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(runs.len()); game.n()];
    for (types, actions) in runs {
        let us = game.utilities(types, actions);
        for (i, u) in us.into_iter().enumerate() {
            samples[i].push(u);
        }
    }
    samples
}

/// Paired-difference confidence interval: the mean of `a[i] − b[i]`.
/// With common random numbers (same seed grid on both sides) this cancels
/// shared run-to-run noise, which is what makes small deviation gains
/// statistically visible at modest seed counts.
///
/// # Panics
///
/// Panics if the two sample vectors have different lengths.
pub fn paired_gain_ci(a: &[f64], b: &[f64], z: f64) -> ConfidenceInterval {
    assert_eq!(a.len(), b.len(), "paired samples must align");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    mean_ci(&diffs, z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_ci_shrinks_with_samples() {
        let xs: Vec<f64> = (0..100).map(|i| (i % 2) as f64).collect();
        let small = mean_ci(&xs[..10], 1.96);
        let large = mean_ci(&xs, 1.96);
        assert!((large.mean - 0.5).abs() < 1e-12);
        assert!(large.width() < small.width());
        assert!(large.contains(0.5));
    }

    #[test]
    fn mean_ci_degenerate_cases() {
        assert_eq!(mean_ci(&[], 1.96), ConfidenceInterval::point(0.0, 0));
        assert_eq!(mean_ci(&[3.0], 1.96), ConfidenceInterval::point(3.0, 1));
        let constant = mean_ci(&[2.0; 50], 1.96);
        assert_eq!(constant.width(), 0.0);
        assert_eq!(constant.mean, 2.0);
    }

    #[test]
    fn paired_gain_cancels_common_noise() {
        // a = noise + 0.1, b = noise: the paired CI is the exact point 0.1,
        // while either side's own interval carries the noise width.
        let noise: Vec<f64> = (0..30).map(|i| (i * 37 % 11) as f64).collect();
        let a: Vec<f64> = noise.iter().map(|x| x + 0.1).collect();
        let paired = paired_gain_ci(&a, &noise, 1.96);
        assert!((paired.mean - 0.1).abs() < 1e-12);
        assert!(paired.width() < 1e-9);
        assert!(mean_ci(&a, 1.96).width() > 1.0);
    }

    #[test]
    fn utility_samples_match_hand_average() {
        let (game, _) = crate::library::prisoners_dilemma();
        let runs = vec![
            (vec![0, 0], vec![0, 0]), // (3,3)
            (vec![0, 0], vec![1, 1]), // (1,1)
        ];
        let samples = utility_samples(&game, &runs);
        assert_eq!(samples, vec![vec![3.0, 1.0]; 2]);
        for xs in &samples {
            let ci = mean_ci(xs, 1.96);
            assert!((ci.mean - 2.0).abs() < 1e-12);
            assert!(ci.contains(2.0));
            assert_eq!(ci.samples, 2);
        }
    }
}
