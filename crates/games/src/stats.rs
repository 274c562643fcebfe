//! Statistical accounting for empirical utilities: confidence intervals
//! instead of point estimates.
//!
//! The conformance harness turns batch outcomes into per-player expected
//! utilities. Those are sample means over a finite seed sweep, so every
//! comparison against an ε bound must carry its sampling error; this module
//! provides the three estimators it uses:
//!
//! * [`mean_ci`] — normal-approximation interval for a sample mean
//!   (the workhorse: utility samples are bounded, n is tens-to-thousands);
//! * [`wilson_interval`] — the Wilson score interval for Bernoulli
//!   proportions (outcome-profile probabilities from an
//!   [`OutcomeDist`](crate::dist::OutcomeDist) sample count);
//! * [`bootstrap_mean_ci`] — percentile bootstrap for small or skewed
//!   samples, deterministic via an inlined SplitMix64 (no RNG dependency).

/// A two-sided confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The point estimate (sample mean / proportion).
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

    /// The interval of the difference `self − other` for **independent**
    /// estimates (variances add).
    pub fn minus(&self, other: &ConfidenceInterval) -> ConfidenceInterval {
        let mean = self.mean - other.mean;
        let half = ((self.hi - self.mean).powi(2) + (other.hi - other.mean).powi(2)).sqrt();
        ConfidenceInterval {
            mean,
            lo: mean - half,
            hi: mean + half,
            samples: self.samples.min(other.samples),
        }
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

/// The Wilson score interval for a Bernoulli proportion: `successes`
/// out of `trials` at critical value `z`. Well-behaved at the boundaries
/// (never escapes `[0, 1]`, sane at 0 and `trials`), which is why it is
/// used for outcome-profile probabilities rather than the Wald interval.
///
/// # Panics
///
/// Panics if `successes > trials` or `trials == 0`.
pub fn wilson_interval(successes: usize, trials: usize, z: f64) -> ConfidenceInterval {
    assert!(trials > 0, "wilson_interval needs at least one trial");
    assert!(successes <= trials, "more successes than trials");
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ConfidenceInterval {
        mean: p,
        lo: (centre - half).max(0.0),
        hi: (centre + half).min(1.0),
        samples: trials,
    }
}

/// SplitMix64: the deterministic resampler behind the bootstrap (keeps the
/// crate free of an RNG dependency and bootstrap results reproducible).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Percentile-bootstrap confidence interval for the mean of `xs`:
/// `reps` resamples with replacement, interval at the `(alpha/2,
/// 1 − alpha/2)` percentiles (e.g. `alpha = 0.05` for 95%). Deterministic
/// in `seed`.
pub fn bootstrap_mean_ci(xs: &[f64], alpha: f64, reps: usize, seed: u64) -> ConfidenceInterval {
    let n = xs.len();
    if n == 0 {
        return ConfidenceInterval::point(0.0, 0);
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    if n == 1 || reps == 0 {
        return ConfidenceInterval::point(mean, n);
    }
    let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
    let mut means: Vec<f64> = (0..reps)
        .map(|_| {
            let mut acc = 0.0;
            for _ in 0..n {
                let i = (splitmix64(&mut state) % n as u64) as usize;
                acc += xs[i];
            }
            acc / n as f64
        })
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).expect("bootstrap means are finite"));
    let idx = |q: f64| -> f64 {
        let pos = q * (reps - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        means[lo] * (1.0 - frac) + means[hi] * frac
    };
    ConfidenceInterval {
        mean,
        lo: idx(alpha / 2.0),
        hi: idx(1.0 - alpha / 2.0),
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
    fn wilson_is_sane_at_boundaries() {
        let none = wilson_interval(0, 20, 1.96);
        assert_eq!(none.lo, 0.0);
        assert!(none.hi > 0.0 && none.hi < 0.25);
        let all = wilson_interval(20, 20, 1.96);
        assert_eq!(all.hi, 1.0);
        assert!(all.lo > 0.75);
        let half = wilson_interval(50, 100, 1.96);
        assert!(half.contains(0.5));
        assert!(half.width() < 0.25);
    }

    #[test]
    #[should_panic(expected = "more successes")]
    fn wilson_rejects_impossible_counts() {
        wilson_interval(5, 4, 1.96);
    }

    #[test]
    fn bootstrap_is_deterministic_and_covers_mean() {
        let xs: Vec<f64> = (0..40).map(|i| (i % 5) as f64).collect();
        let a = bootstrap_mean_ci(&xs, 0.05, 200, 7);
        let b = bootstrap_mean_ci(&xs, 0.05, 200, 7);
        assert_eq!(a, b, "same seed, same interval");
        assert!(a.contains(a.mean));
        assert!(a.lo < a.mean && a.mean < a.hi);
        let c = bootstrap_mean_ci(&xs, 0.05, 200, 8);
        assert!(
            (a.lo - c.lo).abs() < 0.5,
            "different seeds, similar interval"
        );
    }

    #[test]
    fn paired_gain_cancels_common_noise() {
        // a = noise + 0.1, b = noise: the paired CI is the exact point 0.1,
        // while independent differencing would inherit the noise width.
        let noise: Vec<f64> = (0..30).map(|i| (i * 37 % 11) as f64).collect();
        let a: Vec<f64> = noise.iter().map(|x| x + 0.1).collect();
        let paired = paired_gain_ci(&a, &noise, 1.96);
        assert!((paired.mean - 0.1).abs() < 1e-12);
        assert!(paired.width() < 1e-9);
        let unpaired = mean_ci(&a, 1.96).minus(&mean_ci(&noise, 1.96));
        assert!(unpaired.width() > 1.0);
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
