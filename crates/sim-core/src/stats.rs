//! Descriptive statistics and the binomial hypothesis test.
//!
//! * [`Cdf`] builds empirical CDFs — the harness uses these to regenerate
//!   Figures 4, 5 and 6.
//! * [`FiveNumber`] computes box-plot statistics — used for Figure 7.
//! * [`binomial_sf`] / [`OneSidedBinomialTest`] implement the paper's §7.2
//!   detection rule: a resource is considered filtered in a region when
//!   `Pr[Binomial(n, p) <= x] <= alpha` there but not elsewhere, with
//!   p = 0.7 and alpha = 0.05 in the paper.

use serde::{Deserialize, Serialize};

/// Summary statistics over a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Population standard deviation (0 for n < 2).
    pub std_dev: f64,
    /// Minimum (0 for an empty sample).
    pub min: f64,
    /// Maximum (0 for an empty sample).
    pub max: f64,
}

impl Summary {
    /// Compute summary statistics of `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }
}

/// An empirical cumulative distribution function.
///
/// Built once from a sample; supports evaluation (`fraction_at_most`),
/// quantiles, and emitting `(x, F(x))` series for plotting — the harness
/// prints these series as the figure data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from a sample (NaNs are dropped).
    pub fn new(mut xs: Vec<f64>) -> Cdf {
        xs.retain(|x| !x.is_nan());
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Cdf { sorted: xs }
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// F(x): fraction of samples `<= x`. Returns 0 for an empty CDF.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|v| *v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The q-th quantile (0 <= q <= 1) using nearest-rank. Returns `None`
    /// for an empty CDF.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).saturating_sub(1);
        Some(self.sorted[idx.min(self.sorted.len() - 1)])
    }

    /// Median (0.5 quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Emit `points` evenly spaced `(x, F(x))` pairs spanning the sample
    /// range — the series a plotting tool would consume.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().unwrap();
        if points == 1 || hi == lo {
            return vec![(hi, 1.0)];
        }
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.fraction_at_most(x))
            })
            .collect()
    }

    /// Emit `(x, F(x))` at caller-chosen x positions (used when the paper's
    /// axis is fixed, e.g. Figure 4's 0–2000 images range).
    pub fn series_at(&self, xs: &[f64]) -> Vec<(f64, f64)> {
        xs.iter().map(|&x| (x, self.fraction_at_most(x))).collect()
    }
}

/// Five-number summary plus mean: the data behind a box plot (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FiveNumber {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl FiveNumber {
    /// Compute the five-number summary. Returns `None` for an empty sample.
    pub fn of(xs: &[f64]) -> Option<FiveNumber> {
        if xs.is_empty() {
            return None;
        }
        let cdf = Cdf::new(xs.to_vec());
        Some(FiveNumber {
            min: cdf.quantile(0.0)?,
            q1: cdf.quantile(0.25)?,
            median: cdf.quantile(0.5)?,
            q3: cdf.quantile(0.75)?,
            max: cdf.quantile(1.0)?,
            mean: xs.iter().sum::<f64>() / xs.len() as f64,
        })
    }
}

/// Survival function of the binomial: `Pr[Binomial(n, p) <= x]` is the CDF;
/// this returns the **CDF** value `Pr[X <= x]` computed in log space for
/// numerical stability at the sample sizes the detector sees (thousands of
/// measurements per region).
///
/// Named `binomial_sf` for symmetry with the paper's test ("fails this test
/// at 0.05 significance"): the detector compares `binomial_cdf(x; n, p)`
/// against alpha. See [`OneSidedBinomialTest`].
pub fn binomial_sf(n: u64, p: f64, x: u64) -> f64 {
    binomial_cdf(n, p, x)
}

/// `Pr[Binomial(n, p) <= x]`, exact summation in log space.
pub fn binomial_cdf(n: u64, p: f64, x: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if x >= n {
        return 1.0;
    }
    if p == 0.0 {
        return 1.0; // X is identically 0 <= x.
    }
    if p == 1.0 {
        return if x >= n { 1.0 } else { 0.0 };
    }
    let ln_p = p.ln();
    let ln_q = (1.0 - p).ln();
    let mut total = 0.0f64;
    for k in 0..=x {
        let ln_pmf = ln_choose(n, k) + k as f64 * ln_p + (n - k) as f64 * ln_q;
        total += ln_pmf.exp();
    }
    total.min(1.0)
}

/// `ln(n choose k)` via the log-gamma function.
fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0`.
fn ln_gamma(x: f64) -> f64 {
    // g = 7, n = 9 Lanczos coefficients.
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The paper's one-sided binomial hypothesis test (§7.2).
///
/// Null hypothesis: in the absence of filtering, each measurement succeeds
/// independently with probability at least `p` (0.7 in the paper). The test
/// rejects — i.e. flags possible filtering — when observing `successes` or
/// fewer successes out of `trials` would happen with probability at most
/// `alpha` under the null.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OneSidedBinomialTest {
    /// Success probability under the null hypothesis (paper: 0.7).
    pub p: f64,
    /// Significance level (paper: 0.05).
    pub alpha: f64,
}

impl Default for OneSidedBinomialTest {
    fn default() -> Self {
        OneSidedBinomialTest {
            p: 0.7,
            alpha: 0.05,
        }
    }
}

impl OneSidedBinomialTest {
    /// Construct with explicit parameters.
    pub fn new(p: f64, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be a probability");
        OneSidedBinomialTest { p, alpha }
    }

    /// The p-value: `Pr[Binomial(trials, p) <= successes]`.
    pub fn p_value(&self, trials: u64, successes: u64) -> f64 {
        binomial_cdf(trials, self.p, successes.min(trials))
    }

    /// Whether the observation is significant (rejects the null).
    pub fn rejects(&self, trials: u64, successes: u64) -> bool {
        self.rejection(trials, successes).is_some()
    }

    /// The p-value of a significant observation, `None` when the null
    /// stands — [`rejects`](Self::rejects) for callers that report the
    /// p-value they rejected at, so the sum is computed once.
    pub fn rejection(&self, trials: u64, successes: u64) -> Option<f64> {
        if trials == 0 {
            return None; // No evidence either way.
        }
        let p_value = self.p_value(trials, successes);
        (p_value <= self.alpha).then_some(p_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn cdf_fraction_at_most() {
        let cdf = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at_most(0.0), 0.0);
        assert_eq!(cdf.fraction_at_most(2.0), 0.5);
        assert_eq!(cdf.fraction_at_most(2.5), 0.5);
        assert_eq!(cdf.fraction_at_most(10.0), 1.0);
    }

    #[test]
    fn cdf_quantiles() {
        let cdf = Cdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert_eq!(cdf.median(), Some(50.0));
    }

    #[test]
    fn cdf_drops_nan() {
        let cdf = Cdf::new(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn cdf_series_monotone() {
        let cdf = Cdf::new(vec![1.0, 5.0, 5.0, 9.0, 20.0]);
        let series = cdf.series(10);
        assert_eq!(series.len(), 10);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be non-decreasing");
            assert!(w[1].0 >= w[0].0);
        }
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn cdf_series_at_fixed_positions() {
        let cdf = Cdf::new(vec![1.0, 2.0]);
        let s = cdf.series_at(&[0.0, 1.5, 3.0]);
        assert_eq!(s, vec![(0.0, 0.0), (1.5, 0.5), (3.0, 1.0)]);
    }

    #[test]
    fn cdf_empty_behaviour() {
        let cdf = Cdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_most(1.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
        assert!(cdf.series(5).is_empty());
    }

    #[test]
    fn five_number_ordering() {
        let f = FiveNumber::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert!(f.min <= f.q1 && f.q1 <= f.median && f.median <= f.q3 && f.q3 <= f.max);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.median, 3.0);
        assert_eq!(f.max, 5.0);
        assert_eq!(f.mean, 3.0);
    }

    #[test]
    fn five_number_empty_is_none() {
        assert!(FiveNumber::of(&[]).is_none());
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..15u64 {
            let fact: f64 = (1..=n).map(|i| i as f64).product();
            let lg = ln_gamma(n as f64 + 1.0);
            assert!(
                (lg - fact.ln()).abs() < 1e-9,
                "ln_gamma({}) = {lg}, want {}",
                n + 1,
                fact.ln()
            );
        }
    }

    #[test]
    fn binomial_cdf_small_case_exact() {
        // Binomial(2, 0.5): P[X<=0]=0.25, P[X<=1]=0.75, P[X<=2]=1.
        assert!((binomial_cdf(2, 0.5, 0) - 0.25).abs() < 1e-12);
        assert!((binomial_cdf(2, 0.5, 1) - 0.75).abs() < 1e-12);
        assert!((binomial_cdf(2, 0.5, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn binomial_cdf_edge_probabilities() {
        assert_eq!(binomial_cdf(10, 0.0, 0), 1.0);
        assert_eq!(binomial_cdf(10, 1.0, 9), 0.0);
        assert_eq!(binomial_cdf(10, 1.0, 10), 1.0);
        assert_eq!(binomial_cdf(0, 0.3, 0), 1.0);
    }

    #[test]
    fn binomial_cdf_monotone_in_x() {
        let mut prev = 0.0;
        for x in 0..=50 {
            let c = binomial_cdf(50, 0.7, x);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binomial_cdf_large_n_stable() {
        // Mean 700, sd ~14.5; P[X <= 600] should be astronomically small
        // but finite and non-negative; P[X <= 700] about a half.
        let lo = binomial_cdf(1_000, 0.7, 600);
        assert!((0.0..1e-6).contains(&lo), "lo = {lo}");
        let mid = binomial_cdf(1_000, 0.7, 700);
        assert!((0.4..0.6).contains(&mid), "mid = {mid}");
    }

    #[test]
    fn paper_test_detects_total_blocking() {
        // 100 clients measured, 10 Pakistani clients all failed (paper §5.3
        // scenario): in Pakistan 0/10 successes is significant.
        let t = OneSidedBinomialTest::default();
        assert!(t.rejects(10, 0));
        // Elsewhere 90/90 success is not.
        assert!(!t.rejects(90, 90));
    }

    #[test]
    fn paper_test_tolerates_sporadic_failure() {
        // 70% success prior: seeing 7/10 successes is entirely expected.
        let t = OneSidedBinomialTest::default();
        assert!(!t.rejects(10, 7));
        assert!(!t.rejects(10, 6)); // p-value ~0.35
    }

    #[test]
    fn paper_test_needs_enough_evidence() {
        let t = OneSidedBinomialTest::default();
        // A single failed measurement is not significant (p = 0.3).
        assert!(!t.rejects(1, 0));
        // Two failures: p = 0.09, still not significant at 0.05.
        assert!(!t.rejects(2, 0));
        // Three failures: p = 0.027 — significant.
        assert!(t.rejects(3, 0));
        // Zero trials: never significant.
        assert!(!t.rejects(0, 0));
        // A rejection reports the very p-value it was decided on.
        assert_eq!(t.rejection(3, 0), Some(t.p_value(3, 0)));
        assert_eq!(t.rejection(2, 0), None);
        assert_eq!(t.rejection(0, 0), None);
    }

    #[test]
    fn p_value_clamps_successes() {
        let t = OneSidedBinomialTest::default();
        assert_eq!(t.p_value(5, 100), 1.0);
    }

    #[test]
    #[should_panic(expected = "p must be a probability")]
    fn test_rejects_bad_p() {
        let _ = OneSidedBinomialTest::new(1.5, 0.05);
    }
}
