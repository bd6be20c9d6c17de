//! Sampling distributions used across the simulation.
//!
//! Implemented locally (on top of [`SimRng`]) so the workspace needs no
//! distribution crate. Each distribution documents where the workspace uses
//! it:
//!
//! * [`LogNormal`] — web object sizes and page weights (Figures 4–6 shapes),
//!   RTT jitter. Web content sizes are famously heavy-tailed and log-normal
//!   bodies are the standard first-order model.
//! * [`Pareto`] — page-size tails (Figure 5's "very long tail") and dwell
//!   times (§6.2).
//! * [`Exponential`] — visit inter-arrival times (Poisson arrivals).
//! * [`Zipf`] — popularity of sites/pages across clients.
//! * [`Empirical`] — weighted discrete choice (country mixes, browser
//!   market share).

use crate::rng::SimRng;

/// A distribution over `f64` that can be sampled with a [`SimRng`].
pub trait Sample {
    /// Draw one value.
    fn sample(&self, rng: &mut SimRng) -> f64;
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal (of `ln x`).
    pub mu: f64,
    /// Standard deviation of the underlying normal. Must be non-negative.
    pub sigma: f64,
}

impl LogNormal {
    /// Construct from the underlying normal's parameters.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        LogNormal { mu, sigma }
    }

    /// Construct a log-normal with the given *median* and a shape parameter
    /// sigma. The median of a log-normal is `exp(mu)`, which is a far more
    /// intuitive handle when calibrating to a CDF plot.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
}

/// Pareto (type I) distribution with scale `xm > 0` and shape `alpha > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    /// Scale (minimum value).
    pub xm: f64,
    /// Tail index; smaller means heavier tail.
    pub alpha: f64,
}

impl Pareto {
    /// Construct a Pareto distribution.
    pub fn new(xm: f64, alpha: f64) -> Self {
        assert!(xm > 0.0 && alpha > 0.0, "xm and alpha must be positive");
        Pareto { xm, alpha }
    }
}

impl Sample for Pareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse transform: x = xm / U^(1/alpha), U in (0, 1].
        let u = 1.0 - rng.unit();
        self.xm / u.powf(1.0 / self.alpha)
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate parameter; must be positive.
    pub lambda: f64,
}

impl Exponential {
    /// Construct from a rate.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        Exponential { lambda }
    }

    /// Construct from a mean (`1/lambda`).
    pub fn from_mean(mean: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        Exponential::new(1.0 / mean)
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = 1.0 - rng.unit();
        -u.ln() / self.lambda
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Sampling uses the precomputed CDF (O(log n) per draw), which is fine at
/// the corpus sizes this workspace generates (thousands of items).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

/// Why a [`Zipf`] construction was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZipfError {
    /// `n == 0`: a distribution over zero ranks cannot draw anything.
    NoRanks,
    /// Exponent was negative, NaN, or infinite.
    InvalidExponent(f64),
}

impl std::fmt::Display for ZipfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZipfError::NoRanks => write!(f, "Zipf needs at least one rank"),
            ZipfError::InvalidExponent(s) => {
                write!(f, "Zipf exponent must be finite and non-negative, got {s}")
            }
        }
    }
}

impl std::error::Error for ZipfError {}

impl Zipf {
    /// Construct a Zipf distribution over `n >= 1` ranks with exponent
    /// `s >= 0` (s = 0 is uniform).
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (`n == 0`, negative/NaN/infinite
    /// exponent). Callers with untrusted parameters should use
    /// [`Zipf::try_new`].
    pub fn new(n: usize, s: f64) -> Self {
        Zipf::try_new(n, s).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects `n == 0` and non-finite or negative
    /// exponents with a typed error instead of panicking mid-generation.
    pub fn try_new(n: usize, s: f64) -> Result<Self, ZipfError> {
        if n == 0 {
            return Err(ZipfError::NoRanks);
        }
        if !s.is_finite() || s < 0.0 {
            return Err(ZipfError::InvalidExponent(s));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Ok(Zipf { cdf })
    }

    /// Probability mass of a zero-based rank (the share of draws that
    /// land on it). Returns 0.0 for out-of-range ranks.
    pub fn mass(&self, rank: usize) -> f64 {
        match rank {
            0 => self.cdf.first().copied().unwrap_or(0.0),
            r if r < self.cdf.len() => self.cdf[r] - self.cdf[r - 1],
            _ => 0.0,
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is over zero ranks (never true by
    /// construction, provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// An empirical (weighted discrete) distribution over `T`.
#[derive(Debug, Clone)]
pub struct Empirical<T> {
    items: Vec<T>,
    weights: Vec<f64>,
    /// Sum of finite positive weights, precomputed with the exact
    /// summation [`SimRng::pick_weighted`] performs per draw.
    total: f64,
}

impl<T> Empirical<T> {
    /// Build from `(item, weight)` pairs. Weights must be non-negative and
    /// at least one must be positive.
    pub fn new(pairs: Vec<(T, f64)>) -> Self {
        assert!(
            pairs.iter().any(|(_, w)| *w > 0.0),
            "at least one weight must be positive"
        );
        let (items, weights): (Vec<T>, Vec<f64>) = pairs.into_iter().unzip();
        let total = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        Empirical {
            items,
            weights,
            total,
        }
    }

    /// Draw a reference to one item.
    pub fn sample<'a>(&'a self, rng: &mut SimRng) -> &'a T {
        let idx = rng
            .pick_weighted_with_total(&self.weights, self.total)
            .expect("Empirical invariant: positive total weight");
        &self.items[idx]
    }

    /// All items with their weights.
    pub fn iter(&self) -> impl Iterator<Item = (&T, f64)> {
        self.items.iter().zip(self.weights.iter().copied())
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no items (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xE7C0_4E5E)
    }

    #[test]
    fn lognormal_median_matches() {
        let d = LogNormal::from_median(100.0, 1.0);
        let mut r = rng();
        let mut samples: Vec<f64> = (0..20_001).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((80.0..125.0).contains(&median), "median = {median}");
    }

    #[test]
    fn lognormal_always_positive() {
        let d = LogNormal::new(0.0, 3.0);
        let mut r = rng();
        assert!((0..5_000).all(|_| d.sample(&mut r) > 0.0));
    }

    #[test]
    fn pareto_respects_scale() {
        let d = Pareto::new(10.0, 2.0);
        let mut r = rng();
        assert!((0..5_000).all(|_| d.sample(&mut r) >= 10.0));
    }

    #[test]
    fn pareto_mean_close_to_theory() {
        // Mean = alpha*xm/(alpha-1) = 2*10/1 = 20 for alpha=2, xm=10.
        let d = Pareto::new(10.0, 2.0);
        let mut r = rng();
        let n = 200_000;
        let mean = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((18.0..22.5).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn exponential_mean_close_to_theory() {
        let d = Exponential::from_mean(5.0);
        let mut r = rng();
        let n = 50_000;
        let mean = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((4.8..5.2).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let d = Zipf::new(100, 1.0);
        assert!(d.mass(0) > d.mass(10));
        assert!(d.mass(10) > d.mass(90));
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let d = Zipf::new(4, 0.0);
        for rank in 0..4 {
            assert!((d.mass(rank) - 0.25).abs() < 1e-12, "rank {rank}");
        }
    }

    #[test]
    fn zipf_single_rank() {
        let d = Zipf::new(1, 1.5);
        assert_eq!(d.mass(0), 1.0);
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn empirical_zero_weight_never_drawn() {
        let d = Empirical::new(vec![("never", 0.0), ("always", 1.0)]);
        let mut r = rng();
        for _ in 0..1_000 {
            assert_eq!(*d.sample(&mut r), "always");
        }
    }

    #[test]
    fn empirical_proportions() {
        let d = Empirical::new(vec![("a", 1.0), ("b", 4.0)]);
        let mut r = rng();
        let hits_b = (0..10_000).filter(|_| *d.sample(&mut r) == "b").count();
        assert!((7_600..8_400).contains(&hits_b), "hits_b = {hits_b}");
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empirical_rejects_all_zero() {
        let _ = Empirical::new(vec![("a", 0.0)]);
    }

    #[test]
    fn zipf_try_new_rejects_zero_ranks() {
        assert_eq!(Zipf::try_new(0, 1.0).unwrap_err(), ZipfError::NoRanks);
    }

    #[test]
    fn zipf_try_new_rejects_negative_exponent() {
        assert_eq!(
            Zipf::try_new(10, -0.5).unwrap_err(),
            ZipfError::InvalidExponent(-0.5)
        );
    }

    #[test]
    fn zipf_try_new_rejects_nan_and_infinite_exponent() {
        assert!(matches!(
            Zipf::try_new(10, f64::NAN),
            Err(ZipfError::InvalidExponent(_))
        ));
        assert!(matches!(
            Zipf::try_new(10, f64::INFINITY),
            Err(ZipfError::InvalidExponent(_))
        ));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_new_still_panics_on_zero_ranks() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn zipf_mass_sums_to_one_and_decreases() {
        let z = Zipf::new(8, 1.2);
        let total: f64 = (0..8).map(|r| z.mass(r)).sum();
        assert!((total - 1.0).abs() < 1e-12, "total = {total}");
        for r in 1..8 {
            assert!(z.mass(r) < z.mass(r - 1), "mass must decrease with rank");
        }
        assert_eq!(z.mass(8), 0.0, "out-of-range rank has zero mass");
    }
}
