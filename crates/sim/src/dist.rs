//! Random distributions used by the models.
//!
//! Only `rand` itself is a sanctioned dependency, so the handful of
//! continuous distributions the simulation needs (Gaussian shadowing and
//! odometry noise, exponential fade depths) are implemented here from
//! first principles: Box–Muller for the normal, inverse-CDF for the
//! exponential. Both are exact methods, not approximations.

use rand::Rng;

/// A normal (Gaussian) distribution `N(mean, sigma²)`.
///
/// # Examples
///
/// ```
/// use cocoa_sim::dist::Normal;
/// use cocoa_sim::rng::SeedSplitter;
///
/// let n = Normal::new(5.0, 2.0);
/// let mut rng = SeedSplitter::new(1).stream("doc", 0);
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sigma: f64,
}

impl Normal {
    /// Creates `N(mean, sigma²)`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is not finite.
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(mean.is_finite(), "normal mean must be finite");
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "normal sigma must be finite and >= 0"
        );
        Normal { mean, sigma }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal::new(0.0, 1.0)
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one sample: the mean when `sigma` is zero, which draws
    /// nothing, otherwise the [`transform`](Self::transform) of the
    /// [`uniforms`](Self::uniforms) it draws.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sigma == 0.0 {
            return self.mean;
        }
        let (u1, u2) = Normal::uniforms(rng);
        self.transform(u1, u2)
    }

    /// The two uniforms a sample with a positive sigma draws, in order:
    /// `u1` in (0, 1], so `ln(u1)` is finite, then `u2` in [0, 1).
    pub fn uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
        let u1 = 1.0 - rng.gen::<f64>();
        let u2 = rng.gen();
        (u1, u2)
    }

    /// The Box–Muller transform: the sample for the uniforms
    /// [`uniforms`](Self::uniforms) drew.
    pub fn transform(&self, u1: f64, u2: f64) -> f64 {
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.mean + self.sigma * r * theta.cos()
    }

    /// The probability density at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is zero (the density is degenerate).
    pub fn pdf(&self, x: f64) -> f64 {
        assert!(self.sigma > 0.0, "pdf of a degenerate normal");
        let z = (x - self.mean) / self.sigma;
        (-0.5 * z * z).exp() / (self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }
}

/// An exponential distribution with the given mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean` (rate `1/mean`).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn new(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive"
        );
        Exponential { mean }
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one sample: the [`transform`](Self::transform) of the
    /// [`uniform`](Self::uniform) it draws.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.transform(Exponential::uniform(rng))
    }

    /// The uniform a sample draws, in (0, 1], so `ln(u)` is finite.
    pub fn uniform<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        1.0 - rng.gen::<f64>()
    }

    /// The inverse CDF: the sample for the uniform
    /// [`uniform`](Self::uniform) drew.
    pub fn transform(&self, u: f64) -> f64 {
        -self.mean * u.ln()
    }
}

/// Draws from the uniform distribution over `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi` or the bounds are not finite.
pub fn uniform<R: Rng + ?Sized>(lo: f64, hi: f64, rng: &mut R) -> f64 {
    assert!(
        lo.is_finite() && hi.is_finite() && lo < hi,
        "invalid uniform bounds [{lo}, {hi})"
    );
    lo + (hi - lo) * rng.gen::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedSplitter;

    fn moments(samples: &[f64]) -> (f64, f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        let sd = var.sqrt();
        let skew = samples
            .iter()
            .map(|s| ((s - mean) / sd).powi(3))
            .sum::<f64>()
            / n;
        (mean, sd, skew)
    }

    #[test]
    fn normal_moments_match() {
        let mut rng = SeedSplitter::new(3).stream("dist", 0);
        let d = Normal::new(-52.0, 3.0);
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, sd, skew) = moments(&samples);
        assert!((mean + 52.0).abs() < 0.05, "mean {mean}");
        assert!((sd - 3.0).abs() < 0.05, "sd {sd}");
        assert!(skew.abs() < 0.05, "skew {skew}");
    }

    #[test]
    fn normal_zero_sigma_is_constant() {
        let mut rng = SeedSplitter::new(3).stream("dist", 1);
        let d = Normal::new(7.0, 0.0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 7.0);
        }
    }

    #[test]
    fn normal_pdf_is_correct_shape() {
        let d = Normal::new(0.0, 1.0);
        // Peak value of the standard normal.
        assert!((d.pdf(0.0) - 0.398_942_280_4).abs() < 1e-9);
        // Symmetry.
        assert!((d.pdf(1.3) - d.pdf(-1.3)).abs() < 1e-12);
        // Monotone decay in the tail.
        assert!(d.pdf(1.0) > d.pdf(2.0));
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn normal_rejects_negative_sigma() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    fn exponential_moments_match() {
        let mut rng = SeedSplitter::new(4).stream("dist", 0);
        let d = Exponential::new(6.0);
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, sd, skew) = moments(&samples);
        assert!((mean - 6.0).abs() < 0.1, "mean {mean}");
        assert!((sd - 6.0).abs() < 0.15, "sd {sd}");
        // Exponential skewness is 2.
        assert!((skew - 2.0).abs() < 0.2, "skew {skew}");
        assert!(samples.iter().all(|&s| s >= 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_mean() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = SeedSplitter::new(5).stream("dist", 0);
        for _ in 0..10_000 {
            let x = uniform(0.1, 2.0, &mut rng);
            assert!((0.1..2.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "invalid uniform bounds")]
    fn uniform_rejects_inverted() {
        let mut rng = SeedSplitter::new(5).stream("dist", 1);
        let _ = uniform(2.0, 1.0, &mut rng);
    }
}
