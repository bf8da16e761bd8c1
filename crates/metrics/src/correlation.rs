//! Pearson correlation with significance (for Fig. 3's `r²` / `p`
//! annotations).
//!
//! The p-value is the standard two-sided t-test on
//! `t = r·√((n−2)/(1−r²))` with `ν = n−2` degrees of freedom, evaluated via
//! `p = I_{ν/(ν+t²)}(ν/2, 1/2)` — the regularized incomplete beta function,
//! implemented from scratch (Lanczos log-gamma + Lentz's continued
//! fraction), since no statistics crate is available offline.

/// Result of a Pearson correlation test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correlation {
    /// Pearson correlation coefficient `r ∈ [−1, 1]`.
    pub r: f64,
    /// Coefficient of determination `r²`.
    pub r_squared: f64,
    /// Two-sided p-value of `H₀: r = 0` (NaN when `n < 3` or either input
    /// is constant).
    pub p_value: f64,
    /// Sample count.
    pub n: usize,
}

/// Pearson correlation between paired samples.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn pearson(x: &[f64], y: &[f64]) -> Correlation {
    assert_eq!(x.len(), y.len(), "paired samples required");
    let n = x.len();
    if n < 2 {
        return Correlation {
            r: f64::NAN,
            r_squared: f64::NAN,
            p_value: f64::NAN,
            n,
        };
    }
    let nf = n as f64;
    let mean_x = x.iter().sum::<f64>() / nf;
    let mean_y = y.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mean_x;
        let dy = b - mean_y;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Correlation {
            r: f64::NAN,
            r_squared: f64::NAN,
            p_value: f64::NAN,
            n,
        };
    }
    let r = (sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0);
    let r_squared = r * r;
    let p_value = if n < 3 {
        f64::NAN
    } else if (1.0 - r_squared) < 1e-15 {
        0.0
    } else {
        let df = nf - 2.0;
        let t = r * (df / (1.0 - r_squared)).sqrt();
        regularized_incomplete_beta(df / (df + t * t), df / 2.0, 0.5)
    };
    Correlation {
        r,
        r_squared,
        p_value,
        n,
    }
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0`.
pub fn ln_gamma(x: f64) -> f64 {
    // g = 7, n = 9 coefficients (Numerical Recipes / Boost parametrisation).
    const COEFFS: [f64; 9] = [
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
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized incomplete beta `I_x(a, b)` for `x ∈ [0,1]`, `a, b > 0`
/// (Lentz's modified continued fraction, as in Numerical Recipes §6.4).
pub fn regularized_incomplete_beta(x: f64, a: f64, b: f64) -> f64 {
    assert!((0.0..=1.0).contains(&x), "x out of range: {x}");
    assert!(a > 0.0 && b > 0.0);
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // Use the symmetry that keeps the continued fraction convergent.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(x, a, b) / a
    } else {
        1.0 - front * beta_cf(1.0 - x, b, a) / b
    }
}

fn beta_cf(x: f64, a: f64, b: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-30;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m_f = m as f64;
        // Even step.
        let numerator = m_f * (b - m_f) * x / ((a + 2.0 * m_f - 1.0) * (a + 2.0 * m_f));
        d = 1.0 + numerator * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + numerator / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let numerator = -(a + m_f) * (a + b + m_f) * x / ((a + 2.0 * m_f) * (a + 2.0 * m_f + 1.0));
        d = 1.0 + numerator * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + numerator / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn incomplete_beta_boundaries() {
        assert_eq!(regularized_incomplete_beta(0.0, 2.0, 3.0), 0.0);
        assert_eq!(regularized_incomplete_beta(1.0, 2.0, 3.0), 1.0);
    }

    #[test]
    fn incomplete_beta_symmetric_case() {
        // I_{0.5}(a, a) = 0.5.
        for a in [0.5, 1.0, 3.0, 10.0] {
            let v = regularized_incomplete_beta(0.5, a, a);
            assert!((v - 0.5).abs() < 1e-10, "a = {a}: {v}");
        }
    }

    #[test]
    fn incomplete_beta_uniform_case() {
        // I_x(1, 1) = x.
        for x in [0.1, 0.25, 0.7, 0.95] {
            let v = regularized_incomplete_beta(x, 1.0, 1.0);
            assert!((v - x).abs() < 1e-10);
        }
    }

    #[test]
    fn incomplete_beta_monotone() {
        let mut prev = 0.0;
        for i in 1..10 {
            let v = regularized_incomplete_beta(i as f64 / 10.0, 2.5, 4.0);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn perfect_correlation() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 3.0 * v + 1.0).collect();
        let c = pearson(&x, &y);
        assert!((c.r - 1.0).abs() < 1e-12);
        assert!(c.p_value < 1e-12);
    }

    #[test]
    fn perfect_anticorrelation() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| -v).collect();
        let c = pearson(&x, &y);
        assert!((c.r + 1.0).abs() < 1e-12);
        assert_eq!(c.r_squared, c.r * c.r);
    }

    #[test]
    fn no_correlation_high_p() {
        // Orthogonal-ish pattern.
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let y = vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let c = pearson(&x, &y);
        assert!(c.r.abs() < 0.5);
        assert!(c.p_value > 0.2, "p = {}", c.p_value);
    }

    #[test]
    fn known_p_value_spot_check() {
        // r = 0.8, n = 10 ⇒ t = 0.8·sqrt(8/0.36) = 3.771, ν = 8.
        // Two-sided p ≈ 0.0055 (standard tables).
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        // Construct y with r ≈ 0.8 exactly via regression residue pattern is
        // fiddly; instead verify the t->p mapping directly.
        let df = 8.0f64;
        let t = 0.8 * (df / (1.0 - 0.64)).sqrt();
        let p = regularized_incomplete_beta(df / (df + t * t), df / 2.0, 0.5);
        assert!((p - 0.0055).abs() < 0.001, "p = {p}");
        let _ = x;
    }

    #[test]
    fn degenerate_inputs() {
        let c = pearson(&[1.0], &[2.0]);
        assert!(c.r.is_nan());
        let c = pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]);
        assert!(c.r.is_nan(), "constant input has undefined correlation");
    }

    #[test]
    fn strong_noisy_correlation_detected() {
        // y = x + small deterministic perturbation.
        let x: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| v + ((i % 5) as f64 - 2.0))
            .collect();
        let c = pearson(&x, &y);
        assert!(c.r > 0.95);
        assert!(c.p_value < 1e-10);
    }
}
