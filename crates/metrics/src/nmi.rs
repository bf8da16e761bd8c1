//! Normalized mutual information (and friends) between two community
//! assignments.
//!
//! The paper (§4.2) computes `NMI = I(X;Y) / √(H(X)·H(Y))` between ground
//! truth and inferred memberships. Labels need not be aligned or contiguous;
//! everything is computed from the contingency table.

use hsbp_collections::fastmath;
use hsbp_collections::FxHashMap;

/// Sparse contingency table between two assignments of the same length.
struct Contingency {
    /// `(label_x, label_y) -> count`.
    joint: FxHashMap<(u32, u32), u64>,
    /// Marginal counts of X's labels.
    marginal_x: FxHashMap<u32, u64>,
    /// Marginal counts of Y's labels.
    marginal_y: FxHashMap<u32, u64>,
    n: u64,
}

impl Contingency {
    fn build(x: &[u32], y: &[u32]) -> Self {
        assert_eq!(x.len(), y.len(), "assignments must cover the same vertices");
        let mut joint: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        let mut marginal_x: FxHashMap<u32, u64> = FxHashMap::default();
        let mut marginal_y: FxHashMap<u32, u64> = FxHashMap::default();
        for (&a, &b) in x.iter().zip(y) {
            *joint.entry((a, b)).or_insert(0) += 1;
            *marginal_x.entry(a).or_insert(0) += 1;
            *marginal_y.entry(b).or_insert(0) += 1;
        }
        Self {
            joint,
            marginal_x,
            marginal_y,
            n: x.len() as u64,
        }
    }
}

fn entropy_of_counts(counts: impl Iterator<Item = u64>, n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    counts
        .filter(|&c| c > 0)
        .map(|c| {
            let p = c as f64 / n;
            -fastmath::xlnx(p)
        })
        .sum()
}

/// Shannon entropy `H(X)` (nats) of an assignment's label distribution.
pub fn entropy(x: &[u32]) -> f64 {
    let mut counts: FxHashMap<u32, u64> = FxHashMap::default();
    for &a in x {
        *counts.entry(a).or_insert(0) += 1;
    }
    entropy_of_counts(counts.into_values(), x.len() as u64)
}

/// Mutual information `I(X;Y)` (nats) between two assignments.
pub fn mutual_information(x: &[u32], y: &[u32]) -> f64 {
    let table = Contingency::build(x, y);
    if table.n == 0 {
        return 0.0;
    }
    let n = table.n as f64;
    let mut info = 0.0;
    for (&(a, b), &c) in &table.joint {
        let p_xy = c as f64 / n;
        let p_x = table.marginal_x[&a] as f64 / n;
        let p_y = table.marginal_y[&b] as f64 / n;
        info += p_xy * (p_xy / (p_x * p_y)).ln();
    }
    info.max(0.0) // guard tiny negative rounding
}

/// `NMI = I(X;Y) / √(H(X)·H(Y))`, in `[0, 1]`.
///
/// Convention for degenerate cases: if both assignments are constant the
/// partitions are identical up to relabelling, NMI = 1; if exactly one is
/// constant there is no shared information to normalise, NMI = 0.
pub fn nmi(x: &[u32], y: &[u32]) -> f64 {
    assert_eq!(x.len(), y.len(), "assignments must cover the same vertices");
    let hx = entropy(x);
    let hy = entropy(y);
    if hx == 0.0 && hy == 0.0 {
        return 1.0;
    }
    if hx == 0.0 || hy == 0.0 {
        return 0.0;
    }
    (mutual_information(x, y) / (hx * hy).sqrt()).clamp(0.0, 1.0)
}

/// Adjusted Rand index between two assignments (chance-corrected pair
/// agreement; extension beyond the paper's metrics).
pub fn adjusted_rand_index(x: &[u32], y: &[u32]) -> f64 {
    let table = Contingency::build(x, y);
    let n = table.n;
    if n < 2 {
        return 1.0;
    }
    fn choose2(k: u64) -> f64 {
        (k as f64) * (k as f64 - 1.0) / 2.0
    }
    let sum_joint: f64 = table.joint.values().map(|&c| choose2(c)).sum();
    let sum_x: f64 = table.marginal_x.values().map(|&c| choose2(c)).sum();
    let sum_y: f64 = table.marginal_y.values().map(|&c| choose2(c)).sum();
    let total = choose2(n);
    let expected = sum_x * sum_y / total;
    let max_index = 0.5 * (sum_x + sum_y);
    if (max_index - expected).abs() < 1e-12 {
        return 1.0;
    }
    (sum_joint - expected) / (max_index - expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_assignments_nmi_one() {
        let x = vec![0, 0, 1, 1, 2, 2];
        assert!((nmi(&x, &x) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand_index(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relabeled_assignments_nmi_one() {
        let x = vec![0, 0, 1, 1, 2, 2];
        let y = vec![5, 5, 9, 9, 7, 7];
        assert!((nmi(&x, &y) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand_index(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_assignments_nmi_zero() {
        // y splits each x-class evenly: I(X;Y) = 0.
        let x = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let y = vec![0, 1, 0, 1, 0, 1, 0, 1];
        assert!(nmi(&x, &y) < 1e-12);
        assert!(adjusted_rand_index(&x, &y).abs() < 0.2);
    }

    #[test]
    fn constant_vs_structured() {
        let x = vec![0; 6];
        let y = vec![0, 0, 1, 1, 2, 2];
        assert_eq!(nmi(&x, &y), 0.0);
        assert_eq!(nmi(&y, &x), 0.0);
        assert_eq!(nmi(&x, &x), 1.0);
    }

    #[test]
    fn entropy_values() {
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[3, 3, 3]), 0.0);
        let h = entropy(&[0, 1]);
        assert!((h - std::f64::consts::LN_2).abs() < 1e-12);
        // Uniform over 4 labels: ln 4.
        let h4 = entropy(&[0, 1, 2, 3]);
        assert!((h4 - 4f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn mutual_information_bounds() {
        let x = vec![0, 0, 1, 1];
        let y = vec![0, 1, 1, 0];
        let i = mutual_information(&x, &y);
        assert!(i >= 0.0);
        assert!(i <= entropy(&x) + 1e-12);
    }

    #[test]
    fn partial_overlap_between_zero_and_one() {
        let x = vec![0, 0, 0, 1, 1, 1];
        let y = vec![0, 0, 1, 1, 1, 0]; // 4/6 agree
        let v = nmi(&x, &y);
        assert!(v > 0.0 && v < 1.0, "nmi = {v}");
    }

    #[test]
    fn nmi_symmetric() {
        let x = vec![0, 1, 0, 2, 1, 2, 0];
        let y = vec![1, 1, 0, 0, 2, 2, 1];
        assert!((nmi(&x, &y) - nmi(&y, &x)).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        nmi(&[0, 1], &[0]);
    }

    #[test]
    fn ari_penalises_chance() {
        // Random-looking disagreement should sit near 0, well below NMI=1.
        let x = vec![0, 0, 1, 1, 0, 1, 0, 1, 1, 0];
        let y = vec![1, 0, 1, 0, 0, 1, 1, 0, 1, 0];
        let ari = adjusted_rand_index(&x, &y);
        assert!(ari.abs() < 0.5, "ari = {ari}");
    }
}
