//! Cost-weighted chunk plans.
//!
//! A [`ChunkPlan`] splits an index range `0..len` into contiguous chunks whose
//! *cost* (not item count) is roughly equal, given a monotone prefix-sum of
//! per-item costs. For the MCMC sweep the cost of evaluating vertex `v` is
//! proportional to its degree, and the CSR offset arrays are exactly the
//! degree prefix-sum — so boundaries come from `O(chunks · log n)` binary
//! searches with no per-vertex work.

use std::ops::Range;

/// Contiguous chunking of `0..len` with per-chunk cost weights.
///
/// Invariants: `bounds` is strictly increasing, starts at 0, ends at `len`;
/// `weights.len() + 1 == bounds.len()` (both empty when `len == 0`).
#[derive(Debug, Clone)]
pub struct ChunkPlan {
    bounds: Vec<usize>,
    weights: Vec<u64>,
}

impl ChunkPlan {
    /// Equal-item-count chunking (each item costs 1).
    pub fn even(len: usize, target_chunks: usize) -> Self {
        Self::from_prefix(len, target_chunks, |i| i as u64)
    }

    /// Chunking from an explicit per-item cost slice.
    pub fn from_costs(costs: &[u64], target_chunks: usize) -> Self {
        let mut prefix = Vec::with_capacity(costs.len() + 1);
        let mut acc = 0u64;
        prefix.push(0u64);
        for &c in costs {
            acc = acc.saturating_add(c);
            prefix.push(acc);
        }
        Self::from_prefix(costs.len(), target_chunks, |i| prefix[i])
    }

    /// Chunking from a monotone cost prefix-sum: `prefix(i)` is the total cost
    /// of items `0..i` (`prefix(0) == 0`). Boundaries are placed at the
    /// `j/target_chunks` quantiles of total cost via binary search, so a
    /// single high-cost item (a hub vertex) gets its own small chunk instead
    /// of dragging its neighbours' work along with it.
    pub fn from_prefix(len: usize, target_chunks: usize, prefix: impl Fn(usize) -> u64) -> Self {
        if len == 0 {
            return Self {
                bounds: vec![0],
                weights: Vec::new(),
            };
        }
        let k = target_chunks.clamp(1, len);
        let total = prefix(len);
        if total == 0 {
            // Degenerate all-zero costs: fall back to item-count splitting.
            return Self::even_counts(len, k);
        }
        let mut bounds = Vec::with_capacity(k + 1);
        let mut weights = Vec::with_capacity(k);
        bounds.push(0usize);
        let mut start = 0usize;
        for j in 1..=k {
            if start >= len {
                break;
            }
            let goal = (u128::from(total) * j as u128 / k as u128) as u64;
            // Smallest end in (start, len] with prefix(end) >= goal.
            let mut lo = start + 1;
            let mut hi = len;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if prefix(mid) >= goal {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let end = if j == k { len } else { lo };
            if end <= start {
                continue; // a hub already swallowed this quantile
            }
            bounds.push(end);
            weights.push(prefix(end) - prefix(start));
            start = end;
        }
        Self { bounds, weights }
    }

    fn even_counts(len: usize, k: usize) -> Self {
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(0usize);
        let mut weights = Vec::with_capacity(k);
        for j in 1..=k {
            let end = len * j / k;
            if end <= bounds[bounds.len() - 1] {
                continue;
            }
            weights.push((end - bounds[bounds.len() - 1]) as u64);
            bounds.push(end);
        }
        Self { bounds, weights }
    }

    /// Total number of items covered by the plan.
    #[inline]
    pub fn len(&self) -> usize {
        self.bounds[self.bounds.len() - 1]
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.weights.len()
    }

    /// Index range of chunk `c`.
    #[inline]
    pub fn chunk(&self, c: usize) -> Range<usize> {
        self.bounds[c]..self.bounds[c + 1]
    }

    /// Cost weight of chunk `c`.
    #[inline]
    pub fn weight(&self, c: usize) -> u64 {
        self.weights[c]
    }

    /// Sum of all chunk weights.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_invariants(plan: &ChunkPlan, len: usize) {
        assert_eq!(plan.bounds[0], 0);
        assert_eq!(plan.len(), len);
        assert_eq!(plan.weights.len() + 1, plan.bounds.len());
        for w in plan.bounds.windows(2) {
            assert!(w[0] < w[1], "bounds not strictly increasing: {:?}", w);
        }
    }

    #[test]
    fn even_covers_range() {
        for len in [0usize, 1, 2, 7, 100] {
            for k in [1usize, 2, 8, 200] {
                let plan = ChunkPlan::even(len, k);
                check_invariants(&plan, len);
                let total: usize = (0..plan.num_chunks()).map(|c| plan.chunk(c).len()).sum();
                assert_eq!(total, len);
            }
        }
    }

    #[test]
    fn hub_gets_isolated_chunk() {
        // One hub of cost 1000 among 99 items of cost 1. Equal-count chunking
        // at 8 chunks puts the hub with ~12 others; cost-weighted chunking
        // bounds max chunk weight near total/k.
        let mut costs = vec![1u64; 100];
        costs[40] = 1000;
        let weighted = ChunkPlan::from_costs(&costs, 8);
        check_invariants(&weighted, 100);
        assert_eq!(weighted.total_weight(), 1099);
        // The hub chunk necessarily weighs >= 1000, but every *other* chunk
        // must stay near the quantile step (1099/8 ~ 137).
        let non_hub_max = (0..weighted.num_chunks())
            .filter(|&c| !weighted.chunk(c).contains(&40))
            .map(|c| weighted.weight(c))
            .max()
            .unwrap_or(0);
        assert!(non_hub_max <= 150, "non-hub chunk too heavy: {non_hub_max}");
        // Static equal-count chunking drags 1/8 of the items along with the hub.
        let even = ChunkPlan::even(100, 8);
        let even_hub_weight: u64 = (0..even.num_chunks())
            .filter(|&c| even.chunk(c).contains(&40))
            .flat_map(|c| even.chunk(c))
            .map(|i| costs[i])
            .sum();
        assert!(even_hub_weight >= 1000 + 10);
    }

    #[test]
    fn zero_costs_fall_back_to_counts() {
        let plan = ChunkPlan::from_costs(&[0u64; 64], 4);
        check_invariants(&plan, 64);
        assert_eq!(plan.num_chunks(), 4);
        for c in 0..4 {
            assert_eq!(plan.chunk(c).len(), 16);
        }
    }

    #[test]
    fn more_chunks_than_items_clamps() {
        let plan = ChunkPlan::from_costs(&[5, 5, 5], 16);
        check_invariants(&plan, 3);
        assert_eq!(plan.num_chunks(), 3);
    }

    #[test]
    fn prefix_matches_costs() {
        let costs = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let plan_a = ChunkPlan::from_costs(&costs, 3);
        let mut prefix = vec![0u64];
        for &c in &costs {
            prefix.push(prefix[prefix.len() - 1] + c);
        }
        let plan_b = ChunkPlan::from_prefix(costs.len(), 3, |i| prefix[i]);
        assert_eq!(plan_a.bounds, plan_b.bounds);
        assert_eq!(plan_a.weights, plan_b.weights);
        assert_eq!(plan_a.total_weight(), 31);
    }
}
