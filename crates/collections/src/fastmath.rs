//! Shared entropy helper and the precomputed `ln` table behind the
//! delta-MDL kernel.
//!
//! Delta-MDL evaluation is a sum of `x·ln x` and `b·ln(b/(d_out·d_in))`
//! terms whose arguments are overwhelmingly *small integer counts* (sparse
//! B-matrix cells and block degrees). A table of `ln i` for `i` below
//! [`LN_TABLE_CAP`] turns each libm `ln` call in the hot loop into a load —
//! and because every table entry is computed with the very same `f64::ln`,
//! a lookup for an in-range integer argument is *bit-identical* to calling
//! `ln` directly. Non-integer or above-cap arguments fall back to libm, so
//! the table never changes a result, only its cost.
//!
//! The table is built lazily on first use.

use std::sync::OnceLock;

/// Number of integer entries in the `ln` table (the exclusive cap on
/// table-served arguments): 2^14 entries, 128 KiB. Block degrees at
/// steady state stay below it on the benchmark graphs, so nearly every
/// hot-path `ln` is a load; a larger table only adds resident memory
/// (see DESIGN.md §15 for the measurements behind the choice).
pub const LN_TABLE_CAP: usize = 1 << 14;

/// Exact `x·ln x` with the entropy convention `0·ln 0 = 0`, the `ln`
/// taken from [`ln_lookup`].
#[inline]
pub fn xlnx(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x * ln_lookup(x)
    }
}

static LN_TABLE: OnceLock<Box<[f64]>> = OnceLock::new();

/// The process-wide table: `ln i` for `0 <= i < LN_TABLE_CAP` (`ln 0` is
/// `-inf`, matching `(0.0).ln()`).
fn ln_table() -> &'static [f64] {
    LN_TABLE.get_or_init(|| (0..LN_TABLE_CAP).map(|i| (i as f64).ln()).collect())
}

/// `ln x` — a table load when `x` is an integer below [`LN_TABLE_CAP`],
/// `f64::ln` otherwise. Bit-identical to `x.ln()` in both cases.
#[inline]
pub fn ln_lookup(x: f64) -> f64 {
    let table = ln_table();
    let i = x as usize;
    if i < table.len() && i as f64 == x {
        table[i]
    } else {
        x.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_libm_bitwise_across_integer_domain() {
        for i in 0..LN_TABLE_CAP {
            let x = i as f64;
            assert_eq!(
                ln_lookup(x).to_bits(),
                x.ln().to_bits(),
                "ln table diverges at {i}"
            );
        }
    }

    #[test]
    fn zero_entries_follow_conventions() {
        assert_eq!(ln_lookup(0.0), f64::NEG_INFINITY);
        assert_eq!(xlnx(0.0), 0.0);
        assert_eq!(xlnx(-3.0), 0.0);
    }

    #[test]
    fn non_integer_and_above_cap_fall_back_to_libm() {
        let above = [LN_TABLE_CAP, LN_TABLE_CAP + 17, 1 << 20].map(|i| i as f64);
        for &x in [0.5, 1.75, std::f64::consts::PI, 1e7, 1e300]
            .iter()
            .chain(&above)
        {
            assert_eq!(ln_lookup(x).to_bits(), x.ln().to_bits(), "x={x}");
        }
    }
}
