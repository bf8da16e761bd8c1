//! The delta-MDL term, with its `ln`s served from a table.
//!
//! The per-proposal delta evaluation spends most of its time in
//! `b·ln(b/(d_out·d_in))` terms over sparse B-matrix entries whose
//! arguments are integer counts and block degrees. [`ll_term`] keeps the
//! exact association of [`crate::mdl::log_likelihood_term`] — the libm
//! reference that full-MDL recomputation uses — and takes each `ln` from
//! the precomputed table in [`hsbp_collections::fastmath`]. Table entries
//! are computed with the same `f64::ln`, and non-integer or above-cap
//! arguments fall back to libm, so the term is bit-identical to the
//! reference for every argument: the table changes the *cost* of a term,
//! never its value.

use hsbp_collections::fastmath::ln_lookup;

/// `B_rs · ln(B_rs / (d_out_r · d_in_s))`, zero for an empty cell, with
/// every `ln` served from the table.
#[inline]
pub fn ll_term(b: f64, d_out: f64, d_in: f64) -> f64 {
    if b <= 0.0 {
        0.0
    } else {
        debug_assert!(
            d_out > 0.0 && d_in > 0.0,
            "non-empty cell with zero block degree"
        );
        // Same association as the reference: b * (ln b - ln d_out - ln d_in).
        b * (ln_lookup(b) - ln_lookup(d_out) - ln_lookup(d_in))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdl::log_likelihood_term;
    use hsbp_collections::fastmath::LN_TABLE_CAP;

    fn assert_same_bits(b: f64, d_out: f64, d_in: f64) {
        assert_eq!(
            ll_term(b, d_out, d_in).to_bits(),
            log_likelihood_term(b, d_out, d_in).to_bits(),
            "ll_term diverged at ({b}, {d_out}, {d_in})"
        );
    }

    #[test]
    fn ll_term_matches_libm_reference_bitwise() {
        // Degrees on both sides of the table cap: served, last served,
        // first fallback, and far above.
        let cap = LN_TABLE_CAP as f64;
        let degrees = [1.0, cap - 1.0, cap, 65_535.0, 1e6];
        // Every table-served cell count against every degree pair.
        for b in 0..LN_TABLE_CAP {
            for &d_out in &degrees {
                for &d_in in &degrees {
                    assert_same_bits(b as f64, d_out, d_in);
                }
            }
        }
        // Cell counts past the cap fall back to libm.
        for &b in &[cap, 65_535.0, 1e6] {
            for &d in &degrees {
                assert_same_bits(b, d, 1e6);
            }
        }
    }

    #[test]
    fn ll_term_matches_libm_reference_on_fractional_args() {
        for &(b, d_out, d_in) in &[
            (2.5, 7.0, 9.0),
            (3.0, 6.5, 2.0),
            (0.25, 0.5, 0.75),
            (1e9 + 0.5, 2e9, 3e9),
            (-1.0, 4.0, 4.0),
        ] {
            assert_same_bits(b, d_out, d_in);
        }
    }
}
