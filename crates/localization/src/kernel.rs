//! Lane-packed grid-update kernels.
//!
//! The Bayesian grid update is the per-robot hot path: every beacon
//! multiplies a radial constraint into a 10⁴-cell posterior. This module
//! holds the inner loops of that update on stable Rust with no
//! dependencies, no `unsafe`, and no `std::simd` — the loops are *shaped*
//! so LLVM's auto-vectorizer turns every step, including the profile
//! table lookup, into packed instructions (`vsqrtpd`/`vgatherqpd`/FMA on
//! AVX-512 with `-C target-cpu=native`).
//!
//! Three tricks make the whole loop vectorizable where a naive
//! formulation stays scalar:
//!
//! 1. **No int casts.** Rust's saturating `f64 as usize` blocks the loop
//!    vectorizer outright. The lattice coordinate is clamped in the
//!    *float* domain (`t.min(lastf)` — `t` is non-negative by
//!    construction) and converted to an index with the 2⁵² magic-bias
//!    trick: for integer-valued `tf ∈ [0, 2⁵²)`, the low mantissa bits of
//!    `tf + 2⁵²` are exactly `tf`, so `(tf + P52).to_bits() & mask` is a
//!    pure add/bitcast/and chain.
//! 2. **Power-of-two padded SoA tables** ([`LaneTable`]): `& mask`
//!    indexing lets the optimizer prove in-bounds without per-lane branch
//!    checks, and 8-byte elements are what hardware gathers load.
//! 3. **`#[inline(never)]`.** Inlined into a large caller frame the same
//!    loop fails vectorization; keeping the kernel a standalone function
//!    preserves the codegen. (At ~10⁴ iterations per call the call cost
//!    is noise.)
//!
//! # Bit-identity contract
//!
//! [`radial_product_row`] computes, per cell, the exact value the scalar
//! reference loop ([`PositionGrid::apply_radial_constraint_reference`])
//! computes — `cell · lerp(profile, √(dx² + dy²) / step)`. The delta table
//! caches `fl(v[i+1] − v[i])`, the very difference the scalar path
//! evaluates inline; in the interior the float-clamped coordinate and
//! fraction are the same values the scalar index computation produces, and
//! in the clamp region both paths multiply a non-negative finite fraction
//! by the zero sentinel delta, adding an exact `+0.0`. The lane kernel is
//! therefore **bit-identical** to the scalar loop cell for cell for every
//! finite lattice coordinate — i.e. any physically representable
//! geometry. (An infinite coordinate needs cell-to-beacon distances
//! beyond ~1e154 m; there the scalar loop propagates NaN while the lane
//! kernel clamps.) That is what lets the lane kernel be the only
//! production path while pinned-seed golden traces stay byte-identical.
//!
//! [`PositionGrid::apply_radial_constraint_reference`]: crate::grid::PositionGrid::apply_radial_constraint_reference

use cocoa_net::calibration::LaneTable;

/// 2⁵² — the magic bias for branchless f64 → index extraction: for an
/// integer-valued `tf` in `[0, 2⁵²)`, the low mantissa bits of `tf + P52`
/// are exactly `tf`.
const P52: f64 = 4503599627370496.0;

/// One grid row of the radial update:
/// `out[i] = cells[i] · lerp(table, √(dx2[i] + dy2) · inv_step)`.
///
/// Fully auto-vectorized (packed sqrt, gathers, FMA) via the float-domain
/// clamp + magic-bias indexing described in the module docs, and
/// bit-identical to the scalar reference expression for finite
/// coordinates. Kept out-of-line so the surrounding caller can't break
/// the vectorizable codegen.
///
/// # Panics
///
/// Panics if `cells` or `dx2` are shorter than `out`.
#[inline(never)]
pub fn radial_product_row(
    out: &mut [f64],
    cells: &[f64],
    dx2: &[f64],
    dy2: f64,
    inv_step: f64,
    table: &LaneTable,
) {
    let n = out.len();
    let cells = &cells[..n];
    let dx2 = &dx2[..n];
    let val = table.val();
    let del = table.del();
    let lastf = table.lastf();
    assert!(val.len().is_power_of_two());
    assert_eq!(val.len(), del.len());
    let mask = val.len() - 1;
    for ((o, &c), &d) in out.iter_mut().zip(cells).zip(dx2) {
        let t = ((d + dy2).sqrt() * inv_step).min(lastf);
        let tf = t.trunc();
        let j = ((tf + P52).to_bits() as usize) & mask;
        *o = c * (val[j] + del[j] * (t - tf));
    }
}

/// One grid row of a *fused* radial update: multiplies one beacon's
/// constraint into an already-initialized scratch row
/// (`out[i] *= lerp(table, √(dx2[i] + dy2) · inv_step)`). The fused window
/// pass seeds scratch with the posterior once, then folds every beacon of
/// the window through this kernel row by row — the posterior itself is
/// loaded and stored once per window.
///
/// # Panics
///
/// Panics if `dx2` is shorter than `out`.
#[inline(never)]
pub fn radial_product_row_mul(
    out: &mut [f64],
    dx2: &[f64],
    dy2: f64,
    inv_step: f64,
    table: &LaneTable,
) {
    let n = out.len();
    let dx2 = &dx2[..n];
    let val = table.val();
    let del = table.del();
    let lastf = table.lastf();
    assert!(val.len().is_power_of_two());
    assert_eq!(val.len(), del.len());
    let mask = val.len() - 1;
    for (o, &d) in out.iter_mut().zip(dx2) {
        let t = ((d + dy2).sqrt() * inv_step).min(lastf);
        let tf = t.trunc();
        let j = ((tf + P52).to_bits() as usize) & mask;
        *o *= val[j] + del[j] * (t - tf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar linear interpolation into a [`LaneTable`] at the pre-scaled
    /// lattice coordinate `t = d / step` — the reference expression the
    /// lane kernels reproduce. Clamping is an index `min`; the zero
    /// sentinel delta makes clamped lookups return the final sample
    /// exactly.
    fn lerp_table(table: &LaneTable, t: f64) -> f64 {
        let val = table.val();
        let del = table.del();
        let i = (t as usize).min(table.lastf() as usize);
        val[i] + del[i] * (t - i as f64)
    }

    #[test]
    fn lerp_table_matches_inline_interpolation() {
        let values = [1.0, 0.5, 0.25, 0.125, 0.0625];
        let table = LaneTable::from_values(&values);
        for k in 0..200 {
            let t = k as f64 * 0.05;
            let i = t as usize;
            let expected = if i + 1 >= values.len() {
                values[values.len() - 1]
            } else {
                values[i] + (values[i + 1] - values[i]) * (t - i as f64)
            };
            let got = lerp_table(&table, t);
            assert_eq!(got.to_bits(), expected.to_bits(), "t = {t}");
        }
    }

    #[test]
    fn row_kernel_matches_scalar_expression_bitwise() {
        let values: Vec<f64> = (0..64).map(|k| (-(k as f64) * 0.11).exp() + 1e-6).collect();
        let table = LaneTable::from_values(&values);
        let inv_step = 1.0 / 0.35;
        let n = 13; // odd length: no lane-alignment assumption
        let cells: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 7.0)).collect();
        let dx2: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7 - 9.0).powi(2)).collect();
        let dy2 = 12.25;
        let mut out = vec![0.0; n];
        radial_product_row(&mut out, &cells, &dx2, dy2, inv_step, &table);
        for i in 0..n {
            let t = (dx2[i] + dy2).sqrt() * inv_step;
            let expected = cells[i] * lerp_table(&table, t);
            assert_eq!(out[i].to_bits(), expected.to_bits(), "cell {i}");
        }
    }

    #[test]
    fn row_kernel_clamps_like_scalar_reference() {
        // Distances far past the lattice end: both the clamped lane lookup
        // and the index-min scalar reference must return the final sample.
        let values: Vec<f64> = (0..7).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let table = LaneTable::from_values(&values);
        let n = 9;
        let cells = vec![0.125; n];
        let dx2: Vec<f64> = (0..n).map(|i| (1e3 + i as f64).powi(2)).collect();
        let mut out = vec![0.0; n];
        radial_product_row(&mut out, &cells, &dx2, 0.0, 1.0, &table);
        for (i, &o) in out.iter().enumerate() {
            let expected = 0.125 * values[values.len() - 1];
            assert_eq!(o.to_bits(), expected.to_bits(), "cell {i}");
        }
    }

    #[test]
    fn mul_kernel_composes_like_two_products() {
        let values: Vec<f64> = (0..32).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let table = LaneTable::from_values(&values);
        let inv_step = 2.0;
        let n = 10;
        let cells = vec![0.01; n];
        let dx2: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut a = vec![0.0; n];
        radial_product_row(&mut a, &cells, &dx2, 1.0, inv_step, &table);
        radial_product_row_mul(&mut a, &dx2, 4.0, inv_step, &table);
        for i in 0..n {
            let w1 = a[i] / cells[i];
            let direct = lerp_table(&table, (dx2[i] + 1.0).sqrt() * inv_step)
                * lerp_table(&table, (dx2[i] + 4.0).sqrt() * inv_step);
            assert!((w1 - direct).abs() <= 1e-15 * direct.abs() + f64::MIN_POSITIVE);
        }
    }
}
