//! The lane-packed grid-update kernel.
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
//! [`radial_product_row`] also stores each cell's unclamped coordinate,
//! and [`lookup_product_row`] runs only the lookup-and-multiply stage on
//! stored coordinates: the later receivers of one beacon frame share the
//! first one's distance field ([`BeaconField`]). A stored coordinate is
//! the very f64 the fused row computed, and the clamp, split, index and
//! interpolation that follow are the same operations in the same order,
//! so the two kernels agree bit for bit.
//!
//! Both kernels read each cell as `cells[i] · scale`: a batch of updates
//! ([`GridBatch`]) passes the previous update's `1 / total` instead of
//! writing the normalised cells back between updates. The normalised
//! value the reference loop would have stored is that very product, so
//! the update that follows sees the same bits either way; a settled
//! posterior passes `1.0`, which multiplies exactly.
//!
//! [`BeaconField`]: crate::grid::BeaconField
//! [`GridBatch`]: crate::grid::GridBatch
//!
//! [`PositionGrid::apply_radial_constraint_reference`]: crate::grid::PositionGrid::apply_radial_constraint_reference

use cocoa_net::calibration::LaneTable;

/// 2⁵² — the magic bias for branchless f64 → index extraction: for an
/// integer-valued `tf` in `[0, 2⁵²)`, the low mantissa bits of `tf + P52`
/// are exactly `tf`.
const P52: f64 = 4503599627370496.0;

/// One grid row of the radial update:
/// `out[i] = (cells[i] · scale) · lerp(table, √(dx2[i] + dy2) · inv_step)`,
/// storing each cell's unclamped lattice coordinate
/// `√(dx2[i] + dy2) · inv_step` in `coords[i]` for [`lookup_product_row`].
///
/// Fully auto-vectorized (packed sqrt, gathers, FMA) via the float-domain
/// clamp + magic-bias indexing described in the module docs, and
/// bit-identical to the scalar reference expression for finite
/// coordinates. Kept out-of-line so the surrounding caller can't break
/// the vectorizable codegen.
///
/// # Panics
///
/// Panics if `cells`, `dx2` or `coords` are shorter than `out`.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
pub fn radial_product_row(
    out: &mut [f64],
    cells: &[f64],
    scale: f64,
    dx2: &[f64],
    dy2: f64,
    inv_step: f64,
    table: &LaneTable,
    coords: &mut [f64],
) {
    let n = out.len();
    let cells = &cells[..n];
    let dx2 = &dx2[..n];
    let coords = &mut coords[..n];
    let val = table.val();
    let del = table.del();
    let lastf = table.lastf();
    assert!(val.len().is_power_of_two());
    assert_eq!(val.len(), del.len());
    let mask = val.len() - 1;
    for (((o, &c), &d), s) in out.iter_mut().zip(cells).zip(dx2).zip(coords) {
        let raw = (d + dy2).sqrt() * inv_step;
        *s = raw;
        let t = raw.min(lastf);
        let tf = t.trunc();
        let j = ((tf + P52).to_bits() as usize) & mask;
        *o = (c * scale) * (val[j] + del[j] * (t - tf));
    }
}

/// The lookup-and-multiply stage of [`radial_product_row`] alone, on
/// coordinates it stored:
/// `out[i] = (cells[i] · scale) · lerp(table, coords[i])`.
/// The same operations in the same order on the same coordinate, so the
/// same bits.
///
/// # Panics
///
/// Panics if `cells` or `coords` are shorter than `out`.
#[inline(never)]
pub fn lookup_product_row(
    out: &mut [f64],
    cells: &[f64],
    scale: f64,
    coords: &[f64],
    table: &LaneTable,
) {
    let n = out.len();
    let cells = &cells[..n];
    let coords = &coords[..n];
    let val = table.val();
    let del = table.del();
    let lastf = table.lastf();
    assert!(val.len().is_power_of_two());
    assert_eq!(val.len(), del.len());
    let mask = val.len() - 1;
    for ((o, &c), &raw) in out.iter_mut().zip(cells).zip(coords) {
        let t = raw.min(lastf);
        let tf = t.trunc();
        let j = ((tf + P52).to_bits() as usize) & mask;
        *o = (c * scale) * (val[j] + del[j] * (t - tf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar linear interpolation into a [`LaneTable`] at the pre-scaled
    /// lattice coordinate `t = d / step` — the reference expression the
    /// lane kernel reproduces. Clamping is an index `min`; the zero
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
        // A settled posterior's scale, then a batch's carried `1 / total`:
        // each cell is read as the value a renormalising pass would store.
        for scale in [1.0, 1.0 / 0.37] {
            let mut out = vec![0.0; n];
            let mut coords = vec![0.0; n];
            radial_product_row(
                &mut out,
                &cells,
                scale,
                &dx2,
                dy2,
                inv_step,
                &table,
                &mut coords,
            );
            let mut looked_up = vec![0.0; n];
            lookup_product_row(&mut looked_up, &cells, scale, &coords, &table);
            for i in 0..n {
                let t = (dx2[i] + dy2).sqrt() * inv_step;
                assert_eq!(coords[i].to_bits(), t.to_bits(), "coordinate {i}");
                let normalised = cells[i] * scale;
                let expected = normalised * lerp_table(&table, t);
                assert_eq!(out[i].to_bits(), expected.to_bits(), "cell {i}");
                assert_eq!(looked_up[i].to_bits(), expected.to_bits(), "lookup {i}");
            }
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
        let mut coords = vec![0.0; n];
        radial_product_row(&mut out, &cells, 1.0, &dx2, 0.0, 1.0, &table, &mut coords);
        let mut looked_up = vec![0.0; n];
        lookup_product_row(&mut looked_up, &cells, 1.0, &coords, &table);
        let expected = 0.125 * values[values.len() - 1];
        for (i, (&o, &l)) in out.iter().zip(&looked_up).enumerate() {
            assert_eq!(o.to_bits(), expected.to_bits(), "cell {i}");
            assert_eq!(l.to_bits(), expected.to_bits(), "lookup {i}");
        }
    }
}
