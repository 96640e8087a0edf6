//! The discretized position posterior.
//!
//! The paper's algorithm (Eqs. 1–3, after Sichitiu & Ramadurai) maintains a
//! probability distribution of the robot's position over the bounding
//! rectangle of the deployment area, multiplies in one constraint per
//! received beacon, renormalizes (Bayesian inference), and finally takes
//! the distribution's mean as the position estimate. Like every Bayesian /
//! Markov localization implementation, we discretize the area into a grid.

use std::cell::Cell;

use serde::{Deserialize, Serialize};

use cocoa_net::calibration::RadialProfile;
use cocoa_net::geometry::{Area, Point};
use cocoa_sim::snapshot::{Codec, SnapshotError};

use crate::kernel;

/// Grid discretization parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridConfig {
    /// The deployment area the posterior covers (paper Eq. 1's bounds).
    pub area: Area,
    /// Cell side length, metres. 2 m over the paper's 200 m × 200 m field
    /// gives a 100 × 100 grid; the resolution ablation bench sweeps this.
    pub resolution_m: f64,
}

impl GridConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if the resolution is not strictly positive or exceeds the
    /// area's smaller side.
    pub fn new(area: Area, resolution_m: f64) -> Self {
        assert!(
            resolution_m > 0.0 && resolution_m.is_finite(),
            "resolution must be positive"
        );
        assert!(
            resolution_m <= area.width().min(area.height()),
            "resolution {resolution_m} m coarser than the area itself"
        );
        GridConfig { area, resolution_m }
    }

    /// Grid width and height in cells.
    pub fn dims(&self) -> (usize, usize) {
        let nx = (self.area.width() / self.resolution_m).ceil() as usize;
        let ny = (self.area.height() / self.resolution_m).ceil() as usize;
        (nx, ny)
    }
}

/// Outcome of multiplying a constraint into the posterior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOutcome {
    /// The posterior was updated and renormalized.
    Applied,
    /// The constraint would have annihilated the posterior (total mass
    /// ~zero) — the update was skipped and the old posterior kept. This
    /// happens when a "bad beacon" (paper Section 4.3.1) contradicts all
    /// prior mass.
    Rejected,
}

/// A probability mass function over grid cells covering the area.
///
/// # Examples
///
/// ```
/// use cocoa_localization::grid::{BeaconField, GridConfig, PositionGrid};
/// use cocoa_net::calibration::RadialProfile;
/// use cocoa_net::geometry::{Area, Point};
///
/// let mut grid = PositionGrid::new(GridConfig::new(Area::square(200.0), 2.0));
/// // A uniform prior's mean is the area's centre.
/// let c = grid.mean();
/// assert!((c.x - 100.0).abs() < 1e-9 && (c.y - 100.0).abs() < 1e-9);
/// // Concentrate mass near (50, 50).
/// let near = RadialProfile::from_fn(0.25, 300.0, |d| (-d * d / 50.0).exp());
/// grid.apply_radial_constraint(&mut BeaconField::new(Point::new(50.0, 50.0)), &near);
/// assert!(grid.mean().distance_to(Point::new(50.0, 50.0)) < 2.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PositionGrid {
    config: GridConfig,
    nx: usize,
    ny: usize,
    /// Cell probabilities; row-major (`iy * nx + ix`), always summing to 1.
    cells: Vec<f64>,
    /// Cell-centre x coordinates, indexed by `ix`.
    #[serde(skip)]
    xs: Vec<f64>,
    /// Cell-centre y coordinates, indexed by `iy`.
    #[serde(skip)]
    ys: Vec<f64>,
    /// Reusable buffer for unnormalized products: a [`GridBatch`]'s
    /// updates alternate between it and `cells`, so the per-beacon hot
    /// path allocates nothing.
    #[serde(skip)]
    scratch: Vec<f64>,
    /// Reusable buffer of per-column squared x-distances to the current
    /// constraint centre.
    #[serde(skip)]
    dx2: Vec<f64>,
    /// Reusable per-row buffer of pre-scaled profile coordinates (scalar
    /// reference loop only — the lane kernel fuses this stage away).
    #[serde(skip)]
    row_t: Vec<f64>,
    /// [`entropy`](Self::entropy) of `cells`, filled on first read and
    /// cleared by every write to `cells`. Derived state: never encoded,
    /// so a decoded or restored grid starts without it.
    #[serde(skip)]
    entropy: Cell<Option<f64>>,
}

/// One beacon frame's distance field: the position the beacon claims
/// and, once a grid has filled it, each cell's lattice coordinate
/// `√(dx² + dy²) · inv_step` to that position.
///
/// Every receiver of a frame multiplies a constraint around the same
/// position into a grid of the same geometry, so the first receiver's
/// update stores the coordinates and each later one only looks them up
/// ([`GridBatch::apply`]). The field is keyed by the bits of the
/// position, the grid geometry and the profile step, and refills whenever
/// one of them differs, so a caller can never feed it a field it was not
/// filled for.
#[derive(Debug, Default)]
pub struct BeaconField {
    center: Point,
    /// The bits of what `coords` were filled for: the center, the grid
    /// geometry and `inv_step`. `None` until filled.
    key: Option<[u64; 8]>,
    /// Row-major (`iy * nx + ix`) unclamped lattice coordinates.
    coords: Vec<f64>,
    /// How many times `coords` were computed.
    fills: u64,
}

impl BeaconField {
    /// A field for a beacon claiming `center`, with nothing filled yet.
    pub fn new(center: Point) -> Self {
        BeaconField {
            center,
            ..BeaconField::default()
        }
    }

    /// Starts the next frame: claims `center` and drops the filled
    /// coordinates, keeping their buffer.
    pub fn reset(&mut self, center: Point) {
        self.center = center;
        self.key = None;
    }

    /// Makes room for the coordinates of a grid of `cells` cells, so
    /// filling the field for such a grid allocates nothing.
    pub fn reserve(&mut self, cells: usize) {
        self.coords.reserve(cells.saturating_sub(self.coords.len()));
    }

    /// The position the beacon claims.
    pub fn center(&self) -> Point {
        self.center
    }

    /// How many times this field computed its coordinates. Tests read it
    /// to pin that a beacon frame's distances are computed once per
    /// field, however many grids it updates.
    #[doc(hidden)]
    pub fn fills(&self) -> u64 {
        self.fills
    }

    fn key(&self, config: &GridConfig, inv_step: f64) -> [u64; 8] {
        let a = &config.area;
        [
            self.center.x,
            self.center.y,
            a.x_min,
            a.x_max,
            a.y_min,
            a.y_max,
            config.resolution_m,
            inv_step,
        ]
        .map(f64::to_bits)
    }
}

thread_local! {
    static ENTROPY_PASSES: Cell<u64> = const { Cell::new(0) };
}

/// How many full entropy passes over a posterior this thread has made —
/// the misses of [`PositionGrid::entropy`]'s cache. Tests read it to pin
/// that the entropy is computed only when something records it.
#[doc(hidden)]
pub fn entropy_passes() -> u64 {
    ENTROPY_PASSES.with(Cell::get)
}

/// Sums with four independent accumulators so the reduction is not one
/// serial chain of additions (and can use SIMD adds). The rounding differs
/// from a left-to-right sum by O(n·ε) — irrelevant at the posterior's
/// tolerances.
fn sum_4lane(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let chunks = xs.chunks_exact(4);
    let rem = chunks.remainder();
    for c in chunks {
        acc[0] += c[0];
        acc[1] += c[1];
        acc[2] += c[2];
        acc[3] += c[3];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + rem.iter().sum::<f64>()
}

/// Equality is over the posterior itself; scratch buffers, the derived
/// axis tables and the cached entropy are excluded.
impl PartialEq for PositionGrid {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.nx == other.nx
            && self.ny == other.ny
            && self.cells == other.cells
    }
}

impl PositionGrid {
    /// Creates a grid initialized to the uniform prior — "in the beginning,
    /// a robot is equally likely to be in any position" (paper Section 2.2).
    pub fn new(config: GridConfig) -> Self {
        let (nx, ny) = config.dims();
        let n = nx * ny;
        let r = config.resolution_m;
        let xs = (0..nx)
            .map(|ix| config.area.x_min + (ix as f64 + 0.5) * r)
            .collect();
        let ys = (0..ny)
            .map(|iy| config.area.y_min + (iy as f64 + 0.5) * r)
            .collect();
        PositionGrid {
            config,
            nx,
            ny,
            cells: vec![1.0 / n as f64; n],
            xs,
            ys,
            scratch: Vec::with_capacity(n),
            dx2: Vec::with_capacity(nx),
            row_t: Vec::with_capacity(nx),
            entropy: Cell::new(None),
        }
    }

    /// Grid width in cells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The configuration.
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// Resets to the uniform prior.
    pub fn reset_uniform(&mut self) {
        let v = 1.0 / self.cells.len() as f64;
        self.cells.fill(v);
        self.entropy.set(None);
    }

    /// Centre of cell `(ix, iy)`.
    #[inline]
    pub fn cell_center(&self, ix: usize, iy: usize) -> Point {
        Point::new(self.xs[ix], self.ys[iy])
    }

    /// The reference loop's renormalization: commits the unnormalized
    /// product held in `scratch` (total mass `total`) to the posterior, or
    /// rejects it as degenerate.
    fn commit(&mut self, scratch: &[f64], total: f64) -> ConstraintOutcome {
        if Self::degenerate(total, self.cells.len()) {
            return ConstraintOutcome::Rejected;
        }
        let inv_total = 1.0 / total;
        for (dst, &v) in self.cells.iter_mut().zip(scratch) {
            *dst = v * inv_total;
        }
        self.entropy.set(None);
        ConstraintOutcome::Applied
    }

    /// Whether a product of total mass `total` over `n` cells is too
    /// degenerate to renormalize: not finite, or (near-)zero.
    fn degenerate(total: f64, n: usize) -> bool {
        !total.is_finite() || total <= f64::MIN_POSITIVE * n as f64
    }

    /// The scratch-preparation idiom of the reference loop: `clear` +
    /// `resize` (zero-fill), which amortizes to a `memset` after the first
    /// call.
    fn reset_scratch(scratch: &mut Vec<f64>, n: usize) {
        scratch.clear();
        scratch.resize(n, 0.0);
    }

    /// Scratch preparation for the lane-kernel path, which overwrites every
    /// element (its row loop tiles the buffer exactly): only the length is
    /// established; no zero-fill pass is paid.
    fn ensure_scratch(scratch: &mut Vec<f64>, n: usize) {
        if scratch.len() != n {
            Self::reset_scratch(scratch, n);
        }
    }

    /// Multiplies a radial constraint — `profile.density(‖cell − center‖)`
    /// around the field's center — into every cell and renormalizes
    /// (paper Eq. 2): a [`GridBatch`] of one update.
    ///
    /// Returns [`ConstraintOutcome::Rejected`] — leaving the posterior
    /// untouched — if the product has (near-)zero total mass or is not
    /// finite. Bit-identical to
    /// [`apply_radial_constraint_reference`](Self::apply_radial_constraint_reference)
    /// (see [`kernel`] for the contract).
    pub fn apply_radial_constraint(
        &mut self,
        field: &mut BeaconField,
        profile: &RadialProfile,
    ) -> ConstraintOutcome {
        self.batch().apply(field, profile)
    }

    /// Opens a batch of updates on this posterior: each
    /// [`GridBatch::apply`] multiplies one constraint in, and the cells
    /// are renormalized once, when the batch settles.
    pub fn batch(&mut self) -> GridBatch<'_> {
        GridBatch {
            grid: self,
            pending: None,
        }
    }

    /// The scalar two-stage reference loop for
    /// [`apply_radial_constraint`](Self::apply_radial_constraint): a
    /// vectorizable distance stage into `row_t`, then a gather-bound
    /// interpolation stage. It defines the bits the lane kernel must
    /// reproduce and exists for the bit-identity proptest and the kernel
    /// speedup benchmark; no run configuration selects it.
    #[doc(hidden)]
    pub fn apply_radial_constraint_reference(
        &mut self,
        center: Point,
        profile: &RadialProfile,
    ) -> ConstraintOutcome {
        let mut scratch = std::mem::take(&mut self.scratch);
        Self::reset_scratch(&mut scratch, self.cells.len());
        let mut dx2 = std::mem::take(&mut self.dx2);
        let mut row_t = std::mem::take(&mut self.row_t);
        Self::fill_dx2(&mut dx2, &self.xs, center.x);
        row_t.clear();
        row_t.resize(self.nx, 0.0);
        let inv_step = profile.inv_step();
        for (iy, out) in scratch.chunks_exact_mut(self.nx).enumerate() {
            let dy = self.ys[iy] - center.y;
            let dy2 = dy * dy;
            let row = &self.cells[iy * self.nx..(iy + 1) * self.nx];
            for (t, &dx2) in row_t.iter_mut().zip(&dx2) {
                *t = (dx2 + dy2).sqrt() * inv_step;
            }
            for ((dst, &cell), &t) in out.iter_mut().zip(row).zip(&row_t) {
                *dst = cell * profile.density_scaled(t);
            }
        }
        self.dx2 = dx2;
        self.row_t = row_t;
        let outcome = self.commit(&scratch, sum_4lane(&scratch));
        self.scratch = scratch;
        outcome
    }

    /// Fills `dx2` with per-column squared x-distances to `cx`.
    fn fill_dx2(dx2: &mut Vec<f64>, xs: &[f64], cx: f64) {
        dx2.clear();
        dx2.extend(xs.iter().map(|&x| {
            let dx = x - cx;
            dx * dx
        }));
    }

    /// The posterior mean (paper Eq. 3) — the position estimate.
    pub fn mean(&self) -> Point {
        let mut x = 0.0;
        let mut y = 0.0;
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                let p = self.cells[iy * self.nx + ix];
                if p > 0.0 {
                    let c = self.cell_center(ix, iy);
                    x += p * c.x;
                    y += p * c.y;
                }
            }
        }
        Point::new(x, y)
    }

    /// The centre of the highest-probability cell (MAP estimate).
    pub fn map_estimate(&self) -> Point {
        let (idx, _) =
            self.cells
                .iter()
                .enumerate()
                .fold((0, f64::NEG_INFINITY), |best, (i, &v)| {
                    if v > best.1 {
                        (i, v)
                    } else {
                        best
                    }
                });
        self.cell_center(idx % self.nx, idx / self.nx)
    }

    /// Number of cells in the grid.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The maximum possible posterior entropy, nats — attained by the
    /// uniform prior. The entropy watchdog compares against this.
    pub fn max_entropy(&self) -> f64 {
        (self.cells.len() as f64).ln()
    }

    /// Shannon entropy of the posterior, nats. The uniform prior maximizes
    /// it; a confident fix approaches zero.
    ///
    /// A pass over every cell, made once per posterior state: the value is
    /// cached until the cells next change, so repeated reads between
    /// updates (the watchdog, histograms, timeline samples) are free.
    pub fn entropy(&self) -> f64 {
        if let Some(h) = self.entropy.get() {
            return h;
        }
        ENTROPY_PASSES.with(|n| n.set(n.get() + 1));
        let h = -self
            .cells
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>();
        self.entropy.set(Some(h));
        h
    }

    /// The entropy of the cells, nats, if a read has computed it since
    /// they last changed. Makes no pass over the cells.
    pub fn known_entropy(&self) -> Option<f64> {
        self.entropy.get()
    }

    /// Whether the cells form a probability distribution: every cell
    /// finite and non-negative, the cells summing to 1 within `tolerance`.
    /// One pass with no early exit, so it vectorizes.
    pub fn is_distribution(&self, tolerance: f64) -> bool {
        let in_range = self
            .cells
            .iter()
            .fold(true, |ok, &p| ok & (0.0..f64::INFINITY).contains(&p));
        in_range && (sum_4lane(&self.cells) - 1.0).abs() <= tolerance
    }

    /// Total probability mass (1.0 up to rounding; exposed for tests).
    pub fn total_mass(&self) -> f64 {
        self.cells.iter().sum()
    }

    /// The raw cell probabilities, row-major (`iy * nx + ix`).
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    /// The snapshot layout: the cell count, then each cell probability,
    /// decoded where the cells lie. Like every write, it drops the cached
    /// entropy.
    ///
    /// The reader takes the count as stored, so a reader of bytes it did
    /// not write must check [`PositionGrid::num_cells`] against
    /// `nx · ny` before using the grid.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let PositionGrid {
            cells,
            entropy,
            // The configuration and what is derived from it, set by the
            // reader's constructor.
            config: _,
            nx: _,
            ny: _,
            xs: _,
            ys: _,
            // Scratch buffers.
            scratch: _,
            dx2: _,
            row_t: _,
        } = self;
        entropy.set(None);
        let mut n = cells.len();
        c.count(&mut n)?;
        cells.resize(n, 0.0);
        cells.iter_mut().try_for_each(|p| c.f64(p))
    }

    /// Probability of the cell containing `p` (0 outside the area).
    pub fn density_at(&self, p: Point) -> f64 {
        if !self.config.area.contains(p) {
            return 0.0;
        }
        let r = self.config.resolution_m;
        let ix = (((p.x - self.config.area.x_min) / r) as usize).min(self.nx - 1);
        let iy = (((p.y - self.config.area.y_min) / r) as usize).min(self.ny - 1);
        self.cells[iy * self.nx + ix]
    }
}

/// A run of constraint updates on one posterior, renormalized once at
/// the end of the run instead of after every update.
///
/// Renormalizing after each update takes a pass over the cells to store
/// `c' = p · s`, where `p` is the update's unnormalized product and
/// `s = 1 / total`. A batch keeps `p` and `s` instead, and the next update
/// reads each cell as `p · s` inside its own multiply, `(p · s) · w`: the
/// same IEEE operations in the same order as reading the stored `c'`, so
/// every product, total and settled cell has the bits that renormalizing
/// after every update gives (and
/// [`PositionGrid::apply_radial_constraint_reference`] defines). The
/// products alternate between the grid's cells and its scratch buffer,
/// so an update reads one and writes the other, and a rejected update
/// leaves the batch's product as it was.
///
/// The batch borrows the grid, so nothing reads the posterior while it
/// is unnormalized. [`settle`](Self::settle), or dropping the batch,
/// writes the normalized cells.
#[derive(Debug)]
pub struct GridBatch<'g> {
    grid: &'g mut PositionGrid,
    /// The latest unnormalized product and its `1 / total`; `None` while
    /// the cells hold the posterior.
    pending: Option<Pending>,
}

/// Where a batch's unnormalized product lives, and its `1 / total`.
#[derive(Debug, Clone, Copy)]
struct Pending {
    scale: f64,
    in_scratch: bool,
}

impl GridBatch<'_> {
    /// Multiplies a radial constraint — `profile.density(‖cell − center‖)`
    /// around the field's center — into the batch's posterior (paper
    /// Eq. 2), deferring the renormalization to [`settle`](Self::settle).
    ///
    /// The Bayesian update's one kernel entry point: the density comes
    /// from a pre-sampled 1-D [`RadialProfile`] lookup through the
    /// lane-packed kernels instead of a per-cell `exp`/histogram
    /// evaluation. The first update on a `field` runs
    /// [`kernel::radial_product_row`], which computes squared x-offsets
    /// once per column and squared y-offsets once per row and stores each
    /// cell's coordinate in the field; an update on a field already filled
    /// for this grid and step runs only [`kernel::lookup_product_row`].
    /// All buffers are persistent, so an update allocates nothing in
    /// steady state.
    ///
    /// Returns [`ConstraintOutcome::Rejected`], keeping the batch's
    /// posterior as it was, if the product has (near-)zero total mass or
    /// is not finite. A floored profile (every sample finite and at least
    /// [`CONSTRAINT_FLOOR`](crate::bayes::CONSTRAINT_FLOOR)) on a
    /// posterior of finite, non-negative cells summing to 1 always
    /// applies: the total is at least the largest cell times the floor.
    pub fn apply(&mut self, field: &mut BeaconField, profile: &RadialProfile) -> ConstraintOutcome {
        let (scale, in_scratch) = self
            .pending
            .map_or((1.0, false), |p| (p.scale, p.in_scratch));
        let PositionGrid {
            config,
            nx,
            cells,
            xs,
            ys,
            scratch,
            dx2,
            ..
        } = &mut *self.grid;
        let nx = *nx;
        let n = cells.len();
        PositionGrid::ensure_scratch(scratch, n);
        let (src, dst): (&[f64], &mut [f64]) = if in_scratch {
            (scratch, cells)
        } else {
            (cells, scratch)
        };
        let inv_step = profile.inv_step();
        let table = profile.lane_table();
        let key = field.key(config, inv_step);
        let rows = dst.chunks_exact_mut(nx).zip(src.chunks_exact(nx));
        if field.key == Some(key) {
            for ((out, row), coords) in rows.zip(field.coords.chunks_exact(nx)) {
                kernel::lookup_product_row(out, row, scale, coords, table);
            }
        } else {
            field.fills += 1;
            field.coords.resize(n, 0.0);
            PositionGrid::fill_dx2(dx2, xs, field.center.x);
            let coords = field.coords.chunks_exact_mut(nx);
            for (((out, row), coords), &y) in rows.zip(coords).zip(ys.iter()) {
                let dy = y - field.center.y;
                kernel::radial_product_row(out, row, scale, dx2, dy * dy, inv_step, table, coords);
            }
            field.key = Some(key);
        }
        let total = sum_4lane(dst);
        if PositionGrid::degenerate(total, n) {
            return ConstraintOutcome::Rejected;
        }
        self.pending = Some(Pending {
            scale: 1.0 / total,
            in_scratch: !in_scratch,
        });
        ConstraintOutcome::Applied
    }

    /// Writes the normalized posterior, one pass over the cells, if any
    /// update applied since the batch opened or last settled.
    pub fn settle(&mut self) {
        let Some(Pending { scale, in_scratch }) = self.pending.take() else {
            return;
        };
        let grid = &mut *self.grid;
        if in_scratch {
            for (dst, &v) in grid.cells.iter_mut().zip(&grid.scratch) {
                *dst = v * scale;
            }
        } else {
            for c in &mut grid.cells {
                *c *= scale;
            }
        }
        grid.entropy.set(None);
    }
}

impl Drop for GridBatch<'_> {
    fn drop(&mut self) {
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(res: f64) -> PositionGrid {
        PositionGrid::new(GridConfig::new(Area::square(200.0), res))
    }

    /// A Gaussian bump `exp(−(d / width)²)` around the constraint centre.
    fn bump(width: f64) -> RadialProfile {
        RadialProfile::from_fn(0.25, 300.0, |d| (-(d / width).powi(2)).exp())
    }

    /// The posterior after one radial constraint, computed cell by cell:
    /// each cell times `profile.density(‖cell − center‖)`, renormalized.
    fn per_cell_product(g: &PositionGrid, center: Point, profile: &RadialProfile) -> Vec<f64> {
        let nx = g.nx();
        let product: Vec<f64> = g
            .cells()
            .iter()
            .enumerate()
            .map(|(i, &p)| p * profile.density(g.cell_center(i % nx, i / nx).distance_to(center)))
            .collect();
        let total: f64 = product.iter().sum();
        product.into_iter().map(|v| v / total).collect()
    }

    #[test]
    fn uniform_prior_sums_to_one_and_centres() {
        let g = grid(2.0);
        assert_eq!(g.nx(), 100);
        assert_eq!(g.ny(), 100);
        assert!((g.total_mass() - 1.0).abs() < 1e-9);
        assert!(g.mean().distance_to(Point::new(100.0, 100.0)) < 1e-9);
    }

    #[test]
    fn constraint_concentrates_mass() {
        let mut g = grid(2.0);
        let target = Point::new(60.0, 140.0);
        let before = g.entropy();
        let out = g.apply_radial_constraint(&mut BeaconField::new(target), &bump(10.0));
        assert_eq!(out, ConstraintOutcome::Applied);
        assert!((g.total_mass() - 1.0).abs() < 1e-9, "renormalized");
        assert!(g.entropy() < before, "entropy decreased");
        assert!(g.mean().distance_to(target) < 2.0);
        assert!(g.map_estimate().distance_to(target) < 2.0);
    }

    #[test]
    fn repeated_constraints_sharpen_the_posterior() {
        let mut g = grid(2.0);
        let target = Point::new(100.0, 100.0);
        let profile = bump(20.0);
        let mut last_entropy = g.entropy();
        for _ in 0..3 {
            g.apply_radial_constraint(&mut BeaconField::new(target), &profile);
            let e = g.entropy();
            assert!(e < last_entropy);
            last_entropy = e;
        }
    }

    #[test]
    fn annihilating_constraint_is_rejected() {
        let mut g = grid(2.0);
        let before = g.clone();
        let center = Point::new(100.0, 100.0);
        let zero = RadialProfile::from_fn(1.0, 300.0, |_| 0.0);
        assert_eq!(
            g.apply_radial_constraint(&mut BeaconField::new(center), &zero),
            ConstraintOutcome::Rejected
        );
        assert_eq!(g, before, "posterior untouched after rejection");
        let nan = RadialProfile::from_fn(1.0, 300.0, |_| f64::NAN);
        assert_eq!(
            g.apply_radial_constraint(&mut BeaconField::new(center), &nan),
            ConstraintOutcome::Rejected
        );
        assert_eq!(g, before);
    }

    #[test]
    fn reset_restores_uniform() {
        let mut g = grid(2.0);
        g.apply_radial_constraint(&mut BeaconField::new(Point::new(30.0, 170.0)), &bump(40.0));
        g.reset_uniform();
        assert!(g.mean().distance_to(Point::new(100.0, 100.0)) < 1e-9);
        let max_entropy = (g.nx() as f64 * g.ny() as f64).ln();
        assert!((g.entropy() - max_entropy).abs() < 1e-9);
        assert!((g.max_entropy() - max_entropy).abs() < 1e-12);
        assert_eq!(g.num_cells(), g.nx() * g.ny());
    }

    #[test]
    fn cell_centers_tile_the_area() {
        let g = grid(2.0);
        let first = g.cell_center(0, 0);
        assert_eq!(first, Point::new(1.0, 1.0));
        let last = g.cell_center(g.nx() - 1, g.ny() - 1);
        assert_eq!(last, Point::new(199.0, 199.0));
    }

    #[test]
    fn density_at_reads_back_cells() {
        let mut g = grid(2.0);
        let target = Point::new(50.0, 50.0);
        g.apply_radial_constraint(&mut BeaconField::new(target), &bump(5.0));
        assert!(g.density_at(target) > g.density_at(Point::new(150.0, 150.0)));
        assert_eq!(g.density_at(Point::new(-1.0, 0.0)), 0.0);
    }

    #[test]
    fn intersection_of_two_ring_constraints_localizes() {
        // Two beacons at known positions, each constraining distance:
        // the posterior mean should land near an intersection point.
        let mut g = grid(1.0);
        let ring = |radius: f64| {
            RadialProfile::from_fn(0.1, 300.0, |d| (-((d - radius) / 3.0).powi(2)).exp())
        };
        g.apply_radial_constraint(&mut BeaconField::new(Point::new(80.0, 100.0)), &ring(25.0));
        g.apply_radial_constraint(&mut BeaconField::new(Point::new(120.0, 100.0)), &ring(25.0));
        // Intersections are near (100, 100 ± 15); a third beacon breaks the tie.
        g.apply_radial_constraint(&mut BeaconField::new(Point::new(100.0, 130.0)), &ring(15.0));
        let est = g.mean();
        let expected = Point::new(100.0, 115.0);
        assert!(
            est.distance_to(expected) < 5.0,
            "estimate {est} vs expected {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn zero_resolution_rejected() {
        let _ = GridConfig::new(Area::square(200.0), 0.0);
    }

    #[test]
    fn radial_constraint_matches_generic_per_cell() {
        let center = Point::new(63.0, 141.0);
        let profile = RadialProfile::from_fn(0.25, 300.0, |d| (-((d - 30.0) / 8.0).powi(2)).exp())
            .offset(1e-6);
        let mut radial = grid(2.0);
        // Two rounds on one field: the second reuses the scratch buffers
        // and the coordinates the first stored.
        let mut field = BeaconField::new(center);
        for _ in 0..2 {
            let expected = per_cell_product(&radial, center, &profile);
            let outcome = radial.apply_radial_constraint(&mut field, &profile);
            assert_eq!(outcome, ConstraintOutcome::Applied);
            for (i, (&pa, &pb)) in expected.iter().zip(radial.cells()).enumerate() {
                assert!(
                    (pa - pb).abs() < 1e-9,
                    "cell {i}: per-cell product {pa} vs radial {pb}"
                );
            }
        }
        assert!((radial.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn radial_rejection_leaves_posterior_untouched() {
        let mut g = grid(2.0);
        let target = Point::new(60.0, 140.0);
        g.apply_radial_constraint(&mut BeaconField::new(target), &bump(10.0));
        let before = g.clone();
        let zero = RadialProfile::from_fn(1.0, 300.0, |_| 0.0);
        assert_eq!(
            g.apply_radial_constraint(&mut BeaconField::new(target), &zero),
            ConstraintOutcome::Rejected
        );
        assert_eq!(g, before, "posterior untouched after radial rejection");
        let nan = RadialProfile::from_fn(1.0, 300.0, |_| f64::NAN);
        assert_eq!(
            g.apply_radial_constraint(&mut BeaconField::new(target), &nan),
            ConstraintOutcome::Rejected
        );
        assert_eq!(g, before);
    }

    #[test]
    fn equality_ignores_scratch_state() {
        let fresh = grid(2.0);
        let mut used = grid(2.0);
        let zero = RadialProfile::from_fn(1.0, 300.0, |_| 0.0);
        // A rejected update leaves the posterior alone but dirties scratch,
        // and reading the entropy fills the cache.
        used.apply_radial_constraint(&mut BeaconField::new(Point::new(10.0, 10.0)), &zero);
        used.entropy();
        assert_eq!(fresh, used);
    }

    /// `entropy`'s sum, recomputed from the cells without the cache.
    fn entropy_from_cells(g: &PositionGrid) -> f64 {
        -g.cells()
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>()
    }

    /// Reads `g`'s entropy twice after a write: the first read is one pass
    /// that equals the from-scratch sum bit for bit, the second is free.
    fn assert_entropy_fresh(g: &PositionGrid, after: &str) {
        let passes = entropy_passes();
        let h = g.entropy();
        assert_eq!(
            h.to_bits(),
            entropy_from_cells(g).to_bits(),
            "stale entropy after {after}"
        );
        assert_eq!(entropy_passes(), passes + 1, "one pass after {after}");
        assert_eq!(g.entropy().to_bits(), h.to_bits());
        assert_eq!(entropy_passes(), passes + 1, "cached after {after}");
    }

    #[test]
    fn cached_entropy_follows_every_write() {
        let profile = RadialProfile::from_fn(0.25, 300.0, |d| (-((d - 30.0) / 8.0).powi(2)).exp())
            .offset(1e-6);
        // Each write below changes the cells, and the read before it has
        // filled the cache, so a writer that kept the cache would fail.
        let mut g = grid(2.0);
        assert_entropy_fresh(&g, "new");
        g.apply_radial_constraint(&mut BeaconField::new(Point::new(63.0, 141.0)), &profile);
        assert_entropy_fresh(&g, "apply_radial_constraint");
        g.apply_radial_constraint_reference(Point::new(90.0, 110.0), &profile);
        assert_entropy_fresh(&g, "apply_radial_constraint_reference");
        let cells = cocoa_sim::snapshot::encode(|c| g.code(c));
        g.reset_uniform();
        assert_entropy_fresh(&g, "reset_uniform");
        cocoa_sim::snapshot::decode(&cells, "grid", |c| g.code(c)).expect("own bytes decode");
        assert_entropy_fresh(&g, "code");

        // A rejected constraint writes nothing, so the cached value stands.
        let cached = g.entropy();
        let passes = entropy_passes();
        let zero = RadialProfile::from_fn(1.0, 300.0, |_| 0.0);
        assert_eq!(
            g.apply_radial_constraint(&mut BeaconField::new(Point::new(10.0, 10.0)), &zero),
            ConstraintOutcome::Rejected
        );
        assert_eq!(
            g.apply_radial_constraint_reference(Point::new(10.0, 10.0), &zero),
            ConstraintOutcome::Rejected
        );
        assert_eq!(g.entropy().to_bits(), cached.to_bits());
        assert_eq!(entropy_passes(), passes, "rejections cost no entropy pass");
    }
}
