//! Beacons recorded on arrival and applied later, in one batch.
//!
//! A CoCoA robot reads its posterior only when its window ends (paper
//! Sections 2.2–2.3), so the grid updates of a window's beacons need not
//! run as the beacons arrive. A [`BeaconLog`] records each Bayes
//! reception — the frame's claimed position, the receiver and the
//! calibrated bin its RSSI resolved to — and [`BeaconLog::apply`] later
//! multiplies them into the receivers' posteriors, each receiver's in
//! arrival order, through one [`GridBatch`] per receiver, so each
//! posterior is renormalized once per batch.
//!
//! The receivers split across workers by slot index modulo the worker
//! count. Every worker walks all the frames in order and applies each to
//! the receivers it owns, filling one [`BeaconField`] per frame. A
//! receiver's updates run on one worker in arrival order, and both the
//! lane kernels and the deferred renormalization are bit-identical to
//! renormalizing after every update, so the posteriors do not depend on
//! the worker count.

use std::cell::Cell;

use cocoa_net::calibration::RadialConstraintTable;
use cocoa_net::geometry::Point;
use cocoa_net::rssi::RssiBin;

use crate::grid::{BeaconField, ConstraintOutcome, GridBatch};

thread_local! {
    static WORKER_SPAWNS: Cell<u64> = const { Cell::new(0) };
}

/// How many worker threads [`BeaconLog::apply`] has spawned from this
/// thread. Tests read it to pin that a run without Bayes receivers never
/// spawns one.
#[doc(hidden)]
pub fn batch_worker_spawns() -> u64 {
    WORKER_SPAWNS.with(Cell::get)
}

/// Bayes receptions waiting to be multiplied into their receivers'
/// posteriors, frame by frame in arrival order.
#[derive(Debug, Default)]
pub struct BeaconLog {
    /// Each frame's claimed position and the end of its receptions in
    /// `updates` (a frame starts where the previous one ends).
    frames: Vec<(Point, usize)>,
    /// The receiver's slot and the bin of each reception.
    updates: Vec<(usize, RssiBin)>,
}

impl BeaconLog {
    /// An empty log.
    pub fn new() -> Self {
        BeaconLog::default()
    }

    /// Records that the receiver in `slot` heard a beacon claiming
    /// `center`, whose RSSI resolved to `bin`. Receptions of one frame
    /// are recorded one after another; a reception claiming another
    /// position than the one before starts a new frame.
    pub fn push(&mut self, center: Point, slot: usize, bin: RssiBin) {
        self.updates.push((slot, bin));
        let end = self.updates.len();
        match self.frames.last_mut() {
            Some((c, last))
                if c.x.to_bits() == center.x.to_bits() && c.y.to_bits() == center.y.to_bits() =>
            {
                *last = end;
            }
            _ => self.frames.push((center, end)),
        }
    }

    /// Receptions recorded since the last [`apply`](Self::apply).
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether nothing waits to be applied.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// How many frames recorded since the last [`apply`](Self::apply)
    /// carry a reception for a slot that worker `worker` of `workers`
    /// owns: how many times that worker fills its field.
    #[doc(hidden)]
    pub fn frames_served(&self, worker: usize, workers: usize) -> usize {
        let mut start = 0;
        let mut served = 0;
        for &(_, end) in &self.frames {
            if self.updates[start..end]
                .iter()
                .any(|&(slot, _)| slot % workers == worker)
            {
                served += 1;
            }
            start = end;
        }
        served
    }

    /// Multiplies every recorded reception into `grids[slot]`, each
    /// receiver's in arrival order with `radial`'s profile for its bin,
    /// settles every batch and empties the log. Returns how many updates
    /// applied.
    ///
    /// `fields` lends one distance field per worker: the calling thread
    /// serves the slots `≡ 0` modulo `fields.len()`, and a scoped thread
    /// spawned for this call serves each other residue. Workers allocate
    /// nothing when each field has room for a grid's coordinates
    /// ([`BeaconField::reserve`]) and each grid was built at its size.
    /// A slot without a grid, or a bin `radial` does not serve, is
    /// skipped.
    ///
    /// # Panics
    ///
    /// Panics if `fields` is empty.
    pub fn apply(
        &mut self,
        grids: Vec<Option<GridBatch<'_>>>,
        radial: &RadialConstraintTable,
        fields: &mut [BeaconField],
    ) -> usize {
        let workers = fields.len();
        assert!(workers > 0, "a batch needs at least one worker");
        let (frames, updates) = (&self.frames[..], &self.updates[..]);
        let mut shares: Vec<Vec<Option<GridBatch<'_>>>> = (0..workers)
            .map(|_| Vec::with_capacity(grids.len().div_ceil(workers)))
            .collect();
        for (slot, grid) in grids.into_iter().enumerate() {
            shares[slot % workers].push(grid);
        }
        let mut jobs = shares.iter_mut().zip(fields.iter_mut());
        let (mine, my_field) = jobs.next().expect("at least one worker");
        let applied = std::thread::scope(|s| {
            let spawned: Vec<_> = jobs
                .enumerate()
                .map(|(i, (share, field))| {
                    WORKER_SPAWNS.with(|n| n.set(n.get() + 1));
                    s.spawn(move || serve(frames, updates, radial, (i + 1, workers), share, field))
                })
                .collect();
            let own = serve(frames, updates, radial, (0, workers), mine, my_field);
            own + spawned
                .into_iter()
                .map(|h| h.join().expect("a batch worker panicked"))
                .sum::<usize>()
        });
        self.frames.clear();
        self.updates.clear();
        applied
    }
}

/// One worker's pass: walks every frame in order, applies each reception
/// whose slot the worker owns (`slot % workers == worker`) to
/// `grids[slot / workers]` through `field`, then settles its grids.
/// Returns how many updates applied.
fn serve(
    frames: &[(Point, usize)],
    updates: &[(usize, RssiBin)],
    radial: &RadialConstraintTable,
    (worker, workers): (usize, usize),
    grids: &mut [Option<GridBatch<'_>>],
    field: &mut BeaconField,
) -> usize {
    let mut applied = 0;
    let mut start = 0;
    for &(center, end) in frames {
        field.reset(center);
        for &(slot, bin) in &updates[start..end] {
            if slot % workers != worker {
                continue;
            }
            let grid = grids.get_mut(slot / workers).and_then(Option::as_mut);
            let (Some(grid), Some(profile)) = (grid, radial.get(bin)) else {
                continue;
            };
            match grid.apply(field, profile) {
                ConstraintOutcome::Applied => applied += 1,
                // The recorder reported this beacon applied on arrival,
                // which holds for floored profiles on valid posteriors.
                ConstraintOutcome::Rejected => debug_assert!(false, "a logged beacon was rejected"),
            }
        }
        start = end;
    }
    for grid in grids.iter_mut().flatten() {
        grid.settle();
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bayes::radial_constraints_for_grid;
    use crate::grid::{GridConfig, PositionGrid};
    use cocoa_net::calibration::{calibrate, CalibrationConfig};
    use cocoa_net::channel::RfChannel;
    use cocoa_net::geometry::Area;
    use cocoa_sim::rng::SeedSplitter;

    /// Eight frames from three senders, heard by five receivers in
    /// varying subsets and orders (slot 2 hears nothing); two frames in a
    /// row claim one position and so share a field.
    fn log(bins: &[RssiBin]) -> BeaconLog {
        let mut log = BeaconLog::new();
        let senders = [
            Point::new(10.0, 30.0),
            Point::new(55.0, 8.0),
            Point::new(31.0, 47.0),
        ];
        for k in 0..8 {
            let center = senders[k % 3 + usize::from(k == 4)];
            for (i, &slot) in [0, 1, 3, 4, 5].iter().enumerate() {
                if (k + i) % 3 != 0 {
                    log.push(center, slot, bins[(3 * k + i) % bins.len()]);
                }
            }
        }
        log
    }

    #[test]
    fn posteriors_do_not_depend_on_the_worker_count() {
        let table = calibrate(
            &RfChannel::default(),
            &CalibrationConfig::default(),
            &mut SeedSplitter::new(3).stream("cal", 0),
        );
        let grid = GridConfig::new(Area::square(60.0), 2.0);
        let radial = radial_constraints_for_grid(&table, &grid);
        let bins: Vec<RssiBin> = table
            .entries()
            .map(|(bin, _)| bin)
            .skip(10)
            .step_by(3)
            .collect();
        let fresh = || -> Vec<Option<PositionGrid>> {
            (0..6)
                .map(|slot| (slot != 2).then(|| PositionGrid::new(grid)))
                .collect()
        };
        // One receiver at a time, renormalizing after every update.
        let mut expected = fresh();
        let reference = log(&bins);
        let mut start = 0;
        for &(center, end) in &reference.frames {
            for &(slot, bin) in &reference.updates[start..end] {
                let g = expected[slot].as_mut().expect("a receiver");
                g.apply_radial_constraint_reference(center, radial.get(bin).expect("calibrated"));
            }
            start = end;
        }
        assert_eq!(
            reference.frames.len(),
            7,
            "two frames from one position merge"
        );
        for workers in 1..=4 {
            let mut grids = fresh();
            let mut log = log(&bins);
            let served: Vec<usize> = (0..workers)
                .map(|w| log.frames_served(w, workers))
                .collect();
            let mut fields: Vec<BeaconField> =
                (0..workers).map(|_| BeaconField::default()).collect();
            let spawns = batch_worker_spawns();
            let batches = grids
                .iter_mut()
                .map(|g| g.as_mut().map(PositionGrid::batch))
                .collect();
            let applied = log.apply(batches, &radial, &mut fields);
            assert_eq!(applied, reference.len(), "{workers} workers");
            assert!(log.is_empty());
            assert_eq!(batch_worker_spawns() - spawns, workers as u64 - 1);
            for (slot, (g, e)) in grids.iter().zip(&expected).enumerate() {
                let (Some(g), Some(e)) = (g, e) else { continue };
                let same = g
                    .cells()
                    .iter()
                    .zip(e.cells())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "slot {slot} on {workers} workers");
            }
            // Each worker fills its field once per frame it serves.
            let fills: Vec<usize> = fields.iter().map(|f| f.fills() as usize).collect();
            assert_eq!(fills, served, "{workers} workers");
        }
    }
}
