//! # cocoa-localization — the Bayesian RF localization algorithm
//!
//! The paper's core algorithm (Section 2.2), adapted from Sichitiu &
//! Ramadurai's mobile-beacon localization for sensor networks:
//!
//! 1. an offline calibration phase builds the RSSI → distance **PDF Table**
//!    (that lives in [`cocoa_net::calibration`]);
//! 2. each received beacon imposes a positional constraint over the
//!    deployment area (Eq. 1) — implemented on a discrete posterior grid in
//!    [`grid`];
//! 3. Bayesian inference multiplies constraint into prior and renormalizes
//!    (Eq. 2) — [`bayes`]; [`batch`] records a window's beacons on arrival
//!    and applies them in one batch, across the cores the caller lends it;
//! 4. after ≥ 3 beacons, the posterior mean is the position estimate
//!    (Eq. 3);
//! 5. [`estimator`] wraps the algorithm in the CoCoA window lifecycle and
//!    defines the three evaluation modes (odometry-only / RF-only / CoCoA);
//! 6. [`backend`] makes the per-window solver pluggable behind the
//!    [`backend::RfBackend`] trait — Bayesian grid inference (the default),
//!    multilateration, and the EKF — per the paper's Section 5 note that
//!    CoCoA "is not tied to a specific localization technique".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod bayes;
pub mod ekf;
pub mod estimator;
pub mod grid;
pub mod kernel;
pub mod multilateration;

/// Glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::backend::{EkfBackend, RfBackend};
    pub use crate::batch::BeaconLog;
    pub use crate::bayes::{
        BayesianLocalizer, GridStats, ObservationResult, MIN_BEACONS_FOR_ESTIMATE,
    };
    pub use crate::ekf::{EkfConfig, EkfLocalizer, EkfUpdate};
    pub use crate::estimator::{
        EstimatorMode, RfAlgorithm, WindowOutcome, WindowStats, WindowedRfEstimator,
    };
    pub use crate::grid::{BeaconField, ConstraintOutcome, GridBatch, GridConfig, PositionGrid};
    pub use crate::multilateration::{MultilaterationConfig, Multilaterator, RangeObservation};
}
