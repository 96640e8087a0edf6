//! Received signal strength values and their quantization.
//!
//! The PDF Table of the paper (Section 2.2) is keyed by integer-dBm RSSI
//! values as reported by the 802.11 card, so this module provides both a
//! continuous [`Dbm`] newtype and the [`RssiBin`] quantization used as the
//! table key.

use std::fmt;
use std::ops::{Add, Sub};

use serde::{Deserialize, Serialize};

/// A signal power in dBm.
///
/// Newtype so powers cannot be confused with distances or plain floats in
/// the localization pipeline.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Dbm(pub f64);

impl Dbm {
    /// Creates a power value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "RSSI must not be NaN");
        Dbm(v)
    }

    /// The raw dBm value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Converts to milliwatts.
    ///
    /// # Examples
    ///
    /// ```
    /// use cocoa_net::rssi::Dbm;
    /// assert!((Dbm::new(0.0).to_milliwatts() - 1.0).abs() < 1e-12);
    /// assert!((Dbm::new(10.0).to_milliwatts() - 10.0).abs() < 1e-12);
    /// ```
    pub fn to_milliwatts(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Builds a power from milliwatts.
    ///
    /// # Panics
    ///
    /// Panics if `mw` is not strictly positive.
    pub fn from_milliwatts(mw: f64) -> Self {
        assert!(
            mw > 0.0,
            "power must be positive to express in dBm, got {mw}"
        );
        Dbm(10.0 * mw.log10())
    }

    /// Quantizes to the integer-dBm bin used as PDF-table key.
    pub fn bin(self) -> RssiBin {
        RssiBin(self.0.round() as i16)
    }
}

impl Add<f64> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: f64) -> Dbm {
        Dbm(self.0 + rhs)
    }
}

impl Sub<f64> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: f64) -> Dbm {
        Dbm(self.0 - rhs)
    }
}

impl Sub for Dbm {
    type Output = f64;
    fn sub(self, rhs: Dbm) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dBm", self.0)
    }
}

/// An integer-dBm RSSI bin: the key of the calibration PDF table.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Default, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct RssiBin(pub i16);

impl RssiBin {
    /// The bin centre as a continuous power.
    pub fn center(self) -> Dbm {
        Dbm(f64::from(self.0))
    }
}

impl fmt::Display for RssiBin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} dBm", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milliwatt_roundtrip() {
        for v in [-90.0, -52.0, 0.0, 15.0] {
            let d = Dbm::new(v);
            let back = Dbm::from_milliwatts(d.to_milliwatts());
            assert!((back.value() - v).abs() < 1e-9, "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        let _ = Dbm::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_milliwatts() {
        let _ = Dbm::from_milliwatts(0.0);
    }

    #[test]
    fn binning_rounds_to_nearest() {
        assert_eq!(Dbm::new(-52.4).bin(), RssiBin(-52));
        assert_eq!(Dbm::new(-52.6).bin(), RssiBin(-53));
        assert_eq!(RssiBin(-52).center(), Dbm(-52.0));
    }

    #[test]
    fn arithmetic() {
        let d = Dbm::new(-50.0);
        assert_eq!((d + 10.0).value(), -40.0);
        assert_eq!((d - 10.0).value(), -60.0);
        assert_eq!(Dbm::new(-40.0) - Dbm::new(-50.0), 10.0);
    }

    #[test]
    fn display() {
        assert_eq!(Dbm::new(-52.25).to_string(), "-52.2 dBm");
        assert_eq!(RssiBin(-86).to_string(), "-86 dBm");
    }
}
