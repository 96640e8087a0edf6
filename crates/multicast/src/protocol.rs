//! Backend selection: which mesh multicast protocol a scenario runs.
//!
//! The simulation core treats the mesh layer as a swappable backend (the
//! paper's comparison axis: blind flooding vs plain ODMRP vs the MRMM
//! extension). This selector names the three backends in one place so
//! configuration, CLI parsing and reporting all agree on the spelling.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The mesh multicast backend driving SYNC dissemination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MulticastProtocol {
    /// Blind flooding: every node rebroadcasts every first copy. No
    /// control traffic, maximal data redundancy — the baseline floor.
    Flood,
    /// Plain ODMRP: JOIN QUERY flood, JOIN REPLY reverse paths, a
    /// forwarding group rebroadcasting data (hop-count routes).
    Odmrp,
    /// MRMM: ODMRP plus mobility-aware link-lifetime scoring and
    /// redundancy-based forwarding-group pruning (the paper's protocol).
    Mrmm,
}

impl MulticastProtocol {
    /// All backends, in comparison order (baseline first); this is also
    /// the snapshot codec-tag order.
    pub const ALL: [MulticastProtocol; 3] = [
        MulticastProtocol::Flood,
        MulticastProtocol::Odmrp,
        MulticastProtocol::Mrmm,
    ];

    /// Stable lower-case name, used in CLI flags, counters and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            MulticastProtocol::Flood => "flood",
            MulticastProtocol::Odmrp => "odmrp",
            MulticastProtocol::Mrmm => "mrmm",
        }
    }

    /// Parses a backend name (the inverse of [`MulticastProtocol::as_str`]).
    pub fn parse(s: &str) -> Option<MulticastProtocol> {
        match s {
            "flood" => Some(MulticastProtocol::Flood),
            "odmrp" => Some(MulticastProtocol::Odmrp),
            "mrmm" => Some(MulticastProtocol::Mrmm),
            _ => None,
        }
    }
}

impl Default for MulticastProtocol {
    /// MRMM — the paper's protocol and the pre-existing default behaviour
    /// of the simulation core.
    fn default() -> Self {
        MulticastProtocol::Mrmm
    }
}

impl fmt::Display for MulticastProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in MulticastProtocol::ALL {
            assert_eq!(MulticastProtocol::parse(p.as_str()), Some(p));
            assert_eq!(format!("{p}"), p.as_str());
        }
        assert_eq!(MulticastProtocol::parse("gossip"), None);
    }

    #[test]
    fn default_is_mrmm() {
        assert_eq!(MulticastProtocol::default(), MulticastProtocol::Mrmm);
    }
}
