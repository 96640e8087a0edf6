//! # cocoa-multicast — the MRMM / ODMRP mesh multicast substrate
//!
//! CoCoA synchronizes its wake/sleep timeline by multicasting SYNC
//! messages from a designated Sync robot down a mesh built by **MRMM**
//! (Mobile Robot Mesh Multicast), an extension of the **ODMRP** mobile
//! ad hoc multicast protocol (paper Section 2.3).
//!
//! - [`odmrp`]: the per-node protocol state machine (JOIN QUERY flooding,
//!   JOIN REPLY reverse-path recruitment, forwarding-group data delivery),
//!   built as plain ODMRP or as the MRMM extension;
//! - [`mrmm`]: MRMM's mobility-aware machinery — residual link-lifetime
//!   prediction from `(position, velocity, d_rest)` and the pruning policy
//!   that thins short-lived redundant forwarders out of the mesh;
//! - [`mesh`]: duplicate caches and the protocol counters used for the
//!   MRMM-vs-ODMRP forwarding-efficiency comparison;
//! - [`flood`]: the blind-flooding baseline behind the same sans-IO
//!   interface;
//! - [`protocol`]: the backend selector (`flood` / `odmrp` / `mrmm`)
//!   shared by configuration, CLI and reporting, and the
//!   [`protocol::MeshNode`] each backend runs.
//!
//! The node is sans-IO: it consumes packets and returns
//! [`odmrp::ProtocolAction`]s; `cocoa-core`'s runner owns all timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flood;
pub mod mesh;
pub mod mrmm;
pub mod odmrp;
pub mod protocol;

/// Glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::flood::FloodNode;
    pub use crate::mesh::{DedupCache, MeshStats};
    pub use crate::mrmm::{link_lifetime, MobilityInfo, PathScore, PruneConfig};
    pub use crate::odmrp::{OdmrpConfig, OdmrpNode, ProtocolAction};
    pub use crate::protocol::{MeshNode, MulticastProtocol};
}
