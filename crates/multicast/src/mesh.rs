//! Mesh bookkeeping: duplicate suppression and per-node protocol counters.

use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

use serde::{Deserialize, Serialize};

use cocoa_net::packet::NodeId;
use cocoa_sim::snapshot::{Codec, SnapshotError};
use cocoa_sim::time::{SimDuration, SimTime};

/// The snapshot layout of a `(source, seq)` round: the key of every
/// duplicate cache and of ODMRP's query rounds.
pub(crate) fn code_round(
    c: &mut impl Codec,
    (source, seq): &mut (NodeId, u32),
) -> Result<(), SnapshotError> {
    source.code(c)?;
    c.u32(seq)
}

/// A time-bounded duplicate-suppression cache.
///
/// ODMRP floods queries and data; every node must remember which
/// `(source, sequence)` pairs it has already handled. Entries expire after
/// a retention window so memory stays bounded over long runs.
#[derive(Debug, Clone)]
pub struct DedupCache<K: Eq + Hash + Clone> {
    retention: SimDuration,
    order: VecDeque<(K, SimTime)>,
    set: HashSet<K>,
}

impl<K: Eq + Hash + Clone> DedupCache<K> {
    /// Creates a cache that remembers entries for `retention`.
    pub fn new(retention: SimDuration) -> Self {
        DedupCache {
            retention,
            order: VecDeque::new(),
            set: HashSet::new(),
        }
    }

    /// Inserts `key` at `now`. Returns `true` if it was new (not a
    /// duplicate), purging expired entries as a side effect.
    pub fn insert(&mut self, key: K, now: SimTime) -> bool {
        self.purge(now);
        if self.set.contains(&key) {
            return false;
        }
        self.set.insert(key.clone());
        self.order.push_back((key, now));
        true
    }

    /// Whether `key` is currently remembered.
    pub fn contains(&self, key: &K) -> bool {
        self.set.contains(key)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The snapshot layout: the live entries in insertion order, each as
    /// its key (coded by `key`) and insertion time. Decode onto a cache
    /// built with the same retention; the lookup set is rebuilt from the
    /// entries.
    pub fn code<C: Codec>(
        &mut self,
        c: &mut C,
        mut key: impl FnMut(&mut C, &mut K) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError>
    where
        K: Default,
    {
        let DedupCache {
            order,
            set,
            // The owner's configuration, set by the reader's constructor.
            retention: _,
        } = self;
        let mut entries = Vec::from(std::mem::take(order));
        let coded = c.vec(&mut entries, |c, (k, at)| {
            key(c, k)?;
            at.code(c)
        });
        set.clear();
        set.extend(entries.iter().map(|(k, _)| k.clone()));
        *order = entries.into();
        coded
    }

    fn purge(&mut self, now: SimTime) {
        while let Some((key, t)) = self.order.front() {
            if now.saturating_since(*t) > self.retention {
                self.set.remove(key);
                self.order.pop_front();
            } else {
                break;
            }
        }
    }
}

/// Per-node protocol counters, aggregated across the team for the MRMM
/// forwarding-efficiency comparison (DESIGN.md ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MeshStats {
    /// JOIN QUERY rounds originated (sources only).
    pub queries_originated: u64,
    /// JOIN QUERY copies rebroadcast.
    pub queries_rebroadcast: u64,
    /// JOIN QUERY rebroadcasts suppressed by MRMM pruning.
    pub queries_suppressed: u64,
    /// JOIN REPLY packets sent (fresh or propagated).
    pub replies_sent: u64,
    /// Times this node (re)gained forwarding-group status.
    pub fg_activations: u64,
    /// Data packets originated.
    pub data_originated: u64,
    /// Data packets rebroadcast down the mesh.
    pub data_forwarded: u64,
    /// Data packets delivered to the application (members, deduplicated).
    pub data_delivered: u64,
    /// Duplicate data copies discarded.
    pub data_duplicates: u64,
    /// Delivered data bodies the application could not decode (garbled
    /// in flight); counted here so mesh reliability studies can separate
    /// transport loss from payload corruption.
    pub data_undecodable: u64,
}

impl MeshStats {
    /// The snapshot layout, in [`MeshStats::counters`] order; the run
    /// metrics reuse it.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let MeshStats {
            queries_originated,
            queries_rebroadcast,
            queries_suppressed,
            replies_sent,
            fg_activations,
            data_originated,
            data_forwarded,
            data_delivered,
            data_duplicates,
            data_undecodable,
        } = self;
        c.u64s([
            queries_originated,
            queries_rebroadcast,
            queries_suppressed,
            replies_sent,
            fg_activations,
            data_originated,
            data_forwarded,
            data_delivered,
            data_duplicates,
            data_undecodable,
        ])
    }

    /// Adds another node's counters into this one.
    pub fn merge(&mut self, other: &MeshStats) {
        self.queries_originated += other.queries_originated;
        self.queries_rebroadcast += other.queries_rebroadcast;
        self.queries_suppressed += other.queries_suppressed;
        self.replies_sent += other.replies_sent;
        self.fg_activations += other.fg_activations;
        self.data_originated += other.data_originated;
        self.data_forwarded += other.data_forwarded;
        self.data_delivered += other.data_delivered;
        self.data_duplicates += other.data_duplicates;
        self.data_undecodable += other.data_undecodable;
    }

    /// Every counter as a stable `(name, value)` list, in declaration
    /// order. Names match the telemetry counter registry (`mesh.*` after
    /// prefixing) and the trace schema.
    pub fn counters(&self) -> [(&'static str, u64); 10] {
        [
            ("queries_originated", self.queries_originated),
            ("queries_rebroadcast", self.queries_rebroadcast),
            ("queries_suppressed", self.queries_suppressed),
            ("replies_sent", self.replies_sent),
            ("fg_activations", self.fg_activations),
            ("data_originated", self.data_originated),
            ("data_forwarded", self.data_forwarded),
            ("data_delivered", self.data_delivered),
            ("data_duplicates", self.data_duplicates),
            ("data_undecodable", self.data_undecodable),
        ]
    }

    /// ODMRP's forwarding efficiency: deliveries per data transmission.
    /// Higher is better; MRMM's sparser mesh should beat plain ODMRP.
    pub fn forwarding_efficiency(&self) -> f64 {
        let transmissions = self.data_originated + self.data_forwarded;
        if transmissions == 0 {
            0.0
        } else {
            self.data_delivered as f64 / transmissions as f64
        }
    }

    /// Control packets sent (queries + replies).
    pub fn control_overhead(&self) -> u64 {
        self.queries_originated + self.queries_rebroadcast + self.replies_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn dedup_detects_duplicates() {
        let mut c: DedupCache<(u32, u32)> = DedupCache::new(SimDuration::from_secs(10));
        assert!(c.insert((1, 1), t(0)));
        assert!(!c.insert((1, 1), t(1)));
        assert!(c.insert((1, 2), t(1)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn dedup_expires_old_entries() {
        let mut c: DedupCache<u32> = DedupCache::new(SimDuration::from_secs(10));
        c.insert(1, t(0));
        assert!(c.contains(&1));
        // 11 s later the entry has expired; re-inserting succeeds.
        assert!(c.insert(1, t(11)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn dedup_purges_lazily_on_insert() {
        let mut c: DedupCache<u32> = DedupCache::new(SimDuration::from_secs(5));
        for i in 0..100 {
            c.insert(i, t(0));
        }
        assert_eq!(c.len(), 100);
        c.insert(200, t(60));
        assert_eq!(c.len(), 1, "expired entries reclaimed");
    }

    #[test]
    fn stats_merge_and_efficiency() {
        let mut a = MeshStats {
            data_originated: 10,
            data_forwarded: 40,
            data_delivered: 100,
            ..Default::default()
        };
        let b = MeshStats {
            queries_rebroadcast: 5,
            replies_sent: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.queries_rebroadcast, 5);
        assert!((a.forwarding_efficiency() - 2.0).abs() < 1e-12);
        assert_eq!(a.control_overhead(), 8);
    }

    #[test]
    fn efficiency_of_empty_stats_is_zero() {
        assert_eq!(MeshStats::default().forwarding_efficiency(), 0.0);
    }
}
