//! Deterministic random-number streams.
//!
//! Every experiment takes a single master seed; independent, reproducible
//! sub-streams (one per robot, one for the channel, one for mobility, …) are
//! derived from it with a SplitMix64 mix so that adding a consumer never
//! perturbs the draws seen by existing consumers.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::snapshot::{Codec, SnapshotError};

/// The RNG handed to every model component.
///
/// `StdRng` (ChaCha-based) is specified to be reproducible across platforms
/// and `rand` patch releases, which is what makes the figures in
/// EXPERIMENTS.md bit-reproducible.
pub type DetRng = StdRng;

/// The snapshot layout of a stream: its four state words. The all-zero
/// state, which no stream can reach, is malformed.
pub fn code(c: &mut impl Codec, r: &mut DetRng) -> Result<(), SnapshotError> {
    c.via(
        r,
        DetRng::state,
        |c, words| words.iter_mut().try_for_each(|w| c.u64(w)),
        |words| match words {
            [0, 0, 0, 0] => Err(SnapshotError::malformed(
                "rng stream has the all-zero state",
            )),
            _ => Ok(DetRng::from_state(words)),
        },
    )
}

/// SplitMix64 finalizer; a high-quality 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives independent RNG streams from one master seed.
///
/// Streams are identified by a `(domain, index)` pair — e.g. domain
/// `"odometry"`, index = robot id — so call sites are self-describing and
/// collisions between subsystems are impossible by construction.
///
/// # Examples
///
/// ```
/// use cocoa_sim::rng::SeedSplitter;
/// use rand::Rng;
///
/// let splitter = SeedSplitter::new(42);
/// let mut a = splitter.stream("mobility", 0);
/// let mut b = splitter.stream("mobility", 1);
/// let mut a2 = SeedSplitter::new(42).stream("mobility", 0);
/// assert_eq!(a.gen::<u64>(), a2.gen::<u64>());   // reproducible
/// assert_ne!(a.gen::<u64>(), b.gen::<u64>());    // independent
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSplitter {
    master: u64,
}

impl SeedSplitter {
    /// Creates a splitter from a master seed.
    pub fn new(master: u64) -> Self {
        SeedSplitter { master }
    }

    /// The master seed this splitter was built from.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derives the 256-bit seed for stream `(domain, index)`.
    pub fn seed_for(&self, domain: &str, index: u64) -> [u8; 32] {
        // Fold the domain string into a 64-bit tag (FNV-1a), then mix the
        // triple (master, tag, index) through SplitMix64 four times with
        // different counters to fill 256 bits.
        let mut tag: u64 = 0xcbf2_9ce4_8422_2325;
        for b in domain.as_bytes() {
            tag ^= u64::from(*b);
            tag = tag.wrapping_mul(0x1000_0000_01b3);
        }
        let base = splitmix64(
            self.master ^ splitmix64(tag) ^ splitmix64(index.wrapping_mul(0xA5A5_A5A5_A5A5_A5A5)),
        );
        let mut seed = [0u8; 32];
        for (i, chunk) in seed.chunks_exact_mut(8).enumerate() {
            let word = splitmix64(base.wrapping_add(i as u64 + 1));
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        seed
    }

    /// Creates the deterministic RNG for stream `(domain, index)`.
    pub fn stream(&self, domain: &str, index: u64) -> DetRng {
        DetRng::from_seed(self.seed_for(domain, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let s = SeedSplitter::new(7);
        let xs: Vec<u64> = (0..8).map(|_| 0u64).collect();
        let mut r1 = s.stream("channel", 3);
        let mut r2 = SeedSplitter::new(7).stream("channel", 3);
        let a: Vec<u64> = xs.iter().map(|_| r1.gen()).collect();
        let b: Vec<u64> = xs.iter().map(|_| r2.gen()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_domains_differ() {
        let s = SeedSplitter::new(7);
        let mut r1 = s.stream("channel", 0);
        let mut r2 = s.stream("mobility", 0);
        assert_ne!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn different_indices_differ() {
        let s = SeedSplitter::new(7);
        let mut r1 = s.stream("robot", 1);
        let mut r2 = s.stream("robot", 2);
        assert_ne!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn different_masters_differ() {
        let mut r1 = SeedSplitter::new(1).stream("x", 0);
        let mut r2 = SeedSplitter::new(2).stream("x", 0);
        assert_ne!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn seeds_fill_all_words() {
        let seed = SeedSplitter::new(0).seed_for("", 0);
        // No 8-byte word should be zero (astronomically unlikely if mixing
        // works); guards against accidentally seeding with zeros.
        for chunk in seed.chunks_exact(8) {
            assert_ne!(u64::from_le_bytes(chunk.try_into().unwrap()), 0);
        }
    }
}
