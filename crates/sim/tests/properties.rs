//! Property-based tests for the event-engine invariants.

use cocoa_sim::prelude::*;
use proptest::prelude::*;

proptest! {
    /// Events always pop in non-decreasing time order, regardless of the
    /// insertion order.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0usize;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Same-time events preserve insertion (FIFO) order.
    #[test]
    fn queue_fifo_within_equal_times(groups in proptest::collection::vec(0u64..20, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in groups.iter().enumerate() {
            q.push(SimTime::from_secs(t), i);
        }
        let mut last_seq_per_time = std::collections::HashMap::new();
        while let Some((t, seq)) = q.pop() {
            if let Some(&prev) = last_seq_per_time.get(&t) {
                prop_assert!(seq > prev, "FIFO violated at {t}: {seq} after {prev}");
            }
            last_seq_per_time.insert(t, seq);
        }
    }

    /// The engine clock never goes backwards and never exceeds the horizon.
    #[test]
    fn engine_clock_monotone(
        delays in proptest::collection::vec(1u64..5_000_000, 1..50),
        horizon_s in 1u64..100,
    ) {
        let mut eng: Engine<usize> = Engine::new(SimTime::from_secs(horizon_s));
        for (i, &d) in delays.iter().enumerate() {
            eng.schedule_at(SimTime::from_micros(d), i);
        }
        let mut last = SimTime::ZERO;
        eng.run(&mut last, |eng, last, _| {
            assert!(eng.now() >= *last);
            assert!(eng.now() <= eng.horizon());
            *last = eng.now();
        });
    }

    /// Seed streams are reproducible and (statistically) distinct.
    #[test]
    fn rng_streams_reproducible(master in any::<u64>(), idx in 0u64..1000) {
        use rand::Rng;
        let a: Vec<u64> = {
            let mut r = SeedSplitter::new(master).stream("p", idx);
            (0..4).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SeedSplitter::new(master).stream("p", idx);
            (0..4).map(|_| r.gen()).collect()
        };
        prop_assert_eq!(&a, &b);
        let c: Vec<u64> = {
            let mut r = SeedSplitter::new(master).stream("p", idx + 1);
            (0..4).map(|_| r.gen()).collect()
        };
        prop_assert_ne!(a, c);
    }
}
