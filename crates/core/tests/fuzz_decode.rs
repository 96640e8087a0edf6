//! Fuzzing the decoders that read untrusted input.
//!
//! - The SYNC body codec: arbitrary, truncated, bit-flipped and
//!   over-length inputs must never panic — wrong-length bodies decode to
//!   `None`, exact-length bodies to `Some`.
//! - The serve spec parser: any flat object of knob keys and random keys
//!   with arbitrary JSON scalars yields `Ok` or `Err`, never a panic.

use bytes::Bytes;
use cocoa_core::knobs::KNOBS;
use cocoa_core::serve::parse_spec;
use cocoa_core::sync::SyncMessage;
use proptest::prelude::*;

/// Any JSON scalar, rendered: negative, huge and fractional numbers,
/// knob names and junk strings, booleans and null.
fn arb_value() -> impl Strategy<Value = String> {
    const WORDS: [&str; 10] = [
        "ekf", "odmrp", "chaos", "full", "none", "odometry", "", "psychic", "5", "true",
    ];
    prop_oneof![
        any::<f64>().prop_map(|v| v.to_string()),
        any::<i64>().prop_map(|v| v.to_string()),
        (0u64..400).prop_map(|v| v.to_string()),
        arb_edge_number(),
        arb_edge_number(),
        (0..WORDS.len()).prop_map(|i| format!("\"{}\"", WORDS[i])),
        any::<bool>().prop_map(|b| b.to_string()),
        Just("null".to_string()),
    ]
}

/// Numbers at the edges: negative, zero, subnormal, past 2^53 seconds
/// of microseconds, past `u64`, past any finite range.
fn arb_edge_number() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(-1.0),
        Just(-5.0),
        Just(-1e300),
        Just(-0.0),
        Just(0.0),
        Just(5e-324),
        Just(1e14),
        Just(9_007_199_254_740_991.0),
        Just(1.8e19),
        Just(1e300),
    ]
    .prop_map(|v: f64| format!("{v:e}"))
}

/// One `key: value` pair. Most keys are knobs, often with their own
/// valid example so that the parser gets past them to the hostile ones.
fn arb_pair() -> impl Strategy<Value = (String, String)> {
    let example =
        || (0..KNOBS.len()).prop_map(|i| (KNOBS[i].key.to_string(), KNOBS[i].example.to_string()));
    let scalar = || (0..KNOBS.len(), arb_value()).prop_map(|(i, v)| (KNOBS[i].key.to_string(), v));
    let edge = (0..KNOBS.len(), arb_edge_number()).prop_map(|(i, v)| (KNOBS[i].key.to_string(), v));
    let made_up = proptest::collection::vec(0u8..27, 1..12).prop_map(|letters| {
        letters
            .into_iter()
            .map(|c| if c == 26 { '_' } else { char::from(b'a' + c) })
            .collect::<String>()
    });
    prop_oneof![
        example(),
        example(),
        scalar(),
        scalar(),
        edge,
        (made_up, arb_value()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse_spec` is total over flat objects: every spec is accepted or
    /// rejected, and an accepted one is a valid scenario.
    #[test]
    fn spec_parser_never_panics(pairs in proptest::collection::vec(arb_pair(), 1..4)) {
        let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let spec = format!("{{{}}}", body.join(", "));
        if let Ok(request) = parse_spec(&spec) {
            prop_assert!(request.scenario.validate().is_ok(), "{spec}");
        }
    }
}

proptest! {
    /// Arbitrary byte soup: `decode` is total, and only exact-size bodies
    /// ever parse.
    #[test]
    fn random_bodies_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..128)) {
        let len = raw.len();
        let decoded = SyncMessage::decode(Bytes::from(raw));
        prop_assert_eq!(decoded.is_some(), len == SyncMessage::WIRE_SIZE);
    }

    /// Bit flips keep the body well-sized, so it still decodes — to some
    /// (possibly wrong) message, never a panic.
    #[test]
    fn bit_flipped_bodies_still_decode(
        period in any::<u64>(),
        window in any::<u64>(),
        index in any::<u64>(),
        start in any::<u64>(),
        pos in 0usize..SyncMessage::WIRE_SIZE,
        bit in 0u8..8,
    ) {
        let msg = SyncMessage {
            period_us: period,
            window_us: window,
            window_index: index,
            window_start_us: start,
        };
        let mut raw = msg.encode().to_vec();
        raw[pos] ^= 1 << bit;
        prop_assert!(SyncMessage::decode(Bytes::from(raw)).is_some());
    }

    /// Truncated or padded bodies are rejected, never panicked on.
    #[test]
    fn wrong_length_bodies_are_rejected(
        period in any::<u64>(),
        delta in 1usize..32,
        grow in any::<bool>(),
    ) {
        let msg = SyncMessage {
            period_us: period,
            window_us: 3_000_000,
            window_index: 1,
            window_start_us: 0,
        };
        let mut raw = msg.encode().to_vec();
        if grow {
            raw.extend(std::iter::repeat_n(0xAA, delta));
        } else {
            raw.truncate(SyncMessage::WIRE_SIZE - delta.min(SyncMessage::WIRE_SIZE));
        }
        prop_assert!(SyncMessage::decode(Bytes::from(raw)).is_none());
    }

    /// Round-trip: every message survives encode → decode.
    #[test]
    fn roundtrip(
        period in any::<u64>(),
        window in any::<u64>(),
        index in any::<u64>(),
        start in any::<u64>(),
    ) {
        let msg = SyncMessage {
            period_us: period,
            window_us: window,
            window_index: index,
            window_start_us: start,
        };
        prop_assert_eq!(SyncMessage::decode(msg.encode()), Some(msg));
    }
}
