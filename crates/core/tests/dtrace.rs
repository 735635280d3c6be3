//! Property tests for the binary dispatch-trace format: arbitrary
//! streams round-trip exactly, corrupt bytes are rejected rather than
//! decoded into a slightly-wrong stream, and no input makes the decoder
//! panic.

use ivm_core::{DispatchTrace, DTRACE_MAGIC, DTRACE_VERSION};
use ivm_harness::{prop, prop_assert, prop_assert_eq};

/// Draws a trace with adversarial address patterns: clustered (realistic
/// dispatch), wildly jumping, and boundary values.
fn arbitrary_trace(src: &mut prop::Source) -> DispatchTrace {
    let technique = src.lowercase(0..24);
    let mut trace = DispatchTrace::new(src.full::<u32>() as u64, technique);
    let base = src.full::<u32>() as u64;
    let events = src.vec_of(0..200, |s| {
        let addr = |s: &mut prop::Source| match s.weighted(&[4, 2, 1]) {
            0 => base + s.int_in(0u64..4096),   // clustered near the base
            1 => s.full::<u32>() as u64,        // anywhere in 32-bit space
            _ => u64::MAX - s.int_in(0u64..16), // delta-overflow territory
        };
        (addr(s), addr(s))
    });
    for (branch, target) in events {
        trace.push(branch, target);
    }
    trace
}

#[test]
fn encoded_traces_round_trip_exactly() {
    prop::check("dtrace_round_trip", prop::Config::from_env(), |src| {
        let trace = arbitrary_trace(src);
        let bytes = trace.to_bytes();
        let decoded = DispatchTrace::from_bytes(&bytes)
            .map_err(|e| format!("decode failed on an encoder-produced buffer: {e}"))?;
        prop_assert_eq!(&decoded, &trace, "decoded trace differs");
        prop_assert_eq!(decoded.len(), trace.len(), "event count differs");
        Ok(())
    });
}

#[test]
fn extreme_deltas_round_trip_exactly() {
    // The zigzag step encodes the *signed* gap between consecutive
    // addresses; a signed `v << 1` would shift the top bit out for gaps
    // like `u64::MAX` (delta -1 wrapped) or exactly `i64::MIN`. Walk
    // address sequences built purely from extreme jumps — every boundary
    // of the i64 delta space — and require an exact round trip.
    prop::check("dtrace_extreme_deltas", prop::Config::from_env(), |src| {
        let extremes: [u64; 8] = [
            0,
            1,
            u64::MAX,
            u64::MAX - 1,
            1u64 << 63,       // delta from 0 is exactly i64::MIN
            (1u64 << 63) - 1, // ... and i64::MAX
            (1u64 << 63) + 1,
            0x8000_0000_0000_0040,
        ];
        let mut trace = DispatchTrace::new(src.full::<u32>() as u64, "threaded");
        let events = src.vec_of(1..64, |s| {
            let addr = |s: &mut prop::Source| extremes[s.int_in(0..extremes.len())];
            (addr(s), addr(s))
        });
        for (branch, target) in events {
            trace.push(branch, target);
        }
        let decoded = DispatchTrace::from_bytes(&trace.to_bytes())
            .map_err(|e| format!("extreme-delta trace failed to decode: {e}"))?;
        prop_assert_eq!(&decoded, &trace, "extreme deltas corrupted the stream");
        Ok(())
    });
}

#[test]
fn truncations_never_decode() {
    prop::check("dtrace_truncation_rejected", prop::Config::from_env(), |src| {
        let trace = arbitrary_trace(src);
        let bytes = trace.to_bytes();
        let cut = src.int_in(0..bytes.len());
        // Any strict prefix must fail: the header declares the exact
        // event count, so a shorter buffer cannot satisfy it.
        prop_assert!(
            DispatchTrace::from_bytes(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded",
            bytes.len()
        );
        Ok(())
    });
}

#[test]
fn corrupt_headers_are_rejected_not_misread() {
    prop::check("dtrace_header_corruption", prop::Config::from_env(), |src| {
        let trace = arbitrary_trace(src);
        let mut bytes = trace.to_bytes();
        // Corrupt one byte of the magic or version fields (the first 8).
        let i = src.int_in(0..8usize);
        let flip = 1u8 << src.int_in(0..8u32);
        bytes[i] ^= flip;
        match DispatchTrace::from_bytes(&bytes) {
            Err(_) => Ok(()),
            // Version bytes 5..8 only matter when set; flipping a high
            // version byte always changes the version, and magic bytes
            // always invalidate the magic — decode must never succeed.
            Ok(_) => Err(format!("byte {i} xor {flip:#04x} still decoded")),
        }
    });
}

#[test]
fn version_is_enforced() {
    let trace = DispatchTrace::new(1, "threaded");
    let mut bytes = trace.to_bytes();
    bytes[4..8].copy_from_slice(&(DTRACE_VERSION + 1).to_le_bytes());
    assert!(DispatchTrace::from_bytes(&bytes).is_err(), "future version must be rejected");
}

#[test]
fn decoding_any_bytes_returns_instead_of_panicking() {
    prop::check("dtrace_decode_total", prop::Config::from_env(), |src| {
        let valid = arbitrary_trace(src).to_bytes();
        let bytes = match src.weighted(&[1, 1, 2, 2]) {
            // Arbitrary bytes, bare or behind a valid magic and version
            // so the header and event fields see garbage too.
            0 => src.vec_of(0..64, |s| s.full::<u8>()),
            1 => {
                let mut b = [DTRACE_MAGIC.as_slice(), &DTRACE_VERSION.to_le_bytes()].concat();
                b.extend(src.vec_of(0..64, |s| s.full::<u8>()));
                b
            }
            // One byte of a valid encoding replaced.
            2 => {
                let mut b = valid;
                let i = src.int_in(0..b.len());
                b[i] = src.full::<u8>();
                b
            }
            // A valid encoding cut short.
            _ => valid[..src.int_in(0..valid.len())].to_vec(),
        };
        // `prop::check` turns a panic into a shrunk failure report.
        let _ = DispatchTrace::from_bytes(&bytes);
        Ok(())
    });
}
