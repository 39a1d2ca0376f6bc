//! Differential suite for the hardware fast path: hardware CRC32C must be
//! *byte-identical* to its scalar predecessors (slicing-by-8 and the
//! bytewise oracle) over random lengths (0..4 KiB), unaligned starting
//! offsets, seeds, and streaming split points.
//!
//! The fast path is taken from the [`hsdp_taxes::simd`] resolver directly,
//! so the comparison is real even if the dispatched entry point were pinned
//! elsewhere. On hosts without the instruction set (or under
//! `HSDP_FORCE_SCALAR=1`) the resolver returns `None` and each test logs a
//! skip — CI runs the suite in both modes, so the hardware side is
//! exercised wherever the hardware allows.

use hsdp_rng::{Rng, StdRng};
use hsdp_taxes::crc::{crc32c_append_bytewise, crc32c_append_slicing8};
use hsdp_taxes::simd;

const MAX_LEN: usize = 4096;

/// Random-length buffer with a little headroom so tests can slice it at
/// unaligned starting offsets without changing the length distribution.
fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.random_range(0..=max_len);
    (0..len + 16).map(|_| rng.random()).collect()
}

// ---------------------------------------------------------------------------
// CRC32C: hardware instruction vs slicing-by-8 vs the bytewise oracle.
// ---------------------------------------------------------------------------

#[test]
fn hw_crc32c_matches_scalar_over_random_lengths_and_offsets() {
    let Some(hw) = simd::crc::crc32c_fn() else {
        eprintln!("skipping: no hardware CRC32C on this host");
        return;
    };
    let mut rng = StdRng::seed_from_u64(0xC4C1);
    for case in 0..400 {
        let buf = random_bytes(&mut rng, MAX_LEN);
        let off = rng.random_range(0..=8usize.min(buf.len()));
        let data = &buf[off..];
        let seed: u32 = rng.random();
        let want = crc32c_append_bytewise(seed, data);
        assert_eq!(
            hw(seed, data),
            want,
            "case {case} len {} off {off}",
            data.len()
        );
        assert_eq!(
            crc32c_append_slicing8(seed, data),
            want,
            "slicing8 diverged from the oracle, case {case}"
        );
    }
}

#[test]
fn hw_crc32c_streams_split_points_like_scalar() {
    let Some(hw) = simd::crc::crc32c_fn() else {
        eprintln!("skipping: no hardware CRC32C on this host");
        return;
    };
    // Appending in two chunks must equal one pass, at every split of a
    // buffer spanning the interleave block boundary.
    let mut rng = StdRng::seed_from_u64(0xC4C2);
    let buf: Vec<u8> = (0..MAX_LEN).map(|_| rng.random()).collect();
    let whole = hw(0, &buf);
    for split in (0..buf.len()).step_by(97) {
        assert_eq!(
            hw(hw(0, &buf[..split]), &buf[split..]),
            whole,
            "split {split}"
        );
    }
}
