//! Property tests for the shuffle codec: compress→decompress identity
//! on arbitrary byte strings, frame round-trips in every mode, and a
//! corruption property — any single flipped payload byte must be caught
//! by the frame checksum, never silently decoded.

use mrs_codec::{
    compress, decompress, encode_vec, is_framed, open_vec, CompressMode, FrameError,
    FRAME_HEADER_LEN,
};
use proptest::prelude::*;

/// A frame's verified cleartext, copied out of its `Payload`.
fn cleartext(bytes: Vec<u8>) -> Result<Vec<u8>, FrameError> {
    open_vec(bytes).map(|p| p.as_ref().to_vec())
}

proptest! {
    #[test]
    fn prop_lz_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn prop_lz_roundtrip_compressible(
        word in proptest::collection::vec(any::<u8>(), 1..8),
        reps in 1usize..600,
    ) {
        let data: Vec<u8> = word.iter().copied().cycle().take(word.len() * reps).collect();
        let c = compress(&data);
        prop_assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn prop_lz_garbage_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
        expected in 0usize..2048,
    ) {
        let _ = decompress(&garbage, expected);
    }

    #[test]
    fn prop_frame_roundtrip_all_modes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for mode in [CompressMode::On, CompressMode::Off] {
            let wire = encode_vec(data.clone(), mode);
            prop_assert!(is_framed(&wire));
            prop_assert_eq!(cleartext(wire).unwrap(), data.clone());
        }
    }

    #[test]
    fn prop_frame_decode_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = cleartext(garbage);
    }
}

/// Deterministic, exhaustive corruption sweep: for representative
/// payloads (compressible text, incompressible noise, tiny, empty),
/// flip every single byte of the encoded frame in turn and assert a
/// flip can never yield *wrong* data. A flip either errors, or — if it
/// is semantically neutral (e.g. the compressed-flag bit on an empty
/// payload) — reproduces the exact original bytes. The magic is no
/// exception: a flipped magic byte is `NotFramed`, never a passthrough.
#[test]
fn every_single_byte_flip_is_caught() {
    let noise: Vec<u8> = {
        let mut x = 0x2545f4914f6cdd1du64;
        (0..1500)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 48) as u8
            })
            .collect()
    };
    let corpora: Vec<Vec<u8>> = vec![
        b"the shuffle the shuffle the shuffle moves the bytes ".repeat(40),
        noise,
        vec![0u8; 700],
        b"x".to_vec(),
        Vec::new(),
    ];
    let modes = [CompressMode::On, CompressMode::Off];
    for (raw, mode) in corpora.into_iter().flat_map(|c| modes.map(|m| (c.clone(), m))) {
        let wire = encode_vec(raw.clone(), mode);
        assert!(is_framed(&wire));
        for i in 0..wire.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut bad = wire.clone();
                bad[i] ^= bit;
                match cleartext(bad) {
                    Err(FrameError::NotFramed) => assert!(i < 5, "flip at byte {i}"),
                    Err(_) => assert!(i >= 5, "magic flip at byte {i} must be NotFramed"),
                    Ok(decoded) => {
                        assert_eq!(decoded, raw, "flip at byte {i} produced wrong data");
                    }
                }
            }
        }
        // In particular, every payload byte flip must be a checksum error.
        for i in FRAME_HEADER_LEN..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            match cleartext(bad) {
                Err(FrameError::Checksum { .. }) => {}
                other => panic!("payload flip at byte {i}: expected checksum error, got {other:?}"),
            }
        }
    }
}

/// The compat matrix the cluster relies on: a storing producer and a
/// compressing producer reach the same consumer.
#[test]
fn mixed_mode_compat_matrix() {
    let raw = b"MRSB1-ish bucket payload ".repeat(30);
    let stored = encode_vec(raw.clone(), CompressMode::default());
    assert_eq!(stored.len(), raw.len() + FRAME_HEADER_LEN);
    assert_eq!(cleartext(stored).unwrap(), raw);
    let compressed = encode_vec(raw.clone(), CompressMode::On);
    assert!(compressed.len() < raw.len());
    assert_eq!(cleartext(compressed).unwrap(), raw);
}
