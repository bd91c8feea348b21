//! Byte-identity of [`RateMode::Fixed`] streams against golden
//! bitstreams captured *before* the rate-control redesign (PR 4 format):
//! the pluggable-controller API must cost fixed-rate streams nothing —
//! not one byte, at any thread count, for either codec family.

use nvc_baseline::{HybridCodec, Profile};
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_video::rate::RateMode;
use nvc_video::synthetic::{SceneConfig, Synthesizer};

#[test]
fn ctvc_fixed_mode_matches_pre_redesign_fixture_at_every_thread_count() {
    let golden = include_bytes!("data/ctvc_fp8_48x32x4_r1.bin").to_vec();
    let seq = Synthesizer::new(SceneConfig::uvg_like(48, 32, 4)).generate();
    for threads in [1, 2, 0] {
        let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8).with_threads(threads)).unwrap();
        let coded = codec.encode(&seq, RatePoint::new(1)).unwrap();
        assert_eq!(
            coded.bitstream, golden,
            "CTVC fixed-rate stream diverged from the PR 4 fixture (threads = {threads})"
        );
        // The explicit RateMode::Fixed spelling is the same code path.
        let via_mode = nvc_video::codec::encode_sequence_with(
            &codec,
            &seq,
            RateMode::Fixed(RatePoint::new(1)),
        )
        .unwrap();
        assert_eq!(via_mode.to_bytes(), golden);
    }
}

/// FNV-1a over the little-endian bits of every decoded sample.
fn frames_fnv(frames: &[nvc_video::Frame]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for f in frames {
        for v in f.tensor().as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// The fp32 fixture above leaves activation quantization a no-op, so it
/// cannot see the FXP12 path. This one pins the paper's deployed
/// configuration — CTVC-Net(Sparse), FXP12 activations, pruned fast
/// kernels — byte for byte and sample for sample, so kernel and
/// quantizer rewrites must stay bit-exact.
#[test]
fn ctvc_sparse_fxp_stream_and_reconstruction_match_fixture_at_every_thread_count() {
    const GOLDEN_FRAMES_FNV: u64 = 0xf71b_75ca_0400_a0df;
    let golden = include_bytes!("data/ctvc_sparse12_64x48x4_r1.bin").to_vec();
    let seq = Synthesizer::new(SceneConfig::uvg_like(64, 48, 4)).generate();
    for threads in [1, 2, 0] {
        let codec = CtvcCodec::new(CtvcConfig::ctvc_sparse(12).with_threads(threads)).unwrap();
        let coded = codec.encode(&seq, RatePoint::new(1)).unwrap();
        assert_eq!(
            coded.bitstream, golden,
            "CTVC(Sparse) FXP12 stream diverged from the fixture (threads = {threads})"
        );
        assert_eq!(
            frames_fnv(coded.decoded.frames()),
            GOLDEN_FRAMES_FNV,
            "encoder reconstruction diverged (threads = {threads})"
        );
        let decoded = codec.decode(&golden).unwrap();
        assert_eq!(decoded.frames().len(), 4);
        assert_eq!(
            frames_fnv(decoded.frames()),
            GOLDEN_FRAMES_FNV,
            "decoded frames diverged (threads = {threads})"
        );
    }
}

#[test]
fn hybrid_fixed_mode_matches_pre_redesign_fixture_at_every_thread_count() {
    let golden = include_bytes!("data/hybrid_hevc_64x48x3_qp24.bin").to_vec();
    let seq = Synthesizer::new(SceneConfig::uvg_like(64, 48, 3)).generate();
    for threads in [1, 2, 0] {
        let codec = HybridCodec::with_threads(Profile::hevc_like(), threads);
        let coded = codec.encode(&seq, 24).unwrap();
        assert_eq!(
            coded.bitstream, golden,
            "hybrid fixed-rate stream diverged from the PR 4 fixture (threads = {threads})"
        );
        let via_mode =
            nvc_video::codec::encode_sequence_with(&codec, &seq, RateMode::Fixed(24u8)).unwrap();
        assert_eq!(via_mode.to_bytes(), golden);
    }
}

#[test]
fn fixture_streams_still_decode() {
    let ctvc = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let decoded = ctvc
        .decode(include_bytes!("data/ctvc_fp8_48x32x4_r1.bin"))
        .unwrap();
    assert_eq!(decoded.frames().len(), 4);
    let hybrid = HybridCodec::new(Profile::hevc_like());
    let decoded = hybrid
        .decode(include_bytes!("data/hybrid_hevc_64x48x3_qp24.bin"))
        .unwrap();
    assert_eq!(decoded.frames().len(), 3);
}
