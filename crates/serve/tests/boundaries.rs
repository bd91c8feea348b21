//! Byte-boundary fuzz for the protocol parsers as the poller drives them.
//!
//! The event-driven server reads whatever the socket has — one byte,
//! half a message, three messages — into a `WireBuf`, so parsing must
//! produce *identical* outcomes (parsed values and error strings alike)
//! no matter where the chunk boundaries fall. Every transcript here is
//! replayed three ways: whole, one byte at a time, and split at random
//! points by the in-tree SplitMix64; the event streams must match
//! exactly. Truncated transcripts additionally pin the `connection lost`
//! diagnostics — the reason reported when the connection dies
//! mid-message — to be boundary-invariant too.

use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_serve::proto::{
    write_frame_msg, write_packet_msg, write_retarget_msg, Hello, Retarget, WireBuf, WireMsg,
};
use nvc_tensor::init::SplitMix64;
use nvc_video::codec::encode_sequence;
use nvc_video::synthetic::{SceneConfig, Synthesizer};

const W: usize = 16;
const H: usize = 16;

/// How many SplitMix64-driven random chunkings each transcript gets.
const RANDOM_REPLAYS: u64 = 8;
/// How many random cut points each truncatable transcript gets.
const RANDOM_CUTS: u64 = 12;

// ---------------------------------------------------------------------
// Transcript construction
// ---------------------------------------------------------------------

/// One client→server byte stream plus a label for failure messages.
struct Transcript {
    name: &'static str,
    bytes: Vec<u8>,
}

fn frames(n: usize) -> Vec<nvc_video::Frame> {
    Synthesizer::new(SceneConfig::uvg_like(W, H, n))
        .generate()
        .frames()
        .to_vec()
}

fn hello_bytes(hello: &Hello) -> Vec<u8> {
    let mut bytes = Vec::new();
    hello.write_to(&mut bytes).expect("vec write");
    bytes
}

/// Every shape the protocol test suite exercises, as raw transcripts:
/// clean streams of each role and version, pipelined hellos, and the
/// hostile cases (bad magic, corrupted CRC, wrong-direction and unknown
/// tags, oversized length claims).
fn transcripts() -> Vec<Transcript> {
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).expect("ctvc config");
    let source = Synthesizer::new(SceneConfig::uvg_like(W, H, 3)).generate();
    let coded = encode_sequence(&codec, &source, RatePoint::new(1)).expect("encode");
    let mut out = Vec::new();

    // v1 encode: hello, two frames, end.
    let mut bytes = hello_bytes(&Hello::ctvc_encode(1, W, H));
    for (i, frame) in frames(2).iter().enumerate() {
        write_frame_msg(&mut bytes, i as u32, frame).unwrap();
    }
    bytes.push(b'E');
    out.push(Transcript {
        name: "v1 encode stream",
        bytes,
    });

    // v1 decode: hello, three packets, end.
    let mut bytes = hello_bytes(&Hello::ctvc_decode(1, W, H));
    for packet in &coded.packets {
        write_packet_msg(&mut bytes, packet).unwrap();
    }
    bytes.push(b'E');
    out.push(Transcript {
        name: "v1 decode stream",
        bytes,
    });

    // v2 encode with a mid-stream retarget between the frames.
    let mut bytes = hello_bytes(&Hello::ctvc_encode(1, W, H).with_gop(4));
    let fs = frames(2);
    write_frame_msg(&mut bytes, 0, &fs[0]).unwrap();
    write_retarget_msg(&mut bytes, &Retarget::fixed(2).with_restart()).unwrap();
    write_retarget_msg(&mut bytes, &Retarget::target_bpp(0.3, 4)).unwrap();
    write_frame_msg(&mut bytes, 1, &fs[1]).unwrap();
    bytes.push(b'E');
    out.push(Transcript {
        name: "v2 encode with retargets",
        bytes,
    });

    // v4 governed hello (client identity + target bpp), one frame.
    let mut bytes = hello_bytes(
        &Hello::ctvc_encode(1, W, H)
            .with_target_bpp(0.25, 8)
            .with_client("alice"),
    );
    write_frame_msg(&mut bytes, 0, &frames(1)[0]).unwrap();
    bytes.push(b'E');
    out.push(Transcript {
        name: "v4 governed encode",
        bytes,
    });

    // v3 publish: a broadcast-role encode stream.
    let mut bytes = hello_bytes(&Hello::ctvc_publish(1, W, H, "fuzzcast"));
    write_frame_msg(&mut bytes, 0, &frames(1)[0]).unwrap();
    bytes.push(b'E');
    out.push(Transcript {
        name: "v3 publish stream",
        bytes,
    });

    // Bad magic: the handshake must fail identically at any boundary.
    let mut bytes = hello_bytes(&Hello::ctvc_decode(1, W, H));
    bytes[0] ^= 0xFF;
    bytes.extend_from_slice(&[0u8; 64]);
    out.push(Transcript {
        name: "corrupted handshake magic",
        bytes,
    });

    // Corrupted packet CRC mid-stream.
    let mut bytes = hello_bytes(&Hello::ctvc_decode(1, W, H));
    write_packet_msg(&mut bytes, &coded.packets[0]).unwrap();
    let corrupt_at = bytes.len() - 1;
    bytes[corrupt_at] ^= 0x01;
    write_packet_msg(&mut bytes, &coded.packets[1]).unwrap();
    out.push(Transcript {
        name: "corrupted packet crc",
        bytes,
    });

    // Wrong-direction tag: a frame on a decode stream.
    let mut bytes = hello_bytes(&Hello::ctvc_decode(1, W, H));
    write_frame_msg(&mut bytes, 0, &frames(1)[0]).unwrap();
    out.push(Transcript {
        name: "frame on decode stream",
        bytes,
    });

    // Unknown tag.
    let mut bytes = hello_bytes(&Hello::ctvc_encode(1, W, H));
    bytes.push(b'Z');
    bytes.extend_from_slice(&[0u8; 32]);
    out.push(Transcript {
        name: "unknown message tag",
        bytes,
    });

    // Oversized packet length claim: must fail from the header alone.
    let mut bytes = hello_bytes(&Hello::ctvc_decode(1, W, H));
    bytes.push(b'P');
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 16]);
    out.push(Transcript {
        name: "oversized length claim",
        bytes,
    });

    // Geometry mismatch: frame header says 8x8 on a 16x16 stream.
    let small = Synthesizer::new(SceneConfig::uvg_like(8, 8, 1)).generate();
    let mut bytes = hello_bytes(&Hello::ctvc_encode(1, W, H));
    write_frame_msg(&mut bytes, 0, &small.frames()[0]).unwrap();
    out.push(Transcript {
        name: "mismatched frame geometry",
        bytes,
    });

    out
}

// ---------------------------------------------------------------------
// Replay harness
// ---------------------------------------------------------------------

fn digest(bytes: &[u8]) -> u64 {
    // FNV-1a: cheap, in-tree, collision-safe enough for equality checks
    // between two replays of the same transcript.
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Replays `bytes` through the parsers exactly as the poller would —
/// hello first, then the message stream, stopping at the first terminal
/// event — and returns the full event log, ending with the
/// `connection lost` diagnostic for a connection that dies right after
/// the last byte.
fn replay(bytes: &[u8], chunks: &[usize]) -> Vec<String> {
    assert_eq!(chunks.iter().sum::<usize>(), bytes.len());
    let mut events = Vec::new();
    let mut buf = WireBuf::new();
    let mut hello: Option<Hello> = None;
    let mut offset = 0;
    'stream: for &size in chunks {
        buf.feed(&bytes[offset..offset + size]);
        offset += size;
        loop {
            let Some(negotiated) = &hello else {
                match buf.next(Hello::parse) {
                    Ok(Some(parsed)) => {
                        events.push(format!("hello: {parsed:?}"));
                        hello = Some(parsed);
                        continue;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        events.push(format!("hello error: {e}"));
                        return events;
                    }
                }
            };
            match buf.next(|b| negotiated.parse_msg(b)) {
                Ok(Some(WireMsg::Packet(p))) => {
                    let mut re = Vec::new();
                    write_packet_msg(&mut re, &p).unwrap();
                    events.push(format!("packet: {:016x}", digest(&re)));
                }
                Ok(Some(WireMsg::Frame(index, f))) => {
                    let mut re = Vec::new();
                    write_frame_msg(&mut re, index, &f).unwrap();
                    events.push(format!("frame: {:016x}", digest(&re)));
                }
                Ok(Some(WireMsg::Retarget(r))) => events.push(format!("retarget: {r:?}")),
                Ok(Some(WireMsg::End)) => {
                    events.push("end".into());
                    break 'stream;
                }
                Ok(None) => break,
                Err(e) => {
                    events.push(format!("abort: {e}"));
                    return events;
                }
            }
        }
    }
    // The connection dies here; the diagnostic must not depend on how
    // the bytes arrived either.
    let cause = "peer closed the connection";
    match hello {
        Some(_) => events.push(format!("lost: {}", buf.lost_mid_stream(cause))),
        None => events.push(format!("lost: {}", buf.lost_in_handshake(cause))),
    }
    events
}

fn one_chunk(len: usize) -> Vec<usize> {
    if len == 0 {
        vec![]
    } else {
        vec![len]
    }
}

fn random_chunks(len: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut left = len;
    while left > 0 {
        // Mix tiny splits with big gulps so both re-parse paths run.
        let cap = if rng.next_u64().is_multiple_of(2) {
            7
        } else {
            4096
        };
        let take = (1 + rng.next_below(cap)).min(left);
        chunks.push(take);
        left -= take;
    }
    chunks
}

fn assert_boundary_invariant(name: &str, bytes: &[u8], seed: u64) {
    let reference = replay(bytes, &one_chunk(bytes.len()));
    assert!(
        !reference.is_empty(),
        "{name}: a transcript must produce at least one event"
    );
    let byte_at_a_time = replay(bytes, &vec![1; bytes.len()]);
    assert_eq!(
        reference, byte_at_a_time,
        "{name}: one-byte replay diverged from whole-transcript replay"
    );
    let mut rng = SplitMix64::new(seed);
    for round in 0..RANDOM_REPLAYS {
        let chunks = random_chunks(bytes.len(), &mut rng);
        let random = replay(bytes, &chunks);
        assert_eq!(
            reference, random,
            "{name}: random-split replay {round} diverged (chunks {chunks:?})"
        );
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn every_transcript_is_chunk_boundary_invariant() {
    for (i, t) in transcripts().iter().enumerate() {
        assert_boundary_invariant(t.name, &t.bytes, 0x5EED_0000 + i as u64);
    }
}

#[test]
fn truncated_transcripts_report_identical_interrupts() {
    for (i, t) in transcripts().iter().enumerate() {
        let mut rng = SplitMix64::new(0xC0FFEE ^ i as u64);
        // Every boundary near the front (hello region plus the first
        // message header) and random cuts across the rest.
        let mut cuts: Vec<usize> = (0..t.bytes.len().min(96)).collect();
        for _ in 0..RANDOM_CUTS {
            cuts.push(rng.next_below(t.bytes.len()));
        }
        for cut in cuts {
            let truncated = &t.bytes[..cut];
            let reference = replay(truncated, &one_chunk(cut));
            let byte_at_a_time = replay(truncated, &vec![1; cut]);
            assert_eq!(
                reference, byte_at_a_time,
                "{} cut at {cut}: truncated replay diverged",
                t.name
            );
            let random = replay(truncated, &random_chunks(cut, &mut rng));
            assert_eq!(
                reference, random,
                "{} cut at {cut}: random-split truncated replay diverged",
                t.name
            );
        }
    }
}
