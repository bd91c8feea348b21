//! Golden wire bytes for every `nvc-serve` message.
//!
//! Round-trip tests cannot catch a change of field order or endianness
//! made the same way on the writer and the parser. These fixtures are
//! hand-assembled from the layouts documented in `proto.rs` — every
//! integer little-endian — and each one must equal what the writer
//! produces *and* parse back to the value it was written from. A
//! failure here means the wire format changed, which breaks every
//! deployed peer of that protocol version.

use nvc_serve::proto::{
    ack_msg_bytes, error_msg_bytes, stats_msg_bytes, write_frame_msg, write_join_msg,
    write_retarget_msg, Ack, Family, Hello, JoinInfo, Parsed, Reply, Retarget, WireMsg,
};
use nvc_tensor::{Shape, Tensor};
use nvc_video::{Frame, FrameType, StreamStats};

// ---------------------------------------------------------------------
// Fixtures: one message each, as inline hex (whitespace separates
// fields and is ignored).
// ---------------------------------------------------------------------

/// v1: magic, version, family, role, rate, width, height.
const HELLO_V1_CTVC_DECODE: &str = "4e564353 01 00 01 01 2000 2000";
const HELLO_V1_HYBRID_ENCODE: &str = "4e564353 01 01 00 1e 4000 3000";
/// v2 appends the rate mode: [mode][milli_bpp: u32][window: u16].
const HELLO_V2_TARGET_BPP: &str = "4e564353 02 00 00 01 2000 2000 01 f4010000 0600";
/// v3 appends [gop: u16][name_len: u8][name].
const HELLO_V3_PUBLISH: &str = "4e564353 03 00 02 02 6000 4000 00 00000000 0000 0c00 04 67616d65";
const HELLO_V3_SUBSCRIBE: &str = "4e564353 03 01 03 00 6000 4000 00 00000000 0000 0000 04 67616d65";
/// v4 appends [client_len: u8][client].
const HELLO_V4_GOVERNED_ENCODE: &str =
    "4e564353 04 01 00 1e 4000 3000 01 a4010000 0600 0000 00 05 616c696365";
const HELLO_V4_ANONYMOUS_DECODE: &str =
    "4e564353 04 00 01 01 1000 1000 00 00000000 0000 0000 00 00";
const HELLO_V4_PUBLISH: &str =
    "4e564353 04 00 02 01 2000 2000 00 00000000 0000 0800 04 63617374 03 626f62";
const HELLO_V4_SUBSCRIBE: &str =
    "4e564353 04 00 03 00 2000 2000 00 00000000 0000 0000 04 63617374 03 657665";

/// Through v3 the ack is [tag][rate]; v4 appends [flags].
const ACK_V3: &str = "41 02";
const ACK_V4_PLAIN: &str = "41 1e 00";
const ACK_V4_DEGRADED: &str = "41 02 01";

/// [tag][mode][rate][milli_bpp: u32][window: u16][restart: u8].
const RETARGET_FIXED_RESTART: &str = "52 00 03 00000000 0000 01";
const RETARGET_TARGET_BPP: &str = "52 01 00 fa000000 0800 00";

/// [tag][family][rate][width: u16][height: u16][start_index: u32][gop: u16].
const JOIN: &str = "4a 00 02 6000 4000 18000000 0800";

/// [tag][index: u32][w: u16][h: u16][crc32: u32][rgb: 3 f32], pixel
/// (0.5, -0.25, 1.0).
const FRAME_1X1: &str = "46 07000000 0100 0100 b7deffb6 0000003f 000080be 0000803f";

/// [tag][frames: u32][total_bytes: u64][bytes: u32 × n][bits: u64 × n],
/// and from v2 [type: u8 × n][rate: u8 × n].
const STATS_V1: &str =
    "53 02000000 a000000000000000 78000000 28000000 2804000000000000 a801000000000000";
const STATS_V2: &str =
    "53 02000000 a000000000000000 78000000 28000000 2804000000000000 a801000000000000 49 50 01 02";

/// [tag][len: u32][utf-8].
const ERROR: &str = "58 04000000 626f6f6d";

// ---------------------------------------------------------------------
// Values the fixtures encode
// ---------------------------------------------------------------------

fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert_eq!(digits.len() % 2, 0, "odd hex fixture {s:?}");
    digits
        .chunks(2)
        .map(|pair| {
            let text = std::str::from_utf8(pair).expect("ascii hex");
            u8::from_str_radix(text, 16).expect("hex digit")
        })
        .collect()
}

fn versioned(mut hello: Hello, version: u8) -> Hello {
    hello.version = version;
    hello
}

fn hellos() -> Vec<(&'static str, Hello)> {
    vec![
        (
            HELLO_V1_CTVC_DECODE,
            versioned(Hello::ctvc_decode(1, 32, 32), 1),
        ),
        (
            HELLO_V1_HYBRID_ENCODE,
            versioned(Hello::hybrid_encode(30, 64, 48), 1),
        ),
        (
            HELLO_V2_TARGET_BPP,
            versioned(Hello::ctvc_encode(1, 32, 32).with_target_bpp(0.5, 6), 2),
        ),
        (
            HELLO_V3_PUBLISH,
            versioned(Hello::ctvc_publish(2, 96, 64, "game").with_gop(12), 3),
        ),
        (
            HELLO_V3_SUBSCRIBE,
            versioned(
                Hello::subscribe("game", 96, 64).with_family(Family::Hybrid),
                3,
            ),
        ),
        (
            HELLO_V4_GOVERNED_ENCODE,
            Hello::hybrid_encode(30, 64, 48)
                .with_target_bpp(0.42, 6)
                .with_client("alice"),
        ),
        (HELLO_V4_ANONYMOUS_DECODE, Hello::ctvc_decode(1, 16, 16)),
        (
            HELLO_V4_PUBLISH,
            Hello::ctvc_publish(1, 32, 32, "cast")
                .with_gop(8)
                .with_client("bob"),
        ),
        (
            HELLO_V4_SUBSCRIBE,
            Hello::subscribe("cast", 32, 32).with_client("eve"),
        ),
    ]
}

fn stats(version: u8) -> StreamStats {
    let v2 = version >= 2;
    StreamStats {
        frames: 2,
        bytes_per_frame: vec![120, 40],
        bits_per_frame: vec![1064, 424],
        frame_types: if v2 {
            vec![FrameType::Intra, FrameType::Predicted]
        } else {
            Vec::new()
        },
        rate_per_frame: if v2 { vec![1, 2] } else { Vec::new() },
        total_bytes: 160,
    }
}

fn pixel_frame() -> Frame {
    let rgb = [0.5f32, -0.25, 1.0];
    Frame::from_tensor(Tensor::from_fn(Shape::new(1, 3, 1, 1), |_, c, _, _| rgb[c]))
        .expect("1x1 frame")
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn hello_fixtures_match_the_writer_and_parse_back() {
    let all = hellos();
    for role in ["Encode", "Decode", "Publish", "Subscribe"] {
        assert!(
            all.iter().any(|(_, h)| format!("{:?}", h.role) == role),
            "no fixture covers the {role} role"
        );
    }
    for (fixture, hello) in all {
        let wire = hex(fixture);
        let mut written = Vec::new();
        hello.write_to(&mut written).expect("vec write");
        assert_eq!(written, wire, "writer drifted from fixture {fixture}");
        assert_eq!(parse_hello(&wire), hello, "fixture {fixture}");
    }
}

#[test]
fn ack_fixtures_match_the_writer_and_parse_back() {
    let plain = Ack {
        rate: 2,
        degraded: false,
    };
    let degraded = Ack {
        rate: 2,
        degraded: true,
    };
    // Before v4 the ack cannot carry the flag: both write the same bytes.
    assert_eq!(ack_msg_bytes(3, &plain), hex(ACK_V3));
    assert_eq!(ack_msg_bytes(3, &degraded), hex(ACK_V3));
    assert_eq!(parse_ack(&hex(ACK_V3), 3), plain);
    let full = Ack {
        rate: 30,
        degraded: false,
    };
    assert_eq!(ack_msg_bytes(4, &full), hex(ACK_V4_PLAIN));
    assert_eq!(parse_ack(&hex(ACK_V4_PLAIN), 4), full);
    assert_eq!(ack_msg_bytes(4, &degraded), hex(ACK_V4_DEGRADED));
    assert_eq!(parse_ack(&hex(ACK_V4_DEGRADED), 4), degraded);
}

#[test]
fn retarget_fixtures_match_the_writer_and_parse_back() {
    for (fixture, retarget) in [
        (RETARGET_FIXED_RESTART, Retarget::fixed(3).with_restart()),
        (RETARGET_TARGET_BPP, Retarget::target_bpp(0.25, 8)),
    ] {
        let mut written = Vec::new();
        write_retarget_msg(&mut written, &retarget).expect("vec write");
        assert_eq!(written, hex(fixture), "fixture {fixture}");
        assert_eq!(parse_retarget(&hex(fixture)), retarget);
    }
}

#[test]
fn join_fixture_matches_the_writer_and_parses_back() {
    let join = JoinInfo {
        family: Family::Ctvc,
        width: 96,
        height: 64,
        start_index: 24,
        rate: 2,
        gop: 8,
    };
    let mut written = Vec::new();
    write_join_msg(&mut written, &join).expect("vec write");
    assert_eq!(written, hex(JOIN));
    assert_eq!(parse_join(&hex(JOIN)), join);
}

#[test]
fn frame_fixture_matches_the_writer_and_parses_back() {
    let frame = pixel_frame();
    let mut written = Vec::new();
    write_frame_msg(&mut written, 7, &frame).expect("vec write");
    assert_eq!(written, hex(FRAME_1X1));
    let (index, back) = parse_frame(&hex(FRAME_1X1), (1, 1));
    assert_eq!(index, 7);
    let bits =
        |f: &Frame| -> Vec<u32> { f.tensor().as_slice().iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&back), bits(&frame));
}

#[test]
fn stats_fixtures_match_the_writer_and_parse_back() {
    for (fixture, version) in [(STATS_V1, 1), (STATS_V2, 2)] {
        let value = stats(version);
        // The writer drops the v2 columns for v1 peers on its own.
        assert_eq!(stats_msg_bytes(&stats(2), version), hex(fixture));
        assert_eq!(parse_stats(&hex(fixture), version), value);
    }
}

#[test]
fn error_fixture_matches_the_writer_and_parses_back() {
    assert_eq!(error_msg_bytes("boom"), hex(ERROR));
    assert_eq!(parse_error(&hex(ERROR)), "boom");
}

// ---------------------------------------------------------------------
// Parse helpers: each must consume the whole fixture.
// ---------------------------------------------------------------------

fn whole<T>(parsed: Parsed<T>, wire: &[u8]) -> T {
    let (msg, used) = parsed.expect("fixture parses").expect("fixture is whole");
    assert_eq!(used, wire.len(), "fixture left {} bytes", wire.len() - used);
    msg
}

/// A peer of `version` that negotiated `width`x`height`.
fn peer(version: u8, width: usize, height: usize) -> Hello {
    versioned(Hello::ctvc_encode(1, width, height), version)
}

fn reply(wire: &[u8], version: u8) -> Reply {
    whole(peer(version, 1, 1).parse_reply(wire), wire)
}

fn parse_hello(wire: &[u8]) -> Hello {
    whole(Hello::parse(wire), wire)
}

fn parse_ack(wire: &[u8], version: u8) -> Ack {
    match reply(wire, version) {
        Reply::Ack(ack) => ack,
        other => panic!("not an ack: {other:?}"),
    }
}

fn parse_retarget(wire: &[u8]) -> Retarget {
    match whole(peer(2, 1, 1).parse_msg(wire), wire) {
        WireMsg::Retarget(retarget) => retarget,
        other => panic!("not a retarget: {other:?}"),
    }
}

fn parse_join(wire: &[u8]) -> JoinInfo {
    match reply(wire, 3) {
        Reply::Join(join) => join,
        other => panic!("not a join: {other:?}"),
    }
}

fn parse_frame(wire: &[u8], (width, height): (usize, usize)) -> (u32, Frame) {
    // Both directions carry frames; both parses must agree.
    let (index, frame) = match whole(peer(1, width, height).parse_msg(wire), wire) {
        WireMsg::Frame(index, frame) => (index, frame),
        other => panic!("not a frame: {other:?}"),
    };
    match whole(peer(1, width, height).parse_reply(wire), wire) {
        Reply::Frame(i, f) => {
            assert_eq!(i, index);
            assert_eq!(f.tensor().as_slice(), frame.tensor().as_slice());
        }
        other => panic!("not a frame: {other:?}"),
    }
    (index, frame)
}

fn parse_stats(wire: &[u8], version: u8) -> StreamStats {
    match reply(wire, version) {
        Reply::Stats(stats) => stats,
        other => panic!("not stats: {other:?}"),
    }
}

fn parse_error(wire: &[u8]) -> String {
    match reply(wire, 1) {
        Reply::Error(message) => message,
        other => panic!("not an error: {other:?}"),
    }
}
