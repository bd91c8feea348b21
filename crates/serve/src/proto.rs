//! The `nvc-serve` wire protocol.
//!
//! Everything on the socket is a tagged message; all integers are
//! little-endian. A connection is:
//!
//! ```text
//! client                                server
//!   |-- Hello ("NVCS", ver, family,       |
//!   |          direction, w, h, rate) --> |
//!   |<------------- 'A' ack (rate) ------ |   (or 'X' error + close)
//!   |-- 'P' packet / 'F' frame ---------> |   one per coded/raw frame
//!   |<-- 'F' frame / 'P' packet --------- |   same order, same count
//!   |-- 'E' end ------------------------> |
//!   |<-- 'S' stats trailer -------------- |   then both sides close
//! ```
//!
//! * `'P'` carries one serialized [`Packet`] (self-delimiting: length
//!   prefix, frame index, frame kind, payload CRC32).
//! * `'F'` carries one raw frame:
//!   `[index: u32][w: u16][h: u16][crc32: u32][rgb: 3·w·h f32 LE]`.
//!   The CRC covers the pixel bytes, so a decode client detects
//!   corruption exactly as the server detects it on coded packets.
//! * `'S'` carries the stream's [`StreamStats`]: per-frame payload bytes
//!   and per-frame serialized bits.
//! * `'X'` carries a UTF-8 failure description; the sender closes the
//!   connection right after. It is valid at any point, including instead
//!   of the handshake ack.
//!
//! Protocol version 3 adds *broadcast* roles. A [`Role::Publish`]
//! connection looks like an encode stream (frames up, the publisher's
//! own coded packets back), but the server also fans the packets out to
//! every subscriber of the broadcast named in the handshake. A
//! [`Role::Subscribe`] connection is read-mostly:
//!
//! ```text
//! subscriber                            server
//!   |-- Hello (Subscribe, name) ------->  |
//!   |<------------- 'A' ack (rate) ------ |   (or 'X' error + close)
//!   |<-- 'J' join info ------------------ |   family, geometry, start
//!   |<-- 'P' packet --------------------- |   starting at an intra
//!   |<-- ...                              |
//!   |<-- 'S' stats trailer -------------- |   when the publisher ends
//! ```
//!
//! Subscribers that stop draining are *evicted*: the server drops their
//! ring and sends `'X'` instead of ever stalling the publisher.
//!
//! Protocol version 4 adds the *governed* handshake: the `Hello` may
//! carry a client identity (the governor's per-client fairness key) and
//! the ack grows a flags byte ([`Ack`]) so the server can admit a
//! session *degraded* — granted a lower starting rung than requested —
//! instead of rejecting it outright when the aggregate budget is tight.
//!
//! # Parsing
//!
//! Every message has exactly one parser. It works on a byte slice and
//! does no I/O, and it has three outcomes ([`Parsed`]): `Ok(None)` while
//! more bytes are needed, `Ok(Some((message, consumed)))` once one whole
//! message is there, or a typed [`WireError`]. Caps — geometry, payload
//! and name lengths, the stats frame count — are checked the moment
//! their header field arrives, and no length field sizes an allocation
//! before the bytes it covers are buffered. [`Hello::parse`] reads the
//! handshake; [`Hello::parse_msg`] (client → server) and
//! [`Hello::parse_reply`] (server → client) read what follows it, shaped
//! by the negotiated handshake. This module is the only place protocol
//! versions differ.
//!
//! [`WireBuf`] holds received bytes until they parse, for both
//! directions: the server's poller feeds it whatever each nonblocking
//! read returns, and the blocking clients fill it from their socket
//! until a reply completes.
//!
//! The module is public so alternative transports (or tests) can speak
//! the protocol directly; [`StreamClient`](crate::StreamClient),
//! [`SubscribeClient`](crate::SubscribeClient) and
//! [`Server`](crate::Server) are the intended entry points.

use nvc_entropy::container::{crc32, Packet, MAX_PAYLOAD_BYTES, PACKET_HEADER_BYTES};
use nvc_entropy::CodingError;
use nvc_tensor::{Shape, Tensor};
use nvc_video::{Frame, FrameType, StreamStats};
use std::fmt;
use std::io::Write;

/// Handshake magic: every connection starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"NVCS";

/// Wire-protocol version. Version 2 added the handshake's rate-mode
/// field (closed-loop target-bpp streams), the `'R'` retarget message
/// and the extended stats trailer (per-frame frame types and rate
/// indices). Version 3 added the broadcast roles ([`Role::Publish`] /
/// [`Role::Subscribe`]), the handshake's GOP-length and broadcast-name
/// fields, and the `'J'` join-info message. Version 4 added the
/// handshake's optional client-identity field (the governor's fairness
/// key) and the ack's flags byte (degraded admission, see
/// [`ACK_DEGRADED`]).
pub const VERSION: u8 = 4;

/// Oldest protocol version still accepted: version-1 (fixed-rate only)
/// through version-3 (two-byte-ack) clients keep working against a
/// version-4 server, and get the ack and trailer layouts they expect.
pub const MIN_VERSION: u8 = 1;

/// Cap on a broadcast name as carried in a version-3 handshake, and on
/// a client identity as carried in a version-4 handshake.
pub const MAX_NAME_BYTES: usize = 128;

/// Hard cap on frame dimensions accepted from the wire, keeping a
/// hostile `Hello` or frame header from forcing a giant allocation.
pub const MAX_DIM: usize = 8192;

/// Cap on an error-message body.
pub const MAX_ERROR_BYTES: usize = 1 << 16;

/// Cap on the frame count a stats trailer may claim.
pub const MAX_STATS_FRAMES: usize = 1 << 20;

/// Message tag: handshake acknowledgement (server → client).
pub const MSG_ACK: u8 = b'A';
/// Ack flags bit (protocol version ≥ 4): the session was admitted
/// *degraded* — the server's governor granted less than the requested
/// rate, and the ack's rate byte carries the granted starting rung
/// instead of echoing the request. The stream still runs; the rate is
/// restored in-band as load drains.
pub const ACK_DEGRADED: u8 = 0x01;
/// Message tag: one serialized coded packet.
pub const MSG_PACKET: u8 = b'P';
/// Message tag: one raw frame.
pub const MSG_FRAME: u8 = b'F';
/// Message tag: end of stream (client → server).
pub const MSG_END: u8 = b'E';
/// Message tag: mid-stream rate retarget (client → server, encode
/// streams, protocol version ≥ 2). Applies in stream order: frames sent
/// before the retarget are coded under the old mode, frames after it
/// under the new one.
pub const MSG_RETARGET: u8 = b'R';
/// Message tag: stream statistics trailer (server → client).
pub const MSG_STATS: u8 = b'S';
/// Message tag: failure description, connection closes after.
pub const MSG_ERROR: u8 = b'X';
/// Message tag: broadcast join info (server → subscriber, protocol
/// version ≥ 3), sent right after the ack so the subscriber knows the
/// stream's family, geometry, GOP length and starting frame index
/// before the first packet arrives.
pub const MSG_JOIN: u8 = b'J';

/// Which codec family serves the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The learned CTVC-Net codec (rate = `RatePoint` index, validated
    /// via `RatePoint::try_new`).
    Ctvc,
    /// The classical hybrid baseline (rate = QP).
    Hybrid,
}

impl Family {
    fn tag(self) -> u8 {
        match self {
            Family::Ctvc => 0,
            Family::Hybrid => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(Family::Ctvc),
            1 => Ok(Family::Hybrid),
            tag => Err(WireError::UnknownTag("codec family", tag)),
        }
    }
}

/// What the *server* does with the stream.
///
/// The first two roles are the point-to-point streams every protocol
/// version supports; the broadcast roles need protocol version ≥ 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Server encodes: the client streams raw frames and receives coded
    /// packets.
    Encode,
    /// Server decodes: the client streams coded packets and receives
    /// reconstructed frames.
    Decode,
    /// Server encodes *and relays*: like [`Role::Encode`], but the coded
    /// packets are also published under the handshake's broadcast name
    /// for any number of subscribers (protocol version ≥ 3).
    Publish,
    /// Server relays: the client sends nothing after the handshake and
    /// receives the named broadcast's packets, starting at an intra
    /// boundary (protocol version ≥ 3).
    Subscribe,
}

impl Role {
    fn tag(self) -> u8 {
        match self {
            Role::Encode => 0,
            Role::Decode => 1,
            Role::Publish => 2,
            Role::Subscribe => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(Role::Encode),
            1 => Ok(Role::Decode),
            2 => Ok(Role::Publish),
            3 => Ok(Role::Subscribe),
            tag => Err(WireError::UnknownTag("role", tag)),
        }
    }

    /// Whether this role takes part in a broadcast (and therefore needs
    /// a broadcast name and protocol version ≥ 3).
    pub fn is_broadcast(self) -> bool {
        matches!(self, Role::Publish | Role::Subscribe)
    }
}

/// Closed-loop rate target as carried on the wire (protocol ≥ 2):
/// bits-per-pixel in 1/1000 units plus a smoothing window in frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetBppWire {
    /// Target rate in milli-bits-per-pixel (`1000 × bpp`).
    pub milli_bpp: u32,
    /// Smoothing window in frames (0 = server default).
    pub window: u16,
}

impl TargetBppWire {
    /// Builds the wire form from a bits-per-pixel target. Positive
    /// targets below the wire's 1/1000 resolution round *up* to one
    /// milli-bpp, so they stay positive on the wire instead of being
    /// quantized to zero and rejected server-side.
    pub fn from_bpp(bpp: f64, window: u16) -> Self {
        let milli_bpp = if bpp > 0.0 {
            ((bpp * 1000.0).round() as u32).max(1)
        } else {
            0
        };
        TargetBppWire { milli_bpp, window }
    }

    /// The target in bits per pixel.
    pub fn bpp(&self) -> f64 {
        f64::from(self.milli_bpp) / 1000.0
    }
}

/// The handshake opening every connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version this handshake is serialized as. Constructors
    /// set the current [`VERSION`]; set `1` to speak to (or emulate) a
    /// fixed-rate-only peer — then `target` must be `None`.
    pub version: u8,
    /// Codec family serving the stream.
    pub family: Family,
    /// What the server does with the stream.
    pub role: Role,
    /// Stream width in pixels.
    pub width: usize,
    /// Stream height in pixels.
    pub height: usize,
    /// Rate parameter: a `RatePoint` index for [`Family::Ctvc`]
    /// (validated server-side via `try_new`), a QP for
    /// [`Family::Hybrid`]. For decode streams the authoritative rate
    /// rides in the bitstream header; the handshake value is still
    /// validated so a bogus request fails fast. Subscribers send 0 and
    /// learn the broadcast's rate from the ack.
    pub rate: u8,
    /// Closed-loop rate mode for encode/publish streams: when set,
    /// `rate` is not used at all — the server's controller picks every
    /// frame's rate, including the first (the ack still echoes `rate`
    /// for wire compatibility). Must be `None` for decode/subscribe
    /// streams and version-1 handshakes.
    pub target: Option<TargetBppWire>,
    /// Publish streams: requested GOP length in frames (0 = server
    /// default). Ignored for other roles; must be 0 below version 3.
    pub gop: u16,
    /// Broadcast name — required (non-empty, ≤ [`MAX_NAME_BYTES`]) for
    /// the broadcast roles, forbidden otherwise.
    pub broadcast: Option<String>,
    /// Client identity (protocol version ≥ 4, optional): the governor's
    /// per-client fairness key, so one client opening many sessions
    /// shares one budget slice instead of multiplying its share. `None`
    /// (or empty on the wire) makes the server fall back to the peer
    /// address. Must be `None` below version 4.
    pub client: Option<String>,
}

impl Hello {
    fn new(family: Family, role: Role, rate: u8, width: usize, height: usize) -> Self {
        Hello {
            version: VERSION,
            family,
            role,
            width,
            height,
            rate,
            target: None,
            gop: 0,
            broadcast: None,
            client: None,
        }
    }

    /// Handshake for a CTVC decode stream (client sends packets).
    pub fn ctvc_decode(rate: u8, width: usize, height: usize) -> Self {
        Self::new(Family::Ctvc, Role::Decode, rate, width, height)
    }

    /// Handshake for a CTVC encode stream (client sends raw frames).
    pub fn ctvc_encode(rate: u8, width: usize, height: usize) -> Self {
        Self::new(Family::Ctvc, Role::Encode, rate, width, height)
    }

    /// Handshake for a hybrid-baseline decode stream.
    pub fn hybrid_decode(qp: u8, width: usize, height: usize) -> Self {
        Self::new(Family::Hybrid, Role::Decode, qp, width, height)
    }

    /// Handshake for a hybrid-baseline encode stream.
    pub fn hybrid_encode(qp: u8, width: usize, height: usize) -> Self {
        Self::new(Family::Hybrid, Role::Encode, qp, width, height)
    }

    /// Handshake publishing a CTVC broadcast under `name` (client sends
    /// raw frames; the server encodes once and fans out).
    pub fn ctvc_publish(rate: u8, width: usize, height: usize, name: &str) -> Self {
        let mut h = Self::new(Family::Ctvc, Role::Publish, rate, width, height);
        h.broadcast = Some(name.to_string());
        h
    }

    /// Handshake publishing a hybrid-baseline broadcast under `name`.
    pub fn hybrid_publish(qp: u8, width: usize, height: usize, name: &str) -> Self {
        let mut h = Self::new(Family::Hybrid, Role::Publish, qp, width, height);
        h.broadcast = Some(name.to_string());
        h
    }

    /// Handshake subscribing to the broadcast named `name`. Geometry
    /// must match the publisher's (the mismatch fails fast at the
    /// handshake instead of at the first undecodable packet).
    pub fn subscribe(name: &str, width: usize, height: usize) -> Self {
        let mut h = Self::new(Family::Ctvc, Role::Subscribe, 0, width, height);
        h.broadcast = Some(name.to_string());
        h
    }

    /// Switches an encode handshake to closed-loop target-bpp mode
    /// (`window` frames of smoothing, 0 = server default).
    pub fn with_target_bpp(mut self, bpp: f64, window: u16) -> Self {
        self.target = Some(TargetBppWire::from_bpp(bpp, window));
        self
    }

    /// Sets a publish stream's GOP length in frames (0 = server
    /// default): the relay forces an intra refresh every `gop` frames so
    /// late subscribers never wait longer than one GOP to join.
    pub fn with_gop(mut self, gop: u16) -> Self {
        self.gop = gop;
        self
    }

    /// Switches a subscribe handshake's family expectation (the
    /// constructor defaults to CTVC).
    pub fn with_family(mut self, family: Family) -> Self {
        self.family = family;
        self
    }

    /// Sets the client identity carried in a version-4 handshake — the
    /// governor's per-client fairness key. Sessions sharing an identity
    /// share one slice of the budget.
    pub fn with_client(mut self, client: &str) -> Self {
        self.client = Some(client.to_string());
        self
    }

    /// Whether this handshake's protocol version carries the `'R'`
    /// retarget message (version ≥ 2).
    pub(crate) fn supports_retarget(&self) -> bool {
        self.version >= 2
    }

    /// Serializes the handshake in its `version`'s layout.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for geometry outside `1..=`[`MAX_DIM`]
    /// (which would otherwise truncate silently in the `u16` wire
    /// fields), for an unserializable version, for a rate target on a
    /// version-1 handshake, for broadcast fields on a pre-version-3
    /// handshake, or for a missing/oversized broadcast name; propagates
    /// writer failures.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        check_wire_dims(self.width, self.height)?;
        if self.version < MIN_VERSION || self.version > VERSION {
            return Err(invalid(format!(
                "cannot serialize protocol version {}",
                self.version
            )));
        }
        if self.version < 2 && self.target.is_some() {
            return Err(invalid("target-bpp mode needs protocol version 2".into()));
        }
        if self.version < 3
            && (self.role.is_broadcast() || self.gop != 0 || self.broadcast.is_some())
        {
            return Err(invalid("broadcast fields need protocol version 3".into()));
        }
        if self.version < 4 && self.client.is_some() {
            return Err(invalid("client identity needs protocol version 4".into()));
        }
        if let Some(client) = &self.client {
            if client.is_empty() || client.len() > MAX_NAME_BYTES {
                return Err(invalid(format!(
                    "client identity must be 1..={MAX_NAME_BYTES} bytes, got {}",
                    client.len()
                )));
            }
        }
        match &self.broadcast {
            Some(name)
                if self.role.is_broadcast() && (name.is_empty() || name.len() > MAX_NAME_BYTES) =>
            {
                return Err(invalid(format!(
                    "broadcast name must be 1..={MAX_NAME_BYTES} bytes, got {}",
                    name.len()
                )));
            }
            Some(_) if self.role.is_broadcast() => {}
            Some(_) => {
                return Err(invalid(format!(
                    "{:?} handshake cannot carry a broadcast name",
                    self.role
                )))
            }
            None if self.role.is_broadcast() => {
                return Err(invalid(format!(
                    "{:?} handshake needs a broadcast name",
                    self.role
                )))
            }
            None => {}
        }
        w.write_all(&MAGIC)?;
        w.write_all(&[self.version, self.family.tag(), self.role.tag(), self.rate])?;
        w.write_all(&(self.width as u16).to_le_bytes())?;
        w.write_all(&(self.height as u16).to_le_bytes())?;
        if self.version >= 2 {
            match self.target {
                None => {
                    w.write_all(&[0])?;
                    w.write_all(&0u32.to_le_bytes())?;
                    w.write_all(&0u16.to_le_bytes())?;
                }
                Some(t) => {
                    w.write_all(&[1])?;
                    w.write_all(&t.milli_bpp.to_le_bytes())?;
                    w.write_all(&t.window.to_le_bytes())?;
                }
            }
        }
        if self.version >= 3 {
            w.write_all(&self.gop.to_le_bytes())?;
            let name = self.broadcast.as_deref().unwrap_or("");
            w.write_all(&[name.len() as u8])?;
            w.write_all(name.as_bytes())?;
        }
        if self.version >= 4 {
            let client = self.client.as_deref().unwrap_or("");
            w.write_all(&[client.len() as u8])?;
            w.write_all(client.as_bytes())?;
        }
        Ok(())
    }

    /// Parses a handshake off the front of `bytes` and structurally
    /// validates it (magic, supported version, known tags, plausible
    /// geometry, broadcast-name rules) — the version-1 through version-4
    /// layouts. Semantic validation — rate range, target plausibility,
    /// codec-specific geometry constraints, whether the named broadcast
    /// exists — happens server-side after this.
    ///
    /// # Errors
    ///
    /// Returns the [`WireError`] of the first invalid field, as soon as
    /// that field is buffered.
    pub fn parse(bytes: &[u8]) -> Parsed<Hello> {
        parse_with(bytes, hello)
    }

    /// Parses one client → server message (`'P'`/`'F'`/`'R'`/`'E'`) off
    /// the front of `bytes`, for the stream this handshake negotiated:
    /// packets only on decode streams, frames only on encode and publish
    /// streams (checked against the negotiated geometry), retargets only
    /// from protocol version 2.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedTag`] for a tag that is unknown or
    /// not valid for this role or version, or the message's own
    /// [`WireError`].
    pub fn parse_msg(&self, bytes: &[u8]) -> Parsed<WireMsg> {
        parse_with(bytes, |c| {
            Ok(match (c.u8()?, self.role) {
                (MSG_PACKET, Role::Decode) => WireMsg::Packet(packet(c)?),
                (MSG_FRAME, Role::Encode | Role::Publish) => {
                    let (index, frame) = frame(c, (self.width, self.height))?;
                    WireMsg::Frame(index, frame)
                }
                (MSG_RETARGET, _) if self.supports_retarget() => WireMsg::Retarget(retarget(c)?),
                (MSG_END, _) => WireMsg::End,
                (tag, _) => return Err(WireError::UnexpectedTag(tag).into()),
            })
        })
    }

    /// Parses one server → client message off the front of `bytes`, in
    /// this handshake's protocol version's layouts (ack flags, stats
    /// columns); frames are checked against the negotiated geometry.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedTag`] for an unknown tag, or the
    /// message's own [`WireError`].
    pub fn parse_reply(&self, bytes: &[u8]) -> Parsed<Reply> {
        parse_with(bytes, |c| {
            Ok(match c.u8()? {
                MSG_ACK => Reply::Ack(ack(c, self.version)?),
                MSG_JOIN => Reply::Join(join(c)?),
                MSG_PACKET => Reply::Packet(packet(c)?),
                MSG_FRAME => {
                    let (index, frame) = frame(c, (self.width, self.height))?;
                    Reply::Frame(index, frame)
                }
                MSG_STATS => Reply::Stats(stats(c, self.version)?),
                MSG_ERROR => Reply::Error(error(c)?),
                tag => return Err(WireError::UnexpectedTag(tag).into()),
            })
        })
    }
}

/// The handshake acknowledgement (the `'A'` message, server → client).
///
/// Through protocol version 3 the ack is two bytes — the tag plus a
/// rate byte echoing the request. Version 4 appends a flags byte and
/// gives the rate byte teeth: under a governor the server may admit a
/// session *degraded* ([`ACK_DEGRADED`] set), in which case the rate
/// byte carries the granted starting rung rather than the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Rate parameter the stream starts at. Equal to the handshake's
    /// `rate` unless the session was admitted degraded (fixed-rate
    /// streams only; closed-loop streams keep their bpp target and the
    /// echo).
    pub rate: u8,
    /// Whether the session was admitted below its requested rate
    /// (always `false` on pre-version-4 connections, which cannot carry
    /// the flag).
    pub degraded: bool,
}

/// Writes one handshake acknowledgement (`'A'` tag + body) in the given
/// protocol version's layout: two bytes through version 3, three bytes
/// (with the flags byte) from version 4.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_ack_msg(w: &mut impl Write, version: u8, ack: &Ack) -> std::io::Result<()> {
    if version >= 4 {
        w.write_all(&[MSG_ACK, ack.rate, u8::from(ack.degraded) * ACK_DEGRADED])
    } else {
        w.write_all(&[MSG_ACK, ack.rate])
    }
}

/// [`write_ack_msg`] into owned bytes (see [`stats_msg_bytes`] for why
/// this is infallible).
pub fn ack_msg_bytes(version: u8, ack: &Ack) -> Vec<u8> {
    let mut bytes = Vec::new();
    let _ = write_ack_msg(&mut bytes, version, ack);
    bytes
}

/// A mid-stream rate retarget (the `'R'` message): replaces the encode
/// session's rate mode in stream order, optionally forcing an intra
/// refresh at the switch point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retarget {
    /// New fixed rate (`RatePoint` index / QP) when `target` is `None`.
    pub rate: u8,
    /// New closed-loop target; takes precedence over `rate`.
    pub target: Option<TargetBppWire>,
    /// Whether the next frame must restart the GOP with an intra frame.
    pub restart_gop: bool,
}

impl Retarget {
    /// Retarget to a fixed rate.
    pub fn fixed(rate: u8) -> Self {
        Retarget {
            rate,
            target: None,
            restart_gop: false,
        }
    }

    /// Retarget to a closed-loop bpp target.
    pub fn target_bpp(bpp: f64, window: u16) -> Self {
        Retarget {
            rate: 0,
            target: Some(TargetBppWire::from_bpp(bpp, window)),
            restart_gop: false,
        }
    }

    /// Also force an intra refresh at the switch.
    pub fn with_restart(mut self) -> Self {
        self.restart_gop = true;
        self
    }
}

/// Writes one retarget message (`'R'` tag + body).
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_retarget_msg(w: &mut impl Write, retarget: &Retarget) -> std::io::Result<()> {
    w.write_all(&[MSG_RETARGET])?;
    let (mode, milli_bpp, window) = match retarget.target {
        None => (0u8, 0u32, 0u16),
        Some(t) => (1, t.milli_bpp, t.window),
    };
    w.write_all(&[mode, retarget.rate])?;
    w.write_all(&milli_bpp.to_le_bytes())?;
    w.write_all(&window.to_le_bytes())?;
    w.write_all(&[u8::from(retarget.restart_gop)])
}

/// What a subscriber learns about the broadcast it just joined (the
/// `'J'` message, server → subscriber, right after the ack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinInfo {
    /// Codec family the broadcast is coded with.
    pub family: Family,
    /// Stream width in pixels.
    pub width: usize,
    /// Stream height in pixels.
    pub height: usize,
    /// Frame index of the first packet this subscriber will receive —
    /// always an intra boundary; nonzero for late joiners.
    pub start_index: u32,
    /// Rate parameter the broadcast is currently coded at.
    pub rate: u8,
    /// The relay's GOP length in frames (how far apart join points are).
    pub gop: u16,
}

/// Writes one join-info message (`'J'` tag + body).
///
/// # Errors
///
/// Returns `InvalidInput` for geometry outside the wire range;
/// propagates writer failures.
pub fn write_join_msg(w: &mut impl Write, join: &JoinInfo) -> std::io::Result<()> {
    check_wire_dims(join.width, join.height)?;
    w.write_all(&[MSG_JOIN])?;
    w.write_all(&[join.family.tag(), join.rate])?;
    w.write_all(&(join.width as u16).to_le_bytes())?;
    w.write_all(&(join.height as u16).to_le_bytes())?;
    w.write_all(&join.start_index.to_le_bytes())?;
    w.write_all(&join.gop.to_le_bytes())
}

fn dims_in_range(width: usize, height: usize) -> bool {
    (1..=MAX_DIM).contains(&width) && (1..=MAX_DIM).contains(&height)
}

fn check_wire_dims(width: usize, height: usize) -> std::io::Result<()> {
    if !dims_in_range(width, height) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("geometry {width}x{height} outside the wire range 1..={MAX_DIM}"),
        ));
    }
    Ok(())
}

/// Writes one raw-frame message (`'F'` tag + body).
///
/// # Errors
///
/// Returns `InvalidInput` for frames outside the wire's geometry range
/// (see [`MAX_DIM`]); propagates writer failures.
pub fn write_frame_msg(w: &mut impl Write, index: u32, frame: &Frame) -> std::io::Result<()> {
    check_wire_dims(frame.width(), frame.height())?;
    let data = frame.tensor().as_slice();
    let mut payload = Vec::with_capacity(data.len() * 4);
    for v in data {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&[MSG_FRAME])?;
    w.write_all(&index.to_le_bytes())?;
    w.write_all(&(frame.width() as u16).to_le_bytes())?;
    w.write_all(&(frame.height() as u16).to_le_bytes())?;
    w.write_all(&crc32(&payload).to_le_bytes())?;
    w.write_all(&payload)
}

/// Writes one coded-packet message (`'P'` tag + serialized packet).
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_packet_msg(w: &mut impl Write, packet: &Packet) -> std::io::Result<()> {
    w.write_all(&[MSG_PACKET])?;
    w.write_all(&packet.to_bytes())
}

/// Writes the stream-statistics trailer (`'S'` tag + body) in the given
/// protocol version's layout: version ≥ 2 appends one frame-type byte
/// (`'I'`/`'P'`) and one rate byte per frame, so clients can see which
/// frames absorbed rate changes.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_stats_msg(
    w: &mut impl Write,
    stats: &StreamStats,
    version: u8,
) -> std::io::Result<()> {
    w.write_all(&[MSG_STATS])?;
    w.write_all(&(stats.frames as u32).to_le_bytes())?;
    w.write_all(&(stats.total_bytes as u64).to_le_bytes())?;
    for &b in &stats.bytes_per_frame {
        w.write_all(&(b as u32).to_le_bytes())?;
    }
    for &b in &stats.bits_per_frame {
        w.write_all(&b.to_le_bytes())?;
    }
    if version >= 2 {
        for kind in &stats.frame_types {
            w.write_all(&[match kind {
                FrameType::Intra => b'I',
                FrameType::Predicted => b'P',
            }])?;
        }
        for &rate in &stats.rate_per_frame {
            w.write_all(&[rate])?;
        }
    }
    Ok(())
}

/// [`write_stats_msg`] into owned bytes. A `Vec` writer cannot fail, so
/// the `io::Result` is vacuous and dropped rather than unwrapped.
pub fn stats_msg_bytes(stats: &StreamStats, version: u8) -> Vec<u8> {
    let mut bytes = Vec::new();
    let _ = write_stats_msg(&mut bytes, stats, version);
    bytes
}

/// Writes a failure-description message (`'X'` tag + body). The sender
/// closes the connection after this.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_error_msg(w: &mut impl Write, message: &str) -> std::io::Result<()> {
    let bytes = message.as_bytes();
    let len = bytes.len().min(MAX_ERROR_BYTES);
    w.write_all(&[MSG_ERROR])?;
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&bytes[..len])
}

/// [`write_error_msg`] into owned bytes (see [`stats_msg_bytes`] for
/// why this is infallible).
pub fn error_msg_bytes(message: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    let _ = write_error_msg(&mut bytes, message);
    bytes
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// What every parser returns: `Ok(None)` while more bytes are needed,
/// `Ok(Some((message, consumed)))` once one whole message sits at the
/// front of the input, `Err` when the bytes can never become a valid
/// message.
pub type Parsed<T> = Result<Option<(T, usize)>, WireError>;

/// Why received bytes are not a valid message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The handshake does not open with [`MAGIC`].
    BadMagic([u8; 4]),
    /// A handshake version outside [`MIN_VERSION`]`..=`[`VERSION`].
    UnsupportedVersion(u8),
    /// A byte with no meaning in its field: `(field, byte)`.
    UnknownTag(&'static str, u8),
    /// A broadcast role in a handshake older than version 3:
    /// `(role, version)`.
    RoleNeedsVersion(Role, u8),
    /// A broadcast role without a broadcast name, or another role with
    /// one.
    BroadcastName(Role),
    /// Geometry outside `1..=`[`MAX_DIM`]: `(what, width, height)`.
    Geometry(&'static str, usize, usize),
    /// A frame whose geometry is not the negotiated one:
    /// `((width, height), negotiated)`.
    GeometryMismatch((usize, usize), (usize, usize)),
    /// A length or count field above its cap: `(field, claimed, cap)`.
    OverCap(&'static str, usize, usize),
    /// A name field that is not UTF-8.
    NotUtf8(&'static str),
    /// Frame pixels that do not match their CRC: `(stored, computed)`.
    FrameCrc(u32, u32),
    /// A packet the container rejects (unknown frame kind, CRC
    /// mismatch).
    Packet(CodingError),
    /// A message tag that is unknown, or not valid for the stream's role
    /// or protocol version.
    UnexpectedTag(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(magic) => write!(f, "bad magic {magic:02X?} (expected \"NVCS\")"),
            WireError::UnsupportedVersion(v) => write!(
                f,
                "unsupported protocol version {v} (accepted {MIN_VERSION}..={VERSION})"
            ),
            WireError::UnknownTag(field, tag) => write!(f, "unknown {field} 0x{tag:02X}"),
            WireError::RoleNeedsVersion(role, v) => write!(
                f,
                "{role:?} role needs protocol version 3, handshake is version {v}"
            ),
            WireError::BroadcastName(role) if role.is_broadcast() => {
                write!(f, "{role:?} handshake needs a broadcast name")
            }
            WireError::BroadcastName(role) => {
                write!(f, "{role:?} handshake cannot carry a broadcast name")
            }
            WireError::Geometry(what, w, h) => write!(f, "implausible {what} geometry {w}x{h}"),
            WireError::GeometryMismatch((w, h), (nw, nh)) => {
                write!(f, "frame {w}x{h} does not match negotiated {nw}x{nh}")
            }
            WireError::OverCap(what, claimed, cap) => {
                write!(f, "{what} of {claimed} exceeds the cap of {cap}")
            }
            WireError::NotUtf8(what) => write!(f, "{what} is not UTF-8"),
            WireError::FrameCrc(stored, computed) => write!(
                f,
                "frame CRC mismatch: stored {stored:08X}, computed {computed:08X}"
            ),
            WireError::Packet(e) => write!(f, "bad packet: {e}"),
            WireError::UnexpectedTag(tag) => write!(f, "unexpected message tag 0x{tag:02X}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One client → server message after the handshake.
#[derive(Debug)]
pub enum WireMsg {
    /// A coded packet on a decode stream (`'P'`).
    Packet(Packet),
    /// A raw frame and its sender-side index on an encode or publish
    /// stream (`'F'`).
    Frame(u32, Frame),
    /// A mid-stream rate retarget (`'R'`, protocol ≥ 2).
    Retarget(Retarget),
    /// End of stream (`'E'`).
    End,
}

/// One server → client message.
#[derive(Debug)]
pub enum Reply {
    /// The handshake ack (`'A'`).
    Ack(Ack),
    /// Broadcast join info (`'J'`, subscribers).
    Join(JoinInfo),
    /// A coded packet (`'P'`, encode, publish and subscribe streams).
    Packet(Packet),
    /// A reconstructed frame and its index (`'F'`, decode streams).
    Frame(u32, Frame),
    /// The stream-statistics trailer (`'S'`).
    Stats(StreamStats),
    /// The server's failure description (`'X'`); it closes right after.
    Error(String),
}

impl Reply {
    /// The message's wire tag.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            Reply::Ack(_) => MSG_ACK,
            Reply::Join(_) => MSG_JOIN,
            Reply::Packet(_) => MSG_PACKET,
            Reply::Frame(..) => MSG_FRAME,
            Reply::Stats(_) => MSG_STATS,
            Reply::Error(_) => MSG_ERROR,
        }
    }
}

/// How many bytes [`WireBuf::fill`] offers a read at once.
const READ_ROOM: usize = 16 << 10;

/// The receive side of one connection: bytes that arrived but have not
/// parsed into a whole message yet.
///
/// Parsed messages advance a read offset; the consumed prefix is
/// compacted away when the next bytes arrive, so a burst of pipelined
/// messages costs no per-message copy. The buffer only ever holds bytes
/// that actually arrived: a length field never reserves space ahead of
/// its payload.
#[derive(Debug, Default)]
pub struct WireBuf {
    bytes: Vec<u8>,
    /// Offset of the first unparsed byte.
    start: usize,
}

impl WireBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.compact();
        self.bytes.extend_from_slice(chunk);
    }

    /// Reads more bytes straight into the buffer: `read` gets free room
    /// at the end and returns how much of it it filled (0 at end of
    /// stream).
    pub(crate) fn fill(
        &mut self,
        read: impl FnOnce(&mut [u8]) -> std::io::Result<usize>,
    ) -> std::io::Result<usize> {
        self.compact();
        let held = self.bytes.len();
        self.bytes.resize(held + READ_ROOM, 0);
        let result = read(&mut self.bytes[held..]);
        let filled = result.as_ref().map_or(0, |&n| n.min(READ_ROOM));
        self.bytes.truncate(held + filled);
        result
    }

    /// The received bytes not yet parsed.
    pub fn held(&self) -> &[u8] {
        &self.bytes[self.start..]
    }

    /// Runs `parse` over the held bytes and consumes the message it
    /// returns; `Ok(None)` means more bytes are needed.
    ///
    /// # Errors
    ///
    /// Passes on the parser's [`WireError`]; the bytes stay held.
    pub fn next<T>(
        &mut self,
        parse: impl FnOnce(&[u8]) -> Parsed<T>,
    ) -> Result<Option<T>, WireError> {
        let Some((msg, used)) = parse(self.held())? else {
            return Ok(None);
        };
        self.start += used;
        if self.start == self.bytes.len() {
            self.bytes.clear();
            self.start = 0;
        }
        Ok(Some(msg))
    }

    /// The reason a handshake failed when its connection died (or its
    /// deadline passed) — `cause` — with these bytes held.
    pub fn lost_in_handshake(&self, cause: &str) -> String {
        format!(
            "handshake: {cause} with {} handshake bytes received",
            self.held().len()
        )
    }

    /// The reason a stream aborted when its connection died — `cause` —
    /// with these bytes held: between messages, or inside the message
    /// the held bytes start.
    pub fn lost_mid_stream(&self, cause: &str) -> String {
        match self.held().first() {
            None => format!("connection lost mid-stream: {cause} between messages"),
            Some(&tag) => format!(
                "connection lost mid-stream: {cause} with {} bytes of a '{}' message received",
                self.held().len(),
                char::from(tag).escape_default()
            ),
        }
    }

    /// Moves the unparsed tail to the front.
    fn compact(&mut self) {
        if self.start > 0 {
            self.bytes.copy_within(self.start.., 0);
            self.bytes.truncate(self.bytes.len() - self.start);
            self.start = 0;
        }
    }
}

/// Why a parse stopped before the end of a message.
enum Stop {
    /// The input ends inside the message.
    More,
    /// The bytes are invalid.
    Bad(WireError),
}

impl From<WireError> for Stop {
    fn from(e: WireError) -> Self {
        Stop::Bad(e)
    }
}

/// Reads little-endian fields off the front of a byte slice.
#[derive(Clone, Copy)]
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// The next `n` bytes, or [`Stop::More`] if they have not arrived.
    fn take(&mut self, n: usize) -> Result<&'a [u8], Stop> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        let taken = rest.get(..n).ok_or(Stop::More)?;
        self.pos += n;
        Ok(taken)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Stop> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, Stop> {
        self.array().map(u8::from_le_bytes)
    }

    fn u16(&mut self) -> Result<u16, Stop> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, Stop> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, Stop> {
        self.array().map(u64::from_le_bytes)
    }
}

fn parse_with<T>(
    bytes: &[u8],
    parse: impl FnOnce(&mut Cursor<'_>) -> Result<T, Stop>,
) -> Parsed<T> {
    let mut cursor = Cursor { bytes, pos: 0 };
    match parse(&mut cursor) {
        Ok(msg) => Ok(Some((msg, cursor.pos))),
        Err(Stop::More) => Ok(None),
        Err(Stop::Bad(e)) => Err(e),
    }
}

fn over_cap(what: &'static str, claimed: usize, cap: usize) -> Result<(), Stop> {
    if claimed > cap {
        return Err(WireError::OverCap(what, claimed, cap).into());
    }
    Ok(())
}

/// `[width: u16][height: u16]`, each in `1..=MAX_DIM`.
fn dims(c: &mut Cursor<'_>, what: &'static str) -> Result<(usize, usize), Stop> {
    let width = usize::from(c.u16()?);
    let height = usize::from(c.u16()?);
    if !dims_in_range(width, height) {
        return Err(WireError::Geometry(what, width, height).into());
    }
    Ok((width, height))
}

/// `[len: u8][utf-8]`; empty means absent.
fn name(c: &mut Cursor<'_>, what: &'static str) -> Result<Option<String>, Stop> {
    let len = usize::from(c.u8()?);
    over_cap(what, len, MAX_NAME_BYTES)?;
    let name = std::str::from_utf8(c.take(len)?).map_err(|_| WireError::NotUtf8(what))?;
    Ok((!name.is_empty()).then(|| name.to_string()))
}

/// `[mode: u8]`: 0 fixed rate, 1 target bpp.
fn rate_mode(c: &mut Cursor<'_>, field: &'static str) -> Result<bool, Stop> {
    match c.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::UnknownTag(field, tag).into()),
    }
}

fn hello(c: &mut Cursor<'_>) -> Result<Hello, Stop> {
    let magic = c.array()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic).into());
    }
    let version = c.u8()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(WireError::UnsupportedVersion(version).into());
    }
    let family = Family::from_tag(c.u8()?)?;
    let role = Role::from_tag(c.u8()?)?;
    if role.is_broadcast() && version < 3 {
        return Err(WireError::RoleNeedsVersion(role, version).into());
    }
    let rate = c.u8()?;
    let (width, height) = dims(c, "stream")?;
    let target = if version >= 2 {
        let targeted = rate_mode(c, "rate mode")?;
        let milli_bpp = c.u32()?;
        let window = c.u16()?;
        targeted.then_some(TargetBppWire { milli_bpp, window })
    } else {
        None
    };
    let (gop, broadcast) = if version >= 3 {
        (c.u16()?, name(c, "broadcast name length")?)
    } else {
        (0, None)
    };
    if role.is_broadcast() != broadcast.is_some() {
        return Err(WireError::BroadcastName(role).into());
    }
    let client = if version >= 4 {
        name(c, "client identity length")?
    } else {
        None
    };
    Ok(Hello {
        version,
        family,
        role,
        width,
        height,
        rate,
        target,
        gop,
        broadcast,
        client,
    })
}

/// `'A'` body: `[rate]`, plus `[flags]` from version 4. Unknown flag
/// bits are ignored so a newer server can extend the byte.
fn ack(c: &mut Cursor<'_>, version: u8) -> Result<Ack, Stop> {
    let rate = c.u8()?;
    let degraded = version >= 4 && (c.u8()? & ACK_DEGRADED) != 0;
    Ok(Ack { rate, degraded })
}

/// `'R'` body: `[mode][rate][milli_bpp: u32][window: u16][restart]`.
fn retarget(c: &mut Cursor<'_>) -> Result<Retarget, Stop> {
    let targeted = rate_mode(c, "retarget rate mode")?;
    let rate = c.u8()?;
    let milli_bpp = c.u32()?;
    let window = c.u16()?;
    let restart_gop = c.u8()? != 0;
    Ok(Retarget {
        rate,
        target: targeted.then_some(TargetBppWire { milli_bpp, window }),
        restart_gop,
    })
}

/// `'J'` body: `[family][rate][w: u16][h: u16][start: u32][gop: u16]`.
fn join(c: &mut Cursor<'_>) -> Result<JoinInfo, Stop> {
    let family = Family::from_tag(c.u8()?)?;
    let rate = c.u8()?;
    let (width, height) = dims(c, "broadcast")?;
    let start_index = c.u32()?;
    let gop = c.u16()?;
    Ok(JoinInfo {
        family,
        width,
        height,
        start_index,
        rate,
        gop,
    })
}

/// `'F'` body: `[index: u32][w: u16][h: u16][crc32: u32][rgb f32 LE]`.
/// The geometry must be the negotiated one, so the payload length is
/// bounded by the handshake before any pixel is awaited.
fn frame(c: &mut Cursor<'_>, negotiated: (usize, usize)) -> Result<(u32, Frame), Stop> {
    let index = c.u32()?;
    let (width, height) = dims(c, "frame")?;
    if (width, height) != negotiated {
        return Err(WireError::GeometryMismatch((width, height), negotiated).into());
    }
    let stored = c.u32()?;
    let payload = c.take(12 * width * height)?;
    let computed = crc32(payload);
    if computed != stored {
        return Err(WireError::FrameCrc(stored, computed).into());
    }
    let mut tensor = Tensor::zeros(Shape::new(1, 3, height, width));
    for (v, b) in tensor
        .as_mut_slice()
        .iter_mut()
        .zip(payload.chunks_exact(4))
    {
        *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
    let frame =
        Frame::from_tensor(tensor).map_err(|_| WireError::Geometry("frame", width, height))?;
    Ok((index, frame))
}

/// `'P'` body: one serialized [`Packet`]. The length field leads the
/// container header, so its cap is checked as soon as it arrives.
fn packet(c: &mut Cursor<'_>) -> Result<Packet, Stop> {
    // Probe the header on copies of the cursor; the whole packet is
    // taken from its start once the header has passed.
    let mut probe = *c;
    let len = probe.u32()? as usize;
    over_cap("packet payload length", len, MAX_PAYLOAD_BYTES)?;
    let mut probe = *c;
    Packet::peek_header(probe.take(PACKET_HEADER_BYTES)?).map_err(WireError::Packet)?;
    let (packet, _) =
        Packet::from_bytes(c.take(PACKET_HEADER_BYTES + len)?).map_err(WireError::Packet)?;
    Ok(packet)
}

/// `'S'` body: `[frames: u32][total_bytes: u64][bytes: u32 × n]
/// [bits: u64 × n]`, and from version 2 `[type: u8 × n][rate: u8 × n]`.
/// Every column is buffered before any is collected.
fn stats(c: &mut Cursor<'_>, version: u8) -> Result<StreamStats, Stop> {
    let frames = c.u32()? as usize;
    over_cap("stats frame count", frames, MAX_STATS_FRAMES)?;
    let total_bytes = c.u64()? as usize;
    let per_frame = if version >= 2 { 4 + 8 + 1 + 1 } else { 4 + 8 };
    let body = c.take(per_frame * frames)?;
    let (bytes, rest) = body.split_at(4 * frames);
    let (bits, rest) = rest.split_at(8 * frames);
    let (types, rates) = rest.split_at(rest.len() / 2);
    let frame_types = types
        .iter()
        .map(|&tag| match tag {
            b'I' => Ok(FrameType::Intra),
            b'P' => Ok(FrameType::Predicted),
            tag => Err(WireError::UnknownTag("stats frame type", tag)),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(StreamStats {
        frames,
        bytes_per_frame: bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
            .collect(),
        bits_per_frame: bits
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect(),
        frame_types,
        rate_per_frame: rates.to_vec(),
        total_bytes,
    })
}

/// `'X'` body: `[len: u32][utf-8]`, decoded lossily.
fn error(c: &mut Cursor<'_>) -> Result<String, Stop> {
    let len = c.u32()? as usize;
    over_cap("error message length", len, MAX_ERROR_BYTES)?;
    Ok(String::from_utf8_lossy(c.take(len)?).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello_bytes(h: &Hello) -> Vec<u8> {
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        buf
    }

    /// A parse that must consume exactly `len` bytes.
    fn whole<T>(parsed: Parsed<T>, len: usize) -> T {
        let (msg, used) = parsed.unwrap().expect("a whole message");
        assert_eq!(used, len, "consumed length");
        msg
    }

    fn parse_hello(buf: &[u8]) -> Hello {
        whole(Hello::parse(buf), buf.len())
    }

    /// A client of `version` whose replies are parsed.
    fn peer(version: u8) -> Hello {
        let mut h = Hello::ctvc_decode(1, 4, 6);
        h.version = version;
        h
    }

    #[test]
    fn hello_roundtrips() {
        for h in [
            Hello::ctvc_decode(2, 96, 64),
            Hello::ctvc_encode(0, 16, 16),
            Hello::hybrid_decode(40, 640, 368),
            Hello::hybrid_encode(28, 1920, 1088),
        ] {
            assert_eq!(parse_hello(&hello_bytes(&h)), h);
        }
        // Pipelined bytes behind the hello are not consumed.
        let mut buf = hello_bytes(&Hello::ctvc_decode(2, 96, 64));
        let len = buf.len();
        buf.push(MSG_END);
        assert_eq!(Hello::parse(&buf).unwrap().unwrap().1, len);
    }

    #[test]
    fn hello_rejects_garbage() {
        let bad = |bytes: &[u8]| Hello::parse(bytes).unwrap_err();
        assert!(matches!(
            bad(b"XXXX\x01\x00\x00\x00\x10\x00\x10\x00"),
            WireError::BadMagic(_)
        ));
        assert_eq!(
            bad(b"NVCS\x09\x00\x00\x00\x10\x00\x10\x00"),
            WireError::UnsupportedVersion(9)
        );
        assert!(matches!(
            bad(b"NVCS\x01\x07\x00\x00\x10\x00\x10\x00"),
            WireError::UnknownTag(_, 7)
        ));
        assert!(matches!(
            bad(b"NVCS\x01\x00\x07\x00\x10\x00\x10\x00"),
            WireError::UnknownTag(_, 7)
        ));
        assert!(matches!(
            bad(b"NVCS\x01\x00\x00\x00\x00\x00\x10\x00"),
            WireError::Geometry(_, 0, _)
        ));
        // A bad field fails as soon as it arrives, without its tail.
        assert!(matches!(bad(b"XXXX"), WireError::BadMagic(_)));
        assert_eq!(bad(b"NVCS\x09"), WireError::UnsupportedVersion(9));
        // Every proper prefix of a valid hello needs more bytes.
        let buf = hello_bytes(&Hello::ctvc_decode(1, 32, 32));
        for cut in 0..buf.len() {
            assert!(Hello::parse(&buf[..cut]).unwrap().is_none(), "cut {cut}");
        }
    }

    #[test]
    fn frame_message_roundtrips_bit_exactly() {
        let frame = Frame::from_tensor(Tensor::from_fn(Shape::new(1, 3, 6, 4), |_, c, y, x| {
            (c * 100 + y * 10 + x) as f32 * 0.01 - 0.3
        }))
        .unwrap();
        let mut buf = Vec::new();
        write_frame_msg(&mut buf, 7, &frame).unwrap();
        assert_eq!(buf[0], MSG_FRAME);
        let encoder = Hello::ctvc_encode(1, 4, 6);
        let WireMsg::Frame(index, back) = whole(encoder.parse_msg(&buf), buf.len()) else {
            panic!("not a frame");
        };
        assert_eq!(index, 7);
        assert_eq!(back.tensor().as_slice(), frame.tensor().as_slice());
        // The decode-side parser reads the same bytes the same way.
        let Reply::Frame(7, back) = whole(peer(VERSION).parse_reply(&buf), buf.len()) else {
            panic!("not frame 7");
        };
        assert_eq!(back.tensor().as_slice(), frame.tensor().as_slice());
        // A negotiated-geometry mismatch is caught on the header alone.
        let other = Hello::ctvc_encode(1, 16, 16);
        assert!(matches!(
            other.parse_msg(&buf[..9]),
            Err(WireError::GeometryMismatch(..))
        ));
        // Truncation needs more bytes.
        assert!(encoder.parse_msg(&buf[..buf.len() - 4]).unwrap().is_none());
        // Pixel corruption is caught by the CRC.
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert!(matches!(
            encoder.parse_msg(&buf),
            Err(WireError::FrameCrc(..))
        ));
    }

    #[test]
    fn write_side_rejects_untransmittable_geometry() {
        let mut buf = Vec::new();
        let hello = Hello::ctvc_encode(1, MAX_DIM + 16, 32);
        let err = hello.write_to(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing may hit the wire on rejection");
    }

    #[test]
    fn stats_message_roundtrips() {
        let stats = StreamStats {
            frames: 3,
            bytes_per_frame: vec![120, 40, 41],
            bits_per_frame: vec![1064, 424, 432],
            frame_types: vec![FrameType::Intra, FrameType::Predicted, FrameType::Predicted],
            rate_per_frame: vec![1, 1, 2],
            total_bytes: 240,
        };
        let buf = stats_msg_bytes(&stats, VERSION);
        assert_eq!(buf[0], MSG_STATS);
        let Reply::Stats(back) = whole(peer(VERSION).parse_reply(&buf), buf.len()) else {
            panic!("not stats");
        };
        assert_eq!(back, stats);
        assert!(peer(VERSION)
            .parse_reply(&buf[..buf.len() - 1])
            .unwrap()
            .is_none());

        // The version-1 layout drops the frame-type and rate columns.
        let v1 = stats_msg_bytes(&stats, 1);
        assert!(v1.len() < buf.len());
        let Reply::Stats(back) = whole(peer(1).parse_reply(&v1), v1.len()) else {
            panic!("not stats");
        };
        assert_eq!(back.bits_per_frame, stats.bits_per_frame);
        assert!(back.frame_types.is_empty() && back.rate_per_frame.is_empty());

        // An unknown frame-type byte is rejected.
        let mut bad = buf.clone();
        bad[buf.len() - 4] = b'Z';
        assert!(matches!(
            peer(VERSION).parse_reply(&bad),
            Err(WireError::UnknownTag(_, b'Z'))
        ));
    }

    #[test]
    fn retarget_message_roundtrips() {
        let encoder = Hello::ctvc_encode(1, 16, 16);
        let mut buf = Vec::new();
        for r in [
            Retarget::fixed(2),
            Retarget::fixed(3).with_restart(),
            Retarget::target_bpp(0.25, 8),
            Retarget::target_bpp(1.5, 0).with_restart(),
        ] {
            buf.clear();
            write_retarget_msg(&mut buf, &r).unwrap();
            assert_eq!(buf[0], MSG_RETARGET);
            let WireMsg::Retarget(back) = whole(encoder.parse_msg(&buf), buf.len()) else {
                panic!("not a retarget");
            };
            assert_eq!(back, r);
        }
        // Truncation needs more bytes; an unknown mode tag fails at once.
        assert!(encoder.parse_msg(&buf[..buf.len() - 1]).unwrap().is_none());
        buf[1] = 0x07;
        assert!(matches!(
            encoder.parse_msg(&buf[..2]),
            Err(WireError::UnknownTag(_, 0x07))
        ));
    }

    #[test]
    fn requests_are_filtered_by_role_and_version() {
        let mut retarget = Vec::new();
        write_retarget_msg(&mut retarget, &Retarget::fixed(2)).unwrap();
        let mut v1 = Hello::ctvc_encode(1, 16, 16);
        v1.version = 1;
        assert!(!v1.supports_retarget());
        assert_eq!(
            v1.parse_msg(&retarget).unwrap_err(),
            WireError::UnexpectedTag(MSG_RETARGET)
        );
        // Packets only on decode streams, frames only on encode streams.
        let packet = [MSG_PACKET];
        assert_eq!(
            Hello::ctvc_encode(1, 16, 16)
                .parse_msg(&packet)
                .unwrap_err(),
            WireError::UnexpectedTag(MSG_PACKET)
        );
        assert_eq!(
            Hello::ctvc_decode(1, 16, 16)
                .parse_msg(&[MSG_FRAME])
                .unwrap_err(),
            WireError::UnexpectedTag(MSG_FRAME)
        );
        assert!(matches!(
            Hello::ctvc_decode(1, 16, 16).parse_msg(&[MSG_END]),
            Ok(Some((WireMsg::End, 1)))
        ));
    }

    #[test]
    fn version1_hello_still_parses() {
        // The exact 12-byte layout version-1 clients send.
        let mut v1 = Hello::ctvc_encode(1, 32, 32);
        v1.version = 1;
        let buf = hello_bytes(&v1);
        assert_eq!(buf.len(), 12, "version-1 layout is 12 bytes");
        assert_eq!(parse_hello(&buf), v1);
        // A version-1 handshake cannot carry a rate target.
        let bad = v1.with_target_bpp(0.3, 4);
        assert!(bad.write_to(&mut Vec::new()).is_err());
    }

    #[test]
    fn version2_hello_still_parses() {
        // The exact 19-byte layout version-2 clients send.
        let mut v2 = Hello::ctvc_encode(1, 32, 32).with_target_bpp(0.5, 6);
        v2.version = 2;
        let buf = hello_bytes(&v2);
        assert_eq!(buf.len(), 19, "version-2 layout is 19 bytes");
        assert_eq!(parse_hello(&buf), v2);
        // A version-2 handshake cannot carry broadcast fields…
        let mut bad = v2.clone();
        bad.broadcast = Some("game".into());
        assert!(bad.write_to(&mut Vec::new()).is_err());
        let mut bad = v2.clone();
        bad.gop = 8;
        assert!(bad.write_to(&mut Vec::new()).is_err());
        // …and a broadcast role tag is rejected in a version-2 header.
        let mut wire = buf.clone();
        wire[6] = 2; // Publish
        assert_eq!(
            Hello::parse(&wire).unwrap_err(),
            WireError::RoleNeedsVersion(Role::Publish, 2)
        );
    }

    #[test]
    fn version3_hello_still_parses() {
        // The exact layout version-3 clients send: version-2's 19 bytes
        // plus [gop: u16][name_len: u8][name] and no client field.
        let mut v3 = Hello::ctvc_publish(1, 32, 32, "game").with_gop(8);
        v3.version = 3;
        let buf = hello_bytes(&v3);
        assert_eq!(buf.len(), 19 + 2 + 1 + 4, "version-3 layout");
        assert_eq!(parse_hello(&buf), v3);
        // A version-3 handshake cannot carry a client identity.
        let bad = v3.with_client("alice");
        assert!(bad.write_to(&mut Vec::new()).is_err());
    }

    #[test]
    fn version4_client_identity_roundtrips() {
        let h = Hello::hybrid_encode(30, 64, 48).with_client("alice");
        let buf = hello_bytes(&h);
        assert_eq!(parse_hello(&buf), h);
        // Anonymous version-4 handshakes write a zero-length identity
        // and read back as `None`.
        let anon = Hello::hybrid_encode(30, 64, 48);
        let buf = hello_bytes(&anon);
        assert_eq!(*buf.last().unwrap(), 0);
        assert_eq!(parse_hello(&buf).client, None);
        // Empty and oversized identities are rejected on the write side.
        let mut empty = anon.clone();
        empty.client = Some(String::new());
        assert!(empty.write_to(&mut Vec::new()).is_err());
        let long = "c".repeat(MAX_NAME_BYTES + 1);
        assert!(Hello::hybrid_encode(30, 64, 48)
            .with_client(&long)
            .write_to(&mut Vec::new())
            .is_err());
        // …and an oversized length claim on the read side, before the
        // identity's bytes arrive.
        let mut wire = buf.clone();
        let at = wire.len() - 1;
        wire[at] = (MAX_NAME_BYTES + 1) as u8;
        assert!(matches!(Hello::parse(&wire), Err(WireError::OverCap(..))));
        // Every proper prefix inside the identity needs more bytes.
        let buf = hello_bytes(&h);
        for cut in 0..buf.len() {
            assert!(Hello::parse(&buf[..cut]).unwrap().is_none(), "cut {cut}");
        }
    }

    #[test]
    fn ack_layout_is_version_gated() {
        // Pre-version-4 acks stay two bytes and can never say degraded.
        let ack = Ack {
            rate: 2,
            degraded: true,
        };
        let v3 = ack_msg_bytes(3, &ack);
        assert_eq!(v3, [MSG_ACK, 2]);
        let Reply::Ack(back) = whole(peer(3).parse_reply(&v3), 2) else {
            panic!("not an ack");
        };
        assert_eq!((back.rate, back.degraded), (2, false));
        // Version-4 acks carry the flags byte.
        let v4 = ack_msg_bytes(VERSION, &ack);
        assert_eq!(v4, [MSG_ACK, 2, ACK_DEGRADED]);
        let Reply::Ack(back) = whole(peer(VERSION).parse_reply(&v4), 3) else {
            panic!("not an ack");
        };
        assert_eq!(back, ack);
        let plain = ack_msg_bytes(
            VERSION,
            &Ack {
                rate: 30,
                degraded: false,
            },
        );
        assert_eq!(plain, [MSG_ACK, 30, 0]);
        // Unknown flag bits are ignored; a missing flags byte is awaited.
        let future = [MSG_ACK, 7, 0xFE];
        let Reply::Ack(back) = whole(peer(VERSION).parse_reply(&future), 3) else {
            panic!("not an ack");
        };
        assert!(!back.degraded);
        assert!(peer(VERSION).parse_reply(&v4[..2]).unwrap().is_none());
    }

    #[test]
    fn broadcast_hellos_roundtrip() {
        for h in [
            Hello::ctvc_publish(2, 96, 64, "game").with_gop(12),
            Hello::hybrid_publish(28, 640, 368, "screen-share"),
            Hello::subscribe("game", 96, 64),
            Hello::subscribe("screen-share", 640, 368).with_family(Family::Hybrid),
            Hello::ctvc_publish(1, 32, 32, "g").with_target_bpp(0.4, 4),
        ] {
            assert_eq!(parse_hello(&hello_bytes(&h)), h, "{h:?}");
        }
        // Every proper prefix needs more bytes.
        let buf = hello_bytes(&Hello::ctvc_publish(1, 32, 32, "game"));
        for cut in 0..buf.len() {
            assert!(Hello::parse(&buf[..cut]).unwrap().is_none(), "cut {cut}");
        }
    }

    #[test]
    fn broadcast_name_rules_are_enforced() {
        // Broadcast roles need a name.
        let mut nameless = Hello::ctvc_publish(1, 32, 32, "x");
        nameless.broadcast = None;
        assert!(nameless.write_to(&mut Vec::new()).is_err());
        // Empty and oversized names are rejected.
        assert!(Hello::ctvc_publish(1, 32, 32, "")
            .write_to(&mut Vec::new())
            .is_err());
        let long = "n".repeat(MAX_NAME_BYTES + 1);
        assert!(Hello::subscribe(&long, 32, 32)
            .write_to(&mut Vec::new())
            .is_err());
        // Point-to-point roles cannot carry one.
        let mut stray = Hello::ctvc_encode(1, 32, 32);
        stray.broadcast = Some("game".into());
        assert!(stray.write_to(&mut Vec::new()).is_err());
        // The same rules hold on the read side (hand-built wire bytes).
        let buf = hello_bytes(&Hello::ctvc_publish(1, 32, 32, "game"));
        let name_len_at = buf.len() - 6; // [len:u8]["game"][client len:u8]
        let mut wire = buf.clone();
        wire[name_len_at] = 0;
        wire.truncate(name_len_at + 1);
        assert_eq!(
            Hello::parse(&wire).unwrap_err(),
            WireError::BroadcastName(Role::Publish),
            "publish without a name"
        );
        let mut wire = buf.clone();
        wire[6] = 0; // Encode role, name still present
        assert_eq!(
            Hello::parse(&wire).unwrap_err(),
            WireError::BroadcastName(Role::Encode),
            "encode with a stray name"
        );
        let mut wire = buf;
        wire[name_len_at + 1] = 0xFF; // not UTF-8
        assert!(
            matches!(Hello::parse(&wire), Err(WireError::NotUtf8(_))),
            "non-UTF-8 name"
        );
    }

    #[test]
    fn join_message_roundtrips() {
        let join = JoinInfo {
            family: Family::Ctvc,
            width: 96,
            height: 64,
            start_index: 24,
            rate: 2,
            gop: 8,
        };
        let mut buf = Vec::new();
        write_join_msg(&mut buf, &join).unwrap();
        assert_eq!(buf[0], MSG_JOIN);
        let Reply::Join(back) = whole(peer(VERSION).parse_reply(&buf), buf.len()) else {
            panic!("not a join");
        };
        assert_eq!(back, join);
        // Truncation needs more bytes; a bad family tag fails at once.
        assert!(peer(VERSION)
            .parse_reply(&buf[..buf.len() - 1])
            .unwrap()
            .is_none());
        buf[1] = 0x07;
        assert!(matches!(
            peer(VERSION).parse_reply(&buf[..2]),
            Err(WireError::UnknownTag(_, 0x07))
        ));
    }

    #[test]
    fn target_bpp_hello_roundtrips() {
        let h = Hello::hybrid_encode(30, 64, 48).with_target_bpp(0.42, 6);
        let back = parse_hello(&hello_bytes(&h));
        assert_eq!(back, h);
        let t = back.target.unwrap();
        assert_eq!(t.milli_bpp, 420);
        assert!((t.bpp() - 0.42).abs() < 1e-9);
        assert_eq!(t.window, 6);
    }

    #[test]
    fn error_message_roundtrips_and_caps() {
        let buf = error_msg_bytes("decode: packet CRC mismatch");
        assert_eq!(buf[0], MSG_ERROR);
        let Reply::Error(back) = whole(peer(VERSION).parse_reply(&buf), buf.len()) else {
            panic!("not an error");
        };
        assert_eq!(back, "decode: packet CRC mismatch");
        // A hostile length field is rejected from the header alone.
        let mut hostile = vec![MSG_ERROR, 0xFF, 0xFF, 0xFF, 0x7F];
        hostile.extend_from_slice(b"x");
        assert!(matches!(
            peer(VERSION).parse_reply(&hostile),
            Err(WireError::OverCap(..))
        ));
    }

    /// Each header alone, claiming the most its cap allows, must ask
    /// for more bytes — not fail, and not make the buffer reserve what
    /// the header claims.
    #[test]
    fn headers_alone_need_more_without_reserving() {
        let mut stats = vec![MSG_STATS];
        stats.extend_from_slice(&(MAX_STATS_FRAMES as u32).to_le_bytes());
        stats.extend_from_slice(&0u64.to_le_bytes());
        let mut error = vec![MSG_ERROR];
        error.extend_from_slice(&(MAX_ERROR_BYTES as u32).to_le_bytes());
        let mut packet = vec![MSG_PACKET];
        packet.extend_from_slice(&(MAX_PAYLOAD_BYTES as u32).to_le_bytes());
        packet.extend_from_slice(&0u32.to_le_bytes()); // frame index
        packet.push(b'I'); // intra
        packet.extend_from_slice(&0u32.to_le_bytes()); // payload CRC
        assert_eq!(MAX_STATS_FRAMES, 1 << 20);
        assert_eq!(MAX_ERROR_BYTES, 64 << 10);
        assert_eq!(MAX_PAYLOAD_BYTES, 64 << 20);

        let client = peer(VERSION);
        let server = Hello::ctvc_decode(1, 16, 16);
        for (name, header) in [("stats", &stats), ("error", &error), ("packet", &packet)] {
            let mut buf = WireBuf::new();
            buf.feed(header);
            let parsed = buf.next(|b| client.parse_reply(b));
            assert!(matches!(parsed, Ok(None)), "{name}: {parsed:?}");
            assert!(
                buf.bytes.capacity() < 1024,
                "{name}: header reserved {} bytes",
                buf.bytes.capacity()
            );
            assert_eq!(buf.held(), &header[..], "{name}: header bytes stay held");
        }
        // The poller's request parser waits on the packet the same way.
        assert!(server.parse_msg(&packet).unwrap().is_none());

        // One past each cap fails from the header alone.
        stats[1..5].copy_from_slice(&(MAX_STATS_FRAMES as u32 + 1).to_le_bytes());
        error[1..5].copy_from_slice(&(MAX_ERROR_BYTES as u32 + 1).to_le_bytes());
        packet[1..5].copy_from_slice(&(MAX_PAYLOAD_BYTES as u32 + 1).to_le_bytes());
        for header in [&stats[..], &error[..5], &packet[..5]] {
            assert!(
                matches!(client.parse_reply(header), Err(WireError::OverCap(..))),
                "{header:?}"
            );
        }
        assert!(matches!(
            server.parse_msg(&packet[..5]),
            Err(WireError::OverCap(..))
        ));
    }

    #[test]
    fn wire_buf_keeps_an_offset_and_compacts_on_feed() {
        let encoder = Hello::ctvc_encode(1, 16, 16);
        let mut stream = Vec::new();
        write_retarget_msg(&mut stream, &Retarget::fixed(2)).unwrap();
        write_retarget_msg(&mut stream, &Retarget::fixed(3)).unwrap();
        stream.push(MSG_END);
        let mut buf = WireBuf::new();
        buf.feed(&stream[..15]); // one retarget and half of the next
        let first = buf.next(|b| encoder.parse_msg(b)).unwrap();
        assert!(matches!(first, Some(WireMsg::Retarget(r)) if r.rate == 2));
        assert_eq!(buf.start, 10, "parsing advances the offset, no copy");
        assert!(buf.next(|b| encoder.parse_msg(b)).unwrap().is_none());
        buf.feed(&stream[15..]);
        assert_eq!(buf.start, 0, "feeding compacts the parsed prefix away");
        let second = buf.next(|b| encoder.parse_msg(b)).unwrap();
        assert!(matches!(second, Some(WireMsg::Retarget(r)) if r.rate == 3));
        assert!(matches!(
            buf.next(|b| encoder.parse_msg(b)).unwrap(),
            Some(WireMsg::End)
        ));
        assert!(buf.held().is_empty() && buf.bytes.is_empty());
    }

    #[test]
    fn lost_reasons_name_the_message_cut_short() {
        let mut buf = WireBuf::new();
        assert_eq!(
            buf.lost_mid_stream("peer closed the connection"),
            "connection lost mid-stream: peer closed the connection between messages"
        );
        buf.feed(&[MSG_FRAME, 0, 0, 0]);
        assert_eq!(
            buf.lost_mid_stream("peer closed the connection"),
            "connection lost mid-stream: peer closed the connection with 4 bytes of a 'F' \
             message received"
        );
        assert_eq!(
            buf.lost_in_handshake("deadline exceeded"),
            "handshake: deadline exceeded with 4 handshake bytes received"
        );
    }
}
