//! The blocking client side of the protocol.

use crate::proto::{
    write_frame_msg, write_packet_msg, write_retarget_msg, Ack, Hello, Reply, Retarget, Role,
    WireBuf, MSG_END,
};
use crate::ServeError;
use nvc_entropy::container::Packet;
use nvc_video::{Frame, StreamStats};
use std::collections::VecDeque;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// The read half of a client connection: the socket, the bytes received
/// from it, and the handshake that fixes how they parse.
pub(crate) struct Replies {
    pub(crate) sock: TcpStream,
    buf: WireBuf,
    pub(crate) hello: Hello,
}

impl Replies {
    /// Blocks until one whole reply has arrived, reading more bytes
    /// while the parser needs them. The server's `'X'` failure
    /// description surfaces as [`ServeError::Remote`].
    pub(crate) fn recv(&mut self) -> Result<Reply, ServeError> {
        loop {
            match self.buf.next(|bytes| self.hello.parse_reply(bytes))? {
                Some(Reply::Error(message)) => return Err(ServeError::Remote(message)),
                Some(reply) => return Ok(reply),
                None => {}
            }
            match self.buf.fill(|room| (&self.sock).read(room)) {
                Ok(0) => {
                    let why = format!("server closed {} bytes into a reply", self.buf.held().len());
                    return Err(std::io::Error::new(ErrorKind::UnexpectedEof, why).into());
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Opens a client connection on `stream`: writes `hello`, then reads the
/// server's verdict — the ack, or its `'X'` rejection as
/// [`ServeError::Remote`].
pub(crate) fn handshake(
    stream: &TcpStream,
    hello: Hello,
) -> Result<(Replies, BufWriter<TcpStream>, Ack), ServeError> {
    let mut writer = BufWriter::new(stream.try_clone()?);
    hello.write_to(&mut writer)?;
    writer.flush()?;
    let mut replies = Replies {
        sock: stream.try_clone()?,
        buf: WireBuf::new(),
        hello,
    };
    match replies.recv()? {
        Reply::Ack(ack) => Ok((replies, writer, ack)),
        other => Err(unexpected("handshake ack", &other)),
    }
}

/// The error for a reply the client has no use for at this point.
pub(crate) fn unexpected(wanted: &str, reply: &Reply) -> ServeError {
    ServeError::Protocol(format!("expected {wanted}, got tag 0x{:02X}", reply.tag()))
}

/// Everything a finished stream produced, in order.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Reconstructed frames (decode streams; empty for encode streams).
    pub frames: Vec<Frame>,
    /// Coded packets (encode streams; empty for decode streams).
    pub packets: Vec<Packet>,
    /// The server's stream-statistics trailer.
    pub stats: StreamStats,
    /// Per-response round-trip latency, send to receipt, in message
    /// order. With a pipelining window > 1 this includes queueing time —
    /// the latency a serving client actually observes.
    pub latencies: Vec<Duration>,
}

/// A blocking streaming connection to a [`Server`](crate::Server).
///
/// Messages pipeline: up to [`window`](StreamClient::set_window)
/// requests stay in flight before a send blocks on reading a response,
/// overlapping client I/O with server compute. Responses arrive in
/// stream order and accumulate internally; [`StreamClient::finish`]
/// returns them all plus the stats trailer.
pub struct StreamClient {
    replies: Replies,
    writer: BufWriter<TcpStream>,
    ack: Ack,
    window: usize,
    outstanding: usize,
    sent_at: VecDeque<Instant>,
    frames: Vec<Frame>,
    packets: Vec<Packet>,
    latencies: Vec<Duration>,
    next_frame_index: u32,
}

impl std::fmt::Debug for StreamClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StreamClient({:?}, window {}, {} in flight)",
            &self.replies.hello, self.window, self.outstanding
        )
    }
}

impl StreamClient {
    /// Connects and performs the handshake. A server-side rejection
    /// (bogus rate, bad geometry, capacity) surfaces as
    /// [`ServeError::Remote`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on connection, handshake or rejection.
    pub fn connect(addr: impl ToSocketAddrs, hello: Hello) -> Result<Self, ServeError> {
        if hello.role == Role::Subscribe {
            return Err(ServeError::Protocol(
                "subscribe streams use SubscribeClient".into(),
            ));
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let (replies, writer, ack) = handshake(&stream, hello)?;
        Ok(StreamClient {
            replies,
            writer,
            ack,
            window: 4,
            outstanding: 0,
            sent_at: VecDeque::new(),
            frames: Vec::new(),
            packets: Vec::new(),
            latencies: Vec::new(),
            next_frame_index: 0,
        })
    }

    /// The negotiated handshake.
    pub fn hello(&self) -> &Hello {
        &self.replies.hello
    }

    /// The rate the server actually granted in its handshake ack. Equal
    /// to the requested [`Hello::rate`] unless the session was admitted
    /// degraded, in which case a fixed-rate stream starts at this wire
    /// rate instead (target-bpp streams echo the request; the shrunk
    /// target is applied server-side).
    pub fn granted_rate(&self) -> u8 {
        self.ack.rate
    }

    /// Whether the server admitted this session *degraded* — below its
    /// requested rate because the governor's aggregate budget is under
    /// pressure (protocol version 4; always `false` on older versions).
    pub fn admitted_degraded(&self) -> bool {
        self.ack.degraded
    }

    /// Sets the pipelining window (clamped to ≥ 1): how many requests
    /// may be in flight before a send blocks on a response. Keep it
    /// small relative to OS socket buffering; the default is 4.
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// Sets a read timeout on the underlying socket (tests use this to
    /// turn a would-be hang into an error).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.replies.sock.set_read_timeout(timeout)
    }

    /// Streams one coded packet to a decode-direction server. Responses
    /// drained while honoring the window accumulate for
    /// [`StreamClient::finish`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on the wrong direction, socket failure, or
    /// a server-reported error.
    pub fn send_packet(&mut self, packet: &Packet) -> Result<(), ServeError> {
        if self.hello().role != Role::Decode {
            return Err(ServeError::Protocol(
                "send_packet on an encode-direction stream".into(),
            ));
        }
        if let Err(e) =
            write_packet_msg(&mut self.writer, packet).and_then(|()| self.writer.flush())
        {
            return Err(self.surface_send_error(e.into()));
        }
        self.on_sent()
    }

    /// Streams one raw frame to an encode-direction server.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on the wrong direction, socket failure, or
    /// a server-reported error.
    pub fn send_frame(&mut self, frame: &Frame) -> Result<(), ServeError> {
        if !matches!(self.hello().role, Role::Encode | Role::Publish) {
            return Err(ServeError::Protocol(
                "send_frame on a decode-direction stream".into(),
            ));
        }
        if let Err(e) = write_frame_msg(&mut self.writer, self.next_frame_index, frame)
            .and_then(|()| self.writer.flush())
        {
            return Err(self.surface_send_error(e.into()));
        }
        self.next_frame_index += 1;
        self.on_sent()
    }

    /// Retargets the rate control of an encode-direction stream
    /// mid-flight (the `'R'` message): frames already sent keep the old
    /// mode, frames sent after this use the new one. The message gets no
    /// response of its own, so it does not consume pipelining window.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on the wrong direction, a version-1
    /// handshake, socket failure, or a server-reported error.
    pub fn retarget(&mut self, retarget: Retarget) -> Result<(), ServeError> {
        if !matches!(self.hello().role, Role::Encode | Role::Publish) {
            return Err(ServeError::Protocol(
                "retarget on a decode-direction stream".into(),
            ));
        }
        if !self.hello().supports_retarget() {
            return Err(ServeError::Protocol(
                "retarget needs protocol version 2".into(),
            ));
        }
        if let Err(e) =
            write_retarget_msg(&mut self.writer, &retarget).and_then(|()| self.writer.flush())
        {
            return Err(self.surface_send_error(e.into()));
        }
        Ok(())
    }

    /// A failed send usually means the server already aborted the stream
    /// and the real reason is queued on the read side — prefer reporting
    /// that over a bare broken-pipe error.
    fn surface_send_error(&mut self, original: ServeError) -> ServeError {
        let prior = self.replies.sock.read_timeout().ok().flatten();
        let _ = self
            .replies
            .sock
            .set_read_timeout(Some(Duration::from_secs(2)));
        let mut verdict = original;
        for _ in 0..64 {
            match self.collect() {
                Ok(_) => continue, // drain in-flight responses
                Err(remote @ ServeError::Remote(_)) => {
                    verdict = remote;
                    break;
                }
                Err(_) => break,
            }
        }
        let _ = self.replies.sock.set_read_timeout(prior);
        verdict
    }

    fn on_sent(&mut self) -> Result<(), ServeError> {
        self.outstanding += 1;
        self.sent_at.push_back(Instant::now());
        self.settle(self.window)
    }

    /// Receives responses until at most `limit` requests are in flight.
    fn settle(&mut self, limit: usize) -> Result<(), ServeError> {
        while self.outstanding > limit {
            if self.collect()?.is_some() {
                return Err(ServeError::Protocol(
                    "stats trailer before end of stream".into(),
                ));
            }
        }
        Ok(())
    }

    /// Receives one reply: a response is stored with its latency, the
    /// stats trailer is returned.
    fn collect(&mut self) -> Result<Option<StreamStats>, ServeError> {
        match self.replies.recv()? {
            Reply::Frame(_, frame) => self.frames.push(frame),
            Reply::Packet(packet) => self.packets.push(packet),
            Reply::Stats(stats) => return Ok(Some(stats)),
            other => return Err(unexpected("a response", &other)),
        }
        if let Some(sent) = self.sent_at.pop_front() {
            self.latencies.push(sent.elapsed());
        }
        self.outstanding = self.outstanding.saturating_sub(1);
        Ok(None)
    }

    /// Blocks until every in-flight request has been answered (the
    /// pipelining window is empty). For publish streams this is a
    /// sequencing point: once `drain` returns, every frame sent so far
    /// has been encoded *and published*, so a subscriber attaching now
    /// is a well-defined "late joiner" relative to those frames.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on socket failure or a server-reported
    /// error.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        self.settle(0)
    }

    /// Ends the stream: sends the end-of-stream marker, drains every
    /// remaining response and returns the collected results plus the
    /// server's stats trailer.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on socket failure or a server-reported
    /// error.
    pub fn finish(mut self) -> Result<StreamSummary, ServeError> {
        if let Err(e) = self
            .writer
            .write_all(&[MSG_END])
            .and_then(|()| self.writer.flush())
        {
            return Err(self.surface_send_error(e.into()));
        }
        loop {
            if let Some(stats) = self.collect()? {
                return Ok(StreamSummary {
                    frames: self.frames,
                    packets: self.packets,
                    stats,
                    latencies: self.latencies,
                });
            }
        }
    }
}
