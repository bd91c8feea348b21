//! The three workloads: inputs, set-up, and the closed loops that time
//! them while checking every output.

use crate::trace::Tracer;
use nvc::baseline::{HybridCodec, Profile};
use nvc::entropy::container::Packet;
use nvc::model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc::serve::{Hello, ServeConfig, ServerHandle, StreamClient};
use nvc::video::metrics::psnr_sequence;
use nvc::video::synthetic::{SceneConfig, Synthesizer};
use nvc::video::{DecoderSession, EncoderSession, Frame, RateMode, StreamStats, VideoCodec};
use std::time::{Duration, Instant};

/// Every stream restarts its GOP with an intra frame this often.
pub const GOP: usize = 8;
/// Set-up is repeated this many times per run, spread over the timed
/// loop, and its fastest time reported.
pub const SETUP_REPS: usize = 30;
/// The hybrid baseline's quantizer for the served stream.
pub const SERVE_QP: u8 = 30;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DecodeSparse,
    EncodeTarget,
    ServeHybrid,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::DecodeSparse, Kind::EncodeTarget, Kind::ServeHybrid];

    pub fn name(self) -> &'static str {
        match self {
            Kind::DecodeSparse => "decode_sparse",
            Kind::EncodeTarget => "encode_target",
            Kind::ServeHybrid => "serve_hybrid",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Geometry of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub width: usize,
    pub height: usize,
    pub frames: usize,
    /// CTVC-Net channel width `N`.
    pub n: usize,
}

impl Spec {
    /// The benchmark's workloads: 2-GOP UVG-like clips at the sizes where
    /// each workload's own layers dominate.
    pub fn full(kind: Kind) -> Spec {
        let (width, height) = match kind {
            Kind::DecodeSparse => (192, 128),
            Kind::EncodeTarget => (96, 64),
            Kind::ServeHybrid => (64, 48),
        };
        Spec {
            kind,
            width,
            height,
            frames: 2 * GOP,
            n: 12,
        }
    }

    /// A seconds-long version for the benchmark's own smoke tests.
    #[cfg(test)]
    pub fn tiny(kind: Kind) -> Spec {
        Spec {
            kind,
            width: 32,
            height: 32,
            frames: GOP + 2,
            n: 6,
        }
    }

    pub fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// CTVC-Net(Sparse): ρ = 0.5, fixed point, one thread.
    pub fn ctvc_config(&self) -> CtvcConfig {
        CtvcConfig::ctvc_sparse(self.n).with_threads(1)
    }

    /// The source clip; the seed feeds the scene generator only.
    pub fn clip(&self, seed: u64) -> Vec<Frame> {
        let mut scene = SceneConfig::uvg_like(self.width, self.height, self.frames);
        scene.seed = seed;
        Synthesizer::new(scene).generate().frames().to_vec()
    }

    pub fn serve_config(&self, metrics: bool) -> ServeConfig {
        ServeConfig {
            ctvc: self.ctvc_config(),
            hybrid: Profile::hevc_like(),
            workers: 1,
            threads_per_session: 1,
            exec_cap: 1,
            metrics_addr: metrics.then(|| "127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        }
    }
}

/// An encoded clip with its in-loop reconstruction.
#[derive(Clone)]
pub struct Coded {
    pub packets: Vec<Packet>,
    pub recon: Vec<Frame>,
    pub stats: StreamStats,
}

impl Coded {
    pub fn bytes(&self) -> Vec<Vec<u8>> {
        self.packets.iter().map(Packet::to_bytes).collect()
    }
}

/// Encodes `clip` through one session, restarting the GOP every
/// [`GOP`] frames.
pub fn encode_gops<C: VideoCodec>(
    codec: &C,
    clip: &[Frame],
    mode: RateMode<C::Rate>,
) -> Result<Coded, String> {
    let mut enc = VideoCodec::start_encode(codec, mode).map_err(|e| e.to_string())?;
    let mut packets = Vec::new();
    let mut recon = Vec::new();
    for (i, frame) in clip.iter().enumerate() {
        if i > 0 && i % GOP == 0 {
            enc.restart_gop();
        }
        packets.push(enc.push_frame(frame).map_err(|e| e.to_string())?);
        recon.push(
            enc.last_reconstruction()
                .ok_or("no reconstruction after a pushed frame")?
                .clone(),
        );
    }
    let stats = enc.finish().map_err(|e| e.to_string())?;
    Ok(Coded {
        packets,
        recon,
        stats,
    })
}

/// Bit-exact frame comparison (`-0.0` and `0.0` differ, as they would in
/// a stored file).
pub fn same_frame(a: &Frame, b: &Frame) -> bool {
    let (x, y) = (a.tensor().as_slice(), b.tensor().as_slice());
    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
}

pub fn psnr(source: &[Frame], decoded: &[Frame]) -> f64 {
    let pairs: Vec<(&Frame, &Frame)> = source.iter().zip(decoded).collect();
    psnr_sequence(&pairs).unwrap_or(f64::NAN)
}

/// Per-frame outcome of a timed loop.
#[derive(Debug, Default)]
pub struct FrameLog {
    /// Duration of each completed frame call (push, or served round
    /// trip), in milliseconds.
    pub ms: Vec<f64>,
    /// Each timed frame's index in its clip or stream; every pass
    /// repeats the same indices with the same work.
    pub pos: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    /// Why frames failed (first few reasons).
    pub errors: Vec<String>,
}

impl FrameLog {
    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.errors.len() < 4 {
            self.errors.push(why);
        }
    }

    /// Appends another loop's frames.
    pub fn absorb(&mut self, other: FrameLog) {
        self.ms.extend(other.ms);
        self.pos.extend(other.pos);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed_s += other.elapsed_s;
        for e in other.errors {
            if self.errors.len() < 4 {
                self.errors.push(e);
            }
        }
    }

    pub fn ok_frames(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Durations of predicted frames only.
    pub fn p_frame_ms(&self) -> Vec<f64> {
        self.ms
            .iter()
            .zip(&self.pos)
            .filter(|(_, pos)| **pos % GOP != 0)
            .map(|(ms, _)| *ms)
            .collect()
    }
}

/// Whether a loop that started at `start` must stop before the next
/// frame: the budget is spent and at least one full pass is done.
fn spent(start: Instant, budget: Duration, passes: usize) -> bool {
    passes > 0 && start.elapsed() >= budget
}

/// The CTVC paths of the in-process workloads.
pub enum CtvcPath<'a> {
    /// Replays a pre-encoded clip through a fresh decoder session per
    /// pass; every frame must equal the encoder's in-loop reconstruction.
    Decode {
        packets: &'a [Vec<u8>],
        recon: &'a [Frame],
    },
    /// Encodes the clip under closed-loop target-bpp control, a fresh
    /// session per pass; every pass must replay the first byte for byte.
    Encode { clip: &'a [Frame], target_bpp: f64 },
}

/// Runs `path` in a closed loop for `budget` (at least one full pass).
/// Each frame call is one `frame` span in `tracer`.
pub fn ctvc_loop(
    codec: &CtvcCodec,
    path: &CtvcPath<'_>,
    budget: Duration,
    tracer: &mut Tracer,
    reference: &mut Option<Coded>,
) -> FrameLog {
    let mut log = FrameLog::default();
    let start = Instant::now();
    let mut passes = 0;
    while !spent(start, budget, passes) {
        match path {
            CtvcPath::Decode { packets, recon } => {
                let mut dec = codec.start_decode();
                for (i, bytes) in packets.iter().enumerate() {
                    if spent(start, budget, passes) {
                        break;
                    }
                    log.attempted += 1;
                    let frame_id = tracer.next_frame();
                    let span = tracer.begin("frame", None, Some(frame_id));
                    let t = Instant::now();
                    let out = dec.push_packet(bytes);
                    log.ms.push(t.elapsed().as_secs_f64() * 1e3);
                    tracer.end(span);
                    log.pos.push(i);
                    match out {
                        Ok(frame) if same_frame(&frame, &recon[i]) => {}
                        Ok(_) => log.fail(
                            1,
                            format!("frame {i} differs from the in-loop reconstruction"),
                        ),
                        Err(e) => {
                            log.fail(1, format!("frame {i}: {e}"));
                            break;
                        }
                    }
                }
            }
            CtvcPath::Encode { clip, target_bpp } => {
                let pass = encode_pass(
                    codec,
                    clip,
                    *target_bpp,
                    start,
                    budget,
                    passes,
                    tracer,
                    &mut log,
                );
                if let Some(pass) = pass {
                    check_replay(pass, reference, clip.len(), &mut log);
                }
            }
        }
        passes += 1;
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

#[allow(clippy::too_many_arguments)]
fn encode_pass(
    codec: &CtvcCodec,
    clip: &[Frame],
    target_bpp: f64,
    start: Instant,
    budget: Duration,
    passes: usize,
    tracer: &mut Tracer,
    log: &mut FrameLog,
) -> Option<Coded> {
    let mut enc = codec.start_encode(RateMode::TargetBpp {
        bpp: target_bpp,
        window: GOP,
    });
    let mut packets = Vec::new();
    let mut recon = Vec::new();
    for (i, frame) in clip.iter().enumerate() {
        if spent(start, budget, passes) {
            break;
        }
        if i > 0 && i % GOP == 0 {
            enc.restart_gop();
        }
        log.attempted += 1;
        let frame_id = tracer.next_frame();
        let span = tracer.begin("frame", None, Some(frame_id));
        let t = Instant::now();
        let out = enc.push_frame(frame);
        log.ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end(span);
        log.pos.push(i);
        match out {
            Ok(packet) => packets.push(packet),
            Err(e) => {
                log.fail(1, format!("frame {i}: {e}"));
                return None;
            }
        }
        match enc.last_reconstruction() {
            Some(rec) => recon.push(rec.clone()),
            None => log.fail(1, format!("frame {i}: no reconstruction")),
        }
    }
    match enc.finish() {
        Ok(stats) => Some(Coded {
            packets,
            recon,
            stats,
        }),
        Err(e) => {
            log.fail(0, format!("finish: {e}"));
            None
        }
    }
}

/// Checks the trailer invariant (Σ bits = 8 × bytes) and that `pass`
/// replays the reference byte for byte; the first complete pass becomes
/// the reference.
fn check_replay(pass: Coded, reference: &mut Option<Coded>, clip_len: usize, log: &mut FrameLog) {
    let bits: u64 = pass.stats.bits_per_frame.iter().sum();
    let bytes: usize = pass.packets.iter().map(Packet::encoded_len).sum();
    if bits != 8 * pass.stats.total_bytes as u64 || pass.stats.total_bytes != bytes {
        log.fail(
            pass.packets.len() as u64,
            format!(
                "trailer: {bits} bits for {} bytes ({bytes} sent)",
                pass.stats.total_bytes
            ),
        );
        return;
    }
    match reference {
        Some(r) => {
            let diverged = pass
                .packets
                .iter()
                .zip(&r.packets)
                .filter(|(a, b)| a.to_bytes() != b.to_bytes())
                .count();
            if diverged > 0 {
                log.fail(
                    diverged as u64,
                    format!("{diverged} packets did not replay byte-identically"),
                );
            }
        }
        None if pass.packets.len() == clip_len => *reference = Some(pass),
        None => {}
    }
}

/// One served stream: the handshake to send and the packets to replay,
/// with the in-process decoder session's frames as the reference.
pub struct ServeStream {
    pub hello: Hello,
    pub packets: Vec<Packet>,
    pub reference: Vec<Frame>,
    /// Push time of each in-process decode of `packets`, in ms.
    pub decode_ms: Vec<f64>,
}

/// What a serve loop saw besides frame times.
#[derive(Debug, Default)]
pub struct ServeLog {
    pub frames: FrameLog,
    pub handshake_ms: Vec<f64>,
    /// The first stream's served frames.
    pub first_stream: Vec<Frame>,
}

pub fn connect(server: &ServerHandle, hello: &Hello) -> Result<StreamClient, String> {
    let client = StreamClient::connect(server.addr(), hello.clone()).map_err(|e| e.to_string())?;
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    Ok(client)
}

/// Replays `stream` as back-to-back streams over one connection at a
/// time, closed loop with a `StreamClient` window of 1: a packet is sent
/// once every frame but the latest has come back, so the server always
/// holds the next packet while it returns the current frame. Frame times
/// are the client's send-to-receipt latencies. Runs for `budget` (at
/// least one full stream); `first` is an already handshaken client for
/// the first stream.
pub fn serve_loop(
    server: &ServerHandle,
    mut first: Option<StreamClient>,
    stream: &ServeStream,
    budget: Duration,
    tracer: &mut Tracer,
) -> ServeLog {
    let mut log = FrameLog::default();
    let mut handshake_ms = Vec::new();
    let mut first_stream = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    while !spent(start, budget, passes) {
        let root = tracer.begin("stream", None, None);
        let client = match first.take() {
            Some(c) => Ok(c),
            None => {
                let t = Instant::now();
                let c = tracer.time("handshake", Some(root), None, || {
                    connect(server, &stream.hello)
                });
                handshake_ms.push(t.elapsed().as_secs_f64() * 1e3);
                c
            }
        };
        let mut client = match client {
            Ok(c) => c,
            Err(e) => {
                log.fail(1, format!("handshake: {e}"));
                log.attempted += 1;
                tracer.end(root);
                break;
            }
        };
        client.set_window(1);
        let mut sent = 0;
        for packet in &stream.packets {
            if spent(start, budget, passes) {
                break;
            }
            log.attempted += 1;
            let frame_id = tracer.next_frame();
            let res = tracer.time("send", Some(root), Some(frame_id), || {
                client.send_packet(packet)
            });
            if let Err(e) = res {
                log.fail(1, format!("frame {sent}: {e}"));
                break;
            }
            sent += 1;
        }
        let summary = tracer.time("finish", Some(root), None, || client.finish());
        tracer.end(root);
        match summary {
            Ok(s) => {
                log.ms
                    .extend(s.latencies.iter().map(|d| d.as_secs_f64() * 1e3));
                log.pos.extend(0..s.latencies.len());
                let bits: u64 = s.stats.bits_per_frame.iter().sum();
                if bits != 8 * s.stats.total_bytes as u64 {
                    log.fail(
                        0,
                        format!("trailer: {bits} bits for {} bytes", s.stats.total_bytes),
                    );
                }
                let wrong = (0..sent)
                    .filter(|&i| {
                        s.frames
                            .get(i)
                            .is_none_or(|f| !same_frame(f, &stream.reference[i]))
                    })
                    .count();
                if wrong > 0 {
                    log.fail(
                        wrong as u64,
                        format!("{wrong} served frames differ from the in-process session"),
                    );
                }
                if passes == 0 {
                    first_stream = s.frames;
                }
            }
            Err(e) => {
                log.fail(sent as u64, format!("finish: {e}"));
                break;
            }
        }
        passes += 1;
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    ServeLog {
        frames: log,
        handshake_ms,
        first_stream,
    }
}

/// Builds the served-stream inputs of `serve_hybrid`: the clip coded by
/// the HEVC-like baseline at a fixed QP, decoded once in process for the
/// reference frames.
pub fn hybrid_stream(spec: &Spec, clip: &[Frame]) -> Result<(ServeStream, Coded), String> {
    let codec = HybridCodec::with_threads(Profile::hevc_like(), 1);
    let coded = encode_gops(&codec, clip, RateMode::Fixed(SERVE_QP))?;
    let mut dec = codec.start_decode();
    let (mut reference, mut decode_ms) = (Vec::new(), Vec::new());
    for packet in &coded.packets {
        let bytes = packet.to_bytes();
        let t = Instant::now();
        reference.push(dec.push_packet(&bytes).map_err(|e| e.to_string())?);
        decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let stream = ServeStream {
        hello: Hello::hybrid_decode(SERVE_QP, spec.width, spec.height),
        packets: coded.packets.clone(),
        reference,
        decode_ms,
    };
    Ok((stream, coded))
}

/// The fixed rate-1 reference stream; its bpp is the closed-loop target
/// of `encode_target`.
pub fn rate1(codec: &CtvcCodec, clip: &[Frame]) -> Result<Coded, String> {
    encode_gops(codec, clip, RateMode::Fixed(RatePoint::new(1)))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
