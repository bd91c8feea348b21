//! Per-layer measurements for the traced run.
//!
//! Every layer is timed from outside, by calls into public functions:
//! the `nvc_model` modules are replayed once per P frame on the
//! workload's shapes, the container parser on the workload's packets,
//! and the serving layers through the server's metrics endpoint and the
//! process-global telemetry histograms, which only the traced run
//! switches on.

use crate::report::Metrics;
use crate::stats::{bucket_delta, bucket_quantile, median};
use crate::trace::Tracer;
use crate::workloads::{FrameLog, GOP};
use nvc::core::Nvca;
use nvc::entropy::container::{read_sections, Packet};
use nvc::exec::ExecCtx;
use nvc::model::{
    decoder_graph, CompressionAutoencoder, CtvcConfig, DeformableCompensation, FeatureExtractor,
    FrameReconstructor,
};
use nvc::serve::{scrape_metrics, ServerHandle};
use nvc::sim::Dataflow;
use nvc::tensor::{Shape, Tensor};
use nvc::video::Frame;
use std::collections::BTreeMap;

/// The modules of `decoder_graph`, with the decoder-side Swin-AM mask
/// split out of the two syntheses (its layers are the graph's
/// `swin_am.*` entries), in Fig. 9 order.
pub const GRAPH_MODULES: [&str; 6] = [
    "feature_extraction",
    "swin_mask",
    "motion_synthesis",
    "deformable_compensation",
    "residual_synthesis",
    "frame_reconstruction",
];

/// Encoder-side modules the decoder never runs.
pub const ENCODE_MODULES: [&str; 4] = [
    "feature_extraction",
    "motion_estimation",
    "motion_analysis",
    "residual_analysis",
];

/// How many per-P-frame module replays one P frame of each path costs.
/// A replay runs each module once and the mask twice (motion and
/// residual latent), as the decoder does. The encoder evaluates the mask
/// six times (twice while coding each latent, once more in its
/// closed-loop reconstruction), and runs motion synthesis and
/// compensation twice (once to form the residual, once to reconstruct).
pub fn calls_per_p_frame(encode: bool, module: &str) -> f64 {
    match (encode, module) {
        (false, "swin_mask" | "motion_synthesis" | "deformable_compensation")
        | (false, "residual_synthesis" | "frame_reconstruction") => 1.0,
        (false, _) => 0.0,
        (true, "swin_mask") => 3.0,
        (true, "motion_synthesis" | "deformable_compensation") => 2.0,
        (true, _) => 1.0,
    }
}

/// The graph module a `decoder_graph` layer is accounted under.
fn graph_module(module: &'static str, layer: &str) -> &'static str {
    if layer.contains("swin_am.") {
        "swin_mask"
    } else {
        module
    }
}

/// Stand-alone copies of the codec's modules (construction is
/// deterministic, so they carry the codec's exact weights).
pub struct Modules {
    cfg: CtvcConfig,
    fe: FeatureExtractor,
    comp: DeformableCompensation,
    motion_ae: CompressionAutoencoder,
    residual_ae: CompressionAutoencoder,
    fr: FrameReconstructor,
    exec: ExecCtx,
}

/// Motion-vector scale of the codec's motion tensor (`O_t` carries
/// pixel motion divided by this).
const MOTION_SCALE: f32 = 4.0;

impl Modules {
    pub fn new(cfg: &CtvcConfig) -> Result<Self, String> {
        let e = |e: nvc::tensor::TensorError| e.to_string();
        Ok(Modules {
            fe: FeatureExtractor::new(cfg).map_err(e)?,
            comp: DeformableCompensation::new(cfg).map_err(e)?,
            motion_ae: CompressionAutoencoder::new(cfg, cfg.seed ^ 0x0001).map_err(e)?,
            residual_ae: CompressionAutoencoder::new(cfg, cfg.seed ^ 0x0002).map_err(e)?,
            fr: FrameReconstructor::new(cfg).map_err(e)?,
            exec: ExecCtx::with_threads(cfg.threads),
            cfg: cfg.clone(),
        })
    }

    /// Replays one P frame's module calls (source features stand in for
    /// the decoded reference; shapes and calls are the codec's). The
    /// encoder-side modules run first, then the decoder's calls back to
    /// back in the decoder's order, so the decoder modules are timed as
    /// warm as the decoder runs them rather than behind an analysis
    /// transform that evicted their working set.
    fn replay_frame(
        &self,
        prev: &Tensor,
        cur: &Tensor,
        packet: &[u8],
        tracer: &mut Tracer,
        root: usize,
        frame: u64,
    ) -> Result<(), String> {
        let e = |e: nvc::tensor::TensorError| e.to_string();
        let x = &self.exec;
        let p = Some(root);
        let f = Some(frame);
        let f_ref = self.fe.forward_ctx(prev, x).map_err(e)?;
        let f_cur = tracer
            .time("feature_extraction", p, f, || self.fe.forward_ctx(cur, x))
            .map_err(e)?;
        let field = tracer.time("motion_estimation", p, f, || {
            nvc::model::motion::estimate_motion_ctx(
                &nvc::model::motion::matching_plane(&f_cur),
                &nvc::model::motion::matching_plane(&f_ref),
                self.cfg.me_block,
                self.cfg.me_range,
                self.cfg.half_pel_motion,
                x,
            )
        });
        let (_, _, fh, fw) = f_cur.shape().dims();
        let o_t = Tensor::from_fn(Shape::new(1, self.cfg.n, fh, fw), |_, c, y, xx| match c {
            0 | 1 => field.at(0, c, y, xx) / MOTION_SCALE,
            _ => 0.0,
        });
        let zm = tracer
            .time("motion_analysis", p, f, || {
                self.motion_ae.analysis.forward_ctx(&o_t, x)
            })
            .map_err(e)?;
        // The residual the encoder codes (untimed: these two calls are
        // timed below, in decoder order).
        let o_hat = self.motion_ae.synthesis.forward_ctx(&zm, x).map_err(e)?;
        let f_bar = self.comp.forward_ctx(&f_ref, &o_hat, x).map_err(e)?;
        let r = f_cur.sub(&f_bar).map_err(e)?;
        let zr = tracer
            .time("residual_analysis", p, f, || {
                self.residual_ae.analysis.forward_ctx(&r, x)
            })
            .map_err(e)?;

        tracer
            .time("packet_parse", p, f, || {
                let (pk, _) = Packet::from_bytes(packet)?;
                read_sections(&pk.payload)
            })
            .map_err(|e| e.to_string())?;
        tracer
            .time("swin_mask", p, f, || self.motion_ae.latent_mask_ctx(&zm, x))
            .map_err(e)?;
        let o_hat = tracer
            .time("motion_synthesis", p, f, || {
                self.motion_ae.synthesis.forward_ctx(&zm, x)
            })
            .map_err(e)?;
        let f_bar = tracer
            .time("deformable_compensation", p, f, || {
                self.comp.forward_ctx(&f_ref, &o_hat, x)
            })
            .map_err(e)?;
        tracer
            .time("swin_mask", p, f, || {
                self.residual_ae.latent_mask_ctx(&zr, x)
            })
            .map_err(e)?;
        let r_hat = tracer
            .time("residual_synthesis", p, f, || {
                self.residual_ae.synthesis.forward_ctx(&zr, x)
            })
            .map_err(e)?;
        let f_hat = f_bar.add(&r_hat).map_err(e)?;
        tracer
            .time("frame_reconstruction", p, f, || {
                self.fr.forward_ctx(&f_hat, x)
            })
            .map_err(e)?;
        Ok(())
    }

    /// Replays every P frame of `clip` (with its coded `packets`) once.
    /// Returns the number of frames replayed.
    pub fn replay(
        &self,
        clip: &[Frame],
        packets: &[Vec<u8>],
        tracer: &mut Tracer,
    ) -> Result<usize, String> {
        let mut frames = 0;
        for i in (1..clip.len()).filter(|i| i % GOP != 0) {
            let id = tracer.next_frame();
            let root = tracer.begin("replay", None, Some(id));
            let res = self.replay_frame(
                clip[i - 1].tensor(),
                clip[i].tensor(),
                &packets[i],
                tracer,
                root,
                id,
            );
            tracer.end(root);
            res?;
            frames += 1;
        }
        Ok(frames)
    }
}

/// Median over replayed frames of each span name's per-frame self time
/// (µs), for spans under `replay` roots.
pub fn per_frame_medians(tracer: &Tracer) -> BTreeMap<&'static str, f64> {
    let own = tracer.self_times_us();
    let mut sums: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
    for (s, t) in tracer.spans().iter().zip(&own) {
        let under_replay = s.parent.is_some_and(|p| tracer.spans()[p].name == "replay");
        if let (true, Some(frame)) = (under_replay, s.frame) {
            *sums.entry((s.name, frame)).or_default() += t;
        }
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), t) in sums {
        by_name.entry(name).or_default().push(t);
    }
    by_name
        .into_iter()
        .filter_map(|(n, v)| median(&v).map(|m| (n, m)))
        .collect()
}

/// MACs per P frame of each graph module at `h × w`.
pub fn graph_macs(cfg: &CtvcConfig, h: usize, w: usize) -> BTreeMap<&'static str, u64> {
    let mut macs = BTreeMap::new();
    for l in decoder_graph(cfg, h, w) {
        *macs.entry(graph_module(l.module, &l.name)).or_default() += l.macs();
    }
    macs
}

/// Predicted cycles per P frame on the paper's accelerator design, and
/// each graph module's share of them.
pub fn sim_breakdown(
    cfg: &CtvcConfig,
    h: usize,
    w: usize,
) -> Result<(u64, BTreeMap<&'static str, f64>), String> {
    let nvca = Nvca::paper_design(cfg.clone()).map_err(|e| e.to_string())?;
    let report = nvca.simulate_decode(h, w, Dataflow::Chained);
    let mut cycles: BTreeMap<&'static str, u64> = BTreeMap::new();
    for l in &report.layers {
        *cycles.entry(graph_module(l.module, &l.name)).or_default() += l.cycles;
    }
    let total: u64 = cycles.values().sum();
    let shares = cycles
        .into_iter()
        .map(|(m, c)| (m, c as f64 / total.max(1) as f64))
        .collect();
    Ok((report.total_cycles, shares))
}

/// Sum and count of a global telemetry histogram.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistTotals {
    pub sum: u64,
    pub count: u64,
}

/// The fast-kernel families and their telemetry histograms.
const KERNELS: [(&str, &str); 4] = [
    ("winograd_sparse", "nvc_kernel_winograd_sparse_us"),
    ("winograd_dense", "nvc_kernel_winograd_dense_us"),
    ("fta_sparse", "nvc_kernel_fta_sparse_us"),
    ("fta_dense", "nvc_kernel_fta_dense_us"),
];

/// Adds the kernel activity between two snapshots to `acc`.
pub fn add_kernel_delta(
    acc: &mut [HistTotals; 4],
    before: &[HistTotals; 4],
    after: &[HistTotals; 4],
) {
    for i in 0..4 {
        acc[i].sum += after[i].sum - before[i].sum;
        acc[i].count += after[i].count - before[i].count;
    }
}

pub fn kernel_totals() -> [HistTotals; 4] {
    KERNELS.map(|(_, hist)| {
        let h = nvc::telemetry::histogram(hist);
        HistTotals {
            sum: h.sum(),
            count: h.count(),
        }
    })
}

/// Kernel-family metrics per frame of the traced CTVC frames, from the
/// kernel activity recorded during them.
pub fn kernel_metrics(m: &mut Metrics, delta: &[HistTotals; 4], frames: u64) {
    let n = frames.max(1) as f64;
    for ((family, _), HistTotals { sum, count }) in KERNELS.into_iter().zip(delta) {
        let ms = *sum as f64 / 1e3 / n;
        m.set(
            format!("kernel.{family}_ms"),
            "ms/frame",
            ms,
            *count as usize,
        );
        let calls = *count as f64 / n;
        m.set(
            format!("kernel.{family}_calls"),
            "calls/frame",
            calls,
            frames as usize,
        );
    }
}

/// The bucket counts of histogram `name` in a Prometheus text snapshot
/// (cumulative `le` lines back to per-bucket counts).
pub fn scraped_buckets(text: &str, name: &str) -> Vec<u64> {
    let mut buckets = vec![0u64; nvc::telemetry::HIST_BUCKETS];
    let prefix = format!("{name}_bucket{{le=\"");
    let mut prev = 0u64;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let Some((le, count)) = rest.split_once("\"} ") else {
            continue;
        };
        let (Ok(le), Ok(count)) = (le.parse::<u64>(), count.trim().parse::<u64>()) else {
            continue; // the +Inf line
        };
        // Bucket i's inclusive upper bound is 2^i - 1.
        let i = (u64::BITS - le.leading_zeros()) as usize;
        if i < buckets.len() {
            buckets[i] = count - prev;
            prev = count;
        }
    }
    buckets
}

/// Server- and process-side telemetry snapshot around a serve loop.
pub struct ServeProbe {
    wakeups: u64,
    spurious: u64,
    scrape: String,
    lease_wait: Vec<u64>,
    lease_hold: Vec<u64>,
    decode: Vec<u64>,
}

impl ServeProbe {
    pub fn take(server: &ServerHandle) -> Result<Self, String> {
        let report = server.report();
        let addr = server
            .metrics_addr()
            .ok_or("server has no metrics endpoint")?;
        let scrape = scrape_metrics(addr).map_err(|e| e.to_string())?;
        let buckets = |n: &str| nvc::telemetry::histogram(n).buckets().to_vec();
        Ok(ServeProbe {
            wakeups: report.poll_wakeups,
            spurious: report.spurious_polls,
            scrape,
            lease_wait: buckets("nvc_pool_lease_wait_us"),
            lease_hold: buckets("nvc_pool_lease_hold_us"),
            decode: buckets("nvc_hybrid_decode_frame_us"),
        })
    }
}

const WAKE_LATENCY: &str = "nvc_poll_wake_latency_us";
const PARK: &str = "nvc_poll_park_us";

/// What the server and the pool recorded during the traced streams,
/// summed over probe pairs taken around each of them.
#[derive(Debug, Default)]
pub struct ServeDeltas {
    wakeups: u64,
    spurious: u64,
    wake_latency: Vec<u64>,
    park: Vec<u64>,
    lease_wait: Vec<u64>,
    lease_hold: Vec<u64>,
    decode: Vec<u64>,
}

fn add_buckets(acc: &mut Vec<u64>, before: &[u64], after: &[u64]) {
    let d = bucket_delta(before, after);
    if acc.is_empty() {
        *acc = d;
    } else {
        acc.iter_mut().zip(d).for_each(|(a, v)| *a += v);
    }
}

impl ServeDeltas {
    pub fn add(&mut self, before: &ServeProbe, after: &ServeProbe) {
        self.wakeups += after.wakeups - before.wakeups;
        self.spurious += after.spurious - before.spurious;
        let scraped = |p: &ServeProbe, n: &str| scraped_buckets(&p.scrape, n);
        add_buckets(
            &mut self.wake_latency,
            &scraped(before, WAKE_LATENCY),
            &scraped(after, WAKE_LATENCY),
        );
        add_buckets(
            &mut self.park,
            &scraped(before, PARK),
            &scraped(after, PARK),
        );
        add_buckets(&mut self.lease_wait, &before.lease_wait, &after.lease_wait);
        add_buckets(&mut self.lease_hold, &before.lease_hold, &after.lease_hold);
        add_buckets(&mut self.decode, &before.decode, &after.decode);
    }
}

/// The serving-layer metrics of the traced streams.
pub fn serve_metrics(
    m: &mut Metrics,
    d: &ServeDeltas,
    log: &FrameLog,
    handshake_ms: &[f64],
    in_process_decode_ms: f64,
    lines: &mut Vec<String>,
) {
    let frames = log.ok_frames().max(1);
    let q50 = |b: &[u64]| bucket_quantile(b, 0.5).unwrap_or(f64::NAN);
    let count = |b: &[u64]| b.iter().sum::<u64>() as usize;

    let decode_ms = q50(&d.decode) / 1e3;
    m.set("baseline.decode_ms", "ms", decode_ms, count(&d.decode));
    lines.push(format!(
        "cross-check baseline.decode_ms: server-side p50 {decode_ms:.4} ms, in-process push_packet p50 {in_process_decode_ms:.4} ms"
    ));
    // Wall time per served frame, handshakes and trailers included.
    let served = log.elapsed_s * 1e3 / frames as f64;
    m.set(
        "serve.overhead_ms",
        "ms",
        served - decode_ms,
        frames as usize,
    );
    m.set(
        "serve.handshake_ms",
        "ms",
        median(handshake_ms).unwrap_or(f64::NAN),
        handshake_ms.len(),
    );
    m.set(
        "serve.wakeups_per_frame",
        "1/frame",
        d.wakeups as f64 / frames as f64,
        frames as usize,
    );
    m.set(
        "serve.spurious_poll_ratio",
        "ratio",
        d.spurious as f64 / d.wakeups.max(1) as f64,
        d.wakeups as usize,
    );
    m.set(
        "serve.wake_latency_us_p50",
        "us",
        q50(&d.wake_latency),
        count(&d.wake_latency),
    );
    m.set("serve.park_us_p50", "us", q50(&d.park), count(&d.park));
    m.set(
        "exec.lease_wait_us_p50",
        "us",
        q50(&d.lease_wait),
        count(&d.lease_wait),
    );
    m.set(
        "exec.lease_hold_us_p50",
        "us",
        q50(&d.lease_hold),
        count(&d.lease_hold),
    );
}

/// Module, residue, GMAC/s and simulator metrics, plus the Fig. 9-style
/// breakdown lines.
#[allow(clippy::too_many_arguments)]
pub fn model_metrics(
    m: &mut Metrics,
    lines: &mut Vec<String>,
    module_us: &BTreeMap<&'static str, f64>,
    replayed: usize,
    p_frame_ms: f64,
    p_frames: usize,
    encode: bool,
    macs: &BTreeMap<&'static str, u64>,
    sim: &(u64, BTreeMap<&'static str, f64>),
) {
    let ms = |name: &str| module_us.get(name).copied().unwrap_or(f64::NAN) / 1e3;
    let module_sum: f64 = GRAPH_MODULES
        .iter()
        .chain(&ENCODE_MODULES[1..])
        .map(|module| calls_per_p_frame(encode, module) * ms(module))
        .sum();
    for module in GRAPH_MODULES.iter().chain(&ENCODE_MODULES[1..]) {
        m.set(format!("model.{module}_ms"), "ms", ms(module), replayed);
    }
    for module in GRAPH_MODULES {
        let mac = macs.get(module).copied().unwrap_or(0) as f64;
        let gmac_s = mac / (ms(module) * 1e-3) / 1e9;
        m.set(format!("model.{module}_gmac_s"), "GMAC/s", gmac_s, replayed);
    }
    m.set("model.residue_ms", "ms", p_frame_ms - module_sum, p_frames);
    m.set(
        "entropy.packet_parse_us",
        "us",
        module_us.get("packet_parse").copied().unwrap_or(f64::NAN),
        replayed,
    );
    let (cycles, shares) = sim;
    m.set("sim.decode_cycles_per_frame", "cycles", *cycles as f64, 1);
    for module in GRAPH_MODULES {
        let share = shares.get(module).copied().unwrap_or(0.0);
        m.set(format!("sim.{module}_cycle_share"), "share", share, 1);
    }

    let path = if encode { "encoder" } else { "decoder" };
    lines.push(format!(
        "breakdown ({path} P frame p50 {p_frame_ms:.3} ms, n={p_frames}; module ms are medians of n={replayed} replays)"
    ));
    lines.push(format!(
        "  {:<26} {:>6} {:>10} {:>9} {:>10}",
        "module", "calls", "ms/frame", "measured", "sim (dec)"
    ));
    let share = |v: f64| v / p_frame_ms * 100.0;
    for module in GRAPH_MODULES {
        let calls = calls_per_p_frame(encode, module);
        let predicted = shares.get(module).copied().unwrap_or(0.0) * 100.0;
        if calls == 0.0 {
            lines.push(format!(
                "  {module:<26} {:>6} {:>10} {:>9} {predicted:>9.1}% unmatched: priced by decoder_graph, not run by the {path}",
                "0", "-", "-"
            ));
        } else {
            let t = calls * ms(module);
            lines.push(format!(
                "  {module:<26} {calls:>6} {t:>10.3} {:>8.1}% {predicted:>9.1}%",
                share(t)
            ));
        }
    }
    for module in &ENCODE_MODULES[1..] {
        let calls = calls_per_p_frame(encode, module);
        if calls > 0.0 {
            let t = calls * ms(module);
            lines.push(format!(
                "  {module:<26} {calls:>6} {t:>10.3} {:>8.1}% {:>10} (not in decoder_graph)",
                share(t),
                "-"
            ));
        }
    }
    let residue = p_frame_ms - module_sum;
    lines.push(format!(
        "  {:<26} {:>6} {residue:>10.3} {:>8.1}% {:>10} (latent coding, dequantization, glue)",
        "residue",
        "-",
        share(residue),
        "-"
    ));
}

/// Frame-log medians for the traced-overhead comparison.
pub fn trace_overhead_pct(untraced: &FrameLog, traced: &FrameLog) -> f64 {
    let off = median(&untraced.ms).unwrap_or(f64::NAN);
    let on = median(&traced.ms).unwrap_or(f64::NAN);
    (on / off - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scraped_buckets_undo_the_cumulative_counts() {
        let text = "# TYPE nvc_x_us histogram\n\
                    nvc_x_us_bucket{le=\"0\"} 2\n\
                    nvc_x_us_bucket{le=\"7\"} 5\n\
                    nvc_x_us_bucket{le=\"+Inf\"} 5\n\
                    nvc_x_us_sum 12\n";
        let b = scraped_buckets(text, "nvc_x_us");
        assert_eq!(b[0], 2);
        assert_eq!(b[3], 3);
        assert_eq!(b.iter().sum::<u64>(), 5);
    }

    #[test]
    fn every_graph_module_is_accounted() {
        let cfg = CtvcConfig::ctvc_sparse(12);
        let macs = graph_macs(&cfg, 64, 96);
        for module in GRAPH_MODULES {
            assert!(macs.get(module).copied().unwrap_or(0) > 0, "{module}");
        }
        assert_eq!(macs.len(), GRAPH_MODULES.len());
        // The decoder never runs feature extraction; the encoder runs
        // every replayed module.
        assert_eq!(calls_per_p_frame(false, "feature_extraction"), 0.0);
        assert!(ENCODE_MODULES
            .iter()
            .all(|m| calls_per_p_frame(true, m) > 0.0));
    }
}
