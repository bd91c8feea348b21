//! Metric definitions, the result line, and the names `BENCHMARK.json`
//! must list.

use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the codec or the server sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// A per-layer metric and the end-to-end metrics it should move, on
/// which workload, when the layer gets faster (`moves`).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "fps",
        unit: "frames/s",
        better: "higher",
    },
    EndToEnd {
        name: "frame_ms_p50",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "frame_ms_p90",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "psnr_db",
        unit: "dB",
        better: "higher",
    },
    EndToEnd {
        name: "bpp",
        unit: "bits/pixel",
        better: "lower",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
    },
];

const DECODE_PATH: &str =
    "fps and frame_ms_p50 on decode_sparse; less on encode_target; nothing on serve_hybrid";
const ENCODE_ONLY: &str =
    "frame_ms_p50, bpp and rate.error_pct on encode_target; nothing on decode_sparse";
const SERVE_PATH: &str =
    "fps, frame_ms_p50 and frame_ms_p99 on serve_hybrid only; nothing on decode_sparse or encode_target";
const REFERENCE: &str = "no end-to-end metric (accelerator model reference column)";

macro_rules! layer {
    ($name:expr, $unit:expr, $better:expr, $moves:expr) => {
        Layer {
            name: $name,
            unit: $unit,
            better: $better,
            moves: $moves,
        }
    };
}

/// Every per-layer metric of the traced run. Module times are per
/// P frame: each public module call of the decoder, replayed once per
/// P frame on the workload's shapes (the Swin-AM mask twice, once per
/// latent, as the decoder calls it).
///
/// The dense kernel times (`kernel.*_dense_ms`) are printed but not
/// listed: CTVC-Net(Sparse) prunes every fast kernel, so they read 0 on
/// every run; the dense call counts stay listed and would show a kernel
/// falling back to the dense path. `exec.lease_wait_us_p50` is printed
/// but not listed for the same reason: with one connection and one
/// permit no lease waits, and every recorded wait is below the pool
/// histogram's 1 µs resolution, so the value reads 0.5 µs on every run.
pub const LAYERS: &[Layer] = &[
    layer!("model.swin_mask_ms", "ms", "lower", DECODE_PATH),
    layer!("model.motion_synthesis_ms", "ms", "lower", DECODE_PATH),
    layer!(
        "model.deformable_compensation_ms",
        "ms",
        "lower",
        DECODE_PATH
    ),
    layer!("model.residual_synthesis_ms", "ms", "lower", DECODE_PATH),
    layer!("model.frame_reconstruction_ms", "ms", "lower", DECODE_PATH),
    layer!("model.swin_mask_gmac_s", "GMAC/s", "higher", DECODE_PATH),
    layer!(
        "model.motion_synthesis_gmac_s",
        "GMAC/s",
        "higher",
        DECODE_PATH
    ),
    layer!(
        "model.deformable_compensation_gmac_s",
        "GMAC/s",
        "higher",
        DECODE_PATH
    ),
    layer!(
        "model.residual_synthesis_gmac_s",
        "GMAC/s",
        "higher",
        DECODE_PATH
    ),
    layer!(
        "model.frame_reconstruction_gmac_s",
        "GMAC/s",
        "higher",
        DECODE_PATH
    ),
    layer!(
        "model.feature_extraction_gmac_s",
        "GMAC/s",
        "higher",
        ENCODE_ONLY
    ),
    layer!(
        "kernel.winograd_sparse_ms",
        "ms/frame",
        "lower",
        DECODE_PATH
    ),
    layer!("kernel.fta_sparse_ms", "ms/frame", "lower", DECODE_PATH),
    layer!(
        "kernel.winograd_sparse_calls",
        "calls/frame",
        "lower",
        DECODE_PATH
    ),
    layer!(
        "kernel.winograd_dense_calls",
        "calls/frame",
        "lower",
        DECODE_PATH
    ),
    layer!(
        "kernel.fta_sparse_calls",
        "calls/frame",
        "lower",
        DECODE_PATH
    ),
    layer!(
        "kernel.fta_dense_calls",
        "calls/frame",
        "lower",
        DECODE_PATH
    ),
    layer!("model.feature_extraction_ms", "ms", "lower", ENCODE_ONLY),
    layer!("model.motion_estimation_ms", "ms", "lower", ENCODE_ONLY),
    layer!("model.motion_analysis_ms", "ms", "lower", ENCODE_ONLY),
    layer!("model.residual_analysis_ms", "ms", "lower", ENCODE_ONLY),
    layer!("rate.switches", "count", "lower", ENCODE_ONLY),
    layer!("rate.error_pct", "%", "lower", ENCODE_ONLY),
    layer!(
        "model.residue_ms",
        "ms",
        "lower",
        "frame_ms_p50 on decode_sparse and encode_target"
    ),
    layer!(
        "entropy.packet_parse_us",
        "us",
        "lower",
        "frame_ms_p50 on all three workloads (a small share)"
    ),
    layer!("serve.handshake_ms", "ms", "lower", SERVE_PATH),
    layer!("serve.overhead_ms", "ms", "lower", SERVE_PATH),
    layer!("serve.wakeups_per_frame", "1/frame", "lower", SERVE_PATH),
    layer!("serve.spurious_poll_ratio", "ratio", "lower", SERVE_PATH),
    layer!("serve.wake_latency_us_p50", "us", "lower", SERVE_PATH),
    layer!("serve.park_us_p50", "us", "lower", SERVE_PATH),
    layer!("exec.lease_hold_us_p50", "us", "lower", SERVE_PATH),
    layer!(
        "baseline.decode_ms",
        "ms",
        "lower",
        "frame_ms_p50 on serve_hybrid"
    ),
    layer!("sim.decode_cycles_per_frame", "cycles", "lower", REFERENCE),
    layer!(
        "sim.feature_extraction_cycle_share",
        "share",
        "lower",
        REFERENCE
    ),
    layer!("sim.swin_mask_cycle_share", "share", "lower", REFERENCE),
    layer!(
        "sim.motion_synthesis_cycle_share",
        "share",
        "lower",
        REFERENCE
    ),
    layer!(
        "sim.deformable_compensation_cycle_share",
        "share",
        "lower",
        REFERENCE
    ),
    layer!(
        "sim.residual_synthesis_cycle_share",
        "share",
        "lower",
        REFERENCE
    ),
    layer!(
        "sim.frame_reconstruction_cycle_share",
        "share",
        "lower",
        REFERENCE
    ),
    layer!(
        "telemetry.trace_overhead_pct",
        "%",
        "lower",
        "no end-to-end metric (traced against untraced frame_ms_p50)"
    ),
];

/// Whether `name` fits the metric-name rule of `BENCHMARK.json`: a
/// letter or digit, then at most 63 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the unit rule of `BENCHMARK.json`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The measured metrics of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Value>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, unit: &'static str, value: f64, samples: usize) {
        self.0.insert(
            name.into(),
            Value {
                value,
                unit,
                samples,
            },
        );
    }

    /// The `(name, unit)` pairs a run with this trace setting must
    /// report.
    pub fn expected(trace: bool) -> Vec<(&'static str, &'static str)> {
        if trace {
            LAYERS.iter().map(|l| (l.name, l.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// Names expected but missing, reported with the wrong unit, or not
    /// finite, and names or units outside the `BENCHMARK.json` rules.
    pub fn problems(&self, trace: bool) -> Vec<String> {
        let mut out: Vec<String> = self
            .0
            .iter()
            .filter(|(name, v)| !valid_name(name) || !valid_unit(v.unit))
            .map(|(name, v)| {
                format!(
                    "{name} [{}]: name or unit outside the BENCHMARK.json rules",
                    v.unit
                )
            })
            .collect();
        for (name, unit) in Self::expected(trace) {
            match self.0.get(name) {
                None => out.push(format!("{name}: not measured")),
                Some(v) if v.unit != unit => out.push(format!("{name}: unit {} != {unit}", v.unit)),
                Some(v) if !v.value.is_finite() => out.push(format!("{name}: not finite")),
                Some(_) => {}
            }
        }
        out
    }

    /// The human-readable lines, one per metric, each with its sample
    /// count and, for a per-layer metric, what it should move.
    pub fn lines(&self, workload: &str) -> Vec<String> {
        self.0
            .iter()
            .map(|(name, v)| {
                let e2e = END_TO_END.iter().find(|e| e.name == name);
                let layer = LAYERS.iter().find(|l| l.name == name);
                let moves = match (e2e, layer) {
                    (Some(e), _) => format!("  [{} is better]", e.better),
                    (_, Some(l)) => format!("  [{} is better; moves: {}]", l.better, l.moves),
                    _ => String::new(),
                };
                format!(
                    "{workload} {name} = {} {} (n={}){moves}",
                    v.value, v.unit, v.samples
                )
            })
            .collect()
    }

    /// The final result line: exactly the keys `correct`, `attempted`,
    /// `failed` and `metrics`, with the metrics this trace setting
    /// reports.
    pub fn result_json(&self, trace: bool, correct: bool, attempted: u64, failed: u64) -> String {
        let wanted: Vec<&str> = Self::expected(trace).iter().map(|(n, _)| *n).collect();
        let body: Vec<String> = self
            .0
            .iter()
            .filter(|(name, _)| wanted.contains(&name.as_str()))
            .map(|(name, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(v.value),
                    v.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// A finite `f64` in full precision (Rust's shortest round-trip form);
/// non-finite values become `null`, which the caller has already
/// flagged as a problem.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        s
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_fit_the_naming_rules() {
        assert!(valid_name("model.swin_mask_ms"));
        assert!(valid_name("9lives-x_y.z"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_unit("frames/s") && valid_unit("%") && valid_unit("1/frame"));
        assert!(!valid_unit("") && !valid_unit("bits per pixel") && !valid_unit(&"u".repeat(17)));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in Metrics::expected(false)
            .into_iter()
            .chain(Metrics::expected(true))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(LAYERS.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` must list exactly these metrics, in this order,
    /// with these units and directions.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed: Vec<String> = text
            .lines()
            .filter(|l| l.contains("\"unit\""))
            .map(|l| l.trim().trim_end_matches(',').to_string())
            .collect();
        let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit, m.better));
        let layers = LAYERS.iter().map(|l| (l.name, l.unit, l.better));
        let wanted: Vec<String> = end_to_end
            .chain(layers)
            .map(|(name, unit, better)| {
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"")
            })
            .collect();
        assert_eq!(listed.len(), wanted.len());
        for (l, w) in listed.iter().zip(&wanted) {
            assert!(l.starts_with(w.as_str()), "{l} does not start with {w}");
        }
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut m = Metrics::default();
        m.set("fps", "frames/s", 12.5, 100);
        m.set("model.residue_ms", "ms", 1.0, 10);
        let line = m.result_json(false, true, 100, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 100, \"failed\": 0, \"metrics\": {\"fps\": {\"value\": 12.5, \"unit\": \"frames/s\"}}}"
        );
        assert_eq!(m.problems(false).len(), END_TO_END.len() - 1);
    }
}
