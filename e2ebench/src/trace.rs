//! In-memory span recording for the traced run.
//!
//! Spans are taken in the benchmark's own code around calls into the
//! workspace's public functions; nothing inside the measured crates is
//! instrumented. Each span has a name, start, end, parent span and the
//! frame it belongs to. They stay in memory until the run ends and are
//! then written out as JSON lines.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval, in microseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub frame: Option<u64>,
    pub start_us: f64,
    pub end_us: f64,
}

/// A span recorder; a disabled one records nothing and reads no clock,
/// so timed runs can share the traced code path.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
    frames: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: true,
            frames: 0,
        }
    }

    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// A fresh frame id; the spans of one frame share it.
    pub fn next_frame(&mut self) -> u64 {
        self.frames += 1;
        self.frames
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        frame: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name,
            parent,
            frame,
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        self.spans[id].end_us = self.now_us();
    }

    /// Records `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        frame: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, frame);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| self_time((s.start_us, s.end_us), c))
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_us = self.self_times_us();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(&self_us).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"frame\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.name,
                opt(s.parent.map(|p| p as u64)),
                opt(s.frame),
                s.start_us,
                s.end_us,
                own
            )?;
        }
        out.flush()
    }
}

/// `parent`'s length minus the length of the union of `children`
/// clipped to it. Children may overlap each other (parallel work) and
/// may stick out of the parent; neither is counted twice or outside.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(a, b)| (a.max(p0), b.min(p1)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        match cur {
            Some((c0, c1)) if a <= c1 => cur = Some((c0, c1.max(b))),
            Some((c0, c1)) => {
                covered += c1 - c0;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((c0, c1)) = cur {
        covered += c1 - c0;
    }
    (p1 - p0 - covered).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children count once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 4.0), (2.0, 5.0)]), 6.0);
        // Children sticking out are clipped to the parent.
        assert_eq!(self_time((2.0, 10.0), &[(0.0, 4.0), (9.0, 12.0)]), 5.0);
        // Fully covered parent has no self time.
        assert_eq!(self_time((0.0, 4.0), &[(0.0, 2.0), (2.0, 4.0)]), 0.0);
    }

    #[test]
    fn tracer_links_parents_and_reports_self_times() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", None, Some(3));
        t.time("inner", Some(outer), Some(3), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let own = t.self_times_us();
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert!(own[1] >= 2000.0);
        let outer_us = t.spans()[0].end_us - t.spans()[0].start_us;
        assert!(own[0] < outer_us - 1900.0);
    }
}
