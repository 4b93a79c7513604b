//! In-memory spans recorded by the benchmark around each call into a
//! layer's public function. A span has a name, the layer it belongs to,
//! start and end (seconds since the tracer started), its parent span and
//! the search it belongs to (0 for set-up and layer harnesses). Spans are
//! written out when the run ends; a layer's self time is the time its
//! spans cover minus the time their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers a span may name, in report order.
pub const LAYERS: [&str; 9] = [
    "bench",
    "datagen",
    "driver",
    "autoclass",
    "shmcomm",
    "mpsim",
    "fleet",
    "recover",
    "checkpoint",
];

struct Span {
    layer: &'static str,
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    search: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    search: u64,
    searches: u64,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Self {
        Tracer::with(true)
    }

    /// A tracer that records nothing, for the untraced half of a run.
    pub fn off() -> Self {
        Tracer::with(false)
    }

    fn with(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            search: 0,
            searches: 0,
        }
    }

    /// Run `f` inside a span; when tracing is off this is a plain call.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            search: self.search,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.t0.elapsed().as_secs_f64();
        out
    }

    /// Run one search iteration under a fresh search id shared by all of
    /// its spans.
    pub fn search<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.searches += 1;
        self.search = self.searches;
        let out = self.span("bench", "bench.search_iteration", f);
        self.search = 0;
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer, seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end_s - s.start_s;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (s, child) in self.spans.iter().zip(child_time) {
            *out.entry(s.layer).or_insert(0.0) += s.end_s - s.start_s - child;
        }
        out
    }

    /// The spans as JSON, with the run manifest and per-layer self times.
    pub fn to_json(&self, manifest: &str) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"manifest\": {manifest}, \"self_s\": {{");
        for (i, (layer, secs)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{layer}\": {secs}");
        }
        out.push_str("}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"start_s\": {}, \
                 \"end_s\": {}, \"parent\": {parent}, \"search\": {}}}{sep}",
                s.layer, s.name, s.start_s, s.end_s, s.search
            );
        }
        out.push_str("]}\n");
        out
    }
}
