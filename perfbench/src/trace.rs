//! The traced run's span store.
//!
//! [`Recorder`] is an [`fbf_obs::Subscriber`]: it keeps every span in
//! memory, both the spans the benchmark opens around its calls into each
//! crate and the spans the program already emits (`plan/cold`,
//! `engine/run`, `sweep/point`, `daemon/repair`, ...). Nothing is written
//! while the workload runs; [`Recorder::finish`] writes the events as
//! chrome-trace JSONL (the shape `scripts/check_trace.py` validates), whole
//! requests up to a size cap, and the per-layer metrics are derived from
//! every kept span.

use fbf_obs::{Event, EventKind, Subscriber, Value};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Category: a benchmark layer name or a program event category.
    pub cat: String,
    /// Name within the category.
    pub name: String,
    /// Start, microseconds since the process's observability epoch.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Request (trace) id; 0 outside any trace.
    pub trace: u64,
    /// This span's id within its trace; 0 outside any trace.
    pub span: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// Numeric arguments.
    pub args: Vec<(String, f64)>,
}

impl SpanRecord {
    /// A numeric argument by key.
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    fn is(&self, cat: &str, name: &str) -> bool {
        self.cat == cat && self.name == name
    }
}

#[derive(Default)]
struct Store {
    lines: Vec<String>,
    spans: Vec<SpanRecord>,
}

/// In-memory event sink for the traced run.
#[derive(Default)]
pub struct Recorder {
    store: Mutex<Store>,
}

impl Subscriber for Recorder {
    fn event(&self, event: &Event<'_>) {
        // Spans only: the engine's per-disk counter events would add
        // megabytes per rebuild and carry nothing the layer split needs.
        let EventKind::Complete { dur_us } = event.kind else {
            return;
        };
        let ctx = event.ctx.unwrap_or(fbf_obs::TraceCtx {
            trace: 0,
            span: 0,
            parent: 0,
        });
        let span = SpanRecord {
            cat: event.cat.to_string(),
            name: event.name.to_string(),
            start_us: event.ts_us,
            dur_us,
            trace: ctx.trace,
            span: ctx.span,
            parent: ctx.parent,
            args: event
                .args
                .iter()
                .filter_map(|(k, v)| numeric(v).map(|v| (k.to_string(), v)))
                .collect(),
        };
        let line = fbf_obs::render_chrome_line(event);
        let mut store = self.store.lock().expect("recorder lock poisoned");
        store.lines.push(line);
        store.spans.push(span);
    }
}

fn numeric(v: &Value<'_>) -> Option<f64> {
    match *v {
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        Value::F64(x) => Some(x),
        Value::Str(_) => None,
    }
}

impl Recorder {
    /// Install a fresh recorder as the process's subscriber.
    pub fn install() -> Arc<Recorder> {
        let rec = Arc::new(Recorder::default());
        fbf_obs::install(rec.clone());
        rec
    }

    /// Uninstall, write the spans to `path` as chrome-trace JSONL (whole
    /// requests, up to [`MAX_FILE_BYTES`]), and return every recorded span.
    pub fn finish(&self, path: &Path) -> std::io::Result<Spans> {
        fbf_obs::uninstall();
        let store = std::mem::take(&mut *self.store.lock().expect("recorder lock poisoned"));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        // The chrome-trace format names the process track first.
        out.write_all(
            concat!(
                r#"{"name":"process_name","cat":"__metadata","ph":"M","ts":0,"pid":1,"#,
                r#""tid":0,"args":{"name":"perfbench"}}"#,
                "\n"
            )
            .as_bytes(),
        )?;
        let keep = kept_traces(&store, MAX_FILE_BYTES);
        for (line, span) in store.lines.iter().zip(&store.spans) {
            if keep.contains(&span.trace) {
                out.write_all(line.as_bytes())?;
            }
        }
        out.flush()?;
        Ok(Spans(store.spans))
    }
}

/// Cap on the span file's size: a long traced run of a fast workload
/// would otherwise write tens of MiB, which a file-size limit may refuse.
/// The per-layer metrics always use every span.
const MAX_FILE_BYTES: usize = 4 << 20;

/// The trace ids (0 = spans outside any trace) whose lines fit in
/// `budget` bytes, taken whole in order of first appearance, so the file
/// holds complete request trees and never a child without its parent.
fn kept_traces(store: &Store, budget: usize) -> HashSet<u64> {
    let mut order = Vec::new();
    let mut bytes: HashMap<u64, usize> = HashMap::new();
    for (line, span) in store.lines.iter().zip(&store.spans) {
        let b = bytes.entry(span.trace).or_insert_with(|| {
            order.push(span.trace);
            0
        });
        *b += line.len();
    }
    let mut used = 0;
    let mut keep = HashSet::new();
    for trace in order {
        if used + bytes[&trace] <= budget {
            used += bytes[&trace];
            keep.insert(trace);
        }
    }
    keep
}

/// Recorded spans, queried by `cat`/`name`.
#[derive(Debug, Default)]
pub struct Spans(pub Vec<SpanRecord>);

impl Spans {
    /// Spans named `cat`/`name`.
    pub fn named<'a>(
        &'a self,
        cat: &'a str,
        name: &'a str,
    ) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.0.iter().filter(move |s| s.is(cat, name))
    }

    /// Number of `cat`/`name` spans.
    pub fn count(&self, cat: &str, name: &str) -> usize {
        self.named(cat, name).count()
    }

    /// Summed duration of `cat`/`name` spans, milliseconds.
    pub fn total_ms(&self, cat: &str, name: &str) -> f64 {
        self.named(cat, name).map(|s| s.dur_us).sum::<f64>() / 1e3
    }

    /// Summed `key` argument over `cat`/`name` spans.
    pub fn arg_sum(&self, cat: &str, name: &str, key: &str) -> f64 {
        self.named(cat, name).filter_map(|s| s.arg(key)).sum()
    }

    /// Summed self time of `cat`/`name` spans, milliseconds: each span's
    /// duration minus the part its direct children (same trace, parent
    /// id = its id) cover.
    pub fn self_ms(&self, cat: &str, name: &str) -> f64 {
        self.named(cat, name)
            .map(|s| {
                let children: f64 = if s.trace == 0 {
                    0.0
                } else {
                    self.0
                        .iter()
                        .filter(|c| c.trace == s.trace && c.parent == s.span && c.span != 0)
                        .map(|c| c.dur_us)
                        .sum()
                };
                (s.dur_us - children).max(0.0)
            })
            .sum::<f64>()
            / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = std::time::Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // The only test in the crate that installs a subscriber.
        let rec = Recorder::install();
        {
            let _t = fbf_obs::with_trace(fbf_obs::next_trace_id());
            let root = fbf_obs::span("core", "op");
            busy(300);
            {
                let child = fbf_obs::span("recovery", "plan");
                {
                    let _grandchild = fbf_obs::span("codes", "build");
                    busy(300);
                }
                child.end_with(&[("generation_ms", Value::F64(1.5))]);
            }
            root.end();
        }
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        let spans = rec.finish(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().next().unwrap().contains("\"ph\":\"M\""));
        assert!(text.lines().skip(1).all(|l| l.contains("\"ph\":\"X\"")));
        let root = spans.named("core", "op").next().unwrap();
        let child = spans.named("recovery", "plan").next().unwrap();
        let grandchild = spans.named("codes", "build").next().unwrap();
        assert_eq!(
            (root.parent, child.parent, grandchild.parent),
            (0, root.span, child.span)
        );
        assert_eq!(child.arg("generation_ms"), Some(1.5));
        assert_eq!(spans.arg_sum("recovery", "plan", "generation_ms"), 1.5);

        let root_self = spans.self_ms("core", "op");
        assert!((root_self - (root.dur_us - child.dur_us) / 1e3).abs() < 1e-9);
        assert!(root_self >= 0.3, "root self {root_self} ms");
        // The grandchild is not subtracted from the root, only from the child.
        assert!(spans.self_ms("recovery", "plan") < child.dur_us / 1e3);
        assert_eq!(spans.count("codes", "build"), 1);
        assert!(spans.total_ms("core", "op") >= 0.6);
    }
    #[test]
    fn the_span_file_keeps_whole_requests_within_its_budget() {
        let span = |trace| SpanRecord {
            cat: "core".into(),
            name: "op".into(),
            start_us: 0.0,
            dur_us: 1.0,
            trace,
            span: 1,
            parent: 0,
            args: Vec::new(),
        };
        // Trace 1 takes 6 bytes, trace 2 takes 8, trace 3 takes 2.
        let rows = [(1, "aaa"), (2, "bbbb"), (1, "aaa"), (2, "bbbb"), (3, "cc")];
        let store = Store {
            lines: rows.iter().map(|&(_, l)| l.to_string()).collect(),
            spans: rows.iter().map(|&(t, _)| span(t)).collect(),
        };
        let keep = kept_traces(&store, 9);
        assert_eq!(keep, HashSet::from([1, 3]));
        assert_eq!(kept_traces(&store, 100).len(), 3);
        assert!(kept_traces(&store, 1).is_empty());
    }
}
