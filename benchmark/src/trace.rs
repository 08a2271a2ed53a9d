//! In-memory spans around the calls into each layer, written out as
//! Chrome-trace JSON when a workload ends.
//!
//! A span names the layer call it wraps (`packet.lanes.gather`,
//! `click.push.nat`, …), carries the batch index it belongs to and the
//! span that caused it. Rungs of the ladder are *replays*: they run after
//! the root `core.runtime.process_batch` span they explain, not inside
//! it, so a span's self time subtracts its children's durations rather
//! than their overlap.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub ts_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Batch index the span belongs to (`None` for set-up spans).
    pub batch: Option<u32>,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Span store for one workload.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a new span and returns its result with the span's
    /// index (usable as a later span's `parent`).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        batch: Option<u32>,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let r = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let ts_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            ts_ns,
            dur_ns,
            batch,
            parent,
        });
        (r, self.spans.len() - 1)
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `idx`, ns.
    pub fn dur_ns(&self, idx: usize) -> u64 {
        self.spans[idx].dur_ns
    }

    /// `(count, total ns)` per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut m: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = m.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
        }
        m
    }

    /// Self time of every span: its duration minus the summed durations
    /// of the spans naming it as parent. Negative when the replayed
    /// children ran slower than the call they explain.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur_ns as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns as i64;
            }
        }
        own
    }

    /// Writes the spans as Chrome-trace JSON (`chrome://tracing`,
    /// Perfetto): complete events with `name`, `ts` and `dur` in µs and
    /// `args.batch` / `args.parent`; `header` (the run manifest, already
    /// serialised) goes under `metadata`.
    pub fn write_chrome(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"metadata\":{header},\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write!(
                w,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                s.name,
                s.ts_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            )?;
            if let Some(b) = s.batch {
                write!(w, ",\"batch\":{b}")?;
            }
            if let Some(p) = s.parent {
                write!(w, ",\"parent\":{p}")?;
            }
            w.write_all(b"}}")?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, dur_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            ts_ns: 0,
            dur_ns,
            batch: Some(0),
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_may_go_negative() {
        let t = Tracer {
            origin: Instant::now(),
            spans: vec![
                span("root", 100, None),
                span("a", 30, Some(0)),
                span("b", 50, Some(0)),
                span("leaf", 10, Some(2)),
                span("cold", 40, None),
                span("slow-replay", 70, Some(4)),
            ],
        };
        assert_eq!(t.self_ns(), vec![20, 30, 40, 10, -30, 70]);
        let totals = t.totals();
        assert_eq!(totals["root"], (1, 100));
        assert_eq!(totals.len(), 6);
    }

    #[test]
    fn time_records_parent_batch_and_a_monotonic_start() {
        let mut t = Tracer::default();
        let (v, root) = t.time("root", Some(3), None, || 7);
        let ((), child) = t.time("child", Some(3), Some(root), || ());
        assert_eq!(v, 7);
        assert_eq!(t.spans()[child].parent, Some(root));
        assert_eq!(t.spans()[child].batch, Some(3));
        assert!(t.spans()[child].ts_ns >= t.spans()[root].ts_ns);
        assert_eq!(t.dur_ns(root), t.spans()[root].dur_ns);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_header_and_args() {
        let mut t = Tracer::default();
        let (_, root) = t.time("root", Some(0), None, || ());
        t.time("child", None, Some(root), || ());
        // Under the package's own (git-ignored) output directory, so the
        // test writes nothing outside the checkout.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("t.trace.json");
        t.write_chrome(&path, "{\"seed\":7}").expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        let v = serde_json::from_str(&text).expect("valid json");
        assert_eq!(v["metadata"]["seed"].as_u64(), Some(7));
        let ev = v["traceEvents"].as_array().expect("events");
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0]["name"].as_str(), Some("root"));
        assert_eq!(ev[0]["args"]["batch"].as_u64(), Some(0));
        assert_eq!(ev[1]["args"]["parent"].as_u64(), Some(0));
        assert!(ev[1]["args"].get("batch").is_none());
    }
}
