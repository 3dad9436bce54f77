//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! Every span has a name, a start, an end, the span that caused it, and the
//! (shard, candidate) it belongs to; the workload is the tracer's. Spans
//! aggregate in memory into per-name count / total / self time and a
//! log-bucket histogram; the spans themselves are kept for one candidate
//! in [`RAW_SAMPLE`], and everything is written once, when the run ends.
//! A disabled tracer does no clock reads at all: the same loop run with it
//! is the "spans off" side of `trace.overhead_share`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::stats::LogHistogram;

/// Raw spans are kept for candidates whose index is a multiple of this.
pub const RAW_SAMPLE: u64 = 256;

/// One recorded span (times are nanoseconds since the tracer's epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the raw list, when it has one.
    pub parent: Option<usize>,
    pub shard: u32,
    pub candidate: u64,
}

/// Everything known about one span name.
#[derive(Clone, Default)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
    pub hist: LogHistogram,
}

impl Aggregate {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    raw: Option<usize>,
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[must_use]
pub struct Entered(bool);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    open: Vec<Open>,
    aggregates: BTreeMap<&'static str, Aggregate>,
    raw: Vec<Span>,
    shard: u32,
    candidate: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            open: Vec::new(),
            aggregates: BTreeMap::new(),
            raw: Vec::new(),
            shard: 0,
            candidate: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Names the (shard, candidate) the following spans belong to.
    pub fn at(&mut self, shard: u32, candidate: u64) {
        self.shard = shard;
        self.candidate = candidate;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn keeps_raw(&self) -> bool {
        self.candidate.is_multiple_of(RAW_SAMPLE)
    }

    pub fn enter(&mut self, name: &'static str) -> Entered {
        if !self.enabled {
            return Entered(false);
        }
        let start_ns = self.now_ns();
        let raw = self.keeps_raw().then(|| {
            self.raw.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().and_then(|open| open.raw),
                shard: self.shard,
                candidate: self.candidate,
            });
            self.raw.len() - 1
        });
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            raw,
        });
        Entered(true)
    }

    pub fn exit(&mut self, entered: Entered) {
        if !entered.0 {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("exit matches an enter");
        if let Some(raw) = open.raw {
            self.raw[raw].end_ns = end_ns;
        }
        self.close(open.name, end_ns - open.start_ns, open.child_ns);
    }

    /// Records a span whose duration the *program* measured (a
    /// `PhaseTiming` field) as a child of the innermost open span, with
    /// `children` nested inside it. Such spans have no clock reading of
    /// their own: in the raw list each is laid out from its parent's start.
    pub fn measured(
        &mut self,
        name: &'static str,
        duration: Duration,
        children: &[(&'static str, Duration)],
    ) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().expect("measured spans have a parent");
        let start_ns = parent.start_ns + parent.child_ns;
        let parent_raw = parent.raw;
        let total_ns = duration.as_nanos() as u64;
        let mut child_ns = 0;
        let raw = parent_raw.map(|parent_raw| {
            self.raw.push(Span {
                name,
                start_ns,
                end_ns: start_ns + total_ns,
                parent: Some(parent_raw),
                shard: self.shard,
                candidate: self.candidate,
            });
            self.raw.len() - 1
        });
        for &(child, child_duration) in children {
            let ns = child_duration.as_nanos() as u64;
            if let Some(raw) = raw {
                self.raw.push(Span {
                    name: child,
                    start_ns: start_ns + child_ns,
                    end_ns: start_ns + child_ns + ns,
                    parent: Some(raw),
                    shard: self.shard,
                    candidate: self.candidate,
                });
            }
            child_ns += ns;
            // Leaves: nothing nests inside them, and `close` must not
            // charge them to the *outer* open span a second time.
            self.aggregate(child, ns, 0);
        }
        self.close(name, total_ns, child_ns);
    }

    /// Folds a finished span into its aggregate and charges its duration to
    /// the span it ran inside.
    fn close(&mut self, name: &'static str, total_ns: u64, child_ns: u64) {
        self.aggregate(name, total_ns, child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += total_ns;
        }
    }

    fn aggregate(&mut self, name: &'static str, total_ns: u64, child_ns: u64) {
        let aggregate = self.aggregates.entry(name).or_default();
        aggregate.count += 1;
        aggregate.total_ns += total_ns;
        aggregate.self_ns += total_ns.saturating_sub(child_ns);
        aggregate.hist.record(total_ns);
    }

    /// The aggregate for `name`; empty when no such span was recorded.
    pub fn get(&self, name: &str) -> Aggregate {
        self.aggregates.get(name).cloned().unwrap_or_default()
    }

    #[cfg(test)]
    pub fn raw_spans(&self) -> &[Span] {
        &self.raw
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let aggregates = self.aggregates.iter().map(|(name, aggregate)| {
            let buckets = aggregate
                .hist
                .non_empty()
                .into_iter()
                .map(|(low, n)| Json::Arr(vec![Json::from(low), Json::from(n)]))
                .collect();
            (
                *name,
                Json::obj([
                    ("count", Json::from(aggregate.count)),
                    ("total_ns", Json::from(aggregate.total_ns)),
                    ("self_ns", Json::from(aggregate.self_ns)),
                    ("p50_ns", Json::from(aggregate.hist.quantile(0.5))),
                    ("p99_ns", Json::from(aggregate.hist.quantile(0.99))),
                    ("buckets_ns", Json::Arr(buckets)),
                ]),
            )
        });
        let spans = self.raw.iter().map(|span| {
            Json::obj([
                ("name", Json::from(span.name)),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
                (
                    "parent",
                    span.parent
                        .map_or(Json::Null, |parent| Json::from(parent as u64)),
                ),
                ("shard", Json::from(u64::from(span.shard))),
                ("candidate", Json::from(span.candidate)),
            ])
        });
        Json::obj([
            ("workload", Json::from(workload)),
            ("seed", Json::from(seed)),
            ("raw_sample", Json::from(RAW_SAMPLE)),
            ("aggregates", Json::obj(aggregates)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }

    /// Writes the trace file (creating its directory).
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("{}\n", self.to_json(workload, seed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(duration: Duration) {
        let start = Instant::now();
        while start.elapsed() < duration {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut tracer = Tracer::new(true);
        tracer.at(3, 0);
        let outer = tracer.enter("outer");
        spin(Duration::from_millis(2));
        let inner = tracer.enter("inner");
        spin(Duration::from_millis(3));
        tracer.exit(inner);
        spin(Duration::from_millis(5));
        // A program-measured phase (inside the 5 ms above) with one nested
        // phase.
        tracer.measured(
            "phase",
            Duration::from_millis(4),
            &[("phase.nested", Duration::from_millis(1))],
        );
        tracer.exit(outer);

        let (outer, inner) = (tracer.get("outer"), tracer.get("inner"));
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 3_000_000);
        assert_eq!(
            inner.self_ns, inner.total_ns,
            "a leaf's self time is its total"
        );
        // outer's children: the entered span plus the measured phase (its
        // nested phase is already inside it and must not count twice).
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns - 4_000_000);
        assert_eq!(tracer.get("phase").self_ns, 3_000_000);
        assert_eq!(tracer.get("phase.nested").total_ns, 1_000_000);
        assert_eq!(tracer.get("absent").count, 0);

        // Candidate 0 is sampled: all four spans are kept, with parents.
        let raw = tracer.raw_spans();
        let names: Vec<_> = raw.iter().map(|span| span.name).collect();
        assert_eq!(names, ["outer", "inner", "phase", "phase.nested"]);
        assert_eq!(raw[0].parent, None);
        assert_eq!(raw[1].parent, Some(0));
        assert_eq!(raw[2].parent, Some(0));
        assert_eq!(raw[3].parent, Some(2));
        assert!(raw
            .iter()
            .all(|span| span.shard == 3 && span.end_ns >= span.start_ns));
        // The measured phase starts where the entered child ended.
        assert_eq!(raw[2].start_ns, raw[0].start_ns + inner.total_ns);
    }

    #[test]
    fn raw_spans_are_sampled_and_a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        for candidate in 0..=RAW_SAMPLE {
            tracer.at(0, candidate);
            let span = tracer.enter("work");
            tracer.exit(span);
        }
        assert_eq!(tracer.get("work").count, RAW_SAMPLE + 1);
        assert_eq!(tracer.raw_spans().len(), 2, "candidates 0 and 256 only");

        let mut off = Tracer::new(false);
        let span = off.enter("work");
        off.measured("phase", Duration::from_millis(1), &[]);
        off.exit(span);
        assert_eq!(off.get("work").count, 0);
        assert!(off.raw_spans().is_empty());
    }

    #[test]
    fn the_trace_file_reads_back() {
        let mut tracer = Tracer::new(true);
        let span = tracer.enter("work");
        tracer.exit(span);
        let dir = crate::fanout::fresh_dir("trace-test");
        let path = dir.join("nested").join("trace.json");
        tracer.write(&path, "wl", 7).unwrap();
        let parsed = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(parsed, tracer.to_json("wl", 7));
        let work = parsed.get("aggregates").unwrap().get("work").unwrap();
        assert_eq!(work.get("count").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            parsed
                .get("spans")
                .map(|s| matches!(s, Json::Arr(v) if v.len() == 1)),
            Some(true)
        );
    }
}
