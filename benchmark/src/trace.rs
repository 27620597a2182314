//! In-memory spans recorded from the benchmark's own files around each call
//! into a layer, written out as JSON lines when the run ends.
//!
//! A span is `(name, start, end, parent, request id)`. A layer's self time is
//! its spans' duration minus the part their child spans cover; on one thread
//! children never overlap, so that part is the sum of their durations.
//! Every span feeds the per-name aggregate; only the first [`RAW_SPAN_CAP`]
//! are kept verbatim for `trace.jsonl`, and the rest are counted as dropped.

use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the trace file; aggregates cover every span.
pub const RAW_SPAN_CAP: usize = 50_000;

macro_rules! span_names {
    ($($variant:ident => $name:literal),+ $(,)?) => {
        /// Every boundary the benchmark records a span at. The part before
        /// the last dot is the layer (a crate/module name).
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        pub enum SpanName { $($variant),+ }

        impl SpanName {
            pub const ALL: &'static [SpanName] = &[$(SpanName::$variant),+];

            pub fn as_str(self) -> &'static str {
                match self { $(SpanName::$variant => $name),+ }
            }
        }
    };
}

span_names! {
    Burst => "bench.burst",
    Verify => "bench.verify",
    Repetition => "bench.repetition",
    Build => "workload.build",
    Oracle => "workload.oracle",
    ClosureBuild => "semantic.reasoner.closure_build",
    Match => "semantic.matchmaker.match",
    Decode => "protocol.codec.decode",
    Encode => "protocol.codec.encode",
    CacheKey => "registry.cache.key",
    CacheGet => "registry.cache.get",
    CacheInsert => "registry.cache.insert",
    CacheInvalidate => "registry.cache.invalidate",
    Route => "registry.shard.route",
    Evaluate => "registry.sharded.evaluate",
    Candidates => "registry.store.candidates",
    Publish => "registry.store.publish",
    Renew => "registry.store.renew",
    Purge => "registry.store.purge",
    Rank => "registry.engine.rank",
    SyncDigest => "registry.sync.digest",
    Warmup => "simnet.warmup",
    RunUntil => "simnet.run_until",
    IssueQuery => "core.client_node.issue_query",
}

impl SpanName {
    /// The layer a span is charged to: its name without the last component.
    pub fn layer(self) -> &'static str {
        let name = self.as_str();
        &name[..name.rfind('.').expect("span names are dotted")]
    }
}

/// One retained span, times in nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent in the retained list.
    pub parent: Option<u32>,
    /// Spans of one request (burst, repetition) share this id.
    pub request: u64,
    /// True for a shadow replay of work done inside an opaque call: real
    /// time of the replay, not of the original.
    pub replayed: bool,
}

/// Per-name totals over every span, retained or not.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: SpanName,
    start_ns: u64,
    child_ns: u64,
    raw: Option<u32>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    aggregates: Vec<Aggregate>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            aggregates: vec![Aggregate::default(); SpanName::ALL.len()],
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: SpanName, request: u64) {
        self.enter_at(name, request, false, self.now_ns());
    }

    /// Opens a span marked as a shadow replay.
    pub fn enter_replayed(&mut self, name: SpanName, request: u64) {
        self.enter_at(name, request, true, self.now_ns());
    }

    fn enter_at(&mut self, name: SpanName, request: u64, replayed: bool, start_ns: u64) {
        let parent = self.stack.last().map(|o| o.raw);
        // A child is kept only under a kept parent, so the file always nests.
        let keep = self.spans.len() < RAW_SPAN_CAP && parent.is_none_or(|p| p.is_some());
        let raw = keep.then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: parent.flatten(),
                request,
                replayed,
            });
            (self.spans.len() - 1) as u32
        });
        if raw.is_none() {
            self.dropped += 1;
        }
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            raw,
        });
    }

    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        self.exit_at(end_ns);
    }

    fn exit_at(&mut self, end_ns: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let total = end_ns - open.start_ns;
        let agg = &mut self.aggregates[open.name as usize];
        agg.count += 1;
        agg.total_ns += total;
        agg.self_ns += total.saturating_sub(open.child_ns);
        if let Some(i) = open.raw {
            self.spans[i as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total;
        }
    }

    /// Runs `f` inside a span. For nested spans use `enter`/`exit`.
    pub fn span<T>(&mut self, name: SpanName, request: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    pub fn aggregate(&self, name: SpanName) -> Aggregate {
        self.aggregates[name as usize]
    }

    /// Mean nanoseconds per span of `name`; 0 when none was recorded.
    pub fn mean_ns(&self, name: SpanName) -> f64 {
        let a = self.aggregate(name);
        if a.count == 0 {
            0.0
        } else {
            a.total_ns as f64 / a.count as f64
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Checks the retained spans nest: a parent precedes its child in the
    /// list and encloses its interval.
    pub fn check_nesting(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} span(s) still open", self.stack.len()));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!(
                    "span {i} ({}) ends before it starts",
                    s.name.as_str()
                ));
            }
            let Some(p) = s.parent else { continue };
            let Some(parent) = self.spans.get(p as usize).filter(|_| (p as usize) < i) else {
                return Err(format!(
                    "span {i} names parent {p}, which does not precede it"
                ));
            };
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) [{}, {}] escapes parent {p} ({}) [{}, {}]",
                    s.name.as_str(),
                    s.start_ns,
                    s.end_ns,
                    parent.name.as_str(),
                    parent.start_ns,
                    parent.end_ns
                ));
            }
        }
        Ok(())
    }

    /// The retained spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"request\":{},\"start_ns\":{},\"end_ns\":{},\"replayed\":{}}}",
                s.name.as_str(),
                s.name.layer(),
                s.request,
                s.start_ns,
                s.end_ns,
                s.replayed
            );
        }
        out
    }

    /// One row per layer: spans, total and self time, and self time as a
    /// share of `wall_ns` (the traced windows' host time).
    pub fn layer_table(&self, wall_ns: u64) -> String {
        let mut layers: Vec<(&'static str, Aggregate)> = Vec::new();
        for &name in SpanName::ALL {
            let a = self.aggregate(name);
            if a.count == 0 {
                continue;
            }
            match layers.iter_mut().find(|(l, _)| *l == name.layer()) {
                Some((_, sum)) => {
                    sum.count += a.count;
                    sum.total_ns += a.total_ns;
                    sum.self_ns += a.self_ns;
                }
                None => layers.push((name.layer(), a)),
            }
        }
        layers.sort_by_key(|(_, a)| std::cmp::Reverse(a.self_ns));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<28} {:>10} {:>12} {:>12} {:>8}",
            "layer", "spans", "total ms", "self ms", "share"
        );
        for (layer, a) in layers {
            let _ = writeln!(
                out,
                "  {:<28} {:>10} {:>12.3} {:>12.3} {:>7.1}%",
                layer,
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6,
                if wall_ns == 0 {
                    0.0
                } else {
                    100.0 * a.self_ns as f64 / wall_ns as f64
                }
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the tracer with explicit clocks so the arithmetic is exact.
    fn scripted() -> Tracer {
        let mut t = Tracer::new();
        t.enter_at(SpanName::Burst, 7, false, 0);
        t.enter_at(SpanName::Decode, 7, false, 10);
        t.exit_at(40); // 30
        t.enter_at(SpanName::Evaluate, 7, false, 40);
        t.enter_at(SpanName::Candidates, 7, true, 45);
        t.exit_at(55); // 10, nested two deep
        t.exit_at(60); // 20, of which 10 in the child
        t.exit_at(100); // 100, of which 50 in children
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = scripted();
        assert_eq!(
            t.aggregate(SpanName::Burst),
            Aggregate {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t.aggregate(SpanName::Decode),
            Aggregate {
                count: 1,
                total_ns: 30,
                self_ns: 30
            }
        );
        assert_eq!(
            t.aggregate(SpanName::Evaluate),
            Aggregate {
                count: 1,
                total_ns: 20,
                self_ns: 10
            }
        );
        assert_eq!(
            t.aggregate(SpanName::Candidates),
            Aggregate {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        // Self times partition the root span.
        let selfs: u64 = SpanName::ALL.iter().map(|&n| t.aggregate(n).self_ns).sum();
        assert_eq!(selfs, 100);
    }

    #[test]
    fn retained_spans_nest_and_carry_parents() {
        let t = scripted();
        t.check_nesting().expect("scripted spans nest");
        let parents: Vec<Option<u32>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(t.spans()[3].replayed && !t.spans()[2].replayed);
        assert!(t.spans().iter().all(|s| s.request == 7));
        assert_eq!(t.to_jsonl().lines().count(), 4);
        assert!(t
            .to_jsonl()
            .lines()
            .nth(3)
            .unwrap()
            .contains("\"parent\":2"));
    }

    #[test]
    fn nesting_check_catches_an_escaping_child() {
        let mut t = scripted();
        t.spans[1].end_ns = 500;
        assert!(t.check_nesting().unwrap_err().contains("escapes parent"));
        let mut open = Tracer::new();
        open.enter(SpanName::Burst, 0);
        assert!(open.check_nesting().unwrap_err().contains("still open"));
    }

    #[test]
    fn spans_past_the_cap_are_aggregated_but_not_kept() {
        let mut t = Tracer::new();
        for i in 0..(RAW_SPAN_CAP as u64 + 10) {
            t.enter_at(SpanName::Burst, i, false, i * 2);
            t.exit_at(i * 2 + 1);
        }
        assert_eq!(t.spans().len(), RAW_SPAN_CAP);
        assert_eq!(t.dropped(), 10);
        assert_eq!(t.aggregate(SpanName::Burst).count, RAW_SPAN_CAP as u64 + 10);
    }

    #[test]
    fn layer_is_the_name_without_its_last_component() {
        assert_eq!(SpanName::CacheGet.layer(), "registry.cache");
        assert_eq!(SpanName::RunUntil.layer(), "simnet");
        assert_eq!(SpanName::IssueQuery.layer(), "core.client_node");
        let table = scripted().layer_table(100);
        assert!(table.contains("protocol.codec") && table.contains("registry.store"));
    }
}
