//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, epoch, count)`: the epoch is the
//! identifier spans of one unit of work share, the count is what reached the
//! call (rows, entries, messages or bytes) recorded at the same boundary.
//! Spans are only recorded by the traced run and are written out when it
//! ends; nothing inside the crates is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    pub epoch: u64,
    pub count: u64,
}

/// Self time, count and calls of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub self_ns: u64,
    pub count: u64,
    pub calls: u64,
}

impl NameTotal {
    /// Self nanoseconds per counted unit (0 when nothing was counted).
    pub fn ns_per_count(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, epoch: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            epoch,
            count: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, recording what reached the call. Returns the span's
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: u32, count: u64) -> u64 {
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count;
        end_ns - span.start_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals of self time.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.self_ns += self_ns;
            t.count += span.count;
            t.calls += 1;
        }
        out
    }

    /// The spans as compact JSON: a name table plus one
    /// `[name, start_ns, end_ns, parent, epoch, count]` row per span
    /// (`parent` is -1 at the root).
    pub fn to_json(&self) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut rows = String::with_capacity(self.spans.len() * 40);
        for (i, s) in self.spans.iter().enumerate() {
            let name = *index.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            });
            let parent = s.parent.map_or(-1, i64::from);
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                rows,
                "{sep}[{name},{},{},{parent},{},{}]",
                s.start_ns, s.end_ns, s.epoch, s.count
            );
        }
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        format!(
            "{{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"epoch\",\"count\"],\n\
             \"names\":[{}],\n\"spans\":[\n{rows}\n]}}\n",
            names.join(",")
        )
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover. Children may overlap each other (two spans
/// recorded around concurrent work) and may stick out of the parent; the
/// covered part is the union of the children clipped to the parent, so
/// neither case subtracts time twice or goes negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            epoch: 0,
            count: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root 0..100 > child 10..60 > grandchild 20..30
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_subtract_their_union() {
        // Children 10..50 and 30..70 cover 10..70 together, not 40 + 40.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
        // A child contained in a sibling adds nothing.
        let spans = [
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_sticking_out_are_clipped_to_the_parent() {
        let spans = [
            span(10, 20, None),
            span(0, 15, Some(0)),
            span(18, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn tracer_nests_by_call_order_and_totals_by_name() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 7);
        for count in [5, 6] {
            let inner = t.enter("inner", 7);
            t.exit(inner, count);
        }
        t.exit(outer, 1);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let totals = t.totals();
        assert_eq!(totals["inner"].count, 11);
        assert_eq!(totals["inner"].calls, 2);
        assert_eq!(totals["outer"].calls, 1);
        let outer_len = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(
            totals["outer"].self_ns + totals["inner"].self_ns,
            outer_len,
            "self times partition the root span"
        );
        assert!(t.to_json().contains("\"names\":[\"outer\",\"inner\"]"));
    }
}
