//! In-memory spans recorded around the benchmark's own calls into each
//! layer, and the self time derived from them.
//!
//! A span's self time is its duration minus the part of its interval that
//! its child spans cover.  Children may overlap (the two DSM workers run in
//! parallel under one `Dsm::run`), so the covered part is the union of the
//! children's intervals, clipped to the parent's.

use std::collections::BTreeMap;

/// One timed interval, in nanoseconds from the pass's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call the span wraps, e.g. `"kv.get"` or `"sync.barrier"`.
    pub name: &'static str,
    /// Index of the span that caused this one, within the same [`Trace`].
    pub parent: Option<usize>,
    /// Start, ns since the pass's epoch.
    pub start: u64,
    /// End, ns since the pass's epoch.
    pub end: u64,
}

/// Per-name totals over one trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// The spans of one pass.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Adds a span and returns its index (for use as a parent).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Sets the end of span `i` (a parent whose end is known only after its
    /// children were recorded).
    pub fn close(&mut self, i: usize, end: u64) {
        self.spans[i].end = end;
    }

    /// Appends a worker's spans, whose parents index that worker's own list,
    /// under `parent`: spans without a parent in the worker's list hang off
    /// `parent`.
    pub fn graft(&mut self, parent: usize, spans: &[Span]) {
        let base = self.spans.len();
        self.spans.extend(spans.iter().map(|s| Span {
            parent: Some(s.parent.map_or(parent, |p| base + p)),
            ..*s
        }));
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end.saturating_sub(s.start);
            intervals.clear();
            intervals.extend(
                children[i]
                    .iter()
                    .map(|&c| {
                        (
                            self.spans[c].start.max(s.start),
                            self.spans[c].end.min(s.end),
                        )
                    })
                    .filter(|(a, b)| a < b),
            );
            let covered = union_len(&mut intervals);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - covered.min(dur);
        }
        out
    }
}

/// Prints one `span` row per name: count, total and self seconds.
pub fn print_table(workload: &str, kind: dsm_core::ImplKind, table: &[(&'static str, Totals)]) {
    for (name, t) in table {
        println!(
            "{{\"row\":\"span\",\"workload\":\"{workload}\",\"impl\":\"{kind}\",\"span\":\"{name}\",\
             \"count\":{},\"total_s\":{},\"self_s\":{}}}",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
}

/// Total length of the union of `intervals` (half-open).  Reorders them.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut t = Trace::default();
        let root = t.push(span("run", None, 0, 100));
        // Two workers overlapping on 20..80 and 10..90: union 10..90.
        t.graft(
            root,
            &[span("worker", None, 20, 80), span("op", Some(0), 30, 40)],
        );
        t.graft(root, &[span("worker", None, 10, 90)]);
        let totals = t.totals();
        assert_eq!(totals["run"].total_ns, 100);
        assert_eq!(totals["run"].self_ns, 20);
        assert_eq!(totals["worker"].count, 2);
        assert_eq!(totals["worker"].total_ns, 140);
        assert_eq!(totals["worker"].self_ns, 130);
        assert_eq!(totals["op"].self_ns, 10);
    }

    #[test]
    fn union_of_disjoint_and_nested_intervals() {
        assert_eq!(union_len(&mut [(0, 10), (5, 7), (20, 25)]), 15);
        assert_eq!(union_len(&mut []), 0);
    }
}
