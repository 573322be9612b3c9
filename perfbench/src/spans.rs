//! In-memory span recorder: one span per call the benchmark makes into
//! a layer, written out when the run ends.
//!
//! Spans are recorded from the benchmark's own code around public calls
//! (`Runner::build_rig`, `Runner::replay`, ...), never from inside the
//! program, so the recorder costs a clock read per call and nothing per
//! simulated access.

use dmt_sim::report::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span; `cell` indexes
/// the operation (cell or node) the call belongs to, if any.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cell: Option<usize>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. Single-threaded: children always close before their
/// parent, so child intervals never overlap one another.
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
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that will have children; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.duration_ns()
    }

    /// Time a leaf call. The span is recorded only if `f` returns: a
    /// call that panics leaves its time to the enclosing span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns,
            end_ns,
        });
        (out, end_ns - start_ns)
    }

    /// Self time per span name over `root` and its descendants: each
    /// span's duration minus the part its children cover, summed by name.
    pub fn self_times_under(&self, root: usize) -> BTreeMap<&'static str, u64> {
        // Parents are pushed before their children, so one forward scan
        // marks the whole subtree.
        let mut inside = vec![false; self.spans.len()];
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = i == root || s.parent.is_some_and(|p| inside[p]);
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(i, _)| inside[*i]) {
            *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Total duration of every span called `name`, optionally only of
    /// spans whose cell passes `cells`.
    pub fn total_ns(&self, name: &str, cells: Option<&dyn Fn(usize) -> bool>) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| match (cells, s.cell) {
                (Some(keep), Some(c)) => keep(c),
                (Some(_), None) => false,
                (None, _) => true,
            })
            .map(Span::duration_ns)
            .sum()
    }

    pub fn to_json(&self) -> Json {
        let opt = |v: Option<usize>| match v {
            Some(i) => Json::U64(i as u64),
            None => Json::Str("-".into()),
        };
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .set("name", Json::Str(s.name.into()))
                        .set("cell", opt(s.cell))
                        .set("parent", opt(s.parent))
                        .set("start_ns", Json::U64(s.start_ns))
                        .set("end_ns", Json::U64(s.end_ns))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.open("root", None, None);
        t.time("leaf", Some(0), Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = t.close(root);
        let selfs = t.self_times_under(root);
        assert_eq!(selfs["root"] + selfs["leaf"], total);
        assert!(selfs["leaf"] >= 2_000_000);
        assert_eq!(t.total_ns("leaf", Some(&|c| c == 0)), selfs["leaf"]);
        assert_eq!(t.total_ns("leaf", Some(&|c| c == 1)), 0);
    }
}
