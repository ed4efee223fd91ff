//! The benchmark's span recorder: timed, parented intervals kept in
//! memory and written out when the run ends.
//!
//! A [`Recorder`] belongs to one thread of control. Spans opened through
//! [`Recorder::span`] nest: the innermost open span is the parent of the
//! next one. Work fanned out to worker threads gets a fresh recorder per
//! task via [`Recorder::child_of`], whose spans hang under the span that
//! fanned out, and the task's recorder is merged back with
//! [`Recorder::absorb`]. Counts recorded at the same boundaries travel
//! with the spans, so ratios are computed from what the run measured.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u64 = 0;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the process.
    pub id: u64,
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: u64,
    /// Layer-qualified name, e.g. `movec.schedule`.
    pub name: &'static str,
    /// Request the span served: a template-point index or a job id.
    pub request: u64,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process epoch.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans and counts recorded by one thread of control.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    stack: Vec<u64>,
    base: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// A recorder whose first spans are roots.
    pub fn new() -> Self {
        Self::child_of(NO_PARENT)
    }

    /// A recorder whose outermost spans are children of `parent`.
    pub fn child_of(parent: u64) -> Self {
        Recorder {
            base: parent,
            ..Recorder::default()
        }
    }

    /// Id of the innermost open span (the parent of the next one).
    pub fn current(&self) -> u64 {
        self.stack.last().copied().unwrap_or(self.base)
    }

    /// Runs `f` inside a span named `name` serving `request`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        let start_ns = now_ns();
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns: now_ns(),
        });
        out
    }

    /// Records an interval measured elsewhere (client-side phases of a
    /// job, say) as a child of `parent`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns,
        });
        id
    }

    /// Adds `n` to the count `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The count `name` (0 when never recorded).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Merges another recorder's spans and counts into this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
        for (name, n) in other.counts {
            self.add(name, n);
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, aligned with `spans`: its duration minus
/// the part of its interval that its children cover. Children running
/// in parallel on other threads may overlap one another; the covered
/// part is their union, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            children.entry(s.parent).or_default().push(i);
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get(&s.id) else {
                return s.duration_ns();
            };
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    (
                        spans[k].start_ns.clamp(s.start_ns, s.end_ns),
                        spans[k].end_ns.clamp(s.start_ns, s.end_ns),
                    )
                })
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    /// Number of spans with the name.
    pub calls: u64,
    /// Sum of their self times, seconds.
    pub self_s: f64,
}

/// Count and summed self time of every span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_s += self_ns as f64 * 1e-9;
    }
    out
}

/// Durations (not self times) of the spans named `name`, in `unit_ns`
/// units (1e3 for microseconds, 1e6 for milliseconds).
pub fn durations(spans: &[Span], name: &str, unit_ns: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / unit_ns)
        .collect()
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — a tail figure
/// resting on a handful of samples is noise, so it is refused.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=100.0).contains(&p) || n - nearest_rank(n, p / 100.0) < MIN_BEYOND {
        return None;
    }
    Some(quantile(samples, p / 100.0))
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `q`-quantile of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get(nearest_rank(sorted.len(), q) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// The median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Writes spans as tab-separated lines: id, parent, name, request,
/// start and end in nanoseconds.
pub fn write_tsv(spans: &[Span], out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(out, "id\tparent\tname\trequest\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): two overlapping parallel children [10,50) and
        // [30,70), a serial child [80,90); the first child has a
        // grandchild [20,25).
        let spans = vec![
            span(1, NO_PARENT, "root", 0, 100),
            span(2, 1, "a.x", 10, 50),
            span(3, 1, "a.y", 30, 70),
            span(4, 1, "b.z", 80, 90),
            span(5, 2, "c.w", 20, 25),
        ];
        let selfs = self_times(&spans);
        // Children cover [10,70) ∪ [80,90) = 70 of root's 100.
        assert_eq!(selfs, vec![30, 35, 40, 10, 5]);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["a.x"].calls, 1);
        assert!((by_name["a.x"].self_s - 35e-9).abs() < 1e-18);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span(1, NO_PARENT, "p", 10, 20), span(2, 1, "c", 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let mut rec = Recorder::new();
        let inner_parent = rec.span("outer", 7, |rec| {
            rec.add("things", 2);
            rec.span("inner", 8, |rec| rec.current())
        });
        let outer = rec.spans().iter().find(|s| s.name == "outer").unwrap();
        let inner = rec.spans().iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner_parent, inner.id);
        assert_eq!(outer.parent, NO_PARENT);
        let outer_id = outer.id;
        let mut task = Recorder::child_of(outer_id);
        task.span("task", 9, |_| ());
        task.add("things", 3);
        rec.absorb(task);
        assert_eq!(rec.count("things"), 5);
        let task = rec.spans().iter().find(|s| s.name == "task").unwrap();
        assert_eq!(task.parent, outer_id);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, exactly ten beyond.
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        // p91 leaves nine beyond: refused.
        assert_eq!(percentile(&samples, 91.0), None);
        // Ninety-nine samples cannot support p90.
        assert_eq!(percentile(&samples[..99], 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        // Order of input does not matter.
        let mut rev = samples.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 90.0), Some(90.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
