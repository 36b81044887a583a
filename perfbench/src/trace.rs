//! In-memory span recorder for the traced run, and the self-time
//! arithmetic over what it records.
//!
//! A span is opened around one public call into a layer with
//! [`span`]; dropping the guard closes it. Spans nest per thread: the
//! innermost open span is the parent of the next one, and the outermost
//! span of a thread is an operation's root — every span under it carries
//! the root's id as its `op`. Closed spans stay in a thread-local buffer
//! until their root closes, then move to one process-wide list that
//! [`take`] drains when the run ends.
//!
//! [`measured`] times an operation from outside its spans, so the
//! self-time check compares what the spans account for with the wall
//! time the caller saw.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (process-wide).
    pub id: u64,
    /// The span open on the same thread when this one started.
    pub parent: Option<u64>,
    /// Id of the root span of the operation this span belongs to.
    pub op: u64,
    /// Layer boundary name, e.g. `defense.sync`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Each closed root's spans, one batch per root (so handing a batch over
/// never copies the spans recorded before it).
static CLOSED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());
static COUNTS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());
static MEASURED: Mutex<Vec<Measured>> = Mutex::new(Vec::new());

/// An operation timed from outside its spans on one thread: its kind,
/// the roots that closed on that thread while it ran, and its wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measured {
    /// Kind of operation, e.g. `verdict`.
    pub kind: &'static str,
    /// Ids of the root spans the operation opened.
    pub roots: Vec<u64>,
    /// Wall time measured around the operation, nanoseconds.
    pub wall_ns: u64,
}

struct Open {
    id: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    /// Roots closed on this thread while a [`measured`] operation is
    /// open on it, and how many such operations are open (they nest).
    static ROOTS: RefCell<(Vec<u64>, usize)> = const { RefCell::new((Vec::new(), 0)) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for spans opened from now on (off by
/// default: untraced runs pay one relaxed load per boundary).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct Guard(bool);

/// Opens a span named `name` on the current thread (a no-op guard while
/// recording is off).
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(false);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let op = s.first().map_or(id, |root| root.id);
        s.push(Open {
            id,
            op,
            name,
            start_ns: now_ns(),
        });
    });
    Guard(true)
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            let open = s.pop().expect("span guards drop in LIFO order");
            let span = Span {
                id: open.id,
                parent: s.last().map(|p| p.id),
                op: open.op,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            };
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.push(span);
                if s.is_empty() {
                    ROOTS.with(|r| {
                        let mut r = r.borrow_mut();
                        if r.1 > 0 {
                            r.0.push(open.id);
                        }
                    });
                    CLOSED
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(std::mem::take(&mut *l));
                }
            });
        });
    }
}

/// Runs `f` as one operation of kind `kind` timed from outside: its
/// wall time and the roots it opened on this thread are kept for the
/// self-time check. Spans `f` opens on other threads are not its own.
pub fn measured<T>(kind: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let mark = ROOTS.with(|r| {
        let mut r = r.borrow_mut();
        r.1 += 1;
        r.0.len()
    });
    let start = now_ns();
    let value = f();
    let wall_ns = now_ns() - start;
    let roots = ROOTS.with(|r| {
        let mut r = r.borrow_mut();
        r.1 -= 1;
        let roots = r.0[mark..].to_vec();
        if r.1 == 0 {
            r.0.clear();
        }
        roots
    });
    MEASURED
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Measured {
            kind,
            roots,
            wall_ns,
        });
    value
}

/// Adds `n` to the event counter `name` (recorded at the same layer
/// boundaries as the spans, e.g. frames selected by segmentation) while
/// recording is on.
pub fn count(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    *COUNTS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .entry(name)
        .or_insert(0) += n;
}

/// What the recorder holds: closed spans, counters and measured
/// operations.
#[derive(Debug, Default)]
pub struct Recording {
    /// Every closed root's spans.
    pub spans: Vec<Span>,
    /// Event counters.
    pub counts: BTreeMap<&'static str, u64>,
    /// Operations timed from outside with [`measured`].
    pub measured: Vec<Measured>,
}

/// Drains the recorder.
pub fn take() -> Recording {
    fn drain<T: Default>(m: &Mutex<T>) -> T {
        std::mem::take(&mut *m.lock().unwrap_or_else(|e| e.into_inner()))
    }
    Recording {
        spans: drain(&CLOSED).into_iter().flatten().collect(),
        counts: drain(&COUNTS),
        measured: drain(&MEASURED),
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, in input order: its duration minus the part
/// of its interval that its child spans cover. Overlapping children are
/// counted once; child time outside the parent's interval is ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns)
        })
        .collect()
}

/// The self-times-add-up check: for each kind of operation timed from
/// outside, the self times of the spans its operations opened must sum
/// to their wall time within this share of it. Work inside an operation
/// but outside its spans, or children that overlap (counted twice by
/// their own self times), opens a gap.
pub const SELF_SUM_TOLERANCE: f64 = 0.01;

/// How far measured operations' summed self times are from their wall
/// times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfSumGap {
    /// The largest gap of a kind: its operations' summed absolute gaps
    /// over their summed wall times (`0` for none). This is what
    /// [`SELF_SUM_TOLERANCE`] bounds.
    pub worst_kind: f64,
    /// The largest gap of a single operation, as a share of its wall
    /// time. It also holds any time the host took the thread away
    /// between the operation's edge and its root span's, so on a shared
    /// host it can pass the tolerance for one short operation.
    pub worst_op: f64,
}

/// Compares the `measured` operations' summed self times with their
/// wall times.
pub fn self_sum_gap(spans: &[Span], selfs: &[u64], measured: &[Measured]) -> SelfSumGap {
    let mut sums: HashMap<u64, u64> = HashMap::new();
    for (s, &st) in spans.iter().zip(selfs) {
        *sums.entry(s.op).or_insert(0) += st;
    }
    // Per kind: (summed gap, summed wall), nanoseconds.
    let mut kinds: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut worst_op = 0.0f64;
    for m in measured {
        let sum: u64 = m.roots.iter().filter_map(|r| sums.get(r)).sum();
        let gap = (sum as f64 - m.wall_ns as f64).abs();
        let k = kinds.entry(m.kind).or_default();
        k.0 += gap;
        k.1 += m.wall_ns as f64;
        worst_op = worst_op.max(gap / m.wall_ns.max(1) as f64);
    }
    SelfSumGap {
        worst_kind: kinds
            .values()
            .map(|&(gap, wall)| if wall > 0.0 { gap / wall } else { 0.0 })
            .fold(0.0, f64::max),
        worst_op,
    }
}

/// Per-name aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Spans of this name.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Each span's wall time, milliseconds (for tail percentiles).
    pub wall_ms: Vec<f64>,
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span], selfs: &[u64]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, &st) in spans.iter().zip(selfs) {
        let l = out.entry(s.name).or_default();
        l.calls += 1;
        l.self_ns += st;
        l.wall_ms.push(s.dur_ns() as f64 / 1e6);
    }
    out
}

/// Writes spans (with self times) as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span], selfs: &[u64]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, st) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns, st
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "x",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 30),
            sp(3, Some(1), 50, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![40, 20, 40]);
        assert_eq!(selfs.iter().sum::<u64>(), 100);
        let op = |kind, wall_ns| Measured {
            kind,
            roots: vec![1],
            wall_ns,
        };
        let exact = self_sum_gap(&spans, &selfs, &[op("a", 100)]);
        assert_eq!((exact.worst_kind, exact.worst_op), (0.0, 0.0));
        // 25 ns of the second operation ran outside any span: 25/125 of
        // it, 25/225 of its kind when both are one kind.
        let gap = self_sum_gap(&spans, &selfs, &[op("a", 100), op("a", 125)]);
        assert!((gap.worst_op - 0.2).abs() < 1e-12);
        assert!((gap.worst_kind - 25.0 / 225.0).abs() < 1e-12);
        // Kinds are judged apart: a long exact kind does not dilute it.
        let gap = self_sum_gap(&spans, &selfs, &[op("a", 100), op("b", 125)]);
        assert!((gap.worst_kind - 0.2).abs() < 1e-12);
        let none = self_sum_gap(&spans, &selfs, &[]);
        assert_eq!((none.worst_kind, none.worst_op), (0.0, 0.0));
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Children [10,60] and [40,80] cover [10,80] = 70 of the parent.
        let spans = [
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 60),
            sp(3, Some(1), 40, 80),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 30);
        // The overlap is double-counted by the children's own self
        // times, which the sum check reports as a gap: (30+50+40-100)/100.
        let op = Measured {
            kind: "a",
            roots: vec![1],
            wall_ns: 100,
        };
        assert!((self_sum_gap(&spans, &selfs, &[op]).worst_kind - 0.2).abs() < 1e-12);
    }

    #[test]
    fn nested_and_contained_children() {
        // A child fully inside another child's interval, a grandchild,
        // and a child that leaks past the parent's end (clipped).
        let spans = [
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 70),
            sp(3, Some(1), 20, 30),
            sp(4, Some(2), 40, 60),
            sp(5, Some(1), 90, 120),
        ];
        let selfs = self_times(&spans);
        // Root: children cover [10,70] ∪ [90,100] = 70.
        assert_eq!(selfs[0], 30);
        // Span 2: grandchild covers 20 of its 60.
        assert_eq!(selfs[1], 40);
        assert_eq!(selfs[3], 20);
    }

    #[test]
    fn leaf_and_childless_root_keep_their_whole_duration() {
        let spans = [sp(7, None, 5, 25)];
        assert_eq!(self_times(&spans), vec![20]);
        assert_eq!(covered_ns(Vec::new(), 0, 10), 0);
    }

    #[test]
    fn recorder_links_parents_and_adds_up() {
        // The only test that records: it owns the global switch.
        set_enabled(true);
        let worker = std::thread::spawn(|| {
            // All of this operation's time is under its spans.
            measured("covered", || {
                let _root = span("root");
                {
                    let _a = span("a");
                    let _b = span("b");
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                let _c = span("c");
            });
            // This one spends most of its time outside any span.
            measured("uncovered", || {
                drop(span("quick"));
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
        });
        worker.join().unwrap();
        count("frames", 3);
        count("frames", 4);
        let Recording {
            spans,
            counts,
            measured,
        } = take();
        assert_eq!(measured.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").unwrap().id;
        let quick = spans.iter().find(|s| s.name == "quick").unwrap().id;
        assert_eq!(measured[0].roots, vec![root]);
        assert_eq!(measured[1].roots, vec![quick]);
        let mine: Vec<Span> = spans.iter().filter(|s| s.op == root).cloned().collect();
        let id_of = |n: &str| mine.iter().find(|s| s.name == n).unwrap().id;
        let parent_of = |n: &str| mine.iter().find(|s| s.name == n).unwrap().parent;
        assert_eq!(mine.len(), 4);
        assert_eq!(parent_of("root"), None);
        assert_eq!(parent_of("a"), Some(id_of("root")));
        assert_eq!(parent_of("b"), Some(id_of("a")));
        assert_eq!(parent_of("c"), Some(id_of("root")));
        let selfs = self_times(&spans);
        assert!(self_sum_gap(&spans, &selfs, &measured[..1]).worst_kind <= SELF_SUM_TOLERANCE);
        let gap = self_sum_gap(&spans, &selfs, &measured);
        assert!(gap.worst_op > 0.9 && gap.worst_kind > 0.9);
        assert_eq!(counts.get("frames"), Some(&7));
        let layers = by_name(&mine, &self_times(&mine));
        assert_eq!(layers["b"].calls, 1);
    }
}
