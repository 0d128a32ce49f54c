//! `obs::span` — a low-overhead hierarchical wall-clock span profiler.
//!
//! The paper's instrument is a 5 kHz DAQ watching the *hardware*; this
//! module is the equivalent instrument pointed at the *engine itself*:
//! where does the wall-clock time of a batch actually go — content-key
//! hashing, cache probes, simulation, encode + cache writes, journal
//! appends, or waiting on the worker pool?
//!
//! Design constraints, in order:
//!
//! 1. **Cheap enough to leave on.** [`enter`] on a disabled profiler is
//!    one relaxed atomic load. Enabled, a span is two `Instant` reads,
//!    one scan of a (tiny) thread-local intern table and one `Vec`
//!    push at exit — no locks, no hashing, no allocation on the
//!    steady-state path, no cross-thread traffic until [`drain`].
//! 2. **Share-nothing, merged per batch.** Every thread records into
//!    its own buffer; the engine collects each worker's buffer through
//!    its join handle (exactly like the workers' counter tallies) and
//!    aggregates them into a [`SpanTree`] after the batch — so
//!    profiling cannot perturb scheduling or determinism.
//! 3. **Panic-correct.** Spans are scoped RAII guards: a job that
//!    panics unwinds through its guards, so every enter gets its exit
//!    recorded and the engine's `catch_unwind` retry path keeps the
//!    tree balanced.
//!
//! Records carry an interned *path id* (the stack of span names at
//! enter), so the merged output is a tree keyed by call path, not a
//! flat list: `job → simulate`, `drain → cache_write → result_encode`.
//!
//! Wall-clock spans are **never** part of a deterministic artifact:
//! trace exports embed them only behind `repro --profile`, and
//! `metrics.json` (which already holds nondeterministic `wall_us`)
//! carries their per-stage rollup.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Per-thread record cap: a runaway instrumented loop degrades into
/// counted drops (see [`ThreadSpans::dropped`]) instead of unbounded
/// memory. 2^18 records ≈ 6 MiB per thread at 24 bytes each.
const MAX_RECORDS: usize = 1 << 18;

/// Sentinel for "no enclosing span".
const NO_PATH: u32 = u32::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide profiling epoch all span timestamps are relative
/// to; fixed at first use so records from different threads share one
/// timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span collection on or off, process-wide. Off (the default)
/// makes [`enter`] a no-op; the `repro` binary switches it on for
/// `--profile`.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before the first span so timestamps are
        // meaningful deltas, not time-since-first-span.
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being collected.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One interned path-table entry: this span name under that parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEntry {
    /// Index of the enclosing path in the same table; `None` for a
    /// root span.
    pub parent: Option<u32>,
    /// The span's own name (the last path segment).
    pub name: &'static str,
}

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Index into the owning thread's path table.
    pub path: u32,
    /// Start, nanoseconds since the profiling epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// One thread's drained span buffer: completed records plus the path
/// table that names them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadSpans {
    /// Path table; `SpanRec::path` indexes into it. Entries reference
    /// earlier entries only, so paths resolve in one forward pass.
    pub paths: Vec<PathEntry>,
    /// Completed spans, in exit order.
    pub records: Vec<SpanRec>,
    /// Exits discarded because the buffer hit its cap.
    pub dropped: u64,
}

impl ThreadSpans {
    /// Number of completed spans.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Resolves every path id to its full name chain, index-aligned
    /// with `paths`.
    fn resolved_paths(&self) -> Vec<Vec<&'static str>> {
        let mut out: Vec<Vec<&'static str>> = Vec::with_capacity(self.paths.len());
        for entry in &self.paths {
            let mut chain = match entry.parent {
                Some(p) => out[p as usize].clone(),
                None => Vec::new(),
            };
            chain.push(entry.name);
            out.push(chain);
        }
        out
    }
}

struct ThreadState {
    paths: Vec<PathEntry>,
    // (parent + 1, name) -> path id; key 0 encodes "no parent". A
    // profile has a dozen-odd distinct paths, so a linear scan with a
    // pointer-equality fast path beats hashing the key every enter.
    lookup: Vec<(u32, &'static str, u32)>,
    current: u32,
    open: usize,
    records: Vec<SpanRec>,
    dropped: u64,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            paths: Vec::new(),
            lookup: Vec::new(),
            current: NO_PATH,
            open: 0,
            records: Vec::new(),
            dropped: 0,
        }
    }

    fn intern(&mut self, name: &'static str) -> u32 {
        let parent_key = match self.current {
            NO_PATH => 0,
            p => p + 1,
        };
        for &(parent, known, id) in &self.lookup {
            // Same literal (the common case) compares by pointer; a
            // distinct literal with equal text still interns to the
            // same path via the string comparison.
            if parent == parent_key
                && (std::ptr::eq(known.as_ptr(), name.as_ptr()) && known.len() == name.len()
                    || known == name)
            {
                return id;
            }
        }
        let id = self.paths.len() as u32;
        self.paths.push(PathEntry {
            parent: (self.current != NO_PATH).then_some(self.current),
            name,
        });
        self.lookup.push((parent_key, name, id));
        id
    }
}

thread_local! {
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::new());
}

/// Scoped span guard: records the span when dropped (including during
/// panic unwinding). Obtain via [`enter`].
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    /// `None` when profiling was off at enter time (pure no-op).
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    path: u32,
    prev: u32,
    start_ns: u64,
}

/// Opens a span named `name` on the current thread. The span closes
/// (and is recorded) when the returned guard drops — normally or
/// during unwinding. Nested calls build the hierarchical path.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let (path, prev) = STATE.with(|s| {
        let mut s = s.borrow_mut();
        let path = s.intern(name);
        let prev = s.current;
        s.current = path;
        s.open += 1;
        (path, prev)
    });
    SpanGuard {
        active: Some(ActiveSpan {
            path,
            prev,
            start_ns: now_ns(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        let end_ns = now_ns();
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.current = span.prev;
            s.open = s.open.saturating_sub(1);
            if s.records.len() >= MAX_RECORDS {
                s.dropped += 1;
            } else {
                s.records.push(SpanRec {
                    path: span.path,
                    start_ns: span.start_ns,
                    dur_ns: end_ns.saturating_sub(span.start_ns),
                });
            }
        });
    }
}

/// Takes the current thread's completed spans, leaving the buffer
/// empty. The path table is *cloned*, not cleared — still-open guards
/// keep valid path ids and record into the fresh buffer on exit.
pub fn drain() -> ThreadSpans {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        ThreadSpans {
            paths: s.paths.clone(),
            records: std::mem::take(&mut s.records),
            dropped: std::mem::replace(&mut s.dropped, 0),
        }
    })
}

/// Number of spans currently open on this thread (guards entered but
/// not yet dropped). Zero whenever the thread is outside all
/// instrumented scopes — the balance invariant the integrity tests
/// assert.
pub fn in_flight() -> usize {
    STATE.with(|s| s.borrow().open)
}

/// A batch's merged profile: one drained buffer per participating
/// thread, labelled for display (`collector`, `worker-0`, …).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// `(label, spans)` per thread, in deterministic label order as
    /// assembled by the engine.
    pub threads: Vec<(String, ThreadSpans)>,
}

impl Profile {
    /// True if no thread recorded anything.
    pub fn is_empty(&self) -> bool {
        self.threads.iter().all(|(_, t)| t.is_empty())
    }

    /// Total completed spans across threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|(_, t)| t.len()).sum()
    }

    /// Aggregates all threads into one path-keyed tree.
    pub fn tree(&self) -> SpanTree {
        SpanTree::aggregate(self.threads.iter().map(|(_, t)| t))
    }
}

/// One node of the aggregated span tree: every span instance whose
/// path (stack of names) matches, across all threads, folded together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Last path segment.
    pub name: String,
    /// Span instances aggregated here.
    pub count: u64,
    /// Summed wall time, nanoseconds.
    pub total_ns: u64,
    /// Child nodes, sorted by name.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Time spent in this node but not in any recorded child —
    /// the double-count-free basis for per-stage breakdowns.
    pub fn self_ns(&self) -> u64 {
        let child_total: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(child_total)
    }
}

/// The merged, path-aggregated span tree of a batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTree {
    /// Top-level spans, sorted by name.
    pub roots: Vec<SpanNode>,
    /// Exits lost to per-thread buffer caps, summed.
    pub dropped: u64,
}

impl SpanTree {
    /// Merges drained thread buffers into one tree. Aggregation is a
    /// pure fold over (path → count, total), so the result is
    /// independent of thread count and drain order — the property the
    /// `--jobs 1` vs `--jobs N` integrity test pins.
    pub fn aggregate<'a>(parts: impl IntoIterator<Item = &'a ThreadSpans>) -> SpanTree {
        let mut agg: BTreeMap<Vec<&'static str>, (u64, u64)> = BTreeMap::new();
        let mut dropped = 0u64;
        for ts in parts {
            dropped += ts.dropped;
            // Fold per path id first (thousands of records, a handful
            // of distinct paths), then merge the handful into the map.
            let mut per_path = vec![(0u64, 0u64); ts.paths.len()];
            for rec in &ts.records {
                let slot = &mut per_path[rec.path as usize];
                slot.0 += 1;
                slot.1 += rec.dur_ns;
            }
            let resolved = ts.resolved_paths();
            for (path, &(count, total_ns)) in resolved.iter().zip(&per_path) {
                if count > 0 {
                    let entry = agg.entry(path.clone()).or_insert((0, 0));
                    entry.0 += count;
                    entry.1 += total_ns;
                }
            }
        }
        let mut roots: Vec<SpanNode> = Vec::new();
        for (path, (count, total_ns)) in agg {
            let mut level = &mut roots;
            for (depth, &name) in path.iter().enumerate() {
                let pos = match level.iter().position(|n| n.name == name) {
                    Some(p) => p,
                    None => {
                        // Intermediate nodes that never closed (or were
                        // dropped) materialize with zero mass; the
                        // BTreeMap's lexicographic order keeps children
                        // sorted by name.
                        let at = level
                            .iter()
                            .position(|n| n.name.as_str() > name)
                            .unwrap_or(level.len());
                        level.insert(
                            at,
                            SpanNode {
                                name: name.to_string(),
                                count: 0,
                                total_ns: 0,
                                children: Vec::new(),
                            },
                        );
                        at
                    }
                };
                if depth + 1 == path.len() {
                    level[pos].count += count;
                    level[pos].total_ns += total_ns;
                    break;
                }
                level = &mut level[pos].children;
            }
        }
        SpanTree { roots, dropped }
    }

    /// The node at an exact path, if present.
    pub fn find(&self, path: &[&str]) -> Option<&SpanNode> {
        let mut level = &self.roots;
        let mut found = None;
        for name in path {
            found = level.iter().find(|n| n.name == *name);
            level = &found?.children;
        }
        found
    }

    /// Total instance count of every node named `name`, anywhere in
    /// the tree.
    pub fn count_of(&self, name: &str) -> u64 {
        fn walk(nodes: &[SpanNode], name: &str) -> u64 {
            nodes
                .iter()
                .map(|n| u64::from(n.name == name) * n.count + walk(&n.children, name))
                .sum()
        }
        walk(&self.roots, name)
    }

    /// Self time (`total - children`) aggregated by span name across
    /// the whole tree — the per-stage wall-clock breakdown. Keys sort
    /// by name; values are nanoseconds.
    pub fn stage_self_totals(&self) -> BTreeMap<String, u64> {
        fn walk(nodes: &[SpanNode], out: &mut BTreeMap<String, u64>) {
            for n in nodes {
                *out.entry(n.name.clone()).or_insert(0) += n.self_ns();
                walk(&n.children, out);
            }
        }
        let mut out = BTreeMap::new();
        walk(&self.roots, &mut out);
        out
    }

    /// The tree's structure and counts with no timing — identical
    /// across runs that did the same work, whatever the worker count.
    pub fn shape(&self) -> String {
        fn walk(nodes: &[SpanNode], depth: usize, out: &mut String) {
            for n in nodes {
                let _ = writeln!(out, "{}{} x{}", "  ".repeat(depth), n.name, n.count);
                walk(&n.children, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(&self.roots, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global flag; each test restores
    /// the default (off) before releasing the lock.
    fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _l = flag_lock();
        set_enabled(false);
        {
            let _a = enter("outer");
            let _b = enter("inner");
        }
        assert!(drain().is_empty());
        assert_eq!(in_flight(), 0);
    }

    #[test]
    fn nesting_builds_paths_and_exit_order() {
        let _l = flag_lock();
        set_enabled(true);
        let _ = drain();
        {
            let _a = enter("batch");
            {
                let _b = enter("job");
                let _c = enter("simulate");
            }
            {
                let _b = enter("job");
            }
        }
        set_enabled(false);
        let spans = drain();
        assert_eq!(spans.len(), 4, "simulate, job, job, batch");
        let tree = SpanTree::aggregate([&spans]);
        assert_eq!(tree.count_of("batch"), 1);
        assert_eq!(tree.count_of("job"), 2);
        let sim = tree
            .find(&["batch", "job", "simulate"])
            .expect("nested path");
        assert_eq!(sim.count, 1);
        assert!(tree.find(&["simulate"]).is_none(), "simulate is not a root");
        assert_eq!(in_flight(), 0);
    }

    #[test]
    fn unwinding_closes_spans() {
        let _l = flag_lock();
        set_enabled(true);
        let _ = drain();
        let result = std::panic::catch_unwind(|| {
            let _a = enter("job");
            let _b = enter("simulate");
            panic!("boom");
        });
        assert!(result.is_err());
        set_enabled(false);
        let spans = drain();
        assert_eq!(spans.len(), 2, "both guards recorded despite the panic");
        assert_eq!(in_flight(), 0, "no span left open");
    }

    #[test]
    fn drain_preserves_open_span_paths() {
        let _l = flag_lock();
        set_enabled(true);
        let _ = drain();
        let outer = enter("outer");
        let first = drain();
        assert!(first.is_empty(), "outer is still open");
        {
            let _inner = enter("inner");
        }
        drop(outer);
        set_enabled(false);
        let spans = drain();
        let tree = SpanTree::aggregate([&spans]);
        assert_eq!(
            tree.find(&["outer", "inner"]).map(|n| n.count),
            Some(1),
            "path ids survive a mid-span drain:\n{}",
            tree.shape()
        );
        assert_eq!(tree.count_of("outer"), 1);
    }

    #[test]
    fn aggregate_merges_threads_and_orders_children_by_name() {
        let _l = flag_lock();
        set_enabled(true);
        let _ = drain();
        let make = || {
            {
                let _a = enter("root");
                let _b = enter("zeta");
            }
            {
                let _a = enter("root");
                let _b = enter("alpha");
            }
            drain()
        };
        let local = make();
        let remote = std::thread::spawn(move || {
            set_enabled(true);
            let _a = enter("root");
            let _b = enter("alpha");
            drop(_b);
            drop(_a);
            drain()
        })
        .join()
        .expect("worker thread");
        set_enabled(false);
        let tree = SpanTree::aggregate([&local, &remote]);
        assert_eq!(tree.count_of("root"), 3);
        let root = tree.find(&["root"]).expect("root node");
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"], "children sorted by name");
        assert_eq!(tree.count_of("alpha"), 2);
        // Aggregation is order-independent.
        let swapped = SpanTree::aggregate([&remote, &local]);
        assert_eq!(tree.shape(), swapped.shape());
    }

    #[test]
    fn self_time_excludes_children() {
        let a = ThreadSpans {
            paths: vec![
                PathEntry {
                    parent: None,
                    name: "parent",
                },
                PathEntry {
                    parent: Some(0),
                    name: "child",
                },
            ],
            records: vec![
                SpanRec {
                    path: 1,
                    start_ns: 10,
                    dur_ns: 30,
                },
                SpanRec {
                    path: 0,
                    start_ns: 0,
                    dur_ns: 100,
                },
            ],
            dropped: 0,
        };
        let tree = SpanTree::aggregate([&a]);
        let parent = tree.find(&["parent"]).expect("parent");
        assert_eq!(parent.total_ns, 100);
        assert_eq!(parent.self_ns(), 70);
        let stages = tree.stage_self_totals();
        assert_eq!(stages["parent"], 70);
        assert_eq!(stages["child"], 30);
    }

    #[test]
    fn render_and_shape_mention_counts() {
        let a = ThreadSpans {
            paths: vec![PathEntry {
                parent: None,
                name: "simulate",
            }],
            records: vec![SpanRec {
                path: 0,
                start_ns: 0,
                dur_ns: 2_000_000,
            }],
            dropped: 1,
        };
        let tree = SpanTree::aggregate([&a]);
        assert_eq!(tree.shape(), "simulate x1\n");
        assert_eq!(tree.dropped, 1);
    }
}
