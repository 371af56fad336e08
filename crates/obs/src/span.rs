//! Hierarchical span profiling: scoped timers that build deterministic
//! span trees, aggregated into a process-wide [`SelfProfile`].
//!
//! ## Model
//!
//! A [`SpanGuard`] measures wall time from construction to drop and
//! attributes it to a node in a per-thread span tree; the node's position
//! is determined by the guard nesting (a thread-local parent stack), so
//! `span("epoch") → span("transfer")` produces the path `epoch;transfer`.
//! When a thread's outermost guard drops, the thread's tree is merged
//! into the global [`SelfProfile`] (one short mutex hold per *root* span,
//! never per span), which keeps hot loops lock-free.
//!
//! Two time domains are kept strictly apart:
//!
//! * **Wall** spans ([`SpanGuard`]) measure host wall-clock time. Their
//!   durations vary run to run; their *structure* (paths, counts) does
//!   not.
//! * **Virtual** spans ([`record_virtual`]) carry durations measured on a
//!   producer's virtual clock (e.g. the serve engine's). They are fully
//!   deterministic: for a deterministic workload the virtual collapsed
//!   output is byte-identical across thread and shard counts, which the
//!   determinism suites pin.
//!
//! ## Cost discipline
//!
//! Profiling follows the same no-op-default rule as
//! [`ObsSink`](crate::ObsSink): until [`set_profiling`]`(true)` is
//! called, entering a span is **one relaxed atomic load** — no
//! `Instant::now()`, no thread-local access, no allocation — and the
//! guard's `Drop` does nothing. `BENCH_obs.json` records the measured
//! disabled-path overhead on the serve hot path (budget: < 1%).
//!
//! ## Exports
//!
//! [`SelfProfile::collapsed`] renders the classic collapsed-stack
//! flamegraph text format (`a;b;c <self-nanoseconds>` per line, sorted),
//! and [`SelfProfile::totals`] sums each span name's calls and inclusive
//! time over every path that ends in it: the per-phase totals the
//! metrics export reads
//! ([`MetricsRegistry::record_span_totals`](crate::MetricsRegistry::record_span_totals)).
//!
//! ```
//! use predvfs_obs::span;
//!
//! span::profile().reset();
//! span::set_profiling(true);
//! {
//!     let _outer = span::span("fit");
//!     let _inner = span::span("iteration");
//! }
//! span::set_profiling(false);
//! let folded = span::profile().collapsed(span::SpanDomain::Wall);
//! assert!(folded.contains("fit;iteration "));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Process-wide profiling switch (off by default).
static PROFILING: AtomicBool = AtomicBool::new(false);

/// Turns span profiling on or off for the whole process.
///
/// Spans entered while profiling is off are inert forever (toggling the
/// switch mid-span does not resurrect them); spans entered while it is
/// on record normally even if the switch is cleared before they drop.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Whether span profiling is currently enabled. One relaxed atomic load:
/// this is the single branch a disabled span callsite pays.
#[inline]
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Which clock a span tree's durations were measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanDomain {
    /// Host wall-clock time ([`SpanGuard`]).
    Wall,
    /// Producer-supplied virtual time ([`record_virtual`]); deterministic
    /// for deterministic workloads.
    Virtual,
}

/// One aggregated node of a span tree: call count, total (inclusive)
/// nanoseconds, and children keyed by span name.
#[derive(Debug, Default)]
struct SpanNode {
    count: u64,
    ns: u64,
    children: BTreeMap<&'static str, SpanNode>,
}

/// A `SpanNode` literal usable in `const` context.
const EMPTY_NODE: SpanNode = SpanNode {
    count: 0,
    ns: 0,
    children: BTreeMap::new(),
};

/// One span name's totals in one domain: calls and inclusive
/// nanoseconds, summed over every path that ends in the name
/// ([`SelfProfile::totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Completed spans of this name.
    pub calls: u64,
    /// Their inclusive time, in nanoseconds.
    pub ns: u64,
}

/// The process-wide aggregated profile: one span tree per
/// [`SpanDomain`]. Obtain it with [`profile`].
pub struct SelfProfile {
    wall: Mutex<SpanNode>,
    virt: Mutex<SpanNode>,
}

static PROFILE: SelfProfile = SelfProfile {
    wall: Mutex::new(EMPTY_NODE),
    virt: Mutex::new(EMPTY_NODE),
};

/// The process-wide [`SelfProfile`].
pub fn profile() -> &'static SelfProfile {
    &PROFILE
}

// ---------------------------------------------------------------------
// Thread-local span collection.

/// One node of a thread's private span tree. Children are kept as a
/// small index vector (trees are shallow and narrow, so a linear name
/// scan beats map overhead on the hot path).
struct LocalNode {
    name: &'static str,
    children: Vec<usize>,
    count: u64,
    ns: u64,
}

struct LocalTree {
    /// Arena; index 0 is the synthetic root.
    nodes: Vec<LocalNode>,
    /// Indices of the currently open spans, outermost first.
    stack: Vec<usize>,
}

impl LocalTree {
    fn new() -> LocalTree {
        LocalTree {
            nodes: vec![LocalNode {
                name: "",
                children: Vec::new(),
                count: 0,
                ns: 0,
            }],
            stack: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied().unwrap_or(0);
        let mut idx = None;
        for &c in &self.nodes[parent].children {
            if self.nodes[c].name == name {
                idx = Some(c);
                break;
            }
        }
        let idx = idx.unwrap_or_else(|| {
            let i = self.nodes.len();
            self.nodes.push(LocalNode {
                name,
                children: Vec::new(),
                count: 0,
                ns: 0,
            });
            self.nodes[parent].children.push(i);
            i
        });
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, node: usize, ns: u64) {
        // Unwind to our frame. Guards drop in reverse construction order
        // (including during panic unwind), so normally `node` is the
        // top; frames above it can only come from leaked guards and are
        // closed with a count but no time (their start is unknown).
        while let Some(top) = self.stack.pop() {
            if top == node {
                break;
            }
            self.nodes[top].count += 1;
        }
        let n = &mut self.nodes[node];
        n.count = n.count.saturating_add(1);
        n.ns = n.ns.saturating_add(ns);
        if self.stack.is_empty() {
            self.flush();
        }
    }

    /// Merges the accumulated counts into the global wall tree and zeroes
    /// them (node structure is kept so re-entry allocates nothing).
    fn flush(&mut self) {
        let mut g = lock(&PROFILE.wall);
        merge_into(&self.nodes, 0, &mut g);
        drop(g);
        for n in &mut self.nodes {
            n.count = 0;
            n.ns = 0;
        }
    }
}

fn subtree_live(nodes: &[LocalNode], idx: usize) -> bool {
    nodes[idx].count > 0 || nodes[idx].children.iter().any(|&c| subtree_live(nodes, c))
}

fn merge_into(nodes: &[LocalNode], idx: usize, g: &mut SpanNode) {
    for &c in &nodes[idx].children {
        if !subtree_live(nodes, c) {
            continue;
        }
        let child = &nodes[c];
        let gc = g.children.entry(child.name).or_default();
        gc.count = gc.count.saturating_add(child.count);
        gc.ns = gc.ns.saturating_add(child.ns);
        merge_into(nodes, c, gc);
    }
}

thread_local! {
    static LOCAL: RefCell<LocalTree> = RefCell::new(LocalTree::new());
}

/// Recovers from poisoning: span trees are add-only aggregates, so a
/// snapshot abandoned by a panicking flusher is still consistent.
fn lock(m: &Mutex<SpanNode>) -> MutexGuard<'_, SpanNode> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Guards and recording.

/// A scoped wall-clock span: measures from construction to drop and
/// attributes the time to the node named `name` under the thread's
/// current span stack. Inert (no clock read, no thread-local access)
/// when profiling is disabled at construction.
pub struct SpanGuard {
    inner: Option<GuardInner>,
}

struct GuardInner {
    node: usize,
    start: Instant,
}

impl SpanGuard {
    /// Opens a span named `name`. `name` should be a literal: it is the
    /// tree key, and the hot path never allocates for it.
    ///
    /// Both halves of the guard keep the disabled path branch-and-load
    /// only: the enabled open/close bodies are outlined `#[cold]` so a
    /// callsite in a hot loop inlines to a relaxed load, a predicted
    /// branch, and a `None`.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !profiling_enabled() {
            return SpanGuard { inner: None };
        }
        SpanGuard {
            inner: Some(GuardInner::open(name)),
        }
    }

    /// An inert guard that records nothing. For callsites that check
    /// [`profiling_enabled`] themselves (e.g. to also pick a span name):
    /// the disabled arm gets a guard of the same type without paying a
    /// second atomic load inside [`SpanGuard::enter`].
    #[inline]
    pub const fn inert() -> SpanGuard {
        SpanGuard { inner: None }
    }

    /// Whether this guard is actually recording (profiling was enabled
    /// when it was constructed).
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl GuardInner {
    #[cold]
    fn open(name: &'static str) -> GuardInner {
        GuardInner {
            node: LOCAL.with(|l| l.borrow_mut().enter(name)),
            start: Instant::now(),
        }
    }

    #[cold]
    fn close(self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // A guard may outlive its thread-local tree only during thread
        // teardown; losing that one span is acceptable.
        let _ = LOCAL.try_with(|l| l.borrow_mut().exit(self.node, ns));
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner.close();
        }
    }
}

/// Shorthand for [`SpanGuard::enter`].
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::enter(name)
}

/// Records one occurrence of the virtual-clock span at `path` lasting
/// `seconds` of virtual time (clamped at zero; non-finite records as
/// zero). Virtual spans carry their full path explicitly instead of
/// using the thread's wall stack, so their trees are identical no matter
/// how work was spread across threads or shards.
///
/// No-op unless profiling is enabled. Callers on deterministic hot paths
/// should additionally gate on their sink being enabled so replay paths
/// (which run against a null sink) never double-record.
pub fn record_virtual(path: &[&'static str], seconds: f64) {
    if !profiling_enabled() || path.is_empty() {
        return;
    }
    let ns = if seconds.is_finite() && seconds > 0.0 {
        (seconds * 1e9).round() as u64
    } else {
        0
    };
    let mut g = lock(&PROFILE.virt);
    let mut node: &mut SpanNode = &mut g;
    for seg in path {
        node = node.children.entry(seg).or_default();
    }
    node.count = node.count.saturating_add(1);
    node.ns = node.ns.saturating_add(ns);
}

// ---------------------------------------------------------------------
// Exports.

impl SelfProfile {
    fn tree(&self, domain: SpanDomain) -> &Mutex<SpanNode> {
        match domain {
            SpanDomain::Wall => &self.wall,
            SpanDomain::Virtual => &self.virt,
        }
    }

    /// Clears both domains' aggregated trees. Open spans on other
    /// threads flush whenever their root guard drops, so reset between
    /// runs only while no spans are in flight.
    pub fn reset(&self) {
        lock(&self.wall).children.clear();
        lock(&self.virt).children.clear();
    }

    /// Renders one domain in the collapsed-stack flamegraph format: one
    /// line per recorded span path, `a;b;c <self-nanoseconds>`, in
    /// lexicographic path order. Self time is the span's inclusive time
    /// minus its children's (clamped at zero), so the rendered values
    /// sum to total root time — exactly what `flamegraph.pl` / inferno
    /// expect. For the virtual domain the output is deterministic:
    /// byte-identical across thread and shard counts.
    pub fn collapsed(&self, domain: SpanDomain) -> String {
        let root = lock(self.tree(domain));
        let mut out = String::new();
        let mut path = String::new();
        collapse_into(&root, &mut path, &mut out);
        out
    }

    /// Sums each span name's calls and inclusive nanoseconds over every
    /// path in one domain that ends in that name, keyed by name. A phase
    /// reached from several callers (`core.fit` under `serve.prepare` and
    /// under a worker's root) is thus reported once, as an exact sum.
    pub fn totals(&self, domain: SpanDomain) -> BTreeMap<&'static str, SpanTotal> {
        fn walk(node: &SpanNode, out: &mut BTreeMap<&'static str, SpanTotal>) {
            for (&name, child) in &node.children {
                if child.count > 0 {
                    let t = out.entry(name).or_default();
                    t.calls = t.calls.saturating_add(child.count);
                    t.ns = t.ns.saturating_add(child.ns);
                }
                walk(child, out);
            }
        }
        let mut out = BTreeMap::new();
        walk(&lock(self.tree(domain)), &mut out);
        out
    }
}

fn children_ns(node: &SpanNode) -> u64 {
    node.children
        .values()
        .fold(0u64, |a, c| a.saturating_add(c.ns))
}

fn collapse_into(node: &SpanNode, path: &mut String, out: &mut String) {
    for (name, child) in &node.children {
        let len0 = path.len();
        if !path.is_empty() {
            path.push(';');
        }
        path.push_str(name);
        if child.count > 0 {
            let _ = writeln!(
                out,
                "{path} {}",
                child.ns.saturating_sub(children_ns(child))
            );
        }
        collapse_into(child, path, out);
        path.truncate(len0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Unit tests share the process-global profile; serialize them.
    static GATE: StdMutex<()> = StdMutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        profile().reset();
        set_profiling(false);
        {
            let _a = span("never");
            let _b = span("ever");
        }
        record_virtual(&["quiet"], 1.0);
        assert_eq!(profile().collapsed(SpanDomain::Wall), "");
        assert_eq!(profile().collapsed(SpanDomain::Virtual), "");
    }

    #[test]
    fn nested_spans_build_paths_and_counts() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        profile().reset();
        set_profiling(true);
        for _ in 0..3 {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        {
            let _solo = span("outer");
        }
        set_profiling(false);
        let folded = profile().collapsed(SpanDomain::Wall);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "unexpected output:\n{folded}");
        assert!(lines[0].starts_with("outer "));
        assert!(lines[1].starts_with("outer;inner "));
    }

    #[test]
    fn virtual_spans_are_explicit_paths_with_exact_ns() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        profile().reset();
        set_profiling(true);
        record_virtual(&["serve", "job"], 1.5e-3);
        record_virtual(&["serve", "job"], 0.5e-3);
        record_virtual(&["serve", "arrival"], 0.0);
        record_virtual(&["serve", "bad"], f64::NAN);
        set_profiling(false);
        let folded = profile().collapsed(SpanDomain::Virtual);
        assert_eq!(
            folded, "serve;arrival 0\nserve;bad 0\nserve;job 2000000\n",
            "virtual collapsed output must be exact and sorted"
        );
    }

    #[test]
    fn toggling_mid_span_is_safe() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        profile().reset();
        set_profiling(true);
        let live = span("live");
        set_profiling(false);
        // Entered while enabled: still records on drop.
        let inert = span("inert");
        drop(inert);
        drop(live);
        let folded = profile().collapsed(SpanDomain::Wall);
        assert!(folded.contains("live "), "{folded}");
        assert!(!folded.contains("inert"), "{folded}");
    }
}
