//! Runtime lock-order witness (`GOPIM_LOCKDEP=1`) — the dynamic half
//! of the concurrency-safety analyzer.
//!
//! [`DepMutex`] / [`DepCondvar`] are drop-in wrappers over the std
//! primitives. Each named lock belongs to a **class** (the same
//! `crate::field` names the static pass in `gopim-lint` assigns), and
//! every acquisition while the flag is on records, for each lock the
//! thread already holds, the directed edge *held → acquired* into a
//! global order matrix. An acquisition that contradicts an
//! already-witnessed order — or re-enters a lock the thread already
//! holds — is reported as a **violation**, panic-free: it lands in
//! the witness dump and a `log_warn!`, never an abort, so a run under
//! the witness stays byte-identical on stdout.
//!
//! With `GOPIM_LOCKDEP` unset the wrappers cost one relaxed atomic
//! load and a branch per acquisition — no allocation, no global lock,
//! no extra ordering constraints — preserving the workspace's
//! bit-determinism contract.
//!
//! `GOPIM_LOCKDEP_DUMP=<path>` makes the [`crate::TelemetryGuard`]
//! write the witnessed matrix as JSON on drop; `gopim lint --locks
//! --check-witness <path>` then checks it is a subgraph of the static
//! lock-acquisition graph.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::EnvFlag;

static LOCKDEP: EnvFlag = EnvFlag::new(|| crate::env::get().lockdep);

/// Whether the lockdep witness is on (`GOPIM_LOCKDEP=1`, or forced by
/// [`set_lockdep_enabled`]). The disabled path is a relaxed load.
#[inline]
pub fn lockdep_enabled() -> bool {
    LOCKDEP.get()
}

/// Forces the witness on or off, overriding the config — for tests
/// that seed deliberate inversions.
pub fn set_lockdep_enabled(on: bool) {
    LOCKDEP.set(on);
}

/// The global order matrix. Class names are `&'static str`, so the
/// sets stay allocation-light; `BTreeMap`/`BTreeSet` keep every
/// rendering deterministic. This mutex guards only witness metadata
/// (never user data) and is deliberately *not* a [`DepMutex`]: the
/// witness cannot watch itself, and `crates/obs/src/lockdep.rs` is
/// likewise exempt from the static pass.
static STATE: Mutex<State> = Mutex::new(State {
    classes: BTreeSet::new(),
    edges: BTreeMap::new(),
    violations: Vec::new(),
});

struct State {
    classes: BTreeSet<&'static str>,
    /// Witnessed *held → acquired* orders, keyed `(held, acquired)`.
    edges: BTreeMap<(&'static str, &'static str), ()>,
    violations: Vec<String>,
}

thread_local! {
    /// The classes this thread currently holds, in acquisition order.
    static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn state() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Records an acquisition of `name` against the current thread's held
/// stack and pushes it. Returns the token whose drop pops it.
fn acquire(name: &'static str) -> Token {
    let pushed = HELD
        .try_with(|h| {
            let mut held = h.borrow_mut();
            let mut st = state();
            st.classes.insert(name);
            for i in 0..held.len() {
                let prior = held[i];
                if prior == name {
                    let what = format!(
                        "recursive acquisition of `{name}` — a single-thread self-deadlock"
                    );
                    record_violation(&mut st, what);
                    continue;
                }
                if !st.edges.contains_key(&(prior, name)) {
                    if st.edges.contains_key(&(name, prior)) {
                        let what = format!(
                            "lock-order inversion: `{name}` acquired while holding `{prior}`, \
                             but the opposite order was already witnessed"
                        );
                        record_violation(&mut st, what);
                    }
                    st.edges.insert((prior, name), ());
                }
            }
            drop(st);
            held.push(name);
        })
        .is_ok();
    Token(pushed.then_some(name))
}

fn record_violation(st: &mut State, what: String) {
    if !st.violations.contains(&what) {
        crate::log_warn!("lockdep: {what}");
        st.violations.push(what);
    }
}

/// Pops the most recent acquisition of `name` from the held stack.
fn release(name: &'static str) {
    let _ = HELD.try_with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&n| n == name) {
            held.remove(pos);
        }
    });
}

/// Witness bookkeeping for one live acquisition. `None` when the
/// witness was off (or thread-local storage was gone) at lock time —
/// then the drop is free.
struct Token(Option<&'static str>);

impl Drop for Token {
    fn drop(&mut self) {
        if let Some(name) = self.0 {
            release(name);
        }
    }
}

/// A named [`Mutex`] participating in lock-order witnessing.
///
/// The name is the lock's *class* — use the `crate::field` form the
/// static pass assigns (for example `"par::queue"`), so the witnessed
/// matrix and the static graph speak the same language. Poisoning is
/// absorbed: a panic while holding the lock does not cascade.
pub struct DepMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> DepMutex<T> {
    /// Creates a named mutex. `const`, so statics work directly.
    pub const fn new(name: &'static str, value: T) -> Self {
        DepMutex {
            name,
            inner: Mutex::new(value),
        }
    }

    /// This lock's class name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the lock, recovering from poisoning. When the witness
    /// is on, records order edges against every lock this thread
    /// already holds.
    pub fn lock(&self) -> DepMutexGuard<'_, T> {
        let token = if lockdep_enabled() {
            acquire(self.name)
        } else {
            Token(None)
        };
        DepMutexGuard {
            guard: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
            token,
        }
    }

    /// Consumes the mutex, returning the inner value (poison-absorbed).
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for DepMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepMutex")
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// The guard for a [`DepMutex`]. Releases the witness token when it
/// (or, across a [`DepCondvar::wait`], its rewrapped successor) drops.
// Field order is load-bearing: `guard` drops before `token`, so the
// witness pops the held stack only after the OS lock is released.
#[must_use = "the lock is released when the guard drops"]
pub struct DepMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    token: Token,
}

impl<T> std::ops::Deref for DepMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for DepMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A [`Condvar`] whose `wait` understands [`DepMutexGuard`]: the
/// witness token survives the unlock/relock inside `wait`, mirroring
/// the static pass's model (a condvar wait keeps its guard's lock
/// "held" for ordering purposes).
pub struct DepCondvar {
    inner: Condvar,
}

impl DepCondvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        DepCondvar {
            inner: Condvar::new(),
        }
    }

    /// Blocks until notified, recovering from poisoning. The guard's
    /// witness token is carried across the wait unchanged.
    pub fn wait<'a, T>(&self, guard: DepMutexGuard<'a, T>) -> DepMutexGuard<'a, T> {
        let DepMutexGuard { guard, token } = guard;
        DepMutexGuard {
            guard: self.inner.wait(guard).unwrap_or_else(|e| e.into_inner()),
            token,
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for DepCondvar {
    fn default() -> Self {
        DepCondvar::new()
    }
}

impl std::fmt::Debug for DepCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepCondvar").finish()
    }
}

/// Every class the witness has seen acquired, sorted.
pub fn witnessed_classes() -> Vec<String> {
    state().classes.iter().map(|c| (*c).to_string()).collect()
}

/// Every witnessed `(held, acquired)` order edge, sorted.
pub fn witnessed_edges() -> Vec<(String, String)> {
    state()
        .edges
        .keys()
        .map(|(a, b)| ((*a).to_string(), (*b).to_string()))
        .collect()
}

/// Every recorded ordering violation, in witness order.
pub fn violations() -> Vec<String> {
    state().violations.clone()
}

/// Clears the global matrix and the *current thread's* held stack —
/// for tests that seed deliberate inversions and then check the real
/// workspace is clean.
pub fn reset() {
    let mut st = state();
    st.classes.clear();
    st.edges.clear();
    st.violations.clear();
    drop(st);
    let _ = HELD.try_with(|h| h.borrow_mut().clear());
}

/// Renders the witness dump (`GOPIM_LOCKDEP_DUMP`) — a single JSON
/// document parseable by [`crate::export::parse_json`], and the input
/// format of `gopim lint --locks --check-witness`.
pub fn render_witness() -> String {
    let st = state();
    let mut out = String::from("{\n  \"version\": 1,\n  \"classes\": [");
    for (i, class) in st.classes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", crate::export::escape_json(class)));
    }
    out.push_str("],\n  \"edges\": [");
    for (i, (from, to)) in st.edges.keys().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"from\": \"{}\", \"to\": \"{}\"}}",
            crate::export::escape_json(from),
            crate::export::escape_json(to),
        ));
    }
    if !st.edges.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"violations\": [");
    for (i, what) in st.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"what\": \"{}\"}}",
            crate::export::escape_json(what)
        ));
    }
    if !st.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classes/edges/violations of this test's own `t::` locks —
    /// the matrix is global, and once the obs statics themselves sit
    /// on [`DepMutex`] a concurrently running test could witness them
    /// here; filtering keeps the assertions race-free.
    fn mine() -> (Vec<String>, Vec<(String, String)>, Vec<String>) {
        let classes = witnessed_classes()
            .into_iter()
            .filter(|c| c.starts_with("t::"))
            .collect();
        let edges = witnessed_edges()
            .into_iter()
            .filter(|(a, b)| a.starts_with("t::") || b.starts_with("t::"))
            .collect();
        let violations = violations()
            .into_iter()
            .filter(|v| v.contains("`t::"))
            .collect();
        (classes, edges, violations)
    }

    // The witness matrix is global; every assertion about it lives in
    // this one test so parallel test threads cannot interleave resets.
    #[test]
    fn witness_records_orders_and_flags_inversions() {
        set_lockdep_enabled(true);
        reset();

        static A: DepMutex<u32> = DepMutex::new("t::a", 0);
        static B: DepMutex<u32> = DepMutex::new("t::b", 0);

        {
            let _ga = A.lock();
            let mut gb = B.lock();
            *gb += 1;
        }
        let (classes, edges, v) = mine();
        assert_eq!(classes, vec!["t::a", "t::b"]);
        assert_eq!(edges, vec![("t::a".to_string(), "t::b".to_string())]);
        assert!(v.is_empty(), "{v:?}");

        // Same order again: no new edge, still clean. Opposite order:
        // inversion, reported without panicking.
        {
            let _ga = A.lock();
            let _gb = B.lock();
        }
        {
            let _gb = B.lock();
            let _ga = A.lock();
        }
        let (_, edges, v) = mine();
        assert_eq!(edges.len(), 2, "{edges:?}");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("`t::a`") && v[0].contains("`t::b`"), "{v:?}");

        // Recursive acquisition on one thread is its own violation.
        // Exercised through the bookkeeping alone — really locking a
        // std mutex twice on one thread would deadlock for real.
        reset();
        {
            let _t1 = acquire("t::a");
            let _t2 = acquire("t::a");
        }
        let (_, _, v) = mine();
        assert!(v[0].contains("recursive acquisition of `t::a`"), "{v:?}");

        // Condvar wait keeps the token: the guard returned by wait
        // still pops the held stack exactly once on drop.
        reset();
        static CV: DepCondvar = DepCondvar::new();
        let waiter = std::thread::spawn(|| {
            let mut g = A.lock();
            while *g == 0 {
                g = CV.wait(g);
            }
            *g
        });
        loop {
            let mut g = A.lock();
            *g = 7;
            CV.notify_all();
            drop(g);
            if waiter.is_finished() {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(waiter.join().map_err(|_| "waiter panicked"), Ok(7));
        let (_, _, v) = mine();
        assert!(v.is_empty(), "{v:?}");

        // The dump round-trips through the in-repo JSON parser.
        {
            let _ga = A.lock();
            let _gb = B.lock();
        }
        let doc = crate::export::parse_json(&render_witness()).expect("witness parses");
        let classes = doc.get("classes").unwrap().as_arr().unwrap();
        assert!(classes.iter().any(|c| c.as_str() == Some("t::a")));
        let edges = doc.get("edges").unwrap().as_arr().unwrap();
        assert!(edges.iter().any(|e| {
            e.get("from").unwrap().as_str() == Some("t::a")
                && e.get("to").unwrap().as_str() == Some("t::b")
        }));

        // Disabled path: no recording at all.
        reset();
        set_lockdep_enabled(false);
        {
            let _gb = B.lock();
            let _ga = A.lock();
        }
        let (classes, edges, v) = mine();
        assert!(classes.is_empty() && edges.is_empty() && v.is_empty());
    }
}
