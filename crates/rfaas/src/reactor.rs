//! The completion-driven reactor: one event loop driving every in-flight
//! invocation of a client thread.
//!
//! The pre-reactor client blocked each waiter on its own connection
//! (`wait_for` busy-rescans) and `CompletionSet::wait_any` re-scanned every
//! entry per call, so the sustainable in-flight depth per thread was
//! effectively the worker count. The reactor inverts the control flow: every
//! [`WorkerConnection`](crate::client) registers itself as a
//! `CompletionSource`, and a single [`Reactor::turn`] pumps all sources in
//! **registration order** (keeping virtual-time runs deterministic),
//! stashes results and dispatches registered continuations — each exactly
//! once — to the ready queues of the completion sets waiting on them. One
//! thread calling `turn` in a loop sustains thousands of outstanding
//! invocations across many sessions; hand-rolled futures
//! ([`crate::TypedFuture`], [`crate::CompletionSet`]) resolve off the ready
//! queues instead of rescanning. No external async runtime is involved: the
//! loop is a plain function call, so the offline shims stay sufficient and
//! virtual time stays bit-reproducible.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sim_core::sync::{ranks, OrderedMutex};

/// A drainable producer of invocation completions (a client worker
/// connection). `pump` must drain everything currently queued — stashing the
/// results where the owner finds them — and report each newly-stashed
/// invocation id through `sink`.
pub(crate) trait CompletionSource: Send + Sync {
    fn pump(&self, sink: &mut dyn FnMut(u32));
    fn is_connected(&self) -> bool;
}

/// Where a dispatched completion lands: the shared ready queue of a
/// completion set, and the entry index to push into it.
pub(crate) struct Continuation {
    pub(crate) ready: Arc<OrderedMutex<VecDeque<usize>>>,
    pub(crate) index: usize,
}

/// Counters exposed for regression tests and introspection: a well-behaved
/// reactor dispatches each continuation exactly once and sweeps each source
/// O(1) times per completion, never O(n).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Completed `turn` calls.
    pub turns: u64,
    /// Completions pumped out of sources.
    pub pumped: u64,
    /// Continuations dispatched to ready queues.
    pub dispatched: u64,
}

#[derive(Default)]
struct ReactorState {
    /// Registration order is dispatch order — the determinism contract.
    sources: Vec<(u64, Arc<dyn CompletionSource>)>,
    continuations: HashMap<(u64, u32), Continuation>,
    next_token: u64,
}

/// Scratch reused across turns: the steady-state sweep performs no
/// allocations.
#[derive(Default)]
struct TurnScratch {
    sweep: Vec<(u64, Arc<dyn CompletionSource>)>,
    events: Vec<(u64, u32)>,
}

struct ReactorInner {
    /// Serialises turns: concurrent callers queue behind one sweep instead
    /// of racing over the same rings (the reactor replaces the per-connection
    /// `wait_lock` of the old client). The turn's scratch lives inside.
    turn_lock: OrderedMutex<TurnScratch>,
    state: OrderedMutex<ReactorState>,
    turns: AtomicU64,
    pumped: AtomicU64,
    dispatched: AtomicU64,
}

impl Default for ReactorInner {
    fn default() -> ReactorInner {
        ReactorInner {
            turn_lock: OrderedMutex::new(ranks::REACTOR_TURN, TurnScratch::default()),
            state: OrderedMutex::new(ranks::REACTOR_STATE, ReactorState::default()),
            turns: AtomicU64::new(0),
            pumped: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
        }
    }
}

/// Handle to one reactor; cheap to clone, shareable across sessions.
#[derive(Clone, Default)]
pub struct Reactor {
    inner: Arc<ReactorInner>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Reactor")
            .field("sources", &self.inner.state.lock().sources.len())
            .field("stats", &stats)
            .finish()
    }
}

impl Reactor {
    /// A fresh reactor with no sources.
    pub fn new() -> Reactor {
        Reactor::default()
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> ReactorStats {
        ReactorStats {
            turns: self.inner.turns.load(Ordering::Relaxed),
            pumped: self.inner.pumped.load(Ordering::Relaxed),
            dispatched: self.inner.dispatched.load(Ordering::Relaxed),
        }
    }

    /// Register a source; the returned token scopes continuations to it.
    /// Sources are pumped in registration order on every turn.
    pub(crate) fn register_source(&self, source: Arc<dyn CompletionSource>) -> u64 {
        let mut state = self.inner.state.lock();
        state.next_token += 1;
        let token = state.next_token;
        state.sources.push((token, source));
        token
    }

    /// Remove a source. Continuations registered against it stay put: their
    /// owners detect the dead connection and run recovery.
    pub(crate) fn unregister_source(&self, token: u64) {
        self.inner.state.lock().sources.retain(|(t, _)| *t != token);
    }

    /// Arm a continuation: when the source registered under `token` reports
    /// `invocation_id`, push `index` onto `ready`. Dispatch is exactly-once —
    /// the continuation is consumed. The caller must re-check its result
    /// stash after arming (a concurrent turn may have pumped the completion
    /// just before the continuation existed); a duplicate ready entry from
    /// that re-check is harmless as long as consumers treat ready indices as
    /// hints (take-and-skip-empty).
    pub(crate) fn register_continuation(
        &self,
        token: u64,
        invocation_id: u32,
        ready: &Arc<OrderedMutex<VecDeque<usize>>>,
        index: usize,
    ) {
        self.inner.state.lock().continuations.insert(
            (token, invocation_id),
            Continuation {
                ready: Arc::clone(ready),
                index,
            },
        );
    }

    /// Drop a continuation that will never fire (its completion set is being
    /// abandoned).
    pub(crate) fn cancel_continuation(&self, token: u64, invocation_id: u32) {
        self.inner
            .state
            .lock()
            .continuations
            .remove(&(token, invocation_id));
    }

    /// One sweep of the event loop: pump every source in registration order,
    /// dispatch the continuations of everything that completed, and prune
    /// sources whose connections are gone (after their final drain). Returns
    /// the number of completions pumped — `0` means no progress, so the
    /// caller may yield or block on an external signal.
    pub fn turn(&self) -> usize {
        let mut scratch = self.inner.turn_lock.lock();
        let TurnScratch { sweep, events } = &mut *scratch;
        sweep.clear();
        sweep.extend(
            self.inner
                .state
                .lock()
                .sources
                .iter()
                .map(|(t, s)| (*t, Arc::clone(s))),
        );
        events.clear();
        let mut dead = 0usize;
        for (token, source) in sweep.iter() {
            source.pump(&mut |id| events.push((*token, id)));
            if !source.is_connected() {
                dead += 1;
            }
        }
        let progressed = events.len();
        if progressed > 0 || dead > 0 {
            let mut state = self.inner.state.lock();
            let mut dispatched = 0u64;
            for (token, id) in events.drain(..) {
                if let Some(continuation) = state.continuations.remove(&(token, id)) {
                    continuation.ready.lock().push_back(continuation.index);
                    dispatched += 1;
                }
            }
            if dead > 0 {
                // A disconnected source can never produce another completion:
                // it was drained above, so dropping it now loses nothing.
                state.sources.retain(|(_, source)| source.is_connected());
            }
            self.inner
                .dispatched
                .fetch_add(dispatched, Ordering::Relaxed);
        }
        self.inner
            .pumped
            .fetch_add(progressed as u64, Ordering::Relaxed);
        self.inner.turns.fetch_add(1, Ordering::Relaxed);
        progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicBool;

    /// Deterministic stand-in for a worker connection: completions are queued
    /// by the test and drained by `pump`.
    #[derive(Default)]
    struct MockSource {
        queued: Mutex<VecDeque<u32>>,
        stashed: Mutex<Vec<u32>>,
        connected: AtomicBool,
    }

    impl MockSource {
        fn new() -> Arc<MockSource> {
            let source = Arc::new(MockSource::default());
            source.connected.store(true, Ordering::Relaxed);
            source
        }

        fn push(&self, id: u32) {
            self.queued.lock().push_back(id);
        }
    }

    impl CompletionSource for MockSource {
        fn pump(&self, sink: &mut dyn FnMut(u32)) {
            while let Some(id) = self.queued.lock().pop_front() {
                self.stashed.lock().push(id);
                sink(id);
            }
        }

        fn is_connected(&self) -> bool {
            self.connected.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn turn_dispatches_registered_continuations_once() {
        let reactor = Reactor::new();
        let source = MockSource::new();
        let token = reactor.register_source(source.clone());
        let ready = Arc::new(OrderedMutex::new(ranks::REACTOR_READY, VecDeque::new()));
        reactor.register_continuation(token, 7, &ready, 3);
        source.push(7);
        assert_eq!(reactor.turn(), 1);
        assert_eq!(ready.lock().iter().copied().collect::<Vec<_>>(), vec![3]);
        // The continuation was consumed: replaying the id dispatches nothing.
        source.push(7);
        assert_eq!(reactor.turn(), 1);
        assert_eq!(ready.lock().len(), 1);
        let stats = reactor.stats();
        assert_eq!(stats.dispatched, 1);
        assert_eq!(stats.pumped, 2);
    }

    #[test]
    fn sources_are_pumped_in_registration_order() {
        let reactor = Reactor::new();
        let first = MockSource::new();
        let second = MockSource::new();
        let t1 = reactor.register_source(first.clone());
        let t2 = reactor.register_source(second.clone());
        let ready = Arc::new(OrderedMutex::new(ranks::REACTOR_READY, VecDeque::new()));
        reactor.register_continuation(t2, 1, &ready, 20);
        reactor.register_continuation(t1, 1, &ready, 10);
        // Queue the later-registered source first; dispatch order must still
        // follow registration order.
        second.push(1);
        first.push(1);
        assert_eq!(reactor.turn(), 2);
        assert_eq!(
            ready.lock().iter().copied().collect::<Vec<_>>(),
            vec![10, 20]
        );
    }

    #[test]
    fn dead_sources_are_pruned_after_their_final_drain() {
        let reactor = Reactor::new();
        let source = MockSource::new();
        let token = reactor.register_source(source.clone());
        let ready = Arc::new(OrderedMutex::new(ranks::REACTOR_READY, VecDeque::new()));
        reactor.register_continuation(token, 9, &ready, 0);
        // The completion queued before the disconnect must still dispatch.
        source.push(9);
        source.connected.store(false, Ordering::Relaxed);
        assert_eq!(reactor.turn(), 1);
        assert_eq!(ready.lock().len(), 1);
        assert_eq!(reactor.inner.state.lock().sources.len(), 0);
    }

    proptest::proptest! {
        // No lost and no duplicate dispatches under arbitrary assignments of
        // completions to sources and arbitrary push/turn interleavings.
        #[test]
        fn dispatch_is_exactly_once_under_arbitrary_interleavings(
            assignment: Vec<u8>,
            turn_after: Vec<bool>,
        ) {
            let reactor = Reactor::new();
            let sources: Vec<_> = (0..4).map(|_| MockSource::new()).collect();
            let tokens: Vec<_> = sources
                .iter()
                .map(|s| reactor.register_source(s.clone()))
                .collect();
            let ready = Arc::new(OrderedMutex::new(ranks::REACTOR_READY, VecDeque::new()));
            for (index, pick) in assignment.iter().enumerate() {
                reactor.register_continuation(
                    tokens[(*pick % 4) as usize],
                    index as u32,
                    &ready,
                    index,
                );
            }
            // Interleave deliveries with turns as the bool tape dictates.
            for (index, pick) in assignment.iter().enumerate() {
                sources[(*pick % 4) as usize].push(index as u32);
                if turn_after.get(index % turn_after.len().max(1)).copied().unwrap_or(false) {
                    reactor.turn();
                }
            }
            // Final drain: everything still queued dispatches now.
            while reactor.turn() > 0 {}
            let mut seen: Vec<usize> = ready.lock().iter().copied().collect();
            seen.sort_unstable();
            let expected: Vec<usize> = (0..assignment.len()).collect();
            proptest::prop_assert_eq!(seen, expected);
            proptest::prop_assert_eq!(reactor.stats().dispatched, assignment.len() as u64);
            proptest::prop_assert_eq!(reactor.stats().pumped, assignment.len() as u64);
        }
    }
}
