//! Tiered lock shim: the declared lock hierarchy as a checked artifact.
//!
//! The locking discipline of the manager/handler/shard stack used to be
//! prose in `manager.rs`. This module turns it into code: every
//! synchronization primitive on the metadata path is a [`TieredMutex`] or
//! [`TieredRwLock`] tagged with a [`LockTier`], and the total order over
//! tiers *is* the lock hierarchy. With the `lock-audit` cargo feature the
//! shim additionally records per-thread acquisition stacks into a global
//! event log that `streammeta-analyze`'s `lockorder` module replays to
//! detect rank inversions, cross-thread same-tier cycles, and locks held
//! across user compute closures. Without the feature the wrappers are
//! `#[inline]` pass-throughs over `parking_lot` and compile to the same
//! code as before.
//!
//! ## The hierarchy
//!
//! Tiers are acquired in ascending [`LockTier::rank`] order; holding a
//! higher-ranked lock while taking a lower-ranked one is an inversion.
//! The ranking below is the machine-verified refinement of the original
//! three-level prose scheme (graph → node → item), extended with the
//! epoch-flush and containment locks that grew around it:
//!
//! | rank | tier           | lock(s)                                      |
//! |------|----------------|----------------------------------------------|
//! | 0    | `FlushSerial`  | `MetadataManager::flush_serial`              |
//! | 1    | `EpochQueue`   | `MetadataManager::epoch_queue`               |
//! | 2    | `ItemCompute`  | `Handler::compute_lock` (self-nesting: deps) |
//! | 3    | `Bookkeeping`  | `MetadataManager::inner`                     |
//! | 4    | `Graph`        | `MetadataManager::registries`                |
//! | 5    | `Node`         | `NodeRegistry::items`                        |
//! | 6    | `Shard`        | `HandlerShards` partitions                   |
//! | 7    | `Observers`    | `Handler::observers`                         |
//! | 8    | `ItemValue`    | `Handler::value`                             |
//! | 9    | `ItemState`    | `Handler::containment`, `periodic_task`      |
//!
//! Two orderings are non-obvious and load-bearing: `ItemCompute` ranks
//! *below* `Bookkeeping` because meta-node compute closures read
//! manager totals (which take `inner`) while their compute lock is
//! held, and `Observers` ranks *below* `ItemValue` because
//! `Handler::add_observer_with_snapshot` holds the observer list while
//! the snapshot may fall back to a `value` read. `ItemCompute` is the
//! only tier that may nest *distinct* instances of itself: nested
//! dependency computes follow the dependency DAG, whose acyclicity the
//! static analyzer checks separately (rule A3).
//!
//! Only `ItemCompute` and `FlushSerial` may be held across user compute
//! closures (the `catch_unwind` region): the compute lock by design, and
//! the flush-serial mutex because epoch sweeps recompute items under it.

#![allow(dead_code)]

use std::ops::{Deref, DerefMut};

use parking_lot::{Mutex, RwLock};

/// Position of a lock in the declared hierarchy. Locks must be acquired
/// in ascending [`rank`](LockTier::rank) order within a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockTier {
    /// Epoch-flush serialization (`flush_serial`): held across an entire
    /// snapshot/number/sweep cycle, so it must come before everything.
    FlushSerial,
    /// The epoch coalescing queue (`epoch_queue`).
    EpochQueue,
    /// A handler's compute lock. The only self-nesting tier: a compute
    /// may take the compute lock of a *different* handler it depends on.
    ItemCompute,
    /// The manager's bookkeeping mutex (`inner`): refcounts, handler
    /// map, inverted dependency edges.
    Bookkeeping,
    /// The graph-level registries map.
    Graph,
    /// A node registry's item-definition map.
    Node,
    /// One partition of the sharded handler index.
    Shard,
    /// A handler's observer list.
    Observers,
    /// A handler's versioned value slot.
    ItemValue,
    /// Per-handler containment / periodic-task state: leaf locks, never
    /// held while acquiring anything else.
    ItemState,
}

impl LockTier {
    /// Numeric rank; lower acquires first.
    pub fn rank(self) -> u8 {
        match self {
            LockTier::FlushSerial => 0,
            LockTier::EpochQueue => 1,
            LockTier::ItemCompute => 2,
            LockTier::Bookkeeping => 3,
            LockTier::Graph => 4,
            LockTier::Node => 5,
            LockTier::Shard => 6,
            LockTier::Observers => 7,
            LockTier::ItemValue => 8,
            LockTier::ItemState => 9,
        }
    }

    /// Whether *distinct* locks of this tier may nest within one thread.
    /// True only for [`LockTier::ItemCompute`], whose nesting follows the
    /// (acyclic) dependency DAG.
    pub fn allows_self_nesting(self) -> bool {
        matches!(self, LockTier::ItemCompute)
    }

    /// Whether this tier may legally be held across a user compute
    /// closure (the `catch_unwind` region).
    pub fn allowed_across_compute(self) -> bool {
        matches!(self, LockTier::ItemCompute | LockTier::FlushSerial)
    }

    /// Stable lowercase name, e.g. `"bookkeeping"`.
    pub fn name(self) -> &'static str {
        match self {
            LockTier::FlushSerial => "flush_serial",
            LockTier::EpochQueue => "epoch_queue",
            LockTier::ItemCompute => "item_compute",
            LockTier::Bookkeeping => "bookkeeping",
            LockTier::Graph => "graph",
            LockTier::Node => "node",
            LockTier::Shard => "shard",
            LockTier::Observers => "observers",
            LockTier::ItemValue => "item_value",
            LockTier::ItemState => "item_state",
        }
    }
}

impl std::fmt::Display for LockTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded synchronization event (only produced under the
/// `lock-audit` feature, but the type exists unconditionally so the
/// analyzer's detector compiles and tests against synthetic streams).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockEvent {
    /// A lock acquisition: which tier/instance, on which thread, and the
    /// (tier, instance) stack already held by that thread.
    Acquire {
        /// Per-process dense thread id (not the OS id).
        thread: u64,
        /// Declared tier of the acquired lock.
        tier: LockTier,
        /// Unique instance id of the acquired lock.
        id: u64,
        /// Locks already held by this thread, outermost first.
        held: Vec<(LockTier, u64)>,
    },
    /// Entry into a user compute closure with the thread's held stack.
    Compute {
        /// Per-process dense thread id.
        thread: u64,
        /// Locks held while the user closure runs, outermost first.
        held: Vec<(LockTier, u64)>,
    },
}

/// Runtime control over lock-event recording.
///
/// Recording is opt-in per test even in `lock-audit` builds: the
/// per-thread held stacks are always maintained (cheap, thread-local),
/// but the global event log only fills between [`start`](lock_audit::start)
/// and [`finish`](lock_audit::finish), so an audited build pays one
/// relaxed atomic load per acquisition when idle.
pub mod lock_audit {
    use super::LockEvent;

    #[cfg(feature = "lock-audit")]
    mod imp {
        use super::LockEvent;
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        // std Mutex, deliberately: the log must not recurse into the
        // shim it observes.
        use std::sync::Mutex;

        static RECORDING: AtomicBool = AtomicBool::new(false);
        static EVENTS: Mutex<Vec<LockEvent>> = Mutex::new(Vec::new());
        static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(1);
        static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

        thread_local! {
            static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            static HELD: std::cell::RefCell<Vec<(super::super::LockTier, u64)>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }

        pub fn fresh_lock_id() -> u64 {
            NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed)
        }

        /// Dense per-process id of the calling thread.
        pub fn thread_id() -> u64 {
            THREAD_ID.with(|id| *id)
        }

        pub fn is_recording() -> bool {
            RECORDING.load(Ordering::Relaxed)
        }

        pub fn start() {
            EVENTS.lock().unwrap().clear();
            RECORDING.store(true, Ordering::SeqCst);
        }

        pub fn finish() -> Vec<LockEvent> {
            RECORDING.store(false, Ordering::SeqCst);
            std::mem::take(&mut *EVENTS.lock().unwrap())
        }

        /// Records an acquisition and pushes it onto the thread's held
        /// stack. Always maintains the stack; only logs when recording.
        pub fn on_acquire(tier: super::super::LockTier, id: u64) {
            HELD.with(|held| {
                if is_recording() {
                    let snapshot = held.borrow().clone();
                    EVENTS.lock().unwrap().push(LockEvent::Acquire {
                        thread: thread_id(),
                        tier,
                        id,
                        held: snapshot,
                    });
                }
                held.borrow_mut().push((tier, id));
            });
        }

        /// Removes an instance from the held stack. Removal is by id —
        /// guards may drop out of LIFO order.
        pub fn on_release(id: u64) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&(_, i)| i == id) {
                    held.remove(pos);
                }
            });
        }

        /// Records entry into a user compute closure.
        pub fn on_compute() {
            if is_recording() {
                let snapshot = HELD.with(|held| held.borrow().clone());
                EVENTS.lock().unwrap().push(LockEvent::Compute {
                    thread: thread_id(),
                    held: snapshot,
                });
            }
        }
    }

    /// Starts recording lock events (clears any previous log).
    pub fn start() {
        #[cfg(feature = "lock-audit")]
        imp::start();
    }

    /// Stops recording and drains the event log.
    pub fn finish() -> Vec<LockEvent> {
        #[cfg(feature = "lock-audit")]
        return imp::finish();
        #[cfg(not(feature = "lock-audit"))]
        Vec::new()
    }

    /// Whether events are currently being recorded (always false without
    /// the `lock-audit` feature).
    pub fn is_recording() -> bool {
        #[cfg(feature = "lock-audit")]
        return imp::is_recording();
        #[cfg(not(feature = "lock-audit"))]
        false
    }

    #[cfg(feature = "lock-audit")]
    pub(crate) use imp::{fresh_lock_id, on_acquire, on_compute, on_release};

    /// Dense per-process id of the calling thread, as used in recorded
    /// events. Lets a test filter the global log down to its own thread.
    #[cfg(feature = "lock-audit")]
    pub use imp::thread_id;

    /// Marks entry into a user compute closure (no-op unless auditing).
    #[cfg(not(feature = "lock-audit"))]
    pub(crate) fn on_compute() {}
}

/// Notes that the current thread is about to run a user compute closure,
/// so the auditor can flag locks illegally held across it.
#[inline]
pub(crate) fn note_user_compute() {
    lock_audit::on_compute();
}

/// A [`parking_lot::Mutex`] tagged with its position in the lock
/// hierarchy. Transparent without the `lock-audit` feature.
pub struct TieredMutex<T> {
    tier: LockTier,
    #[cfg(feature = "lock-audit")]
    id: u64,
    inner: Mutex<T>,
}

impl<T> TieredMutex<T> {
    /// Creates a mutex at the given tier.
    #[inline]
    pub fn new(tier: LockTier, value: T) -> Self {
        TieredMutex {
            tier,
            #[cfg(feature = "lock-audit")]
            id: lock_audit::fresh_lock_id(),
            inner: Mutex::new(value),
        }
    }

    /// The declared tier.
    #[inline]
    pub fn tier(&self) -> LockTier {
        self.tier
    }

    /// Acquires the mutex, recording the acquisition when auditing.
    #[inline]
    pub fn lock(&self) -> TieredMutexGuard<'_, T> {
        let guard = self.inner.lock();
        #[cfg(feature = "lock-audit")]
        lock_audit::on_acquire(self.tier, self.id);
        TieredMutexGuard {
            guard,
            #[cfg(feature = "lock-audit")]
            id: self.id,
        }
    }

    /// Attempts the mutex without blocking; records only on success.
    #[inline]
    pub fn try_lock(&self) -> Option<TieredMutexGuard<'_, T>> {
        let guard = self.inner.try_lock()?;
        #[cfg(feature = "lock-audit")]
        lock_audit::on_acquire(self.tier, self.id);
        Some(TieredMutexGuard {
            guard,
            #[cfg(feature = "lock-audit")]
            id: self.id,
        })
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TieredMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredMutex")
            .field("tier", &self.tier)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard for a [`TieredMutex`]; pops the held-stack entry on drop.
pub struct TieredMutexGuard<'a, T> {
    guard: parking_lot::MutexGuard<'a, T>,
    #[cfg(feature = "lock-audit")]
    id: u64,
}

impl<T> Deref for TieredMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TieredMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(feature = "lock-audit")]
impl<T> Drop for TieredMutexGuard<'_, T> {
    fn drop(&mut self) {
        lock_audit::on_release(self.id);
    }
}

/// A [`parking_lot::RwLock`] tagged with its position in the lock
/// hierarchy. Read and write acquisitions are both audited: the
/// hierarchy must hold regardless of sharing mode.
pub struct TieredRwLock<T> {
    tier: LockTier,
    #[cfg(feature = "lock-audit")]
    id: u64,
    inner: RwLock<T>,
}

impl<T> TieredRwLock<T> {
    /// Creates an rwlock at the given tier.
    #[inline]
    pub fn new(tier: LockTier, value: T) -> Self {
        TieredRwLock {
            tier,
            #[cfg(feature = "lock-audit")]
            id: lock_audit::fresh_lock_id(),
            inner: RwLock::new(value),
        }
    }

    /// The declared tier.
    #[inline]
    pub fn tier(&self) -> LockTier {
        self.tier
    }

    /// Acquires a shared read guard.
    #[inline]
    pub fn read(&self) -> TieredRwLockReadGuard<'_, T> {
        let guard = self.inner.read();
        #[cfg(feature = "lock-audit")]
        lock_audit::on_acquire(self.tier, self.id);
        TieredRwLockReadGuard {
            guard,
            #[cfg(feature = "lock-audit")]
            id: self.id,
        }
    }

    /// Acquires an exclusive write guard.
    #[inline]
    pub fn write(&self) -> TieredRwLockWriteGuard<'_, T> {
        let guard = self.inner.write();
        #[cfg(feature = "lock-audit")]
        lock_audit::on_acquire(self.tier, self.id);
        TieredRwLockWriteGuard {
            guard,
            #[cfg(feature = "lock-audit")]
            id: self.id,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TieredRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredRwLock")
            .field("tier", &self.tier)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared-read guard for a [`TieredRwLock`].
pub struct TieredRwLockReadGuard<'a, T> {
    guard: parking_lot::RwLockReadGuard<'a, T>,
    #[cfg(feature = "lock-audit")]
    id: u64,
}

impl<T> Deref for TieredRwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

#[cfg(feature = "lock-audit")]
impl<T> Drop for TieredRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        lock_audit::on_release(self.id);
    }
}

/// Exclusive-write guard for a [`TieredRwLock`].
pub struct TieredRwLockWriteGuard<'a, T> {
    guard: parking_lot::RwLockWriteGuard<'a, T>,
    #[cfg(feature = "lock-audit")]
    id: u64,
}

impl<T> Deref for TieredRwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TieredRwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(feature = "lock-audit")]
impl<T> Drop for TieredRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        lock_audit::on_release(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_total_and_stable() {
        let tiers = [
            LockTier::FlushSerial,
            LockTier::EpochQueue,
            LockTier::ItemCompute,
            LockTier::Bookkeeping,
            LockTier::Graph,
            LockTier::Node,
            LockTier::Shard,
            LockTier::Observers,
            LockTier::ItemValue,
            LockTier::ItemState,
        ];
        for (i, t) in tiers.iter().enumerate() {
            assert_eq!(t.rank() as usize, i, "{t} rank drifted");
        }
        assert!(LockTier::ItemCompute.allows_self_nesting());
        assert!(!LockTier::Bookkeeping.allows_self_nesting());
        assert!(LockTier::FlushSerial.allowed_across_compute());
        assert!(LockTier::ItemCompute.allowed_across_compute());
        assert!(!LockTier::ItemValue.allowed_across_compute());
    }

    #[test]
    fn guards_deref_like_the_raw_primitives() {
        let m = TieredMutex::new(LockTier::Bookkeeping, 1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        let rw = TieredRwLock::new(LockTier::ItemValue, vec![1, 2]);
        rw.write().push(3);
        assert_eq!(rw.read().len(), 3);
        assert_eq!(rw.tier(), LockTier::ItemValue);
    }

    #[cfg(feature = "lock-audit")]
    #[test]
    fn audit_records_nested_acquisitions() {
        let outer = TieredMutex::new(LockTier::Bookkeeping, ());
        let inner = TieredRwLock::new(LockTier::Shard, ());
        lock_audit::start();
        {
            let _a = outer.lock();
            let _b = inner.read();
        }
        let events = lock_audit::finish();
        // Other tests in the harness may interleave unrelated events on
        // other threads; filter the log down to this thread's.
        let me = lock_audit::thread_id();
        let ours: Vec<&LockEvent> = events
            .iter()
            .filter(|e| matches!(e, LockEvent::Acquire { thread, .. } if *thread == me))
            .collect();
        assert_eq!(ours.len(), 2);
        match ours[1] {
            LockEvent::Acquire { tier, held, .. } => {
                assert_eq!(*tier, LockTier::Shard);
                assert!(held.iter().any(|(t, _)| *t == LockTier::Bookkeeping));
            }
            _ => unreachable!(),
        }
    }
}
