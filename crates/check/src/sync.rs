//! Shim synchronization types, API-compatible with `hpa_exec::sync` and
//! the `std::sync::atomic` types the substrate uses.
//!
//! Every operation first asks `crate::sched::current` whether the
//! calling thread belongs to an active model run. Inside a run, the
//! operation routes through the cooperative scheduler (becoming a
//! scheduling point the explorer can branch on); outside a run, it
//! degrades to the raw `std` primitive it wraps — one thread-local read
//! of overhead. That fallback is what makes the shims safe to compile
//! into crates whose regular tests also run in the same build (cargo
//! feature unification turns `model-check` on workspace-wide whenever
//! `hpa-check`'s suites are in the build graph).
//!
//! Release builds of the substrate never see these types at all: the
//! facades in `hpa_exec::sync` and `hpa_dict::atomic` only select them
//! under `cfg(any(hpa_check, feature = "model-check"))`.

use crate::sched::{self, ObjCell};
use std::time::Duration;

/// A mutual-exclusion lock, poison-free like `hpa_exec::sync::Mutex`.
/// Under a model run, acquisition is a scheduling point and contention is
/// resolved by explicit lock handoff (a recorded decision).
pub struct Mutex<T: ?Sized> {
    obj: ObjCell,
    inner: std::sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`]. Derefs to the protected value.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    /// `Some` while the real lock is held; taken during condvar waits.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    /// Whether the acquisition went through the model scheduler.
    model: bool,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            obj: ObjCell::new(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poisoning. A scheduling point under a
    /// model run.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let model = match sched::current() {
            Some(ctx) => {
                ctx.mutex_lock(&self.obj);
                true
            }
            None => false,
        };
        // In model mode the scheduler has made us the owner, so the real
        // lock below is uncontended: any model thread that held it has
        // fully dropped its guard before we could be scheduled here.
        MutexGuard {
            lock: self,
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            model,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.model {
            if let Some(ctx) = sched::current() {
                ctx.mutex_unlock(&self.lock.obj);
            }
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard holds the lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard holds the lock")
    }
}

impl<T: ?Sized> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// A condition variable paired with [`Mutex`]. Under a model run,
/// waiters are woken only by `notify_*` (plus modeled timeouts for
/// [`Condvar::wait_for`]), so lost wakeups surface as deadlocks.
pub struct Condvar {
    obj: ObjCell,
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            obj: ObjCell::new(),
            inner: std::sync::Condvar::new(),
        }
    }

    /// Wake one waiter (FIFO under the model).
    pub fn notify_one(&self) {
        match sched::current() {
            Some(ctx) => ctx.cv_notify(&self.obj, false),
            None => self.inner.notify_one(),
        }
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        match sched::current() {
            Some(ctx) => ctx.cv_notify(&self.obj, true),
            None => self.inner.notify_all(),
        }
    }

    /// Block until notified, releasing the guard's lock while waiting and
    /// re-acquiring it before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.wait_impl(guard, None);
    }

    /// Block until notified or `timeout` elapses. Returns `true` when the
    /// wait timed out. Under the model, the timeout is a scheduling
    /// alternative: the explorer considers both the notified and the
    /// timed-out continuation, with no real time passing.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
        self.wait_impl(guard, Some(timeout))
    }

    fn wait_impl<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Option<Duration>) -> bool {
        match sched::current() {
            Some(ctx) if guard.model => {
                // Release the real lock before blocking in the scheduler:
                // the model hands the lock to another thread, which must
                // be able to take the real one when it resumes.
                drop(guard.inner.take().expect("guard holds the lock"));
                let timed_out = ctx.cv_wait(&self.obj, &guard.lock.obj, timeout.is_some());
                guard.inner = Some(guard.lock.inner.lock().unwrap_or_else(|e| e.into_inner()));
                timed_out
            }
            _ => {
                let inner = guard.inner.take().expect("guard holds the lock");
                match timeout {
                    None => {
                        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
                        guard.inner = Some(inner);
                        false
                    }
                    Some(t) => {
                        let (inner, result) = self
                            .inner
                            .wait_timeout(inner, t)
                            .unwrap_or_else(|e| e.into_inner());
                        guard.inner = Some(inner);
                        result.timed_out()
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// Atomic integer shims: every access is a scheduling point under a model
/// run (explored under sequential consistency — the serialized scheduler
/// cannot represent weak-memory reorderings; the lint bounds `Relaxed`
/// usage instead), and a raw `std` atomic operation otherwise.
pub mod atomic {
    use crate::sched::{self, ObjCell};
    pub use std::sync::atomic::Ordering;

    /// `(acquire, release)` happens-before edges a load with `order`
    /// establishes. Under the model's sequentially-consistent exploration
    /// a `SeqCst` access contributes the same edges as acquire/release —
    /// the stronger total-order property is already given by the
    /// serialized scheduler, so only the edge component matters for the
    /// race detector.
    fn load_edges(order: Ordering) -> (bool, bool) {
        (!matches!(order, Ordering::Relaxed), false)
    }

    /// Edges a store with `order` establishes.
    fn store_edges(order: Ordering) -> (bool, bool) {
        (false, !matches!(order, Ordering::Relaxed))
    }

    /// Edges a read-modify-write with `order` establishes.
    fn rmw_edges(order: Ordering) -> (bool, bool) {
        (
            matches!(
                order,
                Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
            ),
            matches!(
                order,
                Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
            ),
        )
    }

    /// Edges a compare-exchange establishes: the success ordering when it
    /// took effect, the failure ordering (a pure load) when it did not.
    fn cas_edges(success: Ordering, failure: Ordering, swapped: bool) -> (bool, bool) {
        if swapped {
            rmw_edges(success)
        } else {
            load_edges(failure)
        }
    }

    macro_rules! atomic_shim {
        ($name:ident, $std:ty, $prim:ty) => {
            /// Shimmed atomic; see [`crate::sync::atomic`] module docs.
            #[derive(Debug)]
            pub struct $name {
                obj: ObjCell,
                inner: $std,
            }

            impl $name {
                /// Create a new atomic with the given initial value.
                pub const fn new(v: $prim) -> Self {
                    $name {
                        obj: ObjCell::new(),
                        inner: <$std>::new(v),
                    }
                }

                /// Run the real operation through the model: take one
                /// scheduling point *before* it, execute it while the
                /// caller is the only runnable thread, then record the
                /// actual post-op value into the scheduler's state (used
                /// for state signatures) together with the happens-before
                /// edges `edges(&result)` says the access establishes.
                /// Recording after the op — rather than predicting the
                /// result before the switch point — keeps the recorded
                /// value correct even when another thread interleaves at
                /// the scheduling point, and lets a compare-exchange pick
                /// its edges from the actual success/failure outcome.
                fn shim_op<R>(
                    &self,
                    op: impl FnOnce() -> R,
                    edges: impl FnOnce(&R) -> (bool, bool),
                ) -> R {
                    match sched::current() {
                        Some(ctx) => {
                            // ORDERING: model-internal snapshot feeding the
                            // state signature, not synchronization — the
                            // scheduler serializes all threads here anyway.
                            let oid =
                                ctx.atomic_pre(&self.obj, self.inner.load(Ordering::SeqCst) as u64);
                            let out = op();
                            let (acquire, release) = edges(&out);
                            // ORDERING: same model-internal snapshot as above.
                            let post = self.inner.load(Ordering::SeqCst) as u64;
                            ctx.atomic_post(oid, post, acquire, release);
                            out
                        }
                        None => op(),
                    }
                }

                /// Load the current value.
                pub fn load(&self, order: Ordering) -> $prim {
                    self.shim_op(|| self.inner.load(order), |_| load_edges(order))
                }

                /// Store a new value.
                pub fn store(&self, val: $prim, order: Ordering) {
                    self.shim_op(|| self.inner.store(val, order), |_| store_edges(order))
                }

                /// Swap in a new value, returning the previous one.
                pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                    self.shim_op(|| self.inner.swap(val, order), |_| rmw_edges(order))
                }

                /// Consume the atomic, returning the inner value.
                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }

                /// Mutable access (requires exclusive ownership).
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.inner.get_mut()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(Default::default())
                }
            }
        };
    }

    macro_rules! atomic_shim_int {
        ($name:ident, $std:ty, $prim:ty) => {
            atomic_shim!($name, $std, $prim);

            impl $name {
                /// Add, returning the previous value.
                pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                    self.shim_op(|| self.inner.fetch_add(val, order), |_| rmw_edges(order))
                }

                /// Subtract, returning the previous value.
                pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                    self.shim_op(|| self.inner.fetch_sub(val, order), |_| rmw_edges(order))
                }

                /// Compare-and-exchange; `Ok(previous)` on success.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.shim_op(
                        || self.inner.compare_exchange(current, new, success, failure),
                        |r| cas_edges(success, failure, r.is_ok()),
                    )
                }

                /// Weak compare-and-exchange (may fail spuriously on real
                /// hardware; never spuriously under the model).
                pub fn compare_exchange_weak(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.shim_op(
                        || {
                            self.inner
                                .compare_exchange_weak(current, new, success, failure)
                        },
                        |r| cas_edges(success, failure, r.is_ok()),
                    )
                }
            }
        };
    }

    atomic_shim_int!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    atomic_shim_int!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    atomic_shim!(AtomicBool, std::sync::atomic::AtomicBool, bool);

    impl AtomicBool {
        /// Logical-or, returning the previous value.
        pub fn fetch_or(&self, val: bool, order: Ordering) -> bool {
            self.shim_op(|| self.inner.fetch_or(val, order), |_| rmw_edges(order))
        }
    }
}
