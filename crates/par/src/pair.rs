//! A two-lane scope with one *persistent* companion worker.
//!
//! The contrastive GNN trainer runs thousands of ~30µs steps, each of which
//! splits into two independent tape builds (one per graph of the pair).
//! Spawning an OS thread per step would cost more than the step itself, so
//! [`PairScope`] keeps a single companion thread alive for the scope's
//! lifetime and hands it borrowed closures through a rendezvous slot:
//!
//! 1. `join2(fa, fb)` erases `fa` into a raw task pointer, publishes it to
//!    the slot, runs `fb` inline, then waits for the worker's done flag.
//! 2. The worker spins briefly (the tasks are microseconds long), falling
//!    back to a condvar park when idle for longer.
//!
//! Safety: the task pointer refers to stack data of the `join2` frame;
//! `join2` never returns until the worker has signalled completion (or the
//! scope propagates the worker's panic), so the borrow cannot dangle. The
//! worker is joined on drop.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Type-erased borrowed task: `call(data)` invokes the original closure.
struct Task {
    call: unsafe fn(*mut ()),
    data: *mut (),
}

/// Shutdown sentinel distinguishable from both null and real tasks.
fn shutdown_sentinel() -> *mut Task {
    // Any non-null aligned address never produced by Box::into_raw.
    std::ptr::dangling_mut::<Task>().wrapping_add(1)
}

/// Rendezvous state shared between the scope and its companion.
struct Slot {
    /// Null = empty, sentinel = shutdown, else a borrowed `*mut Task`.
    task: AtomicPtr<Task>,
    done: AtomicBool,
    panicked: AtomicBool,
    /// Park/wake for the idle worker (spin first, park after).
    park: Mutex<bool>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Self {
        Self {
            task: AtomicPtr::new(std::ptr::null_mut()),
            done: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            park: Mutex::new(false),
            cv: Condvar::new(),
        }
    }
}

/// Spin iterations before a waiter yields / the worker parks. Tasks are
/// microsecond-scale, so a short spin almost always wins the race. A scope
/// only gets a companion when the machine has a second core to spin on.
const SPIN: usize = 1 << 14;

fn worker_loop(slot: &Slot) {
    let shutdown = shutdown_sentinel();
    loop {
        // Acquire the next task: spin, then park.
        let mut task = std::ptr::null_mut();
        for _ in 0..SPIN {
            task = slot.task.load(Ordering::Acquire);
            if !task.is_null() {
                break;
            }
            std::hint::spin_loop();
        }
        if task.is_null() {
            let mut parked = slot.park.lock().unwrap_or_else(|e| e.into_inner());
            *parked = true;
            loop {
                task = slot.task.load(Ordering::Acquire);
                if !task.is_null() {
                    break;
                }
                parked = slot.cv.wait(parked).unwrap_or_else(|e| e.into_inner());
            }
            *parked = false;
        }
        if std::ptr::eq(task, shutdown) {
            return;
        }
        slot.task.store(std::ptr::null_mut(), Ordering::Relaxed);
        // SAFETY: the submitting `join2` frame owns the pointed-to task and
        // blocks until `done` flips, so the borrow is live.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe {
            let t = &*task;
            (t.call)(t.data);
        }));
        if outcome.is_err() {
            slot.panicked.store(true, Ordering::Release);
        }
        slot.done.store(true, Ordering::Release);
    }
}

/// A scope holding at most one companion worker; see the module docs.
pub struct PairScope {
    slot: Option<Arc<Slot>>,
    handle: Option<JoinHandle<()>>,
}

impl PairScope {
    /// `parallel == false` builds an inline scope (no thread, `join2` runs
    /// sequentially) — the 1-thread code path stays the sequential code.
    pub(crate) fn new(parallel: bool) -> Self {
        if !parallel {
            return Self {
                slot: None,
                handle: None,
            };
        }
        let slot = Arc::new(Slot::new());
        let worker_slot = Arc::clone(&slot);
        let handle = std::thread::Builder::new()
            .name("fexiot-par-pair".into())
            .spawn(move || worker_loop(&worker_slot))
            .ok();
        if handle.is_none() {
            // Could not spawn (resource limits): degrade to inline.
            return Self {
                slot: None,
                handle: None,
            };
        }
        Self {
            slot: Some(slot),
            handle,
        }
    }

    /// Runs `fa` and `fb` to completion and returns both results — `fa` on
    /// the companion worker (when attached) while `fb` runs on the calling
    /// thread. Inline scopes run `fa` then `fb` sequentially. Both closures
    /// are pure with respect to scheduling: the pair of results is identical
    /// either way.
    pub fn join2<RA: Send, RB>(
        &self,
        fa: impl FnOnce() -> RA + Send,
        fb: impl FnOnce() -> RB,
    ) -> (RA, RB) {
        let Some(slot) = &self.slot else {
            return (fa(), fb());
        };
        let mut ra: Option<RA> = None;
        let mut fa = Some(fa);
        let mut wrapper = || {
            ra = Some((fa.take().expect("task runs once"))());
        };
        unsafe fn trampoline<F: FnMut()>(data: *mut ()) {
            // SAFETY: `data` is the `&mut F` erased below, live for the call.
            unsafe { (*(data as *mut F))() }
        }
        fn erase<F: FnMut()>(f: &mut F) -> Task {
            Task {
                call: trampoline::<F>,
                data: f as *mut F as *mut (),
            }
        }
        let mut task = erase(&mut wrapper);
        // Publish the task, waking the worker if it parked.
        slot.done.store(false, Ordering::Relaxed);
        slot.task.store(&mut task, Ordering::Release);
        {
            let parked = slot.park.lock().unwrap_or_else(|e| e.into_inner());
            if *parked {
                slot.cv.notify_one();
            }
        }

        let rb = fb();

        // Wait for the companion: spin (tasks are µs-scale), then yield.
        let mut spins = 0usize;
        while !slot.done.load(Ordering::Acquire) {
            spins += 1;
            if spins < SPIN {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if slot.panicked.swap(false, Ordering::AcqRel) {
            panic!("fexiot-par pair worker panicked");
        }
        (ra.expect("companion completed the task"), rb)
    }
}

impl Drop for PairScope {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.task.store(shutdown_sentinel(), Ordering::Release);
            let parked = slot.park.lock().unwrap_or_else(|e| e.into_inner());
            if *parked {
                slot.cv.notify_one();
            }
            drop(parked);
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join2_returns_both_results_inline_and_parallel() {
        for parallel in [false, true] {
            let scope = PairScope::new(parallel);
            let (a, b) = scope.join2(|| 6 * 7, || "ok");
            assert_eq!((a, b), (42, "ok"));
        }
    }

    #[test]
    fn join2_borrows_stack_data() {
        let scope = PairScope::new(true);
        let data: Vec<u64> = (0..1000).collect();
        for _ in 0..200 {
            let (sa, sb) = scope.join2(
                || data.iter().sum::<u64>(),
                || data.iter().rev().sum::<u64>(),
            );
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn many_rapid_joins_stay_correct() {
        let scope = PairScope::new(true);
        let mut acc = 0u64;
        for i in 0..5000u64 {
            let (a, b) = scope.join2(move || i * 2, move || i * 3);
            acc = acc.wrapping_add(a + b);
        }
        assert_eq!(acc, (0..5000u64).map(|i| i * 5).sum::<u64>());
    }

    #[test]
    #[should_panic(expected = "pair worker panicked")]
    fn companion_panic_propagates() {
        let scope = PairScope::new(true);
        let _ = scope.join2(|| panic!("boom"), || 1);
    }
}
