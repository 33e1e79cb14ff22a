//! The workspace's lock policy, in one place: **poison is ignored.**
//!
//! A `std::sync` lock is poisoned when a thread panics while holding
//! its write guard, and every later `lock()` then returns an error.
//! The service half of the workspace (the record bus, the observatory's
//! shared tables) is built to outlive a panicking epoch or tap client —
//! rounds run under [`supervise`](crate::supervise()) — so a poisoned
//! lock would turn one caught failure into a dead `/tables`. Everything
//! guarded here is updated in steps that each leave it valid (a lane
//! pushed or retained, an `Arc` swapped, one epoch row or telemetry
//! snapshot absorbed by code that only adds to counters), so the value
//! behind a poisoned lock is still a value readers may see.
//!
//! All three helpers recover the guard with
//! [`PoisonError::into_inner`]; shared state is locked through them and
//! never through `lock()`/`read()`/`write()` directly.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `mutex`, poisoned or not.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `lock`, poisoned or not.
pub fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `lock`, poisoned or not.
pub fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panicking_holder_does_not_lock_everyone_else_out() {
        let mutex = Arc::new(Mutex::new(1));
        let tables = Arc::new(RwLock::new(2));
        let (m, t) = (mutex.clone(), tables.clone());
        let holder = std::thread::spawn(move || {
            let _guards = (lock(&m), write(&t));
            panic!("dies holding both");
        });
        assert!(holder.join().is_err());
        assert!(mutex.is_poisoned() && tables.is_poisoned());
        *lock(&mutex) += 1;
        *write(&tables) += 1;
        assert_eq!((*lock(&mutex), *read(&tables)), (2, 3));
    }
}
